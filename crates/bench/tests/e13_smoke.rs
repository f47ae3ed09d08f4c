//! E13 regression smoke: the deterministic quick-mode base-access
//! counts must not regress past the checked-in baseline
//! (`baselines/e13_quick.json`). Access counts are exact — same
//! workload seed, same update script — so any drift is a real
//! algorithmic change, not noise. Wall-clock is deliberately NOT
//! checked here (machine-dependent); the counts are the paper's cost
//! metric.

use gsview_bench::e13;

const BASELINE: &str = include_str!("../baselines/e13_quick.json");

/// Minimal extraction of `"key": <integer>` from the baseline JSON —
/// no serde in the dependency tree.
fn baseline(key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = BASELINE
        .split(&pat)
        .nth(1)
        .unwrap_or_else(|| panic!("baseline key {key} missing"));
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    num.parse().unwrap_or_else(|_| panic!("baseline key {key} not an integer"))
}

#[test]
fn access_counts_do_not_regress() {
    let (refresh, maint_par, maint_seed) = e13::quick_access_counts();

    // The automaton's realization must not change the paper's cost
    // metric at all (the count the seed layout's walk also made).
    assert_eq!(
        refresh,
        baseline("refresh_arena_accesses"),
        "arena refresh access count drifted from baseline"
    );

    // Partitioned maintenance may only get cheaper; allow 10% headroom
    // for intentional algorithm adjustments before the baseline must
    // be regenerated.
    let cap = baseline("maintenance_partitioned_accesses") * 11 / 10;
    assert!(
        maint_par <= cap,
        "partitioned maintenance accesses regressed: {maint_par} > {cap}"
    );

    // And it must stay strictly cheaper than the unpartitioned route.
    assert!(
        maint_par < maint_seed,
        "partitioning no longer reduces base accesses ({maint_par} vs {maint_seed})"
    );
}
