//! E13 regression smoke: the deterministic quick-mode base-access
//! counts must not regress past the checked-in baseline
//! (`baselines/e13_quick.json`). Access counts are exact — same
//! workload seed, same update script — so any drift is a real
//! algorithmic change, not noise. Wall-clock is deliberately NOT
//! checked here (machine-dependent); the counts are the paper's cost
//! metric.

use gsview_bench::e13;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e13_quick.json");

#[test]
fn access_counts_do_not_regress() {
    let baseline = Baseline::parse(BASELINE);
    let (refresh, maint_par, maint_seed) = e13::quick_access_counts();

    // The automaton's realization must not change the paper's cost
    // metric at all (the count the seed layout's walk also made).
    assert_eq!(
        refresh,
        baseline.int("refresh_arena_accesses"),
        "arena refresh access count drifted from baseline"
    );

    // Partitioned maintenance may only get cheaper; allow 10% headroom
    // for intentional algorithm adjustments before the baseline must
    // be regenerated.
    let cap = baseline.int("maintenance_partitioned_accesses") * 11 / 10;
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
