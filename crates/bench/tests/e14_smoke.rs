//! E14 regression smoke: the deterministic quick-mode facts of the
//! epoch read path must not drift from the checked-in baseline
//! (`baselines/e14_quick.json`). Epoch counts and base-access counts
//! are exact — same workload seed, same batch script — so any drift is
//! a change in the commit/publish discipline, not noise. Wall-clock
//! latency is deliberately NOT checked here (machine-dependent);
//! EXPERIMENTS.md records it.

use gsview_bench::e14;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e14_quick.json");

#[test]
fn epoch_read_path_facts_do_not_drift() {
    let baseline = Baseline::parse(BASELINE);
    let (epochs, tears, acc_epoch, acc_mutex) = e14::quick_consistency();

    // One epoch per committed batch — a publish skipped (readers stuck
    // on a stale snapshot) or duplicated (mid-batch states leaking)
    // both show up here.
    assert_eq!(
        epochs,
        baseline.int("epochs_published"),
        "published-epoch count drifted from baseline"
    );

    // Two marker atoms read off one snapshot can never disagree. This
    // is the snapshot-isolation claim in its cheapest observable form.
    assert_eq!(tears, 0, "epoch route observed a torn marker pair");
    assert_eq!(tears, baseline.int("epoch_pair_tears"));

    // Both read routes traverse the identical committed state at the
    // identical base-access cost — the epoch path changes *where*
    // reads happen, not what they cost (the paper's §4.4 metric).
    assert_eq!(
        acc_epoch,
        baseline.int("reach_accesses_epoch"),
        "snapshot-route access count drifted from baseline"
    );
    assert_eq!(
        acc_mutex,
        baseline.int("reach_accesses_mutex"),
        "mutex-route access count drifted from baseline"
    );
    assert_eq!(acc_epoch, acc_mutex, "routes must cost the same");
}
