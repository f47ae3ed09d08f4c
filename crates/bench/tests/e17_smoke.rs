//! E17 regression smoke: the deterministic quick-mode restart facts
//! must not drift from the checked-in baseline
//! (`baselines/e17_quick.json`). Query counts and chunk-transfer
//! counts are exact — fixed workload, content-addressed pages — so
//! any drift is a change in the durable chunking, the warm-restart
//! path, or the view workload, not noise. Wall times are deliberately
//! NOT checked here (machine-dependent); EXPERIMENTS.md records them.

use gsview_bench::e17;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e17_quick.json");

#[test]
fn restart_facts_do_not_drift() {
    let baseline = Baseline::parse(BASELINE);
    // quick_facts itself asserts the structural guarantees: warm
    // restart answers zero queries to the source, recovers the exact
    // object set the live store held, and the diff resync reuses at
    // least one unchanged page.
    let (cold_queries, recovered_objects, resync_fetched, resync_reused, cold_queries_shared) =
        e17::quick_facts();
    assert_eq!(
        cold_queries,
        baseline.int("cold_queries"),
        "cold-restart query count drifted from baseline"
    );
    assert_eq!(
        recovered_objects,
        baseline.int("recovered_objects"),
        "recovered object count drifted from baseline"
    );
    assert_eq!(
        resync_fetched,
        baseline.int("resync_fetched"),
        "diff-resync fetched-chunk count drifted from baseline"
    );
    assert_eq!(
        resync_reused,
        baseline.int("resync_reused"),
        "diff-resync reused-chunk count drifted from baseline"
    );
    assert_eq!(
        cold_queries_shared,
        baseline.int("cold_queries_shared"),
        "four-view cold-restart query count drifted from baseline"
    );
}

#[test]
fn a_restart_scans_the_live_bytes_not_the_history() {
    let baseline = Baseline::parse(BASELINE);
    // The live set sits past the 1 MiB compaction floor, so after any
    // history the log the open scan reads is bounded by the ratio alone.
    let max = baseline.int("history_scan_over_live_max");
    for (epochs, scanned, live) in e17::history_facts() {
        assert!(
            live > 1 << 20,
            "{epochs} epochs: {live} live bytes, under the floor"
        );
        assert!(
            scanned <= max * live,
            "{epochs} epochs: the open scan read {scanned} bytes for {live} live"
        );
    }
}
