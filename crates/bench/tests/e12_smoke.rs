//! E12 regression smoke: the deterministic quick-mode fault-tolerance
//! counts must not drift from the checked-in baseline
//! (`baselines/e12_quick.json`). The stream, the loss schedule and the
//! resync cadence are all seeded, so gaps, resyncs, reports skipped
//! while stale, final membership and the total of source queries are
//! exact at every loss rate, cache off and on — any drift is a change
//! in set-up, heal or incremental maintenance, not noise. `measure`
//! itself asserts that every configuration converges to a recompute
//! over the source's final state.

use gsview_bench::e12;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e12_quick.json");

#[test]
fn fault_tolerance_counts_do_not_drift() {
    let baseline = Baseline::parse(BASELINE);
    let rows = e12::quick_facts();
    assert_eq!(rows.len(), 6, "three loss rates, cache off and on");
    for r in rows {
        let config = format!(
            "loss{}_{}",
            (r.loss * 100.0).round(),
            if r.cached { "on" } else { "off" }
        );
        for (what, got) in [
            ("gaps", r.gaps_detected),
            ("resyncs", r.resyncs),
            ("skipped", r.skipped_while_stale),
            ("members", r.members as u64),
            ("queries", r.queries),
        ] {
            let key = format!("{config}_{what}");
            assert_eq!(got, baseline.int(&key), "{key} drifted from baseline");
        }
    }
}
