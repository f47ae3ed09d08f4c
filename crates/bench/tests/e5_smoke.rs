//! E5 regression smoke: the deterministic quick-mode aux-cache counts
//! must not drift from the checked-in baseline
//! (`baselines/e5_quick.json`). Source and both churn streams are
//! seeded, and every report is maintained one at a time through
//! `Warehouse::handle_report`, so source queries, messages, bytes and
//! final membership are exact per stream, cache off and on — any drift
//! is a change in per-report maintenance or cache upkeep, not noise.

use gsview_bench::e5;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e5_quick.json");

#[test]
fn aux_cache_counts_do_not_drift() {
    let baseline = Baseline::parse(BASELINE);
    let rows = e5::quick_facts();
    assert_eq!(rows.len(), 4, "two streams, cache off and on");
    for r in rows {
        let config = format!("{}_{}", r.stream, if r.cached { "on" } else { "off" });
        for (what, got) in [
            ("queries", r.queries),
            ("messages", r.messages),
            ("bytes", r.bytes),
            ("members", r.members as u64),
        ] {
            let key = format!("{config}_{what}");
            assert_eq!(got, baseline.int(&key), "{key} drifted from baseline");
        }
    }
}
