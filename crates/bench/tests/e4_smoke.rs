//! E4 regression smoke: the deterministic quick-mode report-level
//! counts must not drift from the checked-in baseline
//! (`baselines/e4_quick.json`). Source, churn stream and view are
//! seeded, and every report is maintained one at a time through
//! `Warehouse::handle_report`, so source queries, messages, bytes and
//! final membership are exact at each report level, screening off and
//! on — any drift is a change in what a per-report maintenance pass
//! asks the source, not noise.

use gsview_bench::e4;
use gsview_warehouse::ReportLevel;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e4_quick.json");

#[test]
fn report_level_counts_do_not_drift() {
    let baseline = Baseline::parse(BASELINE);
    let rows = e4::quick_facts();
    assert_eq!(
        rows.len(),
        5,
        "L1, then L2 and L3 with screening off and on"
    );
    for r in rows {
        let level = match r.level {
            ReportLevel::OidsOnly => "l1",
            ReportLevel::WithValues => "l2",
            ReportLevel::WithPaths => "l3",
        };
        let config = format!("{level}_{}", if r.screening { "on" } else { "off" });
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
