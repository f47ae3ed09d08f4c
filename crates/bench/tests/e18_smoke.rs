//! E18 regression smoke: the deterministic quick-mode backend facts
//! must not drift from the checked-in baseline
//! (`baselines/e18_quick.json`). The batch size, the per-shape
//! membership-change counts and each circuit's live state entries
//! after the batch are exact — fixed strided workload — so any drift
//! is a change in the workload, a backend's membership semantics, the
//! circuit's state, or the planner's lowering, not noise. Backend *parity*
//! (circuit members == Algorithm 1 members on every circuit shape,
//! circuit stepped rather than rebuilt; Algorithm 1 == recomputation
//! on `wildcard`, which has no circuit) is asserted inside
//! `e18::quick_facts` itself. Wall times are deliberately NOT checked
//! here (machine-dependent); EXPERIMENTS.md records them.

use gsview_bench::e18;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e18_quick.json");

/// Regression pin for the routing rule: the planner must route
/// wildcard selection shapes to Algorithm 1 — circuits take constant
/// paths only. The expected backend lives in the baseline file so
/// flipping the routing rule back requires touching the checked-in
/// baseline too.
#[test]
fn wildcard_routing_decision_is_pinned() {
    let baseline = Baseline::parse(BASELINE);
    let sel = gsview_query::pathexpr::PathExpr::parse("*.student").unwrap();
    let (backend, why) = gsview_query::choose_backend(&sel, 1, false);
    assert_eq!(
        format!("{backend}"),
        baseline.text("wildcard_backend"),
        "wildcard routing decision drifted from baseline"
    );
    assert!(
        why.contains("constant paths"),
        "routing reason must say circuits take constant paths: {why}"
    );
}

#[test]
fn backend_facts_do_not_drift() {
    let baseline = Baseline::parse(BASELINE);
    let (delta_ops, shapes) = e18::quick_facts();
    assert_eq!(
        delta_ops,
        baseline.int("delta_ops"),
        "consolidated batch size drifted from baseline"
    );
    for (shape, changed, state) in shapes {
        assert_eq!(
            changed,
            baseline.int(&format!("{shape}_changed")),
            "{shape}: membership churn drifted from baseline"
        );
        // The circuit's live entries after the batch: a layout change
        // to the flows' state must keep exactly the same entries.
        if let Some(state) = state {
            assert_eq!(
                state,
                baseline.int(&format!("{shape}_state")),
                "{shape}: circuit state entries drifted from baseline"
            );
        }
    }
}
