//! E18 regression smoke: the deterministic quick-mode backend facts
//! must not drift from the checked-in baseline
//! (`baselines/e18_quick.json`). The batch size and per-shape
//! membership-change counts are exact — fixed strided workload — so
//! any drift is a change in the workload, a backend's membership
//! semantics, or the planner's lowering, not noise. Backend *parity*
//! (circuit members == Algorithm 1 members on every shape, circuit
//! stepped rather than rebuilt) is asserted inside
//! `e18::quick_facts` itself. Wall times are deliberately NOT checked
//! here (machine-dependent); EXPERIMENTS.md records them.

use gsview_bench::e18;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e18_quick.json");

/// Regression pin for the E18 routing fix: the planner must route
/// wildcard selection shapes to Algorithm 1 — the circuit's
/// product-state lost to scoped recomputation at every measured size.
/// The expected backend lives in the baseline file so flipping the
/// routing rule back requires touching the checked-in baseline too.
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
        why.contains("E18"),
        "routing reason must cite the measurement that justifies it: {why}"
    );
}

#[test]
fn backend_facts_do_not_drift() {
    let baseline = Baseline::parse(BASELINE);
    let (delta_ops, single, multi, wildcard, aggregate) = e18::quick_facts();
    assert_eq!(
        delta_ops,
        baseline.int("delta_ops"),
        "consolidated batch size drifted from baseline"
    );
    assert_eq!(
        single,
        baseline.int("single_changed"),
        "single-path membership churn drifted from baseline"
    );
    assert_eq!(
        multi,
        baseline.int("multi_changed"),
        "multi-path union membership churn drifted from baseline"
    );
    assert_eq!(
        wildcard,
        baseline.int("wildcard_changed"),
        "wildcard membership churn drifted from baseline"
    );
    assert_eq!(
        aggregate,
        baseline.int("aggregate_changed"),
        "aggregate membership churn drifted from baseline"
    );
}
