//! E19 regression smoke: the serving tier's deterministic quick-mode
//! facts must match the checked-in baseline
//! (`baselines/e19_quick.json`), and the measured p99 read latency
//! must stay under the baseline's SLO budget. The budget is
//! deliberately generous (everything shares one core in CI), so a
//! trip means a structural regression — reactor starvation, a lost
//! wakeup, a stall in the in-flight window — not machine noise.

use gsview_bench::e19;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e19_quick.json");

#[test]
fn serving_facts_hold_and_p99_meets_the_slo() {
    let baseline = Baseline::parse(BASELINE);
    let (requests, ok, equivalence_failures, p99_us, shed) = e19::quick_facts();
    assert_eq!(requests as u64, baseline.int("requests"), "request count drifted");
    assert_eq!(
        ok as u64,
        baseline.int("ok"),
        "a clean-network round trip was dropped"
    );
    assert_eq!(
        equivalence_failures as u64,
        baseline.int("equivalence_failures"),
        "remote answers diverged from colocated evaluation"
    );
    assert_eq!(
        shed,
        baseline.int("shed"),
        "admission shed count drifted from baseline"
    );
    let budget = baseline.int("p99_budget_us");
    assert!(
        p99_us <= budget,
        "p99 read latency {p99_us}us blew the {budget}us SLO budget"
    );
}
