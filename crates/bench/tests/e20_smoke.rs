//! E20 regression smoke: the telemetry export pipeline's
//! deterministic quick-mode facts against `baselines/e20_quick.json`.
//!
//! Pinned exactly: every read on every route answers (export never
//! costs a read), the slow subscriber forces counted drops, and a
//! networked resync is one connected trace. Gated against budgets:
//! read p99 on every route under the single-core SLO ceiling, and the
//! active subscriber's p99 within the overhead budget of the
//! no-export baseline (plus a small quick-mode noise floor — see the
//! baseline's comment).

use gsview_bench::e20;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e20_quick.json");

#[test]
fn export_facts_hold_and_overhead_stays_in_budget() {
    let baseline = Baseline::parse(BASELINE);
    let (base, active, slow, connected, foreign) = e20::quick_facts();
    let requests = baseline.int("requests") as usize;

    // Export never costs a read, on any route.
    for row in [&base, &active, &slow] {
        assert_eq!(
            row.requests, requests,
            "{}: request count drifted",
            row.route
        );
        assert_eq!(
            row.ok, row.requests,
            "{}: a clean-network round trip was dropped",
            row.route
        );
    }

    // Every route stays inside the serving SLO — including the one
    // with a subscriber that never reads.
    let budget = baseline.int("p99_budget_us");
    for row in [&base, &active, &slow] {
        assert!(
            row.p99_us <= budget,
            "{}: p99 {}us blew the {}us SLO budget",
            row.route,
            row.p99_us,
            budget
        );
    }

    // The active subscriber actually streamed, and its overhead on
    // read p99 is inside the budget (5% + quick-mode noise floor).
    assert!(active.batches > 0, "live subscriber received no batches");
    let overhead_cap = base.p99_us
        + base.p99_us * baseline.int("overhead_budget_pct") / 100
        + baseline.int("noise_floor_us");
    assert!(
        active.p99_us <= overhead_cap,
        "active-subscriber p99 {}us exceeds baseline {}us + budget (cap {}us)",
        active.p99_us,
        base.p99_us,
        overhead_cap
    );

    // The slow subscriber forces counted drops — telemetry sheds,
    // serving doesn't.
    assert!(
        slow.export_dropped >= baseline.int("min_dropped"),
        "slow subscriber produced no counted drops"
    );

    // One connected trace across the wire.
    assert!(
        connected > 0,
        "no serve.request spans joined the resync trace"
    );
    assert_eq!(
        foreign, 0,
        "{foreign} wire requests escaped the resync trace"
    );
}
