//! E16 regression smoke: the deterministic quick-mode facts of the
//! sharded commit pipeline must not drift from the checked-in
//! baseline (`baselines/e16_quick.json`). Epoch and object counts are
//! exact — disjoint writers, fixed scripts — so any drift is a change
//! in the commit/publish discipline (an epoch lost, duplicated, or a
//! torn cross-shard batch), not noise. So is what one structural
//! commit copies (`store.cow.pages_copied` + `segments_copied`), which
//! must be the same number over 3 k and over 30 k objects. Throughput
//! is deliberately NOT checked here (machine-dependent, and this
//! container is single-core); EXPERIMENTS.md records it.

use gsview_bench::e16;

mod common;
use common::Baseline;

const BASELINE: &str = include_str!("../baselines/e16_quick.json");

#[test]
fn sharded_commit_facts_do_not_drift() {
    let baseline = Baseline::parse(BASELINE);
    // quick_facts itself asserts the cross-route agreements: every
    // shard count (1/2/4/8) and the mutex baseline publish exactly
    // writers x batches epochs over the identical final object set,
    // with store invariants intact after the race.
    let (epochs, objects) = e16::quick_facts();
    assert_eq!(
        epochs,
        baseline.int("epochs_published"),
        "published-epoch count drifted from baseline"
    );
    assert_eq!(
        objects,
        baseline.int("final_objects"),
        "final object count drifted from baseline"
    );
    // Same test, so nothing else in this process moves the process-wide
    // copy counters meanwhile: what a structural commit copies must not
    // depend on how much the store holds.
    let [small, large] = e16::quick_copy_facts();
    assert_eq!(
        small, large,
        "a commit over 30 k objects copies more than one over 3 k"
    );
    assert_eq!(
        small,
        baseline.int("copies_per_commit"),
        "pages + segments copied per structural commit drifted from baseline"
    );
}
