//! E11 — batched delta maintenance.
//!
//! Claim: applying a buffered run of updates with one
//! [`Maintainer::apply_batch`] pass costs fewer base accesses than one
//! [`Maintainer::apply`] per update once the batch is large or churny
//! enough for consolidation to cancel work (insert+delete of the same
//! edge, runs of modifies on one atom). A flush of one update costs
//! ≈ 1.4× a single pass, because a flush re-verifies each located
//! member's select path and condition against the store where `apply`
//! decides from the update's old and new values; from 4 updates a
//! flush batched apply is the cheaper route (measured in
//! EXPERIMENTS.md, E11).
//!
//! Both routes replay the *same* deterministic script and must land on
//! the same membership as a from-scratch recompute.

use crate::table::{fnum, Table};
use gsdb::DeltaBatch;
use gsview_core::{recompute, LocalBase, Maintainer, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_workload::{cancelling_churn, into_batches, relations, ChurnSpec, RelationsSpec};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E11Row {
    /// Updates buffered per flush.
    pub batch_size: usize,
    /// Applied updates in the script.
    pub ops: usize,
    /// Deltas surviving consolidation, summed over the flushes.
    pub consolidated_ops: usize,
    /// Base accesses, one `Maintainer::apply` per update.
    pub seq_accesses: u64,
    /// Base accesses, one `apply_batch` per flush.
    pub batch_accesses: u64,
    /// Final membership size (identical on both routes).
    pub members: usize,
}

fn view_def() -> SimpleViewDef {
    SimpleViewDef::new("E11", "REL", "r0.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64))
}

/// Run one configuration: the same churny script maintained
/// one-at-a-time and in flushes of `batch_size`.
fn measure(batch_size: usize, tuples: usize, ops: usize, cancel_fraction: f64) -> E11Row {
    let spec = RelationsSpec {
        relations: 2,
        tuples_per_relation: tuples,
        extra_fields: 0,
        age_range: 60,
        seed: 111,
    };
    let churn = ChurnSpec {
        ops,
        modify_weight: 2,
        field_modify_weight: 0,
        insert_weight: 1,
        delete_weight: 1,
        target_bias: 0.8,
        age_range: 60,
        seed: 112,
    };
    let (store, mut db) =
        relations::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    store.set_count_accesses(true);
    let script = cancelling_churn(&mut db, churn, cancel_fraction, 3);
    let def = view_def();

    // Route 1: sequential Algorithm 1.
    let mut seq_store = store.clone();
    let mut mv_seq = recompute::recompute(&def, &mut LocalBase::new(&seq_store)).expect("init");
    let maintainer = Maintainer::new(def.clone());
    let mut seq_accesses = 0u64;
    let mut applied_ops = 0usize;
    for op in &script {
        let applied = op.replay(&mut seq_store).expect("valid script");
        applied_ops += 1;
        seq_store.reset_accesses();
        maintainer
            .apply(&mut mv_seq, &mut LocalBase::new(&seq_store), &applied)
            .expect("maintain");
        seq_accesses += seq_store.accesses();
    }

    // Route 2: buffered flushes of `batch_size` updates.
    let mut b_store = store.clone();
    let mut mv_b = recompute::recompute(&def, &mut LocalBase::new(&b_store)).expect("init");
    let mut batch_accesses = 0u64;
    let (mut input, mut consolidated_ops) = (0usize, 0usize);
    for chunk in into_batches(script, batch_size) {
        let mut batch = DeltaBatch::new();
        for op in &chunk {
            batch.push(op.replay(&mut b_store).expect("valid script"));
        }
        b_store.reset_accesses();
        let out = maintainer
            .apply_batch(&mut mv_b, &mut LocalBase::new(&b_store), &batch)
            .expect("batched maintain");
        batch_accesses += b_store.accesses();
        input += out.input_ops;
        consolidated_ops += out.consolidated_ops;
    }

    // Both routes must agree with each other and with recompute.
    let expected = recompute::recompute_members(&def, &mut LocalBase::new(&b_store));
    assert_eq!(mv_seq.members_base(), expected, "sequential route diverged");
    assert_eq!(mv_b.members_base(), expected, "batched route diverged");
    assert_eq!(input, applied_ops, "every update enters exactly one flush");

    E11Row {
        batch_size,
        ops: applied_ops,
        consolidated_ops,
        seq_accesses,
        batch_accesses,
        members: expected.len(),
    }
}

impl E11Row {
    /// Fraction of deltas surviving consolidation.
    fn surviving_fraction(&self) -> f64 {
        self.consolidated_ops as f64 / self.ops.max(1) as f64
    }
}

fn sweep(tuples: usize, ops: usize) -> Vec<E11Row> {
    [1usize, 4, 16, 64, 256]
        .into_iter()
        .map(|bs| measure(bs, tuples, ops, 0.4))
        .collect()
}

/// The quick-mode sweep, for the count gate (`tests/paper_claims_smoke.rs`).
pub fn quick_facts() -> Vec<E11Row> {
    sweep(200, 160)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick {
        quick_facts()
    } else {
        sweep(1_000, 600)
    };
    let mut t = Table::new(
        "E11",
        "batched maintenance: one flush of N updates vs N single passes",
        "a flush of one update costs ≈ 1.4× a single pass; consolidation makes batched apply cheaper from 4 updates a flush",
    )
    .headers(&[
        "batch size",
        "surviving frac",
        "acc sequential",
        "acc batched",
        "batched/seq",
    ]);
    for r in rows {
        t.row(vec![
            format!("{}", r.batch_size),
            fnum(r.surviving_fraction()),
            format!("{}", r.seq_accesses),
            format!("{}", r.batch_accesses),
            fnum(r.batch_accesses as f64 / r.seq_accesses.max(1) as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_no_costlier_from_sixteen_up() {
        for &bs in &[16usize, 64] {
            let r = measure(bs, 200, 160, 0.4);
            assert!(
                r.batch_accesses <= r.seq_accesses,
                "batch size {bs}: batched {} vs sequential {}",
                r.batch_accesses,
                r.seq_accesses
            );
        }
    }

    #[test]
    fn consolidation_grows_with_batch_size() {
        let small = measure(1, 200, 160, 0.5);
        let large = measure(64, 200, 160, 0.5);
        assert!(
            large.surviving_fraction() < small.surviving_fraction(),
            "large batches should cancel more: {} vs {}",
            large.surviving_fraction(),
            small.surviving_fraction()
        );
    }
}
