//! E8 — update selectivity screening (paper §4.4, Example 7's closing
//! observation).
//!
//! Claim: "if we consider a different update, one where a tuple T2 is
//! inserted into relation s, ... the incremental maintenance algorithm
//! will stop processing after it finds out that path(REL, S) does not
//! match with the first label in sel_path." Irrelevant updates must be
//! rejected at near-constant cost.

use crate::table::{fnum, Table};
use gsview_core::{recompute, LocalBase, Maintainer, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_workload::{relations, relations_churn, ChurnSpec, RelationsSpec, ScriptOp};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E8Row {
    /// Fraction of ops aimed at the viewed relation.
    pub bias: f64,
    /// Relevant updates.
    pub relevant: usize,
    /// Irrelevant updates.
    pub irrelevant: usize,
    /// Base accesses over all relevant updates.
    pub relevant_total: u64,
    /// Base accesses over all irrelevant updates.
    pub irrelevant_total: u64,
    /// View members at the end of the stream.
    pub members: usize,
}

impl E8Row {
    /// The relevant fraction of updates, and mean accesses per relevant
    /// and per irrelevant update.
    fn rates(&self) -> (f64, f64, f64) {
        let (rel, irr) = (self.relevant, self.irrelevant);
        (
            rel as f64 / (rel + irr) as f64,
            self.relevant_total as f64 / rel.max(1) as f64,
            self.irrelevant_total as f64 / irr.max(1) as f64,
        )
    }
}

/// Run one configuration.
fn measure(bias: f64, tuples: usize, ops: usize) -> E8Row {
    let spec = RelationsSpec {
        relations: 5,
        tuples_per_relation: tuples,
        extra_fields: 2,
        age_range: 60,
        seed: 61,
    };
    let churn = ChurnSpec {
        ops,
        modify_weight: 2,
        field_modify_weight: 0,
        insert_weight: 1,
        delete_weight: 1,
        target_bias: bias,
        age_range: 60,
        seed: 62,
    };
    let (mut store, mut db) =
        relations::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    store.set_count_accesses(true);
    let script = relations_churn(&mut db, churn);
    let def =
        SimpleViewDef::new("SEL", "REL", "r0.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64));
    let m = Maintainer::new(def.clone());
    let mut mv = recompute::recompute(&def, &mut LocalBase::new(&store)).expect("init");

    let (mut rel_n, mut rel_acc) = (0usize, 0u64);
    let (mut irr_n, mut irr_acc) = (0usize, 0u64);
    for op in &script {
        let applied = op.replay(&mut store).expect("valid");
        if !matches!(op, ScriptOp::Apply(_)) {
            continue;
        }
        store.reset_accesses();
        let out = m
            .apply(&mut mv, &mut LocalBase::new(&store), &applied)
            .expect("maintain");
        let acc = store.accesses();
        if out.relevant {
            rel_n += 1;
            rel_acc += acc;
        } else {
            irr_n += 1;
            irr_acc += acc;
        }
    }
    let expected = recompute::recompute_members(&def, &mut LocalBase::new(&store));
    assert_eq!(
        mv.members_base(),
        expected,
        "maintained view diverged from recompute"
    );
    E8Row {
        bias,
        relevant: rel_n,
        irrelevant: irr_n,
        relevant_total: rel_acc,
        irrelevant_total: irr_acc,
        members: mv.len(),
    }
}

fn sweep(tuples: usize, ops: usize) -> Vec<E8Row> {
    [1.0, 0.5, 0.2, 0.05]
        .into_iter()
        .map(|bias| measure(bias, tuples, ops))
        .collect()
}

/// The quick-mode sweep, for the count gate (`tests/paper_claims_smoke.rs`).
pub fn quick_facts() -> Vec<E8Row> {
    sweep(200, 150)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick {
        quick_facts()
    } else {
        sweep(1_000, 500)
    };
    let mut t = Table::new(
        "E8",
        "screening of irrelevant updates (5 relations, view over r0)",
        "irrelevant updates are rejected after the path-location test, at near-constant cost",
    )
    .headers(&[
        "bias to r0",
        "relevant frac",
        "acc/relevant upd",
        "acc/irrelevant upd",
    ]);
    for r in rows {
        let (fraction, acc_relevant, acc_irrelevant) = r.rates();
        t.row(vec![
            fnum(r.bias),
            fnum(fraction),
            fnum(acc_relevant),
            fnum(acc_irrelevant),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irrelevant_updates_are_cheap() {
        let (fraction, relevant, irrelevant) = measure(0.3, 300, 120).rates();
        assert!(fraction < 0.7);
        assert!(
            irrelevant * 2.0 < relevant,
            "screening must be cheap: irrelevant {irrelevant} vs relevant {relevant}"
        );
        // Constant-ish: a handful of accesses to locate and reject.
        assert!(irrelevant < 20.0, "got {irrelevant}");
    }

    #[test]
    fn bias_controls_relevant_fraction() {
        let (hot, _, _) = measure(0.9, 200, 120).rates();
        let (cold, _, _) = measure(0.1, 200, 120).rates();
        assert!(hot > cold);
    }
}
