//! E1 — incremental maintenance vs full recomputation (paper §4.4,
//! Example 7).
//!
//! Claim: "incremental maintenance will be superior to recomputing the
//! entire view if the view contains many delegate objects (in which
//! case recomputation will be very expensive), and updates only impact
//! a few, easily identifiable objects."
//!
//! We sweep the database size (tuples in the viewed relation) and
//! measure, per update of a mixed churn stream, (a) base-data accesses
//! and (b) wall time, for Algorithm 1 versus refresh-by-recomputation.

use crate::table::{fnum, Table};
use gsview_core::{recompute, LocalBase, Maintainer, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_workload::{relations, relations_churn, ChurnSpec, RelationsSpec};
use std::time::Instant;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// Tuples in the viewed relation.
    pub tuples: usize,
    /// Updates in the churn stream.
    pub updates: usize,
    /// Base accesses over the whole stream, incremental.
    pub inc_total: u64,
    /// Base accesses over the whole stream, recomputation.
    pub rec_total: u64,
    /// View members at the end of the stream.
    pub members: usize,
    /// Mean µs per update, incremental.
    pub inc_us: f64,
    /// Mean µs per update, recomputation.
    pub rec_us: f64,
}

impl E1Row {
    /// Incremental and recompute accesses per update.
    fn per_update(&self) -> (f64, f64) {
        let n = self.updates as f64;
        (self.inc_total as f64 / n, self.rec_total as f64 / n)
    }
}

fn view_def() -> SimpleViewDef {
    SimpleViewDef::new("SEL", "REL", "r0.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64))
}

/// Run one configuration.
fn measure(tuples: usize, ops: usize, seed: u64) -> E1Row {
    let spec = RelationsSpec {
        relations: 2,
        tuples_per_relation: tuples,
        extra_fields: 2,
        age_range: 60,
        seed,
    };
    let churn = ChurnSpec {
        ops,
        modify_weight: 2,
        field_modify_weight: 0,
        insert_weight: 1,
        delete_weight: 1,
        target_bias: 0.7,
        age_range: 60,
        seed: seed + 1,
    };

    // Incremental run.
    let (mut store, mut db) = relations::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    store.set_count_accesses(true);
    let script = relations_churn(&mut db, churn);
    let def = view_def();
    let maintainer = Maintainer::new(def.clone());
    let mut mv_inc = recompute::recompute(&def, &mut LocalBase::new(&store)).expect("init");
    store.reset_accesses();
    let t0 = Instant::now();
    let mut n_updates = 0usize;
    for op in &script {
        let applied = op.replay(&mut store).expect("valid script");
        if matches!(op, gsview_workload::ScriptOp::Apply(_)) {
            n_updates += 1;
            maintainer
                .apply(&mut mv_inc, &mut LocalBase::new(&store), &applied)
                .expect("maintain");
        }
    }
    let inc_time = t0.elapsed();
    let inc_total = store.accesses();

    // Recomputation run (same stream, fresh database).
    let (mut store, mut db) = relations::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    store.set_count_accesses(true);
    let script = relations_churn(&mut db, churn);
    let mut mv_rec = recompute::recompute(&def, &mut LocalBase::new(&store)).expect("init");
    store.reset_accesses();
    let t0 = Instant::now();
    let mut n_updates2 = 0usize;
    for op in &script {
        op.replay(&mut store).expect("valid script");
        if matches!(op, gsview_workload::ScriptOp::Apply(_)) {
            n_updates2 += 1;
            recompute::refresh(&def, &mut LocalBase::new(&store), &mut mv_rec).expect("refresh");
        }
    }
    let rec_time = t0.elapsed();
    let rec_total = store.accesses();
    assert_eq!(n_updates, n_updates2);
    assert_eq!(mv_inc.members_base(), mv_rec.members_base(), "incremental view diverged");

    E1Row {
        tuples,
        updates: n_updates,
        inc_total,
        rec_total,
        members: mv_inc.len(),
        inc_us: inc_time.as_secs_f64() * 1e6 / n_updates as f64,
        rec_us: rec_time.as_secs_f64() * 1e6 / n_updates as f64,
    }
}

fn sweep(sizes: &[usize], ops: usize) -> Vec<E1Row> {
    sizes.iter().map(|&n| measure(n, ops, 11)).collect()
}

/// The quick-mode sweep, for the count gate (`tests/paper_claims_smoke.rs`).
pub fn quick_facts() -> Vec<E1Row> {
    sweep(&[100, 1_000], 100)
}

/// Run the sweep and build the table.
pub fn run(quick: bool) -> Table {
    let rows = if quick { quick_facts() } else { sweep(&[100, 1_000, 10_000, 50_000], 300) };
    let mut t = Table::new(
        "E1",
        "incremental maintenance vs full recomputation (Example 7 workload)",
        "per-update cost of Algorithm 1 is ~constant; recomputation grows with view size",
    )
    .headers(&[
        "tuples",
        "inc acc/upd",
        "rec acc/upd",
        "acc speedup",
        "inc us/upd",
        "rec us/upd",
    ]);
    for r in rows {
        let (inc, rec) = r.per_update();
        t.row(vec![
            r.tuples.to_string(),
            fnum(inc),
            fnum(rec),
            format!("{}x", fnum(rec / inc.max(1e-9))),
            fnum(r.inc_us),
            fnum(r.rec_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_wins_and_scales_flat() {
        let (small_inc, small_rec) = measure(100, 60, 5).per_update();
        let (large_inc, large_rec) = measure(2_000, 60, 5).per_update();
        // Recomputation cost grows with view size...
        assert!(
            large_rec > small_rec * 5.0,
            "recompute should scale with size: {small_rec} vs {large_rec}"
        );
        // ...incremental cost stays roughly flat (within 5x).
        assert!(
            large_inc < small_inc * 5.0 + 50.0,
            "incremental should not scale with size: {small_inc} vs {large_inc}"
        );
        // And incremental wins outright at the larger size.
        let speedup = large_rec / large_inc;
        assert!(speedup > 10.0, "speedup {speedup}");
    }
}
