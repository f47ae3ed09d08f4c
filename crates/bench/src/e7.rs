//! E7 — DAG-structured bases (paper §6).
//!
//! Claim: "allow base databases to be directed acyclic graphs (DAGs).
//! The maintenance algorithm will be similar to Algorithm 1, except
//! that now there may be more than one path between two objects.
//! Therefore, the actual implementation ... e.g., computing
//! `ancestor(X, p)`, is more difficult."
//!
//! We build a relations database where each age atom is shared by
//! `share` tuples, sweep the share factor, and compare the per-update
//! accesses of `GeneralMaintainer` — Algorithm 1's locate → repair →
//! verify, with the automaton states of every root walk joined —
//! against full recomputation (the fallback when no DAG-aware
//! incremental algorithm exists).

use crate::table::{fnum, Table};
use gsdb::{Object, Oid, Store};
use gsview_core::{recompute, GeneralMaintainer, GeneralViewDef, LocalBase, SimpleViewDef};
use gsview_query::{CmpOp, PathExpr, Pred};
use gsview_workload::rng::rng;
use rand::Rng;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E7Row {
    /// Tuples in the relation.
    pub tuples: usize,
    /// Tuples sharing each age atom.
    pub share: usize,
    /// Updates applied.
    pub updates: usize,
    /// Incremental (`GeneralMaintainer`) base accesses over the whole
    /// stream.
    pub dag_total: u64,
    /// Recompute base accesses over the whole stream.
    pub rec_total: u64,
    /// View members at the end of the stream.
    pub members: usize,
}

impl E7Row {
    /// Incremental and recompute accesses per update.
    fn per_update(&self) -> (f64, f64) {
        let n = self.updates as f64;
        (self.dag_total as f64 / n, self.rec_total as f64 / n)
    }
}

/// Build `tuples` tuples where consecutive groups of `share` tuples
/// point at one shared age atom.
fn shared_relations(tuples: usize, share: usize, seed: u64) -> (Store, Vec<Oid>, Vec<Oid>) {
    let mut store = Store::counting();
    let mut r = rng(seed);
    let mut tuple_oids = Vec::with_capacity(tuples);
    let mut age_oids = Vec::new();
    for i in 0..tuples {
        if i % share == 0 {
            let a = Oid::new(&format!("sa{}", i / share));
            store
                .create(Object::atom(a.name(), "age", r.gen_range(0..60i64)))
                .expect("fresh age");
            age_oids.push(a);
        }
        let a = *age_oids.last().expect("age exists");
        let t = Oid::new(&format!("st{i}"));
        store
            .create(Object::set(t.name(), "tuple", &[a]))
            .expect("fresh tuple");
        tuple_oids.push(t);
    }
    store
        .create(Object::set("R0", "r0", &tuple_oids))
        .expect("relation");
    store
        .create(Object::set("RELS", "relations", &[Oid::new("R0")]))
        .expect("root");
    (store, tuple_oids, age_oids)
}

fn def() -> SimpleViewDef {
    SimpleViewDef::new("SEL", "RELS", "r0.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64))
}

/// [`def`] as a path-expression view: the same constant paths.
fn general_def() -> GeneralViewDef {
    let pe = |p: &str| PathExpr::parse(p).expect("constant path");
    GeneralViewDef::new("SEL", "RELS", pe("r0.tuple"))
        .with_cond(pe("age"), Pred::new(CmpOp::Gt, 30i64))
}

/// A stream of age modifications and edge churn on the shared graph.
fn updates(tuple_oids: &[Oid], age_oids: &[Oid], ops: usize, seed: u64) -> Vec<gsdb::Update> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        if i % 3 == 2 {
            // Re-point a tuple's age edge: delete then insert.
            let t = tuple_oids[r.gen_range(0..tuple_oids.len())];
            let a = age_oids[r.gen_range(0..age_oids.len())];
            out.push(gsdb::Update::delete_marker(t));
            out.push(gsdb::Update::Insert {
                parent: t,
                child: a,
            });
        } else {
            let a = age_oids[r.gen_range(0..age_oids.len())];
            out.push(gsdb::Update::Modify {
                oid: a,
                new: gsdb::Atom::Int(r.gen_range(0..60)),
            });
        }
    }
    out
}

/// Run one configuration.
fn measure(tuples: usize, share: usize, ops: usize) -> E7Row {
    let d = def();

    // Incremental run.
    let (mut store, tuple_oids, age_oids) = shared_relations(tuples, share, 51);
    let stream = updates(&tuple_oids, &age_oids, ops, 52);
    let gm = GeneralMaintainer::new(general_def());
    let mut mv = gm.recompute(&store).expect("init");
    store.reset_accesses();
    let mut n = 0usize;
    for u in &stream {
        let Some(applied) = apply_stream_op(&mut store, u) else {
            continue;
        };
        n += 1;
        gm.apply(&mut mv, &store, &applied).expect("maintain");
    }
    let dag_total = store.accesses();

    // Recompute run.
    let (mut store, tuple_oids, age_oids) = shared_relations(tuples, share, 51);
    let stream = updates(&tuple_oids, &age_oids, ops, 52);
    let mut mv2 = recompute::recompute(&d, &mut LocalBase::new(&store)).expect("init");
    store.reset_accesses();
    let mut n2 = 0usize;
    for u in &stream {
        let Some(_) = apply_stream_op(&mut store, u) else {
            continue;
        };
        n2 += 1;
        recompute::refresh(&d, &mut LocalBase::new(&store), &mut mv2).expect("refresh");
    }
    let rec_total = store.accesses();
    assert_eq!(n, n2);
    assert_eq!(mv.members_base(), mv2.members_base(), "correctness");

    E7Row {
        tuples,
        share,
        updates: n,
        dag_total,
        rec_total,
        members: mv.len(),
    }
}

/// Apply one stream op; the `delete_marker` sentinel deletes the
/// tuple's current (single) age edge.
fn apply_stream_op(store: &mut Store, u: &gsdb::Update) -> Option<gsdb::AppliedUpdate> {
    match u {
        gsdb::Update::Delete { parent, child } if child.name() == "\u{1}FIRST\u{1}" => {
            let first = store.get(*parent)?.children().first().copied()?;
            store.delete_edge(*parent, first).ok()
        }
        other => store.apply(other.clone()).ok(),
    }
}

/// Helper extension used by [`updates`]: a sentinel "delete the first
/// child" op, resolved against live state at replay time.
trait DeleteMarker {
    fn delete_marker(parent: Oid) -> gsdb::Update;
}

impl DeleteMarker for gsdb::Update {
    fn delete_marker(parent: Oid) -> gsdb::Update {
        gsdb::Update::Delete {
            parent,
            child: Oid::new("\u{1}FIRST\u{1}"),
        }
    }
}

fn sweep(tuples: usize, shares: &[usize], ops: usize) -> Vec<E7Row> {
    shares.iter().map(|&s| measure(tuples, s, ops)).collect()
}

/// The quick-mode sweep, for the count gate (`tests/paper_claims_smoke.rs`).
pub fn quick_facts() -> Vec<E7Row> {
    sweep(300, &[1, 4], 60)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick {
        quick_facts()
    } else {
        sweep(2_000, &[1, 2, 4, 8, 16], 200)
    };
    let mut t = Table::new(
        "E7",
        "DAG bases: shared condition atoms, walk-joining maintenance vs recompute",
        "sharing multiplies affected members per update, yet stays far below recomputation",
    )
    .headers(&[
        "tuples",
        "share",
        "incr acc/upd",
        "recompute acc/upd",
        "speedup",
    ]);
    for r in rows {
        let (dag_acc, rec_acc) = r.per_update();
        t.row(vec![
            r.tuples.to_string(),
            r.share.to_string(),
            fnum(dag_acc),
            fnum(rec_acc),
            format!("{}x", fnum(rec_acc / dag_acc.max(1e-9))),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_maintenance_beats_recompute_and_matches_it() {
        let (dag_acc, rec_acc) = measure(400, 4, 60).per_update();
        assert!(
            dag_acc < rec_acc,
            "dag {dag_acc} should beat recompute {rec_acc}"
        );
    }

    #[test]
    fn sharing_increases_incremental_cost() {
        let (lone, _) = measure(400, 1, 60).per_update();
        let (shared, _) = measure(400, 8, 60).per_update();
        assert!(
            shared > lone,
            "share=8 {shared} should cost more than share=1 {lone}"
        );
    }
}
