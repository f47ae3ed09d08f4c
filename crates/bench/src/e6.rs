//! E6 — wild-card path-expression views (paper §6).
//!
//! Claim: "Allow the sel_path and cond_path to be general path
//! expressions with wild cards. To maintain this type of view, the
//! maintenance algorithm needs to be able to test path containment for
//! general path expressions". The paper does not say repair must be
//! global, and it is not: the containment test (automaton state sets
//! run down the update's root path) is the extra cost, and repair
//! stays local to the update.
//!
//! We maintain two semantically identical views over the person
//! directory — one written with a constant path, one with `*` — under
//! the same modify stream, and compare accesses per update as the
//! directory grows.

use crate::table::{fnum, Table};
use gsdb::Store;
use gsview_core::{
    recompute, GeneralMaintainer, GeneralViewDef, LocalBase, Maintainer, SimpleViewDef,
};
use gsview_query::{CmpOp, PathExpr, Pred};
use gsview_workload::person::{self, PersonSpec};
use gsview_workload::rng::rng;
use rand::Rng;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E6Row {
    /// View kind.
    pub kind: &'static str,
    /// Persons in the directory.
    pub persons: usize,
    /// Updates in the stream.
    pub updates: usize,
    /// Base accesses over the whole stream.
    pub accesses: u64,
    /// Updates that passed the relevance guard.
    pub relevant: usize,
    /// View members at the end of the stream.
    pub members: usize,
}

impl E6Row {
    fn accesses_per_update(&self) -> f64 {
        self.accesses as f64 / self.updates as f64
    }
}

/// The shared update stream: random modifications of name and age
/// atoms.
fn stream(db: &person::PersonDb, ops: usize, seed: u64) -> Vec<gsdb::Update> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        if r.gen_bool(0.5) && !db.names.is_empty() {
            let n = db.names[r.gen_range(0..db.names.len())];
            let name = ["John", "Sally", "Tom"][r.gen_range(0..3usize)];
            out.push(gsdb::Update::modify(n, name));
        } else {
            let a = db.ages[r.gen_range(0..db.ages.len())];
            out.push(gsdb::Update::modify(a, r.gen_range(18..70i64)));
        }
    }
    out
}

/// A counting directory of `persons` and its stream of `ops` modifies.
fn directory(persons: usize, ops: usize) -> (Store, Vec<gsdb::Update>) {
    let spec = PersonSpec {
        persons,
        ..PersonSpec::default()
    };
    let (store, db) = person::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    store.set_count_accesses(true);
    let updates = stream(&db, ops, 41);
    (store, updates)
}

fn simple_def() -> SimpleViewDef {
    SimpleViewDef::new("VJ", "DIR", "professor").with_cond("name", Pred::new(CmpOp::Eq, "John"))
}

fn wildcard_def() -> GeneralViewDef {
    GeneralViewDef::new("VJW", "DIR", PathExpr::parse("*.professor").unwrap()).with_cond(
        PathExpr::parse("name").unwrap(),
        Pred::new(CmpOp::Eq, "John"),
    )
}

/// Measure the constant-path view.
fn measure_simple(persons: usize, ops: usize) -> E6Row {
    let (mut store, updates) = directory(persons, ops);
    let def = simple_def();
    let m = Maintainer::new(def.clone());
    let mut mv = recompute::recompute(&def, &mut LocalBase::new(&store)).expect("init");
    store.reset_accesses();
    let mut relevant = 0usize;
    for u in &updates {
        let applied = store.apply(u.clone()).expect("valid");
        let out = m
            .apply(&mut mv, &mut LocalBase::new(&store), &applied)
            .expect("maintain");
        relevant += out.relevant as usize;
    }
    let accesses = store.accesses();
    let expected = recompute::recompute_members(&def, &mut LocalBase::new(&store));
    assert_eq!(
        mv.members_base(),
        expected,
        "simple view diverged from recompute"
    );
    E6Row {
        kind: "simple (professor)",
        persons,
        updates: updates.len(),
        accesses,
        relevant,
        members: mv.len(),
    }
}

/// Measure the wild-card view (`*.professor`, same semantics here).
fn measure_wildcard(persons: usize, ops: usize) -> E6Row {
    let (mut store, updates) = directory(persons, ops);
    let gm = GeneralMaintainer::new(wildcard_def());
    let mut mv = gm.recompute(&store).expect("init");
    store.reset_accesses();
    let mut relevant = 0usize;
    for u in &updates {
        let applied = store.apply(u.clone()).expect("valid");
        let out = gm.apply(&mut mv, &store, &applied).expect("maintain");
        relevant += out.relevant as usize;
    }
    let accesses = store.accesses();
    let expected = gm.recompute(&store).expect("recompute").members_base();
    assert_eq!(
        mv.members_base(),
        expected,
        "wildcard view diverged from recompute"
    );
    E6Row {
        kind: "wildcard (*.professor)",
        persons,
        updates: updates.len(),
        accesses,
        relevant,
        members: mv.len(),
    }
}

/// The simple row, then the wild-card row, per directory size.
fn sweep(sizes: &[usize], ops: usize) -> Vec<E6Row> {
    sizes
        .iter()
        .flat_map(|&n| [measure_simple(n, ops), measure_wildcard(n, ops)])
        .collect()
}

/// The quick-mode sweep, for the count gate (`tests/paper_claims_smoke.rs`).
pub fn quick_facts() -> Vec<E6Row> {
    sweep(&[100], 100)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick {
        quick_facts()
    } else {
        sweep(&[100, 500, 2_000], 300)
    };
    let mut t = Table::new(
        "E6",
        "simple constant-path view vs wild-card view maintenance",
        "wildcard views pay for the containment test, not for the store: acc/upd is flat in persons",
    )
    .headers(&["view", "persons", "acc/upd", "relevant frac", "wildcard penalty"]);
    for pair in rows.chunks(2) {
        let (s, w) = (&pair[0], &pair[1]);
        let penalty = w.accesses_per_update() / s.accesses_per_update().max(1e-9);
        for (r, penalty) in [(s, String::from("1x")), (w, format!("{}x", fnum(penalty)))] {
            t.row(vec![
                r.kind.to_string(),
                r.persons.to_string(),
                fnum(r.accesses_per_update()),
                fnum(r.relevant as f64 / r.updates as f64),
                penalty,
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_agree_semantically() {
        let (store, _) = directory(200, 0);
        let simple = recompute::recompute(&simple_def(), &mut LocalBase::new(&store))
            .expect("simple")
            .members_base();
        let general = GeneralMaintainer::new(wildcard_def())
            .recompute(&store)
            .expect("general")
            .members_base();
        assert_eq!(simple, general);
    }

    #[test]
    fn wildcard_cost_is_flat_in_store_size() {
        let small = measure_wildcard(100, 80);
        let large = measure_wildcard(1_600, 80);
        assert!(
            large.accesses_per_update() <= small.accesses_per_update() * 1.25,
            "wildcard {} acc/upd at 100 persons, {} at 1 600",
            small.accesses_per_update(),
            large.accesses_per_update()
        );
        // And within a small factor of the constant-path view.
        let simple = measure_simple(1_600, 80);
        assert!(
            large.accesses_per_update() <= simple.accesses_per_update() * 3.0,
            "wildcard {} vs simple {}",
            large.accesses_per_update(),
            simple.accesses_per_update()
        );
    }
}
