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
use gsview_core::{recompute, GeneralMaintainer, GeneralViewDef, LocalBase, Maintainer, SimpleViewDef};
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
    /// Accesses per update.
    pub accesses_per_update: f64,
    /// Fraction of updates that passed the relevance guard.
    pub relevant_fraction: f64,
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

/// Measure the constant-path view.
pub fn measure_simple(persons: usize, ops: usize) -> E6Row {
    let (mut store, db) = person::generate(
        PersonSpec {
            persons,
            ..PersonSpec::default()
        },
        gsdb::StoreConfig::default().counting(),
    )
    .expect("generate");
    let updates = stream(&db, ops, 41);
    let def = SimpleViewDef::new("VJ", "DIR", "professor")
        .with_cond("name", Pred::new(CmpOp::Eq, "John"));
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
    E6Row {
        kind: "simple (professor)",
        persons,
        accesses_per_update: store.accesses() as f64 / updates.len() as f64,
        relevant_fraction: relevant as f64 / updates.len() as f64,
    }
}

/// Measure the wild-card view (`*.professor`, same semantics here).
pub fn measure_wildcard(persons: usize, ops: usize) -> E6Row {
    let (mut store, db) = person::generate(
        PersonSpec {
            persons,
            ..PersonSpec::default()
        },
        gsdb::StoreConfig::default().counting(),
    )
    .expect("generate");
    let updates = stream(&db, ops, 41);
    let def = GeneralViewDef::new("VJW", "DIR", PathExpr::parse("*.professor").unwrap())
        .with_cond(
            PathExpr::parse("name").unwrap(),
            Pred::new(CmpOp::Eq, "John"),
        );
    let gm = GeneralMaintainer::new(def);
    let mut mv = gm.recompute(&store).expect("init");
    store.reset_accesses();
    let mut relevant = 0usize;
    for u in &updates {
        let applied = store.apply(u.clone()).expect("valid");
        let out = gm.apply(&mut mv, &store, &applied).expect("maintain");
        relevant += out.relevant as usize;
    }
    E6Row {
        kind: "wildcard (*.professor)",
        persons,
        accesses_per_update: store.accesses() as f64 / updates.len() as f64,
        relevant_fraction: relevant as f64 / updates.len() as f64,
    }
}

/// Sanity helper for tests: both views select the same members on the
/// same store.
pub fn agreement_check(persons: usize) -> bool {
    let (store, _db) = person::generate(
        PersonSpec {
            persons,
            ..PersonSpec::default()
        },
        gsdb::StoreConfig::default().counting(),
    )
    .expect("generate");
    let sdef = SimpleViewDef::new("VJ", "DIR", "professor")
        .with_cond("name", Pred::new(CmpOp::Eq, "John"));
    let gdef = GeneralViewDef::new("VJW", "DIR", PathExpr::parse("*.professor").unwrap())
        .with_cond(
            PathExpr::parse("name").unwrap(),
            Pred::new(CmpOp::Eq, "John"),
        );
    let s: &Store = &store;
    let simple = recompute::recompute(&sdef, &mut LocalBase::new(s))
        .expect("simple")
        .members_base();
    let general = GeneralMaintainer::new(gdef)
        .recompute(s)
        .expect("general")
        .members_base();
    simple == general
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let sizes: &[usize] = if quick { &[100] } else { &[100, 500, 2_000] };
    let ops = if quick { 100 } else { 300 };
    let mut t = Table::new(
        "E6",
        "simple constant-path view vs wild-card view maintenance",
        "wildcard views pay for the containment test, not for the store: acc/upd is flat in persons",
    )
    .headers(&["view", "persons", "acc/upd", "relevant frac", "wildcard penalty"]);
    for &n in sizes {
        let s = measure_simple(n, ops);
        let w = measure_wildcard(n, ops);
        let penalty = w.accesses_per_update / s.accesses_per_update.max(1e-9);
        t.row(vec![
            s.kind.to_string(),
            n.to_string(),
            fnum(s.accesses_per_update),
            fnum(s.relevant_fraction),
            String::from("1x"),
        ]);
        t.row(vec![
            w.kind.to_string(),
            n.to_string(),
            fnum(w.accesses_per_update),
            fnum(w.relevant_fraction),
            format!("{}x", fnum(penalty)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_agree_semantically() {
        assert!(agreement_check(200));
    }

    #[test]
    fn wildcard_cost_is_flat_in_store_size() {
        let small = measure_wildcard(100, 80);
        let large = measure_wildcard(1_600, 80);
        assert!(
            large.accesses_per_update <= small.accesses_per_update * 1.25,
            "wildcard {} acc/upd at 100 persons, {} at 1 600",
            small.accesses_per_update,
            large.accesses_per_update
        );
        // And within a small factor of the constant-path view.
        let simple = measure_simple(1_600, 80);
        assert!(
            large.accesses_per_update <= simple.accesses_per_update * 3.0,
            "wildcard {} vs simple {}",
            large.accesses_per_update,
            simple.accesses_per_update
        );
    }
}
