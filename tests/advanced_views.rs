//! Integration tests for the advanced view machinery: clusters,
//! partial materialization, swizzle-based access control, timestamps,
//! and compound/wildcard/DAG maintenance working together.

use gsview::gsdb::{samples, Oid, Store, Update};
use gsview::query::{evaluate, parse_query, CmpOp, PathExpr, Pred};
use gsview::views::{
    access::{Authorizer, Enforcement},
    annotate::{timestamp_all, timestamp_of, LogicalClock},
    recompute::recompute,
    CompoundMaintainer, CompoundViewDef, LocalBase, Maintainer, MaterializedView, PartialView,
    SimpleViewDef, ViewCluster, ViewDelta,
};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

fn person_store() -> Store {
    let mut s = Store::new();
    samples::person_db(&mut s).unwrap();
    s
}

fn yp_def(view: &str) -> SimpleViewDef {
    SimpleViewDef::new(view, "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64))
}

/// §3.2: swizzle, strip base OIDs, and confirm the view is now a
/// self-contained database that WITHIN restricts correctly.
#[test]
fn swizzled_stripped_view_is_self_contained() {
    let store = person_store();
    let def = SimpleViewDef::new("MV", "ROOT", "professor");
    let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
    // Also include the student so an intra-view edge exists.
    let p3 = store.get(oid("P3")).unwrap().clone();
    mv.v_insert(&p3).unwrap();
    mv.swizzle().unwrap();
    mv.strip_base_oids().unwrap();
    // Every OID inside delegate values is now a view OID.
    for d in mv.members_delegates() {
        for c in mv.delegate(d).unwrap().children() {
            assert!(c.name().starts_with("MV."), "leaked base OID {c} in {d}");
        }
    }
    // Queries over the view database cannot escape it.
    let q = parse_query("SELECT MV.professor.student X").unwrap();
    let ans = evaluate(mv.store(), &q).unwrap();
    assert_eq!(ans.oids, vec![Oid::delegate(oid("MV"), oid("P3"))]);
}

/// §3.2: timestamps are auxiliary subobjects that queries can reach —
/// "something they could not do on the equivalent virtual view".
#[test]
fn timestamps_are_queryable() {
    let store = person_store();
    let def = yp_def("TS");
    let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
    let mut clock = LogicalClock::new();
    timestamp_all(&mut mv, &mut clock).unwrap();
    let d = mv.delegate_of(oid("P1")).unwrap();
    assert_eq!(timestamp_of(&mv, d), Some(1));
    let q = parse_query("SELECT TS.professor.timestamp X").unwrap();
    let ans = evaluate(mv.store(), &q).unwrap();
    assert_eq!(ans.oids.len(), 1);
}

/// View deltas stream outward for downstream consumers.
#[test]
fn view_deltas_stream() {
    let mut store = person_store();
    let def = yp_def("VD");
    let m = Maintainer::new(def.clone());
    let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
    mv.record_deltas(true);
    let up = store.modify_atom(oid("A1"), 99i64).unwrap();
    m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
    let up = store.modify_atom(oid("A1"), 20i64).unwrap();
    m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
    let deltas = mv.drain_deltas();
    assert_eq!(
        deltas,
        vec![
            ViewDelta::Deleted {
                base: oid("P1"),
                delegate: Oid::delegate(oid("VD"), oid("P1")),
            },
            ViewDelta::Inserted {
                base: oid("P1"),
                delegate: Oid::delegate(oid("VD"), oid("P1")),
            },
        ]
    );
}

/// A cluster of three overlapping views shares delegates and stays
/// correct under churn.
#[test]
fn cluster_of_three_views_under_churn() {
    let mut store = person_store();
    let mut cluster = ViewCluster::new("C3");
    cluster
        .add_view(yp_def("CV1"), &mut LocalBase::new(&store))
        .unwrap();
    cluster
        .add_view(
            SimpleViewDef::new("CV2", "ROOT", "professor")
                .with_cond("name", Pred::new(CmpOp::Eq, "John")),
            &mut LocalBase::new(&store),
        )
        .unwrap();
    cluster
        .add_view(
            SimpleViewDef::new("CV3", "ROOT", "professor"),
            &mut LocalBase::new(&store),
        )
        .unwrap();
    // P1 in all three, P2 only in CV3 → 2 delegates.
    assert_eq!(cluster.delegate_count(), 2);

    let updates = vec![
        Update::modify("A1", 80i64),  // P1 leaves CV1
        Update::modify("N1", "Jim"),  // P1 leaves CV2
        Update::delete("ROOT", "P1"), // P1 leaves CV3 → delegate GCed
    ];
    for u in updates {
        let applied = store.apply(u).unwrap();
        cluster
            .apply(&mut LocalBase::new(&store), &applied)
            .unwrap();
    }
    assert!(cluster.members_of(oid("CV1")).is_empty());
    assert!(cluster.members_of(oid("CV2")).is_empty());
    assert_eq!(cluster.members_of(oid("CV3")), vec![oid("P2")]);
    assert_eq!(cluster.delegate_count(), 1);
    assert!(!cluster
        .store()
        .contains(Oid::delegate(oid("C3"), oid("P1"))));
}

/// Partial views cache "some but not all data of interest" and stay
/// fresh as members and their copied regions change.
#[test]
fn partial_view_end_to_end() {
    let mut store = person_store();
    let mut pv = PartialView::materialize(yp_def("PV"), 1, &mut LocalBase::new(&store)).unwrap();
    assert_eq!(pv.members(), vec![oid("P1")]);
    // The copied region answers queries locally; below the horizon,
    // pointers lead back to base data.
    let p1d = pv.delegate_of(oid("P1")).unwrap();
    let p3d = pv.delegate_of(oid("P3")).unwrap();
    assert!(pv.store().get(p1d).unwrap().children().contains(&p3d));
    assert!(pv.store().get(p3d).unwrap().children().contains(&oid("N3")));

    // Members leave; their copies vanish.
    let up = store.modify_atom(oid("A1"), 90i64).unwrap();
    pv.apply(&mut LocalBase::new(&store), &up).unwrap();
    assert!(pv.members().is_empty());
    assert_eq!(pv.copied_count(), 0);
}

/// Compound views behave like the union of their branches against the
/// underlying query semantics.
#[test]
fn compound_view_equals_query_union() {
    let mut store = person_store();
    let def = CompoundViewDef::new(
        "CU",
        vec![
            SimpleViewDef::new("_", "ROOT", "professor")
                .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
            SimpleViewDef::new("_", "ROOT", "secretary"),
        ],
    );
    let mut cm = CompoundMaintainer::new(&def);
    let mut mv = MaterializedView::new("CU");
    cm.initialize(&mut mv, &mut LocalBase::new(&store)).unwrap();
    assert_eq!(mv.members_base(), vec![oid("P1"), oid("P4")]);

    // Stream agreement with per-branch query evaluation.
    let updates = vec![
        Update::modify("A1", 99i64),
        Update::modify("A4", 10i64),
        Update::delete("ROOT", "P4"),
        Update::insert("ROOT", "P4"),
    ];
    for u in updates {
        let applied = store.apply(u).unwrap();
        cm.apply(&mut mv, &mut LocalBase::new(&store), &applied)
            .unwrap();
        let q1 = parse_query("SELECT ROOT.professor X WHERE X.age <= 45").unwrap();
        let q2 = parse_query("SELECT ROOT.secretary X").unwrap();
        let mut expected: Vec<Oid> = evaluate(&store, &q1)
            .unwrap()
            .oids
            .into_iter()
            .chain(evaluate(&store, &q2).unwrap().oids)
            .collect();
        expected.sort_by_key(|o| o.name());
        expected.dedup();
        assert_eq!(mv.members_base(), expected, "after {applied}");
    }
}

/// Authorization via views composes with materialized views used as
/// ordinary databases (§3.1 + §3.2).
#[test]
fn authorizer_over_materialized_views() {
    let mut store = person_store();
    // Materialize the authorized set inside the base store as a
    // virtual view object (the authorizer unions view values).
    let vj = gsview::query::parse_viewdef(
        "define view AUTHV as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON",
    )
    .unwrap();
    gsview::views::virtualview::define_virtual_view(&mut store, &vj).unwrap();
    let mut auth = Authorizer::new(vec![oid("AUTHV")], Enforcement::AnsInt);
    let q = parse_query("SELECT ROOT.* X WHERE X.age >= 20").unwrap();
    let ans = auth.run(&mut store, &q).unwrap();
    // Only John-objects with qualifying ages — P1 (45) and P3 (20).
    assert_eq!(ans.oids, vec![oid("P1"), oid("P3")]);
}

/// Wildcard + DAG: the general maintainer works on the person DB
/// (which is a DAG: P3 has two parents).
#[test]
fn general_maintainer_on_dag_base() {
    use gsview::views::{GeneralMaintainer, GeneralViewDef};
    let mut store = person_store();
    let def = GeneralViewDef::new("GW", "ROOT", PathExpr::parse("*").unwrap())
        .with_cond(PathExpr::parse("age").unwrap(), Pred::new(CmpOp::Lt, 30i64));
    let gm = GeneralMaintainer::new(def.clone());
    let mut mv = gm.recompute(&store).unwrap();
    // P3 (age 20) qualifies; reachable via two paths.
    assert_eq!(mv.members_base(), vec![oid("P3")]);
    let up = store.modify_atom(oid("A3"), 35i64).unwrap();
    let out = gm.apply(&mut mv, &store, &up).unwrap();
    assert!(out.relevant);
    assert!(mv.is_empty());
    // Agreement with evaluation after every step.
    let ans = evaluate(&store, &def.to_query()).unwrap();
    assert_eq!(mv.members_base(), ans.oids);
}
