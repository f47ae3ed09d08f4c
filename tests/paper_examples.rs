//! The paper's worked examples, executed end-to-end: Examples 3, 4,
//! 5/6, 7, 9 and 10, plus the §2 query-scoping examples and the §3.1
//! views 3.3/3.4.

use gsview::gsdb::{self, database, samples, Oid, Store, Update};
use gsview::query::{evaluate, parse_query, parse_viewdef, CmpOp, Pred};
use gsview::views::{recompute::recompute, virtualview, LocalBase, Maintainer, SimpleViewDef};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

fn person_store() -> Store {
    let mut s = Store::new();
    samples::person_db(&mut s).unwrap();
    s
}

/// §2: the sample query and both scope clauses.
#[test]
fn section_2_query_scoping() {
    let mut store = person_store();
    // SELECT ROOT.professor X WHERE X.age > 40 → {P1}.
    let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").unwrap();
    assert_eq!(evaluate(&store, &q).unwrap().oids, vec![oid("P1")]);

    // "say that all objects are in database D1 except for A1" —
    // WITHIN D1 → empty; ANS INT D1 → {P1}.
    let members: Vec<Oid> = database::members(&store, oid("PERSON"))
        .unwrap()
        .into_iter()
        .filter(|&o| o != oid("A1"))
        .collect();
    database::database_of(&mut store, oid("D1"), &members).unwrap();
    let q_within = parse_query("SELECT ROOT.professor X WHERE X.age > 40 WITHIN D1").unwrap();
    assert!(evaluate(&store, &q_within).unwrap().is_empty());
    let q_int = parse_query("SELECT ROOT.professor X WHERE X.age > 40 ANS INT D1").unwrap();
    assert_eq!(evaluate(&store, &q_int).unwrap().oids, vec![oid("P1")]);

    // "if all nodes except P1 are in D1, the same query will return an
    // empty set."
    let members2: Vec<Oid> = database::members(&store, oid("PERSON"))
        .unwrap()
        .into_iter()
        .filter(|&o| o != oid("P1"))
        .collect();
    database::database_of(&mut store, oid("D2"), &members2).unwrap();
    let q_int2 = parse_query("SELECT ROOT.professor X WHERE X.age > 40 ANS INT D2").unwrap();
    assert!(evaluate(&store, &q_int2).unwrap().is_empty());
}

/// Example 3: view VJ and its uses (query 3.3, starting points).
#[test]
fn example_3_view_vj() {
    let mut store = person_store();
    let vj =
        parse_viewdef("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON")
            .unwrap();
    virtualview::define_virtual_view(&mut store, &vj).unwrap();
    // value(VJ) = {P1, P3}.
    assert_eq!(
        store.get(oid("VJ")).unwrap().children(),
        &[oid("P1"), oid("P3")]
    );

    // Query 3.3: SELECT ROOT.professor X ANS INT VJ → {P1}.
    let q = parse_query("SELECT ROOT.professor X ANS INT VJ").unwrap();
    assert_eq!(evaluate(&store, &q).unwrap().oids, vec![oid("P1")]);

    // "SELECT VJ.?.age gives us all subobjects of objects in view VJ
    // with label age."
    let q = parse_query("SELECT VJ.?.age X").unwrap();
    assert_eq!(
        evaluate(&store, &q).unwrap().oids,
        vec![oid("A1"), oid("A3")]
    );
}

/// Expressions 3.4: the PROF/STUDENT view hierarchy.
#[test]
fn expressions_3_4_views_on_views() {
    let mut store = person_store();
    let prof = parse_viewdef("define view PROF as: SELECT ROOT.*.professor X").unwrap();
    virtualview::define_virtual_view(&mut store, &prof).unwrap();
    let student = parse_viewdef("define view STUDENT as: SELECT PROF.?.student X").unwrap();
    virtualview::define_virtual_view(&mut store, &student).unwrap();
    assert_eq!(
        store.get(oid("PROF")).unwrap().children(),
        &[oid("P1"), oid("P2")]
    );
    // "A student who is not a subobject of some professor would not be
    // included in STUDENT."
    assert_eq!(store.get(oid("STUDENT")).unwrap().children(), &[oid("P3")]);
    // Queries can start from the new hierarchy.
    let q = parse_query("SELECT STUDENT.?.major X").unwrap();
    assert_eq!(evaluate(&store, &q).unwrap().oids, vec![oid("M3")]);
}

/// Example 4: the mview keyword produces a materialized copy whose
/// queries agree with the virtual view.
#[test]
fn example_4_materialization_transparency() {
    use gsview::query::PathExpr;
    use gsview::views::{GeneralMaintainer, GeneralViewDef};

    let store = person_store();
    let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap()).with_cond(
        PathExpr::parse("name").unwrap(),
        Pred::new(CmpOp::Eq, "John"),
    );
    let mv = GeneralMaintainer::new(def.clone())
        .recompute(&store)
        .unwrap();
    // "Whether a view is materialized or not should not affect query
    // results": members equal the virtual evaluation.
    let virt = evaluate(&store, &def.to_query()).unwrap();
    assert_eq!(mv.members_base(), virt.oids);
    // Delegates contain base OIDs (N1 is "an OID of an object in
    // database PERSON").
    let p1d = mv.delegate(oid("MVJ.P1")).unwrap();
    assert!(p1d.children().contains(&oid("N1")));
}

/// Examples 5 & 6: the YP maintenance walkthrough, step by step.
#[test]
fn examples_5_and_6_yp_maintenance() {
    let mut store = person_store();
    let def =
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64));
    let m = Maintainer::new(def.clone());
    let mut yp = recompute(&def, &mut LocalBase::new(&store)).unwrap();
    assert_eq!(yp.members_base(), vec![oid("P1")]);

    // Example 6 first part: insert(P2, A2), <A2, age, 40>.
    store
        .create(gsdb::Object::atom("A2", "age", 40i64))
        .unwrap();
    let up = store.insert_edge(oid("P2"), oid("A2")).unwrap();
    let out = m.apply(&mut yp, &mut LocalBase::new(&store), &up).unwrap();
    // Step 3: S = eval(A2, ∅, cond) = {A2} because value(A2) = 40 < 45.
    // Step 4: V_insert(YP, YP.P2).
    assert_eq!(out.inserted, vec![oid("P2")]);

    // Example 6 second part: delete(ROOT, P1).
    let up = store.delete_edge(oid("ROOT"), oid("P1")).unwrap();
    let out = m.apply(&mut yp, &mut LocalBase::new(&store), &up).unwrap();
    // Step 2: S = eval(P1, age, cond) = {A1}; step 3: p = cond_path →
    // V_delete(YP, YP.P1).
    assert_eq!(out.deleted, vec![oid("P1")]);
    assert_eq!(yp.members_base(), vec![oid("P2")]);
}

/// Example 7: tuple insertion maintains SEL with a handful of
/// accesses, and inserts into the other relation are screened out.
#[test]
fn example_7_relations_maintenance() {
    let mut store = Store::counting();
    samples::relations_db(&mut store, 50, 50).unwrap();
    let def =
        SimpleViewDef::new("SEL", "REL", "r.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64));
    let m = Maintainer::new(def.clone());
    let mut sel = recompute(&def, &mut LocalBase::new(&store)).unwrap();
    let baseline = sel.len();

    // New tuple T with <A, age, 40> into R.
    store.create(gsdb::Object::atom("A", "age", 40i64)).unwrap();
    store
        .create(gsdb::Object::set("T", "tuple", &[oid("A")]))
        .unwrap();
    store.reset_accesses();
    let up = store.insert_edge(oid("R"), oid("T")).unwrap();
    let out = m.apply(&mut sel, &mut LocalBase::new(&store), &up).unwrap();
    assert_eq!(out.inserted, vec![oid("T")]);
    assert_eq!(sel.len(), baseline + 1);
    let incremental_cost = store.accesses();
    // "Since the base tree is very shallow, computing these functions
    // should not be expensive" — far below touching all 50+50 tuples.
    assert!(
        incremental_cost < 30,
        "expected a handful of accesses, got {incremental_cost}"
    );

    // "inserting a tuple T2 into relation s ... the incremental
    // maintenance algorithm will stop processing after it finds out
    // that path(REL, S) does not match."
    store
        .create(gsdb::Object::atom("Bnew2", "age", 50i64))
        .unwrap();
    store
        .create(gsdb::Object::set("Tnew2", "tuple", &[oid("Bnew2")]))
        .unwrap();
    store.reset_accesses();
    let up = store.insert_edge(oid("S"), oid("Tnew2")).unwrap();
    let out = m.apply(&mut sel, &mut LocalBase::new(&store), &up).unwrap();
    assert!(!out.relevant);
    assert!(store.accesses() < 10, "screening must be near-constant");
}

/// Example 9: realizing eval via a fetch-objects + local-test protocol.
#[test]
fn example_9_source_query_realization() {
    use gsview::warehouse::{CostMeter, ReportLevel, Source, SourceQuery, SourceReply};
    use std::sync::Arc;

    let src = Source::empty("s", oid("ROOT"), ReportLevel::OidsOnly);
    src.with_store(|s| samples::person_db(s).map(|_| ()))
        .unwrap();
    let meter = Arc::new(CostMeter::new());
    let w = src.wrapper(meter);
    // ancestor(Y, p) as "fetch X where path(X, Y) = p":
    let reply = w.serve(&SourceQuery::Ancestor {
        n: oid("A1"),
        p: gsdb::Path::parse("age"),
    });
    assert_eq!(reply, SourceReply::AncestorResult(Some(oid("P1"))));
    // eval(N, p, cond) as "fetch all objects in N.p, then test cond
    // locally":
    let reply = w.serve(&SourceQuery::Reach {
        n: oid("P1"),
        p: gsdb::Path::parse("age"),
    });
    let SourceReply::Objects(infos) = reply else {
        panic!("expected objects");
    };
    let pred = Pred::new(CmpOp::Le, 45i64);
    let passing: Vec<Oid> = infos
        .iter()
        .filter(|i| i.value.as_atom().map(|a| pred.eval(a)).unwrap_or(false))
        .map(|i| i.oid)
        .collect();
    assert_eq!(passing, vec![oid("A1")]);
}

/// Example 10: with the auxiliary cache, "view maintenance
/// corresponding to any base update can be done locally at the
/// warehouse".
#[test]
fn example_10_cached_local_maintenance() {
    use gsview::warehouse::{ReportLevel, Source, ViewOptions, Warehouse};

    let src = Source::empty("persons", oid("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| samples::person_db(s).map(|_| ()))
        .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    let mut wh = Warehouse::new();
    wh.connect(&src);
    wh.add_view(
        "persons",
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64)),
        ViewOptions {
            use_aux_cache: true,
            label_screening: true,
            ..ViewOptions::default()
        },
    )
    .unwrap();
    wh.meter("persons").unwrap().reset();

    // A volley of updates of all three kinds.
    src.apply(Update::modify("A1", 70i64)).unwrap();
    src.apply(Update::modify("A1", 30i64)).unwrap();
    src.apply(Update::delete("P1", "A1")).unwrap();
    src.apply(Update::insert("P1", "A1")).unwrap();
    src.apply(Update::modify("N1", "Jon")).unwrap(); // irrelevant
    for report in src.monitor().poll() {
        wh.handle_report(&report).unwrap();
    }
    assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
    assert_eq!(
        wh.meter("persons").unwrap().queries(),
        0,
        "Example 10: fully local maintenance"
    );
}
