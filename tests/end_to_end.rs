//! One downstream-user scenario exercising the whole stack together:
//! load a database from the paper's notation, define views through the
//! catalog, churn the base with atomic batches, query with the
//! planner, screen a bulk update, aggregate, and apply an edge policy.

use gsview::gsdb::{notation, txn, Atom, Oid, Path, Store, Update};
use gsview::query::{evaluate, evaluate_planned, parse_query, CmpOp, Pred};
use gsview::views::{
    bulk::{view_unaffected, BulkUpdate},
    catalog::Catalog,
    recompute, AggFn, AggregateView, AggregateViewDef, EdgePolicy, LocalBase, SimpleViewDef,
};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

const LISTING: &str = "
    < EROOT, company, set, {E1,E2,E3,E4} >
    < E1, engineer, set, {EN1,EA1,ES1} >
    < EN1, name, string, 'Ada' >
    < EA1, age, integer, 36 >
    < ES1, salary, dollar, $120,000 >
    < E2, engineer, set, {EN2,EA2,ES2} >
    < EN2, name, string, 'Grace' >
    < EA2, age, integer, 52 >
    < ES2, salary, dollar, $150,000 >
    < E3, manager, set, {EN3,EA3,ES3} >
    < EN3, name, string, 'Edsger' >
    < EA3, age, integer, 44 >
    < ES3, salary, dollar, $90,000 >
    < E4, engineer, set, {EN4,EA4} >
    < EN4, name, string, 'Barbara' >
    < EA4, age, integer, 29 >
";

#[test]
fn full_stack_scenario() {
    // 1. Load the database from the paper's notation.
    let mut store = Store::new();
    let loaded = notation::load_listing(&mut store, LISTING).expect("notation parses");
    assert_eq!(loaded, 16);

    // 2. Define views through the catalog: one simple materialized,
    //    one wildcard materialized, one virtual.
    let mut catalog = Catalog::new();
    catalog
        .define(
            &mut store,
            "define mview YOUNG as: SELECT EROOT.engineer X WHERE X.age < 40",
        )
        .expect("simple mview");
    catalog
        .define(
            &mut store,
            "define mview WELLPAID as: SELECT EROOT.* X WHERE X.salary >= 100000",
        )
        .expect("wildcard mview");
    catalog
        .define(
            &mut store,
            "define view STAFF as: SELECT EROOT.? X",
        )
        .expect("virtual view");
    assert_eq!(
        catalog.materialized(oid("YOUNG")).unwrap().members_base(),
        vec![oid("E1"), oid("E4")]
    );
    assert_eq!(
        catalog.materialized(oid("WELLPAID")).unwrap().members_base(),
        vec![oid("E1"), oid("E2")]
    );

    // 3. Churn the base atomically: hire one engineer, age another —
    //    routed to every materialized view.
    let batch = vec![
        Update::Create {
            object: gsview::gsdb::Object::atom("EN5", "name", "Alan"),
        },
        Update::Create {
            object: gsview::gsdb::Object::atom("EA5", "age", 31i64),
        },
        Update::Create {
            object: gsview::gsdb::Object::set("E5", "engineer", &[oid("EN5"), oid("EA5")]),
        },
        Update::insert("EROOT", "E5"),
        Update::modify("EA1", 41i64),
    ];
    for applied in txn::apply_atomic(&mut store, batch).expect("valid batch") {
        catalog.handle_update(&store, &applied).expect("maintain");
    }
    assert_eq!(
        catalog.materialized(oid("YOUNG")).unwrap().members_base(),
        vec![oid("E4"), oid("E5")],
        "E1 aged out; E5 hired in"
    );

    // 4. Query with the planner; forward and backward agree.
    let q = parse_query("SELECT EROOT.*.salary X").expect("parse");
    let forward = evaluate(&store, &q).expect("forward");
    let (planned, _strategy) = evaluate_planned(&store, &q).expect("planned");
    assert_eq!(forward.oids, planned.oids);
    assert_eq!(forward.oids.len(), 3);

    // 5. A bulk raise for managers provably cannot affect the
    //    engineers' age view — no maintenance needed.
    let raise = BulkUpdate {
        root: oid("EROOT"),
        sel_path: Path::parse("manager"),
        cond_path: Path::parse("name"),
        pred: Pred::new(CmpOp::Eq, "Edsger"),
        target_path: Path::parse("salary"),
        delta: 10_000,
    };
    let young_def = SimpleViewDef::new("YOUNG", "EROOT", "engineer")
        .with_cond("age", Pred::new(CmpOp::Lt, 40i64));
    assert!(view_unaffected(&young_def, &raise));
    let applied = raise.execute(&mut store).expect("raise");
    assert_eq!(applied.len(), 1);
    assert_eq!(store.atom(oid("ES3")), Some(&Atom::tagged("dollar", 100_000)));
    // (WELLPAID *is* affected — route the updates there via catalog.)
    for a in &applied {
        catalog.handle_update(&store, a).expect("maintain");
    }
    assert!(
        catalog
            .materialized(oid("WELLPAID"))
            .unwrap()
            .contains_base(oid("E3")),
        "the raise lifted the manager into WELLPAID"
    );

    // 6. Aggregate dashboard over the same base.
    let avg = AggregateViewDef::new(
        SimpleViewDef::new("AVGAGE", "EROOT", "engineer"),
        "age",
        AggFn::Avg,
    );
    let mut avg = AggregateView::materialize(avg, &mut LocalBase::new(&store)).expect("agg");
    let expected = (41.0 + 52.0 + 29.0 + 31.0) / 4.0;
    assert!((avg.total().unwrap() - expected).abs() < 1e-9);
    let up = store.modify_atom(oid("EA4"), 30i64).expect("birthday");
    avg.apply(&mut LocalBase::new(&store), &up).expect("maintain agg");
    assert!((avg.total().unwrap() - (41.0 + 52.0 + 30.0 + 31.0) / 4.0).abs() < 1e-9);

    // 7. Publish a salary-free copy of the engineers view.
    let pub_def = SimpleViewDef::new("PUB", "EROOT", "engineer");
    let mut public = recompute::recompute(&pub_def, &mut LocalBase::new(&store)).expect("pub");
    let hidden =
        gsview::views::apply_policy(&mut public, &store, &EdgePolicy::show_all().hide_child("salary"))
            .expect("policy");
    assert_eq!(hidden, 2, "ES1 and ES2 hidden");
    for d in public.members_delegates() {
        for &c in public.delegate(d).unwrap().children() {
            assert_ne!(store.label(c).map(|l| l.as_str()), Some("salary"));
        }
    }

    // 8. Everything still agrees with the oracle at the end.
    let expected = recompute::recompute_members(&young_def, &mut LocalBase::new(&store));
    assert_eq!(
        catalog.materialized(oid("YOUNG")).unwrap().members_base(),
        expected
    );
}
