//! Executable reproductions of the paper's figures: every figure is
//! rebuilt exactly as printed and its stated properties asserted.

use gsview::gsdb::{self, display, graph, path, samples, Atom, Oid, Path, Store};
use gsview::query::{evaluate, parse_query};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

/// Figure 1: the abstract GSDB with objects A–G and a dotted "view"
/// region {B, C}.
#[test]
fn figure_1_graph_and_view_region() {
    let mut store = Store::new();
    let a = samples::fig1_db(&mut store).unwrap();
    assert_eq!(store.len(), 7);
    // Users traverse by starting from an object and following edges.
    let reached = graph::reachable(&store, a);
    assert_eq!(reached.len(), 7);
    // The dotted region {B, C}: B's value still contains the pointer
    // to D — the paper's point that "the user could anyway retrieve
    // the contents of B which somewhere contains the C, D pointers".
    let b = store.get(oid("B")).unwrap();
    assert!(b.children().contains(&oid("C")));
    assert!(b.children().contains(&oid("D")));
}

/// Figure 2 / Example 2: the PERSON database, rendered in the paper's
/// angle-bracket notation.
#[test]
fn figure_2_person_database() {
    let mut store = Store::new();
    let root = samples::person_db(&mut store).unwrap();
    let text = display::render(&store, root);
    // Spot-check the paper's printed lines.
    assert!(text.contains("< N1, name, string, 'John' >"));
    assert!(text.contains("< A1, age, integer, 45 >"));
    assert!(text.contains("< S1, salary, dollar, dollar 100000 >"));
    assert!(text.contains("< M3, major, string, 'education' >"));
    assert!(text.contains("< N4, name, string, 'Tom' >"));
    // label(P2) = professor and value(P2) = {N2, ADD2} (§2 text).
    let p2 = store.get(oid("P2")).unwrap();
    assert_eq!(p2.label.as_str(), "professor");
    assert_eq!(p2.children().len(), 2);
    // A1 ∈ ROOT.professor.age (§2).
    assert!(path::reach(&store, root, &Path::parse("professor.age")).contains(&oid("A1")));
    // The PERSON database object groups all 15 objects.
    let person = store.get(oid("PERSON")).unwrap();
    assert_eq!(person.children().len(), 15);
    assert_eq!(person.label.as_str(), "database");
}

/// Figure 3 / Example 4: the materialized view MVJ with delegates
/// MVJ.P1 and MVJ.P3.
#[test]
fn figure_3_materialized_view_mvj() {
    use gsview::query::{CmpOp, PathExpr, Pred};
    use gsview::views::{GeneralMaintainer, GeneralViewDef};

    let mut store = Store::new();
    samples::person_db(&mut store).unwrap();
    let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap()).with_cond(
        PathExpr::parse("name").unwrap(),
        Pred::new(CmpOp::Eq, "John"),
    );
    let mv = GeneralMaintainer::new(def).recompute(&store).unwrap();
    // Exactly the two delegates of Figure 3.
    assert_eq!(mv.members_base(), vec![oid("P1"), oid("P3")]);
    let p1d = mv.delegate_of(oid("P1")).unwrap();
    assert_eq!(p1d.name(), "MVJ.P1");
    // <MVJ.P1, professor, {N1,A1,S1,P3}> — base OIDs inside the value.
    let obj = mv.delegate(p1d).unwrap();
    assert_eq!(obj.label.as_str(), "professor");
    for c in ["N1", "A1", "S1", "P3"] {
        assert!(obj.children().contains(&oid(c)), "{c} missing");
    }
    // The rendering shows the view object with both delegates.
    let text = mv.render();
    assert!(text.contains("MVJ.P1"));
    assert!(text.contains("MVJ.P3"));
}

/// Figure 4 / Example 5: view YP before and after insert(P2, A2).
#[test]
fn figure_4_yp_change() {
    use gsview::query::{CmpOp, Pred};
    use gsview::views::{recompute::recompute, LocalBase, Maintainer, SimpleViewDef};

    let mut store = Store::new();
    samples::person_db(&mut store).unwrap();
    let def =
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64));
    let mut yp = recompute(&def, &mut LocalBase::new(&store)).unwrap();
    // Left-hand side of Figure 4: {YP.P1} only.
    assert_eq!(yp.members_delegates().len(), 1);
    assert_eq!(yp.members_delegates()[0].name(), "YP.P1");

    // insert(P2, A2) with <A2, age, 40>.
    store
        .create(gsdb::Object::atom("A2", "age", 40i64))
        .unwrap();
    let up = store.insert_edge(oid("P2"), oid("A2")).unwrap();
    Maintainer::new(def)
        .apply(&mut yp, &mut LocalBase::new(&store), &up)
        .unwrap();
    // Right-hand side of Figure 4: {YP.P1, YP.P2}.
    let delegates: Vec<&str> = yp.members_delegates().iter().map(|d| d.name()).collect();
    assert_eq!(delegates, vec!["YP.P1", "YP.P2"]);
    // The new delegate copies P2's value {N2, ADD2, A2}.
    let p2d = yp.delegate(oid("YP.P2")).unwrap();
    assert_eq!(p2d.children().len(), 3);
}

/// Figure 5 / Example 7: the relational-shaped GSDB.
#[test]
fn figure_5_relations_database() {
    let mut store = Store::new();
    let rel = samples::relations_db(&mut store, 4, 3).unwrap();
    assert_eq!(store.label(rel).unwrap().as_str(), "relations");
    let tuples = path::reach(&store, rel, &Path::parse("r.tuple"));
    assert_eq!(tuples.len(), 4);
    // <A, age, 40>-style leaves under tuples.
    let ages = path::reach(&store, rel, &Path::parse("r.tuple.age"));
    assert_eq!(ages.len(), 4);
    assert!(matches!(store.atom(ages[0]), Some(Atom::Int(_))));
    // The paper's query shape works against it.
    let q = parse_query("SELECT REL.r.tuple X WHERE X.age > 30").unwrap();
    let ans = evaluate(&store, &q).unwrap();
    assert!(ans.oids.is_empty(), "generated ages are 10..14");
}

/// Figure 6: the warehousing architecture — sources export reports and
/// answer queries; the warehouse alone knows the view definitions.
#[test]
fn figure_6_warehouse_architecture() {
    use gsview::query::{CmpOp, Pred};
    use gsview::views::SimpleViewDef;
    use gsview::warehouse::{Integrator, ReportLevel, Source, ViewOptions, Warehouse};

    // Two autonomous sources.
    let s1 = Source::empty("src1", oid("ROOT"), ReportLevel::WithValues);
    s1.with_store(|s| samples::person_db(s).map(|_| ()))
        .unwrap();
    s1.with_store(|s| {
        s.drain_log();
    });
    let s2 = Source::empty("src2", oid("REL"), ReportLevel::WithValues);
    s2.with_store(|s| samples::relations_db(s, 3, 2).map(|_| ()))
        .unwrap();
    s2.with_store(|s| {
        s.drain_log();
    });

    let mut wh = Warehouse::new();
    wh.connect(&s1);
    wh.connect(&s2);
    wh.add_view(
        "src1",
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64)),
        ViewOptions::default(),
    )
    .unwrap();
    wh.add_view(
        "src2",
        SimpleViewDef::new("SEL", "REL", "r.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64)),
        ViewOptions::default(),
    )
    .unwrap();

    let mut integrator = Integrator::new();
    integrator.register(s1.monitor());
    integrator.register(s2.monitor());

    // Updates at both sources flow through the integrator.
    s1.apply(gsdb::Update::modify("A1", 80i64)).unwrap();
    s2.with_store(|s| s.create(gsdb::Object::atom("Anew", "age", 44i64)))
        .unwrap();
    s2.apply(gsdb::Update::insert("T1", "Anew")).unwrap();
    for report in integrator.poll() {
        wh.handle_report(&report).unwrap();
    }
    assert!(wh.view(oid("YP")).unwrap().is_empty(), "P1 aged out");
    assert_eq!(
        wh.view(oid("SEL")).unwrap().members_base(),
        vec![oid("T1")],
        "T1 gained a qualifying age"
    );
}
