//! A guided tour through every figure and worked example in the paper,
//! printed in the paper's own notation.
//!
//! ```text
//! cargo run --example paper_walkthrough
//! ```

use gsview::gsdb::{display, samples, Object, Oid, Store};
use gsview::query::{evaluate, parse_query, parse_viewdef, CmpOp, PathExpr, Pred};
use gsview::views::{
    recompute::recompute, virtualview, GeneralMaintainer, GeneralViewDef, LocalBase, Maintainer,
    SimpleViewDef,
};

fn heading(s: &str) {
    println!("\n=== {s} ===\n");
}

fn main() {
    let mut store = Store::new();

    heading("Figure 1: a graph structured database");
    let a = samples::fig1_db(&mut store).expect("fig1");
    print!("{}", display::render(&store, a));

    heading("Figure 2 / Example 2: the PERSON database");
    let root = samples::person_db(&mut store).expect("person");
    print!("{}", display::render(&store, root));

    heading("Section 2: queries and scoping");
    for src in [
        "SELECT ROOT.professor X WHERE X.age > 40",
        "SELECT ROOT.*.name X",
        "SELECT ROOT.professor X WHERE X.salary >= 100000",
    ] {
        let q = parse_query(src).expect("parse");
        let ans = evaluate(&store, &q).expect("evaluate");
        println!("{src}\n  => {:?}", ans.oids);
    }

    heading("Example 3: virtual view VJ (persons named John)");
    let vj =
        parse_viewdef("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON")
            .expect("parse VJ");
    println!("{vj}");
    virtualview::define_virtual_view(&mut store, &vj).expect("define");
    println!(
        "  {}",
        store.get(Oid::new("VJ")).expect("VJ").to_paper_notation()
    );
    let q = parse_query("SELECT ROOT.professor X ANS INT VJ").expect("parse 3.3");
    println!(
        "SELECT ROOT.professor X ANS INT VJ\n  => {:?}",
        evaluate(&store, &q).expect("eval").oids
    );

    heading("Expressions 3.4: views on views (PROF / STUDENT)");
    for src in [
        "define view PROF as: SELECT ROOT.*.professor X",
        "define view STUDENT as: SELECT PROF.?.student X",
    ] {
        let def = parse_viewdef(src).expect("parse");
        virtualview::define_virtual_view(&mut store, &def).expect("define");
        println!(
            "{src}\n  {}",
            store.get(def.name).expect("view").to_paper_notation()
        );
    }

    heading("Figure 3 / Example 4: materialized view MVJ");
    let mvj_def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap()).with_cond(
        PathExpr::parse("name").unwrap(),
        Pred::new(CmpOp::Eq, "John"),
    );
    let mvj = GeneralMaintainer::new(mvj_def)
        .recompute(&store)
        .expect("materialize");
    print!("{}", mvj.render());

    heading("Figure 4 / Examples 5-6: maintaining view YP");
    let yp_def =
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64));
    println!("{yp_def}\n");
    let mut yp = recompute(&yp_def, &mut LocalBase::new(&store)).expect("materialize");
    println!("before:\n{}", yp.render());
    store
        .create(Object::atom("A2", "age", 40i64))
        .expect("create A2");
    let m = Maintainer::new(yp_def);
    let up = store
        .insert_edge(Oid::new("P2"), Oid::new("A2"))
        .expect("insert");
    println!("update: {up}");
    m.apply(&mut yp, &mut LocalBase::new(&store), &up)
        .expect("maintain");
    println!("after:\n{}", yp.render());
    let up = store
        .delete_edge(Oid::new("ROOT"), Oid::new("P1"))
        .expect("delete");
    println!("update: {up}");
    m.apply(&mut yp, &mut LocalBase::new(&store), &up)
        .expect("maintain");
    println!("after:\n{}", yp.render());

    heading("Figure 5 / Example 7: the relations database");
    let mut rstore = Store::counting();
    let rel = samples::relations_db(&mut rstore, 3, 2).expect("relations");
    print!("{}", display::render(&rstore, rel));
    let sel_def =
        SimpleViewDef::new("SEL", "REL", "r.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64));
    let m = Maintainer::new(sel_def.clone());
    let mut sel = recompute(&sel_def, &mut LocalBase::new(&rstore)).expect("materialize");
    rstore
        .create(Object::atom("Anew", "age", 40i64))
        .expect("A");
    rstore
        .create(Object::set("Tnew", "tuple", &[Oid::new("Anew")]))
        .expect("T");
    rstore.reset_accesses();
    let up = rstore
        .insert_edge(Oid::new("R"), Oid::new("Tnew"))
        .expect("insert tuple");
    let out = m
        .apply(&mut sel, &mut LocalBase::new(&rstore), &up)
        .expect("maintain");
    println!(
        "insert(R, Tnew): inserted {:?} using {} base accesses",
        out.inserted,
        rstore.accesses()
    );
    rstore.reset_accesses();
    rstore
        .create(Object::atom("Bnew", "age", 50i64))
        .expect("B");
    rstore
        .create(Object::set("Unew", "tuple", &[Oid::new("Bnew")]))
        .expect("U");
    rstore.reset_accesses();
    let up = rstore
        .insert_edge(Oid::new("S"), Oid::new("Unew"))
        .expect("insert into s");
    let out = m
        .apply(&mut sel, &mut LocalBase::new(&rstore), &up)
        .expect("maintain");
    println!(
        "insert(S, Unew): relevant={} — screened out after {} accesses",
        out.relevant,
        rstore.accesses()
    );
}
