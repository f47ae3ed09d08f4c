//! Cross-crate conformance tests for the query language: parsing,
//! evaluation, scoping, and path-expression semantics on realistic
//! stores.

use gsview::gsdb::{samples, Object, Oid, Store};
use gsview::query::{
    evaluate, evaluate_into, parse_query, parse_statement, parse_viewdef, PathExpr, Statement,
};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

fn person_store() -> Store {
    let mut s = Store::new();
    samples::person_db(&mut s).unwrap();
    s
}

#[test]
fn statement_dispatch() {
    assert!(matches!(
        parse_statement("SELECT ROOT.a X").unwrap(),
        Statement::Query(_)
    ));
    assert!(matches!(
        parse_statement("define view V as: SELECT ROOT.a X").unwrap(),
        Statement::ViewDef(_)
    ));
    assert!(parse_viewdef("SELECT ROOT.a X").is_err());
    assert!(parse_query("define view V as: SELECT ROOT.a X").is_err());
}

#[test]
fn wildcard_queries_on_person_db() {
    let s = person_store();
    // All names at any depth.
    let q = parse_query("SELECT ROOT.*.name X").unwrap();
    let ans = evaluate(&s, &q).unwrap();
    assert_eq!(ans.oids, vec![oid("N1"), oid("N2"), oid("N3"), oid("N4")]);
    // One arbitrary step then age: only top-level persons' ages.
    let q = parse_query("SELECT ROOT.?.age X").unwrap();
    let ans = evaluate(&s, &q).unwrap();
    assert_eq!(ans.oids, vec![oid("A1"), oid("A3"), oid("A4")]);
    // Alternation.
    let q = parse_query("SELECT ROOT.(student|secretary).name X").unwrap();
    let ans = evaluate(&s, &q).unwrap();
    assert_eq!(ans.oids, vec![oid("N3"), oid("N4")]);
}

#[test]
fn conditions_across_atom_kinds() {
    let s = person_store();
    // Tagged dollar values compare numerically.
    let q = parse_query("SELECT ROOT.professor X WHERE X.salary >= 100000").unwrap();
    assert_eq!(evaluate(&s, &q).unwrap().oids, vec![oid("P1")]);
    // String equality with the paper's backquote style.
    let q = parse_query("SELECT ROOT.* X WHERE X.major = `education'").unwrap();
    assert_eq!(evaluate(&s, &q).unwrap().oids, vec![oid("P3")]);
    // contains (extension).
    let q = parse_query("SELECT ROOT.*.address X WHERE X contains 'Palo'").unwrap();
    assert_eq!(evaluate(&s, &q).unwrap().oids, vec![oid("ADD2")]);
}

#[test]
fn answers_are_queryable_objects() {
    // "A query answer is also an object" — and usable as an entry
    // point (query composition, §3).
    let mut s = person_store();
    let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").unwrap();
    evaluate_into(&mut s, &q, oid("ANS1")).unwrap();
    let q2 = parse_query("SELECT ANS1.?.name X").unwrap();
    let ans2 = evaluate(&s, &q2).unwrap();
    assert_eq!(ans2.oids, vec![oid("N1")]);
}

#[test]
fn queries_span_multiple_databases() {
    // §2: "the above query can span multiple databases ... the query
    // is insensitive to the 'location' of objects."
    let mut s = Store::new();
    samples::person_db(&mut s).unwrap();
    // A second store region (same Store, conceptually remote DB).
    s.create(Object::atom("REMOTE1", "age", 55i64)).unwrap();
    s.insert_edge(oid("P4"), oid("REMOTE1")).unwrap();
    let q = parse_query("SELECT ROOT.secretary X WHERE X.age > 50").unwrap();
    assert_eq!(evaluate(&s, &q).unwrap().oids, vec![oid("P4")]);
}

#[test]
fn path_expression_containment_api() {
    // §6: path containment for general path expressions.
    let star = PathExpr::parse("*").unwrap();
    let prof_any = PathExpr::parse("professor.*").unwrap();
    let prof_age = PathExpr::parse("professor.age").unwrap();
    assert!(PathExpr::contains(&star, &prof_any));
    assert!(PathExpr::contains(&star, &prof_age));
    assert!(PathExpr::contains(&prof_any, &prof_age));
    assert!(!PathExpr::contains(&prof_age, &prof_any));
    assert!(!PathExpr::contains(&prof_any, &star));
}

#[test]
fn cyclic_data_is_queryable() {
    // The evaluator's product construction terminates on cycles.
    let mut s = Store::new();
    s.create(Object::empty_set("ca", "x")).unwrap();
    s.create(Object::empty_set("cb", "x")).unwrap();
    s.create(Object::atom("cv", "v", 3i64)).unwrap();
    s.insert_edge(oid("ca"), oid("cb")).unwrap();
    s.insert_edge(oid("cb"), oid("ca")).unwrap();
    s.insert_edge(oid("cb"), oid("cv")).unwrap();
    let q = parse_query("SELECT ca.*.v X").unwrap();
    assert_eq!(evaluate(&s, &q).unwrap().oids, vec![oid("cv")]);
}

#[test]
fn evaluation_stats_expose_query_effort() {
    let s = person_store();
    let cheap = parse_query("SELECT ROOT.professor X").unwrap();
    let costly = parse_query("SELECT ROOT.* X WHERE X.name = 'John'").unwrap();
    let c1 = evaluate(&s, &cheap).unwrap().stats;
    let c2 = evaluate(&s, &costly).unwrap().stats;
    assert!(c2.sel_states_visited > c1.sel_states_visited);
    assert!(c2.cond_states_visited > 0);
    assert_eq!(c1.candidates_tested, 0, "no WHERE clause");
}
