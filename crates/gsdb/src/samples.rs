//! The example databases that appear in the paper's figures, built
//! exactly as printed, so tests, examples, and documentation can refer
//! to the same objects the paper does.

use crate::builder::{atom, set};
use crate::{database, Oid, Result, Store};

/// Example 2 / Figure 2: the `PERSON` database.
///
/// ```text
/// < ROOT, person, set, {P1,P2,P3,P4} >
///   < P1, professor, set, {N1, A1, S1, P3} >
///     < N1, name, string, 'John' >
///     < A1, age, integer, 45 >
///     < S1, salary, dollar, $100,000 >
///     < P3, student, set, {N3, A3, M3} >
///       < N3, name, string, 'John' >
///       < A3, age, integer, 20 >
///       < M3, major, string, 'education' >
///   < P2, professor, set, {N2, S2} >
///     < N2, name, string, 'Sally' >
///     < ADD2, address, string, 'Palo Alto' >
///   < P4, secretary, set, {N4, A4} >
///     < N4, name, string, 'Tom' >
///     < A4, age, integer, 40 >
/// ```
///
/// (As in the paper, `P3` is both a child of `ROOT` and of `P1`, and
/// `P2`'s children are `N2` and `ADD2`.) Returns the `ROOT` OID; the
/// `PERSON` database object is created with all objects as members.
pub fn person_db(store: &mut Store) -> Result<Oid> {
    let root = set("ROOT", "person")
        .child(
            set("P1", "professor")
                .child(atom("N1", "name", "John"))
                .child(atom("A1", "age", 45i64))
                .child(atom("S1", "salary", crate::Atom::tagged("dollar", 100_000)))
                .child(
                    set("P3", "student")
                        .child(atom("N3", "name", "John"))
                        .child(atom("A3", "age", 20i64))
                        .child(atom("M3", "major", "education")),
                ),
        )
        .child(
            set("P2", "professor")
                .child(atom("N2", "name", "Sally"))
                .child(atom("ADD2", "address", "Palo Alto")),
        )
        .child(
            set("P4", "secretary")
                .child(atom("N4", "name", "Tom"))
                .child(atom("A4", "age", 40i64)),
        )
        .build(store)?;
    // ROOT's value is {P1, P2, P3, P4} in the paper: P3 is also a
    // direct child of ROOT.
    store.insert_edge(root, Oid::new("P3"))?;
    // The PERSON database object groups all objects (paper §2).
    database::database_of_reachable(store, Oid::new("PERSON"), root)?;
    Ok(root)
}

/// Figure 1: the abstract GSDB with objects A–G.
///
/// Edges: A→B, A→E, B→C, B→D, E→F, E→G, and C is also pointed at by B
/// while the dotted-line "view" encloses {B, C}. All objects are set
/// objects with single-letter labels; returns the OID of `A`.
pub fn fig1_db(store: &mut Store) -> Result<Oid> {
    set("A", "a")
        .child(set("B", "b").child(set("C", "c")).child(set("D", "d")))
        .child(set("E", "e").child(set("F", "f")).child(set("G", "g")))
        .build(store)
}

/// Figure 5 / Example 7 (small instance): `REL` with relations `r` and
/// `s`, each holding tuples with `age` fields.
///
/// `r` has `n_r` tuples `Ti` with field `<Ai, age, 10 + i>`; `s` has
/// `n_s` tuples likewise. Returns the `REL` OID.
pub fn relations_db(store: &mut Store, n_r: usize, n_s: usize) -> Result<Oid> {
    let mut rel = set("REL", "relations");
    let mut r = set("R", "r");
    for i in 0..n_r {
        r = r.child(set(&format!("T{i}"), "tuple").child(atom(
            &format!("A{i}"),
            "age",
            (10 + i) as i64,
        )));
    }
    let mut s_node = set("S", "s");
    for i in 0..n_s {
        s_node = s_node.child(set(&format!("U{i}"), "tuple").child(atom(
            &format!("B{i}"),
            "age",
            (10 + i) as i64,
        )));
    }
    rel = rel.child(r).child(s_node);
    rel.build(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph, path, Atom, Path};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    #[test]
    fn person_db_matches_example_2() {
        let mut s = Store::new();
        let root = person_db(&mut s).unwrap();
        assert_eq!(root, oid("ROOT"));
        // ROOT has four children: P1, P2, P3, P4.
        let root_children = s.get(root).unwrap().children().to_vec();
        assert_eq!(root_children.len(), 4);
        for c in ["P1", "P2", "P3", "P4"] {
            assert!(root_children.contains(&oid(c)), "{c} missing from ROOT");
        }
        // P1 = {N1, A1, S1, P3}.
        assert_eq!(s.get(oid("P1")).unwrap().children().len(), 4);
        // label(P2) = professor, value(P2) = {N2, ADD2} (paper §2 text).
        assert_eq!(s.label(oid("P2")).unwrap().as_str(), "professor");
        assert_eq!(s.get(oid("P2")).unwrap().children().len(), 2);
        // Atomic values as printed.
        assert_eq!(s.atom(oid("A1")), Some(&Atom::Int(45)));
        assert_eq!(s.atom(oid("N3")), Some(&Atom::str("John")));
        assert_eq!(s.atom(oid("S1")), Some(&Atom::tagged("dollar", 100_000)));
        // A1 ∈ ROOT.professor.age (paper §2).
        assert!(path::reach(&s, root, &Path::parse("professor.age")).contains(&oid("A1")));
        // P3 reachable both directly and through P1 ⇒ the database is a
        // DAG, not a tree.
        assert_eq!(graph::classify(&s, root), graph::Shape::Dag);
        // PERSON contains all 15 objects incl. ROOT (paper lists 15).
        let members = database::members(&s, oid("PERSON")).unwrap();
        assert_eq!(members.len(), 15);
    }

    #[test]
    fn fig1_db_shape() {
        let mut s = Store::new();
        let a = fig1_db(&mut s).unwrap();
        assert_eq!(s.len(), 7);
        assert_eq!(graph::classify(&s, a), graph::Shape::Tree);
        assert_eq!(graph::depth(&s, a), Some(2));
    }

    #[test]
    fn relations_db_shape() {
        let mut s = Store::new();
        let rel = relations_db(&mut s, 5, 3).unwrap();
        // REL + R + S + 5 tuples + 5 fields + 3 tuples + 3 fields = 19.
        assert_eq!(s.len(), 19);
        let tuples = path::reach(&s, rel, &Path::parse("r.tuple"));
        assert_eq!(tuples.len(), 5);
        let ages = path::reach(&s, rel, &Path::parse("s.tuple.age"));
        assert_eq!(ages.len(), 3);
        assert_eq!(graph::classify(&s, rel), graph::Shape::Tree);
    }
}
