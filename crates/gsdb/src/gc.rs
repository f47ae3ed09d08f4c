//! Garbage collection of unreferenced objects.
//!
//! Paper §4.1: "If no objects point to N2 any more, N2 may be garbage
//! collected." [`collect`] is a mark-and-sweep collector over a set of
//! declared roots (typically database objects and view objects), since
//! reference counting alone cannot reclaim cyclic garbage; its cost is
//! the size of the store. [`collect_below`] is the paper's local test
//! made cycle-safe: it looks only below the objects an update detached.

use crate::{graph, Oid, Store, Update};
use std::collections::HashSet;

/// Collect every object not reachable from any of `roots`.
/// Returns the OIDs that were removed, sorted by name.
pub fn collect(store: &mut Store, roots: &[Oid]) -> Vec<Oid> {
    let mut live: HashSet<Oid> = HashSet::new();
    for &r in roots {
        live.extend(graph::reachable(store, r));
    }
    let dead: Vec<Oid> = store
        .oids_sorted()
        .into_iter()
        .filter(|o| !live.contains(o))
        .collect();
    remove_all(store, &dead);
    dead
}

/// Collect the garbage below `tops`: every object reachable from one of
/// them that has no way up to `root` any more. Returns the OIDs that
/// were removed, sorted by name.
///
/// Equal to `collect(store, &[root])` whenever all garbage lies below
/// `tops` — which holds when every object was reachable from `root`
/// before the edges into `tops` were deleted — at the cost of the
/// region below `tops` instead of the whole store. An object of that
/// region survives when it is `root`, has a parent outside the region
/// (a second parent, a re-attachment made after the delete), or hangs
/// below such a survivor; a cycle with no entry from outside does not.
pub fn collect_below(store: &mut Store, root: Oid, tops: &[Oid]) -> Vec<Oid> {
    let mut region: Vec<Oid> = Vec::new();
    let mut in_region: HashSet<Oid> = HashSet::new();
    for &t in tops {
        if store.contains(t) && in_region.insert(t) {
            region.push(t);
        }
    }
    descend(store, &mut region, &mut in_region);

    let mut live: Vec<Oid> = Vec::new();
    let mut is_live: HashSet<Oid> = HashSet::new();
    for &o in &region {
        let entered = o == root || store.parents(o).iter().any(|p| !in_region.contains(&p));
        if entered && is_live.insert(o) {
            live.push(o);
        }
    }
    descend(store, &mut live, &mut is_live);

    let mut dead: Vec<Oid> = region
        .into_iter()
        .filter(|o| !is_live.contains(o))
        .collect();
    dead.sort_by_key(|o| o.name());
    remove_all(store, &dead);
    dead
}

/// Extend `found` (and its membership set `seen`) with every stored
/// object reachable from the ones already in it.
fn descend(store: &Store, found: &mut Vec<Oid>, seen: &mut HashSet<Oid>) {
    let mut i = 0;
    while i < found.len() {
        for &c in store.children(found[i]) {
            if store.contains(c) && seen.insert(c) {
                found.push(c);
            }
        }
        i += 1;
    }
}

fn remove_all(store: &mut Store, dead: &[Oid]) {
    for &d in dead {
        // Unlink from any live parents first so Remove cannot leave
        // dangling edges behind (live parents of dead objects cannot
        // exist by construction, but defensive unlinking keeps the
        // parent index exact even on inconsistent inputs).
        let parents: Vec<Oid> = store.parents(d).iter().collect();
        for p in parents {
            let _ = store.delete_edge(p, d);
        }
        store
            .apply(Update::Remove { oid: d })
            .expect("dead object must exist");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Object;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    #[test]
    fn unreachable_objects_are_collected() {
        let mut s = Store::new();
        s.create_all([
            Object::set("root", "db", &[oid("kept")]),
            Object::atom("kept", "x", 1i64),
            Object::atom("orphan", "x", 2i64),
        ])
        .unwrap();
        let dead = collect(&mut s, &[oid("root")]);
        assert_eq!(dead, vec![oid("orphan")]);
        assert!(s.contains(oid("kept")));
        assert!(!s.contains(oid("orphan")));
    }

    #[test]
    fn delete_then_collect_models_paper_gc() {
        // delete(N1, N2) followed by GC reclaims N2 iff nothing else
        // points at it (paper §4.1).
        let mut s = Store::new();
        s.create_all([
            Object::set("root", "db", &[oid("a"), oid("b")]),
            Object::set("a", "s", &[oid("shared")]),
            Object::set("b", "s", &[oid("shared")]),
            Object::atom("shared", "v", 1i64),
        ])
        .unwrap();
        s.delete_edge(oid("a"), oid("shared")).unwrap();
        assert!(
            collect(&mut s, &[oid("root")]).is_empty(),
            "still referenced by b"
        );
        s.delete_edge(oid("b"), oid("shared")).unwrap();
        assert_eq!(collect(&mut s, &[oid("root")]), vec![oid("shared")]);
    }

    #[test]
    fn cyclic_garbage_is_collected() {
        let mut s = Store::new();
        s.create_all([
            Object::empty_set("root", "db"),
            Object::empty_set("c1", "c"),
            Object::empty_set("c2", "c"),
        ])
        .unwrap();
        s.insert_edge(oid("c1"), oid("c2")).unwrap();
        s.insert_edge(oid("c2"), oid("c1")).unwrap();
        let dead = collect(&mut s, &[oid("root")]);
        assert_eq!(dead.len(), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn multiple_roots_protect_their_subtrees() {
        let mut s = Store::new();
        s.create_all([
            Object::set("r1", "db", &[oid("m1")]),
            Object::set("r2", "db", &[oid("m2")]),
            Object::atom("m1", "x", 1i64),
            Object::atom("m2", "x", 2i64),
        ])
        .unwrap();
        let dead = collect(&mut s, &[oid("r1"), oid("r2")]);
        assert!(dead.is_empty());
        assert_eq!(collect(&mut s, &[oid("r1")]), vec![oid("m2"), oid("r2")]);
    }

    #[test]
    fn collect_below_keeps_what_still_has_a_way_up() {
        // root → {a, b}; a → {t}; t → {shared, own}; b → {shared};
        // own → {back}; back → {t} (a cycle closed below the top).
        let mut s = Store::new();
        s.create_all([
            Object::set("root", "db", &[oid("a"), oid("b")]),
            Object::set("a", "s", &[oid("t")]),
            Object::set("b", "s", &[oid("shared")]),
            Object::set("t", "s", &[oid("shared"), oid("own")]),
            Object::atom("shared", "v", 1i64),
            Object::set("own", "s", &[oid("back")]),
            Object::set("back", "s", &[oid("t")]),
        ])
        .unwrap();
        // Nothing detached: the top has a parent outside its region.
        assert!(collect_below(&mut s, oid("root"), &[oid("t")]).is_empty());
        s.delete_edge(oid("a"), oid("t")).unwrap();
        let mut oracle = s.clone();
        let dead = collect_below(&mut s, oid("root"), &[oid("t")]);
        assert_eq!(dead, vec![oid("back"), oid("own"), oid("t")]);
        assert_eq!(dead, collect(&mut oracle, &[oid("root")]));
        assert!(s.contains(oid("shared")), "b still points at it");
        s.check_invariants().unwrap();
    }

    #[test]
    fn collect_below_follows_a_cycle_through_the_root() {
        // root → a → t → root: t is detached, but the region below it
        // contains the root, which keeps a alive and not t.
        let mut s = Store::new();
        s.create_all([
            Object::empty_set("root", "db"),
            Object::set("t", "s", &[oid("root")]),
            Object::set("a", "s", &[oid("t")]),
        ])
        .unwrap();
        s.insert_edge(oid("root"), oid("a")).unwrap();
        s.delete_edge(oid("a"), oid("t")).unwrap();
        assert_eq!(
            collect_below(&mut s, oid("root"), &[oid("t")]),
            vec![oid("t")]
        );
        assert!(s.contains(oid("a")) && s.contains(oid("root")));
        s.check_invariants().unwrap();
    }
}
