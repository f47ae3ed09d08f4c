//! Model-based property tests for the storage substrate: `OidSet`
//! against `std::collections::HashSet`, store update/rollback
//! round-trips, and notation/snapshot round-trips over random trees.

use gsdb::{
    gc, notation, path, txn, Object, Oid, OidSet, Path, Snapshot, Store, StoreConfig, Update,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn oid_pool() -> Vec<Oid> {
    (0..12).map(|i| Oid::new(&format!("sp{i}"))).collect()
}

proptest! {
    /// OidSet behaves exactly like a set of OIDs under random
    /// insert/remove/contains sequences.
    #[test]
    fn oidset_matches_hashset_model(ops in prop::collection::vec((0..3u8, 0..12usize), 0..200)) {
        let pool = oid_pool();
        let mut sut = OidSet::new();
        let mut model: HashSet<Oid> = HashSet::new();
        for (kind, idx) in ops {
            let o = pool[idx];
            match kind {
                0 => prop_assert_eq!(sut.insert(o), model.insert(o)),
                1 => prop_assert_eq!(sut.remove(o), model.remove(&o)),
                _ => prop_assert_eq!(sut.contains(o), model.contains(&o)),
            }
            prop_assert_eq!(sut.len(), model.len());
        }
        let mut got = sut.sorted();
        got.sort_by_key(|o| o.name());
        let mut want: Vec<Oid> = model.into_iter().collect();
        want.sort_by_key(|o| o.name());
        prop_assert_eq!(got, want);
    }

    /// Applying a batch and then its inverses restores the exact store
    /// state (for effective updates).
    #[test]
    fn inverses_restore_state(values in prop::collection::vec(0..100i64, 1..8), salt in 0u32..1_000_000) {
        let mut store = Store::with_config(StoreConfig::default());
        let root = Oid::new(&format!("ir{salt}root"));
        store.create(Object::empty_set(root.name(), "r")).unwrap();
        let mut applied = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let a = Oid::new(&format!("ir{salt}a{i}"));
            applied.push(store.apply(Update::Create {
                object: Object::atom(a.name(), "v", *v),
            }).unwrap());
            applied.push(store.apply(Update::Insert { parent: root, child: a }).unwrap());
            applied.push(store.apply(Update::Modify { oid: a, new: gsdb::Atom::Int(v + 1) }).unwrap());
        }
        let dirty = Snapshot::capture(&store);
        // Undo everything in reverse.
        for a in applied.iter().rev() {
            let inv = txn::inverse(&store, a);
            store.apply(inv).unwrap();
        }
        let clean = Snapshot::capture(&store);
        prop_assert_eq!(clean.len(), 1, "only the root remains");
        prop_assert_ne!(dirty, clean);
    }

    /// Random trees round-trip through the paper notation and through
    /// snapshots.
    #[test]
    fn notation_roundtrip_random_trees(shape in prop::collection::vec((any::<u16>(), 0..50i64), 1..20), salt in 0u32..1_000_000) {
        let mut store = Store::new();
        let root = Oid::new(&format!("nr{salt}root"));
        store.create(Object::empty_set(root.name(), "root")).unwrap();
        let mut sets = vec![root];
        for (i, (p, v)) in shape.iter().enumerate() {
            let parent = sets[(*p as usize) % sets.len()];
            if v % 3 == 0 {
                let o = Oid::new(&format!("nr{salt}s{i}"));
                store.create(Object::empty_set(o.name(), "mid")).unwrap();
                store.insert_edge(parent, o).unwrap();
                sets.push(o);
            } else {
                let o = Oid::new(&format!("nr{salt}a{i}"));
                store.create(Object::atom(o.name(), "leaf", *v)).unwrap();
                store.insert_edge(parent, o).unwrap();
            }
        }
        prop_assert!(notation::roundtrips(&store).unwrap());
        let snap = Snapshot::capture(&store);
        let restored = snap.restore(StoreConfig::default()).unwrap();
        prop_assert_eq!(snap, Snapshot::capture(&restored));
    }

    /// OIDs are stable identities under the arena's slot reuse: any
    /// interleaving of creates, attaches/detaches, removes, GC runs,
    /// and snapshot round-trips keeps every surviving OID resolving to
    /// its own value — never to whatever object later reused its slot
    /// — and keeps the internal slab/index invariants intact.
    #[test]
    fn oids_stay_stable_under_interleaved_reuse(
        ops in prop::collection::vec((0..7u8, 0..16usize, 0..100i64), 1..120),
        salt in 0u32..1_000_000,
    ) {
        let mut store = Store::new();
        let root = Oid::new(&format!("os{salt}root"));
        store.create(Object::empty_set(root.name(), "r")).unwrap();

        // The model: every live atom's expected value, plus whether it
        // currently hangs off the root (GC keeps only those).
        let mut values: HashMap<Oid, i64> = HashMap::new();
        let mut attached: Vec<Oid> = Vec::new();
        let mut detached: Vec<Oid> = Vec::new();
        let mut fresh = 0usize;

        for (kind, idx, v) in ops {
            match kind {
                0 => {
                    // Create a new detached atom (reuses freed slots).
                    let o = Oid::new(&format!("os{salt}a{fresh}"));
                    fresh += 1;
                    store.create(Object::atom(o.name(), "leaf", v)).unwrap();
                    values.insert(o, v);
                    detached.push(o);
                }
                1 if !detached.is_empty() => {
                    let o = detached.swap_remove(idx % detached.len());
                    store.insert_edge(root, o).unwrap();
                    attached.push(o);
                }
                2 if !attached.is_empty() => {
                    let o = attached.swap_remove(idx % attached.len());
                    store.delete_edge(root, o).unwrap();
                    detached.push(o);
                }
                3 if !values.is_empty() => {
                    let all: Vec<Oid> = attached.iter().chain(detached.iter()).copied().collect();
                    let o = all[idx % all.len()];
                    store.apply(Update::Modify { oid: o, new: gsdb::Atom::Int(v) }).unwrap();
                    values.insert(o, v);
                }
                4 if !detached.is_empty() => {
                    // Remove an unreferenced object: frees its slot.
                    let o = detached.swap_remove(idx % detached.len());
                    store.apply(Update::Remove { oid: o }).unwrap();
                    values.remove(&o);
                }
                5 => {
                    // GC from the root: exactly the detached atoms go.
                    let collected = gc::collect(&mut store, &[root]);
                    for o in &collected {
                        prop_assert!(detached.contains(o), "GC must only take garbage");
                        values.remove(o);
                    }
                    prop_assert_eq!(collected.len(), detached.len());
                    detached.clear();
                }
                6 => {
                    // Snapshot round-trip: a fresh arena, same OIDs.
                    let snap = Snapshot::capture(&store);
                    store = snap.restore(StoreConfig::default()).unwrap();
                }
                _ => {}
            }
            if let Err(e) = store.check_invariants() {
                panic!("arena invariant broken: {e}");
            }
        }

        // Every surviving OID still resolves to its own value.
        for (o, v) in &values {
            prop_assert_eq!(store.atom(*o), Some(&gsdb::Atom::Int(*v)), "oid {} lost its value", o);
        }
        // And nothing extra survived: live count = model + root.
        prop_assert_eq!(store.len(), values.len() + 1);
    }

    /// The `oids_sorted` cache stays correct under every mutation kind
    /// interleaved with `clone` and `fork` (which copy a *valid* cache
    /// — sound because the cache depends only on the OID set, and
    /// every Create/Remove invalidates it). The cache is deliberately
    /// re-populated before each op, so a mutating path that forgets to
    /// invalidate serves a stale list and fails here.
    #[test]
    fn oids_sorted_survives_mutation_interleavings(
        ops in prop::collection::vec((0..8u8, 0..16usize, 0..100i64), 1..120),
        salt in 0u32..1_000_000,
    ) {
        let mut store = Store::new();
        let root = Oid::new(&format!("sc{salt}root"));
        store.create(Object::empty_set(root.name(), "r")).unwrap();

        let mut model: HashSet<Oid> = HashSet::new();
        model.insert(root);
        let mut fresh = 0usize;

        for (kind, idx, v) in ops {
            // Populate the cache *before* mutating: a missed
            // invalidation now returns this stale list afterwards.
            let _ = store.oids_sorted();
            let pool: Vec<Oid> = {
                let mut p: Vec<Oid> = model.iter().copied().filter(|o| *o != root).collect();
                p.sort_by_key(|o| o.name());
                p
            };
            match kind {
                0 => {
                    let o = Oid::new(&format!("sc{salt}a{fresh}"));
                    fresh += 1;
                    store.create(Object::atom(o.name(), "leaf", v)).unwrap();
                    model.insert(o);
                }
                1 if !pool.is_empty() => {
                    // Remove tolerates dangling parent references, so
                    // any non-root object is removable at any time.
                    let o = pool[idx % pool.len()];
                    store.apply(Update::Remove { oid: o }).unwrap();
                    model.remove(&o);
                }
                2 if !pool.is_empty() => {
                    // Edge churn never changes the OID set.
                    let o = pool[idx % pool.len()];
                    let _ = store.apply(Update::Insert { parent: root, child: o });
                }
                3 if !pool.is_empty() => {
                    let o = pool[idx % pool.len()];
                    let _ = store.apply(Update::Delete { parent: root, child: o });
                }
                4 if !pool.is_empty() => {
                    let o = pool[idx % pool.len()];
                    let _ = store.apply(Update::Modify { oid: o, new: gsdb::Atom::Int(v) });
                }
                5 => {
                    // Replica bookkeeping: the child may even be a
                    // dangling OID — the OID set must not change.
                    let ghost = Oid::new(&format!("sc{salt}ghost{idx}"));
                    store.insert_edge_unchecked(root, ghost).unwrap();
                }
                6 => {
                    // Clone carries the (valid) cache along.
                    store = store.clone();
                }
                7 => {
                    // Fork = the epoch-publish path's COW snapshot.
                    store = store.fork();
                }
                _ => {}
            }
            let mut want: Vec<Oid> = model.iter().copied().collect();
            want.sort_by_key(|o| o.name());
            prop_assert_eq!(store.oids_sorted(), want, "stale or wrong sorted cache");
            if let Err(e) = store.check_invariants() {
                panic!("store invariant broken: {e}");
            }
        }
    }
    /// Local eviction agrees with the whole-store collector. A random
    /// graph in which every object starts reachable from the root —
    /// with shared children, self-loops and cycles, also through the
    /// root — loses a random set of edges, and some of the detached
    /// children are re-inserted under other parents. All garbage then
    /// lies below the deleted edges' children, so `collect_below` on
    /// them must remove exactly what `collect` removes from a clone.
    #[test]
    fn collect_below_matches_mark_and_sweep(
        parents in prop::collection::vec(any::<u16>(), 1..10),
        extra in prop::collection::vec((any::<u16>(), any::<u16>()), 0..12),
        cuts in prop::collection::vec(any::<u16>(), 1..8),
        grafts in prop::collection::vec((any::<u16>(), any::<u16>()), 0..4),
        salt in 0u32..1_000_000,
    ) {
        let n = parents.len() + 1;
        let node = |i: usize| Oid::new(&format!("cb{salt}n{i}"));
        let root = node(0);
        let mut store = Store::new();
        for i in 0..n {
            store.create(Object::empty_set(node(i).name(), "s")).unwrap();
        }
        // A spanning tree first (every object reachable from the
        // root), then arbitrary extra edges: second parents, back
        // edges, self-loops.
        let mut edges: Vec<(Oid, Oid)> = Vec::new();
        for (i, p) in parents.iter().enumerate() {
            edges.push((node(*p as usize % (i + 1)), node(i + 1)));
        }
        for (u, v) in &extra {
            edges.push((node(*u as usize % n), node(*v as usize % n)));
        }
        edges.retain(|&(u, v)| store.insert_edge(u, v).is_ok());

        let mut tops: Vec<Oid> = Vec::new();
        for c in &cuts {
            if edges.is_empty() {
                break;
            }
            let (u, v) = edges.swap_remove(*c as usize % edges.len());
            store.delete_edge(u, v).unwrap();
            tops.push(v);
        }
        for (t, u) in &grafts {
            let _ = store.insert_edge(node(*u as usize % n), tops[*t as usize % tops.len()]);
        }

        let mut oracle = store.clone();
        let swept = gc::collect(&mut oracle, &[root]);
        let evicted = gc::collect_below(&mut store, root, &tops);
        prop_assert_eq!(evicted, swept);
        prop_assert_eq!(Snapshot::capture(&store), Snapshot::capture(&oracle));
        for s in [&store, &oracle] {
            if let Err(e) = s.check_invariants() {
                panic!("store invariant broken: {e}");
            }
        }
    }

    /// The one upward search answers what a brute-force enumeration of
    /// the walks from the root answers. Small random graphs over two
    /// labels with everything a parent index can hold: diamonds,
    /// cycles under the root, through it and off it, self-loops, and
    /// parents the root does not reach.
    #[test]
    fn upward_search_matches_brute_force(
        labels in prop::collection::vec(0..2u8, 2..9),
        edges in prop::collection::vec((any::<u16>(), any::<u16>()), 0..16),
        salt in 0u32..1_000_000,
    ) {
        let n = labels.len();
        let node = |i: usize| Oid::new(&format!("us{salt}n{i}"));
        let mut store = Store::new();
        for (i, l) in labels.iter().enumerate() {
            store.create(Object::empty_set(node(i).name(), ["a", "b"][*l as usize])).unwrap();
        }
        for (u, v) in &edges {
            let _ = store.insert_edge(node(*u as usize % n), node(*v as usize % n));
        }
        let root = node(0);
        for target in (0..n).map(node) {
            // Every simple chain root → target, by walking down.
            let mut chains: Vec<Vec<Oid>> = Vec::new();
            let mut walk = vec![(root, 0)];
            while let Some(&mut (at, ref mut next)) = walk.last_mut() {
                let child = store.children(at).get(*next).copied();
                *next += 1;
                if at == target {
                    chains.push(walk[1..].iter().map(|&(o, _)| o).collect());
                    walk.pop();
                } else if let Some(c) = child {
                    if walk.iter().all(|&(o, _)| o != c) {
                        walk.push((c, 0));
                    }
                } else {
                    walk.pop();
                }
            }
            // Walks of up to 2n edges, counted: a cycle between root
            // and target adds one no longer than that.
            let mut walks = (root == target) as u64;
            let mut ending_at: HashMap<Oid, u64> = HashMap::from([(root, 1)]);
            for _ in 0..2 * n {
                let mut longer: HashMap<Oid, u64> = HashMap::new();
                for (&o, &k) in &ending_at {
                    for &c in store.children(o) {
                        let e = longer.entry(c).or_default();
                        *e = e.saturating_add(k);
                    }
                }
                walks = walks.saturating_add(longer.get(&target).copied().unwrap_or(0));
                ending_at = longer;
            }
            let path_of = |chain: &[Oid]| Path(chain.iter().map(|&o| store.label(o).unwrap()).collect());
            let oids_of = |chain: Vec<(Oid, gsdb::Label)>| chain.into_iter().map(|(o, _)| o).collect::<Vec<_>>();

            let mut want: Vec<Path> = chains.iter().map(|c| path_of(c)).collect();
            want.sort_by_key(|p| p.to_string());
            want.dedup();
            prop_assert_eq!(path::paths_between(&store, root, target, usize::MAX), want);
            prop_assert_eq!(path::ancestor_set(&store, target).contains(&root), !chains.is_empty());

            let first = path::chain_between(&store, root, target);
            prop_assert_eq!(path::path_between(&store, root, target), first.as_ref().map(|c| {
                Path(c.iter().map(|&(_, l)| l).collect())
            }));
            match first {
                Some(c) => prop_assert!(chains.contains(&oids_of(c))),
                None => prop_assert!(chains.is_empty()),
            }
            let only = path::only_chain_between(&store, root, target);
            match walks {
                0 => prop_assert_eq!(only, Ok(None)),
                1 => prop_assert_eq!(only.map(|c| c.map(oids_of)), Ok(Some(chains[0].clone()))),
                _ => prop_assert_eq!(only, Err("multi_path")),
            }
        }
    }
}
