//! Model-based property tests for the storage substrate: `OidSet`
//! against `std::collections::HashSet`, notation/snapshot round-trips
//! over random trees, the derived caches (`oids_sorted`, `with_label`)
//! against fresh scans, slot layout under forks and durable-image round
//! trips, a store rebuilt whole from its images against the store, the
//! upward search against brute-force walks, a value replaced in place
//! against the record removed and created again, the parent index
//! against a model across its spills, and every set member's slot hint
//! against a model of the writes that set it.

use gsdb::codec::{decode_chunk, EncodedChunk};
use gsdb::{
    gc, notation, path, Label, Object, Oid, OidSet, Path, ShardImage, ShardedStore, Snapshot,
    Store, StoreConfig, Update, Value,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

fn oid_pool() -> Vec<Oid> {
    (0..12).map(|i| Oid::new(&format!("sp{i}"))).collect()
}

/// The labels `with_label_is_a_fresh_scan_of_the_pages` creates with.
const WL_LABELS: [&str; 3] = ["wl_a", "wl_b", "wl_c"];

/// `store.with_label` equals a fresh scan of its pages (same order:
/// slot order, shard by shard) for every label in [`WL_LABELS`].
/// Asking fills the store's label map if it was empty.
fn assert_with_label_scans(store: &Store, at: &str) {
    for l in WL_LABELS.map(Label::new) {
        let scan: Vec<Oid> = store
            .iter()
            .filter(|o| o.label == l)
            .map(|o| o.oid)
            .collect();
        prop_assert_eq!(
            &store.with_label(l)[..],
            &scan[..],
            "with_label({}) {}",
            l,
            at
        );
    }
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

    /// `with_label` ≡ a fresh scan of the pages wherever a derived
    /// label map could outlive a create or remove, at 1 and 8 shards:
    /// every snapshot `ShardedStore::commit` publishes over random
    /// batches (a commit composes its snapshot from the one before,
    /// whose map was just filled), a clone and a fork after either side
    /// creates or removes, and `from_images` and `reshard` output.
    /// Every store is asked before it changes, so a path that keeps a
    /// map past an invalidation point answers from it and fails here.
    #[test]
    fn with_label_is_a_fresh_scan_of_the_pages(
        batches in prop::collection::vec(
            prop::collection::vec((0..4u8, 0..64usize, 0..3usize), 1..10),
            1..16,
        ),
        eight in any::<bool>(),
        salt in 0u32..1_000_000,
    ) {
        let cfg = StoreConfig::default().with_shards(if eight { 8 } else { 1 });
        let sharded = ShardedStore::new(Store::with_config(cfg));
        let atom = |k: usize, l: usize| Object::atom(format!("wl{salt}_{k}").as_str(), WL_LABELS[l], k as i64);
        let mut live: Vec<Oid> = Vec::new();
        let mut fresh = 0usize;
        for batch in batches {
            let before = sharded.snapshot();
            assert_with_label_scans(&before, "before a commit");
            let mut updates = Vec::new();
            for (kind, idx, l) in batch {
                match kind {
                    2 if !live.is_empty() => {
                        let oid = live.swap_remove(idx % live.len());
                        updates.push(Update::Remove { oid });
                    }
                    3 if !live.is_empty() => {
                        let oid = live[idx % live.len()];
                        updates.push(Update::Modify { oid, new: gsdb::Atom::Int(-1) });
                    }
                    _ => {
                        live.push(atom(fresh, l).oid);
                        updates.push(Update::Create { object: atom(fresh, l) });
                        fresh += 1;
                    }
                }
            }
            let r = sharded.commit(&updates);
            prop_assert!(r.error.is_none(), "{:?}", r.error);
            let snap = sharded.snapshot();
            prop_assert_eq!(snap.len(), live.len());
            assert_with_label_scans(&snap, "on a published snapshot");
            assert_with_label_scans(&before, "on the snapshot before");
        }

        let base = Store::clone(&sharded.snapshot());
        for copy_writes in [false, true] {
            for fork in [false, true] {
                let mut origin = base.clone();
                assert_with_label_scans(&origin, "on a clone of a snapshot");
                let mut copy = if fork { origin.fork() } else { origin.clone() };
                assert_with_label_scans(&copy, "on a copy before a write");
                let writer = if copy_writes { &mut copy } else { &mut origin };
                writer.create(atom(fresh, 1)).unwrap();
                fresh += 1;
                if let Some(&oid) = live.first() {
                    writer.apply(Update::Remove { oid }).unwrap();
                }
                let what = if fork { "fork" } else { "clone" };
                assert_with_label_scans(&origin, &format!("on the origin of a {what}"));
                assert_with_label_scans(&copy, &format!("on a {what}"));
            }
        }

        let back = Store::from_images(cfg, base.export_images(), base.version()).unwrap();
        assert_with_label_scans(&back, "after from_images");
        for n in [1, 8] {
            assert_with_label_scans(&base.reshard(n), &format!("after reshard({n})"));
        }
    }

    /// Slot layout across page and chunk boundaries: a few hundred
    /// creates, removes (freed slots are reused), modifies and edge
    /// updates on a 1–4-shard store, interleaved with forks and with
    /// `export_images` → `from_images` round trips. A round trip keeps
    /// every slot, a store rebuilt from images takes writes like any
    /// other (chunks past a shard's end share one all-free page, which
    /// a write must copy, not change), and every fork still holds the
    /// state it was taken in.
    #[test]
    fn forks_and_image_round_trips_keep_slots_across_page_boundaries(
        ops in prop::collection::vec((0..8u8, 0..512usize, 0..100i64), 1..400),
        shards in 0..3usize,
        salt in 0u32..1_000_000,
    ) {
        let cfg = StoreConfig::default().with_shards(1 << shards);
        let mut store = Store::with_config(cfg);
        let root = Oid::new(&format!("pl{salt}root"));
        store.create(Object::empty_set(root.name(), "r")).unwrap();
        let mut model: HashMap<Oid, i64> = HashMap::new();
        let mut forks: Vec<(Store, HashMap<Oid, i64>)> = Vec::new();
        let mut fresh = 0usize;
        for (kind, idx, v) in ops {
            let mut live: Vec<Oid> = model.keys().copied().collect();
            live.sort_by_key(|o| o.name());
            let pick = live.get(idx % live.len().max(1)).copied();
            match (kind, pick) {
                (0..=2, _) => {
                    let o = Oid::new(&format!("pl{salt}a{fresh}"));
                    fresh += 1;
                    store.create(Object::atom(o.name(), "leaf", v)).unwrap();
                    model.insert(o, v);
                }
                (3, Some(o)) => {
                    let _ = store.apply(Update::Delete { parent: root, child: o });
                    store.apply(Update::Remove { oid: o }).unwrap();
                    model.remove(&o);
                }
                (4, Some(o)) => {
                    store.modify_atom(o, v).unwrap();
                    model.insert(o, v);
                }
                (5, Some(o)) => {
                    let _ = store.insert_edge(root, o);
                }
                (6, _) if forks.len() < 4 => forks.push((store.fork(), model.clone())),
                (7, _) => {
                    let back = Store::from_images(cfg, store.export_images(), store.version())
                        .map_err(|e| format!("round trip refused: {e}"))
                        .unwrap();
                    for o in model.keys() {
                        prop_assert_eq!(back.slot_of(*o), store.slot_of(*o), "slot of {} moved", o);
                    }
                    prop_assert_eq!(back.slot_bound(), store.slot_bound());
                    store = back;
                }
                _ => {}
            }
        }
        if let Err(e) = store.check_invariants() {
            panic!("store invariant broken: {e}");
        }
        forks.push((store, model));
        for (fork, model) in &forks {
            prop_assert_eq!(fork.len(), model.len() + 1);
            for (o, v) in model {
                prop_assert_eq!(fork.atom(*o), Some(&gsdb::Atom::Int(*v)), "{} in a fork", o);
            }
            if let Err(e) = fork.check_invariants() {
                panic!("fork invariant broken: {e}");
            }
        }
    }
    /// A store rebuilt from its images — its tables built whole — is
    /// the store. On 1, 2, 4 and 8 shards, with dangling children (made
    /// by creates and by removes), children shared by parents in other
    /// shards, freed slots, and chunks past a shard's end, the rebuilt
    /// store answers every record and every parent set alike, dangling
    /// children included, has the same `len` and `slot_bound`, holds
    /// its invariants, places its next create where recovery always
    /// has, and re-encodes every chunk to the same bytes.
    #[test]
    fn a_store_rebuilt_from_its_images_is_the_store(
        ops in prop::collection::vec((0..7u8, any::<u16>(), any::<u16>()), 1..160),
        shards in 0..4usize,
        salt in 0u32..1_000_000,
    ) {
        const POOL: u16 = 1024;
        let cfg = StoreConfig::default().with_shards(1 << shards);
        let mut s = Store::with_config(cfg);
        let name = |i: u16| Oid::new(&format!("wb{salt}n{}", i % POOL));
        for (kind, a, b) in ops {
            let (x, y) = (name(a), name(b));
            match kind {
                // A set whose members may not exist (yet).
                0 | 1 => {
                    let kids = [y, name(b / 3), name(b.wrapping_add(1))];
                    let _ = s.create(Object::set(x.name(), "s", &kids));
                }
                // A run of atoms, so shards outgrow one chunk.
                2 => {
                    for i in 0..48 {
                        let _ = s.create(Object::atom(name(a.wrapping_add(i)).name(), "x", i64::from(i)));
                    }
                }
                3 => {
                    let _ = s.insert_edge(x, y);
                }
                4 => {
                    let _ = s.delete_edge(x, y);
                }
                _ => {
                    let _ = s.apply(Update::Remove { oid: x });
                }
            }
        }
        let back = Store::from_images(cfg, s.export_images(), s.version())
            .map_err(|e| format!("round trip refused: {e}"))
            .unwrap();
        prop_assert_eq!(back.len(), s.len());
        prop_assert_eq!(back.slot_bound(), s.slot_bound());
        prop_assert_eq!(back.version(), s.version());
        for o in (0..POOL).map(name) {
            prop_assert_eq!(back.get(o), s.get(o), "record {}", o);
            prop_assert_eq!(back.slot_of(o), s.slot_of(o), "slot of {}", o);
            let parents = |st: &Store| st.parents(o).iter().collect::<Vec<Oid>>();
            prop_assert_eq!(parents(&back), parents(&s), "parents of {}", o);
        }
        if let Err(e) = back.check_invariants() {
            panic!("rebuilt store invariant broken: {e}");
        }
        // Images carry no free list: it comes back in slot order, as
        // recovery has always rebuilt it, so the next create in the
        // home shard takes its highest free slot, else a fresh one.
        let next = Oid::new(&format!("wb{salt}next"));
        let (n, home) = (s.shard_count() as u32, s.shard_of(next) as u32);
        let images = s.export_images();
        let len_slots = images[home as usize].len_slots as u32;
        let fresh = len_slots * n + home;
        let want = (0..len_slots)
            .map(|local| local * n + home)
            .filter(|&g| s.oid_at(g).is_none())
            .max()
            .unwrap_or(fresh);
        let mut back2 = back.clone();
        back2.create(Object::atom(next.name(), "x", 0i64)).unwrap();
        prop_assert_eq!(back2.slot_of(next), Some(want));
        for (a, b) in images.iter().zip(&back.export_images()) {
            prop_assert_eq!(a.len_slots, b.len_slots);
            prop_assert_eq!(a.chunks.len(), b.chunks.len());
            for (ca, cb) in a.chunks.iter().zip(&b.chunks) {
                prop_assert_eq!(EncodedChunk::encode(ca).bytes(), EncodedChunk::encode(cb).bytes());
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
    /// parents the root does not reach. The fold runs a random
    /// four-state automaton over the labels and must end in the states
    /// a walk-by-walk DP ends in.
    #[test]
    fn upward_search_matches_brute_force(
        labels in prop::collection::vec(0..2u8, 2..9),
        edges in prop::collection::vec((any::<u16>(), any::<u16>()), 0..16),
        delta in prop::collection::vec(0..16u8, 8..9),
        salt in 0u32..1_000_000,
    ) {
        let n = labels.len();
        let node = |i: usize| Oid::new(&format!("us{salt}n{i}"));
        let names = ["a", "b"];
        let mut store = Store::new();
        for (i, l) in labels.iter().enumerate() {
            store.create(Object::empty_set(node(i).name(), names[*l as usize])).unwrap();
        }
        for (u, v) in &edges {
            let _ = store.insert_edge(node(*u as usize % n), node(*v as usize % n));
        }
        // The automaton: `delta[2s + l]` is the state set state `s`
        // moves to on label `l`.
        let step = |mask: u8, l: gsdb::Label| {
            let l = names.iter().position(|&x| gsdb::Label::new(x) == l).unwrap();
            (0..4).filter(|s| mask >> s & 1 == 1).fold(0, |m, s| m | delta[2 * s + l])
        };
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
            // The states the walks of each length end in, by length, up
            // to 4n edges: any (object, state) pair a walk reaches, one
            // that short reaches.
            let mut want = if root == target { 1u8 } else { 0 };
            let mut ending_at: HashMap<Oid, u8> = HashMap::from([(root, 1)]);
            for _ in 0..4 * n {
                let mut longer: HashMap<Oid, u8> = HashMap::new();
                for (&o, &mask) in &ending_at {
                    for &c in store.children(o) {
                        let m = step(mask, store.label(c).unwrap());
                        if m != 0 {
                            *longer.entry(c).or_default() |= m;
                        }
                    }
                }
                want |= longer.get(&target).copied().unwrap_or(0);
                ending_at = longer;
            }
            let folded = path::fold_walks(
                &store,
                root,
                target,
                1u8,
                |mask, _, l| Some(step(mask, l)).filter(|&m| m != 0),
                |at, mask| {
                    let grew = mask & !*at != 0;
                    *at |= mask;
                    grew
                },
            );
            prop_assert_eq!(folded, Some(want).filter(|&m| m != 0));

            let oids_of = |chain: Vec<(Oid, gsdb::Label)>| chain.into_iter().map(|(o, _)| o).collect::<Vec<_>>();

            prop_assert_eq!(path::ancestor_set(&store, target).contains(&root), !chains.is_empty());

            let first = path::chain_between(&store, root, target);
            prop_assert_eq!(path::path_between(&store, root, target), first.as_ref().map(|c| {
                Path(c.iter().map(|&(_, l)| l).collect())
            }));
            match first {
                Some(c) => prop_assert!(chains.contains(&oids_of(c))),
                None => prop_assert!(chains.is_empty()),
            }
        }
    }

    /// `Store::replace_value` leaves a store as cutting the record from
    /// its parents, removing it, creating it again with the new value
    /// and re-inserting it does — the route a view's delegate refresh
    /// took before it was done in place — on 1, 2, 4 and 8 shards:
    /// every record (value, label, slot) and every OID's parents, those
    /// of the dangling children the values name included, stay equal
    /// after each step, and both stores keep their invariants. Ten
    /// records exist; six more OIDs are only ever dangling children.
    /// Steps replace a value with a set or an atom, or add an edge so
    /// that the records replaced have parents.
    #[test]
    fn a_value_replaced_in_place_is_the_record_created_again(
        shards in 0..4u32,
        steps in prop::collection::vec((0..3u8, 0..10usize, any::<u16>()), 1..40),
        salt in 0u32..1_000_000,
    ) {
        let pool: Vec<Oid> = (0..16).map(|i| Oid::new(&format!("rv{salt}o{i}"))).collect();
        // The children `bits` names, less `of` itself.
        let kids = |bits: u16, of: Oid| -> Vec<Oid> {
            (0..16)
                .filter(|i| bits >> i & 1 == 1)
                .map(|i| pool[i])
                .filter(|&c| c != of)
                .collect()
        };
        let cfg = StoreConfig::default().with_shards(1 << shards);
        let mut in_place = Store::with_config(cfg);
        for (i, &o) in pool[..10].iter().enumerate() {
            let obj = if i % 3 == 2 {
                Object::atom(o, "rv_atom", i as i64)
            } else {
                Object::set(o, "rv_set", &kids((i as u16).wrapping_mul(0x9e37), o))
            };
            in_place.create(obj).unwrap();
        }
        let mut recreated = in_place.clone();
        for (kind, at, bits) in steps {
            let oid = pool[at];
            if kind == 2 {
                // An edge into one of the records, from another. A
                // record is never its own child: it could not be
                // re-inserted into itself once created again as an atom.
                let parent = pool[bits as usize % 10];
                if parent == oid {
                    continue;
                }
                prop_assert_eq!(
                    in_place.insert_edge_unchecked(parent, oid).is_ok(),
                    recreated.insert_edge_unchecked(parent, oid).is_ok()
                );
                continue;
            }
            let value = if kind == 0 {
                Value::set_of(kids(bits, oid))
            } else {
                Value::Atom(i64::from(bits).into())
            };
            in_place.replace_value(oid, value.clone()).unwrap();
            let label = recreated.label(oid).unwrap();
            let parents: Vec<Oid> = recreated.parents(oid).iter().collect();
            for &p in &parents {
                recreated.delete_edge(p, oid).unwrap();
            }
            recreated.apply(Update::Remove { oid }).unwrap();
            recreated.create(Object { oid, label, value }).unwrap();
            for &p in &parents {
                recreated.insert_edge(p, oid).unwrap();
            }
            prop_assert_eq!(in_place.check_invariants(), Ok(()));
            prop_assert_eq!(recreated.check_invariants(), Ok(()));
            for &o in &pool {
                prop_assert_eq!(in_place.get(o), recreated.get(o), "{}", o.name());
                prop_assert_eq!(in_place.slot_of(o), recreated.slot_of(o), "{}", o.name());
                let parents = |s: &Store| s.parents(o).iter().collect::<Vec<Oid>>();
                prop_assert_eq!(parents(&in_place), parents(&recreated), "{}", o.name());
            }
        }
        prop_assert_eq!(in_place.len(), recreated.len());
    }

    /// The parent index against a model, across every 2↔3 spill and
    /// back, on 1, 2, 4 and 8 shards. Six names are records and two
    /// more are only ever dangling children, so a child has 0–6
    /// parents. Steps create a set record naming random children
    /// (dangling ones included), remove one (the next create in its
    /// shard reuses the slot), insert edges checked and unchecked,
    /// delete edges, and replace a value with a set or an atom. After
    /// every step each name's `parents()` lists, in ascending slot
    /// order, the slots of exactly the records whose value names it,
    /// the invariants hold, and a store rebuilt from its images
    /// answers every name alike.
    #[test]
    fn parents_match_a_model_across_spills(
        shards in 0..4u32,
        steps in prop::collection::vec((0..8u8, 0..6usize, any::<u8>()), 1..80),
        salt in 0u32..1_000_000,
    ) {
        let pool: Vec<Oid> = (0..8).map(|i| Oid::new(&format!("pm{salt}o{i}"))).collect();
        let named = |bits: u8| -> BTreeSet<Oid> {
            (0..8).filter(|i| bits >> i & 1 == 1).map(|i| pool[i]).collect()
        };
        let cfg = StoreConfig::default().with_shards(1 << shards);
        let mut s = Store::with_config(cfg);
        // Record → the children its value names (`None`: an atom).
        let mut model: BTreeMap<Oid, Option<BTreeSet<Oid>>> = BTreeMap::new();
        for (kind, at, bits) in steps {
            let (x, y) = (pool[at], pool[bits as usize % 8]);
            let set_of_x = model.get(&x).cloned().flatten();
            match kind {
                0 | 1 => {
                    let kids = named(bits);
                    let list: Vec<Oid> = kids.iter().copied().collect();
                    prop_assert_eq!(s.create(Object::set(x, "pm", &list)).is_ok(), !model.contains_key(&x));
                    model.entry(x).or_insert(Some(kids));
                }
                2 => {
                    prop_assert_eq!(s.apply(Update::Remove { oid: x }).is_ok(), model.remove(&x).is_some());
                }
                // Checked: `y` must be a record and not yet a child.
                // Unchecked: `y` may dangle, and a repeat is a no-op.
                3 | 4 => {
                    let (ok, want) = if kind == 3 {
                        let fresh = set_of_x.is_some_and(|set| !set.contains(&y));
                        (s.insert_edge(x, y).is_ok(), fresh && model.contains_key(&y))
                    } else {
                        (s.insert_edge_unchecked(x, y).is_ok(), set_of_x.is_some())
                    };
                    prop_assert_eq!(ok, want);
                    if let (true, Some(Some(set))) = (ok, model.get_mut(&x)) {
                        set.insert(y);
                    }
                }
                5 => {
                    let there = set_of_x.is_some_and(|set| set.contains(&y));
                    prop_assert_eq!(s.delete_edge(x, y).is_ok(), there);
                    if let Some(Some(set)) = model.get_mut(&x) {
                        set.remove(&y);
                    }
                }
                _ => {
                    let kids = (kind == 6).then(|| named(bits));
                    let value = match &kids {
                        Some(kids) => Value::set_of(kids.iter().copied()),
                        None => Value::Atom(i64::from(bits).into()),
                    };
                    prop_assert_eq!(s.replace_value(x, value).is_ok(), model.contains_key(&x));
                    if let Some(v) = model.get_mut(&x) {
                        *v = kids;
                    }
                }
            }
            prop_assert_eq!(s.check_invariants(), Ok(()));
            let back = Store::from_images(cfg, s.export_images(), s.version()).unwrap();
            prop_assert_eq!(back.check_invariants(), Ok(()));
            let slots = |st: &Store, c: Oid| -> Vec<u32> {
                st.parents(c).iter().map(|p| st.slot_of(p).unwrap()).collect()
            };
            for &c in &pool {
                let want: BTreeSet<u32> = (model.iter())
                    .filter(|(_, kids)| kids.as_ref().is_some_and(|k| k.contains(&c)))
                    .map(|(&p, _)| s.slot_of(p).unwrap())
                    .collect();
                let want: Vec<u32> = want.into_iter().collect();
                prop_assert_eq!(&slots(&s, c), &want, "parents of {}", c.name());
                prop_assert_eq!(&slots(&back, c), &want, "rebuilt parents of {}", c.name());
            }
        }
    }

    /// Slot hints against a model of the writes that set them, on 1,
    /// 2, 4 and 8 shards. Steps create sets (naming children with and
    /// without records, themselves too) and atoms, remove records (the
    /// next create in a shard reuses the slot, and a removed OID may be
    /// created again at another), insert edges checked and unchecked,
    /// delete them, replace values with sets or atoms, and rebuild the
    /// store from its images, from its records or at another shard
    /// count. A write hints each member it adds with the member's slot
    /// then, `u32::MAX` if it had no record; a rebuild hints every
    /// member that has a record, on the pages it holds alone (records,
    /// a reshard, decoded chunks), and leaves a page it shares with the
    /// store it was exported from as it is. After every step each
    /// member's hint is the model's, and names the member's slot or
    /// fails the check a walk makes, and the invariants hold.
    #[test]
    fn hints_name_their_members_slots_or_fail_the_check(
        shards in 0..4u32,
        steps in prop::collection::vec((0..11u8, 0..24usize, any::<u16>()), 1..160),
        salt in 0u32..1_000_000,
    ) {
        const NONE: u32 = u32::MAX;
        let pool: Vec<Oid> = (0..24).map(|i| Oid::new(&format!("hs{salt}o{i}"))).collect();
        let kids = |bits: u16| -> Vec<Oid> {
            let mut v: Vec<Oid> = (0..4).map(|k| pool[usize::from(bits >> (4 * k) & 15) + 8]).collect();
            v.dedup();
            v
        };
        let mut s = Store::with_config(StoreConfig::default().with_shards(1 << shards));
        // (parent, member) → the hint the member's last write left.
        let mut model: BTreeMap<(Oid, Oid), u32> = BTreeMap::new();
        let hint_now = |s: &Store, c: Oid| s.slot_of(c).unwrap_or(NONE);
        for (kind, at, bits) in steps {
            let (x, y) = (pool[at], pool[usize::from(bits) % 24]);
            match kind {
                0 | 1 => {
                    let mut list = kids(bits);
                    if kind == 1 {
                        list.push(x);
                    }
                    let list: Vec<Oid> = list.iter().copied().collect::<OidSet>().iter().collect();
                    if s.create(Object::set(x, "hs", &list)).is_ok() {
                        for &c in &list {
                            model.insert((x, c), hint_now(&s, c));
                        }
                    }
                }
                2 => {
                    let _ = s.create(Object::atom(x, "hs", i64::from(bits)));
                }
                3 => {
                    if s.apply(Update::Remove { oid: x }).is_ok() {
                        model.retain(|&(p, _), _| p != x);
                    }
                }
                4 => {
                    if s.insert_edge(x, y).is_ok() {
                        model.insert((x, y), hint_now(&s, y));
                    }
                }
                5 => {
                    let fresh = !model.contains_key(&(x, y));
                    if s.insert_edge_unchecked(x, y).is_ok() && fresh {
                        model.insert((x, y), hint_now(&s, y));
                    }
                }
                6 => {
                    if s.delete_edge(x, y).is_ok() {
                        model.remove(&(x, y));
                    }
                }
                7 | 8 => {
                    let list = kids(bits);
                    let value = if kind == 7 {
                        Value::set_of(list.iter().copied())
                    } else {
                        Value::Atom(i64::from(bits).into())
                    };
                    if s.replace_value(x, value).is_ok() {
                        model.retain(|&(p, _), _| p != x);
                        if kind == 7 {
                            for &c in &list {
                                model.insert((x, c), hint_now(&s, c));
                            }
                        }
                    }
                }
                _ => {
                    let cfg = StoreConfig::default().with_shards(s.shard_count());
                    // Images keep every slot. Exported ones share their
                    // pages with the store, so they keep its hints;
                    // decoded ones hold no hints until the build writes
                    // them.
                    let decoded = || -> Vec<ShardImage> {
                        (s.export_images().into_iter())
                            .map(|img| ShardImage {
                                len_slots: img.len_slots,
                                chunks: (img.chunks.iter())
                                    .map(|c| decode_chunk(EncodedChunk::encode(c).bytes()).unwrap())
                                    .collect(),
                            })
                            .collect()
                    };
                    let back = match (kind, bits % 3) {
                        (9, 0) => Store::from_images(cfg, s.export_images(), s.version()).unwrap(),
                        (9, _) => Store::from_images(cfg, decoded(), s.version()).unwrap(),
                        (_, 0) => Store::from_records(s.iter().cloned().collect(), s.version()).unwrap(),
                        (_, n) => s.reshard(1 << (2 * n)),
                    };
                    let shared = (kind, bits % 3) == (9, 0);
                    for (&(_, c), hint) in model.iter_mut() {
                        match back.slot_of(c) {
                            _ if shared => {}
                            Some(slot) => *hint = slot,
                            None if kind == 9 => *hint = NONE,
                            None => {}
                        }
                    }
                    s = back;
                }
            }
            prop_assert_eq!(s.check_invariants(), Ok(()));
            let mut members = 0;
            for p in s.oids_sorted() {
                for (c, hint) in s.children_at(s.slot_of(p).unwrap()) {
                    members += 1;
                    prop_assert_eq!(Some(&hint), model.get(&(p, c)), "{} in {}", c.name(), p.name());
                    prop_assert!(
                        Some(hint) == s.slot_of(c) || s.oid_at(hint) != Some(c),
                        "{} in {} hinted at {} passes the check",
                        c.name(),
                        p.name(),
                        hint
                    );
                }
            }
            prop_assert_eq!(members, model.len());
        }
    }
}
