//! Shard-consistency battery for the sharded COW slab: random
//! mutation interleavings at shard counts 1/2/4/8 keep every
//! per-shard arena invariant and the global ones (no OID mapped in
//! two shards, free-list disjointness across shards, parent/label
//! index agreement with slot contents) intact, and the shard count is
//! observationally invisible — the same workload at N=1 and N=8
//! yields identical `oids_sorted` and query results.

use gsdb::{Label, Object, Oid, Store, StoreConfig, Update};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn store_at(shards: usize) -> Store {
    Store::with_config(StoreConfig::default().with_shards(shards))
}

/// Realize one raw op tuple into a concrete update against the
/// current object pools. Returns `None` when the op kind has no
/// eligible target yet. The realization depends only on the pools —
/// which evolve identically across stores fed the same sequence — so
/// every store under test sees byte-identical updates.
fn realize(
    (kind, a, b, v): (u8, usize, usize, i64),
    salt: u32,
    fresh: &mut usize,
    sets: &[Oid],
    atoms: &[Oid],
) -> Option<(Update, Option<Object>)> {
    let all = |i: usize| -> Option<Oid> {
        let n = sets.len() + atoms.len();
        if n == 0 {
            return None;
        }
        let i = i % n;
        Some(if i < sets.len() {
            sets[i]
        } else {
            atoms[i - sets.len()]
        })
    };
    match kind {
        0 => {
            // Create a detached atom (exercises free-slot reuse).
            let o = Oid::new(&format!("si{salt}a{fresh}"));
            *fresh += 1;
            let obj = Object::atom(o.name(), "leaf", v);
            Some((
                Update::Create {
                    object: obj.clone(),
                },
                Some(obj),
            ))
        }
        1 => {
            // Create a detached set (future edge parent).
            let o = Oid::new(&format!("si{salt}s{fresh}"));
            *fresh += 1;
            let obj = Object::empty_set(o.name(), "mid");
            Some((
                Update::Create {
                    object: obj.clone(),
                },
                Some(obj),
            ))
        }
        2 => {
            // Insert an edge set -> anything (may fail: duplicate
            // edge, self edge — fails identically everywhere).
            let parent = *sets.get(a % sets.len().max(1))?;
            let child = all(b)?;
            Some((Update::Insert { parent, child }, None))
        }
        3 => {
            let parent = *sets.get(a % sets.len().max(1))?;
            let child = all(b)?;
            Some((Update::Delete { parent, child }, None))
        }
        4 => {
            let oid = all(a)?;
            Some((
                Update::Modify {
                    oid,
                    new: gsdb::Atom::Int(v),
                },
                None,
            ))
        }
        _ => {
            // Remove any object; the arena tolerates dangling parent
            // references, so every target is legal at any time.
            let oid = all(a)?;
            Some((Update::Remove { oid }, None))
        }
    }
}

/// Every externally observable query a store answers, collected into
/// one comparable value. Sorted where the API's order is an
/// implementation detail of the shard layout (`parents`, `with_label`,
/// `iter`), order-preserving where it is contractual (`children`,
/// `oids_sorted`).
#[derive(Debug, PartialEq)]
struct Observation {
    oids: Vec<Oid>,
    objects: BTreeMap<String, (String, Option<gsdb::Atom>, Vec<Oid>)>,
    parents: BTreeMap<String, Vec<String>>,
    labels: BTreeMap<String, Vec<String>>,
}

fn observe(store: &Store) -> Observation {
    let oids = store.oids_sorted();
    let mut objects = BTreeMap::new();
    let mut parents = BTreeMap::new();
    for &o in &oids {
        let obj = store.get(o).expect("listed OID resolves");
        objects.insert(
            o.name().to_string(),
            (
                obj.label.as_str().to_string(),
                obj.atom_value().cloned(),
                obj.children().to_vec(),
            ),
        );
        let mut ps: Vec<String> = store
            .parents(o)
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        ps.sort();
        parents.insert(o.name().to_string(), ps);
    }
    let mut labels = BTreeMap::new();
    for l in ["leaf", "mid", "r"] {
        let mut members: Vec<String> = store
            .with_label(Label::new(l))
            .iter()
            .map(|o| o.name().to_string())
            .collect();
        members.sort();
        labels.insert(l.to_string(), members);
    }
    Observation {
        oids,
        objects,
        parents,
        labels,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The tentpole property: one random mutation interleaving driven
    /// through four stores differing only in shard count. After every
    /// op each store passes `check_shard_invariants` for each shard
    /// plus the global `check_invariants`, all stores agree on the
    /// op's outcome, and at the end the full observable state (OID
    /// list, object contents, parents, label queries) is identical —
    /// shard count is invisible.
    #[test]
    fn shard_count_is_observationally_invisible(
        ops in prop::collection::vec((0..6u8, 0..32usize, 0..32usize, 0..100i64), 1..100),
        salt in 0u32..1_000_000,
    ) {
        let mut stores: Vec<Store> = SHARD_COUNTS.iter().map(|&n| store_at(n)).collect();
        let root = Oid::new(&format!("si{salt}root"));
        for s in &mut stores {
            s.create(Object::empty_set(root.name(), "r")).unwrap();
        }
        let mut sets = vec![root];
        let mut atoms: Vec<Oid> = Vec::new();
        let mut fresh = 0usize;

        for raw in ops {
            let Some((update, created)) = realize(raw, salt, &mut fresh, &sets, &atoms)
            else { continue };
            let outcomes: Vec<bool> = stores
                .iter_mut()
                .map(|s| s.apply(update.clone()).is_ok())
                .collect();
            prop_assert!(
                outcomes.iter().all(|&ok| ok == outcomes[0]),
                "stores disagree on {update:?}: {outcomes:?}"
            );
            if outcomes[0] {
                // Keep the pools in sync with what actually happened.
                match (&update, created) {
                    (Update::Create { .. }, Some(obj)) => {
                        if obj.is_set() {
                            sets.push(obj.oid);
                        } else {
                            atoms.push(obj.oid);
                        }
                    }
                    (Update::Remove { oid }, _) => {
                        sets.retain(|o| o != oid);
                        atoms.retain(|o| o != oid);
                    }
                    _ => {}
                }
            }
            for (s, &n) in stores.iter().zip(&SHARD_COUNTS) {
                for i in 0..s.shard_count() {
                    if let Err(e) = s.check_shard_invariants(i) {
                        panic!("shard invariant broken at N={n}: {e}");
                    }
                }
                if let Err(e) = s.check_invariants() {
                    panic!("global invariant broken at N={n}: {e}");
                }
            }
        }

        let base = observe(&stores[0]);
        for (s, &n) in stores.iter().zip(&SHARD_COUNTS).skip(1) {
            prop_assert_eq!(&observe(s), &base, "N={} diverged from N=1", n);
        }
    }

    /// Global placement facts, stated externally: the per-shard object
    /// counts sum to `len()`, every OID's slot carries exactly its
    /// home shard's interleave bits (so no OID can be mapped in two
    /// shards and free lists are disjoint by construction), and
    /// resharding to any other count preserves the observable state
    /// and all invariants — including dangling parent-index entries
    /// left by Remove.
    #[test]
    fn placement_is_total_and_reshard_preserves_state(
        ops in prop::collection::vec((0..6u8, 0..32usize, 0..32usize, 0..100i64), 1..60),
        from in 0..4usize,
        to in 0..4usize,
        salt in 0u32..1_000_000,
    ) {
        let mut store = store_at(SHARD_COUNTS[from]);
        let root = Oid::new(&format!("si{salt}root"));
        store.create(Object::empty_set(root.name(), "r")).unwrap();
        let mut sets = vec![root];
        let mut atoms: Vec<Oid> = Vec::new();
        let mut fresh = 0usize;
        for raw in ops {
            let Some((update, created)) = realize(raw, salt, &mut fresh, &sets, &atoms)
            else { continue };
            if store.apply(update.clone()).is_ok() {
                match (&update, created) {
                    (Update::Create { .. }, Some(obj)) => {
                        if obj.is_set() { sets.push(obj.oid) } else { atoms.push(obj.oid) }
                    }
                    (Update::Remove { oid }, _) => {
                        sets.retain(|o| o != oid);
                        atoms.retain(|o| o != oid);
                    }
                    _ => {}
                }
            }
        }

        let mask = (store.shard_count() - 1) as u32;
        let sizes = store.shard_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), store.len());
        for o in store.oids_sorted() {
            let slot = store.slot_of(o).expect("listed OID has a slot");
            prop_assert_eq!(
                (slot & mask) as usize,
                store.shard_of(o),
                "slot of {} carries foreign shard bits", o.name()
            );
        }

        let before = observe(&store);
        let resharded = store.reshard(SHARD_COUNTS[to]);
        prop_assert_eq!(resharded.shard_count(), SHARD_COUNTS[to]);
        if let Err(e) = resharded.check_invariants() {
            panic!("invariants broken after reshard {}->{}: {e}",
                   SHARD_COUNTS[from], SHARD_COUNTS[to]);
        }
        prop_assert_eq!(&observe(&resharded), &before, "reshard changed observable state");
    }

    /// COW isolation across shard counts: forking a sharded store and
    /// mutating both sides never lets either side observe the other's
    /// writes, and both sides keep all invariants.
    #[test]
    fn forks_stay_isolated_at_every_shard_count(
        n in 0..4usize,
        vals in prop::collection::vec(0..100i64, 1..20),
        salt in 0u32..1_000_000,
    ) {
        let mut store = store_at(SHARD_COUNTS[n]);
        let root = Oid::new(&format!("fi{salt}root"));
        store.create(Object::empty_set(root.name(), "r")).unwrap();
        for (i, v) in vals.iter().enumerate() {
            let o = Oid::new(&format!("fi{salt}a{i}"));
            store.create(Object::atom(o.name(), "leaf", *v)).unwrap();
            store.insert_edge(root, o).unwrap();
        }
        let frozen = store.fork();
        let before = observe(&frozen);
        // Mutate the live side hard: modify everything, remove half.
        for (i, _) in vals.iter().enumerate() {
            let o = Oid::new(&format!("fi{salt}a{i}"));
            store.apply(Update::Modify { oid: o, new: gsdb::Atom::Int(-1) }).unwrap();
            if i % 2 == 0 {
                store.apply(Update::Remove { oid: o }).unwrap();
            }
        }
        prop_assert_eq!(&observe(&frozen), &before, "fork saw live-side writes");
        if let Err(e) = frozen.check_invariants() {
            panic!("frozen fork invariants broken: {e}");
        }
        if let Err(e) = store.check_invariants() {
            panic!("live side invariants broken: {e}");
        }
    }
}
