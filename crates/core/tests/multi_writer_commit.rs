//! Multi-writer commit battery for the sharded commit pipeline: 2–8
//! racing writer threads commit through one `ShardedStore` at shard
//! counts 1/2/4/8, over both *disjoint* shard sets (each writer's
//! targets home to its own shard) and *overlapping* ones (all writers
//! contend for the same objects). Every published epoch must
//! correspond to a legal serialization point — the epoch-ordered
//! replay equals the pipeline's final state, and all four maintenance
//! routes (sequential, batched, recompute, parallel) agree on the
//! serialized run. A cross-shard torn-write detector plants marker
//! pairs spanning two shards and asserts no reader ever observes half
//! a commit. A seeded-schedule stress test (`GSVIEW_SEED`) drives the
//! same oracles through reproducible random schedules for the CI
//! seeded-faults job.

use gsdb::{Object, Oid, Store, StoreConfig, Update};
use gsview_core::{
    assert_cross_shard_isolated, check_cross_shard_isolation, check_sharded_commit_equivalence,
    SimpleViewDef,
};
use gsview_obs::fault::{self, Stream};
use gsview_query::{CmpOp, Pred};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

fn view_defs() -> Vec<SimpleViewDef> {
    vec![
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64)),
        SimpleViewDef::new("ST", "ROOT", "professor.student"),
    ]
}

/// A professor/student base at the given shard count, plus one pool
/// of age atoms per writer whose OIDs all home to the writer's own
/// shard (`w % shards`) — the "disjoint shard sets" regime. Names are
/// searched until the Fibonacci placement hash lands each atom on the
/// wanted shard.
fn disjoint_base(shards: usize, writers: usize, per_writer: usize) -> (Store, Vec<Vec<Oid>>) {
    let mut store = Store::with_config(StoreConfig::default().with_shards(shards));
    store.create(Object::empty_set("ROOT", "db")).unwrap();
    for p in 0..writers.min(3) {
        let prof = format!("P{p}");
        store
            .create(Object::empty_set(prof.as_str(), "professor"))
            .unwrap();
        store.insert_edge(oid("ROOT"), oid(&prof)).unwrap();
    }
    let mut pools = Vec::new();
    let mut probe = 0usize;
    for w in 0..writers {
        let want = w % store.shard_count();
        let mut pool = Vec::new();
        while pool.len() < per_writer {
            let name = format!("w{w}k{probe}");
            probe += 1;
            let o = oid(&name);
            if store.shard_of(o) != want {
                continue;
            }
            store.create(Object::atom(name.as_str(), "age", 50i64)).unwrap();
            store
                .insert_edge(oid(&format!("P{}", w % writers.min(3))), o)
                .unwrap();
            pool.push(o);
        }
        pools.push(pool);
    }
    (store, pools)
}

/// A small shared professor/student base every writer contends on,
/// plus detached spare students `X{p}{j}` (each attachable under
/// exactly one professor, so racing edge flaps keep the base a
/// forest) and never-attached spare atoms `D{j}` for create/remove
/// races.
fn shared_base(shards: usize) -> (Store, Vec<Oid>) {
    let mut store = Store::with_config(StoreConfig::default().with_shards(shards));
    store.create(Object::empty_set("ROOT", "db")).unwrap();
    let mut atoms = Vec::new();
    for p in 0..3 {
        let prof = format!("P{p}");
        store
            .create(Object::empty_set(prof.as_str(), "professor"))
            .unwrap();
        store.insert_edge(oid("ROOT"), oid(&prof)).unwrap();
        let a = format!("P{p}a");
        store.create(Object::atom(a.as_str(), "age", 50i64)).unwrap();
        store.insert_edge(oid(&prof), oid(&a)).unwrap();
        atoms.push(oid(&a));
        for t in 0..2 {
            let stud = format!("P{p}S{t}");
            store
                .create(Object::empty_set(stud.as_str(), "student"))
                .unwrap();
            store.insert_edge(oid(&prof), oid(&stud)).unwrap();
            let sa = format!("P{p}S{t}a");
            store.create(Object::atom(sa.as_str(), "age", 20i64)).unwrap();
            store.insert_edge(oid(&stud), oid(&sa)).unwrap();
            atoms.push(oid(&sa));
        }
        for j in 0..2 {
            let x = format!("X{p}{j}");
            store
                .create(Object::empty_set(x.as_str(), "student"))
                .unwrap();
        }
    }
    (store, atoms)
}

/// Realize one writer's raw tuples into a contended update run over
/// the shared base: atom churn, view-relevant edge flapping on the
/// exclusive spare students, and create/remove races on detached
/// spares. Many updates will be rejected at commit time (the race
/// decides which — duplicate inserts, deletes of absent edges, double
/// creates); the oracle only serializes the survivors. The generator
/// never removes an attached object and never re-creates an OID that
/// could have dangling parents, so the serialized run stays within
/// the forest semantics Algorithm 1 maintains.
fn contended_run(raw: &[(u8, usize, usize, i64)], atoms: &[Oid]) -> Vec<Update> {
    let mut out = Vec::new();
    for &(kind, a, b, v) in raw {
        match kind % 5 {
            0 | 1 => out.push(Update::Modify {
                oid: atoms[a % atoms.len()],
                new: gsdb::Atom::Int(v),
            }),
            2 => out.push(Update::Insert {
                parent: oid(&format!("P{}", a % 3)),
                child: oid(&format!("X{}{}", a % 3, b % 2)),
            }),
            3 => out.push(Update::Delete {
                parent: oid(&format!("P{}", a % 3)),
                child: oid(&format!("X{}{}", a % 3, b % 2)),
            }),
            _ => {
                // Create/remove a never-attached spare: two writers
                // creating the same OID race, one loses and is
                // skipped; remove races symmetrically.
                let name = format!("D{}", b % 4);
                if v % 2 == 0 {
                    out.push(Update::Create {
                        object: Object::atom(name.as_str(), "spare", v),
                    });
                } else {
                    out.push(Update::Remove { oid: oid(&name) });
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Disjoint regime: every writer modifies only atoms homed to its
    /// own shard, so commits are single-shard and contention is pure
    /// pipeline overhead. Every update is feasible, so every one of
    /// them must publish an epoch, and the epoch-ordered serialization
    /// must satisfy all four maintenance routes.
    #[test]
    fn disjoint_writers_all_commit_and_serialize(
        n in 0..4usize,
        writers in 2..6usize,
        vals in prop::collection::vec(0..100i64, 4..16),
    ) {
        let shards = SHARD_COUNTS[n];
        let per_writer_targets = 2usize;
        let (store, pools) = disjoint_base(shards, writers, per_writer_targets);
        let runs: Vec<Vec<Update>> = pools
            .iter()
            .map(|pool| {
                vals.iter()
                    .enumerate()
                    .map(|(i, v)| Update::Modify {
                        oid: pool[i % pool.len()],
                        new: gsdb::Atom::Int(*v),
                    })
                    .collect()
            })
            .collect();
        let total = (writers * vals.len()) as u64;
        let v = check_sharded_commit_equivalence(&view_defs(), &store, &runs, shards, 2).unwrap();
        prop_assert!(v.ok(), "shards={}: {:?} {:?}", shards, v.failures, v.verdicts);
        prop_assert_eq!(v.epochs, total, "every disjoint modify must commit");
        prop_assert_eq!(v.serialized.len(), total as usize);
    }

    /// Overlapping regime: all writers draw from one shared pool, so
    /// commits contend on the same shards and some updates are
    /// legitimately rejected by the race outcome. Whatever survives
    /// must still form a legal serialization — replay equals the
    /// pipeline state and all maintenance routes agree.
    #[test]
    fn contended_writers_still_serialize(
        n in 0..4usize,
        raws in prop::collection::vec(
            prop::collection::vec((0..10u8, 0..16usize, 0..16usize, 0..100i64), 2..10),
            2..5,
        ),
    ) {
        let shards = SHARD_COUNTS[n];
        let (store, atoms) = shared_base(shards);
        let runs: Vec<Vec<Update>> = raws.iter().map(|r| contended_run(r, &atoms)).collect();
        let v = check_sharded_commit_equivalence(&view_defs(), &store, &runs, shards, 2).unwrap();
        prop_assert!(v.ok(), "shards={}: {:?} {:?}", shards, v.failures, v.verdicts);
        prop_assert_eq!(v.epochs as usize, v.serialized.len());
    }

    /// Cross-shard torn-write detector: marker pairs spanning two
    /// shards are committed atomically by racing writers while readers
    /// probe; no snapshot may ever show half a pair.
    #[test]
    fn cross_shard_marker_pairs_never_tear(
        n in 0..4usize,
        writers in 2..4usize,
        batches in 3..12usize,
    ) {
        let shards = SHARD_COUNTS[n];
        let store = Store::with_config(StoreConfig::default().with_shards(shards));
        let report = check_cross_shard_isolation(&store, writers, batches, 2, 6).unwrap();
        prop_assert!(report.ok(), "shards={}: {:?}", shards, report.violations);
        prop_assert_eq!(report.epochs_published, (writers * batches) as u64);
        prop_assert!(report.marker_pairs_checked >= 2 * 6 * writers);
        if shards > 1 {
            prop_assert_eq!(report.cross_shard_pairs, writers,
                "every planted pair must straddle two shards");
        }
    }
}

/// Seeded-schedule stress for the two-phase publish path: several
/// rounds of racing writers at every shard count, with writer count,
/// run shapes, and contention mix all drawn from the one fault
/// schedule. CI runs this with a matrix of seeds (`GSVIEW_SEED`);
/// locally the default seed keeps it deterministic.
/// `GSVIEW_STRESS_ROUNDS` scales the workload up for soak runs.
#[test]
fn seeded_schedule_stress_two_phase_publish() {
    let seed = fault::seed();
    let rounds = std::env::var("GSVIEW_STRESS_ROUNDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(2);
    let schedule = Stream::new(seed, "stress");
    let below = |n: usize| schedule.draw().below(n as u64) as usize;

    for round in 0..rounds {
        for &shards in &SHARD_COUNTS {
            // Commit-equivalence leg: 2–8 writers, mixed contention.
            let writers = 2 + below(7);
            let (store, atoms) = shared_base(shards);
            let runs: Vec<Vec<Update>> = (0..writers)
                .map(|_| {
                    let raw: Vec<(u8, usize, usize, i64)> = (0..3 + below(8))
                        .map(|_| {
                            (
                                below(10) as u8,
                                below(16),
                                below(16),
                                below(100) as i64,
                            )
                        })
                        .collect();
                    contended_run(&raw, &atoms)
                })
                .collect();
            let v = check_sharded_commit_equivalence(&view_defs(), &store, &runs, shards, 2)
                .unwrap();
            assert!(
                v.ok(),
                "seed={seed} round={round} shards={shards} writers={writers}: \
                 {:?} {:?}",
                v.failures,
                v.verdicts
            );
            assert_eq!(v.epochs as usize, v.serialized.len());

            // Torn-write leg: marker pairs under the same seed.
            let w = 2 + below(3);
            let fresh = Store::with_config(StoreConfig::default().with_shards(shards));
            assert_cross_shard_isolated(&fresh, w, 8 + below(12), 2, 8);
        }
    }
}
