//! Chaos differential properties: the warehouse pipeline must recover
//! from *any* seeded fault scenario.
//!
//! Each case builds a random tree database and a random update stream
//! (the same generator family as `incremental_correctness.rs`), draws
//! a random [`ChaosPolicy`] — report drops, duplicates, delays,
//! reorders, mid-stream L3 → L1 downgrades, query faults — and runs
//! the stream through the chaos harness at **all three report
//! levels**. The harness itself asserts the end state: post-recovery
//! membership equals the fault-free sequential run and the
//! consistency checker is clean. On top of that, these properties pin
//! the mechanism:
//!
//! * every report loss is *detected* (a gap or a tail-loss reconcile),
//!   never silently absorbed;
//! * a view that went `Stale` converges back to `Consistent` within
//!   the resync budget (the harness panics otherwise);
//! * duplicate deliveries are idempotent: dropped by the sequence
//!   tracker before they touch the cache, with no resync needed.
//!
//! Set-up and every heal above compute the view from a level-wise read
//! of its region; the last property pins that read on its own, over
//! the same random trees with second parents added: a view set up from
//! its region is the view recomputed over the source's snapshot.
//!
//! Failures print the proptest-shim replay seed; `GSVIEW_SEED` (set by
//! the CI seeded-faults matrix) offsets every policy seed so each
//! matrix cell explores a disjoint fault universe while staying
//! replayable.

use gsview::gsdb::{graph, Atom, Object, Oid, Store, StoreConfig, Update};
use gsview::obs::fault;
use gsview::query::{CmpOp, Pred};
use gsview::views::{recompute, LocalBase, SimpleViewDef};
use gsview::warehouse::chaos::{assert_recovers, ChaosPolicy, ChaosScenario};
use gsview::warehouse::{ReportLevel, RetryPolicy, Source, ViewOptions, Warehouse};
use proptest::prelude::*;

const LABELS: &[&str] = &["a", "b", "c"];
const LEVELS: [ReportLevel; 3] = [
    ReportLevel::OidsOnly,
    ReportLevel::WithValues,
    ReportLevel::WithPaths,
];

/// The CI seeded-faults matrix sets `GSVIEW_SEED` to give each cell a
/// disjoint but replayable fault universe; locally it defaults to 0.
fn chaos_seed_offset() -> u64 {
    fault::seed().wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Blueprint for a random tree: for each non-root node, its parent
/// index (into earlier nodes), label index, and atom flag/value.
#[derive(Clone, Debug)]
struct TreeSpec {
    nodes: Vec<(usize, usize, bool, i64)>,
}

fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = TreeSpec> {
    prop::collection::vec(
        (any::<u32>(), 0..LABELS.len(), any::<bool>(), 0..100i64),
        3..max_nodes,
    )
    .prop_map(|raw| TreeSpec {
        nodes: raw
            .iter()
            .enumerate()
            .map(|(i, &(p, l, atom, v))| ((p as usize) % (i + 1), l, atom, v))
            .collect(),
    })
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0..3u8, any::<u64>()), 2..max_ops)
}

/// Build the tree into a plain store (the harness makes its own
/// logging copy). Returns (store, root, set OIDs, atom OIDs).
fn build(spec: &TreeSpec) -> (Store, Oid, Vec<Oid>, Vec<Oid>) {
    let mut store = Store::with_config(StoreConfig::default());
    let root = Oid::new("croot");
    store.create(Object::empty_set(root.name(), "root")).unwrap();
    let mut sets = vec![root];
    let mut atoms = Vec::new();
    let mut all = vec![root];
    for (i, &(parent, label, is_atom, v)) in spec.nodes.iter().enumerate() {
        let l = LABELS[label];
        let oid = Oid::new(&format!("cn{i}"));
        if is_atom {
            store.create(Object::atom(oid.name(), l, v)).unwrap();
            atoms.push(oid);
        } else {
            store.create(Object::empty_set(oid.name(), l)).unwrap();
            sets.push(oid);
        }
        let mut p = all[parent];
        if store.get(p).map(|o| !o.is_set()).unwrap_or(true) {
            p = root;
        }
        store.insert_edge(p, oid).unwrap();
        all.push(oid);
    }
    (store, root, sets, atoms)
}

/// Plan one op seed into valid updates against a shadow of the
/// evolving state, so the stream exercises real maintenance instead of
/// being skipped. The shadow advances as the plan is built.
fn plan_stream(
    shadow: &mut Store,
    root: Oid,
    sets: &[Oid],
    atoms: &[Oid],
    ops: &[(u8, u64)],
) -> Vec<Update> {
    let mut stream = Vec::new();
    let mut fresh = 0usize;
    for &(kind, seed) in ops {
        let planned: Vec<Update> = match kind {
            0 if !atoms.is_empty() => {
                let a = atoms[(seed as usize) % atoms.len()];
                vec![Update::Modify {
                    oid: a,
                    new: Atom::Int((seed % 100) as i64),
                }]
            }
            1 => {
                let candidates: Vec<(Oid, Oid)> = sets
                    .iter()
                    .filter_map(|&s| {
                        let kids = shadow.get(s)?.children();
                        if kids.is_empty() {
                            None
                        } else {
                            Some((s, kids[(seed as usize) % kids.len()]))
                        }
                    })
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let (p, c) = candidates[(seed as usize) % candidates.len()];
                vec![Update::Delete { parent: p, child: c }]
            }
            _ => {
                let reachable: Vec<Oid> = graph::reachable(shadow, root)
                    .into_iter()
                    .filter(|&o| shadow.get(o).map(|x| x.is_set()).unwrap_or(false))
                    .collect();
                if reachable.is_empty() {
                    continue;
                }
                let target = reachable[(seed as usize) % reachable.len()];
                let l = LABELS[(seed as usize / 7) % LABELS.len()];
                let oid = Oid::new(&format!("cf{fresh}"));
                fresh += 1;
                vec![
                    Update::Create {
                        object: Object::atom(oid.name(), l, (seed % 100) as i64),
                    },
                    Update::Insert {
                        parent: target,
                        child: oid,
                    },
                ]
            }
        };
        for u in planned {
            if shadow.apply(u.clone()).is_ok() {
                stream.push(u);
            }
        }
    }
    stream
}

/// Give some nodes of a built tree a second parent. Node 0 is the
/// root and node `i + 1` is `cn{i}`; an edge runs from the lower index
/// to the higher, as the tree's own edges do, so the result is a DAG:
/// objects with several root paths, some along the view path and some
/// not.
fn add_second_parents(store: &mut Store, nodes: usize, extra: &[(u32, u32)]) {
    let name = |i: usize| match i {
        0 => Oid::new("croot"),
        i => Oid::new(&format!("cn{}", i - 1)),
    };
    for &(a, b) in extra {
        let (a, b) = (a as usize % (nodes + 1), b as usize % (nodes + 1));
        let (parent, child) = (name(a.min(b)), name(a.max(b)));
        let is_new = store
            .get(parent)
            .is_some_and(|p| p.is_set() && !p.children().contains(&child));
        if parent != child && is_new {
            store.insert_edge(parent, child).unwrap();
        }
    }
}

/// Set `def` up over a source holding `store` and compare it with the
/// view recomputed over the source's snapshot: members, delegate
/// copies, and the price — one read of the region.
fn assert_region_set_up(store: Store, def: &SimpleViewDef, cache: bool) {
    let source = Source::new("region", def.root, store, ReportLevel::WithValues);
    let mut wh = Warehouse::new();
    wh.connect(&source);
    let options = ViewOptions { use_aux_cache: cache, ..ViewOptions::default() };
    let view = wh.add_view("region", def.clone(), options).unwrap();
    assert_eq!(
        wh.meter("region").unwrap().queries(),
        def.full_path().len() as u64 + 1,
        "one Fetch of the root and one Reach per level"
    );
    let snapshot = source.snapshot();
    let expected = recompute::recompute(def, &mut LocalBase::new(&snapshot)).unwrap();
    let got = wh.view(view).unwrap();
    assert_eq!(got.members_base(), expected.members_base(), "{def:?}");
    for b in expected.members_base() {
        let copy = |mv: &gsview::views::MaterializedView| {
            mv.delegate_of(b).and_then(|d| mv.delegate(d)).cloned()
        };
        assert_eq!(copy(got), copy(&expected), "delegate of {b}");
    }
}

/// A view definition over the random tree, picked by seed: single- and
/// two-hop select paths, with and without a condition.
fn view_def(seed: u64) -> SimpleViewDef {
    match seed % 3 {
        0 => SimpleViewDef::new("CV", "croot", "a").with_cond("b", Pred::new(CmpOp::Gt, 50i64)),
        1 => SimpleViewDef::new("CV", "croot", "a.b"),
        _ => SimpleViewDef::new("CV", "croot", "b").with_cond("c", Pred::new(CmpOp::Le, 30i64)),
    }
}

/// Draw a full-spectrum fault model from one seed. Probabilities stay
/// moderate so bounded retries/resyncs converge with overwhelming
/// probability; determinism makes the residual risk replayable.
fn random_policy(seed: u64) -> ChaosPolicy {
    let p = |k: u64, max: f64| (fault::word(seed, k) % 1000) as f64 / 1000.0 * max;
    ChaosPolicy {
        seed,
        drop_prob: p(0, 0.4),
        dup_prob: p(1, 0.3),
        delay_prob: p(2, 0.3),
        reorder_prob: p(3, 0.3),
        downgrade_prob: p(4, 0.5),
        query_fail_prob: p(5, 0.15),
        query_timeout_prob: p(6, 0.1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The headline property: any workload × any fault mix × every
    /// report level recovers to the fault-free run, losses are always
    /// detected, and staleness always converges.
    #[test]
    fn any_fault_mix_recovers_at_every_level(
        spec in tree_strategy(14),
        ops in ops_strategy(10),
        seed in any::<u64>(),
        cache in any::<bool>(),
    ) {
        let (initial, root, sets, atoms) = build(&spec);
        let mut shadow = initial.clone();
        let updates = plan_stream(&mut shadow, root, &sets, &atoms, &ops);
        let def = view_def(seed);
        let policy = random_policy(seed ^ chaos_seed_offset());
        for level in LEVELS {
            let sc = ChaosScenario {
                level,
                policy,
                options: ViewOptions { use_aux_cache: cache, ..ViewOptions::default() },
                poll_every: 1 + (seed as usize % 3),
                ..ChaosScenario::default()
            };
            let report = assert_recovers(&def, &initial, &updates, &sc);
            // Loss is never silent: a dropped report must surface as a
            // detected gap (mid-stream or via checkpoint reconcile).
            if report.monitor_stats.dropped > 0 {
                prop_assert!(
                    report.gaps_detected > 0,
                    "{} reports dropped at {level} but no gap detected ({:?})",
                    report.monitor_stats.dropped,
                    report.monitor_stats
                );
            }
            // And a detected gap always healed through resync: the
            // harness already guarantees no view is left stale, so a
            // gap implies at least one successful resync.
            if report.gaps_detected > 0 {
                prop_assert!(
                    report.resyncs > 0,
                    "gaps detected at {level} but view never resynced"
                );
            }
            prop_assert!(report.resync_rounds <= sc.max_resync_rounds);
        }
    }

    /// Duplicate deliveries are idempotent: with a duplicate-only
    /// fault model the tracker drops every second copy before it
    /// touches the view or cache — no gaps, no staleness, no resync.
    #[test]
    fn duplicates_are_idempotent(
        spec in tree_strategy(14),
        ops in ops_strategy(10),
        seed in any::<u64>(),
    ) {
        let (initial, root, sets, atoms) = build(&spec);
        let mut shadow = initial.clone();
        let updates = plan_stream(&mut shadow, root, &sets, &atoms, &ops);
        let def = view_def(seed);
        let policy = ChaosPolicy {
            dup_prob: 0.6,
            ..ChaosPolicy::seeded(seed ^ chaos_seed_offset())
        };
        for level in LEVELS {
            let sc = ChaosScenario { level, policy, ..ChaosScenario::default() };
            let report = assert_recovers(&def, &initial, &updates, &sc);
            prop_assert_eq!(
                report.duplicates_dropped, report.monitor_stats.duplicated,
                "every duplicate delivery must be dropped by the tracker at {}", level
            );
            prop_assert_eq!(report.gaps_detected, 0);
            prop_assert_eq!(report.resyncs, 0, "duplicates must not force a resync");
        }
    }

    /// Pure report loss at a fixed rate: the view always converges and
    /// retries are never involved (queries are reliable here), which
    /// isolates the seq-tracker + resync path from the retry path.
    #[test]
    fn pure_loss_heals_without_retries(
        spec in tree_strategy(14),
        ops in ops_strategy(10),
        seed in any::<u64>(),
    ) {
        let (initial, root, sets, atoms) = build(&spec);
        let mut shadow = initial.clone();
        let updates = plan_stream(&mut shadow, root, &sets, &atoms, &ops);
        let def = view_def(seed);
        let sc = ChaosScenario {
            policy: ChaosPolicy::lossy(seed ^ chaos_seed_offset(), 0.3),
            retry: RetryPolicy::none(),
            poll_every: 1,
            ..ChaosScenario::default()
        };
        let report = assert_recovers(&def, &initial, &updates, &sc);
        if report.monitor_stats.dropped > 0 {
            prop_assert!(report.gaps_detected > 0);
        }
        prop_assert_eq!(report.dead_letters, 0, "reliable queries must never dead-letter");
        prop_assert_eq!(report.backoff_ms, 0, "no retries means no backoff latency");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Region set-up ≡ recompute over the snapshot, on random trees
    /// with second parents: members reached along several root paths,
    /// and set members whose other children lie outside the region
    /// (they stay in the copy as OIDs the region does not hold).
    #[test]
    fn region_set_up_equals_recompute_over_the_snapshot(
        spec in tree_strategy(14),
        extra in prop::collection::vec((any::<u32>(), any::<u32>()), 0..5),
        seed in any::<u64>(),
        cache in any::<bool>(),
    ) {
        let (mut store, ..) = build(&spec);
        add_second_parents(&mut store, spec.nodes.len(), &extra);
        assert_region_set_up(store, &view_def(seed), cache);
    }
}

/// The paper's own DAG: `P3` is `ROOT.student` and
/// `ROOT.professor.student` at once, and every professor is a set with
/// children off `professor.age`.
#[test]
fn region_set_up_on_the_person_db() {
    let le = |n: i64| Pred::new(CmpOp::Le, n);
    for def in [
        SimpleViewDef::new("RS", "ROOT", "student"),
        SimpleViewDef::new("RPS", "ROOT", "professor.student").with_cond("age", le(25)),
        SimpleViewDef::new("RSA", "ROOT", "student").with_cond("age", le(25)),
        SimpleViewDef::new("RP", "ROOT", "professor"),
        SimpleViewDef::new("RPA", "ROOT", "professor").with_cond("age", le(45)),
    ] {
        for cache in [false, true] {
            let mut store = Store::with_config(StoreConfig::default());
            gsview::gsdb::samples::person_db(&mut store).unwrap();
            assert_region_set_up(store, &def, cache);
        }
    }
}

/// A dead-lettered query is never silent: every push into the DLQ
/// bumps the global `warehouse.dlq.enter` counter (and every drain
/// bumps `warehouse.dlq.leave`), so observability can account for
/// exactly as many entries as the queue reports. Deltas are used
/// because the counters are process-global and tests run in parallel.
#[test]
fn dead_letters_bump_the_global_dlq_counters() {
    use gsview::warehouse::chaos::run_scenario;

    let enter = gsview::obs::registry().counter("warehouse.dlq.enter");
    let leave = gsview::obs::registry().counter("warehouse.dlq.leave");
    let enter0 = enter.get();
    let leave0 = leave.get();

    // Every query attempt fails and there are no retries, so any
    // maintenance query dead-letters immediately. OidsOnly reports
    // force Algorithm 1 to query the source.
    let mut store = Store::with_config(StoreConfig::default());
    store.create(Object::empty_set("croot", "root")).unwrap();
    store.create(Object::empty_set("cn0", "a")).unwrap();
    store.create(Object::atom("cn1", "b", 60i64)).unwrap();
    store.insert_edge(Oid::new("croot"), Oid::new("cn0")).unwrap();
    store.insert_edge(Oid::new("cn0"), Oid::new("cn1")).unwrap();
    let mut shadow = store.clone();
    let updates = plan_stream(
        &mut shadow,
        Oid::new("croot"),
        &[Oid::new("croot"), Oid::new("cn0")],
        &[Oid::new("cn1")],
        &[(0, 1), (2, 2), (1, 3), (2, 4)],
    );
    let sc = ChaosScenario {
        level: ReportLevel::OidsOnly,
        policy: ChaosPolicy {
            query_fail_prob: 1.0,
            ..ChaosPolicy::seeded(7)
        },
        retry: RetryPolicy::none(),
        poll_every: 1,
        max_resync_rounds: 2,
        ..ChaosScenario::default()
    };
    let report = run_scenario(&SimpleViewDef::new("CV", "croot", "a.b"), &store, &updates, &sc)
        .expect("scenario run failed");

    assert!(report.dead_letters > 0, "scenario must produce dead letters");
    let entered = enter.get() - enter0;
    let left = leave.get() - leave0;
    assert!(
        entered >= report.dead_letters as u64,
        "DLQ counter undercounts: {entered} entered vs {} queued",
        report.dead_letters
    );
    assert!(left <= entered, "cannot drain more letters than entered");
}
