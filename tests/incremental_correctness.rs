//! Property-based correctness of the maintenance algorithms.
//!
//! The paper states (§4.3) that Algorithm 1 keeps the view "consistent
//! with the base data after processing each update" but omits the
//! proof. These properties are the executable substitute: over random
//! tree-structured databases with deliberately colliding labels
//! (non-unique labels are the §4.2 subtlety) and random valid update
//! streams,
//!
//! * the incrementally maintained view equals a from-scratch
//!   recomputation after *every* update;
//! * the relational counting baseline agrees with the native view;
//! * a warehouse maintaining the view from update reports (at every
//!   report level) agrees with local maintenance.

use gsview::gsdb::{Atom, Object, Oid, Path, Store, StoreConfig, Update};
use gsview::query::{CmpOp, Pred};
use gsview::views::{consistency, recompute, LocalBase, Maintainer, SimpleViewDef};
use proptest::prelude::*;

const LABELS: &[&str] = &["a", "b", "c"];

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

/// Op seeds, interpreted against live state so every op is valid.
fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0..3u8, any::<u64>()), 1..max_ops)
}

/// Build the tree into a store. Node ids: `pn{i}` (set) / `pa{i}`
/// (atom), root `proot`. Returns (root, set-node OIDs, atom OIDs).
fn build(spec: &TreeSpec, salt: &str, cfg: StoreConfig) -> (Store, Oid, Vec<Oid>, Vec<Oid>) {
    let mut store = Store::with_config(cfg);
    let root = Oid::new(&format!("{salt}root"));
    store
        .create(Object::empty_set(root.name(), "root"))
        .unwrap();
    let mut sets = vec![root];
    let mut atoms = Vec::new();
    let mut all = vec![root];
    for (i, &(parent, label, is_atom, v)) in spec.nodes.iter().enumerate() {
        let l = LABELS[label];
        let oid = Oid::new(&format!("{salt}n{i}"));
        if is_atom {
            store.create(Object::atom(oid.name(), l, v)).unwrap();
            atoms.push(oid);
        } else {
            store.create(Object::empty_set(oid.name(), l)).unwrap();
            sets.push(oid);
        }
        // Attach under an earlier *set* node: walk back from the
        // requested parent until a set node is found (root is one).
        let mut p = all[parent];
        if store.get(p).map(|o| !o.is_set()).unwrap_or(true) {
            p = root;
        }
        store.insert_edge(p, oid).unwrap();
        all.push(oid);
    }
    (store, root, sets, atoms)
}

/// Plan one op seed as valid basic updates against the *current*
/// state (a fresh-atom attach plans a Create followed by an Insert),
/// preserving the tree invariant. The caller applies and maintains
/// them one at a time — the paper's triggering discipline ("the
/// algorithm uses the base databases right after the triggering
/// update and before any further updates", §4.3).
fn plan(
    store: &Store,
    root: Oid,
    sets: &[Oid],
    atoms: &[Oid],
    fresh_counter: &mut usize,
    salt: &str,
    op: (u8, u64),
) -> Vec<Update> {
    let (kind, seed) = op;
    match kind {
        0 if !atoms.is_empty() => {
            let a = atoms[(seed as usize) % atoms.len()];
            vec![Update::Modify {
                oid: a,
                new: Atom::Int((seed % 100) as i64),
            }]
        }
        1 => {
            // Delete a random existing edge (any parent with children).
            let candidates: Vec<(Oid, Oid)> = sets
                .iter()
                .filter_map(|&s| {
                    let kids = store.get(s)?.children();
                    if kids.is_empty() {
                        None
                    } else {
                        Some((s, kids[(seed as usize) % kids.len()]))
                    }
                })
                .collect();
            if candidates.is_empty() {
                return Vec::new();
            }
            let (p, c) = candidates[(seed as usize) % candidates.len()];
            vec![Update::Delete {
                parent: p,
                child: c,
            }]
        }
        _ => {
            // Attach a fresh atom under a random reachable set node.
            let reachable: Vec<Oid> = gsview::gsdb::graph::reachable(store, root)
                .into_iter()
                .filter(|&o| store.get(o).map(|x| x.is_set()).unwrap_or(false))
                .collect();
            let target = reachable[(seed as usize) % reachable.len()];
            let l = LABELS[(seed as usize / 7) % LABELS.len()];
            let oid = Oid::new(&format!("{salt}f{}", *fresh_counter));
            *fresh_counter += 1;
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
    }
}

fn view_defs(salt: &str) -> Vec<SimpleViewDef> {
    let root = format!("{salt}root");
    vec![
        SimpleViewDef::new(format!("{salt}V1").as_str(), root.as_str(), "a")
            .with_cond("b", Pred::new(CmpOp::Gt, 50i64)),
        SimpleViewDef::new(format!("{salt}V2").as_str(), root.as_str(), "a.b"),
        SimpleViewDef::new(format!("{salt}V3").as_str(), root.as_str(), "b")
            .with_cond("a.c", Pred::new(CmpOp::Le, 30i64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Algorithm 1 ≡ recomputation, after every update, for several
    /// view shapes, including label collisions and multi-witness
    /// conditions.
    #[test]
    fn incremental_equals_recompute(spec in tree_strategy(28), ops in ops_strategy(25), salt in 0u32..1_000_000) {
        let salt = format!("ic{salt}_");
        let (mut store, root, sets, atoms) = build(&spec, &salt, StoreConfig::default());
        let defs = view_defs(&salt);
        let mut views: Vec<_> = defs
            .iter()
            .map(|d| {
                (
                    Maintainer::new(d.clone()),
                    recompute::recompute(d, &mut LocalBase::new(&store)).unwrap(),
                )
            })
            .collect();
        let mut fresh = 0usize;
        for op in ops {
            for update in plan(&store, root, &sets, &atoms, &mut fresh, &salt, op) {
            let Ok(applied) = store.apply(update) else { continue };
            for (m, mv) in &mut views {
                m.apply(mv, &mut LocalBase::new(&store), &applied).unwrap();
                let expected = recompute::recompute_members(m.def(), &mut LocalBase::new(&store));
                prop_assert_eq!(
                    mv.members_base(),
                    expected,
                    "view {} diverged after {}",
                    m.def().view,
                    applied
                );
                let problems = consistency::check(m.def(), &mut LocalBase::new(&store), mv);
                prop_assert!(problems.is_empty(), "inconsistencies: {:?}", problems);
            }
            }
        }
    }

    /// Native Algorithm 1 ≡ relational counting baseline across the
    /// same stream.
    #[test]
    fn relational_baseline_agrees(spec in tree_strategy(24), ops in ops_strategy(20), salt in 0u32..1_000_000) {
        use gsview_testkit::relbaseline::{RelDb, RelView, RelViewDef};
        let salt = format!("rb{salt}_");
        let (mut store, root, sets, atoms) = build(&spec, &salt, StoreConfig::default());
        let def = SimpleViewDef::new(
            format!("{salt}V").as_str(),
            format!("{salt}root").as_str(),
            "a",
        )
        .with_cond("b", Pred::new(CmpOp::Gt, 50i64));
        let m = Maintainer::new(def.clone());
        let mut mv = recompute::recompute(&def, &mut LocalBase::new(&store)).unwrap();
        let mut reldb = RelDb::encode(&store);
        let reldef = RelViewDef::new(
            root,
            &Path::parse("a"),
            &Path::parse("b"),
            Some(Pred::new(CmpOp::Gt, 50i64)),
        );
        let mut relview = RelView::recompute(&reldef, &reldb);
        let mut fresh = 0usize;
        for op in ops {
            for update in plan(&store, root, &sets, &atoms, &mut fresh, &salt, op) {
                let Ok(applied) = store.apply(update) else { continue };
                if let gsview::gsdb::AppliedUpdate::Create { oid } = &applied {
                    let obj = store.get(*oid).unwrap().clone();
                    reldb.register_object(&obj);
                    continue;
                }
                m.apply(&mut mv, &mut LocalBase::new(&store), &applied).unwrap();
                for delta in reldb.apply_update(&applied) {
                    relview.propagate(&reldef, &reldb, &delta);
                }
                prop_assert_eq!(
                    mv.members_base(),
                    relview.members(),
                    "relational baseline diverged after {}",
                    applied
                );
            }
        }
    }
}

/// Warehouse maintenance (per report level, with and without cache)
/// agrees with local maintenance across a deterministic mixed stream.
/// Kept deterministic (not proptest) because sources are stateful and
/// the stream already covers all update kinds.
#[test]
fn warehouse_agrees_with_local_at_all_levels() {
    use gsview::warehouse::{ReportLevel, Source, ViewOptions, Warehouse};
    use gsview::workload::{relations, relations_churn, ChurnSpec, RelationsSpec};

    for level in [
        ReportLevel::OidsOnly,
        ReportLevel::WithValues,
        ReportLevel::WithPaths,
    ] {
        for cached in [false, true] {
            if cached && level == ReportLevel::OidsOnly {
                continue; // cache upkeep assumes L2+ reports
            }
            let spec = RelationsSpec {
                relations: 2,
                tuples_per_relation: 40,
                extra_fields: 1,
                age_range: 60,
                seed: 71,
            };
            let (store, mut db) = relations::generate(spec, StoreConfig::default()).unwrap();
            let source = Source::new("rels", Oid::new("REL"), store, level);
            let script = relations_churn(
                &mut db,
                ChurnSpec {
                    ops: 120,
                    modify_weight: 2,
                    field_modify_weight: 0,
                    insert_weight: 1,
                    delete_weight: 1,
                    target_bias: 0.6,
                    age_range: 60,
                    seed: 72,
                },
            );
            let def = SimpleViewDef::new("SEL", "REL", "r0.tuple")
                .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
            let mut wh = Warehouse::new();
            wh.connect(&source);
            wh.add_view(
                "rels",
                def.clone(),
                ViewOptions {
                    use_aux_cache: cached,
                    label_screening: level >= ReportLevel::WithValues,
                    ..ViewOptions::default()
                },
            )
            .unwrap();
            for op in &script {
                source.with_store(|s| op.replay(s)).unwrap();
                for report in source.monitor().poll() {
                    wh.handle_report(&report).unwrap();
                }
                let expected = source
                    .with_store(|s| recompute::recompute_members(&def, &mut LocalBase::new(s)));
                assert_eq!(
                    wh.view(Oid::new("SEL")).unwrap().members_base(),
                    expected,
                    "warehouse diverged at level {level} cached={cached}"
                );
            }
        }
    }
}

/// Delegate values track base values modulo swizzling, even across
/// membership churn with swizzled views.
#[test]
fn swizzled_views_survive_maintenance() {
    let mut store = Store::new();
    gsview::gsdb::samples::person_db(&mut store).unwrap();
    let def =
        SimpleViewDef::new("SW", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64));
    let m = Maintainer::new(def.clone());
    let mut mv = recompute::recompute(&def, &mut LocalBase::new(&store)).unwrap();
    mv.swizzle().unwrap();
    // P2 joins, P1 leaves, P1 returns.
    store.create(Object::atom("A2x", "age", 40i64)).unwrap();
    let ups = vec![
        Update::insert("P2", "A2x"),
        Update::modify("A1", 99i64),
        Update::modify("A1", 10i64),
    ];
    for u in ups {
        let applied = store.apply(u).unwrap();
        m.apply(&mut mv, &mut LocalBase::new(&store), &applied)
            .unwrap();
        mv.swizzle().unwrap();
        let problems = consistency::check(&def, &mut LocalBase::new(&store), &mv);
        assert!(problems.is_empty(), "{problems:?}");
    }
    assert_eq!(mv.members_base(), vec![Oid::new("P1"), Oid::new("P2")]);
}

/// Atom sanity: modifications round-trip through the whole stack.
#[test]
fn atom_modification_roundtrip() {
    let mut store = Store::new();
    store
        .create(Object::atom("x", "v", Atom::tagged("dollar", 7)))
        .unwrap();
    let up = store
        .modify_atom(Oid::new("x"), Atom::str("now a string"))
        .unwrap();
    match up {
        gsview::gsdb::AppliedUpdate::Modify { old, new, .. } => {
            assert_eq!(old, Atom::tagged("dollar", 7));
            assert_eq!(new, Atom::str("now a string"));
        }
        other => panic!("unexpected {other:?}"),
    }
}
