//! Wildcard maintenance off trees (paper §6: "there may be more than
//! one path between two objects"). Random graphs in the shape of the
//! upward-search property in `gsdb`'s `store_properties.rs` — sets
//! labelled `a`/`b` wired at random, with diamonds, cycles under the
//! root, through it and off it, self-loops and parents the root does
//! not reach — plus a few `x` atoms hung anywhere. A random script
//! inserts and deletes edges, rewrites atoms and removes records. After
//! every batch, per-update (`apply`) and batched (`apply_batch`)
//! maintenance must equal recomputation, delegate values included: the
//! locate step joins the walks, and local repair is the only path.
//!
//! Circuits take constant paths only, so their products with these
//! bases are acyclic: a union and an aggregate over constant paths
//! step through every batch (one build, no rebuild) and equal
//! recomputation, members and aggregates, cycles and self-loops
//! included. A circuit built whole from such a base equals one built
//! on the empty store and stepped by the batch that creates the base:
//! a build and a step feed one propagation from different inputs.

use gsdb::{Atom, DeltaBatch, Object, Oid, Store, Update};
use gsview_circuit::Circuit;
use gsview_core::recompute::recompute_members;
use gsview_core::{
    AggFn, AggregateView, AggregateViewDef, CircuitMaintainer, CircuitSource, CompoundViewDef,
    GeneralMaintainer, GeneralViewDef, LocalBase, MaterializedView, SimpleViewDef,
};
use gsview_query::pathexpr::PathExpr;
use gsview_query::{CmpOp, Pred};
use proptest::prelude::*;

/// The union of `def`'s branches, recomputed on `store`, sorted by name.
fn union_members(def: &CompoundViewDef, store: &Store) -> Vec<Oid> {
    let base = &mut LocalBase::new(store);
    let mut union: Vec<Oid> = def
        .branches
        .iter()
        .flat_map(|b| recompute_members(b, base))
        .collect();
    union.sort_by_key(|o| o.name());
    union.dedup();
    union
}

/// The `i`th node of a random base.
fn node(i: usize) -> Oid {
    Oid::new(&format!("dc{i}"))
}

/// A random base built from the empty store: the sets of `labels`
/// (node 0 is the views' root), then an `x` atom per value, then the
/// edges that apply. Returns the store and the batch that built it.
fn base(labels: &[u8], values: &[i64], edges: &[(u16, u16)]) -> (Store, DeltaBatch) {
    let (sets, n) = (labels.len(), labels.len() + values.len());
    let objects = labels
        .iter()
        .enumerate()
        .map(|(i, l)| Object::empty_set(node(i).name(), ["a", "b"][*l as usize]))
        .chain(
            values
                .iter()
                .enumerate()
                .map(|(i, v)| Object::atom(node(sets + i).name(), "x", *v)),
        );
    let inserts = edges.iter().map(|&(u, v)| Update::Insert {
        parent: node(u as usize % sets),
        child: node(v as usize % n),
    });
    let mut store = Store::new();
    let mut batch = DeltaBatch::new();
    let updates = objects.map(|object| Update::Create { object });
    for u in updates.chain(inserts) {
        if let Ok(applied) = store.apply(u) {
            batch.push(applied);
        }
    }
    (store, batch)
}

/// The circuit leg's union: constant paths, one with a condition and
/// one running through any self-loop on `a`.
fn union_def() -> CompoundViewDef {
    CompoundViewDef::new(
        "CU",
        vec![
            SimpleViewDef::new("CU", node(0), "a.b").with_cond("x", Pred::new(CmpOp::Gt, 40i64)),
            SimpleViewDef::new("CU", node(0), "b.a"),
            SimpleViewDef::new("CU", node(0), "a.a.a"),
        ],
    )
}

/// The circuit leg's aggregate over constant paths.
fn aggregate_def() -> AggregateViewDef {
    AggregateViewDef::new(SimpleViewDef::new("CA", node(0), "a"), "b.x", AggFn::Sum)
}

/// A circuit maintainer for `source`, built on `store`, with its view.
fn circuit(source: CircuitSource, store: &Store) -> (CircuitMaintainer, MaterializedView) {
    let cm = CircuitMaintainer::new(source);
    let mut mv = MaterializedView::new(cm.view());
    cm.initialize(&mut mv, store).unwrap();
    (cm, mv)
}

proptest! {
    #[test]
    fn maintenance_on_dag_and_cyclic_bases_equals_recompute_without_refresh(
        labels in prop::collection::vec(0..2u8, 2..9),
        values in prop::collection::vec(0..80i64, 1..4),
        edges in prop::collection::vec((any::<u16>(), any::<u16>()), 0..16),
        script in prop::collection::vec((0..8u8, any::<u16>(), any::<u16>(), 0..80i64), 1..32),
        cuts in prop::collection::vec(0..64usize, 0..4),
    ) {
        let (mut store, _) = base(&labels, &values, &edges);
        let (sets, n) = (labels.len(), labels.len() + values.len());
        let edge = |u: u16, v: u16| (node(u as usize % sets), node(v as usize % n));
        let updates: Vec<Update> = script
            .iter()
            .map(|&(kind, u, v, x)| match kind {
                0..=2 => {
                    let (parent, child) = edge(u, v);
                    Update::Insert { parent, child }
                }
                3..=4 => {
                    let (parent, child) = edge(u, v);
                    Update::Delete { parent, child }
                }
                5..=6 => Update::Modify { oid: node(sets + v as usize % values.len()), new: Atom::Int(x) },
                // Never the root.
                _ => Update::Remove { oid: node(1 + v as usize % (n - 1)) },
            })
            .collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (updates.len() + 1)).collect();
        cuts.push(updates.len());
        cuts.sort_unstable();

        // A constant path with a condition, a wildcard selection with a
        // wildcard condition, and any single label.
        let pe = |e: &str| PathExpr::parse(e).unwrap();
        let defs = [
            GeneralViewDef::new("CONST", node(0), pe("a.b"))
                .with_cond(pe("x"), Pred::new(CmpOp::Gt, 40i64)),
            GeneralViewDef::new("STAR", node(0), pe("*.a"))
                .with_cond(pe("?.x"), Pred::new(CmpOp::Le, 50i64)),
            GeneralViewDef::new("ANY", node(0), pe("?")),
        ];
        let mut views: Vec<_> = defs
            .into_iter()
            .map(|def| {
                let m = GeneralMaintainer::new(def);
                let mv = m.recompute(&store).unwrap();
                (mv.clone(), mv, m)
            })
            .collect();

        let (union, aggregate) = (union_def(), aggregate_def());
        let (union_cm, mut union_mv) = circuit(CircuitSource::Compound(union.clone()), &store);
        let (agg_cm, mut agg_mv) = circuit(CircuitSource::Aggregate(aggregate.clone()), &store);

        let mut start = 0;
        for (batches, cut) in (1u64..).zip(cuts) {
            let mut batch = DeltaBatch::new();
            for u in &updates[start..cut] {
                if let Ok(applied) = store.apply(u.clone()) {
                    for (mv_seq, _, m) in &mut views {
                        m.apply(mv_seq, &store, &applied).unwrap();
                    }
                    batch.push(applied);
                }
            }
            start = cut;
            for (mv_seq, mv, m) in &mut views {
                let view = m.def().view;
                m.apply_batch(mv, &store, &batch).unwrap();
                let want = m.recompute(&store).unwrap();
                prop_assert_eq!(mv.members_base(), want.members_base(), "{} batched", view);
                prop_assert_eq!(mv_seq.members_base(), want.members_base(), "{} per update", view);
                for y in want.members_base() {
                    let copy = |v: &MaterializedView| v.delegate(v.delegate_of(y).unwrap()).cloned();
                    prop_assert_eq!(copy(mv), copy(&want), "{} delegate of {}", view, y);
                    prop_assert_eq!(copy(mv_seq), copy(&want), "{} delegate of {}", view, y);
                }
            }

            union_cm.apply_batch(&mut union_mv, &store, &batch).unwrap();
            agg_cm.apply_batch(&mut agg_mv, &store, &batch).unwrap();
            let want = union_members(&union, &store);
            prop_assert_eq!(union_cm.members(), want.clone(), "union circuit");
            prop_assert_eq!(union_mv.members_base(), want, "union circuit view");
            let fresh = AggregateView::materialize(aggregate.clone(), &mut LocalBase::new(&store)).unwrap();
            prop_assert_eq!(agg_cm.members(), fresh.members(), "aggregate circuit");
            prop_assert_eq!(agg_mv.members_base(), fresh.members(), "aggregate circuit view");
            for y in fresh.members() {
                prop_assert_eq!(agg_cm.aggregate_of(y), fresh.aggregate_of(y), "aggregate of {}", y);
            }
            prop_assert_eq!(agg_cm.total(), fresh.total(), "total");
            for cm in [&union_cm, &agg_cm] {
                prop_assert_eq!((cm.steps(), cm.rebuilds()), (batches, 1), "{} steps", cm.view());
            }
        }
    }
}

proptest! {
    #[test]
    fn a_circuit_built_whole_equals_one_stepped_from_empty(
        labels in prop::collection::vec(0..2u8, 2..9),
        values in prop::collection::vec(0..80i64, 1..4),
        edges in prop::collection::vec((any::<u16>(), any::<u16>()), 0..16),
    ) {
        let (full, batch) = base(&labels, &values, &edges);
        // The batch starts at the empty store's version, so the version
        // guard a maintainer runs before a step would pass.
        prop_assert_eq!(full.version(), batch.len() as u64);
        let sources = [
            CircuitSource::Compound(union_def()),
            CircuitSource::Aggregate(aggregate_def()),
        ];
        for source in sources {
            let mut whole = Circuit::compile(source.lower());
            whole.init(&full);
            let mut stepped = Circuit::compile(source.lower());
            stepped.init(&Store::new());
            stepped.step(&batch, &full);
            let sorted = |c: &Circuit| {
                let mut m = c.members();
                m.sort();
                m
            };
            let view = source.view();
            prop_assert_eq!(sorted(&whole), sorted(&stepped), "{} members", view);
            for y in whole.members() {
                prop_assert_eq!(whole.aggregate_of(y), stepped.aggregate_of(y), "{} at {}", view, y);
            }
            prop_assert_eq!(whole.state_len(), stepped.state_len(), "{} state", view);
        }
    }
}

/// A cut beside a new cycle: one batch cuts `ROOT→A` and closes a
/// cycle through `A` — a self-loop `A→A`, or `B→A` under `A→B`. Over
/// constant paths the circuit's product stays acyclic, so its counts
/// fall to zero with the cut and its members equal recomputation; a
/// second batch re-attaches `A` and the cycle feeds `a.a.b`.
#[test]
fn a_cut_beside_a_new_cycle_leaves_constant_path_counts_exact() {
    for (pattern, closing) in [("self", "cA"), ("back", "cB")] {
        let node = |n: &str| Oid::new(&format!("c{n}"));
        let mut store = Store::new();
        store
            .create(Object::empty_set(node("ROOT").name(), "r"))
            .unwrap();
        store
            .create(Object::empty_set(node("A").name(), "a"))
            .unwrap();
        store
            .create(Object::empty_set(node("B").name(), "b"))
            .unwrap();
        store.insert_edge(node("ROOT"), node("A")).unwrap();
        store.insert_edge(node("A"), node("B")).unwrap();
        let view = format!("CYC{pattern}");
        let def = CompoundViewDef::new(
            view.as_str(),
            ["a", "a.b", "a.a.b"]
                .into_iter()
                .map(|p| SimpleViewDef::new(view.as_str(), node("ROOT"), p))
                .collect(),
        );
        let (cm, mut mv) = circuit(CircuitSource::Compound(def.clone()), &store);
        assert_eq!(cm.members(), vec![node("A"), node("B")], "{pattern}");

        let cut = DeltaBatch::from_ops(vec![
            store.delete_edge(node("ROOT"), node("A")).unwrap(),
            store.insert_edge(Oid::new(closing), node("A")).unwrap(),
        ]);
        cm.apply_batch(&mut mv, &store, &cut).unwrap();
        assert_eq!(cm.members(), Vec::<Oid>::new(), "{pattern} after the cut");
        assert_eq!(
            union_members(&def, &store),
            Vec::<Oid>::new(),
            "{pattern} recompute"
        );
        assert_eq!(mv.members_base(), Vec::<Oid>::new(), "{pattern} view");

        let reattach =
            DeltaBatch::from_ops(vec![store.insert_edge(node("ROOT"), node("A")).unwrap()]);
        cm.apply_batch(&mut mv, &store, &reattach).unwrap();
        let want = union_members(&def, &store);
        assert_eq!(want, vec![node("A"), node("B")], "{pattern} re-attached");
        assert_eq!(cm.members(), want, "{pattern} re-attached");
        assert_eq!(mv.members_base(), want, "{pattern} view re-attached");
        assert_eq!(
            (cm.steps(), cm.rebuilds()),
            (2, 1),
            "{pattern} never rebuilds"
        );
    }
}
