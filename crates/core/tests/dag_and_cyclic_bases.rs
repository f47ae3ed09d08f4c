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

use gsdb::{Atom, DeltaBatch, Object, Oid, Store, Update};
use gsview_core::{GeneralMaintainer, GeneralViewDef, MaterializedView};
use gsview_query::pathexpr::PathExpr;
use gsview_query::{CmpOp, Pred};
use proptest::prelude::*;

proptest! {
    #[test]
    fn maintenance_on_dag_and_cyclic_bases_equals_recompute_without_refresh(
        labels in prop::collection::vec(0..2u8, 2..9),
        values in prop::collection::vec(0..80i64, 1..4),
        edges in prop::collection::vec((any::<u16>(), any::<u16>()), 0..16),
        script in prop::collection::vec((0..8u8, any::<u16>(), any::<u16>(), 0..80i64), 1..32),
        cuts in prop::collection::vec(0..64usize, 0..4),
    ) {
        // Sets first (node 0 is the views' root), then the atoms.
        let (sets, n) = (labels.len(), labels.len() + values.len());
        let node = |i: usize| Oid::new(&format!("dc{i}"));
        let mut store = Store::new();
        for (i, l) in labels.iter().enumerate() {
            store.create(Object::empty_set(node(i).name(), ["a", "b"][*l as usize])).unwrap();
        }
        for (i, v) in values.iter().enumerate() {
            store.create(Object::atom(node(sets + i).name(), "x", *v)).unwrap();
        }
        let edge = |u: u16, v: u16| (node(u as usize % sets), node(v as usize % n));
        for &(u, v) in &edges {
            let (p, c) = edge(u, v);
            let _ = store.insert_edge(p, c);
        }
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

        let mut start = 0;
        for cut in cuts {
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
        }
    }
}
