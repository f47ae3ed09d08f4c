//! Views built whole. `recompute`, `GeneralMaintainer::recompute` and
//! `CircuitMaintainer::initialize` into an empty view build the view
//! store in one step; on random DAG and cyclic bases each must leave
//! exactly what `MaterializedView::new` followed by one `v_insert` per
//! member, in the same order, leaves: the same members, delegates,
//! slots (the view store's images, page by page), parent index,
//! version and recorded deltas.

use gsdb::{Object, Oid, Store};
use gsview_core::recompute::{recompute, recompute_members};
use gsview_core::{
    CircuitMaintainer, CircuitSource, CompoundViewDef, GeneralMaintainer, GeneralViewDef,
    LocalBase, MaterializedView, SimpleViewDef,
};
use gsview_query::pathexpr::PathExpr;
use gsview_query::{CmpOp, Pred};
use proptest::prelude::*;

/// The view `view` built the incremental way: one `v_insert` per
/// object, in order.
fn one_by_one(view: Oid, objects: Vec<Object>, record: bool) -> MaterializedView {
    let mut mv = MaterializedView::new(view);
    mv.record_deltas(record);
    for obj in &objects {
        mv.v_insert(obj).unwrap();
    }
    mv
}

/// `whole` and `want` agree on everything a view shows, and on the
/// layout of the view store.
fn assert_same_view(whole: &mut MaterializedView, want: &mut MaterializedView, what: &str) {
    assert_eq!(whole.members_base(), want.members_base(), "{what}: members");
    for y in want.members_base() {
        assert_eq!(
            whole.delegate_of(y),
            want.delegate_of(y),
            "{what}: delegate of {y}"
        );
    }
    let (ws, wt) = (whole.store(), want.store());
    assert_eq!(ws.version(), wt.version(), "{what}: version");
    assert_eq!(ws.version(), 1 + 2 * want.len() as u64, "{what}: version");
    assert_eq!(
        (ws.len(), ws.slot_bound()),
        (wt.len(), wt.slot_bound()),
        "{what}: size"
    );
    let (wi, ti) = (ws.export_images(), wt.export_images());
    assert_eq!(wi.len(), ti.len(), "{what}: shards");
    for (a, b) in wi.iter().zip(&ti) {
        assert_eq!(a.len_slots, b.len_slots, "{what}: high-water mark");
        assert_eq!(a.chunks, b.chunks, "{what}: slots");
    }
    for obj in wt.iter() {
        for &c in obj.children().iter().chain([&obj.oid]) {
            let parents = |s: &Store| s.parents(c).iter().collect::<Vec<Oid>>();
            assert_eq!(parents(ws), parents(wt), "{what}: parents of {c}");
        }
    }
    if let Err(e) = ws.check_invariants() {
        panic!("{what}: whole-built view store: {e}");
    }
    assert_eq!(whole.drain_deltas(), want.drain_deltas(), "{what}: deltas");
}

proptest! {
    #[test]
    fn a_view_built_whole_equals_the_view_built_member_by_member(
        labels in prop::collection::vec(0..2u8, 2..12),
        values in prop::collection::vec(0..80i64, 1..6),
        edges in prop::collection::vec((any::<u16>(), any::<u16>()), 0..40),
        salt in 0u32..1_000_000,
    ) {
        // Sets first (node 0 is the views' root), then the atoms.
        let (sets, n) = (labels.len(), labels.len() + values.len());
        let node = |i: usize| Oid::new(&format!("wv{salt}n{i}"));
        let mut store = Store::new();
        for (i, l) in labels.iter().enumerate() {
            store.create(Object::empty_set(node(i).name(), ["a", "b"][*l as usize])).unwrap();
        }
        for (i, v) in values.iter().enumerate() {
            store.create(Object::atom(node(sets + i).name(), "x", *v)).unwrap();
        }
        for &(u, v) in &edges {
            let _ = store.insert_edge(node(u as usize % sets), node(v as usize % n));
        }
        let fetch = |ys: Vec<Oid>| -> Vec<Object> {
            ys.into_iter().filter_map(|y| store.get(y).cloned()).collect()
        };

        // `recompute`, in the sorted member order it inserts in.
        for def in [
            SimpleViewDef::new(format!("WVR{salt}").as_str(), node(0), "a"),
            SimpleViewDef::new(format!("WVC{salt}").as_str(), node(0), "a.b")
                .with_cond("x", Pred::new(CmpOp::Gt, 30i64)),
        ] {
            let mut whole = recompute(&def, &mut LocalBase::new(&store)).unwrap();
            let members = recompute_members(&def, &mut LocalBase::new(&store));
            let mut want = one_by_one(def.view, fetch(members), false);
            assert_same_view(&mut whole, &mut want, "recompute");
        }

        // `GeneralMaintainer::recompute`, in the evaluator's order.
        let pe = |e: &str| PathExpr::parse(e).unwrap();
        for def in [
            GeneralViewDef::new(format!("WVS{salt}").as_str(), node(0), pe("*.a"))
                .with_cond(pe("?.x"), Pred::new(CmpOp::Le, 50i64)),
            GeneralViewDef::new(format!("WVA{salt}").as_str(), node(0), pe("?")),
        ] {
            let m = GeneralMaintainer::new(def.clone());
            let mut whole = m.recompute(&store).unwrap();
            let members = gsview_query::evaluate(&store, &def.to_query()).unwrap().oids;
            let mut want = one_by_one(def.view, fetch(members), false);
            assert_same_view(&mut whole, &mut want, "general recompute");
        }

        // A circuit initialized into an empty view that records its
        // deltas, in the circuit's member order.
        let view = format!("WVU{salt}");
        let union = CompoundViewDef::new(
            view.as_str(),
            vec![
                SimpleViewDef::new(view.as_str(), node(0), "a.b"),
                SimpleViewDef::new(view.as_str(), node(0), "b.a.b"),
            ],
        );
        let cm = CircuitMaintainer::new(CircuitSource::Compound(union));
        let mut whole = MaterializedView::new(cm.view());
        whole.record_deltas(true);
        cm.initialize(&mut whole, &store).unwrap();
        let mut want = one_by_one(cm.view(), fetch(cm.members()), true);
        assert_same_view(&mut whole, &mut want, "circuit initialize");

        // A view written to since `new` goes member by member and still
        // ends with the circuit's members.
        let mut used = MaterializedView::new(cm.view());
        if let Some(first) = store.iter().next().cloned() {
            used.v_insert(&first).unwrap();
            used.v_delete(first.oid).unwrap();
        }
        cm.initialize(&mut used, &store).unwrap();
        prop_assert_eq!(used.members_base(), want.members_base());
        if let Err(e) = used.store().check_invariants() {
            panic!("a used view store: {e}");
        }
    }
}
