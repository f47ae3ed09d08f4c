//! Batched deltas: collecting a run of applied updates and
//! consolidating them into a net effect before view maintenance.
//!
//! Algorithm 1 is triggered once per update. When updates arrive in
//! bursts — a warehouse integrator draining several monitor reports, a
//! bulk load, a long transaction — much of that per-update work is
//! wasted: an edge inserted and deleted within the same burst has no
//! net effect, and an atom modified five times only needs its first
//! old and last new value to decide membership. A [`DeltaBatch`]
//! collects the burst and [`DeltaBatch::consolidate`] reduces it:
//!
//! * an insert and a delete of the same edge cancel (and vice versa);
//! * repeated modifies of one OID fold into a single
//!   `modify(oid, first_old, last_new)`, dropped entirely when the
//!   value returns to where it started;
//! * a create followed by a remove of the same object record cancels
//!   (the record existed neither before nor after); a remove followed
//!   by a re-create survives as both, because the record was
//!   *replaced*, not preserved;
//! * the *touched set* (directly affected source objects, paper §5.1)
//!   is deduplicated.
//!
//! The consolidated delta is what `gsview-core`'s batched maintainer
//! (`Maintainer::apply_batch`) runs Algorithm 1's location test
//! against — once per surviving delta instead of once per raw update.
//!
//! One batch feeds every view of a portfolio, so it computes what the
//! views share once: [`DeltaBatch::consolidated`] keeps the
//! consolidation, and [`DeltaBatch::live`] keeps the batch's change to
//! the live graph ([`LiveDelta`]) for the first (pre-batch version,
//! post-batch store) pair a delta circuit asks about. Both memos go
//! when the ops change, and a clone starts without them.
//!
//! The live memo holds a fork of the post-batch store — the epoch every
//! caller already holds — and checks a later store against it by
//! identity: the same version and the same shard page directories. It
//! trusts the pre-batch version to name the pre-batch state, as a
//! circuit's version guard does, and never holds that store: a circuit
//! drops its old fork before it propagates, and the memo must not keep
//! the old epoch's pages alive.

use crate::events::LiveDelta;
use crate::update::AppliedUpdate;
use crate::value::Atom;
use crate::{FastMap, FastSet, Oid, Store};
use std::sync::{Arc, OnceLock};

/// An ordered collection of applied updates awaiting maintenance, with
/// the consolidation and live-graph change its maintainers share.
#[derive(Debug, Default)]
pub struct DeltaBatch {
    ops: Vec<AppliedUpdate>,
    /// [`DeltaBatch::consolidate`]'s result, once asked for.
    consolidated: OnceLock<ConsolidatedDelta>,
    /// The live change first asked for, and the pair it is for.
    live: OnceLock<LiveMemo>,
}

/// A memoized [`LiveDelta`] and the pair it was derived for: the
/// pre-batch version and a fork of the post-batch store.
#[derive(Debug)]
struct LiveMemo {
    pre: u64,
    post: Store,
    delta: Arc<LiveDelta>,
}

impl Clone for DeltaBatch {
    /// The same ops, without the memos: a clone computes its own.
    fn clone(&self) -> Self {
        DeltaBatch::from_ops(self.ops.clone())
    }
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch holding the given updates, in order.
    pub fn from_ops(ops: Vec<AppliedUpdate>) -> Self {
        DeltaBatch {
            ops,
            ..DeltaBatch::default()
        }
    }

    /// Append one applied update.
    pub fn push(&mut self, op: AppliedUpdate) {
        self.forget();
        self.ops.push(op);
    }

    /// Append a run of applied updates.
    pub fn extend(&mut self, ops: impl IntoIterator<Item = AppliedUpdate>) {
        self.forget();
        self.ops.extend(ops);
    }

    /// Drop the memos: they describe ops about to change.
    fn forget(&mut self) {
        self.consolidated.take();
        self.live.take();
    }

    /// Number of raw (unconsolidated) updates.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff no updates were collected.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The raw updates, in arrival order.
    pub fn ops(&self) -> &[AppliedUpdate] {
        &self.ops
    }

    /// Drain the batch, leaving it empty.
    pub fn drain(&mut self) -> Vec<AppliedUpdate> {
        self.forget();
        std::mem::take(&mut self.ops)
    }

    /// The batch's net effect: [`DeltaBatch::consolidate`] run on the
    /// first request, and the same result for every later one.
    pub fn consolidated(&self) -> &ConsolidatedDelta {
        self.consolidated.get_or_init(|| self.consolidate())
    }

    /// The change the batch makes to the live graph, from `base` (the
    /// store before the batch) to `store` (the store after it). The
    /// first pair asked about is derived and memoized; a later request
    /// with the same pre-batch version and the very same post-batch
    /// records gets the same `Arc`. Any other pair derives afresh,
    /// without caching.
    pub fn live(&self, base: &Store, store: &Store) -> Arc<LiveDelta> {
        let pre = base.version();
        let memo = self.live.get();
        if let Some(m) = memo.filter(|m| m.pre == pre && m.post.same_records(store)) {
            return Arc::clone(&m.delta);
        }
        let delta = Arc::new(LiveDelta::derive(self.consolidated(), base, store));
        if memo.is_none() {
            // A racing first request may have set it meanwhile; either
            // memo is sound, so the loser's result just goes uncached.
            let _ = self.live.set(LiveMemo {
                pre,
                post: store.fork(),
                delta: Arc::clone(&delta),
            });
        }
        delta
    }

    /// Reduce the batch to its net effect. Surviving deltas keep the
    /// arrival order of their first occurrence.
    pub fn consolidate(&self) -> ConsolidatedDelta {
        // The maps are keyed by interned OIDs, so they take the fast
        // hasher; output order comes from the first-occurrence sorts
        // below, never from map iteration.
        //
        // Net edge count per (parent, child): +1 per insert, -1 per
        // delete. A valid update sequence keeps this in {-1, 0, +1}.
        let mut edge_net: FastMap<(Oid, Oid), (i64, usize)> = FastMap::default();
        // Per modified OID: value before the batch, value after it.
        let mut mods: FastMap<Oid, (Atom, Atom, usize)> = FastMap::default();
        // Net record count per OID: +1 per create, -1 per remove. The
        // bool remembers whether the *first* record op was a remove:
        // remove-then-create nets to zero record churn but is a
        // *replacement* (the re-created object starts from a fresh
        // value), not a no-op, and must survive consolidation as a
        // remove plus a create.
        let mut record_net: FastMap<Oid, (i64, usize, bool)> = FastMap::default();

        for (i, op) in self.ops.iter().enumerate() {
            match op {
                AppliedUpdate::Insert { parent, child } => {
                    edge_net.entry((*parent, *child)).or_insert((0, i)).0 += 1;
                }
                AppliedUpdate::Delete { parent, child } => {
                    edge_net.entry((*parent, *child)).or_insert((0, i)).0 -= 1;
                }
                AppliedUpdate::Modify { oid, old, new } => {
                    mods.entry(*oid)
                        .and_modify(|(_, last_new, _)| *last_new = new.clone())
                        .or_insert((old.clone(), new.clone(), i));
                }
                AppliedUpdate::Create { oid } => {
                    record_net.entry(*oid).or_insert((0, i, false)).0 += 1;
                }
                AppliedUpdate::Remove { oid } => {
                    record_net.entry(*oid).or_insert((0, i, true)).0 -= 1;
                }
            }
        }

        let mut edges: Vec<(usize, EdgeDelta)> = edge_net
            .into_iter()
            .filter(|&(_, (net, _))| net != 0)
            .map(|((parent, child), (net, i))| {
                let op = if net > 0 { EdgeOp::Insert } else { EdgeOp::Delete };
                (i, EdgeDelta { parent, child, op })
            })
            .collect();
        edges.sort_by_key(|&(i, _)| i);

        let mut modifies: Vec<(usize, ModifyDelta)> = mods
            .into_iter()
            .filter(|(_, (old, new, _))| old != new)
            .map(|(oid, (old, new, i))| (i, ModifyDelta { oid, old, new }))
            .collect();
        modifies.sort_by_key(|&(i, _)| i);

        let mut created: Vec<(usize, Oid)> = Vec::new();
        let mut removed: Vec<(usize, Oid)> = Vec::new();
        for (oid, (net, i, first_was_remove)) in record_net {
            if net > 0 {
                created.push((i, oid));
            } else if net < 0 {
                removed.push((i, oid));
            } else if first_was_remove {
                // Remove-then-create: the record existed before and
                // after, but it was replaced — downstream maintenance
                // must retract the old record's contributions and
                // rebuild from the final store.
                removed.push((i, oid));
                created.push((i, oid));
            }
        }
        created.sort_by_key(|&(i, _)| i);
        removed.sort_by_key(|&(i, _)| i);

        let edges: Vec<EdgeDelta> = edges.into_iter().map(|(_, e)| e).collect();
        let modifies: Vec<ModifyDelta> = modifies.into_iter().map(|(_, m)| m).collect();
        let created: Vec<Oid> = created.into_iter().map(|(_, o)| o).collect();
        let removed: Vec<Oid> = removed.into_iter().map(|(_, o)| o).collect();

        // Deduplicated touched set of the *surviving* deltas, in
        // first-occurrence order.
        let mut touched: Vec<Oid> = Vec::new();
        let mut seen: FastSet<Oid> = FastSet::default();
        let touch = |o: Oid, touched: &mut Vec<Oid>, seen: &mut FastSet<Oid>| {
            if seen.insert(o) {
                touched.push(o);
            }
        };
        for e in &edges {
            touch(e.parent, &mut touched, &mut seen);
            touch(e.child, &mut touched, &mut seen);
        }
        for m in &modifies {
            touch(m.oid, &mut touched, &mut seen);
        }
        for &o in created.iter().chain(removed.iter()) {
            touch(o, &mut touched, &mut seen);
        }

        let output_ops = edges.len() + modifies.len() + created.len() + removed.len();
        ConsolidatedDelta {
            edges,
            modifies,
            created,
            removed,
            touched,
            input_ops: self.ops.len(),
            cancelled_ops: self.ops.len() - output_ops,
        }
    }
}

/// Direction of a net edge change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOp {
    /// The edge exists after the batch and did not before.
    Insert,
    /// The edge existed before the batch and does not after.
    Delete,
}

/// One net edge change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeDelta {
    /// The set object whose value changed.
    pub parent: Oid,
    /// The child OID added or removed.
    pub child: Oid,
    /// Which way the edge went, net.
    pub op: EdgeOp,
}

/// One net atomic-value change: `modify(oid, old, new)` with `old` the
/// value before the batch and `new` the value after it (`old != new`).
#[derive(Clone, Debug, PartialEq)]
pub struct ModifyDelta {
    /// The atomic object.
    pub oid: Oid,
    /// Value before the batch.
    pub old: Atom,
    /// Value after the batch.
    pub new: Atom,
}

/// The net effect of a [`DeltaBatch`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConsolidatedDelta {
    /// Net edge changes, in first-occurrence order.
    pub edges: Vec<EdgeDelta>,
    /// Net atomic-value changes, in first-occurrence order.
    pub modifies: Vec<ModifyDelta>,
    /// Object records that exist after the batch and did not before.
    pub created: Vec<Oid>,
    /// Object records removed, net, by the batch.
    pub removed: Vec<Oid>,
    /// Deduplicated directly-affected source objects of the surviving
    /// deltas (paper §5.1), in first-occurrence order.
    pub touched: Vec<Oid>,
    /// Raw updates that went in.
    pub input_ops: usize,
    /// Updates eliminated by consolidation.
    pub cancelled_ops: usize,
}

impl ConsolidatedDelta {
    /// Number of surviving deltas.
    pub fn len(&self) -> usize {
        self.edges.len() + self.modifies.len() + self.created.len() + self.removed.len()
    }

    /// True iff the batch had no net effect.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Object, Update};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    /// `R → P → A`, with `A` an age atom of 40.
    fn seed() -> Store {
        let mut s = Store::new();
        s.create(Object::atom("A", "age", 40i64)).unwrap();
        s.create(Object::set("P", "person", &[oid("A")])).unwrap();
        s.create(Object::set("R", "root", &[oid("P")])).unwrap();
        s
    }

    /// A fork of `s` before `updates`, and the batch they apply to it.
    fn batch_on(s: &mut Store, updates: Vec<Update>) -> (Store, DeltaBatch) {
        let base = s.fork();
        let ops = updates.into_iter().map(|u| s.apply(u).unwrap()).collect();
        (base, DeltaBatch::from_ops(ops))
    }

    fn memoized(b: &DeltaBatch) -> (bool, bool) {
        (b.consolidated.get().is_some(), b.live.get().is_some())
    }

    #[test]
    fn consolidated_is_consolidate_computed_once() {
        let mut s = seed();
        let (_, b) = batch_on(
            &mut s,
            vec![Update::modify("A", 41i64), Update::insert("R", "A"), Update::modify("A", 42i64)],
        );
        assert_eq!(b.consolidated(), &b.consolidate());
        assert!(std::ptr::eq(b.consolidated(), b.consolidated()));
    }

    #[test]
    fn changing_the_ops_or_cloning_drops_the_memos() {
        let mut s = seed();
        let (base, mut b) = batch_on(&mut s, vec![Update::modify("A", 41i64)]);
        let fill = |b: &DeltaBatch| {
            b.live(&base, &s);
            assert_eq!(memoized(b), (true, true));
        };
        fill(&b);
        let c = b.clone();
        assert_eq!((c.ops(), memoized(&c)), (b.ops(), (false, false)));

        let delete = AppliedUpdate::Delete { parent: oid("P"), child: oid("A") };
        b.push(delete.clone());
        assert_eq!(memoized(&b), (false, false));
        assert_eq!(b.consolidated(), &b.consolidate());
        assert_eq!(b.consolidated().edges.len(), 1);
        fill(&b);
        b.extend([AppliedUpdate::Insert { parent: oid("P"), child: oid("A") }]);
        assert_eq!(memoized(&b), (false, false));
        assert!(b.consolidated().edges.is_empty(), "delete and insert cancel");
        fill(&b);
        assert_eq!(b.drain().len(), 3);
        assert_eq!(memoized(&b), (false, false));
        assert!(b.consolidated().is_empty());
    }

    #[test]
    fn a_repeat_live_request_shares_one_derivation() {
        let mut s = seed();
        let (base, b) = batch_on(&mut s, vec![Update::modify("A", 50i64)]);
        let first = b.live(&base, &s);
        assert_eq!(first.atoms.len(), 1);
        // Other forks of the same two stores: the same pre-batch
        // version, the very same post-batch records.
        assert!(Arc::ptr_eq(&first, &b.live(&base.fork(), &s.fork())));
        assert!(Arc::ptr_eq(&first, &b.live(&base, &s)));
    }

    #[test]
    fn a_divergent_fork_at_the_same_version_derives_afresh() {
        let mut s = seed();
        let mut other = s.fork();
        let (base, b) = batch_on(&mut s, vec![Update::modify("A", 50i64)]);
        other.apply(Update::modify("A", 60i64)).unwrap();
        assert_eq!(s.version(), other.version());
        let mine = b.live(&base, &s);
        let theirs = b.live(&base, &other);
        assert!(!Arc::ptr_eq(&mine, &theirs));
        assert_eq!(mine.atoms[0].new, Some(Atom::Int(50)));
        assert_eq!(theirs.atoms[0].new, Some(Atom::Int(60)));
        // The memo keeps the first pair, and the divergent one is not
        // cached.
        assert!(Arc::ptr_eq(&mine, &b.live(&base, &s)));
        assert!(!Arc::ptr_eq(&theirs, &b.live(&base, &other)));
    }

    #[test]
    fn a_different_pre_batch_version_derives_afresh() {
        let mut s = seed();
        let stale = s.fork();
        s.apply(Update::modify("A", 41i64)).unwrap();
        let (base, b) = batch_on(&mut s, vec![Update::modify("A", 50i64)]);
        let first = b.live(&base, &s);
        let from_stale = b.live(&stale, &s);
        assert!(!Arc::ptr_eq(&first, &from_stale));
        assert_eq!(first.atoms[0].old, Some(Atom::Int(41)));
        assert_eq!(from_stale.atoms[0].old, Some(Atom::Int(40)));
        assert!(Arc::ptr_eq(&first, &b.live(&base, &s)));
    }

    #[test]
    fn the_live_memo_keys_on_the_pre_batch_version_alone() {
        let mut s = seed();
        let (base, b) = batch_on(&mut s, vec![Update::Remove { oid: oid("P") }]);
        assert_eq!(b.live(&base, &s).edges.len(), 2);
        let memo = b.live.get().unwrap();
        assert_eq!(memo.pre, base.version());
        assert!(memo.post.same_records(&s));
        assert!(!memo.post.same_records(&base));
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Insert { parent: oid("P"), child: oid("C") });
        b.push(AppliedUpdate::Delete { parent: oid("P"), child: oid("C") });
        let d = b.consolidate();
        assert!(d.is_empty());
        assert_eq!(d.input_ops, 2);
        assert_eq!(d.cancelled_ops, 2);
        assert!(d.touched.is_empty());
    }

    #[test]
    fn delete_then_reinsert_cancels() {
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Delete { parent: oid("P"), child: oid("C") });
        b.push(AppliedUpdate::Insert { parent: oid("P"), child: oid("C") });
        assert!(b.consolidate().is_empty());
    }

    #[test]
    fn insert_delete_insert_nets_to_one_insert() {
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Insert { parent: oid("P"), child: oid("C") });
        b.push(AppliedUpdate::Delete { parent: oid("P"), child: oid("C") });
        b.push(AppliedUpdate::Insert { parent: oid("P"), child: oid("C") });
        let d = b.consolidate();
        assert_eq!(
            d.edges,
            vec![EdgeDelta { parent: oid("P"), child: oid("C"), op: EdgeOp::Insert }]
        );
        assert_eq!(d.cancelled_ops, 2);
    }

    #[test]
    fn modifies_fold_to_first_old_last_new() {
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Modify { oid: oid("A"), old: Atom::Int(1), new: Atom::Int(2) });
        b.push(AppliedUpdate::Modify { oid: oid("A"), old: Atom::Int(2), new: Atom::Int(3) });
        b.push(AppliedUpdate::Modify { oid: oid("A"), old: Atom::Int(3), new: Atom::Int(7) });
        let d = b.consolidate();
        assert_eq!(
            d.modifies,
            vec![ModifyDelta { oid: oid("A"), old: Atom::Int(1), new: Atom::Int(7) }]
        );
        assert_eq!(d.touched, vec![oid("A")]);
    }

    #[test]
    fn modify_back_to_original_is_dropped() {
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Modify { oid: oid("A"), old: Atom::Int(1), new: Atom::Int(9) });
        b.push(AppliedUpdate::Modify { oid: oid("A"), old: Atom::Int(9), new: Atom::Int(1) });
        assert!(b.consolidate().is_empty());
    }

    #[test]
    fn create_then_remove_cancels() {
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Create { oid: oid("X") });
        b.push(AppliedUpdate::Remove { oid: oid("X") });
        let d = b.consolidate();
        assert!(d.is_empty());
        // A lone create survives.
        let mut b2 = DeltaBatch::new();
        b2.push(AppliedUpdate::Create { oid: oid("X") });
        assert_eq!(b2.consolidate().created, vec![oid("X")]);
    }

    #[test]
    fn remove_then_recreate_survives_as_replacement() {
        // The record exists before and after, but it was replaced —
        // the old record's contributions (children, atom value) are
        // gone, so both the remove and the create must survive.
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Remove { oid: oid("X") });
        b.push(AppliedUpdate::Create { oid: oid("X") });
        let d = b.consolidate();
        assert_eq!(d.removed, vec![oid("X")]);
        assert_eq!(d.created, vec![oid("X")]);
        assert_eq!(d.touched, vec![oid("X")]);
    }

    #[test]
    fn touched_set_is_deduplicated_in_order() {
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Insert { parent: oid("P"), child: oid("C1") });
        b.push(AppliedUpdate::Insert { parent: oid("P"), child: oid("C2") });
        b.push(AppliedUpdate::Modify { oid: oid("C1"), old: Atom::Int(0), new: Atom::Int(1) });
        let d = b.consolidate();
        assert_eq!(d.touched, vec![oid("P"), oid("C1"), oid("C2")]);
    }

    #[test]
    fn distinct_edges_do_not_interfere() {
        let mut b = DeltaBatch::new();
        b.push(AppliedUpdate::Insert { parent: oid("P"), child: oid("C1") });
        b.push(AppliedUpdate::Delete { parent: oid("P"), child: oid("C2") });
        let d = b.consolidate();
        assert_eq!(d.edges.len(), 2);
        assert_eq!(d.cancelled_ops, 0);
    }

    #[test]
    fn batch_replays_to_same_store_state() {
        // Applying the raw batch and applying only its consolidation to
        // a copy of the pre-batch store yield identical object graphs.
        let mut base = crate::Store::new();
        base.create(Object::set("P", "s", &[])).unwrap();
        base.create(Object::atom("A", "a", 1i64)).unwrap();
        base.create(Object::atom("B", "b", 2i64)).unwrap();
        let mut full = base.clone();
        let mut b = DeltaBatch::new();
        b.push(full.insert_edge(oid("P"), oid("A")).unwrap());
        b.push(full.insert_edge(oid("P"), oid("B")).unwrap());
        b.push(full.delete_edge(oid("P"), oid("A")).unwrap());
        b.push(full.modify_atom(oid("B"), 5i64).unwrap());
        b.push(full.modify_atom(oid("B"), 2i64).unwrap());
        let d = b.consolidate();
        let mut net = base.clone();
        for e in &d.edges {
            match e.op {
                EdgeOp::Insert => { net.insert_edge(e.parent, e.child).unwrap(); }
                EdgeOp::Delete => { net.delete_edge(e.parent, e.child).unwrap(); }
            }
        }
        for m in &d.modifies {
            net.modify_atom(m.oid, m.new.clone()).unwrap();
        }
        for o in ["P", "A", "B"] {
            assert_eq!(net.get(oid(o)), full.get(oid(o)), "object {o}");
        }
    }
}
