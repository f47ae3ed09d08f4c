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

use crate::update::AppliedUpdate;
use crate::value::Atom;
use crate::Oid;
use std::collections::HashMap;

/// An ordered collection of applied updates awaiting maintenance.
#[derive(Clone, Debug, Default)]
pub struct DeltaBatch {
    ops: Vec<AppliedUpdate>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch holding the given updates, in order.
    pub fn from_ops(ops: Vec<AppliedUpdate>) -> Self {
        DeltaBatch { ops }
    }

    /// Append one applied update.
    pub fn push(&mut self, op: AppliedUpdate) {
        self.ops.push(op);
    }

    /// Append a run of applied updates.
    pub fn extend(&mut self, ops: impl IntoIterator<Item = AppliedUpdate>) {
        self.ops.extend(ops);
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
        std::mem::take(&mut self.ops)
    }

    /// Reduce the batch to its net effect. Surviving deltas keep the
    /// arrival order of their first occurrence.
    pub fn consolidate(&self) -> ConsolidatedDelta {
        // Net edge count per (parent, child): +1 per insert, -1 per
        // delete. A valid update sequence keeps this in {-1, 0, +1}.
        let mut edge_net: HashMap<(Oid, Oid), (i64, usize)> = HashMap::new();
        // Per modified OID: value before the batch, value after it.
        let mut mods: HashMap<Oid, (Atom, Atom, usize)> = HashMap::new();
        // Net record count per OID: +1 per create, -1 per remove. The
        // bool remembers whether the *first* record op was a remove:
        // remove-then-create nets to zero record churn but is a
        // *replacement* (the re-created object starts from a fresh
        // value), not a no-op, and must survive consolidation as a
        // remove plus a create.
        let mut record_net: HashMap<Oid, (i64, usize, bool)> = HashMap::new();

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
        let mut seen: std::collections::HashSet<Oid> = std::collections::HashSet::new();
        let touch = |o: Oid, touched: &mut Vec<Oid>, seen: &mut std::collections::HashSet<Oid>| {
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
#[derive(Clone, Debug, Default)]
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
    use crate::Object;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
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
