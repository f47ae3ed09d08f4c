//! What one consolidated delta changes in the live graph, read off the
//! store at two versions.
//!
//! A [`LiveDelta`] is the change a batch makes to the *live* graph: an
//! edge is live in a store when both endpoints have records — the query
//! engine skips dangling children, and so do the delta circuits that
//! consume it. The pre-batch side is any store at the version before
//! the batch (a circuit keeps a fork of the store it last stepped to),
//! so neither side needs a private copy of the graph. A
//! [`DeltaBatch`](crate::DeltaBatch) derives the change once and hands
//! the same one to every maintainer that asks
//! ([`DeltaBatch::live`](crate::DeltaBatch::live)).
//!
//! [`LiveDelta::derive`] visits every pair whose liveness the batch can
//! have changed:
//!
//! * the delta's own edges;
//! * each removed object's edges in `base`, both directions;
//! * each created object's edges in the final store, both directions —
//!   children embedded in the `Create` and dangling edges a re-created
//!   OID brings back to life alike.
//!
//! Incoming edges come from the final store's parent index. An index
//! entry outlives a `Remove` while some parent still names the removed
//! OID, and a parent that stopped naming it did so through an edge
//! delta or its own removal, so the final store names every parent a
//! removed object had in `base` that the other two sources miss.
//!
//! Each pair emits `live(store) − live(base)`. A *replaced* object —
//! removed and re-created in one batch — may change its label, so a
//! pair into it whose child label differs retracts under the old label
//! and asserts under the new one; a pair identical on both sides emits
//! nothing, which is what a retraction and re-assertion net to.
//!
//! Atoms come from the two stores as well: a removed record's from
//! `base`, a created one's from the final store, a modified survivor's
//! from both.

use crate::{Atom, ConsolidatedDelta, FastSet, Label, Object, Oid, Store};

/// One live-edge change. The child's label is the one it had on the
/// side of the change: a removed child has a record only in `base`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeEvent {
    /// The set object whose children list names `child`.
    pub parent: Oid,
    /// The child end of the edge.
    pub child: Oid,
    /// The child's label on the side of the change.
    pub child_label: Label,
    /// `+1` for an edge that became live, `-1` for one that stopped.
    pub w: i64,
}

/// An atomic value that appeared, went or changed: `old` is `None`
/// for a created record, `new` for a removed one.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomEvent {
    /// The atomic object.
    pub oid: Oid,
    /// Its label.
    pub label: Label,
    /// The value before the batch; `None` for a created record.
    pub old: Option<Atom>,
    /// The value after it; `None` for a removed record.
    pub new: Option<Atom>,
}

/// The live-graph change between two versions of a store: the
/// low-level events a circuit step propagates.
#[derive(Debug, Default)]
pub struct LiveDelta {
    /// Edges that became or stopped being live.
    pub edges: Vec<EdgeEvent>,
    /// Objects whose record appeared.
    pub created: Vec<Oid>,
    /// Objects whose record went.
    pub removed: Vec<Oid>,
    /// Atoms of created and removed records, and changes of surviving
    /// ones.
    pub atoms: Vec<AtomEvent>,
}

impl LiveDelta {
    /// The change that loads `store` into a circuit with empty counts:
    /// every object is created. No edge events: with no count anywhere,
    /// they would carry nothing, and propagation from the seeds and
    /// base terms walks the store's edges.
    pub fn load(store: &Store) -> LiveDelta {
        let mut ev = LiveDelta::default();
        for o in store.iter() {
            ev.created.push(o.oid);
            ev.atom(o, None, o.atom_value());
        }
        ev
    }

    /// The events that take the live graph of `base` to that of
    /// `store`, given the consolidated `delta` between them.
    pub fn derive(delta: &ConsolidatedDelta, base: &Store, store: &Store) -> LiveDelta {
        let churned: FastSet<Oid> = delta
            .removed
            .iter()
            .chain(&delta.created)
            .copied()
            .collect();
        let mut pairs: FastSet<(Oid, Oid)> =
            delta.edges.iter().map(|e| (e.parent, e.child)).collect();
        let sides = delta.removed.iter().map(|&o| (o, base));
        for (o, side) in sides.chain(delta.created.iter().map(|&o| (o, store))) {
            pairs.extend(side.children(o).iter().map(|&c| (o, c)));
            pairs.extend(store.parents(o).iter().map(|p| (p, o)));
        }

        let mut ev = LiveDelta::default();
        for (parent, child) in pairs {
            let (was, now) = (
                live_label(base, parent, child),
                live_label(store, parent, child),
            );
            if was == now {
                continue;
            }
            let mut push = |label: Option<Label>, w| {
                if let Some(child_label) = label {
                    ev.edges.push(EdgeEvent {
                        parent,
                        child,
                        child_label,
                        w,
                    });
                }
            };
            push(was, -1);
            push(now, 1);
        }
        for o in delta.removed.iter().filter_map(|&o| base.get(o)) {
            ev.removed.push(o.oid);
            ev.atom(o, o.atom_value(), None);
        }
        for o in delta.created.iter().filter_map(|&o| store.get(o)) {
            ev.created.push(o.oid);
            ev.atom(o, None, o.atom_value());
        }
        for m in &delta.modifies {
            if churned.contains(&m.oid) {
                continue;
            }
            if let (Some(old), Some(new)) = (base.get(m.oid), store.get(m.oid)) {
                ev.atom(new, old.atom_value(), new.atom_value());
            }
        }
        ev
    }

    fn atom(&mut self, record: &Object, old: Option<&Atom>, new: Option<&Atom>) {
        if old != new {
            self.atoms.push(AtomEvent {
                oid: record.oid,
                label: record.label,
                old: old.cloned(),
                new: new.cloned(),
            });
        }
    }

    /// Total weight of the stream — the |Δin| a step reports.
    pub fn weight(&self) -> u64 {
        (self.edges.len() + self.created.len() + self.removed.len() + self.atoms.len()) as u64
    }
}

/// The child's label if `parent → child` is live in `store`.
fn live_label(store: &Store, parent: Oid, child: Oid) -> Option<Label> {
    let label = store.get(child)?.label;
    let set = store.get(parent)?.value.as_set()?;
    set.contains(child).then_some(label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppliedUpdate, DeltaBatch, Object, Update};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn edge(ev: &LiveDelta, parent: &str, child: &str, label: &str, w: i64) -> bool {
        ev.edges.contains(&EdgeEvent {
            parent: oid(parent),
            child: oid(child),
            child_label: Label::new(label),
            w,
        })
    }

    fn seed() -> Store {
        let mut s = Store::new();
        s.create(Object::atom("A", "age", 40i64)).unwrap();
        s.create(Object::set("P", "person", &[oid("A")])).unwrap();
        s.create(Object::set("R", "root", &[oid("P")])).unwrap();
        s
    }

    /// Apply `updates` to `s` and derive their events from the store
    /// before and after.
    fn step(s: &mut Store, updates: Vec<Update>) -> LiveDelta {
        let base = s.fork();
        let mut batch = DeltaBatch::new();
        for u in updates {
            batch.push(s.apply(u).unwrap());
        }
        LiveDelta::derive(&batch.consolidate(), &base, s)
    }

    #[test]
    fn remove_synthesizes_incident_edge_deletes() {
        let mut s = seed();
        let ev = step(&mut s, vec![Update::Remove { oid: oid("P") }]);
        // Both incident edges die, though R's record still names P.
        assert_eq!(ev.edges.len(), 2);
        assert!(edge(&ev, "P", "A", "age", -1));
        assert!(edge(&ev, "R", "P", "person", -1));
        assert_eq!(ev.removed, vec![oid("P")]);
        assert!(!s.children(oid("R")).is_empty(), "store edge dangles");
    }

    #[test]
    fn recreate_resurrects_dangling_edges() {
        let mut s = seed();
        step(&mut s, vec![Update::Remove { oid: oid("P") }]);
        let ev = step(
            &mut s,
            vec![Update::Create {
                object: Object::set("P", "person", &[oid("A")]),
            }],
        );
        // The outgoing edge comes from the embedded children; the
        // dangling R→P edge resurrects through R's record.
        assert_eq!(ev.edges.len(), 2);
        assert!(edge(&ev, "P", "A", "age", 1));
        assert!(edge(&ev, "R", "P", "person", 1));
        assert_eq!(ev.created, vec![oid("P")]);
    }

    #[test]
    fn replacement_moves_edges_between_labels() {
        let mut s = seed();
        let ev = step(
            &mut s,
            vec![
                Update::Remove { oid: oid("P") },
                Update::Create {
                    object: Object::set("P", "staff", &[oid("A")]),
                },
            ],
        );
        // The edge into P changes label; the edge out of it is the
        // same on both sides and nets to nothing.
        assert_eq!(ev.edges.len(), 2);
        assert!(edge(&ev, "R", "P", "person", -1));
        assert!(edge(&ev, "R", "P", "staff", 1));
        assert_eq!((ev.created.len(), ev.removed.len()), (1, 1));
    }

    #[test]
    fn modify_is_idempotent() {
        let mut s = seed();
        let base = s.fork();
        let mut batch = DeltaBatch::new();
        batch.push(s.apply(Update::modify("A", 50i64)).unwrap());
        let delta = batch.consolidate();
        let ev = LiveDelta::derive(&delta, &base, &s);
        let change = AtomEvent {
            oid: oid("A"),
            label: Label::new("age"),
            old: Some(40i64.into()),
            new: Some(50i64.into()),
        };
        assert_eq!(ev.atoms, vec![change]);
        // Against a base that already holds the new value, the same
        // delta is no change at all.
        assert!(LiveDelta::derive(&delta, &s, &s).atoms.is_empty());
        let replay = DeltaBatch::from_ops(vec![AppliedUpdate::Modify {
            oid: oid("A"),
            old: 40i64.into(),
            new: 50i64.into(),
        }]);
        assert_eq!(LiveDelta::derive(&replay.consolidate(), &s, &s).weight(), 0);
    }
}
