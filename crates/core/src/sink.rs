//! The target interface of the maintenance algorithms.
//!
//! Algorithm 1 emits `V_insert` / `V_delete` operations. Depending on
//! the setting, those land in a full [`MaterializedView`] (delegates
//! with copied values), in a membership-only [`MemberSet`] (used for
//! compound-view shadows and for auxiliary caches that only need to
//! know *which* objects are in the view), or in a shared-delegate
//! [`ViewCluster`](crate::cluster::ViewCluster).

use crate::mview::MaterializedView;
use gsdb::{Object, Oid, Result};
use std::borrow::Borrow;
use std::collections::HashSet;

/// A maintenance target: something that receives view membership
/// changes.
pub trait ViewSink {
    /// Is `base` currently a member?
    fn contains(&self, base: Oid) -> bool;
    /// Add a member (idempotent). Returns `true` if newly added.
    fn insert_member(&mut self, obj: &Object) -> Result<bool>;
    /// Remove a member (idempotent). Returns `true` if it was present.
    fn delete_member(&mut self, base: Oid) -> Result<bool>;
    /// Refresh a *current* member's stored copy from the base object
    /// (paper §3.2: a delegate has "the same value as the original
    /// object"). No-op for membership-only sinks and non-members.
    /// Returns `true` if a copy was updated.
    fn refresh_member(&mut self, obj: &Object) -> Result<bool> {
        let _ = obj;
        Ok(false)
    }
    /// Current members' base OIDs, sorted by name (used by the batched
    /// maintainer's re-verification sweep).
    fn members(&self) -> Vec<Oid>;
}

impl ViewSink for MaterializedView {
    fn contains(&self, base: Oid) -> bool {
        self.contains_base(base)
    }

    fn insert_member(&mut self, obj: &Object) -> Result<bool> {
        let existed = self.contains_base(obj.oid);
        self.v_insert(obj)?;
        Ok(!existed)
    }

    fn delete_member(&mut self, base: Oid) -> Result<bool> {
        self.v_delete(base)
    }

    fn refresh_member(&mut self, obj: &Object) -> Result<bool> {
        self.refresh_delegate(obj)
    }

    fn members(&self) -> Vec<Oid> {
        self.members_base()
    }
}

/// View write-back, part one: bring `sink` to exactly `members`. Every
/// current member outside the set is deleted, every missing one that
/// `fetch` can still produce is inserted; members that stay are left
/// alone. Returns `(inserted, deleted)`, each sorted by name. It reads
/// every member of `sink`: a maintainer that knows its own membership
/// change writes that back with [`write_delta`] instead.
pub(crate) fn reconcile(
    sink: &mut dyn ViewSink,
    members: &HashSet<Oid>,
    fetch: &mut dyn FnMut(Oid) -> Option<Object>,
) -> Result<(Vec<Oid>, Vec<Oid>)> {
    let stale: Vec<Oid> = sink
        .members()
        .into_iter()
        .filter(|y| !members.contains(y))
        .collect();
    write_delta(sink, members.iter().copied(), stale, fetch)
}

/// Write one membership change back to `sink`: delete `gone`, insert
/// each of `came` that is missing and that `fetch` can still produce
/// (owned, or borrowed from a colocated store). Returns what changed
/// as `(inserted, deleted)`, each sorted by name.
pub(crate) fn write_delta<O: Borrow<Object>>(
    sink: &mut dyn ViewSink,
    came: impl IntoIterator<Item = Oid>,
    gone: impl IntoIterator<Item = Oid>,
    mut fetch: impl FnMut(Oid) -> Option<O>,
) -> Result<(Vec<Oid>, Vec<Oid>)> {
    let mut deleted = Vec::new();
    for y in gone {
        if sink.delete_member(y)? {
            deleted.push(y);
        }
    }
    let mut inserted = Vec::new();
    for y in came {
        if !sink.contains(y) {
            if let Some(obj) = fetch(y) {
                sink.insert_member(obj.borrow())?;
                inserted.push(y);
            }
        }
    }
    inserted.sort_by_key(|o| o.name());
    deleted.sort_by_key(|o| o.name());
    Ok((inserted, deleted))
}

/// View write-back, part two — content upkeep (paper §3.2): a delegate
/// carries "the same value as the original object", so every object in
/// `touched` that is a member has its stored copy refreshed from
/// `fetch`. It is independent of relevance: an off-path edge into a
/// member still changes that member's value, and a modify of an atomic
/// member changes its copy. `skip` names the members whose copy the
/// caller knows to be current (those it has just inserted); they cost
/// no fetch. Returns how many copies changed.
pub(crate) fn refresh_touched<O: Borrow<Object>>(
    sink: &mut dyn ViewSink,
    touched: &[Oid],
    skip: &[Oid],
    mut fetch: impl FnMut(Oid) -> Option<O>,
) -> Result<usize> {
    let mut refreshed = 0;
    for &o in touched {
        if sink.contains(o) && !skip.contains(&o) {
            if let Some(obj) = fetch(o) {
                refreshed += sink.refresh_member(obj.borrow())? as usize;
            }
        }
    }
    Ok(refreshed)
}

/// A membership-only view representation: just the set of base OIDs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemberSet {
    members: HashSet<Oid>,
}

impl MemberSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current members, sorted by name.
    pub fn members(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self.members.iter().copied().collect();
        v.sort_by_key(|o| o.name());
        v
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl ViewSink for MemberSet {
    fn contains(&self, base: Oid) -> bool {
        self.members.contains(&base)
    }

    fn insert_member(&mut self, obj: &Object) -> Result<bool> {
        Ok(self.members.insert(obj.oid))
    }

    fn delete_member(&mut self, base: Oid) -> Result<bool> {
        Ok(self.members.remove(&base))
    }

    fn members(&self) -> Vec<Oid> {
        MemberSet::members(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memberset_sink_semantics() {
        let mut s = MemberSet::new();
        let obj = Object::atom("a", "x", 1i64);
        assert!(s.insert_member(&obj).unwrap());
        assert!(!s.insert_member(&obj).unwrap(), "idempotent");
        assert!(s.contains(Oid::new("a")));
        assert!(s.delete_member(Oid::new("a")).unwrap());
        assert!(!s.delete_member(Oid::new("a")).unwrap());
        assert!(s.is_empty());
    }

    #[test]
    fn refresh_touched_fetches_only_members_outside_the_skip_set() {
        // A fetch is a source query in the warehouse: non-members and
        // members the caller has just inserted must cost none.
        let mut mv = MaterializedView::new("V");
        let (a, b, c) = (Oid::new("sink_a"), Oid::new("sink_b"), Oid::new("sink_c"));
        mv.insert_member(&Object::atom(a, "x", 1i64)).unwrap();
        mv.insert_member(&Object::atom(b, "x", 2i64)).unwrap();
        let mut fetched = Vec::new();
        let refreshed = refresh_touched(&mut mv, &[a, b, c], &[b], &mut |o| {
            fetched.push(o);
            Some(Object::atom(o, "x", 9i64))
        })
        .unwrap();
        assert_eq!((fetched, refreshed), (vec![a], 1));
        let copy = |o| {
            mv.delegate(mv.delegate_of(o).unwrap())
                .and_then(|d| d.atom_value().cloned())
        };
        assert_eq!((copy(a), copy(b)), (Some(9i64.into()), Some(2i64.into())));
    }

    #[test]
    fn materialized_view_sink_semantics() {
        let mut mv = MaterializedView::new("V");
        let obj = Object::atom("a", "x", 1i64);
        assert!(mv.insert_member(&obj).unwrap());
        assert!(!mv.insert_member(&obj).unwrap());
        assert!(ViewSink::contains(&mv, Oid::new("a")));
        assert!(mv.delete_member(Oid::new("a")).unwrap());
        assert!(mv.is_empty());
    }
}
