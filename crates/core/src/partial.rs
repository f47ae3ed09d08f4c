//! Partially materialized views (paper §6 open issue):
//!
//! "How does one define and maintain partially materialized views, for
//! example, views that materialize a few levels of objects and leave
//! the rest as pointers back to base data? This type of views may be
//! useful for caching some but not all data of interest."
//!
//! A [`PartialView`] materializes each member plus its descendants to
//! `depth` levels; below the horizon, copied set values keep *base*
//! OIDs — the "pointers back to base data". Maintenance combines
//! Algorithm 1 for membership with subtree re-copying for updates that
//! land inside a materialized region.

use crate::base::BaseAccess;
use crate::maintain::{Maintainer, Outcome};
use crate::sink::{MemberSet, ViewSink};
use crate::viewdef::SimpleViewDef;
use gsdb::{label::well_known, AppliedUpdate, Object, Oid, Result, Store, Value};
use std::collections::HashMap;

/// A partially materialized view.
#[derive(Debug)]
pub struct PartialView {
    view: Oid,
    depth: usize,
    store: Store,
    maintainer: Maintainer,
    members: MemberSet,
    /// Copied base OID → member it was copied under (for update
    /// routing). A base object copied under several members maps to
    /// all of them.
    copied_under: HashMap<Oid, Vec<Oid>>,
}

impl PartialView {
    /// Materialize `def` to `depth` levels below each member
    /// (`depth = 0` copies just the member objects, like a plain
    /// materialized view).
    pub fn materialize(
        def: SimpleViewDef,
        depth: usize,
        base: &mut dyn BaseAccess,
    ) -> Result<PartialView> {
        let view = def.view;
        let mut store = Store::new();
        store.create(Object {
            oid: view,
            label: well_known::mview(),
            value: Value::empty_set(),
        })?;
        let mut pv = PartialView {
            view,
            depth,
            store,
            maintainer: Maintainer::new(def.clone()),
            members: MemberSet::new(),
            copied_under: HashMap::new(),
        };
        for y in crate::recompute::recompute_members(&def, base) {
            pv.add_member(y, base)?;
        }
        Ok(pv)
    }

    /// The view object's OID.
    pub fn view_oid(&self) -> Oid {
        self.view
    }

    /// The view's store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Member base OIDs, sorted.
    pub fn members(&self) -> Vec<Oid> {
        self.members.members()
    }

    /// The delegate OID for a copied base object (member or copied
    /// descendant), if it is materialized.
    pub fn delegate_of(&self, base: Oid) -> Option<Oid> {
        let d = Oid::delegate(self.view, base);
        self.store.contains(d).then_some(d)
    }

    /// Number of copied objects (members plus materialized
    /// descendants).
    pub fn copied_count(&self) -> usize {
        self.store.len() - 1 // minus the view object
    }

    /// Process one base update.
    pub fn apply(&mut self, base: &mut dyn BaseAccess, update: &AppliedUpdate) -> Result<Outcome> {
        // 1. Membership maintenance via Algorithm 1 on a shadow.
        let mut shadow = self.members.clone();
        let out = self.maintainer.apply(&mut shadow, base, update)?;
        for &y in &out.inserted {
            self.add_member(y, base)?;
        }
        for &y in &out.deleted {
            self.remove_member(y)?;
        }
        // 2. Content maintenance: if the update touches an object
        // copied under a surviving member, re-copy those members'
        // subtrees (the materialized region must mirror base data).
        let mut to_refresh: Vec<Oid> = Vec::new();
        for oid in update.directly_affected() {
            if let Some(owners) = self.copied_under.get(&oid) {
                for &m in owners {
                    if self.members.contains(m) && !to_refresh.contains(&m) {
                        to_refresh.push(m);
                    }
                }
            }
        }
        // Remove all affected members before re-adding any: a copied
        // object shared between two affected members must be fully
        // dropped (owner list emptied) so the re-copy sees fresh data.
        for &m in &to_refresh {
            self.remove_member(m)?;
        }
        for m in to_refresh {
            self.add_member(m, base)?;
        }
        Ok(out)
    }

    fn add_member(&mut self, y: Oid, base: &mut dyn BaseAccess) -> Result<()> {
        let Some(obj) = base.fetch(y) else {
            return Ok(());
        };
        self.members.insert_member(&obj)?;
        let delegate = self.copy_subtree(&obj, y, self.depth, base)?;
        self.store.insert_edge(self.view, delegate)?;
        Ok(())
    }

    /// Copy `obj` (and, recursively, `levels` more levels of its
    /// children) into the view store under delegate OIDs. Children
    /// beyond the horizon stay as base OIDs. Returns the delegate OID.
    fn copy_subtree(
        &mut self,
        obj: &Object,
        member: Oid,
        levels: usize,
        base: &mut dyn BaseAccess,
    ) -> Result<Oid> {
        let delegate = Oid::delegate(self.view, obj.oid);
        if self.store.contains(delegate) {
            // Shared between members: record the extra owner.
            let owners = self.copied_under.entry(obj.oid).or_default();
            if !owners.contains(&member) {
                owners.push(member);
            }
            return Ok(delegate);
        }
        let value = match &obj.value {
            Value::Atom(a) => Value::Atom(a.clone()),
            Value::Set(children) => {
                if levels == 0 {
                    // Horizon: keep pointers back to base data.
                    Value::Set(children.clone())
                } else {
                    let mut swizzled = gsdb::OidSet::new();
                    let kids: Vec<Oid> = children.iter().collect();
                    // Create the delegate record first so recursive
                    // shared references terminate.
                    self.store.create(Object {
                        oid: delegate,
                        label: obj.label,
                        value: Value::empty_set(),
                    })?;
                    self.copied_under.entry(obj.oid).or_default().push(member);
                    for c in kids {
                        match base.fetch(c) {
                            Some(cobj) => {
                                let cd = self.copy_subtree(&cobj, member, levels - 1, base)?;
                                swizzled.insert(cd);
                            }
                            None => {
                                swizzled.insert(c); // dangling: keep base OID
                            }
                        }
                    }
                    // Fill in the children now that they exist.
                    for k in swizzled.iter() {
                        self.store.insert_edge(delegate, k)?;
                    }
                    return Ok(delegate);
                }
            }
        };
        self.store.create(Object {
            oid: delegate,
            label: obj.label,
            value,
        })?;
        let owners = self.copied_under.entry(obj.oid).or_default();
        if !owners.contains(&member) {
            owners.push(member);
        }
        Ok(delegate)
    }

    fn remove_member(&mut self, y: Oid) -> Result<()> {
        if !self.members.delete_member(y)? {
            return Ok(());
        }
        let delegate = Oid::delegate(self.view, y);
        if self.store.contains(delegate) {
            let _ = self.store.delete_edge(self.view, delegate);
        }
        // Drop every copied object owned solely by this member.
        let mut to_drop: Vec<Oid> = Vec::new();
        self.copied_under.retain(|&base_oid, owners| {
            owners.retain(|&m| m != y);
            if owners.is_empty() {
                to_drop.push(base_oid);
                false
            } else {
                true
            }
        });
        // Unlink then remove (children edges first).
        for b in &to_drop {
            let d = Oid::delegate(self.view, *b);
            if !self.store.contains(d) {
                continue;
            }
            let parents: Vec<Oid> = self.store.parents(d).iter().collect();
            for p in parents {
                let _ = self.store.delete_edge(p, d);
            }
        }
        for b in to_drop {
            let d = Oid::delegate(self.view, b);
            if self.store.contains(d) {
                self.store.apply(gsdb::Update::Remove { oid: d })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::LocalBase;
    use gsdb::samples;
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn yp_def() -> SimpleViewDef {
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64))
    }

    #[test]
    fn depth_zero_keeps_base_pointers() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let pv = PartialView::materialize(yp_def(), 0, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(pv.members(), vec![oid("P1")]);
        let d = pv.delegate_of(oid("P1")).unwrap();
        let obj = pv.store().get(d).unwrap();
        // All children are raw base OIDs.
        assert!(obj.children().contains(&oid("N1")));
        assert!(pv.delegate_of(oid("N1")).is_none());
        assert_eq!(pv.copied_count(), 1);
    }

    #[test]
    fn depth_one_copies_children_but_not_grandchildren() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let pv = PartialView::materialize(yp_def(), 1, &mut LocalBase::new(&store)).unwrap();
        // P1's children N1, A1, S1, P3 are copied...
        assert!(pv.delegate_of(oid("N1")).is_some());
        assert!(pv.delegate_of(oid("P3")).is_some());
        // ...but P3's children are not; P3's copy keeps base pointers.
        assert!(pv.delegate_of(oid("N3")).is_none());
        let p3d = pv.delegate_of(oid("P3")).unwrap();
        assert!(pv.store().get(p3d).unwrap().children().contains(&oid("N3")));
        // Copied edges are swizzled to delegates.
        let p1d = pv.delegate_of(oid("P1")).unwrap();
        assert!(pv.store().get(p1d).unwrap().children().contains(&p3d));
        assert_eq!(pv.copied_count(), 5); // P1 + 4 children
    }

    #[test]
    fn membership_maintenance_copies_new_subtrees() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let mut pv = PartialView::materialize(yp_def(), 1, &mut LocalBase::new(&store)).unwrap();
        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        let up = store.insert_edge(oid("P2"), oid("A2")).unwrap();
        let out = pv.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.inserted, vec![oid("P2")]);
        assert!(pv.delegate_of(oid("P2")).is_some());
        assert!(
            pv.delegate_of(oid("N2")).is_some(),
            "child copied at depth 1"
        );
    }

    #[test]
    fn member_departure_drops_its_copies() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let mut pv = PartialView::materialize(yp_def(), 1, &mut LocalBase::new(&store)).unwrap();
        let before = pv.copied_count();
        assert!(before >= 5);
        let up = store.modify_atom(oid("A1"), 80i64).unwrap();
        let out = pv.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.deleted, vec![oid("P1")]);
        assert_eq!(pv.copied_count(), 0);
        assert!(pv.delegate_of(oid("N1")).is_none());
    }

    #[test]
    fn updates_inside_materialized_region_refresh_copies() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let mut pv = PartialView::materialize(yp_def(), 1, &mut LocalBase::new(&store)).unwrap();
        // Modify the copied name atom (age stays ≤ 45 so membership is
        // unchanged, but the copy must refresh).
        let up = store.modify_atom(oid("N1"), "Johnny").unwrap();
        pv.apply(&mut LocalBase::new(&store), &up).unwrap();
        let n1d = pv.delegate_of(oid("N1")).unwrap();
        assert_eq!(pv.store().atom(n1d), Some(&gsdb::Atom::str("Johnny")));
    }

    #[test]
    fn updates_below_horizon_are_ignored() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let mut pv = PartialView::materialize(yp_def(), 1, &mut LocalBase::new(&store)).unwrap();
        let before = pv.copied_count();
        // N3 is below the horizon (grandchild of member P1): a modify
        // there must not disturb the view.
        let up = store.modify_atom(oid("N3"), "Jack").unwrap();
        let out = pv.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert!(!out.changed());
        assert_eq!(pv.copied_count(), before);
    }
}
