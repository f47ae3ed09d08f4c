//! View clusters (paper §3.2):
//!
//! "Notice that if a remote site defines several views that share
//! common objects, it may end up with multiple delegates for the same
//! base object. The notion of a *view cluster* avoids this, by making
//! all views in a cluster share delegates."
//!
//! A cluster owns one delegate pool (delegate OIDs are formed with the
//! cluster's OID) and one view object per member view; each view's
//! value points at shared delegates. Delegates are reference-counted
//! and garbage collected when the last view drops them.

use crate::base::BaseAccess;
use crate::maintain::Maintainer;
use crate::recompute::recompute_members;
use crate::viewdef::SimpleViewDef;
use gsdb::{label::well_known, Object, Oid, Result, Store, StoreConfig, Value};
use std::collections::{HashMap, HashSet};

/// A cluster of materialized views sharing one delegate pool.
#[derive(Debug)]
pub struct ViewCluster {
    cluster: Oid,
    store: Store,
    views: Vec<(SimpleViewDef, Maintainer)>,
    /// view OID → member base OIDs.
    membership: HashMap<Oid, HashSet<Oid>>,
    /// base OID → number of views containing it.
    refcount: HashMap<Oid, usize>,
}

impl ViewCluster {
    /// Create an empty cluster named `cluster`.
    pub fn new(cluster: impl Into<Oid>) -> Self {
        ViewCluster {
            cluster: cluster.into(),
            store: Store::with_config(StoreConfig {
                parent_index: true,
                label_index: false,
                ..StoreConfig::default()
            }),
            views: Vec::new(),
            membership: HashMap::new(),
            refcount: HashMap::new(),
        }
    }

    /// The cluster's store (view objects + shared delegates).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Add a view to the cluster and materialize it from `base`.
    pub fn add_view(&mut self, def: SimpleViewDef, base: &mut dyn BaseAccess) -> Result<Oid> {
        let view = def.view;
        self.store.create(Object {
            oid: view,
            label: well_known::mview(),
            value: Value::empty_set(),
        })?;
        self.membership.insert(view, HashSet::new());
        for y in recompute_members(&def, base) {
            if let Some(obj) = base.fetch(y) {
                self.add_member(view, &obj)?;
            }
        }
        self.views.push((def.clone(), Maintainer::new(def)));
        Ok(view)
    }

    /// Number of distinct delegates in the pool.
    pub fn delegate_count(&self) -> usize {
        self.refcount.len()
    }

    /// The shared delegate OID for a base object, if any view holds it.
    pub fn delegate_of(&self, base: Oid) -> Option<Oid> {
        self.refcount
            .contains_key(&base)
            .then(|| Oid::delegate(self.cluster, base))
    }

    /// Members (base OIDs) of one view, sorted.
    pub fn members_of(&self, view: Oid) -> Vec<Oid> {
        let mut v: Vec<Oid> = self
            .membership
            .get(&view)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_by_key(|o| o.name());
        v
    }

    /// Process one base update against every view in the cluster.
    pub fn apply(
        &mut self,
        base: &mut dyn BaseAccess,
        update: &gsdb::AppliedUpdate,
    ) -> Result<()> {
        // Run Algorithm 1 per view on a membership shadow, then apply
        // the membership changes against the shared pool.
        let views: Vec<(Oid, Maintainer)> = self
            .views
            .iter()
            .map(|(d, m)| (d.view, m.clone()))
            .collect();
        for (view, maintainer) in views {
            let mut shadow = ClusterShadow {
                current: self.membership.get(&view).cloned().unwrap_or_default(),
                inserted: Vec::new(),
                deleted: Vec::new(),
            };
            maintainer.apply(&mut shadow, base, update)?;
            for obj in shadow.inserted {
                self.add_member(view, &obj)?;
            }
            for b in shadow.deleted {
                self.remove_member(view, b)?;
            }
        }
        // Content upkeep (§3.2) on the shared delegate pool.
        let affected = match update {
            gsdb::AppliedUpdate::Insert { parent, .. }
            | gsdb::AppliedUpdate::Delete { parent, .. } => Some(*parent),
            gsdb::AppliedUpdate::Modify { oid, .. } => Some(*oid),
            _ => None,
        };
        if let Some(a) = affected {
            if self.refcount.contains_key(&a) {
                if let Some(obj) = base.fetch(a) {
                    self.refresh_delegate_value(&obj)?;
                }
            }
        }
        Ok(())
    }

    /// Replace a shared delegate's value with a fresh copy of the base
    /// object's value.
    fn refresh_delegate_value(&mut self, obj: &Object) -> Result<()> {
        let delegate = Oid::delegate(self.cluster, obj.oid);
        if !self.store.contains(delegate) {
            return Ok(());
        }
        let parents: Vec<Oid> = self
            .store
            .parents(delegate)
            .map(|p| p.iter().collect())
            .unwrap_or_default();
        for p in &parents {
            self.store.delete_edge(*p, delegate)?;
        }
        self.store.apply(gsdb::Update::Remove { oid: delegate })?;
        let mut copy = obj.clone();
        copy.oid = delegate;
        self.store.create(copy)?;
        for p in parents {
            self.store.insert_edge(p, delegate)?;
        }
        Ok(())
    }

    fn add_member(&mut self, view: Oid, obj: &Object) -> Result<()> {
        let base = obj.oid;
        let members = self.membership.entry(view).or_default();
        if !members.insert(base) {
            return Ok(());
        }
        let delegate = Oid::delegate(self.cluster, base);
        let rc = self.refcount.entry(base).or_insert(0);
        if *rc == 0 {
            let mut copy = obj.clone();
            copy.oid = delegate;
            self.store.create(copy)?;
        }
        *rc += 1;
        self.store.insert_edge(view, delegate)?;
        Ok(())
    }

    fn remove_member(&mut self, view: Oid, base: Oid) -> Result<()> {
        let members = self.membership.entry(view).or_default();
        if !members.remove(&base) {
            return Ok(());
        }
        let delegate = Oid::delegate(self.cluster, base);
        self.store.delete_edge(view, delegate)?;
        let rc = self.refcount.get_mut(&base).expect("refcount tracks members");
        *rc -= 1;
        if *rc == 0 {
            self.refcount.remove(&base);
            self.store.apply(gsdb::Update::Remove { oid: delegate })?;
        }
        Ok(())
    }
}

/// Membership shadow used while running Algorithm 1 for one view of
/// the cluster: collects the inserted objects / deleted bases to apply
/// against the shared pool afterwards.
struct ClusterShadow {
    current: HashSet<Oid>,
    inserted: Vec<Object>,
    deleted: Vec<Oid>,
}

impl crate::sink::ViewSink for ClusterShadow {
    fn contains(&self, base: Oid) -> bool {
        self.current.contains(&base)
    }

    fn insert_member(&mut self, obj: &Object) -> Result<bool> {
        if self.current.insert(obj.oid) {
            self.inserted.push(obj.clone());
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn delete_member(&mut self, base: Oid) -> Result<bool> {
        if self.current.remove(&base) {
            self.deleted.push(base);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn members(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self.current.iter().copied().collect();
        v.sort_by_key(|o| o.name());
        v
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

    fn setup() -> (Store, ViewCluster) {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let mut cluster = ViewCluster::new("CL");
        // Two views that overlap on P1: young professors, and Johns.
        cluster
            .add_view(
                SimpleViewDef::new("YP", "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
                &mut LocalBase::new(&store),
            )
            .unwrap();
        cluster
            .add_view(
                SimpleViewDef::new("VJ", "ROOT", "professor")
                    .with_cond("name", Pred::new(CmpOp::Eq, "John")),
                &mut LocalBase::new(&store),
            )
            .unwrap();
        (store, cluster)
    }

    #[test]
    fn shared_objects_have_one_delegate() {
        let (_store, cluster) = setup();
        // P1 is in both views but the pool holds one delegate.
        assert_eq!(cluster.members_of(oid("YP")), vec![oid("P1")]);
        assert_eq!(cluster.members_of(oid("VJ")), vec![oid("P1")]);
        assert_eq!(cluster.delegate_count(), 1);
        let d = cluster.delegate_of(oid("P1")).unwrap();
        assert_eq!(d.name(), "CL.P1");
        // Both view objects point at the same delegate.
        assert!(cluster.store().get(oid("YP")).unwrap().children().contains(&d));
        assert!(cluster.store().get(oid("VJ")).unwrap().children().contains(&d));
    }

    #[test]
    fn delegate_survives_until_last_view_drops_it() {
        let (mut store, mut cluster) = setup();
        // Age 80: P1 leaves YP but stays in VJ.
        let up = store.modify_atom(oid("A1"), 80i64).unwrap();
        cluster.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert!(cluster.members_of(oid("YP")).is_empty());
        assert_eq!(cluster.members_of(oid("VJ")), vec![oid("P1")]);
        assert_eq!(cluster.delegate_count(), 1, "still referenced by VJ");
        // Rename: P1 leaves VJ too; delegate is collected.
        let up = store.modify_atom(oid("N1"), "Jane").unwrap();
        cluster.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(cluster.delegate_count(), 0);
        assert!(cluster.delegate_of(oid("P1")).is_none());
        assert!(!cluster.store().contains(oid("CL.P1")));
    }

    #[test]
    fn new_members_join_the_pool() {
        let (mut store, mut cluster) = setup();
        store
            .create(gsdb::Object::atom("A2", "age", 40i64))
            .unwrap();
        let up = store.insert_edge(oid("P2"), oid("A2")).unwrap();
        cluster.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(cluster.members_of(oid("YP")), vec![oid("P1"), oid("P2")]);
        assert_eq!(cluster.delegate_count(), 2);
    }
}
