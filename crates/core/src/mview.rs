//! Materialized views: stored copies of view objects (paper §3.2).
//!
//! A materialized view is itself an ordinary GSDB: an object
//! `<MV, mview, set, value(MV)>` whose members are *delegate objects*.
//! Each base object `O` in the view has a delegate with semantic OID
//! `MV.O`, the same label and type, and (initially) the same value —
//! which means delegate values contain *base* OIDs until edges are
//! swizzled.

use gsdb::{label::well_known, FastMap, GsdbError, Object, Oid, Result, Store, Value};

/// The operations recorded by [`MaterializedView::v_insert`] /
/// [`MaterializedView::v_delete`] — useful for warehouses that ship
/// view deltas onward and for tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewDelta {
    /// A delegate was created and added to the view.
    Inserted {
        /// The base object.
        base: Oid,
        /// Its delegate.
        delegate: Oid,
    },
    /// A delegate was removed from the view.
    Deleted {
        /// The base object.
        base: Oid,
        /// Its (former) delegate.
        delegate: Oid,
    },
}

/// A materialized view: the view object plus its delegates, stored in
/// their own GSDB (so the view can live at a different site from the
/// base data).
#[derive(Clone, Debug)]
pub struct MaterializedView {
    view: Oid,
    store: Store,
    base_to_delegate: FastMap<Oid, Oid>,
    deltas: Vec<ViewDelta>,
    record_deltas: bool,
}

impl MaterializedView {
    /// Create an empty materialized view with view object `view`
    /// (label `mview`, empty set value).
    pub fn new(view: impl Into<Oid>) -> Self {
        let view = view.into();
        let mut store = Store::new();
        store
            .create(Object {
                oid: view,
                label: well_known::mview(),
                value: Value::empty_set(),
            })
            .expect("fresh store cannot contain the view object");
        MaterializedView {
            view,
            store,
            base_to_delegate: FastMap::default(),
            deltas: Vec::new(),
            record_deltas: false,
        }
    }

    /// [`v_insert`](Self::v_insert) each of `members`, in order. Into a
    /// view nothing was written to since [`new`](Self::new), the view
    /// store is built whole, in one step — the view object and then
    /// each delegate in member order, the view object holding them all
    /// — and ends as the inserts would leave it: the same slots,
    /// members and version (1 + 2 × members), and the same `Inserted`
    /// deltas when they are recorded.
    pub(crate) fn insert_all(&mut self, members: impl IntoIterator<Item = Object>) -> Result<()> {
        if self.store.version() != 1 {
            for obj in members {
                self.v_insert(&obj)?;
            }
            return Ok(());
        }
        let mut records = vec![Object {
            oid: self.view,
            label: well_known::mview(),
            value: Value::empty_set(),
        }];
        let mut delegates = Vec::new();
        for mut obj in members {
            let base = obj.oid;
            if self.base_to_delegate.contains_key(&base) {
                continue;
            }
            let delegate = Oid::delegate(self.view, base);
            obj.oid = delegate;
            records.push(obj);
            delegates.push(delegate);
            self.base_to_delegate.insert(base, delegate);
            if self.record_deltas {
                self.deltas.push(ViewDelta::Inserted { base, delegate });
            }
        }
        let version = 1 + 2 * delegates.len() as u64;
        records[0].value = Value::set_of(delegates);
        self.store = Store::from_records(records, version)?;
        Ok(())
    }

    /// Enable recording of view deltas (drained via
    /// [`MaterializedView::drain_deltas`]).
    pub fn record_deltas(&mut self, on: bool) {
        self.record_deltas = on;
    }

    /// Drain the recorded deltas.
    pub fn drain_deltas(&mut self) -> Vec<ViewDelta> {
        std::mem::take(&mut self.deltas)
    }

    /// The view object's OID.
    pub fn view_oid(&self) -> Oid {
        self.view
    }

    /// The view's own GSDB (the "view database" of Figure 3).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Number of delegates.
    pub fn len(&self) -> usize {
        self.base_to_delegate.len()
    }

    /// True iff the view has no members.
    pub fn is_empty(&self) -> bool {
        self.base_to_delegate.is_empty()
    }

    /// Is `base` represented in the view?
    pub fn contains_base(&self, base: Oid) -> bool {
        self.base_to_delegate.contains_key(&base)
    }

    /// The delegate OID of `base`, if present.
    pub fn delegate_of(&self, base: Oid) -> Option<Oid> {
        self.base_to_delegate.get(&base).copied()
    }

    /// The base OIDs of all members, sorted by name.
    pub fn members_base(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self.base_to_delegate.keys().copied().collect();
        v.sort_by_key(|o| o.name());
        v
    }

    /// The delegate objects' OIDs, sorted by name.
    pub fn members_delegates(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self.base_to_delegate.values().copied().collect();
        v.sort_by_key(|o| o.name());
        v
    }

    /// A delegate object, by its delegate OID.
    pub fn delegate(&self, delegate: Oid) -> Option<&Object> {
        self.store.get(delegate).filter(|o| o.oid != self.view)
    }

    /// `V_insert(MV, MV.Y)` (paper §4.3): create the delegate of
    /// `base_obj` and insert it into `value(MV)`. If the delegate is
    /// already a child of the view object, "the insertion will be
    /// ignored".
    pub fn v_insert(&mut self, base_obj: &Object) -> Result<Oid> {
        let base = base_obj.oid;
        if let Some(&d) = self.base_to_delegate.get(&base) {
            return Ok(d); // already present; no-op
        }
        let delegate = Oid::delegate(self.view, base);
        let mut copy = base_obj.clone();
        copy.oid = delegate;
        // Values are copied verbatim: OIDs inside remain *base* OIDs
        // until swizzled (paper §3.2).
        self.store.create(copy)?;
        self.store.insert_edge(self.view, delegate)?;
        self.base_to_delegate.insert(base, delegate);
        if self.record_deltas {
            self.deltas.push(ViewDelta::Inserted { base, delegate });
        }
        Ok(delegate)
    }

    /// `V_delete(MV, MV.Y)` (paper §4.3): remove `base`'s delegate
    /// from `value(MV)`. "If V.N2 is not a child of V.N1, then nothing
    /// happens." The orphaned delegate object is garbage collected
    /// immediately.
    pub fn v_delete(&mut self, base: Oid) -> Result<bool> {
        let Some(delegate) = self.base_to_delegate.remove(&base) else {
            return Ok(false);
        };
        self.store.delete_edge(self.view, delegate)?;
        // Mini garbage collection: auxiliary subobjects that live in
        // the view database (timestamps, §3.2) die with their delegate.
        let orphan_candidates: Vec<Oid> = self
            .store
            .get(delegate)
            .map(|o| o.children().to_vec())
            .unwrap_or_default();
        self.store.apply(gsdb::Update::Remove { oid: delegate })?;
        for c in orphan_candidates {
            let unreferenced = self.store.contains(c) && self.store.parents(c).is_empty();
            if unreferenced {
                self.store.apply(gsdb::Update::Remove { oid: c })?;
            }
        }
        if self.record_deltas {
            self.deltas.push(ViewDelta::Deleted { base, delegate });
        }
        Ok(true)
    }

    /// Refresh a current member's delegate from the base object: the
    /// delegate's value is replaced, in place, with a fresh (unswizzled)
    /// copy of the base value — the delegate keeps its slot and its
    /// place in the view object, and only the children that changed
    /// move in the view store's parent index ([`Store::replace_value`]).
    /// Returns `false` when `obj` is not a member or its copy is
    /// already current. Callers that keep views swizzled re-swizzle
    /// afterwards.
    pub fn refresh_delegate(&mut self, obj: &Object) -> Result<bool> {
        let Some(delegate) = self.delegate_of(obj.oid) else {
            return Ok(false);
        };
        if self
            .delegate(delegate)
            .is_some_and(|d| d.value == obj.value)
        {
            return Ok(false);
        }
        self.store.replace_value(delegate, obj.value.clone())?;
        Ok(true)
    }

    /// Attach an auxiliary object (e.g. a timestamp subobject, §3.2)
    /// to a delegate, inside the view database. The auxiliary object
    /// becomes a child of the delegate.
    pub fn adopt_auxiliary(&mut self, delegate: Oid, aux: Object) -> Result<Oid> {
        if self.delegate(delegate).is_none() {
            return Err(GsdbError::NoSuchObject(delegate));
        }
        let aux_oid = aux.oid;
        self.store.create(aux)?;
        self.store.insert_edge(delegate, aux_oid)?;
        Ok(aux_oid)
    }

    /// Update an auxiliary atomic object's value in place.
    pub fn set_auxiliary_value(&mut self, aux: Oid, value: gsdb::Atom) -> Result<()> {
        self.store.modify_atom(aux, value).map(|_| ())
    }

    /// Apply an arbitrary edit to a delegate object's value (paper
    /// §3.2: "it is possible to 'manually' change the object values
    /// without affecting base objects ... this has to be done with
    /// care"). The delegate is rewritten in place
    /// ([`Store::replace_value`]).
    pub fn edit_delegate(&mut self, delegate: Oid, f: impl FnOnce(&mut Value)) -> Result<()> {
        if delegate == self.view {
            return Err(GsdbError::NoSuchObject(delegate));
        }
        let mut value = self
            .store
            .get(delegate)
            .map(|o| o.value.clone())
            .ok_or(GsdbError::NoSuchObject(delegate))?;
        f(&mut value);
        self.store.replace_value(delegate, value)
    }

    /// Swizzle all edges (paper §3.2): in every delegate's value,
    /// replace each base OID that has a delegate in this view with
    /// that delegate's OID. Returns the number of OIDs rewritten.
    pub fn swizzle(&mut self) -> Result<usize> {
        self.rewrite_values(|map, o| map.get(&o).copied())
    }

    /// Undo swizzling: replace delegate OIDs inside values with their
    /// base OIDs.
    pub fn unswizzle(&mut self) -> Result<usize> {
        let inverse: FastMap<Oid, Oid> = self
            .base_to_delegate
            .iter()
            .map(|(&b, &d)| (d, b))
            .collect();
        self.rewrite_values(move |_, o| inverse.get(&o).copied())
    }

    /// Remove every remaining base OID from delegate values (after a
    /// full swizzle this yields the self-contained "access control"
    /// view of §3.2: "any later user query using objects in MV will be
    /// restricted to access only MV objects"). Returns OIDs dropped.
    pub fn strip_base_oids(&mut self) -> Result<usize> {
        let delegates: Vec<Oid> = self.members_delegates();
        let mut dropped = 0;
        for d in delegates {
            let Some(obj) = self.store.get(d) else {
                continue;
            };
            let Some(set) = obj.value.as_set() else {
                continue;
            };
            let to_drop: Vec<Oid> = set
                .iter()
                .filter(|o| {
                    o.split_delegate()
                        .map(|(v, _)| v != self.view)
                        .unwrap_or(true)
                })
                .collect();
            if to_drop.is_empty() {
                continue;
            }
            dropped += to_drop.len();
            self.edit_delegate(d, |v| {
                if let Some(s) = v.as_set_mut() {
                    for o in &to_drop {
                        s.remove(*o);
                    }
                }
            })?;
        }
        Ok(dropped)
    }

    fn rewrite_values(
        &mut self,
        map_oid: impl Fn(&FastMap<Oid, Oid>, Oid) -> Option<Oid>,
    ) -> Result<usize> {
        let delegates: Vec<Oid> = self.members_delegates();
        let mapping = self.base_to_delegate.clone();
        let mut rewritten = 0;
        for d in delegates {
            let Some(obj) = self.store.get(d) else {
                continue;
            };
            let Some(set) = obj.value.as_set() else {
                continue;
            };
            let changes: Vec<(Oid, Oid)> = set
                .iter()
                .filter_map(|o| map_oid(&mapping, o).map(|n| (o, n)))
                .filter(|(o, n)| o != n)
                .collect();
            if changes.is_empty() {
                continue;
            }
            rewritten += changes.len();
            self.edit_delegate(d, |v| {
                if let Some(s) = v.as_set_mut() {
                    for (old, new) in &changes {
                        s.remove(*old);
                        s.insert(*new);
                    }
                }
            })?;
        }
        Ok(rewritten)
    }

    /// Render the view in the paper's notation (Figure 3 style).
    pub fn render(&self) -> String {
        gsdb::display::render(&self.store, self.view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::Atom;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn p1_object() -> Object {
        Object::set(
            "P1",
            "professor",
            &[oid("N1"), oid("A1"), oid("S1"), oid("P3")],
        )
    }

    #[test]
    fn v_insert_creates_semantic_delegate() {
        // Figure 3: MVJ.P1 with value {N1,A1,S1,P3} (base OIDs).
        let mut mv = MaterializedView::new("MVJ");
        mv.v_insert(&p1_object()).unwrap();
        let d = mv.delegate_of(oid("P1")).unwrap();
        assert_eq!(d.name(), "MVJ.P1");
        let obj = mv.delegate(d).unwrap();
        assert_eq!(obj.label.as_str(), "professor");
        assert_eq!(obj.children().len(), 4);
        assert!(obj.children().contains(&oid("N1")), "values keep base OIDs");
        // The view object lists the delegate.
        assert!(mv.store().get(oid("MVJ")).unwrap().children().contains(&d));
    }

    #[test]
    fn v_insert_is_idempotent() {
        let mut mv = MaterializedView::new("MVJ");
        mv.v_insert(&p1_object()).unwrap();
        mv.v_insert(&p1_object()).unwrap();
        assert_eq!(mv.len(), 1);
    }

    #[test]
    fn v_delete_removes_and_is_noop_when_absent() {
        let mut mv = MaterializedView::new("MVJ");
        mv.v_insert(&p1_object()).unwrap();
        assert!(mv.v_delete(oid("P1")).unwrap());
        assert!(!mv.v_delete(oid("P1")).unwrap());
        assert_eq!(mv.len(), 0);
        assert!(mv.delegate(oid("MVJ.P1")).is_none(), "delegate GCed");
    }

    #[test]
    fn swizzle_rewrites_only_present_members() {
        let mut mv = MaterializedView::new("MVJ");
        mv.v_insert(&p1_object()).unwrap();
        mv.v_insert(&Object::set("P3", "student", &[oid("N3")]))
            .unwrap();
        let n = mv.swizzle().unwrap();
        assert_eq!(n, 1, "only P3 inside P1's value has a delegate");
        let d = mv.delegate(oid("MVJ.P1")).unwrap();
        assert!(d.children().contains(&Oid::delegate(oid("MVJ"), oid("P3"))));
        assert!(
            d.children().contains(&oid("N1")),
            "N1 has no delegate, stays"
        );
        // Swizzling is reversible.
        let back = mv.unswizzle().unwrap();
        assert_eq!(back, 1);
        let d = mv.delegate(oid("MVJ.P1")).unwrap();
        assert!(d.children().contains(&oid("P3")));
    }

    #[test]
    fn strip_base_oids_yields_self_contained_view() {
        let mut mv = MaterializedView::new("MVJ");
        mv.v_insert(&p1_object()).unwrap();
        mv.v_insert(&Object::set("P3", "student", &[oid("N3")]))
            .unwrap();
        mv.swizzle().unwrap();
        let dropped = mv.strip_base_oids().unwrap();
        assert_eq!(dropped, 4, "N1,A1,S1 from P1 and N3 from P3");
        let d = mv.delegate(oid("MVJ.P1")).unwrap();
        assert_eq!(d.children(), &[Oid::delegate(oid("MVJ"), oid("P3"))]);
    }

    #[test]
    fn edit_delegate_changes_value_locally() {
        let mut mv = MaterializedView::new("V");
        mv.v_insert(&Object::atom("X", "note", "hello")).unwrap();
        let d = mv.delegate_of(oid("X")).unwrap();
        mv.edit_delegate(d, |v| *v = Value::Atom(Atom::str("edited")))
            .unwrap();
        assert_eq!(
            mv.delegate(d).unwrap().atom_value(),
            Some(&Atom::str("edited"))
        );
    }

    #[test]
    fn editing_the_view_object_is_rejected() {
        let mut mv = MaterializedView::new("V");
        assert!(mv.edit_delegate(oid("V"), |_| {}).is_err());
    }

    #[test]
    fn deltas_are_recorded_when_enabled() {
        let mut mv = MaterializedView::new("V");
        mv.record_deltas(true);
        mv.v_insert(&Object::atom("X", "x", 1i64)).unwrap();
        mv.v_delete(oid("X")).unwrap();
        let deltas = mv.drain_deltas();
        assert_eq!(deltas.len(), 2);
        assert!(matches!(deltas[0], ViewDelta::Inserted { .. }));
        assert!(matches!(deltas[1], ViewDelta::Deleted { .. }));
        assert!(mv.drain_deltas().is_empty());
    }

    #[test]
    fn members_listing_sorted() {
        let mut mv = MaterializedView::new("V");
        mv.v_insert(&Object::atom("b", "x", 1i64)).unwrap();
        mv.v_insert(&Object::atom("a", "x", 2i64)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("a"), oid("b")]);
        assert_eq!(mv.members_delegates(), vec![oid("V.a"), oid("V.b")]);
    }
}
