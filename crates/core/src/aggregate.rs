//! Aggregate views — one of the paper's closing open issues (§6):
//!
//! "How does one define and handle views in which the value of one
//! delegate object is obtained from more than one base objects, for
//! example, aggregate views?"
//!
//! An [`AggregateViewDef`] selects members with a simple view
//! definition and aggregates the atomic values in `member.agg_path`
//! into one synthetic delegate per member, plus a global rollup over
//! all members. Maintenance composes Algorithm 1 (membership) with
//! per-member recomputation of the aggregate — bounded work, since an
//! update can only change the aggregates of the members it is located
//! under.

use crate::base::BaseAccess;
use crate::maintain::Maintainer;
use crate::recompute::recompute_members;
use crate::sink::{MemberSet, ViewSink};
use crate::viewdef::SimpleViewDef;
use gsdb::{AppliedUpdate, Atom, Object, Oid, Path, Result, Store, Value};
use std::collections::HashMap;

pub use gsview_circuit::AggFn;

/// Definition of an aggregate view.
#[derive(Clone, Debug)]
pub struct AggregateViewDef {
    /// Member selection (the aggregate's grouping).
    pub members: SimpleViewDef,
    /// Path from each member to the aggregated atoms.
    pub agg_path: Path,
    /// The aggregate function.
    pub f: AggFn,
}

impl AggregateViewDef {
    /// Build a definition; the view OID comes from `members.view`.
    pub fn new(members: SimpleViewDef, agg_path: impl Into<Path>, f: AggFn) -> Self {
        AggregateViewDef {
            members,
            agg_path: agg_path.into(),
            f,
        }
    }
}

/// A maintained aggregate view.
///
/// Its store holds `<V, aggview, {V.Y…, V.total}>` where each `V.Y` is
/// an atomic object with the member's aggregate and `V.total` holds
/// the same function over *all* members' atoms.
#[derive(Debug)]
pub struct AggregateView {
    def: AggregateViewDef,
    maintainer: Maintainer,
    members: MemberSet,
    store: Store,
    /// Per-member aggregated values (the raw numbers, for global
    /// rollup).
    values: HashMap<Oid, Vec<f64>>,
}

impl AggregateView {
    /// Materialize from base data.
    pub fn materialize(def: AggregateViewDef, base: &mut dyn BaseAccess) -> Result<AggregateView> {
        let view = def.members.view;
        let mut store = Store::new();
        store.create(Object {
            oid: view,
            label: gsdb::Label::new("aggview"),
            value: Value::empty_set(),
        })?;
        let mut av = AggregateView {
            maintainer: Maintainer::new(def.members.clone()),
            def,
            members: MemberSet::new(),
            store,
            values: HashMap::new(),
        };
        for y in recompute_members(&av.def.members, base) {
            av.add_member(y, base)?;
        }
        av.refresh_total()?;
        Ok(av)
    }

    /// The view object's OID.
    pub fn view_oid(&self) -> Oid {
        self.def.members.view
    }

    /// The view's store (aggregate delegates + total).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Member base OIDs, sorted.
    pub fn members(&self) -> Vec<Oid> {
        self.members.members()
    }

    /// A member's aggregate value, if defined.
    pub fn aggregate_of(&self, member: Oid) -> Option<f64> {
        self.def.f.compute(self.values.get(&member)?)
    }

    /// The global rollup over all members' atoms.
    pub fn total(&self) -> Option<f64> {
        let all: Vec<f64> = self.values.values().flatten().copied().collect();
        self.def.f.compute(&all)
    }

    /// Process one base update: maintain membership with Algorithm 1,
    /// then re-aggregate members whose `agg_path` region the update
    /// touched.
    pub fn apply(&mut self, base: &mut dyn BaseAccess, update: &AppliedUpdate) -> Result<()> {
        // Membership.
        let mut shadow = self.members.clone();
        let out = self.maintainer.apply(&mut shadow, base, update)?;
        for &y in &out.inserted {
            self.add_member(y, base)?;
        }
        for &y in &out.deleted {
            self.remove_member(y)?;
        }
        // Aggregate upkeep: an update at N can only change aggregates
        // of members that are ancestors of N along a *prefix* of
        // agg_path (N at depth k below the member sits at the first k
        // labels). Locate them with the same ancestor machinery
        // Algorithm 1 uses.
        let mut affected: Vec<Oid> = Vec::new();
        for n in update.directly_affected() {
            for k in 0..=self.def.agg_path.len() {
                let prefix = Path(self.def.agg_path.labels()[..k].to_vec());
                if prefix.is_empty() {
                    if self.members.contains(n) && !affected.contains(&n) {
                        affected.push(n);
                    }
                } else {
                    for y in base.ancestors_all(n, &prefix) {
                        if self.members.contains(y) && !affected.contains(&y) {
                            affected.push(y);
                        }
                    }
                }
            }
        }
        for y in affected {
            self.reaggregate(y, base)?;
        }
        self.refresh_total()?;
        Ok(())
    }

    fn add_member(&mut self, y: Oid, base: &mut dyn BaseAccess) -> Result<()> {
        let Some(obj) = base.fetch(y) else {
            return Ok(());
        };
        self.members.insert_member(&obj)?;
        let delegate = Oid::delegate(self.view_oid(), y);
        self.store.create(Object {
            oid: delegate,
            label: gsdb::Label::new("agg"),
            value: Value::Atom(Atom::Real(0.0)),
        })?;
        self.store.insert_edge(self.view_oid(), delegate)?;
        self.reaggregate(y, base)
    }

    fn remove_member(&mut self, y: Oid) -> Result<()> {
        self.members.delete_member(y)?;
        self.values.remove(&y);
        let delegate = Oid::delegate(self.view_oid(), y);
        if self.store.contains(delegate) {
            self.store.delete_edge(self.view_oid(), delegate)?;
            self.store.apply(gsdb::Update::Remove { oid: delegate })?;
        }
        Ok(())
    }

    fn reaggregate(&mut self, y: Oid, base: &mut dyn BaseAccess) -> Result<()> {
        let atoms = base.eval(y, &self.def.agg_path, None);
        let values: Vec<f64> = atoms
            .into_iter()
            .filter_map(|o| base.fetch(o)?.atom_value()?.as_f64())
            .collect();
        let delegate = Oid::delegate(self.view_oid(), y);
        if let Some(v) = self.def.f.compute(&values) {
            self.store.modify_atom(delegate, Atom::Real(v))?;
        }
        self.values.insert(y, values);
        Ok(())
    }

    fn refresh_total(&mut self) -> Result<()> {
        let total_oid = Oid::new(&format!("{}.total", self.view_oid().name()));
        let value = Atom::Real(self.total().unwrap_or(0.0));
        if self.store.contains(total_oid) {
            self.store.modify_atom(total_oid, value)?;
        } else {
            self.store.create(Object {
                oid: total_oid,
                label: gsdb::Label::new("total"),
                value: Value::Atom(value),
            })?;
            self.store.insert_edge(self.view_oid(), total_oid)?;
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

    fn setup() -> (Store, AggregateView) {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = AggregateViewDef::new(
            SimpleViewDef::new("AGEAGG", "ROOT", "professor"),
            "age",
            AggFn::Avg,
        );
        let av = AggregateView::materialize(def, &mut LocalBase::new(&store)).unwrap();
        (store, av)
    }

    #[test]
    fn materializes_per_member_and_total() {
        let (_s, av) = setup();
        // P1 has age 45; P2 has no age (undefined avg).
        assert_eq!(av.members(), vec![oid("P1"), oid("P2")]);
        assert_eq!(av.aggregate_of(oid("P1")), Some(45.0));
        assert_eq!(av.aggregate_of(oid("P2")), None);
        assert_eq!(av.total(), Some(45.0));
        // The delegate objects exist and are queryable.
        let d = Oid::delegate(oid("AGEAGG"), oid("P1"));
        assert_eq!(av.store().atom(d), Some(&Atom::Real(45.0)));
    }

    #[test]
    fn modify_reaggregates_only_affected_member() {
        let (mut store, mut av) = setup();
        let up = store.modify_atom(oid("A1"), 41i64).unwrap();
        av.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(av.aggregate_of(oid("P1")), Some(41.0));
        assert_eq!(av.total(), Some(41.0));
    }

    #[test]
    fn multi_atom_members_aggregate_all_witnesses() {
        let (mut store, mut av) = setup();
        store.create(Object::atom("A1x", "age", 35i64)).unwrap();
        let up = store.insert_edge(oid("P1"), oid("A1x")).unwrap();
        av.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(av.aggregate_of(oid("P1")), Some(40.0)); // (45+35)/2
    }

    #[test]
    fn membership_changes_update_the_rollup() {
        let (mut store, mut av) = setup();
        // P2 gains an age: joins the aggregation domain with a value.
        store.create(Object::atom("A2", "age", 55i64)).unwrap();
        let up = store.insert_edge(oid("P2"), oid("A2")).unwrap();
        av.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(av.aggregate_of(oid("P2")), Some(55.0));
        assert_eq!(av.total(), Some(50.0)); // (45+55)/2
                                            // P1 drops out entirely.
        let up = store.delete_edge(oid("ROOT"), oid("P1")).unwrap();
        av.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(av.members(), vec![oid("P2")]);
        assert_eq!(av.total(), Some(55.0));
    }

    #[test]
    fn two_level_agg_path_tracks_intermediate_inserts() {
        // agg_path = student.age: an insert at the intermediate
        // (student) level must re-aggregate the professor (this was
        // missed when upkeep walked suffixes instead of prefixes).
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = AggregateViewDef::new(
            SimpleViewDef::new("SAGG", "ROOT", "professor"),
            "student.age",
            AggFn::Sum,
        );
        let mut av = AggregateView::materialize(def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(av.aggregate_of(oid("P1")), Some(20.0)); // P3's age
                                                            // New student subtree under P1, inserted at the intermediate
                                                            // level (the student edge, not the age atom).
        store.create(Object::atom("A9", "age", 25i64)).unwrap();
        store
            .create(Object::set("P9", "student", &[oid("A9")]))
            .unwrap();
        let up = store.insert_edge(oid("P1"), oid("P9")).unwrap();
        av.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(av.aggregate_of(oid("P1")), Some(45.0)); // 20 + 25
    }

    #[test]
    fn sum_count_min_max() {
        assert_eq!(AggFn::Count.compute(&[1.0, 2.0]), Some(2.0));
        assert_eq!(AggFn::Sum.compute(&[1.0, 2.0]), Some(3.0));
        assert_eq!(AggFn::Min.compute(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(AggFn::Max.compute(&[3.0, 1.0, 2.0]), Some(3.0));
        assert_eq!(AggFn::Min.compute(&[]), None);
        assert_eq!(AggFn::Count.compute(&[]), Some(0.0));
    }

    #[test]
    fn min_handles_retraction_by_recompute() {
        // Deleting the current minimum forces a correct re-aggregate
        // (the classic non-incrementalizable case for min/max).
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        store.create(Object::atom("A1lo", "age", 10i64)).unwrap();
        store.insert_edge(oid("P1"), oid("A1lo")).unwrap();
        let def = AggregateViewDef::new(
            SimpleViewDef::new("MINAGE", "ROOT", "professor"),
            "age",
            AggFn::Min,
        );
        let mut av = AggregateView::materialize(def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(av.aggregate_of(oid("P1")), Some(10.0));
        let up = store.delete_edge(oid("P1"), oid("A1lo")).unwrap();
        av.apply(&mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(av.aggregate_of(oid("P1")), Some(45.0));
    }

    #[test]
    fn aggregates_with_condition_on_members() {
        // Average salary of Johns.
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = AggregateViewDef::new(
            SimpleViewDef::new("JSAL", "ROOT", "professor")
                .with_cond("name", Pred::new(CmpOp::Eq, "John")),
            "salary",
            AggFn::Sum,
        );
        let av = AggregateView::materialize(def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(av.members(), vec![oid("P1")]);
        assert_eq!(av.total(), Some(100_000.0));
    }
}
