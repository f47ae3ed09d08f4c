//! The delta-circuit maintenance backend (DBSP-style IVM).
//!
//! This module is the bridge between the view classes of this crate
//! and `gsview-circuit`: a [`CircuitSource`] names a view definition
//! over constant paths (simple, compound, aggregate) and lowers it to
//! the circuit IR; a [`CircuitMaintainer`] owns the compiled
//! circuit plus its count state and consumes the same delta batches
//! the Algorithm 1 maintainers do, keeping a [`MaterializedView`] in
//! sync in O(|Δ|) per commit: a step writes back its own membership
//! change, not the view. A batch handed to several maintainers
//! consolidates once for all of them and derives its live-graph change
//! once for every circuit stepped from the same version
//! ([`DeltaBatch::consolidated`], [`DeltaBatch::live`]).
//!
//! The planner alone decides per view which backend runs
//! ([`choose_backend`], asked through
//! [`CircuitSource::planned_backend`]): Algorithm 1 repairs single-path
//! views locally, constant or wildcard, so circuits are reserved for
//! multi-branch unions and aggregates. No maintainer or driver takes a
//! backend from its caller; a head-to-head (experiment E18, the circuit
//! oracle) builds a [`CircuitMaintainer`] directly.
//!
//! Circuits take constant paths only, so a wildcard view has no
//! circuit source: under a `*`, a cycle in the base gives the
//! derivation counts infinitely many derivations.
//!
//! ## Epoch consistency and warm restart
//!
//! Circuit state is valid only for the exact store version it was
//! stepped to: the version of the store fork the circuit keeps as its
//! pre-batch side ([`Circuit::version`]). If a batch arrives whose
//! pre-state does not match (a recovery replay, a fork, a missed
//! epoch), the maintainer falls back to an epoch-consistent rebuild —
//! [`Circuit::init`] against the current store — which is by
//! construction equivalent to recomputation. That guard is the only
//! fallback: a step over constant paths cannot fail. After a rebuild
//! the view may be any number of batches behind, so a rebuild alone
//! reconciles it against the full member set. The guard runs before
//! a circuit asks the batch for its live change, so a stale circuit
//! neither reads nor fills the batch's memo.

use crate::aggregate::AggregateViewDef;
use crate::maintain::BatchOutcome;
use crate::mview::MaterializedView;
use crate::sink::{reconcile, refresh_touched, write_delta};
use crate::viewdef::{CompoundViewDef, SimpleViewDef};
use gsdb::{DeltaBatch, Oid, Result, Store};
use gsview_circuit::{AggDef, BranchDef, Circuit, CircuitDef, CondDef, StepOutput};
use gsview_query::{choose_backend, MaintBackend, PathExpr};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A view definition the circuit backend can maintain: every path in
/// it is constant.
#[derive(Clone, Debug)]
pub enum CircuitSource {
    /// A §4.2 simple view (constant paths, one branch).
    Simple(SimpleViewDef),
    /// A union of simple branches.
    Compound(CompoundViewDef),
    /// An aggregate view (membership branch + per-member rollup).
    Aggregate(AggregateViewDef),
}

fn simple_branch(def: &SimpleViewDef) -> BranchDef {
    BranchDef {
        root: def.root,
        sel: def.sel_path.clone(),
        cond: def.cond.as_ref().map(|c| CondDef {
            path: c.path.clone(),
            pred: c.pred.clone(),
        }),
    }
}

impl CircuitSource {
    /// The view object's OID.
    pub fn view(&self) -> Oid {
        match self {
            CircuitSource::Simple(d) => d.view,
            CircuitSource::Compound(d) => d.view,
            CircuitSource::Aggregate(d) => d.members.view,
        }
    }

    /// Lower to the circuit IR.
    pub fn lower(&self) -> CircuitDef {
        match self {
            CircuitSource::Simple(d) => CircuitDef {
                branches: vec![simple_branch(d)],
                aggregate: None,
            },
            CircuitSource::Compound(d) => CircuitDef {
                branches: d.branches.iter().map(simple_branch).collect(),
                aggregate: None,
            },
            CircuitSource::Aggregate(d) => CircuitDef {
                branches: vec![simple_branch(&d.members)],
                aggregate: Some(AggDef {
                    path: d.agg_path.clone(),
                    f: d.f,
                }),
            },
        }
    }

    /// What the planner would pick for this shape, with the reason.
    pub fn planned_backend(&self) -> (MaintBackend, String) {
        match self {
            CircuitSource::Simple(d) => {
                choose_backend(&PathExpr::from_path(&d.sel_path), 1, false)
            }
            CircuitSource::Compound(d) => choose_backend(
                &PathExpr::from_path(
                    &d.branches.first().map(|b| b.sel_path.clone()).unwrap_or_default(),
                ),
                d.branches.len(),
                false,
            ),
            CircuitSource::Aggregate(d) => {
                choose_backend(&PathExpr::from_path(&d.members.sel_path), 1, true)
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    circuit: Circuit,
    rebuilds: u64,
    steps: u64,
}

/// A maintainer that keeps a view synchronized through a compiled
/// delta circuit instead of Algorithm 1.
///
/// The circuit state lives behind a mutex so the maintainer exposes
/// the same `&self` batch interface as [`GeneralMaintainer`]
/// (`crate::general::GeneralMaintainer`).
#[derive(Debug)]
pub struct CircuitMaintainer {
    source: CircuitSource,
    inner: Mutex<Inner>,
}

impl CircuitMaintainer {
    /// Compile a maintainer for `source`. No state is built until the
    /// first [`CircuitMaintainer::initialize`] or batch arrives.
    pub fn new(source: CircuitSource) -> Self {
        let circuit = Circuit::compile(source.lower());
        CircuitMaintainer {
            source,
            inner: Mutex::new(Inner {
                circuit,
                rebuilds: 0,
                steps: 0,
            }),
        }
    }

    /// The definition this maintainer serves.
    pub fn source(&self) -> &CircuitSource {
        &self.source
    }

    /// The view object's OID.
    pub fn view(&self) -> Oid {
        self.source.view()
    }

    /// The circuit state, even behind a lock a panicking thread
    /// poisoned. That is sound because a half-run call leaves nothing
    /// a later call trusts: `step` takes the base fork before it
    /// propagates and `init` recompiles before it loads, so a call that
    /// panicked leaves `version() == None`, the version guard fails,
    /// and the next batch rebuilds.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How many epoch-consistent rebuilds have run (version mismatch
    /// or first build).
    pub fn rebuilds(&self) -> u64 {
        self.inner().rebuilds
    }

    /// How many incremental steps have run.
    pub fn steps(&self) -> u64 {
        self.inner().steps
    }

    /// Build (or rebuild) circuit state against `store` and fill `mv`
    /// to match. Equivalent to recomputation. An empty `mv` is filled
    /// in [`members`](Self::members) order, built whole if nothing was
    /// written to it yet.
    pub fn initialize(&self, mv: &mut MaterializedView, store: &Store) -> Result<()> {
        self.rebuild(&mut self.inner(), store);
        if mv.is_empty() {
            return mv.insert_all(self.members().into_iter().filter_map(|y| store.get(y).cloned()));
        }
        self.reconcile_view(mv, store).map(|_| ())
    }

    fn rebuild(&self, inner: &mut Inner, store: &Store) {
        gsview_obs::event!(
            "maint.circuit.rebuild",
            "view" = self.view().name().to_string(),
        );
        inner.circuit.init(store);
        inner.rebuilds += 1;
    }

    /// Bring `mv` to the circuit's full member set — after a rebuild,
    /// when nothing smaller says how far behind `mv` is.
    fn reconcile_view(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
    ) -> Result<(Vec<Oid>, Vec<Oid>)> {
        let members: HashSet<Oid> = self.inner().circuit.members().into_iter().collect();
        reconcile(mv, &members, |y| store.get(y))
    }

    /// Step the circuit by one batch, with the store in its post-batch
    /// state, and return the step's membership delta — or `None` after
    /// a rebuild.
    ///
    /// Falls back to an epoch-consistent rebuild when the circuit's
    /// version does not match the batch's pre-state. Only a circuit
    /// that passes the version guard asks the batch for its live
    /// change, so the batch's memo serves circuits at the pre-batch
    /// version alone.
    fn advance(&self, store: &Store, batch: &DeltaBatch) -> Option<StepOutput> {
        let mut inner = self.inner();
        let pre = store.version().saturating_sub(batch.len() as u64);
        if inner.circuit.version() == Some(pre) {
            let out = inner.circuit.step(batch, store);
            inner.steps += 1;
            return Some(out);
        }
        self.rebuild(&mut inner, store);
        None
    }

    /// Process a batch of updates with the store in its final state —
    /// the circuit-backed counterpart of
    /// [`GeneralMaintainer::apply_batch`](crate::general::GeneralMaintainer::apply_batch).
    /// `mv` is the view this maintainer last wrote: a step writes back
    /// only what changed since. The batch's consolidation and live
    /// change are computed once for every maintainer it is handed.
    pub fn apply_batch(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        batch: &DeltaBatch,
    ) -> Result<BatchOutcome> {
        let delta = batch.consolidated();
        let _span = gsview_obs::span!(
            "maint.circuit.apply",
            "view" = self.source.view().name().to_string(),
            "input_ops" = delta.input_ops,
            "consolidated_ops" = delta.len(),
        );
        let fetch = |y: Oid| store.get(y);
        let (inserted, deleted) = match self.advance(store, batch) {
            // `mv` held the circuit's members before the step, so the
            // step's own change brings it up to date: O(|Δ|) work
            // however large the view.
            Some(step) => write_delta(mv, step.inserted, step.deleted, fetch)?,
            None => self.reconcile_view(mv, store)?,
        };
        // Content upkeep (§3.2): the circuit tracks membership and
        // aggregates; surviving members whose values changed still
        // need their stored copies refreshed.
        let refreshed = refresh_touched(mv, &delta.touched, &inserted, fetch)?;
        Ok(BatchOutcome {
            input_ops: delta.input_ops,
            consolidated_ops: delta.len(),
            // Every surviving delta flows through the circuit; nothing
            // is screened out up front (screening happens per product
            // state inside the operators).
            relevant_deltas: delta.len(),
            inserted,
            deleted,
            refreshed,
            ..BatchOutcome::default()
        })
    }

    /// Current members, sorted by name (aggregate sources included).
    pub fn members(&self) -> Vec<Oid> {
        let mut v = self.inner().circuit.members();
        v.sort_by_key(|o| o.name());
        v
    }

    /// A member's aggregate value (aggregate sources only).
    pub fn aggregate_of(&self, member: Oid) -> Option<f64> {
        self.inner().circuit.aggregate_of(member)
    }

    /// The global rollup over all members (aggregate sources only).
    pub fn total(&self) -> Option<f64> {
        self.inner().circuit.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFn;
    use gsdb::{samples, Update};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    #[test]
    fn simple_source_tracks_algorithm1() {
        let mut store = person_store();
        let def = SimpleViewDef::new("YP", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let cm = CircuitMaintainer::new(CircuitSource::Simple(def));
        let mut mv = MaterializedView::new("YP");
        cm.initialize(&mut mv, &store).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1")]);

        let mut batch = DeltaBatch::new();
        batch.push(
            store
                .apply(Update::Create {
                    object: gsdb::Object::atom("A2", "age", 40i64),
                })
                .unwrap(),
        );
        batch.push(store.insert_edge(oid("ROOT"), oid("A2")).unwrap());
        batch.push(store.delete_edge(oid("ROOT"), oid("A2")).unwrap());
        batch.push(store.insert_edge(oid("P2"), oid("A2")).unwrap());
        let out = cm.apply_batch(&mut mv, &store, &batch).unwrap();
        assert_eq!(out.inserted, vec![oid("P2")]);
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P2")]);
        assert_eq!(cm.steps(), 1);
    }

    #[test]
    fn version_mismatch_triggers_epoch_consistent_rebuild() {
        let mut store = person_store();
        let def = CompoundViewDef::new(
            "MVJ",
            vec![
                SimpleViewDef::new("MVJ", "ROOT", "professor")
                    .with_cond("name", Pred::new(CmpOp::Eq, "John")),
                SimpleViewDef::new("MVJ", "ROOT", "student")
                    .with_cond("name", Pred::new(CmpOp::Eq, "John")),
                SimpleViewDef::new("MVJ", "ROOT", "secretary")
                    .with_cond("name", Pred::new(CmpOp::Eq, "John")),
            ],
        );
        let cm = CircuitMaintainer::new(CircuitSource::Compound(def));
        let mut mv = MaterializedView::new("MVJ");
        cm.initialize(&mut mv, &store).unwrap();
        assert_eq!(cm.rebuilds(), 1);
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P3")]);

        // Apply updates the maintainer never sees...
        store.apply(Update::modify("N2", "John")).unwrap();
        // ...then hand it a batch with only the tail: versions no
        // longer line up, so it must rebuild rather than step.
        let mut batch = DeltaBatch::new();
        batch.push(store.apply(Update::modify("N4", "John")).unwrap());
        cm.apply_batch(&mut mv, &store, &batch).unwrap();
        assert_eq!(cm.rebuilds(), 2);
        assert_eq!(cm.steps(), 0);
        assert_eq!(
            mv.members_base(),
            vec![oid("P1"), oid("P2"), oid("P3"), oid("P4")]
        );
    }

    #[test]
    fn a_poisoned_lock_recovers_and_the_next_batch_rebuilds() {
        let mut store = person_store();
        let def = SimpleViewDef::new("PLR", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let cm = CircuitMaintainer::new(CircuitSource::Simple(def.clone()));
        let mut mv = MaterializedView::new("PLR");
        cm.initialize(&mut mv, &store).unwrap();

        // A step that panics after taking the base fork: it leaves a
        // circuit without a version, behind a poisoned lock.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut inner = cm.inner.lock().unwrap();
            inner.circuit = Circuit::compile(cm.source.lower());
            panic!("step interrupted");
        }));
        assert!(poison.is_err() && cm.inner.is_poisoned());

        let modify = |store: &mut Store, oid: &str, age: i64| {
            DeltaBatch::from_ops(vec![store.apply(Update::modify(oid, age)).unwrap()])
        };
        let want = |store: &Store| {
            crate::recompute::recompute(&def, &mut crate::base::LocalBase::new(store))
                .unwrap()
                .members_base()
        };
        let batch = modify(&mut store, "A1", 50);
        cm.apply_batch(&mut mv, &store, &batch).unwrap();
        assert_eq!((cm.rebuilds(), cm.steps()), (2, 0));
        assert_eq!(mv.members_base(), want(&store));
        assert_eq!(cm.members(), want(&store));

        let batch = modify(&mut store, "A1", 30);
        cm.apply_batch(&mut mv, &store, &batch).unwrap();
        assert_eq!((cm.rebuilds(), cm.steps()), (2, 1));
        assert_eq!(mv.members_base(), want(&store));
        assert_eq!(mv.members_base(), vec![oid("P1")]);
    }

    #[test]
    fn stepped_write_back_equals_full_reconcile() {
        let mut store = person_store();
        let def = CompoundViewDef::new(
            "CWB",
            vec![
                SimpleViewDef::new("CWB", "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
                SimpleViewDef::new("CWB", "ROOT", "secretary"),
            ],
        );
        let cm = CircuitMaintainer::new(CircuitSource::Compound(def));
        let mut mv = MaterializedView::new("CWB");
        cm.initialize(&mut mv, &store).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P4")]);
        let mut full = mv.clone();

        let mut batch = DeltaBatch::new();
        batch.push(store.apply(Update::modify("A1", 50i64)).unwrap());
        batch.push(
            store
                .apply(Update::Create {
                    object: gsdb::Object::atom("A2", "age", 30i64),
                })
                .unwrap(),
        );
        batch.push(store.insert_edge(oid("P2"), oid("A2")).unwrap());
        batch.push(store.delete_edge(oid("ROOT"), oid("P4")).unwrap());
        let out = cm.apply_batch(&mut mv, &store, &batch).unwrap();
        assert_eq!(cm.steps(), 1);

        // The step's own change is exactly what a full reconcile of
        // the pre-batch view would have found.
        let members: HashSet<Oid> = cm.members().into_iter().collect();
        let (inserted, deleted) =
            reconcile(&mut full, &members, |y| store.get(y)).unwrap();
        assert_eq!(out.inserted, vec![oid("P2")]);
        assert_eq!(out.deleted, vec![oid("P1"), oid("P4")]);
        assert_eq!((out.inserted, out.deleted), (inserted, deleted));
        assert_eq!(mv.members_base(), full.members_base());
    }

    #[test]
    fn stale_view_behind_a_rebuild_is_fully_reconciled() {
        let mut store = person_store();
        let def = SimpleViewDef::new("SRB", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let cm = CircuitMaintainer::new(CircuitSource::Simple(def.clone()));
        let mut mv = MaterializedView::new("SRB");
        cm.initialize(&mut mv, &store).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1")]);

        // Updates the maintainer never sees: P1 leaves, P2 joins...
        store.apply(Update::modify("A1", 50i64)).unwrap();
        store
            .apply(Update::Create {
                object: gsdb::Object::atom("A2", "age", 30i64),
            })
            .unwrap();
        store.apply(Update::insert("P2", "A2")).unwrap();
        // ...then a batch whose own delta changes no membership.
        let mut batch = DeltaBatch::new();
        batch.push(store.apply(Update::modify("A3", 21i64)).unwrap());
        let out = cm.apply_batch(&mut mv, &store, &batch).unwrap();
        assert_eq!((cm.rebuilds(), cm.steps()), (2, 0));
        assert_eq!(out.inserted, vec![oid("P2")]);
        assert_eq!(out.deleted, vec![oid("P1")]);
        let want = crate::recompute::recompute(&def, &mut crate::base::LocalBase::new(&store));
        assert_eq!(mv.members_base(), want.unwrap().members_base());
    }

    #[test]
    fn a_stale_circuit_in_a_shared_batch_rebuilds_and_the_rest_step() {
        let mut store = person_store();
        let stale = SimpleViewDef::new("SSB", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let compound = CompoundViewDef::new(
            "CSB",
            vec![
                SimpleViewDef::new("CSB", "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
                SimpleViewDef::new("CSB", "ROOT", "secretary"),
            ],
        );
        let aggregate = AggregateViewDef::new(
            SimpleViewDef::new("ASB", "ROOT", "professor"),
            "student.age",
            AggFn::Sum,
        );
        let sources = [
            CircuitSource::Simple(stale.clone()),
            CircuitSource::Compound(compound),
            CircuitSource::Aggregate(aggregate),
        ];
        let mut maintained: Vec<(CircuitMaintainer, MaterializedView)> = sources
            .iter()
            .map(|source| {
                let cm = CircuitMaintainer::new(source.clone());
                let mut mv = MaterializedView::new(cm.view());
                cm.initialize(&mut mv, &store).unwrap();
                (cm, mv)
            })
            .collect();

        // The first maintainer misses a batch that moves its members.
        let missed = DeltaBatch::from_ops(vec![store.apply(Update::modify("A1", 50i64)).unwrap()]);
        for (cm, mv) in &mut maintained[1..] {
            cm.apply_batch(mv, &store, &missed).unwrap();
        }
        // The next batch goes to all three, the stale one first: had it
        // derived the batch's live change, the rest would step from it.
        let shared = DeltaBatch::from_ops(vec![
            store
                .apply(Update::Create {
                    object: gsdb::Object::atom("A2", "age", 40i64),
                })
                .unwrap(),
            store.insert_edge(oid("P2"), oid("A2")).unwrap(),
        ]);
        let counts = |m: &[(CircuitMaintainer, MaterializedView)]| {
            m.iter().map(|(cm, _)| (cm.steps(), cm.rebuilds())).collect::<Vec<_>>()
        };
        let before = counts(&maintained);
        for (cm, mv) in &mut maintained {
            cm.apply_batch(mv, &store, &shared).unwrap();
        }
        let after = counts(&maintained);
        assert_eq!(after[0], (before[0].0, before[0].1 + 1), "the stale circuit rebuilds");
        for (b, a) in before[1..].iter().zip(&after[1..]) {
            assert_eq!(*a, (b.0 + 1, b.1), "an up-to-date circuit steps");
        }

        let want = crate::recompute::recompute(&stale, &mut crate::base::LocalBase::new(&store))
            .unwrap()
            .members_base();
        assert_eq!(want, vec![oid("P2")]);
        assert_eq!(maintained[0].0.members(), want);
        assert_eq!(maintained[0].1.members_base(), want);
        for ((cm, mv), source) in maintained.iter().zip(&sources) {
            let fresh = CircuitMaintainer::new(source.clone());
            let mut fresh_mv = MaterializedView::new(fresh.view());
            fresh.initialize(&mut fresh_mv, &store).unwrap();
            assert_eq!(cm.members(), fresh.members(), "{}", cm.view());
            assert_eq!(mv.members_base(), fresh_mv.members_base(), "{}", cm.view());
            for y in fresh.members() {
                assert_eq!(cm.aggregate_of(y), fresh.aggregate_of(y), "{} at {y}", cm.view());
            }
        }
    }

    #[test]
    fn aggregate_source_exposes_values() {
        let store = person_store();
        let def = AggregateViewDef::new(
            SimpleViewDef::new("AGG", "ROOT", "professor"),
            "student.age",
            AggFn::Avg,
        );
        let cm = CircuitMaintainer::new(CircuitSource::Aggregate(def));
        let mut mv = MaterializedView::new("AGG");
        cm.initialize(&mut mv, &store).unwrap();
        for y in cm.members() {
            // Professors without students have an undefined average.
            let vals = gsdb::path::eval(&store, y, &gsdb::Path::parse("student.age"), &|_| true);
            assert_eq!(cm.aggregate_of(y).is_some(), !vals.is_empty(), "{y}");
        }
    }

    #[test]
    fn planner_routes_each_shape() {
        let simple = CircuitSource::Simple(SimpleViewDef::new("V", "ROOT", "professor"));
        assert_eq!(simple.planned_backend().0, MaintBackend::Algorithm1);
        // Wildcard shapes have no circuit source: circuits take
        // constant paths only.
        let (wildcard, why) = choose_backend(&PathExpr::parse("*.age").unwrap(), 1, false);
        assert_eq!(wildcard, MaintBackend::Algorithm1);
        assert!(why.contains("constant paths"), "{why}");
        let compound = CircuitSource::Compound(CompoundViewDef::new(
            "V",
            vec![
                SimpleViewDef::new("_", "ROOT", "professor"),
                SimpleViewDef::new("_", "ROOT", "secretary"),
            ],
        ));
        assert_eq!(compound.planned_backend().0, MaintBackend::Circuit);
        let agg = CircuitSource::Aggregate(AggregateViewDef::new(
            SimpleViewDef::new("V", "ROOT", "professor"),
            "age",
            AggFn::Sum,
        ));
        assert_eq!(agg.planned_backend().0, MaintBackend::Circuit);
    }
}
