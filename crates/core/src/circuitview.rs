//! The delta-circuit maintenance backend (DBSP-style IVM).
//!
//! This module is the bridge between the view classes of this crate
//! and `gsview-circuit`: a [`CircuitSource`] names any maintainable
//! view definition (simple, compound, wildcard, aggregate) and lowers
//! it to the circuit IR; a [`CircuitMaintainer`] owns the compiled
//! circuit plus its count state and consumes the same consolidated
//! delta batches the Algorithm 1 maintainers do, keeping a
//! [`MaterializedView`] in sync in O(|Δ|) per commit: a step writes
//! back its own membership change, not the view.
//!
//! The planner alone decides per view which backend runs
//! ([`choose_backend`], asked through
//! [`CircuitSource::planned_backend`]): Algorithm 1 repairs single-path
//! views locally, constant or wildcard, so circuits are reserved for
//! multi-branch unions and aggregates. No maintainer or driver takes a
//! backend from its caller; a head-to-head (experiment E18, the circuit
//! oracle) builds a [`CircuitMaintainer`] directly.
//!
//! ## Epoch consistency and warm restart
//!
//! Circuit state is valid only for the exact store version it was
//! stepped to: the version of the store fork the circuit keeps as its
//! pre-batch side ([`Circuit::version`]). If a batch arrives whose
//! pre-state does not match (a recovery replay, a fork, a missed
//! epoch), the maintainer falls back to an epoch-consistent rebuild —
//! [`Circuit::init`] against the current store — which is by
//! construction equivalent to recomputation. The view may then be any
//! number of batches behind, so a rebuild alone reconciles it against
//! the full member set.

use crate::aggregate::AggregateViewDef;
use crate::maintain::BatchOutcome;
use crate::mview::MaterializedView;
use crate::sink::{reconcile, refresh_touched, write_delta};
use crate::viewdef::{CompoundViewDef, GeneralViewDef, SimpleViewDef};
use gsdb::{ConsolidatedDelta, DeltaBatch, Oid, Result, Store};
use gsview_circuit::{AggDef, BranchDef, Circuit, CircuitDef, CondDef, StepOutput};
use gsview_query::{choose_backend, MaintBackend, PathExpr};
use std::collections::HashSet;
use std::sync::Mutex;

/// Any view definition the circuit backend can maintain.
#[derive(Clone, Debug)]
pub enum CircuitSource {
    /// A §4.2 simple view (constant paths, one branch).
    Simple(SimpleViewDef),
    /// A union of simple branches.
    Compound(CompoundViewDef),
    /// A wildcard / general path-expression view.
    General(GeneralViewDef),
    /// An aggregate view (membership branch + per-member rollup).
    Aggregate(AggregateViewDef),
}

fn simple_branch(def: &SimpleViewDef) -> BranchDef {
    BranchDef {
        root: def.root,
        sel: PathExpr::from_path(&def.sel_path),
        cond: def.cond.as_ref().map(|c| CondDef {
            expr: PathExpr::from_path(&c.path),
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
            CircuitSource::General(d) => d.view,
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
            CircuitSource::General(d) => CircuitDef {
                branches: vec![BranchDef {
                    root: d.root,
                    sel: d.sel_expr.clone(),
                    cond: d.cond.as_ref().map(|c| CondDef {
                        expr: c.expr.clone(),
                        pred: c.pred.clone(),
                    }),
                }],
                aggregate: None,
            },
            CircuitSource::Aggregate(d) => CircuitDef {
                branches: vec![simple_branch(&d.members)],
                aggregate: Some(AggDef {
                    path: PathExpr::from_path(&d.agg_path),
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
            CircuitSource::General(d) => choose_backend(&d.sel_expr, 1, false),
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

    /// How many epoch-consistent rebuilds have run (version mismatch,
    /// divergence fallback, or first build).
    pub fn rebuilds(&self) -> u64 {
        self.inner.lock().unwrap().rebuilds
    }

    /// How many incremental steps have run.
    pub fn steps(&self) -> u64 {
        self.inner.lock().unwrap().steps
    }

    /// Build (or rebuild) circuit state against `store` and fill `mv`
    /// to match. Equivalent to recomputation.
    pub fn initialize(&self, mv: &mut MaterializedView, store: &Store) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        Self::rebuild(&mut inner, store, self.source.view())?;
        drop(inner);
        self.reconcile_view(mv, store).map(|_| ())
    }

    fn rebuild(inner: &mut Inner, store: &Store, view: Oid) -> Result<()> {
        gsview_obs::event!(
            "maint.circuit.rebuild",
            "view" = view.name().to_string(),
        );
        inner
            .circuit
            .init(store)
            // A circuit only fails on divergence — cyclic base under a
            // wildcard, i.e. the store is not the tree/forest the view
            // classes assume.
            .map_err(|_| gsdb::GsdbError::NotATree(view))?;
        inner.rebuilds += 1;
        Ok(())
    }

    /// Bring `mv` to the circuit's full member set — after a rebuild,
    /// when nothing smaller says how far behind `mv` is.
    fn reconcile_view(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
    ) -> Result<(Vec<Oid>, Vec<Oid>)> {
        let members: HashSet<Oid> = self
            .inner
            .lock()
            .unwrap()
            .circuit
            .members()
            .into_iter()
            .collect();
        reconcile(mv, &members, &mut |y| store.get(y).cloned())
    }

    /// Step the circuit by one consolidated delta, with the store in
    /// its post-batch state, and return the step's membership delta —
    /// or `None` after a rebuild.
    ///
    /// Falls back to an epoch-consistent rebuild when the circuit's
    /// version does not match the batch's pre-state or when delta
    /// propagation diverges.
    fn advance(&self, store: &Store, delta: &ConsolidatedDelta) -> Result<Option<StepOutput>> {
        let mut inner = self.inner.lock().unwrap();
        let view = self.source.view();
        let pre = store.version().saturating_sub(delta.input_ops as u64);
        if inner.circuit.version() == Some(pre) {
            match inner.circuit.step(delta, store) {
                Ok(out) => {
                    inner.steps += 1;
                    return Ok(Some(out));
                }
                Err(e) => {
                    gsview_obs::failure(&format!(
                        "maint.circuit.step diverged for {view}: {e}; rebuilding"
                    ));
                }
            }
        }
        Self::rebuild(&mut inner, store, view).map(|()| None)
    }

    /// Process a batch of updates with the store in its final state —
    /// the circuit-backed counterpart of
    /// [`GeneralMaintainer::apply_batch`](crate::general::GeneralMaintainer::apply_batch).
    /// `mv` is the view this maintainer last wrote: a step writes back
    /// only what changed since.
    pub fn apply_batch(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        batch: &DeltaBatch,
    ) -> Result<BatchOutcome> {
        self.apply_consolidated(mv, store, &batch.consolidate())
    }

    /// [`CircuitMaintainer::apply_batch`] for an already-consolidated
    /// delta (the parallel pipeline consolidates once per commit).
    pub fn apply_consolidated(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        delta: &ConsolidatedDelta,
    ) -> Result<BatchOutcome> {
        let _span = gsview_obs::span!(
            "maint.circuit.apply",
            "view" = self.source.view().name().to_string(),
            "input_ops" = delta.input_ops,
            "consolidated_ops" = delta.len(),
        );
        let fetch = |y: Oid| store.get(y);
        let (inserted, deleted) = match self.advance(store, delta)? {
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
        let inner = self.inner.lock().unwrap();
        let mut v = inner.circuit.members();
        v.sort_by_key(|o| o.name());
        v
    }

    /// A member's aggregate value (aggregate sources only).
    pub fn aggregate_of(&self, member: Oid) -> Option<f64> {
        self.inner.lock().unwrap().circuit.aggregate_of(member)
    }

    /// The global rollup over all members (aggregate sources only).
    pub fn total(&self) -> Option<f64> {
        self.inner.lock().unwrap().circuit.total()
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
        let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap())
            .with_cond(PathExpr::parse("name").unwrap(), Pred::new(CmpOp::Eq, "John"));
        let cm = CircuitMaintainer::new(CircuitSource::General(def));
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
            reconcile(&mut full, &members, &mut |y| store.get(y).cloned()).unwrap();
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
        // Wildcard shapes route to Algorithm 1 since the E18 routing
        // fix: scoped recomputation beat the circuit's product-state
        // at every measured size.
        let general = CircuitSource::General(GeneralViewDef::new(
            "V",
            "ROOT",
            PathExpr::parse("*.age").unwrap(),
        ));
        assert_eq!(general.planned_backend().0, MaintBackend::Algorithm1);
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
