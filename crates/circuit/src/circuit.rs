//! Compiling view definitions into delta circuits and stepping them.
//!
//! A [`CircuitDef`] is the backend-neutral IR a view definition lowers
//! to: one [`BranchDef`] per selection branch (root × constant path ×
//! optional condition) plus an optional [`AggDef`]. Every path in the
//! IR is a [`Path`], so a propagation ends on any base (see
//! [`operator`](crate::operator)) and a step cannot fail. [`Circuit`]
//! compiles the IR into a dataflow of flow operators that read the
//! store itself, at two versions: the fork it last stepped to and the
//! post-batch store. The batch derives the live change between them
//! once ([`DeltaBatch::live`]); every circuit stepped at the same
//! version reads that one derivation.
//!
//! ```text
//!   batch.live(base, store) ──► edge/node/atom events (once per batch)
//!     ├─► ForwardFlow(sel)   per branch ─┐
//!     ├─► BackwardFlow(cond) per branch ─┼─► semijoin ─► distinct ─► ΔV
//!     └─► ForwardFlow(agg, per member) ◄─┘ (membership ±1 feeds back)
//!                └─► distinct pairs ─► weighted aggregate ─► Δagg
//! ```
//!
//! Initialization and incremental steps share one code path: loading
//! a store is a batch that creates every object, so the state reached
//! incrementally is — by construction — the state a from-scratch
//! rebuild reaches. That is the invariant the four-way differential
//! oracle in core pins down.

use crate::operator::{BackwardFlow, ForwardFlow};
use crate::zset::{DistinctOp, ZSet};
use gsdb::{DeltaBatch, FastMap, FastSet, LiveDelta, Oid, Path, Store};
use gsview_query::Pred;

/// An existential condition on view members: some instance of `path`
/// from the member must end in an atom satisfying `pred`.
#[derive(Clone, Debug)]
pub struct CondDef {
    /// Path below the member.
    pub path: Path,
    /// Predicate on the terminal atom.
    pub pred: Pred,
}

/// One selection branch: objects reached from `root` along `sel`,
/// optionally filtered by a condition.
#[derive(Clone, Debug)]
pub struct BranchDef {
    /// Branch root object.
    pub root: Oid,
    /// Selection path.
    pub sel: Path,
    /// Optional membership condition.
    pub cond: Option<CondDef>,
}

/// The aggregate function, shared by the circuit backend and core's
/// aggregate views (the circuit crate sits below core).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// Number of numeric atoms.
    Count,
    /// Sum of numeric atoms.
    Sum,
    /// Minimum (undefined on empty input).
    Min,
    /// Maximum (undefined on empty input).
    Max,
    /// Arithmetic mean (undefined on empty input).
    Avg,
}

impl std::fmt::Display for AggFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Avg => "avg",
        })
    }
}

impl AggFn {
    /// Compute over a slice of numeric values; `None` when the
    /// aggregate is undefined (empty input for min/max/avg).
    pub fn compute(&self, values: &[f64]) -> Option<f64> {
        match self {
            AggFn::Count => Some(values.len() as f64),
            AggFn::Sum => Some(values.iter().sum()),
            AggFn::Min => values.iter().copied().reduce(f64::min),
            AggFn::Max => values.iter().copied().reduce(f64::max),
            AggFn::Avg => {
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().sum::<f64>() / values.len() as f64)
                }
            }
        }
    }
}

/// Aggregation over each member's reachable numeric atoms.
#[derive(Clone, Debug)]
pub struct AggDef {
    /// Path from a member to the aggregated atoms.
    pub path: Path,
    /// The aggregate function.
    pub f: AggFn,
}

/// The circuit IR one view definition lowers to.
#[derive(Clone, Debug)]
pub struct CircuitDef {
    /// Selection branches (membership is their union).
    pub branches: Vec<BranchDef>,
    /// Optional per-member aggregation.
    pub aggregate: Option<AggDef>,
}

/// Per-step work and state-size measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Total |Δin|: low-level events the batch reduced to.
    pub input_weight: u64,
    /// Pending entries the selection flows processed.
    pub sel_pops: u64,
    /// Pending entries the condition-witness flows processed.
    pub witness_pops: u64,
    /// Pending entries the aggregate flow processed.
    pub agg_pops: u64,
    /// Live operator-state entries (all flows) after the step.
    pub state_entries: usize,
}

impl StepStats {
    /// Total pending entries processed across all operators.
    pub fn pops(&self) -> u64 {
        self.sel_pops + self.witness_pops + self.agg_pops
    }
}

/// What one circuit step changed.
#[derive(Clone, Debug, Default)]
pub struct StepOutput {
    /// Objects that became view members (unordered).
    pub inserted: Vec<Oid>,
    /// Objects that stopped being view members (unordered).
    pub deleted: Vec<Oid>,
    /// Members whose aggregate value changed (unordered; aggregate
    /// circuits only).
    pub agg_changed: Vec<Oid>,
    /// Work/state measurements for this step.
    pub stats: StepStats,
}

#[derive(Clone, Debug)]
struct BranchState {
    sel: ForwardFlow<()>,
    witness: Option<BackwardFlow>,
}

#[derive(Clone, Debug)]
struct AggState {
    flow: ForwardFlow<Oid>,
    /// The (member, endpoint) pairs with positive flow support.
    endpoints: FastMap<Oid, FastSet<Oid>>,
    holders: FastMap<Oid, FastSet<Oid>>,
    values: FastMap<Oid, Option<f64>>,
    f: AggFn,
}

/// Add (`on`) or remove `v` in `k`'s set, dropping the set once empty.
fn link(map: &mut FastMap<Oid, FastSet<Oid>>, k: Oid, v: Oid, on: bool) {
    let set = map.entry(k).or_default();
    if on {
        set.insert(v);
    } else {
        set.remove(&v);
        if set.is_empty() {
            map.remove(&k);
        }
    }
}

/// A compiled, stateful delta circuit for one view.
///
/// Lifecycle: [`Circuit::compile`] → [`Circuit::init`] against a
/// store snapshot → [`Circuit::step`] per batch. The circuit keeps a
/// [`Store::fork`] of the store it last reached — O(pages) pointers
/// shared copy-on-write, no private copy of the graph — and reads it
/// as the pre-batch side of the next step.
#[derive(Clone, Debug)]
pub struct Circuit {
    def: CircuitDef,
    /// The store the counts describe; `None` until the first `init`,
    /// and while a step runs.
    base: Option<Store>,
    branches: Vec<BranchState>,
    view: DistinctOp<Oid>,
    agg: Option<AggState>,
}

impl Circuit {
    /// Compile a definition into an empty circuit.
    pub fn compile(def: CircuitDef) -> Circuit {
        let _span = gsview_obs::span!(
            "maint.circuit.compile",
            "branches" = def.branches.len(),
            "aggregate" = def.aggregate.is_some(),
        );
        let branches = def
            .branches
            .iter()
            .map(|b| BranchState {
                sel: ForwardFlow::new(&b.sel),
                witness: b
                    .cond
                    .as_ref()
                    .map(|c| BackwardFlow::new(&c.path, c.pred.clone())),
            })
            .collect();
        let agg = def.aggregate.as_ref().map(|a| AggState {
            flow: ForwardFlow::new(&a.path),
            endpoints: FastMap::default(),
            holders: FastMap::default(),
            values: FastMap::default(),
            f: a.f,
        });
        Circuit {
            def,
            base: None,
            branches,
            view: DistinctOp::new(),
            agg,
        }
    }

    /// Load a store snapshot into a freshly compiled circuit. Shares
    /// the propagation with [`Circuit::step`]: the whole store is one
    /// "everything created" batch.
    pub fn init(&mut self, store: &Store) -> StepOutput {
        *self = Circuit::compile(self.def.clone());
        self.run(&LiveDelta::load(store), store, true)
    }

    /// Apply one batch (`store` is the post-batch store; the pre-batch
    /// side is the store the circuit last reached). The batch derives
    /// the live change once for every circuit stepped from the same
    /// version to the same store. Cost is proportional to the product
    /// states the delta actually touches, not to view or store size.
    pub fn step(&mut self, batch: &DeltaBatch, store: &Store) -> StepOutput {
        let base = self.base.take().unwrap_or_default();
        let events = batch.live(&base, store);
        // Only the derivation reads the old side, and the batch keeps
        // no hold on it. Pages no newer epoch shares are freed here,
        // ahead of the propagation that allocates, rather than after it.
        drop(base);
        self.run(&events, store, false)
    }

    /// Version of the store the circuit last reached; `None` before
    /// the first `init` and after a step that did not finish.
    pub fn version(&self) -> Option<u64> {
        self.base.as_ref().map(Store::version)
    }

    /// Current members (unordered).
    pub fn members(&self) -> Vec<Oid> {
        self.view.keys().collect()
    }

    /// Is `oid` currently a member?
    pub fn contains(&self, oid: Oid) -> bool {
        self.view.contains(oid)
    }

    /// A member's aggregate value (aggregate circuits only; `None`
    /// for non-members or undefined aggregates).
    pub fn aggregate_of(&self, member: Oid) -> Option<f64> {
        self.agg.as_ref()?.values.get(&member).copied().flatten()
    }

    /// The global rollup over all members' aggregated atoms.
    pub fn total(&self) -> Option<f64> {
        let agg = self.agg.as_ref()?;
        let store = self.base.as_ref()?;
        let all: Vec<f64> = self
            .view
            .keys()
            .flat_map(|y| agg.endpoints.get(&y))
            .flatten()
            .filter_map(|&z| store.atom(z).and_then(|a| a.as_f64()))
            .collect();
        agg.f.compute(&all)
    }

    fn run(&mut self, events: &LiveDelta, store: &Store, inject_roots: bool) -> StepOutput {
        let _span = gsview_obs::span!(
            "maint.circuit.step",
            "input" = events.weight(),
            "init" = inject_roots,
        );
        let mut stats = StepStats {
            input_weight: events.weight(),
            ..StepStats::default()
        };

        // Stage 1: translate events into per-operator pending deltas
        // against the *pre-propagation* counts. Every operator must
        // see the whole batch before any operator propagates — that
        // is what makes batch application equal to the sum of its
        // parts.
        let mut pending = Vec::with_capacity(self.branches.len());
        for (branch, def) in self.branches.iter().zip(&self.def.branches) {
            let mut sp = ZSet::new();
            if inject_roots {
                branch.sel.seed(&mut sp, (), def.root, 1);
            }
            let mut wp = ZSet::new();
            if let Some(w) = branch.witness.as_ref() {
                for a in &events.atoms {
                    w.base_event(&mut wp, a.oid, a.label, a.old.as_ref(), a.new.as_ref());
                }
                for e in &events.edges {
                    w.edge_event(&mut wp, e.parent, e.child, e.child_label, e.w);
                }
            }
            for e in &events.edges {
                branch
                    .sel
                    .edge_event(&mut sp, e.parent, e.child, e.child_label, e.w);
            }
            pending.push((sp, wp));
        }
        let mut agg_pending: ZSet<(Oid, Oid, u32)> = ZSet::new();
        if let Some(agg) = self.agg.as_ref() {
            for e in &events.edges {
                agg.flow
                    .edge_event(&mut agg_pending, e.parent, e.child, e.child_label, e.w);
            }
        }

        // Stage 2: propagate selection and witness flows to their
        // fixpoints, collecting membership candidates. Every record a
        // step created or removed is one (a member needs a live record).
        // Init creates every object, but a fresh circuit has no member
        // to lose and can gain only an object whose selection support
        // its propagation dirtied, so init skips them.
        let mut dirty_members: FastSet<Oid> = FastSet::default();
        if !inject_roots {
            dirty_members.extend(events.created.iter().copied());
            dirty_members.extend(events.removed.iter().copied());
        }
        for (branch, (sp, wp)) in self.branches.iter_mut().zip(pending) {
            let mut sel_dirty: FastSet<((), Oid)> = FastSet::default();
            branch
                .sel
                .propagate(store, sp, &mut stats.sel_pops, &mut sel_dirty);
            dirty_members.extend(sel_dirty.into_iter().map(|(_, y)| y));
            if let Some(w) = branch.witness.as_mut() {
                w.propagate(store, wp, &mut stats.witness_pops, &mut dirty_members);
            }
        }

        // Stage 3: semijoin + distinct. A member needs a live record,
        // positive selection support on some branch, and (on that
        // branch) a positive condition witness.
        let view = &mut self.view;
        let branches = &self.branches;
        let member_deltas = view.sync(dirty_members.iter().copied(), |y| {
            if !store.contains(y) {
                return 0;
            }
            let ok = branches.iter().any(|b| {
                b.sel.support((), y) > 0
                    && b.witness.as_ref().map(|w| w.witness(y) > 0).unwrap_or(true)
            });
            ok as i64
        });

        // Stage 4: aggregate flow. Membership deltas inject ±1 member
        // sources; the flow's distinct (member, endpoint) pairs drive
        // value recomputation, together with atom changes on held
        // endpoints.
        let mut agg_changed = Vec::new();
        if let Some(agg) = self.agg.as_mut() {
            for &(y, d) in &member_deltas {
                agg.flow.seed(&mut agg_pending, y, y, d);
            }
            let mut dirty_pairs: FastSet<(Oid, Oid)> = FastSet::default();
            agg.flow.propagate(
                store,
                std::mem::take(&mut agg_pending),
                &mut stats.agg_pops,
                &mut dirty_pairs,
            );
            let AggState {
                flow,
                endpoints,
                holders,
                values,
                f,
            } = agg;
            let mut dirty_agg: FastSet<Oid> = FastSet::default();
            for (y, z) in dirty_pairs {
                let now = flow.support(y, z) > 0;
                if now != endpoints.get(&y).is_some_and(|zs| zs.contains(&z)) {
                    link(endpoints, y, z, now);
                    link(holders, z, y, now);
                    dirty_agg.insert(y);
                }
            }
            // A held endpoint's value can change through a surviving
            // modify, or through a remove + re-create in one batch
            // (net-zero edge churn, so no pair delta) — both are atom
            // events, and both dirty the holding members.
            for a in &events.atoms {
                if let Some(hs) = holders.get(&a.oid) {
                    dirty_agg.extend(hs.iter().copied());
                }
            }
            dirty_agg.extend(member_deltas.iter().map(|&(y, _)| y));
            let view = &self.view;
            for y in dirty_agg {
                let new = if view.contains(y) {
                    let vals: Vec<f64> = endpoints
                        .get(&y)
                        .map(|zs| {
                            zs.iter()
                                .filter_map(|&z| store.atom(z).and_then(|a| a.as_f64()))
                                .collect()
                        })
                        .unwrap_or_default();
                    Some(f.compute(&vals))
                } else {
                    None
                };
                let old = match new {
                    Some(v) => values.insert(y, v),
                    None => values.remove(&y),
                };
                if old != new {
                    agg_changed.push(y);
                }
            }
        }

        stats.state_entries = self.state_len();
        self.report(&stats);
        self.base = Some(store.fork());

        let mut out = StepOutput {
            agg_changed,
            stats,
            ..StepOutput::default()
        };
        for (y, d) in member_deltas {
            if d > 0 {
                out.inserted.push(y);
            } else {
                out.deleted.push(y);
            }
        }
        out
    }

    /// Total live operator-state entries across all flows.
    pub fn state_len(&self) -> usize {
        self.branches
            .iter()
            .map(|b| {
                b.sel.state_len() + b.witness.as_ref().map(|w| w.state_len()).unwrap_or(0)
            })
            .sum::<usize>()
            + self.agg.as_ref().map(|a| a.flow.state_len()).unwrap_or(0)
    }

    fn report(&self, stats: &StepStats) {
        let reg = gsview_obs::registry();
        reg.counter("maint.circuit.steps").incr();
        reg.counter("maint.circuit.delta.weight")
            .add(stats.input_weight);
        reg.counter("maint.circuit.operator.expand.pops")
            .add(stats.sel_pops);
        reg.counter("maint.circuit.operator.witness.pops")
            .add(stats.witness_pops);
        reg.counter("maint.circuit.operator.aggregate.pops")
            .add(stats.agg_pops);
        reg.histogram("maint.circuit.state.entries")
            .record(stats.state_entries as u64);
    }
}
