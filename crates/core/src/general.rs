//! Maintenance beyond the simple-view class — the extensions paper §6
//! sketches:
//!
//! * [`CompoundMaintainer`] — views with more than one select path or
//!   condition ("relaxing some of the restrictions ... is easy");
//! * [`GeneralMaintainer`] — wild-card path expressions: the
//!   path-containment machinery ("the maintenance algorithm needs to
//!   be able to test path containment for general path expressions")
//!   locates each update, and repair stays local to it;
//! * [`DagMaintainer`] — DAG-structured bases ("now there may be more
//!   than one path between two objects").

use crate::base::{BaseAccess, LocalBase};
use crate::circuitview::CircuitSource;
use crate::maintain::{content_upkeep, BatchOutcome, Maintainer, Outcome};
use crate::mview::MaterializedView;
use crate::sink::{reconcile, refresh_touched, MemberSet, ViewSink};
use crate::viewdef::{CompoundViewDef, GeneralViewDef, SimpleViewDef};
use gsdb::{
    path, AppliedUpdate, ConsolidatedDelta, DeltaBatch, EdgeDelta, EdgeOp, FastMap, Label,
    ModifyDelta, Oid, Path, Result, Store,
};
use gsview_obs::Counter;
use gsview_query::{evaluate, reach_from_mask, MaintBackend, Nfa};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ----------------------------------------------------------------------
// Compound views (multiple select paths / conditions)
// ----------------------------------------------------------------------

/// Maintains a union of simple branches into one materialized view.
///
/// Each branch keeps a membership-only shadow ([`MemberSet`]); the
/// shared view holds a delegate iff *some* branch selects the object.
/// This prevents branch A's deletion from evicting a member branch B
/// still derives.
#[derive(Debug)]
pub struct CompoundMaintainer {
    branches: Vec<(Maintainer, MemberSet)>,
}

impl CompoundMaintainer {
    /// Build a maintainer; the shadows start empty — call
    /// [`CompoundMaintainer::initialize`] to populate shadows and view.
    pub fn new(def: &CompoundViewDef) -> Self {
        CompoundMaintainer {
            branches: def
                .branches
                .iter()
                .map(|b| (Maintainer::new(b.clone()), MemberSet::new()))
                .collect(),
        }
    }

    /// Recompute every branch shadow and synchronize the view.
    pub fn initialize(
        &mut self,
        mv: &mut MaterializedView,
        base: &mut dyn BaseAccess,
    ) -> Result<()> {
        for (m, shadow) in &mut self.branches {
            *shadow = MemberSet::new();
            for y in crate::recompute::recompute_members(m.def(), base) {
                if let Some(obj) = base.fetch(y) {
                    shadow.insert_member(&obj)?;
                }
            }
        }
        self.sync(mv, base).map(|_| ())
    }

    /// Process one update: run Algorithm 1 per branch on its shadow,
    /// then reconcile the union into the shared view.
    pub fn apply(
        &mut self,
        mv: &mut MaterializedView,
        base: &mut dyn BaseAccess,
        update: &AppliedUpdate,
    ) -> Result<Outcome> {
        let mut relevant = false;
        for (m, shadow) in &mut self.branches {
            let out = m.apply(shadow, base, update)?;
            relevant |= out.relevant;
        }
        let mut out = self.sync(mv, base)?;
        out.relevant = relevant;
        // Content upkeep on the shared view (§3.2): the branch
        // maintainers only touched membership shadows.
        content_upkeep(mv, base, update)?;
        Ok(out)
    }

    /// Process a batch of updates: run batched Algorithm 1
    /// ([`Maintainer::apply_consolidated`]) per branch on its shadow,
    /// then reconcile the union into the shared view once.
    pub fn apply_batch(
        &mut self,
        mv: &mut MaterializedView,
        base: &mut dyn BaseAccess,
        batch: &DeltaBatch,
    ) -> Result<BatchOutcome> {
        let delta = batch.consolidate();
        let mut relevant = 0;
        for (m, shadow) in &mut self.branches {
            let out = m.apply_consolidated(shadow, base, &delta)?;
            relevant = relevant.max(out.relevant_deltas);
        }
        let sync = self.sync(mv, base)?;
        // Content upkeep on the shared view, one pass per touched
        // member (the branch maintainers only touched shadows).
        refresh_touched(mv, &delta.touched, &sync.inserted, &mut |o| base.fetch(o))?;
        Ok(BatchOutcome {
            input_ops: delta.input_ops,
            consolidated_ops: delta.len(),
            relevant_deltas: relevant,
            inserted: sync.inserted,
            deleted: sync.deleted,
            ..BatchOutcome::default()
        })
    }

    /// Current union membership.
    pub fn union_members(&self) -> Vec<Oid> {
        let mut set: HashSet<Oid> = HashSet::new();
        for (_, shadow) in &self.branches {
            set.extend(shadow.members());
        }
        let mut v: Vec<Oid> = set.into_iter().collect();
        v.sort_by_key(|o| o.name());
        v
    }

    /// Reconcile the shared view to the union of the branch shadows.
    fn sync(&self, mv: &mut MaterializedView, base: &mut dyn BaseAccess) -> Result<Outcome> {
        let union: HashSet<Oid> = self.union_members().into_iter().collect();
        let (inserted, deleted) = reconcile(mv, &union, &mut |y| base.fetch(y))?;
        Ok(Outcome {
            relevant: false,
            inserted,
            deleted,
        })
    }
}

// ----------------------------------------------------------------------
// Wild-card (general path expression) views
// ----------------------------------------------------------------------

/// The automata of a wildcard view, compiled once per maintainer.
/// `sel_expr.cond_expr` needs no third automaton: its state set after
/// a root path is the `sel` set plus one `cond` set per ancestor at
/// which `sel` accepts (the *threads* of [`Located`]).
#[derive(Clone, Debug)]
struct Automata {
    sel: Nfa,
    /// `Some` iff the view has a condition.
    cond: Option<Nfa>,
}

impl Automata {
    fn compile(def: &GeneralViewDef) -> Automata {
        Automata {
            sel: def.sel_expr.nfa(),
            cond: def.cond.as_ref().map(|c| c.expr.nfa()),
        }
    }
}

/// Why a batch cannot be repaired locally (the refresh's `cause`).
struct Unlocatable(&'static str);

/// Where a root path leaves the automata: the `sel` mask, and one
/// `cond` mask per ancestor `y` at which `sel` accepted — the state
/// `cond_expr` is in after `path(y, here)`, dropped once dead.
struct Located {
    sel: u64,
    threads: Vec<(Oid, u64)>,
}

impl Located {
    fn step(&mut self, a: &Automata, l: Label) {
        self.sel = a.sel.step_mask(self.sel, l);
        if let Some(c) = &a.cond {
            for t in &mut self.threads {
                t.1 = c.step_mask(t.1, l);
            }
            self.threads.retain(|t| t.1 != 0);
        }
    }

    /// `at` is a candidate if `sel` accepts here: start its thread.
    fn open(&mut self, a: &Automata, at: Oid) {
        if let Some(c) = &a.cond {
            if a.sel.is_accepting(self.sel) {
                self.threads.push((at, c.start_mask()));
            }
        }
    }

    /// No instance of `sel_expr.cond_expr` passes through here.
    fn dead(&self) -> bool {
        self.sel == 0 && self.threads.is_empty()
    }
}

/// What locating a candidate already proved about it, so that
/// verification does not walk for it again.
#[derive(Clone, Copy, Default)]
struct Known {
    /// `sel_expr` accepts its root path.
    sel: bool,
    /// An atom under it, at an instance of `cond_expr`, satisfies the
    /// predicate.
    witness: bool,
}

#[derive(Default)]
struct Candidates {
    known: FastMap<Oid, Known>,
    /// A record that was reachable is gone, and its children list with
    /// it, so what hung under it cannot be walked: every member is a
    /// candidate (only members can lose).
    sweep: bool,
}

impl Candidates {
    fn add(&mut self, y: Oid, k: Known) {
        let e = self.known.entry(y).or_default();
        e.sel |= k.sel;
        e.witness |= k.witness;
    }
}

/// Maintains a view whose paths are general path expressions, with the
/// locate → repair → verify shape Algorithm 1 has for constant paths;
/// the `sel_expr` / `cond_expr` automaton state sets stand where the
/// constant-path offset stands.
///
/// * **Locate**: run the automata down `path(root, N1)` of every
///   consolidated delta. A dead state set screens the delta — the §6
///   path-containment test, one root-path walk like the simple-view
///   screen.
/// * **Repair**: the objects whose membership the delta can change are
///   the ancestors of `N1` at which `sel_expr` accepts (their witness
///   set changed) and the objects the product walk reaches below `N2`
///   (their root path changed); all members, if the batch removed a
///   record that was reachable (its children list is gone).
/// * **Verify**: each candidate is re-checked against the final state
///   only, which makes the result independent of update order.
///
/// DESIGN.md ("Wildcard views: local repair") has the completeness
/// argument. What the rule does not cover — an object with two paths
/// from the root (shared structure or a cycle under it), a store built
/// without the parent index — takes the one counted fallback,
/// [`GeneralMaintainer::refreshes`]: re-evaluate the defining query
/// over the store.
#[derive(Clone, Debug)]
pub struct GeneralMaintainer {
    def: GeneralViewDef,
    automata: Automata,
    refreshes: Arc<AtomicU64>,
    /// `maint.general.candidates` and `maint.general.refresh`, each
    /// looked up once.
    candidates: Arc<Counter>,
    fallbacks: Arc<Counter>,
}

impl GeneralMaintainer {
    /// Build a maintainer. This is the Algorithm 1 plan for a single
    /// path expression, which is where the planner routes every such
    /// shape ([`GeneralMaintainer::backend`]).
    pub fn new(def: GeneralViewDef) -> Self {
        GeneralMaintainer {
            automata: Automata::compile(&def),
            def,
            refreshes: Arc::default(),
            candidates: gsview_obs::registry().counter("maint.general.candidates"),
            fallbacks: gsview_obs::registry().counter("maint.general.refresh"),
        }
    }

    /// [`GeneralMaintainer::new`], under the name callers use when they
    /// mean "whatever the planner picks".
    pub fn planned(def: GeneralViewDef) -> Self {
        Self::new(def)
    }

    /// The backend the planner routes this shape to
    /// ([`CircuitSource::planned_backend`]).
    pub fn backend(&self) -> MaintBackend {
        CircuitSource::General(self.def.clone()).planned_backend().0
    }

    /// The definition.
    pub fn def(&self) -> &GeneralViewDef {
        &self.def
    }

    /// How many times maintenance fell back to re-evaluating the
    /// defining query (also counted as `maint.general.refresh`). Stays
    /// 0 on tree-structured bases; clones share the count.
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Materialize from scratch.
    pub fn recompute(&self, store: &Store) -> Result<MaterializedView> {
        let mut mv = MaterializedView::new(self.def.view);
        for y in self.evaluate(store)? {
            if let Some(obj) = store.get(y) {
                let obj = obj.clone();
                mv.v_insert(&obj)?;
            }
        }
        Ok(mv)
    }

    fn evaluate(&self, store: &Store) -> Result<Vec<Oid>> {
        evaluate(store, &self.def.to_query())
            .map(|ans| ans.oids)
            .map_err(|_| gsdb::GsdbError::NoSuchObject(self.def.root))
    }

    /// Run the automata down `path(root, n)`; `None` when `n` does not
    /// hang under the root or the automata die on the way.
    fn locate(&self, store: &Store, n: Oid) -> std::result::Result<Option<Located>, Unlocatable> {
        let a = &self.automata;
        let root = self.def.root;
        let Some(chain) = path::only_chain_between(store, root, n).map_err(Unlocatable)? else {
            return Ok(None);
        };
        let mut at = Located {
            sel: a.sel.start_mask(),
            threads: Vec::new(),
        };
        at.open(a, root);
        for (o, l) in chain {
            at.step(a, l);
            if at.dead() {
                return Ok(None);
            }
            at.open(a, o);
        }
        Ok(Some(at))
    }

    /// Could an update at edge `(n1, n2)` participate in any instance
    /// of `sel_expr.cond_expr`? Runs the automata over
    /// `path(ROOT, n1).label(n2)` and checks liveness. Answers `true`
    /// where `n1` cannot be located (see
    /// [`GeneralMaintainer::refreshes`]).
    pub fn edge_relevant(&self, store: &Store, n1: Oid, n2: Oid) -> bool {
        let a = &self.automata;
        let Some(l2) = store.label(n2) else {
            return false;
        };
        match self.locate(store, n1) {
            Ok(Some(mut at)) => {
                at.step(a, l2);
                !at.dead()
            }
            Ok(None) => false,
            Err(Unlocatable(_)) => true,
        }
    }

    /// Locate one net edge change and collect its candidates. Returns
    /// whether the delta is relevant to the view.
    fn locate_edge(
        &self,
        mv: &MaterializedView,
        store: &Store,
        e: &EdgeDelta,
        cands: &mut Candidates,
    ) -> std::result::Result<bool, Unlocatable> {
        let a = &self.automata;
        let mut relevant = false;
        if e.op == EdgeOp::Delete {
            // What hung under the cut edge lost the root path it had.
            // The states `sel_expr` reached the child in belong to the
            // state before the batch (the parent itself may have moved
            // since), so walk from all of them; only members can lose.
            let (below, _) =
                reach_from_mask(store, e.child, &a.sel, a.sel.all_states(), &|_| true);
            for y in below.into_iter().filter(|&y| mv.contains_base(y)) {
                cands.add(y, Known::default());
                relevant = true;
            }
        }
        let Some(l2) = store.label(e.child) else {
            cands.sweep |= e.op == EdgeOp::Delete;
            return Ok(relevant);
        };
        let Some(mut at) = self.locate(store, e.parent)? else {
            return Ok(relevant);
        };
        at.step(a, l2);
        if at.dead() {
            return Ok(relevant);
        }
        // Ancestors whose witness set the edge is part of. An inserted
        // atom that satisfies the predicate is itself the witness.
        let inserted_witness = e.op == EdgeOp::Insert
            && self.def.cond.as_ref().is_some_and(|c| {
                store.atom(e.child).is_some_and(|v| c.pred.eval(v))
            });
        for &(y, mask) in &at.threads {
            let witness =
                inserted_witness && a.cond.as_ref().is_some_and(|c| c.is_accepting(mask));
            cands.add(y, Known { sel: true, witness });
        }
        // What now hangs under the new edge gained this root path:
        // continue the `sel_expr` walk from the states it arrives in.
        if e.op == EdgeOp::Insert && at.sel != 0 {
            let (below, _) = reach_from_mask(store, e.child, &a.sel, at.sel, &|_| true);
            for y in below {
                cands.add(y, Known { sel: true, witness: false });
            }
        }
        Ok(true)
    }

    /// Locate one net atom change: it matters only to the ancestors it
    /// sits under at an instance of `cond_expr`, and only if the
    /// predicate's verdict on it flipped.
    fn locate_modify(
        &self,
        store: &Store,
        m: &ModifyDelta,
        cands: &mut Candidates,
    ) -> std::result::Result<bool, Unlocatable> {
        let (Some(cond), Some(c)) = (&self.def.cond, &self.automata.cond) else {
            return Ok(false);
        };
        let Some(at) = self.locate(store, m.oid)? else {
            return Ok(false);
        };
        let (was, is) = (cond.pred.eval(&m.old), cond.pred.eval(&m.new));
        let mut relevant = false;
        for &(y, mask) in &at.threads {
            if c.is_accepting(mask) {
                relevant = true;
                if was != is {
                    cands.add(y, Known { sel: true, witness: is });
                }
            }
        }
        Ok(relevant)
    }

    /// Is `y` in the view, in the final state?
    fn selects(&self, store: &Store, y: Oid, known: Known) -> std::result::Result<bool, Unlocatable> {
        let a = &self.automata;
        if !known.sel {
            let root = self.def.root;
            let Some(chain) = path::only_chain_between(store, root, y).map_err(Unlocatable)? else {
                return Ok(false);
            };
            let mask = chain
                .iter()
                .fold(a.sel.start_mask(), |m, &(_, l)| a.sel.step_mask(m, l));
            if !a.sel.is_accepting(mask) {
                return Ok(false);
            }
        }
        Ok(match (&self.def.cond, &a.cond) {
            (Some(cond), Some(c)) if !known.witness => {
                let (reached, _) = reach_from_mask(store, y, c, c.start_mask(), &|_| true);
                cond.pred.eval_any(store, &reached)
            }
            _ => true,
        })
    }

    /// Locate every delta, then verify every candidate against the
    /// final state: `(y, is a member)` per candidate. Touches no view
    /// state, so the caller can still fall back on `Err`.
    fn verdicts(
        &self,
        mv: &MaterializedView,
        store: &Store,
        delta: &ConsolidatedDelta,
        out: &mut BatchOutcome,
    ) -> std::result::Result<Vec<(Oid, bool)>, Unlocatable> {
        let mut cands = Candidates::default();
        {
            let _span = gsview_obs::span!("maint.general.locate");
            for e in &delta.edges {
                out.relevant_deltas += self.locate_edge(mv, store, e, &mut cands)? as usize;
            }
            for m in &delta.modifies {
                out.relevant_deltas += self.locate_modify(store, m, &mut cands)? as usize;
            }
            for &x in &delta.removed {
                // A record nothing referenced was detached by an edge
                // delete (located above, in this batch or an earlier
                // one). One removed from under a parent takes what
                // hung under it out of reach with no edge delta.
                let parents = store.parents(x).ok_or(Unlocatable("no_parent_index"))?;
                if !parents.is_empty() {
                    cands.sweep = true;
                    out.relevant_deltas += 1;
                }
            }
            if cands.sweep {
                out.swept = true;
                for y in mv.members_base() {
                    cands.add(y, Known::default());
                }
            }
        }
        let _span = gsview_obs::span!("maint.general.repair", "candidates" = cands.known.len());
        self.candidates.add(cands.known.len() as u64);
        cands
            .known
            .into_iter()
            .map(|(y, known)| Ok((y, self.selects(store, y, known)?)))
            .collect()
    }

    /// The fallback: re-evaluate the defining query over the store and
    /// bring the view to its answer.
    fn refresh(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        out: &mut BatchOutcome,
        cause: &'static str,
    ) -> Result<()> {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        self.fallbacks.incr();
        gsview_obs::event!("maint.general.refresh", "cause" = cause);
        // Not located, so not screened either.
        out.relevant_deltas = out.relevant_deltas.max(1);
        let fresh = self.evaluate(store)?;
        let fetch = &mut |y: Oid| store.get(y).cloned();
        let (inserted, deleted) = reconcile(mv, &fresh.iter().copied().collect(), fetch)?;
        // Re-evaluation rewrites the members that stay, too.
        out.refreshed += refresh_touched(mv, &fresh, &inserted, fetch)?;
        out.inserted.extend(inserted);
        out.deleted.extend(deleted);
        Ok(())
    }

    /// Bring the view in line with a consolidated delta; the store is
    /// in its final state.
    fn repair(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        delta: &ConsolidatedDelta,
    ) -> Result<BatchOutcome> {
        let mut out = BatchOutcome {
            input_ops: delta.input_ops,
            consolidated_ops: delta.len(),
            ..BatchOutcome::default()
        };
        match self.verdicts(mv, store, delta, &mut out) {
            Ok(verdicts) => {
                for (y, member) in verdicts {
                    if !member {
                        if mv.v_delete(y)? {
                            out.deleted.push(y);
                        }
                    } else if !mv.contains_base(y) {
                        if let Some(obj) = store.get(y) {
                            let obj = obj.clone();
                            mv.v_insert(&obj)?;
                            out.inserted.push(y);
                        }
                    }
                }
            }
            Err(Unlocatable(cause)) => self.refresh(mv, store, &mut out, cause)?,
        }
        // Content upkeep (§3.2), whichever branch ran.
        out.refreshed += refresh_touched(mv, &delta.touched, &[], &mut |o| store.get(o).cloned())?;
        out.inserted.sort_by_key(|o| o.name());
        out.deleted.sort_by_key(|o| o.name());
        Ok(out)
    }

    /// Process one update (the store is in the state right after it).
    /// `relevant` reports whether the update passed the locate step.
    pub fn apply(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        update: &AppliedUpdate,
    ) -> Result<Outcome> {
        let _span = gsview_obs::span!(
            "maint.general.apply",
            "view" = self.def.view.name().to_string(),
            "update" = crate::maintain::update_kind(update),
        );
        let delta = DeltaBatch::from_ops(vec![update.clone()]).consolidate();
        let out = self.repair(mv, store, &delta)?;
        Ok(Outcome {
            relevant: out.relevant_deltas > 0,
            inserted: out.inserted,
            deleted: out.deleted,
        })
    }

    /// Process a batch of updates with the store in its final state:
    /// cost O(|Δ| · (depth + affected subtree)), not O(|store|).
    pub fn apply_batch(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        batch: &DeltaBatch,
    ) -> Result<BatchOutcome> {
        let delta = batch.consolidate();
        let _span = gsview_obs::span!(
            "maint.general.plan",
            "view" = self.def.view.name().to_string(),
            "input_ops" = delta.input_ops,
            "consolidated_ops" = delta.len(),
        );
        self.repair(mv, store, &delta)
    }
}

// ----------------------------------------------------------------------
// DAG bases
// ----------------------------------------------------------------------

/// Maintains a simple view definition over a DAG-structured base.
///
/// Membership is monotone in edges — inserting an edge can only add
/// derivations, deleting one can only remove them — so the maintainer
/// uses directional repair:
///
/// * **insert**: multi-path variant of Algorithm 1's insert case,
///   using all root paths of `N1` and all `ancestors_all(X,
///   cond_path)` candidates, verified by root-path membership;
/// * **delete**: every current member `Y` is re-verified (some root
///   path equals `sel_path`, and the condition still holds);
/// * **modify**: all `ancestors_all(N, cond_path)` candidates are
///   inserted or re-verified per the predicate on old/new values.
#[derive(Clone, Debug)]
pub struct DagMaintainer {
    def: SimpleViewDef,
}

/// Cap on enumerated root paths per object.
const PATH_LIMIT: usize = 10_000;

impl DagMaintainer {
    /// Build a maintainer.
    pub fn new(def: SimpleViewDef) -> Self {
        DagMaintainer { def }
    }

    /// The definition.
    pub fn def(&self) -> &SimpleViewDef {
        &self.def
    }

    fn selects(&self, store: &Store, y: Oid) -> bool {
        let on_sel_path =
            path::paths_between(store, self.def.root, y, PATH_LIMIT).contains(&self.def.sel_path);
        if !on_sel_path {
            return false;
        }
        match &self.def.cond {
            None => true,
            Some(c) => {
                !gsdb::path::eval(store, y, &c.path, &|a| c.pred.eval(a)).is_empty()
            }
        }
    }

    /// Process one update.
    pub fn apply(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        update: &AppliedUpdate,
    ) -> Result<Outcome> {
        let out = match update {
            AppliedUpdate::Insert { parent, child } => self.on_insert(mv, store, *parent, *child)?,
            AppliedUpdate::Delete { parent, child } => self.on_delete(mv, store, *parent, *child)?,
            AppliedUpdate::Modify { oid, old, new } => self.on_modify(mv, store, *oid, old, new)?,
            AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. } => Outcome::default(),
        };
        content_upkeep(mv, &mut LocalBase::new(store), update)?;
        Ok(out)
    }

    fn locate_all(&self, store: &Store, n1: Oid, n2: Oid) -> Vec<Path> {
        let full = self.def.full_path();
        let Some(l2) = store.label(n2) else {
            return Vec::new();
        };
        let mut remainders = Vec::new();
        for rp in path::paths_between(store, self.def.root, n1, PATH_LIMIT) {
            let mut prefix = rp;
            prefix.push(l2);
            if let Some(p) = full.strip_prefix(&prefix) {
                if !remainders.contains(&p) {
                    remainders.push(p);
                }
            }
        }
        remainders
    }

    fn on_insert(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        n1: Oid,
        n2: Oid,
    ) -> Result<Outcome> {
        let remainders = self.locate_all(store, n1, n2);
        if remainders.is_empty() {
            return Ok(Outcome::default());
        }
        let mut out = Outcome {
            relevant: true,
            ..Outcome::default()
        };
        let cond_path = self.def.cond_path();
        let mut local = LocalBase::new(store);
        for p in remainders {
            let s = local.eval(n2, &p, self.def.cond.as_ref().map(|c| &c.pred));
            for x in s {
                for y in gsdb::path::ancestors_all(store, x, &cond_path) {
                    if mv.contains_base(y) || !self.selects(store, y) {
                        continue;
                    }
                    if let Some(obj) = store.get(y) {
                        let obj = obj.clone();
                        mv.v_insert(&obj)?;
                        out.inserted.push(y);
                    }
                }
            }
        }
        out.inserted.sort_by_key(|o| o.name());
        out.inserted.dedup();
        Ok(out)
    }

    fn on_delete(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        n1: Oid,
        n2: Oid,
    ) -> Result<Outcome> {
        // Only members with a derivation through the deleted edge can
        // change, and deletion is anti-monotone (it can only evict).
        // Locate the edge against sel.cond as in Algorithm 1, per root
        // path of N1 (N1's root paths are unaffected by losing a
        // child edge).
        let remainders = self.locate_all(store, n1, n2);
        if remainders.is_empty() {
            return Ok(Outcome::default());
        }
        let mut out = Outcome {
            relevant: true,
            ..Outcome::default()
        };
        let cond_path = self.def.cond_path();
        let mut candidates: Vec<Oid> = Vec::new();
        for p in remainders {
            if p.ends_with(&cond_path) {
                // Y at or below N2: p = p1.cond_path; candidates are
                // the sel-level objects in the (possibly still
                // attached elsewhere) subtree under N2.
                let p1 = Path(p.labels()[..p.len() - cond_path.len()].to_vec());
                candidates.extend(gsdb::path::reach(store, n2, &p1));
            } else {
                // Y above N1: cond_path = q.label(N2).p.
                let q = Path(cond_path.labels()[..cond_path.len() - p.len() - 1].to_vec());
                if q.is_empty() {
                    candidates.push(n1);
                } else {
                    candidates.extend(gsdb::path::ancestors_all(store, n1, &q));
                }
            }
        }
        candidates.sort_by_key(|o| o.name());
        candidates.dedup();
        for y in candidates {
            if mv.contains_base(y) && !self.selects(store, y) && mv.v_delete(y)? {
                out.deleted.push(y);
            }
        }
        Ok(out)
    }

    fn on_modify(
        &self,
        mv: &mut MaterializedView,
        store: &Store,
        n: Oid,
        old: &gsdb::Atom,
        new: &gsdb::Atom,
    ) -> Result<Outcome> {
        let Some(cond) = &self.def.cond else {
            return Ok(Outcome::default());
        };
        let full = self.def.full_path();
        let at_full_path =
            path::paths_between(store, self.def.root, n, PATH_LIMIT).contains(&full);
        if !at_full_path {
            return Ok(Outcome::default());
        }
        let mut out = Outcome {
            relevant: true,
            ..Outcome::default()
        };
        let candidates = gsdb::path::ancestors_all(store, n, &cond.path);
        if cond.pred.eval(new) {
            for y in candidates {
                if !mv.contains_base(y) && self.selects(store, y) {
                    if let Some(obj) = store.get(y) {
                        let obj = obj.clone();
                        mv.v_insert(&obj)?;
                        out.inserted.push(y);
                    }
                }
            }
        } else if cond.pred.eval(old) {
            for y in candidates {
                if mv.contains_base(y) && !self.selects(store, y) && mv.v_delete(y)? {
                    out.deleted.push(y);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::LocalBase;
    use crate::recompute::recompute_members;
    use gsdb::builder::{atom, set};
    use gsdb::samples;
    use gsview_query::{CmpOp, Pred, PathExpr};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    // ---------------- Compound ----------------

    #[test]
    fn compound_union_of_professor_and_secretary() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = CompoundViewDef::new(
            "STAFF",
            vec![
                SimpleViewDef::new("_", "ROOT", "professor"),
                SimpleViewDef::new("_", "ROOT", "secretary"),
            ],
        );
        let mut cm = CompoundMaintainer::new(&def);
        let mut mv = MaterializedView::new("STAFF");
        cm.initialize(&mut mv, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P2"), oid("P4")]);

        // Delete P4 from ROOT: only the secretary branch loses it.
        let up = store.delete_edge(oid("ROOT"), oid("P4")).unwrap();
        let out = cm.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.deleted, vec![oid("P4")]);
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P2")]);
    }

    #[test]
    fn compound_overlapping_branches_keep_shared_member() {
        // Branch A: professors with age ≤ 45; branch B: professors
        // named John. P1 satisfies both; losing one derivation must
        // not evict it.
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = CompoundViewDef::new(
            "U",
            vec![
                SimpleViewDef::new("_", "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
                SimpleViewDef::new("_", "ROOT", "professor")
                    .with_cond("name", Pred::new(CmpOp::Eq, "John")),
            ],
        );
        let mut cm = CompoundMaintainer::new(&def);
        let mut mv = MaterializedView::new("U");
        cm.initialize(&mut mv, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1")]);
        // Age goes to 80: branch A drops P1, branch B keeps it.
        let up = store.modify_atom(oid("A1"), 80i64).unwrap();
        let out = cm.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(out.relevant);
        assert!(out.deleted.is_empty());
        assert!(mv.contains_base(oid("P1")));
        // Rename too: now both derivations are gone.
        let up = store.modify_atom(oid("N1"), "Jon").unwrap();
        let out = cm.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.deleted, vec![oid("P1")]);
    }

    // ---------------- Wildcard ----------------

    #[test]
    fn wildcard_view_mvj_is_maintained() {
        // MVJ: SELECT ROOT.* X WHERE X.name = 'John'.
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap())
            .with_cond(PathExpr::parse("name").unwrap(), Pred::new(CmpOp::Eq, "John"));
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P3")]);

        // Rename Sally to John: P2 joins.
        let up = store.modify_atom(oid("N2"), "John").unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(out.relevant);
        assert_eq!(out.inserted, vec![oid("P2")]);

        // An age modification is *irrelevant* to a name view... but
        // under `SELECT ROOT.*`, full_expr = *.name, and age atoms sit
        // at paths not matching *.name, so the guard rejects it.
        let up = store.modify_atom(oid("A4"), 41i64).unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(!out.relevant);
        assert_eq!(gm.refreshes(), 0);
    }

    #[test]
    fn wildcard_insert_reaches_any_depth() {
        // Paper §6: with SELECT ROOT.*, "any insertion of a ROOT's
        // descendent node will cause delegate objects to be inserted".
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = GeneralViewDef::new("ALL", "ROOT", PathExpr::parse("*").unwrap());
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        let before = mv.len();
        // Deep new object under P3.
        atom("HOB", "hobby", "chess").build(&mut store).unwrap();
        let up = store.insert_edge(oid("P3"), oid("HOB")).unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(out.relevant);
        assert_eq!(out.inserted, vec![oid("HOB")]);
        assert_eq!(mv.len(), before + 1);
    }

    #[test]
    fn wildcard_backends_agree_and_planner_picks_algorithm1() {
        let mut a1 = Store::new();
        samples::person_db(&mut a1).unwrap();
        let mut b1 = a1.clone();
        let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap())
            .with_cond(PathExpr::parse("name").unwrap(), Pred::new(CmpOp::Eq, "John"));
        let alg = GeneralMaintainer::new(def.clone());
        // Regression pin (E18 routing fix): the planner must route
        // wildcard shapes to Algorithm 1, not the circuit, and the
        // maintainer reports the planner's answer.
        let source = CircuitSource::General(def.clone());
        assert_eq!(source.planned_backend().0, MaintBackend::Algorithm1);
        let planned = GeneralMaintainer::planned(def);
        assert_eq!(planned.backend(), MaintBackend::Algorithm1);
        assert_eq!(alg.backend(), MaintBackend::Algorithm1);
        // The off-route circuit is built directly, so the parity check
        // below still exercises both backends.
        let cir = crate::circuitview::CircuitMaintainer::new(source);
        let mut mv_a = alg.recompute(&a1).unwrap();
        let mut mv_c = alg.recompute(&b1).unwrap();

        for round in 0..3 {
            let mut batch_a = gsdb::DeltaBatch::new();
            let mut batch_b = gsdb::DeltaBatch::new();
            let ops = [
                gsdb::Update::modify("N2", "John"),
                gsdb::Update::modify("N2", "Sally"),
                gsdb::Update::modify("N4", "John"),
            ];
            for u in ops {
                batch_a.push(a1.apply(u.clone()).unwrap());
                batch_b.push(b1.apply(u).unwrap());
            }
            let out_a = alg.apply_batch(&mut mv_a, &a1, &batch_a).unwrap();
            let out_c = cir.apply_batch(&mut mv_c, &b1, &batch_b).unwrap();
            assert_eq!(mv_a.members_base(), mv_c.members_base(), "round {round}");
            assert_eq!(out_a.inserted, out_c.inserted, "round {round}");
            assert_eq!(out_a.deleted, out_c.deleted, "round {round}");
        }
    }

    #[test]
    fn wildcard_guard_rejects_unreachable_edges() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        // A view rooted at P1 only.
        let def = GeneralViewDef::new("SUB", "P1", PathExpr::parse("*.age").unwrap());
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        // Update under P4 — not reachable from P1.
        atom("A4b", "age", 22i64).build(&mut store).unwrap();
        let up = store.insert_edge(oid("P4"), oid("A4b")).unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(!out.relevant);
    }

    /// A tree: two departments, students at depth 3, and a `misc`
    /// region no `dept`-anchored expression enters.
    fn campus() -> Store {
        let mut s = Store::new();
        set("ROOT", "db")
            .child(
                set("D1", "dept").child(
                    set("P1", "professor")
                        .child(atom("A1", "age", 50i64))
                        .child(set("S1", "student").child(atom("T1", "age", 40i64)))
                        .child(set("S2", "student").child(atom("T2", "age", 20i64))),
                ),
            )
            .child(
                set("D2", "dept").child(
                    set("P2", "professor")
                        .child(set("S3", "student").child(atom("T3", "age", 45i64))),
                ),
            )
            .child(set("X1", "misc"))
            .build(&mut s)
            .unwrap();
        s
    }

    fn old_students(sel: &str) -> GeneralMaintainer {
        GeneralMaintainer::new(
            GeneralViewDef::new("OLD", "ROOT", PathExpr::parse(sel).unwrap())
                .with_cond(PathExpr::parse("age").unwrap(), Pred::new(CmpOp::Gt, 37i64)),
        )
    }

    /// Apply `ops` as one batch and maintain `mv`; the view must equal
    /// recomputation, delegate values included, without the fallback.
    fn batch_locally(
        gm: &GeneralMaintainer,
        mv: &mut MaterializedView,
        store: &mut Store,
        ops: Vec<gsdb::Update>,
    ) -> BatchOutcome {
        let mut batch = DeltaBatch::new();
        for u in ops {
            batch.push(store.apply(u).unwrap());
        }
        let out = gm.apply_batch(mv, store, &batch).unwrap();
        let want = gm.recompute(store).unwrap();
        assert_eq!(mv.members_base(), want.members_base());
        for y in mv.members_base() {
            let copy = |v: &MaterializedView| v.delegate(v.delegate_of(y).unwrap()).cloned();
            assert_eq!(copy(mv), copy(&want), "delegate of {y}");
        }
        assert_eq!(gm.refreshes(), 0, "a tree needs no refresh");
        out
    }

    #[test]
    fn delete_then_reattach_elsewhere_is_repaired_locally() {
        // The case the per-batch refresh existed for: an edge is cut
        // while its parent sits somewhere relevant, and the parent then
        // moves to where the guard rejects it. The final state shows
        // the deleted edge at an irrelevant position, yet S1 must go.
        use gsdb::Update;
        let mut store = campus();
        let gm = old_students("dept.*.student");
        let mut mv = gm.recompute(&store).unwrap();
        assert_eq!(mv.members_base(), vec![oid("S1"), oid("S3")]);
        let out = batch_locally(
            &gm,
            &mut mv,
            &mut store,
            vec![
                Update::delete("P1", "S1"),
                Update::delete("D1", "P1"),
                Update::insert("X1", "P1"),
            ],
        );
        assert_eq!(out.deleted, vec![oid("S1")]);
        assert!(out.inserted.is_empty());
        assert!(!gm.edge_relevant(&store, oid("P1"), oid("S2")));

        // A subtree that moves and changes in the same batch: S2 turns
        // 50 and goes to P2; S3's professor moves under D1.
        let out = batch_locally(
            &gm,
            &mut mv,
            &mut store,
            vec![
                Update::modify("T2", 50i64),
                Update::delete("P1", "S2"),
                Update::insert("P2", "S2"),
                Update::delete("D2", "P2"),
                Update::insert("D1", "P2"),
            ],
        );
        assert_eq!(out.inserted, vec![oid("S2")]);
        assert!(out.deleted.is_empty());
        assert_eq!(mv.members_base(), vec![oid("S2"), oid("S3")]);
    }

    #[test]
    fn detach_then_remove_in_one_batch() {
        // Removing the detached record destroys its children list, so
        // T1 cannot be found by walking down from S1: the members are
        // swept instead (no refresh).
        use gsdb::Update;
        let mut store = campus();
        let all = GeneralMaintainer::new(GeneralViewDef::new(
            "ALL",
            "ROOT",
            PathExpr::parse("*").unwrap(),
        ));
        let gm = old_students("*.student");
        let mut mv_all = all.recompute(&store).unwrap();
        let mut mv = gm.recompute(&store).unwrap();
        let ops = vec![
            Update::delete("P1", "S1"),
            Update::Remove { oid: oid("S1") },
        ];
        let out = batch_locally(&gm, &mut mv, &mut store.clone(), ops.clone());
        assert_eq!(out.deleted, vec![oid("S1")]);
        let out = batch_locally(&all, &mut mv_all, &mut store, ops);
        assert_eq!(out.deleted, vec![oid("S1"), oid("T1")]);
        assert!(out.swept);
        // The record alone, in a later batch: nothing left to do.
        let out = batch_locally(
            &all,
            &mut mv_all,
            &mut store,
            vec![Update::Remove { oid: oid("T1") }],
        );
        assert!(!out.changed() && !out.swept);

        // A record removed from under its parent (the edge dangles):
        // S3 loses its witness with no edge or atom delta at all.
        let mut mv = gm.recompute(&store).unwrap();
        let out = batch_locally(
            &gm,
            &mut mv,
            &mut store,
            vec![Update::Remove { oid: oid("T3") }],
        );
        assert_eq!(out.deleted, vec![oid("S3")]);
    }

    #[test]
    fn an_inserted_or_modified_witness_needs_no_walk() {
        let mut store = campus();
        let gm = old_students("*.student");
        let mut mv = gm.recompute(&store).unwrap();
        atom("T9", "age", 60i64).build(&mut store).unwrap();
        let out = batch_locally(
            &gm,
            &mut mv,
            &mut store,
            vec![gsdb::Update::insert("S2", "T9"), gsdb::Update::modify("T1", 30i64)],
        );
        assert_eq!(out.inserted, vec![oid("S2")]);
        assert_eq!(out.deleted, vec![oid("S1")]);
        assert_eq!(out.relevant_deltas, 2);
        // A modify that leaves the predicate's verdict alone is located
        // (relevant) but names no candidate.
        let out = batch_locally(
            &gm,
            &mut mv,
            &mut store,
            vec![gsdb::Update::modify("T3", 46i64)],
        );
        assert_eq!((out.relevant_deltas, out.changed()), (1, false));
    }

    #[test]
    fn what_the_local_rule_does_not_cover_takes_the_counted_refresh() {
        // Two paths from the root (P3 hangs under ROOT and under P1).
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = GeneralViewDef::new("ALL", "ROOT", PathExpr::parse("*").unwrap());
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        atom("HOB", "hobby", "chess").build(&mut store).unwrap();
        let up = store.insert_edge(oid("P3"), oid("HOB")).unwrap();
        assert_eq!(gm.apply(&mut mv, &store, &up).unwrap().inserted, vec![oid("HOB")]);
        assert_eq!(gm.refreshes(), 1);
        // ... but a database object that groups its members is a parent
        // that leads nowhere, not a second path.
        let up = store.modify_atom(oid("N2"), "Sal").unwrap();
        gm.apply(&mut mv, &store, &up).unwrap();
        assert_eq!(gm.refreshes(), 1);
    }

    #[test]
    fn a_run_of_stars_is_one_element_and_repairs_locally() {
        // Seventy adjacent `*` say what one says; the automaton has
        // room for that, so there is nothing to fall back from.
        let mut store = campus();
        let stars = PathExpr(vec![gsview_query::Elem::AnySeq; 70]);
        let gm = GeneralMaintainer::new(GeneralViewDef::new("STARS", "ROOT", stars));
        let mut mv = gm.recompute(&store).unwrap();
        let out = batch_locally(&gm, &mut mv, &mut store, vec![gsdb::Update::delete("P1", "S1")]);
        assert_eq!(out.deleted, vec![oid("S1"), oid("T1")]);
    }

    #[test]
    fn shared_and_cyclic_structure_is_searched_once() {
        // 40 stacked diamonds hold 2^40 upward walks from the bottom
        // object, and a cycle holds walks of any length: the search for
        // `path(root, n)` must visit each ancestor once, whether or not
        // the structure hangs under the root, and report the second
        // path instead of enumerating.
        let mut store = Store::counting();
        let mut dept = set("D1", "dept");
        for i in 0..3000 {
            dept = dept.child(atom(&format!("F{i}"), "filler", i as i64));
        }
        set("ROOT", "db").child(dept).build(&mut store).unwrap();
        let edge = |s: &mut Store, p: &str, c: &str| s.insert_edge(oid(p), oid(c)).unwrap();
        let levels = 40;
        for i in 0..=levels {
            store.create(gsdb::Object::empty_set(format!("L{i}").as_str(), "rung")).unwrap();
        }
        for i in 0..levels {
            for side in ["l", "r"] {
                let rail = format!("L{i}{side}");
                store.create(gsdb::Object::empty_set(rail.as_str(), "rail")).unwrap();
                edge(&mut store, &format!("L{i}"), &rail);
                edge(&mut store, &rail, &format!("L{}", i + 1));
            }
        }
        for i in 0..5 {
            store.create(gsdb::Object::empty_set(format!("C{i}").as_str(), "ring")).unwrap();
        }
        for i in 0..5 {
            edge(&mut store, &format!("C{i}"), &format!("C{}", (i + 1) % 5));
        }
        let bottom = format!("L{levels}");

        let gm = GeneralMaintainer::new(GeneralViewDef::new(
            "ALL",
            "ROOT",
            PathExpr::parse("*").unwrap(),
        ));
        let mut mv = gm.recompute(&store).unwrap();
        // Hang a new atom under `host`, maintain, and return the base
        // accesses maintenance took.
        let hang = |store: &mut Store, mv: &mut MaterializedView, host: &str, name: &str| {
            atom(name, "hobby", "chess").build(store).unwrap();
            let mut batch = DeltaBatch::new();
            batch.push(store.insert_edge(oid(host), oid(name)).unwrap());
            store.reset_accesses();
            gm.apply_batch(mv, store, &batch).unwrap();
            let accesses = store.accesses();
            assert_eq!(mv.members_base(), gm.recompute(store).unwrap().members_base());
            accesses
        };
        // Detached: screened, at a cost that knows neither the number
        // of walks nor the size of the store.
        let ancestors = 3 * levels as u64 + 1;
        assert!(hang(&mut store, &mut mv, &bottom, "H1") <= 3 * ancestors);
        assert!(hang(&mut store, &mut mv, "C2", "H2") <= 3 * 5);
        assert_eq!(gm.refreshes(), 0);
        assert_eq!(mv.len(), 3002);

        // Under the root: the second path is found and the fallback
        // fires, at the cost of one evaluation of the query.
        let whole_store = 4 * store.len() as u64;
        edge(&mut store, "ROOT", "L0");
        edge(&mut store, "ROOT", "C0");
        mv = gm.recompute(&store).unwrap();
        assert!(hang(&mut store, &mut mv, &bottom, "H3") <= whole_store);
        assert_eq!(gm.refreshes(), 1);
        assert!(hang(&mut store, &mut mv, "C2", "H4") <= whole_store);
        assert_eq!(gm.refreshes(), 2);
        assert!(mv.contains_base(oid("H3")) && mv.contains_base(oid("H4")));
    }

    /// Base accesses per single-delta batch against
    /// `ROOT.*.student WHERE age > 37`, over a counting store of
    /// `depts` × 10 professors × 3 students (about 70 objects a dept).
    fn accesses_per_update(depts: usize) -> f64 {
        use gsdb::Update;
        let mut store = Store::counting();
        let mut root = set("ROOT", "db");
        for d in 0..depts {
            let mut dept = set(&format!("D{d}"), "dept");
            for p in (0..10).map(|p| d * 10 + p) {
                let mut prof = set(&format!("P{p}"), "professor")
                    .child(atom(&format!("A{p}"), "age", 30 + (p % 40) as i64));
                for k in (0..3).map(|k| p * 3 + k) {
                    prof = prof.child(
                        set(&format!("S{k}"), "student")
                            .child(atom(&format!("T{k}"), "age", 20 + (k % 30) as i64)),
                    );
                }
                dept = dept.child(prof);
            }
            root = root.child(dept);
        }
        root.build(&mut store).unwrap();
        let gm = old_students("*.student");
        let mut mv = gm.recompute(&store).unwrap();
        store.reset_accesses();
        let mut updates = 0;
        // The same professors at every size; every kind of delta, each
        // changing membership.
        for p in (0..70).step_by(7) {
            let (s, t) = (format!("S{}", p * 3), format!("T{}", p * 3));
            let (fresh, age) = (format!("S{p}new"), format!("T{p}new"));
            set(&fresh, "student").child(atom(&age, "age", 50i64)).build(&mut store).unwrap();
            for u in [
                Update::modify(t.as_str(), 60i64),
                Update::modify(t.as_str(), 10i64),
                Update::modify(format!("A{p}").as_str(), 99i64),
                Update::insert(format!("P{p}").as_str(), fresh.as_str()),
                Update::delete(format!("P{p}").as_str(), s.as_str()),
            ] {
                updates += 1;
                let mut batch = DeltaBatch::new();
                batch.push(store.apply(u).unwrap());
                gm.apply_batch(&mut mv, &store, &batch).unwrap();
            }
        }
        let accesses = store.accesses();
        assert_eq!(gm.refreshes(), 0);
        assert_eq!(mv.members_base(), gm.recompute(&store).unwrap().members_base());
        accesses as f64 / updates as f64
    }

    #[test]
    fn wildcard_repair_cost_is_flat_in_store_size() {
        // The locality gate: counts, not time, so it holds on any
        // machine. The per-batch refresh this replaced read the whole
        // store: 16× the objects, 16× the accesses.
        let (small, large) = (accesses_per_update(14), accesses_per_update(224));
        assert!(large <= small * 1.25, "{small} accesses/update at 1k objects, {large} at 16k");
        assert!(large < 20.0, "{large} accesses/update");
    }

    #[test]
    fn locate_and_repair_are_spanned_and_counted() {
        let mut store = campus();
        let gm = old_students("*.student");
        let mut mv = gm.recompute(&store).unwrap();
        let candidates = gsview_obs::registry().counter("maint.general.candidates");
        let before = candidates.get();
        let profile = Arc::new(gsview_obs::PhaseProfile::new());
        let _guard = gsview_obs::install(profile.clone());
        batch_locally(
            &gm,
            &mut mv,
            &mut store,
            vec![gsdb::Update::modify("T2", 44i64)],
        );
        // At least: the collector is process-wide, and tests running
        // beside this one maintain wildcard views too.
        assert!(profile.get("maint.general.locate").count >= 1);
        assert!(profile.get("maint.general.repair").count >= 1);
        assert!(candidates.get() > before);
    }

    // ---------------- DAG ----------------

    fn dag_store() -> Store {
        // Two tuples share one age field; R holds both.
        let mut s = Store::new();
        set("REL", "relations")
            .child(
                set("R", "r")
                    .child(set("t1", "tuple").child(atom("shared", "age", 40i64)))
                    .child(set("t2", "tuple").reference("shared")),
            )
            .build(&mut s)
            .unwrap();
        s
    }

    #[test]
    fn paths_between_enumerates_dag_paths() {
        let s = dag_store();
        let paths = path::paths_between(&s, oid("REL"), oid("shared"), 100);
        assert_eq!(paths.len(), 1, "both derivations share the same label path");
        assert_eq!(paths[0], Path::parse("r.tuple.age"));
        let t_paths = path::paths_between(&s, oid("REL"), oid("t1"), 100);
        assert_eq!(t_paths, vec![Path::parse("r.tuple")]);
    }

    #[test]
    fn dag_insert_adds_all_sharing_ancestors() {
        let mut s = dag_store();
        let def = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let dm = DagMaintainer::new(def.clone());
        let mut mv = MaterializedView::new("SEL");
        // Initialize via recompute (members: both tuples share age 40).
        for y in recompute_members(&def, &mut LocalBase::new(&s)) {
            let obj = s.get(y).unwrap().clone();
            mv.v_insert(&obj).unwrap();
        }
        assert_eq!(mv.members_base(), vec![oid("t1"), oid("t2")]);

        // New tuple referencing the shared field.
        set("t3", "tuple").build(&mut s).unwrap();
        let up1 = s.insert_edge(oid("R"), oid("t3")).unwrap();
        dm.apply(&mut mv, &s, &up1).unwrap();
        let up2 = s.insert_edge(oid("t3"), oid("shared")).unwrap();
        let out = dm.apply(&mut mv, &s, &up2).unwrap();
        assert_eq!(out.inserted, vec![oid("t3")]);
    }

    #[test]
    fn dag_delete_only_evicts_members_without_remaining_derivation() {
        let mut s = dag_store();
        let def = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let dm = DagMaintainer::new(def.clone());
        let mut mv = MaterializedView::new("SEL");
        for y in recompute_members(&def, &mut LocalBase::new(&s)) {
            let obj = s.get(y).unwrap().clone();
            mv.v_insert(&obj).unwrap();
        }
        // t2 loses its shared age: only t2 leaves.
        let up = s.delete_edge(oid("t2"), oid("shared")).unwrap();
        let out = dm.apply(&mut mv, &s, &up).unwrap();
        assert_eq!(out.deleted, vec![oid("t2")]);
        assert!(mv.contains_base(oid("t1")));
    }

    #[test]
    fn dag_maintenance_matches_recompute_under_stream() {
        let mut s = dag_store();
        let def = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let dm = DagMaintainer::new(def.clone());
        let mut mv = MaterializedView::new("SEL");
        for y in recompute_members(&def, &mut LocalBase::new(&s)) {
            let obj = s.get(y).unwrap().clone();
            mv.v_insert(&obj).unwrap();
        }
        let updates = [
            gsdb::Update::modify("shared", 20i64),
            gsdb::Update::modify("shared", 35i64),
            gsdb::Update::delete("t1", "shared"),
            gsdb::Update::insert("t1", "shared"),
        ];
        for u in updates {
            let applied = s.apply(u).unwrap();
            dm.apply(&mut mv, &s, &applied).unwrap();
            let expected = recompute_members(&def, &mut LocalBase::new(&s));
            assert_eq!(mv.members_base(), expected, "after {applied}");
        }
    }

    #[test]
    fn dag_maintainer_is_bounded_beside_cycles_and_dead_end_diamonds() {
        // `shared` gets two more parents that lead nowhere near REL: a
        // two-object cycle, which holds upward walks of any length, and
        // the bottom of 40 stacked diamonds, which hold 2^40. Neither
        // is a path from the root, so neither may cost more than a
        // visit per object.
        let mut s = dag_store();
        let edge = |s: &mut Store, p: &str, c: &str| s.insert_edge(oid(p), oid(c)).unwrap();
        for name in ["X", "Y"] {
            set(name, "ring").build(&mut s).unwrap();
        }
        edge(&mut s, "X", "Y");
        edge(&mut s, "Y", "X");
        edge(&mut s, "Y", "shared");
        set("L0", "rung").build(&mut s).unwrap();
        for i in 0..40 {
            set(&format!("L{}", i + 1), "rung").build(&mut s).unwrap();
            for side in ["l", "r"] {
                let rail = format!("L{i}{side}");
                set(&rail, "rail").build(&mut s).unwrap();
                edge(&mut s, &format!("L{i}"), &rail);
                edge(&mut s, &rail, &format!("L{}", i + 1));
            }
        }
        edge(&mut s, "L40", "shared");
        assert_eq!(
            path::paths_between(&s, oid("REL"), oid("shared"), 100),
            vec![Path::parse("r.tuple.age")]
        );

        let def = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let dm = DagMaintainer::new(def.clone());
        let mut mv = MaterializedView::new("SEL");
        for y in recompute_members(&def, &mut LocalBase::new(&s)) {
            let obj = s.get(y).unwrap().clone();
            mv.v_insert(&obj).unwrap();
        }
        for u in [gsdb::Update::modify("shared", 20i64), gsdb::Update::modify("shared", 35i64)] {
            let applied = s.apply(u).unwrap();
            dm.apply(&mut mv, &s, &applied).unwrap();
            assert_eq!(mv.members_base(), recompute_members(&def, &mut LocalBase::new(&s)));
        }
    }
}
