//! Maintenance beyond the simple-view class — the extensions paper §6
//! sketches:
//!
//! * [`CompoundMaintainer`] — views with more than one select path or
//!   condition ("relaxing some of the restrictions ... is easy");
//! * [`GeneralMaintainer`] — wild-card path expressions: the
//!   path-containment machinery ("the maintenance algorithm needs to
//!   be able to test path containment for general path expressions")
//!   locates each update, and repair stays local to it — on DAG and
//!   cyclic bases too ("now there may be more than one path between
//!   two objects"), whose walks the locate step joins.

use crate::base::BaseAccess;
use crate::maintain::{content_upkeep, BatchOutcome, Maintainer, Outcome};
use crate::mview::MaterializedView;
use crate::sink::{reconcile, refresh_touched, MemberSet, ViewSink};
use crate::viewdef::{CompoundViewDef, GeneralViewDef};
use gsdb::{
    path, AppliedUpdate, ConsolidatedDelta, DeltaBatch, EdgeDelta, EdgeOp, FastMap, Label,
    ModifyDelta, Oid, Result, Store,
};
use gsview_obs::Counter;
use gsview_query::{choose_backend, evaluate, MaintBackend, Nfa, WalkScratch};
use std::collections::HashSet;
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
        let delta = batch.consolidated();
        let mut relevant = 0;
        for (m, shadow) in &mut self.branches {
            let out = m.apply_consolidated(shadow, base, delta)?;
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
        let (inserted, deleted) = reconcile(mv, &union, |y| base.fetch(y))?;
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
/// a root walk is the `sel` set plus one `cond` set per ancestor at
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

/// Where the walks from the root leave the automata: the `sel` mask,
/// and one `cond` mask per ancestor `y` at which `sel` accepted — the
/// state `cond_expr` is in after the walks from `y` to here, dropped
/// once dead. Over several walks each mask is the union of the walks'
/// masks, a thread's keyed by the ancestor that opened it.
#[derive(Clone)]
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
                self.merge(at, c.start_mask());
            }
        }
    }

    /// Add `mask` to the thread `y` opened; whether that grew it.
    fn merge(&mut self, y: Oid, mask: u64) -> bool {
        match self.threads.iter_mut().find(|t| t.0 == y) {
            Some(t) => {
                let grew = mask & !t.1 != 0;
                t.1 |= mask;
                grew
            }
            None => {
                self.threads.push((y, mask));
                true
            }
        }
    }

    /// Join a second walk's masks into these; whether they grew.
    fn join(&mut self, other: Located) -> bool {
        let grew = other.sel & !self.sel != 0;
        self.sel |= other.sel;
        other
            .threads
            .into_iter()
            .fold(grew, |grew, (y, m)| self.merge(y, m) | grew)
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
/// * **Locate**: run the automata down every walk from the root to
///   `N1` of every consolidated delta. A dead state set screens the
///   delta — the §6 path-containment test, one upward search like the
///   simple-view screen.
/// * **Repair**: the objects whose membership the delta can change are
///   the ancestors of `N1` at which `sel_expr` accepts (their witness
///   set changed) and the objects the product walk reaches below `N2`
///   (their root path changed); all members, if the batch removed a
///   record that was reachable (its children list is gone).
/// * **Verify**: each candidate is re-checked against the final state
///   only, which makes the result independent of update order.
///
/// On shared or cyclic structure (paper §6) an object has more than
/// one walk from the root; the locate step joins the state sets of all
/// of them ([`path::fold_walks`]), and repair and verify run as on a
/// tree. DESIGN.md ("Wildcard views: local repair") has the
/// completeness argument.
#[derive(Clone, Debug)]
pub struct GeneralMaintainer {
    def: GeneralViewDef,
    automata: Automata,
    /// `maint.general.candidates`, looked up once.
    candidates: Arc<Counter>,
}

impl GeneralMaintainer {
    /// Build a maintainer. This is the Algorithm 1 plan for a single
    /// path expression, which is where the planner routes every such
    /// shape ([`GeneralMaintainer::backend`]).
    pub fn new(def: GeneralViewDef) -> Self {
        GeneralMaintainer {
            automata: Automata::compile(&def),
            def,
            candidates: gsview_obs::registry().counter("maint.general.candidates"),
        }
    }

    /// [`GeneralMaintainer::new`], under the name callers use when they
    /// mean "whatever the planner picks".
    pub fn planned(def: GeneralViewDef) -> Self {
        Self::new(def)
    }

    /// The backend the planner routes this shape to ([`choose_backend`]).
    pub fn backend(&self) -> MaintBackend {
        choose_backend(&self.def.sel_expr, 1, false).0
    }

    /// The definition.
    pub fn def(&self) -> &GeneralViewDef {
        &self.def
    }

    /// Materialize from scratch.
    pub fn recompute(&self, store: &Store) -> Result<MaterializedView> {
        let members = self.evaluate(store)?;
        let mut mv = MaterializedView::new(self.def.view);
        mv.insert_all(members.into_iter().filter_map(|y| store.get(y).cloned()))?;
        Ok(mv)
    }

    fn evaluate(&self, store: &Store) -> Result<Vec<Oid>> {
        evaluate(store, &self.def.to_query())
            .map(|ans| ans.oids)
            .map_err(|_| gsdb::GsdbError::NoSuchObject(self.def.root))
    }

    /// Run the automata down every walk from the root to `n`, joining
    /// what the walks leave; `None` when `n` does not hang under the
    /// root or the automata die on every walk.
    fn locate(&self, store: &Store, n: Oid) -> Option<Located> {
        let a = &self.automata;
        let root = self.def.root;
        let mut start = Located {
            sel: a.sel.start_mask(),
            threads: Vec::new(),
        };
        start.open(a, root);
        let step = |mut at: Located, o: Oid, l: Label| {
            at.step(a, l);
            if at.dead() {
                return None;
            }
            at.open(a, o);
            Some(at)
        };
        path::fold_walks(store, root, n, start, step, Located::join)
    }

    /// Locate one net edge change and collect its candidates. Returns
    /// whether the delta is relevant to the view.
    fn locate_edge(
        &self,
        mv: &MaterializedView,
        store: &Store,
        e: &EdgeDelta,
        cands: &mut Candidates,
        scratch: &mut WalkScratch,
    ) -> bool {
        let a = &self.automata;
        let mut relevant = false;
        if e.op == EdgeOp::Delete {
            // What hung under the cut edge lost the root path it had.
            // The states `sel_expr` reached the child in belong to the
            // state before the batch (the parent itself may have moved
            // since), so walk from all of them; only members can lose.
            let (below, _) = scratch.reach(store, e.child, &a.sel, a.sel.all_states(), &|_| true);
            for y in below.into_iter().filter(|&y| mv.contains_base(y)) {
                cands.add(y, Known::default());
                relevant = true;
            }
        }
        let Some(l2) = store.label(e.child) else {
            cands.sweep |= e.op == EdgeOp::Delete;
            return relevant;
        };
        let Some(mut at) = self.locate(store, e.parent) else {
            return relevant;
        };
        at.step(a, l2);
        if at.dead() {
            return relevant;
        }
        // Ancestors whose witness set the edge is part of. An inserted
        // atom that satisfies the predicate is itself the witness.
        let inserted_witness = e.op == EdgeOp::Insert
            && self
                .def
                .cond
                .as_ref()
                .is_some_and(|c| store.atom(e.child).is_some_and(|v| c.pred.eval(v)));
        for &(y, mask) in &at.threads {
            let witness = inserted_witness && a.cond.as_ref().is_some_and(|c| c.is_accepting(mask));
            cands.add(y, Known { sel: true, witness });
        }
        // What now hangs under the new edge gained this root path:
        // continue the `sel_expr` walk from the states it arrives in.
        if e.op == EdgeOp::Insert && at.sel != 0 {
            let (below, _) = scratch.reach(store, e.child, &a.sel, at.sel, &|_| true);
            for y in below {
                cands.add(
                    y,
                    Known {
                        sel: true,
                        witness: false,
                    },
                );
            }
        }
        true
    }

    /// Locate one net atom change: it matters only to the ancestors it
    /// sits under at an instance of `cond_expr`, and only if the
    /// predicate's verdict on it flipped.
    fn locate_modify(&self, store: &Store, m: &ModifyDelta, cands: &mut Candidates) -> bool {
        let (Some(cond), Some(c)) = (&self.def.cond, &self.automata.cond) else {
            return false;
        };
        let Some(at) = self.locate(store, m.oid) else {
            return false;
        };
        let (was, is) = (cond.pred.eval(&m.old), cond.pred.eval(&m.new));
        let mut relevant = false;
        for &(y, mask) in &at.threads {
            if c.is_accepting(mask) {
                relevant = true;
                if was != is {
                    cands.add(
                        y,
                        Known {
                            sel: true,
                            witness: is,
                        },
                    );
                }
            }
        }
        relevant
    }

    /// Is `y` in the view, in the final state? The condition walk
    /// stops at its first witness.
    fn selects(&self, store: &Store, y: Oid, known: Known, scratch: &mut WalkScratch) -> bool {
        let a = &self.automata;
        if !known.sel
            && !self
                .locate(store, y)
                .is_some_and(|at| a.sel.is_accepting(at.sel))
        {
            return false;
        }
        match (&self.def.cond, &a.cond) {
            (Some(cond), Some(c)) if !known.witness => {
                let pred = &cond.pred;
                scratch
                    .any(store, y, None, c, c.start_mask(), &|_| true, |_, slot| {
                        pred.holds_at(store, slot)
                    })
                    .0
            }
            _ => true,
        }
    }

    /// Locate every delta, then verify every candidate against the
    /// final state: `(y, is a member)` per candidate. Every product
    /// walk of the batch runs in one scratch.
    fn verdicts(
        &self,
        mv: &MaterializedView,
        store: &Store,
        delta: &ConsolidatedDelta,
        out: &mut BatchOutcome,
    ) -> Vec<(Oid, bool)> {
        let mut cands = Candidates::default();
        let mut scratch = WalkScratch::default();
        {
            let _span = gsview_obs::span!("maint.general.locate");
            for e in &delta.edges {
                out.relevant_deltas +=
                    self.locate_edge(mv, store, e, &mut cands, &mut scratch) as usize;
            }
            for m in &delta.modifies {
                out.relevant_deltas += self.locate_modify(store, m, &mut cands) as usize;
            }
            for &x in &delta.removed {
                // A record nothing referenced was detached by an edge
                // delete (located above, in this batch or an earlier
                // one). One removed from under a parent takes what
                // hung under it out of reach with no edge delta.
                if !store.parents(x).is_empty() {
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
            .map(|(y, known)| (y, self.selects(store, y, known, &mut scratch)))
            .collect()
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
        for (y, member) in self.verdicts(mv, store, delta, &mut out) {
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
        // Content upkeep (§3.2).
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
        let delta = batch.consolidated();
        let _span = gsview_obs::span!(
            "maint.general.plan",
            "view" = self.def.view.name().to_string(),
            "input_ops" = delta.input_ops,
            "consolidated_ops" = delta.len(),
        );
        self.repair(mv, store, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::LocalBase;
    use crate::viewdef::SimpleViewDef;
    use gsdb::builder::{atom, set};
    use gsdb::samples;
    use gsview_query::{CmpOp, PathExpr, Pred};

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
        let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap()).with_cond(
            PathExpr::parse("name").unwrap(),
            Pred::new(CmpOp::Eq, "John"),
        );
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P3")]);

        // Rename Sally to John: P2 joins.
        let up = store.modify_atom(oid("N2"), "John").unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(out.relevant);
        assert_eq!(out.inserted, vec![oid("P2")]);

        // An age modification is *irrelevant* to a name view... but
        // under `SELECT ROOT.*`, the full path is *.name, and age atoms sit
        // at paths not matching *.name, so the guard rejects it.
        let up = store.modify_atom(oid("A4"), 41i64).unwrap();
        let out = gm.apply(&mut mv, &store, &up).unwrap();
        assert!(!out.relevant);
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
    fn wildcard_planner_picks_algorithm1() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = GeneralViewDef::new("MVJ", "ROOT", PathExpr::parse("*").unwrap()).with_cond(
            PathExpr::parse("name").unwrap(),
            Pred::new(CmpOp::Eq, "John"),
        );
        // Circuits take constant paths only, so the planner must route
        // wildcard shapes to Algorithm 1, and the maintainer reports
        // the planner's answer.
        let alg = GeneralMaintainer::planned(def);
        assert_eq!(alg.backend(), MaintBackend::Algorithm1);
        let mut mv = alg.recompute(&store).unwrap();

        for round in 0..3 {
            let mut batch = gsdb::DeltaBatch::new();
            let ops = [
                gsdb::Update::modify("N2", "John"),
                gsdb::Update::modify("N2", "Sally"),
                gsdb::Update::modify("N4", "John"),
            ];
            for u in ops {
                batch.push(store.apply(u).unwrap());
            }
            alg.apply_batch(&mut mv, &store, &batch).unwrap();
            let want = alg.recompute(&store).unwrap();
            assert_eq!(mv.members_base(), want.members_base(), "round {round}");
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
            .child(set("D2", "dept").child(
                set("P2", "professor").child(set("S3", "student").child(atom("T3", "age", 45i64))),
            ))
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
        // P1 now sits where the guard screens what happens under it.
        let out = batch_locally(&gm, &mut mv, &mut store, vec![Update::delete("P1", "A1")]);
        assert_eq!(out.relevant_deltas, 0);

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
        // swept instead.
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
            vec![
                gsdb::Update::insert("S2", "T9"),
                gsdb::Update::modify("T1", 30i64),
            ],
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
    fn a_second_path_from_the_root_is_repaired_locally() {
        // Two paths from the root (P3 hangs under ROOT and under P1):
        // the walks are joined, and HOB joins under both.
        let mut store = Store::counting();
        samples::person_db(&mut store).unwrap();
        let def = GeneralViewDef::new("ALL", "ROOT", PathExpr::parse("*").unwrap());
        let gm = GeneralMaintainer::new(def);
        let mut mv = gm.recompute(&store).unwrap();
        atom("HOB", "hobby", "chess").build(&mut store).unwrap();
        let up = store.insert_edge(oid("P3"), oid("HOB")).unwrap();
        store.reset_accesses();
        assert_eq!(
            gm.apply(&mut mv, &store, &up).unwrap().inserted,
            vec![oid("HOB")]
        );
        assert!(store.accesses() < 20, "{} accesses", store.accesses());
        // A database object that groups its members is a parent that
        // leads nowhere: searched, and dropped.
        let up = store.modify_atom(oid("N2"), "Sal").unwrap();
        gm.apply(&mut mv, &store, &up).unwrap();
        assert_eq!(
            mv.members_base(),
            gm.recompute(&store).unwrap().members_base()
        );
    }

    #[test]
    fn a_run_of_stars_is_one_element_and_repairs_locally() {
        // Seventy adjacent `*` say what one says; the automaton has
        // room for that, so there is nothing to fall back from.
        let mut store = campus();
        let stars = PathExpr(vec![gsview_query::Elem::AnySeq; 70]);
        let gm = GeneralMaintainer::new(GeneralViewDef::new("STARS", "ROOT", stars));
        let mut mv = gm.recompute(&store).unwrap();
        let out = batch_locally(
            &gm,
            &mut mv,
            &mut store,
            vec![gsdb::Update::delete("P1", "S1")],
        );
        assert_eq!(out.deleted, vec![oid("S1"), oid("T1")]);
    }

    #[test]
    fn shared_and_cyclic_structure_is_searched_once() {
        // 40 stacked diamonds hold 2^40 upward walks from the bottom
        // object, and a cycle holds walks of any length: locating `n`
        // must visit each ancestor once, whether or not the structure
        // hangs under the root, and join the walks instead of
        // enumerating them.
        let mut store = Store::counting();
        let mut dept = set("D1", "dept");
        for i in 0..3000 {
            dept = dept.child(atom(&format!("F{i}"), "filler", i as i64));
        }
        set("ROOT", "db").child(dept).build(&mut store).unwrap();
        let edge = |s: &mut Store, p: &str, c: &str| s.insert_edge(oid(p), oid(c)).unwrap();
        let levels = 40;
        for i in 0..=levels {
            store
                .create(gsdb::Object::empty_set(format!("L{i}").as_str(), "rung"))
                .unwrap();
        }
        for i in 0..levels {
            for side in ["l", "r"] {
                let rail = format!("L{i}{side}");
                store
                    .create(gsdb::Object::empty_set(rail.as_str(), "rail"))
                    .unwrap();
                edge(&mut store, &format!("L{i}"), &rail);
                edge(&mut store, &rail, &format!("L{}", i + 1));
            }
        }
        for i in 0..5 {
            store
                .create(gsdb::Object::empty_set(format!("C{i}").as_str(), "ring"))
                .unwrap();
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
            assert_eq!(
                mv.members_base(),
                gm.recompute(store).unwrap().members_base()
            );
            accesses
        };
        // Detached: screened, at a cost that knows neither the number
        // of walks nor the size of the store.
        let ancestors = 3 * levels as u64 + 1;
        assert!(hang(&mut store, &mut mv, &bottom, "H1") <= 3 * ancestors);
        assert!(hang(&mut store, &mut mv, "C2", "H2") <= 3 * 5);
        assert_eq!(mv.len(), 3002);

        // Under the root: every walk is joined, each ancestor still
        // read once, and the repair stays local.
        edge(&mut store, "ROOT", "L0");
        edge(&mut store, "ROOT", "C0");
        mv = gm.recompute(&store).unwrap();
        assert!(hang(&mut store, &mut mv, &bottom, "H3") <= 3 * (ancestors + 1));
        assert!(hang(&mut store, &mut mv, "C2", "H4") <= 3 * 6);
        assert!(mv.contains_base(oid("H3")) && mv.contains_base(oid("H4")));
    }

    /// Base accesses per single-delta batch against
    /// `ROOT.*.student WHERE age > 37`, over a counting store of
    /// `depts` × 10 professors × 3 students (about 70 objects a dept).
    /// `shared` hangs every professor under the next dept as well, so
    /// each object below a professor has two walks from the root.
    fn accesses_per_update(depts: usize, shared: bool) -> f64 {
        use gsdb::Update;
        let mut store = Store::counting();
        let mut root = set("ROOT", "db");
        for d in 0..depts {
            let mut dept = set(&format!("D{d}"), "dept");
            for p in (0..10).map(|p| d * 10 + p) {
                let mut prof = set(&format!("P{p}"), "professor").child(atom(
                    &format!("A{p}"),
                    "age",
                    30 + (p % 40) as i64,
                ));
                for k in (0..3).map(|k| p * 3 + k) {
                    prof = prof.child(set(&format!("S{k}"), "student").child(atom(
                        &format!("T{k}"),
                        "age",
                        20 + (k % 30) as i64,
                    )));
                }
                dept = dept.child(prof);
            }
            root = root.child(dept);
        }
        root.build(&mut store).unwrap();
        for p in (0..depts * 10).filter(|_| shared) {
            let next = format!("D{}", (p / 10 + 1) % depts);
            store
                .insert_edge(oid(&next), oid(&format!("P{p}")))
                .unwrap();
        }
        let gm = old_students("*.student");
        let mut mv = gm.recompute(&store).unwrap();
        store.reset_accesses();
        let mut updates = 0;
        // The same professors at every size; every kind of delta, each
        // changing membership.
        for p in (0..70).step_by(7) {
            let (s, t) = (format!("S{}", p * 3), format!("T{}", p * 3));
            let (fresh, age) = (format!("S{p}new"), format!("T{p}new"));
            set(&fresh, "student")
                .child(atom(&age, "age", 50i64))
                .build(&mut store)
                .unwrap();
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
        assert_eq!(
            mv.members_base(),
            gm.recompute(&store).unwrap().members_base()
        );
        accesses as f64 / updates as f64
    }

    #[test]
    fn wildcard_repair_cost_is_flat_in_store_size() {
        // The locality gate: counts, not time, so it holds on any
        // machine. The per-batch refresh this replaced read the whole
        // store: 16× the objects, 16× the accesses.
        let (small, large) = (
            accesses_per_update(14, false),
            accesses_per_update(224, false),
        );
        assert!(
            large <= small * 1.25,
            "{small} accesses/update at 1k objects, {large} at 16k"
        );
        assert!(large < 20.0, "{large} accesses/update");
    }

    #[test]
    fn wildcard_repair_on_a_dag_costs_at_most_twice_the_tree() {
        // The same deltas with every professor under two depts: the
        // walks are joined, not re-walked or refreshed, so sharing
        // adds the extra ancestors and nothing that grows with the
        // store.
        for depts in [14, 224] {
            let (tree, dag) = (
                accesses_per_update(depts, false),
                accesses_per_update(depts, true),
            );
            assert!(
                dag <= 2.0 * tree,
                "{tree} accesses/update on the tree, {dag} on the DAG"
            );
        }
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

    /// `REL.r.tuple WHERE age > 30` — a constant path with a condition.
    fn old_tuples() -> GeneralMaintainer {
        GeneralMaintainer::new(
            GeneralViewDef::new("SEL", "REL", PathExpr::parse("r.tuple").unwrap())
                .with_cond(PathExpr::parse("age").unwrap(), Pred::new(CmpOp::Gt, 30i64)),
        )
    }

    /// Maintain `mv` one update at a time; after each it must equal
    /// recomputation.
    fn apply_locally(
        gm: &GeneralMaintainer,
        mv: &mut MaterializedView,
        store: &mut Store,
        u: gsdb::Update,
    ) -> Outcome {
        let applied = store.apply(u).unwrap();
        let out = gm.apply(mv, store, &applied).unwrap();
        assert_eq!(
            mv.members_base(),
            gm.recompute(store).unwrap().members_base(),
            "after {applied}"
        );
        out
    }

    #[test]
    fn dag_insert_adds_all_sharing_ancestors() {
        let mut s = dag_store();
        let gm = old_tuples();
        let mut mv = gm.recompute(&s).unwrap();
        assert_eq!(mv.members_base(), vec![oid("t1"), oid("t2")]);

        // New tuple referencing the shared field.
        set("t3", "tuple").build(&mut s).unwrap();
        apply_locally(&gm, &mut mv, &mut s, gsdb::Update::insert("R", "t3"));
        let out = apply_locally(&gm, &mut mv, &mut s, gsdb::Update::insert("t3", "shared"));
        assert_eq!(out.inserted, vec![oid("t3")]);
    }

    #[test]
    fn dag_delete_only_evicts_members_without_remaining_derivation() {
        let mut s = dag_store();
        let gm = old_tuples();
        let mut mv = gm.recompute(&s).unwrap();
        // t2 loses its shared age: only t2 leaves.
        let out = apply_locally(&gm, &mut mv, &mut s, gsdb::Update::delete("t2", "shared"));
        assert_eq!(out.deleted, vec![oid("t2")]);
        assert!(mv.contains_base(oid("t1")));
    }

    #[test]
    fn dag_maintenance_matches_recompute_under_stream() {
        let mut s = dag_store();
        let gm = old_tuples();
        let mut mv = gm.recompute(&s).unwrap();
        for u in [
            gsdb::Update::modify("shared", 20i64),
            gsdb::Update::modify("shared", 35i64),
            gsdb::Update::delete("t1", "shared"),
            gsdb::Update::insert("t1", "shared"),
        ] {
            apply_locally(&gm, &mut mv, &mut s, u);
        }
        assert_eq!(mv.members_base(), vec![oid("t1"), oid("t2")]);
    }

    #[test]
    fn dag_maintenance_is_bounded_beside_cycles_and_dead_end_diamonds() {
        // `shared` gets two more parents that lead nowhere near REL: a
        // two-object cycle, which holds upward walks of any length, and
        // the bottom of 40 stacked diamonds, which hold 2^40. Neither
        // is a walk from the root, so neither may cost more than a
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
        s.set_count_accesses(true);

        let gm = old_tuples();
        let mut mv = gm.recompute(&s).unwrap();
        let ancestors = 3 * 40 + 1 + 2 + 5;
        for (age, members) in [(20i64, 0), (35, 2)] {
            let up = s.modify_atom(oid("shared"), age).unwrap();
            s.reset_accesses();
            gm.apply(&mut mv, &s, &up).unwrap();
            assert!(s.accesses() <= 3 * ancestors, "{} accesses", s.accesses());
            assert_eq!(mv.len(), members);
        }
        assert_eq!(mv.members_base(), gm.recompute(&s).unwrap().members_base());
    }
}
