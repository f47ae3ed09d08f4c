//! Algorithm 1: incremental maintenance of a simple materialized GSDB
//! view (paper §4.3), implemented case-for-case against the
//! [`BaseAccess`] interface so the same code runs centralized (§4) and
//! in a warehouse (§5).
//!
//! ```text
//! > When insert(N1, N2) occurs:
//!     If sel_path.cond_path = path(ROOT,N1).label(N2).p  (p arbitrary)
//!     then S = eval(N2, p, cond);
//!          for all X in S do V_insert(MV, MV.Y)
//!              where Y = ancestor(X, cond_path).
//!
//! > When delete(N1, N2) occurs:
//!     If sel_path.cond_path = path(ROOT,N1).label(N2).p
//!     then S = eval(N2, p, cond);
//!          for all X in S, let Y = ancestor(X, cond_path);
//!          if p = p1.cond_path then V_delete(MV, MV.Y)
//!          else if eval(Y, cond_path, cond) = ∅ then V_delete(MV, MV.Y).
//!
//! > When modify(N, oldv, newv) occurs:
//!     If path(ROOT,N) = sel_path.cond_path
//!     then Y = ancestor(N, cond_path);
//!          if cond(newv) then V_insert(MV, MV.Y)
//!          else if cond(oldv) and eval(Y, cond_path, cond) = ∅
//!               then V_delete(MV, MV.Y).
//! ```
//!
//! One implementation note on the delete case. When
//! `p ≠ p1.cond_path` (equivalently `|cond_path| > |p|`), the object
//! `Y = ancestor(X, cond_path)` lies *above* the deleted edge, so an
//! ancestor walk starting at the now-detached `X` cannot reach it.
//! Since `cond_path` is a suffix of `sel_path.cond_path`, it decomposes
//! as `cond_path = q.label(N2).p`, and `Y = ancestor(N1, q)` computes
//! the same object from the still-attached side. This is exactly the
//! object the paper's condition re-check targets.

use crate::base::BaseAccess;
use crate::sink::{refresh_touched, ViewSink};
use crate::viewdef::SimpleViewDef;
use gsdb::{AppliedUpdate, ConsolidatedDelta, DeltaBatch, EdgeOp, FastSet, Oid, Path, Result};
use gsview_query::Pred;

/// Stable name of an update kind for event fields.
pub(crate) fn update_kind(update: &AppliedUpdate) -> &'static str {
    match update {
        AppliedUpdate::Insert { .. } => "insert",
        AppliedUpdate::Delete { .. } => "delete",
        AppliedUpdate::Modify { .. } => "modify",
        AppliedUpdate::Create { .. } => "create",
        AppliedUpdate::Remove { .. } => "remove",
    }
}

/// What one maintenance invocation did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Did the update pass the path-location test (i.e. could it
    /// possibly affect the view)? Irrelevant updates are rejected
    /// without touching base data beyond `path(ROOT, N1)`/`label(N2)`.
    pub relevant: bool,
    /// Base OIDs whose delegates were inserted.
    pub inserted: Vec<Oid>,
    /// Base OIDs whose delegates were deleted.
    pub deleted: Vec<Oid>,
}

impl Outcome {
    fn irrelevant() -> Self {
        Outcome::default()
    }

    fn relevant() -> Self {
        Outcome {
            relevant: true,
            ..Outcome::default()
        }
    }

    /// True iff the view changed.
    pub fn changed(&self) -> bool {
        !self.inserted.is_empty() || !self.deleted.is_empty()
    }
}

/// Algorithm 1 for one simple view definition, in two forms.
///
/// * [`Maintainer::apply`] is the paper's algorithm: "triggered once by
///   each update on the base objects" — call it per [`AppliedUpdate`],
///   in order, with the base reflecting the state right after that
///   update and before any further ones.
/// * [`Maintainer::apply_batch`] is handed a whole [`DeltaBatch`] with
///   the base already in its **final** state. It consolidates the batch
///   (cancelling updates with no net effect), runs the location test
///   once per surviving delta, collects the candidate members each
///   delta could affect, and then *repairs* each candidate against
///   ground truth: `Y` is a member iff `path(ROOT, Y) = sel_path` and
///   `eval(Y, cond_path, cond) ≠ ∅`. A *cut* (a net edge delete) adds
///   the members found below its child from every select position the
///   child's label can hold, wherever its parent ended up — the
///   wildcard maintainer's delete rule on constant paths (DESIGN.md,
///   "Wildcard views: local repair", delete-(b)). Repair makes the
///   result independent of the order updates were applied in — batched
///   maintenance converges to exactly the state sequential maintenance
///   (and full recomputation) reaches. Content upkeep (§3.2) runs as a
///   single pass at the end: each *touched* member is refreshed once
///   per batch instead of once per raw update.
#[derive(Clone, Debug)]
pub struct Maintainer {
    def: SimpleViewDef,
}

impl Maintainer {
    /// Build a maintainer for a definition.
    pub fn new(def: SimpleViewDef) -> Self {
        Maintainer { def }
    }

    /// The definition being maintained.
    pub fn def(&self) -> &SimpleViewDef {
        &self.def
    }

    /// Process one applied base update, mutating the maintenance
    /// target (a [`MaterializedView`](crate::MaterializedView), a
    /// [`MemberSet`](crate::MemberSet), or any other [`ViewSink`]).
    pub fn apply(
        &self,
        mv: &mut dyn ViewSink,
        base: &mut dyn BaseAccess,
        update: &AppliedUpdate,
    ) -> Result<Outcome> {
        let _span = gsview_obs::span!(
            "maint.apply",
            "view" = self.def().view.name().to_string(),
            "update" = update_kind(update),
        );
        let outcome = match update {
            AppliedUpdate::Insert { parent, child } => self.on_insert(mv, base, *parent, *child)?,
            AppliedUpdate::Delete { parent, child } => self.on_delete(mv, base, *parent, *child)?,
            AppliedUpdate::Modify { oid, old, new } => self.on_modify(mv, base, *oid, old, new)?,
            // Creating an unlinked object or removing an unreferenced
            // one "will have no impact on any queries, hence no effect
            // on any views" (§4.1).
            AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. } => Outcome::irrelevant(),
        };
        content_upkeep(mv, base, update)?;
        gsview_obs::event!(
            "maint.decision",
            "branch" = update_kind(update),
            "relevant" = outcome.relevant,
            "inserted" = outcome.inserted.len(),
            "deleted" = outcome.deleted.len(),
        );
        Ok(outcome)
    }

    /// Locate the remainder path `p` such that
    /// `sel_path.cond_path = path(ROOT, N1).label(N2).p`.
    fn locate(&self, base: &mut dyn BaseAccess, n1: Oid, n2: Oid) -> Option<Path> {
        let full = self.def().full_path();
        let root_path = base.path_from_root(self.def().root, n1)?;
        if root_path.len() + 1 > full.len() {
            return None;
        }
        let l2 = base.label_of(n2)?;
        let mut prefix = root_path;
        prefix.push(l2);
        full.strip_prefix(&prefix)
    }

    fn pred(&self) -> Option<&Pred> {
        self.def().cond.as_ref().map(|c| &c.pred)
    }

    fn on_insert(
        &self,
        mv: &mut dyn ViewSink,
        base: &mut dyn BaseAccess,
        n1: Oid,
        n2: Oid,
    ) -> Result<Outcome> {
        let Some(p) = self.locate(base, n1, n2) else {
            return Ok(Outcome::irrelevant());
        };
        let mut out = Outcome::relevant();
        let cond_path = self.def().cond_path();
        let s = base.eval(n2, &p, self.pred());
        for x in s {
            let Some(y) = base.ancestor(x, &cond_path) else {
                continue;
            };
            if mv.contains(y) {
                continue;
            }
            let Some(obj) = base.fetch(y) else { continue };
            mv.insert_member(&obj)?;
            out.inserted.push(y);
        }
        Ok(out)
    }

    fn on_delete(
        &self,
        mv: &mut dyn ViewSink,
        base: &mut dyn BaseAccess,
        n1: Oid,
        n2: Oid,
    ) -> Result<Outcome> {
        let Some(p) = self.locate(base, n1, n2) else {
            return Ok(Outcome::irrelevant());
        };
        let mut out = Outcome::relevant();
        let cond_path = self.def().cond_path();
        let s = base.eval(n2, &p, self.pred());
        if p.ends_with(&cond_path) {
            // Y lies at or below N2: the detached subtree still holds
            // the path from Y down to X.
            for x in s {
                let Some(y) = base.ancestor(x, &cond_path) else {
                    continue;
                };
                if mv.delete_member(y)? {
                    out.deleted.push(y);
                }
            }
        } else {
            // |cond_path| > |p|: cond_path = q.label(N2).p and Y is the
            // still-attached ancestor(N1, q). Its condition lost the
            // detached witnesses; it stays only if another descendant
            // keeps the condition true (non-unique labels, §4.2).
            if s.is_empty() {
                return Ok(out);
            }
            let q = Path(cond_path.labels()[..cond_path.len() - p.len() - 1].to_vec());
            let y = if q.is_empty() {
                Some(n1)
            } else {
                base.ancestor(n1, &q)
            };
            if let Some(y) = y {
                if base.eval(y, &cond_path, self.pred()).is_empty() && mv.delete_member(y)? {
                    out.deleted.push(y);
                }
            }
        }
        Ok(out)
    }

    fn on_modify(
        &self,
        mv: &mut dyn ViewSink,
        base: &mut dyn BaseAccess,
        n: Oid,
        old: &gsdb::Atom,
        new: &gsdb::Atom,
    ) -> Result<Outcome> {
        // Views without a condition are purely structural; modify
        // cannot change membership.
        let Some(cond) = &self.def().cond else {
            return Ok(Outcome::irrelevant());
        };
        let full = self.def().full_path();
        match base.path_from_root(self.def().root, n) {
            Some(rp) if rp == full => {}
            _ => return Ok(Outcome::irrelevant()),
        }
        let mut out = Outcome::relevant();
        let Some(y) = base.ancestor(n, &cond.path) else {
            return Ok(out);
        };
        if cond.pred.eval(new) {
            if !mv.contains(y) {
                if let Some(obj) = base.fetch(y) {
                    mv.insert_member(&obj)?;
                    out.inserted.push(y);
                }
            }
        } else if cond.pred.eval(old)
            && base.eval(y, &cond.path, Some(&cond.pred)).is_empty()
            && mv.delete_member(y)?
        {
            out.deleted.push(y);
        }
        Ok(out)
    }
}

/// Content upkeep for one update ([`refresh_touched`]): the object
/// whose value it changed is the parent of an inserted or deleted
/// edge, or the modified atom. Membership itself is Algorithm 1's job
/// above; this pass only touches base data when that object is a
/// member.
pub(crate) fn content_upkeep(
    mv: &mut dyn ViewSink,
    base: &mut dyn BaseAccess,
    update: &AppliedUpdate,
) -> Result<()> {
    let affected = match update {
        AppliedUpdate::Insert { parent, .. } | AppliedUpdate::Delete { parent, .. } => *parent,
        AppliedUpdate::Modify { oid, .. } => *oid,
        AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. } => return Ok(()),
    };
    refresh_touched(mv, &[affected], &[], &mut |o| base.fetch(o)).map(|_| ())
}

/// Verify one object against ground truth: `Y` is a member iff
/// `path(ROOT, Y) = sel_path` and its condition witness (if any) holds.
/// `path_from_root` alone does not decide the first half — it returns
/// one canonical root path, and in a DAG base an object can have
/// several (the paper's own person DB hangs `P3` both directly under
/// `ROOT` and under `P1`): a member whose canonical path is the shorter
/// one must not be evicted. Fast path on the canonical path; fall back
/// to enumerating the select-path ancestors.
fn is_member(base: &mut dyn BaseAccess, def: &SimpleViewDef, y: Oid) -> bool {
    let derivable = base.path_from_root(def.root, y).as_ref() == Some(&def.sel_path)
        || base.ancestors_all(y, &def.sel_path).contains(&def.root);
    derivable
        && match &def.cond {
            None => true,
            Some(c) => !base.eval(y, &c.path, Some(&c.pred)).is_empty(),
        }
}

/// Re-verify every current member against ground truth
/// (`is_member`) and evict the ones that no longer qualify. Returns
/// the evicted base OIDs.
///
/// This is the member re-verification sweep of the repair phase of
/// [`Maintainer::apply_batch`], exposed for callers that maintain one
/// update at a time but cannot guarantee Algorithm 1's §4.3
/// precondition (the base in the state *right after* the triggering
/// update). A warehouse processing
/// lagged update reports uses it when an update was dismissed as
/// irrelevant only because its anchor object is no longer reachable —
/// the one situation where the dismissal may hide a member loss whose
/// evidence the source has already destroyed.
///
/// The sweep only evicts; it cannot discover missing members. That is
/// sound for lag recovery because a gain always leaves evidence in the
/// *current* state (the re-attaching insert report re-evaluates the
/// carried subtree), whereas a loss can destroy its own evidence.
pub fn sweep_members(
    def: &SimpleViewDef,
    mv: &mut dyn ViewSink,
    base: &mut dyn BaseAccess,
) -> Result<Vec<Oid>> {
    let _span = gsview_obs::span!("maint.sweep", "view" = def.view.name().to_string());
    let mut deleted = Vec::new();
    for y in mv.members() {
        if !is_member(base, def, y) && mv.delete_member(y)? {
            deleted.push(y);
        }
    }
    gsview_obs::event!("maint.sweep.done", "evicted" = deleted.len());
    Ok(deleted)
}

/// What one batched maintenance invocation did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Raw updates in the batch.
    pub input_ops: usize,
    /// Surviving deltas after consolidation.
    pub consolidated_ops: usize,
    /// Consolidated deltas that passed the path-location test.
    pub relevant_deltas: usize,
    /// Base OIDs whose delegates were inserted.
    pub inserted: Vec<Oid>,
    /// Base OIDs whose delegates were deleted.
    pub deleted: Vec<Oid>,
    /// Current members whose stored copies were refreshed.
    pub refreshed: usize,
    /// Whether a full member re-verification sweep ran (only when the
    /// batch cut an edge whose child record is gone, or removed a
    /// record and created it again: what hung below cannot be walked).
    pub swept: bool,
}

impl BatchOutcome {
    /// True iff the view membership changed.
    pub fn changed(&self) -> bool {
        !self.inserted.is_empty() || !self.deleted.is_empty()
    }
}

// The batched form: locate, repair, content upkeep.
impl Maintainer {
    /// Process a batch of applied updates. `base` must reflect the
    /// state *after every update in the batch*.
    pub fn apply_batch(
        &self,
        mv: &mut dyn ViewSink,
        base: &mut dyn BaseAccess,
        batch: &DeltaBatch,
    ) -> Result<BatchOutcome> {
        self.apply_consolidated(mv, base, batch.consolidated())
    }

    /// Process an already-consolidated delta.
    pub fn apply_consolidated(
        &self,
        mv: &mut dyn ViewSink,
        base: &mut dyn BaseAccess,
        delta: &ConsolidatedDelta,
    ) -> Result<BatchOutcome> {
        let _plan_span = gsview_obs::span!(
            "maint.plan",
            "view" = self.def.view.name().to_string(),
            "input_ops" = delta.input_ops,
            "consolidated_ops" = delta.len(),
        );
        let mut out = BatchOutcome {
            input_ops: delta.input_ops,
            consolidated_ops: delta.len(),
            ..BatchOutcome::default()
        };
        let full = self.def.full_path();
        let sel = self.def.sel_path.labels();

        // Phase 1: locate each delta (relevance test, once per
        // consolidated delta) and collect candidate members.
        let locate_span = gsview_obs::span!("maint.phase.locate");
        let mut candidates: Vec<Oid> = Vec::new();
        // Every member is a candidate when what hung below a record
        // cannot be walked; `sweep` holds the cause. A record removed
        // and created again is one: its new children list replaced the
        // old with no cut for what it dropped.
        let removed: FastSet<Oid> = delta.removed.iter().copied().collect();
        let mut sweep = delta
            .created
            .iter()
            .any(|o| removed.contains(o))
            .then_some("replaced_record");
        for e in &delta.edges {
            let root_path = base.path_from_root(self.def.root, e.parent);
            let l2 = base.label_of(e.child);
            if e.op == EdgeOp::Delete {
                // A cut: what hung under the child lost the root path
                // it had. The child's position before the batch is not
                // in the final state (its parent may have moved since),
                // so walk from every select position its label can
                // hold; only members can lose. A child whose record is
                // gone cannot be walked.
                let Some(l) = l2 else {
                    sweep.get_or_insert("removed_cut_child");
                    continue;
                };
                for i in (0..sel.len()).filter(|&i| sel[i] == l) {
                    let below = base.eval(e.child, &Path(sel[i + 1..].to_vec()), None);
                    candidates.extend(below.into_iter().filter(|&y| mv.contains(y)));
                }
            }
            // The location test of Algorithm 1, against the final
            // state: path(ROOT, N1).label(N2) must prefix
            // sel_path.cond_path.
            let Some(root_path) = root_path.filter(|rp| {
                full.labels().starts_with(rp.labels())
                    && l2.is_some_and(|l| full.labels().get(rp.len()) == Some(&l))
            }) else {
                continue;
            };
            out.relevant_deltas += 1;
            // Depth of N2 along the full path.
            let k = root_path.len() + 1;
            if sel.len() >= k {
                // The edge sits at or above select depth: an insert's
                // candidates are the select-depth objects now under
                // N2; a cut's were collected above.
                if e.op == EdgeOp::Insert {
                    candidates.extend(base.eval(e.child, &Path(sel[k..].to_vec()), None));
                }
            } else {
                // The edge sits in the condition region: the affected
                // member is the select-depth ancestor on the attached
                // (parent) side.
                let q = Path(root_path.labels()[sel.len()..].to_vec());
                let y = if q.is_empty() {
                    Some(e.parent)
                } else {
                    base.ancestor(e.parent, &q)
                };
                candidates.extend(y);
            }
        }
        for m in &delta.modifies {
            // Structural views ignore modifies (membership-wise);
            // content upkeep below still refreshes member copies.
            let Some(cond) = &self.def.cond else { continue };
            match base.path_from_root(self.def.root, m.oid) {
                Some(rp) if rp == full => {}
                _ => continue,
            }
            out.relevant_deltas += 1;
            candidates.extend(base.ancestor(m.oid, &cond.path));
        }
        if let Some(cause) = sweep {
            gsview_obs::event!("maint.sweep_escalation", "cause" = cause);
            out.swept = true;
            candidates.extend(mv.members());
        }
        drop(locate_span);

        // Phase 2: repair each candidate once against ground truth.
        let repair_span = gsview_obs::span!("maint.phase.repair", "candidates" = candidates.len());
        let mut seen: FastSet<Oid> = FastSet::default();
        for y in candidates {
            if !seen.insert(y) {
                continue;
            }
            if is_member(base, &self.def, y) {
                if !mv.contains(y) {
                    if let Some(obj) = base.fetch(y) {
                        mv.insert_member(&obj)?;
                        out.inserted.push(y);
                    }
                }
            } else if mv.contains(y) && mv.delete_member(y)? {
                out.deleted.push(y);
            }
        }
        drop(repair_span);
        out.inserted.sort_by_key(|o| o.name());
        out.deleted.sort_by_key(|o| o.name());

        // Phase 3: single content-upkeep pass (§3.2) — each touched
        // member's stored copy is refreshed once per batch; a freshly
        // inserted member's copy is already current.
        let content_span =
            gsview_obs::span!("maint.phase.content", "touched" = delta.touched.len());
        out.refreshed = refresh_touched(mv, &delta.touched, &out.inserted, &mut |o| base.fetch(o))?;
        drop(content_span);
        gsview_obs::event!(
            "maint.plan.done",
            "relevant_deltas" = out.relevant_deltas,
            "inserted" = out.inserted.len(),
            "deleted" = out.deleted.len(),
            "refreshed" = out.refreshed,
            "swept" = out.swept,
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::LocalBase;
    use crate::recompute::recompute;
    use gsdb::{builder::atom, samples, Object, Store, Update};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    /// View YP from paper Example 5: professors with age ≤ 45.
    fn yp_def() -> SimpleViewDef {
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64))
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    #[test]
    fn example_5_insert_age_into_p2() {
        // Paper Example 5/6: initially YP = {YP.P1}. After
        // insert(P2, A2) with <A2, age, 40>, YP gains YP.P2.
        let mut store = person_store();
        let def = yp_def();
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1")]);

        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        let up = store.insert_edge(oid("P2"), oid("A2")).unwrap();
        let m = Maintainer::new(def);
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(out.relevant);
        assert_eq!(out.inserted, vec![oid("P2")]);
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P2")]);
        assert_eq!(
            mv.delegate_of(oid("P2")).unwrap().name(),
            "YP.P2",
            "semantic delegate OID"
        );
    }

    #[test]
    fn example_6_delete_p1_from_root() {
        // Paper Example 6 (second part): delete(ROOT, P1) removes
        // YP.P1 from the view.
        let mut store = person_store();
        let def = yp_def();
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        let up = store.delete_edge(oid("ROOT"), oid("P1")).unwrap();
        let m = Maintainer::new(def);
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(out.relevant);
        assert_eq!(out.deleted, vec![oid("P1")]);
        assert!(mv.is_empty());
    }

    #[test]
    fn delete_condition_witness_above_the_edge() {
        // delete(P1, A1): P1's only age witness detaches; the view must
        // drop YP.P1 via the eval(Y, cond_path, cond) = ∅ re-check.
        let mut store = person_store();
        let def = yp_def();
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        let up = store.delete_edge(oid("P1"), oid("A1")).unwrap();
        let m = Maintainer::new(def);
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(out.relevant);
        assert_eq!(out.deleted, vec![oid("P1")]);
    }

    #[test]
    fn delete_with_surviving_witness_keeps_member() {
        // Non-unique labels (§4.2): give P1 a second age ≤ 45, delete
        // one — P1 must stay in the view.
        let mut store = person_store();
        store.create(Object::atom("A1b", "age", 30i64)).unwrap();
        store.insert_edge(oid("P1"), oid("A1b")).unwrap();
        let def = yp_def();
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert!(mv.contains_base(oid("P1")));
        let up = store.delete_edge(oid("P1"), oid("A1")).unwrap();
        let m = Maintainer::new(def);
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(out.relevant);
        assert!(out.deleted.is_empty(), "second witness keeps P1 in view");
        assert!(mv.contains_base(oid("P1")));
    }

    #[test]
    fn modify_into_and_out_of_the_view() {
        let mut store = person_store();
        let def = yp_def();
        let m = Maintainer::new(def.clone());
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        // modify(A1, 45, 50): P1 leaves.
        let up = store.modify_atom(oid("A1"), 50i64).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.deleted, vec![oid("P1")]);
        assert!(mv.is_empty());
        // modify(A1, 50, 44): P1 returns.
        let up = store.modify_atom(oid("A1"), 44i64).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.inserted, vec![oid("P1")]);
        assert_eq!(mv.members_base(), vec![oid("P1")]);
    }

    #[test]
    fn modify_with_other_witness_keeps_member() {
        let mut store = person_store();
        store.create(Object::atom("A1b", "age", 30i64)).unwrap();
        store.insert_edge(oid("P1"), oid("A1b")).unwrap();
        let def = yp_def();
        let m = Maintainer::new(def.clone());
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        let up = store.modify_atom(oid("A1"), 99i64).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(out.relevant);
        assert!(!out.changed());
        assert!(mv.contains_base(oid("P1")));
    }

    #[test]
    fn irrelevant_updates_are_screened_out() {
        // Example 7's point: an insert into relation s does not touch a
        // view on relation r; here, updates under P4 (secretary) or on
        // name atoms never match professor.age.
        let mut store = person_store();
        let def = yp_def();
        let m = Maintainer::new(def.clone());
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();

        let up = store.modify_atom(oid("N1"), "Johnny").unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(!out.relevant);

        let up = store.modify_atom(oid("A4"), 41i64).unwrap(); // secretary.age
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(!out.relevant);

        store
            .create(Object::atom("XTRA", "hobby", "chess"))
            .unwrap();
        let up = store.insert_edge(oid("P4"), oid("XTRA")).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(
            !out.relevant,
            "path(ROOT,P4).hobby does not prefix professor.age"
        );
    }

    #[test]
    fn insert_whole_subtree_example_7() {
        // Example 7: inserting a complete tuple subtree into R puts the
        // tuple into SEL in one step.
        let mut store = Store::new();
        samples::relations_db(&mut store, 3, 2).unwrap();
        let def = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let m = Maintainer::new(def.clone());
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert!(mv.is_empty(), "ages 10..12 are all ≤ 30");

        // New tuple T with <A, age, 40>.
        atom("Anew", "age", 40i64).build(&mut store).unwrap();
        gsdb::builder::set("Tnew", "tuple")
            .reference("Anew")
            .build(&mut store)
            .unwrap();
        let up = store.insert_edge(oid("R"), oid("Tnew")).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.inserted, vec![oid("Tnew")]);
        assert_eq!(mv.delegate_of(oid("Tnew")).unwrap().name(), "SEL.Tnew");

        // Inserting a tuple into relation s is screened out after the
        // first label comparison.
        gsdb::builder::set("Unew", "tuple")
            .child(atom("Bnew", "age", 50i64))
            .build(&mut store)
            .unwrap();
        let up = store.insert_edge(oid("S"), oid("Unew")).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(!out.relevant);
    }

    #[test]
    fn condless_structural_view() {
        // SELECT ROOT.professor.student X (no condition).
        let mut store = person_store();
        let def = SimpleViewDef::new("ST", "ROOT", "professor.student");
        let m = Maintainer::new(def.clone());
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P3")]);
        // Detach P3 from P1: no professor.student derivation remains.
        let up = store.delete_edge(oid("P1"), oid("P3")).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert_eq!(out.deleted, vec![oid("P3")]);
        // Modify never matters for structural views.
        let up = store.modify_atom(oid("A3"), 21i64).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(!out.relevant);
    }

    #[test]
    fn cut_repairs_the_member_below_it_locally() {
        // P3 moves from P1 to P2 in one batch. The cut (P1, P3) makes
        // the member below it a candidate, and repair keeps it: P3 is
        // still a professor's student, though its canonical root path
        // is the direct edge under ROOT (the sample DB is a DAG). No
        // member is swept.
        let mut store = person_store();
        let def = SimpleViewDef::new("ST", "ROOT", "professor.student");
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P3")]);
        let mut batch = DeltaBatch::new();
        batch.push(store.insert_edge(oid("P2"), oid("P3")).unwrap());
        batch.push(store.delete_edge(oid("P1"), oid("P3")).unwrap());
        let out = Maintainer::new(def.clone())
            .apply_batch(&mut mv, &mut LocalBase::new(&store), &batch)
            .unwrap();
        assert!(!out.swept, "a cut is repaired locally: {out:?}");
        assert!(!out.changed(), "P3 evicted: {out:?}");
        let want = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), want.members_base());
        assert_eq!(mv.members_base(), vec![oid("P3")]);
    }

    #[test]
    fn record_replaced_in_one_batch_sweeps_the_members() {
        // P1 is removed and created again with every child but P3. The
        // new record's children list drops the edge (P1, P3) with no
        // edge delta, so no cut locates the loss: the members are
        // swept, and P3, a student of no professor now, leaves.
        let mut store = person_store();
        let def = SimpleViewDef::new("ST", "ROOT", "professor.student");
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P3")]);
        let kept: Vec<Oid> = store
            .children(oid("P1"))
            .iter()
            .copied()
            .filter(|&c| c != oid("P3"))
            .collect();
        let mut batch = DeltaBatch::new();
        batch.push(store.apply(Update::Remove { oid: oid("P1") }).unwrap());
        batch.push(
            store
                .apply(Update::create(Object::set("P1", "professor", &kept)))
                .unwrap(),
        );
        let out = Maintainer::new(def.clone())
            .apply_batch(&mut mv, &mut LocalBase::new(&store), &batch)
            .unwrap();
        assert!(out.swept, "{out:?}");
        let want = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), want.members_base());
        assert!(mv.is_empty());
    }

    #[test]
    fn detach_then_remove_in_one_batch_sweeps_the_members() {
        // P1 is cut from ROOT and its record removed in one batch: the
        // cut's child cannot be walked, so the members are swept and
        // P1 leaves.
        let mut store = person_store();
        let def = yp_def();
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1")]);
        let mut batch = DeltaBatch::new();
        batch.push(store.delete_edge(oid("ROOT"), oid("P1")).unwrap());
        batch.push(store.apply(Update::Remove { oid: oid("P1") }).unwrap());
        let out = Maintainer::new(def)
            .apply_batch(&mut mv, &mut LocalBase::new(&store), &batch)
            .unwrap();
        assert!(out.swept, "{out:?}");
        assert_eq!(out.deleted, vec![oid("P1")]);
        assert!(mv.is_empty());
    }

    #[test]
    fn sweep_keeps_multi_path_members() {
        let store = person_store();
        let def = SimpleViewDef::new("ST", "ROOT", "professor.student");
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        let evicted = sweep_members(&def, &mut mv, &mut LocalBase::new(&store)).unwrap();
        assert!(evicted.is_empty(), "sweep evicted {evicted:?}");
        assert_eq!(mv.members_base(), vec![oid("P3")]);
    }

    #[test]
    fn insert_edge_to_existing_member_is_idempotent() {
        let mut store = person_store();
        let def = yp_def();
        let m = Maintainer::new(def.clone());
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        // Second age witness for P1 inserted: P1 already in view.
        store.create(Object::atom("A1c", "age", 20i64)).unwrap();
        let up = store.insert_edge(oid("P1"), oid("A1c")).unwrap();
        let out = m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        assert!(out.relevant);
        assert!(out.inserted.is_empty());
        assert_eq!(mv.len(), 1);
    }
}
