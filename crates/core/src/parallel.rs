//! Parallel multi-view maintenance: fan a consolidated delta out over
//! several materialized views at once.
//!
//! The paper's warehouse (§5) maintains every view of a source
//! sequentially, once per update report. With batched maintenance
//! ([`Maintainer::apply_consolidated`]) the unit of work becomes one
//! *consolidated* delta per view — and those per-view invocations are
//! independent: each reads the (immutable) final base state and writes
//! only its own view. [`ParallelMaintainer`] exploits that by
//!
//! 1. **partitioning** the delta per view — dropping the deltas that
//!    provably cannot affect a view: a modify that flips no verdict of
//!    the view's condition, decided from its two values alone, and any
//!    delta whose anchor object lies outside the view's root, tested
//!    through the inverse (parent) index;
//! 2. **walking each anchor once** — Algorithm 1's location test
//!    (§4.3) asks `path(view root, anchor)` of every delta a view is
//!    handed, and the views of a portfolio mostly share one root.
//!    Before the fan-out the calling thread walks each (view root,
//!    anchor) pair some view's locate phase will ask, once: the parent
//!    of every edge and every modified OID in the view's partitioned
//!    delta (walking every anchor under every root instead raised
//!    E13's partitioned accesses 3.6×). The lanes read the answers
//!    through a [`BaseAccess`] that falls back to the store on a miss.
//!    Each answer is what [`path::path_between`] returns on the same
//!    immutable store, so no outcome changes; each walk is one a lone
//!    view would have made, so the access count never rises; and the
//!    walks are made before any lane starts, so the count does not
//!    depend on the thread count; and
//! 3. **fanning out** the per-view work in up to `threads` lanes of
//!    consecutive views, each running [`Maintainer::apply_consolidated`]
//!    against a shared `&Store`. The calling thread runs the first
//!    lane and [`std::thread::scope`] spawns one worker per further
//!    lane, so a one-lane flush (one view, or one thread) spawns
//!    nothing.
//!
//! ## Partition soundness
//!
//! A delta may be dropped for view `V` only when
//! [`Maintainer::apply_consolidated`] would provably do nothing with
//! it. Working through that routine's rules:
//!
//! * **Inserts and modifies are screened by ancestry.** Either matters
//!   only where the location test passes: an insert iff
//!   `path(V.root, N1).label(N2)` prefixes `sel_path.cond_path`, a
//!   modify iff `path(V.root, oid) = sel_path.cond_path`. Both need
//!   `V.root` to be an ancestor of the anchor in the final state; a
//!   delta that fails the test is `continue`d with no side effects, so
//!   dropping it is behaviour-identical.
//! * **Modifies are screened by their verdict first.** A consolidated
//!   `modify(N, oldv, newv)` carries the atom's value before the batch
//!   and after it (§4.3 decides from the two). It is kept for `V` only
//!   if `V` has a condition and `cond(oldv) ≠ cond(newv)`; the test
//!   runs before the ancestry search, which a modify no view keeps
//!   never makes. A view without a condition ignores modifies
//!   outright. With a condition, `Y` is a member iff it is derivable
//!   and some atom at `Y.cond_path` satisfies `cond`; an atom whose
//!   verdict is the same before and after the batch is a witness in
//!   both states or in neither, so a change to `Y`'s membership has
//!   another cause — an edge delta, a kept modify of another witness,
//!   or a replaced record (the sweep) — and that delta reaches `V`
//!   and makes `Y` a candidate itself. Repeated modifies of one atom
//!   that net to no flip are one such modify.
//! * **Deletes are screened by ancestry or member overlap** (when the
//!   partitioner can see the views, i.e. via
//!   [`ParallelMaintainer::partition_for`] — the view-blind
//!   [`ParallelMaintainer::partition`] broadcasts them). A delete is a
//!   *cut*: besides the location test, `apply_consolidated` walks the
//!   child's final subtree along `sel_path` suffixes and repairs the
//!   members it finds there. So the delete is kept for `V` iff `V.root`
//!   is an ancestor of the edge's parent in the final state, **or** the
//!   final-state subtree under the edge's child contains a current
//!   member of `V` (the walk's finds are a subset of that subtree). The
//!   subtree walk is capped and treats a dangling child OID (an object
//!   the batch `Remove`d — its record is gone but surviving children
//!   lists may still name it) as "unknown", falling back to broadcast
//!   for that edge: a cut whose child record is gone sweeps every
//!   member.
//! * Content upkeep is unaffected because the `touched` set is never
//!   filtered (a member's stored copy is refreshed whether or not the
//!   membership-relevant deltas survived the partition).
//! * `created` / `removed` / `touched` / `input_ops` are copied
//!   through unfiltered — `apply_consolidated` sweeps every member
//!   when the batch replaced a record (one in both `created` and
//!   `removed`), and `touched` drives content upkeep.
//!
//! The worker fan-out is deterministic: each view's outcome depends
//! only on its own (plan, delta, view) triple and the immutable base,
//! so the result is independent of thread count — a property the
//! differential oracle (`gsview_testkit::oracle::check_parallel_equivalence`)
//! asserts against sequential maintenance and full recomputation.

use crate::base::{BaseAccess, LocalBase};
use crate::circuitview::CircuitSource;
use crate::maintain::{BatchOutcome, Maintainer};
use crate::mview::MaterializedView;
use crate::viewdef::SimpleViewDef;
use gsdb::{
    path, ConsolidatedDelta, DeltaBatch, EdgeOp, FastMap, FastSet, Label, Object, Oid, Path,
    Result, Store,
};
use gsview_query::{MaintBackend, Pred};

/// Node budget for the member-overlap subtree walk; an edge whose
/// child subtree exceeds this is broadcast instead of screened.
const SUBTREE_CAP: usize = 4096;

/// The final-state subtree under `n` (including `n`), or `None` if the
/// walk exceeds `cap` nodes or reaches a child OID with no surviving
/// record (a batch `Remove` — surviving children lists may still name
/// it, and the walk cannot see what used to hang below it).
///
/// The walk goes by slot: a child's slot is its slot hint once the
/// record there is the child's, else a `slot_of` probe
/// ([`Store::children_at`]), so the check that the child has a record
/// is the hint check. One counted access per expanded node, as with
/// [`Store::children`].
fn subtree_closure(store: &Store, n: Oid, cap: usize) -> Option<FastSet<Oid>> {
    let mut seen: FastSet<Oid> = FastSet::default();
    let start = store.slot_of(n)?;
    seen.insert(n);
    let mut stack = vec![start];
    while let Some(cur) = stack.pop() {
        for (c, hint) in store.children_at(cur) {
            let slot = if store.oid_at(hint) == Some(c) {
                hint
            } else {
                store.slot_of(c)?
            };
            if seen.insert(c) {
                if seen.len() > cap {
                    return None;
                }
                stack.push(slot);
            }
        }
    }
    Some(seen)
}

/// How a [`ParallelMaintainer`] run distributed its work.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Deltas dispatched across all views (sum of per-view delta
    /// sizes).
    pub dispatched: usize,
    /// Deltas dropped by the per-view relevance screen.
    pub screened_out: usize,
}

/// `path(root, anchor)` for each (view root, anchor) pair the views'
/// locate phases ask of one flush, walked once before the fan-out.
type Walks = FastMap<(Oid, Oid), Option<Path>>;

/// A lane's base: the flush's shared walks in front of the store.
struct WalkedBase<'a> {
    store: LocalBase<'a>,
    walks: &'a Walks,
}

impl BaseAccess for WalkedBase<'_> {
    fn path_from_root(&mut self, root: Oid, n: Oid) -> Option<Path> {
        match self.walks.get(&(root, n)) {
            Some(walked) => walked.clone(),
            None => self.store.path_from_root(root, n),
        }
    }

    fn ancestor(&mut self, n: Oid, p: &Path) -> Option<Oid> {
        self.store.ancestor(n, p)
    }

    fn ancestors_all(&mut self, n: Oid, p: &Path) -> Vec<Oid> {
        self.store.ancestors_all(n, p)
    }

    fn eval(&mut self, n: Oid, p: &Path, pred: Option<&Pred>) -> Vec<Oid> {
        self.store.eval(n, p, pred)
    }

    fn label_of(&mut self, n: Oid) -> Option<Label> {
        self.store.label_of(n)
    }

    fn fetch(&mut self, n: Oid) -> Option<Object> {
        self.store.fetch(n)
    }
}

/// Maintains many materialized views against one base store, in
/// parallel.
#[derive(Clone, Debug)]
pub struct ParallelMaintainer {
    plans: Vec<Maintainer>,
}

impl ParallelMaintainer {
    /// Build a maintainer for a set of view definitions: the batched
    /// Algorithm 1 plan per view, which is where the planner routes
    /// every simple view. The order of definitions is the order of
    /// views expected by [`apply_batch`](Self::apply_batch).
    pub fn new(defs: impl IntoIterator<Item = SimpleViewDef>) -> Self {
        ParallelMaintainer {
            plans: defs.into_iter().map(Maintainer::new).collect(),
        }
    }

    /// The backend the planner routes view `i` to
    /// ([`CircuitSource::planned_backend`]).
    pub fn backend(&self, i: usize) -> MaintBackend {
        CircuitSource::Simple(self.plans[i].def().clone())
            .planned_backend()
            .0
    }

    /// The definitions being maintained, in view order.
    pub fn defs(&self) -> impl Iterator<Item = &SimpleViewDef> {
        self.plans.iter().map(|p| p.def())
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True iff no views are registered.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Split a consolidated delta into one per-view delta, dropping
    /// updates that provably cannot affect the view (see the module
    /// docs for the soundness argument). Returns one delta per
    /// definition, in view order.
    ///
    /// This view-blind form broadcasts every delete;
    /// [`partition_for`](Self::partition_for) additionally screens
    /// deletes by member overlap.
    pub fn partition(
        &self,
        store: &Store,
        delta: &ConsolidatedDelta,
    ) -> (Vec<ConsolidatedDelta>, PartitionStats) {
        self.partition_inner(store, delta, None)
    }

    /// [`partition`](Self::partition), with the current views visible:
    /// deletes are additionally dropped for views whose member set is
    /// disjoint from the final-state subtree under the edge's child
    /// (the cut's member walk finds nothing there — module docs).
    pub fn partition_for(
        &self,
        store: &Store,
        delta: &ConsolidatedDelta,
        views: &[MaterializedView],
    ) -> (Vec<ConsolidatedDelta>, PartitionStats) {
        self.partition_inner(store, delta, Some(views))
    }

    fn partition_inner(
        &self,
        store: &Store,
        delta: &ConsolidatedDelta,
        views: Option<&[MaterializedView]>,
    ) -> (Vec<ConsolidatedDelta>, PartitionStats) {
        let mut stats = PartitionStats::default();
        // Memoized ancestor sets, keyed by the anchor object. One
        // upward search per distinct anchor serves every view.
        let mut closures: FastMap<Oid, FastSet<Oid>> = FastMap::default();

        let mut out: Vec<ConsolidatedDelta> = self
            .plans
            .iter()
            .map(|_| ConsolidatedDelta {
                created: delta.created.clone(),
                removed: delta.removed.clone(),
                touched: delta.touched.clone(),
                input_ops: delta.input_ops,
                cancelled_ops: delta.cancelled_ops,
                ..ConsolidatedDelta::default()
            })
            .collect();

        // Final-state subtrees under cut children, for the member
        // overlap screen. `None` = walk capped out or hit a dangling
        // (removed) OID: treat the cut as relevant everywhere.
        let mut subtrees: FastMap<Oid, Option<FastSet<Oid>>> = FastMap::default();

        for e in &delta.edges {
            // Every edge is screened by ancestry of its parent; a cut
            // additionally stays relevant for views whose members
            // intersect the child's final-state subtree.
            let anchors = closures
                .entry(e.parent)
                .or_insert_with(|| path::ancestor_set(store, e.parent));
            let below = match (e.op, views) {
                (EdgeOp::Delete, Some(_)) => Some(
                    &*subtrees
                        .entry(e.child)
                        .or_insert_with(|| subtree_closure(store, e.child, SUBTREE_CAP)),
                ),
                _ => None,
            };
            for (v, plan) in self.plans.iter().enumerate() {
                let relevant = anchors.contains(&plan.def().root)
                    || match (e.op, below, views) {
                        (EdgeOp::Insert, ..) => false,
                        (EdgeOp::Delete, Some(Some(sub)), Some(vs)) => {
                            sub.iter().any(|o| vs[v].contains_base(*o))
                        }
                        // View-blind partitioning, or a capped /
                        // dangling subtree: broadcast.
                        (EdgeOp::Delete, ..) => true,
                    };
                if relevant {
                    out[v].edges.push(e.clone());
                    stats.dispatched += 1;
                } else {
                    stats.screened_out += 1;
                }
            }
        }
        for m in &delta.modifies {
            // A modify matters to a view only if it flips the view's
            // condition (module docs): decided from the two values
            // before any ancestry is read.
            let flips = |plan: &Maintainer| {
                plan.def()
                    .cond
                    .as_ref()
                    .is_some_and(|c| c.pred.eval(&m.old) != c.pred.eval(&m.new))
            };
            if !self.plans.iter().any(flips) {
                stats.screened_out += self.plans.len();
                continue;
            }
            let anchors = closures
                .entry(m.oid)
                .or_insert_with(|| path::ancestor_set(store, m.oid));
            for (v, plan) in self.plans.iter().enumerate() {
                if flips(plan) && anchors.contains(&plan.def().root) {
                    out[v].modifies.push(m.clone());
                    stats.dispatched += 1;
                } else {
                    stats.screened_out += 1;
                }
            }
        }
        // created/removed entries count as dispatched work everywhere.
        stats.dispatched += (delta.created.len() + delta.removed.len()) * self.plans.len();
        (out, stats)
    }

    /// Walk once each (view root, anchor) pair the views' locate phases
    /// will ask of `deltas` (one per view, as partitioned): every edge's
    /// parent and every modified OID, since a partitioned view keeps
    /// only the modifies that flip its condition.
    fn walk_anchors(&self, store: &Store, deltas: &[ConsolidatedDelta]) -> Walks {
        let mut walks = Walks::default();
        for (plan, d) in self.plans.iter().zip(deltas) {
            let root = plan.def().root;
            for anchor in d
                .edges
                .iter()
                .map(|e| e.parent)
                .chain(d.modifies.iter().map(|m| m.oid))
            {
                walks
                    .entry((root, anchor))
                    .or_insert_with(|| path::path_between(store, root, anchor));
            }
        }
        walks
    }

    /// Maintain every view over one raw update batch. `views` must be
    /// in definition order; `store` must reflect the state *after*
    /// every update in the batch. `threads` lanes run concurrently
    /// (clamped to the number of views; `0` means one), the first on
    /// the calling thread. An error comes back as the first failing
    /// view's, in definition order.
    pub fn apply_batch(
        &self,
        views: &mut [MaterializedView],
        store: &Store,
        batch: &DeltaBatch,
        threads: usize,
    ) -> Result<Vec<BatchOutcome>> {
        self.apply_consolidated(views, store, batch.consolidated(), threads)
    }

    /// [`apply_batch`](Self::apply_batch) over an already-consolidated
    /// delta.
    pub fn apply_consolidated(
        &self,
        views: &mut [MaterializedView],
        store: &Store,
        delta: &ConsolidatedDelta,
        threads: usize,
    ) -> Result<Vec<BatchOutcome>> {
        assert_eq!(
            views.len(),
            self.plans.len(),
            "one materialized view per definition, in order"
        );
        let _span = gsview_obs::span!(
            "maint.parallel",
            "views" = views.len(),
            "threads" = threads,
            "ops" = delta.len(),
        );
        let (deltas, stats) = self.partition_for(store, delta, views);
        let walks = self.walk_anchors(store, &deltas);
        gsview_obs::event!(
            "maint.partition",
            "dispatched" = stats.dispatched,
            "screened_out" = stats.screened_out,
            "walks" = walks.len(),
        );
        type View<'p, 'v> = (&'p Maintainer, ConsolidatedDelta, &'v mut MaterializedView);
        let mut work: Vec<View<'_, '_>> = self
            .plans
            .iter()
            .zip(deltas)
            .zip(views.iter_mut())
            .map(|((plan, d), mv)| (plan, d, mv))
            .collect();

        let threads = threads.clamp(1, work.len().max(1));
        let chunk = work.len().div_ceil(threads).max(1);
        let run_lane = |lane: &mut [View<'_, '_>]| -> Vec<Result<BatchOutcome>> {
            lane.iter_mut()
                .map(|(plan, d, mv)| {
                    let mut base = WalkedBase {
                        store: LocalBase::new(store),
                        walks: &walks,
                    };
                    plan.apply_consolidated(*mv, &mut base, d)
                })
                .collect()
        };

        // The calling thread runs the first lane and spawns only the
        // rest: a one-lane flush starts no thread at all. Lanes are
        // contiguous runs of views, so concatenating their results in
        // lane order is definition order.
        let mut lanes = work.chunks_mut(chunk);
        let first = lanes.next();
        std::thread::scope(|scope| {
            let workers: Vec<_> = lanes
                .map(|lane| scope.spawn(move || run_lane(lane)))
                .collect();
            let mut results = first.map(run_lane).unwrap_or_default();
            for w in workers {
                results.extend(w.join().expect("maintenance worker panicked"));
            }
            results.into_iter().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recompute::recompute;
    use gsdb::{samples, Object, Update};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    fn defs() -> Vec<SimpleViewDef> {
        vec![
            SimpleViewDef::new("YP", "ROOT", "professor")
                .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
            SimpleViewDef::new("ST", "ROOT", "professor.student"),
            // A view rooted elsewhere: updates under ROOT-only regions
            // must be screened away from it.
            SimpleViewDef::new("PS", "P1", "student"),
        ]
    }

    fn run(
        pm: &ParallelMaintainer,
        store: &mut Store,
        updates: Vec<Update>,
        threads: usize,
    ) -> (Vec<MaterializedView>, Vec<BatchOutcome>) {
        let mut views: Vec<MaterializedView> = pm
            .defs()
            .map(|d| recompute(d, &mut LocalBase::new(store)).unwrap())
            .collect();
        let mut batch = DeltaBatch::new();
        for u in updates {
            batch.push(store.apply(u).unwrap());
        }
        let outcomes = pm.apply_batch(&mut views, store, &batch, threads).unwrap();
        (views, outcomes)
    }

    #[test]
    fn a_subtree_walk_checks_every_hint_and_reads_as_before() {
        // T names C, removed, its slot taken by a filler and created
        // again elsewhere (a stale hint), and D, created after T (no
        // hint); only C names E. The walk finds C's record, not the
        // filler, so E is in.
        let mut s = Store::new();
        s.create(Object::set("ST_C", "c", &[])).unwrap();
        s.create(Object::set("ST_T", "t", &[oid("ST_C"), oid("ST_D")]))
            .unwrap();
        s.create(Object::atom("ST_D", "d", 1i64)).unwrap();
        s.create(Object::atom("ST_E", "e", 2i64)).unwrap();
        s.apply(Update::Remove { oid: oid("ST_C") }).unwrap();
        s.create(Object::set("ST_F", "c", &[oid("ST_D")])).unwrap();
        s.create(Object::set("ST_C", "c", &[oid("ST_E")])).unwrap();
        let t = s.slot_of(oid("ST_T")).unwrap();
        let (_, hint) = (s.children_at(t).find(|&(c, _)| c == oid("ST_C"))).unwrap();
        assert_eq!(s.oid_at(hint), Some(oid("ST_F")), "the hint is stale");
        s.set_count_accesses(true);
        let closure = subtree_closure(&s, oid("ST_T"), SUBTREE_CAP).unwrap();
        let mut got: Vec<Oid> = closure.into_iter().collect();
        got.sort();
        let mut want = ["ST_T", "ST_C", "ST_D", "ST_E"].map(oid).to_vec();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(s.accesses(), 4, "one children read per node");
        // Over the cap, and past a child with no record: no closure.
        assert_eq!(subtree_closure(&s, oid("ST_T"), 3), None);
        s.apply(Update::Remove { oid: oid("ST_E") }).unwrap();
        assert_eq!(subtree_closure(&s, oid("ST_T"), SUBTREE_CAP), None);
    }

    #[test]
    fn parallel_matches_recompute_at_every_thread_count() {
        // One view (the calling thread's lane alone), two, and three;
        // every set also at more threads than views.
        for n in 1..=defs().len() {
            let pm = ParallelMaintainer::new(defs().into_iter().take(n));
            for (i, def) in defs().into_iter().take(n).enumerate() {
                let planned = CircuitSource::Simple(def).planned_backend().0;
                assert_eq!(pm.backend(i), planned, "view {i} reports the plan");
            }
            for threads in [1, 2, 3, 4, 8] {
                let mut store = person_store();
                store.create(Object::atom("A2", "age", 40i64)).unwrap();
                let (views, _) = run(
                    &pm,
                    &mut store,
                    vec![
                        Update::insert("P2", "A2"),
                        Update::modify("A1", 80i64),
                        Update::delete("P1", "P3"),
                    ],
                    threads,
                );
                assert_eq!(views.len(), n);
                for (def, mv) in pm.defs().zip(&views) {
                    let want = recompute(def, &mut LocalBase::new(&store)).unwrap();
                    assert_eq!(
                        mv.members_base(),
                        want.members_base(),
                        "view {} of {n} at {threads} threads",
                        def.view,
                    );
                }
            }
        }
    }

    #[test]
    fn views_under_one_root_walk_each_anchor_once() {
        // Six conditioned views under ROOT. Each modify of the first
        // batch flips the condition of every view it is located for,
        // and of some others (the partition keeps a flip without
        // locating it): each view locates its kept modifies by walking
        // up from the atom, and the repair phase asks paths of members
        // only, never of an atom — so a flush walks each modified atom
        // once, however many views keep it. The second batch flips no
        // condition: the partition screens it for every view before it
        // reads anything, and the flush makes no walk.
        let (le, gt) = (
            |v: i64| Pred::new(CmpOp::Le, v),
            |v: i64| Pred::new(CmpOp::Gt, v),
        );
        let defs = vec![
            SimpleViewDef::new("W1", "ROOT", "professor").with_cond("age", le(45)),
            SimpleViewDef::new("W2", "ROOT", "professor").with_cond("age", gt(60)),
            SimpleViewDef::new("W3", "ROOT", "secretary").with_cond("age", le(45)),
            SimpleViewDef::new("W4", "ROOT", "professor.student").with_cond("age", le(25)),
            SimpleViewDef::new("W5", "ROOT", "student").with_cond("age", le(25)),
            SimpleViewDef::new("W6", "ROOT", "professor")
                .with_cond("name", Pred::new(CmpOp::Eq, "John")),
        ];
        let pm = ParallelMaintainer::new(defs);
        let flush_of = |updates: Vec<Update>| {
            let mut store = Store::counting();
            samples::person_db(&mut store).unwrap();
            let views: Vec<MaterializedView> = pm
                .defs()
                .map(|d| recompute(d, &mut LocalBase::new(&store)).unwrap())
                .collect();
            let mut batch = DeltaBatch::new();
            for u in updates {
                batch.push(store.apply(u).unwrap());
            }
            (store, views, batch.consolidate())
        };
        let accesses = |store: &Store, f: &mut dyn FnMut()| {
            store.reset_accesses();
            f();
            store.accesses()
        };

        // A1 45 → 70 flips W1, W2 and W3; A3 20 → 50 flips W1, W3, W4
        // and W5; A4 40 → 70 flips W1, W2 and W3; N1 flips W6.
        let (store, views, delta) = flush_of(vec![
            Update::modify("A1", 70i64),
            Update::modify("A3", 50i64),
            Update::modify("A4", 70i64),
            Update::modify("N1", "Jo"),
        ]);
        let partition = accesses(&store, &mut || {
            pm.partition_for(&store, &delta, &views);
        });
        let (deltas, stats) = pm.partition_for(&store, &delta, &views);
        let kept: Vec<Vec<&str>> = deltas
            .iter()
            .map(|d| d.modifies.iter().map(|m| m.oid.name()).collect())
            .collect();
        assert_eq!(
            kept,
            [
                &["A1", "A3", "A4"][..],
                &["A1", "A4"],
                &["A1", "A3", "A4"],
                &["A3"],
                &["A3"],
                &["N1"],
            ]
        );
        assert_eq!(stats.screened_out, 6 * 4 - 11);
        // Walks up from the given atoms, as a view's locate phase makes
        // them.
        let walks = |atoms: &mut dyn Iterator<Item = Oid>| {
            let atoms: Vec<Oid> = atoms.collect();
            accesses(&store, &mut || {
                for &a in &atoms {
                    path::path_between(&store, oid("ROOT"), a);
                }
            })
        };
        // Every modified atom walked once.
        let walk = walks(&mut delta.modifies.iter().map(|m| m.oid));
        assert!(walk > 0);
        // What each view costs on its own, less its own walks.
        let rest: u64 = pm
            .plans
            .iter()
            .zip(&deltas)
            .zip(&views)
            .map(|((plan, d), mv)| {
                let mut mv = mv.clone();
                let alone = accesses(&store, &mut || {
                    plan.apply_consolidated(&mut mv, &mut LocalBase::new(&store), d)
                        .unwrap();
                });
                alone - walks(&mut d.modifies.iter().map(|m| m.oid))
            })
            .sum();
        for threads in [1, 2, 6] {
            let mut views = views.clone();
            let flush = accesses(&store, &mut || {
                pm.apply_consolidated(&mut views, &store, &delta, threads)
                    .unwrap();
            });
            assert_eq!(flush, partition + walk + rest, "at {threads} threads");
        }

        // Each verdict the same before and after: A1 stays ≤ 45, A3
        // ≤ 25, A4 ≤ 45, and N4 is no professor's name.
        let (store, views, delta) = flush_of(vec![
            Update::modify("A1", 40i64),
            Update::modify("A3", 21i64),
            Update::modify("A4", 41i64),
            Update::modify("N4", "Tim"),
        ]);
        let (deltas, stats) = pm.partition_for(&store, &delta, &views);
        assert!(deltas.iter().all(|d| d.modifies.is_empty()));
        assert_eq!(stats.screened_out, 6 * 4);
        assert!(pm.walk_anchors(&store, &deltas).is_empty());
        for threads in [1, 2, 6] {
            let mut views = views.clone();
            let flush = accesses(&store, &mut || {
                pm.apply_consolidated(&mut views, &store, &delta, threads)
                    .unwrap();
            });
            assert_eq!(flush, 0, "at {threads} threads");
        }
    }

    #[test]
    fn a_failing_view_fails_the_flush_in_definition_order() {
        // Three views that all gain P2 once A2 (age 40) is inserted
        // under it. A view is made to fail by an auxiliary object that
        // already holds P2's delegate OID: inserting the delegate then
        // meets a duplicate. At two threads the caller's lane holds
        // views 0 and 1 and a worker's view 2; at three each of views
        // 1 and 2 has a worker lane of its own.
        let names = ["YP", "YQ", "YR"];
        let defs = || {
            names.into_iter().zip([45i64, 50, 60]).map(|(v, age)| {
                SimpleViewDef::new(v, "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Le, age))
            })
        };
        let pm = ParallelMaintainer::new(defs());
        for (threads, failing, first) in [
            (2, &[0][..], 0),
            (2, &[2][..], 2),
            (2, &[0, 2][..], 0),
            (3, &[2, 1][..], 1),
        ] {
            let mut store = person_store();
            store.create(Object::atom("A2", "age", 40i64)).unwrap();
            let mut views: Vec<MaterializedView> = pm
                .defs()
                .map(|d| recompute(d, &mut LocalBase::new(&store)).unwrap())
                .collect();
            for &v in failing {
                let taken = Oid::delegate(oid(names[v]), oid("P2"));
                let p1 = views[v]
                    .delegate_of(oid("P1"))
                    .expect("P1 (age 45) is a member");
                views[v]
                    .adopt_auxiliary(p1, Object::atom(taken, "ts", 0i64))
                    .unwrap();
            }
            let mut batch = DeltaBatch::new();
            batch.push(store.apply(Update::insert("P2", "A2")).unwrap());
            let err = pm
                .apply_batch(&mut views, &store, &batch, threads)
                .unwrap_err();
            let want = gsdb::GsdbError::DuplicateOid(Oid::delegate(oid(names[first]), oid("P2")));
            assert_eq!(err, want, "views {failing:?} failing at {threads} threads");
        }
    }

    #[test]
    fn partition_screens_created_child_inserts_by_root() {
        let mut store = person_store();
        // Fresh atom under P2: anchors at P2, whose ancestor closure is
        // {P2, ROOT} — the P1-rooted view cannot be affected.
        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        let mut batch = DeltaBatch::new();
        batch.push(
            store
                .apply(Update::create(Object::atom("FRESH", "age", 1i64)))
                .unwrap(),
        );
        batch.push(store.apply(Update::insert("P2", "FRESH")).unwrap());
        let pm = ParallelMaintainer::new(defs());
        let (deltas, stats) = pm.partition(&store, &batch.consolidate());
        // Views 0 and 1 are rooted at ROOT (ancestor of P2): kept.
        assert_eq!(deltas[0].edges.len(), 1);
        assert_eq!(deltas[1].edges.len(), 1);
        // View 2 is rooted at P1, not an ancestor of P2: screened.
        assert!(deltas[2].edges.is_empty());
        assert_eq!(stats.screened_out, 1);
    }

    #[test]
    fn view_blind_partition_broadcasts_cuts_and_screens_inserts_by_ancestry() {
        let mut store = person_store();
        let mut batch = DeltaBatch::new();
        // Move P3 (pre-existing) from P1 to P2: the cut reaches every
        // view, the insert only those rooted above P2 — the P1-rooted
        // view receives the cut only.
        batch.push(store.apply(Update::delete("P1", "P3")).unwrap());
        batch.push(store.apply(Update::insert("P2", "P3")).unwrap());
        let pm = ParallelMaintainer::new(defs());
        let (deltas, stats) = pm.partition(&store, &batch.consolidate());
        assert_eq!(deltas[0].edges.len(), 2);
        assert_eq!(deltas[1].edges.len(), 2);
        assert_eq!(
            deltas[2].edges.len(),
            1,
            "P1-rooted view: {:?}",
            deltas[2].edges
        );
        assert_eq!(deltas[2].edges[0].op, EdgeOp::Delete);
        assert_eq!(stats.screened_out, 1);
    }

    #[test]
    fn modifies_are_screened_by_ancestry() {
        let mut store = person_store();
        let mut batch = DeltaBatch::new();
        // A4 is the secretary's age: under ROOT but not under P1. The
        // modify flips both views' conditions, so only ancestry screens.
        batch.push(store.apply(Update::modify("A4", 99i64)).unwrap());
        let le45 = || Pred::new(CmpOp::Le, 45i64);
        let pm = ParallelMaintainer::new([
            SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", le45()),
            SimpleViewDef::new("YS", "P1", "student").with_cond("age", le45()),
        ]);
        let (deltas, _) = pm.partition(&store, &batch.consolidate());
        assert_eq!(deltas[0].modifies.len(), 1);
        assert!(deltas[1].modifies.is_empty(), "P1 is not an ancestor of A4");
    }

    #[test]
    fn screened_modify_still_refreshes_member_copies() {
        // P3 is a member of both ST (ROOT-rooted) and PS (P1-rooted).
        // Modifying P3's *own* atom value is impossible (it is a set),
        // so target a view whose member is atomic: SA over the
        // secretary's age.
        let mut store = person_store();
        let defs = vec![
            SimpleViewDef::new("SA", "ROOT", "secretary.age"),
            SimpleViewDef::new("PS", "P1", "student"),
        ];
        let pm = ParallelMaintainer::new(defs);
        let mut views: Vec<MaterializedView> = pm
            .defs()
            .map(|d| recompute(d, &mut LocalBase::new(&store)).unwrap())
            .collect();
        let mut batch = DeltaBatch::new();
        batch.push(store.apply(Update::modify("A4", 77i64)).unwrap());
        let outcomes = pm.apply_batch(&mut views, &store, &batch, 2).unwrap();
        // Membership unchanged, but the delegate's stored copy tracked
        // the new value via the unfiltered touched set.
        assert!(!outcomes[0].changed());
        assert_eq!(outcomes[0].refreshed, 1);
        let delegate = views[0].delegate_of(oid("A4")).unwrap();
        assert_eq!(
            views[0].store().get(delegate).unwrap().atom_value(),
            Some(&gsdb::Atom::Int(77))
        );
    }
}
