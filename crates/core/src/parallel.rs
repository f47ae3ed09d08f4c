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
//!    provably cannot affect a view, using the inverse (parent) index
//!    to test whether the view's root is an ancestor of the update's
//!    anchor object; and
//! 2. **fanning out** the per-view work over [`std::thread::scope`],
//!    one worker per hardware thread, each running
//!    [`Maintainer::apply_consolidated`] against a shared `&Store`.
//!
//! ## Partition soundness
//!
//! A delta may be dropped for view `V` only when
//! [`Maintainer::apply_consolidated`] would provably do nothing with
//! it. Working through that routine's escalation rules:
//!
//! * **Deletes and re-attaching inserts are screened by ancestry or
//!   member overlap** (when the partitioner can see the views, i.e.
//!   via [`ParallelMaintainer::partition_for`] — the view-blind
//!   [`ParallelMaintainer::partition`] broadcasts them). Such an edge
//!   is kept for `V` iff `V.root` is an ancestor of the edge's parent
//!   in the final state, **or** the final-state subtree under the
//!   edge's child contains a current member of `V`. Soundness: the
//!   only thing an unreachable-parent delete (or a non-matching
//!   re-attaching insert) can do in `apply_consolidated` is escalate
//!   to the member sweep / select-path re-check, and those passes only
//!   ever *change* members whose derivability or witness the batch
//!   disturbed. A disturbed member `y` sits, in the final state, under
//!   the child of the *lowest* batch edge on its disturbed path
//!   (edges below that one survived the batch), so `y` lands in that
//!   edge's child-subtree and the edge survives the screen for `V`.
//!   The subtree walk is capped and treats a dangling child OID (an
//!   object the batch `Remove`d — its record is gone but surviving
//!   children lists may still name it) as "unknown", falling back to
//!   broadcast for that edge.
//! * **Inserts of freshly created children are filtered.** A created
//!   child cannot carry members (it did not exist before the batch),
//!   so the insert matters to `V` iff the location test can pass —
//!   which requires `V.root` to be an ancestor of the edge's parent in
//!   the final state. If it is not, `apply_consolidated` would fall
//!   into the non-matching insert arm and skip it *because the child
//!   is created*: dropping the delta is behaviour-identical.
//! * **Modifies are filtered the same way.** A modify matters iff
//!   `path(V.root, oid) = sel_path.cond_path`, which again requires
//!   ancestry; a non-ancestor modify is `continue`d with no side
//!   effects. Content upkeep is unaffected because the `touched` set
//!   is never filtered (a member's stored copy is refreshed whether or
//!   not the membership-relevant deltas survived the partition).
//! * `created` / `removed` / `touched` / `input_ops` are copied
//!   through unfiltered — `apply_consolidated` consults `created` to
//!   decide the escalation above, and `touched` drives content upkeep.
//!
//! Without a parent index the ancestry test is unavailable and every
//! view receives the full delta (fan-out still parallelizes the work).
//!
//! The worker fan-out is deterministic: each view's outcome depends
//! only on its own (plan, delta, view) triple and the immutable base,
//! so the result is independent of thread count — a property the
//! differential oracle ([`crate::oracle::check_parallel_equivalence`])
//! asserts against sequential maintenance and full recomputation.

use crate::base::LocalBase;
use crate::circuitview::CircuitSource;
use crate::maintain::{BatchOutcome, Maintainer};
use crate::mview::MaterializedView;
use crate::viewdef::SimpleViewDef;
use gsdb::{path, ConsolidatedDelta, DeltaBatch, EdgeOp, FastMap, FastSet, Oid, Result, Store};
use gsview_query::MaintBackend;

/// Node budget for the member-overlap subtree walk; an edge whose
/// child subtree exceeds this is broadcast instead of screened.
const SUBTREE_CAP: usize = 4096;

/// The final-state subtree under `n` (including `n`), or `None` if the
/// walk exceeds `cap` nodes or reaches a child OID with no surviving
/// record (a batch `Remove` — surviving children lists may still name
/// it, and the walk cannot see what used to hang below it).
fn subtree_closure(store: &Store, n: Oid, cap: usize) -> Option<FastSet<Oid>> {
    let mut seen: FastSet<Oid> = FastSet::default();
    if !store.contains(n) {
        return None;
    }
    seen.insert(n);
    let mut stack = vec![n];
    while let Some(cur) = stack.pop() {
        for &c in store.children(cur) {
            if !store.contains(c) {
                return None;
            }
            if seen.insert(c) {
                if seen.len() > cap {
                    return None;
                }
                stack.push(c);
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
    /// Whether the parent index was available for screening.
    pub screened: bool,
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
    /// This view-blind form broadcasts every delete and every
    /// re-attaching insert; [`partition_for`](Self::partition_for)
    /// additionally screens those by member overlap.
    pub fn partition(
        &self,
        store: &Store,
        delta: &ConsolidatedDelta,
    ) -> (Vec<ConsolidatedDelta>, PartitionStats) {
        self.partition_inner(store, delta, None)
    }

    /// [`partition`](Self::partition), with the current views visible:
    /// deletes and re-attaching inserts are additionally dropped for
    /// views whose member set is disjoint from the final-state subtree
    /// under the edge's child (the escalation passes they would
    /// trigger are provably no-ops there — module docs).
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
        let mut stats = PartitionStats {
            screened: store.has_parent_index(),
            ..PartitionStats::default()
        };
        if !stats.screened {
            // No ancestry test available: broadcast.
            let out: Vec<ConsolidatedDelta> =
                self.plans.iter().map(|_| delta.clone()).collect();
            stats.dispatched = delta.len() * self.plans.len();
            return (out, stats);
        }

        let created: FastSet<Oid> = delta.created.iter().copied().collect();
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

        // Final-state subtrees under edge children, for the member
        // overlap screen. `None` = walk capped out or hit a dangling
        // (removed) OID: treat the edge as relevant everywhere.
        let mut subtrees: FastMap<Oid, Option<FastSet<Oid>>> = FastMap::default();

        for e in &delta.edges {
            let created_insert = e.op == EdgeOp::Insert && created.contains(&e.child);
            // Every edge kind is screened by ancestry of its parent; a
            // non-created edge additionally stays relevant for views
            // whose members intersect the child's final-state subtree.
            let anchors = closures
                .entry(e.parent)
                .or_insert_with(|| path::ancestor_set(store, e.parent));
            let overlap: Option<&Option<FastSet<Oid>>> = if created_insert || views.is_none() {
                None
            } else {
                Some(
                    subtrees
                        .entry(e.child)
                        .or_insert_with(|| subtree_closure(store, e.child, SUBTREE_CAP)),
                )
            };
            for (v, plan) in self.plans.iter().enumerate() {
                let relevant = anchors.contains(&plan.def().root)
                    || match (created_insert, overlap, views) {
                        // Created-child inserts: ancestry alone decides.
                        (true, _, _) => false,
                        // View-blind partitioning: broadcast.
                        (false, None, _) => true,
                        // Capped / dangling subtree: broadcast.
                        (false, Some(None), _) => true,
                        (false, Some(Some(sub)), Some(vs)) => {
                            sub.iter().any(|o| vs[v].contains_base(*o))
                        }
                        (false, Some(Some(_)), None) => true,
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
            let anchors = closures
                .entry(m.oid)
                .or_insert_with(|| path::ancestor_set(store, m.oid));
            for (v, plan) in self.plans.iter().enumerate() {
                if anchors.contains(&plan.def().root) {
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

    /// Maintain every view over one raw update batch. `views` must be
    /// in definition order; `store` must reflect the state *after*
    /// every update in the batch. `threads` workers run concurrently
    /// (clamped to the number of views; `0` means one).
    pub fn apply_batch(
        &self,
        views: &mut [MaterializedView],
        store: &Store,
        batch: &DeltaBatch,
        threads: usize,
    ) -> Result<Vec<BatchOutcome>> {
        self.apply_consolidated(views, store, &batch.consolidate(), threads)
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
        gsview_obs::event!(
            "maint.partition",
            "dispatched" = stats.dispatched,
            "screened_out" = stats.screened_out,
            "screened" = stats.screened,
        );
        type Lane<'p, 'v> = (
            usize,
            &'p Maintainer,
            ConsolidatedDelta,
            &'v mut MaterializedView,
        );
        let mut work: Vec<Lane<'_, '_>> = self
            .plans
            .iter()
            .zip(deltas)
            .zip(views.iter_mut())
            .enumerate()
            .map(|(i, ((plan, d), mv))| (i, plan, d, mv))
            .collect();

        let threads = threads.clamp(1, work.len().max(1));
        let chunk = work.len().div_ceil(threads).max(1);
        let mut results: Vec<Option<Result<BatchOutcome>>> = Vec::new();
        results.resize_with(work.len(), || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for slice in work.chunks_mut(chunk) {
                handles.push(scope.spawn(move || {
                    let mut out = Vec::with_capacity(slice.len());
                    for (i, plan, d, mv) in slice.iter_mut() {
                        let r = plan.apply_consolidated(*mv, &mut LocalBase::new(store), d);
                        out.push((*i, r));
                    }
                    out
                }));
            }
            for h in handles {
                for (i, r) in h.join().expect("maintenance worker panicked") {
                    results[i] = Some(r);
                }
            }
        });

        results
            .into_iter()
            .map(|r| r.expect("every view was dispatched"))
            .collect()
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
    fn parallel_matches_recompute_at_every_thread_count() {
        let pm = ParallelMaintainer::new(defs());
        for (i, def) in defs().into_iter().enumerate() {
            let planned = CircuitSource::Simple(def).planned_backend().0;
            assert_eq!(pm.backend(i), planned, "view {i} reports the plan");
        }
        for threads in [1, 2, 4, 8] {
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
            for (def, mv) in pm.defs().zip(&views) {
                let want = recompute(def, &mut LocalBase::new(&store)).unwrap();
                assert_eq!(
                    mv.members_base(),
                    want.members_base(),
                    "view {} at {} threads",
                    def.view,
                    threads
                );
            }
        }
    }

    #[test]
    fn partition_screens_created_child_inserts_by_root() {
        let mut store = person_store();
        // Fresh atom under P2: anchors at P2, whose ancestor closure is
        // {P2, ROOT} — the P1-rooted view cannot be affected.
        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        let mut batch = DeltaBatch::new();
        batch.push(store.apply(Update::create(Object::atom("FRESH", "age", 1i64))).unwrap());
        batch.push(store.apply(Update::insert("P2", "FRESH")).unwrap());
        let pm = ParallelMaintainer::new(defs());
        let (deltas, stats) = pm.partition(&store, &batch.consolidate());
        assert!(stats.screened);
        // Views 0 and 1 are rooted at ROOT (ancestor of P2): kept.
        assert_eq!(deltas[0].edges.len(), 1);
        assert_eq!(deltas[1].edges.len(), 1);
        // View 2 is rooted at P1, not an ancestor of P2: screened.
        assert!(deltas[2].edges.is_empty());
        assert_eq!(stats.screened_out, 1);
    }

    #[test]
    fn deletes_and_reattaching_inserts_are_broadcast() {
        let mut store = person_store();
        let mut batch = DeltaBatch::new();
        // Re-attach P3 (pre-existing) and delete an edge: both must
        // reach every view, including the P1-rooted one.
        batch.push(store.apply(Update::delete("P1", "P3")).unwrap());
        batch.push(store.apply(Update::insert("P2", "P3")).unwrap());
        let pm = ParallelMaintainer::new(defs());
        let (deltas, stats) = pm.partition(&store, &batch.consolidate());
        for d in &deltas {
            assert_eq!(d.edges.len(), 2, "deletes/re-attaches are never screened");
        }
        assert_eq!(stats.screened_out, 0);
    }

    #[test]
    fn modifies_are_screened_by_ancestry() {
        let mut store = person_store();
        let mut batch = DeltaBatch::new();
        // A4 is the secretary's age: under ROOT but not under P1.
        batch.push(store.apply(Update::modify("A4", 99i64)).unwrap());
        let pm = ParallelMaintainer::new(defs());
        let (deltas, _) = pm.partition(&store, &batch.consolidate());
        assert_eq!(deltas[0].modifies.len(), 1);
        assert!(deltas[2].modifies.is_empty(), "P1 is not an ancestor of A4");
    }

    #[test]
    fn no_parent_index_broadcasts_everything() {
        let mut store = Store::with_config(gsdb::StoreConfig {
            parent_index: false,
            label_index: false,
            ..gsdb::StoreConfig::default()
        });
        samples::person_db(&mut store).unwrap();
        let mut batch = DeltaBatch::new();
        batch.push(store.apply(Update::modify("A4", 99i64)).unwrap());
        let pm = ParallelMaintainer::new(defs());
        let (deltas, stats) = pm.partition(&store, &batch.consolidate());
        assert!(!stats.screened);
        for d in &deltas {
            assert_eq!(d.modifies.len(), 1);
        }
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
