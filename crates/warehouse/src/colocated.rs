//! Source-colocated view maintenance with parallel fan-out.
//!
//! The paper's warehouse (§5) pays per-query costs because views live
//! far from the base data. The other deployment the paper describes is
//! the centralized one (§4): views materialized *at the source site*,
//! with direct base access. [`ColocatedViews`] realizes that setting
//! on top of a [`Source`]: it holds a portfolio of materialized views,
//! absorbs the same [`UpdateReport`]s a warehouse would consume (so a
//! source can feed both), and on [`flush`](ColocatedViews::flush)
//! maintains every view in a single [`ParallelMaintainer`] fan-out —
//! per-view delta partitioning plus multi-threaded batched
//! maintenance — against the source's latest **published epoch**
//! ([`Source::snapshot`]), not the locked live store. The whole
//! fan-out runs without holding the source mutex, so source-local
//! writers and wrapper readers proceed while views are maintained;
//! the snapshot is immutable, which is exactly the contract the
//! maintainer workers already required.
//!
//! Reports are buffered between flushes, so a flush also benefits from
//! batch consolidation: an edge inserted and deleted between two
//! flushes costs nothing at maintenance time.

use crate::protocol::UpdateReport;
use crate::source::Source;
use gsdb::{DeltaBatch, Oid, Result};
use gsview_core::recompute::recompute;
use gsview_core::{BatchOutcome, LocalBase, MaterializedView, ParallelMaintainer, SimpleViewDef};
use gsview_query::MaintBackend;

/// A portfolio of materialized views colocated with one source.
pub struct ColocatedViews {
    pm: ParallelMaintainer,
    views: Vec<MaterializedView>,
    pending: DeltaBatch,
    threads: usize,
}

impl ColocatedViews {
    /// Materialize `defs` against the source's latest committed epoch.
    /// Reads one published snapshot — never a shard lock — so source
    /// writers keep committing while the portfolio materializes.
    /// `threads` workers maintain the portfolio on each flush (clamped
    /// to the number of views; `0` means one).
    pub fn new(source: &Source, defs: Vec<SimpleViewDef>, threads: usize) -> Result<Self> {
        let pm = ParallelMaintainer::new(defs);
        let snapshot = source.snapshot();
        let views = pm
            .defs()
            .map(|d| recompute(d, &mut LocalBase::new(&snapshot)))
            .collect::<Result<Vec<_>>>()?;
        Ok(ColocatedViews {
            pm,
            views,
            pending: DeltaBatch::new(),
            threads,
        })
    }

    /// The maintenance backend the planner routes the view named
    /// `name` to.
    pub fn backend_of(&self, name: &str) -> Option<MaintBackend> {
        self.pm
            .defs()
            .position(|d| d.view == Oid::new(name))
            .map(|i| self.pm.backend(i))
    }

    /// Buffer one update report for the next flush. The report is not
    /// consumed — the same report can still drive a remote warehouse.
    pub fn absorb(&mut self, report: &UpdateReport) {
        self.pending.push(report.update.clone());
    }

    /// Number of reports buffered since the last flush.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Maintain every view over the buffered reports: one epoch
    /// snapshot load, one consolidation, one parallel fan-out — no
    /// shard lock is ever taken (one consistent store-wide epoch is
    /// read, regardless of how many shards the source's commit
    /// pipeline runs), so updates and queries flow while maintenance
    /// runs. The snapshot already reflects every
    /// absorbed report (reports are emitted at or after commit, and
    /// commits publish), so maintenance sees the post-batch base state
    /// exactly as it did when it locked the live store. Returns the
    /// per-view outcomes, in definition order.
    pub fn flush(&mut self, source: &Source) -> Result<Vec<BatchOutcome>> {
        let _span = gsview_obs::span!(
            "warehouse.flush",
            "views" = self.views.len(),
            "pending" = self.pending.len(),
            "threads" = self.threads
        );
        let batch = DeltaBatch::from_ops(self.pending.drain());
        let store = source.snapshot();
        self.pm
            .apply_batch(&mut self.views, &store, &batch, self.threads)
    }

    /// The materialized views, in definition order.
    pub fn views(&self) -> &[MaterializedView] {
        &self.views
    }

    /// The view materializing the definition named `name`.
    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.pm
            .defs()
            .position(|d| d.view == Oid::new(name))
            .map(|i| &self.views[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReportLevel;
    use gsdb::{samples, Object, Update};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_source() -> Source {
        let src = Source::empty("persons", oid("ROOT"), ReportLevel::OidsOnly);
        src.with_store(|s| samples::person_db(s).map(|_| ()))
            .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    fn defs() -> Vec<SimpleViewDef> {
        vec![
            SimpleViewDef::new("YP", "ROOT", "professor")
                .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
            SimpleViewDef::new("ST", "ROOT", "professor.student"),
            SimpleViewDef::new("PS", "P1", "student"),
        ]
    }

    #[test]
    fn colocated_flush_matches_recompute_at_every_thread_count() {
        for threads in [1, 2, 4] {
            let src = person_source();
            let mut cv = ColocatedViews::new(&src, defs(), threads).unwrap();
            assert_eq!(cv.view("YP").unwrap().members_base(), vec![oid("P1")]);

            src.with_store(|s| s.create(Object::atom("A2", "age", 40i64)))
                .unwrap();
            src.apply(Update::insert("P2", "A2")).unwrap();
            src.apply(Update::modify("A1", 80i64)).unwrap();
            src.apply(Update::delete("P1", "P3")).unwrap();
            for r in src.monitor().poll() {
                cv.absorb(&r);
            }
            assert_eq!(cv.pending(), 4, "create + insert + modify + delete");
            let outcomes = cv.flush(&src).unwrap();
            assert_eq!(outcomes.len(), 3);
            assert_eq!(cv.pending(), 0);

            // Every view equals a from-scratch recompute of the final
            // source state.
            src.with_store(|s| {
                for (def, mv) in defs().iter().zip(cv.views()) {
                    let want = recompute(def, &mut LocalBase::new(s)).unwrap();
                    assert_eq!(
                        mv.members_base(),
                        want.members_base(),
                        "view {} at {threads} threads",
                        def.view
                    );
                }
            });
            assert_eq!(cv.view("YP").unwrap().members_base(), vec![oid("P2")]);
            assert!(cv.view("ST").unwrap().is_empty());
        }
    }

    #[test]
    fn portfolio_restarts_warm_over_a_recovered_source() {
        use gsview_core::CircuitSource;
        use gsview_durable::{DurableStore, MediaSet};
        use std::sync::Arc;

        let durable = Arc::new(DurableStore::open(MediaSet::memory()).unwrap());
        let src = person_source();
        src.attach_durable(Arc::clone(&durable)).unwrap();
        let mut cv = ColocatedViews::new(&src, defs(), 2).unwrap();
        // The portfolio reports the planner's routing, view by view.
        for def in defs() {
            let planned = CircuitSource::Simple(def.clone()).planned_backend().0;
            assert_eq!(cv.backend_of(def.view.name()), Some(planned));
        }
        assert_eq!(cv.backend_of("NOPE"), None);

        let check = |cv: &ColocatedViews, src: &Source, tag: &str| {
            src.with_store(|s| {
                for (def, mv) in defs().iter().zip(cv.views()) {
                    let want = recompute(def, &mut LocalBase::new(s)).unwrap();
                    assert_eq!(
                        mv.members_base(),
                        want.members_base(),
                        "view {} {tag}",
                        def.view
                    );
                }
            })
        };

        // Round 1: mixed batch, flushed against the live source.
        src.with_store(|s| s.create(Object::atom("A2", "age", 40i64)))
            .unwrap();
        src.apply(Update::insert("P2", "A2")).unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        for r in src.monitor().poll() {
            cv.absorb(&r);
        }
        cv.flush(&src).unwrap();
        check(&cv, &src, "after first flush");
        assert_eq!(cv.view("YP").unwrap().members_base(), vec![oid("P2")]);

        // Crash: drop the source; only the durable epoch log survives.
        drop(src);
        let src = Source::recover("persons", oid("ROOT"), ReportLevel::OidsOnly, &durable)
            .unwrap()
            .expect("lineage is recoverable");

        // Warm restart: rebuild the portfolio against the recovered
        // epoch.
        let mut cv = ColocatedViews::new(&src, defs(), 2).unwrap();
        check(&cv, &src, "after warm restart");

        // Round 2: the recovered pipeline keeps flowing through the
        // same flush path.
        src.apply(Update::modify("A1", 30i64)).unwrap();
        src.apply(Update::delete("P2", "A2")).unwrap();
        for r in src.monitor().poll() {
            cv.absorb(&r);
        }
        cv.flush(&src).unwrap();
        check(&cv, &src, "after post-recovery flush");
        assert_eq!(cv.view("YP").unwrap().members_base(), vec![oid("P1")]);
    }

    #[test]
    fn absorbing_does_not_consume_the_report() {
        let src = person_source();
        let mut cv = ColocatedViews::new(&src, defs(), 2).unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        let reports = src.monitor().poll();
        assert_eq!(reports.len(), 1);
        for r in &reports {
            cv.absorb(r);
        }
        // The report object is untouched and still warehouse-usable.
        assert_eq!(reports[0].seq, 0);
        cv.flush(&src).unwrap();
        assert!(cv.view("YP").unwrap().is_empty());
    }

    #[test]
    fn consolidation_spans_buffered_reports() {
        let src = person_source();
        let mut cv = ColocatedViews::new(&src, defs(), 2).unwrap();
        // Detach and re-attach between flushes: nets to nothing.
        src.apply(Update::delete("ROOT", "P1")).unwrap();
        src.apply(Update::insert("ROOT", "P1")).unwrap();
        for r in src.monitor().poll() {
            cv.absorb(&r);
        }
        let outcomes = cv.flush(&src).unwrap();
        for o in &outcomes {
            assert_eq!(o.consolidated_ops, 0);
            assert!(!o.changed());
        }
        assert_eq!(cv.view("YP").unwrap().members_base(), vec![oid("P1")]);
    }
}
