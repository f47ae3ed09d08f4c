//! E12 — fault tolerance: maintenance cost under report loss.
//!
//! The paper's warehouse (§5) trusts report delivery; this repo's
//! warehouse does not. E12 measures what that robustness costs: the
//! same churny relations stream is replayed while the monitor drops
//! 0% / 1% / 10% of its update reports, with and without the §5.2
//! auxiliary cache. Lost reports surface as sequence gaps, the
//! affected view degrades to `Stale` (reads still served), and a
//! periodic resync sweep heals it — so the metrics to watch are
//! queries back to the source per update, detected gaps, resync rounds,
//! and how many reports were skipped while degraded. A resync costs two
//! reads of the view's region (`2 × (1 + |sel_path.cond_path|)` queries,
//! whatever the size of the source), so under loss the query count
//! *falls*: a stale view skips maintenance, and healing it is cheaper
//! than the query-backs it skipped.
//!
//! Every configuration must end consistent: the run asserts the final
//! membership equals a from-scratch recompute on the source's state.
//! Every count is deterministic (seeded stream, seeded loss);
//! `tests/e12_smoke.rs` pins the quick-mode rows against
//! `baselines/e12_quick.json`.

use crate::table::{fnum, Table};
use gsdb::Oid;
use gsview_core::{recompute, LocalBase, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_testkit::chaos::{ChaosPolicy, FaultyMonitor};
use gsview_warehouse::{ReportLevel, ReportSource, Source, ViewOptions, Warehouse};
use gsview_workload::{relations, relations_churn, ChurnSpec, RelationsSpec, ScriptOp};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E12Row {
    /// Report loss probability (0.0 — 1.0).
    pub loss: f64,
    /// Auxiliary cache enabled?
    pub cached: bool,
    /// Applied updates in the stream.
    pub ops: usize,
    /// Source queries after set-up, everything on the wire
    /// (incremental maintenance + resync repair + verification).
    pub queries: u64,
    /// [`E12Row::queries`] per applied update.
    pub queries_per_update: f64,
    /// Sequence gaps detected (mid-stream or by checkpoint reconcile).
    pub gaps_detected: u64,
    /// Successful resyncs.
    pub resyncs: u64,
    /// Reports skipped while the view was degraded to `Stale`.
    pub skipped_while_stale: u64,
    /// Final membership size (asserted equal to recompute).
    pub members: usize,
}

fn view_def() -> SimpleViewDef {
    SimpleViewDef::new("E12", "REL", "r0.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64))
}

/// Replay one churny stream through a lossy report pipeline, healing
/// every `resync_every` updates and once more at the end.
fn measure(loss: f64, cached: bool, tuples: usize, ops: usize) -> E12Row {
    let spec = RelationsSpec {
        relations: 2,
        tuples_per_relation: tuples,
        extra_fields: 1,
        age_range: 60,
        seed: 121,
    };
    let churn = ChurnSpec {
        ops,
        modify_weight: 2,
        field_modify_weight: 1,
        insert_weight: 1,
        delete_weight: 1,
        target_bias: 0.5,
        age_range: 60,
        seed: 122,
    };
    let (store, mut db) =
        relations::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    let source = Source::new("rels", Oid::new("REL"), store, ReportLevel::WithValues);
    source.with_store(|s| {
        s.drain_log();
    });
    let script = relations_churn(&mut db, churn);

    // Reports are lossy; queries stay reliable, so every query on the
    // meter is a real trip to the source (none are retried away).
    let monitor = FaultyMonitor::new(source.monitor(), ChaosPolicy::lossy(123, loss));
    let mut wh = Warehouse::new();
    wh.connect(&source);
    let view = wh
        .add_view(
            "rels",
            view_def(),
            ViewOptions {
                use_aux_cache: cached,
                label_screening: true,
                ..ViewOptions::default()
            },
        )
        .expect("add view");
    wh.meter("rels").expect("meter").reset();

    let resync_every = 25usize;
    let mut resyncs = 0u64;
    let mut n_updates = 0usize;
    for op in &script {
        source.with_store(|s| op.replay(s)).expect("valid");
        if matches!(op, ScriptOp::Apply(_)) {
            n_updates += 1;
        }
        for report in monitor.poll() {
            wh.handle_report(&report).expect("maintain");
        }
        if n_updates.is_multiple_of(resync_every) && !wh.stale_views().is_empty() {
            for (_, outcome) in wh.resync_stale().expect("resync") {
                resyncs += u64::from(outcome.healed);
            }
        }
    }
    // Tail: detect loss with no delivered successor, then heal.
    let (name, next_seq) = monitor.checkpoint();
    wh.reconcile(&name, next_seq);
    while !wh.stale_views().is_empty() {
        for (_, outcome) in wh.resync_stale().expect("resync") {
            resyncs += u64::from(outcome.healed);
        }
    }

    // Convergence is non-negotiable at any loss rate.
    let expected =
        source.with_store(|s| recompute::recompute_members(&view_def(), &mut LocalBase::new(s)));
    let members = wh.view(view).expect("view").members_base();
    assert_eq!(members, expected, "lossy pipeline diverged at loss={loss}");

    let stats = wh.view_stats(view).expect("stats");
    let meter = wh.meter("rels").expect("meter");
    E12Row {
        loss,
        cached,
        ops: n_updates,
        queries: meter.queries(),
        queries_per_update: meter.queries() as f64 / n_updates.max(1) as f64,
        gaps_detected: stats.gaps_detected,
        resyncs,
        skipped_while_stale: stats.skipped_while_stale,
        members: members.len(),
    }
}

/// 0 % / 1 % / 10 % report loss, cache off and on.
fn sweep(tuples: usize, ops: usize) -> Vec<E12Row> {
    let mut rows = Vec::new();
    for &loss in &[0.0f64, 0.01, 0.10] {
        for cached in [false, true] {
            rows.push(measure(loss, cached, tuples, ops));
        }
    }
    rows
}

/// The quick-mode sweep, for the count gate (`tests/e12_smoke.rs`).
pub fn quick_facts() -> Vec<E12Row> {
    sweep(200, 200)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick {
        quick_facts()
    } else {
        sweep(1_000, 600)
    };
    let mut t = Table::new(
        "E12",
        "fault tolerance: report loss vs maintenance cost",
        "loss degrades views to Stale and resync heals them; the aux cache keeps the healthy fraction of maintenance local",
    )
    .headers(&[
        "loss",
        "cache",
        "queries/upd",
        "gaps",
        "resyncs",
        "skipped stale",
        "members",
    ]);
    for r in rows {
        t.row(vec![
            format!("{}%", (r.loss * 100.0).round()),
            if r.cached { "on" } else { "off" }.to_string(),
            fnum(r.queries_per_update),
            format!("{}", r.gaps_detected),
            format!("{}", r.resyncs),
            format!("{}", r.skipped_while_stale),
            format!("{}", r.members),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_pipeline_detects_nothing() {
        let r = measure(0.0, true, 100, 80);
        assert_eq!(r.gaps_detected, 0);
        assert_eq!(r.resyncs, 0);
        assert_eq!(r.skipped_while_stale, 0);
    }

    #[test]
    fn lossy_pipeline_detects_and_heals() {
        // measure() itself asserts convergence; here we pin that the
        // loss was actually noticed rather than silently absorbed.
        let r = measure(0.10, false, 100, 80);
        assert!(r.gaps_detected > 0, "10% loss must surface as gaps");
        assert!(r.resyncs > 0, "stale views must have been resynced");
    }

    #[test]
    fn cache_cuts_queries_at_every_loss_rate() {
        for &loss in &[0.0f64, 0.10] {
            let uncached = measure(loss, false, 100, 80);
            let cached = measure(loss, true, 100, 80);
            assert!(
                cached.queries_per_update <= uncached.queries_per_update,
                "loss {loss}: cached {} vs uncached {}",
                cached.queries_per_update,
                uncached.queries_per_update
            );
        }
    }
}
