//! E15 — observability: per-phase maintenance breakdown and collector
//! overhead.
//!
//! Two claims for the obs subsystem:
//!
//! 1. **Attribution**: with a [`PhaseProfile`] collector installed,
//!    one batched maintenance pass over the E13 portfolio decomposes
//!    into the Algorithm 1 phase spans (`maint.phase.locate`,
//!    `maint.phase.repair`, `maint.phase.content`, …) whose totals
//!    account for where the wall time goes — the per-phase table
//!    recorded in EXPERIMENTS.md.
//! 2. **Overhead**: with no collector installed the instrumentation
//!    is a relaxed-load branch; the maintenance throughput with the
//!    profile collector attached stays within a small factor of the
//!    uninstrumented run (reported as the `overhead` rows; the E13/E14
//!    smoke baselines gate the no-collector case in CI).
//!
//! Database parameters are reported through [`gsdb::stats_at`] over
//! the source's published epoch — the lock-free read path — rather
//! than by locking the live store.

use crate::table::{fnum, Table};
use gsdb::{DeltaBatch, Oid, Store};
use gsview_core::{recompute, LocalBase, Maintainer, MaterializedView, SimpleViewDef};
use gsview_obs::PhaseProfile;
use gsview_query::{CmpOp, Pred};
use gsview_warehouse::{ReportLevel, Source};
use gsview_workload::relations::{self, RelationsSpec};
use std::sync::Arc;
use std::time::Instant;

/// Relations (= views) in the portfolio, matching E13.
const VIEWS: usize = 8;

fn build(tuples_per_relation: usize) -> (Store, relations::RelationsDb) {
    relations::generate(
        RelationsSpec {
            relations: VIEWS,
            tuples_per_relation,
            extra_fields: 2,
            age_range: 60,
            seed: 151,
        },
        gsdb::StoreConfig::default(),
    )
    .expect("generate")
}

fn portfolio() -> Vec<SimpleViewDef> {
    (0..VIEWS)
        .map(|i| {
            SimpleViewDef::new(format!("V{i}").as_str(), format!("r{i}").as_str(), "tuple")
                .with_cond("age", Pred::new(CmpOp::Gt, 30i64))
        })
        .collect()
}

/// Age-churn batch over every relation, deterministic.
fn scripted_batch(store: &mut Store, db: &relations::RelationsDb, ops: usize) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    let mut fresh = 0usize;
    for i in 0..ops {
        let ri = i % VIEWS;
        if i % 3 == 0 {
            let age = Oid::new(&format!("e15x{fresh}.age"));
            let tup = Oid::new(&format!("e15x{fresh}"));
            fresh += 1;
            for u in [
                gsdb::Update::create(gsdb::Object::atom(age.name(), "age", (i % 60) as i64)),
                gsdb::Update::create(gsdb::Object::set(tup.name(), "tuple", &[age])),
                gsdb::Update::insert(db.relation_oids[ri], tup),
            ] {
                batch.push(store.apply(u).expect("valid script"));
            }
        } else {
            let a = db.ages[ri][i % db.ages[ri].len()];
            batch.push(
                store
                    .apply(gsdb::Update::modify(a, ((i * 7) % 60) as i64))
                    .expect("valid script"),
            );
        }
    }
    batch
}

/// One maintenance pass: every view maintained over the consolidated
/// delta (the E13 seed route, which exercises all phase spans).
fn maintain_once(
    plans: &[Maintainer],
    initial: &[MaterializedView],
    store: &Store,
    delta: &gsdb::ConsolidatedDelta,
) {
    let mut views = initial.to_vec();
    for (plan, mv) in plans.iter().zip(views.iter_mut()) {
        plan.apply_consolidated(mv, &mut LocalBase::new(store), delta)
            .expect("maintain");
    }
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let (tuples, ops, reps) = if quick {
        (312, 400, 3)
    } else {
        (3_125, 2_000, 5)
    };
    let (mut store, db) = build(tuples);
    let defs = portfolio();
    let initial: Vec<MaterializedView> = defs
        .iter()
        .map(|d| recompute::recompute(d, &mut LocalBase::new(&store)).expect("init"))
        .collect();
    let batch = scripted_batch(&mut store, &db, ops);
    let delta = batch.consolidate();
    let plans: Vec<Maintainer> = defs.iter().map(|d| Maintainer::new(d.clone())).collect();

    let mut t = Table::new(
        "E15",
        "observability: per-phase maintenance breakdown + collector overhead",
        "phase spans account for the pass; collector overhead stays small",
    )
    .headers(&["row", "count", "total_ms", "mean_us", "share"]);

    // Database parameters via the lock-free epoch read path.
    let source = Source::new("e15", db.root, store.clone(), ReportLevel::WithValues);
    let (epoch, stats) = gsdb::stats_at(&source.epoch_handle());
    t.row(vec![
        format!("db@epoch{epoch}"),
        stats.objects.to_string(),
        "-".into(),
        "-".into(),
        format!("{} edges", stats.edges),
    ]);

    // Uninstrumented wall time (no collector: events are a relaxed
    // load + branch).
    let mut bare = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        maintain_once(&plans, &initial, &store, &delta);
        bare = bare.min(t0.elapsed().as_secs_f64());
    }

    // Instrumented: PhaseProfile aggregates every span close.
    let profile = Arc::new(PhaseProfile::new());
    let guard = gsview_obs::install(profile.clone());
    let mut timed = f64::INFINITY;
    for _ in 0..reps {
        profile.reset();
        let t0 = Instant::now();
        maintain_once(&plans, &initial, &store, &delta);
        timed = timed.min(t0.elapsed().as_secs_f64());
    }
    let phases = profile.phases();
    drop(guard);

    let total_ns: u64 = phases
        .iter()
        .filter(|(n, _)| n.starts_with("maint.phase."))
        .map(|(_, t)| t.total_ns)
        .sum();
    for (name, totals) in &phases {
        let share = if name.starts_with("maint.phase.") && total_ns > 0 {
            format!("{:.0}%", 100.0 * totals.total_ns as f64 / total_ns as f64)
        } else {
            "-".into()
        };
        t.row(vec![
            (*name).to_string(),
            totals.count.to_string(),
            format!("{:.3}", totals.total_ns as f64 / 1e6),
            fnum(totals.total_ns as f64 / 1e3 / totals.count.max(1) as f64),
            share,
        ]);
    }
    t.row(vec![
        "overhead(no collector)".into(),
        "-".into(),
        format!("{:.3}", bare * 1e3),
        "-".into(),
        "1x".into(),
    ]);
    t.row(vec![
        "overhead(PhaseProfile)".into(),
        "-".into(),
        format!("{:.3}", timed * 1e3),
        "-".into(),
        format!("{}x", fnum(timed / bare.max(1e-12))),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsview_obs::{Collector, Event};

    /// Forwards only the events of the thread that built it: the
    /// collector is installed process-wide, and tests running beside
    /// this one emit maintenance spans of their own.
    struct ThisThread {
        thread: u64,
        inner: Arc<PhaseProfile>,
    }

    impl Collector for ThisThread {
        fn record(&self, event: Event) {
            if event.thread == self.thread {
                self.inner.record(event);
            }
        }
    }

    #[test]
    fn phase_spans_are_attributed() {
        let (mut store, db) = build(24);
        let defs = portfolio();
        let initial: Vec<MaterializedView> = defs
            .iter()
            .map(|d| recompute::recompute(d, &mut LocalBase::new(&store)).expect("init"))
            .collect();
        let batch = scripted_batch(&mut store, &db, 60);
        let delta = batch.consolidate();
        let plans: Vec<Maintainer> = defs.iter().map(|d| Maintainer::new(d.clone())).collect();
        let profile = Arc::new(PhaseProfile::new());
        let _guard = gsview_obs::install(Arc::new(ThisThread {
            thread: gsview_obs::thread_id(),
            inner: profile.clone(),
        }));
        maintain_once(&plans, &initial, &store, &delta);
        assert_eq!(profile.get("maint.plan").count, VIEWS as u64);
        assert_eq!(profile.get("maint.phase.locate").count, VIEWS as u64);
        assert!(profile.get("maint.phase.content").count > 0);
    }
}
