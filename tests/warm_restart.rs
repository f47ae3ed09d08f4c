//! Warm restart end-to-end (durability tentpole): a source persists
//! every published epoch through the durable epoch log; after a crash
//! the source reopens from its newest durable epoch and the warehouse
//! re-materializes views from recovered chunks — **zero queries back
//! to the source** — then ordinary incremental maintenance resumes.
//!
//! The crash sweep reruns the same workload killing the media at every
//! write/sync point in turn and checks each recovery against the
//! prefix-commit oracle [`check_crash_recovery`].

use gsview::durable::{
    ChaosController, ChaosPolicy, ChunkPort, CrashPlan, DurableStore, MediaSet,
};
use gsview::gsdb::{samples, Oid, Update};
use gsview::query::{CmpOp, Pred};
use gsview::views::{check_crash_recovery, SimpleViewDef};
use gsview::warehouse::{ReportLevel, Source, ViewOptions, Warehouse};
use std::sync::Arc;

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

/// The standard person database as an update-logging source.
fn person_source() -> Source {
    let src = Source::empty("persons", oid("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| samples::person_db(s).map(|_| ()))
        .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    src
}

fn yp_def() -> SimpleViewDef {
    SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64))
}

fn pump(src: &Source, wh: &mut Warehouse) {
    for r in src.monitor().poll() {
        wh.handle_report(&r).unwrap();
    }
}

#[test]
fn warm_restart_skips_source_requery() {
    let durable = Arc::new(DurableStore::open(MediaSet::memory()).unwrap());
    let src = person_source();
    src.attach_durable(Arc::clone(&durable)).unwrap();

    // Cold materialization pays queries against the source.
    let mut wh = Warehouse::new();
    wh.connect(&src);
    wh.add_view("persons", yp_def(), ViewOptions::default())
        .unwrap();
    let cold_queries = wh.meter("persons").unwrap().queries();
    assert!(cold_queries > 0, "cold add_view must query the source");
    src.apply(Update::modify("A1", 80i64)).unwrap();
    pump(&src, &mut wh);
    assert!(wh.view(oid("YP")).unwrap().is_empty());

    // Crash: both processes go away; only the durable media survives.
    drop(wh);
    drop(src);

    let src = Source::recover("persons", oid("ROOT"), ReportLevel::WithValues, &durable)
        .unwrap()
        .expect("published epochs must be recoverable");
    let mut wh = Warehouse::new();
    wh.connect(&src);
    wh.attach_durable(Arc::clone(&durable) as Arc<dyn ChunkPort>);
    let view = wh
        .add_view_warm("persons", yp_def(), ViewOptions::default())
        .unwrap()
        .expect("durable state present: warm path must engage");
    assert_eq!(view, oid("YP"));
    assert_eq!(
        wh.meter("persons").unwrap().queries(),
        0,
        "warm restart must not re-query the source"
    );
    // A1 was 80 at the crash; the recovered view already reflects it.
    assert!(wh.view(oid("YP")).unwrap().is_empty());

    // Incremental maintenance continues seamlessly after the restart:
    // sequence numbers resume at the persisted watermark, so the first
    // post-restart report is consumed rather than flagged as a gap.
    src.apply(Update::modify("A1", 30i64)).unwrap();
    pump(&src, &mut wh);
    assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
    assert!(wh.stale_views().is_empty());
}

#[test]
fn warm_restart_with_aux_cache_stays_query_free() {
    let durable = Arc::new(DurableStore::open(MediaSet::memory()).unwrap());
    let src = person_source();
    src.attach_durable(Arc::clone(&durable)).unwrap();
    src.apply(Update::modify("A3", 28i64)).unwrap();
    drop(src);

    let src = Source::recover("persons", oid("ROOT"), ReportLevel::WithValues, &durable)
        .unwrap()
        .unwrap();
    let mut wh = Warehouse::new();
    wh.connect(&src);
    wh.attach_durable(Arc::clone(&durable) as Arc<dyn ChunkPort>);
    // The auxiliary cache builds against the reconstructed store, not
    // the source — still zero metered queries.
    wh.add_view_warm(
        "persons",
        yp_def(),
        ViewOptions {
            use_aux_cache: true,
            ..ViewOptions::default()
        },
    )
    .unwrap()
    .expect("warm");
    assert_eq!(wh.meter("persons").unwrap().queries(), 0);
    let before = wh.meter("persons").unwrap().queries();
    // Aux-cache-screened maintenance works post-restart.
    src.apply(Update::modify("A1", 80i64)).unwrap();
    pump(&src, &mut wh);
    assert!(wh.view(oid("YP")).unwrap().is_empty());
    assert!(wh.meter("persons").unwrap().queries() >= before);
}

/// The post-crash workload applied at the source, one commit (= one
/// published epoch) per update.
fn workload() -> Vec<Update> {
    vec![
        Update::modify("A1", 80i64),
        Update::modify("A3", 28i64),
        Update::modify("A1", 30i64),
        Update::modify("A4", 66i64),
        Update::modify("A1", 44i64),
    ]
}

/// Run setup + workload against `media`, swallowing media crashes the
/// way a live source does (persistence is behind the publish point).
/// Returns the ops consumed after setup-persist completed, if it did.
fn run_under_fire(media: &MediaSet) {
    let Ok(durable) = DurableStore::open(media.clone()) else {
        return;
    };
    let src = person_source();
    let _ = src.attach_durable(Arc::new(durable));
    for u in workload() {
        src.apply(u).unwrap();
    }
}

#[test]
fn crash_at_every_persist_op_recovers_a_published_prefix() {
    // Reference run on perfect media: capture the exact baseline store
    // (slot layout included) and epoch the oracle replays from.
    let (initial, base_epoch) = {
        let durable = Arc::new(DurableStore::open(MediaSet::memory()).unwrap());
        let src = person_source();
        let receipt = src.attach_durable(Arc::clone(&durable)).unwrap();
        let rec = durable.recover("persons").unwrap().unwrap();
        (rec.store, receipt.epoch)
    };
    let batches: Vec<Vec<Update>> = workload().into_iter().map(|u| vec![u]).collect();

    // Dry runs size the sweep: ops consumed by setup alone, then by
    // the full workload (reads never count, so the schedule is fixed).
    let seed = 7;
    let baseline_ops = {
        let ctl = ChaosController::new(ChaosPolicy::seeded(seed), CrashPlan::default());
        let durable = DurableStore::open(MediaSet::chaos(&ctl)).unwrap();
        person_source().attach_durable(Arc::new(durable)).unwrap();
        ctl.ops()
    };
    let total = {
        let ctl = ChaosController::new(ChaosPolicy::seeded(seed), CrashPlan::default());
        run_under_fire(&MediaSet::chaos(&ctl));
        assert!(!ctl.crashed());
        ctl.ops()
    };
    assert!(total > baseline_ops);

    for kill in 1..=total {
        let ctl = ChaosController::new(ChaosPolicy::seeded(seed), CrashPlan { kill_at_op: kill });
        let media = MediaSet::chaos(&ctl);
        run_under_fire(&media);
        assert!(ctl.crashed(), "kill {kill} of {total} must fire");

        // Power back on: same bytes, healthy media.
        ctl.heal(CrashPlan::default());
        let durable = Arc::new(DurableStore::open(media.clone()).unwrap());
        match durable.recover("persons").unwrap() {
            Some(rec) => {
                let verdict = check_crash_recovery(
                    &initial,
                    &batches,
                    base_epoch,
                    rec.manifest.epoch,
                    &rec.store,
                );
                assert!(
                    verdict.ok(),
                    "kill {kill}: illegal recovery: {:?}",
                    verdict.failures
                );
                // The recovered source keeps publishing durably.
                let src =
                    Source::recover("persons", oid("ROOT"), ReportLevel::WithValues, &durable)
                        .unwrap()
                        .unwrap();
                src.apply(Update::modify("A1", 99i64)).unwrap();
            }
            None => assert!(
                kill <= baseline_ops,
                "kill {kill}: baseline was durable (setup ends at op {baseline_ops}), \
                 recovery must not come up cold"
            ),
        }
    }
}
