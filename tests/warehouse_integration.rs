//! End-to-end warehouse scenarios (paper §5): multiple autonomous
//! sources, concurrent monitor pumping through the channel integrator,
//! view correctness under sustained churn, and the cost hierarchy of
//! the query-reduction techniques.

use gsview::gsdb::{samples, Oid, StoreConfig, Update};
use gsview::query::{CmpOp, Pred};
use gsview::views::{consistency, recompute, LocalBase, SimpleViewDef};
use gsview::warehouse::{
    spawn_channel_integrator, ChaosPolicy, CostMeter, FaultyWrapper, QueryFault, QueryPort,
    ReportLevel, RetryPolicy, Source, SourceQuery, SourceReply, StaleCause, ViewOptions,
    ViewState, Warehouse,
};
use gsview::workload::{relations, relations_churn, ChurnSpec, RelationsSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

fn rel_source(name: &str, level: ReportLevel, seed: u64) -> (Source, gsview::workload::RelationsDb) {
    let (store, db) = relations::generate(
        RelationsSpec {
            relations: 2,
            tuples_per_relation: 60,
            extra_fields: 1,
            age_range: 60,
            seed,
        },
        StoreConfig::default(),
    )
    .unwrap();
    (Source::new(name, oid("REL"), store, level), db)
}

#[test]
fn two_sources_one_warehouse() {
    let person = Source::empty("people", oid("ROOT"), ReportLevel::WithValues);
    person
        .with_store(|s| samples::person_db(s).map(|_| ()))
        .unwrap();
    person.with_store(|s| {
        s.drain_log();
    });
    let (rels, _) = rel_source("rels", ReportLevel::WithValues, 91);

    let mut wh = Warehouse::new();
    wh.connect(&person);
    wh.connect(&rels);
    wh.add_view(
        "people",
        SimpleViewDef::new("YP", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
        ViewOptions::default(),
    )
    .unwrap();
    wh.add_view(
        "rels",
        SimpleViewDef::new("SEL", "REL", "r0.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64)),
        ViewOptions::default(),
    )
    .unwrap();

    // Interleaved updates at both sources.
    person.apply(Update::modify("A1", 80i64)).unwrap();
    rels.apply(Update::modify("t0.age", 55i64)).unwrap();
    person.apply(Update::modify("A1", 30i64)).unwrap();
    for r in person.monitor().poll() {
        wh.handle_report(&r).unwrap();
    }
    for r in rels.monitor().poll() {
        wh.handle_report(&r).unwrap();
    }
    assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
    assert!(wh.view(oid("SEL")).unwrap().contains_base(oid("t0")));
    // Reports to an unknown source are ignored, not fatal.
    let stray = gsview::warehouse::UpdateReport {
        source: "nobody".into(),
        seq: 0,
        update: gsview::gsdb::AppliedUpdate::Create { oid: oid("zzz") },
        info: vec![],
        paths: vec![],
    };
    assert!(wh.handle_report(&stray).unwrap().is_empty());
}

#[test]
fn channel_integrator_feeds_warehouse_across_threads() {
    let (src, mut db) = rel_source("crels", ReportLevel::WithValues, 92);
    let script = relations_churn(
        &mut db,
        ChurnSpec {
            ops: 150,
            modify_weight: 2,
            field_modify_weight: 0,
            insert_weight: 1,
            delete_weight: 1,
            target_bias: 0.7,
            age_range: 60,
            seed: 93,
        },
    );
    let def = SimpleViewDef::new("CSEL", "REL", "r0.tuple")
        .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
    let mut wh = Warehouse::new();
    wh.connect(&src);
    wh.add_view("crels", def.clone(), ViewOptions::default())
        .unwrap();

    // Apply the whole script at the source, then pump reports through
    // the threaded integrator until all are delivered.
    for op in &script {
        src.with_store(|s| op.replay(s)).unwrap();
    }
    let (rx, handles) = spawn_channel_integrator(vec![src.monitor()], 5);
    let mut reports: Vec<_> = rx.iter().collect();
    for h in handles {
        h.join().unwrap();
    }
    // Per-source order is already guaranteed; feed in sequence order.
    reports.sort_by_key(|r| r.seq);
    let n_updates = script
        .iter()
        .filter(|op| matches!(op, gsview::workload::ScriptOp::Apply(_)))
        .count();
    assert!(reports.len() >= n_updates, "all updates must be reported");
    for r in &reports {
        wh.handle_report(r).unwrap();
    }
    // Batch delivery processes stale reports against a source that has
    // already moved on — the §5.1 anomaly (citing ZGMHW95). The view
    // may therefore drift; a warehouse-side resync reconciles it.
    assert!(wh.resync_view(oid("CSEL")).unwrap().healed);
    let expected = src.with_store(|s| {
        recompute::recompute_members(&def, &mut LocalBase::new(s))
    });
    assert_eq!(wh.view(oid("CSEL")).unwrap().members_base(), expected);
}

#[test]
fn technique_stack_reduces_queries_monotonically() {
    // L1 bare > L2 bare > L2+screening > L2+screening+cache, on the
    // same stream.
    let mut results = Vec::new();
    for (level, screening, cache) in [
        (ReportLevel::OidsOnly, false, false),
        (ReportLevel::WithValues, false, false),
        (ReportLevel::WithValues, true, false),
        (ReportLevel::WithValues, true, true),
    ] {
        let (src, mut db) = rel_source("srels", level, 94);
        let script = relations_churn(
            &mut db,
            ChurnSpec {
                ops: 120,
                modify_weight: 3,
                field_modify_weight: 0,
                insert_weight: 1,
                delete_weight: 1,
                target_bias: 0.5,
                age_range: 60,
                seed: 95,
            },
        );
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view(
            "srels",
            SimpleViewDef::new("SSEL", "REL", "r0.tuple")
                .with_cond("age", Pred::new(CmpOp::Gt, 30i64)),
            ViewOptions {
                use_aux_cache: cache,
                label_screening: screening,
                ..ViewOptions::default()
            },
        )
        .unwrap();
        wh.meter("srels").unwrap().reset();
        for op in &script {
            src.with_store(|s| op.replay(s)).unwrap();
            for r in src.monitor().poll() {
                wh.handle_report(&r).unwrap();
            }
        }
        results.push(wh.meter("srels").unwrap().queries());
    }
    assert!(
        results.windows(2).all(|w| w[0] >= w[1]),
        "each technique must not increase queries: {results:?}"
    );
    assert!(
        results[0] > results[3],
        "the full stack must actually help: {results:?}"
    );
}

#[test]
fn warehouse_stats_account_for_every_report() {
    let (src, mut db) = rel_source("trels", ReportLevel::WithValues, 96);
    let script = relations_churn(
        &mut db,
        ChurnSpec {
            ops: 60,
            modify_weight: 1,
            field_modify_weight: 0,
            insert_weight: 1,
            delete_weight: 1,
            target_bias: 0.3,
            age_range: 60,
            seed: 97,
        },
    );
    let mut wh = Warehouse::new();
    wh.connect(&src);
    wh.add_view(
        "trels",
        SimpleViewDef::new("TSEL", "REL", "r0.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64)),
        ViewOptions {
            label_screening: true,
            ..ViewOptions::default()
        },
    )
    .unwrap();
    let mut delivered = 0u64;
    for op in &script {
        src.with_store(|s| op.replay(s)).unwrap();
        for r in src.monitor().poll() {
            delivered += 1;
            wh.handle_report(&r).unwrap();
        }
    }
    let stats = wh.view_stats(oid("TSEL")).unwrap();
    assert_eq!(stats.reports, delivered);
    assert!(stats.screened_out > 0, "creates and field mods screen out");
    assert!(stats.relevant > 0);
    assert!(stats.relevant + stats.screened_out <= stats.reports);
    assert!(stats.inserted > 0 || stats.deleted > 0);
}

// ----------------------------------------------------------------------
// Set-up reads shared on one connection
// ----------------------------------------------------------------------

/// `CROOT` with `depts` departments of four professors each, three
/// students a professor, and spread-out ages at both levels.
fn campus(name: &str, depts: usize) -> Source {
    use gsview::gsdb::builder::{atom, set};
    let src = Source::empty(name, oid("CROOT"), ReportLevel::WithValues);
    src.with_store(|s| {
        let mut root = set("CROOT", "db");
        for d in 0..depts {
            let mut dept = set(&format!("CD{d}"), "dept");
            for p in (0..4).map(|p| d * 4 + p) {
                let mut prof = set(&format!("CP{p}"), "professor")
                    .child(atom(&format!("CPA{p}"), "age", 30 + (p * 7 % 40) as i64))
                    .child(atom(&format!("CPN{p}"), "name", format!("prof {p}").as_str()));
                for k in (0..3).map(|k| p * 3 + k) {
                    prof = prof.child(
                        set(&format!("CS{k}"), "student")
                            .child(atom(&format!("CSA{k}"), "age", 17 + (k * 5 % 15) as i64)),
                    );
                }
                dept = dept.child(prof);
            }
            root = root.child(dept);
        }
        root.build(s).map(|_| ())
    })
    .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    src
}

/// The four views `wire_maintain` keeps: two over
/// `dept.professor.age`, two over `dept.professor.student.age`, the
/// second of each pair screened and cached.
fn campus_views() -> Vec<(SimpleViewDef, ViewOptions)> {
    let cached = ViewOptions {
        use_aux_cache: true,
        label_screening: true,
        ..ViewOptions::default()
    };
    vec![
        (
            SimpleViewDef::new("CW1", "CROOT", "dept.professor")
                .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
            ViewOptions::default(),
        ),
        (
            SimpleViewDef::new("CW2", "CROOT", "dept.professor.student")
                .with_cond("age", Pred::new(CmpOp::Gt, 25i64)),
            ViewOptions::default(),
        ),
        (
            SimpleViewDef::new("CW3", "CROOT", "dept.professor")
                .with_cond("age", Pred::new(CmpOp::Gt, 60i64)),
            cached.clone(),
        ),
        (
            SimpleViewDef::new("CW4", "CROOT", "dept.professor.student")
                .with_cond("age", Pred::new(CmpOp::Le, 20i64)),
            cached,
        ),
    ]
}

/// Members of a view with their delegates' labels and values.
fn contents(wh: &Warehouse, view: Oid) -> Vec<(Oid, gsview::gsdb::Label, gsview::gsdb::Value)> {
    let mv = wh.view(view).unwrap();
    mv.members_base()
        .into_iter()
        .map(|b| {
            let d = mv.delegate(mv.delegate_of(b).unwrap()).unwrap();
            (b, d.label, d.value.clone())
        })
        .collect()
}

/// Members and delegate values agree with a recomputation over the
/// source's current state.
fn assert_recomputes(src: &Source, wh: &Warehouse, def: &SimpleViewDef) {
    let mv = wh.view(def.view).unwrap();
    let problems = src.with_store(|s| consistency::check(def, &mut LocalBase::new(s), mv));
    assert!(problems.is_empty(), "{}: {problems:?}", def.view);
}

#[test]
fn views_sharing_regions_read_each_region_once() {
    let src = campus("campus_shared", 3);
    let mut wh = Warehouse::new();
    wh.connect(&src);
    let views = campus_views();
    for (def, options) in &views {
        wh.add_view("campus_shared", def.clone(), options.clone()).unwrap();
    }
    // Fetch(CROOT), Reach(dept), Reach(dept.professor) once; then
    // .age, .student and .student.age: six queries, not 4 + 5 + 4 + 5.
    assert_eq!(wh.meter("campus_shared").unwrap().queries(), 6);
    for (def, options) in &views {
        assert_recomputes(&src, &wh, def);
        let mut alone = Warehouse::new();
        alone.connect(&src);
        alone.add_view("campus_shared", def.clone(), options.clone()).unwrap();
        assert_eq!(contents(&wh, def.view), contents(&alone, def.view), "{}", def.view);
        assert!(!wh.view(def.view).unwrap().is_empty(), "{} is a real test", def.view);
    }

    // The cached views' regions are copies of one read each; they keep
    // apart under maintenance.
    for u in [
        Update::modify("CPA0", 70i64),
        Update::modify("CSA0", 30i64),
        Update::delete("CD1", "CP5"),
        Update::modify("CPA1", 44i64),
    ] {
        src.apply(u).unwrap();
    }
    wh.handle_batch(&src.monitor().poll()).unwrap();
    assert!(wh.stale_views().is_empty());
    for (def, _) in &views {
        assert_recomputes(&src, &wh, def);
    }
}

#[test]
fn a_view_set_up_from_an_older_read_catches_up_on_the_next_batch() {
    let views = campus_views();
    let (young, old) = (&views[0], &views[2]);
    for options in [ViewOptions::default(), old.1.clone()] {
        let src = campus("campus_older", 2);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("campus_older", young.0.clone(), young.1.clone()).unwrap();
        let asked = wh.meter("campus_older").unwrap().queries();
        // CP0 (30) turns 70 between the two set-ups; no report is
        // handled, so the second view starts from the first one's read.
        src.apply(Update::modify("CPA0", 70i64)).unwrap();
        wh.add_view("campus_older", old.0.clone(), options).unwrap();
        assert_eq!(wh.meter("campus_older").unwrap().queries(), asked, "one region, one read");
        assert!(!wh.view(old.0.view).unwrap().contains_base(oid("CP0")), "as of the read");

        wh.handle_batch(&src.monitor().poll()).unwrap();
        assert!(wh.view(old.0.view).unwrap().contains_base(oid("CP0")));
        assert_recomputes(&src, &wh, &young.0);
        assert_recomputes(&src, &wh, &old.0);
    }
}

#[test]
fn a_moved_tracker_forgets_the_set_up_reads() {
    use gsview::durable::{DurableStore, MediaSet};
    let views = campus_views();
    let (first, second) = (&views[0], &views[2]);
    let read = second.0.full_path().len() as u64 + 1;
    for between in ["nothing", "batch", "warm", "reconcile"] {
        let src = campus("campus_moved", 2);
        let d = Arc::new(DurableStore::open(MediaSet::memory()).unwrap());
        src.attach_durable(Arc::clone(&d)).unwrap();
        src.apply(Update::modify("CPN0", "renamed")).unwrap();
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.attach_durable(d);
        wh.add_view("campus_moved", first.0.clone(), first.1.clone()).unwrap();
        match between {
            "batch" => {
                wh.handle_batch(&src.monitor().poll()).unwrap();
            }
            "warm" => {
                let warm = views[1].clone();
                let added = wh.add_view_warm("campus_moved", warm.0, warm.1).unwrap();
                assert!(added.is_some(), "a persisted epoch exists");
            }
            "reconcile" => {
                wh.reconcile("campus_moved", src.next_seq());
            }
            _ => {}
        }
        let before = wh.meter("campus_moved").unwrap().queries();
        wh.add_view("campus_moved", second.0.clone(), second.1.clone()).unwrap();
        let asked = wh.meter("campus_moved").unwrap().queries() - before;
        let want = if between == "nothing" { 0 } else { read };
        assert_eq!(asked, want, "{between} between the set-ups");
        wh.handle_batch(&src.monitor().poll()).unwrap();
        assert_recomputes(&src, &wh, &second.0);
    }
}

/// A port that counts the questions put to it.
struct Counted<P> {
    inner: P,
    asked: AtomicU64,
}

impl<P: QueryPort> QueryPort for Counted<P> {
    fn query(&self, q: &SourceQuery) -> Result<SourceReply, QueryFault> {
        self.asked.fetch_add(1, Ordering::Relaxed);
        self.inner.query(q)
    }
}

#[test]
fn a_set_up_read_that_lost_a_query_is_not_shared() {
    let views = campus_views();
    let (first, second) = (&views[0], &views[2]);
    let read = second.0.full_path().len() as u64 + 1;
    let mut lost = 0;
    for seed in 0..32 {
        let src = campus("campus_lossy", 2);
        let meter = Arc::new(CostMeter::new());
        let policy = ChaosPolicy {
            seed,
            query_fail_prob: 0.2,
            ..ChaosPolicy::default()
        };
        let port = Arc::new(Counted {
            inner: FaultyWrapper::new(src.wrapper(meter.clone()), policy),
            asked: AtomicU64::new(0),
        });
        let mut wh = Warehouse::new().with_retry_policy(RetryPolicy::none());
        wh.connect_port("campus_lossy", port.clone(), meter, src.next_seq());
        wh.add_view("campus_lossy", first.0.clone(), first.1.clone()).unwrap();
        let first_state = wh.view_state(first.0.view).unwrap();
        let before = port.asked.load(Ordering::Relaxed);
        let dead_before = wh.dead_letters().len();
        wh.add_view("campus_lossy", second.0.clone(), second.1.clone()).unwrap();
        let asked = port.asked.load(Ordering::Relaxed) - before;
        if first_state == ViewState::Stale(StaleCause::QueryFailure) {
            lost += 1;
            assert!(wh.view(first.0.view).unwrap().is_empty(), "seed {seed}");
            assert_eq!(asked, read, "seed {seed}: the lost read is asked again in full");
        } else {
            assert_eq!(first_state, ViewState::Consistent);
            assert_eq!(asked, 0, "seed {seed}: a whole read is shared");
        }
        match wh.view_state(second.0.view).unwrap() {
            ViewState::Consistent => assert_recomputes(&src, &wh, &second.0),
            stale => {
                assert_eq!(stale, ViewState::Stale(StaleCause::QueryFailure), "seed {seed}");
                assert!(wh.dead_letters().len() > dead_before, "seed {seed}");
            }
        }
    }
    assert!(lost > 0, "no seed lost a set-up query");
}
