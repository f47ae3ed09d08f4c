//! End-to-end warehouse scenarios (paper §5): multiple autonomous
//! sources, concurrent monitor pumping through the channel integrator,
//! view correctness under sustained churn, and the cost hierarchy of
//! the query-reduction techniques.

use gsview::gsdb::{samples, Oid, StoreConfig, Update};
use gsview::query::{CmpOp, Pred};
use gsview::views::{recompute, LocalBase, SimpleViewDef};
use gsview::warehouse::{
    spawn_channel_integrator, ReportLevel, Source, ViewOptions, Warehouse,
};
use gsview::workload::{relations, relations_churn, ChurnSpec, RelationsSpec};

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
        StoreConfig {
            label_index: true,
            log_updates: true,
            ..StoreConfig::default()
        },
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
