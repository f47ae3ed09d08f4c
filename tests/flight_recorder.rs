//! Flight-recorder end-to-end: a forced recovery failure must leave a
//! usable crash dump.
//!
//! The scenario drives the real chaos pipeline (source commits,
//! warehouse report handling, Algorithm 1 maintenance) with the
//! flight recorder installed, then forces the recovery invariant to
//! fail by giving the warehouse a zero resync budget under report
//! loss. `assert_recovers` routes the failure through
//! `gsview_obs::failure`, which dumps the ring: the dump must contain
//! the whole causal chain — report handling span, the maintenance
//! span parented inside it, and the source store mutations — plus a
//! schema-valid JSON-lines file at `OBS_DUMP_PATH`.

use gsview::gsdb::{Atom, Object, Oid, Store, StoreConfig, Update};
use gsview::obs;
use gsview::views::SimpleViewDef;
use gsview::warehouse::ReportLevel;
use gsview_testkit::chaos::{assert_recovers, ChaosPolicy, ChaosScenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn mini_store() -> Store {
    let mut store = Store::with_config(StoreConfig::default());
    store.create(Object::empty_set("croot", "root")).unwrap();
    store.create(Object::empty_set("cn0", "a")).unwrap();
    store.create(Object::atom("cn1", "b", 60i64)).unwrap();
    store
        .insert_edge(Oid::new("croot"), Oid::new("cn0"))
        .unwrap();
    store.insert_edge(Oid::new("cn0"), Oid::new("cn1")).unwrap();
    store
}

fn update_stream() -> Vec<Update> {
    let mut ops = Vec::new();
    for i in 0..8 {
        let oid = Oid::new(&format!("fr{i}"));
        ops.push(Update::Create {
            object: Object::atom(oid.name(), "b", 10 + i as i64),
        });
        ops.push(Update::Insert {
            parent: Oid::new("cn0"),
            child: oid,
        });
    }
    ops.push(Update::Modify {
        oid: Oid::new("cn1"),
        new: Atom::Int(99),
    });
    ops
}

#[test]
fn forced_failure_dumps_span_chain_and_valid_json() {
    let dump_path = std::env::temp_dir().join(format!(
        "gsview_flight_recorder_{}.jsonl",
        std::process::id()
    ));
    std::env::set_var("OBS_DUMP_PATH", &dump_path);
    let recorder = Arc::new(obs::FlightRecorder::with_capacity(8192));
    let _guard = obs::install(recorder.clone());
    // Seed one histogram so the dump's quantile table has a row even
    // in this counter-only scenario.
    for v in [120u64, 340, 2700] {
        obs::registry().histogram("test.failure.lat_us").record(v);
    }

    // Report loss with a zero resync budget: gaps are detected, the
    // view goes permanently stale, and assert_recovers must fail.
    let sc = ChaosScenario {
        level: ReportLevel::WithPaths,
        policy: ChaosPolicy {
            drop_prob: 0.45,
            ..ChaosPolicy::seeded(3)
        },
        poll_every: 1,
        max_resync_rounds: 0,
        ..ChaosScenario::default()
    };
    let def = SimpleViewDef::new("CV", "croot", "a.b");
    let store = mini_store();
    let updates = update_stream();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = assert_recovers(&def, &store, &updates, &sc);
    }));
    assert!(
        result.is_err(),
        "zero resync budget under report loss must fail recovery"
    );

    // The ring was drained into last_dump by on_failure.
    let dump = recorder.last_dump();
    assert!(!dump.is_empty(), "failure must dump the ring");

    // Causal chain: a maintenance span parented inside a report
    // handling span, plus source store mutations and the failure
    // record itself.
    let report_span = dump
        .iter()
        .find(|r| {
            r.event.name == "warehouse.handle_report" && r.event.kind == obs::EventKind::SpanStart
        })
        .expect("dump must contain a report handling span");
    assert!(
        dump.iter().any(|r| {
            r.event.kind == obs::EventKind::SpanStart
                && r.event.name.starts_with("maint.")
                && dump.iter().any(|p| {
                    p.event.kind == obs::EventKind::SpanStart
                        && p.event.name == "warehouse.handle_report"
                        && p.event.span == r.event.parent
                })
        }),
        "dump must contain a maintenance span parented in a report span; got {:?}",
        dump.iter().map(|r| r.event.name).collect::<Vec<_>>()
    );
    assert!(
        dump.iter().any(|r| r.event.name == "store.apply"),
        "dump must contain store mutations"
    );
    assert!(
        dump.iter().any(|r| r.event.name == "failure"),
        "dump must contain the failure record"
    );
    // Chaos injections were traced too (drop_prob 0.45 over 17 ops).
    assert!(
        dump.iter().any(|r| r.event.name == "chaos.inject"),
        "dump must contain chaos injections"
    );
    let _ = report_span;

    // The JSON-lines dump on disk is non-empty and schema-valid, and
    // now carries the metrics snapshot alongside the event ring — a
    // failure dump without counters was telemetry-blind.
    let text = std::fs::read_to_string(&dump_path).expect("OBS_DUMP_PATH must be written");
    let lines = obs::export::validate_json_lines(&text).expect("dump must be schema-valid");
    assert!(lines > 0, "dump file must be non-empty");
    assert!(
        lines >= dump.len(),
        "file dump must contain at least every ring event"
    );
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"counter\"")),
        "dump must include counter metric lines"
    );
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"histogram\"")),
        "dump must include histogram metric lines with quantile estimates"
    );
    std::fs::remove_file(&dump_path).ok();
}
