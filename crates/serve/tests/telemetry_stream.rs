//! Live telemetry export, end to end over a real socket:
//!
//! 1. **Subscribe while serving** — a [`TelemetryTail`] attached to a
//!    server under sustained (and chaos-battered) request load gets
//!    gap-counted batches with strictly monotone sequence numbers and
//!    monotone drop counts, while the request/reply plane keeps
//!    answering correctly. `GSVIEW_SEED` picks the fault schedule.
//! 2. **One connected trace** — a networked `resync_view` run under
//!    the exporter produces server-side `serve.request` spans that
//!    carry the *client's* trace id and parent under the client-side
//!    resync span: trace context propagated across the wire.

use gsdb::{samples, Oid, Update};
use gsview_core::SimpleViewDef;
use gsview_obs::telemetry::TailSampler;
use gsview_query::{CmpOp, Pred};
use gsview_serve::{
    FrameClient, ServeConfig, Server, SocketChaosPolicy, SourceService, TelemetryHub, TelemetryTail,
};
use gsview_warehouse::protocol::{CostMeter, ReportLevel};
use gsview_warehouse::source::ReportSource;
use gsview_warehouse::{RetryPolicy, Source, ViewOptions, Warehouse};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

fn person_source() -> Source {
    let src = Source::empty("persons", oid("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| samples::person_db(s).map(|_| ()))
        .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    src
}

/// A tail subscribed to a busy, chaos-battered server sees strictly
/// monotone batch sequences and monotone drop counts — and the
/// serving plane never stops answering correctly underneath it.
#[test]
fn subscriber_gets_monotone_batches_while_serving_survives_chaos() {
    let seed = gsview_obs::fault::seed();
    let src = person_source();
    let svc = Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new())));
    let hub = Arc::new(TelemetryHub::new(
        "telemetry-e2e",
        256,
        TailSampler::keep_all(),
    ));
    let _g = gsview_obs::install(hub.exporter());
    let server = Server::spawn_with_telemetry(svc, ServeConfig::default(), hub).unwrap();

    let client = Arc::new(
        FrameClient::connect_with_timeout(server.addr(), Duration::from_millis(250)).unwrap(),
    );
    let mut tail =
        TelemetryTail::connect_with_timeout(server.addr(), Duration::from_secs(5)).unwrap();

    // Request load on a separate thread, with the seeded chaos policy
    // tearing at its socket. Every completed RPC must be *correct*;
    // failures are allowed (that's the chaos), lies are not.
    client.set_chaos(Some(SocketChaosPolicy::uniform(seed, 0.10)));
    let load_client = client.clone();
    let load_src = src.clone();
    let load = std::thread::spawn(move || {
        let mut ok = 0u64;
        for i in 0..60 {
            load_src.apply(Update::modify("A1", 30 + i)).unwrap();
            // A chaos casualty is fine (the next dial heals it); a
            // completed RPC must be correct.
            if let Ok(e) = load_client.epoch() {
                assert!(e > 0, "served epoch must be post-publish");
                ok += 1;
            }
        }
        ok
    });

    // Meanwhile: consume batches. Sequences must be strictly
    // monotone +1 (per-subscriber, gap-free by construction — gaps
    // surface in `dropped`, not in `seq`), drops monotone.
    let mut seqs = Vec::new();
    let mut last_dropped = 0u64;
    let mut saw_serve_counter = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    while seqs.len() < 5 && Instant::now() < deadline {
        let batch = tail.next_batch().expect("live batch under load");
        seqs.push(batch.seq);
        assert!(
            batch.dropped >= last_dropped,
            "drop counts must be monotone: {} then {}",
            last_dropped,
            batch.dropped
        );
        last_dropped = batch.dropped;
        assert_eq!(batch.resource.service, "telemetry-e2e");
        saw_serve_counter |= batch.counters.iter().any(|c| c.name.starts_with("serve."));
    }
    let ok = load.join().unwrap();
    assert!(
        ok > 0,
        "seed {seed}: every single RPC failed under 10% chaos"
    );
    assert!(seqs.len() >= 5, "subscriber starved: only {seqs:?}");
    for w in seqs.windows(2) {
        assert_eq!(w[1], w[0] + 1, "batch sequence must step by one: {seqs:?}");
    }
    assert!(
        saw_serve_counter,
        "no serve.* counter delta in any batch despite request load"
    );

    // The serving plane is still healthy after the stream + chaos.
    client.set_chaos(None);
    assert!(client.ping().is_ok());
    assert_eq!(client.epoch().unwrap(), src.epoch());
    server.shutdown();
}

/// A networked resync renders as ONE trace: the client-side
/// `warehouse.resync_view` span mints the trace id, the `FrameClient`
/// stamps it into each request frame, and the server's per-request
/// spans adopt it — so every `serve.request` span harvested during
/// the resync carries the client's trace and parents under its span.
#[test]
fn networked_resync_is_one_connected_trace() {
    let src = person_source();
    let svc = Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new())));
    let hub = Arc::new(TelemetryHub::new(
        "trace-e2e",
        1024,
        TailSampler::keep_all(),
    ));
    let exporter = hub.exporter();
    let server = Server::spawn_with_telemetry(svc, ServeConfig::default(), hub.clone()).unwrap();
    let client = Arc::new(FrameClient::connect(server.addr()).unwrap());

    // Materialize a view over the wire, then starve it: updates land
    // at the source but their reports are never delivered, so the
    // checkpoint reconcile marks the view stale.
    let def =
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64));
    let mut wh = Warehouse::new().with_retry_policy(RetryPolicy::network());
    wh.connect_port(
        "persons",
        client.clone(),
        Arc::new(CostMeter::new()),
        src.next_seq(),
    );
    wh.add_view("persons", def, ViewOptions::default()).unwrap();
    src.apply(Update::modify("A1", 99i64)).unwrap();
    src.apply(Update::modify("A1", 40i64)).unwrap();
    // Drain the monitor over the wire but drop the reports on the
    // floor: the network "ate" them. The checkpoint then reveals the
    // tail gap.
    drop(client.poll_reports());
    let (name, next_seq) = client.checkpoint();
    wh.reconcile(&name, next_seq);
    assert!(!wh.stale_views().is_empty(), "starved view must go stale");

    // Only now install the exporter: the harvest below contains
    // exactly the spans of the resync, client side and server side
    // (one process, one collector — the point of the assertion).
    let _g = gsview_obs::install(exporter);
    let healed = wh.resync_stale().unwrap();
    drop(_g);
    assert!(healed.iter().all(|(_, o)| o.healed));

    // Server-side spans are completed by the reactor thread; give its
    // queue a beat, then harvest straight from the hub.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut spans = Vec::new();
    loop {
        spans.extend(hub.collect().spans);
        let have_resync = spans.iter().any(|s| s.name == "warehouse.resync_view");
        let have_served = spans.iter().any(|s| s.name == "serve.request");
        if (have_resync && have_served) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let resync = spans
        .iter()
        .find(|s| s.name == "warehouse.resync_view")
        .expect("client-side resync span exported");
    assert_eq!(
        resync.trace, resync.span,
        "a root span mints the trace id from its own span id"
    );
    let served: Vec<_> = spans.iter().filter(|s| s.name == "serve.request").collect();
    assert!(!served.is_empty(), "server-side request spans exported");
    for s in &served {
        assert_eq!(
            s.trace, resync.trace,
            "server span {} broke out of the client's trace",
            s.span
        );
    }
    assert!(
        served.iter().any(|s| s.parent == resync.span),
        "at least one wire request parents directly under the resync span"
    );
    assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
    server.shutdown();
}
