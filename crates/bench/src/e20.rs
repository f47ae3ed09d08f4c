//! E20 — telemetry export overhead: what live streaming costs the
//! serving tier, and what a slow consumer can (and cannot) do to it.
//!
//! PR 9's E19 measured the bare read path; this experiment reruns the
//! same query mix under sustained write load with the export pipeline
//! attached, three ways:
//!
//! * **`read/no-export`** — the E19 configuration: no collector, no
//!   hub. The baseline p50/p99.
//! * **`read/export`** — the span exporter installed, the reactor
//!   pumping telemetry, and a live subscriber draining batches on a
//!   separate thread. The acceptance bar is ≤ 5% added read p99 (plus
//!   a small absolute noise floor in quick/debug runs, where p99 is
//!   so low that 5% is beneath scheduler jitter).
//! * **`read/slow-sub`** — a subscriber that *never reads*, with a
//!   deliberately tiny export queue. The pipeline must shed —
//!   `obs.export.dropped` counts queue displacement and per-
//!   subscriber skips — while read p99 stays inside the same SLO:
//!   a slow consumer costs telemetry, never serving.
//!
//! A fourth route reruns the warehouse's networked `resync_view` with
//! the exporter attached and counts server-side `serve.request` spans
//! by trace: every one must carry the client's trace id (context
//! propagated through the frame header), parenting the whole heal
//! under one causally-connected trace.
//!
//! Latency quantiles come from the obs log₂ histogram's interpolated
//! estimators — the same math `gsview-top` renders — not bench-side
//! sorting.

use crate::e19::{build_source, query_mix};
use crate::table::{fnum, Table};
use gsdb::{Oid, Update};
use gsview_core::SimpleViewDef;
use gsview_obs::metrics::Histogram;
use gsview_obs::telemetry::TailSampler;
use gsview_query::{CmpOp, Pred};
use gsview_serve::{FrameClient, ServeConfig, Server, SourceService, TelemetryHub, TelemetryTail};
use gsview_warehouse::protocol::{CostMeter, ReportLevel};
use gsview_warehouse::source::{QueryPort, ReportSource};
use gsview_warehouse::{RetryPolicy, Source, ViewOptions, Warehouse};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items in the served store (quick mode) — matches E19.
const QUICK_ITEMS: usize = 300;
/// Timed requests per route (quick mode) — matches E19.
pub const QUICK_READS: usize = 400;
/// Export queue capacity for the healthy subscriber route.
const QUEUE_CAP: usize = 4096;
/// Export queue capacity for the slow-subscriber route: small enough
/// that one reactor tick's worth of request spans must displace.
const TINY_QUEUE_CAP: usize = 16;

/// How telemetry is attached for one measured route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ExportMode {
    /// E19 configuration: no exporter, no hub, no subscriber.
    None,
    /// Exporter installed, one live subscriber draining batches.
    Active,
    /// Exporter installed, one subscriber that never reads, tiny queue.
    SlowSubscriber,
}

/// One measured export route.
#[derive(Clone, Debug)]
pub struct ExportRow {
    /// `read/no-export`, `read/export` or `read/slow-sub`.
    pub route: String,
    /// Round trips attempted.
    pub requests: usize,
    /// Round trips answered (must equal `requests`: export never
    /// breaks serving).
    pub ok: usize,
    /// Median read latency (interpolated histogram estimate), µs.
    pub p50_us: u64,
    /// 99th-percentile read latency, µs.
    pub p99_us: u64,
    /// `obs.export.dropped` delta over the route.
    pub export_dropped: u64,
    /// Telemetry batches the subscriber received.
    pub batches: u64,
}

/// Run one route: reads under sustained write load, with telemetry
/// attached per `mode`.
fn run_route(items: usize, reads: usize, mode: ExportMode) -> ExportRow {
    let src = build_source(items);
    let svc = Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new())));
    let reg = gsview_obs::registry();
    let dropped_before = reg.snapshot().counter("obs.export.dropped");

    let hub = match mode {
        ExportMode::None => None,
        ExportMode::Active => Some(Arc::new(TelemetryHub::new(
            "e20",
            QUEUE_CAP,
            TailSampler::keep_all(),
        ))),
        ExportMode::SlowSubscriber => Some(Arc::new(TelemetryHub::new(
            "e20",
            TINY_QUEUE_CAP,
            TailSampler::keep_all(),
        ))),
    };
    let _guard = hub.as_ref().map(|h| gsview_obs::install(h.exporter()));
    let server = match &hub {
        Some(h) => Server::spawn_with_telemetry(svc, ServeConfig::default(), h.clone()).unwrap(),
        None => Server::spawn(svc, ServeConfig::default()).unwrap(),
    };

    // The subscriber, per mode: a live tail drains on its own thread;
    // the slow one subscribes and then never reads again.
    let stop = Arc::new(AtomicBool::new(false));
    let mut tail_thread = None;
    let mut parked_tail = None;
    match mode {
        ExportMode::None => {}
        ExportMode::Active => {
            let mut tail =
                TelemetryTail::connect_with_timeout(server.addr(), Duration::from_millis(250))
                    .unwrap();
            let stop = stop.clone();
            tail_thread = Some(std::thread::spawn(move || {
                let mut batches = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // Read-timeout errors between batches are idle time.
                    if tail.next_batch().is_ok() {
                        batches += 1;
                    }
                }
                batches
            }));
        }
        ExportMode::SlowSubscriber => {
            parked_tail = Some(
                TelemetryTail::connect_with_timeout(server.addr(), Duration::from_secs(5)).unwrap(),
            );
        }
    }

    // Sustained write load for the whole measured window (as in E19).
    let write_stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let src = src.clone();
        let stop = Arc::clone(&write_stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let name = format!("ag{}", (i as usize * 31) % items);
                src.apply(Update::modify(name.as_str(), (i % 100) as i64))
                    .unwrap();
                i += 1;
                std::thread::yield_now();
            }
            i
        })
    };

    let client =
        FrameClient::connect_with_timeout(server.addr(), Duration::from_millis(250)).unwrap();
    let lat = Histogram::new("e20.read.lat_us");
    for i in 0..reads {
        let q = query_mix(items, i);
        let t0 = Instant::now();
        let _ = client
            .query(&q)
            .expect("export pipeline broke a clean-network read");
        lat.record(t0.elapsed().as_micros() as u64);
    }
    if mode == ExportMode::SlowSubscriber {
        // A burst past the measured window guarantees queue
        // displacement: far more spans per reactor tick than the tiny
        // queue holds, regardless of how fast the timed loop ran.
        for _ in 0..512 {
            client.ping().expect("ping during drop burst");
        }
        // Give the pump a couple of ticks to harvest (and drop).
        std::thread::sleep(Duration::from_millis(100));
    }
    write_stop.store(true, Ordering::Release);
    let commits = writer.join().unwrap();
    assert!(commits > 0, "the writer never got a commit in");
    stop.store(true, Ordering::Release);
    let batches = tail_thread.map(|t| t.join().unwrap()).unwrap_or(0);
    drop(parked_tail);

    let snap = lat.read();
    let export_dropped = reg.snapshot().counter("obs.export.dropped") - dropped_before;
    server.shutdown();
    ExportRow {
        route: match mode {
            ExportMode::None => "read/no-export".into(),
            ExportMode::Active => "read/export".into(),
            ExportMode::SlowSubscriber => "read/slow-sub".into(),
        },
        requests: reads,
        ok: snap.count as usize,
        p50_us: snap.p50(),
        p99_us: snap.p99(),
        export_dropped,
        batches,
    }
}

/// The connected-trace fact: a networked `resync_view` with the
/// exporter attached. Returns `(connected, foreign)` — server-side
/// `serve.request` spans carrying the resync's trace id vs any other.
pub fn trace_connectivity() -> (usize, usize) {
    let src = Source::empty("persons", Oid::new("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| gsdb::samples::person_db(s).map(|_| ()))
        .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    let svc = Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new())));
    let hub = Arc::new(TelemetryHub::new(
        "e20-trace",
        QUEUE_CAP,
        TailSampler::keep_all(),
    ));
    // No subscriber: the reactor leaves the queue alone, so the spans
    // are still there for us to harvest directly after the resync.
    let server = Server::spawn_with_telemetry(svc, ServeConfig::default(), hub.clone()).unwrap();
    let client = Arc::new(FrameClient::connect(server.addr()).unwrap());

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
    drop(client.poll_reports()); // eaten by the "network"
    let (name, next_seq) = client.checkpoint();
    wh.reconcile(&name, next_seq);

    let guard = gsview_obs::install(hub.exporter());
    let healed = wh.resync_stale().unwrap();
    drop(guard);
    assert!(healed.iter().all(|(_, o)| o.healed), "resync failed");

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut spans = Vec::new();
    loop {
        spans.extend(hub.collect().spans);
        if spans.iter().any(|s| s.name == "warehouse.resync_view")
            && spans.iter().any(|s| s.name == "serve.request")
            || Instant::now() > deadline
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let resync_trace = spans
        .iter()
        .find(|s| s.name == "warehouse.resync_view")
        .expect("resync span exported")
        .trace;
    let (mut connected, mut foreign) = (0, 0);
    for s in spans.iter().filter(|s| s.name == "serve.request") {
        if s.trace == resync_trace {
            connected += 1;
        } else {
            foreign += 1;
        }
    }
    server.shutdown();
    (connected, foreign)
}

/// Quick-mode facts for the smoke gate:
/// `(baseline, active, slow, connected, foreign)`.
pub fn quick_facts() -> (ExportRow, ExportRow, ExportRow, usize, usize) {
    let base = run_route(QUICK_ITEMS, QUICK_READS, ExportMode::None);
    let active = run_route(QUICK_ITEMS, QUICK_READS, ExportMode::Active);
    let slow = run_route(QUICK_ITEMS, QUICK_READS, ExportMode::SlowSubscriber);
    let (connected, foreign) = trace_connectivity();
    (base, active, slow, connected, foreign)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let (items, reads) = if quick {
        (QUICK_ITEMS, QUICK_READS)
    } else {
        (1_000, 4_000)
    };
    let mut t = Table::new(
        "E20",
        "telemetry export overhead on the serving tier's read path",
        "an active subscriber costs ≤5% read p99 over the E19 no-export baseline; \
         a subscriber that never reads forces counted drops (obs.export.dropped) \
         with zero serving-SLO regression; a networked resync is one connected trace",
    )
    .headers(&[
        "route",
        "requests",
        "ok",
        "p50 us",
        "p99 us",
        "overhead %",
        "dropped",
        "batches",
    ]);
    let base = run_route(items, reads, ExportMode::None);
    let base_p99 = base.p99_us.max(1);
    for row in [
        base.clone(),
        run_route(items, reads, ExportMode::Active),
        run_route(items, reads, ExportMode::SlowSubscriber),
    ] {
        let overhead = (row.p99_us as f64 - base_p99 as f64) / base_p99 as f64 * 100.0;
        t.row(vec![
            row.route.clone(),
            row.requests.to_string(),
            row.ok.to_string(),
            fnum(row.p50_us as f64),
            fnum(row.p99_us as f64),
            if row.route == "read/no-export" {
                "—".into()
            } else {
                format!("{overhead:+.1}")
            },
            row.export_dropped.to_string(),
            row.batches.to_string(),
        ]);
    }
    let (connected, foreign) = trace_connectivity();
    t.row(vec![
        "trace/resync".into(),
        connected.to_string(),
        connected.to_string(),
        "—".into(),
        "—".into(),
        "—".into(),
        foreign.to_string(),
        "—".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_subscriber_never_breaks_a_read_and_gets_batches() {
        let row = run_route(60, 120, ExportMode::Active);
        assert_eq!(row.ok, 120);
        assert!(row.batches > 0, "subscriber starved");
        assert!(row.p99_us >= row.p50_us);
    }

    #[test]
    fn slow_subscriber_forces_counted_drops_without_breaking_reads() {
        let row = run_route(60, 120, ExportMode::SlowSubscriber);
        assert_eq!(row.ok, 120, "a slow consumer cost us a read");
        assert!(
            row.export_dropped > 0,
            "tiny queue + unread subscriber must shed spans"
        );
    }

    #[test]
    fn networked_resync_is_one_trace() {
        let (connected, foreign) = trace_connectivity();
        assert!(connected > 0, "no serve.request spans joined the trace");
        assert_eq!(foreign, 0, "{foreign} wire requests escaped the trace");
    }
}
