//! E19 — serving-tier read latency: p50/p99 of framed TCP queries
//! under sustained write load, clean and under seeded socket chaos,
//! with admission control enforced.
//!
//! The serving tier puts the §5 source↔warehouse protocol behind a
//! real network boundary (`gsview-serve`: epoll reactor, CRC-framed
//! codec, per-connection in-flight windows). This experiment measures
//! what a remote reader actually pays:
//!
//! * **`read/clean`** — a client issues a fixed query mix while a
//!   writer thread commits updates at the source as fast as it can;
//!   every round trip is timed client-side into an obs log₂
//!   [`Histogram`] and the p50/p99 are its interpolated estimates —
//!   the same estimator `gsview-top` renders live.
//! * **`read/chaos`** — the same mix with a seeded
//!   [`SocketChaosPolicy`] tearing at the client's socket (partial
//!   writes, stalls, disconnects). Faulted round trips count as
//!   errors and redial on the next call; the latency quantiles cover
//!   the *successful* requests — chaos must not corrupt answers, only
//!   delay or drop them.
//! * **`admission`** — with `max_conns` held open, further arrivals
//!   must be shed with a `Busy` frame, every refusal counted in
//!   `serve.admission.shed`. The count is exactly deterministic.
//!
//! After each read run the writer quiesces and every query in the mix
//! is re-checked through the `gsview-core` networked-equivalence
//! oracle: remote answers must equal colocated evaluation of the same
//! epoch snapshot. The smoke test (`tests/e19_smoke.rs`) pins the
//! deterministic facts (request counts, zero equivalence failures,
//! shed count) and gates p99 against a deliberately generous SLO —
//! everything here shares one core with the reactor and the writer,
//! so absolute latencies are an upper bound on a real deployment.

use crate::table::{fnum, Table};
use gsdb::{Object, Oid, Path, Update};
use gsview_core::check_networked_equivalence;
use gsview_obs::metrics::Histogram;
use gsview_serve::{Admission, FrameClient, ServeConfig, Server, SocketChaosPolicy, SourceService};
use gsview_warehouse::protocol::{CostMeter, ReportLevel, SourceQuery};
use gsview_warehouse::source::QueryPort;
use gsview_warehouse::Source;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items in the served store (quick mode).
pub const QUICK_ITEMS: usize = 300;
/// Timed requests per read route (quick mode).
pub const QUICK_READS: usize = 400;
/// Chaos fault probability per socket operation.
const CHAOS_P: f64 = 0.05;

/// One measured serving route.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// `read/clean`, `read/chaos` or `admission`.
    pub route: String,
    /// Round trips attempted.
    pub requests: usize,
    /// Round trips that returned an answer.
    pub ok: usize,
    /// Faulted round trips (chaos route only).
    pub errors: usize,
    /// Median latency over successful requests, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Connections shed at admission (admission route only).
    pub shed: u64,
    /// Networked-equivalence divergences after quiescing (must be 0).
    pub equivalence_failures: usize,
}

/// An item store: `items` sets under ROOT, each with one age atom.
/// Shared with E20, which measures the same read path with the
/// telemetry exporter attached.
pub(crate) fn build_source(items: usize) -> Source {
    let src = Source::empty("e19", Oid::new("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| -> gsdb::Result<()> {
        s.create(Object::empty_set("ROOT", "db"))?;
        for i in 0..items {
            let it = format!("it{i}");
            let ag = format!("ag{i}");
            s.create(Object::empty_set(it.as_str(), "item"))?;
            s.insert_edge(Oid::new("ROOT"), Oid::new(&it))?;
            s.create(Object::atom(ag.as_str(), "age", (i % 100) as i64))?;
            s.insert_edge(Oid::new(&it), Oid::new(&ag))?;
        }
        Ok(())
    })
    .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    src
}

/// The read mix: rotate object fetches, label lookups, a path walk
/// and a reachability probe across the item population.
pub(crate) fn query_mix(items: usize, i: usize) -> SourceQuery {
    let it = Oid::new(&format!("it{}", i % items));
    let ag = Oid::new(&format!("ag{}", i % items));
    match i % 5 {
        0 => SourceQuery::Fetch(it),
        1 => SourceQuery::Fetch(ag),
        2 => SourceQuery::LabelOf(it),
        3 => SourceQuery::PathFromRoot {
            root: Oid::new("ROOT"),
            n: ag,
        },
        _ => SourceQuery::Ancestor {
            n: ag,
            p: Path::parse("item.age"),
        },
    }
}

/// Run one read route: spawn the server, hammer it with `reads` timed
/// round trips while a writer thread commits at the source, then
/// quiesce and run the equivalence oracle over the whole mix.
fn run_reads(items: usize, reads: usize, chaos_seed: Option<u64>) -> ServeRow {
    let src = build_source(items);
    let svc = Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new())));
    let server = Server::spawn(svc, ServeConfig::default()).unwrap();
    let client =
        FrameClient::connect_with_timeout(server.addr(), Duration::from_millis(250)).unwrap();
    if let Some(seed) = chaos_seed {
        client.set_chaos(Some(SocketChaosPolicy::uniform(seed, CHAOS_P)));
    }

    // Sustained write load: one writer thread committing single-object
    // updates as fast as the source accepts them, for the whole
    // measured window.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let src = src.clone();
        let stop = Arc::clone(&stop);
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

    let lat = Histogram::new("e19.read.lat_us");
    let mut errors = 0usize;
    for i in 0..reads {
        let q = query_mix(items, i);
        let t0 = Instant::now();
        match client.query(&q) {
            Ok(_) => lat.record(t0.elapsed().as_micros() as u64),
            Err(_) => errors += 1, // redials lazily on the next call
        }
    }
    stop.store(true, Ordering::Release);
    let commits = writer.join().unwrap();
    assert!(commits > 0, "the writer never got a commit in");

    // Heal, quiesce, and check semantics: every query in the mix must
    // answer identically over the wire and against the local snapshot.
    client.set_chaos(None);
    let snapshot = src.snapshot();
    let queries: Vec<SourceQuery> = (0..items.min(100)).map(|i| query_mix(items, i)).collect();
    let failures = check_networked_equivalence(
        &queries,
        |q| client.query(q).expect("healed network"),
        |q| gsview_warehouse::answer(&snapshot, q),
    );

    let snap = lat.read();
    let ok = snap.count as usize;
    let (p50_us, p99_us) = (snap.p50(), snap.p99());
    server.shutdown();
    ServeRow {
        route: if chaos_seed.is_some() {
            "read/chaos".into()
        } else {
            "read/clean".into()
        },
        requests: reads,
        ok,
        errors,
        p50_us,
        p99_us,
        shed: 0,
        equivalence_failures: failures.len(),
    }
}

/// Deterministic admission fact: with both slots held, six further
/// arrivals are all shed and all counted.
fn run_admission(items: usize) -> ServeRow {
    let src = build_source(items);
    let svc = Arc::new(SourceService::new(src, Arc::new(CostMeter::new())));
    let server = Server::spawn(
        svc,
        ServeConfig {
            max_conns: 2,
            admission: Admission::Shed,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let reg = gsview_obs::registry();
    let before = reg.snapshot().counter("serve.admission.shed");
    let held: Vec<FrameClient> = (0..2)
        .map(|_| FrameClient::connect(server.addr()).unwrap())
        .collect();
    let mut refused = 0usize;
    for _ in 0..6 {
        if FrameClient::connect_with_timeout(server.addr(), Duration::from_millis(500)).is_err() {
            refused += 1;
        }
    }
    let shed = reg.snapshot().counter("serve.admission.shed") - before;
    drop(held);
    server.shutdown();
    ServeRow {
        route: "admission".into(),
        requests: 6,
        ok: 0,
        errors: refused,
        p50_us: 0,
        p99_us: 0,
        shed,
        equivalence_failures: 0,
    }
}

/// Quick-mode facts for the smoke gate: clean-route
/// `(requests, ok, equivalence_failures, p99_us)` and the
/// deterministic admission shed count. Every component except
/// `p99_us` is exact; the smoke test pins those against the baseline
/// and gates `p99_us` under a generous single-core SLO.
pub fn quick_facts() -> (usize, usize, usize, u64, u64) {
    let clean = run_reads(QUICK_ITEMS, QUICK_READS, None);
    assert_eq!(clean.errors, 0, "clean network dropped a round trip");
    let admission = run_admission(64);
    (
        clean.requests,
        clean.ok,
        clean.equivalence_failures,
        clean.p99_us,
        admission.shed,
    )
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let (items, reads) = if quick {
        (QUICK_ITEMS, QUICK_READS)
    } else {
        (1_000, 4_000)
    };
    let mut t = Table::new(
        "E19",
        "serving-tier read latency under sustained write load, clean vs socket chaos",
        "remote answers stay equivalent to colocated evaluation on every route; \
         admission sheds exactly the arrivals past the connection limit \
         (single core: reactor, writer and client share it, so latencies are upper bounds)",
    )
    .headers(&[
        "route",
        "requests",
        "ok",
        "errors",
        "p50 us",
        "p99 us",
        "shed",
        "equiv failures",
    ]);
    for row in [
        run_reads(items, reads, None),
        run_reads(items, reads, Some(1)),
        run_admission(64),
    ] {
        t.row(vec![
            row.route.clone(),
            row.requests.to_string(),
            row.ok.to_string(),
            row.errors.to_string(),
            fnum(row.p50_us as f64),
            fnum(row.p99_us as f64),
            row.shed.to_string(),
            row.equivalence_failures.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_reads_all_succeed_and_stay_equivalent() {
        let row = run_reads(80, 120, None);
        assert_eq!(row.ok, 120);
        assert_eq!(row.errors, 0);
        assert_eq!(row.equivalence_failures, 0);
        assert!(row.p99_us >= row.p50_us);
    }

    #[test]
    fn chaos_reads_may_fault_but_never_diverge() {
        let row = run_reads(80, 120, Some(7));
        assert_eq!(row.ok + row.errors, 120);
        assert_eq!(
            row.equivalence_failures, 0,
            "chaos corrupted an answer instead of dropping it"
        );
    }

    #[test]
    fn admission_shed_count_is_exact() {
        let row = run_admission(16);
        assert_eq!(row.shed, 6);
        assert_eq!(row.errors, 6);
    }
}
