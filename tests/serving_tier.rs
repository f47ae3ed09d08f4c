//! Serving-tier end-to-end (networking tentpole): the §5 protocol
//! over a real TCP boundary, checked three ways —
//!
//! 1. **Networked equivalence** — every query shape answered over the
//!    wire must equal the colocated evaluation of the same epoch
//!    snapshot (writers quiesced), via the `gsview-core` oracle.
//! 2. **Admission control** — past `max_conns` the server sheds with
//!    a `Busy` frame; shed clients see the `Overloaded` fault, and a
//!    freed slot admits the next arrival.
//! 3. **Pipelined backpressure** — a client that fires a burst of
//!    requests without reading still gets every reply, in order, with
//!    the per-connection in-flight window doing the pacing.

use gsview::gsdb::{samples, Oid, Path, Update};
use gsview::serve::{
    encode_frame, FrameClient, FrameDecoder, Reply, Request, RequestBody, ServeConfig, Server,
    SourceService, DEFAULT_MAX_FRAME,
};
use gsview::warehouse::{answer, CostMeter, ReportLevel, Source, SourceQuery};
use gsview_testkit::oracle::assert_networked_equivalence;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

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

fn spawn_server(src: &Source, cfg: ServeConfig) -> gsview::serve::ServerHandle {
    let svc = Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new())));
    Server::spawn(svc, cfg).unwrap()
}

/// Every query shape, remote vs colocated, on a quiesced source:
/// byte-identical protocol semantics across the network boundary.
#[test]
fn remote_answers_equal_colocated_answers() {
    let src = person_source();
    // Mutate a little first so the snapshot is not the pristine sample.
    src.apply(Update::modify("A1", 39i64)).unwrap();
    src.with_store(|s| {
        s.create(gsview::gsdb::Object::atom("A2", "age", 40i64))
            .unwrap();
    });
    src.apply(Update::insert("P2", "A2")).unwrap();

    let server = spawn_server(&src, ServeConfig::default());
    let client = FrameClient::connect(server.addr()).unwrap();

    // Writers quiesced: remote and colocated must observe one epoch.
    let snapshot = src.snapshot();
    let queries = vec![
        SourceQuery::Fetch(oid("P1")),
        SourceQuery::Fetch(oid("NOPE")),
        SourceQuery::PathFromRoot {
            root: oid("ROOT"),
            n: oid("A2"),
        },
        SourceQuery::Ancestor {
            n: oid("A1"),
            p: Path::parse("professor.age"),
        },
        SourceQuery::AncestorsAll {
            n: oid("A2"),
            p: Path::parse("professor.age"),
        },
        SourceQuery::Reach {
            n: oid("ROOT"),
            p: Path::parse("professor.age"),
        },
        SourceQuery::Reach {
            n: oid("P1"),
            p: Path::parse("student"),
        },
        SourceQuery::LabelOf(oid("P2")),
        SourceQuery::LabelOf(oid("NOPE")),
    ];
    assert_networked_equivalence(
        &queries,
        |q| {
            use gsview::warehouse::QueryPort;
            client.query(q).expect("healthy network")
        },
        |q| answer(&snapshot, q),
    );
    assert_eq!(client.epoch().unwrap(), src.epoch());
    server.shutdown();
}

/// With `max_conns` held open, further arrivals get a `Busy` frame
/// and the `Overloaded` fault, counted in obs.
#[test]
fn admission_sheds_beyond_the_connection_limit() {
    let src = person_source();
    let server = spawn_server(
        &src,
        ServeConfig {
            max_conns: 2,
            ..ServeConfig::default()
        },
    );
    let reg = gsview_obs::registry();
    let shed_before = reg.snapshot().counter("serve.admission.shed");

    // Fill both slots (each holds its connection open).
    let held: Vec<FrameClient> = (0..2)
        .map(|_| FrameClient::connect(server.addr()).unwrap())
        .collect();
    for c in &held {
        assert!(c.ping().is_ok());
    }

    // Everyone else is shed at admission.
    let mut shed_count = 0;
    for _ in 0..6 {
        match FrameClient::connect_with_timeout(server.addr(), Duration::from_millis(500)) {
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused);
                shed_count += 1;
            }
            Ok(_) => panic!("connection admitted past max_conns"),
        }
    }
    assert_eq!(shed_count, 6);
    assert_eq!(
        reg.snapshot().counter("serve.admission.shed") - shed_before,
        6,
        "every refusal is counted"
    );

    // Held connections still work; freeing one admits the next (the
    // server needs a beat to observe the closes, so retry briefly).
    assert!(held[0].ping().is_ok());
    drop(held);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let late = loop {
        match FrameClient::connect(server.addr()) {
            Ok(c) => break c,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("freed slot never became admittable: {e}"),
        }
    };
    assert!(late.ping().is_ok());
    server.shutdown();
}

/// A pipelined burst: 100 requests written before any reply is read.
/// The in-flight window (4) paces the server; the client still gets
/// all 100 replies, in order, ids intact.
#[test]
fn pipelined_burst_drains_through_the_in_flight_window() {
    let src = person_source();
    let server = spawn_server(
        &src,
        ServeConfig {
            max_in_flight: 4,
            ..ServeConfig::default()
        },
    );
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    const BURST: u64 = 100;
    let mut bytes = Vec::new();
    for id in 1..=BURST {
        bytes.extend_from_slice(&encode_frame(
            &Request {
                id,
                trace: 0,
                span: 0,
                body: RequestBody::Epoch,
            }
            .encode(),
        ));
    }
    stream.write_all(&bytes).unwrap();

    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let mut buf = [0u8; 4096];
    let mut next_id = 1;
    while next_id <= BURST {
        if let Some(payload) = decoder.next_frame().unwrap() {
            let reply = Reply::decode(&payload).unwrap();
            assert_eq!(reply.id, next_id, "replies must come back in order");
            next_id += 1;
            continue;
        }
        let n = stream.read(&mut buf).unwrap();
        assert_ne!(n, 0, "server hung up mid-burst");
        decoder.extend(&buf[..n]);
    }
    server.shutdown();
}
