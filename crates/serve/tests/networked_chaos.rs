//! The networked chaos suite: the warehouse maintains views over a
//! **real socket** to the serving tier while seeded socket-level
//! faults (partial writes, stalled peers, mid-frame disconnects) tear
//! at the wire. The server must survive everything; lost report
//! batches must surface as sequence gaps; and after the network
//! heals, resync must land the views exactly on the colocated truth.
//!
//! `GSVIEW_SEED` selects the fault schedule (CI runs a seed matrix);
//! every assertion here must hold for *all* seeds.

use gsdb::{samples, Oid, Update};
use gsview_core::{recompute::recompute, LocalBase, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_serve::{FrameClient, ServeConfig, Server, SocketChaosPolicy, SourceService};
use gsview_warehouse::protocol::{CostMeter, ReportLevel};
use gsview_warehouse::source::ReportSource;
use gsview_warehouse::{RetryPolicy, Source, ViewOptions, Warehouse};
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

fn yp_def() -> SimpleViewDef {
    SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64))
}

/// The full stack over a real socket under a seeded fault schedule:
/// materialize → chaos + sustained writes → heal → reconcile →
/// resync → differential check against colocated recomputation.
#[test]
fn warehouse_over_socket_heals_from_seeded_chaos() {
    let seed = gsview_obs::fault::seed();
    let src = person_source();
    let svc = Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new())));
    let server = Server::spawn(svc, ServeConfig::default()).unwrap();

    // Short timeouts: a chaos stall costs one client read timeout.
    let client = Arc::new(
        FrameClient::connect_with_timeout(server.addr(), Duration::from_millis(250)).unwrap(),
    );

    let mut wh = Warehouse::new().with_retry_policy(RetryPolicy::network());
    let meter = Arc::new(CostMeter::new());
    wh.connect_port("persons", client.clone(), meter, src.next_seq());
    wh.add_view("persons", yp_def(), ViewOptions::default())
        .unwrap();
    assert_eq!(
        wh.view(oid("YP")).unwrap().members_base(),
        vec![oid("P1")],
        "clean-network materialization over the socket"
    );

    // Chaos on: every RPC rolls against the seeded schedule.
    client.set_chaos(Some(SocketChaosPolicy::uniform(seed, 0.12)));

    // Sustained writes at the source, remote polls between them. Lost
    // poll replies are genuine report loss; delivered reports with a
    // sequence jump trip gap detection immediately.
    for i in 0..30 {
        let age = if i % 2 == 0 { 30 + i } else { 50 + i };
        src.apply(Update::modify("A1", age)).unwrap();
        for report in client.poll_reports() {
            let _ = wh.handle_report(&report);
        }
    }

    // Heal the network, then reconcile tail loss via the control-plane
    // checkpoint and resync whatever went stale.
    client.set_chaos(None);
    for report in client.poll_reports() {
        let _ = wh.handle_report(&report);
    }
    let (name, next_seq) = client.checkpoint();
    assert_eq!(name, "persons");
    assert_eq!(
        next_seq, 30,
        "server-side monitor assigned one seq per update"
    );
    wh.reconcile(&name, next_seq);
    let healed = wh.resync_stale().unwrap();
    for (view, outcome) in &healed {
        assert!(outcome.healed, "resync over the healed wire fixes {view}");
    }
    assert!(wh.stale_views().is_empty());

    // Differential: the remote-maintained view equals recomputation
    // against the source's own (colocated) snapshot.
    let snapshot = src.snapshot();
    let mut base = LocalBase::new(&snapshot);
    let reference = recompute(&yp_def(), &mut base).unwrap();
    assert_eq!(
        wh.view(oid("YP")).unwrap().members_base(),
        reference.members_base(),
        "seed {seed}: remote view diverged from colocated truth"
    );

    // The server survived the whole schedule.
    assert!(client.ping().is_ok());
    server.shutdown();
}

/// Set-up under chaos: two views over one region, added over a socket
/// that faults from its first frame. The second view shares the first
/// one's read when that read came back whole and reads again when it
/// did not; either way both heal to the colocated truth once the
/// network does.
#[test]
fn views_set_up_over_a_faulty_socket_share_a_region_and_heal() {
    let seed = gsview_obs::fault::seed();
    let src = person_source();
    let served = Arc::new(CostMeter::new());
    let svc = Arc::new(SourceService::new(src.clone(), served.clone()));
    let server = Server::spawn(svc, ServeConfig::default()).unwrap();
    let client = Arc::new(
        FrameClient::connect_with_timeout(server.addr(), Duration::from_millis(250)).unwrap(),
    );
    client.set_chaos(Some(SocketChaosPolicy::uniform(seed, 0.12)));

    let mut wh = Warehouse::new().with_retry_policy(RetryPolicy::network());
    wh.connect_port(
        "persons",
        client.clone(),
        Arc::new(CostMeter::new()),
        src.next_seq(),
    );
    let old =
        SimpleViewDef::new("OP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Gt, 60i64));
    let cached = ViewOptions {
        use_aux_cache: true,
        ..ViewOptions::default()
    };
    wh.add_view("persons", yp_def(), ViewOptions::default())
        .unwrap();
    let first_whole = !wh.view_state(oid("YP")).unwrap().is_stale();
    let asked = served.queries();
    wh.add_view("persons", old.clone(), cached).unwrap();
    if first_whole {
        assert_eq!(
            served.queries(),
            asked,
            "seed {seed}: the second view shares the read"
        );
    }

    for i in 0..6 {
        src.apply(Update::modify("A1", if i % 2 == 0 { 70 } else { 40 }))
            .unwrap();
        let _ = wh.handle_batch(&client.poll_reports());
    }
    src.apply(Update::modify("A1", 75i64)).unwrap();

    client.set_chaos(None);
    let _ = wh.handle_batch(&client.poll_reports());
    let (name, next_seq) = client.checkpoint();
    wh.reconcile(&name, next_seq);
    for (view, outcome) in wh.resync_stale().unwrap() {
        assert!(
            outcome.healed,
            "seed {seed}: resync over the healed wire fixes {view}"
        );
    }
    assert!(wh.stale_views().is_empty());

    let snapshot = src.snapshot();
    for def in [yp_def(), old] {
        let reference = recompute(&def, &mut LocalBase::new(&snapshot)).unwrap();
        assert_eq!(
            wh.view(def.view).unwrap().members_base(),
            reference.members_base(),
            "seed {seed}: {} diverged from colocated truth",
            def.view
        );
    }
    assert_eq!(wh.view(oid("OP")).unwrap().members_base(), vec![oid("P1")]);
    server.shutdown();
}

/// Deterministic socket-level faults against a live server: garbage
/// bytes, a mid-frame disconnect, and a stalled peer. Each must be
/// absorbed (with the right obs counter) without affecting a healthy
/// concurrent client.
#[test]
fn server_absorbs_raw_socket_faults() {
    use gsview_serve::frame::{encode_frame, MAGIC};
    use gsview_serve::{Request, RequestBody};
    use std::io::Write;
    use std::net::TcpStream;

    let src = person_source();
    let svc = Arc::new(SourceService::new(src, Arc::new(CostMeter::new())));
    let server = Server::spawn(
        svc,
        ServeConfig {
            read_timeout_ms: 100,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let healthy = FrameClient::connect(server.addr()).unwrap();
    let reg = gsview_obs::registry();
    let decode_errors_before = reg.snapshot().counter("serve.conn.decode_errors");
    let stalled_before = reg.snapshot().counter("serve.conn.stalled_read");

    // 1. Garbage prefix: the decoder poisons the stream, the server
    //    counts and closes.
    let mut garbage = TcpStream::connect(server.addr()).unwrap();
    assert_ne!(0x00, MAGIC);
    garbage.write_all(&[0x00; 32]).unwrap();
    // 2. Mid-frame disconnect: a valid frame cut short, then FIN.
    let frame = encode_frame(
        &Request {
            id: 1,
            trace: 0,
            span: 0,
            body: RequestBody::Ping,
        }
        .encode(),
    );
    let mut torn = TcpStream::connect(server.addr()).unwrap();
    torn.write_all(&frame[..frame.len() - 3]).unwrap();
    drop(torn);
    // 3. Stalled peer: a partial frame, socket held open past the
    //    server's read timeout — the sweep must reap it.
    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(&frame[..4]).unwrap();

    // The healthy client keeps getting correct answers throughout.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        assert!(
            healthy.ping().is_ok(),
            "healthy client starved by faulty peers"
        );
        let snap = reg.snapshot();
        if snap.counter("serve.conn.decode_errors") > decode_errors_before
            && snap.counter("serve.conn.stalled_read") > stalled_before
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fault counters never advanced: decode_errors={} stalled_read={}",
            snap.counter("serve.conn.decode_errors"),
            snap.counter("serve.conn.stalled_read")
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(stalled);
    server.shutdown();
}
