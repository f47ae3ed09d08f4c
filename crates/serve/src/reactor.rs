//! The single-threaded epoll reactor.
//!
//! One thread, one [`Epoll`] instance, nonblocking sockets: the
//! classic readiness loop. Every accepted connection gets a
//! [`FrameDecoder`] and a write buffer; requests are decoded, handed
//! to the [`ServeHandler`], and the replies queued back on the same
//! connection. The §5 read path this serves is epoch-snapshot based,
//! so a request never blocks on store locks — handler latency is
//! bounded, which is what makes a single reactor thread viable at
//! thousands of connections.
//!
//! ## Backpressure and admission
//!
//! Three mechanisms keep a slow or hostile peer from taking the
//! server down:
//!
//! * **Per-connection windows** — at most
//!   [`ServeConfig::max_in_flight`] replies may be queued since the
//!   write buffer last drained, and the buffer itself is capped at
//!   [`ServeConfig::max_write_buf`] bytes. Past either limit the
//!   connection's `EPOLLIN` registration is suspended: the peer can
//!   keep sending, but its bytes pile up in *its* socket buffer, not
//!   our memory. Reads resume when the write buffer drains.
//! * **Admission control** — beyond [`ServeConfig::max_conns`] active
//!   connections, new arrivals are **shed**: a `Busy` frame, then
//!   close, counted in `serve.admission.shed`. The client sees
//!   [`QueryFault::Overloaded`](gsview_warehouse::protocol::QueryFault)
//!   and backs off at its retry ceiling.
//! * **Stall sweeps** — a peer that stops mid-frame
//!   ([`ServeConfig::read_timeout_ms`]) or stops draining its replies
//!   ([`ServeConfig::write_timeout_ms`]) is reaped, with
//!   `serve.conn.stalled_read` / `serve.conn.stalled_write` counters.
//!
//! Any framing or protocol decode error poisons the connection
//! (`serve.conn.decode_errors`): framing has no resync marker, so the
//! only safe response is to drop the stream and let the client's
//! retry machinery reconnect.

use crate::frame::{encode_frame, FrameDecoder, READ_CHUNK};
use crate::msg::{Reply, ReplyBody, Request, RequestBody};
use crate::service::ServeHandler;
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::telemetry::TelemetryHub;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reactor tuning knobs. `Default` is sized for tests and the E19
/// bench; production would tune per deployment.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Active-connection limit enforced by admission control: a
    /// connection arriving past it is shed.
    pub max_conns: usize,
    /// Max replies queued per connection before reads suspend.
    pub max_in_flight: usize,
    /// Max buffered reply bytes per connection before reads suspend.
    pub max_write_buf: usize,
    /// Reap a peer stalled mid-frame after this long.
    pub read_timeout_ms: u64,
    /// Reap a peer not draining its replies after this long.
    pub write_timeout_ms: u64,
    /// Frame payload cap handed to each connection's decoder.
    pub max_frame_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_conns: 1024,
            max_in_flight: 32,
            max_write_buf: 256 << 10,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            max_frame_bytes: crate::frame::DEFAULT_MAX_FRAME,
        }
    }
}

/// Epoll token reserved for the listener (fds can never reach it).
const LISTENER_TOKEN: u64 = u64::MAX;
/// How long one `epoll_wait` may park before re-checking shutdown.
const WAIT_MS: i32 = 25;

/// A running reactor: address to dial, shutdown switch, join handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (always a loopback ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the reactor to stop and wait for it to exit. Idempotent
    /// via [`Drop`] — but calling it explicitly surfaces panics.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.join().expect("reactor thread panicked");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One accepted connection's reactor-side state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Queued reply bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// Replies queued since the write buffer last drained.
    in_flight: usize,
    /// Interest mask currently registered with epoll.
    registered: u32,
    /// Last byte received (stalled-read sweep baseline).
    last_read: Instant,
    /// Last write progress (stalled-write sweep baseline).
    last_write: Instant,
    /// `Some` once the peer sent [`RequestBody::Subscribe`]: the
    /// reactor pushes telemetry batches here every pump tick.
    subscriber: Option<Subscriber>,
    /// Per-connection span: ties every request event on this
    /// connection into one causal trace.
    _span: gsview_obs::SpanGuard,
}

/// Per-subscriber stream state: its own sequence numbers, its own
/// miss accounting — one slow subscriber never affects another.
#[derive(Debug, Default)]
struct Subscriber {
    /// Batches shipped to this subscriber so far (next batch is
    /// `seq + 1`; consumers detect gaps against `dropped`).
    seq: u64,
    /// Spans this subscriber missed because its socket was backed up
    /// when a batch was ready (batches are skipped, not queued).
    skipped: u64,
}

impl Conn {
    fn wants(&self, cfg: &ServeConfig) -> u32 {
        let mut mask = EPOLLRDHUP;
        let backpressured =
            self.in_flight >= cfg.max_in_flight || self.write_buf.len() >= cfg.max_write_buf;
        if !backpressured {
            mask |= EPOLLIN;
        }
        if self.written < self.write_buf.len() {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// Why the reactor dropped a connection (for counters/events).
enum CloseReason {
    Eof,
    IoError,
    DecodeError,
    StalledRead,
    StalledWrite,
}

impl CloseReason {
    fn counter(&self) -> Option<&'static str> {
        match self {
            CloseReason::Eof | CloseReason::IoError => None,
            CloseReason::DecodeError => Some("serve.conn.decode_errors"),
            CloseReason::StalledRead => Some("serve.conn.stalled_read"),
            CloseReason::StalledWrite => Some("serve.conn.stalled_write"),
        }
    }
}

/// The serving tier's front door: bind a loopback listener and run
/// the reactor on a dedicated thread until the handle shuts it down.
pub struct Server;

impl Server {
    /// Bind `127.0.0.1:0` and start serving `handler` under `cfg`.
    pub fn spawn(handler: Arc<dyn ServeHandler>, cfg: ServeConfig) -> io::Result<ServerHandle> {
        Server::spawn_inner(handler, cfg, None)
    }

    /// [`Server::spawn`] with live telemetry export: subscribers
    /// (`Request::Subscribe`) receive batches harvested from `hub`
    /// once per reactor tick. Install `hub.exporter()` as the obs
    /// collector to feed it spans.
    pub fn spawn_with_telemetry(
        handler: Arc<dyn ServeHandler>,
        cfg: ServeConfig,
        hub: Arc<TelemetryHub>,
    ) -> io::Result<ServerHandle> {
        Server::spawn_inner(handler, cfg, Some(hub))
    }

    fn spawn_inner(
        handler: Arc<dyn ServeHandler>,
        cfg: ServeConfig,
        hub: Option<Arc<TelemetryHub>>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let join = std::thread::Builder::new()
            .name("gsview-serve".into())
            .spawn(move || {
                if let Err(e) = reactor_loop(listener, handler, cfg, hub, stop) {
                    gsview_obs::event!("serve.reactor.error", "error" = e.to_string());
                }
            })?;
        Ok(ServerHandle {
            addr,
            shutdown,
            join: Some(join),
        })
    }
}

fn reactor_loop(
    listener: TcpListener,
    handler: Arc<dyn ServeHandler>,
    cfg: ServeConfig,
    hub: Option<Arc<TelemetryHub>>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
    let mut read_buf = vec![0u8; READ_CHUNK];
    let busy_frame = encode_frame(
        &Reply {
            id: 0,
            body: ReplyBody::Busy,
        }
        .encode(),
    );
    let reg = gsview_obs::registry();
    let read_timeout = Duration::from_millis(cfg.read_timeout_ms);
    let write_timeout = Duration::from_millis(cfg.write_timeout_ms);
    // The pump is time-gated, not wake-gated: under request load the
    // loop spins far faster than WAIT_MS, and harvesting on every
    // wake would charge the hot path one queue sweep per request.
    let pump_interval = Duration::from_millis(WAIT_MS as u64);
    let mut last_pump = Instant::now();

    while !shutdown.load(Ordering::Acquire) {
        let n = epoll.wait(&mut events, WAIT_MS)?;
        for ev in events.iter().copied().take(n) {
            let (token, ready) = ({ ev.data }, { ev.events });
            if token == LISTENER_TOKEN {
                accept_burst(&listener, &epoll, &mut conns, &cfg, &busy_frame);
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue; // closed earlier in this batch
            };
            let mut close = None;
            if ready & (EPOLLERR | EPOLLHUP) != 0 {
                close = Some(CloseReason::IoError);
            }
            if close.is_none() && ready & EPOLLOUT != 0 {
                // Draining the write buffer reopens the in-flight
                // window, so frames parked in the decoder while reads
                // were suspended get served now.
                close = flush(conn)
                    .and_then(|()| serve_buffered(conn, &*handler, &cfg, hub.is_some()))
                    .err();
            }
            if close.is_none() && ready & (EPOLLIN | EPOLLRDHUP) != 0 {
                close = pump_reads(conn, &mut read_buf, &*handler, &cfg, hub.is_some()).err();
            }
            match close {
                Some(reason) => close_conn(&epoll, &mut conns, token, reason),
                None => update_interest(&epoll, conn, token, &cfg),
            }
        }

        // Stall sweeps: reap peers that owe us bytes or refuse ours.
        let now = Instant::now();
        let stalled: Vec<(u64, CloseReason)> = conns
            .iter()
            .filter_map(|(&token, c)| {
                if c.decoder.awaiting_bytes() && now.duration_since(c.last_read) > read_timeout {
                    Some((token, CloseReason::StalledRead))
                } else if c.written < c.write_buf.len()
                    && now.duration_since(c.last_write) > write_timeout
                {
                    Some((token, CloseReason::StalledWrite))
                } else {
                    None
                }
            })
            .collect();
        for (token, reason) in stalled {
            close_conn(&epoll, &mut conns, token, reason);
        }
        // Telemetry pump: harvest once per tick, fan out per
        // subscriber. Runs after request work so batches reflect this
        // tick's traffic.
        if let Some(hub) = &hub {
            if now.duration_since(last_pump) >= pump_interval {
                last_pump = now;
                pump_telemetry(hub, &epoll, &mut conns, &cfg);
            }
        }

        // Counters are monotonic; expose the active-connection level
        // as a histogram of per-tick observations instead.
        reg.histogram("serve.conns.active")
            .record(conns.len() as u64);
    }
    Ok(())
}

/// Harvest the hub once and append a batch to every subscriber whose
/// socket can take it. A backed-up subscriber *skips* the batch (the
/// miss is counted, never queued), so pump cost per tick stays
/// bounded by subscriber count — a slow consumer can't grow server
/// memory or stall the loop.
fn pump_telemetry(
    hub: &TelemetryHub,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    cfg: &ServeConfig,
) {
    if !conns.values().any(|c| c.subscriber.is_some()) {
        return;
    }
    let harvest = hub.collect();
    if harvest.is_empty() {
        return;
    }
    let reg = gsview_obs::registry();
    let tokens: Vec<u64> = conns
        .iter()
        .filter(|(_, c)| c.subscriber.is_some())
        .map(|(&t, _)| t)
        .collect();
    let mut broken = Vec::new();
    for token in tokens {
        let Some(conn) = conns.get_mut(&token) else {
            continue;
        };
        let sub = conn.subscriber.as_mut().expect("filtered above");
        if conn.write_buf.len() >= cfg.max_write_buf {
            // Backpressure: skip, count, and tell the subscriber how
            // much it missed in the next batch's `dropped`.
            sub.skipped += harvest.spans.len() as u64;
            reg.counter("obs.export.dropped")
                .add(harvest.spans.len() as u64);
            reg.counter("serve.telemetry.skipped").incr();
            continue;
        }
        sub.seq += 1;
        let batch = hub.batch_for(&harvest, sub.seq, harvest.queue_dropped + sub.skipped);
        let reply = Reply {
            id: 0,
            body: ReplyBody::Telemetry(batch),
        };
        conn.write_buf
            .extend_from_slice(&encode_frame(&reply.encode()));
        reg.counter("serve.telemetry.batches").incr();
        if flush(conn).is_err() {
            broken.push(token);
        } else {
            update_interest(epoll, conn, token, cfg);
        }
    }
    for token in broken {
        close_conn(epoll, conns, token, CloseReason::IoError);
    }
}

fn accept_burst(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    cfg: &ServeConfig,
    busy_frame: &[u8],
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conns.len() >= cfg.max_conns {
                    shed(stream, busy_frame);
                } else {
                    register(epoll, conns, stream, cfg);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return, // transient accept failure; retry on next readiness
        }
    }
}

/// Refuse a connection at admission: best-effort `Busy` frame, close.
fn shed(stream: TcpStream, busy_frame: &[u8]) {
    gsview_obs::registry()
        .counter("serve.admission.shed")
        .incr();
    // The frame is a dozen bytes; it fits the socket buffer of a
    // freshly accepted connection, so a nonblocking write suffices.
    let mut s = stream;
    let _ = s.set_nonblocking(true);
    let _ = s.write(busy_frame);
    // Dropping `s` closes it.
}

fn register(epoll: &Epoll, conns: &mut HashMap<u64, Conn>, stream: TcpStream, cfg: &ServeConfig) {
    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let token = stream.as_raw_fd() as u64;
    let span = gsview_obs::span!("serve.conn", "token" = token);
    let conn = Conn {
        stream,
        decoder: FrameDecoder::new(cfg.max_frame_bytes),
        write_buf: Vec::new(),
        written: 0,
        in_flight: 0,
        registered: EPOLLIN | EPOLLRDHUP,
        last_read: Instant::now(),
        last_write: Instant::now(),
        subscriber: None,
        _span: span,
    };
    if epoll
        .add(conn.stream.as_raw_fd(), conn.registered, token)
        .is_ok()
    {
        gsview_obs::registry().counter("serve.connections").incr();
        conns.insert(token, conn);
    }
}

fn close_conn(epoll: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64, reason: CloseReason) {
    if let Some(conn) = conns.remove(&token) {
        if let Some(counter) = reason.counter() {
            gsview_obs::registry().counter(counter).incr();
            gsview_obs::event!("serve.conn.closed", "token" = token, "counter" = counter);
        }
        let _ = epoll.delete(conn.stream.as_raw_fd());
        // Dropping `conn.stream` closes the fd.
    }
}

fn update_interest(epoll: &Epoll, conn: &mut Conn, token: u64, cfg: &ServeConfig) {
    let wanted = conn.wants(cfg);
    if wanted != conn.registered && epoll.modify(conn.stream.as_raw_fd(), wanted, token).is_ok() {
        conn.registered = wanted;
    }
}

/// Drain the socket into the decoder through `buf`, then answer every
/// complete frame the per-connection window allows.
fn pump_reads(
    conn: &mut Conn,
    buf: &mut [u8],
    handler: &dyn ServeHandler,
    cfg: &ServeConfig,
    telemetry: bool,
) -> Result<(), CloseReason> {
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                // Peer closed its writing half. Serve what's already
                // buffered, then drop: replies to a half-closed peer
                // are deliverable, but we keep it simple — the client
                // treats the close as a fault and retries.
                let _ = process_frames(conn, handler, cfg, telemetry)?;
                return Err(CloseReason::Eof);
            }
            Ok(n) => {
                conn.last_read = Instant::now();
                conn.decoder.extend(&buf[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(CloseReason::IoError),
        }
    }
    serve_buffered(conn, handler, cfg, telemetry)
}

/// Alternate answering and flushing until the decoder runs dry or the
/// socket backs up. The loop matters: if every reply flushes cleanly
/// the in-flight window keeps reopening, and frames parked past the
/// window must be served *now* — no further readiness event will ever
/// fire for them (the peer may have nothing left to send).
fn serve_buffered(
    conn: &mut Conn,
    handler: &dyn ServeHandler,
    cfg: &ServeConfig,
    telemetry: bool,
) -> Result<(), CloseReason> {
    loop {
        let handled = process_frames(conn, handler, cfg, telemetry)?;
        flush(conn)?;
        if handled == 0 || !conn.write_buf.is_empty() {
            // Dry, or backpressured: EPOLLOUT continues the latter.
            return Ok(());
        }
    }
}

/// Answer complete frames up to the in-flight window; returns how
/// many were handled.
fn process_frames(
    conn: &mut Conn,
    handler: &dyn ServeHandler,
    cfg: &ServeConfig,
    telemetry: bool,
) -> Result<usize, CloseReason> {
    let reg = gsview_obs::registry();
    let mut handled = 0;
    // Stop at the window edge: frames beyond it stay buffered in the
    // decoder and reads stay suspended until the write buffer drains.
    while conn.in_flight < cfg.max_in_flight && conn.write_buf.len() < cfg.max_write_buf {
        let payload = match conn.decoder.next_frame() {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(e) => {
                gsview_obs::event!("serve.conn.frame_error", "error" = e.to_string());
                return Err(CloseReason::DecodeError);
            }
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                gsview_obs::event!("serve.conn.request_error", "error" = e.to_string());
                return Err(CloseReason::DecodeError);
            }
        };
        // The request span adopts the trace context stamped into the
        // frame, so a networked resync renders as ONE trace: client
        // root span → this span → handler events.
        let _span = if gsview_obs::enabled() {
            gsview_obs::span_with_parent(
                "serve.request",
                req.context(),
                vec![gsview_obs::Field::new("id", req.id)],
            )
        } else {
            gsview_obs::SpanGuard::disabled()
        };
        let started = Instant::now();
        let body = match req.body {
            // Subscriptions are transport state: flip the flag here
            // and let the per-tick pump do the rest.
            RequestBody::Subscribe if telemetry => {
                conn.subscriber.get_or_insert_with(Subscriber::default);
                ReplyBody::Subscribed
            }
            RequestBody::Subscribe => {
                ReplyBody::Err("telemetry export not enabled on this server".into())
            }
            body => handler.handle(body),
        };
        let reply = Reply { id: req.id, body };
        reg.counter("serve.requests").incr();
        reg.histogram("serve.request.micros")
            .record(started.elapsed().as_micros() as u64);
        conn.write_buf
            .extend_from_slice(&encode_frame(&reply.encode()));
        conn.in_flight += 1;
        handled += 1;
    }
    Ok(handled)
}

/// Push buffered replies into the socket until it stops accepting.
fn flush(conn: &mut Conn) -> Result<(), CloseReason> {
    while conn.written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => return Err(CloseReason::IoError),
            Ok(n) => {
                conn.written += n;
                conn.last_write = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(CloseReason::IoError),
        }
    }
    if conn.written == conn.write_buf.len() && !conn.write_buf.is_empty() {
        conn.write_buf.clear();
        conn.written = 0;
        conn.in_flight = 0;
    }
    Ok(())
}
