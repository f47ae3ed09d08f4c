//! The blocking client: the warehouse's end of the wire.
//!
//! [`FrameClient`] speaks the framed protocol over one `TcpStream`
//! and implements the two port traits the warehouse already consumes
//! — [`QueryPort`] and [`ReportSource`] — so
//! `Warehouse::connect_port` works over a real network boundary with
//! **zero changes** to the retry, dead-letter, gap-detection, or
//! resync machinery. Faults map onto the existing taxonomy:
//!
//! * a `Busy` frame (admission shed) → [`QueryFault::Overloaded`];
//! * a read/write timeout → [`QueryFault::Timeout`];
//! * everything else (EOF, reset, framing desync, id mismatch) →
//!   [`QueryFault::Unavailable`].
//!
//! Any error drops the cached connection: the next call redials. So
//! does a caller that panicked in the middle of an RPC — the poisoned
//! state lock is recovered, not propagated, at the price of the stream
//! whose framing can no longer be trusted.
//! Report polls that fail return an empty batch — indistinguishable
//! from "no updates yet", which is exactly the point: a *lost* batch
//! (served by the source, dropped on the floor by the network) is
//! genuine report loss, and the warehouse's sequence-gap detection +
//! resync is what heals it, same as with the in-process chaos
//! wrapper.
//!
//! An optional [`SocketChaosPolicy`] injects socket-level faults on
//! the client side (see [`crate::chaos`]); its fault stream advances
//! per RPC from the moment the policy is set, so a seeded policy
//! produces the same fault schedule run over run.

use crate::chaos::{chaos_write, SocketChaosPolicy, SocketFault, WriteOutcome};
use crate::frame::{encode_frame, FrameDecoder, DEFAULT_MAX_FRAME};
use crate::msg::{Reply, ReplyBody, Request, RequestBody, ServedStats};
use gsview_obs::fault::Stream;
use gsview_warehouse::protocol::{QueryFault, SourceQuery, SourceReply, UpdateReport};
use gsview_warehouse::source::{QueryPort, ReportSource};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Everything an RPC reads or writes, under the one lock it takes: the
/// cached stream plus its decoder, the chaos policy and the fault
/// stream it decides from, and the checkpoint fallback.
struct ClientState {
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    next_id: u64,
    chaos: Option<(SocketChaosPolicy, Stream)>,
    /// Last successfully fetched checkpoint — the fallback when the
    /// network eats a checkpoint round trip ([`ReportSource`] models
    /// checkpoints as control-plane metadata that always answers).
    checkpoint: (String, u64),
}

/// A blocking protocol client over one (re-dialed as needed) TCP
/// connection. Thread-safe: calls serialize on an internal lock, as
/// the underlying protocol is one-request-at-a-time per connection.
pub struct FrameClient {
    addr: SocketAddr,
    state: Mutex<ClientState>,
    timeout: Duration,
}

impl FrameClient {
    /// Dial the serving tier and fetch an initial control-plane
    /// checkpoint (verifying liveness in the process).
    pub fn connect(addr: SocketAddr) -> io::Result<FrameClient> {
        FrameClient::connect_with_timeout(addr, Duration::from_millis(1_000))
    }

    /// [`FrameClient::connect`] with an explicit per-read/write
    /// timeout (feeds [`QueryFault::Timeout`]).
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<FrameClient> {
        let client = FrameClient {
            addr,
            state: Mutex::new(ClientState {
                stream: None,
                decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
                next_id: 1,
                chaos: None,
                checkpoint: (String::new(), 0),
            }),
            timeout,
        };
        match client.rpc(RequestBody::Checkpoint) {
            Ok(ReplyBody::Checkpoint { .. }) => Ok(client),
            Ok(ReplyBody::Busy) | Err(QueryFault::Overloaded) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "serving tier shed the connection at admission",
            )),
            other => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("checkpoint handshake failed: {other:?}"),
            )),
        }
    }

    /// Inject socket-level chaos on subsequent calls (pass `None` to
    /// heal). The policy decides per RPC, starting at the head of its
    /// fault stream.
    pub fn set_chaos(&self, policy: Option<SocketChaosPolicy>) {
        self.lock().chaos = policy.map(|p| (p, p.stream()));
    }

    /// The client state. A lock poisoned by a caller that panicked
    /// mid-RPC is recovered, not propagated: the counters, the policy
    /// and the checkpoint are whole after every statement that writes
    /// them, and the one thing a panic can leave half-done — a frame
    /// partly sent or partly read — goes with the cached stream.
    fn lock(&self) -> MutexGuard<'_, ClientState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            self.state.clear_poison();
            let mut st = poisoned.into_inner();
            st.stream = None;
            st
        })
    }

    /// The server's current published epoch.
    pub fn epoch(&self) -> Result<u64, QueryFault> {
        match self.rpc(RequestBody::Epoch)? {
            ReplyBody::Epoch(e) => Ok(e),
            _ => Err(QueryFault::Unavailable),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), QueryFault> {
        match self.rpc(RequestBody::Ping)? {
            ReplyBody::Pong => Ok(()),
            _ => Err(QueryFault::Unavailable),
        }
    }

    /// Store statistics at the server's latest published epoch.
    pub fn stats(&self) -> Result<ServedStats, QueryFault> {
        match self.rpc(RequestBody::Stats)? {
            ReplyBody::Stats(s) => Ok(s),
            _ => Err(QueryFault::Unavailable),
        }
    }

    /// One request/reply round trip, re-dialing if the cached
    /// connection is gone. Any failure drops the connection; a
    /// checkpoint reply refreshes the cached fallback on its way out.
    fn rpc(&self, body: RequestBody) -> Result<ReplyBody, QueryFault> {
        let mut st = self.lock();
        if st.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
                .map_err(|_| QueryFault::Unavailable)?;
            stream
                .set_read_timeout(Some(self.timeout))
                .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
                .and_then(|()| stream.set_nodelay(true))
                .map_err(|_| QueryFault::Unavailable)?;
            st.stream = Some(stream);
            st.decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
        }
        let id = st.next_id;
        st.next_id += 1;
        // Request::new stamps the calling thread's trace context into
        // the frame, so the server's request span joins our trace.
        let frame = encode_frame(&Request::new(id, body).encode());

        let fault = st.chaos.as_ref().map_or(SocketFault::None, |(p, faults)| {
            p.decide(faults, frame.len())
        });
        let stream = st.stream.as_mut().expect("dialed above");
        match chaos_write(stream, &frame, fault) {
            Ok(WriteOutcome::Sent) | Ok(WriteOutcome::Stalled) => {
                // Stalled: the rest of the frame will never go out; the
                // read below times out and poisons the connection —
                // the same shape as a peer that wedged mid-send.
            }
            Ok(WriteOutcome::Broken) | Err(_) => {
                st.stream = None;
                return Err(QueryFault::Unavailable);
            }
        }

        match read_reply(&mut st) {
            Ok(reply) => {
                match reply.body {
                    ReplyBody::Busy => {
                        // The server sheds and closes; don't reuse.
                        st.stream = None;
                        Err(QueryFault::Overloaded)
                    }
                    _ if reply.id != id => {
                        // Correlation mismatch: the stream is confused.
                        st.stream = None;
                        Err(QueryFault::Unavailable)
                    }
                    ReplyBody::Err(_) => Err(QueryFault::Unavailable),
                    body => {
                        if let ReplyBody::Checkpoint { source, next_seq } = &body {
                            st.checkpoint = (source.clone(), *next_seq);
                        }
                        Ok(body)
                    }
                }
            }
            Err(fault) => {
                st.stream = None;
                Err(fault)
            }
        }
    }
}

/// Block until one complete reply frame decodes (or the read times
/// out / the stream dies).
fn read_reply(st: &mut ClientState) -> Result<Reply, QueryFault> {
    let stream = st.stream.as_mut().expect("caller checked");
    let mut buf = [0u8; 16 << 10];
    loop {
        match st.decoder.next_frame() {
            Ok(Some(payload)) => {
                return Reply::decode(&payload).map_err(|_| QueryFault::Unavailable);
            }
            Ok(None) => {}
            Err(_) => return Err(QueryFault::Unavailable),
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(QueryFault::Unavailable),
            Ok(n) => st.decoder.extend(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(QueryFault::Timeout)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(QueryFault::Unavailable),
        }
    }
}

impl QueryPort for FrameClient {
    fn query(&self, q: &SourceQuery) -> Result<SourceReply, QueryFault> {
        match self.rpc(RequestBody::Query(q.clone()))? {
            ReplyBody::Query(reply) => Ok(reply),
            _ => Err(QueryFault::Unavailable),
        }
    }
}

impl ReportSource for FrameClient {
    fn poll_reports(&self) -> Vec<UpdateReport> {
        match self.rpc(RequestBody::PollReports) {
            Ok(ReplyBody::Reports(reports)) => reports,
            // A failed poll *is* report loss if the server had already
            // drained its log into the reply: gap detection + resync
            // heal it, exactly like the in-process lossy monitor.
            _ => Vec::new(),
        }
    }

    fn checkpoint(&self) -> (String, u64) {
        match self.rpc(RequestBody::Checkpoint) {
            Ok(ReplyBody::Checkpoint { source, next_seq }) => (source, next_seq),
            _ => self.lock().checkpoint.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{ServeConfig, Server};
    use crate::service::SourceService;
    use gsdb::{samples, Oid};
    use gsview_warehouse::protocol::{CostMeter, ReportLevel};
    use gsview_warehouse::Source;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_state_lock_costs_the_stream_not_the_client() {
        let src = Source::empty("persons", Oid::new("ROOT"), ReportLevel::WithValues);
        src.with_store(|s| samples::person_db(s).map(|_| ())).unwrap();
        let svc = Arc::new(SourceService::new(src, Arc::new(CostMeter::new())));
        let server = Server::spawn(svc, ServeConfig::default()).unwrap();
        let client = FrameClient::connect(server.addr()).unwrap();
        client.ping().unwrap();

        // A caller dies holding the lock, mid-RPC as far as anyone knows.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _st = client.state.lock().unwrap();
                panic!("caller panicked mid-RPC");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(client.state.is_poisoned());

        // The next call drops the stream, redials and answers; the
        // request ids and the checkpoint fallback carried over.
        client.ping().unwrap();
        assert!(!client.state.is_poisoned());
        let st = client.lock();
        assert_eq!(st.next_id, 4, "handshake, ping, ping");
        assert_eq!(st.checkpoint.0, "persons");
        drop(st);
        server.shutdown();
    }
}
