//! Wire encoding of the §5 protocol messages.
//!
//! Built on `gsdb::codec`'s varint/string primitives and its
//! object/atom encoders, so OIDs and labels cross the process
//! boundary **by name** — interned symbol ids are process-local and
//! must never touch the wire. Every message is a tag byte followed by
//! its fields; decoding is fully bounds-checked and returns
//! [`CodecError`] on any malformed input (never panics — pinned by
//! the proptest fuzz suite).
//!
//! Requests carry a client-chosen correlation id that the reply
//! echoes; the current client issues one request at a time per
//! connection, but the id makes pipelined clients possible without a
//! framing change.

use gsdb::codec::{
    get_atom, get_object, put_atom, put_object, put_str, put_varint, CodecError, Reader,
};
use gsdb::{AppliedUpdate, Label, Oid, Path};
use gsview_obs::telemetry::{CounterPoint, HistogramPoint, Resource, SpanRecord, TelemetryBatch};
use gsview_warehouse::protocol::{
    ObjectInfo, RootPathInfo, SourceQuery, SourceReply, UpdateReport,
};

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// ----------------------------------------------------------------------
// Shared field helpers
// ----------------------------------------------------------------------

fn put_oid(out: &mut Vec<u8>, o: Oid) {
    put_str(out, o.name());
}

fn get_oid(r: &mut Reader<'_>) -> Result<Oid, CodecError> {
    Ok(Oid::new(r.str()?))
}

fn put_path(out: &mut Vec<u8>, p: &Path) {
    put_varint(out, p.len() as u64);
    for l in p.labels() {
        put_str(out, l.as_str());
    }
}

fn get_path(r: &mut Reader<'_>) -> Result<Path, CodecError> {
    let n = r.varint()? as usize;
    let mut labels = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        labels.push(Label::new(r.str()?));
    }
    Ok(Path(labels))
}

fn put_info(out: &mut Vec<u8>, i: &ObjectInfo) {
    put_object(out, &i.to_object());
}

fn get_info(r: &mut Reader<'_>) -> Result<ObjectInfo, CodecError> {
    Ok(ObjectInfo::of(&get_object(r)?))
}

fn put_infos(out: &mut Vec<u8>, infos: &[ObjectInfo]) {
    put_varint(out, infos.len() as u64);
    for i in infos {
        put_info(out, i);
    }
}

fn get_infos(r: &mut Reader<'_>) -> Result<Vec<ObjectInfo>, CodecError> {
    let n = r.varint()? as usize;
    let mut infos = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        infos.push(get_info(r)?);
    }
    Ok(infos)
}

fn put_oids(out: &mut Vec<u8>, oids: &[Oid]) {
    put_varint(out, oids.len() as u64);
    for &o in oids {
        put_oid(out, o);
    }
}

fn get_oids(r: &mut Reader<'_>) -> Result<Vec<Oid>, CodecError> {
    let n = r.varint()? as usize;
    let mut oids = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        oids.push(get_oid(r)?);
    }
    Ok(oids)
}

// ----------------------------------------------------------------------
// SourceQuery / SourceReply
// ----------------------------------------------------------------------

const Q_FETCH: u8 = 0;
const Q_PATH_FROM_ROOT: u8 = 1;
const Q_ANCESTOR: u8 = 2;
const Q_ANCESTORS_ALL: u8 = 3;
const Q_REACH: u8 = 4;
const Q_LABEL_OF: u8 = 5;

fn put_query(out: &mut Vec<u8>, q: &SourceQuery) {
    match q {
        SourceQuery::Fetch(o) => {
            out.push(Q_FETCH);
            put_oid(out, *o);
        }
        SourceQuery::PathFromRoot { root, n } => {
            out.push(Q_PATH_FROM_ROOT);
            put_oid(out, *root);
            put_oid(out, *n);
        }
        SourceQuery::Ancestor { n, p } => {
            out.push(Q_ANCESTOR);
            put_oid(out, *n);
            put_path(out, p);
        }
        SourceQuery::AncestorsAll { n, p } => {
            out.push(Q_ANCESTORS_ALL);
            put_oid(out, *n);
            put_path(out, p);
        }
        SourceQuery::Reach { n, p } => {
            out.push(Q_REACH);
            put_oid(out, *n);
            put_path(out, p);
        }
        SourceQuery::LabelOf(o) => {
            out.push(Q_LABEL_OF);
            put_oid(out, *o);
        }
    }
}

fn get_query(r: &mut Reader<'_>) -> Result<SourceQuery, CodecError> {
    Ok(match r.byte()? {
        Q_FETCH => SourceQuery::Fetch(get_oid(r)?),
        Q_PATH_FROM_ROOT => SourceQuery::PathFromRoot {
            root: get_oid(r)?,
            n: get_oid(r)?,
        },
        Q_ANCESTOR => SourceQuery::Ancestor {
            n: get_oid(r)?,
            p: get_path(r)?,
        },
        Q_ANCESTORS_ALL => SourceQuery::AncestorsAll {
            n: get_oid(r)?,
            p: get_path(r)?,
        },
        Q_REACH => SourceQuery::Reach {
            n: get_oid(r)?,
            p: get_path(r)?,
        },
        Q_LABEL_OF => SourceQuery::LabelOf(get_oid(r)?),
        t => return err(format!("unknown query tag {t}")),
    })
}

const R_OBJECT: u8 = 0;
const R_PATH: u8 = 1;
const R_ANCESTOR: u8 = 2;
const R_ANCESTORS: u8 = 3;
const R_OBJECTS: u8 = 4;
const R_LABEL: u8 = 5;

const OPT_NONE: u8 = 0;
const OPT_SOME: u8 = 1;

fn put_reply(out: &mut Vec<u8>, rep: &SourceReply) {
    match rep {
        SourceReply::Object(o) => {
            out.push(R_OBJECT);
            match o {
                None => out.push(OPT_NONE),
                Some(i) => {
                    out.push(OPT_SOME);
                    put_info(out, i);
                }
            }
        }
        SourceReply::PathResult(p) => {
            out.push(R_PATH);
            match p {
                None => out.push(OPT_NONE),
                Some(p) => {
                    out.push(OPT_SOME);
                    put_path(out, p);
                }
            }
        }
        SourceReply::AncestorResult(o) => {
            out.push(R_ANCESTOR);
            match o {
                None => out.push(OPT_NONE),
                Some(o) => {
                    out.push(OPT_SOME);
                    put_oid(out, *o);
                }
            }
        }
        SourceReply::Ancestors(os) => {
            out.push(R_ANCESTORS);
            put_oids(out, os);
        }
        SourceReply::Objects(infos) => {
            out.push(R_OBJECTS);
            put_infos(out, infos);
        }
        SourceReply::LabelResult(l) => {
            out.push(R_LABEL);
            match l {
                None => out.push(OPT_NONE),
                Some(l) => {
                    out.push(OPT_SOME);
                    put_str(out, l.as_str());
                }
            }
        }
    }
}

fn get_opt(r: &mut Reader<'_>) -> Result<bool, CodecError> {
    match r.byte()? {
        OPT_NONE => Ok(false),
        OPT_SOME => Ok(true),
        t => err(format!("bad option tag {t}")),
    }
}

fn get_reply(r: &mut Reader<'_>) -> Result<SourceReply, CodecError> {
    Ok(match r.byte()? {
        R_OBJECT => SourceReply::Object(if get_opt(r)? {
            Some(get_info(r)?)
        } else {
            None
        }),
        R_PATH => SourceReply::PathResult(if get_opt(r)? {
            Some(get_path(r)?)
        } else {
            None
        }),
        R_ANCESTOR => {
            SourceReply::AncestorResult(if get_opt(r)? { Some(get_oid(r)?) } else { None })
        }
        R_ANCESTORS => SourceReply::Ancestors(get_oids(r)?),
        R_OBJECTS => SourceReply::Objects(get_infos(r)?),
        R_LABEL => SourceReply::LabelResult(if get_opt(r)? {
            Some(Label::new(r.str()?))
        } else {
            None
        }),
        t => return err(format!("unknown reply tag {t}")),
    })
}

// ----------------------------------------------------------------------
// UpdateReport
// ----------------------------------------------------------------------

const U_INSERT: u8 = 0;
const U_DELETE: u8 = 1;
const U_MODIFY: u8 = 2;
const U_CREATE: u8 = 3;
const U_REMOVE: u8 = 4;

fn put_update(out: &mut Vec<u8>, u: &AppliedUpdate) {
    match u {
        AppliedUpdate::Insert { parent, child } => {
            out.push(U_INSERT);
            put_oid(out, *parent);
            put_oid(out, *child);
        }
        AppliedUpdate::Delete { parent, child } => {
            out.push(U_DELETE);
            put_oid(out, *parent);
            put_oid(out, *child);
        }
        AppliedUpdate::Modify { oid, old, new } => {
            out.push(U_MODIFY);
            put_oid(out, *oid);
            put_atom(out, old);
            put_atom(out, new);
        }
        AppliedUpdate::Create { oid } => {
            out.push(U_CREATE);
            put_oid(out, *oid);
        }
        AppliedUpdate::Remove { oid } => {
            out.push(U_REMOVE);
            put_oid(out, *oid);
        }
    }
}

fn get_update(r: &mut Reader<'_>) -> Result<AppliedUpdate, CodecError> {
    Ok(match r.byte()? {
        U_INSERT => AppliedUpdate::Insert {
            parent: get_oid(r)?,
            child: get_oid(r)?,
        },
        U_DELETE => AppliedUpdate::Delete {
            parent: get_oid(r)?,
            child: get_oid(r)?,
        },
        U_MODIFY => AppliedUpdate::Modify {
            oid: get_oid(r)?,
            old: get_atom(r)?,
            new: get_atom(r)?,
        },
        U_CREATE => AppliedUpdate::Create { oid: get_oid(r)? },
        U_REMOVE => AppliedUpdate::Remove { oid: get_oid(r)? },
        t => return err(format!("unknown update tag {t}")),
    })
}

fn put_report(out: &mut Vec<u8>, rep: &UpdateReport) {
    put_str(out, &rep.source);
    put_varint(out, rep.seq);
    put_update(out, &rep.update);
    put_infos(out, &rep.info);
    put_varint(out, rep.paths.len() as u64);
    for rp in &rep.paths {
        put_oid(out, rp.target);
        put_path(out, &rp.path);
        put_oids(out, &rp.oids);
    }
}

fn get_report(r: &mut Reader<'_>) -> Result<UpdateReport, CodecError> {
    let source = r.str()?.to_owned();
    let seq = r.varint()?;
    let update = get_update(r)?;
    let info = get_infos(r)?;
    let n = r.varint()? as usize;
    let mut paths = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        paths.push(RootPathInfo {
            target: get_oid(r)?,
            path: get_path(r)?,
            oids: get_oids(r)?,
        });
    }
    Ok(UpdateReport {
        source,
        seq,
        update,
        info,
        paths,
    })
}

// ----------------------------------------------------------------------
// Request / Reply envelopes
// ----------------------------------------------------------------------

const REQ_QUERY: u8 = 0;
const REQ_POLL_REPORTS: u8 = 1;
const REQ_CHECKPOINT: u8 = 2;
const REQ_EPOCH: u8 = 3;
const REQ_PING: u8 = 4;
const REQ_SUBSCRIBE: u8 = 5;
const REQ_STATS: u8 = 6;

/// What a client asks of the serving tier.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// A §5 source query, answered at the latest published epoch.
    Query(SourceQuery),
    /// Drain the source monitor's pending update reports.
    PollReports,
    /// Control-plane checkpoint: `(source name, next seq)`.
    Checkpoint,
    /// The source's current published epoch number.
    Epoch,
    /// Liveness probe.
    Ping,
    /// Turn this connection into a telemetry subscriber: the server
    /// answers [`ReplyBody::Subscribed`], then pushes unsolicited
    /// [`ReplyBody::Telemetry`] batches (id 0) as they accumulate.
    /// Handled by the reactor itself, not the [`crate::ServeHandler`].
    Subscribe,
    /// Store statistics at the served (latest published) epoch.
    Stats,
}

/// One framed request: a correlation id, the caller's trace position
/// (so the server's request span joins the client's trace), and the
/// body.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed by the reply.
    pub id: u64,
    /// Caller's trace id (0 when the client is uninstrumented).
    pub trace: u64,
    /// Caller's innermost open span id (0 when none).
    pub span: u64,
    /// The request itself.
    pub body: RequestBody,
}

impl Request {
    /// A request carrying the calling thread's current trace context.
    pub fn new(id: u64, body: RequestBody) -> Request {
        let ctx = gsview_obs::current_context();
        Request {
            id,
            trace: ctx.trace,
            span: ctx.span,
            body,
        }
    }

    /// The wire-carried trace position.
    pub fn context(&self) -> gsview_obs::TraceContext {
        gsview_obs::TraceContext {
            trace: self.trace,
            span: self.span,
        }
    }

    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.id);
        put_varint(&mut out, self.trace);
        put_varint(&mut out, self.span);
        match &self.body {
            RequestBody::Query(q) => {
                out.push(REQ_QUERY);
                put_query(&mut out, q);
            }
            RequestBody::PollReports => out.push(REQ_POLL_REPORTS),
            RequestBody::Checkpoint => out.push(REQ_CHECKPOINT),
            RequestBody::Epoch => out.push(REQ_EPOCH),
            RequestBody::Ping => out.push(REQ_PING),
            RequestBody::Subscribe => out.push(REQ_SUBSCRIBE),
            RequestBody::Stats => out.push(REQ_STATS),
        }
        out
    }

    /// Parse a frame payload. Trailing bytes are a protocol error.
    pub fn decode(bytes: &[u8]) -> Result<Request, CodecError> {
        let mut r = Reader::new(bytes);
        let id = r.varint()?;
        let trace = r.varint()?;
        let span = r.varint()?;
        let body = match r.byte()? {
            REQ_QUERY => RequestBody::Query(get_query(&mut r)?),
            REQ_POLL_REPORTS => RequestBody::PollReports,
            REQ_CHECKPOINT => RequestBody::Checkpoint,
            REQ_EPOCH => RequestBody::Epoch,
            REQ_PING => RequestBody::Ping,
            REQ_SUBSCRIBE => RequestBody::Subscribe,
            REQ_STATS => RequestBody::Stats,
            t => return err(format!("unknown request tag {t}")),
        };
        if r.remaining() != 0 {
            return err(format!("{} trailing bytes after request", r.remaining()));
        }
        Ok(Request {
            id,
            trace,
            span,
            body,
        })
    }
}

const REP_QUERY: u8 = 0;
const REP_REPORTS: u8 = 1;
const REP_CHECKPOINT: u8 = 2;
const REP_EPOCH: u8 = 3;
const REP_PONG: u8 = 4;
const REP_BUSY: u8 = 5;
const REP_ERR: u8 = 6;
const REP_SUBSCRIBED: u8 = 7;
const REP_STATS: u8 = 8;
const REP_TELEMETRY: u8 = 9;

/// Store statistics measured at the served epoch — the wire form of
/// `gsdb::stats_at` (label histogram omitted; it scales with label
/// cardinality and the console doesn't render it).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServedStats {
    /// Published epoch the stats were measured at.
    pub epoch: u64,
    /// Total objects.
    pub objects: u64,
    /// Set objects.
    pub set_objects: u64,
    /// Atomic objects.
    pub atomic_objects: u64,
    /// Total edges.
    pub edges: u64,
    /// Maximum fan-out of any set object.
    pub max_fanout: u64,
    /// Mean fan-out over set objects.
    pub mean_fanout: f64,
    /// Live objects per slab shard, in shard order.
    pub shard_occupancy: Vec<u64>,
}

impl ServedStats {
    /// Build the wire form from a `stats_at` measurement.
    pub fn from_stats(epoch: u64, s: &gsdb::StoreStats) -> ServedStats {
        ServedStats {
            epoch,
            objects: s.objects as u64,
            set_objects: s.set_objects as u64,
            atomic_objects: s.atomic_objects as u64,
            edges: s.edges as u64,
            max_fanout: s.max_fanout as u64,
            mean_fanout: s.mean_fanout,
            shard_occupancy: s.shard_occupancy.iter().map(|&n| n as u64).collect(),
        }
    }
}

fn put_stats(out: &mut Vec<u8>, s: &ServedStats) {
    put_varint(out, s.epoch);
    put_varint(out, s.objects);
    put_varint(out, s.set_objects);
    put_varint(out, s.atomic_objects);
    put_varint(out, s.edges);
    put_varint(out, s.max_fanout);
    put_varint(out, s.mean_fanout.to_bits());
    put_varint(out, s.shard_occupancy.len() as u64);
    for &n in &s.shard_occupancy {
        put_varint(out, n);
    }
}

fn get_stats(r: &mut Reader<'_>) -> Result<ServedStats, CodecError> {
    let epoch = r.varint()?;
    let objects = r.varint()?;
    let set_objects = r.varint()?;
    let atomic_objects = r.varint()?;
    let edges = r.varint()?;
    let max_fanout = r.varint()?;
    let mean_fanout = f64::from_bits(r.varint()?);
    let n = r.varint()? as usize;
    let mut shard_occupancy = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        shard_occupancy.push(r.varint()?);
    }
    Ok(ServedStats {
        epoch,
        objects,
        set_objects,
        atomic_objects,
        edges,
        max_fanout,
        mean_fanout,
        shard_occupancy,
    })
}

// ----------------------------------------------------------------------
// Telemetry batch codec
// ----------------------------------------------------------------------

fn put_batch(out: &mut Vec<u8>, b: &TelemetryBatch) {
    put_varint(out, b.seq);
    put_varint(out, b.dropped);
    put_str(out, &b.resource.service);
    put_varint(out, b.resource.pid as u64);
    put_varint(out, b.spans.len() as u64);
    for s in &b.spans {
        put_varint(out, s.trace);
        put_varint(out, s.span);
        put_varint(out, s.parent);
        put_str(out, &s.name);
        put_varint(out, s.thread);
        put_varint(out, s.start_ns);
        put_varint(out, s.elapsed_ns);
        out.push(s.error as u8);
    }
    put_varint(out, b.counters.len() as u64);
    for c in &b.counters {
        put_str(out, &c.name);
        put_varint(out, c.delta);
        put_varint(out, c.total);
    }
    put_varint(out, b.histograms.len() as u64);
    for h in &b.histograms {
        put_str(out, &h.name);
        put_varint(out, h.count);
        put_varint(out, h.sum);
        put_varint(out, h.min);
        put_varint(out, h.max);
        put_varint(out, h.buckets.len() as u64);
        for &(i, c) in &h.buckets {
            out.push(i);
            put_varint(out, c);
        }
        put_varint(out, h.p50);
        put_varint(out, h.p90);
        put_varint(out, h.p99);
    }
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, CodecError> {
    match r.byte()? {
        0 => Ok(false),
        1 => Ok(true),
        t => err(format!("bad bool byte {t}")),
    }
}

fn get_batch(r: &mut Reader<'_>) -> Result<TelemetryBatch, CodecError> {
    let seq = r.varint()?;
    let dropped = r.varint()?;
    let service = r.str()?.to_owned();
    let pid_raw = r.varint()?;
    let pid =
        u32::try_from(pid_raw).map_err(|_| CodecError(format!("pid {pid_raw} overflows u32")))?;
    let n = r.varint()? as usize;
    let mut spans = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        spans.push(SpanRecord {
            trace: r.varint()?,
            span: r.varint()?,
            parent: r.varint()?,
            name: r.str()?.to_owned(),
            thread: r.varint()?,
            start_ns: r.varint()?,
            elapsed_ns: r.varint()?,
            error: get_bool(r)?,
        });
    }
    let n = r.varint()? as usize;
    let mut counters = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        counters.push(CounterPoint {
            name: r.str()?.to_owned(),
            delta: r.varint()?,
            total: r.varint()?,
        });
    }
    let n = r.varint()? as usize;
    let mut histograms = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = r.str()?.to_owned();
        let count = r.varint()?;
        let sum = r.varint()?;
        let min = r.varint()?;
        let max = r.varint()?;
        let nb = r.varint()? as usize;
        let mut buckets = Vec::with_capacity(nb.min(65));
        for _ in 0..nb {
            let i = r.byte()?;
            if i > 64 {
                return err(format!("histogram bucket index {i} out of range"));
            }
            buckets.push((i, r.varint()?));
        }
        histograms.push(HistogramPoint {
            name,
            count,
            sum,
            min,
            max,
            buckets,
            p50: r.varint()?,
            p90: r.varint()?,
            p99: r.varint()?,
        });
    }
    Ok(TelemetryBatch {
        seq,
        dropped,
        resource: Resource { service, pid },
        spans,
        counters,
        histograms,
    })
}

/// What the serving tier answers.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplyBody {
    /// Answer to [`RequestBody::Query`].
    Query(SourceReply),
    /// Answer to [`RequestBody::PollReports`].
    Reports(Vec<UpdateReport>),
    /// Answer to [`RequestBody::Checkpoint`].
    Checkpoint {
        /// Source name.
        source: String,
        /// Next report sequence number.
        next_seq: u64,
    },
    /// Answer to [`RequestBody::Epoch`].
    Epoch(u64),
    /// Answer to [`RequestBody::Ping`].
    Pong,
    /// Admission control shed this connection (sent with id 0 before
    /// the server closes it).
    Busy,
    /// The server could not serve the request (description attached).
    Err(String),
    /// Answer to [`RequestBody::Subscribe`]: telemetry batches follow.
    Subscribed,
    /// Answer to [`RequestBody::Stats`].
    Stats(ServedStats),
    /// One unsolicited telemetry batch (id 0), pushed by the reactor
    /// to subscribed connections.
    Telemetry(TelemetryBatch),
}

/// One framed reply: the echoed correlation id plus the body.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// Correlation id echoed from the request (0 for unsolicited
    /// replies such as [`ReplyBody::Busy`]).
    pub id: u64,
    /// The reply itself.
    pub body: ReplyBody,
}

impl Reply {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.id);
        match &self.body {
            ReplyBody::Query(rep) => {
                out.push(REP_QUERY);
                put_reply(&mut out, rep);
            }
            ReplyBody::Reports(reports) => {
                out.push(REP_REPORTS);
                put_varint(&mut out, reports.len() as u64);
                for rep in reports {
                    put_report(&mut out, rep);
                }
            }
            ReplyBody::Checkpoint { source, next_seq } => {
                out.push(REP_CHECKPOINT);
                put_str(&mut out, source);
                put_varint(&mut out, *next_seq);
            }
            ReplyBody::Epoch(e) => {
                out.push(REP_EPOCH);
                put_varint(&mut out, *e);
            }
            ReplyBody::Pong => out.push(REP_PONG),
            ReplyBody::Busy => out.push(REP_BUSY),
            ReplyBody::Err(msg) => {
                out.push(REP_ERR);
                put_str(&mut out, msg);
            }
            ReplyBody::Subscribed => out.push(REP_SUBSCRIBED),
            ReplyBody::Stats(s) => {
                out.push(REP_STATS);
                put_stats(&mut out, s);
            }
            ReplyBody::Telemetry(b) => {
                out.push(REP_TELEMETRY);
                put_batch(&mut out, b);
            }
        }
        out
    }

    /// Parse a frame payload. Trailing bytes are a protocol error.
    pub fn decode(bytes: &[u8]) -> Result<Reply, CodecError> {
        let mut r = Reader::new(bytes);
        let id = r.varint()?;
        let body = match r.byte()? {
            REP_QUERY => ReplyBody::Query(get_reply(&mut r)?),
            REP_REPORTS => {
                let n = r.varint()? as usize;
                let mut reports = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    reports.push(get_report(&mut r)?);
                }
                ReplyBody::Reports(reports)
            }
            REP_CHECKPOINT => ReplyBody::Checkpoint {
                source: r.str()?.to_owned(),
                next_seq: r.varint()?,
            },
            REP_EPOCH => ReplyBody::Epoch(r.varint()?),
            REP_PONG => ReplyBody::Pong,
            REP_BUSY => ReplyBody::Busy,
            REP_ERR => ReplyBody::Err(r.str()?.to_owned()),
            REP_SUBSCRIBED => ReplyBody::Subscribed,
            REP_STATS => ReplyBody::Stats(get_stats(&mut r)?),
            REP_TELEMETRY => ReplyBody::Telemetry(get_batch(&mut r)?),
            t => return err(format!("unknown reply tag {t}")),
        };
        if r.remaining() != 0 {
            return err(format!("{} trailing bytes after reply", r.remaining()));
        }
        Ok(Reply { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{Atom, Value};

    #[test]
    fn request_roundtrip_all_kinds() {
        let bodies = vec![
            RequestBody::Query(SourceQuery::Reach {
                n: Oid::new("ROOT"),
                p: Path::parse("professor.student"),
            }),
            RequestBody::PollReports,
            RequestBody::Checkpoint,
            RequestBody::Epoch,
            RequestBody::Ping,
            RequestBody::Subscribe,
            RequestBody::Stats,
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let req = Request {
                id: i as u64 * 7 + 1,
                trace: i as u64 * 13,
                span: i as u64 * 5,
                body,
            };
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn stats_and_telemetry_roundtrip() {
        let rep = Reply {
            id: 3,
            body: ReplyBody::Stats(ServedStats {
                epoch: 12,
                objects: 100,
                set_objects: 40,
                atomic_objects: 60,
                edges: 99,
                max_fanout: 8,
                mean_fanout: 2.475,
                shard_occupancy: vec![25, 25, 24, 26],
            }),
        };
        assert_eq!(Reply::decode(&rep.encode()).unwrap(), rep);

        let batch = TelemetryBatch {
            seq: 7,
            dropped: 2,
            resource: Resource {
                service: "gsview-serve".into(),
                pid: 4242,
            },
            spans: vec![SpanRecord {
                trace: 11,
                span: 12,
                parent: 11,
                name: "serve.request".into(),
                thread: 3,
                start_ns: 1_000,
                elapsed_ns: 250,
                error: true,
            }],
            counters: vec![CounterPoint {
                name: "serve.requests".into(),
                delta: 5,
                total: 105,
            }],
            histograms: vec![HistogramPoint {
                name: "serve.request.micros".into(),
                count: 5,
                sum: 700,
                min: 90,
                max: 300,
                buckets: vec![(7, 3), (8, 2)],
                p50: 130,
                p90: 260,
                p99: 300,
            }],
        };
        let rep = Reply {
            id: 0,
            body: ReplyBody::Telemetry(batch),
        };
        assert_eq!(Reply::decode(&rep.encode()).unwrap(), rep);
        assert_eq!(
            Reply::decode(
                &Reply {
                    id: 1,
                    body: ReplyBody::Subscribed
                }
                .encode()
            )
            .unwrap()
            .body,
            ReplyBody::Subscribed
        );
    }

    #[test]
    fn telemetry_bucket_index_out_of_range_rejected() {
        let mut rep = Reply {
            id: 0,
            body: ReplyBody::Telemetry(TelemetryBatch {
                seq: 1,
                dropped: 0,
                resource: Resource {
                    service: "s".into(),
                    pid: 1,
                },
                spans: vec![],
                counters: vec![],
                histograms: vec![HistogramPoint {
                    name: "h".into(),
                    count: 1,
                    sum: 1,
                    min: 1,
                    max: 1,
                    buckets: vec![(64, 1)],
                    p50: 1,
                    p90: 1,
                    p99: 1,
                }],
            }),
        }
        .encode();
        // Find the bucket-index byte (value 64 right after the bucket
        // count) and corrupt it past the valid range.
        let pos = rep.iter().rposition(|&b| b == 64).unwrap();
        rep[pos] = 65;
        assert!(Reply::decode(&rep).is_err());
    }

    #[test]
    fn reply_roundtrip_with_report_payload() {
        let report = UpdateReport {
            source: "persons".into(),
            seq: 42,
            update: AppliedUpdate::Modify {
                oid: Oid::new("A1"),
                old: Atom::Int(30),
                new: Atom::Str("thirty".into()),
            },
            info: vec![ObjectInfo {
                oid: Oid::new("A1"),
                label: Label::new("age"),
                value: Value::Atom(Atom::Real(1.5)),
            }],
            paths: vec![RootPathInfo {
                target: Oid::new("P1"),
                path: Path::parse("professor"),
                oids: vec![Oid::new("ROOT"), Oid::new("P1")],
            }],
        };
        let rep = Reply {
            id: 9,
            body: ReplyBody::Reports(vec![report]),
        };
        assert_eq!(Reply::decode(&rep.encode()).unwrap(), rep);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request {
            id: 1,
            trace: 0,
            span: 0,
            body: RequestBody::Ping,
        }
        .encode();
        bytes.push(0xAA);
        assert!(Request::decode(&bytes).is_err());
    }
}
