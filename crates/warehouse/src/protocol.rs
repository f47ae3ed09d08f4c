//! The source ↔ warehouse protocol (paper §5.1).
//!
//! Sources report updates at one of three levels, matching the paper's
//! three scenarios:
//!
//! 1. [`ReportLevel::OidsOnly`] — "the source only reports the type of
//!    U and the OIDs of all directly affected source objects";
//! 2. [`ReportLevel::WithValues`] — "in addition to OIDs, the source
//!    also reports the label and value of all directly affected
//!    objects";
//! 3. [`ReportLevel::WithPaths`] — "for each directly affected object
//!    N, the source will report `path(ROOT, N)` as well as the OIDs of
//!    objects along this path".
//!
//! The warehouse sends [`SourceQuery`] messages back when the report
//! alone cannot answer Algorithm 1's functions; every message in both
//! directions carries an estimated wire size so experiments can report
//! bytes as well as query counts.

use gsdb::{AppliedUpdate, Atom, Label, Object, Oid, Path, Value};
use gsview_obs::metrics::{Counter, Registry};
use std::fmt;
use std::sync::Arc;

/// How much information a source volunteers with each update report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReportLevel {
    /// Level 1: update type + OIDs of directly affected objects.
    OidsOnly,
    /// Level 2: + label, type and value of directly affected objects.
    WithValues,
    /// Level 3: + root path (labels and OIDs) of each directly
    /// affected object.
    WithPaths,
}

impl fmt::Display for ReportLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportLevel::OidsOnly => write!(f, "L1 (OIDs only)"),
            ReportLevel::WithValues => write!(f, "L2 (+labels/values)"),
            ReportLevel::WithPaths => write!(f, "L3 (+root paths)"),
        }
    }
}

/// Label + value of a directly affected object (level ≥ 2).
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectInfo {
    /// The object.
    pub oid: Oid,
    /// Its label.
    pub label: Label,
    /// Its value at report time.
    pub value: Value,
}

impl ObjectInfo {
    /// Capture from an object.
    pub fn of(obj: &Object) -> Self {
        ObjectInfo {
            oid: obj.oid,
            label: obj.label,
            value: obj.value.clone(),
        }
    }

    /// Reconstruct an object copy.
    pub fn to_object(&self) -> Object {
        Object {
            oid: self.oid,
            label: self.label,
            value: self.value.clone(),
        }
    }
}

/// The root path of a directly affected object (level 3): the labels
/// of `path(ROOT, N)` and the OIDs of the objects along it
/// (`ROOT = oids[0]`, …, `N = oids[last]`).
#[derive(Clone, Debug, PartialEq)]
pub struct RootPathInfo {
    /// The object the path leads to.
    pub target: Oid,
    /// Label path from the source root to the target.
    pub path: Path,
    /// OIDs along the path, root first, target last
    /// (`oids.len() == path.len() + 1`).
    pub oids: Vec<Oid>,
}

/// An update report from a source monitor.
///
/// Dropping a report unprocessed is a correctness event, not a leak:
/// every view defined over the source silently diverges until the gap
/// is detected and resynced. Hence `#[must_use]`.
#[must_use = "a dropped update report silently corrupts every view over its source"]
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateReport {
    /// Which source sent this.
    pub source: String,
    /// Monotonic per-source sequence number (for integrator ordering).
    pub seq: u64,
    /// The update itself (always carried: its OIDs are level 1).
    pub update: AppliedUpdate,
    /// Level-2 payload: info for each directly affected object.
    pub info: Vec<ObjectInfo>,
    /// Level-3 payload: root path for each directly affected object
    /// that is reachable from the source root.
    pub paths: Vec<RootPathInfo>,
}

impl UpdateReport {
    /// Level-2 lookup.
    pub fn info_of(&self, oid: Oid) -> Option<&ObjectInfo> {
        self.info.iter().find(|i| i.oid == oid)
    }

    /// Level-3 lookup.
    pub fn path_of(&self, oid: Oid) -> Option<&RootPathInfo> {
        self.paths.iter().find(|p| p.target == oid)
    }

    /// The effective report level of this message: what the payload
    /// actually carries, which may be lower than the source's
    /// configured level if a fault downgraded the report mid-stream.
    pub fn effective_level(&self) -> ReportLevel {
        if !self.paths.is_empty() {
            ReportLevel::WithPaths
        } else if !self.info.is_empty() {
            ReportLevel::WithValues
        } else {
            ReportLevel::OidsOnly
        }
    }
}

/// A query from the warehouse back to a source (paper Example 9's
/// `fetch X where func(X)` interface, specialized to the functions
/// Algorithm 1 needs).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SourceQuery {
    /// Fetch one object (OID, label, type, value).
    Fetch(Oid),
    /// Compute `path(root, n)`.
    PathFromRoot {
        /// The root.
        root: Oid,
        /// The target.
        n: Oid,
    },
    /// Compute `ancestor(n, p)`.
    Ancestor {
        /// The object.
        n: Oid,
        /// The path.
        p: Path,
    },
    /// All ancestors with `path(X, n) = p` (DAG sources).
    AncestorsAll {
        /// The object.
        n: Oid,
        /// The path.
        p: Path,
    },
    /// Objects in `n.p` (the warehouse tests conditions locally, as in
    /// Example 9: "obtain all objects in N.p, then test cond() on
    /// those objects locally").
    Reach {
        /// The start object.
        n: Oid,
        /// The path.
        p: Path,
    },
    /// The label of an object.
    LabelOf(Oid),
}

/// A source's reply.
///
/// Replies are paid for (a metered round trip); discarding one means
/// the query was wasted, so constructors and carriers are `must_use`.
#[must_use = "a source reply cost a metered round trip; inspect it"]
#[derive(Clone, Debug, PartialEq)]
pub enum SourceReply {
    /// Reply to `Fetch`.
    Object(Option<ObjectInfo>),
    /// Reply to `PathFromRoot`.
    PathResult(Option<Path>),
    /// Reply to `Ancestor`.
    AncestorResult(Option<Oid>),
    /// Reply to `AncestorsAll`.
    Ancestors(Vec<Oid>),
    /// Reply to `Reach`: the objects in `n.p`, with values so the
    /// warehouse can test conditions locally.
    Objects(Vec<ObjectInfo>),
    /// Reply to `LabelOf`.
    LabelResult(Option<Label>),
}

/// Why a source interaction failed. Real deployments see both flavors
/// (a wrapper crash vs a slow network); the distinction matters for
/// retry accounting — a timeout has already cost latency before the
/// retry even starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryFault {
    /// The source did not answer within the deadline.
    Timeout,
    /// The source refused or the connection dropped.
    Unavailable,
    /// The serving tier shed the request at admission control (a
    /// `Busy` reply): the source is healthy but over its connection
    /// limit. Retrying immediately is pointless — the retrying
    /// [`Channel`](crate::remote::Channel) jumps straight to its
    /// backoff ceiling for this fault.
    Overloaded,
}

impl fmt::Display for QueryFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryFault::Timeout => write!(f, "timeout"),
            QueryFault::Unavailable => write!(f, "unavailable"),
            QueryFault::Overloaded => write!(f, "overloaded (admission shed)"),
        }
    }
}

// ----------------------------------------------------------------------
// Wire-size estimation
// ----------------------------------------------------------------------

fn atom_bytes(a: &Atom) -> usize {
    match a {
        Atom::Int(_) | Atom::Real(_) => 8,
        Atom::Bool(_) => 1,
        Atom::Str(s) => s.len(),
        Atom::Tagged(unit, _) => unit.as_str().len() + 8,
    }
}

fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Atom(a) => atom_bytes(a),
        Value::Set(s) => s.iter().map(|o| o.name().len()).sum::<usize>() + 2,
    }
}

fn info_bytes(i: &ObjectInfo) -> usize {
    i.oid.name().len() + i.label.as_str().len() + value_bytes(&i.value) + 3
}

fn path_bytes(p: &Path) -> usize {
    p.labels().iter().map(|l| l.as_str().len() + 1).sum()
}

/// Estimated wire size of a message, in bytes. Deterministic and
/// platform-independent; used by the cost meters.
pub trait WireSize {
    /// Estimated serialized size.
    fn wire_size(&self) -> usize;
}

impl WireSize for UpdateReport {
    fn wire_size(&self) -> usize {
        let base = self.source.len()
            + 8
            + self
                .update
                .directly_affected()
                .iter()
                .map(|o| o.name().len())
                .sum::<usize>()
            + 8;
        let l2: usize = self.info.iter().map(info_bytes).sum();
        let l3: usize = self
            .paths
            .iter()
            .map(|rp| {
                rp.target.name().len()
                    + path_bytes(&rp.path)
                    + rp.oids.iter().map(|o| o.name().len()).sum::<usize>()
            })
            .sum();
        base + l2 + l3
    }
}

impl WireSize for SourceQuery {
    fn wire_size(&self) -> usize {
        match self {
            SourceQuery::Fetch(o) | SourceQuery::LabelOf(o) => o.name().len() + 2,
            SourceQuery::PathFromRoot { root, n } => root.name().len() + n.name().len() + 2,
            SourceQuery::Ancestor { n, p }
            | SourceQuery::AncestorsAll { n, p }
            | SourceQuery::Reach { n, p } => n.name().len() + path_bytes(p) + 2,
        }
    }
}

impl WireSize for SourceReply {
    fn wire_size(&self) -> usize {
        match self {
            SourceReply::Object(o) => o.as_ref().map(info_bytes).unwrap_or(1),
            SourceReply::PathResult(p) => p.as_ref().map(path_bytes).unwrap_or(1),
            SourceReply::AncestorResult(o) => o.map(|o| o.name().len()).unwrap_or(1),
            SourceReply::Ancestors(os) => os.iter().map(|o| o.name().len()).sum::<usize>() + 1,
            SourceReply::Objects(infos) => infos.iter().map(info_bytes).sum::<usize>() + 1,
            SourceReply::LabelResult(l) => l.map(|l| l.as_str().len()).unwrap_or(1),
        }
    }
}

/// Communication cost counters, shared between the warehouse side and
/// the source wrapper (atomic: wrappers may be driven from pump
/// threads).
///
/// Each connected source gets its **own** meter (the warehouse installs
/// one per wrapper at connect time), so retry and fault traffic is
/// attributable per source — a chaos experiment can tell which source's
/// unreliability drove the extra round trips.
///
/// [`CostMeter::snapshot`] captures all counters **consistently**: the
/// meter is now a thin compatibility shim over a private
/// [`gsview_obs::metrics::Registry`], whose seqlock write sections
/// (writers bump a generation on entry and exit of each multi-counter
/// record; the reader retries until it observes a quiet generation)
/// guarantee the returned [`CostSnapshot`] corresponds to a state
/// between two whole record operations. Without it, a snapshot taken
/// mid-`record_query` could report `queries` and `messages` that
/// disagree (e.g. one query but zero of its two messages), which
/// showed up as mutually inconsistent columns in E12/E13 output.
/// [`CostMeter::reset`] zeroes all counters under the same write
/// protocol, so a concurrent snapshot sees either all counters
/// pre-reset or all zero.
pub struct CostMeter {
    /// Backing registry: owns the seqlock discipline the old
    /// hand-rolled gen/writers pair implemented.
    reg: Registry,
    queries: Arc<Counter>,
    messages: Arc<Counter>,
    bytes: Arc<Counter>,
    retries: Arc<Counter>,
    faults: Arc<Counter>,
}

impl fmt::Debug for CostMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        f.debug_struct("CostMeter")
            .field("queries", &s.queries)
            .field("messages", &s.messages)
            .field("bytes", &s.bytes)
            .field("retries", &s.retries)
            .field("faults", &s.faults)
            .finish()
    }
}

impl Default for CostMeter {
    fn default() -> Self {
        let reg = Registry::new();
        CostMeter {
            queries: reg.counter("cost.queries"),
            messages: reg.counter("cost.messages"),
            bytes: reg.counter("cost.bytes"),
            retries: reg.counter("cost.retries"),
            faults: reg.counter("cost.faults"),
            reg,
        }
    }
}

/// A point-in-time copy of a [`CostMeter`]'s counters.
#[must_use = "a snapshot is only useful compared against another"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Queries sent.
    pub queries: u64,
    /// Messages (reports + queries + replies).
    pub messages: u64,
    /// Estimated bytes.
    pub bytes: u64,
    /// Retried query attempts.
    pub retries: u64,
    /// Failed query attempts (timeouts + unavailability).
    pub faults: u64,
}

impl CostSnapshot {
    /// Counter growth since an earlier snapshot (saturating, so a
    /// concurrent `reset()` yields zeros rather than wrapping).
    pub fn delta_since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            queries: self.queries.saturating_sub(earlier.queries),
            messages: self.messages.saturating_sub(earlier.messages),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            retries: self.retries.saturating_sub(earlier.retries),
            faults: self.faults.saturating_sub(earlier.faults),
        }
    }
}

impl CostMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a query/reply round trip.
    pub fn record_query(&self, q: &SourceQuery, r: &SourceReply) {
        let _s = self.reg.section();
        self.queries.incr();
        self.messages.add(2);
        self.bytes.add((q.wire_size() + r.wire_size()) as u64);
    }

    /// Record a failed query attempt (the request went out and cost a
    /// message, but no usable reply came back).
    pub fn record_fault(&self, q: &SourceQuery, _fault: QueryFault) {
        let _s = self.reg.section();
        self.faults.incr();
        self.messages.incr();
        self.bytes.add(q.wire_size() as u64);
    }

    /// Record one retry attempt about to be made after a fault.
    pub fn record_retry(&self) {
        let _s = self.reg.section();
        self.retries.incr();
    }

    /// Queries sent so far.
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Messages (reports + queries + replies) so far.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Estimated bytes so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Retried query attempts so far.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Failed query attempts so far.
    pub fn faults(&self) -> u64 {
        self.faults.get()
    }

    /// Capture all counters as one consistent state: the snapshot
    /// corresponds to the meter between two whole record operations,
    /// never mid-record ([`Registry::snapshot`]'s seqlock retry loop).
    pub fn snapshot(&self) -> CostSnapshot {
        let s = self.reg.snapshot();
        CostSnapshot {
            queries: s.counter("cost.queries"),
            messages: s.counter("cost.messages"),
            bytes: s.counter("cost.bytes"),
            retries: s.counter("cost.retries"),
            faults: s.counter("cost.faults"),
        }
    }

    /// Reset all counters atomically (as one write section): a
    /// concurrent [`CostMeter::snapshot`] observes either the whole
    /// pre-reset state or all zeros, never a mix.
    pub fn reset(&self) {
        self.reg.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lookups() {
        let report = UpdateReport {
            source: "s1".into(),
            seq: 1,
            update: AppliedUpdate::Insert {
                parent: Oid::new("P2"),
                child: Oid::new("A2"),
            },
            info: vec![ObjectInfo {
                oid: Oid::new("A2"),
                label: Label::new("age"),
                value: Value::Atom(Atom::Int(40)),
            }],
            paths: vec![RootPathInfo {
                target: Oid::new("P2"),
                path: Path::parse("professor"),
                oids: vec![Oid::new("ROOT"), Oid::new("P2")],
            }],
        };
        assert!(report.info_of(Oid::new("A2")).is_some());
        assert!(report.info_of(Oid::new("P2")).is_none());
        assert_eq!(
            report.path_of(Oid::new("P2")).unwrap().path,
            Path::parse("professor")
        );
        assert!(report.wire_size() > 0);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(ReportLevel::OidsOnly < ReportLevel::WithValues);
        assert!(ReportLevel::WithValues < ReportLevel::WithPaths);
    }

    #[test]
    fn meter_accumulates() {
        let m = CostMeter::new();
        let q = SourceQuery::Fetch(Oid::new("P1"));
        let r = SourceReply::Object(None);
        m.record_query(&q, &r);
        m.record_query(&q, &r);
        assert_eq!(m.queries(), 2);
        assert_eq!(m.messages(), 4);
        assert!(m.bytes() > 0);
        m.reset();
        assert_eq!(m.queries(), 0);
    }

    #[test]
    fn meter_attributes_retries_and_faults() {
        let m = CostMeter::new();
        let q = SourceQuery::Fetch(Oid::new("P1"));
        let before = m.snapshot();
        m.record_fault(&q, QueryFault::Timeout);
        m.record_retry();
        m.record_query(&q, &SourceReply::Object(None));
        let delta = m.snapshot().delta_since(&before);
        assert_eq!(delta.faults, 1);
        assert_eq!(delta.retries, 1);
        assert_eq!(delta.queries, 1);
        // The failed attempt still cost a message on the wire.
        assert_eq!(delta.messages, 3);
        m.reset();
        assert_eq!(m.snapshot(), CostSnapshot::default());
    }

    #[test]
    fn snapshot_is_never_torn_under_concurrent_recording() {
        // Every record_query adds exactly (1 query, 2 messages, B
        // bytes) as one write section, so EVERY consistent snapshot
        // satisfies messages == 2*queries and bytes == B*queries. A
        // snapshot taken mid-record (the seed behavior) violates this.
        let m = CostMeter::new();
        let q = SourceQuery::Fetch(Oid::new("P1"));
        let r = SourceReply::Object(None);
        let per_query_bytes = (q.wire_size() + r.wire_size()) as u64;
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 2_000;
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    for _ in 0..PER_WRITER {
                        m.record_query(&q, &r);
                    }
                });
            }
            s.spawn(|| loop {
                let snap = m.snapshot();
                assert_eq!(snap.messages, 2 * snap.queries, "torn snapshot: {snap:?}");
                assert_eq!(
                    snap.bytes,
                    per_query_bytes * snap.queries,
                    "torn snapshot: {snap:?}"
                );
                if snap.queries == WRITERS as u64 * PER_WRITER {
                    break;
                }
                std::thread::yield_now();
            });
        });
        assert_eq!(m.queries(), WRITERS as u64 * PER_WRITER);
    }

    #[test]
    fn reset_is_atomic_with_respect_to_snapshots() {
        let m = CostMeter::new();
        let q = SourceQuery::Fetch(Oid::new("P1"));
        let r = SourceReply::Object(None);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..1_000 {
                    m.record_query(&q, &r);
                    m.reset();
                }
            });
            s.spawn(|| {
                for _ in 0..1_000 {
                    let snap = m.snapshot();
                    // All-or-nothing: a half-reset state would break this.
                    assert_eq!(snap.messages, 2 * snap.queries, "torn reset: {snap:?}");
                }
            });
        });
    }

    #[test]
    fn effective_level_tracks_payload() {
        let update = AppliedUpdate::Insert {
            parent: Oid::new("P2"),
            child: Oid::new("A2"),
        };
        let mut r = UpdateReport {
            source: "s".into(),
            seq: 0,
            update,
            info: vec![],
            paths: vec![],
        };
        assert_eq!(r.effective_level(), ReportLevel::OidsOnly);
        r.info.push(ObjectInfo {
            oid: Oid::new("A2"),
            label: Label::new("age"),
            value: Value::Atom(Atom::Int(40)),
        });
        assert_eq!(r.effective_level(), ReportLevel::WithValues);
        r.paths.push(RootPathInfo {
            target: Oid::new("P2"),
            path: Path::parse("professor"),
            oids: vec![Oid::new("ROOT"), Oid::new("P2")],
        });
        assert_eq!(r.effective_level(), ReportLevel::WithPaths);
    }

    #[test]
    fn richer_reports_cost_more_bytes() {
        let update = AppliedUpdate::Insert {
            parent: Oid::new("P2"),
            child: Oid::new("A2"),
        };
        let l1 = UpdateReport {
            source: "s".into(),
            seq: 0,
            update: update.clone(),
            info: vec![],
            paths: vec![],
        };
        let l2 = UpdateReport {
            info: vec![ObjectInfo {
                oid: Oid::new("A2"),
                label: Label::new("age"),
                value: Value::Atom(Atom::Int(40)),
            }],
            ..l1.clone()
        };
        let l3 = UpdateReport {
            paths: vec![RootPathInfo {
                target: Oid::new("P2"),
                path: Path::parse("professor"),
                oids: vec![Oid::new("ROOT"), Oid::new("P2")],
            }],
            ..l2.clone()
        };
        assert!(l1.wire_size() < l2.wire_size());
        assert!(l2.wire_size() < l3.wire_size());
    }
}
