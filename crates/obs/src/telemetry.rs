//! OTLP-shaped telemetry model: the process-side half of the live
//! export pipeline.
//!
//! This module owns the *shape* of exported telemetry — completed
//! spans, delta-temporality metric points, batches with sequence
//! numbers and drop counts — and the machinery that produces it
//! without ever blocking an instrumented thread:
//!
//! * [`SpanExporter`] is a [`Collector`] that pairs `SpanStart` /
//!   `SpanEnd` events into [`SpanRecord`]s, tail-samples them
//!   ([`TailSampler`]: errors and slow spans always survive), and
//!   pushes survivors into an [`ExportQueue`];
//! * [`ExportQueue`] is the same lock-free ticket ring the flight
//!   recorder uses — a full queue *displaces the oldest record and
//!   counts the drop* (`obs.export.dropped`) instead of making the
//!   producer wait;
//! * [`MetricsDiffer`] converts successive [`MetricsSnapshot`]s into
//!   delta-temporality [`CounterPoint`]s / [`HistogramPoint`]s, the
//!   way an OTLP metrics exporter reports "what happened since the
//!   last batch" rather than raw cumulative totals.
//!
//! The wire encoding of these types lives in the serving tier (it owns
//! the codec primitives); this module is deliberately transport-free
//! so the model is testable without sockets.

use crate::metrics::{registry, Counter, MetricsSnapshot};
use crate::ring::Ring;
use crate::{Collector, Event, EventKind, FieldValue};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What emitted the telemetry: the OTLP `Resource` analogue. One per
/// batch — subscribers joining mid-stream still learn who is talking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Resource {
    /// Logical service name (e.g. `gsview-serve`).
    pub service: String,
    /// Producing process id.
    pub pid: u32,
}

impl Resource {
    /// A resource for this process.
    pub fn local(service: impl Into<String>) -> Resource {
        Resource {
            service: service.into(),
            pid: std::process::id(),
        }
    }
}

/// One completed span, assembled from its start/end event pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Enclosing span's id (0 at the root; may live in another
    /// process when the trace was adopted off the wire).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Emitting thread's dense id.
    pub thread: u64,
    /// Start timestamp (monotonic ns since process origin).
    pub start_ns: u64,
    /// Duration.
    pub elapsed_ns: u64,
    /// True when a failure / error event fired inside the span.
    pub error: bool,
}

/// Delta-temporality counter point: what the counter gained since the
/// previous batch, plus the cumulative total for late joiners.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterPoint {
    /// Counter name.
    pub name: String,
    /// Increase since the previous diff (equals `total` on the first).
    pub delta: u64,
    /// Cumulative total at diff time.
    pub total: u64,
}

/// Delta-temporality histogram point: per-bucket sample gains since
/// the previous batch, sparse (zero-delta buckets omitted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramPoint {
    /// Histogram name.
    pub name: String,
    /// Samples gained since the previous diff.
    pub count: u64,
    /// Sum gained since the previous diff.
    pub sum: u64,
    /// Cumulative min (not a delta — minima don't subtract).
    pub min: u64,
    /// Cumulative max.
    pub max: u64,
    /// `(bucket index, samples gained)` for buckets that moved.
    pub buckets: Vec<(u8, u64)>,
    /// Interpolated p50 of the *cumulative* distribution at diff time.
    pub p50: u64,
    /// Interpolated p90.
    pub p90: u64,
    /// Interpolated p99.
    pub p99: u64,
}

/// One export batch: everything a subscriber receives per pump tick.
/// `seq` increments per subscriber; a gap in `seq` plus a non-zero
/// `dropped` tells the consumer exactly how much it missed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryBatch {
    /// Per-subscriber batch sequence number (starts at 1).
    pub seq: u64,
    /// Cumulative spans dropped before this batch (queue overflow +
    /// batches skipped for this subscriber's backpressure).
    pub dropped: u64,
    /// Who produced this batch.
    pub resource: Resource,
    /// Completed spans since the previous batch.
    pub spans: Vec<SpanRecord>,
    /// Counter deltas since the previous batch.
    pub counters: Vec<CounterPoint>,
    /// Histogram deltas since the previous batch.
    pub histograms: Vec<HistogramPoint>,
}

// ---------------------------------------------------------------------
// Metrics differ
// ---------------------------------------------------------------------

/// Turns successive [`MetricsSnapshot`]s into delta-temporality
/// points. Reset-aware: a counter that went *backwards* (registry
/// reset between diffs) reports its new value as the delta rather
/// than underflowing.
#[derive(Debug, Default)]
pub struct MetricsDiffer {
    prev: MetricsSnapshot,
}

impl MetricsDiffer {
    /// A differ whose first diff reports everything as new.
    pub fn new() -> MetricsDiffer {
        MetricsDiffer::default()
    }

    /// Diff `cur` against the previous snapshot, keeping `cur` as the
    /// new baseline. Metrics that did not move are omitted.
    pub fn diff(&mut self, cur: MetricsSnapshot) -> (Vec<CounterPoint>, Vec<HistogramPoint>) {
        let mut counters = Vec::new();
        for (name, total) in &cur.counters {
            let prev = self.prev.counter(name);
            let delta = if *total >= prev { total - prev } else { *total };
            if delta != 0 {
                counters.push(CounterPoint {
                    name: name.clone(),
                    delta,
                    total: *total,
                });
            }
        }
        let mut histograms = Vec::new();
        for (name, h) in &cur.histograms {
            let prev_count = self.prev.histogram(name).map(|p| p.count).unwrap_or(0);
            let reset = h.count < prev_count;
            let base = if reset {
                None
            } else {
                self.prev.histogram(name)
            };
            let delta_count = h.count - base.map(|p| p.count).unwrap_or(0);
            if delta_count == 0 {
                continue;
            }
            let mut buckets = Vec::new();
            for (i, &c) in h.buckets.iter().enumerate() {
                let p = base.map(|p| p.buckets[i]).unwrap_or(0);
                if c > p {
                    buckets.push((i as u8, c - p));
                }
            }
            histograms.push(HistogramPoint {
                name: name.clone(),
                count: delta_count,
                sum: h.sum - base.map(|p| p.sum).unwrap_or(0),
                min: h.min,
                max: h.max,
                buckets,
                p50: h.p50(),
                p90: h.p90(),
                p99: h.p99(),
            });
        }
        self.prev = cur;
        (counters, histograms)
    }
}

// ---------------------------------------------------------------------
// Tail sampler
// ---------------------------------------------------------------------

/// Tail-sampling policy applied *after* a span completes (that is the
/// "tail"): error spans and slow spans always export; the rest export
/// one-in-`keep_one_in`. Lock-free — the 1-in-N counter is a single
/// relaxed `fetch_add`.
#[derive(Debug)]
pub struct TailSampler {
    /// Spans at least this slow always export.
    slow_ns: u64,
    /// Keep every `keep_one_in`-th ordinary span (0 disables ordinary
    /// spans entirely; 1 keeps everything).
    keep_one_in: u64,
    seen: AtomicU64,
}

impl TailSampler {
    /// A sampler keeping errors, spans ≥ `slow_ns`, and one in
    /// `keep_one_in` of the rest.
    pub fn new(slow_ns: u64, keep_one_in: u64) -> TailSampler {
        TailSampler {
            slow_ns,
            keep_one_in,
            seen: AtomicU64::new(0),
        }
    }

    /// A sampler that keeps everything (tests, low-volume services).
    pub fn keep_all() -> TailSampler {
        TailSampler::new(0, 1)
    }

    /// Should this completed span export?
    pub fn keep(&self, span: &SpanRecord) -> bool {
        if span.error || (self.slow_ns > 0 && span.elapsed_ns >= self.slow_ns) {
            return true;
        }
        match self.keep_one_in {
            0 => false,
            1 => true,
            n => self.seen.fetch_add(1, Ordering::Relaxed).is_multiple_of(n),
        }
    }
}

// ---------------------------------------------------------------------
// Export queue
// ---------------------------------------------------------------------

/// A bounded lock-free queue of completed spans between the hot path
/// and the export pump. The flight recorder's ticket ring (`ring.rs`): `push` is one `fetch_add` plus one pointer swap and
/// *never waits* — when the pump falls behind, the oldest unread span
/// is displaced and counted in `obs.export.dropped`. The serving
/// reactor drains it once per tick.
#[derive(Debug)]
pub struct ExportQueue {
    ring: Ring<SpanRecord>,
    dropped_counter: Arc<Counter>,
}

impl ExportQueue {
    /// A queue holding at most `capacity` undrained spans (min 1).
    pub fn with_capacity(capacity: usize) -> ExportQueue {
        ExportQueue {
            ring: Ring::with_capacity(capacity),
            dropped_counter: registry().counter("obs.export.dropped"),
        }
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Spans displaced by overflow so far.
    pub fn dropped(&self) -> u64 {
        self.ring.displaced()
    }

    /// Enqueue one span (lock-free, never blocks).
    pub fn push(&self, span: SpanRecord) {
        if self.ring.push(span) {
            self.dropped_counter.incr();
        }
    }

    /// Take every queued span, oldest first, emptying the queue.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.ring
            .drain()
            .into_iter()
            .map(|(_, span)| span)
            .collect()
    }
}

// ---------------------------------------------------------------------
// Span exporter (the Collector)
// ---------------------------------------------------------------------

/// Shard count for the pending-span maps. Spans only contend within a
/// shard, and the critical section is one `HashMap` op.
const PENDING_SHARDS: usize = 8;

/// A [`Collector`] that assembles start/end event pairs into
/// [`SpanRecord`]s and feeds the [`ExportQueue`] through a
/// [`TailSampler`]. An instant event named `failure` — or carrying an
/// `error` field — marks its enclosing span (and the whole completed
/// record) as an error, which exempts it from sampling.
#[derive(Debug)]
pub struct SpanExporter {
    queue: Arc<ExportQueue>,
    sampler: TailSampler,
    pending: [Mutex<HashMap<u64, PendingSpan>>; PENDING_SHARDS],
}

#[derive(Debug)]
struct PendingSpan {
    trace: u64,
    parent: u64,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    error: bool,
}

impl SpanExporter {
    /// An exporter pushing sampled spans into `queue`.
    pub fn new(queue: Arc<ExportQueue>, sampler: TailSampler) -> SpanExporter {
        SpanExporter {
            queue,
            sampler,
            pending: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    /// The queue this exporter feeds.
    pub fn queue(&self) -> &Arc<ExportQueue> {
        &self.queue
    }

    fn shard(&self, span: u64) -> &Mutex<HashMap<u64, PendingSpan>> {
        &self.pending[(span % PENDING_SHARDS as u64) as usize]
    }
}

impl Collector for SpanExporter {
    fn record(&self, event: Event) {
        match event.kind {
            EventKind::SpanStart => {
                self.shard(event.span).lock().unwrap().insert(
                    event.span,
                    PendingSpan {
                        trace: event.trace,
                        parent: event.parent,
                        name: event.name,
                        thread: event.thread,
                        start_ns: event.ts_ns,
                        error: false,
                    },
                );
            }
            EventKind::Instant => {
                let is_error = event.name == "failure"
                    || matches!(event.field("error"), Some(FieldValue::Bool(true)));
                if is_error && event.span != 0 {
                    if let Some(p) = self.shard(event.span).lock().unwrap().get_mut(&event.span) {
                        p.error = true;
                    }
                }
            }
            EventKind::SpanEnd => {
                let Some(p) = self.shard(event.span).lock().unwrap().remove(&event.span) else {
                    return; // started before the exporter was installed
                };
                let elapsed_ns = match event.field("elapsed_ns") {
                    Some(&FieldValue::U64(ns)) => ns,
                    _ => event.ts_ns.saturating_sub(p.start_ns),
                };
                let record = SpanRecord {
                    trace: p.trace,
                    span: event.span,
                    parent: p.parent,
                    name: p.name.to_string(),
                    thread: p.thread,
                    start_ns: p.start_ns,
                    elapsed_ns,
                    error: p.error,
                };
                if self.sampler.keep(&record) {
                    self.queue.push(record);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::{event, install, span};

    fn span_record(elapsed_ns: u64, error: bool) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span: 2,
            parent: 0,
            name: "t".into(),
            thread: 1,
            start_ns: 0,
            elapsed_ns,
            error,
        }
    }

    #[test]
    fn differ_reports_deltas_and_survives_resets() {
        let r = Registry::new();
        let c = r.counter("reqs");
        let h = r.histogram("lat");
        let mut differ = MetricsDiffer::new();

        c.add(5);
        h.record(10);
        h.record(100);
        let (counters, histograms) = differ.diff(r.snapshot());
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].delta, 5);
        assert_eq!(counters[0].total, 5);
        assert_eq!(histograms[0].count, 2);
        assert_eq!(histograms[0].sum, 110);
        assert_eq!(
            histograms[0].buckets.iter().map(|&(_, c)| c).sum::<u64>(),
            2
        );

        // Quiet interval: nothing moved, nothing reported.
        let (counters, histograms) = differ.diff(r.snapshot());
        assert!(counters.is_empty());
        assert!(histograms.is_empty());

        // Only the gain since last time.
        c.add(3);
        h.record(7);
        let (counters, histograms) = differ.diff(r.snapshot());
        assert_eq!(counters[0].delta, 3);
        assert_eq!(counters[0].total, 8);
        assert_eq!(histograms[0].count, 1);
        assert_eq!(histograms[0].sum, 7);

        // A reset must not underflow: delta restarts from the new
        // value.
        r.reset();
        c.add(2);
        h.record(1);
        let (counters, histograms) = differ.diff(r.snapshot());
        assert_eq!(counters[0].delta, 2);
        assert_eq!(histograms[0].count, 1);
    }

    #[test]
    fn tail_sampler_always_keeps_errors_and_slow_spans() {
        let s = TailSampler::new(1_000_000, 100);
        assert!(s.keep(&span_record(5, true)), "errors always export");
        assert!(s.keep(&span_record(2_000_000, false)), "slow always export");
        let kept = (0..1_000)
            .filter(|_| s.keep(&span_record(5, false)))
            .count();
        assert_eq!(kept, 10, "1-in-100 of ordinary spans");
        assert!(TailSampler::keep_all().keep(&span_record(0, false)));
        let none = TailSampler::new(0, 0);
        assert!(!none.keep(&span_record(5, false)));
        assert!(none.keep(&span_record(5, true)));
    }

    #[test]
    fn export_queue_drops_oldest_and_counts() {
        let q = ExportQueue::with_capacity(4);
        let before = registry().counter("obs.export.dropped").get();
        for i in 0..6u64 {
            q.push(span_record(i, false));
        }
        assert_eq!(q.dropped(), 2);
        assert!(registry().counter("obs.export.dropped").get() >= before + 2);
        let drained = q.drain();
        let elapsed: Vec<u64> = drained.iter().map(|s| s.elapsed_ns).collect();
        assert_eq!(elapsed, vec![2, 3, 4, 5], "oldest displaced, order kept");
        assert!(q.drain().is_empty());
    }

    #[test]
    fn exporter_assembles_spans_and_flags_errors() {
        let _alone = crate::tests::collector_lock();
        let queue = Arc::new(ExportQueue::with_capacity(64));
        let exporter = Arc::new(SpanExporter::new(queue.clone(), TailSampler::keep_all()));
        let _g = install(exporter.clone());
        {
            let _outer = span!("outer", "n" = 1u64);
            {
                let _bad = span!("inner.failing");
                event!("failure", "context" = "oracle diverged");
            }
        }
        drop(_g);
        let spans = queue.drain();
        assert_eq!(spans.len(), 2, "two completed spans");
        let inner = spans.iter().find(|s| s.name == "inner.failing").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(inner.error, "failure event marked its span");
        assert!(!outer.error);
        assert_eq!(inner.trace, outer.trace, "one trace");
        assert_eq!(inner.parent, outer.span);
    }
}
