//! The serving side of the live telemetry export pipeline, plus the
//! subscriber client.
//!
//! [`TelemetryHub`] glues the obs-side model to the reactor: it owns
//! the lock-free [`ExportQueue`], the [`SpanExporter`] collector that
//! feeds it, and the [`MetricsDiffer`] that turns registry snapshots
//! into delta points. Once per tick the reactor calls
//! [`TelemetryHub::collect`] — a drain plus a seqlock snapshot, both
//! bounded — and fans the harvest out to subscribed connections as
//! [`ReplyBody::Telemetry`] frames (correlation id 0 = unsolicited).
//!
//! **Export can never block a commit or starve the reactor.** The hot
//! path's only telemetry work is the exporter's pending-map insert and
//! a queue push (lock-free, displacing on overflow). The reactor's
//! only work is one drain + one diff per tick and per-subscriber
//! buffer appends; a subscriber whose socket is backed up gets the
//! batch *skipped*, counted in `obs.export.dropped` and surfaced in
//! the next batch's `dropped` field, so the pump's cost per tick is
//! bounded no matter how slow the consumer.
//!
//! [`TelemetryTail`] is the consumer: dial, `Subscribe`, then block on
//! gap-counted batches. `gsview-top` and the E20 bench both sit on it.

use crate::frame::{encode_frame, FrameDecoder, DEFAULT_MAX_FRAME};
use crate::msg::{Reply, ReplyBody, Request, RequestBody};
use gsview_obs::telemetry::{
    CounterPoint, ExportQueue, HistogramPoint, MetricsDiffer, Resource, SpanExporter, SpanRecord,
    TailSampler, TelemetryBatch,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What one reactor tick harvested: shared across subscribers, turned
/// into per-subscriber batches by [`TelemetryHub::batch_for`].
#[derive(Clone, Debug, Default)]
pub struct Harvest {
    /// Completed spans since the last tick.
    pub spans: Vec<SpanRecord>,
    /// Counter deltas since the last tick.
    pub counters: Vec<CounterPoint>,
    /// Histogram deltas since the last tick.
    pub histograms: Vec<HistogramPoint>,
    /// Cumulative queue-overflow drops at harvest time.
    pub queue_dropped: u64,
}

impl Harvest {
    /// True when there is nothing worth shipping.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }
}

/// Server-side telemetry state: queue + exporter + differ + identity.
pub struct TelemetryHub {
    exporter: Arc<SpanExporter>,
    queue: Arc<ExportQueue>,
    differ: Mutex<MetricsDiffer>,
    resource: Resource,
}

impl TelemetryHub {
    /// A hub whose exporter keeps spans per `sampler`, queueing at
    /// most `queue_capacity` of them between reactor ticks.
    pub fn new(
        service: impl Into<String>,
        queue_capacity: usize,
        sampler: TailSampler,
    ) -> TelemetryHub {
        let queue = Arc::new(ExportQueue::with_capacity(queue_capacity));
        TelemetryHub {
            exporter: Arc::new(SpanExporter::new(queue.clone(), sampler)),
            queue,
            differ: Mutex::new(MetricsDiffer::new()),
            resource: Resource::local(service),
        }
    }

    /// The collector to install (`gsview_obs::install`) so spans flow
    /// into this hub. The caller owns installation: the hub must not
    /// fight a flight recorder for the process-global slot.
    pub fn exporter(&self) -> Arc<SpanExporter> {
        self.exporter.clone()
    }

    /// The hub's identity, stamped on every batch.
    pub fn resource(&self) -> &Resource {
        &self.resource
    }

    /// Spans displaced by queue overflow so far.
    pub fn queue_dropped(&self) -> u64 {
        self.queue.dropped()
    }

    /// Drain the span queue and diff the global metrics registry.
    /// Bounded work: one queue sweep plus one seqlock snapshot.
    pub fn collect(&self) -> Harvest {
        let spans = self.queue.drain();
        let (counters, histograms) = self
            .differ
            .lock()
            .unwrap()
            .diff(gsview_obs::registry().snapshot());
        Harvest {
            spans,
            counters,
            histograms,
            queue_dropped: self.queue.dropped(),
        }
    }

    /// Assemble one subscriber's batch from a shared harvest. `seq`
    /// is the subscriber's next sequence number, `dropped` its
    /// cumulative miss count (queue overflow plus skipped batches).
    pub fn batch_for(&self, harvest: &Harvest, seq: u64, dropped: u64) -> TelemetryBatch {
        TelemetryBatch {
            seq,
            dropped,
            resource: self.resource.clone(),
            spans: harvest.spans.clone(),
            counters: harvest.counters.clone(),
            histograms: harvest.histograms.clone(),
        }
    }
}

/// A blocking telemetry subscriber: dials the serving tier, sends
/// [`RequestBody::Subscribe`], then yields pushed batches.
pub struct TelemetryTail {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl TelemetryTail {
    /// Dial `addr` and subscribe, with a 1 s handshake timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<TelemetryTail> {
        TelemetryTail::connect_with_timeout(addr, Duration::from_millis(1_000))
    }

    /// [`TelemetryTail::connect`] with an explicit read timeout, which
    /// also bounds every subsequent [`TelemetryTail::next_batch`].
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<TelemetryTail> {
        let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let frame = encode_frame(&Request::new(1, RequestBody::Subscribe).encode());
        stream.write_all(&frame)?;
        let mut tail = TelemetryTail {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
        };
        match tail.next_reply()? {
            Reply {
                body: ReplyBody::Subscribed,
                ..
            } => Ok(tail),
            Reply {
                body: ReplyBody::Busy,
                ..
            } => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "serving tier shed the subscription at admission",
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("subscribe handshake failed: {:?}", other.body),
            )),
        }
    }

    /// Block until the next pushed batch (or the read timeout).
    pub fn next_batch(&mut self) -> io::Result<TelemetryBatch> {
        loop {
            match self.next_reply()? {
                Reply {
                    body: ReplyBody::Telemetry(batch),
                    ..
                } => return Ok(batch),
                // Anything else on a subscribed connection is
                // protocol noise; skip it (the server only pushes
                // telemetry after Subscribed).
                _ => continue,
            }
        }
    }

    fn next_reply(&mut self) -> io::Result<Reply> {
        let mut buf = [0u8; 16 << 10];
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => {
                    return Reply::decode(&payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "telemetry stream closed",
                    ))
                }
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsview_obs::telemetry::TailSampler;

    #[test]
    fn hub_collects_spans_and_metric_deltas() {
        let hub = TelemetryHub::new("test-hub", 64, TailSampler::keep_all());
        let _g = gsview_obs::install(hub.exporter());
        {
            let _s = gsview_obs::span!("hub.test.span");
        }
        // A uniquely named counter so parallel tests can't interfere.
        gsview_obs::registry().counter("hub.test.counter").add(3);
        let h = hub.collect();
        drop(_g);
        assert!(h.spans.iter().any(|s| s.name == "hub.test.span"));
        assert!(h
            .counters
            .iter()
            .any(|c| c.name == "hub.test.counter" && c.delta == 3));
        let batch = hub.batch_for(&h, 5, 2);
        assert_eq!(batch.seq, 5);
        assert_eq!(batch.dropped, 2);
        assert_eq!(batch.resource.pid, std::process::id());
        assert_eq!(batch.spans.len(), h.spans.len());
    }
}
