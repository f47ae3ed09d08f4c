//! Request dispatch: what the reactor does with a decoded request.
//!
//! The reactor is transport only — it knows frames and sockets, not
//! the protocol's meaning. A [`ServeHandler`] supplies the meaning.
//! The production handler is [`SourceService`], which exposes one
//! [`Source`]'s wrapper/monitor roles over
//! the wire: queries answer against the latest **published epoch**
//! (never a shard lock — a thousand concurrent readers cost the
//! writers nothing), report polls and checkpoints delegate to the
//! monitor, and `Epoch` reads the publication watermark.

use crate::msg::{ReplyBody, RequestBody, ServedStats};
use gsview_warehouse::protocol::CostMeter;
use gsview_warehouse::source::ReportSource;
use gsview_warehouse::{answer, Source};
use std::sync::Arc;

/// Turns one decoded request into a reply body. Implementations must
/// be cheap and non-blocking: the reactor is single-threaded, and a
/// handler that parks a thread stalls every connection.
pub trait ServeHandler: Send + Sync + 'static {
    /// Serve one request.
    fn handle(&self, req: RequestBody) -> ReplyBody;
}

/// The standard handler: one source's §5 roles behind the network
/// boundary.
pub struct SourceService {
    source: Source,
    meter: Arc<CostMeter>,
}

impl SourceService {
    /// Serve `source`, charging query traffic to `meter` (the same
    /// per-source ledger a colocated wrapper would charge).
    pub fn new(source: Source, meter: Arc<CostMeter>) -> SourceService {
        SourceService { source, meter }
    }

    /// The meter charged by this service.
    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}

impl ServeHandler for SourceService {
    fn handle(&self, req: RequestBody) -> ReplyBody {
        match req {
            RequestBody::Query(q) => {
                // The epoch read path: pin the latest published
                // snapshot, answer, drop. No shard lock, ever.
                let reply = answer(&self.source.snapshot(), &q);
                self.meter.record_query(&q, &reply);
                ReplyBody::Query(reply)
            }
            RequestBody::PollReports => ReplyBody::Reports(self.source.monitor().poll()),
            RequestBody::Checkpoint => {
                let (source, next_seq) = self.source.monitor().checkpoint();
                ReplyBody::Checkpoint { source, next_seq }
            }
            RequestBody::Epoch => ReplyBody::Epoch(self.source.epoch()),
            RequestBody::Ping => ReplyBody::Pong,
            RequestBody::Stats => {
                // Like queries, stats measure the latest *published*
                // epoch via the handle — never the live store's lock.
                let (epoch, stats) = gsdb::stats_at(&self.source.epoch_handle());
                ReplyBody::Stats(ServedStats::from_stats(epoch, &stats))
            }
            // Subscriptions are transport state, owned by the reactor;
            // a handler reached directly can't honor one.
            RequestBody::Subscribe => ReplyBody::Err("subscribe is handled by the reactor".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{samples, Oid, Path, Update};
    use gsview_warehouse::protocol::{ReportLevel, SourceQuery, SourceReply};

    fn person_source() -> Source {
        let src = Source::empty("persons", Oid::new("ROOT"), ReportLevel::WithValues);
        src.with_store(|s| samples::person_db(s).map(|_| ()))
            .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    #[test]
    fn service_answers_queries_reports_and_epochs() {
        let src = person_source();
        let svc = SourceService::new(src.clone(), Arc::new(CostMeter::new()));

        match svc.handle(RequestBody::Query(SourceQuery::PathFromRoot {
            root: Oid::new("ROOT"),
            n: Oid::new("A1"),
        })) {
            ReplyBody::Query(SourceReply::PathResult(Some(p))) => {
                assert_eq!(p, Path::parse("professor.age"));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(svc.meter().queries(), 1);

        let epoch0 = match svc.handle(RequestBody::Epoch) {
            ReplyBody::Epoch(e) => e,
            other => panic!("unexpected reply {other:?}"),
        };
        src.apply(Update::modify("A1", 46i64)).unwrap();
        match svc.handle(RequestBody::Epoch) {
            ReplyBody::Epoch(e) => assert_eq!(e, epoch0 + 1),
            other => panic!("unexpected reply {other:?}"),
        }

        match svc.handle(RequestBody::PollReports) {
            ReplyBody::Reports(reports) => {
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].source, "persons");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        match svc.handle(RequestBody::Checkpoint) {
            ReplyBody::Checkpoint { source, next_seq } => {
                assert_eq!(source, "persons");
                assert_eq!(next_seq, 1);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(svc.handle(RequestBody::Ping), ReplyBody::Pong);
    }
}
