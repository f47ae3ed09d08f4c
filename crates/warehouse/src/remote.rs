//! [`Channel`] — the warehouse's retrying transport to one source —
//! and [`RemoteBase`], the warehouse-side realization of the
//! [`BaseAccess`] interface Algorithm 1 runs against (paper §5.1).
//!
//! Each `BaseAccess` function is answered from the cheapest available
//! tier:
//!
//! 1. the triggering **update report** (levels 2/3 carry labels,
//!    values, and root paths of the directly affected objects) — or,
//!    on the batched path, the [`BatchAnswers`] built from every report
//!    of the batch;
//! 2. the **auxiliary cache** (§5.2), when one is attached;
//! 3. a **query back to the source** through its channel — the
//!    expensive case the paper's techniques aim to avoid, and (in a
//!    fault-tolerant deployment) the only one that can *fail*. Within
//!    one batch a question is put to the source once: [`BatchAnswers`]
//!    remembers the reply for every view that asks it again.

use crate::cache::AuxCache;
use crate::protocol::{CostMeter, ObjectInfo, SourceQuery, SourceReply, UpdateReport};
use crate::resync::{DeadLetter, DeadLetterQueue, RetryPolicy, SimClock};
use crate::source::{QueryPort, Wrapper};
use gsdb::{Label, Object, Oid, Path};
use gsview_core::BaseAccess;
use gsview_query::Pred;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The warehouse's connection to one source: a [`QueryPort`] plus the
/// retry policy, simulated clock, per-source cost meter, and
/// dead-letter queue that make querying survivable.
///
/// `serve` retries faulted queries with exponential backoff (advancing
/// the shared [`SimClock`] instead of sleeping); a query that exhausts
/// its retries is recorded as a [`DeadLetter`] and surfaces as `None`,
/// which the warehouse treats as grounds to flag dependent views
/// [`Stale`](crate::resync::ViewState::Stale) — never as an answer.
#[derive(Clone)]
pub struct Channel {
    source: String,
    port: Arc<dyn QueryPort>,
    meter: Arc<CostMeter>,
    retry: RetryPolicy,
    clock: SimClock,
    dead_letters: Arc<DeadLetterQueue>,
    exhausted: Arc<AtomicU64>,
}

impl Channel {
    /// A channel over an arbitrary port.
    pub fn new(
        source: impl Into<String>,
        port: Arc<dyn QueryPort>,
        meter: Arc<CostMeter>,
        retry: RetryPolicy,
        clock: SimClock,
        dead_letters: Arc<DeadLetterQueue>,
    ) -> Self {
        Channel {
            source: source.into(),
            port,
            meter,
            retry,
            clock,
            dead_letters,
            exhausted: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A channel straight over a (fault-free) wrapper: no retries ever
    /// needed, fresh clock and dead-letter queue. Convenience for tests
    /// and single-source tools.
    pub fn direct(wrapper: Wrapper) -> Self {
        let meter = wrapper.meter_handle();
        Channel::new(
            wrapper.source_name().to_owned(),
            Arc::new(wrapper),
            meter,
            RetryPolicy::none(),
            SimClock::new(),
            Arc::new(DeadLetterQueue::new()),
        )
    }

    /// The source this channel reaches.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The per-source cost meter (queries, retries, faults).
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared dead-letter queue.
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dead_letters
    }

    /// Queries that exhausted their retries over this channel's
    /// lifetime. Compare before/after a maintenance pass to learn
    /// whether its result can be trusted.
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Serve one query with retries. `None` means the query exhausted
    /// its retry budget; it has been dead-lettered and the caller's
    /// result is incomplete.
    pub fn serve(&self, q: &SourceQuery) -> Option<SourceReply> {
        let mut attempt = 0u32;
        loop {
            match self.port.query(q) {
                Ok(reply) => return Some(reply),
                Err(fault) => {
                    if attempt >= self.retry.max_retries {
                        self.exhausted.fetch_add(1, Ordering::Relaxed);
                        self.dead_letters.push(DeadLetter {
                            source: self.source.clone(),
                            query: q.clone(),
                            fault,
                            attempts: attempt + 1,
                            at_ms: self.clock.now_ms(),
                        });
                        return None;
                    }
                    self.meter.record_retry();
                    gsview_obs::event!("warehouse.retry",
                        "source" = self.source.clone(),
                        "attempt" = attempt + 1,
                        "fault" = fault.to_string());
                    // An admission shed is an explicit "go away": the
                    // server is healthy but over its limit, so skip
                    // the exponential ramp and back off at the
                    // ceiling immediately.
                    let backoff = match fault {
                        crate::protocol::QueryFault::Overloaded => self.retry.max_backoff_ms,
                        _ => self.retry.backoff_ms(attempt),
                    };
                    self.clock.advance_ms(backoff);
                    attempt += 1;
                }
            }
        }
    }
}

/// What one [`Warehouse::handle_batch`](crate::Warehouse::handle_batch)
/// call knows about one source before and while it maintains that
/// source's views: the object info its accepted reports carried, and
/// every reply the source has given during the call. Built once per
/// source and shared by all of its views, so a batch pays for each
/// question once.
///
/// **Info is last-mention-wins.** An object's label and value change
/// only through updates that mention it (a modify of it, an edge out of
/// it, its creation or removal), so what the last report mentioning it
/// carried is its value at the end of the batch; a last mention without
/// info (a `Remove`, a report downgraded to level 1) leaves nothing to
/// trust and erases what earlier reports said. Level-3 root paths are
/// *not* kept: a path goes stale through updates that never mention
/// the object (an ancestor detached later in the batch).
///
/// **Replies are memoized by query.** Every query of the call is
/// answered from the source's current state, as the batched maintenance
/// pass expects; a query that exhausted its retries is not remembered,
/// so whoever asks again pays — and counts as exhausted — again.
pub struct BatchAnswers<'a> {
    info: HashMap<Oid, &'a ObjectInfo>,
    memo: RefCell<HashMap<SourceQuery, SourceReply>>,
    report_answers: Cell<u64>,
    memo_hits: Cell<u64>,
}

impl<'a> BatchAnswers<'a> {
    /// Gather the info carried by `reports` (in sequence order).
    pub fn new(reports: &[&'a UpdateReport]) -> Self {
        let mut info = HashMap::new();
        for r in reports {
            for oid in r.update.directly_affected() {
                match r.info_of(oid) {
                    Some(i) => info.insert(oid, i),
                    None => info.remove(&oid),
                };
            }
        }
        BatchAnswers {
            info,
            memo: RefCell::new(HashMap::new()),
            report_answers: Cell::new(0),
            memo_hits: Cell::new(0),
        }
    }

    /// Label and batch-end value of `oid`, if the batch reported them.
    pub fn info_of(&self, oid: Oid) -> Option<&'a ObjectInfo> {
        let info = self.info.get(&oid).copied();
        if info.is_some() {
            self.report_answers.set(self.report_answers.get() + 1);
        }
        info
    }

    /// Serve `q` from the replies already received, else over `channel`.
    pub fn serve(&self, channel: &Channel, q: &SourceQuery) -> Option<SourceReply> {
        if let Some(reply) = self.memo.borrow().get(q) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return Some(reply.clone());
        }
        let reply = channel.serve(q)?;
        self.memo.borrow_mut().insert(q.clone(), reply.clone());
        Some(reply)
    }
}

impl Drop for BatchAnswers<'_> {
    /// Publish where the batch's questions were answered.
    fn drop(&mut self) {
        let registry = gsview_obs::registry();
        registry
            .counter("warehouse.batch.report_answers")
            .add(self.report_answers.get());
        registry
            .counter("warehouse.batch.memo_hits")
            .add(self.memo_hits.get());
    }
}

/// The two ends of every tiered lookup: what the warehouse has already
/// been told (the triggering report, the batch's answers) and the
/// channel a question travels over when nothing nearer answers it.
#[derive(Clone, Copy)]
pub(crate) struct Asker<'a> {
    pub(crate) channel: &'a Channel,
    pub(crate) report: Option<&'a UpdateReport>,
    pub(crate) batch: Option<&'a BatchAnswers<'a>>,
}

impl<'a> Asker<'a> {
    /// Info on `n` from the triggering report, else from the batch.
    pub(crate) fn reported(self, n: Oid) -> Option<&'a ObjectInfo> {
        self.report
            .and_then(|r| r.info_of(n))
            .or_else(|| self.batch.and_then(|b| b.info_of(n)))
    }

    /// Put `q` to the source, through the batch's memo when there is one.
    pub(crate) fn ask(self, q: &SourceQuery) -> Option<SourceReply> {
        match self.batch {
            Some(b) => b.serve(self.channel, q),
            None => self.channel.serve(q),
        }
    }
}

/// Base access over a source channel, consulting the triggering report
/// and an optional auxiliary cache first.
///
/// When a query exhausts its retries the method answers `None`/empty —
/// the caller must watch [`Channel::exhausted`] to distinguish "no
/// such object" from "the source stopped answering".
pub struct RemoteBase<'a> {
    asker: Asker<'a>,
    cache: Option<&'a AuxCache>,
}

impl<'a> RemoteBase<'a> {
    /// Access with neither report nor cache (pure querying).
    pub fn new(channel: &'a Channel) -> Self {
        RemoteBase {
            asker: Asker {
                channel,
                report: None,
                batch: None,
            },
            cache: None,
        }
    }

    /// Attach the triggering update report.
    pub fn with_report(mut self, report: &'a UpdateReport) -> Self {
        self.asker.report = Some(report);
        self
    }

    /// Attach the answers of the batch being maintained.
    pub fn with_batch(mut self, batch: &'a BatchAnswers<'a>) -> Self {
        self.asker.batch = Some(batch);
        self
    }

    /// Attach an auxiliary cache.
    pub fn with_cache(mut self, cache: &'a AuxCache) -> Self {
        self.cache = Some(cache);
        self
    }
}

impl BaseAccess for RemoteBase<'_> {
    fn path_from_root(&mut self, root: Oid, n: Oid) -> Option<Path> {
        // Tier 1: level-3 reports carry path(ROOT, N) directly.
        if let Some(r) = self.asker.report {
            if let Some(rp) = r.path_of(n) {
                return Some(rp.path.clone());
            }
        }
        // Tier 2: cache.
        if let Some(c) = self.cache {
            if self.asker.batch.is_some() && c.root() == root {
                // A batch is maintained against the state at its end,
                // where a subtree one of its reports detached hangs
                // nowhere in the region. Only a single report's pass is
                // owed the pre-delete path (§4.3's delete case looks at
                // the detached side).
                return c.path_at_end(n);
            }
            if let Some(p) = c.try_path_from_root(n) {
                return Some(p);
            }
            if c.root() == root && c.certainly_off_path(n) {
                // Complete-cache short circuit: n has no root path
                // that the view's location test could match, so the
                // maintenance algorithm will (correctly) treat the
                // update as irrelevant without a source query.
                return None;
            }
        }
        // Tier 3: query.
        match self.asker.ask(&SourceQuery::PathFromRoot { root, n }) {
            Some(SourceReply::PathResult(p)) => p,
            _ => None,
        }
    }

    fn ancestor(&mut self, n: Oid, p: &Path) -> Option<Oid> {
        if p.is_empty() {
            return Some(n);
        }
        // Tier 1: a level-3 root path of n names the OIDs along it —
        // the ancestor at distance |p| is right there if the labels
        // match.
        if let Some(r) = self.asker.report {
            if let Some(rp) = r.path_of(n) {
                let len = rp.path.len();
                if p.len() <= len && rp.path.ends_with(p) {
                    // oids = [root, ..., n] has len+1 entries with n at
                    // index len; the ancestor |p| levels up is at
                    // index len - |p|.
                    return rp.oids.get(len - p.len()).copied();
                }
            }
        }
        if let Some(c) = self.cache {
            if let Some(a) = c.try_ancestor(n, p) {
                return Some(a);
            }
        }
        match self.asker.ask(&SourceQuery::Ancestor { n, p: p.clone() }) {
            Some(SourceReply::AncestorResult(a)) => a,
            _ => None,
        }
    }

    fn ancestors_all(&mut self, n: Oid, p: &Path) -> Vec<Oid> {
        match self.asker.ask(&SourceQuery::AncestorsAll { n, p: p.clone() }) {
            Some(SourceReply::Ancestors(a)) => a,
            _ => Vec::new(),
        }
    }

    fn eval(&mut self, n: Oid, p: &Path, pred: Option<&Pred>) -> Vec<Oid> {
        // Tier 1: empty-path eval over a reported object can be
        // answered from the report (Example 5's insert(P2, A2) with a
        // level-2 report needs no query for eval(A2, ∅, cond)).
        if p.is_empty() {
            if let Some(info) = self.asker.reported(n) {
                return match (pred, info.value.as_atom()) {
                    (Some(pr), Some(a)) => {
                        if pr.eval(a) {
                            vec![n]
                        } else {
                            vec![]
                        }
                    }
                    (Some(_), None) => vec![],
                    (None, _) => vec![n],
                };
            }
        }
        if let Some(c) = self.cache {
            if let Some(result) = c.try_eval(n, p, pred) {
                return result;
            }
        }
        // Tier 3: fetch n.p with values and test the condition locally
        // (Example 9).
        match self.asker.ask(&SourceQuery::Reach { n, p: p.clone() }) {
            Some(SourceReply::Objects(infos)) => infos
                .into_iter()
                .filter(|i| match pred {
                    None => true,
                    Some(pr) => i.value.as_atom().map(|a| pr.eval(a)).unwrap_or(false),
                })
                .map(|i| i.oid)
                .collect(),
            _ => Vec::new(),
        }
    }

    fn label_of(&mut self, n: Oid) -> Option<Label> {
        if let Some(info) = self.asker.reported(n) {
            return Some(info.label);
        }
        if let Some(c) = self.cache {
            if let Some(l) = c.try_label(n) {
                return Some(l);
            }
        }
        match self.asker.ask(&SourceQuery::LabelOf(n)) {
            Some(SourceReply::LabelResult(l)) => l,
            _ => None,
        }
    }

    fn fetch(&mut self, n: Oid) -> Option<Object> {
        if let Some(info) = self.asker.reported(n) {
            return Some(info.to_object());
        }
        if let Some(c) = self.cache {
            if let Some(o) = c.try_fetch(n) {
                return Some(o);
            }
        }
        match self.asker.ask(&SourceQuery::Fetch(n)) {
            Some(SourceReply::Object(info)) => info.map(|i| i.to_object()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CostMeter, QueryFault, ReportLevel};
    use crate::source::Source;
    use gsdb::{samples, Update};
    use gsview_query::{CmpOp, Pred};
    use std::sync::Arc;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_source(level: ReportLevel) -> Source {
        let src = Source::empty("persons", oid("ROOT"), level);
        src.with_store(|s| samples::person_db(s).map(|_| ())).unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    fn channel_for(src: &Source, meter: Arc<CostMeter>) -> Channel {
        Channel::direct(src.wrapper(meter))
    }

    #[test]
    fn report_tier_answers_without_queries_at_l3() {
        let src = person_source(ReportLevel::WithPaths);
        let meter = Arc::new(CostMeter::new());
        let chan = channel_for(&src, meter.clone());
        src.apply(Update::modify("A1", 50i64)).unwrap();
        let reports = src.monitor().poll();
        let report = &reports[0];
        let mut rb = RemoteBase::new(&chan).with_report(report);
        // path(ROOT, A1) from the report.
        assert_eq!(
            rb.path_from_root(oid("ROOT"), oid("A1")),
            Some(Path::parse("professor.age"))
        );
        // ancestor(A1, age) from the report's OID list.
        assert_eq!(rb.ancestor(oid("A1"), &Path::parse("age")), Some(oid("P1")));
        // label from the L2 payload.
        assert_eq!(rb.label_of(oid("A1")).unwrap().as_str(), "age");
        assert_eq!(meter.queries(), 0, "all answered from the report");
    }

    #[test]
    fn query_tier_used_when_report_lacks_data() {
        let src = person_source(ReportLevel::OidsOnly);
        let meter = Arc::new(CostMeter::new());
        let chan = channel_for(&src, meter.clone());
        src.apply(Update::modify("A1", 50i64)).unwrap();
        let reports = src.monitor().poll();
        let mut rb = RemoteBase::new(&chan).with_report(&reports[0]);
        assert_eq!(
            rb.path_from_root(oid("ROOT"), oid("A1")),
            Some(Path::parse("professor.age"))
        );
        assert!(meter.queries() >= 1, "L1 reports force query-back");
    }

    #[test]
    fn eval_tests_condition_locally() {
        let src = person_source(ReportLevel::OidsOnly);
        let meter = Arc::new(CostMeter::new());
        let chan = channel_for(&src, meter.clone());
        let mut rb = RemoteBase::new(&chan);
        let le45 = Pred::new(CmpOp::Le, 45i64);
        let result = rb.eval(oid("P1"), &Path::parse("age"), Some(&le45));
        assert_eq!(result, vec![oid("A1")]);
        assert_eq!(meter.queries(), 1, "one Reach round trip");
    }

    #[test]
    fn cache_tier_avoids_queries() {
        let src = person_source(ReportLevel::WithValues);
        let meter = Arc::new(CostMeter::new());
        let chan = channel_for(&src, meter.clone());
        let cache = crate::cache::AuxCache::build(oid("ROOT"), Path::parse("professor.age"), &mut |q| chan.serve(q));
        meter.reset();
        let mut rb = RemoteBase::new(&chan).with_cache(&cache);
        let le45 = Pred::new(CmpOp::Le, 45i64);
        assert_eq!(
            rb.eval(oid("P1"), &Path::parse("age"), Some(&le45)),
            vec![oid("A1")]
        );
        assert_eq!(
            rb.path_from_root(oid("ROOT"), oid("P2")),
            Some(Path::parse("professor"))
        );
        assert_eq!(rb.ancestor(oid("A1"), &Path::parse("age")), Some(oid("P1")));
        assert_eq!(meter.queries(), 0, "cache answers everything");
    }

    /// A port that fails a fixed number of times before recovering.
    struct Flaky {
        inner: Wrapper,
        failures: AtomicU64,
    }

    impl QueryPort for Flaky {
        fn query(&self, q: &SourceQuery) -> Result<SourceReply, QueryFault> {
            if self.failures.load(Ordering::Relaxed) > 0 {
                self.failures.fetch_sub(1, Ordering::Relaxed);
                return Err(QueryFault::Timeout);
            }
            Ok(self.inner.serve(q))
        }
    }

    #[test]
    fn channel_retries_through_transient_faults() {
        let src = person_source(ReportLevel::OidsOnly);
        let meter = Arc::new(CostMeter::new());
        let port = Flaky {
            inner: src.wrapper(meter.clone()),
            failures: AtomicU64::new(2),
        };
        let chan = Channel::new(
            "persons",
            Arc::new(port),
            meter.clone(),
            RetryPolicy {
                max_retries: 3,
                base_backoff_ms: 10,
                max_backoff_ms: 1_000,
            },
            SimClock::new(),
            Arc::new(DeadLetterQueue::new()),
        );
        let reply = chan.serve(&SourceQuery::Fetch(oid("P1")));
        assert!(matches!(reply, Some(SourceReply::Object(Some(_)))));
        assert_eq!(meter.retries(), 2);
        assert_eq!(chan.exhausted(), 0);
        assert!(chan.dead_letters().is_empty());
        // Backoff 10 + 20 advanced on the shared clock.
        assert_eq!(chan.clock().now_ms(), 30);
    }

    #[test]
    fn channel_dead_letters_exhausted_queries() {
        let src = person_source(ReportLevel::OidsOnly);
        let meter = Arc::new(CostMeter::new());
        let port = Flaky {
            inner: src.wrapper(meter.clone()),
            failures: AtomicU64::new(100),
        };
        let chan = Channel::new(
            "persons",
            Arc::new(port),
            meter.clone(),
            RetryPolicy {
                max_retries: 2,
                base_backoff_ms: 5,
                max_backoff_ms: 1_000,
            },
            SimClock::new(),
            Arc::new(DeadLetterQueue::new()),
        );
        assert_eq!(chan.serve(&SourceQuery::Fetch(oid("P1"))), None);
        assert_eq!(chan.exhausted(), 1);
        let letters = chan.dead_letters().drain();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].attempts, 3, "1 try + 2 retries");
        assert_eq!(letters[0].fault, QueryFault::Timeout);
        assert_eq!(letters[0].source, "persons");
        // And RemoteBase degrades to a non-answer, not a panic.
        let mut rb = RemoteBase::new(&chan);
        assert_eq!(rb.fetch(oid("P1")), None);
        assert_eq!(chan.exhausted(), 2);
    }
}
