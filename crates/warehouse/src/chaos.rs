//! Deterministic fault injection for the warehouse pipeline, and the
//! chaos differential harness that proves recovery from it.
//!
//! [`ChaosPolicy`] is a seeded description of how unreliable a source
//! is; [`FaultyMonitor`] and [`FaultyWrapper`] are decorators that
//! realize it — they drop, duplicate, delay and reorder update
//! reports, downgrade report levels mid-stream (L3 → L1), and make
//! source queries fail or time out. Each draws from the workspace's one
//! fault schedule ([`gsview_obs::fault`]) under the policy's seed, so a
//! failing scenario replays exactly from its seed, and every injection
//! is a `chaos.inject` event naming its boundary and draw index.
//!
//! [`run_scenario`] is the differential harness: the same update
//! stream is run through a fault-free sequential Algorithm 1 pass
//! (the PR-1 oracle) and through a chaos-wrapped warehouse pipeline
//! with detection + resync enabled, and the post-recovery views must
//! be member-identical and pass the consistency checker.

use crate::protocol::{CostMeter, QueryFault, ReportLevel, SourceQuery, SourceReply, UpdateReport};
use crate::resync::RetryPolicy;
use crate::source::{Monitor, QueryPort, ReportSource, Source, Wrapper};
use crate::warehouse::{ViewOptions, Warehouse};
use gsdb::{Oid, Result, Store, StoreConfig, Update};
use gsview_core::{consistency, oracle, SimpleViewDef};
use gsview_obs::fault::Stream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A seeded description of source unreliability. All probabilities are
/// independent per report / per query attempt; `0.0` everywhere (the
/// default) makes the decorators transparent.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPolicy {
    /// Schedule seed; the same policy + stream replays identically.
    pub seed: u64,
    /// Probability a report is dropped outright.
    pub drop_prob: f64,
    /// Probability a delivered report is delivered twice.
    pub dup_prob: f64,
    /// Probability a report is delayed to a later poll.
    pub delay_prob: f64,
    /// Probability a poll's batch has two adjacent reports swapped.
    pub reorder_prob: f64,
    /// Probability a report is downgraded to level 1 (its L2/L3
    /// payloads stripped) before delivery.
    pub downgrade_prob: f64,
    /// Probability a query attempt fails as [`QueryFault::Unavailable`].
    pub query_fail_prob: f64,
    /// Probability a query attempt fails as [`QueryFault::Timeout`].
    pub query_timeout_prob: f64,
}

impl Default for ChaosPolicy {
    fn default() -> Self {
        ChaosPolicy {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            reorder_prob: 0.0,
            downgrade_prob: 0.0,
            query_fail_prob: 0.0,
            query_timeout_prob: 0.0,
        }
    }
}

impl ChaosPolicy {
    /// A transparent policy with the given seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            ..ChaosPolicy::default()
        }
    }

    /// Report loss only, at probability `p`.
    pub fn lossy(seed: u64, p: f64) -> Self {
        ChaosPolicy {
            seed,
            drop_prob: p,
            ..ChaosPolicy::default()
        }
    }
}

/// What the fault injectors actually did (for experiment reporting and
/// test assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Reports delivered (including duplicates).
    pub delivered: u64,
    /// Reports dropped.
    pub dropped: u64,
    /// Reports delivered twice.
    pub duplicated: u64,
    /// Reports pushed to a later poll.
    pub delayed: u64,
    /// Polls whose batch was reordered.
    pub reordered: u64,
    /// Reports stripped to level 1.
    pub downgraded: u64,
    /// Query attempts failed.
    pub query_faults: u64,
}

/// A monitor decorator that injects report-stream faults according to
/// a [`ChaosPolicy`].
///
/// Checkpoints pass through unfaulted: they are control-plane
/// metadata (the equivalent of a heartbeat/watermark), and the inner
/// monitor's sequence counter already includes every dropped report —
/// which is exactly what lets the warehouse detect tail loss.
pub struct FaultyMonitor {
    inner: Monitor,
    policy: ChaosPolicy,
    faults: Stream,
    pending: Mutex<Vec<UpdateReport>>,
    stats: Mutex<ChaosStats>,
}

impl FaultyMonitor {
    /// Decorate a monitor.
    pub fn new(inner: Monitor, policy: ChaosPolicy) -> Self {
        FaultyMonitor {
            inner,
            policy,
            faults: Stream::new(policy.seed, "monitor"),
            pending: Mutex::new(Vec::new()),
            stats: Mutex::new(ChaosStats::default()),
        }
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> ChaosStats {
        *self.stats.lock().unwrap()
    }

    /// Reports still held back by delay faults. Draining models the
    /// late arrivals finally landing; never draining models loss.
    #[must_use = "unprocessed reports silently corrupt the warehouse's views"]
    pub fn drain_delayed(&self) -> Vec<UpdateReport> {
        std::mem::take(&mut *self.pending.lock().unwrap())
    }

    /// Poll the inner monitor and push the fresh reports through the
    /// fault model, together with any previously delayed reports.
    #[must_use = "unprocessed reports silently corrupt the warehouse's views"]
    pub fn poll(&self) -> Vec<UpdateReport> {
        let fresh = self.inner.poll();
        let p = &self.policy;
        let mut stats = self.stats.lock().unwrap();
        let mut out: Vec<UpdateReport> = self.pending.lock().unwrap().drain(..).collect();
        let inject = |kind: &'static str, k: u64, seq: u64| {
            gsview_obs::event!(
                "chaos.inject",
                "boundary" = self.faults.boundary(),
                "kind" = kind,
                "k" = k,
                "seq" = seq
            );
        };
        for mut report in fresh {
            let d = self.faults.draw();
            if d.chance(p.drop_prob) {
                stats.dropped += 1;
                inject("drop", d.k, report.seq);
                continue;
            }
            let d = self.faults.draw();
            if d.chance(p.downgrade_prob) && report.effective_level() > ReportLevel::OidsOnly {
                report.info.clear();
                report.paths.clear();
                stats.downgraded += 1;
                inject("downgrade", d.k, report.seq);
            }
            let d = self.faults.draw();
            if d.chance(p.delay_prob) {
                stats.delayed += 1;
                inject("delay", d.k, report.seq);
                self.pending.lock().unwrap().push(report);
                continue;
            }
            let d = self.faults.draw();
            if d.chance(p.dup_prob) {
                stats.duplicated += 1;
                stats.delivered += 1;
                inject("duplicate", d.k, report.seq);
                out.push(report.clone());
            }
            stats.delivered += 1;
            out.push(report);
        }
        if out.len() >= 2 {
            let d = self.faults.draw();
            if d.chance(p.reorder_prob) {
                let i = self.faults.draw().below(out.len() as u64 - 1) as usize;
                out.swap(i, i + 1);
                stats.reordered += 1;
                inject("reorder", d.k, out[i + 1].seq);
            }
        }
        out
    }
}

impl ReportSource for FaultyMonitor {
    fn poll_reports(&self) -> Vec<UpdateReport> {
        self.poll()
    }

    fn checkpoint(&self) -> (String, u64) {
        self.inner.checkpoint()
    }
}

/// A wrapper decorator that makes queries fail or time out according
/// to a [`ChaosPolicy`]. Failed attempts are charged to the wrapped
/// wrapper's (per-source) cost meter as faults.
pub struct FaultyWrapper {
    inner: Wrapper,
    policy: ChaosPolicy,
    faults: Stream,
    injected: AtomicU64,
}

impl FaultyWrapper {
    /// Decorate a wrapper.
    pub fn new(inner: Wrapper, policy: ChaosPolicy) -> Self {
        FaultyWrapper {
            inner,
            policy,
            faults: Stream::new(policy.seed, "wrapper"),
            injected: AtomicU64::new(0),
        }
    }

    /// Query faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl QueryPort for FaultyWrapper {
    fn query(&self, q: &SourceQuery) -> std::result::Result<SourceReply, QueryFault> {
        let d = self.faults.draw();
        let p = &self.policy;
        let fault = d
            .pick(&[p.query_fail_prob, p.query_timeout_prob])
            .map(|i| [QueryFault::Unavailable, QueryFault::Timeout][i]);
        if let Some(fault) = fault {
            self.injected.fetch_add(1, Ordering::Relaxed);
            gsview_obs::event!(
                "chaos.inject",
                "boundary" = self.faults.boundary(),
                "kind" = "query_fault",
                "k" = d.k,
                "fault" = fault.to_string()
            );
            self.inner.meter().record_fault(q, fault);
            return Err(fault);
        }
        Ok(self.inner.serve(q))
    }
}

// ----------------------------------------------------------------------
// The chaos differential harness
// ----------------------------------------------------------------------

/// One seeded fault scenario for [`run_scenario`].
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    /// The level the source's monitor reports at (before downgrades).
    pub level: ReportLevel,
    /// The fault model.
    pub policy: ChaosPolicy,
    /// Retry budget for queries through the faulty wrapper.
    pub retry: RetryPolicy,
    /// View maintenance options (aux cache, screening, …).
    pub options: ViewOptions,
    /// Updates applied between monitor polls.
    pub poll_every: usize,
    /// Resync attempts allowed before declaring the scenario failed
    /// (each attempt can itself lose queries to chaos).
    pub max_resync_rounds: usize,
}

impl Default for ChaosScenario {
    fn default() -> Self {
        ChaosScenario {
            level: ReportLevel::WithValues,
            policy: ChaosPolicy::default(),
            retry: RetryPolicy::default(),
            options: ViewOptions::default(),
            poll_every: 3,
            max_resync_rounds: 16,
        }
    }
}

/// The harness's verdict: what chaos did, what recovery did, and every
/// way the recovered pipeline disagrees with the fault-free run.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Final membership of the fault-free sequential run.
    pub expected: Vec<Oid>,
    /// Final membership of the chaos pipeline after recovery.
    pub members: Vec<Oid>,
    /// What the report-stream injector did.
    pub monitor_stats: ChaosStats,
    /// Gaps the warehouse detected (per-view count).
    pub gaps_detected: u64,
    /// Duplicate reports the warehouse dropped (per-view count).
    pub duplicates_dropped: u64,
    /// Resyncs performed across all views.
    pub resyncs: u64,
    /// Resync rounds needed to heal every view (0 = never went stale).
    pub resync_rounds: usize,
    /// Queries that exhausted retries (dead letters at the end).
    pub dead_letters: usize,
    /// Total simulated backoff latency.
    pub backoff_ms: u64,
    /// Human-readable disagreements. Empty = the pipeline recovered
    /// byte-identically (member set + consistency check).
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// True iff the pipeline recovered exactly.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Rebuild `initial` into a store with monitoring enabled (the chaos
/// source needs an update log regardless of how the caller built the
/// initial state).
fn logging_copy(initial: &Store) -> Result<Store> {
    let mut s = Store::with_config(StoreConfig {
        parent_index: true,
        label_index: true,
        log_updates: true,
        ..StoreConfig::default()
    });
    s.create_all(initial.iter().cloned())?;
    s.drain_log();
    Ok(s)
}

/// Run one seeded fault scenario and compare against the fault-free
/// sequential run.
///
/// The pipeline: a [`Source`] at `sc.level`, its monitor wrapped in a
/// [`FaultyMonitor`] and its wrapper in a [`FaultyWrapper`]; a
/// [`Warehouse`] with gap detection, retries and the dead-letter queue
/// armed. After the stream ends, delayed reports land, the warehouse
/// reconciles against the monitor's checkpoint (tail-loss detection)
/// and resyncs stale views until every view is `Consistent` again (or
/// `sc.max_resync_rounds` is exhausted). Updates the store rejects are
/// skipped identically on both runs.
pub fn run_scenario(
    def: &SimpleViewDef,
    initial: &Store,
    updates: &[Update],
    sc: &ChaosScenario,
) -> Result<ChaosReport> {
    // Route 1: the fault-free oracle (sequential Algorithm 1,
    // consistency-checked at the end).
    let mut report = ChaosReport {
        expected: oracle::reference_members(def, initial, updates)?,
        ..ChaosReport::default()
    };

    // Route 2: the chaos pipeline.
    let source = Source::new("chaos", def.root, logging_copy(initial)?, sc.level);
    let monitor = FaultyMonitor::new(source.monitor(), sc.policy);
    let mut wh = Warehouse::new().with_retry_policy(sc.retry);
    let meter = Arc::new(CostMeter::new());
    let port = FaultyWrapper::new(source.wrapper(meter.clone()), sc.policy);
    wh.connect_port(source.name(), Arc::new(port), meter, source.next_seq());
    let view = wh.add_view("chaos", def.clone(), sc.options.clone())?;

    let poll_every = sc.poll_every.max(1);
    let mut since_poll = 0usize;
    for u in updates {
        if source.apply(u.clone()).is_err() {
            continue; // skipped identically by the oracle
        }
        since_poll += 1;
        if since_poll >= poll_every {
            since_poll = 0;
            for r in monitor.poll() {
                wh.handle_report(&r)?;
            }
        }
    }
    // End of stream: final poll, then the delayed stragglers land.
    for r in monitor.poll() {
        wh.handle_report(&r)?;
    }
    for r in monitor.drain_delayed() {
        wh.handle_report(&r)?;
    }
    // Tail-loss detection against the control-plane checkpoint.
    let (name, next_seq) = monitor.checkpoint();
    wh.reconcile(&name, next_seq);

    // Self-healing: resync until consistent (chaos can fail a resync's
    // own queries, so this may take several rounds).
    let mut rounds = 0usize;
    while !wh.stale_views().is_empty() && rounds < sc.max_resync_rounds {
        rounds += 1;
        for (_, outcome) in wh.resync_stale()? {
            if outcome.healed {
                report.resyncs += 1;
            }
        }
    }
    report.resync_rounds = rounds;

    // Verdict.
    report.monitor_stats = monitor.stats();
    report.dead_letters = wh.dead_letters().len();
    report.backoff_ms = wh.clock().now_ms();
    if let Some(stats) = wh.view_stats(view) {
        report.gaps_detected = stats.gaps_detected;
        report.duplicates_dropped = stats.duplicates_dropped;
    }
    report.members = wh
        .view(view)
        .map(|mv| mv.members_base())
        .unwrap_or_default();

    for v in wh.stale_views() {
        report
            .failures
            .push(format!("view {v} left permanently stale after {rounds} resync rounds"));
    }
    if let Some(diff) = oracle::diff_members("chaos vs fault-free", &report.members, &report.expected)
    {
        report.failures.push(diff);
    }
    // The consistency checker, evaluated against the live source
    // through the (still faulty) channel: retry until it gets a clean
    // read or the round budget is spent.
    if let Some(mv) = wh.view(view) {
        let problems = source.with_store(|s| {
            consistency::check(def, &mut gsview_core::LocalBase::new(s), mv)
        });
        for p in problems {
            report.failures.push(format!("consistency: {p}"));
        }
    }
    Ok(report)
}

/// [`run_scenario`], panicking with replayable context on divergence.
pub fn assert_recovers(
    def: &SimpleViewDef,
    initial: &Store,
    updates: &[Update],
    sc: &ChaosScenario,
) -> ChaosReport {
    let report = run_scenario(def, initial, updates, sc).expect("chaos scenario run failed");
    if !report.ok() {
        let ops: Vec<String> = updates.iter().map(|u| u.to_string()).collect();
        let msg = format!(
            "chaos pipeline failed to recover for `{def}`\n\
             seed: {seed:#x}, level: {level}, policy: {policy:?}\n\
             updates: [{ops}]\nchaos: {stats:?}\nfailures:\n  {failures}",
            seed = sc.policy.seed,
            level = sc.level,
            policy = sc.policy,
            ops = ops.join(", "),
            stats = report.monitor_stats,
            failures = report.failures.join("\n  ")
        );
        gsview_obs::failure(&msg);
        panic!("{msg}");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::samples;
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    fn yp_def() -> SimpleViewDef {
        SimpleViewDef::new("YP", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64))
    }

    fn chaos_source(level: ReportLevel) -> Source {
        let src = Source::empty("persons", oid("ROOT"), level);
        src.with_store(|s| samples::person_db(s).map(|_| ())).unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    #[test]
    fn transparent_policy_changes_nothing() {
        let src = chaos_source(ReportLevel::WithPaths);
        let fm = FaultyMonitor::new(src.monitor(), ChaosPolicy::seeded(1));
        src.apply(Update::modify("A1", 50i64)).unwrap();
        src.apply(Update::modify("A1", 30i64)).unwrap();
        let reports = fm.poll();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].seq, 0);
        assert_eq!(reports[1].seq, 1);
        assert_eq!(fm.stats().dropped, 0);
        assert_eq!(fm.stats().delivered, 2);
    }

    #[test]
    fn drop_faults_are_deterministic_per_seed() {
        let run = |seed| {
            let src = chaos_source(ReportLevel::OidsOnly);
            let fm = FaultyMonitor::new(
                src.monitor(),
                ChaosPolicy {
                    drop_prob: 0.5,
                    ..ChaosPolicy::seeded(seed)
                },
            );
            for i in 0..50 {
                src.apply(Update::modify("A1", i as i64)).unwrap();
            }
            fm.poll().iter().map(|r| r.seq).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same faults");
        assert_ne!(run(7), run(8), "different seed, different faults");
        assert!(run(7).len() < 50, "half the stream should drop");
    }

    #[test]
    fn downgrade_strips_payload_but_keeps_oids() {
        let src = chaos_source(ReportLevel::WithPaths);
        let fm = FaultyMonitor::new(
            src.monitor(),
            ChaosPolicy {
                downgrade_prob: 1.0,
                ..ChaosPolicy::seeded(3)
            },
        );
        src.apply(Update::modify("A1", 50i64)).unwrap();
        let reports = fm.poll();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].effective_level(), ReportLevel::OidsOnly);
        assert!(!reports[0].update.directly_affected().is_empty());
        assert_eq!(fm.stats().downgraded, 1);
    }

    #[test]
    fn delayed_reports_arrive_on_a_later_poll() {
        let src = chaos_source(ReportLevel::OidsOnly);
        let fm = FaultyMonitor::new(
            src.monitor(),
            ChaosPolicy {
                delay_prob: 1.0,
                ..ChaosPolicy::seeded(4)
            },
        );
        src.apply(Update::modify("A1", 50i64)).unwrap();
        assert!(fm.poll().is_empty(), "everything delayed");
        assert_eq!(fm.stats().delayed, 1);
        let late = fm.drain_delayed();
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].seq, 0);
    }

    #[test]
    fn faulty_wrapper_fails_queries_and_meters_them() {
        let src = chaos_source(ReportLevel::OidsOnly);
        let meter = std::sync::Arc::new(crate::protocol::CostMeter::new());
        let fw = FaultyWrapper::new(
            src.wrapper(meter.clone()),
            ChaosPolicy {
                query_fail_prob: 1.0,
                ..ChaosPolicy::seeded(5)
            },
        );
        let q = SourceQuery::Fetch(oid("P1"));
        assert_eq!(fw.query(&q), Err(QueryFault::Unavailable));
        assert_eq!(fw.injected_faults(), 1);
        assert_eq!(meter.faults(), 1);
        assert_eq!(meter.queries(), 0, "no successful round trip");
    }

    #[test]
    fn scenario_with_no_faults_matches_oracle_without_resync() {
        let report = assert_recovers(
            &yp_def(),
            &person_store(),
            &[
                Update::modify("A1", 50i64),
                Update::modify("A1", 30i64),
                Update::delete("ROOT", "P2"),
            ],
            &ChaosScenario::default(),
        );
        assert_eq!(report.gaps_detected, 0);
        assert_eq!(report.resyncs, 0);
        assert_eq!(report.members, vec![oid("P1")]);
    }

    #[test]
    fn lossy_scenario_detects_gaps_and_heals() {
        let report = assert_recovers(
            &yp_def(),
            &person_store(),
            &[
                Update::modify("A1", 50i64),
                Update::modify("A1", 30i64),
                Update::modify("A1", 80i64),
                Update::delete("ROOT", "P2"),
                Update::insert("ROOT", "P2"),
                Update::modify("A1", 20i64),
            ],
            &ChaosScenario {
                policy: ChaosPolicy::lossy(11, 0.5),
                poll_every: 1,
                ..ChaosScenario::default()
            },
        );
        assert!(report.monitor_stats.dropped > 0, "seed 11 must drop something");
        assert!(report.gaps_detected > 0, "losses must be detected");
        assert!(report.resyncs > 0, "healing must have happened");
    }

    #[test]
    fn downgrade_mid_stream_recovers_without_panic() {
        // L3 source whose reports keep collapsing to L1: the
        // maintainer falls back to querying the source.
        let report = assert_recovers(
            &yp_def(),
            &person_store(),
            &[
                Update::modify("A1", 50i64),
                Update::delete("P1", "A1"),
                Update::insert("P1", "A1"),
                Update::modify("A1", 44i64),
            ],
            &ChaosScenario {
                level: ReportLevel::WithPaths,
                policy: ChaosPolicy {
                    downgrade_prob: 0.7,
                    ..ChaosPolicy::seeded(12)
                },
                poll_every: 1,
                ..ChaosScenario::default()
            },
        );
        assert_eq!(report.members, vec![oid("P1")]);
    }

    #[test]
    fn query_faults_with_retries_still_converge() {
        let _ = assert_recovers(
            &yp_def(),
            &person_store(),
            &[
                Update::modify("A1", 50i64),
                Update::delete("ROOT", "P1"),
                Update::insert("ROOT", "P1"),
                Update::modify("A1", 20i64),
            ],
            &ChaosScenario {
                level: ReportLevel::OidsOnly, // forces query-backs
                policy: ChaosPolicy {
                    query_fail_prob: 0.2,
                    query_timeout_prob: 0.1,
                    ..ChaosPolicy::seeded(13)
                },
                poll_every: 2,
                ..ChaosScenario::default()
            },
        );
    }
}
