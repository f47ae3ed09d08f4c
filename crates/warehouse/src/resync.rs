//! Protocol hardening and self-healing primitives.
//!
//! The paper's warehousing architecture (§5, Figure 6) assumes every
//! update report arrives exactly once, in order, and that wrappers
//! answer every query. This module supplies what a production pipeline
//! needs when those assumptions break:
//!
//! * [`SeqTracker`] — per-source monotonic sequence accounting, so the
//!   integrator *detects* gaps and duplicates instead of trusting
//!   delivery;
//! * [`RetryPolicy`] — bounded retries with exponential backoff over a
//!   [`SimClock`] (a simulated clock, so chaos experiments stay
//!   deterministic and instantaneous);
//! * [`DeadLetterQueue`] — queries that exhausted their retries, kept
//!   for diagnosis instead of being silently swallowed;
//! * [`ViewState`] / [`StaleCause`] — the explicit degraded mode: a
//!   view that missed a report keeps serving reads but is flagged
//!   `Stale` until a resync restores `Consistent`;
//! * [`ResyncOutcome`] — what one healing pass did (diff repair from
//!   a read of the view's region, or escalation to the full-recompute
//!   baseline when a second read disagreed).
//!
//! Every query a healing pass issues travels the `Channel → Wrapper`
//! query port, and [`Wrapper::serve`](crate::source::Wrapper::serve)
//! answers from the source's latest **published epoch** — so each level
//! of a region read sees an immutable batch-boundary state, without
//! ever taking the source's store mutex, even while the source is
//! mid-commit on the next batch. Levels of one read may straddle a
//! commit; that is one of the things the second read is for.

use crate::protocol::{QueryFault, SourceQuery};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// ----------------------------------------------------------------------
// Simulated time
// ----------------------------------------------------------------------

/// A shared simulated clock, in milliseconds. Retried queries "wait
/// out" their backoff by advancing this clock, so experiments can
/// report total backoff latency without ever sleeping.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now_ms: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::Relaxed)
    }

    /// Advance the clock (all clones share the new time).
    pub fn advance_ms(&self, delta: u64) {
        self.now_ms.fetch_add(delta, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// Retries
// ----------------------------------------------------------------------

/// Bounded retries with exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every fault is terminal.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
        }
    }

    /// Tuned for a real network transport: a timed-out attempt has
    /// already cost its full read deadline in wall-clock before the
    /// retry accounting even starts, so the ramp starts higher and
    /// retries are fewer than the in-process default — retrying a
    /// dead TCP peer five times just multiplies the outage.
    pub fn network() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
        }
    }

    /// Backoff before retry number `attempt` (0-based): `base << attempt`,
    /// capped at `max_backoff_ms`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.base_backoff_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(self.max_backoff_ms)
    }
}

// ----------------------------------------------------------------------
// Dead letters
// ----------------------------------------------------------------------

/// A query that exhausted its retries.
#[derive(Clone, Debug, PartialEq)]
pub struct DeadLetter {
    /// The source the query was addressed to.
    pub source: String,
    /// The query itself.
    pub query: SourceQuery,
    /// The final fault.
    pub fault: QueryFault,
    /// Total attempts made (1 + retries).
    pub attempts: u32,
    /// Simulated time of the final failure.
    pub at_ms: u64,
}

/// A shared queue of dead letters. The warehouse never drops a failed
/// query silently: whatever maintenance could not learn is recorded
/// here, and the affected view is flagged [`ViewState::Stale`].
#[derive(Debug, Default)]
pub struct DeadLetterQueue {
    letters: Mutex<Vec<DeadLetter>>,
}

impl DeadLetterQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The queued letters, even behind a lock a panicking thread
    /// poisoned. That is sound because every critical section is one
    /// `Vec` call (a push, a length, a take) that either completes or
    /// leaves the vector as it was: a poisoned queue holds whole
    /// letters, and dropping them would lose what the warehouse
    /// promises never to lose.
    fn letters(&self) -> MutexGuard<'_, Vec<DeadLetter>> {
        self.letters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append a dead letter. Never silent: every entry emits a trace
    /// event (flight-recorder visible) and bumps the global
    /// `warehouse.dlq.enter` counter, so a chaos run can assert that
    /// nothing was lost without scraping logs.
    pub fn push(&self, letter: DeadLetter) {
        gsview_obs::event!(
            "warehouse.dlq.enter",
            "source" = letter.source.clone(),
            "fault" = letter.fault.to_string(),
            "attempts" = letter.attempts
        );
        gsview_obs::registry().counter("warehouse.dlq.enter").incr();
        self.letters().push(letter);
    }

    /// Number of queued letters.
    pub fn len(&self) -> usize {
        self.letters().len()
    }

    /// True iff no letters are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take all queued letters. Bumps `warehouse.dlq.leave` by the
    /// number taken, so `enter - leave` is the standing backlog.
    pub fn drain(&self) -> Vec<DeadLetter> {
        let letters = std::mem::take(&mut *self.letters());
        if !letters.is_empty() {
            gsview_obs::event!("warehouse.dlq.drain", "count" = letters.len());
            gsview_obs::registry()
                .counter("warehouse.dlq.leave")
                .add(letters.len() as u64);
        }
        letters
    }
}

// ----------------------------------------------------------------------
// Sequence accounting
// ----------------------------------------------------------------------

/// What a sequence number reveals about a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqVerdict {
    /// Exactly the expected next report.
    InOrder,
    /// Reports were lost (or delayed past their successors): `got`
    /// arrived where `expected` should have been.
    Gap {
        /// The sequence number that should have come next.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// An already-consumed sequence number arrived again (a duplicate,
    /// or a delayed report whose gap has since been handled).
    Duplicate {
        /// The sequence number that should have come next.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
}

/// Per-source monotonic sequence tracking.
///
/// On a gap the tracker *fast-forwards* past it: the missing reports
/// will never be re-delivered, so the right response is to flag the
/// views stale (the caller's job) and keep consuming the stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqTracker {
    next: Option<u64>,
}

impl SeqTracker {
    /// A tracker that accepts whatever sequence number arrives first.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracker expecting `next` as the first sequence number (the
    /// source's counter at connect time).
    pub fn with_baseline(next: u64) -> Self {
        SeqTracker { next: Some(next) }
    }

    /// The next expected sequence number, if any report (or baseline)
    /// has established one.
    pub fn next_expected(&self) -> Option<u64> {
        self.next
    }

    /// Account for an arriving report's sequence number.
    pub fn observe(&mut self, seq: u64) -> SeqVerdict {
        let verdict = match self.next {
            None => SeqVerdict::InOrder,
            Some(expected) if seq == expected => SeqVerdict::InOrder,
            Some(expected) if seq > expected => SeqVerdict::Gap { expected, got: seq },
            Some(expected) => return SeqVerdict::Duplicate { expected, got: seq },
        };
        self.next = Some(seq + 1);
        verdict
    }

    /// Account for a control-plane checkpoint: the source has emitted
    /// all sequence numbers below `next_seq`. Returns the tail gap, if
    /// reports are missing that no successor will ever reveal.
    pub fn reconcile(&mut self, next_seq: u64) -> Option<SeqVerdict> {
        let expected = self.next.unwrap_or(0);
        if next_seq <= expected {
            return None;
        }
        self.next = Some(next_seq);
        Some(SeqVerdict::Gap {
            expected,
            got: next_seq,
        })
    }
}

// ----------------------------------------------------------------------
// View health
// ----------------------------------------------------------------------

/// Why a view was flagged stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaleCause {
    /// A sequence gap: at least one update report was lost.
    ReportGap {
        /// The first missing sequence number.
        expected: u64,
        /// The sequence number whose arrival (or checkpoint) revealed
        /// the gap.
        got: u64,
    },
    /// A source query exhausted its retries during maintenance, so the
    /// maintenance result cannot be trusted.
    QueryFailure,
}

impl fmt::Display for StaleCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaleCause::ReportGap { expected, got } => {
                write!(f, "report gap: expected seq {expected}, saw {got}")
            }
            StaleCause::QueryFailure => write!(f, "source query exhausted retries"),
        }
    }
}

/// Health of one warehouse view.
///
/// A `Stale` view still serves reads — that is the graceful-degradation
/// contract — but its contents are best-effort until a resync restores
/// `Consistent`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ViewState {
    /// Maintained exactly; trustworthy.
    #[default]
    Consistent,
    /// Possibly diverged from the source; flagged, awaiting resync.
    Stale(StaleCause),
}

impl ViewState {
    /// True iff the view is flagged stale.
    pub fn is_stale(&self) -> bool {
        matches!(self, ViewState::Stale(_))
    }
}

impl fmt::Display for ViewState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewState::Consistent => write!(f, "consistent"),
            ViewState::Stale(cause) => write!(f, "stale ({cause})"),
        }
    }
}

/// What one resync pass accomplished.
#[must_use = "check `healed` — a view can stay stale if the source kept failing"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResyncOutcome {
    /// The view is `Consistent` again.
    pub healed: bool,
    /// Members inserted by the diff repair (from the first read).
    pub inserted: usize,
    /// Members deleted by the diff repair (from the first read).
    pub deleted: usize,
    /// The repaired view disagreed with the second read — the source
    /// moved between the two — and the full-recompute baseline was
    /// used instead.
    pub escalated: bool,
    /// Chunks fetched over the durable port (durable resync only:
    /// pages whose content hash changed since the warehouse last
    /// reconstructed this source, or that it had never seen).
    pub chunks_fetched: u64,
    /// Chunks served from the warehouse's hash-keyed page cache
    /// (durable resync only: unchanged pages, fetched for free).
    pub chunks_reused: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::Oid;

    #[test]
    fn tracker_detects_gaps_duplicates_and_fast_forwards() {
        let mut t = SeqTracker::new();
        assert_eq!(t.observe(0), SeqVerdict::InOrder);
        assert_eq!(t.observe(1), SeqVerdict::InOrder);
        // Loss of 2: seq 3 arrives.
        assert_eq!(
            t.observe(3),
            SeqVerdict::Gap {
                expected: 2,
                got: 3
            }
        );
        // Fast-forwarded: 4 is now in order.
        assert_eq!(t.observe(4), SeqVerdict::InOrder);
        // The delayed 2 finally arrives: duplicate/late.
        assert_eq!(
            t.observe(2),
            SeqVerdict::Duplicate {
                expected: 5,
                got: 2
            }
        );
        assert_eq!(t.next_expected(), Some(5));
    }

    #[test]
    fn tracker_baseline_rejects_replays_from_before_connect() {
        let mut t = SeqTracker::with_baseline(7);
        assert!(matches!(t.observe(3), SeqVerdict::Duplicate { .. }));
        assert_eq!(t.observe(7), SeqVerdict::InOrder);
    }

    #[test]
    fn reconcile_reveals_tail_loss() {
        let mut t = SeqTracker::new();
        assert_eq!(t.observe(0), SeqVerdict::InOrder);
        // Source says it emitted 0..3; we only saw 0.
        assert_eq!(
            t.reconcile(3),
            Some(SeqVerdict::Gap {
                expected: 1,
                got: 3
            })
        );
        // Caught up: a second checkpoint is quiet.
        assert_eq!(t.reconcile(3), None);
    }

    #[test]
    fn reconcile_on_a_fresh_tracker_flags_total_loss() {
        let mut t = SeqTracker::new();
        assert_eq!(
            t.reconcile(2),
            Some(SeqVerdict::Gap {
                expected: 0,
                got: 2
            })
        );
        assert_eq!(t.reconcile(0), None);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_ms: 10,
            max_backoff_ms: 100,
        };
        assert_eq!(p.backoff_ms(0), 10);
        assert_eq!(p.backoff_ms(1), 20);
        assert_eq!(p.backoff_ms(2), 40);
        assert_eq!(p.backoff_ms(5), 100, "capped");
        assert_eq!(p.backoff_ms(63), 100, "shift overflow capped");
    }

    #[test]
    fn clock_is_shared_across_clones() {
        let c = SimClock::new();
        let c2 = c.clone();
        c.advance_ms(40);
        c2.advance_ms(2);
        assert_eq!(c.now_ms(), 42);
    }

    #[test]
    fn dead_letters_accumulate_and_drain() {
        let q = DeadLetterQueue::new();
        assert!(q.is_empty());
        q.push(DeadLetter {
            source: "s1".into(),
            query: SourceQuery::Fetch(Oid::new("X")),
            fault: QueryFault::Timeout,
            attempts: 4,
            at_ms: 70,
        });
        assert_eq!(q.len(), 1);
        let drained = q.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].attempts, 4);
        assert!(q.is_empty());
    }

    #[test]
    fn view_state_displays_cause() {
        let s = ViewState::Stale(StaleCause::ReportGap {
            expected: 2,
            got: 5,
        });
        assert!(s.is_stale());
        assert!(s.to_string().contains("expected seq 2"));
        assert!(!ViewState::Consistent.is_stale());
    }
}
