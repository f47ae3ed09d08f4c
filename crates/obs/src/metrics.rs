//! Metrics: sharded counters, log₂ histograms, and a registry with
//! seqlock-consistent snapshots.
//!
//! The consistency discipline is lifted from the warehouse
//! `CostMeter`: writers that must move several counters *as one
//! observable step* bracket the adds with [`Registry::section`]
//! (bump `writers`, bump `gen`, …adds…, bump `gen`, drop `writers`);
//! [`Registry::snapshot`] retries until it reads a quiet generation
//! with no writer in flight, so a snapshot never reflects half of a
//! section. Plain un-sectioned adds stay what they always were —
//! independent relaxed increments.
//!
//! Counters are **sharded**: each add lands on a cache-line-padded
//! per-thread-bucket atomic, so parallel maintenance threads bumping
//! the same logical counter do not bounce one cache line between
//! cores. Reads sum the shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of shards per counter. Power of two; plenty for the thread
/// counts this workspace fans out to (≤ 8 maintenance threads).
const SHARDS: usize = 16;

/// One cache line per shard so adds from different threads don't
/// false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

/// A named monotonic counter with per-thread-bucket shards.
#[derive(Debug)]
pub struct Counter {
    name: String,
    shards: [Shard; SHARDS],
}

impl Counter {
    /// New zeroed counter.
    pub fn new(name: impl Into<String>) -> Counter {
        Counter {
            name: name.into(),
            shards: Default::default(),
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add `n` (relaxed, on this thread's shard).
    #[inline]
    pub fn add(&self, n: u64) {
        let shard = crate::thread_id() as usize & (SHARDS - 1);
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total (sum over shards).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zero every shard. Wrap in a [`Registry::section`] when a
    /// concurrent snapshot must see all-or-nothing.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Number of log₂ buckets: bucket 0 holds value 0, bucket *i* holds
/// values with bit length *i* (so `[2^(i-1), 2^i)`), up to bucket 64.
const BUCKETS: usize = 65;

/// A histogram over `u64` samples with log₂-width buckets.
///
/// Recording is one relaxed add per sample (plus min/max upkeep);
/// 65 buckets cover the full `u64` range, so nanosecond latencies and
/// object counts share one type.
#[derive(Debug)]
pub struct Histogram {
    name: String,
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound (exclusive) of a bucket, saturating at `u64::MAX`.
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new(name: impl Into<String>) -> Histogram {
        Histogram {
            name: name.into(),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy (consistent when taken via
    /// [`Registry::snapshot`] under a quiet generation).
    pub fn read(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Zero all state.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket counts; bucket *i* holds values of bit length *i*.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 when empty. Log₂ resolution — intended
    /// for order-of-magnitude reporting, not exact percentiles.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Estimate the `q`-quantile sample (`q` in `[0, 1]`) by linear
    /// interpolation *inside* the covering log₂ bucket, clamped to the
    /// observed `[min, max]`. Much tighter than [`Self::quantile`]'s
    /// bucket upper bound: the worst-case error is the bucket width
    /// around the true value (a factor of 2), and in practice far less
    /// because the clamp pins the tails to real samples. This is the
    /// estimator `gsview-top` and the E19/E20 smoke gates use.
    pub fn estimate(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Bucket i covers [2^(i-1), 2^i); bucket 0 is the
                // exact value 0. Place the rank-th sample uniformly
                // within the bucket (midpoint convention).
                let lo = if i == 0 {
                    0.0
                } else {
                    bucket_upper(i - 1) as f64
                };
                let hi = bucket_upper(i) as f64;
                let into = (rank - seen) as f64 - 0.5;
                let frac = (into / c as f64).clamp(0.0, 1.0);
                let est = lo + (hi - lo) * frac;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Interpolated median estimate (see [`Self::estimate`]).
    pub fn p50(&self) -> u64 {
        self.estimate(0.50)
    }

    /// Interpolated 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.estimate(0.90)
    }

    /// Interpolated 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.estimate(0.99)
    }
}

/// A registry of named counters and histograms with consistent
/// snapshots. Cheap to construct — subsystems that need private
/// accounting (one `CostMeter` per source) own their own registry;
/// [`registry()`] is the process-global one.
#[derive(Debug, Default)]
pub struct Registry {
    /// Seqlock generation: bumped on entry and exit of every write
    /// section.
    gen: AtomicU64,
    /// Writers currently inside a section (`gen` alone cannot flag a
    /// writer that entered before our first read and is still going).
    writers: AtomicU64,
    counters: Mutex<Vec<Arc<Counter>>>,
    histograms: Mutex<Vec<Arc<Histogram>>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, creating it on first use. Call sites
    /// on hot paths should cache the returned `Arc`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap();
        if let Some(c) = counters.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        let c = Arc::new(Counter::new(name));
        counters.push(c.clone());
        c
    }

    /// The histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().unwrap();
        if let Some(h) = histograms.iter().find(|h| h.name() == name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new(name));
        histograms.push(h.clone());
        h
    }

    /// Open a multi-counter write section: every add performed while
    /// the guard lives is observed by [`Registry::snapshot`] as one
    /// atomic step (all or nothing).
    #[inline]
    pub fn section(&self) -> SectionGuard<'_> {
        self.writers.fetch_add(1, Ordering::SeqCst);
        self.gen.fetch_add(1, Ordering::SeqCst);
        SectionGuard { registry: self }
    }

    /// Capture every metric consistently: the result corresponds to a
    /// state between two whole write sections, never inside one.
    /// Retries (briefly) while writers are in a section.
    pub fn snapshot(&self) -> MetricsSnapshot {
        loop {
            let g1 = self.gen.load(Ordering::SeqCst);
            if self.writers.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
                continue;
            }
            let counters: Vec<(String, u64)> = self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|c| (c.name().to_string(), c.get()))
                .collect();
            let histograms: Vec<(String, HistogramSnapshot)> = self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|h| (h.name().to_string(), h.read()))
                .collect();
            if self.gen.load(Ordering::SeqCst) == g1 && self.writers.load(Ordering::SeqCst) == 0 {
                return MetricsSnapshot {
                    counters,
                    histograms,
                };
            }
        }
    }

    /// Zero every metric as one write section: a concurrent snapshot
    /// sees either the whole pre-reset state or all zeros.
    pub fn reset(&self) {
        let _section = self.section();
        for c in self.counters.lock().unwrap().iter() {
            c.reset();
        }
        for h in self.histograms.lock().unwrap().iter() {
            h.reset();
        }
    }
}

/// RAII guard for a [`Registry::section`].
#[must_use = "dropping the guard immediately closes the write section"]
pub struct SectionGuard<'a> {
    registry: &'a Registry,
}

impl Drop for SectionGuard<'_> {
    fn drop(&mut self) {
        self.registry.gen.fetch_add(1, Ordering::SeqCst);
        self.registry.writers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A consistent point-in-time copy of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every registered histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name` (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Snapshot of the histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// The process-global registry (DLQ counters, query-plan counters, …).
/// Subsystem-private accounting should own its own [`Registry`].
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_shards() {
        let c = Counter::new("c");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4004);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn registry_interns_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(7);
        assert_eq!(r.snapshot().counter("x"), 7);
        assert_eq!(r.snapshot().counter("never"), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new("h");
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.read();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1107);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // the single 0
        assert_eq!(s.buckets[1], 2); // the two 1s
        assert_eq!(s.buckets[2], 2); // 2 and 3
        assert!((s.mean() - 1107.0 / 7.0).abs() < 1e-9);
        assert!(s.quantile(0.5) <= 4);
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(Histogram::new("e").read().quantile(0.5), 0);
    }

    #[test]
    fn interpolated_estimates_track_known_distributions() {
        // Uniform 1..=1000: within a log₂ bucket the samples really
        // are uniform, so interpolation should land within a few
        // percent of the exact order statistics (500 / 900 / 990).
        let h = Histogram::new("u");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.read();
        assert!((480..=520).contains(&s.p50()), "p50 = {}", s.p50());
        assert!((850..=950).contains(&s.p90()), "p90 = {}", s.p90());
        assert!((950..=1000).contains(&s.p99()), "p99 = {}", s.p99());
        // Estimates are monotone in q and never exceed the max.
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        assert!(s.p99() <= s.max);

        // Constant distribution: the clamp pins every estimate to the
        // one observed value, regardless of bucket width.
        let c = Histogram::new("c");
        for _ in 0..100 {
            c.record(777);
        }
        let cs = c.read();
        assert_eq!(cs.p50(), 777);
        assert_eq!(cs.p99(), 777);
        assert_eq!(cs.estimate(0.0), 777);
        assert_eq!(cs.estimate(1.0), 777);

        // Bimodal: 99 fast samples at ~16, one slow outlier at 4096.
        // p50 sits in the fast mode; p99+ reaches toward the outlier
        // without the coarse bucket bound's 2x overshoot.
        let b = Histogram::new("b");
        for _ in 0..99 {
            b.record(16);
        }
        b.record(4096);
        let bs = b.read();
        assert!((16..=31).contains(&bs.p50()), "p50 = {}", bs.p50());
        assert!(bs.estimate(0.995) >= 2048, "tail = {}", bs.estimate(0.995));
        assert!(bs.estimate(1.0) <= 4096);

        // Empty histogram estimates 0 everywhere.
        assert_eq!(Histogram::new("e").read().p99(), 0);
    }

    #[test]
    fn sections_are_atomic_under_concurrent_snapshots() {
        // Mirrors the CostMeter seqlock test through the registry:
        // each writer section adds (1 a, 2 b), so every consistent
        // snapshot satisfies b == 2a.
        let r = Registry::new();
        let a = r.counter("a");
        let b = r.counter("b");
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 2_000;
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| {
                    for _ in 0..PER_WRITER {
                        let _section = r.section();
                        a.add(1);
                        b.add(2);
                    }
                });
            }
            s.spawn(|| loop {
                let snap = r.snapshot();
                let (av, bv) = (snap.counter("a"), snap.counter("b"));
                assert_eq!(bv, 2 * av, "torn snapshot: a={av} b={bv}");
                if av == WRITERS as u64 * PER_WRITER {
                    break;
                }
                std::thread::yield_now();
            });
        });
        assert_eq!(a.get(), WRITERS as u64 * PER_WRITER);
    }

    #[test]
    fn reset_is_atomic_with_respect_to_snapshots() {
        let r = Registry::new();
        let a = r.counter("a");
        let b = r.counter("b");
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..1_000 {
                    {
                        let _section = r.section();
                        a.add(1);
                        b.add(2);
                    }
                    r.reset();
                }
            });
            s.spawn(|| {
                for _ in 0..1_000 {
                    let snap = r.snapshot();
                    let (av, bv) = (snap.counter("a"), snap.counter("b"));
                    assert_eq!(bv, 2 * av, "torn reset: a={av} b={bv}");
                }
            });
        });
    }
}
