//! The measurement kit: every clock read, percentile, segment median,
//! span and line of JSON the benchmark produces comes from here, so
//! the workloads contain no arithmetic on time and a later harness can
//! reuse the kit unchanged.
//!
//! Three rules shape it (see the README for why):
//!
//! * raw samples are kept as nanoseconds in a `Vec<u64>` and
//!   percentiles are exact (nearest rank) — no histogram buckets;
//! * a throughput is *phase-attributed* — an operation count divided
//!   by the time spent in that operation kind only — and is taken per
//!   [`SEGMENTS`] equal cuts of the measured rounds; a run reports the
//!   *quiet eighth* of the cuts ([`quiet_high`], [`quiet_low`]): a
//!   neighbour on the shared host only ever slows a cut down, for tens
//!   of seconds at a time, so the fast end of the cuts is the speed of
//!   the program and their median is the speed of the host;
//! * a span is recorded from outside the system under test, around a
//!   call into a layer's public functions, by the same [`Recorder::time`]
//!   call that yields the end-to-end sample — tracing on or off, the
//!   same code path is timed.

pub use gsview_obs::export::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Equal cuts of the measured rounds; every rate, latency and CPU cost
/// is computed per cut, and a run reports the quiet eighth of them.
pub const SEGMENTS: usize = 24;

// ----------------------------------------------------------------------
// Percentiles and medians
// ----------------------------------------------------------------------

/// Exact nearest-rank percentile of unsorted samples (`q` in `0..=1`).
/// Empty input yields 0.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted values (mean of the middle pair when even).
/// Empty input yields 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method) — the spread rule the benchmark's acceptance uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, linearly interpolated and
        // clamped to the sample range.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// The `q`-quantile (`q` in `0..=1`) of unsorted values, linearly
/// interpolated between order statistics. Empty input yields 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The share of a run's segments that has to be undisturbed for the
/// run to report the program's speed and not the host's.
pub const QUIET_SHARE: f64 = 0.125;

/// The quiet eighth of per-segment values where higher is better
/// (rates): their 0.875-quantile.
///
/// Why not the median: on a shared host a neighbour on the sibling
/// hardware thread or an overcommitted core slows the program by
/// 30–200 % for tens of seconds at a time and never speeds it up. The
/// disturbance is one-sided, so a high quantile of many short segments
/// estimates the undisturbed speed as long as an eighth of the run was
/// quiet, where the median needs half of it. Over 44 windows of 20 s
/// of a fixed loop on the baseline machine the median of 1-s segments
/// ranged over 31 % of itself, their upper quartile over 14 %, their
/// 0.9-quantile over 8 %. Not the maximum: one segment whose inputs
/// happen to be the cheapest would set it.
pub fn quiet_high(values: &[f64]) -> f64 {
    quantile(values, 1.0 - QUIET_SHARE)
}

/// The quiet eighth of per-segment values where lower is better
/// (latencies, CPU cost, restart times): their 0.125-quantile.
pub fn quiet_low(values: &[f64]) -> f64 {
    quantile(values, QUIET_SHARE)
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

// ----------------------------------------------------------------------
// The round log: phase-attributed samples of the closed loop
// ----------------------------------------------------------------------

/// The samples one round of the closed loop leaves behind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Round {
    /// `Source::apply_batch` alone.
    pub commit_ns: u64,
    /// `apply_batch` call start → last view maintained.
    pub visible_ns: u64,
    /// One read burst.
    pub read_ns: u64,
    /// Basic updates the commit applied.
    pub updates: u32,
    /// Reads in the burst.
    pub reads: u32,
}

/// The [`SEGMENTS`] equal cuts of `rounds` (a remainder of fewer than
/// [`SEGMENTS`] rounds joins the last cut).
pub fn segments(rounds: &[Round]) -> Vec<&[Round]> {
    let per = (rounds.len() / SEGMENTS).max(1);
    (0..SEGMENTS)
        .filter_map(|s| {
            let end = if s + 1 == SEGMENTS {
                rounds.len()
            } else {
                ((s + 1) * per).min(rounds.len())
            };
            rounds.get(s * per..end).filter(|cut| !cut.is_empty())
        })
        .collect()
}

/// `Σ count ÷ Σ seconds` within each cut of `rounds`.
pub fn segment_rates(
    rounds: &[Round],
    count: impl Fn(&Round) -> u64,
    nanos: impl Fn(&Round) -> u64,
) -> Vec<f64> {
    segments(rounds)
        .into_iter()
        .map(|seg| {
            let n: u64 = seg.iter().map(&count).sum();
            let t: u64 = seg.iter().map(&nanos).sum();
            n as f64 / (t.max(1) as f64 / 1e9)
        })
        .collect()
}

/// The median of `nanos` within each cut of `rounds`, in microseconds.
pub fn segment_medians_us(rounds: &[Round], nanos: impl Fn(&Round) -> u64) -> Vec<f64> {
    segments(rounds)
        .into_iter()
        .map(|seg| {
            us(percentile(
                &seg.iter().map(&nanos).collect::<Vec<u64>>(),
                0.50,
            ))
        })
        .collect()
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/// One recorded span: a call into a layer, timed from outside.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The round that caused it (spans of one round share it).
    pub round: u32,
}

impl Span {
    /// The layer (crate) the span charges: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct RecInner {
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

/// The benchmark's stopwatch and in-memory span recorder.
///
/// [`Recorder::time`] always returns the elapsed nanoseconds of the
/// closure; while recording is on it also keeps a [`Span`]. Spans nest
/// by call order on the driver thread — the only thread that calls
/// into the recorder while a span is open.
#[derive(Clone)]
pub struct Recorder {
    on: Arc<AtomicBool>,
    t0: Instant,
    inner: Arc<Mutex<RecInner>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with span recording off.
    pub fn new() -> Recorder {
        Recorder {
            on: Arc::new(AtomicBool::new(false)),
            t0: Instant::now(),
            inner: Arc::new(Mutex::new(RecInner::default())),
        }
    }

    /// Turn span recording on or off (timing is always on).
    pub fn set_recording(&self, on: bool) {
        // Relaxed: the flag publishes no data, and only the driver
        // thread reads it.
        self.on.store(on, Ordering::Relaxed);
    }

    /// Is span recording on?
    pub fn recording(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Name the round subsequent spans belong to.
    pub fn set_round(&self, round: u32) {
        self.lock().round = round;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecInner> {
        self.inner
            .lock()
            .expect("a panic while recording a span already failed the run")
    }

    /// Run `f`, returning its result and elapsed nanoseconds; record a
    /// span named `name` if recording is on.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.recording() {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_nanos() as u64);
        }
        let idx = {
            let mut g = self.lock();
            let idx = g.spans.len() as u32;
            let parent = g.open.last().copied();
            let round = g.round;
            g.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                round,
            });
            g.open.push(idx);
            idx
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut g = self.lock();
        let s = &mut g.spans[idx as usize];
        s.start_ns = start.duration_since(self.t0).as_nanos() as u64;
        s.end_ns = end.duration_since(self.t0).as_nanos() as u64;
        let popped = g.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        (out, s_dur(start, end))
    }

    /// Take every recorded span.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

fn s_dur(start: Instant, end: Instant) -> u64 {
    end.duration_since(start).as_nanos() as u64
}

/// Each span's self time: its duration minus the part its direct
/// children cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur());
        }
    }
    own
}

/// Does every child lie inside its parent's interval?
pub fn spans_nest(spans: &[Span]) -> bool {
    spans.iter().all(|s| match s.parent {
        None => true,
        Some(p) => {
            let p = &spans[p as usize];
            p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
        }
    })
}

/// One row of the per-span table.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Spans with this name.
    pub count: u64,
    /// Median duration, ns.
    pub p50_ns: u64,
    /// 99th percentile duration, ns.
    pub p99_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Per-name statistics over recorded spans.
pub fn span_table(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let own = self_times(spans);
    let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut table: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        durs.entry(s.name).or_default().push(s.dur());
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.self_ns += own;
    }
    for (name, d) in durs {
        let row = table.get_mut(name).expect("inserted above");
        row.p50_ns = percentile(&d, 0.50);
        row.p99_ns = percentile(&d, 0.99);
    }
    table
}

/// Write spans as JSON lines (`name`, `layer`, `start_ns`, `end_ns`,
/// `parent`, `round`).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns,
            s.round
        );
    }
    out
}

// ----------------------------------------------------------------------
// Process accounting
// ----------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// 1024 CPUs' worth of affinity mask, the kernel's default `cpu_set_t`.
type CpuMask = [u64; 16];

/// Keeps the whole process — every thread it has — on one CPU, and
/// moves it to the next one between segments.
///
/// Why one CPU: every workload is a closed loop on one driver thread;
/// what other threads there are (the serving reactor, the two
/// maintenance workers of a colocated portfolio) work only while the
/// driver waits for them. Measured on the 2-CPU baseline machine, the
/// portfolios and `commit_durable` are no faster on two CPUs than on
/// one (the workers' share of a round is too small to repay the
/// hand-off), and `wire_maintain` is bimodal on two: driver and reactor
/// either share a core (a context switch per hand-off, ~10 µs round
/// trip) or sit on two (a cross-core wake-up of a halted virtual CPU
/// per hand-off, ~45 µs), decided once, early, and then sticking, so
/// identical runs differed 4× in read latency.
///
/// Why a different CPU from segment to segment: the host disturbs the
/// virtual CPUs one at a time (a neighbour on the sibling hardware
/// thread costs ~30 % for tens of seconds). With half the segments on
/// each CPU, a neighbour on one of them leaves the quiet segments of
/// the run alone; a process that stays on both needs both quiet at
/// once.
pub struct Pinner {
    cpus: Vec<usize>,
}

impl Pinner {
    /// The CPUs the process may run on now; `None` where the kernel
    /// will not say.
    pub fn new() -> Option<Pinner> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes at
        // most that many bytes into it.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpus: Vec<usize> = (0..mask.len() * 64)
            .filter(|c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        (!cpus.is_empty()).then_some(Pinner { cpus })
    }

    /// Confine every thread of the process to the `turn`-th allowed CPU
    /// (modulo their number). Threads spawned later inherit it. `false`
    /// where the kernel refuses.
    pub fn pin(&self, turn: usize) -> bool {
        let cpu = self.cpus[turn % self.cpus.len()];
        let mut one: CpuMask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return false;
        };
        tasks
            .filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok())
            // SAFETY: `one` is a live buffer of the size passed that the
            // call only reads; a thread that ended since the listing
            // makes the call fail with ESRCH and changes nothing.
            .map(|tid| unsafe { sched_setaffinity(tid, std::mem::size_of_val(&one), one.as_ptr()) })
            .all(|rc| rc == 0)
    }
}

/// User + system CPU time of this process (all threads) so far, in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`; the clock id is a
    // constant of the Linux ABI.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Time the hypervisor ran something else while a virtual CPU of this
/// machine had work, in milliseconds since boot, summed over CPUs (the
/// `steal` column of `/proc/stat`). 0 where the kernel does not account
/// it. Reported on the `info` line only: it tells a reader that a run
/// was disturbed, it corrects nothing.
pub fn host_steal_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    // `cpu user nice system idle iowait irq softirq steal …`, in
    // USER_HZ ticks, which Linux fixes at 100 per second for `/proc`.
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// Resident set size of this process now, in MiB (`VmRSS`). 0 where
/// `/proc` is absent.
pub fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ----------------------------------------------------------------------
// FNV-1a digest
// ----------------------------------------------------------------------

/// A 64-bit FNV-1a digest: order-sensitive, stable across runs and
/// machines (unlike `DefaultHasher`, whose keys are per-process).
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a string in, with a terminator so `ab|c` ≠ `a|bc`.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Fold an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

// ----------------------------------------------------------------------
// JSON
// ----------------------------------------------------------------------

/// Rendering and typed access for the repository's own [`Json`] value
/// (`gsview_obs::export`, which parses but does not serialize).
pub trait JsonExt {
    /// The number, if this is one.
    fn as_f64(&self) -> Option<f64>;
    /// The string, if this is one.
    fn as_str(&self) -> Option<&str>;
    /// The elements, if this is an array.
    fn as_arr(&self) -> Option<&[Json]>;
    /// Serialize on one line.
    fn render(&self) -> String;
    /// Serialize indented by two spaces per level.
    fn render_pretty(&self) -> String;
}

impl JsonExt for Json {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, None, 0);
        out
    }

    fn render_pretty(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, Some(2), 0);
        out.push('\n');
        out
    }
}

fn write_json(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    let nl = |out: &mut String, depth: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(a) => {
            out.push('[');
            // Arrays of scalars stay on one line even when pretty.
            let flat = a.iter().all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_)));
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(if flat || indent.is_none() { ", " } else { "," });
                }
                if !flat {
                    nl(out, depth + 1);
                }
                write_json(v, out, if flat { None } else { indent }, depth + 1);
            }
            if !flat && !a.is_empty() {
                nl(out, depth);
            }
            out.push(']');
        }
        Json::Obj(m) => {
            out.push('{');
            // Objects of scalars (one metric, one workload) stay on
            // one line even when pretty.
            let flat = depth > 0
                && m.iter()
                    .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(if flat || indent.is_none() { ", " } else { "," });
                }
                if !flat {
                    nl(out, depth + 1);
                }
                write_json(&Json::Str(k.clone()), out, None, 0);
                out.push_str(": ");
                write_json(v, out, if flat { None } else { indent }, depth + 1);
            }
            if !flat && !m.is_empty() {
                nl(out, depth);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn quiet_eighth_survives_a_run_disturbed_for_two_thirds_of_it() {
        // 240 rounds of 1 update per ms; a neighbour makes two thirds
        // of the segments 3x slower.
        let mut rounds = vec![
            Round {
                visible_ns: 1_000_000,
                updates: 1,
                ..Round::default()
            };
            240
        ];
        for r in &mut rounds[40..200] {
            r.visible_ns = 3_000_000;
        }
        let rates = segment_rates(&rounds, |r| u64::from(r.updates), |r| r.visible_ns);
        assert_eq!(rates.len(), SEGMENTS);
        assert!((quiet_high(&rates) - 1000.0).abs() < 1e-6);
        assert!(median(&rates) < 400.0);
        let lat = segment_medians_us(&rounds, |r| r.visible_ns);
        assert!((quiet_low(&lat) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn segments_cover_every_round_once() {
        let rounds = vec![Round::default(); 24 * 7 + 5];
        let cuts = segments(&rounds);
        assert_eq!(cuts.len(), SEGMENTS);
        assert_eq!(cuts.iter().map(|c| c.len()).sum::<usize>(), rounds.len());
        assert_eq!(segments(&rounds[..3]).len(), 3);
    }

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.875), 4.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let rec = Recorder::new();
        rec.set_recording(true);
        rec.time("a.outer", || {
            rec.time("b.inner", || std::hint::black_box(1 + 1));
        });
        let spans = rec.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans_nest(&spans));
        let own = self_times(&spans);
        assert_eq!(own[0], spans[0].dur() - spans[1].dur());
        assert_eq!(spans[1].layer(), "b");
    }

    #[test]
    fn rendered_json_parses_back() {
        let text = r#"{"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(parse_json(&v.render()).unwrap(), v);
        assert_eq!(parse_json(&v.render_pretty()).unwrap(), v);
    }
}
