//! The closed loop: one process, one workload, one driver thread, one
//! CPU at a time.
//!
//! A run is: generate inputs from the seed → set the stack up several
//! times (timed; the last one is kept) → warm-up rounds (discarded) →
//! measured rounds in [`SEGMENTS`] equal segments, with the restarts
//! (timed) spread between them or after the last → the oracle gate →
//! metrics. A round is `commit` → `deliver + maintain` → `read burst`;
//! the next round starts only when the previous one has finished, so
//! the system is never offered more load than it completes. No loop is
//! bounded by a clock.
//!
//! Every timing a run reports is the *quiet eighth* of its per-segment
//! values ([`kit::quiet_high`], [`kit::quiet_low`]), and the process
//! moves to the next CPU from segment to segment ([`Pinner`]): the
//! baseline machine is a guest on a shared host, whose neighbours slow
//! one virtual CPU or the other by a third for tens of seconds at a
//! time and never speed one up.
//!
//! A traced run (`--trace 1`) executes the same rounds with the span
//! recorder on in every second pair of segments and off in the others;
//! the ratio of the two is the tracing overhead, measured inside one
//! process on interleaved stretches of the same workload.

use crate::inputs::{generate, Inputs};
use crate::kit::{
    self, host_steal_ms, median, percentile, process_cpu_ns, quiet_high, quiet_low, rss_mb,
    segment_medians_us, segment_rates, us, Json, JsonExt, Pinner, Recorder, Round, Span, SEGMENTS,
};
use crate::sut::{self, Stack, Verdict};
use crate::workloads::{Scale, Workload, WARMUP_SHARE};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// A metric's name, unit and direction — the single source the
/// result line, `BENCHMARK.json` and the smoke test agree on.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, unit included.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees. Every workload reports all seven.
/// (The p90 latencies are per-layer metrics, unbounded: across ten
/// runs on the baseline machine their range reached half their median,
/// so a bound on them would reject unchanged code. So are the commit
/// and read-burst p50s: a commit is part of `visible_p50_us` — nine
/// tenths of it on `commit_durable` — and a burst's time is its size
/// over `reads_per_s`, so each would only double the chances that
/// host noise fails a change, and tell nothing the others do not.)
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("updates_per_s", "1/s"),
    lower("visible_p50_us", "us"),
    higher("reads_per_s", "1/s"),
    lower("restart_s", "s"),
    lower("cpu_ms_per_round", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics that are the median duration of one span name;
/// `true` takes the span's self time instead.
const SPAN_METRICS: &[(&str, &str, bool)] = &[
    ("gsdb.commit_us", "gsdb.commit", false),
    ("gsdb.snapshot_us", "gsdb.snapshot", false),
    ("durable.persist_us", "durable.persist", false),
    ("durable.recover_us", "durable.recover", false),
    ("serve.rtt_us", "serve.rtt", false),
    ("serve.codec_us", "serve.codec", false),
    ("serve.poll_reports_us", "serve.poll_reports", false),
    (
        "warehouse.handle_batch_self_us",
        "warehouse.handle_batch",
        true,
    ),
    (
        "warehouse.rematerialize_us",
        "warehouse.rematerialize",
        false,
    ),
    ("warehouse.poll_us", "warehouse.poll", false),
    ("warehouse.absorb_us", "warehouse.absorb", false),
    ("core.flush_us", "core.flush", false),
    ("core.partition_us", "core.partition", false),
    ("core.alg1.wildcard_us", "core.alg1.wildcard", false),
    ("core.recompute_us", "core.recompute", false),
    ("circuit.union_step_us", "circuit.union_step", false),
    ("circuit.agg_step_us", "circuit.agg_step", false),
    ("circuit.init_us", "circuit.init", false),
    ("query.answer_us", "query.answer", false),
    ("query.eval_us", "query.eval", false),
    ("query.parse_plan_us", "query.parse_plan", false),
];

/// The layers (crates) a round's blocking chain is attributed to, and
/// the metric reporting each one's share of it.
const LAYERS: &[(&str, &str)] = &[
    ("gsdb", "share.gsdb"),
    ("durable", "share.durable"),
    ("serve", "share.serve"),
    ("warehouse", "share.warehouse"),
    ("core", "share.core"),
    ("circuit", "share.circuit"),
    ("query", "share.query"),
];

/// Single layers, from the traced run. A layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    lower("round.visible_p90_us", "us"),
    lower("round.commit_p50_us", "us"),
    lower("round.commit_p90_us", "us"),
    lower("round.read_p50_us", "us"),
    lower("round.read_p90_us", "us"),
    lower("gsdb.commit_us", "us"),
    lower("gsdb.snapshot_us", "us"),
    lower("gsdb.cross_shard_ratio", "ratio"),
    lower("durable.persist_us", "us"),
    lower("durable.recover_us", "us"),
    lower("durable.bytes_per_update", "B"),
    lower("durable.chunks_appended_per_commit", "count"),
    higher("durable.chunks_reused_ratio", "ratio"),
    lower("serve.rtt_us", "us"),
    lower("serve.transport_us", "us"),
    lower("serve.codec_us", "us"),
    lower("serve.poll_reports_us", "us"),
    lower("serve.wire_bytes_per_update", "B"),
    lower("warehouse.handle_batch_self_us", "us"),
    lower("warehouse.rematerialize_us", "us"),
    lower("warehouse.poll_us", "us"),
    lower("warehouse.absorb_us", "us"),
    lower("warehouse.source_queries_per_update", "count"),
    higher("warehouse.screened_ratio", "ratio"),
    lower("warehouse.relevant_ratio", "ratio"),
    lower("warehouse.retries", "count"),
    lower("warehouse.dead_letters", "count"),
    lower("core.flush_us", "us"),
    lower("core.partition_us", "us"),
    lower("core.alg1.wildcard_us", "us"),
    lower("core.recompute_us", "us"),
    lower("core.changed_per_update", "count"),
    lower("circuit.union_step_us", "us"),
    lower("circuit.agg_step_us", "us"),
    lower("circuit.init_us", "us"),
    higher("circuit.steps", "count"),
    lower("circuit.rebuilds", "count"),
    lower("query.answer_us", "us"),
    lower("query.eval_us", "us"),
    lower("query.parse_plan_us", "us"),
    lower("share.gsdb", "ratio"),
    lower("share.durable", "ratio"),
    lower("share.serve", "ratio"),
    lower("share.warehouse", "ratio"),
    lower("share.core", "ratio"),
    lower("share.circuit", "ratio"),
    lower("share.query", "ratio"),
    higher("trace.chain_coverage", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
];

/// How a run is invoked.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Intended length of the measured section on the baseline
    /// machine; scales the number of rounds.
    pub seconds: u32,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Run size.
    pub scale: Scale,
    /// Directory (inside the checkout) for files the run needs; the
    /// run creates and removes its own subdirectory.
    pub scratch: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Its definition.
    pub def: MetricDef,
    /// The value as measured.
    pub value: f64,
}

/// What a run produced.
pub struct Report {
    /// Did every oracle check pass?
    pub correct: bool,
    /// Updates and reads attempted.
    pub attempted: u64,
    /// Of those, failed (all of them when the oracle gate fails).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-oriented detail: sizes, digests, p99s, the span table.
    pub info: Json,
    /// The spans of a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.def.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// The value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }
}

/// Everything the measured part of a run leaves behind.
struct Driven {
    /// Measured rounds (warm-up excluded).
    rounds: Vec<Round>,
    /// Segment of each measured round.
    segment: Vec<usize>,
    /// Process CPU milliseconds per round, one value per segment.
    segment_cpu_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// What the hypervisor took from this machine's CPUs between the
    /// first and the last measured round (restarts included).
    steal_ms: f64,
    /// The largest resident set seen at the end of a segment, before
    /// the restart that may follow it: a restart holds a second view
    /// side (or store) beside the first while it runs, and the oracle's
    /// reference store comes later; neither is the system's footprint.
    peak_rss_mb: f64,
    restart_s: Vec<f64>,
    counts: Vec<(&'static str, f64)>,
    verdict: Verdict,
}

/// In a traced run, every second pair of segments records spans: a
/// pair has one segment on each CPU, so recorded and unrecorded
/// segments meet the same CPUs.
fn records(segment: usize) -> bool {
    segment / 2 % 2 == 1
}

/// One round of the closed loop: its samples, operations attempted and
/// operations failed.
fn round(
    stack: &mut dyn Stack,
    rec: &Recorder,
    r: usize,
    recording: bool,
) -> Result<(Round, u64, u64), String> {
    rec.set_recording(recording);
    rec.set_round(r as u32);
    let (res, visible_ns) = rec.time("round.visible", || {
        let c = stack.commit(rec, r)?;
        stack.deliver_maintain(rec)?;
        Ok::<_, String>(c)
    });
    let (commit_ns, updates) = res?;
    let ((read_ns, reads, read_failed), _) = rec.time("round.read", || stack.read(rec, r));
    if recording {
        rec.time("probe.round", || stack.probe(rec, r));
    }
    let sample = Round {
        commit_ns,
        visible_ns,
        read_ns,
        updates,
        reads,
    };
    Ok((
        sample,
        u64::from(updates) + u64::from(reads),
        u64::from(read_failed),
    ))
}

fn drive(
    stack: &mut dyn Stack,
    inputs: &Inputs,
    rec: &Recorder,
    opt: &Options,
    (restarts, spread): (usize, bool),
    pinner: &Pinner,
) -> Result<Driven, String> {
    let total = inputs.batches.len();
    let warm = ((total as f64 * WARMUP_SHARE).ceil() as usize).min(total.saturating_sub(SEGMENTS));
    let per_segment = ((total - warm) / SEGMENTS).max(1);
    let mut rounds = Vec::with_capacity(total - warm);
    let mut segment = Vec::with_capacity(total - warm);
    let mut segment_cpu_ms = Vec::with_capacity(SEGMENTS);
    let mut restart_s = Vec::with_capacity(restarts);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss_mb = 0f64;
    for r in 0..warm.min(total) {
        let (_, a, f) = round(stack, rec, r, false)?;
        attempted += a;
        failed += f;
    }
    let steal0 = host_steal_ms();
    for seg in 0..SEGMENTS {
        // The same cuts as `kit::segments`: the last takes the remainder.
        let from = (warm + seg * per_segment).min(total);
        let to = if seg + 1 == SEGMENTS {
            total
        } else {
            (from + per_segment).min(total)
        };
        if !pinner.pin(seg) {
            return Err("could not move the process to another CPU".into());
        }
        let cpu0 = process_cpu_ns();
        for r in from..to {
            let (sample, a, f) = round(stack, rec, r, opt.trace && records(seg))?;
            attempted += a;
            failed += f;
            rounds.push(sample);
            segment.push(seg);
        }
        if to > from {
            segment_cpu_ms.push((process_cpu_ns() - cpu0) as f64 / 1e6 / (to - from) as f64);
        }
        peak_rss_mb = peak_rss_mb.max(rss_mb());
        // Spread evenly through the run, or all after the last round.
        let due = if spread {
            (seg + 1) * restarts / SEGMENTS - seg * restarts / SEGMENTS
        } else if seg + 1 == SEGMENTS {
            restarts
        } else {
            0
        };
        for _ in 0..due {
            if !pinner.pin(restart_s.len()) {
                return Err("could not move the process to another CPU".into());
            }
            rec.set_round(to as u32);
            let store_before = sut::live_store_digest(stack);
            rec.set_recording(opt.trace);
            let (res, ns) = rec.time("restart.all", || stack.restart(rec));
            rec.set_recording(false);
            res?;
            restart_s.push(ns as f64 / 1e9);
            sut::check_restarted(stack, store_before)?;
        }
    }
    let steal_ms = host_steal_ms() - steal0;
    let counts = stack.counts();
    let verdict = sut::verify(stack, inputs)?;
    Ok(Driven {
        rounds,
        segment,
        segment_cpu_ms,
        attempted,
        failed,
        steal_ms,
        peak_rss_mb,
        restart_s,
        counts,
        verdict,
    })
}

/// Run `workload` once.
pub fn run(workload: &Workload, opt: &Options) -> Report {
    let shape = workload.shape(opt.scale, opt.seconds);
    let inputs = generate(&shape, opt.seed);
    let script = sut::compile(&inputs);
    let rec = Recorder::new();
    let scratch = opt
        .scratch
        .join(format!("{}-{}", workload.name, std::process::id()));

    // One CPU at a time, a different one from segment to segment (see
    // `Pinner`). A run that cannot pin would measure another machine
    // than the baseline's, so it reports nothing.
    let Some(pinner) = Pinner::new() else {
        return Report::failed("could not read the CPUs this process may run on", 1);
    };
    let mut setup_s = Vec::new();
    let mut stack: Option<Box<dyn Stack>> = None;
    let (setups, restarts) = workload.repeats(opt.scale);
    for turn in 0..setups {
        if let Some(prev) = stack.take() {
            prev.shutdown();
        }
        // Before the threads of this set-up exist: they inherit the CPU.
        if !pinner.pin(turn) {
            return Report::failed("could not pin the process to one CPU", 1);
        }
        let t = Instant::now();
        match sut::setup(workload, &inputs, &script, &rec, opt.trace, &scratch) {
            Ok(s) => {
                setup_s.push(t.elapsed().as_secs_f64());
                stack = Some(s);
            }
            Err(e) => return Report::failed(&e, 1),
        }
    }
    let mut stack = stack.expect("at least one set-up ran");
    let driven = drive(
        stack.as_mut(),
        &inputs,
        &rec,
        opt,
        (restarts, workload.restarts_spread),
        &pinner,
    );
    stack.shutdown();
    let attempted_if_failed = (shape.rounds * (shape.batch + shape.burst)) as u64;
    let d = match driven {
        Ok(d) => d,
        Err(e) => return Report::failed(&e, attempted_if_failed),
    };

    let spans = rec.take_spans();
    let mut info = vec![
        ("workload".into(), Json::Str(workload.name.into())),
        ("seed".into(), Json::Num(opt.seed as f64)),
        ("objects".into(), Json::Num(shape.objects() as f64)),
        ("rounds_measured".into(), Json::Num(d.rounds.len() as f64)),
        (
            "measured_s".into(),
            Json::Num(d.rounds.iter().map(|r| r.visible_ns + r.read_ns).sum::<u64>() as f64 / 1e9),
        ),
        // How far the host held the run back: what it took from the
        // virtual CPUs outright, and the quiet eighth of the update
        // rate over its median (1 on an undisturbed host).
        ("host_steal_ms".into(), Json::Num(d.steal_ms)),
        (
            "host_disturbance".into(),
            Json::Num(quiet_high(&update_rates(&d)) / median(&update_rates(&d)).max(f64::MIN_POSITIVE)),
        ),
        // The per-segment values the quiet eighths are taken from, in
        // run order: a reader sees when the host held the run back.
        (
            "segments".into(),
            Json::Obj(
                [
                    ("updates_per_s", update_rates(&d)),
                    (
                        "visible_p50_us",
                        segment_medians_us(&d.rounds, |r| r.visible_ns),
                    ),
                    ("reads_per_s", read_rates(&d)),
                    ("cpu_ms_per_round", d.segment_cpu_ms.clone()),
                    ("restart_s", d.restart_s.clone()),
                    ("setup_s", setup_s.clone()),
                ]
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Arr(v.into_iter().map(Json::Num).collect())))
                .collect(),
            ),
        ),
        ("batch".into(), Json::Num(shape.batch as f64)),
        ("burst".into(), Json::Num(shape.burst as f64)),
        (
            "threads".into(),
            Json::Num(
                std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
            ),
        ),
        (
            "durable_flush_policy".into(),
            Json::Str("every published epoch persisted by the publish hook; sync_data on segment, log and root per persist".into()),
        ),
        ("views_digest".into(), Json::Str(format!("{:016x}", d.verdict.views))),
        ("store_digest".into(), Json::Str(format!("{:016x}", d.verdict.store))),
        ("reads_digest".into(), Json::Str(format!("{:016x}", d.verdict.reads))),
        (
            "counts".into(),
            Json::Obj(d.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect()),
        ),
    ];
    let col = |f: fn(&Round) -> u64| d.rounds.iter().map(f).collect::<Vec<u64>>();
    for (name, samples) in [
        ("visible_p99_us", col(|r| r.visible_ns)),
        ("commit_p99_us", col(|r| r.commit_ns)),
        ("read_p99_us", col(|r| r.read_ns)),
    ] {
        info.push((name.into(), Json::Num(us(percentile(&samples, 0.99)))));
    }

    let metrics = if opt.trace {
        let (metrics, table) = per_layer(&d, &spans);
        info.push(("spans".into(), table));
        metrics
    } else {
        end_to_end(&d, &setup_s)
    };
    Report {
        correct: true,
        attempted: d.attempted.max(1),
        failed: d.failed,
        metrics,
        info: Json::Obj(info),
        spans,
    }
}

impl Report {
    /// A run that could not finish or failed its oracle gate: every
    /// operation counts as failed and no metric is reported.
    fn failed(why: &str, attempted: u64) -> Report {
        Report {
            correct: false,
            attempted: attempted.max(1),
            failed: attempted.max(1),
            metrics: Vec::new(),
            info: Json::Obj(vec![("error".into(), Json::Str(why.into()))]),
            spans: Vec::new(),
        }
    }
}

/// Updates per second of visible time, per segment.
fn update_rates(d: &Driven) -> Vec<f64> {
    segment_rates(&d.rounds, |r| u64::from(r.updates), |r| r.visible_ns)
}

/// Reads per second of read-burst time, per segment.
fn read_rates(d: &Driven) -> Vec<f64> {
    segment_rates(&d.rounds, |r| u64::from(r.reads), |r| r.read_ns)
}

fn end_to_end(d: &Driven, setup_s: &[f64]) -> Vec<Metric> {
    let value = |name: &str| match name {
        "setup_s" => median(setup_s),
        "updates_per_s" => quiet_high(&update_rates(d)),
        "visible_p50_us" => quiet_low(&segment_medians_us(&d.rounds, |r| r.visible_ns)),
        "reads_per_s" => quiet_high(&read_rates(d)),
        "restart_s" => quiet_low(&d.restart_s),
        "cpu_ms_per_round" => quiet_low(&d.segment_cpu_ms),
        "peak_rss_mb" => d.peak_rss_mb,
        other => unreachable!("END_TO_END names a metric nobody computes: {other}"),
    };
    END_TO_END
        .iter()
        .map(|&def| Metric {
            def,
            value: value(def.name),
        })
        .collect()
}

fn per_layer(d: &Driven, spans: &[Span]) -> (Vec<Metric>, Json) {
    let own = kit::self_times(spans);
    let mut durs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut selfs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (s, &o) in spans.iter().zip(&own) {
        durs.entry(s.name).or_default().push(s.dur());
        selfs.entry(s.name).or_default().push(o);
    }
    let p50 = |m: &BTreeMap<&str, Vec<u64>>, span: &str| {
        m.get(span).map_or(0.0, |v| us(percentile(v, 0.50)))
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for &(metric, span, self_time) in SPAN_METRICS {
        values.insert(metric, p50(if self_time { &selfs } else { &durs }, span));
    }
    // What the socket, the reactor and the codec add to a query the
    // source could have answered in-process.
    let rtt = p50(&durs, "serve.rtt");
    values.insert(
        "serve.transport_us",
        if rtt > 0.0 {
            (rtt - p50(&durs, "query.answer")).max(0.0)
        } else {
            0.0
        },
    );
    for &(name, v) in &d.counts {
        values.insert(name, v);
    }
    let of_rounds = |f: fn(&Round) -> u64, q: f64| {
        us(percentile(&d.rounds.iter().map(f).collect::<Vec<u64>>(), q))
    };
    values.insert("round.visible_p90_us", of_rounds(|r| r.visible_ns, 0.90));
    values.insert("round.commit_p50_us", of_rounds(|r| r.commit_ns, 0.50));
    values.insert("round.commit_p90_us", of_rounds(|r| r.commit_ns, 0.90));
    values.insert("round.read_p50_us", of_rounds(|r| r.read_ns, 0.50));
    values.insert("round.read_p90_us", of_rounds(|r| r.read_ns, 0.90));

    // The blocking chain of the recorded rounds: every span under a
    // `round.*` root. Its self times, by layer, over the rounds'
    // visible + read time.
    let root_of: Vec<usize> = {
        let mut roots = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            roots.push(s.parent.map_or(i, |p| roots[p as usize]));
        }
        roots
    };
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].layer() == "round" && s.layer() != "round" {
            *by_layer.entry(s.layer()).or_default() += own[i];
        }
    }
    let chain_ns: u64 = d
        .rounds
        .iter()
        .zip(&d.segment)
        .filter(|(_, &seg)| records(seg))
        .map(|(r, _)| r.visible_ns + r.read_ns)
        .sum();
    let share =
        |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / chain_ns.max(1) as f64;
    for &(layer, metric) in LAYERS {
        values.insert(metric, share(layer));
    }
    values.insert(
        "trace.chain_coverage",
        LAYERS.iter().map(|&(l, _)| share(l)).sum(),
    );

    // Traced ÷ untraced round time, over interleaved segments.
    let seg_mean = |want: bool| {
        let per: Vec<f64> = (0..SEGMENTS)
            .filter(|&s| records(s) == want)
            .filter_map(|s| {
                let v: Vec<f64> = d
                    .rounds
                    .iter()
                    .zip(&d.segment)
                    .filter(|(_, &seg)| seg == s)
                    .map(|(r, _)| (r.visible_ns + r.read_ns) as f64)
                    .collect();
                (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
            })
            .collect();
        quiet_low(&per)
    };
    values.insert(
        "trace.overhead_ratio",
        seg_mean(true) / seg_mean(false).max(1.0),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&def| Metric {
            def,
            value: values.get(def.name).copied().unwrap_or(0.0),
        })
        .collect();
    let table = Json::Obj(
        kit::span_table(spans)
            .into_iter()
            .map(|(name, s)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(s.count as f64)),
                        ("p50_us".into(), Json::Num(us(s.p50_ns))),
                        ("p99_us".into(), Json::Num(us(s.p99_ns))),
                        ("self_ms".into(), Json::Num(s.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    );
    (metrics, table)
}
