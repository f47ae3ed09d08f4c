//! `gsview-top` — a live console over the serving tier's telemetry
//! stream.
//!
//! Dials a `gsview-serve` server started with telemetry export
//! enabled, subscribes ([`TelemetryTail`]), and renders a refreshing
//! terminal view of what the warehouse stack is doing *right now*:
//!
//! * latency histograms with interpolated p50/p90/p99 (the obs log₂
//!   estimators — the same math the E19/E20 smoke gates use);
//! * counter rates for the interesting groups (`serve.*`,
//!   `warehouse.*`, `circuit.*`, `durable.*`, `obs.*`);
//! * the slowest / error spans from the last batch;
//! * store health polled over the same socket via `Request::Stats`
//!   (epoch, object/edge counts, shard occupancy) — no subscription
//!   needed for that part of the protocol.
//!
//! Usage:
//!
//! ```text
//! gsview-top <host:port> [--ticks N] [--jsonl PATH] [--no-clear]
//! ```
//!
//! `--ticks N` exits after N batches (smoke tests, scripting);
//! `--jsonl PATH` appends every batch as JSON lines for offline
//! analysis; `--no-clear` disables the ANSI clear so output scrolls.

use gsview::obs::telemetry::TelemetryBatch;
use gsview::serve::{FrameClient, ServedStats, TelemetryTail};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

struct Options {
    addr: SocketAddr,
    ticks: Option<u64>,
    jsonl: Option<String>,
    clear: bool,
}

fn usage() -> ! {
    eprintln!("usage: gsview-top <host:port> [--ticks N] [--jsonl PATH] [--no-clear]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut addr = None;
    let mut ticks = None;
    let mut jsonl = None;
    let mut clear = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ticks" => {
                ticks = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--jsonl" => jsonl = Some(args.next().unwrap_or_else(|| usage())),
            "--no-clear" => clear = false,
            "--help" | "-h" => usage(),
            other => {
                if addr.is_some() {
                    usage();
                }
                addr = Some(other.parse().unwrap_or_else(|_| {
                    eprintln!("gsview-top: bad address {other:?}");
                    std::process::exit(2);
                }));
            }
        }
    }
    Options {
        addr: addr.unwrap_or_else(|| usage()),
        ticks,
        jsonl,
        clear,
    }
}

/// Running totals across batches: counters accumulate their deltas,
/// histograms keep the latest cumulative point.
#[derive(Default)]
struct Console {
    seq: u64,
    dropped: u64,
    batches: u64,
    spans_seen: u64,
    counters: BTreeMap<String, (u64, u64)>, // name -> (total, last delta)
    histograms: BTreeMap<String, gsview::obs::telemetry::HistogramPoint>,
}

impl Console {
    fn absorb(&mut self, batch: &TelemetryBatch) {
        self.seq = batch.seq;
        self.dropped = batch.dropped;
        self.batches += 1;
        self.spans_seen += batch.spans.len() as u64;
        for c in &batch.counters {
            let entry = self.counters.entry(c.name.clone()).or_insert((0, 0));
            *entry = (c.total, c.delta);
        }
        for h in &batch.histograms {
            self.histograms.insert(h.name.clone(), h.clone());
        }
    }

    fn render(&self, batch: &TelemetryBatch, stats: Option<&ServedStats>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "gsview-top — {} (pid {})   batch #{} seq {} dropped {}   spans seen {}\n\n",
            batch.resource.service,
            batch.resource.pid,
            self.batches,
            self.seq,
            self.dropped,
            self.spans_seen,
        ));
        if let Some(s) = stats {
            out.push_str(&format!(
                "store   epoch {}  objects {} ({} sets, {} atoms)  edges {}  fanout mean {:.2} max {}\n",
                s.epoch, s.objects, s.set_objects, s.atomic_objects, s.edges, s.mean_fanout, s.max_fanout
            ));
            if !s.shard_occupancy.is_empty() {
                let occ: Vec<String> = s.shard_occupancy.iter().map(|n| n.to_string()).collect();
                out.push_str(&format!("shards  [{}]\n", occ.join(" ")));
            }
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<36} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
                "histogram", "count", "p50", "p90", "p99", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{:<36} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
                    name, h.count, h.p50, h.p90, h.p99, h.max
                ));
            }
            out.push('\n');
        }
        let groups = ["serve.", "warehouse.", "circuit.", "durable.", "obs."];
        let interesting: Vec<_> = self
            .counters
            .iter()
            .filter(|(name, _)| groups.iter().any(|g| name.starts_with(g)))
            .collect();
        if !interesting.is_empty() {
            out.push_str(&format!(
                "{:<36} {:>12} {:>9}\n",
                "counter", "total", "Δ/batch"
            ));
            for (name, (total, delta)) in interesting {
                out.push_str(&format!("{name:<36} {total:>12} {delta:>9}\n"));
            }
            out.push('\n');
        }
        let mut slow: Vec<_> = batch.spans.iter().collect();
        slow.sort_by_key(|s| std::cmp::Reverse((s.error, s.elapsed_ns)));
        if !slow.is_empty() {
            out.push_str("recent spans (slowest / errors first)\n");
            for s in slow.iter().take(8) {
                out.push_str(&format!(
                    "  {:<28} {:>9} us  trace {:016x}{}\n",
                    s.name,
                    s.elapsed_ns / 1_000,
                    s.trace,
                    if s.error { "  ERROR" } else { "" }
                ));
            }
        }
        out
    }
}

/// One JSON line per batch: enough for offline latency/rate analysis
/// without a protocol decoder.
fn jsonl_line(batch: &TelemetryBatch) -> String {
    let mut line = format!(
        "{{\"seq\":{},\"dropped\":{},\"service\":{:?},\"spans\":{},\"counters\":[",
        batch.seq,
        batch.dropped,
        batch.resource.service,
        batch.spans.len()
    );
    for (i, c) in batch.counters.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{{\"name\":{:?},\"delta\":{},\"total\":{}}}",
            c.name, c.delta, c.total
        ));
    }
    line.push_str("],\"histograms\":[");
    for (i, h) in batch.histograms.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{{\"name\":{:?},\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            h.name, h.count, h.p50, h.p90, h.p99, h.max
        ));
    }
    line.push_str("]}");
    line
}

fn main() {
    let opts = parse_args();
    let mut tail = match TelemetryTail::connect_with_timeout(opts.addr, Duration::from_secs(5)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gsview-top: subscribe to {} failed: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    // A second, plain connection for store-health polls. Optional: a
    // server at max_conns still streams to the subscription.
    let stats_client = FrameClient::connect_with_timeout(opts.addr, Duration::from_secs(1)).ok();
    let mut sink = opts.jsonl.as_ref().map(|path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| {
                eprintln!("gsview-top: cannot open {path}: {e}");
                std::process::exit(1);
            })
    });

    let mut console = Console::default();
    let mut shown = 0u64;
    loop {
        let batch = match tail.next_batch() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("gsview-top: stream ended: {e}");
                std::process::exit(1);
            }
        };
        console.absorb(&batch);
        if let Some(sink) = sink.as_mut() {
            if let Err(e) = writeln!(sink, "{}", jsonl_line(&batch)) {
                eprintln!("gsview-top: jsonl sink failed: {e}");
                std::process::exit(1);
            }
        }
        let stats = stats_client.as_ref().and_then(|c| c.stats().ok());
        let mut stdout = std::io::stdout().lock();
        if opts.clear {
            let _ = write!(stdout, "\x1b[2J\x1b[H");
        }
        let _ = write!(stdout, "{}", console.render(&batch, stats.as_ref()));
        let _ = stdout.flush();
        shown += 1;
        if opts.ticks.is_some_and(|t| shown >= t) {
            break;
        }
    }
}
