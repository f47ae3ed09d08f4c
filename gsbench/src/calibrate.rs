//! Bounds from measurement, not taste.
//!
//! `gsbench calibrate [workload… | --derive]` measures every workload
//! (or each named one, or with `--derive` none) twenty times, each run its own process: once per seed in
//! [`SEEDS`] (the spread *across seeds* is what the benchmark's
//! acceptance checks) and, interleaved with those so both sets meet
//! the same machine, ten times on [`REPEAT_SEED`] (run-to-run noise
//! alone, no input variance). For every end-to-end metric it records
//! median, quartiles and range of both sets under `baseline/`. It then
//! reads every workload's baseline file back and writes each metric's
//! regression bound into `BENCHMARK.json` as
//! `clamp(3 × IQR ÷ median, 0.05, 0.25)` over the noisiest workload
//! and set — the spread seen is a third of the bound wherever the
//! ceiling of 0.25 allows. For a metric measured with a clock the
//! spread counts as at least [`HOST_LEVEL_SHIFT`]: the baseline machine
//! runs unchanged code a tenth to nearly a half slower for minutes at
//! a time (`baseline/EPISODES.md`), a calibration may or may not meet
//! such a stretch, and one that meets none must not write bounds that
//! the next set of runs breaks. `setup_s` takes the ceiling. A
//! calibration whose spread exceeds the ceiling itself fails and names
//! the metric to measure again, fix or demote.
//!
//! `gsbench check-repeat` makes two independent sets of runs on one
//! seed and fails unless, per workload and metric, the two medians
//! differ by less than the bound and each set's range is within
//! [`MAX_RANGE`] of its median.

use crate::kit::{median, parse_json, quartiles, Json, JsonExt};
use crate::run::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;

/// `run_seconds` of `BENCHMARK.json`: the measured section each
/// workload is calibrated to on the baseline machine.
pub const RUN_SECONDS: u32 = 18;
/// Seeds of the across-seeds set: one run per seed per workload.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=10;
/// Seed of the one-seed set and of `check-repeat`.
const REPEAT_SEED: u64 = 1;
/// Runs per set of `check-repeat`.
const REPEAT_RUNS: usize = 5;
/// Smallest and largest bound; the largest is the contract's ceiling,
/// and `setup_s` gets it.
const BOUNDS: (f64, f64) = (0.05, 0.25);
/// The least a timing of unchanged code moves by on the baseline
/// machine when the host slows down for a few minutes, whatever the
/// spread inside a quiet set of runs (`baseline/EPISODES.md` §2, the
/// third kind of disturbance: 0.10–0.45, three times in two hours).
const HOST_LEVEL_SHIFT: f64 = 0.10;

/// Is `m` measured with a clock (and so moved by the host's speed)?
fn clocked(m: &MetricDef) -> bool {
    m.unit != "MiB"
}
/// `check-repeat`: a set's range may be this share of its median.
const MAX_RANGE: f64 = 0.10;
const BENCHMARK_JSON: &str = "BENCHMARK.json";
const BASELINE_DIR: &str = "gsbench/baseline";

/// metric → one value per run.
type Samples = BTreeMap<String, Vec<f64>>;

/// One untraced run of `workload` in a child process: its metrics and
/// the digest of the store it ended on.
fn child_run(workload: &str, seed: u64) -> Result<(BTreeMap<String, f64>, String), String> {
    eprintln!("gsbench: {workload} seed {seed}");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(info)) = (lines.next(), lines.next()) else {
        return Err(format!("{workload} seed {seed} printed no result"));
    };
    let v = parse_json(result)?;
    if v.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed} failed its checks: {stdout}"
        ));
    }
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        return Err("result line without metrics".into());
    };
    let digest = parse_json(info)?
        .get("info")
        .and_then(|i| i.get("store_digest")?.as_str().map(str::to_string))
        .ok_or("info line without a store digest")?;
    let metrics = metrics
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((metrics, digest))
}

fn push(samples: &mut Samples, metrics: BTreeMap<String, f64>) {
    for (k, v) in metrics {
        samples.entry(k).or_default().push(v);
    }
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

fn range_share(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values).abs().max(f64::MIN_POSITIVE)
}

fn metric_json(m: &MetricDef, bound: Option<f64>) -> Json {
    let mut o = vec![
        ("name".into(), Json::Str(m.name.into())),
        ("unit".into(), Json::Str(m.unit.into())),
        ("better".into(), Json::Str(m.better.into())),
    ];
    if let Some(b) = bound {
        o.push(("bound".into(), Json::Num(b)));
    }
    Json::Obj(o)
}

/// The whole of `BENCHMARK.json`, from the metric tables and `bounds`.
fn benchmark_json(bounds: &BTreeMap<&str, f64>) -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).into())).collect());
    Json::Obj(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "gsbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strs(&["gsbench"])),
        ("run_seconds".into(), Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(w.name.into())),
                            ("why".into(), Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric_json(m, Some(bounds[m.name])))
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, None)).collect()),
        ),
    ])
}

/// Median, quartiles, spread, range and the raw values of every
/// end-to-end metric of one set of runs.
fn set_json(samples: &Samples) -> Result<Json, String> {
    let mut rows = Vec::new();
    for m in END_TO_END {
        let v = samples
            .get(m.name)
            .ok_or(format!("a run did not report {}", m.name))?;
        let (q1, q3) = quartiles(v);
        rows.push((
            m.name.to_string(),
            Json::Obj(vec![
                ("unit".into(), Json::Str(m.unit.into())),
                ("median".into(), Json::Num(median(v))),
                ("q1".into(), Json::Num(q1)),
                ("q3".into(), Json::Num(q3)),
                ("iqr_share".into(), Json::Num(spread(v))),
                ("range_share".into(), Json::Num(range_share(v))),
                (
                    "values".into(),
                    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                ),
            ]),
        ));
    }
    Ok(Json::Obj(rows))
}

/// The sets of runs a calibration makes of one workload.
const SETS: [&str; 2] = ["across_seeds", "one_seed"];

fn baseline_path(workload: &str) -> String {
    format!("{BASELINE_DIR}/{workload}.json")
}

/// Measure `workload` twenty times and write its baseline file.
fn measure(workload: &str) -> Result<(), String> {
    let mut sets = [Samples::new(), Samples::new()];
    let mut digests = Vec::new();
    for seed in SEEDS {
        let (metrics, digest) = child_run(workload, seed)?;
        push(&mut sets[0], metrics);
        digests.push(Json::Str(digest));
        push(&mut sets[1], child_run(workload, REPEAT_SEED)?.0);
    }
    let doc = Json::Obj(vec![
        (SETS[0].into(), set_json(&sets[0])?),
        (SETS[1].into(), set_json(&sets[1])?),
        // The store each seed of the first set ended on.
        ("store_digests".into(), Json::Arr(digests)),
    ]);
    let path = baseline_path(workload);
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))
}

/// `gsbench calibrate [workload…]`: measure the named workloads (all
/// of them when none is named), then derive every bound from all the
/// baseline files.
pub fn calibrate(only: &[String]) -> Result<(), String> {
    // `--derive`: measure nothing, derive the bounds from the baseline
    // files as they are.
    let derive_only = only == ["--derive"];
    let only = if derive_only { &[] } else { only };
    if let Some(unknown) = only
        .iter()
        .find(|n| WORKLOADS.iter().all(|w| w.name != **n))
    {
        return Err(format!("no workload named {unknown}"));
    }
    std::fs::create_dir_all(BASELINE_DIR).map_err(|e| format!("{BASELINE_DIR}: {e}"))?;
    for w in WORKLOADS {
        if !derive_only && (only.is_empty() || only.iter().any(|n| n == w.name)) {
            measure(w.name)?;
        }
    }

    // metric → (worst IQR ÷ median, the workload and set it was seen on).
    let mut worst: BTreeMap<&str, (f64, String)> = BTreeMap::new();
    let mut digests = BTreeMap::new();
    for w in WORKLOADS {
        let path = baseline_path(w.name);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse_json(&text)?;
        for set in SETS {
            for m in END_TO_END {
                let s = doc
                    .get(set)
                    .and_then(|s| s.get(m.name)?.get("iqr_share")?.as_f64())
                    .ok_or(format!("{path} has no {set} spread of {}", m.name))?;
                let e = worst.entry(m.name).or_default();
                if s > e.0 {
                    *e = (s, format!("{} {set}", w.name));
                }
            }
        }
        let ended_on = doc
            .get("store_digests")
            .cloned()
            .ok_or(format!("{path} has no store digests"))?;
        digests.insert(w.name, ended_on);
    }
    // At the measured scale, not only in the smoke test: one script,
    // one final store, whichever backend maintained the views.
    if digests["alg1_portfolio"] != digests["circuit_portfolio"] {
        return Err("alg1_portfolio and circuit_portfolio ended on different stores".into());
    }

    let mut bounds = BTreeMap::new();
    let mut too_noisy = Vec::new();
    for m in END_TO_END {
        let (s, at) = &worst[m.name];
        let bound = if m.name == "setup_s" {
            BOUNDS.1
        } else {
            let seen = if clocked(m) {
                s.max(HOST_LEVEL_SHIFT)
            } else {
                *s
            };
            ((3.0 * seen * 100.0).ceil() / 100.0).clamp(BOUNDS.0, BOUNDS.1)
        };
        println!(
            "{:<18} worst IQR/median {s:.4} ({at})  bound {bound:.2}{}",
            m.name,
            if 3.0 * s > bound && m.name != "setup_s" {
                "  (spread above a third of the bound)"
            } else {
                ""
            }
        );
        if *s > BOUNDS.1 && m.name != "setup_s" {
            too_noisy.push(format!("{} on {at}", m.name));
        }
        bounds.insert(m.name, bound);
    }
    if !too_noisy.is_empty() {
        return Err(format!(
            "spread above the largest bound {}; measure again on a quiet machine, fix or demote: {}",
            BOUNDS.1,
            too_noisy.join(", ")
        ));
    }
    std::fs::write(BENCHMARK_JSON, benchmark_json(&bounds).render_pretty())
        .map_err(|e| format!("{BENCHMARK_JSON}: {e}"))
}

/// The bounds `BENCHMARK.json` currently holds.
fn read_bounds() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let v = parse_json(&text)?;
    let e2e = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    Ok(e2e
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// `gsbench check-repeat`.
pub fn check_repeat() -> Result<(), String> {
    let bounds = read_bounds()?;
    let (mut moved_rows, mut wide_rows) = (0, 0);
    for w in WORKLOADS {
        let mut sets = [Samples::new(), Samples::new()];
        for set in &mut sets {
            for _ in 0..REPEAT_RUNS {
                push(set, child_run(w.name, REPEAT_SEED)?.0);
            }
        }
        println!("{}", w.name);
        for m in END_TO_END {
            let (va, vb) = (&sets[0][m.name], &sets[1][m.name]);
            let (ma, mb) = (median(va), median(vb));
            let bound = *bounds
                .get(m.name)
                .ok_or(format!("{BENCHMARK_JSON} has no bound for {}", m.name))?;
            let moved = (ma - mb).abs() / ma.abs().max(f64::MIN_POSITIVE);
            let (ra, rb) = (range_share(va), range_share(vb));
            let wide = ra.max(rb) > MAX_RANGE;
            moved_rows += usize::from(moved >= bound);
            wide_rows += usize::from(wide);
            println!(
                "  {:<18} {ma:>14.4} {mb:>14.4} {:<4} moved {moved:.4} (bound {bound:.2}) range {ra:.4} / {rb:.4} {}",
                m.name,
                m.unit,
                match (moved >= bound, wide) {
                    (true, _) => "MOVED",
                    (false, true) => "WIDE",
                    (false, false) => "ok",
                }
            );
        }
    }
    if moved_rows + wide_rows == 0 {
        Ok(())
    } else {
        Err(format!(
            "{moved_rows} medians moved by their bound or more; {wide_rows} rows have a set whose range exceeds {MAX_RANGE} of its median"
        ))
    }
}
