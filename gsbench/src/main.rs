//! `gsbench` command line.
//!
//! ```text
//! gsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale tiny]
//! gsbench calibrate [workload… | --derive]   # 20 runs per workload → baseline/, then BENCHMARK.json bounds
//! gsbench check-repeat   # two 5-run sets per workload, compared against the bounds
//! ```
//!
//! The first form is one run of one workload in this process. Its last
//! line on standard output is the result object; the line before it is
//! an `info` object for people (sizes, digests, p99s, the span table).

use gsview_e2e::calibrate;
use gsview_e2e::kit::{spans_jsonl, Json, JsonExt};
use gsview_e2e::run::{run, Options};
use gsview_e2e::workloads::{find, Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Files a run needs live here, inside the checkout; `.gitignore`
/// names it.
const SCRATCH: &str = ".gsbench_tmp";

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: gsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale tiny|full]\n       gsbench calibrate [workload… | --derive] | check-repeat",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("calibrate") => return exit(calibrate::calibrate(&args[1..])),
        Some("check-repeat") => return exit(calibrate::check_repeat()),
        _ => {}
    }
    let mut workload = None;
    let mut opt = Options {
        seed: 1,
        seconds: calibrate::RUN_SECONDS,
        trace: false,
        scale: Scale::Full,
        scratch: PathBuf::from(SCRATCH),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else { return usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = find(val);
                workload.is_some()
            }
            "--seed" => val.parse().map(|v| opt.seed = v).is_ok(),
            "--seconds" => val
                .parse()
                .map(|v: u32| opt.seconds = v)
                .is_ok_and(|()| (1..=60).contains(&opt.seconds)),
            "--trace" => match val.as_str() {
                "0" => true,
                "1" => {
                    opt.trace = true;
                    true
                }
                _ => false,
            },
            "--scale" => match val.as_str() {
                "full" => true,
                "tiny" => {
                    opt.scale = Scale::Tiny;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };

    let report = run(workload, &opt);
    if opt.trace && !report.spans.is_empty() {
        let path = opt.scratch.join(format!("trace_{}.jsonl", workload.name));
        let written = std::fs::create_dir_all(&opt.scratch)
            .and_then(|()| std::fs::write(&path, spans_jsonl(&report.spans)));
        if let Err(e) = written {
            eprintln!("gsbench: could not write {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        Json::Obj(vec![("info".into(), report.info.clone())]).render()
    );
    println!("{}", report.result_line());
    // A run that printed its result exits 0 even when the oracle gate
    // failed: `correct: false` on the result line is the verdict.
    if !report.correct {
        eprintln!(
            "gsbench: {} failed its checks: {}",
            workload.name,
            report.info.render()
        );
    }
    ExitCode::SUCCESS
}

fn exit(r: Result<(), String>) -> ExitCode {
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gsbench: {e}");
            ExitCode::FAILURE
        }
    }
}
