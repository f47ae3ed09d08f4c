//! Smoke gate: every workload at `--scale tiny`, in-process, in a few
//! seconds — the oracle gate passes, every metric `BENCHMARK.json`
//! names is reported with its unit, spans nest, and the `#` counts and
//! digests are a function of the seed.

use gsview_e2e::kit::{parse_json, self_times, spans_nest, Json, JsonExt};
use gsview_e2e::run::{run, Options, Report, END_TO_END, PER_LAYER};
use gsview_e2e::workloads::{Scale, Workload, WORKLOADS};
use std::path::PathBuf;
use std::sync::Mutex;

/// The durable `#` counts are diffs of process-global obs counters:
/// runs in one process must not overlap.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(w: &Workload, seed: u64, trace: bool) -> Report {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    run(
        w,
        &Options {
            seed,
            seconds: 1,
            trace,
            scale: Scale::Tiny,
            scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
        },
    )
}

fn digests(r: &Report) -> Vec<String> {
    ["views_digest", "store_digest", "reads_digest", "counts"]
        .iter()
        .map(|k| r.info.get(k).unwrap_or_else(|| panic!("no {k}")).render())
        .collect()
}

fn assert_passed(w: &Workload, r: &Report) {
    assert!(r.correct, "{} failed its gate: {}", w.name, r.info.render());
    assert_eq!(r.failed, 0, "{}", w.name);
    assert!(r.attempted >= 1);
}

#[test]
fn every_workload_passes_its_gate_and_reports_every_metric() {
    let started = std::time::Instant::now();
    for w in WORKLOADS {
        let plain = tiny(w, 1, false);
        assert_passed(w, &plain);
        for m in END_TO_END {
            let v = plain
                .metric(m.name)
                .unwrap_or_else(|| panic!("{}: {} not reported", w.name, m.name));
            assert!(v.is_finite() && v >= 0.0, "{} {} = {v}", w.name, m.name);
        }
        assert_eq!(plain.metrics.len(), END_TO_END.len());

        let traced = tiny(w, 1, true);
        assert_passed(w, &traced);
        for m in PER_LAYER {
            assert!(
                traced.metric(m.name).is_some_and(f64::is_finite),
                "{}: {} not reported",
                w.name,
                m.name
            );
        }
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        // The result line is the contract's four keys and nothing else.
        let line = parse_json(&traced.result_line()).unwrap();
        let Json::Obj(keys) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        // Spans nest, and no child outlasts its parent.
        assert!(!traced.spans.is_empty());
        assert!(
            spans_nest(&traced.spans),
            "{}: a span escapes its parent",
            w.name
        );
        let own = self_times(&traced.spans);
        for (i, s) in traced.spans.iter().enumerate() {
            let kids: u64 = traced
                .spans
                .iter()
                .filter(|c| c.parent == Some(i as u32))
                .map(|c| c.dur())
                .sum();
            assert_eq!(
                own[i] + kids,
                s.dur(),
                "{}: negative self time in {}",
                w.name,
                s.name
            );
        }
        // The blocking chain is covered by layer spans.
        let coverage = traced.metric("trace.chain_coverage").unwrap();
        assert!(
            (0.9..=1.0001).contains(&coverage),
            "{}: coverage {coverage}",
            w.name
        );
        // Tracing changes no result.
        assert_eq!(digests(&plain), digests(&traced), "{}", w.name);
    }
    // About a second in a release build; the cap only catches a tiny
    // scale that stopped being tiny.
    assert!(
        started.elapsed().as_secs() < 20,
        "the smoke gate took {:?}",
        started.elapsed()
    );
}

#[test]
fn digests_and_counts_are_a_function_of_the_seed() {
    for w in WORKLOADS {
        let a = tiny(w, 7, false);
        let b = tiny(w, 7, false);
        let c = tiny(w, 8, false);
        assert_passed(w, &a);
        assert_eq!(
            digests(&a),
            digests(&b),
            "{}: same seed, different results",
            w.name
        );
        assert_ne!(
            digests(&a),
            digests(&c),
            "{}: seed + 1, same results",
            w.name
        );
    }
}

#[test]
fn both_portfolios_end_on_the_same_store() {
    let store = |name: &str| {
        let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
        tiny(w, 3, false).info.get("store_digest").unwrap().render()
    };
    assert_eq!(store("alg1_portfolio"), store("circuit_portfolio"));
}

#[test]
fn each_workload_bypasses_the_layers_it_says_it_bypasses() {
    let shares = |name: &str| {
        let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
        let r = tiny(w, 1, true);
        move |layer: &str| r.metric(&format!("share.{layer}")).unwrap()
    };
    let wire = shares("wire_maintain");
    assert!(wire("serve") > 0.0 && wire("warehouse") > 0.0);
    assert_eq!((wire("durable"), wire("circuit")), (0.0, 0.0));
    let alg1 = shares("alg1_portfolio");
    assert!(alg1("core") > 0.0);
    assert_eq!(
        (alg1("serve"), alg1("durable"), alg1("circuit")),
        (0.0, 0.0, 0.0)
    );
    let circuit = shares("circuit_portfolio");
    assert!(circuit("circuit") > 0.0);
    assert_eq!((circuit("serve"), circuit("durable")), (0.0, 0.0));
    let durable = shares("commit_durable");
    assert!(durable("durable") > 0.0 && durable("gsdb") > 0.0);
    assert_eq!((durable("serve"), durable("circuit")), (0.0, 0.0));
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_exactly_the_metrics_and_workloads_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = parse_json(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no {key} list"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    };
    let code = |defs: &[gsview_e2e::run::MetricDef]| -> Vec<String> {
        defs.iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(names("end_to_end"), code(END_TO_END));
    assert_eq!(names("per_layer"), code(PER_LAYER));
    assert_eq!(
        names("workloads"),
        WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect::<Vec<_>>()
    );
    for n in names("end_to_end")
        .iter()
        .chain(&names("per_layer"))
        .chain(&names("workloads"))
    {
        assert!(name_ok(n), "bad name {n:?}");
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        assert!(m
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in v.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(names("end_to_end").contains(&"setup_s".to_string()));
}
