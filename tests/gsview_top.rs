//! End-to-end smoke for the `gsview-top` console binary: spawn a
//! telemetry-enabled server, run the real binary in bounded
//! (`--ticks`) mode against it, and check both the rendered console
//! and the JSON-lines sink.

use gsview::gsdb::{samples, Oid, Update};
use gsview::obs::telemetry::TailSampler;
use gsview::serve::{ServeConfig, Server, SourceService, TelemetryHub};
use gsview::warehouse::{CostMeter, ReportLevel, Source};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn gsview_top_renders_live_batches_and_writes_jsonl() {
    let src = Source::empty("persons", Oid::new("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| samples::person_db(s).map(|_| ()))
        .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    let svc = Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new())));
    let hub = Arc::new(TelemetryHub::new("top-smoke", 256, TailSampler::keep_all()));
    let _g = gsview::obs::install(hub.exporter());
    let server = Server::spawn_with_telemetry(svc, ServeConfig::default(), hub).unwrap();

    // Background write load so batches are never empty.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let src = src.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Acquire) {
                src.apply(Update::modify("A1", 30 + (i % 40))).unwrap();
                i += 1;
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };

    let dir = std::env::temp_dir().join(format!("gsview-top-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("batches.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_gsview-top"))
        .arg(server.addr().to_string())
        .args(["--ticks", "3", "--no-clear"])
        .args(["--jsonl", jsonl.to_str().unwrap()])
        .output()
        .expect("spawn gsview-top");
    stop.store(true, Ordering::Release);
    writer.join().unwrap();

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "gsview-top failed: {}\n{}",
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("gsview-top — top-smoke"), "{stdout}");
    // Store health polled over Request::Stats on a second connection.
    assert!(stdout.contains("store   epoch"), "{stdout}");
    assert!(stdout.contains("shards  ["), "{stdout}");

    let sink = std::fs::read_to_string(&jsonl).unwrap();
    let lines: Vec<&str> = sink.lines().collect();
    assert_eq!(lines.len(), 3, "one JSON line per batch:\n{sink}");
    for line in lines {
        assert!(line.starts_with("{\"seq\":"), "{line}");
        assert!(line.contains("\"service\":\"top-smoke\""), "{line}");
        assert!(line.ends_with("]}"), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}
