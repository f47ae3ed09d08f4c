//! The integrator (paper Figure 6): collects update reports from all
//! source monitors and feeds them to the warehouse in a deterministic
//! order.
//!
//! Two modes:
//! * [`Integrator`] — synchronous polling of registered monitors
//!   (deterministic, used by tests and benchmarks);
//! * [`spawn_channel_integrator`] — a bounded-channel pipeline where
//!   each monitor is pumped from its own thread, as a warehouse
//!   deployment would run (used by the warehouse example).

use crate::protocol::UpdateReport;
use crate::source::{Monitor, ReportSource};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// A synchronous integrator polling report sources in registration
/// order.
///
/// Reports from one source preserve their sequence order; across
/// sources, the integrator round-robins polls, which matches the
/// paper's assumption that each source reports its own updates in
/// order while sources are mutually asynchronous.
///
/// Any [`ReportSource`] registers — a plain [`Monitor`] or a
/// fault-injecting [`FaultyMonitor`](crate::chaos::FaultyMonitor); the
/// integrator neither knows nor cares whether the stream is reliable.
/// Gap and duplicate detection is the warehouse's job
/// ([`Warehouse::handle_report`](crate::Warehouse::handle_report)),
/// fed by the control-plane [`Integrator::checkpoints`] for tail-loss
/// reconciliation.
#[derive(Default)]
pub struct Integrator {
    monitors: Vec<Box<dyn ReportSource>>,
}

impl Integrator {
    /// An integrator with no monitors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a report source (a monitor or any decorator over one).
    pub fn register(&mut self, source: impl ReportSource + 'static) {
        self.monitors.push(Box::new(source));
    }

    /// Poll all sources once, returning the merged report batch.
    pub fn poll(&self) -> Vec<UpdateReport> {
        let mut out = Vec::new();
        for m in &self.monitors {
            out.extend(m.poll_reports());
        }
        out
    }

    /// Every source's control-plane checkpoint `(name, next_seq)`.
    /// Feed to [`Warehouse::reconcile_checkpoints`](crate::Warehouse::reconcile_checkpoints)
    /// to detect tail loss.
    pub fn checkpoints(&self) -> Vec<(String, u64)> {
        self.monitors.iter().map(|m| m.checkpoint()).collect()
    }
}

/// Spawn one pump thread per monitor, all feeding a bounded channel.
/// Returns the receiving end and the thread handles; threads exit when
/// `stop` is dropped... more precisely, each pump exits after
/// `rounds` polls (bounded by test/demo needs — sources here are
/// in-process, so an unbounded daemon would never terminate).
pub fn spawn_channel_integrator(
    monitors: Vec<Monitor>,
    rounds: usize,
) -> (Receiver<UpdateReport>, Vec<JoinHandle<()>>) {
    let (tx, rx): (SyncSender<UpdateReport>, Receiver<UpdateReport>) = sync_channel(1024);
    let mut handles = Vec::new();
    for m in monitors {
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..rounds {
                for report in m.poll() {
                    if tx.send(report).is_err() {
                        return;
                    }
                }
                std::thread::yield_now();
            }
        }));
    }
    drop(tx);
    (rx, handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReportLevel;
    use crate::source::Source;
    use gsdb::{Object, Oid, Update};

    fn tiny_source(name: &str) -> Source {
        let src = Source::empty(name, Oid::new(&format!("{name}-root")), ReportLevel::OidsOnly);
        src.with_store(|s| {
            s.create(Object::empty_set(format!("{name}-root").as_str(), "db"))?;
            s.create(Object::atom(format!("{name}-x").as_str(), "x", 1i64))
        })
        .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    #[test]
    fn integrator_merges_sources_in_order() {
        let s1 = tiny_source("s1");
        let s2 = tiny_source("s2");
        let mut integrator = Integrator::new();
        integrator.register(s1.monitor());
        integrator.register(s2.monitor());

        s1.apply(Update::modify("s1-x", 2i64)).unwrap();
        s2.apply(Update::modify("s2-x", 2i64)).unwrap();
        s1.apply(Update::modify("s1-x", 3i64)).unwrap();

        let batch = integrator.poll();
        assert_eq!(batch.len(), 3);
        // Per-source sequence order preserved.
        let s1_seqs: Vec<u64> = batch
            .iter()
            .filter(|r| r.source == "s1")
            .map(|r| r.seq)
            .collect();
        assert_eq!(s1_seqs, vec![0, 1]);
        // Second poll is empty.
        assert!(integrator.poll().is_empty());
    }

    #[test]
    fn channel_integrator_delivers_all_reports() {
        let s1 = tiny_source("c1");
        let s2 = tiny_source("c2");
        for i in 0..10 {
            s1.apply(Update::modify("c1-x", i as i64)).unwrap();
            s2.apply(Update::modify("c2-x", i as i64)).unwrap();
        }
        let (rx, handles) = spawn_channel_integrator(vec![s1.monitor(), s2.monitor()], 3);
        let reports: Vec<UpdateReport> = rx.iter().collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reports.len(), 20);
        // Per-source order is preserved even across threads.
        let seqs: Vec<u64> = reports
            .iter()
            .filter(|r| r.source == "c1")
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
    }
}
