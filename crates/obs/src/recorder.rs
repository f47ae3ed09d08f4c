//! The flight recorder: a fixed-capacity, lock-free ring of the most
//! recent events (the crate's ticket ring, `ring.rs`). Its one
//! allocation per recorded event is fine for a *diagnostic* ring that
//! is only installed when someone is debugging (the macros are no-ops
//! otherwise).

use crate::export;
use crate::ring::Ring;
use crate::{Collector, Event};
use std::sync::Mutex;

/// One entry in the ring: the event plus its global sequence ticket.
#[derive(Clone, Debug)]
pub struct RecordedEvent {
    /// Global record order (monotonic across threads).
    pub ticket: u64,
    /// The event.
    pub event: Event,
}

/// A fixed-capacity lock-free ring of the most recent events; the
/// collector to install when chasing a failing proptest. On
/// [`Collector::on_failure`] it dumps the ring to stderr as a table,
/// writes JSON-lines to `$OBS_DUMP_PATH` if that is set, and parks the
/// drained events where [`FlightRecorder::last_dump`] can read them.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Ring<Event>,
    last_dump: Mutex<Vec<RecordedEvent>>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Ring::with_capacity(capacity),
            last_dump: Mutex::new(Vec::new()),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Events displaced by ring wrap-around so far.
    pub fn evicted(&self) -> u64 {
        self.ring.displaced()
    }

    /// Append one event (lock-free; called by the collector hook).
    pub fn push(&self, event: Event) {
        self.ring.push(event);
    }

    /// Take every buffered event, oldest first, emptying the ring.
    pub fn drain(&self) -> Vec<RecordedEvent> {
        self.ring
            .drain()
            .into_iter()
            .map(|(ticket, event)| RecordedEvent { ticket, event })
            .collect()
    }

    /// The events drained by the most recent failure dump (empty if
    /// none yet). Lets a test that provoked a failure inspect the same
    /// trace that went to stderr.
    pub fn last_dump(&self) -> Vec<RecordedEvent> {
        self.last_dump.lock().unwrap().clone()
    }
}

impl Collector for FlightRecorder {
    fn record(&self, event: Event) {
        self.push(event);
    }

    fn on_failure(&self, context: &str) {
        let events = self.drain();
        // The event trace says *what happened*; the metrics say *how
        // much* — a failure dump without counters has repeatedly
        // proven blind, so take a torn-free snapshot of the global
        // registry and ship both.
        let metrics = crate::metrics::registry().snapshot();
        eprintln!(
            "=== flight recorder: {} event(s), {} evicted — {context} ===",
            events.len(),
            self.evicted()
        );
        eprint!("{}", export::human_table(&events));
        let metrics_table = export::metrics_human_table(&metrics);
        if !metrics_table.is_empty() {
            eprintln!("=== metrics at failure ===");
            eprint!("{metrics_table}");
        }
        if let Ok(path) = std::env::var("OBS_DUMP_PATH") {
            if !path.is_empty() {
                let mut dump = export::json_lines(&events);
                dump.push_str(&export::metrics_json_lines(&metrics));
                match std::fs::write(&path, dump) {
                    Ok(()) => eprintln!("flight recorder: JSON-lines dump written to {path}"),
                    Err(e) => eprintln!("flight recorder: could not write {path}: {e}"),
                }
            }
        }
        *self.last_dump.lock().unwrap() = events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Field};

    fn ev(name: &'static str) -> Event {
        Event {
            ts_ns: 0,
            thread: 1,
            kind: EventKind::Instant,
            name,
            span: 0,
            parent: 0,
            trace: 0,
            fields: vec![Field::new("k", 1u64)],
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_orders_by_ticket() {
        let r = FlightRecorder::with_capacity(4);
        for name in ["a", "b", "c", "d", "e", "f"] {
            r.push(ev(name));
        }
        let drained = r.drain();
        let names: Vec<_> = drained.iter().map(|r| r.event.name).collect();
        assert_eq!(names, vec!["c", "d", "e", "f"]);
        assert_eq!(r.evicted(), 2);
        assert!(r.drain().is_empty(), "drain empties the ring");
    }

    #[test]
    fn concurrent_pushes_never_lose_memory_or_order() {
        let r = FlightRecorder::with_capacity(64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        r.push(ev("x"));
                    }
                });
            }
        });
        let drained = r.drain();
        assert_eq!(drained.len(), 64);
        let tickets: Vec<u64> = drained.iter().map(|r| r.ticket).collect();
        let mut sorted = tickets.clone();
        sorted.sort_unstable();
        assert_eq!(tickets, sorted, "drain returns ticket order");
        // 20_000 pushes into 64 slots: all but the ring's worth (and
        // any swap-race stragglers) were evicted and freed.
        assert!(r.evicted() >= 20_000 - 64 - 4);
    }

    #[test]
    fn failure_dump_parks_events_for_inspection() {
        let r = FlightRecorder::with_capacity(8);
        r.push(ev("before"));
        r.on_failure("unit test");
        assert_eq!(r.last_dump().len(), 1);
        assert_eq!(r.last_dump()[0].event.name, "before");
        assert!(r.drain().is_empty());
    }
}
