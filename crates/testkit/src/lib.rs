//! # gsview-testkit — what only tests and experiments run
//!
//! Every library crate of the workspace carries only what a deployment
//! runs; the machinery that checks it lives here, as a dev-dependency
//! of the crates whose tests use it and a normal dependency of the
//! experiment harness alone.
//!
//! * [`oracle`] — the §4.3 consistency criterion as a differential
//!   oracle: sequential ≡ batched ≡ recompute ≡ circuit (≡ parallel,
//!   ≡ sharded multi-writer), snapshot and cross-shard isolation, and
//!   the crash-recovery prefix check;
//! * [`chaos`] — the warehouse's fault decorators (report-stream and
//!   query faults) and the harness that proves recovery from them;
//! * [`relbaseline`] — the §4.4 relational-flattening comparator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod oracle;
pub mod relbaseline;

/// Report a checked failure: dump the flight recorder and panic with
/// `head` followed by one indented line per item. Every `assert_*`
/// wrapper of this crate ends here, so each keeps only its own header
/// and replay text.
fn fail(head: &str, items: &[String]) -> ! {
    let msg = format!("{head}\n  {}", items.join("\n  "));
    gsview_obs::failure(&msg);
    panic!("{msg}");
}

/// One update run as replay text: `[u1, u2, …]`.
fn run_text(updates: &[gsdb::Update]) -> String {
    let ops: Vec<String> = updates.iter().map(|u| u.to_string()).collect();
    format!("[{}]", ops.join(", "))
}
