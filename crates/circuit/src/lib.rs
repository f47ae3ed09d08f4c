//! gsview-circuit — DBSP-style delta circuits for view maintenance.
//!
//! The paper's Algorithm 1 repairs a view per update by locating and
//! patching affected members, which goes superlinear for multi-path,
//! wildcard, and aggregate views under churn. This crate is the
//! alternative backend: view definitions compile into *delta
//! circuits* — dataflows of composable incremental operators (edge
//! expansion, condition semijoin, distinct, weighted aggregate) over
//! Z-set deltas, with per-operator count state updated in O(|Δin|)
//! per commit.
//!
//! The circuit keeps no copy of the graph. It reads the store at two
//! versions: a fork of the store it last stepped to (O(pages) shared
//! pointers) and the post-batch store. The pair yields the batch's
//! live-edge events, and propagation walks the post-batch store's
//! children lists and parent index, as Algorithm 1 does (paper §4.4).
//!
//! Layering: this crate sits between `gsview-query` (path-expression
//! NFAs, predicates) and `gsview-core` (which lowers `ViewDef`s into
//! [`CircuitDef`]s and routes consolidated delta batches here when
//! the planner picks the circuit backend).
//!
//! * [`zset`] — weighted collections and the distinct clamp.
//! * `events` — a delta's live-edge, record and atom events, read off
//!   the two store versions.
//! * [`operator`] — forward/backward weighted NFA flows.
//! * [`circuit`] — the compiled dataflow and its step function.

#![warn(missing_docs)]

pub mod circuit;
mod events;
pub mod operator;
pub mod zset;

pub use circuit::{
    AggDef, AggFn, BranchDef, Circuit, CircuitDef, CondDef, StepOutput, StepStats,
};
pub use zset::{distinct_delta, DistinctOp, ZSet};

/// Errors a circuit step can report. Any error leaves the circuit's
/// internal state partial; the caller must re-compile and
/// re-initialize against the current store (which is always a correct
/// fallback — it is exactly recomputation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitError {
    /// Delta propagation exceeded its budget — the base graph has a
    /// cycle under a `*` expression (infinitely many path
    /// derivations), or pathological fan-out.
    Diverged,
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::Diverged => {
                write!(f, "delta propagation diverged (cyclic base under a wildcard?)")
            }
        }
    }
}

impl std::error::Error for CircuitError {}
