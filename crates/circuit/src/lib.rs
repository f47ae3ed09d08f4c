//! gsview-circuit — DBSP-style delta circuits for view maintenance.
//!
//! The paper's Algorithm 1 repairs a view per update by locating and
//! patching affected members, which goes superlinear for multi-path
//! and aggregate views under churn. This crate is the
//! alternative backend: view definitions compile into *delta
//! circuits* — dataflows of composable incremental operators (edge
//! expansion, condition semijoin, distinct, weighted aggregate) over
//! Z-set deltas, with per-operator count state updated in O(|Δin|)
//! per commit.
//!
//! The circuit keeps no copy of the graph. It reads the store at two
//! versions: a fork of the store it last stepped to (O(pages) shared
//! pointers) and the post-batch store. The pair yields the batch's
//! live-edge events — a [`gsdb::LiveDelta`], derived once by the
//! batch for every circuit it is handed — and propagation walks the
//! post-batch store's children lists and parent index, as Algorithm 1
//! does (paper §4.4).
//!
//! Layering: this crate sits between `gsview-query` (path-expression
//! NFAs, predicates) and `gsview-core` (which lowers `ViewDef`s into
//! [`CircuitDef`]s and routes consolidated delta batches here when
//! the planner picks the circuit backend).
//!
//! Circuits take constant paths only: every path in a [`CircuitDef`]
//! is a [`gsdb::Path`]. A constant path's automaton is a chain, so the
//! product of any base — DAG, cyclic, self-looped — with it is acyclic,
//! every derivation count is finite, and [`Circuit::init`] and
//! [`Circuit::step`] cannot fail. Wildcard views stay on Algorithm 1.
//!
//! * [`zset`] — weighted collections and the distinct clamp.
//! * [`operator`] — forward/backward weighted path flows.
//! * [`circuit`] — the compiled dataflow and its step function.

#![warn(missing_docs)]

pub mod circuit;
pub mod operator;
pub mod zset;

pub use circuit::{AggDef, AggFn, BranchDef, Circuit, CircuitDef, CondDef, StepOutput, StepStats};
pub use zset::{distinct_delta, DistinctOp, ZSet};
