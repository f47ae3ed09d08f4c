//! # gsbench — the canonical end-to-end pipeline benchmark
//!
//! Source commit → epoch publish → durable persist → report over the
//! wire → maintenance (Algorithm 1 or delta circuit) → view read,
//! measured as a user sees it (seven end-to-end metrics per workload)
//! and layer by layer (a traced run's spans, recorded from outside the
//! system around each call into a crate's public functions).
//!
//! * [`kit`] — the measurement kit: clocks, exact percentiles, segments
//!   and their quiet eighth, CPU pinning, spans, digests, JSON;
//! * [`inputs`] — seed → objects, update batches, read bursts (plain
//!   data);
//! * [`workloads`] — the four workloads and why each exists;
//! * [`sut`] — the adapter: every call into the system under test;
//! * [`run`] — the closed loop and the metric definitions;
//! * [`calibrate`] — bounds from measured spread, and the repeat check.
//!
//! See `README.md` beside this crate for the metric definitions and
//! the measurement rules.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod inputs;
pub mod kit;
pub mod run;
pub mod sut;
pub mod workloads;
