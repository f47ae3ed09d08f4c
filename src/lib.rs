//! # gsview — Graph Structured Views and Their Incremental Maintenance
//!
//! A Rust implementation of Zhuge & Garcia-Molina, *Graph Structured
//! Views and Their Incremental Maintenance* (ICDE 1998): views over
//! OEM-style graph structured databases, Algorithm 1 for incremental
//! maintenance of simple materialized views, and the data-warehouse
//! architecture that maintains such views over autonomous sources.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`gsdb`] — the graph structured database substrate (paper §2);
//! * [`query`] — the query/view-definition language (§2–3);
//! * [`views`] — virtual & materialized views and the maintenance
//!   algorithms (§3–4, §6);
//! * [`warehouse`] — the warehousing architecture (§5);
//! * [`serve`] — the async serving tier: the §5 protocol over a real
//!   network boundary (minimal epoll reactor, framed codec,
//!   backpressure and admission control);
//! * [`durable`] — the durable epoch log: content-addressed chunk
//!   segment, CRC-framed manifests, crash-fault injection;
//! * [`workload`] — deterministic synthetic workloads;
//! * [`obs`] — zero-dependency tracing, metrics, and the flight
//!   recorder (spans/events, sharded counters, failure dumps).
//!
//! See `examples/quickstart.rs` for a guided tour and DESIGN.md for
//! the full system inventory.

pub use gsdb;
pub use gsview_core as views;
pub use gsview_durable as durable;
pub use gsview_obs as obs;
pub use gsview_query as query;
pub use gsview_serve as serve;
pub use gsview_warehouse as warehouse;
pub use gsview_workload as workload;
