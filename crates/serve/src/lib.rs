//! # gsview-serve — the §5 protocol over a real network boundary
//!
//! Everything below the warehouse has so far been in-process: the
//! paper's source↔warehouse protocol ran over trait calls, with chaos
//! injected at the trait layer. This crate puts a **real socket**
//! between them — and keeps the zero-dependency rule by building the
//! async machinery itself:
//!
//! * [`sys`] — minimal epoll bindings (`extern "C"` against the libc
//!   `std` already links; no crate dependency);
//! * [`frame`] — length-prefixed, CRC-framed transport framing with
//!   an incremental decoder and typed errors;
//! * [`msg`] — the protocol messages ([`Request`]/[`Reply`]) encoded
//!   on `gsdb`'s codec primitives, OIDs and labels by name;
//! * [`service`] — [`ServeHandler`] dispatch; [`SourceService`]
//!   answers queries from the source's latest **published epoch**
//!   (never a shard lock), so thousands of concurrent readers cost
//!   writers nothing;
//! * [`reactor`] — the single-threaded epoll [`Server`]: bounded
//!   per-connection in-flight windows, write-buffer backpressure,
//!   stalled-peer sweeps, and admission control ([`Admission::Shed`]
//!   replies `Busy`; [`Admission::Queue`] parks arrivals);
//! * [`client`] — the blocking [`FrameClient`], which implements the
//!   warehouse's existing `QueryPort`/`ReportSource` traits so the
//!   whole retry / dead-letter / gap-detection / resync stack works
//!   over TCP unchanged;
//! * [`chaos`] — seeded socket faults (partial writes, stalled peers,
//!   mid-frame disconnects): [`SocketChaosPolicy`] decides them from
//!   the workspace's one fault schedule, [`chaos_write`] carries them
//!   out.
//!
//! ## Wiring a warehouse to a remote source
//!
//! ```
//! use std::sync::Arc;
//! use gsdb::{samples, Oid};
//! use gsview_serve::{FrameClient, Server, ServeConfig, SourceService};
//! use gsview_warehouse::protocol::{CostMeter, ReportLevel, SourceQuery, SourceReply};
//! use gsview_warehouse::source::QueryPort;
//! use gsview_warehouse::Source;
//!
//! let src = Source::empty("persons", Oid::new("ROOT"), ReportLevel::WithValues);
//! src.with_store(|s| samples::person_db(s).map(|_| ())).unwrap();
//!
//! let svc = Arc::new(SourceService::new(src, Arc::new(CostMeter::new())));
//! let server = Server::spawn(svc, ServeConfig::default()).unwrap();
//!
//! let client = FrameClient::connect(server.addr()).unwrap();
//! match client.query(&SourceQuery::Fetch(Oid::new("P1"))).unwrap() {
//!     SourceReply::Object(Some(info)) => assert_eq!(info.label.as_str(), "professor"),
//!     other => panic!("unexpected reply {other:?}"),
//! }
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod client;
pub mod frame;
pub mod msg;
pub mod reactor;
pub mod service;
pub mod sys;
pub mod telemetry;

pub use chaos::{chaos_write, SocketChaosPolicy, SocketFault, WriteOutcome};
pub use client::FrameClient;
pub use frame::{encode_frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME};
pub use msg::{Reply, ReplyBody, Request, RequestBody, ServedStats};
pub use reactor::{Admission, ServeConfig, Server, ServerHandle};
pub use service::{ServeHandler, SourceService};
pub use telemetry::{Harvest, TelemetryHub, TelemetryTail};
