//! # gsview-warehouse — view maintenance in a data warehouse
//!
//! The warehousing architecture of paper §5 (Figure 6): autonomous
//! [`Source`]s with [`Monitor`]s (update reports) and [`Wrapper`]s
//! (query answering), an [`Integrator`], and a [`Warehouse`] that
//! maintains materialized views it alone knows the definitions of.
//!
//! The crate's central cost question is the paper's: *how many queries
//! must the warehouse send back to the sources per update?* Everything
//! that moves between warehouse and source is metered
//! ([`CostMeter`]: queries, messages, bytes), and the three
//! query-reduction techniques of §5.1–5.2 are implemented:
//!
//! * richer update reports ([`ReportLevel`]: L1 OIDs-only, L2
//!   +labels/values, L3 +root paths);
//! * local screening by label and impossible-path knowledge
//!   ([`PathKnowledge`]);
//! * the auxiliary structure cache along `sel_path.cond_path`
//!   ([`AuxCache`], Example 10).
//!
//! ## Fault tolerance
//!
//! The paper assumes reports arrive exactly once and queries always
//! answer; this crate does not. Reports carry per-source sequence
//! numbers checked by a [`SeqTracker`]; queries travel over a retrying
//! [`Channel`] (exponential backoff on a [`SimClock`], dead letters
//! when retries run out); a view that missed a report degrades to an
//! explicit [`Stale`](resync::ViewState::Stale) state and is healed by
//! [`Warehouse::resync_view`] — diff repair from one read of the view's
//! region, verified against a second, escalating to full recompute when
//! the two disagree. The testkit's `chaos` module (`gsview-testkit`)
//! injects deterministic, seeded faults through the public
//! [`ReportSource`] and [`QueryPort`] traits and proves post-recovery
//! views equal a never-faulted run.
//!
//! ## Quickstart
//!
//! ```
//! use gsdb::{samples, Oid, Update};
//! use gsview_core::SimpleViewDef;
//! use gsview_query::{CmpOp, Pred};
//! use gsview_warehouse::{ReportLevel, Source, ViewOptions, Warehouse};
//!
//! let source = Source::empty("persons", Oid::new("ROOT"), ReportLevel::WithValues);
//! source.with_store(|s| samples::person_db(s).map(|_| ())).unwrap();
//! source.with_store(|s| { s.drain_log(); });
//!
//! let mut wh = Warehouse::new();
//! wh.connect(&source);
//! let def = SimpleViewDef::new("YP", "ROOT", "professor")
//!     .with_cond("age", Pred::new(CmpOp::Le, 45i64));
//! wh.add_view("persons", def, ViewOptions::default()).unwrap();
//!
//! source.apply(Update::modify("A1", 80i64)).unwrap();
//! for report in source.monitor().poll() {
//!     wh.handle_report(&report).unwrap();
//! }
//! assert!(wh.view(Oid::new("YP")).unwrap().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod colocated;
pub mod durable;
pub mod integrator;
pub mod protocol;
pub mod remote;
pub mod resync;
pub mod source;
mod warehouse;

pub use cache::{AuxCache, PathKnowledge};
pub use colocated::ColocatedViews;
pub use durable::{ChunkCache, FetchStats};
pub use integrator::{spawn_channel_integrator, Integrator};
pub use protocol::{
    CostMeter, CostSnapshot, ObjectInfo, QueryFault, ReportLevel, RootPathInfo, SourceQuery,
    SourceReply, UpdateReport, WireSize,
};
pub use remote::{Channel, RemoteBase};
pub use resync::{
    DeadLetter, DeadLetterQueue, ResyncOutcome, RetryPolicy, SeqTracker, SeqVerdict, SimClock,
    StaleCause, ViewState,
};
pub use source::{answer, Monitor, QueryPort, ReportSource, Source, Wrapper};
pub use warehouse::{ViewOptions, ViewStats, Warehouse};
