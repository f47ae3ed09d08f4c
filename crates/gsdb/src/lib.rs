//! # gsdb — a graph structured database substrate
//!
//! An implementation of the *graph structured database* (GSDB) model of
//! Zhuge & Garcia-Molina, *Graph Structured Views and Their Incremental
//! Maintenance* (ICDE 1998), which in turn follows the OEM object
//! exchange model: every object is an `<OID, label, type, value>` record
//! whose value is either atomic or a set of OIDs of other objects.
//!
//! This crate is the storage substrate the view machinery
//! (`gsview-core`) and the warehouse architecture (`gsview-warehouse`)
//! are built on. It provides:
//!
//! * [`Oid`], [`Label`], [`Atom`], [`Value`], [`Object`] — the data
//!   model of paper §2, including semantic delegate OIDs (§3.2);
//! * [`Store`] — the object store, applying the basic updates of §4.1
//!   through [`Store::apply`], with optional inverse-parent and label
//!   indexes and an access counter for cost experiments;
//! * [`path`] — paths and the functions `path(N1,N2)`,
//!   `ancestor(N,p)`, `eval(N,p,cond)` that Algorithm 1 builds on
//!   (§4.3), in both indexed and traversal realizations (§4.4);
//! * [`delta`] and [`events`] — a batch of applied updates, its net
//!   effect, and its change to the live graph, each computed once per
//!   batch for every view maintainer it is handed;
//! * [`graph`], [`gc`], [`database`], [`stats`](crate::stats()), [`snapshot`] —
//!   supporting machinery;
//! * [`builder`] and [`samples`] — ergonomic construction plus the
//!   exact example databases from the paper's figures.
//!
//! ## Quickstart
//!
//! ```
//! use gsdb::{samples, path, Path, Store, Oid, Atom};
//!
//! let mut store = Store::new();
//! samples::person_db(&mut store).unwrap();           // Figure 2
//! let ages = path::reach(&store, Oid::new("ROOT"), &Path::parse("professor.age"));
//! assert_eq!(ages, vec![Oid::new("A1")]);
//! assert_eq!(store.atom(Oid::new("A1")), Some(&Atom::Int(45)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod codec;
mod cowmap;
pub mod database;
pub mod delta;
pub mod display;
pub mod epoch;
mod error;
pub mod events;
pub mod fxhash;
pub mod gc;
pub mod graph;
mod intern;
pub mod label;
pub mod notation;
mod object;
mod oid;
pub mod path;
pub mod samples;
pub mod shard;
pub mod smallset;
pub mod snapshot;
pub mod stats;
mod store;
pub mod txn;
mod update;
mod value;

pub use delta::{ConsolidatedDelta, DeltaBatch, EdgeDelta, EdgeOp, ModifyDelta};
pub use epoch::EpochHandle;
pub use error::{GsdbError, Result};
pub use events::{AtomEvent, EdgeEvent, LiveDelta};
pub use fxhash::{FastMap, FastSet, FxBuildHasher, FxHasher};
pub use label::Label;
pub use object::Object;
pub use oid::Oid;
pub use path::Path;
pub use shard::{CommitResult, PublishInfo, ShardedStore};
pub use smallset::SmallSet;
pub use snapshot::Snapshot;
pub use stats::DurableFootprint;
pub use stats::{stats, stats_at, StoreStats};
pub use store::{Chunk, ShardImage, SlotSet, Store, StoreConfig, MAX_SHARDS};
pub use update::{AppliedUpdate, Update};
pub use value::{Atom, OidSet, Value};
