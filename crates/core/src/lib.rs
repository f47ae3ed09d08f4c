//! # gsview-core — graph structured views and their incremental maintenance
//!
//! The primary contribution of Zhuge & Garcia-Molina, *Graph Structured
//! Views and Their Incremental Maintenance* (ICDE 1998): virtual and
//! materialized views over graph structured databases, and Algorithm 1
//! for maintaining simple materialized views incrementally under the
//! basic updates `insert` / `delete` / `modify`.
//!
//! * [`virtualview`] — virtual views as view objects (§3.1), usable as
//!   query starting points, `ANS INT` filters, and view-on-view bases;
//! * [`MaterializedView`] — delegates with semantic OIDs (`MV.P1`),
//!   edge swizzling, manual edits, auxiliary timestamps (§3.2);
//! * [`Maintainer`] — Algorithm 1 (§4.3), written against the
//!   [`BaseAccess`] interface so the warehouse architecture (§5) can
//!   reuse it unchanged;
//! * [`recompute`] / [`consistency`] — the recomputation baseline of
//!   §4.4 and the correctness oracle;
//! * [`general`] — the §6 extensions: compound views, wild-card path
//!   expressions (located by containment test, repaired locally), DAG
//!   bases;
//! * [`ViewCluster`] — shared delegates across views (§3.2);
//! * [`PartialView`] — partially materialized views (§6 open issue);
//! * [`access`] — query authorization through views (§3.1).
//!
//! ## Quickstart: paper Examples 5 & 6
//!
//! ```
//! use gsdb::{samples, Oid, Object, Store};
//! use gsview_core::{LocalBase, Maintainer, SimpleViewDef, recompute::recompute};
//! use gsview_query::{CmpOp, Pred};
//!
//! let mut store = Store::new();
//! samples::person_db(&mut store).unwrap();
//!
//! // define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45
//! let def = SimpleViewDef::new("YP", "ROOT", "professor")
//!     .with_cond("age", Pred::new(CmpOp::Le, 45i64));
//! let mut yp = recompute(&def, &mut LocalBase::new(&store)).unwrap();
//! assert_eq!(yp.members_base(), vec![Oid::new("P1")]);
//!
//! // insert(P2, A2) with <A2, age, 40>: P2 joins the view.
//! store.create(Object::atom("A2", "age", 40i64)).unwrap();
//! let update = store.insert_edge(Oid::new("P2"), Oid::new("A2")).unwrap();
//! let m = Maintainer::new(def);
//! m.apply(&mut yp, &mut LocalBase::new(&store), &update).unwrap();
//! assert_eq!(yp.delegate_of(Oid::new("P2")).unwrap().name(), "YP.P2");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod aggregate;
pub mod annotate;
mod base;
pub mod bulk;
pub mod catalog;
pub mod circuitview;
pub mod cluster;
pub mod consistency;
pub mod general;
mod maintain;
mod mview;
pub mod oracle;
pub mod parallel;
pub mod partial;
pub mod recompute;
mod sink;
mod viewdef;
pub mod virtualview;
pub mod visibility;

pub use aggregate::{AggFn, AggregateView, AggregateViewDef};
pub use base::{BaseAccess, LocalBase};
pub use bulk::{view_unaffected, BulkUpdate};
pub use catalog::{Catalog, CatalogError};
pub use circuitview::{CircuitMaintainer, CircuitSource};
pub use cluster::ViewCluster;
pub use general::{CompoundMaintainer, GeneralMaintainer};
pub use maintain::{sweep_members, BatchOutcome, Maintainer, Outcome};
pub use mview::{MaterializedView, ViewDelta};
pub use oracle::{
    assert_crash_recovery, assert_cross_shard_isolated, assert_equivalent,
    assert_networked_equivalence, assert_parallel_equivalent, assert_sharded_commit_equivalent,
    assert_snapshot_isolated, check_crash_recovery, check_cross_shard_isolation,
    check_equivalence, check_networked_equivalence, check_parallel_equivalence,
    check_sharded_commit_equivalence, check_snapshot_isolation,
    diff_members, reference_members, IsolationReport, OracleVerdict, RecoveryVerdict,
    ShardedVerdict,
};
pub use parallel::{ParallelMaintainer, PartitionStats};
pub use partial::PartialView;
pub use sink::{MemberSet, ViewSink};
pub use viewdef::{CompoundViewDef, GeneralCond, GeneralViewDef, SimpleCond, SimpleViewDef};
pub use visibility::{apply_policy, EdgePolicy};
