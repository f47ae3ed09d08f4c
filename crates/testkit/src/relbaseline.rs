//! The relational flattening comparator.
//!
//! Paper §4.4 asks: "Is it possible to represent objects of a GSDB in
//! a relational fashion by 'flattening' the object tree ... then use
//! existing relational view maintenance techniques to maintain the
//! view?" Example 8 gives the three-table encoding; this module
//! implements it, compiles simple views to self-join chains, and
//! maintains them with the classic counting algorithm — so the
//! benchmarks (experiment E3) can measure the cost the paper predicts:
//! path semantics hidden inside `k + j` self-joins.
//!
//! ## Quickstart
//!
//! ```
//! use gsdb::{samples, Oid, Path, Store};
//! use gsview_query::{CmpOp, Pred};
//! use gsview_testkit::relbaseline::{RelDb, RelView, RelViewDef};
//!
//! let mut store = Store::new();
//! samples::person_db(&mut store).unwrap();
//! let mut db = RelDb::encode(&store);
//! let def = RelViewDef::new(
//!     Oid::new("ROOT"),
//!     &Path::parse("professor"),
//!     &Path::parse("age"),
//!     Some(Pred::new(CmpOp::Le, 45i64)),
//! );
//! let mut view = RelView::recompute(&def, &db);
//! assert_eq!(view.members(), vec![Oid::new("P1")]);
//!
//! let up = store.modify_atom(Oid::new("A1"), 80i64).unwrap();
//! for delta in db.apply_update(&up) {
//!     view.propagate(&def, &db, &delta);
//! }
//! assert!(view.members().is_empty());
//! ```

mod counting;
mod tables;

pub use counting::{RelView, RelViewDef};
pub use tables::{RelDb, TableDelta};
