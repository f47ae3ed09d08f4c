//! # gsview-query — query language for graph structured databases
//!
//! The query and view-definition language of Zhuge & Garcia-Molina
//! (ICDE 1998), §2–3:
//!
//! ```text
//! SELECT OBJ.sel_path_exp X
//! WHERE  cond(X.cond_path_exp)
//! [WITHIN DB1]
//! [ANS INT DB2]
//! ```
//!
//! * [`pathexpr`] — path expressions (regular expressions over labels)
//!   compiled to one automaton that matching, containment testing and
//!   graph traversal all read;
//! * [`cond`] — the condition language (existential predicates over
//!   atomic values);
//! * [`ast`], [`lexer`], [`parser`] — surface syntax;
//! * [`eval`] — the evaluation engine with `WITHIN` / `ANS INT`
//!   scoping semantics; [`plan`] picks how its candidates are produced
//!   and [`explain`](mod@explain) reports the choice.
//!
//! ## Quickstart
//!
//! ```
//! use gsdb::{samples, Oid, Store};
//! use gsview_query::{parse_query, evaluate};
//!
//! let mut store = Store::new();
//! samples::person_db(&mut store).unwrap();
//! let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").unwrap();
//! let ans = evaluate(&store, &q).unwrap();
//! assert_eq!(ans.oids, vec![Oid::new("P1")]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod cond;
pub mod eval;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod pathexpr;
pub mod plan;

pub use ast::{Condition, Entry, Query, Statement, ViewDef};
pub use cond::{CmpOp, Pred};
pub use eval::{evaluate, evaluate_into, Answer, EvalError, EvalStats};
pub use explain::explain;
pub use parser::{parse_query, parse_statement, parse_viewdef, ParseError};
pub use pathexpr::{reach_expr, Elem, Nfa, PathExpr, PathExprError, TraversalStats, WalkScratch};
pub use plan::{choose_backend, evaluate_planned, MaintBackend, SelStrategy};
