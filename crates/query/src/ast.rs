//! Abstract syntax of the query and view-definition language
//! (paper §2 expression 2.1 and §3 expressions 3.2/3.5):
//!
//! ```text
//! SELECT OBJ.sel_path_exp X
//! WHERE  cond(X.cond_path_exp)
//! [WITHIN DB1]
//! [ANS INT DB2]
//!
//! define view  V  as: SELECT ...
//! define mview MV as: SELECT ...
//! ```

use crate::cond::Pred;
use crate::pathexpr::{Elem, PathExpr};
use gsdb::Oid;
use std::fmt;

/// The entry point of a query: a known OID, or all objects of a
/// database (`DB.?` — paper §2: "Using DB.? means that the search
/// starts at all objects in DB").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry {
    /// Start at one object.
    Object(Oid),
    /// Start at every member of a database object.
    DatabaseAll(Oid),
}

impl Entry {
    /// The OID this entry names.
    pub fn oid(&self) -> Oid {
        match self {
            Entry::Object(o) | Entry::DatabaseAll(o) => *o,
        }
    }
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entry::Object(o) => write!(f, "{o}"),
            Entry::DatabaseAll(o) => write!(f, "{o}.?"),
        }
    }
}

/// A `WHERE` condition: `cond(X.cond_path)` with an existential
/// predicate over the atomic objects reached.
#[derive(Clone, Debug, PartialEq)]
pub struct Condition {
    /// The path expression from the selected object.
    pub path: PathExpr,
    /// The predicate applied to reached atomic values.
    pub pred: Pred,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "X {}", self.pred)
        } else {
            write!(f, "X.{} {}", self.path, self.pred)
        }
    }
}

/// A query (paper expression 2.1).
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Entry point.
    pub entry: Entry,
    /// Selection path expression.
    pub sel_path: PathExpr,
    /// The bound variable's name (`X`), kept for display.
    pub var: String,
    /// Optional `WHERE` condition.
    pub cond: Option<Condition>,
    /// `WITHIN DB1`: restrict traversal to one database.
    pub within: Option<Oid>,
    /// `ANS INT DB2`: intersect the answer with a database.
    pub ans_int: Option<Oid>,
}

impl Query {
    /// A bare `SELECT entry.path X` query.
    pub fn select(entry: Entry, sel_path: PathExpr) -> Self {
        Query {
            entry,
            sel_path,
            var: "X".to_owned(),
            cond: None,
            within: None,
            ans_int: None,
        }
    }

    /// Attach a `WHERE` condition.
    pub fn with_cond(mut self, path: PathExpr, pred: Pred) -> Self {
        self.cond = Some(Condition { path, pred });
        self
    }

    /// Attach a `WITHIN` clause.
    pub fn within(mut self, db: Oid) -> Self {
        self.within = Some(db);
        self
    }

    /// Attach an `ANS INT` clause.
    pub fn ans_int(mut self, db: Oid) -> Self {
        self.ans_int = Some(db);
        self
    }

    /// The selection expression as evaluated from
    /// [`Entry::oid`]: a `DB.?` entry prepends the `?` step that
    /// reaches the database's members.
    pub fn sel_expr(&self) -> PathExpr {
        match self.entry {
            Entry::Object(_) => self.sel_path.clone(),
            Entry::DatabaseAll(_) => PathExpr(vec![Elem::AnyOne]).concat(&self.sel_path),
        }
    }

    /// True iff both paths are constant (no wild cards) and the entry
    /// is a single object — the *simple view* class of paper §4.2.
    pub fn is_simple(&self) -> bool {
        matches!(self.entry, Entry::Object(_))
            && self.sel_path.is_constant()
            && self
                .cond
                .as_ref()
                .map(|c| c.path.is_constant())
                .unwrap_or(true)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {}", self.entry)?;
        if !self.sel_path.is_empty() {
            write!(f, ".{}", self.sel_path)?;
        }
        write!(f, " {}", self.var)?;
        if let Some(c) = &self.cond {
            write!(f, " WHERE {c}")?;
        }
        if let Some(db) = self.within {
            write!(f, " WITHIN {db}")?;
        }
        if let Some(db) = self.ans_int {
            write!(f, " ANS INT {db}")?;
        }
        Ok(())
    }
}

/// A view definition (paper §3: `define view` / `define mview`).
#[derive(Clone, Debug, PartialEq)]
pub struct ViewDef {
    /// The view object's OID.
    pub name: Oid,
    /// True for `define mview` (materialized).
    pub materialized: bool,
    /// The defining query.
    pub query: Query,
}

impl fmt::Display for ViewDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "define {} {} as: {}",
            if self.materialized { "mview" } else { "view" },
            self.name,
            self.query
        )
    }
}

/// A statement: a query or a view definition.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// A standalone query.
    Query(Query),
    /// A view definition.
    ViewDef(ViewDef),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::CmpOp;

    #[test]
    fn display_matches_paper_syntax() {
        let q = Query::select(
            Entry::Object(Oid::new("ROOT")),
            PathExpr::parse("professor").unwrap(),
        )
        .with_cond(PathExpr::parse("age").unwrap(), Pred::new(CmpOp::Gt, 40i64))
        .within(Oid::new("PERSON"));
        assert_eq!(
            q.to_string(),
            "SELECT ROOT.professor X WHERE X.age > 40 WITHIN PERSON"
        );
    }

    #[test]
    fn simple_view_classification() {
        let simple = Query::select(
            Entry::Object(Oid::new("ROOT")),
            PathExpr::parse("professor").unwrap(),
        )
        .with_cond(PathExpr::parse("age").unwrap(), Pred::new(CmpOp::Le, 45i64));
        assert!(simple.is_simple());

        let wild = Query::select(
            Entry::Object(Oid::new("ROOT")),
            PathExpr::parse("*").unwrap(),
        );
        assert!(!wild.is_simple());

        let db_entry = Query::select(
            Entry::DatabaseAll(Oid::new("D1")),
            PathExpr::parse("a").unwrap(),
        );
        assert!(!db_entry.is_simple());
    }

    #[test]
    fn viewdef_display() {
        let v = ViewDef {
            name: Oid::new("VJ"),
            materialized: false,
            query: Query::select(
                Entry::Object(Oid::new("ROOT")),
                PathExpr::parse("*").unwrap(),
            )
            .with_cond(
                PathExpr::parse("name").unwrap(),
                Pred::new(CmpOp::Eq, "John"),
            )
            .within(Oid::new("PERSON")),
        };
        assert_eq!(
            v.to_string(),
            "define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON"
        );
    }
}
