//! Definitions of the view classes this crate can maintain.
//!
//! * [`SimpleViewDef`] — the §4.2 class: constant `sel_path` and
//!   `cond_path` (no wild cards), single select path, single condition,
//!   tree-structured base. Algorithm 1 maintains these.
//! * [`CompoundViewDef`] — several simple branches unioned into one
//!   view ("handling views with more than one select path or more than
//!   one condition is straightforward", §6).
//! * [`GeneralViewDef`] — wild-card path expressions (§6 extension).

use gsdb::{Oid, Path};
use gsview_query::{Entry, PathExpr, Pred, Query, ViewDef};
use std::fmt;

/// The condition of a simple view: `cond(X.cond_path)` with predicate
/// `pred`, existentially quantified (paper §2).
#[derive(Clone, Debug, PartialEq)]
pub struct SimpleCond {
    /// Constant condition path.
    pub path: Path,
    /// Predicate on atomic values.
    pub pred: Pred,
}

/// A simple materialized-view definition (paper expression 4.6):
///
/// ```text
/// define mview MV as: SELECT ROOT.sel_path X WHERE cond(X.cond_path)
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimpleViewDef {
    /// The view object's OID (e.g. `YP`).
    pub view: Oid,
    /// The entry point (`ROOT`).
    pub root: Oid,
    /// Constant selection path.
    pub sel_path: Path,
    /// Optional condition. `None` selects purely structurally.
    pub cond: Option<SimpleCond>,
}

impl SimpleViewDef {
    /// Build a definition.
    pub fn new(view: impl Into<Oid>, root: impl Into<Oid>, sel_path: impl Into<Path>) -> Self {
        SimpleViewDef {
            view: view.into(),
            root: root.into(),
            sel_path: sel_path.into(),
            cond: None,
        }
    }

    /// Attach a condition.
    pub fn with_cond(mut self, path: impl Into<Path>, pred: Pred) -> Self {
        self.cond = Some(SimpleCond {
            path: path.into(),
            pred,
        });
        self
    }

    /// `sel_path.cond_path` — the concatenation Algorithm 1 matches
    /// update locations against.
    pub fn full_path(&self) -> Path {
        match &self.cond {
            Some(c) => self.sel_path.concat(&c.path),
            None => self.sel_path.clone(),
        }
    }

    /// The condition path (empty when there is no condition).
    pub fn cond_path(&self) -> Path {
        self.cond
            .as_ref()
            .map(|c| c.path.clone())
            .unwrap_or_default()
    }

    /// Convert a parsed `define mview` statement into a simple
    /// definition, if it falls in the §4.2 class.
    pub fn from_viewdef(v: &ViewDef) -> Option<SimpleViewDef> {
        let q = &v.query;
        if !q.is_simple() || q.within.is_some() || q.ans_int.is_some() {
            return None;
        }
        let Entry::Object(root) = q.entry else {
            return None;
        };
        let sel_path = q.sel_path.as_path()?;
        let cond = match &q.cond {
            None => None,
            Some(c) => Some(SimpleCond {
                path: c.path.as_path()?,
                pred: c.pred.clone(),
            }),
        };
        Some(SimpleViewDef {
            view: v.name,
            root,
            sel_path,
            cond,
        })
    }

    /// The equivalent query (for the evaluation-based recompute oracle).
    pub fn to_query(&self) -> Query {
        let mut q = Query::select(
            Entry::Object(self.root),
            PathExpr::from_path(&self.sel_path),
        );
        if let Some(c) = &self.cond {
            q = q.with_cond(PathExpr::from_path(&c.path), c.pred.clone());
        }
        q
    }
}

impl fmt::Display for SimpleViewDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "define mview {} as: SELECT {}.{} X",
            self.view, self.root, self.sel_path
        )?;
        if let Some(c) = &self.cond {
            write!(f, " WHERE X.{} {}", c.path, c.pred)?;
        }
        Ok(())
    }
}

/// A union of simple branches maintained into a single view object
/// (§6: multiple select paths / multiple conditions).
#[derive(Clone, Debug, PartialEq)]
pub struct CompoundViewDef {
    /// The view object's OID.
    pub view: Oid,
    /// The branches; an object is in the view iff it is selected by at
    /// least one branch.
    pub branches: Vec<SimpleViewDef>,
}

impl CompoundViewDef {
    /// Build a compound definition. Branch view OIDs are normalized to
    /// the compound's OID.
    pub fn new(view: impl Into<Oid>, mut branches: Vec<SimpleViewDef>) -> Self {
        let view = view.into();
        for b in &mut branches {
            b.view = view;
        }
        CompoundViewDef { view, branches }
    }
}

/// A view over wild-card path expressions (§6 extension):
///
/// ```text
/// define mview MV as: SELECT ROOT.sel_expr X WHERE cond(X.cond_expr)
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GeneralViewDef {
    /// The view object's OID.
    pub view: Oid,
    /// The entry point.
    pub root: Oid,
    /// Selection path expression (may contain `?`, `*`, alternation).
    pub sel_expr: PathExpr,
    /// Optional condition with a path expression.
    pub cond: Option<GeneralCond>,
}

/// Condition of a general view.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneralCond {
    /// Condition path expression.
    pub expr: PathExpr,
    /// Predicate on atomic values.
    pub pred: Pred,
}

impl GeneralViewDef {
    /// Build a general definition.
    pub fn new(view: impl Into<Oid>, root: impl Into<Oid>, sel_expr: PathExpr) -> Self {
        GeneralViewDef {
            view: view.into(),
            root: root.into(),
            sel_expr,
            cond: None,
        }
    }

    /// Attach a condition.
    pub fn with_cond(mut self, expr: PathExpr, pred: Pred) -> Self {
        self.cond = Some(GeneralCond { expr, pred });
        self
    }

    /// The equivalent query.
    pub fn to_query(&self) -> Query {
        let mut q = Query::select(Entry::Object(self.root), self.sel_expr.clone());
        if let Some(c) = &self.cond {
            q = q.with_cond(c.expr.clone(), c.pred.clone());
        }
        q
    }

    /// Convert a parsed statement (any `define mview`) into a general
    /// definition. Simple definitions embed losslessly.
    pub fn from_viewdef(v: &ViewDef) -> Option<GeneralViewDef> {
        let q = &v.query;
        if q.within.is_some() || q.ans_int.is_some() {
            return None;
        }
        let Entry::Object(root) = q.entry else {
            return None;
        };
        let cond = q.cond.as_ref().map(|c| GeneralCond {
            expr: c.path.clone(),
            pred: c.pred.clone(),
        });
        Some(GeneralViewDef {
            view: v.name,
            root,
            sel_expr: q.sel_path.clone(),
            cond,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsview_query::{parse_viewdef, CmpOp};

    #[test]
    fn simple_from_paper_expression_4_7() {
        let v =
            parse_viewdef("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45").unwrap();
        let d = SimpleViewDef::from_viewdef(&v).unwrap();
        assert_eq!(d.view, Oid::new("YP"));
        assert_eq!(d.root, Oid::new("ROOT"));
        assert_eq!(d.sel_path, Path::parse("professor"));
        assert_eq!(d.cond.as_ref().unwrap().path, Path::parse("age"));
        assert_eq!(d.full_path(), Path::parse("professor.age"));
    }

    #[test]
    fn wildcard_views_are_not_simple() {
        let v =
            parse_viewdef("define mview MVJ as: SELECT ROOT.* X WHERE X.name = 'John'").unwrap();
        assert!(SimpleViewDef::from_viewdef(&v).is_none());
        let g = GeneralViewDef::from_viewdef(&v).unwrap();
        assert_eq!(g.sel_expr, PathExpr::parse("*").unwrap());
    }

    #[test]
    fn display_matches_paper() {
        let d = SimpleViewDef::new("YP", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        assert_eq!(
            d.to_string(),
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        );
    }

    #[test]
    fn to_query_roundtrip() {
        let d = SimpleViewDef::new("SEL", "REL", "r.tuple")
            .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
        let q = d.to_query();
        assert!(q.is_simple());
        assert_eq!(q.to_string(), "SELECT REL.r.tuple X WHERE X.age > 30");
    }

    #[test]
    fn compound_normalizes_branch_view_oids() {
        let c = CompoundViewDef::new(
            "BOTH",
            vec![
                SimpleViewDef::new("A", "ROOT", "professor"),
                SimpleViewDef::new("B", "ROOT", "secretary"),
            ],
        );
        assert!(c.branches.iter().all(|b| b.view == Oid::new("BOTH")));
    }

    #[test]
    fn condless_view_full_path() {
        let d = SimpleViewDef::new("V", "ROOT", "professor.student");
        assert_eq!(d.full_path(), Path::parse("professor.student"));
        assert_eq!(d.cond_path(), Path::empty());
    }
}
