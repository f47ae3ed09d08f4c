//! Update-query-aware maintenance — a §6 open issue:
//!
//! "How does one maintain materialized views when not only the updated
//! base objects, but also the update query that generated them is
//! known? For example, we may know what the salary of each person
//! named 'Mark' was increased by $1000. Then a view containing the
//! salary of persons named 'John' should be unaffected."
//!
//! A [`BulkUpdate`] carries its *selector* (which objects it touched,
//! as a predicate over a path) alongside the individual updates.
//! [`view_unaffected`] proves disjointness between the bulk selector
//! and a view's condition — when the two predicates over the same path
//! cannot both hold, every contained update can be skipped without
//! looking at the base data at all.

use crate::viewdef::SimpleViewDef;
use gsdb::{path, Atom, Oid, Path, Result, Store, Update};
use gsview_query::{CmpOp, Pred};

/// A set-oriented update: "for each object Y in `root.sel_path` with
/// `cond(Y.cond_path)`, apply `delta` to the atoms in
/// `Y.target_path`".
#[derive(Clone, Debug)]
pub struct BulkUpdate {
    /// Entry point of the selector.
    pub root: Oid,
    /// Path to the updated group's objects.
    pub sel_path: Path,
    /// Condition path of the selector (e.g. `name`).
    pub cond_path: Path,
    /// Condition predicate (e.g. `= 'Mark'`).
    pub pred: Pred,
    /// Path from a selected object to the atoms being changed
    /// (e.g. `salary`).
    pub target_path: Path,
    /// The change applied to each numeric atom.
    pub delta: i64,
}

impl BulkUpdate {
    /// Execute against a store: returns the applied basic updates (one
    /// `modify` per touched atom), for feeding maintainers that could
    /// not be screened out.
    pub fn execute(&self, store: &mut Store) -> Result<Vec<gsdb::AppliedUpdate>> {
        let members: Vec<Oid> = path::reach(store, self.root, &self.sel_path)
            .into_iter()
            .filter(|&y| {
                !path::eval(store, y, &self.cond_path, &|a| self.pred.eval(a)).is_empty()
            })
            .collect();
        let mut applied = Vec::new();
        for y in members {
            for t in path::reach(store, y, &self.target_path) {
                let new = match store.atom(t) {
                    Some(Atom::Int(v)) => Atom::Int(v + self.delta),
                    Some(Atom::Real(v)) => Atom::Real(v + self.delta as f64),
                    Some(Atom::Tagged(unit, v)) => Atom::Tagged(*unit, v + self.delta),
                    _ => continue,
                };
                applied.push(store.apply(Update::Modify { oid: t, new })?);
            }
        }
        Ok(applied)
    }
}

/// Can two predicates over the *same* condition path both hold for a
/// single atomic value? Conservative: `false` only when provably
/// disjoint.
pub fn preds_disjoint(a: &Pred, b: &Pred) -> bool {
    use CmpOp::*;
    match (a.op, b.op) {
        // Equalities against different constants are disjoint.
        (Eq, Eq) => a.rhs.partial_cmp_atom(&b.rhs) != Some(std::cmp::Ordering::Equal),
        // An equality against a value the other side excludes.
        (Eq, Ne) | (Ne, Eq) => {
            a.rhs.partial_cmp_atom(&b.rhs) == Some(std::cmp::Ordering::Equal)
        }
        // Numeric ranges: x < a vs x > b with a <= b (and friends).
        (Lt | Le, Gt | Ge) => range_disjoint(&a.rhs, a.op, &b.rhs, b.op),
        (Gt | Ge, Lt | Le) => range_disjoint(&b.rhs, b.op, &a.rhs, a.op),
        // Eq vs a range that excludes the constant.
        (Eq, Lt | Le | Gt | Ge) => !b.eval(&a.rhs),
        (Lt | Le | Gt | Ge, Eq) => !a.eval(&b.rhs),
        _ => false,
    }
}

/// `x <op_lo> lo` (an upper bound) vs `x <op_hi> hi` (a lower bound):
/// disjoint iff the interval is empty.
fn range_disjoint(lo: &Atom, op_lo: CmpOp, hi: &Atom, op_hi: CmpOp) -> bool {
    let (Some(l), Some(h)) = (lo.as_f64(), hi.as_f64()) else {
        return false;
    };
    match (op_lo, op_hi) {
        (CmpOp::Lt, CmpOp::Gt) | (CmpOp::Lt, CmpOp::Ge) | (CmpOp::Le, CmpOp::Gt) => l <= h,
        (CmpOp::Le, CmpOp::Ge) => l < h,
        _ => false,
    }
}

/// Is the view provably unaffected by the bulk update, using only the
/// two definitions (no base access)?
///
/// The proof obligations, all required:
/// 1. the bulk changes only atoms under
///    `sel_path.target_path` — if that path is not the view's
///    `sel_path.cond_path`, a modify there can never pass Algorithm
///    1's location test *for this view's paths*;
/// 2. or the paths coincide but the two group selectors are provably
///    disjoint (same grouping path + disjoint predicates, the paper's
///    Mark/John case);
/// 3. or the paths coincide, selectors may overlap, but the predicate
///    is insensitive to the delta — not attempted (conservative).
pub fn view_unaffected(view: &SimpleViewDef, bulk: &BulkUpdate) -> bool {
    if bulk.root != view.root {
        // Different entry points: the two label paths are expressed in
        // different frames (an atom at bulk_full from bulk.root can sit
        // at view_full from view.root when one root nests under the
        // other), so label comparison proves nothing. Conservative: may
        // be affected.
        return false;
    }
    let bulk_full = bulk.sel_path.concat(&bulk.target_path);
    let view_full = view.full_path();
    if bulk_full != view_full {
        // Criterion 1: the bulk's modifies land at bulk_full; a modify
        // affects the view only if its root path equals view_full.
        return true;
    }
    // Same touched path. Disjoint groups?
    let Some(vc) = &view.cond else {
        return false; // structural views: every member's value region matters
    };
    if bulk.sel_path == view.sel_path && bulk.cond_path == vc.path {
        return preds_disjoint(&bulk.pred, &vc.pred);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::LocalBase;
    use crate::maintain::Maintainer;
    use crate::recompute::{recompute, recompute_members};
    use gsdb::samples;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    /// The paper's own example: raising Mark's salaries must not touch
    /// a view over John's salaries — and the screen proves it without
    /// base access.
    #[test]
    fn mark_raise_does_not_affect_john_view() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        // Rename P2's Sally to Mark for the scenario.
        store.modify_atom(oid("N2"), "Mark").unwrap();
        store
            .create(gsdb::Object::atom("S2", "salary", Atom::tagged("dollar", 80_000)))
            .unwrap();
        store.insert_edge(oid("P2"), oid("S2")).unwrap();

        // View: professors named John, conditioned on name.
        let john_view = SimpleViewDef::new("JV", "ROOT", "professor")
            .with_cond("name", Pred::new(CmpOp::Eq, "John"));
        let bulk = BulkUpdate {
            root: oid("ROOT"),
            sel_path: Path::parse("professor"),
            cond_path: Path::parse("name"),
            pred: Pred::new(CmpOp::Eq, "Mark"),
            target_path: Path::parse("salary"),
            delta: 1000,
        };
        // Screen: provably unaffected (name='Mark' ∩ name='John' = ∅ —
        // well, with target_path=salary the paths differ too).
        assert!(view_unaffected(&john_view, &bulk));

        // Execute and verify nothing changed for the view.
        let mut mv = recompute(&john_view, &mut LocalBase::new(&store)).unwrap();
        let before = mv.members_base();
        let applied = bulk.execute(&mut store).unwrap();
        assert_eq!(applied.len(), 1, "Mark's one salary raised");
        assert_eq!(store.atom(oid("S2")), Some(&Atom::tagged("dollar", 81_000)));
        // (No maintenance ran; the oracle agrees the view is unchanged.)
        assert_eq!(
            recompute_members(&john_view, &mut LocalBase::new(&store)),
            before
        );
        let m = Maintainer::new(john_view);
        // Running the maintainer anyway is a no-op.
        for u in &applied {
            let out = m.apply(&mut mv, &mut LocalBase::new(&store), u).unwrap();
            assert!(!out.changed());
        }
    }

    #[test]
    fn same_group_same_path_is_not_screened() {
        // A salary view over Marks IS affected by the Mark raise.
        let mark_view = SimpleViewDef::new("MV", "ROOT", "professor")
            .with_cond("name", Pred::new(CmpOp::Eq, "Mark"));
        let bulk = BulkUpdate {
            root: oid("ROOT"),
            sel_path: Path::parse("professor"),
            cond_path: Path::parse("name"),
            pred: Pred::new(CmpOp::Eq, "Mark"),
            target_path: Path::parse("name"),
            delta: 0,
        };
        assert!(!view_unaffected(&mark_view, &bulk));
    }

    #[test]
    fn range_views_screen_against_disjoint_ranges() {
        // View: ages <= 30; bulk touches the age path of a group
        // selected by age >= 50 — same full path, disjoint predicates.
        let young = SimpleViewDef::new("YV", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 30i64));
        let bulk = BulkUpdate {
            root: oid("ROOT"),
            sel_path: Path::parse("professor"),
            cond_path: Path::parse("age"),
            pred: Pred::new(CmpOp::Ge, 50i64),
            target_path: Path::parse("age"),
            delta: 1,
        };
        // Same full path professor.age — but groups are disjoint.
        assert!(view_unaffected(&young, &bulk));
    }

    #[test]
    fn predicate_disjointness_cases() {
        let eq = |v: &str| Pred::new(CmpOp::Eq, v);
        assert!(preds_disjoint(&eq("Mark"), &eq("John")));
        assert!(!preds_disjoint(&eq("John"), &eq("John")));
        assert!(preds_disjoint(
            &Pred::new(CmpOp::Lt, 10i64),
            &Pred::new(CmpOp::Gt, 20i64)
        ));
        assert!(!preds_disjoint(
            &Pred::new(CmpOp::Lt, 20i64),
            &Pred::new(CmpOp::Gt, 10i64)
        ));
        // Boundary: x <= 10 vs x >= 10 can both hold at 10.
        assert!(!preds_disjoint(
            &Pred::new(CmpOp::Le, 10i64),
            &Pred::new(CmpOp::Ge, 10i64)
        ));
        // x < 10 vs x >= 10 cannot.
        assert!(preds_disjoint(
            &Pred::new(CmpOp::Lt, 10i64),
            &Pred::new(CmpOp::Ge, 10i64)
        ));
        // Eq vs excluding range.
        assert!(preds_disjoint(
            &Pred::new(CmpOp::Eq, 5i64),
            &Pred::new(CmpOp::Gt, 10i64)
        ));
        assert!(!preds_disjoint(
            &Pred::new(CmpOp::Eq, 15i64),
            &Pred::new(CmpOp::Gt, 10i64)
        ));
        // Contains never proves disjointness.
        assert!(!preds_disjoint(
            &Pred::new(CmpOp::Contains, "a"),
            &Pred::new(CmpOp::Contains, "b")
        ));
    }

    #[test]
    fn different_roots_are_never_screened() {
        // The same atoms can sit at different label paths relative to
        // different roots; screening across frames is unsound.
        let v = SimpleViewDef::new("NV", "P1", "student")
            .with_cond("age", Pred::new(CmpOp::Lt, 30i64));
        let bulk = BulkUpdate {
            root: oid("ROOT"),
            sel_path: Path::parse("professor.student"),
            cond_path: Path::parse("name"),
            pred: Pred::new(CmpOp::Eq, "John"),
            target_path: Path::parse("age"),
            delta: 1,
        };
        assert!(!view_unaffected(&v, &bulk));
    }

    #[test]
    fn structural_views_never_screen_on_same_path() {
        let v = SimpleViewDef::new("SV", "ROOT", "professor.salary");
        let bulk = BulkUpdate {
            root: oid("ROOT"),
            sel_path: Path::parse("professor"),
            cond_path: Path::parse("name"),
            pred: Pred::new(CmpOp::Eq, "Mark"),
            target_path: Path::parse("salary"),
            delta: 1000,
        };
        // bulk_full = professor.salary = view_full → cannot screen.
        assert!(!view_unaffected(&v, &bulk));
    }
}
