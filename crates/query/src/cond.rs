//! The condition language of the `WHERE` clause.
//!
//! Paper §2: "Boolean function `cond()` accepts a set of atomic objects,
//! and returns true if one of those object values satisfy the
//! condition." A condition is thus existentially quantified over the
//! objects reached by the condition path.

use gsdb::{Atom, Oid, Store};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `contains` — substring test on strings (extension; the paper's
    /// motivating example selects "Web pages containing the word
    /// 'flower'").
    Contains,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Contains => "contains",
        };
        f.write_str(s)
    }
}

/// A predicate on a single atomic value: `value <op> rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct Pred {
    /// The operator.
    pub op: CmpOp,
    /// The right-hand-side literal.
    pub rhs: Atom,
}

impl Pred {
    /// Build a predicate.
    pub fn new(op: CmpOp, rhs: impl Into<Atom>) -> Self {
        Pred {
            op,
            rhs: rhs.into(),
        }
    }

    /// Evaluate on one atomic value. Mixed-kind comparisons are false
    /// (they "do not satisfy the condition").
    pub fn eval(&self, v: &Atom) -> bool {
        match self.op {
            CmpOp::Contains => match (v.as_str(), self.rhs.as_str()) {
                (Some(hay), Some(needle)) => hay.contains(needle),
                _ => false,
            },
            _ => {
                let Some(ord) = v.partial_cmp_atom(&self.rhs) else {
                    // `!=` across kinds: values of different kinds are
                    // unequal.
                    return self.op == CmpOp::Ne;
                };
                match self.op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                    CmpOp::Contains => unreachable!(),
                }
            }
        }
    }

    /// Is `o` an atomic object whose value satisfies the predicate?
    pub fn holds_at(&self, store: &Store, o: Oid) -> bool {
        store.atom(o).is_some_and(|a| self.eval(a))
    }

    /// The paper's `cond()` applied to a set of objects: true if any of
    /// them is atomic and satisfies the predicate.
    pub fn eval_any(&self, store: &Store, objects: &[Oid]) -> bool {
        objects.iter().any(|&o| self.holds_at(store, o))
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.op, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::Object;

    #[test]
    fn numeric_comparisons() {
        let le45 = Pred::new(CmpOp::Le, 45i64);
        assert!(le45.eval(&Atom::Int(45)));
        assert!(le45.eval(&Atom::Int(40)));
        assert!(!le45.eval(&Atom::Int(46)));
        assert!(le45.eval(&Atom::Real(44.5)));
        let gt = Pred::new(CmpOp::Gt, 40i64);
        assert!(gt.eval(&Atom::Int(45)));
        assert!(!gt.eval(&Atom::Int(40)));
    }

    #[test]
    fn string_comparisons() {
        let eq = Pred::new(CmpOp::Eq, "John");
        assert!(eq.eval(&Atom::str("John")));
        assert!(!eq.eval(&Atom::str("Sally")));
        let contains = Pred::new(CmpOp::Contains, "flower");
        assert!(contains.eval(&Atom::str("a field of flowers")));
        assert!(!contains.eval(&Atom::str("a field of weeds")));
        assert!(!contains.eval(&Atom::Int(3)));
    }

    #[test]
    fn mixed_kind_comparisons() {
        // 'John' > 40 is simply false, not an error.
        assert!(!Pred::new(CmpOp::Gt, 40i64).eval(&Atom::str("John")));
        // 'John' != 40 is true.
        assert!(Pred::new(CmpOp::Ne, 40i64).eval(&Atom::str("John")));
        // Tagged quantities compare numerically.
        assert!(Pred::new(CmpOp::Ge, 50_000i64).eval(&Atom::tagged("dollar", 100_000)));
    }

    #[test]
    fn eval_any_is_existential() {
        let mut s = Store::new();
        s.create_all([
            Object::atom("a", "age", 20i64),
            Object::atom("b", "age", 50i64),
            Object::set("c", "stuff", &[]),
        ])
        .unwrap();
        let gt40 = Pred::new(CmpOp::Gt, 40i64);
        let all = [Oid::new("a"), Oid::new("b"), Oid::new("c")];
        assert!(gt40.eval_any(&s, &all));
        assert!(!gt40.eval_any(&s, &[Oid::new("a")]));
        // Set objects never satisfy.
        assert!(!gt40.eval_any(&s, &[Oid::new("c")]));
        assert!(!gt40.eval_any(&s, &[]));
    }
}
