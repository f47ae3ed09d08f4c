//! Objects: `<OID, label, type, value>` records (paper §2, OEM model).
//!
//! The *type* field is derived from the value (`set` vs the atomic
//! type name), matching the paper's observation that atomic types can be
//! inferred.

use crate::{Atom, Label, Oid, OidSet, Value};
use std::fmt;

/// A GSDB object.
#[derive(Clone, Debug, PartialEq)]
pub struct Object {
    /// Universally unique identifier.
    pub oid: Oid,
    /// Explanatory label (need not be unique).
    pub label: Label,
    /// Atomic value or set of child OIDs.
    pub value: Value,
}

impl Object {
    /// A new set object with the given children.
    pub fn set(oid: impl Into<Oid>, label: impl Into<Label>, children: &[Oid]) -> Self {
        Object {
            oid: oid.into(),
            label: label.into(),
            value: Value::set_of(children.iter().copied()),
        }
    }

    /// A new empty set object.
    pub fn empty_set(oid: impl Into<Oid>, label: impl Into<Label>) -> Self {
        Object {
            oid: oid.into(),
            label: label.into(),
            value: Value::empty_set(),
        }
    }

    /// A new atomic object.
    pub fn atom(oid: impl Into<Oid>, label: impl Into<Label>, value: impl Into<Atom>) -> Self {
        Object {
            oid: oid.into(),
            label: label.into(),
            value: Value::Atom(value.into()),
        }
    }

    /// The paper's type field.
    pub fn type_name(&self) -> &'static str {
        self.value.type_name()
    }

    /// True iff a set object.
    pub fn is_set(&self) -> bool {
        self.value.is_set()
    }

    /// Children of a set object (empty for atomic objects).
    pub fn children(&self) -> &[Oid] {
        self.value.as_set().map(OidSet::as_slice).unwrap_or(&[])
    }

    /// Atomic value, if atomic.
    pub fn atom_value(&self) -> Option<&Atom> {
        self.value.as_atom()
    }

    /// Render in the paper's angle-bracket notation:
    /// `< P1, professor, set, {N1,A1,S1,P3} >`.
    pub fn to_paper_notation(&self) -> String {
        format!(
            "< {}, {}, {}, {} >",
            self.oid,
            self.label,
            self.type_name(),
            self.value
        )
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_paper_notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_object_construction() {
        let o = Object::set("P1", "professor", &[Oid::new("N1"), Oid::new("A1")]);
        assert!(o.is_set());
        assert_eq!(o.type_name(), "set");
        assert_eq!(o.children().len(), 2);
        assert!(o.atom_value().is_none());
    }

    #[test]
    fn atomic_object_construction() {
        let o = Object::atom("A1", "age", 45i64);
        assert!(!o.is_set());
        assert_eq!(o.type_name(), "integer");
        assert_eq!(o.atom_value(), Some(&Atom::Int(45)));
        assert!(o.children().is_empty());
    }

    #[test]
    fn paper_notation_matches_example_2() {
        let o = Object::set(
            "P1",
            "professor",
            &[
                Oid::new("N1"),
                Oid::new("A1"),
                Oid::new("S1"),
                Oid::new("P3"),
            ],
        );
        assert_eq!(
            o.to_paper_notation(),
            "< P1, professor, set, {N1,A1,S1,P3} >"
        );
        let a = Object::atom("N1", "name", "John");
        assert_eq!(a.to_paper_notation(), "< N1, name, string, 'John' >");
    }
}
