//! Basic updates on a GSDB (paper §4.1).
//!
//! Three primitive updates drive all view maintenance:
//!
//! 1. `insert(N1, N2)` — add OID `N2` to `value(N1)` (`N1` a set object);
//! 2. `delete(N1, N2)` — remove OID `N2` from `value(N1)`;
//! 3. `modify(N, oldv, newv)` — change an atomic object's value.
//!
//! The paper notes that object creation "can be modeled as
//! `insert(DB, O)`"; we additionally provide `Create`/`Remove` record
//! operations so a store can be populated, but they never affect views
//! by themselves (a freshly created object is unreachable).

use crate::{Atom, Object, Oid};
use std::fmt;

/// A requested update, before application.
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// `insert(parent, child)`: add an edge.
    Insert {
        /// The set object gaining a child.
        parent: Oid,
        /// The child OID added.
        child: Oid,
    },
    /// `delete(parent, child)`: remove an edge.
    Delete {
        /// The set object losing a child.
        parent: Oid,
        /// The child OID removed.
        child: Oid,
    },
    /// `modify(oid, _, new)`: replace an atomic value. The old value is
    /// captured by the store at application time.
    Modify {
        /// The atomic object.
        oid: Oid,
        /// The new value.
        new: Atom,
    },
    /// Create a new object record (not yet linked anywhere).
    Create {
        /// The object record to create.
        object: Object,
    },
    /// Remove an object record (must be unreferenced).
    Remove {
        /// The object record to remove.
        oid: Oid,
    },
}

impl Update {
    /// Convenience constructor: `insert(N1, N2)`.
    pub fn insert(parent: impl Into<Oid>, child: impl Into<Oid>) -> Self {
        Update::Insert {
            parent: parent.into(),
            child: child.into(),
        }
    }

    /// Convenience constructor: `delete(N1, N2)`.
    pub fn delete(parent: impl Into<Oid>, child: impl Into<Oid>) -> Self {
        Update::Delete {
            parent: parent.into(),
            child: child.into(),
        }
    }

    /// Convenience constructor: `modify(N, _, newv)`.
    pub fn modify(oid: impl Into<Oid>, new: impl Into<Atom>) -> Self {
        Update::Modify {
            oid: oid.into(),
            new: new.into(),
        }
    }

    /// Convenience constructor for object creation.
    pub fn create(object: Object) -> Self {
        Update::Create { object }
    }

    /// The *directly affected source objects* of this update
    /// (paper §5.1): the one or two objects an update names.
    pub fn directly_affected(&self) -> Vec<Oid> {
        match self {
            Update::Insert { parent, child } | Update::Delete { parent, child } => {
                vec![*parent, *child]
            }
            Update::Modify { oid, .. } | Update::Remove { oid } => vec![*oid],
            Update::Create { object } => vec![object.oid],
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::Insert { parent, child } => write!(f, "insert({parent}, {child})"),
            Update::Delete { parent, child } => write!(f, "delete({parent}, {child})"),
            Update::Modify { oid, new } => write!(f, "modify({oid}, {new})"),
            Update::Create { object } => write!(f, "create({})", object.oid),
            Update::Remove { oid } => write!(f, "remove({oid})"),
        }
    }
}

/// An update that has been applied by a store, with the information a
/// maintenance algorithm needs (notably the old value of a `modify`).
#[derive(Clone, Debug, PartialEq)]
pub enum AppliedUpdate {
    /// An edge was added.
    Insert {
        /// The set object gaining a child.
        parent: Oid,
        /// The child OID added.
        child: Oid,
    },
    /// An edge was removed.
    Delete {
        /// The set object losing a child.
        parent: Oid,
        /// The child OID removed.
        child: Oid,
    },
    /// An atomic value changed: `modify(oid, old, new)` (paper §4.1
    /// carries both values; Algorithm 1's modify case tests
    /// `cond(oldv)` and `cond(newv)`).
    Modify {
        /// The atomic object.
        oid: Oid,
        /// The value before the update.
        old: Atom,
        /// The value after the update.
        new: Atom,
    },
    /// An object record was created.
    Create {
        /// The created object's OID.
        oid: Oid,
    },
    /// An object record was removed.
    Remove {
        /// The object record to remove.
        oid: Oid,
    },
}

impl AppliedUpdate {
    /// The directly affected source objects (paper §5.1).
    pub fn directly_affected(&self) -> Vec<Oid> {
        match self {
            AppliedUpdate::Insert { parent, child } | AppliedUpdate::Delete { parent, child } => {
                vec![*parent, *child]
            }
            AppliedUpdate::Modify { oid, .. }
            | AppliedUpdate::Create { oid }
            | AppliedUpdate::Remove { oid } => vec![*oid],
        }
    }
}

impl fmt::Display for AppliedUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppliedUpdate::Insert { parent, child } => write!(f, "insert({parent}, {child})"),
            AppliedUpdate::Delete { parent, child } => write!(f, "delete({parent}, {child})"),
            AppliedUpdate::Modify { oid, old, new } => {
                write!(f, "modify({oid}, {old}, {new})")
            }
            AppliedUpdate::Create { oid } => write!(f, "create({oid})"),
            AppliedUpdate::Remove { oid } => write!(f, "remove({oid})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directly_affected_objects() {
        assert_eq!(
            Update::insert("P2", "A2").directly_affected(),
            vec![Oid::new("P2"), Oid::new("A2")]
        );
        assert_eq!(
            Update::modify("A1", 46i64).directly_affected(),
            vec![Oid::new("A1")]
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Update::insert("P2", "A2").to_string(), "insert(P2, A2)");
        assert_eq!(Update::delete("ROOT", "P1").to_string(), "delete(ROOT, P1)");
        let m = AppliedUpdate::Modify {
            oid: Oid::new("A1"),
            old: Atom::Int(45),
            new: Atom::Int(46),
        };
        assert_eq!(m.to_string(), "modify(A1, 45, 46)");
    }
}
