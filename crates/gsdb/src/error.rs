//! Error types for GSDB operations.

use crate::Oid;
use std::fmt;

/// Errors raised when applying updates or accessing a store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GsdbError {
    /// The referenced object does not exist.
    NoSuchObject(Oid),
    /// `insert`/`delete` targeted an atomic object
    /// (paper §4.1: "N1 must have a set type").
    NotASet(Oid),
    /// `modify` targeted a set object (only atomic values can be
    /// modified; set values change via insert/delete — paper §4.1).
    NotAtomic(Oid),
    /// `delete(N1, N2)` where `N2` is not a child of `N1`.
    NotAChild {
        /// The parent object.
        parent: Oid,
        /// The non-child.
        child: Oid,
    },
    /// `insert(N1, N2)` where `N2` is already a child of `N1`. A
    /// silently-accepted duplicate insert would still be logged as an
    /// applied update, and any consumer that nets edge counts from the
    /// log (delta consolidation, circuit ingest) would then double
    /// count an edge that set semantics stored only once.
    AlreadyAChild {
        /// The parent object.
        parent: Oid,
        /// The existing child.
        child: Oid,
    },
    /// An object with this OID already exists.
    DuplicateOid(Oid),
}

impl fmt::Display for GsdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GsdbError::NoSuchObject(o) => write!(f, "no such object: {o}"),
            GsdbError::NotASet(o) => write!(f, "object {o} is not a set object"),
            GsdbError::NotAtomic(o) => write!(f, "object {o} is not an atomic object"),
            GsdbError::NotAChild { parent, child } => {
                write!(f, "{child} is not a child of {parent}")
            }
            GsdbError::AlreadyAChild { parent, child } => {
                write!(f, "{child} is already a child of {parent}")
            }
            GsdbError::DuplicateOid(o) => write!(f, "an object with OID {o} already exists"),
        }
    }
}

impl std::error::Error for GsdbError {}

/// Result alias for GSDB operations.
pub type Result<T> = std::result::Result<T, GsdbError>;
