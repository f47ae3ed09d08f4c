//! Object identifiers.
//!
//! Every object in a GSDB carries a universally unique OID (paper §2).
//! Our OIDs are interned names, so the mnemonic identifiers used in the
//! paper's examples (`ROOT`, `P1`, `N1`) work directly, while synthetic
//! workloads can generate numbered names (`t00042`).
//!
//! Delegate OIDs (paper §3.2) are *semantic*: the delegate of base object
//! `P1` in materialized view `MVJ` has OID `MVJ.P1`, constructed with
//! [`Oid::delegate`] and decomposed with [`Oid::split_delegate`].

use crate::intern::{delegate_parts, intern, intern_all, intern_delegate, Symbol};
use std::fmt;

/// A universally unique object identifier.
///
/// Cheap to copy, hash and compare (a single machine word). Two OIDs are
/// equal iff their names are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(Symbol);

impl Oid {
    /// An OID the interner never hands out (it caps itself far below
    /// this id): the empty-slot marker of the store's index tables.
    pub(crate) const VACANT: Oid = Oid(Symbol(u64::MAX));

    /// Intern an OID by name.
    pub fn new(name: &str) -> Self {
        Oid(intern(name))
    }

    /// [`Oid::new`] of every name of `names`, in order, interned as
    /// one batch.
    pub(crate) fn new_all(names: &[&str]) -> Vec<Oid> {
        intern_all(names).into_iter().map(Oid).collect()
    }

    /// The OID's name.
    pub fn name(self) -> &'static str {
        crate::intern::resolve(self.0)
    }

    /// The interning index: unique in this process and only in it, so
    /// fit for in-memory tables (the store's `CowMap`s) and for nothing
    /// that outlives the process.
    pub(crate) fn raw(self) -> u64 {
        self.0.index()
    }

    /// 32 bits of the name's hash, the same in every process: what the
    /// store's shard placement hashes, so that a durable log written by
    /// one process recovers in another. Crate-internal: callers outside
    /// `gsdb` observe placement only through `Store::shard_of`.
    pub(crate) fn name_hash(self) -> u32 {
        self.0.name_hash()
    }

    /// Construct the semantic OID of `base`'s delegate in view `view`:
    /// the concatenation `view.base` (paper §3.2).
    pub fn delegate(view: Oid, base: Oid) -> Self {
        Oid(intern_delegate(view.0, base.0))
    }

    /// If this OID is a delegate OID, return `(view, base)`.
    ///
    /// Delegates of delegates (views over views) split one level at a
    /// time.
    pub fn split_delegate(self) -> Option<(Oid, Oid)> {
        delegate_parts(self.0).map(|(v, b)| (Oid(v), Oid(b)))
    }

    /// True iff this OID was constructed by [`Oid::delegate`].
    pub fn is_delegate(self) -> bool {
        delegate_parts(self.0).is_some()
    }

    /// The base OID at the bottom of a (possibly nested) delegate chain.
    /// For a non-delegate OID, returns `self`.
    pub fn ultimate_base(self) -> Oid {
        let mut cur = self;
        while let Some((_, base)) = cur.split_delegate() {
            cur = base;
        }
        cur
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({})", self.name())
    }
}

impl From<&str> for Oid {
    fn from(s: &str) -> Self {
        Oid::new(s)
    }
}

impl From<&String> for Oid {
    fn from(s: &String) -> Self {
        Oid::new(s)
    }
}

impl From<String> for Oid {
    fn from(s: String) -> Self {
        Oid::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_equality_by_name() {
        assert_eq!(Oid::new("P1"), Oid::new("P1"));
        assert_ne!(Oid::new("P1"), Oid::new("P2"));
    }

    #[test]
    fn delegate_oid_roundtrip() {
        let mv = Oid::new("MVJ");
        let p1 = Oid::new("P1");
        let d = Oid::delegate(mv, p1);
        assert_eq!(d.name(), "MVJ.P1");
        assert_eq!(d.split_delegate(), Some((mv, p1)));
        assert!(d.is_delegate());
        assert!(!p1.is_delegate());
    }

    #[test]
    fn ultimate_base_unwinds_nesting() {
        let v1 = Oid::new("V1");
        let v2 = Oid::new("V2");
        let b = Oid::new("B7");
        let d = Oid::delegate(v2, Oid::delegate(v1, b));
        assert_eq!(d.ultimate_base(), b);
        assert_eq!(b.ultimate_base(), b);
    }

    #[test]
    fn display_shows_name() {
        assert_eq!(Oid::new("ROOT").to_string(), "ROOT");
    }
}
