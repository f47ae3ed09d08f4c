//! Object values: atomic values and ordered sets of OIDs.
//!
//! Paper §2: "Each object either has an atomic type, such as integer or
//! string, or has a set type. The value of a set object is a set of OIDs
//! of other objects."

use crate::fxhash::FastMap;
use crate::{Label, Oid};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An atomic value.
///
/// `Tagged` covers domain-specific atomic types such as the paper's
/// `dollar` type (`<S1, salary, dollar, $100,000>`): a unit label plus an
/// integer magnitude.
#[derive(Clone, Debug, PartialEq)]
pub enum Atom {
    /// Integer.
    Int(i64),
    /// Floating point.
    Real(f64),
    /// String.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// A tagged quantity, e.g. `dollar 100000`.
    Tagged(Label, i64),
}

impl Atom {
    /// Build a string atom.
    pub fn str(s: &str) -> Self {
        Atom::Str(Arc::from(s))
    }

    /// Build a tagged atom, e.g. `Atom::tagged("dollar", 100_000)`.
    pub fn tagged(unit: &str, magnitude: i64) -> Self {
        Atom::Tagged(Label::new(unit), magnitude)
    }

    /// The paper's *type* field, inferred from the value (paper §2:
    /// "For an atomic object, we omit the type since it can be inferred
    /// by its value").
    pub fn type_name(&self) -> &'static str {
        match self {
            Atom::Int(_) => "integer",
            Atom::Real(_) => "real",
            Atom::Str(_) => "string",
            Atom::Bool(_) => "boolean",
            Atom::Tagged(unit, _) => unit.as_str(),
        }
    }

    /// Numeric interpretation, if any. `Tagged` values compare by
    /// magnitude (so `$100,000 > $50,000` works as expected).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Atom::Int(i) => Some(*i as f64),
            Atom::Real(r) => Some(*r),
            Atom::Tagged(_, m) => Some(*m as f64),
            Atom::Bool(_) | Atom::Str(_) => None,
        }
    }

    /// String interpretation, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Atom::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compare two atoms for condition evaluation.
    ///
    /// Numbers (including tagged quantities) compare numerically, strings
    /// lexicographically, booleans as `false < true`. Mixed-kind
    /// comparisons return `None` — the paper's `cond()` simply never
    /// holds for them.
    pub fn partial_cmp_atom(&self, other: &Atom) -> Option<Ordering> {
        match (self, other) {
            (Atom::Str(a), Atom::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Atom::Bool(a), Atom::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Int(i) => write!(f, "{i}"),
            Atom::Real(r) => write!(f, "{r}"),
            Atom::Str(s) => write!(f, "'{s}'"),
            Atom::Bool(b) => write!(f, "{b}"),
            Atom::Tagged(unit, m) => write!(f, "{unit} {m}"),
        }
    }
}

impl From<i64> for Atom {
    fn from(i: i64) -> Self {
        Atom::Int(i)
    }
}
impl From<f64> for Atom {
    fn from(r: f64) -> Self {
        Atom::Real(r)
    }
}
impl From<&str> for Atom {
    fn from(s: &str) -> Self {
        Atom::str(s)
    }
}
impl From<bool> for Atom {
    fn from(b: bool) -> Self {
        Atom::Bool(b)
    }
}

/// An ordered set of OIDs: the value of a set object.
///
/// Semantics are set semantics (no duplicates — paper §2), but we keep a
/// deterministic iteration order so that examples print the way the
/// paper's figures do and benchmarks are reproducible. Removal is a
/// swap-remove (sets are unordered in the model, so the order
/// perturbation is harmless).
///
/// Nearly every set object holds a handful of members, so a set of up
/// to 16 (`SCAN_LIMIT`) members keeps them in one shared, immutable
/// slice: membership is a scan of it, copying the object (a page copy
/// copies every record of the page, a delegate is a copy of its base
/// object) bumps a reference count, and an insert or remove puts a
/// fresh slice in its place. Only a larger set owns a growable member
/// vector with a member → position index, which makes membership,
/// insertion and removal O(1) there (a view object gains a member per
/// `V_insert`). Either way the members are one pointer away from the
/// record, in the order the member-by-member operations leave them.
#[derive(Clone)]
pub struct OidSet(Members);

#[derive(Clone)]
enum Members {
    /// At most `SCAN_LIMIT` members, shared by every copy of the set.
    Small(Arc<[Oid]>),
    /// More than `SCAN_LIMIT` members, each with its position in
    /// `items`.
    Large {
        items: Vec<Oid>,
        index: Box<FastMap<Oid, usize>>,
    },
}

/// Largest set that is searched by scanning its members.
const SCAN_LIMIT: usize = 16;

impl Default for OidSet {
    fn default() -> Self {
        OidSet(Members::Small(Arc::from([])))
    }
}

impl OidSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A set indexing `items`: more than `SCAN_LIMIT` distinct OIDs.
    fn large(items: Vec<Oid>) -> Self {
        let index = items.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        OidSet(Members::Large {
            items,
            index: Box::new(index),
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Where `oid` sits among the members, if it is one.
    fn position(&self, oid: Oid) -> Option<usize> {
        match &self.0 {
            Members::Small(items) => items.iter().position(|&o| o == oid),
            Members::Large { index, .. } => index.get(&oid).copied(),
        }
    }

    /// Membership test.
    pub fn contains(&self, oid: Oid) -> bool {
        self.position(oid).is_some()
    }

    /// Insert; returns `true` if newly added.
    pub fn insert(&mut self, oid: Oid) -> bool {
        if self.contains(oid) {
            return false;
        }
        match &mut self.0 {
            Members::Small(items) if items.len() < SCAN_LIMIT => {
                *items = items.iter().copied().chain([oid]).collect();
            }
            Members::Small(items) => {
                let mut grown = Vec::with_capacity(2 * SCAN_LIMIT);
                grown.extend_from_slice(items);
                grown.push(oid);
                *self = OidSet::large(grown);
            }
            Members::Large { items, index } => {
                index.insert(oid, items.len());
                items.push(oid);
            }
        }
        true
    }

    /// Remove; returns `true` if it was present.
    pub fn remove(&mut self, oid: Oid) -> bool {
        let Some(pos) = self.position(oid) else {
            return false;
        };
        match &mut self.0 {
            Members::Small(items) => {
                let last = items.len() - 1;
                *items = (0..last)
                    .map(|i| items[if i == pos { last } else { i }])
                    .collect();
            }
            Members::Large { items, index } => {
                items.swap_remove(pos);
                if items.len() > SCAN_LIMIT {
                    index.remove(&oid);
                    if let Some(&moved) = items.get(pos) {
                        index.insert(moved, pos);
                    }
                } else {
                    let small = Arc::from(&items[..]);
                    self.0 = Members::Small(small);
                }
            }
        }
        true
    }

    /// Iterate members in deterministic (storage) order.
    pub fn iter(&self) -> impl Iterator<Item = Oid> + '_ {
        self.as_slice().iter().copied()
    }

    /// Members as a slice.
    pub fn as_slice(&self) -> &[Oid] {
        match &self.0 {
            Members::Small(items) => items,
            Members::Large { items, .. } => items,
        }
    }

    /// Sorted copy of the members (for canonical comparisons in tests).
    pub fn sorted(&self) -> Vec<Oid> {
        let mut v = self.as_slice().to_vec();
        v.sort();
        v
    }
}

impl PartialEq for OidSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|o| other.contains(o))
    }
}
impl Eq for OidSet {}

impl FromIterator<Oid> for OidSet {
    /// The distinct OIDs in first-seen order. Up to `SCAN_LIMIT` of
    /// them are gathered on the stack and stored in one allocation of
    /// their exact size.
    fn from_iter<T: IntoIterator<Item = Oid>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let mut small = [Oid::VACANT; SCAN_LIMIT];
        let mut n = 0;
        while let Some(o) = iter.next() {
            if small[..n].contains(&o) {
                continue;
            }
            if n == SCAN_LIMIT {
                let mut s = OidSet::large(small.iter().copied().chain([o]).collect());
                for o in iter {
                    s.insert(o);
                }
                return s;
            }
            small[n] = o;
            n += 1;
        }
        OidSet(Members::Small(Arc::from(&small[..n])))
    }
}

impl<'a> IntoIterator for &'a OidSet {
    type Item = Oid;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Oid>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

impl fmt::Debug for OidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

impl fmt::Display for OidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, o) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{o}")?;
        }
        write!(f, "}}")
    }
}

/// The value field of an object: atomic or a set of OIDs.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An atomic value.
    Atom(Atom),
    /// A set of child OIDs.
    Set(OidSet),
}

impl Value {
    /// Empty set value.
    pub fn empty_set() -> Self {
        Value::Set(OidSet::new())
    }

    /// Set value from OIDs.
    pub fn set_of(oids: impl IntoIterator<Item = Oid>) -> Self {
        Value::Set(oids.into_iter().collect())
    }

    /// The contained atom, if atomic.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Value::Atom(a) => Some(a),
            Value::Set(_) => None,
        }
    }

    /// The contained OID set, if a set.
    pub fn as_set(&self) -> Option<&OidSet> {
        match self {
            Value::Set(s) => Some(s),
            Value::Atom(_) => None,
        }
    }

    /// Mutable OID set, if a set.
    pub fn as_set_mut(&mut self) -> Option<&mut OidSet> {
        match self {
            Value::Set(s) => Some(s),
            Value::Atom(_) => None,
        }
    }

    /// True iff a set value.
    pub fn is_set(&self) -> bool {
        matches!(self, Value::Set(_))
    }

    /// The paper's *type* field.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Atom(a) => a.type_name(),
            Value::Set(_) => "set",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Atom(a) => write!(f, "{a}"),
            Value::Set(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    #[test]
    fn oidset_insert_contains_remove() {
        let mut s = OidSet::new();
        assert!(s.insert(oid("A")));
        assert!(!s.insert(oid("A")), "duplicates rejected");
        assert!(s.insert(oid("B")));
        assert!(s.contains(oid("A")));
        assert_eq!(s.len(), 2);
        assert!(s.remove(oid("A")));
        assert!(!s.remove(oid("A")));
        assert!(!s.contains(oid("A")));
        assert!(s.contains(oid("B")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn oidset_swap_remove_keeps_index_consistent() {
        let mut s: OidSet = ["A", "B", "C", "D"].iter().map(|n| oid(n)).collect();
        s.remove(oid("B"));
        // D was swapped into B's slot; all remaining members must resolve.
        for n in ["A", "C", "D"] {
            assert!(s.contains(oid(n)), "{n} lost after swap_remove");
        }
        s.remove(oid("D"));
        assert!(s.contains(oid("A")) && s.contains(oid("C")));
        assert_eq!(s.len(), 2);
    }

    /// `steps` inserts and removes (two to one if `grow`, else one to
    /// two) of OIDs drawn from `pool`, applied to `set` and to the
    /// `Vec` + `swap_remove` it must mirror.
    fn churn(set: &mut OidSet, model: &mut Vec<Oid>, pool: &[Oid], steps: usize, grow: bool) {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let o = pool[(x >> 8) as usize % pool.len()];
            let at = model.iter().position(|&m| m == o);
            if (x >> 40).is_multiple_of(3) != grow {
                assert_eq!(set.insert(o), at.is_none());
                if at.is_none() {
                    model.push(o);
                }
            } else {
                assert_eq!(set.remove(o), at.is_some());
                if let Some(at) = at {
                    model.swap_remove(at);
                }
            }
            assert_eq!(set.as_slice(), &model[..]);
            assert_eq!(set.contains(o), model.contains(&o));
            assert_eq!(indexed(set), model.len() > SCAN_LIMIT);
        }
    }

    fn indexed(set: &OidSet) -> bool {
        matches!(set.0, Members::Large { .. })
    }

    fn pool(tag: &str, n: usize) -> Vec<Oid> {
        (0..n).map(|i| oid(&format!("{tag}{i}"))).collect()
    }

    #[test]
    fn oidset_mirrors_a_vec_with_swap_remove_across_the_scan_limit() {
        // Up to about two thirds of the pool, then down to a third:
        // which of the two legs crosses SCAN_LIMIT depends on the pool.
        for (n, crosses) in [
            (12, [false, false]),
            (40, [true, true]),
            (600, [true, false]),
        ] {
            let pool = pool("osm", n);
            let (mut set, mut model) = (OidSet::new(), Vec::new());
            for (grow, crosses) in [true, false].into_iter().zip(crosses) {
                let was = model.len() > SCAN_LIMIT;
                churn(&mut set, &mut model, &pool, 10 * n, grow);
                assert_eq!(was != (model.len() > SCAN_LIMIT), crosses, "{n} {grow}");
                // Collecting keeps the first-seen order and drops
                // repeats, on either side of the limit.
                let fresh: OidSet = model.iter().chain(&model).copied().collect();
                assert_eq!(fresh.as_slice(), &model[..]);
                assert_eq!(indexed(&fresh), model.len() > SCAN_LIMIT);
                assert_eq!(set, fresh);
                assert_eq!(fresh, set);
                for &o in &pool {
                    assert_eq!(set.contains(o), model.contains(&o));
                }
                let mut less = set.clone();
                less.remove(model[0]);
                assert_ne!(set, less);
            }
        }
    }

    #[test]
    fn a_copied_small_set_shares_its_members_until_one_side_writes() {
        let p = pool("oss", 5);
        let mut a = Value::Set(p.iter().copied().collect());
        let b = a.clone();
        let members = |v: &Value| v.as_set().unwrap().as_slice().as_ptr();
        assert!(std::ptr::eq(members(&a), members(&b)), "a copy is a count bump");

        let set = a.as_set_mut().unwrap();
        assert!(set.remove(p[1]));
        assert!(set.insert(oid("oss9")));
        assert_eq!(set.as_slice(), &[p[0], p[4], p[2], p[3], oid("oss9")]);
        assert_eq!(b.as_set().unwrap().as_slice(), &p[..], "the copy is unchanged");

        // A large set owns its vector: its copy is a copy.
        let big = Value::Set(pool("osl", SCAN_LIMIT + 1).into_iter().collect());
        assert!(!std::ptr::eq(members(&big), members(&big.clone())));
    }

    #[test]
    fn a_forked_record_shares_its_members_until_one_side_writes() {
        use crate::{Object, Store};
        let mut store = Store::new();
        let kids = pool("osf", 3);
        for &k in &kids {
            store.create(Object::atom(k, "leaf", 0i64)).unwrap();
        }
        store.create(Object::set("osfP", "p", &kids)).unwrap();
        let fork = store.fork();
        // A write to another record of the page copies the page; the
        // set record on it is copied by a count bump.
        store.modify_atom(kids[0], 1i64).unwrap();
        let members = |s: &Store| s.children(oid("osfP")).as_ptr();
        assert!(std::ptr::eq(members(&store), members(&fork)));

        store.delete_edge(oid("osfP"), kids[0]).unwrap();
        assert_eq!(store.children(oid("osfP")), &[kids[2], kids[1]]);
        assert_eq!(fork.children(oid("osfP")), &kids[..], "the fork is unchanged");
    }

    #[test]
    fn a_sets_history_does_not_reach_its_page_bytes() {
        use crate::{codec, Object};
        for want in [0, 1, SCAN_LIMIT, SCAN_LIMIT + 1, 400] {
            // Overshoot, then remove down to `want` members: a set
            // that has been larger (and indexed) than it is now.
            let pool = pool(&format!("osp{want}x"), 2 * want + 50);
            let (mut set, mut model) = (OidSet::new(), Vec::new());
            churn(&mut set, &mut model, &pool, 10 * pool.len(), true);
            assert!(model.len() > want.max(SCAN_LIMIT));
            while model.len() > want {
                let at = model.len() / 2;
                assert!(set.remove(model[at]));
                model.swap_remove(at);
            }
            let page = |value: OidSet| {
                vec![
                    None,
                    Some(Object {
                        oid: oid("ospage"),
                        label: Label::new("s"),
                        value: Value::Set(value),
                    }),
                ]
            };
            assert_eq!(
                codec::encode_page(&page(set)),
                codec::encode_page(&page(model.iter().copied().collect())),
                "{want} members"
            );
        }
    }

    #[test]
    fn oidset_equality_is_order_insensitive() {
        let a: OidSet = ["X", "Y", "Z"].iter().map(|n| oid(n)).collect();
        let b: OidSet = ["Z", "X", "Y"].iter().map(|n| oid(n)).collect();
        assert_eq!(a, b);
        let c: OidSet = ["X", "Y"].iter().map(|n| oid(n)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn atom_comparisons() {
        use std::cmp::Ordering::*;
        assert_eq!(Atom::Int(40).partial_cmp_atom(&Atom::Int(45)), Some(Less));
        assert_eq!(
            Atom::Real(45.0).partial_cmp_atom(&Atom::Int(45)),
            Some(Equal)
        );
        assert_eq!(
            Atom::str("John").partial_cmp_atom(&Atom::str("John")),
            Some(Equal)
        );
        assert_eq!(
            Atom::tagged("dollar", 100_000).partial_cmp_atom(&Atom::tagged("dollar", 50_000)),
            Some(Greater)
        );
        // Mixed kinds do not compare.
        assert_eq!(Atom::str("John").partial_cmp_atom(&Atom::Int(4)), None);
    }

    #[test]
    fn atom_type_names_match_paper() {
        assert_eq!(Atom::Int(45).type_name(), "integer");
        assert_eq!(Atom::str("John").type_name(), "string");
        assert_eq!(Atom::tagged("dollar", 100_000).type_name(), "dollar");
        assert_eq!(Value::empty_set().type_name(), "set");
    }

    #[test]
    fn value_accessors() {
        let v = Value::set_of([oid("A"), oid("B")]);
        assert!(v.is_set());
        assert_eq!(v.as_set().unwrap().len(), 2);
        assert!(v.as_atom().is_none());
        let a = Value::Atom(Atom::Int(7));
        assert_eq!(a.as_atom().unwrap(), &Atom::Int(7));
        assert!(a.as_set().is_none());
    }

    #[test]
    fn display_formats() {
        let s: OidSet = ["P1", "P3"].iter().map(|n| oid(n)).collect();
        assert_eq!(s.to_string(), "{P1,P3}");
        assert_eq!(Atom::str("John").to_string(), "'John'");
        assert_eq!(Atom::tagged("dollar", 100_000).to_string(), "dollar 100000");
    }
}
