//! Object values: atomic values and ordered sets of OIDs.
//!
//! Paper §2: "Each object either has an atomic type, such as integer or
//! string, or has a set type. The value of a set object is a set of OIDs
//! of other objects."
//!
//! A set holds its members and, beside each, a **slot hint**: the slot
//! of the member's record when the store last wrote the set (§3.2's
//! swizzled edges, kept in memory for the base store). The members are
//! the value; the hints are derived from them and the store's slot
//! table, so they are in memory only — equality, display, the durable
//! encoding and every digest read the members alone — and a hint is
//! read only after checking that the record in its slot is the
//! member's ([`Store::children_at`](crate::Store::children_at)). A
//! stale hint, after the member's record was removed or created again
//! elsewhere, fails the check and costs a `slot_of` probe; it never
//! changes an answer.

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
///
/// Beside each member the set keeps a **slot hint**: the slot the
/// member's record had in the store that last wrote the set, or
/// `u32::MAX` if it had none. A hint is derived and in-memory only —
/// equality, display and the durable encoding read the members alone —
/// and it may be stale: the member's record may since have been
/// removed, its slot reused, or the record created again elsewhere. So
/// a reader trusts a hint only once the record in that slot is the
/// member's (see [`Store::children_at`](crate::Store::children_at)). A
/// small set keeps its hints in the members' allocation, after them,
/// two to a word; a large one keeps them beside its position index.
#[derive(Clone)]
pub struct OidSet(Members);

#[derive(Clone)]
enum Members {
    /// At most `SCAN_LIMIT` members, then their hints two to a word
    /// (member `i`'s in the low half of word `i / 2` if `i` is even,
    /// the high half if odd), in one allocation shared by every copy of
    /// the set.
    Small(Arc<[Oid]>),
    /// More than `SCAN_LIMIT` members, each with its position in
    /// `items` and its hint in `index`.
    Large { items: Vec<Oid>, index: Box<Index> },
}

/// A large set's member → position index and its hints.
#[derive(Clone)]
struct Index {
    pos: FastMap<Oid, usize>,
    /// `hints[i]` is `items[i]`'s hint.
    hints: Vec<u32>,
}

/// Largest set that is searched by scanning its members.
const SCAN_LIMIT: usize = 16;

/// The hint of a member that had no record when its set was written.
pub(crate) const NO_HINT: u32 = u32::MAX;

/// Words a small set of `n` members takes: the members, then their
/// hints two to a word.
const fn small_words(n: usize) -> usize {
    n + n.div_ceil(2)
}

/// Members of a small set whose allocation is `words` long: the inverse
/// of [`small_words`] (`3n / 2` words for even `n`, `(3n + 1) / 2` for
/// odd).
#[inline]
const fn small_len(words: usize) -> usize {
    words * 2 / 3
}

/// Member `i`'s hint in the words of a small set of `n` members.
#[inline]
fn packed_hint(words: &[Oid], n: usize, i: usize) -> u32 {
    (words[n + i / 2].bits() >> (32 * (i & 1))) as u32
}

/// The hint word holding `low` and `high`.
#[inline]
fn pack(low: u32, high: u32) -> Oid {
    Oid::from_bits(u64::from(low) | u64::from(high) << 32)
}

/// A small set of `members`, member `i` hinted `hint(i)`: one
/// allocation of their exact size.
fn small(members: &[Oid], hint: impl Fn(usize) -> u32) -> Members {
    let n = members.len();
    let mut words = [Oid::VACANT; small_words(SCAN_LIMIT)];
    words[..n].copy_from_slice(members);
    for (k, w) in words[n..small_words(n)].iter_mut().enumerate() {
        let high = if 2 * k + 1 < n {
            hint(2 * k + 1)
        } else {
            NO_HINT
        };
        *w = pack(hint(2 * k), high);
    }
    Members::Small(Arc::from(&words[..small_words(n)]))
}

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

    /// A set indexing `items`, more than `SCAN_LIMIT` distinct OIDs,
    /// hinted by `hints`.
    fn large(items: Vec<Oid>, hints: Vec<u32>) -> Self {
        let pos = items.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        OidSet(Members::Large {
            items,
            index: Box::new(Index { pos, hints }),
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
            Members::Small(_) => self.as_slice().iter().position(|&o| o == oid),
            Members::Large { index, .. } => index.pos.get(&oid).copied(),
        }
    }

    /// Membership test.
    pub fn contains(&self, oid: Oid) -> bool {
        self.position(oid).is_some()
    }

    /// Insert; returns `true` if newly added. The new member has no
    /// hint: a store that writes the set gives it one.
    pub fn insert(&mut self, oid: Oid) -> bool {
        self.insert_hinted(oid, NO_HINT)
    }

    /// Insert `oid` hinted `hint`; returns `true` if newly added (a
    /// member already there keeps its hint).
    pub(crate) fn insert_hinted(&mut self, oid: Oid, hint: u32) -> bool {
        if self.contains(oid) {
            return false;
        }
        let n = self.len();
        match &mut self.0 {
            Members::Small(words) if n < SCAN_LIMIT => {
                let mut members = [Oid::VACANT; SCAN_LIMIT];
                members[..n].copy_from_slice(&words[..n]);
                members[n] = oid;
                let grown = small(&members[..=n], |i| {
                    if i < n {
                        packed_hint(words, n, i)
                    } else {
                        hint
                    }
                });
                self.0 = grown;
            }
            Members::Small(words) => {
                let mut items = Vec::with_capacity(2 * SCAN_LIMIT);
                items.extend_from_slice(&words[..n]);
                items.push(oid);
                let mut hints = Vec::with_capacity(2 * SCAN_LIMIT);
                hints.extend((0..n).map(|i| packed_hint(words, n, i)));
                hints.push(hint);
                *self = OidSet::large(items, hints);
            }
            Members::Large { items, index } => {
                index.pos.insert(oid, items.len());
                index.hints.push(hint);
                items.push(oid);
            }
        }
        true
    }

    /// Remove; returns `true` if it was present. The member's hint goes
    /// with it.
    pub fn remove(&mut self, oid: Oid) -> bool {
        let Some(pos) = self.position(oid) else {
            return false;
        };
        let n = self.len();
        match &mut self.0 {
            Members::Small(words) => {
                // The last member takes the removed one's place.
                let from = |i: usize| if i == pos { n - 1 } else { i };
                let mut members = [Oid::VACANT; SCAN_LIMIT];
                for (i, m) in members[..n - 1].iter_mut().enumerate() {
                    *m = words[from(i)];
                }
                let shrunk = small(&members[..n - 1], |i| packed_hint(words, n, from(i)));
                self.0 = shrunk;
            }
            Members::Large { items, index } => {
                items.swap_remove(pos);
                index.hints.swap_remove(pos);
                if items.len() > SCAN_LIMIT {
                    index.pos.remove(&oid);
                    if let Some(&moved) = items.get(pos) {
                        index.pos.insert(moved, pos);
                    }
                } else {
                    let shrunk = small(items, |i| index.hints[i]);
                    self.0 = shrunk;
                }
            }
        }
        true
    }

    /// The members, each with its hint, in storage order.
    pub(crate) fn hinted(&self) -> Hinted<'_> {
        match &self.0 {
            Members::Small(words) => {
                let n = small_len(words.len());
                Hinted {
                    members: &words[..n],
                    hints: Hints::Packed(&words[n..]),
                    at: 0,
                }
            }
            Members::Large { items, index } => Hinted {
                members: items,
                hints: Hints::Plain(&index.hints),
                at: 0,
            },
        }
    }

    /// Hint every member `slot` answers for with that slot; a member it
    /// answers `None` for keeps its hint. A set whose hints all agree
    /// already is not written, and a small set shared with a copy is
    /// copied only if one changes.
    pub(crate) fn rehint(&mut self, mut slot: impl FnMut(Oid) -> Option<u32>) {
        match &mut self.0 {
            Members::Small(words) => {
                let n = small_len(words.len());
                let mut hints = [NO_HINT; SCAN_LIMIT];
                let mut changed = false;
                for (i, h) in hints[..n].iter_mut().enumerate() {
                    *h = packed_hint(words, n, i);
                    if let Some(s) = slot(words[i]).filter(|&s| s != *h) {
                        *h = s;
                        changed = true;
                    }
                }
                if changed {
                    match Arc::get_mut(words) {
                        Some(unshared) => {
                            for (k, w) in unshared[n..].iter_mut().enumerate() {
                                *w = pack(hints[2 * k], hints[2 * k + 1]);
                            }
                        }
                        None => self.0 = small(&words[..n], |i| hints[i]),
                    }
                }
            }
            Members::Large { items, index } => {
                for (&c, h) in items.iter().zip(&mut index.hints) {
                    if let Some(s) = slot(c) {
                        *h = s;
                    }
                }
            }
        }
    }

    /// Iterate members in deterministic (storage) order.
    pub fn iter(&self) -> impl Iterator<Item = Oid> + '_ {
        self.as_slice().iter().copied()
    }

    /// Members as a slice.
    pub fn as_slice(&self) -> &[Oid] {
        match &self.0 {
            Members::Small(words) => &words[..small_len(words.len())],
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

/// Where a [`Hinted`] reads its hints from.
#[derive(Clone, Copy)]
enum Hints<'a> {
    /// A small set's hint words, two hints to a word.
    Packed(&'a [Oid]),
    /// A large set's hints, one per member.
    Plain(&'a [u32]),
}

/// A set's members, each with its hint: [`OidSet::hinted`].
#[derive(Clone)]
pub(crate) struct Hinted<'a> {
    members: &'a [Oid],
    hints: Hints<'a>,
    at: usize,
}

impl Hinted<'_> {
    /// No members.
    pub(crate) const EMPTY: Hinted<'static> = Hinted {
        members: &[],
        hints: Hints::Plain(&[]),
        at: 0,
    };
}

impl Iterator for Hinted<'_> {
    type Item = (Oid, u32);

    #[inline]
    fn next(&mut self) -> Option<(Oid, u32)> {
        let i = self.at;
        let &member = self.members.get(i)?;
        self.at += 1;
        let hint = match self.hints {
            Hints::Packed(words) => (words[i / 2].bits() >> (32 * (i & 1))) as u32,
            Hints::Plain(hints) => hints[i],
        };
        Some((member, hint))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.members.len() - self.at;
        (left, Some(left))
    }
}

impl PartialEq for OidSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|o| other.contains(o))
    }
}
impl Eq for OidSet {}

impl FromIterator<Oid> for OidSet {
    /// The distinct OIDs in first-seen order, with no hints. Up to
    /// `SCAN_LIMIT` of them are gathered on the stack and stored in one
    /// allocation of their exact size.
    fn from_iter<T: IntoIterator<Item = Oid>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let mut small_members = [Oid::VACANT; SCAN_LIMIT];
        let mut n = 0;
        while let Some(o) = iter.next() {
            if small_members[..n].contains(&o) {
                continue;
            }
            if n == SCAN_LIMIT {
                let items: Vec<Oid> = small_members.iter().copied().chain([o]).collect();
                let hints = vec![NO_HINT; items.len()];
                let mut s = OidSet::large(items, hints);
                for o in iter {
                    s.insert(o);
                }
                return s;
            }
            small_members[n] = o;
            n += 1;
        }
        OidSet(small(&small_members[..n], |_| NO_HINT))
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
        assert!(
            std::ptr::eq(members(&a), members(&b)),
            "a copy is a count bump"
        );

        let set = a.as_set_mut().unwrap();
        assert!(set.remove(p[1]));
        assert!(set.insert(oid("oss9")));
        assert_eq!(set.as_slice(), &[p[0], p[4], p[2], p[3], oid("oss9")]);
        assert_eq!(
            b.as_set().unwrap().as_slice(),
            &p[..],
            "the copy is unchanged"
        );

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
        assert_eq!(
            fork.children(oid("osfP")),
            &kids[..],
            "the fork is unchanged"
        );
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
    fn an_object_is_48_bytes_and_a_small_sets_copy_one_count_bump() {
        use crate::Object;
        assert_eq!(std::mem::size_of::<Object>(), 48);
        let members = pool("osb", SCAN_LIMIT);
        let set: OidSet = members.iter().copied().collect();
        let Members::Small(words) = &set.0 else {
            panic!("a set of {SCAN_LIMIT} is small")
        };
        assert_eq!(words.len(), small_words(SCAN_LIMIT), "hints ride along");
        let copy = set.clone();
        let Members::Small(copied) = &copy.0 else {
            panic!("a copy of a small set is small")
        };
        assert!(Arc::ptr_eq(words, copied));
        assert_eq!(
            Arc::strong_count(words),
            2,
            "one count bump, one allocation"
        );
    }

    #[test]
    fn hints_follow_their_members_through_inserts_and_removes() {
        // Every member hinted with its position in `pool` at insert:
        // whatever the churn did, each member still carries its own.
        for n in [3, SCAN_LIMIT, 40] {
            let pool = pool(&format!("osh{n}x"), n);
            let hint_of = |o: Oid| pool.iter().position(|&p| p == o).unwrap() as u32;
            let mut set = OidSet::new();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..20 * n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let o = pool[(x >> 8) as usize % n];
                if (x >> 40).is_multiple_of(3) {
                    set.remove(o);
                } else {
                    set.insert_hinted(o, hint_of(o));
                }
                assert!(set.hinted().map(|(o, _)| o).eq(set.iter()));
                assert!(set.hinted().all(|(o, h)| h == hint_of(o)), "{set:?}");
            }
            // A rehint writes what it is given and leaves the rest.
            let odd = |o: Oid| (hint_of(o) % 2 == 1).then_some(1000 + hint_of(o));
            set.rehint(odd);
            for (o, h) in set.hinted() {
                assert_eq!(h, odd(o).unwrap_or(hint_of(o)));
            }
            // Hints are not the value.
            let plain: OidSet = set.iter().collect();
            assert!(plain.hinted().all(|(_, h)| h == NO_HINT));
            assert_eq!(plain, set);
        }
    }

    #[test]
    fn a_rehint_writes_a_shared_small_set_anew_and_an_unshared_one_in_place() {
        let members = pool("osr", 5);
        let mut set: OidSet = members.iter().copied().collect();
        let copy = set.clone();
        let words = |s: &OidSet| s.as_slice().as_ptr();
        set.rehint(|_| None);
        assert_eq!(words(&set), words(&copy), "nothing to write");
        set.rehint(|o| Some(members.iter().position(|&m| m == o).unwrap() as u32));
        assert_ne!(words(&set), words(&copy), "the copy keeps its hints");
        assert!(copy.hinted().all(|(_, h)| h == NO_HINT));
        let at = words(&set);
        set.rehint(|_| Some(7));
        assert_eq!(words(&set), at, "an unshared set is written in place");
        assert!(set.hinted().all(|(_, h)| h == 7));
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
