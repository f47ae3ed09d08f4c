//! Paths and the paper's path functions.
//!
//! A *path* is a sequence of zero or more object labels separated by
//! dots, e.g. `professor.student` (paper §2). `N.p` denotes the set of
//! objects reachable from `N` following `p`. This module implements the
//! three functions Algorithm 1 is built on (paper §4.3):
//!
//! * [`path_between`] — `path(N1, N2)`, the unique label path between
//!   two objects of a tree-structured database;
//! * [`ancestor`] — `ancestor(N, p)`, the ancestor `X` of `N` with
//!   `path(X, N) = p`;
//! * [`eval`] — `eval(N, p, cond)`, the objects in `N.p` whose atomic
//!   values satisfy `cond`.
//!
//! Each function has two realizations, mirroring §4.4's cost
//! discussion: an upward walk using the inverse (parent) index when the
//! store maintains one, and a downward traversal from a given root when
//! it does not. [`ancestors_all`] generalizes `ancestor` to DAG bases
//! (paper §6).
//!
//! There is one downward walk along a constant path, [`walk`]: level
//! by level over slot ids, one label at a time. [`reach`] (`N.p`),
//! [`eval`] and the query crate's constant selections and conditions
//! are read from it; the automaton's product walk serves wildcards.
//!
//! There is one upward search (`Ancestry::sweep`); [`ancestor_set`],
//! [`chain_between`] / [`path_between`] and [`fold_walks`] are answers
//! read from what it visited.

use crate::{Atom, FastMap, FastSet, Label, Oid, Store};
use std::fmt;

/// A constant path: a sequence of labels.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Path(pub Vec<Label>);

impl Path {
    /// The empty path (`path(N, N)`).
    pub fn empty() -> Self {
        Path(Vec::new())
    }

    /// Parse a dotted path: `"professor.age"`. The empty string is the
    /// empty path.
    pub fn parse(s: &str) -> Self {
        if s.is_empty() {
            return Path::empty();
        }
        Path(s.split('.').map(Label::new).collect())
    }

    /// Path of one label.
    pub fn single(l: impl Into<Label>) -> Self {
        Path(vec![l.into()])
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the empty path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Labels of the path.
    pub fn labels(&self) -> &[Label] {
        &self.0
    }

    /// Concatenation `p1.p2` (paper §2: if `N2 ∈ N1.p1` and
    /// `N3 ∈ N2.p2` then `N3 ∈ N1.p1.p2`).
    pub fn concat(&self, other: &Path) -> Path {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Path(v)
    }

    /// Append one label.
    pub fn push(&mut self, l: Label) {
        self.0.push(l);
    }

    /// True iff `self` ends with `suffix` — the `p = p1.cond_path` test
    /// in Algorithm 1's delete case.
    pub fn ends_with(&self, suffix: &Path) -> bool {
        self.len() >= suffix.len() && self.0[self.len() - suffix.len()..] == suffix.0[..]
    }

    /// True iff `self` starts with `prefix`.
    pub fn starts_with(&self, prefix: &Path) -> bool {
        self.len() >= prefix.len() && self.0[..prefix.len()] == prefix.0[..]
    }

    /// If `self = prefix.rest`, return `rest`.
    pub fn strip_prefix(&self, prefix: &Path) -> Option<Path> {
        self.starts_with(prefix)
            .then(|| Path(self.0[prefix.len()..].to_vec()))
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl From<&str> for Path {
    fn from(s: &str) -> Self {
        Path::parse(s)
    }
}

// ----------------------------------------------------------------------
// N.p — reachability along a constant path
// ----------------------------------------------------------------------

/// The constant-path walk every `N.p` is read from: from `n`, one
/// label of `labels` at a time, over slot ids (paper §2). Level `k`
/// holds the objects the first `k` labels reach, in discovery order,
/// each once; `hit` sees the last level in that order, each object
/// with its slot, and the walk stops at the first object it accepts
/// (`cond()` holds as soon as one object satisfies it).
///
/// `at` is `n`'s slot if the caller knows it, taken once the record
/// there is `n`'s, as every child's slot is taken from its parent's
/// hint ([`Store::children_at`]); either falls back to a `slot_of`
/// probe. The empty path hands `hit` `n` at `u32::MAX` when `n` has no
/// record, a slot every slot read answers as free.
///
/// `filter`, when given, hides every object it refuses, `n` included,
/// before anything of it is read — the `WITHIN DB1` scope. A set's
/// children are distinct, so only a level reached from more than one
/// object goes through `seen`. `slots` and `seen` are buffers a caller
/// that walks often keeps; both are cleared here before use.
///
/// Answers whether `hit` accepted an object, and how many objects the
/// walk visited: the sum of the level sizes, the last counted up to the
/// object accepted. Base accesses: one `children_at` per expanded
/// object and one `label_at` per live child; a dangling child costs
/// nothing. The empty path visits `n` alone and reads nothing, whether
/// or not `n` has a record; a start with no record is visited once,
/// with one `children` read that finds nothing.
#[allow(clippy::too_many_arguments)]
pub fn walk(
    store: &Store,
    n: Oid,
    at: Option<u32>,
    labels: &[Label],
    filter: Option<&dyn Fn(Oid) -> bool>,
    slots: &mut Vec<u32>,
    seen: &mut FastSet<u32>,
    mut hit: impl FnMut(Oid, u32) -> bool,
) -> (bool, usize) {
    let admits = |o: Oid| filter.is_none_or(|f| f(o));
    if !admits(n) {
        return (false, 0);
    }
    let start = store.child_slot(n, at.unwrap_or(NO_RECORD));
    if labels.is_empty() {
        return (hit(n, start.unwrap_or(NO_RECORD)), 1);
    }
    let Some(start) = start else {
        let _ = store.children(n);
        return (false, 1);
    };
    // The levels lie end to end in `slots`; `level` is the last.
    slots.clear();
    slots.push(start);
    let mut level = 0..1;
    let mut visited = 0;
    for &want in labels {
        visited += level.len();
        let many = level.len() > 1;
        if many {
            seen.clear();
        }
        for i in level.clone() {
            for (c, hint) in store.children_at(slots[i]) {
                if !admits(c) {
                    continue;
                }
                let Some(cslot) = store.child_slot(c, hint) else {
                    continue;
                };
                if store.label_at(cslot) == Some(want) && (!many || seen.insert(cslot)) {
                    slots.push(cslot);
                }
            }
        }
        level = level.end..slots.len();
        if level.is_empty() {
            return (false, visited);
        }
    }
    for &slot in &slots[level] {
        let Some(o) = store.oid_at(slot) else {
            continue;
        };
        visited += 1;
        if hit(o, slot) {
            return (true, visited);
        }
    }
    (false, visited)
}

/// The slot [`walk`] hands `hit` for an object with no record.
const NO_RECORD: u32 = u32::MAX;

/// The set `N.p`: objects reachable from `n` following path `p`
/// (paper §2), in [`walk`]'s order. Works on arbitrary graphs; each
/// object is reached once, so the result is a set even over DAGs.
pub fn reach(store: &Store, n: Oid, p: &Path) -> Vec<Oid> {
    let mut out = Vec::new();
    walk_all(store, n, p, |o, _| out.push(o));
    out
}

/// `eval(N, p, cond)`: the objects in `N.p` whose atomic value makes
/// `cond` true (paper §4.3 definition). For the empty path, `n` itself
/// is tested. Set objects in `N.p` never satisfy an atomic condition.
pub fn eval(store: &Store, n: Oid, p: &Path, cond: &dyn Fn(&Atom) -> bool) -> Vec<Oid> {
    let mut out = Vec::new();
    walk_all(store, n, p, |o, slot| {
        if store.atom_at(slot).is_some_and(cond) {
            out.push(o);
        }
    });
    out
}

/// The whole of [`walk`] in buffers of its own: `each` sees every
/// object of `N.p`, with its slot.
fn walk_all(store: &Store, n: Oid, p: &Path, mut each: impl FnMut(Oid, u32)) {
    let (mut slots, mut seen) = (Vec::new(), FastSet::default());
    walk(
        store,
        n,
        None,
        p.labels(),
        None,
        &mut slots,
        &mut seen,
        |o, slot| {
            each(o, slot);
            false
        },
    );
}

// ----------------------------------------------------------------------
// path(N1, N2) — the upward search
// ----------------------------------------------------------------------

/// `path(N1, N2)`: the label path from `n1` to `n2` in a
/// tree-structured database; `None` if `n1` is not an ancestor of `n2`
/// (paper §4.3: `path(N1, N2) = ∅`). On a DAG it is the path of
/// whichever chain the search meets first.
///
/// Walks the parent index upward from `n2` ([`chain_between`], an
/// `O(depth)` walk on a tree — the "inverse index" shortcut of §4.4).
/// [`path_by_search`] is the traversal from `n1` that §4.4 prices
/// without that index.
pub fn path_between(store: &Store, n1: Oid, n2: Oid) -> Option<Path> {
    if n1 == n2 {
        return Some(Path::empty());
    }
    let above = Ancestry::sweep(store, n2, Some(n1), true);
    let labels = above.chain(n1)?.map(|(_, l)| l).collect();
    Some(Path(labels))
}

/// The first chain the upward search finds from `root` down to `n`:
/// the objects below `root`, each with its label, `n` last (empty when
/// `n` is `root`). `None` if `root` is not above `n`. `path(root, n)`
/// is the labels of the chain, so a caller that needs the objects along
/// a path as well as the path (§5.1 level-3 reports) reads both from
/// the one chain.
pub fn chain_between(store: &Store, root: Oid, n: Oid) -> Option<Vec<(Oid, Label)>> {
    let above = Ancestry::sweep(store, n, Some(root), true);
    let chain = above.chain(root)?.collect();
    Some(chain)
}

/// Carry `init` from `root` down to `n` along every walk between them
/// (paper §6: "there may be more than one path between two objects").
/// `step(value, o, label)` carries a value from a parent down into its
/// child `o`, or answers `None` when nothing past `o` can come of the
/// walk; `join(at, value)` merges a second walk's value into the one
/// already at an object and answers whether it grew. The answer is the
/// value at `n`, joined over every walk; `None` when no walk from
/// `root` reaches `n` alive.
///
/// On a tree that is the one chain, folded. On shared or cyclic
/// structure a worklist runs to the fixpoint, which `join` guarantees
/// by only ever growing a value, finitely often (a set of automaton
/// states, say). Either way the store is read only by the upward
/// search: one label and one parents read per ancestor of `n`.
pub fn fold_walks<T: Clone>(
    store: &Store,
    root: Oid,
    n: Oid,
    init: T,
    step: impl FnMut(T, Oid, Label) -> Option<T>,
    join: impl FnMut(&mut T, T) -> bool,
) -> Option<T> {
    Ancestry::sweep(store, n, None, true).fold(root, init, step, join)
}

/// The objects from which `n` is reachable, `n` included: `root` is
/// above `n` iff it is a member. One `parents` read per ancestor.
pub fn ancestor_set(store: &Store, n: Oid) -> FastSet<Oid> {
    Ancestry::sweep(store, n, None, false)
        .index
        .into_keys()
        .collect()
}

/// Sentinel for "no predecessor" in the search arenas below.
const NO_PREV: usize = usize::MAX;

struct Ancestor {
    oid: Oid,
    /// Read when the search expands the object, if it reads labels;
    /// `None` before that and for an OID with no record.
    label: Option<Label>,
    /// The object whose expansion found this one — one of its
    /// children; `NO_PREV` for `n`.
    below: usize,
    /// Its parents, as a range of [`Ancestry::ups`].
    ups: std::ops::Range<usize>,
}

/// The one upward search: the ancestors of an object, each visited
/// once — one `parents` read per ancestor, and one `label` read for
/// the callers that want chains — whatever their shape (diamonds,
/// cycles, parents that lead nowhere), so the cost is linear in the
/// ancestors and their parent edges. On a tree that is the straight
/// walk to the top. Every question about what lies above `n` is
/// answered from the arena it leaves behind.
struct Ancestry {
    /// In discovery order; `nodes[0]` is `n`.
    nodes: Vec<Ancestor>,
    /// Parent edges as indices into `nodes`, contiguous per object.
    ups: Vec<usize>,
    index: FastMap<Oid, usize>,
}

impl Ancestry {
    /// Search upward from `n`: everything above it, or — for a caller
    /// content with the first chain — only until `stop_at` turns up
    /// among the parents (`stop_at` itself is then not read). A caller
    /// that asks only which objects are above `n` leaves the labels
    /// unread.
    fn sweep(store: &Store, n: Oid, stop_at: Option<Oid>, labels: bool) -> Ancestry {
        let found = |oid, below| Ancestor {
            oid,
            label: None,
            below,
            ups: 0..0,
        };
        // Room for a tree's depth without regrowing.
        let mut a = Ancestry {
            nodes: Vec::with_capacity(8),
            ups: Vec::with_capacity(8),
            index: FastMap::with_capacity_and_hasher(8, Default::default()),
        };
        a.nodes.push(found(n, NO_PREV));
        a.index.insert(n, 0);
        if stop_at == Some(n) {
            return a;
        }
        let mut stack = vec![0];
        while let Some(i) = stack.pop() {
            if labels {
                let Some(l) = store.label(a.nodes[i].oid) else {
                    continue;
                };
                a.nodes[i].label = Some(l);
            }
            a.nodes[i].ups = a.ups.len()..a.ups.len();
            for p in store.parents(a.nodes[i].oid).iter() {
                let next = a.nodes.len();
                let j = *a.index.entry(p).or_insert(next);
                if j == next {
                    a.nodes.push(found(p, i));
                    stack.push(j);
                }
                a.ups.push(j);
                a.nodes[i].ups.end += 1;
                if stop_at == Some(p) {
                    return a;
                }
            }
        }
        a
    }

    /// The chain the search met `root` by: follow each object back to
    /// the child it was found from, down to `n`.
    fn chain(&self, root: Oid) -> Option<impl Iterator<Item = (Oid, Label)> + '_> {
        let top = *self.index.get(&root)?;
        let below = |i: usize| Some(self.nodes[i].below).filter(|&b| b != NO_PREV);
        Some(
            std::iter::successors(below(top), move |&i| below(i)).map(|i| {
                let a = &self.nodes[i];
                (a.oid, a.label.expect("an object with a parent was read"))
            }),
        )
    }

    /// [`fold_walks`] over the arena.
    fn fold<T: Clone>(
        &self,
        root: Oid,
        init: T,
        mut step: impl FnMut(T, Oid, Label) -> Option<T>,
        mut join: impl FnMut(&mut T, T) -> bool,
    ) -> Option<T> {
        let top = *self.index.get(&root)?;
        // Objects all connected to `n`, with one parent edge fewer than
        // there are of them, form a tree: one walk between any two.
        if self.ups.len() + 1 == self.nodes.len() {
            return self.chain(root)?.try_fold(init, |v, (o, l)| step(v, o, l));
        }
        let mut downs = vec![Vec::new(); self.nodes.len()];
        for (child, a) in self.nodes.iter().enumerate() {
            for &p in &self.ups[a.ups.clone()] {
                downs[p].push(child);
            }
        }
        let mut at: Vec<Option<T>> = vec![None; self.nodes.len()];
        let mut queued = vec![false; self.nodes.len()];
        at[top] = Some(init);
        queued[top] = true;
        let mut work = std::collections::VecDeque::from([top]);
        while let Some(i) = work.pop_front() {
            queued[i] = false;
            let here = at[i].clone().expect("a queued object holds a value");
            for &c in &downs[i] {
                let a = &self.nodes[c];
                let l = a.label.expect("an object with a parent was read");
                let Some(v) = step(here.clone(), a.oid, l) else {
                    continue;
                };
                let grew = match &mut at[c] {
                    Some(there) => join(there, v),
                    empty => {
                        *empty = Some(v);
                        true
                    }
                };
                if grew && !std::mem::replace(&mut queued[c], true) {
                    work.push_back(c);
                }
            }
        }
        at[0].take()
    }
}

/// `path(N1, N2)` without the inverse index: a depth-first search down
/// from `n1` for `n2`, reading only children and labels — the
/// "traversal from ROOT" §4.4 prices, kept as E2's reference cost and
/// as the reference the agreement tests check [`path_between`]
/// against. The arena holds `(edge label into node, predecessor
/// index)`; the prefix is reconstructed from the chain on success.
pub fn path_by_search(store: &Store, n1: Oid, n2: Oid) -> Option<Path> {
    let mut nodes: Vec<(Label, usize)> = Vec::new();
    let mut stack: Vec<(Oid, usize)> = vec![(n1, NO_PREV)];
    let mut visited = FastSet::default();
    visited.insert(n1);
    while let Some((o, prev)) = stack.pop() {
        for &c in store.children(o) {
            let Some(cl) = store.label(c) else { continue };
            if c == n2 {
                let mut labels = vec![cl];
                let mut j = prev;
                while j != NO_PREV {
                    labels.push(nodes[j].0);
                    j = nodes[j].1;
                }
                labels.reverse();
                return Some(Path(labels));
            }
            if visited.insert(c) {
                nodes.push((cl, prev));
                stack.push((c, nodes.len() - 1));
            }
        }
    }
    None
}

// ----------------------------------------------------------------------
// ancestor(N, p)
// ----------------------------------------------------------------------

/// `ancestor(N, p)`: the ancestor `X` of `n` with `path(X, N) = p`;
/// `None` if no such object (paper §4.3). Tree databases have at most
/// one; on a DAG this returns an arbitrary one (use [`ancestors_all`]
/// for all of them).
pub fn ancestor(store: &Store, n: Oid, p: &Path) -> Option<Oid> {
    ancestors_all(store, n, p).into_iter().next()
}

/// All ancestors `X` of `n` with `path(X, N) = p` — the DAG
/// generalization paper §6 calls for ("there may be more than one path
/// between two objects"). Walks the parent index up `|p|` levels;
/// [`ancestors_all_by_search`] is the realization without it.
pub fn ancestors_all(store: &Store, n: Oid, p: &Path) -> Vec<Oid> {
    if p.is_empty() {
        return vec![n];
    }
    // Walk upward |p| levels; at level i (from the bottom) the current
    // object's label must equal p[len-1-i].
    let labels = p.labels();
    let mut frontier: Vec<Oid> = vec![n];
    for i in (0..labels.len()).rev() {
        let want = labels[i];
        let mut next = Vec::new();
        let mut seen = FastSet::default();
        for &o in &frontier {
            if store.label(o) != Some(want) {
                continue;
            }
            for par in store.parents(o).iter() {
                if seen.insert(par) {
                    next.push(par);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            return Vec::new();
        }
    }
    frontier.sort_by_key(|o| o.name());
    frontier
}

/// [`ancestors_all`] without the inverse index: scan every object `X`
/// and test whether `n ∈ X.p`, reading only children and labels. This
/// is deliberately the expensive realization — the cost §4.4 attributes
/// to a missing inverse index — kept as E2's reference cost and as the
/// agreement tests' reference.
pub fn ancestors_all_by_search(store: &Store, n: Oid, p: &Path) -> Vec<Oid> {
    let mut out: Vec<Oid> = store
        .oids_sorted()
        .into_iter()
        .filter(|&x| reach(store, x, p).contains(&n))
        .collect();
    out.sort_by_key(|o| o.name());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Object;
    use std::collections::HashSet;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    /// The PERSON fragment used throughout the paper's examples.
    fn person_fragment() -> Store {
        let mut s = Store::new();
        s.create_all([
            Object::set("ROOT", "person", &[oid("P1"), oid("P2")]),
            Object::set("P1", "professor", &[oid("N1"), oid("A1"), oid("P3")]),
            Object::atom("N1", "name", "John"),
            Object::atom("A1", "age", 45i64),
            Object::set("P3", "student", &[oid("N3"), oid("A3")]),
            Object::atom("N3", "name", "John"),
            Object::atom("A3", "age", 20i64),
            Object::set("P2", "professor", &[oid("N2")]),
            Object::atom("N2", "name", "Sally"),
        ])
        .unwrap();
        s
    }

    #[test]
    fn path_parse_display_roundtrip() {
        let p = Path::parse("professor.student.age");
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_string(), "professor.student.age");
        assert_eq!(Path::parse(""), Path::empty());
        assert_eq!(Path::empty().to_string(), "");
    }

    #[test]
    fn path_concat_and_affixes() {
        let a = Path::parse("professor");
        let b = Path::parse("student.age");
        let c = a.concat(&b);
        assert_eq!(c.to_string(), "professor.student.age");
        assert!(c.starts_with(&a));
        assert!(c.ends_with(&b));
        assert!(!c.ends_with(&a));
        assert_eq!(c.strip_prefix(&a), Some(b));
        assert!(c.ends_with(&Path::empty()));
    }

    #[test]
    fn reach_follows_labels() {
        let s = person_fragment();
        // A1 ∈ ROOT.professor.age (paper §2 example).
        let ages = reach(&s, oid("ROOT"), &Path::parse("professor.age"));
        assert_eq!(ages, vec![oid("A1")]);
        // Both professors.
        let profs = reach(&s, oid("ROOT"), &Path::parse("professor"));
        assert_eq!(profs.len(), 2);
        // Empty path reaches self.
        assert_eq!(reach(&s, oid("P1"), &Path::empty()), vec![oid("P1")]);
        // Dead label.
        assert!(reach(&s, oid("ROOT"), &Path::parse("robot")).is_empty());
    }

    #[test]
    fn eval_tests_condition_on_atoms() {
        let s = person_fragment();
        let le45 =
            |a: &Atom| a.partial_cmp_atom(&Atom::Int(45)) != Some(std::cmp::Ordering::Greater);
        // eval(P1, age, ≤45) = {A1} (paper §4.3 example).
        assert_eq!(
            eval(&s, oid("P1"), &Path::parse("age"), &le45),
            vec![oid("A1")]
        );
        // Empty path evaluates the node itself.
        assert_eq!(eval(&s, oid("A3"), &Path::empty(), &le45), vec![oid("A3")]);
        // Set objects never satisfy atomic conditions.
        assert!(eval(&s, oid("ROOT"), &Path::parse("professor"), &le45).is_empty());
    }

    #[test]
    fn path_between_with_parent_index() {
        let s = person_fragment();
        assert_eq!(
            path_between(&s, oid("ROOT"), oid("A1")),
            Some(Path::parse("professor.age"))
        );
        assert_eq!(
            path_between(&s, oid("ROOT"), oid("A3")),
            Some(Path::parse("professor.student.age"))
        );
        assert_eq!(path_between(&s, oid("P1"), oid("P1")), Some(Path::empty()));
        // Not an ancestor.
        assert_eq!(path_between(&s, oid("P2"), oid("A1")), None);
    }

    #[test]
    fn path_between_without_parent_index_agrees() {
        let mut s = Store::new();
        s.create_all([
            Object::set("ROOT", "person", &[oid("p1")]),
            Object::set("p1", "professor", &[oid("a1")]),
            Object::atom("a1", "age", 45i64),
        ])
        .unwrap();
        for (n1, n2) in [("ROOT", "a1"), ("a1", "ROOT")] {
            let (n1, n2) = (oid(n1), oid(n2));
            assert_eq!(path_by_search(&s, n1, n2), path_between(&s, n1, n2));
        }
        assert_eq!(
            path_by_search(&s, oid("ROOT"), oid("a1")),
            Some(Path::parse("professor.age"))
        );
        assert_eq!(path_by_search(&s, oid("a1"), oid("ROOT")), None);
    }

    #[test]
    fn ancestor_walks_upward() {
        let s = person_fragment();
        // ancestor(A1, age) = P1 (paper Example 6).
        assert_eq!(
            ancestor(&s, oid("A1"), &Path::parse("age")),
            Some(oid("P1"))
        );
        assert_eq!(
            ancestor(&s, oid("A3"), &Path::parse("student.age")),
            Some(oid("P1"))
        );
        assert_eq!(ancestor(&s, oid("A1"), &Path::empty()), Some(oid("A1")));
        // Label mismatch → no ancestor.
        assert_eq!(ancestor(&s, oid("A1"), &Path::parse("name")), None);
    }

    #[test]
    fn path_between_backtracks_on_dags() {
        // n2's first-enumerated parent may dead-end; the search must
        // still find the route through the other parent.
        let mut s = Store::new();
        s.create_all([
            Object::empty_set("dead", "off"),
            Object::set("mid", "m", &[]),
            Object::set("top", "t", &[oid("mid")]),
            Object::atom("leafd", "x", 1i64),
        ])
        .unwrap();
        s.insert_edge(oid("mid"), oid("leafd")).unwrap();
        s.insert_edge(oid("dead"), oid("leafd")).unwrap(); // second parent, no route to top
        let p = path_between(&s, oid("top"), oid("leafd"));
        assert_eq!(p, Some(Path::parse("m.x")));
    }

    #[test]
    fn ancestors_all_on_dag() {
        // Two tuples share one field object (DAG).
        let mut s = Store::new();
        s.create_all([
            Object::set("R", "r", &[oid("t1"), oid("t2")]),
            Object::set("t1", "tuple", &[oid("shared")]),
            Object::set("t2", "tuple", &[oid("shared")]),
            Object::atom("shared", "age", 40i64),
        ])
        .unwrap();
        let all = ancestors_all(&s, oid("shared"), &Path::parse("age"));
        assert_eq!(all, vec![oid("t1"), oid("t2")]);
        let roots = ancestors_all(&s, oid("shared"), &Path::parse("tuple.age"));
        assert_eq!(roots, vec![oid("R")]);
    }

    #[test]
    fn fold_walks_joins_every_walk() {
        // The set of objects a walk passed through, joined by union: on
        // a tree the one chain, on a diamond both sides of it.
        let through = |s: &Store, root: &str, n: &str| {
            fold_walks(
                s,
                oid(root),
                oid(n),
                Vec::new(),
                |mut seen: Vec<Oid>, o, _| {
                    seen.push(o);
                    Some(seen)
                },
                |at, walk| {
                    let before = at.len();
                    for o in walk {
                        if !at.contains(&o) {
                            at.push(o);
                        }
                    }
                    at.len() > before
                },
            )
            .map(|mut seen| {
                seen.sort_by_key(|o| o.name());
                seen
            })
        };
        let tree = person_fragment();
        assert_eq!(
            through(&tree, "ROOT", "A3"),
            Some(vec![oid("A3"), oid("P1"), oid("P3")])
        );
        assert_eq!(through(&tree, "P2", "A3"), None);
        let mut dag = Store::new();
        dag.create_all([
            Object::set("R", "r", &[oid("t1"), oid("t2")]),
            Object::set("t1", "tuple", &[oid("shared")]),
            Object::set("t2", "tuple", &[oid("shared")]),
            Object::atom("shared", "age", 40i64),
        ])
        .unwrap();
        assert_eq!(
            through(&dag, "R", "shared"),
            Some(vec![oid("shared"), oid("t1"), oid("t2")])
        );
    }

    #[test]
    fn ancestors_all_without_parent_index_agrees() {
        let mut s = Store::new();
        s.create_all([
            Object::set("R", "r", &[oid("u1"), oid("u2")]),
            Object::set("u1", "tuple", &[oid("f1")]),
            Object::set("u2", "tuple", &[oid("f1")]),
            Object::atom("f1", "age", 40i64),
        ])
        .unwrap();
        for p in ["age", "tuple.age", "r.tuple.age", "name"] {
            let p = Path::parse(p);
            assert_eq!(
                ancestors_all_by_search(&s, oid("f1"), &p),
                ancestors_all(&s, oid("f1"), &p)
            );
        }
        let all = ancestors_all_by_search(&s, oid("f1"), &Path::parse("age"));
        assert_eq!(all, vec![oid("u1"), oid("u2")]);
    }

    #[test]
    fn parent_index_makes_ancestor_cheaper() {
        // The E2 claim in miniature: upward walk touches far fewer
        // objects than whole-store search.
        let mut s = Store::counting();
        let mut children = Vec::new();
        for i in 0..100 {
            let t = Oid::new(&format!("pt{i}"));
            let f = Oid::new(&format!("pf{i}"));
            s.create(Object::atom(f.name(), "age", i as i64)).unwrap();
            s.create(Object::set(t.name(), "tuple", &[f])).unwrap();
            children.push(t);
        }
        s.create(Object::set("R", "r", &children)).unwrap();
        let age = Path::parse("age");
        s.reset_accesses();
        let a = ancestor(&s, oid("pf7"), &age);
        let cheap = s.accesses();
        s.reset_accesses();
        let b = ancestors_all_by_search(&s, oid("pf7"), &age)
            .into_iter()
            .next();
        let costly = s.accesses();
        assert_eq!(a, b);
        assert!(
            cheap * 10 < costly,
            "expected >10x gap, got {cheap} vs {costly}"
        );
    }

    /// Clone-per-step upward search — the seed realization, kept here
    /// as the reference the arena-based reconstruction is checked
    /// against.
    fn reference_path_upward(store: &Store, n1: Oid, n2: Oid) -> Option<Path> {
        if n1 == n2 {
            return Some(Path::empty());
        }
        let mut stack: Vec<(Oid, Vec<Label>)> = vec![(n2, Vec::new())];
        let mut visited = HashSet::new();
        visited.insert(n2);
        while let Some((cur, labels_rev)) = stack.pop() {
            let Some(l) = store.label(cur) else { continue };
            let mut next_labels = labels_rev.clone();
            next_labels.push(l);
            for p in store.parents(cur).iter() {
                if p == n1 {
                    let mut labels = next_labels.clone();
                    labels.reverse();
                    return Some(Path(labels));
                }
                if visited.insert(p) {
                    stack.push((p, next_labels.clone()));
                }
            }
        }
        None
    }

    #[test]
    fn reconstruction_unchanged_on_sample_database() {
        // §2 sample database: every ordered pair must give the same
        // path under the index-based reconstruction as under the
        // clone-per-step reference, and the indexed and traversal
        // realizations must agree with each other.
        let mut s = Store::new();
        crate::samples::person_db(&mut s).unwrap();
        let oids = s.oids_sorted();
        for &a in &oids {
            for &b in &oids {
                let got = path_between(&s, a, b);
                let reference = reference_path_upward(&s, a, b);
                assert_eq!(got, reference, "path({}, {}) changed", a.name(), b.name());
                if a == b {
                    continue;
                }
                assert_eq!(
                    path_by_search(&s, a, b),
                    reference,
                    "traversal path({}, {}) disagrees",
                    a.name(),
                    b.name()
                );
            }
        }
    }
}
