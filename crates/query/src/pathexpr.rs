//! Path expressions: regular expressions over object labels (paper §2).
//!
//! "A path expression is a regular expression of paths. For example,
//! `*`, `professor.*` and `professor.?` are path expressions." A
//! constant path is also a path expression.
//!
//! Grammar (dot-separated elements):
//!
//! * a label `professor` — matches exactly that label;
//! * `?` — matches any single label;
//! * `*` — matches any sequence of zero or more labels;
//! * `(a|b|c)` — matches any one of the listed labels.
//!
//! An expression compiles to one automaton, [`Nfa`], whose state sets
//! are `u64` masks; every consumer reads that:
//!
//! * [`PathExpr::matches`] — is a constant path an *instance* of the
//!   expression (paper §2: wild cards substituted by paths);
//! * [`PathExpr::contains`] — language containment `L(a) ⊆ L(b)`,
//!   the test paper §6 says wildcard-view maintenance needs
//!   ("the maintenance algorithm needs to be able to test path
//!   containment for general path expressions");
//! * [`reach_expr`] — `N.e`, the union of `N.p` over all instances
//!   `p` of `e` (paper §2), computed as a product BFS of the database
//!   graph and the automaton; [`WalkScratch`] runs the same walk in
//!   memory its caller keeps, and can stop it at the first object that
//!   settles an existential test.
//!
//! The mask is also the bound: an expression may have at most
//! [`MAX_ELEMS`] elements, and the parsers refuse a longer one.

use gsdb::{FastMap, FastSet, Label, Oid, Path, Store};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// The most elements an expression may have, adjacent `*` counted
/// once: the automaton's states — one per element and the accepting
/// one — are the bits of a `u64`.
pub const MAX_ELEMS: usize = 63;

/// Why expression text was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathExprError {
    /// Not the grammar: an empty element or a broken alternation.
    Malformed,
    /// More than [`MAX_ELEMS`] elements; carries how many.
    TooLong(usize),
}

impl fmt::Display for PathExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathExprError::Malformed => write!(f, "malformed path expression"),
            PathExprError::TooLong(n) => {
                write!(f, "path expression has {n} elements, the limit is {MAX_ELEMS}")
            }
        }
    }
}

impl std::error::Error for PathExprError {}

/// One dot-separated element of a path expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Elem {
    /// A specific label.
    Label(Label),
    /// `?`: any single label.
    AnyOne,
    /// `*`: any sequence of zero or more labels.
    AnySeq,
    /// `(a|b)`: one label out of a set.
    Alt(Vec<Label>),
}

/// A path expression: a sequence of elements.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct PathExpr(pub Vec<Elem>);

impl PathExpr {
    /// The empty path expression (matches only the empty path).
    pub fn empty() -> Self {
        PathExpr(Vec::new())
    }

    /// A constant path as an expression.
    pub fn from_path(p: &Path) -> Self {
        PathExpr(p.labels().iter().map(|&l| Elem::Label(l)).collect())
    }

    /// Parse a dotted expression: `"professor.*.age"`, `"?"`,
    /// `"(a|b).x"`. Empty string parses to the empty expression.
    pub fn parse(s: &str) -> Result<Self, PathExprError> {
        if s.is_empty() {
            return Ok(PathExpr::empty());
        }
        let mut elems = Vec::new();
        for part in s.split('.') {
            let part = part.trim();
            let elem = match part {
                "?" => Elem::AnyOne,
                "*" => Elem::AnySeq,
                _ if part.starts_with('(') && part.ends_with(')') => {
                    let inner = &part[1..part.len() - 1];
                    let labels: Vec<Label> = inner
                        .split('|')
                        .map(str::trim)
                        .filter(|l| !l.is_empty())
                        .map(Label::new)
                        .collect();
                    if labels.is_empty() {
                        return Err(PathExprError::Malformed);
                    }
                    Elem::Alt(labels)
                }
                "" => return Err(PathExprError::Malformed),
                // A stray '(', ')' or '|' here means an alternation was
                // split apart by a dot (e.g. "(a|b.c)") or malformed —
                // reject instead of silently treating it as a label.
                _ if part.contains('(') || part.contains(')') || part.contains('|') => {
                    return Err(PathExprError::Malformed)
                }
                _ => Elem::Label(Label::new(part)),
            };
            elems.push(elem);
        }
        PathExpr(elems).checked()
    }

    /// The elements, each run of adjacent `*` reduced to one (a run
    /// matches what one does).
    fn merged(&self) -> impl Iterator<Item = &Elem> {
        let mut after_star = false;
        self.0.iter().filter(move |e| {
            let star = matches!(e, Elem::AnySeq);
            let keep = !(star && after_star);
            after_star = star;
            keep
        })
    }

    /// The expression, if the automaton has room for it. Both parsers
    /// end here, so text never reaches [`PathExpr::nfa`] too long.
    pub(crate) fn checked(self) -> Result<Self, PathExprError> {
        match self.merged().count() {
            n if n > MAX_ELEMS => Err(PathExprError::TooLong(n)),
            _ => Ok(self),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True iff this expression is a constant path (no wild cards) —
    /// the "simple view" precondition of paper §4.2.
    pub fn is_constant(&self) -> bool {
        self.0.iter().all(|e| matches!(e, Elem::Label(_)))
    }

    /// If constant, the corresponding path.
    pub fn as_path(&self) -> Option<Path> {
        let mut labels = Vec::with_capacity(self.0.len());
        for e in &self.0 {
            match e {
                Elem::Label(l) => labels.push(*l),
                _ => return None,
            }
        }
        Some(Path(labels))
    }

    /// Concatenate two expressions (`sel_path.cond_path`).
    pub fn concat(&self, other: &PathExpr) -> PathExpr {
        let mut v = self.0.clone();
        v.extend(other.0.iter().cloned());
        PathExpr(v)
    }

    /// Compile to the automaton.
    ///
    /// # Panics
    ///
    /// On more than [`MAX_ELEMS`] elements. The parsers refuse such
    /// text with [`PathExprError::TooLong`]; only an expression built
    /// in code can get here.
    pub fn nfa(&self) -> Nfa {
        Nfa::compile(self)
    }

    /// Is `p` an instance of this expression (paper §2)?
    pub fn matches(&self, p: &Path) -> bool {
        self.nfa().accepts(p.labels())
    }

    /// Language containment: does every instance of `inner` also
    /// instantiate `other`? Decided by determinizing both automata
    /// over the joint alphabet (plus a fresh "other label" symbol) and
    /// searching `L(inner) ∩ ¬L(other)` for a witness.
    pub fn contains(other: &PathExpr, inner: &PathExpr) -> bool {
        let a = inner.nfa();
        let b = other.nfa();
        // A label distinct from all mentioned ones stands in for "any
        // other label" — sound because both automata treat all
        // unmentioned labels identically.
        let fresh = Label::new("\u{1}other\u{1}");
        let mentioned = a.symbols.keys().chain(b.symbols.keys()).copied();
        let alphabet: BTreeSet<Label> = mentioned.chain([fresh]).collect();
        // Product BFS over pairs of state sets, looking for one where
        // `a` accepts but `b` does not.
        let start = (a.start_mask(), b.start_mask());
        let mut seen: FastSet<(u64, u64)> = FastSet::default();
        let mut q = VecDeque::new();
        seen.insert(start);
        q.push_back(start);
        while let Some((sa, sb)) = q.pop_front() {
            if a.is_accepting(sa) && !b.is_accepting(sb) {
                return false; // witness: a path in inner but not other
            }
            for &l in &alphabet {
                let na = a.step_mask(sa, l);
                if na == 0 {
                    continue; // dead for inner ⇒ no counterexample there
                }
                let key = (na, b.step_mask(sb, l));
                if seen.insert(key) {
                    q.push_back(key);
                }
            }
        }
        true
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            match e {
                Elem::Label(l) => write!(f, "{l}")?,
                Elem::AnyOne => write!(f, "?")?,
                Elem::AnySeq => write!(f, "*")?,
                Elem::Alt(ls) => {
                    write!(f, "(")?;
                    for (j, l) in ls.iter().enumerate() {
                        if j > 0 {
                            write!(f, "|")?;
                        }
                        write!(f, "{l}")?;
                    }
                    write!(f, ")")?;
                }
            }
        }
        Ok(())
    }
}

impl From<&Path> for PathExpr {
    fn from(p: &Path) -> Self {
        PathExpr::from_path(p)
    }
}

// ----------------------------------------------------------------------
// The automaton
// ----------------------------------------------------------------------

/// The compiled automaton of a path expression. State `i` means "the
/// first `i` elements are matched", a state set is a `u64` mask, and
/// the transition function is a table over the labels the expression
/// mentions plus one "any other label" column. Stepping a state set is
/// a few table lookups and ORs — no allocation per node.
///
/// A `*` at element `i` may match nothing, so whoever is in state `i`
/// is in `i + 1` too; every mask handed out is closed under that.
///
/// The states with no outgoing transition at all (the accepting one,
/// always) form the complement of `live`: a walk standing in none of
/// the live states can step nowhere, so it reads no children there.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// mentioned label → column index; unmentioned labels use the
    /// extra last column.
    symbols: FastMap<Label, u32>,
    /// columns per state: one per mentioned label + 1 for "other".
    ncols: usize,
    /// `fwd[s * ncols + col]`: where one `col` step takes state `s`.
    fwd: Vec<u64>,
    /// `inv[t * ncols + col]`: the states one `col` step takes to `t`.
    inv: Vec<u64>,
    /// The states with at least one outgoing transition.
    live: u64,
    start: u64,
    accept: u32,
}

impl Nfa {
    fn compile(e: &PathExpr) -> Nfa {
        let elems: Vec<&Elem> = e.merged().collect();
        let n = elems.len();
        assert!(n <= MAX_ELEMS, "{}", PathExprError::TooLong(n));
        let mut symbols: FastMap<Label, u32> = FastMap::default();
        for l in elems.iter().flat_map(|e| match e {
            Elem::Label(l) => std::slice::from_ref(l),
            Elem::Alt(ls) => ls.as_slice(),
            Elem::AnyOne | Elem::AnySeq => &[],
        }) {
            let next = symbols.len() as u32;
            symbols.entry(*l).or_insert(next);
        }
        let ncols = symbols.len() + 1;
        // Runs of `*` are merged, so a closure never chains.
        let closed = |s: usize| {
            let m = 1u64 << s;
            match elems.get(s) {
                Some(Elem::AnySeq) => m | m << 1,
                _ => m,
            }
        };
        let mut fwd = vec![0u64; (n + 1) * ncols];
        for (s, e) in elems.iter().enumerate() {
            let row = &mut fwd[s * ncols..(s + 1) * ncols];
            match e {
                Elem::Label(l) => row[symbols[l] as usize] = closed(s + 1),
                Elem::Alt(ls) => ls.iter().for_each(|l| row[symbols[l] as usize] = closed(s + 1)),
                Elem::AnyOne => row.fill(closed(s + 1)),
                Elem::AnySeq => row.fill(closed(s)),
            }
        }
        let mut inv = vec![0u64; (n + 1) * ncols];
        let mut live = 0u64;
        for s in 0..=n {
            if fwd[s * ncols..(s + 1) * ncols].iter().any(|&to| to != 0) {
                live |= 1 << s;
            }
            for col in 0..ncols {
                let mut to = fwd[s * ncols + col];
                while to != 0 {
                    inv[to.trailing_zeros() as usize * ncols + col] |= 1 << s;
                    to &= to - 1;
                }
            }
        }
        Nfa {
            symbols,
            ncols,
            fwd,
            inv,
            live,
            start: closed(0),
            accept: n as u32,
        }
    }

    /// OR the `l` entries of `table` over the states of `mask`.
    #[inline]
    fn lookup(&self, table: &[u64], mask: u64, l: Label) -> u64 {
        let col = match self.symbols.get(&l) {
            Some(&c) => c as usize,
            None => self.ncols - 1,
        };
        // Every product walk spends its time here: written out, the
        // loop measured ≈ 4 % more `alg1_portfolio` updates/s than a
        // fold over an iterator of the mask's states.
        let mut out = 0u64;
        let mut m = mask;
        while m != 0 {
            let s = m.trailing_zeros() as usize;
            m &= m - 1;
            out |= table[s * self.ncols + col];
        }
        out
    }

    /// The start state set.
    #[inline]
    pub fn start_mask(&self) -> u64 {
        self.start
    }

    /// One step on label `l` from a state set. `0` means the automaton
    /// is dead.
    #[inline]
    pub fn step_mask(&self, mask: u64, l: Label) -> u64 {
        self.lookup(&self.fwd, mask, l)
    }

    /// One step on label `l` taken backwards: the states from which it
    /// leads into `mask`.
    #[inline]
    pub fn step_back_mask(&self, mask: u64, l: Label) -> u64 {
        self.lookup(&self.inv, mask, l)
    }

    /// The accepting state (the highest-numbered one).
    #[inline]
    pub fn accept_state(&self) -> u32 {
        self.accept
    }

    /// Does the mask contain the accepting state?
    #[inline]
    pub fn is_accepting(&self, mask: u64) -> bool {
        (mask >> self.accept) & 1 != 0
    }

    /// Can any label step the mask somewhere? False for a set of
    /// states with no outgoing transition, such as the accepting state
    /// alone.
    #[inline]
    fn can_step(&self, mask: u64) -> bool {
        mask & self.live != 0
    }

    /// Every state at once: the mask to walk from when the states the
    /// automaton arrived in are not known (a superset of any of them,
    /// so the walk visits a superset of what any of them would).
    #[inline]
    pub fn all_states(&self) -> u64 {
        u64::MAX >> (63 - self.accept)
    }

    /// Run the automaton over a label word.
    pub fn accepts(&self, word: &[Label]) -> bool {
        let mut cur = self.start;
        for &l in word {
            cur = self.step_mask(cur, l);
            if cur == 0 {
                return false;
            }
        }
        self.is_accepting(cur)
    }
}

// ----------------------------------------------------------------------
// N.e — reachability along a path expression
// ----------------------------------------------------------------------

/// Statistics from an expression traversal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Product states (object, NFA-state-set) visited. A walk that
    /// stops early ([`WalkScratch::any`]) counts those it visited
    /// before it stopped.
    pub states_visited: usize,
}

/// `N.e`: the union of `N.p` over all instances `p` of `e`
/// (paper §2). `filter` restricts traversal to objects it admits —
/// used to implement the `WITHIN DB1` clause, under which OIDs outside
/// the database "are completely ignored by the query".
///
/// Result is sorted by OID name.
pub fn reach_expr(
    store: &Store,
    n: Oid,
    e: &PathExpr,
    filter: &dyn Fn(Oid) -> bool,
) -> (Vec<Oid>, TraversalStats) {
    let nfa = e.nfa();
    WalkScratch::default().reach(store, n, &nfa, nfa.start_mask(), filter)
}

/// A scratch table above this many entries is dropped, not cleared,
/// before the next walk: clearing costs time in proportion to the
/// capacity, so a whole-store walk would otherwise tax every small
/// walk after it.
const KEEP_SEEN: usize = 1024;

/// The memory of the product walk — the set of product states seen
/// and the queue — kept by a caller that walks many times, and cleared
/// between walks. Scope one to a unit of work (a query, a batch of
/// view maintenance), not to a thread: see DESIGN.md, "Product walk".
///
/// Product states are `(slot id, u64 mask)` pairs, memoized in a
/// fast-hash set — per-(slot, state-set) visitation is computed at
/// most once. A state set from which the automaton can step nowhere
/// (the accepting state alone, say) reads no children. Base accesses:
/// one per children fetch, one per child label read.
#[derive(Debug, Default)]
pub struct WalkScratch {
    pub(crate) seen: FastSet<(u32, u64)>,
    pub(crate) queue: VecDeque<(u32, u64)>,
}

impl WalkScratch {
    /// Empty the tables for the next walk.
    pub(crate) fn reset(&mut self) {
        if self.seen.capacity() > KEEP_SEEN {
            self.seen = FastSet::default();
        } else {
            self.seen.clear();
        }
        self.queue.clear();
    }

    /// The product walk of [`reach_expr`], entered part-way: the
    /// objects reached from `n` when the automaton stands in the state
    /// set `start` at `n` — `n` itself included if `start` accepts —
    /// sorted by OID name. [`reach_expr`] is the `start_mask()` case;
    /// wildcard-view repair continues a walk below a changed edge from
    /// the mask the edge's root path leaves.
    pub fn reach(
        &mut self,
        store: &Store,
        n: Oid,
        d: &Nfa,
        start: u64,
        filter: &dyn Fn(Oid) -> bool,
    ) -> (Vec<Oid>, TraversalStats) {
        let mut results = Vec::new();
        let (_, stats) = self.any(store, n, d, start, filter, |o| {
            results.push(o);
            false
        });
        // An object reached in two accepting state sets was pushed
        // twice.
        results.sort_by_key(|o| o.name());
        results.dedup();
        (results, stats)
    }

    /// Does any object the walk of [`WalkScratch::reach`] reaches
    /// satisfy `hit`? `hit` sees each object popped in an accepting
    /// state set, and the walk stops at the first it accepts (paper
    /// §2: `cond()` holds as soon as one object satisfies it), so
    /// `states_visited` counts the states visited until then.
    pub fn any(
        &mut self,
        store: &Store,
        n: Oid,
        d: &Nfa,
        start: u64,
        filter: &dyn Fn(Oid) -> bool,
        mut hit: impl FnMut(Oid) -> bool,
    ) -> (bool, TraversalStats) {
        let mut stats = TraversalStats::default();
        if !filter(n) {
            return (false, stats);
        }
        let Some(nslot) = store.slot_of(n) else {
            // Starting object absent from the store: the traversal still
            // visits it once (with no children).
            stats.states_visited = 1;
            if d.can_step(start) {
                let _ = store.children(n);
            }
            return (d.is_accepting(start) && hit(n), stats);
        };
        self.reset();
        let WalkScratch { seen, queue } = self;
        seen.insert((nslot, start));
        queue.push_back((nslot, start));
        while let Some((slot, mask)) = queue.pop_front() {
            stats.states_visited += 1;
            if d.is_accepting(mask) && store.oid_at(slot).is_some_and(&mut hit) {
                return (true, stats);
            }
            if !d.can_step(mask) {
                continue;
            }
            for &c in store.children_at(slot) {
                if !filter(c) {
                    continue;
                }
                let Some(cslot) = store.slot_of(c) else { continue };
                let Some(cl) = store.label_at(cslot) else { continue };
                let next = d.step_mask(mask, cl);
                if next == 0 {
                    continue;
                }
                if seen.insert((cslot, next)) {
                    queue.push_back((cslot, next));
                }
            }
        }
        (false, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::samples;

    fn pe(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    fn path(s: &str) -> Path {
        Path::parse(s)
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["professor", "professor.age", "*", "?", "professor.*", "(a|b).x"] {
            assert_eq!(pe(s).to_string(), s);
        }
        // Alternations cannot contain dots; malformed parens are
        // rejected, not lexed as labels.
        for s in ["a..b", "()", "(a|b.c)", "(a", "a|b"] {
            assert_eq!(PathExpr::parse(s), Err(PathExprError::Malformed), "{s}");
        }
        assert_eq!(PathExpr::parse(""), Ok(PathExpr::empty()));
    }

    #[test]
    fn the_automaton_has_room_for_63_elements() {
        let text = |n: usize| vec!["a"; n].join(".");
        let e = pe(&text(MAX_ELEMS));
        assert!(e.matches(&path(&text(MAX_ELEMS))));
        assert!(!e.matches(&path(&text(MAX_ELEMS - 1))));
        assert_eq!(e.nfa().all_states(), u64::MAX);
        assert_eq!(PathExpr::parse(&text(64)), Err(PathExprError::TooLong(64)));
        // Refused by counting, before any table is sized.
        assert_eq!(PathExpr::parse(&text(100_000)), Err(PathExprError::TooLong(100_000)));
        // A run of `*` is one element, in text and in code.
        let stars = vec!["*"; 70].join(".");
        assert_eq!(pe(&format!("a.{stars}.b")).nfa().accept_state(), 3);
        assert!(PathExpr::contains(&pe("*"), &PathExpr(vec![Elem::AnySeq; 70])));
        assert!(PathExpr::contains(&PathExpr(vec![Elem::AnySeq; 70]), &pe("*")));
    }

    #[test]
    fn constant_detection() {
        assert!(pe("professor.age").is_constant());
        assert!(!pe("professor.*").is_constant());
        assert_eq!(pe("a.b").as_path(), Some(path("a.b")));
        assert_eq!(pe("a.?").as_path(), None);
    }

    #[test]
    fn matches_constant() {
        assert!(pe("professor.age").matches(&path("professor.age")));
        assert!(!pe("professor.age").matches(&path("professor")));
        assert!(pe("").matches(&Path::empty()));
        assert!(!pe("").matches(&path("x")));
    }

    #[test]
    fn matches_wildcards() {
        // ? = exactly one label.
        assert!(pe("professor.?").matches(&path("professor.age")));
        assert!(!pe("professor.?").matches(&path("professor")));
        assert!(!pe("professor.?").matches(&path("professor.student.age")));
        // * = any sequence, including empty (paper: any path p is
        // contained in path expression *).
        assert!(pe("*").matches(&Path::empty()));
        assert!(pe("*").matches(&path("a.b.c")));
        assert!(pe("professor.*").matches(&path("professor")));
        assert!(pe("professor.*").matches(&path("professor.student.age")));
        assert!(!pe("professor.*").matches(&path("secretary.age")));
        // * in the middle.
        assert!(pe("a.*.z").matches(&path("a.z")));
        assert!(pe("a.*.z").matches(&path("a.m.n.z")));
        assert!(!pe("a.*.z").matches(&path("a.m.n")));
        // Alternation.
        assert!(pe("(professor|student).age").matches(&path("student.age")));
        assert!(!pe("(professor|student).age").matches(&path("secretary.age")));
    }

    #[test]
    fn containment_basic() {
        // Any path is contained in * (paper §6's example).
        assert!(PathExpr::contains(&pe("*"), &pe("professor.age")));
        assert!(PathExpr::contains(&pe("*"), &pe("a.*.b")));
        // Reflexive.
        assert!(PathExpr::contains(&pe("a.*.b"), &pe("a.*.b")));
        // Constant vs constant.
        assert!(PathExpr::contains(&pe("a.b"), &pe("a.b")));
        assert!(!PathExpr::contains(&pe("a.b"), &pe("a.c")));
        // ? ⊆ * but not vice versa.
        assert!(PathExpr::contains(&pe("*"), &pe("?")));
        assert!(!PathExpr::contains(&pe("?"), &pe("*")));
        // a.* contains a but not b.
        assert!(PathExpr::contains(&pe("a.*"), &pe("a")));
        assert!(!PathExpr::contains(&pe("a.*"), &pe("b")));
        // Alternation containment.
        assert!(PathExpr::contains(&pe("(a|b).x"), &pe("a.x")));
        assert!(!PathExpr::contains(&pe("(a|b).x"), &pe("c.x")));
        // Unmentioned labels are handled by the fresh-symbol trick:
        // ?.x ⊆ *.x, even for labels neither side names.
        assert!(PathExpr::contains(&pe("*.x"), &pe("?.x")));
        assert!(!PathExpr::contains(&pe("?.x"), &pe("*.x")));
    }

    #[test]
    fn containment_empty_pattern() {
        // ε ⊆ ε, and ε is contained in anything that accepts the
        // empty path — but contains nothing besides ε itself.
        let eps = PathExpr::empty();
        assert!(PathExpr::contains(&eps, &eps));
        assert!(PathExpr::contains(&pe("*"), &eps));
        assert!(PathExpr::contains(&pe("*.*"), &eps));
        assert!(!PathExpr::contains(&eps, &pe("a")));
        assert!(!PathExpr::contains(&eps, &pe("?")));
        assert!(!PathExpr::contains(&eps, &pe("*"))); // * also matches "a"
        assert!(!PathExpr::contains(&pe("a"), &eps));
        assert!(!PathExpr::contains(&pe("?"), &eps));
    }

    #[test]
    fn containment_is_reflexive() {
        for s in ["", "a", "?", "*", "a.b.c", "a.*.b", "?.*.?", "(a|b).*.(b|c)"] {
            let e = pe(s);
            assert!(PathExpr::contains(&e, &e), "{s} ⊆ {s} must hold");
        }
    }

    #[test]
    fn containment_wildcard_vs_literal() {
        // ? covers every single literal, named or not.
        assert!(PathExpr::contains(&pe("?"), &pe("a")));
        assert!(PathExpr::contains(&pe("?"), &pe("(a|b)")));
        assert!(!PathExpr::contains(&pe("a"), &pe("?")));
        assert!(!PathExpr::contains(&pe("(a|b)"), &pe("?")));
        // Fixed-arity chains: ?.? covers any two-label path, never a
        // one- or three-label one.
        assert!(PathExpr::contains(&pe("?.?"), &pe("a.b")));
        assert!(!PathExpr::contains(&pe("?.?"), &pe("a")));
        assert!(!PathExpr::contains(&pe("?.?"), &pe("a.b.c")));
        assert!(PathExpr::contains(&pe("*"), &pe("?.?")));
        // Mixed: a.? vs a.b vs ?.b — pairwise incomparable except
        // where the literal agrees.
        assert!(PathExpr::contains(&pe("a.?"), &pe("a.b")));
        assert!(PathExpr::contains(&pe("?.b"), &pe("a.b")));
        assert!(!PathExpr::contains(&pe("a.?"), &pe("?.b")));
        assert!(!PathExpr::contains(&pe("?.b"), &pe("a.?")));
        // A literal written as a singleton alternation is the same
        // language.
        assert!(PathExpr::contains(&pe("(a)"), &pe("a")));
        assert!(PathExpr::contains(&pe("a"), &pe("(a)")));
    }

    #[test]
    fn containment_cyclic_alphabets() {
        // `*` makes the NFA cyclic; exercise containment where both
        // sides loop over the same small alphabet {a, b}.
        // Strings over {a,b} starting with a ⊆ strings starting with
        // a or b.
        assert!(PathExpr::contains(&pe("(a|b).*"), &pe("a.*")));
        assert!(!PathExpr::contains(&pe("a.*"), &pe("(a|b).*")));
        // Ending constraints: *.a ⊆ *.(a|b), not vice versa.
        assert!(PathExpr::contains(&pe("*.(a|b)"), &pe("*.a")));
        assert!(!PathExpr::contains(&pe("*.a"), &pe("*.(a|b)")));
        // Starts-and-ends-with-a ⊆ contains-an-a (cycle on both sides
        // of the anchor).
        assert!(PathExpr::contains(&pe("*.a.*"), &pe("a.*.a")));
        assert!(!PathExpr::contains(&pe("a.*.a"), &pe("*.a.*")));
        // Starts-and-ends-with-a ⊆ starts-with-a.
        assert!(PathExpr::contains(&pe("a.*"), &pe("a.*.a")));
        assert!(!PathExpr::contains(&pe("a.*.a"), &pe("a.*")));
        // Two anchors vs one: *.a.*.b.* (an a somewhere before a b)
        // is strictly inside *.b.* (a b somewhere).
        assert!(PathExpr::contains(&pe("*.b.*"), &pe("*.a.*.b.*")));
        assert!(!PathExpr::contains(&pe("*.a.*.b.*"), &pe("*.b.*")));
        // Same language, syntactically different loops: *.* ≡ *.
        assert!(PathExpr::contains(&pe("*"), &pe("*.*")));
        assert!(PathExpr::contains(&pe("*.*"), &pe("*")));
        // The fresh-symbol trick must keep ?-loops honest even when
        // the candidate path uses labels neither side mentions:
        // ?.*.? (length ≥ 2) vs *.a.* — incomparable.
        assert!(!PathExpr::contains(&pe("?.*.?"), &pe("*.a.*"))); // "a" alone
        assert!(!PathExpr::contains(&pe("*.a.*"), &pe("?.*.?"))); // "x.y"
    }

    #[test]
    fn reach_expr_on_person_db() {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        let root = Oid::new("ROOT");
        let all = |_: Oid| true;
        // ROOT.professor = {P1, P2}.
        let (profs, _) = reach_expr(&s, root, &pe("professor"), &all);
        assert_eq!(profs, vec![Oid::new("P1"), Oid::new("P2")]);
        // ROOT.* includes every descendant and ROOT itself (ε instance).
        let (star, _) = reach_expr(&s, root, &pe("*"), &all);
        assert_eq!(star.len(), 15); // all 15 objects reachable from ROOT
        // ROOT.*.age: ages at any depth.
        let (ages, _) = reach_expr(&s, root, &pe("*.age"), &all);
        assert_eq!(
            ages,
            vec![Oid::new("A1"), Oid::new("A3"), Oid::new("A4")]
        );
        // ROOT.professor.?: all direct children of professors.
        let (kids, _) = reach_expr(&s, root, &pe("professor.?"), &all);
        assert_eq!(kids.len(), 6); // N1,A1,S1,P3,N2,ADD2
    }

    #[test]
    fn reach_expr_respects_filter() {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        let root = Oid::new("ROOT");
        // Exclude P1: nothing under it is reachable through it.
        let not_p1 = |o: Oid| o != Oid::new("P1");
        let (ages, _) = reach_expr(&s, root, &pe("*.age"), &not_p1);
        // A1 is only under P1; A3 is under P3 which is also a direct
        // child of ROOT, so it remains reachable; A4 under P4.
        assert_eq!(ages, vec![Oid::new("A3"), Oid::new("A4")]);
    }

    #[test]
    fn a_walk_costs_one_access_per_fetch_and_per_label_read() {
        // Under `*` every object is visited in one state set, so the
        // paper's cost metric can be read off the store: a children
        // fetch per object reached, a label read per edge below it.
        let mut s = Store::counting();
        samples::person_db(&mut s).unwrap();
        s.reset_accesses();
        let (all, stats) = reach_expr(&s, Oid::new("ROOT"), &pe("*"), &|_| true);
        let cost = s.accesses();
        s.set_count_accesses(false);
        let edges: usize = all.iter().map(|&o| s.children(o).len()).sum();
        assert_eq!(stats.states_visited, all.len());
        assert_eq!(cost, (all.len() + edges) as u64);
    }

    #[test]
    fn a_walk_reads_no_children_where_the_automaton_can_step_nowhere() {
        // `professor` accepts at the professors and can step no
        // further: their children are neither fetched nor labelled.
        let mut s = Store::counting();
        samples::person_db(&mut s).unwrap();
        s.reset_accesses();
        let (profs, stats) = reach_expr(&s, Oid::new("ROOT"), &pe("professor"), &|_| true);
        let cost = s.accesses();
        s.set_count_accesses(false);
        assert_eq!(profs, vec![Oid::new("P1"), Oid::new("P2")]);
        assert_eq!(stats.states_visited, 3);
        assert_eq!(cost, 1 + s.children(Oid::new("ROOT")).len() as u64);
    }

    #[test]
    fn backward_steps_invert_forward_steps() {
        for expr in ["", "a", "?", "*", "a.*.b", "(a|b).?", "*.a.*", "*.?.*"] {
            let nfa = pe(expr).nfa();
            for l in ["a", "b", "z"].map(Label::new) {
                for s in 0..=nfa.accept_state() {
                    for t in 0..=nfa.accept_state() {
                        assert_eq!(
                            nfa.step_mask(1 << s, l) >> t & 1,
                            nfa.step_back_mask(1 << t, l) >> s & 1,
                            "{expr}: {s} -{l}-> {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reach_continues_a_walk_part_way() {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        let all = |_: Oid| true;
        let e = pe("*.student.age");
        let d = &e.nfa();
        // Arrive at P1 by its root path, continue below it: what the
        // whole walk finds under P1.
        let at_p1 = d.step_mask(d.start_mask(), Label::new("professor"));
        let mut scratch = WalkScratch::default();
        let (below, _) = scratch.reach(&s, Oid::new("P1"), d, at_p1, &all);
        assert_eq!(below, vec![Oid::new("A3")]);
        // From every state at once: also what a walk that had already
        // consumed `student` would accept right below.
        let (any, _) = scratch.reach(&s, Oid::new("P1"), d, d.all_states(), &all);
        assert_eq!(any, vec![Oid::new("A1"), Oid::new("A3"), Oid::new("P1")]);
        // A dead mask reaches nothing.
        assert!(scratch.reach(&s, Oid::new("P1"), d, 0, &all).0.is_empty());
    }

    #[test]
    fn reach_expr_handles_cycles() {
        let mut s = Store::new();
        s.create_all([
            gsdb::Object::empty_set("a", "x"),
            gsdb::Object::empty_set("b", "x"),
        ])
        .unwrap();
        s.insert_edge(Oid::new("a"), Oid::new("b")).unwrap();
        s.insert_edge(Oid::new("b"), Oid::new("a")).unwrap();
        let (r, stats) = reach_expr(&s, Oid::new("a"), &pe("*"), &|_| true);
        assert_eq!(r.len(), 2);
        assert!(stats.states_visited <= 4, "product BFS must terminate");
    }
}
