//! The incremental operators circuits are assembled from.
//!
//! Both flow operators maintain *derivation counts* over the product
//! of the live graph and a constant path's automaton (the one
//! [`PathExpr::nfa`] compiles for [`PathExpr::from_path`]: a flow steps
//! it a state at a time, forward or backward, off its table), updated
//! by Z-set delta propagation:
//!
//! * [`ForwardFlow`] — flat-map edge expansion from a set of source
//!   objects: `C[(src, n, s)]` counts the label-path derivations from
//!   `src` (in an NFA start state) to `n` in state `s`. The accepting
//!   row is the operator's output Z-set.
//! * [`BackwardFlow`] — the condition witness: `D[(n, s)]` counts the
//!   accepting suffixes below `n` starting in state `s`, where a
//!   suffix accepts iff it ends at an atom satisfying the predicate.
//!   The start-state row says which objects have a witness.
//!
//! Counts are linear in the live-edge set, so a batch of ±1 edge
//! events applied against the *pre-batch* counts, followed by a
//! propagation through the *post-batch* store's live edges, lands
//! exactly on the from-scratch counts (the semi-naïve residual rule:
//! `ΔC = closure(A_new) · ΔA · C_old`) in any order of application;
//! propagation goes in rounds, each applying every pending delta and
//! collecting those it sends one edge further. Work is proportional to
//! the product states actually touched — O(|Δ|), not O(view). A flow
//! keeps one row of live `(source, state, count)` entries per node.
//!
//! Flows take constant paths only. The automaton of a path of `k`
//! labels is the chain `0 → 1 → … → k`, so every product edge advances
//! the path position: the product is acyclic on any base, cycles and
//! self-loops included, every count is finite, and a propagation ends
//! within `k + 1` rounds.

use crate::zset::ZSet;
use gsdb::{Atom, FastMap, FastSet, Label, Oid, Path, Store};
use gsview_query::{Nfa, PathExpr, Pred};
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// The states of a mask, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let s = mask.trailing_zeros();
            mask &= mask - 1;
            s
        })
    })
}

/// One node's live `(key, count)` entries, the first held inline.
#[derive(Clone, Debug)]
enum Row<K> {
    One([(K, i64); 1]),
    Many(Vec<(K, i64)>),
}

/// One [`Row`] per node, no zero count, no empty row, and `live`
/// entries in all: a flow's counts, and an aggregate's pair indexes.
#[derive(Clone, Debug)]
pub(crate) struct Rows<K> {
    rows: FastMap<Oid, Row<K>>,
    live: usize,
}

impl<K> Default for Rows<K> {
    fn default() -> Self {
        Rows {
            rows: FastMap::default(),
            live: 0,
        }
    }
}

impl<K: Copy + Eq> Rows<K> {
    pub(crate) fn row(&self, node: Oid) -> &[(K, i64)] {
        match self.rows.get(&node) {
            Some(Row::One(e)) => e,
            Some(Row::Many(v)) => v,
            None => &[],
        }
    }

    /// Add a non-zero `delta` to `key`'s count at `node`.
    pub(crate) fn bump(&mut self, node: Oid, key: K, delta: i64) {
        let mut slot = match self.rows.entry(node) {
            Entry::Occupied(o) => o,
            Entry::Vacant(v) => {
                v.insert(Row::One([(key, delta)]));
                self.live += 1;
                return;
            }
        };
        let row = slot.get_mut();
        let entries: &mut [(K, i64)] = match row {
            Row::One(e) => e,
            Row::Many(v) => v,
        };
        let Some(i) = entries.iter().position(|e| e.0 == key) else {
            match row {
                Row::One([e]) => *row = Row::Many(vec![*e, (key, delta)]),
                Row::Many(v) => v.push((key, delta)),
            }
            self.live += 1;
            return;
        };
        entries[i].1 = entries[i].1.saturating_add(delta);
        if entries[i].1 == 0 {
            self.live -= 1;
            match row {
                Row::Many(v) if v.len() > 1 => drop(v.swap_remove(i)),
                _ => drop(slot.remove()),
            }
        }
    }
}

/// Drain `pending` in rounds: `apply` takes each entry of a round and
/// adds what it derives to the next, one unit of `pops` per entry. A
/// round moves every entry one path position on, so the rounds run out.
/// `rows` makes room for a round's entries before they land, and the
/// next round's Z-set starts at the size of this one: a build's tables
/// do not grow one doubling at a time from empty.
fn drain<K: Eq + Hash + Copy, R>(
    mut pending: ZSet<K>,
    pops: &mut u64,
    rows: &mut Rows<R>,
    mut apply: impl FnMut(&mut Rows<R>, K, i64, &mut ZSet<K>),
) {
    while !pending.is_empty() {
        let n = pending.len();
        let round = std::mem::replace(&mut pending, ZSet::with_capacity(n));
        rows.rows.reserve(n);
        for (key, delta) in round.iter() {
            *pops += 1;
            apply(rows, key, delta, &mut pending);
        }
    }
}

// ----------------------------------------------------------------------
// Forward flow
// ----------------------------------------------------------------------

/// Forward weighted path reachability from per-source injection points.
///
/// The source type `S` is `()` for a view branch (one flow from the
/// branch root) and the member OID for aggregate value collection
/// (one flow per member, sharing state and propagation).
#[derive(Clone, Debug)]
pub struct ForwardFlow<S: Eq + Hash + Copy> {
    nfa: Nfa,
    rows: Rows<(S, u32)>,
}

impl<S: Eq + Hash + Copy> ForwardFlow<S> {
    /// A flow for `path` with no state.
    pub fn new(path: &Path) -> Self {
        ForwardFlow {
            nfa: PathExpr::from_path(path).nfa(),
            rows: Rows::default(),
        }
    }

    /// Inject `w` copies of source `src` at `node` (in every start
    /// state) into `pending`.
    pub fn seed(&self, pending: &mut ZSet<(S, Oid, u32)>, src: S, node: Oid, w: i64) {
        for s in bits(self.nfa.start_mask()) {
            pending.add((src, node, s), w);
        }
    }

    /// Translate one ±1 edge event into count deltas against the
    /// **current** (pre-propagation) counts. Must be called for every
    /// event of a batch before [`ForwardFlow::propagate`].
    pub fn edge_event(
        &self,
        pending: &mut ZSet<(S, Oid, u32)>,
        parent: Oid,
        child: Oid,
        child_label: Label,
        w: i64,
    ) {
        for &((src, s), cnt) in self.rows.row(parent) {
            for s2 in bits(self.nfa.step_mask(1 << s, child_label)) {
                pending.add((src, child, s2), w.saturating_mul(cnt));
            }
        }
    }

    /// Drain `pending` to a fixpoint through the live edges of the
    /// post-batch `store`, adding every `(src, node)` whose accepting
    /// support changed to `dirty`.
    pub fn propagate(
        &mut self,
        store: &Store,
        pending: ZSet<(S, Oid, u32)>,
        pops: &mut u64,
        dirty: &mut FastSet<(S, Oid)>,
    ) {
        drain(
            pending,
            pops,
            &mut self.rows,
            |rows, (src, node, s), delta, next| {
                rows.bump(node, (src, s), delta);
                if s == self.nfa.accept_state() {
                    // A chain's accepting state steps nowhere: its
                    // children would be read for nothing.
                    dirty.insert((src, node));
                    return;
                }
                // A record-less node has no children; a record-less child
                // is a dangling entry, not a live edge. A child's label
                // is read at its slot hint once the record there is the
                // child's, else looked up: one counted access either way.
                let Some(slot) = store.slot_of(node) else {
                    let _ = store.children(node);
                    return;
                };
                for (c, hint) in store.children_at(slot) {
                    let label = if store.oid_at(hint) == Some(c) {
                        store.label_at(hint)
                    } else {
                        store.label(c)
                    };
                    let Some(l) = label else { continue };
                    for s2 in bits(self.nfa.step_mask(1 << s, l)) {
                        next.add((src, c, s2), delta);
                    }
                }
            },
        )
    }

    /// Accepting support of `(src, node)` — the operator's output
    /// weight before the distinct clamp.
    pub fn support(&self, src: S, node: Oid) -> i64 {
        let key = (src, self.nfa.accept_state());
        self.rows
            .row(node)
            .iter()
            .find(|e| e.0 == key)
            .map_or(0, |e| e.1)
    }

    /// Number of live product states (arranged index size).
    pub fn state_len(&self) -> usize {
        self.rows.live
    }
}

// ----------------------------------------------------------------------
// Backward flow (condition witnesses)
// ----------------------------------------------------------------------

/// Backward witness counting for an existential condition
/// `cond(X.path) pred`: `D[(n, s)]` counts derivations of an
/// accepting, predicate-satisfying suffix from state `s` at `n`.
///
/// `D[n][accept] = [atom(n) satisfies pred]`, and every other state
/// sums over live child edges; deltas propagate **upward** through
/// the parent index with the automaton stepped backwards. The
/// start-state entries are the witness: `witness(n) > 0` iff some
/// instance of `path` from `n` ends in a satisfying atom.
#[derive(Clone, Debug)]
pub struct BackwardFlow {
    nfa: Nfa,
    pred: Pred,
    rows: Rows<u32>,
}

impl BackwardFlow {
    /// A witness flow for `path` filtered by `pred`, with no state.
    pub fn new(path: &Path, pred: Pred) -> Self {
        BackwardFlow {
            nfa: PathExpr::from_path(path).nfa(),
            pred,
            rows: Rows::default(),
        }
    }

    fn pred_ok(&self, atom: Option<&Atom>) -> bool {
        atom.map(|a| self.pred.eval(a)).unwrap_or(false)
    }

    /// Base-term delta for an object whose record or atom changed:
    /// `old` is its atom before (`None` for a created record), `new`
    /// after (`None` for a removed one). Only a change in the
    /// predicate's verdict reaches `pending`, and only at a label some
    /// accepting suffix can end in: a term anywhere else would never
    /// reach a witness, so the counts leave it out.
    pub fn base_event(
        &self,
        pending: &mut ZSet<(Oid, u32)>,
        node: Oid,
        label: Label,
        old: Option<&Atom>,
        new: Option<&Atom>,
    ) {
        let accept = self.nfa.accept_state();
        if self.nfa.start_mask() >> accept & 1 == 0
            && self.nfa.step_back_mask(1 << accept, label) == 0
        {
            return;
        }
        let w = self.pred_ok(new) as i64 - self.pred_ok(old) as i64;
        if w != 0 {
            pending.add((node, accept), w);
        }
    }

    /// Translate one ±1 edge event into witness deltas for the parent,
    /// against current (pre-propagation) counts.
    pub fn edge_event(
        &self,
        pending: &mut ZSet<(Oid, u32)>,
        parent: Oid,
        child: Oid,
        child_label: Label,
        w: i64,
    ) {
        for &(s2, cnt) in self.rows.row(child) {
            for s0 in bits(self.nfa.step_back_mask(1 << s2, child_label)) {
                pending.add((parent, s0), w.saturating_mul(cnt));
            }
        }
    }

    /// Drain `pending` upward to a fixpoint through the live edges of
    /// the post-batch `store`, read from its parent index. Objects whose
    /// start-state witness support changed are added to `dirty`.
    pub fn propagate(
        &mut self,
        store: &Store,
        pending: ZSet<(Oid, u32)>,
        pops: &mut u64,
        dirty: &mut FastSet<Oid>,
    ) {
        drain(
            pending,
            pops,
            &mut self.rows,
            |rows, (node, s), delta, next| {
                rows.bump(node, s, delta);
                if self.nfa.start_mask() >> s & 1 != 0 {
                    // Nor does anything step into a chain's start state.
                    dirty.insert(node);
                    return;
                }
                // A removed node that a parent still names is the child of
                // a dangling entry, not of a live edge: it stops here.
                let Some(l) = store.label(node) else { return };
                let inv = self.nfa.step_back_mask(1 << s, l);
                if inv != 0 {
                    for p in store.parents(node).iter() {
                        for s0 in bits(inv) {
                            next.add((p, s0), delta);
                        }
                    }
                }
            },
        )
    }

    /// Witness support of `node` (positive iff a satisfying instance
    /// of the condition path exists below it): the sum of its
    /// start-state counts.
    pub fn witness(&self, node: Oid) -> i64 {
        let start = self.nfa.start_mask();
        let row = self.rows.row(node).iter().filter(|e| start >> e.0 & 1 != 0);
        row.fold(0, |sum, e| sum.saturating_add(e.1))
    }

    /// Number of live product states.
    pub fn state_len(&self) -> usize {
        self.rows.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::Object;
    use gsview_query::CmpOp;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn store3() -> Store {
        let mut s = Store::new();
        s.create(Object::atom("A1", "age", 50i64)).unwrap();
        s.create(Object::set("P1", "professor", &[oid("A1")]))
            .unwrap();
        s.create(Object::set("ROOT", "root", &[oid("P1")])).unwrap();
        s
    }

    fn run_forward(path: &str, store: &Store, root: &str) -> (ForwardFlow<()>, u64) {
        let mut f = ForwardFlow::new(&Path::parse(path));
        let mut pending = ZSet::new();
        f.seed(&mut pending, (), oid(root), 1);
        let mut pops = 0;
        let mut dirty = FastSet::default();
        f.propagate(store, pending, &mut pops, &mut dirty);
        (f, pops)
    }

    #[test]
    fn forward_counts_reach_accepting_members() {
        let s = store3();
        let (f, _) = run_forward("professor", &s, "ROOT");
        assert_eq!(f.support((), oid("P1")), 1);
        assert_eq!(f.support((), oid("A1")), 0);
        assert_eq!(f.support((), oid("ROOT")), 0);
    }

    #[test]
    fn a_flow_reads_no_children_below_the_accepting_state() {
        // `professor` accepts at the professors and steps no further:
        // their children are neither fetched nor labelled. The reads
        // are the root's children fetch and one label per child.
        let mut s = Store::counting();
        gsdb::samples::person_db(&mut s).unwrap();
        s.reset_accesses();
        let (f, pops) = run_forward("professor", &s, "ROOT");
        let cost = s.accesses();
        s.set_count_accesses(false);
        assert_eq!(f.support((), oid("P1")), 1);
        assert_eq!(f.support((), oid("P2")), 1);
        assert_eq!(pops, 3);
        assert_eq!(cost, 1 + s.children(oid("ROOT")).len() as u64);
    }

    #[test]
    fn a_stale_hint_moves_neither_a_flows_counts_nor_its_reads() {
        // ROOT names P1, which was removed, its slot taken by a filler
        // and created again elsewhere (a stale hint), P2, created after
        // ROOT (no hint), and X, which never had a record.
        let mut s = Store::new();
        s.create(Object::atom("SA1", "age", 50i64)).unwrap();
        s.create(Object::set("SP1", "professor", &[oid("SA1")]))
            .unwrap();
        let names = [oid("SP1"), oid("SP2"), oid("SX")];
        s.create(Object::set("SROOT", "root", &names)).unwrap();
        s.create(Object::set("SP2", "professor", &[oid("SA1")]))
            .unwrap();
        s.apply(gsdb::Update::Remove { oid: oid("SP1") }).unwrap();
        s.create(Object::atom("SFILL", "filler", 0i64)).unwrap();
        s.create(Object::set("SP1", "professor", &[oid("SA1")]))
            .unwrap();
        let root = s.slot_of(oid("SROOT")).unwrap();
        let (_, hint) = (s.children_at(root).find(|&(c, _)| c == oid("SP1"))).unwrap();
        assert_eq!(s.oid_at(hint), Some(oid("SFILL")), "the hint is stale");
        // A whole build hints every child afresh.
        let fresh = Store::from_records(s.iter().cloned().collect(), s.version()).unwrap();
        let mut seen = Vec::new();
        for store in [&s, &fresh] {
            store.set_count_accesses(true);
            store.reset_accesses();
            let (f, pops) = run_forward("professor.age", store, "SROOT");
            let supports: Vec<i64> = ["SA1", "SP1", "SP2", "SFILL", "SX"]
                .iter()
                .map(|n| f.support((), oid(n)))
                .collect();
            seen.push((supports, pops, f.state_len(), store.accesses()));
        }
        assert_eq!(seen[0].0[0], 2, "SA1 below SP1 and SP2");
        assert_eq!(seen[0], seen[1]);
    }

    #[test]
    fn the_empty_path_accepts_the_root_alone() {
        let s = store3();
        let (f, pops) = run_forward("", &s, "ROOT");
        assert_eq!(f.support((), oid("ROOT")), 1);
        assert_eq!(f.support((), oid("P1")), 0);
        assert_eq!(pops, 1);
    }

    #[test]
    fn backward_witness_finds_satisfying_atom() {
        let s = store3();
        let mut w = BackwardFlow::new(&Path::parse("age"), Pred::new(CmpOp::Gt, 40i64));
        let mut pending = ZSet::new();
        for o in s.iter() {
            w.base_event(&mut pending, o.oid, o.label, None, o.atom_value());
        }
        let mut dirty = FastSet::default();
        w.propagate(&s, pending, &mut 0, &mut dirty);
        assert!(w.witness(oid("P1")) > 0, "P1 has an age witness > 40");
        assert_eq!(w.witness(oid("ROOT")), 0);
    }

    #[test]
    fn propagation_ends_on_a_self_loop() {
        // `ROOT -c-> C` and `C -c-> C`: the loop would feed a closure
        // forever, but a constant path moves one position per round.
        let mut s = Store::new();
        s.create(Object::set("ROOT", "root", &[])).unwrap();
        s.create(Object::set("C", "c", &[])).unwrap();
        s.insert_edge(oid("ROOT"), oid("C")).unwrap();
        s.insert_edge(oid("C"), oid("C")).unwrap();
        let (f, pops) = run_forward("c.c.c", &s, "ROOT");
        // (ROOT, 0), (C, 1), (C, 2), (C, 3): one entry a round, and
        // the accepting state steps nowhere.
        assert_eq!(pops, 4);
        assert_eq!(f.support((), oid("C")), 1);
        assert_eq!(f.support((), oid("ROOT")), 0);
        assert_eq!(f.state_len(), 4);
    }
}
