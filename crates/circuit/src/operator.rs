//! The incremental operators circuits are assembled from.
//!
//! Both flow operators maintain *derivation counts* over the product
//! of the live graph and a path expression's automaton (the one
//! [`PathExpr::nfa`] compiles: a flow steps it a state at a time,
//! forward or backward, off its table), updated by Z-set delta
//! propagation:
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
//! worklist propagation through the *post-batch* store's live edges,
//! lands exactly on the from-scratch counts (the semi-naïve residual
//! rule: `ΔC = closure(A_new) · ΔA · C_old`). Work is proportional to
//! the product states actually touched — O(|Δ|), not O(view).
//!
//! Cyclic bases make path counts infinite; propagation is therefore
//! budgeted and reports [`Diverged`](crate::CircuitError::Diverged)
//! instead of spinning, and the caller falls back to recomputation.

use crate::events::{for_each_parent, parent_scan};
use crate::zset::ZSet;
use gsdb::{Atom, FastMap, FastSet, Label, Oid, Store};
use gsview_query::{Nfa, PathExpr, Pred};
use std::hash::Hash;

/// Marker for "propagation exceeded its budget".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Diverged;

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

// ----------------------------------------------------------------------
// Forward flow
// ----------------------------------------------------------------------

/// Forward weighted NFA reachability from per-source injection points.
///
/// The source type `S` is `()` for a view branch (one flow from the
/// branch root) and the member OID for aggregate value collection
/// (one flow per member, sharing state and propagation).
#[derive(Clone, Debug)]
pub struct ForwardFlow<S: Eq + Hash + Copy> {
    nfa: Nfa,
    counts: FastMap<(S, Oid, u32), i64>,
    by_node: FastMap<Oid, FastSet<(S, u32)>>,
    accept_support: ZSet<(S, Oid)>,
}

impl<S: Eq + Hash + Copy> ForwardFlow<S> {
    /// A flow for `expr` with no state.
    pub fn new(expr: &PathExpr) -> Self {
        ForwardFlow {
            nfa: expr.nfa(),
            counts: FastMap::default(),
            by_node: FastMap::default(),
            accept_support: ZSet::new(),
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
        &mut self,
        pending: &mut ZSet<(S, Oid, u32)>,
        parent: Oid,
        child: Oid,
        child_label: Label,
        w: i64,
    ) {
        let Some(keys) = self.by_node.get(&parent) else {
            return;
        };
        let keys: Vec<(S, u32)> = keys.iter().copied().collect();
        for (src, s) in keys {
            let cnt = self.counts.get(&(src, parent, s)).copied().unwrap_or(0);
            if cnt == 0 {
                continue;
            }
            for s2 in bits(self.nfa.step_mask(1 << s, child_label)) {
                pending.add((src, child, s2), w.saturating_mul(cnt));
            }
        }
    }

    /// Drain `pending` to a fixpoint through the live edges of the
    /// post-batch `store`. Every `(src, node)` whose accepting support
    /// changed is added to `dirty`. Decrements `budget` per worklist
    /// pop and fails with [`Diverged`] at zero (counts are then
    /// partial — the circuit must be rebuilt).
    pub fn propagate(
        &mut self,
        store: &Store,
        mut pending: ZSet<(S, Oid, u32)>,
        budget: &mut u64,
        pops: &mut u64,
        dirty: &mut FastSet<(S, Oid)>,
    ) -> Result<(), Diverged> {
        while let Some(((src, node, s), delta)) = pending.pop() {
            if *budget == 0 {
                return Err(Diverged);
            }
            *budget -= 1;
            *pops += 1;
            self.bump(src, node, s, delta);
            if s == self.nfa.accept_state() {
                self.accept_support.add((src, node), delta);
                dirty.insert((src, node));
            }
            // A record-less node has no children; a record-less child
            // is a dangling entry, not a live edge.
            for &c in store.children(node) {
                let Some(l) = store.label(c) else { continue };
                for s2 in bits(self.nfa.step_mask(1 << s, l)) {
                    pending.add((src, c, s2), delta);
                }
            }
        }
        Ok(())
    }

    fn bump(&mut self, src: S, node: Oid, s: u32, delta: i64) {
        let key = (src, node, s);
        let entry = self.counts.entry(key).or_insert(0);
        *entry = entry.saturating_add(delta);
        if *entry == 0 {
            self.counts.remove(&key);
            if let Some(set) = self.by_node.get_mut(&node) {
                set.remove(&(src, s));
                if set.is_empty() {
                    self.by_node.remove(&node);
                }
            }
        } else {
            self.by_node.entry(node).or_default().insert((src, s));
        }
    }

    /// Accepting support of `(src, node)` — the operator's output
    /// weight before the distinct clamp.
    pub fn support(&self, src: S, node: Oid) -> i64 {
        self.accept_support.weight((src, node))
    }

    /// Number of live product states (arranged index size).
    pub fn state_len(&self) -> usize {
        self.counts.len()
    }
}

// ----------------------------------------------------------------------
// Backward flow (condition witnesses)
// ----------------------------------------------------------------------

/// Backward witness counting for an existential condition
/// `cond(X.expr) pred`: `D[(n, s)]` counts derivations of an
/// accepting, predicate-satisfying suffix from state `s` at `n`.
///
/// `D[n][accept] = [atom(n) satisfies pred]`, and every other state
/// sums over live child edges; deltas propagate **upward** through
/// the parent index with the automaton stepped backwards. The start-state
/// row is the witness Z-set: `witness(n) > 0` iff some instance of
/// `expr` from `n` ends in a satisfying atom.
#[derive(Clone, Debug)]
pub struct BackwardFlow {
    nfa: Nfa,
    pred: Pred,
    counts: FastMap<(Oid, u32), i64>,
    by_node: FastMap<Oid, FastSet<u32>>,
    start_support: ZSet<Oid>,
}

impl BackwardFlow {
    /// A witness flow for `expr` filtered by `pred`, with no state.
    pub fn new(expr: &PathExpr, pred: Pred) -> Self {
        BackwardFlow {
            nfa: expr.nfa(),
            pred,
            counts: FastMap::default(),
            by_node: FastMap::default(),
            start_support: ZSet::new(),
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
        &mut self,
        pending: &mut ZSet<(Oid, u32)>,
        parent: Oid,
        child: Oid,
        child_label: Label,
        w: i64,
    ) {
        let Some(states) = self.by_node.get(&child) else {
            return;
        };
        let states: Vec<u32> = states.iter().copied().collect();
        for s2 in states {
            let cnt = self.counts.get(&(child, s2)).copied().unwrap_or(0);
            if cnt == 0 {
                continue;
            }
            for s0 in bits(self.nfa.step_back_mask(1 << s2, child_label)) {
                pending.add((parent, s0), w.saturating_mul(cnt));
            }
        }
    }

    /// Drain `pending` upward to a fixpoint through the live edges of
    /// the post-batch `store`: its parent index, or one scan of the
    /// store for this call when it keeps none. Objects whose
    /// start-state witness support changed are added to `dirty`.
    pub fn propagate(
        &mut self,
        store: &Store,
        mut pending: ZSet<(Oid, u32)>,
        budget: &mut u64,
        pops: &mut u64,
        dirty: &mut FastSet<Oid>,
    ) -> Result<(), Diverged> {
        let scan = (!pending.is_empty() && !store.has_parent_index()).then(|| parent_scan(store));
        while let Some(((node, s), delta)) = pending.pop() {
            if *budget == 0 {
                return Err(Diverged);
            }
            *budget -= 1;
            *pops += 1;
            self.bump(node, s, delta);
            if self.nfa.start_mask() >> s & 1 != 0 {
                self.start_support.add(node, delta);
                dirty.insert(node);
            }
            // A removed node that a parent still names is the child of
            // a dangling entry, not of a live edge: it stops here.
            let Some(l) = store.label(node) else { continue };
            let inv = self.nfa.step_back_mask(1 << s, l);
            if inv != 0 {
                for_each_parent(store, scan.as_ref(), node, |p| {
                    for s0 in bits(inv) {
                        pending.add((p, s0), delta);
                    }
                });
            }
        }
        Ok(())
    }

    fn bump(&mut self, node: Oid, s: u32, delta: i64) {
        let key = (node, s);
        let entry = self.counts.entry(key).or_insert(0);
        *entry = entry.saturating_add(delta);
        if *entry == 0 {
            self.counts.remove(&key);
            if let Some(set) = self.by_node.get_mut(&node) {
                set.remove(&s);
                if set.is_empty() {
                    self.by_node.remove(&node);
                }
            }
        } else {
            self.by_node.entry(node).or_default().insert(s);
        }
    }

    /// Witness support of `node` (positive iff a satisfying instance
    /// of the condition expression exists below it).
    pub fn witness(&self, node: Oid) -> i64 {
        self.start_support.weight(node)
    }

    /// Number of live product states.
    pub fn state_len(&self) -> usize {
        self.counts.len()
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
        s.create(Object::set("P1", "professor", &[oid("A1")])).unwrap();
        s.create(Object::set("ROOT", "root", &[oid("P1")])).unwrap();
        s
    }

    fn run_forward(expr: &str, store: &Store, root: &str) -> ForwardFlow<()> {
        let e = PathExpr::parse(expr).unwrap();
        let mut f = ForwardFlow::new(&e);
        let mut pending = ZSet::new();
        f.seed(&mut pending, (), oid(root), 1);
        let (mut b, mut p) = (1_000_000, 0);
        let mut dirty = FastSet::default();
        f.propagate(store, pending, &mut b, &mut p, &mut dirty).unwrap();
        f
    }

    #[test]
    fn forward_counts_reach_accepting_members() {
        let s = store3();
        let f = run_forward("professor", &s, "ROOT");
        assert_eq!(f.support((), oid("P1")), 1);
        assert_eq!(f.support((), oid("A1")), 0);
        assert_eq!(f.support((), oid("ROOT")), 0);
    }

    #[test]
    fn wildcard_accepts_root_and_descendants() {
        let s = store3();
        let f = run_forward("*", &s, "ROOT");
        assert_eq!(f.support((), oid("ROOT")), 1);
        assert_eq!(f.support((), oid("P1")), 1);
        assert_eq!(f.support((), oid("A1")), 1);
    }

    #[test]
    fn backward_witness_finds_satisfying_atom() {
        let s = store3();
        let e = PathExpr::parse("age").unwrap();
        let mut w = BackwardFlow::new(&e, Pred::new(CmpOp::Gt, 40i64));
        let mut pending = ZSet::new();
        for o in s.iter() {
            w.base_event(&mut pending, o.oid, o.label, None, o.atom_value());
        }
        let (mut b, mut p) = (1_000_000, 0);
        let mut dirty = FastSet::default();
        w.propagate(&s, pending, &mut b, &mut p, &mut dirty).unwrap();
        assert!(w.witness(oid("P1")) > 0, "P1 has an age witness > 40");
        assert_eq!(w.witness(oid("ROOT")), 0);
    }

    #[test]
    fn budget_exhaustion_reports_divergence() {
        // A self-cycle under a `*` expression has infinitely many
        // paths; the budget must trip instead of spinning.
        let mut s = Store::new();
        s.create(Object::set("ROOT", "root", &[])).unwrap();
        s.create(Object::set("C", "c", &[])).unwrap();
        s.insert_edge(oid("ROOT"), oid("C")).unwrap();
        s.insert_edge(oid("C"), oid("C")).unwrap();
        let e = PathExpr::parse("*").unwrap();
        let mut f: ForwardFlow<()> = ForwardFlow::new(&e);
        let mut pending = ZSet::new();
        f.seed(&mut pending, (), oid("ROOT"), 1);
        let (mut b, mut p) = (10_000, 0);
        let mut dirty = FastSet::default();
        assert_eq!(
            f.propagate(&s, pending, &mut b, &mut p, &mut dirty),
            Err(Diverged)
        );
    }
}
