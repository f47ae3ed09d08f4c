//! Physical planning for selection traversal.
//!
//! The evaluator's default strategy walks *forward* from the entry
//! point (a product BFS of graph × NFA). When the selection expression
//! ends in a constant label, a *backward* strategy is often far
//! cheaper: start from the (few) objects carrying the final label
//! ([`Store::with_label`], derived from the store's pages on the first
//! planned query after a create or remove) and verify reachability
//! from the entry by walking **up** the parent index against the
//! reversed expression. `ROOT.*.age` over a million-object store
//! then touches only the age atoms and their ancestor chains, instead
//! of the whole database.
//!
//! The paper motivates exactly this trade-off in §4.4 for maintenance
//! (`ancestor()` with an inverse index vs a traversal from ROOT);
//! this module applies it to query evaluation, and experiment E9
//! measures the ablation.

use crate::ast::Query;
use crate::eval::{evaluate_with, Answer, EvalError};
use crate::pathexpr::{Elem, PathExpr, TraversalStats, WalkScratch};
use gsdb::{Label, Oid, Store};
use std::fmt;

/// Backward is picked when the final label holds fewer candidates than
/// this share of the store's objects (E9 has the sweep behind it).
const SELECTIVITY_CUTOFF: f64 = 0.25;

/// The chosen physical strategy for the selection traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelStrategy {
    /// Product BFS from the entry (always applicable).
    Forward,
    /// The final label's objects as candidates + upward verification.
    Backward {
        /// The final label(s) whose objects are the candidates.
        labels: Vec<Label>,
    },
}

impl fmt::Display for SelStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelStrategy::Forward => write!(f, "forward"),
            SelStrategy::Backward { labels } => {
                write!(f, "backward(")?;
                for (i, l) in labels.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Choose a strategy for evaluating `expr` on `store`, with a one-line
/// human-readable reason for the decision (used by
/// [`explain`](crate::explain::explain)).
///
/// Backward is picked when (a) the expression is non-empty and its
/// final element is a constant label or alternation, and (b) the
/// candidate set, from [`Store::with_label`], is smaller than
/// [`SELECTIVITY_CUTOFF`] × |store|. Every store answers `with_label`
/// and keeps the parent index the upward verification walks.
pub(crate) fn choose_explained(store: &Store, expr: &PathExpr) -> (SelStrategy, String) {
    let labels: Vec<Label> = match expr.0.last() {
        Some(Elem::Label(l)) => vec![*l],
        Some(Elem::Alt(ls)) => ls.clone(),
        None => return (SelStrategy::Forward, "empty selection expression".into()),
        _ => {
            return (
                SelStrategy::Forward,
                "tail element is not a constant label".into(),
            )
        }
    };
    let candidates: usize = labels.iter().map(|&l| store.with_label(l).len()).sum();
    let objects = store.len();
    if (candidates as f64) < SELECTIVITY_CUTOFF * objects as f64 {
        (
            SelStrategy::Backward { labels },
            format!(
                "label index: {candidates} candidates < {SELECTIVITY_CUTOFF} x {objects} objects"
            ),
        )
    } else {
        (
            SelStrategy::Forward,
            format!("unselective tail: {candidates} candidates >= {SELECTIVITY_CUTOFF} x {objects} objects"),
        )
    }
}

/// The maintenance backend the planner selects for a materialized
/// view: the paper's Algorithm 1 family (local repair against the
/// base), or the delta-circuit engine (per-view arranged operator
/// state stepped in O(|Δ|) per batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintBackend {
    /// Localized repair (Algorithm 1 and its batched/guarded variants).
    Algorithm1,
    /// Compiled delta circuit over Z-set deltas with arranged state.
    Circuit,
}

impl fmt::Display for MaintBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintBackend::Algorithm1 => write!(f, "algorithm1"),
            MaintBackend::Circuit => write!(f, "circuit"),
        }
    }
}

/// Choose a maintenance backend for a view shape, with a one-line
/// reason (rendered by [`explain`](crate::explain::explain) and the
/// maintainer layer's `StrategyReason`-style reporting).
///
/// The heuristic mirrors where each backend's cost model wins:
///
/// * **aggregates** — Algorithm 1 re-aggregates affected members from
///   the base per batch; the circuit keeps per-member arranged flows
///   and pays only for touched product states;
/// * **multi-branch unions** — the circuit shares one arrangement
///   across branches, Algorithm 1 runs one repair pass per branch;
/// * **non-constant expressions** (wildcards, alternations with
///   closure) — circuits take constant paths only (under a `*`, a
///   cycle in the base gives a derivation count infinitely many
///   solutions), so these route to Algorithm 1, which locates each
///   delta by automaton state set and repairs locally;
/// * **constant single paths** — Algorithm 1's repair is already
///   O(local) and carries no operator state, so it stays the default.
pub fn choose_backend(
    sel_expr: &PathExpr,
    branches: usize,
    aggregated: bool,
) -> (MaintBackend, String) {
    if aggregated {
        return (
            MaintBackend::Circuit,
            "aggregate view: per-member delta flows beat re-aggregation".into(),
        );
    }
    if branches > 1 {
        return (
            MaintBackend::Circuit,
            format!("multi-path union: one arrangement shared by {branches} branches"),
        );
    }
    if sel_expr.as_path().is_none() {
        return (
            MaintBackend::Algorithm1,
            "wildcard selection: circuits take constant paths only".into(),
        );
    }
    (
        MaintBackend::Algorithm1,
        "constant single-path selection: Algorithm 1 repairs locally".into(),
    )
}

/// Reverse a path expression: since our expressions are concatenations
/// of self-symmetric elements, `L(rev(e))` is the set of reversed
/// words of `L(e)`.
pub fn reversed(expr: &PathExpr) -> PathExpr {
    let mut v = expr.0.clone();
    v.reverse();
    PathExpr(v)
}

/// Backward realization of `entry.expr`: candidates from the label
/// index, verified by an upward product BFS against the reversed
/// expression. Produces exactly the same set as
/// [`reach_expr`](crate::pathexpr::reach_expr) (asserted by tests and
/// experiment E9).
pub fn reach_expr_backward(
    store: &Store,
    entry: Oid,
    expr: &PathExpr,
    labels: &[Label],
    filter: &dyn Fn(Oid) -> bool,
) -> (Vec<Oid>, TraversalStats) {
    backward_in(
        &mut WalkScratch::default(),
        store,
        entry,
        expr,
        labels,
        filter,
    )
}

/// [`reach_expr_backward`], its per-candidate walks in `scratch`.
pub(crate) fn backward_in(
    scratch: &mut WalkScratch,
    store: &Store,
    entry: Oid,
    expr: &PathExpr,
    labels: &[Label],
    filter: &dyn Fn(Oid) -> bool,
) -> (Vec<Oid>, TraversalStats) {
    let nfa = reversed(expr).nfa();
    let start = nfa.start_mask();
    let mut stats = TraversalStats::default();
    let mut out: Vec<Oid> = Vec::new();

    // ε instance: the entry itself is in entry.expr when the automaton
    // accepts the empty word (e.g. a bare `*`).
    if nfa.is_accepting(start) && filter(entry) && store.contains(entry) {
        out.push(entry);
    }

    let mut candidates: Vec<Oid> = Vec::new();
    for &l in labels {
        candidates.extend(store.with_label(l).iter());
    }
    candidates.sort_by_key(|o| o.name());
    candidates.dedup();

    for cand in candidates {
        if !filter(cand) {
            continue;
        }
        if cand == entry && out.contains(&cand) {
            continue; // already admitted via the ε instance
        }
        let Some(cslot) = store.slot_of(cand) else {
            continue;
        };
        // Upward product BFS: consume label(cur), climb to parents.
        scratch.reset();
        let WalkScratch { seen, queue, .. } = &mut *scratch;
        seen.insert((cslot, start));
        queue.push_back((cslot, start));
        let mut matched = false;
        'bfs: while let Some((slot, states)) = queue.pop_front() {
            stats.states_visited += 1;
            let Some(l) = store.label_at(slot) else {
                continue;
            };
            let next = nfa.step_mask(states, l);
            if next == 0 {
                continue;
            }
            let Some(o) = store.oid_at(slot) else {
                continue;
            };
            for p in store.parents(o).iter() {
                if !filter(p) {
                    continue;
                }
                if p == entry && nfa.is_accepting(next) {
                    matched = true;
                    break 'bfs;
                }
                let Some(pslot) = store.slot_of(p) else {
                    continue;
                };
                if seen.insert((pslot, next)) {
                    queue.push_back((pslot, next));
                }
            }
        }
        if matched {
            out.push(cand);
        }
    }
    out.sort_by_key(|o| o.name());
    out.dedup();
    (out, stats)
}

/// Evaluate a query, letting the planner pick how the selection's
/// candidates are produced (everything else is
/// [`evaluate`](crate::eval::evaluate); answers are identical).
/// Returns the answer plus the chosen strategy.
pub fn evaluate_planned(store: &Store, query: &Query) -> Result<(Answer, SelStrategy), EvalError> {
    let (answer, strategy) = evaluate_with(store, query, |e| choose_explained(store, e).0)?;
    gsview_obs::event!(
        "query.plan",
        "strategy" = strategy.to_string(),
        "answers" = answer.oids.len(),
        "sel_states" = answer.stats.sel_states_visited,
        "candidates_tested" = answer.stats.candidates_tested,
        "cond_states" = answer.stats.cond_states_visited
    );
    Ok((answer, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_query;
    use gsdb::samples;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    fn strategy(store: &Store, expr: &str) -> SelStrategy {
        choose_explained(store, &PathExpr::parse(expr).unwrap()).0
    }

    #[test]
    fn chooser_picks_backward_for_selective_tails() {
        let s = person_store();
        // One major atom.
        assert!(matches!(
            strategy(&s, "*.major"),
            SelStrategy::Backward { .. }
        ));
        // Wildcard tail → forward.
        assert_eq!(strategy(&s, "professor.*"), SelStrategy::Forward);
        // Unselective tail (names and ages are half the store) → forward.
        assert_eq!(strategy(&s, "*.(name|age)"), SelStrategy::Forward);
    }

    #[test]
    fn backend_chooser_covers_all_shapes() {
        let constant = PathExpr::parse("professor.student").unwrap();
        let wildcard = PathExpr::parse("professor.*").unwrap();

        let (b, why) = choose_backend(&constant, 1, false);
        assert_eq!(b, MaintBackend::Algorithm1);
        assert!(why.contains("single-path"), "{why}");

        // Circuits take constant paths only, so the router must NOT
        // send a wildcard shape to the circuit.
        let (b, why) = choose_backend(&wildcard, 1, false);
        assert_eq!(b, MaintBackend::Algorithm1);
        assert!(why.contains("wildcard"), "{why}");
        assert!(why.contains("constant paths"), "{why}");

        let (b, why) = choose_backend(&constant, 3, false);
        assert_eq!(b, MaintBackend::Circuit);
        assert!(why.contains("3 branches"), "{why}");

        let (b, why) = choose_backend(&constant, 1, true);
        assert_eq!(b, MaintBackend::Circuit);
        assert!(why.contains("aggregate"), "{why}");

        assert_eq!(MaintBackend::Algorithm1.to_string(), "algorithm1");
        assert_eq!(MaintBackend::Circuit.to_string(), "circuit");
    }

    #[test]
    fn backward_agrees_with_forward_on_paper_queries() {
        let s = person_store();
        for src in [
            "SELECT ROOT.*.age X",
            "SELECT ROOT.professor.age X",
            "SELECT ROOT.*.name X",
            "SELECT ROOT.professor.student.major X",
            "SELECT ROOT.(professor|secretary).age X",
        ] {
            let q = parse_query(src).unwrap();
            let forward = evaluate(&s, &q).unwrap();
            let (planned, strategy) = evaluate_planned(&s, &q).unwrap();
            assert_eq!(planned.oids, forward.oids, "{src} via {strategy}");
            // And the backward walk itself, whatever the planner chose.
            let labels = match q.sel_path.0.last() {
                Some(Elem::Label(l)) => vec![*l],
                Some(Elem::Alt(ls)) => ls.clone(),
                _ => unreachable!("every query above ends in a label"),
            };
            let (backward, _) =
                reach_expr_backward(&s, oid("ROOT"), &q.sel_path, &labels, &|_| true);
            assert_eq!(backward, forward.oids, "{src}");
        }
    }

    #[test]
    fn backward_respects_within_filter() {
        let mut s = person_store();
        let members: Vec<Oid> = gsdb::database::members(&s, oid("PERSON"))
            .unwrap()
            .into_iter()
            .filter(|&o| o != oid("P1"))
            .collect();
        gsdb::database::database_of(&mut s, oid("D1"), &members).unwrap();
        let q = parse_query("SELECT ROOT.*.age X WITHIN D1").unwrap();
        let forward = evaluate(&s, &q).unwrap();
        let (planned, strategy) = evaluate_planned(&s, &q).unwrap();
        assert!(matches!(strategy, SelStrategy::Backward { .. }));
        assert_eq!(planned.oids, forward.oids);
        // A1 is under P1 only, which D1 excludes from traversal.
        assert!(!planned.oids.contains(&oid("A1")));
    }

    #[test]
    fn backward_visits_fewer_states_on_selective_queries() {
        // Build a wide store where only a few leaves carry the target
        // label.
        let mut s = Store::new();
        let mut kids = Vec::new();
        for i in 0..500 {
            let leaf = Oid::new(&format!("pl{i}"));
            let label = if i % 100 == 0 { "rare" } else { "common" };
            s.create(gsdb::Object::atom(leaf.name(), label, i as i64))
                .unwrap();
            let mid = Oid::new(&format!("pm{i}"));
            s.create(gsdb::Object::set(mid.name(), "mid", &[leaf]))
                .unwrap();
            kids.push(mid);
        }
        s.create(gsdb::Object::set("PROOT", "root", &kids)).unwrap();
        let q = parse_query("SELECT PROOT.*.rare X").unwrap();
        let forward = evaluate(&s, &q).unwrap();
        let (planned, strategy) = evaluate_planned(&s, &q).unwrap();
        assert!(matches!(strategy, SelStrategy::Backward { .. }));
        assert_eq!(planned.oids, forward.oids);
        assert_eq!(planned.oids.len(), 5);
        assert!(
            planned.stats.sel_states_visited * 10 < forward.stats.sel_states_visited,
            "backward {} should be far below forward {}",
            planned.stats.sel_states_visited,
            forward.stats.sel_states_visited
        );
    }

    #[test]
    fn entry_itself_matches_epsilon_instances() {
        let s = person_store();
        // `ROOT.*` includes ROOT; forward and backward agree (backward
        // here falls back to forward — wildcard tail — so force the
        // backward path with a label tail that equals the entry label).
        let q = parse_query("SELECT P1.*.professor X").unwrap();
        let forward = evaluate(&s, &q).unwrap();
        let (planned, strategy) = evaluate_planned(&s, &q).unwrap();
        assert!(matches!(strategy, SelStrategy::Backward { .. }));
        assert_eq!(planned.oids, forward.oids);
    }
}
