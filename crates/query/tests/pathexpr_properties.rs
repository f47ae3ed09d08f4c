//! Property tests for the path-expression machinery: NFA matching
//! against a brute-force oracle, containment consistency,
//! forward/backward traversal agreement, and the product walk — pruned
//! at states that step nowhere, run in a reused scratch, stopped at a
//! first witness — against a naive product BFS.

use gsdb::{Label, Object, Oid, Path, Store};
use gsview_query::pathexpr::{reach_expr, Elem, Nfa, PathExpr, WalkScratch};
use gsview_query::plan::reach_expr_backward;
use gsview_query::{CmpOp, Pred};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet, VecDeque};

const ALPHABET: &[&str] = &["a", "b", "c"];

fn elem_strategy() -> impl Strategy<Value = Elem> {
    prop_oneof![
        (0..ALPHABET.len()).prop_map(|i| Elem::Label(Label::new(ALPHABET[i]))),
        Just(Elem::AnyOne),
        Just(Elem::AnySeq),
        prop::collection::vec(0..ALPHABET.len(), 1..3).prop_map(|is| {
            let mut ls: Vec<Label> = is.iter().map(|&i| Label::new(ALPHABET[i])).collect();
            ls.dedup();
            Elem::Alt(ls)
        }),
    ]
}

fn expr_strategy() -> impl Strategy<Value = PathExpr> {
    prop::collection::vec(elem_strategy(), 0..5).prop_map(PathExpr)
}

fn word_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..ALPHABET.len(), 0..6)
}

fn to_path(word: &[usize]) -> Path {
    Path(word.iter().map(|&i| Label::new(ALPHABET[i])).collect())
}

/// Brute-force oracle: does `word` instantiate `expr`? Recursive
/// descent with backtracking over `*`.
fn oracle(elems: &[Elem], word: &[Label]) -> bool {
    match elems.split_first() {
        None => word.is_empty(),
        Some((e, rest)) => match e {
            Elem::Label(l) => word
                .split_first()
                .map(|(w, ws)| w == l && oracle(rest, ws))
                .unwrap_or(false),
            Elem::AnyOne => word
                .split_first()
                .map(|(_, ws)| oracle(rest, ws))
                .unwrap_or(false),
            Elem::Alt(ls) => word
                .split_first()
                .map(|(w, ws)| ls.contains(w) && oracle(rest, ws))
                .unwrap_or(false),
            Elem::AnySeq => (0..=word.len()).any(|k| oracle(rest, &word[k..])),
        },
    }
}

/// A graph of up to five set objects `pg0..`, labelled from the
/// alphabet, each with at most two out-edges to any object — itself
/// and `pg0`, the entry, included, so cycles of every kind occur.
fn graph_strategy() -> impl Strategy<Value = Vec<(usize, Vec<usize>)>> {
    prop::collection::vec(
        (0..ALPHABET.len(), prop::collection::vec(0..5usize, 0..3)),
        1..6,
    )
}

fn node(i: usize) -> Oid {
    Oid::new(&format!("pg{i}"))
}

fn build_graph(nodes: &[(usize, Vec<usize>)]) -> Store {
    let mut s = Store::new();
    for (i, (label, _)) in nodes.iter().enumerate() {
        s.create(Object::empty_set(node(i).name(), ALPHABET[*label])).unwrap();
    }
    for (i, (_, out)) in nodes.iter().enumerate() {
        for &to in out {
            // A repeated edge is refused; the set has it already.
            let _ = s.insert_edge(node(i), node(to % nodes.len()));
        }
    }
    s
}

/// `pg0.expr` by enumeration: every walk from `pg0` of at most `bound`
/// edges, its label word put to the oracle.
fn reach_by_enumeration(store: &Store, expr: &PathExpr, bound: usize) -> Vec<Oid> {
    fn walk(
        store: &Store,
        elems: &[Elem],
        at: Oid,
        word: &mut Vec<Label>,
        left: usize,
        out: &mut BTreeSet<Oid>,
    ) {
        if oracle(elems, word) {
            out.insert(at);
        }
        if left == 0 {
            return;
        }
        for &c in store.children(at) {
            word.push(store.label(c).unwrap());
            walk(store, elems, c, word, left - 1, out);
            word.pop();
        }
    }
    let mut out = BTreeSet::new();
    walk(store, &expr.0, node(0), &mut Vec::new(), bound, &mut out);
    let mut out: Vec<Oid> = out.into_iter().collect();
    out.sort_by_key(|o| o.name());
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The product walk, forward and backward, selects what path
    /// enumeration under the oracle selects — a reference that shares
    /// nothing with the automaton's builder.
    #[test]
    fn walks_agree_with_enumeration(expr in expr_strategy(), nodes in graph_strategy()) {
        let store = build_graph(&nodes);
        // A shortest instance spends one edge per single-label element
        // and a simple path, under |V| edges, per run of `*`.
        let runs = expr.0.iter().enumerate()
            .filter(|&(i, e)| *e == Elem::AnySeq && (i == 0 || expr.0[i - 1] != Elem::AnySeq))
            .count();
        let want = reach_by_enumeration(&store, &expr, expr.len() + runs * (nodes.len() - 1));
        let (forward, _) = reach_expr(&store, node(0), &expr, &|_| true);
        prop_assert_eq!(&forward, &want, "forward, {} over {:?}", expr, nodes);
        // The backward walk starts from the objects carrying the tail's
        // labels, so it needs a tail that names labels.
        let labels = match expr.0.last() {
            Some(Elem::Label(l)) => vec![*l],
            Some(Elem::Alt(ls)) => ls.clone(),
            _ => Vec::new(),
        };
        if !labels.is_empty() {
            let (backward, _) = reach_expr_backward(&store, node(0), &expr, &labels, &|_| true);
            prop_assert_eq!(&backward, &want, "backward, {} over {:?}", expr, nodes);
        }
    }

    /// NFA matching agrees with the brute-force oracle on every
    /// expression × word pair.
    #[test]
    fn nfa_matches_oracle(expr in expr_strategy(), word in word_strategy()) {
        let p = to_path(&word);
        prop_assert_eq!(expr.matches(&p), oracle(&expr.0, p.labels()));
    }

    /// Containment is sound: if `a ⊆ b` then every word matched by `a`
    /// is matched by `b` (checked over all short words).
    #[test]
    fn containment_is_sound(a in expr_strategy(), b in expr_strategy()) {
        if PathExpr::contains(&b, &a) {
            // Enumerate all words up to length 4 over the alphabet.
            let mut words: Vec<Vec<usize>> = vec![vec![]];
            for len in 1..=4usize {
                let mut next = Vec::new();
                for w in words.iter().filter(|w| w.len() == len - 1) {
                    for i in 0..ALPHABET.len() {
                        let mut v = w.clone();
                        v.push(i);
                        next.push(v);
                    }
                }
                words.extend(next);
            }
            for w in words {
                let p = to_path(&w);
                if a.matches(&p) {
                    prop_assert!(
                        b.matches(&p),
                        "containment claimed but {} ∈ L({}) ∉ L({})",
                        p, a, b
                    );
                }
            }
        }
    }

    /// Containment is reflexive and `*`-topped.
    #[test]
    fn containment_reflexive_and_star_top(a in expr_strategy()) {
        prop_assert!(PathExpr::contains(&a, &a));
        let star = PathExpr::parse("*").unwrap();
        prop_assert!(PathExpr::contains(&star, &a));
    }

    /// The reversed expression matches exactly the reversed words.
    #[test]
    fn reversal_matches_reversed_words(expr in expr_strategy(), word in word_strategy()) {
        let p = to_path(&word);
        let mut rev_word = word.clone();
        rev_word.reverse();
        let rp = to_path(&rev_word);
        let rev_expr = gsview_query::plan::reversed(&expr);
        prop_assert_eq!(expr.matches(&p), rev_expr.matches(&rp));
    }

    /// Constant expressions match exactly their own path.
    #[test]
    fn constant_exprs_match_only_themselves(word in word_strategy(), other in word_strategy()) {
        let p = to_path(&word);
        let expr = PathExpr::from_path(&p);
        prop_assert!(expr.matches(&p));
        let q = to_path(&other);
        prop_assert_eq!(expr.matches(&q), p == q);
    }
}

// ----------------------------------------------------------------------
// The product walk against a naive product BFS
// ----------------------------------------------------------------------

/// How the generated graph's edges are kept: only to later nodes with
/// no parent yet (a tree), only to later nodes (a DAG), or any (cycles).
const SHAPES: usize = 3;

/// One node: its label, an atom value (`Some`) or a set (`None`), and
/// child indices. An index past the last node names an object that is
/// not in the store — a dangling child.
type Node = (usize, Option<i64>, Vec<usize>);

fn shaped_graph_strategy() -> impl Strategy<Value = (usize, Vec<Node>)> {
    let value = prop_oneof![(0..4i64).prop_map(Some), Just(None), Just(None)];
    let node = (0..ALPHABET.len(), value, prop::collection::vec(0..10usize, 0..4));
    (0..SHAPES, prop::collection::vec(node, 1..9))
}

/// Node `i` of a shaped graph: in the store below `nodes.len()`,
/// dangling from there on.
fn shaped(i: usize) -> Oid {
    Oid::new(&format!("pw{i}"))
}

fn build_shaped(store: &mut Store, shape: usize, nodes: &[Node]) {
    let n = nodes.len();
    let mut has_parent = vec![false; n];
    for (i, (label, value, out)) in nodes.iter().enumerate() {
        let obj = match value {
            Some(v) => Object::atom(shaped(i).name(), ALPHABET[*label], *v),
            None => {
                let mut kids = Vec::new();
                for &j in out {
                    let keep = j >= n
                        || match shape {
                            0 => j > i && !std::mem::replace(&mut has_parent[j], true),
                            1 => j > i,
                            _ => true,
                        };
                    if keep && !kids.contains(&shaped(j)) {
                        kids.push(shaped(j));
                    }
                }
                Object::set(shaped(i).name(), ALPHABET[*label], &kids)
            }
        };
        store.create(obj).unwrap();
    }
}

/// One walk to run: expression, start node (dangling past the graph),
/// start state set (0: the start mask, 1: every state, 2: `bits` cut to
/// the automaton's states), `bits`, the nodes a `WITHIN`-style filter
/// excludes (bit i excludes node i), and a predicate.
type Walk = (PathExpr, usize, usize, u64, u16, (usize, i64));

fn walk_strategy() -> impl Strategy<Value = Walk> {
    (expr_strategy(), 0..10usize, 0..3usize, any::<u64>(), any::<u16>(), (0..4usize, 0..4i64))
}

struct Run {
    nfa: Nfa,
    start: Oid,
    mask: u64,
    excluded: Vec<Oid>,
    pred: Pred,
}

impl Run {
    fn new(w: &Walk) -> Run {
        let (expr, start, how, bits, excluded, (op, rhs)) = w;
        let nfa = expr.nfa();
        let mask = match how {
            0 => nfa.start_mask(),
            1 => nfa.all_states(),
            _ => bits & nfa.all_states(),
        };
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Gt][*op];
        Run {
            nfa,
            start: shaped(*start),
            mask,
            excluded: (0..10).filter(|i| excluded >> i & 1 == 1).map(shaped).collect(),
            pred: Pred::new(op, *rhs),
        }
    }

    fn admits(&self, o: Oid) -> bool {
        !self.excluded.contains(&o)
    }
}

/// The walk with nothing saved: a fresh visited set, every popped
/// product state's children read whatever its state set, results
/// deduplicated through a set. Returns the reached objects, sorted by
/// name, and the product states visited.
fn naive_walk(store: &Store, r: &Run) -> (Vec<Oid>, usize) {
    if !r.admits(r.start) {
        return (Vec::new(), 0);
    }
    let mut seen: HashSet<(Oid, u64)> = HashSet::new();
    let mut queue = VecDeque::new();
    let mut reached: BTreeSet<Oid> = BTreeSet::new();
    let mut visited = 0;
    seen.insert((r.start, r.mask));
    queue.push_back((r.start, r.mask));
    while let Some((o, mask)) = queue.pop_front() {
        visited += 1;
        if r.nfa.is_accepting(mask) {
            reached.insert(o);
        }
        for &c in store.children(o) {
            if !r.admits(c) {
                continue;
            }
            let Some(l) = store.label(c) else { continue };
            let next = r.nfa.step_mask(mask, l);
            if next != 0 && seen.insert((c, next)) {
                queue.push_back((c, next));
            }
        }
    }
    let mut out: Vec<Oid> = reached.into_iter().collect();
    out.sort_by_key(|o| o.name());
    (out, visited)
}

/// Run every walk in `scratch`, in order, each in full and to its
/// first witness, against the naive walk.
fn check_walks(store: &Store, scratch: &mut WalkScratch, walks: &[Walk]) -> Result<(), String> {
    for w in walks {
        let r = Run::new(w);
        let filter = |o: Oid| r.admits(o);
        let (want, want_visited) = naive_walk(store, &r);
        let (got, stats) = scratch.reach(store, r.start, &r.nfa, r.mask, &filter);
        if got != want || stats.states_visited != want_visited {
            return Err(format!(
                "reach {} from {} in {:#b}: got {got:?} ({} states), want {want:?} ({want_visited})",
                w.0, r.start, r.mask, stats.states_visited
            ));
        }
        let hit = |o: Oid| r.pred.holds_at(store, o);
        let (any, astats) = scratch.any(store, r.start, &r.nfa, r.mask, &filter, hit);
        if any != r.pred.eval_any(store, &want) || astats.states_visited > want_visited {
            return Err(format!(
                "any {} {} from {} in {:#b}: got {any} ({} states), full reach {want:?}",
                w.0, r.pred, r.start, r.mask, astats.states_visited
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// On trees, DAGs and cyclic graphs with dangling children, the
    /// pruned walk in one reused scratch reaches what the naive walk
    /// reaches, visiting the same product states, and stopping at the
    /// first witness decides what the full reach and `Pred::eval_any`
    /// decide.
    #[test]
    fn the_pruned_walk_equals_the_naive_walk(
        (shape, nodes) in shaped_graph_strategy(),
        walks in prop::collection::vec(walk_strategy(), 1..8),
    ) {
        let mut store = Store::new();
        build_shaped(&mut store, shape, &nodes);
        let mut scratch = WalkScratch::default();
        let checked = check_walks(&store, &mut scratch, &walks);
        prop_assert!(checked.is_ok(), "{} over shape {shape}, {:?}", checked.unwrap_err(), nodes);
    }

    /// A scratch that first served a `*` walk over a whole store — its
    /// tables grown to hundreds or thousands of entries — still answers
    /// the small walks after it right.
    #[test]
    fn a_scratch_after_a_whole_store_walk_answers_small_walks_right(
        (shape, nodes) in shaped_graph_strategy(),
        walks in prop::collection::vec(walk_strategy(), 1..8),
        big in 300..3000usize,
    ) {
        let mut store = Store::new();
        build_shaped(&mut store, shape, &nodes);
        // A tree of `big` sets, eight children each, under pb0.
        let bulk = |i: usize| Oid::new(&format!("pb{i}"));
        for i in 0..big {
            let kids: Vec<Oid> = (8 * i + 1..(8 * i + 9).min(big)).map(bulk).collect();
            store.create(Object::set(bulk(i).name(), ALPHABET[i % ALPHABET.len()], &kids)).unwrap();
        }
        let star = PathExpr::parse("*").unwrap().nfa();
        let mut scratch = WalkScratch::default();
        let (all, stats) = scratch.reach(&store, bulk(0), &star, star.start_mask(), &|_| true);
        prop_assert_eq!((all.len(), stats.states_visited), (big, big));
        let checked = check_walks(&store, &mut scratch, &walks);
        prop_assert!(checked.is_ok(), "{} over shape {shape}, {:?}", checked.unwrap_err(), nodes);
    }
}
