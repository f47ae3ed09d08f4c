//! Property tests for the path-expression machinery: NFA matching
//! against a brute-force oracle, containment consistency, and
//! forward/backward traversal agreement.

use gsdb::{Label, Object, Oid, Path, Store};
use gsview_query::pathexpr::{reach_expr, Elem, PathExpr};
use gsview_query::plan::reach_expr_backward;
use proptest::prelude::*;
use std::collections::BTreeSet;

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
        // The backward walk starts from the label index, so it needs a
        // tail that names labels.
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
