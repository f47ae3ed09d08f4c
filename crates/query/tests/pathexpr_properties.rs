//! Property tests for the path-expression machinery: NFA matching
//! against a brute-force oracle, containment consistency,
//! forward/backward traversal agreement, the product walk — pruned
//! at states that step nowhere, run in a reused scratch, stopped at a
//! first witness — against a naive product BFS, the constant-path
//! walk (`gsdb::path::walk`, behind queries and `gsdb::path::{reach,
//! eval}`) against the product walk, and every walk, which takes each
//! child's slot from its parent's hint, against the same walk probing
//! `slot_of` for every child.

use gsdb::{path, Label, Object, Oid, Path, Store};
use gsview_query::pathexpr::{reach_expr, Elem, Nfa, PathExpr, TraversalStats, WalkScratch};
use gsview_query::plan::reach_expr_backward;
use gsview_query::{evaluate, CmpOp, Entry, Pred, Query};
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
        s.create(Object::empty_set(node(i).name(), ALPHABET[*label]))
            .unwrap();
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
    let node = (
        0..ALPHABET.len(),
        value,
        prop::collection::vec(0..10usize, 0..4),
    );
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
    (
        expr_strategy(),
        0..10usize,
        0..3usize,
        any::<u64>(),
        any::<u16>(),
        (0..4usize, 0..4i64),
    )
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
            excluded: (0..10)
                .filter(|i| excluded >> i & 1 == 1)
                .map(shaped)
                .collect(),
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
        let hit = |_, slot| r.pred.holds_at(store, slot);
        let (any, astats) = scratch.any(store, r.start, None, &r.nfa, r.mask, &filter, hit);
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

// ----------------------------------------------------------------------
// The constant-path walk against the product walk
// ----------------------------------------------------------------------

/// The twin of a constant expression: every label spelled as a
/// one-label alternation `(a)`. Same language, same automaton tables,
/// but not a constant expression, so it walks the product.
fn twin(e: &PathExpr) -> PathExpr {
    PathExpr(
        e.0.iter()
            .map(|el| match el {
                Elem::Label(l) => Elem::Alt(vec![*l]),
                other => other.clone(),
            })
            .collect(),
    )
}

/// A constant expression of fewer than `max` labels.
fn constant_strategy(max: usize) -> impl Strategy<Value = PathExpr> {
    prop::collection::vec(0..ALPHABET.len(), 0..max).prop_map(|w| PathExpr::from_path(&to_path(&w)))
}

/// Shaped graphs dense enough for shared children to lie on a walked
/// path: two labels, up to five children each, few of them dangling.
fn dense_graph_strategy() -> impl Strategy<Value = (usize, Vec<Node>)> {
    let value = prop_oneof![(0..4i64).prop_map(Some), Just(None), Just(None), Just(None)];
    let node = (0..2usize, value, prop::collection::vec(0..10usize, 0..6));
    (0..SHAPES, prop::collection::vec(node, 6..10))
}

/// A constant path with objects on it: the labels of a walk from `n`
/// that takes child `k % children` at each step, or a drawn label
/// where the walk has nowhere to go. Reads before counting starts.
fn steered(store: &Store, n: Oid, steps: &[usize]) -> PathExpr {
    let mut at = n;
    let mut labels = Vec::new();
    for &k in steps {
        let kids = store.children(at);
        match kids
            .get(k % kids.len().max(1))
            .and_then(|&c| Some((c, store.label(c)?)))
        {
            Some((c, l)) => {
                labels.push(l);
                at = c;
            }
            None => labels.push(Label::new(ALPHABET[k % ALPHABET.len()])),
        }
    }
    PathExpr::from_path(&Path(labels))
}

/// `Some` of a drawn value half the time.
fn maybe<T: Strategy>(inner: T) -> impl Strategy<Value = Option<T::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

/// A database object over the shaped nodes whose bits are set, past
/// the graph ones included (dangling members).
fn shaped_db(store: &mut Store, name: &str, bits: u16) -> Oid {
    let members: Vec<Oid> = (0..10).filter(|i| bits >> i & 1 == 1).map(shaped).collect();
    store.create(Object::set(name, "db", &members)).unwrap();
    Oid::new(name)
}

/// `f` run on `store`, with the base accesses it cost.
fn counted<T>(store: &Store, f: impl FnOnce() -> T) -> (T, u64) {
    store.reset_accesses();
    let out = f();
    (out, store.accesses())
}

/// The objects the product walk reaches, in discovery order, that
/// `keep` admits as each is found, and the walk's accesses.
fn product_order(
    store: &Store,
    n: Oid,
    e: &PathExpr,
    keep: impl Fn(Oid) -> bool,
) -> (Vec<Oid>, u64) {
    let nfa = twin(e).nfa();
    counted(store, || {
        let mut out = Vec::new();
        WalkScratch::default().any(store, n, None, &nfa, nfa.start_mask(), &|_| true, |o, _| {
            if keep(o) {
                out.push(o);
            }
            false
        });
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A constant query answers what its `(a)`-spelled twin answers on
    /// the product walk — the same objects in the same order, the same
    /// `EvalStats` and the same base accesses — with and without
    /// `WITHIN` and `ANS INT`; and entered part-way along the chain, a
    /// walk in a reused scratch reaches and decides what the twin's
    /// does, at the same cost.
    #[test]
    fn the_constant_route_equals_the_product_walk(
        (shape, nodes) in dense_graph_strategy(),
        steps in prop::collection::vec(0..6usize, 0..4),
        cond in maybe((constant_strategy(3), (0..4usize, 0..4i64))),
        entry in 0..10usize,
        within in maybe(any::<u16>()),
        ans_int in maybe(any::<u16>()),
        part_way in prop::collection::vec((0..10usize, 0..5usize), 1..6),
    ) {
        let mut store = Store::new();
        build_shaped(&mut store, shape, &nodes);
        let within = within.map(|bits| shaped_db(&mut store, "pwdb_within", bits));
        let ans_int = ans_int.map(|bits| shaped_db(&mut store, "pwdb_ans", bits));
        let sel = steered(&store, shaped(entry), &steps);
        let full = steered(&store, shaped(entry), &[0, 1, 2, 3]);
        store.set_count_accesses(true);
        let query = |sel: PathExpr, cond_path: Option<PathExpr>| {
            let mut q = Query::select(Entry::Object(shaped(entry)), sel);
            if let (Some(path), Some((_, (op, rhs)))) = (cond_path, &cond) {
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Gt][*op];
                q = q.with_cond(path, Pred::new(op, *rhs));
            }
            q.within = within;
            q.ans_int = ans_int;
            q
        };
        let cond_path = cond.as_ref().map(|(p, _)| p.clone());
        let chain = query(sel.clone(), cond_path.clone());
        let product = query(twin(&sel), cond_path.as_ref().map(twin));
        let (got, got_cost) = counted(&store, || evaluate(&store, &chain));
        let (want, want_cost) = counted(&store, || evaluate(&store, &product));
        prop_assert_eq!(&got, &want, "{} over shape {}, {:?}", chain, shape, nodes);
        prop_assert_eq!(got_cost, want_cost, "accesses of {}", chain);

        let (chain_nfa, product_nfa) = (full.nfa(), twin(&full).nfa());
        let members = within.map(|db| store.children(db).to_vec());
        let admits = |o: Oid| members.as_ref().is_none_or(|m| m.contains(&o));
        let pred = Pred::new(CmpOp::Gt, 1i64);
        let mut scratch = WalkScratch::default();
        for &(start, state) in &part_way {
            let (n, mask) = (shaped(start), 1u64 << state.min(full.len()));
            let walks = |scratch: &mut WalkScratch, nfa: &Nfa| {
                let reach = counted(&store, || scratch.reach(&store, n, nfa, mask, &admits));
                let mut order = Vec::new();
                let any = counted(&store, || {
                    scratch.any(&store, n, None, nfa, mask, &admits, |o, slot| {
                        order.push(o);
                        pred.holds_at(&store, slot)
                    })
                });
                (reach, any, order)
            };
            let got = walks(&mut scratch, &chain_nfa);
            let want = walks(&mut WalkScratch::default(), &product_nfa);
            prop_assert_eq!(&got, &want, "from {} in state {} over shape {}, {:?}", n, state, shape, nodes);
        }
    }

    /// `gsdb::path::{reach, eval}` reach what the product walk reaches,
    /// in its discovery order and at its cost, from objects in the
    /// store and from a missing one, along the empty path too.
    #[test]
    fn gsdb_paths_equal_the_product_walk(
        (shape, nodes) in dense_graph_strategy(),
        walks in prop::collection::vec((prop::collection::vec(0..6usize, 0..4), 0..10usize, 0..4i64), 1..8),
    ) {
        let mut store = Store::new();
        build_shaped(&mut store, shape, &nodes);
        let walks: Vec<(PathExpr, usize, i64)> =
            walks.iter().map(|(steps, start, rhs)| (steered(&store, shaped(*start), steps), *start, *rhs)).collect();
        store.set_count_accesses(true);
        for (e, start, rhs) in &walks {
            let (n, p) = (shaped(*start), e.as_path().unwrap());
            let got = counted(&store, || path::reach(&store, n, &p));
            let want = product_order(&store, n, e, |_| true);
            prop_assert_eq!(&got, &want, "reach {} from {} over shape {}, {:?}", p, n, shape, nodes);
            let cond = |a: &gsdb::Atom| Pred::new(CmpOp::Lt, *rhs).eval(a);
            let got = counted(&store, || path::eval(&store, n, &p, &cond));
            let want = product_order(&store, n, e, |o| store.atom(o).is_some_and(cond));
            prop_assert_eq!(&got, &want, "eval {} from {} over shape {}, {:?}", p, n, shape, nodes);
        }
    }

}

// ----------------------------------------------------------------------
// Hinted walks against walks that probe every child
// ----------------------------------------------------------------------

/// Walks reach each child's record through the slot hint its parent's
/// set keeps. Stale hints are made here: a record removed (a dangling
/// child) and its slot taken by a filler that carries a label a walk
/// may follow, or a record removed and created again at another slot
/// (or the same one, when no filler came between).
fn stale_hints(store: &mut Store, churn: &[(u8, usize)]) {
    for (k, &(kind, i)) in churn.iter().enumerate() {
        let o = shaped(i);
        let Some(record) = store.get(o).cloned() else {
            continue;
        };
        store.apply(gsdb::Update::Remove { oid: o }).unwrap();
        if kind != 2 {
            let filler = Oid::new(&format!("pwfill{k}"));
            let label = ALPHABET[k % ALPHABET.len()];
            store
                .create(Object::atom(filler.name(), label, k as i64))
                .unwrap();
        }
        if kind != 1 {
            store.create(record).unwrap();
        }
    }
}

/// True iff some label steps the automaton out of `mask`: every
/// transition is on an alphabet label or on any label, so the alphabet
/// and one label outside it cover them all.
fn steps_somewhere(nfa: &Nfa, mask: u64) -> bool {
    (ALPHABET.iter().chain(&["pw_elsewhere"])).any(|l| nfa.step_mask(mask, Label::new(l)) != 0)
}

/// [`WalkScratch::any`]'s product walk with every child's slot probed
/// through `Store::slot_of`, its hint never read: the reference the
/// hinted walks must equal in answers, order, states and accesses.
fn probed_any(
    store: &Store,
    n: Oid,
    nfa: &Nfa,
    start: u64,
    filter: &dyn Fn(Oid) -> bool,
    mut hit: impl FnMut(Oid) -> bool,
) -> (bool, usize) {
    if !filter(n) {
        return (false, 0);
    }
    let Some(nslot) = store.slot_of(n) else {
        if steps_somewhere(nfa, start) {
            let _ = store.children(n);
        }
        return (nfa.is_accepting(start) && hit(n), 1);
    };
    let mut seen: HashSet<(u32, u64)> = HashSet::from([(nslot, start)]);
    let mut queue = VecDeque::from([(nslot, start)]);
    let mut visited = 0;
    while let Some((slot, mask)) = queue.pop_front() {
        visited += 1;
        if nfa.is_accepting(mask) && hit(store.oid_at(slot).unwrap()) {
            return (true, visited);
        }
        if !steps_somewhere(nfa, mask) {
            continue;
        }
        for (c, _) in store.children_at(slot) {
            if !filter(c) {
                continue;
            }
            let Some(cslot) = store.slot_of(c) else {
                continue;
            };
            let Some(l) = store.label_at(cslot) else {
                continue;
            };
            let next = nfa.step_mask(mask, l);
            if next != 0 && seen.insert((cslot, next)) {
                queue.push_back((cslot, next));
            }
        }
    }
    (false, visited)
}

/// [`probed_any`] run to the end: every object reached, in order.
fn probed_order(
    store: &Store,
    n: Oid,
    nfa: &Nfa,
    start: u64,
    filter: &dyn Fn(Oid) -> bool,
) -> (Vec<Oid>, usize) {
    let mut out = Vec::new();
    let (_, visited) = probed_any(store, n, nfa, start, filter, |o| {
        out.push(o);
        false
    });
    (out, visited)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// On trees, DAGs and cyclic graphs with dangling children, with
    /// records removed and created again at another slot and freed
    /// slots taken by other records, every walk that reads its
    /// children's slots from their hints — `gsdb::path::{reach, eval}`,
    /// `WalkScratch::reach` and `WalkScratch::any` on the constant
    /// route and on the product — reaches and decides what the same
    /// walk probing every child reaches and decides, in the same
    /// order, visiting the same states at the same base accesses.
    #[test]
    fn hinted_walks_equal_walks_that_probe_every_child(
        (shape, nodes) in dense_graph_strategy(),
        churn in prop::collection::vec((0..3u8, 0..10usize), 0..6),
        walks in prop::collection::vec(walk_strategy(), 1..6),
        constants in prop::collection::vec((prop::collection::vec(0..6usize, 0..4), 0..10usize, 0..4i64), 1..4),
    ) {
        let mut store = Store::new();
        build_shaped(&mut store, shape, &nodes);
        let constants: Vec<(PathExpr, usize, i64)> = (constants.iter())
            .map(|(steps, start, rhs)| (steered(&store, shaped(*start), steps), *start, *rhs))
            .collect();
        stale_hints(&mut store, &churn);
        prop_assert_eq!(store.check_invariants(), Ok(()));
        store.set_count_accesses(true);
        let at = |what: &str| format!("{what} over shape {shape}, {nodes:?}, churn {churn:?}");
        let mut scratch = WalkScratch::default();
        for w in &walks {
            let r = Run::new(w);
            let filter = |o: Oid| r.admits(o);
            let got = counted(&store, || scratch.reach(&store, r.start, &r.nfa, r.mask, &filter));
            let ((mut reached, visited), cost) =
                counted(&store, || probed_order(&store, r.start, &r.nfa, r.mask, &filter));
            reached.sort_by_key(|o| o.name());
            reached.dedup();
            prop_assert_eq!(got, ((reached, TraversalStats { states_visited: visited }), cost), "{}", at(&w.0.to_string()));
            let mut order = Vec::new();
            let got = counted(&store, || {
                scratch.any(&store, r.start, None, &r.nfa, r.mask, &filter, |o, slot| {
                    order.push(o);
                    r.pred.holds_at(&store, slot)
                })
            });
            let mut want_order = Vec::new();
            let want = counted(&store, || {
                probed_any(&store, r.start, &r.nfa, r.mask, &filter, |o| {
                    want_order.push(o);
                    store.atom(o).is_some_and(|a| r.pred.eval(a))
                })
            });
            prop_assert_eq!((got.0 .0, got.0 .1.states_visited, got.1), (want.0 .0, want.0 .1, want.1), "{}", at(&w.0.to_string()));
            prop_assert_eq!(order, want_order);
        }
        for (e, start, rhs) in &constants {
            let (n, p, nfa) = (shaped(*start), e.as_path().unwrap(), e.nfa());
            let (want, want_cost) = counted(&store, || probed_order(&store, n, &nfa, nfa.start_mask(), &|_| true));
            let got = counted(&store, || path::reach(&store, n, &p));
            prop_assert_eq!(got, (want.0.clone(), want_cost), "{}", at(&format!("reach {p} from {n}")));
            let cond = |a: &gsdb::Atom| Pred::new(CmpOp::Lt, *rhs).eval(a);
            let got = counted(&store, || path::eval(&store, n, &p, &cond));
            let want = counted(&store, || {
                let mut out = Vec::new();
                probed_any(&store, n, &nfa, nfa.start_mask(), &|_| true, |o| {
                    if store.atom(o).is_some_and(cond) {
                        out.push(o);
                    }
                    false
                });
                out
            });
            prop_assert_eq!(got, want, "{}", at(&format!("eval {p} from {n}")));
            let pred = Pred::new(CmpOp::Gt, *rhs);
            let got = counted(&store, || {
                scratch.any(&store, n, store.slot_of(n), &nfa, nfa.start_mask(), &|_| true, |_, slot| pred.holds_at(&store, slot))
            });
            let want = counted(&store, || {
                probed_any(&store, n, &nfa, nfa.start_mask(), &|_| true, |o| store.atom(o).is_some_and(|a| pred.eval(a)))
            });
            prop_assert_eq!((got.0 .0, got.0 .1.states_visited, got.1), (want.0 .0, want.0 .1, want.1), "{}", at(&format!("any {p} from {n}")));
        }
    }
}
