//! A flush walks each (view root, anchor) pair once and shares the
//! answer between its views (`ParallelMaintainer`). The walks are the
//! ones each view would have made, on the same store, so every view
//! must land exactly where batched Algorithm 1 leaves it on its own —
//! `Maintainer::apply_consolidated` over the view's partitioned delta,
//! against a plain `LocalBase` — at 1, 2, 4 and 8 threads, on bases
//! shaped as trees, DAGs and cyclic graphs. On a tree that is also what
//! sequential Algorithm 1 and recomputation give (the multi-view
//! oracle, `assert_parallel_equivalent`). Off a tree neither holds in
//! general: batched Algorithm 1 reads one root path per location test,
//! and the partition's screens can drop a delta a view needed on a
//! cyclic base (ROADMAP item 5), so there the lone view on the same
//! delta is the reference.
//!
//! The graphs follow `upward_search_matches_brute_force` in
//! `gsdb/tests/store_properties.rs`: set objects over two labels, each
//! reachable from the root by a spanning tree, plus extra edges —
//! shared children on the DAG shape, and back edges, edges into the
//! root and self-loops on the cyclic one.

use gsdb::{DeltaBatch, Object, Oid, Store, Update};
use gsview_core::recompute::recompute;
use gsview_core::{LocalBase, Maintainer, MaterializedView, ParallelMaintainer, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_testkit::oracle::assert_parallel_equivalent;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Tree,
    Dag,
    Cyclic,
}

/// Set `i` (`w0` is the root), or age atom `i - sets`.
fn node(i: usize) -> Oid {
    Oid::new(&format!("w{i}"))
}

/// May the shape take the edge `p → c` beside `edges`? On a tree the
/// child must be parentless and the parent outside its subtree; on a
/// DAG the edge must run from a lower node to a higher one.
fn allowed(shape: Shape, edges: &[(usize, usize)], p: usize, c: usize) -> bool {
    if edges.contains(&(p, c)) {
        return false;
    }
    match shape {
        Shape::Cyclic => true,
        Shape::Dag => p < c,
        Shape::Tree => {
            if c == 0 || edges.iter().any(|&(_, x)| x == c) {
                return false;
            }
            let mut below = vec![c];
            let mut i = 0;
            while i < below.len() {
                let at = below[i];
                below.extend(edges.iter().filter(|&&(x, _)| x == at).map(|&(_, y)| y));
                i += 1;
            }
            !below.contains(&p)
        }
    }
}

/// The initial store, and the update run `raw` realizes on it within
/// the shape.
fn realize(
    shape: Shape,
    labels: &[u8],
    ages: &[(usize, i64)],
    extra: &[(usize, usize)],
    raw: &[(u8, usize, usize, i64)],
) -> (Store, Vec<Update>) {
    let sets = labels.len();
    let all = sets + ages.len();
    let mut store = Store::new();
    for (i, l) in labels.iter().enumerate() {
        let label = if i == 0 { "r" } else { ["a", "b"][*l as usize] };
        store.create(Object::empty_set(node(i), label)).unwrap();
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let link = |store: &mut Store, edges: &mut Vec<(usize, usize)>, p: usize, c: usize| {
        if allowed(shape, edges, p, c) {
            store.insert_edge(node(p), node(c)).unwrap();
            edges.push((p, c));
        }
    };
    for (c, &l) in labels.iter().enumerate().skip(1) {
        link(&mut store, &mut edges, (l as usize * 7 + c) % c, c);
    }
    for (j, &(host, age)) in ages.iter().enumerate() {
        store
            .create(Object::atom(node(sets + j), "age", age))
            .unwrap();
        link(&mut store, &mut edges, host % sets, sets + j);
    }
    if shape != Shape::Tree {
        for &(p, c) in extra {
            link(&mut store, &mut edges, p % sets, c % all);
        }
    }

    let mut fresh = 0;
    let mut updates = Vec::new();
    for &(kind, x, y, v) in raw {
        match kind % 4 {
            0 => {
                let (p, c) = (x % sets, y % all);
                if allowed(shape, &edges, p, c) {
                    edges.push((p, c));
                    updates.push(Update::insert(node(p), node(c)));
                }
            }
            1 if !edges.is_empty() => {
                let (p, c) = edges.remove(x % edges.len());
                updates.push(Update::delete(node(p), node(c)));
            }
            2 if !ages.is_empty() => updates.push(Update::modify(node(sets + x % ages.len()), v)),
            3 => {
                // A created child: a fresh atom and its one edge.
                let atom = Oid::new(&format!("wf{fresh}"));
                fresh += 1;
                updates.push(Update::create(Object::atom(atom, "age", v)));
                updates.push(Update::insert(node(x % sets), atom));
            }
            _ => {}
        }
    }
    (store, updates)
}

/// Six views under the root — one walk per anchor serves all of them —
/// and one under `w1`.
fn defs() -> Vec<SimpleViewDef> {
    let le = |v: i64| Pred::new(CmpOp::Le, v);
    let gt = |v: i64| Pred::new(CmpOp::Gt, v);
    vec![
        SimpleViewDef::new("WA", "w0", "a").with_cond("age", le(40)),
        SimpleViewDef::new("WAB", "w0", "a.b").with_cond("age", gt(20)),
        SimpleViewDef::new("WB", "w0", "b"),
        SimpleViewDef::new("WAA", "w0", "a.a").with_cond("b.age", gt(50)),
        SimpleViewDef::new("WBAB", "w0", "b.a.b"),
        SimpleViewDef::new("WBX", "w0", "b").with_cond("age", gt(60)),
        SimpleViewDef::new("W1B", "w1", "b").with_cond("age", le(60)),
    ]
}

/// Members and delegate copies of a view.
fn contents(mv: &MaterializedView) -> Vec<(Oid, Option<Object>)> {
    mv.members_base()
        .into_iter()
        .map(|y| (y, mv.delegate_of(y).and_then(|d| mv.delegate(d)).cloned()))
        .collect()
}

fn shape() -> impl Strategy<Value = Shape> {
    (0..3u8).prop_map(|s| [Shape::Tree, Shape::Dag, Shape::Cyclic][s as usize])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn shared_walks_equal_per_view_batched_maintenance(
        shape in shape(),
        labels in prop::collection::vec(0..2u8, 2..10),
        ages in prop::collection::vec((0..16usize, 0..80i64), 1..8),
        extra in prop::collection::vec((0..16usize, 0..24usize), 0..12),
        raw in prop::collection::vec((0..4u8, 0..64usize, 0..64usize, 0..80i64), 1..60),
    ) {
        let (initial, updates) = realize(shape, &labels, &ages, &extra, &raw);
        let mut store = initial.clone();
        let mut batch = DeltaBatch::new();
        for u in &updates {
            batch.push(store.apply(u.clone()).unwrap());
        }
        let defs = defs();
        let start: Vec<MaterializedView> = defs
            .iter()
            .map(|d| recompute(d, &mut LocalBase::new(&initial)).unwrap())
            .collect();
        let pm = ParallelMaintainer::new(defs.clone());
        let (deltas, _) = pm.partition_for(&store, &batch.consolidate(), &start);
        let want: Vec<_> = defs
            .iter()
            .zip(&start)
            .zip(&deltas)
            .map(|((d, mv), delta)| {
                let mut mv = mv.clone();
                Maintainer::new(d.clone())
                    .apply_consolidated(&mut mv, &mut LocalBase::new(&store), delta)
                    .unwrap();
                contents(&mv)
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let mut views = start.clone();
            pm.apply_batch(&mut views, &store, &batch, threads).unwrap();
            for ((d, mv), want) in defs.iter().zip(&views).zip(&want) {
                prop_assert_eq!(&contents(mv), want, "{} on a {:?} at {} threads", d.view, shape, threads);
            }
            if shape == Shape::Tree {
                assert_parallel_equivalent(&defs, &initial, &updates, threads);
            }
        }
    }
}
