//! Graph-level analysis of a store: reachability, shape classification
//! (tree / DAG / cyclic), depth and fan-out statistics.
//!
//! Algorithm 1 (paper §4.2) assumes tree-structured bases; the §6
//! extensions relax this to DAGs. [`classify`] lets callers check which
//! regime a database is in before picking a maintenance strategy.

use crate::{Oid, Store};
use std::collections::{HashMap, HashSet, VecDeque};

/// Shape of the graph reachable from a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every reachable object has exactly one reachable parent (and the
    /// root has none): the §4.2 assumption.
    Tree,
    /// Acyclic, but some object is shared: the §6 DAG extension.
    Dag,
    /// Contains a directed cycle.
    Cyclic,
}

/// All objects reachable from `root` (including `root`), in BFS order.
pub fn reachable(store: &Store, root: Oid) -> Vec<Oid> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut q = VecDeque::new();
    if store.contains(root) {
        seen.insert(root);
        q.push_back(root);
    }
    while let Some(o) = q.pop_front() {
        out.push(o);
        for &c in store.children(o) {
            if store.contains(c) && seen.insert(c) {
                q.push_back(c);
            }
        }
    }
    out
}

/// Classify the subgraph reachable from `root`.
pub fn classify(store: &Store, root: Oid) -> Shape {
    // Count in-degrees within the reachable subgraph and detect cycles
    // via an iterative DFS with colors.
    let nodes: HashSet<Oid> = reachable(store, root).into_iter().collect();
    let mut indeg: HashMap<Oid, usize> = HashMap::new();
    for &n in &nodes {
        for &c in store.children(n) {
            if nodes.contains(&c) {
                *indeg.entry(c).or_insert(0) += 1;
            }
        }
    }
    if has_cycle(store, root, &nodes) {
        return Shape::Cyclic;
    }
    let shared = nodes
        .iter()
        .any(|&n| n != root && indeg.get(&n).copied().unwrap_or(0) > 1);
    if shared {
        Shape::Dag
    } else {
        Shape::Tree
    }
}

fn has_cycle(store: &Store, root: Oid, nodes: &HashSet<Oid>) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: HashMap<Oid, Color> = nodes.iter().map(|&n| (n, Color::White)).collect();
    // Iterative DFS: stack of (node, next child index).
    let mut stack: Vec<(Oid, usize)> = Vec::new();
    if nodes.contains(&root) {
        stack.push((root, 0));
        color.insert(root, Color::Gray);
    }
    while let Some(&mut (n, ref mut i)) = stack.last_mut() {
        let children = store.children(n);
        if *i < children.len() {
            let c = children[*i];
            *i += 1;
            if !nodes.contains(&c) {
                continue;
            }
            match color.get(&c).copied().unwrap_or(Color::White) {
                Color::Gray => return true,
                Color::White => {
                    color.insert(c, Color::Gray);
                    stack.push((c, 0));
                }
                Color::Black => {}
            }
        } else {
            color.insert(n, Color::Black);
            stack.pop();
        }
    }
    false
}

/// Depth of the subtree/DAG reachable from `root` (longest path, in
/// edges). Cyclic graphs return `None`.
pub fn depth(store: &Store, root: Oid) -> Option<usize> {
    let nodes: HashSet<Oid> = reachable(store, root).into_iter().collect();
    if has_cycle(store, root, &nodes) {
        return None;
    }
    let mut memo: HashMap<Oid, usize> = HashMap::new();
    // Iterative post-order via explicit stack.
    let mut stack = vec![(root, false)];
    while let Some((n, processed)) = stack.pop() {
        if processed {
            let d = store
                .children(n)
                .iter()
                .filter(|c| nodes.contains(c))
                .map(|c| memo.get(c).copied().unwrap_or(0) + 1)
                .max()
                .unwrap_or(0);
            memo.insert(n, d);
        } else if !memo.contains_key(&n) {
            stack.push((n, true));
            for &c in store.children(n) {
                if nodes.contains(&c) && !memo.contains_key(&c) {
                    stack.push((c, false));
                }
            }
        }
    }
    memo.get(&root).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Object;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn chain(n: usize) -> Store {
        let mut s = Store::new();
        s.create(Object::atom(format!("c{n}").as_str(), "leaf", 0i64))
            .unwrap();
        for i in (0..n).rev() {
            let child = Oid::new(&format!("c{}", i + 1));
            s.create(Object::set(format!("c{i}").as_str(), "link", &[child]))
                .unwrap();
        }
        s
    }

    #[test]
    fn reachable_bfs() {
        let s = chain(3);
        let r = reachable(&s, oid("c0"));
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], oid("c0"));
    }

    #[test]
    fn classify_tree() {
        let s = chain(5);
        assert_eq!(classify(&s, oid("c0")), Shape::Tree);
    }

    #[test]
    fn classify_dag() {
        let mut s = Store::new();
        s.create_all([
            Object::atom("leaf", "x", 1i64),
            Object::set("l", "left", &[oid("leaf")]),
            Object::set("r", "right", &[oid("leaf")]),
            Object::set("top", "root", &[oid("l"), oid("r")]),
        ])
        .unwrap();
        assert_eq!(classify(&s, oid("top")), Shape::Dag);
    }

    #[test]
    fn classify_cyclic() {
        let mut s = Store::new();
        s.create_all([Object::empty_set("a", "a"), Object::empty_set("b", "b")])
            .unwrap();
        s.insert_edge(oid("a"), oid("b")).unwrap();
        s.insert_edge(oid("b"), oid("a")).unwrap();
        assert_eq!(classify(&s, oid("a")), Shape::Cyclic);
        assert_eq!(depth(&s, oid("a")), None);
    }

    #[test]
    fn self_loop_is_cyclic() {
        let mut s = Store::new();
        s.create(Object::empty_set("a", "a")).unwrap();
        s.insert_edge(oid("a"), oid("a")).unwrap();
        assert_eq!(classify(&s, oid("a")), Shape::Cyclic);
    }

    #[test]
    fn depth_of_chain() {
        let s = chain(7);
        assert_eq!(depth(&s, oid("c0")), Some(7));
        assert_eq!(depth(&s, oid("c7")), Some(0));
    }

    #[test]
    fn dangling_children_are_ignored() {
        let mut s = Store::new();
        s.create(Object::set("p", "parent", &[oid("ghost-child")]))
            .unwrap();
        assert_eq!(reachable(&s, oid("p")), vec![oid("p")]);
        assert_eq!(classify(&s, oid("p")), Shape::Tree);
    }
}
