//! Ergonomic construction of object trees.
//!
//! The paper's examples describe databases as indented object listings;
//! [`Node`] lets tests and examples write the same shape in Rust:
//!
//! ```
//! use gsdb::builder::{set, atom};
//! use gsdb::Store;
//!
//! let mut store = Store::new();
//! set("P1", "professor")
//!     .child(atom("N1", "name", "John"))
//!     .child(atom("A1", "age", 45i64))
//!     .build(&mut store)
//!     .unwrap();
//! assert_eq!(store.len(), 3);
//! ```

use crate::shard::ShardedStore;
use crate::{Atom, Object, Oid, Result, Store, Update};
use std::collections::HashSet;

/// A tree (or DAG) of objects under construction.
#[derive(Clone, Debug)]
pub struct Node {
    object: Object,
    children: Vec<Node>,
    /// References to objects assumed to exist already (lets builders
    /// express DAG edges and cross-database pointers).
    refs: Vec<Oid>,
}

/// Start a set node.
pub fn set(oid: &str, label: &str) -> Node {
    Node {
        object: Object::empty_set(oid, label),
        children: Vec::new(),
        refs: Vec::new(),
    }
}

/// An atomic leaf node.
pub fn atom(oid: &str, label: &str, value: impl Into<Atom>) -> Node {
    Node {
        object: Object::atom(oid, label, value),
        children: Vec::new(),
        refs: Vec::new(),
    }
}

impl Node {
    /// Add a child subtree.
    pub fn child(mut self, node: Node) -> Node {
        self.children.push(node);
        self
    }

    /// Add an edge to an already-existing object by OID.
    pub fn reference(mut self, oid: impl Into<Oid>) -> Node {
        self.refs.push(oid.into());
        self
    }

    /// The OID this node will create.
    pub fn oid(&self) -> Oid {
        self.object.oid
    }

    /// Materialize the subtree into `store`; returns the root OID.
    ///
    /// Children are created before parents so that edge insertion
    /// always references existing objects. Nodes whose OID already
    /// exists in the store are treated as references (enabling shared
    /// subtrees), provided the existing object has the same label.
    pub fn build(self, store: &mut Store) -> Result<Oid> {
        let root = self.object.oid;
        self.build_inner(store)?;
        Ok(root)
    }

    /// Materialize the subtree through a [`ShardedStore`] as **one
    /// atomic commit**: either the whole tree lands (publishing a
    /// single epoch) or none of it does. Like [`build`](Node::build),
    /// nodes whose OID already exists — in the latest published
    /// snapshot or earlier in this same tree — are treated as
    /// references. The containment check reads the snapshot, so a
    /// racing writer creating the same OID makes this commit fail
    /// rather than silently share; retry on conflict.
    pub fn commit_into(self, pipeline: &ShardedStore) -> Result<Oid> {
        let snapshot = pipeline.snapshot();
        let root = self.object.oid;
        let mut seen = HashSet::new();
        let mut updates = Vec::new();
        self.collect(&snapshot, &mut seen, &mut updates);
        pipeline.commit(&updates).into_result()?;
        Ok(root)
    }

    /// Flatten into the update sequence `build` would apply: each new
    /// object's `Create` precedes every edge into it.
    fn collect(self, snapshot: &Store, seen: &mut HashSet<Oid>, out: &mut Vec<Update>) {
        let oid = self.object.oid;
        if !snapshot.contains(oid) && seen.insert(oid) {
            out.push(Update::Create { object: self.object });
        }
        for child in self.children {
            let c = child.object.oid;
            child.collect(snapshot, seen, out);
            out.push(Update::Insert { parent: oid, child: c });
        }
        for r in self.refs {
            out.push(Update::Insert {
                parent: oid,
                child: r,
            });
        }
    }

    fn build_inner(self, store: &mut Store) -> Result<Oid> {
        let oid = self.object.oid;
        if !store.contains(oid) {
            store.create(self.object)?;
        }
        for child in self.children {
            let c = child.build_inner(store)?;
            store.insert_edge(oid, c)?;
        }
        for r in self.refs {
            store.insert_edge(oid, r)?;
        }
        Ok(oid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    #[test]
    fn builds_nested_tree() {
        let mut s = Store::new();
        let root = set("R", "person")
            .child(
                set("p1", "professor")
                    .child(atom("n1", "name", "John"))
                    .child(atom("a1", "age", 45i64)),
            )
            .child(set("p2", "professor").child(atom("n2", "name", "Sally")))
            .build(&mut s)
            .unwrap();
        assert_eq!(root, oid("R"));
        assert_eq!(s.len(), 6);
        assert_eq!(s.get(oid("R")).unwrap().children().len(), 2);
        assert_eq!(s.get(oid("p1")).unwrap().children().len(), 2);
    }

    #[test]
    fn shared_subtree_by_existing_oid() {
        let mut s = Store::new();
        set("a", "left").child(atom("shared", "v", 1i64)).build(&mut s).unwrap();
        set("b", "right").reference("shared").build(&mut s).unwrap();
        assert_eq!(s.parents(oid("shared")).len(), 2);
    }

    #[test]
    fn commit_into_lands_the_tree_in_one_epoch() {
        let pipeline = ShardedStore::new(Store::with_config(
            crate::StoreConfig::default().with_shards(4),
        ));
        let root = set("R", "person")
            .child(
                set("p1", "professor")
                    .child(atom("n1", "name", "John"))
                    .child(atom("a1", "age", 45i64)),
            )
            .child(set("p2", "professor").reference("a1"))
            .commit_into(&pipeline)
            .unwrap();
        assert_eq!(root, oid("R"));
        assert_eq!(pipeline.epoch(), 1, "whole tree = one commit");
        let snap = pipeline.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.parents(oid("a1")).len(), 2);
        snap.check_invariants().unwrap();

        // A second tree referencing published objects is another
        // single commit; existing OIDs are treated as references.
        set("R2", "person")
            .child(atom("a1", "age", 45i64))
            .commit_into(&pipeline)
            .unwrap();
        assert_eq!(pipeline.epoch(), 2);
        assert_eq!(pipeline.snapshot().len(), 6, "a1 was shared, not recreated");
    }

    #[test]
    fn duplicate_node_oids_merge() {
        let mut s = Store::new();
        set("r1", "x").child(atom("leaf", "v", 1i64)).build(&mut s).unwrap();
        // Same leaf appears in a second build: becomes a DAG edge.
        set("r2", "x").child(atom("leaf", "v", 1i64)).build(&mut s).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.parents(oid("leaf")).len(), 2);
    }
}
