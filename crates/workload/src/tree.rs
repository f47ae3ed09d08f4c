//! Uniform-tree and chain generators, used for depth/fan-out sweeps
//! (experiments E1 and E2).

use gsdb::{Object, Oid, Path, Result, Store, StoreConfig};

/// Parameters for a uniform labeled tree: every internal level `d` has
/// label `L{d}`, every internal node has `fanout` children, and leaves
/// are integer atoms labeled `leaf` with value = leaf index.
#[derive(Clone, Copy, Debug)]
pub struct TreeSpec {
    /// Number of internal levels below the root (leaves sit at level
    /// `depth + 1`).
    pub depth: usize,
    /// Children per internal node.
    pub fanout: usize,
}

/// Handle to a generated uniform tree.
#[derive(Clone, Debug)]
pub struct TreeDb {
    /// The root OID (`TR`).
    pub root: Oid,
    /// Leaf atom OIDs, in creation order.
    pub leaves: Vec<Oid>,
    /// The label path from root to the leaves: `L0.L1...L{d-1}.leaf`.
    pub leaf_path: Path,
}

/// Generate a uniform tree.
pub fn generate(spec: TreeSpec, cfg: StoreConfig) -> Result<(Store, TreeDb)> {
    let mut store = Store::with_config(cfg);
    let mut leaves = Vec::new();
    let mut counter = 0usize;
    let root = build_level(&mut store, spec, 0, &mut counter, &mut leaves)?;
    // Internal nodes occupy levels 1..depth-1 (labels L0..L{depth-2});
    // leaves sit at level `depth` with label `leaf`.
    let mut labels = String::new();
    for d in 0..spec.depth.saturating_sub(1) {
        if d > 0 {
            labels.push('.');
        }
        labels.push_str(&format!("L{d}"));
    }
    if spec.depth > 1 {
        labels.push('.');
    }
    if spec.depth > 0 {
        labels.push_str("leaf");
    }
    Ok((
        store,
        TreeDb {
            root,
            leaves,
            leaf_path: Path::parse(&labels),
        },
    ))
}

fn build_level(
    store: &mut Store,
    spec: TreeSpec,
    level: usize,
    counter: &mut usize,
    leaves: &mut Vec<Oid>,
) -> Result<Oid> {
    let id = *counter;
    *counter += 1;
    if level == spec.depth {
        // Leaf atom.
        let oid = Oid::new(&format!("leaf{id}"));
        store.create(Object::atom(oid.name(), "leaf", leaves.len() as i64))?;
        leaves.push(oid);
        return Ok(oid);
    }
    let mut children = Vec::with_capacity(spec.fanout);
    for _ in 0..spec.fanout {
        children.push(build_level(store, spec, level + 1, counter, leaves)?);
    }
    let (oid, label) = if level == 0 {
        (Oid::new("TR"), "tree".to_owned())
    } else {
        (Oid::new(&format!("n{id}")), format!("L{}", level - 1))
    };
    store.create(Object {
        oid,
        label: gsdb::Label::new(&label),
        value: gsdb::Value::set_of(children),
    })?;
    Ok(oid)
}

/// A chain of `len` nodes under a root, each level with label `c`,
/// ending in one atom labeled `v` — the worst case for `ancestor()`
/// without an inverse index (experiment E2). Returns
/// `(store, root, atom_oid, path_to_atom)`.
pub fn chain(len: usize, cfg: StoreConfig) -> Result<(Store, Oid, Oid, Path)> {
    let mut store = Store::with_config(cfg);
    let atom = Oid::new("chain.v");
    store.create(Object::atom(atom.name(), "v", 0i64))?;
    let mut child = atom;
    for i in (0..len).rev() {
        let oid = Oid::new(&format!("chain{i}"));
        store.create(Object::set(oid.name(), "c", &[child]))?;
        child = oid;
    }
    let root = Oid::new("chainroot");
    store.create(Object::set(root.name(), "chain", &[child]))?;
    let mut labels: Vec<String> = std::iter::repeat_with(|| "c".to_owned())
        .take(len)
        .collect();
    labels.push("v".to_owned());
    let path = Path::parse(&labels.join("."));
    Ok((store, root, atom, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{graph, path};

    #[test]
    fn uniform_tree_shape() {
        let (store, db) = generate(
            TreeSpec {
                depth: 3,
                fanout: 2,
            },
            StoreConfig::default(),
        )
        .unwrap();
        // 2^3 = 8 leaves; internal nodes 1 + 2 + 4 = 7.
        assert_eq!(db.leaves.len(), 8);
        assert_eq!(store.len(), 15);
        assert_eq!(graph::classify(&store, db.root), graph::Shape::Tree);
        assert_eq!(graph::depth(&store, db.root), Some(3));
        let reached = path::reach(&store, db.root, &db.leaf_path);
        assert_eq!(reached.len(), 8);
    }

    #[test]
    fn depth_zero_tree_is_root_with_leaves() {
        let (store, db) = generate(
            TreeSpec {
                depth: 0,
                fanout: 4,
            },
            StoreConfig::default(),
        )
        .unwrap();
        // depth 0: root IS a leaf? No: root at level 0 == spec.depth →
        // the generator produces a single leaf as root.
        assert_eq!(store.len(), 1);
        assert_eq!(db.leaves.len(), 1);
        assert_eq!(db.root, db.leaves[0]);
    }

    #[test]
    fn chain_shape_and_path() {
        let (store, root, atom, p) = chain(10, StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 12);
        assert_eq!(p.len(), 11);
        assert_eq!(path::reach(&store, root, &p), vec![atom]);
        assert_eq!(path::path_between(&store, root, atom), Some(p));
    }
}
