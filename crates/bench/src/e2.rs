//! E2 — the inverse (parent) index (paper §4.4).
//!
//! Claim: "if the base database has an 'inverse index' such that from
//! each node we can find out its parent, then evaluating
//! `ancestor(N, p)` is straightforward. If there does not exist such an
//! index, evaluating the same function may require a traversal from
//! ROOT to N."
//!
//! We sweep chain depth and bushy-tree size and measure the accesses
//! one `ancestor()` call costs with the index and without it. Every
//! store keeps the index, so "without" is the search realization
//! (`path::ancestors_all_by_search`, which reads only children and
//! labels) called on the same store.

use crate::table::{fnum, Table};
use gsdb::{path, Oid, Path, Store, StoreConfig};
use gsview_workload::tree;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E2Row {
    /// Shape description.
    pub shape: String,
    /// Objects in the database.
    pub objects: usize,
    /// Accesses with the parent index.
    pub with_index: u64,
    /// Accesses without it (search realization).
    pub without_index: u64,
}

/// Accesses of `ancestor(n, suffix)` on `store` with the index and
/// without it; both realizations must agree.
fn measure(store: &Store, n: Oid, suffix: &Path) -> (u64, u64) {
    store.reset_accesses();
    let a = path::ancestor(store, n, suffix);
    let with_index = store.accesses();
    store.reset_accesses();
    let b = path::ancestors_all_by_search(store, n, suffix)
        .into_iter()
        .next();
    let without_index = store.accesses();
    assert_eq!(a, b, "both realizations must agree");
    (with_index, without_index)
}

/// Measure `ancestor(leaf, suffix)` on a chain of the given length.
fn measure_chain(len: usize) -> E2Row {
    let (store, _, atom, _) = tree::chain(len, StoreConfig::default()).expect("chain");
    store.set_count_accesses(true);
    let (with_index, without_index) = measure(&store, atom, &Path::parse("c.v"));
    E2Row {
        shape: format!("chain depth {len}"),
        objects: len + 2,
        with_index,
        without_index,
    }
}

/// Measure on a bushy uniform tree (fanout 8), asking for the last
/// leaf's parent.
fn measure_bushy(depth: usize) -> E2Row {
    let spec = tree::TreeSpec { depth, fanout: 8 };
    let (store, db) = tree::generate(spec, StoreConfig::default()).expect("tree");
    store.set_count_accesses(true);
    let target = *db.leaves.last().expect("leaves");
    let (with_index, without_index) = measure(&store, target, &Path::parse("leaf"));
    E2Row {
        shape: format!("bushy depth {depth} fanout 8"),
        objects: store.len(),
        with_index,
        without_index,
    }
}

/// Chains first, then bushy trees.
fn sweep(chain_lens: &[usize], bushy_depths: &[usize]) -> Vec<E2Row> {
    let chains = chain_lens.iter().map(|&len| measure_chain(len));
    chains
        .chain(bushy_depths.iter().map(|&d| measure_bushy(d)))
        .collect()
}

/// The quick-mode sweep, for the count gate (`tests/paper_claims_smoke.rs`).
pub fn quick_facts() -> Vec<E2Row> {
    sweep(&[8, 64], &[3])
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick {
        quick_facts()
    } else {
        sweep(&[8, 64, 512, 4096], &[3, 4, 5])
    };
    let mut t = Table::new(
        "E2",
        "cost of ancestor(N, p) with vs without the inverse index",
        "the parent index makes ancestor O(|p|); without it the whole database is searched",
    )
    .headers(&["shape", "objects", "acc w/ index", "acc w/o index", "ratio"]);
    for r in rows {
        t.row(vec![
            r.shape.clone(),
            r.objects.to_string(),
            r.with_index.to_string(),
            r.without_index.to_string(),
            format!(
                "{}x",
                fnum(r.without_index as f64 / r.with_index.max(1) as f64)
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_cost_is_flat_while_search_grows() {
        let small = measure_chain(8);
        let large = measure_chain(256);
        assert_eq!(
            small.with_index, large.with_index,
            "indexed ancestor depends only on |p|"
        );
        assert!(large.without_index > small.without_index * 4);
        assert!(large.without_index > large.with_index * 10);
    }
}
