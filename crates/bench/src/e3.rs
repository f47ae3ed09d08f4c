//! E3 — native GSDB maintenance vs relational flattening (paper §4.4,
//! Example 8).
//!
//! Claim: flattening the tree into OID-LABEL / PARENT-CHILD /
//! OID-TYPE-VALUE and maintaining the view with counting is workable,
//! "but there are disadvantages": the view becomes a
//! `(k+j)`-way self-join and "the 'path semantics' are hidden in the
//! relations", which the paper believes makes maintenance "more
//! expensive to evaluate".
//!
//! Where this bites is **deep paths with repeated labels**: a
//! PARENT-CHILD delta could sit at *any* join position whose label
//! matches, so the counting algorithm probes every position — an
//! `O(depth)` climb per position, `O(depth²)` per edge delta — while
//! Algorithm 1 computes `path(ROOT, N1)` once and knows the position.
//! We sweep the path depth on a repeated-label chain forest; both
//! systems run the same stream and are checked for agreement.

use crate::table::{fnum, Table};
use gsdb::{Object, Oid, Path, Store};
use gsview_core::{recompute, LocalBase, Maintainer, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_testkit::relbaseline::{RelDb, RelView, RelViewDef};
use gsview_workload::rng::rng;
use rand::Rng;
use std::time::Instant;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E3Row {
    /// Chain depth (self-join positions = depth + 1).
    pub depth: usize,
    /// Updates in the stream.
    pub updates: usize,
    /// Native base accesses over the whole stream.
    pub native_total: u64,
    /// Relational row ops over the whole stream.
    pub rel_total: u64,
    /// View members at the end of the stream (equal on both systems).
    pub members: usize,
    /// Native µs per update.
    pub native_us: f64,
    /// Relational µs per update.
    pub rel_us: f64,
}

impl E3Row {
    /// Native accesses and relational row ops per update.
    fn per_update(&self) -> (f64, f64) {
        let n = self.updates as f64;
        (self.native_total as f64 / n, self.rel_total as f64 / n)
    }
}

/// Build a forest of `width` chains of `depth` levels, every level
/// labeled `c`, each ending in one atom `v`. Returns
/// `(store, edges, leaves)` where `edges` are all `(parent, child)`
/// chain edges and `leaves` the value atoms.
fn chain_forest(width: usize, depth: usize, seed: u64) -> (Store, Vec<(Oid, Oid)>, Vec<Oid>) {
    let mut store = Store::counting();
    let mut r = rng(seed);
    let mut heads = Vec::with_capacity(width);
    let mut edges = Vec::new();
    let mut leaves = Vec::new();
    for w in 0..width {
        let leaf = Oid::new(&format!("f{w}v"));
        store
            .create(Object::atom(leaf.name(), "v", r.gen_range(0..100i64)))
            .expect("fresh");
        leaves.push(leaf);
        let mut child = leaf;
        for d in (0..depth).rev() {
            let o = Oid::new(&format!("f{w}c{d}"));
            store
                .create(Object::set(o.name(), "c", &[child]))
                .expect("fresh");
            edges.push((o, child));
            child = o;
        }
        heads.push(child);
    }
    store
        .create(Object::set("FR", "forest", &heads))
        .expect("root");
    for &h in &heads {
        edges.push((Oid::new("FR"), h));
    }
    (store, edges, leaves)
}

fn defs(depth: usize) -> (SimpleViewDef, RelViewDef) {
    let sel = Path(vec![gsdb::Label::new("c"); depth]);
    let cond = Path::parse("v");
    let pred = Pred::new(CmpOp::Gt, 50i64);
    (
        SimpleViewDef::new("SEL", "FR", sel.to_string().as_str()).with_cond("v", pred.clone()),
        RelViewDef::new(Oid::new("FR"), &sel, &cond, Some(pred)),
    )
}

/// The update stream: leaf modifications plus mid-chain edge
/// detach/reattach pairs.
fn stream(edges: &[(Oid, Oid)], leaves: &[Oid], ops: usize, seed: u64) -> Vec<gsdb::Update> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        if i % 4 == 3 {
            let (p, c) = edges[r.gen_range(0..edges.len())];
            out.push(gsdb::Update::Delete {
                parent: p,
                child: c,
            });
            out.push(gsdb::Update::Insert {
                parent: p,
                child: c,
            });
        } else {
            let l = leaves[r.gen_range(0..leaves.len())];
            out.push(gsdb::Update::Modify {
                oid: l,
                new: gsdb::Atom::Int(r.gen_range(0..100)),
            });
        }
    }
    out
}

/// Run one depth configuration; asserts the two systems agree after
/// every update.
fn measure(depth: usize, width: usize, ops: usize, seed: u64) -> E3Row {
    let (sdef, rdef) = defs(depth);

    // --- native ---
    let (mut store, edges, leaves) = chain_forest(width, depth, seed);
    let updates = stream(&edges, &leaves, ops, seed + 1);
    let maintainer = Maintainer::new(sdef.clone());
    let mut mv = recompute::recompute(&sdef, &mut LocalBase::new(&store)).expect("init");
    store.reset_accesses();
    let t0 = Instant::now();
    for u in &updates {
        let applied = store.apply(u.clone()).expect("valid");
        maintainer
            .apply(&mut mv, &mut LocalBase::new(&store), &applied)
            .expect("maintain");
    }
    let native_us = t0.elapsed().as_secs_f64() * 1e6 / updates.len() as f64;
    let native_total = store.accesses();

    // --- relational ---
    let (mut store2, edges, leaves) = chain_forest(width, depth, seed);
    let updates2 = stream(&edges, &leaves, ops, seed + 1);
    let mut reldb = RelDb::encode(&store2);
    let mut relview = RelView::recompute(&rdef, &reldb);
    reldb.reset_ops();
    let t0 = Instant::now();
    for u in &updates2 {
        let applied = store2.apply(u.clone()).expect("valid");
        for delta in reldb.apply_update(&applied) {
            relview.propagate(&rdef, &reldb, &delta);
        }
    }
    let rel_us = t0.elapsed().as_secs_f64() * 1e6 / updates2.len() as f64;
    let rel_total = reldb.ops();

    assert_eq!(
        mv.members_base(),
        relview.members(),
        "native and relational views must agree (depth {depth})"
    );

    E3Row {
        depth,
        updates: updates.len(),
        native_total,
        rel_total,
        members: relview.members().len(),
        native_us,
        rel_us,
    }
}

fn sweep(depths: &[usize], width: usize, ops: usize) -> Vec<E3Row> {
    depths.iter().map(|&d| measure(d, width, ops, 13)).collect()
}

/// The quick-mode sweep, for the count gate (`tests/paper_claims_smoke.rs`).
pub fn quick_facts() -> Vec<E3Row> {
    sweep(&[2, 8], 100, 100)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick {
        quick_facts()
    } else {
        sweep(&[2, 4, 8, 16, 32], 200, 300)
    };
    let mut t = Table::new(
        "E3",
        "native Algorithm 1 vs relational flattening + counting (repeated-label chains)",
        "the relational delta-join probes every self-join position (O(depth^2) per edge); native locates in O(depth)",
    )
    .headers(&[
        "path depth",
        "native acc/upd",
        "rel rows/upd",
        "rows ratio",
        "native us/upd",
        "rel us/upd",
    ]);
    for r in rows {
        let (native_acc, rel_ops) = r.per_update();
        t.row(vec![
            r.depth.to_string(),
            fnum(native_acc),
            fnum(rel_ops),
            format!("{}x", fnum(rel_ops / native_acc.max(1e-9))),
            fnum(r.native_us),
            fnum(r.rel_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relational_cost_grows_faster_with_depth() {
        let (shallow_native, shallow_rel) = measure(2, 60, 60, 3).per_update();
        let (deep_native, deep_rel) = measure(12, 60, 60, 3).per_update();
        let native_growth = deep_native / shallow_native.max(1e-9);
        let rel_growth = deep_rel / shallow_rel.max(1e-9);
        assert!(
            rel_growth > native_growth * 1.5,
            "relational should scale worse: native x{native_growth:.1}, relational x{rel_growth:.1}"
        );
        assert!(
            deep_rel > deep_native,
            "at depth 12 the relational baseline should touch more rows: {deep_rel} vs {deep_native}"
        );
    }
}
