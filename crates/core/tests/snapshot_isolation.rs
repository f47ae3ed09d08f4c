//! Property-based snapshot-isolation tests for the epoch read path:
//! over random forest bases and random batched update runs, concurrent
//! readers racing a publishing writer must only ever observe
//! batch-boundary states ([`check_snapshot_isolation`]) — never a torn
//! mid-batch view of the base.
//!
//! Generation mirrors `batched_differential.rs`: the base stays a
//! forest (one parent per object), runs reparent subtrees, detach and
//! re-attach branches, and churn atom values; the realized run is then
//! chopped into batches at arbitrary points, so epochs land on
//! arbitrary prefixes of the workload.

use gsdb::{Object, Oid, Store, Update};
use gsview_core::SimpleViewDef;
use gsview_query::{CmpOp, Pred};
use gsview_testkit::oracle::check_snapshot_isolation;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

/// A professor/student base plus detached spares the run can attach
/// anywhere (same shape as the batched differential tests).
fn build_base(n_prof: usize, studs_per_prof: usize, ages: &[i64]) -> (Store, Vec<(Oid, Oid)>) {
    let mut s = Store::new();
    let mut edges = Vec::new();
    let mut age_i = 0usize;
    let mut next_age = |s: &mut Store, name: String| {
        let v = ages[age_i % ages.len()];
        age_i += 1;
        s.create(Object::atom(name.as_str(), "age", v)).unwrap();
        Oid::new(&name)
    };
    s.create(Object::empty_set("ROOT", "db")).unwrap();
    for p in 0..n_prof {
        let prof = format!("P{p}");
        s.create(Object::empty_set(prof.as_str(), "professor"))
            .unwrap();
        s.insert_edge(oid("ROOT"), oid(&prof)).unwrap();
        edges.push((oid("ROOT"), oid(&prof)));
        let a = next_age(&mut s, format!("P{p}a"));
        s.insert_edge(oid(&prof), a).unwrap();
        edges.push((oid(&prof), a));
        for t in 0..studs_per_prof {
            let stud = format!("P{p}S{t}");
            s.create(Object::empty_set(stud.as_str(), "student"))
                .unwrap();
            s.insert_edge(oid(&prof), oid(&stud)).unwrap();
            edges.push((oid(&prof), oid(&stud)));
            let a = next_age(&mut s, format!("P{p}S{t}a"));
            s.insert_edge(oid(&stud), a).unwrap();
            edges.push((oid(&stud), a));
        }
    }
    s.create(Object::empty_set("F0", "professor")).unwrap();
    let a = next_age(&mut s, "F0a".to_owned());
    s.insert_edge(oid("F0"), a).unwrap();
    edges.push((oid("F0"), a));
    for e in 0..2 {
        let stud = format!("E{e}");
        s.create(Object::empty_set(stud.as_str(), "student"))
            .unwrap();
        let a = next_age(&mut s, format!("E{e}a"));
        s.insert_edge(oid(&stud), a).unwrap();
        edges.push((oid(&stud), a));
    }
    for d in 0..3 {
        next_age(&mut s, format!("D{d}"));
    }
    (s, edges)
}

/// Raw op tuples → an update run that keeps the base a forest.
fn realize_ops(
    raw: &[(u8, usize, usize, i64)],
    n_prof: usize,
    studs_per_prof: usize,
    initial_edges: &[(Oid, Oid)],
) -> Vec<Update> {
    let mut parents: Vec<Oid> = vec![oid("ROOT")];
    let mut atoms: Vec<Oid> = Vec::new();
    for p in 0..n_prof {
        parents.push(oid(&format!("P{p}")));
        atoms.push(oid(&format!("P{p}a")));
        for t in 0..studs_per_prof {
            parents.push(oid(&format!("P{p}S{t}")));
            atoms.push(oid(&format!("P{p}S{t}a")));
        }
    }
    parents.push(oid("F0"));
    parents.push(oid("E0"));
    parents.push(oid("E1"));
    atoms.push(oid("F0a"));
    atoms.push(oid("E0a"));
    atoms.push(oid("E1a"));
    let mut attachable: Vec<Oid> = vec![oid("F0"), oid("E0"), oid("E1")];
    for d in 0..3 {
        attachable.push(oid(&format!("D{d}")));
    }

    let mut parent_of: HashMap<Oid, Oid> = HashMap::new();
    let mut edges: Vec<(Oid, Oid)> = initial_edges.to_vec();
    for &(p, c) in initial_edges {
        parent_of.insert(c, p);
    }

    let mut out = Vec::new();
    for &(kind, a, b, v) in raw {
        match kind % 3 {
            0 => {
                let orphans: Vec<Oid> = attachable
                    .iter()
                    .chain(parents.iter())
                    .chain(atoms.iter())
                    .filter(|o| **o != oid("ROOT") && !parent_of.contains_key(o))
                    .copied()
                    .collect();
                if orphans.is_empty() {
                    continue;
                }
                let child = orphans[b % orphans.len()];
                let mut blocked: HashSet<Oid> = HashSet::new();
                blocked.insert(child);
                loop {
                    let grew = edges
                        .iter()
                        .filter(|(p, c)| blocked.contains(p) && !blocked.contains(c))
                        .map(|&(_, c)| c)
                        .collect::<Vec<_>>();
                    if grew.is_empty() {
                        break;
                    }
                    blocked.extend(grew);
                }
                let hosts: Vec<Oid> = parents
                    .iter()
                    .filter(|p| !blocked.contains(p))
                    .copied()
                    .collect();
                if hosts.is_empty() {
                    continue;
                }
                let parent = hosts[a % hosts.len()];
                parent_of.insert(child, parent);
                edges.push((parent, child));
                out.push(Update::Insert { parent, child });
            }
            1 => {
                if edges.is_empty() {
                    continue;
                }
                let (parent, child) = edges.remove(a % edges.len());
                parent_of.remove(&child);
                out.push(Update::Delete { parent, child });
            }
            _ => {
                if atoms.is_empty() {
                    continue;
                }
                let target = atoms[a % atoms.len()];
                out.push(Update::Modify {
                    oid: target,
                    new: gsdb::Atom::Int(v),
                });
            }
        }
    }
    out
}

/// Chop a run into batches at `cut`-derived points: every batch is
/// non-empty, batch count varies from 1 to the run length.
fn into_batches(updates: Vec<Update>, width: usize) -> Vec<Vec<Update>> {
    let width = width.max(1);
    let mut batches = Vec::new();
    let mut it = updates.into_iter().peekable();
    while it.peek().is_some() {
        batches.push(it.by_ref().take(width).collect());
    }
    batches
}

fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, usize, i64)>> {
    prop::collection::vec((0..6u8, 0..64usize, 0..64usize, 0..80i64), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Concurrent readers during batched maintenance observe exactly a
    /// pre- or post-batch view state — for a conditioned one-hop view
    /// and a bare multi-hop view, across arbitrary batch widths.
    #[test]
    fn readers_only_observe_batch_boundaries(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
        width in 1..12usize,
    ) {
        let (store, edges) = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, n_prof, studs, &edges);
        let batches = into_batches(updates, width);
        let def = SimpleViewDef::new("V", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let report = check_snapshot_isolation(&def, &store, &batches, 2, 4).unwrap();
        prop_assert!(report.ok(), "isolation violations: {:?}", report.violations);
        prop_assert_eq!(report.epochs_published, batches.len() as u64);
        prop_assert!(report.observations >= 8);

        let deep = SimpleViewDef::new("VS", "ROOT", "professor.student");
        let report = check_snapshot_isolation(&deep, &store, &batches, 2, 4).unwrap();
        prop_assert!(report.ok(), "isolation violations: {:?}", report.violations);
    }
}
