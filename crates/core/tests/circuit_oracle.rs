//! Four-way differential oracle across every view shape the circuit
//! backend claims to maintain: over random forest bases and random
//! update runs, the delta-circuit leg must land on the same view as
//! sequential Algorithm 1, the batched maintainer, and from-scratch
//! recomputation — for simple, multi-path (compound union), wildcard,
//! and aggregate definitions.
//!
//! Anti-vacuity: where a single batch is flushed, the circuit must
//! have advanced by exactly one `step` after its one initial rebuild.
//! A circuit that silently falls back to epoch-consistent rebuilds
//! would equal recompute by construction and prove nothing.

use gsview_core::{
    assert_equivalent, AggFn, AggregateView, AggregateViewDef, CircuitMaintainer, CircuitSource,
    CompoundMaintainer, CompoundViewDef, GeneralMaintainer, GeneralViewDef, LocalBase,
    MaterializedView, SimpleViewDef,
};
use gsdb::{DeltaBatch, Object, Oid, Store, Update};
use gsview_query::pathexpr::PathExpr;
use gsview_query::{CmpOp, MaintBackend, Pred};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

/// A professor/student base plus a few detached subtrees the run can
/// attach anywhere: `F0` (a spare professor), `E0`/`E1` (spare
/// students), `D0`..`D2` (spare age atoms).
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
        s.create(Object::empty_set(prof.as_str(), "professor")).unwrap();
        s.insert_edge(oid("ROOT"), oid(&prof)).unwrap();
        edges.push((oid("ROOT"), oid(&prof)));
        let a = next_age(&mut s, format!("P{p}a"));
        s.insert_edge(oid(&prof), a).unwrap();
        edges.push((oid(&prof), a));
        for t in 0..studs_per_prof {
            let stud = format!("P{p}S{t}");
            s.create(Object::empty_set(stud.as_str(), "student")).unwrap();
            s.insert_edge(oid(&prof), oid(&stud)).unwrap();
            edges.push((oid(&prof), oid(&stud)));
            let a = next_age(&mut s, format!("P{p}S{t}a"));
            s.insert_edge(oid(&stud), a).unwrap();
            edges.push((oid(&stud), a));
        }
    }
    // Detached spares.
    s.create(Object::empty_set("F0", "professor")).unwrap();
    let a = next_age(&mut s, "F0a".to_owned());
    s.insert_edge(oid("F0"), a).unwrap();
    edges.push((oid("F0"), a));
    for e in 0..2 {
        let stud = format!("E{e}");
        s.create(Object::empty_set(stud.as_str(), "student")).unwrap();
        let a = next_age(&mut s, format!("E{e}a"));
        s.insert_edge(oid(&stud), a).unwrap();
        edges.push((oid(&stud), a));
    }
    for d in 0..3 {
        next_age(&mut s, format!("D{d}"));
    }
    (s, edges)
}

/// Raw op tuples → a concrete update run that keeps the base a forest:
/// inserts only attach currently-parentless objects, deletes pick from
/// the live edge set, modifies hit age atoms.
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

    // Forest shadow: child → parent, plus the live edge list.
    let mut parent_of: HashMap<Oid, Oid> = HashMap::new();
    let mut edges: Vec<(Oid, Oid)> = initial_edges.to_vec();
    for &(p, c) in initial_edges {
        parent_of.insert(c, p);
    }

    let mut out = Vec::new();
    for &(kind, a, b, v) in raw {
        match kind % 3 {
            0 => {
                // Attach a parentless object somewhere.
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
                // Never attach below the child's own subtree (keeps the
                // shadow a forest): exclude its descendants.
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
                // Delete a live edge.
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

fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, usize, i64)>> {
    prop::collection::vec((0..6u8, 0..64usize, 0..64usize, 0..80i64), 1..200)
}

/// Drive a cloned store through `updates` as one batch, returning the
/// final store and the consolidatable batch of applied deltas.
fn drive(initial: &Store, updates: &[Update]) -> (Store, DeltaBatch) {
    let mut store = initial.clone();
    let mut batch = DeltaBatch::new();
    for u in updates {
        if let Ok(applied) = store.apply(u.clone()) {
            batch.push(applied);
        }
    }
    (store, batch)
}

fn approx(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Simple one-hop view: [`assert_equivalent`] now runs all four
    /// legs (sequential, batched, recompute, circuit) internally,
    /// including the circuit step/rebuild anti-vacuity check.
    #[test]
    fn simple_view_four_routes_agree(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let (store, edges) = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, n_prof, studs, &edges);
        let def = SimpleViewDef::new("V", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        assert_equivalent(&def, &store, &updates);
    }

    /// Multi-path union: the compound maintainer (Algorithm 1 per
    /// branch + union reconcile) vs the circuit backend (one shared
    /// arrangement across branches) vs per-branch recompute union.
    #[test]
    fn compound_union_routes_agree(
        (n_prof, studs) in (1..4usize, 1..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let (initial, edges) = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, n_prof, studs, &edges);
        let def = CompoundViewDef::new(
            "CU",
            vec![
                SimpleViewDef::new("CU", "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
                SimpleViewDef::new("CU", "ROOT", "professor.student")
                    .with_cond("age", Pred::new(CmpOp::Gt, 20i64)),
                SimpleViewDef::new("CU", "P0", "student"),
            ],
        );

        // Route 1: batched Algorithm 1 per branch, union reconciled.
        let (store, batch) = drive(&initial, &updates);
        let mut cm = CompoundMaintainer::new(&def);
        let mut mv_alg = MaterializedView::new("CU");
        cm.initialize(&mut mv_alg, &mut LocalBase::new(&initial)).unwrap();
        cm.apply_batch(&mut mv_alg, &mut LocalBase::new(&store), &batch).unwrap();

        // Route 2: delta circuit over the same batch.
        let circuit = CircuitMaintainer::new(CircuitSource::Compound(def.clone()));
        let mut mv_circ = MaterializedView::new("CU");
        circuit.initialize(&mut mv_circ, &initial).unwrap();
        circuit.apply_batch(&mut mv_circ, &store, &batch).unwrap();
        prop_assert_eq!(circuit.steps(), 1, "circuit leg must advance by delta, not rebuild");
        prop_assert_eq!(circuit.rebuilds(), 1, "only the initial rebuild is allowed");

        // Route 3: recompute every branch on the final base, union.
        let mut union: HashSet<Oid> = HashSet::new();
        for b in &def.branches {
            union.extend(gsview_core::recompute::recompute_members(
                b, &mut LocalBase::new(&store)));
        }
        let mut expected: Vec<Oid> = union.into_iter().collect();
        expected.sort_by_key(|o| o.name().to_owned());

        let mut got_alg = mv_alg.members_base();
        got_alg.sort_by_key(|o| o.name().to_owned());
        let mut got_circ = circuit.members();
        got_circ.sort_by_key(|o| o.name().to_owned());
        prop_assert_eq!(&got_alg, &expected, "compound vs recompute union");
        prop_assert_eq!(&got_circ, &expected, "circuit vs recompute union");
        let mut mv_members = mv_circ.members_base();
        mv_members.sort_by_key(|o| o.name().to_owned());
        prop_assert_eq!(&mv_members, &expected, "circuit-backed view vs recompute union");
    }

    /// Wildcard selection: the planner routes `*.student` to
    /// Algorithm 1 (E18 showed the circuit losing on wildcard
    /// shapes), but a circuit built directly for the shape must still
    /// agree with the general maintainer and with recompute.
    #[test]
    fn wildcard_backends_agree(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let (initial, edges) = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, n_prof, studs, &edges);
        let def = GeneralViewDef::new("W", "ROOT", PathExpr::parse("*.student").unwrap())
            .with_cond(PathExpr::parse("age").unwrap(), Pred::new(CmpOp::Gt, 10i64));

        let alg = GeneralMaintainer::new(def.clone());
        let source = CircuitSource::General(def.clone());
        prop_assert_eq!(source.planned_backend().0, MaintBackend::Algorithm1);
        prop_assert_eq!(GeneralMaintainer::planned(def).backend(), MaintBackend::Algorithm1);
        let circuit = CircuitMaintainer::new(source);

        let (store, batch) = drive(&initial, &updates);
        let mut mv_alg = alg.recompute(&initial).unwrap();
        alg.apply_batch(&mut mv_alg, &store, &batch).unwrap();
        let mut mv_circ = alg.recompute(&initial).unwrap();
        circuit.apply_batch(&mut mv_circ, &store, &batch).unwrap();

        let expected = alg.recompute(&store).unwrap().members_base();
        prop_assert_eq!(mv_alg.members_base(), expected.clone(), "algorithm1 vs recompute");
        prop_assert_eq!(mv_circ.members_base(), expected, "circuit vs recompute");
    }

    /// Aggregate views: sequential re-aggregation vs the circuit's
    /// incremental per-member delta flows vs a fresh materialization,
    /// compared per member and on the global rollup with a relative
    /// float tolerance (Avg sums in different orders).
    #[test]
    fn aggregate_routes_agree(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
        f_pick in 0..5usize,
    ) {
        let (initial, edges) = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, n_prof, studs, &edges);
        let f = [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Avg][f_pick];
        let def = AggregateViewDef::new(
            SimpleViewDef::new("AG", "ROOT", "professor"),
            "student.age",
            f,
        );

        // Route 1: sequential per-update re-aggregation.
        let mut store = initial.clone();
        let mut av = AggregateView::materialize(
            def.clone(), &mut LocalBase::new(&initial)).unwrap();
        let mut batch = DeltaBatch::new();
        for u in &updates {
            if let Ok(applied) = store.apply(u.clone()) {
                av.apply(&mut LocalBase::new(&store), &applied).unwrap();
                batch.push(applied);
            }
        }

        // Route 2: one circuit step over the consolidated batch.
        let circuit = CircuitMaintainer::new(CircuitSource::Aggregate(def.clone()));
        let mut mv_circ = MaterializedView::new("AG");
        circuit.initialize(&mut mv_circ, &initial).unwrap();
        circuit.apply_batch(&mut mv_circ, &store, &batch).unwrap();
        prop_assert_eq!(circuit.steps(), 1, "circuit leg must advance by delta, not rebuild");

        // Route 3: fresh materialization on the final base.
        let fresh = AggregateView::materialize(
            def, &mut LocalBase::new(&store)).unwrap();

        let expected = fresh.members();
        prop_assert_eq!(av.members(), expected.clone(), "sequential vs fresh membership");
        prop_assert_eq!(circuit.members(), expected.clone(), "circuit vs fresh membership");
        for &m in &expected {
            prop_assert!(
                approx(av.aggregate_of(m), fresh.aggregate_of(m)),
                "sequential aggregate diverged at {}: {:?} vs {:?}",
                m, av.aggregate_of(m), fresh.aggregate_of(m));
            prop_assert!(
                approx(circuit.aggregate_of(m), fresh.aggregate_of(m)),
                "circuit aggregate diverged at {}: {:?} vs {:?}",
                m, circuit.aggregate_of(m), fresh.aggregate_of(m));
        }
        prop_assert!(approx(av.total(), fresh.total()), "sequential total");
        prop_assert!(approx(circuit.total(), fresh.total()), "circuit total");
    }
}
