//! Four-way differential oracle across every view shape the circuit
//! backend claims to maintain: over random forest bases and random
//! update runs, the delta-circuit leg must land on the same view as
//! sequential Algorithm 1, the batched maintainer, and from-scratch
//! recomputation — for simple, multi-path (compound union) and
//! aggregate definitions. Circuits take constant paths only: the
//! wildcard suite holds Algorithm 1 ≡ recomputation and pins the
//! planner's route.
//!
//! Anti-vacuity: where a single batch is flushed, the circuit must
//! have advanced by exactly one `step` after its one initial rebuild.
//! A circuit that silently falls back to epoch-consistent rebuilds
//! would equal recompute by construction and prove nothing.
//!
//! A batch derives its live-graph change once for every circuit it is
//! handed; the last suite holds circuits stepped through one shared
//! batch ≡ the same circuits each deriving privately.

use gsdb::{Atom, DeltaBatch, Label, Object, Oid, Store, Update};
use gsview_circuit::Circuit;
use gsview_core::{
    AggFn, AggregateView, AggregateViewDef, CircuitMaintainer, CircuitSource, CompoundMaintainer,
    CompoundViewDef, GeneralMaintainer, GeneralViewDef, LocalBase, MaterializedView, SimpleViewDef,
};
use gsview_query::pathexpr::PathExpr;
use gsview_query::{CmpOp, MaintBackend, Pred};
use gsview_testkit::oracle::assert_equivalent;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

/// A professor/student base plus a few detached subtrees the run can
/// attach anywhere: `F0` (a spare professor), `E0`/`E1` (spare
/// students), `D0`..`D2` (spare age atoms).
fn build_base(n_prof: usize, studs_per_prof: usize, ages: &[i64]) -> Store {
    let mut s = Store::new();
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
        let a = next_age(&mut s, format!("P{p}a"));
        s.insert_edge(oid(&prof), a).unwrap();
        for t in 0..studs_per_prof {
            let stud = format!("P{p}S{t}");
            s.create(Object::empty_set(stud.as_str(), "student"))
                .unwrap();
            s.insert_edge(oid(&prof), oid(&stud)).unwrap();
            let a = next_age(&mut s, format!("P{p}S{t}a"));
            s.insert_edge(oid(&stud), a).unwrap();
        }
    }
    // Detached spares.
    s.create(Object::empty_set("F0", "professor")).unwrap();
    let a = next_age(&mut s, "F0a".to_owned());
    s.insert_edge(oid("F0"), a).unwrap();
    for e in 0..2 {
        let stud = format!("E{e}");
        s.create(Object::empty_set(stud.as_str(), "student"))
            .unwrap();
        let a = next_age(&mut s, format!("E{e}a"));
        s.insert_edge(oid(&stud), a).unwrap();
    }
    for d in 0..3 {
        next_age(&mut s, format!("D{d}"));
    }
    s
}

/// The label a replaced record comes back with when it may change.
fn relabel(label: Label) -> Label {
    Label::new(match label.as_str() {
        "professor" => "student",
        "student" => "professor",
        "age" => "grade",
        "grade" => "age",
        other => other,
    })
}

/// A record as a `Create` brings it: an atom, or a set of `children`.
fn record(o: Oid, label: Label, atom: Option<Atom>, children: &[Oid]) -> Object {
    match atom {
        Some(a) => Object::atom(o, label, a),
        None => Object::set(o, label, children),
    }
}

/// What the run believes the store holds: which OIDs have records,
/// every record's label and atom, and the children lists — which keep
/// naming a removed OID (a dangling reference) until their own record
/// goes or the edge is deleted.
struct Shadow {
    live: HashSet<Oid>,
    label: HashMap<Oid, Label>,
    atom: HashMap<Oid, Atom>,
    edges: Vec<(Oid, Oid)>,
    fresh: usize,
}

impl Shadow {
    fn of(store: &Store) -> Shadow {
        let mut sh = Shadow {
            live: HashSet::new(),
            label: HashMap::new(),
            atom: HashMap::new(),
            edges: Vec::new(),
            fresh: 0,
        };
        for o in store.iter() {
            sh.live.insert(o.oid);
            sh.label.insert(o.oid, o.label);
            if let Some(a) = o.atom_value() {
                sh.atom.insert(o.oid, a.clone());
            }
            sh.edges.extend(o.children().iter().map(|&c| (o.oid, c)));
        }
        sh
    }

    fn parent(&self, c: Oid) -> Option<Oid> {
        self.edges.iter().find(|e| e.1 == c).map(|e| e.0)
    }

    /// Live records no children list names, in a stable order.
    fn orphans(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self
            .live
            .iter()
            .filter(|&&o| o != oid("ROOT") && self.parent(o).is_none())
            .copied()
            .collect();
        v.sort_by_key(|o| o.name());
        v
    }

    /// Live set records, in a stable order.
    fn sets(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self
            .live
            .iter()
            .filter(|o| !self.atom.contains_key(o))
            .copied()
            .collect();
        v.sort_by_key(|o| o.name());
        v
    }

    /// `o` and everything below it.
    fn subtree(&self, o: Oid) -> HashSet<Oid> {
        let mut below: HashSet<Oid> = HashSet::from([o]);
        loop {
            let grew: Vec<Oid> = self
                .edges
                .iter()
                .filter(|(p, c)| below.contains(p) && !below.contains(c))
                .map(|&(_, c)| c)
                .collect();
            if grew.is_empty() {
                return below;
            }
            below.extend(grew);
        }
    }

    /// `o` and everything above it.
    fn ancestors(&self, mut o: Oid) -> HashSet<Oid> {
        let mut above = HashSet::from([o]);
        while let Some(p) = self.parent(o) {
            above.insert(p);
            o = p;
        }
        above
    }

    /// Up to two orphans `o` can embed without closing a cycle.
    fn embeddable(&self, o: Oid, pick: usize) -> Vec<Oid> {
        let above = self.ancestors(o);
        let free: Vec<Oid> = self
            .orphans()
            .into_iter()
            .filter(|c| !above.contains(c))
            .collect();
        (0..pick.min(2).min(free.len()))
            .map(|i| free[(pick + i) % free.len()])
            .collect()
    }

    fn remove(&mut self, o: Oid) -> Update {
        self.live.remove(&o);
        // Its children list goes with the record; lists naming it stay.
        self.edges.retain(|e| e.0 != o);
        Update::Remove { oid: o }
    }

    fn create(&mut self, object: Object) -> Update {
        let o = object.oid;
        self.live.insert(o);
        self.label.insert(o, object.label);
        match object.atom_value() {
            Some(a) => {
                self.atom.insert(o, a.clone());
            }
            None => {
                self.atom.remove(&o);
            }
        }
        self.edges.extend(object.children().iter().map(|&c| (o, c)));
        Update::Create { object }
    }
}

/// Raw op tuples → a concrete update run that keeps the base a forest.
/// Inserts attach only parentless records, deletes pick from the
/// children lists, modifies hit atoms, and records churn:
///
/// * a detached record is removed — a leaf, or a subtree root whose
///   children become orphans;
/// * a record is removed and re-created in place, in one batch, with
///   its children embedded in the `Create` (an attached one comes back
///   as it was, so its parent names it dangling only in between; a
///   detached one may change label and value);
/// * a fresh set is created with orphans embedded, or a removed record
///   comes back.
///
/// Every such run is one Algorithm 1 maintains: a record that changes
/// is unreferenced and no view's root, or changes nothing. A record
/// created in the run may be attached with anything below it, members
/// the run cut loose included: the batched maintainer repairs the
/// members below every cut, wherever they end up. With
/// `dangling`, removes and label changes also hit attached records and
/// view roots, and a removed record named by a surviving parent can
/// come back under that dangling reference — runs only the circuit and
/// recomputation can follow.
fn realize_ops(raw: &[(u8, usize, usize, i64)], initial: &Store, dangling: bool) -> Vec<Update> {
    // `P0` roots a branch of the compound view below.
    let churnable = |o: &Oid| *o != oid("ROOT") && (dangling || *o != oid("P0"));
    // Records this run inserted an edge under. The batch's log keeps
    // such an insert after a `Remove` drops the list it went into, and
    // Algorithm 1 takes it at its word.
    let mut grown: HashSet<Oid> = HashSet::new();
    let mut sh = Shadow::of(initial);
    let mut dead: Vec<Oid> = Vec::new();
    let mut out = Vec::new();
    for &(kind, a, b, v) in raw {
        match kind % 6 {
            0 => {
                // Attach an orphan below a set outside its own subtree.
                let orphans = sh.orphans();
                if orphans.is_empty() {
                    continue;
                }
                let child = orphans[b % orphans.len()];
                let below = sh.subtree(child);
                let hosts: Vec<Oid> = sh
                    .sets()
                    .into_iter()
                    .filter(|p| !below.contains(p))
                    .collect();
                if hosts.is_empty() {
                    continue;
                }
                let parent = hosts[a % hosts.len()];
                grown.insert(parent);
                sh.edges.push((parent, child));
                out.push(Update::Insert { parent, child });
            }
            1 => {
                // Delete an edge (a dangling one too).
                if sh.edges.is_empty() {
                    continue;
                }
                let (parent, child) = sh.edges.remove(a % sh.edges.len());
                out.push(Update::Delete { parent, child });
            }
            2 => {
                let mut atoms: Vec<Oid> = sh
                    .atom
                    .keys()
                    .filter(|o| sh.live.contains(o))
                    .copied()
                    .collect();
                if atoms.is_empty() {
                    continue;
                }
                atoms.sort_by_key(|o| o.name());
                let target = atoms[a % atoms.len()];
                sh.atom.insert(target, Atom::Int(v));
                out.push(Update::Modify {
                    oid: target,
                    new: Atom::Int(v),
                });
            }
            3 => {
                // Remove a record: detached only, unless dangling.
                let mut pool: Vec<Oid> = if dangling {
                    sh.live.iter().copied().collect()
                } else {
                    sh.orphans()
                        .into_iter()
                        .filter(|o| !grown.contains(o))
                        .collect()
                };
                pool.retain(churnable);
                pool.sort_by_key(|o| o.name());
                if pool.is_empty() {
                    continue;
                }
                let target = pool[a % pool.len()];
                dead.push(target);
                out.push(sh.remove(target));
            }
            4 => {
                // Remove and re-create one record in one batch.
                let mut pool: Vec<Oid> = sh.live.iter().copied().filter(churnable).collect();
                if pool.is_empty() {
                    continue;
                }
                pool.sort_by_key(|o| o.name());
                let target = pool[a % pool.len()];
                let children: Vec<Oid> = sh
                    .edges
                    .iter()
                    .filter(|e| e.0 == target)
                    .map(|e| e.1)
                    .collect();
                let (mut label, mut atom) = (sh.label[&target], sh.atom.get(&target).cloned());
                if dangling || sh.parent(target).is_none() {
                    if b % 2 == 1 {
                        label = relabel(label);
                    }
                    atom = atom.map(|_| Atom::Int(v));
                }
                let object = record(target, label, atom, &children);
                out.push(sh.remove(target));
                out.push(sh.create(object));
            }
            _ => {
                // Create: a removed record comes back (under whatever
                // still names it), or a fresh set arrives with orphans
                // embedded.
                let back = (b % 2 == 0 && !dead.is_empty()).then(|| dead.remove(a % dead.len()));
                let (target, label, atom) = match back {
                    Some(o) => {
                        let label = if dangling && a % 2 == 1 {
                            relabel(sh.label[&o])
                        } else {
                            sh.label[&o]
                        };
                        (o, label, sh.atom.get(&o).map(|_| Atom::Int(v)))
                    }
                    None => {
                        sh.fresh += 1;
                        let label = if a % 2 == 0 { "professor" } else { "student" };
                        let o = Oid::new(&format!("X{}", sh.fresh));
                        (o, Label::new(label), None)
                    }
                };
                let children = if atom.is_some() {
                    Vec::new()
                } else {
                    sh.embeddable(target, b)
                };
                let object = record(target, label, atom, &children);
                out.push(sh.create(object));
            }
        }
    }
    out
}

fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, usize, i64)>> {
    prop::collection::vec((0..12u8, 0..64usize, 0..64usize, 0..80i64), 1..200)
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
        let store = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, &store, false);
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
        let initial = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, &initial, false);
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

    /// Wildcard selection: circuits take constant paths only, so the
    /// planner routes `*.student` to Algorithm 1, which must agree
    /// with recompute.
    #[test]
    fn wildcard_backends_agree(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let initial = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, &initial, false);
        let def = GeneralViewDef::new("W", "ROOT", PathExpr::parse("*.student").unwrap())
            .with_cond(PathExpr::parse("age").unwrap(), Pred::new(CmpOp::Gt, 10i64));

        let alg = GeneralMaintainer::planned(def);
        prop_assert_eq!(alg.backend(), MaintBackend::Algorithm1);

        let (store, batch) = drive(&initial, &updates);
        let mut mv_alg = alg.recompute(&initial).unwrap();
        alg.apply_batch(&mut mv_alg, &store, &batch).unwrap();

        let expected = alg.recompute(&store).unwrap().members_base();
        prop_assert_eq!(mv_alg.members_base(), expected, "algorithm1 vs recompute");
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
        let initial = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, &initial, false);
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

    /// Record churn Algorithm 1 cannot follow: attached records are
    /// removed while their parents keep naming them, come back under
    /// those dangling references, and change label in place. Every
    /// shape's circuit steps through each batch — no rebuild after the
    /// first — and lands on recomputation.
    #[test]
    fn circuits_step_through_dangling_churn(
        (n_prof, studs) in (1..4usize, 1..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
        per_batch in 1..24usize,
    ) {
        let initial = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, &initial, true);
        let young = || SimpleViewDef::new("DS", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let compound = CompoundViewDef::new(
            "DC",
            vec![
                young(),
                SimpleViewDef::new("DC", "ROOT", "professor.student")
                    .with_cond("age", Pred::new(CmpOp::Gt, 20i64)),
                SimpleViewDef::new("DC", "P0", "student"),
            ],
        );
        let aggregate = AggregateViewDef::new(
            SimpleViewDef::new("DA", "ROOT", "professor"),
            "student.age",
            AggFn::Sum,
        );
        let mut circuits: Vec<(CircuitMaintainer, MaterializedView)> = [
            CircuitSource::Simple(young()),
            CircuitSource::Compound(compound.clone()),
            CircuitSource::Aggregate(aggregate.clone()),
        ]
        .into_iter()
        .map(|source| {
            let circuit = CircuitMaintainer::new(source);
            let mut mv = MaterializedView::new(circuit.view());
            circuit.initialize(&mut mv, &initial).unwrap();
            (circuit, mv)
        })
        .collect();

        let mut store = initial.clone();
        for (i, chunk) in updates.chunks(per_batch).enumerate() {
            let mut batch = DeltaBatch::new();
            for u in chunk {
                if let Ok(applied) = store.apply(u.clone()) {
                    batch.push(applied);
                }
            }
            for (circuit, mv) in &mut circuits {
                circuit.apply_batch(mv, &store, &batch).unwrap();
            }

            let base = &mut LocalBase::new(&store);
            let mut union: Vec<Oid> = compound
                .branches
                .iter()
                .flat_map(|b| gsview_core::recompute::recompute_members(b, base))
                .collect::<HashSet<Oid>>()
                .into_iter()
                .collect();
            union.sort_by_key(|o| o.name());
            let fresh = AggregateView::materialize(aggregate.clone(), base).unwrap();
            let want = [
                gsview_core::recompute::recompute(&young(), base).unwrap().members_base(),
                union,
                fresh.members(),
            ];
            for ((circuit, mv), want) in circuits.iter().zip(want) {
                let view = circuit.view();
                prop_assert_eq!(circuit.members(), want.clone(), "{} vs recompute, batch {}", view, i);
                prop_assert_eq!(mv.members_base(), want, "{} view vs recompute, batch {}", view, i);
                prop_assert_eq!((circuit.steps(), circuit.rebuilds()), (i as u64 + 1, 1), "{}", view);
            }
            let agg = &circuits[2].0;
            for m in fresh.members() {
                prop_assert!(approx(agg.aggregate_of(m), fresh.aggregate_of(m)), "aggregate of {}", m);
            }
            prop_assert!(approx(agg.total(), fresh.total()), "total, batch {}", i);
        }
    }

    /// Circuits stepped through one shared batch read the batch's one
    /// live-change derivation; the same definitions stepped through a
    /// clone each (a clone starts without the memo) derive privately.
    /// Both land on the same members, aggregates and live state
    /// entries after every batch, through the dangling churn that
    /// `gsdb::events` documents: remove-then-create with a label
    /// change, re-creation under a dangling reference, and `Create`s
    /// embedding existing children.
    #[test]
    fn a_shared_batch_steps_circuits_as_private_derivations_do(
        (n_prof, studs) in (1..4usize, 1..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
        per_batch in 1..24usize,
    ) {
        let initial = build_base(n_prof, studs, &ages);
        let updates = realize_ops(&raw, &initial, true);
        let union = CompoundViewDef::new(
            "SU",
            vec![
                SimpleViewDef::new("SU", "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
                SimpleViewDef::new("SU", "ROOT", "professor.student"),
            ],
        );
        let aggregate = AggregateViewDef::new(
            SimpleViewDef::new("SA", "ROOT", "professor"),
            "student.age",
            AggFn::Avg,
        );
        let multi = CompoundViewDef::new(
            "SM",
            vec![
                SimpleViewDef::new("SM", "ROOT", "professor")
                    .with_cond("age", Pred::new(CmpOp::Gt, 30i64)),
                SimpleViewDef::new("SM", "ROOT", "professor.student")
                    .with_cond("age", Pred::new(CmpOp::Gt, 20i64)),
                SimpleViewDef::new("SM", "P0", "student"),
            ],
        );
        let mut pairs: Vec<(Circuit, Circuit)> = [
            CircuitSource::Compound(union),
            CircuitSource::Aggregate(aggregate),
            CircuitSource::Compound(multi),
        ]
        .iter()
        .map(|source| {
            let mut shared = Circuit::compile(source.lower());
            shared.init(&initial);
            (shared.clone(), shared)
        })
        .collect();

        let mut store = initial.clone();
        for (i, chunk) in updates.chunks(per_batch).enumerate() {
            let mut batch = DeltaBatch::new();
            for u in chunk {
                if let Ok(applied) = store.apply(u.clone()) {
                    batch.push(applied);
                }
            }
            for (shared, private) in &mut pairs {
                shared.step(&batch, &store);
                private.step(&batch.clone(), &store);
            }
            for (k, (shared, private)) in pairs.iter().enumerate() {
                let mut members = shared.members();
                members.sort_by_key(|o| o.name());
                let mut want = private.members();
                want.sort_by_key(|o| o.name());
                prop_assert_eq!(&members, &want, "circuit {} members, batch {}", k, i);
                prop_assert_eq!(shared.state_len(), private.state_len(), "circuit {} state, batch {}", k, i);
                for &m in &want {
                    prop_assert_eq!(shared.aggregate_of(m), private.aggregate_of(m), "circuit {} at {}", k, m);
                }
                prop_assert_eq!(shared.total(), private.total(), "circuit {} total, batch {}", k, i);
            }
        }
    }
}
