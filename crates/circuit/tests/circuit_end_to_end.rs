//! In-crate differential test: a [`Circuit`] stepped over random
//! update batches must land on exactly the membership (and aggregate
//! values) a from-scratch evaluation of the definition computes on
//! the final store — for single-path, multi-path, wildcard, and
//! aggregate shapes. This is the crate-local precursor of the four-way
//! oracle in core.

use gsdb::{DeltaBatch, Object, Oid, Store, StoreConfig, Update};
use gsview_circuit::{AggDef, AggKind, BranchDef, Circuit, CircuitDef, CondDef};
use gsview_query::pathexpr::{reach_expr, PathExpr};
use gsview_query::{CmpOp, Pred};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

/// Professors with students, every one holding an age atom, plus
/// detached spares the run can attach and orphaned atoms.
fn build_base(n_prof: usize, studs: usize, ages: &[i64]) -> Store {
    build_base_in(Store::new(), n_prof, studs, ages)
}

fn build_base_in(mut s: Store, n_prof: usize, studs: usize, ages: &[i64]) -> Store {
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
        let a = next_age(&mut s, format!("P{p}a"));
        s.insert_edge(oid(&prof), a).unwrap();
        for t in 0..studs {
            let stud = format!("P{p}S{t}");
            s.create(Object::empty_set(stud.as_str(), "student")).unwrap();
            s.insert_edge(oid(&prof), oid(&stud)).unwrap();
            let a = next_age(&mut s, format!("P{p}S{t}a"));
            s.insert_edge(oid(&stud), a).unwrap();
        }
    }
    s.create(Object::empty_set("F0", "professor")).unwrap();
    for d in 0..3 {
        next_age(&mut s, format!("D{d}"));
    }
    s
}

fn universe(n_prof: usize, studs: usize) -> (Vec<Oid>, Vec<Oid>) {
    let mut sets = vec![oid("ROOT"), oid("F0")];
    let mut atoms = vec![oid("D0"), oid("D1"), oid("D2")];
    for p in 0..n_prof {
        sets.push(oid(&format!("P{p}")));
        atoms.push(oid(&format!("P{p}a")));
        for t in 0..studs {
            sets.push(oid(&format!("P{p}S{t}")));
            atoms.push(oid(&format!("P{p}S{t}a")));
        }
    }
    (sets, atoms)
}

/// Realize raw tuples into updates that keep the edge relation a
/// forest (attach only objects without a live parent, never below
/// their own subtree) while freely removing / re-creating records —
/// the dangling-reference cases the arrangement must absorb.
fn realize(
    raw: &[(u8, usize, usize, i64)],
    store: &mut Store,
    sets: &[Oid],
    atoms: &[Oid],
) -> Vec<(gsdb::ConsolidatedDelta, Store)> {
    let mut parent_of: HashMap<Oid, Oid> = HashMap::new();
    let mut edges: Vec<(Oid, Oid)> = Vec::new();
    for o in sets.iter().chain(atoms.iter()) {
        for &c in store.children(*o) {
            parent_of.insert(c, *o);
            edges.push((*o, c));
        }
    }
    let mut batches = Vec::new();
    let mut batch = DeltaBatch::new();
    for &(kind, a, b, v) in raw {
        let u = match kind % 6 {
            0 => {
                // Attach an orphan below a set that is not its own
                // descendant.
                let orphans: Vec<Oid> = sets
                    .iter()
                    .chain(atoms.iter())
                    .filter(|o| **o != oid("ROOT") && !parent_of.contains_key(*o))
                    .copied()
                    .collect();
                if orphans.is_empty() {
                    continue;
                }
                let child = orphans[b % orphans.len()];
                let mut blocked: HashSet<Oid> = HashSet::new();
                blocked.insert(child);
                loop {
                    let grew: Vec<Oid> = edges
                        .iter()
                        .filter(|(p, c)| blocked.contains(p) && !blocked.contains(c))
                        .map(|&(_, c)| c)
                        .collect();
                    if grew.is_empty() {
                        break;
                    }
                    blocked.extend(grew);
                }
                let hosts: Vec<Oid> = sets.iter().filter(|p| !blocked.contains(p)).copied().collect();
                if hosts.is_empty() {
                    continue;
                }
                let parent = hosts[a % hosts.len()];
                parent_of.insert(child, parent);
                edges.push((parent, child));
                Update::Insert { parent, child }
            }
            1 => {
                if edges.is_empty() {
                    continue;
                }
                let (parent, child) = edges.remove(a % edges.len());
                parent_of.remove(&child);
                Update::Delete { parent, child }
            }
            2 => {
                let target = atoms[a % atoms.len()];
                Update::Modify {
                    oid: target,
                    new: gsdb::Atom::Int(v),
                }
            }
            3 => {
                // Remove a record outright — its live edges keep
                // naming it in the store (dangling) but must vanish
                // from the circuit.
                let all: Vec<Oid> = sets.iter().chain(atoms.iter()).copied().collect();
                let target = all[a % all.len()];
                if target == oid("ROOT") {
                    continue;
                }
                Update::Remove { oid: target }
            }
            _ => {
                // Re-create a removed record (resurrecting dangling
                // edges). Atoms come back with a fresh value.
                let all: Vec<Oid> = sets.iter().chain(atoms.iter()).copied().collect();
                let target = all[a % all.len()];
                let object = if atoms.contains(&target) {
                    Object::atom(target.name(), "age", v)
                } else if target == oid("F0") || target.name().starts_with('P') && !target.name().contains('S') {
                    Object::empty_set(target.name(), "professor")
                } else {
                    Object::empty_set(target.name(), "student")
                };
                Update::Create { object }
            }
        };
        if let Ok(applied) = store.apply(u) {
            batch.push(applied);
        }
        if b % 7 == 0 && !batch.is_empty() {
            let done = std::mem::replace(&mut batch, DeltaBatch::new());
            batches.push((done.consolidate(), store.clone()));
        }
    }
    if !batch.is_empty() {
        batches.push((batch.consolidate(), store.clone()));
    }
    batches
}

/// From-scratch evaluation of a circuit definition on a store.
fn expected_members(store: &Store, def: &CircuitDef) -> BTreeSet<Oid> {
    let mut out = BTreeSet::new();
    for b in &def.branches {
        let (reached, _) = reach_expr(store, b.root, &b.sel, &|_| true);
        for y in reached {
            if store.get(y).is_none() {
                continue;
            }
            let ok = match &b.cond {
                None => true,
                Some(c) => {
                    let (ends, _) = reach_expr(store, y, &c.expr, &|_| true);
                    ends.iter()
                        .any(|&z| store.atom(z).map(|a| c.pred.eval(a)).unwrap_or(false))
                }
            };
            if ok {
                out.insert(y);
            }
        }
    }
    out
}

fn expected_values(store: &Store, member: Oid, path: &PathExpr) -> Vec<f64> {
    let (ends, _) = reach_expr(store, member, path, &|_| true);
    ends.iter()
        .filter_map(|&z| store.atom(z).and_then(|a| a.as_f64()))
        .collect()
}

fn approx(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
        _ => false,
    }
}

/// Drive one definition through the batches, checking the circuit
/// against recomputation after every batch.
fn check(def: CircuitDef, initial: &Store, raw: &[(u8, usize, usize, i64)], n: usize, st: usize) {
    let mut store = initial.clone();
    let (sets, atoms) = universe(n, st);
    let mut circuit = Circuit::compile(def.clone());
    circuit.init(&store).expect("init on a forest never diverges");
    let want0 = expected_members(&store, &def);
    let got0: BTreeSet<Oid> = circuit.members().into_iter().collect();
    assert_eq!(got0, want0, "initial membership");

    let batches = realize(raw, &mut store, &sets, &atoms);
    for (delta, replay) in batches {
        circuit.step(&delta, &replay).expect("forest propagation converges");
        let want = expected_members(&replay, &def);
        let got: BTreeSet<Oid> = circuit.members().into_iter().collect();
        assert_eq!(got, want, "membership after batch");
        if let Some(agg) = &def.aggregate {
            for &y in &want {
                let vals = expected_values(&replay, y, &agg.path);
                assert!(
                    approx(circuit.aggregate_of(y), agg.f.compute(&vals)),
                    "aggregate of {y:?}: got {:?}, want {:?}",
                    circuit.aggregate_of(y),
                    agg.f.compute(&vals),
                );
            }
            let all: Vec<f64> = want
                .iter()
                .flat_map(|&y| expected_values(&replay, y, &agg.path))
                .collect();
            assert!(approx(circuit.total(), agg.f.compute(&all)), "total rollup");
        }
    }
}

fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, usize, i64)>> {
    prop::collection::vec((0..12u8, 0..64usize, 0..64usize, 0..80i64), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn single_path_with_condition(
        (n, st) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let store = build_base(n, st, &ages);
        let def = CircuitDef {
            branches: vec![BranchDef {
                root: oid("ROOT"),
                sel: PathExpr::parse("professor").unwrap(),
                cond: Some(CondDef {
                    expr: PathExpr::parse("age").unwrap(),
                    pred: Pred::new(CmpOp::Le, 45i64),
                }),
            }],
            aggregate: None,
        };
        check(def, &store, &raw, n, st);
    }

    #[test]
    fn multi_path_union(
        (n, st) in (1..4usize, 1..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let store = build_base(n, st, &ages);
        let def = CircuitDef {
            branches: vec![
                BranchDef {
                    root: oid("ROOT"),
                    sel: PathExpr::parse("professor").unwrap(),
                    cond: None,
                },
                BranchDef {
                    root: oid("ROOT"),
                    sel: PathExpr::parse("professor.student").unwrap(),
                    cond: Some(CondDef {
                        expr: PathExpr::parse("age").unwrap(),
                        pred: Pred::new(CmpOp::Gt, 20i64),
                    }),
                },
            ],
            aggregate: None,
        };
        check(def, &store, &raw, n, st);
    }

    #[test]
    fn wildcard_selection(
        (n, st) in (1..3usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let store = build_base(n, st, &ages);
        let def = CircuitDef {
            branches: vec![BranchDef {
                root: oid("ROOT"),
                sel: PathExpr::parse("*.student").unwrap(),
                cond: Some(CondDef {
                    expr: PathExpr::parse("age").unwrap(),
                    pred: Pred::new(CmpOp::Gt, 10i64),
                }),
            }],
            aggregate: None,
        };
        check(def, &store, &raw, n, st);
    }

    /// Alternations and `*.?.*` (which matches a word once per place
    /// its `?` can stand) in both directions: selections step the
    /// automaton forward, conditions backward, off the same table.
    #[test]
    fn alternation_and_ambiguous_wildcards(
        (n, st) in (1..3usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let store = build_base(n, st, &ages);
        let def = CircuitDef {
            branches: vec![
                BranchDef {
                    root: oid("ROOT"),
                    sel: PathExpr::parse("(professor|student)").unwrap(),
                    cond: Some(CondDef {
                        expr: PathExpr::parse("*.?.*").unwrap(),
                        pred: Pred::new(CmpOp::Gt, 60i64),
                    }),
                },
                BranchDef {
                    root: oid("ROOT"),
                    sel: PathExpr::parse("*.?.*").unwrap(),
                    cond: Some(CondDef {
                        expr: PathExpr::parse("(age|name)").unwrap(),
                        pred: Pred::new(CmpOp::Lt, 15i64),
                    }),
                },
            ],
            aggregate: None,
        };
        check(def, &store, &raw, n, st);
    }

    #[test]
    fn aggregate_over_members(
        (n, st) in (1..4usize, 1..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let store = build_base(n, st, &ages);
        for f in [AggKind::Count, AggKind::Sum, AggKind::Min, AggKind::Avg] {
            let def = CircuitDef {
                branches: vec![BranchDef {
                    root: oid("ROOT"),
                    sel: PathExpr::parse("professor").unwrap(),
                    cond: None,
                }],
                aggregate: Some(AggDef {
                    path: PathExpr::parse("student.age").unwrap(),
                    f,
                }),
            };
            check(def, &store, &raw, n, st);
        }
    }

    /// A store without a parent index: the circuit finds a created or
    /// removed object's parents, and propagates condition witnesses
    /// upward, through a scan of the store made for that step alone.
    #[test]
    fn index_less_store(
        (n, st) in (1..4usize, 1..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let config = StoreConfig { parent_index: false, ..StoreConfig::default() };
        let store = build_base_in(Store::with_config(config), n, st, &ages);
        assert!(!store.has_parent_index());
        let def = CircuitDef {
            branches: vec![
                BranchDef {
                    root: oid("ROOT"),
                    sel: PathExpr::parse("professor").unwrap(),
                    cond: Some(CondDef {
                        expr: PathExpr::parse("student.age").unwrap(),
                        pred: Pred::new(CmpOp::Gt, 20i64),
                    }),
                },
                BranchDef {
                    root: oid("ROOT"),
                    sel: PathExpr::parse("*.student").unwrap(),
                    cond: None,
                },
            ],
            aggregate: Some(AggDef {
                path: PathExpr::parse("age").unwrap(),
                f: AggKind::Sum,
            }),
        };
        check(def, &store, &raw, n, st);
    }
}
