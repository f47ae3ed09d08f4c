//! Maintained views, not rebuilt ones. The benchmark's final oracle
//! check follows a view rebuild on every workload, so a view that
//! drifts from recomputation under maintenance passes it unseen. This
//! file drives the three stacks the benchmark drives, small, under its
//! update mix — professor and student age modifies, name and budget
//! modifies, student deletes, student-subtree inserts, and removes of
//! the detached records one batch later — and checks every view against
//! recomputation at the source's epoch after each of its batches:
//!
//! 1. a colocated portfolio: six constant-path views in one
//!    `ColocatedViews` fan-out, and two wildcard `GeneralMaintainer`s;
//! 2. a circuit portfolio: three-branch unions and per-member
//!    aggregates;
//! 3. a `Warehouse` over `Server`/`FrameClient`, with W1–W4's options.

use gsview::gsdb::{DeltaBatch, Object, Oid, Store, Update};
use gsview::query::parse_viewdef;
use gsview::serve::{FrameClient, ServeConfig, Server, SourceService};
use gsview::views::{
    consistency, AggFn, AggregateView, AggregateViewDef, CircuitMaintainer, CircuitSource,
    CompoundMaintainer, CompoundViewDef, GeneralMaintainer, GeneralViewDef, LocalBase,
    MaterializedView, SimpleViewDef,
};
use gsview::warehouse::{
    ColocatedViews, CostMeter, QueryPort, ReportLevel, ReportSource, RetryPolicy, Source,
    ViewOptions, Warehouse,
};
use std::sync::Arc;

const BATCHES: usize = 120;
const DEPTS: usize = 4;
const PROFS_PER_DEPT: usize = 6;
const STUDENTS: usize = 3;

/// SplitMix64: the same script on every platform.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as usize) as i64
    }
}

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

fn name(prefix: &str, i: usize) -> Oid {
    oid(&format!("{prefix}{i}"))
}

/// The benchmark's database, small — `ROOT → D<d> (dept: B<d> budget,
/// P<i> professor: A<i> age, N<i> name, S<k> student → T<k> age)` — and
/// `BATCHES` batches of about `per_batch` updates drawn against a
/// shadow of its attachment state, so that none fails. A professor
/// stays within one student of its initial count.
fn script(seed: u64, per_batch: usize) -> (Vec<Object>, Vec<Vec<Update>>) {
    let mut rng = Rng(seed);
    let profs = DEPTS * PROFS_PER_DEPT;
    let student = |k: usize, age: i64| {
        [
            Object::atom(name("T", k), "age", age),
            Object::set(name("S", k), "student", &[name("T", k)]),
        ]
    };
    let mut objects = Vec::new();
    let mut attached: Vec<Vec<usize>> = vec![Vec::new(); profs];
    let mut next = 0;
    let mut depts: Vec<Vec<Oid>> = Vec::new();
    for d in 0..DEPTS {
        objects.push(Object::atom(name("B", d), "budget", rng.range(0, 100)));
        depts.push(vec![name("B", d)]);
    }
    for (i, of) in attached.iter_mut().enumerate() {
        objects.push(Object::atom(name("A", i), "age", rng.range(20, 80)));
        objects.push(Object::atom(
            name("N", i),
            "name",
            format!("prof-{i}").as_str(),
        ));
        let mut kids = vec![name("A", i), name("N", i)];
        for _ in 0..STUDENTS {
            objects.extend(student(next, rng.range(15, 40)));
            kids.push(name("S", next));
            of.push(next);
            next += 1;
        }
        objects.push(Object::set(name("P", i), "professor", &kids));
        depts[i / PROFS_PER_DEPT].push(name("P", i));
    }
    for (d, members) in depts.iter().enumerate() {
        objects.push(Object::set(name("D", d), "dept", members));
    }
    let depts: Vec<Oid> = (0..DEPTS).map(|d| name("D", d)).collect();
    objects.push(Object::set("ROOT", "db", &depts));

    let mut garbage: Vec<usize> = Vec::new();
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut batch = Vec::new();
        for k in garbage.drain(..) {
            batch.push(Update::Remove { oid: name("S", k) });
            batch.push(Update::Remove { oid: name("T", k) });
        }
        while batch.len() < per_batch {
            let i = rng.below(profs);
            let draw = rng.below(100);
            let have = attached[i].len();
            match draw {
                0..=34 => batch.push(Update::modify(name("A", i), rng.range(20, 80))),
                35..=64 if have > 0 => {
                    let k = attached[i][rng.below(have)];
                    batch.push(Update::modify(name("T", k), rng.range(15, 40)));
                }
                65..=74 => batch.push(Update::modify(name("N", i), format!("n{draw}").as_str())),
                75..=79 => batch.push(Update::modify(
                    name("B", i / PROFS_PER_DEPT),
                    rng.range(0, 100),
                )),
                80..=99 if have > STUDENTS || (have == STUDENTS && draw < 90) => {
                    let k = attached[i].swap_remove(rng.below(have));
                    garbage.push(k);
                    batch.push(Update::delete(name("P", i), name("S", k)));
                }
                _ => {
                    batch.extend(student(next, rng.range(15, 40)).map(Update::create));
                    batch.push(Update::insert(name("P", i), name("S", next)));
                    attached[i].push(next);
                    next += 1;
                }
            }
        }
        batches.push(batch);
    }
    (objects, batches)
}

fn source(name: &str, objects: Vec<Object>) -> Source {
    let src = Source::empty(name, oid("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| s.create_all(objects)).unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    src
}

fn simple(text: &str) -> SimpleViewDef {
    SimpleViewDef::from_viewdef(&parse_viewdef(text).unwrap()).unwrap()
}

fn general(text: &str) -> GeneralViewDef {
    GeneralViewDef::from_viewdef(&parse_viewdef(text).unwrap()).unwrap()
}

/// `mv` ≡ recomputation of `def` at `store`, members and delegates.
fn check(def: &SimpleViewDef, store: &Store, mv: &MaterializedView, batch: usize) {
    let problems = consistency::check(def, &mut LocalBase::new(store), mv);
    assert!(
        problems.is_empty(),
        "{} after batch {batch}: {problems:?}",
        def.view
    );
}

#[test]
fn a_colocated_portfolio_stays_equal_to_recomputation() {
    let (objects, batches) = script(11, 64);
    let src = source("colocated", objects);
    let simple: Vec<SimpleViewDef> = [
        "define mview L1 as: SELECT ROOT.dept X WHERE X.budget > 50",
        "define mview L2 as: SELECT ROOT.dept.professor X WHERE X.age <= 45",
        "define mview L3 as: SELECT ROOT.dept.professor X WHERE X.age > 60",
        "define mview L4 as: SELECT ROOT.dept.professor.student X WHERE X.age > 25",
        "define mview L5 as: SELECT ROOT.dept.professor.student X WHERE X.age <= 20",
        "define mview L6 as: SELECT ROOT.dept.professor X WHERE X.student.age > 35",
    ]
    .map(simple)
    .to_vec();
    let mut views = ColocatedViews::new(&src, simple.clone(), 2).unwrap();
    let snap = src.snapshot();
    let mut wildcard: Vec<(GeneralMaintainer, MaterializedView)> = [
        "define mview L7 as: SELECT ROOT.*.student X WHERE X.age > 37",
        "define mview L8 as: SELECT D1.?.student X WHERE X.age <= 16",
    ]
    .map(|text| {
        let gm = GeneralMaintainer::planned(general(text));
        let mv = gm.recompute(&snap).unwrap();
        (gm, mv)
    })
    .into_iter()
    .collect();

    for (b, batch) in batches.into_iter().enumerate() {
        src.apply_batch(batch).unwrap();
        let reports = src.monitor().poll();
        for r in &reports {
            views.absorb(r);
        }
        views.flush(&src).unwrap();
        let delta = DeltaBatch::from_ops(reports.into_iter().map(|r| r.update).collect());
        let snap = src.snapshot();
        for (gm, mv) in &mut wildcard {
            gm.apply_batch(mv, &snap, &delta).unwrap();
        }
        for (def, mv) in simple.iter().zip(views.views()) {
            check(def, &snap, mv, b);
        }
        for (gm, mv) in &wildcard {
            let want = gm.recompute(&snap).unwrap();
            assert_eq!(
                mv.members_base(),
                want.members_base(),
                "{} after batch {b}",
                gm.def().view
            );
        }
    }
}

/// What a circuit view is checked against.
enum Oracle {
    Union(CompoundViewDef),
    Aggregate(AggregateViewDef),
}

#[test]
fn a_circuit_portfolio_stays_equal_to_recomputation() {
    let (objects, batches) = script(12, 64);
    let src = source("circuits", objects);
    let union = |name: &str, branches: [&str; 3]| {
        let def = CompoundViewDef::new(name, branches.map(simple).to_vec());
        (CircuitSource::Compound(def.clone()), Oracle::Union(def))
    };
    let aggregate = |text: &str, path: &str, f: AggFn| {
        let def = AggregateViewDef::new(simple(text), path, f);
        (
            CircuitSource::Aggregate(def.clone()),
            Oracle::Aggregate(def),
        )
    };
    let snap = src.snapshot();
    let mut circuits: Vec<(CircuitMaintainer, MaterializedView, Oracle, u64)> = [
        union(
            "C1",
            [
                "define mview C1 as: SELECT ROOT.dept.professor X WHERE X.age <= 45",
                "define mview C1 as: SELECT ROOT.dept.professor.student X WHERE X.age > 25",
                "define mview C1 as: SELECT ROOT.dept.professor X WHERE X.age > 70",
            ],
        ),
        union(
            "C2",
            [
                "define mview C2 as: SELECT ROOT.dept X WHERE X.budget > 50",
                "define mview C2 as: SELECT ROOT.dept.professor X WHERE X.age > 60",
                "define mview C2 as: SELECT ROOT.dept.professor.student X WHERE X.age <= 20",
            ],
        ),
        aggregate(
            "define mview C3 as: SELECT ROOT.dept.professor X WHERE X.age <= 45",
            "student.age",
            AggFn::Avg,
        ),
        aggregate(
            "define mview C4 as: SELECT ROOT.dept.professor X WHERE X.age > 30",
            "student.age",
            AggFn::Max,
        ),
        aggregate(
            "define mview C5 as: SELECT ROOT.dept X WHERE X.budget > 20",
            "professor.age",
            AggFn::Count,
        ),
    ]
    .into_iter()
    .map(|(source, oracle)| {
        let cm = CircuitMaintainer::new(source);
        let mut mv = MaterializedView::new(cm.view());
        cm.initialize(&mut mv, &snap).unwrap();
        let rebuilds = cm.rebuilds();
        (cm, mv, oracle, rebuilds)
    })
    .collect();

    for (b, batch) in batches.into_iter().enumerate() {
        src.apply_batch(batch).unwrap();
        let delta =
            DeltaBatch::from_ops(src.monitor().poll().into_iter().map(|r| r.update).collect());
        let snap = src.snapshot();
        for (cm, mv, oracle, rebuilds) in &mut circuits {
            cm.apply_batch(mv, &snap, &delta).unwrap();
            let view = cm.view();
            assert_eq!(cm.rebuilds(), *rebuilds, "{view} rebuilt in batch {b}");
            match oracle {
                Oracle::Union(def) => {
                    let mut want = MaterializedView::new(view);
                    CompoundMaintainer::new(def)
                        .initialize(&mut want, &mut LocalBase::new(&snap))
                        .unwrap();
                    assert_eq!(
                        mv.members_base(),
                        want.members_base(),
                        "{view} after batch {b}"
                    );
                }
                Oracle::Aggregate(def) => {
                    let want = AggregateView::materialize(def.clone(), &mut LocalBase::new(&snap))
                        .unwrap();
                    let mut members = want.members();
                    members.sort_by_key(|o| o.name());
                    assert_eq!(mv.members_base(), members, "{view} after batch {b}");
                    for m in members {
                        let (x, y) = (want.aggregate_of(m), cm.aggregate_of(m));
                        let same = match (x, y) {
                            (None, None) => true,
                            (Some(x), Some(y)) => {
                                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                            }
                            _ => false,
                        };
                        assert!(
                            same,
                            "{view}: aggregate of {m} is {y:?}, want {x:?}, after batch {b}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_warehouse_over_the_wire_stays_equal_to_recomputation() {
    let (objects, batches) = script(13, 16);
    let src = source("wire", objects);
    let server = Server::spawn(
        Arc::new(SourceService::new(src.clone(), Arc::new(CostMeter::new()))),
        ServeConfig::default(),
    )
    .unwrap();
    let maint = Arc::new(FrameClient::connect(server.addr()).unwrap());
    let mut wh = Warehouse::new().with_retry_policy(RetryPolicy::network());
    let port: Arc<dyn QueryPort> = maint.clone();
    wh.connect_port(src.name(), port, Arc::new(CostMeter::new()), src.next_seq());
    let defs: Vec<SimpleViewDef> = [
        (
            "define mview W1 as: SELECT ROOT.dept.professor X WHERE X.age <= 45",
            false,
            false,
        ),
        (
            "define mview W2 as: SELECT ROOT.dept.professor.student X WHERE X.age > 25",
            false,
            false,
        ),
        (
            "define mview W3 as: SELECT ROOT.dept.professor X WHERE X.age > 60",
            true,
            true,
        ),
        (
            "define mview W4 as: SELECT ROOT.dept.professor.student X WHERE X.age <= 20",
            true,
            true,
        ),
    ]
    .into_iter()
    .map(|(text, label_screening, use_aux_cache)| {
        let def = simple(text);
        let options = ViewOptions {
            use_aux_cache,
            label_screening,
            ..ViewOptions::default()
        };
        wh.add_view(src.name(), def.clone(), options).unwrap();
        def
    })
    .collect();

    for (b, batch) in batches.into_iter().enumerate() {
        src.apply_batch(batch).unwrap();
        let reports = maint.poll_reports();
        wh.handle_batch(&reports).unwrap();
        assert!(wh.stale_views().is_empty(), "stale after batch {b}");
        let snap = src.snapshot();
        for def in &defs {
            check(def, &snap, wh.view(def.view).unwrap(), b);
        }
    }
    server.shutdown();
}
