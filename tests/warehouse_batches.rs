//! `Warehouse::handle_batch` maintains a run of reports against the
//! source's state at its end; `handle_report` maintains one report at
//! a time. After every batch both must equal recomputation at the
//! source's epoch, for all four pairs of the §5 options — label
//! screening on or off, the §5.2 auxiliary cache on or off. A view that
//! pins its region makes every view over that region read the one
//! copy its connection keeps, so the scenario runs three warehouses a
//! route: all views together, no view pinning a region (every view
//! queries back), and the pinning views added after their readers.

use gsview::gsdb::{Object, Oid, Update};
use gsview::query::{CmpOp, Pred};
use gsview::views::{consistency, LocalBase, SimpleViewDef};
use gsview::warehouse::{ReportLevel, Source, ViewOptions, Warehouse};
use proptest::prelude::*;

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

type Views = Vec<(SimpleViewDef, ViewOptions)>;

/// A warehouse over `src` holding `views`.
fn warehouse(src: &Source, views: &Views) -> Warehouse {
    let mut wh = Warehouse::new();
    wh.connect(src);
    for (def, options) in views {
        wh.add_view(src.name(), def.clone(), options.clone())
            .unwrap();
    }
    wh
}

/// How `wh`'s views differ from recomputation at the source's epoch.
fn problems(src: &Source, wh: &Warehouse, views: &Views) -> Vec<String> {
    let snap = src.snapshot();
    let mut out: Vec<String> = wh
        .stale_views()
        .iter()
        .map(|v| format!("{v} is stale"))
        .collect();
    for (def, _) in views {
        for p in consistency::check(def, &mut LocalBase::new(&snap), wh.view(def.view).unwrap()) {
            out.push(format!("{}: {p:?}", def.view));
        }
    }
    out
}

/// `ROOT → D → P → {S1 → T1 (age 19), S2 → T2 (age 18)}` and one batch
/// detaching S1. Maintained through the cache, the batch used to keep
/// S1: the cache still placed the detached subtree at its pre-delete
/// path, so S1 passed the batch's check of its select path.
#[test]
fn a_batch_that_detaches_a_member_drops_it() {
    let src = Source::empty("detach", oid("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| {
        s.create_all([
            Object::atom("T1", "age", 19i64),
            Object::atom("T2", "age", 18i64),
            Object::set("S1", "student", &[oid("T1")]),
            Object::set("S2", "student", &[oid("T2")]),
            Object::set("P", "professor", &[oid("S1"), oid("S2")]),
            Object::set("D", "dept", &[oid("P")]),
            Object::set("ROOT", "db", &[oid("D")]),
        ])
    })
    .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    let def = SimpleViewDef::new("X", "ROOT", "dept.professor.student")
        .with_cond("age", Pred::new(CmpOp::Le, 20i64));
    let cached = ViewOptions {
        use_aux_cache: true,
        ..ViewOptions::default()
    };
    let views = vec![(def, cached)];
    let mut batched = warehouse(&src, &views);
    let mut each = warehouse(&src, &views);

    src.apply(Update::delete("P", "S1")).unwrap();
    let reports = src.monitor().poll();
    batched.handle_batch(&reports).unwrap();
    for r in &reports {
        each.handle_report(r).unwrap();
    }
    for wh in [&batched, &each] {
        assert_eq!(wh.view(oid("X")).unwrap().members_base(), vec![oid("S2")]);
        assert_eq!(problems(&src, wh, &views), Vec::<String>::new());
    }
}

/// The benchmark's wire views W1–W4, each under every pair of options.
fn views() -> Views {
    let mut out = Vec::new();
    for (name, path, op, age) in [
        ("W1", "dept.professor", CmpOp::Le, 45i64),
        ("W2", "dept.professor.student", CmpOp::Gt, 25),
        ("W3", "dept.professor", CmpOp::Gt, 60),
        ("W4", "dept.professor.student", CmpOp::Le, 20),
    ] {
        for label_screening in [false, true] {
            for use_aux_cache in [false, true] {
                let view = format!(
                    "{name}{}{}",
                    ["", "s"][label_screening as usize],
                    ["", "c"][use_aux_cache as usize]
                );
                let def = SimpleViewDef::new(view.as_str(), "ROOT", path)
                    .with_cond("age", Pred::new(op, age));
                let options = ViewOptions {
                    use_aux_cache,
                    label_screening,
                    ..ViewOptions::default()
                };
                out.push((def, options));
            }
        }
    }
    out
}

/// [`views`] three ways: as listed; without the views that pin a
/// region, so the query-back route stays covered; and with the pinning
/// views added after the views that read their regions.
fn legs() -> Vec<(&'static str, Views)> {
    let all = views();
    let (pinning, readers): (Views, Views) =
        all.iter().cloned().partition(|(_, o)| o.use_aux_cache);
    let pinning_last = readers.iter().cloned().chain(pinning).collect();
    vec![
        ("all views", all),
        ("none pinned", readers),
        ("pinned last", pinning_last),
    ]
}

/// `ROOT → wbD<0|1> → wbP<i> → {wbA<i> (age), wbN<i> (name), wbS<k> →
/// wbT<k> (age)}` with `students` students a professor, and the
/// batches `raw` makes of it: age and name modifies, student deletes,
/// student-subtree inserts, students moved to another professor, and
/// removes of the records the batch before detached.
fn scenario(
    profs: usize,
    students: usize,
    raw: &[(u8, usize, usize, i64)],
    per_batch: usize,
) -> (Vec<Object>, Vec<Vec<Update>>) {
    let name = |s: &str, i: usize| Oid::new(&format!("wb{s}{i}"));
    let student = |k: usize, age: i64| {
        [
            Object::atom(name("T", k), "age", age),
            Object::set(name("S", k), "student", &[name("T", k)]),
        ]
    };
    let mut objects = Vec::new();
    let mut attached: Vec<Vec<usize>> = vec![Vec::new(); profs];
    let mut next = 0;
    for (i, of) in attached.iter_mut().enumerate() {
        let mut kids = vec![name("A", i), name("N", i)];
        objects.push(Object::atom(name("A", i), "age", 20 + (i as i64 * 17) % 60));
        objects.push(Object::atom(name("N", i), "name", "n"));
        for _ in 0..students {
            objects.extend(student(next, 15 + (next as i64 * 7) % 25));
            kids.push(name("S", next));
            of.push(next);
            next += 1;
        }
        objects.push(Object::set(name("P", i), "professor", &kids));
    }
    for d in 0..2 {
        let profs: Vec<Oid> = (d..profs).step_by(2).map(|i| name("P", i)).collect();
        objects.push(Object::set(name("D", d), "dept", &profs));
    }
    objects.push(Object::set("ROOT", "db", &[name("D", 0), name("D", 1)]));

    let mut batches = Vec::new();
    let mut garbage: Vec<usize> = Vec::new();
    for ops in raw.chunks(per_batch) {
        let mut batch = Vec::new();
        for k in garbage.drain(..) {
            batch.push(Update::Remove { oid: name("S", k) });
            batch.push(Update::Remove { oid: name("T", k) });
        }
        for &(kind, i, j, v) in ops {
            let i = i % profs;
            match kind % 6 {
                0 => batch.push(Update::modify(name("A", i), v)),
                1 if !attached[i].is_empty() => {
                    let k = attached[i][j % attached[i].len()];
                    batch.push(Update::modify(name("T", k), v));
                }
                2 => batch.push(Update::modify(name("N", i), format!("n{v}").as_str())),
                3 if !attached[i].is_empty() => {
                    let at = j % attached[i].len();
                    let k = attached[i].swap_remove(at);
                    garbage.push(k);
                    batch.push(Update::delete(name("P", i), name("S", k)));
                }
                4 => {
                    batch.extend(student(next, v).map(Update::create));
                    batch.push(Update::insert(name("P", i), name("S", next)));
                    attached[i].push(next);
                    next += 1;
                }
                5 if !attached[i].is_empty() && j % profs != i => {
                    let at = j % attached[i].len();
                    let k = attached[i].swap_remove(at);
                    let to = j % profs;
                    batch.push(Update::delete(name("P", i), name("S", k)));
                    batch.push(Update::insert(name("P", to), name("S", k)));
                    attached[to].push(k);
                }
                _ => {}
            }
        }
        batches.push(batch);
    }
    (objects, batches)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn batched_and_per_report_maintenance_equal_recomputation(
        profs in 1..6usize,
        students in 0..3usize,
        raw in prop::collection::vec((0..6u8, 0..8usize, 0..8usize, 15..80i64), 1..60),
        per_batch in 1..12usize,
    ) {
        let (objects, batches) = scenario(profs, students, &raw, per_batch);
        let src = Source::empty("batches", oid("ROOT"), ReportLevel::WithValues);
        src.with_store(|s| s.create_all(objects)).unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        let mut legs: Vec<_> = legs()
            .into_iter()
            .map(|(leg, views)| {
                let (batched, each) = (warehouse(&src, &views), warehouse(&src, &views));
                (leg, views, batched, each)
            })
            .collect();
        for (b, batch) in batches.into_iter().enumerate() {
            src.apply_batch(batch).unwrap();
            let reports = src.monitor().poll();
            for (leg, views, batched, each) in &mut legs {
                batched.handle_batch(&reports).unwrap();
                for r in &reports {
                    each.handle_report(r).unwrap();
                }
                for (wh, route) in [(&*batched, "handle_batch"), (&*each, "handle_report")] {
                    let p = problems(&src, wh, views);
                    prop_assert!(p.is_empty(), "{} ({}) after batch {}: {:?}", route, leg, b, p);
                }
            }
        }
    }
}
