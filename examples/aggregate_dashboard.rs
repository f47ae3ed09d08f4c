//! Aggregate views (§6 open issue) powering a live "dashboard":
//! per-professor average ages and a salary-sum rollup over a person
//! directory, maintained incrementally while the directory churns.
//!
//! ```text
//! cargo run --example aggregate_dashboard
//! ```

use gsview::gsdb::{Atom, StoreConfig, Update};
use gsview::query::{CmpOp, Pred};
use gsview::views::{AggFn, AggregateView, AggregateViewDef, LocalBase, SimpleViewDef};
use gsview::workload::person::{generate, PersonSpec};
use rand::Rng;

fn main() {
    let (mut store, db) = generate(
        PersonSpec {
            persons: 120,
            ..PersonSpec::default()
        },
        StoreConfig::default(),
    )
    .expect("generate directory");
    println!(
        "person directory: {} persons, {} objects",
        db.persons.len(),
        store.len()
    );

    // Dashboard tile 1: average age across professors.
    let avg_age = AggregateViewDef::new(
        SimpleViewDef::new("AVG_AGE", "DIR", "professor"),
        "age",
        AggFn::Avg,
    );
    let mut avg_age =
        AggregateView::materialize(avg_age, &mut LocalBase::new(&store)).expect("materialize avg");

    // Dashboard tile 2: total salary of professors named John.
    let john_payroll = AggregateViewDef::new(
        SimpleViewDef::new("JOHN_PAY", "DIR", "professor")
            .with_cond("name", Pred::new(CmpOp::Eq, "John")),
        "salary",
        AggFn::Sum,
    );
    let mut john_payroll = AggregateView::materialize(john_payroll, &mut LocalBase::new(&store))
        .expect("materialize payroll");

    let show = |tag: &str, avg: &AggregateView, pay: &AggregateView| {
        println!(
            "{tag}: professors={:>3}  avg age={:>5.1}  |  Johns={:>2}  payroll=${:>9.0}",
            avg.members().len(),
            avg.total().unwrap_or(f64::NAN),
            pay.members().len(),
            pay.total().unwrap_or(0.0),
        );
    };
    show("initial ", &avg_age, &john_payroll);

    // HR churn: ages tick, names change, raises happen.
    let mut rng = gsview::workload::rng::rng(99);
    for step in 0..300 {
        let update = match step % 3 {
            0 => {
                let a = db.ages[rng.gen_range(0..db.ages.len())];
                Update::Modify {
                    oid: a,
                    new: Atom::Int(rng.gen_range(18..70i64)),
                }
            }
            1 => {
                let n = db.names[rng.gen_range(0..db.names.len())];
                let name = ["John", "Sally", "Wei", "Priya"][rng.gen_range(0..4usize)];
                Update::Modify {
                    oid: n,
                    new: Atom::str(name),
                }
            }
            _ => {
                // A raise for some professor with a salary.
                let p = db.persons[rng.gen_range(0..db.persons.len())];
                let sal = gsview::gsdb::Oid::new(&format!("{}.salary", p.name()));
                if let Some(Atom::Tagged(unit, v)) = store.atom(sal).cloned() {
                    Update::Modify {
                        oid: sal,
                        new: Atom::Tagged(unit, v + 1000),
                    }
                } else {
                    continue;
                }
            }
        };
        let applied = store.apply(update).expect("valid update");
        avg_age
            .apply(&mut LocalBase::new(&store), &applied)
            .expect("maintain avg");
        john_payroll
            .apply(&mut LocalBase::new(&store), &applied)
            .expect("maintain payroll");
        if (step + 1) % 100 == 0 {
            show(&format!("step {:>4}", step + 1), &avg_age, &john_payroll);
        }
    }

    // Cross-check against from-scratch aggregation.
    let fresh = AggregateView::materialize(
        AggregateViewDef::new(
            SimpleViewDef::new("CHECK", "DIR", "professor")
                .with_cond("name", Pred::new(CmpOp::Eq, "John")),
            "salary",
            AggFn::Sum,
        ),
        &mut LocalBase::new(&store),
    )
    .expect("check");
    assert_eq!(
        fresh.total(),
        john_payroll.total(),
        "incremental == recompute"
    );
    println!("\nincremental aggregates verified against recomputation ✓");
}
