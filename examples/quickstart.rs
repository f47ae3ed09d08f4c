//! Quickstart: build the paper's PERSON database, define and
//! materialize a view, and watch Algorithm 1 maintain it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gsview::gsdb::{display, samples, Object, Oid, Store};
use gsview::query::{evaluate, parse_query, CmpOp, Pred};
use gsview::views::{recompute::recompute, LocalBase, Maintainer, SimpleViewDef};

fn main() {
    // 1. Build Example 2's PERSON database.
    let mut store = Store::new();
    let root = samples::person_db(&mut store).expect("build PERSON");
    println!("The PERSON database (paper Figure 2):\n");
    println!("{}", display::render(&store, root));

    // 2. Query it with the paper's language.
    let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").expect("parse");
    let ans = evaluate(&store, &q).expect("evaluate");
    println!(
        "SELECT ROOT.professor X WHERE X.age > 40  =>  {:?}\n",
        ans.oids
    );

    // 3. Define and materialize view YP (Example 5): professors with
    //    age <= 45.
    let def =
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64));
    println!("{def}");
    let mut yp = recompute(&def, &mut LocalBase::new(&store)).expect("materialize");
    println!("\nMaterialized view YP:\n{}", yp.render());

    // 4. Update the base: insert(P2, A2) with <A2, age, 40>.
    store
        .create(Object::atom("A2", "age", 40i64))
        .expect("create A2");
    let update = store
        .insert_edge(Oid::new("P2"), Oid::new("A2"))
        .expect("insert edge");
    println!("base update: {update}");

    // 5. Algorithm 1 maintains the view incrementally.
    let maintainer = Maintainer::new(def);
    let outcome = maintainer
        .apply(&mut yp, &mut LocalBase::new(&store), &update)
        .expect("maintain");
    println!(
        "maintenance outcome: relevant={} inserted={:?} deleted={:?}",
        outcome.relevant, outcome.inserted, outcome.deleted
    );
    println!(
        "\nView YP after maintenance (paper Figure 4):\n{}",
        yp.render()
    );

    // 6. Swizzle edges for local access (paper §3.2). YP's two
    //    members do not reference each other, so nothing rewrites
    //    here; see `examples/web_cache.rs` for swizzling with effect.
    let rewritten = yp.swizzle().expect("swizzle");
    println!("swizzled {rewritten} intra-view edge(s) (YP members share no edges)");
}
