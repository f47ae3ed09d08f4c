//! Access control through views (paper §1 and §3.1): "a parent may
//! wish to restrict access by his children to a particular subset of
//! Web pages. For this he can define a virtual view that contains the
//! allowed Web pages" — and the authorization system expands user
//! queries with `ANS INT` / `WITHIN` clauses for the union of granted
//! views.
//!
//! ```text
//! cargo run --example access_control
//! ```

use gsview::gsdb::{samples, Oid, Store};
use gsview::query::{evaluate, parse_query, parse_viewdef};
use gsview::views::access::{Authorizer, Enforcement};
use gsview::views::virtualview::define_virtual_view;

fn main() {
    let mut store = Store::new();
    samples::person_db(&mut store).expect("build PERSON");

    // The administrator defines two views: persons named John, and
    // secretaries.
    for def_src in [
        "define view JOHNS as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON",
        "define view SECRETARIES as: SELECT ROOT.secretary X",
    ] {
        let def = parse_viewdef(def_src).expect("parse view");
        define_virtual_view(&mut store, &def).expect("define view");
        println!("{def_src}");
        println!(
            "  value({}) = {}",
            def.name,
            store.get(def.name).expect("view object").value
        );
    }

    // An unrestricted query sees everything.
    let q = parse_query("SELECT ROOT.? X").expect("parse");
    let unrestricted = evaluate(&store, &q).expect("evaluate");
    println!("\nunrestricted SELECT ROOT.? X => {:?}", unrestricted.oids);

    // The child account is granted only JOHNS, with ANS INT
    // enforcement (answers filtered, traversal free).
    let mut child = Authorizer::new(vec![Oid::new("JOHNS")], Enforcement::AnsInt);
    let ans = child.run(&mut store, &q).expect("authorized query");
    println!("child (JOHNS, ANS INT)  => {:?}", ans.oids);

    // Granting SECRETARIES widens the result dynamically.
    child.grant(Oid::new("SECRETARIES"));
    let ans = child.run(&mut store, &q).expect("authorized query");
    println!("child (+SECRETARIES)    => {:?}", ans.oids);

    // Revoking shrinks it again — "it is easy to dynamically modify
    // the privilege of a user".
    child.revoke(Oid::new("JOHNS"));
    let ans = child.run(&mut store, &q).expect("authorized query");
    println!("child (SECRETARIES only)=> {:?}", ans.oids);

    // WITHIN enforcement is strict: traversal itself is confined, so a
    // query starting outside the authorized set sees nothing.
    let mut strict = Authorizer::new(vec![Oid::new("JOHNS")], Enforcement::Within);
    let ans = strict.run(&mut store, &q).expect("authorized query");
    println!(
        "strict WITHIN mode      => {:?} (ROOT itself is not granted)",
        ans.oids
    );

    // But queries entirely inside the granted region work.
    let q_inside = parse_query("SELECT P1.student X").expect("parse");
    let ans = strict.run(&mut store, &q_inside).expect("authorized query");
    println!("strict, SELECT P1.student X => {:?}", ans.oids);
}
