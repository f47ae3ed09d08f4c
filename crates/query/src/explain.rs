//! EXPLAIN-style plan summaries.
//!
//! [`explain`] plans *and* runs a query, then renders a stable,
//! line-oriented report: entry point, effective selection expression,
//! the physical strategy the planner chose (with its reason), scope
//! and condition handling, and the deterministic execution counters
//! from [`EvalStats`](crate::eval::EvalStats). Because evaluation is
//! deterministic the whole report is golden-testable, and it doubles
//! as documentation for why a query was cheap or expensive (the
//! forward/backward trade-off of §4.4, applied to queries).

use crate::ast::{Entry, Query};
use crate::eval::EvalError;
use crate::plan::{choose_backend, choose_explained, evaluate_planned};
use gsdb::Store;
use std::fmt::{self, Write};

/// Render a plan-and-execution report for `query` against `store`:
/// the plan [`evaluate_planned`] runs, and what running it counted.
pub fn explain(store: &Store, query: &Query) -> Result<String, EvalError> {
    let sel_expr = query.sel_expr();
    let (answer, strategy) = evaluate_planned(store, query)?;
    let (_, reason) = choose_explained(store, &sel_expr);

    let mut out = String::new();
    line(&mut out, format_args!("QUERY   {query}"));
    match &query.entry {
        Entry::Object(o) => line(&mut out, format_args!("entry   object {o}")),
        Entry::DatabaseAll(db) => line(&mut out, format_args!("entry   members of {db}")),
    }
    if sel_expr.is_empty() {
        line(&mut out, format_args!("select  (entry itself)"));
    } else {
        line(&mut out, format_args!("select  {sel_expr}"));
    }
    line(&mut out, format_args!("plan    {strategy} ({reason})"));
    // If this query's selection were materialized as a view, which
    // maintenance backend would the planner pick?  A plain SELECT has
    // one branch and no aggregate; the maintainer layer passes its own
    // shape when it plans CompoundViewDef / AggregateViewDef sources.
    let (backend, why) = choose_backend(&sel_expr, 1, false);
    line(&mut out, format_args!("maint   {backend} ({why})"));
    if let Some(db) = query.within {
        let members = store
            .get(db)
            .and_then(|o| o.value.as_set())
            .map_or(0, |s| s.len());
        line(
            &mut out,
            format_args!("scope   WITHIN {db} ({members} members)"),
        );
    }
    if let Some(c) = &query.cond {
        line(
            &mut out,
            format_args!("filter  WHERE {c} (re-traversal per candidate)"),
        );
    }
    if let Some(db) = query.ans_int {
        line(&mut out, format_args!("post    ANS INT {db}"));
    }
    line(
        &mut out,
        format_args!(
            "stats   answers={} sel_states={} candidates_tested={} cond_states={}",
            answer.oids.len(),
            answer.stats.sel_states_visited,
            answer.stats.candidates_tested,
            answer.stats.cond_states_visited
        ),
    );
    Ok(out)
}

/// Append one line to the report. Formatting into a `String` cannot
/// fail: its `fmt::Write` never returns an error.
fn line(out: &mut String, args: fmt::Arguments<'_>) {
    let _ = out.write_fmt(args);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use gsdb::{samples, Oid};

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    #[test]
    fn explain_golden_indexed_label_scan() {
        let s = person_store();
        let q = parse_query("SELECT ROOT.professor.age X").unwrap();
        let report = explain(&s, &q).unwrap();
        println!("{report}");
        assert!(report.starts_with("QUERY   SELECT ROOT.professor.age X\n"));
        assert!(report.contains("entry   object ROOT\n"));
        assert!(report.contains("select  professor.age\n"));
        assert!(report.contains("plan    backward(age) (label index:"));
        assert!(report.contains("maint   algorithm1 (constant single-path"));
        assert!(report.contains("answers=1 "));
    }

    #[test]
    fn explain_golden_wildcard_forward() {
        let s = person_store();
        let q = parse_query("SELECT ROOT.professor.* X").unwrap();
        let report = explain(&s, &q).unwrap();
        println!("{report}");
        assert!(report.contains("plan    forward (tail element is not a constant label)\n"));
        assert!(report.contains("maint   algorithm1 (wildcard selection"));
        assert!(report.contains("select  professor.*\n"));
    }

    #[test]
    fn explain_golden_within_scope() {
        let mut s = person_store();
        let members: Vec<Oid> = gsdb::database::members(&s, Oid::new("PERSON"))
            .unwrap()
            .into_iter()
            .filter(|&o| o != Oid::new("P1"))
            .collect();
        gsdb::database::database_of(&mut s, Oid::new("D1"), &members).unwrap();
        let q = parse_query("SELECT ROOT.*.age X WITHIN D1").unwrap();
        let report = explain(&s, &q).unwrap();
        println!("{report}");
        assert!(report.contains("scope   WITHIN D1 ("));
        assert!(report.contains("plan    backward(age)"));
        // The scoped answer excludes P1's age atom.
        let forward = crate::eval::evaluate(&s, &q).unwrap();
        assert!(report.contains(&format!("answers={} ", forward.oids.len())));
    }

    #[test]
    fn explain_reports_condition_and_ans_int() {
        let s = person_store();
        let q = parse_query("SELECT ROOT.*.professor X WHERE X.age > 30 ANS INT PERSON").unwrap();
        let report = explain(&s, &q).unwrap();
        assert!(report.contains("filter  WHERE X.age > 30 (re-traversal per candidate)\n"));
        assert!(report.contains("post    ANS INT PERSON\n"));
        assert!(report.contains("candidates_tested="));
    }

    #[test]
    fn explain_matches_strategy_actually_run() {
        let s = person_store();
        for src in ["SELECT ROOT.*.age X", "SELECT ROOT.professor.* X"] {
            let q = parse_query(src).unwrap();
            let (_, strategy) = evaluate_planned(&s, &q).unwrap();
            let report = explain(&s, &q).unwrap();
            assert!(
                report.contains(&format!("plan    {strategy} (")),
                "{src}: {report}"
            );
        }
    }
}
