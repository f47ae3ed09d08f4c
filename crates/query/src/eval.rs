//! Query evaluation (paper §2–3).
//!
//! The evaluator considers all objects in `OBJ.sel_path_exp`; for each
//! candidate `X` it checks `cond(X.cond_path_exp)`; `X` joins the
//! answer when the condition holds. The two scope clauses behave as
//! the paper specifies:
//!
//! * `WITHIN DB1` — "any OIDs that are not in DB1 are completely
//!   ignored by the query": the membership filter applies to the
//!   selection traversal *and* to condition-path traversal;
//! * `ANS INT DB2` — the answer is intersected with `DB2`'s members,
//!   but condition evaluation "can follow remote pointers".
//!
//! The paper's `DB.?` entry-point idiom needs no special case here:
//! a database object is an ordinary set object whose children are its
//! members, so `DB.?` reaches exactly "all objects in DB".
//!
//! There is one evaluation body. [`evaluate`] produces the candidates
//! by walking forward from the entry;
//! [`evaluate_planned`](crate::plan::evaluate_planned) lets the planner
//! produce them from the objects carrying the final label instead
//! (`Store::with_label`) when that is cheaper.

use crate::ast::Query;
use crate::pathexpr::{PathExpr, WalkScratch};
use crate::plan::{backward_in, SelStrategy};
use gsdb::{label::well_known, Object, Oid, Store, Value};
use std::fmt;

/// Evaluation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The entry-point OID does not exist.
    NoSuchEntry(Oid),
    /// A `WITHIN`/`ANS INT` clause names a missing or non-set object.
    BadDatabase(Oid),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NoSuchEntry(o) => write!(f, "no such entry point: {o}"),
            EvalError::BadDatabase(o) => write!(f, "not a database object: {o}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Counters from one evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Product states visited during the selection traversal.
    pub sel_states_visited: usize,
    /// Candidates whose condition was evaluated.
    pub candidates_tested: usize,
    /// Product states visited across all condition traversals, each
    /// until its condition was decided: a traversal stops at the first
    /// object that satisfies the predicate.
    pub cond_states_visited: usize,
}

/// The result of a query: the answer OIDs (sorted by name) and stats.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Answer {
    /// Answer members.
    pub oids: Vec<Oid>,
    /// Evaluation counters.
    pub stats: EvalStats,
}

impl Answer {
    /// Materialize this answer as an object
    /// `<ans_oid, answer, set, {...}>` (paper §2).
    pub fn into_object(self, ans_oid: Oid) -> Object {
        Object {
            oid: ans_oid,
            label: well_known::answer(),
            value: Value::set_of(self.oids),
        }
    }

    /// True iff the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }
}

/// Evaluate a query against a store, walking forward from the entry.
pub fn evaluate(store: &Store, query: &Query) -> Result<Answer, EvalError> {
    evaluate_with(store, query, |_| SelStrategy::Forward).map(|(answer, _)| answer)
}

/// The evaluation body. `plan` picks how the candidates
/// `entry.sel_path` are produced, which is all a strategy changes;
/// scoping, the condition check and `ANS INT` are the same under each.
pub(crate) fn evaluate_with(
    store: &Store,
    query: &Query,
    plan: impl FnOnce(&PathExpr) -> SelStrategy,
) -> Result<(Answer, SelStrategy), EvalError> {
    let mut stats = EvalStats::default();

    // Resolve the WITHIN filter.
    let within_members = query
        .within
        .map(|db| database_members(store, db))
        .transpose()?;
    let filter = |o: Oid| within_members.as_ref().is_none_or(|m| m.contains(o));

    let start = query.entry.oid();
    if !store.contains(start) {
        return Err(EvalError::NoSuchEntry(start));
    }

    // Candidates: objects in entry.sel_path, under the WITHIN filter.
    // Every walk of this query runs in one scratch.
    let mut scratch = WalkScratch::default();
    let sel_expr = query.sel_expr();
    let strategy = plan(&sel_expr);
    // A forward selection hands each candidate's slot to its condition
    // walk.
    let (candidates, tstats): (Vec<(Oid, Option<u32>)>, _) = match &strategy {
        SelStrategy::Forward => {
            let nfa = sel_expr.nfa();
            let (found, tstats) =
                scratch.reach_slots(store, start, &nfa, nfa.start_mask(), &filter);
            let found = found.into_iter().map(|(o, slot)| (o, Some(slot)));
            (found.collect(), tstats)
        }
        SelStrategy::Backward { labels } => {
            let (found, tstats) =
                backward_in(&mut scratch, store, start, &sel_expr, labels, &filter);
            (found.into_iter().map(|o| (o, None)).collect(), tstats)
        }
    };
    stats.sel_states_visited = tstats.states_visited;

    // Condition check per candidate, one automaton for all of them.
    // `cond()` is existential, so each walk stops at its first witness.
    let cond = query.cond.as_ref().map(|c| (c.path.nfa(), &c.pred));
    let mut result = Vec::new();
    for (x, at) in candidates {
        let keep = match &cond {
            None => true,
            Some((nfa, pred)) => {
                stats.candidates_tested += 1;
                let start = nfa.start_mask();
                let (hit, cstats) = scratch.any(store, x, at, nfa, start, &filter, |_, slot| {
                    pred.holds_at(store, slot)
                });
                stats.cond_states_visited += cstats.states_visited;
                hit
            }
        };
        if keep {
            result.push(x);
        }
    }

    // ANS INT intersection.
    if let Some(db) = query.ans_int {
        let members = database_members(store, db)?;
        result.retain(|o| members.contains(*o));
    }

    let answer = Answer {
        oids: result,
        stats,
    };
    Ok((answer, strategy))
}

/// Evaluate and store the answer object under `ans_oid`.
pub fn evaluate_into(store: &mut Store, query: &Query, ans_oid: Oid) -> Result<Oid, EvalError> {
    let ans = evaluate(store, query)?;
    store
        .create(ans.into_object(ans_oid))
        .map_err(|_| EvalError::BadDatabase(ans_oid))?;
    Ok(ans_oid)
}

fn database_members(store: &Store, db: Oid) -> Result<gsdb::OidSet, EvalError> {
    let obj = store.get(db).ok_or(EvalError::BadDatabase(db))?;
    obj.value
        .as_set()
        .cloned()
        .ok_or(EvalError::BadDatabase(db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Entry;
    use crate::parser::{parse_query, parse_viewdef};
    use gsdb::{database, samples};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    #[test]
    fn query_professors_older_than_40() {
        // Paper §2: "SELECT ROOT.professor X WHERE X.age > 40 will
        // return <ANS, answer, set, {P1}>".
        let s = person_store();
        let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").unwrap();
        let ans = evaluate(&s, &q).unwrap();
        assert_eq!(ans.oids, vec![oid("P1")]);
    }

    #[test]
    fn answer_object_shape() {
        let mut s = person_store();
        let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").unwrap();
        let a = evaluate_into(&mut s, &q, oid("ANS")).unwrap();
        let obj = s.get(a).unwrap();
        assert_eq!(obj.label.as_str(), "answer");
        assert_eq!(obj.children(), &[oid("P1")]);
    }

    #[test]
    fn example_3_view_vj_selects_p1_and_p3() {
        // VJ: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON
        // → {P1, P3}.
        let s = person_store();
        let v =
            parse_viewdef("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON")
                .unwrap();
        let ans = evaluate(&s, &v.query).unwrap();
        assert_eq!(ans.oids, vec![oid("P1"), oid("P3")]);
    }

    #[test]
    fn within_clause_ignores_outside_oids() {
        // Paper §2: with all nodes in D1 except A1, the age>40 query
        // WITHIN D1 has an empty result.
        let mut s = person_store();
        let members: Vec<Oid> = database::members(&s, oid("PERSON"))
            .unwrap()
            .into_iter()
            .filter(|&o| o != oid("A1"))
            .collect();
        database::database_of(&mut s, oid("D1"), &members).unwrap();
        let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40 WITHIN D1").unwrap();
        let ans = evaluate(&s, &q).unwrap();
        assert!(ans.is_empty(), "A1 outside D1 must be invisible");
    }

    #[test]
    fn ans_int_constrains_answer_but_not_evaluation() {
        // Paper §2: same scenario, but ANS INT D1 returns {P1} because
        // condition evaluation may follow remote pointers.
        let mut s = person_store();
        let members: Vec<Oid> = database::members(&s, oid("PERSON"))
            .unwrap()
            .into_iter()
            .filter(|&o| o != oid("A1"))
            .collect();
        database::database_of(&mut s, oid("D1"), &members).unwrap();
        let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40 ANS INT D1").unwrap();
        let ans = evaluate(&s, &q).unwrap();
        assert_eq!(ans.oids, vec![oid("P1")]);

        // And if P1 (not A1) is the one outside D1, the answer is empty.
        let members2: Vec<Oid> = database::members(&s, oid("PERSON"))
            .unwrap()
            .into_iter()
            .filter(|&o| o != oid("P1"))
            .collect();
        database::database_of(&mut s, oid("D2"), &members2).unwrap();
        let q2 = parse_query("SELECT ROOT.professor X WHERE X.age > 40 ANS INT D2").unwrap();
        assert!(evaluate(&s, &q2).unwrap().is_empty());
    }

    #[test]
    fn query_answer_insensitive_to_location_without_scope() {
        // Paper §2: the query "is insensitive to the location of
        // objects" when no scope clause is given.
        let s = person_store();
        let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").unwrap();
        assert_eq!(evaluate(&s, &q).unwrap().oids, vec![oid("P1")]);
    }

    #[test]
    fn views_3_4_prof_student_hierarchy() {
        let s = person_store();
        let prof_q = parse_viewdef("define view PROF as: SELECT ROOT.*.professor X")
            .unwrap()
            .query;
        let profs = evaluate(&s, &prof_q).unwrap();
        assert_eq!(profs.oids, vec![oid("P1"), oid("P2")]);
    }

    #[test]
    fn db_entry_point_via_database_all() {
        let s = person_store();
        let q = Query::select(
            Entry::DatabaseAll(oid("PERSON")),
            PathExpr::parse("age").unwrap(),
        );
        // Every member of PERSON that has an age child contributes; the
        // reached age objects are A1, A3, A4.
        let ans = evaluate(&s, &q).unwrap();
        assert_eq!(ans.oids, vec![oid("A1"), oid("A3"), oid("A4")]);
    }

    #[test]
    fn missing_entry_is_an_error() {
        let s = person_store();
        let q = parse_query("SELECT NOWHERE.a X").unwrap();
        assert_eq!(
            evaluate(&s, &q).unwrap_err(),
            EvalError::NoSuchEntry(oid("NOWHERE"))
        );
    }

    #[test]
    fn missing_within_db_is_an_error() {
        let s = person_store();
        let q = parse_query("SELECT ROOT.professor X WITHIN GHOSTDB").unwrap();
        assert_eq!(
            evaluate(&s, &q).unwrap_err(),
            EvalError::BadDatabase(oid("GHOSTDB"))
        );
    }

    #[test]
    fn empty_condition_path_tests_candidate_itself() {
        let s = person_store();
        let q = parse_query("SELECT ROOT.professor.age X WHERE X > 40").unwrap();
        let ans = evaluate(&s, &q).unwrap();
        assert_eq!(ans.oids, vec![oid("A1")]);
    }

    #[test]
    fn stats_are_populated() {
        let s = person_store();
        let q = parse_query("SELECT ROOT.* X WHERE X.name = 'John'").unwrap();
        let ans = evaluate(&s, &q).unwrap();
        assert!(ans.stats.sel_states_visited >= 15);
        assert!(ans.stats.candidates_tested >= 15);
        assert!(ans.stats.cond_states_visited > 0);
    }
}
