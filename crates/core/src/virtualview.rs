//! Virtual views (paper §3.1): results of view-definition queries,
//! stored as ordinary view objects `<V, view, set, value(V)>` in the
//! same store as the base data.
//!
//! Because a view object is an ordinary GSDB object, views can be
//! queried, used as entry points, used in `ANS INT` / `WITHIN`
//! clauses, and — crucially — views can be defined *on views*
//! (the PROF/STUDENT hierarchy of paper expression 3.4).

use gsdb::{label::well_known, Object, Oid, Store, Value};
use gsview_query::{evaluate, EvalError, Query, ViewDef};

/// Define a virtual view: evaluate the query and store
/// `<name, view, set, answer>` in `store`. Returns the view OID.
pub fn define_virtual_view(store: &mut Store, def: &ViewDef) -> Result<Oid, EvalError> {
    define_virtual_view_query(store, def.name, &def.query)
}

/// Define a virtual view from an in-code query.
pub fn define_virtual_view_query(
    store: &mut Store,
    name: Oid,
    query: &Query,
) -> Result<Oid, EvalError> {
    let ans = evaluate(store, query)?;
    store
        .create(Object {
            oid: name,
            label: well_known::view(),
            value: Value::set_of(ans.oids),
        })
        .map_err(|_| EvalError::BadDatabase(name))?;
    Ok(name)
}

/// Re-evaluate a virtual view's defining query and replace its value
/// (virtual views are recomputed on demand, not maintained).
pub fn refresh_virtual_view(store: &mut Store, name: Oid, query: &Query) -> Result<(), EvalError> {
    let ans = evaluate(store, query)?;
    let old: Vec<Oid> = store
        .get(name)
        .and_then(|o| o.value.as_set())
        .map(|s| s.iter().collect())
        .ok_or(EvalError::BadDatabase(name))?;
    for o in old {
        store
            .delete_edge(name, o)
            .map_err(|_| EvalError::BadDatabase(name))?;
    }
    for o in ans.oids {
        store
            .insert_edge(name, o)
            .map_err(|_| EvalError::BadDatabase(name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::samples;
    use gsview_query::{parse_query, parse_viewdef};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    #[test]
    fn example_3_define_vj() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def =
            parse_viewdef("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON")
                .unwrap();
        let v = define_virtual_view(&mut store, &def).unwrap();
        let obj = store.get(v).unwrap();
        assert_eq!(obj.label.as_str(), "view");
        assert_eq!(obj.children(), &[oid("P1"), oid("P3")]);
    }

    #[test]
    fn query_3_3_ans_int_vj() {
        // SELECT ROOT.professor X ANS INT VJ → {P1} (P2 excluded
        // because it is not in value(VJ)).
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def =
            parse_viewdef("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON")
                .unwrap();
        define_virtual_view(&mut store, &def).unwrap();
        let q = parse_query("SELECT ROOT.professor X ANS INT VJ").unwrap();
        let ans = evaluate(&store, &q).unwrap();
        assert_eq!(ans.oids, vec![oid("P1")]);
    }

    #[test]
    fn views_as_starting_points() {
        // SELECT VJ.?.age — ages of persons named John (paper §3.1).
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def =
            parse_viewdef("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON")
                .unwrap();
        define_virtual_view(&mut store, &def).unwrap();
        let q = parse_query("SELECT VJ.?.age X").unwrap();
        let ans = evaluate(&store, &q).unwrap();
        assert_eq!(ans.oids, vec![oid("A1"), oid("A3")]);
    }

    #[test]
    fn views_on_views_prof_student() {
        // Paper expression 3.4: PROF from ROOT, STUDENT from PROF.
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let prof = parse_viewdef("define view PROF as: SELECT ROOT.*.professor X").unwrap();
        define_virtual_view(&mut store, &prof).unwrap();
        let student = parse_viewdef("define view STUDENT as: SELECT PROF.?.student X").unwrap();
        define_virtual_view(&mut store, &student).unwrap();
        let sobj = store.get(oid("STUDENT")).unwrap();
        assert_eq!(sobj.children(), &[oid("P3")]);
    }

    #[test]
    fn refresh_tracks_base_changes() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").unwrap();
        define_virtual_view_query(&mut store, oid("V40"), &q).unwrap();
        assert_eq!(store.get(oid("V40")).unwrap().children(), &[oid("P1")]);
        store.modify_atom(oid("A1"), 30i64).unwrap();
        refresh_virtual_view(&mut store, oid("V40"), &q).unwrap();
        assert!(store.get(oid("V40")).unwrap().children().is_empty());
    }
}
