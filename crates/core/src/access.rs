//! Query access control through views (paper §3.1):
//!
//! "We can also envision an authorization system where user queries are
//! automatically expanded to include `ANS INT` or `WITHIN` clauses for
//! the union of views the user is authorized to access. This way users
//! would only be able to access authorized data ... Since views can be
//! changed, it is easy to dynamically modify the privilege of a user."

use gsdb::{Oid, Store};
use gsview_query::{evaluate, Answer, EvalError, Query};

/// How the authorizer constrains user queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enforcement {
    /// Expand queries with `ANS INT <union>`: answers are filtered to
    /// authorized objects, but traversal may pass through others.
    AnsInt,
    /// Expand queries with `WITHIN <union>`: unauthorized objects are
    /// invisible even during traversal (strictest).
    Within,
}

/// An authorization wrapper: a user and the views they may access.
#[derive(Clone, Debug)]
pub struct Authorizer {
    /// The (virtual or materialized) view objects the user may see.
    pub granted_views: Vec<Oid>,
    /// Enforcement mode.
    pub enforcement: Enforcement,
    counter: u64,
}

impl Authorizer {
    /// Build an authorizer.
    pub fn new(granted_views: Vec<Oid>, enforcement: Enforcement) -> Self {
        Authorizer {
            granted_views,
            enforcement,
            counter: 0,
        }
    }

    /// Grant access to one more view.
    pub fn grant(&mut self, view: Oid) {
        if !self.granted_views.contains(&view) {
            self.granted_views.push(view);
        }
    }

    /// Revoke a view ("it is easy to dynamically modify the privilege
    /// of a user").
    pub fn revoke(&mut self, view: Oid) {
        self.granted_views.retain(|&v| v != view);
    }

    /// Run a user query under this authorization: materializes the
    /// union of granted views as a scratch database object, expands
    /// the query with the enforcement clause, and evaluates.
    ///
    /// Needs `&mut Store` for the scratch union object (the paper's
    /// `union(S1, S2)` set operation produces objects too).
    pub fn run(&mut self, store: &mut Store, query: &Query) -> Result<Answer, EvalError> {
        self.counter += 1;
        let union_oid = Oid::new(&format!("AUTH.{}.{}", query.var, self.counter));
        let mut members = gsdb::OidSet::new();
        for &v in &self.granted_views {
            let obj = store.get(v).ok_or(EvalError::BadDatabase(v))?;
            let set = obj.value.as_set().ok_or(EvalError::BadDatabase(v))?;
            for o in set.iter() {
                members.insert(o);
            }
        }
        store
            .create(gsdb::Object {
                oid: union_oid,
                label: gsdb::Label::new("authorized"),
                value: gsdb::Value::Set(members),
            })
            .map_err(|_| EvalError::BadDatabase(union_oid))?;
        let mut q = query.clone();
        match self.enforcement {
            Enforcement::AnsInt => q.ans_int = Some(union_oid),
            Enforcement::Within => q.within = Some(union_oid),
        }
        let result = evaluate(store, &q);
        // Drop the scratch object.
        let _ = store.apply(gsdb::Update::Remove { oid: union_oid });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtualview::define_virtual_view;
    use gsdb::samples;
    use gsview_query::{parse_query, parse_viewdef};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn store_with_vj() -> Store {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def =
            parse_viewdef("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON")
                .unwrap();
        define_virtual_view(&mut store, &def).unwrap();
        store
    }

    #[test]
    fn ans_int_enforcement_filters_answers() {
        let mut store = store_with_vj();
        let mut auth = Authorizer::new(vec![oid("VJ")], Enforcement::AnsInt);
        let q = parse_query("SELECT ROOT.professor X").unwrap();
        let ans = auth.run(&mut store, &q).unwrap();
        // P2 is a professor but not named John: filtered out.
        assert_eq!(ans.oids, vec![oid("P1")]);
    }

    #[test]
    fn within_enforcement_blocks_traversal() {
        let mut store = store_with_vj();
        let mut auth = Authorizer::new(vec![oid("VJ")], Enforcement::Within);
        // ROOT itself is not in VJ, so traversal cannot even start.
        let q = parse_query("SELECT ROOT.professor X").unwrap();
        let ans = auth.run(&mut store, &q).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn revocation_takes_effect_immediately() {
        let mut store = store_with_vj();
        let mut auth = Authorizer::new(vec![oid("VJ")], Enforcement::AnsInt);
        let q = parse_query("SELECT ROOT.professor X").unwrap();
        assert_eq!(auth.run(&mut store, &q).unwrap().oids, vec![oid("P1")]);
        auth.revoke(oid("VJ"));
        assert!(auth.run(&mut store, &q).unwrap().is_empty());
        auth.grant(oid("VJ"));
        assert_eq!(auth.run(&mut store, &q).unwrap().oids, vec![oid("P1")]);
    }

    #[test]
    fn union_of_multiple_views() {
        let mut store = store_with_vj();
        let sally = parse_viewdef(
            "define view VS as: SELECT ROOT.* X WHERE X.name = 'Sally' WITHIN PERSON",
        )
        .unwrap();
        define_virtual_view(&mut store, &sally).unwrap();
        let mut auth = Authorizer::new(vec![oid("VJ"), oid("VS")], Enforcement::AnsInt);
        let q = parse_query("SELECT ROOT.professor X").unwrap();
        let ans = auth.run(&mut store, &q).unwrap();
        assert_eq!(ans.oids, vec![oid("P1"), oid("P2")]);
    }

    #[test]
    fn scratch_objects_are_cleaned_up() {
        let mut store = store_with_vj();
        let before = store.len();
        let mut auth = Authorizer::new(vec![oid("VJ")], Enforcement::AnsInt);
        let q = parse_query("SELECT ROOT.professor X").unwrap();
        auth.run(&mut store, &q).unwrap();
        auth.run(&mut store, &q).unwrap();
        assert_eq!(store.len(), before);
    }
}
