//! Full view recomputation — the baseline Algorithm 1 is compared
//! against (paper §4.4: "Is incremental view maintenance more
//! efficient than recomputing the entire view?") and the correctness
//! oracle for the incremental maintainer.

use crate::base::BaseAccess;
use crate::mview::MaterializedView;
use crate::sink::{reconcile, refresh_touched};
use crate::viewdef::SimpleViewDef;
use gsdb::{Oid, Result};

/// The member set of the view, computed from scratch: all `Y` in
/// `ROOT.sel_path` with `cond(Y.cond_path)` true (paper §2 semantics).
/// Sorted by OID name.
pub fn recompute_members(def: &SimpleViewDef, base: &mut dyn BaseAccess) -> Vec<Oid> {
    let candidates = base.eval(def.root, &def.sel_path, None);
    let mut members: Vec<Oid> = match &def.cond {
        None => candidates,
        Some(c) => candidates
            .into_iter()
            .filter(|&y| !base.eval(y, &c.path, Some(&c.pred)).is_empty())
            .collect(),
    };
    members.sort_by_key(|o| o.name());
    members
}

/// Materialize the view from scratch.
pub fn recompute(def: &SimpleViewDef, base: &mut dyn BaseAccess) -> Result<MaterializedView> {
    let mut mv = MaterializedView::new(def.view);
    for y in recompute_members(def, base) {
        if let Some(obj) = base.fetch(y) {
            mv.v_insert(&obj)?;
        }
    }
    Ok(mv)
}

/// Bring an existing materialized view to the freshly recomputed state
/// (delete stale members, insert missing ones, refresh stale values).
/// Returns `(inserted, deleted)` counts. This is what "recomputing the
/// entire view" costs when the view object must be kept (its delegates
/// "would have to be recreated ... each time a base update occurs",
/// §4.4 Example 7).
pub fn refresh(
    def: &SimpleViewDef,
    base: &mut dyn BaseAccess,
    mv: &mut MaterializedView,
) -> Result<(usize, usize)> {
    let fresh = recompute_members(def, base);
    let fetch = &mut |y: Oid| base.fetch(y);
    let (inserted, deleted) = reconcile(mv, &fresh.iter().copied().collect(), fetch)?;
    // Persisting members: recomputation rewrites their values.
    refresh_touched(mv, &fresh, &inserted, fetch)?;
    Ok((inserted.len(), deleted.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::LocalBase;
    use gsdb::{samples, Store};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    #[test]
    fn recompute_yp_from_example_5() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = crate::SimpleViewDef::new("YP", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1")]);
        assert_eq!(mv.view_oid(), oid("YP"));
    }

    #[test]
    fn recompute_agrees_with_query_evaluator() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = crate::SimpleViewDef::new("V", "ROOT", "professor")
            .with_cond("name", Pred::new(CmpOp::Eq, "Sally"));
        let members = recompute_members(&def, &mut LocalBase::new(&store));
        let ans = gsview_query::evaluate(&store, &def.to_query()).unwrap();
        assert_eq!(members, ans.oids);
        assert_eq!(members, vec![oid("P2")]);
    }

    #[test]
    fn refresh_converges_to_recompute() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = crate::SimpleViewDef::new("YP", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        // Base changes happen without maintenance...
        store.modify_atom(oid("A1"), 80i64).unwrap();
        store
            .create(gsdb::Object::atom("A2", "age", 30i64))
            .unwrap();
        store.insert_edge(oid("P2"), oid("A2")).unwrap();
        // ...then a refresh reconciles.
        let (ins, del) = refresh(&def, &mut LocalBase::new(&store), &mut mv).unwrap();
        assert_eq!((ins, del), (1, 1));
        assert_eq!(mv.members_base(), vec![oid("P2")]);
    }

    #[test]
    fn structural_view_recompute() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = crate::SimpleViewDef::new("ALLP", "ROOT", "professor");
        let mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        assert_eq!(mv.members_base(), vec![oid("P1"), oid("P2")]);
    }
}
