//! Edge visibility in views — a §6 open issue:
//!
//! "How does one define and maintain views whose edges (relationships)
//! can be explicitly shown or hidden?"
//!
//! The paper's Figure 1 discussion is the motivation: the view {B, C}
//! conceptually includes the edge B→C but not B→D, yet "the user could
//! anyway retrieve the contents of B which somewhere contains the C, D
//! pointers." An [`EdgePolicy`] makes this explicit for materialized
//! views: after materialization, each delegate's value is filtered —
//! an edge `(parent_label, child_label)` is kept only if the policy
//! admits it. Re-applying the policy after maintenance keeps it in
//! force (maintenance refreshes delegate values from base data).

use crate::mview::MaterializedView;
use gsdb::{Label, Oid, Result, Store};
use std::collections::HashSet;

/// Which edges a view exposes.
#[derive(Clone, Debug, Default)]
pub struct EdgePolicy {
    /// Hidden `(parent_label, child_label)` pairs.
    hidden_pairs: HashSet<(Label, Label)>,
    /// Child labels hidden regardless of parent.
    hidden_children: HashSet<Label>,
    /// When set, *only* these child labels are visible (an allow-list;
    /// checked after the deny rules).
    visible_children: Option<HashSet<Label>>,
}

impl EdgePolicy {
    /// An all-visible policy.
    pub fn show_all() -> Self {
        EdgePolicy::default()
    }

    /// Hide edges from `parent_label` objects to `child_label` objects.
    pub fn hide_pair(
        mut self,
        parent_label: impl Into<Label>,
        child_label: impl Into<Label>,
    ) -> Self {
        self.hidden_pairs
            .insert((parent_label.into(), child_label.into()));
        self
    }

    /// Hide all edges to objects labeled `child_label`.
    pub fn hide_child(mut self, child_label: impl Into<Label>) -> Self {
        self.hidden_children.insert(child_label.into());
        self
    }

    /// Show only edges to the listed child labels.
    pub fn show_only(mut self, child_labels: impl IntoIterator<Item = &'static str>) -> Self {
        self.visible_children = Some(child_labels.into_iter().map(Label::new).collect());
        self
    }

    /// Is an edge visible under this policy?
    pub fn admits(&self, parent_label: Label, child_label: Label) -> bool {
        if self.hidden_children.contains(&child_label)
            || self.hidden_pairs.contains(&(parent_label, child_label))
        {
            return false;
        }
        match &self.visible_children {
            Some(allow) => allow.contains(&child_label),
            None => true,
        }
    }
}

/// Apply the policy to every delegate of a materialized view, using
/// `base` to resolve the labels of base OIDs inside delegate values
/// (delegate OIDs of the same view resolve inside the view). Returns
/// the number of edges hidden.
pub fn apply_policy(mv: &mut MaterializedView, base: &Store, policy: &EdgePolicy) -> Result<usize> {
    let view = mv.view_oid();
    let mut hidden = 0usize;
    for d in mv.members_delegates() {
        let Some(obj) = mv.delegate(d) else { continue };
        let parent_label = obj.label;
        let to_hide: Vec<Oid> = obj
            .children()
            .iter()
            .copied()
            .filter(|&c| {
                let label = match c.split_delegate() {
                    Some((v, inner)) if v == view => mv
                        .delegate(c)
                        .map(|o| o.label)
                        .or_else(|| base.label(inner)),
                    _ => base.label(c),
                };
                match label {
                    Some(l) => !policy.admits(parent_label, l),
                    None => false, // unknown labels stay (conservative)
                }
            })
            .collect();
        if to_hide.is_empty() {
            continue;
        }
        hidden += to_hide.len();
        mv.edit_delegate(d, |v| {
            if let Some(set) = v.as_set_mut() {
                for c in &to_hide {
                    set.remove(*c);
                }
            }
        })?;
    }
    Ok(hidden)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::LocalBase;
    use crate::recompute::recompute;
    use crate::viewdef::SimpleViewDef;
    use gsdb::samples;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn setup() -> (Store, MaterializedView) {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = SimpleViewDef::new("EP", "ROOT", "professor");
        let mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        (store, mv)
    }

    #[test]
    fn hide_child_label_everywhere() {
        let (store, mut mv) = setup();
        let hidden = apply_policy(
            &mut mv,
            &store,
            &EdgePolicy::show_all().hide_child("salary"),
        )
        .unwrap();
        assert_eq!(hidden, 1, "P1's salary edge hidden");
        let p1 = mv.delegate(oid("EP.P1")).unwrap();
        assert!(!p1.children().contains(&oid("S1")));
        assert!(p1.children().contains(&oid("N1")), "names stay visible");
    }

    #[test]
    fn hide_specific_pair() {
        let (store, mut mv) = setup();
        let hidden = apply_policy(
            &mut mv,
            &store,
            &EdgePolicy::show_all().hide_pair("professor", "student"),
        )
        .unwrap();
        assert_eq!(hidden, 1);
        let p1 = mv.delegate(oid("EP.P1")).unwrap();
        assert!(!p1.children().contains(&oid("P3")));
    }

    #[test]
    fn allow_list_mode() {
        let (store, mut mv) = setup();
        apply_policy(&mut mv, &store, &EdgePolicy::show_all().show_only(["name"])).unwrap();
        for d in mv.members_delegates() {
            for &c in mv.delegate(d).unwrap().children() {
                assert_eq!(store.label(c).unwrap().as_str(), "name");
            }
        }
    }

    #[test]
    fn policy_composes_with_swizzling() {
        // Swizzled intra-view edges resolve labels inside the view.
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let def = SimpleViewDef::new("EPS", "ROOT", "professor.student");
        let mut mv = recompute(&def, &mut LocalBase::new(&store)).unwrap();
        let p1 = store.get(oid("P1")).unwrap().clone();
        mv.v_insert(&p1).unwrap();
        mv.swizzle().unwrap();
        let hidden = apply_policy(
            &mut mv,
            &store,
            &EdgePolicy::show_all().hide_pair("professor", "student"),
        )
        .unwrap();
        assert_eq!(hidden, 1, "the swizzled P1→P3 edge is hidden");
        let p1d = mv.delegate(Oid::delegate(oid("EPS"), oid("P1"))).unwrap();
        assert!(!p1d
            .children()
            .contains(&Oid::delegate(oid("EPS"), oid("P3"))));
    }

    #[test]
    fn reapplying_after_maintenance_restores_policy() {
        use crate::maintain::Maintainer;
        let (mut store, mut mv) = setup();
        let policy = EdgePolicy::show_all().hide_child("salary");
        apply_policy(&mut mv, &store, &policy).unwrap();
        // A base change to P1 refreshes its delegate (bringing the
        // hidden edge back), so the policy is re-applied afterwards.
        let def = SimpleViewDef::new("EP", "ROOT", "professor");
        let m = Maintainer::new(def);
        store
            .create(gsdb::Object::atom("H9", "hobby", "go"))
            .unwrap();
        let up = store.insert_edge(oid("P1"), oid("H9")).unwrap();
        m.apply(&mut mv, &mut LocalBase::new(&store), &up).unwrap();
        let p1 = mv.delegate(oid("EP.P1")).unwrap();
        assert!(
            p1.children().contains(&oid("S1")),
            "refresh restored the raw value"
        );
        apply_policy(&mut mv, &store, &policy).unwrap();
        let p1 = mv.delegate(oid("EP.P1")).unwrap();
        assert!(!p1.children().contains(&oid("S1")));
        assert!(p1.children().contains(&oid("H9")));
    }
}
