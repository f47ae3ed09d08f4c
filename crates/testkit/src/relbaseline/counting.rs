//! Counting-based incremental maintenance of the flattened view
//! (paper §4.4's second discussion question, and Example 8).
//!
//! The simple view `SELECT ROOT.l1...lk X WHERE cond(X.m1...mj)`
//! compiles, relationally, to a Select-Project-Join expression with
//! `k + j` self-joins of PARENT-CHILD (each joined with OID-LABEL for
//! its level's label, and the last with OID-TYPE-VALUE for the
//! predicate). We maintain it with the counting algorithm of Gupta,
//! Mumick & Subrahmanian (SIGMOD '93): the view stores, per result
//! object `Y`, the **number of derivations** (join paths); a base
//! delta contributes `Δcount = prefix-paths × suffix-paths` through
//! the changed row, and `Y` is in the view while its count is
//! positive.
//!
//! The cost asymmetry against the native Algorithm 1 is exactly what
//! the paper predicts: "the 'path semantics' are hidden in the
//! relations", so every delta must run delta-joins across the
//! self-join chain — per-level multiset walks over PARENT-CHILD —
//! whereas the native algorithm exploits path structure directly.

use super::tables::{RelDb, TableDelta};
use gsdb::{Label, Oid, Path};
use gsview_query::Pred;
use std::collections::HashMap;

/// The relational compilation of a simple view definition.
#[derive(Clone, Debug)]
pub struct RelViewDef {
    /// Entry OID (`ROOT`).
    pub root: Oid,
    /// Selection labels `l1..lk`.
    pub sel: Vec<Label>,
    /// Condition labels `m1..mj`.
    pub cond: Vec<Label>,
    /// The predicate on the final value, if any.
    pub pred: Option<Pred>,
}

impl RelViewDef {
    /// Compile from paths.
    pub fn new(root: Oid, sel: &Path, cond: &Path, pred: Option<Pred>) -> Self {
        RelViewDef {
            root,
            sel: sel.labels().to_vec(),
            cond: cond.labels().to_vec(),
            pred,
        }
    }

    /// All labels, selection then condition.
    fn all_labels(&self) -> Vec<Label> {
        let mut v = self.sel.clone();
        v.extend(self.cond.iter().copied());
        v
    }

    /// Number of self-joins in the compiled SPJ expression.
    pub fn join_depth(&self) -> usize {
        self.sel.len() + self.cond.len()
    }
}

/// The maintained view: derivation counts per member.
#[derive(Clone, Debug, Default)]
pub struct RelView {
    counts: HashMap<Oid, i64>,
}

impl RelView {
    /// Recompute from scratch (the full SPJ evaluation).
    pub fn recompute(def: &RelViewDef, db: &RelDb) -> RelView {
        let mut view = RelView::default();
        // Down-walk to the selection level...
        let at_sel = down_multiset(db, def.root, &def.sel);
        for (y, ways) in at_sel {
            let c = cond_scalar(db, def, y);
            if ways * c != 0 {
                view.counts.insert(y, ways * c);
            }
        }
        view
    }

    /// Members (support of the count multiset), sorted by name.
    pub fn members(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self
            .counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&o, _)| o)
            .collect();
        v.sort_by_key(|o| o.name());
        v
    }

    /// The derivation count of one object.
    pub fn count_of(&self, y: Oid) -> i64 {
        self.counts.get(&y).copied().unwrap_or(0)
    }

    /// Propagate one table delta (tables already reflect the delta;
    /// tree-structured bases assumed, as in paper §4.2).
    pub fn propagate(&mut self, def: &RelViewDef, db: &RelDb, delta: &TableDelta) {
        match delta {
            TableDelta::Edge {
                parent,
                child,
                sign,
            } => self.propagate_edge(def, db, *parent, *child, *sign),
            TableDelta::Value { oid, old, new } => {
                let Some(pred) = &def.pred else { return };
                let d = pred.eval(new) as i64 - pred.eval(old) as i64;
                if d == 0 {
                    return;
                }
                // o sits (if anywhere) at the tail level; find the
                // candidate Ys by climbing the condition labels, then
                // weight by paths root→Y.
                let labels = def.all_labels();
                if labels.is_empty() {
                    return;
                }
                if db.label(*oid) != Some(*labels.last().expect("nonempty")) {
                    return;
                }
                // Climb cond labels (o consumes the last one).
                let ys = up_multiset(db, *oid, &def.cond);
                for (y, ways) in ys {
                    let r = root_paths(db, def, y);
                    if r != 0 {
                        self.add(y, r * ways * d);
                    }
                }
            }
            TableDelta::LabelRow { .. } => {}
        }
    }

    fn propagate_edge(&mut self, def: &RelViewDef, db: &RelDb, p: Oid, c: Oid, sign: i64) {
        let labels = def.all_labels();
        let k = def.sel.len();
        let total = labels.len();
        let Some(cl) = db.label(c) else { return };
        // The edge can occupy any level i (1-based, child at level i)
        // whose label matches. In a tree at most one level has nonzero
        // prefix paths.
        for i in 1..=total {
            if labels[i - 1] != cl {
                continue;
            }
            // Prefix paths: root → p over labels[0..i-1] (for i = 1
            // this degenerates to "p is the root").
            let prefix = count_paths_down_to(db, def.root, &labels[..i - 1], p);
            if prefix == 0 {
                continue;
            }
            if i <= k {
                // Y lies at or below c: distribute over labels[i..k].
                let at_sel = down_multiset(db, c, &labels[i..k]);
                for (y, ways) in at_sel {
                    let cond = cond_scalar(db, def, y);
                    if cond != 0 {
                        self.add(y, sign * prefix * ways * cond);
                    }
                }
            } else {
                // Y lies above p at level k: climb labels[k..i-1] from
                // p, then weight by the suffix below c.
                let suffix = suffix_scalar(db, def, c, i);
                if suffix == 0 {
                    continue;
                }
                let ys = up_multiset_to_level(db, p, &labels, k, i);
                for (y, ways) in ys {
                    let r = root_paths(db, def, y);
                    if r != 0 {
                        self.add(y, sign * r * ways * suffix);
                    }
                }
            }
        }
    }

    fn add(&mut self, y: Oid, delta: i64) {
        let e = self.counts.entry(y).or_insert(0);
        *e += delta;
        if *e == 0 {
            self.counts.remove(&y);
        }
    }
}

/// Multiset walk down from `from` following `labels`; result maps each
/// reached object to its number of derivation paths.
fn down_multiset(db: &RelDb, from: Oid, labels: &[Label]) -> HashMap<Oid, i64> {
    let mut cur: HashMap<Oid, i64> = HashMap::from([(from, 1)]);
    for &l in labels {
        let mut next: HashMap<Oid, i64> = HashMap::new();
        for (&o, &ways) in &cur {
            for (c, n) in db.children(o) {
                if db.label(c) == Some(l) {
                    *next.entry(c).or_insert(0) += ways * n;
                }
            }
        }
        cur = next;
        if cur.is_empty() {
            break;
        }
    }
    cur
}

/// Multiset climb from `from` (which consumes `labels.last()`):
/// ancestors `A` with a label-path `labels` from `A` down to `from`.
fn up_multiset(db: &RelDb, from: Oid, labels: &[Label]) -> HashMap<Oid, i64> {
    let mut cur: HashMap<Oid, i64> = HashMap::from([(from, 1)]);
    for idx in (0..labels.len()).rev() {
        let mut next: HashMap<Oid, i64> = HashMap::new();
        for (&o, &ways) in &cur {
            if db.label(o) != Some(labels[idx]) {
                continue;
            }
            for (p, n) in db.parents(o) {
                *next.entry(p).or_insert(0) += ways * n;
            }
        }
        cur = next;
        if cur.is_empty() {
            break;
        }
    }
    cur
}

/// Paths from `root` down `labels` that end exactly at `target`.
fn count_paths_down_to(db: &RelDb, root: Oid, labels: &[Label], target: Oid) -> i64 {
    // Climbing from the target is cheaper than walking down from the
    // root, but costs the same row kinds; we climb.
    up_multiset(db, target, labels)
        .get(&root)
        .copied()
        .unwrap_or(0)
}

/// Paths root → y over the selection labels.
fn root_paths(db: &RelDb, def: &RelViewDef, y: Oid) -> i64 {
    count_paths_down_to(db, def.root, &def.sel, y)
}

/// The condition factor of a member: derivations of the condition
/// sub-join below `y` (1 when the view has no condition).
fn cond_scalar(db: &RelDb, def: &RelViewDef, y: Oid) -> i64 {
    match (&def.pred, def.cond.is_empty()) {
        (None, true) => 1,
        (None, false) => down_multiset(db, y, &def.cond).values().sum(),
        (Some(pred), _) => {
            let at_tail = if def.cond.is_empty() {
                HashMap::from([(y, 1)])
            } else {
                down_multiset(db, y, &def.cond)
            };
            at_tail
                .into_iter()
                .filter(|(o, _)| db.value(*o).map(|v| pred.eval(v)).unwrap_or(false))
                .map(|(_, ways)| ways)
                .sum()
        }
    }
}

/// The suffix factor for an edge at level `i > k`: derivations of
/// labels[i..] below `c`, predicate applied at the tail.
fn suffix_scalar(db: &RelDb, def: &RelViewDef, c: Oid, i: usize) -> i64 {
    let labels = def.all_labels();
    let below = down_multiset(db, c, &labels[i..]);
    match &def.pred {
        None => below.values().sum(),
        Some(pred) => below
            .into_iter()
            .filter(|(o, _)| db.value(*o).map(|v| pred.eval(v)).unwrap_or(false))
            .map(|(_, ways)| ways)
            .sum(),
    }
}

/// Ancestors of `p` at level `k`, climbing `labels[k..i-1]` (where `p`
/// sits at level `i-1`).
fn up_multiset_to_level(
    db: &RelDb,
    p: Oid,
    labels: &[Label],
    k: usize,
    i: usize,
) -> HashMap<Oid, i64> {
    up_multiset(db, p, &labels[k..i - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{samples, Store};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn yp_def() -> RelViewDef {
        RelViewDef::new(
            oid("ROOT"),
            &Path::parse("professor"),
            &Path::parse("age"),
            Some(Pred::new(CmpOp::Le, 45i64)),
        )
    }

    fn setup() -> (Store, RelDb) {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let db = RelDb::encode(&store);
        (store, db)
    }

    #[test]
    fn recompute_matches_native_semantics() {
        let (_s, db) = setup();
        let view = RelView::recompute(&yp_def(), &db);
        assert_eq!(view.members(), vec![oid("P1")]);
        assert_eq!(view.count_of(oid("P1")), 1);
    }

    #[test]
    fn counting_handles_multiple_derivations() {
        let (mut store, _) = setup();
        // Second qualifying age under P1: two derivations.
        store
            .create(gsdb::Object::atom("A1b", "age", 30i64))
            .unwrap();
        store.insert_edge(oid("P1"), oid("A1b")).unwrap();
        let db = RelDb::encode(&store);
        let view = RelView::recompute(&yp_def(), &db);
        assert_eq!(view.count_of(oid("P1")), 2);
        assert_eq!(view.members(), vec![oid("P1")]);
    }

    #[test]
    fn value_delta_moves_members_in_and_out() {
        let (mut store, mut db) = setup();
        let def = yp_def();
        let mut view = RelView::recompute(&def, &db);
        // A1: 45 → 50, P1 leaves.
        let up = store.modify_atom(oid("A1"), 50i64).unwrap();
        for d in db.apply_update(&up) {
            view.propagate(&def, &db, &d);
        }
        assert!(view.members().is_empty());
        // Back to 44: P1 returns.
        let up = store.modify_atom(oid("A1"), 44i64).unwrap();
        for d in db.apply_update(&up) {
            view.propagate(&def, &db, &d);
        }
        assert_eq!(view.members(), vec![oid("P1")]);
    }

    #[test]
    fn edge_delta_in_condition_region() {
        let (mut store, mut db) = setup();
        let def = yp_def();
        let mut view = RelView::recompute(&def, &db);
        // insert(P2, A2) with age 40 — Example 5 relationally.
        let obj = gsdb::Object::atom("A2", "age", 40i64);
        store.create(obj.clone()).unwrap();
        db.register_object(&obj);
        let up = store.insert_edge(oid("P2"), oid("A2")).unwrap();
        for d in db.apply_update(&up) {
            view.propagate(&def, &db, &d);
        }
        assert_eq!(view.members(), vec![oid("P1"), oid("P2")]);
        // Remove it again.
        let up = store.delete_edge(oid("P2"), oid("A2")).unwrap();
        for d in db.apply_update(&up) {
            view.propagate(&def, &db, &d);
        }
        assert_eq!(view.members(), vec![oid("P1")]);
    }

    #[test]
    fn edge_delta_in_selection_region() {
        let (mut store, mut db) = setup();
        let def = yp_def();
        let mut view = RelView::recompute(&def, &db);
        // delete(ROOT, P1): the professor edge itself.
        let up = store.delete_edge(oid("ROOT"), oid("P1")).unwrap();
        for d in db.apply_update(&up) {
            view.propagate(&def, &db, &d);
        }
        assert!(view.members().is_empty());
        let up = store.insert_edge(oid("ROOT"), oid("P1")).unwrap();
        for d in db.apply_update(&up) {
            view.propagate(&def, &db, &d);
        }
        assert_eq!(view.members(), vec![oid("P1")]);
    }

    #[test]
    fn incremental_agrees_with_recompute_over_stream() {
        let (mut store, mut db) = setup();
        let def = yp_def();
        let mut view = RelView::recompute(&def, &db);
        let a2 = gsdb::Object::atom("A2", "age", 39i64);
        store.create(a2.clone()).unwrap();
        db.register_object(&a2);
        let updates = vec![
            gsdb::Update::insert("P2", "A2"),
            gsdb::Update::modify("A2", 80i64),
            gsdb::Update::modify("A2", 30i64),
            gsdb::Update::delete("P1", "A1"),
            gsdb::Update::delete("ROOT", "P2"),
            gsdb::Update::insert("ROOT", "P2"),
        ];
        for u in updates {
            let applied = store.apply(u).unwrap();
            for d in db.apply_update(&applied) {
                view.propagate(&def, &db, &d);
            }
            let expected = RelView::recompute(&def, &db);
            assert_eq!(view.members(), expected.members(), "after {applied}");
            for m in view.members() {
                assert_eq!(view.count_of(m), expected.count_of(m));
            }
        }
    }

    #[test]
    fn join_depth_reflects_path_length() {
        assert_eq!(yp_def().join_depth(), 2);
        let deep = RelViewDef::new(oid("R"), &Path::parse("a.b.c"), &Path::parse("d.e"), None);
        assert_eq!(deep.join_depth(), 5);
    }
}
