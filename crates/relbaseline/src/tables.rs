//! The three-table relational encoding of a GSDB (paper Example 8):
//!
//! * `OID-LABEL` — OIDs and labels of all objects;
//! * `PARENT-CHILD` — the edges of all set objects;
//! * `OID-TYPE-VALUE` — atomic objects and their (union-typed) values.
//!
//! Edges carry multiplicity counts so the standard counting approach
//! to incremental view maintenance applies; with GSDB set semantics the
//! counts are 0/1, but the maintenance algebra does not rely on that.
//!
//! A row-operations counter measures the work done by queries and
//! delta propagation — the comparison currency for experiment E3
//! (relational flattening vs native maintenance).

use gsdb::{AppliedUpdate, Atom, Label, Oid};
use std::cell::Cell;
use std::collections::HashMap;

/// The relational image of a GSDB.
#[derive(Debug, Default)]
pub struct RelDb {
    /// OID-LABEL.
    oid_label: HashMap<Oid, Label>,
    /// PARENT-CHILD, forward adjacency with counts.
    pc: HashMap<Oid, HashMap<Oid, i64>>,
    /// PARENT-CHILD, reverse adjacency with counts.
    pc_rev: HashMap<Oid, HashMap<Oid, i64>>,
    /// OID-TYPE-VALUE.
    oid_value: HashMap<Oid, Atom>,
    /// Row operations performed (reads of any table row).
    ops: Cell<u64>,
}

/// A delta against one of the three tables, as produced by
/// [`RelDb::apply_update`]. One GSDB update can touch several tables —
/// the consistency hazard paper Example 8 points out.
#[derive(Clone, Debug, PartialEq)]
pub enum TableDelta {
    /// `(parent, child)` gained (+1) or lost (−1) in PARENT-CHILD.
    Edge {
        /// Parent OID.
        parent: Oid,
        /// Child OID.
        child: Oid,
        /// +1 or −1.
        sign: i64,
    },
    /// OID-TYPE-VALUE changed for `oid` (a modify: −old, +new).
    Value {
        /// The atomic object.
        oid: Oid,
        /// The value removed.
        old: Atom,
        /// The value added.
        new: Atom,
    },
    /// A row appeared in / vanished from OID-LABEL (creation/removal
    /// of an unlinked object — never affects views).
    LabelRow {
        /// The object.
        oid: Oid,
        /// +1 or −1.
        sign: i64,
    },
}

impl RelDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flatten a GSDB store into the three tables.
    pub fn encode(store: &gsdb::Store) -> RelDb {
        let mut db = RelDb::new();
        for obj in store.iter() {
            db.oid_label.insert(obj.oid, obj.label);
            match &obj.value {
                gsdb::Value::Atom(a) => {
                    db.oid_value.insert(obj.oid, a.clone());
                }
                gsdb::Value::Set(children) => {
                    for c in children.iter() {
                        *db.pc.entry(obj.oid).or_default().entry(c).or_insert(0) += 1;
                        *db.pc_rev.entry(c).or_default().entry(obj.oid).or_insert(0) += 1;
                    }
                }
            }
        }
        db
    }

    /// Apply one GSDB update to the tables; returns the table deltas
    /// (already applied) for the maintenance algorithm.
    pub fn apply_update(&mut self, update: &AppliedUpdate) -> Vec<TableDelta> {
        match update {
            AppliedUpdate::Insert { parent, child } => {
                *self.pc.entry(*parent).or_default().entry(*child).or_insert(0) += 1;
                *self
                    .pc_rev
                    .entry(*child)
                    .or_default()
                    .entry(*parent)
                    .or_insert(0) += 1;
                vec![TableDelta::Edge {
                    parent: *parent,
                    child: *child,
                    sign: 1,
                }]
            }
            AppliedUpdate::Delete { parent, child } => {
                if let Some(row) = self.pc.get_mut(parent) {
                    if let Some(c) = row.get_mut(child) {
                        *c -= 1;
                        if *c == 0 {
                            row.remove(child);
                        }
                    }
                }
                if let Some(row) = self.pc_rev.get_mut(child) {
                    if let Some(c) = row.get_mut(parent) {
                        *c -= 1;
                        if *c == 0 {
                            row.remove(parent);
                        }
                    }
                }
                vec![TableDelta::Edge {
                    parent: *parent,
                    child: *child,
                    sign: -1,
                }]
            }
            AppliedUpdate::Modify { oid, old, new } => {
                self.oid_value.insert(*oid, new.clone());
                vec![TableDelta::Value {
                    oid: *oid,
                    old: old.clone(),
                    new: new.clone(),
                }]
            }
            AppliedUpdate::Create { oid } => vec![TableDelta::LabelRow { oid: *oid, sign: 1 }],
            AppliedUpdate::Remove { oid } => {
                self.oid_label.remove(oid);
                self.oid_value.remove(oid);
                vec![TableDelta::LabelRow {
                    oid: *oid,
                    sign: -1,
                }]
            }
        }
    }

    /// Register a created object's rows (used when the GSDB `Create`
    /// carries label/value; call alongside `apply_update`).
    pub fn register_object(&mut self, obj: &gsdb::Object) {
        self.oid_label.insert(obj.oid, obj.label);
        if let Some(a) = obj.atom_value() {
            self.oid_value.insert(obj.oid, a.clone());
        }
        for c in obj.children() {
            *self.pc.entry(obj.oid).or_default().entry(*c).or_insert(0) += 1;
            *self.pc_rev.entry(*c).or_default().entry(obj.oid).or_insert(0) += 1;
        }
    }

    /// Label lookup (one row operation).
    pub fn label(&self, oid: Oid) -> Option<Label> {
        self.ops.set(self.ops.get() + 1);
        self.oid_label.get(&oid).copied()
    }

    /// Value lookup (one row operation).
    pub fn value(&self, oid: Oid) -> Option<&Atom> {
        self.ops.set(self.ops.get() + 1);
        self.oid_value.get(&oid)
    }

    /// Children rows of `parent` (counts as one op per row returned).
    pub fn children(&self, parent: Oid) -> impl Iterator<Item = (Oid, i64)> + '_ {
        let iter = self.pc.get(&parent).into_iter().flatten();
        iter.map(|(&c, &n)| {
            self.ops.set(self.ops.get() + 1);
            (c, n)
        })
    }

    /// Parent rows of `child` (counts as one op per row returned).
    pub fn parents(&self, child: Oid) -> impl Iterator<Item = (Oid, i64)> + '_ {
        let iter = self.pc_rev.get(&child).into_iter().flatten();
        iter.map(|(&p, &n)| {
            self.ops.set(self.ops.get() + 1);
            (p, n)
        })
    }

    /// Row operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Reset the row-operation counter.
    pub fn reset_ops(&self) {
        self.ops.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{samples, Store};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    #[test]
    fn encode_matches_example_8_shape() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let db = RelDb::encode(&store);
        // OID-LABEL rows: one per object.
        assert_eq!(db.label(oid("ROOT")).unwrap().as_str(), "person");
        assert_eq!(db.label(oid("P1")).unwrap().as_str(), "professor");
        // PARENT-CHILD rows as in the paper's table.
        let root_children: Vec<Oid> = db.children(oid("ROOT")).map(|(c, _)| c).collect();
        assert_eq!(root_children.len(), 4);
        // OID-TYPE-VALUE rows.
        assert_eq!(db.value(oid("N1")), Some(&Atom::str("John")));
        assert_eq!(db.value(oid("A1")), Some(&Atom::Int(45)));
        // Set objects have no value rows.
        assert_eq!(db.value(oid("P1")), None);
    }

    #[test]
    fn updates_produce_table_deltas() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let mut db = RelDb::encode(&store);

        let up = store.modify_atom(oid("A1"), 50i64).unwrap();
        let deltas = db.apply_update(&up);
        assert_eq!(deltas.len(), 1);
        assert!(matches!(&deltas[0], TableDelta::Value { old, new, .. }
            if *old == Atom::Int(45) && *new == Atom::Int(50)));
        assert_eq!(db.value(oid("A1")), Some(&Atom::Int(50)));

        let up = store.delete_edge(oid("ROOT"), oid("P1")).unwrap();
        let deltas = db.apply_update(&up);
        assert!(matches!(&deltas[0], TableDelta::Edge { sign: -1, .. }));
        assert!(!db.children(oid("ROOT")).any(|(c, _)| c == oid("P1")));
        assert!(!db.parents(oid("P1")).any(|(p, _)| p == oid("ROOT")));
    }

    #[test]
    fn single_gsdb_create_touches_multiple_tables() {
        // The paper's consistency point: an atomic-object insertion
        // needs rows in OID-LABEL and OID-TYPE-VALUE, and an edge row.
        let mut db = RelDb::new();
        let obj = gsdb::Object::atom("A2", "age", 40i64);
        db.register_object(&obj);
        assert!(db.label(oid("A2")).is_some());
        assert!(db.value(oid("A2")).is_some());
    }

    #[test]
    fn ops_counter_counts_row_touches() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let db = RelDb::encode(&store);
        db.reset_ops();
        let _: Vec<_> = db.children(oid("ROOT")).collect();
        assert_eq!(db.ops(), 4);
        let _ = db.label(oid("P1"));
        assert_eq!(db.ops(), 5);
    }
}
