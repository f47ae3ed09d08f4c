//! Update-stream generation.
//!
//! Streams are generated as *scripts* — sequences of object creations
//! and basic updates — against a shadow of the database state, so the
//! same deterministic stream can be replayed against a local
//! [`Store`](gsdb::Store), a warehouse source, or the relational
//! baseline's tables.

use crate::relations::RelationsDb;
use crate::rng::rng;
use gsdb::{Object, Oid, Update};
use rand::rngs::StdRng;
use rand::Rng;

/// One scripted operation.
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptOp {
    /// Create an (unlinked) object record.
    Create(Object),
    /// Apply a basic update.
    Apply(Update),
}

impl ScriptOp {
    /// Replay this op against a store.
    pub fn replay(&self, store: &mut gsdb::Store) -> gsdb::Result<gsdb::AppliedUpdate> {
        match self {
            ScriptOp::Create(obj) => store.apply(Update::Create {
                object: obj.clone(),
            }),
            ScriptOp::Apply(u) => store.apply(u.clone()),
        }
    }
}

/// Mix of operations in a churn stream.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Total operations (tuple inserts / tuple deletes / age
    /// modifies; each tuple insert additionally scripts its object
    /// creations).
    pub ops: usize,
    /// Relative weight of age modifications.
    pub modify_weight: u32,
    /// Relative weight of non-age field modifications (`f0` atoms) —
    /// updates a label-screening warehouse can reject locally.
    pub field_modify_weight: u32,
    /// Relative weight of whole-tuple insertions (Example 7's
    /// update).
    pub insert_weight: u32,
    /// Relative weight of whole-tuple deletions.
    pub delete_weight: u32,
    /// Probability an operation targets relation `r0` (the one the
    /// view is defined over); the rest spread uniformly over the other
    /// relations. With one relation this is forced to 1.
    pub target_bias: f64,
    /// Ages drawn uniformly from `0..age_range`.
    pub age_range: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            ops: 100,
            modify_weight: 1,
            field_modify_weight: 0,
            insert_weight: 1,
            delete_weight: 1,
            target_bias: 0.5,
            age_range: 60,
            seed: 7,
        }
    }
}

/// Generate a churn script over a relations database. The script is
/// computed against a shadow of the database and leaves `db`'s
/// metadata updated to the post-script state.
pub fn relations_churn(db: &mut RelationsDb, spec: ChurnSpec) -> Vec<ScriptOp> {
    let mut r = rng(spec.seed);
    let mut script = Vec::new();
    // Shadow state: alive tuples + their age atoms, per relation.
    let mut alive: Vec<Vec<(Oid, Oid)>> = db
        .tuples
        .iter()
        .zip(&db.ages)
        .map(|(ts, ags)| ts.iter().copied().zip(ags.iter().copied()).collect())
        .collect();
    let mut next_id = 1_000_000 + db.spec.seed as usize; // fresh OID space
    let total_w =
        spec.modify_weight + spec.field_modify_weight + spec.insert_weight + spec.delete_weight;
    assert!(total_w > 0, "at least one op kind must be enabled");

    for _ in 0..spec.ops {
        let ri = pick_relation(&mut r, db.relation_oids.len(), spec.target_bias);
        let dice = r.gen_range(0..total_w);
        if dice < spec.field_modify_weight && db.spec.extra_fields > 0 {
            // Modify a random alive tuple's first extra field.
            if let Some(&(t, _)) = pick(&mut r, &alive[ri]) {
                let field = Oid::new(&format!("{}.f0", t.name()));
                script.push(ScriptOp::Apply(Update::Modify {
                    oid: field,
                    new: gsdb::Atom::Int(r.gen_range(0..1_000_000)),
                }));
                continue;
            }
        }
        let dice = dice.saturating_sub(spec.field_modify_weight);
        if dice < spec.modify_weight {
            // Modify a random alive age (fall through to insert when
            // the relation is empty).
            if let Some(&(_, age)) = pick(&mut r, &alive[ri]) {
                let new_age = r.gen_range(0..spec.age_range);
                script.push(ScriptOp::Apply(Update::Modify {
                    oid: age,
                    new: gsdb::Atom::Int(new_age),
                }));
                continue;
            }
        }
        if dice < spec.modify_weight + spec.insert_weight || alive[ri].is_empty() {
            // Insert a fresh tuple subtree.
            let id = next_id;
            next_id += 1;
            let t = Oid::new(&format!("ct{id}"));
            let a = Oid::new(&format!("ct{id}.age"));
            let age_val = r.gen_range(0..spec.age_range);
            script.push(ScriptOp::Create(Object::atom(a.name(), "age", age_val)));
            let mut children = vec![a];
            for f in 0..db.spec.extra_fields {
                let fo = Oid::new(&format!("ct{id}.f{f}"));
                script.push(ScriptOp::Create(Object::atom(
                    fo.name(),
                    format!("f{f}"),
                    id as i64,
                )));
                children.push(fo);
            }
            script.push(ScriptOp::Create(Object::set(t.name(), "tuple", &children)));
            script.push(ScriptOp::Apply(Update::Insert {
                parent: db.relation_oids[ri],
                child: t,
            }));
            alive[ri].push((t, a));
        } else {
            // Delete a random alive tuple.
            let idx = r.gen_range(0..alive[ri].len());
            let (t, _) = alive[ri].swap_remove(idx);
            script.push(ScriptOp::Apply(Update::Delete {
                parent: db.relation_oids[ri],
                child: t,
            }));
        }
    }
    // Publish the post-script state back into the handle.
    db.tuples = alive
        .iter()
        .map(|v| v.iter().map(|&(t, _)| t).collect())
        .collect();
    db.ages = alive
        .iter()
        .map(|v| v.iter().map(|&(_, a)| a).collect())
        .collect();
    script
}

/// Generate a deliberately churny script in which a fraction of the
/// structural operations immediately undo themselves and modifies come
/// in runs against the same atom — fuel for
/// [`DeltaBatch::consolidate`](gsdb::DeltaBatch::consolidate).
///
/// * an *insert* is, with probability `cancel_fraction`, followed by a
///   delete of the same edge (the pair nets to nothing);
/// * a *delete* is, with probability `cancel_fraction`, followed by a
///   re-insert of the same edge (likewise);
/// * a *modify* is issued `modify_run` times in a row against the same
///   age atom (the run folds to a single surviving delta).
///
/// Weights and targeting come from `spec`; `spec.ops` counts logical
/// operations before amplification.
pub fn cancelling_churn(
    db: &mut RelationsDb,
    spec: ChurnSpec,
    cancel_fraction: f64,
    modify_run: usize,
) -> Vec<ScriptOp> {
    let mut r = rng(spec.seed ^ 0x5ca1_ab1e);
    let mut script = Vec::new();
    let mut alive: Vec<Vec<(Oid, Oid)>> = db
        .tuples
        .iter()
        .zip(&db.ages)
        .map(|(ts, ags)| ts.iter().copied().zip(ags.iter().copied()).collect())
        .collect();
    let mut next_id = 2_000_000 + db.spec.seed as usize;
    let total_w = spec.modify_weight + spec.insert_weight + spec.delete_weight;
    assert!(total_w > 0, "at least one op kind must be enabled");
    let run = modify_run.max(1);

    for _ in 0..spec.ops {
        let ri = pick_relation(&mut r, db.relation_oids.len(), spec.target_bias);
        let dice = r.gen_range(0..total_w);
        if dice < spec.modify_weight {
            if let Some(&(_, age)) = pick(&mut r, &alive[ri]) {
                for _ in 0..run {
                    script.push(ScriptOp::Apply(Update::Modify {
                        oid: age,
                        new: gsdb::Atom::Int(r.gen_range(0..spec.age_range)),
                    }));
                }
                continue;
            }
        }
        if dice < spec.modify_weight + spec.insert_weight || alive[ri].is_empty() {
            let id = next_id;
            next_id += 1;
            let t = Oid::new(&format!("xt{id}"));
            let a = Oid::new(&format!("xt{id}.age"));
            script.push(ScriptOp::Create(Object::atom(
                a.name(),
                "age",
                r.gen_range(0..spec.age_range),
            )));
            script.push(ScriptOp::Create(Object::set(t.name(), "tuple", &[a])));
            script.push(ScriptOp::Apply(Update::Insert {
                parent: db.relation_oids[ri],
                child: t,
            }));
            if r.gen_bool(cancel_fraction.clamp(0.0, 1.0)) {
                script.push(ScriptOp::Apply(Update::Delete {
                    parent: db.relation_oids[ri],
                    child: t,
                }));
            } else {
                alive[ri].push((t, a));
            }
        } else {
            let idx = r.gen_range(0..alive[ri].len());
            let (t, a) = alive[ri][idx];
            script.push(ScriptOp::Apply(Update::Delete {
                parent: db.relation_oids[ri],
                child: t,
            }));
            if r.gen_bool(cancel_fraction.clamp(0.0, 1.0)) {
                script.push(ScriptOp::Apply(Update::Insert {
                    parent: db.relation_oids[ri],
                    child: t,
                }));
            } else {
                alive[ri].swap_remove(idx);
                let _ = a;
            }
        }
    }
    db.tuples = alive
        .iter()
        .map(|v| v.iter().map(|&(t, _)| t).collect())
        .collect();
    db.ages = alive
        .iter()
        .map(|v| v.iter().map(|&(_, a)| a).collect())
        .collect();
    script
}

/// Split a script into consecutive batches of at most `batch_size`
/// operations, preserving order. `batch_size` of 0 yields one batch.
pub fn into_batches(script: Vec<ScriptOp>, batch_size: usize) -> Vec<Vec<ScriptOp>> {
    if batch_size == 0 {
        return if script.is_empty() {
            Vec::new()
        } else {
            vec![script]
        };
    }
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(batch_size);
    for op in script {
        cur.push(op);
        if cur.len() == batch_size {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn pick_relation(r: &mut StdRng, n: usize, bias: f64) -> usize {
    if n <= 1 || r.gen_bool(bias.clamp(0.0, 1.0)) {
        0
    } else {
        r.gen_range(1..n)
    }
}

fn pick<'a, T>(r: &mut StdRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        xs.get(r.gen_range(0..xs.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::{generate, RelationsSpec};
    use gsdb::StoreConfig;

    #[test]
    fn script_replays_cleanly() {
        let (mut store, mut db) =
            generate(RelationsSpec::default(), StoreConfig::default()).unwrap();
        let script = relations_churn(
            &mut db,
            ChurnSpec {
                ops: 200,
                ..ChurnSpec::default()
            },
        );
        assert!(script.len() >= 200);
        for op in &script {
            op.replay(&mut store).expect("script must be valid");
        }
        // Post-state metadata agrees with the store.
        for (ri, tuples) in db.tuples.iter().enumerate() {
            let reached = gsdb::path::reach(&store, db.root, &db.view_path(ri));
            let mut expected: Vec<Oid> = tuples.clone();
            expected.sort_by_key(|o| o.name());
            let mut got = reached;
            got.sort_by_key(|o| o.name());
            assert_eq!(got, expected, "relation r{ri} out of sync");
        }
    }

    #[test]
    fn scripts_are_deterministic() {
        let (_s1, mut db1) = generate(RelationsSpec::default(), StoreConfig::default()).unwrap();
        let (_s2, mut db2) = generate(RelationsSpec::default(), StoreConfig::default()).unwrap();
        let spec = ChurnSpec::default();
        assert_eq!(
            relations_churn(&mut db1, spec),
            relations_churn(&mut db2, spec)
        );
    }

    #[test]
    fn bias_targets_relation_zero() {
        let (_s, mut db) = generate(
            RelationsSpec {
                relations: 4,
                ..RelationsSpec::default()
            },
            StoreConfig::default(),
        )
        .unwrap();
        let script = relations_churn(
            &mut db,
            ChurnSpec {
                ops: 500,
                target_bias: 0.9,
                ..ChurnSpec::default()
            },
        );
        let r0 = Oid::new("r0");
        let (mut on_r0, mut on_rest) = (0usize, 0usize);
        for op in &script {
            if let ScriptOp::Apply(Update::Insert { parent, .. } | Update::Delete { parent, .. }) =
                op
            {
                if *parent == r0 {
                    on_r0 += 1;
                } else {
                    on_rest += 1;
                }
            }
        }
        assert!(
            on_r0 > on_rest * 3,
            "bias 0.9 should dominate: {on_r0} vs {on_rest}"
        );
    }

    #[test]
    fn cancelling_churn_replays_and_consolidates_smaller() {
        let (mut store, mut db) =
            generate(RelationsSpec::default(), StoreConfig::default()).unwrap();
        let script = cancelling_churn(
            &mut db,
            ChurnSpec {
                ops: 100,
                ..ChurnSpec::default()
            },
            0.5,
            4,
        );
        let mut batch = gsdb::DeltaBatch::new();
        for op in &script {
            batch.push(op.replay(&mut store).expect("script must be valid"));
        }
        let delta = batch.consolidate();
        assert!(
            delta.len() < delta.input_ops / 2,
            "churn should mostly cancel: {} of {} survive",
            delta.len(),
            delta.input_ops
        );
        // Post-state metadata agrees with the store.
        for (ri, tuples) in db.tuples.iter().enumerate() {
            let mut expected: Vec<Oid> = tuples.clone();
            expected.sort_by_key(|o| o.name());
            let mut got = gsdb::path::reach(&store, db.root, &db.view_path(ri));
            got.sort_by_key(|o| o.name());
            assert_eq!(got, expected, "relation r{ri} out of sync");
        }
    }

    #[test]
    fn into_batches_partitions_in_order() {
        let (_s, mut db) = generate(RelationsSpec::default(), StoreConfig::default()).unwrap();
        let script = relations_churn(
            &mut db,
            ChurnSpec {
                ops: 25,
                ..ChurnSpec::default()
            },
        );
        let flat: Vec<ScriptOp> = script.clone();
        let batches = into_batches(script, 8);
        assert!(batches.iter().all(|b| b.len() <= 8));
        assert!(batches[..batches.len() - 1].iter().all(|b| b.len() == 8));
        let rejoined: Vec<ScriptOp> = batches.into_iter().flatten().collect();
        assert_eq!(rejoined, flat);
    }

    #[test]
    fn modify_only_stream_has_no_structure_changes() {
        let (_s, mut db) = generate(RelationsSpec::default(), StoreConfig::default()).unwrap();
        let script = relations_churn(
            &mut db,
            ChurnSpec {
                ops: 50,
                modify_weight: 1,
                insert_weight: 0,
                delete_weight: 0,
                ..ChurnSpec::default()
            },
        );
        assert!(script
            .iter()
            .all(|op| matches!(op, ScriptOp::Apply(Update::Modify { .. }))));
    }
}
