//! Atomic batches of basic updates.
//!
//! Paper §4.3: "In a centralized environment, view maintenance can be
//! performed by the same transaction as the triggering update." This
//! module provides the transaction half: apply a batch of updates
//! atomically — if any update is invalid the store is put back exactly
//! as it was before the batch.

use crate::{AppliedUpdate, Result, Store, Update};

/// Apply a batch atomically: on the first failure the store returns to
/// its pre-batch state — objects, update log and version alike, so a
/// monitor reading the log sees nothing of the failed batch — and the
/// error is returned. On success, returns the applied updates in order.
///
/// The pre-batch state is a clone of the store, which shares every
/// page copy-on-write: reference-count bumps, not object copies.
pub fn apply_atomic(store: &mut Store, batch: Vec<Update>) -> Result<Vec<AppliedUpdate>> {
    let before = store.clone();
    let mut applied: Vec<AppliedUpdate> = Vec::with_capacity(batch.len());
    for update in batch {
        match store.apply(update) {
            Ok(a) => applied.push(a),
            Err(e) => {
                *store = before;
                return Err(e);
            }
        }
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples, Atom, Object, Oid};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    #[test]
    fn atomic_batch_applies_fully() {
        let mut s = person_store();
        let batch = vec![
            Update::Create {
                object: Object::atom("TA", "age", 33i64),
            },
            Update::insert("P2", "TA"),
            Update::modify("A1", 50i64),
        ];
        let applied = apply_atomic(&mut s, batch).unwrap();
        assert_eq!(applied.len(), 3);
        assert_eq!(s.atom(oid("A1")), Some(&Atom::Int(50)));
        assert!(s.get(oid("P2")).unwrap().children().contains(&oid("TA")));
    }

    #[test]
    fn failed_batch_rolls_back_completely() {
        let mut s = person_store();
        let before = crate::Snapshot::capture(&s);
        let batch = vec![
            Update::modify("A1", 50i64),
            Update::Create {
                object: Object::atom("TB", "age", 1i64),
            },
            Update::insert("P2", "TB"),
            // Fails: GHOST does not exist.
            Update::insert("P2", "GHOST"),
        ];
        let err = apply_atomic(&mut s, batch).unwrap_err();
        assert_eq!(err, crate::GsdbError::NoSuchObject(oid("GHOST")));
        // Everything rolled back, including the created object.
        assert_eq!(s.atom(oid("A1")), Some(&Atom::Int(45)));
        assert!(!s.contains(oid("TB")));
        assert_eq!(crate::Snapshot::capture(&s), before);
    }

    #[test]
    fn rollback_restores_removed_objects() {
        let mut s = person_store();
        s.delete_edge(oid("P1"), oid("S1")).unwrap(); // unlink first
        let before = crate::Snapshot::capture(&s);
        let batch = vec![
            Update::Remove { oid: oid("S1") },
            Update::insert("P4", "GHOST"), // fails
        ];
        apply_atomic(&mut s, batch).unwrap_err();
        assert_eq!(crate::Snapshot::capture(&s), before);
        assert_eq!(s.atom(oid("S1")), Some(&Atom::tagged("dollar", 100_000)));
    }

    #[test]
    fn rollback_skips_noop_duplicate_inserts() {
        // insert(ROOT, P1) when P1 is already a child is a set no-op;
        // rolling the batch back must not delete the pre-existing edge.
        let mut s = person_store();
        let before = crate::Snapshot::capture(&s);
        let batch = vec![
            Update::insert("ROOT", "P1"),  // duplicate: no-op
            Update::insert("P4", "GHOST"), // fails, triggers rollback
        ];
        apply_atomic(&mut s, batch).unwrap_err();
        assert_eq!(crate::Snapshot::capture(&s), before);
        assert!(s.get(oid("ROOT")).unwrap().children().contains(&oid("P1")));
    }

    #[test]
    fn failed_batch_leaves_log_and_version_untouched() {
        // A monitor reads the update log: a failed batch must leave no
        // trace there, neither its updates nor anything undoing them.
        // The store the commit pipeline checks out is the one that logs.
        crate::ShardedStore::new(Store::new()).with_exclusive(|s| {
            samples::person_db(s).unwrap();
            let (log, version) = (s.log().to_vec(), s.version());
            let batch = vec![
                Update::modify("A1", 50i64),
                Update::delete("ROOT", "P4"),
                Update::insert("P2", "GHOST"), // fails
            ];
            apply_atomic(s, batch).unwrap_err();
            assert_eq!(s.log(), &log[..]);
            assert_eq!(s.version(), version);
        });
    }
}
