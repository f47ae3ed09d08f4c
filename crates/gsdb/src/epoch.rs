//! Epoch-published store snapshots for lock-free readers.
//!
//! A writer that owns a live [`Store`] behind a mutex can let readers
//! run **without ever taking that mutex**: at every commit it publishes
//! an immutable [`Store::fork`] into an [`EpochHandle`], and readers
//! grab the latest published `Arc<Store>` instead of locking the live
//! one. Forks are copy-on-write (reference-count bumps, not deep
//! copies), so publication is cheap and the writer's subsequent
//! mutations copy only the pages they actually touch.
//!
//! The guarantee readers get is **snapshot isolation at commit
//! granularity**: every load observes exactly the state some commit
//! published — never a torn intermediate — and epochs observed by any
//! single reader are monotonically non-decreasing. The
//! `check_snapshot_isolation` oracle in `gsview-core` verifies this
//! differentially against per-batch recomputes.
//!
//! Readers do take a `RwLock` read guard inside [`EpochHandle::load`],
//! but only for the duration of an `Arc` clone — a few instructions —
//! never for the duration of a store mutation or a maintenance pass.
//! The writer's critical section in [`EpochHandle::publish`] is the
//! swap of one `Arc`, equally short.
//!
//! With a single writer, "commit" and "publish" coincide: fork, then
//! publish, as in the example below. With concurrent writers, use
//! [`ShardedStore`](crate::ShardedStore) instead of a bare mutex — it
//! drives the same `EpochHandle` from its two-phase commit pipeline
//! (per-shard locks, one global epoch), so readers here cannot tell
//! how many writers, or how many slab shards, produced the snapshots
//! they load.

use crate::Store;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, PoisonError, RwLock};

/// An `Arc`-swapped handle to the latest committed store snapshot.
///
/// ```
/// use gsdb::{EpochHandle, Object, Oid, Store, Update};
///
/// let mut live = Store::new();
/// live.create(Object::atom("A", "age", 45i64)).unwrap();
/// let epochs = EpochHandle::new(live.fork());
///
/// let before = epochs.load();                     // reader pins epoch 0
/// live.apply(Update::modify("A", 80i64)).unwrap(); // writer commits…
/// epochs.publish(live.fork());                     // …and publishes epoch 1
///
/// assert_eq!(before.atom(Oid::new("A")), Some(&gsdb::Atom::Int(45)));
/// assert_eq!(epochs.load().atom(Oid::new("A")), Some(&gsdb::Atom::Int(80)));
/// assert_eq!(epochs.epoch(), 1);
/// ```
#[derive(Debug)]
pub struct EpochHandle {
    current: RwLock<Arc<Store>>,
    epoch: AtomicU64,
}

impl EpochHandle {
    /// Wrap an initial snapshot as epoch 0.
    pub fn new(initial: Store) -> Self {
        EpochHandle {
            current: RwLock::new(Arc::new(initial)),
            epoch: AtomicU64::new(0),
        }
    }

    /// Wrap a recovered snapshot, resuming the epoch counter at
    /// `epoch` — the warm-restart constructor. A process that crashes
    /// and recovers from a durable epoch must keep numbering epochs
    /// where the durable log left off, or the log's frames would stop
    /// being totally ordered by epoch across restarts.
    pub fn with_epoch(initial: Store, epoch: u64) -> Self {
        EpochHandle {
            current: RwLock::new(Arc::new(initial)),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The latest published snapshot. Never blocks on the writer's
    /// store mutex; the internal read guard is held only for an `Arc`
    /// clone.
    pub fn load(&self) -> Arc<Store> {
        unpoisoned(self.current.read()).clone()
    }

    /// The latest snapshot together with its epoch number, read
    /// consistently (the pair is taken under one read guard, so a
    /// concurrent publish cannot interleave between them).
    pub fn load_with_epoch(&self) -> (u64, Arc<Store>) {
        let guard = unpoisoned(self.current.read());
        (self.epoch.load(Ordering::Acquire), guard.clone())
    }

    /// Number of publishes so far (the epoch of the current snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish a new committed snapshot, superseding the current one.
    /// Returns the new epoch number. Readers holding older `Arc`s keep
    /// them alive until dropped — publication never invalidates an
    /// in-flight read.
    pub fn publish(&self, snapshot: Store) -> u64 {
        let version = snapshot.version();
        let mut guard = unpoisoned(self.current.write());
        *guard = Arc::new(snapshot);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(guard);
        gsview_obs::event!("epoch.publish", "epoch" = epoch, "version" = version);
        epoch
    }
}

/// A guard on `current`, even from a lock a panicking thread poisoned.
/// Every critical section on it is one `Arc` clone or one assignment,
/// so the slot always holds a whole published snapshot.
fn unpoisoned<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, Object, Oid, Update};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    #[test]
    fn publish_bumps_epoch_and_swaps_state() {
        let mut live = Store::new();
        live.create(Object::atom("A", "age", 1i64)).unwrap();
        let h = EpochHandle::new(live.fork());
        assert_eq!(h.epoch(), 0);

        live.apply(Update::modify("A", 2i64)).unwrap();
        assert_eq!(h.publish(live.fork()), 1);
        let (e, snap) = h.load_with_epoch();
        assert_eq!(e, 1);
        assert_eq!(snap.atom(oid("A")), Some(&Atom::Int(2)));
    }

    #[test]
    fn a_poisoned_lock_still_loads_and_publishes() {
        let mut live = Store::new();
        live.create(Object::atom("A", "age", 1i64)).unwrap();
        let h = Arc::new(EpochHandle::new(live.fork()));
        let held = Arc::clone(&h);
        std::thread::spawn(move || {
            let _guard = held.current.write().unwrap();
            panic!("poison the epoch lock");
        })
        .join()
        .unwrap_err();
        assert!(h.current.is_poisoned());

        assert_eq!(h.load().atom(oid("A")), Some(&Atom::Int(1)));
        live.apply(Update::modify("A", 2i64)).unwrap();
        assert_eq!(h.publish(live.fork()), 1);
        let (e, snap) = h.load_with_epoch();
        assert_eq!(e, 1);
        assert_eq!(snap.atom(oid("A")), Some(&Atom::Int(2)));
    }

    #[test]
    fn old_snapshots_stay_alive_and_immutable() {
        let mut live = Store::new();
        live.create(Object::atom("A", "age", 1i64)).unwrap();
        let h = EpochHandle::new(live.fork());
        let pinned = h.load();
        for v in 2..10i64 {
            live.apply(Update::modify("A", v)).unwrap();
            h.publish(live.fork());
        }
        assert_eq!(pinned.atom(oid("A")), Some(&Atom::Int(1)));
        assert_eq!(h.load().atom(oid("A")), Some(&Atom::Int(9)));
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        // Writer keeps two atoms equal in every committed epoch;
        // readers must never observe them differing.
        let mut live = Store::new();
        live.create(Object::atom("X", "n", 0i64)).unwrap();
        live.create(Object::atom("Y", "n", 0i64)).unwrap();
        let h = EpochHandle::new(live.fork());

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let snap = h.load();
                        let x = snap.atom(oid("X")).cloned();
                        let y = snap.atom(oid("Y")).cloned();
                        assert_eq!(x, y, "torn epoch observed");
                    }
                });
            }
            for v in 1..100i64 {
                live.apply(Update::modify("X", v)).unwrap();
                live.apply(Update::modify("Y", v)).unwrap();
                h.publish(live.fork());
            }
        });
        assert_eq!(h.epoch(), 99);
    }
}
