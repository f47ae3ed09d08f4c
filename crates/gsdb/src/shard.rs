//! Multi-writer commit pipeline over the sharded store.
//!
//! A [`Store`] behind one mutex serializes every writer —
//! the paper's sources report updates *independently*, so a
//! source-side store should let independent writers commit
//! concurrently. [`ShardedStore`] provides that: its only state is the
//! latest published epoch snapshot, and each shard has **its own writer
//! lock**, which orders the shard's writers and guards no state, so
//! commits touching disjoint shards proceed in parallel while readers
//! load snapshots that are never torn across shards.
//!
//! ## The two-phase publish
//!
//! 1. **Apply.** Compute the batch's *affected shard set* (each basic
//!    update touches the home shards of the OIDs it names — see the
//!    ownership discipline in the `store` module docs), lock exactly
//!    those shards **in ascending index order**, and apply the batch to
//!    copy-on-write clones of their states in the latest snapshot (only
//!    a lock's holder publishes its shard, so that state is current).
//!    A failed update aborts the batch at that point with the prefix
//!    applied (the store's historical `apply_batch` semantics).
//! 2. **Publish.** Still holding the shard locks, take the publish lock
//!    and then the log lock, compose the latest snapshot with the clones
//!    swapped in, publish it through the [`EpochHandle`] (one global
//!    epoch counter) and append the applied updates to the commit log,
//!    so log order equals epoch order. The log unlocks, the publish hook
//!    sees the new snapshot, everything unlocks, and only then is the
//!    replaced snapshot dropped: no reader or writer waits on its frees.
//!
//! **Deadlock freedom.** Every code path acquires locks in one global
//! order: shard locks in ascending shard index, then the publish lock,
//! then the log lock. Two commits that both need shards `{1, 3}` meet
//! at shard 1; a commit never waits on a lower-ordered lock while
//! holding a higher-ordered one.
//!
//! **Consistency.** Writers hold their affected shard locks *through*
//! the publish step, so for any two commits either (a) their shard
//! sets intersect — the shared shard's lock orders them totally, and
//! the later one composes on top of the earlier one's published
//! snapshot — or (b) they are disjoint — they commute, and each
//! composes its own shards over whatever the other published.
//! Either way every published snapshot is a consistent cut: it
//! contains each commit entirely or not at all, never a torn prefix
//! across shards.
//!
//! **Dynamic shard sets.** `Remove`'s affected set depends on the
//! victim's *current* children (their home shards receive the
//! parent-index removals). The pipeline guesses from the latest
//! snapshot, locks, and re-validates against the batch-mutated clones;
//! if the guess was stale it widens the set and retries, falling back
//! to locking every shard after three attempts — children can only
//! change under the victim's own shard lock, so the loop converges.
//!
//! [`ShardedStore::with_exclusive`] takes every lock in the same order
//! and checks out a writable clone of the latest snapshot whose log
//! holds the pending entries; if the closure changed it, a fork of it
//! is published as one epoch. The clone is dropped either way.

use crate::store::{shard_for, ShardAccess, ShardState};
use crate::{AppliedUpdate, EpochHandle, GsdbError, Store, Update};
use gsview_obs::Counter;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

/// Outcome of one [`ShardedStore::commit`].
#[derive(Debug)]
pub struct CommitResult {
    /// The epoch the commit published, if anything was applied.
    /// Epochs are assigned under the global publish lock, so they
    /// totally order all commits of one store.
    pub epoch: Option<u64>,
    /// The updates applied (and published), in batch order. On error
    /// this is the successfully applied prefix.
    pub applied: Vec<AppliedUpdate>,
    /// The first failing update's error, if the batch did not apply
    /// fully. The prefix in `applied` is committed regardless.
    pub error: Option<GsdbError>,
}

impl CommitResult {
    /// Collapse into a `Result`, keeping the historical
    /// prefix-commit contract: the applied prefix is committed and
    /// published even when an error is returned.
    pub fn into_result(self) -> crate::Result<Vec<AppliedUpdate>> {
        match self.error {
            None => Ok(self.applied),
            Some(e) => Err(e),
        }
    }
}

/// The monitor's feed: applied updates in publish order, plus the
/// sequence number the next drained report will take.
#[derive(Debug, Default)]
struct CommitLog {
    entries: Vec<AppliedUpdate>,
    next_seq: u64,
}

/// Per-shard instrumentation, registered in the global metrics
/// registry as `store.shard.commits.<i>` / `store.shard.lock_wait.<i>`.
struct ShardMetrics {
    /// Commits whose affected set included this shard.
    commits: Arc<Counter>,
    /// Lock acquisitions that found this shard's lock contended.
    lock_waits: Arc<Counter>,
}

/// A store partitioned behind per-shard writer locks, with a global
/// epoch publisher — the concurrent commit path a
/// [`Source`](crate::Store) uses underneath. Readers call
/// [`snapshot`](ShardedStore::snapshot) (wait-free against writers);
/// writers call [`commit`](ShardedStore::commit) and contend only on
/// the shards their batch touches plus the brief publish step. Every
/// commit, and every mutation a [`with_exclusive`](ShardedStore::with_exclusive)
/// closure makes, is appended to the commit log the monitor drains.
pub struct ShardedStore {
    /// One writer lock per shard, indexed by shard id (see the module
    /// docs: it orders writers and guards no state).
    locks: Vec<Mutex<()>>,
    /// `log2(shard count)`.
    shift: u32,
    /// Whether the stores `with_exclusive` checks out count accesses.
    count_accesses: bool,
    /// The published-snapshot handle readers load from (the only state).
    epochs: Arc<EpochHandle>,
    /// Phase-two lock: serializes snapshot composition, the epoch bump
    /// and the commit observer it guards, which runs under it.
    publish: Mutex<Option<PublishHook>>,
    /// The monitor feed. Locked after `publish` (never the reverse).
    log: Mutex<CommitLog>,
    /// Per-shard commit / lock-contention counters.
    metrics: Vec<ShardMetrics>,
    /// Commits whose affected set spanned more than one shard.
    cross_shard_commits: Arc<Counter>,
}

/// The cloned view a commit applies its batch to: COW clones of
/// exactly the shards the batch affects. Touching any other shard
/// means the affected-set computation is wrong — that is a bug, and
/// the panic in `state()` is the detector.
struct CommitView {
    shift: u32,
    states: Vec<Option<ShardState>>,
}

impl ShardAccess for CommitView {
    #[inline]
    fn shift(&self) -> u32 {
        self.shift
    }
    #[inline]
    fn state(&self, i: usize) -> &ShardState {
        self.states[i]
            .as_ref()
            .expect("update touched a shard outside the commit's affected set")
    }
    #[inline]
    fn state_mut(&mut self, i: usize) -> &mut ShardState {
        self.states[i]
            .as_mut()
            .expect("update touched a shard outside the commit's affected set")
    }
}

/// What a publish hook is told about the commit it is observing.
/// Every field is captured under the publish lock, so hooks see
/// commits in epoch order with internally consistent metadata.
#[derive(Clone, Copy, Debug)]
pub struct PublishInfo {
    /// The epoch this commit published.
    pub epoch: u64,
    /// The store version of the published snapshot.
    pub version: u64,
    /// Total sequence numbers assigned or pending at publish time:
    /// the commit log's `next_seq` plus its undrained entries. A
    /// recovered source resumes sequencing here, so a warehouse that
    /// processed fewer reports sees a detectable tail gap — never a
    /// silently reused sequence number.
    pub assigned_seq_total: u64,
}

/// A commit observer invoked under the publish lock — the durability
/// layer's attachment point (persist every published epoch).
type PublishHook = Box<dyn Fn(&PublishInfo, &Store) + Send + Sync>;

/// Why one apply attempt could not finish against its locked set.
enum Attempt {
    /// A `Remove`'s current children live on shards outside the locked
    /// set; retry with the union.
    Widen(u16),
}

impl ShardedStore {
    /// Take ownership of a store and publish it behind per-shard
    /// writer locks. The store's current state becomes epoch 0's
    /// published snapshot; any pending log entries become the commit
    /// log's initial feed.
    pub fn new(store: Store) -> ShardedStore {
        Self::build(store, 0, 0)
    }

    /// Re-home a **recovered** store: the warm-restart constructor.
    /// The store's state becomes the published snapshot at `epoch`
    /// (not 0 — epoch numbering must continue where the durable log
    /// left off), and report sequencing resumes at `next_seq` so
    /// downstream gap detection sees continuity, or a genuine tail
    /// gap, never a reused sequence number.
    pub fn restore(store: Store, epoch: u64, next_seq: u64) -> ShardedStore {
        Self::build(store, epoch, next_seq)
    }

    fn build(mut store: Store, epoch: u64, next_seq: u64) -> ShardedStore {
        let entries = store.drain_log();
        let shards = store.shard_count();
        let metrics = (0..shards)
            .map(|i| ShardMetrics {
                commits: gsview_obs::registry().counter(&format!("store.shard.commits.{i}")),
                lock_waits: gsview_obs::registry().counter(&format!("store.shard.lock_wait.{i}")),
            })
            .collect();
        ShardedStore {
            locks: (0..shards).map(|_| Mutex::new(())).collect(),
            shift: shards.trailing_zeros(),
            count_accesses: store.counts_accesses(),
            epochs: Arc::new(EpochHandle::with_epoch(store.fork(), epoch)),
            publish: Mutex::new(None),
            log: Mutex::new(CommitLog { entries, next_seq }),
            metrics,
            cross_shard_commits: gsview_obs::registry().counter("store.commit.cross_shard"),
        }
    }

    /// Install a commit observer, replacing any previous one. The hook
    /// runs under the publish lock after every epoch publish (both
    /// [`commit`](ShardedStore::commit) and
    /// [`with_exclusive`](ShardedStore::with_exclusive)) and its log
    /// append, receiving the snapshot published — commits are observed
    /// in epoch order with no gaps from installation onward. Keep hooks
    /// short: every writer serializes behind them. A hook that panics
    /// unwinds out of its commit, which stays published and logged.
    pub fn set_publish_hook(&self, hook: impl Fn(&PublishInfo, &Store) + Send + Sync + 'static) {
        *self.lock_publish() = Some(Box::new(hook));
    }

    /// Remove the commit observer, if any.
    pub fn clear_publish_hook(&self) {
        *self.lock_publish() = None;
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.locks.len()
    }

    /// The epoch handle readers subscribe to.
    pub fn epoch_handle(&self) -> Arc<EpochHandle> {
        Arc::clone(&self.epochs)
    }

    /// The latest published snapshot (wait-free against writers in the
    /// apply phase; at most a brief read-lock hand-off with a
    /// publishing writer).
    pub fn snapshot(&self) -> Arc<Store> {
        self.epochs.load()
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epochs.epoch()
    }

    /// The sequence number the next drained report will take.
    pub fn assigned_seq(&self) -> u64 {
        self.lock_log().next_seq
    }

    /// The latest published snapshot with what a publish hook is told
    /// about it — epoch, version and the sequence watermark
    /// ([`PublishInfo::assigned_seq_total`]) — read together under the
    /// publish lock, so no commit lands between the reads. A durable
    /// baseline taken here describes exactly the snapshot it holds,
    /// and can never lead a recovered source to reuse a sequence
    /// number the warehouse already consumed.
    pub fn published(&self) -> (PublishInfo, Arc<Store>) {
        let _publish = self.lock_publish();
        let (epoch, snapshot) = self.epochs.load_with_epoch();
        let log = self.lock_log();
        let info = PublishInfo {
            epoch,
            version: snapshot.version(),
            assigned_seq_total: log.next_seq + log.entries.len() as u64,
        };
        (info, snapshot)
    }

    /// The home shard of an OID (same function every snapshot uses).
    pub fn shard_of(&self, oid: crate::Oid) -> usize {
        shard_for(oid, self.shift)
    }

    /// The bitmask of every shard.
    fn all_mask(&self) -> u16 {
        u16::MAX >> (16 - self.locks.len())
    }

    /// The publish lock and the hook it guards. A poisoned lock is
    /// taken as it is: the hook slot is only ever assigned whole, and a
    /// panic under the lock (a hook's, an exclusive closure's) falls
    /// before or after the epoch swap, which is one assignment.
    fn lock_publish(&self) -> MutexGuard<'_, Option<PublishHook>> {
        self.publish.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The commit log. A poisoned log panics: only an unwound
    /// `with_exclusive` closure poisons it (hooks run after it is
    /// released), and that closure took the pending entries with it.
    /// Panicking here stops the next commit before it publishes an
    /// epoch whose updates the monitor could never report.
    fn lock_log(&self) -> MutexGuard<'_, CommitLog> {
        self.log
            .lock()
            .expect("commit log poisoned: an exclusive closure unwound with its pending entries")
    }

    /// The affected-shard bitmask of one update, guessing `Remove`'s
    /// children from `snap` (re-validated under lock).
    fn guess_mask(&self, u: &Update, snap: &Store) -> u16 {
        let bit = |oid| 1u16 << shard_for(oid, self.shift);
        match u {
            Update::Insert { parent, child } | Update::Delete { parent, child } => {
                bit(*parent) | bit(*child)
            }
            Update::Modify { oid, .. } => bit(*oid),
            Update::Create { object } => {
                let mut m = bit(object.oid);
                for c in object.children() {
                    m |= bit(*c);
                }
                m
            }
            Update::Remove { oid } => {
                let mut m = bit(*oid);
                for c in snap.children(*oid) {
                    m |= bit(*c);
                }
                m
            }
        }
    }

    /// Lock the shards in `mask`, ascending, counting contention. A
    /// poisoned lock is taken as it is: it guards no state, and a
    /// writer that panicked under it had written only clones.
    fn lock_shards(&self, mask: u16) -> Vec<MutexGuard<'_, ()>> {
        (0..self.locks.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| match self.locks[i].try_lock() {
                Ok(g) => g,
                Err(TryLockError::WouldBlock) => {
                    self.metrics[i].lock_waits.incr();
                    self.locks[i].lock().unwrap_or_else(PoisonError::into_inner)
                }
                Err(TryLockError::Poisoned(e)) => e.into_inner(),
            })
            .collect()
    }

    /// One apply attempt under the locks of `mask`: clone the locked
    /// shards out of `base`, the latest snapshot, and apply the batch.
    /// `Ok` carries the mutated view and the per-update outcomes;
    /// `Err(Widen)` means a `Remove` needs shards outside `mask` and
    /// nothing is committed.
    #[allow(clippy::type_complexity)]
    fn try_apply(
        &self,
        base: &Store,
        mask: u16,
        updates: &[Update],
    ) -> Result<(CommitView, Vec<AppliedUpdate>, Option<GsdbError>), Attempt> {
        let mut view = CommitView {
            shift: self.shift,
            states: (0..self.locks.len())
                .map(|i| (mask & (1 << i) != 0).then(|| base.state(i).clone()))
                .collect(),
        };
        // A bulk load (`Node::commit_into`) sizes each shard's tables
        // once for the objects it creates there.
        let mut creates = [0usize; crate::MAX_SHARDS];
        for u in updates {
            if let Update::Create { object } = u {
                creates[shard_for(object.oid, self.shift)] += 1;
            }
        }
        for (state, &n) in view.states.iter_mut().zip(&creates) {
            if let Some(state) = state {
                state.reserve_entries(n, n);
            }
        }
        let mut applied = Vec::with_capacity(updates.len());
        let mut error = None;
        for u in updates {
            // Re-validate Remove against the locked, batch-mutated
            // clones: the victim's shard is locked, so its children are
            // frozen except by this very batch.
            if let Update::Remove { oid } = u {
                let home = shard_for(*oid, self.shift);
                if mask & (1 << home) == 0 {
                    return Err(Attempt::Widen(1 << home));
                }
                let mut need = 0u16;
                if let Some(slot) = view.state(home).slot_of.get(*oid) {
                    let local = slot >> self.shift;
                    if let Some(obj) = view.state(home).obj(local) {
                        for c in obj.children() {
                            need |= 1 << shard_for(*c, self.shift);
                        }
                    }
                }
                if need & !mask != 0 {
                    return Err(Attempt::Widen(need));
                }
            }
            match crate::store::apply_update(&mut view, u.clone()) {
                Ok(a) => applied.push(a),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        Ok((view, applied, error))
    }

    /// Under the caller's shard and publish locks (`hook` is what the
    /// latter guards): publish `next`, append `applied` to the log,
    /// release the log and run the hook on `next`. Returns the epoch and
    /// the snapshot `next` replaced, for the caller to drop after its
    /// locks.
    fn publish_locked(
        &self,
        hook: &Option<PublishHook>,
        mut log: MutexGuard<'_, CommitLog>,
        next: Store,
        applied: &[AppliedUpdate],
    ) -> (u64, Arc<Store>) {
        let next = Arc::new(next);
        let (epoch, replaced) = self.epochs.publish(Arc::clone(&next));
        log.entries.extend_from_slice(applied);
        let info = PublishInfo {
            epoch,
            version: next.version(),
            assigned_seq_total: log.next_seq + log.entries.len() as u64,
        };
        drop(log);
        if let Some(h) = hook {
            h(&info, &next);
        }
        (epoch, replaced)
    }

    /// Apply a batch of basic updates atomically (with the historical
    /// prefix-commit semantics on error) and publish the result as one
    /// new epoch. Concurrent commits whose affected shards are
    /// disjoint run their apply phases in parallel.
    pub fn commit(&self, updates: &[Update]) -> CommitResult {
        if updates.is_empty() {
            return CommitResult {
                epoch: None,
                applied: Vec::new(),
                error: None,
            };
        }
        let mut mask = {
            let snap = self.snapshot();
            updates
                .iter()
                .fold(0u16, |m, u| m | self.guess_mask(u, &snap))
        };
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 3 {
                mask = self.all_mask();
            }
            let shards = self.lock_shards(mask);
            // Only a lock's holder publishes its shard, so `base` holds
            // each locked shard's current state.
            let base = self.snapshot();
            let (view, applied, error) = match self.try_apply(&base, mask, updates) {
                Err(Attempt::Widen(need)) => {
                    drop(shards);
                    mask |= need;
                    continue;
                }
                Ok(attempt) => attempt,
            };
            if applied.is_empty() {
                drop(shards);
                return CommitResult {
                    epoch: None,
                    applied,
                    error,
                };
            }
            // Phase two: publish while still holding the shard locks,
            // so no concurrent commit can slip a conflicting snapshot
            // between our apply and our publish.
            let oidset_changed = applied.iter().any(|a| {
                matches!(
                    a,
                    AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. }
                )
            });
            let hook = self.lock_publish();
            let log = self.lock_log();
            // Disjoint commits may have published since `base`.
            let latest = self.snapshot();
            let next = Store::compose_from(
                &latest,
                view.states
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.map(|s| (i, s))),
                latest.version() + applied.len() as u64,
                oidset_changed,
            );
            let (epoch, replaced) = self.publish_locked(&hook, log, next, &applied);
            drop((hook, shards));
            // The snapshots this commit read and replaced free what they
            // alone held only now, outside every lock.
            drop((base, latest, replaced));
            let shards_touched = mask.count_ones();
            for (i, m) in self.metrics.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    m.commits.incr();
                }
            }
            if shards_touched > 1 {
                self.cross_shard_commits.incr();
            }
            gsview_obs::event!(
                "store.commit",
                "epoch" = epoch,
                "updates" = applied.len(),
                "shards" = shards_touched as usize,
                "attempts" = attempts as usize,
            );
            return CommitResult {
                epoch: Some(epoch),
                applied,
                error,
            };
        }
    }

    /// Run a closure with exclusive mutable access to the whole store —
    /// the escape hatch for setup code, direct-access experiments, and
    /// the historical `with_store` API. Takes every shard lock
    /// (ascending), the publish lock and the log lock, and checks out a
    /// writable clone of the latest snapshot whose log holds the
    /// pending commit-log entries (so the closure observes the same log
    /// a single-mutex store would); whatever the closure leaves in the
    /// log is checked back in. If the closure changed the store, a fork
    /// of it is published as one epoch. A closure that panics takes the
    /// pending entries with it, and every later use of the log panics.
    pub fn with_exclusive<T>(&self, f: impl FnOnce(&mut Store) -> T) -> T {
        let shards = self.lock_shards(self.all_mask());
        let hook = self.lock_publish();
        let mut log = self.lock_log();
        let base = self.snapshot();
        let mut store = base.checkout(std::mem::take(&mut log.entries), self.count_accesses);

        let out = f(&mut store);

        log.entries = store.drain_log();
        let replaced = if store.version() == base.version() {
            drop(log);
            None
        } else {
            let (epoch, replaced) = self.publish_locked(&hook, log, store.fork(), &[]);
            gsview_obs::event!("store.commit", "epoch" = epoch, "exclusive" = true);
            Some(replaced)
        };
        drop((hook, shards));
        drop((store, base, replaced));
        out
    }

    /// Drain the commit log for the monitor: returns the first drained
    /// entry's sequence number, the entries in publish order, and a
    /// snapshot that reflects **at least** those entries (it may
    /// additionally include commits published while the drain was in
    /// flight — never fewer).
    pub fn drain_reports(&self) -> (u64, Vec<AppliedUpdate>, Arc<Store>) {
        let mut log = self.lock_log();
        let base = log.next_seq;
        let entries = std::mem::take(&mut log.entries);
        log.next_seq += entries.len() as u64;
        let snap = self.epochs.load();
        (base, entries, snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, Object, Oid, StoreConfig};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn sharded(n: usize) -> ShardedStore {
        let mut s = Store::with_config(StoreConfig::default().with_shards(n));
        s.create(Object::empty_set("R", "root")).unwrap();
        s.drain_log();
        ShardedStore::new(s)
    }

    #[test]
    fn commit_applies_and_publishes_one_epoch_per_batch() {
        let ss = sharded(4);
        let e0 = ss.epoch();
        let r = ss.commit(&[
            Update::Create {
                object: Object::atom("A", "age", 1i64),
            },
            Update::insert("R", "A"),
            Update::modify("A", 2i64),
        ]);
        assert!(r.error.is_none());
        assert_eq!(r.applied.len(), 3);
        assert_eq!(r.epoch, Some(e0 + 1));
        assert_eq!(ss.epoch(), e0 + 1);
        let snap = ss.snapshot();
        assert_eq!(snap.atom(oid("A")), Some(&Atom::Int(2)));
        assert!(snap.children(oid("R")).contains(&oid("A")));
        snap.check_invariants().unwrap();
    }

    #[test]
    fn failed_update_commits_the_prefix() {
        let ss = sharded(4);
        let r = ss.commit(&[
            Update::Create {
                object: Object::atom("A", "age", 1i64),
            },
            Update::insert("R", "GHOST"),
            Update::modify("A", 9i64),
        ]);
        assert_eq!(r.applied.len(), 1, "prefix before the failure");
        assert_eq!(r.error, Some(GsdbError::NoSuchObject(oid("GHOST"))));
        assert!(r.epoch.is_some(), "prefix publishes");
        let snap = ss.snapshot();
        assert!(snap.contains(oid("A")));
        assert_eq!(
            snap.atom(oid("A")),
            Some(&Atom::Int(1)),
            "suffix not applied"
        );
    }

    #[test]
    fn empty_and_fully_failed_commits_publish_nothing() {
        let ss = sharded(2);
        let e0 = ss.epoch();
        let r = ss.commit(&[]);
        assert_eq!(r.epoch, None);
        let r = ss.commit(&[Update::modify("GHOST", 1i64)]);
        assert_eq!(r.epoch, None);
        assert!(r.error.is_some());
        assert_eq!(ss.epoch(), e0);
    }

    #[test]
    fn remove_widens_to_its_children_shards() {
        let ss = sharded(8);
        // Build a parent with children spread across shards, then
        // remove it in the same pipeline — the Remove's affected set
        // must cover every child's home shard to fix the parent index.
        let mut batch = vec![Update::Create {
            object: Object::empty_set("P", "parent"),
        }];
        for i in 0..12 {
            batch.push(Update::Create {
                object: Object::atom(format!("c{i}").as_str(), "x", i as i64),
            });
            batch.push(Update::insert("P", format!("c{i}").as_str()));
        }
        ss.commit(&batch).into_result().unwrap();
        let r = ss.commit(&[Update::Remove { oid: oid("P") }]);
        assert!(r.error.is_none());
        let snap = ss.snapshot();
        assert!(!snap.contains(oid("P")));
        for i in 0..12 {
            assert!(snap.parents(Oid::new(&format!("c{i}"))).is_empty());
        }
        snap.check_invariants().unwrap();
    }

    #[test]
    fn with_exclusive_checks_the_log_in_and_out() {
        let ss = sharded(4);
        ss.commit(&[Update::Create {
            object: Object::atom("A", "age", 1i64),
        }])
        .into_result()
        .unwrap();
        // The committed entry is visible to an exclusive closure...
        ss.with_exclusive(|s| {
            assert_eq!(s.log().len(), 1);
            s.drain_log();
            s.modify_atom(oid("A"), 2i64).unwrap();
        });
        // ...the drain stuck, and the closure's own mutation logged
        // and published.
        let (_, entries, snap) = ss.drain_reports();
        assert_eq!(entries.len(), 1);
        assert!(matches!(entries[0], AppliedUpdate::Modify { .. }));
        assert_eq!(snap.atom(oid("A")), Some(&Atom::Int(2)));
    }

    #[test]
    fn read_only_exclusive_publishes_nothing() {
        let ss = sharded(4);
        let e0 = ss.epoch();
        let before = ss.snapshot();
        let n = ss.with_exclusive(|s| s.len());
        assert_eq!(n, 1);
        ss.with_exclusive(|s| s.reserve(1_000));
        assert_eq!(ss.epoch(), e0);
        assert!(Arc::ptr_eq(&before, &ss.snapshot()));
    }

    #[test]
    fn a_panicking_hook_leaves_its_epoch_published_and_later_commits_go_on() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicU64, Ordering};
        let ss = sharded(4);
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        ss.set_publish_hook(move |info, snap| {
            assert_eq!(info.version, snap.version());
            if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("the hook fails once");
            }
        });
        let e0 = ss.epoch();
        let create = [Update::Create {
            object: Object::atom("A", "age", 1i64),
        }];
        let unwound = catch_unwind(AssertUnwindSafe(|| ss.commit(&create)));
        assert!(unwound.is_err());
        assert_eq!(ss.epoch(), e0 + 1, "the hook's commit stays published");
        // The same OID again: the same shard lock the panic went through.
        let r = ss.commit(&[Update::modify("A", 2i64)]);
        assert_eq!(r.epoch, Some(e0 + 2));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let (_, entries, snap) = ss.drain_reports();
        assert_eq!(entries.len(), 2, "both commits are logged");
        assert_eq!(snap.atom(oid("A")), Some(&Atom::Int(2)));
        snap.check_invariants().unwrap();
    }

    #[test]
    fn a_panicking_exclusive_closure_stops_the_next_commit_before_it_publishes() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ss = sharded(4);
        ss.commit(&[Update::Create {
            object: Object::atom("A", "age", 1i64),
        }])
        .into_result()
        .unwrap();
        let e0 = ss.epoch();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            ss.with_exclusive(|s| {
                s.modify_atom(oid("A"), 5i64).unwrap();
                panic!("the closure fails");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(ss.epoch(), e0);
        let next = catch_unwind(AssertUnwindSafe(|| ss.commit(&[Update::modify("A", 2i64)])));
        assert!(next.is_err(), "the log lost the pending entries");
        assert_eq!(ss.epoch(), e0);
        let snap = ss.snapshot();
        assert_eq!(snap.atom(oid("A")), Some(&Atom::Int(1)));
        snap.check_invariants().unwrap();
    }

    #[test]
    fn drain_reports_sequences_in_publish_order() {
        let ss = sharded(4);
        assert_eq!(ss.assigned_seq(), 0);
        ss.commit(&[Update::Create {
            object: Object::atom("A", "age", 1i64),
        }])
        .into_result()
        .unwrap();
        ss.commit(&[Update::modify("A", 2i64)])
            .into_result()
            .unwrap();
        let (base, entries, _) = ss.drain_reports();
        assert_eq!(base, 0);
        assert_eq!(entries.len(), 2);
        assert!(matches!(entries[0], AppliedUpdate::Create { .. }));
        ss.commit(&[Update::modify("A", 3i64)])
            .into_result()
            .unwrap();
        let (base, entries, _) = ss.drain_reports();
        assert_eq!(base, 2);
        assert_eq!(entries.len(), 1);
        assert_eq!(ss.assigned_seq(), 3);
    }

    #[test]
    fn concurrent_disjoint_writers_all_commit() {
        let ss = Arc::new(sharded(8));
        let writers = 4;
        let per = 25;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let ss = Arc::clone(&ss);
                scope.spawn(move || {
                    for i in 0..per {
                        ss.commit(&[Update::Create {
                            object: Object::atom(format!("w{w}_{i}").as_str(), "x", i as i64),
                        }])
                        .into_result()
                        .unwrap();
                    }
                });
            }
        });
        let snap = ss.snapshot();
        assert_eq!(snap.len(), 1 + writers * per);
        assert_eq!(ss.epoch(), (writers * per) as u64);
        snap.check_invariants().unwrap();
    }
}
