//! Multi-writer commit pipeline over the sharded store.
//!
//! A [`Store`] behind one mutex serializes every writer —
//! the paper's sources report updates *independently*, so a
//! source-side store should let independent writers commit
//! concurrently. [`ShardedStore`] provides that: it takes ownership of
//! a store and re-homes each shard's state behind **its own mutation
//! lock**, so commits touching disjoint shards proceed in parallel,
//! while readers keep loading immutable epoch snapshots that are never
//! torn across shards.
//!
//! ## The two-phase publish
//!
//! A [`commit`](ShardedStore::commit) runs in two phases:
//!
//! 1. **Apply.** Compute the batch's *affected shard set* (each basic
//!    update touches the home shards of the OIDs it names — see the
//!    ownership discipline in the `store` module docs),
//!    lock exactly those shards **in ascending index order**, and
//!    apply the batch to copy-on-write clones of the locked states.
//!    A failed update aborts the batch at that point with the prefix
//!    applied (the store's historical `apply_batch` semantics).
//! 2. **Publish.** Still holding the shard locks, take the global
//!    publish lock, compose the next snapshot — the previous published
//!    snapshot's shard states with the freshly mutated shards swapped
//!    in — and publish it through the [`EpochHandle`], bumping the
//!    single global epoch counter. The applied updates are appended to
//!    the commit log (still under the publish lock, so log order
//!    equals epoch order), then everything unlocks.
//!
//! **Deadlock freedom.** Every code path acquires locks in one global
//! order: shard locks in ascending shard index, then the publish lock,
//! then the log lock. Two commits that both need shards `{1, 3}` meet
//! at shard 1; a commit never waits on a lower-ordered lock while
//! holding a higher-ordered one. [`ShardedStore::with_exclusive`]
//! follows the same order (all shards ascending, then publish, then
//! log).
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
//! snapshot, locks, and re-validates against the locked (and
//! batch-mutated) state; if the guess was stale it widens the set and
//! retries, falling back to locking every shard after three attempts —
//! children can only change under the victim's own shard lock, so the
//! loop converges.

use crate::store::{shard_for, ShardAccess, ShardState};
use crate::{AppliedUpdate, EpochHandle, GsdbError, Store, Update};
use gsview_obs::Counter;
use std::sync::{Arc, Mutex, MutexGuard};

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

/// Store-level mutable metadata guarded by the publish lock.
#[derive(Debug)]
struct PublishState {
    /// Version of the live (= latest published) store state.
    version: u64,
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

/// A store partitioned behind per-shard mutation locks, with a global
/// epoch publisher — the concurrent commit path a
/// [`Source`](crate::Store) uses underneath. Readers call
/// [`snapshot`](ShardedStore::snapshot) (wait-free against writers);
/// writers call [`commit`](ShardedStore::commit) and contend only on
/// the shards their batch touches plus the brief publish step. Every
/// commit, and every mutation a [`with_exclusive`](ShardedStore::with_exclusive)
/// closure makes, is appended to the commit log the monitor drains.
pub struct ShardedStore {
    /// One lock per shard, indexed by shard id.
    locks: Vec<Mutex<ShardState>>,
    /// `log2(shard count)`.
    shift: u32,
    /// Whether assembled exclusive-mode stores count accesses.
    count_accesses: bool,
    /// The published-snapshot handle readers load from.
    epochs: Arc<EpochHandle>,
    /// Phase-two lock: serializes snapshot composition + epoch bump.
    publish: Mutex<PublishState>,
    /// The monitor feed. Locked after `publish` (never the reverse).
    log: Mutex<CommitLog>,
    /// Per-shard commit / lock-contention counters.
    metrics: Vec<ShardMetrics>,
    /// Commits whose affected set spanned more than one shard.
    cross_shard_commits: Arc<Counter>,
    /// Optional commit observer, called under the publish lock (after
    /// the log lock is released — lock order publish → log → hook).
    hook: Mutex<Option<PublishHook>>,
}

/// The locked-and-cloned view a commit applies its batch to: COW
/// clones of exactly the shards the batch affects. Touching any other
/// shard means the affected-set computation is wrong — that is a bug,
/// and the panic in `state()` is the detector.
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
    /// Take ownership of a store and re-home it behind per-shard
    /// locks. The store's current state becomes epoch 0's published
    /// snapshot; any pending log entries become the commit log's
    /// initial feed.
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

    fn build(store: Store, epoch: u64, next_seq: u64) -> ShardedStore {
        let snapshot = store.fork();
        let count_accesses = store.counts_accesses();
        let (shards, version, entries) = store.into_parts();
        let shift = shards.len().trailing_zeros();
        let metrics = (0..shards.len())
            .map(|i| ShardMetrics {
                commits: gsview_obs::registry().counter(&format!("store.shard.commits.{i}")),
                lock_waits: gsview_obs::registry().counter(&format!("store.shard.lock_wait.{i}")),
            })
            .collect();
        ShardedStore {
            locks: shards.into_iter().map(Mutex::new).collect(),
            shift,
            count_accesses,
            epochs: Arc::new(EpochHandle::with_epoch(snapshot, epoch)),
            publish: Mutex::new(PublishState { version }),
            log: Mutex::new(CommitLog { entries, next_seq }),
            metrics,
            cross_shard_commits: gsview_obs::registry().counter("store.commit.cross_shard"),
            hook: Mutex::new(None),
        }
    }

    /// Install a commit observer, replacing any previous one. The hook
    /// runs under the publish lock after every epoch publish (both
    /// [`commit`](ShardedStore::commit) and
    /// [`with_exclusive`](ShardedStore::with_exclusive)), receiving
    /// the published snapshot — commits are observed in epoch order
    /// with no gaps from installation onward. Keep hooks short: every
    /// writer serializes behind them.
    pub fn set_publish_hook(&self, hook: impl Fn(&PublishInfo, &Store) + Send + Sync + 'static) {
        *self.hook.lock().unwrap() = Some(Box::new(hook));
    }

    /// Remove the commit observer, if any.
    pub fn clear_publish_hook(&self) {
        *self.hook.lock().unwrap() = None;
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
        self.log.lock().unwrap().next_seq
    }

    /// The latest published snapshot with what a publish hook is told
    /// about it — epoch, version and the sequence watermark
    /// ([`PublishInfo::assigned_seq_total`]) — read together under the
    /// publish lock, so no commit lands between the reads. A durable
    /// baseline taken here describes exactly the snapshot it holds,
    /// and can never lead a recovered source to reuse a sequence
    /// number the warehouse already consumed.
    pub fn published(&self) -> (PublishInfo, Arc<Store>) {
        let pub_state = self.publish.lock().unwrap();
        let (epoch, snapshot) = self.epochs.load_with_epoch();
        let log = self.log.lock().unwrap();
        let info = PublishInfo {
            epoch,
            version: pub_state.version,
            assigned_seq_total: log.next_seq + log.entries.len() as u64,
        };
        (info, snapshot)
    }

    /// The home shard of an OID (same function every snapshot uses).
    pub fn shard_of(&self, oid: crate::Oid) -> usize {
        shard_for(oid, self.shift)
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

    /// Lock the shards in `mask`, ascending, counting contention.
    fn lock_mask(&self, mask: u16) -> Vec<Option<MutexGuard<'_, ShardState>>> {
        (0..self.locks.len())
            .map(|i| {
                if mask & (1 << i) == 0 {
                    return None;
                }
                Some(match self.locks[i].try_lock() {
                    Ok(g) => g,
                    Err(std::sync::TryLockError::WouldBlock) => {
                        self.metrics[i].lock_waits.incr();
                        self.locks[i].lock().unwrap()
                    }
                    Err(std::sync::TryLockError::Poisoned(e)) => {
                        panic!("shard {i} lock poisoned: {e}")
                    }
                })
            })
            .collect()
    }

    /// One apply attempt against a locked set: clone the locked
    /// shards, apply the batch. `Ok` carries the mutated view and the
    /// per-update outcomes; `Err(Widen)` means a `Remove` needs shards
    /// outside `mask` and nothing is committed.
    #[allow(clippy::type_complexity)]
    fn try_apply(
        &self,
        guards: &[Option<MutexGuard<'_, ShardState>>],
        mask: u16,
        updates: &[Update],
    ) -> Result<(CommitView, Vec<AppliedUpdate>, Option<GsdbError>), Attempt> {
        let mut view = CommitView {
            shift: self.shift,
            states: guards.iter().map(|g| g.as_deref().cloned()).collect(),
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
            // state: the victim's shard is locked, so its children are
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
        let all_mask = if self.locks.len() >= 16 {
            u16::MAX
        } else {
            (1u16 << self.locks.len()) - 1
        };
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
                mask = all_mask;
            }
            let mut guards = self.lock_mask(mask);
            match self.try_apply(&guards, mask, updates) {
                Err(Attempt::Widen(need)) => {
                    drop(guards);
                    mask |= need;
                    continue;
                }
                Ok((view, applied, error)) => {
                    if applied.is_empty() {
                        return CommitResult {
                            epoch: None,
                            applied,
                            error,
                        };
                    }
                    // Phase two: publish while still holding the shard
                    // locks, so no concurrent commit can slip a
                    // conflicting snapshot between our apply and our
                    // publish.
                    let oidset_changed = applied.iter().any(|a| {
                        matches!(
                            a,
                            AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. }
                        )
                    });
                    let mut pub_state = self.publish.lock().unwrap();
                    pub_state.version += applied.len() as u64;
                    let replaced: Vec<(usize, ShardState)> = view
                        .states
                        .into_iter()
                        .enumerate()
                        .filter_map(|(i, s)| s.map(|s| (i, s)))
                        .collect();
                    // Write the mutated states back into the live
                    // shards, then compose the snapshot from the same
                    // states (cheap COW clones of each other).
                    for (i, s) in &replaced {
                        **guards[*i].as_mut().unwrap() = s.clone();
                    }
                    let composed = Store::compose_from(
                        &self.epochs.load(),
                        replaced,
                        pub_state.version,
                        oidset_changed,
                    );
                    let epoch = self.epochs.publish(composed);
                    let seq_total = {
                        // Still under the publish lock: log order ==
                        // epoch order, which the monitor turns into
                        // sequence numbers.
                        let mut log = self.log.lock().unwrap();
                        log.entries.extend(applied.iter().cloned());
                        log.next_seq + log.entries.len() as u64
                    };
                    if let Some(h) = self.hook.lock().unwrap().as_ref() {
                        h(
                            &PublishInfo {
                                epoch,
                                version: pub_state.version,
                                assigned_seq_total: seq_total,
                            },
                            &self.epochs.load(),
                        );
                    }
                    let shards_touched = mask.count_ones();
                    for i in 0..self.locks.len() {
                        if mask & (1 << i) != 0 {
                            self.metrics[i].commits.incr();
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
                    drop(pub_state);
                    return CommitResult {
                        epoch: Some(epoch),
                        applied,
                        error,
                    };
                }
            }
        }
    }

    /// Run a closure with exclusive mutable access to the whole store,
    /// assembled as a plain [`Store`] — the escape hatch for setup
    /// code, direct-access experiments, and the historical
    /// `with_store` API. Takes every shard lock (ascending), the
    /// publish lock, and the log lock; pending commit-log entries are
    /// checked out into the assembled store's log (so the closure
    /// observes the same log a single-mutex store would) and whatever
    /// the closure leaves in the log is checked back in. If the
    /// closure mutated the store, the new state is published as one
    /// epoch.
    pub fn with_exclusive<T>(&self, f: impl FnOnce(&mut Store) -> T) -> T {
        let mut guards = self.lock_mask(if self.locks.len() >= 16 {
            u16::MAX
        } else {
            (1u16 << self.locks.len()) - 1
        });
        let mut pub_state = self.publish.lock().unwrap();
        let mut log = self.log.lock().unwrap();
        let states: Vec<ShardState> = guards
            .iter_mut()
            .map(|g| std::mem::take(&mut **g.as_mut().unwrap()))
            .collect();
        let mut store = Store::from_parts(
            states,
            pub_state.version,
            std::mem::take(&mut log.entries),
            self.count_accesses,
        );
        let before = store.version();

        let out = f(&mut store);

        let changed = store.version() != before;
        let snapshot = changed.then(|| store.fork());
        let (states, version, entries) = store.into_parts();
        for (g, s) in guards.iter_mut().zip(states) {
            **g.as_mut().unwrap() = s;
        }
        pub_state.version = version;
        log.entries = entries;
        if let Some(snap) = snapshot {
            let epoch = self.epochs.publish(snap);
            gsview_obs::event!("store.commit", "epoch" = epoch, "exclusive" = true);
            let seq_total = log.next_seq + log.entries.len() as u64;
            if let Some(h) = self.hook.lock().unwrap().as_ref() {
                h(
                    &PublishInfo {
                        epoch,
                        version: pub_state.version,
                        assigned_seq_total: seq_total,
                    },
                    &self.epochs.load(),
                );
            }
        }
        out
    }

    /// Drain the commit log for the monitor: returns the first drained
    /// entry's sequence number, the entries in publish order, and a
    /// snapshot that reflects **at least** those entries (it may
    /// additionally include commits published while the drain was in
    /// flight — never fewer).
    pub fn drain_reports(&self) -> (u64, Vec<AppliedUpdate>, Arc<Store>) {
        let mut log = self.log.lock().unwrap();
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
        let n = ss.with_exclusive(|s| s.len());
        assert_eq!(n, 1);
        assert_eq!(ss.epoch(), e0);
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
