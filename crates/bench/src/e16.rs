//! E16 — multi-writer commit throughput on the sharded store.
//!
//! The sharding PR partitions the COW slab into N shards, each with
//! its own mutation lock, free list and indexes; independent sources
//! commit concurrently and cross-shard batches go through a two-phase
//! publish (lock affected shards in ascending order, apply to COW
//! clones, bump one global epoch). This experiment measures what that
//! buys on the write path:
//!
//! * **`commit/mutex`** — the pre-sharding discipline: one mutex
//!   around the whole store, every committer locks it, applies its
//!   batch, forks and publishes. Writer parallelism is zero by
//!   construction.
//! * **`commit/sharded@N`** for N ∈ {1, 2, 4, 8} — the same writers
//!   and the same batches driven through [`ShardedStore::commit`].
//!   Writers whose batches touch disjoint shard sets hold disjoint
//!   locks and only serialize on the (short) publish section.
//!
//! Writers get disjoint object pools, so every batch commits; the
//! final epoch count is exactly `writers x batches` on every route
//! and the final object set is byte-identical — the smoke test
//! (`tests/e16_smoke.rs`) pins these facts against a checked-in
//! baseline. Every object a writer touches is *pinned* to the
//! writer's home shard (names are probed until the placement hash
//! lands there; the hash nests across power-of-two shard counts, so
//! one pinning works at every N), making each batch single-shard —
//! the layout sharding is designed to exploit. Per-shard lock-wait
//! counters and the cross-shard commit counter (from `gsview-obs`)
//! are reported as deltas per route: lock waits collapse once
//! `shards >= writers`, because writers then hold disjoint locks and
//! only serialize on the short publish section.
//!
//! * **`commit/sized@8`** — one writer, 8 shards, the same fixed
//!   8-update *structural* batch (two creates, two edge inserts, and
//!   their deletes and removes, so it can be committed any number of
//!   times) over stores of 3 k / 30 k / 300 k objects. A commit copies
//!   what it writes — here 3 pages and 4 index segments, whatever the
//!   store holds — where it used to copy the whole `slot_of` and
//!   `parent_index` of every shard it touched. The `copied/commit`
//!   column (`store.cow.pages_copied` + `store.cow.segments_copied`
//!   per commit) is the machine-independent form of that claim, and
//!   the smoke test pins it equal at the two quick-mode sizes. Each of
//!   the three shards written also copies its page directory once
//!   (`store.cow.directories_copied`, counted apart), and the first
//!   write to a table copies that table's directory: one pointer per 64
//!   slots / ~100 entries, the term by which commits/sec still slopes
//!   with size.
//!
//! Single-core caveat: this container exposes **one hardware thread**,
//! so writer threads are time-sliced and the commits/sec column mostly
//! bounds the pipeline's overhead vs the bare mutex (the lock-wait
//! column is where the scaling shows). EXPERIMENTS.md records the
//! numbers with this caveat; on a multi-core host the sharded routes
//! separate from the mutex baseline in proportion to the disjointness
//! of the writers' shard sets.

use crate::table::{fnum, Table};
use gsdb::{EpochHandle, Object, Oid, ShardedStore, Store, StoreConfig, Update};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Writer threads in quick mode.
pub const QUICK_WRITERS: usize = 4;
/// Batches each writer commits in quick mode.
pub const QUICK_BATCHES: usize = 150;
/// Modifies per batch (each batch also creates and attaches one fresh
/// atom, so batches are never empty and the OID set grows
/// deterministically).
pub const QUICK_OPS: usize = 6;
/// Pre-created atoms per writer (the modify targets).
pub const ATOMS_PER_WRITER: usize = 4;

/// One measured route at one configuration.
#[derive(Clone, Debug)]
pub struct CommitRow {
    /// `commit/mutex` or `commit/sharded@N`.
    pub route: String,
    /// Slab shards on this route (1 for the mutex baseline).
    pub shards: usize,
    /// Racing writer threads.
    pub writers: usize,
    /// Commits performed (= writers x batches; every batch succeeds).
    pub commits: u64,
    /// Commits per second, wall clock across all writers.
    pub commits_per_sec: f64,
    /// Epochs published when the run finished.
    pub epochs: u64,
    /// Objects in the final snapshot.
    pub objects: usize,
    /// Shard-lock acquisitions that found the lock held (delta over
    /// the run; always 0 on the mutex route, which has no shard
    /// locks).
    pub lock_waits: u64,
    /// Commits whose batch spanned more than one shard (delta).
    pub cross_shard: u64,
    /// Pages plus index segments copied because a published snapshot
    /// still shared them (delta of `store.cow.pages_copied` +
    /// `store.cow.segments_copied` over the run).
    pub copied: u64,
}

/// Store sizes of the `commit/sized@8` leg; quick mode runs the first
/// two.
const SIZES: [usize; 3] = [3_000, 30_000, 300_000];

/// An 8-shard probe store, used only to ask where an OID homes. The
/// placement hash nests: homing to shard `w` at 8 shards implies
/// homing to `w & (n-1)` at any smaller power-of-two `n`, so one
/// pinning serves every shard count in the sweep.
fn probe_store() -> Store {
    Store::with_config(StoreConfig::default().with_shards(8))
}

/// First name `{base}x{k}` whose OID homes to shard `want` on an
/// 8-shard slab. Deterministic: the probe sequence depends only on
/// the base name.
fn pinned(probe: &Store, base: &str, want: usize) -> String {
    (0u32..)
        .map(|k| format!("{base}x{k}"))
        .find(|n| probe.shard_of(Oid::new(n)) == want)
        .unwrap()
}

/// A store with one parent set and `ATOMS_PER_WRITER` atoms per
/// writer — pools are disjoint *and* every one of writer `w`'s
/// objects is pinned to shard `w % 8`, so racing writers never
/// conflict and each batch stays single-shard.
fn build_store(shards: usize, writers: usize) -> Store {
    let probe = probe_store();
    let mut store = Store::with_config(StoreConfig::default().with_shards(shards));
    for w in 0..writers {
        let parent = pinned(&probe, &format!("e16p{w}"), w % 8);
        store
            .create(Object::empty_set(parent.as_str(), "pool"))
            .unwrap();
        for j in 0..ATOMS_PER_WRITER {
            let a = pinned(&probe, &format!("e16w{w}a{j}"), w % 8);
            store.create(Object::atom(a.as_str(), "val", 0i64)).unwrap();
            store
                .insert_edge(Oid::new(&parent), Oid::new(&a))
                .unwrap();
        }
    }
    store
}

/// Writer `w`'s deterministic batch script: `ops` modifies cycling its
/// own atom pool, plus one create+attach of a fresh (shard-pinned)
/// atom per batch.
fn writer_batches(w: usize, batches: usize, ops: usize) -> Vec<Vec<Update>> {
    let probe = probe_store();
    let pool: Vec<Oid> = (0..ATOMS_PER_WRITER)
        .map(|j| Oid::new(&pinned(&probe, &format!("e16w{w}a{j}"), w % 8)))
        .collect();
    let parent = Oid::new(&pinned(&probe, &format!("e16p{w}"), w % 8));
    (0..batches)
        .map(|b| {
            let mut batch: Vec<Update> = (0..ops)
                .map(|j| Update::modify(pool[(b + j) % pool.len()], (b * 31 + j) as i64))
                .collect();
            let fresh = Oid::new(&pinned(&probe, &format!("e16w{w}b{b}"), w % 8));
            batch.push(Update::create(Object::atom(fresh.name(), "val", b as i64)));
            batch.push(Update::insert(parent, fresh));
            batch
        })
        .collect()
}

/// Sum of the per-shard counters `prefix.{0..shards}` from the global
/// metrics registry.
fn shard_counter_sum(prefix: &str, shards: usize) -> u64 {
    let reg = gsview_obs::registry();
    (0..shards)
        .map(|i| reg.counter(&format!("{prefix}.{i}")).get())
        .sum()
}

/// Pages plus index segments copied so far, process-wide.
fn copied() -> u64 {
    let reg = gsview_obs::registry();
    reg.counter("store.cow.pages_copied").get() + reg.counter("store.cow.segments_copied").get()
}

/// Drive `writers` threads through one [`ShardedStore`]; every thread
/// commits its scripted batches as fast as it can.
pub fn run_sharded(shards: usize, writers: usize, batches: usize, ops: usize) -> CommitRow {
    let pipeline = ShardedStore::new(build_store(shards, writers));
    let n = pipeline.shard_count();
    let waits0 = shard_counter_sum("store.shard.lock_wait", n);
    let cross0 = gsview_obs::registry().counter("store.commit.cross_shard").get();
    let copied0 = copied();
    let start = Barrier::new(writers + 1);

    let secs = std::thread::scope(|scope| {
        let pipeline = &pipeline;
        let start = &start;
        let joins: Vec<_> = (0..writers)
            .map(|w| {
                scope.spawn(move || {
                    let script = writer_batches(w, batches, ops);
                    start.wait();
                    for batch in &script {
                        let r = pipeline.commit(batch);
                        assert!(r.error.is_none(), "disjoint batch rejected: {:?}", r.error);
                    }
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for j in joins {
            j.join().expect("writer panicked");
        }
        t0.elapsed().as_secs_f64()
    });

    let snap = pipeline.snapshot();
    snap.check_invariants().expect("invariants after the race");
    let commits = (writers * batches) as u64;
    CommitRow {
        route: format!("commit/sharded@{n}"),
        shards: n,
        writers,
        commits,
        commits_per_sec: commits as f64 / secs.max(1e-12),
        epochs: pipeline.epoch(),
        objects: snap.len(),
        lock_waits: shard_counter_sum("store.shard.lock_wait", n) - waits0,
        cross_shard: gsview_obs::registry().counter("store.commit.cross_shard").get() - cross0,
        copied: copied() - copied0,
    }
}

/// One writer committing the same structural batch `commits` times
/// through an 8-shard pipeline over `objects` objects. The batch's
/// parent and its two fresh atoms are pinned to three different
/// shards, so what a commit touches — and copies — is the same at
/// every store size.
fn run_sized(objects: usize, commits: usize) -> CommitRow {
    let probe = probe_store();
    let mut store = Store::with_config(StoreConfig::default().with_shards(8));
    store.reserve(objects);
    for k in 0..objects / 5 {
        let atoms: Vec<Oid> = (0..4).map(|j| Oid::new(&format!("e16s{k}a{j}"))).collect();
        for (j, a) in atoms.iter().enumerate() {
            store
                .create(Object::atom(a.name(), "val", j as i64))
                .unwrap();
        }
        store
            .create(Object::set(format!("e16s{k}"), "tuple", &atoms))
            .unwrap();
    }
    let parent = Oid::new(&pinned(&probe, "e16sp", 0));
    store
        .create(Object::empty_set(parent.name(), "pool"))
        .unwrap();
    let fresh =
        [("e16sx", 1), ("e16sy", 2)].map(|(base, shard)| Oid::new(&pinned(&probe, base, shard)));
    let mut batch = Vec::new();
    for x in fresh {
        batch.push(Update::create(Object::atom(x.name(), "val", 0i64)));
        batch.push(Update::insert(parent, x));
    }
    for x in fresh {
        batch.push(Update::delete(parent, x));
        batch.push(Update::Remove { oid: x });
    }
    let pipeline = ShardedStore::new(store);
    let commit = || {
        let r = pipeline.commit(&batch);
        assert!(
            r.error.is_none(),
            "structural batch rejected: {:?}",
            r.error
        );
    };
    // The first commit takes the fresh atoms' slots and grows what
    // needs growing; every later one reuses both.
    commit();
    let copied0 = copied();
    let t0 = Instant::now();
    for _ in 0..commits {
        commit();
    }
    let secs = t0.elapsed().as_secs_f64();
    let snap = pipeline.snapshot();
    snap.check_invariants()
        .expect("invariants after the sized run");
    CommitRow {
        route: "commit/sized@8".into(),
        shards: 8,
        writers: 1,
        commits: commits as u64,
        commits_per_sec: commits as f64 / secs.max(1e-12),
        epochs: pipeline.epoch(),
        objects: snap.len(),
        lock_waits: 0,
        cross_shard: commits as u64,
        copied: copied() - copied0,
    }
}

/// The pre-sharding baseline: one mutex around the store; every
/// commit locks it, applies the batch, forks and publishes.
pub fn run_mutex(writers: usize, batches: usize, ops: usize) -> CommitRow {
    let store = build_store(1, writers);
    let epochs = EpochHandle::new(store.fork());
    let store = Mutex::new(store);
    let copied0 = copied();
    let start = Barrier::new(writers + 1);

    let secs = std::thread::scope(|scope| {
        let store = &store;
        let epochs = &epochs;
        let start = &start;
        let joins: Vec<_> = (0..writers)
            .map(|w| {
                scope.spawn(move || {
                    let script = writer_batches(w, batches, ops);
                    start.wait();
                    for batch in &script {
                        let mut s = store.lock().unwrap();
                        for u in batch {
                            s.apply(u.clone()).expect("disjoint update applies");
                        }
                        // Publish under the lock: a writer that released
                        // it first could publish its older snapshot over
                        // a newer one, and the final epoch would miss
                        // batches.
                        epochs.publish(s.fork());
                    }
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for j in joins {
            j.join().expect("writer panicked");
        }
        t0.elapsed().as_secs_f64()
    });

    let snap = epochs.load();
    snap.check_invariants().expect("invariants after the race");
    let commits = (writers * batches) as u64;
    CommitRow {
        route: "commit/mutex".into(),
        shards: 1,
        writers,
        commits,
        commits_per_sec: commits as f64 / secs.max(1e-12),
        epochs: epochs.epoch(),
        objects: snap.len(),
        lock_waits: 0,
        cross_shard: 0,
        copied: copied() - copied0,
    }
}

/// Deterministic quick-mode facts, pinned by the checked-in baseline
/// (`baselines/e16_quick.json`) and the smoke test: at every shard
/// count the pipeline publishes exactly `writers x batches` epochs
/// onto the same final object set. Returns
/// `(epochs_published, final_objects)` — identical at N = 1/2/4/8 and
/// on the mutex baseline, which the smoke test also re-verifies.
pub fn quick_facts() -> (u64, u64) {
    let (writers, batches, ops) = (3usize, 40usize, 4usize);
    let mut rows: Vec<CommitRow> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| run_sharded(n, writers, batches, ops))
        .collect();
    rows.push(run_mutex(writers, batches, ops));
    let want_epochs = (writers * batches) as u64;
    for r in &rows {
        assert_eq!(r.epochs, want_epochs, "{}: epoch accounting broke", r.route);
        assert_eq!(r.objects, rows[0].objects, "{}: object set diverged", r.route);
    }
    (want_epochs, rows[0].objects as u64)
}

/// Pages plus index segments one structural commit copies at the two
/// quick-mode store sizes — exact (one writer, a fixed batch), pinned
/// equal to each other and to the baseline by the smoke test.
pub fn quick_copy_facts() -> [u64; 2] {
    [SIZES[0], SIZES[1]].map(|objects| {
        let commits = 50;
        let row = run_sized(objects, commits);
        assert_eq!(
            row.copied % commits as u64,
            0,
            "every commit copies the same"
        );
        row.copied / commits as u64
    })
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let (writers, batches, ops) = if quick {
        (QUICK_WRITERS, QUICK_BATCHES, QUICK_OPS)
    } else {
        (8, 400, 8)
    };
    let mut t = Table::new(
        "E16",
        "multi-writer commit throughput: sharded pipeline vs single mutex",
        "sharded commits match the mutex baseline's state exactly; lock \
         waits collapse once shards >= writers (throughput separates on \
         multi-core)",
    )
    .headers(&[
        "route",
        "shards",
        "writers",
        "commits",
        "commits/sec",
        "vs mutex",
        "lock waits",
        "cross-shard",
        "copied/commit",
        "objects",
    ]);
    let mutex = run_mutex(writers, batches, ops);
    let mut rows = vec![mutex.clone()];
    for n in [1usize, 2, 4, 8] {
        rows.push(run_sharded(n, writers, batches, ops));
    }
    for &objects in &SIZES[..if quick { 2 } else { 3 }] {
        rows.push(run_sized(objects, if quick { 300 } else { 3_000 }));
    }
    for r in &rows {
        t.row(vec![
            r.route.clone(),
            r.shards.to_string(),
            r.writers.to_string(),
            r.commits.to_string(),
            fnum(r.commits_per_sec),
            format!("{}x", fnum(r.commits_per_sec / mutex.commits_per_sec.max(1e-9))),
            r.lock_waits.to_string(),
            r.cross_shard.to_string(),
            fnum(r.copied as f64 / r.commits as f64),
            r.objects.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_route_publishes_one_epoch_per_batch() {
        for n in [1usize, 4] {
            let row = run_sharded(n, 2, 10, 3);
            assert_eq!(row.epochs, 20, "sharded@{n}");
            assert_eq!(row.commits, 20);
        }
        let row = run_mutex(2, 10, 3);
        assert_eq!(row.epochs, 20);
    }

    #[test]
    fn routes_agree_on_the_final_state() {
        let a = run_sharded(8, 3, 8, 3);
        let b = run_mutex(3, 8, 3);
        assert_eq!(a.objects, b.objects);
        // 1 parent + ATOMS_PER_WRITER atoms per writer, plus one
        // fresh atom per committed batch.
        assert_eq!(a.objects, 3 * (1 + ATOMS_PER_WRITER) + 24);
    }

    #[test]
    fn quick_facts_are_deterministic() {
        assert_eq!(quick_facts(), quick_facts());
    }
}
