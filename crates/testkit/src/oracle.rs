//! A reusable differential-testing oracle for view maintenance.
//!
//! Four independent routes to the post-update view state must agree:
//!
//! 1. **Sequential** — Algorithm 1, one [`Maintainer::apply`] per
//!    update, each against the base state right after that update;
//! 2. **Batched** — one [`Maintainer::apply_batch`] over the whole
//!    update run, against the final base state;
//! 3. **Recompute** — materialize the definition from scratch on the
//!    final base state;
//! 4. **Circuit** — a [`CircuitMaintainer`] stepping the compiled
//!    delta circuit by the consolidated batch.
//!
//! Each route's view is additionally validated with
//! [`consistency::check`] (membership *and* delegate content against
//! the base). Any disagreement is reported with enough context to
//! replay: the update run, which routes diverged, and how.

use crate::{fail, run_text};
use gsdb::{DeltaBatch, Oid, Result, ShardedStore, Store, Update};
use gsview_core::recompute::recompute;
use gsview_core::{
    consistency, BatchOutcome, CircuitMaintainer, CircuitSource, LocalBase, Maintainer,
    MaterializedView, ParallelMaintainer, SimpleViewDef,
};

/// The outcome of one oracle run.
#[derive(Clone, Debug, Default)]
pub struct OracleVerdict {
    /// Updates that applied cleanly and were maintained.
    pub applied: usize,
    /// Updates the store rejected (e.g. deleting an absent edge);
    /// skipped identically on every route.
    pub skipped: usize,
    /// Final membership (from the recompute route).
    pub members: Vec<Oid>,
    /// The batched route's outcome (consolidation and repair counts).
    pub batch: BatchOutcome,
    /// Human-readable descriptions of every disagreement. Empty =
    /// the three routes agree and all consistency checks pass.
    pub failures: Vec<String>,
}

impl OracleVerdict {
    /// True iff every route agreed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The fault-free reference run: Algorithm 1, one update at a time,
/// against the base state right after each update — the ground truth
/// a recovered pipeline must match.
///
/// Updates the store rejects (e.g. deleting an absent edge) are
/// skipped, identically to [`check_equivalence`] and the warehouse
/// chaos harness, so both sides of a differential comparison see the
/// same effective workload. The final view is consistency-checked;
/// any violation is a bug in the oracle itself and panics.
pub(crate) fn reference_members(
    def: &SimpleViewDef,
    initial: &Store,
    updates: &[Update],
) -> Result<Vec<Oid>> {
    let mut mv = recompute(def, &mut LocalBase::new(initial))?;
    let maintainer = Maintainer::new(def.clone());
    let mut store = initial.clone();
    for u in updates {
        if let Ok(applied) = store.apply(u.clone()) {
            maintainer.apply(&mut mv, &mut LocalBase::new(&store), &applied)?;
        }
    }
    let problems = consistency::check(def, &mut LocalBase::new(&store), &mv);
    assert!(
        problems.is_empty(),
        "reference run is inconsistent (oracle bug): {problems:?}"
    );
    Ok(mv.members_base())
}

/// Describe how the membership `got` diverges from `want`, or `None`
/// if they agree. The description names both the missing and the
/// spurious members, so a differential-test failure is actionable
/// without re-running.
pub(crate) fn diff_members(label: &str, got: &[Oid], want: &[Oid]) -> Option<String> {
    if got == want {
        return None;
    }
    let missing: Vec<&Oid> = want.iter().filter(|o| !got.contains(o)).collect();
    let extra: Vec<&Oid> = got.iter().filter(|o| !want.contains(o)).collect();
    Some(format!(
        "{label}: membership diverged (missing {missing:?}, extra {extra:?}): {got:?} vs {want:?}"
    ))
}

/// Run the three routes for `def` over `updates`, starting from
/// `initial`, and compare. Never panics on disagreement — inspect
/// [`OracleVerdict::failures`] (or use [`assert_equivalent`]).
pub fn check_equivalence(
    def: &SimpleViewDef,
    initial: &Store,
    updates: &[Update],
) -> Result<OracleVerdict> {
    let mut verdict = OracleVerdict::default();

    // All maintained views start from the same initial materialization.
    let mut mv_seq = recompute(def, &mut LocalBase::new(initial))?;
    let mut mv_batched = recompute(def, &mut LocalBase::new(initial))?;
    let mut mv_circuit = recompute(def, &mut LocalBase::new(initial))?;
    let circuit = CircuitMaintainer::new(CircuitSource::Simple(def.clone()));
    circuit.initialize(&mut mv_circuit, initial)?;

    // Route 1 (sequential) drives the store forward and collects the
    // applied updates for route 2.
    let maintainer = Maintainer::new(def.clone());
    let mut store = initial.clone();
    let mut batch = DeltaBatch::new();
    for u in updates {
        match store.apply(u.clone()) {
            Ok(applied) => {
                maintainer.apply(&mut mv_seq, &mut LocalBase::new(&store), &applied)?;
                batch.push(applied);
                verdict.applied += 1;
            }
            Err(_) => verdict.skipped += 1,
        }
    }

    // Route 2 (batched) sees only the final state.
    verdict.batch = maintainer.apply_batch(&mut mv_batched, &mut LocalBase::new(&store), &batch)?;

    // Route 3 (recompute).
    let mv_full = recompute(def, &mut LocalBase::new(&store))?;
    verdict.members = mv_full.members_base();

    // Route 4 (circuit): one incremental step by the consolidated
    // batch. An unexpected rebuild would make this leg vacuously agree
    // with recompute, so it counts as a failure.
    circuit.apply_batch(&mut mv_circuit, &store, &batch)?;
    if circuit.steps() != 1 || circuit.rebuilds() != 1 {
        verdict.failures.push(format!(
            "circuit: expected one incremental step after the initial build, got steps={} rebuilds={}",
            circuit.steps(),
            circuit.rebuilds()
        ));
    }

    let seq = mv_seq.members_base();
    let batched = mv_batched.members_base();
    let circ = mv_circuit.members_base();
    verdict.failures.extend(diff_members(
        "sequential vs recompute",
        &seq,
        &verdict.members,
    ));
    verdict.failures.extend(diff_members(
        "batched vs recompute",
        &batched,
        &verdict.members,
    ));
    verdict.failures.extend(diff_members(
        "circuit vs recompute",
        &circ,
        &verdict.members,
    ));
    for (name, mv) in [
        ("sequential", &mv_seq),
        ("batched", &mv_batched),
        ("recompute", &mv_full),
        ("circuit", &mv_circuit),
    ] {
        for problem in consistency::check(def, &mut LocalBase::new(&store), mv) {
            verdict.failures.push(format!("{name}: {problem}"));
        }
    }
    Ok(verdict)
}

/// Multi-view differential oracle: for every definition, the
/// **parallel** route ([`ParallelMaintainer::apply_batch`] with
/// `threads` workers over partitioned deltas) must agree with the
/// per-view sequential route, the per-view batched route, and full
/// recomputation. One [`OracleVerdict`] per definition, in order.
///
/// This is the soundness check for the partition rules: a delta
/// wrongly screened away from a view shows up here as a divergence
/// between the parallel route and the other three.
pub fn check_parallel_equivalence(
    defs: &[SimpleViewDef],
    initial: &Store,
    updates: &[Update],
    threads: usize,
) -> Result<Vec<OracleVerdict>> {
    // The parallel route's views, maintained in one fan-out at the end.
    let mut par_views: Vec<MaterializedView> = defs
        .iter()
        .map(|d| recompute(d, &mut LocalBase::new(initial)))
        .collect::<Result<_>>()?;

    // Drive the store forward once; collect the applied batch.
    let mut store = initial.clone();
    let mut batch = DeltaBatch::new();
    for u in updates {
        if let Ok(applied) = store.apply(u.clone()) {
            batch.push(applied);
        }
    }
    let pm = ParallelMaintainer::new(defs.to_vec());
    pm.apply_batch(&mut par_views, &store, &batch, threads)?;

    // Per-view: the three-route oracle plus the parallel comparison.
    let mut verdicts = Vec::with_capacity(defs.len());
    for (def, par_mv) in defs.iter().zip(&par_views) {
        let mut v = check_equivalence(def, initial, updates)?;
        let par = par_mv.members_base();
        v.failures.extend(diff_members(
            &format!("parallel({threads}) vs recompute for `{}`", def.view),
            &par,
            &v.members,
        ));
        for problem in consistency::check(def, &mut LocalBase::new(&store), par_mv) {
            v.failures.push(format!("parallel({threads}): {problem}"));
        }
        verdicts.push(v);
    }
    Ok(verdicts)
}

/// [`check_parallel_equivalence`], panicking with full replay context
/// on the first disagreement.
pub fn assert_parallel_equivalent(
    defs: &[SimpleViewDef],
    initial: &Store,
    updates: &[Update],
    threads: usize,
) {
    let verdicts =
        check_parallel_equivalence(defs, initial, updates, threads).expect("oracle run failed");
    for (def, v) in defs.iter().zip(&verdicts) {
        if !v.ok() {
            fail(
                &format!(
                    "parallel maintenance diverged for `{def}` at {threads} threads\nupdates: {}\nfailures:",
                    run_text(updates)
                ),
                &v.failures,
            );
        }
    }
}

/// The outcome of one sharded multi-writer commit oracle run.
///
/// Produced by [`check_sharded_commit_equivalence`]: racing writer
/// threads committed their update runs through a [`ShardedStore`],
/// the published epoch numbers serialized the race into one total
/// order, and that serial run was fed through every maintenance route
/// of [`check_parallel_equivalence`] plus a replay comparison against
/// the pipeline's own final snapshot.
#[derive(Clone, Debug, Default)]
pub struct ShardedVerdict {
    /// Per-definition verdicts of the serialized run (sequential,
    /// batched, recompute, and parallel routes).
    pub verdicts: Vec<OracleVerdict>,
    /// The committed updates in epoch (= commit) order — the exact
    /// serialization the sharded pipeline chose. Replayable.
    pub serialized: Vec<Update>,
    /// Epochs the pipeline published (one per successful commit).
    pub epochs: u64,
    /// Failures of the sharded layer itself: replayed state vs the
    /// pipeline's final snapshot, epoch accounting, and store
    /// invariants. Route divergences live in `verdicts`.
    pub failures: Vec<String>,
}

impl ShardedVerdict {
    /// True iff the sharded layer checks out and every route agreed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.verdicts.iter().all(|v| v.ok())
    }
}

/// Sharded multi-writer commit oracle: `per_writer` update runs race —
/// one writer thread each, committing update-by-update through one
/// [`ShardedStore`] over `shards` shards — and the result must be
/// indistinguishable from *some* serial execution:
///
/// 1. The published epoch numbers totally order the committed updates
///    (epochs are assigned under the pipeline's publish lock); replay
///    that serialization on a plain single-threaded store — the final
///    state must equal the pipeline's final published snapshot, object
///    for object.
/// 2. The serialized run must pass the full four-route maintenance
///    oracle ([`check_parallel_equivalence`]): seq ≡ batched ≡
///    recompute ≡ parallel, extended by this function to ≡ sharded
///    multi-writer.
/// 3. The final snapshot must satisfy every per-shard and global store
///    invariant, and the epoch counter must equal the number of
///    successful commits.
///
/// Updates a writer's commit rejects are skipped (no epoch consumed),
/// matching the skip semantics of every other oracle entry point.
pub fn check_sharded_commit_equivalence(
    defs: &[SimpleViewDef],
    initial: &Store,
    per_writer: &[Vec<Update>],
    shards: usize,
    threads: usize,
) -> Result<ShardedVerdict> {
    use std::sync::Mutex;

    let mut verdict = ShardedVerdict::default();
    let pipeline = ShardedStore::new(initial.reshard(shards));
    let base_epoch = pipeline.epoch();

    let committed: Mutex<Vec<(u64, Update)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for run in per_writer {
            let pipeline = &pipeline;
            let committed = &committed;
            scope.spawn(move || {
                for u in run {
                    let r = pipeline.commit(std::slice::from_ref(u));
                    if let Some(epoch) = r.epoch {
                        committed.lock().unwrap().push((epoch, u.clone()));
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    let mut committed = committed.into_inner().unwrap();
    committed.sort_by_key(|(e, _)| *e);
    verdict.serialized = committed.into_iter().map(|(_, u)| u).collect();
    verdict.epochs = pipeline.epoch() - base_epoch;

    if verdict.epochs != verdict.serialized.len() as u64 {
        verdict.failures.push(format!(
            "epoch accounting: {} epochs published for {} successful commits",
            verdict.epochs,
            verdict.serialized.len()
        ));
    }

    // Replay the serialization and compare against the pipeline's own
    // final snapshot: same OIDs, same values — a torn or lost commit
    // shows up here.
    let snap = pipeline.snapshot();
    if let Err(e) = snap.check_invariants() {
        verdict
            .failures
            .push(format!("final snapshot violates store invariants: {e}"));
    }
    let mut replay = initial.clone();
    for u in &verdict.serialized {
        if let Err(e) = replay.apply(u.clone()) {
            verdict.failures.push(format!(
                "serialized replay rejected `{u}` that the pipeline committed: {e}"
            ));
        }
    }
    if replay.oids_sorted() != snap.oids_sorted() {
        verdict.failures.push(format!(
            "replayed OID set {:?} != pipeline snapshot OID set {:?}",
            replay.oids_sorted(),
            snap.oids_sorted()
        ));
    } else {
        for o in replay.oids_sorted() {
            let (a, b) = (replay.get(o), snap.get(o));
            if a.map(|x| &x.value) != b.map(|x| &x.value)
                || a.map(|x| x.label) != b.map(|x| x.label)
            {
                verdict.failures.push(format!(
                    "object {} diverged: replay {:?} vs pipeline {:?}",
                    o.name(),
                    a,
                    b
                ));
            }
        }
    }

    // The serialized run through all four maintenance routes.
    verdict.verdicts = check_parallel_equivalence(defs, initial, &verdict.serialized, threads)?;
    Ok(verdict)
}

/// The outcome of one snapshot-isolation run.
///
/// Produced by [`check_snapshot_isolation`]: concurrent readers raced
/// a writer that applied update batches and published an epoch per
/// batch; every read recomputed the view from its snapshot and was
/// compared against the legal state for that snapshot's epoch.
#[derive(Clone, Debug, Default)]
pub struct IsolationReport {
    /// Epochs the writer published (one per batch).
    pub epochs_published: u64,
    /// Snapshot reads performed across all readers.
    pub observations: usize,
    /// Reads that overlapped the writer's critical section: the
    /// snapshot's epoch was already superseded by the time the read
    /// finished. These prove the race was actually exercised.
    pub concurrent_observations: usize,
    /// Human-readable descriptions of every isolation violation — a
    /// read that observed a state matching *no* batch boundary, or
    /// (in [`check_cross_shard_isolation`]) a torn marker pair. Empty
    /// = every read saw exactly a pre- or post-batch state.
    pub violations: Vec<String>,
    /// Marker-pair equality checks performed across all readers
    /// ([`check_cross_shard_isolation`] only; 0 otherwise). Each check
    /// read both halves of one atomically-committed pair from one
    /// snapshot.
    pub marker_pairs_checked: usize,
    /// How many of the planted marker pairs actually span two
    /// different shards — the proof that the cross-shard torn-write
    /// detector exercised the two-phase publish path and not just
    /// single-shard commits ([`check_cross_shard_isolation`] only).
    pub cross_shard_pairs: usize,
}

impl IsolationReport {
    /// True iff every read observed a legal (batch-boundary) state.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Snapshot-isolation oracle for the epoch read path (warehouse §5
/// deployment): while a writer applies `batches` one after another to
/// a live store — publishing one [`EpochHandle`](gsdb::EpochHandle)
/// snapshot per committed batch, exactly as
/// [`Source::apply_batch`](gsview_warehouse::Source::apply_batch)
/// does — `readers` concurrent threads repeatedly load the latest
/// snapshot and recompute `def` from it. Every observation must equal
/// the view at some batch boundary (the state after exactly `k`
/// batches, for the `k` stamped on the snapshot); a read that sees a
/// torn mid-batch state, or a state that disagrees with its own
/// epoch stamp, is reported as a violation.
///
/// Updates the store rejects are skipped, identically on the legal-
/// state precompute and the live run, matching [`check_equivalence`].
/// Each reader performs at least `reads_per_reader` observations and
/// keeps reading until the writer finishes, so the race window is
/// covered end to end. Never panics on violation — inspect
/// [`IsolationReport::violations`] (or use [`assert_snapshot_isolated`]).
pub fn check_snapshot_isolation(
    def: &SimpleViewDef,
    initial: &Store,
    batches: &[Vec<Update>],
    readers: usize,
    reads_per_reader: usize,
) -> Result<IsolationReport> {
    use gsdb::EpochHandle;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    // Legal states: the view after exactly k committed batches,
    // k = 0 ..= batches.len(). Epoch k on a snapshot promises state k.
    let mut legal: Vec<Vec<Oid>> = Vec::with_capacity(batches.len() + 1);
    {
        let mut scratch = initial.clone();
        legal.push(recompute(def, &mut LocalBase::new(&scratch))?.members_base());
        for batch in batches {
            for u in batch {
                let _ = scratch.apply(u.clone());
            }
            legal.push(recompute(def, &mut LocalBase::new(&scratch))?.members_base());
        }
    }

    let handle = Arc::new(EpochHandle::new(initial.fork()));
    let legal = Arc::new(legal);
    let done = Arc::new(AtomicBool::new(false));
    let violations = Arc::new(Mutex::new(Vec::<String>::new()));

    let mut report = IsolationReport::default();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for r in 0..readers.max(1) {
            let handle = Arc::clone(&handle);
            let legal = Arc::clone(&legal);
            let done = Arc::clone(&done);
            let violations = Arc::clone(&violations);
            joins.push(scope.spawn(move || {
                let (mut reads, mut concurrent) = (0usize, 0usize);
                loop {
                    if reads >= reads_per_reader && done.load(Ordering::Acquire) {
                        break;
                    }
                    let (epoch, snap) = handle.load_with_epoch();
                    match recompute(def, &mut LocalBase::new(snap.as_ref())) {
                        Ok(mv) => {
                            let got = mv.members_base();
                            let want = &legal[epoch as usize];
                            if &got != want {
                                violations.lock().unwrap().push(format!(
                                    "reader {r}: epoch {epoch} snapshot recomputed to {got:?}, \
                                     but the state after {epoch} batches is {want:?}"
                                ));
                            }
                        }
                        Err(e) => violations.lock().unwrap().push(format!(
                            "reader {r}: recompute failed on epoch {epoch}: {e}"
                        )),
                    }
                    reads += 1;
                    // The writer moved on while we were reading: this
                    // observation genuinely overlapped maintenance.
                    if handle.epoch() != epoch {
                        concurrent += 1;
                    }
                    std::thread::yield_now();
                }
                (reads, concurrent)
            }));
        }

        // The writer: mutate the live store, publish a fork per batch —
        // the same commit discipline as the warehouse source.
        let mut live = initial.clone();
        for batch in batches {
            for u in batch {
                let _ = live.apply(u.clone());
            }
            report.epochs_published = handle.publish(Arc::new(live.fork())).0;
        }
        done.store(true, Ordering::Release);

        for j in joins {
            let (reads, concurrent) = j.join().expect("isolation reader panicked");
            report.observations += reads;
            report.concurrent_observations += concurrent;
        }
    });
    report.violations = Arc::try_unwrap(violations)
        .expect("readers joined")
        .into_inner()
        .unwrap();
    Ok(report)
}

/// [`check_snapshot_isolation`], panicking with full replay context on
/// the first violation.
pub fn assert_snapshot_isolated(
    def: &SimpleViewDef,
    initial: &Store,
    batches: &[Vec<Update>],
    readers: usize,
    reads_per_reader: usize,
) {
    let report = check_snapshot_isolation(def, initial, batches, readers, reads_per_reader)
        .expect("isolation oracle run failed");
    if !report.ok() {
        let runs: Vec<String> = batches.iter().map(|b| run_text(b)).collect();
        fail(
            &format!(
                "snapshot isolation violated for `{def}` ({readers} readers)\nbatches: {}\nviolations:",
                runs.join(" ")
            ),
            &report.violations,
        );
    }
}

/// Cross-shard torn-write detector for the sharded commit pipeline.
///
/// Plants one **marker pair** per writer — two atomic objects chosen
/// so they land on *different* shards whenever the store has more
/// than one — then races `writers` threads, each committing
/// `batches_per_writer` batches of the form
/// `[modify(mₐ, v), modify(m_b, v)]`: both halves of the pair set to
/// the same value in **one commit**. Concurrently, `readers` threads
/// repeatedly load the latest published snapshot and compare the two
/// halves of every pair: any snapshot in which `mₐ ≠ m_b` is a torn
/// cross-shard write — a commit published half-applied across the
/// shard boundary — and is reported as a violation.
///
/// This is the isolation property [`check_snapshot_isolation`] cannot
/// see: its single writer serializes everything, whereas here the
/// pairs race each other through disjoint *and* overlapping shard
/// sets, exercising the two-phase publish; the first writer sends
/// every second batch through [`ShardedStore::with_exclusive`]
/// instead, so the exclusive path races them as well. The report's
/// [`cross_shard_pairs`](IsolationReport::cross_shard_pairs) counts
/// how many pairs genuinely straddled two shards (0 at one shard,
/// where the check degenerates to batch atomicity).
///
/// `initial` supplies the configuration (shard count, indexes) and
/// any pre-existing objects; markers are created on top of it.
pub fn check_cross_shard_isolation(
    initial: &Store,
    writers: usize,
    batches_per_writer: usize,
    readers: usize,
    reads_per_reader: usize,
) -> Result<IsolationReport> {
    use gsdb::Object;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    let pipeline = ShardedStore::new(initial.clone());
    let writers = writers.max(1);

    // Plant the marker pairs: for each writer, probe OID names until
    // the two halves land on different shards (any pair will do at
    // one shard).
    let mut pairs: Vec<(Oid, Oid)> = Vec::with_capacity(writers);
    let mut creates: Vec<Update> = Vec::new();
    for w in 0..writers {
        let a = Oid::new(&format!("mk{w}_a"));
        let mut b = Oid::new(&format!("mk{w}_b"));
        if pipeline.shard_count() > 1 {
            for probe in 0.. {
                let cand = Oid::new(&format!("mk{w}_b{probe}"));
                if pipeline.shard_of(cand) != pipeline.shard_of(a) {
                    b = cand;
                    break;
                }
            }
        }
        pairs.push((a, b));
        creates.push(Update::Create {
            object: Object::atom(a.name(), "marker", 0i64),
        });
        creates.push(Update::Create {
            object: Object::atom(b.name(), "marker", 0i64),
        });
    }
    pipeline
        .commit(&creates)
        .into_result()
        .expect("marker creation cannot fail");

    let base_epoch = pipeline.epoch();
    let mut report = IsolationReport {
        cross_shard_pairs: pairs
            .iter()
            .filter(|(a, b)| pipeline.shard_of(*a) != pipeline.shard_of(*b))
            .count(),
        ..IsolationReport::default()
    };

    let done = AtomicBool::new(false);
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let stats: Mutex<(usize, usize, usize)> = Mutex::new((0, 0, 0));
    std::thread::scope(|scope| {
        for (w, (a, b)) in pairs.iter().enumerate() {
            let pipeline = &pipeline;
            scope.spawn(move || {
                for v in 1..=batches_per_writer as i64 {
                    let stamp = (w as i64 + 1) * 1_000_000 + v;
                    let batch = [
                        Update::modify(a.name(), stamp),
                        Update::modify(b.name(), stamp),
                    ];
                    // The exclusive path races too: one closure, one epoch.
                    if w == 0 && v % 2 == 0 {
                        pipeline.with_exclusive(|s| {
                            batch.into_iter().try_for_each(|u| s.apply(u).map(drop))
                        })
                    } else {
                        pipeline.commit(&batch).into_result().map(drop)
                    }
                    .expect("marker modify cannot fail");
                    std::thread::yield_now();
                }
            });
        }
        for r in 0..readers.max(1) {
            let pipeline = &pipeline;
            let pairs = &pairs;
            let done = &done;
            let violations = &violations;
            let stats = &stats;
            scope.spawn(move || {
                let (mut reads, mut concurrent, mut checked) = (0usize, 0usize, 0usize);
                loop {
                    if reads >= reads_per_reader && done.load(Ordering::Acquire) {
                        break;
                    }
                    let epoch = pipeline.epoch();
                    let snap = pipeline.snapshot();
                    for (a, b) in pairs {
                        let (va, vb) = (snap.atom(*a), snap.atom(*b));
                        checked += 1;
                        if va != vb {
                            violations.lock().unwrap().push(format!(
                                "reader {r}: torn pair ({}, {}) = ({va:?}, {vb:?}) in one snapshot",
                                a.name(),
                                b.name()
                            ));
                        }
                    }
                    reads += 1;
                    if pipeline.epoch() != epoch {
                        concurrent += 1;
                    }
                    std::thread::yield_now();
                }
                let mut s = stats.lock().unwrap();
                s.0 += reads;
                s.1 += concurrent;
                s.2 += checked;
            });
        }
        // Writer threads finish on their own; flag completion for the
        // readers once every writer scope handle would have joined.
        // (Scoped threads join at scope exit; the flag is set by the
        // last writer via a dedicated waiter.)
        let pipeline = &pipeline;
        let done = &done;
        scope.spawn(move || {
            let target = base_epoch + (writers * batches_per_writer) as u64;
            while pipeline.epoch() < target {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    let (reads, concurrent, checked) = stats.into_inner().unwrap();
    report.observations = reads;
    report.concurrent_observations = concurrent;
    report.marker_pairs_checked = checked;
    report.epochs_published = pipeline.epoch() - base_epoch;
    report.violations = violations.into_inner().unwrap();
    // The final snapshot must also be structurally sound.
    if let Err(e) = pipeline.snapshot().check_invariants() {
        report
            .violations
            .push(format!("final snapshot violates store invariants: {e}"));
    }
    Ok(report)
}

/// [`check_cross_shard_isolation`], panicking with full context on the
/// first torn pair.
pub fn assert_cross_shard_isolated(
    initial: &Store,
    writers: usize,
    batches_per_writer: usize,
    readers: usize,
    reads_per_reader: usize,
) {
    let report = check_cross_shard_isolation(
        initial,
        writers,
        batches_per_writer,
        readers,
        reads_per_reader,
    )
    .expect("cross-shard isolation run failed");
    if !report.ok() {
        fail(
            &format!(
                "cross-shard isolation violated ({writers} writers, {} shards)\nviolations:",
                initial.shard_count()
            ),
            &report.violations,
        );
    }
}

/// The outcome of one crash-recovery oracle run.
///
/// Produced by [`check_crash_recovery`]: a durable store recovered
/// after a (possibly injected) crash is compared against the
/// epoch-ordered replay of the committed-batch prefix its manifest
/// claims. The durability contract is that recovery lands on **some**
/// batch boundary — never a torn mid-batch state, never a state ahead
/// of what was durably committed.
#[derive(Clone, Debug, Default)]
pub struct RecoveryVerdict {
    /// The epoch the recovered manifest claims.
    pub recovered_epoch: u64,
    /// How many committed batches that epoch corresponds to (the
    /// replayed prefix length).
    pub prefix_len: usize,
    /// Human-readable descriptions of every violation. Empty = the
    /// recovered store is exactly the replay of its claimed prefix.
    pub failures: Vec<String>,
}

impl RecoveryVerdict {
    /// True iff recovery reproduced a legal committed state exactly.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Crash-recovery oracle: a store recovered from durable media must be
/// **exactly** the epoch-ordered replay of the batch prefix its
/// recovered epoch claims.
///
/// `batches` are the update batches the crashed process committed (one
/// epoch each, in commit order, starting from `base_epoch` — the
/// pipeline's epoch before the first batch); each batch replays with
/// the pipeline's prefix-commit semantics (stop at the first rejected
/// update, publish if anything applied). The checks:
///
/// 1. **Prefix legality** — `recovered_epoch` names a batch boundary
///    in `[base_epoch, base_epoch + committed]`; an epoch beyond what
///    was ever published means recovery resurrected state from a torn
///    tail.
/// 2. **No torn or resurrected objects** — the recovered OID set,
///    labels, and values equal the replay's, object for object.
/// 3. **Structural preservation** — every object sits in the same
///    slot as the replay (slot assignment is deterministic in commit
///    order), so re-exported pages are byte-identical and structural
///    sharing survives the restart.
/// 4. **Store invariants** — the recovered store passes
///    [`Store::check_invariants`] (indexes, free lists, placement).
///
/// Never panics on violation — inspect [`RecoveryVerdict::failures`].
pub fn check_crash_recovery(
    initial: &Store,
    batches: &[Vec<Update>],
    base_epoch: u64,
    recovered_epoch: u64,
    recovered: &Store,
) -> RecoveryVerdict {
    let mut verdict = RecoveryVerdict {
        recovered_epoch,
        ..RecoveryVerdict::default()
    };

    // Replay forward, recording which epoch each committed batch
    // produced, until we reach the claimed epoch.
    let mut replay = initial.clone();
    let mut epoch = base_epoch;
    let mut prefix = 0usize;
    if recovered_epoch < base_epoch {
        verdict.failures.push(format!(
            "recovered epoch {recovered_epoch} predates the base epoch {base_epoch}"
        ));
    }
    for (i, batch) in batches.iter().enumerate() {
        if epoch == recovered_epoch {
            break;
        }
        let mut applied_any = false;
        for u in batch {
            match replay.apply(u.clone()) {
                Ok(_) => applied_any = true,
                Err(_) => break, // prefix-commit: drop the batch tail
            }
        }
        if applied_any {
            epoch += 1;
            prefix = i + 1;
        }
    }
    verdict.prefix_len = prefix;
    if epoch != recovered_epoch && recovered_epoch >= base_epoch {
        verdict.failures.push(format!(
            "recovered epoch {recovered_epoch} is not a committed batch boundary \
             (replaying all {} batches only reaches epoch {epoch}) — state \
             resurrected past the durable prefix",
            batches.len()
        ));
    }

    if let Err(e) = recovered.check_invariants() {
        verdict
            .failures
            .push(format!("recovered store violates invariants: {e}"));
    }

    let (got, want) = (recovered.oids_sorted(), replay.oids_sorted());
    if got != want {
        let missing: Vec<&Oid> = want.iter().filter(|o| !got.contains(o)).collect();
        let extra: Vec<&Oid> = got.iter().filter(|o| !want.contains(o)).collect();
        verdict.failures.push(format!(
            "recovered OID set diverged from epoch-{recovered_epoch} replay \
             (lost {missing:?}, resurrected {extra:?})"
        ));
    } else {
        for o in &want {
            let (a, b) = (recovered.get(*o), replay.get(*o));
            if a.map(|x| &x.value) != b.map(|x| &x.value)
                || a.map(|x| x.label) != b.map(|x| x.label)
            {
                verdict.failures.push(format!(
                    "object {} torn: recovered {a:?} vs replay {b:?}",
                    o.name()
                ));
            }
            if recovered.slot_of(*o) != replay.slot_of(*o) {
                verdict.failures.push(format!(
                    "object {} moved: slot {:?} recovered vs {:?} replayed — \
                     structural sharing broken",
                    o.name(),
                    recovered.slot_of(*o),
                    replay.slot_of(*o)
                ));
            }
        }
    }
    verdict
}

/// [`check_equivalence`], panicking with full context on disagreement.
/// The panic message includes the definition and the update run so a
/// failure can be replayed as a unit test.
pub fn assert_equivalent(def: &SimpleViewDef, initial: &Store, updates: &[Update]) {
    let verdict = check_equivalence(def, initial, updates).expect("oracle run failed");
    if !verdict.ok() {
        fail(
            &format!(
                "maintenance routes diverged for `{def}`\nupdates: {}\nfailures:",
                run_text(updates)
            ),
            &verdict.failures,
        );
    }
}

// ----------------------------------------------------------------------
// Networked equivalence
// ----------------------------------------------------------------------

/// [`consistency::check_networked_equivalence`], panicking with every divergence
/// (and dumping the flight recorder) on disagreement.
pub fn assert_networked_equivalence<Q, R>(
    queries: &[Q],
    remote: impl FnMut(&Q) -> R,
    colocated: impl FnMut(&Q) -> R,
) where
    Q: std::fmt::Debug,
    R: PartialEq + std::fmt::Debug,
{
    let failures = consistency::check_networked_equivalence(queries, remote, colocated);
    if !failures.is_empty() {
        fail(
            "remote serving diverged from colocated evaluation:",
            &failures,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{samples, Object};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn yp_def() -> SimpleViewDef {
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64))
    }

    fn person_store() -> Store {
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        s
    }

    #[test]
    fn routes_agree_on_paper_examples() {
        let mut store = person_store();
        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        let updates = vec![
            Update::insert("P2", "A2"),
            Update::modify("A1", 80i64),
            Update::delete("ROOT", "P1"),
        ];
        let v = check_equivalence(&yp_def(), &store, &updates).unwrap();
        assert!(v.ok(), "{:?}", v.failures);
        assert_eq!(v.members, vec![oid("P2")]);
        assert_eq!(v.applied, 3);
    }

    #[test]
    fn cancelling_batch_converges() {
        // Insert then delete the same edge: the batch consolidates to
        // nothing, sequential does real work — same final view.
        let mut store = person_store();
        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        let updates = vec![Update::insert("P2", "A2"), Update::delete("P2", "A2")];
        let v = check_equivalence(&yp_def(), &store, &updates).unwrap();
        assert!(v.ok(), "{:?}", v.failures);
        assert_eq!(v.batch.consolidated_ops, 0);
        assert_eq!(v.members, vec![oid("P1")]);
    }

    #[test]
    fn cascading_detach_is_repaired_below_the_cut() {
        // Detach the witness *and then* the member's own root edge: the
        // inner delete cannot be located in the final state, but the
        // outer cut finds P1 below it, and repair evicts it. No sweep.
        let store = person_store();
        let updates = vec![Update::delete("P1", "A1"), Update::delete("ROOT", "P1")];
        let v = check_equivalence(&yp_def(), &store, &updates).unwrap();
        assert!(v.ok(), "{:?}", v.failures);
        assert!(v.members.is_empty());
        assert_eq!(v.batch.deleted, vec![oid("P1")]);
        assert!(!v.batch.swept);
    }

    #[test]
    fn reparented_member_is_repaired_below_the_cut() {
        // Found by the differential property tests: move a member (P3,
        // the student of P1) out from under its professor — through
        // positions that stay *reachable* the whole time. The cut
        // (P1, P3) makes P3 a candidate wherever it ended up, and
        // repair evicts it: ROOT.student.student is no select path.
        let mut store = person_store();
        store.create(Object::empty_set("X", "student")).unwrap();
        let def = SimpleViewDef::new("VS", "ROOT", "professor.student")
            .with_cond("age", Pred::new(CmpOp::Gt, 0i64));
        let updates = vec![
            Update::delete("P1", "P3"),  // P3 leaves its matching slot…
            Update::insert("X", "P3"),   // …parked under a detached set…
            Update::insert("ROOT", "X"), // …which then becomes reachable.
        ];
        let v = check_equivalence(&def, &store, &updates).unwrap();
        assert!(v.ok(), "{:?}", v.failures);
        assert!(v.members.is_empty());
        assert_eq!(v.batch.deleted, vec![oid("P3")]);
        assert!(!v.batch.swept, "a cut is repaired locally");
    }

    #[test]
    fn reference_members_matches_the_three_route_oracle() {
        let mut store = person_store();
        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        let updates = vec![
            Update::insert("P2", "A2"),
            Update::modify("A1", 80i64),
            Update::delete("P1", "NOPE"), // skipped
            Update::delete("ROOT", "P1"),
        ];
        let reference = reference_members(&yp_def(), &store, &updates).unwrap();
        let v = check_equivalence(&yp_def(), &store, &updates).unwrap();
        assert!(v.ok(), "{:?}", v.failures);
        assert_eq!(reference, v.members);
        assert_eq!(reference, vec![oid("P2")]);
    }

    #[test]
    fn diff_members_names_missing_and_extra() {
        assert_eq!(diff_members("x", &[oid("A")], &[oid("A")]), None);
        let d = diff_members("route", &[oid("A"), oid("B")], &[oid("A"), oid("C")]).unwrap();
        assert!(d.contains("route"), "{d}");
        assert!(d.contains('C') && d.contains('B'), "{d}");
    }

    #[test]
    fn snapshot_isolation_holds_on_paper_batches() {
        let mut store = person_store();
        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        let batches = vec![
            vec![Update::insert("P2", "A2"), Update::modify("A1", 80i64)],
            vec![Update::delete("ROOT", "P1")],
            vec![Update::modify("A2", 90i64)],
        ];
        let report = check_snapshot_isolation(&yp_def(), &store, &batches, 3, 8).unwrap();
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.epochs_published, 3);
        assert!(report.observations >= 3 * 8);
    }

    #[test]
    fn snapshot_isolation_skips_infeasible_updates_consistently() {
        let store = person_store();
        let batches = vec![
            vec![Update::delete("P1", "NOPE"), Update::modify("A1", 30i64)],
            vec![Update::delete("NOPE", "P1")],
        ];
        assert_snapshot_isolated(&yp_def(), &store, &batches, 2, 4);
    }

    #[test]
    fn isolation_with_no_batches_reads_only_the_initial_state() {
        let store = person_store();
        let report = check_snapshot_isolation(&yp_def(), &store, &[], 2, 3).unwrap();
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.epochs_published, 0);
        assert_eq!(
            report.concurrent_observations, 0,
            "nothing ever superseded epoch 0"
        );
        assert!(report.observations >= 6);
    }

    #[test]
    fn sharded_commit_oracle_accepts_racing_writers() {
        let mut store = person_store();
        store.create(Object::atom("A2", "age", 40i64)).unwrap();
        for shards in [1, 4] {
            let per_writer = vec![
                vec![Update::insert("P2", "A2"), Update::modify("A2", 30i64)],
                vec![Update::modify("A1", 80i64), Update::modify("A1", 20i64)],
            ];
            let v = check_sharded_commit_equivalence(&[yp_def()], &store, &per_writer, shards, 2)
                .unwrap();
            assert!(v.ok(), "shards={shards}: {:?} {:?}", v.failures, v.verdicts);
            assert_eq!(v.epochs, 4);
            assert_eq!(v.serialized.len(), 4);
        }
    }

    #[test]
    fn sharded_commit_oracle_skips_rejected_updates() {
        let store = person_store();
        let per_writer = vec![
            vec![Update::modify("NOPE", 1i64), Update::modify("A1", 30i64)],
            vec![Update::delete("P1", "GHOST")],
        ];
        let v = check_sharded_commit_equivalence(&[yp_def()], &store, &per_writer, 4, 2).unwrap();
        assert!(v.ok(), "{:?}", v.failures);
        assert_eq!(v.epochs, 1, "only the feasible update commits");
    }

    #[test]
    fn cross_shard_markers_are_never_torn() {
        for shards in [1, 4, 8] {
            let store = Store::with_config(gsdb::StoreConfig::default().with_shards(shards));
            let report = check_cross_shard_isolation(&store, 3, 20, 2, 10).unwrap();
            assert!(report.ok(), "shards={shards}: {:?}", report.violations);
            assert_eq!(report.epochs_published, 3 * 20);
            assert!(report.marker_pairs_checked >= 2 * 10 * 3);
            if shards > 1 {
                assert_eq!(
                    report.cross_shard_pairs, 3,
                    "every pair must straddle two shards at {shards} shards"
                );
            } else {
                assert_eq!(report.cross_shard_pairs, 0);
            }
        }
    }

    #[test]
    fn crash_recovery_accepts_every_batch_boundary() {
        let store = person_store();
        let batches = vec![
            vec![Update::modify("A1", 30i64)],
            vec![Update::delete("ROOT", "P1"), Update::insert("ROOT", "P1")],
            vec![Update::modify("A1", 80i64)],
        ];
        // Every committed prefix (including the empty one) is a legal
        // recovery target.
        let mut replay = store.clone();
        for k in 0..=batches.len() {
            let v = check_crash_recovery(&store, &batches, 5, 5 + k as u64, &replay);
            assert!(v.ok(), "prefix {k}: {:?}", v.failures);
            assert_eq!(v.prefix_len, k);
            if k < batches.len() {
                for u in &batches[k] {
                    replay.apply(u.clone()).unwrap();
                }
            }
        }
    }

    #[test]
    fn crash_recovery_rejects_torn_resurrected_and_future_states() {
        let store = person_store();
        let batches = vec![vec![Update::modify("A1", 30i64)]];

        // Torn: the recovered store saw half of nothing-committed.
        let mut torn = store.clone();
        torn.apply(Update::modify("A1", 30i64)).unwrap();
        let v = check_crash_recovery(&store, &batches, 0, 0, &torn);
        assert!(!v.ok());
        assert!(
            v.failures.iter().any(|f| f.contains("torn")),
            "{:?}",
            v.failures
        );

        // Resurrected: an object the prefix never created.
        let mut extra = store.clone();
        extra.create(Object::atom("GHOST", "age", 1i64)).unwrap();
        let v = check_crash_recovery(&store, &batches, 0, 0, &extra);
        assert!(
            v.failures.iter().any(|f| f.contains("resurrected")),
            "{:?}",
            v.failures
        );

        // Future: an epoch no committed prefix ever reached.
        let v = check_crash_recovery(&store, &batches, 0, 7, &store);
        assert!(
            v.failures
                .iter()
                .any(|f| f.contains("not a committed batch boundary")),
            "{:?}",
            v.failures
        );

        // Pre-base epoch.
        let v = check_crash_recovery(&store, &batches, 4, 2, &store);
        assert!(
            v.failures.iter().any(|f| f.contains("predates")),
            "{:?}",
            v.failures
        );
    }

    #[test]
    fn crash_recovery_honours_prefix_commit_batches() {
        // A batch whose tail is rejected still publishes its applied
        // prefix; the replay must mirror that.
        let store = person_store();
        let batches = vec![
            vec![
                Update::modify("A1", 30i64),
                Update::modify("NOPE", 1i64),
                Update::modify("A1", 99i64),
            ],
            vec![Update::modify("NOPE", 2i64)], // publishes nothing
            vec![Update::modify("A1", 50i64)],
        ];
        let mut replay = store.clone();
        replay.apply(Update::modify("A1", 30i64)).unwrap();
        // Epoch 1 = batch 0's applied prefix; batch 1 consumed no epoch,
        // so epoch 2 = batch 2.
        let v = check_crash_recovery(&store, &batches, 0, 1, &replay);
        assert!(v.ok(), "{:?}", v.failures);
        replay.apply(Update::modify("A1", 50i64)).unwrap();
        let v = check_crash_recovery(&store, &batches, 0, 2, &replay);
        assert!(v.ok(), "{:?}", v.failures);
        assert_eq!(v.prefix_len, 3);
    }

    #[test]
    fn infeasible_updates_are_skipped_consistently() {
        let store = person_store();
        let updates = vec![Update::delete("P1", "NOPE"), Update::modify("A1", 30i64)];
        let v = check_equivalence(&yp_def(), &store, &updates).unwrap();
        assert!(v.ok(), "{:?}", v.failures);
        assert_eq!(v.skipped, 1);
        assert_eq!(v.applied, 1);
    }
}
