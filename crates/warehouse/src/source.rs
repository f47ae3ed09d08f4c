//! Data sources, their monitors, and their wrappers (paper §5,
//! Figure 6).
//!
//! A [`Source`] owns a GSDB. Its [`Monitor`] "detects the update events
//! ... and reports them to the warehouse" at a configured
//! [`ReportLevel`]; its [`Wrapper`] "translates queries from the
//! warehouse ... and sends the results back". The warehouse "cannot
//! control actions on source objects, but it can send queries to the
//! source and obtain answers evaluated at the current source state" —
//! accordingly the only handles the warehouse ever gets are `Monitor`
//! and `Wrapper`, never the store itself.
//!
//! ## The sharded commit path and the epoch read path
//!
//! A source's store lives inside a [`ShardedStore`]: the slab is
//! partitioned into per-shard mutation locks, so writers —
//! [`Source::apply`], [`Source::apply_batch`] — contend only on the
//! shards their updates touch and commit concurrently when their
//! shard sets are disjoint (the paper's sources report updates
//! *independently*; now they also apply them independently).
//! [`Source::with_store`] remains the exclusive escape hatch: it
//! locks every shard and hands the closure a plain [`Store`].
//!
//! Every commit publishes an immutable copy-on-write snapshot into an
//! [`EpochHandle`] via the pipeline's two-phase publish. Readers —
//! [`Wrapper::serve`], and through it every warehouse query and every
//! region read of a set-up or resync — call [`Source::snapshot`] and
//! evaluate against the latest published epoch: they **never take a
//! shard lock**, so queries arriving while a maintenance pass or a
//! long source-local batch holds locks complete immediately against
//! the pre-batch state. Each read observes exactly one committed
//! epoch, never a torn intermediate — not even across shards
//! (verified differentially by `gsview-core`'s
//! `check_snapshot_isolation` and its cross-shard marker pairs).
//!
//! Report sequencing rides on the pipeline's commit log: entries are
//! appended in publish order (under the publish lock), and
//! [`Monitor::poll`] drains them and assigns sequence numbers in one
//! critical section of the log lock — racing pollers and appliers can
//! never emit reports whose sequence order disagrees with commit
//! order, which would trip `SeqTracker` gap detection on a healthy
//! source.

use crate::protocol::{
    CostMeter, ObjectInfo, QueryFault, ReportLevel, RootPathInfo, SourceQuery, SourceReply,
    UpdateReport,
};
use gsdb::{
    path, AppliedUpdate, EpochHandle, Oid, Result, ShardedStore, Store, StoreConfig, Update,
};
use gsview_durable::{DurableStore, PersistMeta, PersistReceipt};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How many times the publish-point persist hook retries a failed
/// epoch persist before declaring durability degraded. Retries are
/// synchronous and immediate: the hook runs behind the publish lock,
/// so the only faults worth retrying are transient media hiccups, not
/// long outages.
const PERSIST_HOOK_RETRIES: usize = 3;

/// Sticky durability health, shared between the publish-point persist
/// hook and the [`Source`] handles that want to ask about it.
///
/// Once the hook exhausts its retries the flag latches: background
/// successes on later epochs do **not** clear it, because the lineage
/// already has a hole and warm recovery from it would silently lose
/// the failed epochs. Only an explicit, acknowledged
/// [`Source::persist_now`] re-baseline clears the flag.
#[derive(Default)]
struct DurabilityHealth {
    degraded: AtomicBool,
    /// The first unsurfaced persist error. Taken (and cleared) by the
    /// next explicit persist call; `degraded` stays latched until a
    /// fresh baseline lands.
    pending_error: Mutex<Option<String>>,
}

impl DurabilityHealth {
    /// The pending error, even behind a lock a panicking thread
    /// poisoned. That is sound because every critical section is one
    /// `Option` call (an insert, a take, a clone, a reset) that either
    /// completes or leaves the slot as it was, and the latch that
    /// matters, `degraded`, is an atomic outside the lock.
    fn pending(&self) -> MutexGuard<'_, Option<String>> {
        self.pending_error.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record_failure(&self, msg: String) {
        self.degraded.store(true, Ordering::Release);
        let mut slot = self.pending();
        // Keep the *first* error: it names the epoch where the lineage
        // hole starts, which is what the operator needs.
        slot.get_or_insert(msg);
    }

    fn take_pending(&self) -> Option<String> {
        self.pending().take()
    }

    fn peek(&self) -> Option<String> {
        self.pending().clone()
    }

    fn clear(&self) {
        *self.pending() = None;
        self.degraded.store(false, Ordering::Release);
    }
}

/// The warehouse side of the query protocol: anything that can be
/// asked a [`SourceQuery`] and may fail to answer.
///
/// [`Wrapper`] implements this infallibly; the chaos decorator
/// [`FaultyWrapper`](crate::chaos::FaultyWrapper) injects
/// [`QueryFault`]s. The warehouse never talks to a port directly — it
/// goes through a retrying [`Channel`](crate::remote::Channel).
pub trait QueryPort: Send + Sync {
    /// Attempt one query round trip.
    fn query(&self, q: &SourceQuery) -> std::result::Result<SourceReply, QueryFault>;
}

/// The warehouse side of the report protocol: anything that yields
/// update reports when polled, plus a fault-free control-plane
/// checkpoint (source name and next sequence number) that the
/// integrator uses to detect *tail* loss — a dropped report with no
/// successor would otherwise go unnoticed forever.
pub trait ReportSource {
    /// Collect reports since the last poll.
    #[must_use = "unprocessed reports silently corrupt the warehouse's views"]
    fn poll_reports(&self) -> Vec<UpdateReport>;

    /// `(source name, next sequence number)` — how many reports the
    /// monitor has emitted so far. Control-plane metadata: cheap,
    /// reliable, and never subject to chaos.
    fn checkpoint(&self) -> (String, u64);
}

/// An autonomous data source: a GSDB plus a designated root object.
#[derive(Clone)]
pub struct Source {
    name: String,
    root: Oid,
    /// The sharded commit pipeline: per-shard mutation locks, a global
    /// epoch publisher (the committed-epoch read path), and the commit
    /// log the monitor drains.
    store: Arc<ShardedStore>,
    level: ReportLevel,
    /// Sticky durability health fed by the publish-point persist hook
    /// (see [`Source::attach_durable`]). Shared across clones so the
    /// monitor/wrapper handles observe the same state.
    durability: Arc<DurabilityHealth>,
}

impl Source {
    /// Create a source around an existing store (keeping its shard
    /// count). Monitoring starts now: updates applied to the store
    /// before this call are not reported, and every commit after it is.
    pub fn new(name: &str, root: Oid, store: Store, level: ReportLevel) -> Self {
        Source {
            name: name.to_owned(),
            root,
            store: Arc::new(ShardedStore::new(store)),
            level,
            durability: Arc::new(DurabilityHealth::default()),
        }
    }

    /// Create an empty source.
    pub fn empty(name: &str, root: Oid, level: ReportLevel) -> Self {
        Source::empty_sharded(name, root, level, 1)
    }

    /// Create an empty source with the given slab shard count —
    /// writers touching disjoint shards commit concurrently.
    pub fn empty_sharded(name: &str, root: Oid, level: ReportLevel, shards: usize) -> Self {
        let store = Store::with_config(StoreConfig::default().with_shards(shards));
        Source::new(name, root, store, level)
    }

    /// The source's name (used to qualify OIDs into universal ones in
    /// real deployments; here names are already unique).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source's root object.
    pub fn root(&self) -> Oid {
        self.root
    }

    /// Apply an update locally (the source is autonomous — this is its
    /// own workload, not a warehouse action). The post-update state is
    /// published as a new epoch at commit. Concurrent appliers whose
    /// updates touch disjoint shards run in parallel.
    pub fn apply(&self, update: Update) -> Result<AppliedUpdate> {
        let mut applied = self.store.commit(std::slice::from_ref(&update)).into_result()?;
        Ok(applied.remove(0))
    }

    /// Apply a run of updates as one commit: the intermediate states
    /// are never published, only the final one — concurrent readers
    /// observe either the pre-batch or the post-batch epoch, nothing
    /// in between. On the first failing update the batch stops; the
    /// applied prefix stays committed (matching what a sequential
    /// [`Source::apply`] loop would have left behind) and is published.
    pub fn apply_batch(
        &self,
        updates: impl IntoIterator<Item = Update>,
    ) -> Result<Vec<AppliedUpdate>> {
        let updates: Vec<Update> = updates.into_iter().collect();
        self.store.commit(&updates).into_result()
    }

    /// Run an arbitrary closure against the live store (source-local
    /// setup; not available to the warehouse). Locks **every** shard
    /// for the duration. If the closure mutated the store (detected
    /// via [`Store::version`]), the new state is published as one
    /// epoch when the closure returns — a multi-update closure is one
    /// commit, like [`Source::apply_batch`].
    pub fn with_store<T>(&self, f: impl FnOnce(&mut Store) -> T) -> T {
        self.store.with_exclusive(f)
    }

    /// The latest committed epoch of this source's state. This is the
    /// read path: it never takes a shard lock, so it completes even
    /// while writers or a maintenance flush hold locks.
    pub fn snapshot(&self) -> Arc<Store> {
        self.store.snapshot()
    }

    /// The epoch number of the current snapshot (number of commits
    /// published so far).
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// A shared handle to the epoch publication point — for harnesses
    /// that want `(epoch, snapshot)` pairs read consistently.
    pub fn epoch_handle(&self) -> Arc<EpochHandle> {
        self.store.epoch_handle()
    }

    /// The commit pipeline itself — source-local instrumentation and
    /// test access (shard counts, direct commits). Never handed to the
    /// warehouse.
    pub fn pipeline(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// The sequence number the next report from this source will
    /// carry. Used by the warehouse to baseline gap detection at
    /// connect time.
    pub fn next_seq(&self) -> u64 {
        self.store.assigned_seq()
    }

    /// The monitor role for this source.
    pub fn monitor(&self) -> Monitor {
        Monitor {
            source: self.clone(),
        }
    }

    /// The wrapper role for this source, charging the given meter.
    pub fn wrapper(&self, meter: Arc<CostMeter>) -> Wrapper {
        Wrapper {
            source: self.clone(),
            meter,
        }
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Attach a durable store: persist the current published epoch as
    /// a baseline, then persist every subsequently published epoch
    /// from inside the pipeline's publish hook — the source's lineage
    /// in the epoch log tracks its epoch sequence one-to-one.
    ///
    /// Persistence runs *behind* the publish point: a failed persist
    /// (media crash) never blocks or rolls back the in-memory commit.
    /// The hook retries up to [`PERSIST_HOOK_RETRIES`] times
    /// (`durable.persist.hook_retries`); if every attempt fails it
    /// counts the loss (`durable.persist.hook_errors`) and latches the
    /// sticky [`Source::durability_degraded`] flag — the lineage now
    /// has a hole, and the recorded error is surfaced on the next
    /// explicit [`Source::persist_now`] call. The in-memory source
    /// keeps serving either way: the lineage simply ends at the last
    /// durable epoch, which is exactly what a process crash at that
    /// point would leave behind.
    ///
    /// Attach before concurrent writers start (setup time, or right
    /// after [`Source::recover`]); the baseline snapshot and watermark
    /// are read in two steps and assume no commit races between them.
    pub fn attach_durable(
        &self,
        durable: Arc<DurableStore>,
    ) -> gsview_durable::Result<PersistReceipt> {
        let receipt = durable.persist(
            &self.name,
            &self.store.snapshot(),
            PersistMeta {
                epoch: self.store.epoch(),
                seq: self.store.assigned_seq_total(),
            },
        )?;
        let name = self.name.clone();
        let health = Arc::clone(&self.durability);
        let retries = gsview_obs::registry().counter("durable.persist.hook_retries");
        let errors = gsview_obs::registry().counter("durable.persist.hook_errors");
        self.store.set_publish_hook(move |info, snapshot| {
            let meta = PersistMeta {
                epoch: info.epoch,
                seq: info.assigned_seq_total,
            };
            let mut attempt = 0;
            let e = loop {
                match durable.persist(&name, snapshot, meta.clone()) {
                    Ok(_) => return,
                    Err(e) if attempt == PERSIST_HOOK_RETRIES => break e,
                    Err(_) => {
                        attempt += 1;
                        retries.incr();
                    }
                }
            };
            errors.incr();
            gsview_obs::event!(
                "durable.persist.failed",
                "name" = name.clone(),
                "epoch" = info.epoch,
                "error" = e.to_string()
            );
            health.record_failure(format!(
                "epoch {} of source {name} failed to persist after {} attempts: {e}",
                info.epoch,
                PERSIST_HOOK_RETRIES + 1
            ));
        });
        Ok(receipt)
    }

    /// Has the publish-point persist hook exhausted its retries on
    /// some epoch since the last successful [`Source::persist_now`]
    /// re-baseline? Sticky: later background successes do **not**
    /// clear it — the durable lineage already has a hole.
    pub fn durability_degraded(&self) -> bool {
        self.durability.degraded.load(Ordering::Acquire)
    }

    /// The recorded error from the first unsurfaced persist failure,
    /// if any. Peeks without consuming; [`Source::persist_now`] is
    /// what surfaces (and consumes) it.
    pub fn durability_error(&self) -> Option<String> {
        self.durability.peek()
    }

    /// Explicitly persist the current published epoch.
    ///
    /// If the background hook recorded a failure since the last
    /// successful explicit persist, this call **surfaces that error
    /// first** and does not write: the caller must observe the
    /// lineage hole before re-baselining. Calling again then attempts
    /// a fresh full persist; on success the sticky
    /// [`Source::durability_degraded`] flag clears — the new baseline
    /// supersedes the lost epochs.
    pub fn persist_now(
        &self,
        durable: &Arc<DurableStore>,
    ) -> gsview_durable::Result<PersistReceipt> {
        if let Some(msg) = self.durability.take_pending() {
            return Err(gsview_durable::DurableError::Io(format!(
                "durability degraded: {msg}"
            )));
        }
        let receipt = durable.persist(
            &self.name,
            &self.store.snapshot(),
            PersistMeta {
                epoch: self.store.epoch(),
                seq: self.store.assigned_seq_total(),
            },
        )?;
        self.durability.clear();
        Ok(receipt)
    }

    /// Reopen a source **warm** from its durable lineage: rebuild the
    /// newest recoverable epoch, resume the commit pipeline at the
    /// persisted epoch and sequence watermark (so report sequencing
    /// continues without ever reusing a number the warehouse may have
    /// consumed), and re-attach persistence so new epochs keep
    /// flowing to the log. The re-attach baseline writes nothing:
    /// recovery seeds the persist cache, and a snapshot equal to the
    /// lineage's newest frame is already durable.
    ///
    /// `Ok(None)` is a cold start: nothing recoverable under `name`.
    pub fn recover(
        name: &str,
        root: Oid,
        level: ReportLevel,
        durable: &Arc<DurableStore>,
    ) -> gsview_durable::Result<Option<Source>> {
        let Some(rec) = durable.recover(name)? else {
            return Ok(None);
        };
        let src = Source {
            name: name.to_owned(),
            root,
            store: Arc::new(ShardedStore::restore(
                rec.store,
                rec.manifest.epoch,
                rec.manifest.seq,
            )),
            level,
            durability: Arc::new(DurabilityHealth::default()),
        };
        src.attach_durable(Arc::clone(durable))?;
        Ok(Some(src))
    }

    /// Store statistics over the latest published epoch with the
    /// durable footprint filled in ([`gsdb::StoreStats::durable`]) and
    /// mirrored into the obs metrics registry.
    pub fn stats_with_footprint(&self, durable: &DurableStore) -> (u64, gsdb::StoreStats) {
        gsview_durable::stats_with_footprint(&self.store.epoch_handle(), durable)
    }
}

/// Build one update report against `store` (the monitor's view of the
/// source at report time — a committed snapshot that already reflects
/// the drained update).
fn make_report(
    store: &Store,
    name: &str,
    root: Oid,
    level: ReportLevel,
    update: AppliedUpdate,
    seq: u64,
) -> UpdateReport {
    let mut report = UpdateReport {
        source: name.to_owned(),
        seq,
        update,
        info: Vec::new(),
        paths: Vec::new(),
    };
    if level >= ReportLevel::WithValues {
        for oid in report.update.directly_affected() {
            if let Some(obj) = store.get(oid) {
                report.info.push(ObjectInfo::of(obj));
            }
        }
    }
    if level >= ReportLevel::WithPaths {
        for oid in report.update.directly_affected() {
            // Path and OIDs are the two halves of one chain — "the
            // source may record the path to the updated object" while
            // it traverses to it (§5.1). A store without the parent
            // index records none: the warehouse asks instead.
            if let Some(chain) = path::chain_between(store, root, oid) {
                let (below_root, labels): (Vec<Oid>, Vec<_>) = chain.into_iter().unzip();
                report.paths.push(RootPathInfo {
                    target: oid,
                    path: gsdb::Path(labels),
                    oids: std::iter::once(root).chain(below_root).collect(),
                });
            }
        }
    }
    report
}

/// The source monitor: drains the source's update log into reports.
#[derive(Clone)]
pub struct Monitor {
    source: Source,
}

impl Monitor {
    /// Collect reports for all updates applied since the last poll.
    ///
    /// Draining the commit log and assigning sequence numbers happen
    /// in one critical section of the log lock, and the pipeline
    /// appends entries in publish order — so racing pollers (or
    /// appliers) can never produce reports whose sequence order
    /// disagrees with store commit order — see
    /// `concurrent_appliers_and_pollers_keep_seq_consistent`. Report
    /// content (values, root paths) is built against a snapshot that
    /// reflects at least every drained update.
    #[must_use = "unprocessed reports silently corrupt the warehouse's views"]
    pub fn poll(&self) -> Vec<UpdateReport> {
        let (base, applied, snap) = self.source.store.drain_reports();
        applied
            .into_iter()
            .enumerate()
            .map(|(i, u)| {
                make_report(
                    &snap,
                    &self.source.name,
                    self.source.root,
                    self.source.level,
                    u,
                    base + i as u64,
                )
            })
            .collect()
    }
}

impl ReportSource for Monitor {
    fn poll_reports(&self) -> Vec<UpdateReport> {
        self.poll()
    }

    fn checkpoint(&self) -> (String, u64) {
        (self.source.name().to_owned(), self.source.next_seq())
    }
}

/// The source wrapper: answers warehouse queries at current source
/// state, charging a cost meter per round trip.
#[derive(Clone)]
pub struct Wrapper {
    source: Source,
    meter: Arc<CostMeter>,
}

impl Wrapper {
    /// Serve one query against the latest committed epoch. Never takes
    /// the store mutex: a query arriving mid-maintenance (or while a
    /// source-local batch holds the lock) answers immediately from the
    /// last published snapshot — "answers evaluated at the current
    /// source state" in the paper's sense, where the current state is
    /// the latest *committed* one.
    pub fn serve(&self, q: &SourceQuery) -> SourceReply {
        let reply = answer(&self.source.snapshot(), q);
        self.meter.record_query(q, &reply);
        reply
    }

    /// The meter charged by this wrapper.
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// A shared handle to the meter (for channels that must record
    /// retries and faults into the same per-source ledger).
    pub fn meter_handle(&self) -> Arc<CostMeter> {
        self.meter.clone()
    }

    /// The source's root.
    pub fn root(&self) -> Oid {
        self.source.root()
    }

    /// The source's name.
    pub fn source_name(&self) -> &str {
        self.source.name()
    }
}

impl QueryPort for Wrapper {
    fn query(&self, q: &SourceQuery) -> std::result::Result<SourceReply, QueryFault> {
        Ok(self.serve(q))
    }
}

/// Evaluate one [`SourceQuery`] against a store snapshot — the one
/// query semantics shared by [`Wrapper::serve`], the warehouse's
/// region reads out of a recovered durable epoch, and the serving tier's
/// epoch front-end (which answers thousands of remote readers from a
/// pinned [`EpochHandle`] snapshot without ever touching the store
/// locks).
pub fn answer(store: &Store, q: &SourceQuery) -> SourceReply {
    match q {
        SourceQuery::Fetch(o) => SourceReply::Object(store.get(*o).map(ObjectInfo::of)),
        SourceQuery::PathFromRoot { root, n } => {
            SourceReply::PathResult(path::path_between(store, *root, *n))
        }
        SourceQuery::Ancestor { n, p } => {
            SourceReply::AncestorResult(path::ancestor(store, *n, p))
        }
        SourceQuery::AncestorsAll { n, p } => {
            SourceReply::Ancestors(path::ancestors_all(store, *n, p))
        }
        SourceQuery::Reach { n, p } => SourceReply::Objects(
            path::reach(store, *n, p)
                .into_iter()
                .filter_map(|o| store.get(o).map(ObjectInfo::of))
                .collect(),
        ),
        SourceQuery::LabelOf(o) => SourceReply::LabelResult(store.label(*o)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{samples, Path};
    use std::sync::Mutex;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_source(level: ReportLevel) -> Source {
        let src = Source::empty("persons", oid("ROOT"), level);
        src.with_store(|s| samples::person_db(s).map(|_| ())).unwrap();
        // Setup creates log entries; discard them.
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    #[test]
    fn monitor_reports_at_level_1() {
        let src = person_source(ReportLevel::OidsOnly);
        src.with_store(|s| s.create(gsdb::Object::atom("A2", "age", 40i64)))
            .unwrap();
        src.apply(Update::insert("P2", "A2")).unwrap();
        let reports = src.monitor().poll();
        assert_eq!(reports.len(), 2); // create + insert
        let insert_report = &reports[1];
        assert!(insert_report.info.is_empty());
        assert!(insert_report.paths.is_empty());
        assert_eq!(
            insert_report.update.directly_affected(),
            vec![oid("P2"), oid("A2")]
        );
    }

    #[test]
    fn monitor_reports_at_level_2_and_3() {
        let src = person_source(ReportLevel::WithPaths);
        src.with_store(|s| s.create(gsdb::Object::atom("A2", "age", 40i64)))
            .unwrap();
        src.apply(Update::insert("P2", "A2")).unwrap();
        let reports = src.monitor().poll();
        let r = &reports[1];
        // L2: labels and values.
        let a2 = r.info_of(oid("A2")).unwrap();
        assert_eq!(a2.label.as_str(), "age");
        // L3: root path of P2 with OIDs along it.
        let p2 = r.path_of(oid("P2")).unwrap();
        assert_eq!(p2.path, Path::parse("professor"));
        assert_eq!(p2.oids, vec![oid("ROOT"), oid("P2")]);
        // A2's path exists too (now a child of P2).
        let a2p = r.path_of(oid("A2")).unwrap();
        assert_eq!(a2p.path, Path::parse("professor.age"));
    }

    #[test]
    fn level_3_oids_are_the_objects_along_the_reported_path() {
        // A grouping object created before the tree is A's first
        // parent; the report's OIDs must follow the reported path
        // through P all the same.
        use crate::remote::{Channel, RemoteBase};
        use gsview_core::BaseAccess;
        let [root, a, bag, p] = ["ROOT", "A", "BAG", "P"].map(|n| oid(&format!("l3o_{n}")));
        let src = Source::empty("l3o", root, ReportLevel::WithPaths);
        src.with_store(|s| {
            s.create_all([
                gsdb::Object::atom(a.name(), "age", 45i64),
                gsdb::Object::set(bag.name(), "bag", &[a]),
                gsdb::Object::set(p.name(), "professor", &[a]),
                gsdb::Object::set(root.name(), "person", &[p]),
            ])
        })
        .unwrap();
        let _setup = src.monitor().poll();
        src.apply(Update::modify(a.name(), 46i64)).unwrap();
        let reports = src.monitor().poll();
        let rp = reports[0].path_of(a).unwrap();
        assert_eq!(rp.path, Path::parse("professor.age"));
        assert_eq!(rp.oids, vec![root, p, a]);

        let meter = Arc::new(CostMeter::new());
        let channel = Channel::direct(src.wrapper(meter.clone()));
        let mut base = RemoteBase::new(&channel).with_report(&reports[0]);
        assert_eq!(base.ancestor(a, &Path::parse("age")), Some(p));
        assert_eq!(meter.queries(), 0);
    }

    #[test]
    fn a_source_over_a_plain_store_reports_every_commit() {
        // `Store::new()` does not log; the source's commit pipeline does.
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let src = Source::new("plain", oid("ROOT"), store, ReportLevel::OidsOnly);
        src.with_store(|s| s.create(gsdb::Object::atom("plain_A", "age", 9i64)))
            .unwrap();
        src.apply(Update::insert("P2", "plain_A")).unwrap();
        src.apply(Update::modify("plain_A", 10i64)).unwrap();
        let reports = src.monitor().poll();
        let a = oid("plain_A");
        let (old, new) = (gsdb::Atom::Int(9), gsdb::Atom::Int(10));
        let updates: Vec<_> = reports.iter().map(|r| r.update.clone()).collect();
        assert_eq!(
            updates,
            [
                AppliedUpdate::Create { oid: a },
                AppliedUpdate::Insert { parent: oid("P2"), child: a },
                AppliedUpdate::Modify { oid: a, old, new },
            ]
        );
        assert_eq!(reports.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn monitor_sequences_reports() {
        let src = person_source(ReportLevel::OidsOnly);
        src.apply(Update::modify("A1", 46i64)).unwrap();
        src.apply(Update::modify("A1", 47i64)).unwrap();
        let reports = src.monitor().poll();
        assert_eq!(reports[0].seq, 0);
        assert_eq!(reports[1].seq, 1);
        // Later polls continue the sequence.
        src.apply(Update::modify("A1", 48i64)).unwrap();
        let more = src.monitor().poll();
        assert_eq!(more[0].seq, 2);
    }

    #[test]
    fn wrapper_serves_and_meters() {
        let src = person_source(ReportLevel::OidsOnly);
        let meter = Arc::new(CostMeter::new());
        let w = src.wrapper(meter.clone());
        let reply = w.serve(&SourceQuery::PathFromRoot {
            root: oid("ROOT"),
            n: oid("A1"),
        });
        assert_eq!(
            reply,
            SourceReply::PathResult(Some(Path::parse("professor.age")))
        );
        let reply = w.serve(&SourceQuery::Fetch(oid("P1")));
        match reply {
            SourceReply::Object(Some(info)) => assert_eq!(info.label.as_str(), "professor"),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(meter.queries(), 2);
        assert_eq!(meter.messages(), 4);
    }

    #[test]
    fn wrapper_serves_while_the_store_mutex_is_held() {
        // A writer parks inside `with_store` (holding the source
        // lock); the wrapper must still answer from the last published
        // epoch. With the seed's mutex-read path this test deadlocks.
        use std::sync::mpsc;
        let src = person_source(ReportLevel::OidsOnly);
        let meter = Arc::new(CostMeter::new());
        let w = src.wrapper(meter);
        let (locked_tx, locked_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let src2 = src.clone();
            s.spawn(move || {
                src2.with_store(|store| {
                    store.apply(Update::modify("A1", 99i64)).unwrap();
                    locked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            });
            locked_rx.recv().unwrap(); // writer is inside the lock now
            let reply = w.serve(&SourceQuery::Fetch(oid("A1")));
            match reply {
                SourceReply::Object(Some(info)) => {
                    // The uncommitted modify is invisible: the read
                    // came from the pre-commit epoch.
                    assert_eq!(info.value, gsdb::Value::Atom(gsdb::Atom::Int(45)));
                }
                other => panic!("unexpected reply {other:?}"),
            }
            release_tx.send(()).unwrap();
        });
        // After the closure returns, the commit is published.
        match w.serve(&SourceQuery::Fetch(oid("A1"))) {
            SourceReply::Object(Some(info)) => {
                assert_eq!(info.value, gsdb::Value::Atom(gsdb::Atom::Int(99)));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn epochs_advance_once_per_commit() {
        let src = person_source(ReportLevel::OidsOnly);
        let e0 = src.epoch();
        src.apply(Update::modify("A1", 50i64)).unwrap();
        assert_eq!(src.epoch(), e0 + 1);
        src.apply_batch(vec![
            Update::modify("A1", 51i64),
            Update::modify("A1", 52i64),
        ])
        .unwrap();
        assert_eq!(src.epoch(), e0 + 2, "a batch is one epoch");
        src.with_store(|s| {
            let _ = s.oids_sorted();
        });
        assert_eq!(src.epoch(), e0 + 2, "read-only closures publish nothing");
        let pinned = src.snapshot();
        src.apply(Update::modify("A1", 60i64)).unwrap();
        assert_eq!(pinned.atom(oid("A1")), Some(&gsdb::Atom::Int(52)));
        assert_eq!(src.snapshot().atom(oid("A1")), Some(&gsdb::Atom::Int(60)));
    }

    #[test]
    fn failed_batch_commits_and_publishes_the_applied_prefix() {
        let src = person_source(ReportLevel::OidsOnly);
        let err = src
            .apply_batch(vec![
                Update::modify("A1", 70i64),
                Update::modify("NOPE", 1i64),
                Update::modify("A1", 71i64),
            ])
            .unwrap_err();
        assert_eq!(err, gsdb::GsdbError::NoSuchObject(oid("NOPE")));
        // The prefix is visible on the read path, the tail never ran.
        assert_eq!(src.snapshot().atom(oid("A1")), Some(&gsdb::Atom::Int(70)));
    }

    #[test]
    fn concurrent_appliers_and_pollers_keep_seq_consistent() {
        // Satellite regression for the seed's seq race: two appliers
        // and two pollers race; with `seq` and `store` under separate
        // locks, report sequence order could disagree with commit
        // order and trip SeqTracker on a healthy source. Here: all
        // reports collected across both pollers must carry unique,
        // contiguous seqs, and per-OID the Modify old→new values must
        // chain in seq order (seq order == commit order).
        let src = person_source(ReportLevel::OidsOnly);
        src.with_store(|s| {
            s.create(gsdb::Object::atom("TA", "n", 0i64)).unwrap();
            s.create(gsdb::Object::atom("TB", "n", 0i64)).unwrap();
            s.drain_log();
        });
        const N: i64 = 50;
        let all = Mutex::new(Vec::<UpdateReport>::new());
        std::thread::scope(|scope| {
            for target in ["TA", "TB"] {
                let src = src.clone();
                scope.spawn(move || {
                    for v in 1..=N {
                        src.apply(Update::modify(target, v)).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let m = src.monitor();
                let all = &all;
                scope.spawn(move || loop {
                    let reports = m.poll();
                    let mut guard = all.lock().unwrap();
                    guard.extend(reports);
                    if guard.len() as i64 >= 2 * N {
                        break;
                    }
                    drop(guard);
                    std::thread::yield_now();
                });
            }
        });
        let mut reports = all.into_inner().unwrap();
        assert_eq!(reports.len() as i64, 2 * N);
        reports.sort_by_key(|r| r.seq);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "seqs must be contiguous");
        }
        for target in ["TA", "TB"] {
            let mut last = 0i64;
            for r in &reports {
                if let gsdb::AppliedUpdate::Modify { oid: o, old, new } = &r.update {
                    if o.name() == target {
                        assert_eq!(
                            old,
                            &gsdb::Atom::Int(last),
                            "seq order diverged from commit order for {target}"
                        );
                        if let gsdb::Atom::Int(v) = new {
                            last = *v;
                        }
                    }
                }
            }
            assert_eq!(last, N, "all {target} updates reported");
        }
    }

    #[test]
    fn wrapper_reach_carries_values_for_local_cond_tests() {
        // Example 9: the warehouse fetches N.p and tests cond locally.
        let src = person_source(ReportLevel::OidsOnly);
        let meter = Arc::new(CostMeter::new());
        let w = src.wrapper(meter);
        let reply = w.serve(&SourceQuery::Reach {
            n: oid("P1"),
            p: Path::parse("age"),
        });
        match reply {
            SourceReply::Objects(infos) => {
                assert_eq!(infos.len(), 1);
                assert_eq!(infos[0].value, gsdb::Value::Atom(gsdb::Atom::Int(45)));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
}
