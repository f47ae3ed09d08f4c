//! The data warehouse (paper §5, Figure 6): stores materialized views
//! over autonomous sources, maintains them from update reports, and
//! queries back only when reports and caches cannot answer.
//!
//! Beyond the paper's architecture, this warehouse does not *trust*
//! delivery: every report's sequence number is checked against a
//! per-source [`SeqTracker`], queries travel over a retrying
//! [`Channel`], and a view that missed a report (or whose maintenance
//! lost a query to the dead-letter queue) degrades to an explicit
//! [`Stale`](ViewState::Stale) state — still serving reads — until
//! [`Warehouse::resync_view`] verifies it back to `Consistent`.

use crate::cache::{AuxCache, PathKnowledge};
use crate::durable::ChunkCache;
use crate::protocol::{CostMeter, SourceQuery, SourceReply, UpdateReport};
use crate::remote::{BatchAnswers, Channel, RemoteBase};
use crate::resync::{
    DeadLetterQueue, ResyncOutcome, RetryPolicy, SeqTracker, SeqVerdict, SimClock, StaleCause,
    ViewState,
};
use crate::source::{answer, QueryPort, Source};
use gsdb::{AppliedUpdate, DeltaBatch, Label, Object, Oid, Path, Result, Store};
use gsview_core::recompute::{recompute, refresh};
use gsview_core::{
    consistency, sweep_members, BaseAccess, BatchOutcome, LocalBase, Maintainer, MaterializedView,
    Outcome, SimpleViewDef,
};
use gsview_durable::ChunkPort;
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling how a warehouse view is maintained.
#[derive(Clone, Debug, Default)]
pub struct ViewOptions {
    /// Pin the view's region — the copy of the source along
    /// `sel_path.cond_path` every set-up and heal reads — as the
    /// auxiliary cache (§5.2) its connection keeps and maintains from
    /// the report stream. One copy serves every view over the same root
    /// and full path, pinned or not; a region nobody pins outlives its
    /// views' set-up only as a set-up read.
    pub use_aux_cache: bool,
    /// Screen reports by label before doing anything else (works at
    /// report level ≥ 2: "the warehouse can do some local screening to
    /// avoid some querying back to the source").
    pub label_screening: bool,
    /// Impossible-path knowledge (§5.2 closing paragraph).
    pub knowledge: PathKnowledge,
}

/// Statistics for one warehouse view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Reports processed (including duplicates and reports skipped
    /// while the view was stale).
    pub reports: u64,
    /// Reports discarded by label screening or path knowledge, with no
    /// query to the source.
    pub screened_out: u64,
    /// Reports that turned out relevant (Algorithm 1's location test
    /// passed).
    pub relevant: u64,
    /// Members inserted over the view's lifetime.
    pub inserted: u64,
    /// Members deleted over the view's lifetime.
    pub deleted: u64,
    /// Sequence gaps detected (each sent the view stale).
    pub gaps_detected: u64,
    /// Duplicate reports dropped before touching the view.
    pub duplicates_dropped: u64,
    /// In-order reports skipped because the view was already stale
    /// (they will be subsumed by the next resync).
    pub skipped_while_stale: u64,
    /// Resyncs that restored the view to `Consistent`.
    pub resyncs: u64,
    /// Member re-verification sweeps forced by report lag (an update
    /// dismissed only because its anchor was no longer reachable).
    pub lag_sweeps: u64,
}

/// A region's key: a view's root and full path.
type RegionKey = (Oid, Path);

struct WarehouseView {
    def: SimpleViewDef,
    maintainer: Maintainer,
    mv: MaterializedView,
    source: String,
    /// The region the view is defined over.
    key: RegionKey,
    options: ViewOptions,
    stats: ViewStats,
    state: ViewState,
}

/// One connected source: its retrying query channel, the sequence
/// tracker guarding its report stream, the source's replies to set-up
/// reads, and its regions.
struct Connection {
    channel: Channel,
    tracker: SeqTracker,
    /// The source's replies to set-up reads, by question (§5.1 Example
    /// 9's "obtain all objects in N.p", kept as §5.2 keeps base data so
    /// the warehouse does not ask twice): a view whose path shares a
    /// prefix with an earlier one's asks only for the levels past it.
    replies: HashMap<SourceQuery, Arc<SourceReply>>,
    /// The regions (§5.2's auxiliary cache, "simply another
    /// materialized view"), by root and full path: one copy a region,
    /// from which every set-up over it takes a copy-on-write clone.
    ///
    /// **Validity.** A *read* region was taken since the tracker last
    /// moved: every report since the tracker's baseline is still
    /// unhandled and will reach a view built from it too — the state
    /// the protocol tolerates for any read taken after the baseline,
    /// only older. [`Connection::tracker_mut`] clears the replies and
    /// drops the read regions. A *kept* region has seen every accepted
    /// report since it was read and has lost no query: one whose upkeep
    /// lost a query is dropped before any view reads it, and a sequence
    /// gap drops them all (every view of the source goes stale, and a
    /// heal keeps a verified read again). Either way a view built from
    /// a region receives every later report, so it starts in the state
    /// the region's other readers are maintained against — a set-up
    /// over a kept region asks the source nothing, however late. A
    /// set-up build that lost a query records nothing; heal's reads are
    /// never recorded (a verifying read must be independent).
    regions: HashMap<RegionKey, Region>,
}

/// A connection's copy of one region: *read* by a set-up since the
/// tracker last moved, or *kept* — pinned by a view (`use_aux_cache`)
/// and maintained from every accepted report.
struct Region {
    cache: AuxCache,
    kept: bool,
}

impl Connection {
    /// Forget the set-up replies and read regions: the tracker is about
    /// to move or be re-baselined, and a read older than that is not
    /// one a new view may start from.
    fn tracker_mut(&mut self) -> &mut SeqTracker {
        self.replies.clear();
        self.regions.retain(|_, r| r.kept);
        &mut self.tracker
    }

    /// Drop every kept region: the report stream has a gap.
    fn drop_regions_on_gap(&mut self) {
        for (key, _) in self.regions.drain() {
            region_dropped(self.channel.source(), &key, "gap");
        }
    }

    /// `def`'s region: a copy of the one held for its root and path,
    /// read or kept, else a build that asks the channel only what no
    /// set-up read asked, recorded as read. A build that lost a query
    /// is no read (`None`) and records nothing.
    fn read(&mut self, def: &SimpleViewDef) -> Option<AuxCache> {
        let key = (def.root, def.full_path());
        if let Some(region) = self.regions.get(&key) {
            return Some(region.cache.clone());
        }
        let (channel, replies) = (&self.channel, &self.replies);
        let lost = channel.exhausted();
        let mut asked = Vec::new();
        let region = AuxCache::build(key.0, key.1.clone(), &mut |q| {
            if let Some(reply) = replies.get(q) {
                return Some(Arc::clone(reply));
            }
            let reply = Arc::new(channel.serve(q)?);
            asked.push((q.clone(), Arc::clone(&reply)));
            Some(reply)
        });
        if channel.exhausted() != lost {
            return None;
        }
        self.replies.extend(asked);
        self.regions.insert(
            key,
            Region {
                cache: region.clone(),
                kept: false,
            },
        );
        Some(region)
    }

    /// Keep `region` for `key`: the views over it read it, and every
    /// accepted report maintains it.
    fn keep(&mut self, key: RegionKey, region: AuxCache) {
        self.regions.insert(
            key,
            Region {
                cache: region,
                kept: true,
            },
        );
    }

    /// The kept region over `key`.
    fn kept(&self, key: &RegionKey) -> Option<&AuxCache> {
        self.regions.get(key).filter(|r| r.kept).map(|r| &r.cache)
    }
}

/// Book a kept region's drop for `cause` (`gap` or `lost_query`): the
/// views over it query the source back until a heal installs it again.
fn region_dropped(source: &str, key: &RegionKey, cause: &'static str) {
    gsview_obs::event!(
        "warehouse.region.dropped",
        "source" = source.to_string(),
        "root" = key.0.name().to_string(),
        "path" = key.1.to_string(),
        "cause" = cause
    );
    gsview_obs::registry()
        .counter(&format!("warehouse.region.dropped.{cause}"))
        .incr();
}

/// A warehouse holding materialized views over one or more sources.
///
/// The warehouse owns no base data: it reaches sources only through
/// their wrappers (queries) and monitors (reports), exactly as in the
/// paper's architecture where "only the warehouse (and not the data
/// sources) knows the view definition".
pub struct Warehouse {
    connections: HashMap<String, Connection>,
    views: Vec<WarehouseView>,
    retry: RetryPolicy,
    clock: SimClock,
    dead_letters: Arc<DeadLetterQueue>,
    durable: Option<DurablePort>,
}

/// The warehouse's durable attachment: a chunk port (the epoch log
/// itself when colocated, a wire proxy when not) plus the decoded
/// pages already fetched through it.
struct DurablePort {
    port: Arc<dyn ChunkPort>,
    cache: ChunkCache,
}

impl Warehouse {
    /// An empty warehouse with the default retry policy.
    pub fn new() -> Self {
        Warehouse {
            connections: HashMap::new(),
            views: Vec::new(),
            retry: RetryPolicy::default(),
            clock: SimClock::new(),
            dead_letters: Arc::new(DeadLetterQueue::new()),
            durable: None,
        }
    }

    /// Set the retry policy used by subsequently connected sources.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The warehouse's simulated clock (total backoff latency paid).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Queries that exhausted their retries, across all sources.
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dead_letters
    }

    /// Connect a source by name, installing a cost meter on its
    /// wrapper and baselining gap detection at the source's current
    /// sequence counter.
    pub fn connect(&mut self, source: &Source) {
        let meter = Arc::new(CostMeter::new());
        let wrapper = source.wrapper(meter.clone());
        self.connect_port(source.name(), Arc::new(wrapper), meter, source.next_seq());
    }

    /// Connect an arbitrary query port under `name`. `next_seq` is the
    /// first report sequence number the warehouse should expect.
    pub fn connect_port(
        &mut self,
        name: &str,
        port: Arc<dyn QueryPort>,
        meter: Arc<CostMeter>,
        next_seq: u64,
    ) {
        let channel = Channel::new(
            name,
            port,
            meter,
            self.retry,
            self.clock.clone(),
            self.dead_letters.clone(),
        );
        self.connections.insert(
            name.to_owned(),
            Connection {
                channel,
                tracker: SeqTracker::with_baseline(next_seq),
                replies: HashMap::new(),
                regions: HashMap::new(),
            },
        );
    }

    /// The cost meter for a connected source.
    pub fn meter(&self, source: &str) -> Option<&CostMeter> {
        self.connections.get(source).map(|c| c.channel.meter())
    }

    /// The retrying channel to a connected source.
    pub fn channel(&self, source: &str) -> Option<&Channel> {
        self.connections.get(source).map(|c| &c.channel)
    }

    /// The connection named `source`.
    fn connection(&self, source: &str) -> Result<&Connection> {
        self.connections
            .get(source)
            .ok_or_else(|| unconnected(source))
    }

    /// [`Warehouse::connection`], writable.
    fn connection_mut(&mut self, source: &str) -> Result<&mut Connection> {
        self.connections
            .get_mut(source)
            .ok_or_else(|| unconnected(source))
    }

    /// The index of `view` among the warehouse's views.
    fn lookup(&self, view: Oid) -> Option<usize> {
        self.views.iter().position(|v| v.def.view == view)
    }

    /// Define a materialized view over a connected source: read its
    /// region (`full_path().len() + 1` source queries, whatever the
    /// size of the source) and compute the view from it locally. A
    /// set-up whose read lost a query to the dead-letter queue has
    /// nothing to build on: the view is registered empty and
    /// [`Stale`](ViewState::Stale), and [`Warehouse::resync_view`]
    /// heals it.
    ///
    /// A view over a region its connection holds costs no query: one
    /// read since the source's last handled report (or re-baseline), or
    /// one a view pins. Until that report, one whose path shares a
    /// prefix with an earlier view's asks only for the levels past it.
    pub fn add_view(
        &mut self,
        source: &str,
        def: SimpleViewDef,
        options: ViewOptions,
    ) -> Result<Oid> {
        let region = self.connection_mut(source)?.read(&def);
        self.install(source, def, options, region)
    }

    /// Register a view computed from `region`, the one read set-up
    /// makes; the connection keeps the region when the options pin it.
    fn install(
        &mut self,
        source: &str,
        def: SimpleViewDef,
        options: ViewOptions,
        region: Option<AuxCache>,
    ) -> Result<Oid> {
        let (mv, state) = match &region {
            Some(r) => (
                recompute(&def, &mut LocalBase::new(r.store()))?,
                ViewState::Consistent,
            ),
            None => (
                MaterializedView::new(def.view),
                ViewState::Stale(StaleCause::QueryFailure),
            ),
        };
        let view = def.view;
        let key = (def.root, def.full_path());
        if let Some(region) = region.filter(|_| options.use_aux_cache) {
            self.connection_mut(source)?.keep(key.clone(), region);
        }
        self.views.push(WarehouseView {
            maintainer: Maintainer::new(def.clone()),
            def,
            mv,
            source: source.to_owned(),
            key,
            options,
            stats: ViewStats::default(),
            state,
        });
        Ok(view)
    }

    /// Attach a durable chunk port: warm view materialization
    /// ([`Warehouse::add_view_warm`]) and chunk-diff resync
    /// ([`Warehouse::resync_view_durable`]) become available. One
    /// attachment serves every source lineage persisted into the
    /// shared log, and the page cache it carries dedups across
    /// them by content hash.
    pub fn attach_durable(&mut self, port: Arc<dyn ChunkPort>) {
        self.durable = Some(DurablePort {
            port,
            cache: ChunkCache::new(),
        });
    }

    /// Reconstruct the newest persisted epoch of `source` through the
    /// durable attachment. `None` when there is no attachment, no
    /// manifest for the lineage, or the chunks no longer verify — the
    /// caller falls back to the query path.
    fn reconstruct_source(
        &mut self,
        source: &str,
    ) -> Option<(
        gsview_durable::Manifest,
        gsdb::Store,
        crate::durable::FetchStats,
    )> {
        let d = self.durable.as_mut()?;
        let m = d.port.latest_manifest(source)?;
        match d.cache.reconstruct(d.port.as_ref(), &m) {
            Ok((store, stats)) => Some((m, store, stats)),
            Err(e) => {
                gsview_obs::event!(
                    "warehouse.durable.reconstruct_failed",
                    "source" = source.to_string(),
                    "error" = e.to_string()
                );
                None
            }
        }
    }

    /// Define a view over a connected source and materialize it from
    /// the source's **durable lineage** instead of querying the source
    /// — the warm-restart path: after a crash, re-declared views load
    /// from the last persisted epoch with zero source queries, which
    /// is exactly the restart cost the paper's §3 architecture exists
    /// to avoid. The view's region is read out of the reconstructed
    /// epoch exactly as [`Warehouse::add_view`] reads it out of the
    /// source.
    ///
    /// The source's sequence tracker is re-baselined at the manifest's
    /// watermark: reports the persisted epoch already contains arrive
    /// as duplicates and are dropped; anything committed after the
    /// persist still arrives in order (or surfaces as a gap and heals
    /// through resync).
    ///
    /// Returns `Ok(None)` when no durable state is available — a cold
    /// start; fall back to [`Warehouse::add_view`].
    pub fn add_view_warm(
        &mut self,
        source: &str,
        def: SimpleViewDef,
        options: ViewOptions,
    ) -> Result<Option<Oid>> {
        let _span = gsview_obs::span!(
            "warehouse.add_view_warm",
            "view" = def.view.name().to_string(),
            "source" = source.to_string()
        );
        self.connection(source)?;
        let Some((m, store, stats)) = self.reconstruct_source(source) else {
            return Ok(None);
        };
        let region = region_of(&def, &store);
        if let Some(conn) = self.connections.get_mut(source) {
            *conn.tracker_mut() = SeqTracker::with_baseline(m.seq);
        }
        gsview_obs::event!(
            "warehouse.add_view_warm.done",
            "view" = def.view.name().to_string(),
            "epoch" = m.epoch,
            "chunks_fetched" = stats.fetched,
            "chunks_reused" = stats.reused
        );
        self.install(source, def, options, Some(region)).map(Some)
    }

    /// Access a view's materialized state. Reads are served even while
    /// the view is [`Stale`](ViewState::Stale) — check
    /// [`Warehouse::view_state`] to know whether to trust them.
    pub fn view(&self, view: Oid) -> Option<&MaterializedView> {
        self.lookup(view).map(|i| &self.views[i].mv)
    }

    /// A view's health.
    pub fn view_state(&self, view: Oid) -> Option<ViewState> {
        self.lookup(view).map(|i| self.views[i].state)
    }

    /// All views currently flagged stale.
    pub fn stale_views(&self) -> Vec<Oid> {
        self.views
            .iter()
            .filter(|v| v.state.is_stale())
            .map(|v| v.def.view)
            .collect()
    }

    /// A view's statistics.
    pub fn view_stats(&self, view: Oid) -> Option<ViewStats> {
        self.lookup(view).map(|i| self.views[i].stats)
    }

    /// The upkeep query count of the region a view pins, while its
    /// connection keeps it.
    pub fn cache_queries(&self, view: Oid) -> Option<u64> {
        let wv = &self.views[self.lookup(view)?];
        if !wv.options.use_aux_cache {
            return None;
        }
        let region = self.connection(&wv.source).ok()?.kept(&wv.key)?;
        Some(region.maintenance_queries)
    }

    /// Handle one update report from a source monitor: check its
    /// sequence number, then maintain every (healthy) view defined
    /// over that source with one Algorithm 1 pass
    /// ([`Maintainer::apply`]).
    ///
    /// * Duplicates are dropped before touching any view or cache
    ///   (idempotency).
    /// * A gap flags every view of the source [`Stale`](ViewState::Stale)
    ///   — the lost reports will never arrive, so incremental
    ///   maintenance cannot continue soundly; [`Warehouse::resync_view`]
    ///   heals.
    /// * Stale views skip maintenance entirely (cheap degraded mode;
    ///   resync subsumes whatever the skipped reports would have done).
    /// * A maintenance pass that loses a query to the dead-letter
    ///   queue also sends the view stale: its result cannot be trusted.
    pub fn handle_report(&mut self, report: &UpdateReport) -> Result<Vec<(Oid, Outcome)>> {
        let _span = gsview_obs::span!(
            "warehouse.handle_report",
            "source" = report.source.clone(),
            "seq" = report.seq,
            "level" = report.effective_level().to_string()
        );
        self.handle_source(
            &report.source,
            &[report],
            false,
            |wv, region, channel, _, _, faults_before| {
                let mut outcome = {
                    let mut base = RemoteBase::new(channel).with_report(report);
                    if let Some(region) = region {
                        base = base.with_cache(region);
                    }
                    wv.maintainer.apply(&mut wv.mv, &mut base, &report.update)?
                };
                if region.is_none() && channel.exhausted() == faults_before {
                    lag_guard(wv, channel, report, &mut outcome)?;
                }
                Ok(outcome)
            },
        )
    }

    /// Handle a buffered run of update reports in one batched
    /// maintenance pass per view.
    ///
    /// Reports are grouped by source and handled exactly as in
    /// [`Warehouse::handle_report`] (duplicates dropped, gaps flag the
    /// source's views stale, screening, cache upkeep); for each healthy
    /// view the surviving reports' updates are collected into a
    /// [`DeltaBatch`] and applied with [`Maintainer::apply_batch`]
    /// against the source's *current* state. Consolidation means churny
    /// runs (insert+delete of the same edge, repeated modifies of one
    /// atom) cost far fewer location tests and source queries than
    /// one-at-a-time [`handle_report`](Warehouse::handle_report) calls;
    /// and a batch asks a source each question once — what its reports
    /// carried and what the source has already replied is shared by
    /// every view of that source for the duration of the call.
    pub fn handle_batch(&mut self, reports: &[UpdateReport]) -> Result<Vec<(Oid, BatchOutcome)>> {
        let _span = gsview_obs::span!("warehouse.handle_batch", "reports" = reports.len());
        let mut sources: Vec<&str> = Vec::new();
        for r in reports {
            if !sources.contains(&r.source.as_str()) {
                sources.push(&r.source);
            }
        }
        let mut outcomes = Vec::new();
        for source in sources {
            let of_source: Vec<&UpdateReport> =
                reports.iter().filter(|r| r.source == source).collect();
            let maintained = self.handle_source(
                source,
                &of_source,
                true,
                |wv, region, channel, answers, kept, _| {
                    let mut batch = DeltaBatch::new();
                    for r in kept {
                        batch.push(r.update.clone());
                    }
                    let mut base = RemoteBase::new(channel);
                    if let Some(answers) = answers {
                        base = base.with_batch(answers);
                    }
                    if let Some(region) = region {
                        base = base.with_cache(region);
                    }
                    wv.maintainer.apply_batch(&mut wv.mv, &mut base, &batch)
                },
            )?;
            outcomes.extend(maintained);
        }
        Ok(outcomes)
    }

    /// The report loop behind [`Warehouse::handle_report`] and
    /// [`Warehouse::handle_batch`], in four steps:
    ///
    /// 1. `reports` (all from `source`, in arrival order) are
    ///    sequence-screened once; a gap drops the source's kept regions.
    /// 2. Each kept region is maintained once over the accepted reports
    ///    ([`AuxCache::apply_report`]); one whose upkeep lost a query
    ///    is dropped, and the views pinning it go stale.
    /// 3. Each view of the source gets its statistics, gap verdict and
    ///    label screening, and `maintain` is called once per healthy
    ///    view with the reports screening kept (never empty) and the
    ///    kept region over the view's key, pinned by it or not. It is
    ///    the only thing the two entry points do differently. A view
    ///    whose pass lost a query to the dead-letter queue goes stale
    ///    and reports no outcome.
    /// 4. Each kept region is finalized once, after every view has
    ///    read it, so a detached subtree outlives every delete case.
    ///
    /// `batched` shares the reports' answers ([`BatchAnswers`]) between
    /// the upkeep and `maintain`.
    fn handle_source<O: Tally>(
        &mut self,
        source: &str,
        reports: &[&UpdateReport],
        batched: bool,
        mut maintain: impl FnMut(
            &mut WarehouseView,
            Option<&AuxCache>,
            &Channel,
            Option<&BatchAnswers<'_>>,
            &[&UpdateReport],
            u64,
        ) -> Result<O>,
    ) -> Result<Vec<(Oid, O)>> {
        let Some(conn) = self.connections.get_mut(source) else {
            return Ok(Vec::new());
        };
        // Sequence screening, once per report (not per view).
        let mut accepted: Vec<&UpdateReport> = Vec::new();
        let mut dups = 0u64;
        let mut gaps = 0u64;
        let mut first_gap: Option<(u64, u64)> = None;
        let tracker = conn.tracker_mut();
        for &r in reports {
            match tracker.observe(r.seq) {
                SeqVerdict::InOrder => accepted.push(r),
                SeqVerdict::Duplicate { .. } => dups += 1,
                SeqVerdict::Gap { expected, got } => {
                    gaps += 1;
                    if first_gap.is_none() {
                        gsview_obs::event!(
                            "warehouse.seq_gap",
                            "source" = source.to_string(),
                            "expected" = expected,
                            "got" = got
                        );
                    }
                    first_gap.get_or_insert((expected, got));
                    accepted.push(r);
                }
            }
        }
        if first_gap.is_some() {
            conn.drop_regions_on_gap();
        }
        let channel = conn.channel.clone();
        let answers = batched.then(|| BatchAnswers::new(&accepted));
        // Region upkeep, once per kept region (`tracker_mut` above left
        // no read one) — before screening, and before Algorithm 1 so
        // each region reflects the post-update state the algorithm
        // expects. Screening only proves a *view*
        // cannot change; a cached copy still can, and
        // [`AuxCache::try_fetch`] serves exact whole-value copies.
        let mut lost: Vec<RegionKey> = Vec::new();
        if !accepted.is_empty() {
            conn.regions.retain(|key, region| {
                let faults_before = channel.exhausted();
                for &report in &accepted {
                    region
                        .cache
                        .apply_report(report, &channel, answers.as_ref());
                }
                gsview_obs::registry()
                    .counter("warehouse.region.upkeeps")
                    .incr();
                if channel.exhausted() == faults_before {
                    return true;
                }
                region_dropped(source, key, "lost_query");
                lost.push(key.clone());
                false
            });
        }
        let regions = &conn.regions;
        let mut outcomes = Vec::new();
        for wv in self.views.iter_mut().filter(|v| v.source == source) {
            wv.stats.reports += reports.len() as u64;
            wv.stats.duplicates_dropped += dups;
            if let Some((expected, got)) = first_gap {
                wv.stats.gaps_detected += gaps;
                if !wv.state.is_stale() {
                    wv.state = ViewState::Stale(StaleCause::ReportGap { expected, got });
                }
            }
            if wv.options.use_aux_cache && !wv.state.is_stale() && lost.contains(&wv.key) {
                // The region it pins lost a query in its upkeep.
                wv.state = ViewState::Stale(StaleCause::QueryFailure);
            }
            if wv.state.is_stale() {
                wv.stats.skipped_while_stale += accepted.len() as u64;
                continue;
            }
            let region = regions.get(&wv.key).map(|r| &r.cache);
            let faults_before = channel.exhausted();
            let mut kept: Vec<&UpdateReport> = Vec::new();
            for &report in &accepted {
                // Local screening (no source queries). A screened
                // report cannot change membership, but an edge into a
                // member set or a modify of a member atom still changes
                // its *value* (§3.2) — refresh it from local data, or
                // fall through to full maintenance when no local copy
                // is available.
                if screened_out(wv, report) && screened_content_upkeep(wv, region, report)? {
                    wv.stats.screened_out += 1;
                    continue;
                }
                kept.push(report);
            }
            let outcome = if kept.is_empty() {
                None
            } else {
                Some(maintain(
                    wv,
                    region,
                    &channel,
                    answers.as_ref(),
                    &kept,
                    faults_before,
                )?)
            };
            if channel.exhausted() > faults_before {
                // A query inside this pass exhausted its retries: the
                // outcome is built on missing data.
                wv.state = ViewState::Stale(StaleCause::QueryFailure);
                continue;
            }
            if let Some(outcome) = outcome {
                outcome.tally(&mut wv.stats);
                outcomes.push((wv.def.view, outcome));
            }
        }
        for region in conn.regions.values_mut() {
            region.cache.finalize_report();
        }
        Ok(outcomes)
    }

    /// Account for a source's control-plane checkpoint: the monitor has
    /// emitted every sequence number below `next_seq`. Detects *tail*
    /// loss — a dropped report with no delivered successor — which no
    /// amount of stream watching can reveal. Returns the gap verdict if
    /// reports turned out to be missing (the affected views are flagged
    /// stale).
    pub fn reconcile(&mut self, source: &str, next_seq: u64) -> Option<SeqVerdict> {
        let conn = self.connections.get_mut(source)?;
        let verdict = conn.tracker_mut().reconcile(next_seq)?;
        if let SeqVerdict::Gap { expected, got } = verdict {
            conn.drop_regions_on_gap();
            for wv in self.views.iter_mut().filter(|v| v.source == source) {
                wv.stats.gaps_detected += 1;
                if !wv.state.is_stale() {
                    wv.state = ViewState::Stale(StaleCause::ReportGap { expected, got });
                }
            }
        }
        Some(verdict)
    }

    /// [`Warehouse::reconcile`] against a whole set of checkpoints (as
    /// returned by [`Integrator::checkpoints`](crate::Integrator::checkpoints)).
    /// Returns how many sources turned out to have tail loss.
    pub fn reconcile_checkpoints(
        &mut self,
        checkpoints: impl IntoIterator<Item = (String, u64)>,
    ) -> usize {
        checkpoints
            .into_iter()
            .filter(|(source, next_seq)| {
                matches!(
                    self.reconcile(source, *next_seq),
                    Some(SeqVerdict::Gap { .. })
                )
            })
            .count()
    }

    /// Heal one view over the wire: read its region, repair the view
    /// from it ([`refresh`]), verify against a second, independent read,
    /// and escalate to [`recompute`] when the source moved between the
    /// two; the region that verified becomes the kept one for the
    /// view's key when a view pins it. At most
    /// three reads of `full_path().len() + 1` queries each. This is
    /// also the recovery path for the anomaly the paper flags in §5.1 —
    /// "source updates may interfere with query evaluation and
    /// resulting in inconsistent query results \[ZGMHW95\]": reports
    /// processed against a source that has already moved on can drift
    /// the view.
    ///
    /// Healing reads over the same faulty channel as maintenance, so a
    /// resync can itself lose queries; in that case the view *stays*
    /// stale (`healed == false`) and the caller retries — see the
    /// bounded loop in the testkit's `chaos::run_scenario`.
    pub fn resync_view(&mut self, view: Oid) -> Result<ResyncOutcome> {
        let _span = gsview_obs::span!("warehouse.resync_view", "view" = view.name().to_string());
        let Some(idx) = self.lookup(view) else {
            return Ok(ResyncOutcome::default());
        };
        let channel = self.connection(&self.views[idx].source)?.channel.clone();
        let outcome = self.heal_view(idx, &mut |def| region_over(def, &channel))?;
        gsview_obs::event!(
            "warehouse.resync_view.done",
            "view" = view.name().to_string(),
            "healed" = outcome.healed,
            "escalated" = outcome.escalated
        );
        Ok(outcome)
    }

    /// Heal one view from the source's **durable lineage**: reconstruct
    /// the last persisted epoch (fetching only chunks whose hashes
    /// changed since the previous reconstruction — [`ChunkCache`]),
    /// then heal as [`Warehouse::resync_view`] does, reading the region
    /// out of the reconstructed store. Zero source queries; a crashed
    /// or unreachable source can still have its stale views healed to
    /// its last durable epoch.
    ///
    /// The healed view is consistent *with the persisted epoch*. The
    /// tracker is re-baselined at the manifest's sequence watermark, so
    /// if the source had committed past the persist, the next report
    /// surfaces as a gap and sends the view back through resync — the
    /// lag is detected, never silently absorbed.
    ///
    /// Falls back to the channel-query path ([`Warehouse::resync_view`])
    /// when no durable attachment, manifest, or intact chunk set is
    /// available.
    pub fn resync_view_durable(&mut self, view: Oid) -> Result<ResyncOutcome> {
        let _span = gsview_obs::span!(
            "warehouse.resync_view_durable",
            "view" = view.name().to_string()
        );
        let Some(idx) = self.lookup(view) else {
            return Ok(ResyncOutcome::default());
        };
        let source = self.views[idx].source.clone();
        let Some((m, store, stats)) = self.reconstruct_source(&source) else {
            gsview_obs::event!(
                "warehouse.resync_view_durable.fallback",
                "view" = view.name().to_string()
            );
            return self.resync_view(view);
        };
        // The reconstruction is local: no read of it can lose a query.
        let mut outcome = self.heal_view(idx, &mut |def| Some(region_of(def, &store)))?;
        outcome.chunks_fetched = stats.fetched;
        outcome.chunks_reused = stats.reused;
        if outcome.healed {
            if let Some(conn) = self.connections.get_mut(&source) {
                *conn.tracker_mut() = SeqTracker::with_baseline(m.seq);
            }
        }
        gsview_obs::event!(
            "warehouse.resync_view_durable.done",
            "view" = view.name().to_string(),
            "healed" = outcome.healed,
            "escalated" = outcome.escalated,
            "epoch" = m.epoch,
            "chunks_fetched" = stats.fetched,
            "chunks_reused" = stats.reused
        );
        Ok(outcome)
    }

    /// [`heal`] view `idx` from `read`. The region that verified is
    /// the newest complete read of its key and has seen every report
    /// the tracker accepted, so it becomes the kept one for the key
    /// (restoring one a gap or a lost query dropped) when a view of the
    /// source pins it.
    fn heal_view(
        &mut self,
        idx: usize,
        read: &mut dyn FnMut(&SimpleViewDef) -> Option<AuxCache>,
    ) -> Result<ResyncOutcome> {
        let (outcome, verified) = heal(&mut self.views[idx], read)?;
        let wv = &self.views[idx];
        let pinned = self
            .views
            .iter()
            .any(|v| v.options.use_aux_cache && v.source == wv.source && v.key == wv.key);
        if let Some(region) = verified.filter(|_| pinned) {
            let key = wv.key.clone();
            let source = wv.source.clone();
            self.connection_mut(&source)?.keep(key, region);
        }
        Ok(outcome)
    }

    /// Resync every stale view once. Views that fail to heal (the
    /// source kept failing) remain stale; call again.
    pub fn resync_stale(&mut self) -> Result<Vec<(Oid, ResyncOutcome)>> {
        let stale = self.stale_views();
        let mut out = Vec::new();
        for view in stale {
            out.push((view, self.resync_view(view)?));
        }
        Ok(out)
    }
}

impl Default for Warehouse {
    fn default() -> Self {
        Self::new()
    }
}

/// The error for a source nothing is connected under: the missing
/// object it is.
fn unconnected(source: &str) -> gsdb::GsdbError {
    gsdb::GsdbError::NoSuchObject(Oid::new(source))
}

/// One read of `def`'s region over `channel`, shared with nothing: a
/// heal's verifying read must be independent of the one it checks. A
/// read during which the channel dead-lettered a query is no read at
/// all.
fn region_over(def: &SimpleViewDef, channel: &Channel) -> Option<AuxCache> {
    let lost = channel.exhausted();
    let region = AuxCache::build(def.root, def.full_path(), &mut |q| channel.serve(q));
    (channel.exhausted() == lost).then_some(region)
}

/// `def`'s region read out of a local store (a reconstructed epoch).
fn region_of(def: &SimpleViewDef, store: &Store) -> AuxCache {
    AuxCache::build(def.root, def.full_path(), &mut |q| Some(answer(store, q)))
}

/// Heal a view from reads of its region: repair the view from one read
/// ([`refresh`]: replay the diff over the current membership), verify
/// it against a **second, independent** read, and when the two disagree
/// — the source moved between them — escalate: [`recompute`] from the
/// newer read and verify against a third. Two reads that agree are what
/// a heal proves; the result is booked in the view's state and
/// statistics, and the region that verified is returned. A `read` that
/// answers `None` lost a query on the way and proves nothing: the view
/// stays (or goes) stale and keeps what it has.
fn heal(
    wv: &mut WarehouseView,
    read: &mut dyn FnMut(&SimpleViewDef) -> Option<AuxCache>,
) -> Result<(ResyncOutcome, Option<AuxCache>)> {
    let mut outcome = ResyncOutcome::default();
    let agrees = |region: &AuxCache, mv: &MaterializedView| {
        consistency::check(&wv.def, &mut LocalBase::new(region.store()), mv).is_empty()
    };
    let mut verified = None;
    if let Some(first) = read(&wv.def) {
        (outcome.inserted, outcome.deleted) =
            refresh(&wv.def, &mut LocalBase::new(first.store()), &mut wv.mv)?;
        verified = read(&wv.def);
        if let Some(second) = verified.as_ref().filter(|r| !agrees(r, &wv.mv)) {
            outcome.escalated = true;
            wv.mv = recompute(&wv.def, &mut LocalBase::new(second.store()))?;
            verified = read(&wv.def).filter(|r| agrees(r, &wv.mv));
        }
    }

    outcome.healed = verified.is_some();
    if outcome.healed {
        if wv.state.is_stale() {
            wv.stats.resyncs += 1;
        }
        wv.state = ViewState::Consistent;
    } else if !wv.state.is_stale() {
        wv.state = ViewState::Stale(StaleCause::QueryFailure);
    }
    Ok((outcome, verified))
}

/// What a maintenance pass adds to its view's [`ViewStats`].
trait Tally {
    fn tally(&self, stats: &mut ViewStats);
}

impl Tally for Outcome {
    fn tally(&self, stats: &mut ViewStats) {
        stats.relevant += u64::from(self.relevant);
        stats.inserted += self.inserted.len() as u64;
        stats.deleted += self.deleted.len() as u64;
    }
}

impl Tally for BatchOutcome {
    fn tally(&self, stats: &mut ViewStats) {
        stats.relevant += self.relevant_deltas as u64;
        stats.inserted += self.inserted.len() as u64;
        stats.deleted += self.deleted.len() as u64;
    }
}

/// §4.3 precondition guard for one per-report pass. Algorithm 1
/// assumes the base is in the state right after the triggering update,
/// but the source may have moved on since this report was emitted (the
/// warehouse polls, queues and retries). A delete whose parent — or a
/// condition-bearing modify whose object — is unreachable *now* may
/// have been view-relevant *then*, and the source has already
/// destroyed the evidence; re-verify the membership instead of
/// trusting the dismissal ([`sweep_members`]). (Gains never need this:
/// they always leave evidence in the current state for a later report
/// to find.)
///
/// A view read over a kept region is exempt (the caller skips the
/// guard): the region is maintained from the report stream itself, so
/// its answers — including `certainly_off_path` rejections — describe
/// the state right after each reported update. Dismissals are then
/// report-time-sound and the guard (whose check costs a source query)
/// would only re-confirm them.
fn lag_guard(
    wv: &mut WarehouseView,
    channel: &Channel,
    report: &UpdateReport,
    outcome: &mut Outcome,
) -> Result<()> {
    if outcome.relevant || wv.mv.is_empty() {
        return Ok(());
    }
    let mut base = RemoteBase::new(channel);
    let suspect = match &report.update {
        AppliedUpdate::Delete { parent, child } => {
            base.path_from_root(wv.def.root, *parent).is_none() || base.label_of(*child).is_none()
        }
        AppliedUpdate::Modify { oid, .. } => {
            wv.def.cond.is_some() && base.path_from_root(wv.def.root, *oid).is_none()
        }
        _ => false,
    };
    if suspect {
        wv.stats.lag_sweeps += 1;
        outcome
            .deleted
            .extend(sweep_members(&wv.def, &mut wv.mv, &mut base)?);
    }
    Ok(())
}

/// Local screening (paper §5.1 scenario 2 + §5.2 path knowledge):
/// decide, from the report alone, that this view cannot be affected.
fn screened_out(wv: &WarehouseView, report: &UpdateReport) -> bool {
    // Path-knowledge screening: a view whose full path is impossible
    // can never change.
    if !wv.options.knowledge.path_possible(&wv.def.full_path()) {
        return true;
    }
    if !wv.options.label_screening {
        return false;
    }
    let full = wv.def.full_path();
    match &report.update {
        AppliedUpdate::Insert { child, .. } | AppliedUpdate::Delete { child, .. } => {
            // "when label(N2) is not in the sel_path.cond_path,
            // insert(N1, N2) will have no effect on the view."
            match reported_label(report, *child) {
                Some(l) => !full.labels().contains(&l),
                None => false, // L1 report: cannot screen locally
            }
        }
        AppliedUpdate::Modify { oid, .. } => {
            // A modify matters only if the atom can sit at the tail of
            // sel.cond — and only for views with a condition.
            if wv.def.cond.is_none() {
                return true;
            }
            match (reported_label(report, *oid), full.labels().last()) {
                (Some(l), Some(&tail)) => l != tail,
                _ => false,
            }
        }
        AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. } => true,
    }
}

fn reported_label(report: &UpdateReport, oid: Oid) -> Option<Label> {
    report.info_of(oid).map(|i| i.label)
}

/// Content upkeep for a screened report, from local data only. A
/// screened update cannot change *membership*, but an edge into a
/// member set or a modify of a member atom still changes the member's
/// value, and a delegate carries "the same value as the original
/// object" (§3.2). Screening promises query-free handling, so the
/// fresh copy must already be at the warehouse: the report's carried
/// object values (L2+ reports describe both ends of an edge
/// post-update), the modify's own new value, or the kept `region` over
/// the view's key (exact by [`AuxCache::apply_report`]). Returns `false`
/// when the affected object is a member but no local copy is available
/// — the caller must then fall through to full maintenance instead of
/// screening.
fn screened_content_upkeep(
    wv: &mut WarehouseView,
    region: Option<&AuxCache>,
    report: &UpdateReport,
) -> Result<bool> {
    let affected = match &report.update {
        AppliedUpdate::Insert { parent, .. } | AppliedUpdate::Delete { parent, .. } => *parent,
        AppliedUpdate::Modify { oid, .. } => *oid,
        AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. } => return Ok(true),
    };
    if !wv.mv.contains_base(affected) {
        return Ok(true);
    }
    if let Some(info) = report.info_of(affected) {
        wv.mv.refresh_delegate(&info.to_object())?;
        return Ok(true);
    }
    if let AppliedUpdate::Modify { oid, new, .. } = &report.update {
        // A level-1 modify carries no object info, but the update
        // itself holds the new value; the label comes from the
        // member's own delegate copy.
        let label = wv
            .mv
            .delegate_of(*oid)
            .and_then(|d| wv.mv.delegate(d))
            .map(|d| d.label);
        if let Some(label) = label {
            wv.mv
                .refresh_delegate(&Object::atom(*oid, label, new.clone()))?;
            return Ok(true);
        }
    }
    if let Some(obj) = region.and_then(|r| r.try_fetch(affected)) {
        wv.mv.refresh_delegate(&obj)?;
        return Ok(true);
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{QueryFault, ReportLevel, SourceQuery, SourceReply};
    use crate::source::{ReportSource, Source};
    use gsdb::{samples, Update};
    use gsview_query::{CmpOp, Pred};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_source(level: ReportLevel) -> Source {
        let src = Source::empty("persons", oid("ROOT"), level);
        src.with_store(|s| samples::person_db(s).map(|_| ()))
            .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    fn yp_def() -> SimpleViewDef {
        SimpleViewDef::new("YP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64))
    }

    fn pump(src: &Source, wh: &mut Warehouse) {
        for r in src.monitor().poll() {
            wh.handle_report(&r).unwrap();
        }
    }

    /// Membership and delegate values of a view: `(base, label, value)`
    /// per member.
    type Contents = Vec<(Oid, Label, gsdb::Value)>;

    fn contents(wh: &Warehouse, view: &str) -> Contents {
        let mv = wh.view(oid(view)).unwrap();
        mv.members_base()
            .into_iter()
            .map(|b| {
                let d = mv.delegate(mv.delegate_of(b).unwrap()).unwrap();
                (b, d.label, d.value.clone())
            })
            .collect()
    }

    /// Membership *and* delegate values agree with a recomputation
    /// over the source's current state.
    fn assert_consistent(src: &Source, wh: &Warehouse, def: &SimpleViewDef) {
        let problems = src.with_store(|s| {
            consistency::check(def, &mut LocalBase::new(s), wh.view(def.view).unwrap())
        });
        assert!(problems.is_empty(), "{}: {problems:?}", def.view);
    }

    /// A port that records every query it is sent and can be switched
    /// off (every query then fails until it is switched on again).
    struct Probe {
        inner: crate::source::Wrapper,
        log: std::sync::Mutex<Vec<SourceQuery>>,
        down: std::sync::atomic::AtomicBool,
    }

    impl QueryPort for Probe {
        fn query(&self, q: &SourceQuery) -> std::result::Result<SourceReply, QueryFault> {
            if self.down.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(QueryFault::Unavailable);
            }
            self.log.lock().unwrap().push(q.clone());
            Ok(self.inner.serve(q))
        }
    }

    fn probed(src: &Source) -> (Warehouse, Arc<Probe>) {
        let meter = Arc::new(CostMeter::new());
        let probe = Arc::new(Probe {
            inner: src.wrapper(meter.clone()),
            log: Default::default(),
            down: Default::default(),
        });
        let mut wh = Warehouse::new();
        wh.connect_port(src.name(), probe.clone(), meter, src.next_seq());
        (wh, probe)
    }

    #[test]
    fn warehouse_maintains_view_from_reports() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);

        // Example 5 at the source: insert(P2, A2).
        src.with_store(|s| s.create(gsdb::Object::atom("A2", "age", 40i64)))
            .unwrap();
        src.apply(Update::insert("P2", "A2")).unwrap();
        pump(&src, &mut wh);
        assert_eq!(
            wh.view(oid("YP")).unwrap().members_base(),
            vec![oid("P1"), oid("P2")]
        );

        // And a departure.
        src.apply(Update::modify("A1", 80i64)).unwrap();
        src.apply(Update::modify("A2", 80i64)).unwrap();
        pump(&src, &mut wh);
        assert!(wh.view(oid("YP")).unwrap().is_empty());
    }

    #[test]
    fn a_view_over_an_unconnected_source_is_an_error() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        let missing = gsdb::GsdbError::NoSuchObject(oid("nobody"));
        let cold = wh.add_view("nobody", yp_def(), ViewOptions::default());
        assert_eq!(cold.unwrap_err(), missing);
        let warm = wh.add_view_warm("nobody", yp_def(), ViewOptions::default());
        assert_eq!(warm.unwrap_err(), missing);
        assert!(wh.view(oid("YP")).is_none());
    }

    #[test]
    fn label_screening_avoids_queries_for_irrelevant_updates() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view(
            "persons",
            yp_def(),
            ViewOptions {
                label_screening: true,
                ..ViewOptions::default()
            },
        )
        .unwrap();
        wh.meter("persons").unwrap().reset();

        // Name changes cannot affect an age view.
        src.apply(Update::modify("N1", "Johnny")).unwrap();
        src.apply(Update::modify("N2", "Sal")).unwrap();
        pump(&src, &mut wh);
        let stats = wh.view_stats(oid("YP")).unwrap();
        assert_eq!(stats.screened_out, 2);
        assert_eq!(wh.meter("persons").unwrap().queries(), 0);
    }

    #[test]
    fn screened_reports_still_refresh_member_content() {
        // Screening proves membership cannot change — not that a
        // member's *value* cannot (§3.2). An off-path edge into a
        // member set must still refresh the delegate copy, and from
        // the report alone (no source queries).
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view(
            "persons",
            yp_def(),
            ViewOptions {
                label_screening: true,
                ..ViewOptions::default()
            },
        )
        .unwrap();
        wh.meter("persons").unwrap().reset();

        src.with_store(|s| s.create(gsdb::Object::atom("H1", "hobby", "go")))
            .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src.apply(Update::insert("P1", "H1")).unwrap();
        pump(&src, &mut wh);
        let stats = wh.view_stats(oid("YP")).unwrap();
        assert_eq!(stats.screened_out, 1, "hobby edge screened for an age view");
        let mv = wh.view(oid("YP")).unwrap();
        let delegate = mv.delegate_of(oid("P1")).unwrap();
        assert!(
            mv.delegate(delegate)
                .unwrap()
                .children()
                .contains(&oid("H1")),
            "member copy refreshed from the screened report"
        );
        assert_eq!(wh.meter("persons").unwrap().queries(), 0);
    }

    #[test]
    fn richer_reports_need_fewer_queries() {
        // The E4 claim in miniature: the same update costs strictly
        // fewer queries as the report level rises.
        let mut queries = Vec::new();
        for level in [
            ReportLevel::OidsOnly,
            ReportLevel::WithValues,
            ReportLevel::WithPaths,
        ] {
            let src = person_source(level);
            let mut wh = Warehouse::new();
            wh.connect(&src);
            wh.add_view("persons", yp_def(), ViewOptions::default())
                .unwrap();
            wh.meter("persons").unwrap().reset();
            src.apply(Update::modify("A1", 50i64)).unwrap();
            pump(&src, &mut wh);
            queries.push(wh.meter("persons").unwrap().queries());
        }
        assert!(
            queries[0] > queries[1] || queries[1] > queries[2],
            "queries must decrease with report level: {queries:?}"
        );
        assert!(queries[0] >= queries[1] && queries[1] >= queries[2]);
    }

    #[test]
    fn cached_view_maintains_locally() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view(
            "persons",
            yp_def(),
            ViewOptions {
                use_aux_cache: true,
                label_screening: true,
                ..ViewOptions::default()
            },
        )
        .unwrap();
        wh.meter("persons").unwrap().reset();
        // Example 10's claim: modify-driven maintenance is fully local.
        src.apply(Update::modify("A1", 80i64)).unwrap(); // P1 leaves
        src.apply(Update::modify("A1", 40i64)).unwrap(); // P1 returns
        src.apply(Update::delete("ROOT", "P2")).unwrap();
        pump(&src, &mut wh);
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
        assert_eq!(
            wh.meter("persons").unwrap().queries(),
            0,
            "maintenance fully local with the §5.2 cache"
        );
    }

    #[test]
    fn path_knowledge_short_circuits_impossible_views() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        let mut knowledge = PathKnowledge::new();
        knowledge.assert_never_child("student", "salary");
        // A view over an impossible path: every report is discarded.
        wh.add_view(
            "persons",
            SimpleViewDef::new("SS", "ROOT", "professor.student")
                .with_cond("salary", Pred::new(CmpOp::Gt, 0i64)),
            ViewOptions {
                knowledge,
                label_screening: true,
                ..ViewOptions::default()
            },
        )
        .unwrap();
        wh.meter("persons").unwrap().reset();
        src.apply(Update::modify("S1", gsdb::Atom::tagged("dollar", 1i64)))
            .unwrap();
        pump(&src, &mut wh);
        let stats = wh.view_stats(oid("SS")).unwrap();
        assert_eq!(stats.screened_out, 1);
        assert_eq!(wh.meter("persons").unwrap().queries(), 0);
    }

    #[test]
    fn multiple_views_over_one_source() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        wh.add_view(
            "persons",
            SimpleViewDef::new("VJ", "ROOT", "professor")
                .with_cond("name", Pred::new(CmpOp::Eq, "John")),
            ViewOptions::default(),
        )
        .unwrap();
        src.apply(Update::modify("N2", "John")).unwrap();
        pump(&src, &mut wh);
        assert_eq!(
            wh.view(oid("VJ")).unwrap().members_base(),
            vec![oid("P1"), oid("P2")]
        );
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
    }

    #[test]
    fn batch_flush_converges_at_every_reporting_level() {
        // §5's three report levels must all land on the same view
        // after one batched flush — richer reports only save queries.
        let updates = || {
            vec![
                Update::modify("A1", 50i64), // P1 leaves…
                Update::modify("A1", 20i64), // …and returns (cancels)
                Update::delete("P1", "A1"),
                Update::insert("P1", "A1"), // cancels
                Update::delete("ROOT", "P2"),
                Update::modify("N2", "Sal"), // name noise
            ]
        };
        let mut memberships = Vec::new();
        let mut values = Vec::new();
        let mut query_counts = Vec::new();
        for level in [
            ReportLevel::OidsOnly,
            ReportLevel::WithValues,
            ReportLevel::WithPaths,
        ] {
            let src = person_source(level);
            let mut wh = Warehouse::new();
            wh.connect(&src);
            wh.add_view("persons", yp_def(), ViewOptions::default())
                .unwrap();
            let mut integrator = crate::integrator::Integrator::new();
            integrator.register(src.monitor());
            for u in updates() {
                src.apply(u).unwrap();
            }
            // One poll buffers every report; they flush as one batch.
            let reports = integrator.poll();
            wh.meter("persons").unwrap().reset();
            assert_eq!(reports.len(), 6);
            wh.handle_batch(&reports).unwrap();
            memberships.push(wh.view(oid("YP")).unwrap().members_base());
            query_counts.push(wh.meter("persons").unwrap().queries());

            // And it matches a direct recompute of the source, in
            // membership and in delegate values.
            assert_consistent(&src, &wh, &yp_def());
            values.push(contents(&wh, "YP"));
        }
        assert!(memberships.windows(2).all(|w| w[0] == w[1]));
        assert!(values.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(*memberships.last().unwrap(), vec![oid("P1")]);
    }

    #[test]
    fn batch_flush_matches_report_at_a_time() {
        // The same report stream, flushed in one batch vs pumped one
        // report at a time, produces identical views and stats that
        // agree on net membership changes.
        let updates = vec![
            Update::modify("A1", 80i64),
            Update::delete("ROOT", "P1"),
            Update::insert("ROOT", "P1"),
            Update::modify("A1", 30i64),
            Update::modify("N2", "Jo"),
        ];

        let run = |batched: bool| {
            let src = person_source(ReportLevel::WithValues);
            let mut wh = Warehouse::new();
            wh.connect(&src);
            wh.add_view("persons", yp_def(), ViewOptions::default())
                .unwrap();
            for u in &updates {
                src.apply(u.clone()).unwrap();
            }
            let reports = src.monitor().poll();
            if batched {
                wh.handle_batch(&reports).unwrap();
            } else {
                for r in &reports {
                    wh.handle_report(r).unwrap();
                }
            }
            assert_consistent(&src, &wh, &yp_def());
            (
                contents(&wh, "YP"),
                wh.view_stats(oid("YP")).unwrap().reports,
            )
        };
        let (batched, batched_reports) = run(true);
        let (sequential, seq_reports) = run(false);
        assert_eq!(batched, sequential, "members and delegate values");
        let members: Vec<Oid> = batched.iter().map(|m| m.0).collect();
        assert_eq!(members, vec![oid("P1")]);
        assert_eq!(batched_reports, seq_reports);
    }

    // ------------------------------------------------------------------
    // A batch asks the source each question once
    // ------------------------------------------------------------------

    fn old_def() -> SimpleViewDef {
        SimpleViewDef::new("OP", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Gt, 60i64))
    }

    /// A view pinning the region `yp_def` and `old_def` are over.
    fn cached_def() -> SimpleViewDef {
        SimpleViewDef::new("YC", "ROOT", "professor").with_cond("age", Pred::new(CmpOp::Le, 45i64))
    }

    /// A view over a region `yp_def` and `old_def` do not share.
    fn named_def() -> SimpleViewDef {
        SimpleViewDef::new("NC", "ROOT", "professor").with_cond("name", Pred::new(CmpOp::Eq, "Sal"))
    }

    /// One L2 report stream over two uncached views and a cached one
    /// over another region (so the two query back), flushed as one
    /// batch or pumped a report at a time: the queries sent, the
    /// reports, and each view's contents.
    fn l2_stream(batched: bool) -> (Vec<SourceQuery>, Vec<UpdateReport>, Vec<Contents>) {
        let src = person_source(ReportLevel::WithValues);
        let (mut wh, probe) = probed(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        wh.add_view("persons", old_def(), ViewOptions::default())
            .unwrap();
        wh.add_view("persons", named_def(), cached()).unwrap();
        for u in [
            Update::create(Object::atom("A2", "age", 40i64)),
            Update::insert("P2", "A2"), // P2 joins the young
            Update::create(Object::atom("A5", "age", 70i64)),
            Update::create(Object::set("P5", "professor", &[oid("A5")])),
            Update::insert("ROOT", "P5"), // P5 joins the old; the cache adopts it
            Update::modify("A1", 50i64),  // P1 leaves the young
            Update::modify("N2", "Sal"),  // P2 joins the named
            Update::delete("ROOT", "P4"),
        ] {
            src.apply(u).unwrap();
        }
        let reports = src.monitor().poll();
        probe.log.lock().unwrap().clear();
        if batched {
            wh.handle_batch(&reports).unwrap();
        } else {
            for r in &reports {
                wh.handle_report(r).unwrap();
            }
        }
        let defs = [yp_def(), old_def(), named_def()];
        for def in &defs {
            assert_consistent(&src, &wh, def);
        }
        assert!(wh.stale_views().is_empty());
        let log = probe.log.lock().unwrap().clone();
        let views = defs.iter().map(|d| contents(&wh, d.view.name())).collect();
        (log, reports, views)
    }

    #[test]
    fn l2_batch_never_asks_what_its_reports_said() {
        let registry = gsview_obs::registry();
        let report_answers = registry.counter("warehouse.batch.report_answers");
        let memo_hits = registry.counter("warehouse.batch.memo_hits");
        let (answered_before, hits_before) = (report_answers.get(), memo_hits.get());

        let (batched, reports, batched_views) = l2_stream(true);
        let (sequential, _, sequential_views) = l2_stream(false);
        assert_eq!(batched_views, sequential_views);
        assert_eq!(
            batched_views[0].iter().map(|m| m.0).collect::<Vec<_>>(),
            vec![oid("P2")]
        );
        assert_eq!(
            batched_views[1].iter().map(|m| m.0).collect::<Vec<_>>(),
            vec![oid("P5")]
        );
        assert_eq!(
            batched_views[2].iter().map(|m| m.0).collect::<Vec<_>>(),
            vec![oid("P2")]
        );

        let refs: Vec<&UpdateReport> = reports.iter().collect();
        let answers = BatchAnswers::new(&refs);
        for q in &batched {
            if let SourceQuery::LabelOf(o) | SourceQuery::Fetch(o) = q {
                assert!(
                    answers.info_of(*o).is_none(),
                    "{q:?} asks what a report said"
                );
            }
        }
        assert!(
            batched.len() <= sequential.len(),
            "{} queries batched, {} a report at a time",
            batched.len(),
            sequential.len()
        );
        // Two uncached views locate A1's modify: one PathFromRoot, and
        // in general no question put to the source twice.
        let a1 = SourceQuery::PathFromRoot {
            root: oid("ROOT"),
            n: oid("A1"),
        };
        assert_eq!(batched.iter().filter(|q| **q == a1).count(), 1);
        assert_eq!(sequential.iter().filter(|q| **q == a1).count(), 2);
        for (i, q) in batched.iter().enumerate() {
            assert!(!batched[..i].contains(q), "{q:?} asked twice");
        }
        // At least: the registry is process-wide.
        assert!(report_answers.get() > answered_before);
        assert!(memo_hits.get() > hits_before);
    }

    // ------------------------------------------------------------------
    // Views over one region share the kept copy
    // ------------------------------------------------------------------

    /// Updates of the region along `professor.age` whose upkeep the
    /// reports answer in full: P2 gains an age, P1 ages, a new
    /// professor P5 is hung first and given an age after, a name
    /// changes, a secretary goes, P1 loses its age and P2 is detached
    /// (its delete case reads the subtree the region still holds).
    fn region_updates() -> Vec<Update> {
        vec![
            Update::create(Object::atom("A2", "age", 40i64)),
            Update::insert("P2", "A2"),
            Update::modify("A1", 50i64),
            Update::create(Object::set("P5", "professor", &[])),
            Update::insert("ROOT", "P5"),
            Update::create(Object::atom("A5", "age", 70i64)),
            Update::insert("P5", "A5"),
            Update::modify("N2", "Sal"),
            Update::delete("ROOT", "P4"),
            Update::delete("P1", "A1"),
            Update::delete("ROOT", "P2"),
        ]
    }

    #[test]
    fn readers_of_a_kept_region_ask_the_source_nothing() {
        for yc_first in [true, false] {
            for batched in [true, false] {
                let src = person_source(ReportLevel::WithValues);
                let (mut wh, probe) = probed(&src);
                if yc_first {
                    wh.add_view("persons", cached_def(), cached()).unwrap();
                }
                wh.add_view("persons", yp_def(), ViewOptions::default())
                    .unwrap();
                wh.add_view("persons", old_def(), ViewOptions::default())
                    .unwrap();
                if !yc_first {
                    wh.add_view("persons", cached_def(), cached()).unwrap();
                }
                probe.log.lock().unwrap().clear();
                // Pumped a report at a time, each report is built right
                // after its update (P5 is reported without A5).
                for u in region_updates() {
                    src.apply(u).unwrap();
                    if !batched {
                        pump(&src, &mut wh);
                    }
                }
                wh.handle_batch(&src.monitor().poll()).unwrap();
                let asked = probe.log.lock().unwrap().clone();
                assert_eq!(asked, vec![], "YC first: {yc_first}, batched: {batched}");
                assert!(wh.stale_views().is_empty());
                for def in [cached_def(), yp_def(), old_def()] {
                    assert_consistent(&src, &wh, &def);
                }
                assert_eq!(wh.view(oid("OP")).unwrap().members_base(), vec![oid("P5")]);
                assert!(wh.view(oid("YP")).unwrap().is_empty());
                assert_eq!(wh.cache_queries(oid("YC")), Some(0));
                assert_eq!(
                    wh.cache_queries(oid("YP")),
                    None,
                    "YP reads the region, pins nothing"
                );
            }
        }
    }

    #[test]
    fn a_lost_upkeep_query_drops_the_region_and_stales_only_its_pinners() {
        let registry = gsview_obs::registry();
        let dropped = registry.counter("warehouse.region.dropped.lost_query");
        let dropped_before = dropped.get();
        let src = person_source(ReportLevel::WithValues);
        let read = cached_def().full_path().len() + 1;
        // The first query after the three views' one shared set-up
        // read is the upkeep's question about A5, and it is lost.
        let (mut wh, port) = nth_port(&src, read + 1, || Some(QueryFault::Unavailable));
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        wh.add_view("persons", cached_def(), cached()).unwrap();
        wh.add_view("persons", old_def(), ViewOptions::default())
            .unwrap();
        // P5 and its age exist unreported, so hanging P5 under ROOT
        // leaves the upkeep to ask what A5 is.
        src.with_store(|s| {
            s.create(Object::atom("A5", "age", 70i64))?;
            s.create(Object::set("P5", "professor", &[oid("A5")]))
        })
        .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src.apply(Update::insert("ROOT", "P5")).unwrap();
        wh.handle_batch(&src.monitor().poll()).unwrap();

        assert_eq!(wh.dead_letters().len(), 1);
        assert!(
            kept(&wh, "persons", &cached_def()).is_none(),
            "the lossy region is dropped"
        );
        assert!(dropped.get() > dropped_before);
        assert_eq!(
            wh.stale_views(),
            vec![oid("YC")],
            "only the pinning view goes stale"
        );
        assert_eq!(
            wh.view_state(oid("YC")),
            Some(ViewState::Stale(StaleCause::QueryFailure))
        );
        for def in [yp_def(), old_def()] {
            assert_consistent(&src, &wh, &def);
        }
        assert_eq!(wh.view(oid("OP")).unwrap().members_base(), vec![oid("P5")]);

        let healed = wh.resync_stale().unwrap();
        assert!(healed.iter().all(|(_, o)| o.healed));
        let region = kept(&wh, "persons", &cached_def()).expect("the heal re-installs the region");
        assert!(region.covers(oid("A5")));
        assert_eq!(wh.view_state(oid("YC")), Some(ViewState::Consistent));

        let asked = port.asked.load(std::sync::atomic::Ordering::SeqCst);
        src.apply(Update::modify("A5", 30i64)).unwrap(); // P5 turns young
        wh.handle_batch(&src.monitor().poll()).unwrap();
        assert_eq!(
            port.asked.load(std::sync::atomic::Ordering::SeqCst),
            asked,
            "nothing asked"
        );
        assert!(wh.stale_views().is_empty());
        for def in [yp_def(), cached_def(), old_def()] {
            assert_consistent(&src, &wh, &def);
        }
    }

    #[test]
    fn a_gap_drops_the_region_and_healing_restores_it() {
        let registry = gsview_obs::registry();
        let dropped = registry.counter("warehouse.region.dropped.gap");
        let dropped_before = dropped.get();
        let src = person_source(ReportLevel::WithValues);
        let (mut wh, probe) = probed(&src);
        wh.add_view("persons", cached_def(), cached()).unwrap();
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        src.apply(Update::delete("ROOT", "P2")).unwrap();
        let reports = src.monitor().poll();
        wh.handle_batch(&reports[1..]).unwrap(); // seq 0 lost
        assert_eq!(wh.stale_views(), vec![oid("YC"), oid("YP")]);
        assert!(
            kept(&wh, "persons", &cached_def()).is_none(),
            "a gap drops the region"
        );
        assert!(dropped.get() > dropped_before);

        // Healing the reader first installs the region for the pinner.
        assert!(wh.resync_view(oid("YP")).unwrap().healed);
        let region = kept(&wh, "persons", &cached_def()).expect("healing restores the region");
        assert_eq!(region.store().atom(oid("A1")), Some(&gsdb::Atom::Int(80)));
        assert!(wh.resync_view(oid("YC")).unwrap().healed);

        probe.log.lock().unwrap().clear();
        src.apply(Update::modify("A1", 30i64)).unwrap(); // P1 returns
        wh.handle_batch(&src.monitor().poll()).unwrap();
        assert_eq!(probe.log.lock().unwrap().clone(), vec![]);
        for def in [cached_def(), yp_def()] {
            assert_consistent(&src, &wh, &def);
        }
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
    }

    #[test]
    fn a_late_set_up_over_a_kept_region_asks_nothing() {
        let src = person_source(ReportLevel::WithValues);
        let (mut wh, probe) = probed(&src);
        wh.add_view("persons", cached_def(), cached()).unwrap();
        let updates = region_updates();
        let (before, after) = updates.split_at(4);
        for u in before {
            src.apply(u.clone()).unwrap();
        }
        wh.handle_batch(&src.monitor().poll()).unwrap();

        // The tracker moved: no read is left, but the pinned copy has
        // seen the batch, so a pinning view and a reader set up now
        // clone it.
        probe.log.lock().unwrap().clear();
        wh.add_view("persons", old_def(), cached()).unwrap();
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        assert_eq!(
            probe.log.lock().unwrap().clone(),
            vec![],
            "the kept copy serves both"
        );
        assert_eq!(
            wh.connections["persons"].regions.len(),
            1,
            "one copy of the region"
        );
        let defs = [cached_def(), old_def(), yp_def()];
        for def in &defs {
            assert_consistent(&src, &wh, def);
        }
        for batch in after.chunks(4) {
            for u in batch {
                src.apply(u.clone()).unwrap();
            }
            wh.handle_batch(&src.monitor().poll()).unwrap();
            assert!(wh.stale_views().is_empty());
            for def in &defs {
                assert_consistent(&src, &wh, def);
            }
        }
        assert_eq!(wh.view(oid("OP")).unwrap().members_base(), vec![oid("P5")]);
    }

    #[test]
    fn a_set_up_after_a_heal_reads_afresh() {
        let src = person_source(ReportLevel::WithValues);
        let (mut wh, probe) = probed(&src);
        wh.add_view("persons", cached_def(), cached()).unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        src.apply(Update::delete("ROOT", "P2")).unwrap();
        let reports = src.monitor().poll();
        wh.handle_batch(&reports[1..]).unwrap(); // seq 0 lost
        assert!(
            kept(&wh, "persons", &cached_def()).is_none(),
            "a gap drops the region"
        );
        assert!(wh.resync_view(oid("YC")).unwrap().healed);
        assert!(
            kept(&wh, "persons", &cached_def()).is_some(),
            "the heal keeps its read"
        );

        // NC's path shares ROOT and `professor` with YC's, but a heal's
        // reads are no set-up reads: nothing of them is shared.
        probe.log.lock().unwrap().clear();
        wh.add_view("persons", named_def(), ViewOptions::default())
            .unwrap();
        let asked = probe.log.lock().unwrap().len();
        assert_eq!(asked, named_def().full_path().len() + 1);
        assert_consistent(&src, &wh, &named_def());
        assert_eq!(
            wh.connections["persons"].regions.len(),
            2,
            "YC's kept, NC's read"
        );
    }

    #[test]
    fn batch_info_is_last_mention_wins() {
        let src = person_source(ReportLevel::WithValues);
        src.apply(Update::create(Object::atom("X1", "age", 1i64)))
            .unwrap();
        src.apply(Update::modify("A1", 46i64)).unwrap();
        let mut reports = src.monitor().poll();
        src.apply(Update::Remove { oid: oid("X1") }).unwrap();
        src.apply(Update::modify("A1", 47i64)).unwrap();
        src.apply(Update::modify("A3", 21i64)).unwrap();
        reports.extend(src.monitor().poll());
        // A fault downgrades the last report to level 1.
        reports.last_mut().unwrap().info.clear();
        src.apply(Update::modify("A4", 41i64)).unwrap();
        reports.extend(src.monitor().poll());

        let refs: Vec<&UpdateReport> = reports.iter().collect();
        let answers = BatchAnswers::new(&refs);
        assert!(
            answers.info_of(oid("X1")).is_none(),
            "created, then removed"
        );
        assert!(
            answers.info_of(oid("A3")).is_none(),
            "last mention carried nothing"
        );
        let a1 = answers.info_of(oid("A1")).unwrap();
        assert_eq!(a1.value.as_atom(), Some(&gsdb::Atom::Int(47)));
        assert!(answers.info_of(oid("A4")).is_some());
        // Without the downgrade the earlier mention would have stood.
        assert!(BatchAnswers::new(&refs[..2]).info_of(oid("X1")).is_some());
    }

    #[test]
    fn l3_batch_does_not_trust_a_root_path_gone_stale() {
        // A1's modify is reported with path(ROOT, A1) = professor.age;
        // a later report of the same batch detaches P1 without
        // mentioning A1. Used, the stale path would bring P1 back.
        let src = person_source(ReportLevel::WithPaths);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        pump(&src, &mut wh);
        assert!(wh.view(oid("YP")).unwrap().is_empty());

        src.apply(Update::modify("A1", 30i64)).unwrap();
        let mut reports = src.monitor().poll();
        assert!(reports[0].path_of(oid("A1")).is_some());
        src.apply(Update::delete("ROOT", "P1")).unwrap();
        reports.extend(src.monitor().poll());
        wh.handle_batch(&reports).unwrap();
        assert!(wh.view(oid("YP")).unwrap().is_empty());
        assert_consistent(&src, &wh, &yp_def());
    }

    #[test]
    fn view_set_up_over_a_dead_port_comes_up_stale_and_resync_heals() {
        for use_aux_cache in [false, true] {
            let src = person_source(ReportLevel::WithValues);
            let (mut wh, probe) = probed(&src);
            probe.down.store(true, std::sync::atomic::Ordering::SeqCst);
            let options = ViewOptions {
                use_aux_cache,
                ..ViewOptions::default()
            };
            wh.add_view("persons", yp_def(), options).unwrap();
            assert_eq!(
                wh.view_state(oid("YP")),
                Some(ViewState::Stale(StaleCause::QueryFailure)),
                "built from missing answers (cache: {use_aux_cache})"
            );
            assert!(wh.view(oid("YP")).unwrap().is_empty());
            // Stale views skip maintenance until healed.
            src.apply(Update::modify("A1", 44i64)).unwrap();
            wh.handle_batch(&src.monitor().poll()).unwrap();
            assert!(wh.view(oid("YP")).unwrap().is_empty());

            probe.down.store(false, std::sync::atomic::Ordering::SeqCst);
            assert!(wh.resync_view(oid("YP")).unwrap().healed);
            assert_eq!(wh.view_state(oid("YP")), Some(ViewState::Consistent));
            assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
            assert_consistent(&src, &wh, &yp_def());
        }
    }

    #[test]
    fn cached_view_materializes_from_its_cache() {
        // The cache downloads the region (one Fetch of the root, one
        // Reach per level); materializing the view from it costs the
        // source nothing more.
        let src = person_source(ReportLevel::WithValues);
        let (mut wh, probe) = probed(&src);
        let cached = ViewOptions {
            use_aux_cache: true,
            ..ViewOptions::default()
        };
        wh.add_view("persons", yp_def(), cached).unwrap();
        assert_eq!(probe.log.lock().unwrap().len(), 3);
        assert_consistent(&src, &wh, &yp_def());
    }

    // ------------------------------------------------------------------
    // Set-up and heal read a region
    // ------------------------------------------------------------------

    /// `REL` with relations `r` and `s` of `n` tuples each, tuple `i`
    /// aged `10 + i`.
    fn rel_source(n: usize) -> Source {
        let src = Source::empty("rels", oid("REL"), ReportLevel::WithValues);
        src.with_store(|s| samples::relations_db(s, n, n).map(|_| ()))
            .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    fn over_30() -> SimpleViewDef {
        SimpleViewDef::new("O30", "REL", "r.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64))
    }

    fn cached() -> ViewOptions {
        ViewOptions {
            use_aux_cache: true,
            ..ViewOptions::default()
        }
    }

    /// The region `wh` keeps for `def`'s key on `source`.
    fn kept<'w>(wh: &'w Warehouse, source: &str, def: &SimpleViewDef) -> Option<&'w AuxCache> {
        wh.connections[source].kept(&(def.root, def.full_path()))
    }

    /// The objects of a region, in OID order.
    fn objects(region: &AuxCache) -> Vec<Object> {
        let store = region.store();
        store
            .oids_sorted()
            .into_iter()
            .filter_map(|o| store.get(o).cloned())
            .collect()
    }

    /// A port that answers like the wrapper except on its `nth` query,
    /// where `event` runs after the answer was computed and may turn it
    /// into a fault.
    struct Nth {
        inner: crate::source::Wrapper,
        asked: std::sync::atomic::AtomicUsize,
        nth: usize,
        event: Box<dyn Fn() -> Option<QueryFault> + Send + Sync>,
    }

    impl QueryPort for Nth {
        fn query(&self, q: &SourceQuery) -> std::result::Result<SourceReply, QueryFault> {
            let reply = self.inner.serve(q);
            let asked = self.asked.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            match (asked == self.nth).then(|| (self.event)()).flatten() {
                Some(fault) => Err(fault),
                None => Ok(reply),
            }
        }
    }

    /// A warehouse without retries over an [`Nth`] port.
    fn nth_port(
        src: &Source,
        nth: usize,
        event: impl Fn() -> Option<QueryFault> + Send + Sync + 'static,
    ) -> (Warehouse, Arc<Nth>) {
        let meter = Arc::new(CostMeter::new());
        let port = Arc::new(Nth {
            inner: src.wrapper(meter.clone()),
            asked: Default::default(),
            nth,
            event: Box::new(event),
        });
        let mut wh = Warehouse::new().with_retry_policy(RetryPolicy::none());
        wh.connect_port(src.name(), port.clone(), meter, src.next_seq());
        (wh, port)
    }

    #[test]
    fn set_up_costs_one_region_read_whatever_the_size() {
        let def = over_30();
        let read = def.full_path().len() + 1;
        for n in [200, 2_000] {
            for options in [ViewOptions::default(), cached()] {
                let src = rel_source(n);
                let (mut wh, probe) = probed(&src);
                wh.add_view("rels", def.clone(), options.clone()).unwrap();
                assert_eq!(
                    probe.log.lock().unwrap().len(),
                    read,
                    "{n} tuples, cache: {}",
                    options.use_aux_cache
                );
                assert_eq!(wh.meter("rels").unwrap().queries(), read as u64);
                // Tuples 21.. are older than 30.
                assert_eq!(wh.view(def.view).unwrap().len(), n - 21);
                assert_consistent(&src, &wh, &def);
                assert_eq!(kept(&wh, "rels", &def).is_some(), options.use_aux_cache);
            }
        }
    }

    #[test]
    fn resync_costs_at_most_three_region_reads_and_installs_the_region_as_cache() {
        let def = over_30();
        let read = def.full_path().len() + 1;
        for options in [ViewOptions::default(), cached()] {
            let src = rel_source(200);
            let (mut wh, probe) = probed(&src);
            wh.add_view("rels", def.clone(), options.clone()).unwrap();
            src.apply(Update::modify("A25", 5i64)).unwrap(); // T25 leaves
            src.apply(Update::delete("R", "T30")).unwrap();
            src.apply(Update::modify("A3", 99i64)).unwrap(); // T3 joins
            let reports = src.monitor().poll();
            wh.handle_report(&reports[1]).unwrap(); // seq 0 lost
            wh.handle_report(&reports[2]).unwrap(); // skipped: stale
            assert!(wh.view_state(def.view).unwrap().is_stale());

            probe.log.lock().unwrap().clear();
            let outcome = wh.resync_view(def.view).unwrap();
            assert!(outcome.healed && !outcome.escalated);
            assert_eq!((outcome.inserted, outcome.deleted), (1, 2));
            let asked = probe.log.lock().unwrap().len();
            assert!(asked <= 3 * read, "{asked} queries to heal");
            assert_eq!(asked, 2 * read, "a quiet source: repair read, verify read");
            assert_consistent(&src, &wh, &def);

            let channel = wh.channel("rels").unwrap().clone();
            let fresh = region_over(&def, &channel).unwrap();
            match kept(&wh, "rels", &def) {
                Some(cache) => assert_eq!(objects(cache), objects(&fresh)),
                None => assert!(!options.use_aux_cache),
            }
        }
    }

    #[test]
    fn heal_escalates_when_the_source_moves_between_its_two_reads() {
        // The view missed "P1 turned 80"; while it heals, P1 turns 30
        // again — right after the repair read. A heal that checked the
        // view against the region it repaired from would settle on an
        // empty view.
        let src = person_source(ReportLevel::WithValues);
        let read = yp_def().full_path().len() + 1;
        let mover = src.clone();
        let (mut wh, port) = nth_port(&src, 2 * read, move || {
            mover.apply(Update::modify("A1", 30i64)).unwrap();
            None
        });
        wh.add_view("persons", yp_def(), cached()).unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        let _lost = src.monitor().poll();
        wh.reconcile_checkpoints([src.monitor().checkpoint()]);
        assert!(wh.view_state(oid("YP")).unwrap().is_stale());

        let outcome = wh.resync_view(oid("YP")).unwrap();
        assert!(outcome.escalated, "the two reads disagree");
        assert!(outcome.healed, "the third read agrees with the second");
        assert_eq!(outcome.deleted, 1, "the repair read had P1 at 80");
        assert_eq!(
            port.asked.load(std::sync::atomic::Ordering::SeqCst),
            4 * read
        );
        assert_eq!(wh.view_state(oid("YP")), Some(ViewState::Consistent));
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
        assert_consistent(&src, &wh, &yp_def());
        // And the kept region is a read of the final state, not the
        // first.
        let cache = kept(&wh, "persons", &yp_def()).unwrap();
        assert_eq!(cache.store().atom(oid("A1")), Some(&gsdb::Atom::Int(30)));
    }

    #[test]
    fn a_read_that_loses_a_query_heals_nothing() {
        // The second query of the verifying read is dead-lettered.
        let src = person_source(ReportLevel::WithValues);
        let read = yp_def().full_path().len() + 1;
        let (mut wh, _port) = nth_port(&src, 2 * read + 2, || Some(QueryFault::Unavailable));
        wh.add_view("persons", yp_def(), cached()).unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        let _lost = src.monitor().poll();
        wh.reconcile_checkpoints([src.monitor().checkpoint()]);
        let gap = wh.view_state(oid("YP")).unwrap();
        assert!(gap.is_stale());
        assert!(
            kept(&wh, "persons", &yp_def()).is_none(),
            "a gap drops the region"
        );

        let outcome = wh.resync_view(oid("YP")).unwrap();
        assert!(!outcome.healed && !outcome.escalated);
        assert_eq!(wh.dead_letters().len(), 1);
        assert_eq!(
            wh.view_state(oid("YP")),
            Some(gap),
            "still stale, for the first reason"
        );
        assert_eq!(wh.view_stats(oid("YP")).unwrap().resyncs, 0);
        assert!(
            kept(&wh, "persons", &yp_def()).is_none(),
            "a failed heal installs nothing"
        );

        // The next heal reads in full and goes through.
        assert!(wh.resync_view(oid("YP")).unwrap().healed);
        assert!(wh.view(oid("YP")).unwrap().is_empty());
        let cache = kept(&wh, "persons", &yp_def()).unwrap();
        assert_eq!(cache.store().atom(oid("A1")), Some(&gsdb::Atom::Int(80)));
    }

    #[test]
    fn batched_cancelling_churn_skips_the_source() {
        // A fully cancelling batch consolidates to nothing: with label
        // screening the flush costs zero source queries.
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view(
            "persons",
            yp_def(),
            ViewOptions {
                label_screening: true,
                ..ViewOptions::default()
            },
        )
        .unwrap();
        src.apply(Update::delete("P1", "A1")).unwrap();
        src.apply(Update::insert("P1", "A1")).unwrap();
        let reports = src.monitor().poll();
        wh.meter("persons").unwrap().reset();
        let outcomes = wh.handle_batch(&reports).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].1.consolidated_ops, 0);
        assert!(!outcomes[0].1.changed());
        assert_eq!(wh.meter("persons").unwrap().queries(), 0);
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
    }

    #[test]
    fn warehouse_view_matches_direct_recompute() {
        // End-to-end correctness across a mixed stream.
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        let updates = vec![
            Update::modify("A1", 50i64),
            Update::modify("A1", 20i64),
            Update::delete("P1", "A1"),
            Update::insert("P1", "A1"),
            Update::delete("ROOT", "P1"),
            Update::insert("ROOT", "P1"),
        ];
        for u in updates {
            src.apply(u).unwrap();
            pump(&src, &mut wh);
            let expected = src.with_store(|s| {
                gsview_core::recompute::recompute_members(
                    &yp_def(),
                    &mut gsview_core::LocalBase::new(s),
                )
            });
            assert_eq!(wh.view(oid("YP")).unwrap().members_base(), expected);
        }
    }

    // ------------------------------------------------------------------
    // Fault tolerance
    // ------------------------------------------------------------------

    #[test]
    fn dropped_report_is_detected_and_resync_heals() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap(); // P1 leaves
        src.apply(Update::delete("ROOT", "P2")).unwrap();
        let reports = src.monitor().poll();
        // Lose the first report: the view never hears that P1 left.
        wh.handle_report(&reports[1]).unwrap();

        assert_eq!(
            wh.stale_views(),
            vec![oid("YP")],
            "seq 1 arriving where 0 was expected must flag the view"
        );
        let stats = wh.view_stats(oid("YP")).unwrap();
        assert_eq!(stats.gaps_detected, 1);
        assert_eq!(stats.skipped_while_stale, 1);
        // Degraded mode: reads still served (possibly stale content).
        assert!(wh.view(oid("YP")).is_some());
        assert!(wh.view_state(oid("YP")).unwrap().is_stale());

        // Self-healing.
        let outcome = wh.resync_view(oid("YP")).unwrap();
        assert!(outcome.healed);
        assert_eq!(outcome.deleted, 1, "diff repair removed the member P1");
        assert!(!outcome.escalated);
        assert_eq!(wh.view_state(oid("YP")).unwrap(), ViewState::Consistent);
        assert!(wh.view(oid("YP")).unwrap().is_empty());
        assert_eq!(wh.view_stats(oid("YP")).unwrap().resyncs, 1);
    }

    #[test]
    fn lagged_delete_report_sweeps_a_member_whose_ancestor_detached() {
        // §4.3 precondition guard: by the time the first report is
        // handled, the source has moved on. delete(P1, A1) costs P1
        // its only age witness, and the later delete(ROOT, P1)
        // detaches P1 itself. Against the current state P1 is
        // unreachable, so Algorithm 1 dismisses the first report as
        // irrelevant; the guard re-verifies the members instead, and
        // the second report then finds nothing left to do.
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        let def = yp_def();
        wh.add_view("persons", def.clone(), ViewOptions::default())
            .unwrap();
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
        src.apply(Update::delete("P1", "A1")).unwrap();
        src.apply(Update::delete("ROOT", "P1")).unwrap();
        pump(&src, &mut wh);

        let stats = wh.view_stats(oid("YP")).unwrap();
        assert_eq!(stats.lag_sweeps, 1);
        assert_eq!(stats.deleted, 1);
        assert_eq!(wh.view_state(oid("YP")).unwrap(), ViewState::Consistent);
        let want = src.with_store(|s| recompute(&def, &mut LocalBase::new(s)).unwrap());
        assert_eq!(
            wh.view(oid("YP")).unwrap().members_base(),
            want.members_base()
        );
        assert!(want.is_empty());
        assert_consistent(&src, &wh, &def);
    }

    #[test]
    fn duplicate_reports_are_idempotent() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        src.apply(Update::delete("ROOT", "P1")).unwrap();
        let reports = src.monitor().poll();
        wh.handle_report(&reports[0]).unwrap();
        assert!(wh.view(oid("YP")).unwrap().is_empty());
        // The network delivers the same report twice more.
        wh.handle_report(&reports[0]).unwrap();
        wh.handle_report(&reports[0]).unwrap();
        let stats = wh.view_stats(oid("YP")).unwrap();
        assert_eq!(stats.duplicates_dropped, 2);
        assert!(wh.stale_views().is_empty(), "duplicates are not gaps");
        assert!(wh.view(oid("YP")).unwrap().is_empty());
    }

    #[test]
    fn reconcile_detects_tail_loss() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        // The last report of the stream is dropped: no successor will
        // ever reveal the gap.
        src.apply(Update::modify("A1", 80i64)).unwrap();
        let _lost = src.monitor().poll();
        assert!(wh.stale_views().is_empty(), "stream watching sees nothing");

        // The control-plane checkpoint does.
        let gaps = wh.reconcile_checkpoints([src.monitor().checkpoint()]);
        assert_eq!(gaps, 1);
        assert_eq!(wh.stale_views(), vec![oid("YP")]);
        let outcome = wh.resync_view(oid("YP")).unwrap();
        assert!(outcome.healed);
        assert!(wh.view(oid("YP")).unwrap().is_empty());
    }

    #[test]
    fn resync_rebuilds_the_aux_cache() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view(
            "persons",
            yp_def(),
            ViewOptions {
                use_aux_cache: true,
                ..ViewOptions::default()
            },
        )
        .unwrap();
        // Lose a report that changes the cached region.
        src.apply(Update::modify("A1", 80i64)).unwrap();
        src.apply(Update::modify("N1", "Jon")).unwrap();
        let reports = src.monitor().poll();
        wh.handle_report(&reports[1]).unwrap(); // seq 0 lost
        assert!(wh.view_state(oid("YP")).unwrap().is_stale());

        assert!(wh.resync_view(oid("YP")).unwrap().healed);
        // The rebuilt cache must answer from post-gap state: further
        // maintenance stays fully local and correct.
        wh.meter("persons").unwrap().reset();
        src.apply(Update::modify("A1", 40i64)).unwrap(); // P1 returns
        pump(&src, &mut wh);
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
        assert_eq!(wh.meter("persons").unwrap().queries(), 0);
    }

    // ------------------------------------------------------------------
    // Durable warm restart & chunk-diff resync
    // ------------------------------------------------------------------

    #[test]
    fn warm_view_materializes_with_zero_source_queries() {
        use gsview_durable::{DurableStore, MediaSet};
        let src = person_source(ReportLevel::WithValues);
        let d = Arc::new(DurableStore::open(MediaSet::memory()).unwrap());
        src.attach_durable(Arc::clone(&d)).unwrap();
        src.apply(Update::modify("A1", 40i64)).unwrap();
        let _ = src.monitor().poll(); // consumed before the "restart"

        // Warehouse restart: reconnect, then materialize warm — from
        // the durable lineage, not the source.
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.attach_durable(d);
        wh.meter("persons").unwrap().reset();
        let v = wh
            .add_view_warm(
                "persons",
                yp_def(),
                ViewOptions {
                    use_aux_cache: true,
                    ..ViewOptions::default()
                },
            )
            .unwrap()
            .expect("a persisted lineage exists");
        assert_eq!(v, oid("YP"));
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
        assert_eq!(
            wh.meter("persons").unwrap().queries(),
            0,
            "warm materialization (aux cache included) must not query the source"
        );

        // Maintenance continues seamlessly: the tracker was baselined
        // at the manifest watermark, so the next report is in order.
        src.apply(Update::modify("A1", 80i64)).unwrap();
        pump(&src, &mut wh);
        assert!(wh.view(oid("YP")).unwrap().is_empty());
        assert!(wh.stale_views().is_empty());
    }

    #[test]
    fn durable_resync_heals_without_source_queries_and_reuses_chunks() {
        use gsview_durable::{DurableStore, MediaSet};
        let src = person_source(ReportLevel::WithValues);
        // Pad the store past one page so unchanged pages exist to reuse.
        src.with_store(|s| {
            for i in 0..600 {
                s.create(Object::atom(format!("f{i}").as_str(), "x", i as i64))
                    .unwrap();
            }
            s.drain_log();
        });
        let d = Arc::new(DurableStore::open(MediaSet::memory()).unwrap());
        src.attach_durable(Arc::clone(&d)).unwrap();
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.attach_durable(d);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();

        src.apply(Update::modify("A1", 80i64)).unwrap(); // P1 leaves
        src.apply(Update::delete("ROOT", "P2")).unwrap();
        let reports = src.monitor().poll();
        wh.handle_report(&reports[1]).unwrap(); // seq 0 lost → stale
        assert!(wh.view_state(oid("YP")).unwrap().is_stale());

        wh.meter("persons").unwrap().reset();
        let first = wh.resync_view_durable(oid("YP")).unwrap();
        assert!(first.healed);
        assert!(first.chunks_fetched > 0, "first reconstruction fetches");
        assert_eq!(
            wh.meter("persons").unwrap().queries(),
            0,
            "durable resync never queries the source"
        );
        assert_eq!(wh.view_state(oid("YP")).unwrap(), ViewState::Consistent);
        assert!(wh.view(oid("YP")).unwrap().is_empty());

        // Go stale again after one more source commit: the second
        // reconstruction fetches only the chunks whose hashes changed.
        src.apply(Update::modify("A1", 30i64)).unwrap(); // P1 returns
        src.apply(Update::modify("N1", "Jon")).unwrap();
        let reports = src.monitor().poll();
        wh.handle_report(&reports[1]).unwrap(); // gap again
        assert!(wh.view_state(oid("YP")).unwrap().is_stale());
        let second = wh.resync_view_durable(oid("YP")).unwrap();
        assert!(second.healed);
        assert!(second.chunks_reused > 0, "unchanged pages come from cache");
        assert!(
            second.chunks_fetched <= first.chunks_fetched,
            "only changed pages travel: {} vs {}",
            second.chunks_fetched,
            first.chunks_fetched
        );
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), vec![oid("P1")]);
    }

    #[test]
    fn warm_paths_fall_back_cold_without_durable_state() {
        use gsview_durable::{DurableStore, MediaSet};
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        // No attachment at all → cold.
        assert!(wh
            .add_view_warm("persons", yp_def(), ViewOptions::default())
            .unwrap()
            .is_none());
        // Attached, but nothing persisted under this lineage → cold.
        wh.attach_durable(Arc::new(DurableStore::open(MediaSet::memory()).unwrap()));
        assert!(wh
            .add_view_warm("persons", yp_def(), ViewOptions::default())
            .unwrap()
            .is_none());
        // A stale view still heals: durable resync degrades to the
        // wire path instead of failing.
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        src.apply(Update::delete("ROOT", "P2")).unwrap();
        let reports = src.monitor().poll();
        wh.handle_report(&reports[1]).unwrap(); // seq 0 lost
        assert!(wh.view_state(oid("YP")).unwrap().is_stale());
        let outcome = wh.resync_view_durable(oid("YP")).unwrap();
        assert!(outcome.healed);
        assert_eq!(outcome.chunks_fetched, 0, "nothing durable was read");
        assert_eq!(wh.view_state(oid("YP")).unwrap(), ViewState::Consistent);
    }

    #[test]
    fn batch_with_gap_goes_stale_then_heals() {
        let src = person_source(ReportLevel::WithValues);
        let mut wh = Warehouse::new();
        wh.connect(&src);
        wh.add_view("persons", yp_def(), ViewOptions::default())
            .unwrap();
        src.apply(Update::modify("A1", 80i64)).unwrap();
        src.apply(Update::delete("ROOT", "P2")).unwrap();
        src.apply(Update::modify("A1", 30i64)).unwrap();
        let mut reports = src.monitor().poll();
        let _ = reports.remove(1); // lose the middle report
        let outcomes = wh.handle_batch(&reports).unwrap();
        assert!(outcomes.is_empty(), "gapped batch must not maintain");
        assert_eq!(wh.stale_views(), vec![oid("YP")]);
        assert!(wh.resync_view(oid("YP")).unwrap().healed);
        let expected = src.with_store(|s| {
            gsview_core::recompute::recompute_members(
                &yp_def(),
                &mut gsview_core::LocalBase::new(s),
            )
        });
        assert_eq!(wh.view(oid("YP")).unwrap().members_base(), expected);
    }
}
