//! The adapter: **every call into the system under test is in this
//! file**, through the highest-level public entry points (`Source`,
//! `Warehouse`, `ColocatedViews`, `Server`/`FrameClient`,
//! `DurableStore`, view and query text where the API takes text). A
//! change that alters one of those APIs is preceded by a benchmark
//! change that edits this one file and nothing else.
//!
//! Each call is wrapped in [`Recorder::time`], named `layer.operation`
//! with the crate as the layer, so the same code path yields the
//! end-to-end sample and — in a traced run — the span.
//!
//! The four workloads share three stacks behind one [`Stack`] trait;
//! a round of the closed loop is `commit` → `deliver_maintain` →
//! `read`, all on the driver thread.

use crate::inputs::{Inputs, Node, Op, Read, Val};
use crate::kit::{Digest, Recorder};
use crate::workloads::{Agg, Kind, ViewSpec, Workload};
use gsdb::{DeltaBatch, Object, Oid, Path, Store, StoreConfig, Update, Value};
use gsview_core::{
    check_networked_equivalence, consistency, AggFn, AggregateView, AggregateViewDef,
    CircuitMaintainer, CircuitSource, CompoundMaintainer, CompoundViewDef, GeneralMaintainer,
    GeneralViewDef, LocalBase, MaterializedView, ParallelMaintainer, SimpleViewDef,
};
use gsview_durable::{DurableStore, MediaSet};
use gsview_query::{evaluate, parse_query, parse_viewdef, MaintBackend};
use gsview_serve::{
    FrameClient, Reply, ReplyBody, Request, RequestBody, ServeConfig, Server, ServerHandle,
    SourceService,
};
use gsview_warehouse::protocol::{CostMeter, QueryFault, SourceQuery, SourceReply, WireSize};
use gsview_warehouse::source::{QueryPort, ReportSource};
use gsview_warehouse::{
    answer, ColocatedViews, ReportLevel, RetryPolicy, Source, ViewOptions, Warehouse,
};
use std::hint::black_box;
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;

const SOURCE: &str = "gsbench";
const ROOT: &str = "ROOT";
/// Maintenance workers of a colocated portfolio: while the driver is
/// blocked in `flush` they are the only runnable threads. They share
/// the run's one CPU (see `kit::Pinner`: with a CPU each they were no
/// faster), so the parallel driver's partitioning, locks and hand-offs
/// are on the clock and its speed-up is not.
const FLUSH_THREADS: usize = 2;

// ----------------------------------------------------------------------
// Compiling plain inputs into the system's types (before the clock)
// ----------------------------------------------------------------------

/// One compiled read.
enum CRead {
    /// A §5 source query: over the wire, or answered in-process.
    Source(SourceQuery),
    /// Probe the `view`-th materialized view for `base`.
    Member { view: usize, base: Oid },
    /// Query text, parsed and evaluated at read time.
    Query(String),
}

fn atom_of(v: &Val) -> gsdb::Atom {
    match v {
        Val::Int(i) => gsdb::Atom::from(*i),
        Val::Str(s) => gsdb::Atom::from(s.as_str()),
    }
}

fn object_of(n: &Node) -> Object {
    match &n.atom {
        Some(v) => Object::atom(n.name.as_str(), n.label, atom_of(v)),
        None => {
            let kids: Vec<Oid> = n.children.iter().map(|c| Oid::new(c)).collect();
            Object::set(n.name.as_str(), n.label, &kids)
        }
    }
}

fn update_of(op: &Op) -> Update {
    match op {
        Op::Create(node) => Update::create(object_of(node)),
        Op::Remove { name } => Update::Remove {
            oid: Oid::new(name),
        },
        Op::Modify { name, val } => Update::modify(name.as_str(), atom_of(val)),
        Op::Insert { parent, child } => Update::insert(parent.as_str(), child.as_str()),
        Op::Delete { parent, child } => Update::delete(parent.as_str(), child.as_str()),
    }
}

fn read_of(r: &Read) -> CRead {
    let oid = |s: &String| Oid::new(s);
    match r {
        Read::Fetch(n) => CRead::Source(SourceQuery::Fetch(oid(n))),
        Read::LabelOf(n) => CRead::Source(SourceQuery::LabelOf(oid(n))),
        Read::PathFromRoot(n) => CRead::Source(SourceQuery::PathFromRoot {
            root: Oid::new(ROOT),
            n: oid(n),
        }),
        Read::Ancestor { n, path } => CRead::Source(SourceQuery::Ancestor {
            n: oid(n),
            p: Path::parse(path),
        }),
        Read::Reach { n, path } => CRead::Source(SourceQuery::Reach {
            n: oid(n),
            p: Path::parse(path),
        }),
        Read::Member { view, base } => CRead::Member {
            view: *view,
            base: oid(base),
        },
        Read::Query(text) => CRead::Query(text.clone()),
    }
}

/// The update and read scripts in the system's own types.
pub struct Script {
    batches: Vec<Vec<Update>>,
    bursts: Vec<Vec<CRead>>,
}

/// Compile a run's plain inputs. Interning every OID name happens
/// here, once, before any set-up is timed.
pub fn compile(inputs: &Inputs) -> Arc<Script> {
    Arc::new(Script {
        batches: inputs
            .batches
            .iter()
            .map(|b| b.iter().map(update_of).collect())
            .collect(),
        bursts: inputs
            .bursts
            .iter()
            .map(|b| b.iter().map(read_of).collect())
            .collect(),
    })
}

fn build_source(nodes: &[Node], shards: usize) -> Result<Source, String> {
    let source = Source::empty_sharded(SOURCE, Oid::new(ROOT), ReportLevel::WithValues, shards);
    source
        .with_store(|s| {
            s.reserve(nodes.len());
            s.create_all(nodes.iter().map(object_of))
        })
        .map_err(|e| format!("building the store: {e}"))?;
    // Monitoring starts now: setup is not an update the views see.
    source.with_store(|s| {
        s.drain_log();
    });
    Ok(source)
}

// ----------------------------------------------------------------------
// View definitions
// ----------------------------------------------------------------------

fn simple_def(text: &str) -> Result<SimpleViewDef, String> {
    let vd = parse_viewdef(text).map_err(|e| format!("{text}: {e}"))?;
    SimpleViewDef::from_viewdef(&vd).ok_or_else(|| format!("{text}: not a simple view"))
}

fn general_def(text: &str) -> Result<GeneralViewDef, String> {
    let vd = parse_viewdef(text).map_err(|e| format!("{text}: {e}"))?;
    GeneralViewDef::from_viewdef(&vd).ok_or_else(|| format!("{text}: not a general view"))
}

fn simple_defs(views: &[ViewSpec]) -> Result<Vec<(SimpleViewDef, ViewOptions)>, String> {
    views
        .iter()
        .filter_map(|v| match v {
            ViewSpec::Simple {
                def,
                screening,
                aux_cache,
            } => Some(simple_def(def).map(|d| {
                (
                    d,
                    ViewOptions {
                        use_aux_cache: *aux_cache,
                        label_screening: *screening,
                        ..ViewOptions::default()
                    },
                )
            })),
            _ => None,
        })
        .collect()
}

fn fold_members(d: &mut Digest, view: Oid, members: &[Oid]) {
    d.str(view.name());
    d.u64(members.len() as u64);
    for m in members {
        d.str(m.name());
    }
}

fn diff(view: Oid, got: &[Oid], want: &[Oid]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!(
        "view {view} diverged from recomputation: {} members, recompute has {}",
        got.len(),
        want.len()
    ))
}

/// Check simple views against `consistency::check` (membership and
/// delegate contents) at `store`, folding memberships into `d`.
fn check_simple<'a>(
    views: impl Iterator<Item = (&'a SimpleViewDef, &'a MaterializedView)>,
    store: &Store,
    d: &mut Digest,
) -> Result<(), String> {
    for (def, mv) in views {
        let problems = consistency::check(def, &mut LocalBase::new(store), mv);
        if let Some(p) = problems.first() {
            return Err(format!(
                "view {} is inconsistent with the source's final epoch: {p} ({} problems)",
                def.view,
                problems.len()
            ));
        }
        fold_members(d, def.view, &mv.members_base());
    }
    Ok(())
}

/// An order-sensitive digest of a whole store: every object's name,
/// label and value, in name order.
pub fn store_digest(store: &Store) -> u64 {
    let mut objs: Vec<&Object> = store.iter().collect();
    objs.sort_by_key(|o| o.oid.name());
    let mut d = Digest::default();
    for o in objs {
        d.str(o.oid.name());
        d.str(o.label.as_str());
        match &o.value {
            Value::Atom(a) => d.str(&a.to_string()),
            Value::Set(s) => {
                let mut kids: Vec<&str> = s.iter().map(|c| c.name()).collect();
                kids.sort_unstable();
                d.u64(kids.len() as u64);
                for k in kids {
                    d.str(k);
                }
            }
        }
    }
    d.finish()
}

/// The store a sequential replay of the whole script leaves behind —
/// the reference the commit pipeline's final epoch must equal.
fn reference_digest(inputs: &Inputs) -> Result<u64, String> {
    let mut store = Store::with_config(StoreConfig::default());
    store.reserve(inputs.nodes.len());
    store
        .create_all(inputs.nodes.iter().map(object_of))
        .map_err(|e| format!("reference store: {e}"))?;
    for op in inputs.batches.iter().flatten() {
        store
            .apply(update_of(op))
            .map_err(|e| format!("reference replay: {e}"))?;
    }
    Ok(store_digest(&store))
}

// ----------------------------------------------------------------------
// The stack interface
// ----------------------------------------------------------------------

/// What the final oracle gate found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Digest of every view's final membership.
    pub views: u64,
    /// Digest of the source's final store.
    pub store: u64,
    /// Digest of every read result of the run.
    pub reads: u64,
}

/// One assembled system, driven round by round.
pub trait Stack {
    /// One `Source::apply_batch`. Returns its nanoseconds and the
    /// basic updates applied; an error means the batch failed.
    fn commit(&mut self, rec: &Recorder, round: usize) -> Result<(u64, u32), String>;
    /// Reports reach the view side and every view is maintained.
    fn deliver_maintain(&mut self, rec: &Recorder) -> Result<(), String>;
    /// One read burst. Returns its nanoseconds, reads attempted and
    /// reads failed.
    fn read(&mut self, rec: &Recorder, round: usize) -> (u64, u32, u32);
    /// Traced runs only, outside the round's blocking chain: extra
    /// spans around single layers the chain cannot separate.
    fn probe(&mut self, rec: &Recorder, round: usize);
    /// Tear the view side down and bring it back. The system's work
    /// only: the oracle check that follows ([`check_restarted`]) is
    /// the benchmark's and is not timed.
    fn restart(&mut self, rec: &Recorder) -> Result<(), String>;
    /// The source whose epochs the views follow.
    fn source(&self) -> &Source;
    /// Every view ≡ recomputation at `store`; folds the memberships
    /// into `d`.
    fn check_views(&self, store: &Store, d: &mut Digest) -> Result<(), String>;
    /// Checks only this stack can make, after the last round, given
    /// the digest of the source's final store.
    fn check_final(&self, _store: u64) -> Result<(), String> {
        Ok(())
    }
    /// Digest of every read result so far.
    fn reads_digest(&self) -> u64;
    /// Exact counts (`#` metrics), by per-layer metric name.
    fn counts(&self) -> Vec<(&'static str, f64)>;
    /// Stop every thread and remove every file the stack made.
    fn shutdown(self: Box<Self>);
}

/// Build the stack of `workload` over `inputs`. `traced` detaches the
/// durable publish hook so commit and persist are separate spans;
/// `scratch` is a directory the stack may create and must remove.
pub fn setup(
    workload: &Workload,
    inputs: &Inputs,
    script: &Arc<Script>,
    rec: &Recorder,
    traced: bool,
    scratch: &FsPath,
) -> Result<Box<dyn Stack>, String> {
    let script = Arc::clone(script);
    Ok(match workload.kind {
        Kind::Wire => Box::new(WireStack::new(workload, inputs, script, rec)?),
        Kind::Alg1 | Kind::Circuit => Box::new(PortfolioStack::new(workload, inputs, script, rec)?),
        Kind::Durable => Box::new(DurableStack::new(
            workload, inputs, script, rec, traced, scratch,
        )?),
    })
}

/// Digest of the source's current store (taken before a restart).
pub fn live_store_digest(stack: &dyn Stack) -> u64 {
    store_digest(&stack.source().snapshot())
}

/// The oracle gate after a restart: every view ≡ recomputation, and
/// the source's store is the one that was live before.
pub fn check_restarted(stack: &dyn Stack, store_before: u64) -> Result<(), String> {
    let snap = stack.source().snapshot();
    if store_digest(&snap) != store_before {
        return Err("the store after the restart differs from the live epoch before it".into());
    }
    stack.check_views(&snap, &mut Digest::default())
}

/// The final oracle gate: views ≡ recomputation, the source's final
/// store ≡ a sequential replay of the script, and the stack's own
/// checks.
pub fn verify(stack: &dyn Stack, inputs: &Inputs) -> Result<Verdict, String> {
    let snap = stack.source().snapshot();
    let mut d = Digest::default();
    stack.check_views(&snap, &mut d)?;
    let store = store_digest(&snap);
    if store != reference_digest(inputs)? {
        return Err("the source's final epoch differs from a sequential replay".into());
    }
    stack.check_final(store)?;
    Ok(Verdict {
        views: d.finish(),
        store,
        reads: stack.reads_digest(),
    })
}

fn apply_batch(source: &Source, rec: &Recorder, batch: &[Update]) -> Result<(u64, u32), String> {
    // The clone is the caller handing its batch over: outside the clock.
    let batch = batch.to_vec();
    let (res, ns) = rec.time("gsdb.commit", || source.apply_batch(batch));
    let applied = res.map_err(|e| format!("apply_batch: {e}"))?;
    Ok((ns, applied.len() as u32))
}

fn fold_reply(d: &mut Digest, reply: &SourceReply) {
    d.u64(reply.wire_size() as u64);
    match reply {
        SourceReply::Object(o) => d.u64(o.is_some() as u64),
        SourceReply::PathResult(p) => d.u64(p.as_ref().map_or(u64::MAX, |p| p.len() as u64)),
        SourceReply::AncestorResult(a) => d.str(a.map_or("", |o| o.name())),
        SourceReply::Ancestors(v) => d.u64(v.len() as u64),
        SourceReply::Objects(v) => d.u64(v.len() as u64),
        SourceReply::LabelResult(l) => d.str(l.map_or("", |l| l.as_str())),
    }
}

// ----------------------------------------------------------------------
// wire_maintain: Source ── Server ══ TCP ══ FrameClient ── Warehouse
// ----------------------------------------------------------------------

/// The benchmark's own `QueryPort` decorator: times each maintenance
/// query's round trip from the warehouse's side of the socket.
struct TimedPort {
    inner: Arc<FrameClient>,
    /// The warehouse-side ledger: a port charges its own meter (as the
    /// in-process `Wrapper` does), the channel only adds retries.
    meter: Arc<CostMeter>,
    rec: Recorder,
}

impl QueryPort for TimedPort {
    fn query(&self, q: &SourceQuery) -> Result<SourceReply, QueryFault> {
        let reply = self.rec.time("serve.rtt", || self.inner.query(q)).0?;
        self.meter.record_query(q, &reply);
        Ok(reply)
    }
}

struct WireStack {
    source: Source,
    server: Option<ServerHandle>,
    /// Maintenance connection: report polls and the warehouse's queries.
    maint: Arc<FrameClient>,
    /// Reader connection: the read bursts.
    reader: FrameClient,
    meter: Arc<CostMeter>,
    wh: Warehouse,
    defs: Vec<(SimpleViewDef, ViewOptions)>,
    script: Arc<Script>,
    updates: u64,
    report_bytes: u64,
    reads: Digest,
}

impl WireStack {
    fn new(
        workload: &Workload,
        inputs: &Inputs,
        script: Arc<Script>,
        rec: &Recorder,
    ) -> Result<WireStack, String> {
        let source = build_source(&inputs.nodes, workload.shards)?;
        let svc = Arc::new(SourceService::new(
            source.clone(),
            Arc::new(CostMeter::new()),
        ));
        let server = Server::spawn(svc, ServeConfig::default())
            .map_err(|e| format!("spawning the server: {e}"))?;
        let dial =
            || FrameClient::connect(server.addr()).map_err(|e| format!("dialing the server: {e}"));
        let maint = Arc::new(dial()?);
        let reader = dial()?;
        let defs = simple_defs(workload.views)?;
        let meter = Arc::new(CostMeter::new());
        let wh = Self::warehouse(&source, &maint, &meter, &defs, rec)?;
        Ok(WireStack {
            source,
            server: Some(server),
            maint,
            reader,
            meter,
            wh,
            defs,
            script,
            updates: 0,
            report_bytes: 0,
            reads: Digest::default(),
        })
    }

    /// Connect a fresh warehouse over the wire and materialize every
    /// view by querying the source.
    fn warehouse(
        source: &Source,
        maint: &Arc<FrameClient>,
        meter: &Arc<CostMeter>,
        defs: &[(SimpleViewDef, ViewOptions)],
        rec: &Recorder,
    ) -> Result<Warehouse, String> {
        let mut wh = Warehouse::new().with_retry_policy(RetryPolicy::network());
        let port = Arc::new(TimedPort {
            inner: Arc::clone(maint),
            meter: Arc::clone(meter),
            rec: rec.clone(),
        });
        wh.connect_port(SOURCE, port, Arc::clone(meter), source.next_seq());
        for (def, opts) in defs {
            wh.add_view(SOURCE, def.clone(), opts.clone())
                .map_err(|e| format!("materializing {}: {e}", def.view))?;
        }
        Ok(wh)
    }
}

impl Stack for WireStack {
    fn commit(&mut self, rec: &Recorder, round: usize) -> Result<(u64, u32), String> {
        let (ns, n) = apply_batch(&self.source, rec, &self.script.batches[round])?;
        self.updates += u64::from(n);
        Ok((ns, n))
    }

    fn deliver_maintain(&mut self, rec: &Recorder) -> Result<(), String> {
        let (reports, _) = rec.time("serve.poll_reports", || self.maint.poll_reports());
        self.report_bytes += reports.iter().map(|r| r.wire_size() as u64).sum::<u64>();
        let (res, _) = rec.time("warehouse.handle_batch", || self.wh.handle_batch(&reports));
        res.map(|_| ()).map_err(|e| format!("handle_batch: {e}"))
    }

    fn read(&mut self, rec: &Recorder, round: usize) -> (u64, u32, u32) {
        let burst = &self.script.bursts[round];
        let reader = &self.reader;
        let digest = &mut self.reads;
        let (failed, ns) = rec.time("serve.read_burst", || {
            let mut failed = 0;
            for r in burst {
                let CRead::Source(q) = r else { continue };
                match reader.query(q) {
                    Ok(reply) => fold_reply(digest, &reply),
                    Err(_) => failed += 1,
                }
            }
            failed
        });
        (ns, burst.len() as u32, failed)
    }

    fn probe(&mut self, rec: &Recorder, round: usize) {
        // What the far side of the socket spends answering, and what
        // the codec spends, for the same queries the burst sent.
        let snap = self.source.snapshot();
        for (id, r) in self.script.bursts[round].iter().enumerate() {
            let CRead::Source(q) = r else { continue };
            let (reply, _) = rec.time("query.answer", || answer(&snap, q));
            rec.time("serve.codec", || {
                let req = Request::new(id as u64, RequestBody::Query(q.clone())).encode();
                black_box(Request::decode(&req).is_ok());
                let rep = Reply {
                    id: id as u64,
                    body: ReplyBody::Query(reply),
                }
                .encode();
                black_box(Reply::decode(&rep).is_ok());
            });
        }
    }

    fn restart(&mut self, rec: &Recorder) -> Result<(), String> {
        // Cold: the warehouse holds no durable state, so every view is
        // re-materialized by querying the source over the wire.
        self.wh = rec
            .time("warehouse.rematerialize", || {
                Self::warehouse(&self.source, &self.maint, &self.meter, &self.defs, rec)
            })
            .0?;
        Ok(())
    }

    fn source(&self) -> &Source {
        &self.source
    }

    fn check_views(&self, store: &Store, d: &mut Digest) -> Result<(), String> {
        if !self.wh.stale_views().is_empty() {
            return Err(format!("stale views: {:?}", self.wh.stale_views()));
        }
        let views = self.defs.iter().map(|(def, _)| {
            let mv = self.wh.view(def.view).expect("every def was added");
            (def, mv)
        });
        check_simple(views, store, d)
    }

    fn reads_digest(&self) -> u64 {
        self.reads.finish()
    }

    fn check_final(&self, _store: u64) -> Result<(), String> {
        // Wire answers ≡ colocated answers at the same (quiesced) epoch.
        let snap = self.source.snapshot();
        let queries: Vec<&SourceQuery> = self
            .script
            .bursts
            .iter()
            .rev()
            .take(8)
            .flatten()
            .filter_map(|r| match r {
                CRead::Source(q) => Some(q),
                _ => None,
            })
            .collect();
        let failures = check_networked_equivalence(
            &queries,
            |q| self.reader.query(q).ok(),
            |q| Some(answer(&snap, q)),
        );
        if let Some(f) = failures.first() {
            return Err(format!("{f} ({} divergences)", failures.len()));
        }
        if self.meter.retries() != 0 || !self.wh.dead_letters().is_empty() {
            return Err(format!(
                "clean loopback needed {} retries and dead-lettered {} queries",
                self.meter.retries(),
                self.wh.dead_letters().len()
            ));
        }
        Ok(())
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let per_update = |n: u64| n as f64 / self.updates.max(1) as f64;
        let stats: Vec<_> = self
            .defs
            .iter()
            .filter_map(|(d, _)| self.wh.view_stats(d.view))
            .collect();
        let reports: u64 = stats.iter().map(|s| s.reports).sum();
        let ratio = |n: u64| n as f64 / reports.max(1) as f64;
        vec![
            (
                "serve.wire_bytes_per_update",
                per_update(self.report_bytes + self.meter.bytes()),
            ),
            (
                "warehouse.source_queries_per_update",
                per_update(self.meter.queries()),
            ),
            (
                "warehouse.screened_ratio",
                ratio(stats.iter().map(|s| s.screened_out).sum()),
            ),
            (
                "warehouse.relevant_ratio",
                ratio(stats.iter().map(|s| s.relevant).sum()),
            ),
            ("warehouse.retries", self.meter.retries() as f64),
            (
                "warehouse.dead_letters",
                self.wh.dead_letters().len() as f64,
            ),
            (
                "core.changed_per_update",
                per_update(stats.iter().map(|s| s.inserted + s.deleted).sum()),
            ),
        ]
    }

    fn shutdown(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

// ----------------------------------------------------------------------
// alg1_portfolio / circuit_portfolio: views colocated with the source
// ----------------------------------------------------------------------

/// What a circuit-maintained view is checked against.
enum CircuitOracle {
    Union(CompoundViewDef),
    Aggregate(AggregateViewDef),
}

struct CircuitView {
    maintainer: CircuitMaintainer,
    mv: MaterializedView,
    oracle: CircuitOracle,
    /// `circuit.union_step` or `circuit.agg_step`.
    span: &'static str,
    rebuilds_after_setup: u64,
}

/// The view side of a portfolio: what `restart` tears down.
struct Portfolio {
    /// Constant-path views, maintained by the parallel fan-out.
    colocated: Option<ColocatedViews>,
    simple: Vec<SimpleViewDef>,
    /// Wildcard views on guarded refresh.
    wildcard: Vec<(GeneralMaintainer, MaterializedView)>,
    circuits: Vec<CircuitView>,
}

impl Portfolio {
    fn materialize(
        source: &Source,
        views: &[ViewSpec],
        rec: &Recorder,
    ) -> Result<Portfolio, String> {
        let simple: Vec<SimpleViewDef> = simple_defs(views)?.into_iter().map(|(d, _)| d).collect();
        let colocated = if simple.is_empty() {
            None
        } else {
            let (cv, _) = rec.time("core.recompute", || {
                ColocatedViews::new(source, simple.clone(), FLUSH_THREADS)
            });
            let cv = cv.map_err(|e| format!("materializing the portfolio: {e}"))?;
            for d in &simple {
                if cv.backend_of(d.view.name()) != Some(MaintBackend::Algorithm1) {
                    return Err(format!("{} is not on Algorithm 1", d.view));
                }
            }
            Some(cv)
        };
        let snap = source.snapshot();
        let mut wildcard = Vec::new();
        let mut circuits = Vec::new();
        for v in views {
            match v {
                ViewSpec::Simple { .. } => {}
                ViewSpec::Wildcard { def } => {
                    let gm = GeneralMaintainer::planned(general_def(def)?);
                    if gm.backend() != MaintBackend::Algorithm1 {
                        return Err(format!("the planner routed {def} off Algorithm 1"));
                    }
                    let (mv, _) = rec.time("core.recompute", || gm.recompute(&snap));
                    wildcard.push((gm, mv.map_err(|e| format!("{def}: {e}"))?));
                }
                ViewSpec::Union { name, branches } => {
                    let branches = branches
                        .iter()
                        .map(|b| simple_def(b))
                        .collect::<Result<Vec<_>, _>>()?;
                    let def = CompoundViewDef::new(*name, branches);
                    circuits.push(Self::circuit(
                        CircuitSource::Compound(def.clone()),
                        CircuitOracle::Union(def),
                        "circuit.union_step",
                        &snap,
                        rec,
                    )?);
                }
                ViewSpec::Aggregate { def, path, f } => {
                    let f = match f {
                        Agg::Avg => AggFn::Avg,
                        Agg::Count => AggFn::Count,
                        Agg::Max => AggFn::Max,
                    };
                    let def = AggregateViewDef::new(simple_def(def)?, *path, f);
                    circuits.push(Self::circuit(
                        CircuitSource::Aggregate(def.clone()),
                        CircuitOracle::Aggregate(def),
                        "circuit.agg_step",
                        &snap,
                        rec,
                    )?);
                }
            }
        }
        Ok(Portfolio {
            colocated,
            simple,
            wildcard,
            circuits,
        })
    }

    fn circuit(
        src: CircuitSource,
        oracle: CircuitOracle,
        span: &'static str,
        snap: &Store,
        rec: &Recorder,
    ) -> Result<CircuitView, String> {
        let (backend, why) = src.planned_backend();
        if backend != MaintBackend::Circuit {
            return Err(format!(
                "the planner routed {} off the circuit: {why}",
                src.view()
            ));
        }
        let maintainer = CircuitMaintainer::new(src);
        let mut mv = MaterializedView::new(maintainer.view());
        rec.time("circuit.init", || maintainer.initialize(&mut mv, snap))
            .0
            .map_err(|e| format!("initializing circuit {}: {e}", maintainer.view()))?;
        Ok(CircuitView {
            rebuilds_after_setup: maintainer.rebuilds(),
            maintainer,
            mv,
            oracle,
            span,
        })
    }

    /// Every materialized view, in definition-kind order.
    fn view(&self, i: usize) -> &MaterializedView {
        let n_simple = self.simple.len();
        let n = n_simple + self.wildcard.len() + self.circuits.len();
        let i = i % n;
        if i < n_simple {
            &self.colocated.as_ref().expect("simple views exist").views()[i]
        } else if i < n_simple + self.wildcard.len() {
            &self.wildcard[i - n_simple].1
        } else {
            &self.circuits[i - n_simple - self.wildcard.len()].mv
        }
    }

    fn check(&self, store: &Store, d: &mut Digest) -> Result<(), String> {
        if let Some(cv) = &self.colocated {
            check_simple(self.simple.iter().zip(cv.views()), store, d)?;
        }
        for (gm, mv) in &self.wildcard {
            let want = gm
                .recompute(store)
                .map_err(|e| format!("recomputing {}: {e}", gm.def().view))?;
            diff(gm.def().view, &mv.members_base(), &want.members_base())?;
            fold_members(d, gm.def().view, &mv.members_base());
        }
        for c in &self.circuits {
            let view = c.maintainer.view();
            let got = c.mv.members_base();
            match &c.oracle {
                CircuitOracle::Union(def) => {
                    let mut cm = CompoundMaintainer::new(def);
                    let mut want = MaterializedView::new(view);
                    cm.initialize(&mut want, &mut LocalBase::new(store))
                        .map_err(|e| format!("recomputing {view}: {e}"))?;
                    diff(view, &got, &want.members_base())?;
                }
                CircuitOracle::Aggregate(def) => {
                    let want = AggregateView::materialize(def.clone(), &mut LocalBase::new(store))
                        .map_err(|e| format!("recomputing {view}: {e}"))?;
                    let mut members = want.members();
                    members.sort_by_key(|o| o.name());
                    diff(view, &got, &members)?;
                    for &m in &members {
                        let (x, y) = (want.aggregate_of(m), c.maintainer.aggregate_of(m));
                        let same = match (x, y) {
                            (None, None) => true,
                            (Some(x), Some(y)) => {
                                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                            }
                            _ => false,
                        };
                        if !same {
                            return Err(format!("aggregate of {m} in {view}: {y:?}, want {x:?}"));
                        }
                    }
                }
            }
            if c.maintainer.rebuilds() != c.rebuilds_after_setup {
                return Err(format!(
                    "circuit {view} rebuilt {} times after setup",
                    c.maintainer.rebuilds() - c.rebuilds_after_setup
                ));
            }
            fold_members(d, view, &got);
        }
        Ok(())
    }
}

struct PortfolioStack {
    source: Source,
    views: &'static [ViewSpec],
    portfolio: Portfolio,
    /// A second, view-blind partitioner over the same definitions: the
    /// traced run's `core.partition` probe.
    partitioner: ParallelMaintainer,
    last_batch: DeltaBatch,
    script: Arc<Script>,
    updates: u64,
    changed: u64,
    reads: Digest,
}

impl PortfolioStack {
    fn new(
        workload: &Workload,
        inputs: &Inputs,
        script: Arc<Script>,
        rec: &Recorder,
    ) -> Result<PortfolioStack, String> {
        let source = build_source(&inputs.nodes, workload.shards)?;
        let portfolio = Portfolio::materialize(&source, workload.views, rec)?;
        Ok(PortfolioStack {
            partitioner: ParallelMaintainer::new(portfolio.simple.clone()),
            source,
            views: workload.views,
            portfolio,
            last_batch: DeltaBatch::new(),
            script,
            updates: 0,
            changed: 0,
            reads: Digest::default(),
        })
    }
}

impl Stack for PortfolioStack {
    fn commit(&mut self, rec: &Recorder, round: usize) -> Result<(u64, u32), String> {
        let (ns, n) = apply_batch(&self.source, rec, &self.script.batches[round])?;
        self.updates += u64::from(n);
        Ok((ns, n))
    }

    fn deliver_maintain(&mut self, rec: &Recorder) -> Result<(), String> {
        let source = &self.source;
        let p = &mut self.portfolio;
        let (reports, _) = rec.time("warehouse.poll", || source.monitor().poll());
        let mut changed = 0;
        if let Some(cv) = p.colocated.as_mut() {
            rec.time("warehouse.absorb", || {
                for r in &reports {
                    cv.absorb(r);
                }
            });
            let (out, _) = rec.time("core.flush", || cv.flush(source));
            let out = out.map_err(|e| format!("flush: {e}"))?;
            changed += out
                .iter()
                .map(|o| o.inserted.len() + o.deleted.len())
                .sum::<usize>();
        }
        if p.wildcard.is_empty() && p.circuits.is_empty() {
            self.changed += changed as u64;
            return Ok(());
        }
        // The maintainers outside `ColocatedViews` take the batch and
        // the published epoch directly — what `flush` does inside.
        let (batch, _) = rec.time("warehouse.absorb", || {
            DeltaBatch::from_ops(reports.into_iter().map(|r| r.update).collect())
        });
        let (snap, _) = rec.time("gsdb.snapshot", || source.snapshot());
        if !p.wildcard.is_empty() {
            // One span for the wildcard views together: their costs
            // differ by orders of magnitude, a median over them would
            // report the cheapest.
            let (res, _) = rec.time("core.alg1.wildcard", || {
                p.wildcard.iter_mut().try_fold(0, |n, (gm, mv)| {
                    let out = gm
                        .apply_batch(mv, &snap, &batch)
                        .map_err(|e| format!("maintaining {}: {e}", gm.def().view))?;
                    Ok::<_, String>(n + out.inserted.len() + out.deleted.len())
                })
            });
            changed += res?;
        }
        for c in &mut p.circuits {
            let (out, _) = rec.time(c.span, || {
                c.maintainer.apply_batch(&mut c.mv, &snap, &batch)
            });
            let out = out.map_err(|e| format!("stepping {}: {e}", c.maintainer.view()))?;
            changed += out.inserted.len() + out.deleted.len();
        }
        self.changed += changed as u64;
        if rec.recording() {
            self.last_batch = batch;
        }
        Ok(())
    }

    fn read(&mut self, rec: &Recorder, round: usize) -> (u64, u32, u32) {
        let burst = &self.script.bursts[round];
        let (source, portfolio, digest) = (&self.source, &self.portfolio, &mut self.reads);
        let (failed, ns) = rec.time("core.read_burst", || {
            let mut failed = 0;
            let snap = source.snapshot();
            for r in burst {
                match r {
                    CRead::Member { view, base } => {
                        let mv = portfolio.view(*view);
                        let hit = mv.delegate_of(*base).and_then(|d| mv.delegate(d));
                        digest.u64(hit.map_or(0, |o| 1 + o.children().len() as u64));
                    }
                    CRead::Query(text) => {
                        let (q, _) = rec.time("query.parse_plan", || parse_query(text));
                        let ans = q
                            .ok()
                            .and_then(|q| rec.time("query.eval", || evaluate(&snap, &q)).0.ok());
                        match ans {
                            Some(a) => digest.u64(a.oids.len() as u64),
                            None => failed += 1,
                        }
                    }
                    CRead::Source(q) => fold_reply(digest, &answer(&snap, q)),
                }
            }
            failed
        });
        (ns, burst.len() as u32, failed)
    }

    fn probe(&mut self, rec: &Recorder, _round: usize) {
        let snap = self.source.snapshot();
        if !self.partitioner.is_empty() {
            let delta = self.last_batch.consolidate();
            rec.time("core.partition", || {
                black_box(self.partitioner.partition(&snap, &delta));
            });
        }
    }

    fn restart(&mut self, rec: &Recorder) -> Result<(), String> {
        // Cold: nothing durable is attached, so every view is
        // recomputed (and every circuit rebuilt) from the live epoch.
        self.portfolio = Portfolio::materialize(&self.source, self.views, rec)?;
        Ok(())
    }

    fn source(&self) -> &Source {
        &self.source
    }

    fn check_views(&self, store: &Store, d: &mut Digest) -> Result<(), String> {
        self.portfolio.check(store, d)
    }

    fn reads_digest(&self) -> u64 {
        self.reads.finish()
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let steps: u64 = self
            .portfolio
            .circuits
            .iter()
            .map(|c| c.maintainer.steps())
            .sum();
        let rebuilds: u64 = self
            .portfolio
            .circuits
            .iter()
            .map(|c| c.maintainer.rebuilds() - c.rebuilds_after_setup)
            .sum();
        vec![
            (
                "core.changed_per_update",
                self.changed as f64 / self.updates.max(1) as f64,
            ),
            ("circuit.steps", steps as f64),
            ("circuit.rebuilds", rebuilds as f64),
        ]
    }

    fn shutdown(self: Box<Self>) {}
}

// ----------------------------------------------------------------------
// commit_durable: sharded source, every epoch persisted to disk
// ----------------------------------------------------------------------

struct DurableStack {
    source: Source,
    durable: Arc<DurableStore>,
    dir: PathBuf,
    simple: Vec<SimpleViewDef>,
    views: ColocatedViews,
    /// Traced runs: the publish hook is detached and every commit is
    /// followed by an explicit `persist_now`, so the two are separate
    /// spans.
    explicit_persist: bool,
    script: Arc<Script>,
    updates: u64,
    commits: u64,
    changed: u64,
    cross_shard_at_setup: u64,
    persisted_at_setup: [u64; 3],
    reads: Digest,
}

fn counter(name: &str) -> u64 {
    gsview_obs::registry().counter(name).get()
}

fn persist_counters() -> [u64; 3] {
    [
        counter("durable.persist.bytes_appended"),
        counter("durable.persist.chunks_appended"),
        counter("durable.persist.chunks_reused"),
    ]
}

impl DurableStack {
    fn new(
        workload: &Workload,
        inputs: &Inputs,
        script: Arc<Script>,
        rec: &Recorder,
        traced: bool,
        scratch: &FsPath,
    ) -> Result<DurableStack, String> {
        let dir = scratch.to_path_buf();
        // A stale directory would be *recovered from*, not overwritten.
        let _ = std::fs::remove_dir_all(&dir);
        let source = build_source(&inputs.nodes, workload.shards)?;
        let durable = Self::open(&dir)?;
        // Flush policy, as shipped: the publish hook persists every
        // published epoch, each persist `sync_data`s segment, log and
        // root cell.
        rec.time("durable.persist", || {
            source.attach_durable(Arc::clone(&durable))
        })
        .0
        .map_err(|e| format!("attaching the durable store: {e}"))?;
        if traced {
            source.pipeline().clear_publish_hook();
        }
        let simple: Vec<SimpleViewDef> = simple_defs(workload.views)?
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        let views = rec
            .time("core.recompute", || {
                ColocatedViews::new(&source, simple.clone(), FLUSH_THREADS)
            })
            .0
            .map_err(|e| format!("materializing the view: {e}"))?;
        Ok(DurableStack {
            source,
            durable,
            dir,
            simple,
            views,
            explicit_persist: traced,
            script,
            updates: 0,
            commits: 0,
            changed: 0,
            cross_shard_at_setup: counter("store.commit.cross_shard"),
            persisted_at_setup: persist_counters(),
            reads: Digest::default(),
        })
    }

    fn open(dir: &FsPath) -> Result<Arc<DurableStore>, String> {
        let media = MediaSet::on_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        DurableStore::open(media)
            .map(Arc::new)
            .map_err(|e| format!("opening the durable store: {e}"))
    }
}

impl Stack for DurableStack {
    fn commit(&mut self, rec: &Recorder, round: usize) -> Result<(u64, u32), String> {
        let (mut ns, n) = apply_batch(&self.source, rec, &self.script.batches[round])?;
        if self.explicit_persist {
            let (res, persist_ns) =
                rec.time("durable.persist", || self.source.persist_now(&self.durable));
            res.map_err(|e| format!("persist_now: {e}"))?;
            ns += persist_ns;
        }
        self.updates += u64::from(n);
        self.commits += 1;
        Ok((ns, n))
    }

    fn deliver_maintain(&mut self, rec: &Recorder) -> Result<(), String> {
        let (reports, _) = rec.time("warehouse.poll", || self.source.monitor().poll());
        rec.time("warehouse.absorb", || {
            for r in &reports {
                self.views.absorb(r);
            }
        });
        let (out, _) = rec.time("core.flush", || self.views.flush(&self.source));
        let out = out.map_err(|e| format!("flush: {e}"))?;
        self.changed += out
            .iter()
            .map(|o| o.inserted.len() + o.deleted.len())
            .sum::<usize>() as u64;
        Ok(())
    }

    fn read(&mut self, rec: &Recorder, round: usize) -> (u64, u32, u32) {
        let burst = &self.script.bursts[round];
        let (source, digest) = (&self.source, &mut self.reads);
        let (_, ns) = rec.time("query.read_burst", || {
            let snap = source.snapshot();
            for r in burst {
                if let CRead::Source(q) = r {
                    fold_reply(digest, &answer(&snap, q));
                }
            }
        });
        (ns, burst.len() as u32, 0)
    }

    fn probe(&mut self, rec: &Recorder, round: usize) {
        let (snap, _) = rec.time("gsdb.snapshot", || self.source.snapshot());
        for r in &self.script.bursts[round] {
            if let CRead::Source(q) = r {
                rec.time("query.answer", || {
                    black_box(answer(&snap, q) == SourceReply::Object(None));
                });
            }
        }
    }

    fn restart(&mut self, rec: &Recorder) -> Result<(), String> {
        // Warm: only the bytes on disk survive. Reopen them, recover
        // the newest epoch, re-attach persistence, rebuild the view.
        let durable = Self::open(&self.dir)?;
        let (recovered, _) = rec.time("durable.recover", || {
            Source::recover(SOURCE, Oid::new(ROOT), ReportLevel::WithValues, &durable)
        });
        let source = recovered
            .map_err(|e| format!("recover: {e}"))?
            .ok_or("nothing recoverable on disk")?;
        if self.explicit_persist {
            source.pipeline().clear_publish_hook();
        }
        let views = rec
            .time("core.recompute", || {
                ColocatedViews::new(&source, self.simple.clone(), FLUSH_THREADS)
            })
            .0
            .map_err(|e| format!("rebuilding the view: {e}"))?;
        self.source = source;
        self.durable = durable;
        self.views = views;
        Ok(())
    }

    fn source(&self) -> &Source {
        &self.source
    }

    fn check_views(&self, store: &Store, d: &mut Digest) -> Result<(), String> {
        check_simple(self.simple.iter().zip(self.views.views()), store, d)
    }

    fn reads_digest(&self) -> u64 {
        self.reads.finish()
    }

    fn check_final(&self, store: u64) -> Result<(), String> {
        if let Some(e) = self.source.durability_error() {
            return Err(format!("durability degraded: {e}"));
        }
        // Recovered store ≡ live epoch: reopen the bytes on disk.
        let recovered = Self::open(&self.dir)?
            .recover(SOURCE)
            .map_err(|e| format!("recover: {e}"))?
            .ok_or("nothing recoverable on disk")?;
        if recovered.manifest.epoch != self.source.epoch()
            || store_digest(&recovered.store) != store
        {
            return Err(format!(
                "disk holds epoch {}, the live epoch is {}",
                recovered.manifest.epoch,
                self.source.epoch()
            ));
        }
        Ok(())
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let now = persist_counters();
        let [bytes, appended, reused] = [0, 1, 2].map(|i| now[i] - self.persisted_at_setup[i]);
        let commits = self.commits.max(1) as f64;
        vec![
            (
                "gsdb.cross_shard_ratio",
                (counter("store.commit.cross_shard") - self.cross_shard_at_setup) as f64 / commits,
            ),
            (
                "durable.bytes_per_update",
                bytes as f64 / self.updates.max(1) as f64,
            ),
            (
                "durable.chunks_appended_per_commit",
                appended as f64 / commits,
            ),
            (
                "durable.chunks_reused_ratio",
                reused as f64 / (appended + reused).max(1) as f64,
            ),
            (
                "core.changed_per_update",
                self.changed as f64 / self.updates.max(1) as f64,
            ),
        ]
    }

    fn shutdown(self: Box<Self>) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}
