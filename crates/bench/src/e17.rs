//! E17 — restart cost: warm recovery from the durable epoch log vs
//! cold re-materialization against the source.
//!
//! The durability PR persists every published source epoch as
//! content-addressed chunks behind an append-only, CRC-framed epoch
//! log. This experiment measures what that buys at restart time, as a
//! function of store size:
//!
//! * **`restart/cold`** — the pre-durability discipline: a fresh
//!   warehouse materializes the view by querying the source
//!   ([`Warehouse::add_view`]): one read of the view's region, so the
//!   query count is `1 + |sel_path.cond_path|` at every size and what
//!   scales with the store is the bytes those replies carry.
//! * **`restart/warm`** — [`Source::recover`] rebuilds the source
//!   from its newest durable epoch, then
//!   [`Warehouse::add_view_warm`] re-materializes the view from
//!   recovered chunks: **zero queries to the source**, by
//!   construction (asserted, not just measured).
//! * **`resync/diff`** — after the warm restart, a lost report makes
//!   the view stale and [`Warehouse::resync_view_durable`] heals it
//!   by fetching only the chunks whose content hash changed since the
//!   last reconstruction — the chunk-reuse column shows the pages
//!   that came for free.
//! * **`restart/history`** — a fixed store persisted for 200 and for
//!   2 000 churn epochs, then a restart from the bytes
//!   alone: [`DurableStore::open`] scans the log, [`Source::recover`]
//!   rebuilds the source. Compaction keeps the log — and so the scan —
//!   within eight times the live bytes whatever the history's length.
//!
//! Query counts, recovered object counts and chunk-transfer counts
//! are exactly deterministic (fixed workload, content-addressed
//! pages); the smoke test (`tests/e17_smoke.rs`) pins them against a
//! checked-in baseline, and pins the history leg's scanned bytes
//! against its live bytes. Wall times are machine-dependent and NOT
//! gated.

use crate::table::{fnum, Table};
use gsdb::{Object, Oid, Update};
use gsview_core::SimpleViewDef;
use gsview_durable::{ChunkPort, DurableStore, MediaSet};
use gsview_query::{CmpOp, Pred};
use gsview_warehouse::{ReportLevel, Source, ViewOptions, Warehouse};
use std::sync::Arc;
use std::time::Instant;

/// Store sizes (items; each item is a set + an age atom) in quick mode.
pub const QUICK_SIZES: &[usize] = &[200, 800, 2000];
/// Store sizes in full mode.
pub const FULL_SIZES: &[usize] = &[500, 2000, 8000];
/// Slab shards at the source.
const SHARDS: usize = 2;
/// Churn commits (= published epochs) between setup and the crash.
const CHURN: usize = 20;
/// Churn epochs before the history leg's restarts.
const HISTORY_EPOCHS: [usize; 2] = [200, 2_000];
/// Items in the history leg's store: ≈ 1.1 MB live, past the 1 MiB
/// below which the durable log does not bother compacting.
const HISTORY_ITEMS: usize = 24_000;

/// One measured restart route at one store size.
#[derive(Clone, Debug)]
pub struct RestartRow {
    /// `restart/cold`, `restart/warm`, `resync/diff` or
    /// `restart/history`.
    pub route: String,
    /// Items in the source database.
    pub items: usize,
    /// Churn epochs persisted before the restart.
    pub epochs: usize,
    /// Objects in the recovered (or queried) store.
    pub objects: u64,
    /// Wall milliseconds for the restart path.
    pub millis: f64,
    /// Queries charged against the source.
    pub queries: u64,
    /// Chunks fetched over the durable port.
    pub chunks_fetched: u64,
    /// Chunks served by the warehouse page cache.
    pub chunks_reused: u64,
    /// Log bytes the reopening scan read (`restart/history` only).
    pub scanned_bytes: Option<u64>,
    /// The log's live bytes at the restart (`restart/history` only).
    pub live_bytes: Option<u64>,
}

fn def() -> SimpleViewDef {
    SimpleViewDef::new("V17", "ROOT", "item").with_cond("age", Pred::new(CmpOp::Le, 50i64))
}

/// A source with `items` item sets, each carrying one age atom.
fn build_source(items: usize) -> Source {
    let src = Source::empty_sharded("e17", Oid::new("ROOT"), ReportLevel::WithValues, SHARDS);
    src.with_store(|s| -> gsdb::Result<()> {
        s.create(Object::empty_set("ROOT", "db"))?;
        for i in 0..items {
            let it = format!("it{i}");
            let ag = format!("ag{i}");
            s.create(Object::empty_set(it.as_str(), "item"))?;
            s.insert_edge(Oid::new("ROOT"), Oid::new(&it))?;
            s.create(Object::atom(ag.as_str(), "age", (i % 100) as i64))?;
            s.insert_edge(Oid::new(&it), Oid::new(&ag))?;
        }
        Ok(())
    })
    .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    src
}

/// Deterministic churn: `epochs` single-update commits, each one a
/// published (and, when attached, persisted) epoch.
fn churn(src: &Source, items: usize, epochs: usize) {
    for e in 0..epochs {
        let name = format!("ag{}", (e * 37) % items);
        src.apply(Update::modify(name.as_str(), ((e * 13) % 100) as i64))
            .unwrap();
    }
}

/// Cold restart: a fresh warehouse materializes the view by querying
/// the (still-running) source.
pub fn run_cold(items: usize) -> RestartRow {
    let src = build_source(items);
    churn(&src, items, CHURN);
    let mut wh = Warehouse::new();
    wh.connect(&src);
    let t0 = Instant::now();
    wh.add_view("e17", def(), ViewOptions::default()).unwrap();
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    RestartRow {
        route: "restart/cold".into(),
        items,
        epochs: CHURN,
        objects: src.with_store(|s| s.len()) as u64,
        millis,
        queries: wh.meter("e17").unwrap().queries(),
        chunks_fetched: 0,
        chunks_reused: 0,
        scanned_bytes: None,
        live_bytes: None,
    }
}

/// Build + churn a durably-attached source, then "crash" it (drop the
/// process state, keep the media).
fn crashed_lineage(items: usize) -> Arc<DurableStore> {
    let durable = Arc::new(DurableStore::open(MediaSet::memory()).unwrap());
    let src = build_source(items);
    src.attach_durable(Arc::clone(&durable)).unwrap();
    churn(&src, items, CHURN);
    durable
}

/// Recover the source and warm-start a warehouse on it. Returns the
/// row plus the live pair for follow-on measurements.
fn warm_restart(items: usize, durable: &Arc<DurableStore>) -> (RestartRow, Source, Warehouse) {
    let reg = gsview_obs::registry();
    let f0 = reg.counter("warehouse.durable.chunks_fetched").get();
    let r0 = reg.counter("warehouse.durable.chunks_reused").get();
    let t0 = Instant::now();
    let src = Source::recover("e17", Oid::new("ROOT"), ReportLevel::WithValues, durable)
        .unwrap()
        .expect("published epochs are recoverable");
    let mut wh = Warehouse::new();
    wh.connect(&src);
    wh.attach_durable(Arc::clone(durable) as Arc<dyn ChunkPort>);
    wh.add_view_warm("e17", def(), ViewOptions::default())
        .unwrap()
        .expect("durable state present");
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let queries = wh.meter("e17").unwrap().queries();
    assert_eq!(queries, 0, "warm restart must not query the source");
    let row = RestartRow {
        route: "restart/warm".into(),
        items,
        epochs: CHURN,
        objects: src.with_store(|s| s.len()) as u64,
        millis,
        queries,
        chunks_fetched: reg.counter("warehouse.durable.chunks_fetched").get() - f0,
        chunks_reused: reg.counter("warehouse.durable.chunks_reused").get() - r0,
        scanned_bytes: None,
        live_bytes: None,
    };
    (row, src, wh)
}

/// Warm restart: recover the source from the durable log and
/// re-materialize from recovered chunks.
pub fn run_warm(items: usize) -> RestartRow {
    let durable = crashed_lineage(items);
    warm_restart(items, &durable).0
}

/// Chunk-diff resync: after a warm restart, lose one report (view goes
/// stale) and heal through the durable port — only changed pages move.
pub fn run_resync(items: usize) -> RestartRow {
    let durable = crashed_lineage(items);
    let (_, src, mut wh) = warm_restart(items, &durable);
    src.apply(Update::modify("ag0", 1i64)).unwrap();
    let _ = src.monitor().poll(); // the report the crash-prone network ate
    src.apply(Update::modify("ag1", 2i64)).unwrap();
    for r in src.monitor().poll() {
        let _ = wh.handle_report(&r); // gap detected, view degrades to stale
    }
    let t0 = Instant::now();
    let out = wh.resync_view_durable(Oid::new("V17")).unwrap();
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    assert!(out.healed, "durable resync must heal the stale view");
    RestartRow {
        route: "resync/diff".into(),
        items,
        epochs: CHURN,
        objects: src.with_store(|s| s.len()) as u64,
        millis,
        queries: wh.meter("e17").unwrap().queries(),
        chunks_fetched: out.chunks_fetched,
        chunks_reused: out.chunks_reused,
        scanned_bytes: None,
        live_bytes: None,
    }
}

/// Deterministic quick-mode facts, pinned by the checked-in baseline
/// (`baselines/e17_quick.json`): at 400 items, the cold restart's
/// query count, the recovered object count, and the chunk traffic of
/// a post-restart diff resync (fetched must stay a small constant;
/// reused must cover the rest of the pages). Warm-restart queries are
/// asserted to be zero inside the run itself.
pub fn quick_facts() -> (u64, u64, u64, u64) {
    let items = 400;
    let cold = run_cold(items);
    let warm = run_warm(items);
    assert_eq!(warm.queries, 0);
    assert_eq!(warm.objects, cold.objects, "warm recovered a different store");
    let resync = run_resync(items);
    assert!(resync.chunks_reused > 0, "diff resync reused nothing");
    (
        cold.queries,
        warm.objects,
        resync.chunks_fetched,
        resync.chunks_reused,
    )
}

/// A restart after a long history: a durably attached source of
/// `HISTORY_ITEMS` items persists `epochs` churn epochs and "crashes";
/// the restart reopens the bytes (the open scan) and recovers the
/// source from them.
fn run_history(epochs: usize) -> RestartRow {
    let media = MediaSet::memory();
    let objects = {
        let durable = Arc::new(DurableStore::open(media.clone()).unwrap());
        let src = build_source(HISTORY_ITEMS);
        src.attach_durable(durable).unwrap();
        churn(&src, HISTORY_ITEMS, epochs);
        src.with_store(|s| s.len()) as u64
    };
    let t0 = Instant::now();
    let durable = Arc::new(DurableStore::open(media).unwrap());
    let scanned = durable.footprint();
    let src = Source::recover("e17", Oid::new("ROOT"), ReportLevel::WithValues, &durable)
        .unwrap()
        .expect("published epochs are recoverable");
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(src.with_store(|s| s.len()) as u64, objects, "recovered a different store");
    RestartRow {
        route: "restart/history".into(),
        items: HISTORY_ITEMS,
        epochs,
        objects,
        millis,
        queries: 0,
        chunks_fetched: 0,
        chunks_reused: 0,
        scanned_bytes: Some(scanned.segment_bytes),
        live_bytes: Some(scanned.live_bytes),
    }
}

/// The history leg's `(epochs, bytes the open scan read, live bytes)`
/// after each of [`HISTORY_EPOCHS`]: byte counts, so the smoke test can
/// pin the scan within a multiple of the live bytes exactly.
pub fn history_facts() -> Vec<(usize, u64, u64)> {
    HISTORY_EPOCHS
        .iter()
        .map(|&epochs| {
            let row = run_history(epochs);
            (epochs, row.scanned_bytes.unwrap(), row.live_bytes.unwrap())
        })
        .collect()
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let sizes = if quick { QUICK_SIZES } else { FULL_SIZES };
    let mut t = Table::new(
        "E17",
        "restart cost: warm recovery from the durable epoch log vs cold re-query",
        "warm restart answers zero queries to the source at every size; \
         diff resync moves only the chunks whose content hash changed; \
         a restart scans the live bytes, not the history",
    )
    .headers(&[
        "route",
        "items",
        "epochs",
        "objects",
        "millis",
        "queries",
        "chunks fetched",
        "chunks reused",
        "scanned bytes",
        "live bytes",
    ]);
    let rows = sizes
        .iter()
        .flat_map(|&items| [run_cold(items), run_warm(items), run_resync(items)])
        .chain(HISTORY_EPOCHS.iter().map(|&epochs| run_history(epochs)));
    let bytes = |b: Option<u64>| b.map_or_else(|| "-".to_string(), |b| b.to_string());
    for row in rows {
        t.row(vec![
            row.route.clone(),
            row.items.to_string(),
            row.epochs.to_string(),
            row.objects.to_string(),
            fnum(row.millis),
            row.queries.to_string(),
            row.chunks_fetched.to_string(),
            row.chunks_reused.to_string(),
            bytes(row.scanned_bytes),
            bytes(row.live_bytes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_restart_is_query_free_and_state_identical() {
        let cold = run_cold(120);
        let warm = run_warm(120);
        assert!(cold.queries > 0);
        assert_eq!(warm.queries, 0);
        assert_eq!(warm.objects, cold.objects);
        assert!(warm.chunks_fetched > 0, "warm restart moves chunks instead");
    }

    #[test]
    fn diff_resync_reuses_unchanged_pages() {
        // 1200 items = ~10 pages across the two shards: two touched
        // atoms dirty at most two of them.
        let row = run_resync(1200);
        assert!(row.chunks_fetched > 0);
        assert!(row.chunks_reused > 0);
        assert!(
            row.chunks_fetched < row.chunks_reused,
            "two touched atoms must not dirty most pages \
             (fetched {} vs reused {})",
            row.chunks_fetched,
            row.chunks_reused
        );
    }

    #[test]
    fn quick_facts_are_deterministic() {
        assert_eq!(quick_facts(), quick_facts());
    }
}
