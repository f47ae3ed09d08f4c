//! E14 — snapshot-isolated reads during maintenance: the epoch read
//! path vs the store-mutex read path.
//!
//! The bugfix PR routes every warehouse read through the source's
//! latest **published epoch** ([`Source::snapshot`]) instead of the
//! live-store mutex. Three claims:
//!
//! 1. **Latency**: while a writer commits scripted batches and a
//!    colocated view portfolio flushes after each one, readers on the
//!    epoch route never block behind the store mutex — mean and tail
//!    (p99) read latency beat readers that take the mutex per read.
//! 2. **Consistency**: a batch sets two marker atoms to the same
//!    value; an epoch reader sees both from one immutable snapshot and
//!    can never observe them unequal (pair tears = 0 by construction),
//!    while the mutex route reads them under two lock acquisitions and
//!    can tear across a batch commit — the seed's wrapper served one
//!    query per lock, so this is exactly the anomaly the epoch path
//!    removes.
//! 3. Both routes read the same data: a [`path::reach`] sweep of the
//!    final state costs identical base accesses through a snapshot and
//!    through the mutex — the smoke test (`tests/e14_smoke.rs`) pins
//!    the counts and the published-epoch count against a checked-in
//!    baseline.
//!
//! Single-core caveat: the latency gap is driven by *blocking*, not by
//! cycles; on a single hardware thread the OS serializes readers and
//! writer anyway and the measured gap narrows. EXPERIMENTS.md records
//! multi-core numbers.

use crate::table::{fnum, Table};
use gsdb::{path, Object, Oid, Path, Update};
use gsview_core::{recompute, LocalBase, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_warehouse::{ColocatedViews, ReportLevel, Source};
use gsview_workload::relations::{self, RelationsDb, RelationsSpec};
use gsview_workload::rng::rng;
use rand::Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Relations in the base = views in the colocated portfolio.
pub const VIEWS: usize = 8;
/// Tuples per relation in quick mode (≈ 5k objects).
pub const QUICK_TUPLES: usize = 150;
/// Batches the writer commits in quick mode.
pub const QUICK_BATCHES: usize = 60;
/// Updates per batch in quick mode (plus the two marker writes).
pub const QUICK_OPS: usize = 30;
/// Reader threads in quick mode.
pub const QUICK_READERS: usize = 2;

/// Latency samples kept per reader for the percentile (reads beyond
/// the cap still count toward totals and tears).
const LATENCY_CAP: usize = 2_000_000;

/// First and second marker atom: every batch writes the batch index
/// to both, so any committed state has them equal.
fn markers() -> (Oid, Oid) {
    (Oid::new("e14m0"), Oid::new("e14m1"))
}

/// One measured route at one configuration.
#[derive(Clone, Debug)]
pub struct RouteRow {
    /// `read/epoch` or `read/mutex`.
    pub route: &'static str,
    /// Objects in the store before the run.
    pub objects: usize,
    /// Reader threads.
    pub readers: usize,
    /// Total reads completed while the writer ran.
    pub reads: u64,
    /// Mean nanoseconds per read (marker pair).
    pub mean_ns: f64,
    /// 99th-percentile nanoseconds per read.
    pub p99_ns: f64,
    /// Marker pairs observed unequal — torn reads. Always 0 on the
    /// epoch route; possible on the mutex route.
    pub pair_tears: u64,
    /// Writer throughput: batches committed (and flushed) per second.
    pub batches_per_sec: f64,
    /// Epochs the source had published when the writer finished.
    pub epochs: u64,
}

fn build_source(tuples_per_relation: usize) -> (Source, RelationsDb) {
    let (mut store, db) = relations::generate(
        RelationsSpec {
            relations: VIEWS,
            tuples_per_relation,
            extra_fields: 2,
            age_range: 60,
            seed: 131,
        },
        gsdb::StoreConfig::default(),
    )
    .expect("generate");
    let (m0, m1) = markers();
    store.create(Object::atom(m0.name(), "marker", 0i64)).unwrap();
    store.create(Object::atom(m1.name(), "marker", 0i64)).unwrap();
    (
        Source::new("e14", db.root, store, ReportLevel::OidsOnly),
        db,
    )
}

fn portfolio() -> Vec<SimpleViewDef> {
    (0..VIEWS)
        .map(|i| {
            SimpleViewDef::new(format!("V{i}").as_str(), format!("r{i}").as_str(), "tuple")
                .with_cond("age", Pred::new(CmpOp::Gt, 30i64))
        })
        .collect()
}

/// Deterministic batch script: age churn, fresh-tuple inserts, and
/// tuple detaches spread over all relations — bracketed by the two
/// marker writes, so every committed batch leaves `m0 == m1 == b`.
/// Replayable against any identically-built source.
fn script_batches(db: &RelationsDb, batches: usize, ops: usize, seed: u64) -> Vec<Vec<Update>> {
    let (m0, m1) = markers();
    let mut r = rng(seed);
    let mut detached: HashSet<Oid> = HashSet::new();
    let mut fresh = 0usize;
    (0..batches)
        .map(|b| {
            let mut batch = vec![Update::modify(m0, b as i64)];
            for _ in 0..ops {
                let ri = r.gen_range(0..VIEWS);
                let roll: f64 = r.gen();
                if roll < 0.6 {
                    let a = db.ages[ri][r.gen_range(0..db.ages[ri].len())];
                    batch.push(Update::modify(a, r.gen_range(0..60i64)));
                } else if roll < 0.85 {
                    let age = Oid::new(&format!("e14x{fresh}.age"));
                    let tup = Oid::new(&format!("e14x{fresh}"));
                    fresh += 1;
                    batch.push(Update::create(Object::atom(
                        age.name(),
                        "age",
                        r.gen_range(0..60i64),
                    )));
                    batch.push(Update::create(Object::set(tup.name(), "tuple", &[age])));
                    batch.push(Update::insert(db.relation_oids[ri], tup));
                } else {
                    let candidates: Vec<Oid> = db.tuples[ri]
                        .iter()
                        .filter(|t| !detached.contains(t))
                        .copied()
                        .collect();
                    if !candidates.is_empty() {
                        let t = candidates[r.gen_range(0..candidates.len())];
                        detached.insert(t);
                        batch.push(Update::delete(db.relation_oids[ri], t));
                    }
                }
            }
            batch.push(Update::modify(m1, b as i64));
            batch
        })
        .collect()
}

/// Run one route: `readers` threads read the marker pair as fast as
/// they can while the writer commits every batch through
/// [`Source::apply_batch`] and flushes a colocated portfolio after
/// each one. Epoch readers take two atom reads off one snapshot;
/// mutex readers take the store mutex once per atom — the per-query
/// locking discipline the seed wrapper used. The final views are
/// verified against a from-scratch recompute before returning.
pub fn run_route(
    src: &Source,
    batches: &[Vec<Update>],
    readers: usize,
    epoch_route: bool,
) -> RouteRow {
    let (m0, m1) = markers();
    let objects = src.with_store(|s| s.len());
    let mut cv = ColocatedViews::new(src, portfolio(), 2).expect("materialize");
    let done = AtomicBool::new(false);
    let start = Barrier::new(readers + 1);

    let mut row = RouteRow {
        route: if epoch_route { "read/epoch" } else { "read/mutex" },
        objects,
        readers,
        reads: 0,
        mean_ns: 0.0,
        p99_ns: 0.0,
        pair_tears: 0,
        batches_per_sec: 0.0,
        epochs: 0,
    };

    let mut all_lat: Vec<u64> = Vec::new();
    let mut total_ns = 0u128;
    std::thread::scope(|scope| {
        let done = &done;
        let start = &start;
        let mut joins = Vec::new();
        for _ in 0..readers {
            joins.push(scope.spawn(move || {
                let mut lat: Vec<u64> = Vec::new();
                let mut reads = 0u64;
                let mut tears = 0u64;
                let mut ns_sum = 0u128;
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let t = Instant::now();
                    let (a, b) = if epoch_route {
                        let s = src.snapshot();
                        (s.atom(m0).cloned(), s.atom(m1).cloned())
                    } else {
                        (
                            src.with_store(|s| s.atom(m0).cloned()),
                            src.with_store(|s| s.atom(m1).cloned()),
                        )
                    };
                    let ns = t.elapsed().as_nanos();
                    ns_sum += ns;
                    reads += 1;
                    if lat.len() < LATENCY_CAP {
                        lat.push(ns as u64);
                    }
                    if a != b {
                        tears += 1;
                    }
                }
                (lat, reads, tears, ns_sum)
            }));
        }

        start.wait();
        let t0 = Instant::now();
        for batch in batches {
            src.apply_batch(batch.iter().cloned()).expect("scripted batch applies");
            for r in src.monitor().poll() {
                cv.absorb(&r);
            }
            cv.flush(src).expect("flush");
        }
        let writer_secs = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        row.batches_per_sec = batches.len() as f64 / writer_secs.max(1e-12);

        for j in joins {
            let (lat, reads, tears, ns_sum) = j.join().expect("reader panicked");
            all_lat.extend(lat);
            row.reads += reads;
            row.pair_tears += tears;
            total_ns += ns_sum;
        }
    });
    row.epochs = src.epoch();
    row.mean_ns = total_ns as f64 / (row.reads as f64).max(1.0);
    all_lat.sort_unstable();
    row.p99_ns = all_lat
        .get((all_lat.len().saturating_sub(1)) * 99 / 100)
        .copied()
        .unwrap_or(0) as f64;

    // The concurrent run must not have corrupted maintenance: every
    // view equals a from-scratch recompute of the final state.
    src.with_store(|s| {
        for (def, mv) in portfolio().iter().zip(cv.views()) {
            let want = recompute::recompute_members(def, &mut LocalBase::new(s));
            assert_eq!(mv.members_base(), want, "view {} diverged", def.view);
        }
    });
    row
}

/// Measure both routes at one configuration, on identically-built
/// sources fed the identical batch script.
pub fn measure(
    tuples_per_relation: usize,
    batches: usize,
    ops: usize,
    readers: usize,
) -> (RouteRow, RouteRow) {
    let (src, db) = build_source(tuples_per_relation);
    let script = script_batches(&db, batches, ops, 137);
    let epoch = run_route(&src, &script, readers, true);
    let (src, _) = build_source(tuples_per_relation);
    let mutex = run_route(&src, &script, readers, false);
    (epoch, mutex)
}

/// Deterministic quick-mode facts, pinned by the checked-in baseline
/// (`baselines/e14_quick.json`) and the smoke test:
/// `(epochs published, epoch-route pair tears, reach accesses via a
/// snapshot, reach accesses via the mutex)`. The access counts sweep
/// `r0.tuple` on the final state through both read routes — same
/// content, same traversal, so they must be byte-identical; the epoch
/// count proves snapshots expose exactly the committed state.
pub fn quick_consistency() -> (u64, u64, u64, u64) {
    let (src, db) = build_source(QUICK_TUPLES);
    let script = script_batches(&db, QUICK_BATCHES, QUICK_OPS, 137);
    let row = run_route(&src, &script, QUICK_READERS, true);

    let p = Path::parse("r0.tuple");
    let snap = src.snapshot();
    snap.set_count_accesses(true);
    snap.reset_accesses();
    let via_epoch = path::reach(&snap, db.root, &p);
    let acc_epoch = snap.accesses();
    snap.set_count_accesses(false);

    let (via_mutex, acc_mutex) = src.with_store(|s| {
        s.set_count_accesses(true);
        s.reset_accesses();
        let r = path::reach(s, db.root, &p);
        let a = s.accesses();
        s.set_count_accesses(false);
        (r, a)
    });
    assert_eq!(via_epoch, via_mutex, "routes must read the same state");
    (row.epochs, row.pair_tears, acc_epoch, acc_mutex)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let configs: &[(usize, usize, usize, usize)] = if quick {
        &[(QUICK_TUPLES, QUICK_BATCHES, QUICK_OPS, QUICK_READERS)]
    } else {
        // ≈ 5k and 40k objects, heavier scripts, more readers.
        &[
            (QUICK_TUPLES, 150, 60, 4),
            (1_250, 150, 60, 4),
        ]
    };
    let mut t = Table::new(
        "E14",
        "epoch-snapshot reads vs store-mutex reads during maintenance",
        "epoch readers: lower mean+p99 latency, zero torn marker pairs",
    )
    .headers(&[
        "route",
        "objects",
        "readers",
        "reads",
        "mean ns",
        "p99 ns",
        "tears",
        "batches/sec",
    ]);
    for &(tuples, batches, ops, readers) in configs {
        let (epoch, mutex) = measure(tuples, batches, ops, readers);
        for r in [&epoch, &mutex] {
            t.row(vec![
                r.route.into(),
                r.objects.to_string(),
                r.readers.to_string(),
                r.reads.to_string(),
                fnum(r.mean_ns),
                fnum(r.p99_ns),
                r.pair_tears.to_string(),
                fnum(r.batches_per_sec),
            ]);
        }
        t.row(vec![
            "epoch speedup".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{}x", fnum(mutex.mean_ns / epoch.mean_ns.max(1e-9))),
            format!("{}x", fnum(mutex.p99_ns / epoch.p99_ns.max(1e-9))),
            "-".into(),
            "-".into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_route_never_tears_and_counts_epochs() {
        let (src, db) = build_source(20);
        let script = script_batches(&db, 12, 6, 137);
        let row = run_route(&src, &script, 2, true);
        assert_eq!(row.pair_tears, 0, "snapshots cannot tear");
        assert_eq!(row.epochs, 12, "one epoch per committed batch");
        assert!(row.reads > 0);
    }

    #[test]
    fn mutex_route_maintains_views_too() {
        // run_route verifies every view against recompute internally.
        let (src, db) = build_source(20);
        let script = script_batches(&db, 12, 6, 137);
        let row = run_route(&src, &script, 2, false);
        assert_eq!(row.route, "read/mutex");
        assert_eq!(row.epochs, 12);
    }

    #[test]
    fn quick_consistency_is_deterministic() {
        let a = quick_consistency();
        let b = quick_consistency();
        assert_eq!(a.0, b.0);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
        assert_eq!(a.1, 0);
    }
}
