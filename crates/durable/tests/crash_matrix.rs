//! Kill-at-every-write-point crash matrix.
//!
//! A persist is one write and one sync, and a compaction is four
//! operations — the temporary file's write and sync, the rename, the
//! directory sync — so a fixed multi-epoch persist workload that
//! compacts the log twice admits a known list of tagged operations. It
//! runs against [`ChaosMedia`](gsview_durable::ChaosMedia) once with a
//! never-firing plan to count them, then once per operation **and per
//! fate of the un-synced write** with the crash planned exactly there:
//! the write lands whole although its sync was lost, vanishes, lands as
//! a torn prefix, lands with a flipped bit, or — the seeded mix — any
//! of the four (an un-synced rename lands or is lost the way a write
//! lands or not). After each crash the media heal (durable bytes kept,
//! process restarted), the durable store reopens, and the recovered
//! state must satisfy the [`check_crash_recovery`] oracle: recovery
//! lands on a committed batch boundary, no torn or resurrected
//! objects, structural sharing preserved (a re-persist of the recovered
//! store appends nothing — no chunk, no byte). A crash inside a
//! compaction must recover exactly the epoch durable before it.
//!
//! The chaos layer tears where its seed says. A second, exhaustive
//! sweep leaves nothing to the seed: for every persist of the workload
//! it cuts that persist's single write at every frame boundary, inside
//! every chunk frame and inside the manifest frame, and flips a bit in
//! every frame — each must recover the previous epoch — and it cuts and
//! flips each compacted image at every frame, which must never recover
//! a state the image does not hold whole.
//!
//! Seeded and environment-tunable for the CI matrix: `GSVIEW_SEED`
//! picks the fault-resolution schedule, `DURABLE_SHARDS` the store's
//! shard count. Every fault the crash media resolve is a
//! `chaos.inject` event, so a failing cell's flight-recorder dump
//! names where in the schedule it broke. A proptest battery drives random (seed, kill-point,
//! shard) triples beyond the exhaustive sweep, and edge-case tests pin
//! the named hazards: empty log, hand-torn tail, a retried persist,
//! a failed sync, and the write/sync budget of a persist and of a
//! compaction.

use gsdb::codec::{frame_head, FRAME_HEADER_LEN};
use gsdb::{Object, Store, StoreConfig, Update};
use gsview_durable::{
    ChaosController, ChaosPolicy, CrashPlan, CrashPoint, DurableError, DurableStore, Media,
    MediaSet, MemMedia, PersistMeta,
};
use gsview_obs::fault;
use gsview_testkit::oracle::check_crash_recovery;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The lineage every test persists under.
const NAME: &str = "src";
/// The pipeline epoch the workload starts from (arbitrary non-zero to
/// catch base-epoch arithmetic mistakes).
const BASE_EPOCH: u64 = 5;

fn shards() -> usize {
    std::env::var("DURABLE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// The pre-crash base: a root set with enough members to span several
/// slab pages per shard, so a persist's write holds several chunks.
fn initial_store(shards: usize) -> Store {
    let mut s = Store::with_config(StoreConfig::default().with_shards(shards));
    s.create(Object::empty_set("R", "root")).unwrap();
    for i in 0..48 {
        let name = format!("o{i}");
        s.create(Object::atom(name.as_str(), "x", i as i64))
            .unwrap();
        s.apply(Update::insert("R", name.as_str())).unwrap();
    }
    s
}

/// The committed-batch workload: modifies, structural churn, a create,
/// and one prefix-commit batch whose tail is rejected — every shape
/// the recovery oracle's replay semantics must mirror.
fn batches() -> Vec<Vec<Update>> {
    let mut out = vec![
        vec![Update::modify("o3", 1000i64), Update::modify("o17", -17i64)],
        vec![Update::delete("R", "o5"), Update::insert("R", "o5")],
        vec![
            Update::Create {
                object: Object::atom("fresh", "x", 99i64),
            },
            Update::insert("R", "fresh"),
        ],
        // Prefix commit: the NOPE modify rejects, the tail is dropped,
        // the applied prefix still publishes one epoch.
        vec![
            Update::modify("o9", 9000i64),
            Update::modify("NOPE", 1i64),
            Update::modify("o9", 9999i64),
        ],
        vec![Update::delete("R", "o30")],
    ];
    for k in 0..18 {
        out.push(vec![Update::modify(
            format!("o{}", k * 2).as_str(),
            (k as i64) - 500,
        )]);
    }
    out
}

/// Commit one batch with prefix semantics (stop at the first rejected
/// update); true iff anything applied, i.e. an epoch was published.
fn commit(live: &mut Store, batch: &[Update]) -> bool {
    batch
        .iter()
        .take_while(|u| live.apply((*u).clone()).is_ok())
        .count()
        > 0
}

/// The batches (by index) after which the workload compacts the log.
const COMPACT_AFTER: [usize; 2] = [4, 14];

/// Run the workload against `media`: persist the base as `BASE_EPOCH`,
/// then commit each batch with prefix semantics, persist every
/// published epoch, and compact after the batches of [`COMPACT_AFTER`].
/// `done(epoch)` follows every completed persist and compaction with
/// the newest durable epoch. Returns `Err(Crashed)` when the plan
/// fires.
fn run_workload(
    media: &MediaSet,
    initial: &Store,
    batches: &[Vec<Update>],
    done: &mut dyn FnMut(u64),
) -> gsview_durable::Result<()> {
    let d = DurableStore::open(media.clone())?;
    let mut epoch = BASE_EPOCH;
    d.persist(NAME, &initial.fork(), meta(epoch))?;
    done(epoch);
    let mut live = initial.clone();
    for (i, batch) in batches.iter().enumerate() {
        if commit(&mut live, batch) {
            epoch += 1;
            d.persist(NAME, &live.fork(), meta(epoch))?;
            done(epoch);
        }
        if COMPACT_AFTER.contains(&i) {
            assert!(
                d.compact()? > 0,
                "batch {i}: the compaction reclaims superseded frames"
            );
            done(epoch);
        }
    }
    Ok(())
}

fn meta(epoch: u64) -> PersistMeta {
    PersistMeta {
        epoch,
        seq: epoch * 3,
    }
}

/// What the crash does to the one un-synced write: each pure fate,
/// then the seeded mix of all four.
fn fates(seed: u64) -> [(&'static str, ChaosPolicy); 5] {
    let pure = |p_tear, p_drop, p_flip| ChaosPolicy {
        seed,
        p_tear,
        p_drop,
        p_flip,
    };
    [
        ("lands, sync lost", pure(0.0, 0.0, 0.0)),
        ("dropped", pure(0.0, 1.0, 0.0)),
        ("torn", pure(1.0, 0.0, 0.0)),
        ("bit-flipped", pure(0.0, 0.0, 1.0)),
        ("mixed", ChaosPolicy::seeded(seed)),
    ]
}

/// The crash-free dry run: tagged ops the full workload admits, and
/// after how many ops each persist and compaction had completed, with
/// the newest durable epoch then — what a crash at a later op may not
/// lose.
struct OpCounts {
    total: u64,
    /// `(ops admitted, newest durable epoch)` after each step.
    durable: Vec<(u64, u64)>,
}

impl OpCounts {
    fn of(shards: usize) -> OpCounts {
        let ctl = ChaosController::new(ChaosPolicy::seeded(0), CrashPlan::default());
        let mut durable = Vec::new();
        run_workload(
            &MediaSet::chaos(&ctl),
            &initial_store(shards),
            &batches(),
            &mut |epoch| durable.push((ctl.ops(), epoch)),
        )
        .unwrap();
        assert!(!ctl.crashed());
        // Every step is its fixed sequence: two ops a persist, four a
        // compaction (whose epoch is the persist's before it).
        let mut last = (0, 0);
        for &(ops, epoch) in &durable {
            let budget = if epoch == last.1 { 4 } else { 2 };
            assert_eq!(ops - last.0, budget, "the step ending at op {ops}");
            last = (ops, epoch);
        }
        OpCounts {
            total: ctl.ops(),
            durable,
        }
    }

    /// The newest epoch durable before op `kill` ran.
    fn durable_before(&self, kill: u64) -> Option<u64> {
        self.durable
            .iter()
            .take_while(|&&(ops, _)| ops < kill)
            .last()
            .map(|&(_, e)| e)
    }
}

/// The recovered state of `d` is a committed epoch, and persisting it
/// again touches the media not at all. `Some(epoch)` when something
/// recovered.
fn check_recovered(d: &DurableStore, media: &MediaSet, initial: &Store, what: &str) -> Option<u64> {
    let rec = d
        .recover(NAME)
        .expect("recover reports cold starts, not errors")?;
    let v = check_crash_recovery(
        initial,
        &batches(),
        BASE_EPOCH,
        rec.manifest.epoch,
        &rec.store,
    );
    assert!(v.ok(), "{what}: {:#?}", v.failures);
    // Structural sharing across the restart: re-persisting the
    // recovered (unchanged) store appends nothing.
    let len = media.log.len();
    let r = d
        .persist(NAME, &rec.store, meta(rec.manifest.epoch))
        .expect("healed media persist");
    assert_eq!(r.chunks_appended, 0, "{what}: recovery broke sharing");
    assert_eq!(
        media.log.len(),
        len,
        "{what}: an unchanged store wrote bytes"
    );
    Some(rec.manifest.epoch)
}

/// One matrix cell: crash at `kill`, heal, reopen, recover, check.
/// Returns the operation the crash hit.
fn crash_recover_check(
    policy: ChaosPolicy,
    fate: &str,
    shards: usize,
    kill: u64,
    ops: &OpCounts,
) -> CrashPoint {
    let initial = initial_store(shards);
    let ctl = ChaosController::new(policy, CrashPlan { kill_at_op: kill });
    let media = MediaSet::chaos(&ctl);
    let res = run_workload(&media, &initial, &batches(), &mut |_| {});
    let point = ctl
        .crash_point()
        .expect("the plan fires inside the workload");
    let seed = policy.seed;
    let what = format!("seed {seed} shards {shards} kill@{kill} ({point:?}, write {fate})");
    assert_eq!(
        res,
        Err(DurableError::Crashed),
        "{what}: must crash the workload"
    );

    // Restart: durable bytes exactly as the crash resolved them.
    ctl.heal(CrashPlan::default());
    let d = DurableStore::open(media.clone()).unwrap_or_else(|e| panic!("{what}: reopen: {e}"));
    let recovered = check_recovered(&d, &media, &initial, &what);
    let in_compaction = matches!(
        point,
        CrashPoint::CompactWrite
            | CrashPoint::CompactSync
            | CrashPoint::CompactRename
            | CrashPoint::CompactDirSync
    );
    match (recovered, ops.durable_before(kill)) {
        (Some(epoch), Some(durable)) if in_compaction => assert_eq!(
            epoch, durable,
            "{what}: a crash in a compaction recovers the epoch durable before it"
        ),
        (Some(epoch), Some(durable)) => assert!(
            epoch >= durable,
            "{what}: recovered epoch {epoch} lost synced epoch {durable}"
        ),
        (None, Some(durable)) => {
            panic!("{what}: durable state vanished after epoch {durable} was synced")
        }
        // Before the first persist completed, nothing or its epoch.
        (_, None) => {}
    }
    point
}

#[test]
fn kill_at_every_write_point_recovers_a_committed_epoch() {
    let seed = fault::seed();
    let shards = shards();
    let ops = OpCounts::of(shards);
    let fates = fates(seed);
    assert!(
        ops.total * fates.len() as u64 >= 128,
        "{} ops x {} fates — below the 128-case matrix floor",
        ops.total,
        fates.len()
    );
    let mut hit = Vec::new();
    for (fate, policy) in fates {
        for kill in 1..=ops.total {
            let point = crash_recover_check(policy, fate, shards, kill, &ops);
            if !hit.contains(&point) {
                hit.push(point);
            }
        }
    }
    for point in [
        CrashPoint::PersistWrite,
        CrashPoint::PersistSync,
        CrashPoint::CompactWrite,
        CrashPoint::CompactSync,
        CrashPoint::CompactRename,
        CrashPoint::CompactDirSync,
    ] {
        assert!(hit.contains(&point), "no cell crashed at {point:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Beyond the exhaustive sweep: random fault-resolution seeds and
    /// kill points, at both ends of the shard range.
    #[test]
    fn random_seeds_and_kill_points_recover(seed in 1u64..u64::MAX / 2, permille in 0u64..1000) {
        for shards in [1usize, 8] {
            let ops = OpCounts::of(shards);
            let kill = 1 + permille * (ops.total - 1) / 1000;
            crash_recover_check(ChaosPolicy::seeded(seed), "mixed", shards, kill, &ops);
        }
    }
}

#[test]
fn kill_matrix_spot_checks_every_shard_count() {
    // The full sweep runs at the CI matrix's shard counts; here every
    // supported power of two gets first / early / middle / last ops.
    let seed = fault::seed();
    for shards in [1usize, 2, 4, 8] {
        let ops = OpCounts::of(shards);
        for kill in [1, 2, ops.total / 2, ops.total] {
            crash_recover_check(
                ChaosPolicy::seeded(seed),
                "mixed",
                shards,
                kill.max(1),
                &ops,
            );
        }
    }
}

#[test]
fn a_crash_cell_leaves_its_injections_in_the_flight_recorder() {
    let shards = shards();
    let ops = OpCounts::of(shards);
    // Other tests of this binary emit into the same ring while it is
    // installed: size it for them.
    let recorder = Arc::new(gsview_obs::FlightRecorder::with_capacity(1 << 16));
    let guard = gsview_obs::install(recorder.clone());
    // Kill the first persist's sync: its one write is staged, and the
    // pure "dropped" fate drops it with the first draw of the schedule.
    let (fate, dropped) = fates(fault::seed())[1];
    crash_recover_check(dropped, fate, shards, 2, &ops);
    drop(guard);
    let fields = |r: &gsview_obs::RecordedEvent| {
        ["boundary", "kind", "k", "off"].map(|key| r.event.field(key).map(|v| v.to_string()))
    };
    let want = ["disk", "drop", "0", "0"].map(|v| Some(v.to_string()));
    let injected = |r: &&gsview_obs::RecordedEvent| r.event.name == "chaos.inject";
    assert!(
        recorder
            .drain()
            .iter()
            .filter(injected)
            .any(|r| fields(r) == want),
        "the dropped write of the first persist is in the recorder"
    );
}

/// Frame boundaries of `bytes[from..]`, as offsets into `bytes`
/// (`from` first, `bytes.len()` last).
fn frame_bounds(bytes: &[u8], from: usize) -> Vec<usize> {
    let mut at = vec![from];
    let mut pos = from;
    while let Some(head) = frame_head(&bytes[pos..]) {
        pos += FRAME_HEADER_LEN + head.len;
        at.push(pos);
    }
    assert_eq!(pos, bytes.len(), "a persist's write is whole frames");
    at
}

/// Every frame of `bytes` from `from` on, wrecked: torn at the frame's
/// boundary, inside its header, inside its payload, one byte short of
/// whole; and with a flipped bit in the header and in the payload,
/// everything behind it landed. Each wreck comes with its description.
fn wrecks(bytes: &[u8], from: usize) -> Vec<(Vec<u8>, String)> {
    let mut out = Vec::new();
    for w in frame_bounds(bytes, from).windows(2) {
        let (start, end) = (w[0], w[1]);
        let frame = if end == bytes.len() {
            "manifest"
        } else {
            "chunk"
        };
        for cut in [
            start,
            start + 4,
            (start + FRAME_HEADER_LEN + end) / 2,
            end - 1,
        ] {
            let what = format!("cut at {cut} ({frame} frame {start}..{end})");
            out.push((bytes[..cut].to_vec(), what));
        }
        for at in [start + 2, start + 6, start + FRAME_HEADER_LEN, end - 1] {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 0x10;
            out.push((
                flipped,
                format!("bit flipped at {at} ({frame} frame {start}..{end})"),
            ));
        }
    }
    out
}

#[test]
fn the_single_write_cut_or_flipped_anywhere_recovers_the_previous_epoch() {
    let shards = shards();
    let initial = initial_store(shards);
    let media = MediaSet::memory();
    let d = DurableStore::open(media.clone()).unwrap();
    d.persist(NAME, &initial.fork(), meta(BASE_EPOCH)).unwrap();
    let mut live = initial.clone();
    let mut epoch = BASE_EPOCH;
    let mut chunk_frames = 0;
    let open = |wreck: Vec<u8>| {
        let media = MediaSet {
            log: Arc::new(MemMedia::from_bytes(wreck)),
        };
        (DurableStore::open(media.clone()), media)
    };
    for (i, batch) in batches().iter().enumerate() {
        if commit(&mut live, batch) {
            let before = media.log.len() as usize;
            epoch += 1;
            d.persist(NAME, &live.fork(), meta(epoch)).unwrap();
            let bytes = media.log.read_at(0, media.log.len() as usize).unwrap();
            let frames = frame_bounds(&bytes, before).len() - 1;
            assert!(
                frames >= 2,
                "epoch {epoch}: at least a chunk and the manifest"
            );
            chunk_frames += frames - 1;
            for (wreck, what) in wrecks(&bytes, before) {
                let what = format!("epoch {epoch}: write {what}");
                let (d, media) = open(wreck);
                let recovered = check_recovered(&d.unwrap(), &media, &initial, &what);
                assert_eq!(recovered, Some(epoch - 1), "{what}");
            }
        }
        if COMPACT_AFTER.contains(&i) {
            d.compact().unwrap();
            let image = media.log.read_at(0, media.log.len() as usize).unwrap();
            let (whole, _) = open(image.clone());
            assert_eq!(
                whole
                    .unwrap()
                    .recover(NAME)
                    .unwrap()
                    .unwrap()
                    .manifest
                    .epoch,
                epoch
            );
            // The image is only ever renamed into place whole, after its
            // sync. Wrecked anyway, its one manifest — the last frame —
            // goes with it: recovery finds nothing, never a state the
            // image does not hold whole.
            for (wreck, what) in wrecks(&image, 0) {
                let what = format!("epoch {epoch}: compacted image {what}");
                let (d, media) = open(wreck);
                assert_eq!(
                    check_recovered(&d.unwrap(), &media, &initial, &what),
                    None,
                    "{what}"
                );
            }
        }
    }
    assert!(
        chunk_frames > (epoch - BASE_EPOCH) as usize,
        "some write held several chunks"
    );
}

/// An in-memory media that counts writes, syncs and replaces and can
/// fail the next sync once.
#[derive(Default)]
struct Probe {
    inner: MemMedia,
    writes: AtomicU64,
    syncs: AtomicU64,
    replaces: AtomicU64,
    fail_next_sync: AtomicBool,
}

impl Probe {
    /// `(writes, syncs, replaces)` since the last call.
    fn take(&self) -> (u64, u64, u64) {
        let take = |n: &AtomicU64| n.swap(0, Ordering::Relaxed);
        (take(&self.writes), take(&self.syncs), take(&self.replaces))
    }
}

impl Media for Probe {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn read_at(&self, off: u64, len: usize) -> gsview_durable::Result<Vec<u8>> {
        self.inner.read_at(off, len)
    }
    fn write_at(&self, off: u64, data: &[u8], point: CrashPoint) -> gsview_durable::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_at(off, data, point)
    }
    fn sync(&self, point: CrashPoint) -> gsview_durable::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        if self.fail_next_sync.swap(false, Ordering::Relaxed) {
            return Err(DurableError::Io("injected: sync failed".into()));
        }
        self.inner.sync(point)
    }
    fn replace(&self, data: &[u8]) -> gsview_durable::Result<()> {
        self.replaces.fetch_add(1, Ordering::Relaxed);
        self.inner.replace(data)
    }
}

#[test]
fn a_persist_is_one_write_and_one_sync_and_an_unchanged_store_is_neither() {
    for shards in [1usize, 2, 8] {
        let probe = Arc::new(Probe::default());
        let media = MediaSet {
            log: Arc::clone(&probe) as Arc<dyn Media>,
        };
        let d = DurableStore::open(media.clone()).unwrap();
        assert_eq!(
            probe.take(),
            (0, 0, 0),
            "opening an empty media writes nothing"
        );
        let mut live = initial_store(shards);
        d.persist(NAME, &live.fork(), meta(1)).unwrap();
        assert_eq!(
            probe.take(),
            (1, 1, 0),
            "{shards} shards: baseline of every page"
        );
        let mut epoch = 1;
        for batch in batches() {
            if !batch
                .iter()
                .map(|u| live.apply(u.clone()))
                .take_while(|r| r.is_ok())
                .count()
                > 0
            {
                continue;
            }
            epoch += 1;
            // Below the compaction threshold a persist is exactly one
            // write and one sync.
            let r = d.persist(NAME, &live.fork(), meta(epoch)).unwrap();
            assert!(r.chunks_appended >= 1);
            assert_eq!(
                probe.take(),
                (1, 1, 0),
                "{shards} shards, epoch {epoch}: {r:?}"
            );
            // Unchanged store, same epoch: nothing to make durable.
            let again = d.persist(NAME, &live.fork(), meta(epoch)).unwrap();
            assert_eq!((again.chunks_appended, again.frame_off), (0, r.frame_off));
            assert_eq!(
                probe.take(),
                (0, 0, 0),
                "{shards} shards, epoch {epoch}: unchanged store"
            );
        }
        // Same pages under a new epoch: one manifest, still one write.
        d.persist(NAME, &live.fork(), meta(epoch + 1)).unwrap();
        assert_eq!(probe.take(), (1, 1, 0));
        // A compaction is one replace of the whole content and nothing
        // else; compacting a compact log is nothing at all.
        assert!(d.compact().unwrap() > 0);
        assert_eq!(probe.take(), (0, 0, 1), "{shards} shards: compaction");
        assert_eq!(d.compact().unwrap(), 0);
        assert_eq!(
            probe.take(),
            (0, 0, 0),
            "{shards} shards: compacting a compact log"
        );
        // A restart later, the recovered store is as unchanged as ever.
        let d = DurableStore::open(media).unwrap();
        let rec = d.recover(NAME).unwrap().unwrap();
        d.persist(NAME, &rec.store, meta(epoch + 1)).unwrap();
        assert_eq!(probe.take(), (0, 0, 0), "re-attach after recovery");
    }
}

#[test]
fn a_failed_sync_leaves_the_log_as_it_was_and_the_retry_lands() {
    let probe = Arc::new(Probe::default());
    let media = MediaSet {
        log: Arc::clone(&probe) as Arc<dyn Media>,
    };
    let d = DurableStore::open(media.clone()).unwrap();
    let mut s = initial_store(2);
    d.persist(NAME, &s.fork(), meta(1)).unwrap();
    let committed = probe.len();
    s.apply(Update::modify("o3", -3i64)).unwrap();
    probe.fail_next_sync.store(true, Ordering::Relaxed);
    assert!(d.persist(NAME, &s.fork(), meta(2)).is_err());
    // The bytes were written but never acknowledged: the store must
    // neither dedup against them nor serve them.
    assert!(probe.len() > committed);
    assert_eq!(d.frames_for(NAME).len(), 1);
    assert_eq!(d.recover(NAME).unwrap().unwrap().manifest.epoch, 1);
    // The retry rewrites the same offsets — chunks included.
    let r = d.persist(NAME, &s.fork(), meta(2)).unwrap();
    assert!(
        r.chunks_appended >= 1,
        "the unacknowledged chunk is appended again"
    );
    let d = DurableStore::open(media).unwrap();
    let rec = d.recover(NAME).unwrap().unwrap();
    assert_eq!(rec.manifest.epoch, 2);
    let replay = [vec![Update::modify("o3", -3i64)]];
    let v = check_crash_recovery(&initial_store(2), &replay, 1, 2, &rec.store);
    assert!(v.ok(), "{:#?}", v.failures);
    assert_eq!(d.frames_for(NAME).len(), 2);
}

#[test]
fn empty_log_is_a_cold_start() {
    let d = DurableStore::open(MediaSet::memory()).unwrap();
    assert!(d.recover(NAME).unwrap().is_none());
    // Crashing inside the very first write leaves the same verdict:
    // nothing durable, nothing resurrected.
    let ctl = ChaosController::new(ChaosPolicy::seeded(7), CrashPlan { kill_at_op: 1 });
    let media = MediaSet::chaos(&ctl);
    let initial = initial_store(2);
    assert!(run_workload(&media, &initial, &batches(), &mut |_| {}).is_err());
    ctl.heal(CrashPlan::default());
    let d = DurableStore::open(media).unwrap();
    assert!(d.recover(NAME).unwrap().is_none());
}

#[test]
fn a_torn_log_tail_falls_back_one_frame() {
    // Persist two epochs cleanly, then hand-tear the tail of the log:
    // the epoch-2 chunk is whole, its manifest frame is not.
    let media = MediaSet::memory();
    let d = DurableStore::open(media.clone()).unwrap();
    let mut s = initial_store(1);
    d.persist(NAME, &s.fork(), meta(1)).unwrap();
    s.apply(Update::modify("o3", -3i64)).unwrap();
    d.persist(NAME, &s.fork(), meta(2)).unwrap();
    drop(d);

    let mut bytes = media.log.read_at(0, media.log.len() as usize).unwrap();
    bytes.truncate(bytes.len() - 5);
    let torn = MediaSet {
        log: Arc::new(MemMedia::from_bytes(bytes)),
    };
    let d = DurableStore::open(torn).unwrap();
    let rec = d.recover(NAME).unwrap().expect("previous frame recovers");
    assert_eq!(rec.manifest.epoch, 1);
    assert_eq!(
        rec.store.atom(gsdb::Oid::new("o3")),
        Some(&gsdb::Atom::Int(3))
    );
    // The orphaned epoch-2 chunk is reclaimed by dedup on the retry.
    let r = d.persist(NAME, &s.fork(), meta(2)).unwrap();
    assert_eq!(
        r.chunks_appended, 0,
        "the orphan chunk is reused, not rewritten"
    );
    assert_eq!(d.recover(NAME).unwrap().unwrap().manifest.epoch, 2);
}

#[test]
fn a_retried_persist_of_the_same_epoch_recovers_once() {
    // A persist retried after its acknowledgement was lost describes
    // the state the log already ends with; Source::recover leans on
    // exactly this when its re-attach baseline repeats the recovered
    // frame. Nothing is appended and the oracle sees one epoch.
    let d = DurableStore::open(MediaSet::memory()).unwrap();
    let s = initial_store(2);
    d.persist(NAME, &s.fork(), meta(1)).unwrap();
    let r = d.persist(NAME, &s.fork(), meta(1)).unwrap();
    assert_eq!(r.chunks_appended, 0, "the retry re-appends no chunks");
    assert_eq!(d.frames_for(NAME).len(), 1, "nor a second frame");
    let rec = d.recover(NAME).unwrap().unwrap();
    let v = check_crash_recovery(&s, &[], 1, rec.manifest.epoch, &rec.store);
    assert!(v.ok(), "{:#?}", v.failures);
}
