//! Regression tests for the sticky `durability_degraded` health flag
//! (ISSUE 9 bugfix): `Source::attach_durable` used to swallow persist
//! errors behind the publish point with only a counter/event, so a
//! dead disk silently cost every subsequent epoch its durability.
//! Now the hook retries a bounded number of times, latches a sticky
//! health flag on exhaustion, and the recorded error is surfaced on
//! the next explicit `persist_now` call.

use gsview::durable::{
    ChaosController, ChaosPolicy, CrashPlan, CrashPoint, DurableStore, FsMedia, Media, MediaSet,
};
use gsview::gsdb::{samples, Oid, Update};
use gsview::warehouse::{ReportLevel, Source};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn person_source() -> Source {
    let src = Source::empty("persons", Oid::new("ROOT"), ReportLevel::WithValues);
    src.with_store(|s| samples::person_db(s).map(|_| ()))
        .unwrap();
    src.with_store(|s| {
        s.drain_log();
    });
    src
}

/// A real-file media with a kill switch: once `fail` is set every
/// write and sync returns a persistent I/O error, exactly like a disk
/// that dropped off the bus. Reads keep working (the page cache
/// outlives the device in this failure mode too).
struct FailSwitchFs {
    inner: FsMedia,
    fail: Arc<AtomicBool>,
}

impl Media for FailSwitchFs {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn read_at(&self, off: u64, len: usize) -> gsview::durable::Result<Vec<u8>> {
        self.inner.read_at(off, len)
    }
    fn write_at(&self, off: u64, data: &[u8], point: CrashPoint) -> gsview::durable::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(gsview::durable::DurableError::Io(
                "injected: device unavailable".into(),
            ));
        }
        self.inner.write_at(off, data, point)
    }
    fn sync(&self, point: CrashPoint) -> gsview::durable::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(gsview::durable::DurableError::Io(
                "injected: device unavailable".into(),
            ));
        }
        self.inner.sync(point)
    }
    fn replace(&self, data: &[u8]) -> gsview::durable::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(gsview::durable::DurableError::Io(
                "injected: device unavailable".into(),
            ));
        }
        self.inner.replace(data)
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gsview-degraded-{tag}-{}", std::process::id()))
}

fn failing_fs_media(dir: &std::path::Path, fail: &Arc<AtomicBool>) -> MediaSet {
    std::fs::create_dir_all(dir).unwrap();
    MediaSet {
        log: Arc::new(FailSwitchFs {
            inner: FsMedia::open(&dir.join("epochs.gsv")).unwrap(),
            fail: Arc::clone(fail),
        }),
    }
}

/// FsMedia under a persistent write failure: the hook latches the
/// sticky flag, the first explicit persist surfaces the recorded
/// error, and after the device returns a second explicit persist
/// re-baselines and clears the flag — with the re-baseline visible in
/// the on-disk lineage.
#[test]
fn fs_write_failure_latches_flag_and_explicit_persist_surfaces_it() {
    let dir = scratch_dir("fs");
    let _ = std::fs::remove_dir_all(&dir);
    let fail = Arc::new(AtomicBool::new(false));
    let durable = Arc::new(DurableStore::open(failing_fs_media(&dir, &fail)).unwrap());

    let src = person_source();
    src.attach_durable(Arc::clone(&durable)).unwrap();
    assert!(!src.durability_degraded());
    assert_eq!(src.durability_error(), None);

    // Healthy epoch persists fine; the flag stays clear.
    src.apply(Update::modify("A1", 80i64)).unwrap();
    assert!(!src.durability_degraded());

    // The disk dies. The publish hook exhausts its retries; the
    // in-memory commit still succeeds (persistence is behind the
    // publish point) but the flag latches.
    fail.store(true, Ordering::Release);
    src.apply(Update::modify("A1", 30i64)).unwrap();
    assert!(
        src.durability_degraded(),
        "hook failure must latch the flag"
    );
    let err = src.durability_error().expect("error must be recorded");
    assert!(
        err.contains("attempts"),
        "error names the retry budget: {err}"
    );

    // Later hook failures keep the *first* error (it names the start
    // of the lineage hole).
    src.apply(Update::modify("A3", 28i64)).unwrap();
    assert_eq!(src.durability_error().as_deref(), Some(err.as_str()));

    // First explicit persist surfaces the recorded error instead of
    // writing — even if the device has come back in the meantime.
    fail.store(false, Ordering::Release);
    let surfaced = src.persist_now(&durable).unwrap_err();
    assert!(
        surfaced.to_string().contains("durability degraded"),
        "explicit persist must surface the degraded state: {surfaced}"
    );
    assert!(
        src.durability_degraded(),
        "flag stays latched until a re-baseline"
    );

    // Second explicit persist re-baselines and clears the flag.
    let receipt = src.persist_now(&durable).unwrap();
    assert_eq!(receipt.epoch, src.epoch());
    assert!(!src.durability_degraded());
    assert_eq!(src.durability_error(), None);

    // The re-baseline is really on disk: a cold reopen of the same
    // directory recovers the post-outage state.
    drop(durable);
    let reopened = DurableStore::open(MediaSet::on_dir(&dir).unwrap()).unwrap();
    let rec = reopened
        .recover("persons")
        .unwrap()
        .expect("lineage on disk");
    assert_eq!(rec.manifest.epoch, src.epoch());
    let _ = std::fs::remove_dir_all(&dir);
}

/// ChaosController crash (every write fails until heal): same latch /
/// surface / re-baseline story, and background successes after heal
/// do NOT clear the sticky flag on their own.
#[test]
fn chaos_crash_degrades_until_explicit_rebaseline() {
    let ctl = ChaosController::new(ChaosPolicy::seeded(9), CrashPlan::default());
    let durable = Arc::new(DurableStore::open(MediaSet::chaos(&ctl)).unwrap());
    let src = person_source();
    let baseline = src.attach_durable(Arc::clone(&durable)).unwrap();

    // Kill the media at the very next op: every write from here on
    // fails until the controller heals it.
    ctl.heal(CrashPlan { kill_at_op: 1 });
    src.apply(Update::modify("A1", 80i64)).unwrap();
    assert!(ctl.crashed());
    assert!(src.durability_degraded());

    // Media comes back. Background persists succeed again, but the
    // flag is sticky: the epochs lost during the outage left a hole
    // that only an acknowledged re-baseline supersedes.
    ctl.heal(CrashPlan::default());
    src.apply(Update::modify("A1", 44i64)).unwrap();
    assert!(
        src.durability_degraded(),
        "background success must not clear the sticky flag"
    );

    // Surface, then re-baseline.
    assert!(src.persist_now(&durable).is_err());
    let receipt = src.persist_now(&durable).unwrap();
    assert!(receipt.epoch > baseline.epoch);
    assert!(!src.durability_degraded());

    // The recovered image reflects the re-baselined epoch, not the
    // pre-outage lineage tail.
    let rec = durable.recover("persons").unwrap().unwrap();
    assert_eq!(rec.manifest.epoch, src.epoch());
}
