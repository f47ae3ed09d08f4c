//! Real on-disk soak: persist → kill → recover over 64+ epochs.
//!
//! The crash matrix exercises the disk *model* through `ChaosMedia`;
//! this test exercises the real thing: a seeded multi-epoch workload
//! persists through [`FsMedia`] files in a scratch directory, the
//! "process" dies every few epochs (every handle dropped, files left
//! as the OS has them), and a fresh [`DurableStore`] reopens the same
//! files. Recovery must land on the exact last persisted epoch, the
//! recovered store must satisfy the [`check_crash_recovery`] replay
//! oracle, and re-persisting the recovered store must append zero
//! chunks (structural sharing survives the restart). The lineage then
//! keeps growing through the recovered handle, so one run crosses
//! many restart boundaries on one file — and, since every other kill
//! is preceded by a compaction, many renames of a fresh file over it.
//!
//! Also here, because they are about what is on disk: a stale
//! `epochs.tmp` left by a crash before a compaction's rename is ignored
//! on open and overwritten by the next compaction, and a directory
//! written by the three-file layout this format replaced is refused
//! with the typed version error, and left untouched.

use gsdb::{Object, Store, Update};
use gsview_core::check_crash_recovery;
use gsview_durable::{DurableError, DurableStore, MediaSet, PersistMeta, FORMAT_VERSION};
use std::path::PathBuf;

const NAME: &str = "soak";
const BASE_EPOCH: u64 = 1;
/// Maintained epochs after the baseline (the issue floor is 64).
const EPOCHS: u64 = 72;
/// Kill the process-equivalent every this many epochs.
const KILL_EVERY: u64 = 7;

/// Deterministic generator (splitmix-style) so failures replay.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gsview-fs-{tag}-{}", std::process::id()))
}

fn meta(epoch: u64) -> PersistMeta {
    PersistMeta {
        epoch,
        seq: epoch * 3,
    }
}

/// A root set with atoms to modify and spare children to detach and
/// re-attach — enough churn shapes to exercise chunk rewriting.
fn initial_store() -> Store {
    let mut s = Store::new();
    s.create(Object::empty_set("R", "root")).unwrap();
    for i in 0..32 {
        let name = format!("o{i}");
        s.create(Object::atom(name.as_str(), "x", i as i64)).unwrap();
        s.apply(Update::insert("R", name.as_str())).unwrap();
    }
    for i in 0..4 {
        s.create(Object::atom(format!("spare{i}").as_str(), "x", -1i64))
            .unwrap();
    }
    s
}

/// One epoch's batch: 1–3 seeded ops. `attached` tracks which spares
/// currently hang off `R` (duplicate edge inserts are rejected at
/// commit time, so the generator must not produce them).
fn gen_batch(rng: &mut Lcg, attached: &mut [bool; 4]) -> Vec<Update> {
    let mut out = Vec::new();
    for _ in 0..=rng.below(2) {
        match rng.below(3) {
            0 => out.push(Update::modify(
                format!("o{}", rng.below(32)).as_str(),
                rng.below(10_000) as i64 - 5_000,
            )),
            1 => {
                let i = rng.below(4) as usize;
                let spare = format!("spare{i}");
                if attached[i] {
                    out.push(Update::delete("R", spare.as_str()));
                } else {
                    out.push(Update::insert("R", spare.as_str()));
                }
                attached[i] = !attached[i];
            }
            _ => out.push(Update::modify(
                format!("o{}", rng.below(32)).as_str(),
                rng.below(100) as i64,
            )),
        }
    }
    out
}

/// Drop every durable handle and reopen the same directory — the
/// API-level equivalent of a process kill between two syncs (all
/// persisted epochs are post-sync, so the files are exactly what a
/// real restart would find).
fn kill_and_reopen(d: DurableStore, dir: &std::path::Path) -> DurableStore {
    drop(d);
    let media = MediaSet::on_dir(dir).expect("reopen scratch media");
    DurableStore::open(media).expect("reopen durable store after kill")
}

#[test]
fn on_disk_soak_recovers_every_restart_across_64_epochs() {
    let dir = scratch_dir("soak");
    let _ = std::fs::remove_dir_all(&dir);

    let initial = initial_store();
    let mut live = initial.clone();
    let mut rng = Lcg(0xf5_0a_0c);
    let mut attached = [false; 4];
    let mut batches: Vec<Vec<Update>> = Vec::new();

    let mut d = DurableStore::open(MediaSet::on_dir(&dir).unwrap()).unwrap();
    d.persist(NAME, &initial.fork(), meta(BASE_EPOCH)).unwrap();

    let mut epoch = BASE_EPOCH;
    let (mut restarts, mut compactions) = (0u64, 0u64);
    for round in 1..=EPOCHS {
        let batch = gen_batch(&mut rng, &mut attached);
        let mut applied_any = false;
        for u in &batch {
            if live.apply(u.clone()).is_ok() {
                applied_any = true;
            }
        }
        batches.push(batch);
        if applied_any {
            epoch += 1;
            d.persist(NAME, &live.fork(), meta(epoch)).unwrap();
        }

        if round % KILL_EVERY == 0 || round == EPOCHS {
            if round % (2 * KILL_EVERY) == 0 {
                let before = log_len(&dir);
                let reclaimed = d.compact().expect("compaction on a healthy disk");
                assert!(reclaimed > 0, "round {round}: superseded epochs to reclaim");
                assert_eq!(log_len(&dir), before - reclaimed);
                assert!(!dir.join("epochs.tmp").exists(), "round {round}: renamed away");
                compactions += 1;
            }
            d = kill_and_reopen(d, &dir);
            restarts += 1;
            let rec = d
                .recover(NAME)
                .expect("recovery after kill must not error")
                .expect("a persisted lineage must be recoverable");
            assert_eq!(
                rec.manifest.epoch, epoch,
                "restart {restarts} @ round {round}: recovery must land on \
                 the last synced epoch"
            );
            let v = check_crash_recovery(&initial, &batches, BASE_EPOCH, rec.manifest.epoch, &rec.store);
            assert!(
                v.ok(),
                "restart {restarts} @ round {round}: {:#?}",
                v.failures
            );
            // Structural sharing across the restart: re-persisting the
            // recovered (unchanged) store appends nothing.
            let len = log_len(&dir);
            let r = d.persist(NAME, &rec.store, meta(epoch)).unwrap();
            assert_eq!(
                r.chunks_appended, 0,
                "restart {restarts} @ round {round}: recovery broke chunk sharing"
            );
            assert_eq!(
                log_len(&dir),
                len,
                "restart {restarts} @ round {round}: an unchanged store grew the log"
            );
            // The lineage continues from the recovered image, not the
            // in-memory survivor: later epochs build on it.
            live = rec.store.clone();
        }
    }

    assert!(epoch - BASE_EPOCH >= 64, "soak must cross 64 maintained epochs");
    assert!(restarts >= EPOCHS / KILL_EVERY, "soak must cross many restarts");
    assert!(compactions >= restarts / 2 - 1, "soak must cross many compactions");
    let _ = std::fs::remove_dir_all(&dir);
}

fn log_len(dir: &std::path::Path) -> u64 {
    std::fs::metadata(dir.join("epochs.gsv")).unwrap().len()
}

#[test]
fn a_stale_temporary_file_is_ignored_and_overwritten_by_the_next_compaction() {
    let dir = scratch_dir("stale-tmp");
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = initial_store();
    let d = DurableStore::open(MediaSet::on_dir(&dir).unwrap()).unwrap();
    for epoch in 1..=4 {
        s.apply(Update::modify("o1", epoch as i64)).unwrap();
        d.persist(NAME, &s.fork(), meta(epoch)).unwrap();
    }
    drop(d);
    // A crash before the rename: a temporary file holding the start of
    // a compacted image (the log's own prefix looks just like one) and
    // then garbage.
    let log = std::fs::read(dir.join("epochs.gsv")).unwrap();
    let stale = [&log[..log.len() / 2], &[0xAB; 4096][..]].concat();
    std::fs::write(dir.join("epochs.tmp"), &stale).unwrap();

    let d = DurableStore::open(MediaSet::on_dir(&dir).unwrap()).unwrap();
    assert_eq!(d.recover(NAME).unwrap().unwrap().manifest.epoch, 4, "the tmp file is not read");
    assert_eq!(std::fs::read(dir.join("epochs.tmp")).unwrap(), stale, "nor touched by open");
    assert!(d.compact().unwrap() > 0);
    assert!(!dir.join("epochs.tmp").exists(), "the compaction's own file was renamed away");
    assert_eq!(log_len(&dir), d.footprint().live_bytes);

    let d = kill_and_reopen(d, &dir);
    let rec = d.recover(NAME).unwrap().unwrap();
    assert_eq!(rec.manifest.epoch, 4);
    assert_eq!(rec.store.atom(gsdb::Oid::new("o1")), Some(&gsdb::Atom::Int(4)));
    assert_eq!(d.frames_for(NAME).len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What format 1 left in a directory: a chunk segment and an epoch log
/// (each a run of `tag | len u32 | … | crc32` records) beside a root
/// cell. Only the names matter to the check; the bytes are there so a
/// misread would have something to misread.
#[test]
fn a_format_1_directory_is_refused_with_the_version_error() {
    let dir = scratch_dir("format1");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let segment = [&[0xC5u8, 4, 0, 0, 0][..], &[0xAA; 16], b"page", &[1, 2, 3, 4]].concat();
    let log = [&[0xE7u8, 3, 0, 0, 0][..], b"src", &[5, 6, 7, 8]].concat();
    std::fs::write(dir.join("segment.gsd"), &segment).unwrap();
    std::fs::write(dir.join("epochs.gsl"), &log).unwrap();

    let refused = MediaSet::on_dir(&dir).err();
    assert_eq!(
        refused,
        Some(DurableError::Version {
            found: 1,
            expected: FORMAT_VERSION
        })
    );
    assert_eq!(std::fs::read(dir.join("segment.gsd")).unwrap(), segment);
    assert_eq!(std::fs::read(dir.join("epochs.gsl")).unwrap(), log);
    assert!(!dir.join("epochs.gsv").exists(), "nothing was created beside them");
    // Either file alone is enough to refuse.
    std::fs::remove_file(dir.join("segment.gsd")).unwrap();
    assert!(matches!(
        MediaSet::on_dir(&dir),
        Err(DurableError::Version { found: 1, .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
