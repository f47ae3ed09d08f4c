//! Storage media: real files, memory buffers, and the crash-fault
//! injection layer.
//!
//! Everything durable is written through the [`Media`] trait — a flat
//! byte space with positioned reads/writes and an explicit
//! [`sync`](Media::sync) barrier. The durability argument only relies
//! on what real disks give you:
//!
//! * a completed `sync` makes every earlier write durable;
//! * **un-synced writes may do anything at a crash** — land fully,
//!   vanish, land as a torn prefix, or land with flipped bits, each
//!   independently of program order (reordering).
//!
//! [`ChaosMedia`] simulates exactly that model, deterministically:
//! writes are staged until the next sync, and when the seeded
//! [`CrashPlan`] fires, every staged write independently resolves to
//! commit / drop / tear / bit-flip under the [`ChaosPolicy`], drawn from
//! the workspace's one fault schedule ([`gsview_obs::fault`]) at the
//! disk boundary. One [`ChaosController`] coordinates every media
//! allocated under it, so a crash hits all of them at once the way a
//! real power cut does. Like the report, query and socket injectors it
//! is seeded, deterministic and assertable, and every fault it resolves
//! is a `chaos.inject` event naming its draw index.
//!
//! Every write carries a [`CrashPoint`] tag naming the logical
//! operation, so the kill-at-every-write-point matrix can report *what*
//! was mid-flight at the crash it survived.
//!
//! Besides appends, a media can [`replace`](Media::replace) its whole
//! content — what a compaction of the epoch log does. On files that is
//! the classic sequence: write a temporary file, sync it, rename it
//! over the log, sync the directory. A crash before the rename keeps
//! the old content; a crash between the rename and the directory sync
//! may find either; after the directory sync the new content is
//! durable.

use crate::error::{DurableError, Result};
use gsview_obs::fault::Stream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The logical operation a write or sync belongs to — reported by the
/// chaos layer so crash-matrix failures name the mid-flight operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// The one write of a persist: its chunk frames and its manifest
    /// frame, appended to the epoch log.
    PersistWrite,
    /// The one sync barrier of a persist.
    PersistSync,
    /// A compaction writing the compacted log to its temporary file.
    CompactWrite,
    /// A compaction syncing the temporary file.
    CompactSync,
    /// A compaction renaming the temporary file over the log.
    CompactRename,
    /// A compaction syncing the directory, which makes the rename
    /// durable.
    CompactDirSync,
    /// Anything else (tests, maintenance).
    Other,
}

/// A flat byte space with positioned I/O and a sync barrier.
pub trait Media: Send + Sync {
    /// Current length in bytes.
    fn len(&self) -> u64;
    /// True iff empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Read up to `len` bytes at `off`; shorter at end-of-media.
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>>;
    /// Write `data` at `off`, extending the media if needed. Not
    /// durable until the next successful [`sync`](Media::sync).
    fn write_at(&self, off: u64, data: &[u8], point: CrashPoint) -> Result<()>;
    /// Durability barrier: all earlier writes survive a crash after
    /// this returns.
    fn sync(&self, point: CrashPoint) -> Result<()>;
    /// Replace the whole content with `data`, atomically and durably:
    /// a crash at any point leaves either the old content or `data`,
    /// never a mix, and `data` survives any crash after this returns.
    fn replace(&self, data: &[u8]) -> Result<()>;
}

// ----------------------------------------------------------------------
// In-memory media
// ----------------------------------------------------------------------

/// A plain in-memory media (always "durable"; no fault injection).
#[derive(Default)]
pub struct MemMedia {
    buf: RwLock<Vec<u8>>,
}

impl MemMedia {
    /// An empty in-memory media.
    pub fn new() -> MemMedia {
        MemMedia::default()
    }

    /// An in-memory media seeded with existing bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> MemMedia {
        MemMedia {
            buf: RwLock::new(bytes),
        }
    }
}

fn read_slice(buf: &[u8], off: u64, len: usize) -> Vec<u8> {
    let start = (off as usize).min(buf.len());
    let end = start.saturating_add(len).min(buf.len());
    buf[start..end].to_vec()
}

fn write_slice(buf: &mut Vec<u8>, off: u64, data: &[u8]) {
    let off = off as usize;
    if buf.len() < off + data.len() {
        buf.resize(off + data.len(), 0);
    }
    buf[off..off + data.len()].copy_from_slice(data);
}

impl Media for MemMedia {
    fn len(&self) -> u64 {
        self.buf.read().unwrap().len() as u64
    }
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        Ok(read_slice(&self.buf.read().unwrap(), off, len))
    }
    fn write_at(&self, off: u64, data: &[u8], _point: CrashPoint) -> Result<()> {
        write_slice(&mut self.buf.write().unwrap(), off, data);
        Ok(())
    }
    fn sync(&self, _point: CrashPoint) -> Result<()> {
        Ok(())
    }
    fn replace(&self, data: &[u8]) -> Result<()> {
        *self.buf.write().unwrap() = data.to_vec();
        Ok(())
    }
}

// ----------------------------------------------------------------------
// File-backed media
// ----------------------------------------------------------------------

/// A file-backed media using positioned I/O and `fsync`.
pub struct FsMedia {
    path: PathBuf,
    /// The open file. [`replace`](Media::replace) swaps it for the
    /// file it renamed over `path`.
    file: RwLock<std::fs::File>,
    /// A replace renamed but could not sync the directory: the next
    /// [`sync`](Media::sync) does, before it acknowledges anything
    /// written to the new file.
    dir_unsynced: AtomicBool,
}

impl FsMedia {
    /// Open (or create) the file at `path` for durable read/write.
    pub fn open(path: &Path) -> Result<FsMedia> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FsMedia {
            path: path.to_path_buf(),
            file: RwLock::new(file),
            dir_unsynced: AtomicBool::new(false),
        })
    }

    fn file(&self) -> std::sync::RwLockReadGuard<'_, std::fs::File> {
        self.file.read().expect("media file lock poisoned")
    }

    /// Make the directory entries under the file's directory durable —
    /// a rename is not, until its directory is synced.
    fn sync_dir(&self) -> Result<()> {
        let dir = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
        self.dir_unsynced.store(false, Ordering::Release);
        Ok(())
    }
}

impl Media for FsMedia {
    fn len(&self) -> u64 {
        self.file().metadata().map(|m| m.len()).unwrap_or(0)
    }
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        use std::os::unix::fs::FileExt;
        let file = self.file();
        let mut buf = vec![0u8; len];
        let mut read = 0;
        while read < len {
            match file.read_at(&mut buf[read..], off + read as u64) {
                Ok(0) => break,
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        buf.truncate(read);
        Ok(buf)
    }
    fn write_at(&self, off: u64, data: &[u8], _point: CrashPoint) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file().write_all_at(data, off)?;
        Ok(())
    }
    fn sync(&self, _point: CrashPoint) -> Result<()> {
        self.file().sync_data()?;
        if self.dir_unsynced.load(Ordering::Acquire) {
            self.sync_dir()?;
        }
        Ok(())
    }
    /// `<name>.tmp` beside the file (a stale one from a crash is
    /// truncated), written, `sync_all`ed, renamed over the file; the
    /// handle is swapped so it names what the path names, the directory
    /// is synced, and the replaced file is closed.
    fn replace(&self, data: &[u8]) -> Result<()> {
        use std::io::Write;
        let tmp = self.path.with_extension("tmp");
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(data)?;
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        self.dir_unsynced.store(true, Ordering::Release);
        let mut handle = self.file.write().expect("media file lock poisoned");
        let old = std::mem::replace(&mut *handle, file);
        drop(handle);
        let synced = self.sync_dir();
        // Closed only now: closing the replaced file frees its blocks,
        // which on a file system that discards them makes a directory
        // sync behind it wait milliseconds longer.
        drop(old);
        synced
    }
}

// ----------------------------------------------------------------------
// Chaos media
// ----------------------------------------------------------------------

/// How staged (un-synced) writes resolve when the crash fires. The
/// four outcomes sum to 1: whatever probability the tear/drop/flip
/// knobs leave over is the chance a staged write lands intact.
/// Resolution is per-write and independent, which yields write
/// *reordering* for free (an earlier write can drop while a later one
/// lands).
#[derive(Clone, Copy, Debug)]
pub struct ChaosPolicy {
    /// Schedule seed — equal seeds replay identical fault schedules.
    pub seed: u64,
    /// Probability a staged write lands as a torn prefix.
    pub p_tear: f64,
    /// Probability a staged write vanishes entirely.
    pub p_drop: f64,
    /// Probability a staged write lands with one flipped bit.
    pub p_flip: f64,
}

impl ChaosPolicy {
    /// A balanced default: at a crash each staged write tears, drops,
    /// flips, or lands with equal weight.
    pub fn seeded(seed: u64) -> ChaosPolicy {
        ChaosPolicy {
            seed,
            p_tear: 0.25,
            p_drop: 0.25,
            p_flip: 0.25,
        }
    }
}

/// When the crash fires: after `kill_at_op` tagged operations (writes
/// and syncs) have been admitted, the next one crashes instead of
/// executing. `0` disables the crash.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashPlan {
    /// 1-based index of the operation that crashes; 0 = never.
    pub kill_at_op: u64,
}

/// Writes made but not yet synced: `(offset, bytes)` in program order.
type Staged = Vec<(u64, Vec<u8>)>;

/// One simulated file: what is durable, what the live process sees,
/// and the writes staged between the two.
#[derive(Default)]
struct ChaosFile {
    durable: Vec<u8>,
    live: Vec<u8>,
    staged: Staged,
    /// Set between a replace's rename and its directory sync: the
    /// replaced file (durable bytes and staged writes) the name falls
    /// back to if the crash loses the rename.
    unrenamed: Option<(Vec<u8>, Staged)>,
}

struct ChaosState {
    policy: ChaosPolicy,
    plan: CrashPlan,
    faults: Stream,
    ops: u64,
    crashed: bool,
    crash_point: Option<CrashPoint>,
    files: Vec<ChaosFile>,
}

impl ChaosState {
    /// The crash: resolve every un-synced rename and every staged
    /// write across every file under the seeded policy, then freeze the
    /// media. A rename lands with the probability a staged write lands
    /// whole; otherwise the name keeps the replaced file, and what was
    /// written to the new one is gone with it.
    fn crash(&mut self, point: CrashPoint) {
        let p = self.policy;
        let fates = [p.p_drop, p.p_tear, p.p_flip];
        let boundary = self.faults.boundary();
        let inject = |kind: &'static str, k: u64, off: u64| {
            gsview_obs::event!(
                "chaos.inject",
                "boundary" = boundary,
                "kind" = kind,
                "k" = k,
                "off" = off
            );
        };
        for file in &mut self.files {
            if let Some((durable, staged)) = file.unrenamed.take() {
                let d = self.faults.draw();
                if d.pick(&fates).is_some() {
                    file.durable = durable;
                    file.staged = staged;
                    gsview_obs::event!(
                        "chaos.inject",
                        "boundary" = boundary,
                        "kind" = "lost_rename",
                        "k" = d.k
                    );
                }
            }
            for (off, mut data) in std::mem::take(&mut file.staged) {
                let d = self.faults.draw();
                match d.pick(&fates) {
                    Some(0) => {
                        inject("drop", d.k, off);
                        continue; // vanished
                    }
                    Some(1) => {
                        inject("tear", d.k, off);
                        data.truncate(self.faults.draw().below(data.len() as u64) as usize);
                    }
                    Some(_) => {
                        inject("flip", d.k, off);
                        if !data.is_empty() {
                            let bit = self.faults.draw().below(data.len() as u64 * 8);
                            data[(bit / 8) as usize] ^= 1 << (bit % 8);
                        }
                    }
                    None => {}
                }
                write_slice(&mut file.durable, off, &data);
            }
            // The "restarted process" view is what survived.
            file.live = file.durable.clone();
        }
        self.crashed = true;
        self.crash_point = Some(point);
    }

    /// Admit one tagged operation; returns `Err(Crashed)` if this is
    /// the one the plan kills.
    fn admit(&mut self, point: CrashPoint) -> Result<()> {
        if self.crashed {
            return Err(DurableError::Crashed);
        }
        self.ops += 1;
        if self.plan.kill_at_op != 0 && self.ops == self.plan.kill_at_op {
            self.crash(point);
            return Err(DurableError::Crashed);
        }
        Ok(())
    }
}

/// Coordinator for a set of [`ChaosMedia`] sharing one fault schedule
/// (one operation counter, one RNG, one crash).
#[derive(Clone)]
pub struct ChaosController {
    state: Arc<Mutex<ChaosState>>,
}

impl ChaosController {
    /// A controller with the given policy and crash plan.
    pub fn new(policy: ChaosPolicy, plan: CrashPlan) -> ChaosController {
        ChaosController {
            state: Arc::new(Mutex::new(ChaosState {
                faults: Stream::new(policy.seed, "disk"),
                policy,
                plan,
                ops: 0,
                crashed: false,
                crash_point: None,
                files: Vec::new(),
            })),
        }
    }

    /// Allocate a new simulated file under this controller.
    pub fn media(&self) -> ChaosMedia {
        let mut st = self.state.lock().unwrap();
        st.files.push(ChaosFile::default());
        ChaosMedia {
            idx: st.files.len() - 1,
            ctl: Arc::clone(&self.state),
        }
    }

    /// True iff the planned crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// The operation that was mid-flight at the crash, if any.
    pub fn crash_point(&self) -> Option<CrashPoint> {
        self.state.lock().unwrap().crash_point
    }

    /// Tagged operations admitted so far — run a workload with a
    /// never-firing plan to size the kill-at-every-point matrix.
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// "Restart the process": clear the crashed flag (keeping durable
    /// state exactly as the crash left it) and install the next crash
    /// plan. The same media objects now serve the recovered process.
    pub fn heal(&self, next: CrashPlan) {
        let mut st = self.state.lock().unwrap();
        st.crashed = false;
        st.crash_point = None;
        st.plan = next;
        st.ops = 0;
    }
}

/// One simulated file under a [`ChaosController`]. Reads observe the
/// live (written-but-maybe-not-durable) state before the crash and the
/// survived state after it; writes and syncs fail after the crash.
pub struct ChaosMedia {
    idx: usize,
    ctl: Arc<Mutex<ChaosState>>,
}

impl Media for ChaosMedia {
    fn len(&self) -> u64 {
        let st = self.ctl.lock().unwrap();
        st.files[self.idx].live.len() as u64
    }
    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        let st = self.ctl.lock().unwrap();
        Ok(read_slice(&st.files[self.idx].live, off, len))
    }
    fn write_at(&self, off: u64, data: &[u8], point: CrashPoint) -> Result<()> {
        let mut st = self.ctl.lock().unwrap();
        st.admit(point)?;
        let file = &mut st.files[self.idx];
        write_slice(&mut file.live, off, data);
        file.staged.push((off, data.to_vec()));
        Ok(())
    }
    fn sync(&self, point: CrashPoint) -> Result<()> {
        let mut st = self.ctl.lock().unwrap();
        st.admit(point)?;
        let file = &mut st.files[self.idx];
        file.durable = file.live.clone();
        file.staged.clear();
        Ok(())
    }
    /// Four tagged operations, as on a real file system: the temporary
    /// file's write and sync (a crash at either, or at the rename,
    /// keeps the old content — the temporary file is never read), the
    /// rename, and the directory sync.
    fn replace(&self, data: &[u8]) -> Result<()> {
        let mut st = self.ctl.lock().unwrap();
        st.admit(CrashPoint::CompactWrite)?;
        st.admit(CrashPoint::CompactSync)?;
        st.admit(CrashPoint::CompactRename)?;
        let file = &mut st.files[self.idx];
        let replaced = std::mem::replace(&mut file.durable, data.to_vec());
        file.unrenamed = Some((replaced, std::mem::take(&mut file.staged)));
        file.live = data.to_vec();
        st.admit(CrashPoint::CompactDirSync)?;
        st.files[self.idx].unrenamed = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_media_roundtrips_and_extends() {
        let m = MemMedia::new();
        m.write_at(3, b"abc", CrashPoint::Other).unwrap();
        assert_eq!(m.len(), 6);
        assert_eq!(m.read_at(0, 6).unwrap(), b"\0\0\0abc");
        assert_eq!(m.read_at(4, 100).unwrap(), b"bc");
    }

    #[test]
    fn chaos_synced_writes_survive_any_crash() {
        let ctl = ChaosController::new(ChaosPolicy::seeded(7), CrashPlan { kill_at_op: 3 });
        let m = ctl.media();
        m.write_at(0, b"durable!", CrashPoint::PersistWrite)
            .unwrap();
        m.sync(CrashPoint::PersistSync).unwrap();
        // Op 3 kills this write; the synced prefix must survive.
        assert_eq!(
            m.write_at(8, b"lost", CrashPoint::PersistWrite),
            Err(DurableError::Crashed)
        );
        assert!(ctl.crashed());
        assert_eq!(ctl.crash_point(), Some(CrashPoint::PersistWrite));
        assert_eq!(m.read_at(0, 8).unwrap(), b"durable!");
        assert_eq!(
            m.write_at(0, b"x", CrashPoint::Other),
            Err(DurableError::Crashed)
        );
        ctl.heal(CrashPlan::default());
        m.write_at(0, b"X", CrashPoint::Other).unwrap();
        assert_eq!(m.read_at(0, 1).unwrap(), b"X");
    }

    #[test]
    fn chaos_unsynced_writes_resolve_deterministically() {
        let run = |seed| {
            let ctl = ChaosController::new(ChaosPolicy::seeded(seed), CrashPlan { kill_at_op: 5 });
            let m = ctl.media();
            for i in 0..5u64 {
                let _ = m.write_at(i * 8, &[i as u8; 8], CrashPoint::PersistWrite);
            }
            assert!(ctl.crashed());
            m.read_at(0, 40).unwrap()
        };
        assert_eq!(run(1), run(1), "same seed, same wreckage");
        // Reads before the crash see staged writes (read-your-writes).
        let ctl = ChaosController::new(ChaosPolicy::seeded(1), CrashPlan::default());
        let m = ctl.media();
        m.write_at(0, b"abc", CrashPoint::PersistWrite).unwrap();
        assert_eq!(m.read_at(0, 3).unwrap(), b"abc");
    }

    #[test]
    fn a_chaos_replace_is_old_or_new_at_every_crash_point() {
        let lands = ChaosPolicy {
            seed: 5,
            p_tear: 0.0,
            p_drop: 0.0,
            p_flip: 0.0,
        };
        let lost = ChaosPolicy {
            p_drop: 1.0,
            ..lands
        };
        // Ops 1–2 make "old content" durable; the replace is ops 3–6;
        // op 7 is the first one after it.
        let cells = [
            (3, CrashPoint::CompactWrite, "old content", "old content"),
            (4, CrashPoint::CompactSync, "old content", "old content"),
            (5, CrashPoint::CompactRename, "old content", "old content"),
            (6, CrashPoint::CompactDirSync, "new", "old content"),
            (7, CrashPoint::Other, "new", "new"),
        ];
        for (kill, point, if_lands, if_lost) in cells {
            for (policy, expect) in [(lands, if_lands), (lost, if_lost)] {
                let ctl = ChaosController::new(policy, CrashPlan { kill_at_op: kill });
                let m = ctl.media();
                m.write_at(0, b"old content", CrashPoint::PersistWrite)
                    .unwrap();
                m.sync(CrashPoint::PersistSync).unwrap();
                let replaced = m.replace(b"new");
                assert_eq!(replaced.is_ok(), kill == 7, "kill {kill}");
                if replaced.is_ok() {
                    assert_eq!(
                        m.read_at(0, 100).unwrap(),
                        b"new",
                        "the process sees its replace"
                    );
                    assert!(m.sync(CrashPoint::Other).is_err());
                }
                assert_eq!(ctl.crash_point(), Some(point));
                let after = m.read_at(0, 100).unwrap();
                assert_eq!(after, expect.as_bytes(), "kill {kill}, {policy:?}");
            }
        }
    }

    #[test]
    fn a_file_replace_renames_a_synced_copy_over_the_file() {
        let dir = std::env::temp_dir().join(format!("gsview-media-replace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epochs.gsv");
        let m = FsMedia::open(&path).unwrap();
        m.write_at(0, b"old content", CrashPoint::Other).unwrap();
        m.sync(CrashPoint::Other).unwrap();
        // A stale temporary file from a crash is truncated, not appended to.
        std::fs::write(
            dir.join("epochs.tmp"),
            b"stale wreckage, longer than the new",
        )
        .unwrap();
        m.replace(b"new").unwrap();
        assert_eq!((m.len(), m.read_at(0, 100).unwrap()), (3, b"new".to_vec()));
        assert!(!dir.join("epochs.tmp").exists());
        // Writes go to the file the path names now.
        m.write_at(3, b"er", CrashPoint::Other).unwrap();
        m.sync(CrashPoint::Other).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"newer");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_controller_crashes_all_its_media_together() {
        let ctl = ChaosController::new(ChaosPolicy::seeded(3), CrashPlan { kill_at_op: 2 });
        let a = ctl.media();
        let b = ctl.media();
        a.write_at(0, b"a", CrashPoint::PersistWrite).unwrap();
        assert_eq!(
            b.write_at(0, b"b", CrashPoint::PersistWrite),
            Err(DurableError::Crashed)
        );
        assert_eq!(a.sync(CrashPoint::PersistSync), Err(DurableError::Crashed));
    }
}
