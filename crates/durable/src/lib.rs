//! # gsview-durable — the durable epoch log
//!
//! Persistence for gsview stores: every epoch a
//! [`ShardedStore`](gsdb::ShardedStore) publishes can be made
//! crash-recoverable, so sources and the warehouse restart **warm** —
//! loading the last durable epoch instead of re-querying and
//! recomputing, which is exactly the cost the paper's warehouse
//! architecture (§3) exists to avoid.
//!
//! ## Layout
//!
//! One durable store is **one append-only file** ([`log`]) of
//! checksum-chained frames:
//!
//! * **Chunk frames**: each [`gsdb::Chunk`] — four consecutive
//!   copy-on-write slab pages, 256 slots — is encoded ([`gsdb::codec`])
//!   and appended once per distinct content hash — content addressing
//!   turns the store's structural sharing into storage sharing, so
//!   persisting an epoch writes only the chunks that epoch actually
//!   changed.
//! * **Manifest frames**: one [`Manifest`] per persist — lineage name,
//!   epoch, sequence watermark, a constant flags byte, and the per-shard
//!   chunk-hash lists. One log serves many lineages (a source and every
//!   warehouse view can share a [`MediaSet`]).
//!
//! The file opens with a frame carrying the format version; a
//! directory written by the earlier three-file layout is refused with
//! [`DurableError::Version`], never misread.
//!
//! ## The commit protocol and why recovery is atomic
//!
//! A persist is one write and one barrier: the chunk frames of the
//! chunks the epoch changed, then the manifest frame, go to the tail of
//! the valid prefix as a single `write_at`, followed by a single
//! `sync`. What a persist costs is what the epoch changed: a dirty
//! chunk is re-encoded by copying the bytes of its unchanged pages,
//! recognized by pointer, and of the unchanged slots of its written
//! ones ([`gsdb::codec::EncodedChunk`]), then hashed and checksummed
//! eight bytes at a time; a chunk whose four pages are all unchanged
//! costs four pointer comparisons.
//!
//! Recovery rests on one happens-before, the order of bytes in the
//! file. The open scan accepts a frame only if every frame before it
//! was accepted and its checksum continues theirs, so the valid
//! prefix is exactly a prefix of what was written — whatever subset of
//! the un-synced write a crash let through, torn, dropped or
//! bit-flipped:
//!
//! * a manifest frame is inside the valid prefix only if every chunk
//!   written before it is, and those are all the chunks it names that
//!   were not already durable — a visible manifest is a complete
//!   epoch;
//! * a write torn anywhere before its manifest frame's last byte adds
//!   at most orphan chunks to the prefix (harmless — dedup reclaims
//!   them on retry) and recovery lands on the previous persist;
//! * the next persist overwrites the wreckage from the end of the
//!   valid prefix, and the checksum chain keeps any leftover beyond
//!   its own tail from ever validating again.
//!
//! [`DurableStore::recover`] still walks a lineage's frames from the
//! newest and takes the first whose chunks all re-verify against
//! their content hashes, so a chunk that rotted *after* it was synced
//! costs one epoch, not the lineage — among the frames written since
//! the last compaction. That recovery is total over any write prefix
//! is what the kill-at-every-write-point matrix in
//! `tests/crash_matrix.rs` checks, with [`ChaosMedia`] tearing,
//! dropping and bit-flipping the un-synced write under a seeded
//! [`ChaosPolicy`].
//!
//! ## Compaction: a restart scans what is live
//!
//! The open scan reads the whole log, so without a bound a restart
//! costs the history. Once a persist leaves the log more than eight
//! times its *live bytes* — the newest manifest of every lineage and
//! the chunks those name; 1 MiB at least — [`DurableStore::compact`]
//! rewrites it as exactly that, in log order, into a fresh file that
//! [`Media::replace`] swaps in atomically (temporary file, sync,
//! rename, directory sync). The compacted file is an ordinary log of
//! this format. A crash anywhere in the rewrite leaves the old file or
//! the new one, and both hold the same newest epoch of every lineage.
//! A live chunk that no longer matches its hash stops the compaction
//! before anything is written, and the next attempt waits for the log
//! to grow eightfold again: no recoverable epoch is given up.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod hash;
pub mod log;
pub mod media;

pub use error::{DurableError, Result};
pub use hash::{chunk_hash, ChunkHash};
pub use log::{Frame, Manifest, ShardManifest, FORMAT_VERSION};
pub use media::{
    ChaosController, ChaosMedia, ChaosPolicy, CrashPlan, CrashPoint, FsMedia, Media, MemMedia,
};

use gsdb::codec::EncodedChunk;
use gsdb::stats::DurableFootprint;
use gsdb::{Chunk, EpochHandle, Store, StoreStats};
use gsview_obs::Counter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The media one durable store writes: the epoch log.
#[derive(Clone)]
pub struct MediaSet {
    /// Epoch log media.
    pub log: Arc<dyn Media>,
}

/// Name of the epoch log file under a store's directory.
const LOG_FILE: &str = "epochs.gsv";
/// Files of the format-1 layout; a directory holding one is not ours
/// to write into.
const FORMAT_1_FILES: [&str; 2] = ["segment.gsd", "epochs.gsl"];

impl MediaSet {
    /// An in-memory media — tests and benchmarks.
    pub fn memory() -> MediaSet {
        MediaSet {
            log: Arc::new(MemMedia::new()),
        }
    }

    /// The file `epochs.gsv` under `dir` (both created if absent). A
    /// directory that holds a store in the three-file layout fails
    /// with [`DurableError::Version`].
    pub fn on_dir(dir: &std::path::Path) -> Result<MediaSet> {
        std::fs::create_dir_all(dir).map_err(DurableError::from)?;
        if FORMAT_1_FILES.iter().any(|f| dir.join(f).exists()) {
            return Err(DurableError::Version {
                found: 1,
                expected: FORMAT_VERSION,
            });
        }
        Ok(MediaSet {
            log: Arc::new(FsMedia::open(&dir.join(LOG_FILE))?),
        })
    }

    /// A chaos media under `ctl` — crash-fault tests.
    pub fn chaos(ctl: &ChaosController) -> MediaSet {
        MediaSet {
            log: Arc::new(ctl.media()),
        }
    }
}

/// Caller-supplied metadata for one persist.
#[derive(Clone, Debug, Default)]
pub struct PersistMeta {
    /// The epoch the snapshot was published as.
    pub epoch: u64,
    /// Report-sequence watermark (`next_seq` + pending entries) at
    /// persist time; a recovered source resumes sequencing here.
    pub seq: u64,
}

/// What one [`DurableStore::persist`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PersistReceipt {
    /// The epoch committed.
    pub epoch: u64,
    /// Chunks newly appended to the log.
    pub chunks_appended: u64,
    /// Chunks answered by an existing one (pointer cache or content
    /// dedup) — the structural-sharing savings.
    pub chunks_reused: u64,
    /// Payload bytes appended.
    pub bytes_appended: u64,
    /// Offset of the committed manifest frame.
    pub frame_off: u64,
}

/// A recovered lineage: the rebuilt store plus the manifest it came
/// from (epoch and sequence watermark).
#[derive(Debug)]
pub struct Recovered {
    /// The manifest the store was rebuilt from.
    pub manifest: Manifest,
    /// The rebuilt store — slot layout identical to the persisted
    /// snapshot, so re-persisting it is a no-op. It neither logs nor
    /// counts accesses; a caller that wants counts switches them on
    /// ([`Store::set_count_accesses`]).
    pub store: Store,
}

/// Chunk-level read access to a durable store — what a warehouse
/// resync uses to fetch only the pages whose hashes changed. In a
/// networked deployment this is the wire interface; colocated, it is
/// served straight off the log.
pub trait ChunkPort: Send + Sync {
    /// The newest recoverable manifest of a lineage.
    fn latest_manifest(&self, name: &str) -> Option<Manifest>;
    /// Fetch one verified chunk payload.
    fn fetch_chunk(&self, hash: &ChunkHash) -> Option<Vec<u8>>;
}

/// One chunk as last persisted: its pages (held alive so `Arc` pointer
/// identity is sound), its hash, and its encoded bytes with per-slot
/// offsets. A chunk whose pages are all pointer-equal to its cached
/// version skips encoding and hashing altogether; a changed one copies
/// its unchanged pages' bytes and re-encodes only the slots that
/// changed. `encoded` is `None` for a chunk that came from
/// [`DurableStore::recover`] and has not changed since.
struct CachedChunk {
    chunk: Chunk,
    hash: ChunkHash,
    encoded: Option<EncodedChunk>,
}

/// Per-lineage persist cache, `[shard][chunk]`: persist cost is
/// O(slots touched since the last persist), the durable mirror of
/// copy-on-write.
type LineageCache = Vec<Vec<CachedChunk>>;

/// The `durable.persist.*` and `durable.compact.*` counters, resolved
/// once per store.
struct Counters {
    count: Arc<Counter>,
    chunks_appended: Arc<Counter>,
    chunks_reused: Arc<Counter>,
    bytes_appended: Arc<Counter>,
    compactions: Arc<Counter>,
    bytes_reclaimed: Arc<Counter>,
    compactions_skipped: Arc<Counter>,
}

/// A durable store over one [`MediaSet`]: content-addressed persist,
/// scan-validated recovery.
pub struct DurableStore {
    log: log::EpochLog,
    cache: Mutex<HashMap<String, LineageCache>>,
    counters: Counters,
}

impl DurableStore {
    /// Open (or create) a durable store, scanning the valid prefix of
    /// the log. A torn tail from a crash is tolerated here and
    /// overwritten by the next persist.
    pub fn open(media: MediaSet) -> Result<DurableStore> {
        let _span = gsview_obs::span!("durable.open");
        let r = gsview_obs::registry();
        Ok(DurableStore {
            log: log::EpochLog::open(media.log)?,
            cache: Mutex::new(HashMap::new()),
            counters: Counters {
                count: r.counter("durable.persist.count"),
                chunks_appended: r.counter("durable.persist.chunks_appended"),
                chunks_reused: r.counter("durable.persist.chunks_reused"),
                bytes_appended: r.counter("durable.persist.bytes_appended"),
                compactions: r.counter("durable.compact.count"),
                bytes_reclaimed: r.counter("durable.compact.bytes_reclaimed"),
                compactions_skipped: r.counter("durable.compact.skipped"),
            },
        })
    }

    /// Persist one published snapshot as a new durable epoch of
    /// lineage `name`: one write carrying the changed pages' chunks
    /// and the manifest, one sync — the commit protocol the module
    /// docs argue atomic. Returns what was actually written; unchanged
    /// pages (pointer-identical to the previous persist, or
    /// content-identical to any chunk the log holds) cost nothing, and
    /// a snapshot identical to the lineage's newest frame writes
    /// nothing at all.
    ///
    /// When the log has outgrown its live bytes by the compaction
    /// ratio, the persist then [compacts](DurableStore::compact) it. The
    /// epoch is durable by then, so a failed compaction does not fail
    /// the persist: it is counted (`durable.compact.skipped`) and the
    /// next attempt waits for the log to grow by the ratio again.
    pub fn persist(&self, name: &str, store: &Store, meta: PersistMeta) -> Result<PersistReceipt> {
        let _span = gsview_obs::span!(
            "durable.persist",
            "name" = name.to_string(),
            "epoch" = meta.epoch
        );
        let mut cache = self.persist_cache();
        let receipt = self.append_epoch(&mut cache, name, store, meta)?;
        if self.log.compaction_due() {
            // Counted and reported inside; the epoch is durable anyway.
            let _ = self.compact_with(&mut cache);
        }
        Ok(receipt)
    }

    /// The persist itself: one append of the changed pages' chunks and
    /// the manifest, then the cache update.
    fn append_epoch(
        &self,
        cache: &mut HashMap<String, LineageCache>,
        name: &str,
        store: &Store,
        meta: PersistMeta,
    ) -> Result<PersistReceipt> {
        let images = store.export_images();
        let prev = cache.get(name);
        let mut append = self.log.begin();
        let mut shards = Vec::with_capacity(images.len());
        // Chunks that changed, by position; they replace their cached
        // versions only once the log holds them.
        let mut changed = Vec::new();
        let mut receipt = PersistReceipt {
            epoch: meta.epoch,
            ..PersistReceipt::default()
        };
        for (i, img) in images.iter().enumerate() {
            let mut hashes = Vec::with_capacity(img.chunks.len());
            for (j, chunk) in img.chunks.iter().enumerate() {
                let old = prev.and_then(|c| c.get(i)?.get(j));
                let unchanged = |old: &&CachedChunk| {
                    old.chunk.iter().zip(chunk).all(|(a, b)| Arc::ptr_eq(a, b))
                };
                if let Some(old) = old.filter(unchanged) {
                    receipt.chunks_reused += 1;
                    hashes.push(old.hash);
                    continue;
                }
                let encoded = match old {
                    Some(CachedChunk {
                        chunk: old_chunk,
                        encoded: Some(old),
                        ..
                    }) => old.reencode(old_chunk, chunk),
                    _ => EncodedChunk::encode(chunk),
                };
                let (hash, fresh) = append.chunk(encoded.bytes());
                if fresh {
                    receipt.chunks_appended += 1;
                    receipt.bytes_appended += encoded.bytes().len() as u64;
                } else {
                    receipt.chunks_reused += 1;
                }
                hashes.push(hash);
                changed.push((i, j, CachedChunk {
                    chunk: chunk.clone(),
                    hash,
                    encoded: Some(encoded),
                }));
            }
            shards.push(ShardManifest {
                len_slots: img.len_slots as u64,
                pages: hashes,
            });
        }
        receipt.frame_off = append.commit(Manifest {
            name: name.to_string(),
            epoch: meta.epoch,
            version: store.version(),
            seq: meta.seq,
            shards,
        })?;
        let entry = cache.entry(name.to_string()).or_default();
        entry.resize_with(images.len(), Vec::new);
        for (img, chunks) in images.iter().zip(entry.iter_mut()) {
            chunks.truncate(img.chunks.len());
        }
        for (i, j, chunk) in changed {
            // Ascending `j` per shard: a new position is the next one.
            match entry[i].get_mut(j) {
                Some(slot) => *slot = chunk,
                None => entry[i].push(chunk),
            }
        }
        self.counters.count.incr();
        self.counters.chunks_appended.add(receipt.chunks_appended);
        self.counters.chunks_reused.add(receipt.chunks_reused);
        self.counters.bytes_appended.add(receipt.bytes_appended);
        Ok(receipt)
    }

    /// Rewrite the epoch log as its live frames — the newest manifest
    /// of every lineage and the chunks they name — in one fresh file
    /// that atomically replaces the old one ([`Media::replace`]), so
    /// that a restart scans what is live rather than everything ever
    /// written. Returns the bytes reclaimed. [`persist`] calls this
    /// once the log is more than eight times its live bytes, counting
    /// live bytes at no less than 1 MiB.
    ///
    /// A crash anywhere in it recovers the epoch it would have
    /// recovered before: the old and the new file hold the same newest
    /// manifest of every lineage. A live chunk that no longer matches
    /// its content hash fails the compaction with the log left exactly
    /// as it was, so the older epochs recovery falls back to stay.
    ///
    /// [`persist`]: DurableStore::persist
    pub fn compact(&self) -> Result<u64> {
        self.compact_with(&mut self.persist_cache())
    }

    fn compact_with(&self, cache: &mut HashMap<String, LineageCache>) -> Result<u64> {
        let _span = gsview_obs::span!("durable.compact");
        match self.log.compact() {
            // Already all live: nothing was rewritten.
            Ok(0) => Ok(0),
            Ok(reclaimed) => {
                self.counters.compactions.incr();
                self.counters.bytes_reclaimed.add(reclaimed);
                // A lineage recovered from an older frame and not
                // persisted since caches pages the compaction dropped:
                // its next persist re-encodes them.
                cache.retain(|_, pages| {
                    self.log.holds_all(pages.iter().flatten().map(|p| &p.hash))
                });
                Ok(reclaimed)
            }
            Err(e) => {
                self.counters.compactions_skipped.incr();
                gsview_obs::event!("durable.compact.failed", "error" = e.to_string());
                Err(e)
            }
        }
    }

    /// Recover the newest durable state of lineage `name`: walk its
    /// valid frames from the tail and rebuild the first one whose
    /// chunks all verify and decode. `Ok(None)` means the lineage has
    /// no recoverable frame (empty log, or every frame torn) — a cold
    /// start, not an error. Each frame skipped on the way is counted
    /// (`durable.recover.fallback`) and emitted as an event of that
    /// name carrying the lineage, the frame's epoch and the error.
    pub fn recover(&self, name: &str) -> Result<Option<Recovered>> {
        let _span = gsview_obs::span!("durable.recover", "name" = name.to_string());
        let mut back = 0;
        while let Some(frame) = self.log.frame_from_tail(name, back) {
            match self.try_build(&frame.manifest) {
                Ok(store) => {
                    gsview_obs::registry().counter("durable.recover.count").incr();
                    gsview_obs::event!(
                        "durable.recover",
                        "name" = name.to_string(),
                        "epoch" = frame.manifest.epoch
                    );
                    return Ok(Some(Recovered {
                        manifest: frame.manifest,
                        store,
                    }));
                }
                Err(e) => {
                    // An unresolvable frame (missing/corrupt chunk,
                    // image the store rejects): fall back to the
                    // previous persist of this lineage, and say why.
                    gsview_obs::registry().counter("durable.recover.fallback").incr();
                    gsview_obs::event!(
                        "durable.recover.fallback",
                        "name" = name.to_string(),
                        "epoch" = frame.manifest.epoch,
                        "error" = e.to_string()
                    );
                    back += 1;
                }
            }
        }
        Ok(None)
    }

    /// Rebuild a store from a manifest against this log's chunks
    /// ([`Manifest::rebuild`]), seeding the persist cache so a
    /// re-persist of the recovered (unchanged) store appends nothing.
    fn try_build(&self, m: &Manifest) -> Result<Store> {
        let mut read = Vec::with_capacity(m.page_count());
        let store = m.rebuild(|&hash| {
            let payload = self.log.get(&hash)?.ok_or_else(|| {
                DurableError::Corrupt(format!("chunk {hash} missing or corrupt"))
            })?;
            let chunk = gsdb::codec::decode_chunk(&payload)?;
            read.push(CachedChunk { chunk: chunk.clone(), hash, encoded: None });
            Ok(chunk)
        })?;
        let mut read = read.into_iter();
        let by_shard = m.shards.iter().map(|sm| read.by_ref().take(sm.pages.len()).collect());
        self.persist_cache().insert(m.name.clone(), by_shard.collect());
        Ok(store)
    }

    /// The persist cache, cleared if a panic poisoned it: it only saves
    /// encoding work, and a chunk encoded afresh is found in the log by
    /// its content hash, so the manifest and bytes appended are the same.
    fn persist_cache(&self) -> MutexGuard<'_, HashMap<String, LineageCache>> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            self.cache.clear_poison();
            let mut cache = poisoned.into_inner();
            cache.clear();
            cache
        })
    }

    /// Valid frames of one lineage, in log order (diagnostics and
    /// tests).
    pub fn frames_for(&self, name: &str) -> Vec<Frame> {
        self.log.frames_for(name)
    }

    /// The durable footprint (chunk count, log and live bytes, dedup
    /// savings), also mirrored into the obs metrics registry as
    /// `durable.segment.*` gauges.
    pub fn footprint(&self) -> DurableFootprint {
        let (chunks, segment_bytes, appended, deduped, live_bytes) = self.log.footprint();
        let fp = DurableFootprint {
            chunks,
            segment_bytes,
            live_bytes,
            appended_bytes: appended,
            deduped_bytes: deduped,
            dedup_ratio: if appended + deduped == 0 {
                0.0
            } else {
                deduped as f64 / (appended + deduped) as f64
            },
        };
        let r = gsview_obs::registry();
        for (name, v) in [
            ("durable.segment.chunks", chunks),
            ("durable.segment.bytes", segment_bytes),
            ("durable.segment.live_bytes", live_bytes),
            ("durable.segment.appended_bytes", appended),
            ("durable.segment.deduped_bytes", deduped),
        ] {
            let c = r.counter(name);
            c.reset();
            c.add(v);
        }
        fp
    }
}

impl ChunkPort for DurableStore {
    fn latest_manifest(&self, name: &str) -> Option<Manifest> {
        self.log.frame_from_tail(name, 0).map(|f| f.manifest)
    }
    fn fetch_chunk(&self, hash: &ChunkHash) -> Option<Vec<u8>> {
        self.log.get(hash).ok().flatten()
    }
}

/// [`gsdb::stats_at`] plus the durable footprint: statistics over the
/// latest published epoch with [`StoreStats::durable`] filled in.
pub fn stats_with_footprint(handle: &EpochHandle, d: &DurableStore) -> (u64, StoreStats) {
    let (epoch, mut stats) = gsdb::stats_at(handle);
    stats.durable = Some(d.footprint());
    (epoch, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{Object, Oid, StoreConfig, Update};

    fn build_store(shards: usize, n: usize) -> Store {
        let mut s = Store::with_config(StoreConfig::default().with_shards(shards));
        s.create(Object::empty_set("R", "root")).unwrap();
        for i in 0..n {
            s.create(Object::atom(format!("o{i}").as_str(), "x", i as i64)).unwrap();
            s.apply(Update::insert("R", format!("o{i}").as_str())).unwrap();
        }
        s
    }

    fn meta(epoch: u64) -> PersistMeta {
        PersistMeta {
            epoch,
            seq: epoch * 2,
        }
    }

    #[test]
    fn persist_recover_roundtrip() {
        let d = DurableStore::open(MediaSet::memory()).unwrap();
        let s = build_store(4, 40);
        let r = d.persist("src", &s.fork(), meta(1)).unwrap();
        assert!(r.chunks_appended > 0);
        let rec = d.recover("src").unwrap().unwrap();
        assert_eq!(rec.manifest.epoch, 1);
        assert_eq!(rec.manifest.seq, 2);
        rec.store.check_invariants().unwrap();
        assert_eq!(rec.store.oids_sorted(), s.oids_sorted());
        for o in s.oids_sorted() {
            assert_eq!(rec.store.get(o), s.get(o));
            assert_eq!(rec.store.slot_of(o), s.slot_of(o), "slot layout must survive");
        }
    }

    #[test]
    fn unchanged_pages_are_not_rewritten() {
        let d = DurableStore::open(MediaSet::memory()).unwrap();
        let mut s = build_store(4, 100);
        d.persist("src", &s.fork(), meta(1)).unwrap();
        // Identical state: nothing appended, everything reused.
        let r2 = d.persist("src", &s.fork(), meta(2)).unwrap();
        assert_eq!(r2.chunks_appended, 0);
        assert!(r2.chunks_reused > 0);
        // One object touched: at most a couple of pages rewritten
        // (the touched page, not the whole store).
        let total_pages: u64 = r2.chunks_appended + r2.chunks_reused;
        s.modify_atom(Oid::new("o17"), -1i64).unwrap();
        let r3 = d.persist("src", &s.fork(), meta(3)).unwrap();
        assert!(r3.chunks_appended >= 1);
        assert!(
            r3.chunks_appended <= 2,
            "one modify rewrote {} of {total_pages} pages",
            r3.chunks_appended
        );
    }

    #[test]
    fn recovered_store_repersists_as_noop() {
        let media = MediaSet::memory();
        let s = build_store(2, 30);
        {
            let d = DurableStore::open(media.clone()).unwrap();
            d.persist("src", &s.fork(), meta(1)).unwrap();
        }
        // Fresh process: open again, recover, persist the recovered
        // store — structural sharing must survive the restart.
        let d = DurableStore::open(media).unwrap();
        let rec = d.recover("src").unwrap().unwrap();
        let r = d.persist("src", &rec.store, meta(2)).unwrap();
        assert_eq!(r.chunks_appended, 0, "recovery must not reshuffle pages");
    }

    #[test]
    fn every_chunk_is_exactly_encode_page_across_edits_and_a_restart() {
        let media = MediaSet::memory();
        let check = |d: &DurableStore, s: &Store, when: &str| {
            let m = d.latest_manifest("src").unwrap();
            for (img, sm) in s.export_images().iter().zip(&m.shards) {
                for (chunk, h) in img.chunks.iter().zip(&sm.pages) {
                    let slots: Vec<_> = chunk.iter().flat_map(|p| p.iter().cloned()).collect();
                    assert_eq!(
                        d.fetch_chunk(h).as_deref(),
                        Some(&gsdb::codec::encode_page(&slots)[..]),
                        "{when}"
                    );
                }
            }
        };
        let mut s = build_store(2, 300);
        let d = DurableStore::open(media.clone()).unwrap();
        d.persist("src", &s.fork(), meta(1)).unwrap();
        check(&d, &s, "baseline");
        let mut epoch = 1;
        let mut edit = |s: &mut Store, d: &DurableStore, round: usize| {
            s.modify_atom(Oid::new(format!("o{}", round * 7).as_str()), -(round as i64)).unwrap();
            s.apply(Update::delete("R", format!("o{}", round * 3 + 1).as_str())).unwrap();
            s.create(Object::atom(format!("n{round}").as_str(), "y", 0.5f64)).unwrap();
            s.apply(Update::insert("R", format!("n{round}").as_str())).unwrap();
            epoch += 1;
            let r = d.persist("src", &s.fork(), meta(epoch)).unwrap();
            assert!(r.chunks_appended >= 1);
            check(d, s, &format!("round {round}"));
        };
        for round in 0..6 {
            edit(&mut s, &d, round);
        }
        // Restart: the first persist of each page has no cached bytes.
        drop(d);
        let d = DurableStore::open(media).unwrap();
        let mut s = d.recover("src").unwrap().unwrap().store;
        for round in 6..10 {
            edit(&mut s, &d, round);
        }
    }

    /// Every manifest's chunk hashes and the checksum of the whole log
    /// after a fixed script, as recorded when store pages were still
    /// the 256-slot chunks themselves: the in-memory page size is not
    /// part of the format.
    const RECORDED_CHUNKS: &str = "\
e1: c20aeaff34fc865a08879a296a56ba59 ef1ba6906ddff32cd1e7fc3b0f3721f1 57f04a6e960ec4f573013170f7f2a8c2
e2: f76a68ab9a9af149fbecf44e4ee38bbb ef1ba6906ddff32cd1e7fc3b0f3721f1 8372fc53ba954572660a226d7b03de86
e3: d4089036a3f95f7af725dc4a27c63653 e31a87dab6328045b5947e8f00cb6fea 8372fc53ba954572660a226d7b03de86
e4: d4089036a3f95f7af725dc4a27c63653 e31a87dab6328045b5947e8f00cb6fea 347be5ab87b2d31fa8e34126c4f54dae
e5: d4089036a3f95f7af725dc4a27c63653 e31a87dab6328045b5947e8f00cb6fea bfc5e0eb2aa2dc9c952f9080b5266be5 067cbcdb4d9c77a4e794ec81808e427e 1c7d75fb77e700579acd4c59853d6639
e6: d4089036a3f95f7af725dc4a27c63653 e31a87dab6328045b5947e8f00cb6fea bfc5e0eb2aa2dc9c952f9080b5266be5 2bb9a8c82730463e9a30c051ad0ce2fa 1c7d75fb77e700579acd4c59853d6639
log 57383 bytes, crc 7ecb123e
";

    #[test]
    fn a_fixed_script_writes_the_recorded_chunks() {
        let name = |i: usize| format!("pin{i}");
        let media = MediaSet::memory();
        let d = DurableStore::open(media.clone()).unwrap();
        let mut s = Store::new();
        s.create(Object::empty_set("pinR", "root")).unwrap();
        for i in 0..700 {
            s.create(Object::atom(name(i).as_str(), "x", i as i64))
                .unwrap();
            s.apply(Update::insert("pinR", name(i).as_str())).unwrap();
        }
        let mut epoch = 0;
        let mut persist = |d: &DurableStore, s: &Store| {
            epoch += 1;
            d.persist("pin", &s.fork(), meta(epoch)).unwrap();
        };
        persist(&d, &s);
        // Two chunks written, the rest untouched.
        s.modify_atom(Oid::new("pin17"), -17i64).unwrap();
        s.modify_atom(Oid::new("pin600"), 0.25f64).unwrap();
        persist(&d, &s);
        // A freed slot, reused by a new object.
        s.apply(Update::delete("pinR", "pin300")).unwrap();
        s.apply(Update::Remove {
            oid: Oid::new("pin300"),
        })
        .unwrap();
        s.create(Object::set(
            "pinS",
            "set",
            &[Oid::new("pin1"), Oid::new("pin2")],
        ))
        .unwrap();
        persist(&d, &s);
        // Growth into the tail of the last chunk, then past it.
        for i in 700..1100 {
            s.create(Object::atom(
                name(i).as_str(),
                "y",
                gsdb::Atom::str(&name(i)),
            ))
            .unwrap();
            if i == 760 {
                persist(&d, &s);
            }
        }
        persist(&d, &s);
        // A restart: the first persist after it has no cached bytes.
        drop(d);
        let d = DurableStore::open(media.clone()).unwrap();
        let mut s = d.recover("pin").unwrap().unwrap().store;
        s.modify_atom(Oid::new("pin1000"), true).unwrap();
        persist(&d, &s);

        let mut summary = String::new();
        for f in d.frames_for("pin") {
            summary += &format!("e{}:", f.manifest.epoch);
            for sm in &f.manifest.shards {
                for h in &sm.pages {
                    summary += &format!(" {h}");
                }
            }
            summary += "\n";
        }
        let log = media.log.read_at(0, media.log.len() as usize).unwrap();
        summary += &format!(
            "log {} bytes, crc {:08x}\n",
            log.len(),
            gsdb::codec::crc32(&log)
        );
        assert_eq!(summary, RECORDED_CHUNKS);
    }

    #[test]
    fn a_poisoned_persist_cache_is_cleared_and_persists_the_same_epoch() {
        let d = DurableStore::open(MediaSet::memory()).unwrap();
        let s = build_store(2, 300);
        d.persist("poisoned", &s.fork(), meta(1)).unwrap();
        let written = d.latest_manifest("poisoned").unwrap();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = d.cache.lock();
                panic!("a panic while the persist cache is held");
            });
            assert!(holder.join().is_err());
        });
        assert!(d.cache.is_poisoned());

        let r = d.persist("poisoned", &s.fork(), meta(1)).unwrap();
        assert_eq!(r.bytes_appended, 0, "every chunk is found in the log");
        assert_eq!(r.chunks_appended, 0);
        assert_eq!(d.latest_manifest("poisoned").unwrap(), written);
        assert!(!d.cache.is_poisoned(), "the lock is usable again");
        assert_eq!(d.persist_cache()["poisoned"].len(), 2, "and holds the lineage again");
    }

    #[test]
    fn recovery_falls_back_past_a_chunk_that_rotted_after_its_sync() {
        let media = MediaSet::memory();
        let d = DurableStore::open(media.clone()).unwrap();
        let mut s = build_store(1, 40);
        d.persist("rotted", &s.fork(), meta(1)).unwrap();
        s.modify_atom(Oid::new("o7"), -7i64).unwrap();
        d.persist("rotted", &s.fork(), meta(2)).unwrap();
        let newest = d.latest_manifest("rotted").unwrap().shards[0].pages[0];
        let page = d.fetch_chunk(&newest).unwrap();
        let bytes = media.log.read_at(0, media.log.len() as usize).unwrap();
        let at = bytes.windows(page.len()).rposition(|w| w == page).unwrap();
        media
            .log
            .write_at(at as u64 + 3, &[bytes[at + 3] ^ 1], CrashPoint::Other)
            .unwrap();
        // Other tests of this binary emit into the ring while it is
        // installed: size it for them.
        let recorder = Arc::new(gsview_obs::FlightRecorder::with_capacity(1 << 16));
        let guard = gsview_obs::install(recorder.clone());
        let rec = d.recover("rotted").unwrap().expect("epoch 1 is intact");
        drop(guard);
        assert_eq!(rec.manifest.epoch, 1);
        assert_eq!(rec.store.atom(Oid::new("o7")), Some(&gsdb::Atom::Int(7)));
        // The skipped frame says why: its epoch, and the chunk that rotted.
        let fallbacks: Vec<_> = recorder
            .drain()
            .into_iter()
            .filter(|r| r.event.name == "durable.recover.fallback")
            .map(|r| ["name", "epoch", "error"].map(|k| r.event.field(k).map(|v| v.to_string())))
            .filter(|[name, ..]| name.as_deref() == Some("rotted"))
            .collect();
        assert_eq!(fallbacks.len(), 1, "{fallbacks:?}");
        let [_, epoch, error] = &fallbacks[0];
        assert_eq!(epoch.as_deref(), Some("2"));
        let error = error.as_deref().unwrap_or_default();
        assert!(error.contains(&newest.to_string()), "{error}");
    }

    #[test]
    fn a_manifest_with_the_parent_index_bit_clear_recovers_an_indexed_store() {
        use gsdb::codec::{crc32_update, frame_head, put_str, put_varint, FRAME_HEADER_LEN};
        // A shared child, so some object has two parents.
        let mut s = build_store(2, 30);
        let bag = Object::set("B", "bag", &[Oid::new("o3"), Oid::new("o4")]);
        s.create(bag).unwrap();
        s.apply(Update::insert("R", "B")).unwrap();
        let written = MediaSet::memory();
        let d = DurableStore::open(written.clone()).unwrap();
        d.persist("src", &s.fork(), meta(1)).unwrap();
        let mut bytes = written.log.read_at(0, written.log.len() as usize).unwrap();

        // Clear bit 0 of the manifest's flags byte (it follows the
        // name, epoch, version and seq) and re-checksum the frame from
        // the chain of the frame before it.
        let off = d.frames_for("src").last().unwrap().off as usize;
        let mut head = Vec::new();
        put_str(&mut head, "src");
        for v in [1, s.version(), 2] {
            put_varint(&mut head, v);
        }
        let body = off + FRAME_HEADER_LEN;
        assert_eq!(bytes[body + head.len()] & 1, 1, "the writer sets bit 0");
        bytes[body + head.len()] &= !1;
        let (mut pos, mut chain) = (0, 0);
        while pos < off {
            let h = frame_head(&bytes[pos..]).unwrap();
            chain = h.crc;
            pos += FRAME_HEADER_LEN + h.len;
        }
        let len = frame_head(&bytes[off..]).unwrap().len;
        let crc = crc32_update(chain, &bytes[body..body + len]);
        bytes[off + 5..body].copy_from_slice(&crc.to_le_bytes());

        let media = MediaSet {
            log: Arc::new(media::MemMedia::from_bytes(bytes)),
        };
        let rec = DurableStore::open(media).unwrap().recover("src").unwrap().unwrap();
        rec.store.check_invariants().unwrap();
        assert_eq!(rec.store.parents(Oid::new("o3")).len(), 2);
        for o in s.oids_sorted() {
            let parents = |st: &Store| st.parents(o).iter().collect::<Vec<_>>();
            assert_eq!(parents(&rec.store), parents(&s), "parents of {o}");
        }
    }

    #[test]
    fn a_manifest_an_old_logging_and_counting_source_wrote_recovers_and_reports_on() {
        use gsdb::codec::{crc32_update, frame_head, put_str, put_varint, FRAME_HEADER_LEN};
        let s = build_store(2, 30);
        let written = MediaSet::memory();
        let d = DurableStore::open(written.clone()).unwrap();
        d.persist("old", &s.fork(), meta(3)).unwrap();
        let mut bytes = written.log.read_at(0, written.log.len() as usize).unwrap();

        // Set the flags byte (after the name, epoch, version and seq) to
        // what a logging, counting source wrote, and re-checksum the
        // frame from the chain of the frame before it.
        let off = d.frames_for("old").last().unwrap().off as usize;
        let mut head = Vec::new();
        put_str(&mut head, "old");
        for v in [3, s.version(), 6] {
            put_varint(&mut head, v);
        }
        let body = off + FRAME_HEADER_LEN;
        assert_eq!(bytes[body + head.len()], 0b011, "the writer's constant");
        bytes[body + head.len()] = 0b1111;
        let (mut pos, mut chain) = (0, 0);
        while pos < off {
            let h = frame_head(&bytes[pos..]).unwrap();
            chain = h.crc;
            pos += FRAME_HEADER_LEN + h.len;
        }
        let len = frame_head(&bytes[off..]).unwrap().len;
        let crc = crc32_update(chain, &bytes[body..body + len]);
        bytes[off + 5..body].copy_from_slice(&crc.to_le_bytes());

        let media = MediaSet {
            log: Arc::new(media::MemMedia::from_bytes(bytes)),
        };
        let rec = DurableStore::open(media).unwrap().recover("old").unwrap().unwrap();
        let slots = |st: &Store| -> Vec<(usize, Vec<Option<Object>>)> {
            st.export_images()
                .iter()
                .map(|img| {
                    let pages = img.chunks.iter().flatten();
                    (img.len_slots, pages.flat_map(|p| p.iter().cloned()).collect())
                })
                .collect()
        };
        assert_eq!(slots(&rec.store), slots(&s), "the recovered store equals the persisted one");
        assert!(!rec.store.counts_accesses(), "the old counting bit is ignored");
        assert_eq!((rec.manifest.epoch, rec.manifest.seq), (3, 6));

        // What `Source::recover` builds: the pipeline resumes at the
        // persisted epoch and watermark, and reports the next commit.
        let pipeline = gsdb::ShardedStore::restore(rec.store, 3, 6);
        pipeline.commit(&[Update::modify("o7", -7i64)]).into_result().unwrap();
        let (first_seq, entries, snapshot) = pipeline.drain_reports();
        assert_eq!((first_seq, entries.len()), (6, 1));
        assert_eq!(snapshot.atom(Oid::new("o7")), Some(&gsdb::Atom::Int(-7)));
    }

    #[test]
    fn multiple_lineages_share_one_media_set() {
        let d = DurableStore::open(MediaSet::memory()).unwrap();
        let a = build_store(2, 10);
        let b = build_store(2, 10); // same content, different lineage
        d.persist("a", &a.fork(), meta(1)).unwrap();
        let rb = d.persist("b", &b.fork(), meta(1)).unwrap();
        assert_eq!(rb.chunks_appended, 0, "cross-lineage dedup");
        assert_eq!(d.recover("a").unwrap().unwrap().manifest.name, "a");
        assert_eq!(d.recover("b").unwrap().unwrap().manifest.name, "b");
        assert!(d.recover("ghost").unwrap().is_none());
    }

    #[test]
    fn footprint_reports_dedup() {
        let d = DurableStore::open(MediaSet::memory()).unwrap();
        let s = build_store(1, 50);
        d.persist("src", &s.fork(), meta(1)).unwrap();
        // Recreate the identical pages under another lineage without
        // the pointer cache: all bytes dedup by content.
        let twin = build_store(1, 50);
        d.persist("twin", &twin.fork(), meta(1)).unwrap();
        let fp = d.footprint();
        assert!(fp.chunks > 0);
        assert!(fp.deduped_bytes > 0);
        assert!(fp.dedup_ratio > 0.0 && fp.dedup_ratio < 1.0);
        assert_eq!(
            gsview_obs::registry().snapshot().counter("durable.segment.chunks"),
            fp.chunks
        );
    }

    /// 600 atoms of 2 KiB on one shard: three chunks, ≈ 1.2 MiB live —
    /// past the compaction floor, so the ratio alone decides.
    fn wide_store() -> Store {
        let mut s = Store::new();
        for i in 0..600 {
            s.create(Object::atom(format!("cw{i}").as_str(), "x", wide(i))).unwrap();
        }
        s
    }

    fn wide(v: usize) -> gsdb::Atom {
        gsdb::Atom::Str(format!("{v:0>2048}").into())
    }

    /// Modify one atom of the second chunk per epoch, so each epoch
    /// appends a ≈ 512 KiB chunk and supersedes the last one.
    fn churn_wide(s: &mut Store, epoch: u64) {
        s.modify_atom(Oid::new(format!("cw{}", 256 + epoch % 200).as_str()), wide(epoch as usize))
            .unwrap();
    }

    #[test]
    fn after_every_persist_the_log_is_within_the_ratio_of_its_live_bytes() {
        let media = MediaSet::memory();
        let d = DurableStore::open(media.clone()).unwrap();
        let mut s = wide_store();
        for epoch in 1..=60 {
            churn_wide(&mut s, epoch);
            d.persist("src", &s.fork(), meta(epoch)).unwrap();
            let fp = d.footprint();
            assert!(fp.live_bytes > 1 << 20);
            assert_eq!(fp.segment_bytes, media.log.len());
            assert!(
                fp.segment_bytes <= 8 * fp.live_bytes,
                "epoch {epoch}: {} log bytes for {} live",
                fp.segment_bytes,
                fp.live_bytes
            );
        }
        let frames = d.frames_for("src");
        assert!(frames.len() < 30, "{} frames: compaction never ran", frames.len());
        let d = DurableStore::open(media).unwrap();
        let rec = d.recover("src").unwrap().unwrap();
        assert_eq!(rec.manifest.epoch, 60);
        assert_eq!(rec.store.oids_sorted(), s.oids_sorted());
        for o in s.oids_sorted() {
            assert_eq!(rec.store.get(o), s.get(o));
        }
    }

    #[test]
    fn an_uncompacted_log_opens_recovers_and_compacts_on_the_first_persist() {
        // What a build without compaction leaves: every epoch appended.
        let media = MediaSet::memory();
        let d = DurableStore::open(media.clone()).unwrap();
        let mut s = wide_store();
        for epoch in 1..=40 {
            churn_wide(&mut s, epoch);
            d.append_epoch(&mut d.cache.lock().unwrap(), "src", &s.fork(), meta(epoch)).unwrap();
        }
        let history = media.log.len();
        drop(d);

        let d = DurableStore::open(media.clone()).unwrap();
        assert_eq!(d.frames_for("src").len(), 40);
        let rec = d.recover("src").unwrap().unwrap();
        assert_eq!(rec.manifest.epoch, 40);
        // The re-attach persist appends nothing and compacts.
        let r = d.persist("src", &rec.store, meta(40)).unwrap();
        assert_eq!(r.chunks_appended, 0);
        let fp = d.footprint();
        assert_eq!(fp.segment_bytes, fp.live_bytes);
        assert!(fp.segment_bytes * 8 < history, "{} of {history} bytes left", fp.segment_bytes);
        assert_eq!(d.frames_for("src").len(), 1);
        // Re-persisting the recovered store still appends nothing.
        let len = media.log.len();
        let r = d.persist("src", &rec.store, meta(40)).unwrap();
        assert_eq!((r.chunks_appended, media.log.len()), (0, len));
        let rec = DurableStore::open(media).unwrap().recover("src").unwrap().unwrap();
        assert_eq!(rec.manifest.epoch, 40);
        assert_eq!(rec.store.atom(Oid::new("cw296")), s.atom(Oid::new("cw296")));
    }

    #[test]
    fn a_cache_seeded_from_an_older_frame_does_not_outlive_its_chunks() {
        let media = MediaSet::memory();
        let d = DurableStore::open(media.clone()).unwrap();
        let mut s = build_store(1, 40);
        d.persist("src", &s.fork(), meta(1)).unwrap();
        s.modify_atom(Oid::new("o7"), -7i64).unwrap();
        d.persist("src", &s.fork(), meta(2)).unwrap();
        // A recovery that fell back seeds the cache from epoch 1 …
        let older = d.try_build(&d.frames_for("src")[0].manifest).unwrap();
        // … and the compaction drops the chunk only epoch 1 named.
        d.compact().unwrap();
        let r = d.persist("src", &older, meta(3)).unwrap();
        assert_eq!(r.chunks_appended, 1, "the dropped page is written again");
        let rec = DurableStore::open(media).unwrap().recover("src").unwrap().unwrap();
        assert_eq!(rec.manifest.epoch, 3);
        assert_eq!(rec.store.atom(Oid::new("o7")), Some(&gsdb::Atom::Int(7)));
    }

    #[test]
    fn a_rotted_live_chunk_skips_the_compaction_and_recovery_falls_back() {
        let media = MediaSet::memory();
        let d = DurableStore::open(media.clone()).unwrap();
        let mut s = build_store(1, 40);
        d.persist("src", &s.fork(), meta(1)).unwrap();
        s.modify_atom(Oid::new("o7"), -7i64).unwrap();
        d.persist("src", &s.fork(), meta(2)).unwrap();
        let newest = d.latest_manifest("src").unwrap().shards[0].pages[0];
        let page = d.fetch_chunk(&newest).unwrap();
        let bytes = media.log.read_at(0, media.log.len() as usize).unwrap();
        let at = bytes.windows(page.len()).rposition(|w| w == page).unwrap();
        media.log.write_at(at as u64, &[bytes[at] ^ 1], CrashPoint::Other).unwrap();
        let len = media.log.len();
        assert!(matches!(d.compact(), Err(DurableError::Corrupt(_))));
        assert_eq!(media.log.len(), len);
        assert_eq!(d.recover("src").unwrap().unwrap().manifest.epoch, 1);
    }

    /// The reader's side of [`Interleaved`]: whom to tell it has looked
    /// a chunk up, and where to wait until the writer is done.
    type Handoff = (std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>);

    thread_local! {
        static HANDOFF: std::cell::RefCell<Option<Handoff>> = const { std::cell::RefCell::new(None) };
        /// Set on the reader thread before a chunk read the writer is
        /// to run ahead of.
        static ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// An in-memory media whose armed read — the read right after a
    /// chunk lookup — first hands over to the writer and waits for it:
    /// the interleaving lookup, compaction, read, every time.
    struct Interleaved(MemMedia);

    impl Media for Interleaved {
        fn len(&self) -> u64 {
            self.0.len()
        }
        fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
            if ARMED.with(|a| a.replace(false)) {
                HANDOFF.with(|h| {
                    let h = h.borrow();
                    let (looked_up, written) = h.as_ref().expect("armed on the reader");
                    looked_up.send(()).expect("the writer waits");
                    written.recv().expect("the writer answers");
                });
            }
            self.0.read_at(off, len)
        }
        fn write_at(&self, off: u64, data: &[u8], point: CrashPoint) -> Result<()> {
            self.0.write_at(off, data, point)
        }
        fn sync(&self, point: CrashPoint) -> Result<()> {
            self.0.sync(point)
        }
        fn replace(&self, data: &[u8]) -> Result<()> {
            self.0.replace(data)
        }
    }

    #[test]
    fn a_chunk_read_racing_compactions_never_misses_a_live_chunk() {
        let d = DurableStore::open(MediaSet {
            log: Arc::new(Interleaved(MemMedia::new())),
        })
        .unwrap();
        // Small filler lineages, then the one the reader reads. Every
        // round below supersedes one filler, whose dead chunk sat before
        // the read lineage's: each compaction moves every chunk read.
        let filler = |k: usize, v: i64| {
            let mut s = Store::new();
            s.create(Object::atom(format!("rf{k}").as_str(), "x", v)).unwrap();
            s
        };
        const ROUNDS: usize = 20;
        for k in 0..ROUNDS {
            d.persist(&format!("filler{k}"), &filler(k, 0), meta(1)).unwrap();
        }
        d.persist("read", &build_store(1, 600).fork(), meta(1)).unwrap();
        let live = d.latest_manifest("read").unwrap().shards[0].pages.clone();
        let (looked_up, looked_up_rx) = std::sync::mpsc::channel();
        let (written_tx, written) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Dropped with the thread, which ends the writer's loop.
                HANDOFF.with(|h| *h.borrow_mut() = Some((looked_up, written)));
                for round in 0..ROUNDS {
                    ARMED.with(|a| a.set(true));
                    let h = &live[round % live.len()];
                    assert!(d.fetch_chunk(h).is_some(), "round {round}: live chunk {h} missed");
                }
            });
            let mut k = 0;
            while looked_up_rx.recv().is_ok() {
                d.persist(&format!("filler{k}"), &filler(k, 1), meta(2)).unwrap();
                assert!(d.compact().unwrap() > 0);
                written_tx.send(()).unwrap();
                k += 1;
            }
            assert_eq!(k, ROUNDS, "one compaction inside every read");
        });
    }
}
