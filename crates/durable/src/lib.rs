//! # gsview-durable — the durable epoch log
//!
//! Persistence for gsview stores: every epoch a
//! [`ShardedStore`](gsdb::ShardedStore) publishes can be made
//! crash-recoverable, so sources and the warehouse restart **warm** —
//! loading the last durable root instead of re-querying and
//! recomputing, which is exactly the cost the paper's warehouse
//! architecture (§3) exists to avoid.
//!
//! ## Layout
//!
//! Three media (files) make up one durable store:
//!
//! * **Chunk segment** ([`segment`]): each copy-on-write slab page is
//!   encoded ([`gsdb::codec`]) and appended once per distinct content
//!   hash — content addressing turns the store's structural sharing
//!   into storage sharing, so persisting an epoch writes only the
//!   pages that epoch actually changed.
//! * **Epoch log** ([`log`]): one CRC-framed [`Manifest`] per persist
//!   — lineage name, epoch, sequence watermark, store flags, and the
//!   per-shard page-hash lists. One log serves many lineages (a
//!   source and every warehouse view can share a [`MediaSet`]).
//! * **Root pointer** ([`root`]): a double-slot ping-pong cell naming
//!   the frame that completed the latest persist.
//!
//! ## The commit protocol and why recovery is atomic
//!
//! A persist writes in this order, with sync barriers between layers:
//! chunks → segment sync → manifest frame → log sync → root swap →
//! root sync. Every arrow is a happens-before at the media level, so
//! at any crash the durable state is a *prefix* of that order; each
//! prefix recovers to a committed epoch:
//!
//! * torn chunks — the segment scan drops them; the previous root
//!   still commits the previous persist;
//! * chunks durable, frame torn or missing — the log scan drops the
//!   tail; recovery replays the previous frame (orphan chunks are
//!   harmless — dedup reclaims them on retry);
//! * frame durable, root write lost or torn — the ping-pong cell still
//!   holds the previous record, and recovery *scans* the log rather
//!   than trusting the root, so the newer frame is still found and
//!   used when its chunks are all present.
//!
//! The root is therefore a hint, not an authority:
//! [`DurableStore::recover`] walks a lineage's valid frames from the
//! tail and takes the newest one whose chunks all verify. That is
//! what makes recovery total over *any* write prefix — the property
//! the kill-at-every-write-point matrix in `tests/crash_matrix.rs`
//! checks, with [`ChaosMedia`] tearing, dropping, bit-flipping, and
//! reordering the un-synced suffix under a seeded [`ChaosPolicy`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod hash;
pub mod log;
pub mod media;
pub mod root;
pub mod segment;

pub use error::{DurableError, Result};
pub use hash::{chunk_hash, ChunkHash};
pub use log::{Frame, Manifest, ShardManifest, StoreFlags};
pub use media::{
    ChaosController, ChaosMedia, ChaosPolicy, CrashPlan, CrashPoint, FsMedia, Media, MemMedia,
};
pub use root::{RootPointer, RootRecord};
pub use segment::SegmentStore;

use gsdb::stats::DurableFootprint;
use gsdb::{EpochHandle, ShardImage, Store, StoreStats};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The three media one durable store writes: chunk segment, epoch
/// log, root cell.
#[derive(Clone)]
pub struct MediaSet {
    /// Chunk segment media.
    pub segment: Arc<dyn Media>,
    /// Epoch log media.
    pub log: Arc<dyn Media>,
    /// Root pointer media.
    pub root: Arc<dyn Media>,
}

impl MediaSet {
    /// Three in-memory media — tests and benchmarks.
    pub fn memory() -> MediaSet {
        MediaSet {
            segment: Arc::new(MemMedia::new()),
            log: Arc::new(MemMedia::new()),
            root: Arc::new(MemMedia::new()),
        }
    }

    /// Three files under `dir` (created if absent): `segment.gsd`,
    /// `epochs.gsl`, `root.gsr`.
    pub fn on_dir(dir: &std::path::Path) -> Result<MediaSet> {
        std::fs::create_dir_all(dir).map_err(DurableError::from)?;
        Ok(MediaSet {
            segment: Arc::new(FsMedia::open(&dir.join("segment.gsd"))?),
            log: Arc::new(FsMedia::open(&dir.join("epochs.gsl"))?),
            root: Arc::new(FsMedia::open(&dir.join("root.gsr"))?),
        })
    }

    /// Three chaos media under one controller — crash-fault tests.
    /// Allocation order (segment, log, root) is part of the seeded
    /// schedule, so equal seeds replay identical fault histories.
    pub fn chaos(ctl: &ChaosController) -> MediaSet {
        MediaSet {
            segment: Arc::new(ctl.media()),
            log: Arc::new(ctl.media()),
            root: Arc::new(ctl.media()),
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
    /// Whether the *live* store logs updates. (Published snapshots
    /// are forks with logging stripped, so this cannot be read off
    /// the snapshot itself.)
    pub log_updates: bool,
    /// Opaque caller metadata carried in the manifest (the warehouse
    /// stores reconciliation state here).
    pub extra: Vec<u8>,
}

/// What one [`DurableStore::persist`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PersistReceipt {
    /// The epoch committed.
    pub epoch: u64,
    /// Chunks newly appended to the segment.
    pub chunks_appended: u64,
    /// Pages answered by an existing chunk (pointer cache or segment
    /// dedup) — the structural-sharing savings.
    pub chunks_reused: u64,
    /// Payload bytes appended.
    pub bytes_appended: u64,
    /// Offset of the committed manifest frame.
    pub frame_off: u64,
}

/// A recovered lineage: the rebuilt store plus the manifest it came
/// from (epoch, sequence watermark, caller extra).
#[derive(Debug)]
pub struct Recovered {
    /// The manifest the store was rebuilt from.
    pub manifest: Manifest,
    /// The rebuilt store — slot layout identical to the persisted
    /// snapshot, so re-persisting it is a no-op.
    pub store: Store,
}

/// Chunk-level read access to a durable store — what a warehouse
/// resync uses to fetch only the pages whose hashes changed. In a
/// networked deployment this is the wire interface; colocated, it is
/// served straight off the segment.
pub trait ChunkPort: Send + Sync {
    /// The newest recoverable manifest of a lineage.
    fn latest_manifest(&self, name: &str) -> Option<Manifest>;
    /// Fetch one verified chunk payload.
    fn fetch_chunk(&self, hash: &ChunkHash) -> Option<Vec<u8>>;
}

/// Per-lineage persist cache: the previously persisted images (held
/// alive so `Arc` pointer identity is sound) and their page hashes.
/// An unchanged page is recognized by pointer equality and skips both
/// encoding and hashing — persist cost is O(pages touched since the
/// last persist), the durable mirror of copy-on-write.
struct CacheEntry {
    images: Vec<ShardImage>,
    hashes: Vec<Vec<ChunkHash>>,
}

/// A durable store over one [`MediaSet`]: content-addressed persist,
/// scan-validated recovery.
pub struct DurableStore {
    seg: SegmentStore,
    log: log::EpochLog,
    root: RootPointer,
    cache: Mutex<HashMap<String, CacheEntry>>,
}

impl DurableStore {
    /// Open (or create) a durable store, scanning the valid prefixes
    /// of the segment and log and recovering the root cell. Torn
    /// tails from a crash are tolerated here and overwritten by the
    /// next persist.
    pub fn open(media: MediaSet) -> Result<DurableStore> {
        let _span = gsview_obs::span!("durable.open");
        let seg = SegmentStore::open(media.segment)?;
        let log = log::EpochLog::open(media.log)?;
        let root = RootPointer::open(media.root)?;
        Ok(DurableStore {
            seg,
            log,
            root,
            cache: Mutex::new(HashMap::new()),
        })
    }

    /// Persist one published snapshot as a new durable epoch of
    /// lineage `name`. Write order — chunks, segment sync, frame, log
    /// sync, root swap, root sync — is the commit protocol the
    /// module docs argue atomic. Returns what was actually written;
    /// unchanged pages (pointer-identical to the previous persist, or
    /// content-identical to any chunk ever written) cost nothing.
    pub fn persist(&self, name: &str, store: &Store, meta: PersistMeta) -> Result<PersistReceipt> {
        let _span = gsview_obs::span!(
            "durable.persist",
            "name" = name.to_string(),
            "epoch" = meta.epoch
        );
        let images = store.export_images();
        let mut cache = self.cache.lock().unwrap();
        let prev = cache.get(name);
        let mut shards = Vec::with_capacity(images.len());
        let mut hashes_all = Vec::with_capacity(images.len());
        let mut receipt = PersistReceipt {
            epoch: meta.epoch,
            ..PersistReceipt::default()
        };
        for (i, img) in images.iter().enumerate() {
            let mut hashes = Vec::with_capacity(img.pages.len());
            for (j, page) in img.pages.iter().enumerate() {
                let cached = prev.and_then(|c| {
                    let cp = c.images.get(i)?.pages.get(j)?;
                    if Arc::ptr_eq(cp, page) {
                        c.hashes.get(i)?.get(j).copied()
                    } else {
                        None
                    }
                });
                let hash = match cached {
                    Some(h) => {
                        receipt.chunks_reused += 1;
                        h
                    }
                    None => {
                        let payload = gsdb::codec::encode_page(page);
                        let (h, fresh) = self.seg.append(&payload)?;
                        if fresh {
                            receipt.chunks_appended += 1;
                            receipt.bytes_appended += payload.len() as u64;
                        } else {
                            receipt.chunks_reused += 1;
                        }
                        h
                    }
                };
                hashes.push(hash);
            }
            shards.push(ShardManifest {
                len_slots: img.len_slots as u64,
                pages: hashes.clone(),
            });
            hashes_all.push(hashes);
        }
        self.seg.sync()?;
        let manifest = Manifest {
            name: name.to_string(),
            epoch: meta.epoch,
            version: store.version(),
            seq: meta.seq,
            flags: StoreFlags {
                parent_index: store.has_parent_index(),
                label_index: store.has_label_index(),
                log_updates: meta.log_updates,
                count_accesses: store.counts_accesses(),
            },
            shards,
            extra: meta.extra,
        };
        let (frame_off, frame_len) = self.log.append(&manifest)?;
        self.log.sync()?;
        self.root.swap(meta.epoch, frame_off, frame_len)?;
        receipt.frame_off = frame_off;
        cache.insert(
            name.to_string(),
            CacheEntry {
                images,
                hashes: hashes_all,
            },
        );
        let r = gsview_obs::registry();
        r.counter("durable.persist.count").incr();
        r.counter("durable.persist.chunks_appended").add(receipt.chunks_appended);
        r.counter("durable.persist.chunks_reused").add(receipt.chunks_reused);
        r.counter("durable.persist.bytes_appended").add(receipt.bytes_appended);
        Ok(receipt)
    }

    /// Recover the newest durable state of lineage `name`: walk its
    /// valid frames from the tail and rebuild the first one whose
    /// chunks all verify and decode. `Ok(None)` means the lineage has
    /// no recoverable frame (empty log, or every frame torn) — a cold
    /// start, not an error.
    pub fn recover(&self, name: &str) -> Result<Option<Recovered>> {
        let _span = gsview_obs::span!("durable.recover", "name" = name.to_string());
        let frames = self.log.frames_for(name);
        for frame in frames.iter().rev() {
            match self.try_build(&frame.manifest) {
                Ok(store) => {
                    gsview_obs::registry().counter("durable.recover.count").incr();
                    gsview_obs::event!(
                        "durable.recover",
                        "name" = name.to_string(),
                        "epoch" = frame.manifest.epoch
                    );
                    return Ok(Some(Recovered {
                        manifest: frame.manifest.clone(),
                        store,
                    }));
                }
                Err(_) => {
                    // An unresolvable frame (missing/corrupt chunk,
                    // image the store rejects): fall back to the
                    // previous persist of this lineage.
                    gsview_obs::registry().counter("durable.recover.fallback").incr();
                }
            }
        }
        Ok(None)
    }

    /// Rebuild a store from a manifest against this segment, seeding
    /// the persist cache so a re-persist of the recovered (unchanged)
    /// store appends nothing.
    fn try_build(&self, m: &Manifest) -> Result<Store> {
        let mut images = Vec::with_capacity(m.shards.len());
        let mut hashes_all = Vec::with_capacity(m.shards.len());
        for sm in &m.shards {
            let mut pages = Vec::with_capacity(sm.pages.len());
            for h in &sm.pages {
                let payload = self.seg.get(h)?.ok_or_else(|| {
                    DurableError::Corrupt(format!("chunk {h} missing or corrupt"))
                })?;
                pages.push(Arc::new(gsdb::codec::decode_page(&payload)?));
            }
            images.push(ShardImage {
                len_slots: sm.len_slots as usize,
                pages,
            });
            hashes_all.push(sm.pages.clone());
        }
        let store = Store::from_images(m.store_config(), images.clone(), m.version)
            .map_err(DurableError::Corrupt)?;
        self.cache.lock().unwrap().insert(
            m.name.clone(),
            CacheEntry {
                images,
                hashes: hashes_all,
            },
        );
        Ok(store)
    }

    /// The best committed root record, if any — a *hint* to the latest
    /// persist; recovery re-validates and scans past it when it points
    /// at a torn tail.
    pub fn root_record(&self) -> Result<Option<RootRecord>> {
        self.root.current()
    }

    /// Valid frames of one lineage, in log order (diagnostics and
    /// tests).
    pub fn frames_for(&self, name: &str) -> Vec<Frame> {
        self.log.frames_for(name)
    }

    /// The durable footprint (chunk count, segment bytes, dedup
    /// savings), also mirrored into the obs metrics registry as
    /// `durable.segment.*` gauges.
    pub fn footprint(&self) -> DurableFootprint {
        let (chunks, segment_bytes, appended, deduped) = self.seg.footprint();
        let fp = DurableFootprint {
            chunks,
            segment_bytes,
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
        self.log.frames_for(name).last().map(|f| f.manifest.clone())
    }
    fn fetch_chunk(&self, hash: &ChunkHash) -> Option<Vec<u8>> {
        self.seg.get(hash).ok().flatten()
    }
}

/// Decode the OIDs whose objects differ between two manifests'
/// versions of the same page positions — the object-level content of
/// a chunk diff. Used by stale-view reconciliation to know which
/// members may have changed without a full snapshot diff.
pub fn changed_oids(
    port: &dyn ChunkPort,
    older: Option<&Manifest>,
    newer: &Manifest,
) -> Result<Vec<gsdb::Oid>> {
    let mut out = Vec::new();
    for (i, j, h) in newer.diff_pages(older) {
        let new_page = port
            .fetch_chunk(&h)
            .ok_or_else(|| DurableError::Corrupt(format!("chunk {h} unavailable")))?;
        let new_slots = gsdb::codec::decode_page(&new_page)?;
        let old_slots = match older
            .and_then(|o| o.shards.get(i))
            .and_then(|s| s.pages.get(j))
            .and_then(|oh| port.fetch_chunk(oh))
        {
            Some(bytes) => gsdb::codec::decode_page(&bytes)?,
            None => Vec::new(),
        };
        for (k, slot) in new_slots.iter().enumerate() {
            let old = old_slots.get(k).and_then(|s| s.as_ref());
            match (old, slot.as_ref()) {
                (a, b) if a == b => {}
                (Some(o), None) => out.push(o.oid),
                (None, Some(n)) => out.push(n.oid),
                (Some(o), Some(n)) => {
                    if o.oid != n.oid {
                        out.push(o.oid);
                    }
                    out.push(n.oid);
                }
                (None, None) => {}
            }
        }
        // Objects in the old page beyond the new page's slot range.
        for slot in old_slots.iter().skip(new_slots.len()).flatten() {
            out.push(slot.oid);
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
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
            log_updates: false,
            extra: Vec::new(),
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
        // the pointer cache: all bytes dedup at the segment.
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

    #[test]
    fn changed_oids_sees_exactly_the_touched_objects() {
        let d = DurableStore::open(MediaSet::memory()).unwrap();
        let mut s = build_store(2, 60);
        d.persist("src", &s.fork(), meta(1)).unwrap();
        let old = d.latest_manifest("src").unwrap();
        s.modify_atom(Oid::new("o7"), -7i64).unwrap();
        s.create(Object::atom("fresh", "x", 99i64)).unwrap();
        d.persist("src", &s.fork(), meta(2)).unwrap();
        let new = d.latest_manifest("src").unwrap();
        let changed = changed_oids(&d, Some(&old), &new).unwrap();
        assert!(changed.contains(&Oid::new("o7")));
        assert!(changed.contains(&Oid::new("fresh")));
        // Pages are 256 slots, so the diff may include page-mates of
        // the touched objects — but never most of a 61-object store.
        assert!(changed.len() < 61, "diff leaked into unchanged pages");
    }
}
