//! The durable epoch log: one append-only file of checksum-chained
//! frames, chunk frames and manifest frames interleaved.
//!
//! A **chunk** is one encoded slab page, stored once per distinct
//! content hash: content addressing turns the store's structural
//! sharing into storage sharing. A **manifest** names a store lineage
//! (`name`), the epoch and report sequence watermark it captures, the
//! store configuration flags, and — per shard — the slot high-water
//! mark plus the ordered list of page chunk hashes. A manifest plus
//! the chunks before it fully determines a store; two manifests diff
//! page-by-page, which is what makes chunk-level resync O(changed
//! pages).
//!
//! Every record is one [`gsdb::codec`] frame — tag, length, checksum,
//! payload — and each frame's checksum continues its predecessor's, so
//! a frame validates only as the successor of the exact bytes before
//! it:
//!
//! ```text
//! FILE      "GSVD" ‖ format version u32       first frame of the file
//! CHUNK     content hash 16 B ‖ page bytes    one per distinct page
//! MANIFEST  encoded Manifest                  one per persisted epoch
//! ```
//!
//! Opening scans from the front and stops at the first frame that is
//! short, mis-tagged, off the checksum chain, undecodable, or (a
//! chunk) no longer matching its content hash. Everything past that
//! point is the wreckage of a crash mid-append; the next append
//! overwrites it, and because of the chain nothing left over beyond
//! the new tail can validate again. The dedup index and the per-lineage
//! frame lists are rebuilt by the same scan, so no separate index can
//! desynchronize from the data.
//!
//! One persist is one [`Appender`]: chunk frames and the manifest
//! frame accumulate in a buffer that [`Appender::commit`] hands to the
//! media as **one write followed by one sync**. The in-memory index
//! learns about the new frames only after the sync returns, so a
//! failed persist leaves the log exactly as it was and a retry
//! rewrites the same offsets.

use crate::error::{DurableError, Result};
use crate::hash::{chunk_hash, ChunkHash};
use crate::media::{CrashPoint, Media};
use gsdb::codec::{
    begin_frame, crc32_update, end_frame, frame_head, put_str, put_varint, Reader,
    FRAME_HEADER_LEN,
};
use gsdb::StoreConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Version of the on-media layout this build reads and writes.
/// Version 1 was the three-file layout (`segment.gsd`, `epochs.gsl`
/// and a root cell).
pub const FORMAT_VERSION: u32 = 2;

const TAG_FILE: u8 = 0xD5;
const TAG_CHUNK: u8 = 0xC7;
const TAG_MANIFEST: u8 = 0xE9;
const FILE_MAGIC: &[u8; 4] = b"GSVD";
const HASH_LEN: usize = 16;

/// Maximum frame payload accepted at scan time; a length field beyond
/// this is treated as torn-tail garbage rather than an allocation
/// request.
const MAX_FRAME: usize = 64 << 20;

/// How much of the file one scan read asks for.
const SCAN_WINDOW: usize = 4 << 20;

/// Store configuration flags a manifest carries so recovery rebuilds
/// the store exactly as it was configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreFlags {
    /// Parent (child → parents) index enabled.
    pub parent_index: bool,
    /// Label index enabled.
    pub label_index: bool,
    /// Update logging enabled on the live store.
    pub log_updates: bool,
    /// Access counting enabled.
    pub count_accesses: bool,
}

impl StoreFlags {
    fn to_byte(self) -> u8 {
        u8::from(self.parent_index)
            | u8::from(self.label_index) << 1
            | u8::from(self.log_updates) << 2
            | u8::from(self.count_accesses) << 3
    }
    fn from_byte(b: u8) -> StoreFlags {
        StoreFlags {
            parent_index: b & 1 != 0,
            label_index: b & 2 != 0,
            log_updates: b & 4 != 0,
            count_accesses: b & 8 != 0,
        }
    }
}

/// One shard's durable image: high-water mark plus page chunk hashes
/// in page order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Local slots handed out (free included).
    pub len_slots: u64,
    /// Content hash of each page, in page order.
    pub pages: Vec<ChunkHash>,
}

/// A persisted epoch: everything needed to rebuild one store lineage
/// at one published epoch from the chunks before it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The lineage this frame belongs to (a source or view name —
    /// one log serves many lineages).
    pub name: String,
    /// The epoch the persisted snapshot was published as.
    pub epoch: u64,
    /// Store version of the snapshot.
    pub version: u64,
    /// Report-sequence watermark at persist time (`next_seq` plus
    /// pending log entries); a recovered source resumes here.
    pub seq: u64,
    /// Store configuration to rebuild with.
    pub flags: StoreFlags,
    /// Per-shard images.
    pub shards: Vec<ShardManifest>,
    /// Caller-owned metadata (the warehouse stores its reconciliation
    /// state here). Opaque to recovery.
    pub extra: Vec<u8>,
}

impl Manifest {
    /// The [`StoreConfig`] this manifest's store was built with.
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig {
            parent_index: self.flags.parent_index,
            label_index: self.flags.label_index,
            log_updates: self.flags.log_updates,
            count_accesses: self.flags.count_accesses,
            shards: self.shards.len(),
        }
    }

    /// Total pages across all shards.
    pub fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.pages.len()).sum()
    }

    /// Every page hash, with its `(shard, page index)` position.
    pub fn pages(&self) -> impl Iterator<Item = (usize, usize, ChunkHash)> + '_ {
        self.shards.iter().enumerate().flat_map(|(i, s)| {
            s.pages.iter().enumerate().map(move |(j, h)| (i, j, *h))
        })
    }

    /// Positions of pages in `self` that differ from (or don't exist
    /// in) `older` — the chunk-diff a durable resync fetches. A `None`
    /// baseline diffs everything.
    pub fn diff_pages(&self, older: Option<&Manifest>) -> Vec<(usize, usize, ChunkHash)> {
        self.pages()
            .filter(|(i, j, h)| {
                older
                    .and_then(|o| o.shards.get(*i))
                    .and_then(|s| s.pages.get(*j))
                    != Some(h)
            })
            .collect()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(64 + self.page_count() * 16);
        put_str(out, &self.name);
        put_varint(out, self.epoch);
        put_varint(out, self.version);
        put_varint(out, self.seq);
        out.push(self.flags.to_byte());
        put_varint(out, self.shards.len() as u64);
        for s in &self.shards {
            put_varint(out, s.len_slots);
            put_varint(out, s.pages.len() as u64);
            for h in &s.pages {
                out.extend_from_slice(&h.0);
            }
        }
        put_varint(out, self.extra.len() as u64);
        out.extend_from_slice(&self.extra);
    }

    fn decode(bytes: &[u8]) -> Result<Manifest> {
        let mut r = Reader::new(bytes);
        let name = r.str().map_err(DurableError::from)?.to_string();
        let epoch = r.varint().map_err(DurableError::from)?;
        let version = r.varint().map_err(DurableError::from)?;
        let seq = r.varint().map_err(DurableError::from)?;
        let flags = StoreFlags::from_byte(r.byte().map_err(DurableError::from)?);
        let n = r.varint().map_err(DurableError::from)? as usize;
        if n > gsdb::MAX_SHARDS {
            return Err(DurableError::Corrupt(format!("manifest claims {n} shards")));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let len_slots = r.varint().map_err(DurableError::from)?;
            let pages_n = r.varint().map_err(DurableError::from)? as usize;
            if pages_n > 1 << 24 {
                return Err(DurableError::Corrupt(format!(
                    "manifest claims {pages_n} pages"
                )));
            }
            let mut pages = Vec::with_capacity(pages_n);
            for _ in 0..pages_n {
                let raw = r.bytes(16).map_err(DurableError::from)?;
                pages.push(ChunkHash::from_slice(raw).unwrap());
            }
            shards.push(ShardManifest { len_slots, pages });
        }
        let extra_n = r.varint().map_err(DurableError::from)? as usize;
        let extra = r.bytes(extra_n).map_err(DurableError::from)?.to_vec();
        if r.remaining() != 0 {
            return Err(DurableError::Corrupt("trailing bytes after manifest".into()));
        }
        Ok(Manifest {
            name,
            epoch,
            version,
            seq,
            flags,
            shards,
            extra,
        })
    }
}

/// One scanned frame: where it sits plus its decoded manifest.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Frame start offset in the log media.
    pub off: u64,
    /// The decoded manifest.
    pub manifest: Manifest,
}

#[derive(Default)]
struct LogState {
    /// hash → (payload offset, payload length) of every valid chunk.
    index: HashMap<ChunkHash, (u64, u32)>,
    /// Every valid manifest frame, in log (= commit) order.
    frames: Vec<Frame>,
    /// Lineage name → positions in `frames`, in log order.
    lineages: HashMap<String, Vec<usize>>,
    /// End of the valid prefix (next append position).
    end: u64,
    /// Checksum of the last valid frame — the next frame's seed.
    chain: u32,
    /// Page bytes held in chunks (scanned prefix plus appends).
    appended_bytes: u64,
    /// Page bytes dedup avoided appending.
    deduped_bytes: u64,
}

impl LogState {
    fn push_frame(&mut self, frame: Frame) {
        let at = self.frames.len();
        match self.lineages.get_mut(&frame.manifest.name) {
            Some(of) => of.push(at),
            None => {
                self.lineages.insert(frame.manifest.name.clone(), vec![at]);
            }
        }
        self.frames.push(frame);
    }
}

/// The epoch log over one media: scan-validated, append-only.
pub(crate) struct EpochLog {
    media: Arc<dyn Media>,
    state: Mutex<LogState>,
}

impl EpochLog {
    /// Open the log, scanning the valid frame prefix into the dedup
    /// index and the lineage frame lists. A torn tail is tolerated and
    /// overwritten by the next append; a file written in another
    /// format version is a [`DurableError::Version`].
    pub fn open(media: Arc<dyn Media>) -> Result<EpochLog> {
        let mut st = LogState::default();
        // `win` holds the file's bytes from `win_off`; `pos` is the
        // scan cursor inside it.
        let (mut win, mut win_off, mut pos) = (Vec::new(), 0u64, 0usize);
        let mut at_eof = false;
        loop {
            let need = match frame_head(&win[pos..]) {
                Some(h) if h.len > MAX_FRAME => break,
                Some(h) => FRAME_HEADER_LEN + h.len,
                None => FRAME_HEADER_LEN,
            };
            if win.len() - pos < need {
                if at_eof {
                    break;
                }
                win_off += pos as u64;
                let want = need.max(SCAN_WINDOW);
                win = media.read_at(win_off, want)?;
                at_eof = win.len() < want;
                pos = 0;
                continue;
            }
            let head = frame_head(&win[pos..]).expect("a whole frame is in the window");
            let payload = &win[pos + FRAME_HEADER_LEN..pos + need];
            if crc32_update(st.chain, payload) != head.crc {
                break;
            }
            let off = win_off + pos as u64;
            match (head.tag, off) {
                (TAG_FILE, 0) => check_file_frame(payload)?,
                // A frame that checksums but is not ours to read: some
                // other layout, not a torn write.
                (_, 0) => return Err(DurableError::Version { found: 0, expected: FORMAT_VERSION }),
                (TAG_CHUNK, _) if payload.len() >= HASH_LEN => {
                    let (hash, page) = payload.split_at(HASH_LEN);
                    let hash = ChunkHash::from_slice(hash).expect("16 bytes");
                    if chunk_hash(page) != hash {
                        break;
                    }
                    let page_off = off + (FRAME_HEADER_LEN + HASH_LEN) as u64;
                    st.index.insert(hash, (page_off, page.len() as u32));
                    st.appended_bytes += page.len() as u64;
                }
                (TAG_MANIFEST, _) => match Manifest::decode(payload) {
                    Ok(manifest) => st.push_frame(Frame { off, manifest }),
                    Err(_) => break,
                },
                _ => break,
            }
            st.chain = head.crc;
            pos += need;
            st.end = off + need as u64;
        }
        Ok(EpochLog {
            media,
            state: Mutex::new(st),
        })
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().expect("epoch log state poisoned")
    }

    /// Start one persist's append. Holds the log for its duration:
    /// persists of one log are serial.
    pub fn begin(&self) -> Appender<'_> {
        let st = self.lock();
        let mut buf = Vec::new();
        let mut chain = st.chain;
        if st.end == 0 {
            let start = begin_frame(&mut buf, TAG_FILE);
            buf.extend_from_slice(FILE_MAGIC);
            buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            chain = end_frame(&mut buf, start, 0);
        }
        Appender {
            media: &self.media,
            st,
            buf,
            chain,
            staged: HashMap::new(),
            deduped_bytes: 0,
        }
    }

    /// Fetch and re-verify a chunk's page bytes. `None` when absent
    /// **or** when the stored bytes fail re-verification — a flipped
    /// bit in a chunk makes it indistinguishable from a missing one,
    /// and the recovery path falls back to an earlier epoch either way.
    pub fn get(&self, hash: &ChunkHash) -> Result<Option<Vec<u8>>> {
        let Some((off, len)) = self.lock().index.get(hash).copied() else {
            return Ok(None);
        };
        let page = self.media.read_at(off, len as usize)?;
        if page.len() != len as usize || chunk_hash(&page) != *hash {
            return Ok(None);
        }
        Ok(Some(page))
    }

    /// The `back`-th newest valid frame of one lineage (0 = newest).
    pub fn frame_from_tail(&self, name: &str, back: usize) -> Option<Frame> {
        let st = self.lock();
        let of = st.lineages.get(name)?;
        let at = of.len().checked_sub(back + 1)?;
        Some(st.frames[of[at]].clone())
    }

    /// Valid frames belonging to one lineage, in log order.
    pub fn frames_for(&self, name: &str) -> Vec<Frame> {
        let st = self.lock();
        st.lineages
            .get(name)
            .map(|of| of.iter().map(|&i| st.frames[i].clone()).collect())
            .unwrap_or_default()
    }

    /// `(chunk count, log bytes, page bytes in chunks, page bytes
    /// dedup avoided)` — the durable footprint counters.
    pub fn footprint(&self) -> (u64, u64, u64, u64) {
        let st = self.lock();
        (
            st.index.len() as u64,
            st.end,
            st.appended_bytes,
            st.deduped_bytes,
        )
    }
}

/// The file frame's payload must be this build's magic and version.
fn check_file_frame(payload: &[u8]) -> Result<()> {
    let found = match payload.strip_prefix(FILE_MAGIC) {
        Some(v) if v.len() == 4 => u32::from_le_bytes(v.try_into().expect("4 bytes")),
        _ => 0,
    };
    if found != FORMAT_VERSION {
        return Err(DurableError::Version { found, expected: FORMAT_VERSION });
    }
    Ok(())
}

/// One persist's frames, buffered until [`commit`](Appender::commit).
pub(crate) struct Appender<'a> {
    media: &'a Arc<dyn Media>,
    st: MutexGuard<'a, LogState>,
    buf: Vec<u8>,
    chain: u32,
    /// Chunks framed in `buf`: hash → (page offset on media, length).
    staged: HashMap<ChunkHash, (u64, u32)>,
    deduped_bytes: u64,
}

impl Appender<'_> {
    /// Add a chunk holding `page`, returning its content hash and
    /// whether bytes were staged (`false` = the log, or this append,
    /// already holds that content).
    pub fn chunk(&mut self, page: &[u8]) -> (ChunkHash, bool) {
        let hash = chunk_hash(page);
        if self.st.index.contains_key(&hash) || self.staged.contains_key(&hash) {
            self.deduped_bytes += page.len() as u64;
            return (hash, false);
        }
        let start = begin_frame(&mut self.buf, TAG_CHUNK);
        self.buf.extend_from_slice(&hash.0);
        let page_off = self.st.end + self.buf.len() as u64;
        self.buf.extend_from_slice(page);
        self.chain = end_frame(&mut self.buf, start, self.chain);
        self.staged.insert(hash, (page_off, page.len() as u32));
        (hash, true)
    }

    /// Commit the persist: frame `manifest` behind the staged chunks,
    /// write the buffer at the log's tail, sync, and only then publish
    /// the new frames to the in-memory index. Returns the manifest
    /// frame's offset. Nothing is written when nothing would change —
    /// no chunk staged and `manifest` equal to its lineage's newest
    /// frame — in which case that frame's offset is returned.
    pub fn commit(mut self, manifest: Manifest) -> Result<u64> {
        let st = &mut *self.st;
        st.deduped_bytes += self.deduped_bytes;
        if self.staged.is_empty() {
            let newest = st.lineages.get(&manifest.name).and_then(|of| of.last());
            if let Some(f) = newest.map(|&i| &st.frames[i]) {
                if f.manifest == manifest {
                    return Ok(f.off);
                }
            }
        }
        let off = st.end + self.buf.len() as u64;
        let start = begin_frame(&mut self.buf, TAG_MANIFEST);
        manifest.encode_into(&mut self.buf);
        let chain = end_frame(&mut self.buf, start, self.chain);
        self.media.write_at(st.end, &self.buf, CrashPoint::PersistWrite)?;
        self.media.sync(CrashPoint::PersistSync)?;
        st.end += self.buf.len() as u64;
        st.chain = chain;
        st.appended_bytes += self.staged.values().map(|&(_, len)| u64::from(len)).sum::<u64>();
        st.index.extend(self.staged);
        st.push_frame(Frame { off, manifest });
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MemMedia;

    fn manifest(name: &str, epoch: u64, pages: &[ChunkHash]) -> Manifest {
        Manifest {
            name: name.into(),
            epoch,
            version: epoch * 10,
            seq: epoch * 3,
            flags: StoreFlags {
                parent_index: true,
                label_index: false,
                log_updates: true,
                count_accesses: false,
            },
            shards: vec![ShardManifest {
                len_slots: 7,
                pages: pages.to_vec(),
            }],
            extra: vec![1, 2, 3],
        }
    }

    /// One persist: `pages` as chunks, then a manifest naming them.
    fn persist(log: &EpochLog, name: &str, epoch: u64, pages: &[&[u8]]) -> Vec<ChunkHash> {
        let mut a = log.begin();
        let hashes: Vec<ChunkHash> = pages.iter().map(|p| a.chunk(p).0).collect();
        a.commit(manifest(name, epoch, &hashes)).unwrap();
        hashes
    }

    fn mem() -> Arc<dyn Media> {
        Arc::new(MemMedia::new())
    }

    fn bytes_of(m: &Arc<dyn Media>) -> Vec<u8> {
        m.read_at(0, m.len() as usize).unwrap()
    }

    #[test]
    fn chunks_and_manifests_survive_reopen() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        let h1 = persist(&log, "src", 1, &[b"page-one", b"page-two"]);
        persist(&log, "view.v1", 2, &[b"page-one"]);
        let h3 = persist(&log, "src", 3, &[b"page-one", b"page-three"]);
        let (chunks, end, appended, deduped) = log.footprint();
        assert_eq!((chunks, appended, deduped), (3, 26, 16), "identical pages dedup");
        assert_eq!(end, m.len());

        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        assert_eq!(log.footprint(), (3, end, 26, 0));
        let src = log.frames_for("src");
        assert_eq!(src.len(), 2);
        assert_eq!(src[0].manifest, manifest("src", 1, &h1));
        assert_eq!(src[1].manifest, manifest("src", 3, &h3));
        assert_eq!(log.frame_from_tail("src", 0).unwrap().manifest.epoch, 3);
        assert_eq!(log.frame_from_tail("src", 1).unwrap().manifest.epoch, 1);
        assert!(log.frame_from_tail("src", 2).is_none());
        assert!(log.frame_from_tail("ghost", 0).is_none());
        assert_eq!(log.get(&h3[1]).unwrap().unwrap(), b"page-three");
        // And appends continue past the existing frames.
        let h4 = persist(&log, "src", 4, &[b"more"]);
        assert_eq!(log.get(&h4[0]).unwrap().unwrap(), b"more");
        assert_eq!(EpochLog::open(m).unwrap().frames_for("src").len(), 3);
    }

    #[test]
    fn an_unchanged_manifest_writes_nothing() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        let h = persist(&log, "src", 1, &[b"page"]);
        let len = m.len();
        let mut a = log.begin();
        assert_eq!(a.chunk(b"page"), (h[0], false));
        let off = a.commit(manifest("src", 1, &h)).unwrap();
        assert_eq!(off, log.frame_from_tail("src", 0).unwrap().off);
        assert_eq!(m.len(), len);
        assert_eq!(log.frames_for("src").len(), 1);
        // The same pages under a new epoch are a new frame.
        persist(&log, "src", 2, &[b"page"]);
        assert_eq!(log.frames_for("src").len(), 2);
    }

    #[test]
    fn a_torn_tail_is_dropped_at_every_cut_and_overwritten() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        persist(&log, "src", 1, &[b"good"]);
        let committed = m.len() as usize;
        persist(&log, "src", 2, &[b"in-flight-a", b"in-flight-b"]);
        let full = bytes_of(&m);
        for cut in committed..full.len() {
            let torn: Arc<dyn Media> = Arc::new(MemMedia::from_bytes(full[..cut].to_vec()));
            let log = EpochLog::open(Arc::clone(&torn)).unwrap();
            let frames = log.frames_for("src");
            assert_eq!(frames.len(), 1, "cut {cut}: a torn persist is invisible");
            let (_, end, _, _) = log.footprint();
            assert!(end as usize >= committed && end as usize <= cut);
            // The next persist overwrites the wreckage.
            let h = persist(&log, "src", 2, &[b"retry"]);
            let log = EpochLog::open(torn).unwrap();
            assert_eq!(log.frames_for("src").len(), 2, "cut {cut}");
            assert_eq!(log.get(&h[0]).unwrap().unwrap(), b"retry");
        }
    }

    #[test]
    fn a_flipped_bit_ends_the_valid_prefix_at_its_frame() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        let h1 = persist(&log, "src", 1, &[b"good"]);
        let committed = m.len() as usize;
        let h2 = persist(&log, "src", 2, &[b"fragile"]);
        let full = bytes_of(&m);
        for bit in (committed * 8..full.len() * 8).step_by(5) {
            let mut bad = full.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let log = EpochLog::open(Arc::new(MemMedia::from_bytes(bad))).unwrap();
            assert_eq!(log.frames_for("src").len(), 1, "bit {bit}");
            assert!(log.get(&h1[0]).unwrap().is_some());
        }
        // Rot behind the index's back: the chunk reads as missing.
        let (off, _) = log.lock().index[&h2[0]];
        let mut byte = m.read_at(off, 1).unwrap();
        byte[0] ^= 0x40;
        m.write_at(off, &byte, CrashPoint::Other).unwrap();
        assert_eq!(log.get(&h2[0]).unwrap(), None);
    }

    #[test]
    fn leftovers_past_a_shorter_rewrite_never_validate() {
        // Epoch 2 lands whole except for a flipped bit in its first
        // chunk; the recovered process persists a different, shorter
        // epoch 2 whose frames end exactly where a stale frame begins.
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        persist(&log, "src", 1, &[b"base"]);
        let committed = m.len();
        persist(&log, "src", 2, &[b"aaaa", b"bbbb"]);
        let mut wreck = bytes_of(&m);
        wreck[committed as usize + FRAME_HEADER_LEN + HASH_LEN] ^= 1;
        let m: Arc<dyn Media> = Arc::new(MemMedia::from_bytes(wreck));
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        assert_eq!(log.footprint().1, committed);
        // Same length as the flipped chunk frame: the stale `bbbb`
        // chunk and the stale manifest now sit right behind it.
        let mut a = log.begin();
        a.chunk(b"cccc");
        // Not committed through `commit`, which would add a manifest:
        // write the lone chunk frame the way a torn persist leaves it.
        m.write_at(committed, &a.buf, CrashPoint::Other).unwrap();
        drop(a);
        let log = EpochLog::open(m).unwrap();
        assert_eq!(log.footprint().0, 2, "base and cccc; stale bbbb is off the chain");
        assert_eq!(log.frames_for("src").len(), 1, "the stale manifest stays dead");
    }

    #[test]
    fn other_format_versions_are_refused_not_misread() {
        let file_frame = |payload: &[u8], tag: u8| -> Arc<dyn Media> {
            let mut buf = Vec::new();
            let start = begin_frame(&mut buf, tag);
            buf.extend_from_slice(payload);
            end_frame(&mut buf, start, 0);
            Arc::new(MemMedia::from_bytes(buf))
        };
        let version = |m| EpochLog::open(m).err();
        let mut v3 = FILE_MAGIC.to_vec();
        v3.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            version(file_frame(&v3, TAG_FILE)),
            Some(DurableError::Version { found: 3, expected: FORMAT_VERSION })
        );
        assert_eq!(
            version(file_frame(b"something else", TAG_MANIFEST)),
            Some(DurableError::Version { found: 0, expected: FORMAT_VERSION })
        );
        // A first frame that does not checksum is a torn creation.
        let torn: Arc<dyn Media> = Arc::new(MemMedia::from_bytes(vec![TAG_FILE, 8, 0, 0, 0, 1, 2]));
        let log = EpochLog::open(Arc::clone(&torn)).unwrap();
        assert_eq!(log.footprint().1, 0);
        persist(&log, "src", 1, &[b"page"]);
        assert_eq!(EpochLog::open(torn).unwrap().frames_for("src").len(), 1);
    }

    #[test]
    fn a_frame_longer_than_the_scan_window_is_read_whole() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        let big = vec![0xAB; SCAN_WINDOW + 4097];
        persist(&log, "src", 1, &[b"small", &big]);
        let h = persist(&log, "src", 2, &[b"after"]);
        let log = EpochLog::open(m).unwrap();
        assert_eq!(log.frames_for("src").len(), 2);
        assert_eq!(log.get(&h[0]).unwrap().unwrap(), b"after");
    }
}
