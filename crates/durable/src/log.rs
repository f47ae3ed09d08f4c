//! The durable epoch log: one append-only file of checksum-chained
//! frames, chunk frames and manifest frames interleaved.
//!
//! A **chunk** is 256 encoded slab slots — four consecutive store
//! pages, a [`gsdb::Chunk`] — stored once per distinct content hash:
//! content addressing turns the store's structural sharing into
//! storage sharing. The manifest API calls a chunk's position a
//! *page*. A **manifest** names a store lineage (`name`), the epoch and
//! report sequence watermark it captures, a byte once used for store
//! flags, and — per shard — the slot high-water mark plus the ordered
//! list of chunk hashes. A manifest plus the chunks before it fully
//! determines a store; two manifests diff position by position, which
//! is what makes chunk-level resync O(changed chunks).
//!
//! Every record is one [`gsdb::codec`] frame — tag, length, checksum,
//! payload — and each frame's checksum continues its predecessor's, so
//! a frame validates only as the successor of the exact bytes before
//! it:
//!
//! ```text
//! FILE      "GSVD" ‖ format version u32       first frame of the file
//! CHUNK     content hash 16 B ‖ chunk bytes   one per distinct chunk
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
//! One persist is one `Appender`: chunk frames and the manifest
//! frame accumulate in a buffer that `Appender::commit` hands to the
//! media as **one write followed by one sync**. The in-memory index
//! learns about the new frames only after the sync returns, so a
//! failed persist leaves the log exactly as it was and a retry
//! rewrites the same offsets.
//!
//! **Compaction** ([`DurableStore::compact`](crate::DurableStore::compact))
//! bounds what a restart scans.
//! The *live* frames are the newest manifest of every lineage and the
//! chunks those manifests name; the log tracks their size as persists
//! supersede manifests (a page position a persist did not change costs
//! one hash comparison). A compaction writes the file frame, every live
//! chunk — re-read and re-verified against its content hash — and the
//! newest manifests, in log order, with the checksum chain restarted at
//! 0, and hands the image to [`Media::replace`]. The result is an
//! ordinary log of this format; the in-memory state is built alongside
//! the image — exactly what the open scan of it finds.

use crate::error::{DurableError, Result};
use crate::hash::{chunk_hash, ChunkHash};
use crate::media::{CrashPoint, Media};
use gsdb::codec::{
    begin_frame, crc32_update, end_frame, frame_head, put_str, put_varint, Reader, FRAME_HEADER_LEN,
};
use gsdb::{Chunk, ShardImage, Store, StoreConfig};
use std::collections::hash_map::Entry;
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
/// The file frame: header, magic, version.
const FILE_FRAME_LEN: u64 = (FRAME_HEADER_LEN + 8) as u64;

/// A log this many times its live bytes is due for compaction. The
/// trigger is geometric, so the bytes compactions rewrite are at most
/// 1 / (ratio − 1) of the bytes appended.
const COMPACT_RATIO: u64 = 8;
/// Live bytes below this count as this: a small log is not worth
/// rewriting however much of it is dead.
const COMPACT_FLOOR: u64 = 1 << 20;

/// Maximum frame payload accepted at scan time; a length field beyond
/// this is treated as torn-tail garbage rather than an allocation
/// request.
const MAX_FRAME: usize = 64 << 20;

/// How much of the file one scan read asks for.
const SCAN_WINDOW: usize = 4 << 20;

/// The byte a manifest carries where it once held store configuration
/// flags: bits 0 to 3 said whether the store kept a parent index and a
/// label index, logged its updates and counted its accesses. Every
/// store now keeps a parent index and derives its label map, only the
/// commit pipeline logs, and counting is a run-time switch, so the
/// writer writes this constant (the byte of a store that neither
/// logged nor counted) and the reader bounds-checks the byte and
/// ignores it.
const STORE_FLAGS: u8 = 0b011;

/// One shard's durable image: high-water mark plus chunk hashes in
/// slot order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Local slots handed out (free included).
    pub len_slots: u64,
    /// Content hash of each chunk (four store pages), in slot order.
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
    /// Per-shard images.
    pub shards: Vec<ShardManifest>,
}

impl Manifest {
    /// Total pages across all shards.
    pub fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.pages.len()).sum()
    }

    /// The store this manifest describes, each chunk in shard and slot
    /// order from `chunk` (the log on recovery, a warehouse's chunk
    /// cache over a port): the first error `chunk` returns is the
    /// rebuild's, and an image the store rejects is corrupt.
    pub fn rebuild(&self, mut chunk: impl FnMut(&ChunkHash) -> Result<Chunk>) -> Result<Store> {
        let mut images = Vec::with_capacity(self.shards.len());
        for sm in &self.shards {
            let mut chunks = Vec::with_capacity(sm.pages.len());
            for h in &sm.pages {
                chunks.push(chunk(h)?);
            }
            images.push(ShardImage {
                len_slots: sm.len_slots as usize,
                chunks,
            });
        }
        let cfg = StoreConfig::default().with_shards(self.shards.len());
        Store::from_images(cfg, images, self.version).map_err(DurableError::Corrupt)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(64 + self.page_count() * 16);
        put_str(out, &self.name);
        put_varint(out, self.epoch);
        put_varint(out, self.version);
        put_varint(out, self.seq);
        out.push(STORE_FLAGS);
        put_varint(out, self.shards.len() as u64);
        for s in &self.shards {
            put_varint(out, s.len_slots);
            put_varint(out, s.pages.len() as u64);
            for h in &s.pages {
                out.extend_from_slice(&h.0);
            }
        }
        put_varint(out, 0); // an empty caller-metadata field: the bytes stay as they were
    }

    fn decode(bytes: &[u8]) -> Result<Manifest> {
        let mut r = Reader::new(bytes);
        let name = r.str().map_err(DurableError::from)?.to_string();
        let epoch = r.varint().map_err(DurableError::from)?;
        let version = r.varint().map_err(DurableError::from)?;
        let seq = r.varint().map_err(DurableError::from)?;
        r.byte().map_err(DurableError::from)?; // STORE_FLAGS, ignored
        let n = r.varint().map_err(DurableError::from)? as usize;
        if n > gsdb::MAX_SHARDS {
            return Err(DurableError::Corrupt(format!("manifest claims {n} shards")));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let len_slots = r.varint().map_err(DurableError::from)?;
            let pages_n = r.varint().map_err(DurableError::from)? as usize;
            // Each hash is 16 bytes: a count the rest of the frame cannot
            // hold is corrupt, and is refused before anything is reserved.
            if pages_n > r.remaining() / 16 {
                return Err(DurableError::Corrupt(format!(
                    "manifest claims {pages_n} pages in {} bytes",
                    r.remaining()
                )));
            }
            let mut pages = Vec::with_capacity(pages_n);
            for _ in 0..pages_n {
                pages.push(ChunkHash(r.array().map_err(DurableError::from)?));
            }
            shards.push(ShardManifest { len_slots, pages });
        }
        // The caller-metadata field: bounds-checked and skipped.
        let extra_n = r.varint().map_err(DurableError::from)? as usize;
        r.bytes(extra_n).map_err(DurableError::from)?;
        if r.remaining() != 0 {
            return Err(DurableError::Corrupt(
                "trailing bytes after manifest".into(),
            ));
        }
        Ok(Manifest {
            name,
            epoch,
            version,
            seq,
            shards,
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

/// One lineage's manifest frames.
#[derive(Default)]
struct Lineage {
    /// Positions in [`LogState::frames`], in log order.
    at: Vec<usize>,
    /// Frame length of the newest.
    newest_len: u64,
}

#[derive(Default)]
struct LogState {
    /// hash → (payload offset, payload length) of every valid chunk.
    index: HashMap<ChunkHash, (u64, u32)>,
    /// Every valid manifest frame, in log (= commit) order.
    frames: Vec<Frame>,
    lineages: HashMap<String, Lineage>,
    /// End of the valid prefix (next append position).
    end: u64,
    /// Checksum of the last valid frame — the next frame's seed.
    chain: u32,
    /// Page bytes held in chunks (scanned prefix plus appends).
    appended_bytes: u64,
    /// Page bytes dedup avoided appending.
    deduped_bytes: u64,
    /// Chunks named by the newest manifest of some lineage: hash →
    /// (page positions naming it, its frame's length).
    live: HashMap<ChunkHash, (u32, u64)>,
    /// Frame bytes of `live` plus the newest manifest frame of every
    /// lineage: what a compaction writes after the file frame.
    live_bytes: u64,
    /// Bumped by every compaction: a chunk offset looked up under an
    /// older generation may point into the replaced content.
    generation: u64,
    /// A failed compaction holds the automatic one off until `end`
    /// reaches this.
    backoff: u64,
}

impl LogState {
    /// Record a manifest frame of `len` bytes as its lineage's newest,
    /// moving the live counts from the manifest it supersedes.
    fn push_frame(&mut self, frame: Frame, len: u64) {
        let LogState {
            index,
            frames,
            lineages,
            live,
            live_bytes,
            ..
        } = self;
        let name = &frame.manifest.name;
        if !lineages.contains_key(name) {
            lineages.insert(name.clone(), Lineage::default());
        }
        let lineage = lineages.get_mut(name).expect("inserted above");
        let superseded = lineage.at.last().map(|&i| &frames[i].manifest);
        for i in 0..frame
            .manifest
            .shards
            .len()
            .max(superseded.map_or(0, |m| m.shards.len()))
        {
            let (old, new) = (
                shard_pages(superseded, i),
                shard_pages(Some(&frame.manifest), i),
            );
            for j in 0..old.len().max(new.len()) {
                let (o, n) = (old.get(j), new.get(j));
                if o == n {
                    continue;
                }
                if let Some(h) = n {
                    let (count, _) = live.entry(*h).or_insert_with(|| {
                        let len = index.get(h).map_or(0, |&(_, len)| chunk_frame_len(len));
                        *live_bytes += len;
                        (0, len)
                    });
                    *count += 1;
                }
                if let Some(Entry::Occupied(mut e)) = o.map(|h| live.entry(*h)) {
                    e.get_mut().0 -= 1;
                    if e.get().0 == 0 {
                        *live_bytes -= e.remove().1;
                    }
                }
            }
        }
        *live_bytes = *live_bytes + len - lineage.newest_len;
        lineage.newest_len = len;
        lineage.at.push(frames.len());
        frames.push(frame);
    }

    /// What a compaction would write: the file frame and the live
    /// frames (nothing for a log that holds no frame at all).
    fn live_len(&self) -> u64 {
        if self.end == 0 {
            0
        } else {
            FILE_FRAME_LEN + self.live_bytes
        }
    }
}

/// Shard `i`'s page hashes in `m` (none when either is absent).
fn shard_pages(m: Option<&Manifest>, i: usize) -> &[ChunkHash] {
    m.and_then(|m| m.shards.get(i)).map_or(&[], |s| &s.pages)
}

/// A chunk frame holding `page_len` page bytes.
fn chunk_frame_len(page_len: u32) -> u64 {
    (FRAME_HEADER_LEN + HASH_LEN) as u64 + u64::from(page_len)
}

/// Frame the file header into `buf`; returns the chain seed after it.
fn put_file_frame(buf: &mut Vec<u8>) -> u32 {
    let start = begin_frame(buf, TAG_FILE);
    buf.extend_from_slice(FILE_MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    end_frame(buf, start, 0)
}

/// Frame one chunk into `buf` after `chain`; returns the new chain.
fn put_chunk(buf: &mut Vec<u8>, hash: &ChunkHash, page: &[u8], chain: u32) -> u32 {
    let start = begin_frame(buf, TAG_CHUNK);
    buf.extend_from_slice(&hash.0);
    buf.extend_from_slice(page);
    end_frame(buf, start, chain)
}

/// Frame one manifest into `buf` after `chain`; returns the new chain.
fn put_manifest(buf: &mut Vec<u8>, manifest: &Manifest, chain: u32) -> u32 {
    let start = begin_frame(buf, TAG_MANIFEST);
    manifest.encode_into(buf);
    end_frame(buf, start, chain)
}

/// Scan the valid frame prefix of `media` into a fresh state. A torn
/// tail ends the prefix; a file written in another format version is
/// a [`DurableError::Version`].
fn scan(media: &dyn Media) -> Result<LogState> {
    let mut st = LogState::default();
    // `win` holds the file's bytes from `win_off`; `pos` is the scan
    // cursor inside it.
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
            (_, 0) => {
                return Err(DurableError::Version {
                    found: 0,
                    expected: FORMAT_VERSION,
                })
            }
            (TAG_CHUNK, _) => {
                let Some((&hash, page)) = payload.split_first_chunk::<HASH_LEN>() else {
                    break;
                };
                let hash = ChunkHash(hash);
                if chunk_hash(page) != hash {
                    break;
                }
                let page_off = off + (FRAME_HEADER_LEN + HASH_LEN) as u64;
                st.index.insert(hash, (page_off, page.len() as u32));
                st.appended_bytes += page.len() as u64;
            }
            (TAG_MANIFEST, _) => match Manifest::decode(payload) {
                Ok(manifest) => st.push_frame(Frame { off, manifest }, need as u64),
                Err(_) => break,
            },
            _ => break,
        }
        st.chain = head.crc;
        pos += need;
        st.end = off + need as u64;
    }
    Ok(st)
}

/// The epoch log over one media: scan-validated, append-only between
/// compactions.
pub(crate) struct EpochLog {
    media: Arc<dyn Media>,
    state: Mutex<LogState>,
}

impl EpochLog {
    /// Open the log, scanning the valid frame prefix into the dedup
    /// index and the lineage frame lists. A torn tail is tolerated and
    /// overwritten by the next append; a file written in another
    /// format version is a [`DurableError::Version`].
    pub(crate) fn open(media: Arc<dyn Media>) -> Result<EpochLog> {
        Ok(EpochLog {
            state: Mutex::new(scan(&*media)?),
            media,
        })
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().expect("epoch log state poisoned")
    }

    /// Start one persist's append. Holds the log for its duration:
    /// persists of one log are serial.
    pub(crate) fn begin(&self) -> Appender<'_> {
        let st = self.lock();
        let mut buf = Vec::new();
        let chain = if st.end == 0 {
            put_file_frame(&mut buf)
        } else {
            st.chain
        };
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
    /// The read runs outside the lock; one that fails because a
    /// compaction moved the chunk meanwhile looks it up again.
    pub(crate) fn get(&self, hash: &ChunkHash) -> Result<Option<Vec<u8>>> {
        loop {
            let (at, generation) = {
                let st = self.lock();
                (st.index.get(hash).copied(), st.generation)
            };
            let Some((off, len)) = at else {
                return Ok(None);
            };
            let page = self.media.read_at(off, len as usize)?;
            if page.len() == len as usize && chunk_hash(&page) == *hash {
                return Ok(Some(page));
            }
            if self.lock().generation == generation {
                return Ok(None);
            }
        }
    }

    /// True iff the log holds every chunk in `hashes`.
    pub(crate) fn holds_all<'a>(&self, mut hashes: impl Iterator<Item = &'a ChunkHash>) -> bool {
        let st = self.lock();
        hashes.all(|h| st.index.contains_key(h))
    }

    /// The `back`-th newest valid frame of one lineage (0 = newest).
    pub(crate) fn frame_from_tail(&self, name: &str, back: usize) -> Option<Frame> {
        let st = self.lock();
        let of = &st.lineages.get(name)?.at;
        let at = of.len().checked_sub(back + 1)?;
        Some(st.frames[of[at]].clone())
    }

    /// Valid frames belonging to one lineage, in log order.
    pub(crate) fn frames_for(&self, name: &str) -> Vec<Frame> {
        let st = self.lock();
        st.lineages
            .get(name)
            .map(|l| l.at.iter().map(|&i| st.frames[i].clone()).collect())
            .unwrap_or_default()
    }

    /// `(chunk count, log bytes, page bytes in chunks, page bytes
    /// dedup avoided, live bytes)` — the durable footprint counters.
    pub(crate) fn footprint(&self) -> (u64, u64, u64, u64, u64) {
        let st = self.lock();
        (
            st.index.len() as u64,
            st.end,
            st.appended_bytes,
            st.deduped_bytes,
            st.live_len(),
        )
    }

    /// Whether the log has outgrown its live bytes by the compaction
    /// ratio (live bytes counted at least at the floor) and is past any
    /// back-off.
    pub(crate) fn compaction_due(&self) -> bool {
        let st = self.lock();
        st.end >= st.backoff && st.end > COMPACT_RATIO * st.live_len().max(COMPACT_FLOOR)
    }

    /// Rewrite the log as its live frames: the file frame, every live
    /// chunk in log order, then the newest manifest of every lineage in
    /// log order, replacing the media's content atomically. Returns the
    /// bytes reclaimed; a log that is all live is left alone.
    ///
    /// A live chunk that no longer matches its hash fails the
    /// compaction before anything is written — the older frames
    /// recovery would fall back to stay — and so does a failed read.
    /// Any failure holds the automatic compaction off until the log
    /// has grown by the ratio again.
    pub(crate) fn compact(&self) -> Result<u64> {
        let mut st = self.lock();
        if st.end == st.live_len() {
            return Ok(0);
        }
        let compacted = self.rewrite(&mut st);
        if compacted.is_err() {
            st.backoff = st.end.saturating_mul(COMPACT_RATIO);
        }
        compacted
    }

    fn rewrite(&self, st: &mut LogState) -> Result<u64> {
        let mut chunks = Vec::with_capacity(st.live.len());
        for hash in st.live.keys() {
            let &(off, len) = st.index.get(hash).ok_or_else(|| {
                DurableError::Corrupt(format!("live chunk {hash} is not in the log"))
            })?;
            chunks.push((off, len, *hash));
        }
        chunks.sort_unstable_by_key(|&(off, ..)| off);
        let mut newest: Vec<usize> = st
            .lineages
            .values()
            .filter_map(|l| l.at.last().copied())
            .collect();
        newest.sort_unstable();

        // The image's state is built as the image is: what a scan of it
        // would find.
        let mut fresh = LogState {
            deduped_bytes: st.deduped_bytes,
            generation: st.generation + 1,
            ..LogState::default()
        };
        let mut buf = Vec::with_capacity(st.live_len() as usize);
        let mut chain = put_file_frame(&mut buf);
        for (off, len, hash) in chunks {
            let page = self.media.read_at(off, len as usize)?;
            if page.len() != len as usize || chunk_hash(&page) != hash {
                return Err(DurableError::Corrupt(format!(
                    "live chunk {hash} no longer matches its hash"
                )));
            }
            let page_off = (buf.len() + FRAME_HEADER_LEN + HASH_LEN) as u64;
            fresh.index.insert(hash, (page_off, len));
            fresh.appended_bytes += u64::from(len);
            chain = put_chunk(&mut buf, &hash, &page, chain);
        }
        for i in newest {
            let (off, manifest) = (buf.len(), &st.frames[i].manifest);
            chain = put_manifest(&mut buf, manifest, chain);
            let frame = Frame {
                off: off as u64,
                manifest: manifest.clone(),
            };
            fresh.push_frame(frame, (buf.len() - off) as u64);
        }
        (fresh.end, fresh.chain) = (buf.len() as u64, chain);
        debug_assert_eq!(fresh.live_len(), fresh.end);

        let replaced = self.media.replace(&buf);
        if replaced.is_err() {
            // The state describes whichever content the failed replace
            // left behind.
            fresh = LogState {
                deduped_bytes: fresh.deduped_bytes,
                generation: fresh.generation,
                ..scan(&*self.media)?
            };
        }
        let reclaimed = st.end.saturating_sub(fresh.end);
        *st = fresh;
        replaced.map(|()| reclaimed)
    }
}

/// The file frame's payload must be this build's magic and version.
fn check_file_frame(payload: &[u8]) -> Result<()> {
    let found = match payload
        .strip_prefix(FILE_MAGIC)
        .map(<[u8]>::split_first_chunk)
    {
        Some(Some((v, []))) => u32::from_le_bytes(*v),
        _ => 0,
    };
    if found != FORMAT_VERSION {
        return Err(DurableError::Version {
            found,
            expected: FORMAT_VERSION,
        });
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
    pub(crate) fn chunk(&mut self, page: &[u8]) -> (ChunkHash, bool) {
        let hash = chunk_hash(page);
        if self.st.index.contains_key(&hash) || self.staged.contains_key(&hash) {
            self.deduped_bytes += page.len() as u64;
            return (hash, false);
        }
        let page_off = self.st.end + (self.buf.len() + FRAME_HEADER_LEN + HASH_LEN) as u64;
        self.chain = put_chunk(&mut self.buf, &hash, page, self.chain);
        self.staged.insert(hash, (page_off, page.len() as u32));
        (hash, true)
    }

    /// Commit the persist: frame `manifest` behind the staged chunks,
    /// write the buffer at the log's tail, sync, and only then publish
    /// the new frames to the in-memory index. Returns the manifest
    /// frame's offset. Nothing is written when nothing would change —
    /// no chunk staged and `manifest` equal to its lineage's newest
    /// frame — in which case that frame's offset is returned.
    pub(crate) fn commit(mut self, manifest: Manifest) -> Result<u64> {
        let st = &mut *self.st;
        st.deduped_bytes += self.deduped_bytes;
        if self.staged.is_empty() {
            let newest = st.lineages.get(&manifest.name).and_then(|l| l.at.last());
            if let Some(f) = newest.map(|&i| &st.frames[i]) {
                if f.manifest == manifest {
                    return Ok(f.off);
                }
            }
        }
        let frame_at = self.buf.len();
        let chain = put_manifest(&mut self.buf, &manifest, self.chain);
        self.media
            .write_at(st.end, &self.buf, CrashPoint::PersistWrite)?;
        self.media.sync(CrashPoint::PersistSync)?;
        let off = st.end + frame_at as u64;
        st.end += self.buf.len() as u64;
        st.chain = chain;
        st.appended_bytes += self
            .staged
            .values()
            .map(|&(_, len)| u64::from(len))
            .sum::<u64>();
        st.index.extend(self.staged);
        st.push_frame(Frame { off, manifest }, (self.buf.len() - frame_at) as u64);
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
            shards: vec![ShardManifest {
                len_slots: 7,
                pages: pages.to_vec(),
            }],
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
    fn a_page_count_the_manifest_cannot_hold_is_refused_before_reserving() {
        // One shard claiming 2^24 chunk hashes (256 MiB) in five bytes.
        let mut bytes = Vec::new();
        put_str(&mut bytes, "big");
        for v in [1, 10, 3] {
            put_varint(&mut bytes, v);
        }
        bytes.push(STORE_FLAGS);
        for v in [1, 7, 1 << 24] {
            put_varint(&mut bytes, v);
        }
        bytes.extend_from_slice(&[0; 5]);
        match Manifest::decode(&bytes) {
            Err(DurableError::Corrupt(msg)) => assert!(msg.contains("16777216 pages"), "{msg}"),
            other => panic!("expected a corrupt manifest, got {other:?}"),
        }
    }

    #[test]
    fn a_manifest_an_older_writer_gave_caller_metadata_still_decodes() {
        // The field after the shard list could carry bytes once; a log
        // holding such a frame opens, and the frame decodes without them.
        let page: &[u8] = b"old-page";
        let hash = chunk_hash(page);
        let mut payload = Vec::new();
        manifest("old", 4, &[hash]).encode_into(&mut payload);
        assert_eq!(payload.pop(), Some(0), "the field is written empty");
        put_varint(&mut payload, 3);
        payload.extend_from_slice(&[1, 2, 3]);
        let mut bytes = Vec::new();
        let chain = put_file_frame(&mut bytes);
        let chain = put_chunk(&mut bytes, &hash, page, chain);
        let start = begin_frame(&mut bytes, TAG_MANIFEST);
        bytes.extend_from_slice(&payload);
        end_frame(&mut bytes, start, chain);
        let m: Arc<dyn Media> = Arc::new(MemMedia::from_bytes(bytes));
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        let frames = log.frames_for("old");
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].manifest, manifest("old", 4, &[hash]));
        assert_eq!(log.get(&hash).unwrap().unwrap(), page);
        assert_eq!(
            log.footprint().1,
            m.len(),
            "the whole file is the valid prefix"
        );
    }

    #[test]
    fn chunks_and_manifests_survive_reopen() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        let h1 = persist(&log, "src", 1, &[b"page-one", b"page-two"]);
        persist(&log, "view.v1", 2, &[b"page-one"]);
        let h3 = persist(&log, "src", 3, &[b"page-one", b"page-three"]);
        let (chunks, end, appended, deduped, live) = log.footprint();
        assert_eq!(
            (chunks, appended, deduped),
            (3, 26, 16),
            "identical pages dedup"
        );
        assert_eq!(end, m.len());

        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        assert_eq!(log.footprint(), (3, end, 26, 0, live));
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
            let end = log.footprint().1;
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
        assert_eq!(
            log.footprint().0,
            2,
            "base and cccc; stale bbbb is off the chain"
        );
        assert_eq!(
            log.frames_for("src").len(),
            1,
            "the stale manifest stays dead"
        );
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
            Some(DurableError::Version {
                found: 3,
                expected: FORMAT_VERSION
            })
        );
        assert_eq!(
            version(file_frame(b"something else", TAG_MANIFEST)),
            Some(DurableError::Version {
                found: 0,
                expected: FORMAT_VERSION
            })
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

    #[test]
    fn compaction_keeps_the_newest_manifest_of_every_lineage_and_their_chunks() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        persist(&log, "src", 1, &[b"shared", b"old-a"]);
        let v = persist(&log, "view", 1, &[b"shared", b"view-page"]);
        persist(&log, "src", 2, &[b"shared", b"old-b"]);
        let s = persist(&log, "src", 3, &[b"shared", b"new"]);
        let (live, written) = (log.footprint().4, m.len());
        assert!(live < written);

        assert_eq!(log.compact().unwrap(), written - live);
        assert_eq!(
            m.len(),
            live,
            "the compacted file is exactly the live bytes"
        );
        let check = |log: &EpochLog| {
            assert_eq!(log.footprint().0, 3, "shared, view-page, new");
            let src = log.frames_for("src");
            assert_eq!(src.len(), 1);
            assert_eq!(src[0].manifest, manifest("src", 3, &s));
            assert_eq!(log.frames_for("view")[0].manifest, manifest("view", 1, &v));
            assert_eq!(log.get(&s[1]).unwrap().unwrap(), b"new");
            assert_eq!(log.get(&v[1]).unwrap().unwrap(), b"view-page");
            assert_eq!(log.get(&chunk_hash(b"old-a")).unwrap(), None);
        };
        check(&log);
        // A compacted file is an ordinary log: it reopens the same, the
        // chain restarted at the file frame, and appends continue.
        let reopened = EpochLog::open(Arc::clone(&m)).unwrap();
        check(&reopened);
        {
            let (built, scanned) = (log.lock(), reopened.lock());
            assert_eq!(built.index, scanned.index);
            assert_eq!((built.end, built.chain), (scanned.end, scanned.chain));
            assert_eq!(
                (&built.live, built.live_bytes),
                (&scanned.live, scanned.live_bytes)
            );
            assert_eq!(built.appended_bytes, scanned.appended_bytes);
        }
        assert_eq!(log.footprint().4, live, "nothing live was dropped");
        let h = persist(&log, "src", 4, &[b"shared", b"newer"]);
        let log = EpochLog::open(m).unwrap();
        assert_eq!(log.frames_for("src").len(), 2);
        assert_eq!(log.get(&h[1]).unwrap().unwrap(), b"newer");
    }

    #[test]
    fn live_bytes_follow_the_manifests_a_persist_supersedes() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        assert_eq!(log.footprint().4, 0, "an empty log has nothing live");
        // Pages moving between positions, repeating within a manifest,
        // shared across lineages, and a lineage shrinking.
        persist(&log, "src", 1, &[b"a", b"b", b"c"]);
        persist(&log, "src", 2, &[b"b", b"a", b"a"]);
        persist(&log, "view", 1, &[b"a", b"d"]);
        persist(&log, "src", 3, &[b"e"]);
        persist(&log, "view", 2, &[b"d"]);
        let live = log.footprint().4;
        log.compact().unwrap();
        assert_eq!(m.len(), live);
        assert_eq!(log.footprint().0, 2, "only d and e are live");
        assert_eq!(
            EpochLog::open(m).unwrap().footprint().4,
            live,
            "the scan counts the same"
        );
    }

    #[test]
    fn a_rotted_live_chunk_fails_the_compaction_and_leaves_the_log_as_it_was() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        persist(&log, "src", 1, &[b"intact"]);
        let h = persist(&log, "src", 2, &[b"fragile"]);
        let (off, _) = log.lock().index[&h[0]];
        let mut byte = m.read_at(off, 1).unwrap();
        byte[0] ^= 0x40;
        m.write_at(off, &byte, CrashPoint::Other).unwrap();
        let before = bytes_of(&m);
        assert!(matches!(log.compact(), Err(DurableError::Corrupt(_))));
        assert_eq!(bytes_of(&m), before, "nothing written");
        assert_eq!(
            log.frames_for("src").len(),
            2,
            "the epoch to fall back to stays"
        );
        let st = log.lock();
        assert_eq!(
            st.backoff,
            st.end * COMPACT_RATIO,
            "backs off until grown by the ratio"
        );
    }

    /// A media whose replace fails: before touching anything, or after
    /// replacing the content (a directory sync that failed).
    struct FailingReplace {
        inner: MemMedia,
        after: bool,
    }

    impl Media for FailingReplace {
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
            self.inner.read_at(off, len)
        }
        fn write_at(&self, off: u64, data: &[u8], point: CrashPoint) -> Result<()> {
            self.inner.write_at(off, data, point)
        }
        fn sync(&self, point: CrashPoint) -> Result<()> {
            self.inner.sync(point)
        }
        fn replace(&self, data: &[u8]) -> Result<()> {
            if self.after {
                self.inner.replace(data)?;
            }
            Err(DurableError::Io("injected: replace failed".into()))
        }
    }

    #[test]
    fn after_a_failed_replace_the_log_describes_what_the_media_holds() {
        for after in [false, true] {
            let m: Arc<dyn Media> = Arc::new(FailingReplace {
                inner: MemMedia::new(),
                after,
            });
            let log = EpochLog::open(Arc::clone(&m)).unwrap();
            persist(&log, "src", 1, &[b"one"]);
            persist(&log, "src", 2, &[b"two"]);
            assert!(log.compact().is_err());
            assert_eq!(log.frames_for("src").len(), if after { 1 } else { 2 });
            assert_eq!(log.footprint().1, m.len(), "after = {after}");
            // Appends continue at the end of whichever content it is.
            let h = persist(&log, "src", 3, &[b"three"]);
            let log = EpochLog::open(m).unwrap();
            assert_eq!(log.frame_from_tail("src", 0).unwrap().manifest.epoch, 3);
            assert_eq!(log.get(&h[0]).unwrap().unwrap(), b"three");
        }
    }

    #[test]
    fn compaction_falls_due_past_the_ratio_and_the_floor_only() {
        let m = mem();
        let log = EpochLog::open(Arc::clone(&m)).unwrap();
        // One lineage of one 300 KiB page: live is under the floor, so
        // the log is due once it passes 8 MiB.
        let mut epoch = 0;
        while m.len() <= COMPACT_RATIO * COMPACT_FLOOR {
            assert!(!log.compaction_due(), "{} bytes", m.len());
            epoch += 1;
            persist(&log, "src", epoch, &[&vec![epoch as u8; 300 << 10]]);
        }
        assert!(log.compaction_due());
        log.compact().unwrap();
        assert!(!log.compaction_due());
        assert!(m.len() < 301 << 10);
        assert_eq!(log.frame_from_tail("src", 0).unwrap().manifest.epoch, epoch);
        // A failed compaction holds the next one off.
        log.lock().backoff = u64::MAX;
        while m.len() <= COMPACT_RATIO * COMPACT_FLOOR {
            epoch += 1;
            persist(&log, "src", epoch, &[&vec![epoch as u8; 300 << 10]]);
        }
        assert!(!log.compaction_due(), "backed off");
    }
}
