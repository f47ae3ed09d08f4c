//! Durable warm-restart and chunk-diff resync support.
//!
//! The warehouse side of `gsview-durable`: a [`ChunkCache`] of decoded
//! chunks keyed by content hash, so reconstructing a source's persisted
//! epoch fetches **only the chunks whose hashes changed** since the
//! last reconstruction — unchanged chunks are free, exactly mirroring
//! how the epoch log stores them once. This is the first step toward the
//! ROADMAP's subtree-diff resync protocol: today the diff unit is the
//! 256-slot chunk (four store pages), addressed by hash.
//!
//! What the warehouse does with a reconstruction is what it does with
//! a source: it reads the view's region out of it
//! ([`AuxCache::build`](crate::cache::AuxCache::build) asking
//! [`answer`](crate::source::answer) over the rebuilt store instead of
//! a channel) and computes the view from the region — zero source
//! queries, which is the restart cost the paper's §3 architecture
//! exists to avoid.

use gsdb::{Chunk, Store};
use gsview_durable::{ChunkHash, ChunkPort, DurableError, Manifest};
use std::collections::HashMap;

/// What one cached reconstruction moved over the chunk port.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Chunks fetched from the port (changed or first-seen pages).
    pub fetched: u64,
    /// Chunks served from the warehouse-side cache (unchanged pages).
    pub reused: u64,
}

/// Decoded chunks the warehouse has already fetched from a durable
/// port, keyed by content hash. Content addressing makes the cache
/// trivially coherent: a hash never names two different chunks, so a
/// chunk cached once never needs re-fetching or invalidating.
#[derive(Default)]
pub struct ChunkCache {
    chunks: HashMap<ChunkHash, Chunk>,
}

impl ChunkCache {
    /// An empty cache.
    pub fn new() -> ChunkCache {
        ChunkCache::default()
    }

    /// Number of distinct chunks cached.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True iff nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Rebuild the store a manifest describes, fetching only chunks the
    /// cache has not seen (a previous reconstruction of any lineage
    /// over this cache counts — dedup is cross-lineage, like the
    /// log's), through [`Manifest::rebuild`]. Fails if a needed chunk
    /// is unavailable or corrupt; the caller falls back to the query
    /// path.
    pub fn reconstruct(
        &mut self,
        port: &dyn ChunkPort,
        m: &Manifest,
    ) -> gsview_durable::Result<(Store, FetchStats)> {
        let mut stats = FetchStats::default();
        let store = m.rebuild(|h| {
            if let Some(chunk) = self.chunks.get(h) {
                stats.reused += 1;
                return Ok(chunk.clone());
            }
            let payload = port
                .fetch_chunk(h)
                .ok_or_else(|| DurableError::Corrupt(format!("chunk {h} unavailable")))?;
            let chunk = gsdb::codec::decode_chunk(&payload)?;
            stats.fetched += 1;
            self.chunks.insert(*h, chunk.clone());
            Ok(chunk)
        })?;
        let r = gsview_obs::registry();
        r.counter("warehouse.durable.chunks_fetched").add(stats.fetched);
        r.counter("warehouse.durable.chunks_reused").add(stats.reused);
        Ok((store, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{samples, Oid, StoreConfig};
    use gsview_durable::{DurableStore, MediaSet, PersistMeta};
    use std::sync::Arc;

    fn persist(d: &DurableStore, name: &str, s: &Store, epoch: u64) {
        d.persist(name, &s.fork(), PersistMeta { epoch, seq: epoch })
            .unwrap();
    }

    #[test]
    fn cache_fetches_only_changed_pages_on_the_second_pass() {
        let d = DurableStore::open(MediaSet::memory()).unwrap();
        let mut s = Store::with_config(StoreConfig::default().with_shards(2));
        samples::person_db(&mut s).unwrap();
        for i in 0..200 {
            s.create(gsdb::Object::atom(format!("f{i}").as_str(), "x", i as i64))
                .unwrap();
        }
        persist(&d, "src", &s, 1);
        let m1 = d.frames_for("src").last().unwrap().manifest.clone();

        let mut cache = ChunkCache::new();
        let (r1, st1) = cache.reconstruct(&d, &m1).unwrap();
        assert_eq!(st1.reused, 0);
        assert!(st1.fetched > 1, "first pass fetches everything");
        assert_eq!(r1.oids_sorted(), s.oids_sorted());

        // One modify, one fresh persist: the second reconstruction
        // fetches only the changed page(s).
        s.modify_atom(Oid::new("f7"), -7i64).unwrap();
        persist(&d, "src", &s, 2);
        let m2 = d.frames_for("src").last().unwrap().manifest.clone();
        let (r2, st2) = cache.reconstruct(&d, &m2).unwrap();
        assert!(st2.fetched <= 2, "unchanged pages must come from cache");
        assert!(st2.reused >= st1.fetched - 2);
        assert_eq!(r2.atom(Oid::new("f7")), Some(&gsdb::Atom::Int(-7)));
    }

    /// Each shard's slot mark and pages.
    fn images(s: &Store) -> Vec<(usize, Vec<Chunk>)> {
        s.export_images().into_iter().map(|i| (i.len_slots, i.chunks)).collect()
    }

    #[test]
    fn recovery_and_reconstruction_rebuild_one_store_and_fail_alike() {
        use gsdb::Update;
        use gsview_durable::CrashPoint;
        let media = MediaSet::memory();
        let d = DurableStore::open(media.clone()).unwrap();
        let mut s = Store::with_config(StoreConfig::default().with_shards(3));
        samples::person_db(&mut s).unwrap();
        for e in 1..=40i64 {
            for i in 0..40 {
                let name = format!("c{e}_{i}");
                s.create(gsdb::Object::atom(name.as_str(), "x", e * i)).unwrap();
            }
            s.modify_atom(Oid::new(&format!("c{}_1", (e + 1) / 2)), -e).unwrap();
            if e > 1 {
                for i in (0..40).step_by(3) {
                    s.apply(Update::Remove { oid: Oid::new(&format!("c{}_{i}", e - 1)) }).unwrap();
                }
            }
            persist(&d, "rebuilt", &s, e as u64);
        }
        assert!(d.compact().unwrap() > 0, "the churn left dead frames");

        let d = DurableStore::open(media.clone()).unwrap();
        let m = d.latest_manifest("rebuilt").unwrap();
        let recovered = d.recover("rebuilt").unwrap().unwrap();
        assert_eq!(recovered.manifest, m);
        let (rebuilt, stats) = ChunkCache::new().reconstruct(&d, &m).unwrap();
        assert_eq!(stats.fetched as usize, m.page_count());
        recovered.store.check_invariants().unwrap();
        rebuilt.check_invariants().unwrap();
        assert_eq!(images(&recovered.store), images(&rebuilt));
        assert_eq!(images(&rebuilt), images(&s));

        // Rot one chunk of the manifest under the open log: recovery
        // and reconstruction both refuse it, each in its own words.
        let hash = m.shards[1].pages[0];
        let chunk = d.fetch_chunk(&hash).unwrap();
        let bytes = media.log.read_at(0, media.log.len() as usize).unwrap();
        let at = bytes.windows(chunk.len()).rposition(|w| w == chunk).unwrap();
        media.log.write_at(at as u64 + 3, &[bytes[at + 3] ^ 1], CrashPoint::Other).unwrap();
        let recorder = Arc::new(gsview_obs::FlightRecorder::with_capacity(1 << 16));
        let guard = gsview_obs::install(recorder.clone());
        assert!(d.recover("rebuilt").unwrap().is_none(), "compaction left no older epoch");
        drop(guard);
        let fallback = recorder
            .drain()
            .into_iter()
            .filter(|r| r.event.name == "durable.recover.fallback")
            .filter(|r| r.event.field("name").map(|v| v.to_string()).as_deref() == Some("rebuilt"))
            .find_map(|r| r.event.field("error").map(|v| v.to_string()))
            .expect("the skipped frame says why");
        assert!(fallback.contains(&format!("chunk {hash} missing or corrupt")), "{fallback}");
        let err = ChunkCache::new().reconstruct(&d, &m).expect_err("a rotted chunk");
        assert!(err.to_string().contains(&format!("chunk {hash} unavailable")), "{err}");
    }

    #[test]
    fn reconstruct_fails_closed_on_a_missing_chunk() {
        let d = DurableStore::open(MediaSet::memory()).unwrap();
        let mut s = Store::new();
        samples::person_db(&mut s).unwrap();
        persist(&d, "src", &s, 1);
        let mut m = d.frames_for("src").last().unwrap().manifest.clone();
        // Point one page at a hash the log never stored.
        m.shards[0].pages[0] = gsview_durable::chunk_hash(b"not a real page");
        let err = ChunkCache::new().reconstruct(&d, &m);
        assert!(err.is_err(), "missing chunk must not reconstruct");
    }
}
