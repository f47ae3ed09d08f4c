//! Durable warm-restart and chunk-diff resync support.
//!
//! The warehouse side of `gsview-durable`: a [`ChunkCache`] of decoded
//! pages keyed by content hash, so reconstructing a source's persisted
//! epoch fetches **only the chunks whose hashes changed** since the
//! last reconstruction — unchanged pages are free, exactly mirroring
//! how the epoch log stores them once. This is the first step toward the
//! ROADMAP's subtree-diff resync protocol: today the diff unit is the
//! 256-slot page, addressed by hash.
//!
//! What the warehouse does with a reconstruction is what it does with
//! a source: it reads the view's region out of it
//! ([`AuxCache::build`](crate::cache::AuxCache::build) asking
//! [`answer`](crate::source::answer) over the rebuilt store instead of
//! a channel) and computes the view from the region — zero source
//! queries, which is the restart cost the paper's §3 architecture
//! exists to avoid.

use gsdb::{Object, ShardImage, Store};
use gsview_durable::{ChunkHash, ChunkPort, DurableError, Manifest};
use std::collections::HashMap;
use std::sync::Arc;

/// What one cached reconstruction moved over the chunk port.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Chunks fetched from the port (changed or first-seen pages).
    pub fetched: u64,
    /// Chunks served from the warehouse-side cache (unchanged pages).
    pub reused: u64,
}

/// Decoded pages the warehouse has already fetched from a durable
/// port, keyed by content hash. Content addressing makes the cache
/// trivially coherent: a hash never names two different pages, so a
/// page cached once never needs re-fetching or invalidating.
#[derive(Default)]
pub struct ChunkCache {
    pages: HashMap<ChunkHash, Arc<Vec<Option<Object>>>>,
}

impl ChunkCache {
    /// An empty cache.
    pub fn new() -> ChunkCache {
        ChunkCache::default()
    }

    /// Number of distinct pages cached.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True iff nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Rebuild the store a manifest describes, fetching only pages the
    /// cache has not seen (a previous reconstruction of any lineage
    /// over this cache counts — dedup is cross-lineage, like the
    /// log's). Fails if a needed chunk is unavailable or corrupt;
    /// the caller falls back to the query path.
    pub fn reconstruct(
        &mut self,
        port: &dyn ChunkPort,
        m: &Manifest,
    ) -> gsview_durable::Result<(Store, FetchStats)> {
        let mut stats = FetchStats::default();
        let mut images = Vec::with_capacity(m.shards.len());
        for sm in &m.shards {
            let mut pages = Vec::with_capacity(sm.pages.len());
            for h in &sm.pages {
                let page = match self.pages.get(h) {
                    Some(p) => {
                        stats.reused += 1;
                        Arc::clone(p)
                    }
                    None => {
                        let payload = port.fetch_chunk(h).ok_or_else(|| {
                            DurableError::Corrupt(format!("chunk {h} unavailable"))
                        })?;
                        let page = Arc::new(gsdb::codec::decode_page(&payload)?);
                        stats.fetched += 1;
                        self.pages.insert(*h, Arc::clone(&page));
                        page
                    }
                };
                pages.push(page);
            }
            images.push(ShardImage {
                len_slots: sm.len_slots as usize,
                pages,
            });
        }
        let store = Store::from_images(m.store_config(), images, m.version)
            .map_err(DurableError::Corrupt)?;
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

    fn persist(d: &DurableStore, name: &str, s: &Store, epoch: u64) {
        d.persist(
            name,
            &s.fork(),
            PersistMeta {
                epoch,
                seq: epoch,
                log_updates: false,
                extra: Vec::new(),
            },
        )
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
