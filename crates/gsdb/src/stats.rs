//! Store statistics: object counts, label histogram, fan-out
//! distribution. Used by workload generators to validate their shapes
//! and by the benchmark harness to report database parameters.

use crate::{EpochHandle, Label, Store};
use std::collections::HashMap;

/// The durable footprint of a persisted store lineage: how much
/// log space its content-addressed chunks occupy and how much the
/// chunk-level dedup saved. Produced by the durability layer
/// (`gsview-durable`), which attaches it to [`StoreStats::durable`]
/// and mirrors the figures into the obs metrics registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurableFootprint {
    /// Distinct content-addressed chunks in the epoch log.
    pub chunks: u64,
    /// Total epoch-log bytes (chunks, manifests, framing) — what a
    /// restart scans. Compaction keeps it within a fixed multiple of
    /// `live_bytes`.
    pub segment_bytes: u64,
    /// The log's live bytes: the newest manifest of every lineage and
    /// the chunks it names, framed — the size of a compacted log.
    pub live_bytes: u64,
    /// Chunk-payload bytes actually appended (after dedup).
    pub appended_bytes: u64,
    /// Chunk-payload bytes dedup avoided appending: bytes of persist
    /// requests answered by an already-present chunk.
    pub deduped_bytes: u64,
    /// `deduped / (appended + deduped)` — the fraction of logical
    /// persist traffic the content addressing absorbed (0 when
    /// nothing has been persisted).
    pub dedup_ratio: f64,
}

/// Summary statistics for a store.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Total objects.
    pub objects: usize,
    /// Set objects.
    pub set_objects: usize,
    /// Atomic objects.
    pub atomic_objects: usize,
    /// Total edges.
    pub edges: usize,
    /// Maximum fan-out of any set object.
    pub max_fanout: usize,
    /// Mean fan-out over set objects (0 when there are none).
    pub mean_fanout: f64,
    /// Objects per label.
    pub label_histogram: HashMap<Label, usize>,
    /// Live objects per slab shard, in shard order (length =
    /// [`Store::shard_count`]; a single entry for un-sharded stores).
    /// Reports how evenly the OID hash spreads the database across
    /// the commit pipeline's shards.
    pub shard_occupancy: Vec<usize>,
    /// Durable footprint of this store's persisted lineage, when a
    /// durability layer is attached (`None` for memory-only stores).
    /// Filled in by `gsview-durable`'s `stats_with_footprint`.
    pub durable: Option<DurableFootprint>,
}

/// Compute statistics over every object in the store.
pub fn stats(store: &Store) -> StoreStats {
    let mut s = StoreStats {
        objects: store.len(),
        shard_occupancy: store.shard_sizes(),
        ..Default::default()
    };
    for obj in store.iter() {
        *s.label_histogram.entry(obj.label).or_insert(0) += 1;
        if obj.is_set() {
            s.set_objects += 1;
            let f = obj.children().len();
            s.edges += f;
            s.max_fanout = s.max_fanout.max(f);
        } else {
            s.atomic_objects += 1;
        }
    }
    if s.set_objects > 0 {
        s.mean_fanout = s.edges as f64 / s.set_objects as f64;
    }
    s
}

/// Compute statistics over the latest epoch-published snapshot,
/// without ever taking the live store's mutex: grabbing the snapshot
/// is an `Arc` clone ([`EpochHandle::load`]), and iteration runs over
/// the immutable fork while the writer keeps committing. Returns the
/// observed epoch alongside the stats so callers can report *which*
/// committed state they measured.
pub fn stats_at(handle: &EpochHandle) -> (u64, StoreStats) {
    let (epoch, snapshot) = handle.load_with_epoch();
    (epoch, stats(&snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{atom, set};

    #[test]
    fn stats_count_correctly() {
        let mut store = Store::new();
        set("r", "root")
            .child(
                set("a", "mid")
                    .child(atom("x", "leaf", 1i64))
                    .child(atom("y", "leaf", 2i64)),
            )
            .child(atom("z", "leaf", 3i64))
            .build(&mut store)
            .unwrap();
        let s = stats(&store);
        assert_eq!(s.objects, 5);
        assert_eq!(s.set_objects, 2);
        assert_eq!(s.atomic_objects, 3);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_fanout, 2);
        assert!((s.mean_fanout - 2.0).abs() < 1e-9);
        assert_eq!(s.label_histogram[&Label::new("leaf")], 3);
    }

    #[test]
    fn stats_at_reads_published_epoch_not_live_store() {
        let mut live = Store::new();
        set("r", "root")
            .child(atom("x", "leaf", 1i64))
            .build(&mut live)
            .unwrap();
        let h = EpochHandle::new(live.fork());
        // Mutate the live store without publishing: stats_at must not
        // see it (it reads the snapshot, not the live store).
        atom("y", "leaf", 2i64).build(&mut live).unwrap();
        let (epoch, s) = stats_at(&h);
        assert_eq!(epoch, 0);
        assert_eq!(s.objects, 2);
        h.publish(std::sync::Arc::new(live.fork()));
        let (epoch, s) = stats_at(&h);
        assert_eq!(epoch, 1);
        assert_eq!(s.objects, 3);
    }

    #[test]
    fn empty_store_stats() {
        let s = stats(&Store::new());
        assert_eq!(s.objects, 0);
        assert_eq!(s.mean_fanout, 0.0);
        assert_eq!(s.shard_occupancy, vec![0]);
    }

    #[test]
    fn shard_occupancy_sums_to_object_count() {
        let mut store = Store::with_config(crate::StoreConfig::default().with_shards(4));
        for i in 0..50 {
            atom(format!("o{i}").as_str(), "leaf", i as i64)
                .build(&mut store)
                .unwrap();
        }
        let s = stats(&store);
        assert_eq!(s.shard_occupancy.len(), 4);
        assert_eq!(s.shard_occupancy.iter().sum::<usize>(), 50);
    }
}
