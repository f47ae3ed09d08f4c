//! Z-sets: collections with signed integer multiplicities.
//!
//! A [`ZSet`] maps keys to non-zero `i64` weights. Insertions carry
//! weight `+1`, deletions `-1`; equal keys consolidate by summing and
//! a key whose weight reaches zero vanishes. Every circuit operator
//! consumes and produces Z-set deltas, which is what makes the whole
//! dataflow composable: `apply(a) ∘ apply(b) = apply(a + b)` holds by
//! linearity regardless of how a batch is split or ordered.

use gsdb::FastMap;
use std::hash::Hash;

/// A weighted collection: key → non-zero signed weight.
///
/// All mutation goes through [`ZSet::add`], which consolidates
/// eagerly — the map never holds an explicit zero, so iteration order
/// aside, two Z-sets built from any interleaving of the same deltas
/// are equal.
#[derive(Clone, Debug)]
pub struct ZSet<K: Eq + Hash> {
    weights: FastMap<K, i64>,
}

impl<K: Eq + Hash> Default for ZSet<K> {
    fn default() -> Self {
        ZSet {
            weights: FastMap::default(),
        }
    }
}

impl<K: Eq + Hash + Copy> ZSet<K> {
    /// The empty Z-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `w` to the weight of `key`, consolidating to zero. Returns
    /// the new weight. Weights saturate instead of overflowing: the
    /// circuit layer treats a saturated count as "very many
    /// derivations", which is sign-accurate for the membership and
    /// witness clamps built on top.
    pub fn add(&mut self, key: K, w: i64) -> i64 {
        if w == 0 {
            return self.weight(key);
        }
        let entry = self.weights.entry(key).or_insert(0);
        *entry = entry.saturating_add(w);
        let now = *entry;
        if now == 0 {
            self.weights.remove(&key);
        }
        now
    }

    /// The weight of `key` (zero when absent).
    pub fn weight(&self, key: K) -> i64 {
        self.weights.get(&key).copied().unwrap_or(0)
    }

    /// Number of keys with non-zero weight.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True iff no key has non-zero weight.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterate `(key, weight)` pairs. Order is unspecified.
    pub fn iter(&self) -> impl Iterator<Item = (K, i64)> + '_ {
        self.weights.iter().map(|(k, w)| (*k, *w))
    }

    /// Remove and return an arbitrary entry — the worklist pop the
    /// propagation loops are built on.
    pub fn pop(&mut self) -> Option<(K, i64)> {
        let key = *self.weights.keys().next()?;
        let w = self.weights.remove(&key).expect("key just observed");
        Some((key, w))
    }

    /// Merge another Z-set into this one (pointwise sum).
    pub fn merge(&mut self, other: &ZSet<K>) {
        for (k, w) in other.iter() {
            self.add(k, w);
        }
    }
}

impl<K: Eq + Hash + Copy> FromIterator<(K, i64)> for ZSet<K> {
    fn from_iter<I: IntoIterator<Item = (K, i64)>>(iter: I) -> Self {
        let mut z = ZSet::new();
        for (k, w) in iter {
            z.add(k, w);
        }
        z
    }
}

/// The `distinct` clamp: the set-semantics delta produced when a
/// support count moves between zero and positive. `+1` when support
/// becomes positive, `-1` when it stops being positive, `0` otherwise.
pub fn distinct_delta(old_support: i64, new_support: i64) -> i64 {
    (new_support > 0) as i64 - (old_support > 0) as i64
}

/// Tracks which keys currently clamp to "present" and emits set-level
/// deltas when a key's support crosses zero — the `distinct` operator.
///
/// The operator is stateful but order-independent: its output depends
/// only on the sign transitions of the support function it is synced
/// against, never on the order dirty keys are presented in.
#[derive(Clone, Debug, Default)]
pub struct DistinctOp<K: Eq + Hash> {
    positive: gsdb::FastSet<K>,
}

impl<K: Eq + Hash + Copy> DistinctOp<K> {
    /// A distinct operator with empty state.
    pub fn new() -> Self {
        DistinctOp {
            positive: gsdb::FastSet::default(),
        }
    }

    /// True iff `key` currently clamps to present.
    pub fn contains(&self, key: K) -> bool {
        self.positive.contains(&key)
    }

    /// Keys currently present. Order unspecified.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.positive.iter().copied()
    }

    /// Number of present keys.
    pub fn len(&self) -> usize {
        self.positive.len()
    }

    /// True iff no key is present.
    pub fn is_empty(&self) -> bool {
        self.positive.is_empty()
    }

    /// Re-evaluate `support` for every dirty key and emit `(key, ±1)`
    /// for each zero crossing. Duplicate dirty keys are harmless.
    pub fn sync(
        &mut self,
        dirty: impl IntoIterator<Item = K>,
        support: impl Fn(K) -> i64,
    ) -> Vec<(K, i64)> {
        let mut out = Vec::new();
        for key in dirty {
            let was = self.positive.contains(&key);
            let now = support(key) > 0;
            if now && !was {
                self.positive.insert(key);
                out.push((key, 1));
            } else if !now && was {
                self.positive.remove(&key);
                out.push((key, -1));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_delete_annihilate() {
        let mut z: ZSet<u32> = ZSet::new();
        z.add(7, 1);
        z.add(7, -1);
        assert!(z.is_empty());
        assert_eq!(z.weight(7), 0);
    }

    #[test]
    fn duplicate_weights_sum() {
        let mut z: ZSet<u32> = ZSet::new();
        z.add(1, 2);
        z.add(1, 3);
        assert_eq!(z.weight(1), 5);
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn distinct_clamps_on_zero_crossings_only() {
        assert_eq!(distinct_delta(0, 3), 1);
        assert_eq!(distinct_delta(2, 5), 0);
        assert_eq!(distinct_delta(1, 0), -1);
        assert_eq!(distinct_delta(0, 0), 0);
    }

    #[test]
    fn distinct_op_emits_transitions() {
        let mut d: DistinctOp<u32> = DistinctOp::new();
        let out = d.sync([1, 2], |k| if k == 1 { 1 } else { 0 });
        assert_eq!(out, vec![(1, 1)]);
        // No transition: nothing emitted.
        assert!(d.sync([1], |_| 5).is_empty());
        let out = d.sync([1], |_| 0);
        assert_eq!(out, vec![(1, -1)]);
    }

    #[test]
    fn merge_is_pointwise_sum() {
        let a: ZSet<u32> = [(1, 1), (2, -1)].into_iter().collect();
        let b: ZSet<u32> = [(2, 1), (3, 4)].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.weight(1), 1);
        assert_eq!(m.weight(2), 0);
        assert_eq!(m.weight(3), 4);
        assert_eq!(m.len(), 2);
    }
}
