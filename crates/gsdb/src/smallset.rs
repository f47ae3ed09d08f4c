//! A sorted set of `u32` slot ids with inline small-size storage.
//!
//! The store's parent index holds one set per indexed key.
//! In OEM-style databases the vast majority of objects have a handful
//! of parents (often exactly one), so a heap `Vec` (3 words of header
//! plus an allocation) per entry wastes cache and allocator time. A
//! [`SmallSet`] keeps up to [`INLINE`] elements inline in the map entry
//! itself and only spills to a heap `Vec` beyond that.
//!
//! Elements are kept sorted, so membership is a binary search and
//! iteration yields ascending slot ids — which also makes slab-order
//! scans over index entries cache-friendly.

/// Number of elements stored inline before spilling to the heap.
pub const INLINE: usize = 6;

#[derive(Clone, Debug)]
enum Repr {
    Inline { len: u8, buf: [u32; INLINE] },
    Heap(Vec<u32>),
}

/// A sorted set of `u32` ids, inline up to [`INLINE`] elements.
#[derive(Clone, Debug)]
pub struct SmallSet {
    repr: Repr,
}

impl Default for SmallSet {
    fn default() -> Self {
        SmallSet::new()
    }
}

impl SmallSet {
    /// An empty set.
    pub const fn new() -> Self {
        SmallSet {
            repr: Repr::Inline {
                len: 0,
                buf: [0; INLINE],
            },
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elements as a sorted slice.
    pub fn as_slice(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Membership test (binary search).
    pub fn contains(&self, x: u32) -> bool {
        self.as_slice().binary_search(&x).is_ok()
    }

    /// Insert, keeping sort order. Returns true if newly inserted.
    pub fn insert(&mut self, x: u32) -> bool {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                let Err(pos) = buf[..n].binary_search(&x) else {
                    return false;
                };
                if n < INLINE {
                    buf.copy_within(pos..n, pos + 1);
                    buf[pos] = x;
                    *len += 1;
                } else {
                    // Spill: move the inline elements to the heap.
                    let mut v = Vec::with_capacity(INLINE * 2);
                    v.extend_from_slice(&buf[..n]);
                    v.insert(pos, x);
                    self.repr = Repr::Heap(v);
                }
                true
            }
            Repr::Heap(v) => {
                let Err(pos) = v.binary_search(&x) else {
                    return false;
                };
                v.insert(pos, x);
                true
            }
        }
    }

    /// Remove. Returns true if the element was present.
    pub fn remove(&mut self, x: u32) -> bool {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                let Ok(pos) = buf[..n].binary_search(&x) else {
                    return false;
                };
                buf.copy_within(pos + 1..n, pos);
                *len -= 1;
                true
            }
            Repr::Heap(v) => {
                let Ok(pos) = v.binary_search(&x) else {
                    return false;
                };
                v.remove(pos);
                true
            }
        }
    }

    /// Iterate elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_inline() {
        let mut s = SmallSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert!(s.contains(3));
        assert!(!s.contains(2));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.as_slice(), &[1, 5]);
    }

    #[test]
    fn spills_to_heap_and_stays_sorted() {
        let mut s = SmallSet::new();
        for x in [9, 2, 7, 4, 11, 0, 5, 8, 1] {
            assert!(s.insert(x));
        }
        assert_eq!(s.len(), 9);
        assert_eq!(s.as_slice(), &[0, 1, 2, 4, 5, 7, 8, 9, 11]);
        assert!(s.contains(11));
        assert!(s.remove(0));
        assert!(s.remove(11));
        assert_eq!(s.as_slice(), &[1, 2, 4, 5, 7, 8, 9]);
    }

    #[test]
    fn spill_at_exact_boundary() {
        let mut s = SmallSet::new();
        for x in 0..INLINE as u32 {
            assert!(s.insert(x));
        }
        // The next insert crosses the inline capacity.
        assert!(s.insert(100));
        assert!(s.insert(50));
        assert_eq!(s.len(), INLINE + 2);
        assert!(s.contains(50) && s.contains(100) && s.contains(0));
    }

    #[test]
    fn duplicate_insert_at_boundary_does_not_spill() {
        let mut s = SmallSet::new();
        for x in 0..INLINE as u32 {
            s.insert(x);
        }
        assert!(!s.insert(0));
        assert_eq!(s.len(), INLINE);
    }
}
