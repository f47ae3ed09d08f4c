//! The copy-on-write hash table behind a shard's `slot_of`,
//! `parent_index` and parent spill table: [`Oid`] keys, linear probing,
//! and a fork that costs a reference bump.
//!
//! A [`CowMap`] is a **directory** of `2^bits` **segments**. The top
//! `bits` bits of a key's hash pick the segment; the bits below them
//! pick where its probe run starts inside it. A segment is one flat
//! `Arc<[(Oid, V)]>` — key and value side by side, a reserved
//! [`Oid::VACANT`] key marking the empty slots — so a lookup is one
//! read of the (small, hot) directory and one probe run in one
//! allocation. The directory sits behind its own `Arc`: cloning the
//! map bumps that one count, and the first write after a clone copies
//! the directory (pointers) and the one segment written, never the
//! whole table. Each such copy bumps `store.cow.segments_copied`. A
//! segment is copied with `Arc::from` of its slice, which for a plain
//! (`Copy`) value — `slot_of`'s slot, the parent index's 8-byte entry —
//! is one byte copy of the segment rather than a clone per entry.
//!
//! The directory doubles once the table averages [`SEGMENT_MAX`]
//! entries a segment, splitting every segment on the next hash bit, so
//! segments hold `SEGMENT_MAX / 2 .. SEGMENT_MAX` entries on average.
//! Each segment also grows on its own when it passes three quarters
//! full. Either way a rebuilt segment is sized by its entries — three
//! eighths full — not by its predecessor: halves that kept their
//! parent's size would leave the table under a quarter full after
//! every doubling, and halves sized any tighter would each be rebuilt
//! once more before the next doubling (a table built without
//! [`CowMap::reserve`] then places every entry 3.5 times instead of
//! twice).
//!
//! A table whose entries are all known up front — a recovered shard's,
//! a view store built whole — is made by [`CowMap::build`]: the
//! directory sized once, each segment filled before anything else can
//! hold it, so no entry pays the copy-on-write checks an insert does.

use crate::Oid;
use gsview_obs::Counter;
use std::sync::{Arc, OnceLock};

/// Average entries per segment at which the directory doubles.
const SEGMENT_MAX: usize = 128;
/// Slots of the smallest segment.
const MIN_SLOTS: usize = 8;

/// `store.cow.segments_copied`: segments copied because a fork still
/// shared them (growth and directory doublings are not counted — they
/// are amortised over the inserts that caused them, not paid per fork).
fn segments_copied() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| gsview_obs::registry().counter("store.cow.segments_copied"))
}

/// Fibonacci hash of the interned id: consecutive ids — what the
/// interner hands out — land maximally spread in the high bits, which
/// are the only ones [`CowMap`] uses.
#[inline]
fn hash(key: Oid) -> u64 {
    key.raw().wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Where `h`'s probe run starts in a segment of `slots` slots under a
/// `bits`-bit directory: the 32 hash bits below the directory's,
/// scaled onto `0..slots` (so segments need not be powers of two).
#[inline]
fn home(h: u64, bits: u32, slots: usize) -> usize {
    ((((h << bits) >> 32) * slots as u64) >> 32) as usize
}

/// Probe `slots` for `key`: `Ok` its position, `Err` the vacant slot
/// its run ends at. Terminates because no segment is ever full.
#[inline]
fn probe<V>(slots: &[(Oid, V)], mut i: usize, key: Oid) -> Result<usize, usize> {
    loop {
        let k = slots[i].0;
        if k == key {
            return Ok(i);
        }
        if k == Oid::VACANT {
            return Err(i);
        }
        i += 1;
        if i == slots.len() {
            i = 0;
        }
    }
}

/// `slots` vacant slots (at least [`MIN_SLOTS`]).
fn vacant<V: Default>(slots: usize) -> Arc<[(Oid, V)]> {
    (0..slots.max(MIN_SLOTS))
        .map(|_| (Oid::VACANT, V::default()))
        .collect()
}

/// Slots for a segment rebuilt around `entries` entries: three eighths
/// full, so its entries can double — up to the next directory
/// doubling — before it passes three quarters and is rebuilt again.
fn room_to_double(entries: usize) -> usize {
    entries * 8 / 3
}

/// Directory bits for `entries` entries at [`SEGMENT_MAX`] a segment
/// on average.
fn bits_for(entries: usize) -> u32 {
    let mut bits = 0;
    while entries > SEGMENT_MAX << bits {
        bits += 1;
    }
    bits
}

/// Put an entry known to be absent into `slots`, which have room.
fn place<V>(slots: &mut [(Oid, V)], h: u64, bits: u32, entry: (Oid, V)) {
    let at = probe(slots, home(h, bits, slots.len()), Oid::VACANT)
        .expect("the vacant marker is found, not passed");
    slots[at] = entry;
}

#[derive(Clone, Debug)]
struct Segment<V> {
    slots: Arc<[(Oid, V)]>,
    /// Occupied slots.
    len: u32,
}

impl<V> Segment<V> {
    /// True iff one more entry would pass three quarters full.
    fn is_full(&self) -> bool {
        (self.len as usize + 1) * 4 > self.slots.len() * 3
    }

    fn entries(&self) -> impl Iterator<Item = &(Oid, V)> {
        self.slots.iter().filter(|e| e.0 != Oid::VACANT)
    }
}

/// A hash map from [`Oid`] to `V` whose clone is a reference bump and
/// whose writes copy one segment. See the module docs.
#[derive(Clone, Debug)]
pub(crate) struct CowMap<V> {
    /// Empty until the first insert, then `1 << bits` segments.
    dir: Arc<Vec<Segment<V>>>,
    bits: u32,
    len: usize,
}

impl<V> Default for CowMap<V> {
    fn default() -> Self {
        CowMap {
            dir: Arc::new(Vec::new()),
            bits: 0,
            len: 0,
        }
    }
}

impl<V: Clone + Default> CowMap<V> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True iff no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segment `h` belongs to: its top `bits` bits.
    #[inline]
    fn segment_of(&self, h: u64) -> usize {
        ((h >> 32) >> (32 - self.bits)) as usize
    }

    /// `Ok((segment, slot))` holding `key`, or `Err` the vacant
    /// `(segment, slot)` its probe run ends at — `Err(None)` while the
    /// table has no segment at all.
    #[inline]
    fn find(&self, h: u64, key: Oid) -> Result<(usize, usize), Option<(usize, usize)>> {
        let seg = self.segment_of(h);
        let Some(segment) = self.dir.get(seg) else {
            return Err(None);
        };
        let slots = &*segment.slots;
        match probe(slots, home(h, self.bits, slots.len()), key) {
            Ok(at) => Ok((seg, at)),
            Err(at) => Err(Some((seg, at))),
        }
    }

    /// The value under `key`.
    #[inline]
    pub(crate) fn get(&self, key: Oid) -> Option<&V> {
        let h = hash(key);
        let slots = &*self.dir.get(self.segment_of(h))?.slots;
        let at = probe(slots, home(h, self.bits, slots.len()), key).ok()?;
        Some(&slots[at].1)
    }

    /// True iff `key` has an entry.
    #[inline]
    pub(crate) fn contains_key(&self, key: Oid) -> bool {
        self.get(key).is_some()
    }

    /// Every entry, in table order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, &V)> {
        self.dir
            .iter()
            .flat_map(|s| s.entries())
            .map(|(k, v)| (*k, v))
    }

    /// Write access to segment `seg` — the one place a copy happens:
    /// the directory if a clone still shares it, then the segment if
    /// one does.
    fn segment_mut(&mut self, seg: usize) -> (&mut [(Oid, V)], &mut u32) {
        let Segment { slots, len } = &mut Arc::make_mut(&mut self.dir)[seg];
        // A plain load decides whether to copy (nothing holds a `Weak`,
        // and nobody can clone what we borrow mutably, so a count of
        // one stays one); `get_mut` below does the synchronising.
        if Arc::strong_count(slots) != 1 {
            *slots = Arc::from(&slots[..]);
            segments_copied().incr();
        }
        (Arc::get_mut(slots).expect("unshared or just copied"), len)
    }

    /// Mutable access to the value under `key`. A miss copies nothing.
    pub(crate) fn get_mut(&mut self, key: Oid) -> Option<&mut V> {
        let (seg, at) = self.find(hash(key), key).ok()?;
        Some(&mut self.segment_mut(seg).0[at].1)
    }

    /// Insert `value` under `key` unless `key` already has an entry;
    /// true iff it was inserted. A refusal copies nothing.
    pub(crate) fn try_insert(&mut self, key: Oid, value: V) -> bool {
        let h = hash(key);
        match self.find(h, key) {
            Ok(_) => false,
            Err(vacancy) => {
                self.insert_absent(h, key, value, vacancy);
                true
            }
        }
    }

    /// The value under `key`, inserted as `V::default()` if absent —
    /// `HashMap::entry(key).or_default()` in one probe.
    pub(crate) fn or_default(&mut self, key: Oid) -> &mut V {
        let h = hash(key);
        match self.find(h, key) {
            Ok((seg, at)) => &mut self.segment_mut(seg).0[at].1,
            Err(vacancy) => self.insert_absent(h, key, V::default(), vacancy),
        }
    }

    /// Put an absent `key` into `vacancy`, where its probe ended — or,
    /// if room had to be made first, wherever a second probe ends.
    /// Returns the value where it landed.
    fn insert_absent(
        &mut self,
        h: u64,
        key: Oid,
        value: V,
        vacancy: Option<(usize, usize)>,
    ) -> &mut V {
        debug_assert!(key != Oid::VACANT);
        let rebuilt = self.make_room(h);
        let (seg, at) = match vacancy {
            Some(slot) if !rebuilt => slot,
            _ => {
                (self.find(h, key).expect_err("key is absent")).expect("make_room leaves a segment")
            }
        };
        self.len += 1;
        let (slots, len) = self.segment_mut(seg);
        *len += 1;
        slots[at] = (key, value);
        &mut slots[at].1
    }

    /// Make one insert of hash `h` fit — create the first segment or
    /// double the directory, and regrow `h`'s segment if it is full —
    /// and say whether anything was rebuilt.
    fn make_room(&mut self, h: u64) -> bool {
        let mut rebuilt = true;
        if self.dir.is_empty() {
            self.redistribute(0, 0);
        } else if self.len >= SEGMENT_MAX << self.bits {
            self.redistribute(self.bits + 1, 0);
        } else {
            rebuilt = false;
        }
        let seg = self.segment_of(h);
        let old = &self.dir[seg];
        if !old.is_full() {
            return rebuilt;
        }
        let mut slots = vacant(room_to_double(old.len as usize + 1));
        let room = Arc::get_mut(&mut slots).expect("just built");
        for e in old.entries() {
            place(room, hash(e.0), self.bits, e.clone());
        }
        let len = old.len;
        Arc::make_mut(&mut self.dir)[seg] = Segment { slots, len };
        true
    }

    /// Rebuild under a `bits`-bit directory (`bits >= self.bits`):
    /// every segment splits on the next `bits - self.bits` hash bits,
    /// each part with room to double its entries, or for `expect`
    /// entries at half load if that is more.
    fn redistribute(&mut self, bits: u32, expect: usize) {
        let fan = 1usize << (bits - self.bits);
        let mut dir = Vec::with_capacity(1 << bits);
        let part_of = |h: u64| ((h >> 32) >> (32 - bits)) as usize & (fan - 1);
        for old in self.dir.iter() {
            let mut counts = vec![0usize; fan];
            for e in old.entries() {
                counts[part_of(hash(e.0))] += 1;
            }
            let first = dir.len();
            dir.extend(counts.iter().map(|&n| Segment {
                slots: vacant(room_to_double(n).max(2 * expect)),
                len: n as u32,
            }));
            let mut parts: Vec<&mut [(Oid, V)]> = dir[first..]
                .iter_mut()
                .map(|s| Arc::get_mut(&mut s.slots).expect("just built"))
                .collect();
            for e in old.entries() {
                let h = hash(e.0);
                place(parts[part_of(h)], h, bits, e.clone());
            }
        }
        dir.resize_with(1 << bits, || Segment {
            slots: vacant(2 * expect),
            len: 0,
        });
        self.dir = Arc::new(dir);
        self.bits = bits;
    }

    /// A table holding `entries`, built in one step: the directory is
    /// sized once for `entries.len()` keys by [`reserve`](Self::reserve)'s
    /// rule, and each segment is sized as `reserve` sizes it — or, if
    /// its entries would pass three quarters of that, with room to
    /// double them — filled, and only then put behind its `Arc`. A key
    /// that repeats goes through `merge(key, kept, repeat)`; `false`
    /// refuses the build, and the refused key is the error.
    pub(crate) fn build(
        entries: Vec<(Oid, V)>,
        mut merge: impl FnMut(Oid, &mut V, V) -> bool,
    ) -> Result<Self, Oid> {
        if entries.is_empty() {
            return Ok(CowMap::default());
        }
        let bits = bits_for(entries.len());
        let segment_of = |h: u64| ((h >> 32) >> (32 - bits)) as usize;
        let mut counts = vec![0usize; 1 << bits];
        for e in &entries {
            counts[segment_of(hash(e.0))] += 1;
        }
        let reserved = 2 * entries.len().div_ceil(1 << bits);
        let mut rooms: Vec<Vec<(Oid, V)>> = (counts.into_iter())
            .map(|n| {
                let slots = if n * 4 > reserved * 3 {
                    room_to_double(n)
                } else {
                    reserved
                };
                vec![(Oid::VACANT, V::default()); slots.max(MIN_SLOTS)]
            })
            .collect();
        let mut lens = vec![0u32; 1 << bits];
        for (key, value) in entries {
            debug_assert!(key != Oid::VACANT);
            let h = hash(key);
            let seg = segment_of(h);
            let slots = &mut rooms[seg];
            match probe(slots, home(h, bits, slots.len()), key) {
                Ok(at) => {
                    if !merge(key, &mut slots[at].1, value) {
                        return Err(key);
                    }
                }
                Err(at) => {
                    slots[at] = (key, value);
                    lens[seg] += 1;
                }
            }
        }
        Ok(CowMap {
            len: lens.iter().map(|&n| n as usize).sum(),
            dir: Arc::new(
                (rooms.into_iter().zip(lens))
                    .map(|(slots, len)| Segment {
                        slots: slots.into(),
                        len,
                    })
                    .collect(),
            ),
            bits,
        })
    }

    /// Make room for `additional` more entries in one step, so a bulk
    /// build does not double its way up through every directory size.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let want = self.len + additional;
        let bits = bits_for(want).max(self.bits);
        // Within one directory size only a table about to double (an
        // empty one included) is rebuilt; a smaller step is left to
        // the segments' own growth.
        if bits > self.bits || additional > self.len {
            self.redistribute(bits, want.div_ceil(1 << bits));
        }
    }

    /// Remove `key`'s entry and return its value. A miss copies
    /// nothing.
    pub(crate) fn remove(&mut self, key: Oid) -> Option<V> {
        let (seg, mut hole) = self.find(hash(key), key).ok()?;
        let bits = self.bits;
        self.len -= 1;
        let (slots, len) = self.segment_mut(seg);
        let removed = std::mem::replace(&mut slots[hole], (Oid::VACANT, V::default())).1;
        *len -= 1;
        // Backward-shift deletion: close the hole with each later
        // entry of the run whose home is not cyclically inside
        // `(hole, j]`, so no probe run is ever cut by a vacant slot.
        let mut j = hole;
        loop {
            j = if j + 1 == slots.len() { 0 } else { j + 1 };
            let k = slots[j].0;
            if k == Oid::VACANT {
                break;
            }
            let ideal = home(hash(k), bits, slots.len());
            let stays = if hole <= j {
                hole < ideal && ideal <= j
            } else {
                hole < ideal || ideal <= j
            };
            if !stays {
                slots.swap(hole, j);
                hole = j;
            }
        }
        Some(removed)
    }
}

#[cfg(test)]
impl<V> CowMap<V> {
    /// Segments (and, with them, the directory) this map does not
    /// share with `other`, position by position.
    pub(crate) fn segments_apart_from(&self, other: &Self) -> usize {
        assert_eq!(
            self.bits, other.bits,
            "directories of different sizes share nothing"
        );
        (self.dir.iter().zip(other.dir.iter()))
            .filter(|(a, b)| !Arc::ptr_eq(&a.slots, &b.slots))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn pool(n: usize) -> Vec<Oid> {
        (0..n).map(|i| Oid::new(&format!("cowmap{i}"))).collect()
    }

    /// `sut` holds exactly `model`: same length, same answer for every
    /// pool key, and `iter` lists each entry once.
    fn assert_same(sut: &CowMap<u32>, model: &HashMap<Oid, u32>, pool: &[Oid]) {
        assert_eq!(sut.len(), model.len());
        assert_eq!(sut.is_empty(), model.is_empty());
        for &k in pool {
            assert_eq!(sut.get(k), model.get(&k), "{k}");
        }
        let mut listed: Vec<(Oid, u32)> = sut.iter().map(|(k, v)| (k, *v)).collect();
        let mut want: Vec<(Oid, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        listed.sort();
        want.sort();
        assert_eq!(listed, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The table is a `HashMap` under every call the store makes,
        /// through several directory doublings, and a clone taken at
        /// any point keeps answering the state it was taken in.
        #[test]
        fn matches_hashmap_and_clones_stay_put(
            ops in prop::collection::vec((0..9u8, 0..2500usize, any::<u32>()), 0..5000),
        ) {
            let pool = pool(2500);
            let mut sut: CowMap<u32> = CowMap::default();
            let mut model: HashMap<Oid, u32> = HashMap::new();
            let mut clones: Vec<(CowMap<u32>, HashMap<Oid, u32>)> = Vec::new();
            for (kind, idx, v) in ops {
                let k = pool[idx];
                match kind {
                    0..=3 => {
                        let fresh = !model.contains_key(&k);
                        prop_assert_eq!(sut.try_insert(k, v), fresh);
                        model.entry(k).or_insert(v);
                    }
                    4 => prop_assert_eq!(sut.remove(k), model.remove(&k)),
                    5 => {
                        let (got, want) = (sut.get_mut(k), model.get_mut(&k));
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            *got = v;
                            *want = v;
                        }
                    }
                    6 => {
                        let (got, want) = (sut.or_default(k), model.entry(k).or_default());
                        prop_assert_eq!(*got, *want);
                        *got = got.wrapping_add(v);
                        *want = want.wrapping_add(v);
                    }
                    7 => sut.reserve(v as usize % 700),
                    _ => {
                        if clones.len() < 4 {
                            clones.push((sut.clone(), model.clone()));
                        }
                    }
                }
                prop_assert_eq!(sut.len(), model.len());
                prop_assert_eq!(sut.contains_key(k), model.contains_key(&k));
            }
            assert_same(&sut, &model, &pool);
            for (clone, model) in &clones {
                assert_same(clone, model, &pool);
            }
        }
    }

    #[test]
    fn the_directory_doubles_and_no_segment_is_left_sparse() {
        let pool = pool(2500);
        let mut m: CowMap<u32> = CowMap::default();
        for (i, &k) in pool.iter().enumerate() {
            assert!(m.try_insert(k, i as u32));
        }
        assert_eq!(m.bits, 5, "2500 entries at <= 128 a segment");
        assert_eq!(m.dir.len(), 32);
        // Every rebuild sizes a segment three eighths full, so the
        // table as a whole is never sparser than that.
        let slots: usize = m.dir.iter().map(|s| s.slots.len()).sum();
        assert!(
            slots * 3 <= pool.len() * 8,
            "{slots} slots for {} entries",
            pool.len()
        );
        for s in m.dir.iter() {
            assert_eq!(s.len as usize, s.entries().count());
            assert!(!s.is_full() || s.slots.len() == MIN_SLOTS);
        }
    }

    #[test]
    fn a_backward_shift_wraps_around_the_segments_end() {
        // One 8-slot segment; four keys whose probe runs start in its
        // last slot occupy slots 7, 0, 1, 2.
        let last: Vec<Oid> = (0..)
            .map(|i| Oid::new(&format!("cowmapwrap{i}")))
            .filter(|&k| home(hash(k), 0, MIN_SLOTS) == MIN_SLOTS - 1)
            .take(4)
            .collect();
        let mut m: CowMap<u32> = CowMap::default();
        for (i, &k) in last.iter().enumerate() {
            assert!(m.try_insert(k, i as u32));
        }
        assert_eq!(m.dir[0].slots.len(), MIN_SLOTS);
        let keys = |m: &CowMap<u32>| m.dir[0].slots.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(keys(&m)[7], last[0]);
        assert_eq!(keys(&m)[..3], last[1..]);
        // Removing the head pulls every later entry one slot back,
        // the first of them across the end.
        assert_eq!(m.remove(last[0]), Some(0));
        assert_eq!(keys(&m)[7], last[1]);
        assert_eq!(keys(&m)[..2], last[2..]);
        assert_eq!(keys(&m)[2], Oid::VACANT);
        for (i, &k) in last.iter().enumerate().skip(1) {
            assert_eq!(m.get(k), Some(&(i as u32)));
        }
        // Removing from the middle of the wrapped run closes it too.
        assert_eq!(m.remove(last[2]), Some(2));
        assert_eq!(m.get(last[1]), Some(&1));
        assert_eq!(m.get(last[3]), Some(&3));
        assert_eq!(m.get(last[2]), None);
    }

    #[test]
    fn a_refused_insert_and_a_miss_copy_nothing() {
        let pool = pool(600);
        let mut m: CowMap<u32> = CowMap::default();
        for &k in &pool[..500] {
            m.try_insert(k, 1);
        }
        let fork = m.clone();
        assert!(!m.try_insert(pool[3], 9));
        assert_eq!(m.remove(pool[550]), None);
        assert!(m.get_mut(pool[551]).is_none());
        assert!(Arc::ptr_eq(&m.dir, &fork.dir));
        // One write: the directory and one segment.
        *m.get_mut(pool[3]).unwrap() = 9;
        assert!(!Arc::ptr_eq(&m.dir, &fork.dir));
        assert_eq!(m.segments_apart_from(&fork), 1);
        assert_eq!(fork.get(pool[3]), Some(&1));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// A table built in one step holds what inserting its entries
        /// one by one holds — a repeated key merged, or refused with
        /// the key — and keeps the load rules: no segment past three
        /// quarters full, the directory at most `SEGMENT_MAX` entries a
        /// segment on average.
        #[test]
        fn build_holds_what_the_inserts_hold(
            keys in prop::collection::vec(0..3000usize, 0..3000),
            refuse in any::<bool>(),
        ) {
            let pool = pool(3000);
            let entries: Vec<(Oid, u32)> = keys.iter().map(|&i| (pool[i], i as u32 + 1)).collect();
            let mut model: HashMap<Oid, u32> = HashMap::new();
            let mut repeat = None;
            for &(k, v) in &entries {
                if model.contains_key(&k) {
                    repeat.get_or_insert(k);
                }
                *model.entry(k).or_default() += v;
            }
            let built = CowMap::build(entries, |_, kept, more| {
                *kept += more;
                !refuse
            });
            match (built, refuse.then_some(repeat).flatten()) {
                (Err(k), Some(first)) => prop_assert_eq!(k, first),
                (Ok(m), None) => {
                    let pool_keys: Vec<Oid> = keys.iter().map(|&i| pool[i]).collect();
                    assert_same(&m, &model, &pool_keys);
                    prop_assert!(m.len <= SEGMENT_MAX << m.bits);
                    for s in m.dir.iter() {
                        prop_assert_eq!(s.len as usize, s.entries().count());
                        prop_assert!(s.len as usize * 4 <= s.slots.len() * 3);
                    }
                }
                (got, want) => prop_assert!(false, "{:?} for repeat {:?}", got.err(), want),
            }
        }
    }

    #[test]
    fn reserve_sizes_the_directory_once() {
        let pool = pool(2500);
        let mut m: CowMap<u32> = CowMap::default();
        m.reserve(pool.len());
        assert_eq!(m.bits, 5);
        let before: Vec<*const (Oid, u32)> = m.dir.iter().map(|s| s.slots.as_ptr()).collect();
        for &k in &pool {
            m.try_insert(k, 0);
        }
        assert_eq!(m.bits, 5);
        let regrown = (m.dir.iter().zip(&before))
            .filter(|(s, &p)| s.slots.as_ptr() != p)
            .count();
        assert!(
            regrown <= 2,
            "{regrown} of 32 reserved segments had to grow"
        );
    }
}
