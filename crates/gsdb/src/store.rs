//! The object store: owns all objects of one or more graph structured
//! databases and applies the basic updates of paper §4.1.
//!
//! The store is *conceptual-model faithful*: objects are
//! `<OID, label, type, value>` records, and every mutation flows through
//! [`Store::apply`] so that an update log can feed source monitors
//! (paper §5) and maintenance algorithms (paper §4).
//!
//! ## Sharded arena layout
//!
//! Objects live in a slab of fixed-size **copy-on-write pages**
//! addressed by a `u32` **slot id**. The slab is partitioned into
//! `N` **shards** (`N` a power of two, selected by
//! [`StoreConfig::shards`]); each shard owns its own page vector, free
//! list, `Oid → slot` map, and parent/label index maps. Slot ids
//! interleave the shard in the low bits — `shard = slot & (N-1)`,
//! `local = slot >> log2(N)` — so [`Store::slot_bound`] stays
//! proportional to the largest shard rather than exploding per shard,
//! and `N = 1` degenerates to exactly the un-sharded layout.
//!
//! An OID's home shard is a pure function of the OID
//! ([`Store::shard_of`]); the `Oid → slot` map, the object record, and
//! its label-index entry all live in that shard. A **parent-index
//! entry for child `c` lives in `shard_of(c)`** (its values — parent
//! slots — may point into any shard), so [`Store::parents`] stays a
//! single-map lookup while [`Store::with_label`] concatenates one
//! sorted slice per shard. The payoff of this ownership discipline is
//! that every basic update touches a small, statically computable set
//! of shards — the basis of the concurrent multi-writer commit
//! pipeline in [`ShardedStore`](crate::ShardedStore), which gives each
//! shard its own mutation lock.
//!
//! Within a shard, removed slots go on a free list and are reused by
//! later creates — object identity is the OID, so slot reuse never
//! changes what callers observe, and GC / snapshot-restore round-trips
//! keep `Oid → value` mappings stable.
//!
//! ## Copy-on-write cloning and epoch forks
//!
//! Everything a shard holds in bulk sits behind `Arc`s, so
//! [`Store::clone`] and [`Store::fork`] bump reference counts instead
//! of deep-copying objects, and the first write to a shared structure
//! after a clone copies that structure privately — the other side
//! keeps observing the state it captured. This is what lets a source
//! publish an immutable post-commit snapshot of itself into an
//! [`EpochHandle`](crate::EpochHandle) on **every** committed update:
//! readers traverse the published fork while writers keep mutating the
//! live store.
//!
//! What a write copies is bounded by what it writes, not by what the
//! shard holds:
//!
//! * a **page** (`PAGE_SIZE` slots) for each object record written —
//!   8–28 µs by what the page holds; a set object up to 16 members is
//!   one slice copy ([`OidSet`](crate::OidSet) keeps a member index
//!   only above that);
//! * for `slot_of` and `parent_index`, a [`CowMap`]: the table's
//!   directory (a vector of segment pointers) and the **one segment**
//!   — about a hundred entries — holding the entry written. A create
//!   or remove writes one `slot_of` entry, an edge update one
//!   `parent_index` entry, a remove of an object with *k* children
//!   *k* more;
//! * `label_index` whole: it is keyed by label, a handful of entries.
//!
//! `store.cow.pages_copied` and `store.cow.segments_copied` count the
//! first two, so "what did this commit copy" is a number that does not
//! depend on the machine (E16 gates it flat from 3 k to 30 k objects).
//! What still scales with the shard is each clone of its `pages`
//! pointer vector and free list (`ShardState::clone`, three per
//! commit). Every successful [`Store::apply`] also bumps a
//! monotonically increasing [`version`](Store::version), so commit
//! protocols can skip republishing untouched state.
//!
//! Two optional indexes accelerate the functions Algorithm 1 relies on:
//!
//! * the **parent index** — the paper's "inverse index such that from
//!   each node we can find out its parent" (§4.4), which makes
//!   `ancestor(N, p)` a cheap upward walk instead of a traversal from
//!   the root;
//! * the **label index** — label → objects, used by query planning.
//!
//! Both indexes store **slot ids** in sorted inline small-sets
//! ([`SmallSet`]), keyed by child OID (so replica stores may hold
//! dangling child references) and by label respectively.
//!
//! Object reads can increment an access counter, giving experiments a
//! machine-independent measure of "access to base data" — the cost the
//! paper's §4.4 discussion is about. Counting is off by default
//! (production reads skip even the counter bump); experiment harnesses
//! opt in with [`StoreConfig::count_accesses`].

use crate::cowmap::CowMap;
use crate::fxhash::FastMap;
use crate::smallset::SmallSet;
use crate::{
    AppliedUpdate, Atom, GsdbError, Label, Object, Oid, Result, Update, Value,
};
use gsview_obs::Counter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Slots per copy-on-write page (power of two: slot addressing is a
/// shift and a mask). 256 objects bounds the clone cost a writer pays
/// on the first touch of a shared page after an epoch fork.
const PAGE_SHIFT: u32 = 8;
/// Page capacity, in slots.
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Mask extracting the within-page offset from a local slot id.
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// Maximum shard count a store will partition into (power of two).
/// Sixteen shards keeps the `SlotSet` slice array `Copy`-cheap and is
/// far beyond the writer parallelism a single source sees.
pub const MAX_SHARDS: usize = 16;

/// One copy-on-write slab page, always `PAGE_SIZE` entries long.
type Page = Vec<Option<Object>>;

/// The home shard of an OID at a given shard shift (`log2(shards)`).
/// A pure function of the OID so every store (and every commit
/// pipeline) at the same shard count agrees on placement.
#[inline]
pub(crate) fn shard_for(oid: Oid, shift: u32) -> usize {
    if shift == 0 {
        return 0;
    }
    // Fibonacci multiplicative hash of the interned symbol; the high
    // bits are well mixed even for the sequential ids interning hands
    // out.
    let h = oid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) & ((1usize << shift) - 1)
}

/// One shard of the slab: a page vector plus every map whose entries
/// this shard owns. All slot values held in maps are **global** slot
/// ids (shard interleaved in the low bits) so they resolve against the
/// whole store; the pages are addressed by **local** ids
/// (`global >> shift`).
#[derive(Clone, Debug, Default)]
pub(crate) struct ShardState {
    /// The shard's copy-on-write pages. `None` entries are free slots
    /// awaiting reuse (or the unallocated tail of the last page).
    pub(crate) pages: Vec<Arc<Page>>,
    /// Local slots handed out so far (high-water mark, free included).
    pub(crate) len_slots: usize,
    /// OID → global slot, for OIDs homed in this shard.
    pub(crate) slot_of: CowMap<u32>,
    /// Free global slots of this shard, reused LIFO by `Create`.
    pub(crate) free: Vec<u32>,
    /// child OID (homed here) → sorted global parent slots (any
    /// shard). Keyed by OID (not slot) so replica stores may index
    /// edges to children they don't hold.
    pub(crate) parent_index: Option<CowMap<SmallSet>>,
    /// label → sorted global member slots (members homed here).
    pub(crate) label_index: Option<Arc<FastMap<Label, SmallSet>>>,
}

impl ShardState {
    /// Fresh shard with the given index options enabled.
    fn with_indexes(parent: bool, label: bool) -> Self {
        ShardState {
            parent_index: parent.then(CowMap::default),
            label_index: label.then(|| Arc::new(FastMap::default())),
            ..ShardState::default()
        }
    }

    /// Shared read access to the slot behind local id `local`.
    #[inline]
    pub(crate) fn obj(&self, local: u32) -> Option<&Object> {
        self.pages
            .get((local >> PAGE_SHIFT) as usize)
            .and_then(|p| p[(local & PAGE_MASK) as usize].as_ref())
    }

    /// Exclusive access to the slot behind local id `local`, copying
    /// the page first if it is shared with a published epoch fork.
    /// Panics on out-of-range slots — mutation paths only address
    /// allocated slots.
    #[inline]
    fn obj_mut(&mut self, local: u32) -> &mut Option<Object> {
        let page = &mut self.pages[(local >> PAGE_SHIFT) as usize];
        // As in `CowMap::segment_mut`: a plain load decides, `get_mut`
        // synchronises.
        if Arc::strong_count(page) != 1 {
            *page = Arc::new(Page::clone(page));
            pages_copied().incr();
        }
        &mut Arc::get_mut(page).expect("unshared or just copied")[(local & PAGE_MASK) as usize]
    }

    /// Size `slot_of` and the parent index for `additional` more
    /// objects homed here (most objects are somebody's child, so the
    /// object count stands in for the parent index's entry count).
    pub(crate) fn reserve_entries(&mut self, additional: usize) {
        self.slot_of.reserve(additional);
        if let Some(idx) = self.parent_index.as_mut() {
            idx.reserve(additional);
        }
    }

    /// Live objects in this shard.
    fn iter(&self) -> impl Iterator<Item = &Object> {
        self.pages.iter().flat_map(|p| p.iter()).filter_map(|s| s.as_ref())
    }
}

/// `store.cow.pages_copied`: pages copied because a fork still shared
/// them — with `store.cow.segments_copied`, what a commit copied.
fn pages_copied() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| gsview_obs::registry().counter("store.cow.pages_copied"))
}

/// Uniform mutable access to a set of shards — implemented by
/// [`Store`] (all shards owned, exclusively borrowed) and by the
/// commit pipeline's locked-guard view (only the shards a batch
/// affects are locked; touching an unlocked one is a bug in the
/// affected-shard computation and panics). [`apply_update`] is written
/// against this trait so both paths share one mutation core.
pub(crate) trait ShardAccess {
    /// `log2(shard count)`.
    fn shift(&self) -> u32;
    /// Read access to shard `i`.
    fn state(&self, i: usize) -> &ShardState;
    /// Write access to shard `i`.
    fn state_mut(&mut self, i: usize) -> &mut ShardState;

    /// Home shard of `oid`.
    #[inline]
    fn home(&self, oid: Oid) -> usize {
        shard_for(oid, self.shift())
    }
}

/// The shared mutation core: apply one basic update against any
/// [`ShardAccess`] view, maintaining object records and both indexes
/// under the sharded ownership discipline (see the module docs). Does
/// **not** touch the update log, version counter, or sorted-OID cache —
/// those are store-level concerns the callers own.
pub(crate) fn apply_update<V: ShardAccess>(view: &mut V, update: Update) -> Result<AppliedUpdate> {
    match update {
        Update::Insert { parent, child } => {
            let cs = view.home(child);
            if !view.state(cs).slot_of.contains_key(child) {
                return Err(GsdbError::NoSuchObject(child));
            }
            let ps = view.home(parent);
            let pslot = *view
                .state(ps)
                .slot_of
                .get(parent)
                .ok_or(GsdbError::NoSuchObject(parent))?;
            let shift = view.shift();
            {
                let st = view.state_mut(ps);
                let pobj = st.obj_mut(pslot >> shift).as_mut().unwrap();
                let set = pobj.value.as_set_mut().ok_or(GsdbError::NotASet(parent))?;
                if !set.insert(child) {
                    // A duplicate insert is a no-op on the set, but if
                    // accepted it would be logged as applied — and
                    // delta consolidation nets edge counts from the
                    // log, so a later delete would be cancelled (or
                    // double-counted) against an edge that was only
                    // ever stored once. Reject it like a delete of an
                    // absent edge.
                    return Err(GsdbError::AlreadyAChild { parent, child });
                }
            }
            let st = view.state_mut(cs);
            if let Some(idx) = st.parent_index.as_mut() {
                idx.or_default(child).insert(pslot);
            }
            Ok(AppliedUpdate::Insert { parent, child })
        }
        Update::Delete { parent, child } => {
            let ps = view.home(parent);
            let pslot = *view
                .state(ps)
                .slot_of
                .get(parent)
                .ok_or(GsdbError::NoSuchObject(parent))?;
            let shift = view.shift();
            {
                let st = view.state_mut(ps);
                let pobj = st.obj_mut(pslot >> shift).as_mut().unwrap();
                let set = pobj.value.as_set_mut().ok_or(GsdbError::NotASet(parent))?;
                if !set.remove(child) {
                    return Err(GsdbError::NotAChild { parent, child });
                }
            }
            let cs = view.home(child);
            let st = view.state_mut(cs);
            if let Some(idx) = st.parent_index.as_mut() {
                if let Some(ps) = idx.get_mut(child) {
                    ps.remove(pslot);
                }
            }
            Ok(AppliedUpdate::Delete { parent, child })
        }
        Update::Modify { oid, new } => {
            let s = view.home(oid);
            let slot = *view
                .state(s)
                .slot_of
                .get(oid)
                .ok_or(GsdbError::NoSuchObject(oid))?;
            let shift = view.shift();
            let obj = view.state_mut(s).obj_mut(slot >> shift).as_mut().unwrap();
            let old = match &mut obj.value {
                Value::Atom(a) => std::mem::replace(a, new.clone()),
                Value::Set(_) => return Err(GsdbError::NotAtomic(oid)),
            };
            Ok(AppliedUpdate::Modify { oid, old, new })
        }
        Update::Create { object } => {
            let oid = object.oid;
            let s = view.home(oid);
            let shift = view.shift();
            let slot = {
                let st = view.state_mut(s);
                // Reuse a freed slot if one exists; identity is the
                // OID, so reuse is invisible to callers. The slot is
                // taken only once `slot_of` has accepted the OID — the
                // duplicate check and the insert are one probe.
                let local = st.len_slots as u32;
                let slot = st
                    .free
                    .last()
                    .copied()
                    .unwrap_or((local << shift) | s as u32);
                if !st.slot_of.try_insert(oid, slot) {
                    return Err(GsdbError::DuplicateOid(oid));
                }
                if st.free.pop().is_none() {
                    if (local >> PAGE_SHIFT) as usize == st.pages.len() {
                        st.pages.push(Arc::new(vec![None; PAGE_SIZE]));
                    }
                    st.len_slots += 1;
                }
                slot
            };
            if view.state(s).label_index.is_some() {
                let st = view.state_mut(s);
                Arc::make_mut(st.label_index.as_mut().unwrap())
                    .entry(object.label)
                    .or_default()
                    .insert(slot);
            }
            if view.state(s).parent_index.is_some() {
                // A created object may arrive with children already in
                // its set value; index those edges, each in the
                // child's home shard.
                for i in 0..object.children().len() {
                    let c = object.children()[i];
                    let cs = view.home(c);
                    let st = view.state_mut(cs);
                    st.parent_index.as_mut().unwrap().or_default(c).insert(slot);
                }
            }
            *view.state_mut(s).obj_mut(slot >> shift) = Some(object);
            Ok(AppliedUpdate::Create { oid })
        }
        Update::Remove { oid } => {
            let s = view.home(oid);
            let shift = view.shift();
            let (slot, obj) = {
                let st = view.state_mut(s);
                let slot = st.slot_of.remove(oid).ok_or(GsdbError::NoSuchObject(oid))?;
                let obj = st.obj_mut(slot >> shift).take().unwrap();
                st.free.push(slot);
                if let Some(idx) = st.label_index.as_mut() {
                    if let Some(set) = Arc::make_mut(idx).get_mut(&obj.label) {
                        set.remove(slot);
                    }
                }
                (slot, obj)
            };
            if view.state(s).parent_index.is_some() {
                for i in 0..obj.children().len() {
                    let c = obj.children()[i];
                    let cs = view.home(c);
                    let st = view.state_mut(cs);
                    if let Some(set) = st.parent_index.as_mut().unwrap().get_mut(c) {
                        set.remove(slot);
                    }
                }
                // The entry for `oid` *as a child* records edges
                // into it, and Remove leaves those dangling in the
                // parents' sets (replica semantics) — so the entry
                // must survive, or a later re-Create of the same
                // OID resurrects the edges with an empty index.
                // Drop it only when no parent references remain.
                let idx = view.state_mut(s).parent_index.as_mut().unwrap();
                if idx.get(oid).is_some_and(|ps| ps.is_empty()) {
                    idx.remove(oid);
                }
            }
            Ok(AppliedUpdate::Remove { oid })
        }
    }
}

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Maintain the inverse (child → parents) index (paper §4.4).
    pub parent_index: bool,
    /// Maintain the label → objects index.
    pub label_index: bool,
    /// Record applied updates in the update log.
    pub log_updates: bool,
    /// Count object reads (experiment instrumentation, paper §4.4).
    /// Off by default so production reads pay nothing.
    pub count_accesses: bool,
    /// Number of slab shards. Rounded up to a power of two and
    /// clamped to `[1, MAX_SHARDS]`. Shard count is observationally
    /// invisible to every read and mutation API — it only determines
    /// how much writer concurrency a
    /// [`ShardedStore`](crate::ShardedStore) built over this store can
    /// extract.
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            parent_index: true,
            label_index: true,
            log_updates: false,
            count_accesses: false,
            shards: 1,
        }
    }
}

impl StoreConfig {
    /// This configuration with access counting enabled.
    pub fn counting(mut self) -> Self {
        self.count_accesses = true;
        self
    }

    /// This configuration with the given shard count (rounded up to a
    /// power of two, clamped to `[1, MAX_SHARDS]`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The effective (normalized) shard count.
    fn effective_shards(&self) -> usize {
        self.shards.clamp(1, MAX_SHARDS).next_power_of_two().min(MAX_SHARDS)
    }
}

/// A borrowed set of objects from a store index (parent or label
/// index). Holds up to one sorted slice of global slot ids per shard;
/// iteration and membership work in terms of [`Oid`]s, like the
/// `OidSet` the seed layout returned.
#[derive(Clone, Copy, Debug)]
pub struct SlotSet<'a> {
    store: &'a Store,
    slices: [&'a [u32]; MAX_SHARDS],
    n: usize,
}

impl<'a> SlotSet<'a> {
    /// A set backed by a single sorted slice (parent-index entries
    /// live wholly in one shard).
    fn single(store: &'a Store, slice: &'a [u32]) -> Self {
        let mut slices = [&[][..]; MAX_SHARDS];
        slices[0] = slice;
        SlotSet { store, slices, n: 1 }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.slices[..self.n].iter().map(|s| s.len()).sum()
    }

    /// True iff no members.
    pub fn is_empty(&self) -> bool {
        self.slices[..self.n].iter().all(|s| s.is_empty())
    }

    /// Membership test (binary search over each shard's sorted slice).
    pub fn contains(&self, oid: Oid) -> bool {
        match self.store.slot_of(oid) {
            Some(slot) => self.slices[..self.n]
                .iter()
                .any(|s| s.binary_search(&slot).is_ok()),
            None => false,
        }
    }

    /// Iterate members as OIDs (ascending slot order within each
    /// shard's slice; slices concatenate in shard order).
    pub fn iter(&self) -> impl Iterator<Item = Oid> + 'a {
        let store = self.store;
        let slices = self.slices;
        let n = self.n;
        (0..n).flat_map(move |i| {
            slices[i].iter().map(move |&s| {
                store
                    .slot_obj(s)
                    .expect("index references live slot")
                    .oid
            })
        })
    }
}

/// A read-only image of one slab shard: its copy-on-write pages plus
/// the slot high-water mark — everything the durability layer needs to
/// serialize the shard and everything [`Store::from_images`] needs to
/// rebuild it (lookup maps, free lists, and indexes are derived from
/// the pages). Pages are shared with the exporting store, so taking an
/// image costs reference-count bumps, not object copies.
#[derive(Clone, Debug)]
pub struct ShardImage {
    /// Local slots handed out so far (free slots included). Slots at
    /// or past this mark are the unallocated tail of the last page.
    pub len_slots: usize,
    /// The shard's pages, each exactly [`Store::page_slots`] entries;
    /// `None` entries are free slots.
    pub pages: Vec<Arc<Vec<Option<Object>>>>,
}

/// An in-memory GSDB object store.
#[derive(Debug)]
pub struct Store {
    /// The sharded slab; always a power-of-two length.
    shards: Vec<ShardState>,
    /// `log2(shards.len())` — slot ids are `local << shift | shard`.
    shift: u32,
    log: Vec<AppliedUpdate>,
    log_enabled: bool,
    /// Bumped on every successful mutation; lets commit protocols skip
    /// republishing an untouched store.
    version: u64,
    count_accesses: AtomicBool,
    /// Sharded (per-thread-bucket) so parallel maintenance threads
    /// counting reads on a shared snapshot don't bounce a cache line.
    accesses: Counter,
    /// Cached result of `oids_sorted`, invalidated on create/remove.
    /// `Arc` inside so clones and forks share the cached vector.
    sorted_cache: RwLock<Option<Arc<Vec<Oid>>>>,
}

impl Default for Store {
    fn default() -> Self {
        Store {
            shards: vec![ShardState::default()],
            shift: 0,
            log: Vec::new(),
            log_enabled: false,
            version: 0,
            count_accesses: AtomicBool::new(false),
            accesses: Counter::new("store.accesses"),
            sorted_cache: RwLock::new(None),
        }
    }
}

impl Clone for Store {
    /// A logically independent copy. Cheap: pages and index tables
    /// are shared copy-on-write, so the cost is reference-count bumps
    /// plus the page-pointer vectors, free lists and update log; either
    /// side pays the copy lazily, a page or a table segment at a time,
    /// as it writes.
    ///
    /// The `sorted_cache` is carried over as-is: it depends only on
    /// the OID set, which is identical at clone time, and every
    /// OID-set mutation (`Create` / `Remove`) invalidates it — see
    /// `oids_sorted_survives_mutation_interleavings` in
    /// `tests/store_properties.rs` for the property pinning this.
    fn clone(&self) -> Self {
        Store {
            shards: self.shards.clone(),
            shift: self.shift,
            log: self.log.clone(),
            log_enabled: self.log_enabled,
            version: self.version,
            count_accesses: AtomicBool::new(self.count_accesses.load(Ordering::Relaxed)),
            accesses: {
                let c = Counter::new("store.accesses");
                c.add(self.accesses.get());
                c
            },
            sorted_cache: RwLock::new(self.sorted_cache.read().unwrap().clone()),
        }
    }
}

impl ShardAccess for Store {
    #[inline]
    fn shift(&self) -> u32 {
        self.shift
    }
    #[inline]
    fn state(&self, i: usize) -> &ShardState {
        &self.shards[i]
    }
    #[inline]
    fn state_mut(&mut self, i: usize) -> &mut ShardState {
        &mut self.shards[i]
    }
}

impl Store {
    /// A store with the default configuration (both indexes, no log,
    /// no access counting, one shard).
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// A store with the default configuration plus access counting —
    /// the experiment-harness constructor.
    pub fn counting() -> Self {
        Self::with_config(StoreConfig::default().counting())
    }

    /// A store with explicit configuration.
    pub fn with_config(cfg: StoreConfig) -> Self {
        let n = cfg.effective_shards();
        Store {
            shards: (0..n)
                .map(|_| ShardState::with_indexes(cfg.parent_index, cfg.label_index))
                .collect(),
            shift: n.trailing_zeros(),
            log_enabled: cfg.log_updates,
            count_accesses: AtomicBool::new(cfg.count_accesses),
            ..Store::default()
        }
    }

    // ------------------------------------------------------------------
    // Shard topology
    // ------------------------------------------------------------------

    /// Number of slab shards (a power of two in `[1, MAX_SHARDS]`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of an OID: where its record, `Oid → slot` entry,
    /// label-index entry, and parent-index entry (as a child) live. A
    /// pure function of the OID and the shard count.
    pub fn shard_of(&self, oid: Oid) -> usize {
        shard_for(oid, self.shift)
    }

    /// Live objects per shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.slot_of.len()).collect()
    }

    /// A copy of this store re-partitioned into `shards` shards
    /// (rounded up to a power of two, clamped to `[1, MAX_SHARDS]`).
    /// Object state, dangling-edge index entries, and configuration
    /// carry over; the update log does not (resharding is a topology
    /// change, not a base update). The version counter carries over so
    /// commit protocols never mistake the reshard for "no change".
    pub fn reshard(&self, shards: usize) -> Store {
        let cfg = StoreConfig {
            parent_index: self.has_parent_index(),
            label_index: self.has_label_index(),
            log_updates: self.log_enabled,
            count_accesses: self.counts_accesses(),
            shards,
        };
        let mut out = Store::with_config(cfg);
        out.log_enabled = false;
        // Deterministic order so equal stores reshard identically.
        for oid in self.oids_sorted() {
            let obj = self
                .slot_obj(self.slot_of(oid).unwrap())
                .expect("sorted oid resolves")
                .clone();
            // Create indexes the object's children (present or
            // dangling), reproducing the parent index exactly.
            apply_update(&mut out, Update::Create { object: obj })
                .expect("reshard re-create cannot fail");
        }
        out.log_enabled = self.log_enabled;
        out.version = self.version;
        out
    }

    /// Pre-size the slab and maps for `additional` more objects.
    pub fn reserve(&mut self, additional: usize) {
        let per_shard = additional / self.shards.len() + 1;
        for st in &mut self.shards {
            st.pages
                .reserve(per_shard.saturating_sub(st.free.len()) / PAGE_SIZE + 1);
            st.reserve_entries(per_shard);
        }
    }

    /// A read-only snapshot fork of this store: the same objects and
    /// indexes, shared copy-on-write, with an **empty update log** and
    /// logging disabled. This is the image a source publishes into an
    /// [`EpochHandle`](crate::EpochHandle) at commit time — readers
    /// traverse the fork while the live store keeps mutating (and
    /// keeps accumulating its own log for the monitor). Cost per
    /// shard: three reference-count bumps (the index tables) plus a
    /// copy of its page-pointer vector and free list — one pointer
    /// per 256 slots, no object and no index entry.
    pub fn fork(&self) -> Store {
        let mut fork = self.clone();
        fork.log = Vec::new();
        fork.log_enabled = false;
        fork
    }

    /// Monotonic mutation counter: bumped by every successful
    /// [`Store::apply`] and [`Store::insert_edge_unchecked`]. Equal
    /// versions ⇒ identical object state (within one store lineage),
    /// so commit protocols can skip republishing an untouched store.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.slot_of.len()).sum()
    }

    /// True iff no objects.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.slot_of.is_empty())
    }

    /// True iff an object with this OID exists.
    pub fn contains(&self, oid: Oid) -> bool {
        self.home_state(oid).slot_of.contains_key(oid)
    }

    /// True iff the update log records applied updates.
    pub fn logs_updates(&self) -> bool {
        self.log_enabled
    }

    #[inline]
    fn home_state(&self, oid: Oid) -> &ShardState {
        &self.shards[shard_for(oid, self.shift)]
    }

    #[inline]
    fn bump(&self) {
        if self.count_accesses.load(Ordering::Relaxed) {
            self.accesses.incr();
        }
    }

    // ------------------------------------------------------------------
    // Slot addressing
    // ------------------------------------------------------------------

    /// The object behind a global slot id, resolving through the
    /// shard interleave. `None` for free / out-of-range slots.
    #[inline]
    fn slot_obj(&self, slot: u32) -> Option<&Object> {
        let mask = (self.shards.len() - 1) as u32;
        self.shards[(slot & mask) as usize].obj(slot >> self.shift)
    }

    /// Slot id of an OID, if the object exists. Does not count an
    /// access — pair with [`Store::children_at`], which does.
    #[inline]
    pub fn slot_of(&self, oid: Oid) -> Option<u32> {
        self.home_state(oid).slot_of.get(oid).copied()
    }

    /// OID of the object in a slot. Does not count an access.
    #[inline]
    pub fn oid_at(&self, slot: u32) -> Option<Oid> {
        self.slot_obj(slot).map(|o| o.oid)
    }

    /// Children of the object in a slot (counts the access, like
    /// [`Store::children`]). Empty for atomic or free slots.
    #[inline]
    pub fn children_at(&self, slot: u32) -> &[Oid] {
        self.bump();
        self.slot_obj(slot).map(|o| o.children()).unwrap_or(&[])
    }

    /// Label of the object in a slot (counts the access, like
    /// [`Store::label`]).
    #[inline]
    pub fn label_at(&self, slot: u32) -> Option<Label> {
        self.bump();
        self.slot_obj(slot).map(|o| o.label)
    }

    /// Upper bound (exclusive) on slot ids currently in use; free slots
    /// below this bound exist. Sizes per-slot scratch tables. With
    /// multiple shards the bound covers the largest shard's local
    /// high-water mark across all interleaves.
    pub fn slot_bound(&self) -> usize {
        let max_local = self.shards.iter().map(|s| s.len_slots).max().unwrap_or(0);
        max_local << self.shift
    }

    // ------------------------------------------------------------------
    // OID-keyed reads
    // ------------------------------------------------------------------

    /// Look up an object, counting the access.
    pub fn get(&self, oid: Oid) -> Option<&Object> {
        self.bump();
        let st = self.home_state(oid);
        let slot = *st.slot_of.get(oid)?;
        st.obj(slot >> self.shift)
    }

    /// Look up an object or fail.
    pub fn require(&self, oid: Oid) -> Result<&Object> {
        self.get(oid).ok_or(GsdbError::NoSuchObject(oid))
    }

    /// Label of an object, if it exists.
    pub fn label(&self, oid: Oid) -> Option<Label> {
        self.get(oid).map(|o| o.label)
    }

    /// Children of a set object (empty slice for atomic or missing).
    pub fn children(&self, oid: Oid) -> &[Oid] {
        self.get(oid).map(|o| o.children()).unwrap_or(&[])
    }

    /// Atomic value of an object, if atomic.
    pub fn atom(&self, oid: Oid) -> Option<&Atom> {
        self.get(oid).and_then(|o| o.atom_value())
    }

    /// Iterate all objects (shard-major slot order). Does not count
    /// accesses.
    pub fn iter(&self) -> impl Iterator<Item = &Object> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// All OIDs, sorted by name (deterministic). Cached between calls;
    /// creates and removes invalidate the cache.
    pub fn oids_sorted(&self) -> Vec<Oid> {
        if let Some(v) = self.sorted_cache.read().unwrap().as_ref() {
            return v.as_ref().clone();
        }
        let mut v: Vec<Oid> = self
            .shards
            .iter()
            .flat_map(|s| s.slot_of.iter().map(|(oid, _)| oid))
            .collect();
        v.sort_by_key(|o| o.name());
        *self.sorted_cache.write().unwrap() = Some(Arc::new(v.clone()));
        v
    }

    fn invalidate_sorted(&mut self) {
        *self.sorted_cache.get_mut().unwrap() = None;
    }

    // ------------------------------------------------------------------
    // Access accounting
    // ------------------------------------------------------------------

    /// Number of object reads since construction / last reset. This is
    /// the "access to base data" cost the paper's §4.4 analysis uses.
    /// Always 0 unless [`StoreConfig::count_accesses`] was set.
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }

    /// Reset the access counter.
    pub fn reset_accesses(&self) {
        self.accesses.reset();
    }

    /// True iff reads are counted.
    pub fn counts_accesses(&self) -> bool {
        self.count_accesses.load(Ordering::Relaxed)
    }

    /// Turn access counting on or off after construction. Experiment
    /// harnesses use this to instrument stores they don't build
    /// themselves (e.g. a view's internal store).
    pub fn set_count_accesses(&self, on: bool) {
        self.count_accesses.store(on, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Indexes
    // ------------------------------------------------------------------

    /// True iff the inverse (parent) index is maintained.
    pub fn has_parent_index(&self) -> bool {
        self.shards[0].parent_index.is_some()
    }

    /// True iff the label index is maintained.
    pub fn has_label_index(&self) -> bool {
        self.shards[0].label_index.is_some()
    }

    /// Parents of an object, from the inverse index. `None` if the index
    /// is disabled (callers must then traverse — exactly the trade-off
    /// of paper §4.4). The entry lives wholly in the child's home
    /// shard, so this is a single-map lookup at any shard count.
    pub fn parents(&self, oid: Oid) -> Option<SlotSet<'_>> {
        self.bump();
        self.home_state(oid).parent_index.as_ref().map(|idx| {
            SlotSet::single(
                self,
                idx.get(oid).map(|s| s.as_slice()).unwrap_or(&[]),
            )
        })
    }

    /// Objects with a given label, from the label index. `None` if the
    /// index is disabled. Members are concatenated per shard (each
    /// shard's slice sorted by slot).
    pub fn with_label(&self, label: Label) -> Option<SlotSet<'_>> {
        self.shards[0].label_index.as_ref()?;
        let mut slices = [&[][..]; MAX_SHARDS];
        for (i, st) in self.shards.iter().enumerate() {
            slices[i] = st
                .label_index
                .as_ref()
                .and_then(|idx| idx.get(&label))
                .map(|s| s.as_slice())
                .unwrap_or(&[]);
        }
        Some(SlotSet {
            store: self,
            slices,
            n: self.shards.len(),
        })
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Insert a fresh object record. Fails on duplicate OID.
    pub fn create(&mut self, object: Object) -> Result<()> {
        self.apply(Update::Create { object }).map(|_| ())
    }

    /// Create many objects at once (setup convenience).
    pub fn create_all(&mut self, objects: impl IntoIterator<Item = Object>) -> Result<()> {
        for o in objects {
            self.create(o)?;
        }
        Ok(())
    }

    /// `insert(parent, child)` — paper §4.1 update 1.
    pub fn insert_edge(&mut self, parent: Oid, child: Oid) -> Result<AppliedUpdate> {
        self.apply(Update::Insert { parent, child })
    }

    /// `delete(parent, child)` — paper §4.1 update 2.
    pub fn delete_edge(&mut self, parent: Oid, child: Oid) -> Result<AppliedUpdate> {
        self.apply(Update::Delete { parent, child })
    }

    /// Insert `child` into `parent`'s set without requiring `child` to
    /// exist in this store. Replica stores (e.g. a warehouse-side
    /// cache) hold copies of objects whose sets may reference children
    /// outside the replicated region; those references stay dangling,
    /// exactly as [`Store::create`] leaves them when a copied object
    /// arrives with unknown children. Not logged — this is replica
    /// bookkeeping, not a base update.
    pub fn insert_edge_unchecked(&mut self, parent: Oid, child: Oid) -> Result<()> {
        let ps = self.home(parent);
        let pslot = *self.shards[ps]
            .slot_of
            .get(parent)
            .ok_or(GsdbError::NoSuchObject(parent))?;
        let shift = self.shift;
        {
            let st = &mut self.shards[ps];
            let pobj = st.obj_mut(pslot >> shift).as_mut().unwrap();
            let set = pobj.value.as_set_mut().ok_or(GsdbError::NotASet(parent))?;
            set.insert(child);
        }
        let cs = self.home(child);
        if let Some(idx) = self.shards[cs].parent_index.as_mut() {
            idx.or_default(child).insert(pslot);
        }
        self.version += 1;
        Ok(())
    }

    /// `modify(oid, oldv, newv)` — paper §4.1 update 3 (old value is
    /// captured from the store).
    pub fn modify_atom(&mut self, oid: Oid, new: impl Into<Atom>) -> Result<AppliedUpdate> {
        self.apply(Update::Modify {
            oid,
            new: new.into(),
        })
    }

    /// Apply a basic update, validating it and maintaining indexes and
    /// the update log. Returns the applied form (with old values).
    pub fn apply(&mut self, update: Update) -> Result<AppliedUpdate> {
        let applied = apply_update(self, update)?;
        if matches!(
            applied,
            AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. }
        ) {
            self.invalidate_sorted();
        }
        if self.log_enabled {
            self.log.push(applied.clone());
        }
        self.version += 1;
        gsview_obs::event!(
            "store.apply",
            "kind" = match &applied {
                AppliedUpdate::Insert { .. } => "insert",
                AppliedUpdate::Delete { .. } => "delete",
                AppliedUpdate::Modify { .. } => "modify",
                AppliedUpdate::Create { .. } => "create",
                AppliedUpdate::Remove { .. } => "remove",
            },
            "version" = self.version,
        );
        Ok(applied)
    }

    // ------------------------------------------------------------------
    // Update log
    // ------------------------------------------------------------------

    /// Drain the update log (the source monitor's feed, paper §5).
    pub fn drain_log(&mut self) -> Vec<AppliedUpdate> {
        std::mem::take(&mut self.log)
    }

    /// Peek the update log.
    pub fn log(&self) -> &[AppliedUpdate] {
        &self.log
    }

    // ------------------------------------------------------------------
    // Commit-pipeline plumbing (crate-internal)
    // ------------------------------------------------------------------

    /// Disassemble into per-shard states plus store-level metadata.
    /// Used by the commit pipeline's exclusive path; see
    /// [`ShardedStore`](crate::ShardedStore).
    pub(crate) fn into_parts(self) -> (Vec<ShardState>, u64, Vec<AppliedUpdate>) {
        let Store {
            shards,
            version,
            log,
            ..
        } = self;
        (shards, version, log)
    }

    /// Assemble a live store from per-shard states. The inverse of
    /// [`Store::into_parts`]; `shards.len()` must be a power of two.
    pub(crate) fn from_parts(
        shards: Vec<ShardState>,
        log_enabled: bool,
        version: u64,
        count_accesses: bool,
    ) -> Store {
        debug_assert!(shards.len().is_power_of_two());
        let shift = shards.len().trailing_zeros();
        Store {
            shards,
            shift,
            log_enabled,
            version,
            count_accesses: AtomicBool::new(count_accesses),
            ..Store::default()
        }
    }

    /// Seed the update log (exclusive-path check-out of pending
    /// entries so closures observe the same log a single-mutex store
    /// would have shown them).
    pub(crate) fn set_log(&mut self, entries: Vec<AppliedUpdate>) {
        self.log = entries;
    }

    /// Compose the next published snapshot: the previous snapshot's
    /// shard states with `replaced` swapped in (the shards a commit
    /// locked), at the commit's post-state version. Cost: one cheap
    /// clone of `prev` plus the swaps — untouched shards are shared
    /// copy-on-write with every earlier snapshot.
    pub(crate) fn compose_from(
        prev: &Store,
        replaced: impl IntoIterator<Item = (usize, ShardState)>,
        version: u64,
        oidset_changed: bool,
    ) -> Store {
        let mut s = prev.fork();
        for (i, st) in replaced {
            s.shards[i] = st;
        }
        s.version = version;
        if oidset_changed {
            s.invalidate_sorted();
        }
        s
    }

    // ------------------------------------------------------------------
    // Durable image export / import
    // ------------------------------------------------------------------

    /// Slots per copy-on-write page — the unit the durability layer
    /// serializes and content-addresses.
    pub fn page_slots() -> usize {
        PAGE_SIZE
    }

    /// Export the slab as per-shard page images, shared copy-on-write
    /// with this store (reference-count bumps, no object copies). The
    /// durability layer serializes each page independently; unchanged
    /// pages keep their `Arc` identity across epochs, which is what
    /// makes incremental persistence O(touched pages).
    pub fn export_images(&self) -> Vec<ShardImage> {
        self.shards
            .iter()
            .map(|s| ShardImage {
                len_slots: s.len_slots,
                pages: s.pages.clone(),
            })
            .collect()
    }

    /// Rebuild a store from exported (or decoded) page images,
    /// reconstructing the `Oid → slot` maps, free lists, and both
    /// indexes from the pages alone. The inverse of
    /// [`Store::export_images`]: slot layout is preserved exactly, so
    /// a recovered store re-exports to byte-identical pages —
    /// structural sharing with pre-crash chunks survives restart.
    ///
    /// Errors (as strings, for the recovery path to surface) on
    /// structural corruption: a shard count that is not a power of
    /// two, pages of the wrong size, an object homed in the wrong
    /// shard, a duplicate OID, or a live slot past the high-water
    /// mark.
    pub fn from_images(
        cfg: StoreConfig,
        images: Vec<ShardImage>,
        version: u64,
    ) -> std::result::Result<Store, String> {
        let n = images.len();
        if !n.is_power_of_two() || n > MAX_SHARDS {
            return Err(format!("invalid shard count {n}"));
        }
        if cfg.effective_shards() != n {
            return Err(format!(
                "config wants {} shards but {} images were supplied",
                cfg.effective_shards(),
                n
            ));
        }
        let shift = n.trailing_zeros();
        let mut shards = Vec::with_capacity(n);
        for (i, img) in images.into_iter().enumerate() {
            if img.len_slots > img.pages.len() * PAGE_SIZE {
                return Err(format!(
                    "shard {i}: high-water mark {} exceeds {} paged slots",
                    img.len_slots,
                    img.pages.len() * PAGE_SIZE
                ));
            }
            let mut st = ShardState::with_indexes(cfg.parent_index, cfg.label_index);
            st.reserve_entries(img.pages.iter().map(|p| p.iter().flatten().count()).sum());
            for (p, page) in img.pages.iter().enumerate() {
                if page.len() != PAGE_SIZE {
                    return Err(format!("shard {i} page {p}: {} slots", page.len()));
                }
                for (k, slot) in page.iter().enumerate() {
                    let local = (p * PAGE_SIZE + k) as u32;
                    match slot {
                        Some(obj) => {
                            if (local as usize) >= img.len_slots {
                                return Err(format!(
                                    "shard {i}: live slot {local} past high-water mark {}",
                                    img.len_slots
                                ));
                            }
                            if shard_for(obj.oid, shift) != i {
                                return Err(format!(
                                    "object {} homed in shard {} found in shard {i}",
                                    obj.oid,
                                    shard_for(obj.oid, shift)
                                ));
                            }
                            let global = (local << shift) | i as u32;
                            if !st.slot_of.try_insert(obj.oid, global) {
                                return Err(format!("duplicate OID {}", obj.oid));
                            }
                        }
                        None => {
                            if (local as usize) < img.len_slots {
                                st.free.push((local << shift) | i as u32);
                            }
                        }
                    }
                }
            }
            st.pages = img.pages;
            st.len_slots = img.len_slots;
            shards.push(st);
        }
        // Second pass: rebuild the indexes. Label entries home with
        // the object; parent entries home with the *child* (including
        // dangling children, matching `Create`'s indexing).
        if cfg.parent_index || cfg.label_index {
            for i in 0..n {
                for p in 0..shards[i].pages.len() {
                    for k in 0..PAGE_SIZE {
                        let (slot, children) = match &shards[i].pages[p][k] {
                            Some(obj) => (
                                (((p * PAGE_SIZE + k) as u32) << shift) | i as u32,
                                obj.children().to_vec(),
                            ),
                            None => continue,
                        };
                        if cfg.label_index {
                            let label = shards[i].pages[p][k].as_ref().unwrap().label;
                            let idx = shards[i].label_index.as_mut().unwrap();
                            Arc::make_mut(idx).entry(label).or_default().insert(slot);
                        }
                        if cfg.parent_index {
                            for c in children {
                                let home = shard_for(c, shift);
                                let idx = shards[home].parent_index.as_mut().unwrap();
                                idx.or_default(c).insert(slot);
                            }
                        }
                    }
                }
            }
        }
        Ok(Store {
            shards,
            shift,
            log_enabled: cfg.log_updates,
            version,
            count_accesses: AtomicBool::new(cfg.count_accesses),
            ..Store::default()
        })
    }

    // ------------------------------------------------------------------
    // Set operations on set objects (paper §2)
    // ------------------------------------------------------------------

    /// `union(S1, S2)`: a new object whose value is
    /// `value(S1) ∪ value(S2)`, with a fresh OID and S1's label.
    pub fn union_objects(&mut self, fresh_oid: Oid, s1: Oid, s2: Oid) -> Result<Oid> {
        let (label, v1) = {
            let o1 = self.require(s1)?;
            (o1.label, o1.value.as_set().ok_or(GsdbError::NotASet(s1))?.clone())
        };
        let v2 = {
            let o2 = self.require(s2)?;
            o2.value.as_set().ok_or(GsdbError::NotASet(s2))?.clone()
        };
        self.create(Object {
            oid: fresh_oid,
            label,
            value: Value::Set(v1.union(&v2)),
        })?;
        Ok(fresh_oid)
    }

    /// `int(S1, S2)`: a new object whose value is
    /// `value(S1) ∩ value(S2)`, with a fresh OID and S1's label.
    pub fn intersect_objects(&mut self, fresh_oid: Oid, s1: Oid, s2: Oid) -> Result<Oid> {
        let (label, v1) = {
            let o1 = self.require(s1)?;
            (o1.label, o1.value.as_set().ok_or(GsdbError::NotASet(s1))?.clone())
        };
        let v2 = {
            let o2 = self.require(s2)?;
            o2.value.as_set().ok_or(GsdbError::NotASet(s2))?.clone()
        };
        self.create(Object {
            oid: fresh_oid,
            label,
            value: Value::Set(v1.intersection(&v2)),
        })?;
        Ok(fresh_oid)
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests / proptests)
    // ------------------------------------------------------------------

    /// Check one shard's arena + placement invariants: slot accounting,
    /// OID homing (every entry hashes to this shard), free-list
    /// disjointness (free slots carry this shard's interleave bits and
    /// are dead), and label-index forward agreement.
    #[doc(hidden)]
    pub fn check_shard_invariants(&self, i: usize) -> std::result::Result<(), String> {
        let st = &self.shards[i];
        let mask = (self.shards.len() - 1) as u32;
        let live = st.iter().count();
        if live != st.slot_of.len() {
            return Err(format!(
                "shard {i}: live slots {} != slot_of entries {}",
                live,
                st.slot_of.len()
            ));
        }
        if live + st.free.len() != st.len_slots {
            return Err(format!(
                "shard {i}: live {} + free {} != allocated slots {}",
                live,
                st.free.len(),
                st.len_slots
            ));
        }
        if st.len_slots > st.pages.len() * PAGE_SIZE {
            return Err(format!(
                "shard {i}: slot high-water mark {} exceeds page capacity {}",
                st.len_slots,
                st.pages.len() * PAGE_SIZE
            ));
        }
        for (oid, &slot) in st.slot_of.iter() {
            if shard_for(oid, self.shift) != i {
                return Err(format!(
                    "shard {i}: OID {} is homed in shard {} but mapped here",
                    oid.name(),
                    shard_for(oid, self.shift)
                ));
            }
            if (slot & mask) as usize != i {
                return Err(format!(
                    "shard {i}: slot_of[{}] = {slot} carries foreign shard bits",
                    oid.name()
                ));
            }
            match st.obj(slot >> self.shift) {
                Some(o) if o.oid == oid => {}
                _ => return Err(format!("shard {i}: slot_of[{}] -> dead or mismatched slot", oid.name())),
            }
        }
        for &f in &st.free {
            if (f & mask) as usize != i {
                return Err(format!("shard {i}: free slot {f} carries foreign shard bits"));
            }
            let local = f >> self.shift;
            if (local as usize) >= st.len_slots || st.obj(local).is_some() {
                return Err(format!("shard {i}: free slot {f} is live or out of bounds"));
            }
        }
        if let Some(idx) = st.label_index.as_deref() {
            for (label, set) in idx {
                for slot in set.iter() {
                    if (slot & mask) as usize != i {
                        return Err(format!(
                            "shard {i}: label index [{}] holds foreign slot {slot}",
                            label.as_str()
                        ));
                    }
                    match st.obj(slot >> self.shift) {
                        Some(o) if o.label == *label => {}
                        _ => {
                            return Err(format!(
                                "shard {i}: label index [{}] references slot {slot} without that label",
                                label.as_str()
                            ))
                        }
                    }
                }
            }
            for obj in st.iter() {
                let slot = st.slot_of.get(obj.oid).copied();
                if !slot.is_some_and(|slot| idx.get(&obj.label).is_some_and(|s| s.contains(slot))) {
                    return Err(format!("shard {i}: label index missing {}", obj.oid.name()));
                }
            }
        }
        if let Some(idx) = st.parent_index.as_ref() {
            for (child, set) in idx.iter() {
                if shard_for(child, self.shift) != i {
                    return Err(format!(
                        "shard {i}: parent index entry for {} belongs to shard {}",
                        child.name(),
                        shard_for(child, self.shift)
                    ));
                }
                for pslot in set.iter() {
                    match self.slot_obj(pslot) {
                        Some(p) if p.children().contains(&child) => {}
                        _ => {
                            return Err(format!(
                                "shard {i}: parent index [{}] references slot {pslot} lacking that edge",
                                child.name()
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Check the arena + index invariants across all shards: every
    /// per-shard check plus the global ones — no OID mapped in two
    /// shards, free lists pairwise disjoint (both implied by the
    /// per-shard placement checks, which pin each entry to exactly the
    /// shard the OID/slot hashes to), and parent-index reverse
    /// agreement across shard boundaries. Used by property tests to
    /// verify free-list reuse and sharding never corrupt the store.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for i in 0..self.shards.len() {
            self.check_shard_invariants(i)?;
        }
        // Cross-shard reverse direction: every live edge is indexed in
        // the child's home shard.
        if self.has_parent_index() {
            for obj in self.iter() {
                let slot = self.slot_of(obj.oid).unwrap();
                for c in obj.children() {
                    let idx = self.home_state(*c).parent_index.as_ref().unwrap();
                    if !idx.get(*c).map(|s| s.contains(slot)).unwrap_or(false) {
                        return Err(format!(
                            "parent index missing edge {} -> {}",
                            obj.oid.name(),
                            c.name()
                        ));
                    }
                }
            }
        }
        // Global accounting: shard-placement checks above already
        // guarantee the slot_of key sets are pairwise disjoint, so the
        // sum equals the distinct-object count.
        let total: usize = self.shards.iter().map(|s| s.slot_of.len()).sum();
        if total != self.len() {
            return Err(format!("shard sizes sum {} != len {}", total, self.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn tiny_store() -> Store {
        let mut s = Store::counting();
        s.create_all([
            Object::set("ROOT", "person", &[oid("P1")]),
            Object::set("P1", "professor", &[oid("A1")]),
            Object::atom("A1", "age", 45i64),
        ])
        .unwrap();
        s
    }

    #[test]
    fn create_and_get() {
        let s = tiny_store();
        assert_eq!(s.len(), 3);
        assert_eq!(s.label(oid("P1")).unwrap().as_str(), "professor");
        assert_eq!(s.atom(oid("A1")), Some(&Atom::Int(45)));
        assert!(s.get(oid("NOPE")).is_none());
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut s = tiny_store();
        let err = s.create(Object::atom("A1", "age", 1i64)).unwrap_err();
        assert_eq!(err, GsdbError::DuplicateOid(oid("A1")));
    }

    #[test]
    fn duplicate_edge_insert_rejected() {
        let mut s = tiny_store();
        s.create(Object::atom("N1", "name", "John")).unwrap();
        s.insert_edge(oid("P1"), oid("N1")).unwrap();
        let err = s.insert_edge(oid("P1"), oid("N1")).unwrap_err();
        assert_eq!(
            err,
            GsdbError::AlreadyAChild {
                parent: oid("P1"),
                child: oid("N1"),
            }
        );
        // The rejected insert is not logged and does not bump the
        // version — consolidation never sees a phantom +1.
        let v = s.version();
        assert!(s.insert_edge(oid("P1"), oid("N1")).is_err());
        assert_eq!(s.version(), v);
    }

    #[test]
    fn insert_edge_updates_value_and_parent_index() {
        let mut s = tiny_store();
        s.create(Object::atom("N1", "name", "John")).unwrap();
        s.insert_edge(oid("P1"), oid("N1")).unwrap();
        assert!(s.get(oid("P1")).unwrap().children().contains(&oid("N1")));
        assert!(s.parents(oid("N1")).unwrap().contains(oid("P1")));
    }

    #[test]
    fn insert_into_atomic_rejected() {
        let mut s = tiny_store();
        let err = s.insert_edge(oid("A1"), oid("P1")).unwrap_err();
        assert_eq!(err, GsdbError::NotASet(oid("A1")));
    }

    #[test]
    fn insert_unknown_child_rejected() {
        let mut s = tiny_store();
        let err = s.insert_edge(oid("P1"), oid("GHOST")).unwrap_err();
        assert_eq!(err, GsdbError::NoSuchObject(oid("GHOST")));
    }

    #[test]
    fn delete_edge_and_not_a_child() {
        let mut s = tiny_store();
        s.delete_edge(oid("ROOT"), oid("P1")).unwrap();
        assert!(s.get(oid("ROOT")).unwrap().children().is_empty());
        assert!(!s.parents(oid("P1")).unwrap().contains(oid("ROOT")));
        let err = s.delete_edge(oid("ROOT"), oid("P1")).unwrap_err();
        assert_eq!(
            err,
            GsdbError::NotAChild {
                parent: oid("ROOT"),
                child: oid("P1")
            }
        );
    }

    #[test]
    fn modify_captures_old_value() {
        let mut s = tiny_store();
        let applied = s.modify_atom(oid("A1"), 46i64).unwrap();
        assert_eq!(
            applied,
            AppliedUpdate::Modify {
                oid: oid("A1"),
                old: Atom::Int(45),
                new: Atom::Int(46),
            }
        );
        assert_eq!(s.atom(oid("A1")), Some(&Atom::Int(46)));
    }

    #[test]
    fn modify_set_object_rejected() {
        let mut s = tiny_store();
        let err = s.modify_atom(oid("P1"), 1i64).unwrap_err();
        assert_eq!(err, GsdbError::NotAtomic(oid("P1")));
    }

    #[test]
    fn update_log_records_applied_updates() {
        let mut s = Store::with_config(StoreConfig {
            log_updates: true,
            ..StoreConfig::default()
        });
        s.create(Object::empty_set("R", "root")).unwrap();
        s.create(Object::atom("X", "x", 1i64)).unwrap();
        s.insert_edge(oid("R"), oid("X")).unwrap();
        s.modify_atom(oid("X"), 2i64).unwrap();
        let log = s.drain_log();
        assert_eq!(log.len(), 4);
        assert!(matches!(log[2], AppliedUpdate::Insert { .. }));
        assert!(matches!(log[3], AppliedUpdate::Modify { .. }));
        assert!(s.log().is_empty());
    }

    #[test]
    fn label_index_tracks_create_remove() {
        let mut s = tiny_store();
        let prof = Label::new("professor");
        assert!(s.with_label(prof).unwrap().contains(oid("P1")));
        s.delete_edge(oid("ROOT"), oid("P1")).unwrap();
        s.apply(Update::Remove { oid: oid("P1") }).unwrap();
        assert!(!s.with_label(prof).unwrap().contains(oid("P1")));
    }

    #[test]
    fn disabled_indexes_return_none() {
        let s = Store::with_config(StoreConfig {
            parent_index: false,
            label_index: false,
            ..StoreConfig::default()
        });
        assert!(s.parents(oid("X")).is_none());
        assert!(s.with_label(Label::new("y")).is_none());
        assert!(!s.has_parent_index());
    }

    #[test]
    fn access_counter_counts_reads() {
        let s = tiny_store();
        s.reset_accesses();
        let _ = s.get(oid("P1"));
        let _ = s.children(oid("ROOT"));
        assert_eq!(s.accesses(), 2);
        s.reset_accesses();
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn counting_disabled_by_default() {
        let s = Store::new();
        let _ = s.get(oid("anything"));
        assert_eq!(s.accesses(), 0);
        assert!(!s.counts_accesses());
    }

    #[test]
    fn union_and_intersect_objects() {
        let mut s = Store::new();
        s.create_all([
            Object::atom("a", "x", 1i64),
            Object::atom("b", "x", 2i64),
            Object::atom("c", "x", 3i64),
            Object::set("S1", "things", &[oid("a"), oid("b")]),
            Object::set("S2", "things", &[oid("b"), oid("c")]),
        ])
        .unwrap();
        let u = s.union_objects(oid("U"), oid("S1"), oid("S2")).unwrap();
        let i = s.intersect_objects(oid("I"), oid("S1"), oid("S2")).unwrap();
        assert_eq!(s.get(u).unwrap().children().len(), 3);
        let io = s.get(i).unwrap();
        assert_eq!(io.children(), &[oid("b")]);
        // Result objects take S1's label (paper §2).
        assert_eq!(io.label.as_str(), "things");
    }

    #[test]
    fn create_with_children_populates_parent_index() {
        let mut s = Store::new();
        s.create(Object::atom("c1", "x", 1i64)).unwrap();
        s.create(Object::set("p", "parent", &[oid("c1")])).unwrap();
        assert!(s.parents(oid("c1")).unwrap().contains(oid("p")));
    }

    #[test]
    fn freed_slots_are_reused_and_oids_stay_stable() {
        let mut s = Store::new();
        s.create(Object::atom("A", "x", 1i64)).unwrap();
        s.create(Object::atom("B", "x", 2i64)).unwrap();
        let b_slot = s.slot_of(oid("B")).unwrap();
        s.apply(Update::Remove { oid: oid("B") }).unwrap();
        s.create(Object::atom("C", "y", 3i64)).unwrap();
        // C takes B's slot, but lookups by OID are unaffected.
        assert_eq!(s.slot_of(oid("C")), Some(b_slot));
        assert!(s.slot_of(oid("B")).is_none());
        assert_eq!(s.atom(oid("A")), Some(&Atom::Int(1)));
        assert_eq!(s.atom(oid("C")), Some(&Atom::Int(3)));
        assert_eq!(s.slot_bound(), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn slot_reuse_does_not_alias_label_index() {
        let mut s = Store::new();
        s.create(Object::atom("A", "old", 1i64)).unwrap();
        s.apply(Update::Remove { oid: oid("A") }).unwrap();
        s.create(Object::atom("B", "new", 2i64)).unwrap();
        // B reused A's slot; the "old" label set must not claim it.
        assert!(s.with_label(Label::new("old")).unwrap().is_empty());
        assert!(s.with_label(Label::new("new")).unwrap().contains(oid("B")));
        s.check_invariants().unwrap();
    }

    #[test]
    fn recreated_oid_keeps_its_dangling_edges_indexed() {
        // Found by `oids_sorted_survives_mutation_interleavings`:
        // Remove leaves edges into the removed object dangling in the
        // parents' sets, so the parent-index entry for the removed OID
        // must survive — a later Create of the same OID makes those
        // edges live again, and the index has to agree.
        let mut s = Store::new();
        s.create(Object::empty_set("R", "root")).unwrap();
        s.create(Object::atom("A", "age", 1i64)).unwrap();
        s.insert_edge(oid("R"), oid("A")).unwrap();
        s.apply(Update::Remove { oid: oid("A") }).unwrap();
        // R still lists A (dangling). Re-create A: the edge is live.
        s.create(Object::atom("A", "age", 2i64)).unwrap();
        assert!(s.parents(oid("A")).unwrap().contains(oid("R")));
        s.check_invariants().unwrap();
        // Once the last referencing parent drops the edge, the entry
        // is gone for good.
        s.delete_edge(oid("R"), oid("A")).unwrap();
        s.apply(Update::Remove { oid: oid("A") }).unwrap();
        assert!(s.parents(oid("A")).unwrap().is_empty());
        s.check_invariants().unwrap();
    }

    #[test]
    fn oids_sorted_cache_invalidation() {
        let mut s = tiny_store();
        let before = s.oids_sorted();
        assert_eq!(before, s.oids_sorted()); // cached path
        s.create(Object::atom("A0", "age", 1i64)).unwrap();
        let after = s.oids_sorted();
        assert_eq!(after.len(), before.len() + 1);
        assert!(after.contains(&oid("A0")));
        s.apply(Update::Remove { oid: oid("A0") }).unwrap();
        assert_eq!(s.oids_sorted(), before);
    }

    #[test]
    fn fork_is_isolated_from_later_writes() {
        let mut s = Store::with_config(StoreConfig {
            log_updates: true,
            ..StoreConfig::default()
        });
        s.create(Object::atom("A", "age", 45i64)).unwrap();
        let fork = s.fork();
        assert!(fork.log().is_empty(), "forks never carry the live log");

        // Mutate every structure the fork shares: page (modify),
        // slot_of + indexes (create/remove), edges (insert/delete).
        s.modify_atom(oid("A"), 46i64).unwrap();
        s.create(Object::set("S", "set", &[oid("A")])).unwrap();
        s.delete_edge(oid("S"), oid("A")).unwrap();
        s.apply(Update::Remove { oid: oid("A") }).unwrap();

        // The fork still observes the capture-time state.
        assert_eq!(fork.atom(oid("A")), Some(&Atom::Int(45)));
        assert_eq!(fork.len(), 1);
        assert!(!fork.contains(oid("S")));
        assert!(fork.with_label(Label::new("age")).unwrap().contains(oid("A")));
        fork.check_invariants().unwrap();
        s.check_invariants().unwrap();

        // And the live store moved on.
        assert!(!s.contains(oid("A")));
        assert!(s.contains(oid("S")));
    }

    #[test]
    fn a_structural_update_after_a_fork_copies_one_segment_per_index_entry() {
        // One 20k-object shard: 4 000 sets of four atoms.
        let mut s = Store::new();
        s.reserve(20_100);
        for k in 0..4_000 {
            let atoms: Vec<Oid> = (0..4).map(|j| Oid::new(&format!("cow{k}_{j}"))).collect();
            for (j, a) in atoms.iter().enumerate() {
                s.create(Object::atom(a.name(), "v", j as i64)).unwrap();
            }
            s.create(Object::set(format!("cow{k}"), "t", &atoms))
                .unwrap();
        }
        let segments = 20_000 / 128;
        // (slot_of, parent_index) segments `s` no longer shares with `f`.
        let apart = |s: &Store, f: &Store| {
            let (s, f) = (&s.shards[0], &f.shards[0]);
            (
                s.slot_of.segments_apart_from(&f.slot_of),
                (s.parent_index.as_ref().unwrap())
                    .segments_apart_from(f.parent_index.as_ref().unwrap()),
            )
        };
        let kids = [oid("cow7_0"), oid("cow1900_1"), oid("cow3999_2")];
        let extra = oid("cow2500_3");
        let new = oid("cow_new");

        // Create: one `slot_of` entry, one parent entry per child.
        let fork = s.fork();
        assert_eq!(
            apart(&s, &fork),
            (0, 0),
            "more than {segments} segments, all shared"
        );
        s.create(Object::set("cow_new", "t", &kids)).unwrap();
        let (slots, parents) = apart(&s, &fork);
        assert_eq!(slots, 1);
        assert!((1..=kids.len()).contains(&parents), "{parents}");
        assert!(!fork.contains(new));
        assert_eq!(fork.parents(kids[0]).unwrap().len(), 1);
        fork.check_invariants().unwrap();

        // Insert and Delete: the child's parent entry, nothing else.
        let fork = s.fork();
        s.insert_edge(new, extra).unwrap();
        assert_eq!(apart(&s, &fork), (0, 1));
        assert_eq!(fork.children(new), &kids);
        fork.check_invariants().unwrap();

        let fork = s.fork();
        s.delete_edge(new, extra).unwrap();
        assert_eq!(apart(&s, &fork), (0, 1));
        assert_eq!(fork.children(new).len(), kids.len() + 1);
        assert_eq!(fork.parents(extra).unwrap().len(), 2);
        fork.check_invariants().unwrap();

        // Remove: its `slot_of` entry and its k children's entries.
        let fork = s.fork();
        s.apply(Update::Remove { oid: new }).unwrap();
        let (slots, parents) = apart(&s, &fork);
        assert_eq!(slots, 1);
        assert!((1..=kids.len()).contains(&parents), "{parents}");
        assert_eq!(fork.children(new), &kids);
        assert!(fork.parents(kids[2]).unwrap().contains(new));
        fork.check_invariants().unwrap();
        s.check_invariants().unwrap();
        assert_eq!(s.len(), 20_000);
    }

    #[test]
    fn cloned_store_mutates_independently_both_ways() {
        let mut a = tiny_store();
        let mut b = a.clone();
        a.modify_atom(oid("A1"), 1i64).unwrap();
        b.modify_atom(oid("A1"), 2i64).unwrap();
        b.create(Object::atom("B1", "age", 3i64)).unwrap();
        assert_eq!(a.atom(oid("A1")), Some(&Atom::Int(1)));
        assert_eq!(b.atom(oid("A1")), Some(&Atom::Int(2)));
        assert!(!a.contains(oid("B1")));
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn version_counts_successful_mutations_only() {
        let mut s = tiny_store();
        let v0 = s.version();
        s.modify_atom(oid("A1"), 46i64).unwrap();
        assert_eq!(s.version(), v0 + 1);
        s.modify_atom(oid("NOPE"), 1i64).unwrap_err();
        assert_eq!(s.version(), v0 + 1, "failed updates do not bump");
        s.insert_edge_unchecked(oid("P1"), oid("GHOST")).unwrap();
        assert_eq!(s.version(), v0 + 2);
        let _ = s.oids_sorted();
        assert_eq!(s.version(), v0 + 2, "reads do not bump");
    }

    #[test]
    fn slabs_span_multiple_pages() {
        let mut s = Store::new();
        let n = PAGE_SIZE * 2 + 17;
        for i in 0..n {
            s.create(Object::atom(format!("o{i}").as_str(), "x", i as i64))
                .unwrap();
        }
        assert_eq!(s.len(), n);
        assert_eq!(s.slot_bound(), n);
        assert_eq!(s.iter().count(), n);
        // Spot-check an object on each page.
        for i in [0, PAGE_SIZE, 2 * PAGE_SIZE + 16] {
            assert_eq!(
                s.atom(Oid::new(&format!("o{i}"))),
                Some(&Atom::Int(i as i64))
            );
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn reserve_is_usable_and_harmless() {
        let mut s = Store::new();
        s.reserve(1000);
        for i in 0..100 {
            s.create(Object::atom(format!("o{i}").as_str(), "x", i as i64))
                .unwrap();
        }
        assert_eq!(s.len(), 100);
        s.check_invariants().unwrap();
    }

    // ------------------------------------------------------------------
    // Sharded-layout tests
    // ------------------------------------------------------------------

    /// The same mutation run at every shard count; used to pin
    /// observational invisibility of the shard count.
    fn churn(s: &mut Store) {
        s.create(Object::empty_set("R", "root")).unwrap();
        for i in 0..40 {
            s.create(Object::atom(format!("a{i}").as_str(), "age", i as i64))
                .unwrap();
            s.insert_edge(oid("R"), Oid::new(&format!("a{i}"))).unwrap();
        }
        for i in (0..40).step_by(3) {
            s.delete_edge(oid("R"), Oid::new(&format!("a{i}"))).unwrap();
            s.apply(Update::Remove {
                oid: Oid::new(&format!("a{i}")),
            })
            .unwrap();
        }
        for i in (1..40).step_by(3) {
            s.modify_atom(Oid::new(&format!("a{i}")), 100 + i as i64)
                .unwrap();
        }
    }

    #[test]
    fn shard_count_is_observationally_invisible() {
        let mut base = Store::new();
        churn(&mut base);
        for n in [2, 4, 8, 16] {
            let mut s = Store::with_config(StoreConfig::default().with_shards(n));
            assert_eq!(s.shard_count(), n);
            churn(&mut s);
            s.check_invariants().unwrap();
            assert_eq!(s.oids_sorted(), base.oids_sorted(), "{n} shards");
            for o in base.oids_sorted() {
                assert_eq!(s.get(o).map(|x| &x.value), base.get(o).map(|x| &x.value));
                let bp: Vec<_> = {
                    let mut v: Vec<_> = base.parents(o).unwrap().iter().collect();
                    v.sort();
                    v
                };
                let sp: Vec<_> = {
                    let mut v: Vec<_> = s.parents(o).unwrap().iter().collect();
                    v.sort();
                    v
                };
                assert_eq!(sp, bp, "parents of {o} at {n} shards");
            }
            let mut bl: Vec<_> = base.with_label(Label::new("age")).unwrap().iter().collect();
            let mut sl: Vec<_> = s.with_label(Label::new("age")).unwrap().iter().collect();
            bl.sort();
            sl.sort();
            assert_eq!(sl, bl, "label index at {n} shards");
        }
    }

    #[test]
    fn shard_counts_normalize_to_powers_of_two() {
        for (asked, got) in [(0, 1), (1, 1), (3, 4), (5, 8), (9, 16), (64, 16)] {
            let s = Store::with_config(StoreConfig::default().with_shards(asked));
            assert_eq!(s.shard_count(), got, "asked {asked}");
        }
    }

    #[test]
    fn slot_ids_carry_their_home_shard() {
        let mut s = Store::with_config(StoreConfig::default().with_shards(8));
        for i in 0..64 {
            s.create(Object::atom(format!("x{i}").as_str(), "x", i as i64))
                .unwrap();
        }
        for i in 0..64 {
            let o = Oid::new(&format!("x{i}"));
            let slot = s.slot_of(o).unwrap();
            assert_eq!((slot & 7) as usize, s.shard_of(o));
            assert_eq!(s.oid_at(slot), Some(o));
        }
        assert_eq!(s.shard_sizes().iter().sum::<usize>(), 64);
        s.check_invariants().unwrap();
    }

    #[test]
    fn reshard_preserves_state_and_dangling_entries() {
        let mut s = Store::with_config(StoreConfig {
            log_updates: true,
            ..StoreConfig::default()
        });
        churn(&mut s);
        // Add a dangling edge (removed child still referenced).
        s.create(Object::atom("gone", "age", 7i64)).unwrap();
        s.insert_edge(oid("R"), oid("gone")).unwrap();
        s.apply(Update::Remove { oid: oid("gone") }).unwrap();
        s.drain_log();

        for n in [1, 2, 8] {
            let r = s.reshard(n);
            assert_eq!(r.shard_count(), n.next_power_of_two());
            r.check_invariants().unwrap();
            assert_eq!(r.oids_sorted(), s.oids_sorted());
            assert_eq!(r.version(), s.version());
            assert!(r.logs_updates());
            assert!(r.log().is_empty());
            // The dangling entry survives: re-creating `gone` makes
            // the edge live again, exactly like in the original.
            let mut r2 = r.clone();
            r2.create(Object::atom("gone", "age", 8i64)).unwrap();
            assert!(r2.parents(oid("gone")).unwrap().contains(oid("R")));
            r2.check_invariants().unwrap();
        }
    }

    #[test]
    fn sharded_fork_is_isolated_and_cheap() {
        let mut s = Store::with_config(StoreConfig::default().with_shards(4));
        churn(&mut s);
        let fork = s.fork();
        let before = fork.oids_sorted();
        s.create(Object::atom("extra", "age", 1i64)).unwrap();
        s.modify_atom(oid("a1"), -1i64).unwrap();
        assert_eq!(fork.oids_sorted(), before);
        assert_eq!(fork.atom(oid("a1")), Some(&Atom::Int(101)));
        fork.check_invariants().unwrap();
        s.check_invariants().unwrap();
    }

    #[test]
    fn image_export_import_roundtrips_exactly() {
        for shards in [1usize, 2, 4, 8] {
            let cfg = StoreConfig {
                log_updates: true,
                ..StoreConfig::default().with_shards(shards)
            };
            let mut s = Store::with_config(cfg);
            churn(&mut s);
            s.drain_log();
            let back = Store::from_images(cfg, s.export_images(), s.version()).unwrap();
            back.check_invariants().unwrap();
            assert_eq!(back.version(), s.version());
            assert_eq!(back.oids_sorted(), s.oids_sorted());
            for o in s.oids_sorted() {
                // Slot layout must survive the round trip — recovery
                // may not compact or reassign slots.
                assert_eq!(back.slot_of(o), s.slot_of(o), "slot moved for {o}");
                assert_eq!(back.get(o), s.get(o));
                assert_eq!(
                    back.parents(o).unwrap().iter().collect::<Vec<_>>(),
                    s.parents(o).unwrap().iter().collect::<Vec<_>>()
                );
            }
            // Re-exported pages are identical Arcs' worth of content:
            // persisting a recovered store re-produces the same bytes.
            let a = s.export_images();
            let b = back.export_images();
            assert_eq!(a.len(), b.len());
            for (ia, ib) in a.iter().zip(&b) {
                assert_eq!(ia.len_slots, ib.len_slots);
                assert_eq!(ia.pages.len(), ib.pages.len());
                for (pa, pb) in ia.pages.iter().zip(&ib.pages) {
                    assert_eq!(
                        crate::codec::encode_page(pa),
                        crate::codec::encode_page(pb)
                    );
                }
            }
        }
    }

    #[test]
    fn from_images_rejects_misplaced_and_duplicate_objects() {
        let cfg = StoreConfig::default().with_shards(4);
        let mut s = Store::with_config(cfg);
        churn(&mut s);
        let mut images = s.export_images();
        // Move one object's page into a different shard: every object
        // in it becomes misplaced (or duplicated) — recovery must
        // refuse rather than resurrect objects under the wrong home.
        let donor = images
            .iter()
            .position(|img| img.pages.iter().any(|p| p.iter().any(|s| s.is_some())))
            .unwrap();
        let page = images[donor].pages[0].clone();
        let target = (donor + 1) % 4;
        images[target].pages.insert(0, page);
        images[target].len_slots += Store::page_slots();
        assert!(Store::from_images(cfg, images, 0).is_err());
    }
}
