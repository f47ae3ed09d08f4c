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
//! list, `Oid → slot` map, and parent-index map. Slot ids
//! interleave the shard in the low bits — `shard = slot & (N-1)`,
//! `local = slot >> log2(N)` — so [`Store::slot_bound`] stays
//! proportional to the largest shard rather than exploding per shard,
//! and `N = 1` degenerates to exactly the un-sharded layout.
//!
//! An OID's home shard is a pure function of the OID
//! ([`Store::shard_of`]); the `Oid → slot` map and the object record
//! live in that shard. A **parent-index entry for child `c` lives in
//! `shard_of(c)`** (its values — parent slots — may point into any
//! shard), so [`Store::parents`] stays a single-map lookup at any shard
//! count. The payoff of this ownership discipline is
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
//! * a **page** (64 slots) for each object record written, record by
//!   record. A set object of up to 16 members shares its member list
//!   with the copy, so copying it is a reference-count bump
//!   ([`OidSet`](crate::OidSet) owns a vector and a member index only
//!   above that);
//! * the shard's **page directory** — its page pointers and free list,
//!   behind one `Arc` — once per shard a commit writes a record in.
//!   Cloning a shard (a fork, a commit's working copy, its write-back,
//!   the composed snapshot) bumps that one count; only the first
//!   record write after a clone copies the directory, one pointer per
//!   64 slots;
//! * for `slot_of` and `parent_index`, a [`CowMap`]: the table's
//!   directory (a vector of segment pointers) and the **one segment**
//!   — about a hundred entries — holding the entry written. A create
//!   or remove writes one `slot_of` entry, an edge update one
//!   `parent_index` entry, a remove of an object with *k* children
//!   *k* more (and a spilled entry's list, below).
//!
//! `store.cow.pages_copied`, `store.cow.directories_copied` and
//! `store.cow.segments_copied` count them, so "what did this commit
//! copy" is a number that does not depend on the machine: a one-record
//! commit copies one page and one directory at 3 k and at 300 k objects
//! (`tests/commit_copies.rs`; E16 gates pages + segments flat from 3 k
//! to 30 k). Pages used to be 256 slots and every commit cloned each
//! touched shard's pointer vector three times by value; on the 2-vCPU
//! benchmark guest the change to 64-slot pages under a shared directory
//! took the traced `gsdb.commit_us` from 181 to 104 µs on
//! `commit_durable`, from 268 to 145 µs on `wire_maintain` and from
//! 1 542 to 1 116 µs per 256-update batch on `alg1_portfolio`, and a
//! one-update commit over 100 k objects in 8 shards from 16.8 to 7.2 µs.
//! What still scales with the shard is the one directory copy per
//! written shard (a pointer per 64 slots).
//! Every successful [`Store::apply`] also bumps a
//! monotonically increasing [`version`](Store::version), so commit
//! protocols can skip republishing untouched state.
//!
//! The durability layer's unit is a **chunk** of 256 slots — four
//! consecutive pages — so the on-disk format does not depend on the
//! page size: [`Store::export_images`] hands out pages four at a time
//! and [`Store::from_images`] takes them back the same way, placing
//! every record in one pass over the pages and building each index
//! table in one step ([`Store::from_records`] does the same for one
//! shard's records in slot order).
//!
//! Every store keeps one index, the **parent index**: the paper's
//! "inverse index such that from each node we can find out its parent"
//! (§4.4), which makes `ancestor(N, p)` a cheap upward walk instead of
//! a traversal from the root. It is keyed by child OID, so replica
//! stores may hold dangling child references; a child has an entry iff
//! some record lists it. An entry is 8 bytes of plain data — up to two
//! parent **slot ids** inline, or a marker whose sorted list lives in
//! the shard's spill table (three or more parents; empty on trees) — so
//! a segment of entries copies as bytes.
//!
//! Downward, a set value keeps each member's **slot hint** beside it
//! ([`OidSet`]): the slot the member's record had when this store last
//! wrote the set. The writers set it — an `Insert` from the probe that
//! checks the child exists, a `Create` with one `slot_of` probe per
//! child in the child's home shard, [`Store::replace_value`] and
//! [`Store::insert_edge_unchecked`] likewise, and a whole build
//! ([`Store::from_images`], [`Store::from_records`],
//! [`Store::reshard`]) in one pass once `slot_of` is built, over the
//! pages it holds alone (a page it shares keeps its hints, so
//! recovery's chunk cache takes the built pages); a child without a
//! record gets none, and `Delete` takes a member's hint with
//! it. A walk reads a child's slot from its hint and keeps it only if
//! the record there is the child's (`oid_at(hint) == child`, on the
//! record the walk reads next), else probes `slot_of`: a hint goes
//! stale when the child's record is removed, its slot reused, or the
//! record created again elsewhere, and nothing but the probe it costs
//! depends on it. Hints are derived, so they are in memory only: page
//! bytes, equality, digests and [`Store::accesses`] read the members
//! alone. On the portfolio benchmark store (≈ 18 k objects, L3
//! resident) the probe cost more than the record read it led to.
//!
//! The query planner's label → objects map is not maintained:
//! [`Store::with_label`] derives it from the pages on its first call
//! after a create or remove and caches it beside the sorted OID list,
//! so no commit copies it.
//!
//! Object reads can increment an access counter, giving experiments a
//! machine-independent measure of "access to base data" — the cost the
//! paper's §4.4 discussion is about. Counting is off by default
//! (production reads skip even the counter bump); experiment harnesses
//! switch it on at run time with [`Store::set_count_accesses`].

use crate::cowmap::CowMap;
use crate::fxhash::FastMap;
use crate::value::{Hinted, NO_HINT};
use crate::{AppliedUpdate, Atom, GsdbError, Label, Object, Oid, OidSet, Result, Update, Value};
use gsview_obs::Counter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Slots per copy-on-write page (power of two: slot addressing is a
/// shift and a mask). 64 objects bounds the clone cost a writer pays
/// on the first touch of a shared page after an epoch fork.
const PAGE_SHIFT: u32 = 6;
/// Page capacity, in slots.
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Mask extracting the within-page offset from a local slot id.
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;
/// Slots per durable chunk: the unit the durability layer encodes and
/// content-addresses, fixed by the on-disk format.
pub(crate) const CHUNK_SLOTS: usize = 256;
/// Pages per durable chunk.
const CHUNK_PAGES: usize = CHUNK_SLOTS / PAGE_SIZE;

/// Maximum shard count a store will partition into (power of two).
/// Sixteen fits the commit pipeline's `u16` shard masks and is far
/// beyond the writer parallelism a single source sees.
pub const MAX_SHARDS: usize = 16;

/// One copy-on-write slab page: an array behind its `Arc`, so the
/// counts and the slots are one allocation, a directory entry is one
/// word, and a read follows one pointer from it to a slot.
type Page = [Option<Object>; PAGE_SIZE];

/// A fresh all-free page.
fn new_page() -> Arc<Page> {
    Arc::new([const { None }; PAGE_SIZE])
}

/// One durable chunk of a shard: four consecutive pages, 256 slots.
/// The pages are shared with the store, so a chunk whose four pointers
/// are unchanged since the last persist holds unchanged slots.
pub type Chunk = [Arc<Page>; CHUNK_PAGES];

/// An all-free page, shared by every chunk that runs past the end of
/// its shard, so such a chunk keeps its pointers from one export to
/// the next.
fn empty_page() -> &'static Arc<Page> {
    static EMPTY: OnceLock<Arc<Page>> = OnceLock::new();
    EMPTY.get_or_init(new_page)
}

/// The home shard of an OID at a given shard shift (`log2(shards)`).
/// A pure function of the OID's name, so every store, every commit
/// pipeline and every process at the same shard count agrees on
/// placement — a recovered store's images must land where the process
/// that persisted them put them.
#[inline]
pub(crate) fn shard_for(oid: Oid, shift: u32) -> usize {
    if shift == 0 {
        return 0;
    }
    // Fibonacci multiplicative hash of the name's hash bits, not of the
    // interning index, which differs between processes.
    let h = u64::from(oid.name_hash()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) & ((1usize << shift) - 1)
}

/// A shard's page directory: what a record write changes besides the
/// record's page. Shared between clones of the shard until one of them
/// writes a record.
#[derive(Clone, Debug, Default)]
struct Directory {
    /// The shard's copy-on-write pages. `None` entries are free slots
    /// awaiting reuse (or the unallocated tail of the last page).
    pages: Vec<Arc<Page>>,
    /// Free global slots of this shard, reused LIFO by `Create`.
    free: Vec<u32>,
}

impl Directory {
    /// Exclusive access to the slot behind local id `local`, copying
    /// its page first if a clone of the directory still shares it.
    #[inline]
    fn slot_mut(&mut self, local: u32) -> &mut Option<Object> {
        let page = &mut self.pages[(local >> PAGE_SHIFT) as usize];
        if Arc::strong_count(page) != 1 {
            *page = Arc::new(Page::clone(page));
            pages_copied().incr();
        }
        &mut Arc::get_mut(page).expect("unshared or just copied")[(local & PAGE_MASK) as usize]
    }
}

/// One shard of the slab: a page directory plus every map whose
/// entries this shard owns. All slot values held in maps are **global**
/// slot ids (shard interleaved in the low bits) so they resolve against
/// the whole store; the pages are addressed by **local** ids
/// (`global >> shift`). Cloning one is a handful of reference bumps.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShardState {
    /// Pages and free list, copied on the first record write after a
    /// clone.
    dir: Arc<Directory>,
    /// Local slots handed out so far (high-water mark, free included).
    pub(crate) len_slots: usize,
    /// OID → global slot, for OIDs homed in this shard.
    pub(crate) slot_of: CowMap<u32>,
    /// child OID (homed here) → its global parent slots (any shard).
    /// Keyed by OID (not slot) so replica stores may index edges to
    /// children they don't hold. Read and written only through
    /// `parents_of`, `add_parent` and `remove_parent`.
    parent_index: CowMap<Parents>,
    /// child OID → sorted parent slots, for the entries spilled at
    /// three or more parents. Empty on trees.
    spill: CowMap<Vec<u32>>,
}

/// Padding of an inline [`Parents`] entry.
const NO_SLOT: u32 = u32::MAX;
/// The first word of a spilled [`Parents`] entry. No slot reaches it:
/// see where `Create` hands slots out in [`apply_update`].
const SPILLED: u32 = u32::MAX - 1;

/// A child's parent-index entry, 8 bytes of plain data, so a segment
/// of them copies as bytes: up to two parent slots inline, ascending
/// and padded with [`NO_SLOT`], or [`Parents::SPILL`] for three or
/// more parents, whose sorted list is the shard's spill-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Parents([u32; 2]);

impl Default for Parents {
    fn default() -> Self {
        Parents([NO_SLOT; 2])
    }
}

impl Parents {
    const SPILL: Parents = Parents([SPILLED, NO_SLOT]);
}

impl ShardState {
    /// Shared read access to the slot behind local id `local`.
    #[inline]
    pub(crate) fn obj(&self, local: u32) -> Option<&Object> {
        self.dir
            .pages
            .get((local >> PAGE_SHIFT) as usize)
            .and_then(|p| p[(local & PAGE_MASK) as usize].as_ref())
    }

    /// Write access to the page directory, copying it first if a clone
    /// of this shard still shares it.
    #[inline]
    fn dir_mut(&mut self) -> &mut Directory {
        // As in `CowMap::segment_mut`: a plain load decides, `get_mut`
        // synchronises.
        if Arc::strong_count(&self.dir) != 1 {
            self.dir = Arc::new(Directory::clone(&self.dir));
            directories_copied().incr();
        }
        Arc::get_mut(&mut self.dir).expect("unshared or just copied")
    }

    /// Exclusive access to the slot behind local id `local`, copying
    /// the directory and then the page first if a published epoch fork
    /// shares them. Panics on out-of-range slots — mutation paths only
    /// address allocated slots.
    #[inline]
    fn obj_mut(&mut self, local: u32) -> &mut Option<Object> {
        self.dir_mut().slot_mut(local)
    }

    /// Write access to `oid`'s record, at the local id its `slot_of`
    /// entry names. `slot_of` names only live slots (the first check of
    /// [`Store::check_shard_invariants`]), so the error is unreachable;
    /// it is an error rather than a panic so that a broken invariant
    /// fails the one update instead of unwinding through a commit.
    #[inline]
    fn record_mut(&mut self, local: u32, oid: Oid) -> Result<&mut Object> {
        self.obj_mut(local)
            .as_mut()
            .ok_or(GsdbError::NoSuchObject(oid))
    }

    /// `child`'s parent slots, ascending.
    #[inline]
    pub(crate) fn parents_of(&self, child: Oid) -> &[u32] {
        match self.parent_index.get(child) {
            Some(&Parents::SPILL) => self.spill.get(child).map_or(&[], Vec::as_slice),
            Some(Parents(e)) => &e[..e.iter().take_while(|&&s| s != NO_SLOT).count()],
            None => &[],
        }
    }

    /// Add `slot` to `child`'s parents, once. A third parent spills
    /// the entry.
    pub(crate) fn add_parent(&mut self, child: Oid, slot: u32) {
        let e = self.parent_index.or_default(child);
        match *e {
            Parents::SPILL => {
                let list = self.spill.or_default(child);
                if let Err(at) = list.binary_search(&slot) {
                    list.insert(at, slot);
                }
            }
            Parents([a, b]) if a == slot || b == slot => {}
            Parents([NO_SLOT, _]) => *e = Parents([slot, NO_SLOT]),
            Parents([a, NO_SLOT]) => *e = Parents([a.min(slot), a.max(slot)]),
            Parents([a, b]) => {
                *e = Parents::SPILL;
                let mut list = vec![a, b, slot];
                list.sort_unstable();
                self.spill.try_insert(child, list);
            }
        }
    }

    /// Take `slot` from `child`'s parents. A spilled entry left with
    /// two goes back inline; an entry left with none goes.
    pub(crate) fn remove_parent(&mut self, child: Oid, slot: u32) {
        let next = match self.parent_index.get(child) {
            None => return,
            Some(&Parents::SPILL) => {
                let list = self.spill.or_default(child);
                list.retain(|&s| s != slot);
                let [a, b] = list[..] else {
                    return;
                };
                self.spill.remove(child);
                Parents([a, b])
            }
            Some(&Parents([a, b])) if a == slot => Parents([b, NO_SLOT]),
            Some(&Parents([a, b])) if b == slot => Parents([a, NO_SLOT]),
            Some(_) => return,
        };
        if next == Parents::default() {
            self.parent_index.remove(child);
        } else if let Some(e) = self.parent_index.get_mut(child) {
            *e = next;
        }
    }

    /// Size `slot_of` for `objects` more objects homed here and the
    /// parent index for `children` more child OIDs homed here.
    pub(crate) fn reserve_entries(&mut self, objects: usize, children: usize) {
        self.slot_of.reserve(objects);
        self.parent_index.reserve(children);
    }

    /// Live objects in this shard.
    fn iter(&self) -> impl Iterator<Item = &Object> {
        self.dir
            .pages
            .iter()
            .flat_map(|p| p.iter())
            .filter_map(|s| s.as_ref())
    }
}

/// What one pass over a store's records collects for its index
/// tables, shard by shard: the `slot_of` entries, and for each child —
/// dangling ones included, as `Create` indexes them — its parent's
/// slot, in the child's home shard. [`TableEntries::build`] then
/// builds every table in one step.
struct TableEntries {
    slot_of: Vec<Vec<(Oid, u32)>>,
    parents: Vec<Vec<(Oid, Parents)>>,
}

impl TableEntries {
    fn new(shards: usize) -> Self {
        TableEntries {
            slot_of: vec![Vec::new(); shards],
            parents: vec![Vec::new(); shards],
        }
    }

    /// `obj`, homed in shard `home`, lives in global slot `slot`.
    fn add(&mut self, home: usize, slot: u32, obj: &Object, shift: u32) {
        self.slot_of[home].push((obj.oid, slot));
        for &c in obj.children() {
            self.parents[shard_for(c, shift)].push((c, Parents([slot, NO_SLOT])));
        }
    }

    /// Build each shard's `slot_of`, parent index and spill table; a
    /// repeated OID is the error.
    fn build(self, shards: &mut [ShardState]) -> std::result::Result<(), Oid> {
        for ((st, slot_of), parents) in shards.iter_mut().zip(self.slot_of).zip(self.parents) {
            st.slot_of = CowMap::build(slot_of, |_, _, _| false)?;
            // A child's third parent spills its entry; the spilled lists
            // are sorted once every parent is in. A record lists a
            // child once, so no slot repeats.
            let mut spill: FastMap<Oid, Vec<u32>> = FastMap::default();
            st.parent_index = CowMap::build(parents, |child, kept, more| {
                let slot = more.0[0];
                match *kept {
                    Parents::SPILL => spill.entry(child).or_default().push(slot),
                    Parents([a, NO_SLOT]) => *kept = Parents([a.min(slot), a.max(slot)]),
                    Parents([a, b]) => {
                        *kept = Parents::SPILL;
                        spill.insert(child, vec![a, b, slot]);
                    }
                }
                true
            })?;
            let spill = (spill.into_iter())
                .map(|(child, mut list)| {
                    list.sort_unstable();
                    (child, list)
                })
                .collect();
            st.spill = CowMap::build(spill, |_, _, _| false)?;
        }
        Ok(())
    }
}

/// Hint every set member that has a record with its slot: the one pass
/// a whole build makes once its `slot_of` tables are built, over the
/// pages it holds alone (a decoded chunk's, a store built record by
/// record). A page still shared — with the live store it was exported
/// from, or a cache of decoded chunks — keeps the hints it has, and
/// stays shared: copying it would cost more than the probes its stale
/// hints cause, and a persist would then find every such page changed.
fn rehint_all(shards: &mut [ShardState], shift: u32) {
    let mut dirs: Vec<Arc<Directory>> = (shards.iter_mut())
        .map(|st| std::mem::take(&mut st.dir))
        .collect();
    let slot = |c: Oid| shards[shard_for(c, shift)].slot_of.get(c).copied();
    for dir in &mut dirs {
        for page in &mut Arc::make_mut(dir).pages {
            let Some(page) = Arc::get_mut(page) else {
                continue;
            };
            let sets = page.iter_mut().flatten();
            for set in sets.filter_map(|o| o.value.as_set_mut()) {
                set.rehint(slot);
            }
        }
    }
    for (st, dir) in shards.iter_mut().zip(dirs) {
        st.dir = dir;
    }
}

/// `store.cow.pages_copied`: pages copied because a fork still shared
/// them — with `store.cow.directories_copied` and
/// `store.cow.segments_copied`, what a commit copied.
fn pages_copied() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| gsview_obs::registry().counter("store.cow.pages_copied"))
}

/// `store.cow.directories_copied`: shard page directories copied
/// because a clone of the shard still shared them.
fn directories_copied() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| gsview_obs::registry().counter("store.cow.directories_copied"))
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
/// [`ShardAccess`] view, maintaining object records and the parent
/// index under the sharded ownership discipline (see the module docs).
/// Does **not** touch the update log, version counter, or derived
/// caches — those are store-level concerns the callers own.
pub(crate) fn apply_update<V: ShardAccess>(view: &mut V, update: Update) -> Result<AppliedUpdate> {
    match update {
        Update::Insert { parent, child } => {
            let cs = view.home(child);
            let cslot = *view
                .state(cs)
                .slot_of
                .get(child)
                .ok_or(GsdbError::NoSuchObject(child))?;
            let ps = view.home(parent);
            let pslot = *view
                .state(ps)
                .slot_of
                .get(parent)
                .ok_or(GsdbError::NoSuchObject(parent))?;
            let shift = view.shift();
            {
                let st = view.state_mut(ps);
                let pobj = st.record_mut(pslot >> shift, parent)?;
                let set = pobj.value.as_set_mut().ok_or(GsdbError::NotASet(parent))?;
                if !set.insert_hinted(child, cslot) {
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
            view.state_mut(cs).add_parent(child, pslot);
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
                let pobj = st.record_mut(pslot >> shift, parent)?;
                let set = pobj.value.as_set_mut().ok_or(GsdbError::NotASet(parent))?;
                if !set.remove(child) {
                    return Err(GsdbError::NotAChild { parent, child });
                }
            }
            let cs = view.home(child);
            view.state_mut(cs).remove_parent(child, pslot);
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
            let obj = view.state_mut(s).record_mut(slot >> shift, oid)?;
            let old = match &mut obj.value {
                Value::Atom(a) => std::mem::replace(a, new.clone()),
                Value::Set(_) => return Err(GsdbError::NotAtomic(oid)),
            };
            Ok(AppliedUpdate::Modify { oid, old, new })
        }
        Update::Create { mut object } => {
            let oid = object.oid;
            let s = view.home(oid);
            let shift = view.shift();
            let slot = {
                let st = view.state_mut(s);
                // Reuse a freed slot if one exists; identity is the
                // OID, so reuse is invisible to callers. The slot is
                // taken (below) only once `slot_of` has accepted the
                // OID — the duplicate check and the insert are one
                // probe. No slot reaches the parent index's `SPILLED`:
                // a fresh one is handed out only when the free list is
                // empty, so a shard never holds more slots than its
                // peak of live OIDs, and the interner holds at most
                // 2^24 names — global slots stay below 2^24 << 4.
                let slot = st
                    .dir
                    .free
                    .last()
                    .copied()
                    .unwrap_or(((st.len_slots as u32) << shift) | s as u32);
                if !st.slot_of.try_insert(oid, slot) {
                    return Err(GsdbError::DuplicateOid(oid));
                }
                slot
            };
            // A created object may arrive with children already in its
            // set value: hint each one that has a record with its slot
            // (the object's own entry is in, so a self-loop is hinted
            // too), and index every edge, each in the child's home
            // shard.
            if let Some(set) = object.value.as_set_mut() {
                set.rehint(|c| view.state(view.home(c)).slot_of.get(c).copied());
            }
            for &c in object.children() {
                let cs = view.home(c);
                view.state_mut(cs).add_parent(c, slot);
            }
            // Take the slot and write the record: one directory write.
            let st = view.state_mut(s);
            let dir = st.dir_mut();
            let fresh = dir.free.pop().is_none();
            let local = slot >> shift;
            if fresh && (local >> PAGE_SHIFT) as usize == dir.pages.len() {
                dir.pages.push(new_page());
            }
            *dir.slot_mut(local) = Some(object);
            st.len_slots += usize::from(fresh);
            Ok(AppliedUpdate::Create { oid })
        }
        Update::Remove { oid } => {
            let s = view.home(oid);
            let shift = view.shift();
            let (slot, obj) = {
                let st = view.state_mut(s);
                let slot = st.slot_of.remove(oid).ok_or(GsdbError::NoSuchObject(oid))?;
                let dir = st.dir_mut();
                // As in `record_mut`: `slot_of` named a live slot.
                let obj = dir
                    .slot_mut(slot >> shift)
                    .take()
                    .ok_or(GsdbError::NoSuchObject(oid))?;
                dir.free.push(slot);
                (slot, obj)
            };
            // The entry for `oid` *as a child* stays: Remove leaves the
            // edges into it dangling in the parents' sets (replica
            // semantics), so a later re-Create of the same OID finds
            // them indexed.
            for &c in obj.children() {
                let cs = view.home(c);
                view.state_mut(cs).remove_parent(c, slot);
            }
            Ok(AppliedUpdate::Remove { oid })
        }
    }
}

/// Store configuration: the shard count. Whether updates are logged
/// belongs to the commit pipeline ([`ShardedStore`](crate::ShardedStore)
/// logs what it commits), and access counting is a run-time switch
/// ([`Store::set_count_accesses`]).
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
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
        StoreConfig { shards: 1 }
    }
}

impl StoreConfig {
    /// This configuration with the given shard count (rounded up to a
    /// power of two, clamped to `[1, MAX_SHARDS]`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The effective (normalized) shard count.
    fn effective_shards(&self) -> usize {
        self.shards
            .clamp(1, MAX_SHARDS)
            .next_power_of_two()
            .min(MAX_SHARDS)
    }
}

/// A borrowed set of objects from the parent index: one sorted slice
/// of global slot ids (a child's entry lives wholly in its home shard).
/// Iteration and membership work in terms of [`Oid`]s, like the
/// `OidSet` the seed layout returned.
#[derive(Clone, Copy, Debug)]
pub struct SlotSet<'a> {
    store: &'a Store,
    slots: &'a [u32],
}

impl<'a> SlotSet<'a> {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no members.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Membership test (binary search over the sorted slice).
    pub fn contains(&self, oid: Oid) -> bool {
        self.store
            .slot_of(oid)
            .is_some_and(|slot| self.slots.binary_search(&slot).is_ok())
    }

    /// Iterate members as OIDs, in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = Oid> + 'a {
        let store = self.store;
        self.slots
            .iter()
            .map(move |&s| store.slot_obj(s).expect("index references live slot").oid)
    }
}

/// A read-only image of one slab shard: its copy-on-write pages, four
/// to a durable [`Chunk`], plus the slot high-water mark — everything
/// the durability layer needs to serialize the shard and everything
/// [`Store::from_images`] needs to rebuild it (lookup maps, free lists,
/// and indexes are derived from the pages). Pages are shared with the
/// exporting store, so taking an image costs reference-count bumps, not
/// object copies.
#[derive(Clone, Debug)]
pub struct ShardImage {
    /// Local slots handed out so far (free slots included). Slots at
    /// or past this mark are the unallocated tail of the last chunk.
    pub len_slots: usize,
    /// The shard's pages in order, four to a chunk; the last chunk is
    /// filled out with all-free pages. `None` entries are free slots.
    pub chunks: Vec<Chunk>,
}

/// label → objects, in slot order shard by shard.
type LabelMap = FastMap<Label, Arc<[Oid]>>;

/// What a store derives from its pages on demand and keeps until the
/// next create or remove (a label changes only with its object's).
/// `Arc`s inside, so clones and forks share what either derived.
#[derive(Clone, Debug, Default)]
struct Derived {
    /// The answer of [`Store::oids_sorted`].
    sorted: Option<Arc<Vec<Oid>>>,
    /// The map [`Store::with_label`] answers from.
    labels: Option<Arc<LabelMap>>,
}

/// An in-memory GSDB object store.
#[derive(Debug)]
pub struct Store {
    /// The sharded slab; always a power-of-two length.
    shards: Vec<ShardState>,
    /// `log2(shards.len())` — slot ids are `local << shift | shard`.
    shift: u32,
    log: Vec<AppliedUpdate>,
    /// Set only on a store checked out of a
    /// [`ShardedStore`](crate::ShardedStore) (`checkout`), so its
    /// mutations feed the pipeline's commit log. Clones keep it.
    log_enabled: bool,
    /// Bumped on every successful mutation; lets commit protocols skip
    /// republishing an untouched store.
    version: u64,
    count_accesses: AtomicBool,
    /// Sharded (per-thread-bucket) so parallel maintenance threads
    /// counting reads on a shared snapshot don't bounce a cache line.
    accesses: Counter,
    /// Locked only through [`Store::derived`].
    derived: Mutex<Derived>,
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
            derived: Mutex::default(),
        }
    }
}

impl Clone for Store {
    /// A logically independent copy. Cheap: page directories and index
    /// tables are shared copy-on-write, so the cost is reference-count
    /// bumps plus the update log; either side pays the copy lazily, a
    /// directory, a page or a table segment at a time, as it writes.
    ///
    /// What the store derived is carried over as-is: it depends only on
    /// the OID set, identical at clone time, and every `Create` or
    /// `Remove` invalidates it (`oids_sorted_survives_mutation_interleavings`
    /// and `with_label_is_a_fresh_scan_of_the_pages` in
    /// `tests/store_properties.rs` pin this).
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
            derived: Mutex::new(self.derived().clone()),
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
    /// A store with the default configuration (one shard, no access
    /// counting).
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// A store with the default configuration plus access counting —
    /// the experiment-harness constructor.
    pub fn counting() -> Self {
        let s = Self::new();
        s.set_count_accesses(true);
        s
    }

    /// A store with explicit configuration.
    pub fn with_config(cfg: StoreConfig) -> Self {
        let n = cfg.effective_shards();
        Store {
            shards: (0..n).map(|_| ShardState::default()).collect(),
            shift: n.trailing_zeros(),
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

    /// The home shard of an OID: where its record, `Oid → slot` entry
    /// and parent-index entry (as a child) live. A pure function of the
    /// OID and the shard count.
    pub fn shard_of(&self, oid: Oid) -> usize {
        shard_for(oid, self.shift)
    }

    /// Live objects per shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.slot_of.len()).collect()
    }

    /// A copy of this store re-partitioned into `shards` shards
    /// (rounded up to a power of two, clamped to `[1, MAX_SHARDS]`).
    /// Object state, dangling-edge index entries and access counting
    /// carry over; the update log does not, and the copy does not log
    /// (resharding is a topology change, not a base update). The
    /// version counter carries over so commit protocols never mistake
    /// the reshard for "no change".
    pub fn reshard(&self, shards: usize) -> Store {
        let mut out = Store::with_config(StoreConfig { shards });
        out.set_count_accesses(self.counts_accesses());
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
        // A record created before its children hinted none of them.
        rehint_all(&mut out.shards, out.shift);
        out.version = self.version;
        out
    }

    /// Pre-size the slab and maps for `additional` more objects (most
    /// objects are somebody's child, so the object count stands in for
    /// the parent index's new entries).
    pub fn reserve(&mut self, additional: usize) {
        self.reserve_with_children(additional, additional);
    }

    /// Pre-size the slab for `objects` more objects and the parent
    /// index for `children` more child OIDs it does not hold yet. A
    /// replica copying a region level by level needs this: its objects'
    /// children mostly lie outside the region (dangling), and each of
    /// them takes a parent-index entry all the same.
    pub fn reserve_with_children(&mut self, objects: usize, children: usize) {
        let per_shard = |n: usize| n / self.shards.len() + 1;
        let (objects, children) = (per_shard(objects), per_shard(children));
        for st in &mut self.shards {
            let dir = st.dir_mut();
            dir.pages
                .reserve(objects.saturating_sub(dir.free.len()) / PAGE_SIZE + 1);
            st.reserve_entries(objects, children);
        }
    }

    /// A read-only snapshot fork of this store: the same objects and
    /// indexes, shared copy-on-write, with an **empty update log** and
    /// logging disabled. This is the image a source publishes into an
    /// [`EpochHandle`](crate::EpochHandle) at commit time — readers
    /// traverse the fork while the live store keeps mutating (and
    /// keeps accumulating its own log for the monitor). Cost per
    /// shard: four reference-count bumps (the page directory,
    /// `slot_of`, the parent index and its spill table) — no page
    /// pointer, object or index entry.
    pub fn fork(&self) -> Store {
        let mut fork = self.clone();
        fork.log = Vec::new();
        fork.log_enabled = false;
        fork
    }

    /// True iff `other` holds the very records of `self`: the same
    /// version and the same page-directory allocation in every shard. A
    /// fork shares its origin's directories until either side writes a
    /// record, so this holds between a store and its unwritten forks,
    /// and fails between two forks that diverged to one version. Only
    /// meaningful while `self` is alive: it keeps its directories
    /// allocated, so no other store can reuse their addresses.
    pub(crate) fn same_records(&self, other: &Store) -> bool {
        self.version == other.version
            && self.shards.len() == other.shards.len()
            && self
                .shards
                .iter()
                .zip(&other.shards)
                .all(|(a, b)| Arc::ptr_eq(&a.dir, &b.dir))
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

    /// Children of the object in a slot, each with its **slot hint**
    /// (counts the access, like [`Store::children`]). Empty for atomic
    /// or free slots.
    ///
    /// A hint is the slot the child's record had when this store last
    /// wrote the parent's set, `u32::MAX` if it had none. It names the
    /// child's slot iff `oid_at(hint) == Some(child)`; otherwise the
    /// record went, or came back at another slot, since then, and
    /// [`Store::slot_of`] answers. A walk that checks so reaches each
    /// child's record without a `slot_of` probe, and the check reads
    /// the record the walk reads next.
    #[inline]
    pub fn children_at(&self, slot: u32) -> impl Iterator<Item = (Oid, u32)> + '_ {
        self.bump();
        (self.slot_obj(slot).and_then(|o| o.value.as_set())).map_or(Hinted::EMPTY, OidSet::hinted)
    }

    /// `child`'s slot, for a child [`Store::children_at`] yielded with
    /// `hint`: the hint once the record there is the child's, else a
    /// `slot_of` probe. Counts no access.
    #[inline]
    pub(crate) fn child_slot(&self, child: Oid, hint: u32) -> Option<u32> {
        if self.oid_at(hint) == Some(child) {
            Some(hint)
        } else {
            self.slot_of(child)
        }
    }

    /// Atomic value of the object in a slot (counts the access, like
    /// [`Store::atom`]). `None` for set objects and free or
    /// out-of-range slots.
    #[inline]
    pub fn atom_at(&self, slot: u32) -> Option<&Atom> {
        self.bump();
        self.slot_obj(slot).and_then(|o| o.atom_value())
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
        let cached = self.derived().sorted.clone();
        if let Some(v) = cached {
            return v.as_ref().clone();
        }
        let mut v: Vec<Oid> = self
            .shards
            .iter()
            .flat_map(|s| s.slot_of.iter().map(|(oid, _)| oid))
            .collect();
        v.sort_by_key(|o| o.name());
        self.derived().sorted = Some(Arc::new(v.clone()));
        v
    }

    /// Objects with a given label, in slot order shard by shard. The
    /// label → objects map is derived from the pages on the first call
    /// after a create or remove (a scan that counts no access) and
    /// kept until the next one; clones and forks share it.
    pub fn with_label(&self, label: Label) -> Arc<[Oid]> {
        let cached = self.derived().labels.clone();
        let labels = cached.unwrap_or_else(|| {
            let mut map: FastMap<Label, Vec<Oid>> = FastMap::default();
            for obj in self.iter() {
                map.entry(obj.label).or_default().push(obj.oid);
            }
            let map: Arc<LabelMap> =
                Arc::new(map.into_iter().map(|(l, v)| (l, v.into())).collect());
            self.derived().labels = Some(Arc::clone(&map));
            map
        });
        labels.get(&label).cloned().unwrap_or_else(|| Arc::from([]))
    }

    /// The derived caches. Every critical section on this lock is one
    /// `Option` read or assignment, so a thread that panicked while
    /// holding it left a whole old or a whole new value, and a poisoned
    /// lock is taken as it is.
    fn derived(&self) -> MutexGuard<'_, Derived> {
        self.derived.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Access accounting
    // ------------------------------------------------------------------

    /// Number of object reads since construction / last reset. This is
    /// the "access to base data" cost the paper's §4.4 analysis uses.
    /// Always 0 unless [`Store::set_count_accesses`] switched counting on.
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

    /// Parents of an object, from the inverse index every store keeps
    /// (paper §4.4: with it, `path(ROOT, N)` and `ancestor(N, p)` are
    /// upward walks). The entry lives wholly in the child's home shard,
    /// so this is a single-map lookup at any shard count.
    pub fn parents(&self, oid: Oid) -> SlotSet<'_> {
        self.bump();
        SlotSet {
            store: self,
            slots: self.home_state(oid).parents_of(oid),
        }
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
        let hint = self.slot_of(child).unwrap_or(NO_HINT);
        let shift = self.shift;
        {
            let st = &mut self.shards[ps];
            let pobj = st.record_mut(pslot >> shift, parent)?;
            let set = pobj.value.as_set_mut().ok_or(GsdbError::NotASet(parent))?;
            set.insert_hinted(child, hint);
        }
        let cs = self.home(child);
        self.shards[cs].add_parent(child, pslot);
        self.version += 1;
        Ok(())
    }

    /// Replace the value of `oid`'s record in place: the record keeps
    /// its label, its slot and its place in every parent's set, and
    /// only the children that changed move in the parent index — a
    /// child the new value drops loses the record's slot, a child it
    /// adds gains it (a dangling one too, as [`Store::create`] indexes
    /// it). Every record and every child's parents end as cutting the
    /// record from its parents, removing it, creating it again with the
    /// new value and re-inserting it would leave them, except that the
    /// parents' sets keep their order. Not logged and read nothing —
    /// like [`Store::insert_edge_unchecked`], this is view and replica
    /// bookkeeping, not a base update.
    pub fn replace_value(&mut self, oid: Oid, mut value: Value) -> Result<()> {
        let s = self.home(oid);
        let slot = *self.shards[s]
            .slot_of
            .get(oid)
            .ok_or(GsdbError::NoSuchObject(oid))?;
        if let Some(set) = value.as_set_mut() {
            set.rehint(|c| self.slot_of(c));
        }
        let shift = self.shift;
        let obj = self.shards[s].record_mut(slot >> shift, oid)?;
        let old = std::mem::replace(&mut obj.value, value);
        fn kids(v: &Value) -> &[Oid] {
            v.as_set().map_or(&[], |set| set.as_slice())
        }
        let has = |v: &Value, c: Oid| v.as_set().is_some_and(|set| set.contains(c));
        let new = &obj.value;
        let gone: Vec<Oid> = kids(&old)
            .iter()
            .copied()
            .filter(|&c| !has(new, c))
            .collect();
        let came: Vec<Oid> = kids(new)
            .iter()
            .copied()
            .filter(|&c| !has(&old, c))
            .collect();
        for c in gone {
            let cs = self.home(c);
            self.shards[cs].remove_parent(c, slot);
        }
        for c in came {
            let cs = self.home(c);
            self.shards[cs].add_parent(c, slot);
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
            *self.derived() = Derived::default();
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

    /// Drain the update log (the source monitor's feed, paper §5). Only
    /// a store checked out by
    /// [`ShardedStore::with_exclusive`](crate::ShardedStore::with_exclusive)
    /// logs, so any other store's log is empty.
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

    /// A writable copy of this published snapshot, checked out by
    /// [`ShardedStore::with_exclusive`](crate::ShardedStore::with_exclusive):
    /// the only store that logs. Its log starts as `log`, the
    /// pipeline's pending entries, so a closure observes the same log a
    /// single-mutex store would have shown it; it counts accesses iff
    /// `count_accesses`, from zero. Cost: [`Store::clone`]'s reference
    /// bumps.
    pub(crate) fn checkout(&self, log: Vec<AppliedUpdate>, count_accesses: bool) -> Store {
        Store {
            shards: self.shards.clone(),
            shift: self.shift,
            log,
            log_enabled: true,
            version: self.version,
            count_accesses: AtomicBool::new(count_accesses),
            accesses: Counter::new("store.accesses"),
            derived: Mutex::new(self.derived().clone()),
        }
    }

    /// Compose the next published snapshot: the previous snapshot's
    /// shard states with `replaced` swapped in (the shards a commit
    /// locked), at the commit's post-state version. Cost: one cheap
    /// clone of `prev` — reference bumps per shard — plus the swaps;
    /// untouched shards are shared copy-on-write with every earlier
    /// snapshot.
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
            *s.derived() = Derived::default();
        }
        s
    }

    // ------------------------------------------------------------------
    // Durable image export / import
    // ------------------------------------------------------------------

    /// Export the slab as per-shard chunk images, shared copy-on-write
    /// with this store (reference-count bumps, no object copies). The
    /// durability layer serializes each chunk independently; unchanged
    /// pages keep their `Arc` identity across epochs, which is what
    /// makes incremental persistence O(touched pages).
    pub fn export_images(&self) -> Vec<ShardImage> {
        self.shards
            .iter()
            .map(|s| ShardImage {
                len_slots: s.len_slots,
                chunks: s
                    .dir
                    .pages
                    .chunks(CHUNK_PAGES)
                    .map(|pages| {
                        std::array::from_fn(|k| Arc::clone(pages.get(k).unwrap_or(empty_page())))
                    })
                    .collect(),
            })
            .collect()
    }

    /// Rebuild a store from exported (or decoded) chunk images,
    /// reconstructing the `Oid → slot` maps, free lists, and the parent
    /// index from the pages alone. The inverse of
    /// [`Store::export_images`]: slot layout is preserved exactly, and
    /// the store keeps the very pages it is given, so a recovered store
    /// re-exports to the same chunks — structural sharing with
    /// pre-crash chunks survives restart.
    ///
    /// Errors (as strings, for the recovery path to surface) on
    /// structural corruption: a shard count that is not a power of
    /// two, an object homed in the wrong shard, a duplicate OID, or a
    /// live slot past the high-water mark.
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
        let mut tables = TableEntries::new(n);
        let mut shards = Vec::with_capacity(n);
        for (i, img) in images.into_iter().enumerate() {
            let pages: Vec<Arc<Page>> = img.chunks.into_iter().flatten().collect();
            if img.len_slots > pages.len() * PAGE_SIZE {
                return Err(format!(
                    "shard {i}: high-water mark {} exceeds {} paged slots",
                    img.len_slots,
                    pages.len() * PAGE_SIZE
                ));
            }
            let mut free = Vec::new();
            for (p, page) in pages.iter().enumerate() {
                for (k, slot) in page.iter().enumerate() {
                    let local = (p * PAGE_SIZE + k) as u32;
                    let global = (local << shift) | i as u32;
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
                            tables.add(i, global, obj, shift);
                        }
                        None => {
                            if (local as usize) < img.len_slots {
                                free.push(global);
                            }
                        }
                    }
                }
            }
            shards.push(ShardState {
                dir: Arc::new(Directory { pages, free }),
                len_slots: img.len_slots,
                ..ShardState::default()
            });
        }
        tables
            .build(&mut shards)
            .map_err(|oid| format!("duplicate OID {oid}"))?;
        rehint_all(&mut shards, shift);
        Ok(Store {
            shards,
            shift,
            version,
            ..Store::default()
        })
    }

    /// A one-shard store holding `records` in slot order — the first
    /// in slot 0 — at version `version`, with its index tables built in
    /// one step: what creating each record in turn into an empty
    /// [`Store::new`] leaves, without the per-record work. Fails on an
    /// OID that repeats.
    pub fn from_records(records: Vec<Object>, version: u64) -> Result<Store> {
        let mut tables = TableEntries::new(1);
        for (slot, obj) in records.iter().enumerate() {
            tables.add(0, slot as u32, obj, 0);
        }
        let len_slots = records.len();
        let mut records = records.into_iter();
        let pages = (0..len_slots.div_ceil(PAGE_SIZE))
            .map(|_| Arc::new(std::array::from_fn(|_| records.next())))
            .collect();
        let mut shards = vec![ShardState {
            dir: Arc::new(Directory {
                pages,
                free: Vec::new(),
            }),
            len_slots,
            ..ShardState::default()
        }];
        tables.build(&mut shards).map_err(GsdbError::DuplicateOid)?;
        rehint_all(&mut shards, 0);
        Ok(Store {
            shards,
            version,
            ..Store::default()
        })
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests / proptests)
    // ------------------------------------------------------------------

    /// Check one shard's arena + placement invariants: slot accounting,
    /// OID homing (every entry hashes to this shard), free-list
    /// disjointness (free slots carry this shard's interleave bits and
    /// are dead).
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
        let Directory { pages, free } = &*st.dir;
        if live + free.len() != st.len_slots {
            return Err(format!(
                "shard {i}: live {} + free {} != allocated slots {}",
                live,
                free.len(),
                st.len_slots
            ));
        }
        if st.len_slots > pages.len() * PAGE_SIZE {
            return Err(format!(
                "shard {i}: slot high-water mark {} exceeds page capacity {}",
                st.len_slots,
                pages.len() * PAGE_SIZE
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
                _ => {
                    return Err(format!(
                        "shard {i}: slot_of[{}] -> dead or mismatched slot",
                        oid.name()
                    ))
                }
            }
        }
        for &f in free {
            if (f & mask) as usize != i {
                return Err(format!(
                    "shard {i}: free slot {f} carries foreign shard bits"
                ));
            }
            let local = f >> self.shift;
            if (local as usize) >= st.len_slots || st.obj(local).is_some() {
                return Err(format!("shard {i}: free slot {f} is live or out of bounds"));
            }
        }
        // An entry exists iff some record lists the child: never empty,
        // inline while it has at most two parents, its slots ascending,
        // and the spill table holds the spilled entries' lists alone.
        for (child, &entry) in st.parent_index.iter() {
            if shard_for(child, self.shift) != i {
                return Err(format!(
                    "shard {i}: parent index entry for {} belongs to shard {}",
                    child.name(),
                    shard_for(child, self.shift)
                ));
            }
            let slots = st.parents_of(child);
            let well_formed = match entry {
                Parents::SPILL => slots.len() > 2,
                _ => !slots.is_empty() && entry.0[slots.len()..].iter().all(|&s| s == NO_SLOT),
            };
            if !well_formed || !slots.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "shard {i}: parent index entry for {} is {entry:?} over {slots:?}",
                    child.name()
                ));
            }
            for &pslot in slots {
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
        let spilled = (st.parent_index.iter())
            .filter(|&(_, &e)| e == Parents::SPILL)
            .count();
        if spilled != st.spill.len() {
            return Err(format!(
                "shard {i}: {spilled} spilled entries but {} spill lists",
                st.spill.len()
            ));
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
        for obj in self.iter() {
            let slot = self.slot_of(obj.oid).unwrap();
            // A hint is only ever read through its check.
            for (c, hint) in obj.value.as_set().map_or(Hinted::EMPTY, OidSet::hinted) {
                if self.child_slot(c, hint) != self.slot_of(c) {
                    return Err(format!(
                        "{} hints {} at slot {hint}, which is not its record's",
                        obj.oid.name(),
                        c.name()
                    ));
                }
            }
            for c in obj.children() {
                let parents = self.home_state(*c).parents_of(*c);
                if parents.binary_search(&slot).is_err() {
                    return Err(format!(
                        "parent index missing edge {} -> {}",
                        obj.oid.name(),
                        c.name()
                    ));
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
        assert!(s.parents(oid("N1")).contains(oid("P1")));
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
        assert!(!s.parents(oid("P1")).contains(oid("ROOT")));
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
        // The store the commit pipeline checks out is the one that logs.
        crate::ShardedStore::new(Store::new()).with_exclusive(|s| {
            s.create(Object::empty_set("R", "root")).unwrap();
            s.create(Object::atom("X", "x", 1i64)).unwrap();
            s.insert_edge(oid("R"), oid("X")).unwrap();
            s.modify_atom(oid("X"), 2i64).unwrap();
            let log = s.drain_log();
            assert_eq!(log.len(), 4);
            assert!(matches!(log[2], AppliedUpdate::Insert { .. }));
            assert!(matches!(log[3], AppliedUpdate::Modify { .. }));
            assert!(s.log().is_empty());
        });
    }

    #[test]
    fn with_label_tracks_create_remove() {
        let mut s = tiny_store();
        let prof = Label::new("professor");
        assert!(s.with_label(prof).contains(&oid("P1")));
        s.delete_edge(oid("ROOT"), oid("P1")).unwrap();
        s.apply(Update::Remove { oid: oid("P1") }).unwrap();
        assert!(!s.with_label(prof).contains(&oid("P1")));
        assert!(Store::new().with_label(prof).is_empty());
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
    fn create_with_children_populates_parent_index() {
        let mut s = Store::new();
        s.create(Object::atom("c1", "x", 1i64)).unwrap();
        s.create(Object::set("p", "parent", &[oid("c1")])).unwrap();
        assert!(s.parents(oid("c1")).contains(oid("p")));
    }

    /// `c`'s parent-index entry, in its home shard.
    fn entry(s: &Store, c: Oid) -> Option<Parents> {
        s.home_state(c).parent_index.get(c).copied()
    }

    #[test]
    fn a_third_parent_spills_the_entry_and_a_second_last_one_brings_it_back() {
        let mut s = Store::new();
        let ps: Vec<Oid> = (0..4).map(|i| oid(&format!("spill_p{i}"))).collect();
        for &p in &ps {
            s.create(Object::empty_set(p, "p")).unwrap();
        }
        let slots = |s: &Store, of: &[usize]| -> Vec<u32> {
            of.iter().map(|&i| s.slot_of(ps[i]).unwrap()).collect()
        };
        let [p0, p1, p2, p3] = slots(&s, &[0, 1, 2, 3])[..] else {
            unreachable!()
        };
        let c = oid("spill_c");
        // Parents arrive in descending slot order, so every step sorts;
        // a repeat changes nothing.
        s.insert_edge_unchecked(ps[3], c).unwrap();
        assert_eq!(entry(&s, c), Some(Parents([p3, NO_SLOT])));
        s.insert_edge_unchecked(ps[2], c).unwrap();
        s.insert_edge_unchecked(ps[2], c).unwrap();
        assert_eq!(entry(&s, c), Some(Parents([p2, p3])));
        s.insert_edge_unchecked(ps[0], c).unwrap();
        assert_eq!(entry(&s, c), Some(Parents::SPILL));
        assert_eq!(s.home_state(c).parents_of(c), [p0, p2, p3]);
        s.insert_edge_unchecked(ps[1], c).unwrap();
        s.insert_edge_unchecked(ps[1], c).unwrap();
        assert_eq!(s.home_state(c).parents_of(c), [p0, p1, p2, p3]);
        s.check_invariants().unwrap();
        let fork = s.clone();
        s.delete_edge(ps[1], c).unwrap();
        assert_eq!(entry(&s, c), Some(Parents::SPILL));
        assert_eq!(s.home_state(c).parents_of(c), [p0, p2, p3]);
        // Down to two: the entry goes back inline and its list goes.
        s.delete_edge(ps[0], c).unwrap();
        assert_eq!(entry(&s, c), Some(Parents([p2, p3])));
        assert!(s.shards[0].spill.is_empty());
        s.check_invariants().unwrap();
        s.delete_edge(ps[3], c).unwrap();
        assert_eq!(entry(&s, c), Some(Parents([p2, NO_SLOT])));
        // The last parent takes the entry with it.
        s.delete_edge(ps[2], c).unwrap();
        assert_eq!(entry(&s, c), None);
        assert!(s.parents(c).is_empty());
        s.check_invariants().unwrap();
        // The fork still answers the four parents it was taken with.
        assert_eq!(fork.home_state(c).parents_of(c), [p0, p1, p2, p3]);
        fork.check_invariants().unwrap();
    }

    #[test]
    fn a_removed_records_dangling_children_leave_no_entry() {
        // A view store's delegates name base OIDs it does not hold;
        // once no record names one, its entry goes, so the index does
        // not grow with every base OID a delegate ever named.
        let mut s = Store::new();
        let kids = [oid("dang_x"), oid("dang_y")];
        s.create(Object::set("dang_d", "d", &kids)).unwrap();
        s.create(Object::set("dang_e", "d", &kids[..1])).unwrap();
        s.apply(Update::Remove { oid: oid("dang_d") }).unwrap();
        assert_eq!(entry(&s, kids[1]), None);
        assert!(s.parents(kids[0]).contains(oid("dang_e")));
        s.replace_value(oid("dang_e"), Value::empty_set()).unwrap();
        assert_eq!(entry(&s, kids[0]), None);
        assert!(s.shards[0].parent_index.is_empty());
        s.check_invariants().unwrap();
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
    fn slot_reuse_does_not_alias_with_label() {
        let mut s = Store::new();
        s.create(Object::atom("A", "old", 1i64)).unwrap();
        assert!(s.with_label(Label::new("old")).contains(&oid("A")));
        s.apply(Update::Remove { oid: oid("A") }).unwrap();
        s.create(Object::atom("B", "new", 2i64)).unwrap();
        // B reused A's slot; the "old" label set must not claim it.
        assert!(s.with_label(Label::new("old")).is_empty());
        assert!(s.with_label(Label::new("new")).contains(&oid("B")));
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
        assert!(s.parents(oid("A")).contains(oid("R")));
        s.check_invariants().unwrap();
        // Once the last referencing parent drops the edge, the entry
        // is gone for good — before the object is.
        s.delete_edge(oid("R"), oid("A")).unwrap();
        assert_eq!(entry(&s, oid("A")), None);
        s.apply(Update::Remove { oid: oid("A") }).unwrap();
        assert!(s.parents(oid("A")).is_empty());
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
        let mut s = Store::with_config(StoreConfig::default());
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
        assert!(fork.with_label(Label::new("age")).contains(&oid("A")));
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
                s.parent_index.segments_apart_from(&f.parent_index),
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
        assert_eq!(fork.parents(kids[0]).len(), 1);
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
        assert_eq!(fork.parents(extra).len(), 2);
        fork.check_invariants().unwrap();

        // Remove: its `slot_of` entry and its k children's entries.
        let fork = s.fork();
        s.apply(Update::Remove { oid: new }).unwrap();
        let (slots, parents) = apart(&s, &fork);
        assert_eq!(slots, 1);
        assert!((1..=kids.len()).contains(&parents), "{parents}");
        assert_eq!(fork.children(new), &kids);
        assert!(fork.parents(kids[2]).contains(new));
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
                    let mut v: Vec<_> = base.parents(o).iter().collect();
                    v.sort();
                    v
                };
                let sp: Vec<_> = {
                    let mut v: Vec<_> = s.parents(o).iter().collect();
                    v.sort();
                    v
                };
                assert_eq!(sp, bp, "parents of {o} at {n} shards");
            }
            let mut bl = base.with_label(Label::new("age")).to_vec();
            let mut sl = s.with_label(Label::new("age")).to_vec();
            bl.sort();
            sl.sort();
            assert_eq!(sl, bl, "with_label at {n} shards");
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
        let mut s = Store::with_config(StoreConfig::default());
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
            assert!(r.log().is_empty());
            // The dangling entry survives: re-creating `gone` makes
            // the edge live again, exactly like in the original.
            let mut r2 = r.clone();
            r2.create(Object::atom("gone", "age", 8i64)).unwrap();
            assert!(r2.parents(oid("gone")).contains(oid("R")));
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
            let cfg = StoreConfig::default().with_shards(shards);
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
                    back.parents(o).iter().collect::<Vec<_>>(),
                    s.parents(o).iter().collect::<Vec<_>>()
                );
            }
            // The rebuilt store holds the very pages it was given, so
            // it re-exports the same chunks, pointer for pointer.
            let a = s.export_images();
            let b = back.export_images();
            assert_eq!(a.len(), b.len());
            for (ia, ib) in a.iter().zip(&b) {
                assert_eq!(ia.len_slots, ib.len_slots);
                assert_eq!(ia.chunks.len(), ib.chunks.len());
                for (ca, cb) in ia.chunks.iter().zip(&ib.chunks) {
                    assert!(ca.iter().zip(cb).all(|(pa, pb)| Arc::ptr_eq(pa, pb)));
                }
            }
        }
    }

    #[test]
    fn a_chunk_is_four_pages_and_the_last_one_is_filled_out() {
        let mut s = Store::new();
        for i in 0..CHUNK_SLOTS + PAGE_SIZE + 3 {
            s.create(Object::atom(format!("ck{i}").as_str(), "x", i as i64))
                .unwrap();
        }
        let [img] = &s.export_images()[..] else {
            panic!("one shard")
        };
        assert_eq!(img.chunks.len(), 2);
        let slots: Vec<Option<Object>> = img
            .chunks
            .iter()
            .flatten()
            .flat_map(|p| p.iter().cloned())
            .collect();
        assert_eq!(slots.len(), 2 * CHUNK_SLOTS);
        assert_eq!(slots.iter().flatten().count(), s.len());
        assert!(Arc::ptr_eq(&img.chunks[1][2], empty_page()));
        assert!(Arc::ptr_eq(&img.chunks[1][3], empty_page()));
        // A decoded chunk is the pages it was encoded from.
        let bytes = crate::codec::EncodedChunk::encode(&img.chunks[1]);
        let again = crate::codec::decode_chunk(bytes.bytes()).unwrap();
        assert!(again.iter().zip(&img.chunks[1]).all(|(a, b)| a == b));
        let short = crate::codec::encode_page(&slots[..CHUNK_SLOTS - 1]);
        assert!(crate::codec::decode_chunk(&short).is_err());
    }

    #[test]
    fn a_write_after_a_fork_copies_one_page_and_one_directory() {
        let mut s = Store::new();
        for i in 0..4 * CHUNK_SLOTS {
            s.create(Object::atom(format!("cw{i}").as_str(), "x", i as i64))
                .unwrap();
        }
        let fork = s.fork();
        assert!(Arc::ptr_eq(&s.shards[0].dir, &fork.shards[0].dir));
        s.modify_atom(oid("cw300"), -1i64).unwrap();
        s.modify_atom(oid("cw301"), -1i64).unwrap();
        let (sd, fd) = (&s.shards[0].dir, &fork.shards[0].dir);
        assert!(!Arc::ptr_eq(sd, fd));
        let apart = sd
            .pages
            .iter()
            .zip(&fd.pages)
            .filter(|(a, b)| !Arc::ptr_eq(a, b));
        assert_eq!(apart.count(), 1);
        assert_eq!(fork.atom(oid("cw300")), Some(&Atom::Int(300)));
    }

    #[test]
    fn from_images_rejects_misplaced_and_duplicate_objects() {
        let cfg = StoreConfig::default().with_shards(4);
        let mut s = Store::with_config(cfg);
        churn(&mut s);
        let mut images = s.export_images();
        // Move one object's chunk into a different shard: every object
        // in it becomes misplaced (or duplicated) — recovery must
        // refuse rather than resurrect objects under the wrong home.
        let donor = images
            .iter()
            .position(|img| {
                img.chunks
                    .iter()
                    .flatten()
                    .any(|p| p.iter().any(|s| s.is_some()))
            })
            .unwrap();
        let chunk = images[donor].chunks[0].clone();
        let target = (donor + 1) % 4;
        images[target].chunks.insert(0, chunk);
        images[target].len_slots += CHUNK_SLOTS;
        assert!(Store::from_images(cfg, images, 0).is_err());
    }

    #[test]
    fn from_images_refuses_an_oid_held_in_two_pages() {
        let mut s = Store::new();
        for i in 0..PAGE_SIZE + 1 {
            s.create(Object::atom(format!("twopg{i}").as_str(), "x", i as i64))
                .unwrap();
        }
        let mut images = s.export_images();
        // The second page, whose one record is `twopg64`, becomes a copy
        // of the first, so every OID of the first sits in both.
        let first = Arc::clone(&images[0].chunks[0][0]);
        images[0].chunks[0][1] = first;
        images[0].len_slots = 2 * PAGE_SIZE;
        let err = Store::from_images(StoreConfig::default(), images, 0).unwrap_err();
        assert!(err.starts_with("duplicate OID twopg"), "{err}");
    }

    #[test]
    fn from_records_is_the_store_the_creates_leave() {
        let records: Vec<Object> = (0..2 * PAGE_SIZE + 3)
            .map(|i| {
                let kids = [
                    oid(&format!("rec{}", i + 1)),
                    oid(&format!("recgone{}", i % 5)),
                ];
                Object::set(format!("rec{i}").as_str(), "r", &kids)
            })
            .collect();
        let mut created = Store::new();
        for r in &records {
            created.create(r.clone()).unwrap();
        }
        let built = Store::from_records(records.clone(), created.version()).unwrap();
        assert_eq!(built.version(), created.version());
        let [b] = &built.export_images()[..] else {
            panic!("one shard")
        };
        let [c] = &created.export_images()[..] else {
            panic!("one shard")
        };
        assert_eq!((b.len_slots, &b.chunks), (c.len_slots, &c.chunks));
        built.check_invariants().unwrap();
        for r in &records {
            for &c in r.children() {
                let parents = |s: &Store| s.parents(c).iter().collect::<Vec<Oid>>();
                assert_eq!(parents(&built), parents(&created), "parents of {c}");
            }
        }
        let mut twice = records.clone();
        twice.push(records[7].clone());
        assert!(matches!(
            Store::from_records(twice, 0),
            Err(GsdbError::DuplicateOid(o)) if o == records[7].oid
        ));
    }
}
