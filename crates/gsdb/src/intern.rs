//! Global string interner backing [`Oid`](crate::Oid) and
//! [`Label`](crate::Label).
//!
//! The paper requires OIDs to be *universally unique identifiers* that can
//! travel between databases (a warehouse delegate references a source
//! object by its OID). A process-wide interner gives us cheap `Copy`
//! handles with O(1) equality/hashing while preserving the human-readable
//! names the paper uses in its examples (`ROOT`, `P1`, `MVJ.P1`, ...).
//!
//! Interned symbols are never freed; the set of distinct names in any
//! realistic workload is bounded by the number of objects created.
//!
//! A lookup hashes the name with a per-process key, picks one of 64
//! shards, and probes that shard's flat table, whose 16-byte entries
//! hold the symbol and, for a name of at most 8 bytes, the name itself:
//! a hit on a short name reads one cache line. Names are copied into
//! leaked blocks, one after the other.

use crate::FastMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, OnceLock, PoisonError, RwLock};

/// A handle to an interned string. Two symbols are equal iff their
/// underlying strings are equal.
///
/// The word is `index << 32 | hash`: the string's position in this
/// process's interning order, then 32 bits of its FNV-1a hash. The
/// index alone decides equality and order (one string, one index, one
/// hash); the hash is the part every process computes alike, which is
/// what anything that must agree across processes reads.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u64);

/// Hashes the index alone, which is all equality compares: an
/// in-process map keyed by symbols sees the dense run of small integers
/// interning hands out, and lays them out as it always has.
impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.index());
    }
}

impl Symbol {
    /// The position in this process's interning order.
    pub(crate) fn index(self) -> u64 {
        self.0 >> 32
    }

    /// 32 bits of the string's hash: the same in every process.
    pub(crate) fn name_hash(self) -> u32 {
        self.0 as u32
    }
}

/// Symbols per chunk of the lock-free resolve table.
const CHUNK: usize = 4096;
/// Maximum chunks: caps the interner at 16M distinct symbols.
const CHUNKS: usize = 4096;

/// The resolve side of the interner: an append-only chunked table that
/// readers traverse without any lock. A chunk pointer is published
/// (Release) only after the slot it covers has been written, and the
/// symbol itself is handed out only after its slot is filled, so an
/// Acquire load of the chunk pointer by a reader holding a valid
/// `Symbol` always observes the slot's string. `resolve` is on the hot
/// path of every name comparison and sort — under multi-threaded view
/// maintenance a lock here serializes the whole fan-out.
struct ResolveTable {
    chunks: [AtomicPtr<[&'static str; CHUNK]>; CHUNKS],
    len: AtomicU64,
}

impl ResolveTable {
    fn get(&self, idx: u64) -> Option<&'static str> {
        if idx >= self.len.load(Ordering::Acquire) {
            return None;
        }
        let chunk = self.chunks[(idx as usize) / CHUNK].load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: non-null chunk pointers are leaked boxes, never freed,
        // and `idx < len` guarantees the slot was initialized before
        // `len` was published.
        Some(unsafe { (*chunk)[(idx as usize) % CHUNK] })
    }

    /// Append under the writer mutex (callers hold `interner()`'s
    /// `append` lock, so appends never race each other).
    fn push(&self, s: &'static str) -> u64 {
        let idx = self.len.load(Ordering::Relaxed);
        let (ci, co) = ((idx as usize) / CHUNK, (idx as usize) % CHUNK);
        assert!(ci < CHUNKS, "interner capacity exhausted");
        let mut chunk = self.chunks[ci].load(Ordering::Acquire);
        if chunk.is_null() {
            // Built on the heap: a 64 KiB array built on the stack would
            // make every `intern`, this one's caller, probe 16 stack
            // pages on entry, hits included.
            let slots: Box<[&'static str; CHUNK]> = vec![""; CHUNK]
                .into_boxed_slice()
                .try_into()
                .expect("CHUNK slots");
            chunk = Box::into_raw(slots);
            self.chunks[ci].store(chunk, Ordering::Release);
        }
        // SAFETY: single writer (`append` mutex held); readers can't see the
        // slot until `len` moves past it.
        unsafe { (*chunk)[co] = s };
        self.len.store(idx + 1, Ordering::Release);
        idx
    }
}

/// Shards of the string→symbol map. Interning existing names is hot
/// under parallel maintenance (every `Oid::new`); sharding keeps
/// threads working on different names off each other's locks.
const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// Slots a shard's table starts with.
const FIRST_SLOTS: usize = 16;

/// An empty slot's symbol word: never a symbol, since the index stops
/// far below 2^32.
const VACANT: u64 = u64::MAX;

/// A slot's name word for a name that is not kept inline: eight `0xFF`
/// bytes, which are never UTF-8 and so never an inline name.
const LONG: u64 = u64::MAX;

/// One slot of a shard's table, 16 bytes: a hit reads this one cache
/// line and nothing else.
#[derive(Clone, Copy)]
struct Entry {
    /// The symbol's word, or [`VACANT`]. Its low 32 bits, the FNV-1a
    /// hash, are the fingerprint a long name is checked against before
    /// its bytes are.
    sym: u64,
    /// The name's bytes, zero-padded, when it is at most 8 bytes with
    /// no NUL; [`LONG`] otherwise, and the name is compared through
    /// [`resolve`].
    name: u64,
}

const EMPTY: Entry = Entry {
    sym: VACANT,
    name: LONG,
};

/// A name as the tables look it up.
struct Key<'a> {
    s: &'a str,
    /// [`Entry::name`] for `s`.
    name: u64,
    /// The fingerprint a [`LONG`] entry must carry to be `s`; unused
    /// for an inline name, whose `name` word is the whole name.
    fp: u32,
}

impl<'a> Key<'a> {
    fn new(s: &'a str) -> Self {
        let b = s.as_bytes();
        if b.len() > 8 || b.contains(&0) {
            return Key {
                s,
                name: LONG,
                fp: (fnv1a(s) >> 32) as u32,
            };
        }
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        Key {
            s,
            name: u64::from_le_bytes(w),
            fp: 0,
        }
    }
}

/// One shard's string→symbol map: open addressing with linear probing
/// over a power-of-two slot array, at most half full. Where a probe
/// starts comes from the caller's keyed hash, never from the name's
/// FNV-1a hash, whose collisions anyone can build.
struct ProbeTable {
    slots: Vec<Entry>,
    len: usize,
}

impl ProbeTable {
    fn new() -> Self {
        ProbeTable {
            slots: vec![EMPTY; FIRST_SLOTS],
            len: 0,
        }
    }

    fn find(&self, hash: u64, key: &Key<'_>) -> Option<Symbol> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let e = self.slots[i];
            if e.sym == VACANT {
                return None;
            }
            if e.name == key.name
                && (key.name != LONG || (e.sym as u32 == key.fp && resolve(Symbol(e.sym)) == key.s))
            {
                return Some(Symbol(e.sym));
            }
            i = (i + 1) & mask;
        }
    }

    /// Place `e`, which is not in the table, probing from `hash`;
    /// first doubles the slots, re-placing each entry at `rehash(e)`,
    /// if one more entry would fill more than half of them.
    fn insert(&mut self, hash: u64, e: Entry, rehash: impl Fn(Entry) -> u64) {
        if (self.len + 1) * 2 > self.slots.len() {
            let doubled = vec![EMPTY; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            for e in old.into_iter().filter(|e| e.sym != VACANT) {
                self.place(rehash(e), e);
            }
        }
        self.place(hash, e);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, e: Entry) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].sym != VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = e;
    }
}

/// Leaked blocks the names are copied into, one after the other.
const ARENA_BLOCK: usize = 64 << 10;
/// Longer names get an allocation of their own.
const ARENA_MAX: usize = 1 << 10;

/// Where interned names live: the unused tail of the current block.
struct Arena {
    free: &'static mut [u8],
}

impl Arena {
    fn alloc(&mut self, s: &str) -> &'static str {
        if s.len() > ARENA_MAX {
            return Box::leak(s.into());
        }
        if self.free.len() < s.len() {
            self.free = Box::leak(vec![0; ARENA_BLOCK].into_boxed_slice());
        }
        let (head, rest) = std::mem::take(&mut self.free).split_at_mut(s.len());
        self.free = rest;
        head.copy_from_slice(s.as_bytes());
        let head: &'static [u8] = head;
        std::str::from_utf8(head).expect("copied from a str")
    }
}

struct Interner {
    /// The per-process key of the probe hash.
    keys: RandomState,
    /// String→symbol, sharded by the probe hash's top bits. Read-mostly.
    shards: [RwLock<ProbeTable>; SHARDS],
    /// Serializes appends to the resolve table and the arena (miss
    /// path only).
    append: Mutex<Arena>,
    table: ResolveTable,
    /// Both directions of every delegate, under one lock.
    delegates: RwLock<Delegates>,
}

/// The delegates [`intern_delegate`] made.
#[derive(Default)]
struct Delegates {
    /// Delegate symbol → its (view, base) pair.
    parts: FastMap<Symbol, (Symbol, Symbol)>,
    /// (view, base) → delegate symbol: lets repeat delegate
    /// construction skip the format+intern entirely.
    pairs: FastMap<(Symbol, Symbol), Symbol>,
}

impl Interner {
    /// The keyed hash a name's probe starts from: over the inline word
    /// when there is one, else over the bytes.
    fn probe_hash(&self, s: &str, name: u64) -> u64 {
        if name == LONG {
            self.keys.hash_one(s)
        } else {
            self.keys.hash_one(name)
        }
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        keys: RandomState::new(),
        shards: std::array::from_fn(|_| RwLock::new(ProbeTable::new())),
        append: Mutex::new(Arena { free: &mut [] }),
        table: ResolveTable {
            chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; CHUNKS],
            len: AtomicU64::new(0),
        },
        delegates: RwLock::default(),
    })
}

/// A guard of the delegate maps' lock, recovered if a panic poisoned
/// it. The maps are whole even then: each entry is final when it goes
/// in, and their one writer, [`intern_delegate`], puts `parts` in
/// before `pairs`, so a panic between leaves a `pairs` miss at worst.
fn delegates<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a over the bytes: its high 32 bits become the symbol's
/// [`name_hash`](Symbol::name_hash). The tables use their own keyed
/// hash.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Intern `s`, returning its symbol. Idempotent.
pub fn intern(s: &str) -> Symbol {
    let it = interner();
    let key = Key::new(s);
    let hash = it.probe_hash(s, key.name);
    let shard = &it.shards[(hash >> (64 - SHARD_BITS)) as usize];
    if let Some(sym) = shard.read().expect("interner poisoned").find(hash, &key) {
        return sym;
    }
    // Miss: serialize appends, re-check under the shard write lock.
    let mut arena = it.append.lock().expect("interner poisoned");
    let mut g = shard.write().expect("interner poisoned");
    if let Some(sym) = g.find(hash, &key) {
        return sym;
    }
    let sym = Symbol((it.table.push(arena.alloc(s)) << 32) | (fnv1a(s) >> 32));
    let rehash = |e: Entry| it.probe_hash(resolve(Symbol(e.sym)), e.name);
    g.insert(
        hash,
        Entry {
            sym: sym.0,
            name: key.name,
        },
        rehash,
    );
    sym
}

/// Intern every name of `names`: what [`intern`] gives for each, in
/// order. The names are grouped by shard and each shard's read lock is
/// taken once for its group; a name the group's lookup misses goes
/// through [`intern`].
pub(crate) fn intern_all(names: &[&str]) -> Vec<Symbol> {
    let it = interner();
    let keys: Vec<(Key<'_>, u64)> = (names.iter())
        .map(|s| {
            let key = Key::new(s);
            let hash = it.probe_hash(s, key.name);
            (key, hash)
        })
        .collect();
    let shard_of = |hash: u64| (hash >> (64 - SHARD_BITS)) as usize;
    // A counting sort of the positions by shard: shard `s`'s group is
    // `order[starts[s]..starts[s + 1]]`.
    let mut starts = [0usize; SHARDS + 1];
    for (_, hash) in &keys {
        starts[shard_of(*hash) + 1] += 1;
    }
    for s in 0..SHARDS {
        starts[s + 1] += starts[s];
    }
    let mut next = starts;
    let mut order = vec![0usize; keys.len()];
    for (i, (_, hash)) in keys.iter().enumerate() {
        let at = &mut next[shard_of(*hash)];
        order[*at] = i;
        *at += 1;
    }
    let mut out = vec![Symbol(VACANT); keys.len()];
    for (s, shard) in it.shards.iter().enumerate() {
        let group = &order[starts[s]..starts[s + 1]];
        if group.is_empty() {
            continue;
        }
        // A poisoned shard is left to `intern`, which reports it.
        if let Ok(table) = shard.read() {
            for &i in group {
                let (key, hash) = &keys[i];
                if let Some(sym) = table.find(*hash, key) {
                    out[i] = sym;
                }
            }
        }
    }
    for (sym, s) in out.iter_mut().zip(names) {
        if sym.0 == VACANT {
            *sym = intern(s);
        }
    }
    out
}

/// Intern the *semantic OID* of a delegate: the concatenation
/// `"<view>.<base>"` (paper §3.2), remembering the pair structurally.
pub fn intern_delegate(view: Symbol, base: Symbol) -> Symbol {
    let lock = &interner().delegates;
    if let Some(&sym) = delegates(lock.read()).pairs.get(&(view, base)) {
        return sym;
    }
    let sym = intern(&format!("{}.{}", resolve(view), resolve(base)));
    let mut maps = delegates(lock.write());
    maps.parts.insert(sym, (view, base));
    maps.pairs.insert((view, base), sym);
    sym
}

/// If `sym` was created by [`intern_delegate`], return its
/// `(view, base)` pair.
pub fn delegate_parts(sym: Symbol) -> Option<(Symbol, Symbol)> {
    delegates(interner().delegates.read())
        .parts
        .get(&sym)
        .copied()
}

/// Resolve a symbol back to its string. Lock-free: reads the
/// append-only chunk table directly, so concurrent maintenance threads
/// sorting by name never contend.
pub fn resolve(sym: Symbol) -> &'static str {
    interner()
        .table
        .get(sym.index())
        .expect("symbol from a different interner generation")
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({}:{})", self.index(), resolve(*self))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(resolve(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let a = intern("hello");
        let b = intern("hello");
        assert_eq!(a, b);
        assert_eq!(resolve(a), "hello");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(intern("x1"), intern("x2"));
    }

    #[test]
    fn delegate_symbols_are_splittable() {
        let v = intern("MVJ");
        let b = intern("P1");
        let d = intern_delegate(v, b);
        assert_eq!(resolve(d), "MVJ.P1");
        assert_eq!(delegate_parts(d), Some((v, b)));
        assert_eq!(delegate_parts(b), None);
    }

    #[test]
    fn nested_delegates_split_one_level() {
        let v1 = intern("V1");
        let v2 = intern("V2");
        let b = intern("B");
        let d1 = intern_delegate(v1, b);
        let d2 = intern_delegate(v2, d1);
        assert_eq!(resolve(d2), "V2.V1.B");
        assert_eq!(delegate_parts(d2), Some((v2, d1)));
        assert_eq!(delegate_parts(d1), Some((v1, b)));
    }

    #[test]
    fn empty_string_interns() {
        let e = intern("");
        assert_eq!(resolve(e), "");
    }

    /// FNV-1a's high 32 bits, written out apart from the interner's.
    fn fnv_high(s: &str) -> u32 {
        let h = s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
        });
        (h >> 32) as u32
    }

    /// Names around the inline edge: the empty name, NULs, 7, 8 and 9
    /// bytes, multi-byte UTF-8 and names over 1 KiB.
    fn name() -> impl Strategy<Value = String> {
        let from = |alphabet: &'static [char], lens: std::ops::Range<usize>| {
            prop::collection::vec(0..alphabet.len(), lens)
                .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i]).collect::<String>())
        };
        prop_oneof![
            Just(String::new()),
            from(&['\0', 'a'], 1..10),
            from(&['a', 'b'], 7..10),
            from(&['é', '中', '🦀', 'x'], 1..6),
            from(&['a', 'b', '\0'], 1020..1100),
        ]
    }

    proptest! {
        #[test]
        fn names_round_trip_and_stay_distinct(names in prop::collection::vec(name(), 1..24)) {
            let syms: Vec<Symbol> = names.iter().map(|s| intern(s)).collect();
            for (s, &sym) in names.iter().zip(&syms) {
                prop_assert_eq!(resolve(sym), s.as_str());
                prop_assert_eq!(intern(s), sym);
                prop_assert_eq!(sym.name_hash(), fnv_high(s));
            }
            let strs: Vec<&str> = names.iter().map(String::as_str).collect();
            prop_assert_eq!(intern_all(&strs), syms.clone());
            for (a, &x) in names.iter().zip(&syms) {
                for (b, &y) in names.iter().zip(&syms) {
                    prop_assert_eq!(a == b, x == y);
                }
            }
        }
    }

    #[test]
    fn a_batch_interns_new_and_repeated_names_as_intern_does() {
        let names = [
            "batch-new-1",
            "batch-new-1",
            "bn\0x",
            "",
            "batch-new-2",
            "bn\0x",
        ];
        let batch = intern_all(&names);
        for (s, sym) in names.iter().zip(&batch) {
            assert_eq!(intern(s), *sym, "{s:?}");
        }
        assert_eq!(batch[0], batch[1]);
        assert_eq!(batch[2], batch[5]);
        assert!(intern_all(&[]).is_empty());
    }

    #[test]
    fn names_at_one_probe_hash_are_told_apart() {
        for names in [
            ["c1", "c2", "c3"],
            ["collide-long-1", "collide-long-2", "collide-long-3"],
        ] {
            let mut t = ProbeTable::new();
            let h = 5;
            let no_growth = |_: Entry| unreachable!("two entries fit");
            for s in &names[..2] {
                let key = Key::new(s);
                t.insert(
                    h,
                    Entry {
                        sym: intern(s).0,
                        name: key.name,
                    },
                    no_growth,
                );
            }
            for s in &names[..2] {
                assert_eq!(t.find(h, &Key::new(s)), Some(intern(s)));
            }
            assert_eq!(t.find(h, &Key::new(names[2])), None);
        }
        // A long name whose fingerprint matches another's is still told
        // apart by its bytes.
        let mut t = ProbeTable::new();
        let a = intern("fingerprint-a");
        t.insert(
            7,
            Entry {
                sym: a.0,
                name: LONG,
            },
            |_| unreachable!(),
        );
        let twin = Key {
            s: "fingerprint-b",
            name: LONG,
            fp: a.name_hash(),
        };
        assert_eq!(t.find(7, &twin), None);
        assert_eq!(t.find(7, &Key::new("fingerprint-a")), Some(a));
    }

    #[test]
    fn growth_keeps_every_symbol() {
        let names: Vec<String> = (0..100_000).map(|i| format!("grow{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|s| intern(s)).collect();
        for (s, &sym) in names.iter().zip(&syms) {
            assert_eq!(intern(s), sym);
            assert_eq!(resolve(sym), s);
        }
    }

    #[test]
    fn threads_agree_on_every_symbol() {
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let per_thread: Vec<Vec<(String, Symbol)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        // Overlapping windows of one name list, walked in
                        // opposite directions by odd and even threads.
                        let mut names: Vec<String> = (t * 500..t * 500 + 2_000)
                            .map(|i| format!("race{i}"))
                            .collect();
                        if t % 2 == 1 {
                            names.reverse();
                        }
                        barrier.wait();
                        names
                            .into_iter()
                            .map(|s| {
                                let sym = intern(&s);
                                (s, sym)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen: std::collections::HashMap<String, Symbol> = Default::default();
        for (s, sym) in per_thread.into_iter().flatten() {
            assert_eq!(*seen.entry(s.clone()).or_insert(sym), sym, "{s}");
            assert_eq!(resolve(sym), s);
        }
        let distinct: std::collections::HashSet<Symbol> = seen.values().copied().collect();
        assert_eq!(distinct.len(), seen.len());
    }
}
