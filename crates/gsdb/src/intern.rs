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

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

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
        // Safety: non-null chunk pointers are leaked boxes, never freed,
        // and `idx < len` guarantees the slot was initialized before
        // `len` was published.
        Some(unsafe { (*chunk)[(idx as usize) % CHUNK] })
    }

    /// Append under the writer mutex (callers hold `interner()`'s map
    /// lock, so appends never race each other).
    fn push(&self, s: &'static str) -> u64 {
        let idx = self.len.load(Ordering::Relaxed);
        let (ci, co) = ((idx as usize) / CHUNK, (idx as usize) % CHUNK);
        assert!(ci < CHUNKS, "interner capacity exhausted");
        let mut chunk = self.chunks[ci].load(Ordering::Acquire);
        if chunk.is_null() {
            chunk = Box::into_raw(Box::new([""; CHUNK]));
            self.chunks[ci].store(chunk, Ordering::Release);
        }
        // Safety: single writer (map mutex held); readers can't see the
        // slot until `len` moves past it.
        unsafe { (*chunk)[co] = s };
        self.len.store(idx + 1, Ordering::Release);
        idx
    }
}

/// Shard count for the string→symbol map. Interning existing names is
/// hot under parallel maintenance (every `Oid::new`); sharding keeps
/// threads working on different names off each other's locks.
const SHARDS: usize = 64;

struct Interner {
    /// String→symbol, sharded by a string hash. Read-mostly.
    shards: [RwLock<HashMap<&'static str, Symbol>>; SHARDS],
    /// Serializes appends to the resolve table (miss path only).
    append: Mutex<()>,
    table: ResolveTable,
    /// Delegate symbol → its (view, base) pair.
    delegate_parts: RwLock<HashMap<Symbol, (Symbol, Symbol)>>,
    /// (view, base) → delegate symbol: lets repeat delegate
    /// construction skip the format+intern entirely.
    delegate_pairs: RwLock<HashMap<(Symbol, Symbol), Symbol>>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        append: Mutex::new(()),
        table: ResolveTable {
            chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; CHUNKS],
            len: AtomicU64::new(0),
        },
        delegate_parts: RwLock::new(HashMap::new()),
        delegate_pairs: RwLock::new(HashMap::new()),
    })
}

/// FNV-1a over the bytes: its low bits pick the map shard, its high 32
/// bits become the symbol's [`name_hash`](Symbol::name_hash). The maps
/// use their own hasher.
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
    let h = fnv1a(s);
    let shard = &it.shards[(h as usize) % SHARDS];
    if let Some(&sym) = shard.read().expect("interner poisoned").get(s) {
        return sym;
    }
    // Miss: serialize appends, re-check under the shard write lock.
    let _append = it.append.lock().expect("interner poisoned");
    let mut g = shard.write().expect("interner poisoned");
    if let Some(&sym) = g.get(s) {
        return sym;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let sym = Symbol((it.table.push(leaked) << 32) | (h >> 32));
    g.insert(leaked, sym);
    sym
}

/// Intern the *semantic OID* of a delegate: the concatenation
/// `"<view>.<base>"` (paper §3.2), remembering the pair structurally.
pub fn intern_delegate(view: Symbol, base: Symbol) -> Symbol {
    let it = interner();
    if let Some(&sym) = it
        .delegate_pairs
        .read()
        .expect("delegate map poisoned")
        .get(&(view, base))
    {
        return sym;
    }
    let name = format!("{}.{}", resolve(view), resolve(base));
    let sym = intern(&name);
    it.delegate_parts
        .write()
        .expect("delegate map poisoned")
        .insert(sym, (view, base));
    it.delegate_pairs
        .write()
        .expect("delegate map poisoned")
        .insert((view, base), sym);
    sym
}

/// If `sym` was created by [`intern_delegate`], return its
/// `(view, base)` pair.
pub fn delegate_parts(sym: Symbol) -> Option<(Symbol, Symbol)> {
    interner()
        .delegate_parts
        .read()
        .expect("delegate map poisoned")
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
}
