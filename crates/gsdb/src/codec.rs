//! Byte codec for durable chunk serialization.
//!
//! [`Oid`]s and [`Label`]s are interned symbols — their numeric ids
//! are stable only within one process — so anything that outlives the
//! process must be written **by name**. This module encodes runs of
//! slab slots — a durable [`Chunk`] is four copy-on-write pages of
//! [`Store`](crate::Store), 256 slots — into a compact, self-delimiting
//! byte form the durability layer content-addresses: equal chunk bytes
//! ⇔ equal slots, across processes.
//!
//! The format is deliberately boring: LEB128 varints, zig-zag signed
//! integers, length-prefixed UTF-8 strings, one tag byte per enum.
//! `None` slots are encoded explicitly so a decoded page reproduces
//! the slot layout — and therefore the slot ids — of the page it was
//! encoded from; recovery must not compact or reassign slots, or
//! structural sharing against later epochs breaks.
//!
//! Integrity (CRC framing, content hashes) is the job of the layers
//! that frame these bytes, not the codec's; storage and the wire share
//! [`crc32`] from here (carry-less multiply on x86_64 CPUs that have
//! it, slicing-by-8 tables elsewhere). The decoder detects
//! *structural* corruption (truncated input, unknown tags, invalid
//! UTF-8) and reports it as a [`CodecError`], which the recovery path
//! treats like a failed checksum.

use crate::store::CHUNK_SLOTS;
use crate::{Atom, Chunk, Label, Object, Oid, Value};
use std::fmt;
use std::sync::Arc;

/// A structural decode failure: truncated input, an unknown tag, a
/// malformed string. The durability layer treats this exactly like a
/// checksum mismatch — the frame is corrupt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables, built at
/// compile time: `CRC_TABLES[0]` is the classic byte-at-a-time table,
/// `CRC_TABLES[k][b]` the checksum of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the state with eight
/// independent lookups instead of eight dependent ones. They checksum
/// short inputs, the tail the carry-less kernel ([`clmul`]) leaves,
/// and everything on a CPU without one.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continue a CRC-32: `crc32_update(crc32(a), b)` is the checksum of
/// `a` followed by `b`. Chained frames (the durable epoch log) seed
/// each frame's checksum with its predecessor's.
///
/// On x86_64 CPUs with carry-less multiply (detected at run time), an
/// input of at least 128 bytes is folded 64 bytes at a time with
/// PCLMULQDQ up to its last multiple of 16 bytes; the rest, shorter
/// inputs and other machines take the slicing-by-8 tables. Both give
/// the same checksum.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((crc, tail)) = clmul::fold(crc, bytes) {
        return crc32_table(crc, tail);
    }
    crc32_table(crc, bytes)
}

/// [`crc32_update`] on the slicing-by-8 tables alone.
fn crc32_table(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 by carry-less multiplication: the folding method of Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009), with the bit-reflected constants of its
/// appendix for the IEEE polynomial.
///
/// Four 128-bit accumulators each fold the one 64 bytes ahead into
/// themselves (`x·k1` of the low half, `x·k2` of the high, both
/// multiplied 512 bits forward); the four then fold into one with
/// `k3`/`k4` (128 bits forward), as does every further 16-byte block;
/// `k5` folds the 128 bits to 64, and a Barrett reduction (`P'`, `µ`)
/// leaves the 32-bit remainder.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes. It needs 64 bytes for its four
    /// accumulators; below this the tables take well under 0.1 µs.
    const MIN_LEN: usize = 128;

    /// `crc` continued over the longest multiple-of-16 prefix of
    /// `bytes`, and the rest — or `None` when `bytes` is shorter than
    /// [`MIN_LEN`] or the CPU has no carry-less multiply.
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        if bytes.len() < MIN_LEN || !std::is_x86_feature_detected!("pclmulqdq") {
            return None;
        }
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `fold_blocks` is compiled for PCLMULQDQ, which the
        // CPU was just detected to have (SSE2 is part of the x86_64
        // baseline). `blocks` meets its length condition, which is not
        // a safety one: 128 bytes or more, in whole 16-byte blocks.
        let crc = unsafe { !fold_blocks(!crc, blocks) };
        Some((crc, tail))
    }

    /// One 16-byte block as a vector, little-endian.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(b: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(b[..8].try_into().expect("a 16-byte block"));
        let hi = i64::from_le_bytes(b[8..16].try_into().expect("a 16-byte block"));
        _mm_set_epi64x(hi, lo)
    }

    /// `x` carried 128 (`k` = k3k4) or 512 (`k` = k1k2) bits forward,
    /// plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The CRC register (pre-inverted, as the table loop keeps it)
    /// after `blocks`, whose length must be a multiple of 16 and at
    /// least 64 (a shorter input panics; a ragged end is ignored).
    #[target_feature(enable = "pclmulqdq")]
    fn fold_blocks(state: u32, blocks: &[u8]) -> u32 {
        let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
        let poly = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);

        let (first, rest) = blocks.split_at(64);
        let mut x = [0, 16, 32, 48].map(|at| load(&first[at..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let mut quads = rest.chunks_exact(64);
        for q in &mut quads {
            for (i, acc) in x.iter_mut().enumerate() {
                *acc = fold_into(*acc, k1k2, load(&q[16 * i..]));
            }
        }
        let mut acc = fold_into(x[0], k3k4, x[1]);
        acc = fold_into(acc, k3k4, x[2]);
        acc = fold_into(acc, k3k4, x[3]);
        for b in quads.remainder().chunks_exact(16) {
            acc = fold_into(acc, k3k4, load(b));
        }

        // 128 bits to 64: the low half times k4, onto the high half …
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        // … then its low 32 bits times k5, onto the rest.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction to the 32-bit remainder.
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t))) as u32
    }
}

// ----------------------------------------------------------------------
// Framing
// ----------------------------------------------------------------------

/// Bytes before a frame's payload: tag, payload length, checksum.
///
/// ```text
/// +-----+----------------+----------------------+=================+
/// | tag | payload length | crc32(seed, payload) |     payload     |
/// | 1 B | u32 LE         | u32 LE               | length bytes    |
/// +-----+----------------+----------------------+=================+
/// ```
///
/// The one frame layout of the system: the serving tier's wire frames
/// (seed 0) and the durable epoch log's chunk and manifest frames
/// (seed = the previous frame's checksum) are both written by
/// [`begin_frame`]/[`end_frame`] and read through [`frame_head`].
pub const FRAME_HEADER_LEN: usize = 9;

/// Start a frame at the end of `out`: the tag byte, then room for the
/// length and checksum [`end_frame`] fills in. Returns the frame's
/// start; everything appended before `end_frame` is its payload.
pub fn begin_frame(out: &mut Vec<u8>, tag: u8) -> usize {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&[0; FRAME_HEADER_LEN - 1]);
    start
}

/// Close the frame begun at `start`, checksumming its payload as a
/// continuation of `seed` (0 for a frame that stands alone). Returns
/// the checksum written.
pub fn end_frame(out: &mut [u8], start: usize, seed: u32) -> u32 {
    let body = start + FRAME_HEADER_LEN;
    let len = u32::try_from(out.len() - body).expect("frame payload under 4 GiB");
    let crc = crc32_update(seed, &out[body..]);
    out[start + 1..start + 5].copy_from_slice(&len.to_le_bytes());
    out[start + 5..body].copy_from_slice(&crc.to_le_bytes());
    crc
}

/// The fixed-size head of a frame, as [`frame_head`] reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHead {
    /// The tag byte.
    pub tag: u8,
    /// Declared payload length — unchecked; bound it before reading
    /// or allocating that much.
    pub len: usize,
    /// The checksum the payload must match.
    pub crc: u32,
}

/// Read the head of the frame at the front of `buf`; `None` until
/// [`FRAME_HEADER_LEN`] bytes are there.
pub fn frame_head(buf: &[u8]) -> Option<FrameHead> {
    let head = buf.get(..FRAME_HEADER_LEN)?;
    Some(FrameHead {
        tag: head[0],
        len: u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize,
        crc: u32::from_le_bytes(head[5..9].try_into().expect("4 bytes")),
    })
}

// ----------------------------------------------------------------------
// Primitives
// ----------------------------------------------------------------------

/// Append a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zig-zag-encoded signed varint.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over encoded bytes; every read is bounds-checked.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one byte.
    pub fn byte(&mut self) -> Result<u8, CodecError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => err("unexpected end of input"),
        }
    }

    /// Read a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return err("varint overflow");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zig-zag-encoded signed varint.
    pub fn zigzag(&mut self) -> Result<i64, CodecError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err("unexpected end of input");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read `N` raw bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        match self.buf[self.pos..].split_first_chunk::<N>() {
            Some((head, _)) => {
                self.pos += N;
                Ok(*head)
            }
            None => err("unexpected end of input"),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.varint()? as usize;
        match std::str::from_utf8(self.bytes(n)?) {
            Ok(s) => Ok(s),
            Err(_) => err("invalid UTF-8 in string"),
        }
    }
}

// ----------------------------------------------------------------------
// Model types
// ----------------------------------------------------------------------

const ATOM_INT: u8 = 0;
const ATOM_REAL: u8 = 1;
const ATOM_STR: u8 = 2;
const ATOM_BOOL: u8 = 3;
const ATOM_TAGGED: u8 = 4;

const VALUE_ATOM: u8 = 0;
const VALUE_SET: u8 = 1;

const SLOT_FREE: u8 = 0;
const SLOT_LIVE: u8 = 1;

/// Encode one atom (tag byte + payload). Public for wire codecs
/// (the serving tier's protocol frames carry atoms inside update
/// reports) — the encoding is the same one the durable page format
/// uses, so cross-process decode re-interns by name.
pub fn put_atom(out: &mut Vec<u8>, a: &Atom) {
    match a {
        Atom::Int(v) => {
            out.push(ATOM_INT);
            put_zigzag(out, *v);
        }
        Atom::Real(v) => {
            out.push(ATOM_REAL);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Atom::Str(s) => {
            out.push(ATOM_STR);
            put_str(out, s);
        }
        Atom::Bool(v) => {
            out.push(ATOM_BOOL);
            out.push(u8::from(*v));
        }
        Atom::Tagged(unit, magnitude) => {
            out.push(ATOM_TAGGED);
            put_str(out, unit.as_str());
            put_zigzag(out, *magnitude);
        }
    }
}

/// Decode one atom written by [`put_atom`].
pub fn get_atom(r: &mut Reader<'_>) -> Result<Atom, CodecError> {
    Ok(match r.byte()? {
        ATOM_INT => Atom::Int(r.zigzag()?),
        ATOM_REAL => Atom::Real(f64::from_le_bytes(r.array()?)),
        ATOM_STR => Atom::Str(Arc::from(r.str()?)),
        ATOM_BOOL => Atom::Bool(r.byte()? != 0),
        ATOM_TAGGED => {
            let unit = Label::new(r.str()?);
            Atom::Tagged(unit, r.zigzag()?)
        }
        t => return err(format!("unknown atom tag {t}")),
    })
}

/// Encode one object (OID, label, and value, all by name).
pub fn put_object(out: &mut Vec<u8>, obj: &Object) {
    put_str(out, obj.oid.name());
    put_str(out, obj.label.as_str());
    match &obj.value {
        Value::Atom(a) => {
            out.push(VALUE_ATOM);
            put_atom(out, a);
        }
        Value::Set(s) => {
            out.push(VALUE_SET);
            put_varint(out, s.len() as u64);
            for child in s.iter() {
                put_str(out, child.name());
            }
        }
    }
}

/// Decode one object, re-interning its names.
pub fn get_object(r: &mut Reader<'_>) -> Result<Object, CodecError> {
    let mut names = Vec::new();
    let shape = get_shape(r, &mut names, Label::new)?;
    let oids: Vec<Oid> = names.iter().map(|name| Oid::new(name)).collect();
    Ok(shape.build(&oids, &mut 0))
}

/// An object read up to its OIDs, whose names wait in a batch: its
/// label, and its atom or the number of member names its set holds.
enum Shape {
    Atom(Label, Atom),
    Set(Label, usize),
}

impl Shape {
    /// The object, its OID `oids[*at]` and its members the OIDs after
    /// it, in the order [`get_shape`] queued their names; moves `at`
    /// past them.
    fn build(self, oids: &[Oid], at: &mut usize) -> Object {
        let oid = oids[*at];
        *at += 1;
        let (label, value) = match self {
            Shape::Atom(label, atom) => (label, Value::Atom(atom)),
            Shape::Set(label, n) => {
                *at += n;
                (label, Value::set_of(oids[*at - n..*at].iter().copied()))
            }
        };
        Object { oid, label, value }
    }
}

/// Read one object written by [`put_object`] up to its OIDs: its OID's
/// name and then its members' are queued on `names`, and its label is
/// interned through `label`.
fn get_shape<'a>(
    r: &mut Reader<'a>,
    names: &mut Vec<&'a str>,
    mut label: impl FnMut(&'a str) -> Label,
) -> Result<Shape, CodecError> {
    names.push(r.str()?);
    let label = label(r.str()?);
    Ok(match r.byte()? {
        VALUE_ATOM => Shape::Atom(label, get_atom(r)?),
        VALUE_SET => {
            let n = r.varint()?;
            // Each name takes at least its length byte, so a count the
            // input cannot hold fails here, before `n` names are read.
            for _ in 0..n {
                names.push(r.str()?);
            }
            Shape::Set(label, n as usize)
        }
        t => return err(format!("unknown value tag {t}")),
    })
}

fn put_slot(out: &mut Vec<u8>, slot: &Option<Object>) {
    match slot {
        None => out.push(SLOT_FREE),
        Some(obj) => {
            out.push(SLOT_LIVE);
            put_object(out, obj);
        }
    }
}

/// Encode one slab page: slot count, then each slot as free or live.
/// Free slots are written explicitly so the decoded page reproduces
/// the original slot layout byte-for-byte.
pub fn encode_page(slots: &[Option<Object>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + slots.len() * 8);
    put_varint(&mut out, slots.len() as u64);
    for slot in slots {
        put_slot(&mut out, slot);
    }
    out
}

/// True iff two slots are certain to encode to the same bytes, decided
/// without resolving a name: same OID, same label, and a value equal
/// *as encoded* — reals by bit pattern (`-0.0` is not `0.0`, a NaN is
/// itself) and sets member by member in storage order (a remove and
/// re-insert that permutes the members is a different encoding of an
/// equal set).
fn same_encoding(a: &Option<Object>, b: &Option<Object>) -> bool {
    let (a, b) = match (a, b) {
        (None, None) => return true,
        (Some(a), Some(b)) => (a, b),
        _ => return false,
    };
    a.oid == b.oid
        && a.label == b.label
        && match (&a.value, &b.value) {
            (Value::Atom(Atom::Real(x)), Value::Atom(Atom::Real(y))) => x.to_bits() == y.to_bits(),
            (Value::Atom(x), Value::Atom(y)) => x == y,
            (Value::Set(x), Value::Set(y)) => x.as_slice() == y.as_slice(),
            _ => false,
        }
}

/// An encoded durable [`Chunk`] — its four store pages, written as one
/// [`encode_page`] of their slots — that remembers where each slot's
/// bytes start, so the chunk's next version is encoded by copying what
/// did not change: a page the next version still shares by pointer is
/// one range copy, and in a page that was written only the slots that
/// changed resolve interned names. [`bytes`](Self::bytes) is always
/// exactly what [`encode_page`] returns for the same slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedChunk {
    bytes: Vec<u8>,
    /// Start of each slot in `bytes`, plus `bytes.len()` at the end.
    offsets: Vec<u32>,
}

impl EncodedChunk {
    /// Encode `chunk` from scratch.
    pub fn encode(chunk: &Chunk) -> EncodedChunk {
        Self::encode_from(None, chunk)
    }

    /// Encode `chunk`, the successor of the chunk `self` encodes: a
    /// page pointer-equal to the one `old` held at its position is
    /// copied from `self` whole; in any other page, a slot that
    /// encodes the same (`same_encoding`) as the slot the old page held
    /// at its position is copied, the rest are encoded. `old` must be
    /// the chunk `self` was encoded from.
    pub fn reencode(&self, old: &Chunk, chunk: &Chunk) -> EncodedChunk {
        Self::encode_from(Some((self, old)), chunk)
    }

    fn encode_from(prev: Option<(&EncodedChunk, &Chunk)>, chunk: &Chunk) -> EncodedChunk {
        let mut bytes =
            Vec::with_capacity(prev.map_or(16 + CHUNK_SLOTS * 8, |(p, _)| p.bytes.len() + 64));
        let mut offsets = Vec::with_capacity(CHUNK_SLOTS + 1);
        put_varint(&mut bytes, CHUNK_SLOTS as u64);
        for (p, page) in chunk.iter().enumerate() {
            let first = p * page.len();
            match prev {
                Some((e, old)) if Arc::ptr_eq(&old[p], page) => {
                    let run = &e.offsets[first..=first + page.len()];
                    let base = bytes.len() as u32;
                    offsets.extend(run[..page.len()].iter().map(|&o| o - run[0] + base));
                    bytes.extend_from_slice(&e.bytes[run[0] as usize..run[page.len()] as usize]);
                }
                _ => {
                    for (k, slot) in page.iter().enumerate() {
                        offsets.push(bytes.len() as u32);
                        match prev {
                            Some((e, old)) if same_encoding(&old[p][k], slot) => {
                                let at = first + k;
                                bytes.extend_from_slice(
                                    &e.bytes[e.offsets[at] as usize..e.offsets[at + 1] as usize],
                                );
                            }
                            _ => put_slot(&mut bytes, slot),
                        }
                    }
                }
            }
        }
        offsets.push(bytes.len() as u32);
        EncodedChunk { bytes, offsets }
    }

    /// The chunk bytes — what the durable layer hashes and stores.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Decode one durable chunk into the store pages it holds: four of
/// them, 256 slots. Fails on anything [`decode_page`] refuses and on a
/// chunk of any other slot count.
pub fn decode_chunk(bytes: &[u8]) -> Result<Chunk, CodecError> {
    let page = ParsedPage::parse(bytes)?;
    let n = page.slots.len();
    if n != CHUNK_SLOTS {
        return err(format!("chunk of {n} slots, not {CHUNK_SLOTS}"));
    }
    let mut slots = page.objects();
    // Exactly `CHUNK_SLOTS` slots, counted above, fill the four pages.
    Ok(std::array::from_fn(|_| {
        Arc::new(std::array::from_fn(|_| slots.next().flatten()))
    }))
}

/// Decode one slab page. Fails on trailing garbage — a chunk holds
/// exactly one page.
pub fn decode_page(bytes: &[u8]) -> Result<Vec<Option<Object>>, CodecError> {
    Ok(ParsedPage::parse(bytes)?.objects().collect())
}

/// Labels a page parse remembers.
const LABEL_MEMO: usize = 8;

/// A page read and checked up to its OIDs: each slot's [`Shape`], and
/// every OID name in slot order, to be interned as one batch.
struct ParsedPage<'a> {
    slots: Vec<Option<Shape>>,
    names: Vec<&'a str>,
}

impl<'a> ParsedPage<'a> {
    /// Read a page with every check a decode makes.
    fn parse(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let n = r.varint()?;
        // Every slot takes at least its tag byte: a count the bytes
        // left cannot hold is refused before anything is reserved.
        if n > r.remaining() as u64 {
            return err(format!("page of {} bytes claims {n} slots", bytes.len()));
        }
        let n = n as usize;
        // A page repeats a few labels: remember them before the interner.
        let mut labels: Vec<(&str, Label)> = Vec::with_capacity(LABEL_MEMO);
        let mut label = |name: &'a str| match labels.iter().find(|(n, _)| *n == name) {
            Some(&(_, l)) => l,
            None => {
                let l = Label::new(name);
                if labels.len() < LABEL_MEMO {
                    labels.push((name, l));
                }
                l
            }
        };
        let mut slots = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(match r.byte()? {
                SLOT_FREE => None,
                SLOT_LIVE => Some(get_shape(&mut r, &mut names, &mut label)?),
                t => return err(format!("unknown slot tag {t}")),
            });
        }
        if r.remaining() != 0 {
            return err("trailing bytes after page");
        }
        Ok(ParsedPage { slots, names })
    }

    /// The page's slots, its names interned as one batch.
    fn objects(self) -> impl Iterator<Item = Option<Object>> {
        let oids = Oid::new_all(&self.names);
        let mut at = 0;
        (self.slots.into_iter()).map(move |slot| slot.map(|shape| shape.build(&oids, &mut at)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(obj: Object) {
        let mut buf = Vec::new();
        put_object(&mut buf, &obj);
        let back = get_object(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    /// The byte-at-a-time CRC-32 the slicing-by-8 one replaced,
    /// continued from `crc` as [`crc32_update`] continues.
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Every length up to 1 KiB — each split the kernel's 128-byte
    /// threshold, its 64-byte rounds and its 16-byte tail can make — at
    /// each offset within a 16-byte block, continued from a random
    /// checksum.
    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0xC4C);
        let buf: Vec<u8> = (0..1024 + 16).map(|_| rng.gen::<u8>()).collect();
        for align in 0..16 {
            for len in 0..=1024 {
                let s = &buf[align..align + len];
                let seed = rng.gen::<u32>();
                let want = crc32_bytewise(seed, s);
                assert_eq!(crc32_update(seed, s), want, "align {align} len {len}");
                // Called directly, so the tables stay under test on a
                // CPU that takes the kernel.
                assert_eq!(
                    crc32_table(seed, s),
                    want,
                    "tables: align {align} len {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn crc32_equals_the_bytewise_reference_on_long_inputs(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let len = 65 + rng.gen_range(0..20_000usize);
            let buf: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
            let want = crc32_bytewise(0, &buf);
            prop_assert_eq!(crc32(&buf), want);
            prop_assert_eq!(crc32_table(0, &buf), want);
            // A continued checksum is the checksum of the concatenation.
            let cut = rng.gen_range(0..len);
            prop_assert_eq!(crc32_update(crc32(&buf[..cut]), &buf[cut..]), crc32(&buf));
        }

        /// Incremental encoding ≡ `encode_page` of the chunk's 256 slots,
        /// byte for byte, along a random edit sequence on the four
        /// 64-slot pages of one chunk: a page an epoch did not write
        /// keeps its pointer and is copied whole, a written one slot by
        /// slot.
        #[test]
        fn reencode_equals_encode_page_along_random_edits(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let salt = seed % 1000;
            let name = |i: usize| format!("enc{salt}.{i}");
            let atom = |rng: &mut StdRng| -> Atom {
                match rng.gen_range(0..7usize) {
                    0 => Atom::Int(rng.gen::<i64>() >> rng.gen_range(0..64usize)),
                    1 => Atom::Real(0.0),
                    2 => Atom::Real(-0.0),
                    3 => Atom::Real(f64::NAN),
                    4 => Atom::str(&name(rng.gen_range(0..9usize))),
                    5 => Atom::Bool(rng.gen()),
                    _ => Atom::tagged("dollar", rng.gen_range(0..5i64)),
                }
            };
            let object = |rng: &mut StdRng, oid: usize| -> Object {
                let label = ["x", "y", "member"][rng.gen_range(0..3usize)];
                if rng.gen_range(0..3usize) == 0 {
                    let kids: Vec<Oid> =
                        (0..rng.gen_range(0..6usize)).map(|i| Oid::new(name(100 + i).as_str())).collect();
                    Object::set(name(oid).as_str(), label, &kids)
                } else {
                    Object::atom(name(oid).as_str(), label, atom(rng))
                }
            };
            // Live slots up to a random high-water mark, as in a shard's
            // last chunk.
            let live_to = rng.gen_range(0..=CHUNK_SLOTS);
            let mut pages: Chunk = std::array::from_fn(|p| {
                Arc::new(std::array::from_fn(|k| {
                    let k = 64 * p + k;
                    (k < live_to && rng.gen_range(0..4usize) != 0).then(|| object(&mut rng, k))
                }))
            });
            let slots = |pages: &Chunk| -> Vec<Option<Object>> {
                pages.iter().flat_map(|p| p.iter().cloned()).collect()
            };
            let mut enc = EncodedChunk::encode(&pages);
            prop_assert_eq!(enc.bytes(), &encode_page(&slots(&pages))[..]);
            for _ in 0..40 {
                let old = pages.clone();
                for _ in 0..1 + rng.gen_range(0..3usize) {
                    let k = rng.gen_range(0..CHUNK_SLOTS);
                    let page = &mut pages[k / 64];
                    if rng.gen_range(0..8usize) == 0 {
                        // The same slots behind a new pointer.
                        *page = Arc::new((**page).clone());
                        continue;
                    }
                    let slot = &mut Arc::make_mut(page)[k % 64];
                    match rng.gen_range(0..5usize) {
                        // Free ↔ live, and slot reuse by a different OID.
                        0 => *slot = None,
                        1 => {
                            let oid = 300 + rng.gen_range(0..100usize);
                            *slot = Some(object(&mut rng, oid));
                        }
                        // Modify in place (possibly to an equal value).
                        2 => {
                            if let Some(Object { value: v @ Value::Atom(_), .. }) = slot {
                                *v = Value::Atom(atom(&mut rng));
                            }
                        }
                        // Remove-then-insert: an equal set, permuted.
                        3 => {
                            if let Some(Object { value: Value::Set(s), .. }) = slot {
                                if let Some(&first) = s.as_slice().first() {
                                    s.remove(first);
                                    s.insert(first);
                                }
                            }
                        }
                        _ => {
                            if let Some(Object { value: Value::Set(s), .. }) = slot {
                                s.insert(Oid::new(name(100 + rng.gen_range(0..8usize)).as_str()));
                            }
                        }
                    }
                }
                // A restart drops the cached bytes: encode from scratch.
                enc = if rng.gen_range(0..8usize) == 0 {
                    EncodedChunk::encode(&pages)
                } else {
                    enc.reencode(&old, &pages)
                };
                let want = encode_page(&slots(&pages));
                prop_assert_eq!(enc.bytes(), &want[..]);
                let decoded = decode_chunk(enc.bytes()).expect("a chunk decodes");
                prop_assert_eq!(encode_page(&slots(&decoded)), want);
            }
        }
    }

    #[test]
    fn frames_chain_their_checksums() {
        let mut out = Vec::new();
        let a = begin_frame(&mut out, 0xA1);
        out.extend_from_slice(b"first");
        let crc_a = end_frame(&mut out, a, 0);
        let b = begin_frame(&mut out, 0xB2);
        out.extend_from_slice(b"second!");
        let crc_b = end_frame(&mut out, b, crc_a);
        assert_eq!(
            frame_head(&out),
            Some(FrameHead {
                tag: 0xA1,
                len: 5,
                crc: crc32(b"first")
            })
        );
        assert_eq!(
            frame_head(&out[b..]),
            Some(FrameHead {
                tag: 0xB2,
                len: 7,
                crc: crc_b
            })
        );
        assert_eq!(
            crc_b,
            crc32(b"firstsecond!"),
            "a chain checksums the concatenation"
        );
        assert_eq!(&out[b + FRAME_HEADER_LEN..], b"second!");
        assert_eq!(frame_head(&out[..FRAME_HEADER_LEN - 1]), None);
    }

    #[test]
    fn objects_roundtrip() {
        roundtrip(Object::atom("A", "age", 45i64));
        roundtrip(Object::atom("B", "pi", 3.25f64));
        roundtrip(Object::atom("C", "name", Atom::str("alice")));
        roundtrip(Object::atom("D", "flag", Atom::Bool(true)));
        roundtrip(Object::atom("E", "salary", Atom::tagged("dollar", 100_000)));
        roundtrip(Object::atom("F", "neg", -7i64));
        roundtrip(Object::set(
            "S",
            "members",
            &[Oid::new("A"), Oid::new("B"), Oid::new("C")],
        ));
        roundtrip(Object::empty_set("T", "empty"));
    }

    #[test]
    fn pages_roundtrip_preserving_slot_layout() {
        let slots = vec![
            Some(Object::atom("A", "age", 1i64)),
            None,
            Some(Object::set("S", "s", &[Oid::new("A")])),
            None,
            None,
        ];
        let bytes = encode_page(&slots);
        assert_eq!(decode_page(&bytes).unwrap(), slots);
        // More labels than the decoder remembers per page, each twice.
        let labels = LABEL_MEMO + 4;
        let many: Vec<Option<Object>> = (0..2 * labels)
            .map(|i| {
                let label = format!("l{}", i % labels);
                Some(Object::atom(format!("M{i}").as_str(), label.as_str(), 1i64))
            })
            .collect();
        assert_eq!(decode_page(&encode_page(&many)).unwrap(), many);
    }

    #[test]
    fn equal_pages_encode_identically() {
        let a = vec![Some(Object::atom("X", "n", 9i64)), None];
        let b = vec![Some(Object::atom("X", "n", 9i64)), None];
        assert_eq!(encode_page(&a), encode_page(&b));
    }

    #[test]
    fn set_membership_order_is_preserved() {
        let obj = Object::set("S", "s", &[Oid::new("z"), Oid::new("a"), Oid::new("m")]);
        let mut buf = Vec::new();
        put_object(&mut buf, &obj);
        let back = get_object(&mut Reader::new(&buf)).unwrap();
        let order: Vec<&str> = back.children().iter().map(|o| o.name()).collect();
        assert_eq!(order, vec!["z", "a", "m"]);
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        let mut buf = Vec::new();
        put_object(&mut buf, &Object::atom("A", "age", 1i64));
        let page = encode_page(&[Some(Object::atom("A", "age", 1i64))]);
        for cut in 0..page.len() {
            assert!(decode_page(&page[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut trailing = page.clone();
        trailing.push(0);
        assert!(decode_page(&trailing).is_err());
        assert!(decode_page(&[9, 9, 9]).is_err());
    }

    #[test]
    fn a_slot_count_the_bytes_cannot_hold_is_refused_before_reserving() {
        let mut payload = Vec::new();
        put_varint(&mut payload, 1 << 20);
        let e = decode_page(&payload).unwrap_err();
        assert!(e.0.contains("1048576") && e.0.contains("3 bytes"), "{e}");
        assert!(decode_chunk(&payload).is_err());
        // One byte a slot is enough to be read.
        let free = [&[4u8][..], &[SLOT_FREE; 4]].concat();
        assert_eq!(decode_page(&free).unwrap(), vec![None; 4]);
    }

    /// A name for [`a_page_decodes_its_names_as_oid_new_does`]: short,
    /// at the 8-byte inline edge, longer, or holding a NUL.
    fn batch_name() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..100u32).prop_map(|i| format!("b{i}")),
            (0..100u32).prop_map(|i| format!("bn{i:06}")),
            (0..100u32).prop_map(|i| format!("batchname{i}")),
            (0..100u32).prop_map(|i| format!("b\0{i}")),
        ]
    }

    proptest! {
        /// A page's names are interned as one batch, and the objects
        /// come out exactly as per-name `Oid::new` makes them: names
        /// the interner has not seen, names repeated within the page
        /// (an object that is also a member, a set naming one member
        /// twice), names over 8 bytes and names holding a NUL.
        #[test]
        fn a_page_decodes_its_names_as_oid_new_does(
            slots in prop::collection::vec(
                (any::<bool>(), batch_name(), prop::collection::vec(batch_name(), 0..5))
                    .prop_map(|(live, oid, members)| live.then_some((oid, members))),
                1..40,
            ),
            salt in any::<u64>(),
        ) {
            // Salted so that the names are new to the interner.
            let fresh = |n: &str| format!("{n}~{salt:x}");
            let mut page = Vec::new();
            put_varint(&mut page, slots.len() as u64);
            for slot in &slots {
                match slot {
                    None => page.push(SLOT_FREE),
                    Some((oid, members)) => {
                        page.push(SLOT_LIVE);
                        put_str(&mut page, &fresh(oid));
                        put_str(&mut page, "batch");
                        page.push(VALUE_SET);
                        put_varint(&mut page, members.len() as u64);
                        for m in members {
                            put_str(&mut page, &fresh(m));
                        }
                    }
                }
            }
            let decoded = decode_page(&page).unwrap();
            let want: Vec<Option<Object>> = (slots.iter())
                .map(|slot| {
                    slot.as_ref().map(|(oid, members)| Object {
                        oid: Oid::new(&fresh(oid)),
                        label: Label::new("batch"),
                        value: Value::set_of(members.iter().map(|m| Oid::new(&fresh(m)))),
                    })
                })
                .collect();
            prop_assert_eq!(decoded.len(), want.len());
            for (got, want) in decoded.iter().zip(&want) {
                prop_assert_eq!(got, want);
                if let (Some(got), Some(want)) = (got, want) {
                    prop_assert_eq!(got.children(), want.children());
                }
            }
        }
    }

    #[test]
    fn varint_edge_values_roundtrip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Reader::new(&buf).varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            assert_eq!(Reader::new(&buf).zigzag().unwrap(), v);
        }
    }
}
