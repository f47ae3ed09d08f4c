//! Byte codec for durable page serialization.
//!
//! [`Oid`]s and [`Label`]s are interned symbols — their numeric ids
//! are stable only within one process — so anything that outlives the
//! process must be written **by name**. This module encodes slab pages
//! (the copy-on-write unit of [`Store`](crate::Store)) into a compact,
//! self-delimiting byte form the durability layer content-addresses:
//! equal page bytes ⇔ equal page content, across processes.
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
//! [`crc32`] from here. The decoder detects *structural* corruption
//! (truncated input, unknown tags, invalid UTF-8) and reports it as a
//! [`CodecError`], which the recovery path treats like a failed
//! checksum.

use crate::{Atom, Label, Object, Oid, Value};
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
/// independent lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
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
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
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
        ATOM_REAL => {
            let b: [u8; 8] = r.bytes(8)?.try_into().expect("8 bytes");
            Atom::Real(f64::from_le_bytes(b))
        }
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
    let oid = Oid::new(r.str()?);
    let label = Label::new(r.str()?);
    let value = match r.byte()? {
        VALUE_ATOM => Value::Atom(get_atom(r)?),
        VALUE_SET => {
            let n = r.varint()? as usize;
            let mut oids = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                oids.push(Oid::new(r.str()?));
            }
            Value::set_of(oids)
        }
        t => return err(format!("unknown value tag {t}")),
    };
    Ok(Object { oid, label, value })
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

/// An encoded page that remembers where each slot's bytes start, so
/// the page's next version is encoded by copying the slots that did
/// not change: interned names are resolved only for the objects an
/// epoch touched, not for all 256 of a page. [`bytes`](Self::bytes)
/// is always exactly what [`encode_page`] returns for the same slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedPage {
    bytes: Vec<u8>,
    /// Start of each slot in `bytes`, plus `bytes.len()` at the end.
    offsets: Vec<u32>,
}

impl EncodedPage {
    /// Encode `slots` from scratch.
    pub fn encode(slots: &[Option<Object>]) -> EncodedPage {
        Self::encode_from(None, slots)
    }

    /// Encode `slots`, the successor of the page `self` encodes: a
    /// slot that [encodes the same](same_encoding) as the slot `old`
    /// held at its position is copied from `self`, the rest are
    /// encoded. `old` must be the slots `self` was encoded from.
    pub fn reencode(&self, old: &[Option<Object>], slots: &[Option<Object>]) -> EncodedPage {
        debug_assert_eq!(old.len() + 1, self.offsets.len());
        Self::encode_from(Some((self, old)), slots)
    }

    fn encode_from(
        prev: Option<(&EncodedPage, &[Option<Object>])>,
        slots: &[Option<Object>],
    ) -> EncodedPage {
        let mut bytes = Vec::with_capacity(prev.map_or(16 + slots.len() * 8, |(p, _)| p.bytes.len() + 64));
        let mut offsets = Vec::with_capacity(slots.len() + 1);
        put_varint(&mut bytes, slots.len() as u64);
        for (k, slot) in slots.iter().enumerate() {
            offsets.push(bytes.len() as u32);
            match prev {
                Some((p, old)) if old.get(k).is_some_and(|o| same_encoding(o, slot)) => {
                    bytes.extend_from_slice(&p.bytes[p.offsets[k] as usize..p.offsets[k + 1] as usize]);
                }
                _ => put_slot(&mut bytes, slot),
            }
        }
        offsets.push(bytes.len() as u32);
        EncodedPage { bytes, offsets }
    }

    /// The page bytes — what the durable layer hashes and stores.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Decode one slab page. Fails on trailing garbage — a chunk holds
/// exactly one page.
pub fn decode_page(bytes: &[u8]) -> Result<Vec<Option<Object>>, CodecError> {
    let mut r = Reader::new(bytes);
    let n = r.varint()? as usize;
    if n > 1 << 20 {
        return err(format!("implausible page slot count {n}"));
    }
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        match r.byte()? {
            SLOT_FREE => slots.push(None),
            SLOT_LIVE => slots.push(Some(get_object(&mut r)?)),
            t => return err(format!("unknown slot tag {t}")),
        }
    }
    if r.remaining() != 0 {
        return err("trailing bytes after page");
    }
    Ok(slots)
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

    /// The byte-at-a-time CRC-32 the slicing-by-8 one replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0xC4C);
        let buf: Vec<u8> = (0..64 + 8).map(|_| rng.gen::<u8>()).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let s = &buf[align..align + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "align {align} len {len}");
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
            prop_assert_eq!(crc32(&buf), crc32_bytewise(&buf));
            // A continued checksum is the checksum of the concatenation.
            let cut = rng.gen_range(0..len);
            prop_assert_eq!(crc32_update(crc32(&buf[..cut]), &buf[cut..]), crc32(&buf));
        }

        /// Incremental encoding ≡ `encode_page`, byte for byte, along a
        /// random edit sequence on one page.
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
            let mut slots: Vec<Option<Object>> = (0..4 + rng.gen_range(0..12usize))
                .map(|k| (rng.gen_range(0..4usize) != 0).then(|| object(&mut rng, k)))
                .collect();
            let mut enc = EncodedPage::encode(&slots);
            prop_assert_eq!(enc.bytes(), &encode_page(&slots)[..]);
            for _ in 0..40 {
                let old = slots.clone();
                for _ in 0..1 + rng.gen_range(0..3usize) {
                    let k = rng.gen_range(0..slots.len());
                    match rng.gen_range(0..6usize) {
                        // Free ↔ live, and slot reuse by a different OID.
                        0 => slots[k] = None,
                        1 => {
                            let oid = 50 + rng.gen_range(0..50usize);
                            slots[k] = Some(object(&mut rng, oid));
                        }
                        // Modify in place (possibly to an equal value).
                        2 => {
                            if let Some(Object { value: v @ Value::Atom(_), .. }) = &mut slots[k] {
                                *v = Value::Atom(atom(&mut rng));
                            }
                        }
                        // Remove-then-insert: an equal set, permuted.
                        3 => {
                            if let Some(Object { value: Value::Set(s), .. }) = &mut slots[k] {
                                if let Some(&first) = s.as_slice().first() {
                                    s.remove(first);
                                    s.insert(first);
                                }
                            }
                        }
                        4 => {
                            if let Some(Object { value: Value::Set(s), .. }) = &mut slots[k] {
                                s.insert(Oid::new(name(100 + rng.gen_range(0..8usize)).as_str()));
                            }
                        }
                        // Page growth.
                        _ => {
                            let grown = object(&mut rng, 200 + slots.len());
                            slots.push(Some(grown));
                        }
                    }
                }
                // A restart drops the cached bytes: encode from scratch.
                enc = if rng.gen_range(0..8usize) == 0 {
                    EncodedPage::encode(&slots)
                } else {
                    enc.reencode(&old, &slots)
                };
                prop_assert_eq!(enc.bytes(), &encode_page(&slots)[..]);
                prop_assert_eq!(decode_page(enc.bytes()).map(|p| p.len()), Ok(slots.len()));
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
            Some(FrameHead { tag: 0xA1, len: 5, crc: crc32(b"first") })
        );
        assert_eq!(
            frame_head(&out[b..]),
            Some(FrameHead { tag: 0xB2, len: 7, crc: crc_b })
        );
        assert_eq!(crc_b, crc32(b"firstsecond!"), "a chain checksums the concatenation");
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
