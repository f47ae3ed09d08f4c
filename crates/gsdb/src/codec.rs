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

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (IEEE polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
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

/// Encode one slab page: slot count, then each slot as free or live.
/// Free slots are written explicitly so the decoded page reproduces
/// the original slot layout byte-for-byte.
pub fn encode_page(slots: &[Option<Object>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + slots.len() * 8);
    put_varint(&mut out, slots.len() as u64);
    for slot in slots {
        match slot {
            None => out.push(SLOT_FREE),
            Some(obj) => {
                out.push(SLOT_LIVE);
                put_object(&mut out, obj);
            }
        }
    }
    out
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
