//! Content hashing. (The CRC the frames carry is [`gsdb::codec::crc32`].)
//!
//! Chunks are addressed by a 128-bit content hash: two independently
//! seeded multiply-rotate lanes that each fold the payload eight bytes
//! at a time, each finished with a splitmix64 avalanche. This is not a
//! cryptographic hash — the threat model is accidental corruption and
//! torn writes, which the CRC already catches; the content hash's job
//! is dedup identity, where 128 well-mixed bits make accidental
//! collisions negligible. Every read re-verifies the content hash, so
//! a chunk that rotted after the open scan reads as missing.

use std::fmt;

/// A 128-bit content address of one chunk (256 encoded slab slots).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(pub [u8; 16]);

impl fmt::Debug for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One lane step: a bijection of the lane state for every word, so
/// payloads that differ in one word never agree in either lane; the
/// rotate carries the multiply's well-mixed high bits down to where
/// the next multiply spreads them again.
#[inline]
fn fold(lane: u64, word: u64, mul: u64, rot: u32) -> u64 {
    (lane ^ word).wrapping_mul(mul).rotate_left(rot)
}

/// Content-address a chunk payload.
pub fn chunk_hash(bytes: &[u8]) -> ChunkHash {
    const MUL_A: u64 = 0x9E37_79B9_7F4A_7C15;
    const MUL_B: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x6c62_272e_07bb_0142; // a different basis for lane 2
    let mut absorb = |w: [u8; 8]| {
        let w = u64::from_le_bytes(w);
        a = fold(a, w, MUL_A, 31);
        b = fold(b, w, MUL_B, 27);
    };
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        absorb(w.try_into().expect("8 bytes"));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // Zero-padded; the length mixed in below tells `ab` from `ab\0`.
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        absorb(w);
    }
    a = splitmix64(a ^ (bytes.len() as u64));
    b = splitmix64(b ^ (bytes.len() as u64).rotate_left(32));
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    ChunkHash(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_hash_is_deterministic_and_content_sensitive() {
        let h1 = chunk_hash(b"page one");
        assert_eq!(h1, chunk_hash(b"page one"));
        assert_ne!(h1, chunk_hash(b"page two"));
        assert_ne!(h1, chunk_hash(b"page one "));
        // Single-bit flips change the hash.
        let mut flipped = b"page one".to_vec();
        flipped[3] ^= 1;
        assert_ne!(h1, chunk_hash(&flipped));
    }

    #[test]
    fn chunk_hash_distinguishes_length_extension() {
        assert_ne!(chunk_hash(&[0u8]), chunk_hash(&[0u8, 0]));
        assert_ne!(chunk_hash(&[]), chunk_hash(&[0u8]));
    }
}
