//! Content hashing, and the CRC the frames carry ([`gsdb::codec::crc32`]).
//!
//! Chunks are addressed by a 128-bit content hash: two independently
//! seeded FNV-1a-64 lanes, each finished with a splitmix64 avalanche.
//! This is not a cryptographic hash — the threat model is accidental
//! corruption and torn writes, which the CRC already catches; the
//! content hash's job is dedup identity, where 128 well-mixed bits
//! make accidental collisions negligible. Every read re-verifies both
//! the CRC and the content hash, so even a collision-in-the-index
//! cannot silently substitute page bytes.

use std::fmt;

pub use gsdb::codec::crc32;

/// A 128-bit content address of one chunk (one encoded slab page).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(pub [u8; 16]);

impl ChunkHash {
    /// Parse from raw bytes (exactly 16).
    pub fn from_slice(b: &[u8]) -> Option<ChunkHash> {
        b.try_into().ok().map(ChunkHash)
    }
}

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

/// Content-address a chunk payload.
pub fn chunk_hash(bytes: &[u8]) -> ChunkHash {
    let mut a: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    let mut b: u64 = 0x6c62_272e_07bb_0142; // a different basis for lane 2
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        b = (b ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(1);
    }
    a = splitmix64(a ^ (bytes.len() as u64));
    b = splitmix64(b);
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
