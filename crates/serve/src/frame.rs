//! Length-prefixed, CRC-framed transport framing.
//!
//! Every protocol message travels as one [`gsdb::codec`] frame, the
//! layout the durable epoch log uses too:
//!
//! ```text
//! +-------+----------------+----------------+=================+
//! | magic | payload length | crc32(payload) |     payload     |
//! | 1 B   | u32 LE         | u32 LE         | length bytes    |
//! +-------+----------------+----------------+=================+
//! ```
//!
//! The magic byte catches desynchronized streams immediately (a
//! reader that lands mid-frame sees a wrong magic with probability
//! 255/256 on the first byte instead of misparsing a length); the
//! CRC (same polynomial as the durable epoch log) catches torn or
//! corrupted payloads; the length prefix bounds allocation *before*
//! any payload is read, so a hostile or broken peer cannot make the
//! decoder balloon.
//!
//! [`FrameDecoder`] is incremental: feed it whatever the socket
//! produced and take complete frames out. All error paths are typed
//! [`FrameError`]s — a torn frame, garbage prefix, or bad CRC is a
//! clean protocol error on that connection, never a panic (pinned by
//! the fuzz cases in `tests/codec_roundtrip.rs`).

use gsdb::codec::{begin_frame, crc32, end_frame, frame_head};
use std::fmt;

/// First byte of every frame.
pub const MAGIC: u8 = 0xC5;
/// Bytes before the payload: magic + length + crc.
pub const HEADER_LEN: usize = gsdb::codec::FRAME_HEADER_LEN;
/// Default cap on payload length (a `Reports` batch over a large
/// commit is the biggest legitimate frame).
pub const DEFAULT_MAX_FRAME: usize = 8 << 20;
/// Bytes one socket read takes into its caller's buffer (client and
/// reactor each own one, allocated once).
pub(crate) const READ_CHUNK: usize = 16 << 10;

/// Why a frame could not be decoded. Every variant means the stream
/// is unrecoverable from this point — framing has no resync marker,
/// so the connection must be dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first byte of a frame was not [`MAGIC`].
    BadMagic(u8),
    /// The declared payload length exceeds the configured cap.
    Oversize {
        /// Declared payload length.
        declared: usize,
        /// Configured cap.
        cap: usize,
    },
    /// The payload failed its checksum.
    BadCrc {
        /// Checksum carried in the header.
        expected: u32,
        /// Checksum of the received payload.
        got: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(b) => write!(f, "bad frame magic {b:#04x} (stream desynced)"),
            FrameError::Oversize { declared, cap } => {
                write!(f, "frame payload of {declared} bytes exceeds cap {cap}")
            }
            FrameError::BadCrc { expected, got } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#010x}, payload {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode one payload as a complete frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    let start = begin_frame(&mut out, MAGIC);
    out.extend_from_slice(payload);
    end_frame(&mut out, start, 0);
    out
}

/// Incremental frame decoder: buffer bytes as they arrive, surface
/// complete, checksum-verified payloads.
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameDecoder {
    /// A decoder with the given payload-length cap.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Append bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True if the buffer holds any unconsumed bytes (complete frames
    /// or a partial one).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// True if the buffer ends in an incomplete frame — the peer owes
    /// us bytes before anything more can decode (stalled-read
    /// detection). False when a complete frame (or a framing error)
    /// is already available: that is our work, not the peer's.
    pub fn awaiting_bytes(&self) -> bool {
        if self.buf.is_empty() {
            return false;
        }
        if self.buf[0] != MAGIC {
            return false; // error pending, not more bytes
        }
        let Some(head) = frame_head(&self.buf) else {
            return true;
        };
        if head.len > self.max_frame {
            return false; // oversize error pending
        }
        self.buf.len() < HEADER_LEN + head.len
    }

    /// Take the next complete frame's payload, if one is buffered.
    /// `Ok(None)` means "need more bytes". An `Err` poisons the
    /// stream: the caller must drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.buf[0] != MAGIC {
            return Err(FrameError::BadMagic(self.buf[0]));
        }
        let Some(head) = frame_head(&self.buf) else {
            return Ok(None);
        };
        let (len, expected) = (head.len, head.crc);
        if len > self.max_frame {
            return Err(FrameError::Oversize {
                declared: len,
                cap: self.max_frame,
            });
        }
        if self.buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.buf[HEADER_LEN..HEADER_LEN + len].to_vec();
        let got = crc32(&payload);
        if got != expected {
            return Err(FrameError::BadCrc { expected, got });
        }
        self.buf.drain(..HEADER_LEN + len);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_incremental_feed() {
        let payload = b"hello, warehouse".to_vec();
        let frame = encode_frame(&payload);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        // Feed one byte at a time: no frame until the last byte lands.
        for (i, b) in frame.iter().enumerate() {
            dec.extend(std::slice::from_ref(b));
            let out = dec.next_frame().unwrap();
            if i + 1 < frame.len() {
                assert!(out.is_none(), "frame complete too early at byte {i}");
                assert!(dec.mid_frame());
            } else {
                assert_eq!(out.unwrap(), payload);
            }
        }
        assert!(!dec.mid_frame());
    }

    #[test]
    fn two_frames_in_one_read() {
        let mut bytes = encode_frame(b"a");
        bytes.extend(encode_frame(b"bb"));
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&bytes);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"a");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"bb");
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn garbage_prefix_is_a_clean_error() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&[0x00, 0x01]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadMagic(0x00)));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut frame = encode_frame(b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.extend(&frame);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn oversize_is_rejected_before_payload_arrives() {
        let mut dec = FrameDecoder::new(16);
        let mut hdr = vec![MAGIC];
        hdr.extend_from_slice(&1_000_000u32.to_le_bytes());
        hdr.extend_from_slice(&0u32.to_le_bytes());
        dec.extend(&hdr);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversize {
                declared: 1_000_000,
                cap: 16
            })
        );
    }
}
