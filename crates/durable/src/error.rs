//! Error type shared by every durable layer.

use std::fmt;

/// Why a durable operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DurableError {
    /// The media has crashed (chaos injection): the simulated process
    /// is dead and every subsequent write fails until the controller
    /// heals the media for the "restarted" process.
    Crashed,
    /// An I/O failure from the underlying file.
    Io(String),
    /// Structurally corrupt durable state: a frame that passed CRC but
    /// failed decode, a manifest referencing impossible shapes, a
    /// recovered image the store rejected.
    Corrupt(String),
    /// The media holds a store in a layout this build does not read
    /// (format 1 is the three-file layout; 0 an unrecognized file).
    /// Nothing was read from it and nothing will be written to it.
    Version {
        /// The format version found.
        found: u32,
        /// The format version this build reads and writes.
        expected: u32,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Crashed => write!(f, "media crashed (fault injection)"),
            DurableError::Io(m) => write!(f, "durable I/O error: {m}"),
            DurableError::Corrupt(m) => write!(f, "corrupt durable state: {m}"),
            DurableError::Version { found, expected } => write!(
                f,
                "durable store is format version {found}, this build reads version {expected}"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e.to_string())
    }
}

impl From<gsdb::codec::CodecError> for DurableError {
    fn from(e: gsdb::codec::CodecError) -> Self {
        DurableError::Corrupt(e.to_string())
    }
}

/// Result alias for durable operations.
pub type Result<T> = std::result::Result<T, DurableError>;
