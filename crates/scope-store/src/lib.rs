//! Durable state for the CloudViews services (DESIGN.md §16).
//!
//! Three layers, bottom to top:
//!
//! * [`wal`] — an append-only write-ahead log of length-prefixed,
//!   checksummed records (`[u32 len][u64 sip64][payload]`, all
//!   little-endian). Torn or truncated tail records are detected by
//!   checksum and dropped at a clean record boundary, never panicking.
//! * [`snapshot`] — atomically-written (`tmp` + fsync + rename),
//!   checksummed, generation-numbered state snapshots, plus [`log::LogDir`]
//!   which pairs generational WAL files with snapshots: `snap.N` is the
//!   state after fully applying `wal.1..=N`, so recovery is "load the
//!   newest valid snapshot, replay every later log generation".
//! * [`segment`] — a log-structured key-value store (MemTable → WAL →
//!   sorted segment files, read back by one scan) for bulk append-mostly
//!   data: the workload repository's job records and published view files.
//!
//! The crate is deliberately value-agnostic: everything stored is `&[u8]`
//! payloads produced by the hand-rolled codec in `scope_common::codec` /
//! `cloudviews::codec`. No serde, no external dependencies.

pub mod log;
pub mod segment;
pub mod snapshot;
pub mod wal;

use std::fmt;

/// Everything that can go wrong below the codec layer.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A file failed structural validation (bad magic, checksum mismatch).
    /// Torn WAL *tails* are not errors — they are truncated silently and
    /// reported via [`wal::TailReport`]; `Corrupt` is reserved for files
    /// that are written atomically and therefore should never be torn.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store file: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
