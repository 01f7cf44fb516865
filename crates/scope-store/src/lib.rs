//! Durable state for the CloudViews services (DESIGN.md §16).
//!
//! Two layers, bottom to top:
//!
//! * [`wal`] — an append-only write-ahead log of length-prefixed,
//!   checksummed records (`[u32 len][u64 sip64][payload]`, all
//!   little-endian). Torn or truncated tail records are detected by
//!   checksum and dropped at a clean record boundary, never panicking.
//! * [`snapshot`] — atomically-written (`tmp` + fsync + rename),
//!   checksummed, generation-numbered state snapshots, plus [`log::LogDir`]
//!   which pairs generational WAL files with snapshots: `snap.N` is the
//!   state after fully applying `wal.1..=N`, so recovery is "load the
//!   newest valid snapshot, replay every later log generation". A
//!   directory that never snapshots is a plain rotated log, which is how
//!   the bulk append-mostly data (the workload repository's job records,
//!   published view files) is kept: one on-disk log format for everything.
//!
//! The crate is deliberately value-agnostic: everything stored is `&[u8]`
//! payloads produced by the hand-rolled codec in `scope_common::codec` /
//! `cloudviews::codec`. No serde, no external dependencies.

pub mod log;
pub mod snapshot;
pub mod wal;

use std::fmt;

/// Everything that can go wrong below the codec layer.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A file failed structural validation (bad magic, checksum mismatch).
    /// A torn tail of the *live* WAL generation is not an error — it is
    /// truncated and reported via [`wal::TailReport`]; `Corrupt` is
    /// reserved for files a crash cannot tear: atomically renamed
    /// snapshots and sealed (fsynced, then rotated away from) generations.
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
