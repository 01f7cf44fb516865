//! Append-only write-ahead log.
//!
//! Record framing (everything little-endian, mirroring the `scope-net`
//! frame idiom):
//!
//! | offset | size | field                              |
//! |--------|------|------------------------------------|
//! | 0      | 4    | payload length                     |
//! | 4      | 8    | `sip64` checksum of the payload    |
//! | 12     | n    | payload bytes                      |
//!
//! A crash can leave the file ending in a partial record (torn header,
//! short payload) or a record whose bytes were only partially flushed
//! (checksum mismatch). [`scan_records`] stops at the first such record:
//! everything before it is a *clean prefix* and everything from it on is
//! dropped — [`Wal::open`] additionally truncates the file back to the
//! clean boundary so subsequent appends start from consistent state.
//! Corruption never panics and never yields a partial record.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use scope_common::hash::sip64;

use crate::{Result, StoreError};

/// Fixed per-record framing overhead.
pub const RECORD_HEADER: usize = 12;

/// Hard ceiling on a single record payload (64 MiB). [`Wal::append`]
/// refuses anything longer, so on replay a longer length prefix can only be
/// tail corruption — which bounds what a damaged file can make recovery
/// allocate.
pub const MAX_RECORD: u32 = 64 * 1024 * 1024;

/// What scanning a log file found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailReport {
    /// Intact records in the clean prefix.
    pub records: usize,
    /// Byte length of the clean prefix (the truncation target).
    pub clean_len: u64,
    /// Bytes past the last clean record boundary (0 for a healthy file).
    pub dropped_bytes: u64,
}

impl TailReport {
    /// True when the file ended in a torn or corrupt record.
    pub fn torn(&self) -> bool {
        self.dropped_bytes > 0
    }
}

/// Scans raw log bytes into payloads, stopping at the first torn or
/// corrupt record. Infallible by construction: any malformed suffix is
/// reported, not propagated.
pub fn scan_records(bytes: &[u8]) -> (Vec<Vec<u8>>, TailReport) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + RECORD_HEADER <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            break;
        }
        let end = pos + RECORD_HEADER + len as usize;
        if end > bytes.len() {
            break;
        }
        let checksum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let payload = &bytes[pos + RECORD_HEADER..end];
        if sip64(payload) != checksum {
            break;
        }
        records.push(payload.to_vec());
        pos = end;
    }
    let report = TailReport {
        records: records.len(),
        clean_len: pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
    };
    (records, report)
}

/// Frames one payload for appending.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&sip64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// An open write-ahead log file positioned for appending.
pub struct Wal {
    file: File,
    bytes: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replaying its clean
    /// prefix and truncating any torn tail back to a record boundary.
    pub fn open(path: &Path) -> Result<(Wal, Vec<Vec<u8>>, TailReport)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (records, report) = scan_records(&bytes);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        if report.torn() || file.metadata()?.len() != report.clean_len {
            file.set_len(report.clean_len)?;
        }
        let mut wal = Wal {
            file,
            bytes: report.clean_len,
        };
        // Position at the clean end for appending (no O_APPEND: truncation
        // and appends must agree on the same offset).
        use std::io::{Seek, SeekFrom};
        wal.file.seek(SeekFrom::Start(report.clean_len))?;
        Ok((wal, records, report))
    }

    /// Appends one record (length + checksum + payload) as a single write.
    /// A payload over [`MAX_RECORD`] is refused: replay would read its length
    /// prefix as tail corruption and drop it with every record after it.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_RECORD as usize {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "record of {} bytes exceeds the {MAX_RECORD}-byte limit",
                    payload.len()
                ),
            )));
        }
        let frame = frame_record(payload);
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Forces written records to stable storage (called before a snapshot
    /// seals a generation; individual appends rely on the OS page cache,
    /// which survives process death — the kill-replay CI gate — if not
    /// machine death).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Bytes of clean records currently in the file.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scope-store-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal")
    }

    #[test]
    fn round_trips_records() {
        let path = tmp("rt");
        let (mut wal, recs, report) = Wal::open(&path).unwrap();
        assert!(recs.is_empty() && !report.torn());
        wal.append(b"alpha").unwrap();
        wal.append(b"").unwrap();
        wal.append(&[0xAB; 1000]).unwrap();
        drop(wal);
        let (_, recs, report) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![b"alpha".to_vec(), Vec::new(), vec![0xAB; 1000]]);
        assert!(!report.torn());
        assert_eq!(report.records, 3);
    }

    #[test]
    fn torn_tail_dropped_at_every_truncation_point() {
        let path = tmp("torn");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"second-record").unwrap();
        drop(wal);
        let healthy = std::fs::read(&path).unwrap();
        let first_len = RECORD_HEADER as u64 + 5;
        // Truncate at every byte offset inside the second record: the
        // first record must always survive, the second must always drop.
        for cut in first_len..healthy.len() as u64 {
            std::fs::write(&path, &healthy[..cut as usize]).unwrap();
            let (_, recs, report) = Wal::open(&path).unwrap();
            assert_eq!(recs.len(), 1, "cut at {cut}");
            assert_eq!(recs[0], b"first");
            assert_eq!(report.dropped_bytes, cut - first_len, "cut at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), first_len);
        }
    }

    #[test]
    fn corrupt_byte_invalidates_suffix() {
        let path = tmp("flip");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        wal.append(b"aaaa").unwrap();
        wal.append(b"bbbb").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let idx = bytes.len() - 1;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recs, report) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![b"aaaa".to_vec()]);
        assert!(report.torn());
    }

    #[test]
    fn absurd_length_prefix_is_tail_corruption() {
        let path = tmp("len");
        let mut bytes = frame_record(b"ok");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, recs, report) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![b"ok".to_vec()]);
        assert!(report.torn());
    }

    #[test]
    fn oversized_append_is_refused_and_leaves_the_log_intact() {
        let path = tmp("oversized");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        wal.append(b"before").unwrap();
        let too_big = vec![0u8; MAX_RECORD as usize + 1];
        assert!(matches!(wal.append(&too_big), Err(StoreError::Io(_))));
        wal.append(b"after").unwrap();
        drop(wal);
        let (_, recs, report) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![b"before".to_vec(), b"after".to_vec()]);
        assert!(!report.torn());
    }

    #[test]
    fn append_after_truncated_open_continues_cleanly() {
        let path = tmp("resume");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        wal.append(b"keep").unwrap();
        wal.append(b"torn").unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let (mut wal, recs, _) = Wal::open(&path).unwrap();
        assert_eq!(recs.len(), 1);
        wal.append(b"next").unwrap();
        drop(wal);
        let (_, recs, report) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![b"keep".to_vec(), b"next".to_vec()]);
        assert!(!report.torn());
    }
}
