//! Generational WAL directory: `wal.N` log files paired with `snap.N`
//! snapshots (see [`crate::snapshot`]).
//!
//! Invariant: `snap.N` is the state after fully applying `wal.1..=N`.
//! Recovery therefore loads the newest valid snapshot (generation `S`)
//! and replays `wal.(S+1)..` in ascending order. Only the newest of those
//! — the *live* generation, the one appends go to — may end in a torn
//! record; that tail is truncated to the last clean boundary and counted
//! in [`Recovered::dropped_bytes`]. Every older generation is *sealed*:
//! [`LogDir::rotate`] fsyncs `wal.N` before `wal.N+1` exists, so a crash
//! can never tear one. A sealed generation that does not scan clean to its
//! last byte is damage to acknowledged history, and [`LogDir::open`]
//! refuses the directory with [`StoreError::Corrupt`] — without touching a
//! file — rather than return a history with a hole in it. A directory that
//! never snapshots (`S` = 0 forever) is a plain rotated append-only log.
//!
//! Snapshotting is split into two halves so the caller never exports
//! state while holding the log lock (services append to the WAL while
//! holding their own state locks, so holding the log lock across a state
//! export would invert that order and deadlock):
//!
//! 1. [`LogDir::rotate`] — under the log lock: seal the current `wal.N`,
//!    open a fresh `wal.N+1`, return `N`.
//! 2. caller exports its in-memory state with no log lock held; events
//!    appended meanwhile land in `wal.N+1` and may *also* be reflected in
//!    the export — safe because all logged events are idempotent at their
//!    pinned times, so at-least-once replay converges.
//! 3. [`LogDir::seal_snapshot`] — under the log lock again: write
//!    `snap.N` atomically, prune `wal.<=N` and older snapshots.

use std::path::{Path, PathBuf};

use crate::snapshot::{latest_snapshot, numbered_files, write_snapshot};
use crate::wal::{scan_records, Wal};
use crate::{Result, StoreError};

/// What [`LogDir::open`] recovered from disk.
pub struct Recovered {
    /// Payload of the newest valid snapshot, if any.
    pub snapshot: Option<Vec<u8>>,
    /// WAL record payloads from every generation after the snapshot, in
    /// append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn tail truncated off the live generation (0 after a
    /// clean shutdown).
    pub dropped_bytes: u64,
}

/// A directory of generational WAL files and snapshots.
pub struct LogDir {
    dir: PathBuf,
    gen: u64,
    wal: Wal,
    tail_bytes: u64,
}

impl LogDir {
    fn wal_path(dir: &Path, gen: u64) -> PathBuf {
        dir.join(format!("wal.{gen}"))
    }

    /// Opens `dir` (creating it if needed), recovering snapshot + tail.
    pub fn open(dir: &Path) -> Result<(LogDir, Recovered)> {
        std::fs::create_dir_all(dir)?;
        let (snapshot_gen, snapshot) = match latest_snapshot(dir)? {
            Some((gen, payload)) => (gen, Some(payload)),
            None => (0, None),
        };
        let mut wals = numbered_files(dir, "wal")?;
        // Generations up to the snapshot's are already folded into it.
        wals.retain(|(gen, _)| *gen > snapshot_gen);
        // The newest generation is the live one; a fresh directory (or one
        // whose snapshot covers every log) starts the next.
        let gen = wals.pop().map_or(snapshot_gen + 1, |(gen, _)| gen);
        let mut records = Vec::new();
        let mut tail_bytes = 0u64;
        for (_, path) in &wals {
            // Read-only: a refused directory must stay exactly as found.
            let (recs, report) = scan_records(&std::fs::read(path)?);
            if report.torn() {
                return Err(StoreError::Corrupt(format!(
                    "{}: sealed generation damaged at byte {} (fsynced before \
                     wal.{gen} existed, so not a torn write)",
                    path.display(),
                    report.clean_len
                )));
            }
            records.extend(recs);
            tail_bytes += report.clean_len;
        }
        // Opening the live generation truncates any torn tail, so appends
        // resume at its last clean record boundary.
        let (wal, recs, report) = Wal::open(&Self::wal_path(dir, gen))?;
        records.extend(recs);
        tail_bytes += report.clean_len;
        Ok((
            LogDir {
                dir: dir.to_path_buf(),
                gen,
                wal,
                tail_bytes,
            },
            Recovered {
                snapshot,
                records,
                dropped_bytes: report.dropped_bytes,
            },
        ))
    }

    /// Appends one record to the current generation.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.wal.append(payload)?;
        self.tail_bytes += (crate::wal::RECORD_HEADER + payload.len()) as u64;
        Ok(())
    }

    /// Bytes of log records not yet folded into a snapshot (across all
    /// generations since the last snapshot). The compaction trigger.
    pub fn tail_bytes(&self) -> u64 {
        self.tail_bytes
    }

    /// Bytes in the live generation (the file appends go to).
    pub fn live_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Current generation number (the file appends go to).
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Seals the current generation and opens the next one; returns the
    /// sealed generation number to pass to [`LogDir::seal_snapshot`] after
    /// the caller has exported its state *without holding the log lock*.
    pub fn rotate(&mut self) -> Result<u64> {
        self.wal.sync()?;
        let sealed = self.gen;
        self.gen += 1;
        let (wal, _, _) = Wal::open(&Self::wal_path(&self.dir, self.gen))?;
        self.wal = wal;
        Ok(sealed)
    }

    /// Writes `payload` as the snapshot for `sealed_gen` and prunes every
    /// log generation and snapshot it supersedes.
    pub fn seal_snapshot(&mut self, sealed_gen: u64, payload: &[u8]) -> Result<()> {
        write_snapshot(&self.dir, sealed_gen, payload)?;
        for (gen, path) in numbered_files(&self.dir, "wal")? {
            if gen <= sealed_gen {
                let _ = std::fs::remove_file(path);
            }
        }
        for (gen, path) in numbered_files(&self.dir, "snap")? {
            if gen < sealed_gen {
                let _ = std::fs::remove_file(path);
            }
        }
        // Only the live generation's bytes remain unsnapshotted.
        self.tail_bytes = self.wal.len_bytes();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scope-store-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_dir_starts_at_gen_one() {
        let dir = tmp("fresh");
        let (log, rec) = LogDir::open(&dir).unwrap();
        assert_eq!(log.gen(), 1);
        assert!(rec.snapshot.is_none());
        assert!(rec.records.is_empty());
        assert_eq!(rec.dropped_bytes, 0);
    }

    #[test]
    fn records_survive_reopen() {
        let dir = tmp("reopen");
        let (mut log, _) = LogDir::open(&dir).unwrap();
        log.append(b"a").unwrap();
        log.append(b"b").unwrap();
        drop(log);
        let (log, rec) = LogDir::open(&dir).unwrap();
        assert_eq!(rec.records, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(log.gen(), 1);
        assert!(log.tail_bytes() > 0);
    }

    #[test]
    fn snapshot_compacts_and_tail_replays_after_it() {
        let dir = tmp("compact");
        let (mut log, _) = LogDir::open(&dir).unwrap();
        log.append(b"pre-1").unwrap();
        log.append(b"pre-2").unwrap();
        let sealed = log.rotate().unwrap();
        // (caller exports state here, lock-free)
        log.append(b"post").unwrap();
        log.seal_snapshot(sealed, b"STATE").unwrap();
        assert_eq!(log.gen(), 2);
        drop(log);
        let (log, rec) = LogDir::open(&dir).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(b"STATE".as_slice()));
        assert_eq!(rec.records, vec![b"post".to_vec()]);
        assert_eq!(log.gen(), 2);
        // wal.1 was pruned.
        assert!(!LogDir::wal_path(&dir, 1).exists());
    }

    /// A sealed `wal.1` (`one`, `one-b`) and a live `wal.2` (`two`).
    fn two_generations(dir: &Path) -> Vec<Vec<u8>> {
        let (mut log, _) = LogDir::open(dir).unwrap();
        log.append(b"one").unwrap();
        log.append(b"one-b").unwrap();
        log.rotate().unwrap(); // no snapshot sealed
        log.append(b"two").unwrap();
        vec![b"one".to_vec(), b"one-b".to_vec(), b"two".to_vec()]
    }

    #[test]
    fn generations_replay_in_order_and_a_torn_live_tail_drops_one_record() {
        let dir = tmp("live-torn");
        let want = two_generations(&dir);
        let (mut log, rec) = LogDir::open(&dir).unwrap();
        assert_eq!((&rec.records, rec.dropped_bytes, log.gen()), (&want, 0, 2));
        log.append(b"torn").unwrap();
        drop(log);
        let p2 = LogDir::wal_path(&dir, 2);
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..bytes.len() - 1]).unwrap();
        let (log, rec) = LogDir::open(&dir).unwrap();
        let header = crate::wal::RECORD_HEADER as u64;
        assert_eq!((rec.records, rec.dropped_bytes), (want, header + 4 - 1));
        assert_eq!(log.live_bytes(), header + 3);
    }

    /// Before the sealed-generation rule a torn `wal.1` was truncated and
    /// `wal.2` skipped but left on disk, so the next `rotate` reopened it
    /// and replay spliced `two` back in *after* records appended later.
    /// Refusing, with every file left as found, leaves no half-recovered
    /// log to append to.
    #[test]
    fn damaged_sealed_generation_fails_open_and_is_left_as_found() {
        let dir = tmp("sealed");
        two_generations(&dir);
        let (p1, p2) = (LogDir::wal_path(&dir, 1), LogDir::wal_path(&dir, 2));
        let (clean, live) = (std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        // A checksum failure with intact records after it, and a torn tail.
        let mut flipped = clean.clone();
        flipped[crate::wal::RECORD_HEADER] ^= 0x01;
        for damaged in [&flipped[..], &clean[..clean.len() - 1]] {
            std::fs::write(&p1, damaged).unwrap();
            for _ in 0..2 {
                assert!(matches!(LogDir::open(&dir), Err(StoreError::Corrupt(_))));
                assert_eq!(std::fs::read(&p1).unwrap(), damaged);
                assert_eq!(std::fs::read(&p2).unwrap(), live);
            }
        }
        std::fs::write(&p1, &clean).unwrap();
        assert!(LogDir::open(&dir).is_ok(), "restored log must open");
    }

    #[test]
    fn tail_bytes_reset_by_snapshot() {
        let dir = tmp("tailbytes");
        let (mut log, _) = LogDir::open(&dir).unwrap();
        log.append(&[0u8; 100]).unwrap();
        let before = log.tail_bytes();
        assert!(before >= 100);
        let sealed = log.rotate().unwrap();
        log.seal_snapshot(sealed, b"s").unwrap();
        assert_eq!(log.tail_bytes(), 0);
    }
}
