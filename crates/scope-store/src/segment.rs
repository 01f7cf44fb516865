//! Log-structured key-value store: MemTable → WAL → sorted segment files,
//! per the classic LSM layering.
//!
//! Writes go to an in-memory `BTreeMap` (the MemTable) *after* being
//! appended to `kv.wal`; when the MemTable exceeds its flush threshold it
//! is written out as an immutable, sorted segment file `seg.N`
//! (atomically: tmp + checksum + rename) and the WAL is reset. Deletes are
//! tombstones so a delete in a newer layer shadows a put in an older one.
//! The only read is [`SegmentStore::scan`], which recovery issues once per
//! store: segments oldest-first, then the MemTable, newest layer winning.
//! Flushed segments are not kept in memory.
//!
//! Segment file format (little-endian, `b"SEG2"` magic, `u64` sip64
//! checksum of everything after it):
//!
//! | field        | encoding                                        |
//! |--------------|-------------------------------------------------|
//! | entry count  | `u32`                                           |
//! | entries      | `u32` klen, key, `u8` tombstone, `u32` vlen, val|
//!
//! Entries are sorted by key.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use scope_common::hash::sip64;

use crate::snapshot::numbered_files;
use crate::wal::Wal;
use crate::{Result, StoreError};

const MAGIC: &[u8; 4] = b"SEG2";

/// Key → value; a `None` value is a tombstone.
type Entries = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

/// Minimal bounds-checked reader for segment decoding (the generic codec
/// lives in `scope_common`; this stays dependency-light on purpose).
struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::Corrupt("segment truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
}

/// Atomically writes `entries` as the segment file at `path`.
fn write_segment(path: &Path, entries: &Entries) -> Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (k, v) in entries {
        payload.extend_from_slice(&(k.len() as u32).to_le_bytes());
        payload.extend_from_slice(k);
        match v {
            Some(v) => {
                payload.push(0);
                payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                payload.extend_from_slice(v);
            }
            None => {
                payload.push(1);
                payload.extend_from_slice(&0u32.to_le_bytes());
            }
        }
    }
    let mut bytes = Vec::with_capacity(12 + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&sip64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates the segment file at `path`, applying its entries
/// over `into` (so a newer segment's entry replaces an older one's).
fn read_segment(path: &Path, into: &mut Entries) -> Result<()> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 12 || &bytes[..4] != MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{}: bad segment header",
            path.display()
        )));
    }
    let checksum = u64::from_le_bytes(bytes[4..12].try_into().expect("8"));
    let payload = &bytes[12..];
    if sip64(payload) != checksum {
        return Err(StoreError::Corrupt(format!(
            "{}: segment checksum mismatch",
            path.display()
        )));
    }
    let mut r = SliceReader {
        buf: payload,
        pos: 0,
    };
    for _ in 0..r.u32()? {
        let klen = r.u32()? as usize;
        let key = r.take(klen)?.to_vec();
        let tomb = r.u8()? != 0;
        let vlen = r.u32()? as usize;
        let val = r.take(vlen)?.to_vec();
        into.insert(key, if tomb { None } else { Some(val) });
    }
    Ok(())
}

/// The store: MemTable over a WAL over sorted segment files.
pub struct SegmentStore {
    dir: PathBuf,
    /// MemTable; `None` value is a tombstone awaiting flush.
    mem: Entries,
    mem_bytes: u64,
    wal: Wal,
    /// Number the next flushed segment gets. Segments are numbered densely
    /// from 1 (nothing merges or deletes them), so this also counts them.
    next_seg: u64,
    flush_threshold: u64,
}

impl SegmentStore {
    /// Opens `dir`, replaying `kv.wal` into the MemTable. Segment files
    /// are only counted here; [`SegmentStore::scan`] reads and validates
    /// them. `flush_threshold` bounds MemTable bytes before an automatic
    /// flush.
    pub fn open(dir: &Path, flush_threshold: u64) -> Result<SegmentStore> {
        std::fs::create_dir_all(dir)?;
        let next_seg = numbered_files(dir, "seg")?
            .last()
            .map_or(1, |(num, _)| num + 1);
        let (wal, records, _report) = Wal::open(&dir.join("kv.wal"))?;
        let mut store = SegmentStore {
            dir: dir.to_path_buf(),
            mem: BTreeMap::new(),
            mem_bytes: 0,
            wal,
            next_seg,
            flush_threshold,
        };
        for rec in records {
            if let Some((key, val)) = decode_kv_record(&rec) {
                store.apply_mem(key, val);
            }
        }
        Ok(store)
    }

    fn apply_mem(&mut self, key: Vec<u8>, val: Option<Vec<u8>>) {
        self.mem_bytes += (key.len() + val.as_ref().map_or(0, |v| v.len()) + 16) as u64;
        self.mem.insert(key, val);
    }

    fn log_and_apply(&mut self, key: &[u8], val: Option<&[u8]>) -> Result<()> {
        self.wal.append(&encode_kv_record(key, val))?;
        self.apply_mem(key.to_vec(), val.map(|v| v.to_vec()));
        if self.mem_bytes >= self.flush_threshold {
            self.flush()?;
        }
        Ok(())
    }

    /// Durably inserts or replaces `key`.
    pub fn put(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.log_and_apply(key, Some(val))
    }

    /// Durably deletes `key` (a tombstone shadows older segments).
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.log_and_apply(key, None)
    }

    /// All live entries, sorted by key, tombstones resolved. Reads and
    /// checksums every segment file; a corrupt one would have had to tear
    /// an atomic rename, so it is an error rather than silently dropped
    /// committed data.
    pub fn scan(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut merged = Entries::new();
        for (_, path) in numbered_files(&self.dir, "seg")? {
            read_segment(&path, &mut merged)?;
        }
        for (k, v) in &self.mem {
            merged.insert(k.clone(), v.clone());
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// Writes the MemTable out as the next segment and resets the WAL.
    /// No-op when the MemTable is empty.
    pub fn flush(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        write_segment(&self.dir.join(format!("seg.{}", self.next_seg)), &self.mem)?;
        self.next_seg += 1;
        self.mem.clear();
        self.mem_bytes = 0;
        self.wal.reset()?;
        Ok(())
    }

    /// Number of on-disk segments (for tests and telemetry).
    pub fn num_segments(&self) -> usize {
        (self.next_seg - 1) as usize
    }

    /// Entries currently buffered in the MemTable.
    pub fn mem_entries(&self) -> usize {
        self.mem.len()
    }
}

fn encode_kv_record(key: &[u8], val: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + key.len() + val.map_or(0, |v| v.len()));
    out.push(if val.is_some() { 0 } else { 1 });
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    if let Some(v) = val {
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

fn decode_kv_record(rec: &[u8]) -> Option<(Vec<u8>, Option<Vec<u8>>)> {
    let mut r = SliceReader { buf: rec, pos: 0 };
    let tomb = r.u8().ok()? != 0;
    let klen = r.u32().ok()? as usize;
    let key = r.take(klen).ok()?.to_vec();
    if tomb {
        return Some((key, None));
    }
    let vlen = r.u32().ok()? as usize;
    let val = r.take(vlen).ok()?.to_vec();
    Some((key, Some(val)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scope-store-seg-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn kv(k: &[u8], v: &[u8]) -> (Vec<u8>, Vec<u8>) {
        (k.to_vec(), v.to_vec())
    }

    #[test]
    fn put_delete_round_trip() {
        let dir = tmp("pgd");
        let mut s = SegmentStore::open(&dir, 1 << 20).unwrap();
        s.put(b"k1", b"v1").unwrap();
        s.put(b"k2", b"v2").unwrap();
        s.delete(b"k1").unwrap();
        assert_eq!(s.scan().unwrap(), vec![kv(b"k2", b"v2")]);
    }

    #[test]
    fn wal_replay_recovers_unflushed_writes() {
        let dir = tmp("replay");
        let mut s = SegmentStore::open(&dir, 1 << 20).unwrap();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        drop(s); // never flushed — everything lives in kv.wal
        let s = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(s.num_segments(), 0);
        assert_eq!(s.scan().unwrap(), vec![kv(b"a", b"1"), kv(b"b", b"2")]);
    }

    #[test]
    fn flush_writes_segment_and_resets_wal() {
        let dir = tmp("flush");
        let mut s = SegmentStore::open(&dir, 1 << 20).unwrap();
        // Big-endian keys, so key order is numeric order.
        let want: Vec<_> = (0..100u32)
            .map(|i| kv(&i.to_be_bytes(), &(i * 2).to_le_bytes()))
            .collect();
        for (k, v) in &want {
            s.put(k, v).unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.num_segments(), 1);
        assert_eq!(s.mem_entries(), 0);
        assert_eq!(s.scan().unwrap(), want);
        drop(s);
        let s = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(s.num_segments(), 1);
        assert_eq!(s.mem_entries(), 0, "flush must have reset kv.wal");
        assert_eq!(s.scan().unwrap(), want);
    }

    #[test]
    fn tombstone_in_newer_layer_shadows_older_segment() {
        let dir = tmp("shadow");
        let mut s = SegmentStore::open(&dir, 1 << 20).unwrap();
        s.put(b"doomed", b"old").unwrap();
        s.put(b"kept", b"v").unwrap();
        s.flush().unwrap();
        s.delete(b"doomed").unwrap();
        assert_eq!(s.scan().unwrap(), vec![kv(b"kept", b"v")]);
        drop(s);
        let mut s = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(s.scan().unwrap(), vec![kv(b"kept", b"v")]);
        s.flush().unwrap(); // tombstone flushed into its own segment
        drop(s);
        let s = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(s.num_segments(), 2);
        assert_eq!(s.scan().unwrap(), vec![kv(b"kept", b"v")]);
    }

    #[test]
    fn auto_flush_past_threshold() {
        let dir = tmp("auto");
        let mut s = SegmentStore::open(&dir, 256).unwrap();
        let want: Vec<_> = (0..64u32)
            .map(|i| kv(&i.to_be_bytes(), &[0u8; 16]))
            .collect();
        for (k, v) in &want {
            s.put(k, v).unwrap();
        }
        assert!(s.num_segments() >= 1, "threshold never triggered a flush");
        assert_eq!(s.scan().unwrap(), want);
    }

    #[test]
    fn torn_kv_wal_tail_drops_only_last_write() {
        let dir = tmp("torn");
        let mut s = SegmentStore::open(&dir, 1 << 20).unwrap();
        s.put(b"safe", b"1").unwrap();
        s.put(b"torn", b"2").unwrap();
        drop(s);
        let wal_path = dir.join("kv.wal");
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 1]).unwrap();
        let s = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(s.scan().unwrap(), vec![kv(b"safe", b"1")]);
    }
}
