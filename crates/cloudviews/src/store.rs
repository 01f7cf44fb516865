//! Durable state for the CloudViews services (DESIGN.md §16).
//!
//! Three independent stores live under one root directory:
//!
//! * `<root>/meta` — a [`LogDir`]: snapshot + WAL of *logical mutation
//!   events* against the metadata service ([`WalEvent`]). Every
//!   state-changing call appends its event before the in-memory mutation
//!   is acknowledged; cold start replays the newest snapshot plus the
//!   WAL tail and reproduces a byte-identical service (pinned submission
//!   times ride in the events, so visibility semantics survive restart).
//! * `<root>/repo` — a [`SegmentStore`] of workload-repository job
//!   records keyed by append sequence number (big-endian `u64`, so a
//!   scan yields records in original append order).
//! * `<root>/views` — a [`SegmentStore`] of published view files keyed
//!   by precise signature. [`DurableStore`] implements
//!   [`StorageEventSink`] so the storage manager mirrors publishes and
//!   deletes here as they happen.
//!
//! Replay is at-least-once: the snapshot protocol (rotate → export with
//! no log lock held → seal) may leave events in *both* the snapshot and
//! the surviving tail. Every [`WalEvent`] is therefore idempotent at its
//! pinned time — re-applying it to state that already reflects it is a
//! no-op.
//!
//! Lock ordering: the WAL mutex is a *leaf*. The metadata service appends
//! `LockGranted` while holding a shard's lock mutex, so nothing here may
//! call back into the services. The snapshot export closure runs with no
//! store lock held for the same reason (the exporter takes service locks).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use scope_common::codec::{CodecError, Dec, Enc};
use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::time::SimTime;
use scope_engine::repo::JobRecord;
use scope_engine::storage::{StorageEventSink, ViewFile};
use scope_store::log::LogDir;
use scope_store::segment::SegmentStore;
use scope_store::{Result, StoreError};

use crate::analyzer::SelectedView;
use crate::api::ReportRequest;
use crate::codec::{
    get_job_record, get_report_request, get_selected_view, get_sig, get_sigs, get_time,
    get_view_file, put_job_record, put_report_request, put_selected_view, put_sig, put_sigs,
    put_time, put_view_file,
};

/// Default WAL size past which `maybe_snapshot` compacts (4 MiB).
pub const DEFAULT_SNAPSHOT_THRESHOLD: u64 = 4 << 20;

/// MemTable size past which the key-value stores flush a segment.
const KV_FLUSH_THRESHOLD: u64 = 4 << 20;

/// One logical mutation of the metadata service, as logged to the WAL.
///
/// Events carry the *pinned* simulation times observed at append, never
/// live-clock reads, so replaying them later reproduces the original
/// visibility and expiry decisions exactly.
#[derive(Clone, Debug)]
pub enum WalEvent {
    /// An analyzer round shipped a fresh annotation set
    /// (`MetadataService::load_annotations_at`).
    LoadAnnotations {
        /// The selected views, in shipped order.
        selected: Vec<SelectedView>,
        /// Pinned load time (drives `keep_until`).
        now: SimTime,
    },
    /// A build lock was granted (`propose` returned `Acquired` — conflicts
    /// and takeover losses mutate nothing and are not logged).
    LockGranted {
        /// Precise signature being built.
        precise: Sig128,
        /// Winning job.
        holder: JobId,
        /// Pinned grant time.
        at: SimTime,
        /// Lease expiry (`at + lock_ttl`).
        expires_at: SimTime,
    },
    /// A materialized view was registered (`register`). The full request
    /// is logged; replay re-runs registration, which also clears the
    /// build lock exactly as the live path does.
    Register(Box<ReportRequest>),
    /// A janitor sweep purged one shard at a pinned time.
    PurgeShard {
        /// Shard index swept.
        index: u32,
        /// Pinned sweep time.
        now: SimTime,
    },
    /// Views force-unregistered (dead-view fallback) at a pinned time.
    Unregister {
        /// Precise signatures removed.
        precise: Vec<Sig128>,
        /// Pinned removal time (live views at this instant survive).
        now: SimTime,
    },
}

const TAG_LOAD_ANNOTATIONS: u8 = 1;
const TAG_LOCK_GRANTED: u8 = 2;
const TAG_REGISTER: u8 = 3;
const TAG_PURGE_SHARD: u8 = 4;
const TAG_UNREGISTER: u8 = 5;

impl WalEvent {
    /// Serializes the event to a WAL record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalEvent::LoadAnnotations { selected, now } => {
                e.put_u8(TAG_LOAD_ANNOTATIONS);
                put_time(&mut e, *now);
                e.put_seq(selected.len());
                for s in selected {
                    put_selected_view(&mut e, s);
                }
            }
            WalEvent::LockGranted {
                precise,
                holder,
                at,
                expires_at,
            } => {
                e.put_u8(TAG_LOCK_GRANTED);
                put_sig(&mut e, *precise);
                e.put_u64(holder.raw());
                put_time(&mut e, *at);
                put_time(&mut e, *expires_at);
            }
            WalEvent::Register(req) => {
                e.put_u8(TAG_REGISTER);
                put_report_request(&mut e, req);
            }
            WalEvent::PurgeShard { index, now } => {
                e.put_u8(TAG_PURGE_SHARD);
                e.put_u32(*index);
                put_time(&mut e, *now);
            }
            WalEvent::Unregister { precise, now } => {
                e.put_u8(TAG_UNREGISTER);
                put_sigs(&mut e, precise);
                put_time(&mut e, *now);
            }
        }
        e.buf
    }

    /// Decodes an event from a WAL record payload.
    pub fn decode(payload: &[u8]) -> std::result::Result<WalEvent, CodecError> {
        let mut d = Dec::new(payload);
        let ev = match d.u8()? {
            TAG_LOAD_ANNOTATIONS => {
                let now = get_time(&mut d)?;
                let n = d.seq()?;
                let mut selected = Vec::with_capacity(n);
                for _ in 0..n {
                    selected.push(get_selected_view(&mut d)?);
                }
                WalEvent::LoadAnnotations { selected, now }
            }
            TAG_LOCK_GRANTED => WalEvent::LockGranted {
                precise: get_sig(&mut d)?,
                holder: JobId::new(d.u64()?),
                at: get_time(&mut d)?,
                expires_at: get_time(&mut d)?,
            },
            TAG_REGISTER => WalEvent::Register(Box::new(get_report_request(&mut d)?)),
            TAG_PURGE_SHARD => WalEvent::PurgeShard {
                index: d.u32()?,
                now: get_time(&mut d)?,
            },
            TAG_UNREGISTER => WalEvent::Unregister {
                precise: get_sigs(&mut d)?,
                now: get_time(&mut d)?,
            },
            t => {
                return Err(scope_common::codec::malformed(format!(
                    "unknown wal event tag {t}"
                )))
            }
        };
        d.finish()?;
        Ok(ev)
    }
}

/// Everything read back from disk at cold start, already decoded.
pub struct RecoveredState {
    /// Raw payload of the newest valid metadata snapshot, if any
    /// (decoded by the runtime builder, which owns the layout).
    pub snapshot: Option<Vec<u8>>,
    /// WAL events after the snapshot, in append order.
    pub events: Vec<WalEvent>,
    /// Workload-repository records in original append order.
    pub records: Vec<JobRecord>,
    /// Published view files that were live at shutdown.
    pub views: Vec<ViewFile>,
    /// Bytes of torn WAL tail dropped during recovery (0 on clean
    /// shutdown; nonzero means the crash tore the final record and
    /// recovery truncated to the last clean boundary).
    pub dropped_bytes: u64,
}

/// Handle to the on-disk state; shared by the metadata service (event
/// appends), the storage manager (view mirror), the workload repository
/// (record mirror), and the runtime (snapshots).
pub struct DurableStore {
    root: PathBuf,
    meta_log: Mutex<LogDir>,
    repo_kv: Mutex<SegmentStore>,
    views_kv: Mutex<SegmentStore>,
    /// Guards against concurrent snapshot attempts (the loser skips).
    snapshotting: AtomicBool,
    snapshot_threshold: u64,
}

fn sig_key(sig: Sig128) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&sig.hi.to_be_bytes());
    k[8..].copy_from_slice(&sig.lo.to_be_bytes());
    k
}

fn corrupt(what: &str, e: CodecError) -> StoreError {
    StoreError::Corrupt(format!("{what}: {}", e.0))
}

impl DurableStore {
    /// Opens (or creates) the store under `root` and recovers whatever
    /// state is on disk. `snapshot_threshold` is the WAL byte size past
    /// which [`DurableStore::maybe_snapshot`] compacts.
    pub fn open(
        root: &Path,
        snapshot_threshold: u64,
    ) -> Result<(Arc<DurableStore>, RecoveredState)> {
        let (meta_log, recovered) = LogDir::open(&root.join("meta"))?;
        let mut events = Vec::with_capacity(recovered.records.len());
        for payload in &recovered.records {
            // Checksummed records that fail to decode mean a format
            // mismatch (or bug), not a torn write — surface loudly.
            events.push(WalEvent::decode(payload).map_err(|e| corrupt("wal event", e))?);
        }

        let repo_kv = SegmentStore::open(&root.join("repo"), KV_FLUSH_THRESHOLD)?;
        let mut records = Vec::new();
        // Keys are big-endian sequence numbers, so the sorted scan is
        // append order.
        for (_, val) in repo_kv.scan()? {
            let mut d = Dec::new(&val);
            let rec = get_job_record(&mut d).map_err(|e| corrupt("job record", e))?;
            records.push(rec);
        }

        let views_kv = SegmentStore::open(&root.join("views"), KV_FLUSH_THRESHOLD)?;
        let mut views = Vec::new();
        for (_, val) in views_kv.scan()? {
            let mut d = Dec::new(&val);
            let vf = get_view_file(&mut d).map_err(|e| corrupt("view file", e))?;
            views.push(vf);
        }

        let store = Arc::new(DurableStore {
            root: root.to_path_buf(),
            meta_log: Mutex::new(meta_log),
            repo_kv: Mutex::new(repo_kv),
            views_kv: Mutex::new(views_kv),
            snapshotting: AtomicBool::new(false),
            snapshot_threshold,
        });
        let state = RecoveredState {
            snapshot: recovered.snapshot,
            events,
            records,
            views,
            dropped_bytes: recovered.dropped_bytes,
        };
        Ok((store, state))
    }

    /// True when `root` already holds durable metadata state.
    pub fn has_state(root: &Path) -> bool {
        scope_store::log::has_state(&root.join("meta"))
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Appends one metadata event to the WAL, before the corresponding
    /// in-memory mutation is acknowledged.
    ///
    /// Panics on IO error: the hook sites (inside the metadata service's
    /// mutation paths) are infallible by signature, and acking a mutation
    /// that was not logged would silently break the recovery contract.
    pub fn append_event(&self, ev: &WalEvent) {
        self.meta_log
            .lock()
            .append(&ev.encode())
            .expect("scope-store: WAL append failed; cannot ack unlogged mutation");
    }

    /// Mirrors one workload-repository append (`seq` is the record's
    /// index in append order). Same panic contract as [`Self::append_event`].
    pub fn record_job(&self, seq: u64, record: &JobRecord) {
        let mut e = Enc::new();
        put_job_record(&mut e, record);
        self.repo_kv
            .lock()
            .put(&seq.to_be_bytes(), &e.buf)
            .expect("scope-store: repo put failed; cannot ack unlogged record");
    }

    /// Current metadata WAL tail size (bytes since the last snapshot).
    pub fn tail_bytes(&self) -> u64 {
        self.meta_log.lock().tail_bytes()
    }

    /// Takes a snapshot if the WAL tail has outgrown the threshold.
    /// `export` must serialize the *current* service state; it runs with
    /// no store lock held (it takes service locks itself). Returns `true`
    /// when a snapshot was written.
    pub fn maybe_snapshot(&self, export: impl FnOnce() -> Vec<u8>) -> Result<bool> {
        if self.meta_log.lock().tail_bytes() < self.snapshot_threshold {
            return Ok(false);
        }
        self.snapshot_now(export)
    }

    /// Unconditionally snapshots (compacting the WAL), unless another
    /// snapshot is already in flight (then returns `Ok(false)`).
    ///
    /// Protocol: rotate the WAL (log lock) → export state (no log lock;
    /// events landing now go to the fresh tail, and may *also* appear in
    /// the snapshot — benign, replay is idempotent) → seal (log lock;
    /// prunes the old generations).
    pub fn snapshot_now(&self, export: impl FnOnce() -> Vec<u8>) -> Result<bool> {
        if self
            .snapshotting
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Ok(false);
        }
        let result = (|| {
            let sealed_gen = self.meta_log.lock().rotate()?;
            let payload = export();
            self.meta_log.lock().seal_snapshot(sealed_gen, &payload)?;
            // Push bulk stores to segments too, so restart replays less
            // of their WALs.
            self.repo_kv.lock().flush()?;
            self.views_kv.lock().flush()?;
            Ok(true)
        })();
        self.snapshotting.store(false, Ordering::Release);
        result
    }

    /// Forces all buffered bytes to the OS (crash-of-process safe without
    /// this; this is for tests that want a clean boundary).
    pub fn sync(&self) -> Result<()> {
        self.meta_log.lock().sync()
    }
}

impl StorageEventSink for DurableStore {
    fn view_published(&self, view: &ViewFile) {
        let mut e = Enc::new();
        put_view_file(&mut e, view);
        self.views_kv
            .lock()
            .put(&sig_key(view.meta.precise), &e.buf)
            .expect("scope-store: view put failed; cannot ack unlogged publish");
    }

    fn view_deleted(&self, precise: Sig128) {
        self.views_kv
            .lock()
            .delete(&sig_key(precise))
            .expect("scope-store: view tombstone failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_engine::optimizer::AvailableView;

    fn sig(n: u64) -> Sig128 {
        Sig128 {
            lo: n,
            hi: n ^ 0xabcd,
        }
    }

    fn sample_events() -> Vec<WalEvent> {
        vec![
            WalEvent::LockGranted {
                precise: sig(7),
                holder: JobId::new(42),
                at: SimTime(1_000),
                expires_at: SimTime(61_000),
            },
            WalEvent::Register(Box::new(ReportRequest::new(
                AvailableView {
                    precise: sig(7),
                    rows: 10,
                    bytes: 1024,
                    props: Default::default(),
                },
                sig(9),
                JobId::new(42),
                SimTime(61_000),
                SimTime(1_000_000),
            ))),
            WalEvent::PurgeShard {
                index: 5,
                now: SimTime(70_000),
            },
            WalEvent::Unregister {
                precise: vec![sig(7), sig(8)],
                now: SimTime(80_000),
            },
        ]
    }

    #[test]
    fn wal_events_round_trip() {
        for ev in sample_events() {
            let bytes = ev.encode();
            let back = WalEvent::decode(&bytes).expect("decode");
            // Byte stability doubles as the equality check: re-encoding
            // the decoded event must reproduce the input exactly.
            assert_eq!(bytes, back.encode());
        }
    }

    #[test]
    fn open_recovers_events_and_records() {
        let dir = std::env::temp_dir().join(format!("cv-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let events = sample_events();
        {
            let (store, rec) = DurableStore::open(&dir, 1 << 20).expect("open");
            assert!(rec.events.is_empty());
            assert!(rec.records.is_empty());
            for ev in &events {
                store.append_event(ev);
            }
        }
        let (_, rec) = DurableStore::open(&dir, 1 << 20).expect("reopen");
        let got: Vec<Vec<u8>> = rec.events.iter().map(WalEvent::encode).collect();
        let want: Vec<Vec<u8>> = events.iter().map(WalEvent::encode).collect();
        assert_eq!(got, want);
        assert_eq!(rec.dropped_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_tag_is_malformed() {
        assert!(WalEvent::decode(&[99]).is_err());
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut bytes = WalEvent::PurgeShard {
            index: 1,
            now: SimTime(5),
        }
        .encode();
        bytes.push(0);
        assert!(WalEvent::decode(&bytes).is_err());
    }
}
