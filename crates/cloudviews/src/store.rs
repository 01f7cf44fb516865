//! Durable state for the CloudViews services (DESIGN.md §16).
//!
//! Three independent [`LogDir`]s live under one root directory — one
//! on-disk format, read back by one scan each at cold start:
//!
//! * `<root>/meta` — snapshot + WAL of *logical mutation events* against
//!   the metadata service ([`WalEvent`]). Every state-changing call
//!   appends its event before the in-memory mutation is acknowledged;
//!   cold start replays the newest snapshot plus the WAL tail and
//!   reproduces a byte-identical service (pinned submission times ride in
//!   the events, so visibility semantics survive restart).
//! * `<root>/repo` — workload-repository job records, each payload
//!   `[u64 seq][job record]`. The record sink runs outside the
//!   repository's lock, so appends may land out of order; recovery
//!   stable-sorts by `seq` to restore the original append order.
//! * `<root>/views` — published view files, each payload `[0][view file]`
//!   (publish) or `[1][precise sig]` (delete), folded newest-wins at
//!   recovery. [`DurableStore`] implements [`StorageEventSink`] so the
//!   storage manager mirrors publishes and deletes here as they happen.
//!
//! `repo/` and `views/` never snapshot: their live generation is sealed
//! (`LogDir::rotate`, which fsyncs it) past `BULK_ROTATE_THRESHOLD` and
//! at every metadata snapshot, and every generation is replayed on open.
//!
//! Replay is at-least-once: the snapshot protocol (rotate → export with
//! no log lock held → seal) may leave events in *both* the snapshot and
//! the surviving tail. Every [`WalEvent`] is therefore idempotent at its
//! pinned time — re-applying it to state that already reflects it is a
//! no-op.
//!
//! Lock ordering: the WAL mutex is a *leaf*. The metadata service appends
//! every event while holding its catalog write lock, so nothing here may
//! call back into the services. The snapshot export closure runs with no
//! store lock held for the same reason (the exporter takes service locks).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::time::SimTime;
use scope_engine::repo::JobRecord;
use scope_engine::storage::{StorageEventSink, ViewFile};
use scope_store::log::LogDir;
use scope_store::snapshot::numbered_files;
use scope_store::{Result, StoreError};

use crate::analyzer::SelectedView;
use crate::api::ReportRequest;
use crate::codec::{malformed, Codec, CodecError, Dec, Enc};

/// Default WAL size past which `maybe_snapshot` compacts (4 MiB).
pub const DEFAULT_SNAPSHOT_THRESHOLD: u64 = 4 << 20;

/// Live-generation size past which the `repo/` and `views/` logs rotate.
const BULK_ROTATE_THRESHOLD: u64 = 4 << 20;

/// `views/` payload tags: `(VIEW_PUT, ViewFile)` and `(VIEW_DELETE,
/// Sig128)`. A view file's encoding leads with its precise signature, so
/// either payload reads as `(u8, Sig128)`: tag, then the signature it is
/// about. `repo/` payloads are `(u64, JobRecord)`: sequence, then record.
const VIEW_PUT: u8 = 0;
const VIEW_DELETE: u8 = 1;

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
    /// Expired views, locks and stranded annotations were purged at a
    /// pinned time. The name and the `index` field date from a sixteen-shard
    /// catalog that logged one event per shard; the bytes are kept so those
    /// logs still replay (ROADMAP item 10(c)).
    PurgeShard {
        /// Always 0 when written; ignored on replay.
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

impl Codec for WalEvent {
    fn put(&self, e: &mut Enc) {
        match self {
            WalEvent::LoadAnnotations { selected, now } => {
                e.put_u8(TAG_LOAD_ANNOTATIONS);
                now.put(e);
                selected.put(e);
            }
            WalEvent::LockGranted {
                precise,
                holder,
                at,
                expires_at,
            } => {
                e.put_u8(TAG_LOCK_GRANTED);
                precise.put(e);
                holder.put(e);
                at.put(e);
                expires_at.put(e);
            }
            WalEvent::Register(req) => {
                e.put_u8(TAG_REGISTER);
                req.put(e);
            }
            WalEvent::PurgeShard { index, now } => {
                e.put_u8(TAG_PURGE_SHARD);
                index.put(e);
                now.put(e);
            }
            WalEvent::Unregister { precise, now } => {
                e.put_u8(TAG_UNREGISTER);
                precise.put(e);
                now.put(e);
            }
        }
    }

    fn get(d: &mut Dec) -> std::result::Result<WalEvent, CodecError> {
        Ok(match d.u8()? {
            TAG_LOAD_ANNOTATIONS => WalEvent::LoadAnnotations {
                now: Codec::get(d)?,
                selected: Codec::get(d)?,
            },
            TAG_LOCK_GRANTED => WalEvent::LockGranted {
                precise: Codec::get(d)?,
                holder: Codec::get(d)?,
                at: Codec::get(d)?,
                expires_at: Codec::get(d)?,
            },
            TAG_REGISTER => WalEvent::Register(Codec::get(d)?),
            TAG_PURGE_SHARD => WalEvent::PurgeShard {
                index: Codec::get(d)?,
                now: Codec::get(d)?,
            },
            TAG_UNREGISTER => WalEvent::Unregister {
                precise: Codec::get(d)?,
                now: Codec::get(d)?,
            },
            t => return Err(malformed(format!("unknown wal event tag {t}"))),
        })
    }
}

impl WalEvent {
    /// Serializes the event to a WAL record payload.
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }

    /// Decodes an event from a WAL record payload.
    pub fn decode(payload: &[u8]) -> std::result::Result<WalEvent, CodecError> {
        WalEvent::from_bytes(payload)
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
    /// Published view files that were live at shutdown, sorted by
    /// precise signature.
    pub views: Vec<ViewFile>,
    /// Bytes of torn tail dropped during recovery, summed over the three
    /// logs (0 on clean shutdown; nonzero means the crash tore a final
    /// record and recovery truncated to the last clean boundary).
    pub dropped_bytes: u64,
}

/// Handle to the on-disk state; shared by the metadata service (event
/// appends), the storage manager (view mirror), the workload repository
/// (record mirror), and the runtime (snapshots).
pub struct DurableStore {
    meta_log: Mutex<LogDir>,
    repo_log: Mutex<LogDir>,
    views_log: Mutex<LogDir>,
    /// Guards against concurrent snapshot attempts (the loser skips).
    snapshotting: AtomicBool,
    snapshot_threshold: u64,
}

fn corrupt(what: &str, e: CodecError) -> StoreError {
    StoreError::Corrupt(format!("{what}: {}", e.0))
}

/// Refuses a `repo/` or `views/` directory written before both moved onto
/// [`LogDir`]: its `kv.wal` + `seg.N` files would otherwise open as an
/// *empty* log. There is no migration reader.
fn refuse_old_layout(dir: &Path) -> Result<()> {
    if dir.join("kv.wal").exists() || !numbered_files(dir, "seg")?.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "{}: holds the old kv.wal + seg.N segment-store layout; \
             this build reads only wal.N log generations",
            dir.display()
        )));
    }
    Ok(())
}

/// Appends to a bulk log and seals its live generation once that has
/// outgrown [`BULK_ROTATE_THRESHOLD`].
fn append_bulk(log: &Mutex<LogDir>, payload: &[u8]) -> Result<()> {
    let mut log = log.lock();
    log.append(payload)?;
    if log.live_bytes() >= BULK_ROTATE_THRESHOLD {
        log.rotate()?;
    }
    Ok(())
}

impl DurableStore {
    /// Opens (or creates) the store under `root` and recovers whatever
    /// state is on disk. `snapshot_threshold` is the WAL byte size past
    /// which [`DurableStore::maybe_snapshot`] compacts.
    pub fn open(
        root: &Path,
        snapshot_threshold: u64,
    ) -> Result<(Arc<DurableStore>, RecoveredState)> {
        refuse_old_layout(&root.join("repo"))?;
        refuse_old_layout(&root.join("views"))?;

        let (meta_log, meta_rec) = LogDir::open(&root.join("meta"))?;
        let mut events = Vec::with_capacity(meta_rec.records.len());
        for payload in &meta_rec.records {
            // Checksummed records that fail to decode mean a format
            // mismatch (or bug), not a torn write — surface loudly.
            events.push(WalEvent::decode(payload).map_err(|e| corrupt("wal event", e))?);
        }

        let (repo_log, repo_rec) = LogDir::open(&root.join("repo"))?;
        let mut records = Vec::with_capacity(repo_rec.records.len());
        for payload in &repo_rec.records {
            records.push(
                <(u64, JobRecord)>::from_bytes(payload).map_err(|e| corrupt("job record", e))?,
            );
        }
        // Log order is sink-call order; `seq` is append order.
        records.sort_by_key(|(seq, _)| *seq);

        let (views_log, views_rec) = LogDir::open(&root.join("views"))?;
        let mut live = BTreeMap::new();
        for payload in &views_rec.records {
            let (tag, precise) = <(u8, Sig128)>::get(&mut Dec::new(payload))
                .map_err(|e| corrupt("view log record", e))?;
            match tag {
                VIEW_PUT => live.insert(precise, payload),
                VIEW_DELETE => live.remove(&precise),
                t => {
                    return Err(StoreError::Corrupt(format!(
                        "view log: unknown record tag {t}"
                    )))
                }
            };
        }
        // Only the survivors are decoded, in precise-signature order.
        let views = live
            .into_values()
            .map(|bytes| {
                let (_, view) =
                    <(u8, ViewFile)>::from_bytes(bytes).map_err(|e| corrupt("view file", e))?;
                Ok(view)
            })
            .collect::<Result<Vec<_>>>()?;

        let store = Arc::new(DurableStore {
            meta_log: Mutex::new(meta_log),
            repo_log: Mutex::new(repo_log),
            views_log: Mutex::new(views_log),
            snapshotting: AtomicBool::new(false),
            snapshot_threshold,
        });
        let state = RecoveredState {
            snapshot: meta_rec.snapshot,
            events,
            records: records.into_iter().map(|(_, rec)| rec).collect(),
            views,
            dropped_bytes: meta_rec.dropped_bytes
                + repo_rec.dropped_bytes
                + views_rec.dropped_bytes,
        };
        Ok((store, state))
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
        // The `(u64, JobRecord)` recovery decodes, without cloning the record.
        let mut e = Enc::new();
        seq.put(&mut e);
        record.put(&mut e);
        append_bulk(&self.repo_log, &e.buf)
            .expect("scope-store: repo append failed; cannot ack unlogged record");
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
            // Seal what the bulk logs hold too (`rotate` fsyncs it), so a
            // snapshot is a durable point for all three logs.
            for log in [&self.repo_log, &self.views_log] {
                let mut log = log.lock();
                if log.live_bytes() > 0 {
                    log.rotate()?;
                }
            }
            Ok(true)
        })();
        self.snapshotting.store(false, Ordering::Release);
        result
    }
}

impl StorageEventSink for DurableStore {
    fn view_published(&self, view: &ViewFile) {
        let payload = (VIEW_PUT, view.clone()).to_bytes();
        append_bulk(&self.views_log, &payload)
            .expect("scope-store: view append failed; cannot ack unlogged publish");
    }

    fn view_deleted(&self, precise: Sig128) {
        let payload = (VIEW_DELETE, precise).to_bytes();
        append_bulk(&self.views_log, &payload).expect("scope-store: view delete append failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ProposeRequest;
    use crate::codec::MAX_SEQ;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use scope_common::ids::{ClusterId, NodeId, TemplateId, UserId, VcId};
    use scope_common::intern::Symbol;
    use scope_common::time::SimDuration;
    use scope_engine::data::Table;
    use scope_engine::optimizer::{Annotation, AvailableView};
    use scope_engine::repo::SubgraphRun;
    use scope_engine::storage::{StorageManager, ViewMeta};
    use scope_plan::interval::Interval;
    use scope_plan::{DataType, OpKind, PhysicalProps, Schema, Value};
    use scope_signature::{SubgraphInfo, SubsumeDescriptor, SubsumeDetail, SubsumeKind};
    use std::path::PathBuf;

    fn sig(n: u64) -> Sig128 {
        Sig128 {
            lo: n,
            hi: n ^ 0xabcd,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cv-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reopen(dir: &Path) -> RecoveredState {
        DurableStore::open(dir, 1 << 20).expect("reopen").1
    }

    /// A job record identified by its job id.
    fn job(n: u64) -> JobRecord {
        JobRecord {
            job: JobId::new(n),
            cluster: ClusterId::new(1),
            vc: VcId::new(2),
            user: UserId::new(3),
            template: TemplateId::new(4),
            instance: n,
            submitted_at: SimTime(n),
            latency: SimDuration::from_micros(10),
            cpu_time: SimDuration::from_micros(20),
            tags: Vec::new(),
            subgraphs: Vec::new(),
        }
    }

    /// A one-row view of `precise` whose single cell is `text`.
    fn view(precise: Sig128, text: &str) -> ViewFile {
        ViewFile {
            table: Arc::new(Table::single(
                Schema::from_pairs(&[("s", DataType::Str)]),
                vec![vec![Value::Str(text.into())]],
            )),
            props: PhysicalProps::single(),
            meta: ViewMeta {
                precise,
                normalized: sig(0),
                producer: JobId::new(1),
                created_at: SimTime(5),
                expires_at: SimTime(500),
                rows: 1,
                bytes: text.len() as u64,
            },
        }
    }

    /// `(precise, the one cell)` of every recovered view, in recovered order.
    fn cells(views: &[ViewFile]) -> Vec<(Sig128, String)> {
        let cell = |v: &ViewFile| match &v.table.partition_rows(0)[0][0] {
            Value::Str(s) => s.clone(),
            other => panic!("not a string cell: {other:?}"),
        };
        views.iter().map(|v| (v.meta.precise, cell(v))).collect()
    }

    fn generations(dir: &Path) -> Vec<u64> {
        let files = numbered_files(dir, "wal").unwrap();
        files.into_iter().map(|(gen, _)| gen).collect()
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
    fn open_recovers_events_records_in_seq_order_and_views() {
        let dir = tmp("reopen");
        let events = sample_events();
        {
            let (store, rec) = DurableStore::open(&dir, 1 << 20).expect("open");
            assert!(rec.events.is_empty() && rec.records.is_empty() && rec.views.is_empty());
            for ev in &events {
                store.append_event(ev);
            }
            // The record sink runs outside the repository lock, so seq 1
            // can reach the log before seq 0.
            store.record_job(1, &job(11));
            store.record_job(0, &job(10));
            store.view_published(&view(sig(7), "seven"));
            // dropped with nothing rotated: all three live generations replay
        }
        let rec = reopen(&dir);
        let got: Vec<Vec<u8>> = rec.events.iter().map(WalEvent::encode).collect();
        let want: Vec<Vec<u8>> = events.iter().map(WalEvent::encode).collect();
        assert_eq!(got, want);
        let jobs: Vec<u64> = rec.records.iter().map(|r| r.job.raw()).collect();
        assert_eq!(jobs, vec![10, 11]);
        assert_eq!(cells(&rec.views), vec![(sig(7), "seven".into())]);
        assert_eq!(rec.dropped_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn views_fold_newest_wins_across_generations_sorted_by_signature() {
        let dir = tmp("fold");
        // `hi` orders before `lo`, as the old big-endian key did.
        let (low, high) = (Sig128 { hi: 1, lo: 9 }, Sig128 { hi: 2, lo: 0 });
        {
            let (store, _) = DurableStore::open(&dir, 1 << 20).unwrap();
            store.view_published(&view(high, "first"));
            store.view_published(&view(sig(3), "doomed"));
            // A snapshot seals the non-empty views/ log, not the empty repo/.
            assert!(store.snapshot_now(Vec::new).unwrap());
            assert_eq!(generations(&dir.join("views")), vec![1, 2]);
            assert_eq!(generations(&dir.join("repo")), vec![1]);
            store.view_deleted(sig(3)); // shadows the sealed put
            store.view_deleted(high);
            store.view_published(&view(high, "last"));
            store.view_published(&view(low, "low"));
        }
        assert_eq!(
            cells(&reopen(&dir).views),
            vec![(low, "low".into()), (high, "last".into())]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bulk_log_rotates_past_threshold_and_replays_every_generation() {
        let dir = tmp("rotate");
        let big = "x".repeat(BULK_ROTATE_THRESHOLD as usize / 8);
        {
            let (store, _) = DurableStore::open(&dir, 1 << 20).unwrap();
            for n in 0..10 {
                store.view_published(&view(sig(n), &big));
            }
        }
        // The eighth publish crossed the threshold and sealed wal.1.
        assert_eq!(generations(&dir.join("views")), vec![1, 2]);
        let views = reopen(&dir).views;
        assert_eq!(views.len(), 10);
        assert!(views.iter().all(|v| v.meta.bytes == big.len() as u64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_segment_store_layout_is_refused() {
        for (sub, file) in [("repo", "kv.wal"), ("views", "seg.3")] {
            let dir = tmp("old-layout");
            std::fs::create_dir_all(dir.join(sub)).unwrap();
            std::fs::write(dir.join(sub).join(file), b"").unwrap();
            match DurableStore::open(&dir, 1 << 20) {
                Err(StoreError::Corrupt(m)) => {
                    assert!(m.contains("old kv.wal + seg.N"), "{sub}/{file}: {m}")
                }
                Err(e) => panic!("{sub}/{file}: wrong error {e}"),
                Ok(_) => panic!("{sub}/{file}: old layout opened as an empty log"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
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

    /// One seeded loop over a valid encoding of `T`: it round-trips
    /// byte-identically, every strict prefix and one trailing byte are
    /// refused, and no byte flip or seeded multi-byte damage panics — in the
    /// decoder or in re-encoding what it accepted.
    fn fuzz<T: Codec>(what: &str, bytes: &[u8], rng: &mut SmallRng) {
        let back = T::from_bytes(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(back.to_bytes(), bytes, "{what}: re-encoding moved");
        for cut in 0..bytes.len() {
            assert!(
                T::from_bytes(&bytes[..cut]).is_err(),
                "{what}: {cut}-byte prefix"
            );
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert!(T::from_bytes(&longer).is_err(), "{what}: trailing byte");
        let survive = |damaged: &[u8]| {
            if let Ok(v) = T::from_bytes(damaged) {
                v.to_bytes();
            }
        };
        for pos in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut damaged = bytes.to_vec();
                damaged[pos] ^= flip;
                survive(&damaged);
            }
        }
        for _ in 0..256 {
            let mut damaged = bytes.to_vec();
            for _ in 0..rng.gen_range(2..6) {
                let pos = rng.gen_range(0..damaged.len());
                damaged[pos] = rng.gen();
            }
            survive(&damaged);
        }
    }

    #[test]
    fn durable_formats_survive_truncation_and_damage() {
        let mut rng = SmallRng::seed_from_u64(0xD15C);
        let selected = SelectedView {
            annotation: Annotation {
                normalized: sig(5),
                props: PhysicalProps::hashed(vec![0], 4),
                ttl: SimDuration::from_secs(3_600),
                avg_cpu: SimDuration::from_micros(200),
                avg_rows: 10,
                avg_bytes: 1_000,
            },
            input_tags: vec![Symbol::intern("in/a.ss"), Symbol::intern("in/b.ss")],
            utility: SimDuration::from_micros(300),
            frequency: 4,
            precise_last_seen: sig(6),
        };
        let load = WalEvent::LoadAnnotations {
            selected: vec![selected.clone()],
            now: SimTime(9),
        };
        for ev in sample_events().into_iter().chain([load]) {
            fuzz::<WalEvent>("wal event", &ev.encode(), &mut rng);
        }

        let mut record = job(3);
        record.tags = vec![Symbol::intern("in/a.ss")];
        record.subgraphs = vec![SubgraphRun {
            info: SubgraphInfo {
                root: NodeId::new(9),
                precise: sig(1),
                normalized: sig(2),
                root_kind: OpKind::HashGbAgg,
                num_nodes: 11,
                input_tags: vec![Symbol::intern("in/a.ss")],
                props: Arc::new(PhysicalProps::single()),
                has_user_code: true,
            },
            out_rows: 100,
            out_bytes: 4_096,
            exclusive_cpu: SimDuration::from_micros(10),
            cumulative_cpu: SimDuration::from_micros(90),
            finish_offset: SimDuration::from_micros(70),
        }];
        fuzz::<(u64, JobRecord)>("repo record", &(7u64, record).to_bytes(), &mut rng);
        let put = (VIEW_PUT, view(sig(7), "seven")).to_bytes();
        fuzz::<(u8, ViewFile)>("view publish", &put, &mut rng);
        fuzz::<(u8, Sig128)>("view delete", &(VIEW_DELETE, sig(7)).to_bytes(), &mut rng);

        // A snapshot of a catalog holding an annotation, a view with a
        // descriptor and a build lock, plus a selection baseline.
        let dir = tmp("fuzz-snapshot");
        {
            let cv = crate::CloudViews::builder(Arc::new(StorageManager::new()))
                .incremental_analyzer(Default::default())
                .durable(&dir)
                .build();
            cv.metadata.load_annotations_at(&[selected], SimTime(9));
            let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Str)]);
            let descriptor = SubsumeDescriptor {
                kind: SubsumeKind::Filter,
                child_precise: sig(8),
                cols: 0b10,
                keys: 0,
                schema,
                detail: SubsumeDetail::Filter {
                    intervals: [(1, Interval::all())].into_iter().collect(),
                },
            };
            let (at, expires) = (SimTime(10), SimTime(5_000));
            let view = AvailableView {
                precise: sig(7),
                rows: 1,
                bytes: 5,
                props: PhysicalProps::single(),
            };
            let report = ReportRequest::new(view, sig(5), JobId::new(1), at, expires);
            cv.metadata
                .register(report.with_descriptor(Some(descriptor)));
            let ttl = SimDuration::from_secs(60);
            let propose = ProposeRequest::new(sig(11), JobId::new(2), ttl, SimTime(12));
            cv.metadata.propose(&propose).unwrap();
            let analyzer = cv.analyzer.as_ref().unwrap();
            analyzer.set_prev_selected(vec![sig(5), sig(6)]);
            assert!(cv.snapshot_now());
        }
        let (_, meta) = LogDir::open(&dir.join("meta")).unwrap();
        let snapshot = meta.snapshot.expect("snapshot sealed");
        fuzz::<crate::runtime::Snapshot>("snapshot", &snapshot, &mut rng);
        let _ = std::fs::remove_dir_all(&dir);

        // Counts the bytes cannot back are refused, with at most 1,024
        // elements reserved for them: 65,536 selected views after the
        // event's pinned time, and 2^32 − 1 rows in a view's only partition
        // (with one column, and with none — rows that take no bytes).
        let mut hostile = vec![TAG_LOAD_ANNOTATIONS];
        hostile.extend_from_slice(&SimTime(9).to_bytes());
        hostile.extend_from_slice(&MAX_SEQ.to_le_bytes());
        assert!(WalEvent::decode(&hostile).is_err());
        for columns in [&[("s", DataType::Str)][..], &[]] {
            let empty = ViewFile {
                table: Arc::new(Table::single(Schema::from_pairs(columns), Vec::new())),
                ..view(sig(7), "")
            };
            let mut hostile = (VIEW_PUT, empty).to_bytes();
            let rows = hostile.len() - 4;
            hostile[rows..].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(<(u8, ViewFile)>::from_bytes(&hostile).is_err());
        }
    }
}
