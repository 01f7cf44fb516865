//! The storage manager: base datasets and the materialized-view store.
//!
//! Views are stored keyed by their **precise** signature — the paper encodes
//! the precise signature (and producing job id) into the physical file path
//! of the materialized view, and so do we ([`ViewFile::physical_path`]).
//! Each view carries an expiry; the storage manager "takes care of purging
//! the file once it expires" (Section 5.4).
//!
//! Thread-safe: concurrent jobs read datasets and publish views in parallel
//! in the synchronization experiments.
//!
//! [`StorageManager::open_view`] verifies every read, so a file that was
//! lost ([`StorageManager::lose_view`]) or corrupted in place
//! ([`StorageManager::corrupt_view`]) surfaces as
//! [`ScopeError::ViewUnavailable`] and the runtime falls back to
//! recomputation instead of returning wrong rows.
//!
//! Verification is by identity. A batch cannot change after construction,
//! so a stored file's rows can differ from what was published only if its
//! table was *replaced*. The store keeps the published `Arc<Table>` beside
//! each view (a second handle, no copy): while the file holds that table,
//! no row is hashed. Once it was replaced, the open compares the
//! [`multiset_checksum`] of the stored and the published batches. A healthy
//! view is never hashed.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use scope_common::hash::Sig128;
use scope_common::ids::{DatasetId, JobId};
use scope_common::telemetry::{Counter, Gauge, Telemetry};
use scope_common::time::SimTime;
use scope_common::{Result, ScopeError};
use scope_plan::{Partitioning, PhysicalProps};

use crate::data::{multiset_checksum, Table};

/// Metadata of one materialized view file.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewMeta {
    /// Precise signature of the computation this file materializes.
    pub precise: Sig128,
    /// Normalized signature of the same computation (provenance/debugging).
    pub normalized: Sig128,
    /// Job that produced the file (view provenance, paper requirement 6).
    pub producer: JobId,
    /// Simulated creation time.
    pub created_at: SimTime,
    /// Simulated expiry; the file is purged and never served past this.
    pub expires_at: SimTime,
    /// Stored rows.
    pub rows: u64,
    /// Stored bytes.
    pub bytes: u64,
}

/// A stored materialized view: data plus metadata.
#[derive(Clone, Debug)]
pub struct ViewFile {
    /// The stored rows, in the stored physical design.
    pub table: Arc<Table>,
    /// Physical design the data satisfies.
    pub props: PhysicalProps,
    /// File metadata.
    pub meta: ViewMeta,
}

impl ViewFile {
    /// The simulated physical path; mirrors the paper's
    /// `D:\viewPath.ss`-style annotation with the precise signature and the
    /// producing job id embedded for provenance.
    pub fn physical_path(&self) -> String {
        format!("/views/{}/{}.ss", self.meta.precise, self.meta.producer)
    }
}

/// Why a view read was refused (pre-formatting, so telemetry can classify
/// checksum failures without string matching).
enum OpenFailure {
    Missing,
    Expired(SimTime),
    Corrupt,
}

/// A stored view plus the table it was published with.
struct StoredView {
    file: ViewFile,
    /// `file.table` until the file is damaged; then what it is checked against.
    published: Arc<Table>,
    /// Damage that left the rows as they were (an empty file): opens fail.
    damaged: bool,
}

/// Observer of durable view-store mutations. The durability layer installs
/// one to mirror every publish/delete into its on-disk log.
///
/// Implementations must not call back into the [`StorageManager`]: sinks
/// are invoked while the manager's internal lock is held, so the sink's own
/// state must be a lock-ordering leaf. Deliberately *not* notified:
/// [`StorageManager::corrupt_view`] (an injected in-memory fault — the
/// durable copy staying intact is exactly what restores the view after a
/// restart).
pub trait StorageEventSink: Send + Sync {
    /// A view file became durable (first writer won the publish race).
    fn view_published(&self, view: &ViewFile);
    /// A view file was removed (expiry purge, admin delete, or loss).
    fn view_deleted(&self, precise: Sig128);
}

/// A registered dataset and the hash exchanges kept with it, per scheme:
/// recipes over its columns (eight bytes a row) and any column read since.
struct Dataset {
    table: Arc<Table>,
    exchanges: Mutex<Vec<(Partitioning, Table)>>,
}

#[derive(Default)]
struct Inner {
    datasets: HashMap<DatasetId, Arc<Dataset>>,
    views: HashMap<Sig128, StoredView>,
}

/// Cached telemetry handles for the view-store hot paths, resolved once at
/// [`StorageManager::set_telemetry`].
struct StorageMetrics {
    views_published: Counter,
    bytes_written: Counter,
    view_opens: Counter,
    bytes_read: Counter,
    checksum_failures: Counter,
    open_failures: Counter,
    views_purged: Counter,
    bytes_purged: Counter,
    live_views: Gauge,
    live_bytes: Gauge,
}

impl StorageMetrics {
    fn new(sink: &Telemetry) -> StorageMetrics {
        let m = &sink.metrics;
        StorageMetrics {
            views_published: m.counter("cv_storage_views_published_total"),
            bytes_written: m.counter("cv_storage_bytes_written_total"),
            view_opens: m.counter("cv_storage_view_opens_total"),
            bytes_read: m.counter("cv_storage_bytes_read_total"),
            checksum_failures: m.counter("cv_storage_checksum_failures_total"),
            open_failures: m.counter("cv_storage_open_failures_total"),
            views_purged: m.counter("cv_storage_views_purged_total"),
            bytes_purged: m.counter("cv_storage_bytes_purged_total"),
            live_views: m.gauge("cv_storage_views"),
            live_bytes: m.gauge("cv_storage_view_bytes"),
        }
    }
}

/// Thread-safe catalog of base datasets and materialized views.
#[derive(Default)]
pub struct StorageManager {
    inner: RwLock<Inner>,
    telemetry: RwLock<Option<StorageMetrics>>,
    /// Optional durability mirror for view publishes/deletes.
    sink: RwLock<Option<Arc<dyn StorageEventSink>>>,
}

impl StorageManager {
    /// An empty storage manager.
    pub fn new() -> Self {
        StorageManager::default()
    }

    /// Installs (or clears) the telemetry sink. Handles are resolved once
    /// here so per-call recording is a handful of atomic operations.
    pub fn set_telemetry(&self, sink: Option<Arc<Telemetry>>) {
        *self.telemetry.write() = sink.map(|s| StorageMetrics::new(&s));
    }

    /// Installs (or clears) the durability sink notified on every view
    /// publish and delete. Attach it *after* rehydrating recovered views,
    /// or recovery would re-append every view it just read.
    pub fn set_event_sink(&self, sink: Option<Arc<dyn StorageEventSink>>) {
        *self.sink.write() = sink;
    }

    /// Refreshes the live-view gauges from the current catalog state.
    fn update_view_gauges(&self, inner: &Inner) {
        if let Some(t) = self.telemetry.read().as_ref() {
            t.live_views.set(inner.views.len() as i64);
            t.live_bytes
                .set(inner.views.values().map(|v| v.file.meta.bytes).sum::<u64>() as i64);
        }
    }

    /// Registers (or replaces) a base dataset; replacing drops the
    /// exchanges kept with the old table.
    pub fn put_dataset(&self, id: DatasetId, table: Table) {
        let dataset = Dataset {
            table: Arc::new(table),
            exchanges: Mutex::default(),
        };
        self.inner.write().datasets.insert(id, Arc::new(dataset));
    }

    /// Fetches a base dataset.
    pub fn dataset(&self, id: DatasetId) -> Result<Arc<Table>> {
        self.inner
            .read()
            .datasets
            .get(&id)
            .map(|d| Arc::clone(&d.table))
            .ok_or_else(|| ScopeError::Storage(format!("unknown dataset {id}")))
    }

    /// `input`, an unfiltered scan of dataset `id`, under the hash exchange
    /// `scheme`, and whether it was kept from an earlier call: the first call
    /// per scheme keeps it with the dataset, unless `input` is no longer the
    /// dataset's table (replaced since the scan).
    pub(crate) fn dataset_exchange(
        &self,
        id: DatasetId,
        input: &Table,
        scheme: &Partitioning,
    ) -> Result<(Table, bool)> {
        let dataset = self.inner.read().datasets.get(&id).cloned();
        let Some(dataset) = dataset.filter(|d| input.holds_batches_of(&d.table)) else {
            return Ok((input.exchange(scheme)?, false));
        };
        // Held while building: a second caller waits for the one exchange.
        let mut kept = dataset.exchanges.lock();
        let hit = kept.iter().position(|(s, _)| s == scheme);
        let out = match hit {
            Some(i) => kept[i].1.clone(),
            None => {
                let out = input.exchange(scheme)?;
                kept.push((scheme.clone(), out.clone()));
                out
            }
        };
        // A scan names the dataset's columns in its own schema.
        let schema = input.schema.clone();
        Ok((Table { schema, ..out }, hit.is_some()))
    }

    /// Number of registered datasets.
    pub fn num_datasets(&self) -> usize {
        self.inner.read().datasets.len()
    }

    /// Publishes a materialized view. Publishing an already-present precise
    /// signature is idempotent (the second writer lost the build race and
    /// its file is discarded — first-writer-wins keeps provenance stable).
    pub fn publish_view(&self, file: ViewFile) -> Result<()> {
        let bytes = file.meta.bytes;
        let precise = file.meta.precise;
        {
            // Lost the build race: the first writer's file stays and this
            // one is dropped.
            let inner = self.inner.read();
            if inner.views.contains_key(&precise) {
                self.update_view_gauges(&inner);
                return Ok(());
            }
        }
        let mut inner = self.inner.write();
        let before = inner.views.len();
        inner.views.entry(precise).or_insert(StoredView {
            published: Arc::clone(&file.table),
            file,
            damaged: false,
        });
        let written = inner.views.len() > before;
        if written {
            if let Some(sink) = self.sink.read().as_ref() {
                sink.view_published(&inner.views[&precise].file);
            }
        }
        if let Some(t) = self.telemetry.read().as_ref() {
            if written {
                t.views_published.inc();
                t.bytes_written.add(bytes);
            }
        }
        self.update_view_gauges(&inner);
        Ok(())
    }

    /// Looks up a view by precise signature, refusing expired files.
    ///
    /// This is the cheap metadata-level probe: it does *not* verify content
    /// integrity. Execution reads go through [`StorageManager::open_view`].
    pub fn view(&self, precise: Sig128, now: SimTime) -> Option<ViewFile> {
        let inner = self.inner.read();
        inner
            .views
            .get(&precise)
            .filter(|v| v.file.meta.expires_at > now)
            .map(|v| v.file.clone())
    }

    /// Opens a view for reading, verifying that its rows are the published
    /// ones. A missing, expired, or corrupted file is reported as
    /// [`ScopeError::ViewUnavailable`] so the caller can fall back to
    /// recomputation.
    pub fn open_view(&self, precise: Sig128, now: SimTime) -> Result<ViewFile> {
        let result = self.open_view_inner(precise, now);
        if let Some(t) = self.telemetry.read().as_ref() {
            t.view_opens.inc();
            match &result {
                Ok(file) => t.bytes_read.add(file.meta.bytes),
                Err(OpenFailure::Corrupt) => {
                    t.checksum_failures.inc();
                    t.open_failures.inc();
                }
                Err(_) => t.open_failures.inc(),
            }
        }
        result.map_err(|e| match e {
            OpenFailure::Missing => {
                ScopeError::ViewUnavailable(format!("view {precise}: file not found"))
            }
            OpenFailure::Expired(at) => {
                ScopeError::ViewUnavailable(format!("view {precise}: expired at {at:?}"))
            }
            OpenFailure::Corrupt => ScopeError::ViewUnavailable(format!(
                "view {precise}: content checksum mismatch (corrupt file)"
            )),
        })
    }

    fn open_view_inner(
        &self,
        precise: Sig128,
        now: SimTime,
    ) -> std::result::Result<ViewFile, OpenFailure> {
        let inner = self.inner.read();
        let stored = inner.views.get(&precise).ok_or(OpenFailure::Missing)?;
        if stored.file.meta.expires_at <= now {
            return Err(OpenFailure::Expired(stored.file.meta.expires_at));
        }
        let replaced = !Arc::ptr_eq(&stored.file.table, &stored.published);
        if stored.damaged
            || replaced
                && multiset_checksum(&stored.file.table) != multiset_checksum(&stored.published)
        {
            return Err(OpenFailure::Corrupt);
        }
        Ok(stored.file.clone())
    }

    /// Simulates losing a view file (disk failure, premature deletion): the
    /// file disappears while any metadata annotations pointing at it remain.
    /// Returns true when a file was present to lose.
    pub fn lose_view(&self, precise: Sig128) -> bool {
        let lost = self.inner.write().views.remove(&precise).is_some();
        if lost {
            if let Some(sink) = self.sink.read().as_ref() {
                sink.view_deleted(precise);
            }
        }
        lost
    }

    /// Simulates in-place corruption of a view file: the stored rows no
    /// longer match the published ones, so a subsequent
    /// [`StorageManager::open_view`] fails. Returns true when a file was
    /// present to corrupt.
    pub fn corrupt_view(&self, precise: Sig128) -> bool {
        let mut inner = self.inner.write();
        match inner.views.get_mut(&precise) {
            Some(stored) => {
                let mut table = Table::clone(&stored.file.table);
                let mut batches = table.partitions.iter_mut().flat_map(|p| p.iter_mut());
                if let Some(batch) = batches.rfind(|b| b.num_rows() > 0) {
                    // Bit rot: silently drop the last row of the file.
                    let keep: Vec<u32> = (0..batch.num_rows() as u32 - 1).collect();
                    *batch = batch.take(&keep);
                    stored.file.table = Arc::new(table);
                } else {
                    // Nothing to truncate: mark the file damaged so
                    // verification still fails.
                    stored.damaged = true;
                }
                true
            }
            None => false,
        }
    }

    /// Removes expired view files; returns the reclaimed bytes.
    pub fn purge_expired(&self, now: SimTime) -> u64 {
        let mut inner = self.inner.write();
        let before = inner.views.len();
        let mut reclaimed = 0;
        let mut purged: Vec<Sig128> = Vec::new();
        inner.views.retain(|p, v| {
            if v.file.meta.expires_at <= now {
                reclaimed += v.file.meta.bytes;
                purged.push(*p);
                false
            } else {
                true
            }
        });
        if !purged.is_empty() {
            if let Some(sink) = self.sink.read().as_ref() {
                for p in &purged {
                    sink.view_deleted(*p);
                }
            }
        }
        if let Some(t) = self.telemetry.read().as_ref() {
            t.views_purged.add((before - inner.views.len()) as u64);
            t.bytes_purged.add(reclaimed);
        }
        self.update_view_gauges(&inner);
        reclaimed
    }

    /// Deletes a specific view (admin space reclamation, Section 5.4);
    /// returns the reclaimed bytes.
    pub fn delete_view(&self, precise: Sig128) -> Option<u64> {
        let mut inner = self.inner.write();
        let bytes = inner.views.remove(&precise).map(|v| v.file.meta.bytes);
        if bytes.is_some() {
            if let Some(sink) = self.sink.read().as_ref() {
                sink.view_deleted(precise);
            }
            self.update_view_gauges(&inner);
        }
        bytes
    }

    /// Total bytes currently held by materialized views.
    pub fn total_view_bytes(&self) -> u64 {
        self.inner
            .read()
            .views
            .values()
            .map(|v| v.file.meta.bytes)
            .sum()
    }

    /// Number of stored views.
    pub fn num_views(&self) -> usize {
        self.inner.read().views.len()
    }

    /// Metadata of all stored views (reporting).
    pub fn view_metas(&self) -> Vec<ViewMeta> {
        self.inner
            .read()
            .views
            .values()
            .map(|v| v.file.meta.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::tests::is_hashed;
    use scope_common::sip128;
    use scope_common::time::SimDuration;
    use scope_plan::{DataType, Schema, Value};

    fn tiny_table() -> Table {
        Table::single(
            Schema::from_pairs(&[("a", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
    }

    fn view(sig: &[u8], expires: SimTime) -> ViewFile {
        ViewFile {
            table: Arc::new(tiny_table()),
            props: PhysicalProps::single(),
            meta: ViewMeta {
                precise: sip128(sig),
                normalized: sip128(b"norm"),
                producer: JobId::new(1),
                created_at: SimTime::ZERO,
                expires_at: expires,
                rows: 2,
                bytes: 100,
            },
        }
    }

    #[test]
    fn dataset_round_trip() {
        let s = StorageManager::new();
        s.put_dataset(DatasetId::new(1), tiny_table());
        assert_eq!(s.dataset(DatasetId::new(1)).unwrap().num_rows(), 2);
        assert!(s.dataset(DatasetId::new(9)).is_err());
        assert_eq!(s.num_datasets(), 1);
    }

    #[test]
    fn view_publish_and_lookup() {
        let s = StorageManager::new();
        let v = view(b"v1", SimTime(1_000_000));
        let sig = v.meta.precise;
        s.publish_view(v).unwrap();
        assert_eq!(s.view(sig, SimTime::ZERO).unwrap().meta.rows, 2);
        // Expired view is not served.
        assert!(s.view(sig, SimTime(1_000_000)).is_none());
    }

    #[test]
    fn publish_is_first_writer_wins() {
        let s = StorageManager::new();
        let mut v1 = view(b"v", SimTime::MAX);
        v1.meta.producer = JobId::new(1);
        let mut v2 = view(b"v", SimTime::MAX);
        v2.meta.producer = JobId::new(2);
        s.publish_view(v1).unwrap();
        s.publish_view(v2).unwrap();
        assert_eq!(s.num_views(), 1);
        assert_eq!(
            s.view(sip128(b"v"), SimTime::ZERO).unwrap().meta.producer,
            JobId::new(1)
        );
        // The loser was dropped unhashed; the winner still verifies.
        assert!(s.open_view(sip128(b"v"), SimTime::ZERO).is_ok());
    }

    #[test]
    fn purge_reclaims_only_expired() {
        let s = StorageManager::new();
        s.publish_view(view(b"old", SimTime(10))).unwrap();
        s.publish_view(view(b"new", SimTime(1_000))).unwrap();
        assert_eq!(s.total_view_bytes(), 200);
        let reclaimed = s.purge_expired(SimTime(10) + SimDuration::from_micros(1));
        assert_eq!(reclaimed, 100);
        assert_eq!(s.num_views(), 1);
        assert_eq!(s.total_view_bytes(), 100);
    }

    #[test]
    fn delete_view_reclaims() {
        let s = StorageManager::new();
        s.publish_view(view(b"x", SimTime::MAX)).unwrap();
        assert_eq!(s.delete_view(sip128(b"x")), Some(100));
        assert_eq!(s.delete_view(sip128(b"x")), None);
        assert_eq!(s.num_views(), 0);
    }

    #[test]
    fn open_view_verifies_integrity() {
        let s = StorageManager::new();
        let v = view(b"ok", SimTime(1_000_000));
        let sig = v.meta.precise;
        s.publish_view(v).unwrap();
        // Healthy file opens fine.
        assert_eq!(s.open_view(sig, SimTime::ZERO).unwrap().meta.rows, 2);
        // Expired file is refused.
        let err = s.open_view(sig, SimTime(1_000_000)).unwrap_err();
        assert_eq!(err.kind(), "view_unavailable");
        // Unknown signature is refused.
        let err = s.open_view(sip128(b"nope"), SimTime::ZERO).unwrap_err();
        assert_eq!(err.kind(), "view_unavailable");
    }

    #[test]
    fn lost_view_fails_open_but_not_silently() {
        let s = StorageManager::new();
        let v = view(b"gone", SimTime::MAX);
        let sig = v.meta.precise;
        s.publish_view(v).unwrap();
        assert!(s.lose_view(sig));
        assert!(!s.lose_view(sig), "second loss finds nothing");
        let err = s.open_view(sig, SimTime::ZERO).unwrap_err();
        assert!(err.message().contains("not found"), "{err}");
    }

    #[test]
    fn corrupt_view_fails_checksum_verification() {
        let s = StorageManager::new();
        let v = view(b"rot", SimTime::MAX);
        let sig = v.meta.precise;
        s.publish_view(v).unwrap();
        assert!(s.corrupt_view(sig));
        // The cheap metadata probe still sees the file...
        assert!(s.view(sig, SimTime::ZERO).is_some());
        // ...but an execution read detects the damage.
        let err = s.open_view(sig, SimTime::ZERO).unwrap_err();
        assert!(err.message().contains("checksum mismatch"), "{err}");
        assert!(!s.corrupt_view(sip128(b"missing")));
    }

    #[test]
    fn corrupt_view_drops_the_last_row_in_place() {
        let s = StorageManager::new();
        let mut v = view(b"rot-parts", SimTime::MAX);
        let schema = v.table.schema.clone();
        let props = PhysicalProps::any();
        let rows = |r: std::ops::Range<i64>| r.map(|i| vec![Value::Int(i)]).collect();
        let parts = vec![rows(0..3), rows(3..5), Vec::new()];
        v.table = Arc::new(Table::from_rows(schema.clone(), parts, props.clone()));
        let sig = v.meta.precise;
        s.publish_view(v).unwrap();
        assert!(s.corrupt_view(sig));
        let rotten = s.view(sig, SimTime::ZERO).unwrap().table;
        let kept = vec![rows(0..3), rows(3..4), Vec::new()];
        assert_eq!(*rotten, Table::from_rows(schema, kept, props));
    }

    #[test]
    fn corrupting_empty_view_still_detected() {
        let s = StorageManager::new();
        let mut v = view(b"empty", SimTime::MAX);
        v.table = Arc::new(Table::empty(Schema::from_pairs(&[("a", DataType::Int)])));
        v.meta.rows = 0;
        let sig = v.meta.precise;
        s.publish_view(v).unwrap();
        assert!(s.corrupt_view(sig));
        assert!(s.open_view(sig, SimTime::ZERO).is_err());
    }

    #[test]
    fn a_healthy_view_is_verified_by_identity_without_hashing() {
        let s = StorageManager::new();
        let v = view(b"intact", SimTime::MAX);
        let (sig, published) = (v.meta.precise, Arc::clone(&v.table));
        s.publish_view(v).unwrap();
        for _ in 0..3 {
            let file = s.open_view(sig, SimTime::ZERO).unwrap();
            assert!(Arc::ptr_eq(&file.table, &published));
        }
        let batches = || published.partitions.iter().flatten();
        assert!(batches().count() > 0);
        assert!(!batches().any(is_hashed), "a row was hashed");
    }

    #[test]
    fn truncation_and_empty_view_damage_are_refused_and_counted() {
        for rows in [2usize, 0] {
            let telemetry = Telemetry::new();
            let s = StorageManager::new();
            s.set_telemetry(Some(telemetry.clone()));
            let mut v = view(b"memo", SimTime::MAX);
            if rows == 0 {
                v.table = Arc::new(Table::empty(v.table.schema.clone()));
            }
            let sig = v.meta.precise;
            s.publish_view(v).unwrap();
            for _ in 0..3 {
                assert_eq!(
                    s.open_view(sig, SimTime::ZERO).unwrap().table.num_rows(),
                    rows
                );
            }
            let failures = || {
                telemetry
                    .metrics
                    .counter_value("cv_storage_checksum_failures_total")
            };
            assert_eq!(failures(), 0);
            assert!(s.corrupt_view(sig));
            for opened in 1..=2 {
                let err = s.open_view(sig, SimTime::ZERO).unwrap_err();
                assert_eq!(err.kind(), "view_unavailable");
                assert!(err.message().contains("checksum mismatch"), "{err}");
                assert_eq!(failures(), opened);
            }
        }
    }

    #[test]
    fn physical_path_embeds_provenance() {
        let v = view(b"p", SimTime::MAX);
        let path = v.physical_path();
        assert!(path.contains(&v.meta.precise.to_string()));
        assert!(path.contains("job1"));
        assert!(path.ends_with(".ss"));
    }

    #[test]
    fn concurrent_publish_and_read() {
        use std::sync::Arc as StdArc;
        let s = StdArc::new(StorageManager::new());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let s = StdArc::clone(&s);
                std::thread::spawn(move || {
                    let v = view(format!("v{i}").as_bytes(), SimTime::MAX);
                    s.publish_view(v).unwrap();
                    s.total_view_bytes()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.num_views(), 8);
    }
}
