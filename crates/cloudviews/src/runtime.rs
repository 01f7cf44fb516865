//! The CloudViews runtime (paper Section 6): the per-job path.
//!
//! For each incoming job, with CloudViews enabled:
//!
//! 1. the compiler makes **one** metadata lookup with the job's normalized
//!    tags and receives the relevant annotations (Section 6.1);
//! 2. the optimizer rewrites the plan to reuse materialized views and/or
//!    marks subgraphs for materialization after winning build locks
//!    (Sections 6.2/6.3, Figure 10);
//! 3. the job executes; marked subgraph outputs are copied into view files
//!    in the analyzer-mined physical design;
//! 4. each view is *published early* — at its producing stage's completion
//!    time, not the job's end (Section 6.4) — to both the storage manager
//!    and the metadata service;
//! 5. the run is recorded back into the workload repository, closing the
//!    feedback loop.
//!
//! Everything is thread-safe; concurrent jobs exercise the build-build and
//! build-use synchronization exactly as in the paper.
//!
//! ## Fault tolerance & degradation
//!
//! When a [`FaultInjector`] is installed ([`CloudViews::install_fault_plan`])
//! the driver degrades instead of failing (paper Section 6, DESIGN.md):
//!
//! * a failed metadata lookup is retried with backoff
//!   ([`DegradationPolicy::lookup_retries`]); once retries are exhausted the
//!   job runs its **baseline plan** (no annotations — no reuse, no builds);
//! * a failed propose call simply skips that materialization;
//! * a matched view that cannot be read back (lost or corrupt file) causes
//!   re-optimization **without reuse** and the dead view is unregistered
//!   from the metadata service so later jobs stop matching it;
//! * a builder that crashes mid-materialization is restarted (up to
//!   [`DegradationPolicy::max_restarts`]); its exclusive build lock is never
//!   explicitly released — the same job re-acquires it on restart, and if
//!   the job never returns the lock lapses at its mined expiry so another
//!   job can take over;
//! * a failed success-report leaves an orphaned view file: never visible to
//!   lookups, reclaimed by expiry-based purging.
//!
//! Every degradation is counted per job in [`JobFaultReport`].

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::telemetry::{ActiveSpan, Counter, Histogram, MetricUnit, Telemetry};
use scope_common::time::{SimClock, SimDuration, SimTime};
use scope_common::{Result, ScopeError};
use scope_engine::cost::CostModel;
use scope_engine::exec::ExecOutcome;
use scope_engine::job::JobSpec;
use scope_engine::optimizer::OptimizerReport;
use scope_engine::repo::WorkloadRepository;
use scope_engine::sim::{ClusterConfig, SimOutcome};
use scope_engine::storage::StorageManager;
use scope_plan::{OpKind, QueryGraph};
use scope_signature::{CompiledJob, TemplateCache};

use crate::analyzer::{run_analysis, AnalysisOutcome, AnalyzerConfig, IncrementalAnalyzer};
use crate::codec::Codec;
use crate::codec_record;
use crate::faults::{FaultInjector, FaultPlan};
use crate::metadata::{CatalogSnapshot, MetadataService};
use crate::pipeline;
use crate::sharing::WindowContext;
use crate::store::{DurableStore, WalEvent};
use scope_engine::storage::StorageEventSink;

/// The durable snapshot payload: the pinned clock, the metadata catalog,
/// and the analyzer's selection baseline. The store keeps it as opaque
/// bytes; recovery decodes it here.
pub(crate) struct Snapshot {
    clock: SimTime,
    metadata: CatalogSnapshot,
    prev_selected: Vec<Sig128>,
}

codec_record! { Snapshot { clock, metadata, prev_selected } }

/// Whether a job runs with CloudViews on or off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Plain SCOPE: no lookups, no reuse, no materialization.
    Baseline,
    /// CloudViews enabled (the job-submission flag of Section 4).
    CloudViews,
}

/// How the driver absorbs injected (or real) failures. All knobs bound the
/// work spent degrading, so a pathological fault plan cannot hang a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Metadata-lookup retries after the first failure. Once exhausted the
    /// job falls back to its baseline plan.
    pub lookup_retries: u32,
    /// Simulated backoff added to job latency before each lookup retry.
    pub retry_backoff: SimDuration,
    /// Restarts after a builder crash before the job is reported failed
    /// (models the job service's bounded resubmission).
    pub max_restarts: u32,
}

impl Default for DegradationPolicy {
    fn default() -> DegradationPolicy {
        DegradationPolicy {
            lookup_retries: 2,
            retry_backoff: SimDuration::from_secs_f64(0.05),
            max_restarts: 3,
        }
    }
}

/// Per-job fault and degradation counters. Together with
/// [`FaultInjector::injected`](crate::faults::FaultInjector::injected) these
/// close the accounting loop: every injected call-site fault shows up in
/// exactly one job's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobFaultReport {
    /// Metadata lookup calls that failed (across restarts).
    pub lookup_faults: u64,
    /// Lookup retries performed.
    pub lookup_retries: u64,
    /// True when lookup retries were exhausted and the job ran its baseline
    /// plan.
    pub fell_back_to_baseline: bool,
    /// Propose calls that failed (the materialization was skipped).
    pub propose_faults: u64,
    /// Executions aborted by an unreadable matched view, recovered by
    /// re-optimizing without reuse.
    pub view_read_fallbacks: u64,
    /// Dead views this job unregistered from the metadata service after a
    /// read failure.
    pub dead_views_unregistered: u64,
    /// Times this job's builder crashed mid-materialization and the job was
    /// restarted.
    pub builder_crashes: u64,
    /// Success reports that failed (the built file is orphaned and the
    /// build lock lapses at its mined expiry).
    pub report_faults: u64,
    /// Publications delayed by the fault plan.
    pub delayed_publications: u64,
    /// Simulated latency added by retry backoff and crashed attempts.
    pub degraded_latency: SimDuration,
}

impl JobFaultReport {
    /// Total call-site faults this job absorbed (lookup + propose + report +
    /// builder crashes). Stored-file faults are counted at the injector.
    pub fn call_faults(&self) -> u64 {
        self.lookup_faults + self.propose_faults + self.report_faults + self.builder_crashes
    }

    /// True when any fault or degradation was observed.
    pub fn any(&self) -> bool {
        self.call_faults() > 0
            || self.view_read_fallbacks > 0
            || self.delayed_publications > 0
            || self.fell_back_to_baseline
    }

    /// Element-wise sum (aggregation across jobs).
    pub fn accumulate(&mut self, other: &JobFaultReport) {
        self.lookup_faults += other.lookup_faults;
        self.lookup_retries += other.lookup_retries;
        self.fell_back_to_baseline |= other.fell_back_to_baseline;
        self.propose_faults += other.propose_faults;
        self.view_read_fallbacks += other.view_read_fallbacks;
        self.dead_views_unregistered += other.dead_views_unregistered;
        self.builder_crashes += other.builder_crashes;
        self.report_faults += other.report_faults;
        self.delayed_publications += other.delayed_publications;
        self.degraded_latency += other.degraded_latency;
    }
}

/// The result of one job run through the service.
#[derive(Clone, Debug)]
pub struct JobRunReport {
    /// Job id.
    pub job: JobId,
    /// Simulated start (submission) time.
    pub started_at: SimTime,
    /// End-to-end latency including metadata lookup and view-write costs.
    pub latency: SimDuration,
    /// Total CPU including view-write costs.
    pub cpu_time: SimDuration,
    /// Metadata lookup latency paid (zero in baseline mode).
    pub lookup_latency: SimDuration,
    /// Views this job materialized.
    pub views_built: Vec<Sig128>,
    /// Views this job reused.
    pub views_reused: Vec<Sig128>,
    /// Optimizer overhead report.
    pub optimizer: OptimizerReport,
    /// Order-insensitive checksum of every output (correctness checks).
    pub output_checksums: HashMap<String, u64>,
    /// Output row counts.
    pub output_rows: HashMap<String, usize>,
    /// Faults absorbed and degradations taken while running this job.
    pub faults: JobFaultReport,
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted `String` covers practically every panic in
/// this workspace).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Why one attempt at a job did not produce a report.
pub(crate) enum AttemptFailure {
    /// The fault injector killed the builder mid-materialization; the
    /// driver restarts the job (its build lock stays held and is
    /// re-acquired by the restart, or lapses at its mined expiry).
    BuilderCrash {
        /// Simulated latency the dead attempt had already accumulated.
        wasted_latency: SimDuration,
    },
    /// A real error: propagated to the caller.
    Fatal(ScopeError),
}

impl From<ScopeError> for AttemptFailure {
    fn from(e: ScopeError) -> AttemptFailure {
        AttemptFailure::Fatal(e)
    }
}

/// Typed result of [`CloudViews::purge_expired`] (replaces the old
/// `(usize, u64)` tuple).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// Views dropped from the metadata service.
    pub views_purged: usize,
    /// Annotation entries (with their inverted-index postings) swept
    /// because their views died and their GC horizon lapsed.
    pub annotations_purged: usize,
    /// Bytes of expired view files reclaimed from storage.
    pub bytes_reclaimed: u64,
}

/// The counter of the kernel wall nanoseconds spent in operators of `kind`,
/// e.g. `cv_exec_hashjoin_wall_nanos_total`.
pub fn op_wall_counter(kind: OpKind) -> String {
    format!(
        "cv_exec_{}_wall_nanos_total",
        kind.name().to_ascii_lowercase()
    )
}

/// Cached telemetry handles for the per-job path, resolved once at service
/// construction so each job pays a handful of atomic operations.
pub(crate) struct RuntimeMetrics {
    jobs: Counter,
    jobs_reuse_hit: Counter,
    jobs_build: Counter,
    jobs_baseline_fallback: Counter,
    jobs_failed: Counter,
    job_restarts: Counter,
    views_built: Counter,
    views_reused: Counter,
    job_latency: Histogram,
    job_cpu: Histogram,
    job_wall: Histogram,
    stages: Counter,
    vertices: Counter,
    stage_vertices: Histogram,
    token_occupancy: Histogram,
    exec_rows_in: Counter,
    exec_wall: Counter,
    exec_cells_gathered: Counter,
    exec_copy_wall: Counter,
    exec_build_wall: Counter,
    exec_gather_columns: Counter,
    exec_exchange_memo_hits: Counter,
    exec_coded_key_rows: Counter,
    /// Kernel wall nanoseconds per operator kind, indexed as `OpKind::ALL`.
    exec_op_wall: [Counter; OpKind::ALL.len()],
    template_hits: Counter,
    template_misses: Counter,
    pub(crate) sharing: SharingMetrics,
}

/// Pre-resolved handles for the in-flight sharing coordinator
/// (`cloudviews::sharing`): one counter per lifecycle edge plus the
/// follower-wait and size histograms. All are drained centrally by
/// [`CloudViews::run_windowed`] after each window, never from inside the
/// worker pool.
pub(crate) struct SharingMetrics {
    pub(crate) windows: Counter,
    pub(crate) window_jobs: Counter,
    pub(crate) shared_subgraphs: Counter,
    pub(crate) published: Counter,
    pub(crate) aborts: Counter,
    pub(crate) follower_reuses: Counter,
    pub(crate) follower_fallbacks: Counter,
    pub(crate) wait: Histogram,
    pub(crate) window_size: Histogram,
    pub(crate) group_size: Histogram,
}

impl RuntimeMetrics {
    fn new(sink: &Telemetry) -> RuntimeMetrics {
        let m = &sink.metrics;
        RuntimeMetrics {
            jobs: m.counter("cv_jobs_total"),
            jobs_reuse_hit: m.counter("cv_jobs_reuse_hit_total"),
            jobs_build: m.counter("cv_jobs_build_total"),
            jobs_baseline_fallback: m.counter("cv_jobs_baseline_fallback_total"),
            jobs_failed: m.counter("cv_jobs_failed_total"),
            job_restarts: m.counter("cv_jobs_restarts_total"),
            views_built: m.counter("cv_views_built_total"),
            views_reused: m.counter("cv_views_reused_total"),
            job_latency: m.histogram("cv_job_latency_sim_micros", MetricUnit::SimMicros),
            job_cpu: m.histogram("cv_job_cpu_sim_micros", MetricUnit::SimMicros),
            job_wall: m.histogram("cv_job_wall_micros", MetricUnit::WallMicros),
            stages: m.counter("cv_sim_stages_total"),
            vertices: m.counter("cv_sim_vertices_total"),
            stage_vertices: m.histogram("cv_sim_stage_vertices", MetricUnit::Count),
            token_occupancy: m.histogram("cv_sim_token_occupancy_pct", MetricUnit::Count),
            exec_rows_in: m.counter("cv_exec_rows_in_total"),
            exec_wall: m.counter("cv_exec_wall_nanos_total"),
            exec_cells_gathered: m.counter("cv_exec_cells_gathered_total"),
            exec_copy_wall: m.counter("cv_exec_copy_wall_nanos_total"),
            exec_build_wall: m.counter("cv_exec_build_wall_nanos_total"),
            exec_gather_columns: m.counter("cv_exec_gather_columns_total"),
            exec_exchange_memo_hits: m.counter("cv_exec_exchange_memo_hits_total"),
            exec_coded_key_rows: m.counter("cv_exec_coded_key_rows_total"),
            exec_op_wall: OpKind::ALL.map(|k| m.counter(&op_wall_counter(k))),
            template_hits: m.counter("cv_template_cache_hits_total"),
            template_misses: m.counter("cv_template_cache_misses_total"),
            sharing: SharingMetrics {
                windows: m.counter("cv_sharing_windows_total"),
                window_jobs: m.counter("cv_sharing_window_jobs_total"),
                shared_subgraphs: m.counter("cv_sharing_shared_subgraphs_total"),
                published: m.counter("cv_sharing_producer_publishes_total"),
                aborts: m.counter("cv_sharing_producer_aborts_total"),
                follower_reuses: m.counter("cv_sharing_follower_reuses_total"),
                follower_fallbacks: m.counter("cv_sharing_follower_fallbacks_total"),
                wait: m.histogram("cv_sharing_wait_sim_micros", MetricUnit::SimMicros),
                window_size: m.histogram("cv_sharing_window_size_jobs", MetricUnit::Count),
                group_size: m.histogram("cv_sharing_group_size_jobs", MetricUnit::Count),
            },
        }
    }
}

/// The assembled CloudViews service: storage + metadata + repository +
/// clock + engine configuration. Construct one with [`CloudViewsBuilder`]
/// (or [`CloudViews::builder`]).
pub struct CloudViews {
    /// Shared storage manager (datasets + view files).
    pub storage: Arc<StorageManager>,
    /// The metadata service.
    pub metadata: Arc<MetadataService>,
    /// The workload repository (feedback loop).
    pub repo: Arc<WorkloadRepository>,
    /// Shared simulated clock.
    pub clock: Arc<SimClock>,
    /// Cost model used for execution accounting.
    pub cost: CostModel,
    /// Cluster/VC execution parameters.
    pub cluster: ClusterConfig,
    /// Per-job cap on materialized views (job submission parameter).
    pub max_materialize_per_job: usize,
    /// Publish views at stage completion (true) or job completion (false).
    pub early_materialization: bool,
    /// Tier-2 subsumption matching in the lookup/optimize cascade (on by
    /// default; tier-1 exact matching is unaffected).
    pub subsumption: bool,
    /// Record runs into the repository.
    pub record_runs: bool,
    /// How to absorb failures (see DESIGN.md "Fault tolerance & degradation").
    pub degradation: DegradationPolicy,
    /// Installed fault injector, if any (shared with the metadata service).
    pub faults: Option<Arc<FaultInjector>>,
    /// Telemetry sink shared by every instrumented component.
    pub telemetry: Arc<Telemetry>,
    /// Compile-path template cache: recurring jobs whose normalized
    /// signatures match a cached skeleton skip subgraph enumeration and
    /// property derivation, re-deriving only the precise hashes.
    pub templates: Arc<TemplateCache>,
    /// The resident incremental analyzer, when one was installed via
    /// [`CloudViewsBuilder::incremental_analyzer`]. The pipeline's record
    /// stage feeds it each record as it lands; [`CloudViews::analyze_round`]
    /// re-selects from its aggregates.
    pub analyzer: Option<Arc<IncrementalAnalyzer>>,
    /// The durable store, when constructed via
    /// [`CloudViewsBuilder::durable`]: every metadata mutation, repository
    /// append, and view publish is logged before it is acknowledged, and
    /// [`CloudViews::snapshot_now`] / the post-job snapshot check compact
    /// the log. `None` keeps the service purely in-memory.
    pub durable: Option<Arc<DurableStore>>,
    /// Pre-resolved metric handles for the per-job path.
    pub(crate) metrics: RuntimeMetrics,
}

/// Fluent construction for [`CloudViews`]: every collaborating service
/// (clock, telemetry sink, durable store) is wired up before the service
/// exists, so no caller can observe a half-configured runtime.
///
/// ```
/// use std::sync::Arc;
/// use cloudviews::CloudViewsBuilder;
/// use scope_engine::storage::StorageManager;
///
/// let cv = CloudViewsBuilder::new(Arc::new(StorageManager::new()))
///     .max_materialize_per_job(2)
///     .build();
/// assert_eq!(cv.metadata.stats().lookups, 0);
/// ```
pub struct CloudViewsBuilder {
    storage: Arc<StorageManager>,
    clock: Arc<SimClock>,
    max_materialize_per_job: usize,
    early_materialization: bool,
    subsumption: bool,
    record_runs: bool,
    incremental_analyzer: Option<AnalyzerConfig>,
    durable: Option<PathBuf>,
    snapshot_threshold: u64,
}

impl CloudViewsBuilder {
    /// A builder with the default configuration: fresh clock, 5 metadata
    /// service threads, early materialization on.
    pub fn new(storage: Arc<StorageManager>) -> CloudViewsBuilder {
        CloudViewsBuilder {
            storage,
            clock: Arc::new(SimClock::new()),
            max_materialize_per_job: 1,
            early_materialization: true,
            subsumption: true,
            record_runs: true,
            incremental_analyzer: None,
            durable: None,
            snapshot_threshold: crate::store::DEFAULT_SNAPSHOT_THRESHOLD,
        }
    }

    /// Persists service state under `path` (DESIGN.md §16): metadata
    /// mutations and analyzer-feeding repository appends are logged before
    /// they are acknowledged, published view files are mirrored to their
    /// own log, and a cold start from the same path replays
    /// snapshot + WAL tail into byte-identical in-memory state (see
    /// `MetadataService::fingerprint` / `AnalyzerState::fingerprint`).
    pub fn durable(mut self, path: impl Into<PathBuf>) -> Self {
        self.durable = Some(path.into());
        self
    }

    /// WAL size (bytes) past which the post-job check compacts the log
    /// into a snapshot. Only meaningful with [`CloudViewsBuilder::durable`].
    pub fn snapshot_threshold(mut self, bytes: u64) -> Self {
        self.snapshot_threshold = bytes;
        self
    }

    /// Shares an existing simulated clock (e.g. across services).
    pub fn clock(mut self, clock: Arc<SimClock>) -> Self {
        self.clock = clock;
        self
    }

    /// Per-job cap on materialized views.
    pub fn max_materialize_per_job(mut self, max: usize) -> Self {
        self.max_materialize_per_job = max;
        self
    }

    /// Publish views at stage completion (true) or job completion (false).
    pub fn early_materialization(mut self, early: bool) -> Self {
        self.early_materialization = early;
        self
    }

    /// Record runs into the workload repository.
    pub fn record_runs(mut self, record: bool) -> Self {
        self.record_runs = record;
        self
    }

    /// Toggle tier-2 subsumption matching (exact-only ablation when off).
    pub fn subsumption(mut self, enabled: bool) -> Self {
        self.subsumption = enabled;
        self
    }

    /// Installs a resident incremental analyzer selecting under `config`.
    /// The pipeline's record stage then feeds it every record as it lands,
    /// and [`CloudViews::analyze_round`] re-selects from the maintained
    /// aggregates instead of replaying the repository.
    pub fn incremental_analyzer(mut self, config: AnalyzerConfig) -> Self {
        self.incremental_analyzer = Some(config);
        self
    }

    /// Assembles the service: builds the metadata service on the shared
    /// clock and wires the telemetry sink into every component.
    ///
    /// Panics when [`CloudViewsBuilder::durable`] was set and opening or
    /// replaying the on-disk state fails; use
    /// [`CloudViewsBuilder::try_build`] to handle that as a `Result`.
    pub fn build(self) -> CloudViews {
        self.try_build()
            .expect("CloudViews durable-state recovery failed")
    }

    /// [`CloudViewsBuilder::build`] with a durable-state open or replay
    /// failure returned instead of panicking.
    pub fn try_build(self) -> Result<CloudViews> {
        // 5 service threads is the paper's measured configuration (14.3 ms
        // modeled lookups).
        let telemetry = Telemetry::new();
        let metadata = Arc::new(MetadataService::with_registry(
            Arc::clone(&self.clock),
            5,
            &telemetry.metrics,
        ));
        self.storage.set_telemetry(Some(Arc::clone(&telemetry)));
        let metrics = RuntimeMetrics::new(&telemetry);
        let analyzer = self
            .incremental_analyzer
            .map(|cfg| Arc::new(IncrementalAnalyzer::new(cfg)));

        let (repo, durable) = match &self.durable {
            Some(path) => {
                let (store, recovered) = DurableStore::open(path, self.snapshot_threshold)
                    .map_err(|e| ScopeError::Storage(format!("durable store open: {e}")))?;
                // What recovery read back, and what a torn tail cost it.
                for (name, value) in [
                    ("cv_store_recovery_dropped_bytes", recovered.dropped_bytes),
                    ("cv_store_recovered_events", recovered.events.len() as u64),
                    ("cv_store_recovered_records", recovered.records.len() as u64),
                    ("cv_store_recovered_views", recovered.views.len() as u64),
                ] {
                    telemetry.metrics.gauge(name).set(value as i64);
                }
                // Replay order: snapshot first (state as of `wal.N`), then
                // the WAL tail, then the bulk stores. The clock advances to
                // the latest *pinned* instant the log proves happened —
                // never a lease expiry, which would instantly lapse every
                // recovered lock.
                let mut max_t = SimTime::ZERO;
                if let Some(bytes) = &recovered.snapshot {
                    let snap = Snapshot::from_bytes(bytes)
                        .map_err(|e| ScopeError::Storage(format!("durable snapshot: {}", e.0)))?;
                    max_t = max_t.max(snap.clock);
                    metadata.restore(snap.metadata);
                    if let Some(a) = &analyzer {
                        a.set_prev_selected(snap.prev_selected);
                    }
                }
                for ev in &recovered.events {
                    match ev {
                        WalEvent::LoadAnnotations { now, .. } => max_t = max_t.max(*now),
                        WalEvent::LockGranted { at, .. } => max_t = max_t.max(*at),
                        WalEvent::Register(req) => max_t = max_t.max(req.available_at),
                        WalEvent::PurgeShard { now, .. } | WalEvent::Unregister { now, .. } => {
                            max_t = max_t.max(*now)
                        }
                    }
                    metadata.apply_event(ev);
                }
                for r in &recovered.records {
                    max_t = max_t.max(r.submitted_at + r.latency);
                }
                let repo = Arc::new(WorkloadRepository::from_records(recovered.records));
                for vf in recovered.views {
                    max_t = max_t.max(vf.meta.created_at);
                    self.storage.publish_view(vf)?;
                }
                // The analyzer's aggregates are a deterministic fold over
                // the record stream (bit-identical whatever the thread
                // count), so recovery re-folds the recovered repository
                // instead of snapshotting aggregates.
                if let Some(a) = &analyzer {
                    a.absorb(&repo);
                }
                self.clock.advance_to(max_t);
                // Hooks attach *last*: everything above is replay and must
                // not be re-logged.
                metadata.set_durable(Some(Arc::clone(&store)));
                self.storage
                    .set_event_sink(Some(Arc::clone(&store) as Arc<dyn StorageEventSink>));
                let sink_store = Arc::clone(&store);
                repo.set_record_sink(Some(Arc::new(move |seq, rec| {
                    sink_store.record_job(seq, rec)
                })));
                (repo, Some(store))
            }
            None => (Arc::new(WorkloadRepository::new()), None),
        };

        Ok(CloudViews {
            storage: self.storage,
            metadata,
            repo,
            clock: self.clock,
            cost: CostModel,
            cluster: ClusterConfig::default(),
            max_materialize_per_job: self.max_materialize_per_job,
            early_materialization: self.early_materialization,
            subsumption: self.subsumption,
            record_runs: self.record_runs,
            degradation: DegradationPolicy::default(),
            faults: None,
            telemetry,
            templates: Arc::new(TemplateCache::new()),
            analyzer,
            durable,
            metrics,
        })
    }
}

impl CloudViews {
    /// Starts a [`CloudViewsBuilder`] over the given storage.
    pub fn builder(storage: Arc<StorageManager>) -> CloudViewsBuilder {
        CloudViewsBuilder::new(storage)
    }

    /// Serializes the durable [`Snapshot`] payload.
    fn snapshot_payload(&self) -> Vec<u8> {
        Snapshot {
            clock: self.clock.now(),
            metadata: self.metadata.snapshot(),
            prev_selected: self
                .analyzer
                .as_ref()
                .map(|a| a.prev_selected())
                .unwrap_or_default(),
        }
        .to_bytes()
    }

    /// Compacts the durable WAL into a snapshot if it has outgrown the
    /// configured threshold (called after every job). Returns `true` when
    /// a snapshot was written; always `false` without durability.
    pub fn maybe_snapshot(&self) -> bool {
        match &self.durable {
            Some(store) => store
                .maybe_snapshot(|| self.snapshot_payload())
                .expect("scope-store: snapshot failed"),
            None => false,
        }
    }

    /// Unconditionally snapshots and compacts the durable WAL (e.g. before
    /// a planned shutdown). Returns `false` without durability or when
    /// another snapshot is already in flight.
    pub fn snapshot_now(&self) -> bool {
        match &self.durable {
            Some(store) => store
                .snapshot_now(|| self.snapshot_payload())
                .expect("scope-store: snapshot failed"),
            None => false,
        }
    }

    /// Installs a fault plan: builds the injector and shares it with the
    /// metadata service. Returns the injector so callers can read the
    /// injected-fault ledger afterwards.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Arc<FaultInjector> {
        let injector = FaultInjector::new(plan);
        self.metadata
            .set_fault_injector(Some(Arc::clone(&injector)));
        self.faults = Some(Arc::clone(&injector));
        injector
    }

    /// Runs the analyzer over everything recorded so far. Phase timings and
    /// candidate/selected counts land in the `cv_analyzer_*` series.
    pub fn analyze(&self, config: &AnalyzerConfig) -> Result<AnalysisOutcome> {
        let span = self
            .telemetry
            .tracer
            .root("analysis", None, self.clock.now());
        let outcome = self
            .repo
            .with_records(|records| run_analysis(records, config))?;
        let m = &self.telemetry.metrics;
        m.counter("cv_analyzer_runs_total").inc();
        m.counter("cv_analyzer_jobs_analyzed_total")
            .add(outcome.jobs_analyzed as u64);
        m.counter("cv_analyzer_candidates_total")
            .add(outcome.groups.len() as u64);
        m.counter("cv_analyzer_selected_total")
            .add(outcome.selected.len() as u64);
        let p = &outcome.phase_times;
        for (name, d) in [
            ("cv_analyzer_filter_wall_micros", p.filter),
            ("cv_analyzer_mining_wall_micros", p.mining),
            ("cv_analyzer_selection_wall_micros", p.selection),
            ("cv_analyzer_design_wall_micros", p.design),
            ("cv_analyzer_total_wall_micros", outcome.wall_time),
        ] {
            m.histogram(name, MetricUnit::WallMicros)
                .record(d.as_micros() as u64);
        }
        self.telemetry.tracer.finish(span, self.clock.now());
        Ok(outcome)
    }

    /// One incremental analyzer round: absorbs any repository records not
    /// yet ingested into the resident [`IncrementalAnalyzer`] and
    /// re-selects from its aggregates — the cost is the record delta plus
    /// selection, not the repository's age. Requires
    /// [`CloudViewsBuilder::incremental_analyzer`]; round deltas land in
    /// the `cv_analyzer_round_*` series and [`IncrementalAnalyzer::last_delta`].
    pub fn analyze_round(&self) -> Result<AnalysisOutcome> {
        let analyzer = self.analyzer.as_ref().ok_or_else(|| {
            ScopeError::Metadata(
                "no incremental analyzer installed \
                 (CloudViewsBuilder::incremental_analyzer)"
                    .into(),
            )
        })?;
        let span = self
            .telemetry
            .tracer
            .root("analyzer_round", None, self.clock.now());
        let outcome = analyzer.round(&self.repo)?;
        let m = &self.telemetry.metrics;
        m.counter("cv_analyzer_rounds_total").inc();
        m.counter("cv_analyzer_candidates_total")
            .add(outcome.groups.len() as u64);
        m.counter("cv_analyzer_selected_total")
            .add(outcome.selected.len() as u64);
        if let Some(delta) = analyzer.last_delta() {
            m.counter("cv_analyzer_round_ingested_jobs_total")
                .add(delta.ingested_jobs as u64);
            m.counter("cv_analyzer_round_newly_selected_total")
                .add(delta.newly_selected.len() as u64);
            m.counter("cv_analyzer_round_dropped_total")
                .add(delta.dropped.len() as u64);
            m.histogram(
                "cv_analyzer_round_ingest_wall_micros",
                MetricUnit::WallMicros,
            )
            .record(delta.ingest_wall.as_micros() as u64);
            m.histogram(
                "cv_analyzer_round_select_wall_micros",
                MetricUnit::WallMicros,
            )
            .record(delta.select_wall.as_micros() as u64);
        }
        self.telemetry.tracer.finish(span, self.clock.now());
        Ok(outcome)
    }

    /// Installs an analysis outcome into the metadata service.
    pub fn install_analysis(&self, outcome: &AnalysisOutcome) {
        self.metadata.load_annotations(&outcome.selected);
    }

    /// Runs one job starting at simulated time `start`.
    ///
    /// The job is retried when its builder crashes mid-materialization
    /// (bounded by [`DegradationPolicy::max_restarts`], modeling the job
    /// service resubmitting a failed job); all other injected faults are
    /// absorbed *within* an attempt by the degradation policy.
    pub fn run_job_at(
        &self,
        spec: &JobSpec,
        mode: RunMode,
        start: SimTime,
    ) -> Result<JobRunReport> {
        self.run_job(spec, mode, start, None, None)
    }

    /// The pre-resolved `cv_sharing_*` handles (for the window driver).
    pub(crate) fn sharing_metrics(&self) -> &SharingMetrics {
        &self.metrics.sharing
    }

    /// The one per-job entry, for [`CloudViews::run_job_at`] and the batch
    /// driver: under the job's root span, compiles the job once through the
    /// template cache (unless `compiled` already holds that compile, as a
    /// sharing window's does), then drives attempts
    /// (`pipeline::run_attempt`) until one succeeds, the builder crash
    /// budget is exhausted, or a fatal error surfaces. `window` is the
    /// sharing-window coordinator and this job's slot in it.
    pub(crate) fn run_job(
        &self,
        spec: &JobSpec,
        mode: RunMode,
        start: SimTime,
        window: Option<(&WindowContext, usize)>,
        compiled: Option<&CompiledJob>,
    ) -> Result<JobRunReport> {
        let root = self.telemetry.tracer.root("job", Some(spec.id), start);
        let wall_start = std::time::Instant::now();
        // One signature/enumeration compile per job — shared by the lookup,
        // optimize, and record stages across every restart.
        let compiled = match compiled {
            Some(compiled) => Ok(Cow::Borrowed(compiled)),
            None => self.templates.compile(&spec.graph).map(Cow::Owned),
        };
        let result = compiled.and_then(|compiled| {
            if compiled.template_hit {
                self.metrics.template_hits.inc();
            } else {
                self.metrics.template_misses.inc();
            }
            let mut faults = JobFaultReport::default();
            let mut restarts = 0u32;
            loop {
                let attempt = pipeline::run_attempt(
                    self,
                    spec,
                    mode,
                    start,
                    &compiled,
                    &mut faults,
                    &root,
                    window,
                );
                match attempt {
                    Ok(mut report) => {
                        report.latency += faults.degraded_latency;
                        report.faults = faults;
                        self.clock.advance_to(start + report.latency);
                        return Ok(report);
                    }
                    Err(AttemptFailure::BuilderCrash { wasted_latency }) => {
                        faults.builder_crashes += 1;
                        faults.degraded_latency += wasted_latency;
                        self.metrics.job_restarts.inc();
                        restarts += 1;
                        if restarts > self.degradation.max_restarts {
                            return Err(ScopeError::Execution(format!(
                                "job {} failed: builder crashed {restarts} times \
                                 (max_restarts={})",
                                spec.id, self.degradation.max_restarts
                            )));
                        }
                    }
                    Err(AttemptFailure::Fatal(e)) => return Err(e),
                }
            }
        });
        self.finish_job(root, start, wall_start, &result);
        result
    }

    /// Closes the job's root span and updates the per-job outcome counters.
    /// The reuse/build/fallback counters are defined to match the returned
    /// [`JobRunReport`]s exactly (asserted in `tests/telemetry.rs`).
    fn finish_job(
        &self,
        root: ActiveSpan,
        start: SimTime,
        wall_start: std::time::Instant,
        result: &Result<JobRunReport>,
    ) {
        let m = &self.metrics;
        match result {
            Ok(report) => {
                m.jobs.inc();
                if !report.views_reused.is_empty() {
                    m.jobs_reuse_hit.inc();
                }
                if !report.views_built.is_empty() {
                    m.jobs_build.inc();
                }
                if report.faults.fell_back_to_baseline {
                    m.jobs_baseline_fallback.inc();
                }
                m.views_built.add(report.views_built.len() as u64);
                m.views_reused.add(report.views_reused.len() as u64);
                let outcome = if !report.views_reused.is_empty() {
                    "reuse"
                } else if !report.views_built.is_empty() {
                    "build"
                } else if report.faults.fell_back_to_baseline {
                    "baseline_fallback"
                } else {
                    "baseline"
                };
                m.job_latency.record(report.latency.micros());
                m.job_cpu.record(report.cpu_time.micros());
                m.job_wall.record(wall_start.elapsed().as_micros() as u64);
                self.telemetry
                    .tracer
                    .finish_with(root, start + report.latency, Some(outcome));
            }
            Err(_) => {
                m.jobs_failed.inc();
                self.telemetry
                    .tracer
                    .finish_with(root, self.clock.now(), Some("failed"));
            }
        }
        // Durable mode: compact the WAL once it outgrows the threshold.
        // Cheap when it hasn't (one tail-size read), a no-op in-memory.
        self.maybe_snapshot();
    }

    /// Records per-stage vertex counts and token occupancy from one job's
    /// simulation (the paper's token model: occupancy is the fraction of
    /// the VC's token-seconds the job's CPU time actually used).
    pub(crate) fn record_sim_metrics(&self, sim: &SimOutcome) {
        let m = &self.metrics;
        m.stages.add(sim.stages.len() as u64);
        m.vertices.add(sim.vertices as u64);
        for stage in &sim.stages {
            m.stage_vertices.record(stage.dop as u64);
        }
        let capacity = sim
            .latency
            .micros()
            .saturating_mul(self.cluster.tokens.max(1) as u64);
        if let Some(pct) = sim
            .cpu_time
            .micros()
            .saturating_mul(100)
            .checked_div(capacity)
        {
            m.token_occupancy.record(pct.min(100));
        }
    }

    /// Records what one plan execution moved: rows into its operators and
    /// cells copied between columns (`ExecOutcome::cells_gathered`) — their
    /// ratio is how much of the data the executor's deferred columns let it
    /// leave where it was — what it took from work done once per stored
    /// input (dataset exchanges kept, `Str` key rows read as codes), and
    /// where its wall time went: in all, per operator kind and, across
    /// kinds, in building recipes and in copying cells.
    pub(crate) fn record_exec_metrics(&self, plan: &QueryGraph, exec: &ExecOutcome) {
        let m = &self.metrics;
        let nanos = |wall: Duration| wall.as_nanos() as u64;
        m.exec_rows_in
            .add(exec.node_stats.iter().map(|s| s.in_rows).sum());
        m.exec_wall.add(nanos(exec.wall));
        m.exec_cells_gathered.add(exec.cells_gathered);
        m.exec_copy_wall.add(nanos(exec.copy_wall));
        m.exec_build_wall.add(nanos(exec.build_wall));
        m.exec_gather_columns.add(exec.gather_columns);
        m.exec_exchange_memo_hits.add(exec.exchange_memo_hits);
        m.exec_coded_key_rows.add(exec.coded_key_rows);
        for (node, wall) in plan.nodes().iter().zip(&exec.node_wall) {
            let kind = node.op.kind();
            debug_assert_eq!(OpKind::ALL[kind as usize], kind);
            m.exec_op_wall[kind as usize].add(nanos(*wall));
        }
    }

    /// Runs jobs back-to-back (each starts when the previous finishes),
    /// like the paper's sequential production experiment.
    pub fn run_sequence(&self, specs: &[JobSpec], mode: RunMode) -> Result<Vec<JobRunReport>> {
        let mut reports = Vec::with_capacity(specs.len());
        let mut now = self.clock.now();
        for spec in specs {
            let report = self.run_job_at(spec, mode, now)?;
            now = report.started_at + report.latency;
            reports.push(report);
        }
        Ok(reports)
    }

    /// Purges expired views from both the metadata service and storage,
    /// judged at one instant.
    pub fn purge_expired(&self) -> PurgeReport {
        let now = self.clock.now();
        let sweep = self.metadata.purge_expired_at(now);
        let bytes_reclaimed = self.storage.purge_expired(now);
        PurgeReport {
            views_purged: sweep.views_purged,
            annotations_purged: sweep.annotations_purged,
            bytes_reclaimed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{AnalyzerConfig, SelectionPolicy};
    use scope_workload::dists::LogNormal;
    use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

    fn setup() -> (CloudViews, RecurringWorkload) {
        let workload = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![ClusterSpec::tiny("rt")],
            seed: 99,
            stream_rows: LogNormal::new(5.8, 0.5, 100.0, 1_200.0),
        })
        .unwrap();
        let storage = Arc::new(StorageManager::new());
        let cv = CloudViews::builder(storage).build();
        (cv, workload)
    }

    fn analyzer_cfg() -> AnalyzerConfig {
        AnalyzerConfig {
            policy: SelectionPolicy::TopKUtility { k: 5 },
            ..Default::default()
        }
    }

    /// The full paper loop: baseline instance → analyze → enabled instance.
    #[test]
    fn end_to_end_reuse_cycle_preserves_outputs_and_saves_cpu() {
        let (cv, workload) = setup();

        // Instance 0: baseline, fills the repository.
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let day0 = workload.jobs_for_instance(0, 0).unwrap();
        cv.run_sequence(&day0, RunMode::Baseline).unwrap();

        // Analyze and install.
        let analysis = cv.analyze(&analyzer_cfg()).unwrap();
        assert!(!analysis.selected.is_empty());
        cv.install_analysis(&analysis);

        // Instance 1 (new data, new GUIDs): run twice, baseline vs enabled.
        workload
            .register_instance_data(0, 1, &cv.storage, 1.0)
            .unwrap();
        let day1 = workload.jobs_for_instance(0, 1).unwrap();
        let baseline: Vec<_> = cv.run_sequence(&day1, RunMode::Baseline).unwrap();
        let enabled: Vec<_> = cv.run_sequence(&day1, RunMode::CloudViews).unwrap();

        // Correctness: identical outputs job by job.
        let mut any_reuse = false;
        for (b, e) in baseline.iter().zip(&enabled) {
            assert_eq!(
                b.output_checksums, e.output_checksums,
                "job {} corrupted",
                b.job
            );
            any_reuse |= !e.views_reused.is_empty();
        }
        let built: usize = enabled.iter().map(|r| r.views_built.len()).sum();
        assert!(built > 0, "no views were materialized");
        assert!(any_reuse, "no views were reused");

        // Performance: total CPU with CloudViews below baseline.
        let cpu_base: SimDuration = baseline.iter().map(|r| r.cpu_time).sum();
        let cpu_cv: SimDuration = enabled.iter().map(|r| r.cpu_time).sum();
        assert!(
            cpu_cv < cpu_base,
            "CloudViews must save CPU: {cpu_cv} vs {cpu_base}"
        );
    }

    #[test]
    fn baseline_mode_never_touches_metadata() {
        let (cv, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let jobs = workload.jobs_for_instance(0, 0).unwrap();
        let r = cv
            .run_job_at(&jobs[0], RunMode::Baseline, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.lookup_latency, SimDuration::ZERO);
        assert_eq!(cv.metadata.stats().lookups, 0);
        assert!(r.views_built.is_empty() && r.views_reused.is_empty());
    }

    #[test]
    fn one_lookup_per_job() {
        let (cv, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let jobs = workload.jobs_for_instance(0, 0).unwrap();
        cv.run_sequence(&jobs[..3], RunMode::CloudViews).unwrap();
        assert_eq!(cv.metadata.stats().lookups, 3);
    }

    #[test]
    fn build_build_sync_under_concurrency() {
        let (cv, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let day0 = workload.jobs_for_instance(0, 0).unwrap();
        cv.run_sequence(&day0, RunMode::Baseline).unwrap();
        let analysis = cv.analyze(&analyzer_cfg()).unwrap();
        cv.install_analysis(&analysis);

        workload
            .register_instance_data(0, 1, &cv.storage, 1.0)
            .unwrap();
        let day1 = workload.jobs_for_instance(0, 1).unwrap();
        // One worker per job, unbounded admission: maximum contention on
        // the build locks.
        let options = crate::pipeline::PipelineOptions {
            workers: day1.len(),
            ..Default::default()
        };
        let reports = cv.run_many(day1, RunMode::CloudViews, options);

        // No view may be built by two jobs.
        let mut built: Vec<Sig128> = reports
            .iter()
            .flat_map(|r| r.as_ref().unwrap().views_built.iter().copied())
            .collect();
        let before = built.len();
        built.sort_unstable();
        built.dedup();
        assert_eq!(built.len(), before, "same view built twice");
        assert!(before > 0);
    }

    #[test]
    fn early_materialization_beats_job_end_publication() {
        let (cv, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let day0 = workload.jobs_for_instance(0, 0).unwrap();
        cv.run_sequence(&day0, RunMode::Baseline).unwrap();
        let analysis = cv.analyze(&analyzer_cfg()).unwrap();
        cv.install_analysis(&analysis);

        workload
            .register_instance_data(0, 1, &cv.storage, 1.0)
            .unwrap();
        let day1 = workload.jobs_for_instance(0, 1).unwrap();
        // Find a job that materializes a view and check availability time
        // precedes its completion.
        let reports = cv.run_sequence(&day1, RunMode::CloudViews).unwrap();
        let builder = reports.iter().find(|r| !r.views_built.is_empty()).unwrap();
        let sig = builder.views_built[0];
        // The metadata service has it with created_at before job end.
        assert!(cv.metadata.view_producer(sig).is_some());
    }

    #[test]
    fn purge_reclaims_after_expiry() {
        let (cv, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let day0 = workload.jobs_for_instance(0, 0).unwrap();
        cv.run_sequence(&day0, RunMode::Baseline).unwrap();
        let analysis = cv
            .analyze(&AnalyzerConfig {
                default_ttl: SimDuration::from_secs(1),
                ..analyzer_cfg()
            })
            .unwrap();
        cv.install_analysis(&analysis);
        workload
            .register_instance_data(0, 1, &cv.storage, 1.0)
            .unwrap();
        let day1 = workload.jobs_for_instance(0, 1).unwrap();
        cv.run_sequence(&day1, RunMode::CloudViews).unwrap();
        assert!(cv.storage.num_views() > 0);
        // Jump far into the future and purge.
        cv.clock.advance(SimDuration::from_secs(10 * 86_400));
        let report = cv.purge_expired();
        assert!(report.views_purged > 0);
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(cv.storage.num_views(), 0);
        assert_eq!(cv.metadata.num_views(), 0);
    }

    #[test]
    fn signature_change_stops_stale_reuse() {
        // After the analysis, the *workload changes* (different seed ⇒
        // different fragment parameters). Old annotations must never match,
        // so nothing is reused or materialized — the paper's "view
        // materialization stops automatically" property.
        let (cv, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let day0 = workload.jobs_for_instance(0, 0).unwrap();
        cv.run_sequence(&day0, RunMode::Baseline).unwrap();
        let analysis = cv.analyze(&analyzer_cfg()).unwrap();
        cv.install_analysis(&analysis);

        let changed = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![ClusterSpec::tiny("rt")],
            seed: 12345, // workload change
            stream_rows: LogNormal::new(5.8, 0.5, 100.0, 1_200.0),
        })
        .unwrap();
        changed
            .register_instance_data(0, 1, &cv.storage, 1.0)
            .unwrap();
        let day1 = changed.jobs_for_instance(0, 1).unwrap();
        let reports = cv.run_sequence(&day1, RunMode::CloudViews).unwrap();
        for r in &reports {
            assert!(
                r.views_built.is_empty(),
                "stale annotation triggered a build"
            );
            assert!(r.views_reused.is_empty());
        }
    }
}
