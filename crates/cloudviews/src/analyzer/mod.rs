//! The CloudViews workload analyzer (paper Section 5).
//!
//! Periodically (or on demand, from the admin CLI) the analyzer replays the
//! workload repository — compile-time plans already reconciled with runtime
//! statistics — and produces everything the runtime needs:
//!
//! * [`overlap`] — mining of overlapping computations and the workload-wide
//!   overlap metrics behind the paper's Figures 1–5;
//! * [`selection`] — pluggable view-selection policies: top-k by utility,
//!   top-k by utility-per-byte, per-job caps, and BigSubs-style packing
//!   under a storage budget (the companion work cited as \[24\]);
//! * [`physical`] — per-view physical design from observed output
//!   properties (Section 5.3);
//! * [`expiry`] — input-lineage-based view TTLs (Section 5.4);
//! * [`coordination`] — job submission order hints (Section 6.5);
//! * [`incremental`] — the persistent [`AnalyzerState`] behind all of the
//!   above: overlap statistics folded incrementally as records arrive, so
//!   a round costs the delta, not the history.

pub mod coordination;
pub mod expiry;
pub mod incremental;
pub mod overlap;
pub mod physical;
pub mod selection;

use scope_common::hash::Sig128;
use scope_common::ids::VcId;
use scope_common::intern::Symbol;
use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_engine::optimizer::Annotation;
use scope_engine::repo::JobRecord;

pub use incremental::{AnalyzerState, IncrementalAnalyzer, IngestReport, RoundDelta};
pub use overlap::{mine_overlaps, overlap_metrics, OverlapGroup, OverlapMetrics};
pub use selection::{SelectionConstraints, SelectionPolicy};

/// One view the analyzer decided to materialize and reuse.
#[derive(Clone, Debug)]
pub struct SelectedView {
    /// The annotation shipped to the metadata service.
    pub annotation: Annotation,
    /// Tags for the inverted index (normalized input names, interned).
    pub input_tags: Vec<Symbol>,
    /// Estimated per-instance utility (CPU saved by reuse).
    pub utility: SimDuration,
    /// Observed per-instance occurrence count.
    pub frequency: u64,
    /// The most recent precise signature observed (debugging/drill-down).
    pub precise_last_seen: Sig128,
}

/// Analyzer configuration — the admin interface of Section 5.5.
#[derive(Clone, Debug)]
pub struct AnalyzerConfig {
    /// Only analyze jobs submitted in `[window_from, window_to)`.
    pub window_from: SimTime,
    /// Window end (exclusive); `SimTime::MAX` = everything.
    pub window_to: SimTime,
    /// Admins can include only certain VCs...
    pub include_vcs: Option<Vec<VcId>>,
    /// ...or exclude certain VCs from the analysis.
    pub exclude_vcs: Vec<VcId>,
    /// Selection policy.
    pub policy: SelectionPolicy,
    /// Selection constraints (frequency, cost ratio, CPU, bytes, size,
    /// outputs, per-job cap).
    pub constraints: SelectionConstraints,
    /// TTL used when lineage gives no answer.
    pub default_ttl: SimDuration,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            window_from: SimTime::ZERO,
            window_to: SimTime::MAX,
            include_vcs: None,
            exclude_vcs: Vec::new(),
            policy: SelectionPolicy::TopKUtility { k: 10 },
            constraints: SelectionConstraints::default(),
            default_ttl: SimDuration::from_secs(86_400),
        }
    }
}

/// Wall-clock time per analyzer phase (Section 7.3 overhead, drilled down
/// for the `cv_analyzer_*` telemetry series).
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalysisPhaseTimes {
    /// Window/VC filtering of repository records.
    pub filter: std::time::Duration,
    /// Overlap enumeration: mining, workload metrics, lineage tracking.
    pub mining: std::time::Duration,
    /// View selection under the configured policy and constraints.
    pub selection: std::time::Duration,
    /// Physical design, TTL assignment, and coordination hints.
    pub design: std::time::Duration,
}

/// The analyzer's output: annotations plus coordination hints.
#[derive(Clone, Debug)]
pub struct AnalysisOutcome {
    /// Selected views, ready for `MetadataService::load_annotations`.
    pub selected: Vec<SelectedView>,
    /// All mined overlap groups (reporting / drill-down).
    pub groups: Vec<OverlapGroup>,
    /// Workload-wide overlap metrics (Figures 1–5 series).
    pub metrics: OverlapMetrics,
    /// Submission-order hint: templates to run first (view builders).
    pub order_hints: Vec<scope_common::ids::TemplateId>,
    /// Wall-clock time of the analysis (Section 7.3 overhead).
    pub wall_time: std::time::Duration,
    /// Per-phase breakdown of `wall_time`.
    pub phase_times: AnalysisPhaseTimes,
    /// Jobs analyzed after window/VC filtering.
    pub jobs_analyzed: usize,
}

/// Runs the full analysis over repository records.
///
/// One-shot convenience over [`AnalyzerState`]: a fresh state ingests all
/// `records` and selects once. Long-lived callers should keep an
/// [`IncrementalAnalyzer`] instead and pay only for the delta each round —
/// this entry point re-folds history every call.
pub fn run_analysis(records: &[JobRecord], config: &AnalyzerConfig) -> Result<AnalysisOutcome> {
    let start = std::time::Instant::now();
    let state = AnalyzerState::new(config.clone());
    let report = state.ingest(records);
    let mut outcome = state.select()?;
    outcome.phase_times.filter = report.filter_wall;
    outcome.phase_times.mining += report.fold_wall;
    outcome.wall_time = start.elapsed();
    Ok(outcome)
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared scaffolding: runs a tiny workload through the real engine so
    //! analyzer tests mine genuine reconciled records.
    use scope_common::ids::JobId;
    use scope_common::time::{SimDuration, SimTime};
    use scope_engine::cost::CostModel;
    use scope_engine::exec::execute_plan;
    use scope_engine::job::JobSpec;
    use scope_engine::optimizer::{optimize, NoViewServices, OptimizerConfig};
    use scope_engine::repo::{JobIdentity, WorkloadRepository};
    use scope_engine::sim::{simulate, ClusterConfig};
    use scope_engine::storage::StorageManager;
    use scope_workload::dists::LogNormal;
    use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

    /// Runs `instances` recurring instances of a tiny workload baseline
    /// (no CloudViews) and returns the repository + storage + workload.
    pub fn baseline_run(
        instances: u64,
        seed: u64,
    ) -> (WorkloadRepository, StorageManager, RecurringWorkload) {
        let workload = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![ClusterSpec::tiny("t")],
            seed,
            stream_rows: LogNormal::new(5.5, 0.6, 80.0, 900.0),
        })
        .unwrap();
        let storage = StorageManager::new();
        let repo = WorkloadRepository::new();
        let model = CostModel;
        let cluster = ClusterConfig::default();
        let mut now = SimTime::ZERO;
        for inst in 0..instances {
            workload
                .register_instance_data(0, inst, &storage, 1.0)
                .unwrap();
            for spec in workload.jobs_for_instance(0, inst).unwrap() {
                run_one(&spec, &storage, &repo, &model, &cluster, now);
                now += SimDuration::from_secs(30);
            }
            now += SimDuration::from_secs(3600);
        }
        (repo, storage, workload)
    }

    pub fn run_one(
        spec: &JobSpec,
        storage: &StorageManager,
        repo: &WorkloadRepository,
        model: &CostModel,
        cluster: &ClusterConfig,
        now: SimTime,
    ) {
        let cfg = OptimizerConfig {
            enable_reuse: false,
            enable_materialize: false,
            ..Default::default()
        };
        let plan = optimize(&spec.graph, &[], &NoViewServices, &cfg, spec.id).unwrap();
        let exec = execute_plan(&plan.physical, storage, model, now).unwrap();
        let sim = simulate(&plan.physical, &exec, cluster);
        repo.record(
            JobIdentity {
                job: JobId::new(spec.id.raw()),
                cluster: spec.cluster,
                vc: spec.vc,
                user: spec.user,
                template: spec.template,
                instance: spec.instance,
                submitted_at: now,
            },
            &spec.graph,
            &plan,
            &exec,
            &sim,
        )
        .unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_analysis_selects_views() {
        let (repo, _storage, _w) = testutil::baseline_run(1, 11);
        let records = repo.records();
        let outcome = run_analysis(&records, &AnalyzerConfig::default()).unwrap();
        assert_eq!(outcome.jobs_analyzed, records.len());
        assert!(!outcome.groups.is_empty(), "tiny workload must overlap");
        assert!(!outcome.selected.is_empty());
        assert!(outcome.selected.len() <= 10);
        // Selected views are sorted by utility, descending.
        for w in outcome.selected.windows(2) {
            assert!(w[0].utility >= w[1].utility);
        }
        // Every selected view carries tags and positive mined stats.
        for s in &outcome.selected {
            assert!(!s.input_tags.is_empty());
            assert!(s.annotation.avg_cpu > SimDuration::ZERO);
            assert!(s.frequency >= 2);
        }
        assert!(!outcome.order_hints.is_empty());
    }

    #[test]
    fn vc_filters_apply() {
        let (repo, ..) = testutil::baseline_run(1, 11);
        let records = repo.records();
        let all = run_analysis(&records, &AnalyzerConfig::default()).unwrap();
        let only_vc0 = run_analysis(
            &records,
            &AnalyzerConfig {
                include_vcs: Some(vec![VcId::new(0)]),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(only_vc0.jobs_analyzed < all.jobs_analyzed);
        let excluded = run_analysis(
            &records,
            &AnalyzerConfig {
                exclude_vcs: vec![VcId::new(0)],
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            excluded.jobs_analyzed + only_vc0.jobs_analyzed,
            all.jobs_analyzed
        );
    }

    #[test]
    fn window_filter_applies() {
        let (repo, ..) = testutil::baseline_run(2, 11);
        let records = repo.records();
        let all = run_analysis(&records, &AnalyzerConfig::default()).unwrap();
        let early = run_analysis(
            &records,
            &AnalyzerConfig {
                window_to: SimTime(3_600_000_000),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(early.jobs_analyzed < all.jobs_analyzed);
        assert!(early.jobs_analyzed > 0);
    }
}
