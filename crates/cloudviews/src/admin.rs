//! Admin operations and debuggability (paper Sections 4, 5.4, 5.5, 8).
//!
//! Production requirements the runtime alone does not cover:
//!
//! * **Storage reclamation** (§5.4) — "cluster admins could also reclaim a
//!   given storage space by running the same view selection routines ...
//!   replacing the max objective function with a min"; both paths "require
//!   cleaning the views from the metadata service first before deleting any
//!   of the physical files". [`reclaim_storage`] implements exactly that
//!   order.
//! * **Debuggability** (§4 requirement 6) — operators must be able to see
//!   which views a job created or used, trace the producing job of any
//!   view, and "drill down into why a view was selected for materialization
//!   or reuse in the first place". [`explain_selection`] re-derives the
//!   selection verdict of any mined computation against the configured
//!   constraints; [`trace_view`] follows a stored view back to its producer.

use std::collections::HashMap;

use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::time::SimDuration;
use scope_common::Result;

use crate::analyzer::selection::{SelectionConstraints, ADMISSION};
use crate::analyzer::{mine_overlaps, AnalyzerConfig, OverlapGroup};
use crate::runtime::CloudViews;

/// Outcome of a storage-reclamation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReclaimReport {
    /// Views removed (metadata first, then files).
    pub views_removed: usize,
    /// Bytes reclaimed from the view store.
    pub bytes_reclaimed: u64,
    /// View-store bytes remaining.
    pub bytes_remaining: u64,
}

/// Frees at least `bytes_needed` from the view store by evicting the
/// *least useful* stored views (the §5.4 min-objective selection), cleaning
/// the metadata service before deleting any physical file so that no job
/// can be handed a view whose file is about to disappear.
pub fn reclaim_storage(service: &CloudViews, bytes_needed: u64) -> Result<ReclaimReport> {
    // Rank stored views by the utility of their mined overlap groups; views
    // with no surviving group stats rank lowest (nothing is known to want
    // them).
    let utility: HashMap<Sig128, SimDuration> = service
        .repo
        .with_records(|records| mine_overlaps(records))
        .iter()
        .map(|g| (g.normalized, g.utility()))
        .collect();
    let mut stored = service.storage.view_metas();
    stored.sort_by_key(|m| utility.get(&m.normalized).copied().unwrap_or_default());

    let mut to_remove: Vec<Sig128> = Vec::new();
    let mut reclaiming = 0u64;
    for meta in &stored {
        if reclaiming >= bytes_needed {
            break;
        }
        reclaiming += meta.bytes;
        to_remove.push(meta.precise);
    }

    // Metadata first, files second — the paper's required order.
    let now = service.clock.now();
    service.metadata.unregister_views(&to_remove, now);
    let mut bytes_reclaimed = 0;
    for sig in &to_remove {
        bytes_reclaimed += service.storage.delete_view(*sig).unwrap_or(0);
    }
    Ok(ReclaimReport {
        views_removed: to_remove.len(),
        bytes_reclaimed,
        bytes_remaining: service.storage.total_view_bytes(),
    })
}

/// One step of the selection verdict for a computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictStep {
    /// Constraint name.
    pub check: &'static str,
    /// Human-readable observed-vs-required line.
    pub detail: String,
    /// Whether the computation passed this check.
    pub passed: bool,
}

/// The full "why was / wasn't this view selected" drill-down.
#[derive(Debug, Clone)]
pub struct SelectionExplanation {
    /// The computation's normalized signature.
    pub normalized: Sig128,
    /// Constraint-by-constraint verdict.
    pub steps: Vec<VerdictStep>,
    /// Whether every constraint passed (policy ranking then decides).
    pub admitted: bool,
    /// The computation's utility, for ranking context.
    pub utility: SimDuration,
}

impl SelectionExplanation {
    /// Renders as an indented report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "computation {} — utility {} — {}\n",
            self.normalized.short(),
            self.utility,
            if self.admitted {
                "ADMITTED (ranked by policy)"
            } else {
                "REJECTED"
            }
        );
        for s in &self.steps {
            out.push_str(&format!(
                "  [{}] {:<16} {}\n",
                if s.passed { "ok" } else { "FAIL" },
                s.check,
                s.detail
            ));
        }
        out
    }
}

/// Explains how `group` fares against `constraints` — the paper's "drill
/// down into why a view was selected ... in the first place".
pub fn explain_selection(
    group: &OverlapGroup,
    constraints: &SelectionConstraints,
) -> SelectionExplanation {
    let steps: Vec<VerdictStep> = ADMISSION
        .iter()
        .map(|check| VerdictStep {
            check: check.name,
            detail: (check.detail)(group, constraints),
            passed: (check.passes)(group, constraints),
        })
        .collect();
    SelectionExplanation {
        normalized: group.normalized,
        admitted: steps.iter().all(|s| s.passed),
        steps,
        utility: group.utility(),
    }
}

/// Everything known about one stored view (requirement 6's trace).
#[derive(Debug, Clone)]
pub struct ViewTrace {
    /// Precise signature (the storage key and file-path component).
    pub precise: Sig128,
    /// Simulated physical path of the file.
    pub physical_path: String,
    /// Job that produced it.
    pub producer: JobId,
    /// Jobs that contained the computation in the analyzed history.
    pub historical_jobs: Vec<JobId>,
    /// Stored rows/bytes.
    pub rows: u64,
    /// Stored bytes.
    pub bytes: u64,
}

/// Traces a stored view back to its producer and historical consumers.
pub fn trace_view(service: &CloudViews, precise: Sig128) -> Option<ViewTrace> {
    let now = service.clock.now();
    let file = service.storage.view(precise, now)?;
    let historical_jobs = service
        .repo
        .with_records(|records| mine_overlaps(records))
        .into_iter()
        .find(|g| g.normalized == file.meta.normalized)
        .map(|g| g.jobs)
        .unwrap_or_default();
    Some(ViewTrace {
        precise,
        physical_path: file.physical_path(),
        producer: file.meta.producer,
        historical_jobs,
        rows: file.meta.rows,
        bytes: file.meta.bytes,
    })
}

/// Convenience: the full admin report — analysis summary plus the top-N
/// selection explanations (the §5.5 dashboard in text form).
pub fn admin_report(service: &CloudViews, config: &AnalyzerConfig, top: usize) -> Result<String> {
    let analysis = service.analyze(config)?;
    let mut out = format!(
        "jobs analyzed: {}\noverlapping computations: {}\nviews selected: {} ({:?})\n\n",
        analysis.jobs_analyzed,
        analysis.groups.len(),
        analysis.selected.len(),
        config.policy,
    );
    out.push_str(&crate::reporting::top_overlaps(&analysis.groups, top));
    out.push('\n');
    for group in analysis.groups.iter().take(top) {
        out.push_str(&explain_selection(group, &config.constraints).render());
    }
    Ok(out)
}

/// The operator-facing fault-tolerance dashboard: metadata-service failure
/// and recovery counters, live build-lock pressure, injected-fault totals
/// (when a fault plan is installed), and the per-job degradation drill-down
/// from [`crate::reporting::fault_report`].
pub fn fault_dashboard(service: &CloudViews, reports: &[crate::runtime::JobRunReport]) -> String {
    let stats = service.metadata.stats();
    let now = service.clock.now();
    let mut out = format!(
        "metadata: lookups={} failed_lookups={} failed_proposals={} \
         failed_reports={} purged_annotations={}\nlocks: granted={} conflicts={} \
         expired_takeovers={} active_now={}\n",
        stats.lookups,
        stats.failed_lookups,
        stats.failed_proposals,
        stats.failed_reports,
        stats.purged_annotations,
        stats.locks_granted,
        stats.lock_conflicts,
        stats.expired_takeovers,
        service.metadata.num_active_locks(now),
    );
    if let Some(injector) = &service.faults {
        let injected = injector.injected();
        out.push_str(&format!(
            "injected: total={} lookup={} propose={} report={} crash={} \
             loss={} corrupt={} delayed={}\n",
            injected.total(),
            injected.lookup_failures,
            injected.propose_failures,
            injected.report_failures,
            injected.builder_crashes,
            injected.views_lost,
            injected.views_corrupted,
            injected.delayed_publications,
        ));
    }
    out.push('\n');
    out.push_str(&crate::reporting::fault_report(reports));
    out
}

/// The operator-facing observability dashboard: a one-screen summary of the
/// job-outcome, metadata, and storage series from the service's telemetry
/// sink, followed by the full Prometheus exposition (scrape-ready).
///
/// Complements [`fault_dashboard`]: that one joins per-job degradation
/// reports; this one is the service-wide counter/histogram view.
pub fn telemetry_dashboard(service: &CloudViews) -> String {
    let t = &service.telemetry;
    let snap = t.metrics.snapshot();
    // A histogram's mean in milliseconds (0 when nothing was observed).
    let mean_ms = |name: &str| snap.histogram(name).map(|h| h.mean() / 1e3).unwrap_or(0.0);
    let mut out = format!(
        "jobs: total={} reuse_hit={} build={} baseline_fallback={} failed={} restarts={}\n",
        snap.counter("cv_jobs_total"),
        snap.counter("cv_jobs_reuse_hit_total"),
        snap.counter("cv_jobs_build_total"),
        snap.counter("cv_jobs_baseline_fallback_total"),
        snap.counter("cv_jobs_failed_total"),
        snap.counter("cv_jobs_restarts_total"),
    );
    out.push_str(&format!(
        "metadata: lookups={} misses={} mean_lookup={:.1}ms \
         locks_granted={} conflicts={} active_locks={} purged_annotations={}\n",
        snap.counter("cv_metadata_lookups_total"),
        snap.counter("cv_metadata_lookup_misses_total"),
        mean_ms("cv_metadata_lookup_sim_micros"),
        snap.counter("cv_metadata_locks_granted_total"),
        snap.counter("cv_metadata_lock_conflicts_total"),
        snap.gauge("cv_metadata_build_locks"),
        snap.counter("cv_metadata_purged_annotations_total"),
    ));
    out.push_str(&format!(
        "cascade: tier2_hits={} tier2_rejects={} mean_tier1={:.1}ms mean_tier2={:.1}ms\n",
        snap.counter("cv_metadata_tier2_hits_total"),
        snap.counter("cv_metadata_tier2_rejects_total"),
        mean_ms("cv_metadata_lookup_tier1_sim_micros"),
        mean_ms("cv_metadata_lookup_tier2_sim_micros"),
    ));
    out.push_str(&format!(
        "storage: published={} written={}B read={}B checksum_failures={} \
         purged={}B live={}B\n",
        snap.counter("cv_storage_views_published_total"),
        snap.counter("cv_storage_bytes_written_total"),
        snap.counter("cv_storage_bytes_read_total"),
        snap.counter("cv_storage_checksum_failures_total"),
        snap.counter("cv_storage_bytes_purged_total"),
        snap.gauge("cv_storage_view_bytes"),
    ));
    // The front-door series only exists when a network server is running
    // against this telemetry sink; skip the section for in-process-only
    // deployments rather than printing a row of zeros.
    if snap.counter("cv_net_connections_total") > 0 || snap.counter("cv_net_frames_total") > 0 {
        out.push_str(&format!(
            "net: connections={} disconnects={} frames={} \
             (lookup={} propose={} report={} purge={} stats={})\n",
            snap.counter("cv_net_connections_total"),
            snap.counter("cv_net_disconnects_total"),
            snap.counter("cv_net_frames_total"),
            snap.counter("cv_net_frames_lookup_total"),
            snap.counter("cv_net_frames_propose_total"),
            snap.counter("cv_net_frames_report_total"),
            snap.counter("cv_net_frames_purge_total"),
            snap.counter("cv_net_frames_stats_total"),
        ));
        out.push_str(&format!(
            "net admission: shed={} over_quota={} malformed={} errors={} \
             queue_depth={}\n",
            snap.counter("cv_net_shed_total"),
            snap.counter("cv_net_quota_rejections_total"),
            snap.counter("cv_net_malformed_total"),
            snap.counter("cv_net_error_responses_total"),
            snap.gauge("cv_net_queue_depth"),
        ));
        out.push_str(&format!(
            "net io: read={}B written={}B mean_lookup={:.1}ms mean_propose={:.1}ms \
             mean_report={:.1}ms\n",
            snap.counter("cv_net_bytes_read_total"),
            snap.counter("cv_net_bytes_written_total"),
            mean_ms("cv_net_lookup_wall_micros"),
            mean_ms("cv_net_propose_wall_micros"),
            mean_ms("cv_net_report_wall_micros"),
        ));
    }
    // The sharing series only exists once run_windowed has coordinated at
    // least one window; in-process-only or uncoordinated deployments skip
    // the section rather than printing a row of zeros.
    if snap.counter("cv_sharing_windows_total") > 0 {
        out.push_str(&format!(
            "sharing: windows={} jobs={} shared_subgraphs={} published={} \
             aborted={}\n",
            snap.counter("cv_sharing_windows_total"),
            snap.counter("cv_sharing_window_jobs_total"),
            snap.counter("cv_sharing_shared_subgraphs_total"),
            snap.counter("cv_sharing_producer_publishes_total"),
            snap.counter("cv_sharing_producer_aborts_total"),
        ));
        out.push_str(&format!(
            "sharing followers: reuses={} fallbacks={} mean_wait={:.1}ms\n",
            snap.counter("cv_sharing_follower_reuses_total"),
            snap.counter("cv_sharing_follower_fallbacks_total"),
            mean_ms("cv_sharing_wait_sim_micros"),
        ));
    }
    out.push_str(&format!(
        "spans: retained={} dropped={}\n",
        t.tracer.finished().len(),
        t.tracer.dropped(),
    ));
    out.push_str("\n# Prometheus exposition\n");
    out.push_str(&snap.prometheus_text());
    out
}

/// The operator-facing analyzer dashboard: the resident incremental
/// analyzer's accumulated state (jobs folded, distinct subgraphs, live
/// overlap groups) and the last round's delta — what churned in the
/// selected-view set and what the round cost, ingest vs. select.
///
/// Complements [`telemetry_dashboard`]: that one shows the service-wide
/// `cv_analyzer_*` series; this one drills into the analyzer state itself.
pub fn analyzer_dashboard(service: &CloudViews) -> String {
    let Some(analyzer) = &service.analyzer else {
        return "analyzer: none installed (CloudViewsBuilder::incremental_analyzer)\n".into();
    };
    let state = analyzer.state();
    let mut out = format!(
        "analyzer: rounds={} jobs_admitted={} jobs_skipped={} \
         distinct_subgraphs={} groups_tracked={}\n",
        analyzer.rounds(),
        state.jobs_admitted(),
        state.jobs_skipped(),
        state.distinct_subgraphs(),
        state.groups_tracked(),
    );
    match analyzer.last_delta() {
        None => out.push_str("last round: none yet\n"),
        Some(d) => {
            out.push_str(&format!(
                "last round #{}: ingested={} (total {}) groups={} selected={} \
                 ingest={}µs select={}µs\n",
                d.round,
                d.ingested_jobs,
                d.jobs_total,
                d.groups_total,
                d.selected_total,
                d.ingest_wall.as_micros(),
                d.select_wall.as_micros(),
            ));
            for sig in &d.newly_selected {
                out.push_str(&format!("  + {}\n", sig.short()));
            }
            for sig in &d.dropped {
                out.push_str(&format!("  - {}\n", sig.short()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{AnalyzerConfig, SelectionPolicy};
    use crate::runtime::RunMode;
    use scope_engine::storage::StorageManager;
    use scope_workload::dists::LogNormal;
    use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};
    use std::sync::Arc;

    fn running_service() -> (CloudViews, RecurringWorkload) {
        let w = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![ClusterSpec::tiny("admin")],
            seed: 77,
            stream_rows: LogNormal::new(6.0, 0.5, 150.0, 1_500.0),
        })
        .unwrap();
        let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
        w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
        cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
            .unwrap();
        let analysis = cv
            .analyze(&AnalyzerConfig {
                policy: SelectionPolicy::TopKUtility { k: 6 },
                ..Default::default()
            })
            .unwrap();
        cv.install_analysis(&analysis);
        w.register_instance_data(0, 1, &cv.storage, 1.0).unwrap();
        cv.run_sequence(&w.jobs_for_instance(0, 1).unwrap(), RunMode::CloudViews)
            .unwrap();
        (cv, w)
    }

    #[test]
    fn reclaim_storage_frees_space_metadata_first() {
        let (cv, _) = running_service();
        let before_views = cv.storage.num_views();
        let before_bytes = cv.storage.total_view_bytes();
        assert!(before_views > 0);

        let report = reclaim_storage(&cv, before_bytes / 2).unwrap();
        assert!(report.views_removed > 0);
        assert!(report.bytes_reclaimed >= before_bytes / 2 || report.views_removed == before_views);
        assert_eq!(report.bytes_remaining, cv.storage.total_view_bytes());
        // Metadata has no dangling entries for removed views.
        assert_eq!(cv.metadata.num_views(), cv.storage.num_views());
    }

    #[test]
    fn reclaim_evicts_least_useful_first() {
        let (cv, _) = running_service();
        let groups = cv.repo.with_records(|records| mine_overlaps(records));
        // Reclaim a single byte: exactly one (least useful) view goes.
        let report = reclaim_storage(&cv, 1).unwrap();
        assert_eq!(report.views_removed, 1);
        // The most useful stored view must survive.
        let best = groups
            .iter()
            .filter(|g| {
                cv.storage
                    .view_metas()
                    .iter()
                    .any(|m| m.normalized == g.normalized)
            })
            .max_by_key(|g| g.utility());
        if let Some(best) = best {
            assert!(
                cv.storage
                    .view_metas()
                    .iter()
                    .any(|m| m.normalized == best.normalized),
                "evicted the most useful view"
            );
        }
    }

    #[test]
    fn explain_selection_reports_each_constraint() {
        let (cv, _) = running_service();
        let records = cv.repo.records();
        let refs: Vec<_> = records.iter().collect();
        let groups = crate::analyzer::mine_overlaps(&refs);
        let strict = SelectionConstraints {
            min_frequency: 1_000_000, // nothing passes
            ..Default::default()
        };
        let explanation = explain_selection(&groups[0], &strict);
        assert!(!explanation.admitted);
        let failed: Vec<_> = explanation.steps.iter().filter(|s| !s.passed).collect();
        assert!(failed.iter().any(|s| s.check == "min_frequency"));
        let text = explanation.render();
        assert!(text.contains("REJECTED"));
        assert!(text.contains("min_frequency"));

        let lax = SelectionConstraints {
            min_nodes: 0,
            ..Default::default()
        };
        let explanation = explain_selection(&groups[0], &lax);
        assert!(explanation.render().contains("ok"));
    }

    #[test]
    fn explain_admits_exactly_what_select_admits() {
        use crate::analyzer::selection::select_budgeted;
        use std::collections::HashSet;

        let (cv, _) = running_service();
        let groups = cv.repo.with_records(|records| mine_overlaps(records));
        // Admits two of the mined groups and rejects the others on
        // frequency, cost ratio, CPU or size.
        let strict = SelectionConstraints {
            min_frequency: 3,
            min_cost_ratio: 0.005,
            min_cpu: SimDuration::from_millis(1),
            max_bytes: 48_000,
            min_nodes: 3,
            ..Default::default()
        };
        let presets = [
            SelectionConstraints::default(),
            SelectionConstraints {
                per_job_cap: None,
                ..SelectionConstraints::paper_production()
            },
            strict,
        ];
        let (mut admitted, mut rejected) = (0, 0);
        for c in &presets {
            let all = SelectionPolicy::TopKUtility { k: usize::MAX };
            let selected: HashSet<Sig128> = select_budgeted(&groups, &all, c)
                .iter()
                .map(|g| g.normalized)
                .collect();
            for g in &groups {
                let explained = explain_selection(g, c).admitted;
                assert_eq!(explained, selected.contains(&g.normalized), "{c:?}");
                if explained {
                    admitted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(admitted > 0 && rejected > 0, "{admitted} / {rejected}");
    }

    #[test]
    fn trace_view_finds_producer_and_history() {
        let (cv, _) = running_service();
        let meta = cv.storage.view_metas().pop().expect("a stored view");
        let trace = trace_view(&cv, meta.precise).expect("traceable");
        assert_eq!(trace.producer, meta.producer);
        assert!(trace.physical_path.contains(&meta.precise.to_string()));
        assert!(!trace.historical_jobs.is_empty());
        // Unknown signature: no trace.
        assert!(trace_view(&cv, Sig128::new(1, 1)).is_none());
    }

    #[test]
    fn fault_dashboard_renders_clean_and_faulty() {
        use crate::faults::{FaultPlan, FaultSite, ScriptedFault};

        let (cv, w) = running_service();
        // Clean service: counters render, no injected section, no drill-down.
        let text = fault_dashboard(&cv, &[]);
        assert!(text.contains("purged_annotations="));
        assert!(text.contains("expired_takeovers="));
        assert!(!text.contains("injected:"));
        assert!(text.contains("no faults observed"));

        // Fail the first lookup of every job: the dashboard shows both the
        // injected totals and the per-job degradation rows.
        let mut cv = cv;
        cv.install_fault_plan(FaultPlan {
            scripted: vec![ScriptedFault {
                site: FaultSite::MetadataLookup,
                job: None,
                call_index: 0,
            }],
            ..Default::default()
        });
        w.register_instance_data(0, 2, &cv.storage, 1.0).unwrap();
        let reports = cv
            .run_sequence(&w.jobs_for_instance(0, 2).unwrap(), RunMode::CloudViews)
            .unwrap();
        let text = fault_dashboard(&cv, &reports);
        assert!(text.contains("injected: total="), "{text}");
        assert!(text.contains("failed_lookups="), "{text}");
        assert!(text.contains("TOTAL"), "{text}");
    }

    #[test]
    fn telemetry_dashboard_renders_live_series() {
        let (cv, _) = running_service();
        let text = telemetry_dashboard(&cv);
        assert!(text.contains("jobs: total="), "{text}");
        assert!(!text.contains("jobs: total=0"), "jobs ran: {text}");
        assert!(text.contains("mean_lookup="), "{text}");
        assert!(text.contains("purged_annotations="), "{text}");
        assert!(text.contains("cascade: tier2_hits="), "{text}");
        assert!(text.contains("mean_tier1="), "{text}");
        assert!(text.contains("storage: published="), "{text}");
        assert!(text.contains("# TYPE cv_jobs_total counter"), "{text}");
        assert!(text.contains("cv_job_latency_sim_micros_count"), "{text}");
    }

    #[test]
    fn analyzer_dashboard_shows_round_deltas() {
        use scope_engine::storage::StorageManager;

        // No analyzer installed: the dashboard says so instead of lying
        // with zeros.
        let bare = CloudViews::builder(Arc::new(StorageManager::new())).build();
        assert!(analyzer_dashboard(&bare).contains("none installed"));

        let w = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![ClusterSpec::tiny("admin-inc")],
            seed: 77,
            stream_rows: LogNormal::new(6.0, 0.5, 150.0, 1_500.0),
        })
        .unwrap();
        let cv = CloudViews::builder(Arc::new(StorageManager::new()))
            .incremental_analyzer(AnalyzerConfig {
                policy: SelectionPolicy::TopKUtility { k: 6 },
                ..Default::default()
            })
            .build();
        w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
        cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
            .unwrap();
        let text = analyzer_dashboard(&cv);
        assert!(text.contains("rounds=0"), "{text}");
        assert!(text.contains("none yet"), "{text}");
        // Records were absorbed as the pipeline recorded them.
        assert!(!text.contains("jobs_admitted=0"), "{text}");

        let outcome = cv.analyze_round().unwrap();
        assert!(!outcome.selected.is_empty());
        let text = analyzer_dashboard(&cv);
        assert!(text.contains("rounds=1"), "{text}");
        assert!(text.contains("last round #1"), "{text}");
        // First round: every selected view is newly selected.
        assert_eq!(
            text.matches("  + ").count(),
            outcome.selected.len(),
            "{text}"
        );
        assert_eq!(text.matches("  - ").count(), 0, "{text}");
    }

    #[test]
    fn builder_defaults_are_stable() {
        let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
        assert_eq!(cv.max_materialize_per_job, 1);
        assert!(cv.early_materialization);
        assert_eq!(cv.templates.stats().entries, 0);
    }

    #[test]
    fn admin_report_renders() {
        let (cv, _) = running_service();
        let report = admin_report(
            &cv,
            &AnalyzerConfig {
                policy: SelectionPolicy::TopKUtility { k: 3 },
                ..Default::default()
            },
            5,
        )
        .unwrap();
        assert!(report.contains("jobs analyzed"));
        assert!(report.contains("rank"));
        assert!(report.contains("computation"));
    }
}
