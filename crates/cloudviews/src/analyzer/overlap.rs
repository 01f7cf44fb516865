//! Overlap mining: finding the computations that repeat.
//!
//! Figure 7 step 1/2 of the paper: within the analyzed window, subgraph
//! occurrences are matched by **precise** signature (the same bytes really
//! ran twice) and then folded by **normalized** signature so one group
//! represents the recurring computation across instances. Everything the
//! selection policies, the physical-design chooser, and the reporting
//! dashboards need is aggregated here from the repository's reconciled
//! runtime statistics — never from optimizer estimates.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use scope_common::hash::Sig128;
use scope_common::ids::{JobId, TemplateId, UserId, VcId};
use scope_common::intern::Symbol;
use scope_common::time::SimDuration;
use scope_engine::repo::JobRecord;
use scope_plan::{OpKind, PhysicalProps};

/// One overlapping computation, folded across recurring instances.
#[derive(Clone, Debug)]
pub struct OverlapGroup {
    /// Normalized signature identifying the computation across instances.
    pub normalized: Sig128,
    /// A recently observed precise signature (drill-down/debugging).
    pub sample_precise: Sig128,
    /// Total occurrences across all jobs and instances.
    pub occurrences: u64,
    /// Distinct precise signatures observed (≈ number of recurring
    /// instances the computation appeared in).
    pub instances: u64,
    /// Distinct jobs containing the computation.
    pub jobs: Vec<JobId>,
    /// Distinct users running it.
    pub users: Vec<UserId>,
    /// Distinct VCs running it.
    pub vcs: Vec<VcId>,
    /// Distinct templates containing it.
    pub templates: Vec<TemplateId>,
    /// Root operator kind (Figure 4a).
    pub root_kind: OpKind,
    /// Subgraph size in plan nodes.
    pub num_nodes: usize,
    /// Whether user code runs inside.
    pub has_user_code: bool,
    /// Normalized input names feeding it (inverted-index tags, interned).
    pub input_tags: Vec<Symbol>,
    /// Mean cumulative CPU of computing the subgraph (utility unit).
    pub avg_cumulative_cpu: SimDuration,
    /// Mean output rows.
    pub avg_out_rows: u64,
    /// Mean output bytes (the storage cost of materializing it).
    pub avg_out_bytes: u64,
    /// Mean total CPU of the jobs containing it (for the view-to-query
    /// cost ratio of Figure 5d).
    pub avg_job_cpu: SimDuration,
    /// Observed output physical properties with vote counts (Section 5.3).
    /// Shapes are shared with the enumeration's property pool.
    pub props_votes: Vec<(Arc<PhysicalProps>, usize)>,
}

impl OverlapGroup {
    /// Average occurrences per recurring instance — the "frequency" of the
    /// paper's Figure 5(a).
    pub fn per_instance_frequency(&self) -> u64 {
        (self.occurrences as f64 / self.instances.max(1) as f64).round() as u64
    }

    /// Per-instance reuse utility: every occurrence after the first reads
    /// the view instead of recomputing.
    pub fn utility(&self) -> SimDuration {
        let freq = self.per_instance_frequency();
        self.avg_cumulative_cpu
            .mul_f64(freq.saturating_sub(1) as f64)
    }

    /// Utility per stored byte (selection heuristic).
    pub fn utility_per_byte(&self) -> f64 {
        self.utility().micros() as f64 / self.avg_out_bytes.max(1) as f64
    }

    /// View-to-query cost ratio (Figure 5d).
    pub fn cost_ratio(&self) -> f64 {
        let job = self.avg_job_cpu.micros().max(1) as f64;
        (self.avg_cumulative_cpu.micros() as f64 / job).min(1.0)
    }
}

/// Mines overlap groups from job records.
///
/// Terminal `Output`/`Write` subgraphs are kept (the paper's "reusing
/// existing outputs" lesson found real redundancy there), as are whole-job
/// overlaps; selection constraints decide what to do with them.
///
/// One-shot wrapper over [`AnalyzerState`](super::AnalyzerState): a fresh
/// state folds the records and materializes the groups. The
/// incremental fold is the single mining implementation — batch and
/// round-based callers see identical aggregates by construction. Records
/// are read where they lie: a slice, a filtered iterator, or references.
pub fn mine_overlaps<'a, R: Borrow<JobRecord> + 'a>(
    records: impl IntoIterator<Item = &'a R>,
) -> Vec<OverlapGroup> {
    let state = super::AnalyzerState::new(super::AnalyzerConfig::default());
    state.ingest(records);
    state.groups()
}

/// Workload-wide overlap metrics: the series behind Figures 1–5.
#[derive(Clone, Debug, Default)]
pub struct OverlapMetrics {
    /// Total jobs analyzed.
    pub jobs_total: usize,
    /// Jobs containing at least one overlapping subgraph.
    pub jobs_overlapping: usize,
    /// Total user entities seen.
    pub users_total: usize,
    /// Users with at least one overlapping job.
    pub users_overlapping: usize,
    /// Distinct subgraphs (by precise signature).
    pub subgraphs_total: usize,
    /// Distinct subgraphs appearing at least twice.
    pub subgraphs_overlapping: usize,
    /// Total subgraph occurrences (every node of every job).
    pub occurrences_total: u64,
    /// Occurrences whose precise signature appears at least twice — the
    /// duplicated share of the executed plan-node mass (Figure 1's
    /// "overlapping subgraphs" bar).
    pub occurrences_overlapping: u64,
    /// Overlapping-subgraph count per job.
    pub per_job: HashMap<JobId, u64>,
    /// Overlapping-subgraph count per user.
    pub per_user: HashMap<UserId, u64>,
    /// Overlapping-subgraph count per VC.
    pub per_vc: HashMap<VcId, u64>,
    /// Consumption count per input tag, counting only inputs consumed by
    /// the same subgraph at least twice (Figure 3b).
    pub per_input: HashMap<Symbol, u64>,
    /// Jobs per VC (for percentage denominators).
    pub vc_jobs: HashMap<VcId, (usize, usize)>,
    /// Precise-signature frequency of every overlapping subgraph.
    pub overlap_frequencies: Vec<u64>,
}

impl OverlapMetrics {
    /// Percentage of jobs with overlap.
    pub fn pct_jobs_overlapping(&self) -> f64 {
        100.0 * self.jobs_overlapping as f64 / self.jobs_total.max(1) as f64
    }

    /// Percentage of users with overlapping jobs.
    pub fn pct_users_overlapping(&self) -> f64 {
        100.0 * self.users_overlapping as f64 / self.users_total.max(1) as f64
    }

    /// Percentage of subgraph *occurrences* that are duplicated work.
    pub fn pct_subgraphs_overlapping(&self) -> f64 {
        100.0 * self.occurrences_overlapping as f64 / self.occurrences_total.max(1) as f64
    }

    /// Per-VC (percent overlapping jobs, average overlap frequency of the
    /// VC's overlapping subgraphs) — Figure 2.
    pub fn vc_overlap_pct(&self) -> HashMap<VcId, f64> {
        self.vc_jobs
            .iter()
            .map(|(vc, (total, overlapping))| {
                (*vc, 100.0 * *overlapping as f64 / (*total).max(1) as f64)
            })
            .collect()
    }
}

/// Computes workload-wide overlap metrics.
///
/// Like [`mine_overlaps`], a one-shot wrapper over the incremental
/// [`AnalyzerState`](super::AnalyzerState).
pub fn overlap_metrics<'a, R: Borrow<JobRecord> + 'a>(
    records: impl IntoIterator<Item = &'a R>,
) -> OverlapMetrics {
    let state = super::AnalyzerState::new(super::AnalyzerConfig::default());
    state.ingest(records);
    state.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::testutil::baseline_run;

    fn mined() -> (Vec<OverlapGroup>, OverlapMetrics, usize) {
        let (repo, ..) = baseline_run(2, 3);
        let (groups, metrics) =
            repo.with_records(|records| (mine_overlaps(records), overlap_metrics(records)));
        (groups, metrics, repo.len())
    }

    #[test]
    fn groups_fold_across_instances() {
        let (groups, ..) = mined();
        assert!(!groups.is_empty());
        // With two instances analyzed, recurring overlaps appear under one
        // normalized signature with two distinct precise signatures.
        let multi_instance = groups.iter().filter(|g| g.instances >= 2).count();
        assert!(multi_instance > 0, "no group folded across instances");
        for g in &groups {
            assert!(g.occurrences >= 2);
            assert!(g.avg_cumulative_cpu > SimDuration::ZERO);
            assert!(!g.jobs.is_empty());
            assert!(g.cost_ratio() > 0.0 && g.cost_ratio() <= 1.0);
        }
    }

    #[test]
    fn groups_sorted_by_utility() {
        let (groups, ..) = mined();
        for w in groups.windows(2) {
            assert!(w[0].utility() >= w[1].utility());
        }
    }

    #[test]
    fn frequency_and_utility_consistent() {
        let (groups, ..) = mined();
        for g in &groups {
            let f = g.per_instance_frequency();
            assert!(f >= 1);
            if f == 1 {
                assert_eq!(g.utility(), SimDuration::ZERO);
            } else {
                assert!(g.utility() > SimDuration::ZERO);
            }
            assert!(g.utility_per_byte() >= 0.0);
        }
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let (_, m, n_jobs) = mined();
        assert_eq!(m.jobs_total, n_jobs);
        assert!(m.jobs_overlapping <= m.jobs_total);
        assert!(m.users_overlapping <= m.users_total);
        assert!(m.subgraphs_overlapping <= m.subgraphs_total);
        assert!(m.pct_jobs_overlapping() > 0.0);
        assert!(m.pct_subgraphs_overlapping() > 0.0);
        // VC job counts add up.
        let vc_total: usize = m.vc_jobs.values().map(|(t, _)| t).sum();
        assert_eq!(vc_total, m.jobs_total);
        // All frequencies ≥ 2.
        assert!(m.overlap_frequencies.iter().all(|&f| f >= 2));
    }

    #[test]
    fn props_votes_ranked() {
        let (groups, ..) = mined();
        for g in &groups {
            assert!(!g.props_votes.is_empty());
            for w in g.props_votes.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn empty_records_yield_empty() {
        let none: &[JobRecord] = &[];
        assert!(mine_overlaps(none).is_empty());
        let m = overlap_metrics(none);
        assert_eq!(m.jobs_total, 0);
        assert_eq!(m.pct_jobs_overlapping(), 0.0);
    }
}
