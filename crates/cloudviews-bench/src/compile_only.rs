//! Compile-only workload records.
//!
//! The workload-shape figures (1–4) measure *signature overlap*, which is a
//! property of compile-time plans; executing exabyte-scale jobs is neither
//! possible nor needed. This module enumerates each job's subgraphs and
//! synthesizes [`JobRecord`]s with zeroed runtime statistics, so the
//! analyzer's overlap mining runs unmodified over cluster-scale workloads
//! in milliseconds.

use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_engine::job::JobSpec;
use scope_engine::repo::{JobRecord, SubgraphRun};
use scope_signature::{enumerate_subgraphs, job_tags};
use scope_workload::recurring::RecurringWorkload;

/// Builds a compile-only record for one job spec.
pub fn compile_only_record(spec: &JobSpec, submitted_at: SimTime) -> Result<JobRecord> {
    let infos = enumerate_subgraphs(&spec.graph)?;
    let subgraphs = infos
        .into_iter()
        .map(|info| SubgraphRun {
            info,
            out_rows: 0,
            out_bytes: 0,
            exclusive_cpu: SimDuration::ZERO,
            cumulative_cpu: SimDuration::ZERO,
            finish_offset: SimDuration::ZERO,
        })
        .collect();
    Ok(JobRecord {
        job: spec.id,
        cluster: spec.cluster,
        vc: spec.vc,
        user: spec.user,
        template: spec.template,
        instance: spec.instance,
        submitted_at,
        latency: SimDuration::ZERO,
        cpu_time: SimDuration::ZERO,
        tags: job_tags(&spec.graph),
        subgraphs,
    })
}

/// Compile-only records for `instances` recurring instances of one cluster.
pub fn cluster_records(
    workload: &RecurringWorkload,
    cluster_idx: usize,
    instances: u64,
) -> Result<Vec<JobRecord>> {
    let mut records = Vec::new();
    for instance in 0..instances {
        let at = SimTime(instance * 86_400 * 1_000_000);
        for spec in workload.jobs_for_instance(cluster_idx, instance)? {
            records.push(compile_only_record(&spec, at)?);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_workload::dists::LogNormal;
    use scope_workload::recurring::{ClusterSpec, WorkloadConfig};

    #[test]
    fn compile_only_matches_graph_shape() {
        let w = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![ClusterSpec::tiny("co")],
            seed: 1,
            stream_rows: LogNormal::new(5.0, 0.5, 50.0, 500.0),
        })
        .unwrap();
        let records = cluster_records(&w, 0, 2).unwrap();
        assert!(!records.is_empty());
        let jobs_day0 = w.jobs_for_instance(0, 0).unwrap();
        assert_eq!(
            records.iter().filter(|r| r.instance == 0).count(),
            jobs_day0.len()
        );
        for r in &records {
            assert!(!r.subgraphs.is_empty());
            assert!(!r.tags.is_empty());
        }
        // Overlap mining works on compile-only records.
        let groups = cloudviews::analyzer::mine_overlaps(&records);
        assert!(!groups.is_empty());
    }
}
