//! Job coordination hints (paper Section 6.5).
//!
//! Concurrent jobs containing the same overlapping computation all
//! recompute it (only one wins the build lock). The analyzer therefore also
//! emits a submission *order*: "grouping jobs having the same number of
//! overlaps, and picking the shortest job in terms of runtime, or least
//! overlapping job in case of a tie, from each group. The deduplicated list
//! of the above jobs will create the materialized views that could be used
//! by all others, and so we propose to run them first (ordered by their
//! runtime and breaking ties using the number of overlaps)."
//!
//! Hints are expressed as *templates* (not job ids): the next recurring
//! instance has fresh job ids, but templates persist.

use std::collections::HashMap;

use scope_common::ids::{JobId, TemplateId};
use scope_common::time::SimDuration;

use super::overlap::OverlapGroup;

/// Builds the run-first template list from the selected overlap groups and
/// bare job metadata — what the incremental analyzer keeps per admitted
/// record instead of the records themselves. Duplicate job ids resolve
/// last-wins, matching record iteration order.
pub fn order_hints_from_jobs(
    selected: &[&OverlapGroup],
    jobs: impl IntoIterator<Item = (JobId, TemplateId, SimDuration)>,
) -> Vec<TemplateId> {
    let mut latency: HashMap<JobId, SimDuration> = HashMap::new();
    let mut template_of: HashMap<JobId, TemplateId> = HashMap::new();
    for (job, template, lat) in jobs {
        latency.insert(job, lat);
        template_of.insert(job, template);
    }

    // Overlap count per job across the selected groups.
    let mut overlaps_per_job: HashMap<JobId, usize> = HashMap::new();
    for g in selected {
        for j in &g.jobs {
            *overlaps_per_job.entry(*j).or_default() += 1;
        }
    }
    // The builder order: shortest first, then least overlapping, then id
    // for determinism.
    let key = |j: &JobId| {
        let lat = latency.get(j).copied().unwrap_or(SimDuration::ZERO);
        (lat, overlaps_per_job[j], *j)
    };

    // Group jobs by overlap count and pick the first builder of each group.
    let mut by_count: HashMap<usize, Vec<JobId>> = HashMap::new();
    for (job, count) in &overlaps_per_job {
        by_count.entry(*count).or_default().push(*job);
    }
    let mut builders: Vec<JobId> = by_count
        .values()
        .filter_map(|jobs| jobs.iter().copied().min_by_key(key))
        .collect();

    // Dedup and order the builders by the same key.
    builders.sort_by_key(key);
    builders.dedup();

    let mut templates: Vec<TemplateId> = Vec::new();
    for j in builders {
        if let Some(t) = template_of.get(&j) {
            if !templates.contains(t) {
                templates.push(*t);
            }
        }
    }
    templates
}

/// Reorders a job list so that jobs of hinted templates run first (in hint
/// order), preserving the original relative order otherwise. This is the
/// client-side submission-tool behaviour the paper describes.
pub fn apply_order<T, F: Fn(&T) -> TemplateId>(
    jobs: Vec<T>,
    hints: &[TemplateId],
    template_of: F,
) -> Vec<T> {
    let rank =
        |t: &TemplateId| -> usize { hints.iter().position(|h| h == t).unwrap_or(usize::MAX) };
    let mut indexed: Vec<(usize, T)> = jobs.into_iter().enumerate().collect();
    indexed.sort_by(|(ia, a), (ib, b)| {
        rank(&template_of(a))
            .cmp(&rank(&template_of(b)))
            .then_with(|| ia.cmp(ib))
    });
    indexed.into_iter().map(|(_, j)| j).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::hash::sip128;
    use scope_plan::{OpKind, PhysicalProps};

    fn job(job: u64, template: u64, latency_s: u64) -> (JobId, TemplateId, SimDuration) {
        (
            JobId::new(job),
            TemplateId::new(template),
            SimDuration::from_secs(latency_s),
        )
    }

    fn grp(name: &str, jobs: &[u64]) -> OverlapGroup {
        OverlapGroup {
            normalized: sip128(name.as_bytes()),
            sample_precise: sip128(name.as_bytes()),
            occurrences: jobs.len() as u64,
            instances: 1,
            jobs: jobs.iter().map(|&j| JobId::new(j)).collect(),
            users: vec![],
            vcs: vec![],
            templates: vec![],
            root_kind: OpKind::Sort,
            num_nodes: 2,
            has_user_code: false,
            input_tags: vec![],
            avg_cumulative_cpu: SimDuration::from_secs(1),
            avg_out_rows: 1,
            avg_out_bytes: 1,
            avg_job_cpu: SimDuration::from_secs(4),
            props_votes: vec![(std::sync::Arc::new(PhysicalProps::any()), 1)],
        }
    }

    #[test]
    fn shortest_job_per_group_runs_first() {
        // Jobs 1 (slow) and 2 (fast) share one overlap; the fast one should
        // be hinted to build.
        let jobs = [job(1, 10, 100), job(2, 20, 5)];
        let hints = order_hints_from_jobs(&[&grp("v", &[1, 2])], jobs);
        assert_eq!(hints, vec![TemplateId::new(20)]);
    }

    #[test]
    fn multiple_groups_ordered_by_runtime() {
        // Group with 1 overlap: jobs 1,2 (fastest 2). Group with 2
        // overlaps: job 3 alone (in both groups).
        let jobs = [job(1, 10, 50), job(2, 20, 5), job(3, 30, 20)];
        let hints = order_hints_from_jobs(&[&grp("a", &[1, 2, 3]), &grp("b", &[3])], jobs);
        // Job 2 (1 overlap, 5s) and job 3 (2 overlaps, 20s): runtime order.
        assert_eq!(hints, vec![TemplateId::new(20), TemplateId::new(30)]);
    }

    #[test]
    fn apply_order_moves_builders_first() {
        let jobs = vec![(0u64, 10u64), (1, 20), (2, 30), (3, 20)];
        let hints = vec![TemplateId::new(30), TemplateId::new(20)];
        let ordered = apply_order(jobs, &hints, |&(_, t)| TemplateId::new(t));
        let templates: Vec<u64> = ordered.iter().map(|&(_, t)| t).collect();
        // 30 first, then both 20s in original order, then the rest.
        assert_eq!(templates, vec![30, 20, 20, 10]);
        // Stable for unhinted jobs.
        assert_eq!(ordered[3], (0, 10));
    }

    #[test]
    fn empty_inputs() {
        assert!(order_hints_from_jobs(&[], []).is_empty());
        let jobs: Vec<u64> = vec![1, 2];
        let out = apply_order(jobs.clone(), &[], |_| TemplateId::new(0));
        assert_eq!(out, jobs);
    }
}
