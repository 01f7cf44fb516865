//! View selection (paper Section 5.2).
//!
//! Two families of approaches, both over the mined [`OverlapGroup`]s:
//!
//! 1. **top-k heuristics** — rank by total utility or utility normalized by
//!    storage cost, optionally limiting to one subgraph per job; custom
//!    filters can be plugged in through [`SelectionConstraints::custom`];
//! 2. **packing** — pick the best set under a storage budget (the
//!    companion "subexpression packing" work \[24\]): greedy by density plus
//!    a swap-based local-search improvement pass.

use scope_common::ids::JobId;
use scope_common::time::SimDuration;
use std::collections::HashSet;

use super::overlap::OverlapGroup;

/// Which selection algorithm to run.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectionPolicy {
    /// Top-k groups by total utility.
    TopKUtility {
        /// Number of views to select.
        k: usize,
    },
    /// Top-k groups by utility per stored byte.
    TopKUtilityPerByte {
        /// Number of views to select.
        k: usize,
    },
    /// Best set under a storage budget (greedy + local search).
    Packing {
        /// Total bytes the selected views may occupy.
        storage_budget_bytes: u64,
    },
}

/// Pre-selection filters — the knobs of the admin CLI (Section 5.5:
/// "users can provide custom constraints, e.g. storage costs, latency,
/// CPU hours, or frequency").
#[derive(Clone)]
pub struct SelectionConstraints {
    /// Minimum per-instance occurrence count (the paper's production
    /// experiment used "appearing at least thrice").
    pub min_frequency: u64,
    /// Minimum view-to-query cost ratio (production experiment: ≥ 20%).
    pub min_cost_ratio: f64,
    /// Minimum average cumulative CPU (prunes the 26% of sub-second
    /// overlaps Figure 5b shows).
    pub min_cpu: SimDuration,
    /// Maximum stored bytes per view.
    pub max_bytes: u64,
    /// Minimum subgraph size in plan nodes. The default of 2 rejects bare
    /// scans — materializing a copy of an input is never useful.
    pub min_nodes: usize,
    /// At most this many selected views containing any single job
    /// (production experiment: one per job).
    pub per_job_cap: Option<usize>,
    /// Skip subgraphs rooted at terminal outputs.
    pub exclude_outputs: bool,
    /// Extra user-supplied predicate.
    pub custom: Option<fn(&OverlapGroup) -> bool>,
}

impl Default for SelectionConstraints {
    fn default() -> Self {
        SelectionConstraints {
            min_frequency: 2,
            min_cost_ratio: 0.0,
            min_cpu: SimDuration::ZERO,
            max_bytes: u64::MAX,
            min_nodes: 2,
            per_job_cap: None,
            exclude_outputs: true,
            custom: None,
        }
    }
}

impl std::fmt::Debug for SelectionConstraints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionConstraints")
            .field("min_frequency", &self.min_frequency)
            .field("min_cost_ratio", &self.min_cost_ratio)
            .field("min_cpu", &self.min_cpu)
            .field("max_bytes", &self.max_bytes)
            .field("min_nodes", &self.min_nodes)
            .field("per_job_cap", &self.per_job_cap)
            .field("exclude_outputs", &self.exclude_outputs)
            .field("custom", &self.custom.map(|_| "fn"))
            .finish()
    }
}

impl SelectionConstraints {
    /// The production-experiment preset of Section 7.1: frequency ≥ 3,
    /// view-to-query cost ratio ≥ 20%, one view per job.
    pub fn paper_production() -> Self {
        SelectionConstraints {
            min_frequency: 3,
            min_cost_ratio: 0.2,
            per_job_cap: Some(1),
            ..Default::default()
        }
    }

    fn admits(&self, g: &OverlapGroup) -> bool {
        g.per_instance_frequency() >= self.min_frequency
            && g.cost_ratio() >= self.min_cost_ratio
            && g.avg_cumulative_cpu >= self.min_cpu
            && g.avg_out_bytes <= self.max_bytes
            && g.num_nodes >= self.min_nodes
            && !(self.exclude_outputs
                && matches!(
                    g.root_kind,
                    scope_plan::OpKind::Output | scope_plan::OpKind::Write
                ))
            && self.custom.map(|f| f(g)).unwrap_or(true)
    }
}

/// Runs the selection policy over mined groups, returning the chosen groups
/// (cloned) ranked by the policy's objective. `Packing` is the one policy
/// with a storage budget.
pub fn select_budgeted(
    groups: &[OverlapGroup],
    policy: &SelectionPolicy,
    constraints: &SelectionConstraints,
) -> Vec<OverlapGroup> {
    let mut candidates: Vec<&OverlapGroup> =
        groups.iter().filter(|g| constraints.admits(g)).collect();

    let picked: Vec<&OverlapGroup> = match policy {
        SelectionPolicy::TopKUtility { k } => {
            candidates.sort_by_key(|g| std::cmp::Reverse(g.utility()));
            take_with_job_cap(&candidates, *k, constraints.per_job_cap)
        }
        SelectionPolicy::TopKUtilityPerByte { k } => {
            candidates.sort_by(|a, b| {
                b.utility_per_byte()
                    .partial_cmp(&a.utility_per_byte())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            take_with_job_cap(&candidates, *k, constraints.per_job_cap)
        }
        SelectionPolicy::Packing {
            storage_budget_bytes,
        } => {
            candidates.sort_by(|a, b| {
                b.utility_per_byte()
                    .partial_cmp(&a.utility_per_byte())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            pack_ranked(&candidates, *storage_budget_bytes, constraints.per_job_cap)
        }
    };
    picked.into_iter().cloned().collect()
}

/// Greedy take honoring an optional per-job cap.
fn take_with_job_cap<'a>(
    ranked: &[&'a OverlapGroup],
    k: usize,
    cap: Option<usize>,
) -> Vec<&'a OverlapGroup> {
    let mut out = Vec::new();
    let mut job_use: std::collections::HashMap<JobId, usize> = std::collections::HashMap::new();
    for g in ranked {
        if out.len() >= k {
            break;
        }
        if let Some(cap) = cap {
            if g.jobs
                .iter()
                .any(|j| job_use.get(j).copied().unwrap_or(0) >= cap)
            {
                continue;
            }
        }
        for j in &g.jobs {
            *job_use.entry(*j).or_default() += 1;
        }
        out.push(*g);
    }
    out
}

/// Storage-budget packing over an already-ranked candidate list: greedy in
/// rank order under the byte budget (honoring the per-job cap), then a
/// bounded exchange pass swapping one selected view for an unselected one
/// when the swap raises total utility within budget, and a final fill of any
/// space the swaps freed.
fn pack_ranked<'a>(
    ranked: &[&'a OverlapGroup],
    budget: u64,
    cap: Option<usize>,
) -> Vec<&'a OverlapGroup> {
    fn size(g: &OverlapGroup) -> u64 {
        g.avg_out_bytes.max(1)
    }
    fn fits_cap(
        job_use: &std::collections::HashMap<JobId, usize>,
        cap: Option<usize>,
        g: &OverlapGroup,
    ) -> bool {
        match cap {
            Some(cap) => !g
                .jobs
                .iter()
                .any(|j| job_use.get(j).copied().unwrap_or(0) >= cap),
            None => true,
        }
    }

    let mut selected: Vec<&OverlapGroup> = Vec::new();
    let mut used: u64 = 0;
    let mut job_use: std::collections::HashMap<JobId, usize> = std::collections::HashMap::new();
    for g in ranked {
        if used + size(g) > budget || !fits_cap(&job_use, cap, g) {
            continue;
        }
        for j in &g.jobs {
            *job_use.entry(*j).or_default() += 1;
        }
        used += size(g);
        selected.push(*g);
    }

    // Exchange improvement: replace a selected view with the best-utility
    // unselected one that fits in the freed space (greedy packs by the
    // policy objective, which can strand one large high-utility view).
    let selected_set: HashSet<scope_common::Sig128> =
        selected.iter().map(|g| g.normalized).collect();
    let mut unselected: Vec<&OverlapGroup> = ranked
        .iter()
        .filter(|g| !selected_set.contains(&g.normalized))
        .copied()
        .collect();
    unselected.sort_by_key(|g| std::cmp::Reverse(g.utility()));

    let mut improved = true;
    let mut passes = 0;
    while improved && passes < 3 {
        improved = false;
        passes += 1;
        for slot in selected.iter_mut() {
            let outgoing = *slot;
            let freed = used - size(outgoing);
            // Release the outgoing view's job slots while probing the cap.
            for j in &outgoing.jobs {
                if let Some(u) = job_use.get_mut(j) {
                    *u -= 1;
                }
            }
            let pos = unselected.iter().position(|c| {
                freed + size(c) <= budget
                    && c.utility() > outgoing.utility()
                    && fits_cap(&job_use, cap, c)
            });
            match pos {
                Some(pos) => {
                    let incoming = unselected.remove(pos);
                    for j in &incoming.jobs {
                        *job_use.entry(*j).or_default() += 1;
                    }
                    used = freed + size(incoming);
                    *slot = incoming;
                    unselected.push(outgoing);
                    unselected.sort_by_key(|g| std::cmp::Reverse(g.utility()));
                    improved = true;
                }
                None => {
                    for j in &outgoing.jobs {
                        *job_use.entry(*j).or_default() += 1;
                    }
                }
            }
        }
    }

    // Fill: swaps may have freed budget another candidate now fits.
    for g in &unselected {
        if used + size(g) > budget || !fits_cap(&job_use, cap, g) {
            continue;
        }
        for j in &g.jobs {
            *job_use.entry(*j).or_default() += 1;
        }
        used += size(g);
        selected.push(*g);
    }

    selected.sort_by_key(|g| std::cmp::Reverse(g.utility()));
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::hash::sip128;
    use scope_common::ids::{TemplateId, UserId, VcId};
    use scope_plan::{OpKind, PhysicalProps};

    /// Hand-built group with the given utility profile.
    fn group(
        name: &str,
        freq: u64,
        cpu_secs: u64,
        bytes: u64,
        jobs: &[u64],
        root: OpKind,
    ) -> OverlapGroup {
        OverlapGroup {
            normalized: sip128(name.as_bytes()),
            sample_precise: sip128(format!("{name}/p").as_bytes()),
            occurrences: freq,
            instances: 1,
            jobs: jobs.iter().map(|&j| JobId::new(j)).collect(),
            users: vec![UserId::new(0)],
            vcs: vec![VcId::new(0)],
            templates: vec![TemplateId::new(0)],
            root_kind: root,
            num_nodes: 3,
            has_user_code: false,
            input_tags: vec!["in".into()],
            avg_cumulative_cpu: SimDuration::from_secs(cpu_secs),
            avg_out_rows: 10,
            avg_out_bytes: bytes,
            avg_job_cpu: SimDuration::from_secs(cpu_secs * 4),
            props_votes: vec![(std::sync::Arc::new(PhysicalProps::any()), 1)],
        }
    }

    #[test]
    fn topk_utility_ranks_by_savings() {
        let groups = vec![
            group("small", 2, 1, 100, &[1, 2], OpKind::Filter),
            group("big", 5, 10, 100, &[3, 4, 5], OpKind::Sort),
            group("medium", 3, 5, 100, &[6, 7], OpKind::Exchange),
        ];
        let sel = select_budgeted(
            &groups,
            &SelectionPolicy::TopKUtility { k: 2 },
            &SelectionConstraints::default(),
        );
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].normalized, sip128(b"big"));
        assert_eq!(sel[1].normalized, sip128(b"medium"));
    }

    #[test]
    fn utility_per_byte_prefers_dense() {
        let groups = vec![
            group("fat", 5, 10, 1_000_000, &[1], OpKind::Sort), // 40s / MB
            group("dense", 3, 5, 1_000, &[2], OpKind::Filter),  // 10s / KB
        ];
        let sel = select_budgeted(
            &groups,
            &SelectionPolicy::TopKUtilityPerByte { k: 1 },
            &SelectionConstraints::default(),
        );
        assert_eq!(sel[0].normalized, sip128(b"dense"));
    }

    #[test]
    fn constraints_filter() {
        let groups = vec![
            group("rare", 2, 100, 100, &[1], OpKind::Sort),
            group("frequent", 4, 100, 100, &[2], OpKind::Sort),
        ];
        let c = SelectionConstraints {
            min_frequency: 3,
            ..Default::default()
        };
        let sel = select_budgeted(&groups, &SelectionPolicy::TopKUtility { k: 10 }, &c);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].normalized, sip128(b"frequent"));
    }

    #[test]
    fn outputs_excluded_by_default_but_optional() {
        let groups = vec![group("out", 4, 100, 100, &[1], OpKind::Write)];
        let sel = select_budgeted(
            &groups,
            &SelectionPolicy::TopKUtility { k: 10 },
            &SelectionConstraints::default(),
        );
        assert!(sel.is_empty());
        let sel = select_budgeted(
            &groups,
            &SelectionPolicy::TopKUtility { k: 10 },
            &SelectionConstraints {
                exclude_outputs: false,
                ..Default::default()
            },
        );
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn per_job_cap_blocks_second_view_on_same_job() {
        let groups = vec![
            group("a", 5, 10, 100, &[1, 2], OpKind::Sort),
            group("b", 4, 9, 100, &[2, 3], OpKind::Sort), // shares job 2
            group("c", 3, 8, 100, &[4], OpKind::Sort),
        ];
        let c = SelectionConstraints {
            per_job_cap: Some(1),
            ..Default::default()
        };
        let sel = select_budgeted(&groups, &SelectionPolicy::TopKUtility { k: 3 }, &c);
        let names: Vec<_> = sel.iter().map(|g| g.normalized).collect();
        assert!(names.contains(&sip128(b"a")));
        assert!(!names.contains(&sip128(b"b")), "job 2 already covered");
        assert!(names.contains(&sip128(b"c")));
    }

    #[test]
    fn packing_respects_budget() {
        let groups = vec![
            group("g1", 5, 10, 600, &[1], OpKind::Sort),
            group("g2", 5, 9, 600, &[2], OpKind::Sort),
            group("g3", 5, 8, 600, &[3], OpKind::Sort),
        ];
        let sel = select_budgeted(
            &groups,
            &SelectionPolicy::Packing {
                storage_budget_bytes: 1_300,
            },
            &SelectionConstraints::default(),
        );
        assert_eq!(sel.len(), 2);
        let total: u64 = sel.iter().map(|g| g.avg_out_bytes).sum();
        assert!(total <= 1_300);
    }

    #[test]
    fn packing_local_search_beats_pure_density() {
        // Density greedy picks the dense small one (u=4, 10B) but the
        // budget fits the single high-utility fat one (u=40, 100B) instead.
        let groups = vec![
            group("dense", 5, 1, 10, &[1], OpKind::Sort), // utility 4s, 0.4/B
            group("fat", 5, 10, 100, &[2], OpKind::Sort), // utility 40s, 0.4/B... tie
        ];
        // Make dense strictly denser.
        let mut groups = groups;
        groups[0].avg_out_bytes = 5;
        let sel = select_budgeted(
            &groups,
            &SelectionPolicy::Packing {
                storage_budget_bytes: 100,
            },
            &SelectionConstraints::default(),
        );
        // Local search should end with the fat one (utility 40 > 4).
        let total_utility: u64 = sel.iter().map(|g| g.utility().micros()).sum();
        assert!(total_utility >= SimDuration::from_secs(40).micros());
    }

    #[test]
    fn custom_filter_applies() {
        let groups = vec![
            group("sortish", 4, 10, 100, &[1], OpKind::Sort),
            group("filterish", 4, 10, 100, &[2], OpKind::Filter),
        ];
        let c = SelectionConstraints {
            custom: Some(|g| g.root_kind == OpKind::Sort),
            ..Default::default()
        };
        let sel = select_budgeted(&groups, &SelectionPolicy::TopKUtility { k: 10 }, &c);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].root_kind, OpKind::Sort);
    }

    #[test]
    fn paper_production_preset() {
        let c = SelectionConstraints::paper_production();
        assert_eq!(c.min_frequency, 3);
        assert!((c.min_cost_ratio - 0.2).abs() < f64::EPSILON);
        assert_eq!(c.per_job_cap, Some(1));
    }
}
