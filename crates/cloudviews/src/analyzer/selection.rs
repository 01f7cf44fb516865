//! View selection (paper Section 5.2).
//!
//! Two families of approaches, both over the mined [`OverlapGroup`]s:
//!
//! 1. **top-k heuristics** — rank by total utility or utility normalized by
//!    storage cost, optionally limiting to one subgraph per job;
//! 2. **packing** — pick the best set under a storage budget (the
//!    companion "subexpression packing" work \[24\]): greedy by density plus
//!    a swap-based local-search improvement pass.
//!
//! Each rule is stated once: the pre-selection checks are the rows of
//! `ADMISSION`, which `admin::explain_selection` prints as its verdict, and
//! the per-job cap is one `JobCap` ledger in every pass.

use scope_common::ids::JobId;
use scope_common::time::SimDuration;
use scope_plan::OpKind;
use std::cmp::Reverse;
use std::collections::HashMap;

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

/// Pre-selection filters — the knobs of the admin CLI (Section 5.5 lets
/// users constrain "storage costs, latency, CPU hours, or frequency").
#[derive(Clone, Debug)]
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
        }
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
        ADMISSION.iter().all(|check| (check.passes)(g, self))
    }
}

/// One pre-selection check: the constraint it reads, whether a group
/// passes it, and the observed-vs-required line the drill-down prints.
pub(crate) struct AdmissionCheck {
    pub(crate) name: &'static str,
    pub(crate) passes: fn(&OverlapGroup, &SelectionConstraints) -> bool,
    pub(crate) detail: fn(&OverlapGroup, &SelectionConstraints) -> String,
}

/// Every check a group must pass to become a candidate, in report order.
pub(crate) const ADMISSION: [AdmissionCheck; 6] = [
    AdmissionCheck {
        name: "min_frequency",
        passes: |g, c| g.per_instance_frequency() >= c.min_frequency,
        detail: |g, c| {
            let freq = g.per_instance_frequency();
            format!("observed {freq}, required >= {}", c.min_frequency)
        },
    },
    AdmissionCheck {
        name: "min_cost_ratio",
        passes: |g, c| g.cost_ratio() >= c.min_cost_ratio,
        detail: |g, c| {
            let ratio = g.cost_ratio();
            format!("observed {ratio:.3}, required >= {:.3}", c.min_cost_ratio)
        },
    },
    AdmissionCheck {
        name: "min_cpu",
        passes: |g, c| g.avg_cumulative_cpu >= c.min_cpu,
        detail: |g, c| {
            format!(
                "observed {}, required >= {}",
                g.avg_cumulative_cpu, c.min_cpu
            )
        },
    },
    AdmissionCheck {
        name: "max_bytes",
        passes: |g, c| g.avg_out_bytes <= c.max_bytes,
        detail: |g, c| {
            format!(
                "observed {} B, allowed <= {} B",
                g.avg_out_bytes, c.max_bytes
            )
        },
    },
    AdmissionCheck {
        name: "min_nodes",
        passes: |g, c| g.num_nodes >= c.min_nodes,
        detail: |g, c| {
            let nodes = g.num_nodes;
            format!("subgraph has {nodes} nodes, required >= {}", c.min_nodes)
        },
    },
    AdmissionCheck {
        name: "exclude_outputs",
        passes: |g, c| !c.exclude_outputs || !matches!(g.root_kind, OpKind::Output | OpKind::Write),
        detail: |g, _| format!("root operator is {}", g.root_kind),
    },
];

/// The per-job cap: how many chosen views contain each job. A group fits
/// while none of its jobs is at the cap (always, when there is none).
struct JobCap {
    cap: Option<usize>,
    used: HashMap<JobId, usize>,
}

impl JobCap {
    fn fits(&self, g: &OverlapGroup) -> bool {
        let used = |j: &JobId| self.used.get(j).copied().unwrap_or(0);
        self.cap
            .is_none_or(|cap| g.jobs.iter().all(|j| used(j) < cap))
    }

    /// Takes one slot of each of `g`'s jobs if `g` fits; says whether it did.
    fn take(&mut self, g: &OverlapGroup) -> bool {
        if !self.fits(g) {
            return false;
        }
        for j in &g.jobs {
            *self.used.entry(*j).or_default() += 1;
        }
        true
    }

    /// Gives back the slots of a group taken earlier.
    fn release(&mut self, g: &OverlapGroup) {
        for j in &g.jobs {
            *self.used.get_mut(j).expect("released groups were taken") -= 1;
        }
    }
}

/// Runs the selection policy over mined groups, returning the chosen groups
/// ranked by the policy's objective. `Packing` is the one policy with a
/// storage budget.
pub fn select_budgeted<'a>(
    groups: &'a [OverlapGroup],
    policy: &SelectionPolicy,
    constraints: &SelectionConstraints,
) -> Vec<&'a OverlapGroup> {
    let mut ranked: Vec<&OverlapGroup> = groups.iter().filter(|g| constraints.admits(g)).collect();
    // Top-k by utility ranks by utility; the other two rank by density.
    if let SelectionPolicy::TopKUtility { .. } = policy {
        ranked.sort_by_key(|g| Reverse(g.utility()));
    } else {
        ranked.sort_by(|a, b| b.utility_per_byte().total_cmp(&a.utility_per_byte()));
    }
    let mut cap = JobCap {
        cap: constraints.per_job_cap,
        used: HashMap::new(),
    };
    match policy {
        // `take(k)` stops pulling at the k-th pick: no slot is taken past it.
        SelectionPolicy::TopKUtility { k } | SelectionPolicy::TopKUtilityPerByte { k } => ranked
            .into_iter()
            .filter(|g| cap.take(g))
            .take(*k)
            .collect(),
        SelectionPolicy::Packing {
            storage_budget_bytes,
        } => pack_ranked(ranked, *storage_budget_bytes, cap),
    }
}

/// Storage-budget packing over an already-ranked candidate list: greedy in
/// rank order under the byte budget (honoring the per-job cap), then a
/// bounded exchange pass swapping one selected view for an unselected one
/// when the swap raises total utility within budget, and a final fill of any
/// space the swaps freed.
fn pack_ranked(ranked: Vec<&OverlapGroup>, budget: u64, mut cap: JobCap) -> Vec<&OverlapGroup> {
    fn size(g: &OverlapGroup) -> u64 {
        g.avg_out_bytes.max(1)
    }
    // Packs each candidate, in order, that fits the budget and the cap, and
    // returns the ones left out.
    let fill = |from, selected: &mut Vec<_>, used: &mut u64, cap: &mut JobCap| {
        let mut rest = Vec::new();
        for g in from {
            if *used + size(g) <= budget && cap.take(g) {
                *used += size(g);
                selected.push(g);
            } else {
                rest.push(g);
            }
        }
        rest
    };

    let mut selected = Vec::new();
    let mut used: u64 = 0;
    let mut unselected = fill(ranked, &mut selected, &mut used, &mut cap);

    // Exchange improvement: replace a selected view with the best-utility
    // unselected one that fits in the freed space (greedy packs by the
    // policy objective, which can strand one large high-utility view).
    unselected.sort_by_key(|g| Reverse(g.utility()));
    let mut improved = true;
    let mut passes = 0;
    while improved && passes < 3 {
        improved = false;
        passes += 1;
        for slot in selected.iter_mut() {
            let outgoing = *slot;
            let freed = used - size(outgoing);
            // Release the outgoing view's job slots while probing the cap;
            // whichever view keeps the slot then fits again.
            cap.release(outgoing);
            let pos = unselected.iter().position(|c| {
                freed + size(c) <= budget && c.utility() > outgoing.utility() && cap.fits(c)
            });
            let Some(pos) = pos else {
                cap.take(outgoing);
                continue;
            };
            let incoming = unselected.remove(pos);
            cap.take(incoming);
            used = freed + size(incoming);
            *slot = incoming;
            unselected.push(outgoing);
            unselected.sort_by_key(|g| Reverse(g.utility()));
            improved = true;
        }
    }

    // Fill: swaps may have freed budget another candidate now fits.
    fill(unselected, &mut selected, &mut used, &mut cap);
    selected.sort_by_key(|g| Reverse(g.utility()));
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
    fn packing_exchange_releases_job_slots_under_cap() {
        // Density ranks a (jobs 1, 2), c, b. Greedy packs a and c; b fits
        // the budget but shares job 1 with a. The exchange pass releases
        // a's job slots, swaps in b (utility 20s > 2s), and a cannot come
        // back in the fill pass because b now holds job 1.
        let groups = vec![
            group("a", 3, 1, 10, &[1, 2], OpKind::Sort), // 2s, 0.2 s/B
            group("b", 3, 10, 500, &[1, 4], OpKind::Sort), // 20s, 0.04 s/B
            group("c", 3, 5, 100, &[3], OpKind::Sort),   // 10s, 0.1 s/B
        ];
        let packing = SelectionPolicy::Packing {
            storage_budget_bytes: 1_000,
        };
        let names = |c: &SelectionConstraints| -> Vec<_> {
            select_budgeted(&groups, &packing, c)
                .iter()
                .map(|g| g.normalized)
                .collect()
        };
        let capped = SelectionConstraints {
            per_job_cap: Some(1),
            ..Default::default()
        };
        assert_eq!(names(&capped), vec![sip128(b"b"), sip128(b"c")]);
        // Uncapped, all three fit the budget.
        assert_eq!(
            names(&SelectionConstraints::default()),
            vec![sip128(b"b"), sip128(b"c"), sip128(b"a")]
        );
    }

    #[test]
    fn paper_production_preset() {
        let c = SelectionConstraints::paper_production();
        assert_eq!(c.min_frequency, 3);
        assert!((c.min_cost_ratio - 0.2).abs() < f64::EPSILON);
        assert_eq!(c.per_job_cap, Some(1));
    }
}
