//! View physical design (paper Section 5.3).
//!
//! "Materialized views with poor physical design end up not being used
//! because the computation savings get over-shadowed by any additional
//! repartitioning or sorting." The analyzer therefore mines the output
//! physical properties observed at each overlapping subgraph's root (they
//! are what downstream operators expect) and stores views in that design.
//! The strategy picks the most popular property set (ties resolve to the
//! design observed first).

use scope_plan::PhysicalProps;

use super::overlap::OverlapGroup;

/// Picks the physical design for a view: the most popular observed output
/// property set (falling back to "no guarantees" if nothing was observed).
pub fn choose_design(group: &OverlapGroup) -> PhysicalProps {
    group
        .props_votes
        .first()
        .map(|(p, _)| (**p).clone())
        .unwrap_or_else(PhysicalProps::any)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::hash::sip128;
    use scope_common::ids::{JobId, TemplateId, UserId, VcId};
    use scope_common::time::SimDuration;
    use scope_plan::OpKind;

    fn group_with_votes(votes: Vec<(PhysicalProps, usize)>) -> OverlapGroup {
        let votes = votes
            .into_iter()
            .map(|(p, c)| (std::sync::Arc::new(p), c))
            .collect();
        OverlapGroup {
            normalized: sip128(b"g"),
            sample_precise: sip128(b"p"),
            occurrences: 3,
            instances: 1,
            jobs: vec![JobId::new(1)],
            users: vec![UserId::new(1)],
            vcs: vec![VcId::new(1)],
            templates: vec![TemplateId::new(1)],
            root_kind: OpKind::Exchange,
            num_nodes: 3,
            has_user_code: false,
            input_tags: vec![],
            avg_cumulative_cpu: SimDuration::from_secs(1),
            avg_out_rows: 1,
            avg_out_bytes: 1,
            avg_job_cpu: SimDuration::from_secs(4),
            props_votes: votes,
        }
    }

    #[test]
    fn most_popular_wins() {
        let a = PhysicalProps::hashed(vec![0], 8);
        let b = PhysicalProps::hashed(vec![1], 8);
        let g = group_with_votes(vec![(a.clone(), 5), (b, 2)]);
        assert_eq!(choose_design(&g), a);
    }

    #[test]
    fn no_observations_fall_back_to_any() {
        let g = group_with_votes(vec![]);
        assert_eq!(choose_design(&g), PhysicalProps::any());
    }
}
