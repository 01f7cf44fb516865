//! View expiry from input lineage (paper Section 5.4).
//!
//! Removing views after every recurring instance is wasteful because hourly
//! outputs feed weekly and monthly jobs. "A better option is to track the
//! lineage of the inputs of the view, i.e., for each of the view inputs,
//! check the longest duration that it gets used by any of the recurring
//! jobs. The maximum of all such durations gives a good estimate of the
//! view expiry."
//!
//! [`LineageTracker`] rebuilds that lineage from the workload repository:
//! for every input tag, the recurrence *period* of each consuming template
//! (observed gap between its instances); a view over some inputs expires
//! after the slowest consumer's period (times a safety factor).

use std::collections::{BTreeMap, HashMap};

use scope_common::ids::TemplateId;
use scope_common::intern::Symbol;
use scope_common::time::{SimDuration, SimTime};

/// Safety multiplier over the observed consumer period.
const SAFETY_FACTOR: f64 = 2.0;

/// Input-tag lineage: who consumes each input, and how often they recur.
#[derive(Debug)]
pub struct LineageTracker<'a> {
    /// Per-template observed recurrence period.
    template_period: HashMap<TemplateId, SimDuration>,
    /// Input tag → consuming templates, borrowed from the analyzer state.
    consumers: &'a HashMap<Symbol, Vec<TemplateId>>,
}

impl<'a> LineageTracker<'a> {
    /// Builds lineage from already-maintained observations: per-template
    /// instance→submission maps plus the tag→consumers index. This is what
    /// the incremental analyzer accumulates at ingest, so no record replay
    /// is needed at selection time.
    pub fn from_observations(
        times: &HashMap<TemplateId, BTreeMap<u64, SimTime>>,
        consumers: &'a HashMap<Symbol, Vec<TemplateId>>,
    ) -> LineageTracker<'a> {
        let mut template_period = HashMap::new();
        for (template, observed) in times {
            // Max gap between consecutive instances, normalized by the
            // instance-index gap (a weekly job analyzed over one day shows
            // no second instance — handled by the default TTL fallback).
            let mut period = SimDuration::ZERO;
            let mut prev: Option<(u64, SimTime)> = None;
            for (&inst, &at) in observed {
                if let Some((i0, t0)) = prev {
                    let gap = at.since(t0);
                    let steps = (inst - i0).max(1);
                    let per_step = SimDuration::from_micros(gap.micros() / steps);
                    period = period.max(per_step);
                }
                prev = Some((inst, at));
            }
            if period > SimDuration::ZERO {
                template_period.insert(*template, period);
            }
        }
        LineageTracker {
            template_period,
            consumers,
        }
    }

    /// The recurrence period of a template, if at least two instances were
    /// observed.
    pub fn template_period(&self, template: TemplateId) -> Option<SimDuration> {
        self.template_period.get(&template).copied()
    }

    /// TTL for a view over the given input tags: the slowest consuming
    /// template's period times a safety factor; `default_ttl` when no
    /// consumer period is known.
    pub fn ttl_for_tags(&self, tags: &[Symbol], default_ttl: SimDuration) -> SimDuration {
        let mut max_period = SimDuration::ZERO;
        for tag in tags {
            if let Some(templates) = self.consumers.get(tag) {
                for t in templates {
                    if let Some(p) = self.template_period.get(t) {
                        max_period = max_period.max(*p);
                    }
                }
            }
        }
        if max_period == SimDuration::ZERO {
            default_ttl
        } else {
            max_period.mul_f64(SAFETY_FACTOR).max(default_ttl)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lineage over `(template, instance, submitted-at seconds, tags)`
    /// observations.
    fn lineage(observed: &[(u64, u64, u64, &[&str])]) -> LineageTracker<'static> {
        let mut times: HashMap<TemplateId, BTreeMap<u64, SimTime>> = HashMap::new();
        let mut consumers: HashMap<Symbol, Vec<TemplateId>> = HashMap::new();
        for &(template, instance, at_secs, tags) in observed {
            let template = TemplateId::new(template);
            times
                .entry(template)
                .or_default()
                .insert(instance, SimTime(at_secs * 1_000_000));
            for tag in tags {
                consumers
                    .entry(Symbol::intern(tag))
                    .or_default()
                    .push(template);
            }
        }
        // The tracker borrows its consumer index; a test's lives as long
        // as the process.
        LineageTracker::from_observations(&times, Box::leak(Box::new(consumers)))
    }

    const HOUR: u64 = 3_600;
    const DAY: u64 = 86_400;

    #[test]
    fn period_mined_from_instances() {
        let lineage = lineage(&[
            (1, 0, 0, &["in/a"]),
            (1, 1, HOUR, &["in/a"]),
            (1, 2, 2 * HOUR, &["in/a"]),
        ]);
        assert_eq!(
            lineage.template_period(TemplateId::new(1)),
            Some(SimDuration::from_secs(HOUR))
        );
    }

    #[test]
    fn ttl_uses_slowest_consumer() {
        // Hourly template 1 and daily template 2 both consume in/a.
        let lineage = lineage(&[
            (1, 0, 0, &["in/a"]),
            (1, 1, HOUR, &["in/a"]),
            (2, 0, 0, &["in/a", "in/b"]),
            (2, 1, DAY, &["in/a", "in/b"]),
        ]);
        let ttl = lineage.ttl_for_tags(&["in/a".into()], SimDuration::from_secs(HOUR));
        // Daily consumer wins: TTL = 2 days, not 2 hours.
        assert_eq!(ttl, SimDuration::from_secs(2 * DAY));
        // A tag only the hourly template consumes gets the smaller TTL,
        // floored at the default.
        let ttl_b = lineage.ttl_for_tags(&["in/b".into()], SimDuration::from_secs(HOUR));
        assert_eq!(ttl_b, SimDuration::from_secs(2 * DAY));
    }

    #[test]
    fn unknown_tags_get_default() {
        let lineage = lineage(&[]);
        let ttl = lineage.ttl_for_tags(&["never/seen".into()], SimDuration::from_secs(42));
        assert_eq!(ttl, SimDuration::from_secs(42));
    }

    #[test]
    fn single_instance_templates_fall_back() {
        let lineage = lineage(&[(1, 0, 0, &["in/a"])]);
        assert_eq!(lineage.template_period(TemplateId::new(1)), None);
        assert_eq!(
            lineage.ttl_for_tags(&["in/a".into()], SimDuration::from_secs(7)),
            SimDuration::from_secs(7)
        );
    }

    #[test]
    fn missing_instances_normalize_gap() {
        // Instances 0 and 4 observed, 4 hours apart ⇒ hourly period.
        let lineage = lineage(&[(1, 0, 0, &["in/a"]), (1, 4, 4 * HOUR, &["in/a"])]);
        assert_eq!(
            lineage.template_period(TemplateId::new(1)),
            Some(SimDuration::from_secs(HOUR))
        );
    }

    #[test]
    fn ttl_never_below_default() {
        // Minutely recurrence.
        let lineage = lineage(&[(1, 0, 0, &["in/a"]), (1, 1, 60, &["in/a"])]);
        let ttl = lineage.ttl_for_tags(&["in/a".into()], SimDuration::from_secs(DAY));
        assert_eq!(ttl, SimDuration::from_secs(DAY));
    }
}
