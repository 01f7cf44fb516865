//! Admin reporting (paper Sections 4 requirement 7 and 5.5).
//!
//! The production system ships a Power BI dashboard; here the same content
//! renders as plain-text tables: workload overlap summaries, the
//! top-overlapping-computations drill-down, and before/after impact
//! reports. The figure-regeneration harness in `cloudviews-bench` builds on
//! these series.

use scope_common::time::SimDuration;
use scope_plan::OpKind;

use crate::analyzer::{OverlapGroup, OverlapMetrics};
use crate::runtime::{JobFaultReport, JobRunReport};

/// One-line overlap summary (the Figure 1 bars for one cluster).
pub fn overlap_summary(name: &str, m: &OverlapMetrics) -> String {
    format!(
        "{name}\tjobs={} overlapping_jobs={:.1}% users={:.1}% subgraphs={:.1}%",
        m.jobs_total,
        m.pct_jobs_overlapping(),
        m.pct_users_overlapping(),
        m.pct_subgraphs_overlapping(),
    )
}

/// Drill-down of the top-N overlapping computations (the paper's top-100
/// dashboard). TSV with one row per computation.
pub fn top_overlaps(groups: &[OverlapGroup], n: usize) -> String {
    let mut out = String::from(
        "rank\tnormalized\troot\tnodes\tfreq\tjobs\tusers\tavg_cpu\tavg_bytes\tcost_ratio\tutility\n",
    );
    for (i, g) in groups.iter().take(n).enumerate() {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{}\n",
            i + 1,
            g.normalized.short(),
            g.root_kind,
            g.num_nodes,
            g.per_instance_frequency(),
            g.jobs.len(),
            g.users.len(),
            g.avg_cumulative_cpu,
            g.avg_out_bytes,
            g.cost_ratio(),
            g.utility(),
        ));
    }
    out
}

/// Operator-wise share of overlapping subgraphs (Figure 4a): percentage of
/// overlapping-subgraph occurrences rooted at each operator kind.
pub fn operator_breakdown(groups: &[OverlapGroup]) -> Vec<(OpKind, f64)> {
    let total: u64 = groups.iter().map(|g| g.occurrences).sum();
    let mut out: Vec<(OpKind, f64)> = OpKind::ALL
        .iter()
        .map(|&kind| {
            let count: u64 = groups
                .iter()
                .filter(|g| g.root_kind == kind)
                .map(|g| g.occurrences)
                .sum();
            (kind, 100.0 * count as f64 / total.max(1) as f64)
        })
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// Before/after impact of one job set (the Figures 11/12 tables).
pub fn impact_report(baseline: &[JobRunReport], enabled: &[JobRunReport]) -> String {
    assert_eq!(baseline.len(), enabled.len(), "job sets must align");
    let mut out =
        String::from("job\tbase_latency_s\tcv_latency_s\tlat_change%\tbase_cpu_s\tcv_cpu_s\tcpu_change%\tbuilt\treused\n");
    let mut lat_b = SimDuration::ZERO;
    let mut lat_c = SimDuration::ZERO;
    let mut cpu_b = SimDuration::ZERO;
    let mut cpu_c = SimDuration::ZERO;
    for (b, e) in baseline.iter().zip(enabled) {
        lat_b += b.latency;
        lat_c += e.latency;
        cpu_b += b.cpu_time;
        cpu_c += e.cpu_time;
        out.push_str(&format!(
            "{}\t{:.2}\t{:.2}\t{:+.1}\t{:.2}\t{:.2}\t{:+.1}\t{}\t{}\n",
            b.job,
            b.latency.as_secs_f64(),
            e.latency.as_secs_f64(),
            pct_change(b.latency, e.latency),
            b.cpu_time.as_secs_f64(),
            e.cpu_time.as_secs_f64(),
            pct_change(b.cpu_time, e.cpu_time),
            e.views_built.len(),
            e.views_reused.len(),
        ));
    }
    out.push_str(&format!(
        "TOTAL\t{:.2}\t{:.2}\t{:+.1}\t{:.2}\t{:.2}\t{:+.1}\t-\t-\n",
        lat_b.as_secs_f64(),
        lat_c.as_secs_f64(),
        pct_change(lat_b, lat_c),
        cpu_b.as_secs_f64(),
        cpu_c.as_secs_f64(),
        pct_change(cpu_b, cpu_c),
    ));
    out
}

/// Percentage improvement (positive = CloudViews faster), the metric of
/// Figures 11–13.
pub fn pct_change(baseline: SimDuration, enabled: SimDuration) -> f64 {
    let b = baseline.micros() as f64;
    if b == 0.0 {
        return 0.0;
    }
    100.0 * (b - enabled.micros() as f64) / b
}

/// Aggregate improvement stats over aligned runs: (average per-job
/// improvement %, overall/total improvement %).
pub fn improvement_stats(
    baseline: &[JobRunReport],
    enabled: &[JobRunReport],
    metric: fn(&JobRunReport) -> SimDuration,
) -> (f64, f64) {
    assert_eq!(baseline.len(), enabled.len());
    let per_job: Vec<f64> = baseline
        .iter()
        .zip(enabled)
        .map(|(b, e)| pct_change(metric(b), metric(e)))
        .collect();
    let avg = per_job.iter().sum::<f64>() / per_job.len().max(1) as f64;
    let total_b: SimDuration = baseline.iter().map(metric).sum();
    let total_e: SimDuration = enabled.iter().map(metric).sum();
    (avg, pct_change(total_b, total_e))
}

/// Sum of the per-job fault/degradation counters across a run set (the
/// aggregate row of the fault dashboard).
pub fn fault_totals(reports: &[JobRunReport]) -> JobFaultReport {
    let mut total = JobFaultReport::default();
    for r in reports {
        total.accumulate(&r.faults);
    }
    total
}

/// Per-job fault and degradation drill-down. TSV with one row per job that
/// observed any fault, plus a TOTAL row; "no faults observed" when clean.
pub fn fault_report(reports: &[JobRunReport]) -> String {
    let total = fault_totals(reports);
    if !total.any() {
        return String::from("no faults observed\n");
    }
    let mut out = String::from(
        "job\tlookup_faults\tretries\tbaseline_fallback\tpropose_faults\t\
         view_fallbacks\tdead_unregistered\tbuilder_crashes\treport_faults\t\
         delayed_pubs\tdegraded_s\n",
    );
    let mut row = |label: &str, f: &JobFaultReport| {
        out.push_str(&format!(
            "{label}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\n",
            f.lookup_faults,
            f.lookup_retries,
            if f.fell_back_to_baseline { "yes" } else { "no" },
            f.propose_faults,
            f.view_read_fallbacks,
            f.dead_views_unregistered,
            f.builder_crashes,
            f.report_faults,
            f.delayed_publications,
            f.degraded_latency.as_secs_f64(),
        ));
    };
    for r in reports.iter().filter(|r| r.faults.any()) {
        row(&r.job.to_string(), &r.faults);
    }
    row("TOTAL", &total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::hash::sip128;
    use scope_common::ids::JobId;
    use scope_common::time::SimTime;
    use std::collections::HashMap;

    fn report(job: u64, latency_s: f64, cpu_s: f64, built: usize, reused: usize) -> JobRunReport {
        JobRunReport {
            job: JobId::new(job),
            started_at: SimTime::ZERO,
            latency: SimDuration::from_secs_f64(latency_s),
            cpu_time: SimDuration::from_secs_f64(cpu_s),
            lookup_latency: SimDuration::ZERO,
            views_built: (0..built).map(|i| sip128(&[i as u8])).collect(),
            views_reused: (0..reused).map(|i| sip128(&[100 + i as u8])).collect(),
            optimizer: Default::default(),
            output_checksums: HashMap::new(),
            output_rows: HashMap::new(),
            faults: JobFaultReport::default(),
        }
    }

    #[test]
    fn pct_change_signs() {
        let fast = SimDuration::from_secs(5);
        let slow = SimDuration::from_secs(10);
        assert!(pct_change(slow, fast) > 0.0); // improvement
        assert!(pct_change(fast, slow) < 0.0); // regression
        assert_eq!(pct_change(SimDuration::ZERO, fast), 0.0);
        assert!((pct_change(slow, fast) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn impact_report_totals() {
        let base = vec![report(1, 10.0, 40.0, 0, 0), report(2, 10.0, 40.0, 0, 0)];
        let cv = vec![report(1, 12.0, 44.0, 1, 0), report(2, 4.0, 16.0, 0, 1)];
        let text = impact_report(&base, &cv);
        assert!(text.contains("TOTAL"));
        assert!(text.contains("job1"));
        // Total latency: 20 -> 16 = +20% improvement.
        assert!(text.contains("+20.0"));
    }

    #[test]
    fn improvement_stats_avg_vs_overall() {
        let base = vec![report(1, 10.0, 10.0, 0, 0), report(2, 100.0, 100.0, 0, 0)];
        let cv = vec![report(1, 5.0, 5.0, 0, 1), report(2, 100.0, 100.0, 0, 0)];
        let (avg, overall) = improvement_stats(&base, &cv, |r| r.latency);
        assert!((avg - 25.0).abs() < 1e-9); // (50% + 0%) / 2
        assert!((overall - (110.0 - 105.0) / 110.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn fault_report_renders_and_totals() {
        let mut clean = report(1, 1.0, 1.0, 0, 0);
        assert_eq!(
            fault_report(std::slice::from_ref(&clean)),
            "no faults observed\n"
        );

        clean.faults.lookup_faults = 2;
        clean.faults.lookup_retries = 2;
        clean.faults.fell_back_to_baseline = true;
        let mut crashed = report(2, 1.0, 1.0, 1, 0);
        crashed.faults.builder_crashes = 1;
        crashed.faults.report_faults = 1;
        let quiet = report(3, 1.0, 1.0, 0, 0);

        let reports = vec![clean, crashed, quiet];
        let totals = fault_totals(&reports);
        assert_eq!(totals.lookup_faults, 2);
        assert_eq!(totals.builder_crashes, 1);
        assert_eq!(totals.call_faults(), 4);
        assert!(totals.fell_back_to_baseline);

        let text = fault_report(&reports);
        assert!(text.contains("job1\t2\t2\tyes"), "{text}");
        assert!(text.contains("job2\t"), "{text}");
        assert!(!text.contains("job3\t"), "quiet jobs are elided: {text}");
        assert!(text.contains("TOTAL\t2\t2\tyes"), "{text}");
    }

    #[test]
    fn summary_and_drilldown_render() {
        use crate::analyzer::testutil::baseline_run;
        use crate::analyzer::{mine_overlaps, overlap_metrics};
        let (repo, ..) = baseline_run(1, 5);
        let (groups, metrics) =
            repo.with_records(|records| (mine_overlaps(records), overlap_metrics(records)));
        let line = overlap_summary("cluster1", &metrics);
        assert!(line.starts_with("cluster1\t"));
        assert!(line.contains('%'));
        let table = top_overlaps(&groups, 10);
        assert!(table.lines().count() >= 2);
        let breakdown = operator_breakdown(&groups);
        assert_eq!(breakdown.len(), 26);
        let total: f64 = breakdown.iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-6, "{total}");
        // Sorted descending.
        for w in breakdown.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
