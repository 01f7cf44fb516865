//! The observability layer end to end (DESIGN.md §8).
//!
//! Runs a small recurring workload through the service — baseline day,
//! analysis, an enabled day with twelve concurrent submissions, one
//! scripted fault — then walks everything the telemetry layer captured:
//!
//! * per-job span trees (simulated phase intervals + real wall time);
//! * the metric catalog (counters, gauges, log-scale histograms);
//! * the operator dashboard (`admin::telemetry_dashboard`);
//! * the machine exports: Prometheus text and JSON (both hand-rolled —
//!   the workspace has no serde).
//!
//! ```bash
//! cargo run --release --example observability
//! ```

use std::sync::Arc;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::{
    admin, CloudViews, FaultPlan, FaultSite, PipelineOptions, RunMode, ScriptedFault,
};
use scope_common::telemetry::MetricsSnapshot;
use scope_common::Result;
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

fn main() -> Result<()> {
    let workload = RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![ClusterSpec::tiny("obs")],
        seed: 42,
        stream_rows: LogNormal::new(6.0, 0.5, 150.0, 1_500.0),
    })?;

    // Every service owns a telemetry sink (`service.telemetry`) and always
    // records into it; there is no switch.
    let mut service = CloudViews::builder(Arc::new(StorageManager::new())).build();

    println!("=== day 0: baseline fills the workload repository ===");
    workload.register_instance_data(0, 0, &service.storage, 1.0)?;
    let day0 = workload.jobs_for_instance(0, 0)?;
    service.run_sequence(&day0, RunMode::Baseline)?;
    let analysis = service.analyze(&AnalyzerConfig {
        policy: SelectionPolicy::TopKUtility { k: 5 },
        constraints: SelectionConstraints {
            per_job_cap: Some(1),
            ..Default::default()
        },
        ..Default::default()
    })?;
    service.install_analysis(&analysis);
    println!(
        "analyzer: {} jobs -> {} candidate overlaps -> {} views selected",
        analysis.jobs_analyzed,
        analysis.groups.len(),
        analysis.selected.len()
    );

    // One scripted fault so the degradation series light up: the first
    // lookup of the instance's first job times out (the retry succeeds).
    workload.register_instance_data(0, 1, &service.storage, 1.0)?;
    let day1: Vec<JobSpec> = workload.jobs_for_instance(0, 1)?;
    service.install_fault_plan(FaultPlan {
        scripted: vec![ScriptedFault {
            site: FaultSite::MetadataLookup,
            job: Some(day1[0].id),
            call_index: 0,
        }],
        ..Default::default()
    });

    println!("\n=== day 1: {} jobs, CloudViews on ===", day1.len());
    service.telemetry.tracer.clear();
    // First half arrives all at once (view availability is pinned at each
    // job's submission time, so this half builds and fights over locks);
    // the second half arrives back-to-back and reaps the reuse hits.
    let (burst, rest) = day1.split_at(day1.len() / 2);
    let options = PipelineOptions {
        workers: burst.len(),
        ..Default::default()
    };
    let mut reports = service
        .run_many(burst.to_vec(), RunMode::CloudViews, options)
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    reports.extend(service.run_sequence(rest, RunMode::CloudViews)?);
    println!(
        "reuse hits: {} / {} jobs, {} views built",
        reports
            .iter()
            .filter(|r| !r.views_reused.is_empty())
            .count(),
        reports.len(),
        reports.iter().map(|r| r.views_built.len()).sum::<usize>()
    );

    // --- span trees -------------------------------------------------------
    let sample_job = reports
        .iter()
        .find(|r| !r.views_reused.is_empty())
        .map(|r| r.job)
        .unwrap_or(reports[0].job);
    println!("\n=== span tree of job {sample_job} ===");
    let spans = service.telemetry.tracer.spans_for_job(sample_job);
    for span in &spans {
        let indent = if span.parent.is_some() { "  " } else { "" };
        println!(
            "{indent}{:<16} [{:>9} us .. {:>9} us] wall={} us{}",
            span.name,
            span.sim_start.micros(),
            span.sim_end.micros(),
            span.wall_micros,
            span.outcome
                .map(|o| format!("  outcome={o}"))
                .unwrap_or_default(),
        );
    }

    // --- metric catalog ---------------------------------------------------
    let snap: MetricsSnapshot = service.telemetry.metrics.snapshot();
    println!(
        "\n=== metric catalog: {} counters, {} gauges, {} histograms ===",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len()
    );
    let latency = snap.histogram("cv_job_latency_sim_micros").unwrap();
    println!(
        "job latency: n={} mean={:.0} us p50<={} us p99<={} us",
        latency.count,
        latency.mean(),
        latency.quantile_upper_bound(0.50),
        latency.quantile_upper_bound(0.99),
    );

    // --- operator dashboard ----------------------------------------------
    println!("\n=== admin::telemetry_dashboard ===");
    let dashboard = admin::telemetry_dashboard(&service);
    // The dashboard ends with the full Prometheus exposition; print the
    // human summary here and the exposition in the next section.
    for line in dashboard.lines().take_while(|l| !l.starts_with('#')) {
        println!("{line}");
    }

    // --- machine exports --------------------------------------------------
    println!("=== Prometheus exposition (cv_jobs_* series) ===");
    for line in service
        .telemetry
        .metrics
        .prometheus_text()
        .lines()
        .filter(|l| l.contains("cv_jobs_"))
    {
        println!("{line}");
    }

    let encoded = snap.to_json();
    let decoded = MetricsSnapshot::from_json(&encoded).expect("own export parses");
    println!(
        "\nJSON snapshot: {} bytes, round-trips losslessly: {}",
        encoded.len(),
        decoded == snap
    );
    println!(
        "span export: {} spans, {} bytes of JSON",
        service.telemetry.tracer.finished().len(),
        service.telemetry.tracer.json().len()
    );
    Ok(())
}
