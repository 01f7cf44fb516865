//! `tpcds_reuse` — the paper's §7.2 experiment, executor-bound.
//!
//! All 99 TPC-DS queries over seeded data. Set-up generates the data, runs
//! the Baseline pass (which is also the warm-up and the correctness
//! reference) and lets the analyzer pick the top-10 overlapping
//! computations. Each measured repetition builds a fresh service over the
//! same data, installs that analysis, and runs the 99 queries with
//! CloudViews on, builders first (the analyzer's order hints) — one client,
//! closed loop, in memory, no wire and no disk.
//!
//! Why it exists: `scope-engine::exec` does most of the work here, so an
//! executor change must show on this workload; the metadata catalog holds
//! ten annotations and a handful of views, so a metadata or store change
//! must not.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cloudviews::analyzer::coordination::apply_order;
use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::{AnalysisOutcome, CloudViews, JobRunReport, RunMode};
use scope_common::hash::sip128;
use scope_common::ids::JobId;
use scope_engine::data::multiset_checksum;
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_workload::tpcds::schema::dataset_id;
use scope_workload::tpcds::{TpcdsWorkload, ALL_TABLES};

use super::{
    corrupt_checksums, design_check, set_end_to_end, set_layer_metrics, set_tail,
    set_template_hit_rate, sim_cpu_saved_pct, timed_job, timed_setups, total_cpu, write_trace_file,
    MetaCounts, Samples,
};
use crate::replay::{replay_job, ReplayCounts};
use crate::report::RunReport;
use crate::spans::Recorder;
use crate::stats::median;
use crate::util::{job_list_hash, Config, Deadline, Size};

/// TPC-DS scale factor of the measured fixture (1.0 ≈ 40k fact rows): the
/// paper's example scale, at which one 99-query pass takes about a second
/// here and Execute owns well over half of a job's wall.
const FULL_SCALE: f64 = 1.5;
/// Smallest scale at which the analyzer still finds overlap worth a view.
const TINY_SCALE: f64 = 0.25;

struct Fixture {
    storage: Arc<StorageManager>,
    /// The 99 jobs in submission order (builders first).
    jobs: Vec<JobSpec>,
    baseline: HashMap<JobId, JobRunReport>,
    analysis: AnalysisOutcome,
}

fn setup(cfg: &Config) -> Fixture {
    let scale = match cfg.size {
        Size::Full => FULL_SCALE,
        Size::Tiny => TINY_SCALE,
    };
    let tpcds = TpcdsWorkload::new(scale, cfg.seed);
    let storage = Arc::new(StorageManager::new());
    tpcds
        .register_data(&storage)
        .expect("TPC-DS data generation");
    let jobs = tpcds.all_jobs().expect("TPC-DS plans build");
    let base = CloudViews::builder(Arc::clone(&storage)).build();
    let baseline = base
        .run_sequence(&jobs, RunMode::Baseline)
        .expect("baseline pass");
    let analysis = base
        .analyze(&AnalyzerConfig {
            policy: SelectionPolicy::TopKUtility { k: 10 },
            constraints: SelectionConstraints {
                min_cost_ratio: 0.05,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("analysis over the baseline pass");
    let jobs = apply_order(jobs, &analysis.order_hints, |j| j.template);
    let mut baseline: HashMap<JobId, JobRunReport> =
        baseline.into_iter().map(|r| (r.job, r)).collect();
    if cfg.corrupt_one_checksum {
        let r = baseline.get_mut(&jobs[0].id).expect("first job ran");
        corrupt_checksums(&mut r.output_checksums);
    }
    Fixture {
        storage,
        jobs,
        baseline,
        analysis,
    }
}

/// A fresh service over the fixture's data with the analysis installed and
/// no views anywhere — the state every repetition starts from.
fn fresh_service(fx: &Fixture) -> CloudViews {
    for meta in fx.storage.view_metas() {
        fx.storage.delete_view(meta.precise);
    }
    let cv = CloudViews::builder(Arc::clone(&fx.storage)).build();
    cv.install_analysis(&fx.analysis);
    cv
}

/// One CloudViews pass through the shipped driver, timed per job.
fn service_pass(fx: &Fixture, report: &mut RunReport, samples: &mut Samples) -> Vec<JobRunReport> {
    let cv = fresh_service(fx);
    let mut now = cv.clock.now();
    let mut out = Vec::with_capacity(fx.jobs.len());
    for spec in &fx.jobs {
        let expected = &fx.baseline[&spec.id].output_checksums;
        if let Some(r) = timed_job(&cv, spec, now, expected, report, samples) {
            now = r.started_at + r.latency;
            out.push(r);
        }
    }
    out
}

/// One CloudViews pass through the replay, checked job for job against
/// the service's reports; returns its seconds at reference speed.
fn replay_pass(
    fx: &Fixture,
    rec: &Recorder,
    counts: &mut ReplayCounts,
    meta: &mut MetaCounts,
    service: &[JobRunReport],
    report: &mut RunReport,
) -> f64 {
    let cv = fresh_service(fx);
    let mut now = cv.clock.now();
    let mut timing = Samples::default();
    for (spec, expected) in fx.jobs.iter().zip(service) {
        let t = Instant::now();
        let replayed = replay_job(&cv, spec, RunMode::CloudViews, now, rec, None, counts);
        timing.push_op(t.elapsed().as_secs_f64());
        match replayed {
            Ok(r) => {
                now += r.latency;
                let divergence = r.divergence(expected);
                report.oracle.check(divergence.is_none(), || {
                    format!(
                        "replay fidelity, job {}: {}",
                        r.job,
                        divergence.unwrap_or_default()
                    )
                });
            }
            Err(e) => report
                .oracle
                .fail(|| format!("replay of job {} failed: {e}", spec.id)),
        }
    }
    timing.close_stretch();
    meta.add(MetaCounts::of(&cv.metadata.stats()));
    set_template_hit_rate(report, &cv.templates.stats());
    timing.busy_s
}

/// Runs the workload.
pub fn run(cfg: &Config) -> RunReport {
    let mut report = RunReport::default();
    let (fx, setup_s) = timed_setups(cfg, || setup(cfg));
    report.note("jobs_per_pass", fx.jobs.len());
    report.note("views_selected", fx.analysis.selected.len());
    // The 99 plans are the same for every seed; the data is what the seed
    // generates, so its checksums are part of the input hash.
    let data: Vec<u8> = ALL_TABLES
        .iter()
        .map(|t| {
            fx.storage
                .dataset(dataset_id(*t))
                .expect("table registered")
        })
        .flat_map(|t| multiset_checksum(&t).to_le_bytes())
        .collect();
    let plans = job_list_hash(&fx.jobs);
    let inputs: Vec<u8> = [plans.lo, plans.hi]
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .chain(data)
        .collect();
    report.note("job_list_hash", sip128(&inputs));
    report.note("clients", 1);
    report.note("threads", 1);
    let base_cpu = total_cpu(fx.baseline.values());

    if !cfg.trace {
        let mut samples = Samples::default();
        let deadline = Deadline::after(cfg.seconds);
        let mut passes = 0u64;
        let mut saved = 0.0;
        while passes == 0 || !deadline.passed() {
            let reports = service_pass(&fx, &mut report, &mut samples);
            saved = sim_cpu_saved_pct(base_cpu, total_cpu(&reports));
            passes += 1;
        }
        report.note("passes", passes);
        report.note("sim_cpu_saved_pct", format!("{saved:.3}"));
        set_end_to_end(&mut report, &setup_s, &mut samples);
        return report;
    }

    // Traced run. Each round: the shipped driver (reference and wall), the
    // replay with spans off (its own cost) and with spans on, the two in
    // alternating order. Ratios are taken per round, at reference speed,
    // and the median round is reported, so a host hiccup during one pass
    // does not decide them.
    let traced = Recorder::new(true);
    let untraced = Recorder::new(false);
    let (mut counts, mut meta) = (ReplayCounts::default(), MetaCounts::default());
    let (mut vs_service, mut overhead) = (Vec::new(), Vec::new());
    let mut saved = 0.0;
    let deadline = Deadline::after(cfg.seconds);
    let mut rounds = 0u64;
    let mut samples = Samples::default();
    while rounds == 0 || !deadline.passed() {
        let busy_before = samples.busy_s;
        let service = service_pass(&fx, &mut report, &mut samples);
        samples.close_stretch();
        let service_s = samples.busy_s - busy_before;
        saved = sim_cpu_saved_pct(base_cpu, total_cpu(&service));
        let (mut c, mut m) = (ReplayCounts::default(), MetaCounts::default());
        let mut off = 0.0;
        if rounds % 2 == 0 {
            off = replay_pass(&fx, &untraced, &mut c, &mut m, &service, &mut report);
        }
        let on = replay_pass(&fx, &traced, &mut counts, &mut meta, &service, &mut report);
        if rounds % 2 == 1 {
            off = replay_pass(&fx, &untraced, &mut c, &mut m, &service, &mut report);
        }
        vs_service.push(on / service_s);
        overhead.push(on / off - 1.0);
        rounds += 1;
    }
    report.note("rounds", rounds);
    let spans = traced.into_spans();
    let t = set_layer_metrics(&mut report, &spans, &counts, &meta);
    report.set("reuse.sim_cpu_saved_pct", saved);
    set_tail(&mut report, &mut samples);
    let ratio = median(&vs_service);
    report.set("trace.replay_vs_service_ratio", ratio);
    report.set("trace.overhead_frac", median(&overhead));
    design_check(&mut report, cfg, "exec.share", t.share("exec"), 0.5, 1.0);
    design_check(
        &mut report,
        cfg,
        "trace.layer_sum_ratio",
        t.layer_sum_ratio(),
        0.9,
        1.1,
    );
    design_check(
        &mut report,
        cfg,
        "trace.replay_vs_service_ratio",
        ratio,
        0.9,
        1.1,
    );
    write_trace_file(&mut report, "tpcds_reuse", &spans);
    report
}
