//! The four workloads and what they share: sample bookkeeping, the
//! end-to-end metric block, and the per-layer block derived from spans.

use std::collections::HashMap;
use std::time::Instant;

use cloudviews::{CloudViews, JobRunReport, MetadataStats, RunMode, TemplateCacheStats};
use scope_common::time::{SimDuration, SimTime};
use scope_engine::job::JobSpec;

use crate::calib::Normalizer;
use crate::replay::ReplayCounts;
use crate::report::RunReport;
use crate::spans::{durations_us, write_trace, Span, TraceSummary};
use crate::stats::{loose_percentile, median, percentile, tail, Reservoir};
use crate::util::{cores, out_dir, peak_rss_mb, Config, Size};

pub mod frontdoor_mixed;
pub mod recurring_windowed;
pub mod subsume_catalog;
pub mod tpcds_reuse;

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "tpcds_reuse",
    "recurring_windowed",
    "subsume_catalog",
    "frontdoor_mixed",
];

/// Runs the named workload.
pub fn run(name: &str, cfg: &Config) -> Result<RunReport, String> {
    let mut report = match name {
        "tpcds_reuse" => tpcds_reuse::run(cfg),
        "recurring_windowed" => recurring_windowed::run(cfg),
        "subsume_catalog" => subsume_catalog::run(cfg),
        "frontdoor_mixed" => frontdoor_mixed::run(cfg),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    };
    report.note("workload", name);
    report.note("seed", cfg.seed);
    report.note("seconds", cfg.seconds);
    report.note("size", format!("{:?}", cfg.size));
    report.note("cores", cores());
    Ok(report)
}

/// Raw wall time a stretch accumulates before the host speed is re-read.
const STRETCH_S: f64 = 0.005;

/// Wall-clock samples of the measured phase, normalised to the reference
/// host speed stretch by stretch (see [`crate::calib`]).
pub struct Samples {
    /// Per-operation wall, microseconds at reference speed, pooled across
    /// repetitions (a bounded uniform sample of them).
    pub op_wall_us: Reservoir,
    /// Seconds, at reference speed, the system spent on the measured work.
    pub busy_s: f64,
    /// The same seconds as the wall clock read them.
    pub raw_busy_s: f64,
    /// Operations that reused at least one view (or found an annotation).
    pub hits: u64,
    norm: Normalizer,
    open_us: Vec<f64>,
    open_busy_s: f64,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            op_wall_us: Reservoir::default(),
            busy_s: 0.0,
            raw_busy_s: 0.0,
            hits: 0,
            norm: Normalizer::start(),
            open_us: Vec::new(),
            open_busy_s: 0.0,
        }
    }
}

impl Samples {
    /// Operations measured.
    pub fn ops(&self) -> u64 {
        self.op_wall_us.seen() + self.open_us.len() as u64
    }

    /// Adds one operation's raw wall seconds: a latency sample and busy
    /// time. Closes the stretch once it has run long enough.
    pub fn push_op(&mut self, wall_s: f64) {
        self.open_us.push(wall_s * 1e6);
        self.add_busy(wall_s);
    }

    /// Adds a latency sample (raw microseconds) that is already covered by
    /// busy time added elsewhere.
    pub fn push_sample_us(&mut self, wall_us: f64) {
        self.open_us.push(wall_us);
    }

    /// Adds raw busy seconds that are not one operation's latency.
    pub fn add_busy(&mut self, wall_s: f64) {
        self.open_busy_s += wall_s;
        if self.open_busy_s >= STRETCH_S {
            self.close_stretch();
        }
    }

    /// Re-reads the host speed after untimed work.
    pub fn resync(&mut self) {
        self.close_stretch();
        self.norm.resync();
    }

    /// Scales the open stretch by the host speed around it.
    pub fn close_stretch(&mut self) {
        if self.open_us.is_empty() && self.open_busy_s == 0.0 {
            return;
        }
        let factor = self.norm.close();
        for us in self.open_us.drain(..) {
            self.op_wall_us.push(us * factor);
        }
        self.busy_s += self.open_busy_s * factor;
        self.raw_busy_s += self.open_busy_s;
        self.open_busy_s = 0.0;
    }

    /// Times `f` and returns its result with its seconds at reference
    /// speed (one stretch: a reading before, a reading after).
    pub fn normalised<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let mut norm = Normalizer::start();
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        (out, raw * norm.close())
    }
}

/// Runs one job through the shipped driver, timing it from outside and
/// checking its output checksums against `expected` (the Baseline run of
/// the same job). A failed job is counted and yields `None`.
pub fn timed_job(
    cv: &CloudViews,
    spec: &JobSpec,
    start: SimTime,
    expected: &HashMap<String, u64>,
    report: &mut RunReport,
    samples: &mut Samples,
) -> Option<JobRunReport> {
    report.oracle.attempt();
    let t = Instant::now();
    let result = cv.run_job_at(spec, RunMode::CloudViews, start);
    let wall = t.elapsed().as_secs_f64();
    match result {
        Ok(r) => {
            samples.push_op(wall);
            samples.hits += u64::from(!r.views_reused.is_empty());
            report.oracle.check(&r.output_checksums == expected, || {
                format!("job {}: CloudViews output differs from Baseline", r.job)
            });
            Some(r)
        }
        Err(e) => {
            samples.add_busy(wall);
            report
                .oracle
                .fail(|| format!("job {} failed: {e}", spec.id));
            None
        }
    }
}

/// Fills the end-to-end block every workload reports.
pub fn set_end_to_end(report: &mut RunReport, setup_s: &[f64], samples: &mut Samples) {
    samples.close_stretch();
    report.note(
        "raw_ops_per_s",
        format!("{:.3}", samples.ops() as f64 / samples.raw_busy_s.max(1e-9)),
    );
    report.note(
        "host_speed",
        format!(
            "{:.3} of reference ({} readings)",
            crate::calib::REFERENCE_NS / samples.norm.median_kernel_ns(),
            samples.norm.readings()
        ),
    );
    report.set("setup_s", median(setup_s));
    report.note("setup_runs", setup_s.len());
    report.note("samples", samples.ops());
    report.set("ops_per_s", samples.ops() as f64 / samples.busy_s.max(1e-9));
    let walls = samples.op_wall_us.sorted();
    for (name, p) in [("op_wall_us_p50", 50.0), ("op_wall_us_p90", 90.0)] {
        // Thin samples (tiny fixtures) are reported as they are, and said so.
        let value = percentile(&walls, p).unwrap_or_else(|_| {
            report.note(&format!("{name}_thin_sample"), walls.len());
            loose_percentile(&walls, p)
        });
        report.set(name, value);
    }
    report.set(
        "reuse_hit_rate",
        samples.hits as f64 / samples.ops().max(1) as f64,
    );
    report.set("peak_rss_mb", peak_rss_mb());
}

/// Reports the p99 of the pooled op walls — the traced run's
/// `tail.op_wall_us_p99`. A p99 needs 1,000 samples; with fewer, the
/// highest percentile with ten samples beyond it stands in and the
/// substitution is noted beside the metrics.
pub fn set_tail(report: &mut RunReport, samples: &mut Samples) {
    samples.close_stretch();
    let walls = samples.op_wall_us.sorted();
    let (p, value) = tail(&walls, 99.0).unwrap_or((100.0, walls.last().copied().unwrap_or(0.0)));
    if p != 99.0 {
        report.note("tail.op_wall_us_p99_is_actually_p", format!("{p:.2}"));
    }
    report.note("tail_samples", walls.len());
    report.set("tail.op_wall_us_p99", value);
}

/// Runs `setup` as often as the run calls for, one fixture alive at a
/// time (or set-up would decide `peak_rss_mb`); returns the last fixture
/// and every run's seconds at reference speed.
pub fn timed_setups<T>(cfg: &Config, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut fixture = None;
    for _ in 0..cfg.setup_reps() {
        drop(fixture.take());
        let (fx, secs) = Samples::normalised(&mut setup);
        fixture = Some(fx);
        seconds.push(secs);
    }
    (fixture.expect("set-up runs at least once"), seconds)
}

/// Test hook behind `Config::corrupt_one_checksum`: flips one bit of every
/// recorded Baseline checksum of a job, which the oracle must then catch.
pub fn corrupt_checksums(sums: &mut HashMap<String, u64>) {
    sums.values_mut().for_each(|s| *s ^= 1);
}

/// Records the template cache's hit rate.
pub fn set_template_hit_rate(report: &mut RunReport, stats: &TemplateCacheStats) {
    report.set(
        "sig.template_hit_rate",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
}

/// Writes the traced run's spans to `out/trace-<workload>.json`.
pub fn write_trace_file(report: &mut RunReport, workload: &str, spans: &[Span]) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    match write_trace(&path, spans) {
        Ok(()) => report.note("trace_file", path.display()),
        Err(e) => report
            .oracle
            .fail(|| format!("writing {}: {e}", path.display())),
    }
}

/// Simulated cluster CPU saved against the Baseline run of the same jobs,
/// in percent — the paper's headline number.
pub fn sim_cpu_saved_pct(baseline: SimDuration, cloudviews: SimDuration) -> f64 {
    if baseline == SimDuration::ZERO {
        return 0.0;
    }
    100.0 * (1.0 - cloudviews.as_secs_f64() / baseline.as_secs_f64())
}

/// Total simulated CPU of a set of reports.
pub fn total_cpu<'a>(reports: impl IntoIterator<Item = &'a JobRunReport>) -> SimDuration {
    reports.into_iter().map(|r| r.cpu_time).sum()
}

/// Fills the per-layer metrics that come straight from a replay's spans
/// and boundary counts. `meta` is the metadata service's counter delta
/// over the same replay.
pub fn set_layer_metrics(
    report: &mut RunReport,
    spans: &[Span],
    counts: &ReplayCounts,
    meta: &MetaCounts,
) -> TraceSummary {
    let t = TraceSummary::of(spans);
    let jobs = t.jobs.max(1);
    report.note("traced_jobs", t.jobs);
    report.note("traced_spans", spans.len());

    report.set("sig.compile_us_per_job", t.us_per("sig.compile", jobs));
    report.set("sig.probe_us_per_job", t.us_per("sig.probe", jobs));
    report.set("sig.share", t.share("sig"));

    let lookups = durations_us(spans, "meta.lookup");
    report.set("meta.lookup_us_p50", loose_percentile(&lookups, 50.0));
    report.set("meta.lookup_us_p99", loose_percentile(&lookups, 99.0));
    report.set(
        "meta.propose_us_p50",
        loose_percentile(&durations_us(spans, "meta.propose"), 50.0),
    );
    report.set(
        "meta.report_us_p50",
        loose_percentile(&durations_us(spans, "meta.report"), 50.0),
    );
    report.set(
        "meta.tier2_probed_per_lookup",
        meta.tier2_probed as f64 / meta.lookups.max(1) as f64,
    );
    report.set(
        "meta.tier2_hit_ratio",
        counts.tier2_rewrites as f64 / meta.tier2_probed.max(1) as f64,
    );
    report.set(
        "meta.lock_conflict_ratio",
        meta.lock_conflicts as f64 / meta.proposals.max(1) as f64,
    );
    report.set("meta.share", t.share("meta"));

    report.set("opt.optimize_us_per_job", t.us_per("opt.optimize", jobs));
    report.set(
        "opt.tier2_attempts_per_rewrite",
        counts.tier2_candidates as f64 / counts.tier2_rewrites.max(1) as f64,
    );
    report.set("opt.share", t.share("opt"));

    let execs = durations_us(spans, "exec.execute");
    report.set("exec.execute_us_p50", loose_percentile(&execs, 50.0));
    report.set("exec.execute_us_p99", loose_percentile(&execs, 99.0));
    let exec_busy_s = t.by_name.get("exec.execute").map_or(0, |a| a.self_ns) as f64 / 1e9;
    report.set(
        "exec.rows_per_s",
        counts.exec_in_rows as f64 / exec_busy_s.max(1e-9),
    );
    report.set("exec.share", t.share("exec"));

    report.set("sim.simulate_us_per_job", t.us_per("sim.simulate", jobs));
    report.set("sim.share", t.share("sim"));

    // Per view built; a workload that builds none reports 0, not the cost
    // of asking.
    if counts.views_built > 0 {
        let views = counts.views_built;
        report.set(
            "storage.materialize_us_per_view",
            t.us_per("storage.materialize", views),
        );
        report.set(
            "storage.publish_us_per_view",
            t.us_per("storage.publish", views),
        );
        report.set(
            "storage.view_bytes_per_view",
            counts.view_bytes as f64 / views as f64,
        );
    }
    report.set("storage.share", t.share("storage"));

    report.set("repo.record_us_per_job", t.us_per("repo.record", jobs));
    report.set("repo.share", t.share("repo"));
    report.set(
        "analyzer.absorb_us_per_job",
        t.us_per("analyzer.absorb", jobs),
    );
    report.set("analyzer.share", t.share("analyzer"));
    report.set("store.share", t.share("store"));
    report.set("pipeline.other_share", t.share("pipeline"));
    report.set("trace.layer_sum_ratio", t.layer_sum_ratio());
    t
}

/// The metadata-service counters the per-layer ratios need.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaCounts {
    /// Lookups served.
    pub lookups: u64,
    /// Tier-2 candidate views the lookups probed (hits + rejects).
    pub tier2_probed: u64,
    /// Build-lock proposals decided.
    pub proposals: u64,
    /// Proposals refused because another job held the lock.
    pub lock_conflicts: u64,
}

impl MetaCounts {
    /// The counters of one service snapshot.
    pub fn of(s: &MetadataStats) -> MetaCounts {
        MetaCounts {
            lookups: s.lookups,
            tier2_probed: s.tier2_hits + s.tier2_rejects,
            proposals: s.locks_granted + s.lock_conflicts + s.already_materialized,
            lock_conflicts: s.lock_conflicts,
        }
    }

    /// Adds another delta.
    pub fn add(&mut self, o: MetaCounts) {
        self.lookups += o.lookups;
        self.tier2_probed += o.tier2_probed;
        self.proposals += o.proposals;
        self.lock_conflicts += o.lock_conflicts;
    }

    /// `self − before`, for two snapshots of one service.
    pub fn since(self, before: MetaCounts) -> MetaCounts {
        MetaCounts {
            lookups: self.lookups - before.lookups,
            tier2_probed: self.tier2_probed - before.tier2_probed,
            proposals: self.proposals - before.proposals,
            lock_conflicts: self.lock_conflicts - before.lock_conflicts,
        }
    }
}

/// A workload-design check: the traced run fails when a workload does not
/// stress what it claims to, so a resized fixture cannot silently change
/// what the benchmark measures.
///
/// Only the measured fixture is held to the thresholds: the tiny one runs
/// the same code over too few jobs to have a stable budget.
pub fn design_check(
    report: &mut RunReport,
    cfg: &Config,
    what: &str,
    value: f64,
    lo: f64,
    hi: f64,
) {
    report.note(
        &format!("design_check {what}"),
        format!("{value:.4} in [{lo}, {hi}]"),
    );
    let holds = (value >= lo && value <= hi) || cfg.size == Size::Tiny;
    report.oracle.check(holds, || {
        format!("workload-design check failed: {what} = {value:.4}, expected within [{lo}, {hi}]")
    });
}
