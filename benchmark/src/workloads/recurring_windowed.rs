//! `recurring_windowed` — many tiny recurring jobs on a durable service.
//!
//! One generated cluster (~120 templates, small streams) submits a daily
//! instance of bursty arrivals through `run_windowed` — in-flight sharing
//! on, two workers — to a `durable()` service with the incremental
//! analyzer. Between instances the service does its nightly maintenance:
//! `analyze_round`, `install_analysis`, the clock moves a day, and
//! `purge_expired` reclaims yesterday's views. Instance 0 runs Baseline in
//! set-up and is not timed. The default 4 MiB snapshot threshold is kept,
//! so the WAL compacts as it would in service.
//!
//! Why it exists: each job is a few milliseconds, so compile/template
//! cache, lookup, optimize, publish, record, analyzer absorb, WAL append
//! and snapshot own the wall and Execute owns little. It is the only
//! workload with two workers, in-flight sharing, purge and compaction —
//! where a driver merge, WAL group-commit or a multi-core change shows.
//! `run_many` at one pinned instant reuses nothing on this trace, which is
//! why the windowed driver is the one measured.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::{
    CloudViews, JobArrival, JobRunReport, PipelineOptions, RunMode, SharingConfig, SharingSummary,
};
use rand::Rng;
use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::time::SimDuration;
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_workload::dists::{rng_for, LogNormal};
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

use super::{
    corrupt_checksums, design_check, set_end_to_end, set_layer_metrics, set_tail,
    set_template_hit_rate, sim_cpu_saved_pct, timed_setups, write_trace_file, MetaCounts, Samples,
};
use crate::replay::{replay_job, ReplayCounts, ReplayedJob, StoreTap};
use crate::report::RunReport;
use crate::spans::{durations_us, Recorder, Span};
use crate::stats::{loose_percentile, median, sorted};
use crate::util::{dir_usage, job_list_hash, Config, Deadline, Size, TempRoot};

/// Worker threads of the measured configuration (`nproc` is 2 here).
const WORKERS: usize = 2;
/// Log-normal location of the stream sizes: a median of ~40 rows. Bigger
/// streams (the repo's usual 330-row median) put Execute above half of a
/// job's wall; this workload is about everything around it.
const STREAM_ROWS_MU: f64 = 3.7;
/// WAL size at which the service compacts. One instance appends ~5 KiB of
/// metadata events, so the default 4 MiB would not compact once in a run;
/// 32 KiB compacts every half-dozen instances.
const SNAPSHOT_THRESHOLD: u64 = 32 << 10;
/// Daily instances one service lives through before the run starts over on
/// a fresh one. The service's memory grows with its history (~6 MB per
/// instance here), so an unbounded run's `peak_rss_mb` would measure how
/// many instances fit in the time given, not the program.
const CYCLE_INSTANCES: u64 = 30;
/// Cold opens timed for `store.recovery_ms`.
const RECOVERY_OPENS: usize = 5;

/// Seed of the cluster's *structure* — which templates share which
/// fragments. It is fixed: with 120 templates, two structure seeds differ
/// by a factor of 1.7 in reuse hit rate, and the benchmark's metrics have
/// to be comparable across run seeds. The run seed drives what varies day
/// to day in a real cluster with a fixed set of scripts: when jobs arrive.
const STRUCTURE_SEED: u64 = 2018;

fn workload(cfg: &Config) -> RecurringWorkload {
    let spec = match cfg.size {
        Size::Full => ClusterSpec {
            name: "recurring".into(),
            num_vcs: 8,
            num_users: 16,
            num_templates: 120,
            num_streams: 24,
            num_fragments: 36,
            fragment_zipf: 1.15,
            vc_zero_overlap: 0.10,
            vc_full_overlap: 0.05,
            base_overlap: 0.75,
            num_business_units: 2,
        },
        Size::Tiny => ClusterSpec::tiny("recurring"),
    };
    RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![spec],
        seed: STRUCTURE_SEED,
        stream_rows: LogNormal::new(STREAM_ROWS_MU, 0.5, 20.0, 400.0),
    })
    .expect("recurring workload generation")
}

fn analyzer_cfg() -> AnalyzerConfig {
    AnalyzerConfig {
        policy: SelectionPolicy::TopKUtility { k: 25 },
        constraints: SelectionConstraints {
            per_job_cap: Some(1),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Bursty arrival offsets for one instance: jobs land around random burst
/// centres spread so that a 30 s admission window admits about eight.
fn arrivals(jobs: &[JobSpec], seed: u64, instance: u64) -> Vec<SimDuration> {
    let mut rng = rng_for(seed, &format!("recurring_windowed/arrivals/{instance}"));
    let span_us = (jobs.len() as u64).div_ceil(8) * 30_000_000;
    let centres: Vec<u64> = (0..jobs.len().div_ceil(4))
        .map(|_| rng.gen_range(0..span_us))
        .collect();
    jobs.iter()
        .map(|_| {
            let c = centres[rng.gen_range(0..centres.len())];
            SimDuration::from_micros(c + rng.gen_range(0..6_000_000u64))
        })
        .collect()
}

/// How one arm of the experiment is configured.
#[derive(Clone, Copy, Debug)]
struct Arm {
    durable: bool,
    sharing: bool,
    workers: usize,
    /// Drive jobs through the bench-side replay instead of the service.
    replay: bool,
}

/// The measured configuration.
const MEASURED: Arm = Arm {
    durable: true,
    sharing: true,
    workers: WORKERS,
    replay: false,
};

/// State of one arm: its own storage, service and durable root.
struct Service {
    cv: CloudViews,
    /// Plain in-memory service over the same storage: Baseline reference.
    reference: CloudViews,
    root: Option<TempRoot>,
    next_instance: u64,
}

fn open(storage: Arc<StorageManager>, root: Option<&TempRoot>) -> CloudViews {
    let b = CloudViews::builder(storage).incremental_analyzer(analyzer_cfg());
    match root {
        Some(r) => b
            .durable(r.path())
            .snapshot_threshold(SNAPSHOT_THRESHOLD)
            .build(),
        None => b.build(),
    }
}

/// Builds an arm's service and runs instance 0 in Baseline mode — set-up.
fn setup(w: &RecurringWorkload, arm: Arm, seed: u64) -> Service {
    let storage = Arc::new(StorageManager::new());
    let root = arm.durable.then(|| TempRoot::new("recurring"));
    // The reference first: the later builder's telemetry sink is the one
    // the shared storage manager keeps, and that should be the service's.
    let reference = CloudViews::builder(Arc::clone(&storage))
        .record_runs(false)
        .build();
    let cv = open(storage, root.as_ref());
    let mut svc = Service {
        cv,
        reference,
        root,
        next_instance: 0,
    };
    let (jobs, offsets) = next_instance(w, &mut svc, seed);
    let out = svc.cv.run_windowed(
        to_arrivals(&jobs, &offsets),
        RunMode::Baseline,
        options(arm),
        &sharing(arm),
    );
    assert!(
        out.reports.iter().all(Result::is_ok),
        "baseline instance runs clean"
    );
    svc.cv.telemetry.tracer.clear();
    maintenance(&svc.cv);
    svc
}

fn options(arm: Arm) -> PipelineOptions {
    PipelineOptions {
        workers: arm.workers,
        max_in_flight: 0,
        janitor: false,
    }
}

fn sharing(arm: Arm) -> SharingConfig {
    SharingConfig {
        enabled: arm.sharing,
        ..SharingConfig::default()
    }
}

fn to_arrivals(jobs: &[JobSpec], offsets: &[SimDuration]) -> Vec<JobArrival> {
    jobs.iter()
        .zip(offsets)
        .map(|(spec, offset)| JobArrival {
            spec: spec.clone(),
            offset: *offset,
        })
        .collect()
}

/// Registers the next instance's inputs and generates its jobs and arrival
/// offsets (workload generation; never timed).
fn next_instance(
    w: &RecurringWorkload,
    svc: &mut Service,
    seed: u64,
) -> (Vec<JobSpec>, Vec<SimDuration>) {
    let i = svc.next_instance;
    svc.next_instance += 1;
    w.register_instance_data(0, i, &svc.cv.storage, 1.0)
        .expect("instance data");
    let jobs = w.jobs_for_instance(0, i).expect("instance jobs");
    let offsets = arrivals(&jobs, seed, i);
    (jobs, offsets)
}

/// Wall-clock cost of one night's maintenance, by step.
#[derive(Clone, Copy, Debug, Default)]
struct Maintenance {
    round_s: f64,
    install_s: f64,
    purge_s: f64,
}

impl Maintenance {
    fn total_s(&self) -> f64 {
        self.round_s + self.install_s + self.purge_s
    }
}

/// The nightly loop between instances: re-select, ship annotations, move
/// the clock a day, reclaim what expired.
fn maintenance(cv: &CloudViews) -> Maintenance {
    let t = Instant::now();
    let outcome = cv.analyze_round().expect("analyzer round");
    let round_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    cv.install_analysis(&outcome);
    let install_s = t.elapsed().as_secs_f64();
    cv.clock.advance(SimDuration::from_secs(86_400));
    let t = Instant::now();
    cv.purge_expired();
    Maintenance {
        round_s,
        install_s,
        purge_s: t.elapsed().as_secs_f64(),
    }
}

/// Baseline checksums of an instance's jobs, from the reference service.
fn reference_checksums(
    svc: &Service,
    jobs: &[JobSpec],
) -> (HashMap<JobId, HashMap<String, u64>>, SimDuration) {
    let reports = svc.reference.run_many(
        jobs.to_vec(),
        RunMode::Baseline,
        PipelineOptions {
            workers: WORKERS,
            max_in_flight: 0,
            janitor: false,
        },
    );
    let mut cpu = SimDuration::ZERO;
    let sums = reports
        .into_iter()
        .map(|r| {
            let r = r.expect("reference baseline job");
            cpu += r.cpu_time;
            (r.job, r.output_checksums)
        })
        .collect();
    (sums, cpu)
}

/// What one arm accumulated.
#[derive(Default)]
struct ArmOutcome {
    instances: u64,
    samples: Samples,
    maintenance: Vec<Maintenance>,
    sharing: SharingSummary,
    base_cpu: SimDuration,
    cv_cpu: SimDuration,
    job_hash: Vec<Sig128>,
    /// Per-job reports, kept only by the arm the replay is compared with.
    keep_reports: bool,
    reports: Vec<JobRunReport>,
    replayed: Vec<ReplayedJob>,
}

/// When a call to [`run_arm`] stops: after `max_instances`, or — once it
/// has run at least one — when the deadline passes.
struct Stop<'a> {
    deadline: Option<&'a Deadline>,
    max_instances: u64,
}

/// Runs one instance through the service's windowed driver.
fn service_instance(
    svc: &Service,
    arm: Arm,
    jobs: &[JobSpec],
    offsets: &[SimDuration],
    expected: &HashMap<JobId, HashMap<String, u64>>,
    report: &mut RunReport,
    out: &mut ArmOutcome,
) {
    let cv = &svc.cv;
    let t = Instant::now();
    let outcome = cv.run_windowed(
        to_arrivals(jobs, offsets),
        RunMode::CloudViews,
        options(arm),
        &sharing(arm),
    );
    let wall = t.elapsed().as_secs_f64();
    // Per-job wall comes from the service's own job spans.
    for s in cv.telemetry.tracer.finished() {
        if s.name == "job" {
            out.samples.push_sample_us(s.wall_micros as f64);
        }
    }
    cv.telemetry.tracer.clear();
    out.samples.add_busy(wall);
    for (spec, r) in jobs.iter().zip(outcome.reports) {
        report.oracle.attempt();
        match r {
            Ok(r) => {
                out.samples.hits += u64::from(!r.views_reused.is_empty());
                out.cv_cpu += r.cpu_time;
                report
                    .oracle
                    .check(Some(&r.output_checksums) == expected.get(&r.job), || {
                        format!("job {}: CloudViews output differs from Baseline", r.job)
                    });
                if out.keep_reports {
                    out.reports.push(r);
                }
            }
            Err(e) => report
                .oracle
                .fail(|| format!("job {} failed: {e}", spec.id)),
        }
    }
    let s = outcome.sharing;
    out.sharing.windows += s.windows;
    out.sharing.jobs += s.jobs;
    out.sharing.shared_subgraphs += s.shared_subgraphs;
    out.sharing.published += s.published;
    out.sharing.aborted += s.aborted;
    out.sharing.follower_reuses += s.follower_reuses;
    out.sharing.follower_fallbacks += s.follower_fallbacks;
}

/// Runs one instance through the replay: the same admission windows and
/// pinned submission times `run_windowed` computes, one job at a time.
#[allow(clippy::too_many_arguments)]
fn replay_instance(
    svc: &Service,
    jobs: &[JobSpec],
    offsets: &[SimDuration],
    expected: &HashMap<JobId, HashMap<String, u64>>,
    rec: &Recorder,
    counts: &mut ReplayCounts,
    report: &mut RunReport,
    out: &mut ArmOutcome,
) {
    let cv = &svc.cv;
    let window = SharingConfig::default().window.micros();
    let base = cv.clock.now();
    let mut buckets: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, o) in offsets.iter().enumerate() {
        buckets.entry(o.micros() / window).or_default().push(i);
    }
    let tap = StoreTap::attach(cv);
    let mut by_index: Vec<Option<ReplayedJob>> = vec![None; jobs.len()];
    let t = Instant::now();
    for (k, idxs) in buckets {
        let submit = base + SimDuration::from_micros(window * (k + 1));
        for i in idxs {
            report.oracle.attempt();
            match replay_job(
                cv,
                &jobs[i],
                RunMode::CloudViews,
                submit,
                rec,
                tap.as_ref(),
                counts,
            ) {
                Ok(r) => {
                    out.samples.hits += u64::from(!r.views_reused.is_empty());
                    out.cv_cpu += r.cpu_time;
                    report
                        .oracle
                        .check(Some(&r.output_checksums) == expected.get(&r.job), || {
                            format!("job {}: replayed output differs from Baseline", r.job)
                        });
                    by_index[i] = Some(r);
                }
                Err(e) => report
                    .oracle
                    .fail(|| format!("replay of job {} failed: {e}", jobs[i].id)),
            }
        }
    }
    out.samples.add_busy(t.elapsed().as_secs_f64());
    out.replayed.extend(by_index.into_iter().flatten());
}

/// Runs instances on an arm until `stop`, with the nightly maintenance
/// after each, adding to `out`; returns how many instances it ran.
#[allow(clippy::too_many_arguments)]
fn run_arm(
    w: &RecurringWorkload,
    svc: &mut Service,
    arm: Arm,
    seed: u64,
    corrupt_one_checksum: bool,
    stop: Stop<'_>,
    rec: &Recorder,
    counts: &mut ReplayCounts,
    report: &mut RunReport,
    out: &mut ArmOutcome,
) -> u64 {
    out.keep_reports = arm.workers == 1 && !arm.sharing && !arm.replay;
    let mut ran = 0u64;
    while ran < stop.max_instances && !(ran > 0 && stop.deadline.is_some_and(Deadline::passed)) {
        let (jobs, offsets) = next_instance(w, svc, seed);
        out.job_hash.push(input_hash(&jobs, &offsets));
        let (mut expected, base_cpu) = reference_checksums(svc, &jobs);
        out.base_cpu += base_cpu;
        if corrupt_one_checksum && out.instances == 0 {
            // Test hook: the oracle must notice a wrong reference.
            corrupt_checksums(expected.get_mut(&jobs[0].id).expect("first job ran"));
        }
        out.samples.resync();
        if arm.replay {
            replay_instance(svc, &jobs, &offsets, &expected, rec, counts, report, out);
        } else {
            service_instance(svc, arm, &jobs, &offsets, &expected, report, out);
        }
        let m = maintenance(&svc.cv);
        out.samples.add_busy(m.total_s());
        out.maintenance.push(m);
        out.instances += 1;
        ran += 1;
    }
    out.samples.close_stretch();
    ran
}

/// The state recovery must reproduce.
#[derive(Debug, PartialEq)]
struct Fingerprints {
    metadata: Sig128,
    analyzer: Sig128,
    records: usize,
}

fn fingerprints(cv: &CloudViews) -> Fingerprints {
    Fingerprints {
        metadata: cv.metadata.fingerprint(),
        analyzer: cv
            .analyzer
            .as_ref()
            .expect("analyzer installed")
            .state()
            .fingerprint(),
        records: cv.repo.len(),
    }
}

/// Drops the service and cold-opens its durable root `opens` times;
/// returns each open's milliseconds after checking the fingerprints.
fn recover(svc: Service, opens: usize, report: &mut RunReport) -> Vec<f64> {
    let Service { cv, root, .. } = svc;
    let root = root.expect("recovery needs a durable arm");
    let expected = fingerprints(&cv);
    drop(cv);
    (0..opens)
        .map(|_| {
            let t = Instant::now();
            let reopened = open(Arc::new(StorageManager::new()), Some(&root));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let got = fingerprints(&reopened);
            report.oracle.check(got == expected, || {
                format!("recovered state differs: {got:?} vs {expected:?}")
            });
            ms
        })
        .collect()
}

/// `(snapshots taken, segment files)` under a durable root.
fn store_files(root: &TempRoot) -> (u64, u64) {
    let names = |dir: &str| -> Vec<String> {
        std::fs::read_dir(root.path().join(dir))
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default()
    };
    // A fresh log starts at `wal.1`; every snapshot rotates to the next.
    let generation = names("meta")
        .iter()
        .filter_map(|n| n.strip_prefix("wal.").and_then(|g| g.parse::<u64>().ok()))
        .max()
        .unwrap_or(1);
    let segments = ["repo", "views"]
        .iter()
        .flat_map(|d| names(d))
        .filter(|n| n.starts_with("seg."))
        .count() as u64;
    (generation.saturating_sub(1), segments)
}

/// Hash of one instance's generated inputs: the jobs and when they arrive.
fn input_hash(jobs: &[JobSpec], offsets: &[SimDuration]) -> Sig128 {
    let arrivals: Vec<u8> = offsets
        .iter()
        .flat_map(|o| o.micros().to_le_bytes())
        .collect();
    hash_of(&[job_list_hash(jobs), scope_common::hash::sip128(&arrivals)])
}

fn hash_of(hashes: &[Sig128]) -> Sig128 {
    let bytes: Vec<u8> = hashes
        .iter()
        .flat_map(|h| h.lo.to_le_bytes().into_iter().chain(h.hi.to_le_bytes()))
        .collect();
    scope_common::hash::sip128(&bytes)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> RunReport {
    let mut report = RunReport::default();
    let w = workload(cfg);
    report.note("templates", w.clusters[0].templates.len());
    report.note("workers", WORKERS);
    report.note("clients", "1 submitter, closed loop per instance");
    report.note("threads", WORKERS);
    let off = Recorder::new(false);
    let mut no_counts = ReplayCounts::default();

    if !cfg.trace {
        let (mut svc, setup_s) = timed_setups(cfg, || setup(&w, MEASURED, cfg.seed));
        let deadline = Deadline::after(cfg.seconds);
        let mut out = ArmOutcome::default();
        let mut cycles = 0u64;
        loop {
            run_arm(
                &w,
                &mut svc,
                MEASURED,
                cfg.seed,
                cfg.corrupt_one_checksum,
                Stop {
                    deadline: Some(&deadline),
                    max_instances: CYCLE_INSTANCES,
                },
                &off,
                &mut no_counts,
                &mut report,
                &mut out,
            );
            cycles += 1;
            // One cold open: recovered state must equal the pre-crash state.
            recover(svc, 1, &mut report);
            if deadline.passed() {
                break;
            }
            svc = setup(&w, MEASURED, cfg.seed);
        }
        report.note("cycles", cycles);
        report.note("instances", out.instances);
        report.note(
            "jobs_per_instance",
            out.samples.ops() / out.instances.max(1),
        );
        // The first instance's hash: the same for every run of a seed,
        // however many instances the run had time for.
        report.note("job_list_hash", out.job_hash[0]);
        report.note(
            "sim_cpu_saved_pct",
            format!("{:.3}", sim_cpu_saved_pct(out.base_cpu, out.cv_cpu)),
        );
        set_end_to_end(&mut report, &setup_s, &mut out.samples);
        return report;
    }

    // Traced run. Six arms over the same instances: the measured
    // configuration (how many instances fit decides the others' length),
    // then one switch flipped per arm, then the serial pair replay/service.
    let budget = Deadline::after(cfg.seconds / 7.0);
    let mut measured = setup(&w, MEASURED, cfg.seed);
    let mut a = ArmOutcome::default();
    let k = run_arm(
        &w,
        &mut measured,
        MEASURED,
        cfg.seed,
        false,
        Stop {
            deadline: Some(&budget),
            max_instances: CYCLE_INSTANCES,
        },
        &off,
        &mut no_counts,
        &mut report,
        &mut a,
    );
    report.note("instances_per_arm", k);
    report.note("job_list_hash", hash_of(&a.job_hash));
    let wall = |o: &ArmOutcome| o.samples.busy_s;
    let run_variant =
        |arm: Arm, rec: &Recorder, counts: &mut ReplayCounts, report: &mut RunReport| {
            let mut svc = setup(&w, arm, cfg.seed);
            let mut out = ArmOutcome::default();
            run_arm(
                &w,
                &mut svc,
                arm,
                cfg.seed,
                false,
                Stop {
                    deadline: None,
                    max_instances: k,
                },
                rec,
                counts,
                report,
                &mut out,
            );
            (svc, out)
        };
    let (_, no_sharing) = run_variant(
        Arm {
            sharing: false,
            ..MEASURED
        },
        &off,
        &mut no_counts,
        &mut report,
    );
    let (_, one_worker) = run_variant(
        Arm {
            workers: 1,
            ..MEASURED
        },
        &off,
        &mut no_counts,
        &mut report,
    );
    let (_, in_memory) = run_variant(
        Arm {
            durable: false,
            ..MEASURED
        },
        &off,
        &mut no_counts,
        &mut report,
    );
    let serial = Arm {
        sharing: false,
        workers: 1,
        ..MEASURED
    };
    let (serial_svc, serial_service) = run_variant(serial, &off, &mut no_counts, &mut report);
    let traced = Recorder::new(true);
    let mut counts = ReplayCounts::default();
    let (replay_svc, replayed) = run_variant(
        Arm {
            replay: true,
            ..serial
        },
        &traced,
        &mut counts,
        &mut report,
    );
    let (_, replayed_off) = run_variant(
        Arm {
            replay: true,
            ..serial
        },
        &off,
        &mut no_counts,
        &mut report,
    );

    for (name, o) in [
        ("measured", &a),
        ("no_sharing", &no_sharing),
        ("one_worker", &one_worker),
        ("in_memory", &in_memory),
        ("serial_service", &serial_service),
        ("replay_traced", &replayed),
        ("replay_untraced", &replayed_off),
    ] {
        report.note(&format!("arm_wall_s {name}"), format!("{:.4}", wall(o)));
    }

    // Replay fidelity against the serial service arm, job for job.
    let by_job: HashMap<JobId, &JobRunReport> =
        serial_service.reports.iter().map(|r| (r.job, r)).collect();
    for r in &replayed.replayed {
        let divergence = match by_job.get(&r.job) {
            Some(expected) => r.divergence(expected),
            None => Some("job missing from the service arm".into()),
        };
        report.oracle.check(divergence.is_none(), || {
            format!(
                "replay fidelity, job {}: {}",
                r.job,
                divergence.unwrap_or_default()
            )
        });
    }

    let spans: Vec<Span> = traced.into_spans();
    let meta = MetaCounts::of(&replay_svc.cv.metadata.stats());
    let t = set_layer_metrics(&mut report, &spans, &counts, &meta);
    set_template_hit_rate(&mut report, &replay_svc.cv.templates.stats());
    report.set(
        "reuse.sim_cpu_saved_pct",
        sim_cpu_saved_pct(a.base_cpu, a.cv_cpu),
    );
    set_tail(&mut report, &mut a.samples);

    // Maintenance, from the measured arm.
    let rounds: Vec<f64> = a.maintenance.iter().map(|m| m.round_s * 1e3).collect();
    report.set("analyzer.round_ms_p50", median(&rounds));
    let purges: Vec<f64> = a.maintenance.iter().map(|m| m.purge_s * 1e3).collect();
    report.set("meta.purge_ms_per_round", median(&purges));

    // Switches, each against the measured arm over the same instances.
    report.set("sharing.overhead_frac", wall(&a) / wall(&no_sharing) - 1.0);
    let followers = a.sharing.follower_reuses + a.sharing.follower_fallbacks;
    report.set(
        "sharing.follower_reuse_ratio",
        a.sharing.follower_reuses as f64 / followers.max(1) as f64,
    );
    report.set(
        "sharing.shared_subgraphs_per_window",
        a.sharing.shared_subgraphs as f64 / a.sharing.windows.max(1) as f64,
    );
    report.set("pipeline.parallel_speedup", wall(&one_worker) / wall(&a));
    let counters = measured.cv.telemetry.metrics.snapshot();
    report.set(
        "pipeline.steals",
        counters.counter("cv_pipeline_steals_total") as f64,
    );
    report.set(
        "pipeline.admission_waits",
        counters.counter("cv_pipeline_admission_waits_total") as f64,
    );
    report.set(
        "store.durable_overhead_frac",
        wall(&a) / wall(&in_memory) - 1.0,
    );

    // Store: per-call numbers from the tapped replay, files from the
    // measured arm's root.
    let appends = durations_us(&spans, "store.append");
    report.set("store.append_us_p50", loose_percentile(&appends, 50.0));
    report.set("store.append_us_p99", loose_percentile(&appends, 99.0));
    report.set(
        "store.record_job_us_p50",
        loose_percentile(&durations_us(&spans, "store.record_job"), 50.0),
    );
    let snapshot_ms = sorted(
        durations_us(&spans, "store.snapshot")
            .into_iter()
            .map(|us| us / 1e3)
            .filter(|ms| *ms > 1.0)
            .collect(),
    );
    report.set(
        "store.snapshot_ms_p50",
        loose_percentile(&snapshot_ms, 50.0),
    );
    let root = measured.root.as_ref().expect("measured arm is durable");
    let (snapshots, segments) = store_files(root);
    report.set("store.snapshots", snapshots as f64);
    report.set("store.segments", segments as f64);
    let jobs = a.samples.ops().max(1) as f64;
    report.set(
        "store.disk_bytes_per_op",
        dir_usage(root.path()).0 as f64 / jobs,
    );
    if let Some(replay_root) = replay_svc.root.as_ref() {
        let wal = dir_usage(&replay_root.path().join("meta")).0;
        report.set(
            "store.wal_bytes_per_job",
            wal as f64 / counts.jobs.max(1) as f64,
        );
    }
    let recovery = recover(measured, RECOVERY_OPENS, &mut report);
    report.set("store.recovery_ms", median(&recovery));

    // Bookkeeping.
    let ratio = wall(&replayed) / wall(&serial_service);
    report.set("trace.replay_vs_service_ratio", ratio);
    report.set(
        "trace.overhead_frac",
        wall(&replayed) / wall(&replayed_off) - 1.0,
    );
    design_check(&mut report, cfg, "exec.share", t.share("exec"), 0.0, 0.3);
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
    drop((serial_svc, replay_svc));
    write_trace_file(&mut report, "recurring_windowed", &spans);
    report
}
