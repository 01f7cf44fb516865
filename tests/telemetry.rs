//! Observability-layer integration suite (DESIGN.md §8).
//!
//! Four groups, matching the acceptance criteria of the observability PR:
//!
//! 1. counter/histogram correctness under 12-way concurrent jobs;
//! 2. span-tree shape for reuse-hit, build, and baseline-fallback jobs;
//! 3. Prometheus / JSON export round-trips;
//! 4. telemetry numbers agree with `JobRunReport` / `JobFaultReport` under
//!    a scripted fault plan.

use std::sync::Arc;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::runtime::{op_wall_counter, JobRunReport};
use cloudviews::{CloudViews, FaultPlan, FaultSite, RunMode, ScriptedFault};
use scope_common::ids::JobId;
use scope_common::telemetry::{json, MetricsSnapshot, SpanRecord};
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_plan::OpKind;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

fn workload(seed: u64) -> RecurringWorkload {
    RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![ClusterSpec::tiny("tel")],
        seed,
        stream_rows: LogNormal::new(6.0, 0.5, 150.0, 1_500.0),
    })
    .unwrap()
}

fn analyzer_cfg() -> AnalyzerConfig {
    AnalyzerConfig {
        policy: SelectionPolicy::TopKUtility { k: 5 },
        constraints: SelectionConstraints {
            per_job_cap: Some(1),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A service primed with one analyzed baseline instance, plus the jobs of
/// the next instance (ready to run with CloudViews enabled).
fn primed_service(seed: u64) -> (CloudViews, Vec<JobSpec>) {
    let w = workload(seed);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
    cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
        .unwrap();
    let analysis = cv.analyze(&analyzer_cfg()).unwrap();
    assert!(!analysis.selected.is_empty(), "fixture must select views");
    cv.install_analysis(&analysis);
    w.register_instance_data(0, 1, &cv.storage, 1.0).unwrap();
    let day1 = w.jobs_for_instance(0, 1).unwrap();
    (cv, day1)
}

/// Splits one job's spans into its root ("job") span and its children.
fn span_tree(cv: &CloudViews, job: JobId) -> (SpanRecord, Vec<SpanRecord>) {
    let spans = cv.telemetry.tracer.spans_for_job(job);
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "job {job}: expected exactly one root span");
    let root = roots[0].clone();
    assert_eq!(root.name, "job");
    let children: Vec<_> = spans
        .iter()
        .filter(|s| s.parent == Some(root.id))
        .cloned()
        .collect();
    (root, children)
}

/// Asserts one attempt's child spans: the five per-job phases, each nested
/// inside the root's simulated interval, in pipeline order.
fn assert_phase_children(root: &SpanRecord, children: &[SpanRecord]) {
    let names: Vec<&str> = children.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "metadata_lookup",
            "optimize",
            "execute",
            "publish",
            "record"
        ],
        "job {:?}",
        root.job
    );
    assert!(children.len() >= 4, "acceptance: >=4 child phases");
    for c in children {
        assert_eq!(c.job, root.job, "child span lost its job attribution");
        assert!(
            c.sim_start >= root.sim_start,
            "{} starts before root",
            c.name
        );
        assert!(c.sim_end <= root.sim_end, "{} ends after root", c.name);
        assert!(c.sim_start <= c.sim_end, "{} runs backwards", c.name);
    }
    for pair in children.windows(2) {
        assert!(
            pair[1].sim_start >= pair[0].sim_start,
            "{} begins before {}",
            pair[1].name,
            pair[0].name
        );
    }
}

// ---------------------------------------------------------------------------
// Group 1: counter/histogram correctness under 12-way concurrency.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_jobs_count_exactly() {
    let (cv, day1) = primed_service(101);
    // Twelve simultaneous submissions: recycle the instance's specs under
    // fresh job ids so every thread is a distinct job.
    let specs: Vec<JobSpec> = (0..12)
        .map(|i| {
            let mut spec = day1[i % day1.len()].clone();
            spec.id = JobId::new(9_000 + i as u64);
            spec
        })
        .collect();
    let ids: Vec<JobId> = specs.iter().map(|s| s.id).collect();

    let before = cv.telemetry.metrics.snapshot();
    cv.telemetry.tracer.clear();
    let options = cloudviews::PipelineOptions {
        workers: specs.len(),
        ..Default::default()
    };
    let results = cv.run_many(specs, RunMode::CloudViews, options);
    let reports: Vec<JobRunReport> = results.into_iter().map(|r| r.unwrap()).collect();
    let after = cv.telemetry.metrics.snapshot();

    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("cv_jobs_total"), 12);
    assert_eq!(delta("cv_jobs_failed_total"), 0);
    assert_eq!(delta("cv_jobs_baseline_fallback_total"), 0);
    let built: u64 = reports.iter().map(|r| r.views_built.len() as u64).sum();
    let reused: u64 = reports.iter().map(|r| r.views_reused.len() as u64).sum();
    assert!(built + reused > 0, "fixture produced no reuse activity");
    assert_eq!(delta("cv_views_built_total"), built);
    assert_eq!(delta("cv_views_reused_total"), reused);
    assert_eq!(
        delta("cv_jobs_reuse_hit_total"),
        reports
            .iter()
            .filter(|r| !r.views_reused.is_empty())
            .count() as u64
    );
    assert_eq!(
        delta("cv_jobs_build_total"),
        reports.iter().filter(|r| !r.views_built.is_empty()).count() as u64
    );

    // The latency histogram saw exactly these twelve observations, and its
    // sum is the exact sum of the reported latencies (no sampling).
    let h_before = before.histogram("cv_job_latency_sim_micros");
    let h_after = after.histogram("cv_job_latency_sim_micros").unwrap();
    let (count0, sum0) = h_before.map(|h| (h.count, h.sum)).unwrap_or((0, 0));
    assert_eq!(h_after.count - count0, 12);
    let latency_sum: u64 = reports.iter().map(|r| r.latency.micros()).sum();
    assert_eq!(h_after.sum - sum0, latency_sum);

    // Every concurrent job produced a complete span tree.
    for id in ids {
        let (root, children) = span_tree(&cv, id);
        assert_phase_children(&root, &children);
        assert!(root.outcome.is_some(), "root span must carry an outcome");
    }
    assert_eq!(cv.telemetry.tracer.dropped(), 0, "ring buffer overflowed");
}

// ---------------------------------------------------------------------------
// Group 2: span-tree shape per job outcome.
// ---------------------------------------------------------------------------

#[test]
fn span_tree_shapes_for_reuse_build_and_fallback() {
    let (cv, day1) = primed_service(211);
    cv.telemetry.tracer.clear();
    let reports = cv.run_sequence(&day1, RunMode::CloudViews).unwrap();

    // A pure builder (built, reused nothing) and a reuse hit both exist in
    // a primed recurring instance.
    let builder = reports
        .iter()
        .find(|r| !r.views_built.is_empty() && r.views_reused.is_empty())
        .expect("fixture must contain a pure build job");
    let (root, children) = span_tree(&cv, builder.job);
    assert_phase_children(&root, &children);
    assert_eq!(root.outcome, Some("build"));
    assert_eq!(
        root.sim_end - root.sim_start,
        builder.latency,
        "root span must cover exactly the job's reported latency"
    );

    let reuser = reports
        .iter()
        .find(|r| !r.views_reused.is_empty())
        .expect("fixture must contain a reuse hit");
    let (root, children) = span_tree(&cv, reuser.job);
    assert_phase_children(&root, &children);
    assert_eq!(root.outcome, Some("reuse"));
    let optimize = children.iter().find(|c| c.name == "optimize").unwrap();
    assert_eq!(optimize.outcome, Some("reuse"));

    // A plain baseline-mode run is labeled "baseline" and still gets the
    // full five-phase tree (lookup is trivially zero-width).
    cv.telemetry.tracer.clear();
    let report = cv
        .run_job_at(&day1[0], RunMode::Baseline, cv.clock.now())
        .unwrap();
    let (root, children) = span_tree(&cv, report.job);
    assert_phase_children(&root, &children);
    assert_eq!(root.outcome, Some("baseline"));

    // Baseline fallback: every lookup call of one job fails, retries
    // exhaust, and the root span says so.
    let (mut cv, day1) = primed_service(223);
    let victim = day1[0].id;
    let scripted = (0..=cv.degradation.lookup_retries as u64)
        .map(|call_index| ScriptedFault {
            site: FaultSite::MetadataLookup,
            job: Some(victim),
            call_index,
        })
        .collect();
    cv.install_fault_plan(FaultPlan {
        scripted,
        ..Default::default()
    });
    cv.telemetry.tracer.clear();
    let report = cv
        .run_job_at(&day1[0], RunMode::CloudViews, cv.clock.now())
        .unwrap();
    assert!(report.faults.fell_back_to_baseline);
    let (root, children) = span_tree(&cv, victim);
    assert_phase_children(&root, &children);
    assert_eq!(root.outcome, Some("baseline_fallback"));
    let lookup = children
        .iter()
        .find(|c| c.name == "metadata_lookup")
        .unwrap();
    assert!(
        lookup.sim_end > lookup.sim_start,
        "failed lookups still pay modeled latency"
    );
}

// ---------------------------------------------------------------------------
// Group 3: export round-trips.
// ---------------------------------------------------------------------------

#[test]
fn prometheus_export_is_well_formed() {
    let (cv, day1) = primed_service(307);
    cv.run_sequence(&day1, RunMode::CloudViews).unwrap();
    let text = cv.telemetry.metrics.prometheus_text();

    for series in [
        "# TYPE cv_jobs_total counter",
        "# TYPE cv_metadata_lookups_total counter",
        "# TYPE cv_storage_views gauge",
        "# TYPE cv_job_latency_sim_micros histogram",
        "# TYPE cv_exec_rows_in_total counter",
        "# TYPE cv_exec_wall_nanos_total counter",
        "# TYPE cv_exec_cells_gathered_total counter",
        "# TYPE cv_exec_copy_wall_nanos_total counter",
        "# TYPE cv_exec_build_wall_nanos_total counter",
        "# TYPE cv_exec_gather_columns_total counter",
        "# TYPE cv_exec_exchange_memo_hits_total counter",
        "# TYPE cv_exec_coded_key_rows_total counter",
    ] {
        assert!(text.contains(series), "missing {series:?}");
    }
    // The executor's series: rows went into operators and cells were copied.
    let snap = cv.telemetry.metrics.snapshot();
    assert!(snap.counter("cv_exec_rows_in_total") > 0);
    assert!(snap.counter("cv_exec_cells_gathered_total") > 0);
    // Gathers built columns and copied cells, and timing each took some of
    // the kernels' wall, which Execute's whole wall holds.
    assert!(snap.counter("cv_exec_gather_columns_total") > 0);
    assert!(snap.counter("cv_exec_build_wall_nanos_total") > 0);
    assert!(snap.counter("cv_exec_copy_wall_nanos_total") > 0);
    assert!(snap.counter("cv_exec_wall_nanos_total") > 0);
    // Jobs of one instance scan the same streams: a later job takes the
    // hash exchange an earlier one built.
    assert!(snap.counter("cv_exec_exchange_memo_hits_total") > 0);
    // Kernel wall time per operator kind: every kind exports a series, and
    // the kinds the jobs ran add up to a positive total.
    let mut op_wall = 0;
    for kind in OpKind::ALL {
        let name = op_wall_counter(kind);
        assert!(
            text.contains(&format!("# TYPE {name} counter")),
            "missing {name:?}"
        );
        op_wall += snap.counter(&name);
    }
    assert!(snap.counter(&op_wall_counter(OpKind::TableScan)) > 0);
    assert!(op_wall > 0);
    // Histogram exposition: cumulative buckets, +Inf bound, sum and count.
    assert!(text.contains("cv_job_latency_sim_micros_bucket{le=\""));
    assert!(text.contains("cv_job_latency_sim_micros_bucket{le=\"+Inf\"}"));
    assert!(text.contains("cv_job_latency_sim_micros_sum "));
    assert!(text.contains("cv_job_latency_sim_micros_count "));
    // Every non-comment line is `name[{labels}] value`.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("line has a value");
        assert!(!name.is_empty());
        assert!(value.parse::<i64>().is_ok(), "bad value in {line:?}");
    }
}

#[test]
fn json_snapshot_round_trips() {
    let (cv, day1) = primed_service(311);
    cv.run_sequence(&day1, RunMode::CloudViews).unwrap();
    let snap = cv.telemetry.metrics.snapshot();
    assert!(snap.counter("cv_jobs_total") > 0);

    let encoded = snap.to_json();
    let back = MetricsSnapshot::from_json(&encoded).expect("parse our own export");
    assert_eq!(back, snap, "snapshot → JSON → snapshot must be lossless");
    // Stability: re-encoding the parsed snapshot is byte-identical.
    assert_eq!(back.to_json(), encoded);
}

#[test]
fn tracer_json_round_trips() {
    let (cv, day1) = primed_service(313);
    cv.telemetry.tracer.clear();
    cv.run_sequence(&day1[..2], RunMode::CloudViews).unwrap();

    let finished = cv.telemetry.tracer.finished();
    let parsed = json::parse(&cv.telemetry.tracer.json()).expect("tracer JSON parses");
    let arr = parsed.as_array().expect("top level is an array");
    assert_eq!(arr.len(), finished.len());
    for (value, record) in arr.iter().zip(&finished) {
        let obj = value.as_object().unwrap();
        assert_eq!(obj.get("id").unwrap().as_u64(), Some(record.id));
        assert_eq!(
            obj.get("name").unwrap().as_str(),
            Some(record.name),
            "span {}",
            record.id
        );
        assert_eq!(
            obj.get("sim_start_us").unwrap().as_u64(),
            Some(record.sim_start.micros())
        );
        assert_eq!(
            obj.get("sim_end_us").unwrap().as_u64(),
            Some(record.sim_end.micros())
        );
        match record.parent {
            Some(p) => assert_eq!(obj.get("parent").unwrap().as_u64(), Some(p)),
            None => assert!(obj.get("parent").unwrap().as_u64().is_none()),
        }
    }
}

// ---------------------------------------------------------------------------
// Group 4: telemetry agrees with JobRunReport/JobFaultReport under faults.
// ---------------------------------------------------------------------------

#[test]
fn counters_match_reports_under_scripted_faults() {
    let (mut cv, day1) = primed_service(401);
    let retries = cv.degradation.lookup_retries as u64;
    // Job A: one transient lookup fault (retry succeeds). Job B: every
    // lookup call fails (fallback). Every job: its first builder-crash
    // check fires once (builders restart exactly once).
    let mut scripted = vec![ScriptedFault {
        site: FaultSite::MetadataLookup,
        job: Some(day1[0].id),
        call_index: 0,
    }];
    scripted.extend((0..=retries).map(|call_index| ScriptedFault {
        site: FaultSite::MetadataLookup,
        job: Some(day1[1].id),
        call_index,
    }));
    scripted.push(ScriptedFault {
        site: FaultSite::BuilderCrash,
        job: None,
        call_index: 0,
    });
    let injector = cv.install_fault_plan(FaultPlan {
        scripted,
        ..Default::default()
    });

    let before = cv.telemetry.metrics.snapshot();
    let reports = cv.run_sequence(&day1, RunMode::CloudViews).unwrap();
    let after = cv.telemetry.metrics.snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);

    // Outcome counters are defined by the same predicates as the reports.
    assert_eq!(delta("cv_jobs_total"), reports.len() as u64);
    assert_eq!(delta("cv_jobs_failed_total"), 0);
    assert_eq!(
        delta("cv_jobs_reuse_hit_total"),
        reports
            .iter()
            .filter(|r| !r.views_reused.is_empty())
            .count() as u64
    );
    assert_eq!(
        delta("cv_jobs_build_total"),
        reports.iter().filter(|r| !r.views_built.is_empty()).count() as u64
    );
    assert_eq!(
        delta("cv_jobs_baseline_fallback_total"),
        reports
            .iter()
            .filter(|r| r.faults.fell_back_to_baseline)
            .count() as u64
    );
    assert_eq!(
        delta("cv_views_built_total"),
        reports
            .iter()
            .map(|r| r.views_built.len() as u64)
            .sum::<u64>()
    );

    // Restarts: one per builder crash, and the fixture did crash builders.
    let crashes: u64 = reports.iter().map(|r| r.faults.builder_crashes).sum();
    assert!(crashes > 0, "fixture must crash at least one builder");
    assert_eq!(delta("cv_jobs_restarts_total"), crashes);

    // The metadata service's own fault counter, the per-job ledgers, and
    // the injector all agree: 1 (job A) + retries+1 (job B).
    let lookup_faults: u64 = reports.iter().map(|r| r.faults.lookup_faults).sum();
    assert_eq!(lookup_faults, 1 + retries + 1);
    assert_eq!(delta("cv_metadata_lookup_faults_total"), lookup_faults);
    assert_eq!(injector.injected().lookup_failures, lookup_faults);
    assert_eq!(injector.injected().builder_crashes, crashes);

    // Job B fell back; job A recovered on retry.
    let by_id = |id: JobId| reports.iter().find(|r| r.job == id).unwrap();
    assert!(!by_id(day1[0].id).faults.fell_back_to_baseline);
    assert!(by_id(day1[1].id).faults.fell_back_to_baseline);
}

/// Builds a CloudViews service over one registered workload instance with
/// a scripted lookup-fault plan but *no installed analysis*: every job
/// makes its metadata lookup (which can fault) yet receives no
/// annotations, so per-job behavior is independent of scheduling.
fn faulted_service_no_annotations(seed: u64) -> (CloudViews, Vec<JobSpec>) {
    let w = workload(seed);
    let mut cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
    let jobs = w.jobs_for_instance(0, 0).unwrap();
    let retries = cv.degradation.lookup_retries as u64;
    // Job 0: one transient lookup fault (retry recovers). Job 1: every
    // lookup call fails (retries exhaust, baseline fallback).
    let mut scripted = vec![ScriptedFault {
        site: FaultSite::MetadataLookup,
        job: Some(jobs[0].id),
        call_index: 0,
    }];
    scripted.extend((0..=retries).map(|call_index| ScriptedFault {
        site: FaultSite::MetadataLookup,
        job: Some(jobs[1].id),
        call_index,
    }));
    cv.install_fault_plan(FaultPlan {
        scripted,
        ..Default::default()
    });
    (cv, jobs)
}

/// The staged pipeline's scheduling must be invisible in the results: the
/// same workload under the same scripted fault plan produces identical
/// per-job reports and identical aggregate telemetry whether jobs run on
/// one worker or on a stealing pool with a tight admission bound.
#[test]
fn run_many_aggregates_match_serial_under_scripted_faults() {
    use cloudviews::PipelineOptions;

    let (serial_cv, jobs) = faulted_service_no_annotations(419);
    let serial = serial_cv.run_many(
        jobs.clone(),
        RunMode::CloudViews,
        PipelineOptions {
            workers: 1,
            max_in_flight: 1,
            janitor: false,
        },
    );

    let (pool_cv, jobs_again) = faulted_service_no_annotations(419);
    let pooled = pool_cv.run_many(
        jobs_again,
        RunMode::CloudViews,
        PipelineOptions {
            workers: 4,
            max_in_flight: 2,
            janitor: false,
        },
    );

    // Job-by-job equality of everything the service reports.
    assert_eq!(serial.len(), pooled.len());
    for (s, p) in serial.iter().zip(&pooled) {
        let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
        assert_eq!(s.job, p.job);
        assert_eq!(s.latency, p.latency, "job {}", s.job);
        assert_eq!(s.lookup_latency, p.lookup_latency, "job {}", s.job);
        assert_eq!(s.cpu_time, p.cpu_time, "job {}", s.job);
        assert_eq!(s.output_checksums, p.output_checksums, "job {}", s.job);
        assert_eq!(s.faults, p.faults, "job {}", s.job);
    }
    // The scripted faults actually fired, identically on both sides.
    let fell_back: Vec<_> = serial
        .iter()
        .map(|r| r.as_ref().unwrap().faults.fell_back_to_baseline)
        .collect();
    assert!(fell_back.iter().any(|&f| f), "fixture must exercise faults");

    // Aggregate telemetry is identical: counters and the exact latency
    // histogram (count and sum) agree across schedulers.
    let a = serial_cv.telemetry.metrics.snapshot();
    let b = pool_cv.telemetry.metrics.snapshot();
    for counter in [
        "cv_jobs_total",
        "cv_jobs_failed_total",
        "cv_jobs_baseline_fallback_total",
        "cv_jobs_reuse_hit_total",
        "cv_jobs_build_total",
        "cv_metadata_lookup_faults_total",
    ] {
        assert_eq!(a.counter(counter), b.counter(counter), "{counter}");
    }
    // Hit/miss split may differ when concurrent first compiles race, but
    // every job compiles exactly once either way.
    let compiles = |s: &MetricsSnapshot| {
        s.counter("cv_template_cache_hits_total") + s.counter("cv_template_cache_misses_total")
    };
    assert_eq!(compiles(&a), serial.len() as u64);
    assert_eq!(compiles(&a), compiles(&b), "template compiles");
    let ha = a.histogram("cv_job_latency_sim_micros").unwrap();
    let hb = b.histogram("cv_job_latency_sim_micros").unwrap();
    assert_eq!((ha.count, ha.sum), (hb.count, hb.sum), "latency histogram");
}
