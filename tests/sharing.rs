//! In-flight work sharing suite (DESIGN.md §15).
//!
//! Drives [`CloudViews::run_windowed`] end to end: jobs admitted in one
//! window share exactly one producer per common subgraph, followers reuse
//! its early-materialized output, and — the correctness bar — every output
//! stays byte-identical to an uncoordinated serial run, in submission
//! order, under both publication disciplines and with sharing disabled.

use std::sync::Arc;

use cloudviews::{CloudViews, JobArrival, PipelineOptions, RunMode, SharingConfig, WindowOutcome};
use scope_common::ids::{ClusterId, DatasetId, JobId, TemplateId, UserId, VcId};
use scope_common::time::{SimDuration, SimTime};
use scope_engine::data::Table;
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, Schema, Value};

const SHARED_STREAM: u64 = 7_001;

fn kv_schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
}

/// A deterministic 2 000-row stream: big enough that recomputing the shared
/// aggregation dominates reading back its (10-group) view.
fn seed_shared_stream(cv: &CloudViews) {
    let rows: Vec<Vec<Value>> = (0..2_000)
        .map(|i| vec![Value::Int(i % 10), Value::Int((i * 37) % 1_000)])
        .collect();
    cv.storage.put_dataset(
        DatasetId::new(SHARED_STREAM),
        Table::single(kv_schema(), rows),
    );
}

fn spec(id: u64, graph: scope_plan::QueryGraph) -> JobSpec {
    JobSpec {
        id: JobId::new(id),
        cluster: ClusterId::new(1),
        vc: VcId::new(1),
        user: UserId::new(1),
        template: TemplateId::new(id),
        instance: 0,
        graph,
    }
}

/// scan → filter → aggregate over the shared stream; byte-identical across
/// jobs, so the window coordinator sees one precise-equal subgraph.
fn shared_job(id: u64, out: &str) -> JobSpec {
    let mut b = PlanBuilder::new();
    let s = b.table_scan(DatasetId::new(SHARED_STREAM), "shared/x.ss", kv_schema());
    let f = b.filter(s, Expr::col(1).ge(Expr::lit(5i64)));
    let a = b.aggregate(f, vec![0], vec![AggExpr::new("n", AggFunc::Count, 1)]);
    spec(id, b.output(a, out).build().unwrap())
}

/// A job with no overlap with the shared wave.
fn distinct_job(id: u64) -> JobSpec {
    let mut b = PlanBuilder::new();
    let s = b.table_scan(DatasetId::new(SHARED_STREAM), "shared/x.ss", kv_schema());
    let f = b.filter(s, Expr::col(1).ge(Expr::lit(900 + id as i64)));
    spec(id, b.output(f, format!("solo-{id}")).build().unwrap())
}

fn wave() -> Vec<JobSpec> {
    vec![
        shared_job(1, "a"),
        shared_job(2, "b"),
        shared_job(3, "c"),
        distinct_job(4),
    ]
}

fn options(workers: usize) -> PipelineOptions {
    PipelineOptions {
        workers,
        max_in_flight: 0,
        janitor: false,
    }
}

/// Fault-free serial ground truth for a set of jobs, on its own service.
fn baseline_checksums(specs: &[JobSpec]) -> Vec<std::collections::HashMap<String, u64>> {
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    seed_shared_stream(&cv);
    cv.run_sequence(specs, RunMode::Baseline)
        .unwrap()
        .into_iter()
        .map(|r| r.output_checksums)
        .collect()
}

fn run_wave(cv: &CloudViews, specs: &[JobSpec], cfg: &SharingConfig) -> WindowOutcome {
    let arrivals = specs
        .iter()
        .cloned()
        .map(|spec| JobArrival {
            spec,
            offset: SimDuration::ZERO,
        })
        .collect();
    cv.run_windowed(arrivals, RunMode::CloudViews, options(3), cfg)
}

#[test]
fn windowed_sharing_matches_serial_outputs_and_reuses() {
    let specs = wave();
    let baseline = baseline_checksums(&specs);

    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    seed_shared_stream(&cv);
    let out = run_wave(&cv, &specs, &SharingConfig::default());

    // Results come back in input order, byte-identical to the serial run.
    assert_eq!(out.reports.len(), specs.len());
    for ((i, r), want) in out.reports.iter().enumerate().zip(&baseline) {
        let r = r.as_ref().unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        assert_eq!(r.job, specs[i].id, "submission order broken at {i}");
        assert_eq!(&r.output_checksums, want, "job {i} output diverged");
    }

    // Coordination happened: one window, one shared subgraph, the earliest
    // shared job produced, the other two reused.
    let s = &out.sharing;
    assert_eq!(s.windows, 1);
    assert_eq!(s.jobs, specs.len());
    assert_eq!(s.shared_subgraphs, 1);
    assert!(
        s.shared_nodes >= 3,
        "maximal subgraph spans scan+filter+agg"
    );
    assert_eq!(s.published, 1);
    assert_eq!(s.aborted, 0);
    assert_eq!(s.follower_reuses, 2);
    assert_eq!(s.follower_fallbacks, 0);

    // Exactly one producer built the shared view; the followers reused it.
    let reports: Vec<_> = out.reports.iter().map(|r| r.as_ref().unwrap()).collect();
    let built: Vec<_> = reports
        .iter()
        .flat_map(|r| r.views_built.iter().copied())
        .collect();
    assert_eq!(built.len(), 1, "exactly one producer per shared subgraph");
    assert_eq!(
        reports[0].views_built, built,
        "earliest job is the producer"
    );
    assert!(reports[1].views_reused.contains(&built[0]));
    assert!(reports[2].views_reused.contains(&built[0]));
    assert!(reports[3].views_reused.is_empty(), "distinct job untouched");

    // A follower's wait for its producer is charged to its trace once: no
    // step's span ends after the job's own.
    for follower in &reports[1..3] {
        let spans = cv.telemetry.tracer.spans_for_job(follower.job);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.sim_end - root.sim_start, follower.latency);
        for s in &spans {
            assert!(s.sim_end <= root.sim_end, "{} ends after its job", s.name);
        }
    }
}

#[test]
fn windowed_sharing_beats_views_only_cluster_hours() {
    let specs = wave();

    let shared = {
        let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
        seed_shared_stream(&cv);
        run_wave(&cv, &specs, &SharingConfig::default())
    };
    let views_only = {
        let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
        seed_shared_stream(&cv);
        let cfg = SharingConfig {
            enabled: false,
            ..SharingConfig::default()
        };
        run_wave(&cv, &specs, &cfg)
    };

    // The views-only baseline coordinates nothing (same windows, same
    // pinned submission times) and so recomputes the aggregation thrice.
    assert_eq!(views_only.sharing.windows, 0);
    assert_eq!(views_only.sharing.follower_reuses, 0);
    assert!(shared.sharing.follower_reuses > views_only.sharing.follower_reuses);

    let cpu = |o: &WindowOutcome| -> SimDuration {
        o.reports.iter().map(|r| r.as_ref().unwrap().cpu_time).sum()
    };
    let (with, without) = (cpu(&shared), cpu(&views_only));
    assert!(
        with < without,
        "sharing must lower total cluster CPU: {with:?} vs {without:?}"
    );
}

/// ISSUE 9 satellite 2 — every job in one admission window runs at a single
/// pinned submission time (the window's close), coordinated or not.
#[test]
fn window_jobs_share_one_pinned_submission_time() {
    for enabled in [true, false] {
        let specs = wave();
        let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
        seed_shared_stream(&cv);
        let cfg = SharingConfig {
            enabled,
            window: SimDuration::from_secs(30),
        };
        let offsets = [0u64, 5, 29, 35];
        let arrivals = specs
            .iter()
            .cloned()
            .zip(offsets)
            .map(|(spec, secs)| JobArrival {
                spec,
                offset: SimDuration::from_secs(secs),
            })
            .collect();
        let out = cv.run_windowed(arrivals, RunMode::CloudViews, options(2), &cfg);
        let starts: Vec<_> = out
            .reports
            .iter()
            .map(|r| r.as_ref().unwrap().started_at)
            .collect();
        assert_eq!(starts[0], starts[1], "same window, same pinned time");
        assert_eq!(starts[0], starts[2], "same window, same pinned time");
        assert_eq!(
            starts[3],
            starts[0] + SimDuration::from_secs(30),
            "next window closes one window later"
        );
    }
}

/// ISSUE 9 satellite 3 — with `early_materialization = false` the producer
/// publishes at job end; followers pay a longer simulated wait but the
/// window still resolves publish-or-abort, with no deadlock and no timeout.
#[test]
fn job_end_publication_shares_without_deadlock() {
    let specs = wave();
    let baseline = baseline_checksums(&specs);

    let run = |early: bool| {
        let cv = CloudViews::builder(Arc::new(StorageManager::new()))
            .early_materialization(early)
            .build();
        seed_shared_stream(&cv);
        run_wave(&cv, &specs, &SharingConfig::default())
    };
    let early = run(true);
    let late = run(false);

    for (label, out) in [("early", &early), ("job-end", &late)] {
        for (r, want) in out.reports.iter().zip(&baseline) {
            let r = r.as_ref().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(&r.output_checksums, want, "{label}: output diverged");
        }
        assert_eq!(out.sharing.published, 1, "{label}: producer published");
        assert_eq!(out.sharing.follower_reuses, 2, "{label}: followers reused");
    }

    // Job-end publication can only push availability later, never earlier.
    assert!(
        late.sharing.wait_p99() >= early.sharing.wait_p99(),
        "job-end wait {:?} must be >= early wait {:?}",
        late.sharing.wait_p99(),
        early.sharing.wait_p99()
    );
}

#[test]
fn dashboard_reports_sharing_after_windowed_run() {
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    seed_shared_stream(&cv);
    let before = cloudviews::admin::telemetry_dashboard(&cv);
    assert!(
        !before.contains("sharing:"),
        "no sharing section before any coordinated window"
    );
    run_wave(&cv, &wave(), &SharingConfig::default());
    let after = cloudviews::admin::telemetry_dashboard(&cv);
    assert!(after.contains("sharing: windows=1"), "got:\n{after}");
    assert!(
        after.contains("sharing followers: reuses=2"),
        "got:\n{after}"
    );
}

/// A sharing window compiles its jobs to plan them, and each job's attempts
/// reuse that compile: one template compile per job, whether the window
/// finds a shared subgraph or plans nothing, and one hit-or-miss count.
#[test]
fn windowed_batch_compiles_each_job_once() {
    let unshared = vec![distinct_job(4), distinct_job(5)];
    for specs in [wave(), unshared] {
        let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
        seed_shared_stream(&cv);
        let out = run_wave(&cv, &specs, &SharingConfig::default());
        assert!(out.reports.iter().all(Result::is_ok));
        let compiles = cv.templates.stats();
        assert_eq!(compiles.hits + compiles.misses, specs.len() as u64);
        let snap = cv.telemetry.metrics.snapshot();
        let counted = snap.counter("cv_template_cache_hits_total")
            + snap.counter("cv_template_cache_misses_total");
        assert_eq!(counted, specs.len() as u64);
    }
}

/// A three-job chain in one window: slot 0 produces `shared_job`'s
/// aggregate A; slot 1 follows A and produces C, a second subgraph disjoint
/// from A; slot 2 follows C.
fn chain() -> Vec<JobSpec> {
    let counted = |b: &mut PlanBuilder| {
        let s = b.table_scan(DatasetId::new(SHARED_STREAM), "shared/x.ss", kv_schema());
        let f = b.filter(s, Expr::col(1).ge(Expr::lit(5i64)));
        b.aggregate(f, vec![0], vec![AggExpr::new("n", AggFunc::Count, 1)])
    };
    let summed = |b: &mut PlanBuilder| {
        let s = b.table_scan(DatasetId::new(SHARED_STREAM), "shared/x.ss", kv_schema());
        let f = b.filter(s, Expr::col(1).ge(Expr::lit(500i64)));
        b.aggregate(f, vec![0], vec![AggExpr::new("total", AggFunc::Sum, 1)])
    };
    let mut middle = PlanBuilder::new();
    let (a, c) = (counted(&mut middle), summed(&mut middle));
    middle.output(a, "middle-a").output(c, "middle-c");
    let mut last = PlanBuilder::new();
    let c = summed(&mut last);
    vec![
        shared_job(1, "a"),
        spec(2, middle.build().unwrap()),
        spec(3, last.output(c, "last-c").build().unwrap()),
    ]
}

/// The readiness gate alone orders every follower behind its producer,
/// down a chain whose middle job both follows and produces: one worker
/// (submission order) and two agree with Baseline and with each other.
/// The middle job waits for A, so the view C it builds is published no
/// earlier than its own execution start (the shared submission instant
/// plus its lookup latency and its wait), although C's producing stage
/// finishes sooner than the wait lasted.
#[test]
fn readiness_gate_orders_a_producer_chain() {
    let specs = chain();
    let baseline = baseline_checksums(&specs);
    let mut reuses = Vec::new();
    for workers in [1, 2] {
        let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
        seed_shared_stream(&cv);
        let arrivals = specs
            .iter()
            .cloned()
            .map(|spec| JobArrival {
                spec,
                offset: SimDuration::ZERO,
            })
            .collect();
        let cfg = SharingConfig::default();
        let out = cv.run_windowed(arrivals, RunMode::CloudViews, options(workers), &cfg);
        for ((i, r), want) in out.reports.iter().enumerate().zip(&baseline) {
            let r = r
                .as_ref()
                .unwrap_or_else(|e| panic!("workers={workers}, job {i}: {e}"));
            assert_eq!(&r.output_checksums, want, "workers={workers}, job {i}");
        }
        let middle = out.reports[1].as_ref().unwrap();
        let [c] = middle.views_built[..] else {
            panic!("workers={workers}: the middle job builds C alone");
        };
        let spans = cv.telemetry.tracer.spans_for_job(middle.job);
        let execute = spans.iter().find(|s| s.name == "execute").unwrap();
        let waited = execute.sim_start - (middle.started_at + middle.lookup_latency);
        assert!(waited > SimDuration::ZERO, "workers={workers}: it waited");
        let just_before = SimTime(execute.sim_start.0 - 1);
        assert!(
            cv.metadata.view_available_at(c, just_before).is_none(),
            "workers={workers}: C is visible before its builder executes"
        );
        let s = &out.sharing;
        assert_eq!(s.shared_subgraphs, 2, "workers={workers}");
        assert_eq!((s.published, s.aborted), (2, 0), "workers={workers}");
        reuses.push(s.follower_reuses);
    }
    assert_eq!(reuses[0], reuses[1], "follower reuses by worker count");
    assert_eq!(reuses[0], 2, "both followers reuse");
}

/// The shared pair in two windows: the second window's entry already has
/// its view (the first window built it), so it starts published — nothing
/// aborts, the second pair reuses the view and matches Baseline.
#[test]
fn an_entry_whose_view_exists_starts_published() {
    let specs = vec![
        shared_job(1, "a"),
        shared_job(2, "b"),
        shared_job(3, "c"),
        shared_job(4, "d"),
    ];
    let baseline = baseline_checksums(&specs);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    seed_shared_stream(&cv);
    let arrivals = specs
        .iter()
        .cloned()
        .zip([0u64, 0, 40, 40])
        .map(|(spec, secs)| JobArrival {
            spec,
            offset: SimDuration::from_secs(secs),
        })
        .collect();
    let out = cv.run_windowed(
        arrivals,
        RunMode::CloudViews,
        options(2),
        &SharingConfig::default(),
    );
    for ((i, r), want) in out.reports.iter().enumerate().zip(&baseline) {
        let r = r.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
        assert_eq!(&r.output_checksums, want, "job {i} output diverged");
    }
    let s = &out.sharing;
    assert_eq!((s.windows, s.shared_subgraphs), (2, 2));
    assert_eq!((s.published, s.aborted), (1, 0), "producer outcomes only");
    assert_eq!((s.follower_reuses, s.follower_fallbacks), (2, 0));
    let built = &out.reports[0].as_ref().unwrap().views_built;
    for r in &out.reports[2..] {
        let r = r.as_ref().unwrap();
        assert!(r.views_built.is_empty(), "the second window builds nothing");
        assert_eq!(&r.views_reused, built, "and reuses the first's view");
    }
}
