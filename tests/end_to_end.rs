//! End-to-end integration tests spanning the whole stack: workload
//! generation → baseline runs → analyzer → metadata service → optimizer
//! rewriting → execution → correctness and savings.

use std::sync::Arc;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::{CloudViews, LookupRequest, PipelineOptions, ReportRequest, RunMode};
use scope_common::time::{SimDuration, SimTime};
use scope_engine::storage::StorageManager;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

fn workload(seed: u64) -> RecurringWorkload {
    RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![ClusterSpec::tiny("e2e")],
        seed,
        stream_rows: LogNormal::new(6.5, 0.6, 200.0, 3_000.0),
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

#[test]
fn three_instance_lifecycle() {
    let w = workload(5);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();

    // Instance 0: baseline fills the repository.
    w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
    let day0 = w.jobs_for_instance(0, 0).unwrap();
    cv.run_sequence(&day0, RunMode::Baseline).unwrap();

    let analysis = cv.analyze(&analyzer_cfg()).unwrap();
    assert!(!analysis.selected.is_empty());
    cv.install_analysis(&analysis);

    // Instances 1 and 2: enabled; views from instance 1 must NOT be reused
    // in instance 2 (new GUIDs ⇒ new precise signatures), but instance 2
    // builds its own.
    let mut built_per_instance = Vec::new();
    for inst in 1..3 {
        w.register_instance_data(0, inst, &cv.storage, 1.0).unwrap();
        let jobs = w.jobs_for_instance(0, inst).unwrap();
        let baseline = cv.run_sequence(&jobs, RunMode::Baseline).unwrap();
        let enabled = cv.run_sequence(&jobs, RunMode::CloudViews).unwrap();
        for (b, e) in baseline.iter().zip(&enabled) {
            assert_eq!(b.output_checksums, e.output_checksums);
        }
        built_per_instance.push(enabled.iter().map(|r| r.views_built.len()).sum::<usize>());
    }
    assert!(
        built_per_instance.iter().all(|&b| b > 0),
        "{built_per_instance:?}"
    );
}

#[test]
fn savings_are_real_and_outputs_identical() {
    let w = workload(11);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
    cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
        .unwrap();
    let analysis = cv.analyze(&analyzer_cfg()).unwrap();
    cv.install_analysis(&analysis);

    w.register_instance_data(0, 1, &cv.storage, 1.0).unwrap();
    let day1 = w.jobs_for_instance(0, 1).unwrap();
    let baseline = cv.run_sequence(&day1, RunMode::Baseline).unwrap();
    let enabled = cv.run_sequence(&day1, RunMode::CloudViews).unwrap();

    let base_cpu: SimDuration = baseline.iter().map(|r| r.cpu_time).sum();
    let cv_cpu: SimDuration = enabled.iter().map(|r| r.cpu_time).sum();
    assert!(cv_cpu < base_cpu, "CPU must drop: {cv_cpu} vs {base_cpu}");
    for (b, e) in baseline.iter().zip(&enabled) {
        assert_eq!(b.output_checksums, e.output_checksums);
        assert_eq!(b.output_rows, e.output_rows);
    }
}

#[test]
fn concurrent_jobs_build_each_view_once() {
    let w = workload(23);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 0.5).unwrap();
    cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
        .unwrap();
    let analysis = cv.analyze(&analyzer_cfg()).unwrap();
    cv.install_analysis(&analysis);

    w.register_instance_data(0, 1, &cv.storage, 0.5).unwrap();
    let day1 = w.jobs_for_instance(0, 1).unwrap();
    // One worker per job: maximum contention on the build locks.
    let options = PipelineOptions {
        workers: day1.len(),
        ..Default::default()
    };
    let reports = cv.run_many(day1, RunMode::CloudViews, options);
    let mut built: Vec<_> = reports
        .iter()
        .flat_map(|r| r.as_ref().unwrap().views_built.iter().copied())
        .collect();
    let n = built.len();
    built.sort_unstable();
    built.dedup();
    assert_eq!(built.len(), n, "a view was built twice under concurrency");
    // The storage manager holds exactly the deduplicated set.
    assert_eq!(cv.storage.num_views(), built.len());
}

#[test]
fn disabled_vcs_do_not_get_annotations() {
    // Admin excludes vc0 from analysis: no computation owned solely by vc0
    // may be selected.
    let w = workload(31);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
    cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
        .unwrap();
    let cfg = AnalyzerConfig {
        exclude_vcs: vec![scope_common::ids::VcId::new(0)],
        ..analyzer_cfg()
    };
    let analysis = cv.analyze(&cfg).unwrap();
    for group in &analysis.groups {
        assert!(
            !group.vcs.contains(&scope_common::ids::VcId::new(0)),
            "excluded VC leaked into analysis"
        );
    }
}

#[test]
fn views_expire_end_to_end() {
    let w = workload(47);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 0.5).unwrap();
    cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
        .unwrap();
    let analysis = cv
        .analyze(&AnalyzerConfig {
            default_ttl: SimDuration::from_secs(60),
            ..analyzer_cfg()
        })
        .unwrap();
    cv.install_analysis(&analysis);
    w.register_instance_data(0, 1, &cv.storage, 0.5).unwrap();
    let day1 = w.jobs_for_instance(0, 1).unwrap();
    cv.run_sequence(&day1, RunMode::CloudViews).unwrap();
    let views_before = cv.storage.num_views();
    assert!(views_before > 0);

    // A job submitted after expiry cannot read the views; it recomputes and
    // (with a fresh lock) rebuilds.
    cv.clock.advance(SimDuration::from_secs(7 * 86_400));
    let purge = cv.purge_expired();
    assert_eq!(purge.views_purged, views_before);
    assert!(purge.bytes_reclaimed > 0);
    let report = cv
        .run_job_at(&day1[0], RunMode::CloudViews, cv.clock.now())
        .unwrap();
    assert!(report.views_reused.is_empty(), "reused an expired view");
}

#[test]
fn baseline_and_enabled_interleave_safely() {
    // Mixed traffic: some jobs opt in, some do not (the paper's opt-in
    // deployment mode). Opted-out jobs are never rewritten and never build.
    let w = workload(61);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 0.5).unwrap();
    cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
        .unwrap();
    let analysis = cv.analyze(&analyzer_cfg()).unwrap();
    cv.install_analysis(&analysis);
    w.register_instance_data(0, 1, &cv.storage, 0.5).unwrap();
    let day1 = w.jobs_for_instance(0, 1).unwrap();
    for (i, spec) in day1.iter().enumerate() {
        let mode = if i % 2 == 0 {
            RunMode::CloudViews
        } else {
            RunMode::Baseline
        };
        let r = cv.run_job_at(spec, mode, cv.clock.now()).unwrap();
        if mode == RunMode::Baseline {
            assert!(r.views_built.is_empty());
            assert!(r.views_reused.is_empty());
            assert_eq!(r.lookup_latency, SimDuration::ZERO);
        }
    }
}

#[test]
fn offline_mode_builds_views_upfront() {
    use cloudviews::{LockOutcome, MetadataService, ProposeRequest};
    use scope_common::hash::Sig128;
    use scope_common::ids::JobId;
    use scope_engine::exec::execute_plan;
    use scope_engine::job::materialize_marked_views;
    use scope_engine::optimizer::{optimize, AvailableView, OptimizerConfig, ViewServices};
    use scope_engine::sim::{simulate, ClusterConfig};
    use scope_signature::job_tags;

    /// The admin's view oracle: the metadata service judged at one instant.
    struct PinnedAt<'a>(&'a MetadataService, SimTime);
    impl ViewServices for PinnedAt<'_> {
        fn view_available(&self, precise: Sig128) -> Option<AvailableView> {
            self.0.view_available_at(precise, self.1)
        }
        fn propose_materialize(
            &self,
            precise: Sig128,
            _normalized: Sig128,
            job: JobId,
            lock_ttl: SimDuration,
        ) -> bool {
            let req = ProposeRequest::new(precise, job, lock_ttl, self.1);
            matches!(self.0.propose(&req), Ok(LockOutcome::Acquired))
        }
    }

    let w = workload(71);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 0.5).unwrap();
    cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
        .unwrap();
    let analysis = cv.analyze(&analyzer_cfg()).unwrap();
    cv.install_analysis(&analysis);

    // Weekly-analytics style: an admin pre-builds views for instance 1
    // before the pipeline runs, using the optimizer's offline mode.
    w.register_instance_data(0, 1, &cv.storage, 0.5).unwrap();
    let day1 = w.jobs_for_instance(0, 1).unwrap();
    let mut prebuilt = 0;
    let now = cv.clock.now();
    for spec in &day1 {
        let annotations = cv
            .metadata
            .lookup(&LookupRequest::new(spec.id, &job_tags(&spec.graph), now))
            .unwrap()
            .annotations;
        if annotations.is_empty() {
            continue;
        }
        let cfg = OptimizerConfig {
            offline_mode: true,
            enable_reuse: false,
            ..Default::default()
        };
        let Ok(plan) = optimize(
            &spec.graph,
            &annotations,
            &PinnedAt(&cv.metadata, now),
            &cfg,
            spec.id,
        ) else {
            continue; // nothing to build for this job
        };
        let exec = execute_plan(&plan.physical, &cv.storage, &cv.cost, SimTime::ZERO).unwrap();
        let sim = simulate(&plan.physical, &exec, &ClusterConfig::default());
        for built in
            materialize_marked_views(&plan, &exec, &sim, &cv.cost, spec.id, SimTime::ZERO).unwrap()
        {
            let view = AvailableView {
                precise: built.file.meta.precise,
                rows: built.file.meta.rows,
                bytes: built.file.meta.bytes,
                props: built.file.props.clone(),
            };
            let expires = built.file.meta.expires_at;
            let normalized = built.file.meta.normalized;
            cv.storage.publish_view(built.file).unwrap();
            cv.metadata
                .report(ReportRequest::new(
                    view,
                    normalized,
                    spec.id,
                    SimTime::ZERO,
                    expires,
                ))
                .unwrap();
            prebuilt += 1;
        }
    }
    assert!(prebuilt > 0, "offline mode built nothing");

    // The pipeline now runs with everything already materialized: at least
    // one job reuses and nobody needs to build those same views again.
    let reports = cv.run_sequence(&day1, RunMode::CloudViews).unwrap();
    let reused: usize = reports.iter().map(|r| r.views_reused.len()).sum();
    assert!(reused > 0, "prebuilt views were not reused");
}
