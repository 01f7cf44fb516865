//! Kill–replay crash-recovery loop (PR 10 `recovery` CI job).
//!
//! Proves the durable-state guarantee end to end, with real process death
//! rather than in-process fault injection: a writer subprocess drives a
//! durable [`CloudViews`] service through a recurring workload, the parent
//! SIGKILLs it at a varied point mid-activity, then recovers the store and
//! checks the catalog:
//!
//! - recovery never panics (torn tails drop at a clean record boundary);
//! - the recovered fingerprints are computable and stable across a
//!   recover → recover double-open (replay is deterministic);
//! - the job-record log never moves backwards across kills (acked
//!   mutations survive);
//! - recovered build locks are conservative: they all expire once the
//!   clock passes the mined TTL horizon.
//!
//! Usage: `kill_replay [iterations]` (parent), `kill_replay --writer DIR`
//! (internal child mode). `KILL_REPLAY_ITERS` overrides the iteration
//! count; each iteration reopens the same store, so later rounds also
//! exercise recovery-then-continue-appending.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::{CloudViews, RunMode};
use scope_common::time::SimDuration;
use scope_engine::storage::StorageManager;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

fn workload(seed: u64) -> RecurringWorkload {
    RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![ClusterSpec::tiny("kr")],
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

fn open_durable(dir: &Path) -> CloudViews {
    CloudViews::builder(Arc::new(StorageManager::new()))
        .incremental_analyzer(analyzer_cfg())
        .durable(dir)
        .build()
}

/// Child mode: prime one instance, announce readiness, then append-loop
/// until killed. Instance indices restart from 0 every respawn — replay
/// is at-least-once and every event is idempotent at its pinned time, so
/// re-running an instance against recovered state is the point, not a bug.
fn writer(dir: &Path) -> ! {
    let w = workload(42);
    let cv = open_durable(dir);
    w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
    cv.run_sequence(&w.jobs_for_instance(0, 0).unwrap(), RunMode::Baseline)
        .unwrap();
    let outcome = cv.analyze_round().unwrap();
    cv.install_analysis(&outcome);
    println!("PRIMED");

    let mut i: u64 = 1;
    loop {
        w.register_instance_data(0, i, &cv.storage, 1.0).unwrap();
        cv.run_sequence(&w.jobs_for_instance(0, i).unwrap(), RunMode::CloudViews)
            .unwrap();
        let outcome = cv.analyze_round().unwrap();
        cv.install_analysis(&outcome);
        cv.purge_expired();
        println!("INSTANCE {i}");
        i += 1;
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--writer" {
        writer(Path::new(&args[2]));
    }

    let iterations: u64 = std::env::var("KILL_REPLAY_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .or_else(|| args.get(1).and_then(|v| v.parse().ok()))
        .unwrap_or(5);

    let dir: PathBuf = std::env::temp_dir().join(format!("cv-kill-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().unwrap();

    let mut prev_records = 0usize;
    for iter in 0..iterations {
        let mut child = Command::new(&exe)
            .arg("--writer")
            .arg(&dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn writer");
        let stdout = child.stdout.take().unwrap();
        let mut lines = BufReader::new(stdout).lines();
        loop {
            let line = lines
                .next()
                .expect("writer exited before PRIMED")
                .expect("writer stdout");
            if line == "PRIMED" {
                break;
            }
        }
        // Vary the kill point across iterations so death lands in
        // different phases (mid-run, mid-analysis, mid-purge).
        std::thread::sleep(Duration::from_millis(20 + 70 * (iter % 4)));
        child.kill().expect("kill writer");
        child.wait().expect("reap writer");

        // Recover twice: the first open may truncate a torn tail; both
        // opens must agree — replay is deterministic.
        let cv = open_durable(&dir);
        let fp_meta = cv.metadata.fingerprint();
        let fp_analyzer = cv
            .analyzer
            .as_ref()
            .expect("analyzer installed")
            .state()
            .fingerprint();
        let records = cv.repo.len();
        let views = cv.metadata.num_views();
        let now = cv.clock.now();
        assert!(
            records >= prev_records,
            "iter {iter}: record log moved backwards ({records} < {prev_records})"
        );
        prev_records = records;

        // Conservative lock recovery: every recovered lock keeps its
        // original expiry, so advancing well past any mined TTL must
        // drain them all.
        let horizon = now + SimDuration::from_micros(7 * 24 * 3_600 * 1_000_000);
        assert_eq!(
            cv.metadata.num_active_locks(horizon),
            0,
            "iter {iter}: recovered lock outlives every plausible TTL"
        );
        drop(cv);

        let cv2 = open_durable(&dir);
        assert_eq!(
            (fp_meta, fp_analyzer, records),
            (
                cv2.metadata.fingerprint(),
                cv2.analyzer.as_ref().unwrap().state().fingerprint(),
                cv2.repo.len(),
            ),
            "iter {iter}: double recovery disagreed (non-deterministic replay)"
        );
        println!(
            "kill_replay: iter {iter} ok — {records} records, {views} views, \
             clock {} us",
            now.micros()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("kill_replay: {iterations} kill/replay iterations passed");
}
