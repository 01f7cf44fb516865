//! Durable-state recovery benchmark (PR 10 tentpole gate).
//!
//! Primes a durable [`CloudViews`] service with a recurring workload, then
//! measures cold-start recovery and records `BENCH_persistence.json` at the
//! repo root:
//!
//! 1. **Replay wall** — microseconds to rebuild the full in-memory state
//!    from the write-ahead log, normalized per 10k recovered units (WAL
//!    events + job records + view files) so the gate tracks per-record
//!    replay cost rather than workload size.
//! 2. **Snapshot speedup** — the same recovery after `snapshot_now()`
//!    compacted the log, as a ratio over full replay. Both sides run on
//!    the same host in the same process, so the ratio is noise-robust.
//! 3. **Fingerprint equality** — the recovered metadata catalog and
//!    analyzer state must hash identically to the pre-crash service
//!    (`MetadataService::fingerprint`, `AnalyzerState::fingerprint`).
//! 4. **Torn-tail recovery** — a partial frame appended to the live WAL
//!    (simulating a crash mid-write) must be dropped at the last clean
//!    record boundary without panicking or perturbing the fingerprints.
//!
//! `BENCH_QUICK=1` shrinks the workload for CI.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::{CloudViews, DurableStore, RunMode};
use scope_engine::storage::StorageManager;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn workload(seed: u64) -> RecurringWorkload {
    RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![ClusterSpec::tiny("persist")],
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

/// Opens (or recovers) a durable service rooted at `dir`. The snapshot
/// threshold is pinned to `u64::MAX` so the log only compacts when the
/// bench explicitly calls `snapshot_now()` — phases control compaction.
fn open_durable(dir: &Path) -> CloudViews {
    CloudViews::builder(Arc::new(StorageManager::new()))
        .incremental_analyzer(analyzer_cfg())
        .durable(dir)
        .snapshot_threshold(u64::MAX)
        .build()
}

/// The state signature recovery must reproduce exactly.
#[derive(PartialEq, Debug)]
struct Fingerprints {
    metadata: scope_common::hash::Sig128,
    analyzer: scope_common::hash::Sig128,
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
        records: cv.repo.records().len(),
    }
}

/// Appends a torn frame (declared length far beyond the bytes actually
/// written) to the highest-generation meta WAL, simulating a crash mid
/// `write_all`.
fn tear_meta_wal(dir: &Path) {
    let meta = dir.join("meta");
    let wal = std::fs::read_dir(&meta)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("wal.")
                .and_then(|n| n.parse::<u64>().ok())
        })
        .max()
        .map(|g| meta.join(format!("wal.{g}")))
        .expect("no WAL generation found");
    let mut f = std::fs::OpenOptions::new().append(true).open(wal).unwrap();
    let mut torn = Vec::new();
    torn.extend_from_slice(&4096u32.to_le_bytes()); // frame claims 4 KiB...
    torn.extend_from_slice(&0xdead_beef_dead_beefu64.to_le_bytes());
    torn.extend_from_slice(&[0xAB; 57]); // ...but only 57 bytes landed
    f.write_all(&torn).unwrap();
}

fn main() {
    let quick = quick();
    let instances: u64 = if quick { 2 } else { 5 };
    // Analyzer-install / purge churn per instance: each round appends
    // LoadAnnotations + per-shard PurgeShard events, growing the WAL tail
    // the snapshot later compacts away (job records live in their own
    // log and are replayed on both paths, so the event tail is exactly
    // the state a snapshot saves).
    let churn: usize = if quick { 40 } else { 120 };
    let trials: usize = if quick { 2 } else { 3 };

    let dir: PathBuf =
        std::env::temp_dir().join(format!("cv-persistence-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: prime a durable service — every mutation is WAL-appended
    // before ack; no snapshot is taken (threshold = MAX), so the on-disk
    // state after this phase is snapshot-free pure log.
    let w = workload(42);
    let expected = {
        let cv = open_durable(&dir);
        for i in 0..instances {
            w.register_instance_data(0, i, &cv.storage, 1.0).unwrap();
            let jobs = w.jobs_for_instance(0, i).unwrap();
            let mode = if i == 0 {
                RunMode::Baseline
            } else {
                RunMode::CloudViews
            };
            cv.run_sequence(&jobs, mode).unwrap();
            let outcome = cv.analyze_round().unwrap();
            for _ in 0..churn {
                cv.install_analysis(&outcome);
                cv.purge_expired();
            }
        }
        fingerprints(&cv)
    };

    // Size the log for normalization (one throwaway decode pass).
    let (events, records, views) = {
        let (_store, recovered) = DurableStore::open(&dir, u64::MAX).unwrap();
        (
            recovered.events.len(),
            recovered.records.len(),
            recovered.views.len(),
        )
    };
    let units = (events + records + views).max(1) as u64;

    // Phase 2: full log replay — cold-start the service from WAL only.
    let mut replay_micros = u64::MAX;
    let mut fingerprints_equal = true;
    for _ in 0..trials {
        let t = Instant::now();
        let cv = open_durable(&dir);
        replay_micros = replay_micros.min(t.elapsed().as_micros() as u64);
        fingerprints_equal &= fingerprints(&cv) == expected;
    }
    let replay_per_10k = replay_micros.saturating_mul(10_000) / units;
    println!(
        "persistence/replay        {units:>9} units   {replay_micros} us   \
         {replay_per_10k} us/10k   fingerprints_equal={fingerprints_equal}"
    );

    // Phase 3: snapshot, then recover from snapshot + empty tail.
    {
        let cv = open_durable(&dir);
        assert!(cv.snapshot_now(), "explicit snapshot must not be skipped");
    }
    let mut snap_micros = u64::MAX;
    for _ in 0..trials {
        let t = Instant::now();
        let cv = open_durable(&dir);
        snap_micros = snap_micros.min(t.elapsed().as_micros() as u64);
        fingerprints_equal &= fingerprints(&cv) == expected;
    }
    let snapshot_speedup = replay_micros as f64 / snap_micros.max(1) as f64;
    println!(
        "persistence/snapshot      {units:>9} units   {snap_micros} us   \
         {snapshot_speedup:.2}x over full replay"
    );

    // Phase 4: torn tail — a partial frame after the snapshot must be
    // dropped cleanly; recovery neither panics nor drifts state.
    tear_meta_wal(&dir);
    let torn_tail_recovered = {
        let cv = open_durable(&dir);
        fingerprints(&cv) == expected
    };
    println!("persistence/torn-tail     recovered={torn_tail_recovered}");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"persistence\",\n",
            "  \"quick\": {quick},\n",
            "  \"wal_events\": {events},\n",
            "  \"job_records\": {records},\n",
            "  \"view_files\": {views},\n",
            "  \"replay_micros_total\": {replay},\n",
            "  \"replay_micros_per_10k\": {per10k},\n",
            "  \"snapshot_recovery_micros\": {snap},\n",
            "  \"snapshot_speedup\": {speedup:.3},\n",
            "  \"fingerprints_equal\": {fp},\n",
            "  \"torn_tail_recovered\": {torn}\n",
            "}}\n"
        ),
        quick = quick,
        events = events,
        records = records,
        views = views,
        replay = replay_micros,
        per10k = replay_per_10k,
        snap = snap_micros,
        speedup = snapshot_speedup,
        fp = fingerprints_equal,
        torn = torn_tail_recovered,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persistence.json");
    std::fs::write(path, &json).unwrap();
    println!("persistence: wrote {path}");

    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        fingerprints_equal,
        "recovered state fingerprints diverged from the pre-crash service"
    );
    assert!(
        torn_tail_recovered,
        "torn WAL tail was not dropped at a clean record boundary"
    );
}
