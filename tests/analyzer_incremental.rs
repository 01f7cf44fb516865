//! Incremental-analyzer invariants (DESIGN.md §11).
//!
//! The analyzer state folds records one at a time into persistent
//! aggregates; correctness rests on the property this file pins down:
//! **partition invariance** — ingesting a record stream in any split (one
//! call, per-record calls, uneven chunks) yields byte-identical analysis to
//! one full-batch `run_analysis`. This is what makes "ingest the delta,
//! select from aggregates" exact rather than approximate.
//!
//! Plus the service-level wiring: a resident analyzer fed by the pipeline's
//! record stage — serially or from a worker pool — reaches the same
//! selection as a full batch replay, and the packing policy stays under its
//! byte budget.

use std::sync::Arc;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::{
    AnalysisOutcome, AnalyzerState, CloudViews, IncrementalAnalyzer, PipelineOptions, RunMode,
};
use scope_engine::repo::JobRecord;
use scope_engine::storage::StorageManager;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

/// Runs `instances` baseline instances of a tiny workload and returns the
/// recorded history.
fn history(instances: u64, seed: u64) -> Vec<JobRecord> {
    let w = RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![ClusterSpec::tiny("inc")],
        seed,
        stream_rows: LogNormal::new(6.0, 0.5, 150.0, 1_500.0),
    })
    .unwrap();
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    let mut rounds = w.rounds(0);
    for _ in 0..instances {
        let jobs = rounds.next_round(&cv.storage, 1.0).unwrap();
        cv.run_sequence(&jobs, RunMode::Baseline).unwrap();
    }
    cv.repo.records()
}

/// Deterministic fingerprint of everything an analysis decides, excluding
/// wall-clock timings. `selected`, `groups`, and `order_hints` are ordered
/// deterministically by construction, so their `Debug` forms are
/// byte-comparable; the metrics maps are projected through sorted vectors.
fn fingerprint(o: &AnalysisOutcome) -> String {
    let m = &o.metrics;
    let mut per_job: Vec<_> = m.per_job.iter().map(|(k, v)| (*k, *v)).collect();
    per_job.sort_unstable();
    let mut per_user: Vec<_> = m.per_user.iter().map(|(k, v)| (*k, *v)).collect();
    per_user.sort_unstable();
    let mut per_vc: Vec<_> = m.per_vc.iter().map(|(k, v)| (*k, *v)).collect();
    per_vc.sort_unstable();
    let mut per_input: Vec<_> = m
        .per_input
        .iter()
        .map(|(k, v)| (format!("{k:?}"), *v))
        .collect();
    per_input.sort_unstable();
    let mut vc_jobs: Vec<_> = m.vc_jobs.iter().map(|(k, v)| (*k, *v)).collect();
    vc_jobs.sort_unstable();
    format!(
        "selected={:?}\ngroups={:?}\nhints={:?}\njobs={}\nscalars={:?}\nfreqs={:?}\n\
         per_job={per_job:?}\nper_user={per_user:?}\nper_vc={per_vc:?}\n\
         per_input={per_input:?}\nvc_jobs={vc_jobs:?}",
        o.selected,
        o.groups,
        o.order_hints,
        o.jobs_analyzed,
        (
            m.jobs_total,
            m.jobs_overlapping,
            m.users_total,
            m.users_overlapping,
            m.subgraphs_total,
            m.subgraphs_overlapping,
            m.occurrences_total,
            m.occurrences_overlapping,
        ),
        m.overlap_frequencies,
    )
}

fn configs() -> Vec<AnalyzerConfig> {
    vec![
        AnalyzerConfig::default(),
        AnalyzerConfig {
            policy: SelectionPolicy::TopKUtility { k: 5 },
            constraints: SelectionConstraints {
                per_job_cap: Some(1),
                ..Default::default()
            },
            ..Default::default()
        },
        AnalyzerConfig {
            policy: SelectionPolicy::Packing {
                storage_budget_bytes: 50_000,
            },
            ..Default::default()
        },
    ]
}

#[test]
fn ingest_is_partition_invariant() {
    let records = history(3, 19);
    assert!(records.len() >= 8, "need a real stream to partition");
    // Chunk sizes exercising the extremes: per-record, uneven, one batch.
    let partitions: &[usize] = &[1, 2, 3, 7, records.len() / 2, records.len()];
    for config in configs() {
        let full = cloudviews::analyzer::run_analysis(&records, &config).unwrap();
        let want = fingerprint(&full);
        for &chunk in partitions {
            let state = AnalyzerState::new(config.clone());
            for piece in records.chunks(chunk.max(1)) {
                state.ingest(piece);
            }
            let got = fingerprint(&state.select().unwrap());
            assert_eq!(
                got, want,
                "partition into chunks of {chunk} diverged from full batch \
                 under {:?}",
                config.policy
            );
        }
        // Selecting twice without new records is stable (select reads, never
        // consumes, the aggregates).
        let state = AnalyzerState::new(config.clone());
        state.ingest(&records);
        let first = fingerprint(&state.select().unwrap());
        let second = fingerprint(&state.select().unwrap());
        assert_eq!(first, second);
        assert_eq!(first, want);
    }
}

#[test]
fn resident_analyzer_round_matches_batch_analysis() {
    let config = AnalyzerConfig {
        policy: SelectionPolicy::TopKUtility { k: 5 },
        ..Default::default()
    };
    let w = RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![ClusterSpec::tiny("inc-rt")],
        seed: 29,
        stream_rows: LogNormal::new(6.0, 0.5, 150.0, 1_500.0),
    })
    .unwrap();
    let cv = CloudViews::builder(Arc::new(StorageManager::new()))
        .incremental_analyzer(config.clone())
        .build();
    let analyzer = cv.analyzer.as_ref().unwrap().clone();
    // A second analyzer that sees the repository only at round boundaries.
    let at_boundary = IncrementalAnalyzer::new(config.clone());
    let mut rounds = w.rounds(0);
    for round in 1..=3u64 {
        let jobs = rounds.next_round(&cv.storage, 1.0).unwrap();
        let history = cv.repo.len();
        if round == 2 {
            // Concurrent record stages absorb through the analyzer's one
            // lock: nothing lost, nothing duplicated.
            let options = PipelineOptions {
                workers: 3,
                ..Default::default()
            };
            for report in cv.run_many(jobs, RunMode::Baseline, options) {
                report.unwrap();
            }
        } else {
            cv.run_sequence(&jobs, RunMode::Baseline).unwrap();
        }
        // The record stage already absorbed this round's records.
        assert_eq!(analyzer.state().jobs_admitted(), cv.repo.len());
        // A round folds its delta, not the history before it.
        assert_eq!(
            at_boundary.absorb(&cv.repo).admitted,
            cv.repo.len() - history,
            "round {round}"
        );
        let incremental = cv.analyze_round().unwrap();
        let batch = cv.analyze(&config).unwrap();
        assert_eq!(
            fingerprint(&incremental),
            fingerprint(&batch),
            "round {round}: incremental state diverged from batch replay"
        );
        let delta = analyzer.last_delta().unwrap();
        assert_eq!(delta.round, round);
        assert_eq!(delta.jobs_total, cv.repo.len());
        if round == 1 {
            assert_eq!(delta.newly_selected.len(), incremental.selected.len());
            assert!(delta.dropped.is_empty());
        }
    }
    // Round without new records: nothing ingested, selection unchanged.
    let before = fingerprint(&cv.analyze_round().unwrap());
    let delta = analyzer.last_delta().unwrap();
    assert_eq!(delta.ingested_jobs, 0);
    assert!(delta.newly_selected.is_empty() && delta.dropped.is_empty());
    assert_eq!(before, fingerprint(&cv.analyze_round().unwrap()));
}

#[test]
fn storage_budget_packs_selection() {
    let records = history(3, 31);
    let unbounded = cloudviews::analyzer::run_analysis(
        &records,
        &AnalyzerConfig {
            policy: SelectionPolicy::TopKUtility { k: 20 },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        unbounded.selected.len() >= 2,
        "need at least two views to budget between"
    );
    let total: u64 = unbounded
        .selected
        .iter()
        .map(|s| s.annotation.avg_bytes.max(1))
        .sum();
    // A budget of half the unbounded footprint must still select something,
    // and the packed footprint must respect it.
    let budget = (total / 2).max(1);
    let packed = cloudviews::analyzer::run_analysis(
        &records,
        &AnalyzerConfig {
            policy: SelectionPolicy::Packing {
                storage_budget_bytes: budget,
            },
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        !packed.selected.is_empty(),
        "budget {budget} selected nothing"
    );
    let packed_total: u64 = packed
        .selected
        .iter()
        .map(|s| s.annotation.avg_bytes.max(1))
        .sum();
    assert!(
        packed_total <= budget,
        "packed {packed_total} B over budget {budget} B"
    );
    assert!(packed.selected.len() <= unbounded.selected.len());
}

#[test]
fn state_fingerprint_is_partition_invariant_and_sees_one_more_record() {
    let records = history(2, 23);
    let (last, earlier) = records.split_last().expect("a recorded history");
    let whole = AnalyzerState::new(AnalyzerConfig::default());
    whole.ingest(earlier);
    let chunked = AnalyzerState::new(AnalyzerConfig::default());
    for piece in earlier.chunks(3) {
        chunked.ingest(piece);
    }
    assert_eq!(whole.fingerprint(), chunked.fingerprint());
    // One more record moves the digest.
    let before = whole.fingerprint();
    whole.ingest(std::slice::from_ref(last));
    assert_ne!(whole.fingerprint(), before);
}
