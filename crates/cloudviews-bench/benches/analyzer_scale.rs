//! Analyzer scalability benchmark (DESIGN.md §11).
//!
//! Measures the incremental analyzer against the full-batch replay it
//! replaced, recorded in `BENCH_analyzer_scale.json` at the repo root:
//! with 10 rounds of history already folded into the state, one
//! `ingest(delta) + select` round must cost ≤ 25% of a full-batch
//! `run_analysis` over all 11 rounds, and select the same views. This is
//! the core claim: round cost tracks the delta, not the repository's age.
//!
//! Records are synthesized directly (deterministic signatures, non-zero
//! runtime stats) rather than run through the engine: the bench times the
//! analyzer, not the executor, and needs enough history to matter.
//! `BENCH_QUICK=1` shrinks the sizes for CI.

use std::sync::Arc;
use std::time::Instant;

use cloudviews::analyzer::{run_analysis, AnalysisOutcome};
use cloudviews::{AnalyzerConfig, AnalyzerState};
use scope_common::hash::Sig128;
use scope_common::ids::{ClusterId, JobId, NodeId, TemplateId, UserId, VcId};
use scope_common::time::{SimDuration, SimTime};
use scope_common::Symbol;
use scope_engine::repo::{JobRecord, SubgraphRun};
use scope_plan::{OpKind, PhysicalProps};

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Rounds of history folded before the timed incremental round.
const HISTORY_ROUNDS: u64 = 10;

struct Shape {
    templates: u64,
    jobs_per_template: u64,
    subs_per_job: u64,
}

/// One synthetic round: every template submits `jobs_per_template` jobs
/// whose subgraphs share precise signatures within the round (so every
/// occurrence overlaps) and normalized signatures across rounds (so groups
/// fold across instances — the recurring-workload shape of the paper).
fn make_round(round: u64, shape: &Shape, props: &Arc<PhysicalProps>) -> Vec<JobRecord> {
    let mut records = Vec::new();
    for t in 0..shape.templates {
        let tags: Vec<Symbol> = (0..3)
            .map(|i| Symbol::intern(&format!("as/in/{}/{}", t, (t + i) % shape.templates)))
            .collect();
        for j in 0..shape.jobs_per_template {
            let subgraphs: Vec<SubgraphRun> = (0..shape.subs_per_job)
                .map(|s| SubgraphRun {
                    root: NodeId::new(s + 1),
                    precise: Sig128::new(
                        t * 1_000_003 + s * 7_919 + round * 104_729,
                        round * 2_654_435_761 + t * 31 + s,
                    ),
                    normalized: Sig128::new(t * 1_000_003 + s * 7_919, t * 31 + s),
                    root_kind: OpKind::HashJoin,
                    num_nodes: 3 + (s as usize % 4),
                    input_tags: tags.clone(),
                    props: Arc::clone(props),
                    has_user_code: s % 5 == 0,
                    out_rows: 1_000 + s * 37 + t,
                    out_bytes: 40_000 + s * 1_337 + t * 11,
                    exclusive_cpu: SimDuration::from_micros(200_000 + s * 1_000),
                    cumulative_cpu: SimDuration::from_micros(1_500_000 + s * 10_000 + t * 100),
                    finish_offset: SimDuration::from_micros(500_000 + s * 2_000),
                })
                .collect();
            records.push(JobRecord {
                job: JobId::new(round * 1_000_000 + t * shape.jobs_per_template + j),
                cluster: ClusterId::new(0),
                vc: VcId::new(t % 5),
                user: UserId::new(t % 7),
                template: TemplateId::new(t),
                instance: round,
                submitted_at: SimTime(round * 3_600_000_000 + (t * 10 + j) * 30_000_000),
                latency: SimDuration::from_micros(2_000_000 + t * 10_000 + j * 1_000),
                cpu_time: SimDuration::from_micros(8_000_000 + t * 40_000),
                tags: tags.clone(),
                subgraphs,
            });
        }
    }
    records
}

/// Deterministic fingerprint of an analysis (ordering-insensitive for the
/// metrics maps, which are the only non-deterministically-ordered parts).
fn fingerprint(o: &AnalysisOutcome) -> String {
    let mut per_job: Vec<_> = o.metrics.per_job.iter().map(|(k, v)| (*k, *v)).collect();
    per_job.sort_unstable();
    format!(
        "{:?}|{:?}|{:?}|{:?}|{per_job:?}",
        o.selected, o.groups, o.order_hints, o.metrics.overlap_frequencies
    )
}

fn config() -> AnalyzerConfig {
    AnalyzerConfig::default()
}

fn main() {
    let quick = quick();
    // Quick mode trims jobs, not templates/subgraphs: the per-round select
    // has a fixed cost driven by distinct normalized signatures, and the
    // ratio gate is only meaningful when per-occurrence fold work dominates
    // it — shrinking the shape too far turns the gate into a constant-
    // overhead measurement.
    let shape = Shape {
        templates: 48,
        jobs_per_template: if quick { 3 } else { 4 },
        subs_per_job: if quick { 10 } else { 12 },
    };
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let props = Arc::new(PhysicalProps::any());

    let rounds: Vec<Vec<JobRecord>> = (0..=HISTORY_ROUNDS)
        .map(|r| make_round(r, &shape, &props))
        .collect();
    let all: Vec<JobRecord> = rounds.iter().flatten().cloned().collect();
    let records_per_round = rounds[0].len();

    // Warm up: one full pass of each shape so allocator/interner state is
    // identical before any timed run.
    run_analysis(&all, &config()).unwrap();
    {
        let s = AnalyzerState::new(config());
        s.ingest(&all);
        s.select().unwrap();
    }

    // Incremental ratio at 10x history. Each side is the minimum of five
    // trials — the gate compares the cost structure, not scheduler noise,
    // and min is the standard noise-robust wall-clock estimator.
    const TRIALS: usize = 5;
    let mut incremental_micros = u128::MAX;
    let mut incremental_outcome = None;
    for _ in 0..TRIALS {
        let state = AnalyzerState::new(config());
        for r in rounds.iter().take(HISTORY_ROUNDS as usize) {
            state.ingest(r);
        }
        let t = Instant::now();
        state.ingest(&rounds[HISTORY_ROUNDS as usize]);
        let outcome = state.select().unwrap();
        incremental_micros = incremental_micros.min(t.elapsed().as_micros());
        incremental_outcome = Some(outcome);
    }
    let incremental_outcome = incremental_outcome.unwrap();

    let mut full_micros = u128::MAX;
    let mut full_outcome = None;
    for _ in 0..TRIALS {
        let t = Instant::now();
        let outcome = run_analysis(&all, &config()).unwrap();
        full_micros = full_micros.min(t.elapsed().as_micros());
        full_outcome = Some(outcome);
    }
    let full_outcome = full_outcome.unwrap();

    let incremental_ratio = incremental_micros as f64 / full_micros.max(1) as f64;
    let outcomes_match = fingerprint(&incremental_outcome) == fingerprint(&full_outcome);
    println!(
        "analyzer_scale/incremental   round {incremental_micros:>9} µs   \
         full-batch {full_micros:>9} µs   ratio {incremental_ratio:.3}   \
         ({} jobs history, {} jobs delta)",
        HISTORY_ROUNDS as usize * records_per_round,
        records_per_round,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"analyzer_scale\",\n",
            "  \"quick\": {quick},\n",
            "  \"cores\": {cores},\n",
            "  \"history_rounds\": {hist},\n",
            "  \"records_per_round\": {rpr},\n",
            "  \"records_total\": {total},\n",
            "  \"incremental_round_micros\": {inc},\n",
            "  \"full_batch_micros\": {full},\n",
            "  \"incremental_ratio\": {ratio:.3},\n",
            "  \"meets_25pct_target\": {m25},\n",
            "  \"incremental_matches_full\": {eq}\n",
            "}}\n"
        ),
        quick = quick,
        cores = cores,
        hist = HISTORY_ROUNDS,
        rpr = records_per_round,
        total = all.len(),
        inc = incremental_micros,
        full = full_micros,
        ratio = incremental_ratio,
        m25 = incremental_ratio <= 0.25,
        eq = outcomes_match,
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_analyzer_scale.json"
    );
    std::fs::write(path, &json).unwrap();
    println!("analyzer_scale: wrote {path}");

    assert!(
        outcomes_match,
        "incremental state diverged from full-batch analysis"
    );
    assert!(
        incremental_ratio <= 0.25,
        "incremental round must cost <= 25% of full re-analysis at \
         {HISTORY_ROUNDS}x history (got {incremental_ratio:.2})"
    );
}
