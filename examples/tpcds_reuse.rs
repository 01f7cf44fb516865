//! CloudViews over TPC-DS (paper Section 7.2).
//!
//! Runs all 99 TPC-DS queries once without CloudViews to fill the workload
//! repository, selects the top-10 overlapping computations (the paper's
//! deliberately conservative choice), then reruns the benchmark with
//! CloudViews enabled — using the analyzer's coordination hints to run one
//! view-building query before its reusers — and reports per-query runtime
//! improvements, Figure 13 style, then where the executor's wall time went
//! in the CloudViews pass, read from the service's own counters.
//!
//! Run with: `cargo run --release --example tpcds_reuse [scale]` (default
//! scale 1.5).

use std::sync::Arc;
use std::time::Instant;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::reporting;
use cloudviews::runtime::op_wall_counter;
use cloudviews::{CloudViews, RunMode};
use scope_common::time::SimDuration;
use scope_engine::storage::StorageManager;
use scope_plan::OpKind;
use scope_workload::tpcds::TpcdsWorkload;

/// The executor's counters: per operator kind its kernel wall, then
/// Execute's whole wall, the wall and output columns of recipe building, the
/// wall and cells of copying, dataset exchanges taken from their memo and
/// single-`Str`-key rows grouped, built or probed (every one on codes).
fn exec_counters(service: &CloudViews) -> Vec<u64> {
    let mut names: Vec<String> = OpKind::ALL.into_iter().map(op_wall_counter).collect();
    names.extend(
        [
            "cv_exec_wall_nanos_total",
            "cv_exec_build_wall_nanos_total",
            "cv_exec_gather_columns_total",
            "cv_exec_copy_wall_nanos_total",
            "cv_exec_cells_gathered_total",
            "cv_exec_exchange_memo_hits_total",
            "cv_exec_coded_key_rows_total",
        ]
        .map(String::from),
    );
    let metrics = &service.telemetry.metrics;
    names.iter().map(|n| metrics.counter_value(n)).collect()
}

/// Prints the executor breakdown of one pass from the counters' growth
/// across it and the pass's wall time.
fn print_exec_breakdown(before: &[u64], after: &[u64], pass_ms: f64) {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let (walls, rest) = delta.split_at(OpKind::ALL.len());
    let [exec_ns, build_ns, columns, copy_ns, cells, memo_hits, coded_rows] = rest else {
        unreachable!("seven executor counters after the walls")
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let pct = |ns: u64| 100.0 * ms(ns) / pass_ms;
    let kernel_ns: u64 = walls.iter().sum();
    let outside_ns = exec_ns.saturating_sub(kernel_ns);
    println!(
        "\nexecutor breakdown (CloudViews pass, {pass_ms:.1} ms): Execute {:.1} ms ({:.1} %): \
         kernels {:.1} ms ({:.1} %), outside kernels (byte accounting) {:.1} ms ({:.1} %)",
        ms(*exec_ns),
        pct(*exec_ns),
        ms(kernel_ns),
        pct(kernel_ns),
        ms(outside_ns),
        pct(outside_ns)
    );
    let mut kinds: Vec<(OpKind, u64)> =
        OpKind::ALL.into_iter().zip(walls.iter().copied()).collect();
    kinds.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (kind, ns) in kinds.into_iter().filter(|&(_, ns)| ns > 0) {
        println!("  {:<16}{:>7.1} ms {:>5.1} %", kind.name(), ms(ns), pct(ns));
    }
    println!("  across kinds:");
    println!(
        "  building recipes{:>7.1} ms {:>5.1} %: {columns} columns, {:.0} ns a column",
        ms(*build_ns),
        pct(*build_ns),
        *build_ns as f64 / (*columns).max(1) as f64
    );
    println!(
        "  copying cells   {:>7.1} ms {:>5.1} %: {cells} cells gathered, {:.1} ns a cell",
        ms(*copy_ns),
        pct(*copy_ns),
        *copy_ns as f64 / (*cells).max(1) as f64
    );
    println!("  once per stored input: {memo_hits} dataset exchanges kept; single-Str-key rows (all read as codes): {coded_rows}");
}

fn main() -> scope_common::Result<()> {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.5);
    let tpcds = TpcdsWorkload::new(scale, 1);
    let service = CloudViews::builder(Arc::new(StorageManager::new())).build();
    tpcds.register_data(&service.storage)?;
    let jobs = tpcds.all_jobs()?;
    println!(
        "TPC-DS at scale {scale}: running {} queries baseline...",
        jobs.len()
    );
    let baseline = service.run_sequence(&jobs, RunMode::Baseline)?;

    // Top-10 overlapping computations, as in the paper.
    let analysis = service.analyze(&AnalyzerConfig {
        policy: SelectionPolicy::TopKUtility { k: 10 },
        constraints: SelectionConstraints {
            min_cost_ratio: 0.05,
            ..Default::default()
        },
        ..Default::default()
    })?;
    println!(
        "analyzer: {} overlapping computations, selected top-{}:",
        analysis.groups.len(),
        analysis.selected.len()
    );
    print!("{}", reporting::top_overlaps(&analysis.groups, 10));
    service.install_analysis(&analysis);

    // Rerun with CloudViews, builders first (coordination hints).
    let ordered = cloudviews::analyzer::coordination::apply_order(
        tpcds.all_jobs()?,
        &analysis.order_hints,
        |j| j.template,
    );
    let counters_before = exec_counters(&service);
    let started = Instant::now();
    let enabled_unordered = service.run_sequence(&ordered, RunMode::CloudViews)?;
    let pass_ms = started.elapsed().as_secs_f64() * 1e3;
    let counters_after = exec_counters(&service);
    // Re-align reports to query order for the per-query table.
    let mut enabled: Vec<_> = enabled_unordered.into_iter().collect();
    enabled.sort_by_key(|r| r.job);

    println!("\nquery\timprovement%\treused\tbuilt");
    let mut improved = 0;
    let mut regressed = 0;
    for (b, e) in baseline.iter().zip(&enabled) {
        let delta = reporting::pct_change(b.latency, e.latency);
        if delta > 0.5 {
            improved += 1;
        } else if delta < -0.5 {
            regressed += 1;
        }
        // Correctness spot check.
        assert_eq!(
            b.output_checksums, e.output_checksums,
            "q{} corrupted",
            b.job
        );
        println!(
            "q{}\t{:+.1}\t{}\t{}",
            b.job.raw(),
            delta,
            e.views_reused.len(),
            e.views_built.len()
        );
    }
    let (avg, total) = reporting::improvement_stats(&baseline, &enabled, |r| r.latency);
    let base_total: SimDuration = baseline.iter().map(|r| r.latency).sum();
    let cv_total: SimDuration = enabled.iter().map(|r| r.latency).sum();
    println!(
        "\n{improved} of 99 queries improved, {regressed} regressed; \
         average improvement {avg:+.1}%, total workload improvement {total:+.1}% \
         ({:.1}s -> {:.1}s)",
        base_total.as_secs_f64(),
        cv_total.as_secs_f64()
    );
    println!("(paper: 79 of 99 improved, average 12.5%, total 17%)");
    print_exec_breakdown(&counters_before, &counters_after, pass_ms);
    Ok(())
}
