//! Executor throughput benchmark (PR 8 tentpole gate).
//!
//! Races the columnar batch-at-a-time executor against the row-at-a-time
//! reference executor (`scope_engine::rowref` — the seed implementation,
//! preserved verbatim) on TPC-DS-style scan → filter → join → aggregate
//! chains, and records `BENCH_executor.json` at the repo root:
//!
//! 1. **Throughput** — input rows per second for each executor, per chain
//!    and aggregated. The tentpole target is ≥ 5× columnar over row on the
//!    aggregate (single-core: both executors run serially, so the gate
//!    holds on any host).
//! 2. **Stats equality** — every timed plan is also checked for
//!    byte-identical `NodeRuntimeStats` between the two executors. The
//!    speedup is worthless if the columnar path drifts the statistics that
//!    feed the CloudViews analyzer and the EXPERIMENTS.md figures.
//!
//! `BENCH_QUICK=1` shrinks the data sizes for CI.

use std::time::Instant;

use scope_common::ids::{DatasetId, JobId};
use scope_common::time::SimTime;
use scope_engine::cost::CostModel;
use scope_engine::exec::execute_plan;
use scope_engine::optimizer::{optimize, NoViewServices, OptimizerConfig};
use scope_engine::rowref::execute_plan_rows;
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{AggExpr, DataType, Expr, JoinKind, PlanBuilder, QueryGraph, Schema, Value};
use scope_workload::tpcds::TpcdsWorkload;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One timed chain: an optimized physical plan, its storage, and the number
/// of base-input rows a single execution consumes (the rows/sec numerator).
struct Case {
    name: &'static str,
    plan: QueryGraph,
    storage: StorageManager,
    input_rows: u64,
}

fn lower(graph: &QueryGraph) -> QueryGraph {
    optimize(
        graph,
        &[],
        &NoViewServices,
        &OptimizerConfig::default(),
        JobId::new(1),
    )
    .unwrap()
    .physical
}

/// Fact table: `k` (dense int key), `v` (float payload), `d` (date).
fn fact_storage(n: i64, keys: i64) -> StorageManager {
    let schema = fact_schema();
    let rows = (0..n)
        .map(|i| {
            vec![
                Value::Int(i % keys),
                Value::Float((i % 1_000) as f64 * 0.5),
                Value::Date((i % 365) as i32),
            ]
        })
        .collect();
    let storage = StorageManager::new();
    storage.put_dataset(
        DatasetId::new(1),
        scope_engine::data::Table::single(schema, rows),
    );
    storage
}

fn fact_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("d", DataType::Date),
    ])
}

fn dim_schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)])
}

fn cases(quick: bool) -> Vec<Case> {
    let n: i64 = if quick { 60_000 } else { 400_000 };
    let keys: i64 = 1_024;
    let mut out = Vec::new();

    // 1. Selective scan→filter: the selection-vector fast path.
    {
        let storage = fact_storage(n, keys);
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "bench/fact", fact_schema());
        let f = b.filter(s, Expr::col(0).lt(Expr::lit(keys / 2)));
        let plan = b.output(f, "o").build().unwrap();
        out.push(Case {
            name: "scan_filter",
            plan: lower(&plan),
            storage,
            input_rows: n as u64,
        });
    }

    // 2. scan→filter→hash-agg: vectorized grouping and accumulation.
    {
        let storage = fact_storage(n, keys);
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "bench/fact", fact_schema());
        let f = b.filter(s, Expr::col(2).lt(Expr::lit(Value::Date(300))));
        let a = b.aggregate(
            f,
            vec![0],
            vec![
                AggExpr::new("cnt", AggFunc::Count, 1),
                AggExpr::new("sum_v", AggFunc::Sum, 1),
            ],
        );
        let plan = b.output(a, "o").build().unwrap();
        out.push(Case {
            name: "filter_agg",
            plan: lower(&plan),
            storage,
            input_rows: n as u64,
        });
    }

    // 3. The full chain: scan→filter→hash-join(dim)→hash-agg.
    {
        let storage = fact_storage(n, keys);
        let dim_rows = (0..keys)
            .map(|i| vec![Value::Int(i), Value::Int(i * 7)])
            .collect();
        storage.put_dataset(
            DatasetId::new(2),
            scope_engine::data::Table::single(dim_schema(), dim_rows),
        );
        let mut b = PlanBuilder::new();
        let fact = b.table_scan(DatasetId::new(1), "bench/fact", fact_schema());
        let f = b.filter(fact, Expr::col(0).lt(Expr::lit(keys - 64)));
        let dim = b.table_scan(DatasetId::new(2), "bench/dim", dim_schema());
        let j = b.join(f, dim, JoinKind::Inner, vec![0], vec![0]);
        let a = b.aggregate(
            j,
            vec![4],
            vec![
                AggExpr::new("cnt", AggFunc::Count, 1),
                AggExpr::new("sum_v", AggFunc::Sum, 1),
            ],
        );
        let plan = b.output(a, "o").build().unwrap();
        out.push(Case {
            name: "filter_join_agg",
            plan: lower(&plan),
            storage,
            input_rows: (n + keys) as u64,
        });
    }

    // 4. A real TPC-DS query end to end.
    {
        let storage = StorageManager::new();
        let w = TpcdsWorkload::new(if quick { 0.05 } else { 0.2 }, 1);
        w.register_data(&storage).unwrap();
        let spec = w.query_job(3).unwrap();
        let plan = lower(&spec.graph);
        let input_rows: u64 = plan
            .nodes()
            .iter()
            .filter_map(|node| match &node.op {
                scope_plan::Operator::Get { dataset, .. } => Some(
                    storage
                        .dataset(*dataset)
                        .map(|t| t.num_rows() as u64)
                        .unwrap_or(0),
                ),
                _ => None,
            })
            .sum();
        out.push(Case {
            name: "tpcds_q3",
            plan,
            storage,
            input_rows,
        });
    }
    out
}

fn main() {
    let quick = quick();
    let trials: usize = if quick { 3 } else { 5 };
    let model = CostModel::default();
    let cases = cases(quick);

    let mut stats_equal = true;
    let mut total_rows: u64 = 0;
    let mut total_col_micros: u128 = 0;
    let mut total_row_micros: u128 = 0;
    let mut case_lines = Vec::new();

    for case in &cases {
        // Warm-up (and the stats-equality differential) outside the clock.
        let col = execute_plan(&case.plan, &case.storage, &model, SimTime::ZERO).unwrap();
        let row = execute_plan_rows(&case.plan, &case.storage, &model, SimTime::ZERO).unwrap();
        stats_equal &= col.node_stats == row.node_stats;

        let mut col_micros = u128::MAX;
        for _ in 0..trials {
            let t = Instant::now();
            execute_plan(&case.plan, &case.storage, &model, SimTime::ZERO).unwrap();
            col_micros = col_micros.min(t.elapsed().as_micros());
        }
        let mut row_micros = u128::MAX;
        for _ in 0..trials {
            let t = Instant::now();
            execute_plan_rows(&case.plan, &case.storage, &model, SimTime::ZERO).unwrap();
            row_micros = row_micros.min(t.elapsed().as_micros());
        }

        total_rows += case.input_rows;
        total_col_micros += col_micros;
        total_row_micros += row_micros;
        let speedup = row_micros as f64 / col_micros.max(1) as f64;
        println!(
            "executor/{:<16} {:>9} rows   columnar {:>8} µs   row {:>9} µs   {:>5.2}x",
            case.name, case.input_rows, col_micros, row_micros, speedup
        );
        case_lines.push(format!(
            concat!(
                "    {{ \"name\": \"{name}\", \"input_rows\": {rows}, ",
                "\"columnar_micros\": {col}, \"row_micros\": {row}, ",
                "\"speedup\": {speedup:.3} }}"
            ),
            name = case.name,
            rows = case.input_rows,
            col = col_micros,
            row = row_micros,
            speedup = speedup,
        ));
    }

    let rows_per_sec_columnar = total_rows as f64 / (total_col_micros.max(1) as f64 / 1e6);
    let rows_per_sec_row = total_rows as f64 / (total_row_micros.max(1) as f64 / 1e6);
    let speedup = total_row_micros as f64 / total_col_micros.max(1) as f64;
    let meets_5x = speedup >= 5.0;
    println!(
        "executor/overall          {total_rows:>9} rows   columnar {:.0} rows/s   \
         row {:.0} rows/s   {speedup:.2}x   stats_equal={stats_equal}",
        rows_per_sec_columnar, rows_per_sec_row
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"executor\",\n",
            "  \"quick\": {quick},\n",
            "  \"cases\": [\n{cases}\n  ],\n",
            "  \"input_rows_total\": {rows},\n",
            "  \"columnar_micros_total\": {col},\n",
            "  \"row_micros_total\": {row},\n",
            "  \"rows_per_sec_columnar\": {rps_col:.0},\n",
            "  \"rows_per_sec_row\": {rps_row:.0},\n",
            "  \"speedup\": {speedup:.3},\n",
            "  \"meets_5x_target\": {m5},\n",
            "  \"stats_equal\": {eq}\n",
            "}}\n"
        ),
        quick = quick,
        cases = case_lines.join(",\n"),
        rows = total_rows,
        col = total_col_micros,
        row = total_row_micros,
        rps_col = rows_per_sec_columnar,
        rps_row = rows_per_sec_row,
        speedup = speedup,
        m5 = meets_5x,
        eq = stats_equal,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_executor.json");
    std::fs::write(path, &json).unwrap();
    println!("executor: wrote {path}");

    assert!(
        stats_equal,
        "columnar executor drifted NodeRuntimeStats from the row reference"
    );
    assert!(
        meets_5x,
        "columnar executor must be >= 5x the row reference on the chain \
         aggregate (got {speedup:.2}x)"
    );
}
