//! Compile-path benchmark (DESIGN.md §9): cold vs. template-hit compile.
//!
//! Signing + subgraph enumeration of a recurring instance from scratch vs.
//! rebasing the cached skeleton of the previous instance
//! (`scope_signature::TemplateCache`). Asserts hits are ≥ 2× faster — the
//! one wall-clock ratio `benchmark/` has no metric for. Prints its table
//! and a one-line JSON summary to stdout; writes no file.

use std::time::Instant;

use scope_common::ids::DatasetId;
use scope_plan::expr::AggFunc;
use scope_plan::{AggExpr, DataType, Expr, Partitioning, PlanBuilder, QueryGraph, Schema};
use scope_signature::TemplateCache;

/// Recurring instances compiled per plan size.
const INSTANCES: usize = 100;

/// A chain-shaped plan with roughly `n` nodes reading `dataset` — the
/// signatures-bench plan shape. A new `dataset` GUID is a new recurring
/// instance of the same template: precise signatures change, normalized
/// ones don't, so a warmed [`TemplateCache`] serves it as a hit.
fn chain_plan(n: usize, dataset: u64) -> QueryGraph {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]);
    let mut b = PlanBuilder::new();
    let mut cur = b.table_scan(DatasetId::new(dataset), "bench/t.ss", schema);
    for i in 0..n.saturating_sub(3) {
        cur = match i % 4 {
            0 => b.filter(cur, Expr::col(0).gt(Expr::lit(i as i64))),
            1 => b.exchange(
                cur,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 8,
                },
            ),
            2 => b.aggregate(
                cur,
                vec![0],
                vec![AggExpr::new(format!("a{i}"), AggFunc::Sum, 1)],
            ),
            _ => b.nop(cur),
        };
    }
    b.output(cur, "bench/out.ss").build().unwrap()
}

struct CompileNumbers {
    nodes: usize,
    cold_micros: u128,
    hit_micros: u128,
}

/// Times compiling [`INSTANCES`] recurring instances of an `n`-node chain
/// template cold (fresh cache per compile, full subgraph enumeration) vs.
/// on a cache warmed with instance 0 (every compile rebases the skeleton).
fn bench_compile(n: usize) -> CompileNumbers {
    let plans: Vec<QueryGraph> = (1..=INSTANCES as u64 + 1)
        .map(|inst| chain_plan(n, inst))
        .collect();
    let (warmup, rest) = plans.split_first().unwrap();

    let t = Instant::now();
    for plan in rest {
        let cache = TemplateCache::new();
        std::hint::black_box(cache.compile(plan).unwrap());
    }
    let cold_micros = t.elapsed().as_micros();

    let warmed = TemplateCache::new();
    warmed.compile(warmup).unwrap();
    let t = Instant::now();
    for plan in rest {
        let compiled = warmed.compile(plan).unwrap();
        assert!(compiled.template_hit, "new instance must hit the cache");
        std::hint::black_box(compiled);
    }
    let hit_micros = t.elapsed().as_micros();

    CompileNumbers {
        nodes: n,
        cold_micros,
        hit_micros,
    }
}

fn ratio(num: u128, den: u128) -> f64 {
    num as f64 / den.max(1) as f64
}

fn main() {
    let per_size = [32, 128, 512].map(bench_compile);
    for c in &per_size {
        println!(
            "compile_path/compile/{:>3} nodes  cold {:>9.1} µs/job  hit {:>8.1} µs/job  {:.2}x",
            c.nodes,
            ratio(c.cold_micros, INSTANCES as u128),
            ratio(c.hit_micros, INSTANCES as u128),
            ratio(c.cold_micros, c.hit_micros)
        );
    }
    let cold_total: u128 = per_size.iter().map(|c| c.cold_micros).sum();
    let hit_total: u128 = per_size.iter().map(|c| c.hit_micros).sum();
    let speedup = ratio(cold_total, hit_total);
    println!(
        "compile_path/compile/total       cold {cold_total:>9} µs  hit {hit_total:>8} µs  {speedup:.2}x"
    );
    println!(
        "{{\"bench\": \"compile_path\", \"instances\": {INSTANCES}, \
         \"cold_total_micros\": {cold_total}, \"template_hit_total_micros\": {hit_total}, \
         \"speedup\": {speedup:.3}}}"
    );

    assert!(
        speedup >= 2.0,
        "template hit must be >= 2x faster than cold compile (got {speedup:.2}x)"
    );
}
