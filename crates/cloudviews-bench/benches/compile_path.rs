//! Compile-path and pipeline-throughput benchmark (DESIGN.md §9).
//!
//! Two comparisons, both recorded in `BENCH_compile_path.json` at the repo
//! root so the bench trajectory is tracked in-tree:
//!
//! 1. **Cold vs. template-hit compile** — signing + subgraph enumeration of
//!    a recurring instance from scratch vs. rebasing the cached skeleton of
//!    the previous instance (`scope_signature::TemplateCache`). Target:
//!    hits ≥ 2× faster.
//! 2. **`run_many` vs. serial loop** — the same job batch through the
//!    work-stealing pool (one worker per core) vs. a plain serial loop.
//!    Target: the pool wins wall-clock on ≥ 4 cores; on fewer cores the
//!    comparison is recorded but the target is marked not applicable.
//!
//! `BENCH_QUICK=1` shrinks the workload for CI (the artifact notes which
//! variant produced it).

use std::sync::Arc;
use std::time::Instant;

use cloudviews::{CloudViews, PipelineOptions, RunMode};
use scope_common::ids::DatasetId;
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{AggExpr, DataType, Expr, Partitioning, PlanBuilder, QueryGraph, Schema};
use scope_signature::TemplateCache;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A recurring workload with roughly `templates` jobs per instance.
fn workload(templates: usize) -> RecurringWorkload {
    let mut spec = ClusterSpec::tiny("compile_path");
    spec.num_templates = templates;
    spec.num_vcs = 8;
    spec.num_users = 16;
    spec.num_streams = 12;
    spec.num_fragments = 16;
    RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![spec],
        seed: 0xC0117E,
        stream_rows: LogNormal::new(5.5, 0.4, 100.0, 800.0),
    })
    .unwrap()
}

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
    instances: usize,
    cold_micros: u128,
    hit_micros: u128,
}

/// Times compiling `instances` recurring instances of an `n`-node chain
/// template cold (fresh cache per compile, full subgraph enumeration) vs.
/// on a cache warmed with instance 0 (every compile rebases the skeleton).
fn bench_compile(n: usize, instances: usize) -> CompileNumbers {
    let plans: Vec<QueryGraph> = (1..=instances as u64 + 1)
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
        instances: rest.len(),
        cold_micros,
        hit_micros,
    }
}

struct PipelineNumbers {
    jobs: usize,
    cores: usize,
    serial_micros: u128,
    pool_micros: u128,
}

/// Wall-clock of a plain serial loop vs. `run_many` with one worker per
/// core, on identically seeded services (so view/lock state can't leak
/// between the two sides).
fn bench_run_many(w: &RecurringWorkload, cores: usize) -> PipelineNumbers {
    let service = || {
        let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
        w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
        cv
    };
    let specs = w.jobs_for_instance(0, 0).unwrap();

    let cv = service();
    let start = cv.clock.now();
    let t = Instant::now();
    for spec in &specs {
        cv.run_job_at(spec, RunMode::CloudViews, start).unwrap();
    }
    let serial_micros = t.elapsed().as_micros();

    let cv = service();
    let t = Instant::now();
    let results = cv.run_many(
        specs.clone(),
        RunMode::CloudViews,
        PipelineOptions {
            workers: cores,
            max_in_flight: 2 * cores,
            janitor: false,
        },
    );
    let pool_micros = t.elapsed().as_micros();
    for r in results {
        r.unwrap();
    }

    PipelineNumbers {
        jobs: specs.len(),
        cores,
        serial_micros,
        pool_micros,
    }
}

fn ratio(num: u128, den: u128) -> f64 {
    num as f64 / den.max(1) as f64
}

fn main() {
    let quick = quick();
    let templates = if quick { 60 } else { 500 };
    let instances = if quick { 20 } else { 100 };
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let sizes = [32usize, 128, 512];
    let per_size: Vec<CompileNumbers> =
        sizes.iter().map(|&n| bench_compile(n, instances)).collect();
    for c in &per_size {
        println!(
            "compile_path/compile/{:>3} nodes  cold {:>9.1} µs/job  hit {:>8.1} µs/job  {:.2}x",
            c.nodes,
            ratio(c.cold_micros, c.instances as u128),
            ratio(c.hit_micros, c.instances as u128),
            ratio(c.cold_micros, c.hit_micros)
        );
    }
    let cold_total: u128 = per_size.iter().map(|c| c.cold_micros).sum();
    let hit_total: u128 = per_size.iter().map(|c| c.hit_micros).sum();
    let compile_speedup = ratio(cold_total, hit_total);
    println!(
        "compile_path/compile/total       cold {cold_total:>9} µs  hit {hit_total:>8} µs  {compile_speedup:.2}x"
    );

    eprintln!("compile_path: generating {templates}-template recurring workload ...");
    let w = workload(templates);

    let p = bench_run_many(&w, cores);
    let pool_speedup = ratio(p.serial_micros, p.pool_micros);
    println!(
        "compile_path/serial_loop         {} jobs  {:>10} µs wall",
        p.jobs, p.serial_micros
    );
    println!(
        "compile_path/run_many            {} jobs  {:>10} µs wall  ({} workers)  {:.2}x vs serial",
        p.jobs, p.pool_micros, p.cores, pool_speedup
    );

    // ≥ 4 cores is the acceptance gate for the pool comparison; below that
    // the pool can only add overhead, so the target is not applicable.
    let pool_target_applicable = cores >= 4;
    let size_entries = per_size
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "      {{ \"plan_nodes\": {}, \"instances\": {}, ",
                    "\"cold_total_micros\": {}, \"template_hit_total_micros\": {}, ",
                    "\"speedup\": {:.3} }}"
                ),
                c.nodes,
                c.instances,
                c.cold_micros,
                c.hit_micros,
                ratio(c.cold_micros, c.hit_micros)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"compile_path\",\n",
            "  \"quick\": {quick},\n",
            "  \"cores\": {cores},\n",
            "  \"compile\": {{\n",
            "    \"per_size\": [\n{sizes}\n    ],\n",
            "    \"cold_total_micros\": {cold},\n",
            "    \"template_hit_total_micros\": {hit},\n",
            "    \"speedup\": {cspeed:.3},\n",
            "    \"meets_2x_target\": {cmeets}\n",
            "  }},\n",
            "  \"run_many\": {{\n",
            "    \"jobs\": {pjobs},\n",
            "    \"workers\": {workers},\n",
            "    \"serial_wall_micros\": {serial},\n",
            "    \"pool_wall_micros\": {pool},\n",
            "    \"speedup\": {pspeed:.3},\n",
            "    \"target_applicable\": {papp},\n",
            "    \"beats_serial\": {pbeats}\n",
            "  }}\n",
            "}}\n"
        ),
        quick = quick,
        cores = cores,
        sizes = size_entries,
        cold = cold_total,
        hit = hit_total,
        cspeed = compile_speedup,
        cmeets = compile_speedup >= 2.0,
        pjobs = p.jobs,
        workers = p.cores,
        serial = p.serial_micros,
        pool = p.pool_micros,
        pspeed = pool_speedup,
        papp = pool_target_applicable,
        pbeats = pool_speedup > 1.0,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile_path.json");
    std::fs::write(path, &json).unwrap();
    println!("compile_path: wrote {path}");

    assert!(
        compile_speedup >= 2.0,
        "template hit must be >= 2x faster than cold compile (got {compile_speedup:.2}x)"
    );
    if pool_target_applicable {
        assert!(
            pool_speedup > 1.0,
            "run_many must beat the serial loop on {cores} cores (got {pool_speedup:.2}x)"
        );
    }
}
