//! Subsumption-cascade benchmark (DESIGN.md §12).
//!
//! Measures what tier-2 semantic matching adds on top of exact-signature
//! reuse, recorded in `BENCH_subsumption.json` at the repo root:
//!
//! 1. **Hit-rate uplift** — a workload of recurring query families where
//!    each family materializes one wide view and then submits one exact
//!    repeat (tier-1 territory) plus several *semantically* matching
//!    consumers (tighter filter bounds — invisible to exact matching).
//!    Exact-only reuse serves only the repeats; the cascade must also
//!    serve every consumer through a compensation plan.
//! 2. **Lookup-latency bound** — the cascade's per-job simulated lookup
//!    latency (base metadata round-trip + tier-2 candidate scan) must keep
//!    p99 within 10% of the exact-only configuration.
//! 3. **Equivalence** — every compensated answer matches a reuse-disabled
//!    baseline run bit for bit.
//!
//! The hit counts and simulated latencies are deterministic, so the gated
//! metrics are noise-free; wall-clock totals are recorded as context only.
//! `BENCH_QUICK=1` shrinks the family count for CI (the artifact notes
//! which variant produced it).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cloudviews::analyzer::SelectedView;
use cloudviews::{CloudViews, RunMode};
use scope_common::ids::{ClusterId, DatasetId, JobId, NodeId, TemplateId, UserId, VcId};
use scope_common::time::SimDuration;
use scope_engine::data::Table;
use scope_engine::job::JobSpec;
use scope_engine::optimizer::Annotation;
use scope_engine::storage::StorageManager;
use scope_plan::{DataType, Expr, PhysicalProps, PlanBuilder, QueryGraph, Schema, Value};
use scope_signature::sign_graph;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
}

fn table(rows: usize) -> Table {
    let data = (0..rows)
        .map(|i| {
            let x = scope_common::sip64(format!("subbench/{i}").as_bytes());
            vec![
                Value::Int((x % 11) as i64),
                Value::Int(((x >> 8) % 100) as i64),
            ]
        })
        .collect();
    Table::single(schema(), data)
}

/// `scan(family stream) → filter(v >= bound) → output`.
fn family_graph(family: usize, bound: i64, out: &str) -> QueryGraph {
    let mut b = PlanBuilder::new();
    let s = b.table_scan(
        DatasetId::new(family as u64 + 1),
        format!("subbench/f{family}.ss"),
        schema(),
    );
    let f = b.filter(s, Expr::col(1).ge(Expr::lit(bound)));
    b.output(f, out).build().unwrap()
}

fn spec(id: u64, template: u64, graph: QueryGraph) -> JobSpec {
    JobSpec {
        id: JobId::new(id),
        cluster: ClusterId::new(0),
        vc: VcId::new(0),
        user: UserId::new(0),
        template: TemplateId::new(template),
        instance: 0,
        graph,
    }
}

struct Workload {
    selected: Vec<SelectedView>,
    builders: Vec<JobSpec>,
    /// One exact repeat per family followed by the subsumable consumers.
    measure: Vec<JobSpec>,
    consumers: usize,
}

fn workload(families: usize, consumers_per_family: usize) -> Workload {
    let mut selected = Vec::new();
    let mut builders = Vec::new();
    let mut measure = Vec::new();
    let mut id = 0u64;
    for f in 0..families {
        let view_bound = (f % 20) as i64;
        let view_graph = family_graph(f, view_bound, "view");
        let signed = sign_graph(&view_graph).unwrap();
        let root = NodeId::new(1);
        selected.push(SelectedView {
            annotation: Annotation {
                normalized: signed.of(root).normalized,
                props: PhysicalProps::any(),
                ttl: SimDuration::from_secs(86_400),
                avg_cpu: SimDuration::from_secs(3_600),
                avg_rows: 100,
                avg_bytes: 10_000,
            },
            input_tags: vec![scope_common::Symbol::intern(&format!("subbench/f{f}.ss"))],
            utility: SimDuration::from_secs(10),
            frequency: 2,
            precise_last_seen: signed.of(root).precise,
        });
        id += 1;
        builders.push(spec(id, f as u64, view_graph.clone()));
        id += 1;
        measure.push(spec(id, f as u64, view_graph));
        for c in 0..consumers_per_family {
            id += 1;
            measure.push(spec(
                id,
                (families + f * consumers_per_family + c) as u64,
                family_graph(f, view_bound + 1 + c as i64, "query"),
            ));
        }
    }
    Workload {
        selected,
        builders,
        measure,
        consumers: families * consumers_per_family,
    }
}

struct RunNumbers {
    reuse_hits: usize,
    tier2_hits: usize,
    p99_lookup_micros: u64,
    wall_micros: u128,
    checksums: Vec<HashMap<String, u64>>,
}

/// Builds the views, then runs the measure wave, collecting hit counts and
/// the p99 simulated lookup latency of the measure jobs.
fn run(w: &Workload, rows: usize, subsumption: bool, mode: RunMode) -> RunNumbers {
    let storage = Arc::new(StorageManager::new());
    let t = table(rows);
    for f in 0..w.builders.len() {
        storage.put_dataset(DatasetId::new(f as u64 + 1), t.clone());
    }
    let cv = CloudViews::builder(storage)
        .subsumption(subsumption)
        .build();
    cv.metadata.load_annotations(&w.selected);
    let built: usize = cv
        .run_sequence(&w.builders, mode)
        .unwrap()
        .iter()
        .map(|r| r.views_built.len())
        .sum();
    if mode == RunMode::CloudViews {
        assert_eq!(built, w.builders.len(), "every family must build its view");
    }
    let wall = Instant::now();
    let reports = cv.run_sequence(&w.measure, mode).unwrap();
    let wall_micros = wall.elapsed().as_micros();
    let mut lookups: Vec<u64> = reports.iter().map(|r| r.lookup_latency.micros()).collect();
    lookups.sort_unstable();
    let p99 = lookups[((lookups.len() as f64 * 0.99).ceil() as usize - 1).min(lookups.len() - 1)];
    RunNumbers {
        reuse_hits: reports
            .iter()
            .filter(|r| !r.views_reused.is_empty())
            .count(),
        tier2_hits: reports.iter().map(|r| r.optimizer.tier2_reused).sum(),
        p99_lookup_micros: p99,
        wall_micros,
        checksums: reports.iter().map(|r| r.output_checksums.clone()).collect(),
    }
}

fn main() {
    let quick = quick();
    let families = if quick { 8 } else { 24 };
    let consumers_per_family = if quick { 2 } else { 4 };
    let rows = if quick { 200 } else { 1_000 };
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let w = workload(families, consumers_per_family);
    let jobs = w.measure.len();

    let baseline = run(&w, rows, false, RunMode::Baseline);
    let exact = run(&w, rows, false, RunMode::CloudViews);
    let cascade = run(&w, rows, true, RunMode::CloudViews);

    let tier1_hit_rate = exact.reuse_hits as f64 / jobs as f64;
    let cascade_hit_rate = cascade.reuse_hits as f64 / jobs as f64;
    let tier2_hit_rate = cascade.tier2_hits as f64 / jobs as f64;
    let uplift = cascade_hit_rate - tier1_hit_rate;
    let p99_ratio = cascade.p99_lookup_micros as f64 / exact.p99_lookup_micros.max(1) as f64;
    let results_equivalent =
        baseline.checksums == exact.checksums && baseline.checksums == cascade.checksums;

    println!(
        "subsumption/exact    hits {:>3}/{jobs}  p99 lookup {:>7} µs  ({} µs wall)",
        exact.reuse_hits, exact.p99_lookup_micros, exact.wall_micros,
    );
    println!(
        "subsumption/cascade  hits {:>3}/{jobs}  p99 lookup {:>7} µs  ({} µs wall)  tier2 {}",
        cascade.reuse_hits, cascade.p99_lookup_micros, cascade.wall_micros, cascade.tier2_hits,
    );
    println!(
        "subsumption/uplift   +{:.1}% hit rate  p99 ratio {:.3}  equivalent={}",
        uplift * 100.0,
        p99_ratio,
        results_equivalent,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"subsumption\",\n",
            "  \"quick\": {quick},\n",
            "  \"cores\": {cores},\n",
            "  \"families\": {families},\n",
            "  \"consumers_per_family\": {cpf},\n",
            "  \"measure_jobs\": {jobs},\n",
            "  \"tier1_hit_rate\": {t1:.3},\n",
            "  \"tier2_hit_rate\": {t2:.3},\n",
            "  \"cascade_hit_rate\": {ch:.3},\n",
            "  \"hit_rate_uplift\": {up:.3},\n",
            "  \"uplift_positive\": {upok},\n",
            "  \"exact_p99_lookup_micros\": {ep99},\n",
            "  \"cascade_p99_lookup_micros\": {cp99},\n",
            "  \"p99_sim_ratio\": {pr:.4},\n",
            "  \"p99_within_10pct\": {prok},\n",
            "  \"results_equivalent\": {eq},\n",
            "  \"exact_wall_micros\": {ew},\n",
            "  \"cascade_wall_micros\": {cw}\n",
            "}}\n"
        ),
        quick = quick,
        cores = cores,
        families = families,
        cpf = consumers_per_family,
        jobs = jobs,
        t1 = tier1_hit_rate,
        t2 = tier2_hit_rate,
        ch = cascade_hit_rate,
        up = uplift,
        upok = uplift > 0.0,
        ep99 = exact.p99_lookup_micros,
        cp99 = cascade.p99_lookup_micros,
        pr = p99_ratio,
        prok = p99_ratio <= 1.10,
        eq = results_equivalent,
        ew = exact.wall_micros,
        cw = cascade.wall_micros,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_subsumption.json");
    std::fs::write(path, &json).unwrap();
    println!("subsumption: wrote {path}");

    assert!(
        results_equivalent,
        "compensated outputs diverged from baseline"
    );
    assert_eq!(
        cascade.tier2_hits, w.consumers,
        "every subsumable consumer must take a tier-2 rewrite"
    );
    assert!(
        uplift > 0.0,
        "cascade must lift the hit rate over exact-only (tier1 {tier1_hit_rate:.3}, \
         cascade {cascade_hit_rate:.3})"
    );
    assert!(
        p99_ratio <= 1.10,
        "tier-2 scan pushed p99 lookup latency {p99_ratio:.3}x over exact-only (bound 1.10x)"
    );
}
