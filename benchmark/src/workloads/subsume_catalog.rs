//! `subsume_catalog` — a deep view catalog, metadata- and optimizer-bound.
//!
//! Set-up builds the catalog the way the service does: `F` query families
//! (filter / projection / rollup roots over a family stream) each run one
//! *builder* job per live instance (`V` input GUIDs per family), so every
//! family's annotation ends up with `V` registered views that all carry a
//! subsumption descriptor. The measured phase runs *consumer* jobs, mixed
//! 1 exact repeat : 4 tier-2-subsumed (tighter interval / narrower
//! projection / coarser rollup) : 1 non-matching, each against one random
//! (family, instance). Every lookup walks its family's `V` candidates and
//! the optimizer runs the full subsumption check on the survivors. Tables
//! are tiny, so Execute owns little. One client, closed loop, in memory.
//!
//! Why it exists: `cloudviews::metadata`'s tier-2 scan is O(probed views)
//! and `scope-engine::optimizer`'s cascade runs per survivor — a sublinear
//! candidate index or a cheaper cascade shows here, where `tpcds_reuse`
//! (ten annotations, no probe ever hits) predicts no change.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cloudviews::analyzer::SelectedView;
use cloudviews::{CloudViews, JobRunReport, RunMode};
use rand::Rng;
use scope_common::ids::{ClusterId, DatasetId, JobId, NodeId, TemplateId, UserId, VcId};
use scope_common::time::{SimDuration, SimTime};
use scope_common::Symbol;
use scope_engine::data::Table;
use scope_engine::job::JobSpec;
use scope_engine::optimizer::Annotation;
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{
    AggExpr, DataType, Expr, NamedExpr, PhysicalProps, PlanBuilder, QueryGraph, Schema, Value,
};
use scope_signature::sign_graph;
use scope_workload::dists::rng_for;

use super::{
    corrupt_checksums, design_check, set_end_to_end, set_layer_metrics, set_tail,
    set_template_hit_rate, sim_cpu_saved_pct, timed_job, timed_setups, total_cpu, write_trace_file,
    MetaCounts, Samples,
};
use crate::replay::{replay_job, ReplayCounts};
use crate::report::RunReport;
use crate::spans::{durations_us, Recorder};
use crate::stats::{loose_percentile, median};
use crate::util::{job_list_hash, Config, Deadline, Size};

/// Catalog shape: families × live instances per family, rows per input
/// table, consumer jobs in the pool.
#[derive(Clone, Copy, Debug)]
struct Shape {
    families: usize,
    instances: usize,
    rows: usize,
    consumers: usize,
}

/// The measured fixture: 64 × 80 = 5,120 registered views, 6,000 consumer
/// jobs. 64-row tables keep Execute under a third of a job's wall; 80
/// candidates per lookup put the tier-2 scan and the cascade above half.
const FULL: Shape = Shape {
    families: 64,
    instances: 80,
    rows: 64,
    consumers: 6_000,
};
const TINY: Shape = Shape {
    families: 6,
    instances: 4,
    rows: 32,
    consumers: 60,
};

/// Builders run at time zero; consumers an hour later, inside the views'
/// week-long TTL, all pinned to one instant so the catalog they see is
/// the same on every pass.
const BUILD_AT: SimTime = SimTime::ZERO;
const CONSUME_AT: SimTime = SimTime(3_600_000_000);
const VIEW_TTL: SimDuration = SimDuration(7 * 86_400 * 1_000_000);

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("g", DataType::Int),
        ("v", DataType::Int),
    ])
}

fn table(seed: u64, family: usize, instance: usize, rows: usize) -> Table {
    let data = (0..rows)
        .map(|i| {
            let x =
                scope_common::sip64(format!("subsume/{seed}/{family}/{instance}/{i}").as_bytes());
            vec![
                Value::Int((x % 11) as i64),
                Value::Int(((x >> 8) % 4) as i64),
                Value::Int(((x >> 16) % 100) as i64),
            ]
        })
        .collect();
    Table::single(schema(), data)
}

fn dataset(shape: &Shape, family: usize, instance: usize) -> DatasetId {
    DatasetId::new((family * shape.instances + instance) as u64 + 1)
}

/// What a job's root does relative to its family's view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    /// The view's own subgraph (builders and exact repeats).
    View,
    /// Subsumed by the view; `u8` picks among a few tightenings.
    Subsumed(u8),
    /// Same child, but nothing the view can serve.
    Unrelated(u8),
}

/// `scan(family stream, instance GUID) → root → output`. The family's kind
/// (`family % 3`) decides the root: interval filter, projection, rollup.
fn job_graph(
    shape: &Shape,
    family: usize,
    instance: usize,
    variant: Variant,
    out: &str,
) -> QueryGraph {
    let mut b = PlanBuilder::new();
    let s = b.table_scan(
        dataset(shape, family, instance),
        format!("subsume/f{family}.ss"),
        schema(),
    );
    let lo = 20 + (family % 20) as i64;
    let root = match (family % 3, variant) {
        (0, Variant::View) => b.filter(s, Expr::col(2).ge(Expr::lit(lo))),
        (0, Variant::Subsumed(d)) => {
            let d = i64::from(d);
            let pred = Expr::col(2).ge(Expr::lit(lo + 1 + d));
            let pred = if d % 2 == 1 {
                pred.and(Expr::col(2).lt(Expr::lit(lo + 40 + d)))
            } else {
                pred
            };
            b.filter(s, pred)
        }
        (0, Variant::Unrelated(d)) => {
            b.filter(s, Expr::col(2).ge(Expr::lit(lo - 1 - i64::from(d))))
        }
        (1, Variant::View) => b.project(
            s,
            vec![
                NamedExpr::new("k", Expr::col(0)),
                NamedExpr::new("v", Expr::col(2)),
                NamedExpr::new("dv", Expr::col(2).mul(Expr::lit(2i64))),
                NamedExpr::new("kv", Expr::col(0).add(Expr::col(2))),
            ],
        ),
        (1, Variant::Subsumed(d)) => {
            let all = [
                NamedExpr::new("double", Expr::col(2).mul(Expr::lit(2i64))),
                NamedExpr::new("key", Expr::col(0)),
                NamedExpr::new("sum", Expr::col(0).add(Expr::col(2))),
                NamedExpr::new("val", Expr::col(2)),
            ];
            let n = 1 + usize::from(d) % 3;
            let from = usize::from(d) % all.len();
            b.project(
                s,
                (0..n)
                    .map(|i| all[(from + i) % all.len()].clone())
                    .collect(),
            )
        }
        (1, Variant::Unrelated(d)) => b.project(
            s,
            vec![NamedExpr::new(
                "scaled",
                Expr::col(2).mul(Expr::lit(3 + i64::from(d))),
            )],
        ),
        (_, Variant::View) => b.aggregate(
            s,
            vec![0, 1],
            vec![
                AggExpr::new("n", AggFunc::Count, 2),
                AggExpr::new("sv", AggFunc::Sum, 2),
                AggExpr::new("mx", AggFunc::Max, 2),
            ],
        ),
        (_, Variant::Subsumed(d)) => {
            let key = usize::from(d) % 2;
            let agg = match d % 3 {
                0 => AggExpr::new("total", AggFunc::Sum, 2),
                1 => AggExpr::new("cnt", AggFunc::Count, 2),
                _ => AggExpr::new("top", AggFunc::Max, 2),
            };
            b.aggregate(s, vec![key], vec![agg])
        }
        (_, Variant::Unrelated(d)) => b.aggregate(
            s,
            vec![usize::from(d) % 2],
            vec![AggExpr::new("low", AggFunc::Min, 2)],
        ),
    };
    b.output(root, out).build().expect("family plan builds")
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

/// One annotation per family, keyed by the normalized signature its
/// builders share (the input GUID is not part of it).
fn annotations(shape: &Shape) -> Vec<SelectedView> {
    (0..shape.families)
        .map(|f| {
            let g = job_graph(shape, f, 0, Variant::View, "view");
            let signed = sign_graph(&g).expect("family plan signs");
            let root = signed.of(NodeId::new(1));
            SelectedView {
                annotation: Annotation {
                    normalized: root.normalized,
                    props: PhysicalProps::any(),
                    ttl: VIEW_TTL,
                    avg_cpu: SimDuration::from_secs(3_600),
                    avg_rows: 100,
                    avg_bytes: 10_000,
                },
                input_tags: vec![Symbol::intern(&format!("subsume/f{f}.ss"))],
                utility: SimDuration::from_secs(10),
                frequency: 2,
                precise_last_seen: root.precise,
            }
        })
        .collect()
}

/// The consumer pool: 1 exact : 4 subsumed : 1 unrelated, over uniformly
/// drawn (family, instance) pairs.
fn consumers(shape: &Shape, instances: usize, seed: u64, first_id: u64) -> Vec<JobSpec> {
    let mut rng = rng_for(seed, "subsume_catalog/consumers");
    (0..shape.consumers)
        .map(|i| {
            let f = rng.gen_range(0..shape.families);
            let v = rng.gen_range(0..instances);
            let d: u8 = rng.gen_range(0..12);
            let variant = match i % 6 {
                0 => Variant::View,
                5 => Variant::Unrelated(d),
                _ => Variant::Subsumed(d),
            };
            let id = first_id + i as u64;
            spec(
                id,
                1_000_000 + id,
                job_graph(shape, f, v, variant, &format!("q{id}")),
            )
        })
        .collect()
}

struct Fixture {
    cv: CloudViews,
    pool: Vec<JobSpec>,
    baseline: HashMap<JobId, JobRunReport>,
    views: usize,
}

/// Builds a service whose catalog holds `instances` views per family, and
/// the consumer pool over it with its Baseline reference.
fn setup(cfg: &Config, shape: &Shape, instances: usize) -> Fixture {
    let storage = Arc::new(StorageManager::new());
    for f in 0..shape.families {
        for v in 0..instances {
            storage.put_dataset(dataset(shape, f, v), table(cfg.seed, f, v, shape.rows));
        }
    }
    let cv = CloudViews::builder(storage).build();
    cv.metadata
        .load_annotations_at(&annotations(shape), BUILD_AT);
    let mut id = 0u64;
    for f in 0..shape.families {
        for v in 0..instances {
            id += 1;
            let builder = spec(id, f as u64, job_graph(shape, f, v, Variant::View, "view"));
            let r = cv
                .run_job_at(&builder, RunMode::CloudViews, BUILD_AT)
                .expect("builder job");
            assert_eq!(
                r.views_built.len(),
                1,
                "every builder materializes its view"
            );
        }
    }
    let views = cv.metadata.num_views();
    let pool = consumers(shape, instances, cfg.seed, id + 1);
    // Baseline pass: the correctness reference and the warm-up.
    let mut baseline: HashMap<JobId, JobRunReport> = pool
        .iter()
        .map(|s| {
            let r = cv
                .run_job_at(s, RunMode::Baseline, CONSUME_AT)
                .expect("baseline consumer");
            (r.job, r)
        })
        .collect();
    cv.repo.clear();
    if cfg.corrupt_one_checksum {
        let r = baseline.get_mut(&pool[0].id).expect("first consumer ran");
        corrupt_checksums(&mut r.output_checksums);
    }
    Fixture {
        cv,
        pool,
        baseline,
        views,
    }
}

/// One pass over the pool through the shipped driver. Consumers never
/// build (their templates carry no annotation), so the catalog is the same
/// before every pass; the repository is emptied after each so memory does
/// not grow with the number of passes a run completes.
fn service_pass(fx: &Fixture, report: &mut RunReport, samples: &mut Samples) -> Vec<JobRunReport> {
    let mut out = Vec::with_capacity(fx.pool.len());
    for s in &fx.pool {
        let expected = &fx.baseline[&s.id].output_checksums;
        if let Some(r) = timed_job(&fx.cv, s, CONSUME_AT, expected, report, samples) {
            out.push(r);
        }
    }
    fx.cv.repo.clear();
    out
}

/// One pass over the pool through the replay, checked job for job against
/// the service's reports when given; returns its seconds at reference
/// speed.
fn replay_pass(
    fx: &Fixture,
    rec: &Recorder,
    counts: &mut ReplayCounts,
    service: Option<&[JobRunReport]>,
    report: &mut RunReport,
) -> f64 {
    let mut timing = Samples::default();
    for (i, s) in fx.pool.iter().enumerate() {
        let t = Instant::now();
        let replayed = replay_job(
            &fx.cv,
            s,
            RunMode::CloudViews,
            CONSUME_AT,
            rec,
            None,
            counts,
        );
        timing.push_op(t.elapsed().as_secs_f64());
        match replayed {
            Ok(r) => {
                if let Some(expected) = service.and_then(|s| s.get(i)) {
                    let divergence = r.divergence(expected);
                    report.oracle.check(divergence.is_none(), || {
                        format!(
                            "replay fidelity, job {}: {}",
                            r.job,
                            divergence.unwrap_or_default()
                        )
                    });
                }
            }
            Err(e) => report
                .oracle
                .fail(|| format!("replay of job {} failed: {e}", s.id)),
        }
    }
    timing.close_stretch();
    fx.cv.repo.clear();
    timing.busy_s
}

/// Runs the workload.
pub fn run(cfg: &Config) -> RunReport {
    let shape = match cfg.size {
        Size::Full => FULL,
        Size::Tiny => TINY,
    };
    let mut report = RunReport::default();
    let (fx, setup_s) = timed_setups(cfg, || setup(cfg, &shape, shape.instances));
    report.note("families", shape.families);
    report.note("instances_per_family", shape.instances);
    report.note("rows_per_table", shape.rows);
    report.note("registered_views", fx.views);
    report.note("consumer_pool", fx.pool.len());
    report.note("job_list_hash", job_list_hash(&fx.pool));
    report.note("clients", 1);
    report.note("threads", 1);
    report
        .oracle
        .check(fx.views == shape.families * shape.instances, || {
            format!(
                "catalog holds {} views, expected {}",
                fx.views,
                shape.families * shape.instances
            )
        });
    let base_cpu = total_cpu(fx.baseline.values());

    if !cfg.trace {
        let mut samples = Samples::default();
        let deadline = Deadline::after(cfg.seconds);
        let mut passes = 0u64;
        let mut saved = 0.0;
        while passes == 0 || !deadline.passed() {
            let reports = service_pass(&fx, &mut report, &mut samples);
            saved = sim_cpu_saved_pct(base_cpu, total_cpu(&reports));
            passes += 1;
        }
        report.note("passes", passes);
        report.note("sim_cpu_saved_pct", format!("{saved:.3}"));
        set_end_to_end(&mut report, &setup_s, &mut samples);
        return report;
    }

    // Traced run: service pass, replay with spans off, replay with spans
    // on, in alternating order; the same service serves all three because
    // consumers leave the catalog untouched.
    let traced = Recorder::new(true);
    let untraced = Recorder::new(false);
    let mut counts = ReplayCounts::default();
    let mut meta = MetaCounts::default();
    let (mut vs_service, mut overhead) = (Vec::new(), Vec::new());
    let mut saved = 0.0;
    let mut tier2_jobs = 0usize;
    // The shallow catalog is part of this run's budget.
    let deadline = Deadline::after(cfg.seconds * 0.8);
    let mut rounds = 0u64;
    let mut samples = Samples::default();
    while rounds == 0 || !deadline.passed() {
        let busy_before = samples.busy_s;
        let service = service_pass(&fx, &mut report, &mut samples);
        samples.close_stretch();
        let service_s = samples.busy_s - busy_before;
        saved = sim_cpu_saved_pct(base_cpu, total_cpu(&service));
        tier2_jobs = service
            .iter()
            .filter(|r| r.optimizer.tier2_reused > 0)
            .count();
        let mut scratch = ReplayCounts::default();
        let mut off = 0.0;
        if rounds % 2 == 0 {
            off = replay_pass(&fx, &untraced, &mut scratch, None, &mut report);
        }
        let before = MetaCounts::of(&fx.cv.metadata.stats());
        let on = replay_pass(&fx, &traced, &mut counts, Some(&service), &mut report);
        meta.add(MetaCounts::of(&fx.cv.metadata.stats()).since(before));
        if rounds % 2 == 1 {
            off = replay_pass(&fx, &untraced, &mut scratch, None, &mut report);
        }
        vs_service.push(on / service_s);
        overhead.push(on / off - 1.0);
        rounds += 1;
    }
    report.note("rounds", rounds);
    report.note("tier2_jobs_per_pass", tier2_jobs);
    set_template_hit_rate(&mut report, &fx.cv.templates.stats());
    let pool = fx.pool.len();
    report.oracle.check(tier2_jobs * 6 == pool * 4, || {
        format!("{tier2_jobs} of {pool} consumers took a tier-2 rewrite, expected 4 in 6")
    });

    // Same jobs against a catalog a tenth as deep: what the lookup costs
    // when there is little to scan.
    let shallow_instances = (shape.instances / 10).max(1);
    let shallow = setup(cfg, &shape, shallow_instances);
    let shallow_rec = Recorder::new(true);
    let mut scratch = ReplayCounts::default();
    replay_pass(&shallow, &shallow_rec, &mut scratch, None, &mut report);
    let shallow_spans = shallow_rec.into_spans();
    report.note("shallow_instances_per_family", shallow_instances);

    let spans = traced.into_spans();
    let t = set_layer_metrics(&mut report, &spans, &counts, &meta);
    report.set(
        "meta.lookup_us_p50_shallow",
        loose_percentile(&durations_us(&shallow_spans, "meta.lookup"), 50.0),
    );
    report.set("reuse.sim_cpu_saved_pct", saved);
    set_tail(&mut report, &mut samples);
    let ratio = median(&vs_service);
    report.set("trace.replay_vs_service_ratio", ratio);
    report.set("trace.overhead_frac", median(&overhead));
    design_check(&mut report, cfg, "exec.share", t.share("exec"), 0.0, 0.3);
    design_check(
        &mut report,
        cfg,
        "meta.share + opt.share",
        t.share("meta") + t.share("opt"),
        0.5,
        1.0,
    );
    design_check(
        &mut report,
        cfg,
        "trace.layer_sum_ratio",
        t.layer_sum_ratio(),
        0.9,
        1.1,
    );
    design_check(
        &mut report,
        cfg,
        "trace.replay_vs_service_ratio",
        ratio,
        0.9,
        1.1,
    );
    // One pass is plenty to read; every pass is in the metrics above.
    let one_pass = &spans[..spans.len() / rounds as usize];
    write_trace_file(&mut report, "subsume_catalog", one_pass);
    report
}
