//! ISSUE 6 satellite 4 — tier-2 equivalence: every subsumption rewrite the
//! cascade performs must yield outputs **byte-identical** to full
//! recomputation. Each test drives the real runtime end to end: a view job
//! materializes the wider computation (publishing its subsumption
//! descriptor), then a query job whose plan matches only *semantically* —
//! tighter filter, narrower projection, or coarser group-by — reuses it
//! through a compensation plan, and the compensated outputs are compared
//! against a baseline run of the same query with reuse disabled.

use std::sync::Arc;

use cloudviews::analyzer::SelectedView;
use cloudviews::{CloudViews, JobRunReport, RunMode};
use scope_common::ids::{ClusterId, DatasetId, JobId, NodeId, TemplateId, UserId, VcId};
use scope_common::time::{SimDuration, SimTime};
use scope_engine::cost::CostModel;
use scope_engine::data::Table;
use scope_engine::job::JobSpec;
use scope_engine::optimizer::Annotation;
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{
    AggExpr, DataType, Expr, NamedExpr, Operator, PhysicalProps, PlanBuilder, QueryGraph, Schema,
    Value,
};
use scope_signature::sign_graph;

const DATASET: DatasetId = DatasetId::new(31);
const STREAM: &str = "sub/t.ss";

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("g", DataType::Int),
        ("v", DataType::Int),
    ])
}

/// Deterministic table with repeated `(k, g)` pairs so coarser rollups
/// genuinely merge groups, plus enough value spread for filters to bite.
fn table(seed: u64, rows: usize) -> Table {
    let data = (0..rows)
        .map(|i| {
            let x = scope_common::sip64(format!("sub/{seed}/{i}").as_bytes());
            vec![
                Value::Int((x % 7) as i64),
                Value::Int(((x >> 8) % 5) as i64),
                Value::Int(((x >> 16) % 100) as i64),
            ]
        })
        .collect();
    Table::single(schema(), data)
}

fn scan(b: &mut PlanBuilder) -> NodeId {
    b.table_scan(DATASET, STREAM, schema())
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

/// The mined annotation that makes a view job over `stream` materialize
/// `target`.
fn selected(view_graph: &QueryGraph, target: NodeId, stream: &str) -> SelectedView {
    let signed = sign_graph(view_graph).unwrap();
    SelectedView {
        annotation: Annotation {
            normalized: signed.of(target).normalized,
            props: PhysicalProps::any(),
            ttl: SimDuration::from_secs(86_400),
            // Large mined cost so the tier-2 cost gate always favors reuse.
            avg_cpu: SimDuration::from_secs(3_600),
            avg_rows: 100,
            avg_bytes: 10_000,
        },
        input_tags: vec![stream.into()],
        utility: SimDuration::from_secs(10),
        frequency: 2,
        precise_last_seen: signed.of(target).precise,
    }
}

/// Annotates `target` in the view graph so the view job materializes it.
fn annotate(cv: &CloudViews, view_graph: &QueryGraph, target: NodeId) {
    cv.metadata
        .load_annotations(&[selected(view_graph, target, STREAM)]);
}

/// Runs the full cycle: baseline answer for the query, view job builds,
/// query job must take a tier-2 rewrite and match the baseline exactly.
fn assert_tier2_equivalent(
    view_graph: QueryGraph,
    query_graph: QueryGraph,
    target: NodeId,
    seed: u64,
    context: &str,
) {
    let storage = Arc::new(StorageManager::new());
    storage.put_dataset(DATASET, table(seed, 200));
    let cv = CloudViews::builder(storage).build();
    annotate(&cv, &view_graph, target);

    let base = cv
        .run_job_at(
            &spec(1, 0, query_graph.clone()),
            RunMode::Baseline,
            SimTime::ZERO,
        )
        .unwrap();
    let build = cv
        .run_job_at(&spec(2, 1, view_graph), RunMode::CloudViews, cv.clock.now())
        .unwrap();
    assert_eq!(build.views_built.len(), 1, "{context}: view job must build");

    let query = cv
        .run_job_at(
            &spec(3, 2, query_graph),
            RunMode::CloudViews,
            cv.clock.now(),
        )
        .unwrap();
    assert!(
        query.optimizer.tier2_reused >= 1,
        "{context}: query must take a tier-2 rewrite (report: {:?})",
        query.optimizer
    );
    assert_eq!(
        query.views_reused, build.views_built,
        "{context}: the reused view is the one the view job built"
    );
    assert_eq!(
        base.output_checksums, query.output_checksums,
        "{context}: compensated outputs differ from recompute"
    );
    assert_eq!(
        base.output_rows, query.output_rows,
        "{context}: compensated row counts differ from recompute"
    );
    assert!(
        cv.metadata.stats().tier2_hits >= 1,
        "{context}: metadata service must record the tier-2 hit"
    );
}

/// Filter subsumption: the view keeps `v >= 10`, the query needs `v >= 40`.
/// The compensation re-applies the query's own filter over the view scan.
#[test]
fn tier2_filter_residual_matches_recompute() {
    let view = {
        let mut b = PlanBuilder::new();
        let s = scan(&mut b);
        let f = b.filter(s, Expr::col(2).ge(Expr::lit(10i64)));
        b.output(f, "v").build().unwrap()
    };
    let query = {
        let mut b = PlanBuilder::new();
        let s = scan(&mut b);
        let f = b.filter(s, Expr::col(2).ge(Expr::lit(40i64)));
        b.output(f, "q").build().unwrap()
    };
    assert_tier2_equivalent(view, query, NodeId::new(1), 11, "filter residual");
}

/// Projection subsumption: the view projects `(k, v)`, the query only
/// `v` — compensated by re-projecting in the view's output column space.
#[test]
fn tier2_projection_superset_matches_recompute() {
    let view = {
        let mut b = PlanBuilder::new();
        let s = scan(&mut b);
        let p = b.project(
            s,
            vec![
                NamedExpr::new("k", Expr::col(0)),
                NamedExpr::new("v", Expr::col(2)),
            ],
        );
        b.output(p, "v").build().unwrap()
    };
    let query = {
        let mut b = PlanBuilder::new();
        let s = scan(&mut b);
        let p = b.project(s, vec![NamedExpr::new("v", Expr::col(2))]);
        b.output(p, "q").build().unwrap()
    };
    assert_tier2_equivalent(view, query, NodeId::new(1), 13, "projection superset");
}

/// Group-by rollup: the view aggregates by `(k, g)`, the query by `k`
/// alone — compensated by re-aggregating the view with Count folded into
/// Sum over the view's count column.
#[test]
fn tier2_rollup_matches_recompute() {
    let view = {
        let mut b = PlanBuilder::new();
        let s = scan(&mut b);
        let a = b.aggregate(
            s,
            vec![0, 1],
            vec![
                AggExpr::new("n", AggFunc::Count, 2),
                AggExpr::new("hi", AggFunc::Max, 2),
            ],
        );
        b.output(a, "v").build().unwrap()
    };
    let query = {
        let mut b = PlanBuilder::new();
        let s = scan(&mut b);
        let a = b.aggregate(
            s,
            vec![0],
            vec![
                AggExpr::new("n", AggFunc::Count, 2),
                AggExpr::new("hi", AggFunc::Max, 2),
            ],
        );
        b.output(a, "q").build().unwrap()
    };
    assert_tier2_equivalent(view, query, NodeId::new(1), 17, "group-by rollup");
}

/// The reuse gate prices a rewrite with the executor's own price list: the
/// executed `ViewGet` is charged exactly `view_read_cpu` of the view's
/// stored rows and bytes, and a residual filter exactly its `op_cpu` over
/// those rows — the two terms the gate weighed against recompute.
#[test]
fn reuse_gate_pays_what_the_ledger_charges() {
    let graph = |bound: i64, out: &str| {
        let mut b = PlanBuilder::new();
        let s = scan(&mut b);
        let f = b.filter(s, Expr::col(2).ge(Expr::lit(bound)));
        b.output(f, out).build().unwrap()
    };
    let storage = Arc::new(StorageManager::new());
    storage.put_dataset(DATASET, table(23, 200));
    let cv = CloudViews::builder(storage).build();
    let view_graph = graph(10, "v");
    annotate(&cv, &view_graph, NodeId::new(1));
    let build = cv
        .run_job_at(
            &spec(1, 0, view_graph.clone()),
            RunMode::CloudViews,
            SimTime::ZERO,
        )
        .unwrap();
    let precise = build.views_built[0];
    let view = cv
        .metadata
        .view_available_at(precise, cv.clock.now())
        .unwrap();
    let read_price = CostModel.view_read_cpu(view.rows, view.bytes);
    // What the executor charged logical node `root` of job `job`.
    let charged = |job: u64, root: u64| {
        cv.repo.with_records(|records| {
            let record = records.iter().find(|r| r.job == JobId::new(job)).unwrap();
            let run = record
                .subgraphs
                .iter()
                .find(|s| s.info.root == NodeId::new(root));
            run.unwrap().exclusive_cpu
        })
    };

    // Tier 1: the repeat reads the view in place of its filter (node 1).
    let exact = cv
        .run_job_at(&spec(2, 0, view_graph), RunMode::CloudViews, cv.clock.now())
        .unwrap();
    assert_eq!(exact.views_reused, vec![precise]);
    assert_eq!(exact.optimizer.tier2_reused, 0);
    assert_eq!(charged(2, 1), read_price, "tier-1 ViewGet");

    // Tier 2: the scan (node 0) becomes the view read and the query's own
    // filter (node 1) runs over the view's rows as the residual.
    let query = cv
        .run_job_at(
            &spec(3, 1, graph(40, "q")),
            RunMode::CloudViews,
            cv.clock.now(),
        )
        .unwrap();
    assert_eq!(query.views_reused, vec![precise]);
    assert_eq!(query.optimizer.tier2_reused, 1);
    assert_eq!(charged(3, 0), read_price, "tier-2 ViewGet");
    let residual = Operator::Filter {
        predicate: Expr::col(2).ge(Expr::lit(40i64)),
    };
    assert_eq!(
        charged(3, 1),
        CostModel.op_cpu(&residual, view.rows, view.rows, view.bytes),
        "residual filter"
    );
}

/// Property sweep: across many seeds and random bound pairs, whenever the
/// view's filter is at least as wide as the query's, the compensated
/// answer equals recompute. Wider-than-view queries must *not* rewrite.
#[test]
fn tier2_filter_equivalence_holds_across_random_bounds() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    for case in 0u64..12 {
        let mut rng =
            SmallRng::seed_from_u64(scope_common::sip64(format!("sub-prop/{case}").as_bytes()));
        let view_bound = rng.gen_range(0i64..50);
        let query_bound = rng.gen_range(view_bound..100);
        let graph_for = |bound: i64, out: &str| {
            let mut b = PlanBuilder::new();
            let s = scan(&mut b);
            let f = b.filter(s, Expr::col(2).ge(Expr::lit(bound)));
            b.output(f, out).build().unwrap()
        };
        if view_bound == query_bound {
            continue; // identical plans are tier-1 territory
        }
        assert_tier2_equivalent(
            graph_for(view_bound, "v"),
            graph_for(query_bound, "q"),
            NodeId::new(1),
            1_000 + case,
            &format!("bounds case {case}: view>={view_bound} query>={query_bound}"),
        );

        // Inverted direction: a query *wider* than the view must never be
        // served by it — the run still matches baseline (by recompute) and
        // performs no tier-2 rewrite.
        let storage = Arc::new(StorageManager::new());
        storage.put_dataset(DATASET, table(2_000 + case, 200));
        let cv = CloudViews::builder(storage).build();
        let wide_view = graph_for(query_bound, "v");
        let narrow_query = graph_for(view_bound, "q");
        annotate(&cv, &wide_view, NodeId::new(1));
        let base = cv
            .run_job_at(
                &spec(1, 0, narrow_query.clone()),
                RunMode::Baseline,
                SimTime::ZERO,
            )
            .unwrap();
        cv.run_job_at(&spec(2, 1, wide_view), RunMode::CloudViews, cv.clock.now())
            .unwrap();
        let query = cv
            .run_job_at(
                &spec(3, 2, narrow_query),
                RunMode::CloudViews,
                cv.clock.now(),
            )
            .unwrap();
        assert_eq!(
            query.optimizer.tier2_reused, 0,
            "case {case}: narrow view must not serve a wider query"
        );
        assert_eq!(base.output_checksums, query.output_checksums);
    }
}

/// What the cascade adds over exact matching, on one multi-family wave:
/// each family builds a wide view, repeats it once (tier-1 territory) and
/// submits consumers with tighter bounds that only tier 2 can serve. All
/// three claims are simulated quantities, so they hold exactly.
#[test]
fn cascade_serves_every_consumer_and_keeps_lookup_p99_within_ten_percent() {
    const FAMILIES: u64 = 4;
    const CONSUMERS: u64 = 3;
    let stream = |f: u64| format!("sub/f{f}.ss");
    let graph = |f: u64, bound: i64, out: &str| {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(100 + f), stream(f), schema());
        let filtered = b.filter(s, Expr::col(2).ge(Expr::lit(bound)));
        b.output(filtered, out).build().unwrap()
    };
    let view_bound = |f: u64| 5 * f as i64;
    let builders: Vec<JobSpec> = (0..FAMILIES)
        .map(|f| spec(f, f, graph(f, view_bound(f), "view")))
        .collect();
    // Per family: the exact repeat first, then the consumers.
    let mut wave = Vec::new();
    for f in 0..FAMILIES {
        for c in 0..=CONSUMERS {
            let id = 100 + wave.len() as u64;
            wave.push(spec(id, id, graph(f, view_bound(f) + 10 * c as i64, "q")));
        }
    }
    let is_consumer = |i: usize| i as u64 % (CONSUMERS + 1) != 0;
    let annotations: Vec<SelectedView> = (0..FAMILIES)
        .map(|f| selected(&builders[f as usize].graph, NodeId::new(1), &stream(f)))
        .collect();

    let run = |subsumption: bool| {
        let storage = Arc::new(StorageManager::new());
        for f in 0..FAMILIES {
            storage.put_dataset(DatasetId::new(100 + f), table(f, 200));
        }
        let cv = CloudViews::builder(storage)
            .subsumption(subsumption)
            .build();
        cv.metadata.load_annotations(&annotations);
        let built = cv.run_sequence(&builders, RunMode::CloudViews).unwrap();
        assert!(built.iter().all(|r| r.views_built.len() == 1));
        let reports = cv.run_sequence(&wave, RunMode::CloudViews).unwrap();
        let mut lookups: Vec<u64> = reports.iter().map(|r| r.lookup_latency.micros()).collect();
        lookups.sort_unstable();
        let p99 = lookups[(lookups.len() * 99).div_ceil(100) - 1];
        (reports, cv.metadata.stats().tier2_hits, p99)
    };
    let (exact, exact_tier2, exact_p99) = run(false);
    let (cascade, cascade_tier2, cascade_p99) = run(true);

    for (i, r) in cascade.iter().enumerate() {
        assert_eq!(
            r.optimizer.tier2_reused >= 1,
            is_consumer(i),
            "wave job {i}: only consumers take a tier-2 rewrite"
        );
        assert_eq!(r.output_checksums, exact[i].output_checksums, "job {i}");
    }
    let rewrites: usize = cascade.iter().map(|r| r.optimizer.tier2_reused).sum();
    assert_eq!(rewrites as u64, FAMILIES * CONSUMERS);
    // The service offers its family's view to every wave lookup (a repeat's
    // probe is compatible too; the optimizer then serves it by tier 1).
    assert_eq!((exact_tier2, cascade_tier2), (0, wave.len() as u64));
    let hits = |rs: &[JobRunReport]| rs.iter().filter(|r| !r.views_reused.is_empty()).count();
    assert_eq!(
        (hits(&exact), hits(&cascade)),
        (FAMILIES as usize, wave.len()),
        "exact-only serves the repeats, the cascade every wave job"
    );
    assert!(
        cascade_p99 * 100 <= exact_p99 * 110,
        "tier-2 scan pushed p99 lookup to {cascade_p99} µs (exact-only {exact_p99} µs)"
    );
}

/// The cascade stays sound over the full TPC-DS cycle with subsumption on
/// (the default): every query's output remains bit-identical to baseline.
#[test]
fn tpcds_cycle_with_subsumption_stays_bit_identical() {
    use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
    use scope_workload::tpcds::TpcdsWorkload;

    let tpcds = TpcdsWorkload::new(0.03, 1);
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    tpcds.register_data(&cv.storage).unwrap();
    let jobs = tpcds.all_jobs().unwrap();
    let baseline = cv.run_sequence(&jobs, RunMode::Baseline).unwrap();

    let analysis = cv
        .analyze(&AnalyzerConfig {
            policy: SelectionPolicy::TopKUtility { k: 10 },
            constraints: SelectionConstraints::default(),
            ..Default::default()
        })
        .unwrap();
    cv.install_analysis(&analysis);

    let enabled = cv
        .run_sequence(&tpcds.all_jobs().unwrap(), RunMode::CloudViews)
        .unwrap();
    for (b, e) in baseline.iter().zip(&enabled) {
        assert_eq!(
            b.output_checksums, e.output_checksums,
            "q{}: subsumption-enabled run corrupted the answer",
            b.job
        );
        assert_eq!(b.output_rows, e.output_rows);
    }
    assert!(
        enabled.iter().any(|r| !r.views_reused.is_empty()),
        "cycle must still reuse views"
    );
}
