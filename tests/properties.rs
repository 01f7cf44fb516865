//! Property-based tests for the DESIGN.md §6 invariants.
//!
//! The centerpiece generates *random plans*, runs them through the complete
//! CloudViews cycle (baseline → annotate a random subgraph → build → reuse),
//! and asserts output equality — the paper's correctness requirement under
//! arbitrary plan shapes, not just the curated workloads.
//!
//! The cases are driven by a deterministic seeded loop (`for_cases`) instead
//! of an external property-testing crate: each test draws its inputs from
//! the documented ranges using the workspace RNG, so failures reproduce
//! exactly and no crates.io dependency is needed.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_common::hash::Sig128;
use scope_common::ids::{ClusterId, DatasetId, JobId, NodeId, TemplateId, UserId, VcId};
use scope_common::time::{SimDuration, SimTime};
use scope_engine::cost::CostModel;
use scope_engine::data::{multiset_checksum, Table};
use scope_engine::exec::execute_plan;
use scope_engine::job::JobSpec;
use scope_engine::optimizer::{optimize, NoViewServices, OptimizerConfig};
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{
    AggExpr, DataType, Expr, Operator, Partitioning, PlanBuilder, QueryGraph, Schema, SortKey,
    SortOrder, Udo, UdoKind, Value,
};
use scope_signature::sign_graph;

#[path = "support/rowref.rs"]
mod rowref;

/// Number of random cases per property (mirrors the old proptest config).
const CASES: usize = 24;

/// Runs `body` for `CASES` deterministic case-seeds. Each failure message
/// carries the case seed, so any counterexample replays exactly.
fn for_cases(test_name: &str, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(scope_common::sip64(
            format!("{test_name}/{case}").as_bytes(),
        ));
        body(&mut rng);
    }
}

fn base_schema() -> Schema {
    Schema::from_pairs(&[
        ("user", DataType::Int),
        ("item", DataType::Int),
        ("val", DataType::Float),
        ("ts", DataType::Date),
    ])
}

fn random_table(rng: &mut SmallRng, rows: usize) -> Table {
    let data = (0..rows)
        .map(|_| {
            vec![
                Value::Int(rng.gen_range(0..40)),
                Value::Int(rng.gen_range(0..1000)),
                Value::Float((rng.gen_range(-50.0_f64..50.0) * 10.0).round() / 10.0),
                Value::Date(rng.gen_range(0..100)),
            ]
        })
        .collect();
    Table::single(base_schema(), data)
}

/// Builds a random schema-preserving plan over the 4-column base schema.
/// Returns the graph; all interior ops keep the same column layout so any
/// node can stack on any other.
fn random_plan(seed: u64, dataset: DatasetId) -> QueryGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = PlanBuilder::new();
    let mut branches: Vec<scope_common::ids::NodeId> = Vec::new();
    let n_branches = rng.gen_range(1..=2);
    for _ in 0..n_branches {
        let mut cur = b.table_scan(dataset, "prop/<date>/t.ss", base_schema());
        for _ in 0..rng.gen_range(1..=5) {
            cur = match rng.gen_range(0..8) {
                0 => b.filter(
                    cur,
                    Expr::col(rng.gen_range(0..2)).ge(Expr::lit(rng.gen_range(0..30) as i64)),
                ),
                1 => b.exchange(
                    cur,
                    Partitioning::Hash {
                        cols: vec![rng.gen_range(0..2)],
                        parts: rng.gen_range(2..6),
                    },
                ),
                2 => b.sort(cur, SortOrder(vec![SortKey::asc(rng.gen_range(0..4))])),
                3 => b.top(cur, rng.gen_range(5..50), SortOrder(vec![SortKey::desc(2)])),
                4 => b.process(
                    cur,
                    Udo::new(
                        UdoKind::ClampOutliers {
                            col: 2,
                            lo: -10,
                            hi: rng.gen_range(10..40),
                        },
                        "PropLib",
                        "1.0",
                    ),
                ),
                5 => b.reduce(
                    cur,
                    Udo::new(
                        UdoKind::TrimBand {
                            col: 1,
                            gap: rng.gen_range(0..5),
                        },
                        "PropLib",
                        "1.0",
                    ),
                    vec![0],
                ),
                6 => b.nop(cur),
                _ => b.spool(cur),
            };
        }
        branches.push(cur);
    }
    let merged = if branches.len() == 1 {
        branches[0]
    } else {
        b.union_all(branches)
    };
    // Optional final aggregate (changes schema; fine at the top).
    let top = if rng.gen_bool(0.5) {
        b.aggregate(
            merged,
            vec![0],
            vec![
                AggExpr::new("cnt", AggFunc::Count, 1),
                AggExpr::new("sum_val", AggFunc::Sum, 2),
            ],
        )
    } else {
        merged
    };
    b.write(top, "prop/out/<date>/r.ss").build().unwrap()
}

fn storage_with_table(seed: u64, dataset: DatasetId) -> StorageManager {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
    let storage = StorageManager::new();
    storage.put_dataset(dataset, random_table(&mut rng, 400));
    storage
}

/// Any random plan optimizes, executes, and produces identical output
/// multisets at every optimizer configuration (enforcers must never
/// change results).
#[test]
fn optimizer_preserves_semantics() {
    for_cases("optimizer_preserves_semantics", |case_rng| {
        let seed = case_rng.gen_range(0u64..10_000);
        let dataset = DatasetId::new(9);
        let graph = random_plan(seed, dataset);
        let storage = storage_with_table(seed, dataset);
        let model = CostModel;
        let mut checksums = Vec::new();
        for dop in [2usize, 8] {
            let cfg = OptimizerConfig {
                default_dop: dop,
                ..Default::default()
            };
            let plan = optimize(&graph, &[], &NoViewServices, &cfg, JobId::new(1)).unwrap();
            let exec = execute_plan(&plan.physical, &storage, &model, SimTime::ZERO).unwrap();
            let out = exec.outputs.values().next().unwrap();
            checksums.push((out.num_rows(), multiset_checksum(out)));
        }
        assert_eq!(
            checksums[0], checksums[1],
            "dop changed the answer (seed {seed})"
        );
    });
}

/// The full CloudViews cycle on a random plan: job A builds a view over
/// an annotated subgraph, job B (same computation, different output)
/// reuses it; both match the baseline bit-for-bit.
#[test]
fn reuse_cycle_preserves_semantics() {
    for_cases("reuse_cycle_preserves_semantics", |case_rng| {
        use cloudviews::analyzer::SelectedView;
        use cloudviews::{CloudViews, RunMode};
        use scope_engine::optimizer::Annotation;
        use scope_plan::PhysicalProps;

        let seed = case_rng.gen_range(0u64..10_000);
        let node_pick = case_rng.gen_range(0usize..64);
        let dataset = DatasetId::new(9);
        let graph = random_plan(seed, dataset);
        let storage = Arc::new(storage_with_table(seed, dataset));
        let cv = CloudViews::builder(storage).build();

        // Pick a random non-leaf, non-output node to annotate as a view.
        let candidates: Vec<NodeId> = graph
            .nodes()
            .iter()
            .filter(|n| !n.children.is_empty() && !matches!(n.op, Operator::Output { .. }))
            .map(|n| n.id)
            .collect();
        if candidates.is_empty() {
            return; // assume(): nothing to annotate in this shape
        }
        let target = candidates[node_pick % candidates.len()];
        let signed = sign_graph(&graph).unwrap();
        let selected = SelectedView {
            annotation: Annotation {
                normalized: signed.of(target).normalized,
                props: PhysicalProps::hashed(vec![0], 4),
                ttl: SimDuration::from_secs(86_400),
                // Large mined cost so the cost-based check always reuses.
                avg_cpu: SimDuration::from_secs(3_600),
                avg_rows: 100,
                avg_bytes: 10_000,
            },
            input_tags: vec!["prop/<date>/t.ss".into()],
            utility: SimDuration::from_secs(10),
            frequency: 2,
            precise_last_seen: signed.of(target).precise,
        };
        cv.metadata.load_annotations(&[selected]);

        let spec = |id: u64, graph: QueryGraph| JobSpec {
            id: JobId::new(id),
            cluster: ClusterId::new(0),
            vc: VcId::new(0),
            user: UserId::new(0),
            template: TemplateId::new(0),
            instance: 0,
            graph,
        };

        // Baseline answer.
        let base = cv
            .run_job_at(&spec(1, graph.clone()), RunMode::Baseline, SimTime::ZERO)
            .unwrap();
        // Builder (acquires the lock, materializes the view).
        let build = cv
            .run_job_at(&spec(2, graph.clone()), RunMode::CloudViews, cv.clock.now())
            .unwrap();
        // Reuser (same plan again; the view now exists).
        let reuse = cv
            .run_job_at(&spec(3, graph.clone()), RunMode::CloudViews, cv.clock.now())
            .unwrap();

        assert_eq!(
            &base.output_checksums, &build.output_checksums,
            "seed {seed}"
        );
        assert_eq!(
            &base.output_checksums, &reuse.output_checksums,
            "seed {seed}"
        );
        assert_eq!(
            build.views_built.len(),
            1,
            "builder must build (seed {seed})"
        );
        // The annotated subgraph may occur more than once in the random
        // plan (duplicated branches); every occurrence is rewritten.
        assert!(
            !reuse.views_reused.is_empty(),
            "reuser must reuse (seed {seed})"
        );
    });
}

/// After lowering, every operator's required properties are satisfied
/// by what its children actually deliver.
#[test]
fn enforcers_satisfy_requirements() {
    for_cases("enforcers_satisfy_requirements", |case_rng| {
        let seed = case_rng.gen_range(0u64..10_000);
        let graph = random_plan(seed, DatasetId::new(9));
        let cfg = OptimizerConfig::default();
        let plan = optimize(&graph, &[], &NoViewServices, &cfg, JobId::new(1)).unwrap();
        let phys = &plan.physical;
        // Recompute delivered props bottom-up.
        let mut delivered: Vec<scope_plan::PhysicalProps> = Vec::with_capacity(phys.len());
        for node in phys.nodes() {
            let child_props: Vec<_> = node
                .children
                .iter()
                .map(|c| delivered[c.index()].clone())
                .collect();
            let reqs = node.op.required_props(node.children.len(), cfg.default_dop);
            for (i, &child) in node.children.iter().enumerate() {
                if let Some(req) = reqs.get(i) {
                    assert!(
                        req.satisfied_by(&delivered[child.index()]),
                        "node {} ({}) requirement {} unsatisfied by child delivering {} (seed {})",
                        node.id,
                        node.op.describe(),
                        req.describe(),
                        delivered[child.index()].describe(),
                        seed
                    );
                }
            }
            delivered.push(node.op.delivered_props(&child_props));
        }
    });
}

/// Golden-hash snapshot: the interned-symbol signature path must produce
/// byte-identical Merkle hashes to the pre-interning string path. Each
/// digest below folds every node's (precise, normalized) pair of a random
/// plan, in arena order, through `sip64`; the constants were captured by
/// running the same fold on the commit immediately before the interner
/// landed. Any change to what bytes feed the signature hasher — symbol
/// tables, normalization memos, template caching — trips this test.
#[test]
fn golden_signatures_match_pre_interning_snapshot() {
    const GOLDEN: [(u64, u64); 8] = [
        (0, 0xe6f454b873a78ed4),
        (1, 0xddf0904696acbd3a),
        (2, 0xa4d3f393f841567e),
        (3, 0x5761f330d186e9fd),
        (4, 0xdce1144471443ff1),
        (5, 0x26b10f04b622303a),
        (6, 0x8b1a7d5a6dd239a4),
        (7, 0xd04512a67129e23f),
    ];
    for (seed, expected) in GOLDEN {
        let graph = random_plan(seed, DatasetId::new(777));
        let signed = sign_graph(&graph).unwrap();
        let mut bytes = Vec::new();
        for sig in signed.all() {
            bytes.extend_from_slice(&sig.precise.hi.to_le_bytes());
            bytes.extend_from_slice(&sig.precise.lo.to_le_bytes());
            bytes.extend_from_slice(&sig.normalized.hi.to_le_bytes());
            bytes.extend_from_slice(&sig.normalized.lo.to_le_bytes());
        }
        assert_eq!(
            scope_common::sip64(&bytes),
            expected,
            "signature drift from the pre-interning snapshot (seed {seed})"
        );
    }
}

/// Template-cache equivalence: compiling through a warm cache (normalized
/// skeleton hit) must produce exactly the signatures, subgraph records, and
/// job tags of a cold compile — for the *recurring instance* case too,
/// where the second graph differs only in its input GUID.
#[test]
fn template_cache_hit_is_equivalent_to_cold_compile() {
    use scope_signature::{enumerate_subgraphs, job_tags, TemplateCache};
    for_cases("template_cache_hit_equivalence", |case_rng| {
        let seed = case_rng.gen_range(0u64..10_000);
        let cache = TemplateCache::new();

        // Instance 0: cold compile, then an exact re-compile (hit).
        let g0 = random_plan(seed, DatasetId::new(100));
        let cold = cache.compile(&g0).unwrap();
        assert!(!cold.template_hit, "first compile must miss (seed {seed})");
        let hit = cache.compile(&g0).unwrap();
        assert!(hit.template_hit, "second compile must hit (seed {seed})");

        // Instance 1: same template, new GUID — still a hit, because the
        // normalized skeleton is GUID-invariant.
        let g1 = random_plan(seed, DatasetId::new(200));
        let next = cache.compile(&g1).unwrap();
        assert!(
            next.template_hit,
            "recurring instance must hit (seed {seed})"
        );

        // Every compile, hit or miss, must equal the from-scratch path.
        for (graph, compiled) in [(&g0, &cold), (&g0, &hit), (&g1, &next)] {
            let signed = sign_graph(graph).unwrap();
            let infos = enumerate_subgraphs(graph).unwrap();
            let tags = job_tags(graph);
            assert_eq!(compiled.infos, infos, "seed {seed}");
            assert_eq!(compiled.tags, tags, "seed {seed}");
            for (node, reference) in compiled.signed.all().iter().zip(signed.all()) {
                assert_eq!(node.precise, reference.precise, "seed {seed}");
                assert_eq!(node.normalized, reference.normalized, "seed {seed}");
            }
        }
    });
}

/// Recurring-delta invariance: rebinding GUIDs and date parameters
/// changes every precise signature on the path but no normalized one.
#[test]
fn signature_normalization_invariant() {
    for_cases("signature_normalization_invariant", |case_rng| {
        let seed = case_rng.gen_range(0u64..10_000);
        let g0 = random_plan(seed, DatasetId::new(100));
        let g1 = random_plan(seed, DatasetId::new(200)); // same shape, new GUID
        let s0 = sign_graph(&g0).unwrap();
        let s1 = sign_graph(&g1).unwrap();
        for (a, b) in s0.all().iter().zip(s1.all()) {
            assert_eq!(a.normalized, b.normalized, "seed {seed}");
        }
        // The roots' precise signatures must differ (they read new data).
        let r0 = g0.roots()[0];
        assert_ne!(s0.of(r0).precise, s1.of(r0).precise, "seed {seed}");
    });
}

/// The multiset checksum is invariant under arbitrary repartitioning.
#[test]
fn checksum_invariant_under_repartition() {
    for_cases("checksum_invariant_under_repartition", |case_rng| {
        let seed = case_rng.gen_range(0u64..10_000);
        let parts = case_rng.gen_range(1usize..9);
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = random_table(&mut rng, 200);
        let by_hash = t.hash_repartition(&[0], parts).unwrap();
        let by_rr = t.round_robin_repartition(parts).unwrap();
        let gathered = by_hash.gather();
        let c = multiset_checksum(&t);
        assert_eq!(multiset_checksum(&by_hash), c, "seed {seed} parts {parts}");
        assert_eq!(multiset_checksum(&by_rr), c, "seed {seed} parts {parts}");
        assert_eq!(multiset_checksum(&gathered), c, "seed {seed} parts {parts}");
    });
}

/// Cost model monotonicity: more rows never costs less.
#[test]
fn cost_monotone() {
    for_cases("cost_monotone", |case_rng| {
        let rows_a = case_rng.gen_range(0u64..1_000_000);
        let rows_b = case_rng.gen_range(0u64..1_000_000);
        let (lo, hi) = if rows_a <= rows_b {
            (rows_a, rows_b)
        } else {
            (rows_b, rows_a)
        };
        let model = CostModel;
        for op in [
            Operator::Filter {
                predicate: Expr::lit(true),
            },
            Operator::Sort {
                order: SortOrder::asc(&[0]),
            },
            Operator::Exchange {
                scheme: Partitioning::Single,
            },
            Operator::Aggregate {
                keys: vec![0],
                aggs: vec![],
                implementation: scope_plan::op::AggImpl::Hash,
            },
        ] {
            let c_lo = model.op_cpu(&op, lo, lo, lo * 8);
            let c_hi = model.op_cpu(&op, hi, hi, hi * 8);
            assert!(
                c_lo <= c_hi,
                "{} regressed ({lo} vs {hi} rows)",
                op.describe()
            );
        }
    });
}

/// Shared fixture for the metadata-catalog properties below: `n` analyzer
/// annotations, each tagged with its own input plus one shared tag.
fn catalog_test_annotations(n: usize, ttl: SimDuration) -> Vec<cloudviews::analyzer::SelectedView> {
    use cloudviews::analyzer::SelectedView;
    use scope_common::Symbol;
    use scope_engine::optimizer::Annotation;
    use scope_plan::PhysicalProps;
    (0..n)
        .map(|i| SelectedView {
            annotation: Annotation {
                normalized: scope_common::sip128(format!("shard-prop/norm/{i}").as_bytes()),
                props: PhysicalProps::any(),
                ttl,
                avg_cpu: SimDuration::from_secs(10),
                avg_rows: 100,
                avg_bytes: 1_000,
            },
            input_tags: vec![
                Symbol::intern(&format!("shard-prop/tag/{i}")),
                Symbol::intern("shard-prop/tag/shared"),
            ],
            utility: SimDuration::from_secs(30),
            frequency: 2,
            precise_last_seen: Sig128::ZERO,
        })
        .collect()
}

/// DESIGN.md §10 purge invariant: after any purge no lookup returns an
/// annotation whose views have all expired and whose GC horizon has
/// lapsed, and the inverted index holds exactly the postings of the
/// surviving annotations (the dead-view leak, had it survived, trips the
/// posting-count assert).
#[test]
fn purge_never_leaks_dead_annotations() {
    for_cases("purge_never_leaks_dead_annotations", |rng| {
        use cloudviews::{LookupRequest, MetadataService, ReportRequest};
        use scope_common::time::SimClock;
        use scope_common::Symbol;
        use scope_engine::optimizer::AvailableView;
        use scope_plan::PhysicalProps;

        let clock = Arc::new(SimClock::new());
        let m = MetadataService::new(Arc::clone(&clock), 1);
        let ttl = SimDuration::from_secs(3_600);
        let selected = catalog_test_annotations(rng.gen_range(4..32), ttl);
        m.load_annotations(&selected);

        // One view per annotation, each with its own expiry; registration
        // renews the annotation's GC horizon to view-expiry + ttl.
        let mut view_expiry = Vec::new();
        for (i, s) in selected.iter().enumerate() {
            let expires = SimTime::ZERO + SimDuration::from_secs(rng.gen_range(10..1_000));
            view_expiry.push(expires);
            m.register(ReportRequest::new(
                AvailableView {
                    precise: scope_common::sip128(format!("shard-prop/precise/{i}").as_bytes()),
                    rows: 10,
                    bytes: 100,
                    props: PhysicalProps::any(),
                },
                s.annotation.normalized,
                JobId::new(i as u64),
                SimTime::ZERO,
                expires,
            ));
        }

        let now = clock.advance(SimDuration::from_secs(rng.gen_range(0..6_000)));
        m.purge_expired();

        let mut live = 0usize;
        for (i, s) in selected.iter().enumerate() {
            let horizon = view_expiry[i] + ttl;
            let expect_live = horizon > now;
            live += expect_live as usize;
            let r = m
                .lookup(&LookupRequest::new(
                    JobId::new(1_000 + i as u64),
                    &[s.input_tags[0]],
                    now,
                ))
                .unwrap();
            let returned = r
                .annotations
                .iter()
                .any(|a| a.normalized == s.annotation.normalized);
            assert_eq!(
                returned, expect_live,
                "annotation {i}: horizon {horizon} vs now {now}"
            );
        }
        assert_eq!(m.num_annotations(), live);
        // Exactly two postings per surviving annotation: its own tag plus
        // the shared one. Any excess is a leaked back-reference.
        assert_eq!(m.num_inverted_entries(), 2 * live);
        let shared = m
            .lookup(&LookupRequest::new(
                JobId::new(9_999),
                &[Symbol::intern("shard-prop/tag/shared")],
                now,
            ))
            .unwrap();
        assert_eq!(shared.annotations.len(), live);
    });
}

/// ISSUE 6 satellite 1 — clock-skew regression: tier-2 candidate
/// visibility is decided against the *caller's pinned lookup time* (the
/// job's submission time), never the service's live clock. A service whose
/// clock has raced ahead (or lagged behind) must return exactly the
/// views that were live at the pinned instant: nothing before
/// `view_available_at`, nothing at-or-after expiry.
#[test]
fn tier2_lookup_pins_caller_time_under_clock_skew() {
    for_cases("tier2_lookup_pins_caller_time_under_clock_skew", |rng| {
        use cloudviews::{LookupRequest, MetadataService, ReportRequest};
        use scope_common::time::SimClock;
        use scope_common::Symbol;
        use scope_engine::optimizer::AvailableView;
        use scope_plan::{PhysicalProps, PlanBuilder};
        use scope_signature::SubsumeDescriptor;

        // A view filtered wide (v >= 0) and a query probe filtered tight
        // (v >= 10): the probe is compatible, so visibility is purely a
        // question of time-window filtering.
        let descriptor_for = |bound: i64| {
            let mut b = PlanBuilder::new();
            let s = b.table_scan(
                DatasetId::new(1),
                "skew/a.ss",
                Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
            );
            let f = b.filter(s, Expr::col(1).ge(Expr::lit(bound)));
            let g = b.output(f, "o").build().unwrap();
            let signed = sign_graph(&g).unwrap();
            let root = NodeId::new(1);
            let desc = SubsumeDescriptor::of(&g, root, signed.of(NodeId::new(0)).precise).unwrap();
            (signed.of(root).precise, signed.of(root).normalized, desc)
        };
        let (view_precise, view_norm, view_desc) = descriptor_for(0);
        let (_, _, probe) = descriptor_for(10);

        let clock = Arc::new(SimClock::new());
        let m = MetadataService::new(Arc::clone(&clock), 1);
        m.load_annotations(&[cloudviews::analyzer::SelectedView {
            annotation: scope_engine::optimizer::Annotation {
                normalized: view_norm,
                props: PhysicalProps::any(),
                ttl: SimDuration::from_secs(86_400),
                avg_cpu: SimDuration::from_secs(10),
                avg_rows: 100,
                avg_bytes: 1_000,
            },
            input_tags: vec![Symbol::intern("skew/a.ss")],
            utility: SimDuration::from_secs(30),
            frequency: 2,
            precise_last_seen: view_precise,
        }]);

        let created = SimTime::ZERO + SimDuration::from_secs(rng.gen_range(100..1_000));
        let expires = created + SimDuration::from_secs(rng.gen_range(100..1_000));
        m.register(
            ReportRequest::new(
                AvailableView {
                    precise: view_precise,
                    rows: 10,
                    bytes: 100,
                    props: PhysicalProps::any(),
                },
                view_norm,
                JobId::new(1),
                created,
                expires,
            )
            .with_descriptor(Some(view_desc)),
        );

        // Skew the service's live clock to an arbitrary point — possibly
        // far past expiry — and probe at pinned times on both sides of
        // every boundary. The live clock must not influence the answer.
        clock.advance(SimDuration::from_secs(rng.gen_range(0..10_000)));
        let tags = [Symbol::intern("skew/a.ss")];
        let probes = std::slice::from_ref(&probe);
        for (at, expect) in [
            (SimTime::ZERO, false),
            (created + SimDuration::ZERO, true),
            (
                created
                    + SimDuration::from_secs(rng.gen_range(0..(expires.0 - created.0) / 1_000_000)),
                true,
            ),
            (expires, false),
            (expires + SimDuration::from_secs(1), false),
        ] {
            let r = m
                .lookup(&LookupRequest::new(JobId::new(2), &tags, at).with_probes(probes.to_vec()))
                .unwrap();
            assert_eq!(
                r.annotations.len(),
                1,
                "tier-1 annotations are time-agnostic"
            );
            assert_eq!(
                r.tier2.len(),
                expect as usize,
                "pinned at {at}: created {created}, expires {expires}, live {}",
                clock.now()
            );
            if expect {
                assert_eq!(r.tier2[0].view.precise, view_precise);
            }
        }
    });
}

/// The dead-view leak regression (ISSUE 4 acceptance): 1,000 recurring
/// instances, each registering fresh precise views that expire before the
/// next instance, must leave every metadata cardinality bounded by the
/// loaded analysis — not growing with instance count — and once
/// registrations stop and the GC horizon lapses, the service drains to
/// empty.
#[test]
fn thousand_recurring_instances_stay_bounded() {
    use cloudviews::{MetadataService, ReportRequest};
    use scope_common::time::SimClock;
    use scope_engine::optimizer::AvailableView;
    use scope_plan::PhysicalProps;

    let clock = Arc::new(SimClock::new());
    let m = MetadataService::new(Arc::clone(&clock), 1);
    let ttl = SimDuration::from_secs(3_600);
    const K: usize = 4;
    let selected = catalog_test_annotations(K, ttl);
    m.load_annotations(&selected);

    for instance in 0..1_000u64 {
        let now = clock.now();
        for (k, s) in selected.iter().enumerate() {
            m.register(ReportRequest::new(
                AvailableView {
                    precise: scope_common::sip128(
                        format!("bounded/inst/{instance}/{k}").as_bytes(),
                    ),
                    rows: 10,
                    bytes: 100,
                    props: PhysicalProps::any(),
                },
                s.annotation.normalized,
                JobId::new(instance * K as u64 + k as u64),
                now,
                now + SimDuration::from_secs(50),
            ));
        }
        clock.advance(SimDuration::from_secs(100));
        // The background janitor: one purge per job-sized step.
        m.purge_expired();
        if instance % 50 == 49 {
            assert!(
                m.num_views() <= K,
                "instance {instance}: {} live views",
                m.num_views()
            );
            assert_eq!(m.num_annotations(), K, "instance {instance}");
            assert_eq!(m.num_inverted_entries(), 2 * K, "instance {instance}");
        }
    }

    let swept = m.purge_expired();
    assert_eq!(swept.annotations_purged, 0, "horizons are still renewed");
    assert_eq!(m.num_annotations(), K);
    assert!(m.num_views() <= K);

    // Registrations stop; once the last view's horizon lapses everything
    // drains — annotations, postings, buckets, views.
    clock.advance(SimDuration::from_secs(50 + 3_600 + 1));
    let swept = m.purge_expired();
    assert_eq!(swept.annotations_purged, K);
    assert_eq!(m.num_views(), 0);
    assert_eq!(m.num_annotations(), 0);
    assert_eq!(m.num_inverted_entries(), 0);
    assert_eq!(m.num_tag_buckets(), 0);
    assert!(m.stats().purged_annotations >= K as u64);
}

/// Concurrent stress: many threads mixing lookups, proposals,
/// registrations, and purges against one service, plus the expired-lock
/// takeover race — exactly one of the contending threads may win the
/// lapsed lock.
#[test]
fn concurrent_shard_stress_with_single_takeover_winner() {
    use cloudviews::{LockOutcome, LookupRequest, MetadataService, ProposeRequest, ReportRequest};
    use scope_common::time::SimClock;
    use scope_engine::optimizer::AvailableView;
    use scope_plan::PhysicalProps;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const THREADS: u64 = 8;
    const OPS: u64 = 200;

    let clock = Arc::new(SimClock::new());
    let m = MetadataService::new(Arc::clone(&clock), 1);
    const K: usize = 16;
    let selected = catalog_test_annotations(K, SimDuration::from_secs(3_600));
    m.load_annotations(&selected);

    // Seed a build lock whose TTL lapses before the threads start.
    let contested = scope_common::sip128(b"stress/contested");
    assert_eq!(
        m.propose(&ProposeRequest::new(
            contested,
            JobId::new(0),
            SimDuration::from_secs(10),
            clock.now()
        ))
        .unwrap(),
        LockOutcome::Acquired
    );
    clock.advance(SimDuration::from_secs(11));
    let now = clock.now();

    let takeover_wins = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let m = &m;
            let selected = &selected;
            let takeover_wins = &takeover_wins;
            scope.spawn(move || {
                // The takeover race: every thread sees the same expired
                // lock; the catalog lock must elect one winner.
                match m
                    .propose(&ProposeRequest::new(
                        contested,
                        JobId::new(100 + t),
                        SimDuration::from_secs(60),
                        now,
                    ))
                    .unwrap()
                {
                    LockOutcome::Acquired => {
                        takeover_wins.fetch_add(1, Ordering::SeqCst);
                    }
                    LockOutcome::AlreadyLocked => {}
                    LockOutcome::AlreadyMaterialized => {
                        panic!("contested view was never materialized")
                    }
                }
                // Mixed traffic: lookups on the shared annotations,
                // builds of thread-unique views (half released via
                // registration, half left locked), and purges
                // interleaved throughout.
                for i in 0..OPS {
                    let s = &selected[((t + i) % K as u64) as usize];
                    let r = m
                        .lookup(&LookupRequest::new(
                            JobId::new(1_000 + t),
                            &[s.input_tags[0]],
                            now,
                        ))
                        .unwrap();
                    assert!(
                        r.annotations
                            .iter()
                            .any(|a| a.normalized == s.annotation.normalized),
                        "lookup lost a loaded annotation mid-stress"
                    );
                    let precise = scope_common::sip128(format!("stress/{t}/{i}").as_bytes());
                    assert_eq!(
                        m.propose(&ProposeRequest::new(
                            precise,
                            JobId::new(1_000 + t),
                            SimDuration::from_secs(60),
                            now
                        ))
                        .unwrap(),
                        LockOutcome::Acquired,
                        "thread-unique signature must never conflict"
                    );
                    if i % 2 == 0 {
                        m.register(ReportRequest::new(
                            AvailableView {
                                precise,
                                rows: 10,
                                bytes: 100,
                                props: PhysicalProps::any(),
                            },
                            s.annotation.normalized,
                            JobId::new(1_000 + t),
                            now,
                            now + SimDuration::from_secs(1_000),
                        ));
                    }
                    if i % 32 == 0 {
                        m.purge_expired();
                    }
                }
            });
        }
    });

    assert_eq!(takeover_wins.load(Ordering::SeqCst), 1);
    let stats = m.stats();
    assert_eq!(stats.expired_takeovers, 1);
    // Registered views all survive (they expire well after `now`), and the
    // annotations they renewed are all intact.
    assert_eq!(m.num_views(), (THREADS * OPS / 2) as usize);
    assert_eq!(m.num_annotations(), K);
    assert_eq!(m.num_inverted_entries(), 2 * K);
    // Unreleased thread-unique locks plus the takeover winner's.
    assert_eq!(m.num_locks(), (THREADS * OPS / 2) as usize + 1);
    assert!(stats.lookups >= THREADS * OPS);
}

// ---------------------------------------------------------------------------
// PR 8 satellite 3 — columnar executor vs row-reference differential suite
// ---------------------------------------------------------------------------

/// Wider schema for the executor differential: integer join keys, a dense
/// and a sparse int, a float, a date, and a string column, so every typed
/// column kernel (and the null-mask path of each) gets exercised.
fn diff_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("amt", DataType::Float),
        ("day", DataType::Date),
        ("tag", DataType::Str),
    ])
}

/// Random table over [`diff_schema`]; roughly 8% NULLs per cell when
/// `with_nulls`, including in join/group keys (NULL keys never join but do
/// form their own group — both kernels must agree on that).
fn random_diff_table(rng: &mut SmallRng, rows: usize, with_nulls: bool) -> Table {
    let tags = ["news", "video", "shop", "mail", "search"];
    let cell = |rng: &mut SmallRng, v: Value| {
        if with_nulls && rng.gen_bool(0.08) {
            Value::Null
        } else {
            v
        }
    };
    let data = (0..rows)
        .map(|_| {
            let k = Value::Int(rng.gen_range(0..12));
            let v = Value::Int(rng.gen_range(0..100));
            let amt = Value::Float((rng.gen_range(-50.0_f64..50.0) * 10.0).round() / 10.0);
            let day = Value::Date(rng.gen_range(0..50));
            let tag = Value::Str(tags[rng.gen_range(0..tags.len())].into());
            vec![
                cell(rng, k),
                cell(rng, v),
                cell(rng, amt),
                cell(rng, day),
                cell(rng, tag),
            ]
        })
        .collect();
    Table::single(diff_schema(), data)
}

/// One random schema-compatible unary operator on `cur`. Operators that
/// append columns (window, tokenize) are fine mid-chain: downstream ops only
/// reference columns 0..5.
fn random_diff_unary(
    b: &mut PlanBuilder,
    rng: &mut SmallRng,
    cur: NodeId,
    used_windows: &mut [bool; 3],
) -> NodeId {
    use scope_plan::op::WindowFunc;
    use scope_plan::{NamedExpr, ScalarFunc};
    match rng.gen_range(0..14) {
        0 => b.filter(
            cur,
            Expr::col(rng.gen_range(0..2)).ge(Expr::lit(rng.gen_range(0..40) as i64)),
        ),
        1 => b.filter(cur, Expr::col(4).eq(Expr::lit("news"))),
        // Conjunction over nullable columns: 3-valued logic differential.
        2 => b.filter(
            cur,
            Expr::col(0)
                .ge(Expr::lit(rng.gen_range(0..8) as i64))
                .and(Expr::col(1).lt(Expr::lit(rng.gen_range(40..90) as i64))),
        ),
        3 => b.project(
            cur,
            vec![
                NamedExpr::new("k", Expr::col(0)),
                NamedExpr::new("v2", Expr::col(0).add(Expr::col(1))),
                NamedExpr::new("amt", Expr::col(2).mul(Expr::lit(2.0))),
                NamedExpr::new("day", Expr::col(3)),
                NamedExpr::new("tag", Expr::col(4)),
            ],
        ),
        4 => b.project(
            cur,
            vec![
                NamedExpr::new("k", Expr::col(0).modulo(Expr::lit(5i64))),
                NamedExpr::new("v", Expr::col(1)),
                NamedExpr::new("yr", Expr::func(ScalarFunc::Year, vec![Expr::col(3)])),
                NamedExpr::new("day", Expr::col(3)),
                NamedExpr::new("tagl", Expr::func(ScalarFunc::Len, vec![Expr::col(4)])),
            ],
        ),
        5 => b.remap(
            cur,
            vec![0, 1, 2, 3, 4],
            ["a", "b", "c", "d", "e"].map(String::from).to_vec(),
        ),
        6 => {
            let col = rng.gen_range(0..5);
            let key = if rng.gen_bool(0.5) {
                SortKey::asc(col)
            } else {
                SortKey::desc(col)
            };
            b.sort(cur, SortOrder(vec![key]))
        }
        7 => b.top(
            cur,
            rng.gen_range(5..60),
            SortOrder(vec![SortKey::desc(rng.gen_range(0..5))]),
        ),
        8 => b.exchange(
            cur,
            match rng.gen_range(0..4) {
                0 => Partitioning::Hash {
                    cols: vec![rng.gen_range(0..2)],
                    parts: rng.gen_range(2..6),
                },
                1 => Partitioning::Range {
                    col: rng.gen_range(0..2),
                    parts: rng.gen_range(2..6),
                },
                2 => Partitioning::RoundRobin {
                    parts: rng.gen_range(2..6),
                },
                _ => Partitioning::Single,
            },
        ),
        9 => {
            // Each window func names its output column after itself; a
            // second use would collide, so each appears at most once.
            let pick = rng.gen_range(0..3);
            if used_windows[pick] {
                return b.nop(cur);
            }
            used_windows[pick] = true;
            let func = match pick {
                0 => WindowFunc::RowNumber,
                1 => WindowFunc::Rank,
                _ => WindowFunc::RunningSum(1),
            };
            b.window(cur, func, vec![0], SortOrder(vec![SortKey::asc(1)]))
        }
        10 => b.process(
            cur,
            Udo::new(
                UdoKind::ClampOutliers {
                    col: 2,
                    lo: -10,
                    hi: rng.gen_range(10..40),
                },
                "DiffLib",
                "1.0",
            ),
        ),
        11 => b.reduce(
            cur,
            Udo::new(
                UdoKind::TrimBand {
                    col: 1,
                    gap: rng.gen_range(0..5),
                },
                "DiffLib",
                "1.0",
            ),
            vec![0],
        ),
        12 => b.gb_apply(
            cur,
            Udo::new(
                UdoKind::TopPerGroup {
                    col: 1,
                    n: rng.gen_range(1..4),
                },
                "DiffLib",
                "1.0",
            ),
            vec![0],
        ),
        _ => b.spool(cur),
    }
}

/// A random plan exercising every executor operator family: scans (plain,
/// range-predicated, extract), unary chains, a join of random kind, an
/// optional union, and an optional terminal aggregate.
fn random_diff_plan(seed: u64, d1: DatasetId, d2: DatasetId) -> QueryGraph {
    use scope_plan::JoinKind;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = PlanBuilder::new();
    let mut used_windows = [false; 3];

    let scan = |b: &mut PlanBuilder, rng: &mut SmallRng, d: DatasetId| match rng.gen_range(0..4) {
        0 => b.range_scan(
            d,
            "diff/<date>/t.ss",
            diff_schema(),
            Expr::col(3).lt(Expr::lit(Value::Date(rng.gen_range(10..50)))),
        ),
        1 => b.extract(
            d,
            "diff/<date>/raw.ss",
            diff_schema(),
            Udo::new(UdoKind::Tokenize { col: 4 }, "DiffLib", "1.0"),
        ),
        _ => b.table_scan(d, "diff/<date>/t.ss", diff_schema()),
    };

    let mut top = if rng.gen_bool(0.7) {
        let mut left = scan(&mut b, &mut rng, d1);
        for _ in 0..rng.gen_range(1..=4) {
            left = random_diff_unary(&mut b, &mut rng, left, &mut used_windows);
        }
        let mut right = scan(&mut b, &mut rng, d2);
        for _ in 0..rng.gen_range(0..=3) {
            right = random_diff_unary(&mut b, &mut rng, right, &mut used_windows);
        }
        let kind = match rng.gen_range(0..3) {
            0 => JoinKind::Inner,
            1 => JoinKind::LeftOuter,
            _ => JoinKind::LeftSemi,
        };
        let (lk, rk) = if rng.gen_bool(0.7) {
            (vec![0], vec![0])
        } else {
            (vec![0, 1], vec![0, 1])
        };
        b.join(left, right, kind, lk, rk)
    } else {
        // Union first (both branches still carry the base schema), chain on
        // top — type-changing projections (or extract's appended token
        // column) would break branch compatibility.
        let a = b.table_scan(d1, "diff/<date>/t.ss", diff_schema());
        let c = if rng.gen_bool(0.5) {
            b.table_scan(d2, "diff/<date>/u.ss", diff_schema())
        } else {
            b.range_scan(
                d2,
                "diff/<date>/u.ss",
                diff_schema(),
                Expr::col(3).lt(Expr::lit(Value::Date(rng.gen_range(10..50)))),
            )
        };
        let u = b.union_all(vec![a, c]);
        random_diff_unary(&mut b, &mut rng, u, &mut used_windows)
    };
    for _ in 0..rng.gen_range(0..=2) {
        top = random_diff_unary(&mut b, &mut rng, top, &mut used_windows);
    }
    if rng.gen_bool(0.5) {
        top = b.aggregate(
            top,
            vec![0],
            vec![
                AggExpr::new("cnt", AggFunc::Count, 1),
                AggExpr::new("sum_v", AggFunc::Sum, 1),
                AggExpr::new("avg_amt", AggFunc::Avg, 2),
                AggExpr::new("min_day", AggFunc::Min, 3),
                AggExpr::new("max_tag", AggFunc::Max, 4),
                AggExpr::new("uniq", AggFunc::CountDistinct, 1),
            ],
        );
    }
    b.write(top, "diff/out/<date>/r.ss").build().unwrap()
}

/// Randomly flips physical implementation choices the optimizer rarely
/// picks (stream aggregation, loops joins) so the differential covers those
/// kernels too. Both executors run the *same* patched plan, so semantic
/// oddities (e.g. stream agg over unsorted input) must still agree.
fn patch_physical(rng: &mut SmallRng, phys: &mut QueryGraph) {
    use scope_plan::op::AggImpl;
    use scope_plan::JoinImpl;
    let ids: Vec<NodeId> = phys.nodes().iter().map(|n| n.id).collect();
    for id in ids {
        let node = phys.node_mut(id).unwrap();
        match &mut node.op {
            Operator::Aggregate { implementation, .. } if rng.gen_bool(0.3) => {
                *implementation = AggImpl::Stream;
            }
            Operator::Join { implementation, .. } if rng.gen_bool(0.25) => {
                *implementation = JoinImpl::Loops;
            }
            _ => {}
        }
    }
}

/// Runs one graph through both executors and asserts byte-identical
/// results: every node's stats (rows, bytes, simulated CPU) and every
/// node's table — schema, physical properties, partition count, and
/// per-partition row *order*, not just multisets.
fn assert_executors_agree(graph: &QueryGraph, storage: &StorageManager, context: &str) {
    let model = CostModel;
    let columnar = execute_plan(graph, storage, &model, SimTime::ZERO).unwrap();
    let rowwise = rowref::execute_plan_rows(graph, storage, &model, SimTime::ZERO).unwrap();
    assert_eq!(
        columnar.node_stats, rowwise.node_stats,
        "NodeRuntimeStats diverged ({context})"
    );
    for (i, (ct, rt)) in columnar
        .node_tables
        .iter()
        .zip(&rowwise.node_tables)
        .enumerate()
    {
        let describe = || graph.node(NodeId::new(i as u64)).unwrap().op.describe();
        let rt = rt.to_table();
        assert_eq!(
            *ct,
            rt,
            "node {i} table diverged ({context}: {})",
            describe()
        );
        // `Value` equality holds between `Int(3)` and `Float(3.0)`; the
        // checksum hashes each cell's type tag, so it pins cell types too.
        assert_eq!(
            multiset_checksum(ct),
            multiset_checksum(&rt),
            "node {i} cell types diverged ({context}: {})",
            describe()
        );
    }
    assert_eq!(
        columnar.outputs.len(),
        rowwise.outputs.len(),
        "output set diverged ({context})"
    );
    for (name, ct) in &columnar.outputs {
        assert_eq!(
            *ct,
            rowwise.outputs[name].to_table(),
            "output {name} diverged ({context})"
        );
    }
}

/// PR 8 tentpole invariant: on random plans covering every operator family
/// — with NULLs in keys and payloads, random partitioning, stream/loops
/// implementation flips, and empty-input edge cases — the columnar executor
/// is *byte-identical* to the row-at-a-time reference executor, statistics
/// included.
#[test]
fn columnar_executor_matches_row_reference() {
    for_cases("columnar_executor_matches_row_reference", |case_rng| {
        let seed = case_rng.gen_range(0u64..100_000);
        let (d1, d2) = (DatasetId::new(11), DatasetId::new(12));
        let graph = random_diff_plan(seed, d1, d2);
        let storage = StorageManager::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xbeef);
        // Occasionally empty or tiny inputs: zero-row partitions and
        // empty-side joins must agree too.
        let rows1 = [0, 3, 200, 400][rng.gen_range(0..4)];
        let rows2 = [0, 5, 150][rng.gen_range(0..3)];
        storage.put_dataset(d1, random_diff_table(&mut rng, rows1, true));
        storage.put_dataset(d2, random_diff_table(&mut rng, rows2, true));

        let cfg = OptimizerConfig {
            default_dop: [1usize, 2, 8][rng.gen_range(0..3)],
            ..Default::default()
        };
        let plan = optimize(&graph, &[], &NoViewServices, &cfg, JobId::new(1)).unwrap();
        let mut phys = plan.physical.clone();
        patch_physical(&mut rng, &mut phys);
        assert_executors_agree(&phys, &storage, &format!("seed {seed}"));
    });
}

/// The same differential pinned on the real workload: every TPC-DS query's
/// optimized plan produces identical [`scope_engine::NodeRuntimeStats`] —
/// the EXPERIMENTS.md figures and the analyzer's mined statistics cannot
/// drift with the executor's data layout.
#[test]
fn columnar_stats_match_row_reference_on_tpcds() {
    use scope_workload::tpcds::{TpcdsWorkload, NUM_QUERIES};
    let tpcds = TpcdsWorkload::new(0.03, 1);
    let storage = StorageManager::new();
    tpcds.register_data(&storage).unwrap();
    let cfg = OptimizerConfig::default();
    for q in 1..=NUM_QUERIES {
        let job = tpcds.query_job(q).unwrap();
        let plan = optimize(&job.graph, &[], &NoViewServices, &cfg, job.id).unwrap();
        assert_executors_agree(&plan.physical, &storage, &format!("tpcds q{q}"));
    }
}

/// The shape the TPC-DS plans share — fact ⋈ dim ⋈ dim → two columns —
/// over NULL-bearing keys, floats, dates and strings: byte-identical to the
/// row reference like every other plan, and because no operator between the
/// scans and the final projection reads the other thirteen columns, the
/// columnar executor copies under a quarter of the cells the row engine
/// builds (every node's rows × width).
#[test]
fn star_join_matches_row_reference_and_copies_a_quarter_of_its_cells() {
    use scope_plan::expr::NamedExpr;
    use scope_plan::JoinKind;
    let (fact, dim1, dim2) = (DatasetId::new(21), DatasetId::new(22), DatasetId::new(23));
    let mut rng = SmallRng::seed_from_u64(0x57a2);
    let storage = StorageManager::new();
    storage.put_dataset(fact, random_diff_table(&mut rng, 6_000, true));
    storage.put_dataset(dim1, random_diff_table(&mut rng, 30, true));
    storage.put_dataset(dim2, random_diff_table(&mut rng, 120, true));

    let mut b = PlanBuilder::new();
    let f = b.table_scan(fact, "star/fact.ss", diff_schema());
    let d1 = b.table_scan(dim1, "star/dim1.ss", diff_schema());
    let d2 = b.table_scan(dim2, "star/dim2.ss", diff_schema());
    let j1 = b.join(f, d1, JoinKind::Inner, vec![0], vec![0]);
    let j2 = b.join(j1, d2, JoinKind::Inner, vec![1], vec![1]);
    let two = b.project(
        j2,
        vec![
            NamedExpr::new("dim_tag", Expr::col(14)),
            NamedExpr::new("amt", Expr::col(2)),
        ],
    );
    let graph = b.write(two, "star/out.ss").build().unwrap();
    let cfg = OptimizerConfig::default();
    let plan = optimize(&graph, &[], &NoViewServices, &cfg, JobId::new(1)).unwrap();
    assert_executors_agree(&plan.physical, &storage, "star join");

    let model = CostModel;
    let columnar = execute_plan(&plan.physical, &storage, &model, SimTime::ZERO).unwrap();
    let rowwise =
        rowref::execute_plan_rows(&plan.physical, &storage, &model, SimTime::ZERO).unwrap();
    assert!(columnar.outputs["star/out.ss"].num_rows() > 6_000);
    assert!(
        columnar.cells_gathered * 4 < rowwise.cells_gathered,
        "gathered {} cells of the {} the plan's nodes hold",
        columnar.cells_gathered,
        rowwise.cells_gathered
    );
}

fn run(graph: &QueryGraph, storage: &StorageManager) -> scope_engine::ExecOutcome {
    execute_plan(graph, storage, &CostModel, SimTime::ZERO).unwrap()
}

/// Recipes composed through four row-moving operators: the columnar
/// executor copies under a quarter of the cells and matches the row engine.
#[test]
fn picks_composed_across_exchange_join_exchange_filter_match_row_reference() {
    use scope_engine::Row;
    use scope_plan::JoinKind;
    // Wide rows (a NULL-bearing Int, a Str with NULLs, a Str without)
    // that nobody reads until the end: every node above the scans hands
    // on recipes, each picking through the one below.
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("n", DataType::Int),
        ("s", DataType::Str),
        ("t", DataType::Str),
    ]);
    let rows = |n: i64, keys: i64| -> Vec<Row> {
        (0..n)
            .map(|i| {
                let sparse = |v: Value, every: i64| if i % every == 0 { Value::Null } else { v };
                vec![
                    Value::Int(i * 7 % keys),
                    Value::Int(i),
                    sparse(Value::Int(-i), 5),
                    sparse(Value::Str(format!("s{}", i % 13)), 7),
                    Value::Str(format!("t{i}")),
                ]
            })
            .collect()
    };
    let storage = StorageManager::new();
    storage.put_dataset(
        DatasetId::new(1),
        Table::single(schema.clone(), rows(3000, 50)),
    );
    storage.put_dataset(
        DatasetId::new(2),
        Table::single(schema.clone(), rows(400, 50)),
    );
    let hash = |col| Partitioning::Hash {
        cols: vec![col],
        parts: 4,
    };
    let mut b = PlanBuilder::new();
    let l = b.table_scan(DatasetId::new(1), "l", schema.clone());
    let r = b.table_scan(DatasetId::new(2), "r", schema);
    let (lx, rx) = (b.exchange(l, hash(0)), b.exchange(r, hash(0)));
    let j = b.join(lx, rx, JoinKind::Inner, vec![0], vec![0]);
    let jx = b.exchange(j, hash(6));
    let f = b.filter(jx, Expr::col(1).lt(Expr::lit(1500i64)));
    let g = b.output(f, "o").build().unwrap();

    let columnar = run(&g, &storage);
    let rowwise = rowref::execute_plan_rows(&g, &storage, &CostModel, SimTime::ZERO).unwrap();
    // Routing keys, join keys and the filter column were read; the other
    // seven columns in ten were not, through four row-moving operators.
    assert!(columnar.cells_gathered * 4 < rowwise.cells_gathered);
    assert_eq!(columnar.node_stats, rowwise.node_stats);
    for (ct, rt) in columnar.node_tables.iter().zip(&rowwise.node_tables) {
        assert_eq!(*ct, rt.to_table());
    }
    assert_eq!(columnar.outputs["o"].num_rows(), 12_000);
}

/// The edge cases the columnar executor once handed to row kernels, fed to
/// the same differential: LeftOuter against empty right partitions, loops
/// joins (NULL keys, an Int key against a Float key, a partitioned left
/// side probing the one right partition), and windows over several
/// partitions with tied order keys and NULL partition keys.
#[test]
fn executors_agree_on_outer_loops_and_window_edges() {
    use scope_plan::expr::NamedExpr;
    use scope_plan::op::WindowFunc;
    use scope_plan::{JoinImpl, JoinKind};
    let (d1, d2) = (DatasetId::new(31), DatasetId::new(32));
    let mut rng = SmallRng::seed_from_u64(0xed9e);
    let storage = StorageManager::new();
    storage.put_dataset(d1, random_diff_table(&mut rng, 300, true));
    storage.put_dataset(d2, random_diff_table(&mut rng, 60, true));
    let hash = |col, parts| Partitioning::Hash {
        cols: vec![col],
        parts,
    };

    // Three distinct right keys hashed into eight partitions: at least five
    // are empty, and every left row routed there is padded.
    let mut b = PlanBuilder::new();
    let l = b.table_scan(d1, "edge/l.ss", diff_schema());
    let r = b.table_scan(d2, "edge/r.ss", diff_schema());
    let r = b.filter(r, Expr::col(0).lt(Expr::lit(3i64)));
    let (lx, rx) = (b.exchange(l, hash(0, 8)), b.exchange(r, hash(0, 8)));
    let j = b.join(lx, rx, JoinKind::LeftOuter, vec![0], vec![0]);
    let graph = b.write(j, "edge/outer.ss").build().unwrap();
    assert_executors_agree(&graph, &storage, "left outer, empty right partitions");

    // Int keys 0..12 against Float keys 0.0, 0.5, .., 5.5, NULLs on both.
    let loops = |kind, implementation, left_parts: Option<usize>| {
        let mut b = PlanBuilder::new();
        let mut l = b.table_scan(d1, "edge/l.ss", diff_schema());
        if let Some(parts) = left_parts {
            l = b.exchange(l, hash(1, parts));
        }
        let r = b.table_scan(d2, "edge/r.ss", diff_schema());
        let half = Expr::col(0).mul(Expr::lit(0.5));
        let r = b.project(
            r,
            vec![
                NamedExpr::new("kf", half),
                NamedExpr::new("v", Expr::col(1)),
            ],
        );
        let j = b.join(l, r, kind, vec![0], vec![0]);
        let mut graph = b.write(j, "edge/loops.ss").build().unwrap();
        if let Operator::Join {
            implementation: i, ..
        } = &mut graph.node_mut(j).unwrap().op
        {
            *i = implementation;
        }
        graph
    };
    for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::LeftSemi] {
        let context = format!("{kind:?} loops join");
        assert_executors_agree(&loops(kind, JoinImpl::Loops, Some(3)), &storage, &context);
        let by_loops = run(&loops(kind, JoinImpl::Loops, None), &storage);
        let by_hash = run(&loops(kind, JoinImpl::Hash, None), &storage);
        assert_eq!(by_loops.outputs, by_hash.outputs, "{context} vs hash join");
        if kind == JoinKind::Inner {
            assert!(
                by_hash.outputs["edge/loops.ss"].num_rows() > 0,
                "1 = 1.0 joins"
            );
        }
    }

    // All three window functions stacked over four partitions, ordered by
    // the tag (five values: ties in every run), partitioned by the
    // NULL-bearing key; sorted on the key alone (rows move) and in window
    // order already (rows stay put).
    for sort in [SortOrder::asc(&[0]), SortOrder::asc(&[0, 4, 1, 2, 3])] {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(d1, "edge/l.ss", diff_schema());
        let x = b.exchange(s, hash(0, 4));
        let mut w = b.sort(x, sort.clone());
        for func in [
            WindowFunc::RowNumber,
            WindowFunc::Rank,
            WindowFunc::RunningSum(2),
        ] {
            w = b.window(w, func, vec![0], SortOrder::asc(&[4]));
        }
        let graph = b.write(w, "edge/window.ss").build().unwrap();
        assert_executors_agree(&graph, &storage, &format!("windows sorted by {sort:?}"));
    }
}

/// Numeric edges where a typed kernel once disagreed with the scalar
/// semantics: an Int column against a Float literal (and the mirror) just
/// above 2^53, where rounding through `f64` makes the two compare equal, and
/// `-col` over `i64::MIN`, which must wrap in both executors.
#[test]
fn executors_agree_on_numeric_edges() {
    use scope_plan::UnaryOp;
    let two53 = 1i64 << 53;
    let (ints, floats) = (DatasetId::new(41), DatasetId::new(42));
    let schema = |t| Schema::from_pairs(&[("x", t)]);
    let storage = StorageManager::new();
    let int_rows = [
        Value::Int(two53 + 1),
        Value::Int(two53),
        Value::Int(i64::MIN),
    ];
    let float_rows = [Value::Float(two53 as f64), Value::Float(0.5)];
    for (d, t, rows) in [
        (ints, DataType::Int, &int_rows[..]),
        (floats, DataType::Float, &float_rows[..]),
    ] {
        let mut rows: Vec<Vec<Value>> = rows.iter().map(|v| vec![v.clone()]).collect();
        rows.push(vec![Value::Null]);
        storage.put_dataset(d, Table::single(schema(t), rows));
    }
    let plan = |d, t, pred: Option<Expr>, expr: Expr| {
        let mut b = PlanBuilder::new();
        let mut cur = b.table_scan(d, "edge/num.ss", schema(t));
        if let Some(pred) = pred {
            cur = b.filter(cur, pred);
        }
        let p = b.project(cur, vec![scope_plan::NamedExpr::new("y", expr)]);
        b.write(p, "edge/num_out.ss").build().unwrap()
    };

    let above = Expr::col(0).gt(Expr::lit(two53 as f64));
    let graph = plan(ints, DataType::Int, Some(above), Expr::col(0));
    assert_executors_agree(&graph, &storage, "Int column > 2^53 as Float");
    let below = Expr::col(0).lt(Expr::lit(two53 + 1));
    let graph = plan(floats, DataType::Float, Some(below), Expr::col(0));
    assert_executors_agree(&graph, &storage, "Float column < 2^53 + 1 as Int");

    let neg = Expr::Unary {
        op: UnaryOp::Neg,
        child: Box::new(Expr::col(0)),
    };
    let graph = plan(ints, DataType::Int, None, neg);
    assert_executors_agree(&graph, &storage, "-col over i64::MIN");
}

/// Schema for the user-defined-operator differential: a NULL-bearing group
/// key and one column of every other cell type ClampOutliers, ScoreModel and
/// Tokenize treat differently.
fn udo_schema() -> Schema {
    Schema::from_pairs(&[
        ("g", DataType::Int),
        ("x", DataType::Int),
        ("d", DataType::Date),
        ("b", DataType::Bool),
        ("f", DataType::Float),
        ("t", DataType::Str),
    ])
}

/// Rows over [`udo_schema`], about 15 % NULL per cell. `x` spans sixteen
/// values, so groups tie on it; group 5 never has an `x` (an all-NULL group
/// for TrimBand); texts include the empty string and runs of whitespace.
fn udo_rows(rng: &mut SmallRng, n: usize) -> Vec<Vec<Value>> {
    let texts = ["", "a", "a b", "  lead and  trail  ", "x\ty\nz z"];
    let null = |rng: &mut SmallRng, v: Value| if rng.gen_bool(0.15) { Value::Null } else { v };
    (0..n)
        .map(|_| {
            let g = rng.gen_range(0..6);
            let x = rng.gen_range(-8..8);
            let (d, b) = (rng.gen_range(-5..40), rng.gen_bool(0.5));
            let f = rng.gen_range(-40.0..40.0);
            let t = texts[rng.gen_range(0..texts.len())];
            vec![
                null(rng, Value::Int(g)),
                if g == 5 {
                    Value::Null
                } else {
                    null(rng, Value::Int(x))
                },
                null(rng, Value::Date(d)),
                null(rng, Value::Bool(b)),
                null(rng, Value::Float(f)),
                null(rng, Value::Str(t.into())),
            ]
        })
        .collect()
}

/// Both executors fail on `graph` with the same error; returns it.
fn errors_agree(graph: &QueryGraph, storage: &StorageManager, context: &str) -> String {
    let columnar = execute_plan(graph, storage, &CostModel, SimTime::ZERO).unwrap_err();
    let rowwise = rowref::execute_plan_rows(graph, storage, &CostModel, SimTime::ZERO).unwrap_err();
    assert_eq!(columnar.to_string(), rowwise.to_string(), "{context}");
    columnar.to_string()
}

/// The seven user-defined operators and Aggregate's output run as batch
/// kernels; the row versions live on only in the oracle. On edge-case data —
/// NULL and whitespace-only text, `Date`/`Bool`/NULL cells under
/// ClampOutliers, tied ranking columns, NULL-bearing and all-NULL groups,
/// unequal and empty combiner sides, a global aggregate over nothing — every
/// node's table, per-partition row order, cell type and statistics match
/// the row reference, and an erroring input fails with the same first error.
#[test]
fn udo_kernels_match_row_reference_on_edge_cases() {
    use scope_plan::op::AggImpl;
    use UdoKind::*;
    let (data, small, empty) = (DatasetId::new(41), DatasetId::new(42), DatasetId::new(43));
    let mut rng = SmallRng::seed_from_u64(0x0d0);
    let storage = StorageManager::new();
    storage.put_dataset(data, Table::single(udo_schema(), udo_rows(&mut rng, 240)));
    storage.put_dataset(small, Table::single(udo_schema(), udo_rows(&mut rng, 7)));
    storage.put_dataset(empty, Table::single(udo_schema(), Vec::new()));
    let udo = |kind| Udo::new(kind, "EdgeLib", "1.0");
    let hash = Partitioning::Hash {
        cols: vec![0],
        parts: 3,
    };
    let clamp = |col| ClampOutliers { col, lo: -5, hi: 5 };

    // Processors over three partitions. ClampOutliers on the Date, Bool and
    // Float columns turns every non-NULL cell into a Float; on the string
    // column it changes nothing.
    let processors = [
        Tokenize { col: 5 },
        clamp(1),
        clamp(2),
        clamp(3),
        clamp(4),
        clamp(5),
        ScoreModel {
            cols: vec![0, 2, 5],
            seed: 9,
        },
    ];
    for kind in processors {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(data, "udo/t.ss", udo_schema());
        let x = b.exchange(s, hash.clone());
        let p = b.process(x, udo(kind.clone()));
        let graph = b.write(p, "udo/process.ss").build().unwrap();
        assert_executors_agree(&graph, &storage, &format!("process {kind:?}"));
    }

    // An Extract scan with a predicate over NULL-bearing `x`.
    let extract = |dataset, predicate: Expr| {
        let mut b = PlanBuilder::new();
        let s = b.extract(
            dataset,
            "udo/raw.ss",
            udo_schema(),
            udo(Tokenize { col: 5 }),
        );
        let mut graph = b.write(s, "udo/extract.ss").build().unwrap();
        if let Operator::Get { predicate: p, .. } = &mut graph.node_mut(s).unwrap().op {
            *p = Some(predicate);
        }
        graph
    };
    let nonneg = Expr::col(1).ge(Expr::lit(0i64));
    assert_executors_agree(&extract(data, nonneg), &storage, "extract with predicate");

    // Reducers over runs of the NULL-bearing key, sorted on the key alone so
    // each group's rows keep arrival order: CountRows must still pick the
    // smallest row, TopPerGroup must break ties on the full row.
    let reducers = [
        (TrimBand { col: 1, gap: 2 }, false),
        (CountRows, false),
        (TopPerGroup { col: 1, n: 3 }, true),
    ];
    for (kind, per_group_apply) in reducers {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(data, "udo/t.ss", udo_schema());
        let x = b.exchange(s, hash.clone());
        let sorted = b.sort(x, SortOrder::asc(&[0]));
        let r = if per_group_apply {
            b.gb_apply(sorted, udo(kind.clone()), vec![0])
        } else {
            b.reduce(sorted, udo(kind.clone()), vec![0])
        };
        let graph = b.write(r, "udo/reduce.ss").build().unwrap();
        assert_executors_agree(&graph, &storage, &format!("reduce {kind:?}"));
    }

    // MergeStreams over unequal sides, and with one or both sides empty.
    for (left, right) in [
        (data, small),
        (small, data),
        (empty, small),
        (data, empty),
        (empty, empty),
    ] {
        let mut b = PlanBuilder::new();
        let l = b.table_scan(left, "udo/l.ss", udo_schema());
        let r = b.table_scan(right, "udo/r.ss", udo_schema());
        let c = b.combine(l, r, udo(MergeStreams));
        let graph = b.write(c, "udo/combine.ss").build().unwrap();
        assert_executors_agree(&graph, &storage, &format!("combine {left} with {right}"));
    }

    // A global aggregate over three empty partitions emits exactly one row.
    for implementation in [AggImpl::Hash, AggImpl::Stream] {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(data, "udo/t.ss", udo_schema());
        let none = b.filter(s, Expr::col(0).gt(Expr::lit(100i64)));
        let x = b.exchange(none, hash.clone());
        let aggs = vec![
            AggExpr::new("n", AggFunc::Count, 1),
            AggExpr::new("s", AggFunc::Sum, 1),
            AggExpr::new("lo", AggFunc::Min, 2),
        ];
        let a = b.aggregate(x, vec![], aggs);
        let mut graph = b.write(a, "udo/global.ss").build().unwrap();
        if let Operator::Aggregate {
            implementation: i, ..
        } = &mut graph.node_mut(a).unwrap().op
        {
            *i = implementation;
        }
        assert_executors_agree(&graph, &storage, &format!("{implementation:?} global"));
        let rows = run(&graph, &storage).outputs["udo/global.ss"].all_rows();
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
    }

    // Erroring inputs: a non-string text cell, an `x` that breaks the
    // predicate's arithmetic, and UDOs run as the wrong kind. Row at a time,
    // whichever comes first in row order wins.
    let failing = Expr::col(1).add(Expr::lit(1i64)).ge(Expr::lit(-1000i64));
    for (tokenize_row, predicate_row, expect) in [(9, 20, "tokenize on 7"), (20, 9, "arithmetic")] {
        let bad = DatasetId::new(44);
        let mut rows = udo_rows(&mut rng, 30);
        rows[tokenize_row][1] = Value::Int(0);
        rows[tokenize_row][5] = Value::Int(7);
        rows[predicate_row][1] = Value::Str("x".into());
        storage.put_dataset(bad, Table::single(udo_schema(), rows));
        let err = errors_agree(&extract(bad, failing.clone()), &storage, "extract error");
        assert!(err.contains(expect), "{err}");
    }
    for (kind, expect) in [
        ("process", "count_rows is not a row processor"),
        ("reduce", "tokenize is not a group reducer"),
        ("combine", "trim_band is not a combiner"),
    ] {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(data, "udo/t.ss", udo_schema());
        let n = match kind {
            "process" => b.process(s, udo(CountRows)),
            "reduce" => b.reduce(s, udo(Tokenize { col: 5 }), vec![0]),
            _ => {
                let other = b.table_scan(small, "udo/r.ss", udo_schema());
                b.combine(s, other, udo(TrimBand { col: 1, gap: 0 }))
            }
        };
        let graph = b.write(n, "udo/wrong.ss").build().unwrap();
        let err = errors_agree(&graph, &storage, expect);
        assert!(err.contains(expect), "{err}");
    }
}

/// What each kernel computes, pinned on small hand-made inputs (the values
/// the row versions were once unit-tested with).
#[test]
fn udo_kernels_compute_their_documented_values() {
    let storage = StorageManager::new();
    let ints = |values: &[i64]| {
        let rows = values
            .iter()
            .map(|&v| vec![Value::Int(0), Value::Int(v)])
            .collect();
        Table::single(
            Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]),
            rows,
        )
    };
    let one_op =
        |dataset: DatasetId, schema: Schema, op: &dyn Fn(&mut PlanBuilder, NodeId) -> NodeId| {
            let mut b = PlanBuilder::new();
            let s = b.table_scan(dataset, "udo/small.ss", schema);
            let n = op(&mut b, s);
            let graph = b.write(n, "udo/small_out.ss").build().unwrap();
            assert_executors_agree(&graph, &storage, "documented values");
            run(&graph, &storage).outputs["udo/small_out.ss"].all_rows()
        };
    let kv = || Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]);
    let udo = |kind| Udo::new(kind, "L", "1");

    let text = Schema::from_pairs(&[("id", DataType::Int), ("text", DataType::Str)]);
    storage.put_dataset(
        DatasetId::new(51),
        Table::single(
            text.clone(),
            vec![
                vec![Value::Int(1), Value::Str("a b  c".into())],
                vec![Value::Int(2), Value::Null],
            ],
        ),
    );
    let tokens = one_op(DatasetId::new(51), text, &|b, s| {
        b.process(s, udo(UdoKind::Tokenize { col: 1 }))
    });
    let tokens: Vec<&Value> = tokens.iter().map(|r| &r[2]).collect();
    assert_eq!(
        tokens,
        [&Value::from("a"), &Value::from("b"), &Value::from("c")]
    );

    storage.put_dataset(DatasetId::new(52), ints(&[-5, 5, 500]));
    let clamped = one_op(DatasetId::new(52), kv(), &|b, s| {
        b.process(
            s,
            udo(UdoKind::ClampOutliers {
                col: 1,
                lo: 0,
                hi: 10,
            }),
        )
    });
    let clamped: Vec<&Value> = clamped.iter().map(|r| &r[1]).collect();
    assert_eq!(clamped, [&Value::Int(0), &Value::Int(5), &Value::Int(10)]);

    storage.put_dataset(DatasetId::new(53), ints(&(0..=10).collect::<Vec<_>>()));
    let trimmed = one_op(DatasetId::new(53), kv(), &|b, s| {
        b.reduce(s, udo(UdoKind::TrimBand { col: 1, gap: 1 }), vec![0])
    });
    assert_eq!(trimmed.len(), 9, "band [1, 9] of 0..=10");

    storage.put_dataset(DatasetId::new(54), ints(&[7, 7, 7]));
    let counted = one_op(DatasetId::new(54), kv(), &|b, s| {
        b.reduce(s, udo(UdoKind::CountRows), vec![0])
    });
    assert_eq!(
        counted,
        vec![vec![Value::Int(0), Value::Int(7), Value::Int(3)]]
    );

    storage.put_dataset(DatasetId::new(55), ints(&[3, 1, 4, 1, 5]));
    let top = one_op(DatasetId::new(55), kv(), &|b, s| {
        b.gb_apply(s, udo(UdoKind::TopPerGroup { col: 1, n: 2 }), vec![0])
    });
    let top: Vec<&Value> = top.iter().map(|r| &r[1]).collect();
    assert_eq!(top, [&Value::Int(5), &Value::Int(4)]);

    let scores = |seed| {
        one_op(DatasetId::new(55), kv(), &|b, s| {
            b.process(
                s,
                udo(UdoKind::ScoreModel {
                    cols: vec![1],
                    seed,
                }),
            )
        })
    };
    let (s1, s2) = (scores(1), scores(2));
    assert_eq!(s1, scores(1));
    assert_ne!(s1, s2);
    assert!(s1
        .iter()
        .all(|r| (0.0..1.0).contains(&r[2].as_f64().unwrap())));
}

/// Build locks: under arbitrary interleavings of proposals from many
/// jobs, exactly one holds the lock at a time.
#[test]
fn lock_exclusivity() {
    for_cases("lock_exclusivity", |case_rng| {
        use cloudviews::{LockOutcome, MetadataService, ProposeRequest};
        use scope_common::time::SimClock;
        let n_jobs = case_rng.gen_range(2u64..12);
        let svc = MetadataService::new(Arc::new(SimClock::new()), 1);
        let sig = Sig128::new(1, 2);
        let mut winners = 0;
        for j in 0..n_jobs {
            if svc
                .propose(&ProposeRequest::new(
                    sig,
                    JobId::new(j),
                    SimDuration::from_secs(60),
                    SimTime::ZERO,
                ))
                .unwrap()
                == LockOutcome::Acquired
            {
                winners += 1;
            }
        }
        assert_eq!(winners, 1, "{n_jobs} jobs");
    });
}

/// The batch evaluator computes whole columns; the row reference evaluates
/// one row at a time and skips an `AND`/`OR` right operand on each row the
/// left operand decides. Against the reference: a right operand that fails
/// only on rows the left decides costs nothing, whether the left decides a
/// whole batch or part of one; two projected expressions failing on
/// different rows report the earlier row's error (row-major, not
/// expression by expression); and a filter fails with its first failing
/// row's error after earlier rows passed.
#[test]
fn expression_errors_match_row_reference() {
    use scope_plan::{NamedExpr, PhysicalProps, ScalarFunc, UnaryOp};
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("m", DataType::Str),
        ("n", DataType::Int),
    ]);
    let len = |col| Expr::func(ScalarFunc::Len, vec![Expr::col(col)]);
    let neg = |col| Expr::Unary {
        op: UnaryOp::Neg,
        child: Box::new(Expr::col(col)),
    };
    let scan_into = |storage: &StorageManager, partitions: Vec<Vec<Vec<Value>>>| {
        let d = DatasetId::new(51);
        let table = Table::from_rows(schema.clone(), partitions, PhysicalProps::any());
        storage.put_dataset(d, table);
        let mut b = PlanBuilder::new();
        let s = b.table_scan(d, "expr/t.ss", schema.clone());
        (b, s)
    };

    // `m` is a string where `k >= 0` and an integer where `k < 0`, so
    // `len(m)` fails on exactly the rows `k >= 0` rejects; the partitions
    // have the left operand deciding some rows, every row, and none.
    let row = |k: i64| {
        let m = if k >= 0 {
            Value::Str(format!("s{k}"))
        } else {
            Value::Int(k)
        };
        vec![Value::Int(k), m, Value::Int(3 * k)]
    };
    let guarded = vec![
        (-6..6).map(row).collect(),
        (-8..-2).map(row).collect(),
        (0..5).map(row).collect(),
        Vec::new(),
    ];
    let and = Expr::col(0)
        .ge(Expr::lit(0i64))
        .and(len(1).gt(Expr::lit(1i64)));
    let or = Expr::col(0)
        .lt(Expr::lit(0i64))
        .or(len(1).gt(Expr::lit(1i64)));
    let storage = StorageManager::new();
    let (mut b, s) = scan_into(&storage, guarded.clone());
    let f = b.filter(s, and.clone());
    let graph = b.output(f, "expr/filter.ss").build().unwrap();
    assert_executors_agree(&graph, &storage, "guarded filter");
    assert_eq!(
        run(&graph, &storage).outputs["expr/filter.ss"].num_rows(),
        11
    );
    let (mut b, s) = scan_into(&storage, guarded);
    let exprs = vec![NamedExpr::new("a", and), NamedExpr::new("o", or)];
    let p = b.project(s, exprs);
    let graph = b.output(p, "expr/project.ss").build().unwrap();
    assert_executors_agree(&graph, &storage, "guarded project");

    // `len(m)` fails on the row where `m` is an integer and `-n` on the row
    // where `n` is a string: the earlier row's error wins.
    for (len_row, neg_row, expect) in [(6, 3, "NEG on"), (3, 6, "len on")] {
        let mut rows: Vec<Vec<Value>> = (0..10).map(row).collect();
        rows[len_row][1] = Value::Int(7);
        rows[neg_row][2] = Value::Str("x".into());
        let (mut b, s) = scan_into(&storage, vec![rows]);
        let exprs = vec![NamedExpr::new("l", len(1)), NamedExpr::new("n", neg(2))];
        let p = b.project(s, exprs);
        let graph = b.output(p, "expr/errs.ss").build().unwrap();
        let err = errors_agree(&graph, &storage, expect);
        assert!(err.contains(expect), "{err}");
    }

    // Rows 0..7 pass `len(m) > 1` before row 7 fails it, in the first
    // partition or after a whole earlier one.
    for first in [0, 5] {
        let mut rows: Vec<Vec<Value>> = (0..12).map(row).collect();
        rows[7][1] = Value::Int(7);
        let mut partitions = vec![(20..20 + first).map(row).collect::<Vec<_>>(), rows];
        partitions.retain(|p| !p.is_empty());
        let (mut b, s) = scan_into(&storage, partitions);
        let f = b.filter(s, len(1).gt(Expr::lit(1i64)));
        let graph = b.output(f, "expr/filter_err.ss").build().unwrap();
        let err = errors_agree(&graph, &storage, "filter error");
        assert!(err.contains("len on 7"), "{err}");
    }
}

/// A view's bytes are its rows, row-major: the codec writes them straight
/// from each batch's columns, and they equal the rows written one `Value` at
/// a time. Random tables cover several batches per partition, deferred
/// columns left by an exchange and a join, all-NULL and mixed-type columns
/// and empty partitions; each decodes equal to the original, with an equal
/// checksum.
#[test]
fn view_codec_writes_the_row_major_layout_from_columns() {
    use cloudviews::codec::{Codec, Enc};
    use scope_plan::{JoinKind, PhysicalProps};
    let row_major = |t: &Table| {
        let mut e = Enc::new();
        t.schema.put(&mut e);
        t.props.put(&mut e);
        e.put_u32(t.num_partitions() as u32);
        for p in 0..t.num_partitions() {
            let rows = t.partition_rows(p);
            e.put_u32(rows.len() as u32);
            for v in rows.iter().flatten() {
                v.put(&mut e);
            }
        }
        e.buf
    };
    let extra = Schema::from_pairs(&[("nil", DataType::Int), ("mix", DataType::Str)]);
    let schema = diff_schema().concat(&extra);
    let (mut multi_batch, mut deferred, mut empty) = (0, 0, 0);
    for_cases(
        "view_codec_writes_the_row_major_layout_from_columns",
        |rng| {
            let storage = StorageManager::new();
            let (d1, d2) = (DatasetId::new(61), DatasetId::new(62));
            for (d, n) in [(d1, rng.gen_range(0..300)), (d2, rng.gen_range(0..80))] {
                let mut rows = random_diff_table(rng, n, true).all_rows();
                for row in &mut rows {
                    row.push(Value::Null);
                    row.push(match rng.gen_range(0..5) {
                        0 => Value::Null,
                        1 => Value::Int(rng.gen_range(-3..3)),
                        2 => Value::Str("m".into()),
                        3 => Value::Bool(rng.gen_bool(0.5)),
                        _ => Value::Date(rng.gen_range(0..9)),
                    });
                }
                // The last partition stays empty.
                let mut partitions = vec![Vec::new(); rng.gen_range(2..5)];
                let filled = partitions.len() - 1;
                for row in rows {
                    partitions[rng.gen_range(0..filled)].push(row);
                }
                let table = Table::from_rows(schema.clone(), partitions, PhysicalProps::any());
                storage.put_dataset(d, table);
            }
            let hash = |parts| Partitioning::Hash {
                cols: vec![0],
                parts,
            };
            let parts = rng.gen_range(1..9);
            let mut b = PlanBuilder::new();
            let l = b.table_scan(d1, "codec/l.ss", schema.clone());
            let r = b.table_scan(d2, "codec/r.ss", schema.clone());
            let (lx, rx) = (b.exchange(l, hash(parts)), b.exchange(r, hash(parts)));
            let j = b.join(lx, rx, JoinKind::Inner, vec![0], vec![0]);
            let f = b.filter(j, Expr::col(1).lt(Expr::lit(50i64)));
            let g = b.exchange(f, Partitioning::Single);
            let graph = b.output(g, "codec/o.ss").build().unwrap();
            for (i, t) in run(&graph, &storage).node_tables.iter().enumerate() {
                let bytes = t.to_bytes();
                assert!(bytes == row_major(t), "node {i}: layout differs");
                let back = Table::from_bytes(&bytes).unwrap();
                assert_eq!(back, *t, "node {i}");
                assert_eq!(multiset_checksum(&back), multiset_checksum(t), "node {i}");
                let batches = || (0..t.num_partitions()).map(|p| t.partition_batches(p));
                multi_batch += batches().any(|p| p.len() > 1) as usize;
                empty += batches().any(|p| p.is_empty()) as usize;
                deferred += batches()
                    .flatten()
                    .any(|batch| batch.columns().iter().any(|c| !c.is_dense()))
                    as usize;
            }
        },
    );
    assert!(multi_batch > 0 && deferred > 0 && empty > 0);
}
