//! Cross-crate coverage of engine paths the main experiments use less:
//! loops/merge/outer joins through the optimizer, extractor scans, GbApply,
//! range scans, window running sums, remaps, and combiner execution.

use scope_common::ids::{DatasetId, JobId};
use scope_common::time::SimTime;
use scope_engine::cost::CostModel;
use scope_engine::data::{multiset_checksum, Table};
use scope_engine::exec::execute_plan;
use scope_engine::optimizer::{optimize, NoViewServices, OptimizerConfig};
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::op::WindowFunc;
use scope_plan::{
    AggExpr, DataType, Expr, JoinImpl, JoinKind, Operator, PlanBuilder, QueryGraph, Schema,
    SortKey, SortOrder, Udo, UdoKind, Value,
};

fn kv_schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
}

fn text_schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int), ("text", DataType::Str)])
}

fn run(graph: &QueryGraph, storage: &StorageManager) -> scope_engine::exec::ExecOutcome {
    let plan = optimize(
        graph,
        &[],
        &NoViewServices,
        &OptimizerConfig::default(),
        JobId::new(1),
    )
    .unwrap();
    execute_plan(&plan.physical, storage, &CostModel, SimTime::ZERO).unwrap()
}

fn kv_storage(rows: &[(i64, i64)]) -> StorageManager {
    let s = StorageManager::new();
    s.put_dataset(
        DatasetId::new(1),
        Table::single(
            kv_schema(),
            rows.iter()
                .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
                .collect(),
        ),
    );
    s
}

#[test]
fn loops_join_matches_hash_join() {
    let storage = kv_storage(&[(1, 10), (2, 20), (2, 21), (3, 30)]);
    let build = |implementation| {
        let mut b = PlanBuilder::new();
        let l = b.table_scan(DatasetId::new(1), "l", kv_schema());
        let r = b.table_scan(DatasetId::new(1), "r", kv_schema());
        let j = b.join(l, r, JoinKind::Inner, vec![0], vec![0]);
        let g = b.output(j, "o").build().unwrap();
        let mut g2 = g.clone();
        if let Operator::Join {
            implementation: i, ..
        } = &mut g2.node_mut(j).unwrap().op
        {
            *i = implementation;
        }
        g2
    };
    // One partition each side, so the two plans differ only in the join.
    let run_single = |g: &QueryGraph| {
        let cfg = OptimizerConfig {
            default_dop: 1,
            ..Default::default()
        };
        let plan = optimize(g, &[], &NoViewServices, &cfg, JobId::new(1)).unwrap();
        execute_plan(&plan.physical, &storage, &CostModel, SimTime::ZERO).unwrap()
    };
    let hash = run_single(&build(JoinImpl::Hash));
    let loops = run_single(&build(JoinImpl::Loops));
    // Same rows in the same order: left-row-major, right matches in
    // arrival order.
    assert_eq!(hash.outputs["o"], loops.outputs["o"]);
    // 2x2 match on k=2 plus k=1 and k=3: 4 + 1 + 1 = 6 rows.
    assert_eq!(hash.outputs["o"].num_rows(), 6);
}

#[test]
fn merge_join_selected_for_sorted_inputs_and_agrees() {
    let storage = kv_storage(&[(5, 1), (1, 2), (3, 3), (1, 4), (5, 5)]);
    let mut b = PlanBuilder::new();
    let l = b.table_scan(DatasetId::new(1), "l", kv_schema());
    let ls = {
        let ex = b.exchange(
            l,
            scope_plan::Partitioning::Hash {
                cols: vec![0],
                parts: 8,
            },
        );
        b.sort(ex, SortOrder::asc(&[0]))
    };
    let r = b.table_scan(DatasetId::new(1), "r", kv_schema());
    let rs = {
        let ex = b.exchange(
            r,
            scope_plan::Partitioning::Hash {
                cols: vec![0],
                parts: 8,
            },
        );
        b.sort(ex, SortOrder::asc(&[0]))
    };
    let j = b.join(ls, rs, JoinKind::Inner, vec![0], vec![0]);
    let g = b.output(j, "o").build().unwrap();
    let plan = optimize(
        &g,
        &[],
        &NoViewServices,
        &OptimizerConfig::default(),
        JobId::new(1),
    )
    .unwrap();
    // With both inputs hash-partitioned and sorted, the optimizer must pick
    // a merge join.
    let merged = plan.physical.nodes().iter().any(|n| {
        matches!(
            n.op,
            Operator::Join {
                implementation: JoinImpl::Merge,
                ..
            }
        )
    });
    assert!(
        merged,
        "merge join not selected:\n{}",
        plan.physical.explain()
    );
    let out = execute_plan(&plan.physical, &storage, &CostModel, SimTime::ZERO).unwrap();
    // k=5 matches 2x2, k=1 matches 2x2, k=3 matches 1: 9 rows.
    assert_eq!(out.outputs["o"].num_rows(), 9);
}

#[test]
fn left_outer_join_pads_through_optimizer() {
    let storage = StorageManager::new();
    storage.put_dataset(
        DatasetId::new(1),
        Table::single(
            kv_schema(),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        ),
    );
    storage.put_dataset(
        DatasetId::new(2),
        Table::single(kv_schema(), vec![vec![Value::Int(2), Value::Int(200)]]),
    );
    let mut b = PlanBuilder::new();
    let l = b.table_scan(DatasetId::new(1), "l", kv_schema());
    let r = b.table_scan(DatasetId::new(2), "r", kv_schema());
    let j = b.join(l, r, JoinKind::LeftOuter, vec![0], vec![0]);
    let g = b.output(j, "o").build().unwrap();
    let out = run(&g, &storage);
    let rows = out.outputs["o"].all_rows();
    assert_eq!(rows.len(), 2);
    let unmatched = rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
    assert_eq!(unmatched[2], Value::Null);
    assert_eq!(unmatched[3], Value::Null);
}

#[test]
fn extract_scan_runs_user_code_at_the_leaf() {
    let storage = StorageManager::new();
    storage.put_dataset(
        DatasetId::new(1),
        Table::single(
            text_schema(),
            vec![
                vec![Value::Int(1), Value::Str("a b c".into())],
                vec![Value::Int(2), Value::Str("d".into())],
            ],
        ),
    );
    let mut b = PlanBuilder::new();
    let e = b.extract(
        DatasetId::new(1),
        "raw/logs.txt",
        text_schema(),
        Udo::new(UdoKind::Tokenize { col: 1 }, "Contoso.Text", "2.0"),
    );
    let g = b.output(e, "o").build().unwrap();
    let out = run(&g, &storage);
    assert_eq!(out.outputs["o"].num_rows(), 4);
    assert_eq!(out.outputs["o"].schema.len(), 3);
    // The leaf records pre-extraction scanned rows as its input.
    assert_eq!(out.node_stats[0].in_rows, 2);
}

#[test]
fn range_scan_applies_predicate_during_scan() {
    let storage = kv_storage(&[(1, 1), (5, 2), (9, 3)]);
    let mut b = PlanBuilder::new();
    let s = b.range_scan(
        DatasetId::new(1),
        "t",
        kv_schema(),
        Expr::col(0)
            .ge(Expr::lit(4i64))
            .and(Expr::col(0).le(Expr::lit(8i64))),
    );
    let g = b.output(s, "o").build().unwrap();
    let out = run(&g, &storage);
    assert_eq!(out.outputs["o"].num_rows(), 1);
    assert_eq!(out.outputs["o"].all_rows()[0][0], Value::Int(5));
    // Root kind is Range, not TableScan.
    assert_eq!(g.node(s).unwrap().op.kind(), scope_plan::OpKind::Range);
}

#[test]
fn gb_apply_top_per_group_through_enforcers() {
    let storage = kv_storage(&[(1, 5), (1, 9), (1, 7), (2, 3), (2, 8)]);
    let mut b = PlanBuilder::new();
    let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
    let a = b.gb_apply(
        s,
        Udo::new(UdoKind::TopPerGroup { col: 1, n: 1 }, "L", "1"),
        vec![0],
    );
    let g = b.output(a, "o").build().unwrap();
    let out = run(&g, &storage);
    let mut rows = out.outputs["o"].all_rows();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Int(9)],
            vec![Value::Int(2), Value::Int(8)],
        ]
    );
}

#[test]
fn window_running_sum_with_partitioning() {
    let storage = kv_storage(&[(1, 10), (1, 20), (2, 5)]);
    let mut b = PlanBuilder::new();
    let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
    let w = b.window(s, WindowFunc::RunningSum(1), vec![0], SortOrder::asc(&[1]));
    let g = b.output(w, "o").build().unwrap();
    let out = run(&g, &storage);
    let mut rows = out.outputs["o"].all_rows();
    rows.sort();
    assert_eq!(rows.len(), 3);
    // Partition k=1 accumulates 10 then 30; k=2 starts fresh at 5.
    assert!(rows.contains(&vec![Value::Int(1), Value::Int(10), Value::Float(10.0)]));
    assert!(rows.contains(&vec![Value::Int(1), Value::Int(20), Value::Float(30.0)]));
    assert!(rows.contains(&vec![Value::Int(2), Value::Int(5), Value::Float(5.0)]));
}

#[test]
fn remap_renames_and_reorders() {
    let storage = kv_storage(&[(7, 70)]);
    let mut b = PlanBuilder::new();
    let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
    let r = b.remap(s, vec![1, 0], vec!["value".into(), "key".into()]);
    let g = b.output(r, "o").build().unwrap();
    let out = run(&g, &storage);
    assert_eq!(out.outputs["o"].schema.to_string(), "(value:int, key:int)");
    assert_eq!(
        out.outputs["o"].all_rows(),
        vec![vec![Value::Int(70), Value::Int(7)]]
    );
}

#[test]
fn combiner_and_sequence_compose() {
    let storage = kv_storage(&[(2, 1), (1, 2)]);
    let mut b = PlanBuilder::new();
    let a = b.table_scan(DatasetId::new(1), "a", kv_schema());
    let c = b.table_scan(DatasetId::new(1), "c", kv_schema());
    let merged = b.combine(a, c, Udo::new(UdoKind::MergeStreams, "L", "1"));
    let extra = b.table_scan(DatasetId::new(1), "e", kv_schema());
    let seq = b.sequence(vec![extra, merged]);
    let g = b.output(seq, "o").build().unwrap();
    let out = run(&g, &storage);
    // Sequence yields the combiner output: both scans concatenated (4 rows).
    assert_eq!(out.outputs["o"].num_rows(), 4);
}

#[test]
fn top_descending_deterministic_under_dop() {
    // Ties everywhere: v identical; determinism must hold across dop.
    let storage = kv_storage(&[(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]);
    let build = || {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let ex = b.exchange(
            s,
            scope_plan::Partitioning::Hash {
                cols: vec![0],
                parts: 4,
            },
        );
        let t = b.top(ex, 2, SortOrder(vec![SortKey::desc(1)]));
        b.output(t, "o").build().unwrap()
    };
    let mut sums = Vec::new();
    for dop in [2usize, 8] {
        let plan = optimize(
            &build(),
            &[],
            &NoViewServices,
            &OptimizerConfig {
                default_dop: dop,
                ..Default::default()
            },
            JobId::new(1),
        )
        .unwrap();
        let out = execute_plan(&plan.physical, &storage, &CostModel, SimTime::ZERO).unwrap();
        sums.push(multiset_checksum(&out.outputs["o"]));
    }
    assert_eq!(sums[0], sums[1]);
}

#[test]
fn stream_agg_count_distinct_and_avg_match_hash() {
    let storage = kv_storage(&[(1, 4), (1, 4), (1, 6), (2, 1)]);
    let aggs = vec![
        AggExpr::new("cd", AggFunc::CountDistinct, 1),
        AggExpr::new("avg", AggFunc::Avg, 1),
        AggExpr::new("mn", AggFunc::Min, 1),
    ];
    // Via the optimizer: sorted input selects Stream, unsorted selects Hash.
    let sorted_plan = {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let ex = b.exchange(
            s,
            scope_plan::Partitioning::Hash {
                cols: vec![0],
                parts: 8,
            },
        );
        let so = b.sort(ex, SortOrder::asc(&[0]));
        let a = b.aggregate(so, vec![0], aggs.clone());
        b.output(a, "o").build().unwrap()
    };
    let hash_plan = {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let a = b.aggregate(s, vec![0], aggs);
        b.output(a, "o").build().unwrap()
    };
    let a = run(&sorted_plan, &storage);
    let b_ = run(&hash_plan, &storage);
    assert_eq!(
        multiset_checksum(&a.outputs["o"]),
        multiset_checksum(&b_.outputs["o"])
    );
    let rows = a.outputs["o"].all_rows();
    let k1 = rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
    assert_eq!(k1[1], Value::Int(2)); // distinct {4, 6}
    assert_eq!(k1[2], Value::Float(14.0 / 3.0));
    assert_eq!(k1[3], Value::Int(4));
}
