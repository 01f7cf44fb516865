//! The cost model and the compile-time estimator.
//!
//! Two distinct things, deliberately kept apart:
//!
//! * [`CostModel`] converts **observed** work (actual row and byte counts
//!   from execution) into simulated CPU time. It is the "ground truth" of
//!   the simulation — the runtime statistics the CloudViews feedback loop
//!   harvests are produced by it.
//! * [`CostEstimator`] is the **compile-time** estimator: it predicts
//!   cardinalities with the naive selectivity constants classical optimizers
//!   use. Its errors (compounding through deep DAGs, opaque user code) are
//!   exactly why the paper's Section 5.1 insists on a feedback loop instead
//!   of what-if estimates. The ablation bench `ablation_feedback` selects
//!   views using this estimator instead of observed statistics and measures
//!   the damage.

use scope_common::time::SimDuration;
use scope_plan::{JoinKind, Operator, QueryGraph, ScanKind};

/// The one price list turning observed work into simulated CPU time: the
/// executor charges every operator with it, and the optimizer's reuse gate
/// prices a view read and its compensation with the same methods.
///
/// The weights are constants in microseconds of simulated CPU per row (or
/// per KiB where noted), chosen so that operator *ratios* mirror the paper's
/// observations (sort and exchange dominate; scans and column remaps are
/// cheap; user code is expensive).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel;

impl CostModel {
    /// Per-row cost of a scan.
    const SCAN_ROW: f64 = 0.4;
    /// Per-row cost of filter/project/remap/nop-style streaming work.
    const STREAM_ROW: f64 = 0.2;
    /// Per-row cost of hash operations (build+probe amortized).
    const HASH_ROW: f64 = 1.2;
    /// Per-row×log(rows) cost of sorting.
    const SORT_ROW_LOG: f64 = 0.35;
    /// Per-row cost of exchange serialization + routing.
    const EXCHANGE_ROW: f64 = 1.0;
    /// Per-KiB cost of exchange network transfer.
    const EXCHANGE_KIB: f64 = 6.0;
    /// Per-row base cost of user code (multiplied by the UDO's weight).
    const UDO_ROW: f64 = 1.0;
    /// Per-KiB cost of writing an output or a materialized view.
    const WRITE_KIB: f64 = 8.0;
    /// Per-KiB cost of reading a stored stream or view.
    const READ_KIB: f64 = 2.5;

    /// CPU cost of one operator instance having consumed `in_rows` (sum over
    /// inputs), produced `out_rows`, and moved `out_bytes`.
    pub fn op_cpu(
        &self,
        op: &Operator,
        in_rows: u64,
        out_rows: u64,
        out_bytes: u64,
    ) -> SimDuration {
        let n_in = in_rows as f64;
        let n_out = out_rows as f64;
        let kib = out_bytes as f64 / 1024.0;
        let us = match op {
            Operator::Get { kind, .. } => {
                let base = n_out * Self::SCAN_ROW + kib * Self::READ_KIB;
                match kind {
                    ScanKind::Extract => base + n_out * Self::UDO_ROW * 2.0,
                    _ => base,
                }
            }
            Operator::ViewGet { .. } => return self.view_read_cpu(out_rows, out_bytes),
            Operator::Filter { .. }
            | Operator::Project { .. }
            | Operator::Remap { .. }
            | Operator::Nop
            | Operator::Spool
            | Operator::Sequence => n_in * Self::STREAM_ROW,
            Operator::Sort { .. } => n_in * Self::SORT_ROW_LOG * log2(n_in),
            Operator::Top { n, .. } => n_in * Self::STREAM_ROW + (*n as f64) * Self::STREAM_ROW,
            Operator::Exchange { .. } => n_in * Self::EXCHANGE_ROW + kib * Self::EXCHANGE_KIB,
            Operator::Aggregate { implementation, .. } => match implementation {
                scope_plan::op::AggImpl::Hash => n_in * Self::HASH_ROW,
                scope_plan::op::AggImpl::Stream => n_in * Self::STREAM_ROW * 1.5,
            },
            Operator::Window { .. } => n_in * Self::STREAM_ROW * 2.0,
            Operator::Process { udo } | Operator::Combine { udo } => {
                n_in * Self::UDO_ROW * udo.kind.cost_weight()
            }
            Operator::Reduce { udo, keys: _ } | Operator::GbApply { udo, keys: _ } => {
                n_in * Self::UDO_ROW * udo.kind.cost_weight()
            }
            Operator::Join { implementation, .. } => match implementation {
                scope_plan::JoinImpl::Hash => n_in * Self::HASH_ROW,
                scope_plan::JoinImpl::Merge => n_in * Self::STREAM_ROW * 2.0,
                scope_plan::JoinImpl::Loops => {
                    // quadratic-ish: model as n_in * sqrt(n_in)
                    n_in * Self::STREAM_ROW * (1.0 + n_in.sqrt() * 0.05)
                }
            },
            Operator::UnionAll => n_in * Self::STREAM_ROW * 0.5,
            Operator::Output { .. } => return self.view_write_cpu(in_rows, out_bytes),
        };
        SimDuration::from_micros(us.max(0.0).round() as u64)
    }

    /// CPU cost of reading `rows` rows and `bytes` bytes of a stored view —
    /// what a `ViewGet` is charged, and what the reuse gate pays for one.
    pub fn view_read_cpu(&self, rows: u64, bytes: u64) -> SimDuration {
        let us = rows as f64 * Self::SCAN_ROW * 0.5 + bytes as f64 / 1024.0 * Self::READ_KIB;
        SimDuration::from_micros(us.round() as u64)
    }

    /// CPU cost of writing `rows` rows and `bytes` bytes — what an `Output`
    /// is charged, and the extra cost of materializing a view.
    pub fn view_write_cpu(&self, rows: u64, bytes: u64) -> SimDuration {
        let us = bytes as f64 / 1024.0 * Self::WRITE_KIB + rows as f64 * Self::STREAM_ROW * 0.5;
        SimDuration::from_micros(us.round() as u64)
    }
}

fn log2(n: f64) -> f64 {
    if n <= 2.0 {
        1.0
    } else {
        n.log2()
    }
}

/// Naive compile-time cardinality and cost estimation.
///
/// Selectivity constants in the grand System-R tradition; user code is a
/// complete guess. Estimation error against [`CostModel`]-measured truth is
/// the gap the feedback loop closes: costs are priced with the same
/// [`CostModel`], so the error comes from cardinalities — the dominant
/// real-world term.
#[derive(Clone, Copy, Debug)]
pub struct CostEstimator;

impl CostEstimator {
    /// Assumed filter selectivity.
    const FILTER_SELECTIVITY: f64 = 1.0 / 3.0;
    /// Assumed aggregation output fraction exponent: out = in^exp.
    const AGG_EXPONENT: f64 = 0.7;
    /// Assumed join expansion: out = max(l, r) * factor.
    const JOIN_FACTOR: f64 = 1.0;
    /// Assumed rows emitted per input row by user code.
    const UDO_FANOUT: f64 = 1.0;
    /// Assumed average row width in bytes (for byte estimates).
    pub const ROW_BYTES: f64 = 64.0;
}

/// Per-node compile-time estimates.
#[derive(Clone, Debug, Default)]
pub struct PlanEstimates {
    /// Estimated output rows per node.
    pub rows: Vec<f64>,
    /// Estimated CPU microseconds per node (exclusive).
    pub cpu_us: Vec<f64>,
}

impl PlanEstimates {
    /// Estimated total plan cost (sum of exclusive node costs).
    pub fn total_cpu_us(&self) -> f64 {
        self.cpu_us.iter().sum()
    }

    /// Estimated cumulative cost of the subgraph rooted at `root`.
    pub fn subgraph_cpu_us(&self, graph: &QueryGraph, root: scope_common::ids::NodeId) -> f64 {
        graph
            .subgraph_nodes(root)
            .map(|ids| ids.iter().map(|id| self.cpu_us[id.index()]).sum())
            .unwrap_or(0.0)
    }
}

impl CostEstimator {
    /// Estimates cardinalities and costs for every node of `graph`, given a
    /// base-table row-count oracle (`None` ⇒ guess 10⁵ rows — unstructured
    /// inputs often have no statistics at all, per the paper).
    pub fn estimate(
        &self,
        graph: &QueryGraph,
        base_rows: &dyn Fn(&Operator) -> Option<u64>,
    ) -> PlanEstimates {
        let mut rows: Vec<f64> = Vec::with_capacity(graph.len());
        let mut cpu: Vec<f64> = Vec::with_capacity(graph.len());
        for node in graph.nodes() {
            let in_rows: f64 = node.children.iter().map(|c| rows[c.index()]).sum();
            let first_in: f64 = node
                .children
                .first()
                .map(|c| rows[c.index()])
                .unwrap_or(0.0);
            let out = match &node.op {
                Operator::Get { kind, .. } => {
                    let base = base_rows(&node.op).unwrap_or(100_000) as f64;
                    match kind {
                        ScanKind::Range => base * Self::FILTER_SELECTIVITY,
                        ScanKind::Extract => base * Self::UDO_FANOUT,
                        ScanKind::Table => base,
                    }
                }
                Operator::ViewGet { .. } => base_rows(&node.op).unwrap_or(100_000) as f64,
                Operator::Filter { .. } => first_in * Self::FILTER_SELECTIVITY,
                Operator::Project { .. }
                | Operator::Remap { .. }
                | Operator::Sort { .. }
                | Operator::Exchange { .. }
                | Operator::Window { .. }
                | Operator::Spool
                | Operator::Nop => first_in,
                Operator::Sequence => node.children.last().map(|c| rows[c.index()]).unwrap_or(0.0),
                Operator::Aggregate { .. } => first_in.max(1.0).powf(Self::AGG_EXPONENT),
                Operator::Top { n, .. } => (*n as f64).min(first_in),
                Operator::Process { .. } | Operator::Combine { .. } => in_rows * Self::UDO_FANOUT,
                Operator::Reduce { .. } | Operator::GbApply { .. } => {
                    in_rows * Self::UDO_FANOUT * 0.5
                }
                Operator::Join { kind, .. } => {
                    let l = first_in;
                    let r = node.children.get(1).map(|c| rows[c.index()]).unwrap_or(0.0);
                    match kind {
                        JoinKind::LeftSemi => l * 0.5,
                        _ => l.max(r) * Self::JOIN_FACTOR,
                    }
                }
                Operator::UnionAll => in_rows,
                Operator::Output { .. } => first_in,
            };
            let bytes = out * Self::ROW_BYTES;
            let c = CostModel
                .op_cpu(
                    &node.op,
                    in_rows.round() as u64,
                    out.round() as u64,
                    bytes as u64,
                )
                .micros() as f64;
            rows.push(out);
            cpu.push(c);
        }
        PlanEstimates { rows, cpu_us: cpu }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::ids::DatasetId;
    use scope_plan::expr::AggFunc;
    use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)])
    }

    fn sample_graph() -> QueryGraph {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", schema());
        let f = b.filter(s, Expr::col(0).gt(Expr::lit(0i64)));
        let a = b.aggregate(f, vec![0], vec![AggExpr::new("s", AggFunc::Sum, 1)]);
        b.output(a, "o").build().unwrap()
    }

    #[test]
    fn cost_monotone_in_rows() {
        let m = CostModel;
        let op = Operator::Filter {
            predicate: Expr::lit(true),
        };
        let c1 = m.op_cpu(&op, 1_000, 500, 1_000);
        let c2 = m.op_cpu(&op, 10_000, 5_000, 10_000);
        assert!(c2 > c1);
    }

    #[test]
    fn sort_superlinear() {
        let m = CostModel;
        let op = Operator::Sort {
            order: scope_plan::SortOrder::asc(&[0]),
        };
        let c1 = m.op_cpu(&op, 1_000, 1_000, 0).micros() as f64;
        let c2 = m.op_cpu(&op, 100_000, 100_000, 0).micros() as f64;
        assert!(c2 / c1 > 100.0, "sort should grow faster than linear");
    }

    #[test]
    fn exchange_costs_bytes() {
        let m = CostModel;
        let op = Operator::Exchange {
            scheme: scope_plan::Partitioning::Hash {
                cols: vec![0],
                parts: 8,
            },
        };
        let skinny = m.op_cpu(&op, 1_000, 1_000, 10_000);
        let wide = m.op_cpu(&op, 1_000, 1_000, 10_000_000);
        assert!(wide > skinny);
    }

    #[test]
    fn udo_weight_applies() {
        use scope_plan::{Udo, UdoKind};
        let m = CostModel;
        let cheap = Operator::Process {
            udo: Udo::new(
                UdoKind::ClampOutliers {
                    col: 0,
                    lo: 0,
                    hi: 1,
                },
                "L",
                "1",
            ),
        };
        let pricey = Operator::Process {
            udo: Udo::new(
                UdoKind::ScoreModel {
                    cols: vec![0],
                    seed: 1,
                },
                "L",
                "1",
            ),
        };
        assert!(m.op_cpu(&pricey, 1000, 1000, 0) > m.op_cpu(&cheap, 1000, 1000, 0));
    }

    #[test]
    fn estimator_walks_plan() {
        let g = sample_graph();
        let est = CostEstimator;
        let e = est.estimate(&g, &|_| Some(90_000));
        assert_eq!(e.rows.len(), g.len());
        // scan -> 90k, filter -> 30k, agg -> 30k^0.7 ≈ 1365
        assert!((e.rows[0] - 90_000.0).abs() < 1.0);
        assert!((e.rows[1] - 30_000.0).abs() < 1.0);
        assert!(e.rows[2] > 1_000.0 && e.rows[2] < 2_000.0);
        assert!(e.total_cpu_us() > 0.0);
    }

    #[test]
    fn estimator_subgraph_cost_is_partial_sum() {
        let g = sample_graph();
        let est = CostEstimator;
        let e = est.estimate(&g, &|_| Some(10_000));
        let agg_id = scope_common::ids::NodeId::new(2);
        let sub = e.subgraph_cpu_us(&g, agg_id);
        let total = e.total_cpu_us();
        assert!(sub < total);
        assert!(sub > 0.0);
        // Subgraph at root == total.
        let root = g.roots()[0];
        assert!((e.subgraph_cpu_us(&g, root) - total).abs() < 1e-6);
    }

    #[test]
    fn unknown_base_defaults() {
        let g = sample_graph();
        let est = CostEstimator;
        let e = est.estimate(&g, &|_| None);
        assert!((e.rows[0] - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn view_write_cost_positive() {
        let m = CostModel;
        assert!(m.view_write_cpu(1000, 1 << 20) > SimDuration::ZERO);
    }
}
