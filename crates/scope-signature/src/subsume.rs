//! Tier-2 subsumption matching: semantic reuse beyond exact signatures.
//!
//! Exact signature matching (tier 1) only fires when a query subgraph's
//! precise hash equals a materialized view's. This module implements the
//! second tier of the matching cascade: a view can serve a query subgraph it
//! does not hash-equal when the two share an identical child computation and
//! the query's root is *subsumed* by the view's root —
//!
//! * **predicate containment**: a view filtered on `date >= X` serves any
//!   query filtering the same child on a tighter range (compensation: keep
//!   the query's own filter as the residual);
//! * **projection supersets**: a view projecting a superset of the query's
//!   output expressions serves the query (compensation: re-project the
//!   needed columns);
//! * **group-by rollups**: a view aggregated on a superset of the query's
//!   grouping keys serves the query (compensation: re-aggregate the view's
//!   partial results — `Sum` of partial sums/counts, `Min` of minima, …).
//!
//! Following GEqO's staged-cascade lesson, every candidate first passes a
//! cheap **feature vector** test ([`SubsumeDescriptor::quick_compat`]:
//! root-kind, child signature, column/key bitsets — a handful of integer
//! compares) so non-candidates are rejected without any plan inspection;
//! only survivors pay for the full [`SubsumeDescriptor::subsumes`] check.
//!
//! ## False-positive safety
//!
//! Every rule here is *sound for byte-identical results*, not just
//! set-equivalence:
//!
//! * equal child **precise** signatures ⇒ identical child computation,
//!   schema included (the precise hash pins input GUIDs, parameter values,
//!   user code, and the schema — see `signature.rs`);
//! * filter residuals re-apply the query's own predicate verbatim, so rows
//!   the abstraction cannot reason about (NULLs, ties) are re-decided by
//!   the real predicate;
//! * projection compensation only maps structurally-identical expressions
//!   (recurring-parameter *values* included — yesterday's `@@date` never
//!   matches today's);
//! * rollups exclude `Avg` and `CountDistinct` (not decomposable) and
//!   float `Sum` (re-grouping partial sums reorders float addition);
//!   integer sums wrap associatively, and `Min`/`Max`/`Count` are exact
//!   under re-grouping. The one remaining edge — a *global* rollup over an
//!   empty view produces one row where recompute would also produce one
//!   row, but `Count` would read `Sum(∅) = NULL` instead of `0` — is
//!   guarded by the caller via [`rollup_safe_for_rows`].

use scope_common::hash::Sig128;
use scope_common::ids::NodeId;
use scope_plan::interval::{column_intervals, implies, ColumnIntervals};
use scope_plan::{AggExpr, AggFunc, DataType, Expr, NamedExpr, Operator, QueryGraph, Schema};

use crate::SubgraphInfo;

/// Which subsumption rule a descriptor participates in (= its root
/// operator's kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubsumeKind {
    /// Root is a `Filter` with an interval-eligible predicate.
    Filter,
    /// Root is a `Project`.
    Project,
    /// Root is an `Aggregate`.
    Rollup,
}

/// Rule-specific payload of a descriptor.
#[derive(Clone, Debug, PartialEq)]
pub enum SubsumeDetail {
    /// Per-column intervals of the filter predicate.
    Filter {
        /// The interval abstraction of the (conjunctive) predicate.
        intervals: ColumnIntervals,
    },
    /// The projected output expressions.
    Project {
        /// The root's named output expressions.
        exprs: Vec<NamedExpr>,
    },
    /// Grouping keys and aggregate outputs.
    Rollup {
        /// Grouping column positions (in the shared child's schema).
        keys: Vec<usize>,
        /// Aggregate outputs.
        aggs: Vec<AggExpr>,
    },
}

/// A per-instance description of one unary subgraph root, usable either as
/// a **query probe** (what would subsume this subgraph?) or a **view
/// candidate** (what does this materialized view subsume?).
///
/// Descriptors are computed per job instance from the concrete plan — they
/// embed instance-specific predicate values, so they are deliberately *not*
/// part of the instance-invariant [`SubgraphInfo`] the template cache reuses
/// across instances.
#[derive(Clone, Debug, PartialEq)]
pub struct SubsumeDescriptor {
    /// Which rule this root participates in.
    pub kind: SubsumeKind,
    /// Precise signature of the root's (single) child: tier-2 candidates
    /// must share the child computation exactly.
    pub child_precise: Sig128,
    /// Bitset of child columns the root consumes (feature vector; roots
    /// touching columns ≥ 64 are not eligible).
    pub cols: u64,
    /// Bitset of grouping-key columns (`Rollup` only, else 0).
    pub keys: u64,
    /// The root's output schema — for a view candidate, the stored schema a
    /// compensating `ViewGet` must carry.
    pub schema: Schema,
    /// Rule-specific payload.
    pub detail: SubsumeDetail,
}

/// How to rewrite a subsumed query root on top of a `ViewGet` of the
/// serving view.
#[derive(Clone, Debug, PartialEq)]
pub enum Compensation {
    /// Keep the query's root `Filter` unchanged; only its child becomes the
    /// view scan (the view's rows are a superset, the residual re-filters).
    Residual,
    /// Replace the root with a `Project` of these expressions over the view
    /// output.
    Reproject {
        /// Bare column picks, named as the query expects.
        exprs: Vec<NamedExpr>,
    },
    /// Replace the root `Aggregate`'s keys/aggs to re-aggregate the view's
    /// partial results (the implementation choice is kept).
    Rollup {
        /// Grouping positions in the *view's* output schema.
        keys: Vec<usize>,
        /// Aggregates over the view's partial-aggregate columns.
        aggs: Vec<AggExpr>,
    },
}

fn bitset(cols: impl IntoIterator<Item = usize>) -> Option<u64> {
    let mut set = 0u64;
    for c in cols {
        if c >= 64 {
            return None;
        }
        set |= 1u64 << c;
    }
    Some(set)
}

fn subset(a: u64, b: u64) -> bool {
    a & !b == 0
}

impl SubsumeDescriptor {
    /// The descriptor of the subgraph rooted at `root`, or `None` when the
    /// root is not an eligible unary operator. `infos` is the enumeration of
    /// `graph` (one record per node, in node order), so the child's precise
    /// signature is `infos[child]`. Query probes, view descriptors and the
    /// optimizer's tier-2 attempt all build descriptors through here, so
    /// they agree on which roots are eligible.
    pub fn of_root(
        graph: &QueryGraph,
        infos: &[SubgraphInfo],
        root: NodeId,
    ) -> Option<SubsumeDescriptor> {
        let &[child] = graph.node(root).ok()?.children.as_slice() else {
            return None;
        };
        SubsumeDescriptor::of(graph, root, infos.get(child.index())?.precise)
    }

    /// Builds the descriptor for the subgraph rooted at `root` given the
    /// precise signature of the root's child, or `None` when the root is not
    /// an eligible unary operator. [`SubsumeDescriptor::of_root`] looks the
    /// child's signature up from the graph's enumeration.
    pub fn of(
        graph: &QueryGraph,
        root: NodeId,
        child_precise: Sig128,
    ) -> Option<SubsumeDescriptor> {
        let node = graph.node(root).ok()?;
        if node.children.len() != 1 {
            return None;
        }
        let schema = graph.schema_of(root).ok()?;
        match &node.op {
            Operator::Filter { predicate } => {
                let intervals = column_intervals(predicate)?;
                let cols = bitset(intervals.keys().copied())?;
                Some(SubsumeDescriptor {
                    kind: SubsumeKind::Filter,
                    child_precise,
                    cols,
                    keys: 0,
                    schema,
                    detail: SubsumeDetail::Filter { intervals },
                })
            }
            Operator::Project { exprs } => {
                let mut referenced = Vec::new();
                for ne in exprs {
                    ne.expr.referenced_columns(&mut referenced);
                }
                let cols = bitset(referenced)?;
                Some(SubsumeDescriptor {
                    kind: SubsumeKind::Project,
                    child_precise,
                    cols,
                    keys: 0,
                    schema,
                    detail: SubsumeDetail::Project {
                        exprs: exprs.clone(),
                    },
                })
            }
            Operator::Aggregate { keys, aggs, .. } => {
                let key_set = bitset(keys.iter().copied())?;
                let cols = bitset(keys.iter().copied().chain(aggs.iter().map(|a| a.input)))?;
                Some(SubsumeDescriptor {
                    kind: SubsumeKind::Rollup,
                    child_precise,
                    cols,
                    keys: key_set,
                    schema,
                    detail: SubsumeDetail::Rollup {
                        keys: keys.clone(),
                        aggs: aggs.clone(),
                    },
                })
            }
            _ => None,
        }
    }

    /// The cheap cascade gate: a handful of integer compares deciding
    /// whether `view` could possibly serve `query`. No plan inspection.
    pub fn quick_compat(query: &SubsumeDescriptor, view: &SubsumeDescriptor) -> bool {
        if query.kind != view.kind || query.child_precise != view.child_precise {
            return false;
        }
        match query.kind {
            // The view may only constrain columns the query also constrains.
            SubsumeKind::Filter => subset(view.cols, query.cols),
            // The view must compute every column the query touches.
            SubsumeKind::Project => subset(query.cols, view.cols),
            // The view must group at least as finely and carry the inputs.
            SubsumeKind::Rollup => subset(query.keys, view.keys) && subset(query.cols, view.cols),
        }
    }

    /// The full tier-2 check: does `view` serve `query`, and if so, how is
    /// the query root compensated on top of the view scan?
    pub fn subsumes(query: &SubsumeDescriptor, view: &SubsumeDescriptor) -> Option<Compensation> {
        if !SubsumeDescriptor::quick_compat(query, view) {
            return None;
        }
        match (&query.detail, &view.detail) {
            (SubsumeDetail::Filter { intervals: q }, SubsumeDetail::Filter { intervals: v }) => {
                implies(q, v).then_some(Compensation::Residual)
            }
            (SubsumeDetail::Project { exprs: q }, SubsumeDetail::Project { exprs: v }) => {
                let exprs = q
                    .iter()
                    .map(|qe| {
                        v.iter()
                            .position(|ve| ve.expr == qe.expr)
                            .map(|i| NamedExpr::new(qe.name.clone(), Expr::Col(i)))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(Compensation::Reproject { exprs })
            }
            (
                SubsumeDetail::Rollup {
                    keys: q_keys,
                    aggs: q_aggs,
                },
                SubsumeDetail::Rollup {
                    keys: v_keys,
                    aggs: v_aggs,
                },
            ) => {
                // Key k of the child appears at position i in the view's
                // key prefix, hence at column i of the view's output.
                let keys = q_keys
                    .iter()
                    .map(|k| v_keys.iter().position(|vk| vk == k))
                    .collect::<Option<Vec<_>>>()?;
                let aggs = q_aggs
                    .iter()
                    .map(|qa| {
                        let (j, func) = match qa.func {
                            // A partial count re-aggregates by summing.
                            AggFunc::Count => (
                                v_aggs.iter().position(|va| va.func == AggFunc::Count)?,
                                AggFunc::Sum,
                            ),
                            AggFunc::Sum => {
                                let j = v_aggs.iter().position(|va| {
                                    va.func == AggFunc::Sum && va.input == qa.input
                                })?;
                                // Float sums are not safely re-groupable:
                                // partial-sum addition order differs.
                                let dtype = view.schema.column(v_keys.len() + j).ok()?.dtype;
                                if dtype == DataType::Float {
                                    return None;
                                }
                                (j, AggFunc::Sum)
                            }
                            AggFunc::Min | AggFunc::Max => (
                                v_aggs
                                    .iter()
                                    .position(|va| va.func == qa.func && va.input == qa.input)?,
                                qa.func,
                            ),
                            // Not decomposable from partial aggregates.
                            AggFunc::Avg | AggFunc::CountDistinct => return None,
                        };
                        Some(AggExpr::new(qa.name.clone(), func, v_keys.len() + j))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(Compensation::Rollup { keys, aggs })
            }
            _ => None,
        }
    }
}

/// Guard for the one rollup edge the rules above cannot see: a *global*
/// rollup (`keys` empty) over an empty view emits `Sum(∅) = NULL` where
/// recompute's `Count(∅)` emits `0`. Callers must skip rollup adoption when
/// this returns false.
pub fn rollup_safe_for_rows(compensation: &Compensation, view_rows: u64) -> bool {
    match compensation {
        Compensation::Rollup { keys, .. } => !keys.is_empty() || view_rows > 0,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::ids::DatasetId;
    use scope_plan::{DataType, PlanBuilder, Value};

    fn base() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("d", DataType::Date),
            ("v", DataType::Int),
            ("f", DataType::Float),
        ])
    }

    /// Builds `root(child)` where child is a plain scan, returns the graph,
    /// the root id, and a fake child signature.
    fn unary(
        f: impl FnOnce(&mut PlanBuilder, scope_common::ids::NodeId) -> scope_common::ids::NodeId,
    ) -> (QueryGraph, scope_common::ids::NodeId) {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(7), "t", base());
        let r = f(&mut b, s);
        let g = b.output(r, "o").build().unwrap();
        (g, r)
    }

    fn sig(x: u64) -> Sig128 {
        Sig128 {
            lo: x,
            hi: x ^ 0xabc,
        }
    }

    #[test]
    fn filter_containment_residual() {
        let (g1, r1) = unary(|b, s| b.filter(s, Expr::col(1).ge(Expr::lit(Value::Date(100)))));
        let (g2, r2) = unary(|b, s| {
            b.filter(
                s,
                Expr::col(1)
                    .ge(Expr::lit(Value::Date(150)))
                    .and(Expr::col(1).lt(Expr::lit(Value::Date(160)))),
            )
        });
        let view = SubsumeDescriptor::of(&g1, r1, sig(1)).unwrap();
        let query = SubsumeDescriptor::of(&g2, r2, sig(1)).unwrap();
        assert!(SubsumeDescriptor::quick_compat(&query, &view));
        assert_eq!(
            SubsumeDescriptor::subsumes(&query, &view),
            Some(Compensation::Residual)
        );
        // The wider query is NOT served by the tighter view.
        assert!(SubsumeDescriptor::subsumes(&view, &query).is_none());
        // Different child signatures never match.
        let other = SubsumeDescriptor::of(&g2, r2, sig(2)).unwrap();
        assert!(!SubsumeDescriptor::quick_compat(&other, &view));
    }

    #[test]
    fn projection_superset_reprojects() {
        let (g1, r1) = unary(|b, s| {
            b.project(
                s,
                vec![
                    NamedExpr::new("k", Expr::col(0)),
                    NamedExpr::new("dv", Expr::col(2).mul(Expr::lit(2i64))),
                    NamedExpr::new("d", Expr::col(1)),
                ],
            )
        });
        let (g2, r2) = unary(|b, s| {
            b.project(
                s,
                vec![
                    NamedExpr::new("double", Expr::col(2).mul(Expr::lit(2i64))),
                    NamedExpr::new("key", Expr::col(0)),
                ],
            )
        });
        let view = SubsumeDescriptor::of(&g1, r1, sig(3)).unwrap();
        let query = SubsumeDescriptor::of(&g2, r2, sig(3)).unwrap();
        let comp = SubsumeDescriptor::subsumes(&query, &view).unwrap();
        assert_eq!(
            comp,
            Compensation::Reproject {
                exprs: vec![
                    NamedExpr::new("double", Expr::Col(1)),
                    NamedExpr::new("key", Expr::Col(0)),
                ]
            }
        );
        // A query needing an expression the view lacks is rejected.
        let (g3, r3) = unary(|b, s| b.project(s, vec![NamedExpr::new("f", Expr::col(3))]));
        let q3 = SubsumeDescriptor::of(&g3, r3, sig(3)).unwrap();
        assert!(SubsumeDescriptor::subsumes(&q3, &view).is_none());
    }

    #[test]
    fn recurring_param_values_must_match() {
        let proj = |d: i32| {
            unary(move |b, s| {
                b.project(
                    s,
                    vec![NamedExpr::new("tag", Expr::param("@@date", Value::Date(d)))],
                )
            })
        };
        let (g1, r1) = proj(100);
        let (g2, r2) = proj(200);
        let view = SubsumeDescriptor::of(&g1, r1, sig(4)).unwrap();
        let query = SubsumeDescriptor::of(&g2, r2, sig(4)).unwrap();
        assert!(
            SubsumeDescriptor::subsumes(&query, &view).is_none(),
            "yesterday's parameter value must not serve today's query"
        );
    }

    #[test]
    fn rollup_maps_keys_and_aggs() {
        let (g1, r1) = unary(|b, s| {
            b.aggregate(
                s,
                vec![0, 1],
                vec![
                    AggExpr::new("n", AggFunc::Count, 0),
                    AggExpr::new("sv", AggFunc::Sum, 2),
                    AggExpr::new("mx", AggFunc::Max, 2),
                ],
            )
        });
        let (g2, r2) = unary(|b, s| {
            b.aggregate(
                s,
                vec![1],
                vec![
                    AggExpr::new("total", AggFunc::Sum, 2),
                    AggExpr::new("cnt", AggFunc::Count, 0),
                ],
            )
        });
        let view = SubsumeDescriptor::of(&g1, r1, sig(5)).unwrap();
        let query = SubsumeDescriptor::of(&g2, r2, sig(5)).unwrap();
        let comp = SubsumeDescriptor::subsumes(&query, &view).unwrap();
        // View output: [k, d, n, sv, mx]; query key d is view column 1;
        // Sum(v) re-aggregates view column 3, Count re-sums view column 2.
        assert_eq!(
            comp,
            Compensation::Rollup {
                keys: vec![1],
                aggs: vec![
                    AggExpr::new("total", AggFunc::Sum, 3),
                    AggExpr::new("cnt", AggFunc::Sum, 2),
                ]
            }
        );
        // Finer query than the view: rejected by the bitset gate.
        assert!(SubsumeDescriptor::subsumes(&view, &query).is_none());
    }

    #[test]
    fn rollup_rejects_float_sum_avg_and_distinct() {
        let (g1, r1) = unary(|b, s| {
            b.aggregate(
                s,
                vec![0, 1],
                vec![
                    AggExpr::new("sf", AggFunc::Sum, 3),
                    AggExpr::new("af", AggFunc::Avg, 2),
                    AggExpr::new("cd", AggFunc::CountDistinct, 2),
                ],
            )
        });
        let view = SubsumeDescriptor::of(&g1, r1, sig(6)).unwrap();
        for (name, func, input) in [
            ("sf", AggFunc::Sum, 3),
            ("af", AggFunc::Avg, 2),
            ("cd", AggFunc::CountDistinct, 2),
        ] {
            let (g2, r2) =
                unary(|b, s| b.aggregate(s, vec![0], vec![AggExpr::new(name, func, input)]));
            let query = SubsumeDescriptor::of(&g2, r2, sig(6)).unwrap();
            assert!(
                SubsumeDescriptor::subsumes(&query, &view).is_none(),
                "{name} must not roll up"
            );
        }
    }

    #[test]
    fn global_rollup_empty_view_guard() {
        let comp = Compensation::Rollup {
            keys: vec![],
            aggs: vec![AggExpr::new("n", AggFunc::Sum, 0)],
        };
        assert!(!rollup_safe_for_rows(&comp, 0));
        assert!(rollup_safe_for_rows(&comp, 1));
        let keyed = Compensation::Rollup {
            keys: vec![0],
            aggs: vec![],
        };
        assert!(rollup_safe_for_rows(&keyed, 0));
        assert!(rollup_safe_for_rows(&Compensation::Residual, 0));
    }

    #[test]
    fn non_unary_and_ineligible_roots_are_none() {
        let (g, _r) = unary(|b, s| b.filter(s, Expr::col(1).ge(Expr::lit(Value::Date(0)))));
        // The scan (leaf) has no child.
        let scan = g.nodes().iter().find(|n| n.children.is_empty()).unwrap();
        assert!(SubsumeDescriptor::of(&g, scan.id, sig(7)).is_none());
        // A filter with an ineligible predicate.
        let (g2, r2) = unary(|b, s| {
            b.filter(
                s,
                Expr::col(1)
                    .ge(Expr::lit(Value::Date(0)))
                    .or(Expr::col(0).eq(Expr::lit(1i64))),
            )
        });
        assert!(SubsumeDescriptor::of(&g2, r2, sig(7)).is_none());
    }
}
