//! Cascades-lite optimization with the CloudViews hooks of Figure 10.
//!
//! [`optimize_with_cascade`] takes a *logical* plan together with its
//! subgraph enumeration — precise + normalized signatures for every subgraph
//! (Section 3), which the runtime computes once per job through the template
//! cache and [`optimize`] computes itself. Signatures are always computed on
//! the logical plan, the same representation the analyzer enumerates, so
//! runtime matching and offline analysis agree byte-for-byte. It then runs
//! three phases:
//!
//! 1. **Plan search: view reuse** (upper half of Figure 10) — top-down,
//!    largest subgraphs first, match each subgraph's normalized signature
//!    against the annotations fetched from the metadata service; on a match,
//!    check the precise signature against the actually-materialized views;
//!    if available and cheaper to read than to recompute (the read priced
//!    by [`CostModel`], the price list the executor charges; the recompute
//!    side is the *mined* runtime statistic, not an estimate), replace the
//!    subgraph with a [`Operator::ViewGet`].
//! 2. **Follow-up optimization: view materialization** (lower half of
//!    Figure 10) — bottom-up (smaller views first, "as they typically have
//!    more overlaps"), for surviving subgraphs whose normalized signature is
//!    annotated but whose precise view does not exist yet, propose the build
//!    to the metadata service (exclusive lock, Step 3/4 of Figure 9); on
//!    success, mark the node for online materialization, up to the per-job
//!    cap.
//! 3. **Lowering** — implementation selection (stream vs hash aggregation,
//!    merge vs hash join, based on delivered sort orders) and enforcer
//!    insertion (Exchange/Sort) so every operator's required physical
//!    properties are satisfied. A reused view whose stored design already
//!    matches the consumer's requirement needs no enforcer — this is where
//!    the paper's physical-design lesson (Section 5.3) becomes measurable.

use std::collections::HashMap;

use scope_common::hash::Sig128;
use scope_common::ids::{JobId, NodeId};
use scope_common::time::SimDuration;
use scope_common::{Result, ScopeError};
use scope_plan::op::AggImpl;
use scope_plan::{JoinImpl, Operator, Partitioning, PhysicalProps, QueryGraph, SortOrder};
use scope_signature::{
    enumerate_subgraphs, rollup_safe_for_rows, Compensation, SubgraphInfo, SubsumeDescriptor,
};

use crate::cost::CostModel;

/// A materialized view the metadata service reports as available.
#[derive(Clone, Debug, PartialEq)]
pub struct AvailableView {
    /// Precise signature (the storage key).
    pub precise: Sig128,
    /// Stored rows.
    pub rows: u64,
    /// Stored bytes.
    pub bytes: u64,
    /// Stored physical design.
    pub props: PhysicalProps,
}

/// A tier-2 candidate delivered by the metadata service's cascade lookup: a
/// live materialized view plus the subsumption descriptor of the subgraph it
/// materialized. The optimizer decides per query root whether the candidate
/// subsumes it and what compensation (residual filter, re-projection, or
/// rollup aggregate) bridges the gap.
#[derive(Clone, Debug, PartialEq)]
pub struct SubsumedView {
    /// The view itself (signature, stored size, physical design).
    pub view: AvailableView,
    /// Normalized signature of the view's template (provenance).
    pub normalized: Sig128,
    /// Descriptor of the materialized root (kind, child signature, feature
    /// bitsets, output schema, and the detail needed for full checks).
    pub descriptor: SubsumeDescriptor,
    /// Mined average CPU of recomputing the view's subgraph — the tier-2
    /// recompute proxy when the query's own template is unannotated.
    pub avg_cpu: SimDuration,
}

/// One annotation delivered by the CloudViews analyzer via the metadata
/// service: "this normalized computation must be materialized and reused".
#[derive(Clone, Debug, PartialEq)]
pub struct Annotation {
    /// Normalized signature of the overlapping computation.
    pub normalized: Sig128,
    /// Physical design the analyzer mined for the view (Section 5.3).
    pub props: PhysicalProps,
    /// Time-to-live mined from input lineage (Section 5.4).
    pub ttl: SimDuration,
    /// Mined average cumulative CPU of computing this subgraph (the
    /// runtime-statistics side of the feedback loop).
    pub avg_cpu: SimDuration,
    /// Mined average output rows.
    pub avg_rows: u64,
    /// Mined average output bytes.
    pub avg_bytes: u64,
}

/// The optimizer's window into the CloudViews runtime (metadata service).
///
/// `scope-engine` ships [`NoViewServices`] (plain SCOPE, no reuse); the
/// `cloudviews` crate implements this against its metadata service.
pub trait ViewServices {
    /// Figure 6 runtime check 2: is this precise computation already
    /// materialized (and not expired)?
    fn view_available(&self, precise: Sig128) -> Option<AvailableView>;

    /// Figure 9 steps 3/4: propose to materialize; `true` means the
    /// exclusive build lock was acquired and this job should build the view.
    fn propose_materialize(
        &self,
        precise: Sig128,
        normalized: Sig128,
        job: JobId,
        lock_ttl: SimDuration,
    ) -> bool;
}

/// Plain SCOPE: no metadata service, no reuse, no materialization.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoViewServices;

impl ViewServices for NoViewServices {
    fn view_available(&self, _precise: Sig128) -> Option<AvailableView> {
        None
    }
    fn propose_materialize(
        &self,
        _precise: Sig128,
        _normalized: Sig128,
        _job: JobId,
        _lock_ttl: SimDuration,
    ) -> bool {
        false
    }
}

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Degree of parallelism planned for enforcer exchanges.
    pub default_dop: usize,
    /// Per-job cap on views materialized (paper: defaults low, user-tunable
    /// via a job submission parameter).
    pub max_materialize_per_job: usize,
    /// Enable the plan-search reuse hook.
    pub enable_reuse: bool,
    /// Enable the follow-up materialization hook.
    pub enable_materialize: bool,
    /// Offline mode (Section 6.2): emit a plan that computes *only* the
    /// marked materializations, for upfront view building.
    pub offline_mode: bool,
    /// Enable tier-2 subsumption matching (the cascade's semantic tier).
    /// Tier-1 exact matching is unaffected by this knob.
    pub enable_subsumption: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            default_dop: 8,
            max_materialize_per_job: 1,
            enable_reuse: true,
            enable_materialize: true,
            offline_mode: false,
            enable_subsumption: true,
        }
    }
}

/// A follow-up-optimization decision to materialize one subgraph.
#[derive(Clone, Debug)]
pub struct MaterializeDecision {
    /// Root of the subgraph in the *physical* plan.
    pub physical_node: NodeId,
    /// Precise signature (the storage key; also embedded in the file path).
    pub precise: Sig128,
    /// Normalized signature (provenance).
    pub normalized: Sig128,
    /// Physical design to store the view in.
    pub props: PhysicalProps,
    /// Time-to-live for the file.
    pub ttl: SimDuration,
}

/// A plan-search decision that reused one materialized view.
#[derive(Clone, Debug)]
pub struct ReuseDecision {
    /// The `ViewGet` node in the physical plan.
    pub physical_node: NodeId,
    /// Precise signature read.
    pub precise: Sig128,
    /// Normalized signature matched.
    pub normalized: Sig128,
    /// CPU the feedback loop predicts this reuse saves.
    pub predicted_savings: SimDuration,
}

/// Optimization statistics (Section 7.3 overheads).
#[derive(Clone, Debug, Default)]
pub struct OptimizerReport {
    /// Wall-clock time spent in `optimize` (real time, not simulated).
    pub wall_time: std::time::Duration,
    /// Annotations supplied by the metadata service.
    pub annotations: usize,
    /// Subgraphs whose normalized signature matched an annotation.
    pub normalized_matches: usize,
    /// Views reused (tier-1 exact plus tier-2 subsumption).
    pub views_reused: usize,
    /// Of `views_reused`, how many came from tier-2 subsumption matches
    /// (a compensated rewrite rather than an exact signature hit).
    pub tier2_reused: usize,
    /// Views this job will materialize.
    pub views_materialized: usize,
    /// Nodes in the logical plan before rewriting.
    pub logical_nodes: usize,
    /// Nodes in the physical plan (after rewriting + enforcers).
    pub physical_nodes: usize,
}

/// The optimizer's output.
#[derive(Clone, Debug)]
pub struct OptimizedPlan {
    /// The executable physical plan.
    pub physical: QueryGraph,
    /// The (possibly view-rewritten) logical plan the physical one lowers.
    pub logical: QueryGraph,
    /// Original logical node → physical node, for nodes that survived
    /// rewriting (feedback-loop stat attribution).
    pub orig_to_phys: HashMap<NodeId, NodeId>,
    /// Materialization marks for the job runner.
    pub materialize: Vec<MaterializeDecision>,
    /// Views reused.
    pub reused: Vec<ReuseDecision>,
    /// Overhead statistics.
    pub report: OptimizerReport,
}

/// Optimizes `logical` with the given annotations and metadata service.
///
/// `annotations` is the per-job list fetched by the compiler in one metadata
/// lookup (Figure 9 steps 1/2); it may contain irrelevant entries (the
/// inverted index over-approximates) — unmatched annotations are ignored,
/// exactly as the paper describes.
pub fn optimize(
    logical: &QueryGraph,
    annotations: &[Annotation],
    services: &dyn ViewServices,
    config: &OptimizerConfig,
    job: JobId,
) -> Result<OptimizedPlan> {
    let infos = enumerate_subgraphs(logical)?;
    optimize_with_cascade(logical, &infos, annotations, &[], services, config, job)
}

/// [`optimize`] with the subgraph enumeration already in hand, plus the
/// tier-2 half of the matching cascade.
///
/// The runtime compiles each job exactly once through the template cache
/// and threads the resulting [`SubgraphInfo`]s here, so a recurring
/// instance never re-enumerates inside the optimizer. `infos` must be the
/// enumeration of `logical` (one record per node, bottom-up) — anything
/// else yields nonsense rewrites.
///
/// `tier2` carries the subsumption candidates the metadata service's cascade
/// lookup returned: live views whose feature vectors survived the cheap
/// compatibility gate against this job's probes. For every subgraph root the
/// exact tier leaves uncovered, the optimizer runs the full subsumption check
/// and — when a candidate serves the root at lower cost than recomputing —
/// replaces the root's *child* with a [`Operator::ViewGet`] of the candidate
/// and rewrites the root into the compensation operator (residual filter,
/// re-projection, or rollup aggregate).
#[allow(clippy::too_many_arguments)]
pub fn optimize_with_cascade(
    logical: &QueryGraph,
    infos: &[SubgraphInfo],
    annotations: &[Annotation],
    tier2: &[SubsumedView],
    services: &dyn ViewServices,
    config: &OptimizerConfig,
    job: JobId,
) -> Result<OptimizedPlan> {
    let start = std::time::Instant::now();
    logical.validate()?;
    let by_normalized: HashMap<Sig128, &Annotation> =
        annotations.iter().map(|a| (a.normalized, a)).collect();

    let mut report = OptimizerReport {
        annotations: annotations.len(),
        logical_nodes: logical.len(),
        ..Default::default()
    };

    // ---- Phase 1: plan search / view reuse (top-down, largest first) ----
    let mut working = logical.clone();
    let mut replaced: Vec<bool> = vec![false; logical.len()];
    let mut reuse_sigs: Vec<(NodeId, Sig128, Sig128, SimDuration)> = Vec::new();
    if config.enable_reuse {
        let use_tier2 = config.enable_subsumption && !tier2.is_empty();
        let parent_map = if use_tier2 {
            logical.parents()
        } else {
            HashMap::new()
        };
        // Cheapest-to-read candidates first, so the first acceptable
        // candidate is also the one the cost model likes best.
        let mut tier2_sorted: Vec<&SubsumedView> = tier2.iter().collect();
        tier2_sorted.sort_by_key(|c| c.view.rows);

        let mut order: Vec<&SubgraphInfo> = infos.iter().collect();
        order.sort_by_key(|info| std::cmp::Reverse(info.num_nodes));
        for info in order {
            if replaced[info.root.index()] {
                continue;
            }
            // Never rewrite terminal Output/Write nodes themselves.
            if matches!(working.node(info.root)?.op, Operator::Output { .. }) {
                continue;
            }
            // Tier 1: exact precise-signature match.
            let mut exact_hit = false;
            if let Some(annotation) = by_normalized.get(&info.normalized) {
                report.normalized_matches += 1;
                if let Some(view) = services.view_available(info.precise) {
                    // Cost-based acceptance: reading, priced as the
                    // executor will charge the ViewGet, must be cheaper
                    // than the mined cost of recomputing.
                    if CostModel.view_read_cpu(view.rows, view.bytes) < annotation.avg_cpu {
                        let schema = working.schema_of(info.root)?;
                        let savings = annotation.avg_cpu;
                        working.replace_with_leaf(
                            info.root,
                            Operator::ViewGet {
                                view_sig: view.precise,
                                schema,
                                props: view.props.clone(),
                            },
                        )?;
                        // Mark the whole old subtree as gone.
                        for id in logical.subgraph_nodes(info.root)? {
                            if id != info.root {
                                replaced[id.index()] = true;
                            }
                        }
                        reuse_sigs.push((info.root, view.precise, info.normalized, savings));
                        report.views_reused += 1;
                        exact_hit = true;
                    }
                }
            }
            if exact_hit || !use_tier2 {
                continue;
            }
            // Tier 2: subsumption. The root must be an eligible unary root
            // whose child subgraph is still intact and feeds no other
            // consumer (a shared child still has to produce its full output
            // for the other parents).
            let &[child] = working.node(info.root)?.children.as_slice() else {
                continue;
            };
            if replaced[child.index()]
                || matches!(working.node(child)?.op, Operator::ViewGet { .. })
                || parent_map.get(&child).map(Vec::len) != Some(1)
            {
                continue;
            }
            let Some(qdesc) = SubsumeDescriptor::of_root(&working, infos, info.root) else {
                continue;
            };
            let recompute = by_normalized.get(&info.normalized).map(|a| a.avg_cpu);
            for &cand in &tier2_sorted {
                if cand.view.precise == info.precise {
                    // The exact view of this very root: tier-1 territory
                    // (reuse of unannotated templates stays annotation-driven).
                    continue;
                }
                let Some(comp) = SubsumeDescriptor::subsumes(&qdesc, &cand.descriptor) else {
                    continue;
                };
                if !rollup_safe_for_rows(&comp, cand.view.rows) {
                    continue;
                }
                // Recompute proxy: prefer the query template's own mined
                // cost; fall back to the candidate view's mined cost.
                let recompute = recompute.unwrap_or(cand.avg_cpu);
                // The operator the rewrite installs at the root. View rows ⊇
                // query rows, so a residual keeps the query's own filter,
                // re-applied verbatim over the view's (identical) schema.
                let installed = match comp {
                    Compensation::Residual => None,
                    Compensation::Reproject { exprs } => Some(Operator::Project { exprs }),
                    Compensation::Rollup { keys, aggs } => {
                        let implementation = match &working.node(info.root)?.op {
                            Operator::Aggregate { implementation, .. } => *implementation,
                            _ => AggImpl::Hash,
                        };
                        Some(Operator::Aggregate {
                            keys,
                            aggs,
                            implementation,
                        })
                    }
                };
                // Priced as the executor will charge the ViewGet and the
                // compensation running over the view's rows.
                let (rows, bytes) = (cand.view.rows, cand.view.bytes);
                let root_op = installed.as_ref().unwrap_or(&working.node(info.root)?.op);
                let reuse = CostModel.view_read_cpu(rows, bytes)
                    + CostModel.op_cpu(root_op, rows, rows, bytes);
                if reuse >= recompute {
                    continue;
                }
                working.replace_with_leaf(
                    child,
                    Operator::ViewGet {
                        view_sig: cand.view.precise,
                        schema: cand.descriptor.schema.clone(),
                        props: cand.view.props.clone(),
                    },
                )?;
                if let Some(op) = installed {
                    working.node_mut(info.root)?.op = op;
                }
                // The child subtree is gone; the (rewritten) root survives,
                // so phase 2 may still materialize its exact view from the
                // compensated — and result-identical — plan.
                for id in logical.subgraph_nodes(child)? {
                    replaced[id.index()] = true;
                }
                reuse_sigs.push((child, cand.view.precise, cand.normalized, recompute));
                report.views_reused += 1;
                report.tier2_reused += 1;
                break;
            }
        }
    }

    // ---- Phase 2: follow-up optimization / materialization (bottom-up) ----
    let mut mat_sigs: Vec<(NodeId, Sig128, Sig128, &Annotation)> = Vec::new();
    if config.enable_materialize {
        let mut order: Vec<&SubgraphInfo> = infos.iter().collect();
        order.sort_by_key(|i| i.num_nodes);
        for info in order {
            if mat_sigs.len() >= config.max_materialize_per_job {
                break;
            }
            if replaced[info.root.index()] {
                continue;
            }
            // A node we just rewrote into a ViewGet must not be rebuilt.
            if matches!(working.node(info.root)?.op, Operator::ViewGet { .. }) {
                continue;
            }
            if matches!(working.node(info.root)?.op, Operator::Output { .. }) {
                continue;
            }
            let Some(annotation) = by_normalized.get(&info.normalized) else {
                continue;
            };
            if services.view_available(info.precise).is_some() {
                continue; // already built; the reuse pass decided about it
            }
            // Lock TTL: the mined average runtime of the view subgraph
            // (Section 6.1 — "we mine the average runtime ... and use that
            // to set the expiry of the exclusive lock").
            let lock_ttl = annotation.avg_cpu + SimDuration::from_secs(5);
            if !services.propose_materialize(info.precise, info.normalized, job, lock_ttl) {
                continue; // someone else holds the build lock
            }
            mat_sigs.push((info.root, info.precise, info.normalized, annotation));
        }
        report.views_materialized = mat_sigs.len();
    }

    let mat_sigs_is_empty = mat_sigs.is_empty();

    // ---- Offline mode: keep only the subgraphs being materialized. ----
    let mut orig_remap: HashMap<NodeId, NodeId>;
    if config.offline_mode {
        if mat_sigs.is_empty() {
            return Err(ScopeError::Optimizer(
                "offline mode selected but no views to materialize".into(),
            ));
        }
        let mut pruned = QueryGraph::new();
        orig_remap = HashMap::new();
        // Copy only nodes reachable from materialization roots.
        let mut keep: Vec<bool> = vec![false; working.len()];
        for (root, ..) in &mat_sigs {
            for id in working.subgraph_nodes(*root)? {
                keep[id.index()] = true;
            }
        }
        for node in working.nodes() {
            if !keep[node.id.index()] {
                continue;
            }
            let children: Vec<NodeId> = node.children.iter().map(|c| orig_remap[c]).collect();
            let new_id = pruned.add(node.op.clone(), children)?;
            orig_remap.insert(node.id, new_id);
        }
        for (root, ..) in &mat_sigs {
            pruned.add_root(orig_remap[root])?;
        }
        working = pruned;
    } else {
        // Rewriting left unreachable nodes behind; compact for execution.
        orig_remap = working.compact();
    }

    // ---- Phase 3: lowering (implementation selection + enforcers). ----
    let (physical, lowered_map) = lower(&working, config)?;
    // Figure 10's follow-up optimization: when a materialization was added,
    // the plan (now carrying the extra view output) is re-optimized. The
    // re-lowering produces the same physical plan here, but it is exactly
    // the extra compile-time work the paper measures (+28% when creating a
    // view).
    let (physical, lowered_map) = if mat_sigs_is_empty {
        (physical, lowered_map)
    } else {
        lower(&working, config)?
    };
    report.physical_nodes = physical.len();

    let to_phys = |orig: NodeId| -> Option<NodeId> {
        orig_remap
            .get(&orig)
            .and_then(|mid| lowered_map.get(mid))
            .copied()
    };

    let mut orig_to_phys = HashMap::new();
    for node in logical.nodes() {
        if let Some(p) = to_phys(node.id) {
            orig_to_phys.insert(node.id, p);
        }
    }

    let materialize: Vec<MaterializeDecision> = mat_sigs
        .into_iter()
        .filter_map(|(root, precise, normalized, annotation)| {
            to_phys(root).map(|physical_node| MaterializeDecision {
                physical_node,
                precise,
                normalized,
                props: annotation.props.clone(),
                ttl: annotation.ttl,
            })
        })
        .collect();
    let reused: Vec<ReuseDecision> = reuse_sigs
        .into_iter()
        .filter_map(|(root, precise, normalized, predicted_savings)| {
            to_phys(root).map(|physical_node| ReuseDecision {
                physical_node,
                precise,
                normalized,
                predicted_savings,
            })
        })
        .collect();

    report.wall_time = start.elapsed();
    Ok(OptimizedPlan {
        physical,
        logical: working,
        orig_to_phys,
        materialize,
        reused,
        report,
    })
}

/// Lowers a logical plan: selects implementations and inserts enforcers.
/// Returns the physical graph and the logical→physical node map.
fn lower(
    logical: &QueryGraph,
    config: &OptimizerConfig,
) -> Result<(QueryGraph, HashMap<NodeId, NodeId>)> {
    let mut phys = QueryGraph::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut delivered: Vec<PhysicalProps> = Vec::new();

    for node in logical.nodes() {
        let child_ids: Vec<NodeId> = node.children.iter().map(|c| map[c]).collect();
        let child_props: Vec<PhysicalProps> = child_ids
            .iter()
            .map(|c| delivered[c.index()].clone())
            .collect();
        let op = select_implementation(&node.op, &child_props);
        let reqs = op.required_props(child_ids.len(), config.default_dop);

        let mut final_children: Vec<NodeId> = Vec::with_capacity(child_ids.len());
        for (i, &cid) in child_ids.iter().enumerate() {
            let req = reqs.get(i).cloned().unwrap_or_else(PhysicalProps::any);
            let mut cur = cid;
            // Partitioning enforcer.
            if !matches!(req.partitioning, Partitioning::Any)
                && !req
                    .partitioning
                    .satisfied_by(&delivered[cur.index()].partitioning)
            {
                let ex = Operator::Exchange {
                    scheme: req.partitioning.clone(),
                };
                let props = ex.delivered_props(&[delivered[cur.index()].clone()]);
                cur = phys.add(ex, vec![cur])?;
                delivered.push(props);
            }
            // Sort enforcer (partition-local).
            if !req.sort.is_none() && !req.sort.satisfied_by(&delivered[cur.index()].sort) {
                let sort = Operator::Sort {
                    order: req.sort.clone(),
                };
                let props = sort.delivered_props(&[delivered[cur.index()].clone()]);
                cur = phys.add(sort, vec![cur])?;
                delivered.push(props);
            }
            final_children.push(cur);
        }

        let final_props: Vec<PhysicalProps> = final_children
            .iter()
            .map(|c| delivered[c.index()].clone())
            .collect();
        let out_props = op.delivered_props(&final_props);
        let id = phys.add(op, final_children)?;
        delivered.push(out_props);
        map.insert(node.id, id);
    }

    for &r in logical.roots() {
        phys.add_root(map[&r])?;
    }
    phys.validate()?;
    Ok((phys, map))
}

/// Picks cheaper implementations when delivered properties allow them.
fn select_implementation(op: &Operator, child_props: &[PhysicalProps]) -> Operator {
    match op {
        Operator::Aggregate { keys, aggs, .. } if !keys.is_empty() => {
            let sorted = child_props
                .first()
                .map(|p| SortOrder::asc(keys).satisfied_by(&p.sort))
                .unwrap_or(false);
            Operator::Aggregate {
                keys: keys.clone(),
                aggs: aggs.clone(),
                implementation: if sorted {
                    AggImpl::Stream
                } else {
                    AggImpl::Hash
                },
            }
        }
        Operator::Join {
            kind,
            left_keys,
            right_keys,
            implementation,
        } => {
            if *implementation == JoinImpl::Loops {
                return op.clone(); // explicitly authored
            }
            let l_sorted = child_props
                .first()
                .map(|p| SortOrder::asc(left_keys).satisfied_by(&p.sort))
                .unwrap_or(false);
            let r_sorted = child_props
                .get(1)
                .map(|p| SortOrder::asc(right_keys).satisfied_by(&p.sort))
                .unwrap_or(false);
            Operator::Join {
                kind: *kind,
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                implementation: if l_sorted && r_sorted {
                    JoinImpl::Merge
                } else {
                    JoinImpl::Hash
                },
            }
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::ids::DatasetId;
    use scope_plan::expr::AggFunc;
    use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, Schema};
    use scope_signature::sign_graph;

    fn kv_schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
    }

    fn agg_plan() -> QueryGraph {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t/<date>/x.ss", kv_schema());
        let f = b.filter(s, Expr::col(1).ge(Expr::lit(0i64)));
        let a = b.aggregate(f, vec![0], vec![AggExpr::new("c", AggFunc::Count, 1)]);
        b.output(a, "o").build().unwrap()
    }

    fn no_views() -> NoViewServices {
        NoViewServices
    }

    #[test]
    fn baseline_lowering_inserts_enforcers() {
        let g = agg_plan();
        let plan = optimize(
            &g,
            &[],
            &no_views(),
            &OptimizerConfig::default(),
            JobId::new(1),
        )
        .unwrap();
        // Aggregate requires hash partitioning; Output requires Single:
        // expect at least two Exchange enforcers.
        let exchanges = plan
            .physical
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Operator::Exchange { .. }))
            .count();
        assert!(
            exchanges >= 2,
            "expected enforcer exchanges, got {exchanges}"
        );
        assert!(plan.physical.len() > g.len());
        assert!(plan.report.views_reused == 0 && plan.report.views_materialized == 0);
        // Every original logical node survives baseline optimization.
        assert_eq!(plan.orig_to_phys.len(), g.len());
    }

    #[test]
    fn stream_agg_selected_when_input_sorted() {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", kv_schema());
        let ex = b.exchange(
            s,
            Partitioning::Hash {
                cols: vec![0],
                parts: 8,
            },
        );
        let sorted = b.sort(ex, SortOrder::asc(&[0]));
        let a = b.aggregate(sorted, vec![0], vec![AggExpr::new("c", AggFunc::Count, 1)]);
        let g = b.output(a, "o").build().unwrap();
        let plan = optimize(
            &g,
            &[],
            &no_views(),
            &OptimizerConfig::default(),
            JobId::new(1),
        )
        .unwrap();
        let stream_aggs = plan
            .physical
            .nodes()
            .iter()
            .filter(|n| {
                matches!(
                    n.op,
                    Operator::Aggregate {
                        implementation: AggImpl::Stream,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(stream_aggs, 1);
    }

    struct OneView {
        view: AvailableView,
        normalized: Sig128,
        grant_locks: bool,
    }

    impl ViewServices for OneView {
        fn view_available(&self, precise: Sig128) -> Option<AvailableView> {
            (precise == self.view.precise).then(|| self.view.clone())
        }
        fn propose_materialize(&self, _p: Sig128, _n: Sig128, _j: JobId, _t: SimDuration) -> bool {
            self.grant_locks
        }
    }

    fn annotation_for(g: &QueryGraph, node: NodeId) -> (Annotation, Sig128) {
        let signed = sign_graph(g).unwrap();
        (
            Annotation {
                normalized: signed.of(node).normalized,
                props: PhysicalProps::hashed(vec![0], 8),
                ttl: SimDuration::from_secs(86_400),
                avg_cpu: SimDuration::from_secs(10),
                avg_rows: 1_000,
                avg_bytes: 64_000,
            },
            signed.of(node).precise,
        )
    }

    #[test]
    fn reuse_replaces_subgraph_with_viewget() {
        let g = agg_plan();
        let agg_node = NodeId::new(2);
        let (annotation, precise) = annotation_for(&g, agg_node);
        let services = OneView {
            view: AvailableView {
                precise,
                rows: 100,
                bytes: 6_400,
                props: PhysicalProps::hashed(vec![0], 8),
            },
            normalized: annotation.normalized,
            grant_locks: false,
        };
        let plan = optimize(
            &g,
            &[annotation],
            &services,
            &OptimizerConfig::default(),
            JobId::new(2),
        )
        .unwrap();
        assert_eq!(plan.report.views_reused, 1);
        assert_eq!(plan.reused.len(), 1);
        let viewgets = plan
            .physical
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Operator::ViewGet { .. }))
            .count();
        assert_eq!(viewgets, 1);
        // Scan and filter disappeared from the physical plan.
        assert!(plan
            .physical
            .nodes()
            .iter()
            .all(|n| !matches!(n.op, Operator::Get { .. })));
        // The replaced nodes have no physical image.
        assert!(!plan.orig_to_phys.contains_key(&NodeId::new(0)));
        let _ = services.normalized;
    }

    #[test]
    fn reuse_declined_when_read_costs_too_much() {
        let g = agg_plan();
        let agg_node = NodeId::new(2);
        let (mut annotation, precise) = annotation_for(&g, agg_node);
        annotation.avg_cpu = SimDuration::from_micros(10); // recompute is free
        let services = OneView {
            view: AvailableView {
                precise,
                rows: 10_000_000, // reading is huge
                bytes: 1 << 32,
                props: PhysicalProps::any(),
            },
            normalized: annotation.normalized,
            grant_locks: false,
        };
        let plan = optimize(
            &g,
            &[annotation],
            &services,
            &OptimizerConfig::default(),
            JobId::new(2),
        )
        .unwrap();
        assert_eq!(plan.report.views_reused, 0);
    }

    #[test]
    fn materialize_marks_respect_cap_and_locks() {
        let g = agg_plan();
        let signed = sign_graph(&g).unwrap();
        // Annotate both the filter and the aggregate.
        let mk = |node: NodeId| Annotation {
            normalized: signed.of(node).normalized,
            props: PhysicalProps::any(),
            ttl: SimDuration::from_secs(3600),
            avg_cpu: SimDuration::from_secs(5),
            avg_rows: 10,
            avg_bytes: 100,
        };
        let annotations = vec![mk(NodeId::new(1)), mk(NodeId::new(2))];
        let services = OneView {
            view: AvailableView {
                precise: Sig128::ZERO,
                rows: 0,
                bytes: 0,
                props: PhysicalProps::any(),
            },
            normalized: Sig128::ZERO,
            grant_locks: true,
        };
        // Cap 1: bottom-up order materializes the smaller (filter) subgraph.
        let plan = optimize(
            &g,
            &annotations,
            &services,
            &OptimizerConfig {
                max_materialize_per_job: 1,
                ..Default::default()
            },
            JobId::new(3),
        )
        .unwrap();
        assert_eq!(plan.materialize.len(), 1);
        // Cap 2 with locks granted: both.
        let plan = optimize(
            &g,
            &annotations,
            &services,
            &OptimizerConfig {
                max_materialize_per_job: 4,
                ..Default::default()
            },
            JobId::new(3),
        )
        .unwrap();
        assert_eq!(plan.materialize.len(), 2);
        // Locks denied: none.
        let services = OneView {
            grant_locks: false,
            ..services
        };
        let plan = optimize(
            &g,
            &annotations,
            &services,
            &OptimizerConfig::default(),
            JobId::new(3),
        )
        .unwrap();
        assert_eq!(plan.materialize.len(), 0);
    }

    #[test]
    fn offline_mode_keeps_only_view_subgraph() {
        let g = agg_plan();
        let signed = sign_graph(&g).unwrap();
        let annotations = vec![Annotation {
            normalized: signed.of(NodeId::new(1)).normalized, // the filter
            props: PhysicalProps::any(),
            ttl: SimDuration::from_secs(3600),
            avg_cpu: SimDuration::from_secs(5),
            avg_rows: 10,
            avg_bytes: 100,
        }];
        let services = OneView {
            view: AvailableView {
                precise: Sig128::ZERO,
                rows: 0,
                bytes: 0,
                props: PhysicalProps::any(),
            },
            normalized: Sig128::ZERO,
            grant_locks: true,
        };
        let plan = optimize(
            &g,
            &annotations,
            &services,
            &OptimizerConfig {
                offline_mode: true,
                ..Default::default()
            },
            JobId::new(4),
        )
        .unwrap();
        // Plan contains scan + filter only (plus enforcers, none needed).
        assert_eq!(plan.materialize.len(), 1);
        assert!(plan
            .physical
            .nodes()
            .iter()
            .all(|n| !matches!(n.op, Operator::Aggregate { .. } | Operator::Output { .. })));
        // Offline with nothing to build is an error.
        let err = optimize(
            &g,
            &[],
            &services,
            &OptimizerConfig {
                offline_mode: true,
                ..Default::default()
            },
            JobId::new(4),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "optimizer");
    }

    #[test]
    fn matching_view_design_avoids_enforcer() {
        // View stored hash[0]x8 feeding an aggregate on key 0 with dop 8:
        // no exchange needed between ViewGet and Aggregate.
        let g = agg_plan();
        let agg_node = NodeId::new(2);
        // Build a plan where the *filter* subgraph is replaced, so the
        // aggregate consumes the ViewGet directly.
        let signed = sign_graph(&g).unwrap();
        let filter_sig = signed.of(NodeId::new(1));
        let annotation = Annotation {
            normalized: filter_sig.normalized,
            props: PhysicalProps::hashed(vec![0], 8),
            ttl: SimDuration::from_secs(3600),
            avg_cpu: SimDuration::from_secs(100),
            avg_rows: 10,
            avg_bytes: 100,
        };
        let good = OneView {
            view: AvailableView {
                precise: filter_sig.precise,
                rows: 10,
                bytes: 100,
                props: PhysicalProps::hashed(vec![0], 8),
            },
            normalized: annotation.normalized,
            grant_locks: false,
        };
        let plan_good = optimize(
            &g,
            std::slice::from_ref(&annotation),
            &good,
            &OptimizerConfig::default(),
            JobId::new(5),
        )
        .unwrap();
        let bad = OneView {
            view: AvailableView {
                precise: filter_sig.precise,
                rows: 10,
                bytes: 100,
                props: PhysicalProps::any(), // poor physical design
            },
            normalized: annotation.normalized,
            grant_locks: false,
        };
        let plan_bad = optimize(
            &g,
            std::slice::from_ref(&annotation),
            &bad,
            &OptimizerConfig::default(),
            JobId::new(5),
        )
        .unwrap();
        let count_ex = |p: &OptimizedPlan| {
            p.physical
                .nodes()
                .iter()
                .filter(|n| matches!(n.op, Operator::Exchange { .. }))
                .count()
        };
        assert!(
            count_ex(&plan_bad) > count_ex(&plan_good),
            "mismatched view design must force extra repartitioning"
        );
        let _ = agg_node;
    }

    fn filter_graph(bound: i64, out: &str) -> QueryGraph {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t/<date>/x.ss", kv_schema());
        let f = b.filter(s, Expr::col(1).ge(Expr::lit(bound)));
        b.output(f, out).build().unwrap()
    }

    /// Builds a tier-2 candidate for the unary root `root` of `view_g`, as
    /// the metadata service's cascade lookup would deliver it.
    fn tier2_candidate(view_g: &QueryGraph, root: NodeId) -> SubsumedView {
        let infos = enumerate_subgraphs(view_g).unwrap();
        let descriptor = SubsumeDescriptor::of_root(view_g, &infos, root).unwrap();
        SubsumedView {
            view: AvailableView {
                precise: infos[root.index()].precise,
                rows: 10,
                bytes: 100,
                props: PhysicalProps::any(),
            },
            normalized: infos[root.index()].normalized,
            descriptor,
            avg_cpu: SimDuration::from_secs(10),
        }
    }

    fn cascade(
        g: &QueryGraph,
        annotations: &[Annotation],
        tier2: &[SubsumedView],
        config: &OptimizerConfig,
    ) -> OptimizedPlan {
        let infos = enumerate_subgraphs(g).unwrap();
        optimize_with_cascade(
            g,
            &infos,
            annotations,
            tier2,
            &no_views(),
            config,
            JobId::new(7),
        )
        .unwrap()
    }

    #[test]
    fn tier2_filter_subsumption_rewrites_child() {
        // View filtered wider (v >= 0) serves a query filtered tighter
        // (v >= 10): the scan child becomes a ViewGet, the query's own
        // filter survives as the residual compensation.
        let q = filter_graph(10, "o");
        let v = filter_graph(0, "v");
        let cand = tier2_candidate(&v, NodeId::new(1));
        let plan = cascade(
            &q,
            &[],
            std::slice::from_ref(&cand),
            &OptimizerConfig::default(),
        );
        assert_eq!(plan.report.tier2_reused, 1);
        assert_eq!(plan.report.views_reused, 1);
        assert_eq!(plan.reused.len(), 1);
        assert_eq!(plan.reused[0].precise, cand.view.precise);
        let has = |pred: fn(&Operator) -> bool| plan.physical.nodes().iter().any(|n| pred(&n.op));
        assert!(has(|op| matches!(op, Operator::Filter { .. })));
        assert!(has(|op| matches!(op, Operator::ViewGet { .. })));
        assert!(!has(|op| matches!(op, Operator::Get { .. })));

        // The wrong direction must not match: a tighter view cannot serve a
        // wider query.
        let plan = cascade(
            &filter_graph(0, "o"),
            &[],
            &[tier2_candidate(&filter_graph(10, "v"), NodeId::new(1))],
            &OptimizerConfig::default(),
        );
        assert_eq!(plan.report.tier2_reused, 0);
    }

    #[test]
    fn tier2_rollup_rewrites_aggregate() {
        // View grouped by (k, v) rolls up to the query's group-by (k); the
        // query's Count over raw rows becomes a Sum over the view's counts.
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t/<date>/x.ss", kv_schema());
        let a = b.aggregate(s, vec![0, 1], vec![AggExpr::new("n", AggFunc::Count, 1)]);
        let v = b.output(a, "v").build().unwrap();
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t/<date>/x.ss", kv_schema());
        let a = b.aggregate(s, vec![0], vec![AggExpr::new("n", AggFunc::Count, 1)]);
        let q = b.output(a, "o").build().unwrap();
        let cand = tier2_candidate(&v, NodeId::new(1));
        let plan = cascade(&q, &[], &[cand], &OptimizerConfig::default());
        assert_eq!(plan.report.tier2_reused, 1);
        let rollup = plan
            .physical
            .nodes()
            .iter()
            .find_map(|n| match &n.op {
                Operator::Aggregate { keys, aggs, .. } => Some((keys.clone(), aggs.clone())),
                _ => None,
            })
            .expect("compensation aggregate survives lowering");
        assert_eq!(rollup.0, vec![0]);
        assert_eq!(rollup.1.len(), 1);
        assert_eq!(rollup.1[0].func, AggFunc::Sum);
        assert_eq!(rollup.1[0].name, "n");
        assert_eq!(rollup.1[0].input, 2, "sums the view's count column");
    }

    #[test]
    fn tier2_respects_cost_gate_and_knob() {
        let q = filter_graph(10, "o");
        let v = filter_graph(0, "v");
        // Huge view, cheap recompute: the cost gate declines.
        let mut cand = tier2_candidate(&v, NodeId::new(1));
        cand.view.rows = 10_000_000;
        cand.view.bytes = 1 << 32;
        cand.avg_cpu = SimDuration::from_micros(1);
        let plan = cascade(&q, &[], &[cand], &OptimizerConfig::default());
        assert_eq!(plan.report.tier2_reused, 0);
        // Knob off: no tier-2 even for a perfectly good candidate.
        let cand = tier2_candidate(&v, NodeId::new(1));
        let plan = cascade(
            &q,
            &[],
            &[cand],
            &OptimizerConfig {
                enable_subsumption: false,
                ..Default::default()
            },
        );
        assert_eq!(plan.report.tier2_reused, 0);
        assert_eq!(plan.report.views_reused, 0);
    }

    #[test]
    fn reuse_disabled_by_config() {
        let g = agg_plan();
        let agg_node = NodeId::new(2);
        let (annotation, precise) = annotation_for(&g, agg_node);
        let services = OneView {
            view: AvailableView {
                precise,
                rows: 1,
                bytes: 10,
                props: PhysicalProps::any(),
            },
            normalized: annotation.normalized,
            grant_locks: true,
        };
        let plan = optimize(
            &g,
            &[annotation],
            &services,
            &OptimizerConfig {
                enable_reuse: false,
                enable_materialize: false,
                ..Default::default()
            },
            JobId::new(6),
        )
        .unwrap();
        assert_eq!(plan.report.views_reused, 0);
        assert_eq!(plan.report.views_materialized, 0);
    }
}
