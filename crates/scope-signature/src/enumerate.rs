//! Subgraph enumeration and job tagging.
//!
//! The CloudViews analyzer "enumerat\[es\] all possible subgraphs of all jobs
//! seen within a time window" (paper Section 5.1). In a tree/DAG plan, every
//! node is the root of exactly one subgraph, so enumeration is a walk over
//! nodes, emitting a [`SubgraphInfo`] record carrying both signatures plus
//! the structural features the selection heuristics use.
//!
//! [`job_tags`] extracts the normalized tags the metadata service's inverted
//! index is built on (Section 6.1): the normalized names of the job's inputs
//! and outputs. A job's compile-time lookup sends its tags once and receives
//! every normalized signature relevant to any of them.
//!
//! Tags are interned [`Symbol`]s and delivered properties are pooled behind
//! `Arc`s, so the records a recurring workload emits over and over share
//! allocations instead of cloning strings and property structs per node.

use std::collections::HashSet;
use std::sync::Arc;

use scope_common::hash::Sig128;
use scope_common::ids::NodeId;
use scope_common::intern::Symbol;
use scope_common::Result;
use scope_plan::op::normalize_stream_symbol;
use scope_plan::{shared_props, OpKind, Operator, PhysicalProps, QueryGraph};

use crate::signature::{sign_graph, SignedGraph};

/// One enumerated subgraph: the analyzer's unit of candidate selection.
#[derive(Clone, Debug, PartialEq)]
pub struct SubgraphInfo {
    /// Root node of the subgraph within its job's plan.
    pub root: NodeId,
    /// Precise signature (matches within a recurring instance).
    pub precise: Sig128,
    /// Normalized signature (matches across recurring instances).
    pub normalized: Sig128,
    /// Root operator kind (Figure 4a breakdown).
    pub root_kind: OpKind,
    /// Number of nodes in the subgraph.
    pub num_nodes: usize,
    /// Normalized names of the input streams feeding this subgraph.
    pub input_tags: Vec<Symbol>,
    /// Output physical properties delivered at the subgraph root, mined for
    /// view physical design (Section 5.3). Guarantees propagate bottom-up
    /// through position-preserving operators and are remapped (or dropped)
    /// across width-changing ones — the paper's "traverse down until we hit
    /// one or more physical properties", done soundly. Shared via the
    /// global [`shared_props`] pool.
    pub props: Arc<PhysicalProps>,
    /// True when the subgraph contains user code (affects costing trust).
    pub has_user_code: bool,
}

/// Enumerates every subgraph of `graph`, one record per node.
///
/// Records are emitted in bottom-up topological order. `Output` sinks are
/// included (the paper's "reusing existing outputs" lesson needs them);
/// callers filter by kind when appropriate.
pub fn enumerate_subgraphs(graph: &QueryGraph) -> Result<Vec<SubgraphInfo>> {
    let signed: SignedGraph = sign_graph(graph)?;
    enumerate_with_signed(graph, &signed)
}

/// [`enumerate_subgraphs`] when the signatures are already computed — the
/// template cache's miss path signs once and enumerates with the result.
pub fn enumerate_with_signed(
    graph: &QueryGraph,
    signed: &SignedGraph,
) -> Result<Vec<SubgraphInfo>> {
    let mut infos: Vec<SubgraphInfo> = Vec::with_capacity(graph.len());
    // Per-node accumulators, reusing children's results (DAG-aware).
    let mut tags: Vec<Vec<Symbol>> = Vec::with_capacity(graph.len());
    let mut user_code: Vec<bool> = Vec::with_capacity(graph.len());
    let mut props: Vec<Arc<PhysicalProps>> = Vec::with_capacity(graph.len());
    // Scratch set for O(1) duplicate checks while merging child tag lists
    // (symbols hash as integers); cleared per node.
    let mut seen: HashSet<Symbol> = HashSet::new();

    for node in graph.nodes() {
        let idx = node.id.index();
        debug_assert_eq!(idx, tags.len());

        // num_nodes: exact via subgraph walk (cheap for our plan sizes, and
        // exact in the presence of shared spools where child sums overcount).
        let num_nodes = graph.subgraph_nodes(node.id)?.len();

        seen.clear();
        let mut my_tags: Vec<Symbol> = Vec::new();
        let mut my_user = false;
        match &node.op {
            Operator::Get {
                template_name,
                extractor,
                ..
            } => {
                let tag = normalize_stream_symbol(*template_name);
                if seen.insert(tag) {
                    my_tags.push(tag);
                }
                my_user |= extractor.is_some();
            }
            Operator::Process { .. }
            | Operator::Reduce { .. }
            | Operator::GbApply { .. }
            | Operator::Combine { .. } => my_user = true,
            _ => {}
        }
        for &c in &node.children {
            for &t in &tags[c.index()] {
                if seen.insert(t) {
                    my_tags.push(t);
                }
            }
            my_user |= user_code[c.index()];
        }

        // Delivered physical properties. `delivered_props` already walks
        // guarantees through position-preserving operators (the paper's
        // "traverse down until we hit one or more physical properties")
        // and remaps or drops them across width-changing ones, so no extra
        // inheritance is needed — or sound — here.
        let child_props: Vec<PhysicalProps> = node
            .children
            .iter()
            .map(|c| (*props[c.index()]).clone())
            .collect();
        let delivered = shared_props(node.op.delivered_props(&child_props));

        infos.push(SubgraphInfo {
            root: node.id,
            precise: signed.of(node.id).precise,
            normalized: signed.of(node.id).normalized,
            root_kind: node.op.kind(),
            num_nodes,
            input_tags: my_tags.clone(),
            props: Arc::clone(&delivered),
            has_user_code: my_user,
        });
        tags.push(my_tags);
        user_code.push(my_user);
        props.push(delivered);
    }
    Ok(infos)
}

/// The normalized tags identifying a job for the metadata-service inverted
/// index: normalized input stream names plus normalized output names.
pub fn job_tags(graph: &QueryGraph) -> Vec<Symbol> {
    let mut seen: HashSet<Symbol> = HashSet::new();
    let mut tags: Vec<Symbol> = Vec::new();
    for node in graph.nodes() {
        let tag = match &node.op {
            Operator::Get { template_name, .. } => Some(normalize_stream_symbol(*template_name)),
            Operator::Output { name, .. } => Some(normalize_stream_symbol(*name)),
            _ => None,
        };
        if let Some(t) = tag {
            if seen.insert(t) {
                tags.push(t);
            }
        }
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::ids::DatasetId;
    use scope_plan::expr::AggFunc;
    use scope_plan::{AggExpr, DataType, Expr, Partitioning, PlanBuilder, Schema, Udo, UdoKind};

    fn schema() -> Schema {
        Schema::from_pairs(&[("user", DataType::Int), ("text", DataType::Str)])
    }

    fn pipeline_graph() -> QueryGraph {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(3), "clicks/2017-11-08/log.ss", schema());
        let f = b.filter(s, Expr::col(0).gt(Expr::lit(10i64)));
        let ex = b.exchange(
            f,
            Partitioning::Hash {
                cols: vec![0],
                parts: 8,
            },
        );
        let a = b.aggregate(ex, vec![0], vec![AggExpr::new("n", AggFunc::Count, 1)]);
        b.output(a, "out/2017-11-08/res.ss").build().unwrap()
    }

    #[test]
    fn one_record_per_node() {
        let g = pipeline_graph();
        let infos = enumerate_subgraphs(&g).unwrap();
        assert_eq!(infos.len(), g.len());
        // Bottom-up: first record is the scan.
        assert_eq!(infos[0].root_kind, OpKind::TableScan);
        assert_eq!(infos[0].num_nodes, 1);
        // Last record is the output and spans the whole job.
        assert_eq!(infos.last().unwrap().root_kind, OpKind::Output);
        assert_eq!(infos.last().unwrap().num_nodes, g.len());
    }

    #[test]
    fn input_tags_are_normalized_and_propagate() {
        let g = pipeline_graph();
        let infos = enumerate_subgraphs(&g).unwrap();
        for info in &infos {
            assert_eq!(
                info.input_tags,
                vec![Symbol::intern("clicks/<date>/log.ss")]
            );
        }
    }

    #[test]
    fn job_tags_include_inputs_and_outputs() {
        let g = pipeline_graph();
        let tags = job_tags(&g);
        assert!(tags.contains(&Symbol::intern("clicks/<date>/log.ss")));
        assert!(tags.contains(&Symbol::intern("out/<date>/res.ss")));
        assert_eq!(tags.len(), 2);
    }

    #[test]
    fn props_mined_at_exchange_and_inherited_above() {
        let g = pipeline_graph();
        let infos = enumerate_subgraphs(&g).unwrap();
        // Node 2 is the exchange: delivers hash[0]x8.
        let ex = &infos[2];
        assert_eq!(ex.root_kind, OpKind::Exchange);
        assert_eq!(ex.props.partitioning.parts(), Some(8));
        // The aggregate above delivers its input's distribution.
        let agg = &infos[3];
        assert_eq!(agg.props.partitioning.parts(), Some(8));
        // The filter below the exchange has no explicit props and no
        // property-delivering descendant -> Any.
        assert_eq!(*infos[1].props, PhysicalProps::any());
    }

    #[test]
    fn identical_props_share_one_allocation() {
        let g = pipeline_graph();
        let infos = enumerate_subgraphs(&g).unwrap();
        // Exchange and the aggregate above it deliver the same shape — the
        // pool must hand back the same Arc, not two equal copies.
        assert!(Arc::ptr_eq(&infos[2].props, &infos[3].props));
    }

    #[test]
    fn user_code_flag_propagates() {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", schema());
        let p = b.process(s, Udo::new(UdoKind::Tokenize { col: 1 }, "Lib", "1.0"));
        let f = b.filter(p, Expr::col(0).gt(Expr::lit(0i64)));
        let g = b.output(f, "o").build().unwrap();
        let infos = enumerate_subgraphs(&g).unwrap();
        assert!(!infos[0].has_user_code); // scan
        assert!(infos[1].has_user_code); // process
        assert!(infos[2].has_user_code); // filter above process
        assert!(infos[3].has_user_code); // output
    }

    #[test]
    fn shared_spool_counts_nodes_once() {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "t", schema());
        let sp = b.spool(s);
        let f1 = b.filter(sp, Expr::col(0).gt(Expr::lit(0i64)));
        let f2 = b.filter(sp, Expr::col(0).lt(Expr::lit(0i64)));
        let u = b.union_all(vec![f1, f2]);
        let g = b.output(u, "o").build().unwrap();
        let infos = enumerate_subgraphs(&g).unwrap();
        let union_info = &infos[4];
        assert_eq!(union_info.root_kind, OpKind::UnionAll);
        // scan + spool + 2 filters + union = 5, not 6 (scan counted once).
        assert_eq!(union_info.num_nodes, 5);
    }

    #[test]
    fn multi_input_tags_dedup() {
        let mut b = PlanBuilder::new();
        let l = b.table_scan(DatasetId::new(1), "a/x.ss", schema());
        let r = b.table_scan(DatasetId::new(2), "a/x.ss", schema()); // same template
        let j = b.join(l, r, scope_plan::JoinKind::Inner, vec![0], vec![0]);
        let g = b.output(j, "o").build().unwrap();
        let infos = enumerate_subgraphs(&g).unwrap();
        assert_eq!(infos[2].input_tags.len(), 1);
    }
}
