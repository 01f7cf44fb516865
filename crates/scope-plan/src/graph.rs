//! The query-plan DAG.
//!
//! SCOPE jobs are DAGs, not trees: a `Spool` node (or simply a shared scan)
//! can be consumed by several parents, and a job can have multiple `Output`
//! statements (the paper's Section 8 "reusing existing outputs" lesson
//! depends on per-output subgraphs). [`QueryGraph`] is an arena of
//! [`PlanNode`]s with child edges by [`NodeId`]; roots are the sink nodes.

use std::collections::HashMap;
use std::sync::OnceLock;

use scope_common::ids::NodeId;
use scope_common::{Result, ScopeError};

use crate::op::Operator;
use crate::schema::Schema;

/// One node of the plan DAG.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanNode {
    /// This node's id (its index in the arena).
    pub id: NodeId,
    /// The operator.
    pub op: Operator,
    /// Children in operator-defined order (e.g. join left then right).
    pub children: Vec<NodeId>,
}

/// A query plan DAG.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryGraph {
    nodes: Vec<PlanNode>,
    roots: Vec<NodeId>,
    schemas: SchemaMemo,
}

/// Every node's output schema, derived on first use and dropped by every
/// [`QueryGraph`] method that adds or changes a node (`add`, `node_mut` and
/// so `replace_with_leaf`, `compact`): one schema pass per graph version.
/// A derived fact, so it takes no part in equality and prints as `..`.
#[derive(Clone, Default)]
struct SchemaMemo(OnceLock<Vec<Schema>>);

impl PartialEq for SchemaMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for SchemaMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("..")
    }
}

impl QueryGraph {
    /// An empty graph.
    pub fn new() -> Self {
        QueryGraph::default()
    }

    /// Adds a node and returns its id. Children must already exist.
    pub fn add(&mut self, op: Operator, children: Vec<NodeId>) -> Result<NodeId> {
        let (min, max) = op.arity();
        if children.len() < min || children.len() > max {
            return Err(ScopeError::InvalidPlan(format!(
                "{} expects {min}..{} children, got {}",
                op.kind(),
                if max == usize::MAX {
                    "*".into()
                } else {
                    max.to_string()
                },
                children.len()
            )));
        }
        for &c in &children {
            if c.index() >= self.nodes.len() {
                return Err(ScopeError::InvalidPlan(format!(
                    "child {c} does not exist (graph has {} nodes)",
                    self.nodes.len()
                )));
            }
        }
        let id = NodeId::new(self.nodes.len() as u64);
        self.schemas = SchemaMemo::default();
        self.nodes.push(PlanNode { id, op, children });
        Ok(id)
    }

    /// Marks a node as a root (a sink of the job). Typically `Output` nodes.
    pub fn add_root(&mut self, id: NodeId) -> Result<()> {
        if id.index() >= self.nodes.len() {
            return Err(ScopeError::InvalidPlan(format!("root {id} does not exist")));
        }
        if !self.roots.contains(&id) {
            self.roots.push(id);
        }
        Ok(())
    }

    /// All nodes in insertion order (which is a valid bottom-up topological
    /// order, because children must exist before parents).
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root (sink) node ids.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> Result<&PlanNode> {
        self.nodes
            .get(id.index())
            .ok_or_else(|| ScopeError::InvalidPlan(format!("unknown node {id}")))
    }

    /// Mutable access to a node's operator (used by the optimizer's
    /// rewriting steps).
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut PlanNode> {
        self.schemas = SchemaMemo::default();
        self.nodes
            .get_mut(id.index())
            .ok_or_else(|| ScopeError::InvalidPlan(format!("unknown node {id}")))
    }

    /// Parent map: for each node, the list of nodes that consume it.
    pub fn parents(&self) -> HashMap<NodeId, Vec<NodeId>> {
        let mut map: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for n in &self.nodes {
            for &c in &n.children {
                map.entry(c).or_default().push(n.id);
            }
        }
        map
    }

    /// The output schema of every node (indexed like the arena), derived
    /// bottom-up on first use and kept until the graph next changes. Fails
    /// on the first schema error, naming the offending node; a failed
    /// derivation is not kept, so a graph fixed afterwards derives anew.
    pub fn schemas(&self) -> Result<&[Schema]> {
        if let Some(schemas) = self.schemas.0.get() {
            return Ok(schemas);
        }
        let mut out: Vec<Schema> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            // A child not derived yet is a forward edge, which `validate`
            // names; `node_mut` is the only way to make one.
            let at = |c: &NodeId| out.get(c.index()).cloned();
            let Some(inputs) = n.children.iter().map(at).collect::<Option<Vec<_>>>() else {
                return Err(ScopeError::InvalidPlan(format!(
                    "node {} has a forward edge (not a DAG ordering)",
                    n.id
                )));
            };
            let s = n.op.output_schema(&inputs).map_err(|e| {
                ScopeError::InvalidPlan(format!("node {} ({}): {e}", n.id, n.op.describe()))
            })?;
            out.push(s);
        }
        Ok(self.schemas.0.get_or_init(|| out))
    }

    /// The output schema of one node: one entry of [`QueryGraph::schemas`],
    /// so every call on an unchanged graph after the first costs a lookup and
    /// a reference count. A caller may ask once per root (as
    /// `SubsumeDescriptor::of` does) without paying O(nodes × roots).
    pub fn schema_of(&self, id: NodeId) -> Result<Schema> {
        self.schemas()?
            .get(id.index())
            .cloned()
            .ok_or_else(|| ScopeError::InvalidPlan(format!("unknown node {id}")))
    }

    /// Validates the whole graph: child ordering (DAG by construction),
    /// arity, schemas, and that every root exists. Returns the schemas
    /// ([`QueryGraph::schemas`]) as a by-product.
    pub fn validate(&self) -> Result<&[Schema]> {
        if self.roots.is_empty() && !self.nodes.is_empty() {
            return Err(ScopeError::InvalidPlan("graph has no roots".into()));
        }
        for n in &self.nodes {
            for &c in &n.children {
                if c.index() >= n.id.index() {
                    return Err(ScopeError::InvalidPlan(format!(
                        "node {} has forward edge to {c} (not a DAG ordering)",
                        n.id
                    )));
                }
            }
        }
        self.schemas()
    }

    /// The ids of all nodes in the subgraph rooted at `root` (including
    /// `root`), in bottom-up topological order.
    pub fn subgraph_nodes(&self, root: NodeId) -> Result<Vec<NodeId>> {
        self.node(root)?;
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            stack.extend(self.nodes[id.index()].children.iter().copied());
        }
        Ok((0..self.nodes.len())
            .filter(|i| seen[*i])
            .map(|i| NodeId::new(i as u64))
            .collect())
    }

    /// Replaces the subgraph rooted at `root` with a single new operator
    /// (used to swap a computed subgraph for a `ViewGet`). The old nodes
    /// become unreachable; they are *not* removed (ids stay stable), but
    /// [`QueryGraph::compact`] can garbage-collect them.
    pub fn replace_with_leaf(&mut self, root: NodeId, op: Operator) -> Result<()> {
        let (min, _) = op.arity();
        if min != 0 {
            return Err(ScopeError::InvalidPlan(
                "replace_with_leaf needs a leaf operator".into(),
            ));
        }
        let node = self.node_mut(root)?;
        node.op = op;
        node.children.clear();
        Ok(())
    }

    /// Rebuilds the graph keeping only nodes reachable from the roots.
    /// Returns the id remapping (old → new).
    pub fn compact(&mut self) -> HashMap<NodeId, NodeId> {
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.roots.clone();
        while let Some(id) = stack.pop() {
            if reachable[id.index()] {
                continue;
            }
            reachable[id.index()] = true;
            stack.extend(self.nodes[id.index()].children.iter().copied());
        }
        let mut remap = HashMap::new();
        let mut nodes = Vec::new();
        self.schemas = SchemaMemo::default();
        for (i, keep) in reachable.iter().enumerate() {
            if *keep {
                let old = &self.nodes[i];
                let new_id = NodeId::new(nodes.len() as u64);
                let children = old.children.iter().map(|c| remap[c]).collect();
                nodes.push(PlanNode {
                    id: new_id,
                    op: old.op.clone(),
                    children,
                });
                remap.insert(NodeId::new(i as u64), new_id);
            }
        }
        self.nodes = nodes;
        self.roots = self.roots.iter().map(|r| remap[r]).collect();
        remap
    }

    /// Pretty-prints the DAG as an indented tree per root (shared nodes
    /// printed once per reference, tagged with their id).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for &r in &self.roots {
            self.explain_rec(r, 0, &mut out);
        }
        out
    }

    fn explain_rec(&self, id: NodeId, depth: usize, out: &mut String) {
        let n = &self.nodes[id.index()];
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{} {}\n", n.id, n.op.describe()));
        for &c in &n.children {
            self.explain_rec(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::op::ScanKind;
    use crate::schema::Schema;
    use crate::types::DataType;
    use scope_common::ids::DatasetId;

    fn scan(name: &str) -> Operator {
        Operator::Get {
            dataset: DatasetId::new(1),
            template_name: name.into(),
            schema: Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]),
            kind: ScanKind::Table,
            predicate: None,
            extractor: None,
        }
    }

    fn simple_graph() -> (QueryGraph, NodeId, NodeId, NodeId) {
        let mut g = QueryGraph::new();
        let s = g.add(scan("t"), vec![]).unwrap();
        let f = g
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).gt(Expr::lit(0i64)),
                },
                vec![s],
            )
            .unwrap();
        let o = g
            .add(
                Operator::Output {
                    name: "out.ss".into(),
                    stored: false,
                },
                vec![f],
            )
            .unwrap();
        g.add_root(o).unwrap();
        (g, s, f, o)
    }

    #[test]
    fn build_and_validate() {
        let (g, s, f, o) = simple_graph();
        assert_eq!(g.len(), 3);
        assert_eq!(g.roots(), &[o]);
        let schemas = g.validate().unwrap();
        assert_eq!(schemas[s.index()].len(), 2);
        assert_eq!(schemas[f.index()].len(), 2);
    }

    #[test]
    fn arity_enforced_on_add() {
        let mut g = QueryGraph::new();
        let s = g.add(scan("t"), vec![]).unwrap();
        // Filter with zero children rejected.
        assert!(g
            .add(
                Operator::Filter {
                    predicate: Expr::lit(true)
                },
                vec![]
            )
            .is_err());
        // Scan with a child rejected.
        assert!(g.add(scan("u"), vec![s]).is_err());
        // Nonexistent child rejected.
        assert!(g.add(Operator::Nop, vec![NodeId::new(99)]).is_err());
    }

    #[test]
    fn shared_subgraph_parents() {
        let mut g = QueryGraph::new();
        let s = g.add(scan("t"), vec![]).unwrap();
        let spool = g.add(Operator::Spool, vec![s]).unwrap();
        let f1 = g
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).gt(Expr::lit(0i64)),
                },
                vec![spool],
            )
            .unwrap();
        let f2 = g
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).lt(Expr::lit(0i64)),
                },
                vec![spool],
            )
            .unwrap();
        let o1 = g
            .add(
                Operator::Output {
                    name: "o1".into(),
                    stored: false,
                },
                vec![f1],
            )
            .unwrap();
        let o2 = g
            .add(
                Operator::Output {
                    name: "o2".into(),
                    stored: false,
                },
                vec![f2],
            )
            .unwrap();
        g.add_root(o1).unwrap();
        g.add_root(o2).unwrap();
        let parents = g.parents();
        assert_eq!(parents[&spool].len(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn subgraph_nodes_of_shared_dag() {
        let mut g = QueryGraph::new();
        let s = g.add(scan("t"), vec![]).unwrap();
        let n1 = g.add(Operator::Nop, vec![s]).unwrap();
        let n2 = g.add(Operator::Nop, vec![s]).unwrap();
        let u = g.add(Operator::UnionAll, vec![n1, n2]).unwrap();
        g.add_root(u).unwrap();
        let ids = g.subgraph_nodes(u).unwrap();
        assert_eq!(ids.len(), 4); // shared scan counted once
    }

    #[test]
    fn replace_with_leaf_and_compact() {
        let (mut g, s, f, o) = simple_graph();
        let view = Operator::ViewGet {
            view_sig: scope_common::sip128(b"v"),
            schema: Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]),
            props: Default::default(),
        };
        g.replace_with_leaf(f, view).unwrap();
        g.validate().unwrap();
        assert_eq!(g.len(), 3); // scan now unreachable but still present
        let remap = g.compact();
        assert_eq!(g.len(), 2);
        assert!(!remap.contains_key(&s));
        assert!(remap.contains_key(&o));
        g.validate().unwrap();
    }

    #[test]
    fn replace_requires_leaf() {
        let (mut g, _, f, _) = simple_graph();
        assert!(g
            .replace_with_leaf(
                f,
                Operator::Filter {
                    predicate: Expr::lit(true)
                }
            )
            .is_err());
    }

    #[test]
    fn explain_contains_all_reachable() {
        let (g, ..) = simple_graph();
        let text = g.explain();
        assert!(text.contains("Output"));
        assert!(text.contains("Filter"));
        assert!(text.contains("TableScan") || text.contains("Table"));
    }

    #[test]
    fn no_roots_invalid() {
        let mut g = QueryGraph::new();
        g.add(scan("t"), vec![]).unwrap();
        assert!(g.validate().is_err());
    }

    /// `g` rebuilt node by node: the same graph with no schema derived yet.
    fn fresh(g: &QueryGraph) -> QueryGraph {
        let mut copy = QueryGraph::new();
        for n in g.nodes() {
            copy.add(n.op.clone(), n.children.clone()).unwrap();
        }
        for &r in g.roots() {
            copy.add_root(r).unwrap();
        }
        copy
    }

    /// Every schema read of `g` equals the same read of a fresh copy.
    fn reads_as_fresh(g: &QueryGraph) {
        let copy = fresh(g);
        assert_eq!(g.schemas().unwrap(), copy.schemas().unwrap());
        assert_eq!(g.validate().unwrap(), copy.validate().unwrap());
        for n in g.nodes() {
            assert_eq!(g.schema_of(n.id).unwrap(), copy.schema_of(n.id).unwrap());
        }
        assert!(g.schemas.0.get().is_some(), "the reads filled the memo");
    }

    #[test]
    fn the_schema_memo_follows_every_change() {
        let (mut g, s, f, o) = simple_graph();
        reads_as_fresh(&g);
        let project = Operator::Project {
            exprs: vec![crate::expr::NamedExpr::new("a2", Expr::col(0))],
        };
        let p = g.add(project, vec![f]).unwrap();
        g.add_root(p).unwrap();
        reads_as_fresh(&g);
        assert_eq!(g.schema_of(p).unwrap().len(), 1);
        let narrow = Schema::from_pairs(&[("a", DataType::Int)]);
        let Operator::Get { schema, .. } = &mut g.node_mut(s).unwrap().op else {
            unreachable!("node {s} is a scan")
        };
        *schema = narrow;
        reads_as_fresh(&g);
        assert_eq!(g.schema_of(o).unwrap().len(), 1);
        let view = Operator::ViewGet {
            view_sig: scope_common::sip128(b"v"),
            schema: Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Float)]),
            props: Default::default(),
        };
        g.replace_with_leaf(f, view).unwrap();
        reads_as_fresh(&g);
        assert_eq!(g.schema_of(o).unwrap().len(), 2);
        g.compact();
        reads_as_fresh(&g);
        assert_eq!(g.len(), 3);
        // The memo takes no part in a clone's contents, equality or print.
        let (copy, clone) = (fresh(&g), g.clone());
        assert!(g == copy && clone == copy);
        assert_eq!(format!("{g:?}"), format!("{copy:?}"));
        assert_eq!(clone.schemas().unwrap(), copy.schemas().unwrap());
    }

    #[test]
    fn a_failed_derivation_is_not_kept() {
        let mut g = QueryGraph::new();
        let a = g.add(scan("t"), vec![]).unwrap();
        let b = g.add(Operator::Nop, vec![a]).unwrap();
        let u = g.add(Operator::UnionAll, vec![a, b]).unwrap();
        g.add_root(u).unwrap();
        g.node_mut(b).unwrap().op = Operator::Project {
            exprs: vec![crate::expr::NamedExpr::new("x", Expr::col(0))],
        };
        assert!(g.validate().is_err() && g.schemas().is_err());
        assert!(g.schemas.0.get().is_none());
        g.node_mut(b).unwrap().op = Operator::Nop;
        reads_as_fresh(&g);
    }

    #[test]
    fn union_schema_mismatch_caught_by_validate() {
        let mut g = QueryGraph::new();
        let a = g.add(scan("t"), vec![]).unwrap();
        let b = g
            .add(
                Operator::Get {
                    dataset: DatasetId::new(2),
                    template_name: "u".into(),
                    schema: Schema::from_pairs(&[("x", DataType::Float)]),
                    kind: ScanKind::Table,
                    predicate: None,
                    extractor: None,
                },
                vec![],
            )
            .unwrap();
        let u = g.add(Operator::UnionAll, vec![a, b]).unwrap();
        g.add_root(u).unwrap();
        let err = g.validate().unwrap_err();
        assert_eq!(err.kind(), "invalid_plan");
    }
}
