//! Merkle hashing of plan DAGs into precise + normalized signatures.

use scope_common::hash::{Sig128, SipHasher24};
use scope_common::ids::NodeId;
use scope_common::Result;
use scope_plan::expr::HashMode;
use scope_plan::QueryGraph;

/// The two signatures of one plan node's subgraph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeSignatures {
    /// Exact identity (input GUIDs, parameter values, user-code versions).
    pub precise: Sig128,
    /// Template identity (recurring deltas stripped).
    pub normalized: Sig128,
}

/// A graph with per-node subgraph signatures, indexed by [`NodeId`].
#[derive(Clone, Debug)]
pub struct SignedGraph {
    sigs: Vec<NodeSignatures>,
}

impl SignedGraph {
    /// Signatures of the subgraph rooted at `id`.
    pub fn of(&self, id: NodeId) -> NodeSignatures {
        self.sigs[id.index()]
    }

    /// All signatures in node order.
    pub fn all(&self) -> &[NodeSignatures] {
        &self.sigs
    }

    /// Zips independently computed per-mode passes into one signed graph.
    pub(crate) fn from_passes(precise: Vec<Sig128>, normalized: Vec<Sig128>) -> SignedGraph {
        debug_assert_eq!(precise.len(), normalized.len());
        SignedGraph {
            sigs: precise
                .into_iter()
                .zip(normalized)
                .map(|(precise, normalized)| NodeSignatures {
                    precise,
                    normalized,
                })
                .collect(),
        }
    }
}

// Domain-separation keys for the two Merkle trees.
const PRECISE_K0: u64 = 0x7072_6563_6973_6531; // "precise1"
const PRECISE_K1: u64 = 0x7072_6563_6973_6532;
const NORM_K0: u64 = 0x6e6f_726d_616c_697a; // "normaliz"
const NORM_K1: u64 = 0x6e6f_726d_616c_7a32;

/// Computes precise and normalized signatures for every node of `graph`.
///
/// The signature of a node is a keyed hash of its operator content (hashed
/// in the corresponding [`HashMode`]) combined with its children's
/// signatures *in order* (join sides are not interchangeable). Because the
/// arena's insertion order is bottom-up, one linear pass suffices; shared
/// (spooled) children are hashed once and their signature reused, so the
/// cost is O(nodes), not O(paths).
pub fn sign_graph(graph: &QueryGraph) -> Result<SignedGraph> {
    let precise = signature_pass(graph, HashMode::Precise);
    let normalized = signature_pass(graph, HashMode::Normalized);
    Ok(SignedGraph::from_passes(precise, normalized))
}

/// One Merkle pass over `graph` in a single [`HashMode`], in node order.
///
/// The byte stream fed to the hashers is exactly the one [`sign_graph`]
/// feeds for that mode, so the resulting `Sig128`s are interchangeable with
/// the corresponding half of a [`SignedGraph`]. Split out so the template
/// cache can compute the (always-needed) normalized pass first, consult the
/// cache, and run the precise pass alone on a hit.
pub(crate) fn signature_pass(graph: &QueryGraph, mode: HashMode) -> Vec<Sig128> {
    let mut sigs: Vec<Sig128> = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let sig = hash_node(graph, node.id, &sigs, mode);
        sigs.push(sig);
    }
    sigs
}

fn hash_node(graph: &QueryGraph, id: NodeId, done: &[Sig128], mode: HashMode) -> Sig128 {
    let (k0, k1, l0, l1) = match mode {
        HashMode::Precise => (PRECISE_K0, PRECISE_K1, !PRECISE_K0, !PRECISE_K1),
        HashMode::Normalized => (NORM_K0, NORM_K1, !NORM_K0, !NORM_K1),
    };
    let node = graph.node(id).expect("id produced by iteration");
    let mut hi = SipHasher24::new_with_keys(k0, k1);
    let mut lo = SipHasher24::new_with_keys(l0, l1);
    node.op.stable_hash_into(&mut hi, mode);
    node.op.stable_hash_into(&mut lo, mode);
    for h in [&mut hi, &mut lo] {
        h.write_u64(node.children.len() as u64);
    }
    for &c in &node.children {
        let pick = done[c.index()];
        for h in [&mut hi, &mut lo] {
            h.write_u64(pick.hi);
            h.write_u64(pick.lo);
        }
    }
    Sig128::new(hi.finish(), lo.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::ids::DatasetId;
    use scope_plan::expr::AggFunc;
    use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[("user", DataType::Int), ("lat", DataType::Float)])
    }

    /// Builds a small recurring job: scan -> filter(date param) -> agg -> out.
    fn job(guid: u64, date: i32, out_name: &str) -> QueryGraph {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(guid), "clicks/<date>/log.ss", schema());
        let f = b.filter(
            s,
            Expr::col(0).ge(Expr::param("@@startDate", scope_plan::Value::Date(date))),
        );
        let a = b.aggregate(f, vec![0], vec![AggExpr::new("n", AggFunc::Count, 0)]);
        b.output(a, out_name).build().unwrap()
    }

    #[test]
    fn identical_graphs_identical_signatures() {
        let g1 = job(1, 100, "out/x.ss");
        let g2 = job(1, 100, "out/x.ss");
        let s1 = sign_graph(&g1).unwrap();
        let s2 = sign_graph(&g2).unwrap();
        for (a, b) in s1.all().iter().zip(s2.all()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn recurring_instance_matches_normalized_not_precise() {
        // New day: new GUID, new date parameter, dated output name.
        let today = job(1, 100, "out/2017-11-08/x.ss");
        let tomorrow = job(2, 101, "out/2017-11-09/x.ss");
        let s1 = sign_graph(&today).unwrap();
        let s2 = sign_graph(&tomorrow).unwrap();
        let root1 = today.roots()[0];
        let root2 = tomorrow.roots()[0];
        assert_ne!(s1.of(root1).precise, s2.of(root2).precise);
        assert_eq!(s1.of(root1).normalized, s2.of(root2).normalized);
        // Every interior node too.
        for (a, b) in s1.all().iter().zip(s2.all()) {
            assert_eq!(a.normalized, b.normalized);
        }
    }

    #[test]
    fn same_instance_same_precise() {
        // Two jobs in the SAME recurring instance (same GUID and params)
        // share precise signatures — that is what reuse matches on.
        let j1 = job(5, 200, "out/a.ss");
        let j2 = job(5, 200, "out/b.ss"); // different output name
        let s1 = sign_graph(&j1).unwrap();
        let s2 = sign_graph(&j2).unwrap();
        // The aggregate below the output is node 2 in both.
        let agg = NodeId::new(2);
        assert_eq!(s1.of(agg).precise, s2.of(agg).precise);
        // Roots (outputs) differ because names differ.
        assert_ne!(s1.of(j1.roots()[0]).precise, s2.of(j2.roots()[0]).precise);
    }

    #[test]
    fn operator_change_changes_both() {
        let g1 = job(1, 100, "o");
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "clicks/<date>/log.ss", schema());
        let f = b.filter(
            s,
            Expr::col(0).gt(Expr::param("@@startDate", scope_plan::Value::Date(100))), // gt not ge
        );
        let a = b.aggregate(f, vec![0], vec![AggExpr::new("n", AggFunc::Count, 0)]);
        let g2 = b.output(a, "o").build().unwrap();
        let s1 = sign_graph(&g1).unwrap();
        let s2 = sign_graph(&g2).unwrap();
        let r1 = g1.roots()[0];
        let r2 = g2.roots()[0];
        assert_ne!(s1.of(r1).precise, s2.of(r2).precise);
        assert_ne!(s1.of(r1).normalized, s2.of(r2).normalized);
    }

    #[test]
    fn child_order_matters() {
        use scope_plan::JoinKind;
        let mut b = PlanBuilder::new();
        let l = b.table_scan(DatasetId::new(1), "l", schema());
        let r = b.table_scan(DatasetId::new(2), "r", schema());
        let j = b.join(l, r, JoinKind::Inner, vec![0], vec![0]);
        let g1 = b.output(j, "o").build().unwrap();

        let mut b = PlanBuilder::new();
        let r = b.table_scan(DatasetId::new(2), "r", schema());
        let l = b.table_scan(DatasetId::new(1), "l", schema());
        let j = b.join(r, l, JoinKind::Inner, vec![0], vec![0]);
        let g2 = b.output(j, "o").build().unwrap();

        let s1 = sign_graph(&g1).unwrap();
        let s2 = sign_graph(&g2).unwrap();
        assert_ne!(s1.of(g1.roots()[0]).precise, s2.of(g2.roots()[0]).precise);
    }

    #[test]
    fn precise_and_normalized_never_collide_across_domains() {
        // A static plan (no recurring deltas) still gets DIFFERENT precise
        // and normalized signatures thanks to domain separation — the
        // metadata service stores them in separate keyspaces.
        let g = job(1, 100, "o");
        let s = sign_graph(&g).unwrap();
        for ns in s.all() {
            assert_ne!(ns.precise, ns.normalized);
        }
    }

    #[test]
    fn subgraph_signature_independent_of_context() {
        // The signature of the scan->filter prefix is the same whether or
        // not an aggregate sits above it (Merkle property) — this is what
        // lets signatures computed in one job match subgraphs of another.
        let with_agg = job(1, 100, "o");
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "clicks/<date>/log.ss", schema());
        let f = b.filter(
            s,
            Expr::col(0).ge(Expr::param("@@startDate", scope_plan::Value::Date(100))),
        );
        let without_agg = b.output(f, "other").build().unwrap();
        let s1 = sign_graph(&with_agg).unwrap();
        let s2 = sign_graph(&without_agg).unwrap();
        // filter is node 1 in both graphs
        assert_eq!(s1.of(NodeId::new(1)), s2.of(NodeId::new(1)));
    }
}
