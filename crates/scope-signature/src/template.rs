//! The template cache: recurrence-aware compilation of plan signatures.
//!
//! The paper's workloads are dominated by recurring jobs — the same script
//! shape resubmitted daily/hourly with only deltas (input GUIDs, dates,
//! parameters; Section 3). Yet signing and enumerating a plan from scratch
//! costs the same whether the template was seen a second ago or never:
//! a subgraph walk per node for `num_nodes`, tag-vector merges, and
//! delivered-property derivation. GEqO makes the same observation at cloud
//! scale: the reuse machinery itself must be cheap relative to the jobs.
//!
//! [`TemplateCache::compile`] keys a compiled **skeleton** by the plan's
//! full normalized signature vector. A recurring instance hits the cache
//! and re-derives only what actually differs per instance — the precise
//! Merkle pass — while the structural features (node counts, normalized
//! input tags, delivered properties, user-code flags, job tags) are copied
//! from the skeleton as interned symbols and shared `Arc`s. The normalized
//! pass is computed either way: it *is* the cache key.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use scope_common::hash::{Sig128, SipHasher24};
use scope_common::ids::NodeId;
use scope_common::intern::Symbol;
use scope_common::Result;
use scope_plan::expr::HashMode;
use scope_plan::QueryGraph;

use crate::enumerate::{enumerate_with_signed, job_tags, SubgraphInfo};
use crate::signature::{signature_pass, SignedGraph};

// Domain-separation keys for template-cache keys (distinct from both
// signature domains).
const TEMPLATE_K0: u64 = 0x7465_6d70_6c61_7465; // "template"
const TEMPLATE_K1: u64 = 0x7465_6d70_6c6b_6579; // "templkey"

/// Everything the compile path derives from one plan: both signature
/// passes, the enumerated subgraph records, and the job's inverted-index
/// tags.
#[derive(Clone, Debug)]
pub struct CompiledJob {
    /// Per-node precise + normalized signatures.
    pub signed: SignedGraph,
    /// One enumerated record per node, bottom-up.
    pub infos: Vec<SubgraphInfo>,
    /// Normalized input/output tags for the metadata-service lookup.
    pub tags: Vec<Symbol>,
    /// Whether the structural features came from a cached skeleton.
    pub template_hit: bool,
}

/// The instance-invariant part of a compiled plan, cached per template:
/// the miss's own subgraph records and job tags.
#[derive(Debug)]
struct Skeleton {
    infos: Vec<SubgraphInfo>,
    job_tags: Vec<Symbol>,
}

impl Skeleton {
    /// Rebuilds per-node records for a new instance: structural features
    /// from the skeleton, signatures from the instance's own passes.
    fn instantiate(&self, signed: &SignedGraph) -> Vec<SubgraphInfo> {
        let mut infos = self.infos.clone();
        for info in &mut infos {
            let sigs = signed.of(info.root);
            info.precise = sigs.precise;
            info.normalized = sigs.normalized;
        }
        infos
    }
}

/// Hit/miss counters and current size of a [`TemplateCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemplateCacheStats {
    /// Compiles served from a cached skeleton.
    pub hits: u64,
    /// Compiles that enumerated from scratch (and populated the cache).
    pub misses: u64,
    /// Distinct templates currently cached.
    pub entries: usize,
}

/// A concurrent cache of compiled plan skeletons keyed by normalized
/// signature. See the module docs for the recurrence argument.
///
/// The key is a keyed hash over the plan's **entire** normalized signature
/// vector plus its root ids — not just the root signature — so it also pins
/// the arena ordering of nodes; two plans with the same key are structurally
/// interchangeable node-for-node.
#[derive(Default)]
pub struct TemplateCache {
    templates: RwLock<HashMap<Sig128, Arc<Skeleton>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TemplateCache {
    /// An empty cache.
    pub fn new() -> TemplateCache {
        TemplateCache::default()
    }

    /// Compiles `graph`: signs both modes, and either instantiates the
    /// cached skeleton for its template (hit) or enumerates from scratch
    /// and caches the result (miss).
    pub fn compile(&self, graph: &QueryGraph) -> Result<CompiledJob> {
        let normalized = signature_pass(graph, HashMode::Normalized);
        let key = template_key(&normalized, graph.roots());
        let precise = signature_pass(graph, HashMode::Precise);
        let signed = SignedGraph::from_passes(precise, normalized);

        let cached = self
            .templates
            .read()
            .expect("template cache poisoned")
            .get(&key)
            .cloned();
        if let Some(skeleton) = cached {
            if skeleton.infos.len() == graph.len() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let infos = skeleton.instantiate(&signed);
                return Ok(CompiledJob {
                    signed,
                    infos,
                    tags: skeleton.job_tags.clone(),
                    template_hit: true,
                });
            }
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let infos = enumerate_with_signed(graph, &signed)?;
        let tags = job_tags(graph);
        let skeleton = Arc::new(Skeleton {
            infos: infos.clone(),
            job_tags: tags.clone(),
        });
        self.templates
            .write()
            .expect("template cache poisoned")
            .insert(key, skeleton);
        Ok(CompiledJob {
            signed,
            infos,
            tags,
            template_hit: false,
        })
    }

    /// Current counters and size.
    pub fn stats(&self) -> TemplateCacheStats {
        TemplateCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .templates
                .read()
                .expect("template cache poisoned")
                .len(),
        }
    }

    /// Drops all cached skeletons and resets counters (tests, admin).
    pub fn clear(&self) {
        self.templates
            .write()
            .expect("template cache poisoned")
            .clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

fn template_key(normalized: &[Sig128], roots: &[NodeId]) -> Sig128 {
    let mut hi = SipHasher24::new_with_keys(TEMPLATE_K0, TEMPLATE_K1);
    let mut lo = SipHasher24::new_with_keys(!TEMPLATE_K0, !TEMPLATE_K1);
    for h in [&mut hi, &mut lo] {
        h.write_u64(normalized.len() as u64);
    }
    for sig in normalized {
        for h in [&mut hi, &mut lo] {
            h.write_u64(sig.hi);
            h.write_u64(sig.lo);
        }
    }
    for h in [&mut hi, &mut lo] {
        h.write_u64(roots.len() as u64);
    }
    for r in roots {
        for h in [&mut hi, &mut lo] {
            h.write_u64(r.raw());
        }
    }
    Sig128::new(hi.finish(), lo.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_subgraphs;
    use scope_common::ids::DatasetId;
    use scope_plan::expr::AggFunc;
    use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[("user", DataType::Int), ("lat", DataType::Float)])
    }

    /// One recurring instance: scan GUID, date param, dated output name.
    fn instance(guid: u64, date: i32) -> QueryGraph {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(
            DatasetId::new(guid),
            format!("clicks/2017-11-{date:02}/log.ss"),
            schema(),
        );
        let f = b.filter(
            s,
            Expr::col(0).ge(Expr::param("@@startDate", scope_plan::Value::Date(date))),
        );
        let a = b.aggregate(f, vec![0], vec![AggExpr::new("n", AggFunc::Count, 0)]);
        b.output(a, format!("out/2017-11-{date:02}/x.ss"))
            .build()
            .unwrap()
    }

    #[test]
    fn recurring_instance_hits_and_matches_cold_compile() {
        let cache = TemplateCache::new();
        let day1 = cache.compile(&instance(1, 8)).unwrap();
        assert!(!day1.template_hit);

        let g2 = instance(2, 9);
        let day2 = cache.compile(&g2).unwrap();
        assert!(day2.template_hit);

        // The hit path must produce exactly what a cold compile would.
        let cold_infos = enumerate_subgraphs(&g2).unwrap();
        assert_eq!(day2.infos, cold_infos);
        assert_eq!(day2.tags, job_tags(&g2));
        let cold_signed = crate::signature::sign_graph(&g2).unwrap();
        assert_eq!(day2.signed.all(), cold_signed.all());

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn different_template_misses() {
        let cache = TemplateCache::new();
        cache.compile(&instance(1, 8)).unwrap();
        // Different shape: no aggregate.
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(1), "clicks/2017-11-08/log.ss", schema());
        let f = b.filter(s, Expr::col(0).gt(Expr::lit(1i64)));
        let g = b.output(f, "out/2017-11-08/x.ss").build().unwrap();
        let c = cache.compile(&g).unwrap();
        assert!(!c.template_hit);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn precise_signatures_still_distinguish_instances() {
        let cache = TemplateCache::new();
        let day1 = cache.compile(&instance(1, 8)).unwrap();
        let day2 = cache.compile(&instance(2, 9)).unwrap();
        let root = day1.infos.last().unwrap().root;
        assert_ne!(day1.signed.of(root).precise, day2.signed.of(root).precise);
        assert_eq!(
            day1.signed.of(root).normalized,
            day2.signed.of(root).normalized
        );
    }

    #[test]
    fn clear_resets_everything() {
        let cache = TemplateCache::new();
        cache.compile(&instance(1, 8)).unwrap();
        cache.compile(&instance(2, 9)).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert!(!cache.compile(&instance(3, 10)).unwrap().template_hit);
    }
}
