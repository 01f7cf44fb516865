//! The TPC-DS benchmark substrate (paper Section 7.2).
//!
//! The paper runs all 99 TPC-DS queries at 1 TB, selects the top-10
//! overlapping computations with the CloudViews analyzer, and reports
//! per-query runtime improvements (Figure 13). What that experiment needs
//! from the benchmark is *which queries share which subexpressions* and
//! *relative* runtimes — not the full SQL surface. This module therefore
//! provides:
//!
//! * [`schema`] — the 24-table TPC-DS schema with the column subset the
//!   queries touch, plus a deterministic scaled data generator with valid
//!   foreign keys;
//! * [`queries`] — all 99 queries translated into plan builders through a
//!   table-driven spec (channel → fact table, dimension joins, date
//!   predicates, grouping, aggregates, top-N). Queries that share a channel
//!   and date predicate in TPC-DS share them here too, producing the
//!   signature-identical subexpressions Figure 13's reuse comes from.
//!
//! See DESIGN.md for the substitution note (plan-level translation instead
//! of a SQL parser; simulated cost model instead of a 100-node testbed).

pub mod queries;
pub mod schema;

use scope_common::ids::{ClusterId, JobId, TemplateId, UserId, VcId};
use scope_common::Result;
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;

pub use queries::{build_query, query_spec, TpcdsQuery, NUM_QUERIES};
pub use schema::{table_schema, TpcdsTable, ALL_TABLES};

/// A generated TPC-DS workload instance.
#[derive(Clone, Debug)]
pub struct TpcdsWorkload {
    /// Scale factor: 1.0 ≈ 40k fact rows (laptop scale; the shape of
    /// inter-query overlap is scale-invariant).
    pub scale: f64,
    /// Data generator seed.
    pub seed: u64,
}

impl TpcdsWorkload {
    /// A workload at the given scale.
    pub fn new(scale: f64, seed: u64) -> TpcdsWorkload {
        TpcdsWorkload { scale, seed }
    }

    /// Generates and registers every table into `storage`.
    pub fn register_data(&self, storage: &StorageManager) -> Result<()> {
        for table in ALL_TABLES {
            let t = schema::generate_table(table, self.scale, self.seed);
            storage.put_dataset(schema::dataset_id(table), t);
        }
        Ok(())
    }

    /// Builds the job spec for TPC-DS query `q` (1-based, 1..=99).
    pub fn query_job(&self, q: u32) -> Result<JobSpec> {
        let graph = build_query(q)?;
        Ok(JobSpec {
            id: JobId::new(q as u64),
            cluster: ClusterId::new(100),
            vc: VcId::new(0),
            user: UserId::new(0),
            template: TemplateId::new(1_000_000 + q as u64),
            instance: 0,
            graph,
        })
    }

    /// All 99 job specs in query order.
    pub fn all_jobs(&self) -> Result<Vec<JobSpec>> {
        (1..=NUM_QUERIES).map(|q| self.query_job(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::time::SimTime;
    use scope_common::ScopeError;
    use scope_engine::cost::CostModel;
    use scope_engine::job::run_job_baseline;
    use scope_engine::sim::ClusterConfig;

    /// Wraps a per-query failure with the query number, propagating the
    /// error instead of panicking so the test harness reports it cleanly.
    fn with_query(q: u32, e: ScopeError) -> ScopeError {
        ScopeError::Workload(format!("q{q}: {e}"))
    }

    #[test]
    fn all_99_queries_build_and_validate() -> Result<()> {
        for q in 1..=NUM_QUERIES {
            let g = build_query(q).map_err(|e| with_query(q, e))?;
            g.validate().map_err(|e| with_query(q, e))?;
        }
        Ok(())
    }

    #[test]
    fn data_registers_all_tables() {
        let storage = StorageManager::new();
        TpcdsWorkload::new(0.02, 1).register_data(&storage).unwrap();
        assert_eq!(storage.num_datasets(), ALL_TABLES.len());
    }

    #[test]
    fn sample_queries_execute() -> Result<()> {
        let storage = StorageManager::new();
        TpcdsWorkload::new(0.02, 1).register_data(&storage)?;
        let w = TpcdsWorkload::new(0.02, 1);
        for q in [1, 3, 7, 19, 42, 55, 72, 99] {
            let spec = w.query_job(q).map_err(|e| with_query(q, e))?;
            let out = run_job_baseline(
                &spec,
                &storage,
                &CostModel,
                &ClusterConfig::default(),
                SimTime::ZERO,
            )
            .map_err(|e| with_query(q, e))?;
            assert!(!out.exec.outputs.is_empty(), "q{q} produced no output");
        }
        Ok(())
    }

    #[test]
    fn queries_share_subexpressions() {
        use scope_signature::sign_graph;
        use std::collections::HashMap;
        // The famous store_sales ⋈ date_dim(year) subexpression must be
        // byte-identical across the queries that use the same year.
        let mut seen: HashMap<scope_common::Sig128, Vec<u32>> = HashMap::new();
        for q in 1..=NUM_QUERIES {
            let g = build_query(q).unwrap();
            let signed = sign_graph(&g).unwrap();
            let mut sigs: Vec<scope_common::Sig128> = g
                .nodes()
                .iter()
                .filter(|n| !n.children.is_empty())
                .map(|n| signed.of(n.id).precise)
                .collect();
            sigs.sort_unstable();
            sigs.dedup();
            for s in sigs {
                seen.entry(s).or_default().push(q);
            }
        }
        let shared = seen.values().filter(|qs| qs.len() >= 2).count();
        assert!(
            shared >= 20,
            "expected many shared interior subexpressions, found {shared}"
        );
        // And at least one subexpression shared by 5+ queries (top-10
        // selection material).
        let hot = seen.values().map(|qs| qs.len()).max().unwrap_or(0);
        assert!(
            hot >= 5,
            "hottest subexpression only shared by {hot} queries"
        );
    }

    #[test]
    fn scale_changes_row_counts() {
        let small = schema::generate_table(TpcdsTable::StoreSales, 0.01, 1);
        let big = schema::generate_table(TpcdsTable::StoreSales, 0.1, 1);
        assert!(big.num_rows() > small.num_rows() * 5);
    }
}
