//! The 32-job production workload of Section 7.1 (Figures 11/12).
//!
//! The paper picked the top-3 overlapping computations (≥3 occurrences,
//! view-to-query cost ratio ≥20%, ≤1 per job, ranked by total utility) from
//! one day of a large business unit and replayed the 32 jobs containing
//! them: 16, 12, and 4 jobs respectively. This module reconstructs that
//! setting synthetically:
//!
//! * three *shared computations* — cook pipelines (scan → date filter →
//!   shuffle → aggregate → sort) over three large shared streams;
//! * 32 jobs, split 16/12/4 across the computations, each adding private
//!   post-processing (its own stream joined on the cooked output, a
//!   job-specific projection, and a final write) sized so the shared part
//!   is a meaningful-but-varying fraction of the job;
//! * recurring structure: every instance rebinds GUIDs and date parameters.

use rand::Rng;
use scope_common::hash::sip64;
use scope_common::ids::{ClusterId, DatasetId, JobId, TemplateId, UserId, VcId};
use scope_common::Result;
use scope_engine::data::Table;
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{
    AggExpr, DataType, Expr, JoinKind, NamedExpr, Partitioning, PlanBuilder, Schema, SortOrder,
    Value,
};
use scope_workload::dists::rng_for;

/// Group sizes: 16 + 12 + 4 = 32 jobs.
pub const GROUP_SIZES: [usize; 3] = [16, 12, 4];

/// The schema of every stream in this workload.
fn stream_schema() -> Schema {
    Schema::from_pairs(&[
        ("user", DataType::Int),
        ("item", DataType::Int),
        ("val", DataType::Float),
        ("ts", DataType::Date),
    ])
}

/// Row counts of the three shared streams (scaled by `row_scale`).
pub const SHARED_ROWS: [u64; 3] = [150_000, 110_000, 200_000];

fn shared_guid(group: usize, instance: u64) -> DatasetId {
    DatasetId::new(sip64(format!("prod32/shared{group}/{instance}").as_bytes()))
}

fn private_guid(job: usize, instance: u64) -> DatasetId {
    DatasetId::new(sip64(format!("prod32/private{job}/{instance}").as_bytes()))
}

fn gen_rows(seed: u64, n: u64, date: i32) -> Vec<Vec<Value>> {
    let mut rng = rng_for(seed, "prod32-rows");
    (0..n)
        .map(|_| {
            vec![
                Value::Int((rng.gen_range(0.0_f64..1.0).powi(2) * 2_000.0) as i64),
                Value::Int(rng.gen_range(0..100_000)),
                Value::Float(rng.gen_range(0.0_f64..100.0)),
                Value::Date(date),
            ]
        })
        .collect()
}

/// Registers the shared and private datasets for one recurring instance.
pub fn register_data(storage: &StorageManager, instance: u64, row_scale: f64) -> Result<()> {
    register_data_with(storage, instance, row_scale, SHARED_ROWS)
}

/// Like [`register_data`] but with explicit shared-stream sizes (the
/// feedback-loop ablation skews them so compile-time estimates mislead).
pub fn register_data_with(
    storage: &StorageManager,
    instance: u64,
    row_scale: f64,
    shared_rows: [u64; 3],
) -> Result<()> {
    let date = 17_000 + instance as i32;
    for (g, &rows) in shared_rows.iter().enumerate() {
        let n = ((rows as f64 * row_scale) as u64).max(100);
        storage.put_dataset(
            shared_guid(g, instance),
            Table::single(stream_schema(), gen_rows(sip64(&[g as u8]), n, date)),
        );
    }
    let mut rng = rng_for(1234, "prod32-private-sizes");
    for job in 0..32 {
        let n = ((rng.gen_range(4_000.0_f64..90_000.0) * row_scale) as u64).max(50);
        storage.put_dataset(
            private_guid(job, instance),
            Table::single(stream_schema(), gen_rows(sip64(&[99, job as u8]), n, date)),
        );
    }
    Ok(())
}

/// Builds the 32 job specs of one recurring instance, in arrival order
/// (grouped by shared computation, matching the paper's replay).
pub fn jobs(instance: u64) -> Result<Vec<JobSpec>> {
    let date = 17_000 + instance as i32;
    let mut specs = Vec::with_capacity(32);
    let mut job_idx = 0usize;
    for (group, &size) in GROUP_SIZES.iter().enumerate() {
        for k in 0..size {
            let mut b = PlanBuilder::new();
            // --- the shared computation (identical for every job in the
            // group, per instance) -----------------------------------------
            let scan = b.table_scan(
                shared_guid(group, instance),
                format!("prod32/shared{group}/<date>/events.ss"),
                stream_schema(),
            );
            let fil = b.filter(
                scan,
                Expr::col(3).ge(Expr::param("@@startDate", Value::Date(date))),
            );
            let ex = b.exchange(
                fil,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 8,
                },
            );
            let agg = b.aggregate(
                ex,
                vec![0],
                vec![
                    AggExpr::new("events", AggFunc::Count, 1),
                    AggExpr::new("total", AggFunc::Sum, 2),
                ],
            );
            let shared_root = b.sort(agg, SortOrder::asc(&[0]));

            // --- the private part ------------------------------------------
            let pscan = b.table_scan(
                private_guid(job_idx, instance),
                format!("prod32/private{job_idx}/<date>/events.ss"),
                stream_schema(),
            );
            let pfil = b.filter(pscan, Expr::col(2).gt(Expr::lit(5.0 + k as f64)));
            let pex = b.exchange(
                pfil,
                Partitioning::Hash {
                    cols: vec![0],
                    parts: 8,
                },
            );
            let pagg = b.aggregate(pex, vec![0], vec![AggExpr::new("mine", AggFunc::Sum, 2)]);
            let joined = b.join(shared_root, pagg, JoinKind::Inner, vec![0], vec![0]);
            let out = b.project(
                joined,
                vec![
                    NamedExpr::new("user", Expr::col(0)),
                    NamedExpr::new("events", Expr::col(1)),
                    NamedExpr::new("score", Expr::col(2).mul(Expr::lit(1.0 + k as f64 / 10.0))),
                ],
            );
            b.write(out, format!("prod32/out/j{job_idx}/<date>/r.ss"));
            specs.push(JobSpec {
                id: JobId::new(instance * 1_000 + job_idx as u64),
                cluster: ClusterId::new(7),
                vc: VcId::new(group as u64),
                user: UserId::new((job_idx % 9) as u64),
                template: TemplateId::new(7_000 + job_idx as u64),
                instance,
                graph: b.build()?,
            });
            job_idx += 1;
        }
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_signature::sign_graph;
    use std::collections::HashMap;

    #[test]
    fn thirty_two_jobs_in_three_groups() {
        let specs = jobs(0).unwrap();
        assert_eq!(specs.len(), 32);
        // Shared computation: within each group, the sort-rooted subgraph
        // (node index 4) has the same precise signature.
        let mut sig_count: HashMap<scope_common::Sig128, usize> = HashMap::new();
        for spec in &specs {
            let signed = sign_graph(&spec.graph).unwrap();
            let sort_sig = signed.of(scope_common::ids::NodeId::new(4)).precise;
            *sig_count.entry(sort_sig).or_default() += 1;
        }
        let mut counts: Vec<usize> = sig_count.values().copied().collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![4, 12, 16]);
    }

    #[test]
    fn instances_are_recurring() {
        let s0 = jobs(0).unwrap();
        let s1 = jobs(1).unwrap();
        let g0 = sign_graph(&s0[0].graph).unwrap();
        let g1 = sign_graph(&s1[0].graph).unwrap();
        let root0 = s0[0].graph.roots()[0];
        let root1 = s1[0].graph.roots()[0];
        assert_ne!(g0.of(root0).precise, g1.of(root1).precise);
        assert_eq!(g0.of(root0).normalized, g1.of(root1).normalized);
    }

    #[test]
    fn data_registers_and_executes() {
        let storage = StorageManager::new();
        register_data(&storage, 0, 0.05).unwrap();
        let specs = jobs(0).unwrap();
        let out = scope_engine::job::run_job_baseline(
            &specs[0],
            &storage,
            &scope_engine::cost::CostModel,
            &scope_engine::sim::ClusterConfig::default(),
            scope_common::time::SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(out.exec.outputs.len(), 1);
        assert!(out.exec.outputs.values().next().unwrap().num_rows() > 0);
    }
}
