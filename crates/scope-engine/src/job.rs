//! Job descriptors, the baseline runner, and online view materialization.
//!
//! [`run_job_baseline`] is plain SCOPE: optimize without any view services,
//! execute, simulate. The CloudViews-enabled path lives in the `cloudviews`
//! crate and composes the same pieces plus the metadata-service protocol;
//! both share [`materialize_marked_views`], which implements the paper's
//! online materialization (Section 6.2): the marked subgraph's output is
//! copied into a view file in the analyzer-mined physical design (enforcing
//! any missing partitioning/sorting), with the precise signature and
//! producing job id recorded in the file path.

use std::sync::Arc;

use scope_common::ids::{ClusterId, JobId, TemplateId, UserId, VcId};
use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_plan::{Partitioning, QueryGraph};

use crate::cost::CostModel;
use crate::exec::{execute_plan, ExecOutcome};
use crate::optimizer::{optimize, NoViewServices, OptimizedPlan, OptimizerConfig};
use crate::sim::{simulate, ClusterConfig, SimOutcome};
use crate::storage::{StorageManager, ViewFile, ViewMeta};

/// A job to run: identity plus its compiled logical plan.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Job instance id.
    pub id: JobId,
    /// Physical cluster the job runs in.
    pub cluster: ClusterId,
    /// Virtual cluster (tenant).
    pub vc: VcId,
    /// Submitting user entity.
    pub user: UserId,
    /// Recurring template.
    pub template: TemplateId,
    /// Recurrence instance index.
    pub instance: u64,
    /// The compiled logical plan.
    pub graph: QueryGraph,
}

/// The result of running one job.
#[derive(Debug)]
pub struct JobOutcome {
    /// Job id.
    pub job: JobId,
    /// End-to-end latency (including any view-write overhead).
    pub latency: SimDuration,
    /// Total CPU time (including any view-write overhead).
    pub cpu_time: SimDuration,
    /// The optimized plan that ran.
    pub plan: OptimizedPlan,
    /// Execution statistics and the terminal outputs by name.
    pub exec: ExecOutcome,
    /// Simulation breakdown.
    pub sim: SimOutcome,
}

/// One materialized view produced by a job, with the simulated time at which
/// it became available (early materialization: the producing *stage*'s
/// finish, not the job's).
#[derive(Debug)]
pub struct BuiltView {
    /// The stored file.
    pub file: ViewFile,
    /// Extra CPU charged for building (enforcers + write).
    pub extra_cpu: SimDuration,
    /// Extra job latency attributable to the build.
    pub extra_latency: SimDuration,
    /// Offset from job start at which the view is published.
    pub available_offset: SimDuration,
}

/// Runs a job with CloudViews disabled: the paper's baseline.
pub fn run_job_baseline(
    spec: &JobSpec,
    storage: &StorageManager,
    model: &CostModel,
    cluster: &ClusterConfig,
    now: SimTime,
) -> Result<JobOutcome> {
    let config = OptimizerConfig {
        default_dop: cluster.default_dop,
        enable_reuse: false,
        enable_materialize: false,
        ..Default::default()
    };
    let plan = optimize(&spec.graph, &[], &NoViewServices, &config, spec.id)?;
    let exec = execute_plan(&plan.physical, storage, model, now)?;
    let sim = simulate(&plan.physical, &exec, cluster);
    Ok(JobOutcome {
        job: spec.id,
        latency: sim.latency,
        cpu_time: sim.cpu_time,
        exec,
        sim,
        plan,
    })
}

/// Builds the view files for every materialization mark in `plan`,
/// enforcing the analyzer-mined physical design and charging the extra work.
///
/// Returns the built views; the caller publishes them to storage (and to the
/// metadata service) at their `available_offset` — immediately for the
/// early-materialization path, or at job end when early materialization is
/// disabled (ablation).
pub fn materialize_marked_views(
    plan: &OptimizedPlan,
    exec: &ExecOutcome,
    sim: &SimOutcome,
    model: &CostModel,
    job: JobId,
    job_start: SimTime,
) -> Result<Vec<BuiltView>> {
    let mut built = Vec::new();
    for mark in &plan.materialize {
        let source = &exec.node_tables[mark.physical_node.index()];
        // The enforcers below only move rows: the stored copy has the node's
        // bytes, already counted for its stats.
        let bytes = exec.node_stats[mark.physical_node.index()].out_bytes;
        // Enforce the mined physical design on the stored copy: repartition
        // unless the node already delivers the scheme (for Single: unless it
        // is one partition), charging an Exchange for Hash and Range only.
        let scheme = &mark.props.partitioning;
        let repartition = match scheme {
            Partitioning::Any => false,
            Partitioning::Single => source.num_partitions() != 1,
            _ => !scheme.satisfied_by(&source.props.partitioning),
        };
        let mut table = if repartition {
            source.exchange(scheme)?
        } else {
            source.clone()
        };
        let mut enforcer_cpu = SimDuration::ZERO;
        let charged = matches!(
            scheme,
            Partitioning::Hash { .. } | Partitioning::Range { .. }
        );
        if repartition && charged {
            let exchange = scope_plan::Operator::Exchange {
                scheme: scheme.clone(),
            };
            let rows = source.num_rows() as u64;
            enforcer_cpu += model.op_cpu(&exchange, rows, rows, bytes);
        }
        if !mark.props.sort.is_none() && !mark.props.sort.satisfied_by(&table.props.sort) {
            table = table.sort_partitions(&mark.props.sort);
            enforcer_cpu += model.op_cpu(
                &scope_plan::Operator::Sort {
                    order: mark.props.sort.clone(),
                },
                source.num_rows() as u64,
                source.num_rows() as u64,
                0,
            );
        }
        let rows = table.num_rows() as u64;
        let write_cpu = model.view_write_cpu(rows, bytes);
        let extra_cpu = enforcer_cpu + write_cpu;
        // Latency impact: the write runs with the view's own parallelism.
        let parts = table.num_partitions().max(1) as f64;
        let extra_latency = extra_cpu.mul_f64(1.0 / parts);
        let produced_at = sim.node_finish[mark.physical_node.index()] + extra_latency;
        let created_at = job_start + produced_at;
        let props = table.props.clone();
        built.push(BuiltView {
            file: ViewFile {
                // A stored view outlives the job: it must not keep the
                // job's intermediates alive through a recipe.
                table: Arc::new(table.densified()),
                props,
                meta: ViewMeta {
                    precise: mark.precise,
                    normalized: mark.normalized,
                    producer: job,
                    created_at,
                    expires_at: created_at + mark.ttl,
                    rows,
                    bytes,
                },
            },
            extra_cpu,
            extra_latency,
            available_offset: produced_at,
        });
    }
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Table;
    use crate::optimizer::{Annotation, AvailableView, ViewServices};
    use scope_common::ids::DatasetId;
    use scope_common::Sig128;
    use scope_plan::expr::AggFunc;
    use scope_plan::{
        AggExpr, DataType, Expr, Operator, PhysicalProps, PlanBuilder, Schema, SortOrder, Value,
    };
    use scope_signature::sign_graph;

    /// View services that hold no view and grant every build lock.
    struct GrantAll;
    impl ViewServices for GrantAll {
        fn view_available(&self, _p: Sig128) -> Option<AvailableView> {
            None
        }
        fn propose_materialize(&self, _: Sig128, _: Sig128, _: JobId, _: SimDuration) -> bool {
            true
        }
    }

    fn storage() -> StorageManager {
        let s = StorageManager::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let rows = (0..500)
            .map(|i| vec![Value::Int(i % 7), Value::Int(i)])
            .collect();
        s.put_dataset(DatasetId::new(1), Table::single(schema, rows));
        s
    }

    fn spec() -> JobSpec {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut b = PlanBuilder::new();
        let scan = b.table_scan(DatasetId::new(1), "in/t.ss", schema);
        let f = b.filter(scan, Expr::col(1).ge(Expr::lit(0i64)));
        let a = b.aggregate(f, vec![0], vec![AggExpr::new("c", AggFunc::Count, 1)]);
        let g = b.output(a, "out/r.ss").build().unwrap();
        JobSpec {
            id: JobId::new(1),
            cluster: ClusterId::new(0),
            vc: VcId::new(0),
            user: UserId::new(0),
            template: TemplateId::new(0),
            instance: 0,
            graph: g,
        }
    }

    #[test]
    fn baseline_runs_end_to_end() {
        let st = storage();
        let out = run_job_baseline(
            &spec(),
            &st,
            &CostModel,
            &ClusterConfig::default(),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(out.exec.outputs["out/r.ss"].num_rows(), 7);
        assert!(out.latency > SimDuration::ZERO);
        assert!(out.cpu_time >= out.latency || out.sim.vertices == 1);
    }

    #[test]
    fn materialize_enforces_design_and_charges_cost() {
        let st = storage();
        let spec = spec();
        let signed = sign_graph(&spec.graph).unwrap();
        let agg = scope_common::ids::NodeId::new(2);
        let annotation = Annotation {
            normalized: signed.of(agg).normalized,
            props: PhysicalProps {
                partitioning: Partitioning::Hash {
                    cols: vec![0],
                    parts: 4,
                },
                sort: SortOrder::asc(&[0]),
            },
            ttl: SimDuration::from_secs(3600),
            avg_cpu: SimDuration::from_secs(1),
            avg_rows: 7,
            avg_bytes: 200,
        };
        let plan = optimize(
            &spec.graph,
            &[annotation],
            &GrantAll,
            &OptimizerConfig {
                max_materialize_per_job: 1,
                ..Default::default()
            },
            spec.id,
        )
        .unwrap();
        assert_eq!(plan.materialize.len(), 1);
        let exec = execute_plan(&plan.physical, &st, &CostModel, SimTime::ZERO).unwrap();
        let sim = simulate(&plan.physical, &exec, &ClusterConfig::default());
        let built =
            materialize_marked_views(&plan, &exec, &sim, &CostModel, spec.id, SimTime::ZERO)
                .unwrap();
        assert_eq!(built.len(), 1);
        let v = &built[0];
        // Stored in the mined design.
        assert_eq!(v.file.table.num_partitions(), 4);
        assert_eq!(v.file.props.sort, SortOrder::asc(&[0]));
        assert!(v.extra_cpu > SimDuration::ZERO);
        assert!(v.extra_latency <= v.extra_cpu);
        // Early availability: before (or at) the job's own end plus write.
        assert!(v.available_offset <= sim.latency + v.extra_latency);
        assert_eq!(v.file.meta.precise, signed.of(agg).precise);
        assert_eq!(v.file.meta.rows, 7);
        assert!(v.file.meta.expires_at > v.file.meta.created_at);
    }

    #[test]
    fn a_built_view_holds_dense_columns_only() {
        // Enough rows that the enforced repartition and sort defer their
        // columns; the view is cut at the filter, 5,000 rows wide.
        let st = StorageManager::new();
        let spec = spec();
        let Operator::Get { schema, .. } = &spec.graph.nodes()[0].op else {
            panic!("node 0 is the scan");
        };
        let rows = (0..5_000)
            .map(|i| vec![Value::Int(i % 7), Value::Int(i)])
            .collect();
        st.put_dataset(DatasetId::new(1), Table::single(schema.clone(), rows));
        let design = PhysicalProps {
            partitioning: Partitioning::Hash {
                cols: vec![0],
                parts: 4,
            },
            sort: SortOrder::asc(&[1]),
        };
        let filter = scope_common::ids::NodeId::new(1);
        let annotation = Annotation {
            normalized: sign_graph(&spec.graph).unwrap().of(filter).normalized,
            props: design.clone(),
            ttl: SimDuration::from_secs(3600),
            avg_cpu: SimDuration::from_secs(1),
            avg_rows: 5_000,
            avg_bytes: 80_000,
        };
        let config = OptimizerConfig {
            max_materialize_per_job: 1,
            ..Default::default()
        };
        let plan = optimize(&spec.graph, &[annotation], &GrantAll, &config, spec.id).unwrap();
        let model = CostModel;
        let exec = execute_plan(&plan.physical, &st, &model, SimTime::ZERO).unwrap();
        let sim = simulate(&plan.physical, &exec, &ClusterConfig::default());
        let built =
            materialize_marked_views(&plan, &exec, &sim, &model, spec.id, SimTime::ZERO).unwrap();
        let view = &built[0].file.table;
        assert_eq!(view.num_rows(), 5_000);
        let recipes = |t: &Table| {
            (0..t.num_partitions())
                .flat_map(|p| t.partition_batches(p))
                .flat_map(|b| b.columns())
                .filter(|c| !c.is_dense())
                .count()
        };
        assert_eq!(recipes(view), 0, "a stored view pins its producer's tables");
        // The same enforcement without the densifying step is all recipes.
        let source = &exec.node_tables[plan.materialize[0].physical_node.index()];
        let enforced = source.hash_repartition(&[0], 4).unwrap();
        assert!(recipes(&enforced.sort_partitions(&design.sort)) > 0);
        assert_eq!(**view, enforced.sort_partitions(&design.sort));
    }
}
