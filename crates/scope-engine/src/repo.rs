//! The SCOPE workload repository.
//!
//! The paper's feedback loop (Section 5.1, Figure 8) "reconciles the logical
//! query trees with the actual runtime statistics": for every executed job
//! it connects the data flow that ran on the cluster back to the compiled
//! query graph, and extracts per-subgraph latency, cardinality, data size,
//! and resource consumption. [`WorkloadRepository::record`] performs exactly
//! that reconciliation using the optimizer's logical→physical node map, and
//! stores one [`SubgraphRun`] per logical subgraph.
//!
//! The CloudViews analyzer consumes [`JobRecord`]s; nothing in the analyzer
//! ever touches optimizer *estimates* — that is the point.

use parking_lot::Mutex;
use scope_common::ids::{ClusterId, JobId, TemplateId, UserId, VcId};
use scope_common::intern::Symbol;
use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_plan::QueryGraph;
use scope_signature::{enumerate_subgraphs, job_tags, SubgraphInfo};

use std::sync::Arc;

use crate::exec::ExecOutcome;
use crate::optimizer::OptimizedPlan;
use crate::sim::SimOutcome;

/// Observed execution of one subgraph of one job: the unit the analyzer
/// mines.
#[derive(Clone, Debug)]
pub struct SubgraphRun {
    /// The compiled subgraph this run measured: root, both signatures and
    /// the structural features, exactly as enumeration produced them.
    pub info: SubgraphInfo,
    /// Output rows observed.
    pub out_rows: u64,
    /// Output bytes observed.
    pub out_bytes: u64,
    /// Exclusive CPU of the root operator.
    pub exclusive_cpu: SimDuration,
    /// Cumulative CPU of the whole subgraph (the view's *utility* unit).
    pub cumulative_cpu: SimDuration,
    /// Completion time of the subgraph relative to job start (critical-path
    /// position: reuse of off-critical-path subgraphs saves CPU but little
    /// latency — one of the paper's observed effects).
    pub finish_offset: SimDuration,
}

/// One executed job with reconciled statistics.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Job instance id.
    pub job: JobId,
    /// Physical cluster.
    pub cluster: ClusterId,
    /// Virtual cluster (tenant).
    pub vc: VcId,
    /// Submitting user entity.
    pub user: UserId,
    /// Recurring template this job instantiates.
    pub template: TemplateId,
    /// Recurring instance index (0 = first occurrence).
    pub instance: u64,
    /// Simulated submission time.
    pub submitted_at: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Total CPU time.
    pub cpu_time: SimDuration,
    /// Inverted-index tags (normalized inputs + outputs, interned).
    pub tags: Vec<Symbol>,
    /// Per-subgraph reconciled statistics.
    pub subgraphs: Vec<SubgraphRun>,
}

/// Identity of a job used when recording (everything but the measurements).
#[derive(Clone, Copy, Debug)]
pub struct JobIdentity {
    /// Job instance id.
    pub job: JobId,
    /// Physical cluster.
    pub cluster: ClusterId,
    /// Virtual cluster.
    pub vc: VcId,
    /// Submitting user.
    pub user: UserId,
    /// Recurring template.
    pub template: TemplateId,
    /// Recurrence index.
    pub instance: u64,
    /// Submission time.
    pub submitted_at: SimTime,
}

/// Observer of repository appends, keyed by the record's sequence number
/// (its index in the append order). The durability layer installs one to
/// mirror every record into its on-disk log; the sequence number
/// doubles as the analyzer's replay cursor after a restart.
pub type RecordSink = Arc<dyn Fn(u64, &JobRecord) + Send + Sync>;

/// Thread-safe append-only store of job records.
#[derive(Default)]
pub struct WorkloadRepository {
    records: Mutex<Vec<JobRecord>>,
    /// Optional durability mirror for appends. Called *outside* the records
    /// lock (sequence numbers are captured under it, so out-of-order sink
    /// calls carry distinct, correct sequence numbers).
    sink: Mutex<Option<RecordSink>>,
}

impl WorkloadRepository {
    /// An empty repository.
    pub fn new() -> Self {
        WorkloadRepository::default()
    }

    /// A repository pre-populated with recovered records, in their original
    /// append order (cold-start rehydration).
    pub fn from_records(records: Vec<JobRecord>) -> Self {
        WorkloadRepository {
            records: Mutex::new(records),
            sink: Mutex::new(None),
        }
    }

    /// Installs (or clears) the durability sink notified on every append.
    /// Attach it *after* rehydrating recovered records, or recovery would
    /// re-append every record it just read.
    pub fn set_record_sink(&self, sink: Option<RecordSink>) {
        *self.sink.lock() = sink;
    }

    /// Reconciles one executed job into the repository: joins the original
    /// logical plan's subgraphs with the physical runtime statistics through
    /// the optimizer's node map, exactly the feedback loop of Figure 8.
    pub fn record(
        &self,
        identity: JobIdentity,
        logical: &QueryGraph,
        plan: &OptimizedPlan,
        exec: &ExecOutcome,
        sim: &SimOutcome,
    ) -> Result<()> {
        let infos = enumerate_subgraphs(logical)?;
        let tags = job_tags(logical);
        self.record_compiled(identity, &infos, &tags, plan, exec, sim)
    }

    /// [`WorkloadRepository::record`] when the subgraph records and job tags
    /// are already compiled (the runtime's template cache computes them once
    /// per job; re-enumerating here would throw that work away).
    pub fn record_compiled(
        &self,
        identity: JobIdentity,
        infos: &[SubgraphInfo],
        tags: &[Symbol],
        plan: &OptimizedPlan,
        exec: &ExecOutcome,
        sim: &SimOutcome,
    ) -> Result<()> {
        let mut subgraphs = Vec::with_capacity(infos.len());
        for info in infos {
            // Subgraphs replaced by a view this run did not execute; the
            // repository only records what actually ran.
            let Some(&phys) = plan.orig_to_phys.get(&info.root) else {
                continue;
            };
            let stats = exec.node_stats[phys.index()];
            subgraphs.push(SubgraphRun {
                info: info.clone(),
                out_rows: stats.out_rows,
                out_bytes: stats.out_bytes,
                exclusive_cpu: stats.exclusive_cpu,
                cumulative_cpu: exec.subgraph_cpu(&plan.physical, phys),
                finish_offset: sim.node_finish[phys.index()],
            });
        }
        let record = JobRecord {
            job: identity.job,
            cluster: identity.cluster,
            vc: identity.vc,
            user: identity.user,
            template: identity.template,
            instance: identity.instance,
            submitted_at: identity.submitted_at,
            latency: sim.latency,
            cpu_time: sim.cpu_time,
            tags: tags.to_vec(),
            subgraphs,
        };
        let sink = self.sink.lock().clone();
        let mut records = self.records.lock();
        let seq = records.len() as u64;
        // Without a sink the record moves in; with one, the sink is
        // notified outside the records lock: it may do IO, and the sequence
        // number captured under the lock keeps concurrent appends distinct
        // even if notifications land out of order.
        match sink {
            None => records.push(record),
            Some(sink) => {
                records.push(record.clone());
                drop(records);
                sink(seq, &record);
            }
        }
        Ok(())
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<JobRecord> {
        self.records.lock().clone()
    }

    /// Runs `f` over the records in place, without cloning them. The
    /// repository lock is held for the duration of `f`; don't call back
    /// into the repository from inside.
    pub fn with_records<R>(&self, f: impl FnOnce(&[JobRecord]) -> R) -> R {
        f(&self.records.lock())
    }

    /// Number of recorded jobs.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Drops all records (used between experiment phases).
    pub fn clear(&self) {
        self.records.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::data::Table;
    use crate::exec::execute_plan;
    use crate::optimizer::{optimize, NoViewServices, OptimizerConfig};
    use crate::sim::{simulate, ClusterConfig};
    use crate::storage::StorageManager;
    use scope_common::ids::{DatasetId, NodeId};
    use scope_plan::expr::AggFunc;
    use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, Schema, Value};

    fn setup() -> (StorageManager, QueryGraph) {
        let s = StorageManager::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let rows = (0..1000)
            .map(|i| vec![Value::Int(i % 10), Value::Int(i)])
            .collect();
        s.put_dataset(DatasetId::new(1), Table::single(schema.clone(), rows));
        let mut b = PlanBuilder::new();
        let scan = b.table_scan(DatasetId::new(1), "in/<date>/t.ss", schema);
        let f = b.filter(scan, Expr::col(1).ge(Expr::lit(0i64)));
        let a = b.aggregate(f, vec![0], vec![AggExpr::new("c", AggFunc::Count, 1)]);
        let g = b.output(a, "out/<date>/r.ss").build().unwrap();
        (s, g)
    }

    fn identity(job: u64) -> JobIdentity {
        JobIdentity {
            job: JobId::new(job),
            cluster: ClusterId::new(0),
            vc: VcId::new(0),
            user: UserId::new(0),
            template: TemplateId::new(0),
            instance: 0,
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn record_reconciles_stats() {
        let (storage, g) = setup();
        let plan = optimize(
            &g,
            &[],
            &NoViewServices,
            &OptimizerConfig::default(),
            JobId::new(1),
        )
        .unwrap();
        let exec = execute_plan(&plan.physical, &storage, &CostModel, SimTime::ZERO).unwrap();
        let sim = simulate(&plan.physical, &exec, &ClusterConfig::default());
        let repo = WorkloadRepository::new();
        repo.record(identity(1), &g, &plan, &exec, &sim).unwrap();
        assert_eq!(repo.len(), 1);
        let rec = &repo.records()[0];
        // One SubgraphRun per logical node.
        assert_eq!(rec.subgraphs.len(), g.len());
        // Cumulative >= exclusive everywhere; root cumulative spans the job.
        for s in &rec.subgraphs {
            assert!(s.cumulative_cpu >= s.exclusive_cpu);
        }
        let root_run = rec
            .subgraphs
            .iter()
            .find(|s| s.info.root == g.roots()[0])
            .unwrap();
        // Root cumulative equals total physical CPU (all nodes reachable).
        assert_eq!(root_run.cumulative_cpu, exec.total_cpu());
        // The aggregate's observed output cardinality is the true 10 groups,
        // not an estimate.
        let agg_run = rec
            .subgraphs
            .iter()
            .find(|s| s.info.root == NodeId::new(2))
            .unwrap();
        assert_eq!(agg_run.out_rows, 10);
        assert!(rec.tags.contains(&Symbol::intern("in/<date>/t.ss")));
        assert!(rec.latency > SimDuration::ZERO);
    }

    #[test]
    fn clear_drops_records() {
        let (storage, g) = setup();
        let plan = optimize(
            &g,
            &[],
            &NoViewServices,
            &OptimizerConfig::default(),
            JobId::new(1),
        )
        .unwrap();
        let exec = execute_plan(&plan.physical, &storage, &CostModel, SimTime::ZERO).unwrap();
        let sim = simulate(&plan.physical, &exec, &ClusterConfig::default());
        let repo = WorkloadRepository::new();
        repo.record(identity(1), &g, &plan, &exec, &sim).unwrap();
        repo.record(identity(2), &g, &plan, &exec, &sim).unwrap();
        assert_eq!(repo.len(), 2);
        repo.clear();
        assert!(repo.is_empty());
    }
}
