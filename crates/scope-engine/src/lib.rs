//! A miniature SCOPE: the substrate the CloudViews reproduction runs on.
//!
//! The paper's system sits inside Microsoft's SCOPE job service. CloudViews
//! touches SCOPE at four seams — optimizer plan trees, physical properties,
//! runtime statistics, and a store for materialized view files — so this
//! crate implements a small but *real* engine exposing exactly those seams:
//!
//! * [`data`] — partitioned in-memory tables stored as columnar record
//!   batches ([`data::RecordBatch`], [`data::ColumnVector`]), with a row
//!   bridge for tests and the view codec, and multiset checksums used by the
//!   correctness tests (baseline output must equal CloudViews output
//!   bit-for-bit).
//! * [`cost`] — the calibrated cost model translating actual row counts into
//!   simulated CPU time, plus the deliberately naive *compile-time*
//!   cardinality estimator whose errors motivate the paper's feedback loop.
//! * [`storage`] — the storage manager: base datasets plus the materialized
//!   view store with expiry-based purging (paper Section 5.4).
//! * [`exec`] — the columnar batch-at-a-time physical executor for every
//!   operator kind in the paper's Figure 4(a), with per-node runtime
//!   statistics byte-identical to the seed row executor, which the tests
//!   keep as their oracle.
//! * [`sim`] — the discrete-event cluster model: plans split into stages at
//!   exchange boundaries, stages run as waves of parallel vertices under a
//!   token budget; produces end-to-end latency and total CPU-time, the two
//!   metrics of the paper's Figures 11 and 12.
//! * [`optimizer`] — Cascades-lite: implementation selection, physical
//!   property enforcement, and the two CloudViews hooks of Figure 10
//!   (top-down view matching in plan search; bottom-up materialization in
//!   follow-up optimization) behind the [`optimizer::ViewServices`] trait.
//! * [`repo`] — the workload repository joining compile-time plans with
//!   run-time statistics: the input to the CloudViews analyzer.
//! * [`job`] — job descriptors and the baseline job runner.

pub mod cost;
pub mod data;
pub mod exec;
pub mod job;
pub mod optimizer;
pub mod repo;
pub mod sim;
pub mod storage;
mod vexpr;

pub use cost::{CostEstimator, CostModel};
pub use data::{multiset_checksum, ColumnVector, RecordBatch, Row, Table};
pub use exec::{execute_plan, ExecOutcome, NodeRuntimeStats};
pub use job::{run_job_baseline, JobOutcome, JobSpec};
pub use optimizer::{
    optimize, optimize_with_cascade, Annotation, MaterializeDecision, OptimizedPlan,
    OptimizerConfig, OptimizerReport, ViewServices,
};
pub use repo::{JobRecord, SubgraphRun, WorkloadRepository};
pub use sim::{simulate, ClusterConfig, SimOutcome};
pub use storage::{StorageManager, ViewFile, ViewMeta};
