//! Heap allocations per unit of work, counted by a global allocator.
//!
//! A recurring job re-runs one template with new constants, so what it
//! pays per job should track the plan, not its columns or partitions. These
//! budgets pin that: a `Schema` clone is a reference-count bump, an 8-way
//! hash exchange of a few dozen rows builds its partitions from one gather,
//! one recurring instance job stays under a fixed count, and so does
//! executing its plan.
//!
//! The counter is thread-local: `cargo test` runs these tests in parallel,
//! and each counts only what its own thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cloudviews::analyzer::{AnalyzerConfig, SelectionConstraints, SelectionPolicy};
use cloudviews::{CloudViews, RunMode};
use scope_common::time::SimTime;
use scope_engine::cost::CostModel;
use scope_engine::data::Table;
use scope_engine::exec::execute_plan;
use scope_engine::optimizer::{optimize, NoViewServices, OptimizerConfig};
use scope_engine::storage::StorageManager;
use scope_plan::{PhysicalProps, Value};
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{stream_schema, ClusterSpec, RecurringWorkload, WorkloadConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter is a const-initialised
// thread-local `Cell` that never allocates, and `try_with` skips it while
// the thread is being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` meets `realloc`'s terms
        // by the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `work` and returns what it made and how many allocations (and
/// reallocations) this thread made meanwhile.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_schema_clone_allocates_nothing() {
    let schema = stream_schema();
    let (clone, n) = counted(|| schema.clone());
    assert_eq!(clone, schema);
    assert_eq!(n, 0, "a Schema clone allocated {n} times");
}

/// `rows` rows of the stream schema over `parts` partitions, as the
/// recurring generator lays them out: integer keys, short strings, floats
/// and dates.
fn stream_table(rows: usize, parts: usize) -> Table {
    let row = |i: usize| {
        vec![
            Value::Int((i * 7 % 13) as i64),
            Value::Int(i as i64),
            Value::Str(format!("cat{}", i % 5)),
            Value::Float(i as f64 * 0.5),
            Value::Date(18_000 + (i % 9) as i32),
            Value::Str(format!("some text {i}")),
        ]
    };
    let mut partitions = vec![Vec::new(); parts];
    for i in 0..rows {
        partitions[i % parts].push(row(i));
    }
    Table::from_rows(stream_schema(), partitions, PhysicalProps::any())
}

#[test]
fn an_eight_way_hash_exchange_of_46_rows_allocates_at_most_80_times() {
    let input = stream_table(46, 4);
    let (out, n) = counted(|| input.hash_repartition(&[0], 8).unwrap());
    assert_eq!(out.num_rows(), 46);
    assert_eq!(out.num_partitions(), 8);
    assert!(n <= 80, "an 8-way exchange of 46 rows allocated {n} times");
}

/// The full-size recurring cluster, rows drawn as the benchmark draws them
/// (tens of rows per stream).
fn recurring_workload() -> RecurringWorkload {
    RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![ClusterSpec {
            name: "recurring".into(),
            num_vcs: 8,
            num_users: 16,
            num_templates: 120,
            num_streams: 24,
            num_fragments: 36,
            fragment_zipf: 1.15,
            vc_zero_overlap: 0.10,
            vc_full_overlap: 0.05,
            base_overlap: 0.75,
            num_business_units: 2,
        }],
        seed: 2018,
        stream_rows: LogNormal::new(3.7, 0.5, 20.0, 400.0),
    })
    .unwrap()
}

#[test]
fn a_recurring_instance_job_allocates_at_most_1100_times() {
    let w = recurring_workload();
    let cv = CloudViews::builder(Arc::new(StorageManager::new())).build();
    w.register_instance_data(0, 0, &cv.storage, 1.0).unwrap();
    let day0 = w.jobs_for_instance(0, 0).unwrap();
    cv.run_sequence(&day0, RunMode::Baseline).unwrap();
    let analysis = cv
        .analyze(&AnalyzerConfig {
            policy: SelectionPolicy::TopKUtility { k: 25 },
            constraints: SelectionConstraints {
                per_job_cap: Some(1),
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
    cv.install_analysis(&analysis);
    // Instance 1 warms the template cache; instance 2 is counted.
    for instance in 1..3 {
        w.register_instance_data(0, instance, &cv.storage, 1.0)
            .unwrap();
        let jobs = w.jobs_for_instance(0, instance).unwrap();
        let run = |job| cv.run_job_at(job, RunMode::CloudViews, SimTime::ZERO);
        let (reports, n) = counted(|| jobs.iter().map(run).collect::<Vec<_>>());
        assert!(reports.iter().all(Result::is_ok));
        let per_job = n / jobs.len() as u64;
        assert!(
            instance == 1 || per_job <= 1_100,
            "a recurring instance job allocated {per_job} times (mean of {})",
            jobs.len()
        );
    }
}

#[test]
fn a_recurring_instance_plan_executes_in_at_most_250_allocations() {
    // Each instance job's plan, optimized once; its schemas were derived
    // when the optimizer validated it, so executing it derives none.
    let w = recurring_workload();
    let storage = StorageManager::new();
    w.register_instance_data(0, 1, &storage, 1.0).unwrap();
    let config = OptimizerConfig::default();
    let plans: Vec<_> = (w.jobs_for_instance(0, 1).unwrap().iter())
        .map(|job| optimize(&job.graph, &[], &NoViewServices, &config, job.id).unwrap())
        .map(|plan| plan.physical)
        .collect();
    // The first run builds what the stored streams keep (route maps); the
    // second is counted.
    for pass in 0..2 {
        let run = |plan| execute_plan(plan, &storage, &CostModel, SimTime::ZERO).unwrap();
        let (outcomes, n) = counted(|| plans.iter().map(run).collect::<Vec<_>>());
        assert!(outcomes.iter().all(|o| o.node_stats.len() > 1));
        let per_job = n / plans.len() as u64;
        assert!(
            pass == 0 || per_job <= 250,
            "executing a recurring instance plan allocated {per_job} times (mean of {})",
            plans.len()
        );
    }
}
