//! The VC-admin view: workload overlap analysis and what-to-materialize.
//!
//! Reproduces the admin experience of paper Sections 2 and 5.5: analyze
//! five production-like clusters, print the Figure-1-style overlap summary
//! per cluster, drill into the largest cluster's per-VC breakdown and
//! operator-wise overlap, and compare selection policies (top-k utility vs
//! utility-per-byte vs packing under a storage budget).
//!
//! Run with: `cargo run --release --example admin_dashboard`

use std::sync::Arc;

use cloudviews::admin;
use cloudviews::analyzer::{
    overlap, run_analysis, AnalyzerConfig, SelectionConstraints, SelectionPolicy,
};
use cloudviews::reporting;
use cloudviews::{CloudViews, RunMode};
use scope_engine::repo::JobRecord;
use scope_engine::storage::StorageManager;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};

fn main() -> scope_common::Result<()> {
    // Five clusters, scaled down from the paper preset for a fast demo.
    let mk = |name: &str, base: f64, zero: f64| ClusterSpec {
        name: name.into(),
        num_vcs: 8,
        num_users: 12,
        num_templates: 40,
        num_streams: 10,
        num_fragments: 14,
        fragment_zipf: 1.2,
        vc_zero_overlap: zero,
        vc_full_overlap: 0.05,
        base_overlap: base,
        num_business_units: 2,
    };
    let workload = RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![
            mk("cluster1", 0.85, 0.05),
            mk("cluster2", 0.75, 0.08),
            mk("cluster3", 0.30, 0.30), // the paper's low outlier
            mk("cluster4", 0.80, 0.05),
            mk("cluster5", 0.70, 0.10),
        ],
        seed: 3,
        stream_rows: LogNormal::new(7.0, 0.8, 200.0, 4_000.0),
    })?;

    // Run one instance of every cluster baseline to populate repositories.
    let service = CloudViews::builder(Arc::new(StorageManager::new())).build();
    println!("running one recurring instance of 5 clusters (baseline)...\n");
    for c in 0..5 {
        workload.register_instance_data(c, 0, &service.storage, 1.0)?;
        let jobs = workload.jobs_for_instance(c, 0)?;
        service.run_sequence(&jobs, RunMode::Baseline)?;
    }
    let records = service.repo.records();

    // --- Figure-1-style summary per cluster. ------------------------------
    println!("=== overlap per cluster (cf. paper Figure 1) ===");
    for c in 0..5u64 {
        let metrics = overlap::overlap_metrics(records.iter().filter(|r| r.cluster.raw() == c));
        println!(
            "{}",
            reporting::overlap_summary(&format!("cluster{}", c + 1), &metrics)
        );
    }

    // --- Largest cluster drill-down. --------------------------------------
    println!("\n=== cluster1 per-VC breakdown (cf. Figure 2) ===");
    let c1: Vec<JobRecord> = records
        .iter()
        .filter(|r| r.cluster.raw() == 0)
        .cloned()
        .collect();
    let m1 = overlap::overlap_metrics(&c1);
    let mut vcs: Vec<_> = m1.vc_overlap_pct().into_iter().collect();
    vcs.sort_by_key(|(vc, _)| *vc);
    for (vc, pct) in vcs {
        println!("{vc}\toverlapping_jobs={pct:.0}%");
    }

    let groups = overlap::mine_overlaps(&c1);
    println!("\n=== cluster1 operator-wise overlap (cf. Figure 4a) ===");
    for (kind, pct) in reporting::operator_breakdown(&groups).iter().take(10) {
        if *pct > 0.0 {
            println!("{kind}\t{pct:.1}%");
        }
    }

    println!("\n=== cluster1 top overlapping computations ===");
    print!("{}", reporting::top_overlaps(&groups, 8));

    // --- Selection policy comparison. --------------------------------------
    println!("\n=== selection policies on cluster1 (storage vs utility) ===");
    let constraints = SelectionConstraints {
        min_cost_ratio: 0.05,
        per_job_cap: Some(1),
        ..Default::default()
    };
    for (name, policy) in [
        ("top-5 utility", SelectionPolicy::TopKUtility { k: 5 }),
        (
            "top-5 utility/byte",
            SelectionPolicy::TopKUtilityPerByte { k: 5 },
        ),
        (
            "packing 1MB",
            SelectionPolicy::Packing {
                storage_budget_bytes: 1_000_000,
            },
        ),
        (
            "packing 10MB",
            SelectionPolicy::Packing {
                storage_budget_bytes: 10_000_000,
            },
        ),
    ] {
        let outcome = run_analysis(
            &c1,
            &AnalyzerConfig {
                policy,
                constraints: constraints.clone(),
                ..Default::default()
            },
        )?;
        let utility: f64 = outcome
            .selected
            .iter()
            .map(|s| s.utility.as_secs_f64())
            .sum();
        let bytes: u64 = outcome
            .selected
            .iter()
            .map(|s| s.annotation.avg_bytes)
            .sum();
        println!(
            "{name}\tviews={}\ttotal_utility={utility:.2}s\tstorage={:.2}MB",
            outcome.selected.len(),
            bytes as f64 / 1e6
        );
    }

    // --- Why was (or wasn't) a computation selected? ------------------------
    println!("\n=== selection drill-down (paper §4 requirement 6) ===");
    let strict = SelectionConstraints::paper_production();
    for group in groups.iter().take(3) {
        print!("{}", admin::explain_selection(group, &strict).render());
    }

    // --- Storage reclamation (paper §5.4). ----------------------------------
    // Enable CloudViews on cluster1's next instance so views actually exist,
    // then reclaim half the store with the min-objective eviction.
    let outcome = run_analysis(
        &c1,
        &AnalyzerConfig {
            policy: SelectionPolicy::TopKUtility { k: 5 },
            constraints: constraints.clone(),
            ..Default::default()
        },
    )?;
    service.metadata.load_annotations(&outcome.selected);
    workload.register_instance_data(0, 1, &service.storage, 1.0)?;
    service.run_sequence(&workload.jobs_for_instance(0, 1)?, RunMode::CloudViews)?;
    println!("\n=== storage reclamation ===");
    println!(
        "view store before: {} views, {:.2} MB",
        service.storage.num_views(),
        service.storage.total_view_bytes() as f64 / 1e6
    );
    let report = admin::reclaim_storage(&service, service.storage.total_view_bytes() / 2)?;
    println!(
        "reclaimed {} views / {:.2} MB; {:.2} MB remain",
        report.views_removed,
        report.bytes_reclaimed as f64 / 1e6,
        report.bytes_remaining as f64 / 1e6
    );
    Ok(())
}
