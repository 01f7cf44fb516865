//! The traced replay: one job driven through the public functions the
//! service's five pipeline stages call, with a span around each call.
//!
//! `cloudviews::pipeline` is crate-private, so the layer budget cannot be
//! read off the shipped driver. Instead this module repeats, call for call,
//! what `pipeline::run_attempt` does on the fault-free path — template
//! compile, subsumption probes, the pinned metadata lookup, the cascade
//! optimize over a pinned `ViewServices`, execute, simulate, materialize,
//! publish, report, record, analyzer absorb — against the same public
//! fields of a real [`CloudViews`]. The fidelity check in the job workloads
//! compares every replayed job with `run_job_at` on an identically prepared
//! service, so the table can never describe another pipeline than the one
//! shipped.
//!
//! On a durable service the replay can *tap* the store: it detaches the
//! three durability hooks (metadata WAL, repository mirror, view mirror)
//! and makes the same `DurableStore` calls itself, each under a `store.*`
//! span, so the store's time is separated from the metadata, repository and
//! storage calls that normally hide it.

use std::collections::HashMap;

use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::metadata::{LockOutcome, MetadataService};
use cloudviews::store::{DurableStore, WalEvent};
use cloudviews::{CloudViews, JobRunReport, RunMode};
use scope_common::hash::Sig128;
use scope_common::ids::{JobId, NodeId};
use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_engine::data::multiset_checksum;
use scope_engine::exec::execute_plan;
use scope_engine::job::{materialize_marked_views, JobSpec};
use scope_engine::optimizer::{
    optimize_with_cascade, AvailableView, OptimizerConfig, ViewServices,
};
use scope_engine::repo::JobIdentity;
use scope_engine::sim::simulate;
use scope_engine::storage::StorageEventSink;
use scope_plan::QueryGraph;
use scope_signature::{SubgraphInfo, SubsumeDescriptor};

use crate::spans::Recorder;

/// Counts taken at the layer boundaries during a replay, so ratios are
/// measured where the work happens.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    /// Jobs replayed.
    pub jobs: u64,
    /// Tier-2 candidates the metadata lookup handed to the optimizer.
    pub tier2_candidates: u64,
    /// Tier-2 rewrites the optimizer adopted.
    pub tier2_rewrites: u64,
    /// Rows entering operators, summed over executed plans.
    pub exec_in_rows: u64,
    /// Views materialized.
    pub views_built: u64,
    /// Stored bytes of those views.
    pub view_bytes: u64,
}

/// What the replay of one job yields; the fields the fidelity check
/// compares mirror [`JobRunReport`].
#[derive(Clone, Debug)]
pub struct ReplayedJob {
    /// Job id.
    pub job: JobId,
    /// Simulated end-to-end latency.
    pub latency: SimDuration,
    /// Simulated CPU including view writes.
    pub cpu_time: SimDuration,
    /// Views this job materialized.
    pub views_built: Vec<Sig128>,
    /// Views this job reused.
    pub views_reused: Vec<Sig128>,
    /// Order-insensitive checksum of every output.
    pub output_checksums: HashMap<String, u64>,
}

impl ReplayedJob {
    /// First field on which the replay disagrees with the service's report
    /// of the same job, or `None` when they agree.
    pub fn divergence(&self, service: &JobRunReport) -> Option<String> {
        if self.views_reused != service.views_reused {
            return Some(format!(
                "views reused {:?} vs {:?}",
                self.views_reused, service.views_reused
            ));
        }
        if self.views_built != service.views_built {
            return Some(format!(
                "views built {:?} vs {:?}",
                self.views_built, service.views_built
            ));
        }
        if self.output_checksums != service.output_checksums {
            return Some("output checksums differ".into());
        }
        if self.latency != service.latency {
            return Some(format!(
                "simulated latency {} vs {}",
                self.latency, service.latency
            ));
        }
        None
    }
}

/// The replay's stand-in for the pipeline's private `PinnedServices`: view
/// availability and lock expiry are judged at the job's submission time.
struct Pinned<'a> {
    svc: &'a MetadataService,
    now: SimTime,
    rec: &'a Recorder,
    tap: Option<&'a DurableStore>,
}

impl ViewServices for Pinned<'_> {
    fn view_available(&self, precise: Sig128) -> Option<AvailableView> {
        self.rec.time("meta.view_available", || {
            self.svc.view_available_at(precise, self.now)
        })
    }

    fn propose_materialize(
        &self,
        precise: Sig128,
        _normalized: Sig128,
        job: JobId,
        lock_ttl: SimDuration,
    ) -> bool {
        let req = ProposeRequest::new(precise, job, lock_ttl, self.now);
        let won = self.rec.time("meta.propose", || {
            matches!(self.svc.propose(&req), Ok(LockOutcome::Acquired))
        });
        if let (true, Some(store)) = (won, self.tap) {
            let ev = WalEvent::LockGranted {
                precise,
                holder: job,
                at: self.now,
                expires_at: self.now + lock_ttl,
            };
            self.rec.time("store.append", || store.append_event(&ev));
        }
        won
    }
}

/// The child of a unary subgraph root, if it has exactly one.
fn only_child(graph: &QueryGraph, root: NodeId) -> Option<NodeId> {
    match graph.node(root).ok()?.children.as_slice() {
        [c] => Some(*c),
        _ => None,
    }
}

/// Query-side probes: one descriptor per tier-2-eligible unary root.
fn subsume_probes(graph: &QueryGraph, infos: &[SubgraphInfo]) -> Vec<SubsumeDescriptor> {
    let precise_of: HashMap<NodeId, Sig128> = infos.iter().map(|i| (i.root, i.precise)).collect();
    infos
        .iter()
        .filter_map(|info| {
            let child = only_child(graph, info.root)?;
            SubsumeDescriptor::of(graph, info.root, *precise_of.get(&child)?)
        })
        .collect()
}

/// View-side descriptor of a freshly built view.
fn view_descriptor(
    graph: &QueryGraph,
    infos: &[SubgraphInfo],
    precise: Sig128,
) -> Option<SubsumeDescriptor> {
    let info = infos.iter().find(|i| i.precise == precise)?;
    let child = only_child(graph, info.root)?;
    let child_precise = infos.iter().find(|i| i.root == child)?.precise;
    SubsumeDescriptor::of(graph, info.root, child_precise)
}

/// Detaches a durable service's three durability hooks for the lifetime of
/// the guard and hands out the store, so the replay can make the store
/// calls itself under spans. Dropping the guard re-attaches the hooks.
pub struct StoreTap<'a> {
    cv: &'a CloudViews,
}

impl<'a> StoreTap<'a> {
    /// Taps `cv`'s store; `None` when the service is not durable.
    pub fn attach(cv: &'a CloudViews) -> Option<StoreTap<'a>> {
        cv.durable.as_ref()?;
        cv.metadata.set_durable(None);
        cv.storage.set_event_sink(None);
        cv.repo.set_record_sink(None);
        Some(StoreTap { cv })
    }

    fn store(&self) -> &'a DurableStore {
        self.cv.durable.as_ref().expect("tap implies durable")
    }
}

impl Drop for StoreTap<'_> {
    fn drop(&mut self) {
        let store = std::sync::Arc::clone(self.cv.durable.as_ref().expect("tap implies durable"));
        self.cv
            .metadata
            .set_durable(Some(std::sync::Arc::clone(&store)));
        self.cv.storage.set_event_sink(Some(
            std::sync::Arc::clone(&store) as std::sync::Arc<dyn StorageEventSink>
        ));
        self.cv
            .repo
            .set_record_sink(Some(std::sync::Arc::new(move |seq, rec| {
                store.record_job(seq, rec)
            })));
    }
}

/// Replays one job at pinned submission time `start`, recording a span per
/// layer call into `rec` and boundary counts into `counts`.
pub fn replay_job(
    cv: &CloudViews,
    spec: &JobSpec,
    mode: RunMode,
    start: SimTime,
    rec: &Recorder,
    tap: Option<&StoreTap<'_>>,
    counts: &mut ReplayCounts,
) -> Result<ReplayedJob> {
    let out = rec.job(spec.id.raw(), || {
        replay_inner(cv, spec, mode, start, rec, tap.map(StoreTap::store), counts)
    });
    // Like the service, compact the WAL after the job's span has closed:
    // a snapshot is background work, not part of any job's wall.
    if cv.durable.is_some() {
        rec.time("store.snapshot", || cv.maybe_snapshot());
    }
    out
}

fn replay_inner(
    cv: &CloudViews,
    spec: &JobSpec,
    mode: RunMode,
    start: SimTime,
    rec: &Recorder,
    tap: Option<&DurableStore>,
    counts: &mut ReplayCounts,
) -> Result<ReplayedJob> {
    let reuse = mode == RunMode::CloudViews;
    cv.clock.advance_to(start);
    let compiled = rec.time("sig.compile", || cv.templates.compile(&spec.graph))?;

    let (annotations, tier2, lookup_latency) = if reuse {
        let probes = if cv.subsumption {
            rec.time("sig.probe", || subsume_probes(&spec.graph, &compiled.infos))
        } else {
            Vec::new()
        };
        let req = LookupRequest::new(spec.id, &compiled.tags, start).with_probes(probes);
        let resp = rec.time("meta.lookup", || cv.metadata.lookup(&req))?;
        (resp.annotations, resp.tier2, resp.latency)
    } else {
        (Vec::new(), Vec::new(), SimDuration::ZERO)
    };
    counts.tier2_candidates += tier2.len() as u64;

    let pinned = Pinned {
        svc: cv.metadata.as_ref(),
        now: start,
        rec,
        tap,
    };
    let opt_config = OptimizerConfig {
        default_dop: cv.cluster.default_dop,
        max_materialize_per_job: cv.max_materialize_per_job,
        enable_reuse: reuse,
        enable_materialize: reuse,
        enable_subsumption: cv.subsumption,
        ..Default::default()
    };
    let plan = rec.time("opt.optimize", || {
        optimize_with_cascade(
            &spec.graph,
            &compiled.infos,
            &annotations,
            &tier2,
            &pinned,
            &opt_config,
            spec.id,
        )
    })?;
    counts.tier2_rewrites += plan.report.tier2_reused as u64;

    let exec = rec.time("exec.execute", || {
        execute_plan(&plan.physical, &cv.storage, &cv.cost, start)
    })?;
    counts.exec_in_rows += exec.node_stats.iter().map(|s| s.in_rows).sum::<u64>();
    let sim = rec.time("sim.simulate", || {
        simulate(&plan.physical, &exec, &cv.cluster)
    });

    let built = rec.time("storage.materialize", || {
        materialize_marked_views(&plan, &exec, &sim, &cv.cost, spec.id, start)
    })?;
    let job_end_offset =
        lookup_latency + sim.latency + built.iter().map(|b| b.extra_latency).sum::<SimDuration>();
    let mut views_built = Vec::with_capacity(built.len());
    let mut extra_cpu = SimDuration::ZERO;
    let mut extra_latency = SimDuration::ZERO;
    for b in built {
        extra_cpu += b.extra_cpu;
        extra_latency += b.extra_latency;
        let available_at = if cv.early_materialization {
            start + lookup_latency + b.available_offset
        } else {
            start + job_end_offset
        };
        let view = AvailableView {
            precise: b.file.meta.precise,
            rows: b.file.meta.rows,
            bytes: b.file.meta.bytes,
            props: b.file.props.clone(),
        };
        let (expires_at, normalized, precise) = (
            b.file.meta.expires_at,
            b.file.meta.normalized,
            b.file.meta.precise,
        );
        counts.views_built += 1;
        counts.view_bytes += b.file.meta.bytes;
        views_built.push(precise);
        let mirror = tap.map(|_| b.file.clone());
        rec.time("storage.publish", || cv.storage.publish_view(b.file))?;
        if let (Some(store), Some(file)) = (tap, mirror) {
            rec.time("store.view_put", || store.view_published(&file));
        }
        let descriptor = rec.time("sig.probe", || {
            view_descriptor(&spec.graph, &compiled.infos, precise)
        });
        let req = ReportRequest::new(view, normalized, spec.id, available_at, expires_at)
            .with_descriptor(descriptor)
            .for_vc(spec.vc);
        if let Some(store) = tap {
            let ev = WalEvent::Register(Box::new(req.clone()));
            rec.time("store.append", || store.append_event(&ev));
        }
        rec.time("meta.report", || cv.metadata.report(req))?;
    }

    if cv.record_runs {
        let identity = JobIdentity {
            job: spec.id,
            cluster: spec.cluster,
            vc: spec.vc,
            user: spec.user,
            template: spec.template,
            instance: spec.instance,
            submitted_at: start,
        };
        rec.time("repo.record", || {
            cv.repo.record_compiled(
                identity,
                &compiled.infos,
                &compiled.tags,
                &plan,
                &exec,
                &sim,
            )
        })?;
        if let Some(store) = tap {
            let (seq, record) = cv
                .repo
                .with_records(|r| (r.len() as u64 - 1, r.last().expect("just recorded").clone()));
            rec.time("store.record_job", || store.record_job(seq, &record));
        }
        if let Some(analyzer) = &cv.analyzer {
            rec.time("analyzer.absorb", || analyzer.absorb(&cv.repo));
        }
    }

    // Report assembly (output checksums) is the pipeline driver's own work
    // and stays in the job span's self time.
    let output_checksums = exec
        .outputs
        .iter()
        .map(|(name, t)| (name.clone(), multiset_checksum(t)))
        .collect();
    let latency = lookup_latency + sim.latency + extra_latency;
    cv.clock.advance_to(start + latency);
    counts.jobs += 1;
    Ok(ReplayedJob {
        job: spec.id,
        latency,
        cpu_time: sim.cpu_time + extra_cpu,
        views_built,
        views_reused: plan.reused.iter().map(|r| r.precise).collect(),
        output_checksums,
    })
}
