//! The staged per-job pipeline and the multi-job driver.
//!
//! One job attempt is five functions called in order — metadata lookup →
//! reuse rewrite (optimize) → execute → publish → record — mirroring the
//! paper's per-job path (Sections 6.1–6.4) and the span tree of DESIGN.md
//! §8. Each per-attempt fact is stated once, where it is first known: the
//! `Attempt` is the optimizer's job-start-pinned view oracle, the
//! attempt's simulated time is one cursor (`run_attempt` opens one child
//! span per step at the cursor, calls the step, advances the cursor by the
//! simulated latency the step charged and closes the span there; a step
//! that fails leaves its span unfinished), and each root's subsumption
//! descriptor is built at most once, for the lookup's probes or for the
//! publish of a view.
//!
//! Many jobs run through [`CloudViews::run_many`]: up to
//! `min(workers, max_in_flight)` workers (the caller and scoped threads),
//! each pulling the next slot (from a submission-order counter, or a
//! sharing window's readiness gate) and running one job at a time — so the
//! worker count *is* the admission bound (modeling the job service's
//! admission control). Each job runs under `catch_unwind` so one
//! pathological job cannot take down the driver or its siblings.

use std::cell::{Cell, OnceCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::telemetry::{ActiveSpan, Tracer};
use scope_common::time::{SimDuration, SimTime};
use scope_common::{Result, ScopeError};
use scope_engine::data::multiset_checksum;
use scope_engine::exec::{execute_plan, ExecOutcome};
use scope_engine::job::{materialize_marked_views, JobSpec};
use scope_engine::optimizer::{
    optimize_with_cascade, Annotation, AvailableView, OptimizedPlan, OptimizerConfig, ViewServices,
};
use scope_engine::repo::JobIdentity;
use scope_engine::sim::{simulate, SimOutcome};
use scope_signature::{CompiledJob, SubsumeDescriptor};

use crate::api::{LookupRequest, ProposeRequest, ReportRequest};
use crate::faults::FaultSite;
use crate::metadata::{LockOutcome, LookupResponse};
use crate::runtime::{
    panic_message, AttemptFailure, CloudViews, JobFaultReport, JobRunReport, RunMode,
};
use crate::sharing::WindowContext;

/// One attempt at a job: what every step reads, and the optimizer's view
/// oracle. The oracle is pinned to the job's submission time `start`: view
/// availability is judged there, so a job overlapping with the builder does
/// not see a view that was published after this job started.
struct Attempt<'a> {
    cv: &'a CloudViews,
    spec: &'a JobSpec,
    mode: RunMode,
    start: SimTime,
    compiled: &'a CompiledJob,
    opt_config: OptimizerConfig,
    /// The sharing-window coordinator and this job's submission-order slot
    /// in it, when the job runs inside one ([`CloudViews::run_windowed`]);
    /// consulted before the pinned metadata service so a follower can see
    /// its producer's mid-window publication without the metadata service
    /// ever looking past `start`.
    window: Option<(&'a WindowContext, usize)>,
    /// Materialization proposals go through the fault-aware
    /// [`crate::MetadataService::propose`]; an injected propose failure is
    /// counted here (folded into the job's fault report after execute) and
    /// the optimizer simply skips that materialization.
    propose_faults: Cell<u64>,
    /// One cell per compiled root: its subsumption descriptor (`None` when
    /// the root is not tier-2 eligible), built on first use.
    descriptors: Vec<OnceCell<Option<SubsumeDescriptor>>>,
}

impl Attempt<'_> {
    /// The descriptor of compiled root `i`. Probes and view descriptors both
    /// come from the *original* logical plan: even when a root was itself
    /// compensated by a tier-2 rewrite, a view's materialized bytes equal
    /// the original subgraph's output, which is what the descriptor
    /// describes.
    fn descriptor(&self, i: usize) -> Option<&SubsumeDescriptor> {
        let infos = &self.compiled.infos;
        self.descriptors[i]
            .get_or_init(|| SubsumeDescriptor::of_root(&self.spec.graph, infos, infos[i].root))
            .as_ref()
    }
}

impl ViewServices for Attempt<'_> {
    fn view_available(&self, precise: Sig128) -> Option<AvailableView> {
        // A follower reads the producer's publication straight from the
        // window channel: the view's `created_at` is *after* this job's
        // pinned `start`, which is exactly the visibility the pinned metadata
        // lookup must keep refusing. The producer itself, an unpublished or
        // aborted entry and an unshared subgraph take the ordinary pinned
        // path (a pre-existing view still matches).
        self.window
            .and_then(|(w, slot)| w.lookup_view(slot, precise))
            .or_else(|| self.cv.metadata.view_available_at(precise, self.start))
    }

    fn propose_materialize(
        &self,
        precise: Sig128,
        _normalized: Sig128,
        job: JobId,
        lock_ttl: SimDuration,
    ) -> bool {
        // A follower never competes for its producer's build lock — not
        // even after an abort (the subgraph can be built in a later window
        // instead). The producer itself falls through to the real propose,
        // keeping the ordinary lock lifecycle (takeover, mined expiry).
        if let Some((w, slot)) = self.window {
            if w.producer(precise).is_some_and(|p| p != slot) {
                return false;
            }
        }
        // Pinned like `view_available`: lock expiry is judged at this job's
        // submission time, not the live clock (which peers advance mid-wave).
        let req = ProposeRequest::new(precise, job, lock_ttl, self.start);
        match self.cv.metadata.propose(&req) {
            Ok(outcome) => outcome == LockOutcome::Acquired,
            Err(_) => {
                self.propose_faults.set(self.propose_faults.get() + 1);
                false
            }
        }
    }
}

/// The attempt's position in simulated time — its one running sum — and
/// the child spans hung off it: a step's span opens at the cursor it
/// inherits and closes at the cursor it leaves behind (the lookup charges
/// its modeled latency, optimize a follower's wait, execute the simulated
/// runtime, publish the view-write latency; record is zero-width at job
/// end). A step that fails returns between `open` and `close`, so its span
/// is dropped unfinished — a crashed builder never reports a publish time.
struct StepSpans<'a> {
    tracer: &'a Tracer,
    root: &'a ActiveSpan,
    cursor: SimTime,
}

impl StepSpans<'_> {
    fn open(&self, name: &'static str) -> ActiveSpan {
        self.tracer.child(self.root, name, self.cursor)
    }

    fn close(&mut self, span: ActiveSpan, charged: SimDuration, outcome: Option<&'static str>) {
        self.cursor += charged;
        self.tracer.finish_with(span, self.cursor, outcome);
    }
}

/// Step 1 — the compiler's one metadata lookup per job (Section 6.1),
/// pinned to the job's submission time and retried under the degradation
/// policy: a timed-out call still pays the modeled lookup latency, plus
/// backoff before each retry, and exhausted retries degrade the job to its
/// baseline plan (no annotations, no tier-2 candidates). Tags come from the
/// template-cache compile, not a fresh signature pass. The response's
/// `latency` is everything the step paid.
fn lookup(att: &Attempt<'_>, faults: &mut JobFaultReport) -> LookupResponse {
    if att.mode == RunMode::Baseline {
        return LookupResponse::default();
    }
    let cv = att.cv;
    // Subsumption probes, one per tier-2-eligible root, are per-instance
    // (they embed concrete predicate and parameter values), so they are
    // computed fresh here and never cached in the template.
    let probes = if cv.subsumption {
        let roots = 0..att.compiled.infos.len();
        roots.filter_map(|i| att.descriptor(i).cloned()).collect()
    } else {
        Vec::new()
    };
    let req = LookupRequest::new(att.spec.id, &att.compiled.tags, att.start).with_probes(probes);
    let (mut retries_left, mut timed_out) = (cv.degradation.lookup_retries, SimDuration::ZERO);
    let mut resp = loop {
        match cv.metadata.lookup(&req) {
            Ok(resp) => break resp,
            Err(_) => {
                faults.lookup_faults += 1;
                timed_out += cv.metadata.lookup_latency();
                if retries_left == 0 {
                    faults.fell_back_to_baseline = true;
                    break LookupResponse::default();
                }
                retries_left -= 1;
                faults.lookup_retries += 1;
                // Backoff is charged once, via degraded_latency, when the
                // final report is assembled.
                faults.degraded_latency += cv.degradation.retry_backoff;
            }
        }
    };
    resp.latency += timed_out;
    // Window annotations ride along with the metadata lookup's: every
    // shared entry this job produces or follows gets a synthesized
    // annotation (unless a genuine analyzer annotation already covers the
    // template), so the ordinary optimizer hooks drive both the producer's
    // materialization and the followers' reuse.
    if let Some((w, slot)) = att.window {
        w.extend_annotations(slot, &mut resp.annotations);
    }
    resp
}

/// Step 2 — the reuse rewrite: optimize with the attempt as the view oracle
/// (Figure 10's two hooks), reusing the subgraph records from the
/// template-cache compile instead of re-enumerating. Returns the plan and
/// how long a window follower waited for its producers.
fn optimize(att: &Attempt<'_>, looked_up: &LookupResponse) -> Result<(OptimizedPlan, SimDuration)> {
    let plan = optimize_with_cascade(
        &att.spec.graph,
        &att.compiled.infos,
        &looked_up.annotations,
        &looked_up.tier2,
        att,
        &att.opt_config,
        att.spec.id,
    )?;
    // Sharing accounting: which awaited entries did this follower actually
    // reuse (vs. fall back to recompute — abort, or the cost gate honestly
    // declining the view), and how long did it wait past the shared
    // submission instant for the producer's publication? The wait is
    // simulated latency this job really pays.
    let wait = att.window.map_or(SimDuration::ZERO, |(w, slot)| {
        let reused: Vec<Sig128> = plan.reused.iter().map(|r| r.precise).collect();
        w.note_optimized(slot, &reused)
    });
    Ok((plan, wait))
}

/// Step 3 — execute and simulate. A matched view that cannot be read back
/// (lost or corrupted file) is not fatal: unregister it and re-optimize
/// without reuse — the paper's fallback to recomputation. Returns the plan
/// that ran (the one it was given, or the re-optimized one).
fn execute(
    att: &Attempt<'_>,
    annotations: &[Annotation],
    plan: OptimizedPlan,
    faults: &mut JobFaultReport,
) -> Result<(OptimizedPlan, ExecOutcome, SimOutcome)> {
    let cv = att.cv;
    let (plan, exec) = match execute_plan(&plan.physical, &cv.storage, &cv.cost, att.start) {
        Ok(exec) => (plan, exec),
        Err(ScopeError::ViewUnavailable(_)) if !plan.reused.is_empty() => {
            faults.view_read_fallbacks += 1;
            for r in &plan.reused {
                if cv.storage.open_view(r.precise, att.start).is_err() {
                    // Pin the GC read to the job's submission time: under a
                    // replayed log the live clock may sit anywhere, and a
                    // wall-clock read here could GC annotations that were
                    // live at the recorded instant.
                    cv.metadata.unregister_views(&[r.precise], att.start);
                    cv.storage.delete_view(r.precise);
                    faults.dead_views_unregistered += 1;
                }
            }
            let no_reuse = OptimizerConfig {
                enable_reuse: false,
                ..att.opt_config.clone()
            };
            let plan = optimize_with_cascade(
                &att.spec.graph,
                &att.compiled.infos,
                annotations,
                &[],
                att,
                &no_reuse,
                att.spec.id,
            )?;
            let exec = execute_plan(&plan.physical, &cv.storage, &cv.cost, att.start)?;
            (plan, exec)
        }
        Err(e) => return Err(e),
    };
    faults.propose_faults += att.propose_faults.get();
    let sim = simulate(&plan.physical, &exec, &cv.cluster);
    cv.record_sim_metrics(&sim);
    cv.record_exec_metrics(&plan.physical, &exec);
    Ok((plan, exec, sim))
}

/// What the publish step made: the views it built and what writing them
/// cost on top of the simulated run.
struct Published {
    views: Vec<Sig128>,
    extra_cpu: SimDuration,
    extra_latency: SimDuration,
}

/// Step 4 — materialize marked views and publish each one (Section 6.4):
/// early, at its producing stage's finish (`executed_at`, the execute
/// span's start, plus the stage's offset), or at job end (the instant this
/// step's span, opened at `cursor`, will close). This is the step where an
/// injected builder crash kills the attempt: the error carries the latency
/// already wasted (the cursor at the crash) and the driver restarts the
/// job.
fn publish(
    att: &Attempt<'_>,
    plan: &OptimizedPlan,
    exec: &ExecOutcome,
    sim: &SimOutcome,
    executed_at: SimTime,
    cursor: SimTime,
    faults: &mut JobFaultReport,
) -> std::result::Result<Published, AttemptFailure> {
    let (cv, spec) = (att.cv, att.spec);
    let built = materialize_marked_views(plan, exec, sim, &cv.cost, spec.id, att.start)?;
    let job_end = cursor + built.iter().map(|b| b.extra_latency).sum::<SimDuration>();
    let mut out = Published {
        views: Vec::with_capacity(built.len()),
        extra_cpu: SimDuration::ZERO,
        extra_latency: SimDuration::ZERO,
    };
    for b in built {
        // The builder may die right here — mid-materialization, after
        // winning its build lock, before publishing this view.
        if let Some(inj) = &cv.faults {
            if inj.should_fail(FaultSite::BuilderCrash, spec.id) {
                return Err(AttemptFailure::BuilderCrash {
                    wasted_latency: cursor + out.extra_latency - att.start,
                });
            }
        }
        out.extra_cpu += b.extra_cpu;
        out.extra_latency += b.extra_latency;
        let mut available_at = if cv.early_materialization {
            executed_at + b.available_offset
        } else {
            job_end
        };
        if let Some(inj) = &cv.faults {
            let delay = inj.publication_delay();
            if delay > SimDuration::ZERO {
                available_at += delay;
                faults.delayed_publications += 1;
            }
        }
        let view = AvailableView {
            precise: b.file.meta.precise,
            rows: b.file.meta.rows,
            bytes: b.file.meta.bytes,
            props: b.file.props.clone(),
        };
        let expires_at = b.file.meta.expires_at;
        let normalized = b.file.meta.normalized;
        let precise = b.file.meta.precise;
        out.views.push(precise);
        cv.storage.publish_view(b.file)?;
        // Elected producer: hand the view to the window's followers the
        // moment it is on storage, with the *measured* subgraph CPU as
        // their recompute proxy (the cost-based reuse gate then makes an
        // honest read-vs-recompute decision). This channel is independent
        // of the metadata report below — a lost report orphans the view
        // for later jobs but not for the window.
        if let Some((w, _)) = att
            .window
            .filter(|&(w, slot)| w.producer(precise) == Some(slot))
        {
            let recompute_cpu = plan
                .materialize
                .iter()
                .find(|m| m.precise == precise)
                .map(|m| exec.subgraph_cpu(&plan.physical, m.physical_node))
                .unwrap_or(SimDuration::ZERO);
            w.publish(precise, view.clone(), available_at, recompute_cpu);
        }
        // The stored file's fate: the plan may lose or corrupt it right
        // after publication (readers fall back to recomputation).
        if let Some(inj) = &cv.faults {
            inj.apply_view_fate(&cv.storage, precise, spec.id);
        }
        // The view-side descriptor is the first root with the view's
        // signature; an ineligible root keeps the view tier-1-only.
        let infos = &att.compiled.infos;
        let root = infos.iter().position(|i| i.precise == precise);
        let descriptor = root.and_then(|i| att.descriptor(i).cloned());
        if cv
            .metadata
            .report(
                ReportRequest::new(view, normalized, spec.id, available_at, expires_at)
                    .with_descriptor(descriptor)
                    .for_vc(spec.vc),
            )
            .is_err()
        {
            // Lost report: the file is orphaned (never visible) and the
            // build lock lapses at its mined expiry.
            faults.report_faults += 1;
        }
    }
    Ok(out)
}

/// Step 5 — close the feedback loop: reconcile the run into the workload
/// repository, reusing the template-cache compile's subgraph records and
/// tags instead of re-enumerating the plan.
fn record(
    att: &Attempt<'_>,
    plan: &OptimizedPlan,
    exec: &ExecOutcome,
    sim: &SimOutcome,
) -> Result<()> {
    let (cv, spec) = (att.cv, att.spec);
    if !cv.record_runs {
        return Ok(());
    }
    cv.repo.record_compiled(
        JobIdentity {
            job: spec.id,
            cluster: spec.cluster,
            vc: spec.vc,
            user: spec.user,
            template: spec.template,
            instance: spec.instance,
            submitted_at: att.start,
        },
        &att.compiled.infos,
        &att.compiled.tags,
        plan,
        exec,
        sim,
    )?;
    // Keep the resident analyzer warm: fold the fresh record(s) into its
    // aggregates now, so an analyze_round only re-selects.
    if let Some(analyzer) = &cv.analyzer {
        analyzer.absorb(&cv.repo);
    }
    Ok(())
}

/// One attempt at running a job end to end: lookup → optimize → execute →
/// publish → record, each under a child span of `root` (DESIGN.md §8 —
/// adding a step here adds its span to every job's trace).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_attempt(
    cv: &CloudViews,
    spec: &JobSpec,
    mode: RunMode,
    start: SimTime,
    compiled: &CompiledJob,
    faults: &mut JobFaultReport,
    root: &ActiveSpan,
    window: Option<(&WindowContext, usize)>,
) -> std::result::Result<JobRunReport, AttemptFailure> {
    cv.clock.advance_to(start);
    // An elected producer's window builds must never crowd out the builds
    // its own analyzer annotations would have triggered, so the per-job
    // materialization cap is raised by the number of entries it owes.
    let window_builds = window.map_or(0, |(w, slot)| w.produces_count(slot));
    let att = Attempt {
        cv,
        spec,
        mode,
        start,
        compiled,
        opt_config: OptimizerConfig {
            default_dop: cv.cluster.default_dop,
            max_materialize_per_job: cv.max_materialize_per_job + window_builds,
            enable_reuse: mode == RunMode::CloudViews,
            enable_materialize: mode == RunMode::CloudViews,
            enable_subsumption: cv.subsumption,
            ..Default::default()
        },
        window,
        propose_faults: Cell::new(0),
        descriptors: compiled.infos.iter().map(|_| OnceCell::new()).collect(),
    };
    let mut spans = StepSpans {
        tracer: &cv.telemetry.tracer,
        root,
        cursor: start,
    };

    let span = spans.open("metadata_lookup");
    let looked_up = lookup(&att, faults);
    spans.close(span, looked_up.latency, None);

    let span = spans.open("optimize");
    let (plan, wait) = optimize(&att, &looked_up)?;
    spans.close(span, wait, (!plan.reused.is_empty()).then_some("reuse"));

    let executed_at = spans.cursor;
    let span = spans.open("execute");
    let (plan, exec, sim) = execute(&att, &looked_up.annotations, plan, faults)?;
    spans.close(span, sim.latency, None);

    let span = spans.open("publish");
    let published = publish(&att, &plan, &exec, &sim, executed_at, spans.cursor, faults)?;
    spans.close(span, published.extra_latency, None);

    let span = spans.open("record");
    record(&att, &plan, &exec, &sim)?;
    spans.close(span, SimDuration::ZERO, None);

    Ok(JobRunReport {
        job: spec.id,
        started_at: start,
        latency: spans.cursor - start,
        cpu_time: sim.cpu_time + published.extra_cpu,
        lookup_latency: looked_up.latency,
        views_built: published.views,
        views_reused: plan.reused.iter().map(|r| r.precise).collect(),
        optimizer: plan.report,
        output_checksums: exec
            .outputs
            .iter()
            .map(|(name, t)| (name.clone(), multiset_checksum(t)))
            .collect(),
        output_rows: exec
            .outputs
            .iter()
            .map(|(name, t)| (name.clone(), t.num_rows()))
            .collect(),
        faults: JobFaultReport::default(),
    })
}

/// Options for [`CloudViews::run_many`]. The default (all zeros) means one
/// worker per available core and unbounded admission.
///
/// `benchmark/` builds this struct by literal, which pins all three field
/// names (ROADMAP item 10(c)).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineOptions {
    /// Worker threads. `0` means one per available core (and never more
    /// than the number of jobs).
    pub workers: usize,
    /// Jobs admitted concurrently (the admission-control bound): no more
    /// than this many workers are started. `0` means unbounded.
    pub max_in_flight: usize,
    /// Purge expired metadata ([`crate::MetadataService::purge_expired`]) after
    /// each job, so expired views and the annotation/inverted-index
    /// entries they strand are reclaimed continuously instead of in
    /// stop-the-world purges between batches.
    pub janitor: bool,
}

impl CloudViews {
    /// Runs a batch of jobs on a bounded worker pool — the service-side
    /// driver for concurrent arrivals (Sections 6.4/6.5 at fleet scale).
    ///
    /// Every job is submitted at the same simulated time (the clock's `now`
    /// when the call is made). Workers take jobs in submission order; at
    /// most `max_in_flight` jobs run concurrently. Results come back in
    /// submission order; a job that panics or errors yields its own `Err`
    /// without disturbing the others.
    pub fn run_many(
        &self,
        specs: Vec<JobSpec>,
        mode: RunMode,
        options: PipelineOptions,
    ) -> Vec<Result<JobRunReport>> {
        let start = self.clock.now();
        self.run_many_inner(specs, mode, options, start, None, None)
    }

    /// [`CloudViews::run_many`] with an explicit submission time and an
    /// optional sharing-window coordinator ([`CloudViews::run_windowed`]).
    ///
    /// One dispatch loop: every effective worker — the caller and one
    /// scoped thread per further worker — pulls slots until none is left
    /// and runs each through the one per-job body below. A window changes
    /// only *where the next slot comes from*: its readiness gate instead of
    /// the submission-order counter. The gate is the one thing that orders
    /// a follower behind its producers: a follower is not dispatched until
    /// every entry it follows is published or aborted, so no job waits
    /// inside a worker its producer needs. With one worker the gate hands
    /// out slots in submission order, as the counter does, because every
    /// earlier producer has resolved by then. `compiled`, when given, holds
    /// each slot's template compile (`None` where compiling failed), and
    /// the slot's attempts use it instead of compiling again.
    pub(crate) fn run_many_inner(
        &self,
        specs: Vec<JobSpec>,
        mode: RunMode,
        options: PipelineOptions,
        start: SimTime,
        window: Option<&WindowContext>,
        compiled: Option<&[Option<CompiledJob>]>,
    ) -> Vec<Result<JobRunReport>> {
        let n = specs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = match options.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            workers => workers,
        };
        // A worker runs one job at a time, so admission control is the
        // number of workers started.
        let workers = match options.max_in_flight {
            0 => workers,
            bound => workers.min(bound),
        }
        .clamp(1, n);
        let results: Vec<Mutex<Option<Result<JobRunReport>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // The per-job body — the only place a job runs.
        let run_slot = |slot: usize| {
            let spec = &specs[slot];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let compiled = compiled.and_then(|c| c[slot].as_ref());
                self.run_job(spec, mode, start, window.map(|w| (w, slot)), compiled)
            }));
            // Publish-or-abort, on *every* exit path — success, error, or
            // caught panic: any entry this job still owes is aborted, and
            // the gate releases its followers into the recompute fallback
            // instead of holding them behind a dead producer.
            if let Some(w) = window {
                w.resolve_job(slot);
            }
            let result = outcome.unwrap_or_else(|payload| {
                Err(ScopeError::Execution(format!(
                    "job {} thread panicked: {}",
                    spec.id,
                    panic_message(payload.as_ref())
                )))
            });
            *results[slot].lock().expect("result slot poisoned") = Some(result);
            if options.janitor {
                self.metadata.purge_expired();
            }
        };
        let next = AtomicUsize::new(0);
        // Relaxed: the counter hands out distinct indices and publishes
        // nothing else (`specs` was complete before the scope spawned).
        let next_slot = || match window {
            Some(w) => w.next_ready(),
            None => Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&slot| slot < n),
        };
        // The one dispatch loop. The caller is one of the workers, so a
        // lone worker spawns no thread.
        let worker = || {
            while let Some(slot) = next_slot() {
                run_slot(slot);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(worker);
            }
            worker();
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job produced a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_engine::storage::StorageManager;
    use scope_workload::dists::LogNormal;
    use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};
    use std::sync::Arc;

    fn setup() -> (CloudViews, RecurringWorkload) {
        let workload = RecurringWorkload::generate(WorkloadConfig {
            clusters: vec![ClusterSpec::tiny("pl")],
            seed: 77,
            stream_rows: LogNormal::new(5.8, 0.5, 100.0, 1_200.0),
        })
        .unwrap();
        let storage = Arc::new(StorageManager::new());
        let cv = CloudViews::builder(storage).build();
        (cv, workload)
    }

    #[test]
    fn run_many_matches_submission_order_and_outputs() {
        let (cv, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let jobs = workload.jobs_for_instance(0, 0).unwrap();
        let expected: Vec<_> = jobs.iter().map(|s| s.id).collect();
        let reports = cv.run_many(
            jobs,
            RunMode::Baseline,
            PipelineOptions {
                workers: 3,
                max_in_flight: 2,
                janitor: false,
            },
        );
        let ids: Vec<_> = reports.iter().map(|r| r.as_ref().unwrap().job).collect();
        assert_eq!(ids, expected, "results must come back in submission order");
    }

    #[test]
    fn run_many_single_worker_equals_thread_per_job_aggregates() {
        let (cv_a, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv_a.storage, 1.0)
            .unwrap();
        let jobs = workload.jobs_for_instance(0, 0).unwrap();
        let serial = cv_a.run_many(
            jobs.clone(),
            RunMode::Baseline,
            PipelineOptions {
                workers: 1,
                max_in_flight: 1,
                janitor: false,
            },
        );

        let (cv_b, workload_b) = setup();
        workload_b
            .register_instance_data(0, 0, &cv_b.storage, 1.0)
            .unwrap();
        let wide = cv_b.run_many(jobs, RunMode::Baseline, PipelineOptions::default());

        for (a, b) in serial.iter().zip(&wide) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.job, b.job);
            assert_eq!(a.output_checksums, b.output_checksums);
            assert_eq!(a.latency, b.latency);
        }
    }

    #[test]
    fn run_many_isolates_a_panicking_job() {
        for workers in [1, 2] {
            let (cv, workload) = setup();
            workload
                .register_instance_data(0, 0, &cv.storage, 1.0)
                .unwrap();
            let mut jobs = workload.jobs_for_instance(0, 0).unwrap();
            // Point one job at data that was never registered: it fails alone.
            let broken_slot = jobs.len();
            jobs.push(workload.jobs_for_instance(0, 1).unwrap().remove(0));
            let results = cv.run_many(
                jobs,
                RunMode::Baseline,
                PipelineOptions {
                    workers,
                    max_in_flight: 0,
                    janitor: false,
                },
            );
            let failed: Vec<usize> = (0..results.len())
                .filter(|&slot| results[slot].is_err())
                .collect();
            assert_eq!(
                failed,
                vec![broken_slot],
                "workers={workers}: exactly the broken job fails, in its own slot"
            );
        }
    }

    #[test]
    fn janitor_leaves_no_expired_view_at_any_worker_count() {
        // `janitor: true` purges after every finished job, whichever worker
        // ran it: a batch leaves no expired view behind.
        for workers in [1, 3] {
            let (cv, workload) = setup();
            let mut jobs = Vec::new();
            for instance in 0..2 {
                workload
                    .register_instance_data(0, instance, &cv.storage, 1.0)
                    .unwrap();
                jobs.extend(workload.jobs_for_instance(0, instance).unwrap());
            }
            for i in 0..64u64 {
                cv.metadata.register(ReportRequest::new(
                    scope_engine::optimizer::AvailableView {
                        precise: scope_common::sip128(&i.to_le_bytes()),
                        rows: 1,
                        bytes: 1,
                        props: scope_plan::PhysicalProps::any(),
                    },
                    Sig128::ZERO,
                    JobId::new(i),
                    SimTime::ZERO,
                    SimTime::ZERO, // already expired
                ));
            }
            assert_eq!(cv.metadata.num_views(), 64);
            let reports = cv.run_many(
                jobs,
                RunMode::Baseline,
                PipelineOptions {
                    workers,
                    max_in_flight: 0,
                    janitor: true,
                },
            );
            assert!(reports.iter().all(|r| r.is_ok()));
            assert_eq!(cv.metadata.num_views(), 0, "workers={workers}");
        }
    }

    #[test]
    fn admission_bound_never_exceeded() {
        // With max_in_flight=1 the pipeline serializes: total lookups and
        // job counts still match, and nothing deadlocks.
        let (cv, workload) = setup();
        workload
            .register_instance_data(0, 0, &cv.storage, 1.0)
            .unwrap();
        let jobs = workload.jobs_for_instance(0, 0).unwrap();
        let n = jobs.len();
        let reports = cv.run_many(
            jobs,
            RunMode::CloudViews,
            PipelineOptions {
                workers: 4,
                max_in_flight: 1,
                janitor: false,
            },
        );
        assert_eq!(reports.len(), n);
        assert!(reports.iter().all(|r| r.is_ok()));
        assert_eq!(cv.metadata.stats().lookups, n as u64);
    }
}
