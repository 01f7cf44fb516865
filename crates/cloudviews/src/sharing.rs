//! In-flight work sharing: a window coordinator in front of `run_many`.
//!
//! The paper's runtime only reuses *materialized* views, so the daily
//! analyzer loop is structurally too late for bursty, overlapping arrivals:
//! every job in a wave recomputes the common subgraph because the view it
//! would reuse does not exist yet (and, since PR 7, a job pinned at its
//! submission time can never see a view published mid-wave). The Oracle
//! "Real-Time Analytics by Coordinating Reuse and Work Sharing" observation
//! is that coordinating the *concurrent* jobs themselves captures this
//! reuse.
//!
//! [`CloudViews::run_windowed`] batches arrivals into fixed admission
//! windows. Within one window the coordinator:
//!
//! 1. **groups** every job's enumerated subgraphs by precise signature
//!    (byte-equal results), keeps the groups spanning at least two distinct
//!    jobs, and keeps per job only the maximal ones (a shared root inside
//!    another shared root of the same plan is served by the larger one);
//! 2. **elects exactly one producer** per surviving subgraph — always the
//!    *earliest* job in submission order, so every follower edge points from
//!    a later job to an earlier producer;
//! 3. **synthesizes window annotations** so the ordinary optimizer hooks do
//!    the rest: the producer's annotation drives a follow-up
//!    materialization (real metadata propose, pinned at the shared
//!    submission time), and each follower's tier-1 reuse is served from the
//!    window's own publish channel — the metadata service stays pinned and
//!    never has to "see into the future";
//! 4. **publishes or aborts** every entry: a producer that completes
//!    without publishing (panic, injected crash, degraded fallback, reuse
//!    of a view covering the entry) aborts its pending entries, and their
//!    followers recompute. An entry whose view already exists at the
//!    window's submission time starts published with that view. There are
//!    no timeouts anywhere on this path.
//!
//! All jobs in one window share a single pinned submission time (the
//! window's close), so the PR-6/PR-7 visibility discipline holds verbatim:
//! lookups, proposes, and reports are all judged at that one instant.
//!
//! One mechanism orders a follower behind its producers, the readiness
//! gate (`WindowContext::next_ready`): a follower is not dispatched until
//! every entry it follows is resolved (published or aborted), so no job
//! ever waits inside a worker; with one worker it dispatches in
//! submission order. Progress is guaranteed because the earliest
//! undispatched job only follows entries owned by strictly earlier jobs,
//! all of which are already dispatched. A lookup never blocks: an
//! entry that is not published answers "recompute", so were the gate ever
//! bypassed, outputs would stay byte-identical and only reuse would be lost.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use scope_common::hash::Sig128;
use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_engine::job::JobSpec;
use scope_engine::optimizer::{Annotation, AvailableView};
use scope_plan::OpKind;
use scope_signature::{CompiledJob, SubgraphInfo};

use crate::metadata::MetadataService;
use crate::pipeline::PipelineOptions;
use crate::runtime::{CloudViews, JobRunReport, RunMode};

/// One job plus its arrival offset within a [`CloudViews::run_windowed`]
/// batch (relative to the batch's simulated start).
#[derive(Debug)]
pub struct JobArrival {
    /// The job to run.
    pub spec: JobSpec,
    /// Arrival offset from the batch start; decides the admission window.
    pub offset: SimDuration,
}

/// Configuration of the sharing coordinator.
#[derive(Clone, Debug)]
pub struct SharingConfig {
    /// Master switch; when false, `run_windowed` still batches arrivals
    /// into windows (same pinned submission times) but never coordinates —
    /// the views-only baseline for apples-to-apples comparison.
    pub enabled: bool,
    /// Length of the admission window. Jobs arriving within the same window share
    /// one pinned submission time: the window's close.
    pub window: SimDuration,
}

/// Minimum distinct jobs that must contain a subgraph before it is worth
/// electing a producer.
const MIN_SHARING_JOBS: usize = 2;

/// TTL stamped on views materialized through window annotations (the
/// analyzer's mined TTL is not available for never-before-seen templates).
const WINDOW_VIEW_TTL: SimDuration = SimDuration::from_secs(86_400);

/// Recompute-cost estimate used in synthesized annotations until the
/// producer publishes its measured subgraph CPU.
const UNMEASURED_RECOMPUTE_CPU: SimDuration = SimDuration::from_secs(30);

impl Default for SharingConfig {
    fn default() -> SharingConfig {
        SharingConfig {
            enabled: true,
            window: SimDuration::from_secs(30),
        }
    }
}

/// Lifecycle of one shared subgraph within a window. Publish-or-abort:
/// every entry reaches `Published` or `Aborted` before its window's last
/// job completes — followers never depend on a timeout. An entry whose
/// view already exists when the window is planned starts `Published`.
enum ShareState {
    /// Producer elected, output not available yet.
    Pending,
    /// The producer's early-materialized view, or a view that already
    /// existed when the window was planned, is readable.
    Published {
        view: AvailableView,
        available_at: SimTime,
        /// The producer's *measured* CPU of computing the subgraph — the
        /// honest recompute proxy for followers' cost-based reuse gates.
        recompute_cpu: SimDuration,
    },
    /// The producer finished without publishing (crash, fallback, reuse of
    /// a view covering the entry); followers recompute.
    Aborted,
}

/// One elected shared subgraph.
pub(crate) struct SharedEntry {
    /// Slot (submission-order index within the window) of the producer.
    pub producer: usize,
    /// Normalized signature (the synthesized annotation's key).
    pub normalized: Sig128,
    /// Delivered physical properties at the subgraph root (the mined-design
    /// stand-in for the synthesized annotation).
    pub props: std::sync::Arc<scope_plan::PhysicalProps>,
    /// Distinct jobs containing the subgraph.
    pub group_jobs: usize,
}

/// The per-window coordinator state. Built once per admission window by
/// [`WindowContext::plan`]; shared read-only by the window's workers, with
/// entry lifecycles behind one mutex.
pub(crate) struct WindowContext {
    submitted_at: SimTime,
    entries: HashMap<Sig128, SharedEntry>,
    /// Per slot: entries this job awaits (it is a follower).
    follows: Vec<Vec<Sig128>>,
    /// Per slot: entries this job must publish-or-abort (it is producer).
    produces: Vec<Vec<Sig128>>,
    states: Mutex<HashMap<Sig128, ShareState>>,
    /// Undispatched slots, in submission order.
    dispatch: Mutex<Vec<usize>>,
    /// Wakes workers parked in [`WindowContext::next_ready`].
    dispatch_ready: Condvar,
    /// One accounting pass per slot (builder-crash restarts re-run the
    /// optimize stage; only the first pass counts).
    noted: Vec<AtomicBool>,
    /// The window's outcome, counted as it happens and read once by
    /// [`CloudViews::run_windowed`] after the window's last job.
    tally: Mutex<SharingSummary>,
}

/// Locks a window mutex. Poisoning is recovered, never propagated: the
/// guarded sections cannot themselves panic, so a panicking job unwinding
/// through the pool must not take the whole window down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WindowContext {
    /// Plans one window: group → keep the maximal → elect → wire the
    /// follower edges. Returns `None` when nothing is shareable (the window
    /// then runs exactly like a plain `run_many` batch).
    ///
    /// `compiled[slot]` is `None` for jobs whose plan failed to compile;
    /// they run (and fail) normally but never participate in sharing.
    ///
    /// An entry whose view `metadata` already serves at `submitted_at`
    /// (built by an earlier window or job) starts `Published` with that
    /// view, available at once: its followers are held for nothing and
    /// charged no wait, and read the very view the pinned metadata service
    /// would give them.
    pub(crate) fn plan(
        specs: &[JobSpec],
        compiled: &[Option<CompiledJob>],
        max_elect_per_job: usize,
        submitted_at: SimTime,
        metadata: &MetadataService,
    ) -> Option<WindowContext> {
        let n = specs.len();
        let jobs = || {
            let compiled = compiled.iter().enumerate();
            compiled.filter_map(|(slot, c)| Some((slot, c.as_ref()?)))
        };

        // Exact grouping: sharing requires byte-identical results, so
        // candidate subgraphs group by precise signature, and only those in
        // at least two distinct jobs survive.
        let mut by_precise: HashMap<Sig128, (&SubgraphInfo, BTreeSet<usize>)> = HashMap::new();
        for (slot, c) in jobs() {
            let eligible = c.infos.iter().filter(|i| {
                i.num_nodes >= 2 && !matches!(i.root_kind, OpKind::Output | OpKind::Write)
            });
            for info in eligible {
                let group = by_precise.entry(info.precise);
                group.or_insert((info, BTreeSet::new())).1.insert(slot);
            }
        }
        by_precise.retain(|_, (_, slots)| slots.len() >= MIN_SHARING_JOBS);

        // Maximality: per job, a shared root contained in another shared
        // root of the same plan is served transitively by the larger one.
        // Regrouped over the maximal roots, a subgraph still needs two jobs.
        let mut groups: BTreeMap<Sig128, BTreeSet<usize>> = BTreeMap::new();
        for (slot, c) in jobs() {
            let roots: Vec<_> = c
                .infos
                .iter()
                .filter(|i| by_precise.contains_key(&i.precise))
                .map(|i| (i.root, i.precise))
                .collect();
            for &(root, precise) in &roots {
                let contained = roots.iter().any(|&(other, _)| {
                    other != root
                        && specs[slot]
                            .graph
                            .subgraph_nodes(other)
                            .is_ok_and(|nodes| nodes.contains(&root))
                });
                if !contained {
                    groups.entry(precise).or_default().insert(slot);
                }
            }
        }
        groups.retain(|_, slots| slots.len() >= MIN_SHARING_JOBS);

        // Elect producers, biggest subgraphs first (deterministic: BTreeMap
        // order breaks ties).
        let mut order: Vec<(&Sig128, &BTreeSet<usize>)> = groups.iter().collect();
        order.sort_by_key(|(sig, _)| (std::cmp::Reverse(by_precise[sig].0.num_nodes), **sig));
        let cap = max_elect_per_job.max(1);
        let mut entries: HashMap<Sig128, SharedEntry> = HashMap::new();
        let mut follows: Vec<Vec<Sig128>> = vec![Vec::new(); n];
        let mut produces: Vec<Vec<Sig128>> = vec![Vec::new(); n];
        let mut tally = SharingSummary {
            windows: 1,
            jobs: n,
            ..SharingSummary::default()
        };
        for (sig, slots) in order {
            // The earliest containing job produces; electing anyone later
            // would point a follower edge backwards, and the readiness gate
            // could then hold every undispatched job at once.
            let producer = *slots.first().expect("non-empty group");
            if produces[producer].len() >= cap {
                continue;
            }
            let info = by_precise[sig].0;
            produces[producer].push(*sig);
            for &slot in slots.iter().skip(1) {
                follows[slot].push(*sig);
            }
            tally.shared_subgraphs += 1;
            tally.shared_nodes += info.num_nodes;
            entries.insert(
                *sig,
                SharedEntry {
                    producer,
                    normalized: info.normalized,
                    props: info.props.clone(),
                    group_jobs: slots.len(),
                },
            );
        }
        if entries.is_empty() {
            return None;
        }

        let states = entries
            .keys()
            .map(|&sig| {
                let state = match metadata.view_available_at(sig, submitted_at) {
                    Some(view) => ShareState::Published {
                        view,
                        available_at: submitted_at,
                        recompute_cpu: UNMEASURED_RECOMPUTE_CPU,
                    },
                    None => ShareState::Pending,
                };
                (sig, state)
            })
            .collect();
        Some(WindowContext {
            submitted_at,
            entries,
            follows,
            produces,
            states: Mutex::new(states),
            dispatch: Mutex::new((0..n).collect()),
            dispatch_ready: Condvar::new(),
            noted: (0..n).map(|_| AtomicBool::new(false)).collect(),
            tally: Mutex::new(tally),
        })
    }

    /// Appends synthesized window annotations for every entry `slot`
    /// produces or follows whose normalized signature the metadata lookup
    /// did not already cover. A published entry carries the producer's
    /// measured recompute CPU and stored size; a pending/aborted one falls
    /// back to the configured estimate.
    pub(crate) fn extend_annotations(&self, slot: usize, annotations: &mut Vec<Annotation>) {
        let states = lock(&self.states);
        for sig in self.produces[slot].iter().chain(&self.follows[slot]) {
            let entry = &self.entries[sig];
            if annotations.iter().any(|a| a.normalized == entry.normalized) {
                continue;
            }
            let (avg_cpu, avg_rows, avg_bytes) = match states.get(sig) {
                Some(ShareState::Published {
                    view,
                    recompute_cpu,
                    ..
                }) => (*recompute_cpu, view.rows, view.bytes),
                _ => (UNMEASURED_RECOMPUTE_CPU, 0, 0),
            };
            annotations.push(Annotation {
                normalized: entry.normalized,
                props: (*entry.props).clone(),
                ttl: WINDOW_VIEW_TTL,
                avg_cpu,
                avg_rows,
                avg_bytes,
            });
        }
    }

    /// The window-side view oracle consulted before the pinned metadata
    /// service: a published entry's view, for every slot but its producer.
    /// Anything else answers `None` at once, and the caller asks the pinned
    /// service (recompute, unless a pre-existing view matches). Nothing here
    /// waits: the readiness gate holds a follower until its entries resolve.
    pub(crate) fn lookup_view(&self, slot: usize, precise: Sig128) -> Option<AvailableView> {
        if self.producer(precise)? == slot {
            return None;
        }
        match lock(&self.states).get(&precise) {
            Some(ShareState::Published { view, .. }) => Some(view.clone()),
            _ => None,
        }
    }

    /// The slot elected to produce `precise`, when it is a window entry.
    /// Only that slot proposes to build the subgraph or publishes it; the
    /// others never compete for its build lock, even after an abort (it can
    /// be built in a later window instead).
    pub(crate) fn producer(&self, precise: Sig128) -> Option<usize> {
        self.entries.get(&precise).map(|e| e.producer)
    }

    /// Entries `slot` was elected to produce (the optimizer's
    /// materialization cap is raised by this much so window builds never
    /// crowd out the job's own analyzer-mined builds).
    pub(crate) fn produces_count(&self, slot: usize) -> usize {
        self.produces[slot].len()
    }

    /// The producer's publish of `precise` (the caller is its
    /// [`producer`](WindowContext::producer)): `Pending → Published`, then
    /// a poke of the readiness gate. Idempotent (a builder-crash restart
    /// that already published a view before dying must not regress the
    /// state).
    pub(crate) fn publish(
        &self,
        precise: Sig128,
        view: AvailableView,
        available_at: SimTime,
        recompute_cpu: SimDuration,
    ) {
        if let Some(state @ ShareState::Pending) = lock(&self.states).get_mut(&precise) {
            *state = ShareState::Published {
                view,
                available_at,
                recompute_cpu,
            };
            lock(&self.tally).published += 1;
        }
        self.poke_dispatch();
    }

    /// Job-completion hook — called for *every* terminal outcome (success,
    /// error, caught panic). Any entry this slot still owes is aborted, so
    /// the gate releases its followers into the recompute fallback. This is
    /// the publish-or-abort guarantee: no follower is held past its
    /// producer's end.
    pub(crate) fn resolve_job(&self, slot: usize) {
        let mut states = lock(&self.states);
        for sig in &self.produces[slot] {
            if let Some(state @ ShareState::Pending) = states.get_mut(sig) {
                *state = ShareState::Aborted;
                lock(&self.tally).aborted += 1;
            }
        }
        drop(states);
        self.poke_dispatch();
    }

    /// Serializes with the check-then-wait in [`WindowContext::next_ready`]
    /// (lock, drop, notify), so a state change can never slip between a
    /// parked worker's readiness scan and its wait.
    fn poke_dispatch(&self) {
        drop(lock(&self.dispatch));
        self.dispatch_ready.notify_all();
    }

    /// The readiness gate: pops the next dispatchable slot, blocking while
    /// every undispatched job still follows a pending entry. Returns `None`
    /// when the window is fully dispatched.
    ///
    /// Deadlock-freedom: the earliest undispatched slot only follows
    /// entries produced by strictly earlier slots (producers are always the
    /// earliest job of their group), and those are all dispatched; each
    /// dispatched job terminates (panic-isolated) and resolves its entries,
    /// which pokes this condvar.
    pub(crate) fn next_ready(&self) -> Option<usize> {
        let mut queue = lock(&self.dispatch);
        loop {
            if queue.is_empty() {
                return None;
            }
            let pos = {
                let states = lock(&self.states);
                queue.iter().position(|&slot| {
                    self.follows[slot]
                        .iter()
                        .all(|sig| !matches!(states.get(sig), Some(ShareState::Pending)))
                })
            };
            if let Some(pos) = pos {
                return Some(queue.remove(pos));
            }
            queue = self
                .dispatch_ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Accounting after a slot's optimize stage: counts follower reuse hits
    /// vs. fallbacks and returns the simulated wait to charge this attempt
    /// (time from the shared submission instant until the last reused entry
    /// became available). Hit/fallback counts and the wait are tallied
    /// once per slot; the latency charge applies to every attempt (a
    /// restarted follower re-waits in simulated time).
    pub(crate) fn note_optimized(&self, slot: usize, reused: &[Sig128]) -> SimDuration {
        let follows = &self.follows[slot];
        let mut wait_total = SimDuration::ZERO;
        let mut hits = 0;
        let states = lock(&self.states);
        for sig in follows.iter().filter(|sig| reused.contains(sig)) {
            hits += 1;
            if let Some(ShareState::Published { available_at, .. }) = states.get(sig) {
                if *available_at > self.submitted_at {
                    wait_total = wait_total.max(*available_at - self.submitted_at);
                }
            }
        }
        drop(states);
        if !self.noted[slot].swap(true, Ordering::Relaxed) {
            let mut tally = lock(&self.tally);
            tally.follower_reuses += hits;
            tally.follower_fallbacks += follows.len() as u64 - hits;
            if wait_total > SimDuration::ZERO {
                tally.waits.push(wait_total);
            }
        }
        wait_total
    }
}

/// Aggregate coordinator outcome across every window of one
/// [`CloudViews::run_windowed`] call. Each coordinated window counts its own
/// as its jobs run, and the call folds it in once the window is done.
#[derive(Clone, Debug, Default)]
pub struct SharingSummary {
    /// Windows in which the coordinator was active (elected ≥ 1 entry).
    pub windows: usize,
    /// Jobs that ran inside coordinated windows.
    pub jobs: usize,
    /// Shared subgraphs elected (one producer each).
    pub shared_subgraphs: usize,
    /// Total plan nodes covered by the elected shared subgraphs (a size
    /// proxy: electing three 5-node aggregations shares more work than
    /// three 2-node filters).
    pub shared_nodes: usize,
    /// Entries whose producer published an early-materialized view.
    /// Like `aborted`, this counts producer outcomes only: an entry whose
    /// view already existed when its window was planned starts published
    /// and is counted in neither.
    pub published: usize,
    /// Entries whose producer finished without publishing (crashed,
    /// degraded, or built nothing for the entry).
    pub aborted: usize,
    /// Follower attempts that reused a window entry.
    pub follower_reuses: u64,
    /// Follower attempts that fell back to recompute.
    pub follower_fallbacks: u64,
    /// Per-follower simulated waits for a producer's publication.
    pub waits: Vec<SimDuration>,
}

impl SharingSummary {
    /// p99 of the recorded follower waits (zero when none were recorded).
    pub fn wait_p99(&self) -> SimDuration {
        if self.waits.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.waits.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// The result of one windowed batch: per-job reports in input order plus
/// the coordinator's aggregate summary.
#[derive(Debug)]
pub struct WindowOutcome {
    /// One result per input arrival, in input order.
    pub reports: Vec<Result<JobRunReport>>,
    /// What the coordinator did across all windows.
    pub sharing: SharingSummary,
}

impl CloudViews {
    /// Runs a batch of arrivals through fixed admission windows with the
    /// in-flight sharing coordinator in front of the worker pool.
    ///
    /// Jobs arriving within the same [`SharingConfig::window`] are batched
    /// and submitted together at the window's close — one shared pinned
    /// submission time, exactly like a `run_many` wave. With sharing
    /// enabled (and `mode == CloudViews`), common subgraphs across the
    /// window's jobs get exactly one producer; the other jobs await its
    /// early-materialized output and reuse it, falling back to recompute
    /// if the producer fails. Outputs are byte-identical to an uncoordinated
    /// run either way.
    pub fn run_windowed(
        &self,
        arrivals: Vec<JobArrival>,
        mode: RunMode,
        options: PipelineOptions,
        cfg: &SharingConfig,
    ) -> WindowOutcome {
        let n = arrivals.len();
        let mut summary = SharingSummary::default();
        if n == 0 {
            return WindowOutcome {
                reports: Vec::new(),
                sharing: summary,
            };
        }
        let window_len = SimDuration::from_micros(cfg.window.micros().max(1));
        let base = self.clock.now();

        // Bucket arrivals into admission windows, preserving input order
        // within each bucket.
        let mut buckets: BTreeMap<u64, Vec<(usize, JobSpec)>> = BTreeMap::new();
        for (idx, arrival) in arrivals.into_iter().enumerate() {
            let k = arrival.offset.micros() / window_len.micros();
            buckets.entry(k).or_default().push((idx, arrival.spec));
        }

        let mut slots: Vec<Option<Result<JobRunReport>>> = (0..n).map(|_| None).collect();
        for (k, batch) in buckets {
            // Every job in the bucket is submitted at the window's close —
            // the single pinned instant all its metadata traffic is judged
            // at.
            let submit = base + SimDuration::from_micros(window_len.micros().saturating_mul(k + 1));
            let (idxs, specs): (Vec<usize>, Vec<JobSpec>) = batch.into_iter().unzip();

            // A sharing window compiles its jobs to plan, and each job's
            // attempts reuse that compile instead of making their own.
            let compiled: Option<Vec<Option<CompiledJob>>> =
                (cfg.enabled && mode == RunMode::CloudViews && specs.len() >= 2).then(|| {
                    let compile = |s: &JobSpec| self.templates.compile(&s.graph).ok();
                    specs.iter().map(compile).collect()
                });
            let window = compiled.as_ref().and_then(|compiled| {
                let cap = self.max_materialize_per_job;
                WindowContext::plan(&specs, compiled, cap, submit, &self.metadata)
            });

            let results = self.run_many_inner(
                specs,
                mode,
                options,
                submit,
                window.as_ref(),
                compiled.as_deref(),
            );

            if let Some(w) = &window {
                self.tally_window(w, &mut summary);
            }

            for (idx, result) in idxs.into_iter().zip(results) {
                slots[idx] = Some(result);
            }
        }

        WindowOutcome {
            reports: slots
                .into_iter()
                .map(|r| r.expect("every arrival produced a result"))
                .collect(),
            sharing: summary,
        }
    }

    /// Reads a finished window's tally once: records it on the
    /// `cv_sharing_*` series and folds it into the run's summary.
    fn tally_window(&self, w: &WindowContext, run: &mut SharingSummary) {
        let s = lock(&w.tally);
        let m = self.sharing_metrics();
        m.windows.add(s.windows as u64);
        m.window_jobs.add(s.jobs as u64);
        m.window_size.record(s.jobs as u64);
        m.shared_subgraphs.add(s.shared_subgraphs as u64);
        m.published.add(s.published as u64);
        m.aborts.add(s.aborted as u64);
        m.follower_reuses.add(s.follower_reuses);
        m.follower_fallbacks.add(s.follower_fallbacks);
        for entry in w.entries.values() {
            m.group_size.record(entry.group_jobs as u64);
        }
        for wait in &s.waits {
            m.wait.record(wait.micros());
        }
        run.windows += s.windows;
        run.jobs += s.jobs;
        run.shared_subgraphs += s.shared_subgraphs;
        run.shared_nodes += s.shared_nodes;
        run.published += s.published;
        run.aborted += s.aborted;
        run.follower_reuses += s.follower_reuses;
        run.follower_fallbacks += s.follower_fallbacks;
        run.waits.extend_from_slice(&s.waits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::ids::{ClusterId, DatasetId, JobId, NodeId, TemplateId, UserId, VcId};
    use scope_plan::expr::AggFunc;
    use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, Schema};
    use scope_signature::TemplateCache;
    use std::time::Duration;

    fn kv_schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
    }

    fn spec(id: u64, graph: scope_plan::QueryGraph) -> JobSpec {
        JobSpec {
            id: JobId::new(id),
            cluster: ClusterId::new(1),
            vc: VcId::new(1),
            user: UserId::new(1),
            template: TemplateId::new(id),
            instance: 0,
            graph,
        }
    }

    /// scan → filter(v >= @min) → `agg` per k over dataset `ds`. The
    /// dataset and `@min` are recurring deltas: one template per `agg`, and
    /// a precise signature per `(ds, min, agg)`.
    type Subgraph = (u64, i64, AggFunc);

    fn aggregated(b: &mut PlanBuilder, (ds, min, agg): Subgraph) -> NodeId {
        let s = b.table_scan(DatasetId::new(ds), "shared/2024-01-01/x.ss", kv_schema());
        let f = b.filter(s, Expr::col(1).ge(Expr::param("@min", min)));
        b.aggregate(f, vec![0], vec![AggExpr::new("n", agg, 1)])
    }

    /// A job with one output per subgraph.
    fn job_of(id: u64, subgraphs: &[Subgraph]) -> JobSpec {
        let mut b = PlanBuilder::new();
        for (i, &subgraph) in subgraphs.iter().enumerate() {
            let a = aggregated(&mut b, subgraph);
            b.output(a, format!("out-{id}-{i}"));
        }
        spec(id, b.build().unwrap())
    }

    /// Identical across calls, so the precise signatures match job to job.
    fn shared_job(id: u64, _out: &str) -> JobSpec {
        job_of(id, &[(7, 5, AggFunc::Count)])
    }

    fn distinct_job(id: u64) -> JobSpec {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(
            DatasetId::new(100 + id),
            format!("solo/{id}/y.ss"),
            kv_schema(),
        );
        let f = b.filter(s, Expr::col(1).ge(Expr::lit(id as i64)));
        spec(id, b.output(f, format!("solo-{id}")).build().unwrap())
    }

    fn compile_all(specs: &[JobSpec]) -> Vec<Option<CompiledJob>> {
        let cache = TemplateCache::new();
        specs.iter().map(|s| cache.compile(&s.graph).ok()).collect()
    }

    fn plan(specs: &[JobSpec]) -> Option<WindowContext> {
        let metadata = MetadataService::new(Default::default(), 1);
        WindowContext::plan(specs, &compile_all(specs), 1, SimTime::ZERO, &metadata)
    }

    /// `(precise, normalized)` of a one-subgraph `job_of`'s aggregate.
    fn aggregate_root(compiled: &Option<CompiledJob>) -> (Sig128, Sig128) {
        let infos = &compiled.as_ref().unwrap().infos;
        let mut aggs = infos
            .iter()
            .filter(|i| matches!(i.root_kind, OpKind::HashGbAgg | OpKind::StreamGbAgg));
        let agg = aggs.next().expect("one aggregate");
        assert!(aggs.next().is_none(), "exactly one aggregate");
        (agg.precise, agg.normalized)
    }

    #[test]
    fn plan_elects_earliest_producer_per_shared_subgraph() {
        let specs = vec![
            distinct_job(1),
            shared_job(2, "b"),
            shared_job(3, "c"),
            shared_job(4, "d"),
        ];
        let w = plan(&specs).expect("shareable");
        // One maximal shared subgraph (the aggregate); producer is slot 1
        // (the earliest shared job), slots 2 and 3 follow.
        assert_eq!(w.entries.len(), 1);
        let (sig, entry) = w.entries.iter().next().unwrap();
        assert_eq!(entry.producer, 1);
        assert_eq!(entry.group_jobs, 3);
        assert!(w.produces[1].contains(sig));
        assert!(w.follows[2].contains(sig) && w.follows[3].contains(sig));
        assert!(w.follows[0].is_empty() && w.produces[0].is_empty());
        // The entry is the *maximal* shared root: its subgraph spans scan +
        // filter + aggregate, not the smaller filter subgraph.
        assert_eq!(lock(&w.tally).shared_nodes, 3);

        // One template with different constants: equal normalized, different
        // precise signatures, and nothing to share.
        let (count_5, count_6) = ((7, 5, AggFunc::Count), (7, 6, AggFunc::Count));
        let specs = vec![job_of(1, &[count_5]), job_of(2, &[count_6])];
        let compiled = compile_all(&specs);
        let roots: Vec<_> = compiled.iter().map(aggregate_root).collect();
        assert_eq!(roots[0].1, roots[1].1, "one template");
        assert_ne!(roots[0].0, roots[1].0, "different constants");
        assert!(plan(&specs).is_none());

        // Three jobs, two of which share a precise subgraph (the third is
        // the same template with another constant): one entry of two jobs.
        let specs = vec![
            job_of(1, &[count_5]),
            job_of(2, &[count_6]),
            job_of(3, &[count_5]),
        ];
        let w = plan(&specs).expect("slots 0 and 2 share");
        assert_eq!(w.entries.len(), 1);
        let (sig, entry) = w.entries.iter().next().unwrap();
        assert_eq!((entry.producer, entry.group_jobs), (0, 2));
        assert_eq!(w.follows, vec![vec![], vec![], vec![*sig]]);

        // A chain: slot 0 produces A; slot 1 follows A and produces C, a
        // disjoint second subgraph; slot 2 follows C.
        let (a, c) = (count_5, (8, 500, AggFunc::Sum));
        let specs = vec![job_of(1, &[a]), job_of(2, &[a, c]), job_of(3, &[c])];
        let compiled = compile_all(&specs);
        let (sig_a, sig_c) = (
            aggregate_root(&compiled[0]).0,
            aggregate_root(&compiled[2]).0,
        );
        let w = plan(&specs).expect("two entries");
        assert_eq!(w.entries.len(), 2);
        assert_eq!((w.producer(sig_a), w.producer(sig_c)), (Some(0), Some(1)));
        assert_eq!(w.produces, vec![vec![sig_a], vec![sig_c], vec![]]);
        assert_eq!(w.follows, vec![vec![], vec![sig_a], vec![sig_c]]);
        assert!(w.entries.values().all(|e| e.group_jobs == 2));
    }

    #[test]
    fn plan_returns_none_without_overlap() {
        let specs = vec![distinct_job(1), distinct_job(2), distinct_job(3)];
        assert!(plan(&specs).is_none());
    }

    fn published_view(precise: Sig128) -> AvailableView {
        AvailableView {
            precise,
            rows: 10,
            bytes: 100,
            props: scope_plan::PhysicalProps::any(),
        }
    }

    #[test]
    fn a_pending_entry_answers_none_and_the_gate_holds_its_followers() {
        for publish in [true, false] {
            let specs = vec![shared_job(1, "a"), shared_job(2, "b")];
            let w = plan(&specs).unwrap();
            let sig = *w.entries.keys().next().unwrap();
            // The producer dispatches at once; the follower's lookup of the
            // still-pending entry answers "recompute" without blocking.
            assert_eq!(w.next_ready(), Some(0));
            assert!(w.lookup_view(1, sig).is_none());
            // The gate holds the follower until the producer resolves the
            // entry, by publishing or by aborting.
            std::thread::scope(|scope| {
                let (tx, rx) = std::sync::mpsc::channel();
                let gate = &w;
                scope.spawn(move || tx.send(gate.next_ready()).unwrap());
                let early = rx.recv_timeout(Duration::from_millis(50));
                assert!(early.is_err(), "the gate let a follower pass early");
                if publish {
                    let at = SimTime::ZERO + SimDuration::from_secs(3);
                    w.publish(sig, published_view(sig), at, SimDuration::from_secs(9));
                } else {
                    w.resolve_job(0);
                }
                assert_eq!(rx.recv().unwrap(), Some(1));
            });
            assert_eq!(w.lookup_view(1, sig).is_some(), publish);
            // The producer never reads its own entry from the window.
            assert!(w.lookup_view(0, sig).is_none());
            assert!(w.next_ready().is_none());
            let tally = lock(&w.tally);
            assert_eq!(
                (tally.published, tally.aborted),
                (publish as usize, !publish as usize)
            );
        }
    }

    #[test]
    fn publish_serves_followers_and_charges_wait() {
        let specs = vec![shared_job(1, "a"), shared_job(2, "b")];
        let w = plan(&specs).unwrap();
        let sig = *w.entries.keys().next().unwrap();
        let at = SimTime::ZERO + SimDuration::from_secs(3);
        w.publish(sig, published_view(sig), at, SimDuration::from_secs(9));
        assert_eq!(w.lookup_view(1, sig).map(|v| v.rows), Some(10));
        // A second publish (a restarted producer) leaves the first in place.
        w.publish(sig, published_view(sig), at, SimDuration::from_secs(1));
        assert_eq!(lock(&w.tally).published, 1);
        // The synthesized annotation now carries the measured recompute.
        let mut annotations = Vec::new();
        w.extend_annotations(1, &mut annotations);
        assert_eq!(annotations.len(), 1);
        assert_eq!(annotations[0].avg_cpu, SimDuration::from_secs(9));
        // Reusing the entry charges the publish wait exactly once in the
        // tally but on every accounting call.
        let wait = w.note_optimized(1, &[sig]);
        assert_eq!(wait, SimDuration::from_secs(3));
        assert_eq!(lock(&w.tally).follower_reuses, 1);
        let again = w.note_optimized(1, &[sig]);
        assert_eq!(again, wait);
        assert_eq!(lock(&w.tally).follower_reuses, 1);
        assert_eq!(lock(&w.tally).waits.len(), 1);
    }

    #[test]
    fn only_window_entries_have_a_producer() {
        let specs = vec![shared_job(1, "a"), shared_job(2, "b")];
        let w = plan(&specs).unwrap();
        let sig = *w.entries.keys().next().unwrap();
        assert_eq!(w.producer(sig), Some(0));
        assert_eq!(w.producer(Sig128::new(1, 2)), None);
    }
}
