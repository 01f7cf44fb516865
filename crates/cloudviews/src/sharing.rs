//! In-flight work sharing: a window coordinator in front of `run_many`.
//!
//! The paper's runtime only reuses *materialized* views, so the daily
//! analyzer loop is structurally too late for bursty, overlapping arrivals:
//! every job in a wave recomputes the common subgraph because the view it
//! would reuse does not exist yet (and, since PR 7, a job pinned at its
//! submission time can never see a view published mid-wave). The Oracle
//! "Real-Time Analytics by Coordinating Reuse and Work Sharing" observation
//! is that coordinating the *concurrent* jobs themselves captures this
//! reuse; GEqO's staged-filter discipline keeps the coordination cheap.
//!
//! [`CloudViews::run_windowed`] batches arrivals into fixed admission
//! windows. Within one window the coordinator:
//!
//! 1. **groups** every job's enumerated subgraphs by normalized signature
//!    (the cheap structural filter), then by precise signature (byte-equal
//!    results) — only groups spanning at least two distinct jobs survive;
//! 2. **elects exactly one producer** per surviving subgraph — always the
//!    *earliest* job in submission order, so every wait edge points from a
//!    later follower to an earlier producer and the waits-for graph is
//!    acyclic by construction;
//! 3. **synthesizes window annotations** so the ordinary optimizer hooks do
//!    the rest: the producer's annotation drives a follow-up
//!    materialization (real metadata propose, pinned at the shared
//!    submission time), and each follower's tier-1 reuse is served from the
//!    window's own publish channel — the metadata service stays pinned and
//!    never has to "see into the future";
//! 4. **publishes or aborts** every entry: a producer that completes
//!    without publishing (panic, injected crash, degraded fallback, reuse
//!    of a pre-existing view) aborts its pending entries, waking every
//!    waiter to fall back to recompute. There are no timeouts anywhere on
//!    this path.
//!
//! All jobs in one window share a single pinned submission time (the
//! window's close), so the PR-6/PR-7 visibility discipline holds verbatim:
//! lookups, proposes, and reports are all judged at that one instant.
//!
//! Scheduling is readiness-gated: a follower is not dispatched to the pool
//! until every entry it awaits is resolved (published or aborted), so a
//! blocked follower can never occupy a worker the producer needs. Progress
//! is guaranteed because the earliest undispatched job only ever awaits
//! entries owned by strictly earlier jobs, all of which are already
//! dispatched.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use scope_common::hash::Sig128;
use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_engine::job::JobSpec;
use scope_engine::optimizer::{Annotation, AvailableView};
use scope_plan::OpKind;
use scope_signature::CompiledJob;

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
/// electing a producer (GEqO's survivor threshold).
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
/// job completes — waiters never depend on a timeout.
enum ShareState {
    /// Producer elected, output not available yet.
    Pending,
    /// The producer's early-materialized view is readable.
    Published {
        view: AvailableView,
        available_at: SimTime,
        /// The producer's *measured* CPU of computing the subgraph — the
        /// honest recompute proxy for followers' cost-based reuse gates.
        recompute_cpu: SimDuration,
    },
    /// The producer finished without publishing (crash, fallback, reuse of
    /// a pre-existing view); followers recompute.
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
    /// Nodes in the subgraph (reporting).
    pub num_nodes: usize,
}

/// What the window knows about a precise signature a job is probing.
pub(crate) enum SharedView {
    /// Not a window entry (or not visible to this slot): use the pinned
    /// metadata service as usual.
    NotShared,
    /// This slot is the entry's elected producer: fall through to the
    /// pinned metadata service so the ordinary propose/build path runs.
    ProducerSelf,
    /// The producer published; the view is readable now (the simulated
    /// wait for its availability is charged by
    /// [`WindowContext::note_optimized`], not here).
    Ready { view: AvailableView },
    /// The entry was aborted: recompute (pinned metadata may still serve a
    /// pre-existing view).
    Fallback,
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
    /// Wakes followers blocked on a `Pending` entry (the safety net; the
    /// readiness gate makes this wait unreachable in the pooled path).
    state_changed: Condvar,
    /// Undispatched slots, in submission order.
    dispatch: Mutex<Vec<usize>>,
    /// Wakes workers parked in [`WindowContext::next_ready`].
    dispatch_ready: Condvar,
    /// One accounting pass per slot (builder-crash restarts re-run the
    /// optimize stage; only the first pass counts).
    noted: Vec<AtomicBool>,
    follower_hits: AtomicU64,
    follower_fallbacks: AtomicU64,
    waits: Mutex<Vec<SimDuration>>,
}

impl WindowContext {
    /// Plans one window: group → elect → wire the wait edges. Returns
    /// `None` when nothing is shareable (the window then runs exactly like
    /// a plain `run_many` batch).
    ///
    /// `compiled[slot]` is `None` for jobs whose plan failed to compile;
    /// they run (and fail) normally but never participate in sharing.
    pub(crate) fn plan(
        specs: &[JobSpec],
        compiled: &[Option<CompiledJob>],
        max_elect_per_job: usize,
        submitted_at: SimTime,
    ) -> Option<WindowContext> {
        let n = specs.len();

        // Stage 1 (cheap): group candidate subgraphs by normalized
        // signature; only templates spanning enough distinct jobs survive.
        let eligible = |kind: OpKind, num_nodes: usize| {
            num_nodes >= 2 && !matches!(kind, OpKind::Output | OpKind::Write)
        };
        let mut by_normalized: HashMap<Sig128, BTreeSet<usize>> = HashMap::new();
        for (slot, c) in compiled.iter().enumerate() {
            let Some(c) = c else { continue };
            for info in &c.infos {
                if eligible(info.root_kind, info.num_nodes) {
                    by_normalized
                        .entry(info.normalized)
                        .or_default()
                        .insert(slot);
                }
            }
        }
        by_normalized.retain(|_, slots| slots.len() >= MIN_SHARING_JOBS);
        if by_normalized.is_empty() {
            return None;
        }

        // Stage 2 (exact): within the surviving templates, group by precise
        // signature — sharing requires byte-identical results.
        let mut by_precise: BTreeMap<Sig128, BTreeSet<usize>> = BTreeMap::new();
        let mut shape: HashMap<Sig128, (Sig128, std::sync::Arc<scope_plan::PhysicalProps>, usize)> =
            HashMap::new();
        for (slot, c) in compiled.iter().enumerate() {
            let Some(c) = c else { continue };
            for info in &c.infos {
                if eligible(info.root_kind, info.num_nodes)
                    && by_normalized.contains_key(&info.normalized)
                {
                    by_precise.entry(info.precise).or_default().insert(slot);
                    shape
                        .entry(info.precise)
                        .or_insert_with(|| (info.normalized, info.props.clone(), info.num_nodes));
                }
            }
        }
        by_precise.retain(|_, slots| slots.len() >= MIN_SHARING_JOBS);
        if by_precise.is_empty() {
            return None;
        }

        // Per job, keep only *maximal* shared subgraphs: a shared root
        // contained in another shared root of the same plan is served
        // transitively by the larger one.
        let mut candidates: Vec<Vec<Sig128>> = vec![Vec::new(); n];
        for (slot, c) in compiled.iter().enumerate() {
            let Some(c) = c else { continue };
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
                            .map(|nodes| nodes.contains(&root))
                            .unwrap_or(false)
                });
                if !contained && !candidates[slot].contains(&precise) {
                    candidates[slot].push(precise);
                }
            }
        }

        // Regroup from the maximal candidates and elect producers, biggest
        // subgraphs first (deterministic: BTreeMap order breaks ties).
        let mut groups: BTreeMap<Sig128, BTreeSet<usize>> = BTreeMap::new();
        for (slot, sigs) in candidates.iter().enumerate() {
            for sig in sigs {
                groups.entry(*sig).or_default().insert(slot);
            }
        }
        groups.retain(|_, slots| slots.len() >= MIN_SHARING_JOBS);
        let mut order: Vec<(&Sig128, &BTreeSet<usize>)> = groups.iter().collect();
        order.sort_by_key(|(sig, _)| (std::cmp::Reverse(shape[sig].2), **sig));

        let cap = max_elect_per_job.max(1);
        let mut entries: HashMap<Sig128, SharedEntry> = HashMap::new();
        let mut follows: Vec<Vec<Sig128>> = vec![Vec::new(); n];
        let mut produces: Vec<Vec<Sig128>> = vec![Vec::new(); n];
        for (sig, slots) in order {
            // The earliest containing job produces; electing anyone later
            // would point a wait edge backwards and risk a cycle.
            let producer = *slots.first().expect("non-empty group");
            if produces[producer].len() >= cap {
                continue;
            }
            let (normalized, props, num_nodes) = shape[sig].clone();
            produces[producer].push(*sig);
            for &slot in slots.iter().skip(1) {
                follows[slot].push(*sig);
            }
            entries.insert(
                *sig,
                SharedEntry {
                    producer,
                    normalized,
                    props,
                    group_jobs: slots.len(),
                    num_nodes,
                },
            );
        }
        if entries.is_empty() {
            return None;
        }

        let states = entries
            .keys()
            .map(|sig| (*sig, ShareState::Pending))
            .collect();
        Some(WindowContext {
            submitted_at,
            entries,
            follows,
            produces,
            states: Mutex::new(states),
            state_changed: Condvar::new(),
            dispatch: Mutex::new((0..n).collect()),
            dispatch_ready: Condvar::new(),
            noted: (0..n).map(|_| AtomicBool::new(false)).collect(),
            follower_hits: AtomicU64::new(0),
            follower_fallbacks: AtomicU64::new(0),
            waits: Mutex::new(Vec::new()),
        })
    }

    /// Number of elected shared subgraphs.
    pub(crate) fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// The elected entries (reporting).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Sig128, &SharedEntry)> {
        self.entries.iter()
    }

    /// Entry-state mutex. Poisoning is recovered, never propagated: the
    /// guarded sections cannot themselves panic, so a panicking job
    /// unwinding through the pool must not take the whole window down with
    /// it.
    fn lock_states(&self) -> MutexGuard<'_, HashMap<Sig128, ShareState>> {
        self.states
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_dispatch(&self) -> MutexGuard<'_, Vec<usize>> {
        self.dispatch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends synthesized window annotations for every entry `slot`
    /// produces or follows whose normalized signature the metadata lookup
    /// did not already cover. A published entry carries the producer's
    /// measured recompute CPU and stored size; a pending/aborted one falls
    /// back to the configured estimate.
    pub(crate) fn extend_annotations(&self, slot: usize, annotations: &mut Vec<Annotation>) {
        let states = self.lock_states();
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
    /// service. A registered follower finding its entry still `Pending`
    /// blocks on the publish-or-abort signal (never a timeout); any other
    /// slot gets `Fallback` immediately — only registered followers have
    /// the readiness guarantee that makes blocking safe.
    pub(crate) fn lookup_view(&self, slot: usize, precise: Sig128) -> SharedView {
        let Some(entry) = self.entries.get(&precise) else {
            return SharedView::NotShared;
        };
        if entry.producer == slot {
            return SharedView::ProducerSelf;
        }
        let mut states = self.lock_states();
        loop {
            match states.get(&precise) {
                Some(ShareState::Published { view, .. }) => {
                    return SharedView::Ready { view: view.clone() }
                }
                Some(ShareState::Aborted) | None => return SharedView::Fallback,
                Some(ShareState::Pending) => {
                    if !self.follows[slot].contains(&precise) {
                        return SharedView::Fallback;
                    }
                    states = self
                        .state_changed
                        .wait(states)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }

    /// True when `slot` must not propose to build `precise`: the entry has
    /// an elected producer and it is someone else. Followers never compete
    /// for the build lock, even after an abort — the subgraph can be built
    /// in a later window instead.
    pub(crate) fn deny_propose(&self, slot: usize, precise: Sig128) -> bool {
        self.entries
            .get(&precise)
            .is_some_and(|e| e.producer != slot)
    }

    /// True when `slot` is the elected producer of `precise`.
    pub(crate) fn is_producer(&self, slot: usize, precise: Sig128) -> bool {
        self.entries
            .get(&precise)
            .is_some_and(|e| e.producer == slot)
    }

    /// Entries `slot` was elected to produce (the optimizer's
    /// materialization cap is raised by this much so window builds never
    /// crowd out the job's own analyzer-mined builds).
    pub(crate) fn produces_count(&self, slot: usize) -> usize {
        self.produces[slot].len()
    }

    /// Producer publish: transitions `Pending → Published` and wakes every
    /// waiter. Idempotent (a builder-crash restart that already published a
    /// view before dying must not regress the state).
    pub(crate) fn publish(
        &self,
        slot: usize,
        precise: Sig128,
        view: AvailableView,
        available_at: SimTime,
        recompute_cpu: SimDuration,
    ) {
        if !self.is_producer(slot, precise) {
            return;
        }
        {
            let mut states = self.lock_states();
            if matches!(states.get(&precise), Some(ShareState::Pending)) {
                states.insert(
                    precise,
                    ShareState::Published {
                        view,
                        available_at,
                        recompute_cpu,
                    },
                );
                self.state_changed.notify_all();
            }
        }
        self.poke_dispatch();
    }

    /// Job-completion hook — called for *every* terminal outcome (success,
    /// error, caught panic). Any entry this slot still owes is aborted so
    /// its waiters wake and fall back to recompute. This is the
    /// publish-or-abort guarantee: no follower can outlive its producer in
    /// a blocked state.
    pub(crate) fn resolve_job(&self, slot: usize) {
        {
            let mut states = self.lock_states();
            let mut changed = false;
            for sig in &self.produces[slot] {
                if matches!(states.get(sig), Some(ShareState::Pending)) {
                    states.insert(*sig, ShareState::Aborted);
                    changed = true;
                }
            }
            if changed {
                self.state_changed.notify_all();
            }
        }
        self.poke_dispatch();
    }

    /// Serializes with the check-then-wait in [`WindowContext::next_ready`]
    /// (lock, drop, notify), so a state change can never slip between a
    /// parked worker's readiness scan and its wait.
    fn poke_dispatch(&self) {
        drop(self.lock_dispatch());
        self.dispatch_ready.notify_all();
    }

    /// Pops the next dispatchable slot, blocking while every undispatched
    /// job still awaits a pending entry. Returns `None` when the window is
    /// fully dispatched.
    ///
    /// Deadlock-freedom: the earliest undispatched slot only follows
    /// entries produced by strictly earlier slots (producers are always the
    /// earliest job of their group), and those are all dispatched; each
    /// dispatched job terminates (panic-isolated) and resolves its entries,
    /// which pokes this condvar.
    pub(crate) fn next_ready(&self) -> Option<usize> {
        let mut queue = self.lock_dispatch();
        loop {
            if queue.is_empty() {
                return None;
            }
            let pos = {
                let states = self.lock_states();
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
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Accounting after a slot's optimize stage: counts follower reuse hits
    /// vs. fallbacks and returns the simulated wait to charge this attempt
    /// (time from the shared submission instant until the last reused entry
    /// became available). Hit/fallback counters and the wait histogram are
    /// recorded once per slot; the latency charge applies to every attempt
    /// (a restarted follower re-waits in simulated time).
    pub(crate) fn note_optimized(&self, slot: usize, reused: &[Sig128]) -> SimDuration {
        let first = !self.noted[slot].swap(true, Ordering::Relaxed);
        let mut wait_total = SimDuration::ZERO;
        let states = self.lock_states();
        for sig in &self.follows[slot] {
            if reused.contains(sig) {
                if let Some(ShareState::Published { available_at, .. }) = states.get(sig) {
                    if *available_at > self.submitted_at {
                        wait_total = wait_total.max(*available_at - self.submitted_at);
                    }
                }
                if first {
                    self.follower_hits.fetch_add(1, Ordering::Relaxed);
                }
            } else if first {
                self.follower_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(states);
        if first && wait_total > SimDuration::ZERO {
            self.waits
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(wait_total);
        }
        wait_total
    }

    /// Terminal tallies: (published, aborted) entry counts.
    fn final_counts(&self) -> (usize, usize) {
        let states = self.lock_states();
        let published = states
            .values()
            .filter(|s| matches!(s, ShareState::Published { .. }))
            .count();
        let aborted = states
            .values()
            .filter(|s| matches!(s, ShareState::Aborted))
            .count();
        (published, aborted)
    }
}

/// Aggregate coordinator outcome across every window of one
/// [`CloudViews::run_windowed`] call.
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
    pub published: usize,
    /// Entries aborted (producer crashed, degraded, or reused elsewhere).
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
                WindowContext::plan(&specs, compiled, self.max_materialize_per_job, submit)
            });

            if let Some(w) = &window {
                let m = self.sharing_metrics();
                m.windows.inc();
                m.window_jobs.add(specs.len() as u64);
                m.window_size.record(specs.len() as u64);
                m.shared_subgraphs.add(w.num_entries() as u64);
                for (_, entry) in w.entries() {
                    m.group_size.record(entry.group_jobs as u64);
                    summary.shared_nodes += entry.num_nodes;
                }
                summary.windows += 1;
                summary.jobs += specs.len();
                summary.shared_subgraphs += w.num_entries();
            }

            let results = self.run_many_inner(
                specs,
                mode,
                options,
                submit,
                window.as_ref(),
                compiled.as_deref(),
            );

            if let Some(w) = &window {
                let m = self.sharing_metrics();
                let (published, aborted) = w.final_counts();
                m.published.add(published as u64);
                m.aborts.add(aborted as u64);
                let hits = w.follower_hits.load(Ordering::Relaxed);
                let fallbacks = w.follower_fallbacks.load(Ordering::Relaxed);
                m.follower_reuses.add(hits);
                m.follower_fallbacks.add(fallbacks);
                summary.published += published;
                summary.aborted += aborted;
                summary.follower_reuses += hits;
                summary.follower_fallbacks += fallbacks;
                let waits = w
                    .waits
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                for wait in waits.iter() {
                    m.wait.record(wait.micros());
                }
                summary.waits.extend(waits.iter().copied());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::ids::{ClusterId, DatasetId, JobId, TemplateId, UserId, VcId};
    use scope_plan::expr::AggFunc;
    use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, Schema};
    use scope_signature::TemplateCache;

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

    /// scan → filter → agg → output over one shared stream; identical
    /// across calls, so the precise signatures match job to job.
    fn shared_job(id: u64, out: &str) -> JobSpec {
        let mut b = PlanBuilder::new();
        let s = b.table_scan(DatasetId::new(7), "shared/2024-01-01/x.ss", kv_schema());
        let f = b.filter(s, Expr::col(1).ge(Expr::lit(5i64)));
        let a = b.aggregate(f, vec![0], vec![AggExpr::new("n", AggFunc::Count, 1)]);
        spec(id, b.output(a, out).build().unwrap())
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

    #[test]
    fn plan_elects_earliest_producer_per_shared_subgraph() {
        let specs = vec![
            distinct_job(1),
            shared_job(2, "b"),
            shared_job(3, "c"),
            shared_job(4, "d"),
        ];
        let compiled = compile_all(&specs);
        let w = WindowContext::plan(&specs, &compiled, 1, SimTime::ZERO).expect("shareable");
        // One maximal shared subgraph (the aggregate); producer is slot 1
        // (the earliest shared job), slots 2 and 3 follow.
        assert_eq!(w.num_entries(), 1);
        let (sig, entry) = w.entries().next().unwrap();
        assert_eq!(entry.producer, 1);
        assert_eq!(entry.group_jobs, 3);
        assert!(w.produces[1].contains(sig));
        assert!(w.follows[2].contains(sig) && w.follows[3].contains(sig));
        assert!(w.follows[0].is_empty() && w.produces[0].is_empty());
        // The entry is the *maximal* shared root: its subgraph spans scan +
        // filter + aggregate, not the smaller filter subgraph.
        assert_eq!(entry.num_nodes, 3);
    }

    #[test]
    fn plan_returns_none_without_overlap() {
        let specs = vec![distinct_job(1), distinct_job(2), distinct_job(3)];
        let compiled = compile_all(&specs);
        assert!(WindowContext::plan(&specs, &compiled, 1, SimTime::ZERO).is_none());
    }

    #[test]
    fn abort_wakes_pending_lookup_and_readiness_gate() {
        let specs = vec![shared_job(1, "a"), shared_job(2, "b")];
        let compiled = compile_all(&specs);
        let w = WindowContext::plan(&specs, &compiled, 1, SimTime::ZERO).unwrap();
        let sig = *w.entries().next().unwrap().0;
        // Producer dispatches immediately; the follower is gated.
        assert_eq!(w.next_ready(), Some(0));
        // Abort (producer "dies"); the follower becomes ready and its view
        // lookup reports the fallback instead of blocking.
        w.resolve_job(0);
        assert_eq!(w.next_ready(), Some(1));
        assert!(matches!(w.lookup_view(1, sig), SharedView::Fallback));
        assert!(w.next_ready().is_none());
    }

    #[test]
    fn publish_serves_followers_and_charges_wait() {
        let specs = vec![shared_job(1, "a"), shared_job(2, "b")];
        let compiled = compile_all(&specs);
        let w = WindowContext::plan(&specs, &compiled, 1, SimTime::ZERO).unwrap();
        let sig = *w.entries().next().unwrap().0;
        let view = AvailableView {
            precise: sig,
            rows: 10,
            bytes: 100,
            props: scope_plan::PhysicalProps::any(),
        };
        let at = SimTime::ZERO + SimDuration::from_secs(3);
        // A non-producer publish is ignored (the producer check rejects
        // it); the producer's own publish lands.
        w.publish(1, sig, view.clone(), at, SimDuration::from_secs(9));
        w.publish(0, sig, view, at, SimDuration::from_secs(9));
        match w.lookup_view(1, sig) {
            SharedView::Ready { view } => assert_eq!(view.rows, 10),
            _ => panic!("published entry must be ready"),
        }
        // The synthesized annotation now carries the measured recompute.
        let mut annotations = Vec::new();
        w.extend_annotations(1, &mut annotations);
        assert_eq!(annotations.len(), 1);
        assert_eq!(annotations[0].avg_cpu, SimDuration::from_secs(9));
        // Reusing the entry charges the publish wait exactly once in the
        // histogram but on every accounting call.
        let wait = w.note_optimized(1, &[sig]);
        assert_eq!(wait, SimDuration::from_secs(3));
        assert_eq!(w.follower_hits.load(Ordering::Relaxed), 1);
        let again = w.note_optimized(1, &[sig]);
        assert_eq!(again, wait);
        assert_eq!(w.follower_hits.load(Ordering::Relaxed), 1);
        assert_eq!(w.waits.lock().unwrap().len(), 1);
    }

    #[test]
    fn propose_denied_for_followers_only() {
        let specs = vec![shared_job(1, "a"), shared_job(2, "b")];
        let compiled = compile_all(&specs);
        let w = WindowContext::plan(&specs, &compiled, 1, SimTime::ZERO).unwrap();
        let sig = *w.entries().next().unwrap().0;
        assert!(!w.deny_propose(0, sig));
        assert!(w.deny_propose(1, sig));
        assert!(!w.deny_propose(1, Sig128::new(1, 2)));
    }
}
