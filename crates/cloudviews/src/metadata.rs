//! The CloudViews metadata service (paper Section 6.1, Figure 9).
//!
//! The service is the coordination point of the online runtime:
//!
//! 1. the **compiler** makes *one* request per job, sending the job's
//!    normalized tags; the service answers from a tag-inverted index with
//!    every annotation that might be relevant (false positives allowed —
//!    the optimizer re-checks signatures);
//! 2. the **optimizer** proposes view materializations; the service hands
//!    out *exclusive build locks* whose expiry is derived from the mined
//!    average runtime of the subgraph, making builds fault-tolerant (a
//!    crashed builder's lock lapses and another job retries);
//! 3. the **job manager** reports successful materializations, releasing
//!    the lock and making the view visible to future lookups.
//!
//! The production system backs this with AzureSQL; here it is an in-process
//! thread-safe service (see DESIGN.md substitution table). Lookup latency is
//! modeled after the paper's measurements (19 ms single-threaded, 14.3 ms
//! with 5 service threads) via a calibrated base + per-thread service term.
//!
//! ## One catalog, one lock (DESIGN.md §10)
//!
//! Annotations, the inverted index, registered views and build locks are
//! four plain maps in one `Catalog` behind one `RwLock`. A lookup holds
//! the read guard for both tiers; every mutation appends its [`WalEvent`]
//! and applies it under the write guard, so each operation is atomic and
//! the WAL's order is the order the catalog changed in. Nothing the
//! reproduction measures depends on finer locking: the paper's service
//! latency is modeled, and no workload has more than two threads doing
//! work. Service counters are relaxed atomics outside the lock.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::intern::Symbol;
use scope_common::telemetry::{Counter, Gauge, Histogram, MetricUnit, MetricsRegistry};
use scope_common::time::{SimClock, SimDuration, SimTime};
use scope_common::{Result, ScopeError};
use scope_engine::optimizer::{Annotation, AvailableView, SubsumedView};
use scope_signature::SubsumeDescriptor;

use crate::analyzer::SelectedView;
use crate::api::{LookupRequest, ProposeRequest, ReportRequest};
use crate::codec::{Codec, CodecError, Dec, Enc};
use crate::codec_record;
use crate::faults::{FaultInjector, FaultSite};
use crate::store::{DurableStore, WalEvent};
use scope_common::hash::sip128;

/// Result of a materialization proposal (Figure 9, step 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// Exclusive lock granted: the proposing job builds the view.
    Acquired,
    /// Another job holds an unexpired build lock.
    AlreadyLocked,
    /// The view already exists; nothing to build.
    AlreadyMaterialized,
}

/// Typed result of the per-job annotation lookup (replaces the old
/// `(Vec<Annotation>, SimDuration)` tuple).
#[derive(Clone, Debug, Default)]
pub struct LookupResponse {
    /// Annotations whose tags intersect the job's tags (an
    /// over-approximation the optimizer narrows by matching signatures).
    pub annotations: Vec<Annotation>,
    /// Tier-2 subsumption candidates: views live at the pinned lookup time
    /// whose feature vectors passed the cheap compatibility gate against
    /// the job's probes (the optimizer runs the full subsumption check).
    pub tier2: Vec<SubsumedView>,
    /// Modeled service latency for the request.
    pub latency: SimDuration,
    /// Number of the job's tags that hit the inverted index.
    pub hit_count: usize,
}

/// What one purge reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PurgeSweep {
    /// Expired views dropped.
    pub views_purged: usize,
    /// Annotation entries (with their inverted-index postings) swept
    /// because their views died and their GC horizon lapsed.
    pub annotations_purged: usize,
}

/// The service's counters, gauges and histograms: `cv_metadata_*` handles
/// resolved once at construction, then one relaxed atomic op per event
/// outside the catalog lock. They are the only counters the service keeps —
/// [`MetadataService::stats`] reads [`MetadataStats`] from these same
/// handles, so the wire `Stats` frame and the metrics export cannot drift.
struct MetadataMetrics {
    lookups: Counter,
    lookup_annotations: Counter,
    lookup_tag_hits: Counter,
    lookup_misses: Counter,
    lookup_faults: Counter,
    lookup_sim_micros: Histogram,
    lookup_wall_micros: Histogram,
    tier2_hits: Counter,
    tier2_rejects: Counter,
    lookup_tier1_sim_micros: Histogram,
    lookup_tier2_sim_micros: Histogram,
    proposes: Counter,
    locks_granted: Counter,
    lock_conflicts: Counter,
    already_materialized: Counter,
    expired_takeovers: Counter,
    propose_faults: Counter,
    report_faults: Counter,
    views_registered: Counter,
    purged_annotations: Counter,
    build_locks: Gauge,
    registered_views: Gauge,
}

impl MetadataMetrics {
    fn new(m: &MetricsRegistry) -> MetadataMetrics {
        MetadataMetrics {
            lookups: m.counter("cv_metadata_lookups_total"),
            lookup_annotations: m.counter("cv_metadata_lookup_annotations_total"),
            lookup_tag_hits: m.counter("cv_metadata_lookup_tag_hits_total"),
            lookup_misses: m.counter("cv_metadata_lookup_misses_total"),
            lookup_faults: m.counter("cv_metadata_lookup_faults_total"),
            lookup_sim_micros: m.histogram("cv_metadata_lookup_sim_micros", MetricUnit::SimMicros),
            lookup_wall_micros: m
                .histogram("cv_metadata_lookup_wall_micros", MetricUnit::WallMicros),
            tier2_hits: m.counter("cv_metadata_tier2_hits_total"),
            tier2_rejects: m.counter("cv_metadata_tier2_rejects_total"),
            lookup_tier1_sim_micros: m
                .histogram("cv_metadata_lookup_tier1_sim_micros", MetricUnit::SimMicros),
            lookup_tier2_sim_micros: m
                .histogram("cv_metadata_lookup_tier2_sim_micros", MetricUnit::SimMicros),
            proposes: m.counter("cv_metadata_proposes_total"),
            locks_granted: m.counter("cv_metadata_locks_granted_total"),
            lock_conflicts: m.counter("cv_metadata_lock_conflicts_total"),
            already_materialized: m.counter("cv_metadata_already_materialized_total"),
            expired_takeovers: m.counter("cv_metadata_expired_takeovers_total"),
            propose_faults: m.counter("cv_metadata_propose_faults_total"),
            report_faults: m.counter("cv_metadata_report_faults_total"),
            views_registered: m.counter("cv_metadata_views_registered_total"),
            purged_annotations: m.counter("cv_metadata_purged_annotations_total"),
            build_locks: m.gauge("cv_metadata_build_locks"),
            registered_views: m.gauge("cv_metadata_registered_views"),
        }
    }
}

/// A registered, currently materialized view. `normalized` links the view
/// back to its driving annotation so that purging a dead view can clean the
/// annotation and inverted-index entries in the same pass (without the link,
/// those entries leaked and kept matching future lookups forever).
#[derive(Clone, Debug)]
struct RegisteredView {
    view: AvailableView,
    normalized: Sig128,
    producer: JobId,
    created_at: SimTime,
    expires_at: SimTime,
    /// Subsumption descriptor of the materialized root, when the view's
    /// subgraph is tier-2 eligible (unary Filter/Project/Aggregate with an
    /// extractable feature vector). `None` keeps the view tier-1-only.
    descriptor: Option<SubsumeDescriptor>,
}

/// An installed annotation plus the bookkeeping the purge needs to sweep
/// it consistently with the views it produced.
#[derive(Clone, Debug)]
struct AnnotationEntry {
    annotation: Annotation,
    /// The tags indexing this entry, kept so removal can drain the exact
    /// inverted-index buckets without a full index scan.
    tags: Vec<Symbol>,
    /// GC horizon. Starts at install time + TTL and is *renewed* to
    /// `view_expiry + TTL` by every registration for this normalized
    /// signature: a build proves the annotation still matches the live
    /// workload, and the grace period keeps recurring templates alive
    /// across the gap between one instance's view expiring and the next
    /// instance building. Once the workload changes and builds stop, the
    /// entry lapses one TTL after its last view expired.
    keep_until: SimTime,
    /// Precise signatures of the currently registered views built from
    /// this annotation (pruned as those views are purged/unregistered).
    precise_views: Vec<Sig128>,
}

#[derive(Clone, Debug)]
struct BuildLock {
    holder: JobId,
    expires_at: SimTime,
}

/// Service counters (reporting requirement 7 of Section 4): a snapshot of
/// thirteen `cv_metadata_*_total` counters, each monotonic on its own, not
/// a consistent cut across them — what a stats endpoint needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetadataStats {
    /// Per-job annotation lookups served.
    pub lookups: u64,
    /// Total annotations returned across lookups.
    pub annotations_returned: u64,
    /// Build locks granted.
    pub locks_granted: u64,
    /// Proposals rejected because another job held the lock.
    pub lock_conflicts: u64,
    /// Proposals rejected because the view already existed.
    pub already_materialized: u64,
    /// Successful materializations reported.
    pub views_registered: u64,
    /// Locks granted by taking over a different holder's *expired* lock
    /// (the paper's crashed-builder recovery path).
    pub expired_takeovers: u64,
    /// Lookup calls failed by the fault injector.
    pub failed_lookups: u64,
    /// Propose calls failed by the fault injector.
    pub failed_proposals: u64,
    /// Report calls failed by the fault injector.
    pub failed_reports: u64,
    /// Annotation entries swept (with their inverted-index entries) because
    /// their views died and their GC horizon lapsed.
    pub purged_annotations: u64,
    /// Tier-2 candidate views that passed the feature-vector gate and were
    /// returned to the optimizer.
    pub tier2_hits: u64,
    /// Tier-2 candidate views rejected by the feature-vector gate (or
    /// lacking a descriptor / liveness at the pinned lookup time).
    pub tier2_rejects: u64,
}

codec_record! {
    AnnotationEntry { annotation, tags, keep_until, precise_views }
    RegisteredView { view, normalized, producer, created_at, expires_at, descriptor }
    BuildLock { holder, expires_at }
    CatalogSnapshot { catalog, reserved }
}

/// The service state: four plain maps, mutated only through
/// [`Catalog::apply`] so the live path and WAL replay cannot diverge.
#[derive(Clone, Default)]
struct Catalog {
    /// Annotations by normalized signature.
    annotations: HashMap<Sig128, AnnotationEntry>,
    /// Inverted index: normalized tag → normalized signatures. Keys are
    /// interned symbols, so a lookup probe is integer hashing. A pure
    /// function of the annotations' tags.
    inverted: HashMap<Symbol, HashSet<Sig128>>,
    /// Registered materialized views by precise signature.
    views: HashMap<Sig128, RegisteredView>,
    /// Exclusive build locks by precise signature.
    locks: HashMap<Sig128, BuildLock>,
}

/// The catalog's canonical layout: annotations, registered views and build
/// locks, each sorted by signature and counted by a raw `u32` — a bulk
/// count, since a long-lived service registers more than `MAX_SEQ` views.
/// The inverted index is derived: decoding rebuilds it.
impl Codec for Catalog {
    fn put(&self, e: &mut Enc) {
        let mut annotations: Vec<&AnnotationEntry> = self.annotations.values().collect();
        annotations.sort_by_key(|a| a.annotation.normalized);
        let mut views: Vec<&RegisteredView> = self.views.values().collect();
        views.sort_by_key(|v| v.view.precise);
        let mut locks: Vec<(&Sig128, &BuildLock)> = self.locks.iter().collect();
        locks.sort_by_key(|(p, _)| **p);

        e.put_u32(annotations.len() as u32);
        annotations.iter().for_each(|a| a.put(e));
        e.put_u32(views.len() as u32);
        views.iter().for_each(|v| v.put(e));
        e.put_u32(locks.len() as u32);
        for (p, lock) in locks {
            p.put(e);
            lock.put(e);
        }
    }

    fn get(d: &mut Dec) -> std::result::Result<Catalog, CodecError> {
        let mut catalog = Catalog::default();
        for _ in 0..d.u32()? {
            catalog.install(AnnotationEntry::get(d)?);
        }
        for _ in 0..d.u32()? {
            let view = RegisteredView::get(d)?;
            catalog.views.insert(view.view.precise, view);
        }
        for _ in 0..d.u32()? {
            let (precise, lock) = <(Sig128, BuildLock)>::get(d)?;
            catalog.locks.insert(precise, lock);
        }
        Ok(catalog)
    }
}

/// What a snapshot keeps of the service: a copy of the catalog, then one
/// reserved word (always 0; it held a janitor cursor and stays so the
/// `SNP1` layout does not move). Counters are process-local and left out.
pub(crate) struct CatalogSnapshot {
    catalog: Catalog,
    reserved: u64,
}

impl Catalog {
    /// Applies one logical mutation. Every arm is idempotent at its pinned
    /// time (replay is at-least-once): re-granting an identical lock,
    /// re-registering a view whose live entry already wins, or re-purging
    /// a clean catalog all converge to the same state.
    fn apply(&mut self, ev: WalEvent) -> PurgeSweep {
        match ev {
            WalEvent::LoadAnnotations { selected, now } => {
                self.annotations.clear();
                self.inverted.clear();
                for s in selected {
                    self.install(AnnotationEntry {
                        keep_until: now + s.annotation.ttl,
                        annotation: s.annotation,
                        tags: s.input_tags,
                        precise_views: Vec::new(),
                    });
                }
            }
            // Conservative lock recovery: a replayed lease keeps its
            // original expiry, so an in-flight build that died with the
            // process simply lapses at its mined TTL and the normal
            // expired-takeover path re-runs the build exactly once.
            WalEvent::LockGranted {
                precise,
                holder,
                at: _,
                expires_at,
            } => {
                self.locks.insert(precise, BuildLock { holder, expires_at });
            }
            WalEvent::Register(req) => self.register(*req),
            // The index named the shard swept when the catalog had
            // sixteen; any index now purges everything at the pinned time.
            WalEvent::PurgeShard { index: _, now } => return self.purge(now),
            WalEvent::Unregister { precise, now } => return self.unregister(&precise, now),
        }
        PurgeSweep::default()
    }

    /// Adds an annotation entry and its inverted-index postings.
    fn install(&mut self, entry: AnnotationEntry) {
        let normalized = entry.annotation.normalized;
        for &tag in &entry.tags {
            self.inverted.entry(tag).or_default().insert(normalized);
        }
        self.annotations.insert(normalized, entry);
    }

    /// Whether a registered view is unexpired at `now`. An *existence*
    /// check, not a visibility check: `created_at` is ignored, because a
    /// winner registering its view with an `available_at` later than a
    /// peer's pinned `now` (early materialization offsets always land past
    /// the submission time) has still built it. Only an *expired* view is
    /// rebuildable.
    fn view_live(&self, precise: Sig128, now: SimTime) -> bool {
        self.views.get(&precise).is_some_and(|v| v.expires_at > now)
    }

    /// Registers a view, renews its annotation and releases its build lock.
    fn register(&mut self, req: ReportRequest) {
        let precise = req.view.precise;
        // A live entry wins: the duplicate report from a racing builder is
        // a no-op. But an *expired* entry that has not been purged yet must
        // not block its rebuild — propose() already treats the signature as
        // rebuildable, so swallowing the rebuild's report here while still
        // releasing its lock below would leave the signature with neither a
        // live view nor a lock, and the next proposer would win a second
        // build of the same view.
        let current = self.views.get(&precise);
        if current.is_none_or(|old| old.expires_at <= req.available_at) {
            // A successful build proves the annotation still matches the
            // workload, so it must outlive the view it just produced by one
            // more TTL (the grace window a recurring template needs to
            // rebuild next instance).
            if let Some(entry) = self.annotations.get_mut(&req.normalized) {
                let ttl = entry.annotation.ttl;
                entry.keep_until = entry.keep_until.max(req.expires_at + ttl);
                if !entry.precise_views.contains(&precise) {
                    entry.precise_views.push(precise);
                }
            }
            self.views.insert(
                precise,
                RegisteredView {
                    view: req.view,
                    normalized: req.normalized,
                    producer: req.producer,
                    created_at: req.available_at,
                    expires_at: req.expires_at,
                    descriptor: req.descriptor,
                },
            );
        }
        self.locks.remove(&precise);
    }

    /// Drops expired views and lapsed locks and, in the same pass, the
    /// annotation and inverted-index entries those dead views strand.
    fn purge(&mut self, now: SimTime) -> PurgeSweep {
        let mut dead: Vec<(Sig128, Sig128)> = Vec::new();
        self.views.retain(|p, v| {
            let keep = v.expires_at > now;
            if !keep {
                dead.push((*p, v.normalized));
            }
            keep
        });
        self.locks.retain(|_, l| l.expires_at > now);
        self.prune_backrefs(&dead);
        let lapsed: Vec<Sig128> = self
            .annotations
            .iter()
            .filter(|(_, e)| e.keep_until <= now)
            .map(|(n, _)| *n)
            .collect();
        PurgeSweep {
            views_purged: dead.len(),
            annotations_purged: self.sweep_stranded(lapsed, now),
        }
    }

    /// Removes the named views and force-sweeps their annotations (GC
    /// horizon ignored — the view was deliberately removed) unless another
    /// view live at `now` still needs them.
    fn unregister(&mut self, precise: &[Sig128], now: SimTime) -> PurgeSweep {
        let dead: Vec<(Sig128, Sig128)> = precise
            .iter()
            .filter_map(|p| self.views.remove(p).map(|v| (*p, v.normalized)))
            .collect();
        self.prune_backrefs(&dead);
        let forced = dead.iter().map(|&(_, normalized)| normalized);
        PurgeSweep {
            views_purged: dead.len(),
            annotations_purged: self.sweep_stranded(forced, now),
        }
    }

    /// Removes dead `(precise, normalized)` views from their annotations'
    /// backref lists.
    fn prune_backrefs(&mut self, dead: &[(Sig128, Sig128)]) {
        for (precise, normalized) in dead {
            if let Some(e) = self.annotations.get_mut(normalized) {
                e.precise_views.retain(|p| p != precise);
            }
        }
    }

    /// Removes each candidate annotation that has no live registered view
    /// left, draining its inverted-index buckets. Returns how many went.
    fn sweep_stranded(
        &mut self,
        candidates: impl IntoIterator<Item = Sig128>,
        now: SimTime,
    ) -> usize {
        let mut swept = 0;
        for normalized in candidates {
            let stranded = self
                .annotations
                .get(&normalized)
                .is_some_and(|e| !e.precise_views.iter().any(|p| self.view_live(*p, now)));
            if !stranded {
                continue;
            }
            let entry = self
                .annotations
                .remove(&normalized)
                .expect("entry was just found stranded");
            for tag in entry.tags {
                if let Some(bucket) = self.inverted.get_mut(&tag) {
                    bucket.remove(&normalized);
                    if bucket.is_empty() {
                        self.inverted.remove(&tag);
                    }
                }
            }
            swept += 1;
        }
        swept
    }
}

/// The metadata service.
pub struct MetadataService {
    catalog: RwLock<Catalog>,
    /// Shared simulated clock.
    clock: Arc<SimClock>,
    /// Number of service threads (affects modeled lookup latency); clamped
    /// to at least 1 at construction — the latency model divides by it.
    service_threads: usize,
    metrics: MetadataMetrics,
    /// Optional fault injector consulted by the fallible entrypoints.
    faults: RwLock<Option<Arc<FaultInjector>>>,
    /// Optional durability hook: every state-changing entrypoint appends
    /// its [`WalEvent`] here *before* mutating in-memory state. `None`
    /// (the default) keeps the service purely in-memory.
    durable: RwLock<Option<Arc<DurableStore>>>,
}

impl MetadataService {
    /// A service with the given clock and modeled service-thread count,
    /// counting into a registry of its own (read it through
    /// [`MetadataService::stats`]).
    pub fn new(clock: Arc<SimClock>, service_threads: usize) -> Self {
        MetadataService::with_registry(clock, service_threads, &MetricsRegistry::new())
    }

    /// [`MetadataService::new`] counting into `registry`, so the service's
    /// `cv_metadata_*` series export with everything else registered there.
    pub fn with_registry(
        clock: Arc<SimClock>,
        service_threads: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        MetadataService {
            catalog: RwLock::new(Catalog::default()),
            clock,
            service_threads: service_threads.max(1),
            metrics: MetadataMetrics::new(registry),
            faults: RwLock::new(None),
            durable: RwLock::new(None),
        }
    }

    /// Installs (or clears) the durable store. Attach it *after* replaying
    /// recovered state — [`MetadataService::apply_event`] and restoring a
    /// snapshot never log, but the live
    /// entrypoints do, and re-logging a replay would double the WAL.
    pub fn set_durable(&self, store: Option<Arc<DurableStore>>) {
        *self.durable.write() = store;
    }

    /// The number of `PurgeShard` events one full purge logs: always 1.
    /// Kept under this name because `benchmark/`'s tapped `frontdoor_mixed`
    /// replay appends that many purge events itself (ROADMAP item 10(c)).
    pub fn num_shards(&self) -> usize {
        1
    }

    /// Installs (or clears) the fault injector consulted by the fallible
    /// entrypoints. Without one, every call succeeds.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.faults.write() = injector;
    }

    fn injected_failure(&self, site: FaultSite, job: JobId) -> bool {
        match self.faults.read().as_ref() {
            Some(inj) => inj.should_fail(site, job),
            None => false,
        }
    }

    /// Appends `ev` to the WAL when durability is on. Called under the
    /// catalog write guard, *before* [`MetadataService::apply`]
    /// (write-ahead; the store's log mutex is a leaf), so WAL order is
    /// apply order.
    fn log_event(&self, ev: &WalEvent) {
        if let Some(store) = self.durable.read().as_ref() {
            store.append_event(ev);
        }
    }

    /// The one mutation path, shared by the live entrypoints and replay:
    /// applies `ev` under the caller's write guard and moves the
    /// process-local counters. Replayed events move them too, so after a
    /// recovery they differ from the original run's; only catalog state is
    /// part of the recovery contract and the
    /// [`MetadataService::fingerprint`].
    fn apply(&self, catalog: &mut Catalog, ev: WalEvent) -> PurgeSweep {
        let registered = matches!(ev, WalEvent::Register(_)) as u64;
        let sweep = catalog.apply(ev);
        let m = &self.metrics;
        m.views_registered.add(registered);
        m.purged_annotations.add(sweep.annotations_purged as u64);
        m.build_locks.set(catalog.locks.len() as i64);
        m.registered_views.set(catalog.views.len() as i64);
        sweep
    }

    /// Logs and applies one live mutation atomically.
    fn commit(&self, ev: WalEvent) -> PurgeSweep {
        let mut catalog = self.catalog.write();
        self.log_event(&ev);
        self.apply(&mut catalog, ev)
    }

    /// Re-applies one recovered WAL event, without logging.
    pub fn apply_event(&self, ev: &WalEvent) {
        self.apply(&mut self.catalog.write(), ev.clone());
    }

    /// Loads (replacing) the analyzer's selected views as annotations and
    /// rebuilds the inverted index ("the metadata service periodically
    /// polls for the output of the CloudViews analyzer").
    pub fn load_annotations(&self, selected: &[SelectedView]) {
        self.load_annotations_at(selected, self.clock.now());
    }

    /// [`MetadataService::load_annotations`] at an explicit pinned time
    /// (the time drives each annotation's `keep_until`, so a WAL replay
    /// must reuse the recorded instant, not the live clock). A concurrent
    /// lookup sees the complete old set or the complete new one.
    pub fn load_annotations_at(&self, selected: &[SelectedView], now: SimTime) {
        self.commit(WalEvent::LoadAnnotations {
            selected: selected.to_vec(),
            now,
        });
    }

    /// Figure 9 steps 1/2: the one cascade lookup per job, attributed to
    /// `req.job` so the fault injector can fail it deterministically and
    /// judged at the request's pinned submission time (`req.at`).
    ///
    /// Tier-1 returns every annotation whose tags intersect the job's tags
    /// (an over-approximation the optimizer narrows by matching actual
    /// signatures), plus the modeled service latency for the request.
    /// Tier-1 does no time filtering (annotation GC is the purge's job, and
    /// the optimizer still has to rebuild views whose files expired).
    ///
    /// Tier-2 walks the matched annotations' registered-view backrefs and
    /// returns each view that (a) is live at `req.at` — **the caller's
    /// pinned clock, not the service's** — so a job pinned to its
    /// submission time never sees a view that expired mid-flight or was
    /// published after it started; (b) carries a subsumption descriptor;
    /// and (c) passes the cheap feature-vector gate against at least one of
    /// the request's `probes`. Everything else is counted as a tier-2
    /// reject and never reaches plan inspection. Both tiers run under one
    /// read guard.
    ///
    /// **Fault-injection contract:** when the installed injector fires
    /// [`FaultSite::MetadataLookup`] for `req.job`, the call returns
    /// `ServiceUnavailable` and the index is never consulted. The runtime
    /// retries with backoff and then falls back to the baseline plan
    /// (DESIGN.md "Fault tolerance & degradation").
    pub fn lookup(&self, req: &LookupRequest) -> Result<LookupResponse> {
        let (job, probes, at) = (req.job, &req.probes, req.at);
        if self.injected_failure(FaultSite::MetadataLookup, job) {
            self.metrics.lookup_faults.inc();
            return Err(ScopeError::ServiceUnavailable(format!(
                "metadata lookup for {job} timed out"
            )));
        }
        let wall_start = Instant::now();
        let mut result: Vec<Annotation> = Vec::new();
        let mut tier2: Vec<SubsumedView> = Vec::new();
        let mut seen: HashSet<Sig128> = HashSet::new();
        let (mut hit_count, mut probed, mut rejects) = (0usize, 0usize, 0u64);
        let catalog = self.catalog.read();
        for tag in &req.tags {
            let Some(bucket) = catalog.inverted.get(tag) else {
                continue;
            };
            hit_count += 1;
            for normalized in bucket {
                let Some(e) = catalog.annotations.get(normalized) else {
                    continue;
                };
                if !seen.insert(*normalized) {
                    continue;
                }
                result.push(e.annotation.clone());
                if probes.is_empty() {
                    continue;
                }
                // Tier-2 candidate scan: liveness, then the feature-vector
                // gate, no plan inspection. Rejects never leave the service.
                // A live candidate is cloned *before* the gate, as it always
                // was. Schemas are shared, so that clone bumps reference
                // counts instead of copying column names; traced
                // `subsume_catalog` runs (seeds 1–3) read `meta.share +
                // opt.share` 0.626–0.634 since, against 0.660–0.672 before
                // (0.566–0.599 with shared schemas alone, whose Execute cost
                // more).
                // Gating on the borrow and cloning survivors only (ROADMAP
                // 4(b)) makes this loop 8x cheaper, which takes that sum
                // under the 0.5 its workload-design check enforces, so it
                // still waits for ROADMAP item 1(c) to restate that check.
                for precise in &e.precise_views {
                    probed += 1;
                    let candidate = catalog
                        .views
                        .get(precise)
                        .filter(|v| v.created_at <= at && v.expires_at > at)
                        .and_then(|v| Some((v.view.clone(), v.descriptor.clone()?)));
                    match candidate {
                        Some((view, descriptor))
                            if probes
                                .iter()
                                .any(|p| SubsumeDescriptor::quick_compat(p, &descriptor)) =>
                        {
                            tier2.push(SubsumedView {
                                view,
                                normalized: *normalized,
                                descriptor,
                                avg_cpu: e.annotation.avg_cpu,
                            })
                        }
                        _ => rejects += 1,
                    }
                }
            }
        }
        drop(catalog);
        let tier1_latency = self.lookup_latency();
        let tier2_latency = Self::tier2_scan_latency(probes.len(), probed);
        let latency = tier1_latency + tier2_latency;
        let m = &self.metrics;
        m.lookups.inc();
        m.lookup_annotations.add(result.len() as u64);
        m.lookup_tag_hits.add(hit_count as u64);
        m.tier2_hits.add(tier2.len() as u64);
        m.tier2_rejects.add(rejects);
        if result.is_empty() {
            m.lookup_misses.inc();
        }
        m.lookup_sim_micros.record(latency.micros());
        m.lookup_tier1_sim_micros.record(tier1_latency.micros());
        m.lookup_tier2_sim_micros.record(tier2_latency.micros());
        m.lookup_wall_micros
            .record(wall_start.elapsed().as_micros() as u64);
        Ok(LookupResponse {
            annotations: result,
            tier2,
            latency,
            hit_count,
        })
    }

    /// Modeled cost of the tier-2 candidate scan: a fixed probe-marshalling
    /// term plus a per-candidate bitset comparison. Both are tiny next to
    /// the 13–19 ms tier-1 base (the acceptance bar keeps cascade p99
    /// within 10% of exact-only), and zero when the job sends no probes.
    fn tier2_scan_latency(probes: usize, probed_views: usize) -> SimDuration {
        if probes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(150 + 40 * probed_views as u64)
    }

    /// Modeled lookup latency: a fixed network+query base plus a service
    /// term that parallelizes across service threads. Calibrated to the
    /// paper's 19 ms (1 thread) and 14.3 ms (5 threads). `service_threads`
    /// is clamped to ≥ 1 at construction, so the division is always sound.
    pub fn lookup_latency(&self) -> SimDuration {
        let ms = 13.12 + 5.88 / self.service_threads as f64;
        SimDuration::from_secs_f64(ms / 1e3)
    }

    /// Figure 9 steps 3/4: propose to materialize `req.precise`. Grants an
    /// exclusive lock expiring after `req.lock_ttl` (mined from the
    /// subgraph's average runtime) unless the view exists or the lock is
    /// taken. The existence check, the lock check and the grant happen
    /// under one write guard, so concurrent proposers — and a proposer
    /// racing the builder's report — see exactly one winner.
    ///
    /// The request is judged against its *pinned* clock (`req.at`, the
    /// job's submission time), mirroring [`MetadataService::lookup`].
    /// Judging lock expiry by the service's live clock is wrong under
    /// overlapped arrivals: peer jobs completing mid-wave advance the
    /// shared clock, which could lapse a still-running builder's lock and
    /// hand the same view to a second "takeover" winner. With every job in
    /// a wave proposing at its own submission time, a lock granted within
    /// the wave is never expired for the wave's peers, so each view has
    /// exactly one builder.
    ///
    /// **Fault-injection contract:** when the injector fires
    /// [`FaultSite::Propose`] for `req.job`, the proposal is lost: no lock
    /// is granted, the call returns `ServiceUnavailable`, and the caller
    /// simply skips materializing (the view stays buildable by a later
    /// job).
    pub fn propose(&self, req: &ProposeRequest) -> Result<LockOutcome> {
        let (precise, job, at) = (req.precise, req.job, req.at);
        if self.injected_failure(FaultSite::Propose, job) {
            self.metrics.propose_faults.inc();
            return Err(ScopeError::ServiceUnavailable(format!(
                "propose({precise}) by {job} timed out"
            )));
        }
        let mut catalog = self.catalog.write();
        let (outcome, takeover) = if catalog.view_live(precise, at) {
            (LockOutcome::AlreadyMaterialized, false)
        } else {
            match catalog.locks.get(&precise) {
                Some(lock) if lock.expires_at > at && lock.holder != job => {
                    (LockOutcome::AlreadyLocked, false)
                }
                prev => {
                    // The arm above took every unexpired foreign lock, so
                    // a foreign `prev` is a lapsed one: a takeover.
                    let takeover = prev.is_some_and(|lock| lock.holder != job);
                    let granted = WalEvent::LockGranted {
                        precise,
                        holder: job,
                        at,
                        expires_at: at + req.lock_ttl,
                    };
                    self.log_event(&granted);
                    self.apply(&mut catalog, granted);
                    (LockOutcome::Acquired, takeover)
                }
            }
        };
        drop(catalog);
        let m = &self.metrics;
        m.proposes.inc();
        match outcome {
            LockOutcome::Acquired => &m.locks_granted,
            LockOutcome::AlreadyLocked => &m.lock_conflicts,
            LockOutcome::AlreadyMaterialized => &m.already_materialized,
        }
        .inc();
        m.expired_takeovers.add(takeover as u64);
        Ok(outcome)
    }

    /// Current holder and expiry of the build lock on `precise`, if any
    /// (expired locks are reported until purged — they are reclaimable, not
    /// gone).
    pub fn lock_holder(&self, precise: Sig128) -> Option<(JobId, SimTime)> {
        let catalog = self.catalog.read();
        catalog
            .locks
            .get(&precise)
            .map(|l| (l.holder, l.expires_at))
    }

    /// Number of build locks that are still within their TTL at `now`. The
    /// fault-tolerance invariant is that this reaches zero once all jobs
    /// finish and the mined TTLs elapse — a crashed builder can never wedge
    /// a view signature forever.
    pub fn num_active_locks(&self, now: SimTime) -> usize {
        let catalog = self.catalog.read();
        catalog
            .locks
            .values()
            .filter(|l| l.expires_at > now)
            .count()
    }

    /// Number of build locks present (active or lapsed-but-unpurged).
    pub fn num_locks(&self) -> usize {
        self.catalog.read().locks.len()
    }

    /// Figure 9 steps 5/6: the job manager reports a successful
    /// materialization; the lock is released and the view becomes visible
    /// to future lookups from `req.available_at` (early materialization
    /// may pre-date job completion). A request carrying a
    /// [`SubsumeDescriptor`] makes the view a tier-2 candidate for future
    /// cascade lookups.
    ///
    /// **Fault-injection contract:** when the injector fires
    /// [`FaultSite::ReportMaterialized`] for `req.producer`, the report is
    /// lost: the built file exists in storage but is never registered, and
    /// the builder's lock lapses at its mined expiry instead of being
    /// released.
    pub fn report(&self, req: ReportRequest) -> Result<()> {
        if self.injected_failure(FaultSite::ReportMaterialized, req.producer) {
            self.metrics.report_faults.inc();
            return Err(ScopeError::ServiceUnavailable(format!(
                "report({}) by {} timed out",
                req.view.precise, req.producer
            )));
        }
        self.register(req);
        Ok(())
    }

    /// Infallible registration core: used by [`MetadataService::report`]
    /// and by tests that need to seed views without a fault plan in the
    /// way. `req.normalized` links the view to its driving annotation
    /// (pass [`Sig128::ZERO`] when there is none, e.g. in protocol-only
    /// tests). The view, the annotation renewal and the lock release land
    /// together: of two racing reports the first in the WAL wins, live and
    /// on replay alike.
    pub fn register(&self, req: ReportRequest) {
        self.commit(WalEvent::Register(Box::new(req)));
    }

    /// View lookup as of an explicit time (used by the runtime to pin a
    /// job's visibility to its submission time under overlapped arrivals).
    pub fn view_available_at(&self, precise: Sig128, now: SimTime) -> Option<AvailableView> {
        let catalog = self.catalog.read();
        catalog
            .views
            .get(&precise)
            .filter(|v| v.created_at <= now && v.expires_at > now)
            .map(|v| v.view.clone())
    }

    /// Producer job of a registered view (provenance, requirement 6).
    pub fn view_producer(&self, precise: Sig128) -> Option<JobId> {
        self.catalog.read().views.get(&precise).map(|v| v.producer)
    }

    /// Drops expired views and lapsed locks — and, in the same pass, the
    /// annotation and inverted-index entries those dead views strand (the
    /// entries used to leak and keep matching future lookups forever). The
    /// storage manager purges the corresponding files.
    pub fn purge_expired(&self) -> PurgeSweep {
        self.purge_expired_at(self.clock.now())
    }

    /// [`MetadataService::purge_expired`] at an explicit instant, so
    /// [`CloudViews::purge_expired`](crate::CloudViews::purge_expired) can
    /// judge metadata and storage expiry at the same one.
    pub(crate) fn purge_expired_at(&self, now: SimTime) -> PurgeSweep {
        self.commit(WalEvent::PurgeShard { index: 0, now })
    }

    /// Unregisters specific views (admin space reclamation, Section 5.4:
    /// "cleaning the views from the metadata service first before deleting
    /// any of the physical files"; also the dead-view degradation path).
    /// The annotations that drove the removed views — and their inverted-
    /// index entries — go with them unless another live view still needs
    /// them, so a reclaimed or lost view stops matching future lookups.
    ///
    /// `now` decides which *other* views still keep a swept annotation
    /// alive, so callers that pin visibility (the runtime's dead-view
    /// fallback) and WAL replay must pass the instant they observed — a
    /// live-clock read here would let replay GC annotations that were
    /// still live at the recorded timestamp.
    pub fn unregister_views(&self, precise: &[Sig128], now: SimTime) {
        self.commit(WalEvent::Unregister {
            precise: precise.to_vec(),
            now,
        });
    }

    /// A copy of the catalog for the durable snapshot; encoding it happens
    /// after the read guard is released.
    pub(crate) fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            catalog: self.catalog.read().clone(),
            reserved: 0,
        }
    }

    /// Replaces the whole catalog with a snapshot's (the inverted index is
    /// rebuilt as it decodes). Counters are untouched.
    pub(crate) fn restore(&self, snapshot: CatalogSnapshot) {
        *self.catalog.write() = snapshot.catalog;
    }

    /// The service's snapshot payload: the canonical catalog encoding the
    /// fingerprint digests, then one reserved word (always 0).
    pub fn export_state(&self) -> Vec<u8> {
        self.snapshot().to_bytes()
    }

    /// 128-bit digest of the catalog (annotations, views, locks — sorted,
    /// canonical). Two services with the same fingerprint answer every
    /// lookup/propose identically at any pinned time; the recovery CI gate
    /// asserts a restarted service matches the pre-crash one. Counters and
    /// the inverted index (derived) are excluded.
    pub fn fingerprint(&self) -> Sig128 {
        sip128(&self.catalog.read().to_bytes())
    }

    /// Registered view count (expired views included until purged).
    pub fn num_views(&self) -> usize {
        self.catalog.read().views.len()
    }

    /// Loaded annotation count.
    pub fn num_annotations(&self) -> usize {
        self.catalog.read().annotations.len()
    }

    /// Total inverted-index postings (signature entries summed over every
    /// tag bucket) — the quantity that used to grow without bound.
    pub fn num_inverted_entries(&self) -> usize {
        let catalog = self.catalog.read();
        catalog.inverted.values().map(HashSet::len).sum()
    }

    /// Non-empty tag buckets in the inverted index.
    pub fn num_tag_buckets(&self) -> usize {
        self.catalog.read().inverted.len()
    }

    /// Counter snapshot, read from the `cv_metadata_*_total` handles.
    pub fn stats(&self) -> MetadataStats {
        let m = &self.metrics;
        MetadataStats {
            lookups: m.lookups.get(),
            annotations_returned: m.lookup_annotations.get(),
            locks_granted: m.locks_granted.get(),
            lock_conflicts: m.lock_conflicts.get(),
            already_materialized: m.already_materialized.get(),
            views_registered: m.views_registered.get(),
            expired_takeovers: m.expired_takeovers.get(),
            failed_lookups: m.lookup_faults.get(),
            failed_proposals: m.propose_faults.get(),
            failed_reports: m.report_faults.get(),
            purged_annotations: m.purged_annotations.get(),
            tier2_hits: m.tier2_hits.get(),
            tier2_rejects: m.tier2_rejects.get(),
        }
    }

    /// The shared clock (used by the runtime to time operations).
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::sip128;
    use scope_plan::PhysicalProps;

    fn selected(normalized: Sig128, tags: &[&str]) -> SelectedView {
        SelectedView {
            annotation: Annotation {
                normalized,
                props: PhysicalProps::any(),
                ttl: SimDuration::from_secs(3600),
                avg_cpu: SimDuration::from_secs(10),
                avg_rows: 100,
                avg_bytes: 1000,
            },
            input_tags: tags.iter().map(|s| Symbol::intern(s)).collect(),
            utility: SimDuration::from_secs(30),
            frequency: 3,
            precise_last_seen: Sig128::ZERO,
        }
    }

    fn service() -> MetadataService {
        MetadataService::new(Arc::new(SimClock::new()), 1)
    }

    fn a_view(precise: Sig128) -> AvailableView {
        AvailableView {
            precise,
            rows: 10,
            bytes: 100,
            props: PhysicalProps::any(),
        }
    }

    /// A `scan → filter(v >= bound)` plan over the shared kv table, plus
    /// the subsumption descriptor of its filter root.
    fn filter_descriptor(bound: i64) -> (Sig128, Sig128, SubsumeDescriptor) {
        use scope_common::ids::{DatasetId, NodeId};
        use scope_plan::{DataType, Expr, PlanBuilder, Schema};
        use scope_signature::enumerate_subgraphs;
        let mut b = PlanBuilder::new();
        let s = b.table_scan(
            DatasetId::new(1),
            "in/a.ss",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        );
        let f = b.filter(s, Expr::col(1).ge(Expr::lit(bound)));
        let g = b.output(f, "o").build().unwrap();
        let infos = enumerate_subgraphs(&g).unwrap();
        let desc = SubsumeDescriptor::of_root(&g, &infos, NodeId::new(1)).unwrap();
        (infos[1].precise, infos[1].normalized, desc)
    }

    #[test]
    fn cascade_lookup_gates_candidates_and_pins_time() {
        // A view filtered wide (v >= 0) should reach a query probing with a
        // tighter filter (v >= 10) — but only while the view is live at the
        // *pinned* lookup time, regardless of where the live clock sits.
        let clock = Arc::new(SimClock::new());
        let m = MetadataService::new(Arc::clone(&clock), 1);
        let (view_precise, view_norm, view_desc) = filter_descriptor(0);
        let (_, _, probe) = filter_descriptor(10);
        m.load_annotations(&[selected(view_norm, &["in/a.ss"])]);
        let created = SimTime::ZERO + SimDuration::from_secs(10);
        let expires = SimTime::ZERO + SimDuration::from_secs(20);
        m.register(
            ReportRequest::new(
                a_view(view_precise),
                view_norm,
                JobId::new(1),
                created,
                expires,
            )
            .with_descriptor(Some(view_desc)),
        );
        let job = JobId::new(2);
        let tags = ["in/a.ss".into()];
        let probes = std::slice::from_ref(&probe);

        // Pinned before the view was published: tier-2 must stay empty even
        // though the live clock (ZERO) is irrelevant here.
        let r = m
            .lookup(
                &LookupRequest::new(job, &tags, SimTime::ZERO + SimDuration::from_secs(5))
                    .with_probes(probes.to_vec()),
            )
            .unwrap();
        assert_eq!(r.annotations.len(), 1, "tier-1 is time-agnostic");
        assert!(r.tier2.is_empty(), "view visible before its publish time");

        // Pinned inside the window while the live clock is far *past*
        // expiry: the pinned time must win (clock-skew regression).
        clock.advance(SimDuration::from_secs(3600));
        let r = m
            .lookup(
                &LookupRequest::new(job, &tags, SimTime::ZERO + SimDuration::from_secs(15))
                    .with_probes(probes.to_vec()),
            )
            .unwrap();
        assert_eq!(r.tier2.len(), 1);
        let cand = &r.tier2[0];
        assert_eq!(cand.view.precise, view_precise);
        assert_eq!(cand.normalized, view_norm);
        assert_eq!(cand.avg_cpu, SimDuration::from_secs(10));
        // Cascade latency stays within 10% of the exact-only base.
        let base = m.lookup_latency();
        assert!(r.latency > base);
        assert!(
            r.latency.as_secs_f64() <= base.as_secs_f64() * 1.10,
            "tier-2 scan must stay cheap: {:?} vs {:?}",
            r.latency,
            base
        );

        // Pinned after expiry: gone again.
        let r = m
            .lookup(
                &LookupRequest::new(job, &tags, SimTime::ZERO + SimDuration::from_secs(25))
                    .with_probes(probes.to_vec()),
            )
            .unwrap();
        assert!(r.tier2.is_empty(), "view visible after expiry");

        let stats = m.stats();
        assert_eq!(stats.tier2_hits, 1);
        assert_eq!(stats.tier2_rejects, 2);
    }

    #[test]
    fn cascade_lookup_rejects_incompatible_probes() {
        // The view is *tighter* (v >= 10) than the query (v >= 0): the
        // feature-vector gate passes (same columns) but that is fine — the
        // gate only prefilters; here we check a probe with a disjoint
        // column set is rejected at the gate and a descriptor-less view
        // never surfaces.
        let m = service();
        let (view_precise, view_norm, view_desc) = filter_descriptor(0);
        m.load_annotations(&[selected(view_norm, &["in/a.ss"])]);
        m.register(
            ReportRequest::new(
                a_view(view_precise),
                view_norm,
                JobId::new(1),
                SimTime::ZERO,
                SimTime::MAX,
            )
            .with_descriptor(Some(view_desc)),
        );
        // Probe whose child signature differs (different filter bound means
        // same child here, so craft a mismatched child by descriptor of a
        // different scan bound — use kind mismatch instead: an aggregate).
        let probe = {
            use scope_common::ids::{DatasetId, NodeId};
            use scope_plan::{AggExpr, AggFunc, DataType, PlanBuilder, Schema};
            use scope_signature::enumerate_subgraphs;
            let mut b = PlanBuilder::new();
            let s = b.table_scan(
                DatasetId::new(1),
                "in/a.ss",
                Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
            );
            let a = b.aggregate(s, vec![0], vec![AggExpr::new("n", AggFunc::Count, 1)]);
            let g = b.output(a, "o").build().unwrap();
            let infos = enumerate_subgraphs(&g).unwrap();
            SubsumeDescriptor::of_root(&g, &infos, NodeId::new(1)).unwrap()
        };
        let r = m
            .lookup(
                &LookupRequest::new(JobId::new(2), &["in/a.ss".into()], SimTime::ZERO)
                    .with_probes(vec![probe]),
            )
            .unwrap();
        assert!(r.tier2.is_empty(), "kind-mismatched probe passed the gate");
        assert_eq!(m.stats().tier2_rejects, 1);

        // A view without a descriptor is tier-1-only: no candidates even
        // for a perfectly compatible probe.
        let m2 = service();
        let (_, _, probe2) = filter_descriptor(10);
        m2.load_annotations(&[selected(view_norm, &["in/a.ss"])]);
        m2.register(ReportRequest::new(
            a_view(view_precise),
            view_norm,
            JobId::new(1),
            SimTime::ZERO,
            SimTime::MAX,
        ));
        let r = m2
            .lookup(
                &LookupRequest::new(JobId::new(2), &["in/a.ss".into()], SimTime::ZERO)
                    .with_probes(vec![probe2]),
            )
            .unwrap();
        assert!(r.tier2.is_empty());
        assert_eq!(m2.stats().tier2_rejects, 1);
    }

    #[test]
    fn exact_only_lookup_skips_the_tier2_scan() {
        // No probes → no tier-2 work, no tier-2 latency, identical answers
        // to the pre-cascade service.
        let m = service();
        let now = m.clock().now();
        let (view_precise, view_norm, view_desc) = filter_descriptor(0);
        m.load_annotations(&[selected(view_norm, &["in/a.ss"])]);
        m.register(
            ReportRequest::new(
                a_view(view_precise),
                view_norm,
                JobId::new(1),
                SimTime::ZERO,
                SimTime::MAX,
            )
            .with_descriptor(Some(view_desc)),
        );
        let r = m
            .lookup(&LookupRequest::new(JobId::new(2), &["in/a.ss".into()], now))
            .unwrap();
        assert_eq!(r.annotations.len(), 1);
        assert!(r.tier2.is_empty());
        assert_eq!(r.latency, m.lookup_latency(), "no tier-2 latency charged");
        let stats = m.stats();
        assert_eq!((stats.tier2_hits, stats.tier2_rejects), (0, 0));
    }

    #[test]
    fn inverted_index_lookup() {
        let m = service();
        let now = m.clock().now();
        let n1 = sip128(b"n1");
        let n2 = sip128(b"n2");
        m.load_annotations(&[
            selected(n1, &["in/a.ss", "in/b.ss"]),
            selected(n2, &["in/c.ss"]),
        ]);
        assert_eq!(m.num_annotations(), 2);
        let lookup = |tags: &[Symbol]| {
            m.lookup(&LookupRequest::new(JobId::new(1), tags, now))
                .unwrap()
        };
        let r = lookup(&["in/b.ss".into()]);
        assert_eq!(r.annotations.len(), 1);
        assert_eq!(r.annotations[0].normalized, n1);
        assert_eq!(r.hit_count, 1);
        assert!(r.latency > SimDuration::ZERO);
        // Multi-tag job gets the union.
        let r = lookup(&["in/a.ss".into(), "in/c.ss".into()]);
        assert_eq!(r.annotations.len(), 2);
        assert_eq!(r.hit_count, 2);
        // Unknown tags: empty.
        let r = lookup(&["in/zzz.ss".into()]);
        assert!(r.annotations.is_empty());
        assert_eq!(r.hit_count, 0);
        assert_eq!(m.stats().lookups, 3);
    }

    #[test]
    fn reload_replaces_annotations() {
        let m = service();
        let now = m.clock().now();
        m.load_annotations(&[selected(sip128(b"old"), &["t"])]);
        m.load_annotations(&[selected(sip128(b"new"), &["t"])]);
        let r = m
            .lookup(&LookupRequest::new(JobId::new(1), &["t".into()], now))
            .unwrap();
        assert_eq!(r.annotations.len(), 1);
        assert_eq!(r.annotations[0].normalized, sip128(b"new"));
    }

    #[test]
    fn exclusive_lock_protocol() {
        let m = service();
        let now = m.clock().now();
        let p = sip128(b"view");
        let ttl = SimDuration::from_secs(60);
        let propose = |job| {
            m.propose(&ProposeRequest::new(p, JobId::new(job), ttl, now))
                .unwrap()
        };
        assert_eq!(propose(1), LockOutcome::Acquired);
        // Second job is refused.
        assert_eq!(propose(2), LockOutcome::AlreadyLocked);
        // The holder itself may re-propose (idempotent re-acquire).
        assert_eq!(propose(1), LockOutcome::Acquired);
        // After the build is reported, proposals see AlreadyMaterialized.
        m.report(ReportRequest::new(
            a_view(p),
            Sig128::ZERO,
            JobId::new(1),
            SimTime::ZERO,
            SimTime::MAX,
        ))
        .unwrap();
        assert_eq!(propose(3), LockOutcome::AlreadyMaterialized);
        let stats = m.stats();
        assert_eq!(stats.lock_conflicts, 1);
        assert_eq!(stats.views_registered, 1);
    }

    #[test]
    fn lock_expiry_is_fault_tolerant() {
        let clock = Arc::new(SimClock::new());
        let m = MetadataService::new(Arc::clone(&clock), 1);
        let p = sip128(b"crashy");
        let ttl = SimDuration::from_secs(10);
        assert_eq!(
            m.propose(&ProposeRequest::new(p, JobId::new(1), ttl, clock.now()))
                .unwrap(),
            LockOutcome::Acquired
        );
        // Builder "crashes"; 11 seconds later another job may take over.
        clock.advance(SimDuration::from_secs(11));
        assert_eq!(
            m.propose(&ProposeRequest::new(p, JobId::new(2), ttl, clock.now()))
                .unwrap(),
            LockOutcome::Acquired
        );
    }

    #[test]
    fn views_respect_availability_window() {
        let clock = Arc::new(SimClock::new());
        let m = MetadataService::new(Arc::clone(&clock), 1);
        let p = sip128(b"early");
        // Published with created_at in the future (early materialization
        // by a job that started later than now).
        m.report(ReportRequest::new(
            a_view(p),
            Sig128::ZERO,
            JobId::new(1),
            SimTime(5_000_000),
            SimTime(10_000_000),
        ))
        .unwrap();
        assert!(
            m.view_available_at(p, clock.now()).is_none(),
            "not yet available"
        );
        clock.advance(SimDuration::from_secs(6));
        assert!(m.view_available_at(p, clock.now()).is_some());
        clock.advance(SimDuration::from_secs(10));
        assert!(m.view_available_at(p, clock.now()).is_none(), "expired");
        assert_eq!(m.purge_expired().views_purged, 1);
        assert_eq!(m.num_views(), 0);
    }

    #[test]
    fn unregister_clears_metadata_first() {
        let m = service();
        let now = m.clock().now();
        let p = sip128(b"gone");
        m.report(ReportRequest::new(
            a_view(p),
            Sig128::ZERO,
            JobId::new(1),
            SimTime::ZERO,
            SimTime::MAX,
        ))
        .unwrap();
        m.unregister_views(&[p], now);
        assert!(m.view_available_at(p, now).is_none());
    }

    #[test]
    fn unregister_sweeps_annotation_and_inverted_entries() {
        // Regression for the dead-view index leak: unregistering a view
        // must drop its driving annotation and drain the tag buckets, or
        // the entries keep matching future lookups forever.
        let m = service();
        let now = m.clock().now();
        let n = sip128(b"norm");
        let p = sip128(b"precise");
        m.load_annotations(&[selected(n, &["in/a.ss", "in/b.ss"])]);
        m.register(ReportRequest::new(
            a_view(p),
            n,
            JobId::new(1),
            SimTime::ZERO,
            SimTime::MAX,
        ));
        assert_eq!(m.num_annotations(), 1);
        assert_eq!(m.num_inverted_entries(), 2);

        m.unregister_views(&[p], now);
        assert_eq!(m.num_annotations(), 0, "annotation leaked");
        assert_eq!(m.num_inverted_entries(), 0, "inverted entries leaked");
        assert_eq!(m.num_tag_buckets(), 0, "empty tag buckets not drained");
        let r = m
            .lookup(&LookupRequest::new(JobId::new(2), &["in/a.ss".into()], now))
            .unwrap();
        assert!(r.annotations.is_empty(), "dead view still matches lookups");
        assert_eq!(m.stats().purged_annotations, 1);
    }

    #[test]
    fn unregister_keeps_annotation_while_another_view_is_live() {
        // Two recurring instances share one normalized annotation; killing
        // one instance's view must not strand the other's reuse.
        let m = service();
        let now = m.clock().now();
        let n = sip128(b"norm");
        let (p1, p2) = (sip128(b"inst1"), sip128(b"inst2"));
        m.load_annotations(&[selected(n, &["in/a.ss"])]);
        m.register(ReportRequest::new(
            a_view(p1),
            n,
            JobId::new(1),
            SimTime::ZERO,
            SimTime::MAX,
        ));
        m.register(ReportRequest::new(
            a_view(p2),
            n,
            JobId::new(2),
            SimTime::ZERO,
            SimTime::MAX,
        ));
        m.unregister_views(&[p1], now);
        assert_eq!(m.num_annotations(), 1, "live view's annotation was swept");
        assert_eq!(m.num_inverted_entries(), 1);
        m.unregister_views(&[p2], now);
        assert_eq!(m.num_annotations(), 0);
        assert_eq!(m.num_inverted_entries(), 0);
    }

    #[test]
    fn purge_sweeps_annotations_of_expired_views_after_grace() {
        // The headline leak: views expire and get purged, but their
        // annotation/inverted entries used to stay forever. With the fix
        // they lapse one TTL (the rebuild-grace window) after the last
        // view dies, in the same purge pass.
        let clock = Arc::new(SimClock::new());
        let m = MetadataService::new(Arc::clone(&clock), 1);
        let n = sip128(b"norm");
        let ttl = SimDuration::from_secs(3600); // `selected` uses ttl 3600
        m.load_annotations(&[selected(n, &["in/a.ss"])]);
        let view_expiry = SimTime::ZERO + SimDuration::from_secs(100);
        m.register(ReportRequest::new(
            a_view(sip128(b"p")),
            n,
            JobId::new(1),
            SimTime::ZERO,
            view_expiry,
        ));

        // View dead, but still inside the grace window: the annotation must
        // survive so the next recurring instance can rebuild.
        clock.advance(SimDuration::from_secs(200));
        assert_eq!(m.purge_expired().views_purged, 1, "expired view purged");
        assert_eq!(m.num_annotations(), 1, "annotation swept inside grace");

        // Past view expiry + TTL with no rebuild: swept, buckets drained.
        clock.advance(ttl);
        let sweep = m.purge_expired();
        assert_eq!(sweep.views_purged, 0);
        assert_eq!(sweep.annotations_purged, 1);
        assert_eq!(m.num_annotations(), 0, "annotation leaked past grace");
        assert_eq!(m.num_inverted_entries(), 0, "inverted entries leaked");
        assert_eq!(m.num_tag_buckets(), 0);
        assert_eq!(m.stats().purged_annotations, 1);
    }

    #[test]
    fn rebuilds_renew_the_annotation_across_instances() {
        // A recurring template: each instance's build renews the GC horizon,
        // so daily purges never strand the template even though every
        // instance's view expires before the next instance runs.
        let clock = Arc::new(SimClock::new());
        let m = MetadataService::new(Arc::clone(&clock), 1);
        let n = sip128(b"norm");
        let day = SimDuration::from_secs(3600); // == `selected` ttl
        m.load_annotations(&[selected(n, &["in/a.ss"])]);
        for instance in 0..5u64 {
            let now = clock.now();
            let p = sip128(format!("inst{instance}").as_bytes());
            m.register(ReportRequest::new(
                a_view(p),
                n,
                JobId::new(instance),
                now,
                now + day,
            ));
            clock.advance(day + SimDuration::from_secs(1));
            m.purge_expired();
            assert_eq!(
                m.num_annotations(),
                1,
                "instance {instance}: annotation swept mid-recurrence"
            );
            // Dead instances' views and backrefs stay bounded.
            assert_eq!(m.num_views(), 0);
        }
        // The workload stops: one grace TTL later the entry drains.
        clock.advance(day + day);
        m.purge_expired();
        assert_eq!(m.num_annotations(), 0);
        assert_eq!(m.num_inverted_entries(), 0);
    }

    #[test]
    fn lookup_latency_matches_paper_calibration() {
        let single = MetadataService::new(Arc::new(SimClock::new()), 1);
        let five = MetadataService::new(Arc::new(SimClock::new()), 5);
        let l1 = single.lookup_latency().as_secs_f64() * 1e3;
        let l5 = five.lookup_latency().as_secs_f64() * 1e3;
        assert!((l1 - 19.0).abs() < 0.1, "{l1}");
        assert!((l5 - 14.3).abs() < 0.1, "{l5}");
    }

    #[test]
    fn zero_service_threads_is_clamped() {
        // service_threads=0 would make the latency model divide by zero
        // (an infinite modeled latency); construction clamps to 1.
        let m = MetadataService::new(Arc::new(SimClock::new()), 0);
        let ms = m.lookup_latency().as_secs_f64() * 1e3;
        assert!(ms.is_finite() && (ms - 19.0).abs() < 0.1, "{ms}");
    }

    #[test]
    fn concurrent_proposals_single_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let m = Arc::new(service());
        let now = m.clock().now();
        let p = sip128(b"contended");
        let ttl = SimDuration::from_secs(60);
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let m = Arc::clone(&m);
                let wins = Arc::clone(&wins);
                std::thread::spawn(move || {
                    if m.propose(&ProposeRequest::new(p, JobId::new(i), ttl, now))
                        .unwrap()
                        == LockOutcome::Acquired
                    {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1, "exactly one job builds");
    }

    #[test]
    fn expired_lock_has_exactly_one_takeover_winner() {
        // Satellite of the crashed-builder story: many jobs observe the
        // same *expired* lock concurrently; the catalog lock must admit
        // exactly one of them as the new builder.
        let clock = Arc::new(SimClock::new());
        let m = Arc::new(MetadataService::new(Arc::clone(&clock), 1));
        let p = sip128(b"crashed-builder");
        let short = SimDuration::from_secs(10);
        assert_eq!(
            m.propose(&ProposeRequest::new(p, JobId::new(99), short, clock.now()))
                .unwrap(),
            LockOutcome::Acquired
        );
        clock.advance(SimDuration::from_secs(11)); // builder crashed; lock lapsed
        let takeover =
            |i| ProposeRequest::new(p, JobId::new(i), SimDuration::from_secs(60), clock.now());
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let (m, req) = (Arc::clone(&m), takeover(i));
                std::thread::spawn(move || m.propose(&req).unwrap())
            })
            .collect();
        let outcomes: Vec<LockOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let wins = outcomes
            .iter()
            .filter(|&&o| o == LockOutcome::Acquired)
            .count();
        assert_eq!(
            wins, 1,
            "exactly one job takes over the expired lock: {outcomes:?}"
        );
        assert_eq!(m.stats().expired_takeovers, 1);
        assert_eq!(m.num_active_locks(clock.now()), 1);
    }

    #[test]
    fn propose_never_grants_after_registration() {
        // Regression for a propose() race: the view-existence check once ran
        // outside the lock that guards the lock table, so a propose racing
        // with a report could be granted a build lock for a view that
        // already existed. The only legitimate Acquired for the contender
        // below is through that race window.
        for round in 0..50u64 {
            let m = Arc::new(service());
            let now = m.clock().now();
            let p = sip128(format!("race{round}").as_bytes());
            let ttl = SimDuration::from_secs(3600);
            // Acquire before spawning the contender so the race under test
            // is propose-vs-registration, not propose-vs-propose (under
            // load the contender could otherwise win the first propose).
            assert_eq!(
                m.propose(&ProposeRequest::new(p, JobId::new(1), ttl, now))
                    .unwrap(),
                LockOutcome::Acquired
            );
            let builder = {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    m.report(ReportRequest::new(
                        a_view(p),
                        Sig128::ZERO,
                        JobId::new(1),
                        SimTime::ZERO,
                        SimTime::MAX,
                    ))
                    .unwrap();
                })
            };
            let contender = {
                let m = Arc::clone(&m);
                std::thread::spawn(move || loop {
                    match m
                        .propose(&ProposeRequest::new(p, JobId::new(2), ttl, now))
                        .unwrap()
                    {
                        LockOutcome::Acquired => break false,
                        LockOutcome::AlreadyMaterialized => break true,
                        LockOutcome::AlreadyLocked => std::hint::spin_loop(),
                    }
                })
            };
            builder.join().unwrap();
            assert!(
                contender.join().unwrap(),
                "round {round}: contender was granted a lock for an existing view"
            );
        }
    }

    #[test]
    fn lookup_racing_a_reload_sees_one_whole_annotation_set() {
        // A reload replaces the annotation set under one write guard: a
        // lookup on the tag both sets share must return all of the old set
        // or all of the new one, never an empty or mixed catalog.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const N: usize = 32;
        let set = |base: usize| -> Vec<SelectedView> {
            (base..base + N)
                .map(|i| selected(sip128(format!("reload{i}").as_bytes()), &["reload/shared"]))
                .collect()
        };
        let (old, new) = (set(0), set(N));
        let whole = |loaded: &[SelectedView]| -> HashSet<Sig128> {
            loaded.iter().map(|s| s.annotation.normalized).collect()
        };
        let (old_sigs, new_sigs) = (whole(&old), whole(&new));
        let m = service();
        let now = m.clock().now();
        m.load_annotations(&old);
        let (start, done) = (Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..200 {
                    m.load_annotations(&new);
                    m.load_annotations(&old);
                }
                done.store(true, Ordering::SeqCst);
            });
            start.wait();
            let req = LookupRequest::new(JobId::new(1), &["reload/shared".into()], now);
            while !done.load(Ordering::SeqCst) {
                let got = m.lookup(&req).unwrap();
                let sigs: HashSet<Sig128> = got.annotations.iter().map(|a| a.normalized).collect();
                assert!(
                    sigs == old_sigs || sigs == new_sigs,
                    "lookup saw a half-loaded catalog: {} annotations",
                    sigs.len()
                );
            }
        });
    }

    #[test]
    fn racing_reports_agree_with_their_wal_replay() {
        // Several builders report the same view at once (eight, not two:
        // oversubscribing the cores is what used to open the window between
        // one report's log append and its insert). Whichever the live
        // service kept as producer, replaying the WAL into a fresh service
        // must keep the same one: the event is logged and applied under one
        // guard, so log order is apply order.
        use std::sync::Barrier;
        const ROUNDS: u64 = 64;
        const PRODUCERS: u64 = 8;
        let dir = std::env::temp_dir().join(format!("cv-meta-report-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = DurableStore::open(&dir, u64::MAX).expect("open store");
        let m = service();
        m.set_durable(Some(store));
        let precise = |round: u64| sip128(format!("report-race{round}").as_bytes());
        for round in 0..ROUNDS {
            let start = Barrier::new(PRODUCERS as usize);
            std::thread::scope(|scope| {
                for producer in 1..=PRODUCERS {
                    let (m, start) = (&m, &start);
                    scope.spawn(move || {
                        let req = ReportRequest::new(
                            a_view(precise(round)),
                            Sig128::ZERO,
                            JobId::new(producer),
                            SimTime::ZERO,
                            SimTime::MAX,
                        );
                        start.wait();
                        m.report(req).unwrap();
                    });
                }
            });
        }
        m.set_durable(None);
        let (_, recovered) = DurableStore::open(&dir, u64::MAX).expect("reopen store");
        assert_eq!(recovered.events.len() as u64, PRODUCERS * ROUNDS);
        let replayed = service();
        for ev in &recovered.events {
            replayed.apply_event(ev);
        }
        for round in 0..ROUNDS {
            assert_eq!(
                m.view_producer(precise(round)),
                replayed.view_producer(precise(round)),
                "round {round}: live and replayed producers differ"
            );
        }
        assert_eq!(m.fingerprint(), replayed.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn purge_shard_replay_ignores_the_index_and_is_idempotent() {
        // A log written when the catalog had sixteen shards carries sixteen
        // `PurgeShard` events per purge, indices 0..16; this build logs one,
        // index 0. Replaying any one of them — or all sixteen — must land
        // where a live purge at the same instant does.
        let m = service();
        let views: Vec<SelectedView> = (0..24)
            .map(|i| {
                selected(
                    sip128(format!("pn{i}").as_bytes()),
                    &[&format!("in/p{i}.ss")],
                )
            })
            .collect();
        m.load_annotations(&views);
        for (i, s) in views.iter().enumerate() {
            // A third of the views (and, never renewed past it, their
            // annotations' horizons) outlive the purge instant.
            let expires =
                SimTime::ZERO + SimDuration::from_secs(if i % 3 == 0 { 9_000 } else { 10 });
            m.register(ReportRequest::new(
                a_view(sip128(format!("pp{i}").as_bytes())),
                s.annotation.normalized,
                JobId::new(i as u64),
                SimTime::ZERO,
                expires,
            ));
            let ttl = SimDuration::from_secs(if i % 2 == 0 { 5 } else { 9_000 });
            m.propose(&ProposeRequest::new(
                sip128(format!("pl{i}").as_bytes()),
                JobId::new(1),
                ttl,
                SimTime::ZERO,
            ))
            .unwrap();
        }
        let now = SimTime::ZERO + SimDuration::from_secs(10 + 3_600 + 1);
        let state = m.export_state();
        let copy = || {
            let c = service();
            c.restore(CatalogSnapshot::from_bytes(&state).unwrap());
            c
        };
        let live = copy();
        let sweep = live.purge_expired_at(now);
        assert_eq!((sweep.views_purged, sweep.annotations_purged), (16, 16));
        assert_ne!(live.fingerprint(), m.fingerprint());
        let all_sixteen = copy();
        for index in 0..16 {
            let ev = WalEvent::PurgeShard { index, now };
            let one = copy();
            one.apply_event(&ev);
            assert_eq!(one.fingerprint(), live.fingerprint(), "index {index}");
            all_sixteen.apply_event(&ev);
        }
        assert_eq!(all_sixteen.fingerprint(), live.fingerprint());
    }

    #[test]
    fn propose_dedups_against_future_visible_views() {
        // Regression: build dedup must be an existence check. A winner in a
        // concurrent wave registers its view with `available_at` *after*
        // the wave's shared submission time (early-materialization offsets
        // always land past it) and releases its lock; a peer proposing at
        // the pinned submission time used to miss the not-yet-visible view
        // AND the released lock, and was granted a second build.
        let m = service();
        let p = sip128(b"future-visible");
        let ttl = SimDuration::from_secs(60);
        m.register(ReportRequest::new(
            a_view(p),
            Sig128::ZERO,
            JobId::new(1),
            SimTime(5_000_000), // visible 5s in — after the proposer's `at`
            SimTime(10_000_000),
        ));
        assert_eq!(
            m.propose(&ProposeRequest::new(p, JobId::new(2), ttl, SimTime::ZERO))
                .unwrap(),
            LockOutcome::AlreadyMaterialized,
            "a registered-but-not-yet-visible view is still built"
        );
        // An *expired* view is legitimately rebuildable.
        assert_eq!(
            m.propose(&ProposeRequest::new(
                p,
                JobId::new(2),
                ttl,
                SimTime(10_000_001)
            ))
            .unwrap(),
            LockOutcome::Acquired
        );
    }

    #[test]
    fn pinned_propose_ignores_live_clock_advance() {
        // Regression: lock expiry is judged at the proposer's pinned
        // submission time, not the service's live clock. Peers completing
        // mid-wave advance the shared clock; that used to lapse a
        // still-running builder's lock and admit a second "takeover"
        // winner for the same view.
        let clock = Arc::new(SimClock::new());
        let m = MetadataService::new(Arc::clone(&clock), 1);
        let p = sip128(b"slow-builder");
        let ttl = SimDuration::from_secs(10);
        assert_eq!(
            m.propose(&ProposeRequest::new(p, JobId::new(1), ttl, SimTime::ZERO))
                .unwrap(),
            LockOutcome::Acquired
        );
        // A peer job finishes and drags the live clock far past the TTL.
        clock.advance(SimDuration::from_secs(3_600));
        assert_eq!(
            m.propose(&ProposeRequest::new(p, JobId::new(2), ttl, SimTime::ZERO))
                .unwrap(),
            LockOutcome::AlreadyLocked,
            "the builder is still running at the wave's submission time"
        );
        assert_eq!(m.stats().expired_takeovers, 0);
        // A job from a genuinely later wave still takes the lapsed lock.
        assert_eq!(
            m.propose(&ProposeRequest::new(
                p,
                JobId::new(3),
                ttl,
                SimTime(11_000_000)
            ))
            .unwrap(),
            LockOutcome::Acquired
        );
        assert_eq!(m.stats().expired_takeovers, 1);
    }

    #[test]
    fn injected_lookup_propose_and_report_faults() {
        use crate::faults::{FaultPlan, ScriptedFault};
        let m = service();
        let now = m.clock().now();
        m.load_annotations(&[selected(sip128(b"n"), &["t"])]);
        let job = JobId::new(5);
        let p = sip128(b"v");
        // Script: first lookup, first propose, and first report by job 5
        // all fail; everything else passes.
        let plan = FaultPlan {
            scripted: vec![
                ScriptedFault {
                    site: FaultSite::MetadataLookup,
                    job: Some(job),
                    call_index: 0,
                },
                ScriptedFault {
                    site: FaultSite::Propose,
                    job: Some(job),
                    call_index: 0,
                },
                ScriptedFault {
                    site: FaultSite::ReportMaterialized,
                    job: Some(job),
                    call_index: 0,
                },
            ],
            ..Default::default()
        };
        m.set_fault_injector(Some(FaultInjector::new(plan)));
        let ttl = SimDuration::from_secs(60);

        let lookup = LookupRequest::new(job, &["t".into()], now);
        let err = m.lookup(&lookup).unwrap_err();
        assert_eq!(err.kind(), "service_unavailable");
        assert!(err.is_degradable());
        // Retry succeeds (call index 1).
        assert_eq!(m.lookup(&lookup).unwrap().annotations.len(), 1);

        let propose = ProposeRequest::new(p, job, ttl, now);
        assert!(m.propose(&propose).is_err());
        assert_eq!(m.propose(&propose).unwrap(), LockOutcome::Acquired);

        assert!(m
            .report(ReportRequest::new(
                a_view(p),
                Sig128::ZERO,
                job,
                SimTime::ZERO,
                SimTime::MAX
            ))
            .is_err());
        assert_eq!(m.num_views(), 0, "failed report must not register the view");
        assert!(
            m.lock_holder(p).is_some(),
            "failed report leaves the lock to lapse"
        );
        m.report(ReportRequest::new(
            a_view(p),
            Sig128::ZERO,
            job,
            SimTime::ZERO,
            SimTime::MAX,
        ))
        .unwrap();
        assert_eq!(m.num_views(), 1);
        assert!(m.lock_holder(p).is_none());

        let stats = m.stats();
        assert_eq!(
            (
                stats.failed_lookups,
                stats.failed_proposals,
                stats.failed_reports
            ),
            (1, 1, 1)
        );
        // Other jobs are untouched by the scripted plan.
        assert!(m
            .lookup(&LookupRequest::new(JobId::new(6), &["t".into()], now))
            .is_ok());
    }

    #[test]
    fn view_producer_provenance() {
        let m = service();
        let p = sip128(b"prov");
        m.report(ReportRequest::new(
            a_view(p),
            Sig128::ZERO,
            JobId::new(42),
            SimTime::ZERO,
            SimTime::MAX,
        ))
        .unwrap();
        assert_eq!(m.view_producer(p), Some(JobId::new(42)));
        assert_eq!(m.view_producer(sip128(b"other")), None);
    }

    #[test]
    fn first_report_wins() {
        let m = service();
        let p = sip128(b"dup");
        m.report(ReportRequest::new(
            a_view(p),
            Sig128::ZERO,
            JobId::new(1),
            SimTime::ZERO,
            SimTime::MAX,
        ))
        .unwrap();
        m.report(ReportRequest::new(
            a_view(p),
            Sig128::ZERO,
            JobId::new(2),
            SimTime::ZERO,
            SimTime::MAX,
        ))
        .unwrap();
        assert_eq!(m.view_producer(p), Some(JobId::new(1)));
        assert_eq!(m.num_views(), 1);
    }
}
