//! The incremental analyzer state (DESIGN.md §11).
//!
//! `run_analysis` used to be a one-shot batch: every round re-enumerated
//! every `JobRecord` ever recorded, so analysis cost grew linearly with
//! repository age. [`AnalyzerState`] keeps the overlap statistics *live*
//! across rounds instead: [`AnalyzerState::ingest`] folds only the delta of
//! new records into persistent per-signature aggregates, and
//! [`AnalyzerState::select`] re-runs view selection from those aggregates —
//! no re-enumeration of old instances.
//!
//! ## The transition-flush trick
//!
//! Batch mining is two passes: count occurrences by precise signature, then
//! fold the occurrences whose precise count is ≥ 2 by normalized signature.
//! A naive incremental port would have to re-scan history whenever a
//! signature crosses the threshold. Instead each `PreciseAcc` buffers its
//! *first* occurrence; when the second arrives (count 1 → 2) the buffered
//! occurrence is flushed retroactively into the normalized accumulator
//! together with the new one, and every later occurrence folds directly.
//! Each occurrence is therefore touched exactly once, and the normalized
//! aggregates are at all times identical to what the batch two-pass would
//! produce over the same prefix.
//!
//! ## Why the sequence guards stay under a serial fold
//!
//! Ingest runs under the state's one mutex: an *admit* pass applies the
//! window/VC filter, assigns each record a record sequence number and each
//! occurrence a global sequence number, and maintains the per-record
//! metadata (lineage observations, job metas); a *fold* pass then applies
//! the admitted records to the accumulators in order. Arrival order is
//! still not sequence order at a normalized accumulator: the transition
//! flush folds a buffered first occurrence *after* later occurrences of a
//! sibling precise signature. The order-sensitive fields are therefore
//! guarded by the pre-assigned sequence numbers (min-seq for the "first
//! occurrence" fields, max-seq for `sample_precise`, min-seq tie-breaks for
//! property votes), which is also what makes the outcome independent of how
//! the stream is partitioned into ingest calls — property-tested in
//! `tests/analyzer_incremental.rs`.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use scope_common::hash::Sig128;
use scope_common::ids::{JobId, TemplateId, UserId, VcId};
use scope_common::intern::Symbol;
use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_engine::repo::{JobRecord, SubgraphRun, WorkloadRepository};
use scope_plan::{OpKind, PhysicalProps};

use super::overlap::{OverlapGroup, OverlapMetrics};
use super::{
    coordination, expiry, physical, selection, AnalysisOutcome, AnalysisPhaseTimes, AnalyzerConfig,
    SelectedView,
};
use crate::codec::Codec;
use crate::codec_record;

/// Per-precise-signature accumulator: a count plus the buffered first
/// occurrence as `(seq, record_seq, run)` — everything needed to fold it
/// retroactively once the signature proves overlapping (present only while
/// the count is exactly 1).
struct PreciseAcc {
    count: u64,
    first: Option<Box<(u64, u64, SubgraphRun)>>,
}

struct PropsVote {
    count: usize,
    /// Sequence of the earliest occurrence voting for this design — the
    /// deterministic tie-break when two designs draw the same vote count.
    first_seq: u64,
}

/// Per-normalized-signature aggregates, maintained incrementally. All
/// updates commute (see the module docs).
struct NormAcc {
    /// Sequence of the earliest overlapping occurrence: guards the
    /// "first occurrence" fields below.
    first_seq: u64,
    /// Sequence of the latest overlapping occurrence: guards
    /// `sample_precise`.
    last_seq: u64,
    sample_precise: Sig128,
    root_kind: OpKind,
    num_nodes: usize,
    has_user_code: bool,
    input_tags: Vec<Symbol>,
    occurrences: u64,
    /// Distinct precise signatures that crossed the overlap threshold.
    instances: u64,
    jobs: HashSet<JobId>,
    users: HashSet<UserId>,
    vcs: HashSet<VcId>,
    templates: HashSet<TemplateId>,
    cum_cpu_sum: u128,
    rows_sum: u128,
    bytes_sum: u128,
    job_cpu_sum: u128,
    props_votes: HashMap<Arc<PhysicalProps>, PropsVote>,
}

impl NormAcc {
    fn new() -> NormAcc {
        NormAcc {
            first_seq: u64::MAX,
            last_seq: 0,
            sample_precise: Sig128::ZERO,
            root_kind: OpKind::Output,
            num_nodes: 0,
            has_user_code: false,
            input_tags: Vec::new(),
            occurrences: 0,
            instances: 0,
            jobs: HashSet::new(),
            users: HashSet::new(),
            vcs: HashSet::new(),
            templates: HashSet::new(),
            cum_cpu_sum: 0,
            rows_sum: 0,
            bytes_sum: 0,
            job_cpu_sum: 0,
            props_votes: HashMap::new(),
        }
    }
}

/// Per-admitted-record metadata kept for the fold, the metrics and the
/// coordination passes (the record itself is never re-read).
struct JobMeta {
    job: JobId,
    user: UserId,
    vc: VcId,
    template: TemplateId,
    latency: SimDuration,
    cpu_time: SimDuration,
}

/// Everything behind the state's one lock.
#[derive(Default)]
struct Aggregates {
    metas: Vec<JobMeta>,
    /// Overlapping-occurrence count per admitted record, parallel to
    /// `metas`.
    rec_overlaps: Vec<u64>,
    occurrences_total: u64,
    skipped: u64,
    /// Template → instance → earliest observed submission (lineage input).
    template_times: HashMap<TemplateId, BTreeMap<u64, SimTime>>,
    /// Input tag → consuming templates, insertion-ordered.
    consumers: HashMap<Symbol, Vec<TemplateId>>,
    precise: HashMap<Sig128, PreciseAcc>,
    norm: HashMap<Sig128, NormAcc>,
}

// The fingerprint's layout (never decoded, but stated once like every
// other): a field missing from a list does not compile.
codec_record! {
    PreciseAcc { count, first }
    PropsVote { count, first_seq }
    NormAcc {
        first_seq, last_seq, sample_precise, root_kind, num_nodes, has_user_code, input_tags,
        occurrences, instances, jobs, users, vcs, templates, cum_cpu_sum, rows_sum, bytes_sum,
        job_cpu_sum, props_votes,
    }
    JobMeta { job, user, vc, template, latency, cpu_time }
    Aggregates {
        metas, rec_overlaps, occurrences_total, skipped, template_times, consumers, precise, norm
    }
}

/// What one [`AnalyzerState::ingest`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestReport {
    /// Records admitted past the window/VC filter this call.
    pub admitted: usize,
    /// Records the filter rejected this call.
    pub skipped: usize,
    /// Subgraph occurrences folded (admitted records × their subgraphs).
    pub occurrences: u64,
    /// Wall time of the admit (filter + sequence assignment) phase.
    pub filter_wall: Duration,
    /// Wall time of the fold phase.
    pub fold_wall: Duration,
}

/// An admitted record with the sequence numbers the admit pass gave it.
struct RecordCtx<'a> {
    record: &'a JobRecord,
    record_seq: u64,
    /// Sequence number of the record's first occurrence.
    base_seq: u64,
}

/// The persistent analyzer state: ingest deltas, select from aggregates.
pub struct AnalyzerState {
    config: AnalyzerConfig,
    /// The one lock: ingest, selection and every read hold it for their
    /// whole duration, so each sees the aggregates at a record boundary.
    agg: Mutex<Aggregates>,
}

impl AnalyzerState {
    /// A fresh state for `config`.
    pub fn new(config: AnalyzerConfig) -> AnalyzerState {
        AnalyzerState {
            config,
            agg: Mutex::new(Aggregates::default()),
        }
    }

    /// The configuration this state selects under.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Records admitted so far (post window/VC filter).
    pub fn jobs_admitted(&self) -> usize {
        self.agg.lock().metas.len()
    }

    /// Records the filter rejected so far.
    pub fn jobs_skipped(&self) -> u64 {
        self.agg.lock().skipped
    }

    /// Distinct precise signatures tracked.
    pub fn distinct_subgraphs(&self) -> usize {
        self.agg.lock().precise.len()
    }

    /// Normalized overlap groups currently live.
    pub fn groups_tracked(&self) -> usize {
        self.agg.lock().norm.len()
    }

    /// 128-bit digest of the mining aggregates: the sip128 of their codec
    /// layout (hash maps and sets sorted by encoding, so neither iteration
    /// nor interning order moves it). Two states with the same fingerprint
    /// select identical views under the same config; the recovery CI gate
    /// asserts that re-folding the recovered repository reproduces the
    /// pre-crash analyzer exactly. Because ingest is a deterministic fold over
    /// the record stream (bit-identical however the stream is partitioned —
    /// see the module docs), recovery does not snapshot aggregates at all: it
    /// replays the recovered records from sequence 0.
    pub fn fingerprint(&self) -> Sig128 {
        scope_common::hash::sip128(&self.agg.lock().to_bytes())
    }

    fn admits(&self, r: &JobRecord) -> bool {
        r.submitted_at >= self.config.window_from
            && r.submitted_at < self.config.window_to
            && self
                .config
                .include_vcs
                .as_ref()
                .map(|inc| inc.contains(&r.vc))
                .unwrap_or(true)
            && !self.config.exclude_vcs.contains(&r.vc)
    }

    /// Folds a delta of new records into the state. Only the delta is
    /// touched; history lives entirely in the aggregates. Records are read
    /// where they lie: a slice, a filtered iterator, or references.
    pub fn ingest<'a, R: Borrow<JobRecord> + 'a>(
        &self,
        records: impl IntoIterator<Item = &'a R>,
    ) -> IngestReport {
        let mut guard = self.agg.lock();
        let agg = &mut *guard;
        let t_admit = std::time::Instant::now();
        let mut work: Vec<RecordCtx<'a>> = Vec::new();
        let mut skipped = 0usize;
        for r in records {
            let r: &JobRecord = r.borrow();
            if !self.admits(r) {
                agg.skipped += 1;
                skipped += 1;
                continue;
            }
            let record_seq = agg.metas.len() as u64;
            let base_seq = agg.occurrences_total;
            agg.occurrences_total += r.subgraphs.len() as u64;
            agg.metas.push(JobMeta {
                job: r.job,
                user: r.user,
                vc: r.vc,
                template: r.template,
                latency: r.latency,
                cpu_time: r.cpu_time,
            });
            agg.rec_overlaps.push(0);
            // Lineage observations: earliest submission per (template,
            // instance) — duplicate instances (baseline + enabled runs)
            // resolve deterministically to the min.
            let slot = agg
                .template_times
                .entry(r.template)
                .or_default()
                .entry(r.instance)
                .or_insert(r.submitted_at);
            if r.submitted_at < *slot {
                *slot = r.submitted_at;
            }
            for &tag in &r.tags {
                let list = agg.consumers.entry(tag).or_default();
                if !list.contains(&r.template) {
                    list.push(r.template);
                }
            }
            work.push(RecordCtx {
                record: r,
                record_seq,
                base_seq,
            });
        }
        let filter_wall = t_admit.elapsed();

        let t_fold = std::time::Instant::now();
        for ctx in &work {
            for (i, run) in ctx.record.subgraphs.iter().enumerate() {
                agg.fold_occurrence(ctx.base_seq + i as u64, ctx.record_seq, run);
            }
        }
        let fold_wall = t_fold.elapsed();

        IngestReport {
            admitted: work.len(),
            skipped,
            occurrences: work.iter().map(|w| w.record.subgraphs.len() as u64).sum(),
            filter_wall,
            fold_wall,
        }
    }

    /// Materializes the current overlap groups from the aggregates,
    /// deterministically ordered (utility descending, then signature).
    pub fn groups(&self) -> Vec<OverlapGroup> {
        self.agg.lock().groups()
    }

    /// Workload-wide overlap metrics from the maintained aggregates.
    pub fn metrics(&self) -> OverlapMetrics {
        self.agg.lock().metrics()
    }

    /// Re-runs view selection from the maintained aggregates: groups →
    /// policy/constraints (budget-aware) → physical design → lineage TTLs →
    /// coordination hints. No record is re-read.
    pub fn select(&self) -> Result<AnalysisOutcome> {
        let agg = self.agg.lock();
        let start = std::time::Instant::now();
        let mut phase_times = AnalysisPhaseTimes::default();

        let phase = std::time::Instant::now();
        let groups = agg.groups();
        let metrics = agg.metrics();
        let lineage =
            expiry::LineageTracker::from_observations(&agg.template_times, &agg.consumers);
        phase_times.mining = phase.elapsed();

        let phase = std::time::Instant::now();
        let chosen =
            selection::select_budgeted(&groups, &self.config.policy, &self.config.constraints);
        phase_times.selection = phase.elapsed();

        let phase = std::time::Instant::now();
        let mut selected = Vec::with_capacity(chosen.len());
        for g in &chosen {
            let props = physical::choose_design(g);
            let ttl = lineage.ttl_for_tags(&g.input_tags, self.config.default_ttl);
            selected.push(SelectedView {
                annotation: scope_engine::optimizer::Annotation {
                    normalized: g.normalized,
                    props,
                    ttl,
                    avg_cpu: g.avg_cumulative_cpu,
                    avg_rows: g.avg_out_rows,
                    avg_bytes: g.avg_out_bytes,
                },
                input_tags: g.input_tags.clone(),
                utility: g.utility(),
                frequency: g.per_instance_frequency(),
                precise_last_seen: g.sample_precise,
            });
        }
        let order_hints = coordination::order_hints_from_jobs(
            &chosen,
            agg.metas.iter().map(|m| (m.job, m.template, m.latency)),
        );
        phase_times.design = phase.elapsed();

        Ok(AnalysisOutcome {
            selected,
            groups,
            metrics,
            order_hints,
            wall_time: start.elapsed(),
            phase_times,
            jobs_analyzed: agg.metas.len(),
        })
    }
}

impl Aggregates {
    /// One occurrence through the transition-flush accumulator: buffer at
    /// count 1, flush the buffered first plus this one at count 2, fold
    /// directly afterwards.
    fn fold_occurrence(&mut self, seq: u64, record_seq: u64, run: &SubgraphRun) {
        let acc = self.precise.entry(run.info.precise).or_insert(PreciseAcc {
            count: 0,
            first: None,
        });
        acc.count += 1;
        if acc.count == 1 {
            acc.first = Some(Box::new((seq, record_seq, run.clone())));
            return;
        }
        if let Some(first) = acc.first.take() {
            // This occurrence just proved the signature overlapping: the
            // buffered first occurrence enters the aggregates retroactively
            // and carries the new-instance increment.
            let (first_seq, first_record_seq, first_run) = *first;
            self.fold_norm(first_seq, first_record_seq, &first_run, true);
        }
        self.fold_norm(seq, record_seq, run, false);
    }

    /// Applies one overlapping occurrence to its normalized accumulator;
    /// job context comes from the occurrence's record meta. Every update
    /// commutes; see the module docs for the merge rules.
    fn fold_norm(&mut self, seq: u64, record_seq: u64, run: &SubgraphRun, new_instance: bool) {
        let meta = &self.metas[record_seq as usize];
        let info = &run.info;
        self.rec_overlaps[record_seq as usize] += 1;
        let acc = self
            .norm
            .entry(info.normalized)
            .or_insert_with(NormAcc::new);
        acc.occurrences += 1;
        if new_instance {
            acc.instances += 1;
        }
        if seq < acc.first_seq {
            acc.first_seq = seq;
            acc.root_kind = info.root_kind;
            acc.num_nodes = info.num_nodes;
            acc.has_user_code = info.has_user_code;
            acc.input_tags = info.input_tags.clone();
        }
        if acc.occurrences == 1 || seq > acc.last_seq {
            acc.last_seq = seq;
            acc.sample_precise = info.precise;
        }
        acc.jobs.insert(meta.job);
        acc.users.insert(meta.user);
        acc.vcs.insert(meta.vc);
        acc.templates.insert(meta.template);
        acc.cum_cpu_sum += run.cumulative_cpu.micros() as u128;
        acc.rows_sum += run.out_rows as u128;
        acc.bytes_sum += run.out_bytes as u128;
        acc.job_cpu_sum += meta.cpu_time.micros() as u128;
        let vote = acc
            .props_votes
            .entry(Arc::clone(&info.props))
            .or_insert(PropsVote {
                count: 0,
                first_seq: seq,
            });
        vote.count += 1;
        if seq < vote.first_seq {
            vote.first_seq = seq;
        }
    }

    fn groups(&self) -> Vec<OverlapGroup> {
        fn sorted<T: Ord + Copy>(set: &HashSet<T>) -> Vec<T> {
            let mut v: Vec<T> = set.iter().copied().collect();
            v.sort_unstable();
            v
        }
        let mut groups: Vec<OverlapGroup> = Vec::new();
        for (&normalized, acc) in &self.norm {
            let n = acc.occurrences.max(1) as u128;
            let mut props_votes: Vec<(Arc<PhysicalProps>, usize, u64)> = acc
                .props_votes
                .iter()
                .map(|(p, v)| (Arc::clone(p), v.count, v.first_seq))
                .collect();
            props_votes
                .sort_by_key(|(_, count, first_seq)| (std::cmp::Reverse(*count), *first_seq));
            groups.push(OverlapGroup {
                normalized,
                sample_precise: acc.sample_precise,
                occurrences: acc.occurrences,
                instances: acc.instances,
                jobs: sorted(&acc.jobs),
                users: sorted(&acc.users),
                vcs: sorted(&acc.vcs),
                templates: sorted(&acc.templates),
                root_kind: acc.root_kind,
                num_nodes: acc.num_nodes,
                has_user_code: acc.has_user_code,
                input_tags: acc.input_tags.clone(),
                avg_cumulative_cpu: SimDuration::from_micros((acc.cum_cpu_sum / n) as u64),
                avg_out_rows: (acc.rows_sum / n) as u64,
                avg_out_bytes: (acc.bytes_sum / n) as u64,
                avg_job_cpu: SimDuration::from_micros((acc.job_cpu_sum / n) as u64),
                props_votes: props_votes
                    .into_iter()
                    .map(|(p, count, _)| (p, count))
                    .collect(),
            });
        }
        groups.sort_by(|a, b| {
            b.utility()
                .cmp(&a.utility())
                .then(a.normalized.cmp(&b.normalized))
        });
        groups
    }

    fn metrics(&self) -> OverlapMetrics {
        let mut m = OverlapMetrics {
            jobs_total: self.metas.len(),
            occurrences_total: self.occurrences_total,
            subgraphs_total: self.precise.len(),
            ..Default::default()
        };
        for acc in self.precise.values() {
            if acc.count >= 2 {
                m.subgraphs_overlapping += 1;
                m.overlap_frequencies.push(acc.count);
            }
        }
        // Deterministic regardless of map iteration order.
        m.overlap_frequencies.sort_unstable_by(|a, b| b.cmp(a));
        for acc in self.norm.values() {
            m.occurrences_overlapping += acc.occurrences;
            for &tag in &acc.input_tags {
                *m.per_input.entry(tag).or_default() += acc.occurrences;
            }
        }
        let mut users: HashSet<UserId> = HashSet::new();
        let mut users_overlapping: HashSet<UserId> = HashSet::new();
        for (meta, &job_overlaps) in self.metas.iter().zip(&self.rec_overlaps) {
            users.insert(meta.user);
            let entry = m.vc_jobs.entry(meta.vc).or_default();
            entry.0 += 1;
            if job_overlaps > 0 {
                m.jobs_overlapping += 1;
                users_overlapping.insert(meta.user);
                entry.1 += 1;
            }
            *m.per_job.entry(meta.job).or_default() += job_overlaps;
            *m.per_user.entry(meta.user).or_default() += job_overlaps;
            *m.per_vc.entry(meta.vc).or_default() += job_overlaps;
        }
        m.users_total = users.len();
        m.users_overlapping = users_overlapping.len();
        m
    }
}

/// What changed between two consecutive analyzer rounds (admin drill-down).
#[derive(Clone, Debug)]
pub struct RoundDelta {
    /// Round number (1-based).
    pub round: u64,
    /// Records ingested by this round.
    pub ingested_jobs: usize,
    /// Total records admitted across all rounds.
    pub jobs_total: usize,
    /// Overlap groups live after this round.
    pub groups_total: usize,
    /// Views selected by this round.
    pub selected_total: usize,
    /// Views selected now but not in the previous round.
    pub newly_selected: Vec<Sig128>,
    /// Views selected previously but dropped now.
    pub dropped: Vec<Sig128>,
    /// Wall time of the delta ingest.
    pub ingest_wall: Duration,
    /// Wall time of selection from aggregates.
    pub select_wall: Duration,
}

/// The analyzer as a *service*: an [`AnalyzerState`] plus a cursor into the
/// workload repository, so each round pulls exactly the records that
/// arrived since the last one. The pipeline's record stage hands new
/// records over as they are recorded (`CloudViews::analyzer`), keeping the
/// state warm between rounds.
pub struct IncrementalAnalyzer {
    state: AnalyzerState,
    /// Index of the first repository record not yet ingested.
    cursor: Mutex<usize>,
    rounds: AtomicU64,
    last_delta: Mutex<Option<RoundDelta>>,
    prev_selected: Mutex<Vec<Sig128>>,
}

impl IncrementalAnalyzer {
    /// A fresh service selecting under `config`.
    pub fn new(config: AnalyzerConfig) -> IncrementalAnalyzer {
        IncrementalAnalyzer {
            state: AnalyzerState::new(config),
            cursor: Mutex::new(0),
            rounds: AtomicU64::new(0),
            last_delta: Mutex::new(None),
            prev_selected: Mutex::new(Vec::new()),
        }
    }

    /// The underlying state (introspection/dashboards).
    pub fn state(&self) -> &AnalyzerState {
        &self.state
    }

    /// Completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// The last round's delta, if any round has run.
    pub fn last_delta(&self) -> Option<RoundDelta> {
        self.last_delta.lock().clone()
    }

    /// The normalized signatures selected by the most recent round (the
    /// baseline the next round diffs against). Persisted in snapshots so a
    /// recovered analyzer's first round reports newly/dropped views against
    /// the pre-crash selection instead of against an empty set.
    pub fn prev_selected(&self) -> Vec<Sig128> {
        self.prev_selected.lock().clone()
    }

    /// Restores the previous-round selection baseline (recovery only).
    /// The round counter and last delta are *not* restored — they are
    /// process-local reporting, reset to zero/`None` on restart.
    pub fn set_prev_selected(&self, selected: Vec<Sig128>) {
        *self.prev_selected.lock() = selected;
    }

    /// Ingests any repository records that arrived since the last call.
    /// Cheap when nothing is new; called by the pipeline's record stage.
    pub fn absorb(&self, repo: &WorkloadRepository) -> IngestReport {
        let mut cursor = self.cursor.lock();
        repo.with_records(|all| {
            if *cursor >= all.len() {
                return IngestReport::default();
            }
            let report = self.state.ingest(&all[*cursor..]);
            *cursor = all.len();
            report
        })
    }

    /// One analyzer round: absorb the repository delta, re-select from the
    /// aggregates, and publish the round delta.
    pub fn round(&self, repo: &WorkloadRepository) -> Result<AnalysisOutcome> {
        let t_ingest = std::time::Instant::now();
        let report = self.absorb(repo);
        let ingest_wall = t_ingest.elapsed();

        let t_select = std::time::Instant::now();
        let mut outcome = self.state.select()?;
        let select_wall = t_select.elapsed();
        outcome.phase_times.filter = report.filter_wall;
        outcome.phase_times.mining += report.fold_wall;
        outcome.wall_time = ingest_wall + select_wall;

        let round = self.rounds.fetch_add(1, Ordering::Relaxed) + 1;
        let selected_now: Vec<Sig128> = outcome
            .selected
            .iter()
            .map(|s| s.annotation.normalized)
            .collect();
        let mut prev = self.prev_selected.lock();
        let prev_set: HashSet<Sig128> = prev.iter().copied().collect();
        let now_set: HashSet<Sig128> = selected_now.iter().copied().collect();
        let delta = RoundDelta {
            round,
            ingested_jobs: report.admitted,
            jobs_total: outcome.jobs_analyzed,
            groups_total: outcome.groups.len(),
            selected_total: selected_now.len(),
            newly_selected: selected_now
                .iter()
                .filter(|s| !prev_set.contains(s))
                .copied()
                .collect(),
            dropped: prev
                .iter()
                .filter(|s| !now_set.contains(s))
                .copied()
                .collect(),
            ingest_wall,
            select_wall,
        };
        *prev = selected_now;
        *self.last_delta.lock() = Some(delta);
        Ok(outcome)
    }
}
