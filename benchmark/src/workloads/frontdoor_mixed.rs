//! `frontdoor_mixed` — the metadata service over its wire, reads beside
//! logged writes.
//!
//! A `NetServer` (one worker, quota off) fronts a `MetadataService` whose
//! every mutation is appended to a `DurableStore` WAL before it is
//! acknowledged. One `NetClient` thread drives a fixed, seeded op mix in a
//! closed loop: 80 % `lookup` (a quarter of them for streams nobody
//! annotated), 10 % `propose`, 10 % `report` — each granted proposal is
//! reported later, so writes follow the real lock lifecycle — and a `purge`
//! every 10,000 ops. Template popularity is Zipf over 4,096 annotations.
//! Simulated time moves 10 ms per op and views live 600 s, so the catalog
//! levels off at a few thousand views instead of growing with the run.
//!
//! Why it exists: `scope-net`, `cloudviews::metadata` and the store only —
//! no engine. Lookups and acked writes share one service and one log, so a
//! gain for one that costs the other shows. The traced run adds a paced
//! phase (open loop at 2,000 ops/s, timed from each request's due time),
//! which exercises the server's idle-poll path a saturated loop never
//! touches.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudviews::analyzer::SelectedView;
use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::metadata::{LockOutcome, LookupResponse, MetadataService};
use cloudviews::store::{DurableStore, WalEvent};
use rand::Rng;
use scope_common::hash::{sip128, Sig128};
use scope_common::ids::{JobId, VcId};
use scope_common::telemetry::Telemetry;
use scope_common::time::{SimClock, SimDuration, SimTime};
use scope_common::{Result, Symbol};
use scope_engine::optimizer::{Annotation, AvailableView};
use scope_net::{NetClient, NetServer, Request, Response, ServerConfig};
use scope_plan::PhysicalProps;
use scope_workload::dists::{rng_for, Zipf};

use super::{design_check, set_end_to_end, set_tail, timed_setups, write_trace_file, Samples};
use crate::report::RunReport;
use crate::spans::{durations_us, Recorder, TraceSummary};
use crate::stats::{loose_percentile, sorted, Reservoir};
use crate::util::{dir_usage, pin_to_cpu, Config, Deadline, Size, TempRoot};

const TEMPLATES_FULL: usize = 4_096;
const TEMPLATES_TINY: usize = 64;
/// Simulated microseconds per op, view lifetime and lock lease: 100 ops
/// are one simulated second, a view outlives 60,000 ops.
const SIM_US_PER_OP: u64 = 10_000;
const VIEW_TTL: SimDuration = SimDuration(600 * 1_000_000);
const LOCK_TTL: SimDuration = SimDuration(60 * 1_000_000);
const PURGE_EVERY: u64 = 10_000;
/// Ops in the generated schedule; the run cycles through it.
const SCHEDULE_OPS: usize = 1 << 18;
/// Paced phase of the traced run.
const PACED_OPS_PER_S: f64 = 2_000.0;

/// One scheduled operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Lookup for an annotated template's stream.
    LookupHot(u32),
    /// Lookup for a stream no annotation covers.
    LookupCold(u32),
    /// Propose to build a fresh view of a template.
    Propose(u32),
    /// Report the oldest granted, unreported proposal (a lookup when none
    /// is pending).
    Report,
}

/// What kind of request an op turned into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Lookup,
    Write,
    Purge,
}

/// The seeded schedule: 80 % lookups (1 in 4 cold), 10 % propose, 10 %
/// report, Zipf template popularity.
fn schedule(seed: u64, templates: usize, ops: usize) -> Vec<Op> {
    let mut rng = rng_for(seed, "frontdoor_mixed/schedule");
    let zipf = Zipf::new(templates, 1.1);
    (0..ops)
        .map(|_| {
            let t = zipf.sample(&mut rng) as u32;
            match rng.gen_range(0..20u32) {
                0..=11 => Op::LookupHot(t),
                12..=15 => Op::LookupCold(rng.gen_range(0..1_000_000)),
                16..=17 => Op::Propose(t),
                _ => Op::Report,
            }
        })
        .collect()
}

fn normalized_of(template: u32) -> Sig128 {
    sip128(format!("frontdoor/norm/{template}").as_bytes())
}

fn fixture(templates: usize) -> Vec<SelectedView> {
    (0..templates as u32)
        .map(|i| SelectedView {
            annotation: Annotation {
                normalized: normalized_of(i),
                props: PhysicalProps::any(),
                ttl: SimDuration::from_secs(7 * 86_400),
                avg_cpu: SimDuration::from_secs(10),
                avg_rows: 100,
                avg_bytes: 1_000,
            },
            input_tags: vec![Symbol::intern(&format!("frontdoor/tag/{i}"))],
            utility: SimDuration::from_secs(30),
            frequency: 2,
            precise_last_seen: Sig128::ZERO,
        })
        .collect()
}

/// Where requests go: over the wire, or straight into the service with the
/// WAL appends made by hand under spans (the traced in-process replay).
enum Backend<'a> {
    Wire(NetClient),
    Local {
        svc: &'a MetadataService,
        store: &'a DurableStore,
        rec: &'a Recorder,
    },
}

impl Backend<'_> {
    fn lookup(&mut self, req: &LookupRequest) -> Result<LookupResponse> {
        match self {
            Backend::Wire(c) => c.lookup(req),
            Backend::Local { svc, rec, .. } => rec.time("meta.lookup", || svc.lookup(req)),
        }
    }

    fn propose(&mut self, req: &ProposeRequest) -> Result<LockOutcome> {
        match self {
            Backend::Wire(c) => c.propose(req),
            Backend::Local { svc, store, rec } => {
                let outcome = rec.time("meta.propose", || svc.propose(req))?;
                if outcome == LockOutcome::Acquired {
                    let ev = WalEvent::LockGranted {
                        precise: req.precise,
                        holder: req.job,
                        at: req.at,
                        expires_at: req.at + req.lock_ttl,
                    };
                    rec.time("store.append", || store.append_event(&ev));
                }
                Ok(outcome)
            }
        }
    }

    fn report(&mut self, req: ReportRequest) -> Result<()> {
        match self {
            Backend::Wire(c) => c.report(req),
            Backend::Local { svc, store, rec } => {
                let ev = WalEvent::Register(Box::new(req.clone()));
                rec.time("store.append", || store.append_event(&ev));
                rec.time("meta.report", || svc.report(req))
            }
        }
    }

    fn purge(&mut self, shards: usize, now: SimTime) -> Result<()> {
        match self {
            Backend::Wire(c) => c.purge().map(|_| ()),
            Backend::Local { svc, store, rec } => {
                for index in 0..shards as u32 {
                    let ev = WalEvent::PurgeShard { index, now };
                    rec.time("store.append", || store.append_event(&ev));
                }
                rec.time("meta.purge", || svc.purge_expired());
                Ok(())
            }
        }
    }
}

/// A service with its log, clock and (optionally) its server.
struct Door {
    svc: Arc<MetadataService>,
    store: Arc<DurableStore>,
    clock: Arc<SimClock>,
    telemetry: Arc<Telemetry>,
    server: Option<NetServer>,
    root: TempRoot,
    templates: usize,
}

impl Door {
    /// Opens a logged service with the annotation fixture loaded; `serve`
    /// also puts the one-worker front door before it.
    fn open(templates: usize, serve: bool, tapped: bool) -> Door {
        let root = TempRoot::new("frontdoor");
        let clock = Arc::new(SimClock::new());
        let svc = Arc::new(MetadataService::new(Arc::clone(&clock), 4));
        let (store, _) = DurableStore::open(root.path(), u64::MAX).expect("open durable store");
        if !tapped {
            svc.set_durable(Some(Arc::clone(&store)));
        }
        svc.load_annotations(&fixture(templates));
        let telemetry = Telemetry::new();
        let server = serve.then(|| {
            NetServer::spawn(
                Arc::clone(&svc),
                Arc::clone(&telemetry),
                ServerConfig {
                    workers: 1,
                    quota: None,
                    ..ServerConfig::default()
                },
            )
            .expect("spawn front door")
        });
        Door {
            svc,
            store,
            clock,
            telemetry,
            server,
            root,
            templates,
        }
    }

    fn client(&self) -> NetClient {
        NetClient::connect(self.server.as_ref().expect("door serves").addr()).expect("connect")
    }
}

/// Turns scheduled ops into requests and keeps the lock lifecycle: every
/// granted proposal is queued and reported by a later `Report` op.
struct Driver {
    ops: Arc<Vec<Op>>,
    next: u64,
    pending: VecDeque<(Sig128, u32)>,
    hits: u64,
    lookups: u64,
}

/// One executed op.
struct Done {
    kind: Kind,
    wall_s: f64,
    /// The lookup request and its answer, for the sampled cross-check.
    lookup: Option<(LookupRequest, LookupResponse)>,
}

impl Driver {
    fn new(ops: Arc<Vec<Op>>) -> Driver {
        Driver {
            ops,
            next: 0,
            pending: VecDeque::new(),
            hits: 0,
            lookups: 0,
        }
    }

    fn now(&self) -> SimTime {
        SimTime(self.next * SIM_US_PER_OP)
    }

    fn lookup_request(&self, op: Op) -> LookupRequest {
        let tag = match op {
            Op::LookupCold(i) => format!("frontdoor/cold/{i}"),
            Op::LookupHot(t) | Op::Propose(t) => format!("frontdoor/tag/{t}"),
            // A report with nothing pending degrades to this lookup.
            Op::Report => "frontdoor/tag/0".into(),
        };
        LookupRequest::new(JobId::new(self.next), &[Symbol::intern(&tag)], self.now())
            .for_vc(VcId::new(self.next % 4))
    }

    /// Executes the next scheduled op against `backend`; `Err` is a failed
    /// or refused request.
    fn step(&mut self, backend: &mut Backend<'_>, door: &Door) -> Result<Done> {
        let i = self.next;
        let op = self.ops[(i % self.ops.len() as u64) as usize];
        let at = self.now();
        self.next += 1;
        if i > 0 && i % PURGE_EVERY == 0 {
            door.clock.advance_to(at);
            let t = Instant::now();
            backend.purge(door.svc.num_shards(), at)?;
            return Ok(Done {
                kind: Kind::Purge,
                wall_s: t.elapsed().as_secs_f64(),
                lookup: None,
            });
        }
        let job = JobId::new(i);
        let vc = VcId::new(i % 4);
        match (op, self.pending.front().copied()) {
            (Op::Propose(template), _) => {
                let precise = sip128(format!("frontdoor/view/{i}").as_bytes());
                let req = ProposeRequest::new(precise, job, LOCK_TTL, at).for_vc(vc);
                let t = Instant::now();
                let outcome = backend.propose(&req)?;
                let wall_s = t.elapsed().as_secs_f64();
                if outcome == LockOutcome::Acquired {
                    self.pending.push_back((precise, template));
                }
                Ok(Done {
                    kind: Kind::Write,
                    wall_s,
                    lookup: None,
                })
            }
            (Op::Report, Some((precise, template))) => {
                self.pending.pop_front();
                let view = AvailableView {
                    precise,
                    rows: 100,
                    bytes: 1_000,
                    props: PhysicalProps::any(),
                };
                let req = ReportRequest::new(view, normalized_of(template), job, at, at + VIEW_TTL)
                    .for_vc(vc);
                let t = Instant::now();
                backend.report(req)?;
                Ok(Done {
                    kind: Kind::Write,
                    wall_s: t.elapsed().as_secs_f64(),
                    lookup: None,
                })
            }
            (op, _) => {
                let req = self.lookup_request(op);
                let t = Instant::now();
                let resp = backend.lookup(&req)?;
                let wall_s = t.elapsed().as_secs_f64();
                self.lookups += 1;
                self.hits += u64::from(!resp.annotations.is_empty());
                Ok(Done {
                    kind: Kind::Lookup,
                    wall_s,
                    lookup: Some((req, resp)),
                })
            }
        }
    }
}

/// What a wire phase measures: every op at reference speed, and the raw
/// latencies (microseconds) of lookups and writes apart.
#[derive(Default)]
struct WirePhase {
    samples: Samples,
    lookup_us: Reservoir,
    write_us: Reservoir,
}

/// Drives the wire in a closed loop until `deadline`; every hundredth
/// lookup is cross-checked against the in-process answer.
fn saturated(
    door: &Door,
    driver: &mut Driver,
    backend: &mut Backend<'_>,
    deadline: &Deadline,
    mut corrupt: bool,
    report: &mut RunReport,
    phase: &mut WirePhase,
) {
    // A corrupted answer has to be offered to the cross-check, however
    // short the run.
    let min_ops = if corrupt { 200 } else { 1 };
    let mut done = 0u64;
    while done < min_ops || !deadline.passed() {
        report.oracle.attempt();
        match driver.step(backend, door) {
            Ok(d) => {
                phase.samples.push_op(d.wall_s);
                match d.kind {
                    Kind::Lookup => phase.lookup_us.push(d.wall_s * 1e6),
                    Kind::Write => phase.write_us.push(d.wall_s * 1e6),
                    Kind::Purge => {}
                }
                if let Some((req, wire)) = d.lookup {
                    if driver.lookups % 100 == 0 {
                        let mut local = door.svc.lookup(&req).expect("in-process lookup");
                        // Test hook: the oracle must notice a wrong answer.
                        local.hit_count += usize::from(std::mem::take(&mut corrupt));
                        let same = wire.annotations == local.annotations
                            && wire.tier2 == local.tier2
                            && wire.latency == local.latency
                            && wire.hit_count == local.hit_count;
                        report.oracle.check(same, || {
                            format!("wire lookup for job {} differs from in-process", req.job)
                        });
                    }
                }
            }
            Err(e) => report.oracle.fail(|| format!("request failed: {e}")),
        }
        done += 1;
    }
    phase.samples.close_stretch();
}

/// Replays the log into a fresh service and compares fingerprints.
fn check_recovery(door: Door, report: &mut RunReport) -> f64 {
    let Door {
        svc,
        store,
        server,
        root,
        ..
    } = door;
    if let Some(s) = server {
        s.shutdown();
    }
    let expected = svc.fingerprint();
    drop((svc, store));
    let t = Instant::now();
    let (_, recovered) = DurableStore::open(root.path(), u64::MAX).expect("reopen durable store");
    let fresh = MetadataService::new(Arc::new(SimClock::new()), 4);
    for ev in &recovered.events {
        fresh.apply_event(ev);
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    report.oracle.check(fresh.fingerprint() == expected, || {
        "replayed log does not reproduce the service's state".into()
    });
    report.note("wal_events", recovered.events.len());
    ms
}

fn sizes(cfg: &Config) -> (usize, usize, u64) {
    match cfg.size {
        Size::Full => (TEMPLATES_FULL, SCHEDULE_OPS, 20_000),
        Size::Tiny => (TEMPLATES_TINY, 4_096, 1_000),
    }
}

/// Set-up: the schedule, the logged service behind its front door, and a
/// warm-up long enough to fill the catalog to its steady size.
fn setup(cfg: &Config) -> (Door, Driver, NetClient) {
    let (templates, schedule_ops, warm_ops) = sizes(cfg);
    let ops = Arc::new(schedule(cfg.seed, templates, schedule_ops));
    let door = Door::open(templates, true, false);
    let mut driver = Driver::new(ops);
    let mut backend = Backend::Wire(door.client());
    for _ in 0..warm_ops {
        driver.step(&mut backend, &door).expect("warm-up request");
    }
    let Backend::Wire(client) = backend else {
        unreachable!()
    };
    (door, driver, client)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> RunReport {
    let mut report = RunReport::default();
    // Before any thread is spawned, so the server's threads inherit it.
    report.note("pinned_to_one_cpu", pin_to_cpu(0));
    let (templates, _, warm_ops) = sizes(cfg);
    report.note("templates", templates);
    report.note("clients", "1 thread, closed loop");
    report.note("threads", "1 client + 1 server worker (+ acceptor)");
    report.note("warm_up_ops", warm_ops);

    // (Each door is dropped before the next set-up: its server thread would
    // compete with the set-up being timed.)
    let ((door, mut driver, client), setup_s) = timed_setups(cfg, || setup(cfg));
    let head = &driver.ops[..driver.ops.len().min(4_096)];
    report.note("schedule_hash", sip128(format!("{head:?}").as_bytes()));
    let mut backend = Backend::Wire(client);

    if !cfg.trace {
        let mut phase = WirePhase::default();
        let (hits0, lookups0) = (driver.hits, driver.lookups);
        let deadline = Deadline::after(cfg.seconds);
        saturated(
            &door,
            &mut driver,
            &mut backend,
            &deadline,
            cfg.corrupt_one_checksum,
            &mut report,
            &mut phase,
        );
        phase.samples.hits = driver.hits - hits0;
        let lookups = (driver.lookups - lookups0).max(1);
        report.note("lookups", lookups);
        report.note("writes", phase.write_us.seen());
        report.note("registered_views", door.svc.num_views());
        set_end_to_end(&mut report, &setup_s, &mut phase.samples);
        // Of lookups, not of all ops: the share that found an annotation.
        report.set("reuse_hit_rate", phase.samples.hits as f64 / lookups as f64);
        drop(backend);
        check_recovery(door, &mut report);
        return report;
    }

    traced(cfg, door, driver, backend, &mut report);
    report
}

/// The traced run: a saturated wire phase, the same ops replayed in
/// process under spans, codec and `stats` round trips, then the paced
/// phase.
fn traced(
    cfg: &Config,
    door: Door,
    mut driver: Driver,
    mut backend: Backend<'_>,
    report: &mut RunReport,
) {
    let mut phase = WirePhase::default();
    let first_op = driver.next;
    let frames0 = door.telemetry.metrics.snapshot();
    let deadline = Deadline::after(cfg.seconds * 0.35);
    saturated(
        &door,
        &mut driver,
        &mut backend,
        &deadline,
        false,
        report,
        &mut phase,
    );
    let wire_ops = driver.next - first_op;
    let wire_wall_s = phase.samples.raw_busy_s;
    set_tail(report, &mut phase.samples);
    let lookups = phase.lookup_us.sorted();
    let writes = phase.write_us.sorted();
    report.set("net.lookup_wall_us_p50", loose_percentile(&lookups, 50.0));
    report.set("net.lookup_wall_us_p99", loose_percentile(&lookups, 99.0));
    report.set("net.write_wall_us_p50", loose_percentile(&writes, 50.0));
    report.set("net.write_wall_us_p99", loose_percentile(&writes, 99.0));
    report.note("wire_ops", wire_ops);

    // Bytes on the wire per lookup, from the server's own counters over a
    // lookup-only stretch.
    let Backend::Wire(client) = &mut backend else {
        unreachable!()
    };
    let before = door.telemetry.metrics.snapshot();
    let probe = LookupRequest::new(
        JobId::new(1),
        &[Symbol::intern("frontdoor/tag/0")],
        driver.now(),
    );
    let mut rtts = Vec::new();
    for _ in 0..1_000 {
        client.lookup(&probe).expect("probe lookup");
    }
    let after = door.telemetry.metrics.snapshot();
    let bytes = |s: &scope_common::telemetry::MetricsSnapshot| {
        s.counter("cv_net_bytes_read_total") + s.counter("cv_net_bytes_written_total")
    };
    report.set(
        "net.bytes_per_lookup",
        (bytes(&after) - bytes(&before)) as f64 / 1_000.0,
    );
    for _ in 0..1_000 {
        let t = Instant::now();
        client.stats().expect("stats round trip");
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.set("net.rtt_us_p50", loose_percentile(&sorted(rtts), 50.0));

    // Codec: encode + decode of a request and of its response, per frame.
    let resp = Response::Lookup(door.svc.lookup(&probe).expect("probe lookup"));
    let req = Request::Lookup(probe.clone());
    let rounds = 20_000u32;
    let t = Instant::now();
    for _ in 0..rounds {
        let (ty, payload) = req.encode();
        std::hint::black_box(Request::decode(ty, &payload).expect("request decodes"));
        let (ty, payload) = resp.encode();
        std::hint::black_box(Response::decode(ty, &payload).expect("response decodes"));
    }
    let codec_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(rounds) / 2.0;
    report.set("net.codec_us_per_frame", codec_us);

    // Paced phase: open loop, each request timed from when it was due.
    let paced_s = (cfg.seconds * 0.3).max(0.2);
    let gap = Duration::from_secs_f64(1.0 / PACED_OPS_PER_S);
    let start = Instant::now() + Duration::from_millis(20);
    let (mut paced_us, mut late_us) = (Vec::new(), Vec::new());
    let mut n = 0u32;
    while start.elapsed().as_secs_f64() < paced_s {
        let due = start + gap * n;
        n += 1;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        report.oracle.attempt();
        match driver.step(&mut backend, &door) {
            Ok(d) if d.kind == Kind::Lookup => {
                paced_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6)
            }
            Ok(_) => {}
            Err(e) => report.oracle.fail(|| format!("paced request failed: {e}")),
        }
    }
    let paced = sorted(paced_us);
    report.set("net.paced_lookup_us_p50", loose_percentile(&paced, 50.0));
    report.set("net.paced_lookup_us_p99", loose_percentile(&paced, 99.0));
    report.set(
        "net.generator_late_us_p99",
        loose_percentile(&sorted(late_us), 99.0),
    );
    report.note("paced_ops", n);

    let counters = door.telemetry.metrics.snapshot();
    let frames = counters.counter("cv_net_frames_total") - frames0.counter("cv_net_frames_total");
    let refused =
        counters.counter("cv_net_shed_total") + counters.counter("cv_net_quota_rejections_total");
    report.set("net.shed_frac", refused as f64 / frames.max(1) as f64);
    let total_ops = driver.next;
    let wal = dir_usage(&door.root.path().join("meta")).0 as f64;
    report.set(
        "store.disk_bytes_per_op",
        dir_usage(door.root.path()).0 as f64 / total_ops as f64,
    );
    report.set("store.wal_bytes_per_job", wal / total_ops as f64);
    let ops = Arc::clone(&driver.ops);
    let templates = door.templates;
    drop(backend);
    let recovery_ms = check_recovery(door, report);
    report.set("store.recovery_ms", recovery_ms);

    // In-process replay of the same schedule from its start, on a second
    // service whose WAL appends the replay makes itself, under spans.
    let local = Door::open(templates, false, true);
    let rec = Recorder::new(true);
    let mut replay = Driver::new(ops);
    let mut local_backend = Backend::Local {
        svc: &local.svc,
        store: &local.store,
        rec: &rec,
    };
    let replay_ops = (first_op + wire_ops).min(400_000);
    for _ in 0..replay_ops {
        let id = replay.next;
        if let Err(e) = rec.job(id, || replay.step(&mut local_backend, &local)) {
            report
                .oracle
                .fail(|| format!("in-process replay failed: {e}"));
        }
    }
    let spans = rec.into_spans();
    let t = TraceSummary::of(&spans);
    let local_lookups = durations_us(&spans, "meta.lookup");
    report.set("meta.lookup_us_p50", loose_percentile(&local_lookups, 50.0));
    report.set("meta.lookup_us_p99", loose_percentile(&local_lookups, 99.0));
    report.set(
        "meta.propose_us_p50",
        loose_percentile(&durations_us(&spans, "meta.propose"), 50.0),
    );
    report.set(
        "meta.report_us_p50",
        loose_percentile(&durations_us(&spans, "meta.report"), 50.0),
    );
    let purges = durations_us(&spans, "meta.purge");
    report.set(
        "meta.purge_ms_per_round",
        purges.iter().sum::<f64>() / 1e3 / purges.len().max(1) as f64,
    );
    let appends = durations_us(&spans, "store.append");
    report.set("store.append_us_p50", loose_percentile(&appends, 50.0));
    report.set("store.append_us_p99", loose_percentile(&appends, 99.0));
    report.set(
        "net.wire_overhead_us",
        loose_percentile(&lookups, 50.0) - loose_percentile(&local_lookups, 50.0),
    );

    // Shares of the wire's per-op wall. The service and the log are timed
    // in process; what is left of the wire's wall is the network layer —
    // codec, syscalls, loopback TCP, the hand-off between client and worker
    // thread — measured by difference.
    let wire_per_op = wire_wall_s / wire_ops.max(1) as f64;
    let per_op = |layer: &str| {
        t.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9 / t.jobs.max(1) as f64
    };
    // (The replayed op's own self time is the bench building the request,
    // which the wire loop does outside its timer; it is in neither.)
    let meta_share = per_op("meta") / wire_per_op;
    let store_share = per_op("store") / wire_per_op;
    report.set("meta.share", meta_share);
    report.set("store.share", store_share);
    report.set("trace.layer_sum_ratio", 1.0);
    report.note(
        "net_share_by_difference",
        format!("{:.4}", 1.0 - meta_share - store_share),
    );
    report.note("replayed_ops", t.jobs);
    report.note("traced_spans", spans.len());
    design_check(
        report,
        cfg,
        "net share (by difference)",
        1.0 - meta_share - store_share,
        0.5,
        1.0,
    );
    let tail = spans.len().saturating_sub(50_000);
    write_trace_file(report, "frontdoor_mixed", &spans[tail..]);
}
