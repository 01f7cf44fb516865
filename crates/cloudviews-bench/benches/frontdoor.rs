//! Network front-door benchmark (DESIGN.md §13).
//!
//! Drives the loopback TCP server the way the paper's metadata service is
//! driven in production — many tenants, bursty arrivals — and records the
//! client-visible numbers in `BENCH_frontdoor.json` at the repo root:
//!
//! 1. **Open-loop latency** — a heavy-tailed arrival process (log-normal
//!    interarrivals, Zipf-skewed template popularity from
//!    `scope_workload::dists`) across four VCs, offered *below* the
//!    configured per-VC quota. Requests fire on schedule regardless of
//!    completions (open loop: queueing delay is measured, not hidden).
//!    Gated: p50/p99 client-side lookup latency and a shed rate of ≈ 0 —
//!    below quota, admission must be invisible.
//! 2. **Saturation throughput** — closed-loop hammering from one client
//!    thread per worker, no pacing, quota off. Gated: completed lookups
//!    per second at the plateau.
//!
//! `BENCH_QUICK=1` shrinks the request counts for CI.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudviews::analyzer::SelectedView;
use cloudviews::api::LookupRequest;
use cloudviews::metadata::MetadataService;
use scope_common::hash::Sig128;
use scope_common::ids::{JobId, VcId};
use scope_common::telemetry::Telemetry;
use scope_common::time::{SimClock, SimDuration, SimTime};
use scope_common::Symbol;
use scope_engine::optimizer::Annotation;
use scope_net::{NetClient, NetServer, QuotaConfig, ServerConfig};
use scope_plan::PhysicalProps;
use scope_workload::dists::{rng_for, LogNormal, Zipf};

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Annotation templates: each carries its own tag, so a lookup's fan-out is
/// one inverted-index hit (the front door is under test, not the cascade).
const TEMPLATES: usize = 128;
const VCS: u64 = 4;
const SENDERS_PER_VC: usize = 4;

fn fixture() -> Vec<SelectedView> {
    (0..TEMPLATES)
        .map(|i| SelectedView {
            annotation: Annotation {
                normalized: scope_common::sip128(format!("fd/norm/{i}").as_bytes()),
                props: PhysicalProps::any(),
                ttl: SimDuration::from_secs(86_400),
                avg_cpu: SimDuration::from_secs(10),
                avg_rows: 100,
                avg_bytes: 1_000,
            },
            input_tags: vec![Symbol::intern(&format!("fd/tag/{i}"))],
            utility: SimDuration::from_secs(30),
            frequency: 2,
            precise_last_seen: Sig128::ZERO,
        })
        .collect()
}

fn service() -> Arc<MetadataService> {
    let m = MetadataService::new(Arc::new(SimClock::new()), 4);
    m.load_annotations(&fixture());
    Arc::new(m)
}

fn lookup_for(template: usize, job: u64, vc: u64) -> LookupRequest {
    LookupRequest::new(
        JobId::new(job),
        &[Symbol::intern(&format!("fd/tag/{template}"))],
        SimTime(1_000_000),
    )
    .for_vc(VcId::new(vc))
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct OpenLoopNumbers {
    total_requests: u64,
    span_secs: f64,
    offered_ops_per_sec: f64,
    p50_micros: u64,
    p99_micros: u64,
    max_micros: u64,
    shed_total: u64,
    quota_rejections: u64,
    failures: u64,
}

/// Open-loop run: every sender owns a schedule of absolute fire times drawn
/// from a log-normal interarrival process and fires on time (or as soon as
/// it is behind schedule), whatever happened to the previous request.
fn bench_open_loop(requests_per_sender: usize) -> OpenLoopNumbers {
    let telemetry = Telemetry::new();
    let server = NetServer::spawn(
        service(),
        Arc::clone(&telemetry),
        ServerConfig {
            // One worker per sender connection: the gate measures request
            // latency, not the pool's idle-tick rotation pickup (an
            // undersized pool parks idle connections between requests and
            // notices their next frame up to one idle poll late).
            workers: VCS as usize * SENDERS_PER_VC,
            // Plenty for the offered load; the run must stay below quota.
            quota: Some(QuotaConfig {
                rate_per_sec: 50_000.0,
                burst: 50_000.0,
            }),
            ..ServerConfig::default()
        },
    )
    .expect("spawn front door");
    let addr = server.addr();

    let start = Instant::now() + Duration::from_millis(50);
    let mut handles = Vec::new();
    for vc in 0..VCS {
        for sender in 0..SENDERS_PER_VC {
            let handle = std::thread::spawn(move || {
                let mut rng = rng_for(42, &format!("frontdoor/arrivals/{vc}/{sender}"));
                // Heavy-tailed interarrivals: median ~2 ms, p99 ~20+ ms per
                // sender (sigma 1.0), aggregate offered rate ~5k/s.
                let interarrival = LogNormal::new((0.002f64).ln(), 1.0, 0.000_2, 0.080);
                let popularity = Zipf::new(TEMPLATES, 1.1);
                let mut client = NetClient::connect(addr).expect("connect");
                let mut at = Duration::ZERO;
                let mut latencies = Vec::with_capacity(requests_per_sender);
                let mut failures = 0u64;
                for i in 0..requests_per_sender {
                    at += Duration::from_secs_f64(interarrival.sample(&mut rng));
                    let fire = start + at;
                    if let Some(wait) = fire.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let template = popularity.sample(&mut rng);
                    let job = vc * 1_000_000 + sender as u64 * 10_000 + i as u64;
                    let t = Instant::now();
                    match client.lookup(&lookup_for(template, job, vc)) {
                        Ok(resp) => {
                            debug_assert!(!resp.annotations.is_empty());
                            latencies.push(t.elapsed().as_micros() as u64);
                        }
                        Err(_) => failures += 1,
                    }
                }
                (latencies, failures)
            });
            handles.push(handle);
        }
    }
    let mut latencies = Vec::new();
    let mut failures = 0u64;
    for h in handles {
        let (l, f) = h.join().expect("sender thread");
        latencies.extend(l);
        failures += f;
    }
    let span_secs = start.elapsed().as_secs_f64();
    latencies.sort_unstable();

    let snap = telemetry.metrics.snapshot();
    let numbers = OpenLoopNumbers {
        total_requests: (VCS as usize * SENDERS_PER_VC * requests_per_sender) as u64,
        span_secs,
        offered_ops_per_sec: (VCS as usize * SENDERS_PER_VC * requests_per_sender) as f64
            / span_secs,
        p50_micros: percentile(&latencies, 0.50),
        p99_micros: percentile(&latencies, 0.99),
        max_micros: latencies.last().copied().unwrap_or(0),
        shed_total: snap.counter("cv_net_shed_total"),
        quota_rejections: snap.counter("cv_net_quota_rejections_total"),
        failures,
    };
    server.shutdown();
    numbers
}

struct SaturationNumbers {
    threads: usize,
    total_ops: u64,
    wall_secs: f64,
    ops_per_sec: f64,
}

/// Closed-loop saturation: one client thread per server worker, no pacing,
/// quota off. Measures the plateau the front door can sustain.
fn bench_saturation(threads: usize, ops_per_thread: usize) -> SaturationNumbers {
    let server = NetServer::spawn(
        service(),
        Telemetry::new(),
        ServerConfig {
            workers: threads,
            ..ServerConfig::default()
        },
    )
    .expect("spawn front door");
    let addr = server.addr();

    let t = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for i in 0..ops_per_thread {
                    let template = (tid * 31 + i) % TEMPLATES;
                    let resp = client
                        .lookup(&lookup_for(
                            template,
                            (tid * 100_000 + i) as u64,
                            tid as u64,
                        ))
                        .expect("saturation lookup");
                    debug_assert!(!resp.annotations.is_empty());
                }
            });
        }
    });
    let wall_secs = t.elapsed().as_secs_f64();
    server.shutdown();
    let total_ops = (threads * ops_per_thread) as u64;
    SaturationNumbers {
        threads,
        total_ops,
        wall_secs,
        ops_per_sec: total_ops as f64 / wall_secs,
    }
}

fn main() {
    let quick = quick();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let requests_per_sender = if quick { 100 } else { 750 };
    let sat_threads = cores.clamp(2, 8);
    // Long enough that the plateau, not startup, dominates the wall clock
    // (~80k lookups/s/thread-pair means 2k ops finish in 50 ms — all noise).
    let sat_ops = if quick { 20_000 } else { 60_000 };

    // Warm once: interner, allocator, and the TCP stack all touched before
    // anything is timed.
    bench_saturation(2, 200);

    // Each loop runs three times and the artifact records the median run:
    // the loopback tail belongs to the scheduler, and the gates guard
    // order-of-magnitude regressions (a Nagle stall, a starved admission
    // queue), not run-to-run jitter. Admission counters are summed across
    // every run — below-quota traffic must never be refused, lucky run or
    // not.
    let mut opens: Vec<OpenLoopNumbers> = (0..3)
        .map(|_| {
            let open = bench_open_loop(requests_per_sender);
            println!(
                "frontdoor/open-loop   {} reqs over {:.2}s ({:.0}/s offered)   p50 {} µs   p99 {} µs   max {} µs",
                open.total_requests,
                open.span_secs,
                open.offered_ops_per_sec,
                open.p50_micros,
                open.p99_micros,
                open.max_micros,
            );
            open
        })
        .collect();
    let refused: u64 = opens
        .iter()
        .map(|o| o.shed_total + o.quota_rejections + o.failures)
        .sum();
    let offered: u64 = opens.iter().map(|o| o.total_requests).sum();
    opens.sort_by_key(|o| o.p99_micros);
    let open = &opens[1];
    println!(
        "frontdoor/admission   shed {}   over-quota {}   failures {}   (all runs)",
        opens.iter().map(|o| o.shed_total).sum::<u64>(),
        opens.iter().map(|o| o.quota_rejections).sum::<u64>(),
        opens.iter().map(|o| o.failures).sum::<u64>(),
    );

    let mut sats: Vec<SaturationNumbers> = (0..3)
        .map(|_| {
            let sat = bench_saturation(sat_threads, sat_ops);
            println!(
                "frontdoor/saturation  {} threads   {} ops in {:.2}s   {:.0} lookups/s",
                sat.threads, sat.total_ops, sat.wall_secs, sat.ops_per_sec,
            );
            sat
        })
        .collect();
    sats.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
    let sat = &sats[1];

    let shed_rate = refused as f64 / offered as f64;
    let shed_rate_ok = shed_rate < 0.001;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"frontdoor\",\n",
            "  \"quick\": {quick},\n",
            "  \"cores\": {cores},\n",
            "  \"open_loop\": {{\n",
            "    \"vcs\": {vcs},\n",
            "    \"senders_per_vc\": {senders},\n",
            "    \"total_requests\": {total},\n",
            "    \"span_secs\": {span:.3},\n",
            "    \"offered_ops_per_sec\": {offered:.1},\n",
            "    \"max_lookup_wall_micros\": {maxl},\n",
            "    \"shed_total\": {shed},\n",
            "    \"quota_rejections_total\": {quota},\n",
            "    \"client_failures\": {failures}\n",
            "  }},\n",
            "  \"p50_lookup_wall_micros\": {p50},\n",
            "  \"p99_lookup_wall_micros\": {p99},\n",
            "  \"shed_rate\": {shed_rate:.6},\n",
            "  \"shed_rate_ok\": {shed_ok},\n",
            "  \"saturation_threads\": {sthreads},\n",
            "  \"saturation_total_ops\": {sops},\n",
            "  \"saturation_wall_secs\": {swall:.3},\n",
            "  \"saturation_ops_per_sec\": {srate:.1}\n",
            "}}\n"
        ),
        quick = quick,
        cores = cores,
        vcs = VCS,
        senders = SENDERS_PER_VC,
        total = open.total_requests,
        span = open.span_secs,
        offered = open.offered_ops_per_sec,
        maxl = open.max_micros,
        shed = open.shed_total,
        quota = open.quota_rejections,
        failures = open.failures,
        p50 = open.p50_micros,
        p99 = open.p99_micros,
        shed_rate = shed_rate,
        shed_ok = shed_rate_ok,
        sthreads = sat.threads,
        sops = sat.total_ops,
        swall = sat.wall_secs,
        srate = sat.ops_per_sec,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontdoor.json");
    std::fs::write(path, &json).unwrap();
    println!("frontdoor: wrote {path}");

    assert!(
        shed_rate_ok,
        "below-quota traffic must not be refused: {refused}/{offered} requests across all runs",
    );
    assert!(
        open.p99_micros < 1_000_000,
        "p99 loopback lookup took {} µs — a worker is stalling",
        open.p99_micros
    );
}
