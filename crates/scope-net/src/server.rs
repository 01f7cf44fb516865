//! The threaded TCP front door: one acceptor, a fixed worker pool, bounded
//! admission, and per-VC token-bucket quotas.
//!
//! Threads, a bounded semaphore + condvar and poison-recovering locks
//! rather than async I/O:
//!
//! * the **acceptor** thread owns the listener. Accepted connections go
//!   into a *bounded* pending queue; when the queue is full the connection
//!   is answered with a `Busy` error frame and closed — load is shed at the
//!   door, never queued without bound (the paper's metadata service sits on
//!   the job-submission hot path, where queueing delay is the failure mode);
//! * **workers** (fixed pool) pop connections and serve frames until the
//!   peer disconnects or goes idle past the configured horizon. Connections
//!   are reused across requests — one TCP round trip per request, not per
//!   session;
//! * each request is charged against its VC's **token bucket** before any
//!   service work happens. An empty bucket answers `OverQuota` without
//!   touching the metadata service, so one tenant's burst cannot consume
//!   another's lookup capacity. A refill rate of zero makes the bucket a
//!   fixed budget (deterministic for tests).
//!
//! Every stage is counted under `cv_net_*` metrics: frames by type, bytes
//! both ways, queue depth, sheds, quota rejections, and per-endpoint wall
//! latency.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cloudviews::metadata::MetadataService;
use scope_common::telemetry::{Counter, Gauge, Histogram, MetricUnit, MetricsRegistry, Telemetry};
use scope_common::{Result, ScopeError};

use crate::proto::{ErrorFrame, ErrorKind, Request, Response};
use crate::wire::{read_frame, write_frame, WireError, HEADER_LEN};

/// Per-VC token-bucket parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuotaConfig {
    /// Tokens added per second. `0.0` disables refill — the bucket is a
    /// fixed budget of `burst` requests (deterministic tests).
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest burst a VC can spend at once. Buckets
    /// start full.
    pub burst: f64,
}

/// Front-door server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks an ephemeral port (tests, loopback
    /// benches); read the bound address back via [`NetServer::addr`].
    pub addr: String,
    /// Worker threads. Each serves one connection at a time, so this is
    /// also the concurrent-connection bound.
    pub workers: usize,
    /// Pending-connection queue bound. An accept beyond this is shed with
    /// a `Busy` frame instead of queued.
    pub max_pending: usize,
    /// Per-VC token bucket; `None` admits everything.
    pub quota: Option<QuotaConfig>,
    /// Poll interval for shutdown checks on idle reads.
    pub idle_poll: Duration,
    /// A connection idle past this horizon is closed, freeing its worker.
    pub idle_timeout: Duration,
}

/// Once a frame has *started* arriving, the peer has this long to deliver
/// the rest of it. Bounds how long a slow (or slow-loris) peer can hold a
/// worker mid-frame, and keeps the idle poll from ever splitting a frame
/// that arrives across TCP segments.
const FRAME_READ_DEADLINE: Duration = Duration::from_secs(5);

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_pending: 64,
            quota: None,
            idle_poll: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Pre-resolved `cv_net_*` metric handles (the `MetadataMetrics` pattern:
/// resolve once at startup, never take the registry lock on the hot path).
struct NetMetrics {
    connections: Counter,
    disconnects: Counter,
    shed: Counter,
    quota_rejections: Counter,
    malformed: Counter,
    frames: Counter,
    frames_lookup: Counter,
    frames_propose: Counter,
    frames_report: Counter,
    frames_purge: Counter,
    frames_stats: Counter,
    error_responses: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    queue_depth: Gauge,
    lookup_wall: Histogram,
    propose_wall: Histogram,
    report_wall: Histogram,
}

impl NetMetrics {
    fn new(m: &MetricsRegistry) -> NetMetrics {
        NetMetrics {
            connections: m.counter("cv_net_connections_total"),
            disconnects: m.counter("cv_net_disconnects_total"),
            shed: m.counter("cv_net_shed_total"),
            quota_rejections: m.counter("cv_net_quota_rejections_total"),
            malformed: m.counter("cv_net_malformed_total"),
            frames: m.counter("cv_net_frames_total"),
            frames_lookup: m.counter("cv_net_frames_lookup_total"),
            frames_propose: m.counter("cv_net_frames_propose_total"),
            frames_report: m.counter("cv_net_frames_report_total"),
            frames_purge: m.counter("cv_net_frames_purge_total"),
            frames_stats: m.counter("cv_net_frames_stats_total"),
            error_responses: m.counter("cv_net_error_responses_total"),
            bytes_read: m.counter("cv_net_bytes_read_total"),
            bytes_written: m.counter("cv_net_bytes_written_total"),
            queue_depth: m.gauge("cv_net_queue_depth"),
            lookup_wall: m.histogram("cv_net_lookup_wall_micros", MetricUnit::WallMicros),
            propose_wall: m.histogram("cv_net_propose_wall_micros", MetricUnit::WallMicros),
            report_wall: m.histogram("cv_net_report_wall_micros", MetricUnit::WallMicros),
        }
    }
}

/// One VC's bucket state.
struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// Per-VC token buckets behind one lock (quota checks are a handful of
/// float ops; contention is negligible next to the socket round trip).
struct Quota {
    config: QuotaConfig,
    buckets: Mutex<HashMap<u64, Bucket>>,
}

impl Quota {
    fn new(config: QuotaConfig) -> Quota {
        Quota {
            config,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Charges one token against `vc`'s bucket; `false` means over quota.
    fn admit(&self, vc: u64) -> bool {
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let now = Instant::now();
        let b = buckets.entry(vc).or_insert(Bucket {
            tokens: self.config.burst,
            last_refill: now,
        });
        if self.config.rate_per_sec > 0.0 {
            let elapsed = now.duration_since(b.last_refill).as_secs_f64();
            b.tokens = (b.tokens + elapsed * self.config.rate_per_sec).min(self.config.burst);
            b.last_refill = now;
        }
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Bounded pending-connection queue (a counting semaphore with the
/// connection riding along; a poisoned mutex is recovered, not propagated).
/// Each entry carries the connection's idle-since instant so the idle
/// horizon keeps accruing across worker rotations.
struct ConnQueue {
    pending: Mutex<VecDeque<(TcpStream, Instant)>>,
    max: usize,
    wake: Condvar,
}

impl ConnQueue {
    fn new(max: usize) -> ConnQueue {
        ConnQueue {
            pending: Mutex::new(VecDeque::new()),
            max,
            wake: Condvar::new(),
        }
    }

    /// Enqueues unless full; a full queue returns the entry for shedding
    /// (or, on a rotation push, for the worker to keep serving).
    fn push(
        &self,
        conn: TcpStream,
        idle_since: Instant,
    ) -> std::result::Result<usize, (TcpStream, Instant)> {
        let mut q = self
            .pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if q.len() >= self.max {
            return Err((conn, idle_since));
        }
        q.push_back((conn, idle_since));
        let depth = q.len();
        drop(q);
        self.wake.notify_one();
        Ok(depth)
    }

    /// Pops the next connection, waiting at most `timeout`.
    fn pop(&self, timeout: Duration) -> Option<(TcpStream, Instant, usize)> {
        let mut q = self
            .pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if q.is_empty() {
            let (guard, _) = self
                .wake
                .wait_timeout(q, timeout)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            q = guard;
        }
        let (conn, idle_since) = q.pop_front()?;
        Some((conn, idle_since, q.len()))
    }

    /// Connections currently waiting for a worker.
    fn backlog(&self) -> usize {
        self.pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }
}

struct Shared {
    service: Arc<MetadataService>,
    metrics: NetMetrics,
    quota: Option<Quota>,
    queue: ConnQueue,
    shutdown: AtomicBool,
    config: ServerConfig,
}

/// A running front-door server. Dropping it (or calling
/// [`NetServer::shutdown`]) stops the acceptor, drains the workers, and
/// joins every thread.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `config.addr` and spawns the acceptor + worker pool.
    pub fn spawn(
        service: Arc<MetadataService>,
        telemetry: Arc<Telemetry>,
        config: ServerConfig,
    ) -> Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ScopeError::ServiceUnavailable(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ScopeError::ServiceUnavailable(format!("local_addr: {e}")))?;
        let shared = Arc::new(Shared {
            service,
            metrics: NetMetrics::new(&telemetry.metrics),
            quota: config.quota.map(Quota::new),
            queue: ConnQueue::new(config.max_pending.max(1)),
            shutdown: AtomicBool::new(false),
            config: config.clone(),
        });

        let mut threads = Vec::with_capacity(config.workers + 1);
        let acceptor_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("scope-net-acceptor".into())
                .spawn(move || acceptor(listener, &acceptor_shared))
                .map_err(|e| ScopeError::ServiceUnavailable(format!("spawn acceptor: {e}")))?,
        );
        for i in 0..config.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("scope-net-worker-{i}"))
                    .spawn(move || worker(&worker_shared))
                    .map_err(|e| ScopeError::ServiceUnavailable(format!("spawn worker: {e}")))?,
            );
        }
        Ok(NetServer {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (read this after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains workers, joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection; it re-checks
        // the flag after every accept.
        let _ = TcpStream::connect(self.addr);
        self.shared.queue.wake.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor(listener: TcpListener, shared: &Shared) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.metrics.connections.inc();
        match shared.queue.push(conn, Instant::now()) {
            Ok(depth) => shared.metrics.queue_depth.set(depth as i64),
            Err((conn, _)) => shed(conn, shared),
        }
    }
}

/// Answers a connection the queue cannot hold with `Busy` and closes it.
fn shed(mut conn: TcpStream, shared: &Shared) {
    shared.metrics.shed.inc();
    let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
    let busy = Response::Error(ErrorFrame::new(
        ErrorKind::Busy,
        "admission queue full; retry with backoff",
    ));
    let (ty, payload) = busy.encode();
    let _ = write_frame(&mut conn, ty, &payload);
}

fn worker(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let Some((conn, idle_since, depth)) = shared.queue.pop(shared.config.idle_poll) else {
            continue;
        };
        shared.metrics.queue_depth.set(depth as i64);
        serve_connection(conn, idle_since, shared);
    }
}

/// Serves one connection until disconnect, idle timeout, a framing error,
/// or shutdown. Request frames keep arriving on the same socket —
/// connection reuse is the client's norm, not an optimization.
///
/// Reads go through one buffer: a request that arrived whole is parsed from
/// it with a single read, and only a frame still partly on the wire gets
/// the full frame deadline for its rest. Waiting for a frame to *start*
/// polls at the idle tick (cheap shutdown checks) — never mid-frame, where
/// the poll timeout would fire between a frame's TCP segments and misframe
/// a healthy connection.
///
/// Fairness: a worker does not camp on an idle connection while other
/// connections wait. At each idle tick with a non-empty backlog it parks
/// its connection back into the queue and picks up the next, so the pool
/// multiplexes arbitrarily many mostly-idle connections at idle-poll
/// granularity instead of starving everything past `workers`. Only a
/// connection with nothing buffered is parked, so no received byte is lost.
/// (A full queue skips the rotation — the worker keeps what it has rather
/// than dropping a healthy connection.) Latency-sensitive deployments still
/// provision `workers` at or above the expected concurrent connections: a
/// parked connection's next request waits up to one idle tick to be
/// noticed.
fn serve_connection(conn: TcpStream, mut idle_since: Instant, shared: &Shared) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(shared.config.idle_poll));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
    let mut conn = BufReader::new(conn);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if conn.buffer().is_empty() {
            match conn.fill_buf() {
                Ok([]) => {
                    // Read of zero bytes: orderly disconnect.
                    shared.metrics.disconnects.inc();
                    return;
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if idle_since.elapsed() > shared.config.idle_timeout {
                        shared.metrics.disconnects.inc();
                        return;
                    }
                    if shared.queue.backlog() > 0 {
                        match shared.queue.push(conn.into_inner(), idle_since) {
                            Ok(depth) => {
                                shared.metrics.queue_depth.set(depth as i64);
                                return;
                            }
                            Err((c, _)) => conn = BufReader::new(c),
                        }
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    shared.metrics.disconnects.inc();
                    return;
                }
            }
        }
        let whole = holds_whole_frame(conn.buffer());
        if !whole {
            let _ = conn.get_ref().set_read_timeout(Some(FRAME_READ_DEADLINE));
        }
        let frame = read_frame(&mut conn);
        if !whole {
            let _ = conn
                .get_ref()
                .set_read_timeout(Some(shared.config.idle_poll));
        }
        let (ty, payload) = match frame {
            Ok(frame) => frame,
            Err(WireError::Io(_)) => {
                // Disconnect or mid-frame stall past the deadline. The
                // worker simply moves on to the next pending connection —
                // nothing is wedged.
                shared.metrics.disconnects.inc();
                return;
            }
            Err(e) => {
                // Framing is broken (bad magic/version/type/length): answer
                // once, then close — the byte stream can't be resynced.
                shared.metrics.malformed.inc();
                respond(
                    conn.get_mut(),
                    shared,
                    Response::Error(ErrorFrame::new(ErrorKind::Malformed, e.to_string())),
                );
                return;
            }
        };
        idle_since = Instant::now();
        shared.metrics.frames.inc();
        shared
            .metrics
            .bytes_read
            .add((HEADER_LEN + payload.len()) as u64);
        let req = match Request::decode(ty, &payload) {
            Ok(req) => req,
            Err(e) => {
                // The frame parsed but the payload didn't: the stream is
                // still framed, so answer and keep serving.
                shared.metrics.malformed.inc();
                if !respond(
                    conn.get_mut(),
                    shared,
                    Response::Error(ErrorFrame::new(ErrorKind::Malformed, e.to_string())),
                ) {
                    return;
                }
                continue;
            }
        };
        let response = process(req, shared);
        if !respond(conn.get_mut(), shared, response) {
            shared.metrics.disconnects.inc();
            return;
        }
    }
}

/// Runs one decoded request: quota first, then the service call. The
/// request is dead afterwards, so a report's view moves into the service.
fn process(req: Request, shared: &Shared) -> Response {
    let m = &shared.metrics;
    match &req {
        Request::Lookup(_) => m.frames_lookup.inc(),
        Request::Propose(_) => m.frames_propose.inc(),
        Request::Report(_) => m.frames_report.inc(),
        Request::Purge => m.frames_purge.inc(),
        Request::Stats => m.frames_stats.inc(),
    }
    if let (Some(quota), Some(vc)) = (&shared.quota, req.vc()) {
        if !quota.admit(vc.raw()) {
            m.quota_rejections.inc();
            return Response::Error(ErrorFrame::new(
                ErrorKind::OverQuota,
                format!("vc {} token bucket empty", vc.raw()),
            ));
        }
    }
    let failed = |e: ScopeError| Response::Error(ErrorFrame::from_scope_error(&e));
    let start = Instant::now();
    let (response, wall) = match req {
        Request::Lookup(r) => (
            shared
                .service
                .lookup(&r)
                .map_or_else(failed, Response::Lookup),
            Some(&m.lookup_wall),
        ),
        Request::Propose(r) => (
            shared
                .service
                .propose(&r)
                .map_or_else(failed, Response::Propose),
            Some(&m.propose_wall),
        ),
        Request::Report(r) => (
            shared
                .service
                .report(r)
                .map_or_else(failed, |()| Response::Report),
            Some(&m.report_wall),
        ),
        Request::Purge => (Response::Purge(shared.service.purge_expired()), None),
        Request::Stats => (Response::Stats(shared.service.stats()), None),
    };
    if let Some(wall) = wall {
        wall.record(start.elapsed().as_micros() as u64);
    }
    response
}

/// True when `buffered` starts with a whole frame: a header and as many
/// payload bytes as it declares. (A malformed header fails to parse before
/// any payload byte is read, whatever this says.)
fn holds_whole_frame(buffered: &[u8]) -> bool {
    buffered.get(8..HEADER_LEN).is_some_and(|len| {
        let len = u32::from_le_bytes(len.try_into().expect("four length bytes"));
        buffered.len() - HEADER_LEN >= len as usize
    })
}

/// Writes a response frame; `false` means the connection is gone.
fn respond(conn: &mut TcpStream, shared: &Shared, response: Response) -> bool {
    let m = &shared.metrics;
    if let Response::Error(_) = &response {
        m.error_responses.inc();
    }
    let (ty, payload) = response.encode();
    m.bytes_written.add((HEADER_LEN + payload.len()) as u64);
    write_frame(conn, ty, &payload).is_ok()
}
