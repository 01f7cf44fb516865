//! Blocking front-door client: connection reuse, deadlines, bounded retry.
//!
//! One [`NetClient`] owns one TCP connection and replays the in-process
//! `MetadataService` surface over it — the method signatures take the same
//! `cloudviews::api` request structs, so swapping a local service for a
//! remote one is a one-line change at the call site.
//!
//! Failure handling reuses the runtime's [`DegradationPolicy`] contract:
//!
//! * **transient** failures — socket errors, request deadlines, server
//!   `Busy` sheds, and degradable service errors (`ServiceUnavailable`,
//!   `ViewUnavailable`) — are retried up to `lookup_retries` times with
//!   `retry_backoff` (wall-clock) between attempts, reconnecting first;
//! * **`OverQuota`** is *not* retried: the bucket refills on the server's
//!   clock, and hammering it just spends more quota budget. It surfaces as
//!   `ScopeError::Metadata` for the caller to handle (queue, degrade, or
//!   give up);
//! * every other error frame maps straight back onto the [`ScopeError`]
//!   taxonomy and returns on the first attempt.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::metadata::{LockOutcome, LookupResponse, MetadataStats, PurgeSweep};
use cloudviews::runtime::DegradationPolicy;
use scope_common::{Result, ScopeError};

use crate::proto::{ErrorKind, Request, Response};
use crate::wire::{read_frame, write_frame};

/// Client-side policy knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-request deadline, enforced as socket read/write timeouts — a
    /// stalled server turns into a transient error, not a hang.
    pub deadline: Duration,
    /// Retry/backoff contract shared with the in-process runtime.
    pub degradation: DegradationPolicy,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            deadline: Duration::from_secs(5),
            degradation: DegradationPolicy::default(),
        }
    }
}

/// A blocking metadata-service client over one reused TCP connection.
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    /// Buffered, so a response frame arrives in one read, not two.
    conn: Option<BufReader<TcpStream>>,
}

impl NetClient {
    /// Resolves `addr` and prepares a client. The connection itself is
    /// established lazily on the first request (and re-established after
    /// any transient failure).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient> {
        NetClient::with_config(addr, ClientConfig::default())
    }

    /// [`NetClient::connect`] with explicit policy knobs.
    pub fn with_config(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<NetClient> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ScopeError::ServiceUnavailable(format!("resolve: {e}")))?
            .next()
            .ok_or_else(|| ScopeError::ServiceUnavailable("address resolved to nothing".into()))?;
        Ok(NetClient {
            addr,
            config,
            conn: None,
        })
    }

    /// Pinned-time annotation lookup (Figure 9 steps 1/2) over the wire.
    pub fn lookup(&mut self, req: &LookupRequest) -> Result<LookupResponse> {
        match self.call(&Request::Lookup(req.clone()))? {
            Response::Lookup(resp) => Ok(resp),
            other => Err(protocol_violation("lookup", &other)),
        }
    }

    /// Build-lock proposal (Figure 9 steps 3/4) over the wire.
    pub fn propose(&mut self, req: &ProposeRequest) -> Result<LockOutcome> {
        match self.call(&Request::Propose(*req))? {
            Response::Propose(outcome) => Ok(outcome),
            other => Err(protocol_violation("propose", &other)),
        }
    }

    /// Materialization report (Figure 9 steps 5/6) over the wire.
    pub fn report(&mut self, req: ReportRequest) -> Result<()> {
        match self.call(&Request::Report(req))? {
            Response::Report => Ok(()),
            other => Err(protocol_violation("report", &other)),
        }
    }

    /// Full expiry sweep.
    pub fn purge(&mut self) -> Result<PurgeSweep> {
        match self.call(&Request::Purge)? {
            Response::Purge(sweep) => Ok(sweep),
            other => Err(protocol_violation("purge", &other)),
        }
    }

    /// Service-counter snapshot.
    pub fn stats(&mut self) -> Result<MetadataStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(protocol_violation("stats", &other)),
        }
    }

    /// One request/response exchange with bounded retry on transient
    /// failures. Non-error responses and non-transient errors return
    /// immediately; exhausted retries surface the last transient error.
    fn call(&mut self, req: &Request) -> Result<Response> {
        let retries = self.config.degradation.lookup_retries;
        let backoff = Duration::from_micros(self.config.degradation.retry_backoff.micros());
        let mut last_err = None;
        for attempt in 0..=retries {
            if attempt > 0 && !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            match self.exchange(req) {
                Ok(Response::Error(frame)) => {
                    let err = frame.to_scope_error();
                    if !frame.kind.is_transient() {
                        return Err(err);
                    }
                    // A Busy shed closes the server side; reconnect.
                    if frame.kind == ErrorKind::Busy {
                        self.conn = None;
                    }
                    last_err = Some(err);
                }
                Ok(resp) => return Ok(resp),
                Err(err) => {
                    // Socket-level failure: the connection is unusable.
                    self.conn = None;
                    last_err = Some(err);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            ScopeError::ServiceUnavailable("retries exhausted without an error".into())
        }))
    }

    /// One attempt: (re)connect, send, receive, decode.
    fn exchange(&mut self, req: &Request) -> Result<Response> {
        if self.conn.is_none() {
            let conn = TcpStream::connect_timeout(&self.addr, self.config.deadline)
                .map_err(|e| ScopeError::ServiceUnavailable(format!("connect: {e}")))?;
            conn.set_nodelay(true).ok();
            conn.set_read_timeout(Some(self.config.deadline))
                .map_err(|e| ScopeError::ServiceUnavailable(format!("set deadline: {e}")))?;
            conn.set_write_timeout(Some(self.config.deadline))
                .map_err(|e| ScopeError::ServiceUnavailable(format!("set deadline: {e}")))?;
            self.conn = Some(BufReader::new(conn));
        }
        let conn = self.conn.as_mut().expect("just connected");
        let (ty, payload) = req.encode();
        write_frame(conn.get_mut(), ty, &payload)
            .map_err(|e| ScopeError::ServiceUnavailable(format!("send: {e}")))?;
        let (rty, rpayload) = read_frame(conn)
            .map_err(|e| ScopeError::ServiceUnavailable(format!("receive: {e}")))?;
        Response::decode(rty, &rpayload)
            .map_err(|e| ScopeError::Metadata(format!("undecodable response: {e}")))
    }
}

fn protocol_violation(expected: &str, got: &Response) -> ScopeError {
    let got = match got {
        Response::Lookup(_) => "lookup response",
        Response::Propose(_) => "propose response",
        Response::Report => "report ack",
        Response::Purge(_) => "purge response",
        Response::Stats(_) => "stats response",
        Response::Error(_) => "error frame",
    };
    ScopeError::Metadata(format!(
        "protocol violation: asked for {expected}, got {got}"
    ))
}
