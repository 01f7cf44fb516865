//! Typed request/response messages and their frame-level dispatch.
//!
//! The wire carries exactly the `cloudviews::api` request structs the
//! in-process facade takes, and a frame's payload is the struct's
//! `cloudviews::codec` layout — the bytes the durable log stores — so a
//! remote caller and a local caller cannot drift apart. This module only
//! maps frame types to payload types.
//! Every request frame is answered by either its matching response frame or
//! an [`ErrorFrame`] carrying the service's [`ScopeError`] taxonomy plus
//! the three wire-level outcomes the in-process path never sees: `Busy`
//! (load shed), `OverQuota` (per-VC token bucket empty), and `Malformed`
//! (undecodable frame).

use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::codec::{Codec, Dec};
use cloudviews::metadata::{LockOutcome, LookupResponse, MetadataStats, PurgeSweep};
use cloudviews::{codec_record, codec_tags};
use scope_common::ScopeError;

use crate::wire::{frame_type, WireError};

/// A request frame: one of the five front-door endpoints.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Pinned-time annotation lookup.
    Lookup(LookupRequest),
    /// Build-lock proposal.
    Propose(ProposeRequest),
    /// Materialization report.
    Report(ReportRequest),
    /// Full expiry sweep of the catalog.
    Purge,
    /// Service-counter snapshot.
    Stats,
}

impl Request {
    /// The virtual cluster the request is attributed to (the quota
    /// principal). `Purge`/`Stats` are admin endpoints and carry none.
    pub fn vc(&self) -> Option<scope_common::ids::VcId> {
        match self {
            Request::Lookup(r) => Some(r.vc),
            Request::Propose(r) => Some(r.vc),
            Request::Report(r) => Some(r.vc),
            Request::Purge | Request::Stats => None,
        }
    }

    /// Frame type tag plus encoded payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Lookup(r) => (frame_type::LOOKUP, r.to_bytes()),
            Request::Propose(r) => (frame_type::PROPOSE, r.to_bytes()),
            Request::Report(r) => (frame_type::REPORT, r.to_bytes()),
            Request::Purge => (frame_type::PURGE, Vec::new()),
            Request::Stats => (frame_type::STATS, Vec::new()),
        }
    }

    /// Decodes the payload of a request frame of type `ty`.
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut d = Dec::new(payload);
        let req = match ty {
            frame_type::LOOKUP => Request::Lookup(Codec::get(&mut d)?),
            frame_type::PROPOSE => Request::Propose(Codec::get(&mut d)?),
            frame_type::REPORT => Request::Report(Codec::get(&mut d)?),
            frame_type::PURGE => Request::Purge,
            frame_type::STATS => Request::Stats,
            other => return Err(WireError::BadFrameType(other)),
        };
        d.finish()?;
        Ok(req)
    }
}

/// A response frame: the matching answer for each endpoint, or an error.
#[derive(Clone, Debug)]
pub enum Response {
    /// Answer to [`Request::Lookup`].
    Lookup(LookupResponse),
    /// Answer to [`Request::Propose`].
    Propose(LockOutcome),
    /// Acknowledgement of [`Request::Report`].
    Report,
    /// Answer to [`Request::Purge`].
    Purge(PurgeSweep),
    /// Answer to [`Request::Stats`].
    Stats(MetadataStats),
    /// Any request may be answered with an error frame.
    Error(ErrorFrame),
}

impl Response {
    /// Frame type tag plus encoded payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::Lookup(r) => (frame_type::LOOKUP_OK, r.to_bytes()),
            Response::Propose(o) => (frame_type::PROPOSE_OK, o.to_bytes()),
            Response::Report => (frame_type::REPORT_OK, Vec::new()),
            Response::Purge(p) => (frame_type::PURGE_OK, p.to_bytes()),
            Response::Stats(s) => (frame_type::STATS_OK, s.to_bytes()),
            Response::Error(err) => (frame_type::ERROR, err.to_bytes()),
        }
    }

    /// Decodes the payload of a response frame of type `ty`.
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut d = Dec::new(payload);
        let resp = match ty {
            frame_type::LOOKUP_OK => Response::Lookup(Codec::get(&mut d)?),
            frame_type::PROPOSE_OK => Response::Propose(Codec::get(&mut d)?),
            frame_type::REPORT_OK => Response::Report,
            frame_type::PURGE_OK => Response::Purge(Codec::get(&mut d)?),
            frame_type::STATS_OK => Response::Stats(Codec::get(&mut d)?),
            frame_type::ERROR => Response::Error(Codec::get(&mut d)?),
            other => return Err(WireError::BadFrameType(other)),
        };
        d.finish()?;
        Ok(resp)
    }
}

/// Failure domain carried by an [`ErrorFrame`]: the nine [`ScopeError`]
/// variants plus the three wire-level outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// [`ScopeError::InvalidPlan`].
    InvalidPlan,
    /// [`ScopeError::Expression`].
    Expression,
    /// [`ScopeError::Optimizer`].
    Optimizer,
    /// [`ScopeError::Execution`].
    Execution,
    /// [`ScopeError::Storage`].
    Storage,
    /// [`ScopeError::Metadata`].
    Metadata,
    /// [`ScopeError::Workload`].
    Workload,
    /// [`ScopeError::ServiceUnavailable`] — transient; clients retry.
    ServiceUnavailable,
    /// [`ScopeError::ViewUnavailable`] — transient; clients retry.
    ViewUnavailable,
    /// The server shed the request instead of queueing it (admission bound
    /// or worker backlog). Transient by definition: retry with backoff.
    Busy,
    /// The requesting VC's token bucket is empty. Not transient at the
    /// client's timescale — retrying immediately just burns quota.
    OverQuota,
    /// The server could not decode the request frame.
    Malformed,
}

codec_tags! {
    ErrorKind {
        InvalidPlan = 0, Expression = 1, Optimizer = 2, Execution = 3, Storage = 4,
        Metadata = 5, Workload = 6, ServiceUnavailable = 7, ViewUnavailable = 8, Busy = 9,
        OverQuota = 10, Malformed = 11,
    }
}

impl ErrorKind {
    /// True for failures a client should absorb by retrying with backoff
    /// (mirrors [`ScopeError::is_degradable`], plus `Busy`).
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            ErrorKind::ServiceUnavailable | ErrorKind::ViewUnavailable | ErrorKind::Busy
        )
    }
}

/// The error payload: a failure domain plus a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The failure domain.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

codec_record! { ErrorFrame { kind, message } }

impl ErrorFrame {
    /// Builds an error frame.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ErrorFrame {
        ErrorFrame {
            kind,
            message: message.into(),
        }
    }

    /// Maps a service-side [`ScopeError`] onto the wire taxonomy.
    pub fn from_scope_error(e: &ScopeError) -> ErrorFrame {
        let kind = match e {
            ScopeError::InvalidPlan(_) => ErrorKind::InvalidPlan,
            ScopeError::Expression(_) => ErrorKind::Expression,
            ScopeError::Optimizer(_) => ErrorKind::Optimizer,
            ScopeError::Execution(_) => ErrorKind::Execution,
            ScopeError::Storage(_) => ErrorKind::Storage,
            ScopeError::Metadata(_) => ErrorKind::Metadata,
            ScopeError::Workload(_) => ErrorKind::Workload,
            ScopeError::ServiceUnavailable(_) => ErrorKind::ServiceUnavailable,
            ScopeError::ViewUnavailable(_) => ErrorKind::ViewUnavailable,
        };
        ErrorFrame::new(kind, e.message())
    }

    /// Maps the wire taxonomy back onto [`ScopeError`] for the client's
    /// caller. `Busy` degrades to `ServiceUnavailable` (same retry
    /// contract); `OverQuota` and `Malformed` surface as `Metadata` errors
    /// (the request was refused, not the service broken).
    pub fn to_scope_error(&self) -> ScopeError {
        let m = self.message.clone();
        match self.kind {
            ErrorKind::InvalidPlan => ScopeError::InvalidPlan(m),
            ErrorKind::Expression => ScopeError::Expression(m),
            ErrorKind::Optimizer => ScopeError::Optimizer(m),
            ErrorKind::Execution => ScopeError::Execution(m),
            ErrorKind::Storage => ScopeError::Storage(m),
            ErrorKind::Metadata => ScopeError::Metadata(m),
            ErrorKind::Workload => ScopeError::Workload(m),
            ErrorKind::ServiceUnavailable => ScopeError::ServiceUnavailable(m),
            ErrorKind::ViewUnavailable => ScopeError::ViewUnavailable(m),
            ErrorKind::Busy => ScopeError::ServiceUnavailable(format!("server busy: {m}")),
            ErrorKind::OverQuota => ScopeError::Metadata(format!("over quota: {m}")),
            ErrorKind::Malformed => ScopeError::Metadata(format!("malformed request: {m}")),
        }
    }
}
