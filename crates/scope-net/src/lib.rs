//! The network front door for the CloudViews metadata service.
//!
//! The paper's metadata service is an online component on the SCOPE
//! job-submission path — hundreds of thousands of daily jobs do a signature
//! lookup before compilation. In-process calls can't exercise any of the
//! client-visible contract under real concurrency: admission, per-tenant
//! quotas, shed-vs-queue behavior, or wire-level compatibility. This crate
//! makes the service network-callable without changing its semantics:
//!
//! * [`wire`] — versioned, length-prefixed binary frames (magic, protocol
//!   version, frame type, payload length), hand-rolled — no serde;
//! * [`proto`] — typed [`Request`]/[`Response`] enums for the five
//!   endpoints (`lookup`, `propose`, `report`, `purge`, `stats`) plus the
//!   [`ErrorFrame`] mapping the [`ScopeError`](scope_common::ScopeError)
//!   taxonomy. Payloads are `cloudviews::codec` layouts — the same
//!   bounds-checked bytes the durable log stores, of the exact
//!   `cloudviews::api` request structs the in-process facade takes;
//! * [`server`] — a threaded TCP server (`std::net`): one acceptor, a
//!   fixed worker pool, a *bounded* pending queue that sheds `Busy` instead
//!   of queueing without bound, and per-VC token-bucket quotas;
//! * [`client`] — a blocking client with connection reuse, deadline-based
//!   timeouts, and bounded retry-with-backoff driven by the runtime's
//!   [`DegradationPolicy`](cloudviews::runtime::DegradationPolicy).
//!
//! ```no_run
//! use std::sync::Arc;
//! use cloudviews::api::LookupRequest;
//! use cloudviews::metadata::MetadataService;
//! use scope_common::ids::JobId;
//! use scope_common::telemetry::Telemetry;
//! use scope_common::time::{SimClock, SimTime};
//! use scope_net::{NetClient, NetServer, ServerConfig};
//!
//! let service = Arc::new(MetadataService::new(Arc::new(SimClock::new()), 8));
//! let server = NetServer::spawn(service, Telemetry::new(), ServerConfig::default()).unwrap();
//! let mut client = NetClient::connect(server.addr()).unwrap();
//! let resp = client
//!     .lookup(&LookupRequest::new(JobId::new(1), &["in/a.ss".into()], SimTime::ZERO))
//!     .unwrap();
//! assert!(resp.annotations.is_empty());
//! server.shutdown();
//! ```

pub mod client;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, NetClient};
pub use proto::{ErrorFrame, ErrorKind, Request, Response};
pub use server::{NetServer, QuotaConfig, ServerConfig};
pub use wire::{WireError, MAX_PAYLOAD, VERSION};
