//! Shared foundations for the CloudViews reproduction.
//!
//! This crate hosts the small, dependency-light building blocks every other
//! crate in the workspace relies on:
//!
//! * [`ids`] — strongly-typed identifiers for clusters, virtual clusters,
//!   users, jobs, plan nodes, views, and so on. Newtypes keep the id spaces
//!   from being mixed up at compile time.
//! * [`time`] — a simulated clock ([`time::SimClock`]) and instant/duration
//!   types used by the discrete-event cluster simulator and by lock expiry in
//!   the CloudViews metadata service.
//! * [`hash`] — a from-scratch, keyed SipHash-2-4 implementation plus the
//!   128-bit [`hash::Sig128`] digest used for plan signatures. Hand-rolled so
//!   signatures are stable across Rust versions, platforms, and process runs
//!   (the paper's signatures are persisted in file paths and metadata
//!   services, so stability is a hard requirement).
//! * [`intern`] — a process-global string interner ([`intern::Symbol`])
//!   and a hash-consing [`intern::SharedPool`], so recurring templates
//!   share one allocation for stream names, tags, and physical-property
//!   shapes instead of cloning them per compiled instance.
//! * [`stats`] — summary statistics and CDF helpers used when regenerating
//!   the paper's distribution figures (Figures 2–5).
//! * [`telemetry`] — the observability layer: a metrics registry
//!   (counters, gauges, log-scale histograms with wall vs simulated units
//!   kept distinct), structured tracing into a bounded ring buffer, and
//!   Prometheus/JSON exporters.
//! * [`error`] — the workspace-wide error type.

pub mod codec;
pub mod error;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use error::{Result, ScopeError};
pub use hash::{sip128, sip64, Sig128, SipHasher24};
pub use intern::{SharedPool, Symbol};
pub use telemetry::{MetricUnit, MetricsRegistry, MetricsSnapshot, Telemetry, Tracer};
pub use time::{SimClock, SimDuration, SimTime};
