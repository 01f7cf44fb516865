//! The settled client-visible request surface of the metadata service.
//!
//! Every fallible entry point of [`MetadataService`](crate::MetadataService)
//! takes one of the typed request structs below instead of a growing list
//! of positional arguments. The same structs ride the wire protocol
//! (`scope-net`), so the in-process facade and remote clients cannot drift:
//! a field added here is a field every caller — local or networked — has to
//! account for.
//!
//! All three requests are **pinned-time**: they carry the submission time
//! (`at`) the service judges visibility and lock expiry against. There is
//! no default-now variant: a caller that wants "now" reads its clock once
//! and passes it.
//!
//! Each request also names the submitting virtual cluster (`vc`). The
//! in-process facade ignores it; the network front door uses it as the
//! principal for per-VC admission quotas. `VcId::new(0)` is the
//! "unattributed" default for internal callers.

use scope_common::hash::Sig128;
use scope_common::ids::{JobId, VcId};
use scope_common::intern::Symbol;
use scope_common::time::{SimDuration, SimTime};
use scope_engine::optimizer::AvailableView;
use scope_signature::SubsumeDescriptor;

/// Figure 9 steps 1/2: the per-job annotation lookup, pinned to the job's
/// submission time.
#[derive(Clone, Debug, PartialEq)]
pub struct LookupRequest {
    /// The job the lookup is attributed to (fault injection, provenance).
    pub job: JobId,
    /// Submitting virtual cluster (the quota principal at the front door).
    pub vc: VcId,
    /// The job's normalized input tags, probed against the inverted index.
    pub tags: Vec<Symbol>,
    /// Tier-2 subsumption probes (empty skips the tier-2 scan entirely).
    pub probes: Vec<SubsumeDescriptor>,
    /// Pinned lookup time: view liveness is judged here, not at the
    /// service's live clock.
    pub at: SimTime,
}

impl LookupRequest {
    /// A probe-less lookup for `job` pinned at `at`.
    pub fn new(job: JobId, tags: &[Symbol], at: SimTime) -> LookupRequest {
        LookupRequest {
            job,
            vc: VcId::new(0),
            tags: tags.to_vec(),
            probes: Vec::new(),
            at,
        }
    }

    /// Attaches tier-2 subsumption probes.
    pub fn with_probes(mut self, probes: Vec<SubsumeDescriptor>) -> LookupRequest {
        self.probes = probes;
        self
    }

    /// Attributes the request to a virtual cluster.
    pub fn for_vc(mut self, vc: VcId) -> LookupRequest {
        self.vc = vc;
        self
    }
}

/// Figure 9 steps 3/4: propose to materialize a view, pinned to the
/// proposing job's submission time (lock expiry is judged at `at`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProposeRequest {
    /// Precise signature of the subgraph to materialize.
    pub precise: Sig128,
    /// The proposing job (the lock holder if granted).
    pub job: JobId,
    /// Submitting virtual cluster (the quota principal at the front door).
    pub vc: VcId,
    /// Exclusive-lock TTL, mined from the subgraph's average runtime.
    pub lock_ttl: SimDuration,
    /// Pinned proposal time: existing locks and view liveness are judged
    /// here, not at the service's live clock.
    pub at: SimTime,
}

impl ProposeRequest {
    /// A proposal by `job` for `precise`, pinned at `at`.
    pub fn new(precise: Sig128, job: JobId, lock_ttl: SimDuration, at: SimTime) -> ProposeRequest {
        ProposeRequest {
            precise,
            job,
            vc: VcId::new(0),
            lock_ttl,
            at,
        }
    }

    /// Attributes the request to a virtual cluster.
    pub fn for_vc(mut self, vc: VcId) -> ProposeRequest {
        self.vc = vc;
        self
    }
}

/// Figure 9 steps 5/6: report a successful materialization, releasing the
/// build lock and making the view visible from `available_at`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportRequest {
    /// The materialized view (precise signature, size, physical design).
    pub view: AvailableView,
    /// Normalized signature linking the view to its driving annotation
    /// ([`Sig128::ZERO`] when there is none, e.g. protocol-only tests).
    pub normalized: Sig128,
    /// The producing job.
    pub producer: JobId,
    /// Submitting virtual cluster (the quota principal at the front door).
    pub vc: VcId,
    /// When the view becomes visible to lookups (early materialization may
    /// pre-date job completion).
    pub available_at: SimTime,
    /// When the view expires (mined from input lineage).
    pub expires_at: SimTime,
    /// Subsumption descriptor of the materialized root, when the view is
    /// tier-2 eligible (`None` keeps it tier-1-only).
    pub descriptor: Option<SubsumeDescriptor>,
}

impl ReportRequest {
    /// A descriptor-less report (the view is tier-1-only).
    pub fn new(
        view: AvailableView,
        normalized: Sig128,
        producer: JobId,
        available_at: SimTime,
        expires_at: SimTime,
    ) -> ReportRequest {
        ReportRequest {
            view,
            normalized,
            producer,
            vc: VcId::new(0),
            available_at,
            expires_at,
            descriptor: None,
        }
    }

    /// Attaches the view's subsumption descriptor (tier-2 eligibility).
    pub fn with_descriptor(mut self, descriptor: Option<SubsumeDescriptor>) -> ReportRequest {
        self.descriptor = descriptor;
        self
    }

    /// Attributes the request to a virtual cluster.
    pub fn for_vc(mut self, vc: VcId) -> ReportRequest {
        self.vc = vc;
        self
    }
}
