//! The scripted sequence through every state-changing entry point of the
//! metadata catalog. `tests/catalog.rs` pins what it leaves behind to golden
//! fingerprints, lookup bytes and counters; `tests/codec_golden.rs` pins the
//! snapshot bytes of the catalog it builds.

// Each test binary that includes this file uses a different part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;

use cloudviews::analyzer::SelectedView;
use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::faults::{FaultInjector, FaultPlan, FaultSite, ScriptedFault};
use cloudviews::metadata::{LockOutcome, MetadataService, PurgeSweep};
use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::intern::Symbol;
use scope_common::time::{SimClock, SimDuration, SimTime};
use scope_engine::optimizer::{Annotation, AvailableView};
use scope_net::proto::Response;
use scope_plan::interval::Interval;
use scope_plan::{Column, DataType, PhysicalProps, Schema, Value};
use scope_signature::{SubsumeDescriptor, SubsumeDetail, SubsumeKind};

pub fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

pub fn selected(normalized: Sig128, tag: &str) -> SelectedView {
    SelectedView {
        annotation: Annotation {
            normalized,
            props: PhysicalProps::any(),
            ttl: SimDuration::from_secs(3_600),
            avg_cpu: SimDuration::from_secs(10),
            avg_rows: 100,
            avg_bytes: 1_000,
        },
        input_tags: vec![Symbol::intern(tag)],
        utility: SimDuration::from_secs(30),
        frequency: 2,
        precise_last_seen: Sig128::ZERO,
    }
}

/// A `v >= bound` filter descriptor over a fixed child; `cols` is the
/// constrained-column bitset the tier-2 gate compares.
pub fn filter_descriptor(bound: i64, cols: u64) -> SubsumeDescriptor {
    let mut intervals = BTreeMap::new();
    intervals.insert(
        1,
        Interval {
            lo: Some((Value::Int(bound), true)),
            hi: None,
        },
    );
    SubsumeDescriptor {
        kind: SubsumeKind::Filter,
        child_precise: Sig128::new(0xC0, 0xDE),
        cols,
        keys: 0,
        schema: Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ])
        .unwrap(),
        detail: SubsumeDetail::Filter { intervals },
    }
}

pub fn report(
    precise: Sig128,
    normalized: Sig128,
    producer: u64,
    available: u64,
    expires: u64,
    descriptor: Option<SubsumeDescriptor>,
) -> ReportRequest {
    ReportRequest::new(
        AvailableView {
            precise,
            rows: 10,
            bytes: 100,
            props: PhysicalProps::any(),
        },
        normalized,
        JobId::new(producer),
        secs(available),
        secs(expires),
    )
    .with_descriptor(descriptor)
}

/// What the script observed on the way: the wire bytes of its three
/// lookups and the fingerprint just before the first purge.
pub struct Observed {
    pub lookups: [Vec<u8>; 3],
    pub before_purge: Sig128,
}

/// Load, lookups with probes, propose / conflicting propose / expired
/// takeover, report, duplicate report, unregister, purge, and one injected
/// failure per fallible call (jobs 900–902, which touch nothing else).
/// Every lookup matches one annotation, so response order is defined.
pub fn run_script(m: &MetadataService, clock: &SimClock) -> Observed {
    let (na, nb, nc) = (
        Sig128::new(0xA, 1),
        Sig128::new(0xB, 2),
        Sig128::new(0xC, 3),
    );
    let (pa1, pa2, pa3) = (
        Sig128::new(0xA1, 1),
        Sig128::new(0xA2, 1),
        Sig128::new(0xA3, 1),
    );
    let (pb1, pc1, pc2) = (
        Sig128::new(0xB1, 2),
        Sig128::new(0xC1, 3),
        Sig128::new(0xC2, 3),
    );
    let tag = |t: &str| [Symbol::intern(t)];
    let probe = filter_descriptor(10, 0b10);
    let lookup = |job: u64, t: &str, at: u64| {
        let req =
            LookupRequest::new(JobId::new(job), &tag(t), secs(at)).with_probes(vec![probe.clone()]);
        Response::Lookup(m.lookup(&req).unwrap()).encode().1
    };
    let propose = |precise, job: u64, ttl: u64, at: u64| {
        m.propose(&ProposeRequest::new(
            precise,
            JobId::new(job),
            SimDuration::from_secs(ttl),
            secs(at),
        ))
        .unwrap()
    };

    m.load_annotations_at(
        &[
            selected(na, "golden/a.ss"),
            selected(nb, "golden/b.ss"),
            selected(nc, "golden/c.ss"),
        ],
        SimTime::ZERO,
    );
    let first = lookup(100, "golden/a.ss", 1);

    // One scripted failure per fallible entry point: counted, and nothing
    // else about the service moves.
    let fail_first_call = |site, job| ScriptedFault {
        site,
        job: Some(JobId::new(job)),
        call_index: 0,
    };
    m.set_fault_injector(Some(FaultInjector::new(FaultPlan {
        scripted: vec![
            fail_first_call(FaultSite::MetadataLookup, 900),
            fail_first_call(FaultSite::Propose, 901),
            fail_first_call(FaultSite::ReportMaterialized, 902),
        ],
        ..FaultPlan::default()
    })));
    let failing = LookupRequest::new(JobId::new(900), &tag("golden/a.ss"), secs(1));
    assert!(m.lookup(&failing).is_err());
    let failing = ProposeRequest::new(pa1, JobId::new(901), SimDuration::from_secs(10), secs(1));
    assert!(m.propose(&failing).is_err());
    assert!(m.report(report(pa1, na, 902, 1, 1_000, None)).is_err());

    // The lock protocol on one signature: grant, conflict, expired
    // takeover, registration (first report wins), dedup.
    assert_eq!(propose(pa1, 1, 10, 1), LockOutcome::Acquired);
    assert_eq!(propose(pa1, 2, 10, 2), LockOutcome::AlreadyLocked);
    assert_eq!(propose(pa1, 3, 60, 20), LockOutcome::Acquired);
    m.report(report(
        pa1,
        na,
        3,
        25,
        1_000,
        Some(filter_descriptor(0, 0b10)),
    ))
    .unwrap();
    m.report(report(pa1, na, 4, 26, 9_000, None)).unwrap();
    assert_eq!(m.view_producer(pa1), Some(JobId::new(3)));
    assert_eq!(propose(pa1, 5, 60, 30), LockOutcome::AlreadyMaterialized);

    // Two more views under A (one the gate rejects: it constrains a column
    // the probe does not), one descriptor-less view under B, and a build
    // lock on C that is never reported.
    m.register(report(
        pa2,
        na,
        6,
        30,
        2_000,
        Some(filter_descriptor(5, 0b10)),
    ));
    m.register(report(
        pa3,
        na,
        7,
        30,
        2_000,
        Some(filter_descriptor(5, 0b11)),
    ));
    m.register(report(pb1, nb, 8, 30, 100, None));
    assert_eq!(propose(pc1, 9, 50, 40), LockOutcome::Acquired);
    let second = lookup(101, "golden/a.ss", 50);

    m.unregister_views(&[pa2], secs(60));
    let third = lookup(102, "golden/b.ss", 70);
    assert_eq!(propose(pc2, 10, 10_000, 450), LockOutcome::Acquired);
    let before_purge = m.fingerprint();

    // First purge: B's view and C's first lock have lapsed, nothing else.
    clock.advance_to(secs(500));
    assert_eq!(
        m.purge_expired(),
        PurgeSweep {
            views_purged: 1,
            annotations_purged: 0
        }
    );
    // Second purge: A's views are gone and C (never built) is past its
    // horizon; A and B were renewed by their registrations and stay.
    clock.advance_to(secs(3_650));
    assert_eq!(
        m.purge_expired(),
        PurgeSweep {
            views_purged: 2,
            annotations_purged: 1
        }
    );
    assert_eq!(
        (m.num_annotations(), m.num_views(), m.num_locks()),
        (2, 0, 1)
    );
    Observed {
        lookups: [first, second, third],
        before_purge,
    }
}
