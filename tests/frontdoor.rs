//! Loopback integration tests for the network front door: concurrent
//! clients across VCs, per-VC quota enforcement, load shedding, chaos
//! (malformed frames, mid-request disconnects), and the acceptance bar —
//! an over-the-wire lookup is byte-identical to the in-process call.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cloudviews::analyzer::SelectedView;
use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::metadata::{LockOutcome, MetadataService};
use scope_common::hash::Sig128;
use scope_common::ids::{JobId, VcId};
use scope_common::intern::Symbol;
use scope_common::telemetry::Telemetry;
use scope_common::time::{SimClock, SimDuration, SimTime};
use scope_common::ScopeError;
use scope_engine::optimizer::{Annotation, AvailableView};
use scope_net::proto::{ErrorKind, Response};
use scope_net::wire::{frame_type, read_frame, write_frame};
use scope_net::{ClientConfig, NetClient, NetServer, QuotaConfig, ServerConfig};
use scope_plan::interval::Interval;
use scope_plan::{Column, DataType, PhysicalProps, Schema, Value};
use scope_signature::{SubsumeDescriptor, SubsumeDetail, SubsumeKind};

const TAG: &str = "frontdoor/in/clicks.ss";

/// A filter descriptor; identical query/view descriptors pass the tier-2
/// `quick_compat` gate, so lookups with this probe return tier-2 hits.
fn descriptor() -> SubsumeDescriptor {
    let mut intervals = BTreeMap::new();
    intervals.insert(
        0,
        Interval {
            lo: Some((Value::Int(0), true)),
            hi: None,
        },
    );
    SubsumeDescriptor {
        kind: SubsumeKind::Filter,
        child_precise: Sig128::new(0xAB, 0xCD),
        cols: 0b01,
        keys: 0,
        schema: Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ])
        .unwrap(),
        detail: SubsumeDetail::Filter { intervals },
    }
}

fn view_sig() -> Sig128 {
    Sig128::new(0x51, 0x6E)
}

fn norm_sig() -> Sig128 {
    Sig128::new(0x4E, 0x12)
}

/// A service with one annotation (tagged [`TAG`]) and one live registered
/// view carrying a descriptor, so lookups can return annotations *and*
/// tier-2 candidates.
fn service_with_view() -> Arc<MetadataService> {
    let clock = Arc::new(SimClock::new());
    let m = MetadataService::new(clock, 4);
    m.load_annotations(&[SelectedView {
        annotation: Annotation {
            normalized: norm_sig(),
            props: PhysicalProps::any(),
            ttl: SimDuration::from_secs(86_400),
            avg_cpu: SimDuration::from_secs(10),
            avg_rows: 100,
            avg_bytes: 1_000,
        },
        input_tags: vec![Symbol::intern(TAG)],
        utility: SimDuration::from_secs(30),
        frequency: 2,
        precise_last_seen: view_sig(),
    }]);
    m.register(
        ReportRequest::new(
            AvailableView {
                precise: view_sig(),
                rows: 10,
                bytes: 100,
                props: PhysicalProps::any(),
            },
            norm_sig(),
            JobId::new(1),
            SimTime(100),
            SimTime(100) + SimDuration::from_secs(86_400),
        )
        .with_descriptor(Some(descriptor())),
    );
    Arc::new(m)
}

fn lookup_req(job: u64, vc: u64) -> LookupRequest {
    LookupRequest::new(JobId::new(job), &[TAG.into()], SimTime(1_000_000))
        .with_probes(vec![descriptor()])
        .for_vc(VcId::new(vc))
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        idle_poll: Duration::from_millis(5),
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

// ---------------------------------------------------------------------------

/// The acceptance bar: the same pinned-time lookup served in-process and
/// over loopback produces byte-identical `LookupResponse` content.
#[test]
fn wire_lookup_is_byte_identical_to_in_process() {
    let service = service_with_view();
    let telemetry = Telemetry::new();
    let server = NetServer::spawn(Arc::clone(&service), telemetry, quick_config()).unwrap();
    let mut client = NetClient::connect(server.addr()).unwrap();

    let req = lookup_req(42, 7);
    let local = service.lookup(&req).unwrap();
    let remote = client.lookup(&req).unwrap();

    // The response must actually carry content for this to mean anything.
    assert_eq!(local.annotations.len(), 1);
    assert_eq!(local.tier2.len(), 1);
    // `LookupResponse` has no `Eq`; the wire encoding is canonical, so
    // byte-identical encodings == identical responses.
    assert_eq!(
        Response::Lookup(local).encode(),
        Response::Lookup(remote).encode(),
        "in-process and over-the-wire lookup answers diverge"
    );
    server.shutdown();
}

/// Concurrent clients on three VCs hammer all five endpoints; every call
/// succeeds and the service observes exactly the expected request counts.
#[test]
fn concurrent_clients_across_three_vcs() {
    let service = service_with_view();
    let telemetry = Telemetry::new();
    let server =
        NetServer::spawn(Arc::clone(&service), Arc::clone(&telemetry), quick_config()).unwrap();
    let addr = server.addr();

    const VCS: u64 = 3;
    const CLIENTS_PER_VC: u64 = 2;
    const LOOKUPS_PER_CLIENT: u64 = 20;

    let mut handles = Vec::new();
    for vc in 0..VCS {
        for c in 0..CLIENTS_PER_VC {
            handles.push(std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                for i in 0..LOOKUPS_PER_CLIENT {
                    let job = vc * 1_000 + c * 100 + i;
                    let resp = client.lookup(&lookup_req(job, vc)).unwrap();
                    assert_eq!(resp.annotations.len(), 1);
                    // Each client proposes a distinct signature: the first
                    // propose wins the build lock, a re-propose from the
                    // same job observes its own lock.
                    let precise = Sig128::new(vc + 1, c + 1);
                    let outcome = client
                        .propose(
                            &ProposeRequest::new(
                                precise,
                                JobId::new(job),
                                SimDuration::from_secs(600),
                                SimTime(2_000_000),
                            )
                            .for_vc(VcId::new(vc)),
                        )
                        .unwrap();
                    assert!(
                        matches!(outcome, LockOutcome::Acquired | LockOutcome::AlreadyLocked),
                        "unexpected outcome {outcome:?}"
                    );
                }
                // One report per client, distinct view signature.
                client
                    .report(
                        ReportRequest::new(
                            AvailableView {
                                precise: Sig128::new(0x1000 + vc, c),
                                rows: 1,
                                bytes: 1,
                                props: PhysicalProps::any(),
                            },
                            norm_sig(),
                            JobId::new(vc * 10 + c),
                            SimTime(3_000_000),
                            SimTime(9_000_000_000),
                        )
                        .for_vc(VcId::new(vc)),
                    )
                    .unwrap();
                let stats = client.stats().unwrap();
                assert!(stats.lookups > 0);
            }));
        }
    }
    for h in handles {
        h.join().expect("client thread panicked");
    }

    let total_lookups = VCS * CLIENTS_PER_VC * LOOKUPS_PER_CLIENT;
    let stats = service.stats();
    assert_eq!(stats.lookups, total_lookups);
    // +1 for the fixture's own registered view.
    assert_eq!(stats.views_registered, VCS * CLIENTS_PER_VC + 1);
    // The `Stats` frame a client decodes is the in-process snapshot: both
    // read the service's one set of counters.
    let wire_stats = NetClient::connect(addr).unwrap().stats().unwrap();
    assert_eq!(wire_stats, stats);
    let snap = telemetry.metrics.snapshot();
    assert_eq!(snap.counter("cv_net_frames_lookup_total"), total_lookups);
    assert_eq!(
        snap.counter("cv_net_frames_propose_total"),
        total_lookups,
        "one propose per lookup"
    );
    assert_eq!(
        snap.counter("cv_net_frames_report_total"),
        VCS * CLIENTS_PER_VC
    );
    assert_eq!(snap.counter("cv_net_shed_total"), 0, "nothing shed");
    assert_eq!(snap.counter("cv_net_quota_rejections_total"), 0);
    assert_eq!(snap.counter("cv_net_malformed_total"), 0);
    server.shutdown();
}

/// A zero-refill token bucket is a fixed budget: the over-quota VC is cut
/// off at exactly `burst` requests while a sibling VC's budget is untouched.
#[test]
fn quota_cuts_off_one_vc_without_touching_another() {
    const BURST: u64 = 5;
    let service = service_with_view();
    let telemetry = Telemetry::new();
    let config = ServerConfig {
        quota: Some(QuotaConfig {
            rate_per_sec: 0.0,
            burst: BURST as f64,
        }),
        ..quick_config()
    };
    let server = NetServer::spawn(service, Arc::clone(&telemetry), config).unwrap();

    // VC 1 spends its whole budget, then keeps asking.
    let mut greedy = NetClient::connect(server.addr()).unwrap();
    let mut served = 0u64;
    let mut rejected = 0u64;
    for i in 0..(BURST * 2) {
        match greedy.lookup(&lookup_req(i, 1)) {
            Ok(_) => served += 1,
            Err(ScopeError::Metadata(m)) if m.contains("over quota") => rejected += 1,
            Err(other) => panic!("expected over-quota rejection, got {other}"),
        }
    }
    assert_eq!(served, BURST, "budget is exactly `burst` requests");
    assert_eq!(rejected, BURST, "everything past the budget is rejected");

    // VC 2 was not charged for VC 1's burst.
    let mut modest = NetClient::connect(server.addr()).unwrap();
    for i in 0..BURST {
        modest
            .lookup(&lookup_req(100 + i, 2))
            .expect("in-quota VC must be unaffected");
    }
    // Admin endpoints carry no VC and bypass quota even when exhausted.
    greedy.stats().expect("stats is not quota-gated");
    greedy.purge().expect("purge is not quota-gated");

    let snap = telemetry.metrics.snapshot();
    assert_eq!(snap.counter("cv_net_quota_rejections_total"), BURST);
    server.shutdown();
}

/// 30/30 malformed-frame rounds: broken framing (bad magic) is answered
/// with a `Malformed` error frame and the connection closed; a payload that
/// doesn't decode is answered and the connection *kept* — the very next
/// request on the same socket succeeds.
#[test]
fn malformed_frames_are_answered_thirty_of_thirty() {
    let service = service_with_view();
    let telemetry = Telemetry::new();
    let server = NetServer::spawn(service, Arc::clone(&telemetry), quick_config()).unwrap();
    let addr = server.addr();

    for round in 0..30 {
        // Broken framing: garbage where the header should be. Exactly one
        // header's worth — unread surplus would turn the server's close
        // into a reset that can discard the queued error frame (a real
        // flooding peer may see that reset; the contract is "answer *or*
        // clean close", and this round pins down the answering half).
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"NOT-A-FRAME!").unwrap();
        let (ty, payload) = read_frame(&mut conn).expect("server answers before closing");
        let resp = Response::decode(ty, &payload).unwrap();
        match resp {
            Response::Error(frame) => assert_eq!(frame.kind, ErrorKind::Malformed, "round {round}"),
            other => panic!("round {round}: expected error frame, got {other:?}"),
        }
        // ... then a clean close.
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty(), "round {round}: no bytes after the error");

        // Framing intact, payload garbage: answered, connection survives.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut conn, frame_type::LOOKUP, &[0xFF; 7]).unwrap();
        let (ty, payload) = read_frame(&mut conn).unwrap();
        match Response::decode(ty, &payload).unwrap() {
            Response::Error(frame) => assert_eq!(frame.kind, ErrorKind::Malformed, "round {round}"),
            other => panic!("round {round}: expected error frame, got {other:?}"),
        }
        let (ty, payload) = lookup_req(round, 0).encode_as_request();
        write_frame(&mut conn, ty, &payload).unwrap();
        let (ty, payload) = read_frame(&mut conn).expect("connection still serving");
        match Response::decode(ty, &payload).unwrap() {
            Response::Lookup(resp) => assert_eq!(resp.annotations.len(), 1, "round {round}"),
            other => panic!("round {round}: expected lookup response, got {other:?}"),
        }
    }
    let snap = telemetry.metrics.snapshot();
    assert_eq!(snap.counter("cv_net_malformed_total"), 60);
    server.shutdown();
}

/// Helper: encode a `LookupRequest` as its request frame without a client.
trait EncodeAsRequest {
    fn encode_as_request(&self) -> (u8, Vec<u8>);
}

impl EncodeAsRequest for LookupRequest {
    fn encode_as_request(&self) -> (u8, Vec<u8>) {
        scope_net::Request::Lookup(self.clone()).encode()
    }
}

/// 30/30 mid-request disconnects: a peer that dies after half a header (or
/// half a payload) must not wedge a worker — with only two workers, a real
/// client still gets served after every round.
#[test]
fn mid_request_disconnects_do_not_wedge_workers() {
    let service = service_with_view();
    let telemetry = Telemetry::new();
    let config = ServerConfig {
        workers: 2,
        ..quick_config()
    };
    let server = NetServer::spawn(service, Arc::clone(&telemetry), config).unwrap();
    let addr = server.addr();

    let mut client = NetClient::connect(addr).unwrap();
    for round in 0..30u64 {
        {
            // Half a header, then hang up.
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&scope_net::wire::MAGIC[..3]).unwrap();
        }
        {
            // A full, valid header promising 64 payload bytes; deliver 10
            // and hang up mid-payload.
            let mut conn = TcpStream::connect(addr).unwrap();
            let mut header = Vec::new();
            header.extend_from_slice(&scope_net::wire::MAGIC);
            header.extend_from_slice(&scope_net::wire::VERSION.to_le_bytes());
            header.push(frame_type::LOOKUP);
            header.push(0);
            header.extend_from_slice(&64u32.to_le_bytes());
            conn.write_all(&header).unwrap();
            conn.write_all(&[0u8; 10]).unwrap();
        }
        // Both workers must come back: a real request still completes.
        let resp = client
            .lookup(&lookup_req(round, 3))
            .expect("worker wedged by a disconnected peer");
        assert_eq!(resp.annotations.len(), 1, "round {round}");
    }
    server.shutdown();
}

/// With one worker pinned by a held-open connection and a single queue
/// slot taken, the next connection is shed at the door with a `Busy` frame
/// — and the client policy surfaces it as a transient error.
#[test]
fn overflow_connections_are_shed_with_busy() {
    let service = service_with_view();
    let telemetry = Telemetry::new();
    let config = ServerConfig {
        workers: 1,
        max_pending: 1,
        idle_poll: Duration::from_millis(5),
        idle_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let server = NetServer::spawn(service, Arc::clone(&telemetry), config).unwrap();
    let addr = server.addr();

    // Pin the only worker: an open connection that never sends a frame.
    let pin = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the worker pop it
                                                    // Fill the single queue slot.
    let _queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The next connection must be answered with Busy and closed.
    let mut overflow = TcpStream::connect(addr).unwrap();
    overflow
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (ty, payload) = read_frame(&mut overflow).expect("shed answer");
    match Response::decode(ty, &payload).unwrap() {
        Response::Error(frame) => {
            assert_eq!(frame.kind, ErrorKind::Busy);
            assert!(frame.kind.is_transient(), "Busy is retryable by contract");
        }
        other => panic!("expected busy frame, got {other:?}"),
    }
    let snap = telemetry.metrics.snapshot();
    assert!(snap.counter("cv_net_shed_total") >= 1);

    // A client that *retries* (the Busy contract) with spaced backoff can
    // still be refused if the server stays saturated; it must surface a
    // ServiceUnavailable, not hang.
    let mut client = NetClient::with_config(
        addr,
        ClientConfig {
            deadline: Duration::from_millis(500),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    match client.lookup(&lookup_req(1, 1)) {
        Err(ScopeError::ServiceUnavailable(_)) => {}
        Err(other) => panic!("expected ServiceUnavailable, got {other}"),
        Ok(_) => {
            // Legal: the pinned worker's queue slot freed up mid-retry and
            // the request landed. Either way, nothing hung.
        }
    }
    drop(pin);
    server.shutdown();
}

/// Frames share the server's read buffer without losing a byte: two
/// requests sent in one write are both answered, in order, and a request
/// whose second half arrives after several idle ticks (on a pool with a
/// backlog to rotate to) is still read whole under the frame deadline.
#[test]
fn two_frames_in_one_write_are_both_answered() {
    let service = service_with_view();
    let telemetry = Telemetry::new();
    let config = ServerConfig {
        workers: 1,
        ..quick_config()
    };
    let server = NetServer::spawn(service, Arc::clone(&telemetry), config).unwrap();
    let addr = server.addr();
    let frame = |job| {
        let (ty, payload) = lookup_req(job, 0).encode_as_request();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, ty, &payload).unwrap();
        bytes
    };
    let answered =
        |conn: &mut TcpStream| match read_frame(conn).map(|(ty, p)| Response::decode(ty, &p)) {
            Ok(Ok(Response::Lookup(resp))) => resp.annotations.len(),
            other => panic!("expected a lookup response, got {other:?}"),
        };

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(&[frame(1), frame(2)].concat()).unwrap();
    assert_eq!(answered(&mut conn), 1);
    assert_eq!(answered(&mut conn), 1);

    // A second connection waits in the queue while the first stalls
    // mid-frame: a parked connection would lose the buffered half.
    let _waiting = TcpStream::connect(addr).unwrap();
    let split = frame(3);
    conn.write_all(&split[..5]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    conn.write_all(&split[5..]).unwrap();
    assert_eq!(answered(&mut conn), 1);

    let snap = telemetry.metrics.snapshot();
    assert_eq!(snap.counter("cv_net_frames_total"), 3);
    assert_eq!(snap.counter("cv_net_malformed_total"), 0);
    server.shutdown();
}
