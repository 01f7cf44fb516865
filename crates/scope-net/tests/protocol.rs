//! Protocol property tests: every frame type round-trips bit-for-bit, and
//! no sequence of adversarial bytes — truncations, mutations, random
//! garbage, hostile length prefixes, nesting bombs — makes the decoder
//! panic. The decoder is the server's first line of defense; its only legal
//! failure mode is `WireError`.

use std::io::Cursor;

use cloudviews::api::LookupRequest;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_common::hash::Sig128;
use scope_common::ids::JobId;
use scope_common::time::SimTime;
use scope_common::ScopeError;
use scope_net::proto::{ErrorFrame, ErrorKind, Request, Response};
use scope_net::wire::{
    self, frame_type, read_frame, write_frame, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use scope_plan::expr::UnaryOp;
use scope_plan::{Expr, NamedExpr};
use scope_signature::{SubsumeDescriptor, SubsumeDetail, SubsumeKind};

#[path = "support/frames.rs"]
mod frames;
use frames::{all_requests, all_responses, schema};

// ---------------------------------------------------------------------------
// Round trips

#[test]
fn every_request_round_trips() {
    for req in all_requests() {
        let (ty, payload) = req.encode();
        let back = Request::decode(ty, &payload).expect("valid request payload decodes");
        assert_eq!(req, back);
        // Stability: re-encoding the decoded value is byte-identical.
        assert_eq!((ty, payload), back.encode());
    }
}

#[test]
fn every_response_round_trips() {
    for resp in all_responses() {
        let (ty, payload) = resp.encode();
        let back = Response::decode(ty, &payload).expect("valid response payload decodes");
        // `LookupResponse` has no `Eq`; byte-identical re-encoding is the
        // round-trip witness (and the contract the acceptance test uses).
        assert_eq!((ty, payload), back.encode());
    }
}

#[test]
fn every_frame_survives_the_wire_layer() {
    for req in all_requests() {
        let (ty, payload) = req.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, ty, &payload).expect("write");
        let (rty, rpayload) = read_frame(&mut Cursor::new(&buf)).expect("read");
        assert_eq!((rty, rpayload), (ty, payload));
    }
    for resp in all_responses() {
        let (ty, payload) = resp.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, ty, &payload).expect("write");
        let (rty, rpayload) = read_frame(&mut Cursor::new(&buf)).expect("read");
        assert_eq!((rty, rpayload), (ty, payload));
    }
}

#[test]
fn error_frames_map_the_scope_error_taxonomy_both_ways() {
    let errors = [
        ScopeError::InvalidPlan("a".into()),
        ScopeError::Expression("b".into()),
        ScopeError::Optimizer("c".into()),
        ScopeError::Execution("d".into()),
        ScopeError::Storage("e".into()),
        ScopeError::Metadata("f".into()),
        ScopeError::Workload("g".into()),
        ScopeError::ServiceUnavailable("h".into()),
        ScopeError::ViewUnavailable("i".into()),
    ];
    for err in &errors {
        let frame = ErrorFrame::from_scope_error(err);
        let back = frame.to_scope_error();
        assert_eq!(err.kind(), back.kind(), "taxonomy preserved for {err:?}");
        assert_eq!(err.message(), back.message());
        assert_eq!(
            err.is_degradable(),
            frame.kind.is_transient(),
            "retry contract preserved for {err:?}"
        );
    }
    // The three wire-level kinds have no ScopeError twin; they degrade to
    // the documented fallbacks and keep their transiency.
    assert!(ErrorKind::Busy.is_transient());
    assert!(!ErrorKind::OverQuota.is_transient());
    assert!(!ErrorKind::Malformed.is_transient());
}

// ---------------------------------------------------------------------------
// Adversarial headers

#[test]
fn header_rejects_bad_magic() {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame_type::PURGE, &[]).unwrap();
    buf[0] = b'X';
    match read_frame(&mut Cursor::new(&buf)) {
        Err(WireError::BadMagic(m)) => assert_eq!(&m[1..], &MAGIC[1..]),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn header_rejects_wrong_version() {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame_type::STATS, &[]).unwrap();
    buf[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
    match read_frame(&mut Cursor::new(&buf)) {
        Err(WireError::BadVersion(v)) => assert_eq!(v, VERSION + 1),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn header_rejects_unknown_frame_type() {
    for ty in [0x00u8, 0x06, 0x42, 0x80, 0x86, 0xE1, 0xFF] {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame_type::PURGE, &[]).unwrap();
        buf[6] = ty;
        match read_frame(&mut Cursor::new(&buf)) {
            Err(WireError::BadFrameType(t)) => assert_eq!(t, ty),
            other => panic!("expected BadFrameType(0x{ty:02x}), got {other:?}"),
        }
    }
}

#[test]
fn header_rejects_oversized_length_prefix_before_allocating() {
    // A hostile length prefix (4 GiB - 1) must be rejected from the 12-byte
    // header alone — no payload bytes exist to back it.
    let mut buf = Vec::new();
    write_frame(&mut buf, frame_type::LOOKUP, &[]).unwrap();
    buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    match read_frame(&mut Cursor::new(&buf)) {
        Err(WireError::Oversized(n)) => assert_eq!(n, u32::MAX),
        other => panic!("expected Oversized, got {other:?}"),
    }
    const { assert!(MAX_PAYLOAD < u32::MAX) };
}

#[test]
fn truncated_header_and_payload_fail_as_io() {
    let req = &all_requests()[0];
    let (ty, payload) = req.encode();
    let mut buf = Vec::new();
    write_frame(&mut buf, ty, &payload).unwrap();
    for cut in 0..buf.len() {
        match read_frame(&mut Cursor::new(&buf[..cut])) {
            Err(e) => assert!(e.is_io(), "cut at {cut}: expected io error, got {e}"),
            Ok(_) => panic!("cut at {cut}: truncated frame decoded"),
        }
    }
}

#[test]
fn writer_refuses_oversized_payloads() {
    // Claiming more than MAX_PAYLOAD is a local bug, caught before any
    // bytes hit the socket. (Build the length check input without actually
    // allocating 16 MiB: write_frame checks `payload.len()` only.)
    let payload = vec![0u8; MAX_PAYLOAD as usize + 1];
    let mut sink = Vec::new();
    match write_frame(&mut sink, frame_type::REPORT, &payload) {
        Err(WireError::Oversized(_)) => {}
        other => panic!("expected Oversized, got {other:?}"),
    }
    assert!(
        sink.is_empty(),
        "nothing may be written for a refused frame"
    );
}

// ---------------------------------------------------------------------------
// Adversarial payloads: the decoder may refuse, never panic.

#[test]
fn every_strict_prefix_of_a_valid_payload_is_rejected() {
    for req in all_requests() {
        let (ty, payload) = req.encode();
        for cut in 0..payload.len() {
            assert!(
                Request::decode(ty, &payload[..cut]).is_err(),
                "{ty:#x} prefix of {cut}/{} decoded",
                payload.len()
            );
        }
    }
    for resp in all_responses() {
        let (ty, payload) = resp.encode();
        for cut in 0..payload.len() {
            assert!(
                Response::decode(ty, &payload[..cut]).is_err(),
                "{ty:#x} prefix of {cut}/{} decoded",
                payload.len()
            );
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    for req in all_requests() {
        let (ty, mut payload) = req.encode();
        payload.push(0);
        assert!(Request::decode(ty, &payload).is_err());
    }
    for resp in all_responses() {
        let (ty, mut payload) = resp.encode();
        payload.push(0);
        assert!(Response::decode(ty, &payload).is_err());
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    // Flip every byte of every valid payload through a few values. Decode
    // may succeed (some bytes are free), but must never panic; successful
    // decodes must re-encode without panicking too.
    for req in all_requests() {
        let (ty, payload) = req.encode();
        for pos in 0..payload.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut mutated = payload.clone();
                mutated[pos] ^= flip;
                if let Ok(back) = Request::decode(ty, &mutated) {
                    let _ = back.encode();
                }
            }
        }
    }
}

#[test]
fn random_garbage_payloads_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xC10D_41E5);
    let types = [
        frame_type::LOOKUP,
        frame_type::PROPOSE,
        frame_type::REPORT,
        frame_type::PURGE,
        frame_type::STATS,
        frame_type::LOOKUP_OK,
        frame_type::PROPOSE_OK,
        frame_type::REPORT_OK,
        frame_type::PURGE_OK,
        frame_type::STATS_OK,
        frame_type::ERROR,
    ];
    for round in 0..2000 {
        let len = rng.gen_range(0..256usize);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let ty = types[round % types.len()];
        let _ = Request::decode(ty, &payload);
        let _ = Response::decode(ty, &payload);
    }
}

#[test]
fn hostile_sequence_lengths_are_rejected_without_allocation() {
    // A lookup request whose tag count claims 2^32-1 entries: the length
    // prefix must be refused (MAX_SEQ), not trusted for a reservation.
    let mut payload = Vec::new();
    payload.extend_from_slice(&42u64.to_le_bytes()); // job
    payload.extend_from_slice(&7u64.to_le_bytes()); // vc
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // tag count
    let err = Request::decode(frame_type::LOOKUP, &payload).unwrap_err();
    assert!(matches!(err, WireError::Malformed(_)), "got {err}");

    // Same for a hostile string length inside the first tag.
    let mut payload = Vec::new();
    payload.extend_from_slice(&42u64.to_le_bytes());
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes()); // one tag
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // of absurd length
    let err = Request::decode(frame_type::LOOKUP, &payload).unwrap_err();
    assert!(matches!(err, WireError::Malformed(_)), "got {err}");
}

#[test]
fn expression_nesting_bombs_are_depth_limited() {
    // 200 nested unary nodes squeeze into ~400 bytes; an unchecked decoder
    // would recurse once per node. The codec caps depth at MAX_EXPR_DEPTH.
    let mut deep = Expr::Col(0);
    for _ in 0..200 {
        deep = Expr::Unary {
            op: UnaryOp::Not,
            child: Box::new(deep),
        };
    }
    let desc = SubsumeDescriptor {
        kind: SubsumeKind::Project,
        child_precise: Sig128::ZERO,
        cols: 1,
        keys: 0,
        schema: schema(),
        detail: SubsumeDetail::Project {
            exprs: vec![NamedExpr {
                name: "bomb".into(),
                expr: deep,
            }],
        },
    };
    let req = Request::Lookup(
        LookupRequest::new(JobId::new(1), &[], SimTime::ZERO).with_probes(vec![desc]),
    );
    let (ty, payload) = req.encode();
    let err = Request::decode(ty, &payload).unwrap_err();
    match err {
        WireError::Malformed(m) => assert!(m.contains("nesting"), "unexpected message: {m}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn header_constants_are_pinned() {
    // The wire format is a compatibility contract; lock the constants so an
    // accidental change fails loudly instead of silently forking the
    // protocol.
    assert_eq!(MAGIC, *b"SCPN");
    assert_eq!(VERSION, 1);
    assert_eq!(HEADER_LEN, 12);
    assert_eq!(MAX_PAYLOAD, 16 * 1024 * 1024);
    assert_eq!(wire::frame_type::LOOKUP, 0x01);
    assert_eq!(wire::frame_type::ERROR, 0xE0);
}
