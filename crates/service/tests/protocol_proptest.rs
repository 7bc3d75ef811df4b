//! Property tests for the wire protocol, centred on the mutation
//! frames: insert/delete requests and their acks round-trip for
//! arbitrary payloads, every truncation of a valid frame is rejected
//! (or reported as clean EOF) rather than mis-parsed, unknown and
//! retired opcodes are refused in both directions, and arbitrary
//! garbage never panics the decoder.

use cc_service::protocol::{read_request, read_response, write_request, write_response};
use cc_service::{ProtoError, Request, Response};
use cc_storage::wal::{WalOp, WalRecord};
use proptest::prelude::*;
use std::io::Cursor;

fn coord() -> impl Strategy<Value = f32> {
    -1.0e6f32..1.0e6
}

/// Replica names over `[a-z0-9]` (the vendored shim has no regex
/// strategies, so spell the alphabet out).
fn name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..36, 1..24)
        .prop_map(|v| v.into_iter().map(|b| char::from_digit(b as u32, 36).unwrap()).collect())
}

/// One replication record: an insert (vector + metadata) or a delete.
fn wal_record() -> impl Strategy<Value = WalRecord> {
    (
        0u64..u64::MAX,
        0u8..2,
        proptest::collection::vec(coord(), 1..12),
        0u64..u64::MAX,
        0u32..u32::MAX,
        0u32..u32::MAX,
    )
        .prop_map(|(seq, kind, vector, tag, label, oid)| {
            let op = if kind == 0 {
                WalOp::Insert { oid, vector, tag, label }
            } else {
                WalOp::Delete { oid }
            };
            WalRecord { seq, op }
        })
}

fn request_wire(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    write_request(&mut wire, req).unwrap();
    wire
}

fn response_wire(resp: &Response) -> Vec<u8> {
    let mut wire = Vec::new();
    write_response(&mut wire, resp).unwrap();
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_request_round_trips(
        vector in proptest::collection::vec(coord(), 1..32),
        collection in name(),
        named in 0u8..2,
        tag in 0u64..u64::MAX,
        label in 0u32..u32::MAX,
    ) {
        let collection = (named == 1).then_some(collection);
        let req = Request::InsertV2 { collection, tag, label, vector };
        let got = read_request(&mut Cursor::new(request_wire(&req))).unwrap().unwrap();
        prop_assert_eq!(got, req);
    }

    #[test]
    fn delete_request_round_trips(oid in 0u32..u32::MAX) {
        let req = Request::Delete { oid };
        let got = read_request(&mut Cursor::new(request_wire(&req))).unwrap().unwrap();
        prop_assert_eq!(got, req);
    }

    #[test]
    fn ack_responses_round_trip(oid in 0u32..u32::MAX, seq in 0u64..u64::MAX, found in 0u8..2) {
        for resp in [
            Response::InsertAck { oid, seq },
            Response::DeleteAck { oid, found: found == 1, seq },
        ] {
            let got = read_response(&mut Cursor::new(response_wire(&resp))).unwrap().unwrap();
            prop_assert_eq!(got, resp);
        }
    }

    /// Every strict truncation of a valid mutation frame must surface
    /// as an error or a clean EOF — decoding a different value from a
    /// torn frame would let a half-written ack certify a mutation that
    /// never became durable.
    #[test]
    fn truncated_mutation_frames_never_misparse(
        vector in proptest::collection::vec(coord(), 1..16),
        oid in 0u32..u32::MAX,
        seq in 0u64..u64::MAX,
    ) {
        for wire in [
            request_wire(&Request::InsertV2 {
                collection: None,
                tag: seq,
                label: oid,
                vector: vector.clone(),
            }),
            request_wire(&Request::InsertV2 {
                collection: Some("alpha".into()),
                tag: seq,
                label: oid,
                vector: vector.clone(),
            }),
            request_wire(&Request::Delete { oid }),
        ] {
            for len in 0..wire.len() {
                match read_request(&mut Cursor::new(&wire[..len])) {
                    Ok(None) | Err(_) => {}
                    Ok(Some(got)) => panic!(
                        "request truncated to {len}/{} bytes parsed as {got:?}",
                        wire.len()
                    ),
                }
            }
        }
        for wire in [
            response_wire(&Response::InsertAck { oid, seq }),
            response_wire(&Response::DeleteAck { oid, found: true, seq }),
        ] {
            for len in 0..wire.len() {
                match read_response(&mut Cursor::new(&wire[..len])) {
                    Ok(None) | Err(_) => {}
                    Ok(Some(got)) => panic!(
                        "response truncated to {len}/{} bytes parsed as {got:?}",
                        wire.len()
                    ),
                }
            }
        }
    }

    /// Opcodes `0x0F..=0x7E` name no request and `0x8D`/`0x8E` plus
    /// `0x91..` name no response (requests run through `0x0E` ReplAck;
    /// responses skip to `0x8F` Error and `0x90` ReplBatch), and the
    /// retired `0x02` Query, `0x03` Stats, `0x05` Insert, `0x82` TopK
    /// and `0x85` stats answer stay unassigned: both directions must refuse
    /// them as malformed no matter what body follows.
    #[test]
    fn unknown_opcodes_are_rejected(
        req_op in 0x0Fu8..0x7F,
        sampled_resp_op in 0x91u8..0xFF,
        body in proptest::collection::vec(0u8..255, 0..32),
    ) {
        let mut wire = ((body.len() + 1) as u32).to_le_bytes().to_vec();
        wire.push(req_op);
        wire.extend_from_slice(&body);
        for req_op in [0x02, 0x03, 0x05, req_op] {
            wire[4] = req_op;
            prop_assert!(matches!(
                read_request(&mut Cursor::new(&wire[..])),
                Err(ProtoError::Malformed(_))
            ), "request opcode {req_op:#04x} must be unknown");
        }

        // 0x82, 0x85, 0x8D and 0x8E are the only holes below Error
        // (0x8F) and ReplBatch (0x90); everything past 0x90 is
        // unassigned.
        for resp_op in [0x82, 0x85, 0x8D, 0x8E, sampled_resp_op] {
            wire[4] = resp_op;
            prop_assert!(matches!(
                read_response(&mut Cursor::new(&wire[..])),
                Err(ProtoError::Malformed(_))
            ), "response opcode {resp_op:#04x} must be unknown");
        }
    }

    /// Arbitrary bytes through either decoder: error or clean EOF only,
    /// never a panic.
    #[test]
    fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(0u8..255, 0..64)) {
        let _ = read_request(&mut Cursor::new(&bytes[..]));
        let _ = read_response(&mut Cursor::new(&bytes[..]));
    }

    /// The replication control frames round-trip for arbitrary replica
    /// names and sequence positions.
    #[test]
    fn repl_control_frames_round_trip(
        replica in name(),
        from_seq in 0u64..u64::MAX,
        applied_seq in 0u64..u64::MAX,
    ) {
        for req in [
            Request::ReplSubscribe { replica, from_seq },
            Request::ReplAck { applied_seq },
        ] {
            let got = read_request(&mut Cursor::new(request_wire(&req))).unwrap().unwrap();
            prop_assert_eq!(got, req);
        }
    }

    /// A replication batch — the frame that actually carries state
    /// between processes — round-trips record-exactly for arbitrary
    /// insert/delete mixes, including the empty heartbeat.
    #[test]
    fn repl_batches_round_trip(
        last_seq in 0u64..u64::MAX,
        records in proptest::collection::vec(wal_record(), 0..8),
    ) {
        let resp = Response::ReplBatch { last_seq, records };
        let got = read_response(&mut Cursor::new(response_wire(&resp))).unwrap().unwrap();
        prop_assert_eq!(got, resp);
    }

    /// Every strict truncation of a replication frame is refused (or
    /// reads as clean EOF) — a torn batch that decoded to *fewer*
    /// records than shipped would silently lose acknowledged writes on
    /// the follower.
    #[test]
    fn truncated_repl_frames_never_misparse(
        replica in name(),
        seqs in (0u64..u64::MAX, 0u64..u64::MAX),
        records in proptest::collection::vec(wal_record(), 1..4),
    ) {
        for wire in [
            request_wire(&Request::ReplSubscribe { replica, from_seq: seqs.0 }),
            request_wire(&Request::ReplAck { applied_seq: seqs.1 }),
        ] {
            for len in 0..wire.len() {
                match read_request(&mut Cursor::new(&wire[..len])) {
                    Ok(None) | Err(_) => {}
                    Ok(Some(got)) => panic!(
                        "request truncated to {len}/{} bytes parsed as {got:?}",
                        wire.len()
                    ),
                }
            }
        }
        let wire = response_wire(&Response::ReplBatch { last_seq: seqs.0, records });
        for len in 0..wire.len() {
            match read_response(&mut Cursor::new(&wire[..len])) {
                Ok(None) | Err(_) => {}
                Ok(Some(got)) => panic!(
                    "batch truncated to {len}/{} bytes parsed as {got:?}",
                    wire.len()
                ),
            }
        }
    }
}
