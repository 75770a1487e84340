//! Property suite for the wire codecs (`seccloud_core::wire`).
//!
//! Two machine-checked properties over every [`WireMessage`] type:
//!
//! * **round trip** — `decode(encode(m)) == m` for generated messages;
//! * **decode totality** — decoding arbitrary or mutated bytes returns a
//!   typed [`WireError`], never panics and never over-allocates.
//!
//! Cases per property come from `SECCLOUD_TESTKIT_CASES` (default 200);
//! failures print the seed and minimal shrunk input to reproduce.

use seccloud::core::computation::{
    AuditChallenge, AuditResponse, Commitment, ComputationRequest, ComputeFunction,
};
use seccloud::core::storage::{DataBlock, SignedBlock};
use seccloud::core::warrant::Warrant;
use seccloud::core::wire::{WireError, WireMessage, Writer};
use seccloud::merkle::MerklePath;
use seccloud::testkit::{forall, gen, Tape};

fn round_trip<T>(name: &str, g: fn(&mut Tape) -> T)
where
    T: WireMessage + PartialEq + std::fmt::Debug,
{
    forall(name, g, |m| {
        let bytes = m.to_wire();
        let decoded =
            T::from_wire(&bytes).map_err(|e| format!("decoding a valid encoding failed: {e}"))?;
        if &decoded == m {
            Ok(())
        } else {
            Err("decode(encode(m)) != m".into())
        }
    });
}

#[test]
fn data_block_round_trips() {
    round_trip("round-trip/data-block", gen::data_block);
}

#[test]
fn signed_block_round_trips() {
    round_trip("round-trip/signed-block", gen::signed_block);
}

#[test]
fn compute_function_round_trips() {
    round_trip("round-trip/compute-function", gen::compute_function);
}

#[test]
fn computation_request_round_trips() {
    round_trip("round-trip/computation-request", gen::computation_request);
}

#[test]
fn commitment_round_trips() {
    round_trip("round-trip/commitment", gen::commitment);
}

#[test]
fn audit_challenge_round_trips() {
    round_trip("round-trip/audit-challenge", gen::audit_challenge);
}

#[test]
fn merkle_path_round_trips() {
    round_trip("round-trip/merkle-path", gen::merkle_path);
}

#[test]
fn audit_response_round_trips() {
    round_trip("round-trip/audit-response", gen::audit_response);
}

#[test]
fn warrant_round_trips() {
    round_trip("round-trip/warrant", gen::warrant);
}

/// Every decoder must be total over arbitrary byte strings: any outcome is
/// fine as long as it is a typed `Result`, not a panic (the `forall`
/// runner converts panics into failures).
#[test]
fn decoding_arbitrary_bytes_is_total() {
    forall("decode-total/arbitrary", gen::raw_bytes, |bytes| {
        let _ = DataBlock::from_wire(bytes);
        let _ = SignedBlock::from_wire(bytes);
        let _ = ComputeFunction::from_wire(bytes);
        let _ = ComputationRequest::from_wire(bytes);
        let _ = Commitment::from_wire(bytes);
        let _ = AuditChallenge::from_wire(bytes);
        let _ = MerklePath::from_wire(bytes);
        let _ = AuditResponse::from_wire(bytes);
        let _ = Warrant::from_wire(bytes);
        Ok(())
    });
}

/// Mutating one bit of a *valid* encoding reaches the deep decode paths
/// (structurally plausible prefixes) — still no panics allowed, and a
/// successful decode must differ from blind acceptance: re-encoding must
/// reproduce the mutated bytes (canonical encoding).
#[test]
fn decoding_mutated_audit_responses_is_total_and_canonical() {
    forall(
        "decode-total/mutated-response",
        |t| {
            let mut bytes = gen::audit_response(t).to_wire();
            let pos = t.next_below(bytes.len() as u64) as usize;
            let bit = t.next_below(8) as u8;
            bytes[pos] ^= 1 << bit;
            bytes
        },
        |bytes| {
            if let Ok(decoded) = AuditResponse::from_wire(bytes) {
                if decoded.to_wire() != *bytes {
                    return Err("accepted a non-canonical encoding".into());
                }
            }
            Ok(())
        },
    );
}

#[test]
fn decoding_mutated_signed_blocks_is_total_and_canonical() {
    forall(
        "decode-total/mutated-block",
        |t| {
            let mut bytes = gen::signed_block(t).to_wire();
            let pos = t.next_below(bytes.len() as u64) as usize;
            let bit = t.next_below(8) as u8;
            bytes[pos] ^= 1 << bit;
            bytes
        },
        |bytes| {
            if let Ok(decoded) = SignedBlock::from_wire(bytes) {
                if decoded.to_wire() != *bytes {
                    return Err("accepted a non-canonical encoding".into());
                }
            }
            Ok(())
        },
    );
}

/// Direct regression tests for the length-cap hardening: a declared
/// collection length that cannot fit in the remaining input must be
/// rejected *before* any allocation, for every collection decoder.
#[test]
fn length_bombs_are_rejected_before_allocation() {
    // AuditResponse: huge item count right after the nonce.
    let mut w = Writer::new();
    w.put_u128(7); // nonce
    w.put_u64(1 << 20); // declared items, no data behind it
    assert_eq!(
        AuditResponse::from_wire(&w.finish()),
        Err(WireError::Truncated)
    );

    // Commitment: huge result count.
    let mut w = Writer::new();
    w.put_u64(1 << 20);
    assert_eq!(
        Commitment::from_wire(&w.finish()),
        Err(WireError::Truncated)
    );

    // AuditChallenge: huge index count.
    let mut w = Writer::new();
    w.put_u128(0); // nonce
    w.put_u64(1 << 20);
    assert_eq!(
        AuditChallenge::from_wire(&w.finish()),
        Err(WireError::Truncated)
    );

    // SignedBlock: huge designation count after a tiny block.
    let mut w = Writer::new();
    w.put_u64(0); // index
    w.put_bytes(&[1, 2, 3]); // data
    w.put_u64(1 << 20); // designations
    assert_eq!(
        SignedBlock::from_wire(&w.finish()),
        Err(WireError::Truncated)
    );

    // ComputationRequest: huge item count.
    let mut w = Writer::new();
    w.put_u64(1 << 20);
    assert_eq!(
        ComputationRequest::from_wire(&w.finish()),
        Err(WireError::Truncated)
    );

    // MerklePath: huge sibling count.
    let mut w = Writer::new();
    w.put_u64(4); // leaf count
    w.put_u64(1 << 20); // siblings
    assert_eq!(
        MerklePath::from_wire(&w.finish()),
        Err(WireError::Truncated)
    );

    // Lengths beyond the absolute sanity bound stay LengthOverflow.
    let mut w = Writer::new();
    w.put_u64(0);
    w.put_u64(u64::MAX); // data length
    assert_eq!(
        DataBlock::from_wire(&w.finish()),
        Err(WireError::LengthOverflow)
    );
}
