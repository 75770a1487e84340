//! Tape-driven generators for every wire-message type.
//!
//! Each generator consumes bytes from a [`Tape`] and builds a structurally
//! valid message — group elements are genuine curve points / canonical
//! field strings, so the values exercise the *semantic* layers, not just
//! the parser. Sizes are drawn small (a handful of items, short strings)
//! because protocol bugs live in structure, not bulk; the byte-level
//! shrinker then drives failing cases toward the empty message.

use seccloud_core::computation::{
    AuditChallenge, AuditItemResponse, AuditResponse, Commitment, ComputationRequest,
    ComputeFunction, RequestItem,
};
use seccloud_core::storage::{DataBlock, SignedBlock};
use seccloud_core::warrant::Warrant;
use seccloud_ibs::DesignatedSignature;
use seccloud_merkle::{MerklePath, Node};
use seccloud_pairing::{hash_to_g1, Gt, G1};

use crate::tape::Tape;

/// A point of `G1` — a genuine curve point derived from one tape byte
/// (hash-to-curve over a 256-element pool keeps generation cheap while
/// still giving distinct, decodable points).
pub fn g1(t: &mut Tape) -> G1 {
    hash_to_g1(&[b'g', t.next_u8()])
}

/// A canonical `GT` byte string reinterpreted as an element: each of the
/// twelve `Fp` coefficients is a 64-bit value (always `< p`, hence
/// canonical), so [`Gt::from_bytes`] accepts it.
pub fn gt(t: &mut Tape) -> Gt {
    let mut bytes = [0u8; 384];
    for i in 0..12 {
        bytes[i * 32 + 24..i * 32 + 32].copy_from_slice(&t.next_u64().to_be_bytes());
    }
    Gt::from_bytes(&bytes).expect("small coefficients are canonical")
}

/// A structurally valid designated signature (not protocol-valid).
pub fn signature(t: &mut Tape) -> DesignatedSignature {
    DesignatedSignature::from_parts(g1(t), gt(t))
}

/// A 32-byte Merkle node.
pub fn node(t: &mut Tape) -> Node {
    t.next_bytes(32).try_into().expect("32 bytes")
}

/// A short ASCII identity string.
pub fn identity(t: &mut Tape) -> String {
    let len = t.next_below(8) as usize;
    (0..len)
        .map(|_| char::from(b'a' + (t.next_below(26) as u8)))
        .collect()
}

/// A data block with up to 32 payload bytes.
pub fn data_block(t: &mut Tape) -> DataBlock {
    let index = t.next_u64();
    let len = t.next_below(33) as usize;
    DataBlock::new(index, t.next_bytes(len))
}

/// A signed block carrying 0–2 designations.
pub fn signed_block(t: &mut Tape) -> SignedBlock {
    let block = data_block(t);
    let n = t.next_below(3) as usize;
    let designations = (0..n).map(|_| (identity(t), signature(t))).collect();
    SignedBlock::from_parts(block, designations)
}

/// Any of the eight compute functions, with short coefficient vectors.
pub fn compute_function(t: &mut Tape) -> ComputeFunction {
    match t.next_below(8) {
        0 => ComputeFunction::Sum,
        1 => ComputeFunction::Average,
        2 => ComputeFunction::Max,
        3 => ComputeFunction::Min,
        4 => ComputeFunction::Count,
        5 => {
            let n = t.next_below(4) as usize;
            ComputeFunction::WeightedSum((0..n).map(|_| t.next_u64()).collect())
        }
        6 => {
            let n = t.next_below(4) as usize;
            ComputeFunction::Polynomial((0..n).map(|_| t.next_u64()).collect())
        }
        _ => ComputeFunction::SumSquaredDeviation,
    }
}

/// A computation request of 0–4 items.
pub fn computation_request(t: &mut Tape) -> ComputationRequest {
    let n = t.next_below(5) as usize;
    let items = (0..n)
        .map(|_| {
            let function = compute_function(t);
            let np = t.next_below(4) as usize;
            RequestItem {
                function,
                positions: (0..np).map(|_| t.next_u64()).collect(),
            }
        })
        .collect();
    ComputationRequest::new(items)
}

/// A commitment with 0–4 results.
pub fn commitment(t: &mut Tape) -> Commitment {
    let n = t.next_below(5) as usize;
    Commitment {
        results: (0..n).map(|_| t.next_u128()).collect(),
        root: node(t),
        root_sig: signature(t),
        server_identity: identity(t),
    }
}

/// An audit challenge with 0–5 indices and a random nonce.
pub fn audit_challenge(t: &mut Tape) -> AuditChallenge {
    let n = t.next_below(6) as usize;
    AuditChallenge {
        indices: (0..n).map(|_| t.next_below(1 << 32) as usize).collect(),
        nonce: t.next_u128(),
    }
}

/// A Merkle path with 0–5 siblings.
pub fn merkle_path(t: &mut Tape) -> MerklePath {
    let n = t.next_below(6) as usize;
    let siblings = (0..n).map(|_| (node(t), t.next_bool())).collect();
    let leaf_count = t.next_below(64) as usize;
    MerklePath::from_parts(siblings, leaf_count)
}

/// A full audit response with 0–2 items, each holding 0–1 input blocks.
pub fn audit_response(t: &mut Tape) -> AuditResponse {
    let n = t.next_below(3) as usize;
    let items = (0..n)
        .map(|_| {
            let item_index = t.next_below(1 << 32) as usize;
            let nb = t.next_below(2) as usize;
            AuditItemResponse {
                item_index,
                inputs: (0..nb).map(|_| signed_block(t)).collect(),
                claimed_y: t.next_u128(),
                path: merkle_path(t),
            }
        })
        .collect();
    AuditResponse {
        nonce: t.next_u128(),
        items,
    }
}

/// A warrant with 0–2 designations (structurally valid, unsigned content).
pub fn warrant(t: &mut Tape) -> Warrant {
    let delegator = identity(t);
    let delegatee = identity(t);
    let expires_at = t.next_u64();
    let digest: [u8; 32] = t.next_bytes(32).try_into().expect("32 bytes");
    let n = t.next_below(3) as usize;
    let designations = (0..n).map(|_| (identity(t), signature(t))).collect();
    Warrant::from_parts(delegator, delegatee, expires_at, digest, designations)
}

/// A raw byte string of length 0–511 (for decode-totality properties).
pub fn raw_bytes(t: &mut Tape) -> Vec<u8> {
    let len = t.next_below(512) as usize;
    t.next_bytes(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_hash::HmacDrbg;

    #[test]
    fn generators_are_tape_deterministic() {
        let mut d = HmacDrbg::new(b"gen-det");
        let bytes = d.next_bytes(1024);
        let a = audit_response(&mut Tape::new(bytes.clone()));
        let b = audit_response(&mut Tape::new(bytes));
        assert_eq!(a, b);
    }

    #[test]
    fn gt_round_trips_through_bytes() {
        let mut d = HmacDrbg::new(b"gen-gt");
        let mut t = Tape::from_drbg(&mut d, 256);
        let v = gt(&mut t);
        assert_eq!(Gt::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn exhausted_tape_still_generates() {
        // All-zero draws must produce valid (minimal) values, not panics.
        let mut t = Tape::new(Vec::new());
        let r = audit_response(&mut t);
        assert_eq!(r.items.len(), 0);
        let w = warrant(&mut Tape::new(Vec::new()));
        assert_eq!(w.delegator(), "");
    }
}
