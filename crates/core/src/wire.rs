//! Wire format for every protocol message.
//!
//! The paper's protocol is a network protocol — users upload
//! `{D, Φ}` bundles, servers return `{Y, Sig(R)}` commitments, and audits
//! exchange challenges and responses. This module gives each message a
//! compact, versioned, canonical binary encoding:
//!
//! * `G1` points travel compressed (32 bytes), `G2` compressed (64 bytes),
//!   `GT` values as 384-byte canonical coefficient strings;
//! * every variable-length field is length-prefixed; decoding rejects
//!   trailing bytes, truncations, bad tags and non-canonical field
//!   elements;
//! * decoded signatures/points are *structurally* validated here
//!   (on-curve, canonical) while protocol validity is established by the
//!   usual verification calls.
#![deny(clippy::indexing_slicing, clippy::string_slice)]
use seccloud_ibs::DesignatedSignature;
use seccloud_merkle::{MerklePath, Node};
use seccloud_pairing::{G1Affine, Gt, G1};

use crate::computation::{
    AuditChallenge, AuditItemResponse, AuditResponse, Commitment, ComputationRequest,
    ComputeFunction, RequestItem,
};
use crate::storage::{DataBlock, SignedBlock};
use crate::warrant::Warrant;

/// Format version byte leading every top-level message.
const VERSION: u8 = 1;

/// Errors from decoding a wire message, or from moving one across a real
/// I/O boundary (the `Timeout`/`ConnectionLost`/`FrameTooLarge`/
/// `TruncatedFrame` variants are produced by the socket framing layer in
/// `crates/net`, never by the in-memory decoders).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Unknown version or enum tag.
    BadTag(u8),
    /// A point or field element failed structural validation.
    BadElement,
    /// Input had bytes left over after the structure.
    TrailingBytes,
    /// A declared length exceeds sanity bounds.
    LengthOverflow,
    /// A socket read or write missed its per-connection deadline.
    Timeout,
    /// The connection dropped between frames (reset, clean close, broken
    /// pipe) — no frame was in flight when it died.
    ConnectionLost,
    /// A frame header declared a length beyond the hard cap. Rejected
    /// *before* any allocation: a length bomb must cost the receiver
    /// nothing, and is never worth retrying against the same peer.
    FrameTooLarge,
    /// The connection dropped mid-frame: the header promised more bytes
    /// than arrived before EOF.
    TruncatedFrame,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadElement => write!(f, "invalid group/field element"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::LengthOverflow => write!(f, "declared length too large"),
            WireError::Timeout => write!(f, "socket deadline missed"),
            WireError::ConnectionLost => write!(f, "connection lost between frames"),
            WireError::FrameTooLarge => write!(f, "frame length exceeds hard cap"),
            WireError::TruncatedFrame => write!(f, "connection dropped mid-frame"),
        }
    }
}

impl WireError {
    /// Whether retrying the exchange can plausibly succeed.
    ///
    /// Decode failures are transient: the wire is unauthenticated, so a
    /// truncation, flipped tag or mangled element says something about the
    /// *channel*, never about the peer. Authenticated misbehaviour only
    /// exists after a message decodes and its signatures verify — by
    /// construction no [`WireError`] carries such evidence. The I/O
    /// variants follow the same logic: a missed deadline, a dropped
    /// connection or a frame cut short are channel weather. The one
    /// exception is [`WireError::FrameTooLarge`] — a peer that *declares*
    /// an absurd frame length composed that header deliberately (lengths
    /// are not a bit-flip away from sane values at the cap's magnitude), so
    /// hammering it with retries only re-opens the allocation-bomb window.
    pub fn is_transient(&self) -> bool {
        match self {
            WireError::Truncated
            | WireError::BadTag(_)
            | WireError::BadElement
            | WireError::TrailingBytes
            | WireError::LengthOverflow
            | WireError::Timeout
            | WireError::ConnectionLost
            | WireError::TruncatedFrame => true,
            WireError::FrameTooLarge => false,
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum declared collection length accepted while decoding (prevents
/// allocation bombs from hostile peers).
const MAX_LEN: u64 = 1 << 24;

/// A growable encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer with the version header.
    pub fn new() -> Self {
        let mut w = Self { buf: Vec::new() };
        w.put_u8(VERSION);
        w
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_fixed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends length-prefixed bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked decoder.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `data` and consumes the version header.
    ///
    /// # Errors
    ///
    /// [`WireError::BadTag`] for an unsupported version.
    pub fn new(data: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Self { data, pos: 0 };
        let v = r.take_u8()?;
        if v != VERSION {
            return Err(WireError::BadTag(v));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::LengthOverflow)?;
        let out = self.data.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Reads exactly `N` bytes into a fixed array; total, no panics.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        let b = self.take(1)?;
        b.first().copied().ok_or(WireError::Truncated)
    }

    /// Reads a big-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_be_bytes(self.take_array()?))
    }

    /// Reads a bounded length prefix.
    pub fn take_len(&mut self) -> Result<usize, WireError> {
        let n = self.take_u64()?;
        if n > MAX_LEN {
            return Err(WireError::LengthOverflow);
        }
        Ok(n as usize)
    }

    /// Reads a collection length prefix and caps it against the remaining
    /// input *before* any allocation: a collection of `n` elements, each at
    /// least `min_elem_bytes` long, cannot be encoded in fewer than
    /// `n * min_elem_bytes` remaining bytes. A declared length failing that
    /// bound is a lie (or a truncation) and is rejected here, so decoders
    /// can `Vec::with_capacity(n)` safely — no allocation bombs from
    /// hostile length fields.
    pub fn take_len_elems(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.take_len()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Reads length-prefixed bytes.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.take_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, WireError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadElement)
    }

    /// Asserts the input is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

// --- element helpers ------------------------------------------------------

fn put_g1(w: &mut Writer, p: &G1) {
    w.put_fixed(&p.to_affine().to_compressed());
}

fn take_g1(r: &mut Reader<'_>) -> Result<G1, WireError> {
    let bytes: [u8; 32] = r.take_array()?;
    G1Affine::from_compressed(&bytes)
        .map(G1::from)
        .ok_or(WireError::BadElement)
}

fn put_gt(w: &mut Writer, v: &Gt) {
    w.put_fixed(&v.to_bytes());
}

fn take_gt(r: &mut Reader<'_>) -> Result<Gt, WireError> {
    Gt::from_bytes(r.take(384)?).ok_or(WireError::BadElement)
}

fn put_sig(w: &mut Writer, sig: &DesignatedSignature) {
    put_g1(w, sig.u());
    put_gt(w, sig.sigma());
}

fn take_sig(r: &mut Reader<'_>) -> Result<DesignatedSignature, WireError> {
    let u = take_g1(r)?;
    let sigma = take_gt(r)?;
    Ok(DesignatedSignature::from_parts(u, sigma))
}

fn put_designations(w: &mut Writer, items: Vec<(&str, &DesignatedSignature)>) {
    w.put_u64(items.len() as u64);
    for (id, sig) in items {
        w.put_str(id);
        put_sig(w, sig);
    }
}

fn take_designations(r: &mut Reader<'_>) -> Result<Vec<(String, DesignatedSignature)>, WireError> {
    // id length prefix (8) + compressed G1 (32) + Gt (384) per entry.
    let n = r.take_len_elems(8 + 32 + 384)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.take_str()?;
        out.push((id, take_sig(r)?));
    }
    Ok(out)
}

fn put_node(w: &mut Writer, n: &Node) {
    w.put_fixed(n);
}

fn take_node(r: &mut Reader<'_>) -> Result<Node, WireError> {
    r.take_array()
}

// --- message codecs -------------------------------------------------------

/// Types that have a canonical wire encoding.
pub trait WireMessage: Sized {
    /// Appends the body (without version header) to `w`.
    fn encode_body(&self, w: &mut Writer);
    /// Parses the body from `r`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Serializes to a standalone byte string (version header included).
    fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_body(&mut w);
        w.finish()
    }

    /// Parses a standalone byte string, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes)?;
        let v = Self::decode_body(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl WireMessage for DataBlock {
    fn encode_body(&self, w: &mut Writer) {
        w.put_u64(self.index());
        w.put_bytes(self.data());
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let index = r.take_u64()?;
        let data = r.take_bytes()?.to_vec();
        Ok(DataBlock::new(index, data))
    }
}

impl WireMessage for SignedBlock {
    fn encode_body(&self, w: &mut Writer) {
        self.block().encode_body(w);
        put_designations(w, self.designations().collect());
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let block = DataBlock::decode_body(r)?;
        let designations = take_designations(r)?;
        Ok(SignedBlock::from_parts(block, designations))
    }
}

impl WireMessage for ComputeFunction {
    fn encode_body(&self, w: &mut Writer) {
        match self {
            ComputeFunction::Sum => w.put_u8(0),
            ComputeFunction::Average => w.put_u8(1),
            ComputeFunction::Max => w.put_u8(2),
            ComputeFunction::Min => w.put_u8(3),
            ComputeFunction::Count => w.put_u8(4),
            ComputeFunction::WeightedSum(v) => {
                w.put_u8(5);
                w.put_u64(v.len() as u64);
                for x in v {
                    w.put_u64(*x);
                }
            }
            ComputeFunction::Polynomial(v) => {
                w.put_u8(6);
                w.put_u64(v.len() as u64);
                for x in v {
                    w.put_u64(*x);
                }
            }
            ComputeFunction::SumSquaredDeviation => w.put_u8(7),
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.take_u8()?;
        Ok(match tag {
            0 => ComputeFunction::Sum,
            1 => ComputeFunction::Average,
            2 => ComputeFunction::Max,
            3 => ComputeFunction::Min,
            4 => ComputeFunction::Count,
            5 | 6 => {
                let n = r.take_len_elems(8)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.take_u64()?);
                }
                // lint: allow(ct, reason=wire-format discriminant byte, public data, not a MAC tag)
                if tag == 5 {
                    ComputeFunction::WeightedSum(v)
                } else {
                    ComputeFunction::Polynomial(v)
                }
            }
            7 => ComputeFunction::SumSquaredDeviation,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl WireMessage for ComputationRequest {
    fn encode_body(&self, w: &mut Writer) {
        w.put_u64(self.items.len() as u64);
        for item in &self.items {
            item.function.encode_body(w);
            w.put_u64(item.positions.len() as u64);
            for p in &item.positions {
                w.put_u64(*p);
            }
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Function tag (1) + positions length prefix (8) per item.
        let n = r.take_len_elems(1 + 8)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let function = ComputeFunction::decode_body(r)?;
            let np = r.take_len_elems(8)?;
            let mut positions = Vec::with_capacity(np);
            for _ in 0..np {
                positions.push(r.take_u64()?);
            }
            items.push(RequestItem {
                function,
                positions,
            });
        }
        Ok(ComputationRequest::new(items))
    }
}

impl WireMessage for Commitment {
    fn encode_body(&self, w: &mut Writer) {
        w.put_u64(self.results.len() as u64);
        for y in &self.results {
            w.put_u128(*y);
        }
        put_node(w, &self.root);
        put_sig(w, &self.root_sig);
        w.put_str(&self.server_identity);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.take_len_elems(16)?;
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            results.push(r.take_u128()?);
        }
        let root = take_node(r)?;
        let root_sig = take_sig(r)?;
        let server_identity = r.take_str()?;
        Ok(Commitment {
            results,
            root,
            root_sig,
            server_identity,
        })
    }
}

impl WireMessage for AuditChallenge {
    fn encode_body(&self, w: &mut Writer) {
        w.put_u128(self.nonce);
        w.put_u64(self.indices.len() as u64);
        for i in &self.indices {
            w.put_u64(*i as u64);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let nonce = r.take_u128()?;
        let n = r.take_len_elems(8)?;
        let mut indices = Vec::with_capacity(n);
        for _ in 0..n {
            indices.push(r.take_u64()? as usize);
        }
        Ok(AuditChallenge { indices, nonce })
    }
}

impl WireMessage for MerklePath {
    fn encode_body(&self, w: &mut Writer) {
        w.put_u64(self.leaf_count() as u64);
        w.put_u64(self.siblings().len() as u64);
        for (node, is_left) in self.siblings() {
            put_node(w, node);
            w.put_u8(u8::from(*is_left));
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let leaf_count = r.take_len()?;
        // Node (32) + side byte (1) per sibling.
        let n = r.take_len_elems(32 + 1)?;
        let mut siblings = Vec::with_capacity(n);
        for _ in 0..n {
            let node = take_node(r)?;
            let side = match r.take_u8()? {
                0 => false,
                1 => true,
                t => return Err(WireError::BadTag(t)),
            };
            siblings.push((node, side));
        }
        Ok(MerklePath::from_parts(siblings, leaf_count))
    }
}

impl WireMessage for AuditResponse {
    fn encode_body(&self, w: &mut Writer) {
        w.put_u128(self.nonce);
        w.put_u64(self.items.len() as u64);
        for item in &self.items {
            w.put_u64(item.item_index as u64);
            w.put_u64(item.inputs.len() as u64);
            for b in &item.inputs {
                b.encode_body(w);
            }
            w.put_u128(item.claimed_y);
            item.path.encode_body(w);
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let nonce = r.take_u128()?;
        // index (8) + inputs len (8) + claimed_y (16) + path header (16).
        let n = r.take_len_elems(8 + 8 + 16 + 16)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let item_index = r.take_u64()? as usize;
            // Minimal signed block: index (8) + data len (8) + empty
            // designation list (8).
            let nb = r.take_len_elems(8 + 8 + 8)?;
            let mut inputs = Vec::with_capacity(nb);
            for _ in 0..nb {
                inputs.push(SignedBlock::decode_body(r)?);
            }
            let claimed_y = r.take_u128()?;
            let path = MerklePath::decode_body(r)?;
            items.push(AuditItemResponse {
                item_index,
                inputs,
                claimed_y,
                path,
            });
        }
        Ok(AuditResponse { nonce, items })
    }
}

impl WireMessage for Warrant {
    fn encode_body(&self, w: &mut Writer) {
        w.put_str(self.delegator());
        w.put_str(self.delegatee());
        w.put_u64(self.expires_at());
        w.put_fixed(self.request_digest());
        put_designations(w, self.designations().collect());
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let delegator = r.take_str()?;
        let delegatee = r.take_str()?;
        let expires_at = r.take_u64()?;
        let digest: [u8; 32] = r.take_array()?;
        let designations = take_designations(r)?;
        Ok(Warrant::from_parts(
            delegator,
            delegatee,
            expires_at,
            digest,
            designations,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::computation::CommitmentSession;
    use crate::sio::Sio;

    fn world() -> (
        Sio,
        crate::sio::CloudUser,
        crate::sio::VerifierCredential,
        crate::sio::VerifierCredential,
        Vec<SignedBlock>,
        ComputationRequest,
    ) {
        let sio = Sio::new(b"wire-tests");
        let user = sio.register("alice");
        let cs = sio.register_verifier("cs");
        let da = sio.register_verifier("da");
        let blocks: Vec<DataBlock> = (0..6u64)
            .map(|i| DataBlock::from_values(i, &[i, i + 1]))
            .collect();
        let stored = user.sign_blocks(&blocks, &[cs.public(), da.public()]);
        let request = ComputationRequest::new(vec![
            RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![0, 1],
            },
            RequestItem {
                function: ComputeFunction::WeightedSum(vec![3, 1]),
                positions: vec![2, 3],
            },
            RequestItem {
                function: ComputeFunction::Polynomial(vec![1, 0, 2]),
                positions: vec![4, 5],
            },
        ]);
        (sio, user, cs, da, stored, request)
    }

    #[test]
    fn data_block_round_trip() {
        let b = DataBlock::new(42, vec![1, 2, 3, 255]);
        assert_eq!(DataBlock::from_wire(&b.to_wire()).unwrap(), b);
        let empty = DataBlock::new(0, Vec::new());
        assert_eq!(DataBlock::from_wire(&empty.to_wire()).unwrap(), empty);
    }

    #[test]
    fn signed_block_round_trip_preserves_verifiability() {
        let (_, user, cs, da, stored, _) = world();
        for block in &stored {
            let decoded = SignedBlock::from_wire(&block.to_wire()).unwrap();
            assert_eq!(decoded.block(), block.block());
            assert!(decoded.verify(cs.key(), user.public()));
            assert!(decoded.verify(da.key(), user.public()));
        }
    }

    #[test]
    fn request_round_trip_preserves_digest() {
        let (_, _, _, _, _, request) = world();
        let decoded = ComputationRequest::from_wire(&request.to_wire()).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(decoded.digest(), request.digest());
    }

    #[test]
    fn every_compute_function_round_trips() {
        for f in [
            ComputeFunction::Sum,
            ComputeFunction::Average,
            ComputeFunction::Max,
            ComputeFunction::Min,
            ComputeFunction::Count,
            ComputeFunction::WeightedSum(vec![]),
            ComputeFunction::WeightedSum(vec![1, u64::MAX]),
            ComputeFunction::Polynomial(vec![0, 1, 2, 3]),
            ComputeFunction::SumSquaredDeviation,
        ] {
            assert_eq!(ComputeFunction::from_wire(&f.to_wire()).unwrap(), f);
        }
    }

    #[test]
    fn full_audit_through_the_codecs() {
        // Serialize commitment + challenge + response, decode on the "DA
        // side", and verify — the complete network round trip.
        let (_, user, cs, da, stored, request) = world();
        let (commitment, session) = CommitmentSession::commit(
            &request,
            |p| stored.get(p as usize),
            cs.signer(),
            da.public(),
        )
        .unwrap();
        let challenge = AuditChallenge::from_indices(vec![0, 2]);
        let response = session.respond(&challenge).unwrap();

        let commitment2 = Commitment::from_wire(&commitment.to_wire()).unwrap();
        let challenge2 = AuditChallenge::from_wire(&challenge.to_wire()).unwrap();
        let response2 = AuditResponse::from_wire(&response.to_wire()).unwrap();

        let outcome = crate::computation::verify_response(
            da.key(),
            user.public(),
            cs.signer_public(),
            &request,
            &challenge2,
            &commitment2,
            &response2,
        );
        assert!(outcome.is_valid(), "{outcome:?}");
    }

    #[test]
    fn warrant_round_trip_preserves_verifiability() {
        let (_, user, cs, _, _, request) = world();
        let w = Warrant::issue(&user, "da", 500, request.digest(), &[cs.public()]);
        let decoded = Warrant::from_wire(&w.to_wire()).unwrap();
        assert!(decoded
            .verify(cs.key(), user.public(), "da", &request.digest(), 10)
            .is_ok());
        // Tampering with any serialized byte breaks either decoding or the
        // signature.
        let bytes = w.to_wire();
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        match Warrant::from_wire(&bad) {
            Err(_) => {}
            Ok(tampered) => {
                assert!(tampered
                    .verify(cs.key(), user.public(), "da", &request.digest(), 10)
                    .is_err());
            }
        }
    }

    #[test]
    fn decoder_rejects_malformed_input() {
        let (_, _, _, _, stored, _) = world();
        let good = stored[0].to_wire();
        // Truncations at every prefix length must error, never panic.
        for cut in 0..good.len().min(200) {
            assert!(SignedBlock::from_wire(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage rejected.
        let mut extended = good.clone();
        extended.push(0);
        assert_eq!(
            SignedBlock::from_wire(&extended),
            Err(WireError::TrailingBytes)
        );
        // Wrong version rejected.
        let mut wrong_version = good.clone();
        wrong_version[0] = 99;
        assert_eq!(
            SignedBlock::from_wire(&wrong_version),
            Err(WireError::BadTag(99))
        );
        // Length bomb rejected.
        let mut w = Writer::new();
        w.put_u64(7); // index
        w.put_u64(u64::MAX); // absurd data length
        assert_eq!(
            DataBlock::from_wire(&w.finish()),
            Err(WireError::LengthOverflow)
        );
    }

    #[test]
    fn corrupted_point_bytes_rejected_as_bad_element() {
        let (_, _, _, _, stored, _) = world();
        let mut bytes = stored[0].to_wire();
        // The first compressed G1 point begins after version(1) + index(8) +
        // data-len(8) + data(16) + designation-count(8) + id-len(8) + "cs"(2).
        let point_start = 1 + 8 + 8 + 16 + 8 + 8 + 2;
        // Set an x-coordinate ≥ p (all 0x3f.. is fine since flags masked).
        for b in bytes[point_start..point_start + 32].iter_mut() {
            *b = 0xff;
        }
        let result = SignedBlock::from_wire(&bytes);
        assert!(
            matches!(
                result,
                Err(WireError::BadElement) | Err(WireError::Truncated)
            ),
            "{result:?}"
        );
    }

    #[test]
    fn merkle_path_round_trip() {
        use seccloud_merkle::MerkleTree;
        let data: Vec<Vec<u8>> = (0..9u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let tree = MerkleTree::from_data(data.iter().map(Vec::as_slice));
        for i in [0usize, 4, 8] {
            let path = tree.prove(i).unwrap();
            let decoded = MerklePath::from_wire(&path.to_wire()).unwrap();
            assert!(decoded.verify(&tree.root(), &data[i], i));
        }
    }

    mod fuzz {
        use super::super::*;
        use seccloud_hash::HmacDrbg;

        // Decoding arbitrary bytes must never panic, only error.
        #[test]
        fn arbitrary_bytes_never_panic() {
            let mut d = HmacDrbg::new(b"wire-fuzz");
            for _ in 0..256 {
                let len = d.next_below(512) as usize;
                let bytes = d.next_bytes(len);
                let _ = DataBlock::from_wire(&bytes);
                let _ = ComputationRequest::from_wire(&bytes);
                let _ = AuditChallenge::from_wire(&bytes);
                let _ = MerklePath::from_wire(&bytes);
                let _ = ComputeFunction::from_wire(&bytes);
            }
        }

        // Valid-prefix corruption of a real message must never panic.
        #[test]
        fn bit_flipped_messages_never_panic() {
            let mut d = HmacDrbg::new(b"wire-flip");
            for _ in 0..256 {
                let pos = d.next_below(200) as usize;
                let bit = d.next_below(8) as u8;
                let block = DataBlock::new(3, vec![1, 2, 3, 4, 5, 6, 7, 8]);
                let mut bytes = block.to_wire();
                if pos < bytes.len() {
                    bytes[pos] ^= 1 << bit;
                }
                match DataBlock::from_wire(&bytes) {
                    Ok(_) | Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn io_boundary_variants_classify_correctly() {
        // The socket-layer variants join the taxonomy: deadlines, drops
        // and mid-frame cuts are channel weather (retry is sound), while a
        // declared-length bomb is a deliberate header and must not be
        // retried into a fresh allocation window.
        assert!(WireError::Timeout.is_transient());
        assert!(WireError::ConnectionLost.is_transient());
        assert!(WireError::TruncatedFrame.is_transient());
        assert!(!WireError::FrameTooLarge.is_transient());
    }

    #[test]
    fn challenge_round_trip() {
        let c = AuditChallenge::from_indices(vec![0, 5, 17, 1000]);
        assert_eq!(AuditChallenge::from_wire(&c.to_wire()).unwrap(), c);
        let empty = AuditChallenge::from_indices(vec![]);
        assert_eq!(AuditChallenge::from_wire(&empty.to_wire()).unwrap(), empty);
    }
}
