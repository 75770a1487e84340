//! Byte-level protocol endpoints: the full SecCloud exchange over the
//! canonical wire format of `seccloud_core::wire`.
//!
//! [`WireServer`] wraps a [`CloudServer`] behind four endpoints that accept
//! and return *only bytes*, exactly as a network deployment would; the DA
//! side drives a complete audit through them with
//! [`DesignatedAgency::audit_wire`](crate::agency::DesignatedAgency::audit_wire).
//! Every decode failure maps to a typed [`RpcError`], never a panic.

use seccloud_core::computation::{AuditChallenge, ComputationRequest};
use seccloud_core::storage::SignedBlock;
use seccloud_core::warrant::Warrant;
use seccloud_core::wire::{Reader, WireError, WireMessage, Writer};
use seccloud_ibs::{UserPublic, VerifierPublic};

use crate::server::{CloudServer, ServerError};

/// Errors surfaced by the byte-level endpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// The request body failed to decode.
    Malformed(WireError),
    /// The underlying server rejected the operation.
    Server(ServerError),
    /// The call exceeded its per-attempt deadline (virtual time) and the
    /// response, if any, was discarded.
    Timeout {
        /// How long the attempt took before it was abandoned.
        elapsed_ms: u64,
    },
    /// The endpoint's circuit breaker is open: the call failed fast
    /// without touching the wire.
    ChannelUnavailable,
}

impl RpcError {
    /// Whether retrying this call can plausibly succeed.
    ///
    /// The split is the trust boundary of the whole resilience layer:
    /// decode failures, timeouts and open breakers are *channel* conditions
    /// — nothing about them is authenticated, so they carry no evidence
    /// about the server and retrying is sound. [`ServerError`]s are
    /// *authenticated decisions* by the far end (delegated through
    /// [`ServerError::is_transient`]) and retrying them verbatim cannot
    /// change the answer.
    pub fn is_transient(&self) -> bool {
        match self {
            RpcError::Malformed(e) => e.is_transient(),
            RpcError::Server(e) => e.is_transient(),
            RpcError::Timeout { .. } => true,
            RpcError::ChannelUnavailable => true,
        }
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Malformed(e) => write!(f, "malformed request: {e}"),
            RpcError::Server(e) => write!(f, "server error: {e}"),
            RpcError::Timeout { elapsed_ms } => {
                write!(f, "call timed out after {elapsed_ms} ms")
            }
            RpcError::ChannelUnavailable => write!(f, "circuit breaker open"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<WireError> for RpcError {
    fn from(e: WireError) -> Self {
        RpcError::Malformed(e)
    }
}

impl From<ServerError> for RpcError {
    fn from(e: ServerError) -> Self {
        RpcError::Server(e)
    }
}

/// The four byte-level endpoints a SecCloud server exposes, as seen from
/// the client/DA side of the channel.
///
/// [`WireServer`] is the direct (faultless) implementation; test harnesses
/// interpose fault-injecting wrappers that mangle the byte streams while
/// the protocol logic above stays unchanged. Every method takes `&mut
/// self` because a real channel has state (and the wrappers do too).
///
/// The two `peer_*` accessors return the *expected* identities of the far
/// end — in a deployment these come from the PKI/SIO, not from the
/// channel, which is why a fault wrapper cannot forge them.
pub trait WireTransport {
    /// `STORE owner_id <blocks…>` — returns the number of blocks accepted.
    ///
    /// # Errors
    ///
    /// [`RpcError::Malformed`] on any decode failure.
    fn rpc_store(&mut self, owner_identity: &str, body: &[u8]) -> Result<u64, RpcError>;

    /// `COMPUTE owner_id <request>` — returns `(job_id, commitment bytes)`.
    ///
    /// # Errors
    ///
    /// Decode failures and server rejections.
    fn rpc_compute(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError>;

    /// `AUDIT …` — returns the serialized audit response.
    ///
    /// # Errors
    ///
    /// Decode failures, warrant rejections, unknown jobs.
    #[allow(clippy::too_many_arguments)] // mirrors the wire exchange one-to-one
    fn rpc_audit(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        job_id: u64,
        challenge_bytes: &[u8],
        warrant_bytes: &[u8],
        now: u64,
    ) -> Result<Vec<u8>, RpcError>;

    /// `RETRIEVE owner_id position` — one stored block, serialized.
    fn rpc_retrieve(&mut self, owner_identity: &str, position: u64) -> Option<Vec<u8>>;

    /// The server's expected designated-verifier identity (`Q_CS`),
    /// anchored in the SIO rather than the channel.
    fn peer_verifier(&self) -> VerifierPublic;

    /// The server's expected signing identity (verifies `Sig(R)`).
    fn peer_signer(&self) -> UserPublic;
}

/// A cloud server exposed through byte-level endpoints.
pub struct WireServer {
    inner: CloudServer,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WireServer({:?})", self.inner)
    }
}

impl WireServer {
    /// Wraps a server.
    pub fn new(inner: CloudServer) -> Self {
        Self { inner }
    }

    /// Direct access to the wrapped server (for assertions in tests).
    pub fn inner(&self) -> &CloudServer {
        &self.inner
    }

    /// `STORE owner_id <blocks…>` — ingests a length-prefixed sequence of
    /// [`SignedBlock`]s; returns the number accepted.
    ///
    /// # Errors
    ///
    /// [`RpcError::Malformed`] on any decode failure.
    pub fn rpc_store(&mut self, owner_identity: &str, body: &[u8]) -> Result<u64, RpcError> {
        let mut r = Reader::new(body)?;
        // Minimal signed block: index (8) + data len (8) + empty
        // designation list (8) — caps the declared count before allocating.
        let n = r.take_len_elems(8 + 8 + 8)?;
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            blocks.push(SignedBlock::decode_body(&mut r)?);
        }
        r.finish()?;
        let owner = UserPublic::from_identity(owner_identity);
        Ok(self.inner.store_public(&owner, blocks) as u64)
    }

    /// `COMPUTE owner_id <request>` — executes a computation request for
    /// `auditor_identity` and returns `(job_id, serialized commitment)`.
    ///
    /// # Errors
    ///
    /// Decode failures and server rejections.
    pub fn rpc_compute(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        let request = ComputationRequest::from_wire(body)?;
        let auditor = seccloud_ibs::VerifierPublic::from_identity(auditor_identity);
        let handle =
            self.inner
                .handle_computation(&owner_identity.to_owned(), &request, &auditor)?;
        Ok((handle.job_id, handle.commitment.to_wire()))
    }

    /// `AUDIT owner_id job_id <challenge> <warrant> now` — validates the
    /// warrant and returns the serialized audit response.
    ///
    /// # Errors
    ///
    /// Decode failures, warrant rejections, unknown jobs.
    pub fn rpc_audit(
        &self,
        owner_identity: &str,
        auditor_identity: &str,
        job_id: u64,
        challenge_bytes: &[u8],
        warrant_bytes: &[u8],
        now: u64,
    ) -> Result<Vec<u8>, RpcError> {
        let challenge = AuditChallenge::from_wire(challenge_bytes)?;
        let warrant = Warrant::from_wire(warrant_bytes)?;
        let owner = UserPublic::from_identity(owner_identity);
        let response =
            self.inner
                .handle_audit(job_id, &challenge, &warrant, &owner, auditor_identity, now)?;
        Ok(response.to_wire())
    }

    /// `RETRIEVE owner_id position` — serves one stored block, serialized.
    pub fn rpc_retrieve(&self, owner_identity: &str, position: u64) -> Option<Vec<u8>> {
        self.inner
            .retrieve(owner_identity, position)
            .map(WireMessage::to_wire)
    }
}

impl WireTransport for WireServer {
    fn rpc_store(&mut self, owner_identity: &str, body: &[u8]) -> Result<u64, RpcError> {
        WireServer::rpc_store(self, owner_identity, body)
    }

    fn rpc_compute(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        WireServer::rpc_compute(self, owner_identity, auditor_identity, body)
    }

    fn rpc_audit(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        job_id: u64,
        challenge_bytes: &[u8],
        warrant_bytes: &[u8],
        now: u64,
    ) -> Result<Vec<u8>, RpcError> {
        WireServer::rpc_audit(
            self,
            owner_identity,
            auditor_identity,
            job_id,
            challenge_bytes,
            warrant_bytes,
            now,
        )
    }

    fn rpc_retrieve(&mut self, owner_identity: &str, position: u64) -> Option<Vec<u8>> {
        WireServer::rpc_retrieve(self, owner_identity, position)
    }

    fn peer_verifier(&self) -> VerifierPublic {
        self.inner.public().clone()
    }

    fn peer_signer(&self) -> UserPublic {
        self.inner.signer_public().clone()
    }
}

/// Serializes a block upload as the `rpc_store` body.
pub fn encode_store_body(blocks: &[SignedBlock]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(blocks.len() as u64);
    for b in blocks {
        b.encode_body(&mut w);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agency::DesignatedAgency;
    use crate::behavior::Behavior;
    use seccloud_core::computation::{ComputeFunction, RequestItem};
    use seccloud_core::storage::DataBlock;
    use seccloud_core::CloudUser;
    use seccloud_core::Sio;

    fn world(behavior: Behavior) -> (Sio, CloudUser, WireServer, DesignatedAgency) {
        let sio = Sio::new(b"rpc-tests");
        let user = sio.register("alice");
        let server = WireServer::new(CloudServer::new(&sio, "cs", behavior, b"s"));
        let da = DesignatedAgency::new(&sio, "da", b"agency");
        (sio, user, server, da)
    }

    fn upload(user: &CloudUser, server: &mut WireServer, da: &DesignatedAgency, n: u64) {
        let blocks: Vec<DataBlock> = (0..n)
            .map(|i| DataBlock::from_values(i, &[i, i * 5]))
            .collect();
        let signed = user.sign_blocks(&blocks, &[server.inner().public(), da.public()]);
        let body = encode_store_body(&signed);
        assert_eq!(
            server.rpc_store(user.identity(), &body).unwrap(),
            n,
            "all authentic blocks accepted"
        );
    }

    fn request(n: u64) -> ComputationRequest {
        ComputationRequest::new(
            (0..n)
                .map(|i| RequestItem {
                    function: ComputeFunction::Sum,
                    positions: vec![i],
                })
                .collect(),
        )
    }

    #[test]
    fn full_protocol_over_bytes_honest() {
        let (_, user, mut server, mut da) = world(Behavior::Honest);
        upload(&user, &mut server, &da, 8);
        let req = request(8);
        let (job_id, commitment_bytes) = server
            .rpc_compute(user.identity(), da.identity(), &req.to_wire())
            .unwrap();
        let verdict = da
            .audit_wire(&mut server, &user, &req, job_id, &commitment_bytes, 4, 0)
            .unwrap();
        assert!(!verdict.detected);
    }

    #[test]
    fn full_protocol_over_bytes_catches_cheater() {
        let (_, user, mut server, mut da) = world(Behavior::ComputationCheater {
            csc: 0.0,
            guess_range: None,
        });
        upload(&user, &mut server, &da, 6);
        let req = request(6);
        let (job_id, commitment_bytes) = server
            .rpc_compute(user.identity(), da.identity(), &req.to_wire())
            .unwrap();
        let verdict = da
            .audit_wire(&mut server, &user, &req, job_id, &commitment_bytes, 3, 0)
            .unwrap();
        assert!(verdict.detected);
    }

    #[test]
    fn tampered_upload_bytes_rejected_or_filtered() {
        let (_, user, mut server, da) = world(Behavior::Honest);
        let blocks = vec![DataBlock::from_values(0, &[42])];
        let signed = user.sign_blocks(&blocks, &[server.inner().public(), da.public()]);
        let mut body = encode_store_body(&signed);
        // Flip a data byte: either the decode fails (structure damaged) or
        // the block decodes but fails authentication and is dropped.
        let mid = body.len() / 2;
        body[mid] ^= 0x01;
        match server.rpc_store(user.identity(), &body) {
            Err(RpcError::Malformed(_)) => {}
            Ok(accepted) => assert_eq!(accepted, 0, "tampered block must not be stored"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let (_, user, mut server, da) = world(Behavior::Honest);
        assert!(matches!(
            server.rpc_store(user.identity(), b"junk"),
            Err(RpcError::Malformed(_))
        ));
        assert!(matches!(
            server.rpc_compute(user.identity(), da.identity(), &[1, 2, 3]),
            Err(RpcError::Malformed(_))
        ));
        assert!(matches!(
            server.rpc_audit(user.identity(), da.identity(), 0, b"", b"", 0),
            Err(RpcError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_job_is_a_server_error() {
        let (_, user, mut server, mut da) = world(Behavior::Honest);
        upload(&user, &mut server, &da, 2);
        let req = request(2);
        let (_, commitment_bytes) = server
            .rpc_compute(user.identity(), da.identity(), &req.to_wire())
            .unwrap();
        let err = da
            .audit_wire(&mut server, &user, &req, 999, &commitment_bytes, 1, 0)
            .unwrap_err();
        assert_eq!(err, RpcError::Server(ServerError::UnknownJob));
    }

    #[test]
    fn retrieve_round_trips_blocks() {
        let (_, user, mut server, da) = world(Behavior::Honest);
        upload(&user, &mut server, &da, 3);
        let bytes = server.rpc_retrieve(user.identity(), 1).unwrap();
        let block = SignedBlock::from_wire(&bytes).unwrap();
        assert_eq!(block.block().index(), 1);
        assert!(server.rpc_retrieve(user.identity(), 99).is_none());
    }
}
