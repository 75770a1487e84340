//! [`NetTransport`]: the `WireTransport` a verifier dials over TCP.
//!
//! The transport holds at most one live [`TcpStream`] and reconnects
//! lazily: any socket failure drops the stream, and the next call dials
//! again. One transparent resend is allowed per call, and only when a
//! *reused* connection dies at a frame boundary — that is the signature of
//! the server's per-connection request cap (or an idle close), not of a
//! failing exchange. A timeout is never transparently resent: the request
//! may have been executed, and deciding whether to re-issue it belongs to
//! the resilience layer's retry policy, not to the socket.
//!
//! Peer identities (`peer_verifier`/`peer_signer`) are supplied at
//! construction from the SIO/PKI, exactly as the `WireTransport` contract
//! requires — nothing read from the channel can influence who the client
//! *expects* to be talking to, so a man-in-the-middle gains nothing by
//! rewriting identity strings.
//!
//! Error mapping keeps the taxonomy intact end to end:
//!
//! * socket conditions surface as [`RpcError::Malformed`] wrapping the
//!   framing layer's [`WireError`] (all transient except `FrameTooLarge`);
//! * a `Failed` response carries the server's typed [`RpcError`]
//!   verbatim;
//! * [`rpc_retrieve`](WireTransport::rpc_retrieve) returns `Some(vec![])`
//!   on channel damage rather than `None` — `None` is the *authoritative*
//!   "no such block" answer, and a flaky socket must never be allowed to
//!   impersonate it (the empty bytes fail `SignedBlock` decoding upstream,
//!   which the resilience layer already treats as transient).

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use seccloud_cloudsim::rpc::{RpcError, WireTransport};
use seccloud_core::wire::{WireError, WireMessage};
use seccloud_ibs::{UserPublic, VerifierPublic};

use crate::frame::{read_frame, write_frame};
use crate::proto::{NetRequest, NetResponse};

/// Dial deadline.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Per-call write deadline.
const WRITE_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Tuning for a [`NetTransport`].
#[derive(Clone, Debug)]
pub struct NetClientConfig {
    /// Per-call read deadline in milliseconds.
    pub read_timeout_ms: u64,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        Self {
            read_timeout_ms: 2_000,
        }
    }
}

/// A `WireTransport` speaking the framed protocol over one TCP connection,
/// reconnecting on drop.
pub struct NetTransport {
    addr: SocketAddr,
    config: NetClientConfig,
    stream: Option<TcpStream>,
    peer_verifier: VerifierPublic,
    peer_signer: UserPublic,
    reconnects: u64,
}

impl std::fmt::Debug for NetTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NetTransport({}, connected={})",
            self.addr,
            self.stream.is_some()
        )
    }
}

impl NetTransport {
    /// Creates a transport for `addr`; the socket is dialed lazily on the
    /// first call. `peer_verifier`/`peer_signer` are the SIO-anchored
    /// identities of the far end.
    pub fn new(
        addr: SocketAddr,
        peer_verifier: VerifierPublic,
        peer_signer: UserPublic,
        config: NetClientConfig,
    ) -> Self {
        Self {
            addr,
            config,
            stream: None,
            peer_verifier,
            peer_signer,
            reconnects: 0,
        }
    }

    /// How many times the transport has (re)dialed the server.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn ensure_stream(&mut self) -> Result<(), WireError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let dialed = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT);
        let stream = dialed.map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => WireError::Timeout,
            _ => WireError::ConnectionLost,
        })?;
        let _ = stream.set_read_timeout(Some(Duration::from_millis(
            self.config.read_timeout_ms.max(1),
        )));
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let _ = stream.set_nodelay(true);
        self.stream = Some(stream);
        self.reconnects = self.reconnects.saturating_add(1);
        Ok(())
    }

    /// One request/response exchange on the current stream.
    fn exchange(&mut self, request_bytes: &[u8]) -> Result<NetResponse, WireError> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(WireError::ConnectionLost);
        };
        write_frame(stream, request_bytes)?;
        let payload = read_frame(stream)?;
        NetResponse::from_wire(&payload)
    }

    /// Sends `request`, reconnecting and transparently resending once if a
    /// *reused* connection turns out to be dead at the frame boundary.
    fn call(&mut self, request: &NetRequest) -> Result<NetResponse, RpcError> {
        let request_bytes = request.to_wire();
        let mut fresh = self.stream.is_none();
        for attempt in 0..2u8 {
            if let Err(e) = self.ensure_stream() {
                return Err(RpcError::Malformed(e));
            }
            match self.exchange(&request_bytes) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Whatever happened, this socket is suspect.
                    self.stream = None;
                    let stale_close = matches!(e, WireError::ConnectionLost) && !fresh;
                    if attempt == 0 && stale_close {
                        // The server closed between requests (request cap /
                        // idle): redial and resend — nothing was executed.
                        fresh = true;
                        continue;
                    }
                    return Err(RpcError::Malformed(e));
                }
            }
        }
        Err(RpcError::Malformed(WireError::ConnectionLost))
    }
}

impl WireTransport for NetTransport {
    fn rpc_store(&mut self, owner_identity: &str, body: &[u8]) -> Result<u64, RpcError> {
        match self.call(&NetRequest::Store {
            owner: owner_identity.to_owned(),
            body: body.to_vec(),
        })? {
            NetResponse::Stored(n) => Ok(n),
            NetResponse::Failed(e) => Err(e),
            // A response of the wrong shape is channel damage, not an
            // authenticated decision: classify transient.
            _ => Err(RpcError::Malformed(WireError::BadElement)),
        }
    }

    fn rpc_compute(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        match self.call(&NetRequest::Compute {
            owner: owner_identity.to_owned(),
            auditor: auditor_identity.to_owned(),
            body: body.to_vec(),
        })? {
            NetResponse::Computed { job_id, commitment } => Ok((job_id, commitment)),
            NetResponse::Failed(e) => Err(e),
            _ => Err(RpcError::Malformed(WireError::BadElement)),
        }
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
        match self.call(&NetRequest::Audit {
            owner: owner_identity.to_owned(),
            auditor: auditor_identity.to_owned(),
            job_id,
            challenge: challenge_bytes.to_vec(),
            warrant: warrant_bytes.to_vec(),
            now,
        })? {
            NetResponse::Audited(bytes) => Ok(bytes),
            NetResponse::Failed(e) => Err(e),
            _ => Err(RpcError::Malformed(WireError::BadElement)),
        }
    }

    fn rpc_retrieve(&mut self, owner_identity: &str, position: u64) -> Option<Vec<u8>> {
        match self.call(&NetRequest::Retrieve {
            owner: owner_identity.to_owned(),
            position,
        }) {
            Ok(NetResponse::Retrieved(opt)) => opt,
            // `None` is reserved for the server's authoritative "absent"
            // answer. Channel damage returns undecodable bytes instead,
            // which the caller's SignedBlock decode rejects as transient.
            Ok(_) | Err(_) => Some(Vec::new()),
        }
    }

    fn peer_verifier(&self) -> VerifierPublic {
        self.peer_verifier.clone()
    }

    fn peer_signer(&self) -> UserPublic {
        self.peer_signer.clone()
    }
}
