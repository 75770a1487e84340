//! The socket stack every network workload drives, and the two timing shims
//! a traced run inserts into it.
//!
//! Untraced: `ResilientTransport<NetTransport>`, optionally through a
//! `ChaosProxy`, to a one-worker `NetServer` over the server's byte
//! endpoints. Traced: a [`ClientShim`] between `ResilientTransport` and
//! `NetTransport` records one `net.call` span per wire attempt, and a
//! [`ServerShim`] inside `NetServer::spawn` records one `cloudsim.*` span
//! per handled request. The untraced stack contains neither.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use seccloud_cloudsim::agency::DesignatedAgency;
// lint: allow(transport, reason=the benchmark interposes timing shims on both sides of the socket and drives them only through ResilientTransport)
use seccloud_cloudsim::rpc::{RpcError, WireServer, WireTransport};
use seccloud_cloudsim::CloudServer;
use seccloud_core::computation::ComputationRequest;
use seccloud_core::CloudUser;
use seccloud_ibs::{UserPublic, VerifierPublic};
use seccloud_net::{
    ChaosAction, ChaosConfig, ChaosProxy, NetClientConfig, NetServer, NetServerConfig, NetTransport,
};
use seccloud_resilience::{
    run_job_resilient, AuditResolution, Op, ResilientTransport, RetryPolicy,
};

use crate::trace::{self, Span};

/// Times every wire attempt the resilience layer makes.
pub struct ClientShim {
    inner: NetTransport,
    /// Request and response payload bytes, frame headers excluded.
    bytes: u64,
}

impl ClientShim {
    fn add_bytes(&mut self, n: usize) {
        self.bytes += n as u64;
    }
}

// lint: allow(transport, reason=the client timing shim wraps the socket transport under ResilientTransport)
impl WireTransport for ClientShim {
    fn rpc_store(&mut self, owner_identity: &str, body: &[u8]) -> Result<u64, RpcError> {
        self.add_bytes(body.len());
        trace::span("net.call", || self.inner.rpc_store(owner_identity, body))
    }

    fn rpc_compute(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        self.add_bytes(body.len());
        let out = trace::span("net.call", || {
            self.inner
                .rpc_compute(owner_identity, auditor_identity, body)
        });
        if let Ok((_, commitment)) = &out {
            self.add_bytes(commitment.len());
        }
        out
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
        self.add_bytes(challenge_bytes.len() + warrant_bytes.len());
        let out = trace::span("net.call", || {
            self.inner.rpc_audit(
                owner_identity,
                auditor_identity,
                job_id,
                challenge_bytes,
                warrant_bytes,
                now,
            )
        });
        if let Ok(response) = &out {
            self.add_bytes(response.len());
        }
        out
    }

    fn rpc_retrieve(&mut self, owner_identity: &str, position: u64) -> Option<Vec<u8>> {
        let out = trace::span("net.call", || {
            self.inner.rpc_retrieve(owner_identity, position)
        });
        if let Some(block) = &out {
            self.add_bytes(block.len());
        }
        out
    }

    fn peer_verifier(&self) -> VerifierPublic {
        self.inner.peer_verifier()
    }

    fn peer_signer(&self) -> UserPublic {
        self.inner.peer_signer()
    }
}

/// Times every request the socket server hands to the byte endpoints. It
/// runs on the server's worker thread, so it keeps its own span buffer.
pub struct ServerShim<T> {
    inner: T,
    origin: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl<T> ServerShim<T> {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        let start_ns = trace::since(self.origin);
        let out = f(&mut self.inner);
        let end_ns = trace::since(self.origin);
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(Span {
                op: 0,
                span: 0,
                parent: 0,
                name,
                start_ns,
                end_ns,
            });
        }
        out
    }
}

// lint: allow(transport, reason=the server timing shim wraps the byte endpoints inside NetServer)
impl<T: WireTransport> WireTransport for ServerShim<T> {
    fn rpc_store(&mut self, owner_identity: &str, body: &[u8]) -> Result<u64, RpcError> {
        self.timed("cloudsim.store", |t| t.rpc_store(owner_identity, body))
    }

    fn rpc_compute(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        self.timed("cloudsim.compute", |t| {
            t.rpc_compute(owner_identity, auditor_identity, body)
        })
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
        self.timed("cloudsim.audit", |t| {
            t.rpc_audit(
                owner_identity,
                auditor_identity,
                job_id,
                challenge_bytes,
                warrant_bytes,
                now,
            )
        })
    }

    fn rpc_retrieve(&mut self, owner_identity: &str, position: u64) -> Option<Vec<u8>> {
        self.timed("cloudsim.retrieve", |t| {
            t.rpc_retrieve(owner_identity, position)
        })
    }

    fn peer_verifier(&self) -> VerifierPublic {
        self.inner.peer_verifier()
    }

    fn peer_signer(&self) -> UserPublic {
        self.inner.peer_signer()
    }
}

/// The client end of the stack, with or without the timing shim.
pub enum Client {
    Plain(ResilientTransport<NetTransport>),
    Traced(ResilientTransport<ClientShim>),
}

macro_rules! on_transport {
    ($client:expr, $t:ident => $body:expr) => {
        match $client {
            Client::Plain($t) => $body,
            Client::Traced($t) => $body,
        }
    };
}

impl Client {
    pub fn call_compute(
        &mut self,
        owner: &str,
        auditor: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        on_transport!(self, t => t.rpc_compute(owner, auditor, body))
    }

    pub fn call_audit(
        &mut self,
        owner: &str,
        auditor: &str,
        job_id: u64,
        challenge: &[u8],
        warrant: &[u8],
    ) -> Result<Vec<u8>, RpcError> {
        on_transport!(self, t => t.rpc_audit(owner, auditor, job_id, challenge, warrant, 0))
    }

    pub fn call_store(&mut self, owner: &str, body: &[u8]) -> Result<u64, RpcError> {
        on_transport!(self, t => t.rpc_store(owner, body))
    }

    pub fn call_retrieve(&mut self, owner: &str, position: u64) -> Option<Vec<u8>> {
        on_transport!(self, t => t.rpc_retrieve(owner, position))
    }

    /// One whole computation job through the resilient audit driver.
    pub fn run_resilient_job(
        &mut self,
        da: &mut DesignatedAgency,
        owner: &CloudUser,
        request: &ComputationRequest,
        sample_size: usize,
    ) -> AuditResolution {
        on_transport!(self, t => run_job_resilient(da, t, owner, request, sample_size, 0))
    }

    /// Wire attempts and transient faults summed over every endpoint.
    pub fn attempts_and_faults(&self) -> (u64, u64) {
        on_transport!(self, t => Op::ALL.iter().fold((0, 0), |(a, f), &op| {
            let s = t.stats(op);
            (a + s.attempts, f + s.transient_faults)
        }))
    }

    pub fn socket_reconnects(&self) -> u64 {
        match self {
            Client::Plain(t) => t.inner().reconnects(),
            Client::Traced(t) => t.inner().inner.reconnects(),
        }
    }

    /// Payload bytes the shim saw (0 untraced: nothing counts them).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Client::Plain(_) => 0,
            Client::Traced(t) => t.inner().bytes,
        }
    }
}

/// A running server, optional chaos proxy and the client dialing them.
pub struct Stack {
    pub client: Client,
    server: NetServer,
    proxy: Option<ChaosProxy>,
    server_spans: Arc<Mutex<Vec<Span>>>,
}

/// Retry policy of every workload: the one the service benchmark uses at
/// 20 % socket faults.
fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        max_rounds: 6,
        ..RetryPolicy::default()
    }
}

/// Serves `server` on loopback with one worker and dials it, through a
/// chaos proxy when `chaos` is set. `trace` (the run's time origin) adds
/// both timing shims.
pub fn deploy(
    server: CloudServer,
    chaos: Option<ChaosConfig>,
    seed: &[u8],
    trace: Option<Instant>,
) -> std::io::Result<Stack> {
    let verifier = server.public().clone();
    let signer = server.signer_public().clone();
    let server_spans = Arc::new(Mutex::new(Vec::new()));
    let config = NetServerConfig {
        workers: Some(1),
        ..NetServerConfig::default()
    };
    // lint: allow(transport, reason=the socket server is built around the byte endpoints it serves)
    let endpoints = WireServer::new(server);
    let server = match trace {
        Some(origin) => NetServer::spawn(
            ServerShim {
                inner: endpoints,
                origin,
                spans: Arc::clone(&server_spans),
            },
            config,
        )?,
        None => NetServer::spawn(endpoints, config)?,
    };
    let proxy = match chaos {
        Some(c) => Some(ChaosProxy::spawn(server.addr(), c)?),
        None => None,
    };
    let addr = proxy.as_ref().map_or(server.addr(), ChaosProxy::addr);
    let socket = NetTransport::new(addr, verifier, signer, NetClientConfig::default());
    let client = match trace {
        Some(_) => Client::Traced(ResilientTransport::new(
            ClientShim {
                inner: socket,
                bytes: 0,
            },
            retry_policy(),
            seed,
        )),
        None => Client::Plain(ResilientTransport::new(socket, retry_policy(), seed)),
    };
    Ok(Stack {
        client,
        server,
        proxy,
        server_spans,
    })
}

impl Stack {
    /// Frames the chaos proxy has damaged, delayed or cut so far.
    pub fn chaos_faults(&self) -> u64 {
        self.proxy.as_ref().map_or(0, |p| {
            p.plan()
                .iter()
                .filter(|e| e.action != ChaosAction::Deliver)
                .count() as u64
        })
    }

    /// Connections the server shed because its queue was full.
    pub fn shed(&self) -> u64 {
        self.server.stats().shed
    }

    /// Hangs up, stops the proxy and the server, and returns the
    /// server-side spans. The client goes first so the server's worker
    /// sees the connection close instead of waiting out its read deadline.
    pub fn tear_down(self) -> Vec<Span> {
        drop(self.client);
        if let Some(p) = self.proxy {
            p.shutdown();
        }
        self.server.shutdown();
        self.server_spans
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default()
    }
}
