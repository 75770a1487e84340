//! Dependency-free TCP RPC runtime for the SecCloud workspace.
//!
//! Everything below the resilience layer used to be a vector in memory:
//! `WireTransport` calls went straight into a `WireServer` and the only
//! "faults" were the testkit's byte-mangling wrappers. This crate moves
//! the same protocol onto `std::net` — SecCloud's setting is auditing
//! *remote* untrusted servers, and the failure modes that matter (partial
//! reads, mid-frame disconnects, stalled peers, length bombs arriving over
//! a real socket) only exist at a kernel socket boundary.
//!
//! The crate is four layers, bottom up:
//!
//! * [`frame`] — length-framed delivery (`"SCN1"` magic + u32 length +
//!   payload) with the socket-condition → `WireError` mapping: deadline →
//!   `Timeout`, boundary drop → `ConnectionLost`, mid-frame EOF →
//!   `TruncatedFrame`, declared length over the cap → `FrameTooLarge`
//!   (rejected pre-allocation, classified non-transient);
//! * [`proto`] — [`NetRequest`]/[`NetResponse`] envelopes, one per
//!   `WireTransport` method, with *typed* errors on the wire so
//!   `RpcError::is_transient` classifies exactly what the server decided;
//! * [`server`] — [`NetServer`], serving any `WireTransport` behind an
//!   accept loop with per-connection deadlines, bounded admission,
//!   a configurable socket worker pool, request caps and graceful shutdown;
//! * [`client`] — [`NetTransport`], a reconnect-on-drop `WireTransport`
//!   over `TcpStream`, drop-in under `ResilientTransport` with no changes
//!   above.
//!
//! [`chaos`] adds the adversarial weather: a seeded TCP proxy
//! ([`ChaosProxy`]) that bit-flips, fragments, cuts, stalls and churns
//! live frames, deterministic per seed like the testkit's `FaultyChannel`.
//!
//! # Examples
//!
//! ```
//! use seccloud_cloudsim::{behavior::Behavior, rpc::WireServer, CloudServer};
//! use seccloud_cloudsim::rpc::WireTransport;
//! use seccloud_core::Sio;
//! use seccloud_net::{NetClientConfig, NetServer, NetServerConfig, NetTransport};
//!
//! let sio = Sio::new(b"net-doc");
//! let user = sio.register("alice");
//! let server = CloudServer::new(&sio, "cs", Behavior::Honest, b"srv");
//! let verifier = server.public().clone();
//! let signer = server.signer_public().clone();
//!
//! let net = NetServer::spawn(WireServer::new(server), NetServerConfig::default()).unwrap();
//! // lint: allow(transport, reason=doc example dials the server it just spawned)
//! let mut client = NetTransport::new(net.addr(), verifier, signer, NetClientConfig::default());
//! // No block at position 0 yet: the server answers an authoritative None.
//! assert_eq!(client.rpc_retrieve(user.identity(), 0), None);
//! net.shutdown();
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use chaos::{ChaosAction, ChaosConfig, ChaosEngine, ChaosEvent, ChaosProxy};
pub use client::{NetClientConfig, NetTransport};
pub use frame::{FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_LEN};
pub use proto::{NetRequest, NetResponse};
pub use server::{NetServer, NetServerConfig, NetServerStats};
