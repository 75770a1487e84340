//! # SecCloud
//!
//! A from-scratch Rust reproduction of *"SecCloud: Bridging Secure Storage
//! and Computation in Cloud"* (Wei, Zhu, Cao, Jia, Vasilakos — ICDCS 2010
//! Workshops).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`bigint`] — fixed-width and arbitrary-precision integers.
//! * [`hash`] — SHA-256, HMAC, HMAC-DRBG and the paper's `H`/`H1`/`H2`.
//! * [`pairing`] — the BN254 bilinear pairing (fields, G1/G2, hash-to-curve).
//! * [`merkle`] — Merkle-hash-tree commitments (paper eq. 6, Fig. 3).
//! * [`ibs`] — identity-based + designated-verifier signatures with batch
//!   verification (paper Sections V-B and VI).
//! * [`baselines`] — RSA / ECDSA / BGLS comparators (paper Table II).
//! * [`core`] — the SecCloud protocol: setup, storage audit, computation
//!   commitment + probabilistic sampling audit, and the sampling/cost
//!   analysis (Fig. 4, Theorem 3).
//! * [`cloudsim`] — a simulated cloud (CSP, servers, adversaries, DA) to run
//!   the protocol end-to-end.
//! * [`testkit`] — deterministic fault injection over the wire endpoints
//!   plus a seed-replayable property-test runner with shrinking.
//! * [`resilience`] — the resilient audit runtime: retries with backoff
//!   over a deterministic virtual clock and adaptive challenge escalation.
//! * [`registry`] — the epoch-sharded multi-tenant user registry with
//!   per-shard Merkle set commitments and cross-user batch verification
//!   fused into a single Miller loop (paper eqs. 8–9 at fleet scale).
//! * [`net`] — the dep-free TCP RPC runtime: length-framed wire protocol
//!   over `std::net` with per-connection deadlines, a reconnect-on-drop
//!   client transport, and a seeded socket-level chaos proxy.
//!
//! # Quickstart
//!
//! ```
//! use seccloud::core::{Sio, SystemParams};
//!
//! // The System Initialization Operator generates system parameters and
//! // issues identity keys (paper Section V-A).
//! let sio = Sio::new(b"seccloud quickstart seed");
//! let user = sio.register("alice@example.com");
//! let server = sio.register_verifier("cs-01.cloud.example");
//! assert_eq!(user.identity(), "alice@example.com");
//! assert_eq!(server.identity(), "cs-01.cloud.example");
//! # let _ = SystemParams::clone(sio.params());
//! ```
#![forbid(unsafe_code)]

pub use seccloud_baselines as baselines;
pub use seccloud_bigint as bigint;
pub use seccloud_cloudsim as cloudsim;
pub use seccloud_core as core;
pub use seccloud_hash as hash;
pub use seccloud_ibs as ibs;
pub use seccloud_merkle as merkle;
pub use seccloud_net as net;
pub use seccloud_pairing as pairing;
pub use seccloud_registry as registry;
pub use seccloud_resilience as resilience;
pub use seccloud_testkit as testkit;
