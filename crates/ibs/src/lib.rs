//! Identity-based designated-verifier signatures with batch verification —
//! the cryptographic heart of SecCloud (paper Sections V-A, V-B and VI).
//!
//! ## Scheme
//!
//! * **Setup** (paper eq. 4): the SIO holds a master secret `s` and issues
//!   `sk_ID = s·H1(ID)`. User identities hash into `G1`; verifier identities
//!   (cloud servers, the designated agency) hash into `G2` — the Type-3 port
//!   of the paper's symmetric-pairing scheme (see `DESIGN.md`).
//! * **Sign** (Section V-B-1): for block `m`, pick `r`, set `U = r·Q_ID`,
//!   `h = H2(U ‖ m)`, `V = (r + h)·sk_ID`.
//! * **Designate**: transform `(U, V)` into `Σ = ê(V, Q_CS)` so that *only*
//!   the party holding `sk_CS = s·Q_CS` can verify
//!   `Σ = ê(U + h·Q_ID, sk_CS)` (eq. 5/7). This is what discourages
//!   privacy-cheating: a leaked `Σ` convinces nobody else, and the verifier
//!   can even [`simulate`] indistinguishable signatures itself. A signer
//!   holding its key designates through [`sign_designated`] instead:
//!   `Σ = K_V^(r+h)` for the fixed `K_V = ê(sk_ID, Q_V)`, a table-driven
//!   `GT` power rather than a pairing, with the same output.
//! * **Batch verify** (Section VI, eq. 8–9): `ℓ` designated signatures from
//!   any mix of users collapse into a single pairing check
//!   `ê(Σᵢⱼ (Uᵢⱼ + hᵢⱼ·Q_IDᵢ), sk_CS) = Πᵢⱼ Σᵢⱼ`.
//!
//! # Examples
//!
//! ```
//! use seccloud_ibs::{MasterKey, designate, sign};
//!
//! let sio = MasterKey::from_seed(b"doc-example");
//! let alice = sio.extract_user("alice");
//! let server = sio.extract_verifier("cs-01");
//!
//! let sig = sign(&alice, b"data block", b"nonce-1");
//! let designated = designate(&sig, &server.public());
//! assert!(designated.verify(&server, &alice.public(), b"data block"));
//! assert!(!designated.verify(&server, &alice.public(), b"tampered"));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom in protocol code (DESIGN §9): test code is exempt through
// the workspace `clippy.toml`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod batch;
mod keys;
mod sign;

pub use batch::{verify_individually, weighted_sigma_product, BatchItem, BatchVerifier};
pub use keys::{MasterKey, SystemParams, UserKey, UserPublic, VerifierKey, VerifierPublic};
pub use sign::{designate, sign, sign_designated, simulate, DesignatedSignature, IbsSignature};
