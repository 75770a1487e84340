//! The SecCloud protocol (paper Sections V–VII).
//!
//! This crate assembles the substrates (`seccloud-pairing`, `seccloud-ibs`,
//! `seccloud-merkle`) into the paper's four-step scheme:
//!
//! 1. **System initialization** ([`Sio`]) — master-key setup and identity
//!    registration (Section V-A).
//! 2. **Secure cloud storage** ([`storage`]) — per-block designated
//!    signatures `{Uᵢ, Σᵢ, Σ'ᵢ}` and storage verification, eq. 5
//!    (Section V-B).
//! 3. **Secure cloud computation** ([`computation`]) — computation requests
//!    `{F, P}`, Merkle-hash-tree commitments with a signed root, and the
//!    probabilistic-sampling audit of Algorithm 1 (Sections V-C, V-D),
//!    delegated through expiring [`warrant::Warrant`]s.
//! 4. **Analysis** ([`analysis`]) — the uncheatability math: cheat-success
//!    probabilities (eq. 10/12/14), required sampling size (Fig. 4) and the
//!    cost-optimal sample size of Theorem 3 (eq. 17–18).
//!
//! # Examples
//!
//! ```
//! use seccloud_core::{Sio, storage::DataBlock};
//!
//! let sio = Sio::new(b"example");
//! let user = sio.register("alice");
//! let cs = sio.register_verifier("cs-01");
//! let da = sio.register_verifier("da");
//!
//! // Protocol II: sign blocks for upload, verifiable only by CS and DA.
//! let blocks = vec![DataBlock::new(0, vec![1, 2, 3])];
//! let signed = user.sign_blocks(&blocks, &[cs.public(), da.public()]);
//! assert!(signed[0].verify(cs.key(), user.public()));
//! assert!(signed[0].verify(da.key(), user.public()));
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
// Exhaustive dispatch (DESIGN §9): a `_` arm on an enum hides the variant
// a new case adds, whether it stands for several variants or for one;
// guarded `_ if …` arms stay allowed.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod analysis;
pub mod computation;
pub mod dynstore;
mod sio;
pub mod storage;
pub mod warrant;
pub mod wire;

pub use seccloud_ibs::SystemParams;
pub use sio::{CloudUser, Sio, VerifierCredential};
