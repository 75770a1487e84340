//! Epoch-sharded multi-tenant user registry with cross-user batch
//! verification.
//!
//! The paper's batch equations (8)–(9) aggregate designated signatures
//! *across users*, but aggregating a million tenants into one flat set
//! would serialize every audit behind a single verifier. This crate
//! supplies the scale layer between the identity scheme (`seccloud-ibs`)
//! and the audit runtime (`seccloud-resilience`):
//!
//! * **Deterministic epoch sharding** ([`shard_of`]) — every identity maps
//!   to one of `S` shards per epoch via a domain-separated hash, so any
//!   party (user, server, agency) computes the same assignment with no
//!   coordination, and rotation re-deals the whole population by bumping
//!   the epoch.
//! * **Per-shard Merkle commitments** ([`UserRegistry`]) — each shard's
//!   member set (identity, `Q_ID`, enrollment epoch) is committed under
//!   one root, so membership and set-integrity disputes are settled per
//!   shard with `O(log n)` proofs instead of per deployment.
//! * **Cross-user, cross-shard batch verification** ([`EpochVerifier`]) —
//!   per-shard aggregates `(U_A, Σ_A)` in the sense of eq. (8) fold into a
//!   *single* `multi_miller_loop` call across shards: one shared Miller
//!   loop, one final exponentiation, one weighted `GT` fold and one `GT`
//!   subgroup test, regardless of how many users or shards contributed.
//!   The `Σ` side is `seccloud_ibs::weighted_sigma_product`, the same
//!   membership check the single-key batch makes, so the 2⁻⁶⁴ bound
//!   holds with no trust in who produced an aggregate's `Σ_A`. Each extra
//!   shard adds one Miller-loop argument and one weighted `G1` fold.
//!
//! Prepared verifier keys are resolved through the bounded LRU in
//! [`seccloud_pairing::cache`], which keeps the per-audit cost at one
//! cache hit plus one retained `(G1, GT)` term — a few group operations
//! in its shard's `G1` fold and in the epoch's `GT` fold at verify time —
//! instead of a ~1 ms key preparation.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod commit;
mod registry;
mod shard;

pub use batch::EpochVerifier;
pub use commit::{CommitmentCheck, ShardCommitment};
pub use registry::{MembershipProof, UserRecord, UserRegistry};
pub use shard::shard_of;
