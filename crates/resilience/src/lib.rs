//! The resilient audit runtime: retries, a time budget and adaptive
//! challenge escalation for the SecCloud wire protocol.
//!
//! The paper's DA "is expected to have enough computational and storage
//! capability to perform the auditing operations" (Section III-B), but the
//! raw wire drivers treat any channel hiccup as terminal: one truncated
//! frame aborts the whole audit. This crate gives the DA a production-grade
//! recovery layer with a hard rule at its core — **transient transport loss
//! and authenticated evidence of cheating must never be conflated**:
//!
//! * decode failures, truncation and timeouts are *transient*: the channel
//!   damaged an unauthenticated byte stream, so the call is retried under a
//!   [`RetryPolicy`] (exponential backoff with DRBG jitter and a total
//!   audit budget on a deterministic [`VirtualClock`]);
//! * a response that *authenticates* — `Sig(R)` verifies, the nonce echoes,
//!   the claimed results are bound into the signed root — and is still
//!   wrong is *byzantine* evidence. It is never retried; it feeds a
//!   per-endpoint suspicion score and ends the audit with `Detected`.
//!
//! Between the two sits adaptive escalation: after a transient-fault burst
//! or nonzero suspicion the DA re-draws a *larger* challenge before issuing
//! a verdict — `t' = min(2ˢ·t, n)` squares the paper's `Pr[FCS] = base^t`
//! escape bound per step (Section VII), capped at a full audit.
//!
//! That is the DA's one recovery path, as in the paper's Algorithm 1,
//! where the DA audits one server per job: [`ResilientTransport`] retries
//! each RPC (tier 1) and [`run_job_resilient`] / [`storage_audit_resilient`]
//! escalate whole rounds (tier 2). There is no circuit breaker and no
//! replica failover. A call that exhausts its retries refuses nothing
//! later, and a job that cannot be decided ends `Unresolved` on its own,
//! never `Detected`.
//!
//! Everything is deterministic: backoff jitter and challenge sampling both
//! draw from seeded [`seccloud_hash::HmacDrbg`] streams, so a failing
//! recovery schedule replays exactly from its seed.
#![forbid(unsafe_code)]
// Exhaustive dispatch (DESIGN §9): a `_` arm on an enum hides the variant
// a new case adds, whether it stands for several variants or for one;
// guarded `_ if …` arms stay allowed.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod clock;
pub mod driver;
pub mod escalation;
pub mod policy;
pub mod transport;

pub use clock::VirtualClock;
pub use driver::{
    commitment_binds_results, run_job_resilient, storage_audit_resilient, AuditResolution,
    RecoveryStats, StorageResolution,
};
pub use escalation::escalate_sample_size;
pub use policy::RetryPolicy;
pub use transport::{Op, OpStats, ResilientTransport};
