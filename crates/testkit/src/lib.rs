//! Deterministic fault injection and property testing for the SecCloud
//! protocol stack — dependency-free, seeded entirely by [`HmacDrbg`].
//!
//! Two halves:
//!
//! * [`fault`] — [`fault::FaultyChannel`], a [`WireTransport`] wrapper that
//!   mangles the byte streams between the DA and a server according to a
//!   seed-deterministic schedule, recording every injected fault in a
//!   [`fault::FaultPlan`] so any run can be replayed exactly from its seed;
//! * [`forall`] + [`gen`] — a minimal property-test runner (no external
//!   `proptest`) with tape-based generators for every wire message and
//!   automatic byte-level shrinking that reports the minimal failing input
//!   together with the seed that reproduces it;
//! * [`algebraic`] — faults that survive decoding (identity and negated
//!   points, `Σ` outside `μ_r`, swapped or missing designations), for
//!   properties stating that a batched check accepts exactly when every
//!   item verifies on its own.
//!
//! The invariant this crate exists to check: under *any* fault schedule,
//! the designated agency either completes a correct audit or returns a
//! typed error / unhealthy verdict — never a panic, never a false pass.
//!
//! [`HmacDrbg`]: seccloud_hash::HmacDrbg
//! [`WireTransport`]: seccloud_cloudsim::rpc::WireTransport
#![forbid(unsafe_code)]

pub mod algebraic;
pub mod fault;
pub mod forall;
pub mod gen;
pub mod tape;

pub use algebraic::{algebraic_faults, AlgebraicFault};
pub use fault::{Endpoint, Fault, FaultKind, FaultPlan, FaultyChannel};
pub use forall::{cases_from_env, forall, seed_from_env, Config};
pub use tape::Tape;
