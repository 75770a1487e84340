//! A simulated cloud for exercising SecCloud end-to-end
//! (paper Sections III-A and III-B).
//!
//! The paper evaluates its protocol analytically and in Matlab; this crate
//! supplies the substrate the paper assumes: a cloud service provider
//! ([`Csp`]) that splits computation requests across `n` servers
//! MapReduce-style under an [`Sla`], [`CloudServer`]s that store signed
//! blocks and build commitments, a [`DesignatedAgency`] that drives audits,
//! and a Byzantine [`behavior::Behavior`] model covering every adversary of
//! Section III-B:
//!
//! * **Storage-cheating** — delete or corrupt stored blocks (semi-honest /
//!   malicious cases) or serve data from wrong positions.
//! * **Computation-cheating** — skip sub-tasks and return guesses
//!   (`CSC`, range-`R` guessing), or compute on wrong-position data
//!   (`SSC`).
//! * **Privacy-cheating** — leak designated signatures to a non-designated
//!   buyer ([`privacy`]), who provably learns nothing.
//!
//! [`montecarlo`] replays thousands of logical audits to validate the
//! paper's detection-probability formulas (eq. 10/12/14) against
//! simulation.
//!
//! # Examples
//!
//! ```
//! use seccloud_cloudsim::{behavior::Behavior, CloudServer, DesignatedAgency};
//! use seccloud_core::{storage::DataBlock, Sio};
//! use seccloud_core::computation::{ComputationRequest, ComputeFunction, RequestItem};
//!
//! let sio = Sio::new(b"sim-doc");
//! let user = sio.register("alice");
//! let mut server = CloudServer::new(&sio, "cs-01", Behavior::Honest, b"srv");
//! let mut da = DesignatedAgency::new(&sio, "da", b"agency");
//!
//! let blocks: Vec<DataBlock> =
//!     (0..8).map(|i| DataBlock::from_values(i, &[i, i + 1])).collect();
//! server.store(&user, user.sign_blocks(&blocks, &[server.public(), da.public()]));
//!
//! let request = ComputationRequest::new(vec![RequestItem {
//!     function: ComputeFunction::Sum,
//!     positions: vec![0, 1, 2],
//! }]);
//! let job = server.handle_computation(&user.identity().to_string(), &request, da.public()).unwrap();
//! let verdict = da.audit(&server, &job, &user, 1, 0).unwrap();
//! assert!(!verdict.detected);
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

pub mod agency;
pub mod behavior;
pub mod csp;
pub mod montecarlo;
pub mod privacy;
pub mod rpc;
pub mod server;

pub use agency::{AuditVerdict, DesignatedAgency};
pub use csp::{Csp, Sla, SubTaskExecution};
pub use server::{CloudServer, JobHandle, ServerError};
