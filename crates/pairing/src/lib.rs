//! A from-scratch BN254 bilinear pairing.
//!
//! This crate supplies the algebra the SecCloud protocol runs on: the prime
//! fields [`Fp`]/[`Fr`], the tower [`Fp2`]→[`Fp6`]→[`Fp12`], the groups
//! [`G1`] (on `E/Fp : y² = x³ + 3`) and [`G2`] (on the sextic twist), hash-
//! to-curve for both groups, and the reduced optimal ate [`pairing`]
//! (with the Tate pairing, [`pairing_tate`], as an independent reference).
//!
//! ## Why Type-3 instead of the paper's symmetric pairing
//!
//! The paper (2010) assumed a symmetric (Type-1) Weil/Tate pairing via
//! MIRACL. Type-1 instantiations are obsolete; the standard modern port
//! keeps every protocol equation intact by hashing *user* identities into
//! `G1` and *verifier* identities (cloud server, designated agency) into
//! `G2`, with `ê : G1 × G2 → GT`. See `DESIGN.md` for the substitution
//! table.
//!
//! ## No transcribed constants
//!
//! Montgomery parameters, the `G2` cofactor, Frobenius coefficients and the
//! final-exponentiation exponent are all *derived at runtime* from the BN
//! parameter `x` and the modulus, then cross-checked in tests — see
//! [`params`].
//!
//! # Examples
//!
//! ```
//! use seccloud_pairing::{pairing, Fr, hash_to_g1, hash_to_g2};
//!
//! // Bilinearity: e([a]P, [b]Q) = e(P, Q)^(ab)
//! let p = hash_to_g1(b"P");
//! let q = hash_to_g2(b"Q");
//! let (a, b) = (Fr::from_u64(6), Fr::from_u64(7));
//! let lhs = pairing(&p.mul_fr(&a).to_affine(), &q.mul_fr(&b).to_affine());
//! let rhs = pairing(&p.to_affine(), &q.to_affine()).pow(&a.mul(&b));
//! assert_eq!(lhs, rhs);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod cache;
pub mod counters;
pub mod ec;
mod fixed_base;
mod fp;
mod fp12;
mod fp2;
mod fp6;
mod fr;
mod g1;
mod g2;
mod glv;
pub mod mont;
mod msm;
mod pairing;
pub mod params;
mod prepared;
pub mod traits;

pub use cache::PreparedCache;
pub use ec::{Affine, CurveParams, Point};
pub use fixed_base::GtPowTable;
pub use fp::Fp;
pub use fp12::Fp12;
pub use fp2::Fp2;
pub use fp6::Fp6;
pub use fr::Fr;
pub use g1::{hash_to_g1, G1Affine, G1Params, G1};
pub use g2::{hash_to_g2, G2Affine, G2Params, G2};
pub use msm::{multi_mul_g1, weighted_product_gt_and_low_halves, WEIGHT_BITS};
pub use pairing::{
    final_exponentiation, multi_pairing, multi_pairing_tate, pairing, pairing_tate, Gt,
};
pub use prepared::{multi_miller_loop, pairing_prepared, G2Prepared};
pub use traits::FieldElement;
