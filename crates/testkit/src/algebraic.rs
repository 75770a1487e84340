//! Algebraic faults: values that decode and type-check but break the
//! algebra a verification equation relies on.
//!
//! The byte-level [`crate::FaultKind`]s mangle encodings, which the
//! decoders reject. The faults here survive decoding — an identity or
//! negated `U`, a `Σ` that is `1`, `0`, `−Σ` or `Σ` times an element of
//! small order outside `μ_r`, and designations swapped between verifiers,
//! duplicated or missing — so they reach the pairing checks themselves.
//! A property over [`algebraic_faults`] states that a batched check
//! accepts exactly when every item verifies on its own.

use std::sync::OnceLock;

use seccloud_core::storage::SignedBlock;
use seccloud_ibs::DesignatedSignature;
use seccloud_pairing::{params, FieldElement, Fp12, Fp2, Fp6, Gt};

use crate::tape::Tape;

/// One algebraic fault, applied to a block's designation for a target
/// verifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgebraicFault {
    /// `U` replaced by the identity.
    IdentityU,
    /// `U` negated.
    NegatedU,
    /// `Σ = 1`.
    SigmaOne,
    /// `Σ = 0`: canonically encoded, but no group element.
    SigmaZero,
    /// `−Σ`, of order `2r`: vanishes from a randomized batch under any
    /// even weight unless the batch tests subgroup membership.
    NegatedSigma,
    /// `Σ·z` with `z ≠ 1` of order dividing the cofactor
    /// `h_T = (p⁴ − p² + 1)/r`: cyclotomic, yet outside `μ_r`.
    SmallOrderSigma,
    /// The target's and the other verifier's signatures trade labels.
    SwappedDesignation,
    /// A second entry for the target, carrying the other verifier's
    /// signature, ahead of the genuine one.
    DuplicatedDesignation,
    /// The target's designation removed.
    MissingDesignation,
}

impl AlgebraicFault {
    /// Every fault, in declaration order.
    pub const ALL: [Self; 9] = [
        Self::IdentityU,
        Self::NegatedU,
        Self::SigmaOne,
        Self::SigmaZero,
        Self::NegatedSigma,
        Self::SmallOrderSigma,
        Self::SwappedDesignation,
        Self::DuplicatedDesignation,
        Self::MissingDesignation,
    ];

    /// The fault applied to one designated signature; the designation
    /// faults leave it unchanged.
    pub fn corrupt(self, sig: &DesignatedSignature) -> DesignatedSignature {
        let (u, sigma) = (*sig.u(), *sig.sigma());
        let (u, sigma) = match self {
            Self::IdentityU => (seccloud_pairing::G1::identity(), sigma),
            Self::NegatedU => (u.neg(), sigma),
            Self::SigmaOne => (u, Gt::one()),
            Self::SigmaZero => (u, gt_of(&Fp12::zero())),
            Self::NegatedSigma => (u, gt_of(&sigma.as_fp12().neg())),
            Self::SmallOrderSigma => (u, sigma.mul(small_order_element())),
            Self::SwappedDesignation | Self::DuplicatedDesignation | Self::MissingDesignation => {
                (u, sigma)
            }
        };
        DesignatedSignature::from_parts(u, sigma)
    }

    /// The fault applied to `block`'s designation for `target`; the
    /// designation faults take their second signature from `other`'s
    /// entry. A block without the entries a fault needs is returned
    /// unchanged.
    pub fn apply(self, block: &SignedBlock, target: &str, other: &str) -> SignedBlock {
        let find = |id: &str| block.designation_for(id).cloned();
        let (Some(mine), theirs) = (find(target), find(other)) else {
            return block.clone();
        };
        let mut designations: Vec<(String, DesignatedSignature)> = block
            .designations()
            .map(|(id, sig)| (id.to_owned(), sig.clone()))
            .collect();
        match (self, theirs) {
            (Self::SwappedDesignation, Some(theirs)) => {
                for (id, sig) in &mut designations {
                    if id == target {
                        *sig = theirs.clone();
                    } else if id == other {
                        *sig = mine.clone();
                    }
                }
            }
            (Self::DuplicatedDesignation, Some(theirs)) => {
                designations.insert(0, (target.to_owned(), theirs));
            }
            (Self::MissingDesignation, _) => designations.retain(|(id, _)| id != target),
            (Self::SwappedDesignation | Self::DuplicatedDesignation, None) => {}
            (fault, _) => {
                for (id, sig) in &mut designations {
                    if id == target {
                        *sig = fault.corrupt(sig);
                    }
                }
            }
        }
        SignedBlock::from_parts(block.block().clone(), designations)
    }
}

/// A fault plan over `slots` targets: zero, one or two `(slot, fault)`
/// pairs (none in a quarter of cases, so properties see accepting inputs
/// too). A slot may be drawn twice; the faults then compose in order.
pub fn algebraic_faults(t: &mut Tape, slots: usize) -> Vec<(usize, AlgebraicFault)> {
    if slots == 0 {
        return Vec::new();
    }
    let count = [0, 1, 1, 2][t.next_below(4) as usize];
    (0..count)
        .map(|_| {
            let slot = t.next_below(slots as u64) as usize;
            let fault =
                AlgebraicFault::ALL[t.next_below(AlgebraicFault::ALL.len() as u64) as usize];
            (slot, fault)
        })
        .collect()
}

/// The `Gt` value with `f`'s coefficients, through the canonical encoding
/// (no other public constructor takes an arbitrary `Fp12`).
pub fn gt_of(f: &Fp12) -> Gt {
    let mut bytes = Vec::with_capacity(384);
    for c6 in [&f.c0, &f.c1] {
        for c2 in [&c6.c0, &c6.c1, &c6.c2] {
            bytes.extend_from_slice(&c2.c0.to_be_bytes());
            bytes.extend_from_slice(&c2.c1.to_be_bytes());
        }
    }
    Gt::from_bytes(&bytes).expect("field elements encode canonically")
}

/// A fixed `z = e^r ≠ 1`, where `e` is the easy-part image
/// `f^((p⁶−1)(p²+1))` of a hashed `f ∈ Fp12`: `e` is cyclotomic, so `z`
/// has order dividing `h_T`.
fn small_order_element() -> &'static Gt {
    static Z: OnceLock<Gt> = OnceLock::new();
    Z.get_or_init(|| {
        let fp2 = |tag: &[u8]| Fp2::from_hash(b"seccloud-testkit/small-order", tag);
        let f = Fp12::new(
            Fp6::new(fp2(b"a"), fp2(b"b"), fp2(b"c")),
            Fp6::new(fp2(b"d"), fp2(b"e"), fp2(b"f")),
        );
        let easy = f.conjugate().mul(&f.inverse().expect("nonzero"));
        let easy = easy.frobenius_p2().mul(&easy);
        let z = easy.pow_apint(params::r_apint());
        assert_ne!(z, Fp12::one(), "e lies outside μ_r");
        gt_of(&z)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_core::storage::DataBlock;
    use seccloud_core::Sio;

    #[test]
    fn sigma_faults_leave_mu_r_and_u_faults_stay_in_it() {
        let sio = Sio::new(b"testkit-algebraic");
        let user = sio.register("alice");
        let (cs, da) = (sio.register_verifier("cs"), sio.register_verifier("da"));
        let block = user.sign_blocks(
            &[DataBlock::new(0, b"x".to_vec())],
            &[cs.public(), da.public()],
        );
        let sig = block[0].designation_for("da").expect("designated");
        assert!(sig.sigma().is_in_subgroup());
        for fault in AlgebraicFault::ALL {
            let bad = fault.apply(&block[0], "da", "cs");
            let in_mu_r = bad
                .designation_for("da")
                .is_none_or(|s| s.sigma().is_in_subgroup());
            let expected = !matches!(
                fault,
                AlgebraicFault::SigmaZero
                    | AlgebraicFault::NegatedSigma
                    | AlgebraicFault::SmallOrderSigma
            );
            assert_eq!(in_mu_r, expected, "{fault:?}");
            assert!(
                !bad.verify(da.key(), user.public()),
                "{fault:?} must break eq. 5"
            );
            assert!(
                bad.verify(cs.key(), user.public()) || fault == AlgebraicFault::SwappedDesignation,
                "{fault:?} touches only the target's entry"
            );
        }
    }

    #[test]
    fn plans_cover_every_fault_and_the_empty_plan() {
        let mut seen = std::collections::HashSet::new();
        let mut empty = false;
        for i in 0..400u32 {
            let mut drbg = seccloud_hash::HmacDrbg::new(&i.to_be_bytes());
            let mut tape = Tape::from_drbg(&mut drbg, 64);
            let plan = algebraic_faults(&mut tape, 5);
            empty |= plan.is_empty();
            for (slot, fault) in plan {
                assert!(slot < 5);
                seen.insert(fault);
            }
        }
        assert!(empty);
        assert_eq!(seen.len(), AlgebraicFault::ALL.len());
    }
}
