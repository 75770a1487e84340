//! The group `G1 = E(Fp)` with `E : y² = x³ + 3`.

use crate::ec::{Affine, CurveParams, Point};
use crate::fp::Fp;
use crate::fr::Fr;

/// Curve parameters for `G1`.
#[derive(Clone, Copy, Debug)]
pub struct G1Params;

impl CurveParams for G1Params {
    type Base = Fp;
    const NAME: &'static str = "G1";

    fn coeff_b() -> Fp {
        Fp::from_u64(3)
    }

    fn generator() -> (Fp, Fp) {
        (Fp::from_u64(1), Fp::from_u64(2))
    }
}

/// A `G1` point in Jacobian coordinates.
pub type G1 = Point<G1Params>;
/// A `G1` point in affine coordinates.
pub type G1Affine = Affine<G1Params>;

impl G1 {
    /// Scalar multiplication by an `Fr` scalar, using the GLV endomorphism
    /// split (`k = k₁ + λ·k₂` with half-length `k₁, k₂` — see the `glv`
    /// module); `G1` is the one group where the curve automorphism
    /// `(x, y) ↦ (βx, y)` acts by a scalar, so only this entry point takes
    /// the fast path.
    ///
    /// # Examples
    ///
    /// ```
    /// use seccloud_pairing::{Fr, G1};
    /// let g = G1::generator();
    /// let two_g = g.mul_fr(&Fr::from_u64(2));
    /// assert_eq!(two_g, g.double());
    /// ```
    pub fn mul_fr(&self, k: &Fr) -> Self {
        crate::glv::mul_glv(self, k)
    }

    /// Constant-time scalar multiplication for *secret* scalars (key
    /// extraction, per-signature nonces): the fixed 4-bit window ladder
    /// of [`crate::ec::Point::mul_u256_ct`], with no GLV decomposition
    /// (the lattice reduction is variable-time in the scalar) and no wNAF
    /// recoding. About twice the cost of [`G1::mul_fr`] — reserve it for
    /// key material.
    pub fn mul_fr_ct(&self, k: &Fr) -> Self {
        self.mul_u256_ct(&k.to_u256())
    }
}

impl G1Affine {
    /// Serializes to 32 bytes: the big-endian `x` coordinate with two flag
    /// bits folded into the (always-zero for BN254) top bits — bit 7 of
    /// byte 0 marks infinity, bit 6 carries the `y` parity.
    pub fn to_compressed(&self) -> [u8; 32] {
        if self.is_identity() {
            let mut out = [0u8; 32];
            out[0] = 0x80;
            return out;
        }
        let mut out = self.x().to_be_bytes();
        if self.y().is_odd() {
            out[0] |= 0x40;
        }
        out
    }

    /// Deserializes a compressed point, verifying the curve equation.
    ///
    /// Returns `None` for malformed encodings (non-canonical `x`, flag
    /// misuse, or `x` not on the curve). `G1` has cofactor 1, so every
    /// decoded point automatically has order `r`.
    pub fn from_compressed(bytes: &[u8; 32]) -> Option<Self> {
        let infinity = bytes[0] & 0x80 != 0;
        let y_odd = bytes[0] & 0x40 != 0;
        let mut x_bytes = *bytes;
        x_bytes[0] &= 0x3f;
        if infinity {
            // Canonical infinity encoding is exactly 0x80 ‖ 0³¹.
            return (!y_odd && x_bytes.iter().all(|&b| b == 0)).then_some(Self::identity());
        }
        let x = Fp::from_be_bytes(&x_bytes)?;
        let y2 = x.square().mul(&x).add(&Fp::from_u64(3));
        let y_even = y2.sqrt()?; // canonical even root
        let y = if y_odd { y_even.neg() } else { y_even };
        Self::from_xy(x, y)
    }
}

/// Hashes arbitrary bytes onto `G1` by try-and-increment (the paper's
/// `H1 : {0,1}* → G1`, used for identity public keys `Q_ID`).
///
/// Deterministic, domain-separated, and always returns a point on the curve;
/// `G1` has cofactor 1 so every curve point already has order `r`.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::hash_to_g1;
/// let q = hash_to_g1(b"alice@example.com");
/// assert!(q.to_affine().is_on_curve());
/// assert_ne!(q, hash_to_g1(b"bob@example.com"));
/// ```
pub fn hash_to_g1(msg: &[u8]) -> G1 {
    for ctr in 0u32.. {
        let mut input = Vec::with_capacity(msg.len() + 4);
        input.extend_from_slice(msg);
        input.extend_from_slice(&ctr.to_be_bytes());
        let x = Fp::from_hash(b"seccloud/H1/g1", &input);
        let y2 = x.square().mul(&x).add(&Fp::from_u64(3));
        if let Some(y) = y2.sqrt() {
            // Deterministic sign choice from the hash input.
            let sign = seccloud_hash::hash_to_int_bytes(b"seccloud/H1/g1/sign", &input, 1)[0] & 1;
            let y = if sign == 1 { y.neg() } else { y };
            let p = G1Affine::from_xy(x, y).expect("constructed on curve");
            return G1::from(p);
        }
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_bigint::U256;

    #[test]
    fn public_affine_conversion_matches_the_constant_time_one() {
        // Z = 1 (hashed), Z ≠ 1 (after arithmetic) and the identity.
        let hashed = hash_to_g1(b"vartime-affine");
        let projective = hashed.double().add(&G1::generator());
        for p in [hashed, projective, G1::identity()] {
            assert_eq!(p.to_affine_vartime(), p.to_affine());
        }
    }

    #[test]
    fn ct_ladder_matches_wnaf_glv() {
        let g = G1::generator();
        let mut drbg = seccloud_hash::HmacDrbg::new(b"g1-ct-ladder");
        for _ in 0..8 {
            let k = Fr::random_nonzero(&mut drbg);
            assert_eq!(g.mul_fr_ct(&k), g.mul_fr(&k));
        }
        for base in [g, hash_to_g1(b"g1-ct-ladder-base")] {
            for k in crate::ec::ladder_edge_scalars() {
                assert_eq!(base.mul_fr_ct(&k), base.mul_fr(&k), "k = {k:?}");
            }
        }
        assert!(g.mul_fr_ct(&Fr::zero()).is_identity());
        assert!(G1::identity().mul_fr_ct(&Fr::from_u64(7)).is_identity());
        assert_eq!(g.mul_fr_ct(&Fr::from_u64(1)), g);
        // r − 1 exercises the full 254-bit ladder depth: (r−1)·G = −G.
        let r_minus_1 = Fr::zero().sub(&Fr::from_u64(1));
        assert_eq!(g.mul_fr_ct(&r_minus_1), g.neg());
    }

    #[test]
    fn ct_add_handles_every_degenerate_case() {
        let g = G1::generator();
        let p = g.mul_fr(&Fr::from_u64(5));
        let q = g.mul_fr(&Fr::from_u64(9));
        assert_eq!(p.add_ct(&q), p.add(&q));
        assert_eq!(p.add_ct(&p), p.double());
        assert!(p.add_ct(&p.neg()).is_identity());
        assert_eq!(G1::identity().add_ct(&p), p);
        assert_eq!(p.add_ct(&G1::identity()), p);
        assert!(G1::identity().add_ct(&G1::identity()).is_identity());
        assert_eq!(p.double_ct(), p.double());
        assert!(G1::identity().double_ct().is_identity());
    }

    #[test]
    fn mixed_add_and_batch_normalization_handle_every_degenerate_case() {
        let g = G1::generator();
        let p = g.mul_fr(&Fr::from_u64(5));
        let q = g.mul_fr(&Fr::from_u64(9));
        let points = [p, G1::identity(), q, p.double()];
        let affine = G1::batch_to_affine_vartime(&points);
        for (pt, a) in points.iter().zip(&affine) {
            assert_eq!(*a, pt.to_affine());
        }
        let (pa, qa) = (affine[0], affine[2]);
        assert_eq!(p.add_affine(&qa), p.add(&q));
        assert_eq!(p.add_affine(&pa), p.double());
        assert!(p.add_affine(&pa.neg()).is_identity());
        assert_eq!(G1::identity().add_affine(&pa), p);
        assert_eq!(p.add_affine(&G1Affine::identity()), p);
    }

    #[test]
    fn generator_is_on_curve_and_has_order_r() {
        let g = G1::generator();
        assert!(g.to_affine().is_on_curve());
        let r = Fr::modulus();
        assert!(g.mul_u256(&r).is_identity());
        // But not lower order r/small-factor (r is prime, so just ≠ identity
        // for a couple of scalars).
        assert!(!g.mul_u256(&U256::from_u64(2)).is_identity());
        assert!(!g.mul_u256(&r.wrapping_sub(&U256::ONE)).is_identity());
    }

    #[test]
    fn group_laws() {
        let g = G1::generator();
        let a = g.mul_fr(&Fr::from_u64(5));
        let b = g.mul_fr(&Fr::from_u64(7));
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b), g.mul_fr(&Fr::from_u64(12)));
        assert_eq!(a.sub(&a), G1::identity());
        assert_eq!(a.add(&G1::identity()), a);
        assert_eq!(g.double(), g.add(&g));
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = G1::generator();
        let k1 = Fr::hash(b"k1");
        let k2 = Fr::hash(b"k2");
        // [k1+k2]G = [k1]G + [k2]G
        assert_eq!(g.mul_fr(&k1.add(&k2)), g.mul_fr(&k1).add(&g.mul_fr(&k2)));
        // [k1·k2]G = [k1]([k2]G)
        assert_eq!(g.mul_fr(&k1.mul(&k2)), g.mul_fr(&k2).mul_fr(&k1));
    }

    #[test]
    fn affine_round_trip() {
        let p = G1::generator().mul_fr(&Fr::from_u64(99));
        let a = p.to_affine();
        assert_eq!(G1::from(a), p);
        assert!(a.is_on_curve());
        // Identity round-trips too.
        assert!(G1::from(G1Affine::identity()).is_identity());
    }

    #[test]
    fn from_xy_rejects_off_curve_points() {
        assert!(G1Affine::from_xy(Fp::from_u64(1), Fp::from_u64(3)).is_none());
        assert!(G1Affine::from_xy(Fp::from_u64(1), Fp::from_u64(2)).is_some());
    }

    #[test]
    fn hash_to_g1_properties() {
        let p1 = hash_to_g1(b"identity-a");
        let p2 = hash_to_g1(b"identity-a");
        let p3 = hash_to_g1(b"identity-b");
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert!(!p1.is_identity());
        assert!(p1.to_affine().is_on_curve());
        // Hashed points are in the r-torsion (cofactor 1).
        assert!(p1.mul_u256(&Fr::modulus()).is_identity());
    }

    #[test]
    fn negation_law() {
        let p = hash_to_g1(b"neg");
        assert!(p.add(&p.neg()).is_identity());
        let a = p.to_affine();
        assert_eq!(G1::from(a.neg()), p.neg());
    }
}
