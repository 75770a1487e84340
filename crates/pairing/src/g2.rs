//! The group `G2 ⊂ E'(Fp2)` on the sextic twist `E' : y² = x³ + 3/ξ`.

use std::sync::OnceLock;

use seccloud_bigint::ApInt;

use crate::ec::{Affine, CurveParams, Point};
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fr::Fr;
use crate::params;
use crate::traits::FieldElement;

/// Curve parameters for the `G2` twist.
#[derive(Clone, Copy, Debug)]
pub struct G2Params;

impl CurveParams for G2Params {
    type Base = Fp2;
    const NAME: &'static str = "G2";

    fn coeff_b() -> Fp2 {
        static B: OnceLock<Fp2> = OnceLock::new();
        *B.get_or_init(|| {
            // b' = 3/ξ (D-type twist).
            Fp2::from_u64(3).mul(&Fp2::xi().inverse().expect("ξ ≠ 0"))
        })
    }

    fn generator() -> (Fp2, Fp2) {
        static GEN: OnceLock<(Fp2, Fp2)> = OnceLock::new();
        *GEN.get_or_init(|| {
            // The standard BN254 G2 generator (EIP-197 / arkworks), parsed
            // from decimal and verified on-curve + r-torsion in tests.
            let dec = |s: &str| {
                Fp::from_u256(
                    &ApInt::from_dec(s)
                        .expect("valid decimal")
                        .to_uint()
                        .expect("fits in 256 bits"),
                )
            };
            let x = Fp2::new(
                dec(
                    "10857046999023057135944570762232829481370756359578518086990519993285655852781",
                ),
                dec(
                    "11559732032986387107991004021392285783925812861821192530917403151452391805634",
                ),
            );
            let y = Fp2::new(
                dec("8495653923123431417604973247489272438418190587263600148770280649306958101930"),
                dec("4082367875863433681332203403145435568316851327593401208105741076214120093531"),
            );
            (x, y)
        })
    }
}

/// A `G2` point in Jacobian coordinates.
pub type G2 = Point<G2Params>;
/// A `G2` point in affine coordinates.
pub type G2Affine = Affine<G2Params>;

impl G2 {
    /// Scalar multiplication by an `Fr` scalar.
    pub fn mul_fr(&self, k: &Fr) -> Self {
        self.mul_limbs_wnaf(k.to_u256().limbs())
    }

    /// Constant-time scalar multiplication for *secret* scalars: the
    /// fixed 4-bit window ladder of [`crate::ec::Point::mul_u256_ct`]
    /// instead of the wNAF recoding (whose digit pattern is
    /// scalar-dependent).
    pub fn mul_fr_ct(&self, k: &Fr) -> Self {
        self.mul_u256_ct(&k.to_u256())
    }

    /// Whether the point lies in the order-`r` subgroup.
    pub fn is_torsion_free(&self) -> bool {
        self.mul_u256(&Fr::modulus()).is_identity()
    }
}

impl G2Affine {
    /// Serializes to 64 bytes: big-endian `x.c1 ‖ x.c0` with flag bits in
    /// the always-zero top two bits of each half (BN254 elements are
    /// < 2²⁵⁴): byte 0 bit 7 = infinity, byte 0 bit 6 = `y.c0` parity,
    /// byte 32 bit 7 = `y.c1` parity.
    pub fn to_compressed(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        if self.is_identity() {
            out[0] = 0x80;
            return out;
        }
        out[..32].copy_from_slice(&self.x().c1.to_be_bytes());
        out[32..].copy_from_slice(&self.x().c0.to_be_bytes());
        if self.y().c0.is_odd() {
            out[0] |= 0x40;
        }
        if self.y().c1.is_odd() {
            out[32] |= 0x80;
        }
        out
    }

    /// Deserializes a compressed `G2` point, verifying the twist equation
    /// **and** the order-`r` subgroup membership (the twist has a large
    /// cofactor, so the check is mandatory for safety).
    pub fn from_compressed(bytes: &[u8; 64]) -> Option<Self> {
        let infinity = bytes[0] & 0x80 != 0;
        let flags = (bytes[0] & 0x40) | (bytes[32] & 0x80);
        let mut payload = *bytes;
        payload[0] &= 0x3f;
        payload[32] &= 0x7f;
        if infinity {
            return (flags == 0 && payload.iter().all(|&b| b == 0)).then_some(Self::identity());
        }
        let c1 = Fp::from_be_bytes(payload[..32].try_into().expect("32 bytes"))?;
        let c0 = Fp::from_be_bytes(payload[32..].try_into().expect("32 bytes"))?;
        let x = Fp2::new(c0, c1);
        let y2 = x.square().mul(&x).add(&G2Params::coeff_b());
        let y = y2.sqrt()?;
        // Pick the root matching the recorded parities; the two roots are
        // negatives of each other, so exactly one matches (or the encoding
        // is invalid).
        let want = (bytes[0] & 0x40 != 0, bytes[32] & 0x80 != 0);
        let candidate = if (y.c0.is_odd(), y.c1.is_odd()) == want {
            y
        } else {
            let neg = y.neg();
            if (neg.c0.is_odd(), neg.c1.is_odd()) == want {
                neg
            } else {
                return None;
            }
        };
        let point = Self::from_xy(x, candidate)?;
        G2::from(point).is_torsion_free().then_some(point)
    }
}

/// Hashes arbitrary bytes onto the order-`r` subgroup of the twist (the
/// verifier-side `H1 : {0,1}* → G2`, used for `Q_CS` and `Q_DA`).
///
/// Try-and-increment onto `E'(Fp2)` followed by cofactor clearing with
/// `c₂ = p − 1 + t` (derived at runtime; see [`params::g2_cofactor`]).
///
/// # Examples
///
/// ```
/// use seccloud_pairing::hash_to_g2;
/// let q = hash_to_g2(b"cs-01.cloud.example");
/// assert!(q.is_torsion_free());
/// assert!(!q.is_identity());
/// ```
pub fn hash_to_g2(msg: &[u8]) -> G2 {
    let b = G2Params::coeff_b();
    for ctr in 0u32.. {
        let mut input = Vec::with_capacity(msg.len() + 4);
        input.extend_from_slice(msg);
        input.extend_from_slice(&ctr.to_be_bytes());
        let x = Fp2::from_hash(b"seccloud/H1/g2", &input);
        let y2 = x.square().mul(&x).add(&b);
        if let Some(y) = y2.sqrt() {
            let sign = seccloud_hash::hash_to_int_bytes(b"seccloud/H1/g2/sign", &input, 1)[0] & 1;
            let y = if sign == 1 { y.neg() } else { y };
            let p = G2Affine::from_xy(x, y).expect("constructed on curve");
            let cleared = G2::from(p).mul_apint(params::g2_cofactor());
            if !cleared.is_identity() {
                return cleared;
            }
        }
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_bigint::U256;

    #[test]
    fn ct_ladder_matches_wnaf() {
        let g = G2::generator();
        let mut drbg = seccloud_hash::HmacDrbg::new(b"g2-ct-ladder");
        for _ in 0..4 {
            let k = Fr::random_nonzero(&mut drbg);
            assert_eq!(g.mul_fr_ct(&k), g.mul_fr(&k));
        }
        for base in [g, hash_to_g2(b"g2-ct-ladder-base")] {
            for k in crate::ec::ladder_edge_scalars() {
                assert_eq!(base.mul_fr_ct(&k), base.mul_fr(&k), "k = {k:?}");
            }
        }
        assert!(g.mul_fr_ct(&Fr::zero()).is_identity());
        let r_minus_1 = Fr::zero().sub(&Fr::from_u64(1));
        assert_eq!(g.mul_fr_ct(&r_minus_1), g.neg());
    }

    #[test]
    fn public_affine_conversion_matches_the_constant_time_one() {
        // Hashed points leave cofactor clearing with Z ≠ 1; a decoded
        // point has Z = 1; then a scalar multiple and the identity.
        let hashed = hash_to_g2(b"vartime-affine");
        let decoded = G2::from(hashed.to_affine());
        let multiplied = hashed.mul_fr(&Fr::hash(b"vartime-affine-k"));
        for p in [hashed, decoded, multiplied, G2::identity()] {
            assert_eq!(p.to_affine_vartime(), p.to_affine());
        }
    }

    #[test]
    fn generator_is_on_twist_and_in_subgroup() {
        let g = G2::generator();
        assert!(
            g.to_affine().is_on_curve(),
            "generator satisfies y² = x³ + 3/ξ"
        );
        assert!(g.is_torsion_free(), "generator has order r");
        assert!(!g.mul_u256(&U256::from_u64(7)).is_identity());
    }

    #[test]
    fn twist_curve_order_is_cofactor_times_r() {
        // A random curve point (pre-cofactor-clearing) must be annihilated
        // by c₂·r — this validates the derived cofactor formula c₂ = p−1+t.
        let b = G2Params::coeff_b();
        let mut found = 0;
        for ctr in 0u32..20 {
            let x = Fp2::from_hash(b"order-test", &ctr.to_be_bytes());
            let y2 = x.square().mul(&x).add(&b);
            if let Some(y) = y2.sqrt() {
                let p = G2::from(G2Affine::from_xy(x, y).unwrap());
                let order = params::g2_cofactor() * &ApInt::from_uint(&Fr::modulus());
                assert!(p.mul_apint(&order).is_identity(), "point killed by c₂·r");
                found += 1;
            }
        }
        assert!(found >= 3, "expected several curve points");
    }

    #[test]
    fn group_laws() {
        let g = G2::generator();
        let a = g.mul_fr(&Fr::from_u64(3));
        let b = g.mul_fr(&Fr::from_u64(11));
        assert_eq!(a.add(&b), g.mul_fr(&Fr::from_u64(14)));
        assert_eq!(a.add(&b), b.add(&a));
        assert!(a.sub(&a).is_identity());
        assert_eq!(g.double(), g.add(&g));
    }

    #[test]
    fn hash_to_g2_lands_in_subgroup() {
        let q1 = hash_to_g2(b"server-1");
        let q2 = hash_to_g2(b"server-1");
        let q3 = hash_to_g2(b"server-2");
        assert_eq!(q1, q2);
        assert_ne!(q1, q3);
        assert!(q1.is_torsion_free());
        assert!(q1.to_affine().is_on_curve());
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = hash_to_g2(b"distribute");
        let k1 = Fr::hash(b"a");
        let k2 = Fr::hash(b"b");
        assert_eq!(g.mul_fr(&k1.add(&k2)), g.mul_fr(&k1).add(&g.mul_fr(&k2)));
    }
}
