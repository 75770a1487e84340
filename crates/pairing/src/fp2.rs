//! The quadratic extension `Fp2 = Fp[u]/(u² + 1)`.

use crate::fp::Fp;
use crate::traits::FieldElement;
use seccloud_bigint::U256;

/// An element `c0 + c1·u` of `Fp2`, where `u² = −1`.
///
/// `Fp2` is the coordinate field of the sextic twist `E'` hosting `G2`.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{Fp, Fp2, FieldElement};
/// let u = Fp2::new(Fp::zero(), Fp::one());
/// assert_eq!(u.square(), Fp2::from_u64(1).neg()); // u² = −1
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Fp2 {
    /// The `Fp` coefficient of 1.
    pub c0: Fp,
    /// The `Fp` coefficient of `u`.
    pub c1: Fp,
}

impl Fp2 {
    /// Creates `c0 + c1·u`.
    pub const fn new(c0: Fp, c1: Fp) -> Self {
        Self { c0, c1 }
    }

    /// Embeds a small integer.
    pub fn from_u64(v: u64) -> Self {
        Self::new(Fp::from_u64(v), Fp::zero())
    }

    /// Embeds an `Fp` element.
    pub fn from_fp(v: Fp) -> Self {
        Self::new(v, Fp::zero())
    }

    /// The non-residue `ξ = 9 + u` used to build `Fp6 = Fp2[v]/(v³ − ξ)`.
    pub fn xi() -> Self {
        Self::new(Fp::from_u64(9), Fp::one())
    }

    /// Multiplies by the non-residue `ξ = 9 + u` without a full `Fp2`
    /// multiplication: `(c0 + c1·u)(9 + u) = (9c0 − c1) + (9c1 + c0)·u`,
    /// with `9x` computed as `8x + x` by doublings.
    pub fn mul_by_xi(&self) -> Self {
        let nine = |x: &Fp| x.double().double().double().add(x);
        Self::new(nine(&self.c0).sub(&self.c1), nine(&self.c1).add(&self.c0))
    }

    /// Complex conjugation `c0 − c1·u`; equals the Frobenius map `x ↦ xᵖ`
    /// because `uᵖ = −u` (as `p ≡ 3 mod 4`).
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, self.c1.neg())
    }

    /// Multiplies by an `Fp` scalar.
    pub fn scale(&self, k: &Fp) -> Self {
        Self::new(self.c0.mul(k), self.c1.mul(k))
    }

    /// Norm `c0² + c1²` (an `Fp` element).
    pub fn norm(&self) -> Fp {
        self.c0.square().add(&self.c1.square())
    }

    /// Multiplicative inverse via [`Fp::inverse_vartime`] on the norm —
    /// **variable-time**, for *public* operands only (Miller-loop slopes,
    /// affine conversions of public points).
    pub fn inverse_vartime(&self) -> Option<Self> {
        let norm_inv = self.norm().inverse_vartime()?;
        Some(Self::new(
            self.c0.mul(&norm_inv),
            self.c1.mul(&norm_inv).neg(),
        ))
    }

    /// Computes a square root if one exists (`p ≡ 3 mod 4` algorithm of
    /// Adj–Rodríguez-Henríquez); the result is always verified by squaring,
    /// so a `Some` return is trustworthy by construction.
    pub fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        // a1 = a^((p-3)/4)
        let e = Fp::modulus().wrapping_sub(&U256::from_u64(3)).shr(2);
        let a1 = self.pow_limbs(e.limbs());
        let x0 = a1.mul(self);
        let alpha = a1.mul(&x0);
        let candidate = if alpha == Self::from_u64(1).neg() {
            // x = u·x0
            Self::new(x0.c1.neg(), x0.c0)
        } else {
            // b = (1 + α)^((p-1)/2); x = b·x0
            let e = Fp::modulus().wrapping_sub(&U256::ONE).shr(1);
            let b = Self::from_u64(1).add(&alpha).pow_limbs(e.limbs());
            b.mul(&x0)
        };
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Maps arbitrary bytes to a near-uniform `Fp2` element.
    pub fn from_hash(domain: &[u8], msg: &[u8]) -> Self {
        let wide = seccloud_hash::hash_to_int_bytes(domain, msg, 128);
        Self::new(
            Fp::from_bytes_wide(&wide[..64]),
            Fp::from_bytes_wide(&wide[64..]),
        )
    }

    /// Serializes to 64 canonical big-endian bytes (`c0 ‖ c1`).
    pub fn to_be_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.c0.to_be_bytes());
        out[32..].copy_from_slice(&self.c1.to_be_bytes());
        out
    }

    /// Parses 64 canonical big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 64]) -> Option<Self> {
        let c0 = Fp::from_be_bytes(bytes[..32].try_into().expect("32 bytes"))?;
        let c1 = Fp::from_be_bytes(bytes[32..].try_into().expect("32 bytes"))?;
        Some(Self::new(c0, c1))
    }
}

impl FieldElement for Fp2 {
    fn zero() -> Self {
        Self::new(Fp::zero(), Fp::zero())
    }

    fn one() -> Self {
        Self::new(Fp::one(), Fp::zero())
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    fn add(&self, rhs: &Self) -> Self {
        Self::new(self.c0.add(&rhs.c0), self.c1.add(&rhs.c1))
    }

    fn sub(&self, rhs: &Self) -> Self {
        Self::new(self.c0.sub(&rhs.c0), self.c1.sub(&rhs.c1))
    }

    fn neg(&self) -> Self {
        Self::new(self.c0.neg(), self.c1.neg())
    }

    fn mul(&self, rhs: &Self) -> Self {
        // Karatsuba over u² = −1, delegated whole to the `arch` kernel so
        // the lazy reduction can batch the reductions.
        let (c0, c1) = crate::arch::fp2_mul(
            self.c0.repr(),
            self.c1.repr(),
            rhs.c0.repr(),
            rhs.c1.repr(),
            &Fp::MODULUS,
            &Fp::M2,
            Fp::NEG_INV,
        );
        Self::new(Fp::from_repr_unchecked(c0), Fp::from_repr_unchecked(c1))
    }

    fn square(&self) -> Self {
        // (a + bu)² = (a+b)(a−b) + 2ab·u, as one `arch` kernel.
        let (c0, c1) =
            crate::arch::fp2_sqr(self.c0.repr(), self.c1.repr(), &Fp::MODULUS, Fp::NEG_INV);
        Self::new(Fp::from_repr_unchecked(c0), Fp::from_repr_unchecked(c1))
    }

    fn inverse(&self) -> Option<Self> {
        let norm_inv = self.norm().inverse()?;
        Some(Self::new(
            self.c0.mul(&norm_inv),
            self.c1.mul(&norm_inv).neg(),
        ))
    }

    fn inverse_vartime(&self) -> Option<Self> {
        Self::inverse_vartime(self)
    }

    fn ct_select(a: &Self, b: &Self, choice: u64) -> Self {
        Self::new(
            Fp::ct_select(&a.c0, &b.c0, choice),
            Fp::ct_select(&a.c1, &b.c1, choice),
        )
    }

    fn ct_is_zero(&self) -> u64 {
        self.c0.ct_is_zero() & self.c1.ct_is_zero()
    }
}

// Convenience operators.
impl core::ops::Add for Fp2 {
    type Output = Fp2;
    fn add(self, rhs: Fp2) -> Fp2 {
        FieldElement::add(&self, &rhs)
    }
}
impl core::ops::Sub for Fp2 {
    type Output = Fp2;
    fn sub(self, rhs: Fp2) -> Fp2 {
        FieldElement::sub(&self, &rhs)
    }
}
impl core::ops::Mul for Fp2 {
    type Output = Fp2;
    fn mul(self, rhs: Fp2) -> Fp2 {
        FieldElement::mul(&self, &rhs)
    }
}
impl core::ops::Neg for Fp2 {
    type Output = Fp2;
    fn neg(self) -> Fp2 {
        FieldElement::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_hash::HmacDrbg;

    fn fp_rand(d: &mut HmacDrbg) -> Fp {
        Fp::from_u256(&U256::from_limbs(std::array::from_fn(|_| d.next_u64())))
    }

    fn fp2(d: &mut HmacDrbg) -> Fp2 {
        Fp2::new(fp_rand(d), fp_rand(d))
    }

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fp2::new(Fp::zero(), Fp::one());
        assert_eq!(u.square(), Fp2::one().neg());
        assert_eq!(u.mul(&u).mul(&u).mul(&u), Fp2::one());
    }

    #[test]
    fn xi_is_not_a_cube_or_square() {
        // ξ must be a cubic and quadratic non-residue for the tower to be a
        // field; verify ξ^((p²−1)/2) ≠ 1 and ξ^((p²−1)/3) ≠ 1.
        use seccloud_bigint::ApInt;
        let p = ApInt::from_uint(&Fp::modulus());
        let p2m1 = &(&p * &p) - &ApInt::one();
        let xi = Fp2::xi();
        for divisor in [2u64, 3] {
            let (e, rem) = p2m1.divrem(&ApInt::from_u64(divisor)).unwrap();
            assert!(rem.is_zero());
            // pad limbs for pow
            let mut limbs = e.to_be_bytes();
            limbs.reverse(); // little-endian bytes
            let mut le_limbs = vec![0u64; limbs.len().div_ceil(8)];
            for (i, &b) in limbs.iter().enumerate() {
                le_limbs[i / 8] |= (b as u64) << (8 * (i % 8));
            }
            assert_ne!(
                xi.pow_limbs(&le_limbs),
                Fp2::one(),
                "ξ^((p²−1)/{divisor}) = 1"
            );
        }
    }

    #[test]
    fn conjugate_is_frobenius() {
        let a = Fp2::from_hash(b"t", b"frobenius");
        assert_eq!(a.pow_limbs(&Fp::MODULUS), a.conjugate());
    }

    #[test]
    fn sqrt_verified_examples() {
        for i in 0..20u32 {
            let a = Fp2::from_hash(b"sqrt", &i.to_be_bytes());
            let sq = a.square();
            let r = sq.sqrt().expect("squares have roots");
            assert!(r == a || r == a.neg());
        }
    }

    #[test]
    fn field_axioms() {
        let mut d = HmacDrbg::new(b"fp2-axioms");
        for _ in 0..48 {
            let (a, b, c) = (fp2(&mut d), fp2(&mut d), fp2(&mut d));
            assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b.mul(&c)), a.mul(&b).mul(&c));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }
    }

    #[test]
    fn square_matches_mul() {
        let mut d = HmacDrbg::new(b"fp2-sq");
        for _ in 0..48 {
            let a = fp2(&mut d);
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn inverse_law() {
        let mut d = HmacDrbg::new(b"fp2-inv");
        for _ in 0..48 {
            let a = fp2(&mut d);
            if let Some(inv) = a.inverse() {
                assert_eq!(a.mul(&inv), Fp2::one());
            } else {
                assert!(a.is_zero());
            }
        }
    }

    #[test]
    fn trait_vartime_inverse_is_the_inherent_one() {
        // The generic curve code reaches `inverse_vartime` through the
        // trait; it must be the binary-Euclid inverse, not the default
        // Fermat one, and agree with `inverse` on every input.
        let mut d = HmacDrbg::new(b"fp2-inv-vartime");
        for _ in 0..24 {
            let a = fp2(&mut d);
            let via_trait = <Fp2 as FieldElement>::inverse_vartime(&a);
            assert_eq!(via_trait, a.inverse());
            assert_eq!(via_trait, Fp2::inverse_vartime(&a));
        }
        assert_eq!(<Fp2 as FieldElement>::inverse_vartime(&Fp2::zero()), None);
    }

    #[test]
    fn conjugation_is_multiplicative() {
        let mut d = HmacDrbg::new(b"fp2-conj");
        for _ in 0..48 {
            let (a, b) = (fp2(&mut d), fp2(&mut d));
            assert_eq!(a.mul(&b).conjugate(), a.conjugate().mul(&b.conjugate()));
        }
    }

    #[test]
    fn norm_is_multiplicative() {
        let mut d = HmacDrbg::new(b"fp2-norm");
        for _ in 0..48 {
            let (a, b) = (fp2(&mut d), fp2(&mut d));
            assert_eq!(a.mul(&b).norm(), a.norm().mul(&b.norm()));
        }
    }
}
