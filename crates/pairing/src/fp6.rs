//! The sextic-tower middle layer `Fp6 = Fp2[v]/(v³ − ξ)`.

use crate::fp2::Fp2;
use crate::traits::FieldElement;

/// An element `c0 + c1·v + c2·v²` of `Fp6`, where `v³ = ξ = 9 + u`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Fp6 {
    /// Coefficient of 1.
    pub c0: Fp2,
    /// Coefficient of `v`.
    pub c1: Fp2,
    /// Coefficient of `v²`.
    pub c2: Fp2,
}

impl Fp6 {
    /// Creates `c0 + c1·v + c2·v²`.
    pub const fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Self { c0, c1, c2 }
    }

    /// Embeds an `Fp2` element.
    pub fn from_fp2(v: Fp2) -> Self {
        Self::new(v, Fp2::zero(), Fp2::zero())
    }

    /// Multiplies by `v`: `(c0 + c1·v + c2·v²)·v = ξ·c2 + c0·v + c1·v²`.
    pub fn mul_by_v(&self) -> Self {
        Self::new(self.c2.mul_by_xi(), self.c0, self.c1)
    }

    /// Multiplies by an `Fp2` scalar.
    pub fn scale(&self, k: &Fp2) -> Self {
        Self::new(self.c0.mul(k), self.c1.mul(k), self.c2.mul(k))
    }

    /// Sparse product with `b0 + b1·v` (5 `Fp2` muls instead of 6); the
    /// workhorse of the Miller-loop line multiplication.
    pub fn mul_by_01(&self, b0: &Fp2, b1: &Fp2) -> Self {
        let t0 = self.c0.mul(b0);
        let t1 = self.c1.mul(b1);
        // c0 = a0b0 + ξ·a2b1, c1 = a0b1 + a1b0, c2 = a2b0 + a1b1.
        let c0 = t0.add(&self.c2.mul(b1).mul_by_xi());
        let c1 = self.c0.add(&self.c1).mul(&b0.add(b1)).sub(&t0).sub(&t1);
        let c2 = self.c2.mul(b0).add(&t1);
        Self::new(c0, c1, c2)
    }
}

impl FieldElement for Fp6 {
    fn zero() -> Self {
        Self::new(Fp2::zero(), Fp2::zero(), Fp2::zero())
    }

    fn one() -> Self {
        Self::new(Fp2::one(), Fp2::zero(), Fp2::zero())
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    #[inline(always)]
    fn add(&self, rhs: &Self) -> Self {
        Self::new(
            self.c0.add(&rhs.c0),
            self.c1.add(&rhs.c1),
            self.c2.add(&rhs.c2),
        )
    }

    #[inline(always)]
    fn sub(&self, rhs: &Self) -> Self {
        Self::new(
            self.c0.sub(&rhs.c0),
            self.c1.sub(&rhs.c1),
            self.c2.sub(&rhs.c2),
        )
    }

    #[inline(always)]
    fn neg(&self) -> Self {
        Self::new(self.c0.neg(), self.c1.neg(), self.c2.neg())
    }

    fn mul(&self, rhs: &Self) -> Self {
        // Toom–Cook/Karatsuba for the cubic extension: 6 Fp2 muls instead
        // of the 9-mul schoolbook, with v³ = ξ folded in.
        let v0 = self.c0.mul(&rhs.c0);
        let v1 = self.c1.mul(&rhs.c1);
        let v2 = self.c2.mul(&rhs.c2);
        // a1b2 + a2b1 = (a1+a2)(b1+b2) − v1 − v2, etc.
        let t12 = self
            .c1
            .add(&self.c2)
            .mul(&rhs.c1.add(&rhs.c2))
            .sub(&v1)
            .sub(&v2);
        let t01 = self
            .c0
            .add(&self.c1)
            .mul(&rhs.c0.add(&rhs.c1))
            .sub(&v0)
            .sub(&v1);
        let t02 = self
            .c0
            .add(&self.c2)
            .mul(&rhs.c0.add(&rhs.c2))
            .sub(&v0)
            .sub(&v2);
        Self::new(
            v0.add(&t12.mul_by_xi()),
            t01.add(&v2.mul_by_xi()),
            t02.add(&v1),
        )
    }

    fn square(&self) -> Self {
        // CH-SQR2 (Chung–Hasan): 2 muls + 3 squares.
        let s0 = self.c0.square();
        let s1 = self.c0.mul(&self.c1).double();
        let s2 = self.c0.sub(&self.c1).add(&self.c2).square();
        let s3 = self.c1.mul(&self.c2).double();
        let s4 = self.c2.square();
        Self::new(
            s0.add(&s3.mul_by_xi()),
            s1.add(&s4.mul_by_xi()),
            s1.add(&s2).add(&s3).sub(&s0).sub(&s4),
        )
    }

    fn inverse(&self) -> Option<Self> {
        // Standard cubic-extension inversion:
        //   d0 = c0² − ξ·c1·c2
        //   d1 = ξ·c2² − c0·c1
        //   d2 = c1² − c0·c2
        //   t  = c0·d0 + ξ·(c2·d1 + c1·d2)
        //   inv = (d0, d1, d2) / t
        let d0 = self.c0.square().sub(&self.c1.mul(&self.c2).mul_by_xi());
        let d1 = self.c2.square().mul_by_xi().sub(&self.c0.mul(&self.c1));
        let d2 = self.c1.square().sub(&self.c0.mul(&self.c2));
        let t = self
            .c0
            .mul(&d0)
            .add(&self.c2.mul(&d1).add(&self.c1.mul(&d2)).mul_by_xi());
        let t_inv = t.inverse()?;
        Some(Self::new(d0.mul(&t_inv), d1.mul(&t_inv), d2.mul(&t_inv)))
    }

    fn ct_select(a: &Self, b: &Self, choice: u64) -> Self {
        Self::new(
            Fp2::ct_select(&a.c0, &b.c0, choice),
            Fp2::ct_select(&a.c1, &b.c1, choice),
            Fp2::ct_select(&a.c2, &b.c2, choice),
        )
    }

    fn ct_is_zero(&self) -> u64 {
        self.c0.ct_is_zero() & self.c1.ct_is_zero() & self.c2.ct_is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp;
    use seccloud_bigint::U256;
    use seccloud_hash::HmacDrbg;

    fn fp2_s(d: &mut HmacDrbg) -> Fp2 {
        let mut fp = || Fp::from_u256(&U256::from_limbs(std::array::from_fn(|_| d.next_u64())));
        Fp2::new(fp(), fp())
    }

    fn fp6(d: &mut HmacDrbg) -> Fp6 {
        Fp6::new(fp2_s(d), fp2_s(d), fp2_s(d))
    }

    #[test]
    fn v_cubed_is_xi() {
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        let v3 = v.mul(&v).mul(&v);
        assert_eq!(v3, Fp6::from_fp2(Fp2::xi()));
        // And mul_by_v agrees with multiplication by v.
        let a = Fp6::new(Fp2::xi(), Fp2::one(), Fp2::from_u64(7));
        assert_eq!(a.mul_by_v(), a.mul(&v));
    }

    #[test]
    fn ring_axioms() {
        let mut d = HmacDrbg::new(b"fp6-axioms");
        for _ in 0..24 {
            let (a, b, c) = (fp6(&mut d), fp6(&mut d), fp6(&mut d));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b.mul(&c)), a.mul(&b).mul(&c));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }
    }

    #[test]
    fn inverse_law() {
        let mut d = HmacDrbg::new(b"fp6-inv");
        for _ in 0..24 {
            let a = fp6(&mut d);
            if let Some(inv) = a.inverse() {
                assert_eq!(a.mul(&inv), Fp6::one());
            } else {
                assert!(a.is_zero());
            }
        }
    }

    #[test]
    fn one_is_identity() {
        let mut d = HmacDrbg::new(b"fp6-one");
        for _ in 0..24 {
            let a = fp6(&mut d);
            assert_eq!(a.mul(&Fp6::one()), a);
            assert_eq!(a.add(&Fp6::zero()), a);
        }
    }
}
