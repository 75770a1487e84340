//! The full extension `Fp12 = Fp6[w]/(w² − v)` — the pairing target field.

use std::sync::OnceLock;

use seccloud_bigint::ApInt;

use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::traits::FieldElement;

/// An element `c0 + c1·w` of `Fp12`, where `w² = v`.
///
/// The multiplicative group of `Fp12` contains the order-`r` cyclotomic
/// subgroup `GT` in which pairing values live after final exponentiation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Fp12 {
    /// Coefficient of 1.
    pub c0: Fp6,
    /// Coefficient of `w`.
    pub c1: Fp6,
}

/// `[γ¹, …, γ⁵]` for `γ = ξ^((p^k−1)/6)`, the twist coefficients of the
/// `p^k`-power Frobenius map (derived at runtime — no transcribed table).
fn gamma_powers(k: u32) -> [Fp2; 5] {
    let p = ApInt::from_uint(&Fp::modulus());
    let pk = (1..k).fold(p.clone(), |acc, _| &acc * &p);
    let e = (&pk - &ApInt::one())
        .divrem(&ApInt::from_u64(6))
        .expect("6 is nonzero")
        .0;
    let g1 = Fp2::xi().pow_limbs(&e.to_le_limbs());
    let g2 = g1.square();
    let g3 = g2.mul(&g1);
    let g4 = g2.square();
    let g5 = g4.mul(&g1);
    [g1, g2, g3, g4, g5]
}

/// The twist coefficients of [`Fp12::frobenius_p`]: `γ = ξ^((p−1)/6) = w^(p−1)`.
fn gamma_p() -> &'static [Fp2; 5] {
    static GAMMA: OnceLock<[Fp2; 5]> = OnceLock::new();
    GAMMA.get_or_init(|| gamma_powers(1))
}

/// The twist coefficients of [`Fp12::frobenius_p2`]: `γ = ξ^((p²−1)/6)`.
fn gamma_p2() -> &'static [Fp2; 5] {
    static GAMMA: OnceLock<[Fp2; 5]> = OnceLock::new();
    GAMMA.get_or_init(|| gamma_powers(2))
}

impl Fp12 {
    /// Creates `c0 + c1·w`.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Self { c0, c1 }
    }

    /// Embeds an `Fp6` element.
    pub fn from_fp6(v: Fp6) -> Self {
        Self::new(v, Fp6::zero())
    }

    /// Conjugation over `Fp6`: `c0 − c1·w`. Equals the Frobenius power
    /// `x ↦ x^(p⁶)` because `w^(p⁶) = −w`.
    #[inline(always)]
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, self.c1.neg())
    }

    /// The Frobenius power `x ↦ x^(p²)`, computed coefficient-wise with the
    /// derived twist constant `γ = ξ^((p²−1)/6)`.
    pub fn frobenius_p2(&self) -> Self {
        let [g1, g2, g3, g4, g5] = gamma_p2();
        Self::new(
            Fp6::new(self.c0.c0, self.c0.c1.mul(g2), self.c0.c2.mul(g4)),
            Fp6::new(self.c1.c0.mul(g1), self.c1.c1.mul(g3), self.c1.c2.mul(g5)),
        )
    }

    /// The Frobenius power `x ↦ xᵖ`. In the `w`-basis `x = Σ aⱼ·wʲ`
    /// (`a₀ = c0.c0, a₁ = c1.c0, a₂ = c0.c1, a₃ = c1.c1, a₄ = c0.c2,
    /// a₅ = c1.c2`), each slot maps to `conj(aⱼ)·γʲ` with the derived
    /// `γ = w^(p−1) = ξ^((p−1)/6)`.
    pub fn frobenius_p(&self) -> Self {
        let [g1, g2, g3, g4, g5] = gamma_p();
        let a0 = self.c0.c0.conjugate();
        let a1 = self.c1.c0.conjugate().mul(g1);
        let a2 = self.c0.c1.conjugate().mul(g2);
        let a3 = self.c1.c1.conjugate().mul(g3);
        let a4 = self.c0.c2.conjugate().mul(g4);
        let a5 = self.c1.c2.conjugate().mul(g5);
        Self::new(Fp6::new(a0, a2, a4), Fp6::new(a1, a3, a5))
    }

    /// Exponentiation by an arbitrary-precision exponent.
    pub fn pow_apint(&self, exp: &ApInt) -> Self {
        self.pow_limbs(&exp.to_le_limbs())
    }

    /// Sparse multiplication by a Miller-loop line value, which in the
    /// `w`-basis populates only slots 0, 1 and 4 — hence the conventional
    /// name. In tower coordinates the line is `a + b·w + c·v·w` with
    /// `b, c ∈ Fp2` and `a ∈ Fp`, the `y_P` of the `G1` argument. Costs 10 `Fp2` multiplications plus 6 `Fp` ones, versus 18 `Fp2`
    /// multiplications for a full [`mul`].
    ///
    /// [`mul`]: FieldElement::mul
    pub fn mul_by_014(&self, a: &Fp, b: &Fp2, c: &Fp2) -> Self {
        // Karatsuba over w² = v with both halves of the line sparse:
        // t0 = f0·a (Fp scalar, 6 Fp muls), t1 = f1·(b + c·v) (5 muls),
        // cross = (f0+f1)·((a+b) + c·v) (5 muls).
        let f0 = &self.c0;
        let t0 = Fp6::new(f0.c0.scale(a), f0.c1.scale(a), f0.c2.scale(a));
        let t1 = self.c1.mul_by_01(b, c);
        let a_plus_b = Fp2::new(b.c0.add(a), b.c1);
        let cross = self.c0.add(&self.c1).mul_by_01(&a_plus_b, c);
        Self::new(t0.add(&t1.mul_by_v()), cross.sub(&t0).sub(&t1))
    }

    /// Granger–Scott squaring for elements of the **cyclotomic subgroup**
    /// (those with `x^(p⁶+1) = 1`, i.e. anything that has been through the
    /// easy part of the final exponentiation). Roughly half the cost of a
    /// generic [`FieldElement::square`]; *incorrect* for general elements.
    pub fn cyclotomic_square(&self) -> Self {
        // Decompose into three Fp4 = Fp2[w']/(w'² − ξ) pieces.
        fn fp4_square(a: &Fp2, b: &Fp2) -> (Fp2, Fp2) {
            let t0 = a.square();
            let t1 = b.square();
            let c0 = t1.mul_by_xi().add(&t0);
            let c1 = a.add(b).square().sub(&t0).sub(&t1);
            (c0, c1)
        }

        let z0 = self.c0.c0;
        let z4 = self.c0.c1;
        let z3 = self.c0.c2;
        let z2 = self.c1.c0;
        let z1 = self.c1.c1;
        let z5 = self.c1.c2;

        let (t0, t1) = fp4_square(&z0, &z1);
        let r0 = t0.sub(&z0).double().add(&t0);
        let r1 = t1.add(&z1).double().add(&t1);

        let (t0, t1) = fp4_square(&z2, &z3);
        let (t2, t3) = fp4_square(&z4, &z5);

        let r4 = t0.sub(&z4).double().add(&t0);
        let r5 = t1.add(&z5).double().add(&t1);

        let xi_t3 = t3.mul_by_xi();
        let r2 = xi_t3.add(&z2).double().add(&xi_t3);
        let r3 = t2.sub(&z3).double().add(&t2);

        Self::new(Fp6::new(r0, r4, r3), Fp6::new(r2, r1, r5))
    }

    /// Exponentiation using cyclotomic squarings — only valid for inputs in
    /// the cyclotomic subgroup. Plain binary square-and-multiply; the
    /// final exponentiation's signed-window powers by `x` are tested
    /// against it.
    pub fn cyclotomic_pow(&self, exp: &ApInt) -> Self {
        let bits = exp.bits();
        if bits == 0 {
            return Self::one();
        }
        let mut acc = *self;
        for i in (0..bits - 1).rev() {
            acc = acc.cyclotomic_square();
            if exp.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Multiplies every coefficient by an `Fp` scalar (used when clearing
    /// line denominators). Kept private to the pairing module.
    #[doc(hidden)]
    pub fn scale_fp(&self, k: &Fp) -> Self {
        let k2 = Fp2::from_fp(*k);
        Self::new(self.c0.scale(&k2), self.c1.scale(&k2))
    }
}

impl FieldElement for Fp12 {
    fn zero() -> Self {
        Self::new(Fp6::zero(), Fp6::zero())
    }

    fn one() -> Self {
        Self::new(Fp6::one(), Fp6::zero())
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    #[inline(always)]
    fn add(&self, rhs: &Self) -> Self {
        Self::new(self.c0.add(&rhs.c0), self.c1.add(&rhs.c1))
    }

    #[inline(always)]
    fn sub(&self, rhs: &Self) -> Self {
        Self::new(self.c0.sub(&rhs.c0), self.c1.sub(&rhs.c1))
    }

    #[inline(always)]
    fn neg(&self) -> Self {
        Self::new(self.c0.neg(), self.c1.neg())
    }

    fn mul(&self, rhs: &Self) -> Self {
        // Karatsuba over w² = v:
        let aa = self.c0.mul(&rhs.c0);
        let bb = self.c1.mul(&rhs.c1);
        let sum = self.c0.add(&self.c1).mul(&rhs.c0.add(&rhs.c1));
        Self::new(aa.add(&bb.mul_by_v()), sum.sub(&aa).sub(&bb))
    }

    fn square(&self) -> Self {
        // Complex squaring: (a + bw)² = a² + b²v + 2ab·w with
        // a² + b²v = (a + b)(a + vb) − ab − v·ab — two Fp6 muls total
        // instead of two squares plus a mul.
        let v0 = self.c0.mul(&self.c1);
        let t = self.c0.add(&self.c1.mul_by_v());
        let c0 = self.c0.add(&self.c1).mul(&t).sub(&v0).sub(&v0.mul_by_v());
        Self::new(c0, v0.double())
    }

    fn inverse(&self) -> Option<Self> {
        // 1/(a + bw) = (a − bw)/(a² − b²v)
        let denom = self.c0.square().sub(&self.c1.square().mul_by_v());
        let denom_inv = denom.inverse()?;
        Some(Self::new(
            self.c0.mul(&denom_inv),
            self.c1.mul(&denom_inv).neg(),
        ))
    }

    fn ct_select(a: &Self, b: &Self, choice: u64) -> Self {
        Self::new(
            Fp6::ct_select(&a.c0, &b.c0, choice),
            Fp6::ct_select(&a.c1, &b.c1, choice),
        )
    }

    fn ct_is_zero(&self) -> u64 {
        self.c0.ct_is_zero() & self.c1.ct_is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_bigint::U256;
    use seccloud_hash::HmacDrbg;

    fn fp2_s(d: &mut HmacDrbg) -> Fp2 {
        let mut fp = || Fp::from_u256(&U256::from_limbs(std::array::from_fn(|_| d.next_u64())));
        Fp2::new(fp(), fp())
    }

    fn fp12(d: &mut HmacDrbg) -> Fp12 {
        Fp12::new(
            Fp6::new(fp2_s(d), fp2_s(d), fp2_s(d)),
            Fp6::new(fp2_s(d), fp2_s(d), fp2_s(d)),
        )
    }

    #[test]
    fn w_squared_is_v() {
        let w = Fp12::new(Fp6::zero(), Fp6::one());
        let v = Fp12::from_fp6(Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero()));
        assert_eq!(w.square(), v);
        // w¹² = v⁶ = ξ² — still in the tower, and w generates the extension.
        let w12 = w.pow_limbs(&[12]);
        let xi2 = Fp12::from_fp6(Fp6::from_fp2(Fp2::xi().square()));
        assert_eq!(w12, xi2);
    }

    #[test]
    fn cyclotomic_square_matches_generic_square_in_subgroup() {
        // Build cyclotomic elements by applying the easy part x^((p⁶−1)(p²+1))
        // to random field elements, then compare squarings.
        let p = ApInt::from_uint(&Fp::modulus());
        let p2 = &p * &p;
        for i in 0..4u32 {
            let raw = sample(100 + i);
            let easy = raw.conjugate().mul(&raw.inverse().expect("nonzero"));
            let cyc = easy.frobenius_p2().mul(&easy);
            // Sanity: cyc^(p⁶+1) = 1 ⇔ conj(cyc) = cyc⁻¹.
            assert_eq!(cyc.conjugate(), cyc.inverse().unwrap(), "in subgroup");
            assert_eq!(
                cyc.cyclotomic_square(),
                cyc.square(),
                "sample {i}: GS square must agree"
            );
            // And powers agree too.
            let e = &p2 + &ApInt::from_u64(12345);
            assert_eq!(cyc.cyclotomic_pow(&e), cyc.pow_apint(&e));
        }
    }

    #[test]
    fn cyclotomic_pow_edge_exponents() {
        let raw = sample(7);
        let easy = raw.conjugate().mul(&raw.inverse().unwrap());
        let cyc = easy.frobenius_p2().mul(&easy);
        assert_eq!(cyc.cyclotomic_pow(&ApInt::zero()), Fp12::one());
        assert_eq!(cyc.cyclotomic_pow(&ApInt::one()), cyc);
        assert_eq!(cyc.cyclotomic_pow(&ApInt::from_u64(2)), cyc.square());
    }

    #[test]
    fn frobenius_p_matches_pow() {
        // x^p computed via pow must equal the coefficient-wise Frobenius,
        // and applying it twice must equal frobenius_p2.
        let p = ApInt::from_uint(&Fp::modulus());
        for i in 0..3u32 {
            let x = sample(40 + i);
            assert_eq!(x.pow_apint(&p), x.frobenius_p(), "sample {i}");
            assert_eq!(x.frobenius_p().frobenius_p(), x.frobenius_p2());
        }
    }

    #[test]
    fn mul_by_014_matches_full_mul() {
        let mut d = HmacDrbg::new(b"fp12-014");
        for _ in 0..12 {
            let f = fp12(&mut d);
            let a = fp2_s(&mut d).c0;
            let (b, c) = (fp2_s(&mut d), fp2_s(&mut d));
            let line = Fp12::new(Fp6::from_fp2(Fp2::from_fp(a)), Fp6::new(b, c, Fp2::zero()));
            assert_eq!(f.mul_by_014(&a, &b, &c), f.mul(&line));
        }
    }

    #[test]
    fn frobenius_p2_matches_pow() {
        // x^(p²) computed via pow must equal the coefficient-wise Frobenius.
        let p = ApInt::from_uint(&Fp::modulus());
        let p2 = &p * &p;
        for i in 0..3u32 {
            let x = sample(i);
            assert_eq!(x.pow_apint(&p2), x.frobenius_p2(), "sample {i}");
        }
    }

    #[test]
    fn conjugate_matches_pow_p6() {
        let p = ApInt::from_uint(&Fp::modulus());
        let p2 = &p * &p;
        let p6 = &(&p2 * &p2) * &p2;
        let x = sample(7);
        assert_eq!(x.pow_apint(&p6), x.conjugate());
    }

    fn sample(i: u32) -> Fp12 {
        let f = |tag: &str| Fp2::from_hash(tag.as_bytes(), &i.to_be_bytes());
        Fp12::new(
            Fp6::new(f("a"), f("b"), f("c")),
            Fp6::new(f("d"), f("e"), f("f")),
        )
    }

    #[test]
    fn ring_axioms() {
        let mut d = HmacDrbg::new(b"fp12-axioms");
        for _ in 0..12 {
            let (a, b, c) = (fp12(&mut d), fp12(&mut d), fp12(&mut d));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b.mul(&c)), a.mul(&b).mul(&c));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }
    }

    #[test]
    fn square_and_inverse() {
        let mut d = HmacDrbg::new(b"fp12-sq-inv");
        for _ in 0..12 {
            let a = fp12(&mut d);
            assert_eq!(a.square(), a.mul(&a));
            if let Some(inv) = a.inverse() {
                assert_eq!(a.mul(&inv), Fp12::one());
            } else {
                assert!(a.is_zero());
            }
        }
    }

    #[test]
    fn conjugation_is_multiplicative() {
        let mut d = HmacDrbg::new(b"fp12-conj");
        for _ in 0..12 {
            let (a, b) = (fp12(&mut d), fp12(&mut d));
            assert_eq!(a.mul(&b).conjugate(), a.conjugate().mul(&b.conjugate()));
        }
    }
}
