//! The target group `GT`, the final exponentiation, the workspace's
//! [`pairing`]/[`multi_pairing`] entry points (the optimal ate pairing of
//! `prepared.rs`), and the Tate pairing `ê : G1 × G2 → GT` kept as
//! an independent reference.
//!
//! The Tate implementation favours transparency over peak speed: a
//! textbook Miller loop over the (affine) first argument with line
//! evaluations in `Fp12`, followed by the shared Frobenius-assisted final
//! exponentiation. Verticals are dropped — valid because the untwisted `Q`
//! has its `x`-coordinate in `Fp6`, which the final exponentiation
//! annihilates.

use std::sync::OnceLock;

use seccloud_bigint::U256;

use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::fr::Fr;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::params;
use crate::prepared::{multi_miller_loop, pairing_prepared, G2Prepared};
use crate::traits::FieldElement;

/// An element of the pairing target group `GT ⊂ Fp12*` (the `μ_r` subgroup
/// of `r`-th roots of unity).
///
/// `GT` values compare canonically: two `Gt`s are equal iff the pairings
/// they came from are equal, because final exponentiation maps each coset to
/// a unique representative.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{pairing, Fr, G1, G2};
/// let p = G1::generator().to_affine();
/// let q = G2::generator().to_affine();
/// let e = pairing(&p, &q);
/// // Bilinearity: e([2]P, Q) = e(P, Q)².
/// let p2 = G1::generator().double().to_affine();
/// assert_eq!(pairing(&p2, &q), e.mul(&e));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gt(Fp12);

impl Gt {
    /// The identity of `GT`.
    pub fn one() -> Self {
        Gt(Fp12::one())
    }

    /// Whether this is the identity.
    pub fn is_one(&self) -> bool {
        self.0 == Fp12::one()
    }

    /// Group operation (multiplication in `Fp12`).
    #[must_use]
    pub fn mul(&self, rhs: &Self) -> Self {
        Gt(self.0.mul(&rhs.0))
    }

    /// Group inverse — for unitary `GT` elements this is conjugation, which
    /// is far cheaper than a field inversion.
    #[must_use]
    pub fn invert(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Exponentiation by an `Fr` scalar.
    #[must_use]
    pub fn pow(&self, k: &Fr) -> Self {
        Gt(self.0.pow_limbs(k.to_u256().limbs()))
    }

    /// Constant-time equality: compares all 12 `Fp` components through a
    /// masked zero-fold with no early exit. Designated verification
    /// compares a pairing computed *from the verifier's secret key*
    /// against an adversary-supplied `Σ` — a short-circuiting `==` there
    /// is a byte-position timing oracle on the expected tag, exactly the
    /// MAC-verification leak `seccloud_hash::ct_eq` exists for.
    #[must_use]
    pub fn ct_eq(&self, rhs: &Self) -> bool {
        use crate::traits::FieldElement;
        self.0.sub(&rhs.0).ct_is_zero() == 1
    }

    /// The underlying `Fp12` representative.
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }

    /// Wraps a final-exponentiated value (crate-internal constructor for
    /// the ate Miller loop in `prepared.rs`).
    pub(crate) fn from_unchecked_fp12(v: Fp12) -> Self {
        Gt(v)
    }

    /// Whether this value lies in `μ_r`, the order-`r` subgroup pairing
    /// values live in. Exact, at the cost of one power by `3x + 1` plus a
    /// few Frobenius maps (about a sixth of a prepared pairing):
    ///
    /// - a nonzero `f` with `f^(p⁴)·f = f^(p²)` has order dividing
    ///   `Φ₁₂(p) = p⁴ − p² + 1` (it is cyclotomic);
    /// - `f^(6x+2)·f^p·f^(p³) = f^(p²)` — the optimal-ate relation — further
    ///   makes its order divide `6x + 2 + p − p² + p³`;
    /// - `gcd(6x + 2 + p − p² + p³, p⁴ − p² + 1) = r` for BN254's `x`
    ///   (recomputed in `optimal_ate_relation_pins_the_order_to_r`), so the
    ///   two relations together hold exactly on `μ_r`.
    ///
    /// A value from the wire raised to a verifier-drawn weight must be
    /// known to lie in `μ_r`: an element of small order outside it (say
    /// `−1`) can vanish under an even weight and let a forged term through
    /// a randomized batch. A batch need not test each value: it checks each
    /// with [`Self::is_cyclotomic`] and tests one random combination of
    /// them (`seccloud_ibs::BatchVerifier`). Comparing against a freshly
    /// computed pairing needs no test. Variable-time: the input is public.
    pub fn is_in_subgroup(&self) -> bool {
        crate::counters::gt_subgroup_test();
        let Some(f_p2) = self.cyclotomic_frobenius_p2() else {
            return false;
        };
        // Cyclotomic from here on: squarings may take the Granger–Scott
        // shortcut and the power by 3x + 1 its signed window.
        let f = &self.0;
        let f_6x2 = cyclotomic_pow_wnaf(f, bn_3x1_digits()).cyclotomic_square();
        f_6x2.mul(&f.frobenius_p()).mul(&f_p2.frobenius_p()) == f_p2
    }

    /// Whether this value is nonzero and cyclotomic (`f^(p⁴)·f = f^(p²)`,
    /// so its order divides `p⁴ − p² + 1`): the first half of
    /// [`Self::is_in_subgroup`], at the price of two Frobenius maps and one
    /// product. It is what [`crate::weighted_product_gt_and_low_halves`]'s cyclotomic
    /// arithmetic needs to compute the true product; it does not make a
    /// randomized batch sound on its own (an element of order dividing the
    /// cofactor `h_T = (p⁴ − p² + 1)/r` passes it), so a batch also tests
    /// one random combination of the values it checked with
    /// [`Self::is_in_subgroup`].
    pub fn is_cyclotomic(&self) -> bool {
        crate::counters::gt_cyclotomic_check();
        self.cyclotomic_frobenius_p2().is_some()
    }

    /// `f^(p²)` when `f` is nonzero and cyclotomic, else `None`.
    fn cyclotomic_frobenius_p2(&self) -> Option<Fp12> {
        let f = &self.0;
        let f_p2 = f.frobenius_p2();
        (!f.is_zero() && f_p2.frobenius_p2().mul(f) == f_p2).then_some(f_p2)
    }

    /// Deserializes a `GT` element from the 384-byte encoding of
    /// [`Gt::to_bytes`], checking that every coefficient is canonical.
    ///
    /// Subgroup membership is *not* checked here: most decoded values are
    /// only compared against freshly computed pairings, which needs no
    /// test, and a storage read would pay one per block. Whoever raises a
    /// decoded value to a secret or random exponent — batch verification's
    /// weighted fold — must know it lies in `μ_r`: by
    /// [`Gt::is_in_subgroup`] on the value itself, or, for a batch, by
    /// [`Gt::is_cyclotomic`] on each value plus one subgroup test of a
    /// second random combination (`seccloud_ibs::BatchVerifier::verify`).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 384 {
            return None;
        }
        let mut coeffs = [Fp::zero(); 12];
        for (i, chunk) in bytes.chunks_exact(32).enumerate() {
            coeffs[i] = Fp::from_be_bytes(chunk.try_into().expect("32 bytes"))?;
        }
        let fp6 = |c: &[Fp]| {
            Fp6::new(
                Fp2::new(c[0], c[1]),
                Fp2::new(c[2], c[3]),
                Fp2::new(c[4], c[5]),
            )
        };
        Some(Gt(Fp12::new(fp6(&coeffs[..6]), fp6(&coeffs[6..]))))
    }

    /// Serializes the canonical representative (384 bytes: the twelve `Fp`
    /// coefficients, big-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(384);
        for c6 in [&self.0.c0, &self.0.c1] {
            for c2 in [&c6.c0, &c6.c1, &c6.c2] {
                out.extend_from_slice(&c2.c0.to_be_bytes());
                out.extend_from_slice(&c2.c1.to_be_bytes());
            }
        }
        out
    }
}

/// Lifts a twist point `(x', y') ∈ E'(Fp2)` to `E(Fp12)` through the
/// untwisting isomorphism `ψ(x', y') = (x'·v, y'·v·w)`.
///
/// Returns `(x_Q, y_Q)` as full `Fp12` elements; note `x_Q ∈ Fp6`, the fact
/// that licenses denominator elimination.
fn untwist(q: &G2Affine) -> (Fp12, Fp12) {
    let x = Fp12::new(Fp6::new(Fp2::zero(), q.x(), Fp2::zero()), Fp6::zero());
    let y = Fp12::new(Fp6::zero(), Fp6::new(Fp2::zero(), q.y(), Fp2::zero()));
    (x, y)
}

/// Evaluates the line through `a` and `b` (tangent when `a == b`) at the
/// untwisted point `(x_q, y_q)`, omitting vertical factors.
///
/// For a non-vertical line with slope `λ` through `(x₁, y₁)`:
/// `l(Q) = y_Q − y₁ − λ(x_Q − x₁)`.
/// For a vertical line (`a = −b`), returns `x_Q − x₁`, an `Fp6` element the
/// final exponentiation kills; included for robustness at the loop tail.
struct MillerState {
    /// Current accumulator point `T` in affine `Fp` coordinates (`None` = ∞).
    t: Option<(Fp, Fp)>,
}

impl MillerState {
    /// Tangent line at `T` evaluated at `Q`; advances `T ← 2T`.
    fn double_step(&mut self, x_q: &Fp12, y_q: &Fp12) -> Fp12 {
        let Some((x, y)) = self.t else {
            return Fp12::one();
        };
        if y.is_zero() {
            // 2T = ∞; vertical tangent.
            self.t = None;
            return x_q.sub(&Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(x))));
        }
        // λ = 3x² / 2y
        let lambda = x
            .square()
            .mul(&Fp::from_u64(3))
            .mul(&y.double().inverse().expect("y ≠ 0"));
        let c = y.sub(&lambda.mul(&x)); // line: Y − λX − c
        let line = y_q
            .sub(&x_q.scale_fp(&lambda))
            .sub(&Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(c))));
        // T ← 2T in affine coordinates.
        let x3 = lambda.square().sub(&x.double());
        let y3 = lambda.mul(&x.sub(&x3)).sub(&y);
        self.t = Some((x3, y3));
        line
    }

    /// Chord line through `T` and `p` evaluated at `Q`; advances `T ← T + p`.
    fn add_step(&mut self, p: (Fp, Fp), x_q: &Fp12, y_q: &Fp12) -> Fp12 {
        let Some((x1, y1)) = self.t else {
            self.t = Some(p);
            return Fp12::one();
        };
        let (x2, y2) = p;
        if x1 == x2 {
            if y1 == y2 {
                return self.double_step(x_q, y_q);
            }
            // T + p = ∞; vertical chord.
            self.t = None;
            return x_q.sub(&Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(x1))));
        }
        let lambda = y2.sub(&y1).mul(&x2.sub(&x1).inverse().expect("x₂ ≠ x₁"));
        let c = y1.sub(&lambda.mul(&x1));
        let line = y_q
            .sub(&x_q.scale_fp(&lambda))
            .sub(&Fp12::from_fp6(Fp6::from_fp2(Fp2::from_fp(c))));
        let x3 = lambda.square().sub(&x1).sub(&x2);
        let y3 = lambda.mul(&x1.sub(&x3)).sub(&y1);
        self.t = Some((x3, y3));
        line
    }
}

/// The Miller function `f_{r,P}(ψ(Q))` (no final exponentiation).
fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fp12 {
    crate::counters::miller_loop(1);
    let (x_q, y_q) = untwist(q);
    let p_aff = (p.x(), p.y());
    let r: U256 = Fr::modulus();
    let bits = r.bits();

    let mut f = Fp12::one();
    let mut state = MillerState { t: Some(p_aff) };
    for i in (0..bits - 1).rev() {
        f = f.square();
        let l = state.double_step(&x_q, &y_q);
        f = f.mul(&l);
        if r.bit(i) {
            let l = state.add_step(p_aff, &x_q, &y_q);
            f = f.mul(&l);
        }
    }
    f
}

/// The width-4 signed-window (wNAF) digits of [`params::BN_X`], least
/// significant first, recoded once at first use. `x` has 63 digits of
/// which 14 are nonzero, each in `{±1, ±3, ±5, ±7}`.
fn bn_x_digits() -> &'static [i64] {
    static DIGITS: OnceLock<Vec<i64>> = OnceLock::new();
    DIGITS.get_or_init(|| crate::ec::wnaf_digits(&[params::BN_X]))
}

/// The width-4 wNAF digits of `3x + 1` (it fits 64 bits), least
/// significant first: 65 digits of which 12 are nonzero. Squaring
/// `f^(3x+1)` gives the subgroup test its `f^(6x+2)` for 66 cyclotomic
/// squarings and 14 multiplications, where `f^x` followed by
/// `((f^x)²·f^x·f)²` costs 66 and 18.
fn bn_3x1_digits() -> &'static [i64] {
    static DIGITS: OnceLock<Vec<i64>> = OnceLock::new();
    DIGITS.get_or_init(|| crate::ec::wnaf_digits(&[3 * params::BN_X + 1]))
}

/// `f ↦ f^x` for `f` in the cyclotomic subgroup, by a signed window over
/// the public wNAF digits of `x`: a table `{f, f³, f⁵, f⁷}` (one
/// cyclotomic squaring, three multiplications), then one cyclotomic
/// squaring per digit below the top and one multiplication per nonzero
/// digit below the top — conjugation is the free inverse of a unitary
/// element, so negative digits cost nothing extra. For BN254's `x` that is
/// exactly 63 cyclotomic squarings and 16 `Fp12` multiplications, against
/// 62 and 27 for binary square-and-multiply. The digit sequence is fixed,
/// so the operation sequence does not depend on `f`, which in designated
/// verification derives from the verifier's secret key.
fn cyclotomic_exp_by_x(f: &Fp12) -> Fp12 {
    cyclotomic_pow_wnaf(f, bn_x_digits())
}

/// `f^e` for `f` in the cyclotomic subgroup and the width-4 wNAF digits
/// of a fixed public `e > 0` (see [`cyclotomic_exp_by_x`]).
fn cyclotomic_pow_wnaf(f: &Fp12, digits: &[i64]) -> Fp12 {
    let f2 = f.cyclotomic_square();
    let mut table = [*f; 4];
    for i in 1..4 {
        table[i] = table[i - 1].mul(&f2);
    }
    let entry = |d: i64| {
        let t = table[(d.unsigned_abs() as usize) / 2];
        if d < 0 {
            t.conjugate()
        } else {
            t
        }
    };
    let (top, rest) = digits.split_last().expect("e ≠ 0");
    let mut acc = entry(*top);
    for &d in rest.iter().rev() {
        acc = acc.cyclotomic_square();
        if d != 0 {
            acc = acc.mul(&entry(d));
        }
    }
    acc
}

/// The hard part `f ↦ f^((p⁴−p²+1)/r)` for `f` in the cyclotomic subgroup,
/// via the Devegili–Scott–Dominguez Frobenius addition chain: three
/// `x`-power chains (64-bit exponents) plus a handful of Frobenius maps and
/// conjugations replace one dense 762-bit exponentiation. Conjugation is a
/// free inversion here because cyclotomic elements are unitary.
///
/// Equality with the plain exponentiation by the derived exponent is
/// asserted in `hard_part_chain_matches_derived_exponent`.
fn final_exp_hard_part_chain(f: &Fp12) -> Fp12 {
    let fx = cyclotomic_exp_by_x(f);
    let fx2 = cyclotomic_exp_by_x(&fx);
    let fx3 = cyclotomic_exp_by_x(&fx2);
    let fp = f.frobenius_p();
    let fp2 = f.frobenius_p2();
    let fp3 = fp2.frobenius_p();

    let y0 = fp.mul(&fp2).mul(&fp3);
    let y1 = f.conjugate();
    let y2 = fx2.frobenius_p2();
    let y3 = fx.frobenius_p().conjugate();
    let y4 = fx.mul(&fx2.frobenius_p()).conjugate();
    let y5 = fx2.conjugate();
    let y6 = fx3.mul(&fx3.frobenius_p()).conjugate();

    let mut t0 = y6.cyclotomic_square().mul(&y4).mul(&y5);
    let mut t1 = y3.mul(&y5).mul(&t0);
    t0 = t0.mul(&y2);
    t1 = t1.cyclotomic_square().mul(&t0).cyclotomic_square();
    let t2 = t1.mul(&y1);
    t1 = t1.mul(&y0);
    t2.cyclotomic_square().mul(&t1)
}

/// The final exponentiation `f ↦ f^((p¹²−1)/r)`.
///
/// Easy part via Frobenius (`(p⁶−1)(p²+1)`), hard part by the
/// Frobenius-assisted addition chain of `final_exp_hard_part_chain`.
pub fn final_exponentiation(f: &Fp12) -> Fp12 {
    crate::counters::final_exponentiation();
    // f^(p⁶ − 1) = conj(f) · f⁻¹
    let f = f
        .conjugate()
        .mul(&f.inverse().expect("Miller value is nonzero"));
    // f^(p² + 1) = frob²(f) · f
    let f = f.frobenius_p2().mul(&f);
    // Hard part: f is now in the cyclotomic subgroup, so Granger–Scott
    // squarings and unitary inversion apply.
    final_exp_hard_part_chain(&f)
}

/// Computes the workspace's reduced pairing `ê(P, Q)`: the optimal ate
/// pairing, as a fresh [`G2Prepared`] of `Q` replayed by
/// [`multi_miller_loop`]. Callers that pair against one `Q` many times
/// keep the preparation ([`crate::PreparedCache`]) instead.
///
/// Returns the identity when either input is the point at infinity, matching
/// the bilinear extension `ê(O, ·) = ê(·, O) = 1`.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{pairing, Fr, G1, G2};
/// let e = pairing(
///     &G1::generator().to_affine(),
///     &G2::generator().to_affine(),
/// );
/// assert!(!e.is_one(), "pairing of generators is non-degenerate");
/// ```
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    if p.is_identity() || q.is_identity() {
        return Gt::one();
    }
    pairing_prepared(p, &G2Prepared::from(q))
}

/// Computes `∏ᵢ ê(Pᵢ, Qᵢ)` with the optimal ate pairing: one preparation
/// per pair without an identity, then one fused Miller loop and one final
/// exponentiation over them all.
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    let live: Vec<(&G1Affine, G2Prepared)> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|(p, q)| (p, G2Prepared::from(q)))
        .collect();
    let refs: Vec<(&G1Affine, &G2Prepared)> = live.iter().map(|(p, q)| (*p, q)).collect();
    multi_miller_loop(&refs)
}

/// Computes the reduced **Tate** pairing `ê(P, Q)` — the slower, textbook
/// backend kept as an independent implementation for cross-checking the
/// ate pairing (EXPERIMENTS.md, "Retired microbenchmarks", records
/// its cost against ate).
pub fn pairing_tate(p: &G1Affine, q: &G2Affine) -> Gt {
    if p.is_identity() || q.is_identity() {
        return Gt::one();
    }
    Gt(final_exponentiation(&miller_loop(p, q)))
}

/// Computes `∏ᵢ ê(Pᵢ, Qᵢ)` with the Tate backend.
pub fn multi_pairing_tate(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    let mut acc = Fp12::one();
    let mut any = false;
    for (p, q) in pairs {
        if p.is_identity() || q.is_identity() {
            continue;
        }
        acc = acc.mul(&miller_loop(p, q));
        any = true;
    }
    if !any {
        return Gt::one();
    }
    Gt(final_exponentiation(&acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::{hash_to_g1, G1};
    use crate::g2::{hash_to_g2, G2};

    #[test]
    fn gt_ct_eq_agrees_with_eq() {
        let a = pairing(
            &hash_to_g1(b"ct-eq-p").to_affine(),
            &hash_to_g2(b"ct-eq-q").to_affine(),
        );
        let b = pairing(
            &hash_to_g1(b"ct-eq-p2").to_affine(),
            &hash_to_g2(b"ct-eq-q2").to_affine(),
        );
        assert!(a.ct_eq(&a));
        assert!(!a.ct_eq(&b));
        assert!(Gt::one().ct_eq(&Gt::one()));
        assert_eq!(a.ct_eq(&b), a == b);
    }

    #[test]
    fn hard_part_chain_matches_derived_exponent() {
        // The addition chain must equal plain exponentiation by the derived
        // (p⁴−p²+1)/r on cyclotomic inputs (easy-part outputs).
        for i in 0..3u32 {
            let raw = Fp12::new(
                Fp6::new(
                    Fp2::from_hash(b"hp-a", &i.to_be_bytes()),
                    Fp2::from_hash(b"hp-b", &i.to_be_bytes()),
                    Fp2::from_hash(b"hp-c", &i.to_be_bytes()),
                ),
                Fp6::new(
                    Fp2::from_hash(b"hp-d", &i.to_be_bytes()),
                    Fp2::from_hash(b"hp-e", &i.to_be_bytes()),
                    Fp2::from_hash(b"hp-f", &i.to_be_bytes()),
                ),
            );
            let easy = raw.conjugate().mul(&raw.inverse().expect("nonzero"));
            let cyc = easy.frobenius_p2().mul(&easy);
            assert_eq!(
                final_exp_hard_part_chain(&cyc),
                cyc.cyclotomic_pow(params::final_exp_hard_part()),
                "sample {i}"
            );
        }
    }

    #[test]
    fn signed_window_exp_by_x_matches_binary_power() {
        // Same value as the binary cyclotomic power on easy-part outputs,
        // and the recoding gives the operation count the docs state.
        let x = seccloud_bigint::ApInt::from_u64(params::BN_X);
        for i in 0..3u32 {
            let raw = Fp12::new(
                Fp6::new(
                    Fp2::from_hash(b"xw-a", &i.to_be_bytes()),
                    Fp2::from_hash(b"xw-b", &i.to_be_bytes()),
                    Fp2::from_hash(b"xw-c", &i.to_be_bytes()),
                ),
                Fp6::from_fp2(Fp2::from_hash(b"xw-d", &i.to_be_bytes())),
            );
            let easy = raw.conjugate().mul(&raw.inverse().expect("nonzero"));
            let cyc = easy.frobenius_p2().mul(&easy);
            assert_eq!(
                cyclotomic_exp_by_x(&cyc),
                cyc.cyclotomic_pow(&x),
                "sample {i}"
            );
        }
        let digits = bn_x_digits();
        let nonzero = digits.iter().filter(|&&d| d != 0).count();
        // Table: 1 squaring + 3 multiplications; walk: one squaring per
        // lower digit and one multiplication per lower nonzero digit.
        assert_eq!((digits.len(), nonzero), (63, 14));
        assert_eq!((1 + digits.len() - 1, 3 + nonzero - 1), (63, 16));
        let value = digits
            .iter()
            .rev()
            .fold(0i128, |acc, &d| 2 * acc + i128::from(d));
        assert_eq!(value, i128::from(params::BN_X));
    }

    #[test]
    fn subgroup_test_power_is_six_x_plus_two() {
        // The test's window over 3x + 1, squared once, is the binary
        // power by 6x + 2, at the operation count its docs state.
        use seccloud_bigint::ApInt;
        let e = &(&ApInt::from_u64(params::BN_X) * &ApInt::from_u64(6)) + &ApInt::from_u64(2);
        for tag in [b"6x2-a".as_slice(), b"6x2-b"] {
            let cyc = cyclotomic_sample(tag);
            assert_eq!(
                cyclotomic_pow_wnaf(&cyc, bn_3x1_digits()).cyclotomic_square(),
                cyc.cyclotomic_pow(&e)
            );
        }
        let digits = bn_3x1_digits();
        let nonzero = digits.iter().filter(|&&d| d != 0).count();
        assert_eq!((digits.len(), nonzero), (65, 12));
        // Table 1 + walk 64 + final 1 squarings; table 3 + walk 11 products.
        assert_eq!((1 + digits.len() - 1 + 1, 3 + nonzero - 1), (66, 14));
        let value = digits
            .iter()
            .rev()
            .fold(0i128, |acc, &d| 2 * acc + i128::from(d));
        assert_eq!(value, 3 * i128::from(params::BN_X) + 1);
    }

    /// An easy-part image `f^((p⁶−1)(p²+1))` of a hashed `Fp12`: cyclotomic,
    /// and (with overwhelming probability) not in `μ_r`.
    fn cyclotomic_sample(tag: &[u8]) -> Fp12 {
        let raw = Fp12::new(
            Fp6::new(
                Fp2::from_hash(b"sg-a", tag),
                Fp2::from_hash(b"sg-b", tag),
                Fp2::from_hash(b"sg-c", tag),
            ),
            Fp6::from_fp2(Fp2::from_hash(b"sg-d", tag)),
        );
        let easy = raw.conjugate().mul(&raw.inverse().expect("nonzero"));
        easy.frobenius_p2().mul(&easy)
    }

    #[test]
    fn subgroup_test_agrees_with_the_r_power_oracle() {
        let r = params::r_apint();
        let oracle = |g: &Gt| !g.0.is_zero() && g.0.pow_apint(r) == Fp12::one();
        let sigma = pairing(
            &hash_to_g1(b"sg-p").to_affine(),
            &hash_to_g2(b"sg-q").to_affine(),
        );
        let cyc = cyclotomic_sample(b"0");
        let h_t = params::final_exp_hard_part();
        // e^r has order dividing the cofactor h_T = (p⁴ − p² + 1)/r.
        let small_order = Gt(cyc.pow_apint(r));
        let cases = [
            ("pairing value", sigma, true),
            ("pairing value squared", sigma.mul(&sigma), true),
            ("one", Gt::one(), true),
            ("zero", Gt(Fp12::zero()), false),
            ("minus one", Gt(Fp12::one().neg()), false),
            ("minus sigma", Gt(sigma.0.neg()), false),
            (
                "not cyclotomic",
                Gt(Fp12::from_fp6(Fp6::from_fp2(Fp2::xi()))),
                false,
            ),
            ("cyclotomic, outside mu_r", Gt(cyc), false),
            ("order dividing h_T", small_order, false),
            ("sigma times that", sigma.mul(&small_order), false),
            ("hard-part image", Gt(cyc.pow_apint(h_t)), true),
        ];
        for (name, g, expected) in cases {
            assert_eq!(oracle(&g), expected, "{name}: oracle");
            assert_eq!(g.is_in_subgroup(), expected, "{name}: fast test");
        }
        assert!(!small_order.is_one(), "test premise: a nontrivial element");
    }

    #[test]
    fn optimal_ate_relation_pins_the_order_to_r() {
        use seccloud_bigint::ApInt;
        let p = params::p_apint();
        let x = ApInt::from_u64(params::BN_X);
        let p2 = p * p;
        let p3 = &p2 * p;
        let phi12 = &(&(&p2 * &p2) - &p2) + &ApInt::one();
        let six_x_2 = &(&x * &ApInt::from_u64(6)) + &ApInt::from_u64(2);
        let relation = &(&(&six_x_2 + p) + &p3) - &p2;
        assert_eq!(&relation.gcd(&phi12), params::r_apint());
    }

    #[test]
    fn subgroup_tests_are_counted() {
        let before = crate::counters::snapshot();
        assert!(Gt::one().is_in_subgroup());
        assert!(!Gt(Fp12::zero()).is_in_subgroup());
        let spent = crate::counters::snapshot().since(&before);
        assert_eq!(spent.gt_subgroup_tests, 2);
        assert_eq!(spent.final_exponentiations, 0);
        // The cyclotomic half of a subgroup test is not a standalone check.
        assert_eq!(spent.gt_cyclotomic_checks, 0);
        let before = crate::counters::snapshot();
        assert!(Gt::one().is_cyclotomic());
        assert!(!Gt(Fp12::zero()).is_cyclotomic());
        let spent = crate::counters::snapshot().since(&before);
        assert_eq!(
            (spent.gt_cyclotomic_checks, spent.gt_subgroup_tests),
            (2, 0)
        );
    }

    /// `(preparations, Miller loops, lanes, final exponentiations)` spent
    /// by `f` on this thread.
    fn pairing_cost(f: impl FnOnce() -> Gt) -> (u64, u64, u64, u64) {
        let before = crate::counters::snapshot();
        f();
        let c = crate::counters::snapshot().since(&before);
        (
            c.g2_preparations,
            c.miller_loops,
            c.miller_lanes,
            c.final_exponentiations,
        )
    }

    #[test]
    fn a_cold_pairing_prepares_once_and_replays_once() {
        let p = hash_to_g1(b"cost-p").to_affine();
        let q = hash_to_g2(b"cost-q").to_affine();
        assert_eq!(pairing_cost(|| pairing(&p, &q)), (1, 1, 1, 1));
        // An identity on either side pairs to one for free.
        let inf = G2Affine::identity();
        assert_eq!(pairing_cost(|| pairing(&p, &inf)), (0, 0, 0, 0));
    }

    #[test]
    fn multi_pairing_prepares_each_live_pair_and_fuses_one_loop() {
        let mut pairs: Vec<(G1Affine, G2Affine)> = (0..4u32)
            .map(|i| {
                (
                    hash_to_g1(format!("cost-mp-{i}").as_bytes()).to_affine(),
                    hash_to_g2(format!("cost-mq-{i}").as_bytes()).to_affine(),
                )
            })
            .collect();
        pairs.push((G1Affine::identity(), pairs[0].1));
        pairs.push((pairs[1].0, G2Affine::identity()));
        assert_eq!(pairing_cost(|| multi_pairing(&pairs)), (4, 1, 4, 1));
    }

    #[test]
    fn non_degenerate_on_generators() {
        let e = pairing(&G1::generator().to_affine(), &G2::generator().to_affine());
        assert!(!e.is_one());
        // e has order dividing r: e^r = 1.
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(e.pow(&r_minus_1).mul(&e), Gt::one());
    }

    #[test]
    fn bilinear_in_first_argument() {
        let q = G2::generator().to_affine();
        let a = Fr::from_u64(5);
        let pa = G1::generator().mul_fr(&a).to_affine();
        let e1 = pairing(&pa, &q);
        let e2 = pairing(&G1::generator().to_affine(), &q).pow(&a);
        assert_eq!(e1, e2);
    }

    #[test]
    fn bilinear_in_second_argument() {
        let p = G1::generator().to_affine();
        let b = Fr::from_u64(11);
        let qb = G2::generator().mul_fr(&b).to_affine();
        let e1 = pairing(&p, &qb);
        let e2 = pairing(&p, &G2::generator().to_affine()).pow(&b);
        assert_eq!(e1, e2);
    }

    #[test]
    fn full_bilinearity_with_random_points() {
        let p = hash_to_g1(b"bilinear-p");
        let q = hash_to_g2(b"bilinear-q");
        let a = Fr::hash(b"scalar-a");
        let b = Fr::hash(b"scalar-b");
        let lhs = pairing(&p.mul_fr(&a).to_affine(), &q.mul_fr(&b).to_affine());
        let rhs = pairing(&p.to_affine(), &q.to_affine()).pow(&a.mul(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_with_identity_is_one() {
        let p = G1::generator().to_affine();
        let q = G2::generator().to_affine();
        assert!(pairing(&crate::g1::G1Affine::identity(), &q).is_one());
        assert!(pairing(&p, &crate::g2::G2Affine::identity()).is_one());
    }

    #[test]
    fn pairing_of_negated_point_is_inverse() {
        let p = hash_to_g1(b"inv-p");
        let q = hash_to_g2(b"inv-q");
        let e = pairing(&p.to_affine(), &q.to_affine());
        let e_neg = pairing(&p.neg().to_affine(), &q.to_affine());
        assert_eq!(e.mul(&e_neg), Gt::one());
        assert_eq!(e_neg, e.invert());
    }

    #[test]
    fn multi_pairing_matches_product() {
        let pairs: Vec<_> = (0..3u32)
            .map(|i| {
                let p = hash_to_g1(format!("mp-p-{i}").as_bytes()).to_affine();
                let q = hash_to_g2(format!("mp-q-{i}").as_bytes()).to_affine();
                (p, q)
            })
            .collect();
        let product = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
        assert_eq!(multi_pairing(&pairs), product);
    }

    #[test]
    fn additivity_identity() {
        // e(P1 + P2, Q) = e(P1, Q) · e(P2, Q)
        let p1 = hash_to_g1(b"add-1");
        let p2 = hash_to_g1(b"add-2");
        let q = hash_to_g2(b"add-q").to_affine();
        let lhs = pairing(&p1.add(&p2).to_affine(), &q);
        let rhs = pairing(&p1.to_affine(), &q).mul(&pairing(&p2.to_affine(), &q));
        assert_eq!(lhs, rhs);
        // e(P1, Q + Q2) = e(P1, Q) · e(P1, Q2)
        let q2 = hash_to_g2(b"add-q2");
        let q_sum = hash_to_g2(b"add-q").add(&q2).to_affine();
        assert_eq!(
            pairing(&p1.to_affine(), &q_sum),
            pairing(&p1.to_affine(), &q).mul(&pairing(&p1.to_affine(), &q2.to_affine()))
        );
    }

    #[test]
    fn gt_serialization_is_injective_on_samples() {
        let e1 = pairing(
            &hash_to_g1(b"ser-1").to_affine(),
            &hash_to_g2(b"ser-q").to_affine(),
        );
        let e2 = pairing(
            &hash_to_g1(b"ser-2").to_affine(),
            &hash_to_g2(b"ser-q").to_affine(),
        );
        assert_eq!(e1.to_bytes().len(), 384);
        assert_ne!(e1.to_bytes(), e2.to_bytes());
        assert_eq!(e1.to_bytes(), e1.to_bytes());
    }
}
