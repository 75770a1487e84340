//! The optimal ate pairing for BN curves.
//!
//! Same interface and target group as the Tate implementation in
//! [`crate::pairing`], but with a Miller loop of length `6x + 2` (≈ 65
//! bits instead of 254) running on the *twist* — point arithmetic in `Fp2`
//! — plus the two standard Frobenius-twisted correction steps:
//!
//! ```text
//! a_opt(P, Q) = ( f_{6x+2,Q}(P) · l_{[6x+2]Q, πQ}(P) · l_{[6x+2]Q+πQ, −π²Q}(P) )^((p¹²−1)/r)
//! ```
//!
//! The twist-Frobenius coefficients `ξ^((p−1)/3)`, `ξ^((p−1)/2)`,
//! `ξ^((p²−1)/3)` are derived at runtime like every other constant in this
//! crate. Correctness is established by the same property suite as the
//! Tate pairing (bilinearity, non-degeneracy, group order) plus mutual
//! consistency tests.

use std::sync::OnceLock;

use seccloud_bigint::ApInt;

use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::pairing::{final_exponentiation, Gt};
use crate::params;
use crate::traits::FieldElement;

/// The Miller loop length `s = 6x + 2`.
pub(crate) fn loop_count() -> &'static ApInt {
    static S: OnceLock<ApInt> = OnceLock::new();
    S.get_or_init(|| &(&ApInt::from_u64(params::BN_X) * &ApInt::from_u64(6)) + &ApInt::from_u64(2))
}

/// `γ₂ = ξ^((p−1)/3)` and `γ₃ = ξ^((p−1)/2)` — the twist-Frobenius
/// coefficients for `x` and `y` respectively.
fn twist_frobenius_coeffs() -> &'static (Fp2, Fp2) {
    static G: OnceLock<(Fp2, Fp2)> = OnceLock::new();
    G.get_or_init(|| {
        let p_minus_1 = p_minus_one();
        let third = p_minus_1.divrem(&ApInt::from_u64(3)).expect("3 ≠ 0").0;
        let half = p_minus_1.divrem(&ApInt::from_u64(2)).expect("2 ≠ 0").0;
        (
            Fp2::xi().pow_limbs(&third.to_le_limbs()),
            Fp2::xi().pow_limbs(&half.to_le_limbs()),
        )
    })
}

/// `ω = ξ^((p²−1)/3)` — the `x`-coefficient of the squared twist
/// Frobenius (`ξ^((p²−1)/2) = −1` because ξ is a non-square in `Fp2`).
fn twist_frobenius_sq_coeff() -> &'static Fp2 {
    static W: OnceLock<Fp2> = OnceLock::new();
    W.get_or_init(|| {
        let p = params::p_apint();
        let p2_minus_1 = (p * p).checked_sub(&ApInt::one()).expect("p² > 1");
        let third = p2_minus_1.divrem(&ApInt::from_u64(3)).expect("3 ≠ 0").0;
        Fp2::xi().pow_limbs(&third.to_le_limbs())
    })
}

fn p_minus_one() -> ApInt {
    params::p_apint().checked_sub(&ApInt::one()).expect("p > 1")
}

/// The twist Frobenius `π(x, y) = (x̄·γ₂, ȳ·γ₃)` (conjugate = `Fp2`
/// Frobenius), satisfying `ψ(π_tw(Q)) = π(ψ(Q))` for the untwist `ψ`.
pub(crate) fn twist_frobenius(q: (Fp2, Fp2)) -> (Fp2, Fp2) {
    let (g2, g3) = twist_frobenius_coeffs();
    (q.0.conjugate().mul(g2), q.1.conjugate().mul(g3))
}

/// The squared twist Frobenius `π²(x, y) = (x·ω, −y)`.
pub(crate) fn twist_frobenius_sq(q: (Fp2, Fp2)) -> (Fp2, Fp2) {
    (q.0.mul(twist_frobenius_sq_coeff()), q.1.neg())
}

/// Builds the sparse line value `l(P) = y_P + w·(−λ·x_P + (λ·x_T − y_T)·v)`
/// for a line of slope `λ` through the twist point `(x_T, y_T)`, evaluated
/// at `P = (x_P, y_P) ∈ G1` — returned as the three populated `w`-basis
/// slots `(a, b, c)` consumed by [`Fp12::mul_by_014`], with `a = y_P ∈ Fp`.
fn line_value(lambda: &Fp2, x_t: &Fp2, y_t: &Fp2, x_p: &Fp, y_p: &Fp) -> (Fp, Fp2, Fp2) {
    let b = lambda.scale(x_p).neg();
    let c = lambda.mul(x_t).sub(y_t);
    (*y_p, b, c)
}

/// Affine twist-point state for the Miller loop. Steps return the sparse
/// line coefficients, or `None` for verticals and spent states (a line
/// value of 1, which the accumulator simply skips).
struct TwistMiller {
    t: Option<(Fp2, Fp2)>,
}

impl TwistMiller {
    /// Tangent step: line at `T` evaluated at `P`, then `T ← 2T`.
    fn double_step(&mut self, x_p: &Fp, y_p: &Fp) -> Option<(Fp, Fp2, Fp2)> {
        let (x, y) = self.t?;
        if y.is_zero() {
            self.t = None;
            return None; // vertical: killed by final exponentiation
        }
        let lambda = x
            .square()
            .scale(&Fp::from_u64(3))
            .mul(&y.double().inverse_vartime().expect("y ≠ 0"));
        let line = line_value(&lambda, &x, &y, x_p, y_p);
        let x3 = lambda.square().sub(&x.double());
        let y3 = lambda.mul(&x.sub(&x3)).sub(&y);
        self.t = Some((x3, y3));
        Some(line)
    }

    /// Chord step: line through `T` and `r`, then `T ← T + r`.
    fn add_step(&mut self, r: (Fp2, Fp2), x_p: &Fp, y_p: &Fp) -> Option<(Fp, Fp2, Fp2)> {
        let Some((x1, y1)) = self.t else {
            self.t = Some(r);
            return None;
        };
        let (x2, y2) = r;
        if x1 == x2 {
            if y1 == y2 {
                return self.double_step(x_p, y_p);
            }
            self.t = None;
            return None; // vertical
        }
        let lambda = y2
            .sub(&y1)
            .mul(&x2.sub(&x1).inverse_vartime().expect("x₂ ≠ x₁"));
        let line = line_value(&lambda, &x1, &y1, x_p, y_p);
        let x3 = lambda.square().sub(&x1).sub(&x2);
        let y3 = lambda.mul(&x1.sub(&x3)).sub(&y1);
        self.t = Some((x3, y3));
        Some(line)
    }
}

/// Folds a sparse line into the Miller accumulator ([`Fp12::mul_by_014`]
/// instead of a full 18-mul `Fp12` multiplication; `None` means a line
/// value of 1).
fn absorb_line(f: &Fp12, line: Option<(Fp, Fp2, Fp2)>) -> Fp12 {
    match line {
        Some((a, b, c)) => f.mul_by_014(&a, &b, &c),
        None => *f,
    }
}

/// The optimal-ate Miller function (no final exponentiation).
fn miller_loop_ate(p: &G1Affine, q: &G2Affine) -> Fp12 {
    crate::counters::miller_loop(1);
    let (x_p, y_p) = (p.x(), p.y());
    let q_aff = (q.x(), q.y());
    let s = loop_count();
    let bits = s.bits();

    let mut f = Fp12::one();
    let mut state = TwistMiller { t: Some(q_aff) };
    for i in (0..bits - 1).rev() {
        f = f.square();
        f = absorb_line(&f, state.double_step(&x_p, &y_p));
        if s.bit(i) {
            f = absorb_line(&f, state.add_step(q_aff, &x_p, &y_p));
        }
    }

    // Correction steps with π(Q) and −π²(Q).
    let q1 = twist_frobenius(q_aff);
    let q2 = twist_frobenius_sq(q_aff);
    let minus_q2 = (q2.0, q2.1.neg());
    f = absorb_line(&f, state.add_step(q1, &x_p, &y_p));
    f = absorb_line(&f, state.add_step(minus_q2, &x_p, &y_p));
    f
}

/// Computes the reduced optimal ate pairing `ê(P, Q)`.
///
/// Identical bilinearity/non-degeneracy contract as [`crate::pairing`]'s
/// Tate implementation with a ~4× shorter Miller loop; the two generate the
/// same `GT` but are *different* pairings (they differ by a fixed exponent),
/// so a deployment must use one of them consistently — this workspace uses
/// the ate pairing everywhere via [`crate::pairing()`].
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{pairing_ate, Fr, G1, G2};
/// let e = pairing_ate(&G1::generator().to_affine(), &G2::generator().to_affine());
/// let e2 = pairing_ate(
///     &G1::generator().double().to_affine(),
///     &G2::generator().to_affine(),
/// );
/// assert_eq!(e2, e.mul(&e));
/// ```
pub fn pairing_ate(p: &G1Affine, q: &G2Affine) -> Gt {
    if p.is_identity() || q.is_identity() {
        return Gt::one();
    }
    Gt::from_unchecked_fp12(final_exponentiation(&miller_loop_ate(p, q)))
}

/// Product of ate pairings sharing one final exponentiation.
pub fn multi_pairing_ate(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    let mut acc = Fp12::one();
    let mut any = false;
    for (p, q) in pairs {
        if p.is_identity() || q.is_identity() {
            continue;
        }
        acc = acc.mul(&miller_loop_ate(p, q));
        any = true;
    }
    if !any {
        return Gt::one();
    }
    Gt::from_unchecked_fp12(final_exponentiation(&acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fr::Fr;
    use crate::g1::{hash_to_g1, G1};
    use crate::g2::{hash_to_g2, G2};

    #[test]
    fn non_degenerate_and_order_r() {
        let e = pairing_ate(&G1::generator().to_affine(), &G2::generator().to_affine());
        assert!(!e.is_one(), "pairing of generators is nontrivial");
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(e.pow(&r_minus_1).mul(&e), Gt::one(), "e^r = 1");
    }

    #[test]
    fn bilinearity_both_arguments() {
        let p = hash_to_g1(b"ate-p");
        let q = hash_to_g2(b"ate-q");
        let a = Fr::hash(b"ate-a");
        let b = Fr::hash(b"ate-b");
        let base = pairing_ate(&p.to_affine(), &q.to_affine());
        assert_eq!(
            pairing_ate(&p.mul_fr(&a).to_affine(), &q.mul_fr(&b).to_affine()),
            base.pow(&a.mul(&b))
        );
        assert_eq!(
            pairing_ate(&p.mul_fr(&a).to_affine(), &q.to_affine()),
            pairing_ate(&p.to_affine(), &q.mul_fr(&a).to_affine()),
            "scalar slides between arguments"
        );
    }

    #[test]
    fn additivity() {
        let p1 = hash_to_g1(b"ate-add-1");
        let p2 = hash_to_g1(b"ate-add-2");
        let q = hash_to_g2(b"ate-add-q").to_affine();
        assert_eq!(
            pairing_ate(&p1.add(&p2).to_affine(), &q),
            pairing_ate(&p1.to_affine(), &q).mul(&pairing_ate(&p2.to_affine(), &q))
        );
        let q2 = hash_to_g2(b"ate-add-q2");
        let q_sum = hash_to_g2(b"ate-add-q").add(&q2).to_affine();
        assert_eq!(
            pairing_ate(&p1.to_affine(), &q_sum),
            pairing_ate(&p1.to_affine(), &q).mul(&pairing_ate(&p1.to_affine(), &q2.to_affine()))
        );
    }

    #[test]
    fn identity_inputs_give_one() {
        let p = G1::generator().to_affine();
        let q = G2::generator().to_affine();
        assert!(pairing_ate(&G1Affine::identity(), &q).is_one());
        assert!(pairing_ate(&p, &G2Affine::identity()).is_one());
    }

    #[test]
    fn multi_pairing_matches_product() {
        let pairs: Vec<_> = (0..3u32)
            .map(|i| {
                (
                    hash_to_g1(format!("mpa-{i}").as_bytes()).to_affine(),
                    hash_to_g2(format!("mpq-{i}").as_bytes()).to_affine(),
                )
            })
            .collect();
        let product = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing_ate(p, q)));
        assert_eq!(multi_pairing_ate(&pairs), product);
    }

    #[test]
    fn ate_and_tate_generate_consistent_relations() {
        // They are different pairings, but both must respect the same
        // bilinear relations — the batch-verification identity checked with
        // one must hold exactly when checked with the other.
        let p = hash_to_g1(b"consistency-p");
        let q = hash_to_g2(b"consistency-q");
        let k = Fr::hash(b"consistency-k");
        // e(kP, Q) · e(P, Q)^{-k} = 1 under both pairings.
        for pairing_fn in [crate::pairing::pairing_tate, pairing_ate] {
            let lhs = pairing_fn(&p.mul_fr(&k).to_affine(), &q.to_affine());
            let rhs = pairing_fn(&p.to_affine(), &q.to_affine()).pow(&k);
            assert_eq!(lhs, rhs);
        }
        // And they genuinely differ (fixed-exponent relation, not equality).
        assert_ne!(
            crate::pairing::pairing_tate(&p.to_affine(), &q.to_affine()),
            pairing_ate(&p.to_affine(), &q.to_affine()),
        );
    }

    #[test]
    fn derived_coefficients_have_expected_orders() {
        // γ₂³ = ξ^(p−1), γ₃² = ξ^(p−1), ω³ = ξ^(p²−1) = 1.
        let (g2, g3) = twist_frobenius_coeffs();
        let xi_pm1 = Fp2::xi().pow_limbs(&p_minus_one().to_le_limbs());
        assert_eq!(g2.mul(g2).mul(g2), xi_pm1);
        assert_eq!(g3.mul(g3), xi_pm1);
        let w = twist_frobenius_sq_coeff();
        assert_eq!(w.mul(w).mul(w), Fp2::one());
        assert_ne!(*w, Fp2::one(), "ω is a primitive cube root of unity");
    }

    #[test]
    fn twist_frobenius_fixes_the_subgroup() {
        // π(Q) must land back in G2 (on the twist and in the r-torsion),
        // and π²(Q) must equal applying π twice.
        let q = hash_to_g2(b"frob-q").to_affine();
        let pi_q = twist_frobenius((q.x(), q.y()));
        let as_point = G2Affine::from_xy(pi_q.0, pi_q.1).expect("π(Q) on the twist");
        assert!(G2::from(as_point).is_torsion_free());
        let pi2_direct = twist_frobenius_sq((q.x(), q.y()));
        let pi2_composed = twist_frobenius(twist_frobenius((q.x(), q.y())));
        assert_eq!(pi2_direct, pi2_composed);
    }
}
