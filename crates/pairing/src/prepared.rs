//! Fixed-argument pairing precomputation.
//!
//! Every Miller-loop step of the optimal ate pairing ([`crate::ate`])
//! computes a line through twist points derived *only from Q* — slope and
//! intercept do not depend on the `G1` argument. When the same `Q` is
//! paired against many `P` (SecCloud's designated-verifier transforms and
//! batch checks all pair against a verifier key fixed for its lifetime),
//! those coefficients can be computed once and replayed.
//!
//! [`G2Prepared`] caches one `(−λ, λ·x_T − y_T)` coefficient pair per
//! doubling/addition step (the sparse line is
//! `l(P) = y_P + w·(−λ·x_P + (λ·x_T − y_T)·v)`, so evaluation at `P` costs
//! one `Fp2`-by-`Fp` scale instead of a full affine step with an `Fp2`
//! inversion). [`multi_miller_loop`] shares both the accumulator squarings
//! and the single final exponentiation across many `(P, Q)` pairs.
//!
//! Because every field operation returns the canonical (fully reduced)
//! representative, the prepared evaluation is **bit-identical** to the
//! from-scratch [`crate::pairing()`] — asserted by tests here and in
//! `tests/prepared.rs`.

use crate::ate::{loop_count, twist_frobenius, twist_frobenius_sq};
use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::pairing::{final_exponentiation, Gt};
use crate::traits::FieldElement;

/// One cached Miller-loop step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LineStep {
    /// A real tangent/chord line: `(−λ, λ·x_T − y_T)`.
    Line { neg_lambda: Fp2, c1: Fp2 },
    /// A vertical line or a step on a spent accumulator — contributes the
    /// multiplicative identity (killed by the final exponentiation).
    One,
}

impl LineStep {
    /// Evaluates the cached line at `P = (x_P, y_P)` to the sparse triple
    /// consumed by [`Fp12::mul_by_014`], or `None` for a unit contribution.
    #[inline]
    fn eval(&self, x_p: &Fp, y_p: &Fp) -> Option<(Fp, Fp2, Fp2)> {
        match self {
            LineStep::Line { neg_lambda, c1 } => Some((*y_p, neg_lambda.scale(x_p), *c1)),
            LineStep::One => None,
        }
    }
}

/// Records the same affine twist-point walk as `ate::TwistMiller`, but
/// stores the `P`-independent line coefficients instead of evaluating.
struct Recorder {
    t: Option<(Fp2, Fp2)>,
    steps: Vec<LineStep>,
}

impl Recorder {
    fn double_step(&mut self) {
        let Some((x, y)) = self.t else {
            self.steps.push(LineStep::One);
            return;
        };
        if y.is_zero() {
            self.t = None;
            self.steps.push(LineStep::One); // vertical
            return;
        }
        let lambda = x
            .square()
            .scale(&Fp::from_u64(3))
            .mul(&y.double().inverse_vartime().expect("y ≠ 0"));
        self.steps.push(LineStep::Line {
            neg_lambda: lambda.neg(),
            c1: lambda.mul(&x).sub(&y),
        });
        let x3 = lambda.square().sub(&x.double());
        let y3 = lambda.mul(&x.sub(&x3)).sub(&y);
        self.t = Some((x3, y3));
    }

    fn add_step(&mut self, r: (Fp2, Fp2)) {
        let Some((x1, y1)) = self.t else {
            self.t = Some(r);
            self.steps.push(LineStep::One);
            return;
        };
        let (x2, y2) = r;
        if x1 == x2 {
            if y1 == y2 {
                self.double_step();
                return;
            }
            self.t = None;
            self.steps.push(LineStep::One); // vertical
            return;
        }
        let lambda = y2
            .sub(&y1)
            .mul(&x2.sub(&x1).inverse_vartime().expect("x₂ ≠ x₁"));
        self.steps.push(LineStep::Line {
            neg_lambda: lambda.neg(),
            c1: lambda.mul(&x1).sub(&y1),
        });
        let x3 = lambda.square().sub(&x1).sub(&x2);
        let y3 = lambda.mul(&x1.sub(&x3)).sub(&y1);
        self.t = Some((x3, y3));
    }

    // The `_ct` twins below repeat the step formulas with the Fermat
    // inverse instead of `inverse_vartime`. They are deliberately
    // *separate functions* rather than an `if ct` inside the fast steps:
    // the `vartime` dataflow rule is path-insensitive, so only disjoint
    // call graphs let it prove that `G2Prepared::from_ct` never reaches a
    // variable-time inversion while `From<&G2Affine>` still does.

    fn double_step_ct(&mut self) {
        let Some((x, y)) = self.t else {
            self.steps.push(LineStep::One);
            return;
        };
        if y.is_zero() {
            self.t = None;
            self.steps.push(LineStep::One); // vertical
            return;
        }
        let lambda = x
            .square()
            .scale(&Fp::from_u64(3))
            .mul(&y.double().inverse().expect("y ≠ 0"));
        self.steps.push(LineStep::Line {
            neg_lambda: lambda.neg(),
            c1: lambda.mul(&x).sub(&y),
        });
        let x3 = lambda.square().sub(&x.double());
        let y3 = lambda.mul(&x.sub(&x3)).sub(&y);
        self.t = Some((x3, y3));
    }

    fn add_step_ct(&mut self, r: (Fp2, Fp2)) {
        let Some((x1, y1)) = self.t else {
            self.t = Some(r);
            self.steps.push(LineStep::One);
            return;
        };
        let (x2, y2) = r;
        if x1 == x2 {
            if y1 == y2 {
                self.double_step_ct();
                return;
            }
            self.t = None;
            self.steps.push(LineStep::One); // vertical
            return;
        }
        let lambda = y2.sub(&y1).mul(&x2.sub(&x1).inverse().expect("x₂ ≠ x₁"));
        self.steps.push(LineStep::Line {
            neg_lambda: lambda.neg(),
            c1: lambda.mul(&x1).sub(&y1),
        });
        let x3 = lambda.square().sub(&x1).sub(&x2);
        let y3 = lambda.mul(&x1.sub(&x3)).sub(&y1);
        self.t = Some((x3, y3));
    }
}

/// A `G2` point with its Miller-loop line coefficients precomputed.
///
/// Preparing costs roughly one unprepared Miller loop; every subsequent
/// [`pairing_prepared`]/[`multi_miller_loop`] against it skips the twist
/// arithmetic (including ~65 `Fp2` inversions) entirely.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{hash_to_g1, hash_to_g2, pairing, pairing_prepared, G2Prepared};
///
/// let p = hash_to_g1(b"P").to_affine();
/// let q = hash_to_g2(b"Q").to_affine();
/// let prep = G2Prepared::from(&q);
/// assert_eq!(pairing_prepared(&p, &prep), pairing(&p, &q));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct G2Prepared {
    steps: Vec<LineStep>,
    infinity: bool,
}

impl G2Prepared {
    /// Whether the prepared point is the identity (pairs to `Gt::one()`).
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Constant-time preparation for *secret* points — designated-verifier
    /// private keys whose line slopes are key-derived. Identical walk and
    /// output to `From<&G2Affine>`, but every slope denominator goes
    /// through the fixed-sequence Fermat inverse instead of the
    /// variable-time binary Euclid, so preparation time does not depend on
    /// the coordinate values. Costs ~65 Fermat ladders more than `from`;
    /// preparation of a long-lived key is a one-time cost.
    pub fn from_ct(q: &G2Affine) -> Self {
        if q.is_identity() {
            return Self {
                steps: Vec::new(),
                infinity: true,
            };
        }
        let q_aff = (q.x(), q.y());
        let s = loop_count();
        let bits = s.bits();
        let mut rec = Recorder {
            t: Some(q_aff),
            steps: Vec::with_capacity(
                bits + s
                    .to_le_limbs()
                    .iter()
                    .map(|l| l.count_ones() as usize)
                    .sum::<usize>()
                    + 2,
            ),
        };
        for i in (0..bits - 1).rev() {
            rec.double_step_ct();
            if s.bit(i) {
                rec.add_step_ct(q_aff);
            }
        }
        let q1 = twist_frobenius(q_aff);
        let q2 = twist_frobenius_sq(q_aff);
        rec.add_step_ct(q1);
        rec.add_step_ct((q2.0, q2.1.neg()));
        Self {
            steps: rec.steps,
            infinity: false,
        }
    }

    /// Overwrites every cached line coefficient with the unit
    /// contribution. [`Drop`] delegates here; it is a separate method so
    /// tests can observe the wiped state in place (after a real drop the
    /// memory is already released).
    fn wipe_steps(&mut self) {
        for step in &mut self.steps {
            seccloud_hash::wipe_copy(step, LineStep::One);
        }
    }
}

impl Drop for G2Prepared {
    /// Preparations of *secret* points (designated-verifier private keys)
    /// carry secret-derived line coefficients, and preparations flow
    /// through caches whose eviction paths cannot tell secret from
    /// public. Wiping unconditionally on drop means eviction, `clear()`
    /// and shrink paths zeroize rather than merely free — at a cost that
    /// is noise next to the preparation itself.
    fn drop(&mut self) {
        self.wipe_steps();
    }
}

impl From<&G2Affine> for G2Prepared {
    fn from(q: &G2Affine) -> Self {
        if q.is_identity() {
            return Self {
                steps: Vec::new(),
                infinity: true,
            };
        }
        let q_aff = (q.x(), q.y());
        let s = loop_count();
        let bits = s.bits();
        let mut rec = Recorder {
            t: Some(q_aff),
            steps: Vec::with_capacity(
                bits + s
                    .to_le_limbs()
                    .iter()
                    .map(|l| l.count_ones() as usize)
                    .sum::<usize>()
                    + 2,
            ),
        };
        for i in (0..bits - 1).rev() {
            rec.double_step();
            if s.bit(i) {
                rec.add_step(q_aff);
            }
        }
        // Correction steps with π(Q) and −π²(Q).
        let q1 = twist_frobenius(q_aff);
        let q2 = twist_frobenius_sq(q_aff);
        rec.add_step(q1);
        rec.add_step((q2.0, q2.1.neg()));
        Self {
            steps: rec.steps,
            infinity: false,
        }
    }
}

impl From<G2Affine> for G2Prepared {
    fn from(q: G2Affine) -> Self {
        Self::from(&q)
    }
}

/// The product `Π ê(P_i, Q_i)` over prepared pairs, sharing the
/// accumulator squarings of one Miller loop and a single final
/// exponentiation.
///
/// Pairs with an identity on either side contribute `1` and are skipped —
/// matching [`crate::multi_pairing`]'s semantics bit for bit.
pub fn multi_miller_loop(pairs: &[(&G1Affine, &G2Prepared)]) -> Gt {
    let live: Vec<(Fp, Fp, &[LineStep])> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.infinity)
        .map(|(p, q)| (p.x(), p.y(), q.steps.as_slice()))
        .collect();
    if live.is_empty() {
        return Gt::one();
    }
    crate::counters::miller_loop(live.len());
    let s = loop_count();
    let bits = s.bits();
    let mut f = Fp12::one();
    let mut cursor = 0usize;
    let absorb = |f: &mut Fp12, cursor: &mut usize| {
        for (x_p, y_p, steps) in &live {
            if let Some((a, b, c)) = steps[*cursor].eval(x_p, y_p) {
                *f = f.mul_by_014(&a, &b, &c);
            }
        }
        *cursor += 1;
    };
    for i in (0..bits - 1).rev() {
        f = f.square();
        absorb(&mut f, &mut cursor);
        if s.bit(i) {
            absorb(&mut f, &mut cursor);
        }
    }
    absorb(&mut f, &mut cursor);
    absorb(&mut f, &mut cursor);
    debug_assert!(live.iter().all(|(_, _, steps)| steps.len() == cursor));
    Gt::from_unchecked_fp12(final_exponentiation(&f))
}

/// The reduced optimal ate pairing against a prepared `G2` argument —
/// bit-identical to [`crate::pairing()`] on the same inputs.
pub fn pairing_prepared(p: &G1Affine, q: &G2Prepared) -> Gt {
    multi_miller_loop(&[(p, q)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_preparation_is_bit_identical_to_vartime() {
        for name in [&b"ct-prep-a"[..], b"ct-prep-b", b"ct-prep-c"] {
            let q = crate::hash_to_g2(name).to_affine();
            assert_eq!(G2Prepared::from_ct(&q), G2Prepared::from(&q));
        }
        assert!(G2Prepared::from_ct(&G2Affine::identity()).is_identity());
    }
    use crate::fr::Fr;
    use crate::g1::{hash_to_g1, G1};
    use crate::g2::{hash_to_g2, G2};
    use crate::pairing::{multi_pairing, pairing};

    /// `Π ê(Pᵢ, Qᵢ)` over the three pairs of the test below, as
    /// `Gt::to_bytes` hex, recorded before the signed-window final
    /// exponentiation and the `Fp` line slot.
    const KAT_MULTI_MILLER: &str = "\
        2ab97ffc56f7f577ba58bb5bdfa28922fabc69184a92a880393b173f676c02a9\
        14cb27f1f8156bebe00dd26e1e9edf7b9584c293d6f5d7078c663d8bf35ec315\
        24f679f4415b4e2688036c596045270f69bb4aad769c1323ec5aaaf8028304cd\
        1018cc3cf09703066b9dbd119b5c8e54585f0e096f85924b252027bb19928bf4\
        2833d8728dccd38125f8e25db56ae1aca1e4b8cb1e519272b49b6666ae5a145e\
        2a30a1b5b4b237a0a3b8353da1822ff64b57dda8af40d94046e2dedde9df16f5\
        1fd65a7983016e239653e7994ad8af30d6e858dfefbec2f33c9a4d80bd813a9b\
        1b78ab55b6b25c3875b9c9f55fc77bfc22272ec08129adb8d5bfb1c4f6e3851d\
        2f402bbd9fa3b97a41421f780e653c68f54de472d2f297ec6767b65c32826730\
        08d6563627fcf8f0422bc698aa576235622b9415401660a98b661a3e6476f5c0\
        0356f66c13dd3c41f39d9bc1d21db36146731210885ebb059666a7e4cd0d21b6\
        17475f51f24e79134cb48e6c7f294e78bb60896467c61e0c4b482fbc1dabe8dc";

    #[test]
    fn multi_miller_loop_reproduces_known_answer() {
        let p: Vec<_> = (0..3)
            .map(|i| hash_to_g1(format!("mml-kat-p-{i}").as_bytes()).to_affine())
            .collect();
        let q: Vec<_> = (0..3)
            .map(|i| hash_to_g2(format!("mml-kat-q-{i}").as_bytes()).to_affine())
            .collect();
        let prep = [
            G2Prepared::from(&q[0]),
            G2Prepared::from_ct(&q[1]),
            G2Prepared::from(&q[2]),
        ];
        let value = multi_miller_loop(&[(&p[0], &prep[0]), (&p[1], &prep[1]), (&p[2], &prep[2])]);
        let hex: String = value
            .to_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, KAT_MULTI_MILLER);
    }

    #[test]
    fn prepared_equals_unprepared_on_random_points() {
        for i in 0..6u32 {
            let p = hash_to_g1(format!("prep-p-{i}").as_bytes()).to_affine();
            let q = hash_to_g2(format!("prep-q-{i}").as_bytes()).to_affine();
            let prep = G2Prepared::from(&q);
            assert_eq!(pairing_prepared(&p, &prep), pairing(&p, &q), "sample {i}");
        }
    }

    #[test]
    fn prepared_identity_semantics() {
        let p = hash_to_g1(b"prep-id-p").to_affine();
        let q = hash_to_g2(b"prep-id-q").to_affine();
        let inf = G2Prepared::from(&G2Affine::identity());
        assert!(inf.is_identity());
        assert!(pairing_prepared(&p, &inf).is_one());
        let prep = G2Prepared::from(&q);
        assert!(pairing_prepared(&G1Affine::identity(), &prep).is_one());
    }

    #[test]
    fn multi_miller_loop_matches_multi_pairing() {
        let pairs: Vec<(G1Affine, G2Affine)> = (0..4u32)
            .map(|i| {
                (
                    hash_to_g1(format!("mml-p-{i}").as_bytes()).to_affine(),
                    hash_to_g2(format!("mml-q-{i}").as_bytes()).to_affine(),
                )
            })
            .collect();
        let preps: Vec<G2Prepared> = pairs.iter().map(|(_, q)| G2Prepared::from(q)).collect();
        let refs: Vec<(&G1Affine, &G2Prepared)> =
            pairs.iter().zip(&preps).map(|((p, _), q)| (p, q)).collect();
        assert_eq!(multi_miller_loop(&refs), multi_pairing(&pairs));
    }

    #[test]
    fn multi_miller_loop_matches_product_of_single_pairings() {
        let pairs: Vec<(G1Affine, G2Affine)> = (0..3u32)
            .map(|i| {
                (
                    hash_to_g1(format!("prod-p-{i}").as_bytes()).to_affine(),
                    hash_to_g2(format!("prod-q-{i}").as_bytes()).to_affine(),
                )
            })
            .collect();
        let product = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
        let preps: Vec<G2Prepared> = pairs.iter().map(|(_, q)| G2Prepared::from(q)).collect();
        let refs: Vec<(&G1Affine, &G2Prepared)> =
            pairs.iter().zip(&preps).map(|((p, _), q)| (p, q)).collect();
        assert_eq!(multi_miller_loop(&refs), product);
    }

    #[test]
    fn multi_miller_loop_skips_identity_pairs() {
        let p = hash_to_g1(b"skip-p").to_affine();
        let q = hash_to_g2(b"skip-q").to_affine();
        let prep = G2Prepared::from(&q);
        let inf_prep = G2Prepared::from(&G2Affine::identity());
        let inf_p = G1Affine::identity();
        // Identity pairs drop out of the product.
        let mixed = multi_miller_loop(&[(&p, &prep), (&inf_p, &prep), (&p, &inf_prep)]);
        assert_eq!(mixed, pairing(&p, &q));
        // All-identity product is one.
        assert!(multi_miller_loop(&[(&inf_p, &prep)]).is_one());
        assert!(multi_miller_loop(&[]).is_one());
    }

    #[test]
    fn prepared_respects_bilinearity() {
        let p = hash_to_g1(b"bilin-p");
        let q = hash_to_g2(b"bilin-q");
        let a = Fr::hash(b"bilin-a");
        let prep = G2Prepared::from(&q.to_affine());
        let base = pairing_prepared(&p.to_affine(), &prep);
        assert_eq!(
            pairing_prepared(&p.mul_fr(&a).to_affine(), &prep),
            base.pow(&a)
        );
        let prep_aq = G2Prepared::from(&q.mul_fr(&a).to_affine());
        assert_eq!(pairing_prepared(&p.to_affine(), &prep_aq), base.pow(&a));
    }

    #[test]
    fn wipe_on_drop_clears_every_line_coefficient() {
        let q = hash_to_g2(b"wipe-on-drop").to_affine();
        let mut prep = G2Prepared::from(&q);
        assert!(
            prep.steps
                .iter()
                .any(|s| matches!(s, LineStep::Line { .. })),
            "a real preparation carries live coefficients"
        );
        // `Drop` delegates to `wipe_steps`; run it directly so the wiped
        // state is still observable.
        prep.wipe_steps();
        assert!(
            prep.steps.iter().all(|s| matches!(s, LineStep::One)),
            "every cached line must be wiped to the unit contribution"
        );
    }

    #[test]
    fn generator_preparation_is_reusable() {
        // One preparation, many pairings — the intended usage pattern.
        let prep = G2Prepared::from(&G2::generator().to_affine());
        for i in 0..4u64 {
            let p = G1::generator().mul_fr(&Fr::from_u64(i + 1)).to_affine();
            assert_eq!(
                pairing_prepared(&p, &prep),
                pairing(&p, &G2::generator().to_affine()),
                "k = {}",
                i + 1
            );
        }
    }
}
