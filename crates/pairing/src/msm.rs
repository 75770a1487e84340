//! Weighted multi-term folding for small-exponent batch verification.
//!
//! Randomized (Bellare–Garay–Rabin style) batch verification checks
//!
//! ```text
//! ê(Σᵢ rᵢ·uᵢ, sk_V)  =  Πᵢ σᵢ^{rᵢ}
//! ```
//!
//! for verifier-drawn random weights `rᵢ`, instead of the unweighted
//! `ê(Σᵢ uᵢ, sk_V) = Πᵢ σᵢ` — the weights stop coordinated per-item
//! corruptions whose error terms multiply to one from cancelling inside
//! the aggregate. Weights are 64-bit (the classic small-exponent
//! parameter: a cheating batch survives with probability ≤ 2⁻⁶⁴ per
//! verification attempt), which keeps the weighted fold far cheaper than
//! the pairings it guards.
//!
//! [`weighted_sum_g1`] (`Σᵢ rᵢ·uᵢ ∈ G1`) and [`weighted_product_gt`]
//! (`Πᵢ σᵢ^{rᵢ} ∈ GT`) run one shared-window bucket method (Pippenger),
//! so the marginal cost per term is a handful of group operations rather
//! than a full 64-bit scalar multiplication or exponentiation each. The
//! window width is derived from each call's term count by the loop's
//! operation count. The two sides are separate calls because they need
//! not cover the same terms: the sharded epoch verifier sums `G1` once
//! per shard (each shard pairs with its own key) but multiplies every
//! shard's `σ` terms in one `GT` fold, whose wider window makes it several
//! times cheaper than one narrow fold per shard.
//!
//! `GT` squarings deliberately use the generic `Fp12` squaring, not the
//! cyclotomic shortcut: `σ` values arrive from the wire and an
//! adversarial non-subgroup element must be folded with the same
//! arithmetic the comparison side uses, never with arithmetic that is
//! only valid on the cyclotomic subgroup.

use crate::g1::G1;
use crate::pairing::Gt;
use crate::traits::FieldElement;

/// Number of bits in the batch-verification weights.
pub const WEIGHT_BITS: u32 = 64;

/// Bucket-window width for a batch of `n` terms: the `c ∈ 1..=8` that
/// minimises the fold loop's expected group operations,
/// `⌈64/c⌉·(c + n·(1−2⁻ᶜ) + 2·(2ᶜ−1))` — `c` doublings, one bucket add per
/// term with a nonzero digit, and the running-sum aggregation, per window.
/// Ties go to the narrower window.
fn window_bits(n: usize) -> u32 {
    let ops = |c: u32| {
        let buckets = f64::from((1u32 << c) - 1);
        let nonzero_digit = buckets / (buckets + 1.0);
        f64::from(WEIGHT_BITS.div_ceil(c))
            * (f64::from(c) + n as f64 * nonzero_digit + 2.0 * buckets)
    };
    (2..=8).fold(1, |best, c| if ops(c) < ops(best) { c } else { best })
}

/// The group operations the bucket loop needs, written additively.
trait FoldGroup: Copy {
    fn identity() -> Self;
    fn op(&self, rhs: &Self) -> Self;
    fn twice(&self) -> Self;
}

impl FoldGroup for G1 {
    fn identity() -> Self {
        G1::identity()
    }
    fn op(&self, rhs: &Self) -> Self {
        self.add(rhs)
    }
    fn twice(&self) -> Self {
        self.double()
    }
}

impl FoldGroup for Gt {
    fn identity() -> Self {
        Gt::one()
    }
    /// Passes the other side through when one side is the identity, as
    /// `G1`'s `add` does: every bucket, the running sum and the
    /// accumulator start at the identity, and each first step would
    /// otherwise cost a full `Fp12` product.
    fn op(&self, rhs: &Self) -> Self {
        if self.is_one() {
            *rhs
        } else if rhs.is_one() {
            *self
        } else {
            self.mul(rhs)
        }
    }
    fn twice(&self) -> Self {
        Gt::from_unchecked_fp12(self.as_fp12().square())
    }
}

/// `Σᵢ rᵢ·xᵢ` over `terms = [xᵢ]` and `weights = [rᵢ]`, by the bucket
/// method (extra entries on either side are ignored).
fn bucket_fold<T: FoldGroup>(terms: &[T], weights: &[u64]) -> T {
    let n = terms.len().min(weights.len());
    if n == 0 {
        return T::identity();
    }
    let c = window_bits(n);
    let windows = WEIGHT_BITS.div_ceil(c);
    let mask = (1u64 << c) - 1;
    let mut acc = T::identity();
    let mut buckets = vec![T::identity(); (1usize << c) - 1];
    for w in (0..windows).rev() {
        for _ in 0..c {
            acc = acc.twice();
        }
        buckets.fill(T::identity());
        let shift = w * c;
        for (x, r) in terms.iter().zip(weights) {
            let digit = ((r >> shift) & mask) as usize;
            if let Some(b) = digit.checked_sub(1).and_then(|j| buckets.get_mut(j)) {
                *b = b.op(x);
            }
        }
        // Running-sum aggregation: Σⱼ j·Bⱼ in 2·(2ᶜ−1) operations.
        let mut running = T::identity();
        for b in buckets.iter().rev() {
            running = running.op(b);
            acc = acc.op(&running);
        }
    }
    acc
}

/// The weighted sum `Σᵢ rᵢ·uᵢ ∈ G1` over `points = [uᵢ]` and
/// `weights = [rᵢ]` (extra entries on either side are ignored; the caller
/// supplies one weight per point).
///
/// A zero weight erases its term — batch-verification callers must draw
/// weights from `[1, 2⁶⁴)`.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{hash_to_g1, weighted_sum_g1, Fr};
///
/// let u = hash_to_g1(b"u");
/// assert_eq!(weighted_sum_g1(&[u], &[3]), u.mul_fr(&Fr::from_u64(3)));
/// ```
pub fn weighted_sum_g1(points: &[G1], weights: &[u64]) -> G1 {
    bucket_fold(points, weights)
}

/// The weighted product `Πᵢ σᵢ^{rᵢ} ∈ GT` over `elements = [σᵢ]` and
/// `weights = [rᵢ]`, under the same rules as [`weighted_sum_g1`].
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{hash_to_g1, hash_to_g2, pairing, weighted_product_gt, Fr};
///
/// let sigma = pairing(&hash_to_g1(b"p").to_affine(), &hash_to_g2(b"q").to_affine());
/// assert_eq!(weighted_product_gt(&[sigma], &[3]), sigma.pow(&Fr::from_u64(3)));
/// ```
pub fn weighted_product_gt(elements: &[Gt], weights: &[u64]) -> Gt {
    bucket_fold(elements, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fr::Fr;
    use crate::g1::hash_to_g1;
    use crate::g2::hash_to_g2;
    use crate::pairing::pairing;

    fn sample_points(n: usize) -> Vec<G1> {
        (0..n)
            .map(|i| hash_to_g1(format!("msm-u-{i}").as_bytes()))
            .collect()
    }

    fn sample_elements(n: usize) -> Vec<Gt> {
        (0..n)
            .map(|i| {
                pairing(
                    &hash_to_g1(format!("msm-p-{i}").as_bytes()).to_affine(),
                    &hash_to_g2(format!("msm-q-{i}").as_bytes()).to_affine(),
                )
            })
            .collect()
    }

    fn naive_sum(points: &[G1], weights: &[u64]) -> G1 {
        points
            .iter()
            .zip(weights)
            .fold(G1::identity(), |acc, (u, &r)| {
                acc.add(&u.mul_fr(&Fr::from_u64(r)))
            })
    }

    fn naive_product(elements: &[Gt], weights: &[u64]) -> Gt {
        elements
            .iter()
            .zip(weights)
            .fold(Gt::one(), |acc, (s, &r)| acc.mul(&s.pow(&Fr::from_u64(r))))
    }

    #[test]
    fn window_width_minimises_the_operation_count() {
        // Small batches fold fastest bit by bit; the width grows with n
        // and settles at 8 for large batches (7 never wins: ⌈64/7⌉ = 10
        // windows against 8 at c = 8).
        let widths: Vec<u32> = [1, 2, 8, 9, 24, 25, 32, 41, 64, 136, 330, 941, 942, 1 << 20]
            .iter()
            .map(|&n| window_bits(n))
            .collect();
        assert_eq!(widths, [1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 6, 8, 8]);
    }

    #[test]
    fn both_sides_match_naive_at_widths_one_to_five() {
        // The first n of widths 1–5, weights exercising high/low bits.
        for (c, n) in [(1, 1usize), (2, 9), (3, 25), (4, 41), (5, 136)] {
            assert_eq!(window_bits(n), c);
            let weights: Vec<u64> = (0..n)
                .map(|i| {
                    u64::MAX
                        .wrapping_mul(i as u64 + 3)
                        .rotate_left(i as u32)
                        .max(1)
                })
                .collect();
            let points = sample_points(n);
            assert_eq!(
                weighted_sum_g1(&points, &weights),
                naive_sum(&points, &weights),
                "G1, n = {n}"
            );
            // An identity term must fold like any other under the
            // identity pass-through.
            let mut elements = sample_elements(n);
            elements[n / 2] = Gt::one();
            assert_eq!(
                weighted_product_gt(&elements, &weights),
                naive_product(&elements, &weights),
                "GT, n = {n}"
            );
        }
    }

    #[test]
    fn empty_and_zero_weight_edges() {
        assert_eq!(weighted_sum_g1(&[], &[]), G1::identity());
        assert_eq!(weighted_product_gt(&[], &[]), Gt::one());
        let points = sample_points(3);
        let elements = sample_elements(3);
        // A zero weight erases the term; extra weights are ignored.
        assert_eq!(
            weighted_sum_g1(&points, &[0, 7, 0, 99]),
            naive_sum(&points, &[0, 7, 0])
        );
        assert_eq!(
            weighted_product_gt(&elements, &[0, 7, 0, 99]),
            naive_product(&elements, &[0, 7, 0])
        );
        // Missing weights truncate the fold.
        assert_eq!(
            weighted_sum_g1(&points, &[5]),
            naive_sum(&points[..1], &[5])
        );
        assert_eq!(
            weighted_product_gt(&elements, &[5]),
            naive_product(&elements[..1], &[5])
        );
    }

    #[test]
    fn weight_one_is_the_plain_fold() {
        let points = sample_points(4);
        let elements = sample_elements(4);
        let ones = [1u64; 4];
        let sum = points.iter().fold(G1::identity(), |acc, u| acc.add(u));
        let product = elements.iter().fold(Gt::one(), |acc, s| acc.mul(s));
        assert_eq!(weighted_sum_g1(&points, &ones), sum);
        assert_eq!(weighted_product_gt(&elements, &ones), product);
    }

    #[test]
    fn weighted_folds_preserve_the_pairing_relation() {
        // Honest designated terms: σᵢ = ê(uᵢ, Q). The two folds must
        // keep ê(Σ rᵢ·uᵢ, Q) = Π σᵢ^{rᵢ} for any weights.
        let q = hash_to_g2(b"msm-relation-q").to_affine();
        let points: Vec<G1> = (0..6)
            .map(|i| hash_to_g1(format!("msm-rel-{i}").as_bytes()))
            .collect();
        let elements: Vec<Gt> = points.iter().map(|u| pairing(&u.to_affine(), &q)).collect();
        let weights: Vec<u64> = (1..=6).map(|i| 0x9E37_79B9_7F4A_7C15u64 ^ i).collect();
        let wu = weighted_sum_g1(&points, &weights);
        assert_eq!(
            pairing(&wu.to_affine(), &q),
            weighted_product_gt(&elements, &weights)
        );
    }
}
