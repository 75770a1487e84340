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
//! [`multi_mul_g1`] (`Σᵢ kᵢ·uᵢ ∈ G1`) and [`weighted_product_gt`]
//! (`Πᵢ σᵢ^{rᵢ} ∈ GT`) share two fold loops and pick between them by
//! each call's operation count: an interleaved signed-window (Straus) pass
//! — one shared doubling chain, a table of odd multiples per term — for
//! small batches, and the shared-window bucket method (Pippenger), whose
//! marginal cost per term is a handful of group operations, above the
//! crossover (for 64-bit weights; a wider `G1` scalar always takes the
//! Straus pass). The two sides are separate calls because they need not cover
//! the same terms: the sharded epoch verifier sums `G1` once per shard
//! (each shard pairs with its own key) but multiplies every shard's `σ`
//! terms in one `GT` fold, whose larger term count makes it cheaper than
//! one fold per shard.
//!
//! The `GT` side runs cyclotomic arithmetic — Granger–Scott squarings and
//! conjugation as the inverse — so every `σ` it folds must be cyclotomic
//! ([`crate::Gt::is_cyclotomic`]). For the 2⁻⁶⁴ bound a value from the
//! wire must moreover pass [`crate::Gt::is_in_subgroup`] before it is
//! weighted; the batch verifier tests every `σ` it weights.

use crate::ec::wnaf_digits;
use crate::fr::Fr;
use crate::g1::{G1Affine, G1};
use crate::pairing::Gt;

/// Number of bits in the batch-verification weights.
pub const WEIGHT_BITS: u32 = 64;

/// The bucket loop's expected group operations for `n` terms at window
/// width `c`: `⌈64/c⌉·(c + n·(1−2⁻ᶜ) + 2·(2ᶜ−1))` — `c` doublings, one
/// bucket add per term with a nonzero digit, and the running-sum
/// aggregation, per window.
fn bucket_ops(n: usize, c: u32) -> f64 {
    let buckets = f64::from((1u32 << c) - 1);
    let nonzero_digit = buckets / (buckets + 1.0);
    f64::from(WEIGHT_BITS.div_ceil(c)) * (f64::from(c) + n as f64 * nonzero_digit + 2.0 * buckets)
}

/// Bucket-window width for a batch of `n` terms: the `c ∈ 1..=8` that
/// minimises [`bucket_ops`]. Ties go to the narrower window.
fn window_bits(n: usize) -> u32 {
    (2..=8).fold(1, |best, c| {
        if bucket_ops(n, c) < bucket_ops(n, best) {
            c
        } else {
            best
        }
    })
}

/// Group operations per term of the Straus pass: the odd-multiple table
/// `{x, 3x, 5x, 7x}` (one doubling, three additions) plus one addition
/// per nonzero width-4 wNAF digit of a 64-bit weight, about `64/5`.
const STRAUS_OPS_PER_TERM: f64 = 4.0 + WEIGHT_BITS as f64 / 5.0;

/// Whether the interleaved Straus pass folds `n` 64-bit-weighted terms in
/// fewer group operations than the bucket loop at its best width: its `65`
/// shared doublings plus [`STRAUS_OPS_PER_TERM`] per term, against
/// [`bucket_ops`] at [`window_bits`]. The crossover sits near 200 terms.
///
/// The model counts every group operation alike (a `G1` doubling and
/// addition, a cyclotomic squaring and an `Fp12` product), so the exact
/// crossover is a model, not a measurement (EXPERIMENTS measures both
/// loops around it); the folds the verifiers run sit away from it (≤ 64
/// terms on one side, ≥ 255 on the other).
fn straus_wins(n: usize) -> bool {
    f64::from(WEIGHT_BITS + 1) + n as f64 * STRAUS_OPS_PER_TERM < bucket_ops(n, window_bits(n))
}

/// The group operations the fold loops need, written additively.
trait FoldGroup: Copy {
    /// A Straus table entry, in the form that adds fastest.
    type Entry: Copy;
    fn identity() -> Self;
    fn op(&self, rhs: &Self) -> Self;
    fn twice(&self) -> Self;
    /// The entries of finished table rows.
    fn entries(rows: &[[Self; 4]]) -> Vec<[Self::Entry; 4]>;
    /// `self ± e`.
    fn op_entry(&self, e: &Self::Entry, negate: bool) -> Self;
}

impl FoldGroup for G1 {
    /// Affine, so each Straus step is a mixed addition; the tables are
    /// normalized with one inversion in all.
    type Entry = G1Affine;
    fn identity() -> Self {
        G1::identity()
    }
    fn op(&self, rhs: &Self) -> Self {
        self.add(rhs)
    }
    fn twice(&self) -> Self {
        self.double()
    }
    fn entries(rows: &[[Self; 4]]) -> Vec<[G1Affine; 4]> {
        let flat: Vec<G1> = rows.iter().flatten().copied().collect();
        G1::batch_to_affine_vartime(&flat)
            .chunks_exact(4)
            .map(|c| [c[0], c[1], c[2], c[3]])
            .collect()
    }
    fn op_entry(&self, e: &G1Affine, negate: bool) -> Self {
        if negate {
            self.add_affine(&e.neg())
        } else {
            self.add_affine(e)
        }
    }
}

impl FoldGroup for Gt {
    type Entry = Gt;
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
    /// Cyclotomic squaring: valid because every folded `σ` is cyclotomic
    /// (see the module docs), and so is every product of them.
    fn twice(&self) -> Self {
        if self.is_one() {
            return *self;
        }
        Gt::from_unchecked_fp12(self.as_fp12().cyclotomic_square())
    }
    fn entries(rows: &[[Self; 4]]) -> Vec<[Gt; 4]> {
        rows.to_vec()
    }
    /// A negative digit multiplies by the conjugate, the inverse of a
    /// cyclotomic element.
    fn op_entry(&self, e: &Gt, negate: bool) -> Self {
        if negate {
            self.op(&e.invert())
        } else {
            self.op(e)
        }
    }
}

/// The odd multiples `{x, 3x, 5x, 7x}` a Straus lane adds from.
fn odd_multiples<T: FoldGroup>(x: &T) -> [T; 4] {
    let twice = x.twice();
    let mut row = [*x; 4];
    for i in 1..4 {
        row[i] = row[i - 1].op(&twice);
    }
    row
}

/// `Σ dᵢ·xᵢ` by interleaved signed windows (Straus) over `lanes` of a
/// term and its scalar's width-4 wNAF digits (least significant first):
/// each term gets the table `{x, 3x, 5x, 7x}`.
fn straus_fold<T: FoldGroup>(lanes: &[(T, Vec<i64>)]) -> T {
    let rows: Vec<[T; 4]> = lanes.iter().map(|(x, _)| odd_multiples(x)).collect();
    let digits: Vec<&[i64]> = lanes.iter().map(|(_, d)| d.as_slice()).collect();
    straus_walk(&T::entries(&rows), &digits)
}

/// The Straus pass proper: one shared doubling chain walks every lane's
/// digit columns from the top, adding `tables[i]`'s entry for each nonzero
/// digit of `digits[i]`; a negative digit adds the inverse of its entry.
fn straus_walk<T: FoldGroup>(tables: &[[T::Entry; 4]], digits: &[&[i64]]) -> T {
    let columns = digits.iter().map(|d| d.len()).max().unwrap_or(0);
    let mut acc = T::identity();
    for i in (0..columns).rev() {
        acc = acc.twice();
        for (table, lane) in tables.iter().zip(digits) {
            let d = lane.get(i).copied().unwrap_or(0);
            if d != 0 {
                acc = acc.op_entry(&table[d.unsigned_abs() as usize / 2], d < 0);
            }
        }
    }
    acc
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

/// The sum `Σᵢ kᵢ·pᵢ ∈ G1` over public scalars.
///
/// When every scalar fits 64 bits and [`straus_wins`] does not hold for the
/// term count — a large batch of random weights — this is one bucket pass
/// (the epoch verifier's fold). Otherwise it is one interleaved Straus
/// pass: a scalar above 64 bits enters as its two ≈ 127-bit GLV halves
/// `k₁·p + k₂·φ(p)`, a smaller one as itself, so a batch verifier can fold
/// its 64-bit-weighted `U`s and one full-width `h·Q_ID` term per signer
/// under a single doubling chain of about 128 steps — against one 128-step
/// chain per term for separate [`G1::mul_fr`] calls. Cost per lane: one
/// addition per nonzero digit, plus a table of four points per term (a
/// GLV pair's second table is the first's image under `φ`, one `Fp`
/// product per entry).
///
/// Batch-verification callers draw their weights from `[1, 2⁶⁴)`: a zero
/// weight erases its term.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{hash_to_g1, multi_mul_g1, Fr};
///
/// let (p, q) = (hash_to_g1(b"p"), hash_to_g1(b"q"));
/// let (a, b) = (Fr::from_u64(3), Fr::hash(b"b"));
/// assert_eq!(multi_mul_g1(&[(p, a), (q, b)]), p.mul_fr(&a).add(&q.mul_fr(&b)));
/// ```
pub fn multi_mul_g1(terms: &[(G1, Fr)]) -> G1 {
    let scalars: Vec<_> = terms.iter().map(|(_, k)| k.to_u256()).collect();
    let narrow = |s: &seccloud_bigint::U256| s.limbs()[1..].iter().all(|&l| l == 0);
    if !straus_wins(terms.len()) && scalars.iter().all(narrow) {
        let points: Vec<G1> = terms.iter().map(|(p, _)| *p).collect();
        let weights: Vec<u64> = scalars.iter().map(|s| s.limbs()[0]).collect();
        return bucket_fold(&points, &weights);
    }
    // One table row per term; a wide term's row serves both GLV lanes.
    let mut rows = Vec::with_capacity(terms.len());
    let mut flips = Vec::with_capacity(terms.len());
    let mut digits = Vec::with_capacity(2 * terms.len());
    for ((p, k), scalar) in terms.iter().zip(&scalars) {
        if narrow(scalar) {
            rows.push(odd_multiples(p));
            flips.push(None);
            digits.push(wnaf_digits(&scalar.limbs()[..1]));
        } else {
            let (p1, k1, flip, k2) = crate::glv::split_relative(p, k);
            rows.push(odd_multiples(&p1));
            flips.push(Some(flip));
            digits.push(wnaf_digits(k1.limbs()));
            digits.push(wnaf_digits(k2.limbs()));
        }
    }
    let mut tables = Vec::with_capacity(digits.len());
    for (table, flip) in G1::entries(&rows).into_iter().zip(flips) {
        tables.push(table);
        if let Some(flip) = flip {
            tables.push(table.map(|e| {
                let e = crate::glv::endo_affine(&e);
                if flip {
                    e.neg()
                } else {
                    e
                }
            }));
        }
    }
    let digits: Vec<&[i64]> = digits.iter().map(Vec::as_slice).collect();
    straus_walk(&tables, &digits)
}

/// The weighted product `Πᵢ σᵢ^{rᵢ} ∈ GT` over `elements = [σᵢ]` and
/// `weights = [rᵢ]`, by whichever fold loop [`straus_wins`] picks for the
/// term count (extra entries on either side are ignored).
///
/// A zero weight erases its term — batch-verification callers must draw
/// weights from `[1, 2⁶⁴)`.
///
/// Precondition: every `σᵢ` is cyclotomic ([`Gt::is_cyclotomic`]), as
/// every pairing value and every element passing [`Gt::is_in_subgroup`]
/// is. The fold squares with the cyclotomic formula and inverts by
/// conjugation, which give garbage on other inputs.
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
    let n = elements.len().min(weights.len());
    if straus_wins(n) {
        straus_fold(&lanes(elements, weights))
    } else {
        bucket_fold(elements, weights)
    }
}

/// One Straus lane per term: the term and its weight's wNAF digits.
fn lanes<T: Copy>(terms: &[T], weights: &[u64]) -> Vec<(T, Vec<i64>)> {
    terms
        .iter()
        .zip(weights)
        .map(|(x, &r)| (*x, wnaf_digits(&[r])))
        .collect()
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

    /// `multi_mul_g1` over 64-bit weights.
    fn weighted_sum(points: &[G1], weights: &[u64]) -> G1 {
        let terms: Vec<(G1, Fr)> = points
            .iter()
            .zip(weights)
            .map(|(p, &r)| (*p, Fr::from_u64(r)))
            .collect();
        multi_mul_g1(&terms)
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
                weighted_sum(&points, &weights),
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
        assert_eq!(multi_mul_g1(&[]), G1::identity());
        assert_eq!(weighted_product_gt(&[], &[]), Gt::one());
        let points = sample_points(3);
        let elements = sample_elements(3);
        // A zero weight erases the term; extra weights are ignored.
        assert_eq!(
            weighted_sum(&points, &[0, 7, 0]),
            naive_sum(&points, &[0, 7, 0])
        );
        assert_eq!(
            weighted_product_gt(&elements, &[0, 7, 0, 99]),
            naive_product(&elements, &[0, 7, 0])
        );
        // Missing weights truncate the fold.
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
        assert_eq!(weighted_sum(&points, &ones), sum);
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
        let wu = weighted_sum(&points, &weights);
        assert_eq!(
            pairing(&wu.to_affine(), &q),
            weighted_product_gt(&elements, &weights)
        );
    }

    #[test]
    fn straus_gives_way_to_buckets_near_two_hundred_terms() {
        let crossover = (1..4096)
            .find(|&n| !straus_wins(n))
            .expect("buckets win eventually");
        assert!((150..300).contains(&crossover), "crossover at {crossover}");
        assert!((crossover..4096).all(|n| !straus_wins(n)));
        // The epoch verifier's 10k-term folds stay on buckets.
        assert!(!straus_wins(10_000));
    }

    #[test]
    fn both_loops_match_naive_on_both_sides() {
        // Each loop directly, on the same inputs, with an identity term
        // and weights exercising the top and bottom bits.
        for n in [1usize, 2, 9, 41] {
            let weights: Vec<u64> = (0..n)
                .map(|i| {
                    u64::MAX
                        .wrapping_mul(i as u64 + 5)
                        .rotate_left(3 * i as u32)
                        .max(1)
                })
                .collect();
            let points = sample_points(n);
            let mut elements = sample_elements(n);
            elements[n / 2] = Gt::one();
            let (sum, product) = (
                naive_sum(&points, &weights),
                naive_product(&elements, &weights),
            );
            assert_eq!(
                straus_fold(&lanes(&points, &weights)),
                sum,
                "G1 Straus, n = {n}"
            );
            assert_eq!(bucket_fold(&points, &weights), sum, "G1 buckets, n = {n}");
            assert_eq!(
                straus_fold(&lanes(&elements, &weights)),
                product,
                "GT Straus, n = {n}"
            );
            assert_eq!(
                bucket_fold(&elements, &weights),
                product,
                "GT buckets, n = {n}"
            );
        }
        let edges = [1u64, 2, 7, 8, 15, 16, u64::MAX, 1 << 63, (1 << 63) - 1];
        let points = sample_points(edges.len());
        assert_eq!(weighted_sum(&points, &edges), naive_sum(&points, &edges));
    }

    #[test]
    fn multi_mul_takes_the_bucket_loop_past_the_crossover() {
        // 64-bit weights past the crossover fold by buckets; one wider
        // scalar sends the same batch through the Straus pass. Both equal
        // the per-term sum.
        let n = (1..4096).find(|&n| !straus_wins(n)).expect("crossover");
        let points = sample_points(n);
        let weights: Vec<u64> = (0..n as u64)
            .map(|i| 0x9E37_79B9_7F4A_7C15 ^ (i << 40))
            .collect();
        let expected = naive_sum(&points, &weights);
        assert_eq!(weighted_sum(&points, &weights), expected);
        let mut terms: Vec<(G1, Fr)> = points
            .iter()
            .zip(&weights)
            .map(|(p, &r)| (*p, Fr::from_u64(r)))
            .collect();
        let wide = Fr::hash(b"msm-wide");
        terms.push((points[0], wide));
        assert_eq!(multi_mul_g1(&terms), expected.add(&points[0].mul_fr(&wide)));
    }

    #[test]
    fn multi_mul_matches_separate_multiplications() {
        let points = sample_points(6);
        let scalars = [
            Fr::from_u64(7),
            Fr::hash(b"msm-full-1"),
            Fr::zero().sub(&Fr::one()),
            Fr::from_u64(u64::MAX),
            Fr::zero(),
            Fr::hash(b"msm-full-2"),
        ];
        let terms: Vec<(G1, Fr)> = points.iter().copied().zip(scalars).collect();
        let expected = terms
            .iter()
            .fold(G1::identity(), |acc, (p, k)| acc.add(&p.mul_fr(k)));
        assert_eq!(multi_mul_g1(&terms), expected);
        assert_eq!(multi_mul_g1(&[]), G1::identity());
        assert_eq!(
            multi_mul_g1(&[(G1::identity(), scalars[1])]),
            G1::identity()
        );
    }
}
