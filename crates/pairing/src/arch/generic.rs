//! The production kernels: unrolled schoolbook/CIOS limb arithmetic with
//! branchless reductions, and lazy-reduction `Fp2` kernels that accumulate
//! full 512-bit products and reduce once per output coefficient.
//!
//! ## Lazy-reduction bounds (proved, not assumed)
//!
//! Let `R = 2²⁵⁶` and `p < 2²⁵⁴` (both BN254 moduli satisfy this). The
//! Montgomery reduction [`redc`] of a 512-bit value `T` returns
//! `(T + k·p)/R` for some `k < R`, which is `< T/R + p`. Hence:
//!
//! * plain product: `T = a·b < p²` → result `< p²/R + p < 2p` — one
//!   conditional subtract yields the canonical representative;
//! * `Fp2` real part: `T = a₀b₀ + p² − a₁b₁ ∈ [0, 2p²)` (the `+p²` keeps
//!   the difference non-negative; `≡ a₀b₀ − a₁b₁ (mod p)`) → result
//!   `< 2p²/R + p < 1.5p < 2p` — one conditional subtract;
//! * `Fp2` imag part (Karatsuba): `T = (a₀+a₁)(b₀+b₁) − a₀b₀ − a₁b₁ < 4p²`
//!   with the unreduced sums `a₀+a₁, b₀+b₁ < 2p < R` → `T < 4p² < p·R`
//!   (because `4p < R`) → result `< 4p²/R + p < 2p` — one subtract.
//!
//! Every `T` above is `< p·R < 2²⁵⁵·R`, so the reduction's high half plus
//! its carry bit never overflows 512 bits. All functions return canonical
//! (`< p`) limbs; the unreduced forms live and die inside this module.

use seccloud_bigint::{adc, mac, sbb};

/// `a + b` over 4 limbs, returning the carry-out (callers pass values whose
/// sum fits 257 bits at most; the carry participates in the reduction).
#[inline(always)]
fn add4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let (r0, c) = adc(a[0], b[0], 0);
    let (r1, c) = adc(a[1], b[1], c);
    let (r2, c) = adc(a[2], b[2], c);
    let (r3, c) = adc(a[3], b[3], c);
    ([r0, r1, r2, r3], c)
}

/// Branchless select-subtract: returns `r − m` when `hi ≠ 0` or `r ≥ m`,
/// else `r`. Correct for any `r + hi·2²⁵⁶ < 2m`.
#[inline(always)]
fn sub_if_above(r: &[u64; 4], hi: u64, m: &[u64; 4]) -> [u64; 4] {
    let (d0, b) = sbb(r[0], m[0], 0);
    let (d1, b) = sbb(r[1], m[1], b);
    let (d2, b) = sbb(r[2], m[2], b);
    let (d3, b) = sbb(r[3], m[3], b);
    // Take the difference when the subtraction did not underflow (b == 0)
    // or the value overflowed past 2²⁵⁶ (hi ≠ 0, so the true value is ≥ m).
    let take = ((b == 0) as u64) | ((hi != 0) as u64);
    let mask = take.wrapping_neg();
    [
        (d0 & mask) | (r[0] & !mask),
        (d1 & mask) | (r[1] & !mask),
        (d2 & mask) | (r[2] & !mask),
        (d3 & mask) | (r[3] & !mask),
    ]
}

/// Full 256×256 → 512-bit schoolbook product.
#[inline(always)]
pub(super) fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    let mut c;
    // i = 0
    (t[0], c) = mac(0, a[0], b[0], 0);
    (t[1], c) = mac(0, a[0], b[1], c);
    (t[2], c) = mac(0, a[0], b[2], c);
    (t[3], c) = mac(0, a[0], b[3], c);
    t[4] = c;
    // i = 1
    (t[1], c) = mac(t[1], a[1], b[0], 0);
    (t[2], c) = mac(t[2], a[1], b[1], c);
    (t[3], c) = mac(t[3], a[1], b[2], c);
    (t[4], c) = mac(t[4], a[1], b[3], c);
    t[5] = c;
    // i = 2
    (t[2], c) = mac(t[2], a[2], b[0], 0);
    (t[3], c) = mac(t[3], a[2], b[1], c);
    (t[4], c) = mac(t[4], a[2], b[2], c);
    (t[5], c) = mac(t[5], a[2], b[3], c);
    t[6] = c;
    // i = 3
    (t[3], c) = mac(t[3], a[3], b[0], 0);
    (t[4], c) = mac(t[4], a[3], b[1], c);
    (t[5], c) = mac(t[5], a[3], b[2], c);
    (t[6], c) = mac(t[6], a[3], b[3], c);
    t[7] = c;
    t
}

/// 512-bit add (caller guarantees the true sum fits 512 bits).
#[inline(always)]
pub(super) fn wide_add(a: &[u64; 8], b: &[u64; 8]) -> [u64; 8] {
    let mut t = [0u64; 8];
    let mut c = 0;
    let mut i = 0;
    while i < 8 {
        (t[i], c) = adc(a[i], b[i], c);
        i += 1;
    }
    debug_assert_eq!(c, 0, "wide_add overflow — lazy bound violated");
    t
}

/// 512-bit subtract (caller guarantees `a ≥ b`).
#[inline(always)]
pub(super) fn wide_sub(a: &[u64; 8], b: &[u64; 8]) -> [u64; 8] {
    let mut t = [0u64; 8];
    let mut bw = 0;
    let mut i = 0;
    while i < 8 {
        (t[i], bw) = sbb(a[i], b[i], bw);
        i += 1;
    }
    debug_assert_eq!(bw, 0, "wide_sub underflow — lazy bound violated");
    t
}

/// Montgomery reduction of a 512-bit value `T < m·2²⁵⁶` to the canonical
/// residue `T·R⁻¹ mod m` (single branchless conditional subtract — see the
/// module-level bounds proof).
#[inline(always)]
pub(super) fn redc(t: [u64; 8], m: &[u64; 4], inv: u64) -> [u64; 4] {
    let [t0, mut t1, mut t2, mut t3, mut t4, mut t5, mut t6, mut t7] = t;
    let mut carry2 = 0u64;

    let k = t0.wrapping_mul(inv);
    let (_, c) = mac(t0, k, m[0], 0);
    let (r1, c) = mac(t1, k, m[1], c);
    let (r2, c) = mac(t2, k, m[2], c);
    let (r3, c) = mac(t3, k, m[3], c);
    t1 = r1;
    t2 = r2;
    t3 = r3;
    let (r4, c2) = adc(t4, carry2, c);
    t4 = r4;
    carry2 = c2;

    let k = t1.wrapping_mul(inv);
    let (_, c) = mac(t1, k, m[0], 0);
    let (r2, c) = mac(t2, k, m[1], c);
    let (r3, c) = mac(t3, k, m[2], c);
    let (r4, c) = mac(t4, k, m[3], c);
    t2 = r2;
    t3 = r3;
    t4 = r4;
    let (r5, c2) = adc(t5, carry2, c);
    t5 = r5;
    carry2 = c2;

    let k = t2.wrapping_mul(inv);
    let (_, c) = mac(t2, k, m[0], 0);
    let (r3, c) = mac(t3, k, m[1], c);
    let (r4, c) = mac(t4, k, m[2], c);
    let (r5, c) = mac(t5, k, m[3], c);
    t3 = r3;
    t4 = r4;
    t5 = r5;
    let (r6, c2) = adc(t6, carry2, c);
    t6 = r6;
    carry2 = c2;

    let k = t3.wrapping_mul(inv);
    let (_, c) = mac(t3, k, m[0], 0);
    let (r4, c) = mac(t4, k, m[1], c);
    let (r5, c) = mac(t5, k, m[2], c);
    let (r6, c) = mac(t6, k, m[3], c);
    t4 = r4;
    t5 = r5;
    t6 = r6;
    let (r7, c2) = adc(t7, carry2, c);
    t7 = r7;
    carry2 = c2;

    sub_if_above(&[t4, t5, t6, t7], carry2, m)
}

/// Montgomery product `a·b·R⁻¹ mod m` — full product then one reduction.
#[inline]
pub fn mont_mul(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4], inv: u64) -> [u64; 4] {
    redc(mul_wide(a, b), m, inv)
}

/// Modular addition on raw limbs with a branchless reduce.
#[inline]
pub fn add_mod(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let (s, carry) = add4(a, b);
    sub_if_above(&s, carry, m)
}

/// Modular subtraction on raw limbs: `a − b`, plus `m` back on underflow.
#[inline]
pub fn sub_mod(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let (d0, bw) = sbb(a[0], b[0], 0);
    let (d1, bw) = sbb(a[1], b[1], bw);
    let (d2, bw) = sbb(a[2], b[2], bw);
    let (d3, bw) = sbb(a[3], b[3], bw);
    let mask = bw.wrapping_neg();
    let (r0, c) = adc(d0, m[0] & mask, 0);
    let (r1, c) = adc(d1, m[1] & mask, c);
    let (r2, c) = adc(d2, m[2] & mask, c);
    let (r3, _) = adc(d3, m[3] & mask, c);
    [r0, r1, r2, r3]
}

/// Modular negation: `m − a`, or zero for zero.
#[inline]
pub fn neg_mod(a: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let nonzero = ((a[0] | a[1] | a[2] | a[3]) != 0) as u64;
    let mask = nonzero.wrapping_neg();
    let (d0, bw) = sbb(m[0] & mask, a[0], 0);
    let (d1, bw) = sbb(m[1] & mask, a[1], bw);
    let (d2, bw) = sbb(m[2] & mask, a[2], bw);
    let (d3, bw) = sbb(m[3] & mask, a[3], bw);
    debug_assert_eq!(bw & nonzero, 0, "neg_mod input must be canonical");
    let _ = bw;
    [d0, d1, d2, d3]
}

/// Lazy-reduction Karatsuba `Fp2` product: three 512-bit products, 512-bit
/// accumulation, and exactly **two** Montgomery reductions (vs three in the
/// strict reference kernel). `m2` must be the 512-bit value `m²`.
#[inline]
pub fn fp2_mul(
    a0: &[u64; 4],
    a1: &[u64; 4],
    b0: &[u64; 4],
    b1: &[u64; 4],
    m: &[u64; 4],
    m2: &[u64; 8],
    inv: u64,
) -> ([u64; 4], [u64; 4]) {
    let wa = mul_wide(a0, b0); // a₀·b₀ < p²
    let wb = mul_wide(a1, b1); // a₁·b₁ < p²
    let (s1, c1) = add4(a0, a1); // < 2p < 2²⁵⁶
    let (s2, c2) = add4(b0, b1);
    debug_assert_eq!(c1 | c2, 0, "canonical inputs sum below 2²⁵⁶");
    let ws = mul_wide(&s1, &s2); // < 4p² < p·R
                                 // Real part: a₀b₀ − a₁b₁ ≡ wa + p² − wb (non-negative, < 2p²).
    let real = wide_sub(&wide_add(&wa, m2), &wb);
    // Imag part: (a₀+a₁)(b₀+b₁) − a₀b₀ − a₁b₁ (exact, < 4p² < p·R).
    let imag = wide_sub(&wide_sub(&ws, &wa), &wb);
    (redc(real, m, inv), redc(imag, m, inv))
}

/// Lazy `Fp2` square: `(a₀+a₁)(a₀−a₁) + 2a₀a₁·u` with unreduced sums and
/// two Montgomery reductions.
#[inline]
pub fn fp2_sqr(a0: &[u64; 4], a1: &[u64; 4], m: &[u64; 4], inv: u64) -> ([u64; 4], [u64; 4]) {
    let (s, c) = add4(a0, a1); // a₀+a₁ < 2p, kept unreduced
    debug_assert_eq!(c, 0);
    let d = sub_mod(a0, a1, m); // canonical (must not underflow)
    let (a1x2, c) = add4(a1, a1); // 2a₁ < 2p, unreduced
    debug_assert_eq!(c, 0);
    // Products < 2p² < p·R → single-subtract reductions stay sound.
    let c0 = redc(mul_wide(&s, &d), m, inv);
    let c1 = redc(mul_wide(a0, &a1x2), m, inv);
    (c0, c1)
}
