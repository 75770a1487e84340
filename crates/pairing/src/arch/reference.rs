//! The strict reference kernels — the original field arithmetic of this
//! crate, kept verbatim as the test oracle the production kernels are
//! checked against. Every operation reduces eagerly: no value wider than
//! 4 limbs ever survives past a single operation.

use seccloud_bigint::{adc, mac, U256};

/// Loop-based CIOS Montgomery multiplication with a strict final subtract.
pub fn mont_mul(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4], inv: u64) -> [u64; 4] {
    let mut t = [0u64; 6];
    for &ai in a.iter() {
        let mut carry = 0;
        for j in 0..4 {
            let (lo, c) = mac(t[j], ai, b[j], carry);
            t[j] = lo;
            carry = c;
        }
        let (lo, c) = adc(t[4], carry, 0);
        t[4] = lo;
        t[5] = c;

        let k = t[0].wrapping_mul(inv);
        let (_, mut carry) = mac(t[0], k, m[0], 0);
        for j in 1..4 {
            let (lo, c) = mac(t[j], k, m[j], carry);
            t[j - 1] = lo;
            carry = c;
        }
        let (lo, c) = adc(t[4], carry, 0);
        t[3] = lo;
        t[4] = t[5] + c;
        t[5] = 0;
    }
    let mut out = U256::from_limbs([t[0], t[1], t[2], t[3]]);
    let modulus = U256::from_limbs(*m);
    if t[4] != 0 || out >= modulus {
        out = out.wrapping_sub(&modulus);
    }
    *out.limbs()
}

/// Modular addition via `U256` round-trips (the original implementation).
pub fn add_mod(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let a = U256::from_limbs(*a);
    let b = U256::from_limbs(*b);
    let m = U256::from_limbs(*m);
    // a, b < m < 2²⁵⁵ so no carry out of 256 bits.
    let mut s = a.wrapping_add(&b);
    if s >= m {
        s = s.wrapping_sub(&m);
    }
    *s.limbs()
}

/// Modular subtraction via `U256` round-trips (the original implementation).
pub fn sub_mod(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let a = U256::from_limbs(*a);
    let b = U256::from_limbs(*b);
    let (mut d, borrow) = a.overflowing_sub(&b);
    if borrow {
        d = d.wrapping_add(&U256::from_limbs(*m));
    }
    *d.limbs()
}

/// Modular negation (the original implementation).
pub fn neg_mod(a: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    if *a == [0u64; 4] {
        return *a;
    }
    let m = U256::from_limbs(*m);
    let v = U256::from_limbs(*a);
    *m.wrapping_sub(&v).limbs()
}

/// Strict Karatsuba `Fp2` product (3 reduced multiplications), exactly as
/// the tower computed it before the lazy-reduction kernels.
pub fn fp2_mul(
    a0: &[u64; 4],
    a1: &[u64; 4],
    b0: &[u64; 4],
    b1: &[u64; 4],
    m: &[u64; 4],
    inv: u64,
) -> ([u64; 4], [u64; 4]) {
    let aa = mont_mul(a0, b0, m, inv);
    let bb = mont_mul(a1, b1, m, inv);
    let sa = add_mod(a0, a1, m);
    let sb = add_mod(b0, b1, m);
    let sum = mont_mul(&sa, &sb, m, inv);
    let c0 = sub_mod(&aa, &bb, m);
    let c1 = sub_mod(&sub_mod(&sum, &aa, m), &bb, m);
    (c0, c1)
}

/// Strict `Fp2` square `(a+b)(a−b) + 2ab·u` (2 reduced multiplications).
pub fn fp2_sqr(a0: &[u64; 4], a1: &[u64; 4], m: &[u64; 4], inv: u64) -> ([u64; 4], [u64; 4]) {
    let plus = add_mod(a0, a1, m);
    let minus = sub_mod(a0, a1, m);
    let c0 = mont_mul(&plus, &minus, m, inv);
    let cross = mont_mul(a0, a1, m, inv);
    let c1 = add_mod(&cross, &cross, m);
    (c0, c1)
}
