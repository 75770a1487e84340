//! BN254 curve parameters and runtime-derived constants.
//!
//! The only *transcribed* inputs are the BN parameter `x`, the two moduli
//! (`p`, `r`) and the standard generators; every other constant (trace,
//! `G2` cofactor, final-exponentiation exponent, Frobenius coefficients) is
//! derived from them at first use and cross-checked by tests.

use std::sync::OnceLock;

use seccloud_bigint::ApInt;

use crate::fp::Fp;
use crate::fr::Fr;

/// The BN construction parameter `x = 4965661367192848881`
/// (so `p = 36x⁴ + 36x³ + 24x² + 6x + 1`, `r = 36x⁴ + 36x³ + 18x² + 6x + 1`,
/// `t = 6x² + 1`).
pub const BN_X: u64 = 4_965_661_367_192_848_881;

/// The base-field characteristic `p` as an arbitrary-precision integer.
pub fn p_apint() -> &'static ApInt {
    static P: OnceLock<ApInt> = OnceLock::new();
    P.get_or_init(|| ApInt::from_uint(&Fp::modulus()))
}

/// The group order `r` as an arbitrary-precision integer.
pub fn r_apint() -> &'static ApInt {
    static R: OnceLock<ApInt> = OnceLock::new();
    R.get_or_init(|| ApInt::from_uint(&Fr::modulus()))
}

/// The Frobenius trace `t = 6x² + 1`.
pub fn trace() -> &'static ApInt {
    static T: OnceLock<ApInt> = OnceLock::new();
    T.get_or_init(|| {
        let x = ApInt::from_u64(BN_X);
        &(&(&x * &x) * &ApInt::from_u64(6)) + &ApInt::one()
    })
}

/// The `G2` cofactor `c₂ = p − 1 + t` (so `#E'(Fp2) = c₂ · r`).
pub fn g2_cofactor() -> &'static ApInt {
    static C2: OnceLock<ApInt> = OnceLock::new();
    C2.get_or_init(|| &p_apint().checked_sub(&ApInt::one()).expect("p > 1") + trace())
}

/// The hard part of the final exponentiation, `(p⁴ − p² + 1)/r`.
///
/// The full final exponent factors as
/// `(p¹² − 1)/r = (p⁶ − 1)(p² + 1) · (p⁴ − p² + 1)/r`; the first two factors
/// are applied with cheap Frobenius maps and this value is the remaining
/// genuine exponentiation.
pub fn final_exp_hard_part() -> &'static ApInt {
    static E: OnceLock<ApInt> = OnceLock::new();
    E.get_or_init(|| {
        let p = p_apint();
        let p2 = p * p;
        let p4 = &p2 * &p2;
        let numerator = &p4.checked_sub(&p2).expect("p⁴ > p²") + &ApInt::one();
        let (q, rem) = numerator.divrem(r_apint()).expect("r nonzero");
        assert!(rem.is_zero(), "r must divide p⁴ − p² + 1 for a BN curve");
        q
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bn_polynomial_identities() {
        // p and r must satisfy the BN parameterization in terms of x.
        let x = ApInt::from_u64(BN_X);
        let x2 = &x * &x;
        let x3 = &x2 * &x;
        let x4 = &x3 * &x;
        let c36x4 = &x4 * &ApInt::from_u64(36);
        let c36x3 = &x3 * &ApInt::from_u64(36);
        let c6x = &x * &ApInt::from_u64(6);

        let p_expected =
            &(&(&c36x4 + &c36x3) + &(&x2 * &ApInt::from_u64(24))) + &(&c6x + &ApInt::one());
        assert_eq!(&p_expected, p_apint(), "p = 36x⁴+36x³+24x²+6x+1");

        let r_expected =
            &(&(&c36x4 + &c36x3) + &(&x2 * &ApInt::from_u64(18))) + &(&c6x + &ApInt::one());
        assert_eq!(&r_expected, r_apint(), "r = 36x⁴+36x³+18x²+6x+1");

        // r = p + 1 − t
        let r_from_trace = &p_apint().checked_sub(trace()).expect("p > t") + &ApInt::one();
        assert_eq!(&r_from_trace, r_apint());
    }

    #[test]
    fn moduli_are_prime() {
        let mut state = 0xabcdef12345678u64;
        let mut entropy = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        assert!(seccloud_bigint::is_probable_prime(
            p_apint(),
            16,
            &mut entropy
        ));
        assert!(seccloud_bigint::is_probable_prime(
            r_apint(),
            16,
            &mut entropy
        ));
    }

    #[test]
    fn final_exponent_reconstructs() {
        // hard · r = p⁴ − p² + 1
        let p = p_apint();
        let p2 = p * p;
        let p4 = &p2 * &p2;
        let want = &p4.checked_sub(&p2).unwrap() + &ApInt::one();
        assert_eq!(&(final_exp_hard_part() * r_apint()), &want);
    }

    #[test]
    fn cofactor_magnitude_is_plausible() {
        // Hasse over Fp2: #E'(Fp2) = c₂·r must be within 2p of p² + 1.
        let n2 = g2_cofactor() * r_apint();
        let p = p_apint();
        let p2_plus_1 = &(p * p) + &ApInt::one();
        let diff = if n2 > p2_plus_1 {
            n2.checked_sub(&p2_plus_1).unwrap()
        } else {
            p2_plus_1.checked_sub(&n2).unwrap()
        };
        assert!(diff < &ApInt::from_u64(2) * p, "Hasse bound over Fp²");
    }

    /// The known prime factor `q₁ ≈ 2^38.8` of the `GT` cofactor
    /// `h_T = Φ₁₂(p)/r`.
    const Q1: u64 = 493_356_762_637;

    /// `Φ₁₂(p) = p⁴ − p² + 1 mod q` for `q < 2³²`, from `x mod q` through
    /// `p = 36x⁴ + 36x³ + 24x² + 6x + 1` (every product stays below 2⁶⁴).
    fn phi12_p_mod(q: u64) -> u64 {
        let mul = |a: u64, b: u64| a * b % q;
        let x = BN_X % q;
        let (x2, x3) = (mul(x, x), mul(mul(x, x), x));
        let x4 = mul(x3, x);
        let p = (mul(36 % q, x4) + mul(36 % q, x3) + mul(24 % q, x2) + mul(6 % q, x) + 1) % q;
        let p2 = mul(p, p);
        (mul(p2, p2) + q - p2 + 1) % q
    }

    /// Calls `f` on every prime `q ≡ 1 (mod 12)` below `limit ≤ 2³²`, by a
    /// sieve over that residue class alone: a base prime `b ≥ 5` divides
    /// the class members `b·t` with `t ≡ b (mod 12)` (each unit mod 12 is
    /// its own inverse), one every `12·b`.
    fn for_each_prime_1_mod_12(limit: u64, mut f: impl FnMut(u64)) {
        let root = (1u64..).find(|r| r * r >= limit).expect("limit ≤ 2⁶⁴");
        let base: Vec<u64> = (5..=root)
            .filter(|&b| (2..b).take_while(|d| d * d <= b).all(|d| b % d != 0))
            .collect();
        // One segment holds the class members lo, lo + 12, …
        const SEGMENT: u64 = 1 << 20;
        let mut composite = vec![false; SEGMENT as usize];
        let mut lo = 13;
        while lo < limit {
            let hi = (lo + 12 * SEGMENT).min(limit);
            composite.fill(false);
            for &b in &base {
                let mut t = (lo.div_ceil(b)).max(b);
                t += (b % 12 + 12 - t % 12) % 12;
                let mut m = b * t;
                while m < hi {
                    composite[((m - lo) / 12) as usize] = true;
                    m += 12 * b;
                }
            }
            for (k, &c) in composite.iter().enumerate() {
                let q = lo + 12 * k as u64;
                if q >= hi {
                    break;
                }
                if !c {
                    f(q);
                }
            }
            lo = hi + (13 - hi % 12) % 12;
        }
    }

    /// Asserts that no prime `q ≡ 1 (mod 12)` below `limit` divides
    /// `Φ₁₂(p)` and returns how many primes it tried.
    fn assert_no_factor_1_mod_12_below(limit: u64) -> u64 {
        let mut tried = 0;
        for_each_prime_1_mod_12(limit, |q| {
            tried += 1;
            assert_ne!(phi12_p_mod(q), 0, "{q} divides Φ₁₂(p)");
        });
        tried
    }

    #[test]
    fn cofactor_factors_that_bound_the_batch_check() {
        // The batch verifier's 2⁻⁶⁴ bound (ibs::batch) needs every prime
        // factor of h_T above 2³². The cheap facts, then a short sweep.
        let h_t = final_exp_hard_part();
        let divides = |q: &ApInt| h_t.rem(q).is_zero();
        assert!(divides(&ApInt::from_u64(Q1)), "q₁ divides h_T");
        assert!(!divides(r_apint()), "gcd(r, h_T) = 1");
        assert!(!divides(&ApInt::from_u64(2)) && !divides(&ApInt::from_u64(3)));
        // A prime q ≥ 5 dividing Φ₁₂(p) has q ≡ 1 (mod 12); every prime
        // below 2¹⁶ fails to divide, whatever its class.
        let small =
            (5u64..1 << 16).filter(|&q| (2..q).take_while(|d| d * d <= q).all(|d| q % d != 0));
        for q in small {
            assert_ne!(phi12_p_mod(q), 0, "{q} divides Φ₁₂(p)");
        }
        // The residue arithmetic agrees with the big integers.
        let phi12 = h_t * r_apint();
        for q in [13u64, 37, 65_521, 4_294_967_291] {
            assert!(
                phi12.rem(&ApInt::from_u64(q)).eq_u64(phi12_p_mod(q)),
                "mod {q}"
            );
        }
        // The sieve finds every class member below 2¹⁰ that is prime.
        let mut found = Vec::new();
        for_each_prime_1_mod_12(1 << 10, |q| found.push(q));
        let expected: Vec<u64> = (13u64..1 << 10)
            .filter(|&q| q % 12 == 1 && (2..q).take_while(|d| d * d <= q).all(|d| q % d != 0))
            .collect();
        assert_eq!(found, expected);
        assert_eq!(assert_no_factor_1_mod_12_below(1 << 20), 20_455);
    }

    /// The full sweep behind the batch bound: no prime below 2³² divides
    /// `h_T` (a prime `q < 2³² < r` divides `h_T` iff it divides
    /// `Φ₁₂(p)`). Release build: `cargo test --release -p
    /// seccloud-pairing --lib -- --ignored cofactor_has_no_prime_factor_below_2_32`
    /// (`ci.sh` runs it).
    #[test]
    #[ignore = "sweeps 50.8 million primes; ci.sh runs it in a release build"]
    fn cofactor_has_no_prime_factor_below_2_32() {
        assert_eq!(assert_no_factor_1_mod_12_below(1 << 32), 50_817_938);
    }
}
