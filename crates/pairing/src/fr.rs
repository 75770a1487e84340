//! The BN254 scalar field `Fr` (the paper's `Z_q`).

use crate::mont_field;

mont_field!(
    Fr,
    // r = 36x⁴ + 36x³ + 18x² + 6x + 1 for x = 4965661367192848881
    "30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001",
    "The BN254 scalar field `F_r` — the group order `q` of the paper."
);

impl Fr {
    /// The paper's `H : {0,1}* → Z_q` — a domain-separated hash into the
    /// scalar field, used for Merkle leaves and challenge derivation.
    ///
    /// # Examples
    ///
    /// ```
    /// use seccloud_pairing::Fr;
    /// let a = Fr::hash(b"result-42");
    /// assert_eq!(a, Fr::hash(b"result-42"));
    /// assert_ne!(a, Fr::hash(b"result-43"));
    /// ```
    pub fn hash(msg: &[u8]) -> Self {
        Self::from_hash(b"seccloud/H", msg)
    }

    /// The paper's `H2 : {0,1}* → Z_q*` — like [`Fr::hash`] but never
    /// zero. SHA-256 reads `msg` once, in the shape of RFC 9380
    /// `expand_message_xmd`: with `DST' = "seccloud/H2" ‖ I2OSP(11, 1)`,
    ///
    /// ```text
    /// b₀ = SHA-256(Z_pad ‖ msg ‖ I2OSP(64, 2) ‖ I2OSP(0, 1) ‖ DST')   Z_pad = 64 zero bytes
    /// b₁ = SHA-256(b₀ ‖ I2OSP(1, 1) ‖ DST')
    /// bᵢ = SHA-256((b₀ ⊕ bᵢ₋₁) ‖ I2OSP(i, 1) ‖ DST')
    /// ```
    ///
    /// Attempt `k = 0, 1, …` reads `b₂ₖ₊₁ ‖ b₂ₖ₊₂` as a 64-byte big-endian
    /// integer reduced mod `r` and returns the first nonzero one; attempt 0
    /// is exactly `expand_message_xmd(msg, "seccloud/H2", 64)`, and a zero
    /// (probability ~2⁻²⁵⁴) continues the chain instead of rehashing `msg`.
    pub fn hash_nonzero(msg: &[u8]) -> Self {
        const DST: &[u8] = b"seccloud/H2";
        let dst_prime = [DST, &[DST.len() as u8]].concat();
        let mut h = seccloud_hash::Sha256::new();
        h.update(&[0u8; 64]);
        h.update(msg);
        h.update(&[0, 64, 0]);
        h.update(&dst_prime);
        let b0 = h.finalize();
        let mut block = [0u8; 32];
        let mut index = 0u8;
        let mut next_block = || {
            index = index.wrapping_add(1);
            let mut chained = b0;
            for (c, b) in chained.iter_mut().zip(block) {
                *c ^= b;
            }
            let mut h = seccloud_hash::Sha256::new();
            h.update(&chained);
            h.update(&[index]);
            h.update(&dst_prime);
            block = h.finalize();
            block
        };
        loop {
            let v = Self::from_bytes_wide(&[next_block(), next_block()].concat());
            if !v.is_zero() {
                return v;
            }
        }
    }

    /// Maps arbitrary bytes to a near-uniform scalar with a caller-chosen
    /// domain tag.
    pub fn from_hash(domain: &[u8], msg: &[u8]) -> Self {
        let wide = seccloud_hash::hash_to_int_bytes(domain, msg, 64);
        Self::from_bytes_wide(&wide)
    }

    /// Draws a uniform nonzero scalar from a DRBG.
    pub fn random_nonzero(drbg: &mut seccloud_hash::HmacDrbg) -> Self {
        loop {
            let wide = drbg.next_bytes(64);
            let v = Self::from_bytes_wide(&wide);
            if !v.is_zero() {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_bigint::U256;
    use seccloud_hash::{HmacDrbg, Sha256};

    fn fr(d: &mut HmacDrbg) -> Fr {
        Fr::from_u256(&U256::from_limbs(std::array::from_fn(|_| d.next_u64())))
    }

    #[test]
    fn modulus_is_the_bn254_group_order() {
        // r = p + 1 - t with t = 6x² + 1, x = 4965661367192848881.
        use seccloud_bigint::ApInt;
        let x = ApInt::from_u64(4_965_661_367_192_848_881);
        let six_x2 = &(&x * &x) * &ApInt::from_u64(6);
        let p = ApInt::from_uint(&crate::Fp::modulus());
        let r = ApInt::from_uint(&Fr::modulus());
        // p - r = t - 1 = 6x²
        assert_eq!(p.checked_sub(&r).unwrap(), six_x2);
    }

    #[test]
    fn hash_nonzero_is_never_zero() {
        for i in 0..50u32 {
            assert!(!Fr::hash_nonzero(&i.to_be_bytes()).is_zero());
        }
    }

    #[test]
    fn hash_nonzero_follows_its_documented_construction() {
        // Recompute H2 from the doc comment's formulas on a storage-sized
        // (16 KiB) input, one SHA-256 call per block.
        let msg: Vec<u8> = (0..16 * 1024u32).map(|i| (i * 31 + 7) as u8).collect();
        let dst_prime = b"seccloud/H2\x0b";
        let b0 = Sha256::digest(&[&[0u8; 64][..], &msg, &[0, 64, 0], dst_prime].concat());
        let b1 = Sha256::digest(&[&b0[..], &[1], dst_prime].concat());
        let x: Vec<u8> = b0.iter().zip(b1).map(|(a, b)| a ^ b).collect();
        let b2 = Sha256::digest(&[&x[..], &[2], dst_prime].concat());
        let want = Fr::from_bytes_wide(&[b1, b2].concat());
        assert_eq!(Fr::hash_nonzero(&msg), want);
        assert_ne!(Fr::hash_nonzero(&msg[1..]), want);
    }

    #[test]
    fn random_nonzero_is_deterministic_per_seed() {
        let mut d1 = seccloud_hash::HmacDrbg::new(b"seed");
        let mut d2 = seccloud_hash::HmacDrbg::new(b"seed");
        assert_eq!(Fr::random_nonzero(&mut d1), Fr::random_nonzero(&mut d2));
    }

    #[test]
    fn field_axioms() {
        let mut d = HmacDrbg::new(b"fr-axioms");
        for _ in 0..48 {
            let (a, b, c) = (fr(&mut d), fr(&mut d), fr(&mut d));
            assert_eq!((a + b) + c, a + (b + c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert!((a - a).is_zero());
        }
    }

    #[test]
    fn inverse_law() {
        let mut d = HmacDrbg::new(b"fr-inv");
        for _ in 0..48 {
            let a = fr(&mut d);
            if let Some(inv) = a.inverse() {
                assert_eq!(a * inv, Fr::one());
            } else {
                assert!(a.is_zero());
            }
        }
    }
}
