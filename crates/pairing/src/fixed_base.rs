//! Fixed-base powers in `GT` via a precomputed window table.
//!
//! A designated signature is `Σ = K^(r+h)` for a fixed `K = ê(sk_ID, Q_V)`,
//! the exponent is secret, and `K` is the same for every signature a user
//! designates to one verifier. A signer that keeps `K`'s [`GtPowTable`]
//! therefore pays 64 constant-time table scans and 63 `Fp12` products per
//! designation instead of a pairing.

use crate::fp12::Fp12;
use crate::fr::Fr;
use crate::pairing::Gt;
use crate::traits::FieldElement;

/// Number of 4-bit windows in a 256-bit scalar.
const WINDOWS: usize = 64;

/// Entries per window of a [`GtPowTable`]: `B^(d·16^w)` for `d ∈ 0..=8`,
/// the magnitudes of the signed radix-16 digits `−8..=7`.
const GT_ENTRIES: usize = 9;

/// A fixed-base table for constant-time powers of one `GT` element `B`:
/// 64 windows of 9 entries, `windows[w][d] = B^(d·16^w)`, 216 KiB.
///
/// [`Self::pow_ct`] recodes the exponent into 64 signed radix-16 digits in
/// `−8..=7` with branch-free carry arithmetic, scans all 9 entries of
/// each window through [`FieldElement::ct_select`], conjugates the pick
/// (the inverse, since `B ∈ μ_r` is unitary) under a masked select when
/// the digit is negative, and multiplies: 64 scans and 63 `Fp12`
/// products, with the same instruction and memory-access sequence for
/// every exponent. No digit is used as an index or a branch.
///
/// The table of `K = ê(sk_ID, Q_V)` is as secret as `sk_ID` (with it
/// anyone can forge that user's signatures designated to `V`), so the
/// type is secret material: its `Debug` prints nothing of the entries and
/// every entry is zeroized on drop.
///
/// # Examples
///
/// ```
/// use seccloud_pairing::{hash_to_g1, hash_to_g2, pairing, Fr, GtPowTable};
///
/// let k = pairing(&hash_to_g1(b"p").to_affine(), &hash_to_g2(b"q").to_affine());
/// let table = GtPowTable::new(&k);
/// let e = Fr::hash(b"exponent");
/// assert_eq!(table.pow_ct(&e), k.pow(&e));
/// ```
// lint: secret
pub struct GtPowTable {
    windows: Vec<[Fp12; GT_ENTRIES]>,
}

impl GtPowTable {
    /// Builds the table of `base`, which must lie in `μ_r` (any pairing
    /// value does): 64 windows of one cyclotomic squaring and seven
    /// products each.
    pub fn new(base: &Gt) -> Self {
        let mut windows = Vec::with_capacity(WINDOWS);
        let mut pow = *base.as_fp12(); // B^(16^w)
        for _ in 0..WINDOWS {
            let mut row = [Fp12::one(); GT_ENTRIES];
            row[1] = pow;
            for d in 2..GT_ENTRIES {
                row[d] = row[d - 1].mul(&pow);
            }
            pow = row[GT_ENTRIES - 1].cyclotomic_square(); // (B^(8·16^w))²
            windows.push(row);
        }
        Self { windows }
    }

    /// `B^k` in constant time. `k < r < 2²⁵⁴`, so the top window's digit
    /// is at most 4 and the recoding never carries out of the 64 windows.
    #[must_use]
    pub fn pow_ct(&self, k: &Fr) -> Gt {
        let scalar = k.to_u256();
        let limbs = scalar.limbs();
        let mut acc = Fp12::one();
        let mut carry = 0u64;
        for (w, row) in self.windows.iter().enumerate() {
            let t = ((limbs[w / 16] >> (4 * (w % 16))) & 0xf) + carry; // 0..=16
            carry = (t + 8) >> 4; // 1 exactly when t ≥ 8
            let digit = t.wrapping_sub(carry << 4); // t − 16·carry, two's complement
            let negative = digit >> 63;
            let mask = negative.wrapping_neg();
            let magnitude = (digit ^ mask).wrapping_sub(mask);
            let mut entry = Fp12::one();
            for (j, candidate) in (0u64..).zip(row.iter()) {
                // 1 exactly when j == magnitude, by mask arithmetic.
                let diff = j ^ magnitude;
                let hit = ((diff | diff.wrapping_neg()) >> 63) ^ 1;
                entry = Fp12::ct_select(&entry, candidate, hit);
            }
            entry = Fp12::ct_select(&entry, &entry.conjugate(), negative);
            acc = if w == 0 { entry } else { acc.mul(&entry) };
        }
        Gt::from_unchecked_fp12(acc)
    }
}

impl Drop for GtPowTable {
    fn drop(&mut self) {
        for row in &mut self.windows {
            for entry in row.iter_mut() {
                seccloud_hash::wipe_copy(entry, Fp12::zero());
            }
        }
    }
}

impl std::fmt::Debug for GtPowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GtPowTable").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_bigint::U256;

    use crate::g1::hash_to_g1;
    use crate::g2::hash_to_g2;
    use crate::pairing::pairing;

    #[test]
    fn gt_table_matches_square_and_multiply() {
        let base = pairing(
            &hash_to_g1(b"gt-table-p").to_affine(),
            &hash_to_g2(b"gt-table-q").to_affine(),
        );
        let table = GtPowTable::new(&base);
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        // Digit 8 in all but the top window carries through every window;
        // r − 1 has the largest top window.
        let e = 0x8888_8888_8888_8888;
        let eights = Fr::from_u256(&U256::from_limbs([e, e, e, e >> 4]));
        for k in [
            Fr::zero(),
            Fr::one(),
            Fr::from_u64(8),
            Fr::from_u64(0x78),
            r_minus_1,
        ]
        .into_iter()
        .chain([eights])
        .chain((0..6u32).map(|i| Fr::hash(format!("gt-table-{i}").as_bytes())))
        {
            assert_eq!(table.pow_ct(&k), base.pow(&k), "k = {k:?}");
        }
        assert_eq!(table.pow_ct(&r_minus_1), base.invert());
    }

    #[test]
    fn gt_table_debug_is_redacted() {
        let table = GtPowTable::new(&Gt::one());
        assert_eq!(format!("{table:?}"), "GtPowTable { .. }");
        assert!(table.pow_ct(&Fr::hash(b"id")).is_one());
    }
}
