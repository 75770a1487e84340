//! Batch verification of designated signatures (paper Section VI),
//! hardened with small-exponent randomization and a `GT` membership check.
//!
//! Given `ℓ` designated signatures `{(Uᵢⱼ, Σᵢⱼ)}` from `k` users, the
//! paper's eq. 8 aggregates
//!
//! ```text
//! Σ_A = Πᵢⱼ Σᵢⱼ                      (GT multiplications)
//! U_A = Σᵢⱼ (Uᵢⱼ + H2(Uᵢⱼ‖mᵢⱼ)·Q_IDᵢ)  (G1 additions)
//! ```
//!
//! and accepts iff `ê(U_A, sk_V) = Σ_A`. That *unweighted* product is
//! not sound on its own: two corruptions whose error terms multiply to
//! one (`Σ₀·e` and `Σ₁·e⁻¹`) cancel inside the aggregate, so the batch
//! accepts a pair of signatures that each fail individually. This
//! verifier therefore draws a fresh random nonzero 64-bit weight `rᵢ`
//! per signature **at verification time** (never before the batch is
//! fixed, so a prover cannot grind against the weights) and checks the
//! standard small-exponent (Bellare–Garay–Rabin) equation
//!
//! ```text
//! ê(Σᵢⱼ rᵢⱼ·Uᵢⱼ + Σᵢ (Σⱼ rᵢⱼ·hᵢⱼ)·Q_IDᵢ, sk_V)  =  Πᵢⱼ Σᵢⱼ^{rᵢⱼ}
//! ```
//!
//! The weights only bound a cheat by 2⁻⁶⁴ when every weighted `Σ` lies
//! in `μ_r`: an element of small order outside it vanishes under a weight
//! that is a multiple of its order (`−Σ` under any even weight, half the
//! draws). [`weighted_sigma_product`] makes sure of that without a
//! subgroup test per `Σ`, here and in the registry's epoch verifier:
//!
//! 1. every weighted `Σ` must pass [`Gt::is_cyclotomic`] (two Frobenius
//!    maps and a product), so it lies in the cyclotomic group of order
//!    `Φ₁₂(p) = p⁴ − p² + 1 = r·h_T`;
//! 2. the product over the weights' low halves, `Π Σᵢ^(r'ᵢ)` with
//!    `r'ᵢ = rᵢ mod 2³²`, must pass one [`Gt::is_in_subgroup`];
//! 3. the weighted equation above must hold.
//!
//! Why that is sound. `gcd(r, h_T) = 1`, so each cyclotomic `Σᵢ` splits
//! uniquely as `σᵢ·zᵢ` with `σᵢ ∈ μ_r` and `zᵢ` of order dividing `h_T`.
//! No prime below 2³² divides `h_T` (checked in `seccloud-pairing`'s
//! `params` tests, the full sweep by `ci.sh`), so every `zᵢ ≠ 1` has
//! order above 2³². Write `rᵢ = hᵢ·2³² + r'ᵢ` with `hᵢ`, `r'ᵢ` independent
//! and uniform in `[0, 2³²)`. Step 2 forces `Π zᵢ^(r'ᵢ) = 1` over the
//! weighted `Σ`. The equation's left side is a pairing value, or a
//! product of pairing values with several keys, and lies in `μ_r`, so
//! step 3 can only hold if the first, unweighted `Σ₀` is cyclotomic too,
//! and it forces `z₀·Π zᵢ^(rᵢ) = 1`, which given step 2 is
//! `z₀·(Π zᵢ^(hᵢ))^(2³²) = 1`. If some weighted `zⱼ ≠ 1`, the two hold for
//! at most one value of `r'ⱼ` and one of `hⱼ` in `[0, 2³²)` (`2 ∤ h_T`, so
//! `zⱼ^(2³²) ≠ 1` has order above 2³² as well): both, with probability
//! ≤ 2⁻⁶⁴. If every weighted `zᵢ = 1`, then `z₀ = 1`, every `Σ` lies in
//! `μ_r` and the small-exponent bound below applies.
//!
//! The first `Σ` takes the weight `r₀ = 1`, so it is never raised to a
//! weight and needs no check. Fixing one weight loses nothing: if only the
//! first term is bad, its error term (`Σ₀` over the pairing value it
//! claims) stands alone in the equation and is not one; if another one,
//! `j`, is bad, its error term has order `r`, so the other weights leave
//! one value of `rⱼ` modulo `r` that passes, which `rⱼ` hits with
//! probability ≤ 2⁻⁶⁴. With that, a batch containing any invalid term
//! survives with probability about 2⁻⁶⁴ per verification attempt,
//! coordinated or not, within one key's terms or across keys.
//!
//! Individual verification costs one pairing per signature. The batch
//! costs one pairing and one subgroup test (about a fifth of a pairing) in
//! total, plus per signature after the first a cyclotomic check and a few
//! group operations in the interleaved folds
//! [`seccloud_pairing::multi_mul_g1`] (the `U`s plus one full-width
//! `h·Q_ID` term per distinct signer) and
//! [`seccloud_pairing::weighted_product_gt_and_low_halves`] — the
//! constant-vs-linear gap of Fig. 5 and Table II is preserved.

use seccloud_hash::{entropy_seed, HmacDrbg};
use seccloud_pairing::{
    multi_mul_g1, pairing_prepared, weighted_product_gt_and_low_halves, Fr, G1Affine, Gt, G1,
};

use crate::keys::{UserPublic, VerifierKey};
use crate::sign::{challenge_hash, DesignatedSignature};

/// One signature in a batch: the signer, the message, and the designated
/// signature to fold in.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The signer's public identity data.
    pub signer: UserPublic,
    /// The signed message bytes.
    pub message: Vec<u8>,
    /// The designated signature `(U, Σ)`.
    pub signature: DesignatedSignature,
}

/// Draws one nonzero 64-bit batch weight per term, seeded from process
/// entropy. Weights must be unpredictable to whoever assembled the batch
/// — they are drawn here, at verification time, never stored.
fn draw_weights(n: usize) -> Vec<u64> {
    // One DRBG output for all weights: each `next_u64` call would pay a
    // state update of its own.
    HmacDrbg::new(&entropy_seed())
        .next_bytes(8 * n)
        .chunks_exact(8)
        .map(|c| {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            u64::from_be_bytes(word).max(1)
        })
        .collect()
}

/// The `Σ` side of every batch check (module docs, steps 1 and 2):
/// `Πᵢ Σᵢ^(rᵢ)` under fresh weights with `r₀ = 1`, and the weights for
/// the caller's `G1` side, or `None` if a `Σ` after the first is not
/// cyclotomic or their low-half product is not in `μ_r`. The caller
/// accepts only if its pairing side, weighted alike, equals the product.
///
/// ```
/// use seccloud_ibs::{designate, sign, weighted_sigma_product, MasterKey};
/// use seccloud_pairing::{Fr, Gt};
///
/// let sio = MasterKey::from_seed(b"sigma-doc");
/// let signed = sign(&sio.extract_user("a"), b"m", b"n");
/// let sigma = *designate(&signed, sio.extract_verifier("cs").public()).sigma();
/// let (product, w) = weighted_sigma_product(&[sigma, sigma]).expect("pairing values");
/// assert_eq!((w[0], product), (1, sigma.pow(&Fr::from_u64(w[1])).mul(&sigma)));
/// assert_eq!(weighted_sigma_product(&[sigma, Gt::from_bytes(&[0; 384]).unwrap()]), None);
/// ```
pub fn weighted_sigma_product(sigmas: &[Gt]) -> Option<(Gt, Vec<u64>)> {
    let Some((first, rest)) = sigmas.split_first() else {
        return Some((Gt::one(), Vec::new()));
    };
    if !rest.iter().all(Gt::is_cyclotomic) {
        return None;
    }
    let drawn = draw_weights(rest.len());
    // The first Σ is unchecked, so it stays out of the cyclotomic fold
    // and is multiplied in by the generic Fp12 product.
    let (product, low) = weighted_product_gt_and_low_halves(rest, &drawn);
    if !rest.is_empty() && !low.is_in_subgroup() {
        return None;
    }
    let weights = std::iter::once(1).chain(drawn).collect();
    Some((product.mul(first), weights))
}

/// One pushed signature: `U`, its challenge `h = H2(U‖m)`, the signer's
/// `Q_ID` and `Σ`.
#[derive(Clone, Debug)]
struct Entry {
    u: G1,
    h: Fr,
    q: G1Affine,
    sigma: Gt,
}

/// An incremental batch verifier ("the signature combination can be
/// performed incrementally", Section VI).
///
/// Each push hashes the challenge and retains `(U, h, Q_ID, Σ)`, so the
/// verifier can weight every signature independently at check time and
/// merge the `h·Q_ID` terms of one signer into a single scalar
/// multiplication; the memory cost is two `G1` points, one scalar and one
/// `GT` element per pending signature, released when the batch is
/// dropped. The `GT` membership check runs where the `Σ` meet their
/// weights, in [`weighted_sigma_product`] (module docs).
///
/// # Examples
///
/// ```
/// use seccloud_ibs::{designate, sign, BatchVerifier, MasterKey};
///
/// let sio = MasterKey::from_seed(b"batch-doc");
/// let server = sio.extract_verifier("cs");
/// let mut batch = BatchVerifier::new();
/// for (who, msg) in [("alice", b"m1".as_slice()), ("bob", b"m2")] {
///     let user = sio.extract_user(who);
///     let sig = designate(&sign(&user, msg, b"n"), server.public());
///     batch.push(user.public().clone(), msg.to_vec(), sig);
/// }
/// assert!(batch.verify(&server));
/// ```
#[derive(Clone, Debug, Default)]
pub struct BatchVerifier {
    /// One entry per pushed signature, in push order.
    entries: Vec<Entry>,
}

impl BatchVerifier {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of signatures pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds one signature into the batch: a challenge hash, no pairing
    /// and no subgroup test.
    pub fn push(&mut self, signer: UserPublic, message: Vec<u8>, signature: DesignatedSignature) {
        self.push_item(&BatchItem {
            signer,
            message,
            signature,
        });
    }

    /// Folds a [`BatchItem`] by reference.
    pub fn push_item(&mut self, item: &BatchItem) {
        let u = *item.signature.u();
        self.entries.push(Entry {
            u,
            h: challenge_hash(&u.to_affine_vartime(), &item.message),
            q: item.signer.q().to_affine_vartime(),
            sigma: *item.signature.sigma(),
        });
    }

    /// Runs the randomized single-pairing batch check with fresh weights
    /// (the first signature's weight is one), after a cyclotomic check of
    /// every other `Σ` and one subgroup test of their combination under
    /// the weights' low halves (module docs).
    ///
    /// An empty batch verifies trivially (`1 = 1`).
    pub fn verify(&self, verifier: &VerifierKey) -> bool {
        self.verify_prepared(&verifier.sk_prepared())
    }

    /// The batch check against an explicit prepared key handle (callers
    /// that amortize `sk_V` lookups through a
    /// [`seccloud_pairing::cache::PreparedCache`] resolve the handle once
    /// and reuse it).
    pub fn verify_prepared(&self, prepared: &seccloud_pairing::G2Prepared) -> bool {
        let Some((first, rest)) = self.entries.split_first() else {
            return true;
        };
        let sigmas: Vec<Gt> = self.entries.iter().map(|e| e.sigma).collect();
        let Some((sigma, weights)) = weighted_sigma_product(&sigmas) else {
            return false;
        };
        // One interleaved pass over the weighted Us and one full-width
        // (Σ w·h)·Q_ID term per signer; the first U enters unweighted.
        let mut terms: Vec<(G1, Fr)> = rest
            .iter()
            .zip(&weights[1..])
            .map(|(e, &w)| (e.u, Fr::from_u64(w)))
            .collect();
        terms.extend(self.signer_terms(&weights));
        let u = multi_mul_g1(&terms).add(&first.u);
        // The fold is already variable-time in the one-use weights, so the
        // public sum takes the variable-time conversion too.
        pairing_prepared(&u.to_affine_vartime(), prepared).ct_eq(&sigma)
    }

    /// `(Q_ID, Σⱼ wⱼ·hⱼ)` per distinct signer, in first-push order, over
    /// per-entry weights `w` (a missing weight counts as 1).
    fn signer_terms(&self, weights: &[u64]) -> Vec<(G1, Fr)> {
        let mut terms: Vec<(G1Affine, Fr)> = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            let w = weights.get(i).map_or(Fr::one(), |&w| Fr::from_u64(w));
            let c = w.mul(&e.h);
            match terms.iter_mut().rev().find(|(q, _)| *q == e.q) {
                Some((_, acc)) => *acc = acc.add(&c),
                None => terms.push((e.q, c)),
            }
        }
        terms.into_iter().map(|(q, c)| (G1::from(q), c)).collect()
    }

    /// The unweighted aggregate `(U_A, Σ_A)` of paper eq. 8, or `None`
    /// for an empty batch.
    ///
    /// This is the *transport* form — collapsing a sub-batch to one
    /// `(G1, GT)` pair for wire transfer or coarse-grained folding. A
    /// verifier consuming aggregates can only weight per *aggregate*, not
    /// per signature, so whoever produced the aggregate vouches for its
    /// internal consistency; a one-signature aggregate is that
    /// signature's own term `(U + h·Q_ID, Σ)`, weighted on its own. The
    /// consumer checks `Σ_A`'s membership where it weights it
    /// ([`weighted_sigma_product`]), so nothing is tested here: one scalar
    /// multiplication per distinct signer and no subgroup test.
    pub fn aggregate(&self) -> Option<(G1, Gt)> {
        if self.entries.is_empty() {
            return None;
        }
        let sigma = self
            .entries
            .iter()
            .fold(Gt::one(), |acc, e| acc.mul(&e.sigma));
        let u = self
            .entries
            .iter()
            .fold(multi_mul_g1(&self.signer_terms(&[])), |acc, e| {
                acc.add(&e.u)
            });
        Some((u, sigma))
    }
}

/// Verifies a slice of batch items one by one (the `2ℓ`-pairing baseline the
/// paper compares against; here each check is one pairing since `Σ` is
/// precomputed). Returns the index of the first invalid item, or `None` when
/// all verify.
pub fn verify_individually(items: &[BatchItem], verifier: &VerifierKey) -> Option<usize> {
    items
        .iter()
        .position(|item| !item.signature.verify(verifier, &item.signer, &item.message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::MasterKey;
    use crate::sign::{designate, sign};
    use seccloud_pairing::pairing;

    fn make_items(n: usize, users: usize, seed: &str) -> (MasterKey, VerifierKey, Vec<BatchItem>) {
        let m = MasterKey::from_seed(seed.as_bytes());
        let v = m.extract_verifier("cs-batch");
        let items = (0..n)
            .map(|i| {
                let user = m.extract_user(&format!("user-{}", i % users));
                let msg = format!("block-{i}").into_bytes();
                let sig = designate(&sign(&user, &msg, b"n"), v.public());
                BatchItem {
                    signer: user.public().clone(),
                    message: msg,
                    signature: sig,
                }
            })
            .collect();
        (m, v, items)
    }

    #[test]
    fn batch_accepts_valid_multi_user_set() {
        let (_, v, items) = make_items(12, 4, "batch-ok");
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert_eq!(b.len(), 12);
        assert!(b.verify(&v));
        assert_eq!(verify_individually(&items, &v), None);
    }

    #[test]
    fn empty_batch_is_trivially_valid() {
        let m = MasterKey::from_seed(b"empty");
        let v = m.extract_verifier("cs");
        assert!(BatchVerifier::new().verify(&v));
        assert!(BatchVerifier::new().is_empty());
    }

    #[test]
    fn single_item_batch_equals_individual() {
        let (_, v, items) = make_items(1, 1, "single");
        let mut b = BatchVerifier::new();
        b.push_item(&items[0]);
        assert!(b.verify(&v));
    }

    #[test]
    fn a_batch_pays_one_subgroup_test_whatever_its_size() {
        // Each weighted Σ pays a cyclotomic check; the batch pays one
        // subgroup test, none when no Σ is weighted.
        for (n, subgroup_tests) in [(1, 0), (2, 1), (12, 1)] {
            let (_, v, items) = make_items(n, 3, "one-test");
            let mut b = BatchVerifier::new();
            for item in &items {
                b.push_item(item);
            }
            let before = seccloud_pairing::counters::snapshot();
            assert!(b.verify(&v));
            let spent = seccloud_pairing::counters::snapshot().since(&before);
            assert_eq!(
                (spent.gt_subgroup_tests, spent.gt_cyclotomic_checks),
                (subgroup_tests, n as u64 - 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn one_bad_signature_poisons_the_batch() {
        let (_, v, mut items) = make_items(8, 3, "poison");
        // Corrupt item 5's message after signing.
        items[5].message = b"tampered".to_vec();
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert!(!b.verify(&v));
        assert_eq!(verify_individually(&items, &v), Some(5));
    }

    #[test]
    fn coordinated_cancelling_corruptions_fail() {
        // The attack the unweighted eq.-8 product accepts: scale Σ₀ by a
        // nontrivial error e and Σ₁ by e⁻¹, so the *unweighted* product
        // Π Σᵢ is unchanged while both items fail individually. The
        // randomized weights give the pair Σ₀^{r₀}·Σ₁^{r₁} with r₀ ≠ r₁
        // (w.h.p.), so the errors no longer cancel.
        let (_, v, mut items) = make_items(4, 2, "cancel");
        let e = pairing(&G1::generator().to_affine(), &v.public().q().to_affine());
        let bump = |sig: &DesignatedSignature, factor: &Gt| {
            DesignatedSignature::from_parts(*sig.u(), sig.sigma().mul(factor))
        };
        items[0].signature = bump(&items[0].signature, &e);
        items[1].signature = bump(&items[1].signature, &e.invert());
        // Sanity: both items are individually invalid, and the unweighted
        // aggregate really is unchanged (the cancellation is real).
        assert_eq!(verify_individually(&items, &v), Some(0));
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        let honest = {
            let (_, v2, honest_items) = make_items(4, 2, "cancel");
            assert_eq!(v2.public().q(), v.public().q());
            let mut hb = BatchVerifier::new();
            for item in &honest_items {
                hb.push_item(item);
            }
            hb
        };
        assert_eq!(
            b.aggregate().map(|(_, s)| s),
            honest.aggregate().map(|(_, s)| s),
            "test premise: errors cancel in the unweighted product"
        );
        assert!(!b.verify(&v), "weighted check must catch the coordination");
    }

    #[test]
    fn wrong_verifier_rejects_batch() {
        let (m, _, items) = make_items(4, 2, "wrongv");
        let other = m.extract_verifier("someone-else");
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert!(!b.verify(&other));
    }

    #[test]
    fn forged_sigma_cannot_pass_even_if_u_adjusted() {
        // An adversary who scales Σ must break the pairing relation.
        let (_, v, mut items) = make_items(3, 1, "forge");
        let bad = items[0].signature.sigma().mul(items[1].signature.sigma());
        items[0].signature =
            crate::sign::DesignatedSignature::from_parts(*items[0].signature.u(), bad);
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert!(!b.verify(&v));
    }

    #[test]
    fn swapped_signatures_between_messages_fail() {
        // Valid signatures attached to the wrong messages must not slip
        // through the aggregate (they cancel only with negligible prob).
        let (_, v, mut items) = make_items(2, 2, "swap");
        let s0 = items[0].signature.clone();
        items[0].signature = items[1].signature.clone();
        items[1].signature = s0;
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        assert!(!b.verify(&v));
    }

    #[test]
    fn batch_is_order_independent() {
        let (_, v, items) = make_items(6, 3, "order");
        let mut fwd = BatchVerifier::new();
        let mut rev = BatchVerifier::new();
        for item in &items {
            fwd.push_item(item);
        }
        for item in items.iter().rev() {
            rev.push_item(item);
        }
        assert!(fwd.verify(&v) && rev.verify(&v));
        assert_eq!(fwd.aggregate(), rev.aggregate());
    }

    #[test]
    fn identity_scaled_sigma_rejected() {
        // Multiplying Σ by a nontrivial GT element must break verification.
        let (_, v, mut items) = make_items(1, 1, "scale");
        let tweak = pairing(&G1::generator().to_affine(), &v.public().q().to_affine());
        let bad = items[0].signature.sigma().mul(&tweak);
        items[0].signature =
            crate::sign::DesignatedSignature::from_parts(*items[0].signature.u(), bad);
        let mut b = BatchVerifier::new();
        b.push_item(&items[0]);
        assert!(!b.verify(&v));
        let _ = Fr::zero().is_zero(); // keep FieldElement import exercised
    }

    /// `Σ` with every `Fp12` coefficient negated — `−Σ`, which has a
    /// canonical encoding and order `2r`.
    fn negated(sigma: &Gt) -> Gt {
        let bytes: Vec<u8> = sigma
            .to_bytes()
            .chunks_exact(32)
            .flat_map(|c| {
                let fp = seccloud_pairing::Fp::from_be_bytes(c.try_into().expect("32 bytes"))
                    .expect("canonical");
                seccloud_pairing::FieldElement::neg(&fp).to_be_bytes()
            })
            .collect();
        Gt::from_bytes(&bytes).expect("canonical")
    }

    #[test]
    fn negated_sigma_is_rejected_in_every_trial() {
        // Without the subgroup test an even weight sends (−1)^r to 1 and
        // the batch [honest, −Σ] passes about half the time.
        let (_, v, items) = make_items(2, 2, "negated");
        let mut forged = items[1].clone();
        forged.signature = DesignatedSignature::from_parts(
            *forged.signature.u(),
            negated(forged.signature.sigma()),
        );
        assert_eq!(verify_individually(&[forged.clone()], &v), Some(0));
        assert!(!forged.signature.sigma().is_in_subgroup());
        for trial in 0..200 {
            let mut b = BatchVerifier::new();
            b.push_item(&items[0]);
            b.push_item(&forged);
            assert!(!b.verify(&v), "trial {trial}");
            let (_, sigma) = b.aggregate().expect("non-empty");
            assert_eq!(weighted_sigma_product(&[Gt::one(), sigma]), None);
        }
    }

    #[test]
    fn an_untested_first_sigma_still_cannot_forge() {
        // The first Σ takes weight one and no test: −Σ there must still
        // fail every trial. The aggregate hands Σ_A on untested, and the
        // Σ side of the fold that weighs it rejects it.
        let (_, v, items) = make_items(3, 3, "negated-first");
        let mut forged = items[0].clone();
        forged.signature = DesignatedSignature::from_parts(
            *forged.signature.u(),
            negated(forged.signature.sigma()),
        );
        // (verdict, subgroup tests, standalone cyclotomic checks)
        let tests = |f: &dyn Fn() -> bool| {
            let before = seccloud_pairing::counters::snapshot();
            let verdict = f();
            let spent = seccloud_pairing::counters::snapshot().since(&before);
            (verdict, spent.gt_subgroup_tests, spent.gt_cyclotomic_checks)
        };
        let mut b = BatchVerifier::new();
        b.push_item(&forged);
        b.push_item(&items[1]);
        b.push_item(&items[2]);
        assert_eq!(tests(&|| b.verify(&v)), (false, 1, 2));
        assert!(!forged.signature.sigma().is_in_subgroup());
        assert_eq!(tests(&|| b.aggregate().is_some()), (true, 0, 0));
        for trial in 0..200 {
            assert!(!b.verify(&v), "trial {trial}");
        }
        let (_, sigma) = b.aggregate().expect("non-empty");
        assert_eq!(
            weighted_sigma_product(&[*items[1].signature.sigma(), sigma]),
            None
        );
        let mut honest = BatchVerifier::new();
        for item in &items {
            honest.push_item(item);
        }
        assert!(items.iter().all(|i| i.signature.sigma().is_in_subgroup()) && honest.verify(&v));
    }

    #[test]
    fn poison_outlasts_later_honest_pushes() {
        let (_, v, items) = make_items(3, 1, "poison-order");
        let mut b = BatchVerifier::new();
        let bad = DesignatedSignature::from_parts(*items[0].signature.u(), Gt::one().invert());
        b.push(
            items[0].signer.clone(),
            items[0].message.clone(),
            bad.clone(),
        );
        assert!(
            bad.sigma().is_in_subgroup(),
            "1 is in the subgroup; the pairing check rejects it"
        );
        assert!(!b.verify(&v));
        let zero = Gt::from_bytes(&[0u8; 384]).expect("canonical");
        b.push(
            items[1].signer.clone(),
            items[1].message.clone(),
            DesignatedSignature::from_parts(*items[1].signature.u(), zero),
        );
        b.push_item(&items[2]);
        assert!(!zero.is_in_subgroup() && !b.verify(&v));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn per_signer_merge_matches_per_term_sum() {
        // The aggregate merges each signer's h·Q_ID terms into one scalar
        // multiplication; it must equal the sum of the one-signature
        // aggregates' points.
        let (_, v, items) = make_items(7, 3, "merge");
        let mut b = BatchVerifier::new();
        for item in &items {
            b.push_item(item);
        }
        let (u, sigma) = b.aggregate().expect("non-empty");
        let terms: Vec<(G1, Gt)> = items
            .iter()
            .map(|item| {
                let mut one = BatchVerifier::new();
                one.push_item(item);
                one.aggregate().expect("one signature")
            })
            .collect();
        let sum = terms.iter().fold(G1::identity(), |acc, (t, _)| acc.add(t));
        assert_eq!(u, sum);
        assert_eq!(
            sigma,
            terms.iter().fold(Gt::one(), |acc, (_, s)| acc.mul(s))
        );
        assert!(b.verify(&v));
    }

    #[test]
    fn individual_checks_pay_one_pairing_each() {
        // ℓ individual checks: ℓ single-lane Miller loops and ℓ final
        // exponentiations, and no GT membership test beyond the pairing.
        let (_, v, items) = make_items(5, 2, "individual");
        let before = seccloud_pairing::counters::snapshot();
        assert_eq!(verify_individually(&items, &v), None);
        let spent = seccloud_pairing::counters::snapshot().since(&before);
        assert_eq!(
            (
                spent.miller_loops,
                spent.miller_lanes,
                spent.final_exponentiations,
                spent.gt_subgroup_tests,
                spent.gt_cyclotomic_checks
            ),
            (5, 5, 5, 0, 0)
        );
    }

    #[test]
    fn the_sigma_side_checks_all_but_the_first_and_tests_once() {
        let (_, _, items) = make_items(4, 2, "sigma-side");
        let sigmas: Vec<Gt> = items.iter().map(|i| *i.signature.sigma()).collect();
        let before = seccloud_pairing::counters::snapshot();
        let (product, weights) = weighted_sigma_product(&sigmas).expect("pairing values");
        let spent = seccloud_pairing::counters::snapshot().since(&before);
        assert_eq!(
            (spent.gt_subgroup_tests, spent.gt_cyclotomic_checks),
            (1, 3)
        );
        assert_eq!(weights.len(), 4);
        assert_eq!(weights[0], 1);
        let naive = sigmas
            .iter()
            .zip(&weights)
            .fold(Gt::one(), |acc, (s, &w)| acc.mul(&s.pow(&Fr::from_u64(w))));
        assert_eq!(product, naive);
        // One Σ is taken as it is; none gives the empty product.
        assert_eq!(
            weighted_sigma_product(&sigmas[..1]),
            Some((sigmas[0], vec![1]))
        );
        assert_eq!(weighted_sigma_product(&[]), Some((Gt::one(), vec![])));
    }

    #[test]
    fn drawn_weights_are_nonzero_and_fresh() {
        let a = draw_weights(64);
        let b = draw_weights(64);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&r| r != 0));
        assert_ne!(a, b, "weights must differ across verification attempts");
    }
}
