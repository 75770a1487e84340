//! Cross-user, cross-shard batch verification fused into one Miller loop,
//! with small-exponent randomization.

use std::sync::Arc;

use seccloud_ibs::{draw_weights, BatchVerifier};
use seccloud_pairing::{
    multi_miller_loop, multi_mul_g1, weighted_product_gt, Fr, G1Affine, G2Prepared, Gt, G1,
};

/// One shard's retained verification terms in the sense of paper eq. (8):
/// the pairs `(Uᵢⱼ + hᵢⱼ·Q_IDᵢ, Σᵢⱼ)` for every audited signature (or
/// pre-merged aggregate) routed to the shard, plus the signature count.
#[derive(Clone, Debug, Default)]
struct Lane {
    terms: Vec<(G1, Gt)>,
    folded: usize,
}

/// Accumulates per-shard verification terms over an epoch and checks them
/// all with a **single** [`multi_miller_loop`] call, weighted by fresh
/// verifier-drawn randomness.
///
/// Each shard verifies against its own prepared key `sk_{V_s}` (shards
/// have distinct designated verifiers). At verification time every
/// retained term gets an independent nonzero 64-bit weight `r`, drawn
/// *after* the batch is fixed, and the per-shard checks — paper eq. (9),
/// one per shard — fuse into
///
/// ```text
/// Π_s ê(Σᵢ rₛᵢ·uₛᵢ, sk_{V_s})  =  Π_s Πᵢ Σₛᵢ^{rₛᵢ}
/// ```
///
/// evaluated as one shared Miller loop and one final exponentiation,
/// regardless of how many users, signatures or shards contributed. The
/// left side's `G1` sums stay per shard, because each pairs with its own
/// key; the right side is one product, so all shards' `Σ` terms share one
/// [`weighted_product_gt`] fold. The marginal cost of an extra audited
/// signature is a `G1`/`GT` slot at fold time plus a few group operations
/// in its shard's [`multi_mul_g1`] and in the epoch-wide `GT` fold at
/// verify time; the marginal cost of an extra *shard* is one Miller-loop
/// argument plus one `G1` fold.
///
/// Soundness is the standard small-exponent argument: any set of
/// corruptions — including coordinated ones whose error terms multiply
/// to one, within a lane or across lanes — survives the weighted product
/// only if the adversary predicts the weights, i.e. with probability
/// ≤ 2⁻⁶⁴ per verification attempt, provided every `Σ` lies in `μ_r`.
/// Terms folded through [`Self::fold_aggregate`] are weighted per
/// *aggregate* (the caller pre-merged them), so whoever produced the
/// aggregate vouches for its internal consistency and for its `Σ` being
/// in `μ_r`; [`Self::fold`] retains per-signature terms after
/// [`BatchVerifier::is_poisoned`] has tested them, and needs no such
/// trust.
#[derive(Clone, Debug)]
pub struct EpochVerifier {
    epoch: u64,
    lanes: Vec<Lane>,
    /// Whether a folded batch held a `Σ` outside `μ_r`, or a folded
    /// aggregate a `Σ` that is not cyclotomic.
    poisoned: bool,
}

impl EpochVerifier {
    /// An empty accumulator for `shards` shards (clamped to ≥ 1) in
    /// `epoch`.
    pub fn new(shards: u32, epoch: u64) -> Self {
        Self {
            epoch,
            lanes: vec![Lane::default(); shards.max(1) as usize],
            poisoned: false,
        }
    }

    /// The epoch this accumulator covers.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The number of shard lanes.
    pub fn shard_count(&self) -> u32 {
        self.lanes.len() as u32
    }

    /// Total signatures folded across all shards.
    pub fn folded(&self) -> usize {
        self.lanes.iter().map(|l| l.folded).sum()
    }

    /// Signatures folded into one shard's lane (0 if out of range).
    pub fn shard_folded(&self, shard: u32) -> usize {
        self.lanes.get(shard as usize).map_or(0, |l| l.folded)
    }

    /// Folds one signature's aggregate terms — `u = U + h·Q_ID` and
    /// `sigma = Σ` — into `shard`'s lane, counting it as `count`
    /// signatures (batched pushes fold pre-merged terms, which share one
    /// verification weight — see the type docs). Out-of-range shards are
    /// ignored and reported as `false`.
    ///
    /// The producer vouches that `sigma` lies in `μ_r`, as
    /// [`BatchVerifier::aggregate`] does by refusing a `Σ_A` outside `μ_r`.
    /// There is no subgroup test here: at ~0.1 ms one would cost more than
    /// the ~50 µs a folded aggregate costs in all, and an epoch of 64 folds
    /// would pay it 64 times. The few-µs [`Gt::is_cyclotomic`] check does
    /// run: a `sigma` that fails it (zero, say) would leave the cyclotomic
    /// `GT` fold's product meaningless, so it fails the epoch instead.
    pub fn fold_aggregate(&mut self, shard: u32, u: &G1, sigma: &Gt, count: usize) -> bool {
        let Some(lane) = self.lanes.get_mut(shard as usize) else {
            return false;
        };
        if !sigma.is_cyclotomic() {
            self.poisoned = true;
        }
        lane.terms.push((*u, *sigma));
        lane.folded += count;
        true
    }

    /// Folds a whole per-user [`BatchVerifier`] into `shard`'s lane,
    /// retaining each signature's term so every signature gets its own
    /// verification weight. An out-of-range shard is rejected (`false`)
    /// even when the batch is empty — agreeing with
    /// [`Self::fold_aggregate`] so callers can use the result to validate
    /// shard routing; an empty batch for a *valid* shard folds nothing
    /// and returns `true`. A poisoned batch (a `Σ` outside `μ_r`) fails
    /// the whole epoch's [`Self::verify`].
    pub fn fold(&mut self, shard: u32, batch: &BatchVerifier) -> bool {
        let Some(lane) = self.lanes.get_mut(shard as usize) else {
            return false;
        };
        if batch.is_poisoned() {
            self.poisoned = true;
        } else {
            lane.terms.extend(batch.terms());
        }
        lane.folded += batch.len();
        true
    }

    /// Checks every folded term in one fused pairing evaluation, under
    /// fresh random weights.
    ///
    /// `keys[s]` is shard `s`'s prepared verifier key `sk_{V_s}`; shards
    /// that folded nothing are skipped, and a shard that folded
    /// signatures but has no key fails the whole epoch (a missing key
    /// must never silently skip real audits). An accumulator with no
    /// folded signatures at all verifies vacuously.
    pub fn verify(&self, keys: &[Arc<G2Prepared>]) -> bool {
        if self.poisoned {
            return false;
        }
        let mut live = Vec::with_capacity(self.lanes.len());
        for (lane, shard) in self.lanes.iter().zip(0..) {
            if lane.terms.is_empty() {
                continue;
            }
            let Some(key) = keys.get(shard) else {
                return false;
            };
            live.push((lane, key.as_ref()));
        }
        if live.is_empty() {
            return true;
        }
        // One weight per term, in lane order, drawn after the batch is
        // fixed. Each lane's G1 fold takes the weights from its offset on
        // and ignores the ones past its own terms. The folds already run
        // in time variable in the weights, which are used once and then
        // dropped, so the affine conversion may be variable-time too.
        let weights = draw_weights(live.iter().map(|(lane, _)| lane.terms.len()).sum());
        let mut args: Vec<(G1Affine, &G2Prepared)> = Vec::with_capacity(live.len());
        let mut sigmas = Vec::with_capacity(weights.len());
        let mut offset = 0;
        for (lane, key) in live {
            let terms: Vec<(G1, Fr)> = lane
                .terms
                .iter()
                .zip(weights.get(offset..).unwrap_or_default())
                .map(|((u, _), &w)| (*u, Fr::from_u64(w)))
                .collect();
            let u = multi_mul_g1(&terms);
            offset += lane.terms.len();
            args.push((u.to_affine_vartime(), key));
            sigmas.extend(lane.terms.iter().map(|(_, sigma)| *sigma));
        }
        let pairs: Vec<(&G1Affine, &G2Prepared)> = args.iter().map(|(p, k)| (p, *k)).collect();
        multi_miller_loop(&pairs) == weighted_product_gt(&sigmas, &weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_ibs::{designate, sign, MasterKey};
    use seccloud_pairing::pairing;

    /// Builds `users` users spread over `shards` shards, each signing
    /// `per_user` messages to its shard's own verifier, folded both into
    /// an `EpochVerifier` and returned per-shard for cross-checking.
    fn folded_epoch(
        users: usize,
        per_user: usize,
        shards: u32,
    ) -> (EpochVerifier, Vec<Arc<G2Prepared>>) {
        let sio = MasterKey::from_seed(b"registry-batch-tests");
        let verifiers: Vec<_> = (0..shards)
            .map(|s| sio.extract_verifier(&format!("da/shard-{s}")))
            .collect();
        let keys: Vec<Arc<G2Prepared>> = verifiers.iter().map(|v| v.sk_prepared()).collect();
        let mut epoch = EpochVerifier::new(shards, 1);
        for i in 0..users {
            let id = format!("tenant-{i}");
            let user = sio.extract_user(&id);
            let shard = crate::shard_of(&id, 1, shards);
            let verifier = &verifiers[shard as usize];
            let mut batch = BatchVerifier::new();
            for j in 0..per_user {
                let msg = format!("block {i}/{j}").into_bytes();
                let nonce = format!("nonce {i}/{j}").into_bytes();
                let designated = designate(&sign(&user, &msg, &nonce), verifier.public());
                batch.push(user.public().clone(), msg, designated);
            }
            assert!(epoch.fold(shard, &batch));
        }
        (epoch, keys)
    }

    /// A nontrivial `GT` error term for corruption tests.
    fn error_term() -> Gt {
        pairing(
            &seccloud_pairing::hash_to_g1(b"err-p").to_affine(),
            &seccloud_pairing::hash_to_g2(b"err-q").to_affine(),
        )
    }

    /// Per-lane `(u, Σ)` terms, indexed by shard.
    type Lanes = Vec<Vec<(G1, Gt)>>;

    /// `shards` lanes of two honest terms each, every lane designated to
    /// its own shard's verifier.
    fn lanes_of_two(shards: u32) -> (Lanes, Vec<Arc<G2Prepared>>) {
        let sio = MasterKey::from_seed(b"registry-lanes-of-two");
        let user = sio.extract_user("tenant");
        let mut keys = Vec::new();
        let lanes = (0..shards)
            .map(|s| {
                let verifier = sio.extract_verifier(&format!("da/shard-{s}"));
                keys.push(verifier.sk_prepared());
                let mut batch = BatchVerifier::new();
                for j in 0..2u8 {
                    let msg = format!("block {s}/{j}").into_bytes();
                    let designated = designate(&sign(&user, &msg, &[j]), verifier.public());
                    batch.push(user.public().clone(), msg, designated);
                }
                batch.terms()
            })
            .collect();
        (lanes, keys)
    }

    fn epoch_of(lanes: &Lanes) -> EpochVerifier {
        let mut epoch = EpochVerifier::new(lanes.len() as u32, 1);
        for (shard, terms) in (0..).zip(lanes) {
            for (u, sigma) in terms {
                assert!(epoch.fold_aggregate(shard, u, sigma, 1));
            }
        }
        epoch
    }

    #[test]
    fn one_gt_fold_covers_every_lane() {
        // 32 lanes × 2 terms: each lane keeps its own G1 fold and key,
        // while all 64 Σ terms meet in one weighted product.
        let (honest, keys) = lanes_of_two(32);
        assert!(epoch_of(&honest).verify(&keys));
        // Another shard's Σ in the last lane.
        let mut foreign = honest.clone();
        foreign[31][1].1 = honest[0][0].1;
        assert!(
            !epoch_of(&foreign).verify(&keys),
            "foreign Σ in the last lane"
        );
        // Errors e and e⁻¹ in the first and last lanes leave the
        // unweighted product unchanged; the weights must still catch it.
        let e = error_term();
        let mut split = honest.clone();
        split[0][0].1 = split[0][0].1.mul(&e);
        split[31][1].1 = split[31][1].1.mul(&e.invert());
        let product = |lanes: &Lanes| {
            lanes
                .iter()
                .flatten()
                .fold(Gt::one(), |acc, (_, sigma)| acc.mul(sigma))
        };
        assert_eq!(product(&split), product(&honest), "test premise");
        assert!(!epoch_of(&split).verify(&keys), "e / e⁻¹ across lanes");
    }

    #[test]
    fn fused_verification_accepts_honest_aggregates() {
        let (epoch, keys) = folded_epoch(6, 2, 3);
        assert_eq!(epoch.folded(), 12);
        assert!(epoch.verify(&keys));
    }

    #[test]
    fn one_bad_sigma_fails_the_fused_check() {
        let (mut epoch, keys) = folded_epoch(4, 1, 2);
        // Fold a forged sigma into shard 0: nothing knows the discrete
        // log relation, so the product equation must break.
        epoch.fold_aggregate(0, &G1::generator(), &Gt::one().invert(), 1);
        assert!(!epoch.verify(&keys));
    }

    #[test]
    fn a_non_cyclotomic_aggregate_fails_the_epoch() {
        // Zero and a hashed Fp12 element are not cyclotomic; the
        // cyclotomic fold would compute nothing meaningful from them, so
        // folding one fails the whole epoch, honest terms included.
        let raw = seccloud_pairing::Fp12::new(
            seccloud_pairing::Fp6::from_fp2(seccloud_pairing::Fp2::from_hash(b"nc", b"a")),
            seccloud_pairing::Fp6::from_fp2(seccloud_pairing::Fp2::from_hash(b"nc", b"b")),
        );
        let bytes: Vec<u8> = [raw.c0, raw.c1]
            .iter()
            .flat_map(|c6| [c6.c0, c6.c1, c6.c2])
            .flat_map(|c2| [c2.c0.to_be_bytes(), c2.c1.to_be_bytes()])
            .flatten()
            .collect();
        let hashed = Gt::from_bytes(&bytes).expect("canonical");
        let zero = Gt::from_bytes(&[0u8; 384]).expect("canonical");
        for bad in [zero, hashed] {
            assert!(!bad.is_cyclotomic());
            let (mut epoch, keys) = folded_epoch(4, 1, 2);
            assert!(epoch.verify(&keys));
            assert!(epoch.fold_aggregate(1, &G1::identity(), &bad, 1));
            assert!(!epoch.verify(&keys));
        }
    }

    #[test]
    fn coordinated_corruptions_in_one_lane_fail() {
        // The cancellation attack on the unweighted product: two extra
        // items in the *same* lane whose sigma errors are e and e⁻¹. Their
        // unweighted product contributes exactly the two honest sigmas, so
        // a plain fold would accept; the per-item weights must not.
        let (mut epoch, keys) = folded_epoch(4, 1, 2);
        assert!(epoch.verify(&keys));
        let e = error_term();
        // Honest-shaped terms with opposite error factors. (u = identity
        // keeps the pairing side unchanged; the sigma errors alone cancel
        // multiplicatively.)
        assert!(epoch.fold_aggregate(0, &G1::identity(), &e, 1));
        assert!(epoch.fold_aggregate(0, &G1::identity(), &e.invert(), 1));
        assert!(!epoch.verify(&keys), "same-lane cancellation must fail");
    }

    #[test]
    fn coordinated_corruptions_across_lanes_fail() {
        // Same attack split across two shards: lane 0 carries error e,
        // lane 1 carries e⁻¹. The cross-lane product of expectations would
        // cancel without per-item randomization.
        let (mut epoch, keys) = folded_epoch(4, 1, 2);
        let e = error_term();
        assert!(epoch.fold_aggregate(0, &G1::identity(), &e, 1));
        assert!(epoch.fold_aggregate(1, &G1::identity(), &e.invert(), 1));
        assert!(!epoch.verify(&keys), "cross-lane cancellation must fail");
    }

    #[test]
    fn a_poisoned_batch_fails_the_epoch() {
        let (mut epoch, keys) = folded_epoch(4, 1, 2);
        assert!(epoch.verify(&keys));
        let sio = MasterKey::from_seed(b"registry-batch-tests");
        let user = sio.extract_user("tenant-0");
        let honest = designate(
            &sign(&user, b"m", b"n"),
            sio.extract_verifier("da/shard-0").public(),
        );
        let zero = Gt::from_bytes(&[0u8; 384]).expect("canonical");
        let mut batch = BatchVerifier::new();
        batch.push(
            user.public().clone(),
            b"m".to_vec(),
            seccloud_ibs::DesignatedSignature::from_parts(*honest.u(), zero),
        );
        assert!(epoch.fold(0, &batch), "routing still succeeds");
        assert!(!epoch.verify(&keys));
    }

    #[test]
    fn empty_accumulator_is_vacuously_valid() {
        let epoch = EpochVerifier::new(4, 0);
        assert_eq!(epoch.folded(), 0);
        assert!(epoch.verify(&[]));
    }

    #[test]
    fn missing_key_for_a_live_shard_fails_closed() {
        let (epoch, keys) = folded_epoch(6, 1, 3);
        let truncated = &keys[..1];
        assert!(!epoch.verify(truncated));
    }

    #[test]
    fn fused_check_matches_per_shard_checks() {
        let (epoch, keys) = folded_epoch(5, 2, 4);
        assert!(epoch.verify(&keys));
        // Swapping two shards' keys must fail even though the *set* of
        // keys is unchanged — the fusion binds each lane to its shard.
        let mut swapped = keys.clone();
        swapped.swap(0, 1);
        if epoch.shard_folded(0) > 0 || epoch.shard_folded(1) > 0 {
            assert!(!epoch.verify(&swapped));
        }
    }

    #[test]
    fn out_of_range_shard_is_rejected() {
        let mut epoch = EpochVerifier::new(2, 0);
        assert!(!epoch.fold_aggregate(7, &G1::generator(), &Gt::one(), 1));
        // `fold` agrees with `fold_aggregate` even for an empty batch:
        // routing to a nonexistent shard is an error regardless of
        // payload.
        assert!(!epoch.fold(7, &BatchVerifier::new()));
        assert!(epoch.fold(1, &BatchVerifier::new()));
        assert_eq!(epoch.folded(), 0);
    }
}
