//! Cross-user, cross-shard batch verification fused into one Miller loop,
//! with small-exponent randomization.

use std::sync::Arc;

use seccloud_ibs::weighted_sigma_product;
use seccloud_pairing::{multi_miller_loop, multi_mul_g1, Fr, G1Affine, G2Prepared, Gt, G1};

/// One shard's retained verification terms in the sense of paper eq. (8):
/// the aggregates `(Σᵢ (Uᵢ + hᵢ·Q_IDᵢ), Πᵢ Σᵢ)` routed to the shard, one
/// or more signatures each, plus the signature count.
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
/// retained term gets its own nonzero 64-bit weight `r`, drawn *after*
/// the batch is fixed (the first term's weight is one), and the per-shard
/// checks — paper eq. (9), one per shard — fuse into
///
/// ```text
/// Π_s ê(Σᵢ rₛᵢ·uₛᵢ, sk_{V_s})  =  Π_s Πᵢ Σₛᵢ^{rₛᵢ}
/// ```
///
/// evaluated as one shared Miller loop and one final exponentiation,
/// regardless of how many users, signatures or shards contributed. The
/// left side's `G1` sums stay per shard, because each pairs with its own
/// key; the right side is one product, so all shards' `Σ`, in lane order,
/// go through one [`weighted_sigma_product`], the `Σ` side that
/// [`seccloud_ibs::BatchVerifier`] uses too: a cyclotomic check per `Σ`
/// after the first and one subgroup test per epoch. The marginal cost of
/// an extra audited aggregate is a `G1`/`GT` slot at fold time plus a
/// cyclotomic check and a few group operations in its shard's
/// [`multi_mul_g1`] and in the epoch-wide `GT` fold at verify time; the
/// marginal cost of an extra *shard* is one Miller-loop argument plus one
/// `G1` fold.
///
/// Soundness is the small-exponent argument of `seccloud_ibs`'s batch
/// module, lane for lane: any set of corrupted terms — including
/// coordinated ones whose error terms multiply to one, within a lane or
/// across lanes, and `Σ` with parts outside `μ_r` — survives only with
/// probability about 2⁻⁶⁴ per verification attempt. The weight is per
/// *term*, so an aggregate of several signatures is weighted as one
/// (whoever merged it vouches for its internal consistency); folding each
/// signature as a one-signature aggregate weights every signature on its
/// own.
#[derive(Clone, Debug)]
pub struct EpochVerifier {
    epoch: u64,
    lanes: Vec<Lane>,
}

impl EpochVerifier {
    /// An empty accumulator for `shards` shards (clamped to ≥ 1) in
    /// `epoch`.
    pub fn new(shards: u32, epoch: u64) -> Self {
        Self {
            epoch,
            lanes: vec![Lane::default(); shards.max(1) as usize],
        }
    }

    /// The epoch this accumulator covers.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total signatures folded across all shards.
    pub fn folded(&self) -> usize {
        self.lanes.iter().map(|l| l.folded).sum()
    }

    /// Routes one aggregate — `u = Σ (U + h·Q_ID)` and `sigma = Π Σ` over
    /// the signatures it merges, as [`seccloud_ibs::BatchVerifier::aggregate`]
    /// returns them — into `shard`'s lane, counting it as `count`
    /// signatures. The aggregate takes one verification weight (see the
    /// type docs). Out-of-range shards are ignored and reported as
    /// `false`.
    ///
    /// Nothing is checked here: [`Self::verify`] checks every `sigma`
    /// where it weights it.
    pub fn fold_aggregate(&mut self, shard: u32, u: &G1, sigma: &Gt, count: usize) -> bool {
        let Some(lane) = self.lanes.get_mut(shard as usize) else {
            return false;
        };
        lane.terms.push((*u, *sigma));
        lane.folded += count;
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
        let sigmas: Vec<Gt> = live
            .iter()
            .flat_map(|(lane, _)| lane.terms.iter().map(|(_, sigma)| *sigma))
            .collect();
        let Some((sigma, weights)) = weighted_sigma_product(&sigmas) else {
            return false;
        };
        // Each lane's G1 fold takes the next weights in lane order. The
        // folds already run in time variable in the weights, which are
        // used once and then dropped, so the affine conversion may be
        // variable-time too.
        let mut weights = weights.into_iter();
        let args: Vec<(G1Affine, &G2Prepared)> = live
            .into_iter()
            .map(|(lane, key)| {
                let terms: Vec<(G1, Fr)> = lane
                    .terms
                    .iter()
                    .zip(weights.by_ref())
                    .map(|((u, _), w)| (*u, Fr::from_u64(w)))
                    .collect();
                (multi_mul_g1(&terms).to_affine_vartime(), key)
            })
            .collect();
        let pairs: Vec<(&G1Affine, &G2Prepared)> = args.iter().map(|(p, k)| (p, *k)).collect();
        multi_miller_loop(&pairs) == sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_ibs::{
        designate, sign, BatchVerifier, DesignatedSignature, MasterKey, UserPublic,
    };
    use seccloud_pairing::pairing;

    /// One signature's own term `(U + h·Q_ID, Σ)`: a one-signature
    /// aggregate, which the epoch weighs on its own.
    fn single(user: &UserPublic, msg: &[u8], sig: DesignatedSignature) -> (G1, Gt) {
        let mut batch = BatchVerifier::new();
        batch.push(user.clone(), msg.to_vec(), sig);
        batch.aggregate().expect("one signature")
    }

    /// Builds `users` users spread over `shards` shards, each signing
    /// `per_user` messages to its shard's own verifier, every signature
    /// folded as its own term.
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
            for j in 0..per_user {
                let msg = format!("block {i}/{j}").into_bytes();
                let nonce = format!("nonce {i}/{j}").into_bytes();
                let designated = designate(&sign(&user, &msg, &nonce), verifier.public());
                let (u, sigma) = single(user.public(), &msg, designated);
                assert!(epoch.fold_aggregate(shard, &u, &sigma, 1));
            }
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
                (0..2u8)
                    .map(|j| {
                        let msg = format!("block {s}/{j}").into_bytes();
                        let designated = designate(&sign(&user, &msg, &[j]), verifier.public());
                        single(user.public(), &msg, designated)
                    })
                    .collect()
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
    fn an_aggregate_outside_mu_r_fails_the_epoch_wherever_it_lands() {
        // A zero Σ and a negated one (−Σ, of order 2r) inside a
        // two-signature aggregate: folding still routes it, and the epoch
        // rejects it as its first, unchecked term and as a weighted one.
        let sio = MasterKey::from_seed(b"registry-batch-tests");
        let user = sio.extract_user("tenant-0");
        let da = sio.extract_verifier("da/shard-0");
        let honest = designate(&sign(&user, b"m", b"n"), da.public());
        let second = designate(&sign(&user, b"m2", b"n2"), da.public());
        let zero = Gt::from_bytes(&[0u8; 384]).expect("canonical");
        let negated = second.sigma().mul(&negative_one());
        for bad in [zero, negated] {
            assert!(!bad.is_in_subgroup());
            let mut batch = BatchVerifier::new();
            batch.push(user.public().clone(), b"m".to_vec(), honest.clone());
            batch.push(
                user.public().clone(),
                b"m2".to_vec(),
                DesignatedSignature::from_parts(*second.u(), bad),
            );
            let (u, sigma) = batch.aggregate().expect("non-empty");
            for first in [true, false] {
                let (mut epoch, keys) = if first {
                    (EpochVerifier::new(2, 1), folded_epoch(0, 1, 2).1)
                } else {
                    folded_epoch(4, 1, 2)
                };
                assert!(
                    epoch.fold_aggregate(0, &u, &sigma, 2),
                    "routing still succeeds"
                );
                for trial in 0..20 {
                    assert!(!epoch.verify(&keys), "first = {first}, trial {trial}");
                }
            }
        }
    }

    /// `−1 ∈ Fp12`: a cyclotomic-failing unit of order 2.
    fn negative_one() -> Gt {
        let mut bytes = [0u8; 384];
        let p_minus_one = seccloud_pairing::FieldElement::neg(&seccloud_pairing::Fp::one());
        bytes[..32].copy_from_slice(&p_minus_one.to_be_bytes());
        Gt::from_bytes(&bytes).expect("canonical")
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
        // Swapping two live shards' keys must fail even though the *set*
        // of keys is unchanged — the fusion binds each lane to its shard.
        let (lanes, mut swapped) = lanes_of_two(2);
        assert!(epoch_of(&lanes).verify(&swapped));
        swapped.swap(0, 1);
        assert!(!epoch_of(&lanes).verify(&swapped));
    }

    #[test]
    fn out_of_range_shard_is_rejected() {
        let mut epoch = EpochVerifier::new(2, 0);
        assert!(!epoch.fold_aggregate(7, &G1::generator(), &Gt::one(), 1));
        assert_eq!(epoch.folded(), 0);
        assert!(epoch.fold_aggregate(1, &G1::generator(), &Gt::one(), 3));
        assert_eq!(epoch.folded(), 3);
    }

    #[test]
    fn an_epoch_pays_one_loop_one_exponentiation_and_one_subgroup_test() {
        // n aggregates in s live shards of six: one Miller loop with s
        // lanes, one final exponentiation, one subgroup test and n − 1
        // cyclotomic checks. Producing and folding them costs none.
        use seccloud_pairing::counters::{snapshot, OpCounts};
        let (lanes, keys) = lanes_of_two(4);
        let sio = MasterKey::from_seed(b"registry-lanes-of-two");
        let user = sio.extract_user("tenant");
        let verifier = sio.extract_verifier("da/shard-3");
        let mut batch = BatchVerifier::new();
        for j in 0..3u8 {
            let msg = format!("merged {j}").into_bytes();
            batch.push(
                user.public().clone(),
                msg.clone(),
                designate(&sign(&user, &msg, &[j]), verifier.public()),
            );
        }
        let mut epoch = EpochVerifier::new(6, 1);
        let before = snapshot();
        let merged = batch.aggregate().expect("non-empty");
        for (shard, terms) in (0..).zip(&lanes) {
            for (u, sigma) in terms {
                assert!(epoch.fold_aggregate(shard, u, sigma, 1));
            }
        }
        assert!(epoch.fold_aggregate(3, &merged.0, &merged.1, 3));
        assert_eq!(snapshot().since(&before), OpCounts::default());
        let n = 2 * 4 + 1;
        assert_eq!(epoch.folded(), n + 2);
        let before = snapshot();
        assert!(epoch.verify(&keys));
        let spent = snapshot().since(&before);
        assert_eq!(
            (
                spent.miller_loops,
                spent.miller_lanes,
                spent.final_exponentiations,
                spent.gt_subgroup_tests,
                spent.gt_cyclotomic_checks
            ),
            (1, 4, 1, 1, n as u64 - 1)
        );
    }
}
