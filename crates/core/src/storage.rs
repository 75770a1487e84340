//! Protocol II — secure cloud storage (paper Section V-B).
//!
//! For each data block `mᵢ` the user produces an identity-based signature
//! `(Uᵢ, Vᵢ)`, then *replaces* `Vᵢ` with designated proofs
//! `Σᵢ = ê(Vᵢ, Q_CS)` / `Σ'ᵢ = ê(Vᵢ, Q_DA)` and uploads
//! `{mᵢ, Uᵢ, Σᵢ, Σ'ᵢ}`. Only the cloud server and the designated agency can
//! later authenticate the blocks (eq. 5); third parties — e.g. a data buyer
//! in the illegal-selling model — learn nothing.

use seccloud_hash::Sha256;
use seccloud_ibs::{
    designate, sign, BatchVerifier, DesignatedSignature, UserPublic, VerifierKey, VerifierPublic,
};

use crate::sio::CloudUser;

/// One data block `mᵢ` with its position index.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DataBlock {
    index: u64,
    data: Vec<u8>,
}

impl DataBlock {
    /// Creates a block at `index` holding `data`.
    pub fn new(index: u64, data: Vec<u8>) -> Self {
        Self { index, data }
    }

    /// The block's position index (the paper's `pᵢ`).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The raw block bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The bytes that are actually signed: position-bound so a server
    /// cannot satisfy a challenge on position `p` with the block stored at
    /// a different position (the paper's storage-cheating case 2).
    pub fn signed_message(&self) -> Vec<u8> {
        let mut msg = Vec::with_capacity(8 + self.data.len());
        msg.extend_from_slice(&self.index.to_be_bytes());
        msg.extend_from_slice(&self.data);
        msg
    }

    /// A short content digest (used by simulators for bookkeeping).
    pub fn digest(&self) -> [u8; 32] {
        Sha256::digest(&self.signed_message())
    }

    /// Interprets the block as a sequence of big-endian `u64` readings —
    /// the numeric view the computation protocol operates on. Trailing
    /// bytes that do not fill a full word are ignored.
    pub fn values(&self) -> Vec<u64> {
        self.data
            .chunks_exact(8)
            .map(|c| {
                let mut word = [0u8; 8];
                word.copy_from_slice(c);
                u64::from_be_bytes(word)
            })
            .collect()
    }

    /// Builds a block from numeric readings.
    pub fn from_values(index: u64, values: &[u64]) -> Self {
        let mut data = Vec::with_capacity(values.len() * 8);
        for v in values {
            data.extend_from_slice(&v.to_be_bytes());
        }
        Self::new(index, data)
    }
}

/// A block together with the designated authentication data uploaded to the
/// cloud: `{mᵢ, Uᵢ, Σᵢ, Σ'ᵢ, …}` keyed by verifier identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedBlock {
    block: DataBlock,
    /// Designated signature per verifier identity (CS, DA, …).
    designations: Vec<(String, DesignatedSignature)>,
}

impl SignedBlock {
    /// The underlying block.
    pub fn block(&self) -> &DataBlock {
        &self.block
    }

    /// The designated signature for a given verifier identity, if present.
    pub fn designation_for(&self, verifier_identity: &str) -> Option<&DesignatedSignature> {
        self.designations
            .iter()
            .find(|(id, _)| id == verifier_identity)
            .map(|(_, sig)| sig)
    }

    /// Identities this block can be verified by.
    pub fn designated_verifiers(&self) -> impl Iterator<Item = &str> {
        self.designations.iter().map(|(id, _)| id.as_str())
    }

    /// All `(verifier identity, designated signature)` pairs — the wire
    /// representation of the upload.
    pub fn designations(&self) -> impl Iterator<Item = (&str, &DesignatedSignature)> {
        self.designations.iter().map(|(id, s)| (id.as_str(), s))
    }

    /// Rebuilds a signed block from serialized parts; authenticity is
    /// established by [`SignedBlock::verify`], not construction.
    pub fn from_parts(block: DataBlock, designations: Vec<(String, DesignatedSignature)>) -> Self {
        Self {
            block,
            designations,
        }
    }

    /// Verifies the block with a designated verifier's key (paper eq. 5):
    /// `Σᵢ = ê(Uᵢ + H2(Uᵢ‖mᵢ)·Q_ID, sk_V)`.
    pub fn verify(&self, verifier: &VerifierKey, owner: &UserPublic) -> bool {
        let Some(sig) = self.designation_for(verifier.identity()) else {
            return false;
        };
        sig.verify(verifier, owner, &self.block.signed_message())
    }

    /// The sampled-block check of a storage audit: the block sits at the
    /// challenged `position` *and* its designation verifies (eq. 5). A
    /// block relabelled to another position or signed by anyone but
    /// `owner` fails.
    pub fn verify_at(&self, position: u64, verifier: &VerifierKey, owner: &UserPublic) -> bool {
        self.block.index == position && self.verify(verifier, owner)
    }

    /// Replaces the stored block content (test/simulation hook for the
    /// storage-cheating adversary).
    #[doc(hidden)]
    pub fn tamper_data(&mut self, data: Vec<u8>) {
        self.block.data = data;
    }

    /// Re-labels the block position (wrong-position cheating hook).
    #[doc(hidden)]
    pub fn tamper_index(&mut self, index: u64) {
        self.block.index = index;
    }
}

impl CloudUser {
    /// Signs a batch of blocks for upload, designating each signature to
    /// every verifier in `verifiers` (typically `[Q_CS, Q_DA]`).
    ///
    /// After this call the user can delete the local copies (paper: "sends
    /// the data and corresponding signature pairs {D, Φ} to the cloud
    /// server and deletes them from local storage").
    ///
    /// The per-block sign-then-designate work (one pairing per verifier per
    /// block) fans out over [`seccloud_parallel::num_threads`] workers.
    /// Each block's nonce comes from [`sign`], keyed by the user's secret
    /// key and the position-bound block bytes, so the output is identical
    /// for any worker count and distinct blocks draw independent nonces,
    /// across batches too.
    pub fn sign_blocks(
        &self,
        blocks: &[DataBlock],
        verifiers: &[&VerifierPublic],
    ) -> Vec<SignedBlock> {
        // Materialize each verifier's prepared pairing key before the
        // fan-out so workers share the caches.
        for v in verifiers {
            let _ = v.q_prepared();
        }
        seccloud_parallel::parallel_map(blocks, |_, b| {
            self.sign_block(b, verifiers, b"seccloud/storage-block")
        })
    }

    /// Signs a single block; `nonce` is extra domain-separation input to
    /// [`sign`]'s key-derived nonce (deterministic per key, block and
    /// `nonce`).
    pub fn sign_block(
        &self,
        block: &DataBlock,
        verifiers: &[&VerifierPublic],
        nonce: &[u8],
    ) -> SignedBlock {
        let raw = sign(self.key(), &block.signed_message(), nonce);
        SignedBlock {
            block: block.clone(),
            designations: verifiers
                .iter()
                .map(|v| (v.identity().to_owned(), designate(&raw, v)))
                .collect(),
        }
    }
}

/// Result of a storage audit over a sampled set of blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageAuditReport {
    /// Indices (into the sampled set) that failed verification.
    pub failed: Vec<usize>,
    /// Number of blocks checked.
    pub checked: usize,
}

impl StorageAuditReport {
    /// Whether every sampled block verified.
    pub fn is_valid(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Audits a set of retrieved blocks: every block's designation to
/// `verifier` folds into one [`BatchVerifier`] (Section VI, one pairing),
/// and only when that batch rejects are the blocks checked one pairing
/// each — fanned out over [`seccloud_parallel::num_threads`] workers — to
/// name the offenders. The failure set is the per-block one either way,
/// for any worker count.
pub fn audit_blocks(
    verifier: &VerifierKey,
    owner: &UserPublic,
    blocks: &[SignedBlock],
) -> StorageAuditReport {
    let mut batch = BatchVerifier::new();
    let mut failed = Vec::new();
    for (i, b) in blocks.iter().enumerate() {
        match b.designation_for(verifier.identity()) {
            Some(sig) => batch.push(owner.clone(), b.block().signed_message(), sig.clone()),
            None => failed.push(i),
        }
    }
    if !batch.verify(verifier) {
        let outcomes = seccloud_parallel::parallel_map(blocks, |_, b| b.verify(verifier, owner));
        failed = outcomes
            .iter()
            .enumerate()
            .filter(|(_, ok)| !**ok)
            .map(|(i, _)| i)
            .collect();
    }
    StorageAuditReport {
        failed,
        checked: blocks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sio::Sio;

    fn setup() -> (
        Sio,
        CloudUser,
        crate::sio::VerifierCredential,
        crate::sio::VerifierCredential,
    ) {
        let sio = Sio::new(b"storage-tests");
        let user = sio.register("alice");
        let cs = sio.register_verifier("cs-01");
        let da = sio.register_verifier("da");
        (sio, user, cs, da)
    }

    fn blocks(n: u64) -> Vec<DataBlock> {
        (0..n)
            .map(|i| DataBlock::from_values(i, &[i * 10, i * 10 + 1, i * 10 + 2]))
            .collect()
    }

    #[test]
    fn signed_blocks_verify_for_both_designees() {
        let (_, user, cs, da) = setup();
        let signed = user.sign_blocks(&blocks(5), &[cs.public(), da.public()]);
        for b in &signed {
            assert!(b.verify(cs.key(), user.public()));
            assert!(b.verify(da.key(), user.public()));
            assert_eq!(b.designated_verifiers().count(), 2);
        }
    }

    #[test]
    fn non_designated_verifier_cannot_authenticate() {
        let (sio, user, cs, _) = setup();
        let signed = user.sign_blocks(&blocks(2), &[cs.public()]);
        let eve = sio.register_verifier("eve-corp");
        assert!(!signed[0].verify(eve.key(), user.public()));
        assert!(signed[0].designation_for("eve-corp").is_none());
    }

    #[test]
    fn tampered_data_is_detected() {
        let (_, user, cs, da) = setup();
        let mut signed = user.sign_blocks(&blocks(3), &[cs.public(), da.public()]);
        signed[1].tamper_data(b"modified by byzantine server".to_vec());
        assert!(!signed[1].verify(cs.key(), user.public()));
        let report = audit_blocks(cs.key(), user.public(), &signed);
        assert_eq!(report.failed, vec![1]);
        assert!(!report.is_valid());
        assert_eq!(
            audit_blocks(da.key(), user.public(), &signed).failed,
            vec![1]
        );
    }

    #[test]
    fn wrong_position_is_detected() {
        // The paper's storage-cheating case: serving data from position j
        // when position i was requested.
        let (_, user, cs, _) = setup();
        let mut signed = user.sign_blocks(&blocks(9), &[cs.public()]);
        signed[7].tamper_index(99);
        assert!(!signed[7].verify(cs.key(), user.public()));
        // Next to a data tamper, the audit reports both offenders in order.
        signed[2].tamper_data(b"bad".to_vec());
        let report = audit_blocks(cs.key(), user.public(), &signed);
        assert_eq!(report.failed, vec![2, 7]);
        assert_eq!(report.checked, 9);
    }

    #[test]
    fn batched_audit_agrees_with_individual() {
        let (_, user, cs, da) = setup();
        let mut signed = user.sign_blocks(&blocks(10), &[cs.public()]);
        let before = seccloud_pairing::counters::snapshot();
        assert!(audit_blocks(cs.key(), user.public(), &signed).is_valid());
        let spent = seccloud_pairing::counters::snapshot().since(&before);
        assert_eq!(
            (spent.final_exponentiations, spent.gt_subgroup_tests),
            (1, 9)
        );
        // A block without a designation to the auditor fails without a
        // pairing, the others still batch.
        signed[4] = user.sign_blocks(&blocks(5)[4..], &[da.public()]).remove(0);
        assert_eq!(
            audit_blocks(cs.key(), user.public(), &signed).failed,
            vec![4]
        );
        signed[8].tamper_data(b"x".to_vec());
        assert_eq!(
            audit_blocks(cs.key(), user.public(), &signed).failed,
            vec![4, 8]
        );
    }

    #[test]
    fn signing_is_independent_of_batching_and_worker_count() {
        let (_, user, cs, da) = setup();
        let bs = blocks(6);
        let signed = user.sign_blocks(&bs, &[cs.public(), da.public()]);
        assert_eq!(signed.len(), 6);
        for b in &signed {
            assert!(b.verify(cs.key(), user.public()));
            assert!(b.verify(da.key(), user.public()));
        }
        // One block at a time always runs on the calling thread; the batch
        // must reproduce it bit for bit, whatever `SECCLOUD_THREADS` says.
        let one_by_one: Vec<SignedBlock> = bs
            .iter()
            .flat_map(|b| user.sign_blocks(std::slice::from_ref(b), &[cs.public(), da.public()]))
            .collect();
        assert_eq!(signed, one_by_one);
    }

    #[test]
    fn verify_at_rejects_wrong_index_and_wrong_owner() {
        let (sio, user, cs, _) = setup();
        let signed = user.sign_blocks(&blocks(3), &[cs.public()]);
        assert!(signed[1].verify_at(1, cs.key(), user.public()));
        // Asked for position 2, served the authentic block from position 1.
        assert!(!signed[1].verify_at(2, cs.key(), user.public()));
        // Relabelled to the challenged position: the signature breaks.
        let mut relabelled = signed[1].clone();
        relabelled.tamper_index(2);
        assert!(!relabelled.verify_at(2, cs.key(), user.public()));
        // Right position, wrong owner.
        let bob = sio.register("bob");
        assert!(!signed[1].verify_at(1, cs.key(), bob.public()));
    }

    #[test]
    fn wrong_owner_rejected() {
        let (sio, user, cs, _) = setup();
        let signed = user.sign_blocks(&blocks(2), &[cs.public()]);
        let bob = sio.register("bob");
        assert!(!signed[0].verify(cs.key(), bob.public()));
    }

    #[test]
    fn values_round_trip() {
        let b = DataBlock::from_values(3, &[1, u64::MAX, 42]);
        assert_eq!(b.values(), vec![1, u64::MAX, 42]);
        assert_eq!(b.index(), 3);
        // Non-multiple-of-8 data drops the tail.
        let odd = DataBlock::new(0, vec![0, 0, 0, 0, 0, 0, 0, 9, 1, 2]);
        assert_eq!(odd.values(), vec![9]);
    }

    #[test]
    fn signed_message_binds_position() {
        let b1 = DataBlock::new(1, vec![0xaa]);
        let b2 = DataBlock::new(2, vec![0xaa]);
        assert_ne!(b1.signed_message(), b2.signed_message());
        assert_ne!(b1.digest(), b2.digest());
    }

    #[test]
    fn empty_block_set_is_trivially_valid() {
        let (_, user, cs, _) = setup();
        let report = audit_blocks(cs.key(), user.public(), &[]);
        assert!(report.is_valid());
        assert_eq!(report.checked, 0);
    }
}
