//! Dynamic storage operations — append, update, delete with freshness.
//!
//! The paper's related-work section repeatedly calls out that early PDP
//! schemes "did not consider the dynamic data storage" (\[8\]) and cites the
//! dynamic constructions of Wang et al. \[5\] and Erway et al. \[15\] as the
//! state of the art. This module adds the corresponding extension to
//! SecCloud: blocks carry a **version number** folded into the signed
//! message, the owner keeps a tiny version ledger (`O(1)` per block — the
//! standard lightweight client state), and audits check *freshness*: a
//! server replaying a stale-but-correctly-signed version is caught.

use std::collections::BTreeMap;

use seccloud_ibs::{sign_designated, DesignatedSignature, UserPublic, VerifierKey, VerifierPublic};

use crate::sio::CloudUser;
use crate::storage::DataBlock;

/// A data block bound to a version number, with designated signatures over
/// `index ‖ version ‖ data`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedBlock {
    block: DataBlock,
    version: u64,
    designations: Vec<(String, DesignatedSignature)>,
}

impl VersionedBlock {
    /// The underlying block.
    pub fn block(&self) -> &DataBlock {
        &self.block
    }

    /// The version number (starts at 0, bumped by every update).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The signed byte string: `index ‖ version ‖ data`.
    pub fn signed_message(&self) -> Vec<u8> {
        versioned_message(&self.block, self.version)
    }

    /// Verifies signature validity *and* freshness against the owner's
    /// expected version.
    pub fn verify_fresh(
        &self,
        verifier: &VerifierKey,
        owner: &UserPublic,
        expected_version: u64,
    ) -> Result<(), DynAuditError> {
        if self.version != expected_version {
            return Err(DynAuditError::StaleVersion {
                expected: expected_version,
                got: self.version,
            });
        }
        let sig = self
            .designations
            .iter()
            .find(|(id, _)| id == verifier.identity())
            .map(|(_, s)| s)
            .ok_or(DynAuditError::NotDesignated)?;
        if sig.verify(verifier, owner, &self.signed_message()) {
            Ok(())
        } else {
            Err(DynAuditError::BadSignature)
        }
    }

    /// Mutation hooks for adversarial tests.
    #[doc(hidden)]
    pub fn tamper_version(&mut self, version: u64) {
        self.version = version;
    }
}

fn versioned_message(block: &DataBlock, version: u64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(16 + block.data().len());
    msg.extend_from_slice(&block.index().to_be_bytes());
    msg.extend_from_slice(&version.to_be_bytes());
    msg.extend_from_slice(block.data());
    msg
}

/// Why a dynamic-storage check failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DynAuditError {
    /// The served version differs from the owner's ledger (replay or
    /// rollback attack).
    StaleVersion {
        /// What the ledger expects.
        expected: u64,
        /// What the server produced.
        got: u64,
    },
    /// The block is gone although the ledger says it exists.
    Missing,
    /// The block exists although the ledger says it was deleted.
    Resurrected,
    /// The checking verifier is not designated.
    NotDesignated,
    /// The designated signature failed.
    BadSignature,
}

impl std::fmt::Display for DynAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynAuditError::StaleVersion { expected, got } => {
                write!(f, "stale version: expected {expected}, got {got}")
            }
            DynAuditError::Missing => write!(f, "block missing"),
            DynAuditError::Resurrected => write!(f, "deleted block resurfaced"),
            DynAuditError::NotDesignated => write!(f, "verifier not designated"),
            DynAuditError::BadSignature => write!(f, "signature invalid"),
        }
    }
}

impl std::error::Error for DynAuditError {}

/// The owner's constant-size-per-block ledger: current version per live
/// position, tombstones for deletions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OwnerLedger {
    versions: BTreeMap<u64, u64>,
    deleted: BTreeMap<u64, u64>, // position → last version at deletion
}

impl OwnerLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The expected version of a live block, if any.
    pub fn version_of(&self, position: u64) -> Option<u64> {
        self.versions.get(&position).copied()
    }

    /// Whether a position has been deleted.
    pub fn is_deleted(&self, position: u64) -> bool {
        self.deleted.contains_key(&position)
    }

    /// Number of live blocks.
    pub fn live_count(&self) -> usize {
        self.versions.len()
    }

    /// Live positions, ascending.
    pub fn live_positions(&self) -> impl Iterator<Item = u64> + '_ {
        self.versions.keys().copied()
    }
}

/// Owner-side dynamic operations: each returns the freshly signed
/// [`VersionedBlock`] to upload and updates the ledger.
impl CloudUser {
    /// Appends (or re-creates) a block at `position` with version 0 (or the
    /// post-deletion successor version, preventing resurrection of old
    /// signatures).
    pub fn dyn_insert(
        &self,
        ledger: &mut OwnerLedger,
        position: u64,
        data: Vec<u8>,
        verifiers: &[&VerifierPublic],
    ) -> VersionedBlock {
        // If the slot was deleted at version v, the new life starts at v+1
        // so stale pre-deletion signatures can never verify again.
        let version = ledger.deleted.remove(&position).map_or(0, |v| v + 1);
        assert!(
            ledger.versions.insert(position, version).is_none(),
            "position {position} already live — use dyn_update"
        );
        self.sign_versioned(position, version, data, verifiers)
    }

    /// Updates the block at `position`, bumping its version.
    ///
    /// # Panics
    ///
    /// Panics if the position is not live in the ledger.
    pub fn dyn_update(
        &self,
        ledger: &mut OwnerLedger,
        position: u64,
        data: Vec<u8>,
        verifiers: &[&VerifierPublic],
    ) -> VersionedBlock {
        #[expect(
            clippy::panic,
            reason = "documented API contract, caller-side misuse of the owner ledger"
        )]
        let v = ledger
            .versions
            .get_mut(&position)
            .unwrap_or_else(|| panic!("position {position} is not live"));
        *v += 1;
        let version = *v;
        self.sign_versioned(position, version, data, verifiers)
    }

    /// Deletes the block at `position` (ledger-side tombstone; the server
    /// is instructed to drop it and audits flag any resurrection).
    ///
    /// # Panics
    ///
    /// Panics if the position is not live in the ledger.
    pub fn dyn_delete(&self, ledger: &mut OwnerLedger, position: u64) {
        #[expect(
            clippy::panic,
            reason = "documented API contract, caller-side misuse of the owner ledger"
        )]
        let v = ledger
            .versions
            .remove(&position)
            .unwrap_or_else(|| panic!("position {position} is not live"));
        ledger.deleted.insert(position, v);
    }

    fn sign_versioned(
        &self,
        position: u64,
        version: u64,
        data: Vec<u8>,
        verifiers: &[&VerifierPublic],
    ) -> VersionedBlock {
        let block = DataBlock::new(position, data);
        let msg = versioned_message(&block, version);
        let mut nonce = Vec::with_capacity(16);
        nonce.extend_from_slice(&position.to_be_bytes());
        nonce.extend_from_slice(&version.to_be_bytes());
        let signatures = sign_designated(self.key(), &msg, &nonce, verifiers);
        VersionedBlock {
            block,
            version,
            designations: verifiers
                .iter()
                .map(|v| v.identity().to_owned())
                .zip(signatures)
                .collect(),
        }
    }
}

/// Server-side dynamic store (honest reference implementation).
#[derive(Clone, Debug, Default)]
pub struct DynamicStore {
    blocks: BTreeMap<u64, VersionedBlock>,
}

impl DynamicStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies an insert/update upload.
    pub fn put(&mut self, block: VersionedBlock) {
        self.blocks.insert(block.block().index(), block);
    }

    /// Applies a delete instruction.
    pub fn delete(&mut self, position: u64) -> bool {
        self.blocks.remove(&position).is_some()
    }

    /// Serves a block.
    pub fn get(&self, position: u64) -> Option<&VersionedBlock> {
        self.blocks.get(&position)
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Audits a dynamic store against the owner's ledger: every live position
/// must be present, fresh and correctly signed; every tombstoned position
/// must be absent.
///
/// Returns all violations, empty when healthy.
pub fn audit_dynamic(
    verifier: &VerifierKey,
    owner: &UserPublic,
    ledger: &OwnerLedger,
    store: &DynamicStore,
) -> Vec<(u64, DynAuditError)> {
    let mut violations = Vec::new();
    for (pos, &version) in &ledger.versions {
        match store.get(*pos) {
            None => violations.push((*pos, DynAuditError::Missing)),
            Some(block) => {
                if let Err(e) = block.verify_fresh(verifier, owner, version) {
                    violations.push((*pos, e));
                }
            }
        }
    }
    for pos in ledger.deleted.keys() {
        if store.get(*pos).is_some() {
            violations.push((*pos, DynAuditError::Resurrected));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sio::Sio;

    fn setup() -> (
        Sio,
        crate::sio::CloudUser,
        crate::sio::VerifierCredential,
        OwnerLedger,
        DynamicStore,
    ) {
        let sio = Sio::new(b"dynstore-tests");
        let user = sio.register("alice");
        let da = sio.register_verifier("da");
        (sio, user, da, OwnerLedger::new(), DynamicStore::new())
    }

    #[test]
    fn insert_update_delete_lifecycle() {
        let (_, user, da, mut ledger, mut store) = setup();
        store.put(user.dyn_insert(&mut ledger, 0, b"v0".to_vec(), &[da.public()]));
        store.put(user.dyn_insert(&mut ledger, 1, b"other".to_vec(), &[da.public()]));
        assert!(audit_dynamic(da.key(), user.public(), &ledger, &store).is_empty());

        // Update bumps the version; the audit still passes with the new
        // upload applied.
        store.put(user.dyn_update(&mut ledger, 0, b"v1".to_vec(), &[da.public()]));
        assert_eq!(ledger.version_of(0), Some(1));
        assert!(audit_dynamic(da.key(), user.public(), &ledger, &store).is_empty());

        // Delete: server complies, audit passes.
        user.dyn_delete(&mut ledger, 1);
        store.delete(1);
        assert!(audit_dynamic(da.key(), user.public(), &ledger, &store).is_empty());
        assert_eq!(ledger.live_count(), 1);
        assert!(ledger.is_deleted(1));
    }

    #[test]
    fn rollback_attack_is_caught() {
        let (_, user, da, mut ledger, mut store) = setup();
        let v0 = user.dyn_insert(&mut ledger, 7, b"old".to_vec(), &[da.public()]);
        store.put(v0.clone());
        let _v1 = user.dyn_update(&mut ledger, 7, b"new".to_vec(), &[da.public()]);
        // The server "forgets" to apply the update and keeps serving v0 —
        // which is correctly signed! Only the version ledger exposes it.
        let violations = audit_dynamic(da.key(), user.public(), &ledger, &store);
        assert_eq!(
            violations,
            vec![(
                7,
                DynAuditError::StaleVersion {
                    expected: 1,
                    got: 0
                }
            )]
        );
    }

    #[test]
    fn deletion_resurrection_is_caught() {
        let (_, user, da, mut ledger, mut store) = setup();
        let v0 = user.dyn_insert(&mut ledger, 3, b"zombie".to_vec(), &[da.public()]);
        store.put(v0);
        user.dyn_delete(&mut ledger, 3);
        // Server refuses to delete.
        let violations = audit_dynamic(da.key(), user.public(), &ledger, &store);
        assert_eq!(violations, vec![(3, DynAuditError::Resurrected)]);
    }

    #[test]
    fn silent_drop_is_caught() {
        let (_, user, da, mut ledger, mut store) = setup();
        store.put(user.dyn_insert(&mut ledger, 0, b"keep me".to_vec(), &[da.public()]));
        store.delete(0); // server drops it to save space
        let violations = audit_dynamic(da.key(), user.public(), &ledger, &store);
        assert_eq!(violations, vec![(0, DynAuditError::Missing)]);
    }

    #[test]
    fn reinsertion_after_delete_cannot_reuse_old_signatures() {
        let (_, user, da, mut ledger, mut store) = setup();
        let original = user.dyn_insert(&mut ledger, 5, b"life 1".to_vec(), &[da.public()]);
        store.put(original.clone());
        user.dyn_delete(&mut ledger, 5);
        store.delete(5);
        // New life at the same position starts at version 1, not 0.
        let reborn = user.dyn_insert(&mut ledger, 5, b"life 2".to_vec(), &[da.public()]);
        assert_eq!(reborn.version(), 1);
        // A malicious server serving the first-life block is caught as
        // stale even though its signature is valid.
        store.put(original);
        let violations = audit_dynamic(da.key(), user.public(), &ledger, &store);
        assert_eq!(
            violations,
            vec![(
                5,
                DynAuditError::StaleVersion {
                    expected: 1,
                    got: 0
                }
            )]
        );
    }

    #[test]
    fn forged_version_field_fails_signature() {
        let (_, user, da, mut ledger, mut store) = setup();
        let mut block = user.dyn_insert(&mut ledger, 2, b"data".to_vec(), &[da.public()]);
        let _ = user.dyn_update(&mut ledger, 2, b"data2".to_vec(), &[da.public()]);
        // Attacker bumps the stale block's version field to match the
        // ledger without a fresh signature.
        block.tamper_version(1);
        store.put(block);
        let violations = audit_dynamic(da.key(), user.public(), &ledger, &store);
        assert_eq!(violations, vec![(2, DynAuditError::BadSignature)]);
    }

    #[test]
    fn non_designated_verifier_cannot_audit() {
        let (sio, user, da, mut ledger, mut store) = setup();
        store.put(user.dyn_insert(&mut ledger, 0, b"x".to_vec(), &[da.public()]));
        let eve = sio.register_verifier("eve");
        let violations = audit_dynamic(eve.key(), user.public(), &ledger, &store);
        assert_eq!(violations, vec![(0, DynAuditError::NotDesignated)]);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn double_insert_panics() {
        let (_, user, da, mut ledger, _) = setup();
        let _ = user.dyn_insert(&mut ledger, 0, b"a".to_vec(), &[da.public()]);
        let _ = user.dyn_insert(&mut ledger, 0, b"b".to_vec(), &[da.public()]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn update_of_missing_position_panics() {
        let (_, user, da, mut ledger, _) = setup();
        let _ = user.dyn_update(&mut ledger, 9, b"x".to_vec(), &[da.public()]);
    }
}
