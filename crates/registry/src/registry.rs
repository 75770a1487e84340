//! The sharded multi-tenant user registry.

use std::collections::BTreeMap;

use seccloud_hash::Sha256;
use seccloud_ibs::UserPublic;
use seccloud_merkle::{leaf_hash, MerklePath, MerkleTree, Node};

use crate::commit::{CommitmentCheck, ShardCommitment};
use crate::shard::shard_of;

/// Domain prefix for member leaf bytes.
const LEAF_DOMAIN: &[u8] = b"seccloud-registry/member/v1";

/// The well-defined commitment root of a shard with no members (a Merkle
/// tree needs at least one leaf, so the empty set gets a domain-separated
/// constant instead).
fn empty_shard_root(shard: u32, epoch: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"seccloud-registry/empty-shard/v1");
    h.update(&shard.to_be_bytes());
    h.update(&epoch.to_be_bytes());
    h.finalize()
}

/// One enrolled tenant: the public identity data plus the epoch it joined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserRecord {
    public: UserPublic,
    enrolled_epoch: u64,
    /// `leaf_hash(leaf_bytes())`, computed once when [`UserRegistry::enroll`]
    /// builds the record (the only constructor, and the fields never
    /// change), so shard trees are rebuilt without re-encoding `Q_ID`.
    leaf: Node,
}

impl UserRecord {
    fn new(public: UserPublic, enrolled_epoch: u64) -> Self {
        let mut record = Self {
            public,
            enrolled_epoch,
            leaf: Node::default(),
        };
        record.leaf = leaf_hash(&record.leaf_bytes());
        record
    }

    /// The tenant's public identity data `(ID, Q_ID)`.
    pub fn public(&self) -> &UserPublic {
        &self.public
    }

    /// The epoch this tenant enrolled in.
    pub fn enrolled_epoch(&self) -> u64 {
        self.enrolled_epoch
    }

    /// The canonical committed bytes of this record: domain ‖ id-length ‖
    /// id ‖ compressed `Q_ID` ‖ enrollment epoch. Length-prefixing the
    /// identity keeps distinct records from ever sharing bytes.
    pub fn leaf_bytes(&self) -> Vec<u8> {
        let id = self.public.identity().as_bytes();
        let mut out = Vec::with_capacity(LEAF_DOMAIN.len() + 8 + id.len() + 32 + 8);
        out.extend_from_slice(LEAF_DOMAIN);
        out.extend_from_slice(&(id.len() as u64).to_be_bytes());
        out.extend_from_slice(id);
        out.extend_from_slice(&self.public.q().to_affine_vartime().to_compressed());
        out.extend_from_slice(&self.enrolled_epoch.to_be_bytes());
        out
    }
}

/// One shard: its members (sorted by identity — the canonical leaf order)
/// and a lazily cached commitment root.
#[derive(Clone, Debug, Default)]
struct Shard {
    members: BTreeMap<String, UserRecord>,
    /// Cached Merkle root, invalidated by any membership change.
    root: Option<[u8; 32]>,
}

impl Shard {
    /// The Merkle tree over the members' cached leaves, in sorted order
    /// (`None` for an empty shard).
    fn tree(&self) -> Option<MerkleTree> {
        (!self.members.is_empty())
            .then(|| MerkleTree::from_leaves(self.members.values().map(|r| r.leaf).collect()))
    }

    /// Computes the shard's Merkle root over its sorted member records.
    fn compute_root(&self, shard: u32, epoch: u64) -> [u8; 32] {
        self.tree()
            .map_or_else(|| empty_shard_root(shard, epoch), |tree| tree.root())
    }

    /// The cached root, computing and caching it if the member set changed
    /// since the last call.
    fn root(&mut self, shard: u32, epoch: u64) -> [u8; 32] {
        match self.root {
            Some(root) => root,
            None => {
                let root = self.compute_root(shard, epoch);
                self.root = Some(root);
                root
            }
        }
    }
}

/// A membership proof: the member's leaf position and authentication path
/// inside its shard's commitment.
#[derive(Clone, Debug)]
pub struct MembershipProof {
    /// The shard the member lives in (this epoch).
    pub shard: u32,
    /// The member's index in the shard's sorted leaf order.
    pub index: usize,
    /// The authentication path to the shard root.
    pub path: MerklePath,
}

/// The epoch-sharded multi-tenant registry (see crate docs).
///
/// # Examples
///
/// ```
/// use seccloud_ibs::UserPublic;
/// use seccloud_registry::UserRegistry;
///
/// let mut reg = UserRegistry::new(4, 0);
/// for name in ["alice", "bob", "carol"] {
///     reg.enroll(UserPublic::from_identity(name));
/// }
/// let commitments = reg.commitments();
/// assert_eq!(commitments.len(), 4);
/// assert!(reg
///     .check_commitment(0, &commitments[0].to_bytes())
///     .is_valid());
/// ```
#[derive(Clone, Debug)]
pub struct UserRegistry {
    epoch: u64,
    shards: Vec<Shard>,
}

impl UserRegistry {
    /// An empty registry with `shards` shards (clamped to ≥ 1) at `epoch`.
    pub fn new(shards: u32, epoch: u64) -> Self {
        Self {
            epoch,
            shards: vec![Shard::default(); shards.max(1) as usize],
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shard count.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Total enrolled tenants across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.members.len()).sum()
    }

    /// Whether no tenant is enrolled.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.members.is_empty())
    }

    /// Member count of one shard (0 for an out-of-range index).
    pub fn shard_len(&self, shard: u32) -> usize {
        self.shards
            .get(shard as usize)
            .map_or(0, |s| s.members.len())
    }

    /// The shard `identity` maps to in the current epoch.
    pub fn shard_of(&self, identity: &str) -> u32 {
        shard_of(identity, self.epoch, self.shard_count())
    }

    /// Enrolls a tenant (idempotent: re-enrolling an identity replaces its
    /// record and keeps the original enrollment epoch only if the public
    /// data is unchanged). Returns the shard it landed in.
    pub fn enroll(&mut self, public: UserPublic) -> u32 {
        let shard = self.shard_of(public.identity());
        let epoch = self.epoch;
        if let Some(s) = self.shards.get_mut(shard as usize) {
            let enrolled_epoch = match s.members.get(public.identity()) {
                Some(existing) if existing.public == public => existing.enrolled_epoch,
                _ => epoch,
            };
            s.members.insert(
                public.identity().to_owned(),
                UserRecord::new(public, enrolled_epoch),
            );
            s.root = None;
        }
        shard
    }

    /// Removes a tenant; returns its record if it was enrolled.
    pub fn remove(&mut self, identity: &str) -> Option<UserRecord> {
        let shard = self.shard_of(identity);
        let s = self.shards.get_mut(shard as usize)?;
        let removed = s.members.remove(identity);
        if removed.is_some() {
            s.root = None;
        }
        removed
    }

    /// The record for `identity`, if enrolled.
    pub fn get(&self, identity: &str) -> Option<&UserRecord> {
        self.shards
            .get(self.shard_of(identity) as usize)?
            .members
            .get(identity)
    }

    /// Iterates one shard's members in canonical (sorted) order.
    pub fn shard_members(&self, shard: u32) -> impl Iterator<Item = &UserRecord> {
        self.shards
            .get(shard as usize)
            .into_iter()
            .flat_map(|s| s.members.values())
    }

    /// The commitment of one shard, computing (and caching) the root if
    /// the member set changed since the last call. Out-of-range: `None`.
    pub fn commitment(&mut self, shard: u32) -> Option<ShardCommitment> {
        let epoch = self.epoch;
        let root = self.shards.get_mut(shard as usize)?.root(shard, epoch);
        Some(ShardCommitment { shard, epoch, root })
    }

    /// All shard commitments, recomputing dirty roots in parallel over
    /// [`seccloud_parallel::num_threads`] workers (each shard's tree build
    /// is independent).
    pub fn commitments(&mut self) -> Vec<ShardCommitment> {
        let epoch = self.epoch;
        seccloud_parallel::parallel_map_mut(&mut self.shards, |i, s| {
            let shard = i as u32;
            let root = s.root(shard, epoch);
            ShardCommitment { shard, epoch, root }
        })
    }

    /// Checks a presented commitment (as wire bytes) against the
    /// registry's own view of `shard`, reporting exactly which binding
    /// failed — shard, epoch or root. This is the DA-side defence against
    /// stale-epoch replays and cross-shard swaps of otherwise-valid
    /// commitments. Asking about a shard index the registry does not have
    /// is classified as [`CommitmentCheck::UnknownShard`] — a routing
    /// fault at the caller, distinct from a swap between two real shards
    /// — before any field of the presented bytes is compared.
    pub fn check_commitment(&self, shard: u32, bytes: &[u8]) -> CommitmentCheck {
        let Some(s) = self.shards.get(shard as usize) else {
            return CommitmentCheck::UnknownShard { shard };
        };
        let Some(presented) = ShardCommitment::from_bytes(bytes) else {
            return CommitmentCheck::Malformed;
        };
        if presented.shard != shard {
            return CommitmentCheck::WrongShard {
                presented: presented.shard,
            };
        }
        if presented.epoch != self.epoch {
            return CommitmentCheck::WrongEpoch {
                presented: presented.epoch,
            };
        }
        let expected = s.root.unwrap_or_else(|| s.compute_root(shard, self.epoch));
        if expected == presented.root {
            CommitmentCheck::Valid
        } else {
            CommitmentCheck::WrongRoot
        }
    }

    /// Rotates to the next epoch: every tenant is re-dealt to its new
    /// shard (the assignment hash depends on the epoch) and every root
    /// cache is invalidated. Returns the new epoch.
    pub fn rotate_epoch(&mut self) -> u64 {
        self.epoch = self.epoch.wrapping_add(1);
        let epoch = self.epoch;
        let shards = self.shard_count();
        let mut redealt = vec![Shard::default(); shards as usize];
        for shard in std::mem::take(&mut self.shards) {
            for (identity, record) in shard.members {
                let target = shard_of(&identity, epoch, shards) as usize;
                if let Some(s) = redealt.get_mut(target) {
                    s.members.insert(identity, record);
                }
            }
        }
        self.shards = redealt;
        self.epoch
    }

    /// Produces a membership proof for `identity` against its shard's
    /// current commitment. `None` if not enrolled.
    pub fn prove_member(&self, identity: &str) -> Option<MembershipProof> {
        let shard = self.shard_of(identity);
        let s = self.shards.get(shard as usize)?;
        let index = s.members.keys().position(|k| k == identity)?;
        let path = s.tree()?.prove(index)?;
        Some(MembershipProof { shard, index, path })
    }

    /// Verifies a membership proof against a shard commitment: the record
    /// must hash to a leaf authenticated under the commitment's root. The
    /// leaf is hashed here from [`UserRecord::leaf_bytes`], never taken
    /// from the record's cache.
    pub fn verify_member(
        commitment: &ShardCommitment,
        record: &UserRecord,
        proof: &MembershipProof,
    ) -> bool {
        proof.shard == commitment.shard
            && proof
                .path
                .verify(&commitment.root, &record.leaf_bytes(), proof.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated(n: u32, shards: u32, epoch: u64) -> UserRegistry {
        let mut reg = UserRegistry::new(shards, epoch);
        for i in 0..n {
            reg.enroll(UserPublic::from_identity(&format!("user-{i}")));
        }
        reg
    }

    #[test]
    fn enrollment_lands_in_the_assigned_shard() {
        let reg = populated(32, 4, 0);
        assert_eq!(reg.len(), 32);
        for i in 0..32 {
            let id = format!("user-{i}");
            let record = reg.get(&id).expect("enrolled");
            assert_eq!(record.public().identity(), id);
            assert_eq!(record.enrolled_epoch(), 0);
        }
        let total: usize = (0..4).map(|s| reg.shard_len(s)).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn re_enrollment_is_idempotent() {
        let mut reg = populated(4, 2, 3);
        let before = reg.len();
        reg.enroll(UserPublic::from_identity("user-1"));
        assert_eq!(reg.len(), before);
        assert_eq!(
            reg.get("user-1").expect("enrolled").enrolled_epoch(),
            3,
            "unchanged public data keeps the original enrollment epoch"
        );
    }

    #[test]
    fn commitments_are_deterministic_and_change_with_membership() {
        let mut a = populated(16, 4, 0);
        let mut b = populated(16, 4, 0);
        assert_eq!(a.commitments(), b.commitments());
        b.enroll(UserPublic::from_identity("late-joiner"));
        let sa = a.commitments();
        let sb = b.commitments();
        let changed = sa.iter().zip(&sb).filter(|(x, y)| x != y).count();
        assert_eq!(changed, 1, "exactly the joined shard's root moves");
    }

    #[test]
    fn empty_shards_have_distinct_stable_roots() {
        let mut reg = UserRegistry::new(3, 7);
        let c = reg.commitments();
        assert_eq!(c.len(), 3);
        assert_ne!(c[0].root, c[1].root, "empty roots are shard-bound");
        assert_eq!(reg.commitments(), c);
    }

    #[test]
    fn check_commitment_classifies_every_fault() {
        let mut reg = populated(24, 4, 5);
        let commitments = reg.commitments();
        let c0 = &commitments[0];
        assert!(reg.check_commitment(0, &c0.to_bytes()).is_valid());
        assert_eq!(reg.check_commitment(0, b"junk"), CommitmentCheck::Malformed);
        // Cross-shard swap: shard 1's commitment presented for shard 0.
        assert_eq!(
            reg.check_commitment(0, &commitments[1].to_bytes()),
            CommitmentCheck::WrongShard { presented: 1 }
        );
        // Stale epoch: same shard, earlier epoch.
        let stale = ShardCommitment {
            epoch: c0.epoch - 1,
            ..*c0
        };
        assert_eq!(
            reg.check_commitment(0, &stale.to_bytes()),
            CommitmentCheck::WrongEpoch { presented: 4 }
        );
        // Tampered member set: right shard and epoch, wrong root.
        let forged = ShardCommitment {
            root: [0xEE; 32],
            ..*c0
        };
        assert_eq!(
            reg.check_commitment(0, &forged.to_bytes()),
            CommitmentCheck::WrongRoot
        );
        // Asking about a shard the registry does not have is a routing
        // fault, not a cross-shard swap — even with perfectly valid bytes,
        // and even with malformed bytes (the shard bound is checked
        // first).
        assert_eq!(
            reg.check_commitment(9, &c0.to_bytes()),
            CommitmentCheck::UnknownShard { shard: 9 }
        );
        assert_eq!(
            reg.check_commitment(9, b"junk"),
            CommitmentCheck::UnknownShard { shard: 9 }
        );
    }

    #[test]
    fn rotation_redeals_and_rebinds_commitments() {
        let mut reg = populated(64, 8, 0);
        let before = reg.commitments();
        let epoch = reg.rotate_epoch();
        assert_eq!(epoch, 1);
        assert_eq!(reg.len(), 64, "rotation preserves the population");
        let after = reg.commitments();
        assert!(
            before.iter().zip(&after).all(|(b, a)| b != a),
            "every shard's commitment is rebound to the new epoch"
        );
        // Yesterday's commitments are now stale everywhere.
        for c in &before {
            assert_eq!(
                reg.check_commitment(c.shard, &c.to_bytes()),
                CommitmentCheck::WrongEpoch { presented: 0 }
            );
        }
    }

    #[test]
    fn membership_proofs_verify_and_bind_the_record() {
        let mut reg = populated(20, 4, 2);
        let commitments = reg.commitments();
        let record = reg.get("user-7").expect("enrolled").clone();
        let proof = reg.prove_member("user-7").expect("provable");
        let commitment = commitments
            .iter()
            .find(|c| c.shard == proof.shard)
            .expect("shard committed");
        assert!(UserRegistry::verify_member(commitment, &record, &proof));
        // A different member's record does not verify under this proof.
        let other = reg.get("user-8").expect("enrolled").clone();
        if other.public().identity() != record.public().identity() {
            assert!(!UserRegistry::verify_member(commitment, &other, &proof));
        }
        assert!(reg.prove_member("nobody").is_none());
    }

    fn hex(root: &[u8; 32]) -> String {
        root.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn commitment_roots_match_known_answers() {
        // Roots of the leaf encoding as first defined (every leaf hashed
        // from `leaf_bytes()` at commit time); the leaf cache must not
        // move a committed byte, before or after a rotation.
        let mut reg = populated(20, 4, 2);
        let roots = |reg: &mut UserRegistry| -> Vec<String> {
            reg.commitments().iter().map(|c| hex(&c.root)).collect()
        };
        assert_eq!(
            roots(&mut reg),
            [
                "ed2a23beada9549a00d96baf893ffdb292ebadb61ea2e9776ab4a6d57bc34678",
                "c587f6002134f44129ce7a179e90ac17aed6c986573174b6021c8e6f293f3098",
                "b7fbae6b0ba8e7e08c1d1824904cea8aa8b1d56e05b0b7b6f1843975201b4a01",
                "f7d2682d18e756f6b8b88f9eab1624a47ec479b19acf28481aa9a2a4a6ccc653",
            ]
        );
        assert_eq!(reg.rotate_epoch(), 3);
        assert_eq!(
            roots(&mut reg),
            [
                "663f185af7b350a0997a8e5e1b2c24d89bee3520faf1f901daae5d0f98d35193",
                "9d8f610c44906b792bced38a22f223a483ff6ea74970385165d75356ea32846b",
                "0a47009618ef48ba4a7e8a6f39a6815349e79465dcc7014e405c9c31730f820b",
                "ad5f107056d10caf5e0eb334a0dcaaeb0edec1e86807d07f9e99c8a298c01b4c",
            ]
        );
    }

    #[test]
    fn cached_leaf_tracks_the_committed_bytes() {
        let fresh = |reg: &UserRegistry, id: &str| {
            let record = reg.get(id).expect("enrolled");
            record.leaf == leaf_hash(&record.leaf_bytes())
        };
        let mut reg = populated(8, 2, 4);
        assert!(fresh(&reg, "user-3"), "enrolment");
        // Same public data: the original epoch (and so the leaf) is kept.
        reg.enroll(UserPublic::from_identity("user-3"));
        assert_eq!(reg.get("user-3").expect("enrolled").enrolled_epoch(), 4);
        assert!(fresh(&reg, "user-3"), "re-enrolment with the same data");
        // Rotation moves records between shards without touching them.
        reg.rotate_epoch();
        assert!(
            (0..8).all(|i| fresh(&reg, &format!("user-{i}"))),
            "rotation"
        );
        // Leaving and rejoining resets the enrollment epoch, and with it
        // the committed bytes. (`UserPublic` is only ever `H1(ID)`, so an
        // identity cannot come back with a different `Q_ID`; this is the
        // reachable way into the epoch-reset branch.)
        let before = reg.get("user-3").expect("enrolled").leaf;
        reg.remove("user-3");
        reg.enroll(UserPublic::from_identity("user-3"));
        let rejoined = reg.get("user-3").expect("enrolled");
        assert_eq!(rejoined.enrolled_epoch(), 5);
        assert_ne!(rejoined.leaf, before);
        assert!(fresh(&reg, "user-3"), "re-enrolment with a reset epoch");
        let copy = reg.clone();
        assert!(fresh(&copy, "user-3"), "clone");
        assert_eq!(copy.get("user-3"), reg.get("user-3"));
    }

    #[test]
    fn remove_unenrolls_and_moves_the_root() {
        let mut reg = populated(10, 2, 0);
        let before = reg.commitments();
        let record = reg.remove("user-3").expect("was enrolled");
        assert_eq!(record.public().identity(), "user-3");
        assert!(reg.get("user-3").is_none());
        assert_eq!(reg.len(), 9);
        assert_ne!(reg.commitments(), before);
        assert!(reg.remove("user-3").is_none());
    }
}
