//! A simulated cloud computing server.

use std::collections::{BTreeMap, HashMap};

use seccloud_core::computation::{
    AuditChallenge, AuditResponse, Commitment, CommitmentSession, ComputationRequest,
};
use seccloud_core::storage::{audit_blocks, SignedBlock};
use seccloud_core::warrant::{Warrant, WarrantError};
use seccloud_core::{CloudUser, Sio, VerifierCredential};
use seccloud_hash::HmacDrbg;
use seccloud_ibs::{UserPublic, VerifierPublic};

use crate::behavior::{Behavior, StorageAttack};

/// Errors a server can return to its clients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// A requested position is not in storage.
    MissingBlock {
        /// The absent position.
        position: u64,
    },
    /// An uploaded block failed authentication at ingest.
    RejectedUpload {
        /// Index of the offending block within the upload.
        slot: usize,
    },
    /// No such computation job.
    UnknownJob,
    /// The audit challenge referenced indices outside the job.
    BadChallenge,
    /// The delegation warrant failed (expired, unbound, forged…).
    Warrant(WarrantError),
    /// The request was empty.
    EmptyRequest,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::MissingBlock { position } => {
                write!(f, "no block stored at position {position}")
            }
            ServerError::RejectedUpload { slot } => {
                write!(f, "upload slot {slot} failed authentication")
            }
            ServerError::UnknownJob => write!(f, "unknown computation job"),
            ServerError::BadChallenge => write!(f, "challenge indices out of range"),
            ServerError::Warrant(e) => write!(f, "warrant rejected: {e}"),
            ServerError::EmptyRequest => write!(f, "computation request is empty"),
        }
    }
}

impl ServerError {
    /// Whether retrying the same call can plausibly succeed.
    ///
    /// Always `false` today: every variant is a deterministic decision the
    /// server makes about a well-formed request (missing data, failed
    /// authentication, an expired warrant), so replaying the request
    /// verbatim returns the same answer. The method exists so the
    /// resilience layer's taxonomy stays total if a load-shedding variant
    /// is ever added.
    pub fn is_transient(&self) -> bool {
        match self {
            ServerError::MissingBlock { .. }
            | ServerError::RejectedUpload { .. }
            | ServerError::UnknownJob
            | ServerError::BadChallenge
            | ServerError::Warrant(_)
            | ServerError::EmptyRequest => false,
        }
    }
}

impl std::error::Error for ServerError {}

/// Handle to a computation job: what a client needs to later audit it.
#[derive(Clone, Debug)]
pub struct JobHandle {
    /// Server-local job id.
    pub job_id: u64,
    /// The request that was executed.
    pub request: ComputationRequest,
    /// The public commitment `{Y, R, Sig(R)}`.
    pub commitment: Commitment,
}

struct Job {
    owner: String,
    request: ComputationRequest,
    session: CommitmentSession,
}

/// A cloud computing server: stores signed blocks per owner, executes
/// computation requests into Merkle commitments, and answers audit
/// challenges — honestly or according to its [`Behavior`].
pub struct CloudServer {
    cred: VerifierCredential,
    behavior: Behavior,
    storage: HashMap<String, BTreeMap<u64, SignedBlock>>,
    jobs: HashMap<u64, Job>,
    next_job: u64,
    drbg: HmacDrbg,
    /// Blocks the privacy-leaker exfiltrates (inspected by [`crate::privacy`]).
    pub(crate) leaked: Vec<(String, SignedBlock)>,
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer")
            .field("identity", &self.identity())
            .field("behavior", &self.behavior)
            .field("owners", &self.storage.len())
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

impl CloudServer {
    /// Spins up a server registered with the SIO under `identity`.
    pub fn new(sio: &Sio, identity: &str, behavior: Behavior, seed: &[u8]) -> Self {
        let mut seed_full = seed.to_vec();
        seed_full.extend_from_slice(identity.as_bytes());
        Self {
            cred: sio.register_verifier(identity),
            behavior,
            storage: HashMap::new(),
            jobs: HashMap::new(),
            next_job: 0,
            drbg: HmacDrbg::new(&seed_full),
            leaked: Vec::new(),
        }
    }

    /// The server's identity string.
    pub fn identity(&self) -> &str {
        self.cred.identity()
    }

    /// The server's public verification identity (`Q_CS`), which users
    /// designate their block signatures to.
    pub fn public(&self) -> &VerifierPublic {
        self.cred.public()
    }

    /// The server's public *signing* identity (verifies `Sig(R)`).
    pub fn signer_public(&self) -> &UserPublic {
        self.cred.signer_public()
    }

    /// The behaviour profile.
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// Swaps the behaviour (epoch rotation by the Byzantine adversary).
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// Ingests uploaded blocks for `owner`, authenticating each designated
    /// signature first (paper eq. 5: "CSs or DA could checks its validity
    /// of the stored data") — all of them in one batched
    /// [`audit_blocks`], which accepts exactly the blocks that verify one
    /// by one.
    ///
    /// Storage-cheating servers apply their attack *after* ingest — the
    /// data was valid when it arrived.
    pub fn store(&mut self, owner: &CloudUser, blocks: Vec<SignedBlock>) -> usize {
        self.store_public(owner.public(), blocks)
    }

    /// Ingest path keyed by the owner's *public* identity data — what a
    /// remote server actually has (used by the byte-level [`crate::rpc`]
    /// layer).
    pub fn store_public(&mut self, owner: &UserPublic, blocks: Vec<SignedBlock>) -> usize {
        let failed = audit_blocks(self.cred.key(), owner, &blocks).failed;
        let mut accepted = 0;
        for (slot, mut block) in blocks.into_iter().enumerate() {
            if failed.binary_search(&slot).is_ok() {
                continue;
            }
            if let Behavior::PrivacyLeaker = self.behavior {
                self.leaked
                    .push((owner.identity().to_owned(), block.clone()));
            }
            if let Behavior::StorageCheater { ssc, attack } = &self.behavior {
                if self.drbg.next_f64() >= *ssc {
                    match attack {
                        StorageAttack::Delete => continue, // drop silently
                        StorageAttack::Corrupt => {
                            let garbage = self.drbg.next_bytes(block.block().data().len().max(8));
                            block.tamper_data(garbage);
                        }
                        StorageAttack::WrongPosition => {
                            // Keep the data but file it under a shifted
                            // position, relabelled to look legitimate.
                            let idx = block.block().index();
                            block.tamper_index(idx.wrapping_add(1));
                        }
                    }
                }
            }
            self.storage
                .entry(owner.identity().to_owned())
                .or_default()
                .insert(block.block().index(), block);
            accepted += 1;
        }
        accepted
    }

    /// Serves a stored block (a storage query).
    pub fn retrieve(&self, owner: &str, position: u64) -> Option<&SignedBlock> {
        self.storage.get(owner)?.get(&position)
    }

    /// Number of blocks held for `owner`.
    pub fn stored_count(&self, owner: &str) -> usize {
        self.storage.get(owner).map_or(0, BTreeMap::len)
    }

    /// Executes a computation request `{F, P}` into a signed Merkle
    /// commitment (paper Section V-C-2), honestly or per the behaviour.
    ///
    /// # Errors
    ///
    /// [`ServerError::MissingBlock`] when a requested position is absent
    /// (which a `Delete`-attacking server will eventually hit);
    /// [`ServerError::EmptyRequest`] for empty requests.
    pub fn handle_computation(
        &mut self,
        owner: &String,
        request: &ComputationRequest,
        auditor: &VerifierPublic,
    ) -> Result<JobHandle, ServerError> {
        if request.is_empty() {
            return Err(ServerError::EmptyRequest);
        }
        let store = self.storage.get(owner);
        let mut inputs = Vec::with_capacity(request.len());
        let mut results = Vec::with_capacity(request.len());
        for item in &request.items {
            let mut blocks = Vec::with_capacity(item.positions.len());
            for &pos in &item.positions {
                let block = store
                    .and_then(|s| s.get(&pos))
                    .ok_or(ServerError::MissingBlock { position: pos })?;
                blocks.push(block.clone());
            }
            let values: Vec<u64> = blocks.iter().flat_map(|b| b.block().values()).collect();
            let honest_y = item.function.eval(&values);
            let y = match &self.behavior {
                Behavior::ComputationCheater { csc, guess_range } => {
                    if self.drbg.next_f64() < *csc {
                        honest_y
                    } else {
                        // Skipped sub-task: return a uniform guess from a
                        // range containing the honest value.
                        match guess_range {
                            Some(r) => {
                                let guess = self.drbg.next_below(*r);
                                honest_y
                                    .wrapping_sub(honest_y % (*r as u128))
                                    .wrapping_add(guess as u128)
                            }
                            None => honest_y.wrapping_add(1 + self.drbg.next_u64() as u128),
                        }
                    }
                }
                _ => honest_y,
            };
            results.push(y);
            inputs.push(blocks);
        }
        let session = CommitmentSession::from_results(request.clone(), inputs, results);
        let commitment = session.sign_root(self.cred.signer(), auditor);
        let job_id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            job_id,
            Job {
                owner: owner.clone(),
                request: request.clone(),
                session,
            },
        );
        Ok(JobHandle {
            job_id,
            request: request.clone(),
            commitment,
        })
    }

    /// Answers an audit challenge after validating the delegation warrant
    /// (paper Section V-D step 2: "it first verifies the warrant to check
    /// whether it is expired").
    ///
    /// # Errors
    ///
    /// Warrant failures, unknown jobs and out-of-range challenges are
    /// reported as [`ServerError`]s.
    pub fn handle_audit(
        &self,
        job_id: u64,
        challenge: &AuditChallenge,
        warrant: &Warrant,
        owner: &UserPublic,
        auditor_identity: &str,
        now: u64,
    ) -> Result<AuditResponse, ServerError> {
        let job = self.jobs.get(&job_id).ok_or(ServerError::UnknownJob)?;
        if job.owner != owner.identity() {
            return Err(ServerError::UnknownJob);
        }
        warrant
            .verify(
                self.cred.key(),
                owner,
                auditor_identity,
                &job.request.digest(),
                now,
            )
            .map_err(ServerError::Warrant)?;
        job.session
            .respond(challenge)
            .ok_or(ServerError::BadChallenge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_core::computation::{ComputeFunction, RequestItem};
    use seccloud_core::storage::DataBlock;

    fn setup(behavior: Behavior) -> (Sio, CloudUser, CloudServer, VerifierCredential) {
        let sio = Sio::new(b"server-tests");
        let user = sio.register("alice");
        let server = CloudServer::new(&sio, "cs-01", behavior, b"seed");
        let da = sio.register_verifier("da");
        (sio, user, server, da)
    }

    fn blocks(n: u64) -> Vec<DataBlock> {
        (0..n)
            .map(|i| DataBlock::from_values(i, &[i, 2 * i]))
            .collect()
    }

    fn request() -> ComputationRequest {
        ComputationRequest::new(vec![
            RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![0, 1],
            },
            RequestItem {
                function: ComputeFunction::Max,
                positions: vec![2, 3],
            },
        ])
    }

    #[test]
    fn honest_server_stores_and_computes() {
        let (_, user, mut server, da) = setup(Behavior::Honest);
        let signed = user.sign_blocks(&blocks(4), &[server.public(), da.public()]);
        assert_eq!(server.store(&user, signed), 4);
        assert_eq!(server.stored_count("alice"), 4);
        let job = server
            .handle_computation(&"alice".to_string(), &request(), da.public())
            .unwrap();
        // Sum of values at blocks 0,1 = (0+0) + (1+2) = 3; Max at 2,3 = 6.
        assert_eq!(job.commitment.results, vec![3, 6]);
    }

    #[test]
    fn forged_uploads_are_rejected_at_ingest() {
        let (sio, user, mut server, da) = setup(Behavior::Honest);
        let mut signed = user.sign_blocks(&blocks(2), &[server.public(), da.public()]);
        signed[1].tamper_data(b"evil".to_vec());
        assert_eq!(server.store(&user, signed), 1);
        // Blocks signed only for another server are also rejected.
        let other = sio.register_verifier("cs-02");
        let foreign = user.sign_blocks(&blocks(1), &[other.public()]);
        assert_eq!(server.store(&user, foreign), 0);
    }

    #[test]
    fn deleting_cheater_loses_blocks() {
        let (_, user, mut server, da) = setup(Behavior::StorageCheater {
            ssc: 0.0,
            attack: StorageAttack::Delete,
        });
        let signed = user.sign_blocks(&blocks(6), &[server.public(), da.public()]);
        server.store(&user, signed);
        assert_eq!(server.stored_count("alice"), 0);
        let err = server
            .handle_computation(&"alice".to_string(), &request(), da.public())
            .unwrap_err();
        assert!(matches!(err, ServerError::MissingBlock { .. }));
    }

    #[test]
    fn corrupting_cheater_keeps_invalid_blocks() {
        let (_, user, mut server, da) = setup(Behavior::StorageCheater {
            ssc: 0.0,
            attack: StorageAttack::Corrupt,
        });
        let signed = user.sign_blocks(&blocks(3), &[server.public(), da.public()]);
        server.store(&user, signed);
        assert_eq!(server.stored_count("alice"), 3);
        // Every stored block now fails authentication.
        let da_cred = da;
        for pos in 0..3 {
            let b = server.retrieve("alice", pos).unwrap();
            assert!(!b.verify(da_cred.key(), user.public()));
        }
    }

    #[test]
    fn ingest_checks_an_upload_in_one_pairing() {
        let (_, user, mut server, da) = setup(Behavior::Honest);
        let mut signed = user.sign_blocks(&blocks(16), &[server.public(), da.public()]);
        let before = seccloud_pairing::counters::snapshot();
        assert_eq!(server.store(&user, signed.clone()), 16);
        let spent = seccloud_pairing::counters::snapshot().since(&before);
        assert_eq!(
            (spent.final_exponentiations, spent.gt_subgroup_tests),
            (1, 15)
        );
        // A bad block is located and refused; the rest are stored.
        let (_, user, mut server, _) = setup(Behavior::Honest);
        signed[3].tamper_data(b"evil".to_vec());
        assert_eq!(server.store(&user, signed), 15);
        assert!(server.retrieve("alice", 3).is_none());
        assert!(server.retrieve("alice", 4).is_some());
    }

    #[test]
    fn missing_position_error() {
        let (_, user, mut server, da) = setup(Behavior::Honest);
        let signed = user.sign_blocks(&blocks(2), &[server.public(), da.public()]);
        server.store(&user, signed);
        let req = ComputationRequest::new(vec![RequestItem {
            function: ComputeFunction::Sum,
            positions: vec![7],
        }]);
        assert_eq!(
            server
                .handle_computation(&"alice".to_string(), &req, da.public())
                .unwrap_err(),
            ServerError::MissingBlock { position: 7 }
        );
    }

    #[test]
    fn unknown_job_and_bad_challenge() {
        let (_, user, mut server, da) = setup(Behavior::Honest);
        let signed = user.sign_blocks(&blocks(4), &[server.public(), da.public()]);
        server.store(&user, signed);
        let job = server
            .handle_computation(&"alice".to_string(), &request(), da.public())
            .unwrap();
        // A valid warrant, so the only thing wrong is the job id or index.
        let warrant = Warrant::issue(
            &user,
            da.identity(),
            1_000,
            job.request.digest(),
            &[server.public(), da.public()],
        );
        let audit = |job_id, index| {
            server.handle_audit(
                job_id,
                &AuditChallenge::from_indices(vec![index]),
                &warrant,
                user.public(),
                da.identity(),
                0,
            )
        };
        assert_eq!(audit(99, 0).unwrap_err(), ServerError::UnknownJob);
        assert_eq!(audit(job.job_id, 5).unwrap_err(), ServerError::BadChallenge);
        assert!(audit(job.job_id, 1).is_ok());
    }

    #[test]
    fn computation_cheater_with_zero_csc_always_lies() {
        let (_, user, mut server, da) = setup(Behavior::ComputationCheater {
            csc: 0.0,
            guess_range: None,
        });
        let signed = user.sign_blocks(&blocks(4), &[server.public(), da.public()]);
        server.store(&user, signed);
        let job = server
            .handle_computation(&"alice".to_string(), &request(), da.public())
            .unwrap();
        assert_ne!(job.commitment.results, vec![3, 6], "results must be lies");
    }

    #[test]
    fn privacy_leaker_exfiltrates_but_serves_honestly() {
        let (_, user, mut server, da) = setup(Behavior::PrivacyLeaker);
        let signed = user.sign_blocks(&blocks(3), &[server.public(), da.public()]);
        server.store(&user, signed);
        assert_eq!(server.leaked.len(), 3);
        let job = server.handle_computation(&"alice".to_string(), &request(), da.public());
        // Positions 2..4 partly missing (only 3 blocks) — build a valid req:
        let req = ComputationRequest::new(vec![RequestItem {
            function: ComputeFunction::Sum,
            positions: vec![0, 1, 2],
        }]);
        let _ = job; // original request referenced position 3
        let job = server
            .handle_computation(&"alice".to_string(), &req, da.public())
            .unwrap();
        assert_eq!(job.commitment.results.len(), 1);
    }
}
