//! The Designated Agency — the auditor acting on behalf of cloud users
//! (paper Sections III-B and V-D).

use seccloud_core::computation::{
    verify_response, AuditChallenge, AuditOutcome, AuditResponse, Commitment, ComputationRequest,
};
use seccloud_core::storage::{audit_blocks, SignedBlock};
use seccloud_core::warrant::Warrant;
use seccloud_core::wire::WireMessage;
use seccloud_core::{CloudUser, Sio, VerifierCredential};
use seccloud_hash::HmacDrbg;
use seccloud_ibs::{UserPublic, VerifierPublic};

use crate::rpc::{RpcError, WireTransport};
use crate::server::{CloudServer, JobHandle, ServerError};

/// The result of one delegated audit round.
#[must_use = "an unexamined verdict silently drops detected cheating"]
#[derive(Clone, Debug)]
pub struct AuditVerdict {
    /// The challenge that was issued.
    pub challenge: AuditChallenge,
    /// Algorithm 1's detailed outcome.
    pub outcome: AuditOutcome,
    /// Whether cheating was detected (`retValue = invalid`).
    pub detected: bool,
}

/// The result of one sampled storage audit.
#[must_use = "an unexamined verdict silently drops detected data loss"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageAuditVerdict {
    /// The positions that were challenged.
    pub sampled: Vec<u64>,
    /// Challenged positions the server could not produce (deletion).
    pub missing: Vec<u64>,
    /// Challenged positions whose block failed authentication
    /// (corruption or wrong-position relabelling).
    pub invalid: Vec<u64>,
}

impl StorageAuditVerdict {
    /// Whether every sampled block was present and authentic.
    pub fn is_healthy(&self) -> bool {
        self.missing.is_empty() && self.invalid.is_empty()
    }
}

/// One [`DesignatedAgency::audit_many`] work item: which server, which
/// job, which owner.
pub struct AuditJob<'a> {
    /// The server to challenge.
    pub server: &'a CloudServer,
    /// The job (request + commitment) under audit.
    pub handle: &'a JobHandle,
    /// The data owner delegating the audit.
    pub owner: &'a CloudUser,
}

/// The designated agency: holds its verifier credential and a DRBG for
/// challenge sampling, and drives the full audit protocol against servers.
///
/// "DA is expected to have enough computational and storage capability to
/// perform the auditing operations" (paper Section III-B).
pub struct DesignatedAgency {
    cred: VerifierCredential,
    drbg: HmacDrbg,
}

impl std::fmt::Debug for DesignatedAgency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignatedAgency")
            .field("identity", &self.identity())
            .finish()
    }
}

impl DesignatedAgency {
    /// Registers the agency with the SIO.
    pub fn new(sio: &Sio, identity: &str, seed: &[u8]) -> Self {
        Self {
            cred: sio.register_verifier(identity),
            drbg: HmacDrbg::new(seed),
        }
    }

    /// The agency's identity.
    pub fn identity(&self) -> &str {
        self.cred.identity()
    }

    /// The public verification identity users designate signatures to.
    pub fn public(&self) -> &VerifierPublic {
        self.cred.public()
    }

    /// The credential (for direct protocol calls in tests/benches).
    pub fn credential(&self) -> &VerifierCredential {
        &self.cred
    }

    /// Draws a fresh sampling challenge from the agency's DRBG.
    pub fn sample_challenge(&mut self, n: usize, t: usize) -> AuditChallenge {
        AuditChallenge::sample(&mut self.drbg, n, t)
    }

    /// Sampled **storage** audit (Protocol II with probabilistic sampling):
    /// draws `t` of the owner's `n` block positions, retrieves each from
    /// the server and verifies its designated signature (eq. 5).
    ///
    /// Per the paper's SSC analysis, a server keeping only an `SSC`
    /// fraction of the data intact escapes with probability `SSC^t`
    /// (eq. 12 with negligible forgery). The sampled blocks' signatures
    /// are checked in one batched [`audit_blocks`].
    pub fn storage_audit(
        &mut self,
        server: &CloudServer,
        owner: &CloudUser,
        n_blocks: u64,
        sample_size: usize,
    ) -> StorageAuditVerdict {
        let t = (sample_size as u64).min(n_blocks);
        let positions = self.drbg.sample_distinct(n_blocks, t);
        let served = positions
            .iter()
            .map(|&pos| match server.retrieve(owner.identity(), pos) {
                None => Served::Missing,
                Some(block) => Served::Block(block.clone()),
            })
            .collect();
        self.storage_verdict(owner.public(), positions, served)
    }

    /// Sorts what a storage audit got back for each sampled position into
    /// missing and invalid positions. A block is authentic when it sits at
    /// its position (eq. 5 binds the position into the signed message)
    /// and its designation verifies; the signatures of every block at its
    /// position are checked in one batched [`audit_blocks`].
    fn storage_verdict(
        &self,
        owner: &UserPublic,
        sampled: Vec<u64>,
        served: Vec<Served>,
    ) -> StorageAuditVerdict {
        /// A sampled position before the signature check.
        enum Pending {
            Missing,
            Invalid,
            Batched(usize),
        }
        let mut blocks = Vec::new();
        let pending: Vec<Pending> = served
            .into_iter()
            .zip(&sampled)
            .map(|(served, &pos)| match served {
                Served::Block(block) if block.block().index() == pos => {
                    blocks.push(block);
                    Pending::Batched(blocks.len() - 1)
                }
                Served::Missing => Pending::Missing,
                Served::Block(_) | Served::Undecodable => Pending::Invalid,
            })
            .collect();
        let failed = audit_blocks(self.cred.key(), owner, &blocks).failed;
        let mut missing = Vec::new();
        let mut invalid = Vec::new();
        for (&pos, state) in sampled.iter().zip(pending) {
            match state {
                Pending::Missing => missing.push(pos),
                Pending::Batched(k) if failed.binary_search(&k).is_err() => {}
                Pending::Batched(_) | Pending::Invalid => invalid.push(pos),
            }
        }
        StorageAuditVerdict {
            sampled,
            missing,
            invalid,
        }
    }

    /// Runs one full delegated audit round against `server` for the job in
    /// `handle`:
    ///
    /// 1. the owner issues a warrant delegating to this agency,
    /// 2. the agency samples `t` sub-tasks and challenges the server,
    /// 3. the server validates the warrant and responds,
    /// 4. the agency runs Algorithm 1 on the response.
    ///
    /// # Errors
    ///
    /// Propagates server-side rejections (bad warrant, unknown job).
    pub fn audit(
        &mut self,
        server: &CloudServer,
        handle: &JobHandle,
        owner: &CloudUser,
        sample_size: usize,
        now: u64,
    ) -> Result<AuditVerdict, ServerError> {
        let warrant = self.warrant_for(server, handle, owner, now);
        self.audit_with_warrant(server, handle, owner, &warrant, sample_size, now)
    }

    /// Like [`DesignatedAgency::audit`] but with a caller-supplied warrant
    /// (to exercise expiry and delegation failures).
    pub fn audit_with_warrant(
        &mut self,
        server: &CloudServer,
        handle: &JobHandle,
        owner: &CloudUser,
        warrant: &Warrant,
        sample_size: usize,
        now: u64,
    ) -> Result<AuditVerdict, ServerError> {
        let challenge = self.challenge_for(handle, sample_size);
        self.answer_and_verify(server, handle, owner, warrant, challenge, now)
    }

    /// Audits every job, returning verdicts in input order (paper Section
    /// VI: the DA "can concurrently handle multiple sessions").
    ///
    /// Challenges and warrants are drawn serially, in job order, so the
    /// DRBG stream matches calling [`DesignatedAgency::audit`] once per
    /// job. The pairing-heavy answer-and-verify steps then fan out over
    /// [`seccloud_parallel::num_threads`] workers.
    ///
    /// This is the *direct* (in-process) batch entry point; over a real wire,
    /// route batches through `seccloud-resilience`'s `ResilientPool`
    /// instead, which adds per-server breakers and replica failover so one
    /// dead endpoint degrades only its own jobs.
    ///
    /// # Errors
    ///
    /// Per-job server errors are returned in the corresponding slot.
    #[must_use = "unexamined verdicts silently drop detected cheating"]
    pub fn audit_many(
        &mut self,
        jobs: &[AuditJob<'_>],
        sample_size: usize,
        now: u64,
    ) -> Vec<Result<AuditVerdict, ServerError>> {
        let prepared: Vec<_> = jobs
            .iter()
            .map(|job| {
                let warrant = self.warrant_for(job.server, job.handle, job.owner, now);
                let challenge = self.challenge_for(job.handle, sample_size);
                (job, warrant, challenge)
            })
            .collect();
        seccloud_parallel::parallel_map(&prepared, |_, (job, warrant, challenge)| {
            self.answer_and_verify(
                job.server,
                job.handle,
                job.owner,
                warrant,
                challenge.clone(),
                now,
            )
        })
    }

    /// The owner's warrant delegating `handle`'s audit to this agency,
    /// designated to both the server and the agency.
    fn warrant_for(
        &self,
        server: &CloudServer,
        handle: &JobHandle,
        owner: &CloudUser,
        now: u64,
    ) -> Warrant {
        Warrant::issue(
            owner,
            self.identity(),
            now + 1_000,
            handle.request.digest(),
            &[server.public(), self.cred.public()],
        )
    }

    /// Draws the next sampling challenge for `handle`'s request.
    fn challenge_for(&mut self, handle: &JobHandle, sample_size: usize) -> AuditChallenge {
        let n = handle.request.len();
        self.sample_challenge(n, sample_size.min(n))
    }

    /// Steps 3–4 of an audit round: the server answers `challenge` and the
    /// agency runs Algorithm 1 on the response.
    fn answer_and_verify(
        &self,
        server: &CloudServer,
        handle: &JobHandle,
        owner: &CloudUser,
        warrant: &Warrant,
        challenge: AuditChallenge,
        now: u64,
    ) -> Result<AuditVerdict, ServerError> {
        let response = server.handle_audit(
            handle.job_id,
            &challenge,
            warrant,
            owner.public(),
            self.identity(),
            now,
        )?;
        let outcome = verify_response(
            self.cred.key(),
            owner.public(),
            server.signer_public(),
            &handle.request,
            &challenge,
            &handle.commitment,
            &response,
        );
        let detected = !outcome.is_valid();
        Ok(AuditVerdict {
            challenge,
            outcome,
            detected,
        })
    }

    /// Runs one full delegated audit **over a byte-level transport**: the
    /// commitment, warrant, challenge and response all cross the channel in
    /// serialized form, so any byte-level fault surfaces here as a typed
    /// error or a `detected` verdict — never a panic, never a false pass.
    ///
    /// The expected server identities come from
    /// [`WireTransport::peer_verifier`] / [`WireTransport::peer_signer`]
    /// (PKI-anchored), so a fault-injecting channel cannot substitute its
    /// own keys.
    ///
    /// # Errors
    ///
    /// Decode failures ([`RpcError::Malformed`]) and server rejections
    /// ([`RpcError::Server`]).
    #[allow(clippy::too_many_arguments)] // mirrors the wire exchange one-to-one
    pub fn audit_wire(
        &mut self,
        transport: &mut impl WireTransport,
        owner: &CloudUser,
        request: &ComputationRequest,
        job_id: u64,
        commitment_bytes: &[u8],
        sample_size: usize,
        now: u64,
    ) -> Result<AuditVerdict, RpcError> {
        let commitment = Commitment::from_wire(commitment_bytes)?;
        let n = request.len();
        let challenge = self.sample_challenge(n, sample_size.min(n));
        let peer_verifier = transport.peer_verifier();
        let warrant = Warrant::issue(
            owner,
            self.identity(),
            now + 1_000,
            request.digest(),
            &[&peer_verifier, self.cred.public()],
        );
        let response_bytes = transport.rpc_audit(
            owner.identity(),
            self.identity(),
            job_id,
            &challenge.to_wire(),
            &warrant.to_wire(),
            now,
        )?;
        let response = AuditResponse::from_wire(&response_bytes)?;
        let outcome = verify_response(
            self.cred.key(),
            owner.public(),
            &transport.peer_signer(),
            request,
            &challenge,
            &commitment,
            &response,
        );
        let detected = !outcome.is_valid();
        Ok(AuditVerdict {
            challenge,
            outcome,
            detected,
        })
    }

    /// Sampled storage audit **over a byte-level transport**: retrieves each
    /// challenged block as bytes and re-establishes authenticity from
    /// scratch — a position is `missing` if the channel returns nothing and
    /// `invalid` if the bytes fail to decode, carry the wrong index, or
    /// fail signature verification (one batched check for all blocks). A
    /// faulty channel can therefore only push the verdict toward
    /// unhealthy, never toward a false pass.
    pub fn storage_audit_wire(
        &mut self,
        transport: &mut impl WireTransport,
        owner: &CloudUser,
        n_blocks: u64,
        sample_size: usize,
    ) -> StorageAuditVerdict {
        let t = (sample_size as u64).min(n_blocks);
        let positions = self.drbg.sample_distinct(n_blocks, t);
        let served = positions
            .iter()
            .map(|&pos| match transport.rpc_retrieve(owner.identity(), pos) {
                None => Served::Missing,
                Some(bytes) => {
                    SignedBlock::from_wire(&bytes).map_or(Served::Undecodable, Served::Block)
                }
            })
            .collect();
        self.storage_verdict(owner.public(), positions, served)
    }
}

/// What a storage audit got back for one sampled position.
enum Served {
    /// Nothing came back.
    Missing,
    /// Bytes came back that do not decode to a block.
    Undecodable,
    /// A decoded block, not yet authenticated.
    Block(SignedBlock),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use seccloud_core::computation::{ComputationRequest, ComputeFunction, RequestItem};
    use seccloud_core::storage::DataBlock;
    use seccloud_core::warrant::WarrantError;

    fn world(behavior: Behavior) -> (Sio, CloudUser, CloudServer, DesignatedAgency, JobHandle) {
        let sio = Sio::new(b"agency-tests");
        let user = sio.register("alice");
        let mut server = CloudServer::new(&sio, "cs-01", behavior, b"srv");
        let da = DesignatedAgency::new(&sio, "da", b"agency");
        let blocks: Vec<DataBlock> = (0..16)
            .map(|i| DataBlock::from_values(i, &[i * 3, i * 3 + 1]))
            .collect();
        let signed = user.sign_blocks(&blocks, &[server.public(), da.public()]);
        server.store(&user, signed);
        let request = ComputationRequest::new(
            (0..8u64)
                .map(|i| RequestItem {
                    function: ComputeFunction::Sum,
                    positions: vec![2 * i, 2 * i + 1],
                })
                .collect(),
        );
        let handle = server
            .handle_computation(&"alice".to_string(), &request, da.public())
            .unwrap();
        (sio, user, server, da, handle)
    }

    #[test]
    fn honest_server_passes_audit() {
        let (_, user, server, mut da, handle) = world(Behavior::Honest);
        let verdict = da.audit(&server, &handle, &user, 4, 0).unwrap();
        assert!(!verdict.detected, "{verdict:?}");
        assert_eq!(verdict.challenge.len(), 4);
        assert!(verdict.outcome.root_sig_ok);
    }

    #[test]
    fn always_lying_server_is_always_caught() {
        let (_, user, server, mut da, handle) = world(Behavior::ComputationCheater {
            csc: 0.0,
            guess_range: None,
        });
        let verdict = da.audit(&server, &handle, &user, 1, 0).unwrap();
        assert!(verdict.detected, "one sample suffices against CSC=0, R=∞");
    }

    #[test]
    fn partial_cheater_detection_is_probabilistic() {
        // CSC = 0.5 over 8 items: a 1-sample audit sometimes misses,
        // a full-challenge audit always detects (with overwhelming prob).
        let (_, user, server, mut da, handle) = world(Behavior::ComputationCheater {
            csc: 0.5,
            guess_range: None,
        });
        let full = da.audit(&server, &handle, &user, 8, 0).unwrap();
        assert!(full.detected, "full audit of a 50% cheater");
        // The number of failing items should be near half.
        let fails = full.outcome.failures.len();
        assert!((1..8).contains(&fails), "got {fails} failures");
    }

    #[test]
    fn expired_warrant_is_rejected_by_the_server() {
        let (_, user, server, mut da, handle) = world(Behavior::Honest);
        let warrant = Warrant::issue(
            &user,
            da.identity(),
            10, // expires at t=10
            handle.request.digest(),
            &[server.public(), da.public()],
        );
        let err = da
            .audit_with_warrant(&server, &handle, &user, &warrant, 2, 50)
            .unwrap_err();
        assert_eq!(err, ServerError::Warrant(WarrantError::Expired));
        // And the same warrant works before expiry.
        assert!(da
            .audit_with_warrant(&server, &handle, &user, &warrant, 2, 5)
            .is_ok());
    }

    #[test]
    fn warrant_bound_to_other_request_is_rejected() {
        let (_, user, server, mut da, handle) = world(Behavior::Honest);
        let warrant = Warrant::issue(
            &user,
            da.identity(),
            1_000,
            [9u8; 32],
            &[server.public(), da.public()],
        );
        let err = da
            .audit_with_warrant(&server, &handle, &user, &warrant, 2, 0)
            .unwrap_err();
        assert_eq!(err, ServerError::Warrant(WarrantError::WrongRequest));
    }

    #[test]
    fn storage_audit_passes_honest_server() {
        let (_, user, server, mut da, _) = world(Behavior::Honest);
        let verdict = da.storage_audit(&server, &user, 16, 8);
        assert_eq!(verdict.sampled.len(), 8);
        assert!(verdict.is_healthy(), "{verdict:?}");
    }

    #[test]
    fn storage_audit_catches_deleting_and_corrupting_servers() {
        use crate::behavior::StorageAttack;
        for attack in [
            StorageAttack::Delete,
            StorageAttack::Corrupt,
            StorageAttack::WrongPosition,
        ] {
            let sio = Sio::new(b"storage-audit-cheat");
            let user = sio.register("alice");
            let mut server = CloudServer::new(
                &sio,
                "cs",
                Behavior::StorageCheater { ssc: 0.0, attack },
                b"s",
            );
            let mut da = DesignatedAgency::new(&sio, "da", b"a");
            let blocks: Vec<DataBlock> = (0..16).map(|i| DataBlock::from_values(i, &[i])).collect();
            server.store(
                &user,
                user.sign_blocks(&blocks, &[server.public(), da.public()]),
            );
            let verdict = da.storage_audit(&server, &user, 16, 16);
            assert!(!verdict.is_healthy(), "attack {attack:?} must be caught");
            match attack {
                StorageAttack::Delete => assert_eq!(verdict.missing.len(), 16),
                StorageAttack::Corrupt => assert_eq!(verdict.invalid.len(), 16),
                // WrongPosition shifts every block by one slot: position 0
                // becomes missing, the shifted ones fail authentication.
                StorageAttack::WrongPosition => {
                    assert!(!verdict.missing.is_empty() || !verdict.invalid.is_empty());
                }
            }
        }
    }

    #[test]
    fn storage_audit_escape_rate_tracks_ssc_formula() {
        // SSC = 0.5 deleter audited with t = 4: escape prob 0.5⁴ ≈ 6%.
        // Sign once; per trial only the server's deletion dice and the
        // DA's sampling vary (ingest re-verification is skipped by reusing
        // the same upload set — deletions happen at ingest).
        let sio = Sio::new(b"ssc-rate");
        let user = sio.register("alice");
        let mut da = DesignatedAgency::new(&sio, "da", b"ssc-da");
        let proto_server = CloudServer::new(&sio, "cs", Behavior::Honest, b"proto");
        let blocks: Vec<DataBlock> = (0..16).map(|i| DataBlock::from_values(i, &[i])).collect();
        let signed = user.sign_blocks(&blocks, &[proto_server.public(), da.public()]);

        let mut escapes = 0;
        let trials = 24;
        for trial in 0u32..trials {
            let mut server = CloudServer::new(
                &sio,
                "cs",
                Behavior::StorageCheater {
                    ssc: 0.5,
                    attack: crate::behavior::StorageAttack::Delete,
                },
                &trial.to_be_bytes(),
            );
            server.store(&user, signed.clone());
            if da.storage_audit(&server, &user, 16, 4).is_healthy() {
                escapes += 1;
            }
        }
        let rate = f64::from(escapes) / f64::from(trials);
        assert!(rate < 0.35, "escape rate {rate} should be near 0.5⁴ ≈ 0.06");
    }

    #[test]
    fn audit_many_matches_serial_audits() {
        // Two identically seeded agencies over the same three jobs (server
        // 1 always lies): `audit_many` must replay `audit` job by job —
        // same challenge stream, same Algorithm-1 outcome, same verdict.
        let sio = Sio::new(b"audit-many");
        let mut batched_da = DesignatedAgency::new(&sio, "da", b"agency");
        let mut serial_da = DesignatedAgency::new(&sio, "da", b"agency");
        let users: Vec<_> = (0..3).map(|i| sio.register(&format!("user-{i}"))).collect();
        let mut servers: Vec<_> = (0..3)
            .map(|i| {
                let behavior = if i == 1 {
                    Behavior::ComputationCheater {
                        csc: 0.0,
                        guess_range: None,
                    }
                } else {
                    Behavior::Honest
                };
                CloudServer::new(&sio, &format!("cs-{i}"), behavior, b"s")
            })
            .collect();
        let request = ComputationRequest::new(
            (0..6u64)
                .map(|i| RequestItem {
                    function: ComputeFunction::Sum,
                    positions: vec![i],
                })
                .collect(),
        );
        let mut handles = Vec::new();
        for (user, server) in users.iter().zip(servers.iter_mut()) {
            let blocks: Vec<DataBlock> = (0..6u64)
                .map(|i| DataBlock::from_values(i, &[i, i * 2]))
                .collect();
            let signed = user.sign_blocks(&blocks, &[server.public(), batched_da.public()]);
            server.store(user, signed);
            handles.push(
                server
                    .handle_computation(&user.identity().to_string(), &request, batched_da.public())
                    .unwrap(),
            );
        }
        let jobs: Vec<AuditJob<'_>> = users
            .iter()
            .zip(&servers)
            .zip(&handles)
            .map(|((owner, server), handle)| AuditJob {
                server,
                handle,
                owner,
            })
            .collect();

        let batched = batched_da.audit_many(&jobs, 3, 0);
        assert_eq!(batched.len(), 3);
        for (i, (job, verdict)) in jobs.iter().zip(&batched).enumerate() {
            let verdict = verdict.as_ref().unwrap();
            let serial = serial_da
                .audit(job.server, job.handle, job.owner, 3, 0)
                .unwrap();
            assert_eq!(verdict.challenge, serial.challenge, "job {i}");
            assert_eq!(verdict.outcome, serial.outcome, "job {i}");
            assert_eq!(verdict.detected, serial.detected, "job {i}");
            assert_eq!(verdict.detected, i == 1, "only server 1 cheats");
        }
    }

    #[test]
    fn sample_size_is_clamped_to_request_len() {
        let (_, user, server, mut da, handle) = world(Behavior::Honest);
        let verdict = da.audit(&server, &handle, &user, 100, 0).unwrap();
        assert_eq!(verdict.challenge.len(), 8);
        assert!(!verdict.detected);
    }
}
