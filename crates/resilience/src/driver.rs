//! Tier-2 resilience: whole-audit recovery with adaptive escalation.
//!
//! The transport (tier 1) already heals structural damage inside single
//! RPCs. This module handles what survives it: audit rounds that complete
//! but verify as invalid. The driver must then answer the central
//! question — *is the server lying, or was the channel unlucky?* — without
//! ever letting a flaky network acquit a cheater or convict an honest
//! server.
//!
//! The classification is deliberately one-sided. An invalid round counts
//! as **byzantine evidence** only when the failure is cryptographically
//! pinned to the server: the commitment's root signature verified, the
//! response echoed this round's nonce, the commitment's published results
//! rebuild the signed root ([`commitment_binds_results`]), and every
//! failing item is a [`WrongResult`](AuditFailure::WrongResult) whose
//! claimed value equals the committed one. Then the server *signed* a root
//! binding a wrong answer — no channel fault can fabricate that chain.
//! Anything weaker (a stale nonce, a damaged commitment, a signature that
//! no longer verifies) is treated as suspicion, not proof: the driver
//! escalates the challenge per Section VII's `Pr[FCS] = base^t` bound and
//! re-runs the round against a *freshly dispatched* commitment.

use seccloud_cloudsim::agency::{AuditVerdict, DesignatedAgency, StorageAuditVerdict};
use seccloud_cloudsim::rpc::{RpcError, WireTransport};
use seccloud_cloudsim::server::ServerError;
use seccloud_core::computation::{leaf_bytes, AuditFailure, Commitment, ComputationRequest};
use seccloud_core::storage::{audit_blocks, SignedBlock};
use seccloud_core::warrant::WarrantError;
use seccloud_core::wire::WireMessage;
use seccloud_core::CloudUser;
use seccloud_hash::ct_eq;
use seccloud_merkle::MerkleTree;

use crate::escalation::escalate_sample_size;
use crate::transport::{Op, ResilientTransport};

/// What one resilient audit cost and discovered along the way.
#[must_use = "recovery stats record escalations and byzantine evidence"]
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// `COMPUTE` dispatches issued (initial + re-dispatches).
    pub dispatch_attempts: u64,
    /// Challenge rounds run to completion (verdict or transport error).
    pub audit_rounds: u64,
    /// Rounds lost to transient faults the transport could not mask.
    pub transient_faults: u64,
    /// Rounds that produced cryptographically pinned misbehaviour.
    pub byzantine_evidence: u64,
    /// Challenge escalations performed.
    pub escalations: u64,
    /// The sample size of the last round that ran.
    pub final_sample_size: usize,
    /// Virtual time consumed, including backoffs and latency.
    pub virtual_elapsed_ms: u64,
}

/// The terminal state of one resilient computation audit.
#[must_use = "an unexamined resolution silently drops detected cheating"]
#[derive(Clone, Debug)]
pub enum AuditResolution {
    /// A challenge round verified end to end: the job is correct (up to
    /// the sampling bound at `stats.final_sample_size`).
    Clean {
        /// The passing round's verdict.
        verdict: AuditVerdict,
        /// What recovery cost to get here.
        stats: RecoveryStats,
    },
    /// The server produced cryptographically pinned wrong results.
    Detected {
        /// The convicting round's verdict.
        verdict: AuditVerdict,
        /// What recovery cost to get here.
        stats: RecoveryStats,
    },
    /// Retries, rounds or budget ran out without either outcome; the
    /// server is unreachable or the channel too damaged to decide.
    Unresolved {
        /// What stopped the audit.
        reason: String,
        /// What recovery cost before giving up.
        stats: RecoveryStats,
    },
}

impl AuditResolution {
    /// Whether the audit ended with a verified-correct round.
    pub fn is_clean(&self) -> bool {
        matches!(self, AuditResolution::Clean { .. })
    }

    /// Whether the audit ended by convicting the server.
    pub fn is_detected(&self) -> bool {
        matches!(self, AuditResolution::Detected { .. })
    }

    /// The recovery stats, whatever the outcome.
    pub fn stats(&self) -> &RecoveryStats {
        match self {
            AuditResolution::Clean { stats, .. }
            | AuditResolution::Detected { stats, .. }
            | AuditResolution::Unresolved { stats, .. } => stats,
        }
    }
}

/// The terminal state of one resilient storage audit.
#[must_use = "an unexamined resolution silently drops detected data loss"]
#[derive(Clone, Debug)]
pub struct StorageResolution {
    /// The per-position verdict after retries.
    pub verdict: StorageAuditVerdict,
    /// What recovery cost to get here.
    pub stats: RecoveryStats,
}

/// Whether the commitment's published results `Y` actually rebuild its
/// signed Merkle root for `request`'s position vectors.
///
/// This is the keystone of byzantine classification: when it holds, the
/// root signature covers every `yᵢ`, so a challenged item whose claimed
/// value equals `results[i]` but computes wrong is the *server's* signed
/// lie. When it fails, the commitment bytes were damaged in transit (the
/// signed root belongs to some other result vector) and nothing can be
/// pinned on the server.
pub fn commitment_binds_results(request: &ComputationRequest, commitment: &Commitment) -> bool {
    if commitment.results.is_empty() || commitment.results.len() != request.len() {
        return false;
    }
    let leaves: Vec<Vec<u8>> = commitment
        .results
        .iter()
        .zip(&request.items)
        .enumerate()
        .map(|(i, (&y, item))| leaf_bytes(i, &item.positions, y))
        .collect();
    let rebuilt = MerkleTree::from_data(leaves.iter().map(Vec::as_slice)).root();
    ct_eq(&rebuilt, &commitment.root)
}

/// Whether a detected round is cryptographically pinned to the server (see
/// the module docs for why each conjunct is load-bearing).
fn is_byzantine_evidence(
    request: &ComputationRequest,
    commitment: &Commitment,
    verdict: &AuditVerdict,
) -> bool {
    let outcome = &verdict.outcome;
    outcome.root_sig_ok
        && outcome.nonce_ok
        && !outcome.failures.is_empty()
        && commitment_binds_results(request, commitment)
        && outcome.failures.iter().all(|(idx, failure)| {
            matches!(
                failure,
                AuditFailure::WrongResult { claimed, .. }
                    if commitment.results.get(*idx) == Some(claimed)
            )
        })
}

/// Whether an audit call was refused because of the job it named rather
/// than the challenge round itself: an unknown (or foreign) job, a warrant
/// for another job's request, or a challenge beyond the job's items. Each
/// is what an honest server answers to a job id damaged in transit.
fn rejects_job_handle(e: &RpcError) -> bool {
    matches!(
        e,
        RpcError::Server(
            ServerError::UnknownJob
                | ServerError::BadChallenge
                | ServerError::Warrant(WarrantError::WrongRequest)
        )
    )
}

/// Runs one computation job to a terminal verdict through a resilient
/// transport: dispatches the request, audits it, and on anything short of
/// a pinned conviction escalates the challenge and retries against a fresh
/// commitment — up to the policy's round and budget limits.
///
/// Pre-existing suspicion ([`ResilientTransport::suspicion`]) from earlier
/// jobs on the same endpoint starts the challenge already escalated.
pub fn run_job_resilient<T: WireTransport>(
    da: &mut DesignatedAgency,
    transport: &mut ResilientTransport<T>,
    owner: &CloudUser,
    request: &ComputationRequest,
    sample_size: usize,
    now: u64,
) -> AuditResolution {
    let mut stats = RecoveryStats::default();
    let start_ms = transport.clock().now_ms();
    let budget_ms = transport.policy().total_budget_ms;
    let max_rounds = transport.policy().max_rounds.max(1);
    // Carry suspicion earned on this endpoint into the opening challenge.
    let mut steps = u32::try_from(transport.suspicion()).unwrap_or(u32::MAX);
    stats.escalations += u64::from(steps.min(1)); // counted once as "opened escalated"
    let mut job: Option<(u64, Commitment, Vec<u8>)> = None;

    let finish = |mut stats: RecoveryStats, now_ms: u64| {
        stats.virtual_elapsed_ms = now_ms.saturating_sub(start_ms);
        stats
    };

    for _round in 0..max_rounds {
        if transport.clock().now_ms().saturating_sub(start_ms) > budget_ms {
            let now_ms = transport.clock().now_ms();
            return AuditResolution::Unresolved {
                reason: "virtual-time budget exhausted".into(),
                stats: finish(stats, now_ms),
            };
        }
        if job.is_none() {
            stats.dispatch_attempts += 1;
            match transport.rpc_compute(owner.identity(), da.identity(), &request.to_wire()) {
                Ok((job_id, bytes)) => {
                    let commitment = match Commitment::from_wire(&bytes) {
                        Ok(c) => c,
                        // The transport validated decodability; a failure
                        // here means the caller's request was unanswerable.
                        Err(e) => {
                            let now_ms = transport.clock().now_ms();
                            return AuditResolution::Unresolved {
                                reason: format!("undecodable commitment: {e}"),
                                stats: finish(stats, now_ms),
                            };
                        }
                    };
                    job = Some((job_id, commitment, bytes));
                }
                Err(e) if e.is_transient() => {
                    stats.transient_faults += 1;
                    continue;
                }
                Err(e) => {
                    let now_ms = transport.clock().now_ms();
                    return AuditResolution::Unresolved {
                        reason: format!("dispatch rejected: {e}"),
                        stats: finish(stats, now_ms),
                    };
                }
            }
        }
        let Some((job_id, commitment, commitment_bytes)) = job.as_ref() else {
            continue; // unreachable: dispatched above, kept for panic-freedom
        };
        let t = escalate_sample_size(sample_size, request.len(), steps);
        stats.final_sample_size = t;
        stats.audit_rounds += 1;
        match da.audit_wire(transport, owner, request, *job_id, commitment_bytes, t, now) {
            Ok(verdict) if !verdict.detected => {
                let now_ms = transport.clock().now_ms();
                return AuditResolution::Clean {
                    verdict,
                    stats: finish(stats, now_ms),
                };
            }
            Ok(verdict) => {
                if is_byzantine_evidence(request, commitment, &verdict) {
                    transport.note_byzantine(Op::Audit);
                    stats.byzantine_evidence += 1;
                    let now_ms = transport.clock().now_ms();
                    return AuditResolution::Detected {
                        verdict,
                        stats: finish(stats, now_ms),
                    };
                }
                // Authenticated-but-unpinnable damage (stale nonce, mangled
                // commitment, bad paths): escalate and start over with a
                // fresh commitment so a corrupted one cannot wedge us.
                steps = steps.saturating_add(1);
                stats.escalations += 1;
                job = None;
            }
            Err(e) if e.is_transient() => {
                stats.transient_faults += 1;
                steps = steps.saturating_add(1);
                stats.escalations += 1;
            }
            Err(e) if rejects_job_handle(&e) => {
                // The job id in the compute reply is not signed, so the
                // refusal carries no evidence: treat it like unpinnable
                // damage and dispatch afresh.
                steps = steps.saturating_add(1);
                stats.escalations += 1;
                job = None;
            }
            Err(e) => {
                let now_ms = transport.clock().now_ms();
                return AuditResolution::Unresolved {
                    reason: format!("audit rejected: {e}"),
                    stats: finish(stats, now_ms),
                };
            }
        }
    }
    let now_ms = transport.clock().now_ms();
    AuditResolution::Unresolved {
        reason: "challenge rounds exhausted".into(),
        stats: finish(stats, now_ms),
    }
}

/// Sampled storage audit through a resilient transport: each challenged
/// position is retried (a fresh retrieve per round) until the block
/// verifies or the policy's rounds run out. Damage can only push positions
/// toward `missing`/`invalid` — a flaky channel never yields a false pass,
/// and a burst-faulty one never yields a false alarm.
///
/// Each round retrieves every position still open, then checks the
/// signatures of all blocks that decoded at their position in one batched
/// [`audit_blocks`]; a position ends `missing` if its last retrieve came
/// back empty and `invalid` otherwise.
pub fn storage_audit_resilient<T: WireTransport>(
    da: &mut DesignatedAgency,
    transport: &mut ResilientTransport<T>,
    owner: &CloudUser,
    n_blocks: u64,
    sample_size: usize,
) -> StorageResolution {
    let mut stats = RecoveryStats::default();
    let start_ms = transport.clock().now_ms();
    let max_rounds = transport.policy().max_rounds.max(1);
    let n = usize::try_from(n_blocks).unwrap_or(usize::MAX);
    let challenge = da.sample_challenge(n, sample_size.min(n));
    stats.final_sample_size = challenge.len();
    let sampled: Vec<u64> = challenge.indices.iter().map(|&i| i as u64).collect();
    // Per position: `None` once its block verified, otherwise whether its
    // last retrieve came back empty.
    let mut open: Vec<Option<bool>> = vec![Some(true); sampled.len()];
    for round in 0..max_rounds {
        let mut slots = Vec::new();
        let mut blocks = Vec::new();
        for ((slot, &pos), state) in sampled.iter().enumerate().zip(open.iter_mut()) {
            if state.is_none() {
                continue;
            }
            if round > 0 {
                stats.transient_faults += 1;
            }
            stats.audit_rounds += 1;
            let bytes = transport.rpc_retrieve(owner.identity(), pos);
            if let Some(block) = bytes
                .as_deref()
                .and_then(|b| SignedBlock::from_wire(b).ok())
            {
                if block.block().index() == pos {
                    slots.push(slot);
                    blocks.push(block);
                }
            }
            *state = Some(bytes.is_none());
        }
        let failed = audit_blocks(da.credential().key(), owner.public(), &blocks).failed;
        for (k, slot) in slots.into_iter().enumerate() {
            if failed.binary_search(&k).is_err() {
                open[slot] = None;
            }
        }
        if open.iter().all(Option::is_none) {
            break;
        }
    }
    let (mut missing, mut invalid) = (Vec::new(), Vec::new());
    for (&pos, state) in sampled.iter().zip(&open) {
        match state {
            Some(true) => missing.push(pos),
            Some(false) => invalid.push(pos),
            None => {}
        }
    }
    stats.virtual_elapsed_ms = transport.clock().now_ms().saturating_sub(start_ms);
    StorageResolution {
        verdict: StorageAuditVerdict {
            sampled,
            missing,
            invalid,
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RetryPolicy;
    use seccloud_cloudsim::behavior::Behavior;
    use seccloud_cloudsim::rpc::{encode_store_body, WireServer};
    use seccloud_cloudsim::server::CloudServer;
    use seccloud_core::computation::{ComputeFunction, RequestItem};
    use seccloud_core::storage::DataBlock;
    use seccloud_core::Sio;
    use seccloud_ibs::{UserPublic, VerifierPublic};
    use seccloud_testkit::fault::{Endpoint, FaultKind, FaultyChannel};

    const N_BLOCKS: u64 = 12;

    struct World<T = FaultyChannel<WireServer>> {
        user: CloudUser,
        da: DesignatedAgency,
        transport: ResilientTransport<T>,
    }

    fn world(behavior: Behavior, seed: u64) -> World {
        world_over(behavior, seed, |server| {
            FaultyChannel::new(server, seed, 0.0)
        })
    }

    /// One server, wrapped by `channel`, holding `N_BLOCKS` uploaded blocks.
    fn world_over<T: WireTransport>(
        behavior: Behavior,
        seed: u64,
        channel: impl FnOnce(WireServer) -> T,
    ) -> World<T> {
        let sio = Sio::new(b"driver-tests");
        let user = sio.register("alice");
        let server = CloudServer::new(&sio, "cs", behavior, b"srv");
        let da = DesignatedAgency::new(&sio, "da", b"agency");
        let blocks: Vec<DataBlock> = (0..N_BLOCKS)
            .map(|i| DataBlock::from_values(i, &[i * 7, i + 1]))
            .collect();
        let signed = user.sign_blocks(&blocks, &[server.public(), da.public()]);
        let mut transport = ResilientTransport::new(
            channel(WireServer::new(server)),
            RetryPolicy::default(),
            &seed.to_be_bytes(),
        );
        let body = encode_store_body(&signed);
        assert_eq!(
            transport.rpc_store(user.identity(), &body).unwrap(),
            N_BLOCKS
        );
        World {
            user,
            da,
            transport,
        }
    }

    fn request() -> ComputationRequest {
        ComputationRequest::new(
            (0..6u64)
                .map(|i| RequestItem {
                    function: ComputeFunction::WeightedSum(vec![3, 5]),
                    positions: vec![i, (i + 1) % N_BLOCKS],
                })
                .collect(),
        )
    }

    #[test]
    fn honest_server_resolves_clean_first_round() {
        let mut w = world(Behavior::Honest, 1);
        let res = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &request(), 3, 0);
        let AuditResolution::Clean { stats, .. } = res else {
            panic!("expected Clean, got {res:?}");
        };
        assert_eq!(stats.audit_rounds, 1);
        assert_eq!(stats.escalations, 0);
        assert_eq!(stats.final_sample_size, 3);
        assert_eq!(w.transport.suspicion(), 0);
    }

    #[test]
    fn transient_burst_is_masked_and_escalates() {
        let mut w = world(Behavior::Honest, 2);
        w.transport
            .inner_mut()
            .set_forced_burst(Endpoint::Audit, FaultKind::Truncate, 2);
        let res = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &request(), 2, 0);
        assert!(res.is_clean(), "burst must be masked: {res:?}");
        let stats = res.stats();
        assert!(
            w.transport.stats(Op::Audit).transient_faults >= 2,
            "the burst was actually injected"
        );
        assert_eq!(
            stats.final_sample_size, 2,
            "tier-1 healed it within round 1"
        );
        assert_eq!(w.transport.suspicion(), 0, "channel noise is not suspicion");
    }

    #[test]
    fn cheater_is_detected_with_byzantine_evidence() {
        let mut w = world(
            Behavior::ComputationCheater {
                csc: 0.0,
                guess_range: None,
            },
            3,
        );
        let res = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &request(), 6, 0);
        let AuditResolution::Detected { verdict, stats } = res else {
            panic!("expected Detected, got {res:?}");
        };
        assert!(verdict.detected);
        assert_eq!(stats.byzantine_evidence, 1);
        assert_eq!(w.transport.suspicion(), 1, "conviction raises suspicion");
        assert!(
            !w.transport.breaker_is_open(),
            "convicted servers stay reachable"
        );
    }

    #[test]
    fn partial_cheater_is_cornered_by_escalation() {
        // CSC = 0.5: a 1-sample challenge often misses, but any invalid
        // round escalates toward the full audit, which cannot miss.
        let mut w = world(
            Behavior::ComputationCheater {
                csc: 0.5,
                guess_range: None,
            },
            4,
        );
        let res = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &request(), 1, 0);
        match res {
            AuditResolution::Detected { ref stats, .. } => {
                assert!(stats.byzantine_evidence >= 1);
            }
            AuditResolution::Clean { ref stats, .. } => {
                // A 50% cheater can pass a small sample honestly; that is
                // the sampling bound, not a driver bug. It must not have
                // taken byzantine marks to get there.
                assert_eq!(stats.byzantine_evidence, 0);
            }
            AuditResolution::Unresolved { .. } => panic!("reachable server: {res:?}"),
        }
    }

    #[test]
    fn dead_endpoint_resolves_unresolved_not_panic() {
        let mut w = world(Behavior::Honest, 5);
        // Permanent fault: every audit response is truncated, forever.
        w.transport
            .inner_mut()
            .set_forced(Some((Endpoint::Audit, FaultKind::Truncate)));
        let res = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &request(), 2, 0);
        let AuditResolution::Unresolved { stats, .. } = res else {
            panic!("expected Unresolved, got {res:?}");
        };
        assert!(stats.transient_faults >= 1);
        assert!(stats.escalations >= 1, "each lost round escalated");
        assert_eq!(w.transport.suspicion(), 0, "a dead channel convicts nobody");
    }

    /// Replaces the job id of the next `remaining` compute replies with
    /// `to`, as damage to the unsigned id in transit would.
    struct JobIdRewriter<T> {
        inner: T,
        to: u64,
        remaining: usize,
    }

    impl<T: WireTransport> WireTransport for JobIdRewriter<T> {
        fn rpc_store(&mut self, owner: &str, body: &[u8]) -> Result<u64, RpcError> {
            self.inner.rpc_store(owner, body)
        }

        fn rpc_compute(
            &mut self,
            owner: &str,
            auditor: &str,
            body: &[u8],
        ) -> Result<(u64, Vec<u8>), RpcError> {
            let (job_id, commitment) = self.inner.rpc_compute(owner, auditor, body)?;
            if self.remaining == 0 {
                return Ok((job_id, commitment));
            }
            self.remaining -= 1;
            Ok((self.to, commitment))
        }

        fn rpc_audit(
            &mut self,
            owner: &str,
            auditor: &str,
            job_id: u64,
            challenge: &[u8],
            warrant: &[u8],
            now: u64,
        ) -> Result<Vec<u8>, RpcError> {
            self.inner
                .rpc_audit(owner, auditor, job_id, challenge, warrant, now)
        }

        fn rpc_retrieve(&mut self, owner: &str, position: u64) -> Option<Vec<u8>> {
            self.inner.rpc_retrieve(owner, position)
        }

        fn peer_verifier(&self) -> VerifierPublic {
            self.inner.peer_verifier()
        }

        fn peer_signer(&self) -> UserPublic {
            self.inner.peer_signer()
        }
    }

    fn rewriting_world(to: u64, remaining: usize) -> World<JobIdRewriter<WireServer>> {
        world_over(Behavior::Honest, 10, |inner| JobIdRewriter {
            inner,
            to,
            remaining,
        })
    }

    #[test]
    fn damaged_job_id_is_redispatched() {
        // After the first job, id 0 names a job for another request (the
        // server answers `Warrant(WrongRequest)`) and id 999 names no job
        // (`UnknownJob`).
        for to in [0, 999] {
            let mut w = rewriting_world(to, 0);
            let other = ComputationRequest::new(vec![RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![0, 1],
            }]);
            let first = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &other, 1, 0);
            assert!(first.is_clean(), "{first:?}");
            w.transport.inner_mut().remaining = 1;
            let res = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &request(), 3, 0);
            let AuditResolution::Clean { stats, .. } = res else {
                panic!("job id {to}: a rejected handle must not end the audit: {res:?}");
            };
            assert_eq!(stats.dispatch_attempts, 2);
            assert_eq!(stats.escalations, 1);
            assert_eq!(w.transport.suspicion(), 0);
        }
    }

    #[test]
    fn job_ids_damaged_on_every_reply_end_unresolved_never_detected() {
        let mut w = rewriting_world(999, usize::MAX);
        let res = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &request(), 3, 0);
        let AuditResolution::Unresolved { stats, .. } = res else {
            panic!("an unauditable job is neither clean nor convicted: {res:?}");
        };
        let max_rounds = w.transport.policy().max_rounds;
        assert_eq!(stats.dispatch_attempts, u64::from(max_rounds));
        assert_eq!(stats.byzantine_evidence, 0);
        assert_eq!(w.transport.suspicion(), 0);
    }

    #[test]
    fn storage_audit_retries_through_burst() {
        let mut w = world(Behavior::Honest, 6);
        w.transport
            .inner_mut()
            .set_forced_burst(Endpoint::Retrieve, FaultKind::BitFlip, 2);
        let res = storage_audit_resilient(&mut w.da, &mut w.transport, &w.user, N_BLOCKS, 6);
        assert!(res.verdict.is_healthy(), "{res:?}");
        assert_eq!(res.verdict.sampled.len(), 6);
    }

    #[test]
    fn storage_corruption_still_detected_under_retries() {
        use seccloud_cloudsim::behavior::StorageAttack;
        let mut w = world(
            Behavior::StorageCheater {
                ssc: 0.0,
                attack: StorageAttack::Corrupt,
            },
            7,
        );
        let res = storage_audit_resilient(&mut w.da, &mut w.transport, &w.user, N_BLOCKS, 8);
        assert!(!res.verdict.is_healthy());
        assert_eq!(res.verdict.invalid.len(), 8, "every sampled block corrupt");
    }

    #[test]
    fn binds_results_rejects_tampered_commitments() {
        let mut w = world(Behavior::Honest, 8);
        let req = request();
        let (_, bytes) = w
            .transport
            .rpc_compute(w.user.identity(), w.da.identity(), &req.to_wire())
            .unwrap();
        let good = Commitment::from_wire(&bytes).unwrap();
        assert!(commitment_binds_results(&req, &good));
        let mut tampered = good.clone();
        tampered.results[0] ^= 1;
        assert!(
            !commitment_binds_results(&req, &tampered),
            "a flipped result no longer rebuilds the signed root"
        );
        let mut short = good;
        short.results.pop();
        assert!(!commitment_binds_results(&req, &short));
    }

    #[test]
    fn same_seed_same_resolution() {
        let run = || {
            let mut w = world(Behavior::Honest, 9);
            w.transport
                .inner_mut()
                .set_forced_burst(Endpoint::Compute, FaultKind::LengthLie, 1);
            let res = run_job_resilient(&mut w.da, &mut w.transport, &w.user, &request(), 2, 0);
            assert!(res.is_clean(), "{res:?}");
            (
                res.stats().clone(),
                w.transport.clock().now_ms(),
                w.transport.inner().plan().clone(),
            )
        };
        assert_eq!(run(), run());
    }
}
