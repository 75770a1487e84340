//! Tier-1 resilience: a retrying [`WireTransport`] wrapper.
//!
//! [`ResilientTransport`] sits between the protocol logic and a raw
//! channel. Each RPC is retried under the [`RetryPolicy`] whenever the
//! failure is *structural* — a decode error from the server, a timeout, or
//! a returned payload that does not even parse as the expected message
//! type. Structural damage is unauthenticated channel noise; retrying it is
//! sound and invisible to the protocol above.
//!
//! What tier 1 deliberately does **not** retry:
//!
//! * [`ServerError`]s — deterministic,
//!   authenticated decisions by the far end;
//! * responses that decode but fail *verification* — those reach the audit
//!   driver (tier 2), which decides between escalation and conviction.
//!
//! Every call reaches the wire: a call that exhausted its retries leaves
//! no state behind that refuses the next one, so an endpoint whose channel
//! heals is served again at once, and a lying server stays reachable to be
//! convicted. Byzantine evidence is tracked separately via
//! [`ResilientTransport::note_byzantine`].

use seccloud_cloudsim::rpc::{decode_store_body, encode_store_body, RpcError, WireTransport};
use seccloud_cloudsim::server::ServerError;
use seccloud_core::computation::Commitment;
use seccloud_core::storage::SignedBlock;
use seccloud_core::wire::WireMessage;
use seccloud_hash::HmacDrbg;
use seccloud_ibs::{UserPublic, VerifierPublic};

use crate::clock::VirtualClock;
use crate::policy::{backoff_ms, RetryPolicy};

/// The four wire endpoints, as stat buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Block upload.
    Store,
    /// Computation dispatch.
    Compute,
    /// Delegated audit challenge/response.
    Audit,
    /// Single-block retrieval.
    Retrieve,
}

impl Op {
    /// All endpoints, in stat-bucket order.
    pub const ALL: [Op; 4] = [Op::Store, Op::Compute, Op::Audit, Op::Retrieve];

    fn idx(self) -> usize {
        match self {
            Op::Store => 0,
            Op::Compute => 1,
            Op::Audit => 2,
            Op::Retrieve => 3,
        }
    }
}

/// Per-endpoint counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Individual wire attempts (including retries).
    pub attempts: u64,
    /// Calls that ultimately returned a structurally valid result.
    pub successes: u64,
    /// Attempts that failed transiently and were (or could be) retried.
    pub transient_faults: u64,
    /// Authenticated-misbehaviour marks recorded against this endpoint.
    pub byzantine_marks: u64,
}

/// Outcome of one attempt, before retry classification.
enum Attempt<T> {
    Ok(T),
    Transient(RpcError),
    Fatal(RpcError),
}

/// A [`WireTransport`] that retries structural damage with backoff on a
/// virtual clock.
///
/// All nondeterminism (backoff jitter) comes from a seeded [`HmacDrbg`]
/// over a [`VirtualClock`], so a recovery schedule replays bit-for-bit
/// from its seed.
pub struct ResilientTransport<T> {
    inner: T,
    policy: RetryPolicy,
    clock: VirtualClock,
    drbg: HmacDrbg,
    stats: [OpStats; 4],
}

impl<T> std::fmt::Debug for ResilientTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientTransport")
            .field("clock", &self.clock)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<T: WireTransport> ResilientTransport<T> {
    /// Wraps `inner` with `policy`, seeding the jitter DRBG from `seed`.
    /// The virtual clock starts at zero.
    pub fn new(inner: T, policy: RetryPolicy, seed: &[u8]) -> Self {
        Self {
            inner,
            policy,
            clock: VirtualClock::new(0),
            drbg: HmacDrbg::new(seed),
            stats: [OpStats::default(); 4],
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The transport's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Counters for one endpoint.
    pub fn stats(&self, op: Op) -> OpStats {
        self.stats.get(op.idx()).copied().unwrap_or_default()
    }

    /// Total authenticated-misbehaviour marks across all endpoints. Any
    /// nonzero suspicion makes the audit driver escalate its next
    /// challenge.
    pub fn suspicion(&self) -> u64 {
        self.stats.iter().map(|s| s.byzantine_marks).sum()
    }

    /// Records authenticated misbehaviour against `op`.
    pub fn note_byzantine(&mut self, op: Op) {
        if let Some(s) = self.stats.get_mut(op.idx()) {
            s.byzantine_marks += 1;
        }
    }

    /// The wrapped channel.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped channel (for test fault scheduling).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the channel.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// The shared retry loop: run `attempt` up to `max_attempts` times with
    /// exponential backoff between transient failures.
    fn call<R>(
        &mut self,
        op: Op,
        mut attempt: impl FnMut(&mut T) -> Attempt<R>,
    ) -> Result<R, RpcError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt_no = 1;
        loop {
            if let Some(s) = self.stats.get_mut(op.idx()) {
                s.attempts += 1;
            }
            match attempt(&mut self.inner) {
                Attempt::Ok(value) => {
                    if let Some(s) = self.stats.get_mut(op.idx()) {
                        s.successes += 1;
                    }
                    return Ok(value);
                }
                Attempt::Transient(e) => {
                    if let Some(s) = self.stats.get_mut(op.idx()) {
                        s.transient_faults += 1;
                    }
                    if attempt_no >= max_attempts {
                        return Err(e);
                    }
                }
                // An authenticated server decision: retrying cannot change it.
                Attempt::Fatal(e) => return Err(e),
            }
            let wait = backoff_ms(attempt_no, &mut self.drbg);
            self.clock.advance(wait);
            attempt_no += 1;
        }
    }
}

/// Splits an [`RpcError`] into retryable vs. final.
fn classify<R>(e: RpcError) -> Attempt<R> {
    if e.is_transient() {
        Attempt::Transient(e)
    } else {
        Attempt::Fatal(e)
    }
}

impl<T: WireTransport> WireTransport for ResilientTransport<T> {
    /// Store with read-your-writes verification: the call only succeeds
    /// once every block reads back exactly as sent — index, data and every
    /// designation. A channel that mangles part of an upload therefore
    /// triggers a retry instead of a silent partial store: the server
    /// auth-rejects damage to its own designation at ingest, and the
    /// read-back catches damage to the designations it cannot check. A
    /// block that read back intact stays stored, so each retry re-uploads
    /// only the blocks that did not (ingest overwrites by index).
    fn rpc_store(&mut self, owner_identity: &str, body: &[u8]) -> Result<u64, RpcError> {
        let Ok(sent) = decode_store_body(body) else {
            // The caller's own body does not parse — a caller bug, not
            // channel damage: pass the server's answer through.
            return self.call(Op::Store, |inner| {
                inner
                    .rpc_store(owner_identity, body)
                    .map_or_else(classify, Attempt::Ok)
            });
        };
        let mut pending = sent.clone();
        self.call(Op::Store, |inner| {
            let retry_body;
            let upload = if pending.len() == sent.len() {
                body
            } else {
                retry_body = encode_store_body(&pending);
                &retry_body
            };
            let accepted = match inner.rpc_store(owner_identity, upload) {
                Ok(n) => n,
                Err(e) => return classify(e),
            };
            if accepted != pending.len() as u64 {
                return Attempt::Transient(RpcError::Server(ServerError::RejectedUpload {
                    slot: accepted as usize,
                }));
            }
            let mut first_bad = None;
            pending.retain(|block| {
                let index = block.block().index();
                let intact = inner
                    .rpc_retrieve(owner_identity, index)
                    .and_then(|bytes| SignedBlock::from_wire(&bytes).ok())
                    .is_some_and(|b| b == *block);
                if !intact {
                    first_bad.get_or_insert(index);
                }
                !intact
            });
            match first_bad {
                Some(position) => {
                    Attempt::Transient(RpcError::Server(ServerError::MissingBlock { position }))
                }
                None => Attempt::Ok(sent.len() as u64),
            }
        })
    }

    /// Compute with structural validation: the returned bytes must decode
    /// as a [`Commitment`] or the attempt is retried. Whether the
    /// commitment is *correct* is the audit's job, not the transport's.
    fn rpc_compute(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        self.call(Op::Compute, |inner| {
            match inner.rpc_compute(owner_identity, auditor_identity, body) {
                Err(e) => classify(e),
                Ok((job_id, bytes)) => match Commitment::from_wire(&bytes) {
                    Ok(_) => Attempt::Ok((job_id, bytes)),
                    Err(e) => Attempt::Transient(RpcError::Malformed(e)),
                },
            }
        })
    }

    /// Audit with structural validation: the response bytes must decode as
    /// an [`AuditResponse`](seccloud_core::computation::AuditResponse).
    /// Responses that decode but fail verification pass through untouched —
    /// distinguishing replay from lies takes the commitment, which lives a
    /// layer up in [`run_job_resilient`](crate::run_job_resilient).
    fn rpc_audit(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        job_id: u64,
        challenge_bytes: &[u8],
        warrant_bytes: &[u8],
        now: u64,
    ) -> Result<Vec<u8>, RpcError> {
        self.call(Op::Audit, |inner| {
            match inner.rpc_audit(
                owner_identity,
                auditor_identity,
                job_id,
                challenge_bytes,
                warrant_bytes,
                now,
            ) {
                Err(e) => classify(e),
                Ok(bytes) => match seccloud_core::computation::AuditResponse::from_wire(&bytes) {
                    Ok(_) => Attempt::Ok(bytes),
                    Err(e) => Attempt::Transient(RpcError::Malformed(e)),
                },
            }
        })
    }

    /// Retrieve with structural validation. `None` from the channel is
    /// authoritative (the server has no such block — retrying cannot
    /// conjure one); bytes that fail to decode as a
    /// [`SignedBlock`] are retried. If every attempt returns damaged
    /// bytes, the *last* damaged payload is returned so the caller's own
    /// verification can only push toward an unhealthy verdict, never a
    /// false pass.
    fn rpc_retrieve(&mut self, owner_identity: &str, position: u64) -> Option<Vec<u8>> {
        let mut last_damaged: Option<Vec<u8>> = None;
        let result = self.call(Op::Retrieve, |inner| {
            match inner.rpc_retrieve(owner_identity, position) {
                None => Attempt::Ok(None),
                Some(bytes) => {
                    if SignedBlock::from_wire(&bytes).is_ok() {
                        Attempt::Ok(Some(bytes))
                    } else {
                        last_damaged = Some(bytes);
                        Attempt::Transient(RpcError::Malformed(
                            seccloud_core::wire::WireError::BadElement,
                        ))
                    }
                }
            }
        });
        match result {
            Ok(found) => found,
            Err(_) => last_damaged,
        }
    }

    fn peer_verifier(&self) -> VerifierPublic {
        self.inner.peer_verifier()
    }

    fn peer_signer(&self) -> UserPublic {
        self.inner.peer_signer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scriptable transport: fails the next `fail_next` calls of every
    /// endpoint with a transient decode error, then succeeds with canned
    /// payloads.
    struct Flaky {
        fail_next: u32,
        calls: u32,
        commitment_bytes: Vec<u8>,
        response_bytes: Vec<u8>,
        block_bytes: Vec<u8>,
        verifier: VerifierPublic,
        signer: UserPublic,
    }

    fn canned() -> Flaky {
        use seccloud_cloudsim::behavior::Behavior;
        use seccloud_cloudsim::server::CloudServer;
        use seccloud_core::computation::{ComputationRequest, ComputeFunction, RequestItem};
        use seccloud_core::storage::DataBlock;
        use seccloud_core::Sio;

        let sio = Sio::new(b"transport-tests");
        let user = sio.register("alice");
        let mut server = CloudServer::new(&sio, "cs", Behavior::Honest, b"s");
        let da = sio.register_verifier("da");
        let blocks: Vec<DataBlock> = (0..4).map(|i| DataBlock::from_values(i, &[i])).collect();
        let signed = user.sign_blocks(&blocks, &[server.public(), da.public()]);
        let block_bytes = signed[0].to_wire();
        server.store(&user, signed);
        let request = ComputationRequest::new(vec![RequestItem {
            function: ComputeFunction::Sum,
            positions: vec![0, 1],
        }]);
        let handle = server
            .handle_computation(&"alice".to_string(), &request, da.public())
            .unwrap();
        let challenge = {
            let mut drbg = seccloud_hash::HmacDrbg::new(b"ch");
            seccloud_core::computation::AuditChallenge::sample(&mut drbg, 1, 1)
        };
        let warrant = seccloud_core::warrant::Warrant::issue(
            &user,
            "da",
            1_000,
            request.digest(),
            &[server.public(), da.public()],
        );
        let response = server
            .handle_audit(handle.job_id, &challenge, &warrant, user.public(), "da", 0)
            .unwrap();
        Flaky {
            fail_next: 0,
            calls: 0,
            commitment_bytes: handle.commitment.to_wire(),
            response_bytes: response.to_wire(),
            block_bytes,
            verifier: server.public().clone(),
            signer: server.signer_public().clone(),
        }
    }

    impl WireTransport for Flaky {
        fn rpc_store(&mut self, _owner: &str, _body: &[u8]) -> Result<u64, RpcError> {
            unimplemented!("store path is covered by the fault-injection suite")
        }

        fn rpc_compute(
            &mut self,
            _owner: &str,
            _auditor: &str,
            _body: &[u8],
        ) -> Result<(u64, Vec<u8>), RpcError> {
            self.calls += 1;
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return Err(RpcError::Malformed(
                    seccloud_core::wire::WireError::Truncated,
                ));
            }
            Ok((7, self.commitment_bytes.clone()))
        }

        fn rpc_audit(
            &mut self,
            _owner: &str,
            _auditor: &str,
            _job: u64,
            _challenge: &[u8],
            _warrant: &[u8],
            _now: u64,
        ) -> Result<Vec<u8>, RpcError> {
            self.calls += 1;
            if self.fail_next > 0 {
                self.fail_next -= 1;
                // Decodable garbage is also damage: return bytes that are
                // not an AuditResponse.
                return Ok(vec![0xFF; 9]);
            }
            Ok(self.response_bytes.clone())
        }

        fn rpc_retrieve(&mut self, _owner: &str, position: u64) -> Option<Vec<u8>> {
            self.calls += 1;
            if position == 99 {
                return None;
            }
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return Some(vec![0xAB; 5]);
            }
            Some(self.block_bytes.clone())
        }

        fn peer_verifier(&self) -> VerifierPublic {
            self.verifier.clone()
        }

        fn peer_signer(&self) -> UserPublic {
            self.signer.clone()
        }
    }

    fn wrap(inner: Flaky) -> ResilientTransport<Flaky> {
        ResilientTransport::new(inner, RetryPolicy::default(), b"rt-test")
    }

    #[test]
    fn transient_compute_failures_are_retried_to_success() {
        let mut flaky = canned();
        flaky.fail_next = 2;
        let mut rt = wrap(flaky);
        let (job_id, bytes) = rt.rpc_compute("alice", "da", b"ignored").unwrap();
        assert_eq!(job_id, 7);
        assert!(Commitment::from_wire(&bytes).is_ok());
        let s = rt.stats(Op::Compute);
        assert_eq!(s.attempts, 3);
        assert_eq!(s.transient_faults, 2);
        assert_eq!(s.successes, 1);
        assert!(rt.clock().now_ms() > 0, "backoff advanced the clock");
    }

    #[test]
    fn undecodable_audit_responses_count_as_damage() {
        let mut flaky = canned();
        flaky.fail_next = 1;
        let mut rt = wrap(flaky);
        let bytes = rt.rpc_audit("alice", "da", 0, b"", b"", 0).unwrap();
        assert!(seccloud_core::computation::AuditResponse::from_wire(&bytes).is_ok());
        assert_eq!(rt.stats(Op::Audit).transient_faults, 1);
    }

    #[test]
    fn exhausted_retries_leave_the_transport_serving() {
        let burst = 3 * RetryPolicy::default().max_attempts;
        let mut flaky = canned();
        flaky.fail_next = burst;
        let mut rt = wrap(flaky);
        for _ in 0..3 {
            assert!(rt.rpc_compute("a", "d", b"").is_err());
        }
        assert_eq!(rt.inner().calls, burst);
        let (job_id, _) = rt
            .rpc_compute("a", "d", b"")
            .expect("the healed channel is served again");
        assert_eq!(job_id, 7);
        assert_eq!(rt.inner().calls, burst + 1, "the call reached the wire");

        // `None` from retrieve is the server's own "no such block": it is
        // returned for a missing block and for nothing else, not even
        // after a burst that exhausted every retry.
        rt.inner_mut().fail_next = burst;
        for _ in 0..3 {
            let damaged = rt.rpc_retrieve("alice", 0).expect("damage is not absence");
            assert!(SignedBlock::from_wire(&damaged).is_err());
        }
        let block = rt
            .rpc_retrieve("alice", 0)
            .expect("the healed channel serves");
        assert!(SignedBlock::from_wire(&block).is_ok());
        assert!(rt.rpc_retrieve("alice", 99).is_none());
    }

    #[test]
    fn missing_block_is_authoritative_not_retried() {
        let mut rt = wrap(canned());
        assert!(rt.rpc_retrieve("alice", 99).is_none());
        let s = rt.stats(Op::Retrieve);
        assert_eq!(s.attempts, 1, "None is final: no retry");
        assert_eq!(s.successes, 1);
    }

    #[test]
    fn persistently_damaged_retrieve_returns_the_damage() {
        let mut flaky = canned();
        flaky.fail_next = u32::MAX;
        let mut rt = wrap(flaky);
        let bytes = rt.rpc_retrieve("alice", 0).expect("damaged bytes surface");
        assert!(
            SignedBlock::from_wire(&bytes).is_err(),
            "caller's verification sees the damage and reports unhealthy"
        );
    }

    #[test]
    fn byzantine_marks_raise_suspicion() {
        let mut rt = wrap(canned());
        assert_eq!(rt.suspicion(), 0);
        rt.note_byzantine(Op::Audit);
        rt.note_byzantine(Op::Audit);
        assert_eq!(rt.suspicion(), 2);
        assert_eq!(rt.stats(Op::Audit).byzantine_marks, 2);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut flaky = canned();
            flaky.fail_next = 3;
            let mut rt = ResilientTransport::new(flaky, RetryPolicy::default(), b"det");
            rt.rpc_compute("a", "d", b"").unwrap();
            (rt.clock().now_ms(), rt.stats(Op::Compute))
        };
        assert_eq!(run(), run());
    }
}
