//! Deterministic fault injection for the byte-level protocol.
//!
//! [`FaultyChannel`] wraps any [`WireTransport`] and mangles the byte
//! payload crossing each endpoint — the uploaded block stream for
//! `STORE`, the returned commitment for `COMPUTE`, the audit response for
//! `AUDIT`, the served block for `RETRIEVE` — according to a schedule
//! drawn from an [`HmacDrbg`], so every run replays exactly from its seed.
//! Honest payloads are recorded before mangling, which makes the replay
//! faults deliver *authentic old messages* (the classic network attack)
//! rather than garbage.
//!
//! The identities returned by [`WireTransport::peer_verifier`] /
//! [`WireTransport::peer_signer`] pass through untouched: they model
//! PKI-anchored knowledge, which a man-in-the-middle cannot rewrite.

use seccloud_cloudsim::rpc::{RpcError, WireTransport};
use seccloud_hash::HmacDrbg;
use seccloud_ibs::{UserPublic, VerifierPublic};

/// The eight byte-stream faults the channel can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Cut the payload short at a random point.
    Truncate,
    /// Flip one random bit.
    BitFlip,
    /// Rewrite a plausible length field to a lying value.
    LengthLie,
    /// Deliver the previous payload seen on this endpoint (same epoch).
    ReplayPrevious,
    /// Deliver the latest payload seen on a *different* endpoint.
    CrossSwap,
    /// Deliver a payload recorded in an earlier epoch.
    StaleReplay,
    /// Deliver the payload twice, concatenated.
    Duplicate,
    /// Deliver the second-most-recent payload for this endpoint
    /// (out-of-order delivery).
    Reorder,
}

impl FaultKind {
    /// Every fault kind, for exhaustive sweeps.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::Truncate,
        FaultKind::BitFlip,
        FaultKind::LengthLie,
        FaultKind::ReplayPrevious,
        FaultKind::CrossSwap,
        FaultKind::StaleReplay,
        FaultKind::Duplicate,
        FaultKind::Reorder,
    ];
}

/// The four byte-level endpoints, as fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// Block upload (the request body is the mangled stream).
    Store,
    /// Computation dispatch (the returned commitment bytes).
    Compute,
    /// Challenge/response (the returned audit response bytes).
    Audit,
    /// Block retrieval (the returned block bytes).
    Retrieve,
}

impl Endpoint {
    /// Every endpoint, for exhaustive sweeps.
    pub const ALL: [Endpoint; 4] = [
        Endpoint::Store,
        Endpoint::Compute,
        Endpoint::Audit,
        Endpoint::Retrieve,
    ];
}

/// One injected fault, as recorded in the [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Which endpoint's payload was mangled.
    pub endpoint: Endpoint,
    /// The fault that was requested.
    pub kind: FaultKind,
    /// What actually happened (including fallbacks when a replay had no
    /// history to draw from).
    pub detail: String,
}

/// The full record of a channel's injections — two channels built from the
/// same seed over the same call sequence produce equal plans, which is the
/// replayability contract the harness asserts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the schedule was drawn from.
    pub seed: u64,
    /// Every fault, in injection order.
    pub injected: Vec<Fault>,
}

/// A fault-injecting wrapper around a [`WireTransport`].
pub struct FaultyChannel<T> {
    inner: T,
    drbg: HmacDrbg,
    fault_rate: f64,
    forced: Option<(Endpoint, FaultKind)>,
    /// When set, `forced` only applies to this many more payloads on its
    /// endpoint, then the channel turns clean (recovery-mode sweeps).
    forced_burst: Option<u32>,
    epoch: u64,
    /// Honest payloads seen so far: `(endpoint, epoch, bytes)`.
    history: Vec<(Endpoint, u64, Vec<u8>)>,
    plan: FaultPlan,
}

impl<T> std::fmt::Debug for FaultyChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyChannel")
            .field("seed", &self.plan.seed)
            .field("fault_rate", &self.fault_rate)
            .field("forced", &self.forced)
            .field("epoch", &self.epoch)
            .field("injected", &self.plan.injected.len())
            .finish()
    }
}

impl<T: WireTransport> FaultyChannel<T> {
    /// Wraps `inner`; each payload is mangled with probability
    /// `fault_rate`, with both the dice and the mangling drawn from `seed`.
    pub fn new(inner: T, seed: u64, fault_rate: f64) -> Self {
        let mut label = b"seccloud-testkit/fault/".to_vec();
        label.extend_from_slice(&seed.to_be_bytes());
        Self {
            inner,
            drbg: HmacDrbg::new(&label),
            fault_rate,
            forced: None,
            forced_burst: None,
            epoch: 0,
            history: Vec::new(),
            plan: FaultPlan {
                seed,
                injected: Vec::new(),
            },
        }
    }

    /// Forces exactly `kind` on every payload crossing `endpoint` (other
    /// endpoints stay clean); `None` returns to probabilistic mode. Used
    /// by the exhaustive single-fault sweep.
    pub fn set_forced(&mut self, forced: Option<(Endpoint, FaultKind)>) {
        self.forced = forced;
        self.forced_burst = None;
    }

    /// Forces `kind` on the next `count` payloads crossing `endpoint`,
    /// after which the channel turns clean. This is the recovery-mode
    /// schedule: a finite burst that a correct retry layer must mask
    /// completely, where [`set_forced`](Self::set_forced) models a
    /// permanently dead path that must end the audit `Unresolved` instead.
    pub fn set_forced_burst(&mut self, endpoint: Endpoint, kind: FaultKind, count: u32) {
        self.forced = Some((endpoint, kind));
        self.forced_burst = Some(count);
    }

    /// Starts a new epoch: payloads recorded before this point become
    /// `StaleReplay` material.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The record of every fault injected so far.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped transport (ground-truth assertions in tests).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the channel.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Decides whether this payload gets a fault.
    fn roll(&mut self, endpoint: Endpoint) -> Option<FaultKind> {
        match self.forced {
            Some((e, k)) => {
                if e != endpoint {
                    return None;
                }
                match &mut self.forced_burst {
                    None => Some(k),
                    Some(0) => None,
                    Some(left) => {
                        *left -= 1;
                        Some(k)
                    }
                }
            }
            None => {
                if self.fault_rate > 0.0 && self.drbg.next_f64() < self.fault_rate {
                    FaultKind::ALL
                        .get(self.drbg.next_below(8) as usize)
                        .copied()
                } else {
                    None
                }
            }
        }
    }

    /// Latest recorded payload matching `pred`, newest first.
    fn latest<F: Fn(Endpoint, u64) -> bool>(&self, pred: F, skip: usize) -> Option<&[u8]> {
        self.history
            .iter()
            .rev()
            .filter(|(e, ep, _)| pred(*e, *ep))
            .nth(skip)
            .map(|(_, _, b)| b.as_slice())
    }

    /// Flips one DRBG-chosen bit (the universal fallback fault).
    fn bit_flip(drbg: &mut HmacDrbg, bytes: &mut Vec<u8>) -> String {
        if bytes.is_empty() {
            bytes.push(1);
            return "bit-flip on empty payload: injected 0x01".into();
        }
        let pos = drbg.next_below(bytes.len() as u64) as usize;
        let bit = drbg.next_below(8) as u8;
        bytes[pos] ^= 1 << bit;
        format!("flip byte {pos} bit {bit}")
    }

    /// Applies `kind` to `bytes`, returning the mangled payload and a
    /// human-readable record of what happened.
    fn apply(&mut self, endpoint: Endpoint, kind: FaultKind, bytes: &[u8]) -> (Vec<u8>, String) {
        let mut out = bytes.to_vec();
        let epoch = self.epoch;
        let detail = match kind {
            FaultKind::Truncate => {
                let cut = self.drbg.next_below(out.len() as u64) as usize;
                let detail = format!("truncate {} -> {cut} bytes", out.len());
                out.truncate(cut);
                detail
            }
            FaultKind::BitFlip => Self::bit_flip(&mut self.drbg, &mut out),
            FaultKind::LengthLie => {
                // Candidate length fields: 8-byte BE windows holding a
                // small nonzero value (how the wire format encodes
                // collection and byte lengths).
                let candidates: Vec<usize> = (0..out.len().saturating_sub(8))
                    .filter(|&i| {
                        let v = u64::from_be_bytes(out[i..i + 8].try_into().expect("8"));
                        (1..4096).contains(&v)
                    })
                    .collect();
                if candidates.is_empty() {
                    format!(
                        "no length field found; {}",
                        Self::bit_flip(&mut self.drbg, &mut out)
                    )
                } else {
                    let at = candidates[self.drbg.next_below(candidates.len() as u64) as usize];
                    let old = u64::from_be_bytes(out[at..at + 8].try_into().expect("8"));
                    let lie = old + 1 + self.drbg.next_below(1 << 20);
                    out[at..at + 8].copy_from_slice(&lie.to_be_bytes());
                    format!("length field at {at}: {old} -> {lie}")
                }
            }
            FaultKind::ReplayPrevious => {
                match self.latest(|e, ep| e == endpoint && ep == epoch, 0) {
                    Some(prev) => {
                        let detail = format!("replayed previous payload ({} bytes)", prev.len());
                        out = prev.to_vec();
                        detail
                    }
                    None => format!(
                        "no history to replay; {}",
                        Self::bit_flip(&mut self.drbg, &mut out)
                    ),
                }
            }
            FaultKind::CrossSwap => match self.latest(|e, _| e != endpoint, 0) {
                Some(prev) => {
                    let detail = format!("cross-endpoint payload ({} bytes)", prev.len());
                    out = prev.to_vec();
                    detail
                }
                None => format!(
                    "no cross-endpoint history; {}",
                    Self::bit_flip(&mut self.drbg, &mut out)
                ),
            },
            FaultKind::StaleReplay => match self.latest(|e, ep| e == endpoint && ep < epoch, 0) {
                Some(prev) => {
                    let detail = format!("stale epoch payload ({} bytes)", prev.len());
                    out = prev.to_vec();
                    detail
                }
                None => format!(
                    "no stale history; {}",
                    Self::bit_flip(&mut self.drbg, &mut out)
                ),
            },
            FaultKind::Duplicate => {
                out.extend_from_slice(bytes);
                format!(
                    "duplicated payload ({} -> {} bytes)",
                    bytes.len(),
                    out.len()
                )
            }
            FaultKind::Reorder => match self.latest(|e, ep| e == endpoint && ep == epoch, 1) {
                Some(prev) => {
                    let detail =
                        format!("reordered: delivered older payload ({} bytes)", prev.len());
                    out = prev.to_vec();
                    detail
                }
                None => format!(
                    "too little history to reorder; {}",
                    Self::bit_flip(&mut self.drbg, &mut out)
                ),
            },
        };
        (out, detail)
    }

    /// Passes one payload through the channel: possibly mangles it,
    /// records the honest copy for future replays, and logs the fault.
    fn transit(&mut self, endpoint: Endpoint, honest: Vec<u8>) -> Vec<u8> {
        let delivered = match self.roll(endpoint) {
            None => honest.clone(),
            Some(kind) => {
                let (mangled, detail) = self.apply(endpoint, kind, &honest);
                self.plan.injected.push(Fault {
                    endpoint,
                    kind,
                    detail,
                });
                mangled
            }
        };
        self.history.push((endpoint, self.epoch, honest));
        delivered
    }
}

impl<T: WireTransport> WireTransport for FaultyChannel<T> {
    fn rpc_store(&mut self, owner_identity: &str, body: &[u8]) -> Result<u64, RpcError> {
        let body = self.transit(Endpoint::Store, body.to_vec());
        self.inner.rpc_store(owner_identity, &body)
    }

    fn rpc_compute(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        body: &[u8],
    ) -> Result<(u64, Vec<u8>), RpcError> {
        let (job_id, commitment) =
            self.inner
                .rpc_compute(owner_identity, auditor_identity, body)?;
        Ok((job_id, self.transit(Endpoint::Compute, commitment)))
    }

    fn rpc_audit(
        &mut self,
        owner_identity: &str,
        auditor_identity: &str,
        job_id: u64,
        challenge_bytes: &[u8],
        warrant_bytes: &[u8],
        now: u64,
    ) -> Result<Vec<u8>, RpcError> {
        let response = self.inner.rpc_audit(
            owner_identity,
            auditor_identity,
            job_id,
            challenge_bytes,
            warrant_bytes,
            now,
        )?;
        Ok(self.transit(Endpoint::Audit, response))
    }

    fn rpc_retrieve(&mut self, owner_identity: &str, position: u64) -> Option<Vec<u8>> {
        let block = self.inner.rpc_retrieve(owner_identity, position)?;
        Some(self.transit(Endpoint::Retrieve, block))
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

    /// A transport that records calls and echoes fixed payloads — lets the
    /// channel be tested without spinning up a full server world.
    struct EchoTransport {
        audit_payload: Vec<u8>,
    }

    impl WireTransport for EchoTransport {
        fn rpc_store(&mut self, _owner: &str, body: &[u8]) -> Result<u64, RpcError> {
            Ok(body.len() as u64)
        }
        fn rpc_compute(
            &mut self,
            _owner: &str,
            _auditor: &str,
            body: &[u8],
        ) -> Result<(u64, Vec<u8>), RpcError> {
            Ok((7, body.to_vec()))
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
            Ok(self.audit_payload.clone())
        }
        fn rpc_retrieve(&mut self, _owner: &str, position: u64) -> Option<Vec<u8>> {
            Some(vec![position as u8; 4])
        }
        fn peer_verifier(&self) -> VerifierPublic {
            VerifierPublic::from_identity("echo")
        }
        fn peer_signer(&self) -> UserPublic {
            UserPublic::from_identity("echo")
        }
    }

    fn echo() -> EchoTransport {
        EchoTransport {
            audit_payload: vec![9, 9, 9, 9, 9, 9, 9, 9],
        }
    }

    #[test]
    fn clean_channel_is_transparent() {
        let mut ch = FaultyChannel::new(echo(), 1, 0.0);
        assert_eq!(ch.rpc_store("alice", &[1, 2, 3]).unwrap(), 3);
        assert_eq!(ch.rpc_retrieve("alice", 5).unwrap(), vec![5; 4]);
        assert!(ch.plan().injected.is_empty());
    }

    #[test]
    fn forced_truncate_shortens_payload() {
        let mut ch = FaultyChannel::new(echo(), 2, 0.0);
        ch.set_forced(Some((Endpoint::Audit, FaultKind::Truncate)));
        let resp = ch.rpc_audit("alice", "da", 0, b"", b"", 0).unwrap();
        assert!(resp.len() < 8, "truncated from 8 to {}", resp.len());
        assert_eq!(ch.plan().injected.len(), 1);
        assert_eq!(ch.plan().injected[0].kind, FaultKind::Truncate);
        // Other endpoints stay clean under a forced Audit fault.
        assert_eq!(ch.rpc_retrieve("alice", 3).unwrap(), vec![3; 4]);
    }

    #[test]
    fn replay_delivers_the_previous_honest_payload() {
        let mut ch = FaultyChannel::new(echo(), 3, 0.0);
        let first = ch.rpc_retrieve("alice", 1).unwrap();
        ch.set_forced(Some((Endpoint::Retrieve, FaultKind::ReplayPrevious)));
        let second = ch.rpc_retrieve("alice", 2).unwrap();
        assert_eq!(second, first, "old payload delivered for new request");
    }

    #[test]
    fn stale_replay_needs_an_earlier_epoch() {
        let mut ch = FaultyChannel::new(echo(), 4, 0.0);
        ch.rpc_retrieve("alice", 1).unwrap();
        ch.advance_epoch();
        ch.set_forced(Some((Endpoint::Retrieve, FaultKind::StaleReplay)));
        let got = ch.rpc_retrieve("alice", 2).unwrap();
        assert_eq!(got, vec![1; 4], "epoch-0 payload delivered in epoch 1");
        assert!(ch.plan().injected[0].detail.contains("stale"));
    }

    #[test]
    fn replay_without_history_falls_back_to_bit_flip() {
        let mut ch = FaultyChannel::new(echo(), 5, 0.0);
        ch.set_forced(Some((Endpoint::Audit, FaultKind::ReplayPrevious)));
        let resp = ch.rpc_audit("alice", "da", 0, b"", b"", 0).unwrap();
        assert_ne!(resp, vec![9; 8], "fallback still mangles the payload");
        assert!(ch.plan().injected[0].detail.contains("no history"));
    }

    #[test]
    fn duplicate_self_concatenates() {
        let mut ch = FaultyChannel::new(echo(), 6, 0.0);
        ch.set_forced(Some((Endpoint::Audit, FaultKind::Duplicate)));
        let resp = ch.rpc_audit("alice", "da", 0, b"", b"", 0).unwrap();
        assert_eq!(resp, [vec![9; 8], vec![9; 8]].concat());
    }

    #[test]
    fn forced_burst_faults_then_heals() {
        let mut ch = FaultyChannel::new(echo(), 8, 0.0);
        ch.set_forced_burst(Endpoint::Audit, FaultKind::Truncate, 2);
        assert!(ch.rpc_audit("alice", "da", 0, b"", b"", 0).unwrap().len() < 8);
        // Other endpoints stay clean mid-burst and don't consume it.
        assert_eq!(ch.rpc_retrieve("alice", 1).unwrap(), vec![1; 4]);
        assert!(ch.rpc_audit("alice", "da", 0, b"", b"", 0).unwrap().len() < 8);
        assert_eq!(
            ch.rpc_audit("alice", "da", 0, b"", b"", 0).unwrap(),
            vec![9; 8],
            "burst exhausted: channel delivers honestly"
        );
        assert_eq!(ch.plan().injected.len(), 2);
    }

    #[test]
    fn set_forced_clears_a_pending_burst() {
        let mut ch = FaultyChannel::new(echo(), 9, 0.0);
        ch.set_forced_burst(Endpoint::Audit, FaultKind::Truncate, 5);
        ch.set_forced(Some((Endpoint::Audit, FaultKind::Duplicate)));
        for _ in 0..8 {
            let resp = ch.rpc_audit("alice", "da", 0, b"", b"", 0).unwrap();
            assert_eq!(resp.len(), 16, "unlimited forced mode, not a burst");
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let run = |seed| {
            let mut ch = FaultyChannel::new(echo(), seed, 0.7);
            for i in 0..20 {
                let _ = ch.rpc_retrieve("alice", i);
                let _ = ch.rpc_audit("alice", "da", 0, b"", b"", 0);
            }
            ch.plan().clone()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds, different schedules");
        assert!(!run(42).injected.is_empty());
    }

    #[test]
    fn peer_identities_pass_through_unmangled() {
        let mut ch = FaultyChannel::new(echo(), 7, 1.0);
        ch.set_forced(None);
        for i in 0..10 {
            let _ = ch.rpc_retrieve("alice", i);
        }
        assert_eq!(ch.peer_verifier().identity(), "echo");
        assert_eq!(ch.peer_signer().identity(), "echo");
    }
}
