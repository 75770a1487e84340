//! `audit-clean` and `audit-chaos`: delegated computation audits (the
//! paper's Algorithm 1) over a loopback socket.

use std::time::Instant;

use seccloud_cloudsim::behavior::Behavior;
use seccloud_cloudsim::{CloudServer, DesignatedAgency};
use seccloud_core::computation::{
    verify_response, AuditResponse, Commitment, ComputationRequest, ComputeFunction, RequestItem,
};
use seccloud_core::storage::DataBlock;
use seccloud_core::warrant::Warrant;
use seccloud_core::wire::WireMessage;
use seccloud_core::{CloudUser, Sio};
use seccloud_hash::HmacDrbg;
use seccloud_ibs::{UserPublic, VerifierPublic};
use seccloud_net::ChaosConfig;
use seccloud_resilience::AuditResolution;

use crate::shim::{deploy, Stack};
use crate::trace;
use crate::{Counters, Verdict, Workload};

/// Sizes of one audit world.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// Small blocks stored before the run.
    pub blocks: u64,
    /// Sub-tasks per request (`n`).
    pub subtasks: usize,
    /// Blocks each sub-task reads.
    pub positions: usize,
    /// Sub-tasks challenged per audit (`t`).
    pub sample: usize,
    /// Distinct requests the run cycles through.
    pub requests: usize,
}

pub const FULL: Sizes = Sizes {
    blocks: 256,
    subtasks: 64,
    positions: 2,
    sample: 4,
    requests: 64,
};

pub const SMOKE: Sizes = Sizes {
    blocks: 16,
    subtasks: 8,
    positions: 2,
    sample: 2,
    requests: 4,
};

/// Share of relayed frames the chaos proxy damages, and its stall.
const CHAOS_FAULT_PCT: u32 = 20;
const CHAOS_STALL_MS: u64 = 5;

/// The seeded inputs: block contents and the request pool.
pub struct Inputs {
    sizes: Sizes,
    seed: u64,
    blocks: Vec<DataBlock>,
    requests: Vec<(ComputationRequest, Vec<u8>)>,
}

pub fn inputs(sizes: Sizes, seed: u64) -> Inputs {
    let mut drbg = HmacDrbg::new(&[b"benchmark/audit/".as_slice(), &seed.to_be_bytes()].concat());
    let blocks = (0..sizes.blocks)
        .map(|i| {
            let values: Vec<u64> = (0..4).map(|_| drbg.next_below(1 << 20)).collect();
            DataBlock::from_values(i, &values)
        })
        .collect();
    let requests = (0..sizes.requests)
        .map(|_| {
            let items = (0..sizes.subtasks)
                .map(|_| RequestItem {
                    function: match drbg.next_below(3) {
                        0 => ComputeFunction::Sum,
                        1 => ComputeFunction::Max,
                        _ => ComputeFunction::WeightedSum(vec![
                            1 + drbg.next_below(100),
                            1 + drbg.next_below(100),
                        ]),
                    },
                    positions: drbg.sample_distinct(sizes.blocks, sizes.positions as u64),
                })
                .collect();
            let request = ComputationRequest::new(items);
            let wire = request.to_wire();
            (request, wire)
        })
        .collect();
    Inputs {
        sizes,
        seed,
        blocks,
        requests,
    }
}

/// One audit world: owner, agency, a server holding the owner's blocks,
/// and the socket stack in front of it.
pub struct Audit<'a> {
    inputs: &'a Inputs,
    chaos: bool,
    user: CloudUser,
    da: DesignatedAgency,
    peer_verifier: VerifierPublic,
    peer_signer: UserPublic,
    stack: Stack,
    rounds: u64,
    escalations: u64,
    unresolved: u64,
}

/// Builds the world: keys, the owner signs and uploads every block, the
/// server starts serving (behind the chaos proxy when `chaos`).
pub fn build_world<'a>(
    inputs: &'a Inputs,
    behavior: Behavior,
    chaos: bool,
    trace: Option<Instant>,
) -> Result<Audit<'a>, String> {
    let seed = inputs.seed.to_be_bytes();
    let sio = Sio::new(&[b"benchmark/audit/sio/".as_slice(), &seed].concat());
    let user = sio.register("owner");
    let mut server = CloudServer::new(&sio, "cs", behavior, &seed);
    let da = DesignatedAgency::new(&sio, "da", &seed);
    let signed = user.sign_blocks(&inputs.blocks, &[server.public(), da.public()]);
    let stored = server.store(&user, signed);
    if stored != inputs.blocks.len() {
        return Err(format!(
            "server accepted {stored} of {} uploaded blocks",
            inputs.blocks.len()
        ));
    }
    let peer_verifier = server.public().clone();
    let peer_signer = server.signer_public().clone();
    let chaos_config = chaos.then_some(ChaosConfig {
        seed: inputs.seed,
        fault_rate_pct: CHAOS_FAULT_PCT,
        stall_ms: CHAOS_STALL_MS,
    });
    let stack = deploy(server, chaos_config, &seed, trace).map_err(|e| e.to_string())?;
    Ok(Audit {
        inputs,
        chaos,
        user,
        da,
        peer_verifier,
        peer_signer,
        stack,
        rounds: 0,
        escalations: 0,
        unresolved: 0,
    })
}

impl Audit<'_> {
    /// `rpc_compute`, then the steps of `DesignatedAgency::audit_wire`,
    /// each in its own span.
    fn audit_steps(&mut self, request: &ComputationRequest, wire: &[u8]) -> Verdict {
        let owner = self.user.identity();
        let auditor = self.da.identity();
        let sample = self.inputs.sizes.sample;
        let Ok((job_id, commitment_bytes)) = trace::span("resilience.call", || {
            self.stack.client.call_compute(owner, auditor, wire)
        }) else {
            return Verdict::Failed;
        };
        let Ok(commitment) =
            trace::span("core.decode", || Commitment::from_wire(&commitment_bytes))
        else {
            return Verdict::Failed;
        };
        let (challenge, challenge_bytes) = trace::span("core.challenge", || {
            let c = self
                .da
                .sample_challenge(request.len(), sample.min(request.len()));
            let bytes = c.to_wire();
            (c, bytes)
        });
        let warrant = trace::span("core.warrant", || {
            Warrant::issue(
                &self.user,
                self.da.identity(),
                1_000,
                request.digest(),
                &[&self.peer_verifier, self.da.public()],
            )
            .to_wire()
        });
        let Ok(response_bytes) = trace::span("resilience.call", || {
            self.stack.client.call_audit(
                self.user.identity(),
                self.da.identity(),
                job_id,
                &challenge_bytes,
                &warrant,
            )
        }) else {
            return Verdict::Failed;
        };
        let Ok(response) = trace::span("core.decode", || AuditResponse::from_wire(&response_bytes))
        else {
            return Verdict::Failed;
        };
        let outcome = trace::span("core.verify_response", || {
            verify_response(
                self.da.credential().key(),
                self.user.public(),
                &self.peer_signer,
                request,
                &challenge,
                &commitment,
                &response,
            )
        });
        if outcome.is_valid() {
            Verdict::Clean
        } else {
            Verdict::Detected
        }
    }

    /// The whole job through `run_job_resilient`. A job it leaves
    /// unresolved is a failed op. One known cause: the job id in a compute
    /// reply is not signed, so a bit flip there can turn into the server's
    /// final "unknown job" answer, which `run_job_resilient` does not retry.
    fn resilient_job(&mut self, request: &ComputationRequest) -> Verdict {
        let sample = self.inputs.sizes.sample;
        let resolution = trace::span("resilience.job", || {
            self.stack
                .client
                .run_resilient_job(&mut self.da, &self.user, request, sample)
        });
        self.rounds += resolution.stats().audit_rounds;
        self.escalations += resolution.stats().escalations;
        match resolution {
            AuditResolution::Clean { .. } => Verdict::Clean,
            AuditResolution::Detected { .. } => Verdict::Detected,
            AuditResolution::Unresolved { reason, .. } => {
                eprintln!("unresolved job: {reason}");
                self.unresolved += 1;
                Verdict::Failed
            }
        }
    }
}

impl Workload for Audit<'_> {
    fn run_op(&mut self, index: u64) -> Verdict {
        let inputs = self.inputs;
        let Some((request, wire)) = inputs
            .requests
            .get(index as usize % inputs.requests.len().max(1))
        else {
            return Verdict::Failed;
        };
        if self.chaos {
            self.resilient_job(request)
        } else {
            self.audit_steps(request, wire)
        }
    }

    fn counters(&self) -> Counters {
        let (attempts, transient_faults) = self.stack.client.attempts_and_faults();
        Counters {
            attempts,
            transient_faults,
            reconnects: self.stack.client.socket_reconnects(),
            shed: self.stack.shed(),
            chaos_faults: self.stack.chaos_faults(),
            audit_rounds: self.rounds,
            escalations: self.escalations,
            unresolved: self.unresolved,
            payload_bytes: self.stack.client.payload_bytes(),
            ..Counters::default()
        }
    }

    fn tear_down(self: Box<Self>) -> Vec<trace::Span> {
        self.stack.tear_down()
    }
}

/// A server that skips every sub-task, behind the same stack: every job
/// must end `Detected`, except that behind chaos a job may end unresolved.
pub fn cheater_is_detected(inputs: &Inputs, chaos: bool) -> Result<(), String> {
    let cheater = Behavior::ComputationCheater {
        csc: 0.0,
        guess_range: None,
    };
    let mut world = build_world(inputs, cheater, chaos, None)?;
    let verdicts: Vec<Verdict> = (0..3).map(|i| world.run_op(i)).collect();
    Box::new(world).tear_down();
    let convicted_or_unresolved = verdicts
        .iter()
        .all(|v| *v == Verdict::Detected || (chaos && *v == Verdict::Failed));
    if convicted_or_unresolved && verdicts.contains(&Verdict::Detected) {
        Ok(())
    } else {
        Err(format!(
            "a computation cheater was not convicted: {verdicts:?}"
        ))
    }
}
