//! Deterministic fault-injection suite over the byte-level protocol.
//!
//! The machine-checked invariant: under *any* fault schedule injected into
//! the wire endpoints, the designated agency either completes a correct
//! audit or returns a typed error / unhealthy verdict — never a panic and
//! never a false pass. Cheating servers must stay detected no matter what
//! the channel does.
//!
//! * an exhaustive single-fault sweep: every [`FaultKind`] × every
//!   [`Endpoint`], against both cheating and honest servers;
//! * seeded random multi-fault schedules (`SECCLOUD_TESTKIT_CASES`, default
//!   200), with a same-seed replay check on the recorded [`FaultPlan`];
//! * the replay-protection property: an honest audit response captured for
//!   one challenge must fail verification against any fresh challenge
//!   (nonce binding);
//! * the recovery sweep: the same fault kinds as finite bursts against the
//!   `seccloud::resilience` runtime — honest servers recover with zero
//!   spurious failures, cheaters stay detected, schedules replay from
//!   `SECCLOUD_TESTKIT_SEED`, and a burst that exhausts every retry of
//!   several calls costs only the job it lands on.
//!
//! Run with `--nocapture` to see the sweep matrix (reproduced in
//! EXPERIMENTS.md).

use seccloud::cloudsim::behavior::{Behavior, StorageAttack};
use seccloud::cloudsim::rpc::{encode_store_body, RpcError};
// lint: allow(transport, reason=fault sweeps drive the raw channel on purpose to observe unprotected failures)
use seccloud::cloudsim::rpc::{WireServer, WireTransport};
use seccloud::cloudsim::{AuditVerdict, CloudServer, DesignatedAgency};
use seccloud::core::computation::{
    verify_response, AuditChallenge, AuditResponse, Commitment, ComputationRequest,
    ComputeFunction, RequestItem,
};
use seccloud::core::storage::DataBlock;
use seccloud::core::warrant::Warrant;
use seccloud::core::wire::WireMessage;
use seccloud::core::{CloudUser, Sio};
use seccloud::ibs::VerifierPublic;
use seccloud::resilience::{
    run_job_resilient, storage_audit_resilient, AuditResolution, ResilientTransport, RetryPolicy,
};
use seccloud::testkit::{cases_from_env, seed_from_env, Endpoint, FaultKind, FaultyChannel};

// --- world building -------------------------------------------------------

const N_BLOCKS: u64 = 12;

fn block(i: u64) -> DataBlock {
    DataBlock::from_values(i, &[i * 7, i + 1])
}

struct World {
    user: CloudUser,
    da: DesignatedAgency,
    // lint: allow(transport, reason=the harness wraps the raw server in a fault channel itself)
    channel: FaultyChannel<WireServer>,
    server_public: VerifierPublic,
}

/// A fresh world: one server behind a fault channel, no blocks stored yet.
fn world(label: &[u8], behavior: Behavior, seed: u64) -> World {
    let mut sio_seed = label.to_vec();
    sio_seed.extend_from_slice(&seed.to_be_bytes());
    let sio = Sio::new(&sio_seed);
    let user = sio.register("alice");
    let server = CloudServer::new(&sio, "cs", behavior, b"srv");
    let da = DesignatedAgency::new(&sio, "da", b"agency");
    let server_public = server.public().clone();
    // lint: allow(transport, reason=the harness wraps the raw server in a fault channel itself)
    let channel = FaultyChannel::new(WireServer::new(server), seed, 0.0);
    World {
        user,
        da,
        channel,
        server_public,
    }
}

/// Uploads the blocks in `range` through the (possibly faulty) channel.
fn upload(w: &mut World, range: std::ops::Range<u64>) -> Result<u64, RpcError> {
    let blocks: Vec<DataBlock> = range.map(block).collect();
    let signed = w
        .user
        .sign_blocks(&blocks, &[&w.server_public, w.da.public()]);
    w.channel
        .rpc_store(w.user.identity(), &encode_store_body(&signed))
}

/// A request whose results depend on `weight`, so different jobs commit to
/// different values (which makes replayed payloads decisively wrong).
fn request(weight: u64, items: u64) -> ComputationRequest {
    ComputationRequest::new(
        (0..items)
            .map(|i| RequestItem {
                function: ComputeFunction::WeightedSum(vec![weight, weight + 1]),
                positions: vec![i % N_BLOCKS],
            })
            .collect(),
    )
}

/// One complete job over the wire: compute, then a full-sample audit.
fn run_job(w: &mut World, req: &ComputationRequest) -> Result<AuditVerdict, RpcError> {
    let (job_id, commitment) =
        w.channel
            .rpc_compute(w.user.identity(), w.da.identity(), &req.to_wire())?;
    w.da.audit_wire(
        &mut w.channel,
        &w.user,
        req,
        job_id,
        &commitment,
        req.len(),
        0,
    )
}

fn print_matrix(title: &str, rows: &[(Endpoint, FaultKind, String)]) {
    println!("\n== {title} ==");
    for (endpoint, kind, cell) in rows {
        println!("{endpoint:?}\t{kind:?}\t{cell}");
    }
}

/// Warm-up exchanges that give every replay fault real material: one job
/// in epoch 0 (stale material), then two jobs in epoch 1 (replay and
/// reorder material), all over a clean channel.
fn computation_warmup(w: &mut World) {
    upload(w, 0..N_BLOCKS).expect("clean upload");
    let _ = run_job(w, &request(2, 3));
    w.channel.advance_epoch();
    let _ = run_job(w, &request(3, 3));
    let _ = run_job(w, &request(4, 3));
}

// --- exhaustive single-fault sweep ----------------------------------------

/// Against an always-cheating computation server (CSC = 0), every fault on
/// the compute/audit endpoints must leave the outcome at "typed error" or
/// "detected" — a clean verdict would mean the channel laundered a cheater.
#[test]
fn sweep_computation_endpoints_cheater_never_escapes() {
    let mut matrix = Vec::new();
    for endpoint in [Endpoint::Compute, Endpoint::Audit] {
        for (i, &kind) in FaultKind::ALL.iter().enumerate() {
            let mut w = world(
                b"sweep-comp-cheat",
                Behavior::ComputationCheater {
                    csc: 0.0,
                    guess_range: None,
                },
                100 + i as u64,
            );
            computation_warmup(&mut w);
            w.channel.set_forced(Some((endpoint, kind)));
            let outcome = run_job(&mut w, &request(5, 4));
            let cell = match &outcome {
                Err(RpcError::Malformed(e)) => format!("typed error: malformed ({e})"),
                Err(RpcError::Server(e)) => format!("typed error: server ({e})"),
                Err(e) => format!("typed error ({e})"),
                Ok(v) if v.detected => "detected".to_owned(),
                Ok(_) => "CLEAN (cheater escaped!)".to_owned(),
            };
            assert!(
                !matches!(&outcome, Ok(v) if !v.detected),
                "{endpoint:?}/{kind:?}: CSC=0 cheater escaped with a clean verdict"
            );
            matrix.push((endpoint, kind, cell));
        }
    }
    print_matrix(
        "single-fault sweep: compute/audit endpoints, CSC=0 cheater",
        &matrix,
    );
}

/// Against an always-corrupting storage server (SSC = 0), every fault on
/// the store/retrieve endpoints must leave the storage audit unhealthy.
#[test]
fn sweep_storage_endpoints_cheater_never_escapes() {
    let mut matrix = Vec::new();
    for endpoint in [Endpoint::Store, Endpoint::Retrieve] {
        for (i, &kind) in FaultKind::ALL.iter().enumerate() {
            let mut w = world(
                b"sweep-store-cheat",
                Behavior::StorageCheater {
                    ssc: 0.0,
                    attack: StorageAttack::Corrupt,
                },
                200 + i as u64,
            );
            // Warm-up: stale material in epoch 0, replay/reorder material
            // in epoch 1, all clean.
            upload(&mut w, 0..4).expect("clean upload");
            let _ = w.channel.rpc_retrieve(w.user.identity(), 0);
            let _ = w.channel.rpc_retrieve(w.user.identity(), 1);
            w.channel.advance_epoch();
            upload(&mut w, 4..6).expect("clean upload");
            upload(&mut w, 6..8).expect("clean upload");
            let _ = w.channel.rpc_retrieve(w.user.identity(), 2);
            let _ = w.channel.rpc_retrieve(w.user.identity(), 3);

            w.channel.set_forced(Some((endpoint, kind)));
            let (n, store_err) = if endpoint == Endpoint::Store {
                (N_BLOCKS, upload(&mut w, 8..N_BLOCKS).err())
            } else {
                (8, None)
            };
            let verdict =
                w.da.storage_audit_wire(&mut w.channel, &w.user, n, n as usize);
            assert!(
                !verdict.is_healthy(),
                "{endpoint:?}/{kind:?}: SSC=0 corrupter escaped with a healthy verdict"
            );
            let cell = match store_err {
                Some(e) => format!("store rejected ({e}); audit unhealthy"),
                None => format!(
                    "unhealthy ({} missing, {} invalid of {})",
                    verdict.missing.len(),
                    verdict.invalid.len(),
                    verdict.sampled.len()
                ),
            };
            matrix.push((endpoint, kind, cell));
        }
    }
    print_matrix(
        "single-fault sweep: store/retrieve endpoints, SSC=0 corrupter",
        &matrix,
    );
}

/// Honest servers under every fault: nothing may panic, and any *healthy*
/// verdict must be true against ground truth (the server really holds the
/// uploaded bytes). Faults on an honest exchange may surface as typed
/// errors or spurious detections — both are safe outcomes — but a verdict
/// of "all good" must never be a lie.
#[test]
fn sweep_all_endpoints_honest_world_never_panics_or_lies() {
    let mut matrix = Vec::new();
    for endpoint in Endpoint::ALL {
        for (i, &kind) in FaultKind::ALL.iter().enumerate() {
            let mut w = world(b"sweep-honest", Behavior::Honest, 300 + i as u64);
            match endpoint {
                Endpoint::Compute | Endpoint::Audit => {
                    computation_warmup(&mut w);
                    w.channel.set_forced(Some((endpoint, kind)));
                    let outcome = run_job(&mut w, &request(5, 4));
                    let cell = match &outcome {
                        Err(e) => format!("typed error ({e})"),
                        Ok(v) if v.detected => "spurious detection (safe)".to_owned(),
                        Ok(_) => "clean (correct: server honest)".to_owned(),
                    };
                    matrix.push((endpoint, kind, cell));
                }
                Endpoint::Store | Endpoint::Retrieve => {
                    upload(&mut w, 0..4).expect("clean upload");
                    let _ = w.channel.rpc_retrieve(w.user.identity(), 0);
                    let _ = w.channel.rpc_retrieve(w.user.identity(), 1);
                    w.channel.advance_epoch();
                    upload(&mut w, 4..6).expect("clean upload");
                    upload(&mut w, 6..8).expect("clean upload");
                    let _ = w.channel.rpc_retrieve(w.user.identity(), 2);
                    let _ = w.channel.rpc_retrieve(w.user.identity(), 3);
                    w.channel.set_forced(Some((endpoint, kind)));
                    let (n, store_err) = if endpoint == Endpoint::Store {
                        (N_BLOCKS, upload(&mut w, 8..N_BLOCKS).err())
                    } else {
                        (8, None)
                    };
                    let verdict =
                        w.da.storage_audit_wire(&mut w.channel, &w.user, n, n as usize);
                    if verdict.is_healthy() {
                        // Ground truth: a healthy verdict must mean the
                        // server genuinely holds every uploaded block.
                        for pos in 0..n {
                            let stored = w
                                .channel
                                .inner()
                                .inner()
                                .retrieve(w.user.identity(), pos)
                                .unwrap_or_else(|| {
                                    panic!("{endpoint:?}/{kind:?}: healthy but block {pos} gone")
                                });
                            assert_eq!(
                                stored.block(),
                                &block(pos),
                                "{endpoint:?}/{kind:?}: healthy verdict over tampered data"
                            );
                        }
                    }
                    let cell = match (store_err, verdict.is_healthy()) {
                        (Some(e), _) => format!("store rejected ({e}); audit unhealthy"),
                        (None, false) => format!(
                            "unhealthy ({} missing, {} invalid of {})",
                            verdict.missing.len(),
                            verdict.invalid.len(),
                            verdict.sampled.len()
                        ),
                        (None, true) => "healthy (verified against ground truth)".to_owned(),
                    };
                    matrix.push((endpoint, kind, cell));
                }
            }
        }
    }
    print_matrix("single-fault sweep: all endpoints, honest server", &matrix);
}

// --- random multi-fault schedules -----------------------------------------

/// Runs one randomly-faulted end-to-end exchange; returns the recorded
/// fault plan plus a debug transcript of the outcomes (for the same-seed
/// replay check).
fn run_random_case(seed: u64, case: usize) -> (seccloud::testkit::FaultPlan, String) {
    let behavior = match case % 3 {
        0 => Behavior::Honest,
        1 => Behavior::ComputationCheater {
            csc: 0.0,
            guess_range: None,
        },
        _ => Behavior::StorageCheater {
            ssc: 0.0,
            attack: StorageAttack::Corrupt,
        },
    };
    let mut w = world(b"random-schedule", behavior.clone(), seed);
    w.channel.set_forced(None);
    // Re-wrap with a fault rate: rebuild the channel with rate 0.5.
    let server = w.channel.into_inner();
    w.channel = FaultyChannel::new(server, seed, 0.5);

    let store_outcome = upload(&mut w, 0..4);
    let req = request(2 + (seed % 5), 4);
    let audit_outcome = run_job(&mut w, &req);
    if matches!(behavior, Behavior::ComputationCheater { .. }) {
        if let Ok(v) = &audit_outcome {
            assert!(
                v.detected,
                "case {case} (seed {seed}): CSC=0 cheater got a clean verdict\nplan: {:?}",
                w.channel.plan()
            );
        }
    }
    w.channel.advance_epoch();
    let verdict = w.da.storage_audit_wire(&mut w.channel, &w.user, 4, 4);
    if matches!(behavior, Behavior::StorageCheater { .. }) {
        assert!(
            !verdict.is_healthy(),
            "case {case} (seed {seed}): SSC=0 corrupter got a healthy verdict\nplan: {:?}",
            w.channel.plan()
        );
    }
    if matches!(behavior, Behavior::Honest) && verdict.is_healthy() {
        for pos in 0..4 {
            let stored = w
                .channel
                .inner()
                .inner()
                .retrieve(w.user.identity(), pos)
                .expect("healthy implies present");
            assert_eq!(stored.block(), &block(pos), "healthy verdict over bad data");
        }
    }
    let transcript = format!("{store_outcome:?} | {audit_outcome:?} | {verdict:?}");
    (w.channel.plan().clone(), transcript)
}

/// `SECCLOUD_TESTKIT_CASES` random multi-fault schedules: across honest,
/// computation-cheating and storage-cheating servers, no schedule may
/// panic, launder a cheater, or produce a false-healthy verdict.
#[test]
fn random_multi_fault_schedules_hold_the_invariant() {
    let cases = cases_from_env();
    let base = seed_from_env();
    let mut injected_total = 0;
    for case in 0..cases {
        let seed = base
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(case as u64);
        let (plan, _) = run_random_case(seed, case);
        injected_total += plan.injected.len();
    }
    assert!(
        injected_total > cases, // ≥1 fault per case on average at rate 0.5
        "schedules were not actually faulty ({injected_total} faults over {cases} cases)"
    );
    println!("random schedules: {cases} cases, {injected_total} faults injected");
}

/// The replayability contract: the same seed reproduces the exact fault
/// plan and the exact outcomes.
#[test]
fn same_seed_replays_identical_plan_and_outcome() {
    let base = seed_from_env();
    for case in 0..5 {
        let seed = base
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(case as u64);
        let first = run_random_case(seed, case);
        let second = run_random_case(seed, case);
        assert_eq!(first.0, second.0, "case {case}: fault plans diverged");
        assert_eq!(first.1, second.1, "case {case}: outcomes diverged");
    }
}

// --- replay protection (nonce binding) ------------------------------------

/// A captured honest audit response must not verify against any other
/// challenge: the response echoes the challenge nonce, and the DA checks
/// it (DESIGN.md "Replay protection"). Before nonce binding this attack
/// passed — a server could answer every audit with one stale transcript.
#[test]
fn replayed_audit_response_fails_fresh_challenge() {
    let sio = Sio::new(b"replay-nonce");
    let user = sio.register("alice");
    let server = CloudServer::new(&sio, "cs", Behavior::Honest, b"srv");
    let mut da = DesignatedAgency::new(&sio, "da", b"agency");
    let server_public = server.public().clone();
    let signer_public = server.signer_public().clone();
    // lint: allow(transport, reason=replay attack needs direct access to the unwrapped channel)
    let mut wire = WireServer::new(server);

    let blocks: Vec<DataBlock> = (0..6).map(block).collect();
    let signed = user.sign_blocks(&blocks, &[&server_public, da.public()]);
    wire.rpc_store(user.identity(), &encode_store_body(&signed))
        .unwrap();
    let req = ComputationRequest::new(
        (0..4)
            .map(|i| RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![i],
            })
            .collect(),
    );
    let (job_id, commitment_bytes) = wire
        .rpc_compute(user.identity(), da.identity(), &req.to_wire())
        .unwrap();
    let commitment = Commitment::from_wire(&commitment_bytes).unwrap();

    // The honest exchange: challenge 1 → response 1 verifies.
    let challenge1 = da.sample_challenge(req.len(), 2);
    let warrant = Warrant::issue(
        &user,
        da.identity(),
        1_000,
        req.digest(),
        &[&server_public, da.public()],
    );
    let response_bytes = wire
        .rpc_audit(
            user.identity(),
            da.identity(),
            job_id,
            &challenge1.to_wire(),
            &warrant.to_wire(),
            0,
        )
        .unwrap();
    let response = AuditResponse::from_wire(&response_bytes).unwrap();
    let honest = verify_response(
        da.credential().key(),
        user.public(),
        &signer_public,
        &req,
        &challenge1,
        &commitment,
        &response,
    );
    assert!(honest.is_valid(), "sanity: the honest exchange verifies");

    // Replay: same response against a fresh challenge over the *same*
    // indices — everything matches except the nonce, and that alone must
    // sink it.
    let challenge2 = AuditChallenge {
        indices: challenge1.indices.clone(),
        nonce: challenge1.nonce ^ 1,
    };
    let replayed = verify_response(
        da.credential().key(),
        user.public(),
        &signer_public,
        &req,
        &challenge2,
        &commitment,
        &response,
    );
    assert!(!replayed.nonce_ok, "stale nonce must be flagged");
    assert!(!replayed.is_valid(), "replayed response must not verify");

    // And against a genuinely fresh sampled challenge.
    let challenge3 = da.sample_challenge(req.len(), 2);
    assert_ne!(challenge3.nonce, challenge1.nonce, "nonces are fresh");
    let replayed3 = verify_response(
        da.credential().key(),
        user.public(),
        &signer_public,
        &req,
        &challenge3,
        &commitment,
        &response,
    );
    assert!(
        !replayed3.is_valid(),
        "replay against fresh sample rejected"
    );
}

// --- recovery sweep (resilient runtime) -----------------------------------
//
// The raw-channel sweeps above establish what faults *cost* without
// recovery: typed errors and spurious detections. This section asserts the
// recovery contract of `seccloud::resilience`: a finite fault burst against
// an honest server is fully masked (zero spurious failures), the same burst
// never launders a cheater, the whole schedule replays from its seed, and
// calls that exhausted their retries leave the transport serving.

/// A world whose fault channel is wrapped in the tier-1/2 resilient
/// transport (per-RPC retries + round-level escalation).
struct RecoveryWorld {
    user: CloudUser,
    da: DesignatedAgency,
    server_public: VerifierPublic,
    // lint: allow(transport, reason=the harness composes the resilient stack by hand)
    transport: ResilientTransport<FaultyChannel<WireServer>>,
}

fn wrap_resilient(w: World, seed: u64) -> RecoveryWorld {
    let World {
        user,
        da,
        channel,
        server_public,
    } = w;
    let transport = ResilientTransport::new(channel, RetryPolicy::default(), &seed.to_be_bytes());
    RecoveryWorld {
        user,
        da,
        server_public,
        transport,
    }
}

/// Recovery sweep, computation path: a burst of every fault kind on the
/// compute and audit endpoints is fully masked against an honest server —
/// where the raw-channel sweep surfaces the same faults as typed errors or
/// spurious detections, the resilient driver must end every cell `Clean`.
#[test]
fn recovery_sweep_computation_honest_bursts_fully_masked() {
    let base = seed_from_env();
    let mut matrix = Vec::new();
    for (e_idx, endpoint) in [Endpoint::Compute, Endpoint::Audit].into_iter().enumerate() {
        for (i, &kind) in FaultKind::ALL.iter().enumerate() {
            let seed = base.wrapping_add(1 + 100 * e_idx as u64 + i as u64);
            let mut w = world(b"recovery-comp", Behavior::Honest, seed);
            computation_warmup(&mut w);
            let mut rw = wrap_resilient(w, seed);
            rw.transport.inner_mut().set_forced_burst(endpoint, kind, 2);
            let res = run_job_resilient(
                &mut rw.da,
                &mut rw.transport,
                &rw.user,
                &request(5, 4),
                4,
                0,
            );
            let AuditResolution::Clean { stats, .. } = res else {
                panic!("{endpoint:?}/{kind:?}: honest server not recovered: {res:?}");
            };
            matrix.push((
                endpoint,
                kind,
                format!(
                    "clean (rounds {}, transient {}, escalations {}, final t {})",
                    stats.audit_rounds,
                    stats.transient_faults,
                    stats.escalations,
                    stats.final_sample_size
                ),
            ));
        }
    }
    print_matrix(
        "recovery sweep: compute/audit endpoints, honest server, burst of 2",
        &matrix,
    );
}

/// Recovery sweep, storage path: retrieve bursts are masked inside the
/// resilient storage audit, and store bursts are healed by caller-level
/// re-upload (ingest verifies per block and overwrites by index, so
/// re-sending is idempotent) — every cell ends healthy.
#[test]
fn recovery_sweep_storage_honest_bursts_fully_masked() {
    let base = seed_from_env();
    let mut matrix = Vec::new();
    for (i, &kind) in FaultKind::ALL.iter().enumerate() {
        // Retrieve burst: the per-position retry loop must absorb it.
        let seed = base.wrapping_add(300 + i as u64);
        let mut w = world(b"recovery-retrieve", Behavior::Honest, seed);
        upload(&mut w, 0..4).expect("clean upload");
        let _ = w.channel.rpc_retrieve(w.user.identity(), 0);
        let _ = w.channel.rpc_retrieve(w.user.identity(), 1);
        w.channel.advance_epoch();
        upload(&mut w, 4..N_BLOCKS).expect("clean upload");
        let _ = w.channel.rpc_retrieve(w.user.identity(), 2);
        let _ = w.channel.rpc_retrieve(w.user.identity(), 3);
        let mut rw = wrap_resilient(w, seed);
        rw.transport
            .inner_mut()
            .set_forced_burst(Endpoint::Retrieve, kind, 2);
        let res = storage_audit_resilient(
            &mut rw.da,
            &mut rw.transport,
            &rw.user,
            N_BLOCKS,
            N_BLOCKS as usize,
        );
        assert!(
            res.verdict.is_healthy(),
            "Retrieve/{kind:?}: spurious storage failure: {res:?}"
        );
        matrix.push((
            Endpoint::Retrieve,
            kind,
            format!(
                "healthy (rounds {}, retried {})",
                res.stats.audit_rounds, res.stats.transient_faults
            ),
        ));

        // Store burst: retry the upload until every block is accepted.
        let seed = base.wrapping_add(400 + i as u64);
        let mut w = world(b"recovery-upload", Behavior::Honest, seed);
        upload(&mut w, 0..4).expect("clean upload");
        w.channel.advance_epoch();
        upload(&mut w, 4..6).expect("clean upload");
        upload(&mut w, 6..8).expect("clean upload");
        let mut rw = wrap_resilient(w, seed);
        rw.transport
            .inner_mut()
            .set_forced_burst(Endpoint::Store, kind, 2);
        let blocks: Vec<DataBlock> = (8..N_BLOCKS).map(block).collect();
        let signed = rw
            .user
            .sign_blocks(&blocks, &[&rw.server_public, rw.da.public()]);
        let body = encode_store_body(&signed);
        let expected = N_BLOCKS - 8;
        let mut accepted_on = None;
        for attempt in 0..4 {
            match rw.transport.rpc_store(rw.user.identity(), &body) {
                Ok(n) if n == expected => {
                    accepted_on = Some(attempt);
                    break;
                }
                Ok(_) | Err(_) => continue,
            }
        }
        assert!(
            accepted_on.is_some(),
            "Store/{kind:?}: upload not recovered within the burst"
        );
        let res = storage_audit_resilient(
            &mut rw.da,
            &mut rw.transport,
            &rw.user,
            N_BLOCKS,
            N_BLOCKS as usize,
        );
        assert!(
            res.verdict.is_healthy(),
            "Store/{kind:?}: recovered upload does not audit healthy: {res:?}"
        );
        matrix.push((
            Endpoint::Store,
            kind,
            format!(
                "healthy (upload accepted on attempt {})",
                accepted_on.unwrap_or(9)
            ),
        ));
    }
    print_matrix(
        "recovery sweep: store/retrieve endpoints, honest server, burst of 2",
        &matrix,
    );
}

/// Recovery sweep, adversarial side: the same bursts must not launder a
/// cheater. A CSC = 0 computation cheater ends `Detected` (pinned evidence
/// survives escalation and re-dispatch) and an SSC = 0 storage corrupter
/// never audits healthy, under every fault kind.
#[test]
fn recovery_sweep_cheaters_stay_detected_under_bursts() {
    let base = seed_from_env();
    let mut matrix = Vec::new();
    for (i, &kind) in FaultKind::ALL.iter().enumerate() {
        // Computation cheater with an audit-endpoint burst.
        let seed = base.wrapping_add(500 + i as u64);
        let mut w = world(
            b"recovery-cheat",
            Behavior::ComputationCheater {
                csc: 0.0,
                guess_range: None,
            },
            seed,
        );
        computation_warmup(&mut w);
        let mut rw = wrap_resilient(w, seed);
        rw.transport
            .inner_mut()
            .set_forced_burst(Endpoint::Audit, kind, 2);
        let res = run_job_resilient(
            &mut rw.da,
            &mut rw.transport,
            &rw.user,
            &request(5, 4),
            4,
            0,
        );
        assert!(
            res.is_detected(),
            "Audit/{kind:?}: CSC=0 cheater escaped the resilient driver: {res:?}"
        );
        matrix.push((
            Endpoint::Audit,
            kind,
            format!(
                "detected (rounds {}, byzantine {})",
                res.stats().audit_rounds,
                res.stats().byzantine_evidence
            ),
        ));

        // Storage corrupter with a retrieve-endpoint burst.
        let seed = base.wrapping_add(600 + i as u64);
        let mut w = world(
            b"recovery-corrupt",
            Behavior::StorageCheater {
                ssc: 0.0,
                attack: StorageAttack::Corrupt,
            },
            seed,
        );
        upload(&mut w, 0..N_BLOCKS).expect("clean upload");
        let mut rw = wrap_resilient(w, seed);
        rw.transport
            .inner_mut()
            .set_forced_burst(Endpoint::Retrieve, kind, 2);
        let res = storage_audit_resilient(
            &mut rw.da,
            &mut rw.transport,
            &rw.user,
            N_BLOCKS,
            N_BLOCKS as usize,
        );
        assert!(
            !res.verdict.is_healthy(),
            "Retrieve/{kind:?}: SSC=0 corrupter audited healthy through retries"
        );
        matrix.push((
            Endpoint::Retrieve,
            kind,
            format!(
                "unhealthy ({} invalid, {} missing of {})",
                res.verdict.invalid.len(),
                res.verdict.missing.len(),
                res.verdict.sampled.len()
            ),
        ));
    }
    print_matrix("recovery sweep: bursts cannot launder cheaters", &matrix);
}

/// The recovery schedule replays bit-identically from its seed: stats,
/// virtual clock and the injected fault plan all match across runs.
#[test]
fn recovery_sweep_replays_identically_from_its_seed() {
    let base = seed_from_env();
    let run = || {
        let mut w = world(b"recovery-replay", Behavior::Honest, base);
        computation_warmup(&mut w);
        let mut rw = wrap_resilient(w, base);
        rw.transport
            .inner_mut()
            .set_forced_burst(Endpoint::Audit, FaultKind::ReplayPrevious, 2);
        let res = run_job_resilient(
            &mut rw.da,
            &mut rw.transport,
            &rw.user,
            &request(5, 4),
            4,
            0,
        );
        assert!(res.is_clean(), "{res:?}");
        (
            res.stats().clone(),
            rw.transport.clock().now_ms(),
            rw.transport.inner().plan().clone(),
        )
    };
    assert_eq!(run(), run());
}

/// Dispatch-and-audit jobs through a `FaultyChannel` at `rate`, once over
/// the raw wire and once through the resilient runtime, each arm against a
/// fresh honest server with the same fault seed. Returns how many raw jobs
/// ended in a passing audit; panics if any resilient job is not `Clean`.
fn raw_and_resilient_jobs(rate: f64, seed: u64, jobs: u64) -> u64 {
    let faulty_world = || {
        let sio = Sio::new(b"recovery-rates");
        let user = sio.register("alice");
        let mut server = CloudServer::new(&sio, "cs", Behavior::Honest, b"srv");
        let da = DesignatedAgency::new(&sio, "da", b"agency");
        let blocks: Vec<DataBlock> = (0..N_BLOCKS).map(block).collect();
        let signed = user.sign_blocks(&blocks, &[server.public(), da.public()]);
        // Uploaded out of band, so faults land only on compute and audit.
        assert_eq!(server.store(&user, signed), N_BLOCKS as usize);
        // lint: allow(transport, reason=the raw arm measures what the resilient runtime recovers)
        let channel = FaultyChannel::new(WireServer::new(server), seed, rate);
        (user, da, channel)
    };

    let (user, mut da, mut channel) = faulty_world();
    let mut raw_ok = 0;
    for weight in 2..2 + jobs {
        let req = request(weight, 4);
        let outcome = channel
            .rpc_compute(user.identity(), da.identity(), &req.to_wire())
            .and_then(|(job_id, commitment)| {
                da.audit_wire(&mut channel, &user, &req, job_id, &commitment, req.len(), 0)
            });
        if matches!(&outcome, Ok(v) if !v.detected) {
            raw_ok += 1;
        }
    }

    let (user, mut da, channel) = faulty_world();
    let mut transport =
        ResilientTransport::new(channel, RetryPolicy::default(), &seed.to_be_bytes());
    for weight in 2..2 + jobs {
        let req = request(weight, 4);
        let res = run_job_resilient(&mut da, &mut transport, &user, &req, req.len(), 0);
        assert!(
            res.is_clean(),
            "rate {rate}: honest job {weight} not recovered: {res:?}"
        );
    }
    raw_ok
}

/// The price of no recovery layer: at 5 % and 20 % channel fault rates the
/// raw wire loses audits of an honest server, while the resilient runtime
/// ends every one of the same jobs `Clean`. Fixed seeds, so the cells are
/// the same on every run.
#[test]
fn channel_fault_rates_lose_raw_audits_but_no_resilient_ones() {
    const JOBS: u64 = 40;
    for (rate, seed) in [(0.05, 12), (0.20, 13)] {
        let raw_ok = raw_and_resilient_jobs(rate, seed, JOBS);
        println!("rate {rate:.2}: raw {raw_ok}/{JOBS} clean, resilient {JOBS}/{JOBS} clean");
        assert!(
            raw_ok < JOBS,
            "rate {rate}: the raw arm lost no audit, so the faults never fired"
        );
    }
}

/// A burst long enough to exhaust the retries of three whole calls
/// (3 × `max_attempts` truncated compute replies) costs the first job only
/// rounds, not its verdict: the driver re-dispatches once the channel
/// heals, and every later job on the same transport reaches the server
/// and ends `Clean`.
#[test]
fn exhausted_retries_leave_later_jobs_clean() {
    let seed = seed_from_env().wrapping_add(800);
    let mut w = world(b"recovery-exhausted", Behavior::Honest, seed);
    computation_warmup(&mut w);
    let mut rw = wrap_resilient(w, seed);
    let burst = 3 * rw.transport.policy().max_attempts;
    rw.transport
        .inner_mut()
        .set_forced_burst(Endpoint::Compute, FaultKind::Truncate, burst);
    for job in 0..6u64 {
        let res = run_job_resilient(
            &mut rw.da,
            &mut rw.transport,
            &rw.user,
            &request(3 + job, 4),
            4,
            0,
        );
        assert!(
            res.is_clean(),
            "job {job}: honest server not served: {res:?}"
        );
    }
}
