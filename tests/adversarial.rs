//! Adversarial integration tests: every mutable surface of the protocol is
//! tampered with and must be rejected — the "no false accept" matrix.

use std::collections::HashSet;

use seccloud::bigint::ApInt;
use seccloud::cloudsim::behavior::Behavior;
use seccloud::cloudsim::CloudServer;
use seccloud::core::computation::{
    leaf_bytes, root_signature_message, verify_response, AuditChallenge, AuditFailure,
    AuditOutcome, AuditResponse, Commitment, CommitmentSession, ComputationRequest,
    ComputeFunction, RequestItem,
};
use seccloud::core::storage::{audit_blocks, DataBlock, SignedBlock};
use seccloud::core::warrant::{Warrant, WarrantError};
use seccloud::core::{CloudUser, Sio, VerifierCredential};
use seccloud::hash::HmacDrbg;
use seccloud::ibs::{verify_individually, BatchItem, BatchVerifier, DesignatedSignature};
use seccloud::pairing::{params, FieldElement, Fp12, Fp2, Fp6, Fr, Gt, G1};
use seccloud::registry::EpochVerifier;
use seccloud::testkit::algebraic::gt_of;
use seccloud::testkit::forall::forall_with;
use seccloud::testkit::{algebraic_faults, AlgebraicFault, Config, Tape};

struct World {
    sio: Sio,
    user: CloudUser,
    cs: VerifierCredential,
    da: VerifierCredential,
    stored: Vec<seccloud::core::storage::SignedBlock>,
    request: ComputationRequest,
}

fn world() -> World {
    let sio = Sio::new(b"adversarial");
    let user = sio.register("alice");
    let cs = sio.register_verifier("cs");
    let da = sio.register_verifier("da");
    let blocks: Vec<DataBlock> = (0..8u64)
        .map(|i| DataBlock::from_values(i, &[i + 1, i + 2]))
        .collect();
    let stored = user.sign_blocks(&blocks, &[cs.public(), da.public()]);
    let request = ComputationRequest::new(
        (0..4u64)
            .map(|i| RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![2 * i, 2 * i + 1],
            })
            .collect(),
    );
    World {
        sio,
        user,
        cs,
        da,
        stored,
        request,
    }
}

fn commit(w: &World) -> (Commitment, CommitmentSession) {
    CommitmentSession::commit(
        &w.request,
        |p| w.stored.get(p as usize),
        w.cs.signer(),
        w.da.public(),
    )
    .unwrap()
}

/// Algorithm 1 one signature at a time: each designated signature costs
/// its own pairing. This is the reference `verify_response` must agree
/// with, restated from the paper rather than taken from the crate.
fn per_item_outcome(
    w: &World,
    request: &ComputationRequest,
    challenge: &AuditChallenge,
    commitment: &Commitment,
    response: &AuditResponse,
) -> AuditOutcome {
    let (da, owner, signer) = (w.da.key(), w.user.public(), w.cs.signer_public());
    let root_msg = root_signature_message(&commitment.root, &request.digest());
    let root_sig_ok = commitment.server_identity == signer.identity()
        && commitment.root_sig.verify(da, signer, &root_msg);
    let check = |slot: usize, index: usize| -> Result<(), AuditFailure> {
        let item = response.items.get(slot).ok_or(AuditFailure::Missing)?;
        let req = request.items.get(index).ok_or(AuditFailure::Missing)?;
        if item.item_index != index {
            return Err(AuditFailure::Missing);
        }
        let at: Vec<u64> = item.inputs.iter().map(|b| b.block().index()).collect();
        if at != req.positions {
            return Err(AuditFailure::WrongPositions);
        }
        if !item.inputs.iter().all(|b| b.verify(da, owner)) {
            return Err(AuditFailure::BadSignature);
        }
        let values: Vec<u64> = item
            .inputs
            .iter()
            .flat_map(|b| b.block().values())
            .collect();
        let expected = req.function.eval(&values);
        if expected != item.claimed_y {
            return Err(AuditFailure::WrongResult {
                expected,
                claimed: item.claimed_y,
            });
        }
        if commitment.results.get(index) != Some(&item.claimed_y) {
            return Err(AuditFailure::CommitmentMismatch);
        }
        let leaf = leaf_bytes(index, &req.positions, item.claimed_y);
        if !item.path.verify(&commitment.root, &leaf, index) {
            return Err(AuditFailure::BadPath);
        }
        Ok(())
    };
    AuditOutcome {
        root_sig_ok,
        nonce_ok: response.nonce == challenge.nonce,
        failures: challenge
            .indices
            .iter()
            .enumerate()
            .filter_map(|(slot, &index)| check(slot, index).err().map(|f| (index, f)))
            .collect(),
        checked: challenge.indices.len(),
    }
}

/// Whether the per-signature reference accepts.
fn individually_accepts(
    w: &World,
    request: &ComputationRequest,
    challenge: &AuditChallenge,
    commitment: &Commitment,
    response: &AuditResponse,
) -> bool {
    per_item_outcome(w, request, challenge, commitment, response).is_valid()
}

/// The scheme's public challenge hash `h = H2(U ‖ m)`.
fn h2(u: &G1, message: &[u8]) -> Fr {
    let ua = u.to_affine();
    Fr::hash_nonzero(&[&ua.x().to_be_bytes()[..], &ua.y().to_be_bytes(), message].concat())
}

#[test]
fn replayed_root_signature_from_another_request_fails() {
    let w = world();
    let (commitment, session) = commit(&w);
    // Reuse the commitment against a different (sub)request.
    let other = ComputationRequest::new(vec![w.request.items[0].clone()]);
    let challenge = AuditChallenge::from_indices(vec![0]);
    let response = session.respond(&challenge).unwrap();
    let outcome = verify_response(
        w.da.key(),
        w.user.public(),
        w.cs.signer_public(),
        &other,
        &challenge,
        &commitment,
        &response,
    );
    assert!(
        !outcome.root_sig_ok,
        "Sig(R) is bound to the request digest"
    );
    assert!(!individually_accepts(
        &w,
        &other,
        &challenge,
        &commitment,
        &response
    ));
}

#[test]
fn commitment_root_swapped_with_another_trees_root() {
    let w = world();
    let (mut commitment, session) = commit(&w);
    // Server swaps in the root of a tree over different results.
    let other_session = CommitmentSession::from_results(
        w.request.clone(),
        (0..4)
            .map(|i| vec![w.stored[2 * i].clone(), w.stored[2 * i + 1].clone()])
            .collect(),
        vec![1, 2, 3, 4],
    );
    commitment.root = other_session.root();
    let challenge = AuditChallenge::from_indices(vec![0, 1]);
    let response = session.respond(&challenge).unwrap();
    let outcome = verify_response(
        w.da.key(),
        w.user.public(),
        w.cs.signer_public(),
        &w.request,
        &challenge,
        &commitment,
        &response,
    );
    // Both the root signature (signed over the old root) and paths break.
    assert!(!outcome.is_valid());
    assert!(!individually_accepts(
        &w,
        &w.request,
        &challenge,
        &commitment,
        &response
    ));
}

#[test]
fn cross_user_signature_substitution_fails() {
    let w = world();
    let bob = w.sio.register("bob");
    let bob_blocks: Vec<DataBlock> = (0..8u64)
        .map(|i| DataBlock::from_values(i, &[i + 1, i + 2]))
        .collect();
    let bob_stored = bob.sign_blocks(&bob_blocks, &[w.cs.public(), w.da.public()]);
    // Same data, same positions — but signed by Bob. An audit for Alice
    // must reject Bob's blocks.
    let (commitment, _) = commit(&w);
    let session = CommitmentSession::from_results(
        w.request.clone(),
        (0..4)
            .map(|i| vec![bob_stored[2 * i].clone(), bob_stored[2 * i + 1].clone()])
            .collect(),
        commitment.results.clone(),
    );
    let challenge = AuditChallenge::from_indices(vec![0]);
    let response = session.respond(&challenge).unwrap();
    let outcome = verify_response(
        w.da.key(),
        w.user.public(),
        w.cs.signer_public(),
        &w.request,
        &challenge,
        &commitment,
        &response,
    );
    assert!(outcome
        .failures
        .iter()
        .any(|(_, f)| matches!(f, seccloud::core::computation::AuditFailure::BadSignature)));
    assert!(!individually_accepts(
        &w,
        &w.request,
        &challenge,
        &commitment,
        &response
    ));
}

#[test]
fn designated_signature_cannot_be_retargeted() {
    // A signature designated to the CS must not verify for the DA even if
    // an attacker re-labels it.
    let w = world();
    let block = &w.stored[0];
    let cs_sig = block.designation_for("cs").unwrap().clone();
    let forged = DesignatedSignature::from_parts(*cs_sig.u(), *cs_sig.sigma());
    assert!(!forged.verify(w.da.key(), w.user.public(), &block.block().signed_message()));
    assert!(forged.verify(w.cs.key(), w.user.public(), &block.block().signed_message()));
}

#[test]
fn zero_point_u_component_rejected() {
    let w = world();
    let block = &w.stored[0];
    let sig = block.designation_for("da").unwrap();
    let zeroed = DesignatedSignature::from_parts(G1::identity(), *sig.sigma());
    assert!(!zeroed.verify(w.da.key(), w.user.public(), &block.block().signed_message()));
}

#[test]
fn warrant_cannot_be_transferred_between_agencies() {
    let w = world();
    let digest = w.request.digest();
    let warrant = Warrant::issue(&w.user, "da", 100, digest, &[w.cs.public()]);
    // A rival agency presents the same warrant under its own name.
    assert_eq!(
        warrant.verify(w.cs.key(), w.user.public(), "rival-da", &digest, 10),
        Err(WarrantError::WrongDelegatee)
    );
}

#[test]
fn batched_and_individual_verification_agree_on_tampered_responses() {
    let w = world();
    let (commitment, session) = commit(&w);
    let challenge = AuditChallenge::from_indices(vec![0, 2]);
    let good = session.respond(&challenge).unwrap();

    // Matrix of tampers; `verify_response` (one batched pairing, per-item
    // checks only to locate a failure) must reject each with the outcome
    // the per-signature reference gives.
    let mut tampered = Vec::new();
    {
        let mut r = good.clone();
        r.items[0].claimed_y = r.items[0].claimed_y.wrapping_add(1);
        tampered.push(("claimed_y", r));
    }
    {
        let mut r = good.clone();
        r.items[1].inputs.swap(0, 1);
        tampered.push(("input order", r));
    }
    {
        let mut r = good.clone();
        r.items.swap(0, 1);
        tampered.push(("item order", r));
    }
    {
        let mut r = good.clone();
        let mut b = w.stored[7].clone();
        b.tamper_index(0);
        r.items[0].inputs[0] = b;
        tampered.push(("relabelled block", r));
    }
    {
        let mut r = good.clone();
        r.items[0].path.siblings_mut()[0].0[0] ^= 1;
        tampered.push(("merkle sibling", r));
    }

    for (label, response) in &tampered {
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            response,
        );
        assert!(!outcome.is_valid(), "batched verifier missed: {label}");
        assert_eq!(
            outcome,
            per_item_outcome(&w, &w.request, &challenge, &commitment, response),
            "batched and per-item outcomes differ: {label}"
        );
    }

    // And the untampered response passes both.
    assert!(verify_response(
        w.da.key(),
        w.user.public(),
        w.cs.signer_public(),
        &w.request,
        &challenge,
        &commitment,
        &good,
    )
    .is_valid());
    assert!(individually_accepts(
        &w,
        &w.request,
        &challenge,
        &commitment,
        &good
    ));
}

/// A block signer whose nonce `r` can be recomputed from public inputs
/// hands out the designation key: from one stored block `(U, Σ')` anyone
/// gets `K = Σ'^{1/(r+h)} = ê(Q_ID, sk_DA)` and designates "signatures" on
/// data the owner never signed. Every public-input nonce derivation the
/// signer has used — or would use if `sign` dropped its key — must yield a
/// forgery the DA rejects.
#[test]
fn public_nonce_derivations_cannot_forge_block_signatures() {
    let w = world();
    let target = &w.stored[0];
    let message = target.block().signed_message();
    let stored = target.designation_for("da").unwrap();
    let h = h2(stored.u(), &message);

    let identity = w.user.identity().as_bytes();
    let public_seed = [
        identity,
        &(message.len() as u64).to_be_bytes(),
        &message,
        b"seccloud/storage-block",
    ]
    .concat();
    let candidate_seeds = [
        [identity, b"/storage-signing"].concat(),
        [identity, b"/storage-signing-parallel/", &0u64.to_be_bytes()].concat(),
        public_seed,
    ];

    let forged_message = DataBlock::new(0, b"never signed by alice".to_vec()).signed_message();
    for seed in &candidate_seeds {
        let r = Fr::random_nonzero(&mut HmacDrbg::new(seed));
        let Some(inv) = r.add(&h).inverse() else {
            continue;
        };
        let k = stored.sigma().pow(&inv);
        let u = w.user.public().q().mul_fr(&Fr::from_u64(7));
        let sigma = k.pow(&Fr::from_u64(7).add(&h2(&u, &forged_message)));
        let forged = DesignatedSignature::from_parts(u, sigma);
        assert!(
            !forged.verify(w.da.key(), w.user.public(), &forged_message),
            "a nonce recomputed from public inputs forged a DA-designated signature"
        );
    }
}

/// Two uploads by one user at the same positions with different data must
/// not reuse a nonce: equal `U` with different `h` gives
/// `sk = (V₁ − V₂)/(h₁ − h₂)` to anyone who sees both raw signatures.
#[test]
fn upload_batches_never_share_a_nonce() {
    let w = world();
    let rewrite: Vec<DataBlock> = (0..8u64)
        .map(|i| DataBlock::from_values(i, &[i + 100, i + 200]))
        .collect();
    let second = w
        .user
        .sign_blocks(&rewrite, &[w.cs.public(), w.da.public()]);
    let us: HashSet<[u8; 32]> = w
        .stored
        .iter()
        .chain(&second)
        .map(|b| {
            b.designation_for("da")
                .unwrap()
                .u()
                .to_affine()
                .to_compressed()
        })
        .collect();
    assert_eq!(us.len(), w.stored.len() + second.len());
}

#[test]
fn foreign_system_parameters_are_useless() {
    // Keys extracted under a different SIO master secret verify nothing
    // in this system.
    let w = world();
    let foreign = Sio::new(b"foreign-system");
    let fake_da = foreign.register_verifier("da");
    let block = &w.stored[0];
    assert!(!block.verify(fake_da.key(), w.user.public()));
}

/// Cases per algebraic-fault property: each case costs a few dozen
/// pairings, so the count stays below the runner's default of 200.
const ALGEBRAIC_CASES: usize = 48;

fn algebraic_config() -> Config {
    Config {
        cases: ALGEBRAIC_CASES,
        tape_len: 64,
        ..Config::from_env()
    }
}

/// `blocks` with a fault plan applied to their designations for
/// `target` (the other designee is `other`).
fn faulted(
    blocks: &[SignedBlock],
    plan: &[(usize, AlgebraicFault)],
    target: &str,
    other: &str,
) -> Vec<SignedBlock> {
    let mut out = blocks.to_vec();
    for &(slot, fault) in plan {
        out[slot] = fault.apply(&out[slot], target, other);
    }
    out
}

/// The DA-designated batch items of `blocks` (a block without a DA
/// designation contributes none).
fn da_items(w: &World, blocks: &[SignedBlock]) -> Vec<BatchItem> {
    blocks
        .iter()
        .filter_map(|b| {
            Some(BatchItem {
                signer: w.user.public().clone(),
                message: b.block().signed_message(),
                signature: b.designation_for("da")?.clone(),
            })
        })
        .collect()
}

#[test]
fn batch_verifier_accepts_iff_every_item_verifies() {
    let w = world();
    forall_with(
        "batch-verifier-under-algebraic-faults",
        &algebraic_config(),
        |t: &mut Tape| algebraic_faults(t, w.stored.len()),
        |plan| {
            let items = da_items(&w, &faulted(&w.stored, plan, "da", "cs"));
            let mut batch = BatchVerifier::new();
            for item in &items {
                batch.push_item(item);
            }
            let individually = verify_individually(&items, w.da.key()).is_none();
            // The subgroup test against the plain r-power oracle.
            let outside_mu_r = items.iter().any(|i| {
                let sigma = i.signature.sigma().as_fp12();
                sigma.is_zero() || sigma.pow_apint(params::r_apint()) != Fp12::one()
            });
            let tested = items.iter().any(|i| !i.signature.sigma().is_in_subgroup());
            if tested != outside_mu_r {
                return Err(format!(
                    "subgroup tests say {tested}, oracle = {outside_mu_r}"
                ));
            }
            (batch.verify(w.da.key()) == individually)
                .then_some(())
                .ok_or(format!(
                    "batch disagrees; individually valid = {individually}"
                ))
        },
    );
}

#[test]
fn verify_response_matches_the_per_item_path_under_algebraic_faults() {
    let w = world();
    let (commitment, session) = commit(&w);
    let challenge = AuditChallenge::from_indices((0..w.request.len()).collect());
    let good = session.respond(&challenge).unwrap();
    let slots: usize = good.items.iter().map(|i| i.inputs.len()).sum();
    forall_with(
        "verify-response-under-algebraic-faults",
        &algebraic_config(),
        // The last slot is Sig(R).
        |t: &mut Tape| algebraic_faults(t, slots + 1),
        |plan| {
            let mut response = good.clone();
            let mut commitment = commitment.clone();
            for &(slot, fault) in plan {
                if slot == slots {
                    commitment.root_sig = fault.corrupt(&commitment.root_sig);
                    continue;
                }
                let item = &mut response.items[slot / 2];
                let block = &mut item.inputs[slot % 2];
                *block = fault.apply(block, "da", "cs");
            }
            let outcome = verify_response(
                w.da.key(),
                w.user.public(),
                w.cs.signer_public(),
                &w.request,
                &challenge,
                &commitment,
                &response,
            );
            let expected = per_item_outcome(&w, &w.request, &challenge, &commitment, &response);
            (outcome == expected)
                .then_some(())
                .ok_or(format!("batched {outcome:?} != per-item {expected:?}"))
        },
    );
}

/// A Merkle path that decodes and type-checks but does not authenticate
/// its leaf: the wrong depth, a sibling on the wrong side, or a path that
/// is genuine for another leaf.
#[derive(Clone, Copy, Debug)]
enum PathFault {
    /// The last sibling dropped.
    OneShort,
    /// One sibling too many.
    OneLong,
    /// The side flag of sibling `level` flipped.
    FlippedSide { level: usize },
    /// The path of challenged index `other`.
    OtherIndex { other: usize },
}

/// Zero or more faulted indices out of `0..n`, each with one fault
/// (`n ≥ 2`, so another challenged index always exists).
fn path_faults(t: &mut Tape, n: usize, depth: usize) -> Vec<(usize, PathFault)> {
    (0..n)
        .filter_map(|index| {
            let fault = match t.next_below(8) {
                0 => PathFault::OneShort,
                1 => PathFault::OneLong,
                2 => PathFault::FlippedSide {
                    level: t.next_below(depth as u64) as usize,
                },
                3 => PathFault::OtherIndex {
                    other: (index + 1 + t.next_below(n as u64 - 1) as usize) % n,
                },
                _ => return None,
            };
            Some((index, fault))
        })
        .collect()
}

/// Path faults surface exactly where they were planted: each faulted index
/// fails as `BadPath`, and every other item, the root signature and the
/// nonce pass as on the untouched response.
#[test]
fn verify_response_reports_exactly_the_faulted_merkle_paths() {
    let w = world();
    let (commitment, session) = commit(&w);
    let n = w.request.len();
    let challenge = AuditChallenge::from_indices((0..n).collect());
    let good = session.respond(&challenge).unwrap();
    let depth = good.items[0].path.len();
    assert!(n >= 2 && depth >= 1 && good.items.iter().all(|i| i.path.len() == depth));
    forall_with(
        "verify-response-under-merkle-path-faults",
        &algebraic_config(),
        |t: &mut Tape| path_faults(t, n, depth),
        |plan| {
            let mut response = good.clone();
            for &(index, fault) in plan {
                let path = &mut response.items[index].path;
                match fault {
                    PathFault::OneShort => {
                        path.siblings_mut().pop();
                    }
                    PathFault::OneLong => path.siblings_mut().push(([0x5a; 32], false)),
                    PathFault::FlippedSide { level } => {
                        let side = &mut path.siblings_mut()[level].1;
                        *side = !*side;
                    }
                    PathFault::OtherIndex { other } => *path = good.items[other].path.clone(),
                }
            }
            let outcome = verify_response(
                w.da.key(),
                w.user.public(),
                w.cs.signer_public(),
                &w.request,
                &challenge,
                &commitment,
                &response,
            );
            let expected: Vec<(usize, AuditFailure)> = plan
                .iter()
                .map(|&(index, _)| (index, AuditFailure::BadPath))
                .collect();
            (outcome.root_sig_ok
                && outcome.nonce_ok
                && outcome.checked == n
                && outcome.failures == expected)
                .then_some(())
                .ok_or(format!("plan {plan:?}: {outcome:?}"))
        },
    );
}

#[test]
fn audit_blocks_matches_per_block_verification() {
    let w = world();
    forall_with(
        "audit-blocks-under-algebraic-faults",
        &algebraic_config(),
        |t: &mut Tape| algebraic_faults(t, w.stored.len()),
        |plan| {
            let blocks = faulted(&w.stored, plan, "da", "cs");
            let report = audit_blocks(w.da.key(), w.user.public(), &blocks);
            let expected: Vec<usize> = (0..blocks.len())
                .filter(|&i| !blocks[i].verify(w.da.key(), w.user.public()))
                .collect();
            (report.failed == expected && report.checked == blocks.len())
                .then_some(())
                .ok_or(format!(
                    "report {:?} != per-block {expected:?}",
                    report.failed
                ))
        },
    );
}

#[test]
fn store_public_accepts_exactly_the_blocks_that_verify() {
    let w = world();
    forall_with(
        "store-public-under-algebraic-faults",
        &algebraic_config(),
        |t: &mut Tape| algebraic_faults(t, w.stored.len()),
        |plan| {
            let mut server = CloudServer::new(&w.sio, "cs", Behavior::Honest, b"algebraic");
            let blocks = faulted(&w.stored, plan, "cs", "da");
            let expected: Vec<u64> = blocks
                .iter()
                .filter(|b| b.verify(w.cs.key(), w.user.public()))
                .map(|b| b.block().index())
                .collect();
            let accepted = server.store_public(w.user.public(), blocks);
            let stored: Vec<u64> = (0..w.stored.len() as u64)
                .filter(|&p| server.retrieve(w.user.identity(), p).is_some())
                .collect();
            (accepted == expected.len() && stored == expected)
                .then_some(())
                .ok_or(format!("stored {stored:?}, expected {expected:?}"))
        },
    );
}

/// The aggregate `(Σ (U + h·Q_ID), Π Σ)` of `items`, as a producer hands
/// it to the epoch verifier; of one item, that item's own term.
fn aggregate_of(items: &[BatchItem]) -> (G1, Gt) {
    let mut batch = BatchVerifier::new();
    for item in items {
        batch.push_item(item);
    }
    batch.aggregate().expect("non-empty")
}

#[test]
fn epoch_fold_fails_on_any_bad_item() {
    let w = world();
    let keys = [w.da.key().sk_prepared()];
    forall_with(
        "epoch-fold-under-algebraic-faults",
        &algebraic_config(),
        |t: &mut Tape| algebraic_faults(t, w.stored.len()),
        |plan| {
            let items = da_items(&w, &faulted(&w.stored, plan, "da", "cs"));
            let mut epoch = EpochVerifier::new(1, 0);
            for item in &items {
                let (u, sigma) = aggregate_of(std::slice::from_ref(item));
                assert!(epoch.fold_aggregate(0, &u, &sigma, 1));
            }
            let individually = verify_individually(&items, w.da.key()).is_none();
            (epoch.verify(&keys) == individually)
                .then_some(())
                .ok_or(format!(
                    "epoch disagrees; individually valid = {individually}"
                ))
        },
    );
}

/// `q₁ = 493 356 762 637`, the smallest prime factor of the `GT` cofactor
/// `h_T = Φ₁₂(p)/r` (each prime factor of `h_T` exceeds 2³²).
const Q1: u64 = 493_356_762_637;

/// An element `z` of order `q₁`: the easy-part image
/// `f^((p⁶−1)(p²+1))` of a hashed `f ∈ Fp12` (cyclotomic), raised to
/// `Φ₁₂(p)/q₁`.
fn order_q1_element() -> Gt {
    let fp2 = |tag: &[u8]| Fp2::from_hash(b"adversarial/order-q1", tag);
    let f = Fp12::new(
        Fp6::new(fp2(b"a"), fp2(b"b"), fp2(b"c")),
        Fp6::new(fp2(b"d"), fp2(b"e"), fp2(b"f")),
    );
    let easy = f.conjugate().mul(&f.inverse().expect("nonzero"));
    let easy = easy.frobenius_p2().mul(&easy);
    let phi12 = params::final_exp_hard_part() * params::r_apint();
    let (cofactor, rem) = phi12.divrem(&ApInt::from_u64(Q1)).expect("q₁ ≠ 0");
    assert!(rem.is_zero(), "q₁ divides Φ₁₂(p)");
    let z = easy.pow_apint(&cofactor);
    assert!(z != Fp12::one() && z.pow_apint(&ApInt::from_u64(Q1)) == Fp12::one());
    gt_of(&z)
}

/// Exponents `e` of `z` planted into the DA designations of `n` items, one
/// `(slot, e)` per planted slot: alone; as `z` and `z⁻¹` in two slots, so
/// they cancel in the unweighted product; in the first slot, which the
/// batch weighs by one; or in several slots at once with exponents that
/// sum to zero mod `q₁`, cancelling in the unweighted product as well.
fn order_q1_plants(t: &mut Tape, n: usize) -> Vec<(usize, u64)> {
    let mut slots: Vec<usize> = (0..n).collect();
    // Distinct slots in tape order.
    for i in (1..n).rev() {
        slots.swap(i, t.next_below(i as u64 + 1) as usize);
    }
    match t.next_below(4) {
        0 => vec![(slots[0], 1 + t.next_below(Q1 - 1))],
        1 => vec![(slots[0], 1), (slots[1], Q1 - 1)],
        2 => vec![(0, 1 + t.next_below(Q1 - 1))],
        _ => {
            let k = 2 + t.next_below(n as u64 - 1) as usize;
            let mut plants: Vec<(usize, u64)> = slots[..k - 1]
                .iter()
                .map(|&slot| (slot, 1 + t.next_below(Q1 - 1)))
                .collect();
            let sum = plants.iter().fold(0, |acc, &(_, e)| (acc + e) % Q1);
            if sum != 0 {
                plants.push((slots[k - 1], Q1 - sum));
            }
            plants
        }
    }
}

/// Parts of order `q₁` pass the cyclotomic check the batch makes per `Σ`,
/// and in every trial the batch still rejects, as the individual checks
/// do: however they are planted, the one subgroup test of the batch's
/// second combination and the weighted equation catch them.
#[test]
fn order_q1_parts_planted_anywhere_never_pass_a_batch() {
    let w = world();
    let z = order_q1_element();
    let honest = da_items(&w, &w.stored);
    let unweighted = |items: &[BatchItem]| {
        items
            .iter()
            .fold(Gt::one(), |acc, i| acc.mul(i.signature.sigma()))
    };
    forall_with(
        "batch-verifier-under-order-q1-plants",
        &algebraic_config(),
        |t: &mut Tape| order_q1_plants(t, honest.len()),
        |plan| {
            let mut items = honest.clone();
            for &(slot, e) in plan {
                let sig = &items[slot].signature;
                let planted = sig.sigma().mul(&z.pow(&Fr::from_u64(e)));
                if !planted.is_cyclotomic() || planted.is_in_subgroup() {
                    return Err(format!(
                        "slot {slot}: z^{e}·Σ must be cyclotomic, not in μ_r"
                    ));
                }
                items[slot].signature = DesignatedSignature::from_parts(*sig.u(), planted);
            }
            let cancels = plan.iter().fold(0, |acc, &(_, e)| (acc + e) % Q1) == 0;
            if cancels != (unweighted(&items) == unweighted(&honest)) {
                return Err(
                    "the unweighted product must cancel exactly when the exponents do".into(),
                );
            }
            let mut batch = BatchVerifier::new();
            for item in &items {
                batch.push_item(item);
            }
            let individually = verify_individually(&items, w.da.key());
            (!batch.verify(w.da.key()) && individually.is_some())
                .then_some(())
                .ok_or(format!("batch accepted, or individually {individually:?}"))
        },
    );
}

/// Lanes of the epoch in [`order_q1_parts_in_epoch_aggregates_never_pass`].
const Q1_LANES: u32 = 3;

/// Exponents `e` of `z` planted into the `Σ` of an epoch's `n` aggregates,
/// term `i` routed to lane `i mod Q1_LANES`: alone in a random term; in
/// the first term, which the epoch weighs by one; or in one term of each
/// of two or more lanes with exponents that sum to zero mod `q₁`, which
/// cancel in the unweighted product.
fn epoch_q1_plants(t: &mut Tape, n: usize) -> Vec<(usize, u64)> {
    let lanes = Q1_LANES as usize;
    match t.next_below(3) {
        0 => vec![(t.next_below(n as u64) as usize, 1 + t.next_below(Q1 - 1))],
        1 => vec![(0, 1 + t.next_below(Q1 - 1))],
        _ => {
            // Distinct lanes in tape order, then one term in each.
            let mut order: Vec<usize> = (0..lanes).collect();
            for i in (1..lanes).rev() {
                order.swap(i, t.next_below(i as u64 + 1) as usize);
            }
            let k = 2 + t.next_below(lanes as u64 - 1) as usize;
            let mut plants: Vec<(usize, u64)> = order[..k]
                .iter()
                .map(|&lane| {
                    let in_lane = (n - lane).div_ceil(lanes) as u64;
                    (lane + lanes * t.next_below(in_lane) as usize, 0)
                })
                .collect();
            let mut sum = 0;
            for plant in plants.iter_mut().skip(1) {
                plant.1 = 1 + t.next_below(Q1 - 1);
                sum = (sum + plant.1) % Q1;
            }
            plants[0].1 = if sum == 0 { Q1 } else { Q1 - sum };
            plants.retain(|&(_, e)| e != Q1);
            plants
        }
    }
}

/// The epoch verifier checks its `Σ` as the batch does. Aggregates routed
/// by `fold_aggregate` carry parts of order `q₁` — alone, in the first
/// term, or cancelling across lanes — and every epoch rejects them.
#[test]
fn order_q1_parts_in_epoch_aggregates_never_pass() {
    let w = world();
    let z = order_q1_element();
    let keys = vec![w.da.key().sk_prepared(); Q1_LANES as usize];
    // A two-signature aggregate first, then one term per signature.
    let items = da_items(&w, &w.stored);
    let mut honest = vec![aggregate_of(&items[..2])];
    honest.extend(items[2..].chunks(1).map(aggregate_of));
    let epoch_of = |terms: &[(G1, Gt)]| {
        let mut epoch = EpochVerifier::new(Q1_LANES, 0);
        for (lane, (u, sigma)) in (0..Q1_LANES).cycle().zip(terms) {
            assert!(epoch.fold_aggregate(lane, u, sigma, 1));
        }
        epoch
    };
    assert!(epoch_of(&honest).verify(&keys));
    let unweighted = |terms: &[(G1, Gt)]| terms.iter().fold(Gt::one(), |acc, (_, s)| acc.mul(s));
    forall_with(
        "epoch-verifier-under-order-q1-plants",
        &algebraic_config(),
        |t: &mut Tape| epoch_q1_plants(t, honest.len()),
        |plan| {
            let mut terms = honest.clone();
            for &(slot, e) in plan {
                let planted = terms[slot].1.mul(&z.pow(&Fr::from_u64(e)));
                if !planted.is_cyclotomic() || planted.is_in_subgroup() {
                    return Err(format!(
                        "term {slot}: z^{e}·Σ must be cyclotomic, not in μ_r"
                    ));
                }
                terms[slot].1 = planted;
            }
            let cancels = plan.iter().fold(0, |acc, &(_, e)| (acc + e) % Q1) == 0;
            if cancels != (unweighted(&terms) == unweighted(&honest)) {
                return Err(
                    "the unweighted product must cancel exactly when the exponents do".into(),
                );
            }
            (!epoch_of(&terms).verify(&keys))
                .then_some(())
                .ok_or(format!("epoch accepted {plan:?}"))
        },
    );
}
