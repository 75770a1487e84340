//! Adversarial integration tests: every mutable surface of the protocol is
//! tampered with and must be rejected — the "no false accept" matrix.

use std::collections::HashSet;

use seccloud::core::computation::{
    verify_response, verify_response_batched, AuditChallenge, AuditResponse, Commitment,
    CommitmentSession, ComputationRequest, ComputeFunction, RequestItem,
};
use seccloud::core::storage::DataBlock;
use seccloud::core::warrant::{Warrant, WarrantError};
use seccloud::core::{CloudUser, Sio, VerifierCredential};
use seccloud::hash::HmacDrbg;
use seccloud::ibs::DesignatedSignature;
use seccloud::pairing::{Fr, G1};

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

/// The batched accept-check over the same inputs as `verify_response`.
fn batched_accepts(
    w: &World,
    request: &ComputationRequest,
    challenge: &AuditChallenge,
    commitment: &Commitment,
    response: &AuditResponse,
) -> bool {
    verify_response_batched(
        w.da.key(),
        w.user.public(),
        w.cs.signer_public(),
        request,
        challenge,
        commitment,
        response,
    )
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
    assert!(!batched_accepts(
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
    assert!(!batched_accepts(
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
    assert!(!batched_accepts(
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

    // Matrix of tampers; each must be rejected by both verifiers.
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
        assert!(!outcome.is_valid(), "individual verifier missed: {label}");
        assert!(
            !batched_accepts(&w, &w.request, &challenge, &commitment, response),
            "batched verifier missed: {label}"
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
    assert!(batched_accepts(
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
