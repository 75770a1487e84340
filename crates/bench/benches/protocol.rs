//! Benches for the end-to-end protocol steps: block signing (Protocol II),
//! commitment generation (Protocol III) and the sampling audit
//! (Algorithm 1, one batched pairing per audit) at several sampling
//! sizes.

use seccloud_bench::Bench;
use seccloud_core::computation::{
    verify_response, AuditChallenge, Commitment, CommitmentSession, ComputationRequest,
    ComputeFunction, RequestItem,
};
use seccloud_core::storage::{DataBlock, SignedBlock};
use seccloud_core::{CloudUser, Sio, VerifierCredential};
use seccloud_hash::HmacDrbg;

struct World {
    user: CloudUser,
    cs: VerifierCredential,
    da: VerifierCredential,
    blocks: Vec<DataBlock>,
    stored: Vec<SignedBlock>,
    request: ComputationRequest,
}

fn world(n_items: usize) -> World {
    let sio = Sio::new(b"protocol-bench");
    let user = sio.register("alice");
    let cs = sio.register_verifier("cs");
    let da = sio.register_verifier("da");
    let blocks: Vec<DataBlock> = (0..n_items as u64)
        .map(|i| DataBlock::from_values(i, &[i, i + 1, i + 2]))
        .collect();
    let stored = user.sign_blocks(&blocks, &[cs.public(), da.public()]);
    let request = ComputationRequest::new(
        (0..n_items as u64)
            .map(|i| RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![i],
            })
            .collect(),
    );
    World {
        user,
        cs,
        da,
        blocks,
        stored,
        request,
    }
}

fn commit(w: &World) -> (Commitment, CommitmentSession) {
    CommitmentSession::commit(
        &w.request,
        |pos| w.stored.get(pos as usize),
        w.cs.signer(),
        w.da.public(),
    )
    .expect("blocks present")
}

fn bench_sign_blocks() {
    let mut g = Bench::group("protocol_sign_blocks");
    let w = world(8);
    g.bench("sign_8_blocks_2_designees", || {
        w.user
            .sign_blocks(&w.blocks, &[w.cs.public(), w.da.public()])
    });
}

fn bench_commit() {
    let mut g = Bench::group("protocol_commit");
    for &n in &[16usize, 64] {
        let w = world(n);
        g.bench(&format!("commit/{n}"), || commit(&w));
    }
}

fn bench_audit() {
    let mut g = Bench::group("protocol_audit");
    let w = world(64);
    let (commitment, session) = commit(&w);
    for &t in &[1usize, 8, 15] {
        let mut drbg = HmacDrbg::new(b"challenge");
        let challenge = AuditChallenge::sample(&mut drbg, w.request.len(), t);
        let response = session.respond(&challenge).unwrap();
        g.bench(&format!("respond/{t}"), || {
            session.respond(&challenge).unwrap()
        });
        g.bench(&format!("verify/{t}"), || {
            let outcome = verify_response(
                w.da.key(),
                w.user.public(),
                w.cs.signer_public(),
                &w.request,
                &challenge,
                &commitment,
                &response,
            );
            assert!(outcome.is_valid());
        });
    }
}

fn main() {
    bench_sign_blocks();
    bench_commit();
    bench_audit();
}
