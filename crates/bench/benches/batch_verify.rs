//! Benches behind Fig. 5 / Table II's "ours" rows: batch vs individual
//! designated verification across batch sizes.

use seccloud_bench::Bench;
use seccloud_ibs::{designate, sign, BatchItem, BatchVerifier, MasterKey};

fn make_items(n: usize) -> (seccloud_ibs::VerifierKey, Vec<BatchItem>) {
    let sio = MasterKey::from_seed(b"bench-batch");
    let server = sio.extract_verifier("cs");
    let items = (0..n)
        .map(|i| {
            let user = sio.extract_user(&format!("user-{}", i % 4));
            let msg = format!("block-{i}").into_bytes();
            let sig = designate(&sign(&user, &msg, b"n"), server.public());
            BatchItem {
                signer: user.public().clone(),
                message: msg,
                signature: sig,
            }
        })
        .collect();
    (server, items)
}

fn bench_batch_vs_individual() {
    let mut g = Bench::group("batch_verify");
    for &n in &[1usize, 4, 16, 32] {
        let (server, items) = make_items(n);
        g.bench(&format!("individual/{n}"), || {
            assert!(seccloud_ibs::verify_individually(&items, &server).is_none());
        });
        g.bench(&format!("batch/{n}"), || {
            let mut batch = BatchVerifier::new();
            for item in &items {
                batch.push_item(item);
            }
            assert!(batch.verify(&server));
        });
        // Ablation: aggregation (fold) cost alone, without the pairing.
        g.bench(&format!("fold_only/{n}"), || {
            let mut batch = BatchVerifier::new();
            for item in &items {
                batch.push_item(item);
            }
            batch.len()
        });
    }
}

fn main() {
    bench_batch_vs_individual();
}
