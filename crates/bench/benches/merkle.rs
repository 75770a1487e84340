//! Benches for the Merkle commitment layer (paper eq. 6, Fig. 3): tree
//! build, single-leaf proof and verification.

use seccloud_bench::Bench;
use seccloud_merkle::MerkleTree;

fn data(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("y{i}||p{i}").into_bytes()).collect()
}

fn bench_build() {
    let mut g = Bench::group("merkle_build");
    for &n in &[64usize, 1024, 16_384] {
        let d = data(n);
        g.bench(&format!("from_data/{n}"), || {
            MerkleTree::from_data(d.iter().map(Vec::as_slice))
        });
    }
}

fn bench_prove_verify() {
    let mut g = Bench::group("merkle_prove_verify");
    let n = 4096;
    let d = data(n);
    let tree = MerkleTree::from_data(d.iter().map(Vec::as_slice));
    let root = tree.root();
    let proof = tree.prove(n / 2).unwrap();

    g.bench("prove_single", || tree.prove(n / 2).unwrap());
    g.bench("verify_single", || {
        assert!(proof.verify(&root, &d[n / 2], n / 2))
    });
}

fn main() {
    bench_build();
    bench_prove_verify();
}
