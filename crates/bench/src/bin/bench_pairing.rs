//! Writes `BENCH_pairing.json` — the machine-readable pairing-performance
//! trajectory. Future PRs rerun this bin and diff the numbers to track
//! regressions/improvements of the hot path:
//!
//! * single pairing (unprepared ate) vs prepared pairing against a fixed
//!   G2 argument (ops/sec + speedup);
//! * G1 scalar multiplication: GLV endomorphism split vs plain wNAF;
//! * designated batch verification at ℓ ∈ {16, 64, 256} vs ℓ individual
//!   verifications.
//!
//! Schema v4 drops v3's parallel-singles columns
//! (`parallel_singles_ops_per_sec`, `batch_speedup_vs_parallel_singles`)
//! and adds the host (`host_cores`, `host_arch`) next to `threads`; every
//! other field keeps its name and meaning.
//!
//! Run with `cargo run --release -p seccloud-bench --bin bench_pairing`.
//! The file lands in the current working directory.
#![forbid(unsafe_code)]

use seccloud_bench::measure_ms;
use seccloud_ibs::{designate, sign, BatchItem, BatchVerifier, MasterKey};
use seccloud_pairing::{hash_to_g1, hash_to_g2, pairing, pairing_prepared, Fr, G2Prepared, G1};

fn ops_per_sec(ms_per_op: f64) -> f64 {
    1_000.0 / ms_per_op
}

fn make_items(n: usize) -> (seccloud_ibs::VerifierKey, Vec<BatchItem>) {
    let sio = MasterKey::from_seed(b"bench-pairing-json");
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

fn main() {
    let p = hash_to_g1(b"bench-p").to_affine();
    let q = hash_to_g2(b"bench-q").to_affine();
    let prepared = G2Prepared::from(&q);

    // Headline single-pairing rates. The prepared case models the
    // protocol's real shape: the G2 argument (a verifier key) is fixed, so
    // preparation is amortized across many calls and excluded from the
    // per-op time.
    let plain_ms = measure_ms(3, 30, || pairing(&p, &q));
    let prepared_ms = measure_ms(3, 30, || pairing_prepared(&p, &prepared));
    let prep_cost_ms = measure_ms(1, 10, || G2Prepared::from(&q));

    // G1 scalar multiplication: the GLV endomorphism split (mul_fr) vs the
    // plain full-width wNAF walk it replaced on the audit path.
    let g = G1::generator();
    let k = Fr::hash(b"bench-scalar");
    let limbs = *k.to_u256().limbs();
    let glv_ms = measure_ms(10, 200, || g.mul_fr(&k));
    let wnaf_ms = measure_ms(10, 200, || g.mul_limbs_wnaf(&limbs));
    println!(
        "g1 scalar mul: glv {:.1} µs, wnaf {:.1} µs → {:.2}x",
        glv_ms * 1_000.0,
        wnaf_ms * 1_000.0,
        wnaf_ms / glv_ms
    );

    let mut batch_rows = String::new();
    for (i, &ell) in [16usize, 64, 256].iter().enumerate() {
        let (server, items) = make_items(ell);
        let iters = (512 / ell).max(2);
        let batch_ms = measure_ms(1, iters, || {
            let mut batch = BatchVerifier::new();
            for item in &items {
                batch.push_item(item);
            }
            assert!(batch.verify(&server));
        });
        let singles_ms = measure_ms(1, iters, || {
            assert!(seccloud_ibs::verify_individually(&items, &server).is_none());
        });
        if i > 0 {
            batch_rows.push_str(",\n");
        }
        batch_rows.push_str(&format!(
            "    {{ \"ell\": {ell}, \"batch_ops_per_sec\": {:.3}, \
             \"singles_ops_per_sec\": {:.3}, \"batch_speedup_vs_singles\": {:.2} }}",
            ops_per_sec(batch_ms),
            ops_per_sec(singles_ms),
            singles_ms / batch_ms,
        ));
        println!(
            "batch ℓ={ell:>3}: batch {batch_ms:.2} ms, singles {singles_ms:.2} ms \
             — batch speedup {:.2}x",
            singles_ms / batch_ms
        );
    }

    let json = format!(
        "{{\n  \"schema\": \"seccloud-bench-pairing/v4\",\n  \"threads\": {},\n  \
         \"host_cores\": {},\n  \"host_arch\": \"{}\",\n  \
         \"pairing_ops_per_sec\": {:.3},\n  \"prepared_pairing_ops_per_sec\": {:.3},\n  \
         \"prepared_speedup\": {:.3},\n  \"g2_preparation_ms\": {:.4},\n  \
         \"g1_mul_glv_ops_per_sec\": {:.3},\n  \"g1_mul_wnaf_ops_per_sec\": {:.3},\n  \
         \"glv_speedup_vs_wnaf\": {:.3},\n  \
         \"batch_verify\": [\n{}\n  ]\n}}\n",
        seccloud_parallel::num_threads(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        std::env::consts::ARCH,
        ops_per_sec(plain_ms),
        ops_per_sec(prepared_ms),
        plain_ms / prepared_ms,
        prep_cost_ms,
        ops_per_sec(glv_ms),
        ops_per_sec(wnaf_ms),
        wnaf_ms / glv_ms,
        batch_rows,
    );
    std::fs::write("BENCH_pairing.json", &json).expect("write BENCH_pairing.json");
    println!(
        "\npairing {:.2} ms, prepared {:.2} ms → {:.2}x; wrote BENCH_pairing.json",
        plain_ms,
        prepared_ms,
        plain_ms / prepared_ms
    );
}
