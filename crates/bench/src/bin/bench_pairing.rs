//! Writes `BENCH_pairing.json` — the machine-readable pairing-performance
//! trajectory. Future PRs rerun this bin and diff the numbers to track
//! regressions/improvements of the hot path:
//!
//! * single pairing (unprepared ate) vs prepared pairing against a fixed
//!   G2 argument (ops/sec + speedup);
//! * G1 scalar multiplication: GLV endomorphism split vs plain wNAF;
//! * the unit prices the paper's cost formulas multiply (Table I,
//!   eq. 8–9): final exponentiation, the constant-time `G1`/`G2` ladders,
//!   `sign`, and designated verification of a 40-byte and a 16 KiB
//!   message, each the fastest of 25 short timed rounds;
//! * the `GT` subgroup test batch verification runs on every pushed `Σ`;
//! * designated batch verification at ℓ ∈ {9, 16, 64, 256} vs ℓ individual
//!   verifications (ℓ = 9 is an Algorithm-1 audit at t = 4: eight input
//!   blocks and `Sig(R)`).
//!
//! Schema v5 added the unit prices (`final_exponentiation_us`,
//! `g1_mul_ct_us`, `g2_mul_ct_us`, `sign_us`, `designated_verify_us`).
//! Schema v6 adds `gt_subgroup_check_us` and the ℓ = 9 batch row; every
//! v5 field keeps its name and meaning, but each batch now pays one
//! subgroup test per signature, which the v5 batch skipped.
//!
//! Run with `cargo run --release -p seccloud-bench --bin bench_pairing`.
//! The file lands in the current working directory; `--out PATH` moves
//! it. `--smoke` times every quantity once, with batch ℓ = 9 only, so CI
//! can check that each field is still emitted (the numbers are not
//! meaningful).
#![forbid(unsafe_code)]

use seccloud_bench::measure_ms;
use seccloud_ibs::{designate, sign, BatchItem, BatchVerifier, MasterKey};
use seccloud_pairing::{
    final_exponentiation, hash_to_g1, hash_to_g2, pairing, pairing_prepared, Fr, G2Prepared, G1, G2,
};

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

/// How long each measurement runs: the full run, or one call per timing
/// under `--smoke`.
struct Effort {
    smoke: bool,
}

impl Effort {
    /// `full` calls, or 1 under `--smoke`.
    fn n(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Microseconds per call of `f`: the fastest of 25 timed rounds of 4
    /// calls each. Many short rounds let at least one miss the bursts of
    /// a shared host.
    fn unit_us<T>(&self, mut f: impl FnMut() -> T) -> f64 {
        (0..self.n(25))
            .map(|_| measure_ms(1, self.n(4), &mut f) * 1_000.0)
            .fold(f64::INFINITY, f64::min)
    }
}

fn main() {
    let mut effort = Effort { smoke: false };
    let mut out_path = String::from("BENCH_pairing.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => effort.smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument: {other}"),
        }
    }

    let p = hash_to_g1(b"bench-p").to_affine();
    let q = hash_to_g2(b"bench-q").to_affine();
    let prepared = G2Prepared::from(&q);

    // Headline single-pairing rates. The prepared case models the
    // protocol's real shape: the G2 argument (a verifier key) is fixed, so
    // preparation is amortized across many calls and excluded from the
    // per-op time.
    let plain_ms = measure_ms(3, effort.n(30), || pairing(&p, &q));
    let prepared_ms = measure_ms(3, effort.n(30), || pairing_prepared(&p, &prepared));
    let prep_cost_ms = measure_ms(1, effort.n(10), || G2Prepared::from(&q));

    // G1 scalar multiplication: the GLV endomorphism split (mul_fr) vs the
    // plain full-width wNAF walk it replaced on the audit path.
    let g = G1::generator();
    let k = Fr::hash(b"bench-scalar");
    let limbs = *k.to_u256().limbs();
    let glv_ms = measure_ms(10, effort.n(200), || g.mul_fr(&k));
    let wnaf_ms = measure_ms(10, effort.n(200), || g.mul_limbs_wnaf(&limbs));
    println!(
        "g1 scalar mul: glv {:.1} µs, wnaf {:.1} µs → {:.2}x",
        glv_ms * 1_000.0,
        wnaf_ms * 1_000.0,
        wnaf_ms / glv_ms
    );

    // Unit prices of a designated sign and verify.
    let miller_value = *pairing(&p, &q).as_fp12(); // any unit works as input
    let final_exp_us = effort.unit_us(|| final_exponentiation(&miller_value));
    let g1_ct_us = effort.unit_us(|| g.mul_fr_ct(&k));
    let g2_ct_us = effort.unit_us(|| G2::generator().mul_fr_ct(&k));
    let sigma = pairing(&p, &q);
    let subgroup_us = effort.unit_us(|| assert!(sigma.is_in_subgroup()));
    let sio = MasterKey::from_seed(b"bench-pairing-units");
    let user = sio.extract_user("alice");
    let server = sio.extract_verifier("cs");
    let short = vec![0x5a; 40];
    let sign_us = effort.unit_us(|| sign(&user, &short, b"n"));
    let mut verify_rows = Vec::new();
    for len in [40usize, 16 * 1024] {
        let msg = vec![0x5a; len];
        let sig = designate(&sign(&user, &msg, b"n"), server.public());
        let us = effort.unit_us(|| assert!(sig.verify(&server, user.public(), &msg)));
        verify_rows.push(format!(
            "    {{ \"message_bytes\": {len}, \"us\": {us:.1} }}"
        ));
        println!("designated verify, {len} B: {us:.1} µs");
    }
    println!(
        "final exp {final_exp_us:.1} µs, G1 ct mul {g1_ct_us:.1} µs, \
         G2 ct mul {g2_ct_us:.1} µs, sign {sign_us:.1} µs, \
         GT subgroup test {subgroup_us:.1} µs"
    );

    let mut batch_rows = Vec::new();
    let batch_sizes: &[usize] = if effort.smoke {
        &[9]
    } else {
        &[9, 16, 64, 256]
    };
    for &ell in batch_sizes {
        let (server, items) = make_items(ell);
        let iters = effort.n((512 / ell).max(2));
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
        batch_rows.push(format!(
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
        "{{\n  \"schema\": \"seccloud-bench-pairing/v6\",\n  \"threads\": {},\n  \
         \"host_cores\": {},\n  \"host_arch\": \"{}\",\n  \
         \"pairing_ops_per_sec\": {:.3},\n  \"prepared_pairing_ops_per_sec\": {:.3},\n  \
         \"prepared_speedup\": {:.3},\n  \"g2_preparation_ms\": {:.4},\n  \
         \"g1_mul_glv_ops_per_sec\": {:.3},\n  \"g1_mul_wnaf_ops_per_sec\": {:.3},\n  \
         \"glv_speedup_vs_wnaf\": {:.3},\n  \
         \"final_exponentiation_us\": {:.1},\n  \"g1_mul_ct_us\": {:.1},\n  \
         \"g2_mul_ct_us\": {:.1},\n  \"sign_us\": {:.1},\n  \
         \"gt_subgroup_check_us\": {:.1},\n  \
         \"designated_verify_us\": [\n{}\n  ],\n  \
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
        final_exp_us,
        g1_ct_us,
        g2_ct_us,
        sign_us,
        subgroup_us,
        verify_rows.join(",\n"),
        batch_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!(
        "\npairing {:.2} ms, prepared {:.2} ms → {:.2}x; wrote {out_path}",
        plain_ms,
        prepared_ms,
        plain_ms / prepared_ms
    );
}
