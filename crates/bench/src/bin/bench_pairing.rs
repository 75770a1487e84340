//! Writes `BENCH_pairing.json` — the machine-readable pairing-performance
//! trajectory. Future PRs rerun this bin and diff the numbers to track
//! regressions/improvements of the hot path:
//!
//! * cold pairing (`table1`'s `T_pair`: preparing the `G2` argument, then
//!   one replay) vs prepared pairing against a fixed G2 argument (ops/sec
//!   + speedup);
//! * G1 scalar multiplication: GLV endomorphism split vs plain wNAF;
//! * the unit prices the paper's cost formulas multiply (Table I,
//!   eq. 8–9): final exponentiation, the constant-time `G1`/`G2` ladders,
//!   `sign`, designated verification of a 40-byte and a 16 KiB message,
//!   an `Fp12` product and a cyclotomic squaring, each from the shared
//!   unit timer (`Effort::unit_us`: the fastest of 25 short timed rounds);
//! * a designation by the signer's fixed-base `GT` table of
//!   `K_V = ê(sk_ID, Q_V)`, and that table's first-use cost;
//! * the two `GT` membership checks batch verification pays: the
//!   cyclotomic check on every weighted `Σ` and the subgroup test it runs
//!   once per batch, on a second random combination of them;
//! * designated batch verification at ℓ ∈ {9, 16, 64, 256} vs ℓ individual
//!   verifications (ℓ = 9 is an Algorithm-1 audit at t = 4: eight input
//!   blocks and `Sig(R)`), from the shared batch timer.
//!
//! Schema v5 added the unit prices (`final_exponentiation_us`,
//! `g1_mul_ct_us`, `g2_mul_ct_us`, `sign_us`, `designated_verify_us`).
//! Schema v6 added `gt_subgroup_check_us` and the ℓ = 9 batch row; each
//! batch pays one subgroup test per signature, which the v5 batch skipped.
//! Schema v7 adds `fp12_mul_us` and `cyclotomic_square_us`, the two
//! `Gt`-arithmetic prices the final exponentiation and a fixed-base `Gt`
//! exponentiation are counted in. Every v6 field keeps its name and
//! meaning, but every figure now comes from the shared timers: the
//! pairing, preparation and `G1` rates from the unit timer (v6: the mean
//! of one loop), `pairing_ops_per_sec` and `g1_mul_glv_ops_per_sec` being
//! exactly `table1`'s `T_pair` and `T_pmul`, and each batch row from the
//! batch timer. Within v7, `pairing_ops_per_sec` has priced a cold
//! pairing (a preparation plus one replay) since the on-the-fly ate loop
//! was deleted; it priced that loop before. Schema v8 adds
//! `designate_us`, one designation on the signer's warm path (a
//! constant-time power from `K_V`'s fixed-base table, which
//! `sign_designated` pays per verifier instead of a pairing), and
//! `designation_table_ms`, the first designation to a verifier: one
//! prepared pairing for `K_V` plus the table build (slow timer). Every v7
//! field keeps its name and meaning. Schema v9 adds
//! `gt_cyclotomic_check_us`, the per-signature check that replaced the
//! per-signature subgroup test in batch verification; the batch rows now
//! pay one subgroup test per batch. Every v8 field keeps its name and
//! meaning.
//!
//! Run with `cargo run --release -p seccloud-bench --bin bench_pairing`.
//! The file lands in the current working directory; `--out PATH` moves
//! it. `--smoke` times every quantity once, with batch ℓ = 9 only, so CI
//! can check that each field is still emitted (the numbers are not
//! meaningful).
#![forbid(unsafe_code)]

use seccloud_bench::Effort;
use seccloud_ibs::{designate, sign, MasterKey};
use seccloud_pairing::{
    final_exponentiation, hash_to_g1, hash_to_g2, pairing, pairing_prepared, FieldElement, Fr,
    G2Prepared, GtPowTable, G1, G2,
};

fn ops_per_sec(ms_per_op: f64) -> f64 {
    1_000.0 / ms_per_op
}

fn main() {
    let mut effort = Effort::default();
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

    // Headline single-pairing rates. The cold pairing and the GLV
    // multiplication are table1's `T_pair` and `T_pmul`; a cold pairing
    // prepares its G2 argument and replays it once, so `T_pair` is about
    // `g2_preparation_ms` plus the prepared time. The prepared case models
    // the protocol's real shape: the G2 argument (a verifier key) is
    // fixed, so preparation is amortized across many calls and excluded
    // from the per-op time.
    let costs = effort.scheme_costs();
    let plain_ms = costs.t_pair_ms;
    let prepared_ms = effort.unit_us(|| pairing_prepared(&p, &prepared)) / 1_000.0;
    let prep_cost_ms = effort.unit_us(|| G2Prepared::from(&q)) / 1_000.0;

    // G1 scalar multiplication: the GLV endomorphism split (mul_fr) vs the
    // plain full-width wNAF walk it replaced on the audit path.
    let g = G1::generator();
    let k = Fr::hash(b"bench-scalar");
    let limbs = *k.to_u256().limbs();
    let glv_ms = costs.t_pmul_ms;
    let wnaf_ms = effort.unit_us(|| g.mul_limbs_wnaf(&limbs)) / 1_000.0;
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
    let cyclotomic_us = effort.unit_us(|| assert!(sigma.is_cyclotomic()));
    let sigma_sq = sigma.as_fp12().square();
    let fp12_mul_us = effort.unit_us(|| sigma.as_fp12().mul(&sigma_sq));
    let cyclotomic_square_us = effort.unit_us(|| sigma.as_fp12().cyclotomic_square());
    // A designation without a pairing: `K_V^(r+h)` from `K_V`'s table (any
    // pairing value stands in for `K_V`); the first use pays the pairing
    // and the build.
    let designation_table_ms = effort.slow_ms(|| GtPowTable::new(&pairing_prepared(&p, &prepared)));
    let table = GtPowTable::new(&sigma);
    let designate_us = effort.unit_us(|| table.pow_ct(&k));
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
         GT subgroup test {subgroup_us:.1} µs, cyclotomic check {cyclotomic_us:.2} µs, \
         Fp12 product {fp12_mul_us:.2} µs, \
         cyclotomic squaring {cyclotomic_square_us:.2} µs, \
         designation by table {designate_us:.1} µs (table built in {designation_table_ms:.2} ms)"
    );

    let mut batch_rows = Vec::new();
    let batch_sizes: &[usize] = if effort.smoke {
        &[9]
    } else {
        &[9, 16, 64, 256]
    };
    for &ell in batch_sizes {
        let timing = effort.time_batch(b"bench-pairing-json", ell, 4);
        batch_rows.push(format!(
            "    {{ \"ell\": {ell}, \"batch_ops_per_sec\": {:.3}, \
             \"singles_ops_per_sec\": {:.3}, \"batch_speedup_vs_singles\": {:.2} }}",
            ops_per_sec(timing.batch_ms),
            ops_per_sec(timing.singles_ms),
            timing.speedup(),
        ));
        println!(
            "batch ℓ={ell:>3}: batch {:.2} ms, singles {:.2} ms — batch speedup {:.2}x",
            timing.batch_ms,
            timing.singles_ms,
            timing.speedup()
        );
    }

    let json = format!(
        "{{\n  \"schema\": \"seccloud-bench-pairing/v9\",\n  \"threads\": 1,\n  \
         \"host_cores\": {},\n  \"host_arch\": \"{}\",\n  \
         \"pairing_ops_per_sec\": {:.3},\n  \"prepared_pairing_ops_per_sec\": {:.3},\n  \
         \"prepared_speedup\": {:.3},\n  \"g2_preparation_ms\": {:.4},\n  \
         \"g1_mul_glv_ops_per_sec\": {:.3},\n  \"g1_mul_wnaf_ops_per_sec\": {:.3},\n  \
         \"glv_speedup_vs_wnaf\": {:.3},\n  \
         \"final_exponentiation_us\": {:.1},\n  \"g1_mul_ct_us\": {:.1},\n  \
         \"g2_mul_ct_us\": {:.1},\n  \"sign_us\": {:.1},\n  \
         \"gt_subgroup_check_us\": {:.1},\n  \"gt_cyclotomic_check_us\": {:.2},\n  \
         \"fp12_mul_us\": {:.2},\n  \
         \"cyclotomic_square_us\": {:.2},\n  \"designate_us\": {:.1},\n  \
         \"designation_table_ms\": {:.3},\n  \
         \"designated_verify_us\": [\n{}\n  ],\n  \
         \"batch_verify\": [\n{}\n  ]\n}}\n",
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
        cyclotomic_us,
        fp12_mul_us,
        cyclotomic_square_us,
        designate_us,
        designation_table_ms,
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
