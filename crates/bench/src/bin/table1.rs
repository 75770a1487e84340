//! **Table I** — cryptographic operations' execution time.
//!
//! Paper reference (MIRACL, Intel Core 2 Duo E6550, 2 GB RAM):
//! `T_pmul = 0.86 ms`, `T_pair = 4.14 ms`.
//!
//! Every price is the shared unit timer's (`Effort::unit_us`: the fastest
//! of 25 rounds of 4 calls), the estimator `fig5` and `bench_pairing` use
//! for the same quantities.
//!
//! Designation is priced two ways: the paper's transform `Σ = ê(V, Q_V)`,
//! a pairing against `Q_V`'s kept preparation (Table I prices it at
//! `T_pair`), and the signer's path `Σ = K_V^(r+h)`, a constant-time
//! power from the fixed-base table of `K_V = ê(sk_ID, Q_V)`.
//!
//! ```text
//! cargo run -p seccloud-bench --release --bin table1
//! ```
#![forbid(unsafe_code)]

use seccloud_bench::{fmt_ms, row, Effort};
use seccloud_ibs::{designate, sign, MasterKey};
use seccloud_pairing::{hash_to_g1, hash_to_g2, pairing, Fr, GtPowTable, G2};

fn main() {
    println!("# Table I — cryptographic operation execution time\n");
    println!("Paper (MIRACL, Core 2 Duo E6550): T_pmul = 0.86 ms, T_pair = 4.14 ms\n");

    let effort = Effort::default();
    let costs = effort.scheme_costs();
    let (t_pmul_g1, t_pair) = (costs.t_pmul_ms, costs.t_pair_ms);
    let g2 = G2::generator();
    let k = Fr::hash(b"bench-scalar");
    let gt = pairing(
        &hash_to_g1(b"bench-p").to_affine(),
        &hash_to_g2(b"bench-q").to_affine(),
    );
    let t_pmul_g2 = effort.unit_us(|| g2.mul_fr(&k)) / 1_000.0;
    let t_hash_g1 = effort.unit_us(|| hash_to_g1(b"hash-bench-input")) / 1_000.0;
    let t_hash_g2 = effort.unit_us(|| hash_to_g2(b"hash-bench-input")) / 1_000.0;
    let t_gt_exp = effort.unit_us(|| gt.pow(&k)) / 1_000.0;
    let sio = MasterKey::from_seed(b"table1-designation");
    let user = sio.extract_user("alice");
    let server = sio.extract_verifier("cs");
    let raw = sign(&user, b"block", b"n");
    let t_designate = effort.unit_us(|| designate(&raw, server.public())) / 1_000.0;
    let table = GtPowTable::new(&gt);
    let t_designate_table = effort.unit_us(|| table.pow_ct(&k)) / 1_000.0;

    println!(
        "{}",
        row(&[
            "operation".into(),
            "symbol".into(),
            "paper".into(),
            "measured".into()
        ])
    );
    println!(
        "{}",
        row(&["---".into(), "---".into(), "---".into(), "---".into()])
    );
    println!(
        "{}",
        row(&[
            "G1 point multiplication".into(),
            "T_pmul".into(),
            "0.86 ms".into(),
            fmt_ms(t_pmul_g1),
        ])
    );
    println!(
        "{}",
        row(&[
            "G2 point multiplication".into(),
            "—".into(),
            "n/a".into(),
            fmt_ms(t_pmul_g2),
        ])
    );
    println!(
        "{}",
        row(&[
            "pairing".into(),
            "T_pair".into(),
            "4.14 ms".into(),
            fmt_ms(t_pair),
        ])
    );
    println!(
        "{}",
        row(&[
            "hash-to-G1".into(),
            "H1".into(),
            "n/a".into(),
            fmt_ms(t_hash_g1)
        ])
    );
    println!(
        "{}",
        row(&[
            "hash-to-G2 (cofactored)".into(),
            "H1'".into(),
            "n/a".into(),
            fmt_ms(t_hash_g2)
        ])
    );
    println!(
        "{}",
        row(&[
            "GT exponentiation".into(),
            "—".into(),
            "n/a".into(),
            fmt_ms(t_gt_exp)
        ])
    );
    println!(
        "{}",
        row(&[
            "designation ê(V, Q_V), Q_V prepared".into(),
            "T_pair".into(),
            "4.14 ms".into(),
            fmt_ms(t_designate)
        ])
    );
    println!(
        "{}",
        row(&[
            "designation K_V^(r+h), fixed-base GT table".into(),
            "—".into(),
            "n/a".into(),
            fmt_ms(t_designate_table)
        ])
    );

    let ratio = t_pair / t_pmul_g1;
    println!(
        "\nShape check: T_pair / T_pmul = {ratio:.1}× (paper: {:.1}×) — the pairing \
         dominates, which is what drives the batch-verification savings.",
        4.14 / 0.86
    );
    println!("\nMachine-readable: T_PMUL_MS={t_pmul_g1:.4} T_PAIR_MS={t_pair:.4}");
}
