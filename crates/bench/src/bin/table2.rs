//! **Table II** — comparison of signature schemes: individual vs batch
//! verification for a batch of size `n`.
//!
//! Paper rows:
//!
//! | scheme | individual | batch |
//! |---|---|---|
//! | RSA    | `n·T_RSA`   | n/a |
//! | ECDSA  | `n·T_ECDSA` | n/a |
//! | BGLS   | `2n·T_pair` | `(n+1)·T_pair` |
//! | ours   | `2n·T_pair` | `2·T_pair` |
//!
//! All four schemes are implemented in this workspace, so every cell is
//! measured, not quoted, each with the shared timer: the fastest of 5
//! rounds.
//!
//! ```text
//! cargo run -p seccloud-bench --release --bin table2
//! ```
#![forbid(unsafe_code)]

use seccloud_baselines::bgls::{aggregate, verify_aggregate, BlsKeyPair, BlsPublicKey};
use seccloud_baselines::ecdsa::EcdsaKeyPair;
use seccloud_baselines::rsa::RsaKeyPair;
use seccloud_bench::{fmt_ms, row, Effort};

const N: usize = 20;

fn main() {
    println!("# Table II — signature scheme verification costs (batch size n = {N})\n");
    let effort = Effort::default();

    // RSA (1024-bit modulus).
    let rsa = RsaKeyPair::generate(512, b"table2-rsa");
    let rsa_msgs: Vec<Vec<u8>> = (0..N).map(|i| format!("m{i}").into_bytes()).collect();
    let rsa_sigs: Vec<_> = rsa_msgs.iter().map(|m| rsa.sign(m)).collect();
    let rsa_ms = effort.slow_ms(|| {
        rsa_msgs
            .iter()
            .zip(&rsa_sigs)
            .all(|(m, s)| rsa.public().verify(m, s))
    });

    // ECDSA over BN254-G1.
    let ecdsa = EcdsaKeyPair::generate(b"table2-ecdsa");
    let ec_sigs: Vec<_> = rsa_msgs.iter().map(|m| ecdsa.sign(m)).collect();
    let ecdsa_ms = effort.slow_ms(|| {
        rsa_msgs
            .iter()
            .zip(&ec_sigs)
            .all(|(m, s)| ecdsa.public().verify(m, s))
    });

    // BGLS.
    let bls_keys: Vec<BlsKeyPair> = (0..N)
        .map(|i| BlsKeyPair::generate(format!("table2-bls-{i}").as_bytes()))
        .collect();
    let bls_sigs: Vec<_> = bls_keys
        .iter()
        .zip(&rsa_msgs)
        .map(|(k, m)| k.sign(m))
        .collect();
    let bgls_individual_ms = effort.slow_ms(|| {
        bls_keys
            .iter()
            .zip(&rsa_msgs)
            .zip(&bls_sigs)
            .all(|((k, m), s)| k.public().verify(m, s))
    });
    let agg = aggregate(&bls_sigs);
    let pairs: Vec<(&BlsPublicKey, &[u8])> = bls_keys
        .iter()
        .zip(&rsa_msgs)
        .map(|(k, m)| (k.public(), m.as_slice()))
        .collect();
    let bgls_batch_ms = effort.slow_ms(|| verify_aggregate(&pairs, &agg));

    // Ours (designated-verifier batch), from the shared batch timer.
    let ours = effort.time_batch(b"table2-ours", N, 4);
    let (ours_individual_ms, ours_batch_ms) = (ours.singles_ms, ours.batch_ms);

    println!(
        "{}",
        row(&[
            "scheme".into(),
            "individual formula".into(),
            "individual measured".into(),
            "batch formula".into(),
            "batch measured".into(),
        ])
    );
    println!(
        "{}",
        row(&[
            "---".into(),
            "---".into(),
            "---".into(),
            "---".into(),
            "---".into()
        ])
    );
    println!(
        "{}",
        row(&[
            "RSA-1024".into(),
            "n·T_RSA".into(),
            fmt_ms(rsa_ms),
            "n/a".into(),
            "—".into(),
        ])
    );
    println!(
        "{}",
        row(&[
            "ECDSA (BN254-G1)".into(),
            "n·T_ECDSA".into(),
            fmt_ms(ecdsa_ms),
            "n/a".into(),
            "—".into(),
        ])
    );
    println!(
        "{}",
        row(&[
            "BGLS".into(),
            "2n·T_pair".into(),
            fmt_ms(bgls_individual_ms),
            "(n+1)·T_pair".into(),
            fmt_ms(bgls_batch_ms),
        ])
    );
    println!(
        "{}",
        row(&[
            "SecCloud (ours)".into(),
            "2n·T_pair".into(),
            fmt_ms(ours_individual_ms),
            "2·T_pair".into(),
            fmt_ms(ours_batch_ms),
        ])
    );

    println!("\n## Shape checks\n");
    println!(
        "- ours batch / ours individual  = {:.2} (expect ≈ 1/n = {:.2})",
        ours_batch_ms / ours_individual_ms,
        1.0 / N as f64
    );
    println!(
        "- bgls batch / bgls individual  = {:.2} (expect ≈ (n+1)/2n = {:.2})",
        bgls_batch_ms / bgls_individual_ms,
        (N as f64 + 1.0) / (2.0 * N as f64)
    );
    println!(
        "- ours batch / bgls batch       = {:.2} (expect ≈ 2/(n+1) = {:.2})",
        ours_batch_ms / bgls_batch_ms,
        2.0 / (N as f64 + 1.0)
    );
}
