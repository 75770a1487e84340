//! **Theorem 3 / eq. 17–18** — the cost-optimal sampling size.
//!
//! Sweeps the total-cost model
//! `C_total = a₁·t·C_trans + a₂·C_comp + a₃·C_cheat·qᵗ`
//! over cheat-success probabilities `q` and cost regimes, printing the
//! closed-form optimum next to a brute-force scan (they must agree).
//!
//! ```text
//! cargo run -p seccloud-bench --release --bin optimal_t
//! ```
#![forbid(unsafe_code)]

use seccloud_core::analysis::costmodel::CostParams;
use seccloud_core::computation::{
    AuditChallenge, CommitmentSession, ComputationRequest, ComputeFunction, RequestItem,
};
use seccloud_core::storage::DataBlock;
use seccloud_core::wire::WireMessage;
use seccloud_core::Sio;

fn brute_force(params: &CostParams, q: f64, max_t: u32) -> u32 {
    (0..=max_t)
        .min_by(|&a, &b| {
            params
                .total_cost(a, q)
                .partial_cmp(&params.total_cost(b, q))
                .expect("finite costs")
        })
        .expect("nonempty range")
}

fn main() {
    println!("# Theorem 3 — optimal sampling size t* minimizing C_total\n");

    println!("## Sweep over q (C_trans = 1, C_comp = 5, C_cheat = 10⁶)\n");
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>14}",
        "q", "t* (closed)", "t* (brute)", "C(t*)", "C(t*+5)"
    );
    let params = CostParams::new(1.0, 5.0, 1e6);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let closed = params.optimal_sample_size(q).expect("well-posed");
        let brute = brute_force(&params, q, 5_000);
        assert_eq!(closed, brute, "closed form must match brute force");
        println!(
            "{q:>6.2} {closed:>10} {brute:>12} {:>14.1} {:>14.1}",
            params.total_cost(closed, q),
            params.total_cost(closed + 5, q)
        );
    }

    println!("\n## Sweep over C_cheat (q = 0.5, C_trans = 1)\n");
    println!("{:>12} {:>10} {:>14}", "C_cheat", "t*", "C(t*)");
    for c_cheat in [1e2, 1e4, 1e6, 1e8, 1e10] {
        let p = CostParams::new(1.0, 5.0, c_cheat);
        let t = p.optimal_sample_size(0.5).expect("well-posed");
        assert_eq!(t, brute_force(&p, 0.5, 5_000));
        println!("{c_cheat:>12.0} {t:>10} {:>14.1}", p.total_cost(t, 0.5));
    }

    println!("\n## Sweep over C_trans (q = 0.5, C_cheat = 10⁶)\n");
    println!("{:>12} {:>10}", "C_trans", "t*");
    for c_trans in [0.01, 0.1, 1.0, 10.0, 100.0, 1e7] {
        let p = CostParams::new(c_trans, 5.0, 1e6);
        let t = p.optimal_sample_size(0.5).expect("well-posed");
        assert_eq!(t, brute_force(&p, 0.5, 5_000));
        println!("{c_trans:>12.2} {t:>10}");
    }

    println!(
        "\nShape checks: t* grows logarithmically with C_cheat, shrinks with \
         C_trans, and hits 0 when sampling costs more than the cheat exposure \
         — exactly eq. 18's ⌈ln(a₁·C_trans/(a₃·C_cheat·(−ln q)))/ln q⌉."
    );

    // Ground the abstract C_trans in reality: the wire size of an actual
    // audit response as a function of the sampling size t.
    println!("\n## Measured transmission cost (wire bytes of the audit response)\n");
    let sio = Sio::new(b"optimal-t-comm");
    let user = sio.register("alice");
    let cs = sio.register_verifier("cs");
    let da = sio.register_verifier("da");
    let n = 256u64;
    let blocks: Vec<DataBlock> = (0..n)
        .map(|i| DataBlock::from_values(i, &[i, i + 1]))
        .collect();
    let stored = user.sign_blocks(&blocks, &[cs.public(), da.public()]);
    let request = ComputationRequest::new(
        (0..n)
            .map(|i| RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![i],
            })
            .collect(),
    );
    let (_, session) = CommitmentSession::commit(
        &request,
        |p| stored.get(p as usize),
        cs.signer(),
        da.public(),
    )
    .expect("all stored");
    println!(
        "{:>4} {:>14} {:>16}",
        "t", "response bytes", "bytes per sample"
    );
    let mut per_sample = Vec::new();
    for t in [1usize, 8, 15, 33, 64] {
        let challenge =
            AuditChallenge::from_indices((0..t).map(|i| i * (n as usize / t)).collect());
        let response = session.respond(&challenge).expect("in range");
        let size = response.to_wire().len();
        per_sample.push(size as f64 / t as f64);
        println!("{t:>4} {size:>14} {:>16.0}", size as f64 / t as f64);
    }
    // The marginal cost per sample should be roughly constant — the
    // assumption behind eq. 17's a₁·t·C_trans term.
    let (min, max) = per_sample
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    println!(
        "\nper-sample spread {:.0}–{:.0} bytes: near-linear in t, validating \
         the a₁·t·C_trans model.",
        min, max
    );
}
