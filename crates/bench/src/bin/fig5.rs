//! **Figure 5** — comparison of verification cost vs number of cloud users.
//!
//! The paper plots verification time for 1–50 users: its scheme uses a
//! *constant* number of pairings (batch verification, Section VI) while the
//! Wang et al. \[4\], \[5\]-style auditors pay pairings *linear* in the user
//! count. We (a) rebuild the analytic curves from our measured Table-I
//! costs (the shared unit timer's `T_pmul` and `T_pair`, as `table1`
//! prints them) and (b) *actually run* batch vs individual verification at
//! several user counts, with the shared batch timer, to confirm the model.
//!
//! ```text
//! cargo run -p seccloud-bench --release --bin fig5
//! ```
#![forbid(unsafe_code)]

use seccloud_bench::{fmt_ms, Effort};
use seccloud_core::analysis::costmodel::VerificationCostModel;

fn main() {
    println!("# Figure 5 — verification cost vs number of cloud users\n");

    let effort = Effort::default();
    let costs = effort.scheme_costs();
    println!(
        "Measured primitives: T_pmul = {}, T_pair = {}\n",
        fmt_ms(costs.t_pmul_ms),
        fmt_ms(costs.t_pair_ms)
    );

    // (a) Analytic curves, as in the paper's Matlab plot.
    let model = VerificationCostModel::new(costs);
    println!("## Analytic series (ms), k = 1..50\n");
    println!(
        "{:>4} {:>12} {:>12} {:>12}",
        "k", "ours", "wang[4,5]", "bgls"
    );
    for (k, ours, wang) in model.fig5_series(50) {
        if k % 5 == 0 || k == 1 {
            println!(
                "{k:>4} {ours:>12.2} {wang:>12.2} {:>12.2}",
                model.bgls_ms(k)
            );
        }
    }

    // (b) Ground truth: run the real batch verifier at several sizes.
    println!("\n## Measured end-to-end verification (one signature per user)\n");
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "users", "individual", "batch", "speedup"
    );
    for &k in &[1usize, 5, 10, 20, 50] {
        let timing = effort.time_batch(b"fig5", k, k);
        println!(
            "{k:>6} {:>14} {:>14} {:>7.1}x",
            fmt_ms(timing.singles_ms),
            fmt_ms(timing.batch_ms),
            timing.speedup()
        );
    }

    println!(
        "\nShape check: ours stays near-constant in pairings while the linear \
         schemes grow ~2·T_pair per user — the crossover is at k = 1–2, as in \
         the paper's figure."
    );
}
