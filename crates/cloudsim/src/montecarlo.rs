//! Monte-Carlo validation of the uncheatability analysis
//! (paper eq. 10/12/14 and Fig. 4).
//!
//! The formulas model each of the `t` samples as independently landing on a
//! cheated item; this module replays the actual process — a server cheats on
//! a random subset of `n` sub-tasks, the DA samples `t` *without
//! replacement* — and estimates the empirical cheat-success probability.
//! Agreement with the closed forms (for `n ≫ t`) is what
//! `bin/detection_sim` reports.

use seccloud_core::analysis::sampling::CheatParams;
use seccloud_hash::HmacDrbg;

/// Configuration of one Monte-Carlo detection experiment.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Cheating profile (CSC, SSC, range, forgery probability).
    pub params: CheatParams,
    /// Number of sub-tasks per request `n`.
    pub n: usize,
    /// Sampling size `t`.
    pub t: usize,
    /// Number of simulated audit rounds.
    pub trials: usize,
}

/// The outcome of a Monte-Carlo run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentResult {
    /// Fraction of trials where the cheat went *undetected*
    /// (the empirical `Pr[Cheating Successful]`).
    pub escape_rate: f64,
    /// The analytic value from eq. 14 for comparison.
    pub analytic: f64,
    /// Number of trials run.
    pub trials: usize,
}

impl ExperimentResult {
    /// Absolute gap between simulation and the closed form.
    pub fn abs_error(&self) -> f64 {
        (self.escape_rate - self.analytic).abs()
    }

    /// A ~3σ binomial confidence half-width around the analytic value.
    pub fn three_sigma(&self) -> f64 {
        let p = self.analytic.clamp(1e-12, 1.0 - 1e-12);
        3.0 * (p * (1.0 - p) / self.trials as f64).sqrt()
    }
}

/// Runs the logical-level simulation: no cryptography, just the sampling
/// process, so hundreds of thousands of audits are cheap. Each trial:
///
/// 1. the server skips each sub-task w.p. `1 − CSC` (a skipped task's guess
///    is accidentally right w.p. `1/R`), and serves wrong-position data for
///    each sub-task w.p. `1 − SSC` (escaping w.p. `Pr[SigForge]`);
/// 2. the DA samples `t` of `n` items without replacement;
/// 3. the cheat escapes iff no sampled item exposes either channel.
pub fn run(experiment: &Experiment, seed: &[u8]) -> ExperimentResult {
    let Experiment {
        params,
        n,
        t,
        trials,
    } = *experiment;
    assert!(t <= n, "cannot sample more items than exist");
    let mut drbg = HmacDrbg::new(seed);
    let mut escapes = 0usize;
    for _ in 0..trials {
        if trial_escapes(&params, n, t, &mut drbg) {
            escapes = escapes.saturating_add(1);
        }
    }
    finish(params, t, trials, escapes)
}

/// One simulated audit round: samples `t` of `n` items and rolls the cheat
/// dice lazily per sampled item (equivalent to rolling all `n` up front
/// because the per-item events are independent). Returns `true` iff the
/// cheat goes undetected.
fn trial_escapes(params: &CheatParams, n: usize, t: usize, drbg: &mut HmacDrbg) -> bool {
    let sample = drbg.sample_distinct(n as u64, t as u64);
    for _idx in sample {
        // FCS channel: item was skipped AND the guess missed.
        let skipped = drbg.next_f64() >= params.csc;
        if skipped {
            let guessed_right = match params.range {
                Some(r) => drbg.next_f64() < 1.0 / r,
                None => false,
            };
            if !guessed_right {
                return false;
            }
        }
        // PCS channel: wrong-position data AND no signature forgery.
        let wrong_pos = drbg.next_f64() >= params.ssc;
        if wrong_pos && drbg.next_f64() >= params.sig_forge {
            return false;
        }
    }
    true
}

fn finish(params: CheatParams, t: usize, trials: usize, escapes: usize) -> ExperimentResult {
    // Analytic escape probability: per-sample escape is the product of the
    // two per-channel escape probabilities (both channels must survive).
    let per_sample = params.fcs_base() * params.pcs_base();
    let analytic = per_sample.powi(t as i32);
    ExperimentResult {
        escape_rate: escapes as f64 / trials as f64,
        analytic,
        trials,
    }
}

/// Sweeps `t` and reports `(t, empirical escape, analytic escape)` —
/// the data series behind the detection-probability plot.
pub fn sweep_t(
    params: CheatParams,
    n: usize,
    t_values: &[usize],
    trials: usize,
    seed: &[u8],
) -> Vec<(usize, f64, f64)> {
    t_values
        .iter()
        .map(|&t| {
            let r = run(
                &Experiment {
                    params,
                    n,
                    t,
                    trials,
                },
                &[seed, &t.to_be_bytes()].concat(),
            );
            (t, r.escape_rate, r.analytic)
        })
        .collect()
}

/// Runs `trials` *full-cryptography* audit rounds — real signatures, real
/// Merkle commitments, real pairings — against a computation-cheating
/// server, and returns the empirical escape rate. Much slower than [`run`];
/// used to validate that the logical simulator models the actual protocol.
pub fn run_crypto(csc: f64, guess_range: Option<u64>, n: usize, t: usize, trials: usize) -> f64 {
    use crate::agency::DesignatedAgency;
    use crate::behavior::Behavior;
    use crate::server::CloudServer;
    use seccloud_core::computation::{ComputationRequest, ComputeFunction, RequestItem};
    use seccloud_core::storage::DataBlock;
    use seccloud_core::Sio;

    let sio = Sio::new(b"crypto-montecarlo");
    let user = sio.register("mc-user");
    let mut da = DesignatedAgency::new(&sio, "mc-da", b"mc-agency");
    let mut server = CloudServer::new(
        &sio,
        "mc-cs",
        Behavior::ComputationCheater { csc, guess_range },
        b"mc-server",
    );
    let blocks: Vec<DataBlock> = (0..n as u64)
        .map(|i| DataBlock::from_values(i, &[i, i + 1]))
        .collect();
    server.store(
        &user,
        user.sign_blocks(&blocks, &[server.public(), da.public()]),
    );
    let request = ComputationRequest::new(
        (0..n as u64)
            .map(|i| RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![i],
            })
            .collect(),
    );

    let mut escapes = 0usize;
    for trial in 0..trials {
        // A fresh commitment per trial re-rolls the server's cheat dice.
        let handle = server
            .handle_computation(&user.identity().to_string(), &request, da.public())
            // lint: allow(panic, reason=simulator invariant, blocks were stored two lines above)
            .expect("blocks stored");
        let verdict = da
            .audit(&server, &handle, &user, t, trial as u64)
            // lint: allow(panic, reason=simulator invariant, warrant was issued for this request)
            .expect("warranted audit");
        if !verdict.detected {
            escapes = escapes.saturating_add(1);
        }
    }
    escapes as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_server_always_escapes() {
        let r = run(
            &Experiment {
                params: CheatParams::new(1.0, 1.0),
                n: 50,
                t: 10,
                trials: 500,
            },
            b"honest",
        );
        assert_eq!(r.escape_rate, 1.0);
        assert_eq!(r.analytic, 1.0);
    }

    #[test]
    fn full_cheater_with_unbounded_range_never_escapes() {
        let r = run(
            &Experiment {
                params: CheatParams::new(0.0, 1.0),
                n: 50,
                t: 1,
                trials: 500,
            },
            b"cheater",
        );
        assert_eq!(r.escape_rate, 0.0);
        assert_eq!(r.analytic, 0.0);
    }

    #[test]
    fn simulation_matches_analytic_within_three_sigma() {
        for (csc, ssc, range, t) in [
            (0.5, 1.0, Some(2.0), 5),
            (0.8, 0.9, None, 8),
            (0.9, 0.5, Some(4.0), 6),
            (0.95, 0.95, Some(2.0), 20),
        ] {
            let mut params = CheatParams::new(csc, ssc);
            if let Some(r) = range {
                params = params.with_range(r);
            }
            let result = run(
                &Experiment {
                    params,
                    n: 400,
                    t,
                    trials: 4_000,
                },
                b"match-test",
            );
            assert!(
                result.abs_error() <= result.three_sigma().max(0.02),
                "csc={csc} ssc={ssc} t={t}: sim {} vs analytic {}",
                result.escape_rate,
                result.analytic
            );
        }
    }

    #[test]
    fn escape_rate_decreases_with_t() {
        let series = sweep_t(
            CheatParams::new(0.7, 0.9).with_range(2.0),
            200,
            &[1, 5, 10, 20, 40],
            2_000,
            b"sweep",
        );
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 0.03, "roughly monotone: {series:?}");
            assert!(w[1].2 < w[0].2, "analytic strictly decreasing");
        }
    }

    #[test]
    fn forgery_channel_raises_escape() {
        let base = run(
            &Experiment {
                params: CheatParams::new(1.0, 0.5),
                n: 100,
                t: 3,
                trials: 3_000,
            },
            b"forge-base",
        );
        let forging = run(
            &Experiment {
                params: CheatParams::new(1.0, 0.5).with_sig_forge(0.9),
                n: 100,
                t: 3,
                trials: 3_000,
            },
            b"forge-on",
        );
        assert!(forging.escape_rate > base.escape_rate);
    }

    #[test]
    fn crypto_pipeline_matches_logical_simulator() {
        // The real-pairing audit and the logical model must see (nearly)
        // the same escape statistics. Kept small: each crypto trial costs
        // t+1 pairings.
        let (csc, n, t, trials) = (0.5, 24usize, 4usize, 30usize);
        let crypto_rate = run_crypto(csc, None, n, t, trials);
        let logical = run(
            &Experiment {
                params: CheatParams::new(csc, 1.0),
                n,
                t,
                trials: 5_000,
            },
            b"cross-validate",
        );
        // Analytic escape = 0.5⁴ = 0.0625; allow generous binomial noise on
        // the 30-trial crypto estimate (3σ ≈ 0.14).
        assert!(
            (crypto_rate - logical.analytic).abs() < 0.2,
            "crypto {crypto_rate} vs analytic {}",
            logical.analytic
        );
        assert!(logical.abs_error() < 0.02);
    }

    #[test]
    fn crypto_pipeline_extremes() {
        // CSC = 1 (honest): never detected. CSC = 0, R = ∞: always caught.
        assert_eq!(run_crypto(1.0, None, 8, 4, 5), 1.0);
        assert_eq!(run_crypto(0.0, None, 8, 4, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let _ = run(
            &Experiment {
                params: CheatParams::new(0.5, 0.5),
                n: 5,
                t: 6,
                trials: 1,
            },
            b"x",
        );
    }
}
