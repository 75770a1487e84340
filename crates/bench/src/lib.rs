//! Shared measurement helpers for the SecCloud experiment harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation (Section VII). Each quantity is timed once, with one
//! estimator, the fastest of several short rounds of [`measure_ms`]:
//! [`Effort::unit_us`] for unit prices, [`Effort::slow_ms`] for whole
//! operations, and [`Effort::time_batch`] for batch against individual
//! designated verification. See `DESIGN.md` for the experiment index
//! and `EXPERIMENTS.md` for recorded results.
#![forbid(unsafe_code)]

use std::time::Instant;

use seccloud_core::analysis::costmodel::SchemeCosts;
use seccloud_ibs::{
    designate, sign, verify_individually, BatchItem, BatchVerifier, MasterKey, VerifierKey,
};
use seccloud_pairing::{hash_to_g1, hash_to_g2, pairing, Fr, G1};

/// Measures the mean wall-clock milliseconds of `f` over `iters` calls
/// after `warmup` unmeasured calls.
///
/// The one inner loop of the harness: [`Effort::unit_us`] keeps the
/// fastest of many short runs of it. End-to-end timings with run-to-run
/// spread come from the `benchmark/` package.
pub fn measure_ms<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters > 0, "need at least one measured iteration");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1_000.0 / iters as f64
}

/// Microseconds per call of `f`: the fastest of `rounds` runs of
/// [`measure_ms`] with one warm-up call and `calls` timed ones. Many short
/// rounds let at least one miss the bursts of a shared host.
fn fastest_us<T>(rounds: usize, calls: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..rounds)
        .map(|_| measure_ms(1, calls, &mut f) * 1_000.0)
        .fold(f64::INFINITY, f64::min)
}

/// How long each measurement runs: the full run, or one call per timing
/// (`--smoke`, which only checks that every figure is still produced).
#[derive(Clone, Copy, Debug, Default)]
pub struct Effort {
    /// Time every quantity with a single call.
    pub smoke: bool,
}

/// Signatures verified per timed round of [`Effort::time_batch`].
const BATCH_ROUND_SIGNATURES: usize = 64;

impl Effort {
    /// `full`, or 1 under `--smoke`.
    fn n(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// The unit timer: microseconds per call of `f`, the fastest of 25
    /// rounds of 4 calls each.
    pub fn unit_us<T>(&self, f: impl FnMut() -> T) -> f64 {
        fastest_us(self.n(25), self.n(4), f)
    }

    /// Milliseconds per call of `f`: the unit timer's estimator sized for
    /// operations too slow for its 100 calls — the fastest of 5 rounds of
    /// one call each, as many rounds as the batch timer takes per side.
    pub fn slow_ms<T>(&self, f: impl FnMut() -> T) -> f64 {
        fastest_us(self.n(5), 1, f) / 1_000.0
    }

    /// The batch timer: `n` signatures from `users` users
    /// (`designated_items`) checked by one [`BatchVerifier`] and by
    /// [`verify_individually`], each side the fastest of 5 rounds of
    /// about 64 signatures. Panics unless both accept.
    pub fn time_batch(&self, seed: &[u8], n: usize, users: usize) -> BatchTiming {
        let items = designated_items(seed, n, users);
        self.time_items(&server_key(seed), &items)
    }

    /// [`time_batch`](Self::time_batch) over given items, with enough
    /// verifications per round to check about 64 signatures. The two sides
    /// alternate round by round, so that both sample the same phases of a
    /// shared host.
    fn time_items(&self, server: &VerifierKey, items: &[BatchItem]) -> BatchTiming {
        let calls = self.n((BATCH_ROUND_SIGNATURES / items.len().max(1)).max(1));
        let mut batch = || {
            let mut batch = BatchVerifier::new();
            for item in items {
                batch.push_item(item);
            }
            assert!(batch.verify(server), "the batch rejected the items");
        };
        let mut singles = || {
            assert!(
                verify_individually(items, server).is_none(),
                "an item failed verification"
            );
        };
        let mut timing = BatchTiming {
            batch_ms: f64::INFINITY,
            singles_ms: f64::INFINITY,
        };
        for _ in 0..self.n(5) {
            timing.batch_ms = timing.batch_ms.min(measure_ms(1, calls, &mut batch));
            timing.singles_ms = timing.singles_ms.min(measure_ms(1, calls, &mut singles));
        }
        timing
    }

    /// The paper's two Table I prices, `T_pmul` (a `G1` multiplication by
    /// a full scalar) and `T_pair` (a cold pairing: preparing its `G2`
    /// argument, then one replay), from the unit timer.
    pub fn scheme_costs(&self) -> SchemeCosts {
        let g1 = G1::generator();
        let k = Fr::hash(b"bench-scalar");
        let p = hash_to_g1(b"bench-p").to_affine();
        let q = hash_to_g2(b"bench-q").to_affine();
        SchemeCosts {
            t_pmul_ms: self.unit_us(|| g1.mul_fr(&k)) / 1_000.0,
            t_pair_ms: self.unit_us(|| pairing(&p, &q)) / 1_000.0,
        }
    }
}

/// Milliseconds per verification of one batch, both ways.
#[derive(Clone, Copy, Debug)]
pub struct BatchTiming {
    /// One [`BatchVerifier`] over every item.
    pub batch_ms: f64,
    /// One designated verification per item.
    pub singles_ms: f64,
}

impl BatchTiming {
    /// How many times faster the batch is than the individual checks.
    pub fn speedup(&self) -> f64 {
        self.singles_ms / self.batch_ms
    }
}

/// The verifier key of the server `cs` under the SIO master key derived
/// from `seed`: the key [`designated_items`] designates to.
fn server_key(seed: &[u8]) -> VerifierKey {
    MasterKey::from_seed(seed).extract_verifier("cs")
}

/// `n` designated signatures for [`server_key`]`(seed)`: message
/// `block-{i}` signed by `user-{i mod users}` under the SIO master key
/// derived from `seed`. The key is not returned with the items, so that
/// the item count stays public to `seccloud-lint`'s `taint` rule.
fn designated_items(seed: &[u8], n: usize, users: usize) -> Vec<BatchItem> {
    assert!(users > 0, "need at least one user");
    let sio = MasterKey::from_seed(seed);
    let server = server_key(seed);
    let signers: Vec<_> = (0..users)
        .map(|u| sio.extract_user(&format!("user-{u}")))
        .collect();
    (0..n)
        .map(|i| {
            let user = &signers[i % users];
            let message = format!("block-{i}").into_bytes();
            let signature = designate(&sign(user, &message, b"n"), server.public());
            BatchItem {
                signer: user.public().clone(),
                message,
                signature,
            }
        })
        .collect()
}

/// Formats a milliseconds value with adaptive precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0} ms")
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} µs", ms * 1_000.0)
    }
}

/// Formats a Markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn measure_returns_positive_time() {
        let ms = measure_ms(1, 5, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(ms > 0.0);
        assert!(ms < 1_000.0, "a 1k-iteration loop is not a second");
    }

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(250.0), "250 ms");
        assert_eq!(fmt_ms(4.14), "4.14 ms");
        assert_eq!(fmt_ms(0.5), "500.0 µs");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_iters_panics() {
        let _ = measure_ms(0, 0, || 1);
    }

    #[test]
    fn unit_timer_is_no_slower_than_any_round_it_timed() {
        // Each call records when it starts and ends and sleeps a length
        // that varies from round to round. A round of 1 warm-up and 4
        // timed calls starts timing after its warm-up call ends and stops
        // before the next round's warm-up call starts, which bounds every
        // round's per-call time from above.
        const CALLS_PER_ROUND: usize = 5;
        let mut calls: Vec<(Instant, Instant)> = Vec::new();
        let us = Effort::default().unit_us(|| {
            let start = Instant::now();
            let round = calls.len() / CALLS_PER_ROUND;
            std::thread::sleep(Duration::from_micros(50 * (round % 3) as u64));
            calls.push((start, Instant::now()));
        });
        let done = Instant::now();
        assert_eq!(calls.len(), 25 * CALLS_PER_ROUND);
        let warmups: Vec<_> = calls.iter().step_by(CALLS_PER_ROUND).collect();
        for (r, (_, warmup_end)) in warmups.iter().enumerate() {
            let next = warmups.get(r + 1).map_or(done, |(start, _)| *start);
            let bound_us = (next - *warmup_end).as_secs_f64() * 1e6 / 4.0;
            assert!(us <= bound_us + 1e-6, "round {r}: {us} µs > {bound_us} µs");
        }
        let fastest_call_us = calls
            .iter()
            .map(|(start, end)| (*end - *start).as_secs_f64() * 1e6)
            .fold(f64::INFINITY, f64::min);
        assert!(
            us >= fastest_call_us,
            "{us} µs < fastest call {fastest_call_us} µs"
        );
    }

    #[test]
    fn designated_items_pass_singly_and_in_a_batch() {
        let server = server_key(b"bench-lib-test");
        let items = designated_items(b"bench-lib-test", 5, 2);
        assert_eq!(items.len(), 5);
        assert_eq!(
            items[0].signer, items[2].signer,
            "user-0 signs items 0, 2, 4"
        );
        assert_ne!(items[0].signer, items[1].signer);
        assert_eq!(verify_individually(&items, &server), None);
        let timing = Effort { smoke: true }.time_items(&server, &items);
        assert!(timing.batch_ms > 0.0 && timing.singles_ms > 0.0);
    }

    #[test]
    #[should_panic(expected = "the batch rejected the items")]
    fn an_altered_message_fails_the_batch() {
        let server = server_key(b"bench-lib-test");
        let mut items = designated_items(b"bench-lib-test", 4, 4);
        items[2].message.push(b'!');
        assert_eq!(verify_individually(&items, &server), Some(2));
        Effort { smoke: true }.time_items(&server, &items);
    }
}
