//! Retry policy: attempt counts, exponential backoff and time budgets.
#![deny(clippy::arithmetic_side_effects)]

use seccloud_hash::HmacDrbg;

/// Backoff before retry `k` starts at `BASE_BACKOFF_MS · 2^(k-1)`.
const BASE_BACKOFF_MS: u64 = 10;
/// Ceiling on the exponential backoff.
const MAX_BACKOFF_MS: u64 = 2_000;
/// Upper bound of the DRBG jitter added to every backoff (decorrelates
/// retry storms across endpoints while staying replayable).
const JITTER_MS: u64 = 5;
/// Total virtual-time budget for one audit, backoffs included.
pub(crate) const TOTAL_BUDGET_MS: u64 = 60_000;

/// Governs how hard the resilience layer fights for one audit.
///
/// Two nested loops consume it: the transport retries *one RPC* up to
/// [`max_attempts`](RetryPolicy::max_attempts) times (tier 1, structural
/// damage), and the audit driver re-runs *whole challenge rounds* up to
/// [`max_rounds`](RetryPolicy::max_rounds) times (tier 2, semantic damage),
/// all under one fixed budget of virtual time. Backoff, jitter and the
/// budget are fixed; only the two loop bounds are settings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per RPC call (including the first).
    pub max_attempts: u32,
    /// Challenge rounds per audit (including the first).
    pub max_rounds: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            max_rounds: 4,
        }
    }
}

/// The backoff charged before retry attempt `attempt` (1-based: the wait
/// after the first failure is `backoff_ms(1, …)`), exponential with a cap
/// plus DRBG jitter.
pub(crate) fn backoff_ms(attempt: u32, drbg: &mut HmacDrbg) -> u64 {
    let exp = attempt.saturating_sub(1).min(32);
    let raw = BASE_BACKOFF_MS
        .saturating_mul(1u64.checked_shl(exp).unwrap_or(u64::MAX))
        .min(MAX_BACKOFF_MS);
    raw.saturating_add(drbg.next_below(JITTER_MS.saturating_add(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_until_the_cap() {
        let mut drbg = HmacDrbg::new(b"bk");
        for (attempt, raw) in [(1, 10), (2, 20), (3, 40), (9, 2_000), (64, 2_000)] {
            let wait = backoff_ms(attempt, &mut drbg);
            assert!(
                (raw..=raw + JITTER_MS).contains(&wait),
                "attempt {attempt}: {wait}"
            );
        }
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let draw = |seed: &[u8]| {
            let mut drbg = HmacDrbg::new(seed);
            (1..30)
                .map(|a| backoff_ms(a, &mut drbg))
                .collect::<Vec<_>>()
        };
        let a = draw(b"j1");
        for (i, &b) in a.iter().enumerate() {
            let base = BASE_BACKOFF_MS
                .saturating_mul(1 << (i as u32).min(32))
                .min(MAX_BACKOFF_MS);
            assert!((base..=base + JITTER_MS).contains(&b), "attempt {i}: {b}");
        }
        assert_eq!(a, draw(b"j1"));
        assert_ne!(a, draw(b"j2"), "different seeds draw different jitter");
    }
}
