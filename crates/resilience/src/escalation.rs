//! Adaptive challenge escalation along the paper's uncheatability bound.
//!
//! Section VII bounds a cheating server's escape probability at
//! `Pr[FCS] = base^t` for a `t`-sample challenge (eq. 10). Escalation
//! doubles `t` per suspicion step — `t' = min(2ˢ·t, n)` — which *squares*
//! the escape bound each step while capping at a full audit. Retrying at
//! the same `t` would let a lucky partial cheater keep re-rolling the same
//! dice; escalating makes every suspicious round strictly harder to
//! survive.
#![deny(clippy::arithmetic_side_effects)]

/// The escalated sample size after `steps` suspicion steps:
/// `min(base_t · 2^steps, n)`, never below 1 (for nonempty requests) and
/// never above the request size `n`.
pub fn escalate_sample_size(base_t: usize, n: usize, steps: u32) -> usize {
    if n == 0 {
        return 0;
    }
    let base = base_t.clamp(1, n);
    let factor = 1usize.checked_shl(steps.min(63)).unwrap_or(usize::MAX);
    base.saturating_mul(factor).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_core::analysis::sampling::{fcs_probability, CheatParams};

    #[test]
    fn doubles_per_step_and_caps_at_full_audit() {
        assert_eq!(escalate_sample_size(4, 100, 0), 4);
        assert_eq!(escalate_sample_size(4, 100, 1), 8);
        assert_eq!(escalate_sample_size(4, 100, 3), 32);
        assert_eq!(escalate_sample_size(4, 100, 5), 100, "capped at n");
        assert_eq!(escalate_sample_size(4, 100, 200), 100, "huge step count");
    }

    #[test]
    fn clamps_degenerate_inputs() {
        assert_eq!(escalate_sample_size(0, 10, 0), 1, "at least one sample");
        assert_eq!(escalate_sample_size(50, 10, 0), 10, "base above n");
        assert_eq!(escalate_sample_size(3, 0, 4), 0, "empty request");
    }

    #[test]
    fn overflow_and_exact_clamp_edges() {
        // t = 0 still escalates from the 1-sample floor.
        assert_eq!(escalate_sample_size(0, 7, 3), 7, "1·2³ = 8 clamps to n = 7");
        // 2^s·t landing exactly on n: the clamp is inclusive.
        assert_eq!(escalate_sample_size(2, 16, 3), 16);
        // 2^63·t overflows usize: saturating_mul pins to usize::MAX, min() to n.
        assert_eq!(escalate_sample_size(3, 1_000_000, 63), 1_000_000);
        // Shift counts at and past the word size are pinned, not UB.
        assert_eq!(escalate_sample_size(2, 500, 64), 500);
        assert_eq!(escalate_sample_size(1, usize::MAX, 63), 1usize << 63);
    }

    #[test]
    fn one_step_squares_the_fcs_escape_bound() {
        // Pr[FCS] = base^t, so t' = 2t gives base^(2t) = (base^t)².
        let params = CheatParams::new(0.5, 1.0);
        for t in [1usize, 2, 5, 8] {
            let t2 = escalate_sample_size(t, 1_000, 1);
            assert_eq!(t2, 2 * t);
            let p1 = fcs_probability(&params, t as u32);
            let p2 = fcs_probability(&params, t2 as u32);
            assert!((p2 - p1 * p1).abs() < 1e-12, "t={t}: {p2} vs {}", p1 * p1);
        }
    }

    #[test]
    fn escalation_never_weakens_the_bound() {
        let params = CheatParams::new(0.7, 1.0).with_range(100.0);
        let mut last = f64::INFINITY;
        for steps in 0..8 {
            let t = escalate_sample_size(2, 64, steps);
            let p = fcs_probability(&params, t as u32);
            assert!(p <= last + 1e-15, "step {steps} weakened the bound");
            last = p;
        }
        assert_eq!(escalate_sample_size(2, 64, 7), 64, "ends at full audit");
    }
}
