//! Uncheatability analysis (paper Section VII-A, eq. 10–15, Fig. 4).
#![deny(clippy::arithmetic_side_effects)]

/// Parameters of a (potentially) cheating cloud server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheatParams {
    /// Computing Secure Confidence: fraction of sub-tasks computed honestly
    /// (`CSC = |F'|/|F|`).
    pub csc: f64,
    /// Storage Secure Confidence: fraction of data served from the correct
    /// positions (`SSC = |X'|/|X|`).
    pub ssc: f64,
    /// Size of the function range `R` (`None` ⇒ `R → ∞`, i.e. guessing a
    /// result never succeeds).
    pub range: Option<f64>,
    /// Probability of forging a block signature (`Pr[SigForge]`,
    /// cryptographically negligible; exposed for the analysis plots).
    pub sig_forge: f64,
}

impl CheatParams {
    /// A cheater with the given confidences, unguessable function range and
    /// negligible forgery probability.
    pub fn new(csc: f64, ssc: f64) -> Self {
        Self {
            csc,
            ssc,
            range: None,
            sig_forge: 0.0,
        }
    }

    /// Sets a finite function range `R` (the guessing channel of eq. 10).
    #[must_use]
    pub fn with_range(mut self, r: f64) -> Self {
        self.range = Some(r);
        self
    }

    /// Sets a non-negligible forgery probability (analysis only).
    #[must_use]
    pub fn with_sig_forge(mut self, p: f64) -> Self {
        self.sig_forge = p;
        self
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.csc) && (0.0..=1.0).contains(&self.ssc),
            "confidences must lie in [0, 1]"
        );
        assert!((0.0..=1.0).contains(&self.sig_forge), "probability range");
        if let Some(r) = self.range {
            assert!(r >= 1.0, "function range must be ≥ 1");
        }
    }

    /// The per-sample survival probability of the FCS event,
    /// `CSC + (1−CSC)/R`.
    pub fn fcs_base(&self) -> f64 {
        self.validate();
        let guess = self.range.map_or(0.0, |r| 1.0 / r);
        self.csc + (1.0 - self.csc) * guess
    }

    /// The per-sample survival probability of the PCS event,
    /// `SSC + (1−SSC)·Pr[SigForge]`.
    pub fn pcs_base(&self) -> f64 {
        self.validate();
        self.ssc + (1.0 - self.ssc) * self.sig_forge
    }
}

/// `Pr[FCS]` — the server guesses its way past `t` result checks
/// (paper eq. 10).
pub fn fcs_probability(params: &CheatParams, t: u32) -> f64 {
    params.fcs_base().powi(t as i32)
}

/// `Pr[PCS]` — the server survives `t` position checks with wrong-position
/// data (paper eq. 12).
pub fn pcs_probability(params: &CheatParams, t: u32) -> f64 {
    params.pcs_base().powi(t as i32)
}

/// `Pr[Cheating Successful] = Pr[FCS ∪ PCS] ≤ Pr[FCS] + Pr[PCS]`
/// (paper eq. 14, union bound with independence assumption), clamped to 1.
pub fn cheat_probability(params: &CheatParams, t: u32) -> f64 {
    (fcs_probability(params, t) + pcs_probability(params, t)).min(1.0)
}

/// The smallest sampling size `t` with
/// `Pr[Cheating Successful] < ε` — the quantity plotted in Fig. 4.
///
/// Returns `None` when no finite `t` achieves it (a fully honest-looking
/// server, `CSC = SSC = 1`, can always "cheat successfully" in the formal
/// sense because there is nothing to detect; likewise `ε ≤ 0`).
pub fn required_sample_size(params: &CheatParams, epsilon: f64) -> Option<u32> {
    if epsilon <= 0.0 {
        return None;
    }
    if epsilon > 2.0 {
        return Some(0);
    }
    let a = params.fcs_base();
    let b = params.pcs_base();
    let worst = a.max(b);
    if worst >= 1.0 {
        // Probability never decays below 1.
        return None;
    }
    if worst <= 0.0 {
        return Some(1);
    }
    // Sufficient bound: 2·worstᵗ < ε  ⇒  t > ln(ε/2)/ln(worst). Then walk
    // down to the exact minimum (the bound overshoots by ≤ a few samples).
    let mut t = ((epsilon / 2.0).ln() / worst.ln()).ceil().max(1.0) as u32;
    while t > 1 && cheat_probability(params, t.saturating_sub(1)) < epsilon {
        t = t.saturating_sub(1);
    }
    while cheat_probability(params, t) >= epsilon {
        t = t.saturating_add(1);
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-4;

    #[test]
    fn paper_anchor_r2_half_half_needs_33_samples() {
        // Paper: "half CSC and half SSC of the task, the range of the domain
        // is R = 2, we need at least 33 samples … below ε = 0.0001".
        let p = CheatParams::new(0.5, 0.5).with_range(2.0);
        assert_eq!(required_sample_size(&p, EPS), Some(33));
    }

    #[test]
    fn paper_anchor_unbounded_range_needs_15_samples() {
        // Paper: "When R is large enough … we only need 15 samples."
        let p = CheatParams::new(0.5, 0.5);
        assert_eq!(required_sample_size(&p, EPS), Some(15));
    }

    #[test]
    fn minimality_of_the_returned_t() {
        for (csc, ssc, r) in [
            (0.5, 0.5, Some(2.0)),
            (0.9, 0.3, None),
            (0.0, 0.0, Some(10.0)),
            (0.7, 0.95, Some(2.0)),
        ] {
            let mut p = CheatParams::new(csc, ssc);
            if let Some(r) = r {
                p = p.with_range(r);
            }
            let t = required_sample_size(&p, EPS).unwrap();
            assert!(cheat_probability(&p, t) < EPS);
            if t > 0 {
                assert!(cheat_probability(&p, t - 1) >= EPS, "t not minimal");
            }
        }
    }

    #[test]
    fn probability_is_monotone_in_t_and_confidences() {
        let p = CheatParams::new(0.6, 0.4).with_range(4.0);
        let probs: Vec<f64> = (1..40).map(|t| cheat_probability(&p, t)).collect();
        assert!(probs.windows(2).all(|w| w[1] <= w[0]), "decreasing in t");

        // Higher confidence (more honest work) ⇒ easier to cheat on the
        // remainder ⇒ probability increases.
        let low = cheat_probability(&CheatParams::new(0.2, 0.2), 10);
        let high = cheat_probability(&CheatParams::new(0.8, 0.8), 10);
        assert!(high > low);
    }

    #[test]
    fn degenerate_cases() {
        // Fully honest server: no finite t "catches" it.
        assert_eq!(required_sample_size(&CheatParams::new(1.0, 1.0), EPS), None);
        // CSC = 1 alone is already undetectable via FCS.
        assert_eq!(required_sample_size(&CheatParams::new(1.0, 0.0), EPS), None);
        // Fully dishonest with unguessable range: one sample catches both
        // channels with probability 1, but the definition needs the sum
        // under ε, which a single sample achieves (0 + 0 < ε).
        assert_eq!(
            required_sample_size(&CheatParams::new(0.0, 0.0), EPS),
            Some(1)
        );
        // Nonpositive epsilon is unsatisfiable.
        assert_eq!(required_sample_size(&CheatParams::new(0.5, 0.5), 0.0), None);
    }

    #[test]
    fn forgery_probability_feeds_pcs() {
        let p = CheatParams::new(0.5, 0.0).with_sig_forge(0.5);
        // PCS base = 0 + 1·0.5 = 0.5
        assert!((p.pcs_base() - 0.5).abs() < 1e-12);
        let p2 = CheatParams::new(0.5, 0.0);
        assert_eq!(p2.pcs_base(), 0.0);
    }

    #[test]
    fn fcs_base_matches_formula() {
        let p = CheatParams::new(0.25, 0.0).with_range(4.0);
        // 0.25 + 0.75/4 = 0.4375
        assert!((p.fcs_base() - 0.4375).abs() < 1e-12);
        assert!((fcs_probability(&p, 2) - 0.4375f64.powi(2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "confidences must lie in [0, 1]")]
    fn out_of_range_confidence_panics() {
        let _ = CheatParams::new(1.5, 0.0).fcs_base();
    }

    #[test]
    fn probability_clamped_at_one() {
        let p = CheatParams::new(1.0, 1.0);
        assert_eq!(cheat_probability(&p, 100), 1.0);
    }
}
