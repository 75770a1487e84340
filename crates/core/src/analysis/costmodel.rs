//! Audit-cost modelling: eq. 17, Theorem 3 (optimal sample size), and the
//! verification-cost comparisons behind Fig. 5 and Table II.

/// Coefficients of the paper's total-cost model (eq. 17):
/// `C_total = a₁·t·C_trans + a₂·C_comp + a₃·C_cheat·qᵗ`.
///
/// `q` is the probability of a successful (undetected) cheat per the
/// sampling analysis; the coefficients are learned "through a history
/// learning process" in the paper and are plain inputs here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Weight of transmission cost.
    pub a1: f64,
    /// Per-sample transmission cost `C_trans`.
    pub c_trans: f64,
    /// Weight of computation cost.
    pub a2: f64,
    /// Per-audit computation cost `C_comp` (the paper models this term as
    /// independent of `t`).
    pub a2_c_comp: f64,
    /// Weight of cheating cost.
    pub a3: f64,
    /// Cost of an undetected cheat `C_cheat`.
    pub c_cheat: f64,
}

impl CostParams {
    /// Creates the model with unit weights.
    pub fn new(c_trans: f64, c_comp: f64, c_cheat: f64) -> Self {
        Self {
            a1: 1.0,
            c_trans,
            a2: 1.0,
            a2_c_comp: c_comp,
            a3: 1.0,
            c_cheat,
        }
    }

    /// `C_total(t)` for cheat-success probability `q` (eq. 17).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn total_cost(&self, t: u32, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "q must lie in (0, 1)");
        self.a1 * t as f64 * self.c_trans
            + self.a2 * self.a2_c_comp
            + self.a3 * self.c_cheat * q.powi(t as i32)
    }

    /// Theorem 3's closed-form optimum
    /// `t* = ⌈ln(−a₁·C_trans / (a₃·C_cheat·ln q)) / ln q⌉`, clamped to ≥ 0.
    ///
    /// Returns `None` when the optimum is unbounded or the parameters are
    /// degenerate (zero transmission cost, zero cheating cost, `q ∉ (0,1)`).
    pub fn optimal_sample_size(&self, q: f64) -> Option<u32> {
        if !(0.0..1.0).contains(&q) || q == 0.0 {
            return None;
        }
        let num = self.a1 * self.c_trans;
        let den = self.a3 * self.c_cheat * (-q.ln());
        if num <= 0.0 || den <= 0.0 {
            return None;
        }
        // dC/dt = a1·Ctrans + a3·Ccheat·qᵗ·ln q = 0
        //   ⇒ qᵗ = a1·Ctrans / (a3·Ccheat·(−ln q))
        let ratio = num / den;
        if ratio >= 1.0 {
            // Sampling never pays for itself: marginal transmission cost
            // exceeds the maximum marginal cheat-risk reduction.
            return Some(0);
        }
        let t_star = ratio.ln() / q.ln();
        // t must be an integer; check the two neighbours of the real optimum.
        let floor = t_star.floor().max(0.0) as u32;
        let ceil = floor + 1;
        if self.total_cost(floor, q) <= self.total_cost(ceil, q) {
            Some(floor)
        } else {
            Some(ceil)
        }
    }
}

/// Measured primitive costs (milliseconds), the Table I quantities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchemeCosts {
    /// `T_pmul`: one curve point multiplication.
    pub t_pmul_ms: f64,
    /// `T_pair`: one pairing evaluation.
    pub t_pair_ms: f64,
}

impl SchemeCosts {
    /// The paper's Table I reference numbers (MIRACL on a Core 2 Duo
    /// E6550): `T_pmul = 0.86 ms`, `T_pair = 4.14 ms`.
    pub fn paper_table_1() -> Self {
        Self {
            t_pmul_ms: 0.86,
            t_pair_ms: 4.14,
        }
    }
}

/// The verification-cost model behind Fig. 5: pairing counts as a function
/// of the number of cloud users `k` (one signature per user, as in the
/// paper's comparison).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VerificationCostModel {
    /// Measured primitive costs.
    pub costs: SchemeCosts,
}

impl VerificationCostModel {
    /// Creates the model from measured costs.
    pub fn new(costs: SchemeCosts) -> Self {
        Self { costs }
    }

    /// SecCloud batch verification cost for `k` users (Section VI): a
    /// *constant* 2 pairings plus `k` point multiplications and additions
    /// for the `U_A` aggregation (the paper counts the pairings; we include
    /// the linear point work honestly — it is the cheap term).
    pub fn ours_ms(&self, k: u32) -> f64 {
        2.0 * self.costs.t_pair_ms + k as f64 * self.costs.t_pmul_ms
    }

    /// Wang et al. \[4\]/\[5\]-style public auditing cost: pairings linear in
    /// the number of users (2 per user in the paper's comparison).
    pub fn wang_ms(&self, k: u32) -> f64 {
        2.0 * k as f64 * self.costs.t_pair_ms + k as f64 * self.costs.t_pmul_ms
    }

    /// BGLS aggregate verification: `k + 1` pairings.
    pub fn bgls_ms(&self, k: u32) -> f64 {
        (k as f64 + 1.0) * self.costs.t_pair_ms
    }

    /// Individual (non-batch) verification of `k` designated signatures:
    /// one pairing plus one point multiplication each.
    pub fn individual_ms(&self, k: u32) -> f64 {
        k as f64 * (self.costs.t_pair_ms + self.costs.t_pmul_ms)
    }

    /// The Fig. 5 series: `(k, ours, wang)` for `k = 1 ..= max_users`.
    pub fn fig5_series(&self, max_users: u32) -> Vec<(u32, f64, f64)> {
        (1..=max_users)
            .map(|k| (k, self.ours_ms(k), self.wang_ms(k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_t_matches_brute_force() {
        let cases = [
            (CostParams::new(1.0, 5.0, 10_000.0), 0.5),
            (CostParams::new(0.1, 1.0, 1e6), 0.9),
            (CostParams::new(2.0, 0.0, 500.0), 0.25),
            (CostParams::new(5.0, 3.0, 1e9), 0.75),
        ];
        for (params, q) in cases {
            let t_star = params.optimal_sample_size(q).unwrap();
            let best_cost = params.total_cost(t_star, q);
            for t in 0..10_000 {
                assert!(
                    best_cost <= params.total_cost(t, q) + 1e-9,
                    "t*={t_star} beaten by t={t} (q={q})"
                );
            }
        }
    }

    #[test]
    fn expensive_transmission_means_no_sampling() {
        // If each sample costs more than the whole cheat exposure, t* = 0.
        let params = CostParams::new(1e9, 0.0, 1.0);
        assert_eq!(params.optimal_sample_size(0.5), Some(0));
    }

    #[test]
    fn costly_cheats_push_t_up() {
        let cheap = CostParams::new(1.0, 0.0, 100.0)
            .optimal_sample_size(0.5)
            .unwrap();
        let costly = CostParams::new(1.0, 0.0, 1e8)
            .optimal_sample_size(0.5)
            .unwrap();
        assert!(costly > cheap);
    }

    #[test]
    fn degenerate_parameters_return_none() {
        let p = CostParams::new(1.0, 1.0, 1000.0);
        assert_eq!(p.optimal_sample_size(0.0), None);
        assert_eq!(p.optimal_sample_size(1.0), None);
        assert_eq!(p.optimal_sample_size(-0.5), None);
        assert_eq!(
            CostParams::new(0.0, 1.0, 1000.0).optimal_sample_size(0.5),
            None
        );
        assert_eq!(
            CostParams::new(1.0, 1.0, 0.0).optimal_sample_size(0.5),
            None
        );
    }

    #[test]
    fn total_cost_components_add_up() {
        let p = CostParams::new(2.0, 7.0, 100.0);
        // t=3, q=0.5: 3·2 + 7 + 100·0.125 = 25.5
        assert!((p.total_cost(3, 0.5) - 25.5).abs() < 1e-12);
    }

    #[test]
    fn fig5_crossover_ours_wins_beyond_one_user() {
        // With the paper's Table I costs, ours must beat the linear scheme
        // for every k ≥ 2 and the gap must grow.
        let m = VerificationCostModel::new(SchemeCosts::paper_table_1());
        let series = m.fig5_series(50);
        assert_eq!(series.len(), 50);
        let mut prev_gap = f64::MIN;
        for (k, ours, wang) in series {
            if k >= 2 {
                assert!(ours < wang, "k={k}");
            }
            let gap = wang - ours;
            assert!(gap > prev_gap, "gap grows with k");
            prev_gap = gap;
        }
    }

    #[test]
    fn scheme_cost_orderings() {
        let m = VerificationCostModel::new(SchemeCosts::paper_table_1());
        // Batch beats individual for any k ≥ 3 (2 pairings vs k pairings).
        for k in 3..=50 {
            assert!(m.ours_ms(k) < m.individual_ms(k));
            assert!(m.bgls_ms(k) < m.wang_ms(k), "n+1 < 2n pairings");
        }
        // Ours beats BGLS aggregate verification once k > ~2.
        for k in 4..=50 {
            assert!(m.ours_ms(k) < m.bgls_ms(k), "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "q must lie in (0, 1)")]
    fn invalid_q_panics() {
        CostParams::new(1.0, 1.0, 1.0).total_cost(1, 1.5);
    }
}
