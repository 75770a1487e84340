//! Per-thread operation counters for the pairing's priced operations.
//!
//! The paper prices verification in pairings (Table I, eq. 8–9), so the
//! crate counts the parts a pairing is made of — `G2` preparations, Miller
//! loops and the pairs they absorb, final exponentiations — plus the `GT`
//! membership checks batch verification pays: cyclotomic checks per term
//! and subgroup tests per batch. Counts are exact and
//! deterministic, so a test can pin a protocol path's cost without a
//! clock. A cold pairing prepares its `G2` argument and replays it; a
//! pairing against a kept preparation pays only the replay:
//!
//! ```
//! use seccloud_pairing::{counters, hash_to_g1, hash_to_g2, pairing, pairing_prepared, G2Prepared};
//!
//! let (p, q) = (hash_to_g1(b"p").to_affine(), hash_to_g2(b"q").to_affine());
//! let before = counters::snapshot();
//! let _ = pairing(&p, &q);
//! let spent = counters::snapshot().since(&before);
//! assert_eq!((spent.g2_preparations, spent.miller_loops, spent.final_exponentiations), (1, 1, 1));
//!
//! let prepared = G2Prepared::from(&q);
//! let before = counters::snapshot();
//! let _ = pairing_prepared(&p, &prepared);
//! let spent = counters::snapshot().since(&before);
//! assert_eq!((spent.g2_preparations, spent.miller_loops, spent.final_exponentiations), (0, 1, 1));
//! ```
//!
//! Each thread keeps its own counts (a `Cell` read and write per counted
//! operation, no atomics). Every protocol path runs on its caller's
//! thread, so a snapshot taken around a call sees the whole operation.

use std::cell::Cell;

/// A snapshot of this thread's operation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// [`crate::G2Prepared`]s built, by `From` or by `from_ct`.
    pub g2_preparations: u64,
    /// Miller-loop evaluations; a fused loop over several pairs counts once.
    pub miller_loops: u64,
    /// Pairs absorbed by those loops (`k` for a fused loop over `k` pairs).
    pub miller_lanes: u64,
    /// Final exponentiations.
    pub final_exponentiations: u64,
    /// `GT` subgroup tests ([`crate::Gt::is_in_subgroup`]).
    pub gt_subgroup_tests: u64,
    /// Standalone cyclotomic checks ([`crate::Gt::is_cyclotomic`]); the
    /// one inside a subgroup test is not counted here.
    pub gt_cyclotomic_checks: u64,
}

impl OpCounts {
    const ZERO: Self = Self {
        g2_preparations: 0,
        miller_loops: 0,
        miller_lanes: 0,
        final_exponentiations: 0,
        gt_subgroup_tests: 0,
        gt_cyclotomic_checks: 0,
    };

    /// The operations counted between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            g2_preparations: self.g2_preparations - earlier.g2_preparations,
            miller_loops: self.miller_loops - earlier.miller_loops,
            miller_lanes: self.miller_lanes - earlier.miller_lanes,
            final_exponentiations: self.final_exponentiations - earlier.final_exponentiations,
            gt_subgroup_tests: self.gt_subgroup_tests - earlier.gt_subgroup_tests,
            gt_cyclotomic_checks: self.gt_cyclotomic_checks - earlier.gt_cyclotomic_checks,
        }
    }
}

thread_local! {
    static COUNTS: Cell<OpCounts> = const { Cell::new(OpCounts::ZERO) };
}

/// This thread's counts so far.
pub fn snapshot() -> OpCounts {
    COUNTS.with(Cell::get)
}

fn bump(f: impl FnOnce(&mut OpCounts)) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        f(&mut counts);
        c.set(counts);
    });
}

/// Counts one `G2` preparation.
pub(crate) fn g2_preparation() {
    bump(|c| c.g2_preparations += 1);
}

/// Counts one Miller loop over `lanes` pairs.
pub(crate) fn miller_loop(lanes: usize) {
    bump(|c| {
        c.miller_loops += 1;
        c.miller_lanes += lanes as u64;
    });
}

/// Counts one final exponentiation.
pub(crate) fn final_exponentiation() {
    bump(|c| c.final_exponentiations += 1);
}

/// Counts one `GT` subgroup test.
pub(crate) fn gt_subgroup_test() {
    bump(|c| c.gt_subgroup_tests += 1);
}

/// Counts one standalone `GT` cyclotomic check.
pub(crate) fn gt_cyclotomic_check() {
    bump(|c| c.gt_cyclotomic_checks += 1);
}
