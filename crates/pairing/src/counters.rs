//! Per-thread operation counters for the pairing's priced operations.
//!
//! The paper prices verification in pairings (Table I, eq. 8–9), so the
//! crate counts the parts a pairing is made of — Miller loops and the
//! pairs they absorb, final exponentiations — plus the `GT` subgroup
//! tests batch verification pays per term. Counts are exact and
//! deterministic, so a test can pin a protocol path's cost without a
//! clock:
//!
//! ```
//! use seccloud_pairing::{counters, hash_to_g1, hash_to_g2, pairing};
//!
//! let before = counters::snapshot();
//! let _ = pairing(&hash_to_g1(b"p").to_affine(), &hash_to_g2(b"q").to_affine());
//! let spent = counters::snapshot().since(&before);
//! assert_eq!((spent.miller_loops, spent.final_exponentiations), (1, 1));
//! ```
//!
//! Each thread keeps its own counts (a `Cell` read and write per counted
//! operation, no atomics), so work fanned out to other threads is not seen
//! by the caller's snapshot.

use std::cell::Cell;

/// A snapshot of this thread's operation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Miller-loop evaluations; a fused loop over several pairs counts once.
    pub miller_loops: u64,
    /// Pairs absorbed by those loops (`k` for a fused loop over `k` pairs).
    pub miller_lanes: u64,
    /// Final exponentiations.
    pub final_exponentiations: u64,
    /// `GT` subgroup tests ([`crate::Gt::is_in_subgroup`]).
    pub gt_subgroup_tests: u64,
}

impl OpCounts {
    const ZERO: Self = Self {
        miller_loops: 0,
        miller_lanes: 0,
        final_exponentiations: 0,
        gt_subgroup_tests: 0,
    };

    /// The operations counted between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            miller_loops: self.miller_loops - earlier.miller_loops,
            miller_lanes: self.miller_lanes - earlier.miller_lanes,
            final_exponentiations: self.final_exponentiations - earlier.final_exponentiations,
            gt_subgroup_tests: self.gt_subgroup_tests - earlier.gt_subgroup_tests,
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
