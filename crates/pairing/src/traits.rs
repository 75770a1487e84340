//! The field-element abstraction shared by the tower and curve code.

use core::fmt::Debug;

/// Minimal arithmetic interface implemented by every field in the tower
/// (`Fp`, `Fr`, `Fp2`, `Fp6`, `Fp12`).
///
/// The generic curve and Miller-loop code is written against this trait so
/// the same Jacobian formulas serve `G1` (over `Fp`) and `G2` (over `Fp2`).
pub trait FieldElement: Copy + Clone + PartialEq + Eq + Debug + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Whether this is the additive identity.
    fn is_zero(&self) -> bool;
    /// Field addition.
    fn add(&self, rhs: &Self) -> Self;
    /// Field subtraction.
    fn sub(&self, rhs: &Self) -> Self;
    /// Additive inverse.
    fn neg(&self) -> Self;
    /// Field multiplication.
    fn mul(&self, rhs: &Self) -> Self;
    /// Squaring (defaults to `self · self`).
    fn square(&self) -> Self {
        self.mul(self)
    }
    /// Doubling (defaults to `self + self`).
    fn double(&self) -> Self {
        self.add(self)
    }
    /// Multiplicative inverse; `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// Multiplicative inverse for *public* operands only; `None` for zero.
    /// Fields with a faster variable-time algorithm override it; the
    /// default is [`Self::inverse`].
    fn inverse_vartime(&self) -> Option<Self> {
        self.inverse()
    }

    /// Constant-time select: returns `a` when `choice == 0` and `b` when
    /// `choice == 1`, by masked limb arithmetic — no branch, no
    /// data-dependent memory access. `choice` **must** be 0 or 1.
    fn ct_select(a: &Self, b: &Self, choice: u64) -> Self;

    /// Constant-time zero test: returns `1` when `self` is the additive
    /// identity and `0` otherwise, as a mask-friendly bit rather than a
    /// branchable `bool`.
    fn ct_is_zero(&self) -> u64;

    /// Exponentiation by a little-endian limb slice (square-and-multiply).
    fn pow_limbs(&self, exp: &[u64]) -> Self {
        let mut acc = Self::one();
        let mut started = false;
        for i in (0..exp.len() * 64).rev() {
            if started {
                acc = acc.square();
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                if started {
                    acc = acc.mul(self);
                } else {
                    acc = *self;
                    started = true;
                }
            }
        }
        if started {
            acc
        } else {
            Self::one()
        }
    }
}
