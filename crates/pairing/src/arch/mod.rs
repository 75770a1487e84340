//! Montgomery limb arithmetic: the one production path every 4×64-limb
//! field operation in this crate bottoms out in.
//!
//! * The kernels re-exported here come from `generic`: unrolled CIOS with
//!   a branchless final subtract, direct-limb modular add/sub, and
//!   *lazy-reduction* `Fp2` kernels that accumulate 512-bit products and
//!   pay a single Montgomery reduction per output coefficient (bounds
//!   proved in that module's docs and in `DESIGN.md` §11).
//! * [`reference`](mod@reference) is the original strict CIOS code, unchanged: a
//!   loop-based Montgomery multiplier and `U256` round-trip add/sub. It is
//!   never called by production code; it is the obviously-correct oracle
//!   the kernels are property-tested against (`tests/arch_equivalence.rs`).
//!
//! The contract for every function here: inputs are canonical Montgomery
//! residues (`< m`, little-endian limbs), outputs are canonical Montgomery
//! residues, so `Eq`/`Hash`/serialization never observe an unreduced form.
//! Lazy (unreduced) intermediate forms never escape a kernel.
//!
//! `m` is the modulus, `m2` its full 512-bit square (for the lazy `Fp2`
//! kernels), `inv` the Montgomery constant `-m⁻¹ mod 2⁶⁴`.

mod generic;
#[doc(hidden)]
pub mod reference;

pub use generic::{add_mod, fp2_mul, fp2_sqr, mont_mul, neg_mod, sub_mod};
