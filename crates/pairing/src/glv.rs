//! GLV endomorphism-accelerated scalar multiplication on `G1`.
//!
//! BN curves have `j = 0`, so `E : y² = x³ + 3` carries the automorphism
//! `φ : (x, y) ↦ (βx, y)` where `β` is a primitive cube root of unity in
//! `Fp`. On the order-`r` subgroup `φ` acts as multiplication by `λ`, a
//! cube root of unity in `Fr`. Gallant–Lambert–Vanstone turn this into a
//! speedup: split `k ≡ k₁ + λ·k₂ (mod r)` with `|k₁|, |k₂| ≈ √r` (half
//! length), then compute `[k]P = [k₁]P + [k₂]φ(P)` with one Strauss–Shamir
//! interleaved ladder — halving the doubling chain relative to a full-width
//! wNAF multiplication.
//!
//! In keeping with the crate's "derive, don't transcribe" policy, nothing
//! here is hard-coded: `β` and `λ` are found at first use by exponentiation
//! (`b^((m−1)/3)` for the first non-cube base `b`), matched against the
//! actual endomorphism on the generator, and the short lattice basis is
//! produced by Gauss reduction of `{(r, 0), (−λ, 1)}`. Tests cross-check
//! every derived constant.

use std::sync::OnceLock;

use seccloud_bigint::{ApInt, U256};

use crate::fp::Fp;
use crate::fr::Fr;
use crate::g1::{G1Affine, G1};
use crate::params;

/// A sign-magnitude arbitrary-precision integer. `ApInt` is unsigned; the
/// lattice work below needs subtraction that can go negative.
#[derive(Clone, Debug)]
struct SInt {
    neg: bool,
    mag: ApInt,
}

impl SInt {
    fn zero() -> Self {
        Self {
            neg: false,
            mag: ApInt::zero(),
        }
    }

    fn from_apint(mag: ApInt) -> Self {
        Self { neg: false, mag }
    }

    fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// Negation (zero stays canonically non-negative).
    fn neg(&self) -> Self {
        Self {
            neg: !self.neg && !self.mag.is_zero(),
            mag: self.mag.clone(),
        }
    }

    fn add(&self, rhs: &Self) -> Self {
        if self.neg == rhs.neg {
            return Self {
                neg: self.neg,
                mag: &self.mag + &rhs.mag,
            };
        }
        // Opposite signs: the larger magnitude decides the sign.
        if self.mag >= rhs.mag {
            let mag = self.mag.checked_sub(&rhs.mag).expect("|a| ≥ |b|");
            Self {
                neg: self.neg && !mag.is_zero(),
                mag,
            }
        } else {
            let mag = rhs.mag.checked_sub(&self.mag).expect("|b| > |a|");
            Self { neg: rhs.neg, mag }
        }
    }

    fn sub(&self, rhs: &Self) -> Self {
        self.add(&rhs.neg())
    }

    fn mul(&self, rhs: &Self) -> Self {
        let mag = &self.mag * &rhs.mag;
        Self {
            neg: (self.neg != rhs.neg) && !mag.is_zero(),
            mag,
        }
    }
}

/// Floor division of a signed numerator by a positive denominator.
fn floor_div(a: &SInt, b: &ApInt) -> SInt {
    let (q, rem) = a.mag.divrem(b).expect("positive denominator");
    if a.neg && !rem.is_zero() {
        // floor(−m/b) = −(⌊m/b⌋ + 1) when b ∤ m.
        SInt {
            neg: true,
            mag: &q + &ApInt::one(),
        }
    } else {
        SInt {
            neg: a.neg && !q.is_zero(),
            mag: q,
        }
    }
}

/// Round-to-nearest signed division `round(a / b)` for positive `b`,
/// computed purely with integers as `⌊(2a + b) / 2b⌋`. Floating point is
/// banned here: a 254-bit numerator does not fit an `f64` mantissa and the
/// rounding error would silently produce wrong (though still congruent)
/// decompositions of some scalars.
fn iround(a: &SInt, b: &ApInt) -> SInt {
    let two = ApInt::from_u64(2);
    let num = SInt {
        neg: a.neg,
        mag: &a.mag * &two,
    }
    .add(&SInt::from_apint(b.clone()));
    floor_div(&num, &(b * &two))
}

/// A lattice vector `(a, b)` representing `a + b·λ ≡ 0 (mod r)`.
type Vec2 = (SInt, SInt);

fn dot(u: &Vec2, v: &Vec2) -> SInt {
    u.0.mul(&v.0).add(&u.1.mul(&v.1))
}

/// Squared Euclidean norm (always non-negative, so plain `ApInt`).
fn norm2(v: &Vec2) -> ApInt {
    dot(v, v).mag
}

/// Lagrange–Gauss reduction of a rank-2 lattice basis: the 2-dimensional
/// analogue of Euclid's gcd. Returns a basis of the same lattice whose
/// vectors are (up to sign) the two successive minima — for the GLV lattice
/// this means all four entries come out near `√r` (≈ 127 bits).
fn gauss_reduce(mut u: Vec2, mut v: Vec2) -> (Vec2, Vec2) {
    loop {
        if norm2(&u) < norm2(&v) {
            std::mem::swap(&mut u, &mut v);
        }
        let m = iround(&dot(&u, &v), &norm2(&v));
        if m.is_zero() {
            return (v, u);
        }
        u = (u.0.sub(&m.mul(&v.0)), u.1.sub(&m.mul(&v.1)));
    }
}

/// Finds a primitive cube root of unity mod `m` (requires `3 | m − 1`):
/// `b^((m−1)/3)` for the first base `b` that is not a cube.
fn cube_root_of_unity(m: &ApInt) -> ApInt {
    let m_minus_1 = m.checked_sub(&ApInt::one()).expect("m > 1");
    let (e, rem) = m_minus_1.divrem(&ApInt::from_u64(3)).expect("3 ≠ 0");
    assert!(rem.is_zero(), "m ≢ 1 (mod 3): no cube roots of unity");
    for base in 2u64..64 {
        let w = ApInt::from_u64(base).modpow(&e, m);
        if !w.eq_u64(1) {
            return w;
        }
    }
    unreachable!("non-cubes have density 2/3; 62 misses is impossible")
}

/// The derived GLV constants, computed once at first use.
struct Glv {
    /// `φ(x, y) = (βx, y)` — a primitive cube root of unity in `Fp`.
    beta: Fp,
    /// The eigenvalue: `φ(P) = [λ]P` on the `r`-torsion.
    lambda: ApInt,
    /// Short basis of `{(z₁, z₂) : z₁ + z₂·λ ≡ 0 (mod r)}`.
    v1: Vec2,
    v2: Vec2,
}

fn glv() -> &'static Glv {
    static GLV: OnceLock<Glv> = OnceLock::new();
    GLV.get_or_init(|| {
        let r = params::r_apint();
        let p = params::p_apint();
        let lam0 = cube_root_of_unity(r);
        let beta0 = cube_root_of_unity(p);
        // Each field has two primitive cube roots (ω and ω²); only one of
        // the four (β, λ) pairings satisfies φ(P) = [λ]P. Match against the
        // generator rather than trusting any transcribed convention.
        let lambdas = [lam0.clone(), lam0.modmul(&lam0, r)];
        let betas = [beta0.clone(), beta0.modmul(&beta0, p)];
        let g = G1::generator();
        for beta_ap in &betas {
            let beta = Fp::from_u256(&beta_ap.to_uint().expect("β < p < 2²⁵⁶"));
            let phi_g = g.endo_scale_x(&beta);
            for lambda in &lambdas {
                if g.mul_apint(lambda) == phi_g {
                    let u = (SInt::from_apint(r.clone()), SInt::zero());
                    let v = (
                        SInt::from_apint(lambda.clone()).neg(),
                        SInt::from_apint(ApInt::one()),
                    );
                    let (v1, v2) = gauss_reduce(u, v);
                    return Glv {
                        beta,
                        lambda: lambda.clone(),
                        v1,
                        v2,
                    };
                }
            }
        }
        unreachable!("one (β, λ) pairing must realize the endomorphism")
    })
}

/// Splits `k` into `(k₁, k₂)` with `k ≡ k₁ + λ·k₂ (mod r)` and both halves
/// bounded by the reduced basis (≈ 127 bits): express `(k, 0)` in the basis
/// `{v₁, v₂}`, round the (rational) coordinates to integers `c₁, c₂`, and
/// take the residual `(k, 0) − c₁v₁ − c₂v₂`, which lies in the fundamental
/// parallelepiped.
fn decompose(k: &ApInt, g: &Glv) -> (SInt, SInt) {
    let k = SInt::from_apint(k.clone());
    // (c₁, c₂) = (k, 0)·B⁻¹ with B⁻¹ = adj(B)/det(B); det(B) = ±r.
    let det = g.v1.0.mul(&g.v2.1).sub(&g.v1.1.mul(&g.v2.0));
    let mut n1 = k.mul(&g.v2.1);
    let mut n2 = k.mul(&g.v1.1).neg();
    if det.neg {
        n1 = n1.neg();
        n2 = n2.neg();
    }
    let c1 = iround(&n1, &det.mag);
    let c2 = iround(&n2, &det.mag);
    let k1 = k.sub(&c1.mul(&g.v1.0)).sub(&c2.mul(&g.v2.0));
    let k2 = SInt::zero().sub(&c1.mul(&g.v1.1)).sub(&c2.mul(&g.v2.1));
    debug_assert!(
        k1.add(&k2.mul(&SInt::from_apint(g.lambda.clone())))
            .sub(&k)
            .mag
            .rem(params::r_apint())
            .is_zero(),
        "GLV split must recombine to k mod r"
    );
    (k1, k2)
}

/// GLV scalar multiplication `[k]P` on `G1`: decompose `k = k₁ + λ·k₂`,
/// fold the signs into the points, and evaluate `[|k₁|]P′ + [|k₂|]φ(P)′`
/// with the shared-doubling Strauss–Shamir ladder. Half the doublings of a
/// full-width wNAF walk.
pub(crate) fn mul_glv(p: &G1, k: &Fr) -> G1 {
    let [(p1, half1), (p2, half2)] = split(p, k);
    G1::double_scalar_mul(&p1, &half1, &p2, &half2)
}

/// The GLV split of `[k]P` into `[|k₁|]P′ + [|k₂|]φ(P)′`, signs folded
/// into the points: two terms with half-length (≈ 127-bit) scalars.
pub(crate) fn split(p: &G1, k: &Fr) -> [(G1, U256); 2] {
    let (p1, half1, flip, half2) = split_relative(p, k);
    let phi = p1.endo_scale_x(&glv().beta);
    [(p1, half1), (if flip { phi.neg() } else { phi }, half2)]
}

/// [`split`] with the second point given relative to the first:
/// `(P′, |k₁|, flip, |k₂|)` where `P′ = ±P` carries `k₁`'s sign and the
/// second point is `φ(P′)`, negated when `flip`. A caller that tabulates
/// multiples of `P′` gets the second point's table by mapping each entry
/// through [`endo_affine`].
pub(crate) fn split_relative(p: &G1, k: &Fr) -> (G1, U256, bool, U256) {
    let (k1, k2) = decompose(&ApInt::from_uint(&k.to_u256()), glv());
    let p1 = if k1.neg { p.neg() } else { *p };
    let half1 = k1.mag.to_uint().expect("|k₁| ≈ √r fits in 256 bits");
    let half2 = k2.mag.to_uint().expect("|k₂| ≈ √r fits in 256 bits");
    (p1, half1, k1.neg != k2.neg, half2)
}

/// `φ(x, y) = (βx, y)` on an affine point (the identity maps to itself).
pub(crate) fn endo_affine(a: &G1Affine) -> G1Affine {
    if a.is_identity() {
        return *a;
    }
    G1Affine::from_xy_unchecked(a.x().mul(&glv().beta), a.y())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_hash::HmacDrbg;

    #[test]
    fn derived_constants_are_cube_roots() {
        let g = glv();
        let r = params::r_apint();
        let p = params::p_apint();
        // λ³ ≡ 1 (mod r), λ ≠ 1.
        let l3 = g.lambda.modmul(&g.lambda, r).modmul(&g.lambda, r);
        assert!(l3.eq_u64(1));
        assert!(!g.lambda.eq_u64(1));
        // β³ ≡ 1 (mod p), β ≠ 1.
        let b = ApInt::from_uint(&g.beta.to_u256());
        let b3 = b.modmul(&b, p).modmul(&b, p);
        assert!(b3.eq_u64(1));
        assert!(!b.eq_u64(1));
    }

    #[test]
    fn basis_vectors_are_short_lattice_members() {
        let g = glv();
        let r = params::r_apint();
        for v in [&g.v1, &g.v2] {
            // Membership: a + b·λ ≡ 0 (mod r), evaluated in sign-magnitude.
            let lb = v.1.mul(&SInt::from_apint(g.lambda.clone()));
            let s = v.0.add(&lb);
            assert!(s.mag.rem(r).is_zero(), "basis vector not in the lattice");
            // Shortness: every entry near √r (127 bits), not full width.
            assert!(v.0.mag.bits() <= 128, "|a| too long: {}", v.0.mag.bits());
            assert!(v.1.mag.bits() <= 128, "|b| too long: {}", v.1.mag.bits());
        }
    }

    #[test]
    fn decomposition_recombines_and_is_short() {
        let r = params::r_apint();
        let g = glv();
        let mut d = HmacDrbg::new(b"glv-decompose");
        let check = |k: ApInt| {
            let (k1, k2) = decompose(&k, g);
            assert!(k1.mag.bits() <= 128, "k1 bits {}", k1.mag.bits());
            assert!(k2.mag.bits() <= 128, "k2 bits {}", k2.mag.bits());
            // k1 + λ·k2 ≡ k (mod r), in sign-magnitude arithmetic.
            let lhs = k1.add(&k2.mul(&SInt::from_apint(g.lambda.clone())));
            let diff = lhs.sub(&SInt::from_apint(k.clone()));
            assert!(diff.mag.rem(r).is_zero(), "decomposition incongruent");
        };
        check(ApInt::zero());
        check(ApInt::one());
        check(r.checked_sub(&ApInt::one()).unwrap());
        for _ in 0..32 {
            let k = ApInt::from_uint(&Fr::random_nonzero(&mut d).to_u256());
            check(k);
        }
    }

    #[test]
    fn glv_matches_wnaf_on_random_and_edge_scalars() {
        let mut d = HmacDrbg::new(b"glv-vs-wnaf");
        let g1 = G1::generator();
        let p = crate::hash_to_g1(b"glv-base");
        for k in [
            Fr::zero(),
            Fr::one(),
            Fr::zero().sub(&Fr::one()), // r − 1
            Fr::from_u64(2),
        ] {
            let expect = p.mul_limbs_wnaf(k.to_u256().limbs());
            assert_eq!(mul_glv(&p, &k), expect, "edge scalar {k:?}");
        }
        for _ in 0..24 {
            let k = Fr::random_nonzero(&mut d);
            let expect = p.mul_limbs_wnaf(k.to_u256().limbs());
            assert_eq!(mul_glv(&p, &k), expect);
            assert_eq!(mul_glv(&g1, &k), g1.mul_limbs_wnaf(k.to_u256().limbs()));
        }
        // Identity base point.
        assert!(mul_glv(&G1::identity(), &Fr::from_u64(42)).is_identity());
    }

    #[test]
    fn relative_split_recombines_under_both_signs() {
        // [k₁]P′ + [k₂](±φ(P′)) = [k]P, with the second point taken from
        // P′'s affine form through endo_affine, for both values of flip.
        let mut d = HmacDrbg::new(b"glv-relative");
        let p = crate::hash_to_g1(b"glv-relative-base");
        let mut seen = [false; 2];
        for _ in 0..24 {
            let k = Fr::random_nonzero(&mut d);
            let (p1, k1, flip, k2) = split_relative(&p, &k);
            let phi = G1::from(endo_affine(&p1.to_affine()));
            let p2 = if flip { phi.neg() } else { phi };
            assert_eq!(
                G1::double_scalar_mul(&p1, &k1, &p2, &k2),
                p.mul_limbs_wnaf(k.to_u256().limbs())
            );
            seen[usize::from(flip)] = true;
        }
        assert_eq!(seen, [true, true], "both signs of the second half occur");
        assert!(endo_affine(&G1Affine::identity()).is_identity());
    }
}
