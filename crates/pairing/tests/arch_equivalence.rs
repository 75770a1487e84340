//! Limb-kernel equivalence property suite: the production `arch` kernels
//! must be bit-for-bit indistinguishable from the strict `reference`
//! oracle, plus known-answer vectors for whole pairings, GLV and the tower.
//!
//! The limb-level properties call `arch::f` and `arch::reference::f` side
//! by side on the same inputs (no global state). Generators mix uniform
//! residues with the adversarial edge values for lazy reduction: `0`, `1`,
//! `2`, `p−1`, `p−2`, `(p−1)/2` and the Montgomery image of one.
//! Non-canonical raw integers (`p ± ε`) are covered through the
//! `from_u256` canonicalization property.

use seccloud_bigint::U256;
use seccloud_pairing::arch::{self, reference};
use seccloud_pairing::{
    hash_to_g1, hash_to_g2, pairing, pairing_prepared, FieldElement, Fp, Fp12, Fp2, Fp6, Fr,
    G2Prepared, G1,
};
use seccloud_testkit::{forall, Tape};

/// A canonical residue mod `p`, biased heavily toward reduction edges.
fn fp_limbs(t: &mut Tape) -> [u64; 4] {
    let p = Fp::modulus();
    match t.next_below(10) {
        0 => [0u64; 4],
        1 => [1, 0, 0, 0],
        2 => [2, 0, 0, 0],
        3 => *p.wrapping_sub(&U256::ONE).limbs(),
        4 => *p.wrapping_sub(&U256::from_u64(2)).limbs(),
        5 => *p.shr(1).limbs(),
        6 => *Fp::one().repr(), // the Montgomery image R mod p
        _ => {
            let raw = U256::from_limbs(std::array::from_fn(|_| t.next_u64()));
            *Fp::from_u256(&raw).repr()
        }
    }
}

#[test]
fn mont_mul_matches_reference() {
    forall(
        "arch/mont_mul",
        |t| (fp_limbs(t), fp_limbs(t)),
        |(a, b)| {
            let m = &Fp::MODULUS;
            let want = reference::mont_mul(a, b, m, Fp::NEG_INV);
            let got = arch::mont_mul(a, b, m, Fp::NEG_INV);
            if got != want {
                return Err(format!("{got:?} != reference {want:?}"));
            }
            if U256::from_limbs(got) >= Fp::modulus() {
                return Err(format!("non-canonical output {got:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn add_sub_neg_match_reference() {
    forall(
        "arch/add_sub_neg",
        |t| (fp_limbs(t), fp_limbs(t)),
        |(a, b)| {
            let m = &Fp::MODULUS;
            let trio = [
                ("add", arch::add_mod(a, b, m), reference::add_mod(a, b, m)),
                ("sub", arch::sub_mod(a, b, m), reference::sub_mod(a, b, m)),
                ("neg", arch::neg_mod(a, m), reference::neg_mod(a, m)),
            ];
            for (op, got, want) in trio {
                if got != want {
                    return Err(format!("{op}: {got:?} != {want:?}"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn fp2_kernels_match_reference() {
    forall(
        "arch/fp2_mul_sqr",
        |t| (fp_limbs(t), fp_limbs(t), fp_limbs(t), fp_limbs(t)),
        |(a0, a1, b0, b1)| {
            let m = &Fp::MODULUS;
            let want_mul = reference::fp2_mul(a0, a1, b0, b1, m, Fp::NEG_INV);
            let got_mul = arch::fp2_mul(a0, a1, b0, b1, m, &Fp::M2, Fp::NEG_INV);
            if got_mul != want_mul {
                return Err(format!("fp2_mul: {got_mul:?} != {want_mul:?}"));
            }
            let want_sqr = reference::fp2_sqr(a0, a1, m, Fp::NEG_INV);
            let got_sqr = arch::fp2_sqr(a0, a1, m, Fp::NEG_INV);
            if got_sqr != want_sqr {
                return Err(format!("fp2_sqr: {got_sqr:?} != {want_sqr:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn from_u256_canonicalizes_out_of_range_inputs() {
    // Non-canonical raw integers (p ± ε, 2p ± ε, MAX) must enter the field
    // already reduced, so no lazy-reduction bound ever sees limbs ≥ p.
    forall(
        "arch/from_u256_canonical",
        |t| {
            let p = Fp::modulus();
            let eps = U256::from_u64(t.next_below(4));
            match t.next_below(5) {
                0 => p.wrapping_add(&eps),
                1 => p.wrapping_sub(&eps),
                2 => p.shl(1).wrapping_add(&eps),
                3 => U256::MAX.wrapping_sub(&eps),
                _ => U256::from_limbs(std::array::from_fn(|_| t.next_u64())),
            }
        },
        |raw| {
            let x = Fp::from_u256(raw);
            if U256::from_limbs(*x.repr()) >= Fp::modulus() {
                return Err(format!("from_u256({raw:?}) left non-canonical limbs"));
            }
            // And the value is correct: x ≡ raw (mod p), checked additively.
            let p = Fp::modulus();
            let mut reduced = *raw;
            while reduced >= p {
                reduced = reduced.wrapping_sub(&p);
            }
            if x.to_u256() != reduced {
                return Err(format!("from_u256({raw:?}) wrong residue"));
            }
            Ok(())
        },
    );
}

#[test]
fn vartime_inverse_matches_fermat_inverse() {
    // The Euclidean fast path used on public Miller-loop operands must
    // agree with the constant-time Fermat ladder everywhere, including the
    // reduction edge values.
    forall(
        "arch/inverse_vartime",
        |t| (fp_limbs(t), fp_limbs(t)),
        |(a, b)| {
            let x = Fp::from_repr_unchecked(*a);
            if x.inverse_vartime() != x.inverse() {
                return Err(format!("Fp inverse mismatch for {x:?}"));
            }
            let x2 = Fp2::new(x, Fp::from_repr_unchecked(*b));
            if x2.inverse_vartime() != x2.inverse() {
                return Err(format!("Fp2 inverse mismatch for {x2:?}"));
            }
            Ok(())
        },
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The twelve `Fp` coefficients, big-endian, in `Gt::to_bytes` order.
fn fp12_hex(x: &Fp12) -> String {
    let mut out = Vec::with_capacity(384);
    for c6 in [&x.c0, &x.c1] {
        for c2 in [&c6.c0, &c6.c1, &c6.c2] {
            out.extend_from_slice(&c2.to_be_bytes());
        }
    }
    hex(&out)
}

/// `e(P, Q)` for the inputs below, as `Gt::to_bytes` hex. The ate and
/// prepared paths compute the same pairing, so both must reproduce it.
const KAT_PAIRING: &str = "\
    01d3a99030a37370f95e89d9837e3d38d050790ca272a9ed4c813c198dab21af\
    06577c335804328c377a8f5533c83373e1eda6ad6468ef3b40a3d020eb0a6af6\
    0fa1e47f3755b376d22efeefc96351a13ff8c1410611c03abe36d5a1cafbd101\
    2fe2ba827141604d04c56b6c3c15977dee8d8a8df037bf4be26e8c1b8da03457\
    0eb52f530f3cb8736b27b15bc175b1e56cd3c8b63bca80f49e80b8b4b2866799\
    016667eded1b18111a7589dc5d50ecb898e96cc5981d435a83ddd7a086cd1736\
    01f09342eaffc816068a8f51d526f935fc8f88b27f9ee21e88687bad50857935\
    04fa5088541a2d0015b6c2b6fbe9c2282b2dec6de6ed918e2d6e7058a1830a04\
    197bebf16684ae0e1102281bb8c78ff83163e334cd78796be9d303872c22289a\
    2ab489fd4fad94c2e317988d213ce9e3d9b892adc03a1b1ca155eae71b8812f9\
    2f7c8cfcb5886f8123bbb9ec3d258877f4fc9cdb7d01686b08c9f9ab686fb14d\
    14780661c9c5d12f04905d410b44117583a961b3d0de3f8f5869879c4884d2e0";

/// `[k]G₁` through the GLV split, compressed.
const KAT_GLV: &str = "27a34f4e14820aa049b2a7217e991d38f54ac40a89ec642e7d81ac3f837221b4";

/// `x · x²` for the `Fp12` element `x` below.
const KAT_FP12_MUL: &str = "\
    2d68055d160b41c47921b2d9232b837cb19a310e1b8ae7ac60066fa6ae200fa3\
    22cee72d53417d461a580642cfda1ce500da26f04db3e260bd7bd9d4bb56bd8b\
    11026e000f22cbcb104d83c66ec5f496f8c79cc34fcf906cd557514209129531\
    01af1d4c67aeda88bcb4c53f49ec1547f6e1ff9a4ddf5a1b3e43cd0dfaa93dc7\
    050e647cf610f36ebd5e79ec831e0a50225ec22d44cf4ad8263486e097c36e23\
    12a88498d8339c0c13117ba4c4bb6619ff915faf9ab61bc101c0042076ba9826\
    07346a4a4e2c5b0ac50e4b7b7d35ef1777bf1cd0870cd0a84c45c3afc205c7e0\
    0fe132d9de8ef58bca02c8e0400da031de54f59de0b6e1b28ae8c399fb36cbd1\
    23ca9f7bd70420ca6e71387b956a24f2c2ece46fa231dbf0d72e85d6e48431d7\
    21f42f8cc4ebdf570fd898323db032823705109445bc85218a079b347ca12e02\
    200043092bdbd45d651baf3fe0c8580b4643fd9f6094d5ae1e7000999f9ae4f5\
    2e44479b533fd1bed42dfe91b30423fba9e5697266f99e8fd6ff6fad0422e3dd";

/// `x⁻¹` for the `Fp12` element `x` below.
const KAT_FP12_INV: &str = "\
    0b9854dd21a3aedb5ed7fc99a424f24b3e6b0ed296d8419bc09fb4ed930cf338\
    20106e45422b657cb8a5fe9a663ced250e294a1d09b5af769cf489e2fbe9b8ce\
    0f7b32456f5312f758c12e7815c986a5fcf97350c17be09ae1ea37ee0c19cde3\
    03328e5966d33bfb8fb54d0b8cca5416642c05267563aacb6ade54ee940998aa\
    27338cbca9cc8d54842a189fc1b61e3aa63253c2ab49e0db31182b3fd3e27b1b\
    18559898203902088325bdd427e07612d83f255eeda2ffcf607ffdaa1c1dee9d\
    24dd85c47832b91fce531beb11fd55df9b99ea5a18ad2da200f9e1e218625688\
    2259696a282a8d6a54c3c7ac9819bac1afa0f1ebcb895bedcb42c9ed0c151425\
    24cf01b93da7872a5b7f9adb42f51ee0400cc712c015a11bdef0ce3479773ca2\
    260f8af1ab2a347de37fa8bd3cf14316d7f2018471b1c39dcd0f8aa6c502fd7f\
    2906e02dd1e9edecc85ed74d94784992e8973c1b26838504ee7e8ae8279aa9c2\
    172a8efa2c1da818593892b670a5ebd54643cbb5b26800f953ef96c9a3748f4e";

/// Whole pairings, GLV and the `Fp12` tower against known answers that
/// were computed with the strict `reference` kernels on every field
/// operation. The limb properties above check each kernel in isolation;
/// these vectors check that the kernels compose into the same protocol
/// values end to end.
#[test]
fn pairing_glv_and_tower_reproduce_reference_known_answers() {
    let p = hash_to_g1(b"arch-eq-p").to_affine();
    let q = hash_to_g2(b"arch-eq-q").to_affine();
    let q_prep = G2Prepared::from(&q);
    let k = Fr::hash(b"arch-eq-k");
    let x2 = Fp2::from_hash(b"arch-eq", b"x2");
    let x12 = Fp12::new(
        Fp6::new(x2, x2.square(), x2.neg()),
        Fp6::new(x2.add(&x2), x2, x2.square().square()),
    );

    assert_eq!(hex(&pairing(&p, &q).to_bytes()), KAT_PAIRING, "pairing");
    assert_eq!(
        hex(&pairing_prepared(&p, &q_prep).to_bytes()),
        KAT_PAIRING,
        "prepared pairing"
    );
    assert_eq!(
        hex(&G1::generator().mul_fr(&k).to_affine().to_compressed()),
        KAT_GLV,
        "GLV scalar mul"
    );
    assert_eq!(fp12_hex(&x12.mul(&x12.square())), KAT_FP12_MUL, "Fp12 mul");
    assert_eq!(
        fp12_hex(&x12.inverse().expect("nonzero")),
        KAT_FP12_INV,
        "Fp12 inverse"
    );
    // And the pairing value is a genuine pairing (consistency, not just
    // a recorded answer): bilinearity spot-check.
    assert_eq!(
        pairing(&G1::generator().mul_fr(&k).to_affine(), &q),
        pairing(&G1::generator().to_affine(), &q).pow(&k),
    );
}
