//! Cross-backend pairing consistency.
//!
//! The crate has two Miller loops: the optimal ate loop behind `pairing`,
//! `multi_pairing`, `pairing_prepared` and `multi_miller_loop` (a
//! `G2Prepared` replayed), and the textbook Tate loop (`pairing_tate`).
//! Tate is a genuinely different pairing (related to ate by a fixed
//! exponent), so the contract is relational: every bilinear identity — and
//! therefore every protocol verification equation — must accept and
//! reject the exact same inputs under both. The ate output bits are pinned
//! by known answers in `arch_equivalence.rs` and `prepared.rs`.

use seccloud_hash::HmacDrbg;
use seccloud_pairing::{
    hash_to_g1, hash_to_g2, multi_miller_loop, multi_pairing, multi_pairing_tate, pairing,
    pairing_prepared, pairing_tate, Fr, G1Affine, G2Affine, G2Prepared, Gt,
};

fn random_pair(drbg: &mut HmacDrbg, tag: &[u8]) -> (G1Affine, G2Affine) {
    let a = Fr::random_nonzero(drbg);
    let b = Fr::random_nonzero(drbg);
    let p = hash_to_g1(tag).mul_u256(&a.to_u256()).to_affine();
    let q = hash_to_g2(tag).mul_u256(&b.to_u256()).to_affine();
    (p, q)
}

#[test]
fn tate_and_ate_are_distinct_but_both_bilinear() {
    let mut drbg = HmacDrbg::new(b"backend-bilinear");
    let (p, q) = random_pair(&mut drbg, b"base");
    // Distinct pairings: equal outputs would mean the Tate backend is not
    // an independent implementation at all.
    assert_ne!(pairing_tate(&p, &q), pairing(&p, &q));
    // But e([a]P, [b]Q) = e(P, Q)^(ab) holds exactly under each backend.
    let a = Fr::random_nonzero(&mut drbg);
    let b = Fr::random_nonzero(&mut drbg);
    let pa = seccloud_pairing::G1::from(p)
        .mul_u256(&a.to_u256())
        .to_affine();
    let qb = seccloud_pairing::G2::from(q)
        .mul_u256(&b.to_u256())
        .to_affine();
    for backend in [pairing_tate, pairing] {
        let lhs = backend(&pa, &qb);
        let rhs = backend(&p, &q).pow(&a).pow(&b);
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn verification_equations_accept_and_reject_identically() {
    // A designated-verifier-style check: σ = [x]H verifies via
    // e(H, [x]Q) == e(σ, Q). Both backends must accept the honest σ and
    // reject a tampered one — backend choice must never change a protocol
    // verdict.
    let mut drbg = HmacDrbg::new(b"backend-verify");
    let h = hash_to_g1(b"message").to_affine();
    let q = hash_to_g2(b"verifier").to_affine();
    let x = Fr::random_nonzero(&mut drbg);
    let sigma = seccloud_pairing::G1::from(h)
        .mul_u256(&x.to_u256())
        .to_affine();
    let xq = seccloud_pairing::G2::from(q)
        .mul_u256(&x.to_u256())
        .to_affine();
    let forged = seccloud_pairing::G1::from(sigma).double().to_affine();
    for backend in [pairing_tate, pairing] {
        assert_eq!(backend(&h, &xq), backend(&sigma, &q), "honest accepts");
        assert_ne!(backend(&h, &xq), backend(&forged, &q), "forgery rejects");
    }
}

#[test]
fn all_backends_map_identity_inputs_to_one() {
    let mut drbg = HmacDrbg::new(b"backend-identity");
    let (p, q) = random_pair(&mut drbg, b"live");
    let inf1 = G1Affine::identity();
    let inf2 = G2Affine::identity();
    for (a, b) in [(inf1, q), (p, inf2), (inf1, inf2)] {
        assert!(pairing_tate(&a, &b).is_one());
        assert!(pairing(&a, &b).is_one());
        assert!(pairing_prepared(&a, &G2Prepared::from(&b)).is_one());
    }
    assert!(G2Prepared::from(&inf2).is_identity());
}

#[test]
fn multi_pairing_backends_match_their_single_pairing_products() {
    let mut drbg = HmacDrbg::new(b"backend-multi");
    let mut pairs = Vec::new();
    for i in 0..5u32 {
        pairs.push(random_pair(&mut drbg, &i.to_be_bytes()));
    }
    // Splice identity pairs into the middle: both backends treat them as a
    // factor of 1 and skip them outright.
    pairs.insert(2, (G1Affine::identity(), pairs[0].1));
    pairs.insert(4, (pairs[1].0, G2Affine::identity()));

    let tate_product = pairs
        .iter()
        .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing_tate(p, q)));
    assert_eq!(multi_pairing_tate(&pairs), tate_product);

    let ate_product = pairs
        .iter()
        .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
    assert_eq!(multi_pairing(&pairs), ate_product);

    let prepared: Vec<G2Prepared> = pairs.iter().map(|(_, q)| G2Prepared::from(q)).collect();
    let refs: Vec<(&G1Affine, &G2Prepared)> = pairs
        .iter()
        .zip(&prepared)
        .map(|((p, _), g)| (p, g))
        .collect();
    assert_eq!(multi_miller_loop(&refs), ate_product);

    // The two backend products differ (distinct pairings) — but both are
    // non-degenerate on this input set.
    assert_ne!(tate_product, ate_product);
    assert!(!tate_product.is_one() && !ate_product.is_one());
}

#[test]
fn identity_only_multi_pairings_are_one_under_every_backend() {
    let pairs = vec![
        (G1Affine::identity(), G2Affine::identity()),
        (G1Affine::identity(), hash_to_g2(b"q").to_affine()),
        (hash_to_g1(b"p").to_affine(), G2Affine::identity()),
    ];
    assert!(multi_pairing_tate(&pairs).is_one());
    assert!(multi_pairing(&pairs).is_one());
    let prepared: Vec<G2Prepared> = pairs.iter().map(|(_, q)| G2Prepared::from(q)).collect();
    let refs: Vec<(&G1Affine, &G2Prepared)> = pairs
        .iter()
        .zip(&prepared)
        .map(|((p, _), g)| (p, g))
        .collect();
    assert!(multi_miller_loop(&refs).is_one());
    assert!(multi_miller_loop(&[]).is_one());
}
