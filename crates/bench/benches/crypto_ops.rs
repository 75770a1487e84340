//! Benches for the Table-I primitives: point multiplication, pairing,
//! hash-to-curve, field arithmetic — plus the final-exponentiation and
//! prepared-pairing ablations called out in DESIGN.md.

use seccloud_bench::Bench;
use seccloud_pairing::{
    final_exponentiation, g1_generator_mul, g2_generator_mul, hash_to_g1, hash_to_g2,
    multi_miller_loop, pairing, pairing_prepared, FieldElement, Fp, Fp12, Fp2, Fp6, Fr, G2Prepared,
    G1, G2,
};

fn bench_table1_ops() {
    let mut g = Bench::group("table1");

    let g1 = G1::generator();
    let g2 = G2::generator();
    let k = Fr::hash(b"bench");
    let p = hash_to_g1(b"p").to_affine();
    let q = hash_to_g2(b"q").to_affine();

    g.bench("g1_point_mul", || g1.mul_fr(&k));
    g.bench("g2_point_mul", || g2.mul_fr(&k));
    // Ablation: fixed-base window tables vs generic wNAF for the generator.
    g.bench("g1_generator_mul_fixed_base", || g1_generator_mul(&k));
    g.bench("g2_generator_mul_fixed_base", || g2_generator_mul(&k));
    // Ablation: wNAF windowed multiplication vs plain double-and-add.
    let limbs = *k.to_u256().limbs();
    g.bench("g1_mul_double_and_add", || {
        let mut acc = G1::identity();
        for i in (0..256).rev() {
            acc = acc.double();
            if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(&g1);
            }
        }
        acc
    });
    g.bench("g1_mul_wnaf", || g1.mul_limbs_wnaf(&limbs));
    let unprepared = g.bench("pairing", || pairing(&p, &q));
    // Ablation: prepared (cached line coefficients) vs unprepared pairing
    // against a fixed G2 argument.
    let q_prep = G2Prepared::from(&q);
    let prepared = g.bench("pairing_prepared", || pairing_prepared(&p, &q_prep));
    println!(
        "   -> prepared speedup vs unprepared: {:.2}x",
        unprepared / prepared
    );
    g.bench("g2_prepare", || G2Prepared::from(&q));
    g.bench("multi_miller_loop_1", || {
        multi_miller_loop(&[(&p, &q_prep)])
    });
    // Ablation: default optimal-ate backend vs the textbook Tate backend.
    g.bench("pairing_tate", || seccloud_pairing::pairing_tate(&p, &q));
    g.bench("hash_to_g1", || hash_to_g1(b"identity"));
    g.bench("hash_to_g2", || hash_to_g2(b"identity"));
}

fn bench_field_tower() {
    let mut g = Bench::group("field_tower");
    let a = Fp::from_hash(b"fp", b"a");
    let b2 = Fp::from_hash(b"fp", b"b");
    g.bench("fp_mul", || a.mul(&b2));
    g.bench("fp_inverse", || a.inverse());
    // Ablation: binary-xgcd vartime inverse vs the constant-time ladder.
    g.bench("fp_inverse_vartime", || a.inverse_vartime());

    let x2 = Fp2::from_hash(b"fp2", b"x");
    let y2 = Fp2::from_hash(b"fp2", b"y");
    g.bench("fp2_mul", || x2.mul(&y2));

    let x12 = Fp12::new(Fp6::new(x2, y2, x2.mul(&y2)), Fp6::new(y2, x2, x2.add(&y2)));
    let y12 = x12.square();
    g.bench("fp12_mul", || x12.mul(&y12));
    g.bench("fp12_square", || x12.square());
    g.bench("fp12_inverse", || x12.inverse());
}

fn bench_final_exp_ablation() {
    // DESIGN.md ablation: how much of the pairing is the Miller loop vs the
    // final exponentiation (whose hard part is a Frobenius chain over three
    // signed-window powers by x).
    let mut g = Bench::group("final_exp_ablation");
    let p = hash_to_g1(b"ablation-p").to_affine();
    let q = hash_to_g2(b"ablation-q").to_affine();
    let miller_value = *pairing(&p, &q).as_fp12(); // any unit works as input

    g.bench("full_pairing", || pairing(&p, &q));
    g.bench("final_exponentiation_only", || {
        final_exponentiation(&miller_value)
    });
}

fn main() {
    bench_table1_ops();
    bench_field_tower();
    bench_final_exp_ablation();
}
