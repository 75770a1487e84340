//! `epoch-registry`: epoch cycles of the sharded tenant registry, with no
//! sockets. One op is one cycle: churn, rotation, per-shard commitments,
//! folding the epoch's aggregate audits, one fused verification and a few
//! membership proofs.

use std::sync::Arc;

use seccloud_hash::HmacDrbg;
use seccloud_ibs::{designate, sign, BatchVerifier, MasterKey, UserPublic, VerifierKey};
use seccloud_pairing::{G2Prepared, Gt, G1};
use seccloud_registry::{CommitmentCheck, EpochVerifier, UserRegistry};

use crate::trace;
use crate::{Counters, Verdict, Workload};

/// Sizes of one registry world.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub tenants: usize,
    pub shards: u32,
    /// Tenants removed (and as many re-enrolled) per cycle.
    pub churn: usize,
    /// Aggregate audits folded per cycle.
    pub audits: usize,
    /// Pre-built aggregates per shard.
    pub units_per_shard: usize,
    /// Signatures merged into each aggregate.
    pub sigs_per_unit: usize,
    /// Membership proofs made and checked per cycle.
    pub proofs: usize,
}

pub const FULL: Sizes = Sizes {
    tenants: 1_500,
    shards: 32,
    churn: 15,
    audits: 64,
    units_per_shard: 2,
    sigs_per_unit: 2,
    proofs: 2,
};

pub const SMOKE: Sizes = Sizes {
    tenants: 400,
    shards: 8,
    churn: 4,
    audits: 16,
    units_per_shard: 1,
    sigs_per_unit: 1,
    proofs: 1,
};

/// The seeded inputs: the tenant population (the registry's members plus
/// the ones churn brings back).
pub struct Inputs {
    sizes: Sizes,
    seed: u64,
    population: Vec<UserPublic>,
}

pub fn inputs(sizes: Sizes, seed: u64) -> Inputs {
    let population = (0..sizes.tenants + sizes.churn)
        .map(|i| UserPublic::from_identity(&format!("tenant-{seed}-{i}")))
        .collect();
    Inputs {
        sizes,
        seed,
        population,
    }
}

/// One shard's pre-merged audit: `(U, Σ)` of `count` designated signatures.
struct Unit {
    u: G1,
    sigma: Gt,
    count: usize,
}

/// One registry world.
pub struct Registry<'a> {
    inputs: &'a Inputs,
    registry: UserRegistry,
    /// Population index of the first member; members are the `tenants`
    /// consecutive indices from here, modulo the population size.
    first: usize,
    verifiers: Vec<VerifierKey>,
    keys: Vec<Arc<G2Prepared>>,
    units: Vec<Vec<Unit>>,
    drbg: HmacDrbg,
    /// Aggregate audits folded so far.
    folded: u64,
}

/// Builds the world: enrolls every tenant, commits every shard, extracts
/// one designated verifier per shard and pre-builds each shard's audits.
pub fn build_world(inputs: &Inputs) -> Registry<'_> {
    let sizes = inputs.sizes;
    let seed = inputs.seed.to_be_bytes();
    let mut registry = UserRegistry::new(sizes.shards, 1);
    for public in &inputs.population[..sizes.tenants] {
        registry.enroll(public.clone());
    }
    registry.commitments();
    let sio = MasterKey::from_seed(&[b"benchmark/registry/sio/".as_slice(), &seed].concat());
    let verifiers: Vec<VerifierKey> = (0..sizes.shards)
        .map(|s| sio.extract_verifier(&format!("da/shard-{s}")))
        .collect();
    let keys = verifiers.iter().map(VerifierKey::sk_prepared).collect();
    let units = verifiers
        .iter()
        .enumerate()
        .map(|(s, verifier)| {
            (0..sizes.units_per_shard)
                .map(|k| {
                    let user = sio.extract_user(&format!("auditee-{s}-{k}"));
                    let mut batch = BatchVerifier::new();
                    for j in 0..sizes.sigs_per_unit {
                        let msg = format!("shard {s} aggregate {k} block {j}").into_bytes();
                        let raw = sign(&user, &msg, &j.to_be_bytes());
                        batch.push(
                            user.public().clone(),
                            msg,
                            designate(&raw, verifier.public()),
                        );
                    }
                    let (u, sigma) = batch.aggregate().expect("every unit merges a signature");
                    Unit {
                        u,
                        sigma,
                        count: sizes.sigs_per_unit,
                    }
                })
                .collect()
        })
        .collect();
    Registry {
        inputs,
        registry,
        first: 0,
        verifiers,
        keys,
        units,
        drbg: HmacDrbg::new(&[b"benchmark/registry/audits/".as_slice(), &seed].concat()),
        folded: 0,
    }
}

impl Registry<'_> {
    fn member_at(&self, k: usize) -> &UserPublic {
        let population = &self.inputs.population;
        &population[(self.first + k) % population.len()]
    }

    /// Removes the `churn` oldest members and re-enrolls the `churn`
    /// tenants outside the membership window.
    fn churn_members(&mut self) {
        let sizes = self.inputs.sizes;
        let population = &self.inputs.population;
        for k in 0..sizes.churn {
            let leaving = &population[(self.first + k) % population.len()];
            self.registry.remove(leaving.identity());
            let joining = &population[(self.first + sizes.tenants + k) % population.len()];
            self.registry.enroll(joining.clone());
        }
        self.first = (self.first + sizes.churn) % population.len();
    }

    /// Folds one shard's pre-built aggregate per audited tenant into `ev`,
    /// resolving the shard's prepared key as the ingest path does.
    fn fold_audits(&self, ev: &mut EpochVerifier, audited: &[usize]) -> bool {
        let mut routed = true;
        for &k in audited {
            let shard = self.registry.shard_of(self.member_at(k).identity());
            let (Some(verifier), Some(units)) = (
                self.verifiers.get(shard as usize),
                self.units.get(shard as usize),
            ) else {
                return false;
            };
            let _key = verifier.sk_prepared();
            let unit = &units[k % units.len()];
            routed &= ev.fold_aggregate(shard, &unit.u, &unit.sigma, unit.count);
        }
        routed
    }
}

impl Workload for Registry<'_> {
    fn run_op(&mut self, _index: u64) -> Verdict {
        let sizes = self.inputs.sizes;
        let audited: Vec<usize> = (0..sizes.audits)
            .map(|_| self.drbg.next_below(sizes.tenants as u64) as usize)
            .collect();
        trace::span("registry.churn", || self.churn_members());
        let epoch = trace::span("registry.rotate", || self.registry.rotate_epoch());
        let commitments = trace::span("registry.commitments", || self.registry.commitments());
        let mut ev = EpochVerifier::new(sizes.shards, epoch);
        let mut ok = trace::span("registry.fold", || self.fold_audits(&mut ev, &audited));
        self.folded += audited.len() as u64;
        ok &= trace::span("registry.epoch_verify", || ev.verify(&self.keys));
        for &k in audited.iter().take(sizes.proofs) {
            let identity = self.member_at(k).identity();
            let proof = trace::span("registry.prove_member", || {
                self.registry.prove_member(identity)
            });
            let record = self.registry.get(identity);
            ok &= match (proof, record) {
                (Some(proof), Some(record)) => {
                    commitments.get(proof.shard as usize).is_some_and(|c| {
                        self.registry.check_commitment(proof.shard, &c.to_bytes())
                            == CommitmentCheck::Valid
                            && trace::span("registry.verify_member", || {
                                UserRegistry::verify_member(c, record, &proof)
                            })
                    })
                }
                _ => false,
            };
        }
        if ok {
            Verdict::Clean
        } else {
            Verdict::Detected
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            folded: self.folded,
            ..Counters::default()
        }
    }

    fn tear_down(self: Box<Self>) -> Vec<trace::Span> {
        Vec::new()
    }
}

/// The fused check accepts an honest epoch and rejects the same epoch with
/// one aggregate's `Σ` swapped for another shard's.
pub fn tampering_is_detected(inputs: &Inputs) -> Result<(), String> {
    let world = build_world(inputs);
    let sizes = inputs.sizes;
    let epoch = world.registry.epoch();
    let audited: Vec<usize> = (0..sizes.audits).collect();
    let mut honest = EpochVerifier::new(sizes.shards, epoch);
    if !(world.fold_audits(&mut honest, &audited) && honest.verify(&world.keys)) {
        return Err("the fused check rejected an honest epoch".into());
    }
    let mut tampered = EpochVerifier::new(sizes.shards, epoch);
    world.fold_audits(&mut tampered, &audited);
    let (a, b) = (&world.units[0][0], &world.units[1][0]);
    tampered.fold_aggregate(0, &a.u, &b.sigma, a.count);
    if tampered.verify(&world.keys) {
        return Err("the fused check accepted a tampered aggregate".into());
    }
    Ok(())
}
