//! Writes `BENCH_scale.json` — the sharded registry at fleet scale:
//! enrollment throughput and peak-memory curves up to one million
//! simulated tenants, per-shard commitment and epoch-rotation cost, and
//! ≥ 100 k audits per epoch through the fused cross-shard verifier with
//! the prepared-key LRU cache on vs off.
//!
//! The audit unit is the production ingest path: one aggregated user
//! audit resolves its shard verifier's prepared key via
//! `VerifierKey::sk_prepared()` (the secret-side prepared-key LRU,
//! `seccloud_pairing::cache::secret()`) and folds its `(U_A, Σ_A)`
//! aggregate into the epoch accumulator; every `fuse_every` audits one
//! fused, small-exponent-randomized `multi_miller_loop` check closes the
//! window (paper eqs. 8–9). The *cache-off* arm replays the pre-cache
//! behaviour — every key resolution re-prepares the Miller-loop lines —
//! by pinning both prepared-key caches' capacities to zero. The headline
//! number is the cache-on / cache-off throughput ratio.
//!
//! Run with `cargo run --release -p seccloud-bench --bin bench_scale`.
//! `--smoke` shrinks the run to CI size (≤ 10 k users); `--out PATH`
//! redirects the JSON (default `BENCH_scale.json` in the working
//! directory).
#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use seccloud_ibs::{designate, sign, BatchVerifier, MasterKey, UserPublic, VerifierKey};
use seccloud_pairing::{G2Prepared, Gt, G1};
use seccloud_registry::{EpochVerifier, UserRegistry};

/// Scale parameters for one run.
struct Params {
    mode: &'static str,
    users: usize,
    shards: u32,
    audits_per_epoch: usize,
    active_users: usize,
    sigs_per_audit: usize,
    fuse_every: usize,
    checkpoints: Vec<usize>,
}

impl Params {
    fn full() -> Self {
        Params {
            mode: "full",
            users: 1_000_000,
            shards: 64,
            audits_per_epoch: 100_000,
            active_users: 256,
            sigs_per_audit: 4,
            fuse_every: 10_000,
            checkpoints: vec![10_000, 100_000, 250_000, 500_000, 1_000_000],
        }
    }

    fn smoke() -> Self {
        Params {
            mode: "smoke",
            users: 5_000,
            shards: 16,
            audits_per_epoch: 200,
            active_users: 32,
            sigs_per_audit: 2,
            fuse_every: 50,
            checkpoints: vec![1_000, 2_500, 5_000],
        }
    }
}

/// `(VmRSS, VmHWM)` in KiB from `/proc/self/status`, or zeros where the
/// file is unavailable (non-Linux).
fn memory_kb() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// One enrollment-curve sample.
struct Checkpoint {
    users: usize,
    elapsed_ms: f64,
    users_per_sec: f64,
    vm_rss_kb: u64,
    vm_hwm_kb: u64,
}

/// One pre-aggregated audit unit: a user's batch of designated
/// signatures reduced to its eq.-(8) fold terms for one epoch.
struct AuditUnit {
    shard: u32,
    u: G1,
    sigma: Gt,
    count: usize,
}

/// One measured audit arm (an epoch's worth of audits, cache on or off).
struct Arm {
    epoch: u64,
    cache: &'static str,
    audits: usize,
    signatures: usize,
    elapsed_ms: f64,
    audits_per_sec: f64,
    fused_checks: usize,
    all_valid: bool,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

/// Extracts this epoch's per-shard designated verifiers.
fn shard_verifiers(sio: &MasterKey, epoch: u64, shards: u32) -> Vec<VerifierKey> {
    (0..shards)
        .map(|s| sio.extract_verifier(&format!("da/epoch-{epoch}/shard-{s}")))
        .collect()
}

/// Builds the active users' audit units for the registry's current
/// epoch: each active user signs `sigs` blocks, designates them to its
/// shard's verifier, and the batch collapses to one `(U_A, Σ_A)` pair.
fn build_pool(
    sio: &MasterKey,
    registry: &UserRegistry,
    verifiers: &[VerifierKey],
    active: usize,
    sigs: usize,
) -> Vec<AuditUnit> {
    (0..active)
        .map(|i| {
            let id = format!("tenant-{i}");
            let user = sio.extract_user(&id);
            let shard = registry.shard_of(&id);
            let verifier = &verifiers[shard as usize];
            let mut batch = BatchVerifier::new();
            for j in 0..sigs {
                let msg = format!("epoch-{} block {i}/{j}", registry.epoch()).into_bytes();
                let nonce = format!("nonce {i}/{j}").into_bytes();
                let designated = designate(&sign(&user, &msg, &nonce), verifier.public());
                batch.push(user.public().clone(), msg, designated);
            }
            let (u, sigma) = batch.aggregate().expect("non-empty batch");
            AuditUnit {
                shard,
                u,
                sigma,
                count: sigs,
            }
        })
        .collect()
}

/// Runs one epoch's audit arm: `audits` ingests through the prepared-key
/// cache + epoch accumulator, a fused check every `fuse_every` folds.
fn run_arm(
    p: &Params,
    pool: &[AuditUnit],
    verifiers: &[VerifierKey],
    epoch: u64,
    cache_label: &'static str,
) -> Arm {
    // `sk_prepared` resolves through the secret-side cache (never the
    // shared public one), so that is where the arm's counters live.
    let cache = seccloud_pairing::cache::secret();
    cache.reset_counters();
    // The fused check needs every shard's key handle; resolving them up
    // front is S cache operations against `audits` in the loop.
    let keys: Vec<Arc<G2Prepared>> = verifiers.iter().map(VerifierKey::sk_prepared).collect();

    let mut ev = EpochVerifier::new(p.shards, epoch);
    let mut fused_checks = 0usize;
    let mut all_valid = true;
    let mut signatures = 0usize;
    let started = Instant::now();
    for i in 0..p.audits_per_epoch {
        let unit = &pool[i % pool.len()];
        // The production ingest path: per-audit prepared-key resolution
        // (hit = O(1) map lookup; with the cache disabled this re-runs
        // the full Miller-loop preparation) plus the eq.-(8) fold.
        let _key = verifiers[unit.shard as usize].sk_prepared();
        ev.fold_aggregate(unit.shard, &unit.u, &unit.sigma, unit.count);
        signatures += unit.count;
        if (i + 1) % p.fuse_every == 0 {
            all_valid &= ev.verify(&keys);
            fused_checks += 1;
            ev = EpochVerifier::new(p.shards, epoch);
        }
    }
    if ev.folded() > 0 {
        all_valid &= ev.verify(&keys);
        fused_checks += 1;
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;
    Arm {
        epoch,
        cache: cache_label,
        audits: p.audits_per_epoch,
        signatures,
        elapsed_ms,
        audits_per_sec: p.audits_per_epoch as f64 / (elapsed_ms / 1_000.0),
        fused_checks,
        all_valid,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_evictions: cache.evictions(),
    }
}

fn main() {
    let mut out_path = "BENCH_scale.json".to_string();
    let mut p = Params::full();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => p = Params::smoke(),
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument: {other}"),
        }
    }

    let sio = MasterKey::from_seed(b"bench-scale");

    // Phase 1: enrollment curve.
    println!("enrolling {} tenants into {} shards…", p.users, p.shards);
    let mut registry = UserRegistry::new(p.shards, 1);
    let mut curve: Vec<Checkpoint> = Vec::new();
    let started = Instant::now();
    for i in 0..p.users {
        registry.enroll(UserPublic::from_identity(&format!("tenant-{i}")));
        if p.checkpoints.contains(&(i + 1)) {
            let elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;
            let (rss, hwm) = memory_kb();
            println!(
                "  {:>9} users  {:>9.0} users/s  rss {:>8} KiB",
                i + 1,
                (i + 1) as f64 / (elapsed_ms / 1_000.0),
                rss
            );
            curve.push(Checkpoint {
                users: i + 1,
                elapsed_ms,
                users_per_sec: (i + 1) as f64 / (elapsed_ms / 1_000.0),
                vm_rss_kb: rss,
                vm_hwm_kb: hwm,
            });
        }
    }

    // Phase 2: per-shard commitments and epoch rotation.
    let t = Instant::now();
    let commitments = registry.commitments();
    let commit_ms = t.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(commitments.len(), p.shards as usize);
    println!("committed {} shards in {commit_ms:.0} ms", p.shards);

    // Phase 3: epoch-1 audits, cache on.
    let verifiers1 = shard_verifiers(&sio, 1, p.shards);
    let pool1 = build_pool(
        &sio,
        &registry,
        &verifiers1,
        p.active_users,
        p.sigs_per_audit,
    );
    let arm_on = run_arm(&p, &pool1, &verifiers1, 1, "on");
    println!(
        "epoch 1 (cache on):  {} audits in {:>8.0} ms  ({:>9.0} audits/s, {} hits / {} misses)",
        arm_on.audits,
        arm_on.elapsed_ms,
        arm_on.audits_per_sec,
        arm_on.cache_hits,
        arm_on.cache_misses
    );
    assert!(arm_on.all_valid, "cache-on fused checks must pass");

    // Phase 4: rotation re-deals the population and rebinds commitments.
    let t = Instant::now();
    let epoch = registry.rotate_epoch();
    let rotated = registry.commitments();
    let rotate_ms = t.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(epoch, 2);
    assert!(commitments.iter().zip(&rotated).all(|(a, b)| a != b));
    println!("rotated to epoch 2 and recommitted in {rotate_ms:.0} ms");

    // Phase 5: epoch-2 audits, cache pinned off — the pre-cache world
    // where every key resolution re-prepares the Miller-loop lines.
    let verifiers2 = shard_verifiers(&sio, 2, p.shards);
    let pool2 = build_pool(
        &sio,
        &registry,
        &verifiers2,
        p.active_users,
        p.sigs_per_audit,
    );
    let public_cache = seccloud_pairing::cache::global();
    let secret_cache = seccloud_pairing::cache::secret();
    let restore_public = public_cache.capacity();
    let restore_secret = secret_cache.capacity();
    public_cache.set_capacity(0);
    secret_cache.set_capacity(0);
    let arm_off = run_arm(&p, &pool2, &verifiers2, 2, "off");
    public_cache.set_capacity(restore_public);
    secret_cache.set_capacity(restore_secret);
    println!(
        "epoch 2 (cache off): {} audits in {:>8.0} ms  ({:>9.0} audits/s, {} misses)",
        arm_off.audits, arm_off.elapsed_ms, arm_off.audits_per_sec, arm_off.cache_misses
    );
    assert!(arm_off.all_valid, "cache-off fused checks must pass");

    let speedup = arm_on.audits_per_sec / arm_off.audits_per_sec;
    let (_, peak_kb) = memory_kb();
    println!("prepared-verification speedup (cache on / off): {speedup:.1}x");

    // JSON report.
    let mut curve_rows = String::new();
    for (i, c) in curve.iter().enumerate() {
        if i > 0 {
            curve_rows.push_str(",\n");
        }
        curve_rows.push_str(&format!(
            "    {{ \"users\": {}, \"elapsed_ms\": {:.1}, \"users_per_sec\": {:.1}, \
             \"vm_rss_kb\": {}, \"vm_hwm_kb\": {} }}",
            c.users, c.elapsed_ms, c.users_per_sec, c.vm_rss_kb, c.vm_hwm_kb
        ));
    }
    let mut arm_rows = String::new();
    for (i, a) in [&arm_on, &arm_off].iter().enumerate() {
        if i > 0 {
            arm_rows.push_str(",\n");
        }
        arm_rows.push_str(&format!(
            "    {{ \"epoch\": {}, \"cache\": \"{}\", \"audits\": {}, \"signatures\": {}, \
             \"elapsed_ms\": {:.1}, \"audits_per_sec\": {:.1}, \"fused_checks\": {}, \
             \"all_valid\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {} }}",
            a.epoch,
            a.cache,
            a.audits,
            a.signatures,
            a.elapsed_ms,
            a.audits_per_sec,
            a.fused_checks,
            a.all_valid,
            a.cache_hits,
            a.cache_misses,
            a.cache_evictions
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"seccloud-bench-scale/v1\",\n  \"mode\": \"{}\",\n  \
         \"users\": {},\n  \"shards\": {},\n  \"audits_per_epoch\": {},\n  \
         \"active_users\": {},\n  \"sigs_per_audit\": {},\n  \"threads\": 1,\n  \
         \"enrollment_curve\": [\n{curve_rows}\n  ],\n  \
         \"commit_ms\": {:.1},\n  \"rotate_ms\": {:.1},\n  \
         \"audit_arms\": [\n{arm_rows}\n  ],\n  \
         \"cache_speedup\": {:.2},\n  \"peak_memory_kb\": {}\n}}\n",
        p.mode,
        p.users,
        p.shards,
        p.audits_per_epoch,
        p.active_users,
        p.sigs_per_audit,
        commit_ms,
        rotate_ms,
        speedup,
        peak_kb,
    );
    std::fs::write(&out_path, &json).expect("write scale report");
    println!("wrote {out_path}");
}
