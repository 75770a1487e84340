//! Writes `BENCH_resilience.json` — audit latency, throughput and success
//! rate with and without the resilience layer, at channel fault rates of
//! 0%, 5% and 20%.
//!
//! Each cell runs the same workload — dispatch a weighted-sum job, then a
//! full-sample audit — against one honest server behind a seeded
//! `FaultyChannel`. The *raw* arm drives the wire directly (one fault =
//! one lost or spuriously-failed audit); the *resilient* arm goes through
//! `ResilientTransport` + `run_job_resilient`, which retries structural
//! damage and escalates semantic damage. The interesting numbers are the
//! success-rate gap at 20% faults and the latency the recovery layer pays
//! for it.
//!
//! Run with `cargo run --release -p seccloud-bench --bin resilience`.
//! The file lands in the current working directory.
#![forbid(unsafe_code)]

use seccloud_bench::measure_ms;
use seccloud_cloudsim::behavior::Behavior;
// lint: allow(transport, reason=baseline arm of the with/without comparison)
use seccloud_cloudsim::rpc::{WireServer, WireTransport};
use seccloud_cloudsim::{CloudServer, DesignatedAgency};
use seccloud_core::computation::{ComputationRequest, ComputeFunction, RequestItem};
use seccloud_core::storage::DataBlock;
use seccloud_core::wire::WireMessage;
use seccloud_core::{CloudUser, Sio};
use seccloud_resilience::{run_job_resilient, Op, ResilientTransport, RetryPolicy};
use seccloud_testkit::fault::FaultyChannel;

const N_BLOCKS: u64 = 12;
const JOBS: usize = 40;
const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// One measured cell of the rate × arm grid.
struct Cell {
    fault_rate: f64,
    arm: &'static str,
    mean_ms_per_audit: f64,
    success_rate: f64,
    faults_injected: usize,
    recovered_transients: u64,
    escalations: u64,
}

fn request(weight: u64) -> ComputationRequest {
    ComputationRequest::new(
        (0..4u64)
            .map(|i| RequestItem {
                function: ComputeFunction::WeightedSum(vec![weight, weight + 1]),
                positions: vec![i % N_BLOCKS],
            })
            .collect(),
    )
}

/// One honest server pre-loaded with blocks (the upload is out-of-band so
/// both arms measure only the dispatch + audit path), behind a seeded
/// fault channel.
// lint: allow(transport, reason=baseline arm of the with/without comparison)
fn world(seed: u64, rate: f64) -> (CloudUser, DesignatedAgency, FaultyChannel<WireServer>) {
    let sio = Sio::new(b"bench-resilience");
    let user = sio.register("alice");
    let mut server = CloudServer::new(&sio, "cs", Behavior::Honest, b"srv");
    let da = DesignatedAgency::new(&sio, "da", b"agency");
    let blocks: Vec<DataBlock> = (0..N_BLOCKS)
        .map(|i| DataBlock::from_values(i, &[i * 7, i + 1]))
        .collect();
    let signed = user.sign_blocks(&blocks, &[server.public(), da.public()]);
    assert_eq!(server.store(&user, signed), N_BLOCKS as usize);
    // lint: allow(transport, reason=baseline arm of the with/without comparison)
    let channel = FaultyChannel::new(WireServer::new(server), seed, rate);
    (user, da, channel)
}

/// The baseline: drive the raw wire. Every structural fault is a lost
/// audit; every surviving replay is (at best) a spurious detection.
fn raw_arm(rate: f64, seed: u64) -> Cell {
    let (user, mut da, mut channel) = world(seed, rate);
    let mut ok = 0usize;
    let mut weight = 2u64;
    let total_ms = measure_ms(0, 1, || {
        for _ in 0..JOBS {
            let req = request(weight);
            weight += 1;
            let outcome = channel
                .rpc_compute(user.identity(), da.identity(), &req.to_wire())
                .and_then(|(job_id, commitment)| {
                    da.audit_wire(&mut channel, &user, &req, job_id, &commitment, req.len(), 0)
                });
            if matches!(&outcome, Ok(v) if !v.detected) {
                ok += 1;
            }
        }
    });
    Cell {
        fault_rate: rate,
        arm: "raw",
        mean_ms_per_audit: total_ms / JOBS as f64,
        success_rate: ok as f64 / JOBS as f64,
        faults_injected: channel.plan().injected.len(),
        recovered_transients: 0,
        escalations: 0,
    }
}

/// The resilient arm: the same workload through the recovery runtime.
fn resilient_arm(rate: f64, seed: u64) -> Cell {
    let (user, mut da, channel) = world(seed, rate);
    let mut transport =
        ResilientTransport::new(channel, RetryPolicy::default(), &seed.to_be_bytes());
    let mut ok = 0usize;
    let mut escalations = 0u64;
    let mut weight = 2u64;
    let total_ms = measure_ms(0, 1, || {
        for _ in 0..JOBS {
            let req = request(weight);
            weight += 1;
            let res = run_job_resilient(&mut da, &mut transport, &user, &req, req.len(), 0);
            escalations += res.stats().escalations;
            if res.is_clean() {
                ok += 1;
            }
        }
    });
    let faults_injected = transport.inner().plan().injected.len();
    // Transport-level (tier-1) retries: faults healed inside single RPCs.
    let transients: u64 = [Op::Store, Op::Compute, Op::Audit, Op::Retrieve]
        .into_iter()
        .map(|op| transport.stats(op).transient_faults)
        .sum();
    Cell {
        fault_rate: rate,
        arm: "resilient",
        mean_ms_per_audit: total_ms / JOBS as f64,
        success_rate: ok as f64 / JOBS as f64,
        faults_injected,
        recovered_transients: transients,
        escalations,
    }
}

fn main() {
    let mut cells = Vec::new();
    for (i, &rate) in FAULT_RATES.iter().enumerate() {
        let seed = 11 + i as u64;
        let raw = raw_arm(rate, seed);
        let res = resilient_arm(rate, seed);
        println!(
            "rate {:>4.0}%: raw {:>7.2} ms/audit ({:>5.1}% ok, {} faults) | \
             resilient {:>7.2} ms/audit ({:>5.1}% ok, {} faults, {} retried, {} escalations)",
            rate * 100.0,
            raw.mean_ms_per_audit,
            raw.success_rate * 100.0,
            raw.faults_injected,
            res.mean_ms_per_audit,
            res.success_rate * 100.0,
            res.faults_injected,
            res.recovered_transients,
            res.escalations,
        );
        cells.push(raw);
        cells.push(res);
    }

    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"fault_rate\": {:.2}, \"arm\": \"{}\", \"mean_ms_per_audit\": {:.4}, \
             \"audits_per_sec\": {:.3}, \"success_rate\": {:.4}, \"faults_injected\": {}, \
             \"recovered_transients\": {}, \"escalations\": {} }}",
            c.fault_rate,
            c.arm,
            c.mean_ms_per_audit,
            1_000.0 / c.mean_ms_per_audit,
            c.success_rate,
            c.faults_injected,
            c.recovered_transients,
            c.escalations,
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"seccloud-bench-resilience/v1\",\n  \"jobs_per_cell\": {JOBS},\n  \
         \"threads\": {},\n  \"cells\": [\n{rows}\n  ]\n}}\n",
        seccloud_parallel::num_threads(),
    );
    std::fs::write("BENCH_resilience.json", &json).expect("write BENCH_resilience.json");
    println!("\nwrote BENCH_resilience.json ({} cells)", cells.len());
}
