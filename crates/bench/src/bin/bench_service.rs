//! Writes `BENCH_service.json` — loopback RPC latency histograms and audit
//! success rates over real sockets, with and without the resilience layer,
//! at socket-fault rates of 0% and 20%.
//!
//! Each honest cell spins up a fresh [`NetServer`] over an honest
//! pre-loaded `WireServer`, parks a seeded [`ChaosProxy`] in front of it,
//! and drives dispatch + full-sample audit jobs through a [`NetTransport`]
//! dialing the proxy. The *raw* arm calls the socket transport directly —
//! every surviving fault is a lost audit; the *resilient* arm runs the
//! same jobs through `ResilientTransport` + `run_job_resilient`. Per-job
//! wall-clock latency lands in p50/p99/p999 percentiles (these are real
//! kernel-socket round trips, not virtual time). A final conviction cell
//! repeats the resilient arm against a computation cheater at 20% faults —
//! the number that matters is `convicted_rate: 1.0`: chaos must never
//! launder a cheat.
//!
//! Run with `cargo run --release -p seccloud-bench --bin bench_service`.
//! `--smoke` shrinks the run to CI size; `--out PATH` redirects the JSON
//! (default `BENCH_service.json` in the current directory).
#![forbid(unsafe_code)]

use std::time::Instant;

use seccloud_cloudsim::behavior::Behavior;
// lint: allow(transport, reason=baseline arm of the with/without comparison)
use seccloud_cloudsim::rpc::{WireServer, WireTransport};
use seccloud_cloudsim::{CloudServer, DesignatedAgency};
use seccloud_core::computation::{ComputationRequest, ComputeFunction, RequestItem};
use seccloud_core::storage::DataBlock;
use seccloud_core::wire::WireMessage;
use seccloud_core::{CloudUser, Sio};
use seccloud_net::{
    ChaosAction, ChaosConfig, ChaosProxy, NetClientConfig, NetServer, NetServerConfig, NetTransport,
};
use seccloud_resilience::{run_job_resilient, ResilientTransport, RetryPolicy};

const N_BLOCKS: u64 = 12;
const FAULT_RATES_PCT: [u32; 2] = [0, 20];

struct Params {
    mode: &'static str,
    jobs: usize,
    conviction_jobs: usize,
}

impl Params {
    fn full() -> Self {
        Self {
            mode: "full",
            jobs: 50,
            conviction_jobs: 10,
        }
    }

    fn smoke() -> Self {
        Self {
            mode: "smoke",
            jobs: 8,
            conviction_jobs: 3,
        }
    }
}

/// One measured cell of the rate × arm grid.
struct Cell {
    fault_rate_pct: u32,
    arm: &'static str,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    mean_us: f64,
    success_rate: f64,
    faults_injected: usize,
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

/// A pre-loaded server behind a `NetServer` + `ChaosProxy` stack. The
/// upload happens before the sockets exist so every cell measures only the
/// dispatch + audit path.
struct ServiceWorld {
    user: CloudUser,
    da: DesignatedAgency,
    server: NetServer,
    proxy: ChaosProxy,
    client: NetTransport,
}

fn world(behavior: Behavior, seed: u64, fault_rate_pct: u32) -> ServiceWorld {
    let sio = Sio::new(b"bench-service");
    let user = sio.register("alice");
    let mut server = CloudServer::new(&sio, "cs", behavior, b"srv");
    let da = DesignatedAgency::new(&sio, "da", b"agency");
    let blocks: Vec<DataBlock> = (0..N_BLOCKS)
        .map(|i| DataBlock::from_values(i, &[i * 7, i + 1]))
        .collect();
    let signed = user.sign_blocks(&blocks, &[server.public(), da.public()]);
    assert_eq!(server.store(&user, signed), N_BLOCKS as usize);
    let verifier = server.public().clone();
    let signer = server.signer_public().clone();
    // lint: allow(transport, reason=the harness builds the socket stack around the raw byte endpoints)
    let net = NetServer::spawn(WireServer::new(server), NetServerConfig::default())
        .expect("loopback bind");
    let proxy = ChaosProxy::spawn(
        net.addr(),
        ChaosConfig {
            seed,
            fault_rate_pct,
            stall_ms: 20,
        },
    )
    .expect("proxy bind");
    // lint: allow(transport, reason=the socket client is the system under measurement; the resilient arm wraps it)
    let client = NetTransport::new(proxy.addr(), verifier, signer, NetClientConfig::default());
    ServiceWorld {
        user,
        da,
        server: net,
        proxy,
        client,
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_us
        .get(idx.min(sorted_us.len() - 1))
        .copied()
        .unwrap_or(0)
}

fn injected_faults(proxy: &ChaosProxy) -> usize {
    proxy
        .plan()
        .iter()
        .filter(|e| e.action != ChaosAction::Deliver)
        .count()
}

fn cell_from(
    fault_rate_pct: u32,
    arm: &'static str,
    mut latencies_us: Vec<u64>,
    ok: usize,
    jobs: usize,
    faults_injected: usize,
) -> Cell {
    latencies_us.sort_unstable();
    let mean = latencies_us.iter().sum::<u64>() as f64 / latencies_us.len().max(1) as f64;
    Cell {
        fault_rate_pct,
        arm,
        p50_us: percentile(&latencies_us, 50.0),
        p99_us: percentile(&latencies_us, 99.0),
        p999_us: percentile(&latencies_us, 99.9),
        mean_us: mean,
        success_rate: ok as f64 / jobs.max(1) as f64,
        faults_injected,
    }
}

/// The baseline: the raw socket transport, one shot per job.
fn raw_arm(fault_rate_pct: u32, seed: u64, jobs: usize) -> Cell {
    let mut w = world(Behavior::Honest, seed, fault_rate_pct);
    let mut latencies = Vec::with_capacity(jobs);
    let mut ok = 0usize;
    for job in 0..jobs {
        let req = request(2 + job as u64);
        let start = Instant::now();
        let outcome = w
            .client
            .rpc_compute(w.user.identity(), w.da.identity(), &req.to_wire())
            .and_then(|(job_id, commitment)| {
                w.da.audit_wire(
                    &mut w.client,
                    &w.user,
                    &req,
                    job_id,
                    &commitment,
                    req.len(),
                    0,
                )
            });
        latencies.push(start.elapsed().as_micros() as u64);
        if matches!(&outcome, Ok(v) if !v.detected) {
            ok += 1;
        }
    }
    let faults = injected_faults(&w.proxy);
    w.proxy.shutdown();
    w.server.shutdown();
    cell_from(fault_rate_pct, "raw", latencies, ok, jobs, faults)
}

/// The resilient arm: the same jobs through the recovery runtime.
fn resilient_arm(fault_rate_pct: u32, seed: u64, jobs: usize) -> Cell {
    let mut w = world(Behavior::Honest, seed, fault_rate_pct);
    let policy = RetryPolicy {
        max_attempts: 6,
        max_rounds: 6,
        ..RetryPolicy::default()
    };
    let mut transport = ResilientTransport::new(w.client, policy, &seed.to_be_bytes());
    let mut latencies = Vec::with_capacity(jobs);
    let mut ok = 0usize;
    for job in 0..jobs {
        let req = request(2 + job as u64);
        let start = Instant::now();
        let res = run_job_resilient(&mut w.da, &mut transport, &w.user, &req, req.len(), 0);
        latencies.push(start.elapsed().as_micros() as u64);
        if res.is_clean() {
            ok += 1;
        }
    }
    let faults = injected_faults(&w.proxy);
    w.proxy.shutdown();
    w.server.shutdown();
    cell_from(fault_rate_pct, "resilient", latencies, ok, jobs, faults)
}

/// Conviction preservation: a deterministic computation cheater behind the
/// same 20% chaos, audited through the resilient runtime.
fn conviction_rate(seed: u64, jobs: usize) -> f64 {
    let mut w = world(
        Behavior::ComputationCheater {
            csc: 0.0,
            guess_range: None,
        },
        seed,
        20,
    );
    let policy = RetryPolicy {
        max_attempts: 6,
        max_rounds: 6,
        ..RetryPolicy::default()
    };
    let mut transport = ResilientTransport::new(w.client, policy, &seed.to_be_bytes());
    let mut convicted = 0usize;
    for job in 0..jobs {
        let req = request(2 + job as u64);
        let res = run_job_resilient(&mut w.da, &mut transport, &w.user, &req, req.len(), 0);
        if matches!(res, seccloud_resilience::AuditResolution::Detected { .. }) {
            convicted += 1;
        }
    }
    w.proxy.shutdown();
    w.server.shutdown();
    convicted as f64 / jobs.max(1) as f64
}

fn main() {
    let mut p = Params::full();
    let mut out_path = "BENCH_service.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => p = Params::smoke(),
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown flag {other}"),
        }
    }

    let mut cells = Vec::new();
    for (i, &rate) in FAULT_RATES_PCT.iter().enumerate() {
        let seed = 101 + i as u64;
        let raw = raw_arm(rate, seed, p.jobs);
        let res = resilient_arm(rate, seed, p.jobs);
        println!(
            "rate {rate:>3}%: raw p50 {:>6} µs p99 {:>7} µs ({:>5.1}% ok, {} faults) | \
             resilient p50 {:>6} µs p99 {:>7} µs ({:>5.1}% ok, {} faults)",
            raw.p50_us,
            raw.p99_us,
            raw.success_rate * 100.0,
            raw.faults_injected,
            res.p50_us,
            res.p99_us,
            res.success_rate * 100.0,
            res.faults_injected,
        );
        cells.push(raw);
        cells.push(res);
    }
    let convicted = conviction_rate(211, p.conviction_jobs);
    println!(
        "cheater at 20% faults: convicted on {:.0}% of jobs",
        convicted * 100.0
    );

    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"fault_rate_pct\": {}, \"arm\": \"{}\", \"p50_us\": {}, \"p99_us\": {}, \
             \"p999_us\": {}, \"mean_us\": {:.1}, \"success_rate\": {:.4}, \
             \"faults_injected\": {} }}",
            c.fault_rate_pct,
            c.arm,
            c.p50_us,
            c.p99_us,
            c.p999_us,
            c.mean_us,
            c.success_rate,
            c.faults_injected,
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"seccloud-bench-service/v1\",\n  \"mode\": \"{}\",\n  \
         \"jobs_per_cell\": {},\n  \"threads\": {},\n  \"cells\": [\n{rows}\n  ],\n  \
         \"conviction\": {{ \"fault_rate_pct\": 20, \"arm\": \"resilient\", \"jobs\": {}, \
         \"convicted_rate\": {:.4} }}\n}}\n",
        p.mode,
        p.jobs,
        seccloud_parallel::num_threads(),
        p.conviction_jobs,
        convicted,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_service.json");
    println!("\nwrote {out_path} ({} cells)", cells.len());
}
