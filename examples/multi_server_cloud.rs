//! The full cloud model of paper Section III-A: a CSP splits a batch job
//! across a pool of servers under an SLA, a Byzantine adversary corrupts up
//! to `b` servers per epoch, and the DA audits every sub-task commitment —
//! batch-verifying signatures for efficiency (Section VI).
//!
//! ```text
//! cargo run --release --example multi_server_cloud
//! ```
//!
//! With `--net`, the same accountability story runs over real loopback
//! sockets: every server sits behind its own `NetServer`, a seeded
//! `ChaosProxy` injects 20% per-frame socket faults, and the DA audits
//! through `ResilientTransport` — Byzantine servers are still convicted,
//! honest ones still audit clean, and no socket fault is ever mistaken
//! for a cheat.
//!
//! ```text
//! cargo run --release --example multi_server_cloud -- --net
//! ```

use seccloud::cloudsim::{behavior::Behavior, Csp, DesignatedAgency, Sla};
use seccloud::core::computation::ComputeFunction;
use seccloud::core::storage::DataBlock;
use seccloud::core::Sio;
use seccloud::hash::HmacDrbg;

const SERVERS: usize = 5;
const BYZANTINE: usize = 2;
const BLOCKS: u64 = 40;

fn main() {
    if std::env::args().any(|a| a == "--net") {
        net::run_net_demo();
        return;
    }
    let sio = Sio::new(b"multi-server-demo");
    let lab = sio.register("genomics@lab.example");
    let mut da = DesignatedAgency::new(&sio, "da.audit.example", b"agency");
    let mut csp = Csp::new(
        &sio,
        SERVERS,
        Sla {
            max_subtasks_per_server: 16,
            replication: SERVERS, // full replication for scheduling freedom
            warrant_validity: 500,
        },
        b"pool",
    );

    // Upload: sign once, designated to every server and the DA.
    let dataset: Vec<DataBlock> = (0..BLOCKS)
        .map(|i| DataBlock::from_values(i, &[i * 13 % 97, i * 7 % 89, i]))
        .collect();
    let mut verifiers: Vec<_> = csp.servers().iter().map(|s| s.public().clone()).collect();
    verifiers.push(da.public().clone());
    let refs: Vec<&_> = verifiers.iter().collect();
    let placements = csp.store(&lab, &lab.sign_blocks(&dataset, &refs));
    println!("stored {BLOCKS} blocks × {SERVERS} replicas = {placements} placements");

    // A per-block statistics job, split across the pool.
    let request = Csp::plan_scan(&ComputeFunction::SumSquaredDeviation, BLOCKS, 5);
    let plan = csp.split_request(&request);
    println!(
        "job: {} sub-tasks split into {} slices across {} servers\n",
        request.len(),
        plan.len(),
        SERVERS
    );

    // The adversary corrupts a fresh subset each epoch.
    let mut adversary = HmacDrbg::new(b"byzantine-adversary");
    for epoch in 0..3u64 {
        csp.advance_epoch(
            BYZANTINE,
            Behavior::ComputationCheater {
                csc: 0.0,
                guess_range: None,
            },
            &mut adversary,
        );
        println!(
            "epoch {epoch}: adversary controls servers {:?}",
            csp.corrupted()
        );

        let executions = csp.execute(&lab, &request, da.public());
        let mut caught = Vec::new();
        for exec in &executions {
            let handle = exec.result.as_ref().expect("fully replicated");
            let verdict = da
                .audit(
                    &csp.servers()[exec.server_index],
                    handle,
                    &lab,
                    handle.request.len(), // full audit of each slice
                    epoch,
                )
                .expect("warranted audit");
            if verdict.detected {
                caught.push(exec.server_index);
            }
        }
        caught.sort_unstable();
        caught.dedup();
        println!("         audits flagged servers   {caught:?}");
        assert_eq!(
            caught,
            {
                let mut c = csp.corrupted();
                c.sort_unstable();
                c.retain(|i| executions.iter().any(|e| e.server_index == *i));
                c
            },
            "exactly the corrupted servers that received work are flagged"
        );
    }

    println!(
        "\nAcross every epoch the DA flagged exactly the Byzantine subset — \
         accountability is unambiguous (paper Section I: deciding whether the \
         provider or the user is responsible)."
    );
}

/// The `--net` mode: the pool speaks length-framed TCP on loopback, the
/// wire is actively hostile, and the verdicts do not change.
mod net {
    use seccloud::cloudsim::behavior::Behavior;
    use seccloud::cloudsim::rpc::encode_store_body;
    // lint: allow(transport, reason=the example wraps each raw endpoint in a NetServer and dials it over TCP)
    use seccloud::cloudsim::rpc::{WireServer, WireTransport};
    use seccloud::cloudsim::{CloudServer, DesignatedAgency};
    use seccloud::core::computation::{ComputationRequest, ComputeFunction, RequestItem};
    use seccloud::core::storage::DataBlock;
    use seccloud::core::Sio;
    use seccloud::net::{
        ChaosConfig, ChaosProxy, NetClientConfig, NetServer, NetServerConfig, NetTransport,
    };
    use seccloud::resilience::{
        run_job_resilient, AuditResolution, Op, ResilientTransport, RetryPolicy,
    };

    const SERVERS: usize = 5;
    const CHEATERS: [usize; 2] = [1, 3];
    const BLOCKS: u64 = 16;
    const FAULT_RATE_PCT: u32 = 20;

    pub fn run_net_demo() {
        let sio = Sio::new(b"multi-server-net-demo");
        let lab = sio.register("genomics@lab.example");
        let mut da = DesignatedAgency::new(&sio, "da.audit.example", b"agency");

        // One CloudServer per pool slot; the Byzantine subset cheats on
        // every computation.
        let servers: Vec<CloudServer> = (0..SERVERS)
            .map(|i| {
                let behavior = if CHEATERS.contains(&i) {
                    Behavior::ComputationCheater {
                        csc: 0.0,
                        guess_range: None,
                    }
                } else {
                    Behavior::Honest
                };
                CloudServer::new(&sio, &format!("cs{i}.pool.example"), behavior, b"pool")
            })
            .collect();

        // Sign the dataset once, designated to every server and the DA.
        let dataset: Vec<DataBlock> = (0..BLOCKS)
            .map(|i| DataBlock::from_values(i, &[i * 13 % 97, i * 7 % 89, i]))
            .collect();
        let mut verifiers: Vec<_> = servers.iter().map(|s| s.public().clone()).collect();
        verifiers.push(da.public().clone());
        let refs: Vec<&_> = verifiers.iter().collect();
        let signed = lab.sign_blocks(&dataset, &refs);
        let store_body = encode_store_body(&signed);

        // Stand the pool up on loopback: NetServer per server, a seeded
        // 20%-fault ChaosProxy in front of each, ResilientTransport on top.
        let mut stacks = Vec::new();
        for (i, server) in servers.into_iter().enumerate() {
            let verifier = server.public().clone();
            let signer = server.signer_public().clone();
            // lint: allow(transport, reason=the NetServer is constructed around the raw byte endpoint it serves)
            let net = NetServer::spawn(WireServer::new(server), NetServerConfig::default())
                .expect("loopback bind");
            let proxy = ChaosProxy::spawn(
                net.addr(),
                ChaosConfig {
                    seed: 7000 + i as u64,
                    fault_rate_pct: FAULT_RATE_PCT,
                    stall_ms: 10,
                },
            )
            .expect("proxy bind");
            let client =
                NetTransport::new(proxy.addr(), verifier, signer, NetClientConfig::default());
            let policy = RetryPolicy {
                max_attempts: 6,
                max_rounds: 6,
            };
            let transport = ResilientTransport::new(client, policy, &(i as u64).to_be_bytes());
            stacks.push((net, proxy, transport));
        }
        println!(
            "pool up: {SERVERS} servers on loopback TCP, each behind a \
             {FAULT_RATE_PCT}% socket-fault proxy (cheaters: {CHEATERS:?})"
        );

        // Upload over the chaotic wire — the resilient layer retries every
        // dropped, stalled, or cut frame.
        for (_, _, transport) in stacks.iter_mut() {
            transport
                .rpc_store(lab.identity(), &store_body)
                .expect("resilient store over chaos");
        }
        println!("stored {BLOCKS} blocks × {SERVERS} replicas over the wire");

        // The same per-block statistics job on every replica, audited with
        // full sampling so a completed audit cannot miss a cheat.
        let request = ComputationRequest::new(
            (0..BLOCKS)
                .map(|i| RequestItem {
                    function: ComputeFunction::SumSquaredDeviation,
                    positions: vec![i],
                })
                .collect(),
        );
        let mut caught = Vec::new();
        for (i, (_, _, transport)) in stacks.iter_mut().enumerate() {
            let resolution =
                run_job_resilient(&mut da, transport, &lab, &request, request.len(), 0);
            let faults: u64 = [Op::Store, Op::Compute, Op::Audit, Op::Retrieve]
                .iter()
                .map(|&op| transport.stats(op).transient_faults)
                .sum();
            match resolution {
                AuditResolution::Clean { .. } => {
                    println!("server {i}: audit clean      ({faults} socket faults absorbed)");
                }
                AuditResolution::Detected { .. } => {
                    println!("server {i}: CHEAT CONVICTED  ({faults} socket faults absorbed)");
                    caught.push(i);
                }
                AuditResolution::Unresolved { reason, .. } => {
                    panic!("server {i}: audit unresolved over loopback chaos: {reason}");
                }
            }
        }
        assert_eq!(
            caught,
            CHEATERS.to_vec(),
            "exactly the Byzantine subset is convicted over real sockets"
        );

        for (net, proxy, _) in stacks {
            proxy.shutdown();
            net.shutdown();
        }
        println!(
            "\nSame verdicts as the in-memory run: socket chaos is absorbed by \
             the resilience layer, cheating is not — the taxonomy keeps \
             channel weather and Byzantine behaviour apart."
        );
    }
}
