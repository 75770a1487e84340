//! Socket-level sweep: the full audit protocol over real TCP, with and
//! without seeded socket chaos.
//!
//! The machine-checked invariants, now against a kernel socket instead of
//! a vector in memory:
//!
//! * an honest server behind a [`ChaosProxy`] at a 20% per-frame fault
//!   rate is audited **clean on every job** under `ResilientTransport`,
//!   while a computation cheater behind the same chaos is convicted on
//!   every job;
//! * each socket condition maps to the right [`WireError`] variant —
//!   mid-frame disconnect → `TruncatedFrame`, slow-loris stall →
//!   `Timeout`, oversized declared length → `FrameTooLarge`
//!   (non-transient, rejected before allocation) — on both the client and
//!   the server side of the connection;
//! * the chaos schedule is deterministic: a same-seed replay produces
//!   byte-identical deliveries;
//! * the client transport reconnects transparently across the server's
//!   per-connection request cap.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use seccloud::cloudsim::behavior::Behavior;
use seccloud::cloudsim::rpc::{encode_store_body, RpcError};
// lint: allow(transport, reason=the net runtime serves the raw trait; this suite wraps it in NetServer and dials it)
use seccloud::cloudsim::rpc::{WireServer, WireTransport};
use seccloud::cloudsim::{CloudServer, DesignatedAgency};
use seccloud::core::computation::{ComputationRequest, ComputeFunction, RequestItem};
use seccloud::core::storage::DataBlock;
use seccloud::core::wire::{WireError, WireMessage};
use seccloud::core::{CloudUser, Sio};
use seccloud::ibs::{UserPublic, VerifierPublic};
use seccloud::net::frame::{encode_frame, read_frame, FRAME_MAGIC};
use seccloud::net::{
    ChaosAction, ChaosConfig, ChaosEngine, ChaosProxy, NetClientConfig, NetResponse, NetServer,
    NetServerConfig, NetTransport,
};
use seccloud::resilience::{run_job_resilient, AuditResolution, ResilientTransport, RetryPolicy};

const N_BLOCKS: u64 = 12;

// --- world building -------------------------------------------------------

struct NetWorld {
    user: CloudUser,
    da: DesignatedAgency,
    server: NetServer,
    verifier: VerifierPublic,
    signer: UserPublic,
    da_public: VerifierPublic,
}

fn net_world(label: &[u8], behavior: Behavior) -> NetWorld {
    let sio = Sio::new(label);
    let user = sio.register("alice");
    let server = CloudServer::new(&sio, "cs", behavior, b"srv");
    let da = DesignatedAgency::new(&sio, "da", b"agency");
    let verifier = server.public().clone();
    let signer = server.signer_public().clone();
    let da_public = da.public().clone();
    // lint: allow(transport, reason=constructing the NetServer around the raw byte endpoints under test)
    let net = NetServer::spawn(WireServer::new(server), NetServerConfig::default())
        .expect("loopback bind");
    NetWorld {
        user,
        da,
        server: net,
        verifier,
        signer,
        da_public,
    }
}

fn client_for(addr: SocketAddr, world: &NetWorld) -> NetTransport {
    // lint: allow(transport, reason=the raw socket client is the object under test; resilient arms wrap it below)
    NetTransport::new(
        addr,
        world.verifier.clone(),
        world.signer.clone(),
        NetClientConfig::default(),
    )
}

fn signed_upload_body(world: &NetWorld) -> Vec<u8> {
    let blocks: Vec<DataBlock> = (0..N_BLOCKS)
        .map(|i| DataBlock::from_values(i, &[i * 7, i + 1]))
        .collect();
    let signed = world
        .user
        .sign_blocks(&blocks, &[&world.verifier, &world.da_public]);
    encode_store_body(&signed)
}

fn request() -> ComputationRequest {
    ComputationRequest::new(
        (0..N_BLOCKS / 2)
            .map(|i| RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![i, i + N_BLOCKS / 2],
            })
            .collect(),
    )
}

fn patient_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        max_rounds: 6,
        ..RetryPolicy::default()
    }
}

// --- resilient audits through live chaos ----------------------------------

#[test]
fn honest_server_through_chaos_is_clean_on_every_job() {
    let world = net_world(b"net-honest-chaos", Behavior::Honest);
    let proxy = ChaosProxy::spawn(
        world.server.addr(),
        ChaosConfig {
            seed: 42,
            fault_rate_pct: 20,
            stall_ms: 20,
        },
    )
    .expect("proxy bind");
    let client = client_for(proxy.addr(), &world);
    let mut transport = ResilientTransport::new(client, patient_policy(), b"net-honest");

    // Upload rides the same chaotic socket; the resilient layer retries
    // through whatever the proxy does to the frames.
    let body = signed_upload_body(&world);
    let accepted = transport
        .rpc_store(world.user.identity(), &body)
        .expect("resilient store");
    // A response-direction bit flip can mangle the *reported* count while
    // the request (delivered intact — flips only hit responses) stored all
    // twelve blocks; the audits below are the authoritative check.
    assert!(accepted <= N_BLOCKS);

    let req = request();
    let mut da = world.da;
    let jobs = 8;
    let mut clean = 0u32;
    for _ in 0..jobs {
        match run_job_resilient(&mut da, &mut transport, &world.user, &req, 3, 0) {
            AuditResolution::Clean { .. } => clean += 1,
            other => panic!("honest server under 20% chaos must audit clean, got {other:?}"),
        }
    }
    assert_eq!(clean, jobs, "every job must converge to a clean verdict");
    // The chaos actually fired: at 20% over dozens of frames, a fault-free
    // plan would mean the proxy was bypassed.
    let faults = proxy
        .plan()
        .iter()
        .filter(|e| e.action != ChaosAction::Deliver)
        .count();
    assert!(faults > 0, "no faults recorded — proxy not in the path?");
    proxy.shutdown();
    world.server.shutdown();
}

#[test]
fn cheater_through_chaos_is_still_convicted() {
    let world = net_world(
        b"net-cheater-chaos",
        Behavior::ComputationCheater {
            csc: 0.0,
            guess_range: None,
        },
    );
    let proxy = ChaosProxy::spawn(
        world.server.addr(),
        ChaosConfig {
            seed: 1337,
            fault_rate_pct: 20,
            stall_ms: 20,
        },
    )
    .expect("proxy bind");
    let client = client_for(proxy.addr(), &world);
    let mut transport = ResilientTransport::new(client, patient_policy(), b"net-cheater");

    let body = signed_upload_body(&world);
    // As in the honest case: the count may be flip-mangled in transit, the
    // storage itself is complete once the call returns Ok.
    assert!(
        transport
            .rpc_store(world.user.identity(), &body)
            .expect("resilient store")
            <= N_BLOCKS
    );

    let req = request();
    let mut da = world.da;
    for job in 0..4 {
        // Sample every item so a completed audit cannot miss the cheat.
        match run_job_resilient(&mut da, &mut transport, &world.user, &req, req.len(), 0) {
            AuditResolution::Detected { verdict, .. } => {
                assert!(verdict.detected, "conviction carries a detected verdict");
            }
            other => panic!("cheater must be convicted over chaos on job {job}, got {other:?}"),
        }
    }
    proxy.shutdown();
    world.server.shutdown();
}

// --- socket-condition → WireError mapping (client side) -------------------

/// Spawns a one-connection scripted peer; `script` gets the accepted
/// stream after the request frame has been read off it.
fn scripted_server(
    script: impl FnOnce(TcpStream) + Send + 'static,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(2_000)));
        let _ = read_frame(&mut stream); // consume the client's request
        script(stream);
    });
    (addr, handle)
}

fn fast_client(addr: SocketAddr) -> NetTransport {
    // lint: allow(transport, reason=error-mapping cases assert on the raw client, below any retry layer)
    NetTransport::new(
        addr,
        VerifierPublic::from_identity("cs"),
        UserPublic::from_identity("srv"),
        NetClientConfig {
            connect_timeout_ms: 1_000,
            read_timeout_ms: 200,
            write_timeout_ms: 1_000,
        },
    )
}

#[test]
fn mid_frame_disconnect_maps_to_truncated_frame() {
    let (addr, handle) = scripted_server(|mut stream| {
        let full = encode_frame(&NetResponse::Stored(1).to_wire());
        let _ = stream.write_all(&full[..full.len() / 2]);
        let _ = stream.flush();
        // Dropping the stream closes it mid-frame.
    });
    let mut client = fast_client(addr);
    let err = client
        .rpc_store("alice", &encode_store_body(&[]))
        .expect_err("cut frame must not decode");
    assert_eq!(err, RpcError::Malformed(WireError::TruncatedFrame));
    assert!(err.is_transient(), "mid-frame cut is channel weather");
    let _ = handle.join();
}

#[test]
fn slow_loris_stall_maps_to_timeout() {
    let (addr, handle) = scripted_server(|stream| {
        // Hold the connection open, never answer; outlive the client's
        // 200 ms read deadline.
        std::thread::sleep(Duration::from_millis(600));
        drop(stream);
    });
    let mut client = fast_client(addr);
    let err = client
        .rpc_store("alice", &encode_store_body(&[]))
        .expect_err("stalled peer must time out");
    assert_eq!(err, RpcError::Malformed(WireError::Timeout));
    assert!(err.is_transient(), "a missed deadline is retryable");
    let _ = handle.join();
}

#[test]
fn oversized_declared_length_maps_to_frame_too_large() {
    let (addr, handle) = scripted_server(|mut stream| {
        // A header declaring 4 GiB, with no payload behind it.
        let mut bomb = FRAME_MAGIC.to_vec();
        bomb.extend_from_slice(&u32::MAX.to_be_bytes());
        let _ = stream.write_all(&bomb);
        let _ = stream.flush();
        std::thread::sleep(Duration::from_millis(100));
    });
    let mut client = fast_client(addr);
    let err = client
        .rpc_store("alice", &encode_store_body(&[]))
        .expect_err("length bomb must be rejected");
    assert_eq!(err, RpcError::Malformed(WireError::FrameTooLarge));
    assert!(
        !err.is_transient(),
        "a declared-length bomb is composed, not weathered — never retried"
    );
    let _ = handle.join();
}

// --- server side of the same mapping --------------------------------------

#[test]
fn server_rejects_length_bomb_with_typed_error_then_closes() {
    let world = net_world(b"net-server-bomb", Behavior::Honest);
    let mut raw = TcpStream::connect(world.server.addr()).expect("dial");
    raw.set_read_timeout(Some(Duration::from_millis(2_000)))
        .expect("deadline");
    let mut bomb = FRAME_MAGIC.to_vec();
    bomb.extend_from_slice(&u32::MAX.to_be_bytes());
    raw.write_all(&bomb).expect("send bomb header");
    raw.flush().expect("flush");
    // The server answers with the typed error before hanging up.
    let payload = read_frame(&mut raw).expect("typed refusal");
    assert_eq!(
        NetResponse::from_wire(&payload).expect("decodes"),
        NetResponse::Failed(RpcError::Malformed(WireError::FrameTooLarge))
    );
    // ...and then the connection is gone: framing after a lying header is
    // unrecoverable.
    let mut rest = Vec::new();
    assert_eq!(raw.read_to_end(&mut rest).unwrap_or(0), 0);
    world.server.shutdown();
}

#[test]
fn server_answers_garbage_payload_with_typed_decode_error() {
    let world = net_world(b"net-server-garbage", Behavior::Honest);
    let mut raw = TcpStream::connect(world.server.addr()).expect("dial");
    raw.set_read_timeout(Some(Duration::from_millis(2_000)))
        .expect("deadline");
    raw.write_all(&encode_frame(b"not a request"))
        .expect("send garbage");
    raw.flush().expect("flush");
    let payload = read_frame(&mut raw).expect("typed response");
    match NetResponse::from_wire(&payload).expect("decodes") {
        NetResponse::Failed(RpcError::Malformed(_)) => {}
        other => panic!("expected a typed decode error, got {other:?}"),
    }
    // Framing stayed synchronized: the same connection still serves a
    // well-formed request afterwards.
    raw.write_all(&encode_frame(
        &seccloud::net::NetRequest::Retrieve {
            owner: "alice".into(),
            position: 0,
        }
        .to_wire(),
    ))
    .expect("send well-formed request");
    let payload = read_frame(&mut raw).expect("second response");
    assert_eq!(
        NetResponse::from_wire(&payload).expect("decodes"),
        NetResponse::Retrieved(None)
    );
    world.server.shutdown();
}

// --- determinism and reconnect --------------------------------------------

#[test]
fn same_seed_chaos_replay_is_byte_identical() {
    let frames: Vec<Vec<u8>> = (0u8..24)
        .map(|i| encode_frame(&vec![i; 5 + usize::from(i) * 11]))
        .collect();
    let config = ChaosConfig {
        seed: 99,
        fault_rate_pct: 50,
        stall_ms: 7,
    };
    let run = || {
        let mut out = Vec::new();
        for conn in 0..3u64 {
            let mut engine = ChaosEngine::new(&config, conn);
            for f in &frames {
                let action = engine.decide(f.len(), conn % 2 == 0);
                out.push((conn, action, engine.apply(action, f)));
            }
        }
        out
    };
    assert_eq!(run(), run(), "same seed must replay byte-identically");
}

#[test]
fn client_reconnects_across_server_request_cap() {
    let sio = Sio::new(b"net-reconnect");
    let user = sio.register("alice");
    let server = CloudServer::new(&sio, "cs", Behavior::Honest, b"srv");
    let da = DesignatedAgency::new(&sio, "da", b"agency");
    let verifier = server.public().clone();
    let signer = server.signer_public().clone();
    let blocks: Vec<DataBlock> = (0..4u64).map(|i| DataBlock::from_values(i, &[i])).collect();
    let signed = user.sign_blocks(&blocks, &[&verifier, da.public()]);
    // A tiny request cap: the server hangs up every two requests.
    let net = NetServer::spawn(
        // lint: allow(transport, reason=constructing the NetServer around the raw byte endpoints under test)
        WireServer::new(server),
        NetServerConfig {
            max_requests_per_conn: 2,
            ..NetServerConfig::default()
        },
    )
    .expect("bind");
    // lint: allow(transport, reason=reconnect behaviour is a property of the raw client itself)
    let mut client = NetTransport::new(net.addr(), verifier, signer, NetClientConfig::default());
    assert_eq!(
        client
            .rpc_store(user.identity(), &encode_store_body(&signed))
            .expect("store"),
        4
    );
    for round in 0..8u64 {
        let position = round % 4;
        let bytes = client
            .rpc_retrieve(user.identity(), position)
            .expect("retrieve");
        let block = seccloud::core::storage::SignedBlock::from_wire(&bytes).expect("decode");
        assert_eq!(block.block().index(), position);
    }
    assert!(
        client.reconnects() >= 4,
        "a cap of 2 requests/conn across 9 calls needs ≥4 dials, saw {}",
        client.reconnects()
    );
    net.shutdown();
}
