//! Integration tests for the extension layers: dynamic storage, the wire
//! format, byte-level RPC and concurrent auditing — composed through the
//! facade crate the way a downstream user would.

use seccloud::cloudsim::behavior::Behavior;
use seccloud::cloudsim::rpc::encode_store_body;
// lint: allow(transport, reason=byte-level baseline path exercised raw on purpose)
use seccloud::cloudsim::rpc::WireServer;
use seccloud::cloudsim::{AuditJob, CloudServer, DesignatedAgency};
use seccloud::core::computation::{ComputationRequest, ComputeFunction, RequestItem};
use seccloud::core::dynstore::{audit_dynamic, DynamicStore, OwnerLedger};
use seccloud::core::storage::DataBlock;
use seccloud::core::wire::WireMessage;
use seccloud::core::Sio;

fn request(n: u64) -> ComputationRequest {
    ComputationRequest::new(
        (0..n)
            .map(|i| RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![i],
            })
            .collect(),
    )
}

#[test]
fn full_document_lifecycle_with_dynamic_store() {
    let sio = Sio::new(b"ext-dyn");
    let user = sio.register("docs");
    let da = sio.register_verifier("da");
    let mut ledger = OwnerLedger::new();
    let mut store = DynamicStore::new();

    // Grow, mutate, shrink — audit stays clean throughout.
    for pos in 0..20u64 {
        store.put(user.dyn_insert(&mut ledger, pos, vec![pos as u8; 16], &[da.public()]));
    }
    for pos in (0..20u64).step_by(3) {
        store.put(user.dyn_update(&mut ledger, pos, vec![0xaa; 8], &[da.public()]));
    }
    for pos in (0..20u64).step_by(5) {
        user.dyn_delete(&mut ledger, pos);
        store.delete(pos);
    }
    assert!(audit_dynamic(da.key(), user.public(), &ledger, &store).is_empty());
    assert_eq!(ledger.live_count(), 16);

    // One silent drop is one violation.
    let victim = ledger.live_positions().next().unwrap();
    store.delete(victim);
    let violations = audit_dynamic(da.key(), user.public(), &ledger, &store);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].0, victim);
}

#[test]
fn rpc_and_concurrent_audits_compose() {
    let sio = Sio::new(b"ext-rpc");
    let user = sio.register("alice");
    let mut da = DesignatedAgency::new(&sio, "da", b"agency");

    // Byte-level path against one server…
    let cs = CloudServer::new(&sio, "cs-wire", Behavior::Honest, b"w");
    // lint: allow(transport, reason=byte-level baseline path exercised raw on purpose)
    let mut wire_server = WireServer::new(cs);
    let blocks: Vec<DataBlock> = (0..6u64)
        .map(|i| DataBlock::from_values(i, &[i * 11]))
        .collect();
    let signed = user.sign_blocks(&blocks, &[wire_server.inner().public(), da.public()]);
    wire_server
        .rpc_store(user.identity(), &encode_store_body(&signed))
        .unwrap();
    let req = request(6);
    let (job_id, commitment_bytes) = wire_server
        .rpc_compute(user.identity(), da.identity(), &req.to_wire())
        .unwrap();
    let verdict = da
        .audit_wire(
            &mut wire_server,
            &user,
            &req,
            job_id,
            &commitment_bytes,
            3,
            0,
        )
        .unwrap();
    assert!(!verdict.detected);

    // …and the in-memory concurrent path against a cheater + an honest one.
    let mut honest = CloudServer::new(&sio, "cs-honest", Behavior::Honest, b"h");
    let mut cheat = CloudServer::new(
        &sio,
        "cs-cheat",
        Behavior::ComputationCheater {
            csc: 0.0,
            guess_range: None,
        },
        b"c",
    );
    for server in [&mut honest, &mut cheat] {
        let signed = user.sign_blocks(&blocks, &[server.public(), da.public()]);
        server.store(&user, signed);
    }
    let h1 = honest
        .handle_computation(&user.identity().to_string(), &req, da.public())
        .unwrap();
    let h2 = cheat
        .handle_computation(&user.identity().to_string(), &req, da.public())
        .unwrap();
    let jobs = [
        AuditJob {
            server: &honest,
            handle: &h1,
            owner: &user,
        },
        AuditJob {
            server: &cheat,
            handle: &h2,
            owner: &user,
        },
    ];
    let verdicts = da.audit_many(&jobs, 6, 0);
    assert!(!verdicts[0].as_ref().unwrap().detected);
    assert!(verdicts[1].as_ref().unwrap().detected);
}

#[test]
fn wire_format_survives_the_ate_backend() {
    // Serialization of Gt values produced by the default (ate) pairing
    // round-trips and still verifies — pinning the backend switch.
    let sio = Sio::new(b"ext-ate-wire");
    let user = sio.register("alice");
    let cs = sio.register_verifier("cs");
    let block = DataBlock::from_values(0, &[1, 2, 3]);
    let signed = user.sign_block(&block, &[cs.public()], b"nonce");
    let decoded = seccloud::core::storage::SignedBlock::from_wire(&signed.to_wire()).unwrap();
    assert!(decoded.verify(cs.key(), user.public()));
}
