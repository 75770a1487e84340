//! Storage-security scenario (paper's Storage-Cheating Model): a hospital
//! archives patient telemetry in the cloud; one server silently corrupts
//! rarely-accessed blocks and another deletes them. The designated agency's
//! storage audit (Protocol II, eq. 5) catches both, and the batch verifier
//! does it with a single pairing.
//!
//! ```text
//! cargo run --release --example storage_audit
//! ```

use seccloud::cloudsim::behavior::{Behavior, StorageAttack};
use seccloud::cloudsim::CloudServer;
use seccloud::core::storage::{audit_blocks, DataBlock};
use seccloud::core::Sio;

fn main() {
    let sio = Sio::new(b"storage-audit-demo");
    let hospital = sio.register("records@hospital.example");
    let da = sio.register_verifier("da.audit.example");

    // Three servers with different behaviours hold replicas.
    let mut honest = CloudServer::new(&sio, "cs-good", Behavior::Honest, b"s1");
    let mut corrupting = CloudServer::new(
        &sio,
        "cs-bitrot",
        Behavior::StorageCheater {
            ssc: 0.5,
            attack: StorageAttack::Corrupt,
        },
        b"s2",
    );
    let mut deleting = CloudServer::new(
        &sio,
        "cs-cheap",
        Behavior::StorageCheater {
            ssc: 0.5,
            attack: StorageAttack::Delete,
        },
        b"s3",
    );

    let records: Vec<DataBlock> = (0..32u64)
        .map(|i| DataBlock::from_values(i, &[98 + i % 4, 120 + i % 9, 80 + i % 6]))
        .collect();
    for server in [&mut honest, &mut corrupting, &mut deleting] {
        let signed = hospital.sign_blocks(&records, &[server.public(), da.public()]);
        let kept = server.store(&hospital, signed);
        println!("{}: accepted {kept}/32 blocks", server.identity());
    }

    // The DA audits each replica by retrieving every block and verifying
    // its designated signature.
    println!("\n== per-server storage audit (DA key, eq. 5) ==");
    for server in [&honest, &corrupting, &deleting] {
        let retrieved: Vec<_> = (0..32u64)
            .filter_map(|p| server.retrieve(hospital.identity(), p).cloned())
            .collect();
        let missing = 32 - retrieved.len();
        // One batched pairing for the whole replica set; the per-block
        // checks run only to name the corrupted blocks.
        let report = audit_blocks(da.key(), hospital.public(), &retrieved);
        println!(
            "{:>10}: {} retrieved, {} missing, {} corrupted → {}",
            server.identity(),
            retrieved.len(),
            missing,
            report.failed.len(),
            if report.is_valid() && missing == 0 {
                "HEALTHY"
            } else {
                "DAMAGED"
            }
        );
    }

    // Shape assertions for the demo.
    let honest_blocks: Vec<_> = (0..32u64)
        .filter_map(|p| honest.retrieve(hospital.identity(), p).cloned())
        .collect();
    assert_eq!(honest_blocks.len(), 32);
    assert!(audit_blocks(da.key(), hospital.public(), &honest_blocks).is_valid());

    let damaged: Vec<_> = (0..32u64)
        .filter_map(|p| corrupting.retrieve(hospital.identity(), p).cloned())
        .collect();
    assert!(!audit_blocks(da.key(), hospital.public(), &damaged).is_valid());
    assert!(deleting.stored_count(hospital.identity()) < 32);

    println!("\nThe honest replica passes; corruption and deletion are both exposed.");
}
