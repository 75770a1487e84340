//! `storage-rw`: block uploads and sampled storage audits of 16 KiB blocks
//! over a loopback socket, in the fixed order write, read, read, read.

use std::time::Instant;

use seccloud_cloudsim::behavior::{Behavior, StorageAttack};
use seccloud_cloudsim::rpc::encode_store_body;
use seccloud_cloudsim::{CloudServer, DesignatedAgency};
use seccloud_core::storage::{DataBlock, SignedBlock};
use seccloud_core::wire::WireMessage;
use seccloud_core::{CloudUser, Sio};
use seccloud_hash::HmacDrbg;
use seccloud_ibs::VerifierPublic;

use crate::shim::{deploy, Stack};
use crate::trace;
use crate::{Counters, Verdict, Workload};

/// Sizes of one storage world.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// Blocks stored before the run.
    pub blocks: u64,
    /// Bytes per block.
    pub block_bytes: usize,
    /// Blocks per write.
    pub write_blocks: u64,
    /// Blocks challenged per read (`t`).
    pub sample: usize,
}

pub const FULL: Sizes = Sizes {
    blocks: 256,
    block_bytes: 16 * 1024,
    write_blocks: 4,
    sample: 16,
};

pub const SMOKE: Sizes = Sizes {
    blocks: 16,
    block_bytes: 1024,
    write_blocks: 2,
    sample: 4,
};

/// Distinct block payloads the run cycles through.
const PAYLOADS: usize = 16;

/// Reads per write in the repeating op order.
const READS_PER_WRITE: u64 = 3;

/// The seeded inputs: block payloads.
pub struct Inputs {
    sizes: Sizes,
    seed: u64,
    payloads: Vec<Vec<u8>>,
}

pub fn inputs(sizes: Sizes, seed: u64) -> Inputs {
    let mut drbg = HmacDrbg::new(&[b"benchmark/storage/".as_slice(), &seed.to_be_bytes()].concat());
    let payloads = (0..PAYLOADS)
        .map(|_| drbg.next_bytes(sizes.block_bytes))
        .collect();
    Inputs {
        sizes,
        seed,
        payloads,
    }
}

impl Inputs {
    fn blocks_from(&self, from: u64, count: u64) -> Vec<DataBlock> {
        (from..from + count)
            .map(|i| DataBlock::new(i, self.payloads[i as usize % PAYLOADS].clone()))
            .collect()
    }
}

/// One storage world: owner, agency, a server holding the owner's blocks,
/// and the socket stack in front of it.
pub struct Storage<'a> {
    inputs: &'a Inputs,
    user: CloudUser,
    da: DesignatedAgency,
    server_public: VerifierPublic,
    stack: Stack,
    /// Blocks stored so far; the next write starts at this index.
    stored: u64,
}

/// Builds the world: keys, the owner signs and uploads the first blocks,
/// the server starts serving.
pub fn build_world<'a>(
    inputs: &'a Inputs,
    behavior: Behavior,
    trace: Option<Instant>,
) -> Result<Storage<'a>, String> {
    let seed = inputs.seed.to_be_bytes();
    let sio = Sio::new(&[b"benchmark/storage/sio/".as_slice(), &seed].concat());
    let user = sio.register("owner");
    let mut server = CloudServer::new(&sio, "cs", behavior, &seed);
    let da = DesignatedAgency::new(&sio, "da", &seed);
    let blocks = inputs.blocks_from(0, inputs.sizes.blocks);
    let signed = user.sign_blocks(&blocks, &[server.public(), da.public()]);
    let stored = server.store(&user, signed);
    if stored != blocks.len() {
        return Err(format!(
            "server accepted {stored} of {} uploaded blocks",
            blocks.len()
        ));
    }
    let server_public = server.public().clone();
    let stack = deploy(server, None, &seed, trace).map_err(|e| e.to_string())?;
    Ok(Storage {
        inputs,
        user,
        da,
        server_public,
        stack,
        stored: inputs.sizes.blocks,
    })
}

impl Storage<'_> {
    /// Signs the next blocks and stores them; every block must be accepted.
    fn write_op(&mut self) -> Verdict {
        let count = self.inputs.sizes.write_blocks;
        let blocks = self.inputs.blocks_from(self.stored, count);
        let signed = trace::span("core.sign_blocks", || {
            self.user
                .sign_blocks(&blocks, &[&self.server_public, self.da.public()])
        });
        let body = trace::span("core.encode", || encode_store_body(&signed));
        let owner = self.user.identity();
        match trace::span("resilience.call", || {
            self.stack.client.call_store(owner, &body)
        }) {
            Ok(n) if n == count => {
                self.stored += count;
                Verdict::Clean
            }
            _ => Verdict::Failed,
        }
    }

    /// A sampled storage audit with the checks of `storage_audit_wire`:
    /// every challenged block must come back, decode, sit at its index and
    /// verify under the agency's key.
    fn read_op(&mut self) -> Verdict {
        let t = self.inputs.sizes.sample.min(self.stored as usize);
        let stored = self.stored as usize;
        let positions = trace::span("core.challenge", || {
            self.da.sample_challenge(stored, t).indices
        });
        let owner = self.user.identity();
        let mut healthy = true;
        for pos in positions {
            let pos = pos as u64;
            let Some(bytes) = trace::span("resilience.call", || {
                self.stack.client.call_retrieve(owner, pos)
            }) else {
                healthy = false;
                continue;
            };
            let Ok(block) = trace::span("core.decode", || SignedBlock::from_wire(&bytes)) else {
                healthy = false;
                continue;
            };
            healthy &= block.block().index() == pos
                && trace::span("core.block_verify", || {
                    block.verify(self.da.credential().key(), self.user.public())
                });
        }
        if healthy {
            Verdict::Clean
        } else {
            Verdict::Detected
        }
    }
}

impl Workload for Storage<'_> {
    fn run_op(&mut self, index: u64) -> Verdict {
        if index.is_multiple_of(READS_PER_WRITE + 1) {
            self.write_op()
        } else {
            self.read_op()
        }
    }

    fn counters(&self) -> Counters {
        let (attempts, transient_faults) = self.stack.client.attempts_and_faults();
        Counters {
            attempts,
            transient_faults,
            reconnects: self.stack.client.socket_reconnects(),
            shed: self.stack.shed(),
            payload_bytes: self.stack.client.payload_bytes(),
            ..Counters::default()
        }
    }

    fn tear_down(self: Box<Self>) -> Vec<trace::Span> {
        self.stack.tear_down()
    }
}

/// A server that corrupts every block it ingests: a read must come back
/// unhealthy.
pub fn corruption_is_detected(inputs: &Inputs) -> Result<(), String> {
    let cheater = Behavior::StorageCheater {
        ssc: 0.0,
        attack: StorageAttack::Corrupt,
    };
    let mut world = build_world(inputs, cheater, None)?;
    let verdict = world.read_op();
    Box::new(world).tear_down();
    if verdict == Verdict::Detected {
        Ok(())
    } else {
        Err(format!("a corrupting server passed a read: {verdict:?}"))
    }
}
