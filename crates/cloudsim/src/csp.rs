//! The Cloud Service Provider: task splitting across servers under SLAs
//! (paper Section III-A), with epoch-based Byzantine corruption
//! (Section III-B: "our adversary controls at most b servers for any given
//! epoch").

use seccloud_core::computation::{ComputationRequest, RequestItem};
use seccloud_core::storage::SignedBlock;
use seccloud_core::{CloudUser, Sio};
use seccloud_hash::HmacDrbg;

use crate::behavior::Behavior;
use crate::server::{CloudServer, JobHandle, ServerError};

/// A customized Service Level Agreement governing how the CSP allocates
/// resources for a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sla {
    /// Maximum sub-tasks handed to one server per request.
    pub max_subtasks_per_server: usize,
    /// How many servers each stored block is replicated to.
    pub replication: usize,
    /// Validity window granted to audit warrants (logical time units).
    pub warrant_validity: u64,
}

impl Default for Sla {
    fn default() -> Self {
        Self {
            max_subtasks_per_server: 64,
            replication: 2,
            warrant_validity: 1_000,
        }
    }
}

/// The outcome of dispatching one sub-request to one server.
#[derive(Debug)]
pub struct SubTaskExecution {
    /// Index of the executing server in the pool.
    pub server_index: usize,
    /// The original request-item indices this server handled.
    pub item_indices: Vec<usize>,
    /// The server's job handle (request slice + commitment), or the error
    /// it returned.
    pub result: Result<JobHandle, ServerError>,
}

/// A cloud service provider fronting a pool of servers.
///
/// "CSP could divide such a task into multiple sub-task and allow them
/// parallelly executed across hundreds of Cloud Computing servers."
pub struct Csp {
    servers: Vec<CloudServer>,
    sla: Sla,
    epoch: u64,
}

impl std::fmt::Debug for Csp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Csp")
            .field("servers", &self.servers.len())
            .field("epoch", &self.epoch)
            .field("sla", &self.sla)
            .finish()
    }
}

impl Csp {
    /// Spins up `n` honest servers registered with the SIO.
    pub fn new(sio: &Sio, n: usize, sla: Sla, seed: &[u8]) -> Self {
        let servers = (0..n)
            .map(|i| CloudServer::new(sio, &format!("cs-{i:03}"), Behavior::Honest, seed))
            .collect();
        Self {
            servers,
            sla,
            epoch: 0,
        }
    }

    /// The server pool.
    pub fn servers(&self) -> &[CloudServer] {
        &self.servers
    }

    /// Mutable access to one server (behaviour injection in experiments),
    /// or `None` when `index` is outside the pool — a typed miss instead of
    /// a bare-index panic in a protocol-adjacent path.
    pub fn server_mut(&mut self, index: usize) -> Option<&mut CloudServer> {
        self.servers.get_mut(index)
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The active SLA.
    pub fn sla(&self) -> &Sla {
        &self.sla
    }

    /// Advances to the next epoch: the Byzantine adversary corrupts a fresh
    /// set of at most `b` servers with `behavior`; everyone else reverts to
    /// honest.
    ///
    /// # Panics
    ///
    /// Panics if `b` exceeds the pool size.
    pub fn advance_epoch(&mut self, b: usize, behavior: Behavior, drbg: &mut HmacDrbg) {
        assert!(
            b <= self.servers.len(),
            "cannot corrupt more than n servers"
        );
        self.epoch += 1;
        for s in &mut self.servers {
            s.set_behavior(Behavior::Honest);
        }
        for idx in drbg.sample_distinct(self.servers.len() as u64, b as u64) {
            self.servers[idx as usize].set_behavior(behavior.clone());
        }
    }

    /// Indices of currently corrupted servers.
    pub fn corrupted(&self) -> Vec<usize> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.behavior().is_protocol_honest())
            .map(|(i, _)| i)
            .collect()
    }

    /// Stores signed blocks with SLA-governed replication: block `i` lands
    /// on servers `i mod n, …, (i + replication − 1) mod n`.
    ///
    /// Returns the number of (block, server) placements accepted.
    pub fn store(&mut self, owner: &CloudUser, blocks: &[SignedBlock]) -> usize {
        let n = self.servers.len();
        let mut accepted = 0;
        for (i, block) in blocks.iter().enumerate() {
            for r in 0..self.sla.replication.min(n) {
                let target = (i + r) % n;
                if let Some(server) = self.servers.get_mut(target) {
                    accepted += server.store(owner, vec![block.clone()]);
                }
            }
        }
        accepted
    }

    /// Splits a request into per-server slices (round-robin chunks capped
    /// by the SLA) — the MapReduce-style decomposition of Section III-A.
    ///
    /// Returns `(server_index, slice, original item indices)` triples.
    pub fn split_request(
        &self,
        request: &ComputationRequest,
    ) -> Vec<(usize, ComputationRequest, Vec<usize>)> {
        let n = self.servers.len();
        if n == 0 || request.is_empty() {
            return Vec::new();
        }
        let chunk = request
            .len()
            .div_ceil(n)
            .min(self.sla.max_subtasks_per_server)
            .max(1);
        request
            .items
            .chunks(chunk)
            .enumerate()
            .map(|(c, items)| {
                let server = c % n;
                let indices = (c * chunk..c * chunk + items.len()).collect();
                (server, ComputationRequest::new(items.to_vec()), indices)
            })
            .collect()
    }

    /// Dispatches a request across the pool: splits it, routes every slice
    /// to a server *holding the required data* (data-locality scheduling,
    /// starting from the round-robin default), and collects the
    /// commitments. A slice whose data no server holds is still dispatched
    /// to the default server, which reports the missing block.
    ///
    /// The paper's servers run their sub-tasks "parallelly"; the simulation
    /// runs them server by server on the calling thread, so per-server state
    /// (job ids, behaviour dice) evolves in a fixed order and the result
    /// keeps plan order.
    pub fn execute(
        &mut self,
        owner: &CloudUser,
        request: &ComputationRequest,
        auditor: &seccloud_ibs::VerifierPublic,
    ) -> Vec<SubTaskExecution> {
        self.execute_for_identity(owner.identity(), request, auditor)
    }

    /// Like [`Csp::execute`] but addressed by owner identity alone — the
    /// form a byte-level front end uses, since only the identity string
    /// crosses the wire.
    pub fn execute_for_identity(
        &mut self,
        owner_identity: &str,
        request: &ComputationRequest,
        auditor: &seccloud_ibs::VerifierPublic,
    ) -> Vec<SubTaskExecution> {
        let n = self.servers.len();
        let plan = self.split_request(request);
        // Routing pass (read-only): pick a data-holding server per slice.
        let mut per_server: Vec<Vec<(usize, ComputationRequest, Vec<usize>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (slot, (default_index, slice, item_indices)) in plan.into_iter().enumerate() {
            let positions: Vec<u64> = slice
                .items
                .iter()
                .flat_map(|i| i.positions.iter().copied())
                .collect();
            let server_index = (0..n)
                .map(|off| (default_index + off) % n)
                .find(|&idx| {
                    self.servers.get(idx).is_some_and(|srv| {
                        positions
                            .iter()
                            .all(|&p| srv.retrieve(owner_identity, p).is_some())
                    })
                })
                .unwrap_or(default_index);
            if let Some(bucket) = per_server.get_mut(server_index) {
                bucket.push((slot, slice, item_indices));
            }
        }
        // Dispatch pass: server by server, each executing its slices in
        // plan order.
        let owner_id = owner_identity.to_string();
        let grouped = self.servers.iter_mut().enumerate().map(|(i, server)| {
            per_server
                .get(i)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|(slot, slice, item_indices)| {
                    let result = server.handle_computation(&owner_id, slice, auditor);
                    (
                        *slot,
                        SubTaskExecution {
                            server_index: i,
                            item_indices: item_indices.clone(),
                            result,
                        },
                    )
                })
                .collect::<Vec<_>>()
        });
        // Restore plan order. Every slice was routed to exactly one server,
        // so sorting the tagged results by slot reproduces the plan order
        // without any placeholder slots.
        let mut tagged: Vec<(usize, SubTaskExecution)> = grouped.flatten().collect();
        tagged.sort_by_key(|(slot, _)| *slot);
        tagged.into_iter().map(|(_, exec)| exec).collect()
    }

    /// Builds the request items for a full-table scan of `positions` with
    /// one function per `group_size` positions (workload-generator helper).
    pub fn plan_scan(
        function: &seccloud_core::computation::ComputeFunction,
        positions: u64,
        group_size: u64,
    ) -> ComputationRequest {
        assert!(group_size > 0, "group size must be positive");
        let items = (0..positions)
            .step_by(group_size as usize)
            .map(|start| RequestItem {
                function: function.clone(),
                positions: (start..(start + group_size).min(positions)).collect(),
            })
            .collect();
        ComputationRequest::new(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agency::DesignatedAgency;
    use seccloud_core::computation::ComputeFunction;
    use seccloud_core::storage::DataBlock;

    fn world(n_servers: usize) -> (Sio, CloudUser, DesignatedAgency, Csp) {
        let sio = Sio::new(b"csp-tests");
        let user = sio.register("alice");
        let da = DesignatedAgency::new(&sio, "da", b"da-seed");
        let csp = Csp::new(&sio, n_servers, Sla::default(), b"pool");
        (sio, user, da, csp)
    }

    fn store_blocks(user: &CloudUser, da: &DesignatedAgency, csp: &mut Csp, n: u64) {
        let blocks: Vec<DataBlock> = (0..n)
            .map(|i| DataBlock::from_values(i, &[i, i + 1, i + 2]))
            .collect();
        // Sign for every server plus the DA so any replica can authenticate.
        let mut verifiers: Vec<_> = csp.servers().iter().map(|s| s.public().clone()).collect();
        verifiers.push(da.public().clone());
        let refs: Vec<&_> = verifiers.iter().collect();
        let signed = user.sign_blocks(&blocks, &refs);
        csp.store(user, &signed);
    }

    #[test]
    fn replication_places_blocks_on_multiple_servers() {
        let (_, user, da, mut csp) = world(4);
        store_blocks(&user, &da, &mut csp, 8);
        let total: usize = (0..4).map(|i| csp.servers()[i].stored_count("alice")).sum();
        assert_eq!(total, 16, "8 blocks × replication 2");
        // Each block reachable from at least one server.
        for pos in 0..8u64 {
            assert!(
                csp.servers()
                    .iter()
                    .any(|s| s.retrieve("alice", pos).is_some()),
                "position {pos}"
            );
        }
    }

    #[test]
    fn split_covers_all_items_exactly_once() {
        let (_, _, _, csp) = world(3);
        let request = Csp::plan_scan(&ComputeFunction::Sum, 20, 2); // 10 items
        let plan = csp.split_request(&request);
        let mut covered: Vec<usize> = plan.iter().flat_map(|(_, _, idx)| idx.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
        // Slice lengths match their index lists.
        for (_, slice, idx) in &plan {
            assert_eq!(slice.len(), idx.len());
        }
    }

    #[test]
    fn execute_and_audit_each_subtask() {
        // Full replication: any server can execute any slice.
        let sio = Sio::new(b"csp-exec");
        let user = sio.register("alice");
        let mut da = DesignatedAgency::new(&sio, "da", b"da-seed");
        let mut csp = Csp::new(
            &sio,
            3,
            Sla {
                replication: 3,
                ..Sla::default()
            },
            b"pool",
        );
        store_blocks(&user, &da, &mut csp, 12);
        let request = Csp::plan_scan(&ComputeFunction::Sum, 12, 2); // 6 items
        let executions = csp.execute(&user, &request, da.public());
        assert!(!executions.is_empty());
        for exec in &executions {
            let handle = exec.result.as_ref().expect("replicated storage suffices");
            let server = &csp.servers()[exec.server_index];
            let verdict = da
                .audit(server, handle, &user, handle.request.len(), 0)
                .unwrap();
            assert!(!verdict.detected, "honest pool passes");
        }
    }

    #[test]
    fn epoch_rotation_bounds_corruption() {
        let (_, _, _, mut csp) = world(10);
        let mut drbg = HmacDrbg::new(b"adversary");
        for _ in 0..5 {
            csp.advance_epoch(
                3,
                Behavior::ComputationCheater {
                    csc: 0.0,
                    guess_range: None,
                },
                &mut drbg,
            );
            assert_eq!(csp.corrupted().len(), 3);
        }
        assert_eq!(csp.epoch(), 5);
        // Reverting: epoch with b = 0 heals the pool.
        csp.advance_epoch(0, Behavior::Honest, &mut drbg);
        assert!(csp.corrupted().is_empty());
    }

    #[test]
    fn corrupted_subtasks_detected_under_full_audit() {
        // Full replication so every server can serve every slice and the
        // round-robin default routing reaches all four servers.
        let sio = Sio::new(b"csp-corruption");
        let user = sio.register("alice");
        let mut da = DesignatedAgency::new(&sio, "da", b"da-seed");
        let mut csp = Csp::new(
            &sio,
            4,
            Sla {
                replication: 4,
                ..Sla::default()
            },
            b"pool",
        );
        store_blocks(&user, &da, &mut csp, 16);
        let mut drbg = HmacDrbg::new(b"adv");
        csp.advance_epoch(
            2,
            Behavior::ComputationCheater {
                csc: 0.0,
                guess_range: None,
            },
            &mut drbg,
        );
        let corrupted = csp.corrupted();
        let request = Csp::plan_scan(&ComputeFunction::Sum, 16, 2); // 8 items
        let executions = csp.execute(&user, &request, da.public());
        let mut caught = 0;
        let mut clean = 0;
        for exec in &executions {
            let Ok(handle) = exec.result.as_ref() else {
                continue;
            };
            let server = &csp.servers()[exec.server_index];
            let verdict = da
                .audit(server, handle, &user, handle.request.len(), 0)
                .unwrap();
            if corrupted.contains(&exec.server_index) {
                assert!(verdict.detected, "corrupted server must be caught");
                caught += 1;
            } else {
                assert!(!verdict.detected, "honest server must pass");
                clean += 1;
            }
        }
        assert!(caught > 0, "some slice landed on a corrupted server");
        assert!(clean > 0, "some slice landed on an honest server");
    }

    #[test]
    #[should_panic(expected = "cannot corrupt")]
    fn overcorruption_panics() {
        let (_, _, _, mut csp) = world(2);
        let mut drbg = HmacDrbg::new(b"x");
        csp.advance_epoch(3, Behavior::Honest, &mut drbg);
    }

    #[test]
    fn server_mut_is_total_over_indices() {
        let (_, _, _, mut csp) = world(2);
        csp.server_mut(0)
            .expect("in range")
            .set_behavior(Behavior::Honest);
        assert!(csp.server_mut(1).is_some());
        assert!(
            csp.server_mut(2).is_none(),
            "out of range is a typed miss, not a panic"
        );
    }

    #[test]
    fn plan_scan_shapes() {
        let r = Csp::plan_scan(&ComputeFunction::Max, 10, 3);
        assert_eq!(r.len(), 4); // 3+3+3+1
        assert_eq!(r.items[3].positions, vec![9]);
    }
}
