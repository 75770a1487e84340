//! Protocol III — secure cloud computation (paper Sections V-C and V-D).
//!
//! The cloud user submits a request `{F, P}` (functions + position vectors);
//! the cloud server computes `yᵢ = fᵢ(x_{pᵢ})`, commits to the batch with a
//! Merkle hash tree over leaves `H(yᵢ ‖ pᵢ)` (eq. 6, Fig. 3) and signs the
//! root. The DA then audits by probabilistic sampling (Algorithm 1):
//!
//! 1. **Audit challenge** — a random subset `S = {c₁, …, c_t}` of item
//!    indices.
//! 2. **Audit response** — for each `cᵢ`: the input blocks with their
//!    designated signatures, the claimed result, and the Merkle sibling set.
//! 3. **Response verify** — `IsSignatureWrong` (position correctness),
//!    `IsComputingWrong` (recompute `fᵢ`), `IsRootWrong` (reconstruct `R`).

use seccloud_hash::{HmacDrbg, Sha256};
use seccloud_ibs::{
    sign_designated, BatchVerifier, DesignatedSignature, UserKey, UserPublic, VerifierKey,
    VerifierPublic,
};
use seccloud_merkle::{MerklePath, MerkleTree, Node};

use crate::storage::SignedBlock;

/// A basic cloud computation `fᵢ` (paper: "data sum, data average, data
/// maximum, or other complicated computations based on these functions").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ComputeFunction {
    /// Sum of all readings (wrapping into 128 bits).
    Sum,
    /// Integer mean of the readings (0 for an empty input).
    Average,
    /// Maximum reading (0 for an empty input).
    Max,
    /// Minimum reading (0 for an empty input).
    Min,
    /// Number of readings.
    Count,
    /// Dot product with cyclically repeated weights.
    WeightedSum(Vec<u64>),
    /// `Σᵢ poly(xᵢ)` with the given coefficients (low order first),
    /// evaluated in wrapping 128-bit arithmetic.
    Polynomial(Vec<u64>),
    /// Sum of squared deviations from the integer mean — a variance-style
    /// aggregate exercising a two-pass computation.
    SumSquaredDeviation,
}

impl ComputeFunction {
    /// Evaluates the function over the readings gathered from the input
    /// blocks (in position order).
    pub fn eval(&self, values: &[u64]) -> u128 {
        match self {
            ComputeFunction::Sum => values.iter().fold(0u128, |a, &v| a.wrapping_add(v as u128)),
            ComputeFunction::Average => {
                if values.is_empty() {
                    0
                } else {
                    ComputeFunction::Sum.eval(values) / values.len() as u128
                }
            }
            ComputeFunction::Max => values.iter().copied().max().unwrap_or(0) as u128,
            ComputeFunction::Min => values.iter().copied().min().unwrap_or(0) as u128,
            ComputeFunction::Count => values.len() as u128,
            ComputeFunction::WeightedSum(w) => {
                if w.is_empty() {
                    return 0;
                }
                values
                    .iter()
                    .zip(w.iter().cycle())
                    .fold(0u128, |a, (&v, &wi)| {
                        a.wrapping_add((v as u128).wrapping_mul(wi as u128))
                    })
            }
            ComputeFunction::Polynomial(coeffs) => values.iter().fold(0u128, |acc, &x| {
                let mut term = 0u128;
                let mut x_pow = 1u128;
                for &c in coeffs {
                    term = term.wrapping_add((c as u128).wrapping_mul(x_pow));
                    x_pow = x_pow.wrapping_mul(x as u128);
                }
                acc.wrapping_add(term)
            }),
            ComputeFunction::SumSquaredDeviation => {
                if values.is_empty() {
                    return 0;
                }
                let mean = ComputeFunction::Average.eval(values);
                values.iter().fold(0u128, |acc, &v| {
                    let d = (v as u128).abs_diff(mean);
                    acc.wrapping_add(d.wrapping_mul(d))
                })
            }
        }
    }

    /// A stable byte encoding for hashing into request digests.
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ComputeFunction::Sum => out.push(0),
            ComputeFunction::Average => out.push(1),
            ComputeFunction::Max => out.push(2),
            ComputeFunction::Min => out.push(3),
            ComputeFunction::Count => out.push(4),
            ComputeFunction::WeightedSum(w) => {
                out.push(5);
                out.extend_from_slice(&(w.len() as u64).to_be_bytes());
                for v in w {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            ComputeFunction::Polynomial(c) => {
                out.push(6);
                out.extend_from_slice(&(c.len() as u64).to_be_bytes());
                for v in c {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            ComputeFunction::SumSquaredDeviation => out.push(7),
        }
    }
}

/// One requested sub-task: a function over the data at a position vector.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RequestItem {
    /// The function `fᵢ`.
    pub function: ComputeFunction,
    /// The block positions `pᵢ` whose readings form the input.
    pub positions: Vec<u64>,
}

/// A computation service request `{F, P}` (paper Section V-C-1).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ComputationRequest {
    /// The sub-tasks `f₁ … f_n`.
    pub items: Vec<RequestItem>,
}

impl ComputationRequest {
    /// Creates a request from sub-tasks.
    pub fn new(items: Vec<RequestItem>) -> Self {
        Self { items }
    }

    /// Number of sub-tasks `n`.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the request is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// A collision-resistant digest binding warrants and root signatures to
    /// this exact request.
    pub fn digest(&self) -> [u8; 32] {
        let mut enc = Vec::new();
        enc.extend_from_slice(b"seccloud/request");
        enc.extend_from_slice(&(self.items.len() as u64).to_be_bytes());
        for item in &self.items {
            item.function.encode(&mut enc);
            enc.extend_from_slice(&(item.positions.len() as u64).to_be_bytes());
            for p in &item.positions {
                enc.extend_from_slice(&p.to_be_bytes());
            }
        }
        Sha256::digest(&enc)
    }
}

/// The Merkle leaf bytes for item `i`: `yᵢ ‖ pᵢ` (paper `vᵢ = H(yᵢ‖pᵢ)`;
/// the item index is folded in to make leaves position-unique).
pub fn leaf_bytes(item_index: usize, positions: &[u64], y: u128) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + positions.len() * 8);
    out.extend_from_slice(&y.to_be_bytes());
    out.extend_from_slice(&(item_index as u64).to_be_bytes());
    for p in positions {
        out.extend_from_slice(&p.to_be_bytes());
    }
    out
}

/// Errors produced while building a commitment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// A requested position has no stored block.
    MissingBlock {
        /// The absent position.
        position: u64,
    },
    /// The request contains no items.
    EmptyRequest,
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::MissingBlock { position } => {
                write!(f, "no stored block at position {position}")
            }
            CommitError::EmptyRequest => write!(f, "computation request is empty"),
        }
    }
}

impl std::error::Error for CommitError {}

/// The public commitment the server returns: results `Y`, root `R`, and the
/// server's designated signature on `R` (paper Section V-C-2: "the cloud
/// server signs the root R … returns the results Y as well as Sig(R)").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Commitment {
    /// Claimed results `Y = {yᵢ}`.
    pub results: Vec<u128>,
    /// The Merkle root `R`.
    pub root: Node,
    /// `Sig(R)`, designated to the auditor.
    pub root_sig: DesignatedSignature,
    /// Identity of the committing server (its signing identity).
    pub server_identity: String,
}

/// The message bytes the server signs for `Sig(R)` — bound to the request
/// digest so a root cannot be replayed across requests.
pub fn root_signature_message(root: &Node, request_digest: &[u8; 32]) -> Vec<u8> {
    let mut m = Vec::with_capacity(80);
    m.extend_from_slice(b"seccloud/root");
    m.extend_from_slice(root);
    m.extend_from_slice(request_digest);
    m
}

/// Server-side state kept between commitment and audit response: the tree,
/// the inputs and the results.
#[derive(Clone, Debug)]
pub struct CommitmentSession {
    request: ComputationRequest,
    inputs: Vec<Vec<SignedBlock>>,
    results: Vec<u128>,
    tree: MerkleTree,
}

impl CommitmentSession {
    /// Honest commitment generation: looks up each requested block, computes
    /// every `yᵢ = fᵢ(x_{pᵢ})`, builds the Merkle tree and signs the root.
    ///
    /// `lookup` resolves a position to the stored [`SignedBlock`].
    ///
    /// # Errors
    ///
    /// [`CommitError::MissingBlock`] when storage lacks a requested
    /// position; [`CommitError::EmptyRequest`] for an empty request.
    pub fn commit<'a, F>(
        request: &ComputationRequest,
        mut lookup: F,
        server_signer: &UserKey,
        auditor: &VerifierPublic,
    ) -> Result<(Commitment, Self), CommitError>
    where
        F: FnMut(u64) -> Option<&'a SignedBlock>,
    {
        if request.is_empty() {
            return Err(CommitError::EmptyRequest);
        }
        let mut inputs = Vec::with_capacity(request.len());
        let mut results = Vec::with_capacity(request.len());
        for item in &request.items {
            let mut blocks = Vec::with_capacity(item.positions.len());
            let mut values = Vec::new();
            for &pos in &item.positions {
                let block = lookup(pos).ok_or(CommitError::MissingBlock { position: pos })?;
                values.extend(block.block().values());
                blocks.push(block.clone());
            }
            results.push(item.function.eval(&values));
            inputs.push(blocks);
        }
        let session = Self::from_results(request.clone(), inputs, results);
        let commitment = session.sign_root(server_signer, auditor);
        Ok((commitment, session))
    }

    /// Builds a session from externally computed results (the hook cheating
    /// simulators use to commit to *wrong* values).
    pub fn from_results(
        request: ComputationRequest,
        inputs: Vec<Vec<SignedBlock>>,
        results: Vec<u128>,
    ) -> Self {
        let leaves: Vec<Vec<u8>> = results
            .iter()
            .zip(&request.items)
            .enumerate()
            .map(|(i, (&y, item))| leaf_bytes(i, &item.positions, y))
            .collect();
        let tree = MerkleTree::from_data(leaves.iter().map(Vec::as_slice));
        Self {
            request,
            inputs,
            results,
            tree,
        }
    }

    /// Signs this session's root for `auditor`, producing the public
    /// [`Commitment`]. `Sig(R)` comes from [`sign_designated`]: a
    /// fixed-base `GT` power of the server's `K_DA`, whose table the
    /// server's first commitment to `auditor` builds with one pairing.
    pub fn sign_root(&self, server_signer: &UserKey, auditor: &VerifierPublic) -> Commitment {
        let msg = root_signature_message(&self.tree.root(), &self.request.digest());
        Commitment {
            results: self.results.clone(),
            root: self.tree.root(),
            root_sig: sign_designated(server_signer, &msg, b"root", &[auditor]).remove(0),
            server_identity: server_signer.identity().to_owned(),
        }
    }

    /// The claimed results.
    pub fn results(&self) -> &[u128] {
        &self.results
    }

    /// The Merkle root.
    pub fn root(&self) -> Node {
        self.tree.root()
    }

    /// Answers an audit challenge with per-item data, signatures and
    /// authentication paths (paper Section V-D step 2).
    ///
    /// Returns `None` if a challenged index is out of range.
    pub fn respond(&self, challenge: &AuditChallenge) -> Option<AuditResponse> {
        let items = challenge
            .indices
            .iter()
            .map(|&i| {
                let path = self.tree.prove(i)?;
                Some(AuditItemResponse {
                    item_index: i,
                    inputs: self.inputs.get(i)?.clone(),
                    claimed_y: *self.results.get(i)?,
                    path,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(AuditResponse {
            nonce: challenge.nonce,
            items,
        })
    }
}

/// The DA's sampling challenge: a subset `S` of sub-task indices plus a
/// fresh nonce binding the response to *this* challenge instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditChallenge {
    /// The sampled item indices `c₁ … c_t` (sorted, distinct).
    pub indices: Vec<usize>,
    /// Freshness nonce echoed by the response; a replayed response for an
    /// earlier challenge (even one with identical indices) carries the old
    /// nonce and is rejected.
    pub nonce: u128,
}

impl AuditChallenge {
    /// Samples `t` distinct indices out of `n` sub-tasks using the DA's
    /// DRBG (paper: "picks a random subset S from the domain [1, n]"),
    /// together with a fresh replay-protection nonce.
    ///
    /// # Panics
    ///
    /// Panics if `t > n`.
    pub fn sample(drbg: &mut HmacDrbg, n: usize, t: usize) -> Self {
        let indices = drbg
            .sample_distinct(n as u64, t as u64)
            .into_iter()
            .map(|v| v as usize)
            .collect();
        let nonce = u128::from(drbg.next_u64()) << 64 | u128::from(drbg.next_u64());
        Self { indices, nonce }
    }

    /// A challenge over explicit indices (nonce 0 — deterministic tests and
    /// callers that manage freshness themselves).
    pub fn from_indices(indices: Vec<usize>) -> Self {
        Self { indices, nonce: 0 }
    }

    /// The sampling size `t`.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether no index is challenged.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Per-item audit response data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditItemResponse {
    /// Which sub-task this answers.
    pub item_index: usize,
    /// The input blocks at the requested positions, with their designated
    /// signatures (the paper's "the data x₄, its signature σ₄").
    pub inputs: Vec<SignedBlock>,
    /// The claimed result `y_cᵢ`.
    pub claimed_y: u128,
    /// The sibling set reconstructing the root (`{v₃, A, F}` in Fig. 3).
    pub path: MerklePath,
}

/// The server's full answer to an audit challenge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditResponse {
    /// Echo of the challenge nonce, binding this response to one challenge
    /// instance (replay protection).
    pub nonce: u128,
    /// One entry per challenged index, in challenge order.
    pub items: Vec<AuditItemResponse>,
}

/// Why one audited item failed (Algorithm 1's three predicates plus
/// structural checks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditFailure {
    /// The response does not cover this challenged index.
    Missing,
    /// Input blocks do not match the requested position vector.
    WrongPositions,
    /// A block's designated signature failed (`IsSignatureWrong`).
    BadSignature,
    /// Recomputing `fᵢ` disagrees with the claimed result
    /// (`IsComputingWrong`).
    WrongResult {
        /// What the verifier computed from the authenticated inputs.
        expected: u128,
        /// What the server claimed.
        claimed: u128,
    },
    /// Root reconstruction failed (`IsRootWrong`).
    BadPath,
    /// The audited item disagrees with the published commitment results
    /// (the delivered commitment and response cannot both be genuine).
    CommitmentMismatch,
}

/// The outcome of verifying an audit response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Whether `Sig(R)` verified, matched the commitment root, and the
    /// commitment names the expected server identity.
    pub root_sig_ok: bool,
    /// Whether the response echoed this challenge's nonce (replay check).
    pub nonce_ok: bool,
    /// Per-item failures, `(challenged index, reason)`.
    pub failures: Vec<(usize, AuditFailure)>,
    /// Number of items checked.
    pub checked: usize,
}

impl AuditOutcome {
    /// Algorithm 1's return value: `valid` iff no check failed.
    pub fn is_valid(&self) -> bool {
        self.root_sig_ok && self.nonce_ok && self.failures.is_empty()
    }
}

/// The DA's response verification (paper Algorithm 1).
///
/// * `auditor` — the DA's verification key (all designated signatures and
///   `Sig(R)` must be designated to it).
/// * `owner` — the data owner whose block signatures are checked.
/// * `server_signer` — the CS identity that signed the root.
///
/// Every designated signature the audit checks — `Sig(R)` and each input
/// block's — folds into one [`BatchVerifier`] (Section VI, one pairing).
/// Only when that batch rejects does the audit rerun the checks one
/// pairing per signature, to name the failing items; either way the
/// outcome is the one the per-signature checks give.
pub fn verify_response(
    auditor: &VerifierKey,
    owner: &UserPublic,
    server_signer: &UserPublic,
    request: &ComputationRequest,
    challenge: &AuditChallenge,
    commitment: &Commitment,
    response: &AuditResponse,
) -> AuditOutcome {
    let root_msg = root_signature_message(&commitment.root, &request.digest());
    let signer_ok = commitment.server_identity == server_signer.identity();
    let outcome = |root_sig_ok, signature_ok: &mut dyn FnMut(&SignedBlock) -> bool| {
        let failures = challenge
            .indices
            .iter()
            .enumerate()
            .filter_map(|(slot, &index)| {
                check_item(
                    request,
                    index,
                    response.items.get(slot),
                    commitment,
                    &mut *signature_ok,
                )
                .err()
                .map(|f| (index, f))
            })
            .collect();
        AuditOutcome {
            root_sig_ok,
            nonce_ok: response.nonce == challenge.nonce,
            failures,
            checked: challenge.indices.len(),
        }
    };

    // Batch first: each signature check passes provisionally and pushes
    // its signature; a missing designation fails as it would below.
    let mut batch = BatchVerifier::new();
    if signer_ok {
        batch.push(
            server_signer.clone(),
            root_msg.clone(),
            commitment.root_sig.clone(),
        );
    }
    let provisional = outcome(signer_ok, &mut |block| match block
        .designation_for(auditor.identity())
    {
        Some(sig) => {
            batch.push(owner.clone(), block.block().signed_message(), sig.clone());
            true
        }
        None => false,
    });
    if batch.verify(auditor) {
        return provisional;
    }
    // Some signature is bad: check each on its own to locate it.
    let root_sig_ok = signer_ok
        && commitment
            .root_sig
            .verify(auditor, server_signer, &root_msg);
    outcome(root_sig_ok, &mut |block| block.verify(auditor, owner))
}

/// Algorithm 1's per-item predicates for challenged `index`, in order:
/// position correctness, `IsSignatureWrong` (delegated to `signature_ok`,
/// called once per input block), `IsComputingWrong`, agreement with the
/// published results, and `IsRootWrong`.
fn check_item(
    request: &ComputationRequest,
    index: usize,
    item: Option<&AuditItemResponse>,
    commitment: &Commitment,
    signature_ok: &mut dyn FnMut(&SignedBlock) -> bool,
) -> Result<(), AuditFailure> {
    let Some(item) = item else {
        return Err(AuditFailure::Missing);
    };
    if item.item_index != index {
        return Err(AuditFailure::Missing);
    }
    let Some(req_item) = request.items.get(index) else {
        return Err(AuditFailure::Missing);
    };
    // Position correctness: the returned blocks must sit at exactly the
    // requested positions, in order.
    if item.inputs.len() != req_item.positions.len()
        || item
            .inputs
            .iter()
            .zip(&req_item.positions)
            .any(|(b, &p)| b.block().index() != p)
    {
        return Err(AuditFailure::WrongPositions);
    }
    // IsSignatureWrong: each input block authenticates under the DA key.
    if !item.inputs.iter().all(signature_ok) {
        return Err(AuditFailure::BadSignature);
    }
    // IsComputingWrong: recompute fᵢ over the authenticated readings.
    let values: Vec<u64> = item
        .inputs
        .iter()
        .flat_map(|b| b.block().values())
        .collect();
    let expected = req_item.function.eval(&values);
    if expected != item.claimed_y {
        return Err(AuditFailure::WrongResult {
            expected,
            claimed: item.claimed_y,
        });
    }
    // The audited item must agree with the commitment's published Y.
    if commitment.results.get(index) != Some(&item.claimed_y) {
        return Err(AuditFailure::CommitmentMismatch);
    }
    // IsRootWrong: the claimed yᵢ must have been committed before the tree
    // was built.
    let leaf = leaf_bytes(index, &req_item.positions, item.claimed_y);
    if !item.path.verify(&commitment.root, &leaf, index) {
        return Err(AuditFailure::BadPath);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sio::{Sio, VerifierCredential};
    use crate::storage::DataBlock;

    struct World {
        user: crate::sio::CloudUser,
        cs: VerifierCredential,
        da: VerifierCredential,
        stored: Vec<SignedBlock>,
        request: ComputationRequest,
    }

    fn world() -> World {
        let sio = Sio::new(b"computation-tests");
        let user = sio.register("alice");
        let cs = sio.register_verifier("cs-01");
        let da = sio.register_verifier("da");
        let blocks: Vec<DataBlock> = (0..12u64)
            .map(|i| DataBlock::from_values(i, &[i, i * i, i + 100]))
            .collect();
        let stored = user.sign_blocks(&blocks, &[cs.public(), da.public()]);
        let request = ComputationRequest::new(vec![
            RequestItem {
                function: ComputeFunction::Sum,
                positions: vec![0, 1, 2],
            },
            RequestItem {
                function: ComputeFunction::Max,
                positions: vec![3, 4],
            },
            RequestItem {
                function: ComputeFunction::Average,
                positions: vec![5, 6, 7],
            },
            RequestItem {
                function: ComputeFunction::WeightedSum(vec![2, 3]),
                positions: vec![8],
            },
            RequestItem {
                function: ComputeFunction::Polynomial(vec![1, 2, 1]),
                positions: vec![9, 10],
            },
            RequestItem {
                function: ComputeFunction::Min,
                positions: vec![11, 0],
            },
        ]);
        World {
            user,
            cs,
            da,
            stored,
            request,
        }
    }

    fn commit(w: &World) -> (Commitment, CommitmentSession) {
        CommitmentSession::commit(
            &w.request,
            |pos| w.stored.get(pos as usize),
            w.cs.signer(),
            w.da.public(),
        )
        .expect("all blocks present")
    }

    #[test]
    fn honest_commitment_passes_full_audit() {
        let w = world();
        let (commitment, session) = commit(&w);
        let mut drbg = HmacDrbg::new(b"challenge");
        let challenge = AuditChallenge::sample(&mut drbg, w.request.len(), 4);
        let response = session.respond(&challenge).unwrap();
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        assert!(outcome.is_valid(), "{outcome:?}");
        assert_eq!(outcome.checked, 4);
    }

    /// Runs `verify_response` for `w`'s parties and the pairing work it
    /// spent on this thread.
    fn audit_counted(
        w: &World,
        challenge: &AuditChallenge,
        commitment: &Commitment,
        response: &AuditResponse,
    ) -> (AuditOutcome, seccloud_pairing::counters::OpCounts) {
        let before = seccloud_pairing::counters::snapshot();
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            challenge,
            commitment,
            response,
        );
        (
            outcome,
            seccloud_pairing::counters::snapshot().since(&before),
        )
    }

    #[test]
    fn a_clean_audit_costs_one_pairing() {
        // Items 0, 1, 3, 4 read 3 + 2 + 1 + 2 = 8 blocks: with Sig(R), 9
        // signatures, which the per-signature checks price at 9 pairings.
        // The batch checks every Σ but the first, which it weighs by one,
        // for being cyclotomic, and tests one combination of them.
        let w = world();
        let (commitment, session) = commit(&w);
        let challenge = AuditChallenge::from_indices(vec![0, 1, 3, 4]);
        let response = session.respond(&challenge).unwrap();
        let (outcome, spent) = audit_counted(&w, &challenge, &commitment, &response);
        assert!(outcome.is_valid(), "{outcome:?}");
        assert_eq!(spent.final_exponentiations, 1);
        assert_eq!((spent.miller_loops, spent.miller_lanes), (1, 1));
        assert_eq!(spent.gt_subgroup_tests, 1);
        assert_eq!(spent.gt_cyclotomic_checks, 8);
    }

    #[test]
    fn a_forged_block_falls_back_to_per_item_checks() {
        let w = world();
        let (commitment, session) = commit(&w);
        let challenge = AuditChallenge::from_indices(vec![0, 1, 3, 4]);
        let mut bad = session.respond(&challenge).unwrap();
        bad.items[2].inputs[0].tamper_data(b"evil".to_vec());
        let (outcome, spent) = audit_counted(&w, &challenge, &commitment, &bad);
        assert_eq!(outcome.failures, vec![(3, AuditFailure::BadSignature)]);
        assert!(outcome.root_sig_ok && outcome.nonce_ok);
        // The batch, then Sig(R) and the 8 blocks one pairing each.
        assert_eq!(spent.final_exponentiations, 1 + 9);
        assert_eq!(spent.gt_subgroup_tests, 1);
        assert_eq!(spent.gt_cyclotomic_checks, 8);

        // Two independently tampered items: the report names exactly those
        // two, the signature failure as such.
        let challenge = AuditChallenge::from_indices((0..w.request.len()).collect());
        let mut bad = session.respond(&challenge).unwrap();
        bad.items[1].claimed_y = bad.items[1].claimed_y.wrapping_add(1);
        bad.items[4].inputs[0].tamper_data(b"evil".to_vec());
        let (outcome, _) = audit_counted(&w, &challenge, &commitment, &bad);
        assert_eq!(outcome.failures.len(), 2);
        assert!(matches!(
            outcome.failures[1],
            (4, AuditFailure::BadSignature)
        ));
    }

    #[test]
    fn full_challenge_over_every_item() {
        let w = world();
        let (commitment, session) = commit(&w);
        let challenge = AuditChallenge::from_indices((0..w.request.len()).collect());
        let response = session.respond(&challenge).unwrap();
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        assert!(outcome.is_valid());
    }

    #[test]
    fn wrong_result_commitment_is_caught_when_sampled() {
        let w = world();
        // Cheating server: computes item 2 wrong but commits to it.
        let mut inputs = Vec::new();
        let mut results = Vec::new();
        for item in &w.request.items {
            let blocks: Vec<SignedBlock> = item
                .positions
                .iter()
                .map(|&p| w.stored[p as usize].clone())
                .collect();
            let values: Vec<u64> = blocks.iter().flat_map(|b| b.block().values()).collect();
            results.push(item.function.eval(&values));
            inputs.push(blocks);
        }
        results[2] = results[2].wrapping_add(1);
        let session = CommitmentSession::from_results(w.request.clone(), inputs, results);
        let commitment = session.sign_root(w.cs.signer(), w.da.public());

        let challenge = AuditChallenge::from_indices(vec![2]);
        let response = session.respond(&challenge).unwrap();
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        assert!(!outcome.is_valid());
        assert!(matches!(
            outcome.failures[0],
            (2, AuditFailure::WrongResult { .. })
        ));
        // …but an unlucky sample missing item 2 does not catch it:
        let lucky = AuditChallenge::from_indices(vec![0, 1]);
        let response = session.respond(&lucky).unwrap();
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &lucky,
            &commitment,
            &response,
        );
        assert!(outcome.is_valid(), "sampling can miss — that is the point");
    }

    #[test]
    fn wrong_position_data_is_caught() {
        let w = world();
        let (commitment, session) = commit(&w);
        let challenge = AuditChallenge::from_indices(vec![1]);
        let mut response = session.respond(&challenge).unwrap();
        // Server substitutes the block at position 5 for position 3.
        response.items[0].inputs[0] = w.stored[5].clone();
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        assert_eq!(outcome.failures, vec![(1, AuditFailure::WrongPositions)]);
    }

    #[test]
    fn relabeled_block_fails_signature_check() {
        let w = world();
        let (commitment, session) = commit(&w);
        let challenge = AuditChallenge::from_indices(vec![1]);
        let mut response = session.respond(&challenge).unwrap();
        // Server relabels position-5 data as position 3 (signature must fail).
        let mut forged = w.stored[5].clone();
        forged.tamper_index(3);
        response.items[0].inputs[0] = forged;
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        assert_eq!(outcome.failures, vec![(1, AuditFailure::BadSignature)]);
    }

    #[test]
    fn result_not_in_tree_fails_path_check() {
        let w = world();
        let (commitment, session) = commit(&w);
        let challenge = AuditChallenge::from_indices(vec![0]);
        let mut response = session.respond(&challenge).unwrap();
        // Server claims a different y after the fact; the path can only
        // authenticate the committed leaf. Keep the inputs consistent with
        // the claim by also lying about the computation — then the path
        // check is the one that catches it.
        let lied_y = response.items[0].claimed_y.wrapping_add(1);
        response.items[0].claimed_y = lied_y;
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        // The recompute check fires first (WrongResult) because inputs are
        // genuine.
        assert!(matches!(
            outcome.failures[0],
            (0, AuditFailure::WrongResult { .. })
        ));
    }

    #[test]
    fn root_signature_is_bound_to_request_and_signer() {
        let w = world();
        let (commitment, session) = commit(&w);
        // A different request digest must invalidate Sig(R).
        let other_request = ComputationRequest::new(vec![RequestItem {
            function: ComputeFunction::Sum,
            positions: vec![0],
        }]);
        let challenge = AuditChallenge::from_indices(vec![0]);
        let response = session.respond(&challenge).unwrap();
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &other_request,
            &challenge,
            &commitment,
            &response,
        );
        assert!(!outcome.root_sig_ok);

        // A different claimed signer must also fail.
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.user.public(), // not the CS
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        assert!(!outcome.root_sig_ok);
    }

    #[test]
    fn missing_and_misordered_items_detected() {
        let w = world();
        let (commitment, session) = commit(&w);
        let challenge = AuditChallenge::from_indices(vec![0, 1]);
        let mut response = session.respond(&challenge).unwrap();
        response.items.swap(0, 1);
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        assert_eq!(outcome.failures.len(), 2);
        response.items.clear();
        let outcome = verify_response(
            w.da.key(),
            w.user.public(),
            w.cs.signer_public(),
            &w.request,
            &challenge,
            &commitment,
            &response,
        );
        assert!(outcome
            .failures
            .iter()
            .all(|(_, f)| *f == AuditFailure::Missing));
    }

    #[test]
    fn commit_errors() {
        let w = world();
        let empty = ComputationRequest::default();
        assert_eq!(
            CommitmentSession::commit(&empty, |_| None, w.cs.signer(), w.da.public())
                .err()
                .unwrap(),
            CommitError::EmptyRequest
        );
        let req = ComputationRequest::new(vec![RequestItem {
            function: ComputeFunction::Sum,
            positions: vec![99],
        }]);
        assert_eq!(
            CommitmentSession::commit(
                &req,
                |pos| w.stored.get(pos as usize),
                w.cs.signer(),
                w.da.public()
            )
            .err()
            .unwrap(),
            CommitError::MissingBlock { position: 99 }
        );
    }

    #[test]
    fn respond_rejects_out_of_range_challenge() {
        let w = world();
        let (_, session) = commit(&w);
        let challenge = AuditChallenge::from_indices(vec![w.request.len()]);
        assert!(session.respond(&challenge).is_none());
    }

    #[test]
    fn compute_functions_reference_values() {
        assert_eq!(ComputeFunction::Sum.eval(&[1, 2, 3]), 6);
        assert_eq!(ComputeFunction::Average.eval(&[1, 2, 3, 4]), 2);
        assert_eq!(ComputeFunction::Average.eval(&[]), 0);
        assert_eq!(ComputeFunction::Max.eval(&[5, 9, 2]), 9);
        assert_eq!(ComputeFunction::Min.eval(&[5, 9, 2]), 2);
        assert_eq!(ComputeFunction::Count.eval(&[7, 7]), 2);
        assert_eq!(
            ComputeFunction::WeightedSum(vec![1, 10]).eval(&[3, 4, 5]),
            3 + 40 + 5
        );
        assert_eq!(ComputeFunction::WeightedSum(vec![]).eval(&[3]), 0);
        // poly(x) = 1 + 2x + x²; at x=2 → 9, x=3 → 16
        assert_eq!(ComputeFunction::Polynomial(vec![1, 2, 1]).eval(&[2, 3]), 25);
        // deviations from mean(1,3)=2: 1+1 = 2
        assert_eq!(ComputeFunction::SumSquaredDeviation.eval(&[1, 3]), 2);
        // Wrapping, not panicking, on overflow.
        let big = ComputeFunction::Sum.eval(&[u64::MAX; 4]);
        assert_eq!(big, 4 * (u64::MAX as u128));
    }

    #[test]
    fn request_digest_is_structure_sensitive() {
        let r1 = ComputationRequest::new(vec![RequestItem {
            function: ComputeFunction::Sum,
            positions: vec![1, 2],
        }]);
        let r2 = ComputationRequest::new(vec![RequestItem {
            function: ComputeFunction::Sum,
            positions: vec![2, 1],
        }]);
        let r3 = ComputationRequest::new(vec![RequestItem {
            function: ComputeFunction::Max,
            positions: vec![1, 2],
        }]);
        assert_ne!(r1.digest(), r2.digest());
        assert_ne!(r1.digest(), r3.digest());
        assert_eq!(r1.digest(), r1.clone().digest());
    }
}
