//! Merkle hash trees (paper Section V-C, eq. 6 and Fig. 3).
//!
//! The cloud server commits to a batch of computation results by building a
//! binary hash tree over leaves `H(yᵢ ‖ pᵢ)` and signing the root `R`. The
//! auditor later checks sampled leaves against `R` using authentication
//! paths ("sibling sets" in the paper's wording).
//!
//! This implementation is generic over the committed byte strings and adds
//! one hardening detail the 2010 paper leaves implicit: **domain
//! separation** between leaf and interior hashes (`0x00`/`0x01` prefixes),
//! closing the classic second-preimage-by-reinterpretation gap.
//!
//! # Examples
//!
//! ```
//! use seccloud_merkle::MerkleTree;
//!
//! let leaves: Vec<Vec<u8>> = (0..8u32).map(|i| i.to_be_bytes().to_vec()).collect();
//! let tree = MerkleTree::from_data(leaves.iter().map(Vec::as_slice));
//! let proof = tree.prove(4).unwrap();
//! assert!(proof.verify(&tree.root(), &leaves[4], 4));
//! assert!(!proof.verify(&tree.root(), &leaves[5], 4));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod proptests;
mod tree;

pub use tree::{leaf_hash, node_hash, MerklePath, MerkleTree, Node};
