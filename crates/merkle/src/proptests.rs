//! Randomized tests over tree shapes, sample sets and corruption
//! patterns, driven by the workspace DRBG for reproducibility.

use seccloud_hash::HmacDrbg;

use crate::{MerklePath, MerkleTree};

fn arb_data(d: &mut HmacDrbg) -> Vec<Vec<u8>> {
    let n = 1 + d.next_below(79) as usize;
    (0..n)
        .map(|_| {
            let len = d.next_below(24) as usize;
            d.next_bytes(len)
        })
        .collect()
}

#[test]
fn every_leaf_proves_and_verifies() {
    let mut d = HmacDrbg::new(b"merkle-prove");
    for _ in 0..48 {
        let data = arb_data(&mut d);
        let tree = MerkleTree::from_data(data.iter().map(Vec::as_slice));
        let idx = d.next_below(data.len() as u64) as usize;
        let proof = tree.prove(idx).expect("in range");
        assert!(proof.verify(&tree.root(), &data[idx], idx));
        // And never verifies at a different index with the same data.
        let other = (idx + 1) % data.len();
        if other != idx {
            assert!(!proof.verify(&tree.root(), &data[idx], other));
        }
    }
}

#[test]
fn any_single_byte_corruption_is_detected() {
    let mut d = HmacDrbg::new(b"merkle-corrupt");
    for _ in 0..48 {
        let data = arb_data(&mut d);
        let tree = MerkleTree::from_data(data.iter().map(Vec::as_slice));
        let idx = d.next_below(data.len() as u64) as usize;
        let proof = tree.prove(idx).expect("in range");
        let mut corrupted = data[idx].clone();
        if corrupted.is_empty() {
            corrupted.push(1);
        } else {
            let pos = d.next_below(corrupted.len() as u64) as usize;
            corrupted[pos] ^= 1 | (d.next_u64() as u8 & 0xfe);
        }
        assert!(!proof.verify(&tree.root(), &corrupted, idx));
    }
}

#[test]
fn paths_serialize_through_parts() {
    let mut d = HmacDrbg::new(b"merkle-parts");
    for _ in 0..48 {
        let data = arb_data(&mut d);
        let tree = MerkleTree::from_data(data.iter().map(Vec::as_slice));
        let idx = d.next_below(data.len() as u64) as usize;
        let proof = tree.prove(idx).expect("in range");
        let (siblings, leaf_count) = proof.clone().into_parts();
        let rebuilt = MerklePath::from_parts(siblings, leaf_count);
        assert_eq!(&rebuilt, &proof);
        assert!(rebuilt.verify(&tree.root(), &data[idx], idx));
    }
}

#[test]
fn roots_are_injective_over_leaf_count() {
    // Dropping the last leaf must change the root (no trivial
    // extension attacks across sizes).
    let mut d = HmacDrbg::new(b"merkle-inject");
    let mut cases = 0;
    while cases < 48 {
        let data = arb_data(&mut d);
        if data.len() < 2 {
            continue;
        }
        cases += 1;
        let full = MerkleTree::from_data(data.iter().map(Vec::as_slice));
        let truncated = MerkleTree::from_data(data[..data.len() - 1].iter().map(Vec::as_slice));
        assert_ne!(full.root(), truncated.root());
    }
}
