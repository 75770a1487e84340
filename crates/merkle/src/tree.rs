//! The binary hash tree and single-leaf authentication paths.

use seccloud_hash::Sha256;

/// A 32-byte tree node value.
pub type Node = [u8; 32];

/// Hashes a leaf's committed bytes with the leaf domain prefix.
pub fn leaf_hash(data: &[u8]) -> Node {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

/// Hashes two children into their parent (paper eq. 6:
/// `Ω(V) = H(Ω(V_left) ‖ Ω(V_right))`, with an interior domain prefix).
pub fn node_hash(left: &Node, right: &Node) -> Node {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// A complete Merkle hash tree storing every level.
///
/// Odd nodes at any level are *promoted* unchanged to the next level (no
/// phantom duplication), so trees over any leaf count are well defined and
/// proofs stay minimal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, last level = `[root]`.
    levels: Vec<Vec<Node>>,
}

/// An authentication path from one leaf to the root — the "sibling set" the
/// cloud server returns during the audit response step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerklePath {
    /// Sibling hash at each level climbing toward the root, with the side
    /// the *sibling* sits on (`true` = sibling is on the left). Levels where
    /// the climbing node was promoted without a sibling are omitted.
    siblings: Vec<(Node, bool)>,
    /// Number of leaves in the tree the path was generated from (needed to
    /// recompute promotion structure during verification).
    leaf_count: usize,
}

impl MerkleTree {
    /// Builds a tree from pre-hashed leaves.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty — an empty commitment has no root.
    pub fn from_leaves(leaves: Vec<Node>) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = vec![leaves];
        loop {
            let next = {
                let Some(prev) = levels.last() else { break };
                if prev.len() <= 1 {
                    break;
                }
                let mut next = Vec::with_capacity(prev.len().div_ceil(2));
                for pair in prev.chunks(2) {
                    match (pair.first(), pair.get(1)) {
                        (Some(l), Some(r)) => next.push(node_hash(l, r)),
                        (Some(one), None) => next.push(*one), // promote
                        (None, _) => {}
                    }
                }
                next
            };
            levels.push(next);
        }
        Self { levels }
    }

    /// Builds a tree by leaf-hashing each datum.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    pub fn from_data<'a, I>(data: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        Self::from_leaves(data.into_iter().map(leaf_hash).collect())
    }

    /// The committed root `R`.
    pub fn root(&self) -> Node {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or([0; 32])
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The leaf hash at `index`, if in range.
    pub fn leaf(&self, index: usize) -> Option<Node> {
        self.levels[0].get(index).copied()
    }

    /// Produces the authentication path for leaf `index`.
    ///
    /// Returns `None` if `index` is out of range.
    pub fn prove(&self, index: usize) -> Option<MerklePath> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut pos = index;
        let (_, inner) = self.levels.split_last()?;
        for level in inner {
            let sibling_pos = pos ^ 1;
            if let Some(sib) = level.get(sibling_pos) {
                siblings.push((*sib, sibling_pos < pos));
            }
            // Promoted nodes contribute no sibling at this level.
            pos /= 2;
        }
        Some(MerklePath {
            siblings,
            leaf_count: self.leaf_count(),
        })
    }
}

impl MerklePath {
    /// Verifies that `data` (unhashed) at `index` is committed under `root`.
    ///
    /// Mirrors the paper's Algorithm 1 step "reconstruct the root value
    /// R(τ)": recompute the leaf hash, fold in siblings, and compare.
    pub fn verify(&self, root: &Node, data: &[u8], index: usize) -> bool {
        self.verify_leaf_hash(root, &leaf_hash(data), index)
    }

    /// Verifies a pre-hashed leaf (used when the caller already holds the
    /// leaf hash).
    pub fn verify_leaf_hash(&self, root: &Node, leaf: &Node, index: usize) -> bool {
        if index >= self.leaf_count {
            return false;
        }
        let mut node = *leaf;
        let mut pos = index;
        let mut width = self.leaf_count;
        let mut sib_iter = self.siblings.iter();
        while width > 1 {
            let has_sibling = (pos ^ 1) < width;
            if has_sibling {
                let Some((sib, sib_left)) = sib_iter.next() else {
                    return false;
                };
                // The sibling's claimed side must match the index structure.
                if *sib_left != (pos % 2 == 1) {
                    return false;
                }
                node = if *sib_left {
                    node_hash(sib, &node)
                } else {
                    node_hash(&node, sib)
                };
            }
            pos /= 2;
            width = width.div_ceil(2);
        }
        sib_iter.next().is_none() && seccloud_hash::ct_eq(&node, root)
    }

    /// The number of sibling hashes carried by this path.
    pub fn len(&self) -> usize {
        self.siblings.len()
    }

    /// Whether the path is empty (single-leaf tree).
    pub fn is_empty(&self) -> bool {
        self.siblings.is_empty()
    }

    /// Serialized size in bytes (for the cost accounting in the bench
    /// harness).
    pub fn byte_len(&self) -> usize {
        self.siblings.len() * 33 + 8
    }

    /// Raw access for tamper-injection tests.
    #[doc(hidden)]
    pub fn siblings_mut(&mut self) -> &mut Vec<(Node, bool)> {
        &mut self.siblings
    }

    /// Decomposes into `(siblings, leaf_count)` for serialization.
    pub fn into_parts(self) -> (Vec<(Node, bool)>, usize) {
        (self.siblings, self.leaf_count)
    }

    /// Borrowing view of the sibling list.
    pub fn siblings(&self) -> &[(Node, bool)] {
        &self.siblings
    }

    /// The leaf count the path was generated against.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Rebuilds a path from its serialized parts. Validity is established
    /// by verification, not construction.
    pub fn from_parts(siblings: Vec<(Node, bool)>, leaf_count: usize) -> Self {
        Self {
            siblings,
            leaf_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("block-{i}").into_bytes()).collect()
    }

    #[test]
    fn paper_figure_3_shape_eight_leaves() {
        // Fig. 3: 8 leaves → 4 levels, root combines two 4-leaf subtrees.
        let d = data(8);
        let tree = MerkleTree::from_data(d.iter().map(Vec::as_slice));
        assert_eq!(tree.levels.len(), 4);
        assert_eq!(tree.levels[1].len(), 4);
        assert_eq!(tree.levels[2].len(), 2);
        let manual_root = node_hash(&tree.levels[2][0], &tree.levels[2][1]);
        assert_eq!(tree.root(), manual_root);
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::from_data([b"only".as_slice()]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        let p = tree.prove(0).unwrap();
        assert!(p.is_empty());
        assert!(p.verify(&tree.root(), b"only", 0));
        assert!(!p.verify(&tree.root(), b"other", 0));
    }

    #[test]
    fn proofs_verify_for_every_leaf_and_size() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
            let d = data(n);
            let tree = MerkleTree::from_data(d.iter().map(Vec::as_slice));
            for (i, leaf) in d.iter().enumerate() {
                let p = tree.prove(i).unwrap();
                assert!(p.verify(&tree.root(), leaf, i), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_data_index_or_root_fails() {
        let d = data(10);
        let tree = MerkleTree::from_data(d.iter().map(Vec::as_slice));
        let p = tree.prove(3).unwrap();
        let root = tree.root();
        assert!(p.verify(&root, &d[3], 3));
        assert!(!p.verify(&root, &d[4], 3), "wrong data");
        assert!(!p.verify(&root, &d[3], 4), "wrong index");
        assert!(!p.verify(&[0u8; 32], &d[3], 3), "wrong root");
        assert!(!p.verify(&root, &d[3], 100), "out of range");
    }

    #[test]
    fn tampered_sibling_fails() {
        let d = data(8);
        let tree = MerkleTree::from_data(d.iter().map(Vec::as_slice));
        let mut p = tree.prove(2).unwrap();
        p.siblings_mut()[1].0[0] ^= 1;
        assert!(!p.verify(&tree.root(), &d[2], 2));
    }

    #[test]
    fn flipped_sibling_side_fails() {
        let d = data(8);
        let tree = MerkleTree::from_data(d.iter().map(Vec::as_slice));
        let mut p = tree.prove(2).unwrap();
        let side = p.siblings_mut()[0].1;
        p.siblings_mut()[0].1 = !side;
        assert!(!p.verify(&tree.root(), &d[2], 2));
    }

    #[test]
    fn any_leaf_change_changes_root() {
        let d = data(16);
        let tree = MerkleTree::from_data(d.iter().map(Vec::as_slice));
        for i in 0..16 {
            let mut d2 = d.clone();
            d2[i][0] ^= 0xff;
            let tree2 = MerkleTree::from_data(d2.iter().map(Vec::as_slice));
            assert_ne!(tree.root(), tree2.root(), "leaf {i}");
        }
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A 2-leaf tree's root must differ from the leaf hash of the
        // concatenated children (the classic CVE-2012-2459 shape).
        let l = leaf_hash(b"a");
        let r = leaf_hash(b"b");
        let root = node_hash(&l, &r);
        let mut concat = Vec::new();
        concat.extend_from_slice(&l);
        concat.extend_from_slice(&r);
        assert_ne!(root, leaf_hash(&concat));
    }

    #[test]
    fn prove_out_of_range_is_none() {
        let d = data(4);
        let tree = MerkleTree::from_data(d.iter().map(Vec::as_slice));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        let _ = MerkleTree::from_leaves(Vec::new());
    }

    #[test]
    fn proof_from_smaller_tree_rejected_on_larger_claim() {
        // Path length mismatch must be caught.
        let d4 = data(4);
        let t4 = MerkleTree::from_data(d4.iter().map(Vec::as_slice));
        let d8 = data(8);
        let t8 = MerkleTree::from_data(d8.iter().map(Vec::as_slice));
        let p4 = t4.prove(0).unwrap();
        assert!(!p4.verify(&t8.root(), &d8[0], 0));
    }
}
