//! Binary Merkle tree over SHA-256.
//!
//! The ledger commits to block contents with a Merkle root (as CometBFT
//! does), and tests use Merkle proofs to cross-check that batch hashing and
//! epoch hashing are consistent with set membership.

use crate::hash::{Digest256, Sha256};

/// Domain-separation prefixes (mirrors the RFC 6962 style used by CometBFT).
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// Streaming core of `leaf_hash`, reusing the caller's hasher (reset on
/// return). [`MerkleTree::build`] feeds every leaf through one hasher; the
/// one-shot wrappers below share this body so the domain separation cannot
/// diverge between building and proof verification.
fn leaf_hash_into(h: &mut Sha256, data: &[u8]) -> Digest256 {
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    h.finalize_reset()
}

/// Streaming core of `node_hash` (see [`leaf_hash_into`]).
fn node_hash_into(h: &mut Sha256, left: &Digest256, right: &Digest256) -> Digest256 {
    h.update(&[NODE_PREFIX]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize_reset()
}

fn leaf_hash(data: &[u8]) -> Digest256 {
    leaf_hash_into(&mut Sha256::new(), data)
}

fn node_hash(left: &Digest256, right: &Digest256) -> Digest256 {
    node_hash_into(&mut Sha256::new(), left, right)
}

/// A Merkle tree built over a list of byte strings.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] is the leaf level; the last level has a single root node.
    levels: Vec<Vec<Digest256>>,
    len: usize,
}

/// An inclusion proof for a single leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Total number of leaves in the tree.
    pub total: usize,
    /// Sibling hashes from the leaf level up to (but excluding) the root.
    /// Each entry is `(sibling, sibling_is_left)`.
    pub path: Vec<(Digest256, bool)>,
}

impl MerkleTree {
    /// Builds a tree over `items`. An empty item list produces a well-defined
    /// "empty root" (hash of the empty string with the leaf prefix).
    pub fn build<T: AsRef<[u8]>>(items: &[T]) -> Self {
        if items.is_empty() {
            return MerkleTree {
                levels: vec![vec![leaf_hash(b"")]],
                len: 0,
            };
        }
        // One hasher serves every leaf and node of the build, recycled
        // between inputs by the `*_into` helpers.
        let mut h = Sha256::new();
        let mut leaves = Vec::with_capacity(items.len());
        for item in items {
            leaves.push(leaf_hash_into(&mut h, item.as_ref()));
        }
        let mut levels: Vec<Vec<Digest256>> = Vec::new();
        levels.push(leaves);
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(node_hash_into(&mut h, &pair[0], &pair[1]));
                } else {
                    // Odd node is promoted (Bitcoin-style duplication avoided
                    // to keep proofs unambiguous).
                    next.push(pair[0]);
                }
            }
            levels.push(next);
        }
        MerkleTree {
            len: items.len(),
            levels,
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree was built over zero items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest256 {
        self.levels.last().expect("at least one level")[0]
    }

    /// Builds an inclusion proof for leaf `index`. Panics if out of range.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(
            index < self.len,
            "leaf index {index} out of range ({})",
            self.len
        );
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if idx.is_multiple_of(2) {
                idx + 1
            } else {
                idx - 1
            };
            if sibling < level.len() {
                path.push((level[sibling], sibling < idx));
            }
            idx /= 2;
        }
        MerkleProof {
            index,
            total: self.len,
            path,
        }
    }
}

impl MerkleProof {
    /// Verifies the proof for `item` against `root`.
    pub fn verify<T: AsRef<[u8]>>(&self, item: T, root: &Digest256) -> bool {
        let mut acc = leaf_hash(item.as_ref());
        for (sibling, sibling_is_left) in &self.path {
            acc = if *sibling_is_left {
                node_hash(sibling, &acc)
            } else {
                node_hash(&acc, sibling)
            };
        }
        acc == *root
    }
}

/// Convenience: the Merkle root of a list of byte strings.
pub fn merkle_root<T: AsRef<[u8]>>(items: &[T]) -> Digest256 {
    MerkleTree::build(items).root()
}

/// Convenience: SHA-256 of the concatenation of `parts` with length framing,
/// used where an order-sensitive hash of several byte strings is needed.
pub fn framed_hash<T: AsRef<[u8]>>(parts: &[T]) -> Digest256 {
    let mut h = Sha256::new();
    for p in parts {
        let p = p.as_ref();
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_has_root() {
        let t = MerkleTree::build::<&[u8]>(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.root(), leaf_hash(b""));
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::build(&[b"tx0"]);
        assert_eq!(t.root(), leaf_hash(b"tx0"));
        assert!(t.prove(0).verify(b"tx0", &t.root()));
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in 1..=33usize {
            let items: Vec<Vec<u8>> = (0..n).map(|i| format!("item-{i}").into_bytes()).collect();
            let t = MerkleTree::build(&items);
            for (i, item) in items.iter().enumerate() {
                let proof = t.prove(i);
                assert!(proof.verify(item, &t.root()), "n={n} i={i}");
                // Proof should not verify a different item.
                assert!(!proof.verify(b"other", &t.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn root_changes_when_item_changes() {
        let a = merkle_root(&[b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        let b = merkle_root(&[b"a".to_vec(), b"x".to_vec(), b"c".to_vec()]);
        assert_ne!(a, b);
    }

    #[test]
    fn root_is_order_sensitive() {
        let a = merkle_root(&[b"a".to_vec(), b"b".to_vec()]);
        let b = merkle_root(&[b"b".to_vec(), b"a".to_vec()]);
        assert_ne!(a, b);
    }

    #[test]
    fn framed_hash_resists_concatenation_ambiguity() {
        let a = framed_hash(&[b"ab".to_vec(), b"c".to_vec()]);
        let b = framed_hash(&[b"a".to_vec(), b"bc".to_vec()]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prove_out_of_range_panics() {
        let t = MerkleTree::build(&[b"x"]);
        let _ = t.prove(1);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn every_leaf_proves(items in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..40)) {
                let t = MerkleTree::build(&items);
                let root = t.root();
                for (i, item) in items.iter().enumerate() {
                    prop_assert!(t.prove(i).verify(item, &root));
                }
            }

            #[test]
            fn proof_binds_position(items in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..32), 2..20)) {
                // A proof for index i must not verify an item from a different
                // position unless the items happen to be identical bytes.
                let t = MerkleTree::build(&items);
                let root = t.root();
                let p0 = t.prove(0);
                if items[0] != items[1] {
                    prop_assert!(!p0.verify(&items[1], &root));
                }
            }
        }
    }
}
