//! Batch-level authentication: one MAC over the Merkle root of a whole
//! submission instead of one MAC per element.
//!
//! Per-element validation costs two SHA-256 compressions per element (the
//! HMAC over its 20-byte authenticator message, with the key schedule
//! precomputed) — the validation floor the PR 5 perf notes call irreducible
//! *per element*. Batch authentication moves the authenticator up one level:
//! the client builds a Merkle tree over its batch, MACs the root once
//! ([`AuthedBatch::seal`]), and a server verifies the whole batch by
//! recomputing the root and checking one MAC ([`AuthedBatch::verify`]).
//! Per-element validity then follows from Merkle membership.
//!
//! The tree does **not** use one leaf per element: with 36-byte packed
//! identities a leaf-per-element tree costs ~3 compressions per element —
//! *more* than the per-element MACs it replaces, because every leaf and
//! every internal node is its own compression. Instead [`BATCH_CHUNK`]
//! packed identities share one leaf: hashing a 288-byte leaf costs 5
//! compressions (0.625/element) and the internal nodes add ~0.25/element,
//! ~0.875 compressions per element overall — about 2.3× cheaper than
//! per-element MACs, and re-gossiped batches are recognised by root without
//! hashing anything at all (see `AdmissionCache`).
//!
//! The root MAC binds the owning client, the element count and the root
//! (see `setchain_crypto::mac_batch_root`), so a replayed root MAC cannot
//! authenticate swapped, reordered, truncated or extended contents: any
//! such change moves the recomputed root away from the MAC'd one.

use setchain_crypto::{
    leaf_hash, mac_batch_root, verify_batch_root, Digest256, HmacSha256Key, MerkleProof,
    MerkleTree, ProcessId,
};

use crate::element::Element;

/// Elements per Merkle leaf. Eight 36-byte packed identities fill a 288-byte
/// leaf — the sweet spot where leaf hashing amortises to well under one
/// SHA-256 compression per element while proofs stay one small chunk plus a
/// logarithmic path.
pub const BATCH_CHUNK: usize = 8;

/// The bytes of one Merkle leaf: the packed identities of up to
/// [`BATCH_CHUNK`] consecutive elements.
type LeafBuf = [u8; BATCH_CHUNK * Element::PACKED_LEN];

/// Packs `chunk` into `buf` and returns the leaf's bytes.
fn pack_chunk<'a>(chunk: &[Element], buf: &'a mut LeafBuf) -> &'a [u8] {
    for (slot, e) in buf.chunks_exact_mut(Element::PACKED_LEN).zip(chunk) {
        slot.copy_from_slice(&e.pack());
    }
    &buf[..chunk.len() * Element::PACKED_LEN]
}

/// The leaf hash of every [`BATCH_CHUNK`]-element chunk of `elements`, each
/// chunk packed into one reused stack buffer.
fn chunk_leaf_hashes(elements: &[Element]) -> Vec<Digest256> {
    let mut buf: LeafBuf = [0; BATCH_CHUNK * Element::PACKED_LEN];
    elements
        .chunks(BATCH_CHUNK)
        .map(|chunk| leaf_hash(pack_chunk(chunk, &mut buf)))
        .collect()
}

/// Builds the chunked Merkle tree over `elements` in the given order.
pub fn batch_tree(elements: &[Element]) -> MerkleTree {
    MerkleTree::from_leaf_hashes(chunk_leaf_hashes(elements))
}

/// The chunked Merkle root of `elements` in the given order — what one
/// batch MAC authenticates.
pub fn batch_root(elements: &[Element]) -> Digest256 {
    batch_tree(elements).root()
}

/// A client-sealed, batch-authenticated submission: the elements, the
/// chunked Merkle root over them, and one root MAC under the client's key.
///
/// Verification is all-or-nothing by design: tampering with *any* element
/// (or the order, or the count) changes the recomputed root and invalidates
/// the whole batch. That is the contract that lets servers derive
/// per-element validity from one MAC check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuthedBatch {
    /// The client that sealed (and thereby vouches for) the batch.
    pub client: ProcessId,
    /// The elements, in the order the tree was built over.
    pub elements: Vec<Element>,
    /// The chunked Merkle root of `elements`.
    pub root: Digest256,
    /// First 8 bytes of `HMAC-SHA-256(client_secret, domain ‖ client ‖
    /// count ‖ root)`.
    pub mac: u64,
}

impl AuthedBatch {
    /// Seals `elements` under `client`'s key schedule: builds the chunked
    /// tree and MACs its root once. The elements themselves are shipped
    /// as-is; their individual authenticators are untouched.
    pub fn seal(key: &HmacSha256Key, client: ProcessId, elements: Vec<Element>) -> Self {
        let root = batch_root(&elements);
        let mac = mac_batch_root(key, client, elements.len() as u64, &root);
        AuthedBatch {
            client,
            elements,
            root,
            mac,
        }
    }

    /// Verifies the whole batch under the claimed client's key schedule:
    /// every element must claim `self.client` (a non-server) and pass the
    /// size sanity check, the recomputed root must equal the MAC'd one, and
    /// the root MAC must verify. Empty batches never verify — there is
    /// nothing they could authenticate.
    ///
    /// The caller resolves `key` from the *claimed* client's registered
    /// key, exactly as per-element validation does; an unregistered client
    /// has no key and its batches are rejected before this call.
    pub fn verify(&self, key: &HmacSha256Key) -> bool {
        if self.elements.is_empty() || self.client.is_server() {
            return false;
        }
        if !self
            .elements
            .iter()
            .all(|e| e.client == self.client && e.size_in_bounds())
        {
            return false;
        }
        if batch_root(&self.elements) != self.root {
            return false;
        }
        verify_batch_root(
            key,
            self.client,
            self.elements.len() as u64,
            &self.root,
            self.mac,
        )
    }

    /// Total wire size of the batch payload: the elements plus the 32-byte
    /// root and the 8-byte MAC.
    pub fn wire_size(&self) -> usize {
        32 + 8 + self.elements.iter().map(|e| e.wire_size()).sum::<usize>()
    }
}

/// An inclusion proof for one element against a chunked batch (or epoch)
/// root: the leaf chunk the element lives in, the element's offset inside
/// it, and the Merkle path from that leaf to the root.
///
/// The verifier needs only the proof and the root — never the full element
/// list. The chunk rides along because leaves hash [`BATCH_CHUNK`] packed
/// identities at a time; it is at most `BATCH_CHUNK` elements, independent
/// of the batch size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElementProof {
    /// The elements of the leaf chunk containing the proven element.
    pub chunk: Vec<Element>,
    /// The proven element's offset within `chunk`.
    pub offset: usize,
    /// Merkle inclusion proof for the chunk leaf.
    pub leaf_proof: MerkleProof,
}

impl ElementProof {
    /// The element this proof speaks for.
    pub fn element(&self) -> Element {
        self.chunk[self.offset]
    }

    /// Verifies that `element` sits at this proof's position under `root`.
    pub fn verify(&self, element: &Element, root: &Digest256) -> bool {
        let mut buf: LeafBuf = [0; BATCH_CHUNK * Element::PACKED_LEN];
        self.offset < self.chunk.len()
            && self.chunk.len() <= BATCH_CHUNK
            && self.chunk[self.offset] == *element
            && self
                .leaf_proof
                .verify(pack_chunk(&self.chunk, &mut buf), root)
    }
}

/// Builds the inclusion proof for `elements[index]` against `tree`, which
/// must have been built over the same slice (see [`batch_tree`]). Panics if
/// `index` is out of range or the tree shape does not match.
pub fn prove_element(tree: &MerkleTree, elements: &[Element], index: usize) -> ElementProof {
    assert!(index < elements.len(), "element index out of range");
    assert_eq!(
        tree.len(),
        elements.len().div_ceil(BATCH_CHUNK),
        "tree was not built over these elements"
    );
    let leaf = index / BATCH_CHUNK;
    let start = leaf * BATCH_CHUNK;
    let chunk = elements[start..elements.len().min(start + BATCH_CHUNK)].to_vec();
    ElementProof {
        chunk,
        offset: index - start,
        leaf_proof: tree.prove(leaf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain_crypto::{KeyRegistry, ProcessId};

    fn registry() -> KeyRegistry {
        KeyRegistry::bootstrap(11, 4, 3)
    }

    fn sealed_batch(reg: &KeyRegistry, client: usize, n: usize) -> (AuthedBatch, HmacSha256Key) {
        let keys = reg.lookup(ProcessId::client(client)).unwrap();
        let mut gen = crate::element::ElementGenerator::new(keys);
        let elements: Vec<Element> = (0..n).map(|i| gen.next_element(438, i as u64)).collect();
        let key = gen.auth_key().clone();
        (AuthedBatch::seal(&key, keys.id, elements), key)
    }

    #[test]
    fn sealed_batches_verify_at_many_sizes() {
        let reg = registry();
        for n in [1usize, 2, 7, 8, 9, 16, 63, 64, 65, 256] {
            let (batch, key) = sealed_batch(&reg, 0, n);
            assert!(batch.verify(&key), "n={n}");
            assert_eq!(batch.elements.len(), n);
        }
    }

    #[test]
    fn any_tampering_invalidates_the_whole_batch() {
        let reg = registry();
        let (batch, key) = sealed_batch(&reg, 0, 20);

        // Tamper one element (any field): the recomputed root moves.
        for i in [0usize, 7, 19] {
            let mut b = batch.clone();
            b.elements[i].content_seed ^= 1;
            assert!(!b.verify(&key), "tampered element {i} must kill the batch");
        }
        // Reorder: the root is order-sensitive.
        let mut swapped = batch.clone();
        swapped.elements.swap(0, 19);
        assert!(!swapped.verify(&key));
        // Truncate / extend: the count (and root) no longer match the MAC.
        let mut truncated = batch.clone();
        truncated.elements.pop();
        assert!(!truncated.verify(&key));
        let mut extended = batch.clone();
        let extra = extended.elements[0];
        extended.elements.push(extra);
        assert!(!extended.verify(&key));
        // Forge the MAC or the root directly.
        let mut forged = batch.clone();
        forged.mac ^= 1;
        assert!(!forged.verify(&key));
        let mut wrong_root = batch.clone();
        wrong_root.root = batch_root(&[]);
        assert!(!wrong_root.verify(&key));
    }

    #[test]
    fn replayed_root_with_swapped_elements_is_rejected() {
        // The root-replay attack the threat notes describe: keep the sealed
        // (root, mac) pair but substitute different element contents. The
        // recomputed root no longer matches the MAC'd one.
        let reg = registry();
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        let mut gen = crate::element::ElementGenerator::new(keys);
        // Two disjoint, individually valid 16-element batches from the same
        // client; only the first is sealed.
        let first: Vec<Element> = (0..16).map(|i| gen.next_element(438, i)).collect();
        let other: Vec<Element> = (16..32).map(|i| gen.next_element(438, i)).collect();
        let key = gen.auth_key().clone();
        let batch = AuthedBatch::seal(&key, keys.id, first);
        let mut replayed = batch.clone();
        replayed.elements = other;
        assert!(!replayed.verify(&key));
    }

    #[test]
    fn wrong_owner_or_key_is_rejected() {
        let reg = registry();
        let (batch, key) = sealed_batch(&reg, 0, 8);
        // Verified under someone else's key schedule.
        let other = reg.lookup(ProcessId::client(1)).unwrap();
        let other_key = HmacSha256Key::new(&other.secret.0);
        assert!(!batch.verify(&other_key));
        // Claimed for someone else: the elements' client field disagrees.
        let mut stolen = batch.clone();
        stolen.client = ProcessId::client(1);
        assert!(!stolen.verify(&key));
        assert!(!stolen.verify(&other_key));
        // A server cannot own a batch.
        let mut server_owned = batch.clone();
        server_owned.client = ProcessId::server(0);
        for e in &mut server_owned.elements {
            e.client = ProcessId::server(0);
        }
        assert!(!server_owned.verify(&key));
    }

    #[test]
    fn empty_batches_never_verify() {
        let reg = registry();
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        let key = HmacSha256Key::new(&keys.secret.0);
        let batch = AuthedBatch::seal(&key, keys.id, Vec::new());
        assert!(!batch.verify(&key));
    }

    #[test]
    fn element_proofs_verify_against_the_batch_root() {
        let reg = registry();
        for n in [1usize, 8, 9, 20, 65] {
            let (batch, _) = sealed_batch(&reg, 2, n);
            let tree = batch_tree(&batch.elements);
            assert_eq!(tree.root(), batch.root);
            for (i, e) in batch.elements.iter().enumerate() {
                let proof = prove_element(&tree, &batch.elements, i);
                assert_eq!(proof.element(), *e);
                assert!(proof.verify(e, &batch.root), "n={n} i={i}");
                assert!(proof.chunk.len() <= BATCH_CHUNK);
                // The proof speaks only for its own element.
                let other = batch.elements[(i + 1) % n];
                if other != *e {
                    assert!(!proof.verify(&other, &batch.root));
                }
            }
        }
    }

    #[test]
    fn element_proofs_fail_against_a_different_root() {
        let reg = registry();
        let (batch, _) = sealed_batch(&reg, 2, 12);
        let (other, _) = sealed_batch(&reg, 1, 12);
        let tree = batch_tree(&batch.elements);
        let proof = prove_element(&tree, &batch.elements, 3);
        assert!(!proof.verify(&batch.elements[3], &other.root));
        // A tampered chunk cannot sneak a foreign element in.
        let mut tampered = proof.clone();
        tampered.chunk[3] = other.elements[3];
        assert!(!tampered.verify(&other.elements[3], &batch.root));
    }

    #[test]
    fn batch_root_is_chunk_boundary_sensitive() {
        // Roots at n and n+1 elements differ even when the shared prefix is
        // identical: the count changes the leaf layout.
        let reg = registry();
        let (batch, _) = sealed_batch(&reg, 1, 9);
        let prefix_root = batch_root(&batch.elements[..8]);
        assert_ne!(prefix_root, batch.root);
        assert_ne!(batch_root(&batch.elements[..1]), prefix_root);
    }
}
