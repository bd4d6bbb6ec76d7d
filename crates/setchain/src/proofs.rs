//! Epoch-proofs: server signatures over the hash of an epoch.
//!
//! An epoch-proof for epoch `i` is `Sign_v(Hash(i, history[i]))`. Proofs are
//! disseminated through the ledger (directly in Vanilla, inside batches in
//! Compresschain and Hashchain) and a client that collects `f + 1` consistent
//! proofs for an epoch knows at least one correct server vouches for it
//! (Property 8, Valid-Epoch). `count_epoch_signers` is that rule, written
//! once: the light client's [`crate::verify_epoch`] and
//! [`EpochInclusionProof::verify`] both count through it.
//!
//! This module also owns the epoch-root format: the chunked Merkle tree
//! over an epoch's elements that the epoch digest commits to, and the
//! element→epoch inclusion proofs a light client checks against it.
//!
//! The tree does **not** use one leaf per element: with 36-byte packed
//! identities a leaf-per-element tree costs ~3 SHA-256 compressions per
//! element, because every leaf and every internal node is its own
//! compression. Instead [`BATCH_CHUNK`] packed identities share one leaf:
//! hashing a 288-byte leaf costs 5 compressions (0.625/element) and the
//! internal nodes add ~0.25/element, ~0.875 compressions per element
//! overall.

use setchain_crypto::{
    leaf_hash, sign, sign_with, verify, Digest256, Digest512, KeyPair, KeyRegistry, MerkleProof,
    MerkleTree, ProcessId, Sha512, Signature, SigningKey,
};

use crate::element::{Element, ElementId};

/// Elements per Merkle leaf of an epoch root. Eight 36-byte packed
/// identities fill a 288-byte leaf — the sweet spot where leaf hashing
/// amortises to well under one SHA-256 compression per element while proofs
/// stay one small chunk plus a logarithmic path.
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

/// The chunked Merkle tree over `elements` in the given order: one leaf per
/// [`BATCH_CHUNK`]-element chunk, each chunk packed into one reused stack
/// buffer.
fn chunked_tree(elements: &[Element]) -> MerkleTree {
    let mut buf: LeafBuf = [0; BATCH_CHUNK * Element::PACKED_LEN];
    MerkleTree::from_leaf_hashes(
        elements
            .chunks(BATCH_CHUNK)
            .map(|chunk| leaf_hash(pack_chunk(chunk, &mut buf)))
            .collect(),
    )
}

/// An inclusion proof for one element against a chunked root: the leaf
/// chunk the element lives in, the element's offset inside it, and the
/// Merkle path from that leaf to the root.
///
/// The verifier needs only the proof and the root — never the full element
/// list. The chunk rides along because leaves hash [`BATCH_CHUNK`] packed
/// identities at a time; it is at most `BATCH_CHUNK` elements, independent
/// of the epoch size.
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
/// was built over the same slice by [`chunked_tree`].
fn prove_element(tree: &MerkleTree, elements: &[Element], index: usize) -> ElementProof {
    let leaf = index / BATCH_CHUNK;
    let start = leaf * BATCH_CHUNK;
    let chunk = elements[start..elements.len().min(start + BATCH_CHUNK)].to_vec();
    ElementProof {
        chunk,
        offset: index - start,
        leaf_proof: tree.prove(leaf),
    }
}

/// Wire length of an epoch-proof, as reported in the paper's evaluation
/// (139 bytes).
pub const EPOCH_PROOF_WIRE_LEN: usize = 139;

/// An epoch-proof `⟨i, p, v⟩`: epoch number, signature, signer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpochProof {
    /// The epoch this proof vouches for.
    pub epoch: u64,
    /// The signing server.
    pub signer: ProcessId,
    /// Signature over `Hash(epoch, elements)`.
    pub signature: Signature,
}

impl EpochProof {
    /// Wire length (fixed, per the paper).
    pub fn wire_size(&self) -> usize {
        EPOCH_PROOF_WIRE_LEN
    }
}

/// The epoch's elements in the canonical order the epoch digest commits to:
/// ascending id (epochs are deduplicated by id when they are formed, so the
/// order is total).
fn canonical_order(elements: &[Element]) -> Vec<Element> {
    let mut sorted = elements.to_vec();
    sorted.sort_by_key(|e| e.id);
    sorted
}

/// The chunked Merkle root over the epoch's elements in canonical (ascending
/// id) order — the commitment the epoch digest is built from, and the root
/// element→epoch inclusion proofs verify against (see
/// [`prove_epoch_inclusion`]). Hashchain's batch hash commits to the same
/// root, so a batch that becomes an epoch whole is hashed once.
pub fn epoch_root(elements: &[Element]) -> Digest256 {
    // Already in canonical order (a batch of one client's adds usually is):
    // hash in place instead of copying and sorting.
    if elements.is_sorted_by_key(|e| e.id) {
        chunked_tree(elements).root()
    } else {
        chunked_tree(&canonical_order(elements)).root()
    }
}

/// Canonical hash of an epoch: `Hash(i, history[i])`, computed as
/// `SHA-512(domain ‖ epoch ‖ count ‖ epoch_root(history[i]))`.
///
/// Elements are committed in ascending id order so that the digest does not
/// depend on the incidental order a server stored them in. Routing the
/// element bytes through the chunked Merkle root (rather than hashing them
/// into the SHA-512 stream directly) is what lets a light client verify a
/// *single element's* membership against `f + 1` signed digests from the
/// `(epoch, count, root)` triple and a logarithmic proof — it never needs
/// the epoch's element set (see [`EpochInclusionProof`]).
pub fn epoch_hash(epoch: u64, elements: &[Element]) -> Digest512 {
    epoch_hash_for_root(epoch, elements.len() as u64, &epoch_root(elements))
}

/// [`epoch_hash`] from the already-known commitment triple. This is the
/// light-client side of the split: given `(epoch, count, root)` it
/// reconstructs the exact digest the servers signed, without the elements.
pub fn epoch_hash_for_root(epoch: u64, count: u64, root: &Digest256) -> Digest512 {
    let mut h = Sha512::new();
    h.update(b"setchain-epoch");
    h.update(&epoch.to_le_bytes());
    h.update(&count.to_le_bytes());
    h.update(root.as_bytes());
    h.finalize()
}

/// A self-contained element→epoch membership proof: the epoch's commitment
/// triple plus the Merkle path of one element. Together with `f + 1`
/// epoch-proofs this convinces a light client that the element is in the
/// epoch — the epoch's element set is never shipped or inspected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochInclusionProof {
    /// The epoch the element is claimed to be in.
    pub epoch: u64,
    /// Number of elements in that epoch (bound into the signed digest).
    pub count: u64,
    /// The epoch's chunked Merkle root (bound into the signed digest).
    pub root: Digest256,
    /// Merkle membership of the element under `root`.
    pub element: ElementProof,
}

impl EpochInclusionProof {
    /// Verifies the full chain `element → root → signed digest → f + 1
    /// distinct server signatures`: the element sits under the claimed
    /// root, and at least `f + 1` of the supplied epoch-proofs are valid
    /// signatures by distinct servers over the digest this proof's triple
    /// reconstructs — so at least one correct server vouches for exactly
    /// this commitment.
    pub fn verify(
        &self,
        registry: &KeyRegistry,
        servers: usize,
        f: usize,
        element: &Element,
        proofs: &[EpochProof],
    ) -> bool {
        let digest = epoch_hash_for_root(self.epoch, self.count, &self.root);
        self.element.verify(element, &self.root)
            && count_epoch_signers(registry, servers, self.epoch, &digest, proofs) > f
    }
}

/// Builds the element→epoch inclusion proof for the element with `id` from
/// the epoch's full element set (the prover side: a server, or a session
/// that fetched the epoch). Returns `None` if no element with that id is in
/// the epoch.
pub fn prove_epoch_inclusion(
    epoch: u64,
    elements: &[Element],
    id: ElementId,
) -> Option<EpochInclusionProof> {
    let sorted = canonical_order(elements);
    let index = sorted.binary_search_by_key(&id, |e| e.id).ok()?;
    let tree = chunked_tree(&sorted);
    Some(EpochInclusionProof {
        epoch,
        count: sorted.len() as u64,
        root: tree.root(),
        element: prove_element(&tree, &sorted, index),
    })
}

/// Creates the epoch-proof `p_v(i) = Sign_v(Hash(i, elements))`.
pub fn make_epoch_proof(keys: &KeyPair, epoch: u64, elements: &[Element]) -> EpochProof {
    make_epoch_proof_for_digest(keys, epoch, &epoch_hash(epoch, elements))
}

/// Creates an epoch-proof over an already-computed epoch digest.
///
/// Servers cache the digest of every epoch they record
/// ([`crate::SetchainState::epoch_digest`]), so signing and verifying proofs
/// does not re-hash the epoch's elements at every site.
pub fn make_epoch_proof_for_digest(keys: &KeyPair, epoch: u64, digest: &Digest512) -> EpochProof {
    EpochProof {
        epoch,
        signer: keys.id,
        signature: sign(keys, digest.as_bytes()),
    }
}

/// [`make_epoch_proof_for_digest`] through a precomputed signing schedule
/// for `signer`: servers sign one proof per epoch, and the schedule spares
/// the per-signature key derivation.
pub fn make_epoch_proof_with_key(
    key: &SigningKey,
    signer: ProcessId,
    epoch: u64,
    digest: &Digest512,
) -> EpochProof {
    EpochProof {
        epoch,
        signer,
        signature: sign_with(key, signer, digest.as_bytes()),
    }
}

/// The paper's `valid_proof(j, p, w, history[j])` against the epoch's digest
/// ([`epoch_hash`] of `history[j]`): checks that `proof` is a valid signature
/// by its claimed signer over `digest`, and that the signer is one of the `n`
/// Setchain servers. The caller matches `proof.epoch` to the digest's epoch.
pub fn verify_epoch_proof_digest(
    registry: &KeyRegistry,
    servers: usize,
    proof: &EpochProof,
    digest: &Digest512,
) -> bool {
    if proof.signature.signer != proof.signer {
        return false;
    }
    if !proof.signer.is_server() || proof.signer.server_index() >= servers {
        return false;
    }
    verify(registry, digest.as_bytes(), &proof.signature)
}

/// The Valid-Epoch quorum count: the number of distinct servers among
/// `proofs` whose proof for `epoch` verifies against `digest` through
/// [`verify_epoch_proof_digest`]. A client trusts the epoch once this exceeds
/// `f`. Proofs for another epoch are skipped, and so is every later proof
/// by a signer already counted, so each counted signer's signature is
/// verified once.
pub(crate) fn count_epoch_signers(
    registry: &KeyRegistry,
    servers: usize,
    epoch: u64,
    digest: &Digest512,
    proofs: &[EpochProof],
) -> usize {
    // At most `servers` entries: a linear scan beats hashing them.
    let mut signers: Vec<ProcessId> = Vec::new();
    for proof in proofs {
        if proof.epoch == epoch
            && !signers.contains(&proof.signer)
            && verify_epoch_proof_digest(registry, servers, proof, digest)
        {
            signers.push(proof.signer);
        }
    }
    signers.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Element, ElementId};
    use setchain_crypto::KeyRegistry;

    fn setup() -> (KeyRegistry, Vec<Element>) {
        let reg = KeyRegistry::bootstrap(3, 4, 2);
        let client = reg.lookup(ProcessId::client(0)).unwrap();
        let elements: Vec<Element> = (0..10)
            .map(|i| Element::new(&client, ElementId::new(0, i), 400 + i as u32, i))
            .collect();
        (reg, elements)
    }

    #[test]
    fn proof_roundtrip() {
        let (reg, elements) = setup();
        let server = reg.lookup(ProcessId::server(1)).unwrap();
        let proof = make_epoch_proof(&server, 3, &elements);
        assert_eq!(proof.epoch, 3);
        assert_eq!(proof.signer, ProcessId::server(1));
        assert_eq!(proof.wire_size(), 139);
        assert!(verify_epoch_proof_digest(
            &reg,
            4,
            &proof,
            &epoch_hash(proof.epoch, &elements)
        ));
    }

    #[test]
    fn proof_rejects_wrong_epoch_or_elements() {
        let (reg, elements) = setup();
        let server = reg.lookup(ProcessId::server(1)).unwrap();
        let proof = make_epoch_proof(&server, 3, &elements);
        // Different epoch number.
        let mut wrong_epoch = proof;
        wrong_epoch.epoch = 4;
        assert!(!verify_epoch_proof_digest(
            &reg,
            4,
            &wrong_epoch,
            &epoch_hash(wrong_epoch.epoch, &elements)
        ));
        // Different element set.
        assert!(!verify_epoch_proof_digest(
            &reg,
            4,
            &proof,
            &epoch_hash(proof.epoch, &elements[..9])
        ));
    }

    #[test]
    fn proof_rejects_non_server_or_mismatched_signer() {
        let (reg, elements) = setup();
        let client = reg.lookup(ProcessId::client(0)).unwrap();
        let proof_by_client = make_epoch_proof(&client, 1, &elements);
        assert!(!verify_epoch_proof_digest(
            &reg,
            4,
            &proof_by_client,
            &epoch_hash(proof_by_client.epoch, &elements)
        ));

        let server = reg.lookup(ProcessId::server(1)).unwrap();
        let mut mismatched = make_epoch_proof(&server, 1, &elements);
        mismatched.signer = ProcessId::server(2);
        assert!(!verify_epoch_proof_digest(
            &reg,
            4,
            &mismatched,
            &epoch_hash(mismatched.epoch, &elements)
        ));

        // Signer outside the server set of this deployment.
        let outsider = reg.lookup(ProcessId::server(3)).unwrap();
        let proof = make_epoch_proof(&outsider, 1, &elements);
        assert!(!verify_epoch_proof_digest(
            &reg,
            3,
            &proof,
            &epoch_hash(proof.epoch, &elements)
        ));
        assert!(verify_epoch_proof_digest(
            &reg,
            4,
            &proof,
            &epoch_hash(proof.epoch, &elements)
        ));
    }

    #[test]
    fn epoch_hash_is_order_insensitive_but_content_sensitive() {
        let (_, elements) = setup();
        let mut reversed = elements.clone();
        reversed.reverse();
        assert_eq!(epoch_hash(1, &elements), epoch_hash(1, &reversed));
        assert_ne!(epoch_hash(1, &elements), epoch_hash(2, &elements));
        assert_ne!(epoch_hash(1, &elements), epoch_hash(1, &elements[..9]));
        let mut tampered = elements.clone();
        tampered[0].size += 1;
        assert_ne!(epoch_hash(1, &elements), epoch_hash(1, &tampered));
    }

    #[test]
    fn empty_epoch_hash_is_well_defined() {
        assert_eq!(epoch_hash(1, &[]), epoch_hash(1, &[]));
        assert_ne!(epoch_hash(1, &[]), epoch_hash(2, &[]));
    }

    #[test]
    fn epoch_hash_commits_to_the_root_triple() {
        let (_, elements) = setup();
        let root = epoch_root(&elements);
        assert_eq!(
            epoch_hash(5, &elements),
            epoch_hash_for_root(5, elements.len() as u64, &root)
        );
        // The root is order-insensitive like the hash.
        let mut reversed = elements.clone();
        reversed.reverse();
        assert_eq!(root, epoch_root(&reversed));
        assert_ne!(
            epoch_hash_for_root(5, elements.len() as u64, &root),
            epoch_hash_for_root(5, elements.len() as u64 + 1, &root),
            "count is bound into the digest"
        );
    }

    #[test]
    fn epoch_inclusion_proofs_verify_without_the_element_set() {
        let (reg, elements) = setup();
        let proofs: Vec<EpochProof> = [1usize, 2]
            .iter()
            .map(|&i| make_epoch_proof(&reg.lookup(ProcessId::server(i)).unwrap(), 3, &elements))
            .collect();
        for e in &elements {
            let incl = prove_epoch_inclusion(3, &elements, e.id).unwrap();
            assert_eq!(incl.epoch, 3);
            assert_eq!(incl.count, elements.len() as u64);
            // The verifier sees only the proof, the element and the
            // epoch-proofs — never `elements`.
            assert!(incl.verify(&reg, 4, 1, e, &proofs));
            // The proof speaks only for its own element.
            let other = &elements[(e.id.seq() as usize + 1) % elements.len()];
            assert!(!incl.verify(&reg, 4, 1, other, &proofs));
        }

        let incl = prove_epoch_inclusion(3, &elements, elements[0].id).unwrap();
        // Fewer than f + 1 distinct signers: rejected.
        assert!(!incl.verify(&reg, 4, 1, &elements[0], &proofs[..1]));
        assert!(incl.verify(&reg, 4, 0, &elements[0], &proofs[..1]));
        // A tampered triple breaks the signed digest.
        let mut wrong_epoch = incl.clone();
        wrong_epoch.epoch = 4;
        assert!(!wrong_epoch.verify(&reg, 4, 1, &elements[0], &proofs));
        let mut wrong_count = incl.clone();
        wrong_count.count += 1;
        assert!(!wrong_count.verify(&reg, 4, 1, &elements[0], &proofs));
        let mut wrong_root = incl.clone();
        wrong_root.root = epoch_root(&elements[..4]);
        assert!(!wrong_root.verify(&reg, 4, 1, &elements[0], &proofs));
        // Absent ids have no proof.
        assert!(prove_epoch_inclusion(3, &elements, ElementId::new(7, 7)).is_none());
    }

    #[test]
    fn the_quorum_counts_each_valid_server_signer_once() {
        use crate::client::{verify_epoch, EpochVerification, RETRY_AFTER_PER_MISSING_PROOF};
        use setchain_crypto::Signature;

        // n = 3 of the registry's four servers, f = 1: server 3 is outside.
        let (reg, elements) = setup();
        let (n, f, epoch) = (3, 1, 3);
        let digest = epoch_hash(epoch, &elements);
        let by = |id: ProcessId| make_epoch_proof(&reg.lookup(id).unwrap(), epoch, &elements);
        let (s0, s1) = (by(ProcessId::server(0)), by(ProcessId::server(1)));
        let other_epoch = make_epoch_proof_for_digest(&reg.lookup(s0.signer).unwrap(), 4, &digest);
        let forged = EpochProof {
            signature: Signature::forged(ProcessId::server(2)),
            ..by(ProcessId::server(2))
        };
        let mislabelled = EpochProof {
            signer: ProcessId::server(2),
            ..s1
        };
        let cases: [(&str, Vec<EpochProof>, usize); 8] = [
            ("one signer", vec![s0], 1),
            ("one signer three times", vec![s0, s0, s0], 1),
            ("a proof for another epoch", vec![other_epoch], 0),
            ("a client signer", vec![by(ProcessId::client(0))], 0),
            ("a server index >= n", vec![by(ProcessId::server(3))], 0),
            ("signature.signer != signer", vec![mislabelled], 0),
            ("a forged signature", vec![forged], 0),
            (
                "every rejected proof, then two signers",
                vec![forged, mislabelled, s1, s0, s1],
                2,
            ),
        ];
        for (case, proofs, want) in cases {
            let got = count_epoch_signers(&reg, n, epoch, &digest, &proofs);
            assert_eq!(got, want, "{case}");
        }

        // At f + 1 distinct valid signers both light-client checks accept.
        let quorum = [forged, mislabelled, s0, s1];
        let verdict = verify_epoch(&reg, n, f, epoch, &elements, &quorum);
        assert_eq!(verdict, EpochVerification::Verified { valid_proofs: 2 });
        let inclusion = prove_epoch_inclusion(epoch, &elements, elements[0].id).unwrap();
        assert!(inclusion.verify(&reg, n, f, &elements[0], &quorum));
        // At f they do not, and the retry hint is one missing proof's wait.
        let short = [forged, mislabelled, s0, s0];
        let verdict = verify_epoch(&reg, n, f, epoch, &elements, &short);
        let want = EpochVerification::NotEnoughProofs {
            valid_proofs: 1,
            required: 2,
            retry_after: RETRY_AFTER_PER_MISSING_PROOF,
        };
        assert_eq!(verdict, want);
        assert!(!inclusion.verify(&reg, n, f, &elements[0], &short));
    }

    /// `n` elements of client `client`, in id order.
    fn client_elements(client: usize, n: usize) -> Vec<Element> {
        let reg = KeyRegistry::bootstrap(11, 4, 3);
        let keys = reg.lookup(ProcessId::client(client)).unwrap();
        (0..n as u64)
            .map(|i| Element::new(&keys, ElementId::new(client as u32, i), 438, i))
            .collect()
    }

    #[test]
    fn element_proofs_verify_against_the_chunked_root() {
        for n in [1usize, 8, 9, 20, 65] {
            let elements = client_elements(2, n);
            let tree = chunked_tree(&elements);
            let root = tree.root();
            for (i, e) in elements.iter().enumerate() {
                let proof = prove_element(&tree, &elements, i);
                assert_eq!(proof.element(), *e);
                assert!(proof.verify(e, &root), "n={n} i={i}");
                assert!(proof.chunk.len() <= BATCH_CHUNK);
                // The proof speaks only for its own element.
                let other = elements[(i + 1) % n];
                if other != *e {
                    assert!(!proof.verify(&other, &root));
                }
            }
        }
    }

    #[test]
    fn element_proofs_fail_against_a_different_root() {
        let elements = client_elements(2, 12);
        let other = client_elements(1, 12);
        let other_root = epoch_root(&other);
        let tree = chunked_tree(&elements);
        let proof = prove_element(&tree, &elements, 3);
        assert!(!proof.verify(&elements[3], &other_root));
        // A tampered chunk cannot sneak a foreign element in.
        let mut tampered = proof.clone();
        tampered.chunk[3] = other[3];
        assert!(!tampered.verify(&other[3], &tree.root()));
    }

    #[test]
    fn chunked_root_is_chunk_boundary_sensitive() {
        // Roots at n and n+1 elements differ even when the shared prefix is
        // identical: the count changes the leaf layout.
        let elements = client_elements(1, 9);
        let prefix_root = epoch_root(&elements[..8]);
        assert_ne!(prefix_root, epoch_root(&elements));
        assert_ne!(epoch_root(&elements[..1]), prefix_root);
    }
}
