//! Epoch-proofs: server signatures over the hash of an epoch.
//!
//! An epoch-proof for epoch `i` is `Sign_v(Hash(i, history[i]))`. Proofs are
//! disseminated through the ledger (directly in Vanilla, inside batches in
//! Compresschain and Hashchain) and a client that collects `f + 1` consistent
//! proofs for an epoch knows at least one correct server vouches for it
//! (Property 8, Valid-Epoch).

use serde::{Deserialize, Serialize};
use setchain_crypto::{
    sign, sign_with, verify, Digest256, Digest512, KeyPair, KeyRegistry, ProcessId, Sha512,
    Signature, SigningKey,
};

use crate::batch_auth::{batch_root, batch_tree, prove_element, ElementProof};
use crate::element::{Element, ElementId};

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

/// Serializable summary of a proof (used in experiment reports).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EpochProofSummary {
    /// Epoch number.
    pub epoch: u64,
    /// Signer id.
    pub signer: u64,
}

impl EpochProof {
    /// Wire length (fixed, per the paper).
    pub fn wire_size(&self) -> usize {
        EPOCH_PROOF_WIRE_LEN
    }

    /// Summary for reports.
    pub fn summary(&self) -> EpochProofSummary {
        EpochProofSummary {
            epoch: self.epoch,
            signer: self.signer.0,
        }
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
        batch_root(elements)
    } else {
        batch_root(&canonical_order(elements))
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
        if !self.element.verify(element, &self.root) {
            return false;
        }
        let digest = epoch_hash_for_root(self.epoch, self.count, &self.root);
        let mut signers = std::collections::HashSet::new();
        for proof in proofs {
            if proof.epoch == self.epoch
                && verify_epoch_proof_digest(registry, servers, proof, &digest)
            {
                signers.insert(proof.signer);
            }
        }
        signers.len() > f
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
    let tree = batch_tree(&sorted);
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

/// The paper's `valid_proof(j, p, w, history[j])`: checks that `proof` is a
/// valid signature by its claimed signer over the hash of `elements` for its
/// claimed epoch, and that the signer is one of the `n` Setchain servers.
pub fn verify_epoch_proof(
    registry: &KeyRegistry,
    servers: usize,
    proof: &EpochProof,
    elements: &[Element],
) -> bool {
    verify_epoch_proof_digest(registry, servers, proof, &epoch_hash(proof.epoch, elements))
}

/// [`verify_epoch_proof`] against a cached epoch digest: same verdict, no
/// re-hash of the epoch elements.
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
        assert!(verify_epoch_proof(&reg, 4, &proof, &elements));
        assert_eq!(proof.summary().epoch, 3);
    }

    #[test]
    fn proof_rejects_wrong_epoch_or_elements() {
        let (reg, elements) = setup();
        let server = reg.lookup(ProcessId::server(1)).unwrap();
        let proof = make_epoch_proof(&server, 3, &elements);
        // Different epoch number.
        let mut wrong_epoch = proof;
        wrong_epoch.epoch = 4;
        assert!(!verify_epoch_proof(&reg, 4, &wrong_epoch, &elements));
        // Different element set.
        assert!(!verify_epoch_proof(&reg, 4, &proof, &elements[..9]));
    }

    #[test]
    fn proof_rejects_non_server_or_mismatched_signer() {
        let (reg, elements) = setup();
        let client = reg.lookup(ProcessId::client(0)).unwrap();
        let proof_by_client = make_epoch_proof(&client, 1, &elements);
        assert!(!verify_epoch_proof(&reg, 4, &proof_by_client, &elements));

        let server = reg.lookup(ProcessId::server(1)).unwrap();
        let mut mismatched = make_epoch_proof(&server, 1, &elements);
        mismatched.signer = ProcessId::server(2);
        assert!(!verify_epoch_proof(&reg, 4, &mismatched, &elements));

        // Signer outside the server set of this deployment.
        let outsider = reg.lookup(ProcessId::server(3)).unwrap();
        let proof = make_epoch_proof(&outsider, 1, &elements);
        assert!(!verify_epoch_proof(&reg, 3, &proof, &elements));
        assert!(verify_epoch_proof(&reg, 4, &proof, &elements));
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
}
