//! Light-client verification of epochs.
//!
//! The whole point of epoch-proofs is that a client interacting with a
//! *single*, possibly Byzantine, server can still convince itself that an
//! epoch is correct: it asks for the epoch contents and the proofs the server
//! holds for it, and accepts if at least `f + 1` proofs from distinct servers
//! verify against the contents — at least one of them comes from a correct
//! server. [`verify_epoch`] hashes the contents once and counts the proofs
//! through `proofs::count_epoch_signers`, the one quorum rule.

use setchain_crypto::KeyRegistry;
use setchain_simnet::SimDuration;

use crate::element::Element;
use crate::proofs::{count_epoch_signers, epoch_hash, EpochProof};

/// Per-missing-proof wait used to compute the
/// [`NotEnoughProofs`](EpochVerification::NotEnoughProofs) retry-after hint.
///
/// Each missing proof costs roughly one more gossip/block round, so the hint
/// scales linearly: an epoch one proof short of quorum is worth re-auditing
/// sooner than one with no proofs at all.
pub const RETRY_AFTER_PER_MISSING_PROOF: SimDuration = SimDuration(250_000); // 250 ms

/// Outcome of verifying an epoch from a single server's response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochVerification {
    /// The epoch is backed by at least `f + 1` valid proofs from distinct
    /// servers: it is correct even if the answering server is Byzantine.
    Verified {
        /// Number of distinct valid signers found.
        valid_proofs: usize,
    },
    /// Fewer than `f + 1` valid proofs. The epoch may simply not be fully
    /// proven yet — proofs spread through ledger blocks — so this verdict is
    /// *retryable*, and [`retry_after`](Self::retry_after) carries a
    /// machine-usable wait before re-auditing the epoch (or asking a
    /// different server). `setchain-workload`'s `ClientSession` re-audits an
    /// epoch holding one of its retried adds after this hint.
    NotEnoughProofs {
        /// Number of distinct valid signers found.
        valid_proofs: usize,
        /// Number required (`f + 1`).
        required: usize,
        /// Suggested wait before re-requesting this epoch:
        /// [`RETRY_AFTER_PER_MISSING_PROOF`] per missing proof.
        retry_after: SimDuration,
    },
}

impl EpochVerification {
    /// True if the epoch verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, EpochVerification::Verified { .. })
    }

    /// The suggested wait before re-auditing, for retryable verdicts
    /// (`None` once verified — there is nothing left to retry).
    pub fn retry_after(&self) -> Option<SimDuration> {
        match self {
            EpochVerification::Verified { .. } => None,
            EpochVerification::NotEnoughProofs { retry_after, .. } => Some(*retry_after),
        }
    }
}

/// Verifies an epoch against a set of proofs.
///
/// `servers` is the deployment size `n` and `f` the assumed maximum number of
/// Byzantine servers; proofs from outside the server set, with invalid
/// signatures, for a different epoch number, or duplicated signers are all
/// ignored. The epoch's digest is computed once, whatever the number of
/// proofs.
pub fn verify_epoch(
    registry: &KeyRegistry,
    servers: usize,
    f: usize,
    epoch: u64,
    elements: &[Element],
    proofs: &[EpochProof],
) -> EpochVerification {
    let digest = epoch_hash(epoch, elements);
    let valid_proofs = count_epoch_signers(registry, servers, epoch, &digest, proofs);
    let required = f + 1;
    if valid_proofs >= required {
        EpochVerification::Verified { valid_proofs }
    } else {
        let missing = (required - valid_proofs) as u64;
        EpochVerification::NotEnoughProofs {
            valid_proofs,
            required,
            retry_after: RETRY_AFTER_PER_MISSING_PROOF * missing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Element, ElementId};
    use crate::proofs::make_epoch_proof;
    use setchain_crypto::{ProcessId, Signature};

    fn setup(n: usize) -> (KeyRegistry, Vec<Element>) {
        let reg = KeyRegistry::bootstrap(21, n, 2);
        let client = reg.lookup(ProcessId::client(0)).unwrap();
        let elements: Vec<Element> = (0..8)
            .map(|i| Element::new(&client, ElementId::new(0, i), 438, i))
            .collect();
        (reg, elements)
    }

    fn proofs_from(
        reg: &KeyRegistry,
        signers: &[usize],
        epoch: u64,
        elements: &[Element],
    ) -> Vec<EpochProof> {
        signers
            .iter()
            .map(|&i| make_epoch_proof(&reg.lookup(ProcessId::server(i)).unwrap(), epoch, elements))
            .collect()
    }

    #[test]
    fn quorum_of_valid_proofs_verifies() {
        let (reg, elements) = setup(4);
        let proofs = proofs_from(&reg, &[0, 1], 1, &elements);
        let v = verify_epoch(&reg, 4, 1, 1, &elements, &proofs);
        assert_eq!(v, EpochVerification::Verified { valid_proofs: 2 });
        assert!(v.is_verified());
    }

    #[test]
    fn insufficient_or_duplicate_proofs_do_not_verify() {
        let (reg, elements) = setup(4);
        let one = proofs_from(&reg, &[0], 1, &elements);
        let verdict = verify_epoch(&reg, 4, 1, 1, &elements, &one);
        assert_eq!(
            verdict,
            EpochVerification::NotEnoughProofs {
                valid_proofs: 1,
                required: 2,
                retry_after: RETRY_AFTER_PER_MISSING_PROOF,
            }
        );
        // One proof short of quorum: the retry-after hint is one base unit;
        // a proofless epoch is hinted proportionally further out.
        assert_eq!(verdict.retry_after(), Some(RETRY_AFTER_PER_MISSING_PROOF));
        let none = verify_epoch(&reg, 4, 1, 1, &elements, &[]);
        assert_eq!(
            none.retry_after(),
            Some(RETRY_AFTER_PER_MISSING_PROOF * 2),
            "hint scales with missing proofs"
        );
        // The same signer repeated does not count twice.
        let dup = proofs_from(&reg, &[0, 0, 0], 1, &elements);
        assert!(!verify_epoch(&reg, 4, 1, 1, &elements, &dup).is_verified());
    }

    #[test]
    fn forged_wrong_epoch_and_outsider_proofs_ignored() {
        let (reg, elements) = setup(4);
        let mut proofs = proofs_from(&reg, &[0], 1, &elements);
        // Forged signature.
        let mut forged = proofs[0];
        forged.signer = ProcessId::server(1);
        forged.signature = Signature::forged(ProcessId::server(1));
        proofs.push(forged);
        // Proof for another epoch.
        proofs.extend(proofs_from(&reg, &[2], 2, &elements));
        // Proof over different contents.
        proofs.push(make_epoch_proof(
            &reg.lookup(ProcessId::server(3)).unwrap(),
            1,
            &elements[..4],
        ));
        assert!(!verify_epoch(&reg, 4, 1, 1, &elements, &proofs).is_verified());
    }

    #[test]
    fn byzantine_server_cannot_fake_an_epoch_alone() {
        // f = 1: a single Byzantine server's proof (even if its signature is
        // technically valid) is not enough, because f + 1 = 2 distinct
        // signers are required.
        let (reg, elements) = setup(4);
        let fabricated: Vec<Element> = elements[..3].to_vec();
        let proofs = proofs_from(&reg, &[2], 1, &fabricated);
        assert!(!verify_epoch(&reg, 4, 1, 1, &fabricated, &proofs).is_verified());
    }
}
