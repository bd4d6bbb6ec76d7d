//! One reusable checker of the Setchain properties on a deployment, run
//! after (or paused in the middle of) a simulation.
//!
//! [`check_setchain_invariants`] reads every server whose Setchain
//! behaviour is correct (`ServerByzMode::Correct`) and checks, from the
//! state alone:
//!
//! * **Consistent-Sets** and **Unique-Epoch** on each server: every stamped
//!   element is in `the_set`, and no element is in two epochs;
//! * **pairwise consistent epochs**: any two servers agree on their common
//!   epoch prefix, both as element sets and as signed digests;
//! * **valid proofs**: each epoch's digest is recomputed from its elements
//!   and must equal the cached one, every held epoch-proof must verify
//!   against it through [`verify_epoch_proof_digest`], and an epoch counted
//!   as committed must hold `f + 1` such proofs by distinct servers;
//! * **light-client inclusion**: for one element of every committed,
//!   non-empty epoch, an [`EpochInclusionProof`] built from the epoch
//!   verifies against those proofs;
//! * **add-before-get**: every element of every epoch was added by a
//!   client. An injection client's element (client index below `n`) must
//!   have an add record in [`Deployment::trace`]; the trace does not follow
//!   other clients (the adversarial client, scripted sessions), so their
//!   elements must carry a valid client authenticator instead;
//! * **eventual get at quiescence**: once every traced add has committed,
//!   every added id is in every correct server's `the_set`.
//!
//! Ledger-level faults are not visible through a [`Deployment`], so a
//! validator with a faulty ledger mode is checked like a correct one.
//!
//! [`EpochInclusionProof`]: setchain::EpochInclusionProof

use setchain::proofs::verify_epoch_proof_digest;
use setchain::{epoch_hash, prove_epoch_inclusion, ElementId, EpochProof, SetchainState};
use setchain_crypto::{Digest512, FxHashSet, KeyRegistry, ProcessId, Signature};

use crate::deploy::Deployment;

/// What [`check_setchain_invariants`] covered, so a caller can tell a
/// passing check from a vacuous one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Servers checked (those whose Setchain behaviour is correct).
    pub servers: usize,
    /// Epochs checked, summed over servers.
    pub epochs: u64,
    /// Epochs holding `f + 1` valid proofs, summed over servers.
    pub committed_epochs: u64,
    /// Epoch-proofs verified against a recomputed digest.
    pub proofs_verified: u64,
    /// Element→epoch inclusion proofs built and verified.
    pub inclusion_proofs: u64,
    /// Epoch elements traced back to their add, summed over servers.
    pub adds_before_gets: u64,
    /// Added ids found in `the_set` once every traced add had committed,
    /// summed over servers; 0 when the run stopped before quiescence.
    pub eventual_gets: u64,
}

/// Checks the Setchain properties listed in the [module docs](self) on
/// every correct server of `d`. Returns what was covered, or the first
/// violation found, naming the server and the epoch.
pub fn check_setchain_invariants(d: &Deployment) -> Result<InvariantReport, String> {
    let correct: Vec<usize> = (0..d.config.servers)
        .filter(|&i| !d.server(i).core().byz.is_faulty())
        .collect();
    let mut report = InvariantReport {
        servers: correct.len(),
        ..InvariantReport::default()
    };
    let records = d.trace.element_records();
    let quiescent = records.iter().all(|r| r.committed_at.is_some());
    let mut added: Vec<ElementId> = records.iter().map(|r| r.id).collect();
    added.sort_unstable();
    let mut verified = FxHashSet::default();
    for &i in &correct {
        let state = d.server(i).state();
        check_server(d, state, &added, &mut verified, &mut report)
            .map_err(|e| format!("server {i}: {e}"))?;
        if quiescent {
            if let Some(id) = added.iter().find(|id| !state.contains(id)) {
                return Err(format!("server {i}: committed {id:?} is not in the_set"));
            }
            report.eventual_gets += added.len() as u64;
        }
    }
    // Agreeing with the longest history is agreeing with each other: every
    // server's epochs are a prefix of its length.
    let Some(&r) = correct.iter().max_by_key(|&&i| d.server(i).state().epoch()) else {
        return Ok(report);
    };
    let reference = d.server(r).state();
    for &i in &correct {
        let state = d.server(i).state();
        if !state.check_consistent_with(reference) {
            return Err(format!("servers {i} and {r}: epoch contents diverge"));
        }
        for e in 1..=state.epoch() {
            if state.epoch_digest(e) != reference.epoch_digest(e) {
                return Err(format!("servers {i} and {r}: epoch {e} digests differ"));
            }
        }
    }
    Ok(report)
}

/// Proofs already verified, as (claimed signer, signature, digest): every
/// input [`verify_epoch_proof_digest`] reads besides the fixed registry and
/// server count, so a hit has the same verdict as a fresh verification.
type Verified = FxHashSet<(ProcessId, Signature, Digest512)>;

/// [`verify_epoch_proof_digest`], skipped when an identical proof was
/// already verified against `digest` on another server.
fn verify_once(
    registry: &KeyRegistry,
    servers: usize,
    proof: &EpochProof,
    digest: &Digest512,
    verified: &mut Verified,
) -> bool {
    let key = (proof.signer, proof.signature, *digest);
    if verified.contains(&key) {
        return true;
    }
    let valid = verify_epoch_proof_digest(registry, servers, proof, digest);
    if valid {
        verified.insert(key);
    }
    valid
}

/// The per-server half of [`check_setchain_invariants`]. `added` holds the
/// traced adds' ids, sorted; `verified` the proofs another server already
/// held, so each proof is verified once.
fn check_server(
    d: &Deployment,
    state: &SetchainState,
    added: &[ElementId],
    verified: &mut Verified,
    report: &mut InvariantReport,
) -> Result<(), String> {
    if !state.check_consistent_sets() {
        return Err("Consistent-Sets violated".into());
    }
    if !state.check_unique_epoch() {
        return Err("Unique-Epoch violated".into());
    }
    let (n, f) = (d.config.servers, d.config.f);
    for e in 1..=state.epoch() {
        report.epochs += 1;
        let digest = *state.epoch_digest(e).expect("epoch in range");
        let elements = state.epoch_elements(e).expect("epoch in range");
        if epoch_hash(e, elements) != digest {
            return Err(format!("epoch {e}: cached digest is not the epoch's hash"));
        }
        for element in elements {
            let added = if (element.id.client_index() as usize) < n {
                added.binary_search(&element.id).is_ok()
            } else {
                element.is_valid(&d.registry)
            };
            if !added {
                return Err(format!("epoch {e}: {:?} was never added", element.id));
            }
            report.adds_before_gets += 1;
        }
        let proofs = state.proofs_for(e);
        for proof in proofs {
            if proof.epoch != e || !verify_once(&d.registry, n, proof, &digest, verified) {
                return Err(format!(
                    "epoch {e}: held proof by {} does not verify",
                    proof.signer
                ));
            }
            report.proofs_verified += 1;
        }
        if state.proof_count(e) <= f {
            continue;
        }
        report.committed_epochs += 1;
        let [element, ..] = elements else {
            continue;
        };
        let inclusion = prove_epoch_inclusion(e, elements, element.id)
            .ok_or_else(|| format!("epoch {e}: no inclusion proof for {:?}", element.id))?;
        if !inclusion.verify(&d.registry, n, f, element, proofs) {
            return Err(format!(
                "epoch {e}: inclusion proof for {:?} rejected",
                element.id
            ));
        }
        report.inclusion_proofs += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain::proofs::make_epoch_proof_for_digest;
    use setchain_crypto::sha512;

    #[test]
    fn memo_does_not_pass_a_signature_under_another_signer() {
        let registry = KeyRegistry::bootstrap(5, 4, 1);
        let digest = sha512(b"epoch 1");
        let s3 = registry.lookup(ProcessId::server(3)).unwrap();
        let genuine = make_epoch_proof_for_digest(&s3, 1, &digest);
        let mislabelled = EpochProof {
            signer: ProcessId::server(1),
            ..genuine
        };
        let mut verified = Verified::default();
        assert!(verify_once(&registry, 4, &genuine, &digest, &mut verified));
        assert!(!verify_once(
            &registry,
            4,
            &mislabelled,
            &digest,
            &mut verified
        ));
        // A second server holding the genuine proof hits the memo.
        assert!(verify_once(&registry, 4, &genuine, &digest, &mut verified));
        assert_eq!(verified.len(), 1);
    }
}
