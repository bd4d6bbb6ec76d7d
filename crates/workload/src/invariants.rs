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
//! * **valid proofs**: each resident epoch's digest is recomputed from its
//!   elements and must equal the cached one, every held epoch-proof must
//!   verify against it through [`verify_epoch_proof_digest`], and an epoch
//!   counted as committed must hold `f + 1` such proofs by distinct servers;
//! * **light-client inclusion**: for one element of every committed,
//!   resident, non-empty epoch, an [`EpochInclusionProof`] built from the
//!   epoch verifies against those proofs.
//!
//! Ledger-level faults are not visible through a [`Deployment`], so a
//! validator with a faulty ledger mode is checked like a correct one.
//!
//! [`EpochInclusionProof`]: setchain::EpochInclusionProof

use setchain::proofs::verify_epoch_proof_digest;
use setchain::{epoch_hash, prove_epoch_inclusion, SetchainState};

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
}

/// Checks the Setchain properties listed in the [module docs](self) on
/// every correct server of `d`. Returns what was covered, or the first
/// violation found, naming the server and the epoch.
pub fn check_setchain_invariants(d: &Deployment) -> Result<InvariantReport, String> {
    let correct: Vec<usize> = (0..d.scenario.servers)
        .filter(|&i| !d.server(i).core().byz.is_faulty())
        .collect();
    let mut report = InvariantReport {
        servers: correct.len(),
        ..InvariantReport::default()
    };
    for &i in &correct {
        check_server(d, d.server(i).state(), &mut report)
            .map_err(|e| format!("server {i}: {e}"))?;
    }
    for (k, &i) in correct.iter().enumerate() {
        for &j in &correct[k + 1..] {
            let (a, b) = (d.server(i).state(), d.server(j).state());
            if !a.check_consistent_with(b) {
                return Err(format!("servers {i} and {j}: epoch contents diverge"));
            }
            for e in 1..=a.epoch().min(b.epoch()) {
                if a.epoch_digest(e) != b.epoch_digest(e) {
                    return Err(format!("servers {i} and {j}: epoch {e} digests differ"));
                }
            }
        }
    }
    Ok(report)
}

/// The per-server half of [`check_setchain_invariants`].
fn check_server(
    d: &Deployment,
    state: &SetchainState,
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
        let cached = *state.epoch_digest(e).expect("epoch in range");
        // Evicted epochs keep only their digest: it is what their proofs
        // are checked against.
        let elements = state.epoch_elements(e);
        let digest = elements.map_or(cached, |es| epoch_hash(e, es));
        if digest != cached {
            return Err(format!("epoch {e}: cached digest is not the epoch's hash"));
        }
        let proofs = state.proofs_for(e);
        for proof in proofs {
            if proof.epoch != e || !verify_epoch_proof_digest(&d.registry, n, proof, &digest) {
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
        let Some(es @ [element, ..]) = elements else {
            continue;
        };
        let inclusion = prove_epoch_inclusion(e, es, element.id)
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
