//! One reusable checker of the Setchain properties on a deployment, run
//! after (or paused in the middle of) a simulation.
//!
//! [`check_setchain_invariants`] reads every server whose Setchain
//! behaviour is correct (`ServerByzMode::Correct`) and checks, from the
//! state alone:
//!
//! * **Consistent-Sets** on each server: every stamped element is in
//!   `the_set`;
//! * **one history, agreed through digests**: the reference is the longest
//!   correct history. It is checked once: Unique-Epoch, and each epoch's
//!   digest recomputed from its elements. Every server's cached digest for
//!   epoch e must equal the reference's, and is recomputed from the
//!   server's own elements unless they are the reference's allocation.
//!   Equal digests over recomputed elements mean equal epochs, so every
//!   server's epochs are a prefix of the reference's, and what holds for
//!   the reference's epochs holds for them;
//! * **valid proofs**: every held epoch-proof must verify against its
//!   epoch's digest through [`verify_epoch_proof_digest`], and an epoch
//!   counted as committed must hold `f + 1` such proofs by distinct servers;
//! * **light-client inclusion**: for one element of every non-empty
//!   epoch, the element path of an [`EpochInclusionProof`] built from the
//!   reference's epoch is checked under its root, once per epoch. That root
//!   finishes the reference's digest, so the proof's `f + 1` quorum on each
//!   server is the committed count above, not a second verification;
//! * **add-before-get**: every element of every reference epoch was added
//!   by a client. An injection client's element (client index below `n`)
//!   must have an add record in [`Deployment::trace`]; the trace does not
//!   follow other clients (the adversarial client, scripted sessions), so
//!   their elements must carry a valid client authenticator instead;
//! * **eventual get at quiescence**: once every traced add has committed,
//!   every added id is in every correct server's `the_set`.
//!
//! Ledger-level faults are not visible through a [`Deployment`], so a
//! validator with a faulty ledger mode is checked like a correct one.
//!
//! [`EpochInclusionProof`]: setchain::EpochInclusionProof

use setchain::proofs::verify_epoch_proof_digest;
use setchain::trace::ElementRecord;
use setchain::{
    epoch_hash, epoch_hash_for_root, prove_epoch_inclusion, ElementId, EpochProof, SetchainConfig,
    SetchainState,
};
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
    /// Element→epoch inclusion proofs accepted, summed over servers: the
    /// path is built and checked once per epoch, and the quorum per server
    /// (its committed epoch).
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
    let states: Vec<(usize, &SetchainState)> = (0..d.config.servers)
        .filter(|&i| !d.server(i).core().byz.is_faulty())
        .map(|i| (i, d.server(i).state()))
        .collect();
    check_states(&d.registry, &d.config, &d.trace.element_records(), &states)
}

/// [`check_setchain_invariants`] over the correct servers' states, each
/// with its server index, and the trace's element records.
fn check_states(
    registry: &KeyRegistry,
    config: &SetchainConfig,
    records: &[ElementRecord],
    states: &[(usize, &SetchainState)],
) -> Result<InvariantReport, String> {
    let (n, f) = (config.servers, config.f);
    let mut report = InvariantReport {
        servers: states.len(),
        ..InvariantReport::default()
    };
    let Some(&(r, reference)) = states.iter().max_by_key(|(_, state)| state.epoch()) else {
        return Ok(report);
    };
    if !reference.check_unique_epoch() {
        return Err(format!("server {r}: Unique-Epoch violated"));
    }
    let mut added: Vec<ElementId> = records.iter().map(|r| r.id).collect();
    added.sort_unstable();
    let mut verified = Verified::default();
    for e in 1..=reference.epoch() {
        let violation = |i: usize, what: String| format!("server {i}: epoch {e}: {what}");
        // The reference's epoch, once: its digest is finished from the root
        // of the inclusion proof, so a non-empty epoch builds one tree.
        let shared = reference.epoch_elements(e).expect("epoch in range");
        let digest = reference.epoch_digest(e).expect("epoch in range");
        let inclusion = shared.first().map(|first| {
            prove_epoch_inclusion(e, shared, first.id).expect("the epoch holds its element")
        });
        let recomputed = inclusion.as_ref().map_or_else(
            || epoch_hash(e, shared),
            |p| epoch_hash_for_root(e, p.count, &p.root),
        );
        if recomputed != *digest {
            return Err(violation(r, "cached digest is not the epoch's hash".into()));
        }
        if let (Some(inclusion), [first, ..]) = (&inclusion, shared) {
            if !inclusion.element.verify(first, &inclusion.root) {
                let what = format!("inclusion proof for {:?} rejected", first.id);
                return Err(violation(r, what));
            }
        }
        for element in shared {
            let added = if (element.id.client_index() as usize) < n {
                added.binary_search(&element.id).is_ok()
            } else {
                element.is_valid(registry)
            };
            if !added {
                return Err(violation(r, format!("{:?} was never added", element.id)));
            }
        }
        // Each server's epoch e: equal to the reference's through its digest.
        for &(i, state) in states.iter().filter(|(_, state)| state.epoch() >= e) {
            report.epochs += 1;
            if state.epoch_digest(e) != Some(digest) {
                return Err(violation(i, format!("digest differs from server {r}'s")));
            }
            let elements = state.epoch_elements(e).expect("epoch in range");
            if !std::ptr::eq(elements, shared) && epoch_hash(e, elements) != *digest {
                return Err(violation(i, "cached digest is not the epoch's hash".into()));
            }
            report.adds_before_gets += elements.len() as u64;
            let proofs = state.proofs_for(e);
            for proof in proofs {
                if proof.epoch != e || !verify_once(registry, n, proof, digest, &mut verified) {
                    let what = format!("held proof by {} does not verify", proof.signer);
                    return Err(violation(i, what));
                }
                report.proofs_verified += 1;
            }
            if state.proof_count(e) <= f {
                continue;
            }
            report.committed_epochs += 1;
            report.inclusion_proofs += u64::from(inclusion.is_some());
        }
    }
    let quiescent = records.iter().all(|r| r.committed_at.is_some());
    for &(i, state) in states {
        if !state.check_consistent_sets() {
            return Err(format!("server {i}: Consistent-Sets violated"));
        }
        if quiescent {
            if let Some(id) = added.iter().find(|id| !state.contains(id)) {
                return Err(format!("server {i}: committed {id:?} is not in the_set"));
            }
            report.eventual_gets += added.len() as u64;
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

#[cfg(test)]
mod tests {
    use std::ops::Range;
    use std::sync::Arc;

    use super::*;
    use setchain::collector::Batch;
    use setchain::proofs::make_epoch_proof_for_digest;
    use setchain::Element;
    use setchain_crypto::sha512;
    use setchain_simnet::SimTime;

    /// Servers in the hand-built deployments; `f = 1`, so two proofs
    /// commit an epoch.
    const N: usize = 4;

    fn registry() -> KeyRegistry {
        KeyRegistry::bootstrap(5, N, N + 2)
    }

    /// Client `client`'s elements `seqs`, each with a valid authenticator.
    fn batch(registry: &KeyRegistry, client: u32, seqs: Range<u64>) -> Arc<Batch> {
        let keys = registry.lookup(ProcessId::client(client as usize)).unwrap();
        let elements = seqs
            .map(|seq| Element::new(&keys, ElementId::new(client, seq), 400, seq))
            .collect();
        Arc::new(Batch::new(elements, Vec::new()))
    }

    /// A server that recorded `epochs` in order and holds servers 0 and 1's
    /// proofs for each.
    fn server(registry: &KeyRegistry, epochs: &[&Arc<Batch>]) -> SetchainState {
        let mut state = SetchainState::new();
        for &batch in epochs {
            let e = state.record_epoch(Arc::clone(batch));
            let digest = *state.epoch_digest(e).unwrap();
            for signer in 0..2 {
                let keys = registry.lookup(ProcessId::server(signer)).unwrap();
                state.add_proof(make_epoch_proof_for_digest(&keys, e, &digest));
            }
        }
        state
    }

    /// A committed add record for each of `batches`' elements.
    fn records(batches: &[&Arc<Batch>]) -> Vec<ElementRecord> {
        let elements = batches.iter().flat_map(|b| &b.elements);
        let record = |e: &Element| ElementRecord {
            id: e.id,
            added_at: SimTime::ZERO,
            epoch: Some(1),
            committed_at: Some(SimTime::from_secs(1)),
        };
        elements.map(record).collect()
    }

    /// [`check_states`] on `states`, server `i` being `states[i]`.
    fn check(
        registry: &KeyRegistry,
        records: &[ElementRecord],
        states: &[&SetchainState],
    ) -> Result<InvariantReport, String> {
        let states: Vec<_> = states.iter().copied().enumerate().collect();
        check_states(registry, &SetchainConfig::new(N), records, &states)
    }

    #[test]
    fn an_equal_epoch_in_its_own_allocation_and_order_passes() {
        let registry = registry();
        let (a, b) = (batch(&registry, 0, 0..8), batch(&registry, 1, 0..5));
        let reversed = Batch::new(a.elements.iter().rev().cloned().collect(), Vec::new());
        // Client N + 1 is untraced: its element passes on its authenticator.
        let untraced = batch(&registry, N as u32 + 1, 0..1);
        let s0 = server(&registry, &[&a, &b, &untraced]);
        let s1 = server(&registry, &[&Arc::new(reversed), &b]);
        let report = check(&registry, &records(&[&a, &b]), &[&s0, &s1]).unwrap();
        let want = InvariantReport {
            servers: 2,
            epochs: 5,
            committed_epochs: 5,
            proofs_verified: 10,
            inclusion_proofs: 5,
            adds_before_gets: 14 + 13,
            eventual_gets: 13 * 2,
        };
        assert_eq!(report, want);
    }

    #[test]
    fn a_server_holding_other_elements_in_an_epoch_is_rejected() {
        let registry = registry();
        let (a, other, b) = (
            batch(&registry, 0, 0..8),
            batch(&registry, 0, 1..9),
            batch(&registry, 1, 0..5),
        );
        let s0 = server(&registry, &[&a, &b]);
        let s1 = server(&registry, &[&other]);
        let records = records(&[&a, &other, &b]);
        let violation = check(&registry, &records, &[&s0, &s1]).unwrap_err();
        assert_eq!(
            violation,
            "server 1: epoch 1: digest differs from server 0's"
        );
    }

    #[test]
    fn a_history_diverging_at_epoch_2_is_rejected() {
        let registry = registry();
        let a = batch(&registry, 0, 0..8);
        let (b, other) = (batch(&registry, 1, 0..5), batch(&registry, 1, 0..4));
        let s0 = server(&registry, &[&a, &b]);
        let s1 = server(&registry, &[&a, &other]);
        let records = records(&[&a, &b]);
        let violation = check(&registry, &records, &[&s0, &s1]).unwrap_err();
        assert_eq!(
            violation,
            "server 0: epoch 2: digest differs from server 1's"
        );
    }

    #[test]
    fn an_injected_element_without_an_add_record_is_rejected() {
        let registry = registry();
        let (a, b) = (batch(&registry, 0, 0..8), batch(&registry, 1, 0..5));
        let s0 = server(&registry, &[&a, &b]);
        let s1 = server(&registry, &[&a]);
        let mut records = records(&[&a, &b]);
        let unrecorded = records.remove(10).id;
        let violation = check(&registry, &records, &[&s0, &s1]).unwrap_err();
        let want = format!("server 0: epoch 2: {unrecorded:?} was never added");
        assert_eq!(violation, want);
    }

    #[test]
    fn a_held_proof_that_does_not_verify_is_rejected() {
        let registry = registry();
        let a = batch(&registry, 0, 0..8);
        let (s0, mut s1) = (server(&registry, &[&a]), server(&registry, &[&a]));
        let s2 = registry.lookup(ProcessId::server(2)).unwrap();
        s1.add_proof(make_epoch_proof_for_digest(
            &s2,
            1,
            &sha512(b"another epoch"),
        ));
        let violation = check(&registry, &records(&[&a]), &[&s0, &s1]).unwrap_err();
        let want = format!("server 1: epoch 1: held proof by {} does not verify", s2.id);
        assert_eq!(violation, want);
    }

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
