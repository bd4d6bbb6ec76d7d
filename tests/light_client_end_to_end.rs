//! Light-client integration tests: a client adds elements through one server
//! and later verifies their inclusion by querying a *different* (single)
//! server, relying only on `f + 1` epoch-proofs — driven through the typed
//! [`ClientSession`](setchain_workload::ClientSession) facade.

use setchain::{verify_epoch, Algorithm, Element, ElementId, EpochProof};
use setchain_crypto::{KeyPair, ProcessId, Signature};
use setchain_simnet::SimTime;
use setchain_workload::{Deployment, DeploymentBuilder};

fn builder(algorithm: Algorithm, seed: u64) -> DeploymentBuilder {
    Deployment::builder(algorithm)
        .label(format!("light client {algorithm}"))
        .servers(4)
        .rate(200.0)
        .collector(25)
        .injection_secs(4)
        .max_run_secs(40)
        .seed(seed)
}

/// Adds three client-owned elements through server 0, then queries server 2
/// for every epoch and checks that a quorum-verified epoch contains them.
/// The body is identical for every algorithm: the session and the deployment
/// facade are variant-agnostic.
fn end_to_end(algorithm: Algorithm, seed: u64) {
    let mut deployment = builder(algorithm, seed).build();

    let mut session = deployment.client_session(300, seed ^ 0xC11E47);
    let receipts: Vec<_> = (0..3)
        .map(|i| session.add(SimTime::from_millis(600), 0, 438, seed + i))
        .collect();
    // Query a different server for a summary and for the first 20 epochs.
    session.get(SimTime::from_secs(25), 2);
    session.get_epochs(SimTime::from_secs(26), 2, 1..=20);
    session.install(&mut deployment);
    deployment.sim.run_until(SimTime::from_secs(32));

    let outcome = session.outcome(&deployment);
    assert_eq!(
        outcome.snapshots.len(),
        1,
        "{algorithm}: get() summary received"
    );
    let snapshot = outcome.snapshots[0].snapshot;
    assert_eq!(outcome.snapshots[0].server, ProcessId::server(2));
    assert!(snapshot.epoch > 0);
    assert!(snapshot.epochs_with_quorum > 0);
    assert!(snapshot.the_set_len >= snapshot.history_elements);

    assert!(
        outcome
            .epochs
            .iter()
            .all(|e| e.server == ProcessId::server(2)),
        "{algorithm}: responses come from the queried server"
    );
    assert!(
        outcome.verified_count() > 0,
        "{algorithm}: at least one epoch verified with f+1 proofs"
    );
    let confirmed = outcome.confirmed_ids();
    assert_eq!(
        confirmed.len(),
        3,
        "{algorithm}: all three client elements confirmed through a single server"
    );
    assert!(receipts.iter().all(|r| confirmed.contains(&r.id)));

    // Element→epoch membership without the epoch's element set: the
    // inclusion proof carries only the Merkle path plus the epoch's
    // (number, count, root) triple, and verifies against the PKI and the
    // shipped f+1 epoch-proofs alone.
    let registry = deployment.registry.clone();
    let (n, f) = (deployment.config.servers, deployment.config.f);
    let mut proven = 0;
    for epoch in outcome.verified() {
        for (i, receipt) in receipts.iter().enumerate() {
            let Some(proof) = epoch.inclusion_proof(receipt.id) else {
                continue;
            };
            assert!(
                proof.verify(&registry, n, f, &receipt.element, &epoch.proofs),
                "{algorithm}: inclusion proof for {:?} failed",
                receipt.id
            );
            // The proof is bound to its element: substituting a different
            // one fails the Merkle membership check.
            let other = &receipts[(i + 1) % receipts.len()].element;
            assert!(
                !proof.verify(&registry, n, f, other, &epoch.proofs),
                "{algorithm}: inclusion proof accepted a substituted element"
            );
            proven += 1;
        }
    }
    assert_eq!(
        proven, 3,
        "{algorithm}: every client element proven in exactly one verified epoch"
    );
}

#[test]
fn light_client_verifies_inclusion_on_vanilla() {
    end_to_end(Algorithm::Vanilla, 11);
}

#[test]
fn light_client_verifies_inclusion_on_compresschain() {
    end_to_end(Algorithm::Compresschain, 22);
}

#[test]
fn light_client_verifies_inclusion_on_hashchain() {
    end_to_end(Algorithm::Hashchain, 33);
}

#[test]
fn fabricated_epoch_response_from_a_byzantine_server_is_rejected() {
    // A Byzantine server cannot convince a light client of a fabricated
    // epoch: it controls at most f signatures, and forged ones do not verify.
    let deployment = builder(Algorithm::Hashchain, 44).build();
    let (n, f) = (deployment.config.servers, deployment.config.f);

    let attacker_keys = deployment
        .registry
        .lookup(ProcessId::server(3))
        .expect("server key");
    let victim_client = KeyPair::derive(ProcessId::client(301), 99);
    deployment.registry.register(victim_client);
    let fabricated: Vec<Element> = (0..5)
        .map(|i| Element::new(&victim_client, ElementId::new(301, i), 438, i))
        .collect();

    // One genuine signature from the attacker plus forged ones in other
    // servers' names.
    let mut proofs: Vec<EpochProof> =
        vec![setchain::make_epoch_proof(&attacker_keys, 1, &fabricated)];
    for i in 0..2 {
        let mut forged = proofs[0];
        forged.signer = ProcessId::server(i);
        forged.signature = Signature::forged(ProcessId::server(i));
        proofs.push(forged);
    }
    let verdict = verify_epoch(&deployment.registry, n, f, 1, &fabricated, &proofs);
    assert!(
        !verdict.is_verified(),
        "fabricated epoch must not verify: {verdict:?}"
    );
}
