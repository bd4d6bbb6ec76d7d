//! Fault-injection integration tests: application-level Byzantine Setchain
//! servers and consensus-level Byzantine ledger validators, within the bounds
//! the paper assumes (f < n/2 Setchain servers, f < n/3 ledger validators).

use setchain::{Algorithm, ServerByzMode};
use setchain_ledger::ByzMode;
use setchain_simnet::SimTime;
use setchain_workload::{check_setchain_invariants, Deployment, DeploymentBuilder};

fn builder(algorithm: Algorithm, servers: usize, seed: u64) -> DeploymentBuilder {
    Deployment::builder(algorithm)
        .label(format!("byzantine {algorithm}"))
        .servers(servers)
        .rate(300.0)
        .collector(40)
        .injection_secs(5)
        .max_run_secs(90)
        .seed(seed)
}

fn run(mut deployment: Deployment, secs: u64) -> Deployment {
    deployment.sim.run_until(SimTime::from_secs(secs));
    deployment
}

#[test]
fn hashchain_tolerates_a_server_refusing_batch_service() {
    let deployment = builder(Algorithm::Hashchain, 4, 1)
        .server_fault(3, ServerByzMode::RefuseBatchService)
        .build();
    let deployment = run(deployment, 60);
    let records = deployment.trace.element_records();
    assert!(records.len() > 1_000);
    // Elements added through the three correct servers all commit. Elements
    // added through the refusing server cannot: only it holds their batch
    // contents, so no other server will sign those hashes — the client's
    // remedy (per the paper) is to retry with a different server.
    let via_correct: Vec<_> = records
        .iter()
        .filter(|r| r.id.client_index() != 3)
        .collect();
    let committed_correct = via_correct
        .iter()
        .filter(|r| r.committed_at.is_some())
        .count();
    assert!(
        committed_correct as f64 >= 0.90 * via_correct.len() as f64,
        "commits despite the refusing server: {committed_correct}/{}",
        via_correct.len()
    );
    check_setchain_invariants(&deployment).expect("Setchain properties");
    // The correct servers had to fall back to other signers at least once.
    let stats = deployment.server(0).stats();
    assert!(stats.batch_requests_sent > 0);
}

#[test]
fn forged_epoch_proofs_are_never_counted() {
    for algorithm in [
        Algorithm::Vanilla,
        Algorithm::Compresschain,
        Algorithm::Hashchain,
    ] {
        let deployment = builder(algorithm, 4, 2)
            .server_fault(2, ServerByzMode::ForgeProofs)
            .build();
        let deployment = run(deployment, 60);
        let state_holder = deployment.server(0);
        let state = state_holder.state();
        for epoch in 1..=state.epoch() {
            assert!(
                !state
                    .proofs_for(epoch)
                    .iter()
                    .any(|p| p.signer == setchain_crypto::ProcessId::server(2)),
                "{algorithm}: forged proof from server 2 accepted for epoch {epoch}"
            );
        }
        // Commits still happen: the remaining 3 correct servers exceed f+1=2.
        let added = deployment.trace.added_count();
        let committed = deployment.trace.committed_count_by(SimTime::from_secs(60));
        assert!(
            committed as f64 >= 0.9 * added as f64,
            "{algorithm}: {committed}/{added} committed with a proof forger present"
        );
    }
}

#[test]
fn invalid_elements_injected_by_a_server_never_enter_epochs() {
    for algorithm in Algorithm::ALL {
        let deployment = builder(algorithm, 4, 3)
            .server_fault(1, ServerByzMode::InjectInvalidElements)
            .build();
        let deployment = run(deployment, 45);
        // Every element in every epoch of a correct server must be a
        // client-added element recorded by the trace (forged ones are not in
        // the trace).
        let added: std::collections::HashSet<_> = deployment
            .trace
            .element_records()
            .iter()
            .map(|r| r.id)
            .collect();
        let server = deployment.server(0);
        let state = server.state();
        let mut checked = 0;
        for epoch in 1..=state.epoch() {
            for e in state.epoch_elements(epoch).unwrap() {
                assert!(
                    added.contains(&e.id),
                    "{algorithm}: forged element {:?} reached epoch {epoch}",
                    e.id
                );
                checked += 1;
            }
        }
        assert!(
            checked > 500,
            "{algorithm}: epochs actually contained elements ({checked})"
        );
        // The forgeries did reach the ledger, and were filtered there.
        assert!(
            server.stats().elements_rejected > 0,
            "{algorithm}: no forged element reached server 0"
        );
    }
}

#[test]
fn silent_ledger_validator_does_not_stop_the_setchain() {
    let deployment = builder(Algorithm::Compresschain, 4, 4)
        .ledger_fault(3, ByzMode::Silent)
        .build();
    let deployment = run(deployment, 75);
    let records = deployment.trace.element_records();
    assert!(records.len() > 1_000);
    // A crashed validator loses the requests of the client talking to it; the
    // elements added through the three live servers all commit.
    let via_live: Vec<_> = records
        .iter()
        .filter(|r| r.id.client_index() != 3)
        .collect();
    let committed_live = via_live.iter().filter(|r| r.committed_at.is_some()).count();
    assert!(
        committed_live as f64 >= 0.9 * via_live.len() as f64,
        "{committed_live}/{} committed with a crashed validator",
        via_live.len()
    );
    check_setchain_invariants(&deployment).expect("Setchain properties");
}

#[test]
fn equivocating_proposer_does_not_split_the_setchain() {
    let deployment = builder(Algorithm::Hashchain, 4, 5)
        .ledger_fault(1, ByzMode::EquivocatingProposer)
        .build();
    let deployment = run(deployment, 75);
    check_setchain_invariants(&deployment).expect("Setchain properties");
    let committed = deployment.trace.committed_count_by(SimTime::from_secs(75));
    assert!(committed > 500, "progress under an equivocating proposer");
}

#[test]
fn a_server_dropping_client_adds_only_hurts_its_own_clients() {
    let deployment = builder(Algorithm::Hashchain, 4, 6)
        .server_fault(2, ServerByzMode::DropClientAdds)
        .build();
    let deployment = run(deployment, 60);
    // Elements sent to server 2's local client are lost (the paper's remedy
    // is client retry with another server), but everything sent to the other
    // three servers commits.
    let records = deployment.trace.element_records();
    let (to_faulty, to_correct): (
        Vec<&setchain::trace::ElementRecord>,
        Vec<&setchain::trace::ElementRecord>,
    ) = records.iter().partition(|r| r.id.client_index() == 2);
    assert!(!to_faulty.is_empty() && !to_correct.is_empty());
    let committed_correct = to_correct
        .iter()
        .filter(|r| r.committed_at.is_some())
        .count();
    assert!(
        committed_correct as f64 >= 0.9 * to_correct.len() as f64,
        "{committed_correct}/{} elements via correct servers committed",
        to_correct.len()
    );
    let committed_faulty = to_faulty
        .iter()
        .filter(|r| r.committed_at.is_some())
        .count();
    assert_eq!(committed_faulty, 0, "dropped adds must not commit");
}

#[test]
fn ten_servers_tolerate_multiple_mixed_faults() {
    // n = 10: f_ledger = 3, f_setchain = 4. Inject three application faults
    // and two consensus faults simultaneously.
    let deployment = builder(Algorithm::Hashchain, 10, 7)
        .label("mixed faults")
        .rate(500.0)
        .collector(50)
        .injection_secs(4)
        .server_fault(7, ServerByzMode::RefuseBatchService)
        .server_fault(8, ServerByzMode::ForgeProofs)
        .server_fault(9, ServerByzMode::InjectInvalidElements)
        .ledger_fault(5, ByzMode::Silent)
        .ledger_fault(6, ByzMode::WithholdPrecommit)
        .build();
    let deployment = run(deployment, 90);
    let added = deployment.trace.added_count();
    let committed = deployment.trace.committed_count_by(SimTime::from_secs(90));
    assert!(added > 1_000);
    assert!(
        committed as f64 >= 0.75 * added as f64,
        "{committed}/{added} committed under mixed faults"
    );
    check_setchain_invariants(&deployment).expect("Setchain properties");
}
