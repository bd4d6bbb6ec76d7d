//! Integration tests for push-based batch dissemination, the Hashchain
//! variant Section 4.1 proposes against the hash-reversal bottleneck: a
//! server that flushes a batch pushes its contents to every peer, so hash
//! reversal rarely needs a `Request_batch` round trip.
//!
//! The variant must remain a correct Setchain (properties still hold, all
//! elements commit); what changes is how much request traffic the
//! hash-reversal path generates. The companion tests pin the baseline's
//! request traffic and its per-server proof ingestion.

use setchain::Algorithm;
use setchain_simnet::SimTime;
use setchain_workload::{check_setchain_invariants, Deployment, DeploymentBuilder};

fn base(seed: u64) -> DeploymentBuilder {
    Deployment::builder(Algorithm::Hashchain)
        .servers(7)
        .rate(600.0)
        .collector(50)
        .injection_secs(5)
        .max_run_secs(60)
        .seed(seed)
}

#[test]
fn push_batches_variant_commits_without_request_round_trips() {
    let mut deployment = base(31).push_batches().build();
    deployment.sim.run_until(SimTime::from_secs(60));
    let added = deployment.trace.added_count();
    let committed = deployment.trace.committed_count_by(SimTime::from_secs(60));
    assert!(added > 2_000);
    assert!(
        committed as f64 >= 0.99 * added as f64,
        "{committed}/{added} committed with push-based dissemination"
    );
    // The whole point of the variant: batch contents arrive before the
    // hash-batches do, so `Request_batch` is (almost) never needed (the
    // baseline count is checked by the companion test below).
    let total_requests: u64 = (0..7)
        .map(|i| deployment.server(i).stats().batch_requests_sent)
        .sum();
    assert!(
        total_requests <= 5,
        "push-based dissemination should make batch requests rare (sent {total_requests})"
    );
    // Correctness unchanged.
    check_setchain_invariants(&deployment).expect("Setchain properties");
}

#[test]
fn baseline_hashchain_does_send_batch_requests() {
    // Sanity check for the previous test's claim: without pushing, the
    // hash-reversal service is exercised heavily.
    let mut deployment = base(31).build();
    deployment.sim.run_until(SimTime::from_secs(60));
    let total_requests: u64 = (0..7)
        .map(|i| deployment.server(i).stats().batch_requests_sent)
        .sum();
    assert!(
        total_requests > 50,
        "baseline Hashchain relies on Request_batch (sent {total_requests})"
    );
    check_setchain_invariants(&deployment).expect("Setchain properties");
}

#[test]
fn each_server_ingests_each_epoch_proof_once() {
    // Up to n servers put a hash-batch for the same batch on the ledger, but
    // a server applies a batch's contents at the first copy only, so it
    // ingests each of the at most n proofs of an epoch once.
    let n = 7;
    let mut deployment = base(34).build();
    deployment.sim.run_until(SimTime::from_secs(60));
    check_setchain_invariants(&deployment).expect("Setchain properties");
    for i in 0..n {
        let server = deployment.server(i);
        let epochs = server.state().epoch();
        let received = server.stats().proofs_received;
        assert!(epochs > 0, "server {i} formed no epoch");
        assert!(
            received <= epochs * n as u64,
            "server {i} ingested {received} proofs for {epochs} epochs"
        );
    }
}

#[test]
fn push_batches_commit_everything_at_ten_servers() {
    let result = Deployment::builder(Algorithm::Hashchain)
        .servers(10)
        .rate(600.0)
        .collector(50)
        .injection_secs(4)
        .max_run_secs(60)
        .seed(33)
        .push_batches()
        .run();
    assert!(
        result.final_efficiency() > 0.99,
        "eff={}",
        result.final_efficiency()
    );
    assert!(result.all_committed_at.is_some());
    check_setchain_invariants(&result.deployment).expect("Setchain properties");
}
