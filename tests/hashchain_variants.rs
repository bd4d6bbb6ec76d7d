//! Integration tests for the Hashchain variants the paper's discussion of the
//! hash-reversal bottleneck proposes (Section 4.1): restricting hash-batch
//! counter-signing to a designated 2f+1 signer set, and push-based batch
//! dissemination as an alternative distributed batch-sharing mechanism.
//!
//! Both variants must remain correct Setchains (properties still hold, all
//! elements commit); what changes is how much signing and request traffic the
//! hash-reversal path generates.

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
fn designated_signers_variant_commits_everything() {
    // n = 7 → f = 3; designate 2f + 1 = 7... use n = 7, f = 3, designated 2f+1 = 7
    // would be all servers, so use a 10-server deployment where 2f+1 = 9 < 10.
    let result = Deployment::builder(Algorithm::Hashchain)
        .servers(10)
        .rate(800.0)
        .collector(50)
        .injection_secs(5)
        .max_run_secs(90)
        .seed(21)
        .designated_signers(9)
        .run();
    assert!(result.added > 3_000);
    assert!(
        result.final_efficiency() > 0.99,
        "eff={}",
        result.final_efficiency()
    );
    assert!(result.all_committed_at.is_some());
    check_setchain_invariants(&result.deployment).expect("Setchain properties");
}

#[test]
fn designated_signers_reduce_hash_batch_signing() {
    // Compare the number of hash-batches the last (non-designated) server
    // counter-signs: zero under the variant, many under the baseline.
    let build_and_run = |designated: Option<usize>| {
        let mut builder = Deployment::builder(Algorithm::Hashchain)
            .servers(10)
            .rate(800.0)
            .collector(50)
            .injection_secs(4)
            .max_run_secs(60)
            .seed(22);
        if let Some(k) = designated {
            builder = builder.designated_signers(k);
        }
        let mut deployment = builder.build();
        deployment.sim.run_until(SimTime::from_secs(60));
        deployment
    };
    let baseline = build_and_run(None);
    let variant = build_and_run(Some(9));
    // The properties hold on servers inside and outside the designated set.
    for deployment in [&baseline, &variant] {
        check_setchain_invariants(deployment).expect("Setchain properties");
    }
    let d0 = variant.server(0);
    assert!(d0.state().epoch() > 0);
    // The non-designated server emits no epoch-proofs of its own, so the
    // proof count per epoch tops out at the designated set size; the baseline
    // eventually collects all 10.
    let baseline_proofs: usize = (1..=baseline.server(0).state().epoch())
        .map(|e| baseline.server(0).state().proofs_for(e).len())
        .max()
        .unwrap_or(0);
    let variant_proofs: usize = (1..=d0.state().epoch())
        .map(|e| d0.state().proofs_for(e).len())
        .max()
        .unwrap_or(0);
    assert!(
        baseline_proofs == 10,
        "baseline max proofs {baseline_proofs}"
    );
    assert!(
        variant_proofs <= 9,
        "variant must not collect more proofs than designated signers ({variant_proofs})"
    );
    // Commitment still requires only f + 1 = 5, so both commit everything.
    let committed_baseline = baseline.trace.committed_count_by(SimTime::from_secs(60));
    let committed_variant = variant.trace.committed_count_by(SimTime::from_secs(60));
    assert!(committed_baseline as f64 >= 0.99 * baseline.trace.added_count() as f64);
    assert!(committed_variant as f64 >= 0.99 * variant.trace.added_count() as f64);
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
fn variants_compose_and_stay_consistent() {
    let result = Deployment::builder(Algorithm::Hashchain)
        .servers(10)
        .rate(600.0)
        .collector(50)
        .injection_secs(4)
        .max_run_secs(60)
        .seed(33)
        .designated_signers(9)
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
