//! Quickstart: run a 4-server Hashchain Setchain, add three elements through
//! a typed client session, and verify an epoch with `f + 1` epoch-proofs
//! while talking to a single server — including element→epoch inclusion
//! proofs that need no element set.
//!
//! ```sh
//! cargo run --release -p setchain-bench --example quickstart
//! ```

use setchain::Algorithm;
use setchain_simnet::SimTime;
use setchain_workload::Deployment;

fn main() {
    // 1. Describe the deployment: 4 servers running Hashchain, a light
    //    background load, small collector so epochs form quickly.
    let mut deployment = Deployment::builder(Algorithm::Hashchain)
        .label("quickstart")
        .servers(4)
        .rate(200.0)
        .collector(25)
        .injection_secs(5)
        .max_run_secs(30)
        .seed(2024)
        .build();
    let config = &deployment.config;
    let (n, f) = (config.servers, config.f);
    println!(
        "Deployment: {n} {} servers, f = {f}, collector = {}, light = {}",
        deployment.scenario.algorithm, config.collector_limit, config.light
    );

    // 2. Open a typed client session (registers our key pair in the PKI) and
    //    script it: three adds to server 0 early on, then ask a *different*
    //    server (server 2) for epoch 1 and a state summary.
    let mut session = deployment.client_session(100, 777);
    let receipts: Vec<_> = (0..3u64)
        .map(|i| session.add(SimTime::from_millis(500 + i * 100), 0, 438, 1000 + i))
        .collect();
    session.get(SimTime::from_secs(20), 2);
    session.get_epochs(SimTime::from_secs(20), 2, 1..=20);
    session.install(&mut deployment);

    // 3. Run the simulation.
    deployment.sim.run_until(SimTime::from_secs(25));

    // 4. Read the typed results: the snapshot summary and the verified epoch.
    let outcome = session.outcome(&deployment);
    for view in &outcome.snapshots {
        println!(
            "[{}] get() from {}: |the_set| = {}, epoch = {}, {} epochs have ≥ f+1 proofs",
            view.at,
            view.server,
            view.snapshot.the_set_len,
            view.snapshot.epoch,
            view.snapshot.epochs_with_quorum
        );
    }
    for epoch in &outcome.epochs {
        let mine = receipts.iter().filter(|r| epoch.contains(r.id)).count();
        if epoch.epoch > 1 && mine == 0 {
            continue; // only narrate epoch 1 and the epochs holding our adds
        }
        println!(
            "[{}] get_epoch({}) from {}: {} elements, {} proofs -> {:?} ({mine} of my elements)",
            epoch.at,
            epoch.epoch,
            epoch.server,
            epoch.elements.len(),
            epoch.proof_count,
            epoch.verification
        );
    }
    println!(
        "elements confirmed through a single server: {} / {}",
        outcome.confirmed_ids().len(),
        receipts.len()
    );

    // 4b. Element→epoch inclusion proofs: membership verifiable from the
    //     epoch's (number, count, root) triple plus f+1 epoch-proofs alone —
    //     no element set required.
    let mut proven = 0;
    for epoch in outcome.verified() {
        for receipt in &receipts {
            if let Some(proof) = epoch.inclusion_proof(receipt.id) {
                let element = &receipt.element;
                let ok = proof.verify(&deployment.registry, n, f, element, &epoch.proofs);
                assert!(ok, "inclusion proof must verify");
                proven += 1;
            }
        }
    }
    println!("inclusion proofs verified without the element set: {proven} / 3");

    // 5. Cross-check the safety properties directly on two servers.
    let s0 = deployment.server(0);
    let s3 = deployment.server(3);
    println!(
        "server 0: epoch = {}, |the_set| = {}; consistent with server 3: {}",
        s0.state().epoch(),
        s0.state().the_set_len(),
        s0.state().check_consistent_with(s3.state())
    );
    //    The trace records only the injection clients' adds, so count the
    //    committed ones among those, not the session's three untraced adds.
    let committed = deployment
        .trace
        .honest_committed_count_by(SimTime::from_secs(25));
    println!(
        "injected elements committed (epoch has ≥ f+1 proofs on the ledger): {committed} / {}",
        deployment.trace.added_count()
    );
}
