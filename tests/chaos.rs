//! End-to-end fault-injection ("chaos") tests: deterministic crash,
//! partition and loss schedules driven through full deployments.
//!
//! These pin down the recovery story across all four layers:
//!
//! * **simnet** applies [`FaultPlan`] events at their scheduled instants,
//!   before any same-instant message or timer — so a chaos run replays
//!   bit-for-bit under the same seed.
//! * **ledger** round timeouts skip a crashed proposer and block sync
//!   replays missed heights after a restart.
//! * **setchain** servers detect they are behind (restart probe or an
//!   epoch-proof referencing a future epoch) and catch up through the
//!   quorum-verified epoch replay protocol.
//! * **workload** client sessions ride out faults with deadline-driven
//!   retry and failover to an alternate server.

use std::collections::BTreeSet;

use setchain::{Algorithm, ElementId};
use setchain_crypto::ProcessId;
use setchain_simnet::{FaultEvent, FaultPlan, Partition, SimTime};
use setchain_workload::{Deployment, RetryPolicy};

/// A small deployment used by every chaos scenario: 4 servers, low rate,
/// a short injection burst and plenty of quiet time to recover in.
fn chaos_deployment(algorithm: Algorithm, seed: u64, plan: FaultPlan) -> Deployment {
    Deployment::builder(algorithm)
        .servers(4)
        .rate(300.0)
        .collector(32)
        .injection_secs(4)
        .max_run_secs(40)
        .seed(seed)
        .fault_plan(plan)
        .build()
}

#[test]
fn partition_heals_and_servers_reconverge() {
    // Server 3 is cut off from its peers between t=1s and t=5s; its clients
    // keep reaching it. After the heal, ledger block sync and the epoch
    // catch-up protocol must bring it back to the common prefix.
    let plan = FaultPlan::new()
        .at(
            SimTime::from_secs(1),
            FaultEvent::InjectPartition(Partition::between(
                [ProcessId::server(3)],
                [
                    ProcessId::server(0),
                    ProcessId::server(1),
                    ProcessId::server(2),
                ],
            )),
        )
        .at(SimTime::from_secs(5), FaultEvent::HealPartitions);
    let mut deployment = chaos_deployment(Algorithm::Hashchain, 4021, plan);
    deployment.sim.run_until(SimTime::from_secs(40));

    assert!(
        deployment.sim.network().dropped_partition() > 0,
        "the partition dropped traffic while active"
    );
    let s0 = deployment.server(0);
    let s3 = deployment.server(3);
    assert!(s0.state().epoch() > 0, "epochs advanced despite the fault");
    for i in 1..4 {
        assert!(
            s0.state()
                .check_consistent_with(deployment.server(i).state()),
            "server {i} diverged from server 0 after the heal"
        );
    }
    assert!(
        s3.state().epoch() + 1 >= s0.state().epoch(),
        "server 3 caught back up after the heal: {} vs {}",
        s3.state().epoch(),
        s0.state().epoch()
    );
    // Most injected elements still commit: the fault window only delays
    // server 3's contribution.
    let added = deployment.trace.added_count();
    let committed = deployment.trace.committed_count_by(SimTime::from_secs(40));
    assert!(
        committed as f64 >= 0.9 * added as f64,
        "run degraded too far: {committed}/{added}"
    );
}

#[test]
fn crashed_server_restarts_and_catches_up_for_every_variant() {
    for algorithm in Algorithm::ALL {
        // Server 2 is down from t=3s to t=10s — long enough for its peers to
        // commit epochs it never saw. On restart it must rejoin, fetch the
        // missing committed prefix (ledger block sync plus the f+1-verified
        // epoch catch-up), and end bit-consistent with the others.
        let plan = FaultPlan::new()
            .at(
                SimTime::from_secs(3),
                FaultEvent::Crash(ProcessId::server(2)),
            )
            .at(
                SimTime::from_secs(10),
                FaultEvent::Restart(ProcessId::server(2)),
            );
        let mut deployment = chaos_deployment(algorithm, 4022, plan);
        deployment.sim.run_until(SimTime::from_secs(40));

        assert!(
            deployment.sim.dropped_crashed() > 0,
            "{algorithm:?}: deliveries to the crashed server were dropped"
        );
        let s0 = deployment.server(0);
        let s2 = deployment.server(2);
        assert!(
            s0.state().epoch() > 0,
            "{algorithm:?}: the healthy majority kept committing epochs"
        );
        assert!(
            s0.state().check_consistent_with(s2.state()),
            "{algorithm:?}: restarted server diverged from the committed prefix"
        );
        assert!(
            s2.state().epoch() + 1 >= s0.state().epoch(),
            "{algorithm:?}: server 2 stayed behind after restart: {} vs {}",
            s2.state().epoch(),
            s0.state().epoch()
        );
        assert!(
            s2.stats().catchup_requests >= 1,
            "{algorithm:?}: the restarted server never asked peers for missed epochs"
        );
    }
}

#[test]
fn lost_catchup_request_does_not_wedge_the_restarted_server() {
    // Regression test for the catch-up rate limiter (PR 7): the
    // `catchup_pending` entry suppresses duplicate requests while one is
    // outstanding, but must *expire* after `CATCHUP_RETRY` — otherwise a
    // request lost to the network could wedge the server behind the tip
    // forever. Server 2 restarts into a window of 100% message loss, so
    // its restart probe's `CatchupRequest` is guaranteed lost; the loss
    // only heals after more than `CATCHUP_RETRY` of simulated time, so
    // the expired entry leaves every recovery path free to re-request.
    // (End to end, ledger block sync replays the missed heights in order
    // once traffic flows again, so the limiter is never the only path
    // back to the tip — its expiry semantics are pinned directly by
    // `catchup_limiter_expires_after_retry_window` in the setchain crate.
    // What must hold here is the outcome: the server fully heals.)
    let plan = FaultPlan::new()
        .at(
            SimTime::from_secs(3),
            FaultEvent::Crash(ProcessId::server(2)),
        )
        .at(SimTime::from_secs(9), FaultEvent::SetLossRate(1.0))
        .at(
            SimTime::from_secs(10),
            FaultEvent::Restart(ProcessId::server(2)),
        )
        // 4 s of total loss spans the restart — double the 2 s
        // `CATCHUP_RETRY` window, so the pending entry is expired by the
        // time traffic flows again.
        .at(SimTime::from_secs(13), FaultEvent::SetLossRate(0.0));
    let mut deployment = chaos_deployment(Algorithm::Hashchain, 4026, plan);
    deployment.sim.run_until(SimTime::from_secs(40));

    assert!(
        deployment.sim.network().dropped_loss() > 0,
        "the loss window dropped traffic"
    );
    let s0 = deployment.server(0);
    let s2 = deployment.server(2);
    assert!(s0.state().epoch() > 0, "the healthy majority kept going");
    assert!(
        s2.stats().catchup_requests >= 1,
        "the restarted server never probed for catch-up"
    );
    assert!(
        s0.state().check_consistent_with(s2.state()),
        "server 2 diverged from the committed prefix after recovery"
    );
    assert!(
        s2.state().epoch() + 1 >= s0.state().epoch(),
        "server 2 stayed wedged behind the tip: {} vs {}",
        s2.state().epoch(),
        s0.state().epoch()
    );
}

#[test]
fn client_add_during_crash_confirms_via_retry_and_failover() {
    // The client's target server is down when the add is issued. The retry
    // machine must fail over to an alternate server and confirm the element
    // through a verified epoch — no manual intervention.
    let plan = FaultPlan::new()
        .at(
            SimTime::from_millis(500),
            FaultEvent::Crash(ProcessId::server(0)),
        )
        .at(
            SimTime::from_secs(12),
            FaultEvent::Restart(ProcessId::server(0)),
        );
    let mut deployment = chaos_deployment(Algorithm::Hashchain, 4023, plan);
    let mut session = deployment.client_session(80, 808);
    let receipt = session.add_with_retry(
        SimTime::from_secs(1),
        0, // crashed at send time
        438,
        9001,
        RetryPolicy::default(),
    );
    session.install(&mut deployment);

    deployment.sim.run_until(SimTime::from_secs(35));
    let outcome = session.outcome(&deployment);
    assert!(
        outcome.all_retries_confirmed(),
        "the add never confirmed despite retry/failover"
    );
    let resolved = outcome.retried[0];
    assert_eq!(resolved.id, receipt.id);
    assert!(
        resolved.attempts >= 2,
        "the first attempt hit the crashed server, so a failover re-send was \
         needed (attempts={})",
        resolved.attempts
    );
    assert!(resolved.confirmed_at.is_some());
    assert!(!resolved.gave_up);
}

#[test]
fn lossy_network_degrades_gracefully() {
    // 1% uniform loss from the start: consensus round timeouts and gossip
    // redundancy absorb most of it; the run completes with bounded damage
    // and the per-cause drop counters surface what was lost.
    let result = Deployment::builder(Algorithm::Hashchain)
        .servers(4)
        .rate(300.0)
        .collector(32)
        .injection_secs(4)
        .max_run_secs(60)
        .seed(4024)
        .loss_rate(0.01)
        .run();
    assert!(result.dropped_loss > 0, "loss never triggered");
    assert_eq!(result.dropped_partition, 0);
    assert_eq!(result.dropped_crashed, 0);
    assert_eq!(result.dropped(), result.dropped_loss);
    assert!(
        result.added > 400,
        "clients injected (added={})",
        result.added
    );
    assert!(
        result.final_efficiency() > 0.8,
        "1% loss should not collapse the run: efficiency={}",
        result.final_efficiency()
    );
}

/// Fingerprint of a chaos run: scheduler counters, drop counters, and every
/// server's full epoch history.
#[derive(Debug, PartialEq, Eq)]
struct ChaosFingerprint {
    events_processed: u64,
    messages_deferred: u64,
    dropped_loss: u64,
    dropped_partition: u64,
    dropped_crashed: u64,
    committed: usize,
    epochs: Vec<Vec<BTreeSet<ElementId>>>,
}

fn chaos_run_fingerprint(seed: u64) -> ChaosFingerprint {
    // A full chaos mix: background loss, a mid-run partition, and a
    // crash/restart — all from one deterministic plan.
    let plan = FaultPlan::new()
        .at(SimTime::from_secs(1), FaultEvent::SetLossRate(0.005))
        .at(
            SimTime::from_secs(2),
            FaultEvent::InjectPartition(Partition::between(
                [ProcessId::server(1)],
                [ProcessId::server(2), ProcessId::server(3)],
            )),
        )
        .at(
            SimTime::from_secs(3),
            FaultEvent::Crash(ProcessId::server(3)),
        )
        .at(SimTime::from_secs(6), FaultEvent::HealPartitions)
        .at(SimTime::from_secs(6), FaultEvent::SetLossRate(0.0))
        .at(
            SimTime::from_secs(8),
            FaultEvent::Restart(ProcessId::server(3)),
        );
    let mut deployment = chaos_deployment(Algorithm::Hashchain, seed, plan);
    deployment.sim.run_until(SimTime::from_secs(30));
    let epochs = (0..4)
        .map(|i| {
            let state = deployment.server(i).state();
            (1..=state.epoch())
                .map(|e| {
                    state
                        .epoch_elements(e)
                        .expect("epoch in range")
                        .iter()
                        .map(|el| el.id)
                        .collect()
                })
                .collect()
        })
        .collect();
    ChaosFingerprint {
        events_processed: deployment.sim.events_processed(),
        messages_deferred: deployment.sim.messages_deferred(),
        dropped_loss: deployment.sim.network().dropped_loss(),
        dropped_partition: deployment.sim.network().dropped_partition(),
        dropped_crashed: deployment.sim.dropped_crashed(),
        committed: deployment.trace.committed_count_by(SimTime::from_secs(30)),
        epochs,
    }
}

#[test]
fn chaos_runs_are_bit_identical_under_the_same_seed() {
    let first = chaos_run_fingerprint(4025);
    let second = chaos_run_fingerprint(4025);
    assert_eq!(
        first, second,
        "a chaos schedule must replay bit-for-bit under the same seed"
    );
    assert!(first.dropped_loss > 0, "loss phase never dropped anything");
    assert!(
        first.dropped_partition > 0,
        "partition phase never dropped anything"
    );
    assert!(
        first.dropped_crashed > 0,
        "crash phase never dropped anything"
    );
    assert!(first.committed > 0, "nothing committed under chaos");
}
