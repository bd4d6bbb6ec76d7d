//! Determinism regression tests for the scheduler overhaul.
//!
//! The drain/bench acceptance criteria rest on one property: the same seed
//! produces the identical event schedule and the identical committed element
//! sets, run after run. The slab process table, the split timer queue and
//! same-instant delivery coalescing must all preserve it — these tests pin
//! it down for every algorithm variant.

use std::collections::BTreeSet;

use setchain::{Algorithm, AuthMode, ElementId};
use setchain_simnet::SimTime;
use setchain_workload::Deployment;

/// Full fingerprint of one deployment run: scheduler counters plus the
/// per-server committed (stamped) element sets and epoch boundaries.
#[derive(Debug, PartialEq, Eq)]
struct RunFingerprint {
    events_processed: u64,
    messages_deferred: u64,
    added: usize,
    committed: usize,
    /// Per-server: the element ids of every recorded epoch, in epoch order.
    epochs: Vec<Vec<BTreeSet<ElementId>>>,
    /// Per-server: the signed digest of every recorded epoch.
    digests: Vec<Vec<[u8; 64]>>,
}

fn run_once(algorithm: Algorithm, seed: u64) -> RunFingerprint {
    run_once_with_auth(algorithm, seed, AuthMode::PerElement)
}

fn run_once_with_auth(algorithm: Algorithm, seed: u64, auth: AuthMode) -> RunFingerprint {
    run_once_sharded(algorithm, seed, auth, 1)
}

fn run_once_sharded(
    algorithm: Algorithm,
    seed: u64,
    auth: AuthMode,
    shards: usize,
) -> RunFingerprint {
    run_once_at(algorithm, seed, auth, shards, 4, 400.0, 3)
}

/// One run of `injection_secs` at `rate` el/s plus a 9 s drain.
fn run_once_at(
    algorithm: Algorithm,
    seed: u64,
    auth: AuthMode,
    shards: usize,
    servers: usize,
    rate: f64,
    injection_secs: u64,
) -> RunFingerprint {
    let end = injection_secs + 9;
    let mut deployment = Deployment::builder(algorithm)
        .servers(servers)
        .rate(rate)
        .collector(32)
        .injection_secs(injection_secs)
        .max_run_secs(end)
        .auth_mode(auth)
        .shards(shards)
        .seed(seed)
        .build();
    deployment.sim.run_until(SimTime::from_secs(end));
    let digests = (0..servers)
        .map(|i| {
            let state = deployment.server(i).state();
            (1..=state.epoch())
                .map(|e| state.epoch_digest(e).expect("epoch in range").0)
                .collect()
        })
        .collect();
    let epochs = (0..servers)
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
    RunFingerprint {
        events_processed: deployment.sim.events_processed(),
        messages_deferred: deployment.sim.messages_deferred(),
        added: deployment.trace.added_count(),
        committed: deployment.trace.committed_count_by(SimTime::from_secs(end)),
        epochs,
        digests,
    }
}

#[test]
fn same_seed_reproduces_the_exact_run_for_every_variant() {
    for algorithm in Algorithm::ALL {
        let first = run_once(algorithm, 71);
        let second = run_once(algorithm, 71);
        assert_eq!(
            first, second,
            "{algorithm:?}: same seed must reproduce scheduler counters and \
             committed element sets bit-for-bit"
        );
        assert!(first.added > 0, "{algorithm:?}: clients injected nothing");
        assert!(
            first.committed > 0,
            "{algorithm:?}: nothing committed in the window"
        );
        assert!(first.events_processed > 0);
    }
}

/// Batch-root authentication ships a different message shape (one sealed
/// envelope per injection tick instead of a plain element batch), so its
/// event schedule legitimately differs from per-element runs — but the
/// same-seed reproducibility guarantee must hold for it exactly as for the
/// default mode.
#[test]
fn batch_root_same_seed_reproduces_the_exact_run_for_every_variant() {
    for algorithm in Algorithm::ALL {
        let first = run_once_with_auth(algorithm, 71, AuthMode::BatchRoot);
        let second = run_once_with_auth(algorithm, 71, AuthMode::BatchRoot);
        assert_eq!(
            first, second,
            "{algorithm:?}: same seed under BatchRoot must reproduce the run \
             bit-for-bit"
        );
        assert!(
            first.committed > 0,
            "{algorithm:?}: nothing committed under BatchRoot"
        );
    }
}

/// Sharded admission (PR 8) is host-side organization only: it repartitions
/// each server's caches and `the_set` but charges, messages and verdicts are
/// untouched. Two guarantees follow, both pinned here: same-seed sharded
/// reruns are bit-identical, and the sharded fingerprint — scheduler
/// counters included — *equals* the unsharded one, which is the strongest
/// statement that `shards(1)` and `shards(4)` run the same simulation.
#[test]
fn sharded_runs_reproduce_and_match_the_unsharded_schedule() {
    for algorithm in Algorithm::ALL {
        let unsharded = run_once(algorithm, 71);
        let first = run_once_sharded(algorithm, 71, AuthMode::PerElement, 4);
        let second = run_once_sharded(algorithm, 71, AuthMode::PerElement, 4);
        assert_eq!(
            first, second,
            "{algorithm:?}: same seed at 4 shards must reproduce the run \
             bit-for-bit"
        );
        assert_eq!(
            first, unsharded,
            "{algorithm:?}: sharding leaked into the event schedule or the \
             committed element sets"
        );
        assert!(first.committed > 0, "{algorithm:?}: nothing committed");
    }
}

/// Above four servers a node can see a commit quorum before the proposal
/// (`LedgerNode::try_commit` then picks a block-sync peer) and a Hashchain
/// server can run out of batch holders to ask (`fail_request` picks the
/// next one). Both picks used to iterate a `HashSet<ProcessId>`, whose
/// order is seeded per instance, so same-seed runs diverged. The rates are
/// the lowest at which nearly every rerun of the old code diverged: blocks
/// must be large enough for votes to overtake proposals.
#[test]
fn same_seed_reproduces_the_exact_run_above_four_servers() {
    for servers in [5, 7] {
        for (algorithm, rate, secs) in [
            (Algorithm::Vanilla, 2000.0, 3),
            (Algorithm::Hashchain, 3000.0, 4),
        ] {
            let run = || run_once_at(algorithm, 71, AuthMode::PerElement, 1, servers, rate, secs);
            let first = run();
            assert_eq!(
                first,
                run(),
                "{algorithm:?} at {servers} servers: same seed must reproduce \
                 the run bit-for-bit"
            );
            assert!(
                first.committed > 0,
                "{algorithm:?} at {servers} servers: nothing committed"
            );
        }
    }
}

#[test]
fn different_seeds_produce_different_schedules() {
    let a = run_once(Algorithm::Hashchain, 71);
    let b = run_once(Algorithm::Hashchain, 72);
    // Different jitter draws give a different schedule; the counters are the
    // cheapest witness of that.
    assert_ne!(
        (a.events_processed, a.messages_deferred),
        (b.events_processed, b.messages_deferred),
        "distinct seeds collapsed onto one schedule"
    );
}

#[test]
fn correct_servers_agree_on_committed_epochs_within_a_run() {
    let fp = run_once(Algorithm::Hashchain, 9);
    let reference = &fp.epochs[0];
    for (i, other) in fp.epochs.iter().enumerate().skip(1) {
        let common = reference.len().min(other.len());
        assert_eq!(
            &reference[..common],
            &other[..common],
            "server {i} diverged from server 0 on the common epoch prefix"
        );
    }
}
