//! Determinism regression tests for the scheduler overhaul.
//!
//! The drain/bench acceptance criteria rest on one property: the same seed
//! produces the identical event schedule and the identical committed element
//! sets, run after run. The slab process table, the split timer queue and
//! same-instant delivery coalescing must all preserve it — these tests pin
//! it down for every algorithm variant.

use std::collections::BTreeSet;

use setchain::{Algorithm, AuthMode, ElementId, ServerByzMode};
use setchain_crypto::Sha256;
use setchain_simnet::SimTime;
use setchain_workload::{Deployment, DeploymentBuilder};

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

impl RunFingerprint {
    /// Hex SHA-256 over every server's signed epoch digests, in
    /// (server, epoch) order.
    fn digests_sha256(&self) -> String {
        let mut hasher = Sha256::new();
        for digest in self.digests.iter().flatten() {
            hasher.update(digest);
        }
        hasher.finalize().to_hex()
    }

    /// Asserts the pinned part of the fingerprint — `(events_processed,
    /// messages_deferred, added, committed, digests_sha256)` — against `want`.
    fn assert_golden(&self, want: (u64, u64, usize, usize, &str), shape: &dyn std::fmt::Debug) {
        let digests = self.digests_sha256();
        let got = (
            self.events_processed,
            self.messages_deferred,
            self.added,
            self.committed,
            digests.as_str(),
        );
        assert_eq!(got, want, "{shape:?}: schedule moved off its golden");
    }

    /// Every element id server 0 stamped into an epoch.
    fn stamped_ids(&self) -> BTreeSet<ElementId> {
        self.epochs[0].iter().flatten().copied().collect()
    }
}

fn run_once(algorithm: Algorithm, seed: u64) -> RunFingerprint {
    run_once_with_auth(algorithm, seed, AuthMode::PerElement)
}

fn run_once_with_auth(algorithm: Algorithm, seed: u64, auth: AuthMode) -> RunFingerprint {
    run_once_at(algorithm, seed, auth, 4, 400.0, 3)
}

/// One run of `injection_secs` at `rate` el/s plus a 9 s drain.
fn run_once_at(
    algorithm: Algorithm,
    seed: u64,
    auth: AuthMode,
    servers: usize,
    rate: f64,
    injection_secs: u64,
) -> RunFingerprint {
    run_builder(builder_at(
        algorithm,
        seed,
        auth,
        servers,
        rate,
        injection_secs,
    ))
}

fn builder_at(
    algorithm: Algorithm,
    seed: u64,
    auth: AuthMode,
    servers: usize,
    rate: f64,
    injection_secs: u64,
) -> DeploymentBuilder {
    Deployment::builder(algorithm)
        .servers(servers)
        .rate(rate)
        .collector(32)
        .injection_secs(injection_secs)
        .auth_mode(auth)
        .seed(seed)
}

/// Runs `builder`'s deployment for its injection window plus a 9 s drain.
fn run_builder(builder: DeploymentBuilder) -> RunFingerprint {
    let servers = builder.scenario().servers;
    let end = builder.scenario().injection_secs + 9;
    let mut deployment = builder.max_run_secs(end).build();
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
            let run = || run_once_at(algorithm, 71, AuthMode::PerElement, servers, rate, secs);
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

/// One pinned run: `(algorithm, auth, servers, rate, injection_secs, seed)` →
/// `(events_processed, messages_deferred, added, committed, digests_sha256)`.
type Golden = (
    (Algorithm, AuthMode, usize, f64, u64, u64),
    (u64, u64, usize, usize, &'static str),
);

/// The cross-commit oracle. Every other test in this file compares two runs
/// of the *same* binary, so none of them notices a refactor that changes a
/// schedule; these values were recorded once and a change that moves one on
/// purpose edits the table in its own diff. Every row drains.
#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    ((Algorithm::Vanilla, AuthMode::PerElement, 4, 400.0, 3, 71), (8293, 302, 1200, 1200, "4ac467873e3b6a6ed7ac7e3df6b7f810b5bdef7baa0333b46ec5a9bca6b6cd5a")),
    ((Algorithm::Vanilla, AuthMode::BatchRoot, 4, 400.0, 3, 71), (10092, 420, 1200, 1200, "4ac467873e3b6a6ed7ac7e3df6b7f810b5bdef7baa0333b46ec5a9bca6b6cd5a")),
    ((Algorithm::Compresschain, AuthMode::PerElement, 4, 400.0, 3, 71), (6900, 288, 1200, 1200, "793699c8899115b32fa4d3aea377f2ae8becbe8d8283414f44f35aceb98f2a6b")),
    ((Algorithm::Compresschain, AuthMode::BatchRoot, 4, 400.0, 3, 71), (8700, 418, 1200, 1200, "e3d810c0cafb34c8ab56147ed3c9c8ca6b119aa7bd2fabbeafab9980bab7ed5f")),
    ((Algorithm::Hashchain, AuthMode::PerElement, 4, 400.0, 3, 71), (7561, 900, 1200, 1200, "92abaaf840a95b8969f3470fbb2847f00f9702fb9cadc95697e85152bf803ad1")),
    ((Algorithm::Hashchain, AuthMode::BatchRoot, 4, 400.0, 3, 71), (9359, 1027, 1200, 1200, "1e5787ce5eaa698673035bc1a9fae4842331b131c1a4ebd0ae38741ceba62733")),
    ((Algorithm::Vanilla, AuthMode::PerElement, 7, 2000.0, 3, 71), (18205, 1110, 5999, 5999, "c66e5a6e8c29978a298e27a0b8a5e4a87c3c6fc97fb2aaa46712e9c5a905ea5a")),
    ((Algorithm::Hashchain, AuthMode::PerElement, 7, 3000.0, 4, 71), (21285, 23905, 11998, 11998, "87028d05b520c2a158e2729c915f401c1cd7a43091d0219613a6d62813733c96")),
    ((Algorithm::Vanilla, AuthMode::PerElement, 10, 500.0, 2, 71), (24464, 4309, 1000, 1000, "06f58863ee7cfeb8a12814b5f9aa99911d385b92183481f4ad15f5f36e118d72")),
    ((Algorithm::Compresschain, AuthMode::PerElement, 10, 500.0, 2, 71), (16996, 3125, 1000, 1000, "59d7980fd5d2d8fb3f2da44d727547db11eec83716c9892406461abf244de2d0")),
    ((Algorithm::Hashchain, AuthMode::PerElement, 10, 500.0, 2, 71), (20247, 8255, 1000, 1000, "d76f1abfcd73bbabddab72b930ee6df18fb966cb2548b49a5e0f50e898e96a78")),
];

#[test]
fn runs_match_the_golden_fingerprints() {
    for &(shape, want) in GOLDENS {
        let (algorithm, auth, servers, rate, injection_secs, seed) = shape;
        let fp = run_once_at(algorithm, seed, auth, servers, rate, injection_secs);
        fp.assert_golden(want, &shape);
        assert_eq!(fp.committed, fp.added, "{shape:?}: run did not drain");
    }
}

/// A front-door branch no [`GOLDENS`] row reaches, as a builder tweak on the
/// n = 4, 400 el/s, 3 s, seed 71 shape.
#[derive(Clone, Copy, Debug)]
enum Branch {
    /// Server 1 appends a forged element next to every add it handles.
    InjectInvalid,
    /// Server 1 swallows its client's adds (and does not gossip envelopes).
    DropClientAdds,
    /// Server 2 signs every epoch-proof with a bogus signature, so every
    /// correct server walks the rejected-proof branch of `ingest_proof`.
    ForgeProofs,
    /// The algorithm's "light" ablation.
    Light,
    /// Hashchain's push-based batch dissemination.
    PushBatches,
}

impl Branch {
    fn apply(self, builder: DeploymentBuilder) -> DeploymentBuilder {
        match self {
            Branch::InjectInvalid => builder.server_fault(1, ServerByzMode::InjectInvalidElements),
            Branch::DropClientAdds => builder.server_fault(1, ServerByzMode::DropClientAdds),
            Branch::ForgeProofs => builder.server_fault(2, ServerByzMode::ForgeProofs),
            Branch::Light => builder.light(),
            Branch::PushBatches => builder.push_batches(),
        }
    }

    fn fault_free(self) -> bool {
        matches!(self, Branch::Light | Branch::PushBatches)
    }
}

/// `(algorithm, auth, branch)` → the same fingerprint tuple as [`GOLDENS`].
type BranchGolden = (
    (Algorithm, AuthMode, Branch),
    (u64, u64, usize, usize, &'static str),
);

/// Pinned runs of the branches the shared add/get front door carries besides
/// the fault-free path: the Byzantine server modes that act inside it and the
/// light / push variants that change what a flushed batch does. The
/// `ForgeProofs` row reads the same as the fault-free Hashchain row of
/// [`GOLDENS`] on purpose: a rejected proof is charged the same simulated
/// CPU and bytes as an accepted one, and f + 1 honest signers still commit
/// every epoch — the row pins that the rejection branch of `ingest_proof`
/// stays schedule-neutral.
#[rustfmt::skip]
const BRANCH_GOLDENS: &[BranchGolden] = &[
    ((Algorithm::Vanilla, AuthMode::PerElement, Branch::InjectInvalid), (8289, 281, 1200, 1200, "ef9fd0678dc17de0f3bfddb58c9654f6630814381559417b07f8f88a7bc43d6a")),
    ((Algorithm::Hashchain, AuthMode::BatchRoot, Branch::DropClientAdds), (8774, 729, 1200, 900, "51f107426cd1ca2825b81887430e9e37d1386271d31a906350758e1972991a21")),
    ((Algorithm::Hashchain, AuthMode::PerElement, Branch::ForgeProofs), (7561, 900, 1200, 1200, "92abaaf840a95b8969f3470fbb2847f00f9702fb9cadc95697e85152bf803ad1")),
    ((Algorithm::Hashchain, AuthMode::PerElement, Branch::Light), (6976, 303, 1200, 1200, "2dc7b310672f72b7de47454fa69239bb1dd15d09e0fd614b8cf6ae70d263b704")),
    ((Algorithm::Hashchain, AuthMode::PerElement, Branch::PushBatches), (7236, 406, 1200, 1200, "10f6622a190b393c8547e25c68e2d8b3f01d670caf228174b43e3594aacb10a5")),
    ((Algorithm::Compresschain, AuthMode::PerElement, Branch::Light), (6900, 284, 1200, 1200, "500d35b850ed5b5cc0e4624159235e613b3a40e0bba64b22c88c6635539dbca9")),
];

#[test]
fn front_door_branches_match_their_golden_fingerprints() {
    for &(shape, want) in BRANCH_GOLDENS {
        let (algorithm, auth, branch) = shape;
        let fp = run_builder(branch.apply(builder_at(algorithm, 71, auth, 4, 400.0, 3)));
        fp.assert_golden(want, &shape);
        if branch.fault_free() {
            assert_eq!(fp.committed, fp.added, "{shape:?}: run did not drain");
        }
    }
}

/// Vanilla is the paper's reference point: the same seed and workload must
/// put the same *elements* (not the same epochs) on the Setchain under all
/// three algorithms.
#[test]
fn all_three_algorithms_stamp_the_same_element_set() {
    let reference = run_once(Algorithm::Vanilla, 71).stamped_ids();
    assert_eq!(reference.len(), 1200);
    for algorithm in [Algorithm::Compresschain, Algorithm::Hashchain] {
        assert_eq!(
            run_once(algorithm, 71).stamped_ids(),
            reference,
            "{algorithm:?} stamped a different element set than Vanilla"
        );
    }
}
