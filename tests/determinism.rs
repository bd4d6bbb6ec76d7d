//! Determinism regression tests for the scheduler overhaul.
//!
//! The drain/bench acceptance criteria rest on one property: the same seed
//! produces the identical event schedule and the identical committed element
//! sets, run after run. The slab process table, the split timer queue and
//! same-instant delivery coalescing must all preserve it — these tests pin
//! it down for every algorithm variant.

use std::collections::BTreeSet;

use setchain::{Algorithm, ElementId, ServerByzMode};
use setchain_crypto::Sha256;
use setchain_simnet::SimTime;
use setchain_workload::{
    check_setchain_invariants, Deployment, DeploymentBuilder, InvariantReport,
};

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
    /// What the Setchain property checker covered at the end of the run.
    invariants: InvariantReport,
    /// Per-server: admission verdicts still cached at the end of the run.
    admission_entries: Vec<usize>,
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

    /// The property check `run_builder` ran was not vacuous: every correct
    /// server's committed epochs had their proofs and one inclusion proof
    /// each verified, epoch elements were traced to their adds, and a
    /// drained run found every added id in every correct server's set.
    fn assert_properties_checked(&self, shape: &dyn std::fmt::Debug) {
        let report = &self.invariants;
        assert!(report.servers >= 3, "{shape:?}: {report:?}");
        assert!(report.committed_epochs > 0, "{shape:?}: {report:?}");
        assert!(report.inclusion_proofs > 0, "{shape:?}: {report:?}");
        assert!(
            report.proofs_verified >= report.committed_epochs * 2,
            "{shape:?}: {report:?}"
        );
        assert!(report.adds_before_gets > 0, "{shape:?}: {report:?}");
        if self.committed == self.added {
            let every_id_everywhere = (self.added * report.servers) as u64;
            assert_eq!(report.eventual_gets, every_id_everywhere, "{shape:?}");
        }
    }

    /// Every element id server 0 stamped into an epoch.
    fn stamped_ids(&self) -> BTreeSet<ElementId> {
        self.epochs[0].iter().flatten().copied().collect()
    }
}

fn run_once(algorithm: Algorithm, seed: u64) -> RunFingerprint {
    run_once_at(algorithm, seed, 4, 400.0, 3)
}

/// One run of `injection_secs` at `rate` el/s plus a 9 s drain.
fn run_once_at(
    algorithm: Algorithm,
    seed: u64,
    servers: usize,
    rate: f64,
    injection_secs: u64,
) -> RunFingerprint {
    run_builder(builder_at(algorithm, seed, servers, rate, injection_secs))
}

fn builder_at(
    algorithm: Algorithm,
    seed: u64,
    servers: usize,
    rate: f64,
    injection_secs: u64,
) -> DeploymentBuilder {
    Deployment::builder(algorithm)
        .servers(servers)
        .rate(rate)
        .collector(32)
        .injection_secs(injection_secs)
        .seed(seed)
}

/// Runs `builder`'s deployment for its injection window plus a 9 s drain,
/// and checks the Setchain properties on the final state.
fn run_builder(builder: DeploymentBuilder) -> RunFingerprint {
    let end = builder.scenario().injection_secs + 9;
    let mut deployment = builder.max_run_secs(end).build();
    deployment.sim.run_until(SimTime::from_secs(end));
    fingerprint(&deployment, end)
}

/// The fingerprint of `deployment` after a run to `end` seconds, with the
/// Setchain properties checked on its final state.
fn fingerprint(deployment: &Deployment, end: u64) -> RunFingerprint {
    let servers = deployment.config.servers;
    let invariants = check_setchain_invariants(deployment)
        .unwrap_or_else(|violation| panic!("Setchain property violated: {violation}"));
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
    let admission_entries = (0..servers)
        .map(|i| deployment.server(i).core().admission_cache().len())
        .collect();
    RunFingerprint {
        events_processed: deployment.sim.events_processed(),
        messages_deferred: deployment.sim.messages_deferred(),
        added: deployment.trace.added_count(),
        committed: deployment.trace.committed_count_by(SimTime::from_secs(end)),
        epochs,
        digests,
        invariants,
        admission_entries,
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
            let run = || run_once_at(algorithm, 71, servers, rate, secs);
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

/// Every correct server ingests an epoch's proofs in ledger order, so the
/// servers that record one batch as the epoch hold one proof list between
/// them: for every committed epoch, the four servers' `proofs_for` slices
/// are one allocation of one length.
#[test]
fn committed_epochs_share_one_proof_list_across_servers() {
    for algorithm in Algorithm::ALL {
        let builder = builder_at(algorithm, 71, 4, 400.0, 3);
        let end = builder.scenario().injection_secs + 9;
        let mut deployment = builder.max_run_secs(end).build();
        deployment.sim.run_until(SimTime::from_secs(end));
        let quorum = deployment.config.proof_quorum();
        let reference = deployment.server(0).state();
        let committed: Vec<u64> = (1..=reference.epoch())
            .filter(|&e| reference.proof_count(e) >= quorum)
            .collect();
        assert!(!committed.is_empty(), "{algorithm:?}: nothing committed");
        for i in 1..deployment.config.servers {
            let state = deployment.server(i).state();
            for &e in &committed {
                let (ours, theirs) = (reference.proofs_for(e), state.proofs_for(e));
                assert_eq!(
                    (theirs.as_ptr(), theirs.len()),
                    (ours.as_ptr(), ours.len()),
                    "{algorithm:?} epoch {e}: server {i} holds a proof list of its own"
                );
            }
        }
    }
}

/// One pinned run: `(algorithm, servers, rate, injection_secs, seed)` →
/// `(events_processed, messages_deferred, added, committed, digests_sha256)`.
type Golden = (
    (Algorithm, usize, f64, u64, u64),
    (u64, u64, usize, usize, &'static str),
);

/// The cross-commit oracle. Every other test in this file compares two runs
/// of the *same* binary, so none of them notices a refactor that changes a
/// schedule; these values were recorded once and a change that moves one on
/// purpose edits the table in its own diff. Every row drains.
#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    ((Algorithm::Vanilla, 4, 400.0, 3, 71), (8293, 302, 1200, 1200, "4ac467873e3b6a6ed7ac7e3df6b7f810b5bdef7baa0333b46ec5a9bca6b6cd5a")),
    ((Algorithm::Compresschain, 4, 400.0, 3, 71), (6900, 290, 1200, 1200, "793699c8899115b32fa4d3aea377f2ae8becbe8d8283414f44f35aceb98f2a6b")),
    ((Algorithm::Hashchain, 4, 400.0, 3, 71), (7588, 871, 1200, 1200, "5df9b4b8a139b65973ee850e0dbf785a045cc3ce7cb84b468c7300674a6550ba")),
    ((Algorithm::Vanilla, 7, 2000.0, 3, 71), (18207, 1106, 5999, 5999, "21ab0a44e87f1c77897508e63cdba5d857d879736dbbcf0dcfe6b151462576f8")),
    ((Algorithm::Hashchain, 7, 3000.0, 4, 71), (22556, 21183, 11998, 11998, "c419642d922a54501d82c65cf1be0d95e1ab377b43e34fd067b9ffe67c5be86a")),
    ((Algorithm::Vanilla, 10, 500.0, 2, 71), (24464, 4299, 1000, 1000, "06f58863ee7cfeb8a12814b5f9aa99911d385b92183481f4ad15f5f36e118d72")),
    ((Algorithm::Compresschain, 10, 500.0, 2, 71), (16996, 3120, 1000, 1000, "59d7980fd5d2d8fb3f2da44d727547db11eec83716c9892406461abf244de2d0")),
    ((Algorithm::Hashchain, 10, 500.0, 2, 71), (21099, 7752, 1000, 1000, "2cf9167515eafee35dce7be41ad784eac6843fbdae27519b20fe756d90bb6609")),
];

#[test]
fn runs_match_the_golden_fingerprints() {
    for &(shape, want) in GOLDENS {
        let (algorithm, servers, rate, injection_secs, seed) = shape;
        let fp = run_once_at(algorithm, seed, servers, rate, injection_secs);
        fp.assert_golden(want, &shape);
        fp.assert_properties_checked(&shape);
        assert_eq!(fp.committed, fp.added, "{shape:?}: run did not drain");
        if (servers, rate) == (4, 400.0) {
            // Every element is stamped everywhere and none was rejected, so
            // no server keeps a single admission verdict.
            assert!(
                fp.admission_entries.iter().all(|&n| n == 0),
                "{shape:?}: verdicts left after quiescence: {:?}",
                fp.admission_entries
            );
        }
    }
}

/// A front-door branch no [`GOLDENS`] row reaches, as a builder tweak on the
/// n = 4, 400 el/s, 3 s, seed 71 shape.
#[derive(Clone, Copy, Debug)]
enum Branch {
    /// Server 1 appends a forged element next to every add it handles.
    InjectInvalid,
    /// Server 1 swallows its client's adds.
    DropClientAdds,
    /// Server 2 signs every epoch-proof with a bogus signature, so every
    /// correct server walks the rejected-proof branch of `ingest_proof`.
    ForgeProofs,
    /// The algorithm's "light" ablation.
    Light,
    /// Hashchain's push-based batch dissemination.
    PushBatches,
    /// Server 3 never answers a `Request_batch`, so hash reversal times out
    /// on it and fails over to another signer.
    RefuseBatchService,
    /// Every message is lost with probability 0.05, batch requests and
    /// responses included.
    Lossy,
}

impl Branch {
    fn apply(self, builder: DeploymentBuilder) -> DeploymentBuilder {
        match self {
            Branch::InjectInvalid => builder.server_fault(1, ServerByzMode::InjectInvalidElements),
            Branch::DropClientAdds => builder.server_fault(1, ServerByzMode::DropClientAdds),
            Branch::ForgeProofs => builder.server_fault(2, ServerByzMode::ForgeProofs),
            Branch::Light => builder.light(),
            Branch::PushBatches => builder.push_batches(),
            Branch::RefuseBatchService => {
                builder.server_fault(3, ServerByzMode::RefuseBatchService)
            }
            Branch::Lossy => builder.loss_rate(0.05),
        }
    }

    fn fault_free(self) -> bool {
        matches!(self, Branch::Light | Branch::PushBatches)
    }
}

/// `(algorithm, branch)` → the same fingerprint tuple as [`GOLDENS`].
type BranchGolden = ((Algorithm, Branch), (u64, u64, usize, usize, &'static str));

/// Pinned runs of the branches the shared add/get front door carries besides
/// the fault-free path: the Byzantine server modes that act inside it and the
/// light / push variants that change what a flushed batch does. The
/// `ForgeProofs` row reads the same as the fault-free Hashchain row of
/// [`GOLDENS`] on purpose: a rejected proof is charged the same simulated
/// CPU and bytes as an accepted one, and f + 1 honest signers still commit
/// every epoch — the row pins that the rejection branch of `ingest_proof`
/// stays schedule-neutral. Likewise the Vanilla `Light` row reads the same
/// as the n = 4 Vanilla row of [`GOLDENS`]: it pins that `light` leaves a
/// Vanilla schedule unchanged. It cannot pin that Vanilla still validates
/// under `light`, because the run has no invalid element;
/// `app::tests::vanilla_has_no_light_ablation` pins that. The
/// `RefuseBatchService` and `Lossy` rows pin Hashchain's request timeouts,
/// failover to another signer and skipped hash-batches, which no fault-free
/// row reaches; neither drains.
#[rustfmt::skip]
const BRANCH_GOLDENS: &[BranchGolden] = &[
    ((Algorithm::Vanilla, Branch::InjectInvalid), (8292, 300, 1200, 1200, "4ac467873e3b6a6ed7ac7e3df6b7f810b5bdef7baa0333b46ec5a9bca6b6cd5a")),
    ((Algorithm::Hashchain, Branch::InjectInvalid), (7618, 774, 1200, 1200, "2f2743adfd10a4984aa03a0dfb5c4a59af47f94fe7c0a6d57c65ac9411277b9a")),
    ((Algorithm::Compresschain, Branch::InjectInvalid), (6915, 269, 1200, 1200, "659126ba1dd5fd279877bec69f962cef8af9991b7c3c647f34ac254d2f21b0e8")),
    ((Algorithm::Hashchain, Branch::DropClientAdds), (7442, 644, 1200, 900, "13516d3aec16caf6d735d3b26fef82c15a571d5f6e74db9019126eeb934a19d9")),
    ((Algorithm::Hashchain, Branch::ForgeProofs), (7588, 871, 1200, 1200, "5df9b4b8a139b65973ee850e0dbf785a045cc3ce7cb84b468c7300674a6550ba")),
    ((Algorithm::Hashchain, Branch::Light), (6996, 283, 1200, 1200, "2dc7b310672f72b7de47454fa69239bb1dd15d09e0fd614b8cf6ae70d263b704")),
    ((Algorithm::Hashchain, Branch::PushBatches), (7268, 370, 1200, 1200, "10f6622a190b393c8547e25c68e2d8b3f01d670caf228174b43e3594aacb10a5")),
    ((Algorithm::Hashchain, Branch::RefuseBatchService), (7390, 675, 1200, 714, "904fcebe4cd651c64d10d29750a87e547815b68de5b68a10c0d9d525e4aa6f93")),
    ((Algorithm::Hashchain, Branch::Lossy), (7387, 628, 1200, 1142, "a59fe1fde7aae8ccbc260e8385c4ef5afa0de4fe044d54d5944efeca7378f28c")),
    ((Algorithm::Compresschain, Branch::Light), (6900, 284, 1200, 1200, "500d35b850ed5b5cc0e4624159235e613b3a40e0bba64b22c88c6635539dbca9")),
    ((Algorithm::Vanilla, Branch::Light), (8293, 302, 1200, 1200, "4ac467873e3b6a6ed7ac7e3df6b7f810b5bdef7baa0333b46ec5a9bca6b6cd5a")),
];

#[test]
fn front_door_branches_match_their_golden_fingerprints() {
    for &(shape, want) in BRANCH_GOLDENS {
        let (algorithm, branch) = shape;
        let fp = run_builder(branch.apply(builder_at(algorithm, 71, 4, 400.0, 3)));
        fp.assert_golden(want, &shape);
        fp.assert_properties_checked(&shape);
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

/// Hex SHA-256 over `rows`, each number as 8 little-endian bytes.
fn rows_sha256(rows: impl Iterator<Item = Vec<u64>>) -> String {
    let mut hasher = Sha256::new();
    for value in rows.flatten() {
        hasher.update(&value.to_le_bytes());
    }
    hasher.finalize().to_hex()
}

/// `(run, retried receipt, get responses, get_epoch responses)`: see
/// [`SESSION_GOLDEN`].
type SessionGolden = (
    (u64, u64, usize, usize, &'static str),
    (u32, usize, Option<u64>, bool),
    (usize, &'static str),
    (usize, usize, &'static str),
);

/// The one pinned run that carries a client session: Hashchain, n = 4,
/// 300 el/s, c25, 4 s of injection, seed 4242, server 1 swallowing client
/// adds, run to 30 s. The session adds four elements via server 2, one with
/// retries via server 1 at 0.7 s, then sends a `get` (9 s) and
/// `get_epoch(1..=25)` (10 s) to server 3. Its requests, retry attempts and
/// audits ride the schedule, so the run's fingerprint and everything the
/// session learned are pinned together: the run as in [`GOLDENS`], the
/// retried receipt as `(attempts, credited server, confirmed_at µs,
/// gave_up)`, the `get` responses as `(count, SHA-256 over their rows)` and
/// the `get_epoch` responses as `(count, verified, SHA-256 over their
/// rows)`. A snapshot row is `(server, arrival µs, the
/// five GetSnapshot counters)`; an epoch row is `(server, epoch, arrival µs,
/// verified, confirmed ids, proof count)`.
#[rustfmt::skip]
const SESSION_GOLDEN: SessionGolden = (
    (17402, 1485, 1200, 905, "9541862b3927f3757b0c8a5a390e1b60321f97aba662d18a2a694cfba653a94c"),
    (3, 3, Some(6_702_490), false),
    (13, "cafb1e4f615a89e6411a0456d0548fbfe20d5f764b3d3e9015ffe073d211cb91"),
    (231, 81, "b335690cfa9adfa946290bb6b221172e293bf0e9e5b7f20f3cc66263c30058a7"),
);

#[test]
fn session_run_matches_its_golden() {
    let mut deployment = Deployment::builder(Algorithm::Hashchain)
        .servers(4)
        .rate(300.0)
        .collector(25)
        .injection_secs(4)
        .max_run_secs(30)
        .seed(4242)
        .server_fault(1, ServerByzMode::DropClientAdds)
        .build();
    let mut session = deployment.client_session(100, 777);
    for i in 0..4 {
        session.add(SimTime::from_millis(500 + 100 * i), 2, 438, 1000 + i);
    }
    let retried = session.add_with_retry(SimTime::from_millis(700), 1, 438, 2000);
    session.get(SimTime::from_secs(9), 3);
    session.get_epochs(SimTime::from_secs(10), 3, 1..=25);
    session.install(&mut deployment);
    deployment.sim.run_until(SimTime::from_secs(30));

    let (run, retry, snapshots, epochs) = SESSION_GOLDEN;
    let shape = "Hashchain session run";
    let fp = fingerprint(&deployment, 30);
    fp.assert_golden(run, &shape);
    fp.assert_properties_checked(&shape);

    let outcome = session.outcome(&deployment);
    let receipt = outcome.retried[0];
    assert_eq!(receipt.id, retried.id);
    let got_retry = (
        receipt.attempts,
        receipt.server.server_index(),
        receipt.confirmed_at.map(|t| t.as_micros()),
        receipt.gave_up,
    );
    assert_eq!(got_retry, retry, "retried receipt moved");
    let snapshot_rows = outcome.snapshots.iter().map(|s| {
        let g = s.snapshot;
        vec![
            s.server.server_index() as u64,
            s.at.as_micros(),
            g.the_set_len,
            g.epoch,
            g.history_elements,
            g.proofs_total,
            g.epochs_with_quorum,
        ]
    });
    assert_eq!(
        (outcome.snapshots.len(), rows_sha256(snapshot_rows).as_str()),
        snapshots,
        "get responses moved"
    );
    let epoch_rows = outcome.epochs.iter().map(|e| {
        vec![
            e.server.server_index() as u64,
            e.epoch,
            e.at.as_micros(),
            e.is_verified() as u64,
            e.confirmed.len() as u64,
            e.proof_count as u64,
        ]
    });
    assert_eq!(
        (
            outcome.epochs.len(),
            outcome.verified_count(),
            rows_sha256(epoch_rows).as_str()
        ),
        epochs,
        "get_epoch responses or their verdicts moved"
    );
}
