//! Crash-recovery tests for the persistent epoch store (`setchain-store`).
//!
//! The contract under test: a deployment killed mid-run and reopened over
//! the same store directories replays every server to the exact committed
//! prefix — identical element sets *and* identical signed epoch digests —
//! of an uninterrupted run with the same seed; a restarted node recovers
//! through its store without paging peers; a replayed element stays a
//! duplicate across a restart; and a torn segment tail truncates cleanly
//! instead of poisoning recovery.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use setchain::{Algorithm, ElementId, SetchainMsg, StoreConfig};
use setchain_crypto::ProcessId;
use setchain_ledger::NetMsg;
use setchain_simnet::SimTime;
use setchain_workload::{Deployment, DeploymentBuilder};

/// Unique store root per test run, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let base = option_env!("CARGO_TARGET_TMPDIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "setchain-recovery-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SERVERS: usize = 4;

/// The determinism-harness deployment shape: 4 servers, 400 el/s for 3 s,
/// 12 s window, seed 71.
fn builder(algorithm: Algorithm) -> DeploymentBuilder {
    Deployment::builder(algorithm)
        .servers(SERVERS)
        .rate(400.0)
        .collector(32)
        .injection_secs(3)
        .max_run_secs(12)
        .seed(71)
}

/// Per-server epoch fingerprints: `(digest bytes, element ids)` per epoch,
/// in epoch order. Digests are compared byte-for-byte — the signed digest
/// is what epoch-proofs bind, so recovery must reproduce it exactly.
type EpochPrints = Vec<Vec<([u8; 64], BTreeSet<ElementId>)>>;

fn epoch_prints(deployment: &Deployment) -> EpochPrints {
    (0..SERVERS)
        .map(|i| {
            let state = deployment.server(i).state();
            (1..=state.epoch())
                .map(|e| {
                    let digest = state.epoch_digest(e).expect("epoch in range").0;
                    let ids = state
                        .epoch_elements(e)
                        .expect("epoch in range")
                        .iter()
                        .map(|el| el.id)
                        .collect();
                    (digest, ids)
                })
                .collect()
        })
        .collect()
}

#[test]
fn killed_runs_replay_to_the_exact_committed_prefix_for_every_variant() {
    for algorithm in Algorithm::ALL {
        // Reference: an uninterrupted in-memory run of the same seed.
        let mut reference = builder(algorithm).build();
        reference.sim.run_until(SimTime::from_secs(12));
        let reference_prints = epoch_prints(&reference);
        drop(reference);

        // Store-backed run killed mid-flight at 9 s: dropping the
        // deployment discards all in-RAM state; only the segment logs
        // survive. 9 s is past the first commits of every variant but
        // before the drain completes, so the tail is genuinely torn off.
        let tmp = TempDir::new("kill");
        let mut killed = builder(algorithm)
            .store(StoreConfig::new(tmp.path()))
            .build();
        killed.sim.run_until(SimTime::from_secs(9));
        let persisted: Vec<u64> = (0..SERVERS)
            .map(|i| killed.server(i).stats().epochs_persisted)
            .collect();
        drop(killed);

        // Reopen over the same directories: building the deployment opens
        // each server's store and replays it — no simulated time has
        // passed, so everything below is pure local recovery.
        let reopened = builder(algorithm)
            .store(StoreConfig::new(tmp.path()))
            .build();
        for i in 0..SERVERS {
            let state = reopened.server(i).state();
            assert_eq!(
                state.epoch(),
                persisted[i],
                "{algorithm:?} server {i}: replayed tip != persisted frontier"
            );
            assert!(
                state.epoch() > 0,
                "{algorithm:?} server {i}: nothing persisted by 9s"
            );
            let prints = &reference_prints[i];
            assert!(
                (state.epoch() as usize) <= prints.len(),
                "{algorithm:?} server {i}: recovered past the reference run"
            );
            for e in 1..=state.epoch() {
                let (ref_digest, ref_ids) = &prints[e as usize - 1];
                assert_eq!(
                    &state.epoch_digest(e).expect("replayed").0,
                    ref_digest,
                    "{algorithm:?} server {i} epoch {e}: digest diverged"
                );
                let ids: BTreeSet<ElementId> = state
                    .epoch_elements(e)
                    .expect("replayed")
                    .iter()
                    .map(|el| el.id)
                    .collect();
                assert_eq!(
                    &ids, ref_ids,
                    "{algorithm:?} server {i} epoch {e}: elements diverged"
                );
                // Replay restores the stored quorum: the epoch is
                // committed without any re-verification or peer traffic.
                assert!(
                    state.proof_count(e) >= reopened.config.proof_quorum(),
                    "{algorithm:?} server {i} epoch {e}: quorum not replayed"
                );
            }
        }
    }
}

/// Enabling the store must not perturb the simulation: store I/O happens on
/// the host, outside simulated time, so a store-backed run produces the
/// bit-identical schedule and committed results of an in-memory run.
#[test]
fn store_backed_runs_are_schedule_identical_to_in_memory_runs() {
    let mut plain = builder(Algorithm::Hashchain).build();
    plain.sim.run_until(SimTime::from_secs(12));

    let tmp = TempDir::new("identical");
    let mut stored = builder(Algorithm::Hashchain)
        .store(StoreConfig::new(tmp.path()))
        .build();
    stored.sim.run_until(SimTime::from_secs(12));

    assert_eq!(
        plain.sim.events_processed(),
        stored.sim.events_processed(),
        "store-backed run processed a different event schedule"
    );
    assert_eq!(
        plain.sim.messages_deferred(),
        stored.sim.messages_deferred()
    );
    assert_eq!(plain.trace.added_count(), stored.trace.added_count());
    assert_eq!(
        plain.trace.committed_count_by(SimTime::from_secs(12)),
        stored.trace.committed_count_by(SimTime::from_secs(12))
    );
    assert_eq!(epoch_prints(&plain), epoch_prints(&stored));
    let persisted: u64 = (0..SERVERS)
        .map(|i| stored.server(i).stats().epochs_persisted)
        .sum();
    assert!(persisted > 0, "nothing reached the store");
}

/// The restart path, store-first: a deployment restarted over its store
/// directories recovers every server locally — each reopens at its own
/// persisted tip with the digests it committed.
#[test]
fn restart_recovers_through_the_store_without_peer_catchup() {
    let tmp = TempDir::new("restart");
    let mut first = builder(Algorithm::Hashchain)
        .store(StoreConfig::new(tmp.path()))
        .build();
    first.sim.run_until(SimTime::from_secs(12));
    let prints = epoch_prints(&first);
    let tips: Vec<u64> = (0..SERVERS)
        .map(|i| first.server(i).stats().epochs_persisted)
        .collect();
    assert!(tips.iter().all(|&t| t > 0), "every server persisted epochs");
    drop(first);

    // Restart: same directories, no injection. Run a couple of simulated
    // seconds so every server has started and any ledger traffic settles.
    let mut restarted = builder(Algorithm::Hashchain)
        .store(StoreConfig::new(tmp.path()))
        .injection_secs(0)
        .build();
    restarted.sim.run_until(SimTime::from_secs(2));
    for i in 0..SERVERS {
        let state = restarted.server(i).state();
        assert_eq!(state.epoch(), tips[i], "server {i} recovered tip");
        for e in 1..=state.epoch() {
            assert_eq!(
                state.epoch_digest(e).expect("recovered").0,
                prints[i][e as usize - 1].0,
                "server {i} epoch {e}: digest diverged across restart"
            );
        }
    }
}

/// The store holds no element index: `the_set` is server state, rebuilt at
/// restart by replaying the log. A re-add of a replayed element must still
/// be a duplicate.
#[test]
fn a_replayed_element_stays_a_duplicate_after_restart() {
    let tmp = TempDir::new("replay-restart");
    let mut killed = builder(Algorithm::Hashchain)
        .store(StoreConfig::new(tmp.path()))
        .build();
    killed.sim.run_until(SimTime::from_secs(9));
    let old = killed
        .server(0)
        .state()
        .epoch_elements(1)
        .expect("epoch 1 committed")[0];
    drop(killed);

    let mut reopened = builder(Algorithm::Hashchain)
        .store(StoreConfig::new(tmp.path()))
        .injection_secs(0)
        .build();
    let state = reopened.server(0).state();
    assert!(state.epoch_elements(1).is_some_and(|es| es.contains(&old)));
    assert!(state.contains(&old.id) && state.in_history(&old.id));
    let set_len = state.the_set_len();
    let before = reopened.server(0).stats();

    reopened.sim.schedule_message(
        SimTime::from_millis(100),
        old.client,
        ProcessId::server(0),
        NetMsg::App(SetchainMsg::AddBatch(vec![old])),
    );
    reopened.sim.run_until(SimTime::from_secs(1));
    let after = reopened.server(0).stats();
    assert_eq!(
        after.adds_rejected_duplicate,
        before.adds_rejected_duplicate + 1,
        "re-add of a replayed element was not rejected as a duplicate"
    );
    assert_eq!(after.adds_accepted, before.adds_accepted);
    assert_eq!(reopened.server(0).state().the_set_len(), set_len);
}

/// A torn tail — a partial frame appended by a crash mid-write — must be
/// truncated on reopen: recovery lands on the last whole record, never
/// panics, never invents state.
#[test]
fn torn_segment_tail_is_truncated_on_reopen() {
    let tmp = TempDir::new("torn");
    let mut run = builder(Algorithm::Vanilla)
        .store(StoreConfig::new(tmp.path()))
        .build();
    run.sim.run_until(SimTime::from_secs(9));
    let tip = run.server(0).stats().epochs_persisted;
    assert!(tip > 0);
    drop(run);

    // Append garbage — a plausible frame header claiming a payload that
    // never made it to disk — to server 0's newest segment.
    let server_dir = std::path::Path::new(tmp.path()).join("server-0");
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&server_dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().map(|x| x == "log"))
                .unwrap_or(false)
                .then_some(path)
        })
        .collect();
    segments.sort();
    let last = segments.last().expect("at least one segment");
    let mut bytes = std::fs::read(last).unwrap();
    bytes.extend_from_slice(&0x3147_4553u32.to_le_bytes()); // frame magic
    bytes.extend_from_slice(&1_000_000u32.to_le_bytes()); // torn payload len
    bytes.extend_from_slice(&[0xAB; 11]);
    std::fs::write(last, bytes).unwrap();

    let reopened = builder(Algorithm::Vanilla)
        .store(StoreConfig::new(tmp.path()))
        .build();
    assert_eq!(
        reopened.server(0).state().epoch(),
        tip,
        "torn tail should truncate back to the persisted frontier"
    );
}
