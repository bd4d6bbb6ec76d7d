//! Integration tests: the eight Setchain properties of Section 2, checked on
//! end-to-end runs of all three algorithms over the simulated ledger — plus
//! a known-answer test pinning the epoch digest construction itself.

use setchain::{Algorithm, Element, ElementId, BATCH_CHUNK};
use setchain_crypto::{KeyRegistry, MerkleTree, ProcessId};
use setchain_workload::{check_setchain_invariants, Deployment, RunResult};

/// A small but non-trivial run: 4 servers, a few thousand elements, until
/// every added element is committed (or the cap is reached).
fn run(algorithm: Algorithm, seed: u64) -> RunResult {
    Deployment::builder(algorithm)
        .label(format!("properties {algorithm}"))
        .servers(4)
        .rate(400.0)
        .collector(50)
        .injection_secs(5)
        .max_run_secs(60)
        .seed(seed)
        .run()
}

fn check_all_properties(algorithm: Algorithm, seed: u64) {
    let result = run(algorithm, seed);
    let deployment = &result.deployment;
    let added = deployment.trace.added_count();
    assert!(added > 1_500, "{algorithm}: workload injected ({added})");

    // Properties 1 (Consistent-Sets), 5 (Unique-Epoch), 6 (Consistent-Gets)
    // and 7 (Add-before-Get), plus Get-Global at quiescence, on every
    // server.
    let report = check_setchain_invariants(deployment)
        .unwrap_or_else(|e| panic!("{algorithm}: Setchain property violated: {e}"));
    assert!(report.committed_epochs > 0, "{algorithm}: {report:?}");
    assert!(report.adds_before_gets > 0, "{algorithm}: {report:?}");

    // Liveness (Properties 2, 3, 4): every added valid element ends up in
    // every correct server's history.
    let records = deployment.trace.element_records();
    let unstamped = records.iter().filter(|r| r.epoch.is_none()).count();
    assert_eq!(
        unstamped, 0,
        "{algorithm}: every added element is eventually stamped with an epoch"
    );
    for i in 0..deployment.config.servers {
        let state = deployment.server(i).state();
        for r in &records {
            assert!(
                state.in_history(&r.id),
                "{algorithm}: server {i} history is missing {:?} (Eventual-Get)",
                r.id
            );
        }
    }

    // Property 8 (Valid-Epoch): every epoch containing elements eventually has
    // at least f+1 proofs from distinct servers (correct servers > f).
    let f = deployment.config.f;
    let state = deployment.server(0).state();
    let mut proven = 0;
    let mut with_elements = 0;
    for epoch in 1..=state.epoch() {
        let has_elements = !state.epoch_elements(epoch).unwrap().is_empty();
        if has_elements {
            with_elements += 1;
            if state.proof_count(epoch) > f {
                proven += 1;
            }
        }
    }
    assert!(
        with_elements > 0,
        "{algorithm}: at least one non-empty epoch"
    );
    assert!(
        proven as f64 >= 0.9 * with_elements as f64,
        "{algorithm}: {proven}/{with_elements} element-bearing epochs reached f+1 proofs by {}",
        result.finished_at
    );
}

#[test]
fn vanilla_satisfies_setchain_properties() {
    check_all_properties(Algorithm::Vanilla, 101);
}

#[test]
fn compresschain_satisfies_setchain_properties() {
    check_all_properties(Algorithm::Compresschain, 202);
}

#[test]
fn hashchain_satisfies_setchain_properties() {
    check_all_properties(Algorithm::Hashchain, 303);
}

#[test]
fn epochs_are_identical_across_servers_for_all_algorithms() {
    // Stronger variant of Consistent-Gets: compare the *content* of every
    // epoch id by id between two servers.
    for algorithm in Algorithm::ALL {
        let deployment = run(algorithm, 404).deployment;
        let a = deployment.server(0);
        let b = deployment.server(deployment.config.servers - 1);
        let common = a.state().epoch().min(b.state().epoch());
        assert!(common > 0, "{algorithm}: at least one epoch created");
        for epoch in 1..=common {
            let ida: std::collections::BTreeSet<ElementId> = a
                .state()
                .epoch_elements(epoch)
                .unwrap()
                .iter()
                .map(|e| e.id)
                .collect();
            let idb: std::collections::BTreeSet<ElementId> = b
                .state()
                .epoch_elements(epoch)
                .unwrap()
                .iter()
                .map(|e| e.id)
                .collect();
            assert_eq!(
                ida, idb,
                "{algorithm}: epoch {epoch} differs between servers"
            );
        }
    }
}

/// The trace holds each epoch's `G` once and derives an element's epoch
/// from it, so every record must name the epoch that the servers' histories
/// hold the element in, and carry that epoch's commit time.
#[test]
fn traced_epochs_are_the_server_history_epochs() {
    for algorithm in Algorithm::ALL {
        let result = run(algorithm, 606);
        let deployment = &result.deployment;
        let state = deployment.server(0).state();
        let mut history = std::collections::HashMap::new();
        for epoch in 1..=state.epoch() {
            for e in state.epoch_elements(epoch).unwrap() {
                history.insert(e.id, epoch);
            }
        }
        let records = deployment.trace.element_records();
        assert!(records.len() > 1_500, "{algorithm}: {}", records.len());
        for r in &records {
            let epoch = history.get(&r.id).copied();
            assert!(epoch.is_some(), "{algorithm}: {:?} was never stamped", r.id);
            assert_eq!(r.epoch, epoch, "{algorithm}: {:?} traced elsewhere", r.id);
            assert_eq!(
                r.committed_at,
                deployment.trace.epoch_committed_at(epoch.unwrap()),
                "{algorithm}: {:?} commit time is not its epoch's",
                r.id
            );
        }
        assert_eq!(
            result.committed,
            records.iter().filter(|r| r.committed_at.is_some()).count() as u64
        );
    }
}

/// Every algorithm turns one batch into one epoch, and the run holds each
/// batch once (Hashchain's `hash_to_batch`, Compresschain's committed block,
/// the memo of Vanilla's committed block). A clean run filters nothing out
/// of any batch, so every server's epoch must be that one allocation rather
/// than a per-server copy; `check_setchain_invariants` recomputes no digest
/// for such an epoch.
#[test]
fn whole_batch_epochs_share_one_allocation_across_servers() {
    for algorithm in [
        Algorithm::Hashchain,
        Algorithm::Compresschain,
        Algorithm::Vanilla,
    ] {
        let deployment = run(algorithm, 505).deployment;
        check_setchain_invariants(&deployment)
            .unwrap_or_else(|e| panic!("{algorithm}: Setchain property violated: {e}"));
        let servers = deployment.config.servers;
        let common = (0..servers)
            .map(|i| deployment.server(i).state().epoch())
            .min()
            .unwrap();
        let mut with_elements = 0;
        for epoch in 1..=common {
            let first = deployment.server(0).state().epoch_elements(epoch).unwrap();
            with_elements += usize::from(!first.is_empty());
            for i in 1..servers {
                let other = deployment.server(i).state().epoch_elements(epoch).unwrap();
                assert_eq!(
                    other.as_ptr(),
                    first.as_ptr(),
                    "{algorithm}: server {i} holds its own copy of epoch {epoch}"
                );
            }
        }
        assert!(with_elements > 0, "{algorithm}: no element-bearing epoch");
    }
}

/// Known-answer test for the `(epoch, count, root)` commitment split: the
/// digest servers sign must equal [`setchain::epoch_hash_for_root`] applied
/// to a Merkle root built *by hand* — canonical id order, [`BATCH_CHUNK`]
/// packed identities per leaf, [`MerkleTree::build`] straight from the
/// crypto crate, no `batch_root`/`epoch_root` helpers involved. This is the
/// reconstruction a light client (and PR 8's sub-epoch aggregator) depends
/// on; a silent change to the leaf layout or the domain string fails here
/// even if every helper-vs-helper test still agrees with itself.
#[test]
fn epoch_hash_for_root_matches_a_hand_built_merkle_tree() {
    let registry = KeyRegistry::bootstrap(5, 2, 4);
    // Enough elements for a multi-level tree (3 leaves), inserted in
    // descending id order to prove the digest canonicalizes.
    let mut elements: Vec<Element> = (0..20u64)
        .rev()
        .map(|i| {
            let client = (i % 4) as usize;
            let keys = registry.lookup(ProcessId::client(client)).unwrap();
            Element::new(&keys, ElementId::new(client as u32, i), 100 + i as u32, i)
        })
        .collect();

    let mut canonical = elements.clone();
    canonical.sort_by_key(|e| e.id);
    let leaves: Vec<Vec<u8>> = canonical
        .chunks(BATCH_CHUNK)
        .map(|chunk| {
            let mut leaf = Vec::with_capacity(chunk.len() * Element::PACKED_LEN);
            for e in chunk {
                leaf.extend_from_slice(&e.pack());
            }
            leaf
        })
        .collect();
    assert_eq!(leaves.len(), 3, "20 elements span three 8-element leaves");
    let hand_root = MerkleTree::build(&leaves).root();

    for epoch in [1u64, 7, 1_000] {
        assert_eq!(
            setchain::epoch_hash(epoch, &elements),
            setchain::epoch_hash_for_root(epoch, elements.len() as u64, &hand_root),
            "epoch {epoch}: signed digest diverged from the hand-built triple"
        );
    }
    assert_eq!(setchain::epoch_root(&elements), hand_root);
    // The triple binds epoch and count, not just the root.
    assert_ne!(
        setchain::epoch_hash_for_root(1, elements.len() as u64, &hand_root),
        setchain::epoch_hash_for_root(2, elements.len() as u64, &hand_root)
    );
    assert_ne!(
        setchain::epoch_hash_for_root(1, elements.len() as u64, &hand_root),
        setchain::epoch_hash_for_root(1, elements.len() as u64 - 1, &hand_root)
    );
    // And the order of arrival never matters: a different permutation of
    // the same elements commits to the same digest.
    elements.swap(0, 19);
    elements.swap(3, 11);
    assert_eq!(
        setchain::epoch_hash(7, &elements),
        setchain::epoch_hash(7, &canonical)
    );
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    let run_digest = |seed: u64| {
        let result = run(Algorithm::Hashchain, seed);
        (
            result.added,
            result.committed,
            result.deployment.server(0).state().epoch(),
        )
    };
    assert_eq!(run_digest(777), run_digest(777));
}
