//! The variant-agnostic API matrix test: the *same* scripted client session
//! runs against all three Setchain algorithms — one `SetchainServer` type,
//! the algorithm a constructor argument — and every variant must expose the
//! same distributed object — the
//! identical committed element set, the same confirmed client adds, and
//! verified epochs for all of them.
//!
//! This is the executable form of the paper's framing: Vanilla,
//! Compresschain and Hashchain are three implementations of *one* Setchain,
//! differing in throughput, never in semantics.

use std::collections::BTreeSet;

use setchain::{Algorithm, AuthMode, ElementId};
use setchain_simnet::SimTime;
use setchain_workload::{Deployment, SessionOutcome};

const SIM_SECS: u64 = 30;

/// What one variant produced for the shared script.
struct VariantRun {
    algorithm: Algorithm,
    /// Ids committed into epochs by server 0 (background load + session).
    committed: BTreeSet<ElementId>,
    /// The session's add receipts.
    session_ids: BTreeSet<ElementId>,
    /// The session's typed outcome.
    outcome: SessionOutcome,
}

/// Runs the identical scripted session against one algorithm. Nothing in
/// this function names a variant: the algorithm arrives as data and is
/// resolved once, inside `SetchainServer::new`.
///
/// Under [`AuthMode::BatchRoot`] the injection clients seal every tick into
/// one root-MACed batch, and the session submits its five adds as a single
/// Merkle-batched `add_batch` instead of five per-element `add`s.
fn drive(algorithm: Algorithm, auth: AuthMode) -> VariantRun {
    let mut deployment = Deployment::builder(algorithm)
        .label(format!("api matrix {algorithm}"))
        .servers(4)
        .rate(200.0)
        .collector(25)
        .injection_secs(4)
        .max_run_secs(SIM_SECS)
        .auth_mode(auth)
        .seed(99)
        .build();

    let mut session = deployment.client_session(400, 0xAB1E);
    let session_ids: BTreeSet<ElementId> = match auth {
        AuthMode::BatchRoot => {
            let receipt = session.add_batch(
                SimTime::from_millis(700),
                0,
                (0..5u64).map(|i| (438, 77 + i)),
            );
            receipt.ids.iter().copied().collect()
        }
        _ => (0..5)
            .map(|i| {
                session
                    .add(
                        SimTime::from_millis(700 + i * 120),
                        (i % 4) as usize,
                        438,
                        77 + i,
                    )
                    .id
            })
            .collect(),
    };
    session.get(SimTime::from_secs(22), 3);
    session.get_epochs(SimTime::from_secs(23), 3, 1..=30);
    session.install(&mut deployment);

    deployment.sim.run_until(SimTime::from_secs(SIM_SECS));

    // Collect the committed element set through the trait-backed handle.
    let state = deployment.server(0).state();
    let committed: BTreeSet<ElementId> = (1..=state.epoch())
        .flat_map(|e| {
            state
                .epoch_elements(e)
                .expect("epoch in range")
                .iter()
                .map(|el| el.id)
                .collect::<Vec<_>>()
        })
        .collect();

    // The handle reports the algorithm it actually runs.
    for i in 0..4 {
        assert_eq!(deployment.server(i).algorithm(), algorithm);
        assert_eq!(deployment.server(i).core().config.servers, 4);
    }

    let outcome = session.outcome(&deployment);
    VariantRun {
        algorithm,
        committed,
        session_ids,
        outcome,
    }
}

#[test]
fn same_session_same_object_across_all_three_variants() {
    check_matrix(AuthMode::PerElement);
}

/// The same matrix under batch-root authentication: one MAC per injected
/// batch instead of per-element verification must not change the object —
/// all three variants still commit the identical element set, and the
/// session's Merkle-batched adds are all confirmed.
#[test]
fn same_session_same_object_under_batch_root_authentication() {
    check_matrix(AuthMode::BatchRoot);
}

fn check_matrix(auth: AuthMode) {
    let runs: Vec<VariantRun> = Algorithm::ALL
        .into_iter()
        .map(|algorithm| drive(algorithm, auth))
        .collect();

    for run in &runs {
        let algorithm = run.algorithm;
        // Liveness: the deployment committed real work and every one of the
        // session's adds reached an epoch.
        assert!(
            run.committed.len() > 500,
            "{algorithm}: committed too little ({})",
            run.committed.len()
        );
        assert!(
            run.session_ids.is_subset(&run.committed),
            "{algorithm}: session adds missing from committed epochs"
        );
        // The session observed the object through a single server: a state
        // summary, verified epochs, and confirmation of all five adds.
        assert_eq!(run.outcome.snapshots.len(), 1, "{algorithm}");
        assert!(run.outcome.snapshots[0].snapshot.epochs_with_quorum > 0);
        assert!(
            run.outcome.verified_count() > 0,
            "{algorithm}: no epoch verified with f+1 proofs"
        );
        let expected: std::collections::HashSet<ElementId> =
            run.session_ids.iter().copied().collect();
        assert_eq!(
            run.outcome.confirmed_ids(),
            expected,
            "{algorithm}: confirmed adds differ from what the session sent"
        );
    }

    // The paper's claim, executable: all variants committed the *identical*
    // element set for the identical workload. (The partition into epochs
    // legitimately differs — Vanilla stamps per block, the batched
    // algorithms per batch — the *set* may not.)
    let reference = &runs[0];
    for other in &runs[1..] {
        assert_eq!(
            reference.committed, other.committed,
            "{} and {} disagree on the committed element set",
            reference.algorithm, other.algorithm
        );
    }
}
