//! Workspace-wiring smoke tests: exercise at least one public entry point of
//! every crate in the workspace, through the crate-root re-exports, so a
//! broken re-export or inter-crate dependency fails tier-1 directly instead
//! of only breaking examples (which `cargo test` does not run).

use std::sync::Arc;

use setchain::collector::Batch;
use setchain::{Algorithm, Element, ElementId, SetchainConfig, SetchainState};
use setchain_compress::{compress_chunked_with, decompress_chunked};
use setchain_crypto::{sha256, sign, verify, KeyPair, KeyRegistry, MerkleTree, ProcessId};
use setchain_ledger::Mempool;
use setchain_simnet::{SimDuration, SimTime};
use setchain_workload::{analytical_throughput, AnalysisParams, ArbitrumWorkload};

#[test]
fn crypto_entry_points() {
    // Hashing is deterministic and input-sensitive.
    assert_eq!(sha256(b"setchain"), sha256(b"setchain"));
    assert_ne!(sha256(b"setchain").0, sha256(b"setchain!").0);

    // Sign with a registered key, verify through the registry.
    let registry = KeyRegistry::bootstrap(7, 4, 2);
    let pair = registry.lookup(ProcessId::server(0)).expect("server key");
    let sig = sign(&pair, b"epoch 1");
    assert!(verify(&registry, b"epoch 1", &sig));
    assert!(!verify(&registry, b"epoch 2", &sig));

    // Merkle proofs verify against the root.
    let items: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 8]).collect();
    let tree = MerkleTree::build(&items);
    let root = tree.root();
    assert!(tree.prove(3).verify(&items[3], &root));
}

#[test]
fn compress_entry_points() {
    let data: Vec<u8> = b"abcabcabcabc".repeat(16);
    let packed = compress_chunked_with(&data, 16 * 1024);
    assert!(packed.len() < data.len(), "repetitive input must shrink");
    assert_eq!(decompress_chunked(&packed).expect("roundtrip"), data);
}

#[test]
fn simnet_entry_points() {
    let t = SimTime::from_millis(1_500);
    assert!(t < SimTime::from_secs(2));
    assert_eq!(SimDuration::from_micros(2_000), SimDuration::from_millis(2));
}

#[test]
fn ledger_entry_points() {
    // SetchainTx implements the ledger's TxData trait: this exercises the
    // setchain <-> ledger boundary as well as the mempool API.
    let mempool: Mempool<setchain::SetchainTx> = Mempool::new(16, 4096);
    assert!(mempool.is_empty());
    assert_eq!(mempool.len(), 0);
}

#[test]
fn setchain_entry_points() {
    assert_eq!(Algorithm::ALL.len(), 3);
    assert_eq!(Algorithm::Hashchain.name(), "Hashchain");
    assert_eq!(Algorithm::Hashchain.index(), 2);
    assert!(!Algorithm::Vanilla.uses_collector());

    // One server type runs any of the three algorithms.
    let registry = KeyRegistry::bootstrap(5, 4, 1);
    let core = setchain::ServerCore::new(
        registry.lookup(ProcessId::server(0)).expect("server key"),
        registry,
        SetchainConfig::new(4),
        setchain::SetchainTrace::new(),
        setchain::ServerByzMode::Correct,
    );
    let server = setchain::SetchainServer::new(Algorithm::Compresschain, core, Default::default());
    assert_eq!(server.algorithm(), Algorithm::Compresschain);
    assert_eq!(server.state().epoch(), 0);

    // f + 1 proofs form a quorum, with f = ⌊(n−1)/2⌋.
    let config = SetchainConfig::new(10);
    assert_eq!(config.proof_quorum(), 5);

    // Epoch bookkeeping through the public state API.
    let keys = KeyPair::derive(ProcessId::client(0), 42);
    let elements: Vec<Element> = (0..4)
        .map(|i| Element::new(&keys, ElementId::new(0, i), 64, i))
        .collect();
    let mut state = SetchainState::new();
    let epoch = state.record_epoch(Arc::new(Batch::new(elements, Vec::new())));
    assert_eq!(epoch, 1);
    assert_eq!(state.epoch(), 1);
    assert!(state.check_consistent_sets());
    assert!(state.check_unique_epoch());
}

#[test]
fn workload_entry_points() {
    // The deployment builder carries run parameters and Setchain knobs
    // fluently, each into one struct.
    let builder = setchain_workload::Deployment::builder(Algorithm::Hashchain)
        .servers(10)
        .rate(100.0)
        .seed(3);
    assert_eq!(builder.scenario().sending_rate, 100.0);
    let config = builder.config();
    assert_eq!(config.servers, 10);
    assert_eq!(config.f, 4, "f = ⌊(n−1)/2⌋");
    assert_eq!(config.proof_quorum(), 5);

    // The Appendix D analytical model ranks the algorithms as the paper does.
    let params = AnalysisParams::default();
    let vanilla = analytical_throughput(Algorithm::Vanilla, &params);
    let compresschain = analytical_throughput(Algorithm::Compresschain, &params);
    let hashchain = analytical_throughput(Algorithm::Hashchain, &params);
    assert!(vanilla > 0.0);
    assert!(compresschain > vanilla);
    assert!(hashchain > compresschain);

    // The synthetic workload produces elements for a registered client.
    let registry = KeyRegistry::bootstrap(3, 1, 1);
    let mut workload = ArbitrumWorkload::for_client(&registry, ProcessId::client(0), 7);
    let elements: Vec<Element> = workload.take(3);
    assert_eq!(elements.len(), 3);
}

#[test]
fn bench_entry_points() {
    // The paper scorecard: its shape list and its one section that runs no
    // simulation.
    assert_eq!(setchain_bench::SHAPES.len(), 52);
    let analytic = setchain_bench::analytic_section();
    assert!(
        analytic.contains("| Hashchain c500 | 147857 | 147857 |"),
        "{analytic}"
    );
}
