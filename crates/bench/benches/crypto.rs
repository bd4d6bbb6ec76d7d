//! Micro-benchmarks of the cryptographic substrate: hashing, signing,
//! verification, Merkle tree construction and Hashchain's batch hash. These
//! are what the host pays per operation. The simulation does not charge
//! them: it charges fixed, assumed costs (the constants in
//! `setchain::config` and `setchain_ledger::types::SIG_VERIFY_COST`), two
//! to three orders of magnitude above these.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use setchain::hashchain::batch_hash;
use setchain::make_epoch_proof;
use setchain_crypto::{
    merkle_root, sha256, sha256_backend, sha512, sign, sign_with, verify, HmacSha256Key,
    KeyRegistry, MerkleTree, ProcessId, SigVerifier, SigningKey,
};
use setchain_workload::ArbitrumWorkload;

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashing");
    for size in [439usize, 4 * 1024, 64 * 1024, 1024 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256(d))
        });
        group.bench_with_input(BenchmarkId::new("sha512", size), &data, |b, d| {
            b.iter(|| sha512(d))
        });
    }
    group.finish();
}

/// The signature stand-in over a 64-byte digest, the shape every epoch-proof
/// and hash-batch signs: `64B` through the precomputed schedules servers
/// hold (`SigningKey`, `SigVerifier`), `64B_one_shot` re-deriving the keys
/// per call like `sign` / `verify`.
fn bench_signatures(c: &mut Criterion) {
    let registry = KeyRegistry::bootstrap(1, 4, 1);
    let keys = registry.lookup(ProcessId::server(0)).unwrap();
    let key = SigningKey::new(&keys.secret);
    let msg = [0x42u8; 64];
    let sig = sign(&keys, &msg);
    let mut group = c.benchmark_group("sign");
    group.bench_function("64B", |b| b.iter(|| sign_with(&key, keys.id, &msg)));
    group.bench_function("64B_one_shot", |b| b.iter(|| sign(&keys, &msg)));
    group.finish();
    let mut verifier = SigVerifier::new();
    let mut group = c.benchmark_group("verify");
    group.bench_function("64B", |b| {
        b.iter(|| assert!(verifier.verify(&registry, &msg, &sig)))
    });
    group.bench_function("64B_one_shot", |b| {
        b.iter(|| assert!(verify(&registry, &msg, &sig)))
    });
    group.finish();
}

/// Hashchain's batch hash on a collector-64 batch carrying one epoch-proof:
/// the chunked SHA-256 root of the packed elements plus one SHA-512 over
/// the fixed header.
fn bench_batch_hash(c: &mut Criterion) {
    let registry = KeyRegistry::bootstrap(3, 1, 1);
    let mut workload = ArbitrumWorkload::for_client(&registry, ProcessId::client(0), 11);
    let elements = workload.take(64);
    let server = registry.lookup(ProcessId::server(0)).unwrap();
    let proofs = [make_epoch_proof(&server, 1, &elements[..8])];
    let mut group = c.benchmark_group("batch_hash");
    group.throughput(Throughput::Elements(elements.len() as u64));
    group.bench_function("c64", |b| b.iter(|| batch_hash(&elements, &proofs)));
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    for leaves in [128usize, 1024] {
        let items: Vec<Vec<u8>> = (0..leaves)
            .map(|i| format!("tx-{i}").into_bytes())
            .collect();
        group.bench_with_input(BenchmarkId::new("build", leaves), &items, |b, items| {
            b.iter(|| MerkleTree::build(items))
        });
        let tree = MerkleTree::build(&items);
        let proof = tree.prove(leaves / 2);
        let root = tree.root();
        group.bench_with_input(
            BenchmarkId::new("verify_proof", leaves),
            &items,
            |b, items| b.iter(|| proof.verify(&items[leaves / 2], &root)),
        );
    }
    group.finish();
}

/// The two shapes the Setchain servers spend their SHA-256 time on: the
/// element authenticator (one MAC over 20 bytes under a precomputed key — two
/// compressions) and the Merkle root over an epoch's packed 36-byte
/// elements. Prints the backend first, so every CI log names the path its
/// SHA-256 rows ran on.
fn bench_setchain_shapes(c: &mut Criterion) {
    println!("sha256 backend: {}", sha256_backend());

    let key = HmacSha256Key::new(&[0x42u8; 32]);
    let msg = [0x17u8; 20];
    let mut group = c.benchmark_group("hmac_sha256");
    group.bench_function("20B", |b| b.iter(|| key.mac(&msg)));
    group.finish();

    let packed: Vec<[u8; 36]> = (0..65_536usize)
        .map(|i| std::array::from_fn(|j| (i * 31 + j) as u8))
        .collect();
    let mut group = c.benchmark_group("merkle_root");
    group.throughput(Throughput::Elements(packed.len() as u64));
    group.bench_function("65536×36B", |b| b.iter(|| merkle_root(&packed)));
    group.finish();
}

criterion_group!(
    benches,
    bench_setchain_shapes,
    bench_hashing,
    bench_signatures,
    bench_batch_hash,
    bench_merkle
);
criterion_main!(benches);
