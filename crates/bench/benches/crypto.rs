//! Micro-benchmarks of the cryptographic substrate: hashing, signing,
//! verification and Merkle tree construction. These are the per-operation
//! costs behind the `CostModel` used by the simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use setchain_crypto::{
    merkle_root, sha256, sha256_backend, sha512, sign, verify, HmacSha256Key, KeyRegistry,
    MerkleTree, ProcessId,
};

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

fn bench_signatures(c: &mut Criterion) {
    let registry = KeyRegistry::bootstrap(1, 4, 1);
    let keys = registry.lookup(ProcessId::server(0)).unwrap();
    let msg = vec![0x42u8; 64];
    let sig = sign(&keys, &msg);
    let mut group = c.benchmark_group("signatures");
    group.bench_function("sign_64B", |b| b.iter(|| sign(&keys, &msg)));
    group.bench_function("verify_64B", |b| b.iter(|| verify(&registry, &msg, &sig)));
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
    bench_merkle
);
criterion_main!(benches);
