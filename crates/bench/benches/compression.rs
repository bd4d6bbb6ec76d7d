//! Compression micro-benchmarks: what Compresschain pays per batch flush and
//! per batch delivery, for the two collector sizes of the paper. Every row
//! runs on one thread: the payload generator that builds a batch's bytes
//! (`materialize`) and the chunked frame that ships, with the chunk length
//! Compresschain servers use.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use setchain::Element;
use setchain_compress::{compress_chunked_with, decompress_chunked};
use setchain_crypto::{KeyRegistry, ProcessId};
use setchain_workload::ArbitrumWorkload;

/// Chunk length of Compresschain's batch frames.
const BATCH_CHUNK_LEN: usize = 16 * 1024;

fn batch_elements(collector: usize) -> Vec<Element> {
    let registry = KeyRegistry::bootstrap(3, 1, 1);
    let mut workload = ArbitrumWorkload::for_client(&registry, ProcessId::client(0), 7);
    workload.take(collector)
}

/// A batch's bytes, built the way a Compresschain flush builds them: every
/// element materialized into one reused buffer.
fn materialize_batch(elements: &[Element], out: &mut Vec<u8>) {
    out.clear();
    for e in elements {
        e.materialize_into(out);
    }
}

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("compresschain_batch");
    for collector in [100usize, 500] {
        let elements = batch_elements(collector);
        let mut raw = Vec::new();
        materialize_batch(&elements, &mut raw);
        let frame = compress_chunked_with(&raw, BATCH_CHUNK_LEN);
        let ratio = raw.len() as f64 / frame.len() as f64;
        println!(
            "collector={collector}: batch {} B -> {} B (ratio {:.2}, paper reports 2.5-3.5)",
            raw.len(),
            frame.len(),
            ratio
        );
        group.throughput(Throughput::Bytes(raw.len() as u64));
        let mut buf = Vec::with_capacity(raw.len());
        group.bench_with_input(
            BenchmarkId::new("materialize", collector),
            &elements,
            |b, e| b.iter(|| materialize_batch(e, &mut buf)),
        );
        group.bench_with_input(
            BenchmarkId::new("compress_chunked", collector),
            &raw,
            |b, d| b.iter(|| compress_chunked_with(d, BATCH_CHUNK_LEN)),
        );
        group.bench_with_input(
            BenchmarkId::new("decompress_chunked", collector),
            &frame,
            |b, d| b.iter(|| decompress_chunked(d).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_compression);
criterion_main!(benches);
