//! Collector and batch-preparation micro-benchmarks: the per-batch work of
//! Compresschain (materialize + compress) versus Hashchain (hash only), which
//! is the design choice behind Hashchain's throughput advantage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setchain::hashchain::batch_hash;
use setchain::{Collector, Element};
use setchain_compress::compress_chunked_with;
use setchain_crypto::{KeyRegistry, ProcessId};
use setchain_simnet::SimTime;
use setchain_workload::ArbitrumWorkload;

fn elements(count: usize) -> Vec<Element> {
    let registry = KeyRegistry::bootstrap(3, 1, 1);
    let mut workload = ArbitrumWorkload::for_client(&registry, ProcessId::client(0), 11);
    workload.take(count)
}

fn bench_collector_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector_fill_and_flush");
    for limit in [100usize, 500] {
        let es = elements(limit);
        group.bench_with_input(BenchmarkId::new("fill_flush", limit), &es, |b, es| {
            b.iter(|| {
                let mut collector = Collector::new(es.len());
                for e in es {
                    collector.add_element(*e);
                }
                assert!(collector.is_ready());
                collector.flush(SimTime::ZERO)
            })
        });
    }
    group.finish();
}

fn bench_batch_preparation(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_preparation");
    group.sample_size(20);
    for limit in [100usize, 500] {
        let es = elements(limit);
        // Hashchain's per-batch work: hash the batch.
        group.bench_with_input(BenchmarkId::new("hashchain_hash", limit), &es, |b, es| {
            b.iter(|| batch_hash(es, &[]))
        });
        // Compresschain's per-batch work: materialize and compress into the
        // frame it ships (16 KiB chunks).
        group.bench_with_input(
            BenchmarkId::new("compresschain_compress", limit),
            &es,
            |b, es| {
                b.iter(|| {
                    let mut raw = Vec::new();
                    for e in es {
                        raw.extend_from_slice(&e.materialize());
                    }
                    compress_chunked_with(&raw, 16 * 1024)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_collector_fill, bench_batch_preparation);
criterion_main!(benches);
