//! The element index against the hash map it replaced, on the access pattern
//! a server puts it through: four tables per server (`the_set`, the admission
//! cache, two trace maps) that each see every id once as an insert, arriving
//! in collector-sized batches, and about four more times as a probe.
//!
//! `FxHashMap` is the container the servers used before `IdMap`, driven the
//! way they drove it (`reserve` per batch). The hostile stream — ids that
//! differ only above bit 40 — is what an `FxHasher`-keyed table degrades on
//! and what `IdMap`'s fallback must take in linear time.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use setchain::{ElementId, IdMap};
use setchain_crypto::FxHashMap;

const TABLES: usize = 4;
const IDS: u64 = 500_000;
const BATCH: usize = 64;
const PROBES: usize = 4;
/// The `FxHashMap` row is quadratic in this (80,000 ids take 11 s per
/// iteration), so the smoke job gets a stream it can finish.
const HOSTILE_IDS: u32 = 20_000;

/// The two containers behind one face, so both run the same replay.
trait Table: Default {
    fn expect(&mut self, additional: usize);
    fn put(&mut self, id: ElementId, value: u64);
    fn probe(&self, id: &ElementId) -> Option<u64>;
}

impl Table for IdMap<u64> {
    fn expect(&mut self, _additional: usize) {}

    fn put(&mut self, id: ElementId, value: u64) {
        self.insert(id, value);
    }

    fn probe(&self, id: &ElementId) -> Option<u64> {
        self.get(id).copied()
    }
}

impl Table for FxHashMap<ElementId, u64> {
    fn expect(&mut self, additional: usize) {
        self.reserve(additional);
    }

    fn put(&mut self, id: ElementId, value: u64) {
        self.insert(id, value);
    }

    fn probe(&self, id: &ElementId) -> Option<u64> {
        self.get(id).copied()
    }
}

/// Inserts `ids` into [`TABLES`] fresh tables a batch at a time, then probes
/// every id [`PROBES`] times per table. Returns a checksum of the probes.
fn replay<T: Table>(ids: &[ElementId]) -> u64 {
    let mut tables: [T; TABLES] = std::array::from_fn(|_| T::default());
    for batch in ids.chunks(BATCH) {
        for table in &mut tables {
            table.expect(batch.len());
            for id in batch {
                table.put(*id, id.0);
            }
        }
    }
    let mut sum = 0u64;
    for _ in 0..PROBES {
        for id in ids {
            for table in &tables {
                sum = sum.wrapping_add(table.probe(id).expect("inserted above"));
            }
        }
    }
    sum
}

fn bench_idmap(c: &mut Criterion) {
    // Four injection clients minting sequence numbers in step.
    let honest: Vec<ElementId> = (0..IDS)
        .map(|i| ElementId::new((i % 4) as u32, i / 4))
        .collect();
    let mut group = c.benchmark_group("idmap/honest_4x500k");
    group.throughput(Throughput::Elements(IDS * TABLES as u64));
    group.bench_function("IdMap", |b| {
        b.iter(|| replay::<IdMap<u64>>(black_box(&honest)))
    });
    group.bench_function("FxHashMap", |b| {
        b.iter(|| replay::<FxHashMap<ElementId, u64>>(black_box(&honest)))
    });
    group.finish();

    // Same `seq`, different client, far from any row: all fallback.
    let hostile: Vec<ElementId> = (0..HOSTILE_IDS)
        .map(|client| ElementId::new(client, 1 << 39))
        .collect();
    let mut group = c.benchmark_group("idmap/same_seq_20k");
    group.throughput(Throughput::Elements(u64::from(HOSTILE_IDS) * TABLES as u64));
    group.bench_function("IdMap", |b| {
        b.iter(|| replay::<IdMap<u64>>(black_box(&hostile)))
    });
    group.bench_function("FxHashMap", |b| {
        b.iter(|| replay::<FxHashMap<ElementId, u64>>(black_box(&hostile)))
    });
    group.finish();
}

criterion_group!(benches, bench_idmap);
criterion_main!(benches);
