//! The element index against the hash map it replaced, on the access patterns
//! a server puts it through. Three tables per server (`the_set`, two trace
//! maps) keep every id: each sees it once as an insert, arriving in
//! collector-sized batches, and about four more times as a probe. `the_set`
//! holds one stamped flag per id, so the honest stream also replays through
//! `IdMap<bool>`, the table the server holds, next to the 8-byte rows. The
//! fourth, the admission cache, holds a sliding window: each id is inserted,
//! probed, and removed again once it is stamped, a few seconds of ids later.
//!
//! `FxHashMap` is the container the servers used before `IdMap`, driven the
//! way they drove it (`reserve` per batch). The quota-shed stream is one
//! flooding client's admitted ids: runs of one tick's worth with the shed
//! ticks' ids missing between them, which `IdMap`'s pages keep out of its
//! fallback. The hostile stream — ids that differ only above bit 40 — is
//! what an `FxHasher`-keyed table degrades on and what `IdMap`'s fallback
//! must take in linear time. The sliding-window row fails if `IdMap`'s rows
//! keep more pages than the window covers.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use setchain::{ElementId, IdMap};
use setchain_crypto::FxHashMap;

const TABLES: usize = 3;
const IDS: u64 = 500_000;
const BATCH: usize = 64;
const PROBES: usize = 4;
/// The `FxHashMap` row is quadratic in this (80,000 ids take 11 s per
/// iteration), so the smoke job gets a stream it can finish.
const HOSTILE_IDS: u32 = 20_000;
/// `hash_flood`'s shed pattern: one 20 ms tick of a 12,500 el/s flood is
/// admitted, then the 2,000 el/s bucket sheds the next five.
const SHED_RUN: u64 = 250;
const SHED_STRIDE: u64 = 1_500;
/// Stamp lag of the sliding window, in ids per client: per client, more
/// than `hash_steady`'s whole window of ≈ 3 s × 5,000 el/s.
const LAG: u64 = 16_000;
/// Slots per `IdMap` page.
const PAGE: u64 = 64;

/// The two containers behind one face, so both run the same replay.
trait Table: Default {
    fn expect(&mut self, additional: usize);
    fn put(&mut self, id: ElementId, value: u64);
    fn probe(&self, id: &ElementId) -> Option<u64>;
    fn forget(&mut self, id: &ElementId);
}

impl Table for IdMap<u64> {
    fn expect(&mut self, _additional: usize) {}

    fn put(&mut self, id: ElementId, value: u64) {
        self.insert(id, value);
    }

    fn probe(&self, id: &ElementId) -> Option<u64> {
        self.get(id).copied()
    }

    fn forget(&mut self, id: &ElementId) {
        self.remove(id);
    }
}

/// `the_set`'s table: a stamped flag per id. Odd values stamp, so the probes
/// read both flags.
impl Table for IdMap<bool> {
    fn expect(&mut self, _additional: usize) {}

    fn put(&mut self, id: ElementId, value: u64) {
        self.insert(id, value & 1 == 1);
    }

    fn probe(&self, id: &ElementId) -> Option<u64> {
        self.get(id).map(|&stamped| u64::from(stamped))
    }

    fn forget(&mut self, id: &ElementId) {
        self.remove(id);
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

    fn forget(&mut self, id: &ElementId) {
        self.remove(id);
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

/// Streams the four clients' interleaved `ids` through one table the way the
/// admission cache sees them: a batch is inserted and probed [`PROBES`]
/// times, then the batch that arrived [`LAG`] ids per client earlier is
/// removed. Returns a checksum of the probes and the table.
fn slide<T: Table>(ids: &[ElementId]) -> (u64, T) {
    let window = 4 * LAG as usize;
    let mut table = T::default();
    let mut sum = 0u64;
    for (start, batch) in (0usize..).step_by(BATCH).zip(ids.chunks(BATCH)) {
        table.expect(batch.len());
        for id in batch {
            table.put(*id, id.0);
        }
        for _ in 0..PROBES {
            for id in batch {
                sum = sum.wrapping_add(table.probe(id).expect("inserted above"));
            }
        }
        if let Some(stamped) = start.checked_sub(window) {
            for id in &ids[stamped..stamped + batch.len()] {
                table.forget(id);
            }
        }
    }
    (sum, table)
}

/// How many of `ids` one `IdMap` files in its hash fallback.
fn fallback_len(ids: &[ElementId]) -> usize {
    let mut map = IdMap::default();
    for id in ids {
        map.insert(*id, id.0);
    }
    map.fallback_len()
}

fn bench_idmap(c: &mut Criterion) {
    // Four injection clients minting sequence numbers in step.
    let honest: Vec<ElementId> = (0..IDS)
        .map(|i| ElementId::new((i % 4) as u32, i / 4))
        .collect();
    assert_eq!(fallback_len(&honest), 0);
    let mut group = c.benchmark_group("idmap/honest_3x500k");
    group.throughput(Throughput::Elements(IDS * TABLES as u64));
    group.bench_function("IdMap", |b| {
        b.iter(|| replay::<IdMap<u64>>(black_box(&honest)))
    });
    group.bench_function("IdMap<bool> (the_set)", |b| {
        b.iter(|| replay::<IdMap<bool>>(black_box(&honest)))
    });
    group.bench_function("FxHashMap", |b| {
        b.iter(|| replay::<FxHashMap<ElementId, u64>>(black_box(&honest)))
    });
    group.finish();

    // The honest stream through the admission cache: every id removed at
    // stamp lag. Each client's row spans the window plus a partial page at
    // either edge; more slots than that means emptied pages are not reused.
    let (_, window) = slide::<IdMap<u64>>(&honest);
    assert_eq!(window.fallback_len(), 0);
    assert!(
        window.slots() as u64 <= 4 * (LAG + 2 * PAGE),
        "a {LAG}-id window per client kept {} slots",
        window.slots()
    );
    let mut group = c.benchmark_group("idmap/sliding_window_4x125k");
    group.throughput(Throughput::Elements(IDS));
    group.bench_function("IdMap", |b| {
        b.iter(|| slide::<IdMap<u64>>(black_box(&honest)).0)
    });
    group.bench_function("FxHashMap", |b| {
        b.iter(|| slide::<FxHashMap<ElementId, u64>>(black_box(&honest)).0)
    });
    group.finish();

    // One quota-shed client, as many admitted ids as the honest stream.
    let shed: Vec<ElementId> = (0..IDS)
        .map(|i| ElementId::new(0, i / SHED_RUN * SHED_STRIDE + i % SHED_RUN))
        .collect();
    assert_eq!(fallback_len(&shed), 0);
    let mut group = c.benchmark_group("idmap/quota_shed");
    group.throughput(Throughput::Elements(IDS * TABLES as u64));
    group.bench_function("IdMap", |b| {
        b.iter(|| replay::<IdMap<u64>>(black_box(&shed)))
    });
    group.bench_function("FxHashMap", |b| {
        b.iter(|| replay::<FxHashMap<ElementId, u64>>(black_box(&shed)))
    });
    group.finish();

    // Same `seq`, different client, far from any row: all fallback.
    let hostile: Vec<ElementId> = (0..HOSTILE_IDS)
        .map(|client| ElementId::new(client, 1 << 39))
        .collect();
    assert_eq!(fallback_len(&hostile), HOSTILE_IDS as usize);
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
