//! The mempool's grouped id set against the `FxHashSet<TxId>` pair it
//! replaced, on the set work a server's mempool does: every transaction is
//! admitted once (dedup probe, then insert into the pending set), refused
//! once more as late gossip, and moved to the committed set a block at a
//! time. Four mempools run side by side, one per server, so four tables
//! compete for the cache as in a 4-server run.
//!
//! Three id streams: Vanilla elements (`tag | client << 40 | seq`, four
//! clients minting in step), which group 64 to an entry; the same-`seq`
//! stream (one `seq` under 40,000 clients), which puts every id in its own
//! group and is what an `FxHasher`-keyed table degrades on; and Hashchain
//! hash batches (`tag | hash << 48 | signer`, random hashes), one group per
//! hash.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use setchain_crypto::FxHashSet;
use setchain_ledger::mempool::TxIdSet;
use setchain_ledger::TxId;

const POOLS: usize = 4;
/// Transactions per committed block: `vanilla_n4`'s mean.
const BLOCK: usize = 750;
const CLIENTS: u128 = 4;
/// One `vanilla_n4` server's committed ids: 4 × 120,000.
const PER_CLIENT: u128 = 120_000;
const HOSTILE_IDS: u128 = 40_000;
const HASHES: u64 = 10_000;
const SIGNERS: u128 = 4;

const TAG_ELEMENT: u128 = 1 << 120;
const TAG_HASH_BATCH: u128 = 4 << 120;

/// A mempool's pending and committed sets behind one face, so both
/// containers run the same replay.
trait Sets: Default {
    /// The mempool's `push` dedup: true if `id` was new and is now pending.
    fn admit(&mut self, id: TxId) -> bool;
    /// Moves `id` from pending to committed.
    fn commit(&mut self, id: &TxId);
}

#[derive(Default)]
struct Grouped {
    present: TxIdSet,
    committed: TxIdSet,
}

impl Sets for Grouped {
    fn admit(&mut self, id: TxId) -> bool {
        !self.committed.contains(&id) && self.present.insert(id)
    }

    fn commit(&mut self, id: &TxId) {
        self.committed.insert(*id);
        self.present.remove(id);
    }
}

#[derive(Default)]
struct PerId {
    present: FxHashSet<TxId>,
    committed: FxHashSet<TxId>,
}

impl Sets for PerId {
    fn admit(&mut self, id: TxId) -> bool {
        !self.committed.contains(&id) && self.present.insert(id)
    }

    fn commit(&mut self, id: &TxId) {
        self.committed.insert(*id);
        self.present.remove(id);
    }
}

/// Runs `ids` through [`POOLS`] fresh mempools' sets a block at a time.
/// Returns the pools and how many ids were admitted.
fn replay<S: Sets>(ids: &[TxId]) -> ([S; POOLS], usize) {
    let mut pools: [S; POOLS] = std::array::from_fn(|_| S::default());
    let mut admitted = 0;
    for block in ids.chunks(BLOCK) {
        for pool in &mut pools {
            for id in block {
                admitted += usize::from(pool.admit(*id));
            }
            for id in block {
                admitted += usize::from(pool.admit(*id));
            }
            for id in block {
                pool.commit(id);
            }
        }
    }
    (pools, admitted)
}

/// Replays `ids` through the grouped sets once and checks what they hold:
/// every id committed exactly once, nothing pending, and at most
/// `max_groups` committed entries per pool.
fn assert_groups(ids: &[TxId], max_groups: usize) {
    let (pools, admitted) = replay::<Grouped>(ids);
    assert_eq!(admitted, POOLS * ids.len());
    for pool in &pools {
        assert_eq!(pool.committed.len(), ids.len());
        assert!(pool.present.is_empty());
        assert!(
            pool.committed.groups() <= max_groups,
            "{} entries for {} ids",
            pool.committed.groups(),
            ids.len()
        );
    }
}

/// SplitMix64: a fixed stream of well-spread hashes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run_row(c: &mut Criterion, name: &str, ids: &[TxId]) {
    let mut group = c.benchmark_group(name);
    group.throughput(Throughput::Elements((ids.len() * POOLS) as u64));
    group.bench_function("TxIdSet", |b| {
        b.iter(|| replay::<Grouped>(black_box(ids)).1)
    });
    group.bench_function("FxHashSet", |b| {
        b.iter(|| replay::<PerId>(black_box(ids)).1)
    });
    group.finish();
}

fn bench_mempool(c: &mut Criterion) {
    let vanilla: Vec<TxId> = (0..PER_CLIENT)
        .flat_map(|seq| (0..CLIENTS).map(move |c| TxId(TAG_ELEMENT | c << 40 | seq)))
        .collect();
    let bound = (CLIENTS * PER_CLIENT.div_ceil(64) + CLIENTS) as usize;
    assert_groups(&vanilla, bound);
    run_row(c, "mempool/vanilla_4x480k", &vanilla);

    let hostile: Vec<TxId> = (0..HOSTILE_IDS)
        .map(|client| TxId(TAG_ELEMENT | client << 40 | 7))
        .collect();
    assert_groups(&hostile, hostile.len());
    run_row(c, "mempool/same_seq_40k", &hostile);

    let mut state = 7;
    let hash_batches: Vec<TxId> = (0..HASHES)
        .flat_map(|_| {
            let hash = u128::from(splitmix(&mut state));
            (0..SIGNERS).map(move |signer| TxId(TAG_HASH_BATCH | hash << 48 | signer))
        })
        .collect();
    assert_groups(&hash_batches, HASHES as usize);
    run_row(c, "mempool/hash_batch_40k", &hash_batches);
}

criterion_group!(benches, bench_mempool);
criterion_main!(benches);
