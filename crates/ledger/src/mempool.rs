//! The mempool: unconfirmed transactions held after validation and before
//! inclusion in a block.
//!
//! CometBFT's mempool is an important element of the paper's evaluation: the
//! default 5 000-transaction cap had to be raised to 10 000 000 transactions
//! (or 2 GB) so that it would not be the bottleneck. This mempool reproduces
//! the same behaviour: FIFO order, de-duplication by transaction id,
//! rejection when either the count or the byte limit is hit, and removal of
//! transactions once they are committed.
//!
//! Committed ids are kept for good, so a Vanilla server ends a run holding
//! one id per element it ever saw. They are kept in a [`TxIdSet`], which
//! stores 64 consecutive ids as one bit word: a client's element ids
//! (`tag | client << 40 | seq`) are consecutive, and so are the signers of
//! one proof (`tag | epoch << 64 | signer`) or of one hash batch
//! (`tag | hash << 48 | signer`).

use std::collections::VecDeque;

use setchain_crypto::IdHashMap;

use crate::types::{TxData, TxId};

/// The ids `64·k … 64·k + 63`, split into two words so that an entry of
/// the table (key and bit word) is 24 bytes: a `u128` key is 16-byte
/// aligned and would pad it to 32.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Group {
    hi: u64,
    lo: u64,
}

/// The group holding `id` and `id`'s bit in that group's word.
#[inline]
fn split(id: TxId) -> (Group, u64) {
    let key = id.0 >> 6;
    let group = Group {
        hi: (key >> 64) as u64,
        lo: key as u64,
    };
    (group, 1 << (id.0 & 63))
}

/// An exact set of [`TxId`]s that stores each group of 64 consecutive ids
/// (`id >> 6`) as one 64-bit occupancy word.
///
/// Dense ids cost a bit each plus a 24-byte entry per 64: 480,000 Vanilla
/// ids from four clients fit in 7,500 entries. The worst case, no two ids
/// in one group, is one 24-byte entry per id, against 16 bytes in a
/// `HashSet<TxId>`; both tables add a control byte per slot.
/// Groups whose last id is removed are dropped, so the table holds only
/// non-empty words.
#[derive(Clone, Debug, Default)]
pub struct TxIdSet {
    /// Keyed through [`IdHasher`](setchain_crypto::IdHasher): ids come
    /// from the network (Vanilla's `check_tx` checks only the size), and
    /// one `seq` under many clients differs only above bit 40.
    groups: IdHashMap<Group, u64>,
    len: usize,
}

impl TxIdSet {
    /// Number of ids held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no id is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of table entries: groups holding at least one id.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// True if `id` is held.
    #[inline]
    pub fn contains(&self, id: &TxId) -> bool {
        let (group, bit) = split(*id);
        self.groups.get(&group).is_some_and(|word| word & bit != 0)
    }

    /// Adds `id`; returns whether it was new.
    #[inline]
    pub fn insert(&mut self, id: TxId) -> bool {
        let (group, bit) = split(id);
        let word = self.groups.entry(group).or_insert(0);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; returns whether it was held.
    #[inline]
    pub fn remove(&mut self, id: &TxId) -> bool {
        let (group, bit) = split(*id);
        let Some(word) = self.groups.get_mut(&group) else {
            return false;
        };
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        if *word == 0 {
            self.groups.remove(&group);
        }
        self.len -= 1;
        true
    }
}

/// Why a transaction was not accepted into the mempool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MempoolRejection {
    /// The transaction id is already present (or was already committed).
    Duplicate,
    /// The mempool already holds the maximum number of transactions.
    FullByCount,
    /// The mempool already holds the maximum number of bytes.
    FullByBytes,
}

/// FIFO mempool with count and byte limits.
#[derive(Debug)]
pub struct Mempool<T> {
    queue: VecDeque<T>,
    /// The ids of `queue`'s transactions, exactly: `push` refuses an id
    /// already held, so each queued transaction has its own.
    present: TxIdSet,
    committed: TxIdSet,
    bytes: usize,
    max_txs: usize,
    max_bytes: usize,
}

impl<T: TxData> Mempool<T> {
    /// Creates a mempool with the given limits.
    pub fn new(max_txs: usize, max_bytes: usize) -> Self {
        Mempool {
            queue: VecDeque::new(),
            present: TxIdSet::default(),
            committed: TxIdSet::default(),
            bytes: 0,
            max_txs,
            max_bytes,
        }
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no transaction is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total bytes of pending transactions.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// True if `id` is pending or already committed.
    pub fn contains(&self, id: &TxId) -> bool {
        self.present.contains(id) || self.committed.contains(id)
    }

    /// Attempts to add a transaction.
    pub fn push(&mut self, tx: T) -> Result<(), MempoolRejection> {
        let id = tx.tx_id();
        if self.present.contains(&id) || self.committed.contains(&id) {
            return Err(MempoolRejection::Duplicate);
        }
        if self.queue.len() >= self.max_txs {
            return Err(MempoolRejection::FullByCount);
        }
        let size = tx.wire_size();
        if self.bytes + size > self.max_bytes {
            return Err(MempoolRejection::FullByBytes);
        }
        self.bytes += size;
        self.present.insert(id);
        self.queue.push_back(tx);
        Ok(())
    }

    /// Collects (clones of) pending transactions, in FIFO order, up to
    /// `max_bytes` of payload. Used by the proposer to build a block; the
    /// transactions stay in the mempool until [`Mempool::remove_committed`]
    /// is called for the committed block.
    pub fn reap(&mut self, max_bytes: usize) -> Vec<T> {
        let mut out = Vec::new();
        let mut total = 0usize;
        for tx in &self.queue {
            let size = tx.wire_size();
            if total + size > max_bytes && !out.is_empty() {
                break;
            }
            if total + size > max_bytes {
                // A single oversized transaction still goes alone into a
                // block so it cannot wedge the mempool forever.
                out.push(tx.clone());
                break;
            }
            total += size;
            out.push(tx.clone());
        }
        out
    }

    /// Removes the given committed transactions from the mempool and records
    /// their ids so late gossip cannot re-introduce them.
    pub fn remove_committed<'a>(&mut self, ids: impl IntoIterator<Item = &'a TxId>) {
        let mut dequeued = false;
        for id in ids {
            self.committed.insert(*id);
            dequeued |= self.present.remove(id);
        }
        if !dequeued {
            return;
        }
        // `present` held exactly the queue's ids, so a queued transaction
        // whose id left it is one this block committed.
        let present = &self.present;
        let mut removed_bytes = 0usize;
        self.queue.retain(|tx| {
            if present.contains(&tx.tx_id()) {
                true
            } else {
                removed_bytes += tx.wire_size();
                false
            }
        });
        self.bytes -= removed_bytes;
    }

    /// Number of transactions that have been committed and recorded.
    pub fn committed_count(&self) -> usize {
        self.committed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Tx(u128, usize);

    impl TxData for Tx {
        fn tx_id(&self) -> TxId {
            TxId(self.0)
        }
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn push_and_reap_preserve_fifo_order() {
        let mut mp = Mempool::new(100, 10_000);
        for i in 0..10u128 {
            mp.push(Tx(i, 10)).unwrap();
        }
        assert_eq!(mp.len(), 10);
        assert_eq!(mp.bytes(), 100);
        let reaped = mp.reap(1_000);
        assert_eq!(reaped.len(), 10);
        assert_eq!(
            reaped.iter().map(|t| t.0).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        // Reap does not remove.
        assert_eq!(mp.len(), 10);
    }

    #[test]
    fn duplicate_rejected() {
        let mut mp = Mempool::new(100, 10_000);
        mp.push(Tx(1, 10)).unwrap();
        assert_eq!(mp.push(Tx(1, 10)), Err(MempoolRejection::Duplicate));
        assert!(mp.contains(&TxId(1)));
    }

    #[test]
    fn count_limit_enforced() {
        let mut mp = Mempool::new(2, 10_000);
        mp.push(Tx(1, 10)).unwrap();
        mp.push(Tx(2, 10)).unwrap();
        assert_eq!(mp.push(Tx(3, 10)), Err(MempoolRejection::FullByCount));
    }

    #[test]
    fn byte_limit_enforced() {
        let mut mp = Mempool::new(100, 25);
        mp.push(Tx(1, 10)).unwrap();
        mp.push(Tx(2, 10)).unwrap();
        assert_eq!(mp.push(Tx(3, 10)), Err(MempoolRejection::FullByBytes));
        assert_eq!(mp.len(), 2);
    }

    #[test]
    fn reap_respects_block_size() {
        let mut mp = Mempool::new(100, 10_000);
        for i in 0..10u128 {
            mp.push(Tx(i, 100)).unwrap();
        }
        let reaped = mp.reap(350);
        assert_eq!(reaped.len(), 3);
    }

    #[test]
    fn oversized_single_tx_still_reaped_alone() {
        let mut mp = Mempool::new(100, 1_000_000);
        mp.push(Tx(1, 5_000)).unwrap();
        mp.push(Tx(2, 10)).unwrap();
        let reaped = mp.reap(1_000);
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].0, 1);
    }

    #[test]
    fn remove_committed_blocks_reintroduction() {
        let mut mp = Mempool::new(100, 10_000);
        for i in 0..5u128 {
            mp.push(Tx(i, 10)).unwrap();
        }
        mp.remove_committed([TxId(1), TxId(3)].iter());
        assert_eq!(mp.len(), 3);
        assert_eq!(mp.bytes(), 30);
        assert_eq!(mp.committed_count(), 2);
        // Late gossip of a committed tx is rejected as a duplicate.
        assert_eq!(mp.push(Tx(1, 10)), Err(MempoolRejection::Duplicate));
        // Unknown tx is still accepted.
        mp.push(Tx(9, 10)).unwrap();
        assert_eq!(mp.len(), 4);
    }

    #[test]
    fn empty_remove_is_noop() {
        let mut mp: Mempool<Tx> = Mempool::new(10, 100);
        mp.remove_committed(std::iter::empty());
        assert!(mp.is_empty());
    }

    /// `setchain`'s tag for element transactions.
    const TAG_ELEMENT: u128 = 1 << 120;

    #[test]
    fn group_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<(Group, u64)>(), 24);
    }

    #[test]
    fn vanilla_ids_commit_into_one_entry_per_64() {
        const CLIENTS: u128 = 4;
        const PER_CLIENT: u128 = 120_000;
        const BLOCK: u128 = 750;
        let mut mp = Mempool::new(10_000, usize::MAX);
        // Four clients minting sequence numbers in step, committed a block
        // at a time, in the order they arrived.
        let ids: Vec<TxId> = (0..PER_CLIENT)
            .flat_map(|seq| (0..CLIENTS).map(move |c| TxId(TAG_ELEMENT | c << 40 | seq)))
            .collect();
        for block in ids.chunks(BLOCK as usize) {
            for id in block {
                mp.push(Tx(id.0, 100)).unwrap();
            }
            mp.remove_committed(block);
        }
        assert!(mp.is_empty());
        assert_eq!(mp.present.groups(), 0);
        assert_eq!(mp.committed_count() as u128, CLIENTS * PER_CLIENT);
        let bound = CLIENTS * PER_CLIENT.div_ceil(64) + CLIENTS;
        assert!(mp.committed.groups() as u128 <= bound);
    }

    /// Ids that differ only above bit 40 — one `seq` under 40,000 clients —
    /// must reach many bucket indices (a hash's low bits). Keyed through
    /// `FxHasher`, the low 16 bits of these ids' hashes take one value.
    #[test]
    fn same_seq_ids_spread_over_buckets() {
        use std::hash::BuildHasher;
        const IDS: u128 = 40_000;
        let set = TxIdSet::default();
        let buckets: std::collections::HashSet<u64> = (0..IDS)
            .map(|client| {
                let (group, _) = split(TxId(TAG_ELEMENT | client << 40 | 7));
                set.groups.hasher().hash_one(group) & 0xffff
            })
            .collect();
        // 40,000 uniform draws from 65,536 buckets reach ≈ 29,950.
        assert!(buckets.len() >= 25_000, "{} buckets", buckets.len());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        const MAX_TXS: usize = 12;
        const MAX_BYTES: usize = 200;

        /// Three 64-id groups above each base; the last base ends at
        /// `u128::MAX`.
        const BASES: [u128; 4] = [
            0,
            TAG_ELEMENT | 5 << 40,
            (4 << 120) | 0xdead_beef << 48,
            u128::MAX - 191,
        ];
        /// Offsets on either side of a group edge.
        const EDGES: [u128; 6] = [0, 63, 64, 127, 128, 191];

        fn id(base: u8, slot: u8) -> TxId {
            let offset = match slot {
                0..192 => u128::from(slot),
                _ => EDGES[usize::from(slot) % EDGES.len()],
            };
            TxId(BASES[usize::from(base) % BASES.len()] + offset)
        }

        /// The mempool as a `VecDeque` of `(id, size)` and the committed
        /// ids as a `BTreeSet`.
        #[derive(Default)]
        struct Model {
            queue: VecDeque<(u128, usize)>,
            committed: BTreeSet<u128>,
        }

        impl Model {
            fn contains(&self, id: u128) -> bool {
                self.committed.contains(&id) || self.queue.iter().any(|tx| tx.0 == id)
            }

            fn bytes(&self) -> usize {
                self.queue.iter().map(|tx| tx.1).sum()
            }

            fn push(&mut self, id: u128, size: usize) -> Result<(), MempoolRejection> {
                if self.contains(id) {
                    Err(MempoolRejection::Duplicate)
                } else if self.queue.len() >= MAX_TXS {
                    Err(MempoolRejection::FullByCount)
                } else if self.bytes() + size > MAX_BYTES {
                    Err(MempoolRejection::FullByBytes)
                } else {
                    self.queue.push_back((id, size));
                    Ok(())
                }
            }

            fn remove_committed(&mut self, ids: &[TxId]) {
                self.committed.extend(ids.iter().map(|id| id.0));
                let committed = &self.committed;
                self.queue.retain(|tx| !committed.contains(&tx.0));
            }

            /// The longest FIFO prefix within `max_bytes`, or the head
            /// alone when it is larger than that.
            fn reap(&self, max_bytes: usize) -> Vec<u128> {
                let mut total = 0;
                let fits = self
                    .queue
                    .iter()
                    .take_while(|tx| {
                        total += tx.1;
                        total <= max_bytes
                    })
                    .count();
                let n = if fits == 0 {
                    self.queue.len().min(1)
                } else {
                    fits
                };
                self.queue.iter().take(n).map(|tx| tx.0).collect()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Against the model: every `push` result, `contains` on the
            /// drawn id and its neighbours, `reap` order, `len`, `bytes`,
            /// and `committed_count` after every op.
            #[test]
            fn prop_matches_model(
                ops in proptest::collection::vec((0u8..8, 0u8..4, 0u8..200, 1usize..60), 1..80),
            ) {
                let mut mp = Mempool::new(MAX_TXS, MAX_BYTES);
                let mut model = Model::default();
                for (kind, base, slot, n) in ops {
                    let drawn = id(base, slot);
                    match kind {
                        // Pushes dominate, so the limits are reached.
                        0..4 => prop_assert_eq!(
                            mp.push(Tx(drawn.0, n)),
                            model.push(drawn.0, n)
                        ),
                        // A block: the queue's first `n % 5` transactions,
                        // the drawn id twice, and its slot under the next
                        // base, queued or not.
                        4 | 5 => {
                            let mut block: Vec<TxId> = model
                                .queue
                                .iter()
                                .take(n % 5)
                                .map(|tx| TxId(tx.0))
                                .collect();
                            block.extend([drawn, drawn, id(base.wrapping_add(1), slot)]);
                            mp.remove_committed(&block);
                            model.remove_committed(&block);
                        }
                        6 => {
                            let reaped: Vec<u128> =
                                mp.reap(4 * n).iter().map(|tx| tx.0).collect();
                            prop_assert_eq!(reaped, model.reap(4 * n));
                        }
                        _ => mp.remove_committed(std::iter::empty()),
                    }
                    for probe in [drawn.0, drawn.0.wrapping_sub(1), drawn.0.wrapping_add(1)] {
                        prop_assert_eq!(mp.contains(&TxId(probe)), model.contains(probe));
                    }
                    prop_assert_eq!(mp.len(), model.queue.len());
                    prop_assert_eq!(mp.present.len(), model.queue.len());
                    prop_assert_eq!(mp.bytes(), model.bytes());
                    prop_assert_eq!(mp.committed_count(), model.committed.len());
                }
                let queued: Vec<u128> = mp.reap(usize::MAX).iter().map(|tx| tx.0).collect();
                prop_assert_eq!(queued, model.reap(usize::MAX));
            }
        }
    }
}
