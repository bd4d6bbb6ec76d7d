//! Core ledger types: transactions, blocks and configuration.

use std::any::Any;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use setchain_crypto::{Digest256, ProcessId, Sha256};
use setchain_simnet::{SimDuration, SimTime};

/// Identifier of a ledger transaction, unique within a run.
///
/// Applications compute it however they like (hash, structured id); the
/// ledger only uses it for mempool de-duplication and tracing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct TxId(pub u128);

/// A ledger transaction as seen by the consensus engine.
///
/// The engine is generic over the transaction type: it never inspects the
/// payload, it only needs an identifier for de-duplication and a wire size
/// for block packing and bandwidth modelling. This mirrors CometBFT, for
/// which transactions are opaque byte strings.
///
/// `Sync` because a block's transaction list is one shared allocation that
/// every validator holding the block reads (see [`Block::txs`]).
pub trait TxData: Clone + Debug + Send + Sync + 'static {
    /// Unique identifier of this transaction.
    fn tx_id(&self) -> TxId;
    /// Serialized size in bytes (used for block packing and bandwidth).
    fn wire_size(&self) -> usize;
}

/// Identifier of a proposed/committed block (hash over header + tx ids).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(pub Digest256);

/// A block of transactions.
///
/// Build one with [`Block::new`]. A clone shares the transaction list and
/// the host memo of what is derived from the block: its [`id`](Self::id)
/// and one application value (see [`Self::shared`]). Every validator holds
/// a clone of the block its proposer built, so the host derives each of
/// them once per run. The memo assumes the public fields no longer change
/// once it has been read; debug builds check every id read against a fresh
/// computation. A block with other contents is a new [`Block::new`].
#[derive(Clone, Debug)]
pub struct Block<T> {
    /// Height of the block (1-based; height 0 is the implicit genesis).
    pub height: u64,
    /// Validator that proposed the block.
    pub proposer: ProcessId,
    /// Simulated time at which the proposer created the block.
    pub proposed_at: SimTime,
    /// Transactions, in the proposer-chosen (and therefore total) order.
    ///
    /// Shared and immutable: the proposal fan-out, every validator's
    /// proposal store and committed chain, and block-sync responses all
    /// hold the one allocation the proposer made, so cloning a block is a
    /// refcount bump.
    pub txs: Arc<[T]>,
    /// What the host has derived from the block, once per run.
    memo: Arc<BlockMemo>,
}

/// The host's memo of one block, shared by all its clones: each value is
/// computed by the first reader and read by every later one.
#[derive(Default)]
struct BlockMemo {
    id: OnceLock<BlockId>,
    /// The application's value (see [`Block::shared`]).
    shared: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl Debug for BlockMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockMemo")
            .field("id", &self.id.get())
            .field("shared", &self.shared.get().is_some())
            .finish()
    }
}

impl<T: TxData> Block<T> {
    /// A block of `txs` at `height`, proposed by `proposer` at
    /// `proposed_at`, with an empty memo.
    pub fn new(height: u64, proposer: ProcessId, proposed_at: SimTime, txs: Arc<[T]>) -> Self {
        Block {
            height,
            proposer,
            proposed_at,
            txs,
            memo: Arc::default(),
        }
    }

    /// Number of transactions in the block (the paper's `|B|`).
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True if the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Total payload bytes of the block.
    pub fn payload_bytes(&self) -> usize {
        self.txs.iter().map(|t| t.wire_size()).sum()
    }

    /// Deterministic identifier: hash of height, proposer and the ordered
    /// transaction ids.
    ///
    /// Every validator reads it on proposal, receipt, commit and block
    /// sync; the host hashes once per block (the first read) and every
    /// clone reads the memo.
    pub fn id(&self) -> BlockId {
        if let Some(id) = self.memo.id.get() {
            debug_assert_eq!(*id, self.compute_id(), "a block id memo is stale");
            return *id;
        }
        *self.memo.id.get_or_init(|| self.compute_id())
    }

    /// The application's value derived from this block: built by `init` on
    /// the first call over any clone of the block, read by every later one.
    ///
    /// A host shortcut for what every validator derives from the block
    /// alike (Vanilla's epoch batch); whatever the modelled nodes pay for
    /// the work, they still charge themselves. A block holds one such
    /// value, so every caller must ask for the same `V`.
    ///
    /// # Panics
    ///
    /// If the block already holds a value of another type.
    pub fn shared<V: Any + Send + Sync>(&self, init: impl FnOnce() -> V) -> Arc<V> {
        let value = self.memo.shared.get_or_init(|| Arc::new(init()));
        Arc::clone(value)
            .downcast()
            .expect("a block's shared value has another type")
    }

    /// [`Self::id`], computed. Streams straight into one hasher with the
    /// same length framing as `framed_hash`, without building a vector of
    /// byte strings first.
    fn compute_id(&self) -> BlockId {
        fn frame(h: &mut Sha256, bytes: &[u8]) {
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(bytes);
        }
        let mut h = Sha256::new();
        frame(&mut h, &self.height.to_le_bytes());
        frame(&mut h, &self.proposer.0.to_le_bytes());
        for tx in self.txs.iter() {
            frame(&mut h, &tx.tx_id().0.to_le_bytes());
        }
        BlockId(h.finalize())
    }
}

/// The paper's 0.5 MB block: 524,288 bytes, the block capacity behind
/// Appendix D's throughput bounds (955 el/s for Vanilla) and the default of
/// [`LedgerConfig::max_block_bytes`].
pub const MAX_BLOCK_BYTES: usize = 512 * 1024;
/// Maximum number of transactions held in a mempool (paper: 10 000 000).
pub const MEMPOOL_MAX_TXS: usize = 10_000_000;
/// Maximum total bytes held in a mempool (paper: 2 GB).
pub const MEMPOOL_MAX_BYTES: usize = 2 * 1024 * 1024 * 1024;
/// How often a node flushes its pending transaction gossip to peers.
pub const GOSSIP_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Round timeout: how long a validator waits in a round before moving to
/// the next one (covers silent/faulty proposers).
pub const ROUND_TIMEOUT: SimDuration = SimDuration::from_secs(4);
/// Interval between the commit of one block and the proposal of the next:
/// 1.25 s, the paper's ~0.8 blocks/s.
pub const BLOCK_INTERVAL: SimDuration = SimDuration::from_millis(1250);
/// CPU time charged for verifying one signature: here a proposal, a vote
/// or each signature of a commit certificate, and in `setchain` an
/// epoch-proof or a hash-batch. Both crates run `SigningKey::verifies` and
/// charge this one value.
pub const SIG_VERIFY_COST: SimDuration = SimDuration::from_micros(60);
/// CPU time charged per whole KiB of transaction data when validating a
/// proposed block (`CheckTx` before the prevote).
pub const BLOCK_VALIDATE_COST_PER_KIB: SimDuration = SimDuration::from_micros(2);

/// Configuration of the ledger (CometBFT stand-in).
///
/// The fields are the knobs a run varies: the validator count and the
/// block size (the paper's 0.5 MB by default). Everything else is fixed:
/// the block interval, the mempool caps (the paper's 10 million
/// transactions or 2 GB), the gossip interval, the round timeout and the
/// modelled CPU costs: [`BLOCK_INTERVAL`], [`MEMPOOL_MAX_TXS`],
/// [`MEMPOOL_MAX_BYTES`], [`GOSSIP_INTERVAL`], [`ROUND_TIMEOUT`],
/// [`SIG_VERIFY_COST`] and [`BLOCK_VALIDATE_COST_PER_KIB`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LedgerConfig {
    /// Number of validators (the paper's `server_count`: 4, 7 or 10).
    pub validators: usize,
    /// Maximum total transaction bytes in a block (paper: 0.5 MB default,
    /// swept up to 128 MB in Fig. 2 right).
    pub max_block_bytes: usize,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            validators: 4,
            max_block_bytes: MAX_BLOCK_BYTES,
        }
    }
}

impl LedgerConfig {
    /// Configuration for `n` validators with the paper's defaults.
    pub fn with_validators(n: usize) -> Self {
        LedgerConfig {
            validators: n,
            ..Default::default()
        }
    }

    /// Maximum number of Byzantine validators tolerated by the consensus
    /// (`f_ledger < n/3`).
    pub fn max_faulty(&self) -> usize {
        (self.validators - 1) / 3
    }

    /// Size of a prevote/precommit quorum (`2 f_ledger + 1`).
    pub fn quorum(&self) -> usize {
        2 * self.max_faulty() + 1
    }

    /// Ids of all validators.
    pub fn validator_ids(&self) -> Vec<ProcessId> {
        (0..self.validators).map(ProcessId::server).collect()
    }

    /// The proposer for a given height and round (round-robin rotation).
    pub fn proposer(&self, height: u64, round: u32) -> ProcessId {
        ProcessId::server(((height + round as u64) % self.validators as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct DummyTx(u128, usize);

    impl TxData for DummyTx {
        fn tx_id(&self) -> TxId {
            TxId(self.0)
        }
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn block_id_changes_with_content() {
        let b1 = Block::new(
            1,
            ProcessId::server(0),
            SimTime::ZERO,
            vec![DummyTx(1, 10), DummyTx(2, 20)].into(),
        );
        let b2 = Block::new(
            b1.height,
            b1.proposer,
            b1.proposed_at,
            [&b1.txs[..], &[DummyTx(3, 5)]].concat().into(),
        );
        let b3 = Block::new(2, b1.proposer, b1.proposed_at, Arc::clone(&b1.txs));
        assert_ne!(b1.id(), b2.id());
        assert_ne!(b1.id(), b3.id());
        assert_eq!(b1.id(), b1.clone().id());
        assert_eq!(b1.len(), 2);
        assert!(!b1.is_empty());
        assert_eq!(b1.payload_bytes(), 30);
    }

    #[test]
    fn block_id_matches_framed_hash_format() {
        // The streaming implementation must keep producing the digest the
        // original `framed_hash`-based construction produced.
        let b = Block::new(
            9,
            ProcessId::server(2),
            SimTime::ZERO,
            vec![DummyTx(11, 10), DummyTx(22, 20), DummyTx(33, 5)].into(),
        );
        let mut parts: Vec<Vec<u8>> = vec![
            b.height.to_le_bytes().to_vec(),
            b.proposer.0.to_le_bytes().to_vec(),
        ];
        for tx in b.txs.iter() {
            parts.push(tx.tx_id().0.to_le_bytes().to_vec());
        }
        assert_eq!(b.id().0, setchain_crypto::framed_hash(&parts));
    }

    #[test]
    fn block_id_is_order_sensitive() {
        let mk = |ids: &[u128]| {
            Block::new(
                1,
                ProcessId::server(0),
                SimTime::ZERO,
                ids.iter().map(|&i| DummyTx(i, 1)).collect(),
            )
        };
        assert_ne!(mk(&[1, 2]).id(), mk(&[2, 1]).id());
    }

    #[test]
    fn clones_share_the_memo_and_new_blocks_start_empty() {
        let txs: Arc<[DummyTx]> = vec![DummyTx(1, 10), DummyTx(2, 20)].into();
        let block = Block::new(4, ProcessId::server(1), SimTime::ZERO, Arc::clone(&txs));
        let clone = block.clone();
        assert!(clone.memo.id.get().is_none());
        let id = block.id();
        assert_eq!(clone.memo.id.get(), Some(&id), "a clone reads the id memo");
        assert_eq!(id, block.compute_id());

        // The application value is built once, by the first caller.
        let built = std::sync::atomic::AtomicUsize::new(0);
        let sum = || {
            built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            txs.iter().map(|t| t.0).sum::<u128>()
        };
        let first = clone.shared(sum);
        let second = block.shared(sum);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((*first, built.into_inner()), (3, 1));

        // The same contents through `Block::new` start a memo of their own.
        let twin = Block::new(4, ProcessId::server(1), SimTime::ZERO, txs);
        assert!(twin.memo.id.get().is_none() && twin.memo.shared.get().is_none());
        assert_eq!(twin.id(), id);
        assert!(!Arc::ptr_eq(&twin.shared(|| 3u128), &first));
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn a_shared_value_of_another_type_panics() {
        let block = Block::new(
            1,
            ProcessId::server(0),
            SimTime::ZERO,
            Vec::<DummyTx>::new().into(),
        );
        block.shared(|| 1u32);
        block.shared(|| 1u64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale")]
    fn a_stale_id_memo_is_caught_in_debug_builds() {
        let mut block = Block::new(
            1,
            ProcessId::server(0),
            SimTime::ZERO,
            Vec::<DummyTx>::new().into(),
        );
        block.id();
        block.height = 2;
        block.id();
    }

    #[test]
    fn config_quorum_math() {
        for (n, f, q) in [(4, 1, 3), (7, 2, 5), (10, 3, 7)] {
            let cfg = LedgerConfig::with_validators(n);
            assert_eq!(cfg.max_faulty(), f, "n={n}");
            assert_eq!(cfg.quorum(), q, "n={n}");
            assert_eq!(cfg.validator_ids().len(), n);
        }
    }

    #[test]
    fn proposer_rotates() {
        let cfg = LedgerConfig::with_validators(4);
        assert_eq!(cfg.proposer(1, 0), ProcessId::server(1));
        assert_eq!(cfg.proposer(1, 1), ProcessId::server(2));
        assert_eq!(cfg.proposer(3, 1), ProcessId::server(0));
        assert_eq!(cfg.proposer(4, 0), ProcessId::server(0));
    }

    #[test]
    fn default_matches_paper_constants() {
        let cfg = LedgerConfig::default();
        assert_eq!(cfg.max_block_bytes, MAX_BLOCK_BYTES);
        assert_eq!(MEMPOOL_MAX_TXS, 10_000_000);
        assert!((BLOCK_INTERVAL.as_secs_f64() - 1.25).abs() < 1e-9);
    }
}
