//! Core ledger types: transactions, blocks and configuration.

use std::fmt::Debug;
use std::sync::Arc;

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
}

impl<T: TxData> Block<T> {
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
    /// Streams straight into one hasher with the same length framing as
    /// `framed_hash` (so the digest format is unchanged) without building a
    /// vector of byte strings first — this runs on every proposal receipt
    /// and block sync.
    pub fn id(&self) -> BlockId {
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

/// Maximum number of transactions held in a mempool (paper: 10 000 000).
pub const MEMPOOL_MAX_TXS: usize = 10_000_000;
/// Maximum total bytes held in a mempool (paper: 2 GB).
pub const MEMPOOL_MAX_BYTES: usize = 2 * 1024 * 1024 * 1024;
/// How often a node flushes its pending transaction gossip to peers.
pub const GOSSIP_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Round timeout: how long a validator waits in a round before moving to
/// the next one (covers silent/faulty proposers).
pub const ROUND_TIMEOUT: SimDuration = SimDuration::from_secs(4);

/// Configuration of the ledger (CometBFT stand-in).
///
/// Defaults follow the constants reported in the paper's evaluation: one
/// block roughly every 1.25 s (0.8 blocks/s) and a 0.5 MB block size. The
/// fields are the knobs a run varies; the mempool caps (the paper's 10
/// million transactions or 2 GB), the gossip interval and the round timeout
/// are fixed: [`MEMPOOL_MAX_TXS`], [`MEMPOOL_MAX_BYTES`], [`GOSSIP_INTERVAL`]
/// and [`ROUND_TIMEOUT`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LedgerConfig {
    /// Number of validators (the paper's `server_count`: 4, 7 or 10).
    pub validators: usize,
    /// Interval between the commit of one block and the proposal of the next.
    pub block_interval: SimDuration,
    /// Maximum total transaction bytes in a block (paper: 0.5 MB default,
    /// swept up to 128 MB in Fig. 2 right).
    pub max_block_bytes: usize,
    /// CPU time charged for verifying one signature (vote or certificate).
    pub sig_verify_cost: SimDuration,
    /// CPU time charged per 1 KiB of transaction data when validating a
    /// proposed block.
    pub block_validate_cost_per_kib: SimDuration,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            validators: 4,
            block_interval: SimDuration::from_millis(1250),
            max_block_bytes: 500_000,
            sig_verify_cost: SimDuration::from_micros(60),
            block_validate_cost_per_kib: SimDuration::from_micros(2),
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
        let b1 = Block {
            height: 1,
            proposer: ProcessId::server(0),
            proposed_at: SimTime::ZERO,
            txs: vec![DummyTx(1, 10), DummyTx(2, 20)].into(),
        };
        let mut b2 = b1.clone();
        b2.txs = [&b1.txs[..], &[DummyTx(3, 5)]].concat().into();
        let mut b3 = b1.clone();
        b3.height = 2;
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
        let b = Block {
            height: 9,
            proposer: ProcessId::server(2),
            proposed_at: SimTime::ZERO,
            txs: vec![DummyTx(11, 10), DummyTx(22, 20), DummyTx(33, 5)].into(),
        };
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
        let mk = |ids: &[u128]| Block {
            height: 1,
            proposer: ProcessId::server(0),
            proposed_at: SimTime::ZERO,
            txs: ids.iter().map(|&i| DummyTx(i, 1)).collect(),
        };
        assert_ne!(mk(&[1, 2]).id(), mk(&[2, 1]).id());
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
        assert_eq!(cfg.max_block_bytes, 500_000);
        assert_eq!(MEMPOOL_MAX_TXS, 10_000_000);
        assert!((cfg.block_interval.as_secs_f64() - 1.25).abs() < 1e-9);
    }
}
