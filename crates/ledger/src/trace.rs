//! Shared instrumentation: records when transactions reach mempools and
//! blocks, which is what the paper's latency breakdown (Fig. 4: first
//! mempool, f+1 mempools, all mempools, ledger) is computed from.
//!
//! A [`LedgerTrace`] is an `Arc`-shared sink handed to every ledger node of a
//! run. It is written from the single simulation thread, so the mutex is
//! uncontended; `parking_lot` keeps the overhead negligible.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use setchain_crypto::ProcessId;
use setchain_simnet::SimTime;

use crate::types::TxId;

/// Summary of one committed block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockSummary {
    /// Block height.
    pub height: u64,
    /// Time the block was first committed by any correct node.
    pub committed_at: SimTime,
    /// Number of transactions.
    pub txs: usize,
    /// Total transaction payload bytes.
    pub bytes: usize,
    /// Proposer of the block.
    pub proposer: ProcessId,
}

#[derive(Default)]
struct TraceInner {
    /// For each tx: times at which it entered each validator's mempool.
    mempool_arrivals: HashMap<TxId, Vec<(ProcessId, SimTime)>>,
    /// For each tx: (height, time) of the first commit observed.
    committed: HashMap<TxId, (u64, SimTime)>,
    /// One summary per height (first commit observed wins).
    blocks: HashMap<u64, BlockSummary>,
}

/// Shared, thread-safe ledger instrumentation sink.
#[derive(Clone, Default)]
pub struct LedgerTrace {
    inner: Arc<Mutex<TraceInner>>,
    enabled: bool,
}

impl LedgerTrace {
    /// Creates an enabled trace.
    pub fn new() -> Self {
        LedgerTrace {
            inner: Arc::new(Mutex::new(TraceInner::default())),
            enabled: true,
        }
    }

    /// Creates a disabled trace: all recording calls are no-ops. Used by
    /// large throughput runs that do not need per-transaction latency data.
    pub fn disabled() -> Self {
        LedgerTrace {
            inner: Arc::new(Mutex::new(TraceInner::default())),
            enabled: false,
        }
    }

    /// Records that `tx` entered the mempool of `validator` at `at`.
    pub fn record_mempool_arrival(&self, tx: TxId, validator: ProcessId, at: SimTime) {
        if !self.enabled {
            return;
        }
        self.inner
            .lock()
            .mempool_arrivals
            .entry(tx)
            .or_default()
            .push((validator, at));
    }

    /// Records that `tx` was committed in the block at `height` at time `at`
    /// (only the first observation is kept).
    pub fn record_commit(&self, tx: TxId, height: u64, at: SimTime) {
        if !self.enabled {
            return;
        }
        self.inner
            .lock()
            .committed
            .entry(tx)
            .or_insert((height, at));
    }

    /// Records a committed block summary (first observation per height wins).
    pub fn record_block(&self, summary: BlockSummary) {
        if !self.enabled {
            return;
        }
        self.inner
            .lock()
            .blocks
            .entry(summary.height)
            .or_insert(summary);
    }

    /// Time the transaction first reached any mempool.
    pub fn first_mempool(&self, tx: &TxId) -> Option<SimTime> {
        self.inner
            .lock()
            .mempool_arrivals
            .get(tx)
            .and_then(|v| v.iter().map(|&(_, t)| t).min())
    }

    /// Time the transaction had reached at least `k` distinct mempools.
    pub fn kth_mempool(&self, tx: &TxId, k: usize) -> Option<SimTime> {
        let inner = self.inner.lock();
        let arrivals = inner.mempool_arrivals.get(tx)?;
        let mut times: Vec<SimTime> = {
            // Deduplicate per validator, keeping the earliest arrival.
            let mut per_validator: HashMap<ProcessId, SimTime> = HashMap::new();
            for &(v, t) in arrivals {
                per_validator
                    .entry(v)
                    .and_modify(|e| {
                        if t < *e {
                            *e = t;
                        }
                    })
                    .or_insert(t);
            }
            per_validator.values().copied().collect()
        };
        if times.len() < k {
            return None;
        }
        times.sort();
        Some(times[k - 1])
    }

    /// Time the transaction was included in a committed block.
    pub fn ledger_time(&self, tx: &TxId) -> Option<SimTime> {
        self.inner.lock().committed.get(tx).map(|&(_, t)| t)
    }

    /// Height of the block containing the transaction.
    pub fn ledger_height(&self, tx: &TxId) -> Option<u64> {
        self.inner.lock().committed.get(tx).map(|&(h, _)| h)
    }

    /// All block summaries in height order.
    pub fn blocks(&self) -> Vec<BlockSummary> {
        let inner = self.inner.lock();
        let mut out: Vec<BlockSummary> = inner.blocks.values().copied().collect();
        out.sort_by_key(|b| b.height);
        out
    }

    /// Observed block rate in blocks per second over the recorded window.
    pub fn block_rate(&self) -> f64 {
        let blocks = self.blocks();
        if blocks.len() < 2 {
            return 0.0;
        }
        let first = blocks.first().expect("non-empty").committed_at;
        let last = blocks.last().expect("non-empty").committed_at;
        let span = (last - first).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (blocks.len() - 1) as f64 / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn mempool_stage_queries() {
        let trace = LedgerTrace::new();
        let tx = TxId(1);
        trace.record_mempool_arrival(tx, ProcessId::server(0), t(10));
        trace.record_mempool_arrival(tx, ProcessId::server(1), t(30));
        trace.record_mempool_arrival(tx, ProcessId::server(2), t(20));
        // Duplicate arrival at a later time must not change the per-validator
        // earliest.
        trace.record_mempool_arrival(tx, ProcessId::server(0), t(50));
        assert_eq!(trace.first_mempool(&tx), Some(t(10)));
        assert_eq!(trace.kth_mempool(&tx, 2), Some(t(20)));
        assert_eq!(trace.kth_mempool(&tx, 3), Some(t(30)));
        assert_eq!(trace.kth_mempool(&tx, 4), None);
        assert_eq!(trace.first_mempool(&TxId(99)), None);
    }

    #[test]
    fn commit_and_block_queries() {
        let trace = LedgerTrace::new();
        let tx = TxId(7);
        trace.record_commit(tx, 3, t(100));
        trace.record_commit(tx, 4, t(200)); // later observation ignored
        assert_eq!(trace.ledger_time(&tx), Some(t(100)));
        assert_eq!(trace.ledger_height(&tx), Some(3));
        trace.record_block(BlockSummary {
            height: 1,
            committed_at: t(1000),
            txs: 5,
            bytes: 100,
            proposer: ProcessId::server(1),
        });
        trace.record_block(BlockSummary {
            height: 2,
            committed_at: t(2250),
            txs: 3,
            bytes: 60,
            proposer: ProcessId::server(2),
        });
        assert_eq!(trace.blocks().len(), 2);
        assert_eq!(trace.blocks()[0].height, 1);
        let rate = trace.block_rate();
        assert!((rate - 0.8).abs() < 1e-9, "rate={rate}");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let trace = LedgerTrace::disabled();
        trace.record_mempool_arrival(TxId(1), ProcessId::server(0), t(1));
        trace.record_commit(TxId(1), 1, t(1));
        trace.record_block(BlockSummary {
            height: 1,
            committed_at: t(1),
            txs: 0,
            bytes: 0,
            proposer: ProcessId::server(0),
        });
        assert_eq!(trace.first_mempool(&TxId(1)), None);
        assert_eq!(trace.ledger_time(&TxId(1)), None);
        assert!(trace.blocks().is_empty());
    }

    #[test]
    fn block_rate_degenerate_cases() {
        let trace = LedgerTrace::new();
        assert_eq!(trace.block_rate(), 0.0);
        trace.record_block(BlockSummary {
            height: 1,
            committed_at: t(1),
            txs: 0,
            bytes: 0,
            proposer: ProcessId::server(0),
        });
        assert_eq!(trace.block_rate(), 0.0);
    }
}
