//! Block-based ledger substrate: a Tendermint/CometBFT-style BFT
//! state-machine-replication engine running on the `setchain-simnet`
//! simulator.
//!
//! The Setchain algorithms in the paper are built on top of CometBFT v0.38
//! through its ABCI interface and only rely on three ledger properties
//! (Section 2, Properties 9–11):
//!
//! 1. **Ledger-Add-Eventual-Notify** — a transaction appended by a correct
//!    server is eventually included in a final block and every correct server
//!    is notified of that block.
//! 2. **Ledger-Consistent-Notification** — all correct servers are notified of
//!    the same blocks in the same order.
//! 3. **Notification-Implies-Append** — a notified transaction was appended by
//!    some server.
//!
//! This crate provides those guarantees with a faithful (if simplified)
//! Tendermint consensus: rotating proposers, prevote/precommit rounds with
//! 2f+1 quorums, a gossiped mempool with CometBFT's size limits, a
//! fixed block interval, a configurable block size, commit certificates, and
//! catch-up block sync. The application hook mirrors ABCI's `CheckTx` /
//! `FinalizeBlock` (plus peer-to-peer application messages, which Hashchain
//! needs for hash reversal).
//!
//! Fault injection: validators can be configured with [`ByzMode`] behaviours
//! (silence, equivocation, vote withholding) to exercise the f < n/3 fault
//! tolerance in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod byzantine;
pub mod mempool;
pub mod messages;
pub mod node;
pub mod trace;
pub mod types;

pub use app::{AppCtx, Application};
pub use byzantine::ByzMode;
pub use mempool::{Mempool, MempoolRejection};
pub use messages::NetMsg;
pub use node::{LedgerNode, NodeStats, APP_TIMER_BASE};
pub use trace::{BlockSummary, LedgerTrace};
pub use types::{Block, BlockId, LedgerConfig, TxData, TxId};
