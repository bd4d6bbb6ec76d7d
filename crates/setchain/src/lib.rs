//! Setchain: Byzantine-tolerant grow-only sets with epochs and epoch-proofs.
//!
//! This crate is the reproduction of the paper's primary contribution: three
//! algorithms that implement the Setchain distributed object on top of a
//! block-based ledger.
//!
//! * **Vanilla** ([`vanilla`]) — every element is appended to the ledger as
//!   its own transaction; the valid elements of each ledger block form an
//!   epoch (Appendix B of the paper).
//! * **Compresschain** ([`compresschain`]) — elements are collected into
//!   batches, compressed, and each compressed batch appended as a single
//!   ledger transaction that becomes an epoch.
//! * **Hashchain** ([`hashchain`]) — batches are hashed; only the fixed-size
//!   signed hash is appended to the ledger. A batch consolidates into an
//!   epoch once hash-batches from `f + 1` distinct servers are on the
//!   ledger, and batch contents are recovered from their origin server
//!   through the hash-reversal (`Request_batch`) service.
//!
//! All three maintain *epoch-proofs* — server signatures over
//! `Hash(epoch_number, epoch_elements)` — so that a light client talking to a
//! single (possibly Byzantine) server can verify an epoch with `f + 1`
//! consistent proofs ([`client::verify_epoch`]).
//!
//! They are one object with one step that differs — how a batch reaches the
//! ledger — and the code says so: [`SetchainServer`] is the only server
//! type. It writes the `add` / `get` front door once over the shared
//! [`ServerCore`] and keeps the per-algorithm state as a private variant;
//! the three modules above hold just the steps that differ.
//!
//! [`SetchainServer`] is an ABCI-style [`Application`](setchain_ledger::Application)
//! for the [`setchain-ledger`](setchain_ledger) substrate and runs inside the
//! deterministic [`setchain-simnet`](setchain_simnet) simulator. The
//! `setchain-workload` crate builds full deployments (servers + injection
//! clients + metrics) on top of this crate.
//!
//! # Example
//!
//! Epoch bookkeeping through the public state API:
//!
//! ```
//! use std::sync::Arc;
//!
//! use setchain::collector::Batch;
//! use setchain::{Algorithm, Element, ElementId, SetchainState};
//! use setchain_crypto::{KeyPair, ProcessId};
//!
//! let keys = KeyPair::derive(ProcessId::client(0), 42);
//! let elements: Vec<Element> = (0..3)
//!     .map(|i| Element::new(&keys, ElementId::new(0, i), 64, i))
//!     .collect();
//!
//! // Every epoch is a batch: its elements, rooted once.
//! let mut state = SetchainState::new();
//! let batch = Arc::new(Batch::new(elements, Vec::new()));
//! assert_eq!(state.record_epoch(batch), 1);
//! assert!(state.check_consistent_sets());
//! assert!(state.check_unique_epoch());
//! assert_eq!(Algorithm::ALL.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod app;
pub mod byzantine;
pub mod client;
pub mod collector;
pub mod compresschain;
pub mod config;
pub mod element;
pub mod hashchain;
pub mod idmap;
pub mod messages;
pub mod proofs;
pub mod quota;
pub mod server;
pub mod state;
pub mod trace;
pub mod tx;
pub mod vanilla;

pub use admission::AdmissionCache;
pub use app::SetchainServer;
pub use byzantine::ServerByzMode;
pub use client::{verify_epoch, EpochVerification, RETRY_AFTER_PER_MISSING_PROOF};
pub use collector::Collector;
pub use config::{AuthMode, QuotaConfig, SetchainConfig, StoreConfig};
pub use element::{Element, ElementGenerator, ElementId};
pub use hashchain::SharedBatchRegistry;
pub use idmap::IdMap;
pub use messages::{GetSnapshot, SetchainMsg};
pub use proofs::{
    epoch_hash, epoch_hash_for_root, epoch_root, make_epoch_proof, make_epoch_proof_with_key,
    prove_epoch_inclusion, ElementProof, EpochInclusionProof, EpochProof, BATCH_CHUNK,
};
pub use quota::{QuotaState, QuotaVerdict, PENDING_RETRY};
pub use server::{ServerCore, ServerStats};
pub use state::SetchainState;
pub use trace::SetchainTrace;
pub use tx::{CompressedBatch, HashBatch, SetchainTx};

/// The paper's three Setchain algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// One ledger transaction per element.
    Vanilla,
    /// One compressed batch per ledger transaction.
    Compresschain,
    /// One fixed-size hash-batch per ledger transaction, plus hash reversal.
    Hashchain,
}

impl Algorithm {
    /// All three algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::Vanilla,
        Algorithm::Compresschain,
        Algorithm::Hashchain,
    ];

    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Vanilla => "Vanilla",
            Algorithm::Compresschain => "Compresschain",
            Algorithm::Hashchain => "Hashchain",
        }
    }

    /// True for the batched algorithms (Compresschain, Hashchain), which
    /// collect elements before appending; Vanilla appends one ledger
    /// transaction per element and ignores the collector configuration.
    pub fn uses_collector(&self) -> bool {
        !matches!(self, Algorithm::Vanilla)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Vanilla.name(), "Vanilla");
        assert_eq!(Algorithm::Compresschain.to_string(), "Compresschain");
        assert_eq!(Algorithm::ALL.len(), 3);
    }
}
