//! Byzantine behaviours for Setchain servers (application level).
//!
//! These are distinct from the ledger-level [`setchain_ledger::ByzMode`]
//! faults: a Setchain server can follow the consensus protocol perfectly and
//! still misbehave at the application layer — refusing to serve batch
//! contents (the attack Hashchain's `f + 1` consolidation rule defends
//! against), injecting invalid elements into the ledger, or signing bogus
//! epoch-proofs.

use serde::{Deserialize, Serialize};

/// Application-level behaviour of a Setchain server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerByzMode {
    /// Follows the algorithm.
    #[default]
    Correct,
    /// Hashchain only: appends hash-batches but never answers
    /// `Request_batch`, so other servers cannot recover its batches.
    RefuseBatchService,
    /// Submits a forged (unauthenticated) element next to every add it
    /// handles, alongside valid behaviour, under all three algorithms:
    /// Vanilla appends it as its own transaction, Compresschain and
    /// Hashchain batch it with the elements they admitted. Correct servers
    /// must filter it out when they process the block or batch.
    InjectInvalidElements,
    /// Produces epoch-proofs with invalid signatures; correct servers and
    /// clients must reject them.
    ForgeProofs,
    /// Ignores client `add` requests entirely (but keeps participating in the
    /// protocol). Clients talking only to this server never see their
    /// elements; the paper's answer is to retry with another server.
    DropClientAdds,
}

impl ServerByzMode {
    /// True for any behaviour other than [`ServerByzMode::Correct`].
    pub fn is_faulty(&self) -> bool {
        !matches!(self, ServerByzMode::Correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(!ServerByzMode::Correct.is_faulty());
        assert!(ServerByzMode::RefuseBatchService.is_faulty());
        assert!(ServerByzMode::InjectInvalidElements.is_faulty());
        assert!(ServerByzMode::ForgeProofs.is_faulty());
        assert!(ServerByzMode::DropClientAdds.is_faulty());
        assert_eq!(ServerByzMode::default(), ServerByzMode::Correct);
    }
}
