//! Byzantine behaviours for ledger validators (fault injection).
//!
//! The ledger tolerates `f_ledger < n/3` faulty validators. These modes are
//! used by tests and robustness experiments to check that the ledger
//! properties (and therefore the Setchain properties built on them) survive
//! the tolerated number of faults.

use serde::{Deserialize, Serialize};

/// How a validator (mis)behaves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ByzMode {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Crashed / silent: never proposes, never votes, never gossips. The
    /// node stops it at its three `Process` entry points, `on_start` (after
    /// the application's own start hook: no node timer is armed),
    /// `on_message` and `on_timer`, and nowhere else.
    Silent,
    /// When acting as proposer, sends conflicting proposals to the two halves
    /// of the validator set (equivocation). Otherwise follows the protocol.
    EquivocatingProposer,
    /// Participates in proposals and prevotes but never precommits, slowing
    /// the quorum down without stopping it (as long as enough correct
    /// validators remain).
    WithholdPrecommit,
}

impl ByzMode {
    /// True for any behaviour other than [`ByzMode::Correct`].
    pub fn is_faulty(&self) -> bool {
        !matches!(self, ByzMode::Correct)
    }

    /// True if this validator should never send consensus messages.
    pub fn is_silent(&self) -> bool {
        matches!(self, ByzMode::Silent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(!ByzMode::Correct.is_faulty());
        assert!(ByzMode::Silent.is_faulty());
        assert!(ByzMode::Silent.is_silent());
        assert!(ByzMode::EquivocatingProposer.is_faulty());
        assert!(!ByzMode::EquivocatingProposer.is_silent());
        assert!(ByzMode::WithholdPrecommit.is_faulty());
        assert_eq!(ByzMode::default(), ByzMode::Correct);
    }
}
