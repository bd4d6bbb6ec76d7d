//! Wire messages exchanged by ledger nodes (consensus, mempool gossip,
//! block sync) and the application-level envelope.

use setchain_crypto::{ProcessId, Signature};
use setchain_simnet::Wire;

use crate::types::{Block, BlockId, TxData};

/// The two Tendermint voting phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VoteKind {
    /// First voting phase after a proposal.
    Prevote,
    /// Second voting phase; 2f+1 precommits commit the block.
    Precommit,
}

/// Messages carried by the simulated network between ledger nodes (and from
/// clients to the application running on a node).
#[derive(Clone, Debug)]
pub enum NetMsg<T, AM> {
    /// A proposer announces a block for a height/round.
    Proposal {
        /// Consensus height.
        height: u64,
        /// Consensus round within the height.
        round: u32,
        /// The proposed block.
        block: Block<T>,
        /// Proposer signature over the block id.
        signature: Signature,
    },
    /// A prevote or precommit for a block id.
    Vote {
        /// Which voting phase this vote belongs to.
        kind: VoteKind,
        /// Consensus height.
        height: u64,
        /// Consensus round.
        round: u32,
        /// Block being voted for.
        block_id: BlockId,
        /// The voting validator.
        voter: ProcessId,
        /// Voter signature over (kind, height, round, block id).
        signature: Signature,
    },
    /// Batched mempool gossip.
    TxGossip {
        /// Transactions not yet seen by the peer (best effort).
        txs: Vec<T>,
    },
    /// Request for a committed block (catch-up sync).
    BlockSyncRequest {
        /// Height of the requested block.
        height: u64,
    },
    /// Response carrying a committed block and its commit certificate
    /// (2f+1 precommit signatures).
    BlockSyncResponse {
        /// The committed block.
        block: Block<T>,
        /// Precommit signatures proving the commit.
        certificate: Vec<Signature>,
    },
    /// Application-level message (client requests, Hashchain batch exchange…).
    App(AM),
}

/// Approximate header overhead of consensus messages, in bytes.
const HEADER_BYTES: usize = 96;
/// Approximate size of a vote on the wire (header + id + signature).
const VOTE_BYTES: usize = 168;

impl<T, AM> Wire for NetMsg<T, AM>
where
    T: TxData,
    AM: Wire,
{
    fn wire_size(&self) -> usize {
        match self {
            NetMsg::Proposal { block, .. } => {
                HEADER_BYTES + 64 + block.payload_bytes() + block.len() * 8
            }
            NetMsg::Vote { .. } => VOTE_BYTES,
            NetMsg::TxGossip { txs } => {
                HEADER_BYTES + txs.iter().map(|t| t.wire_size()).sum::<usize>() + txs.len() * 8
            }
            NetMsg::BlockSyncRequest { .. } => HEADER_BYTES,
            NetMsg::BlockSyncResponse { block, certificate } => {
                HEADER_BYTES + 64 + block.payload_bytes() + block.len() * 8 + certificate.len() * 72
            }
            NetMsg::App(m) => m.wire_size(),
        }
    }
}

/// Bytes signed by a proposer for a proposal.
pub fn proposal_sign_bytes(height: u64, round: u32, block_id: &BlockId) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"proposal");
    out.extend_from_slice(&height.to_le_bytes());
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(block_id.0.as_bytes());
    out
}

/// Bytes signed by a validator for a vote.
pub fn vote_sign_bytes(kind: VoteKind, height: u64, round: u32, block_id: &BlockId) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(match kind {
        VoteKind::Prevote => b"prevote_",
        VoteKind::Precommit => b"precommit",
    });
    out.extend_from_slice(&height.to_le_bytes());
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(block_id.0.as_bytes());
    out
}

/// Bytes signed for a commit certificate entry (same as a precommit vote).
pub fn certificate_sign_bytes(height: u64, block_id: &BlockId) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    out.extend_from_slice(b"commit");
    out.extend_from_slice(&height.to_le_bytes());
    out.extend_from_slice(block_id.0.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain_crypto::sha256;
    use setchain_simnet::SimTime;

    use crate::types::TxId;

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

    #[derive(Clone, Debug)]
    struct AppMsg(usize);
    impl Wire for AppMsg {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    fn block() -> Block<Tx> {
        Block::new(
            3,
            ProcessId::server(1),
            SimTime::ZERO,
            vec![Tx(1, 100), Tx(2, 200)].into(),
        )
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let b = block();
        let sig = Signature::forged(ProcessId::server(1));
        let proposal: NetMsg<Tx, AppMsg> = NetMsg::Proposal {
            height: 3,
            round: 0,
            block: b.clone(),
            signature: sig,
        };
        // Pinned exactly: simulated bandwidth sets the schedule, so the size
        // must not move with the field types. Header 96 + signature 64 +
        // payload 300 + 8 per transaction.
        assert_eq!(proposal.wire_size(), 476);
        let vote: NetMsg<Tx, AppMsg> = NetMsg::Vote {
            kind: VoteKind::Prevote,
            height: 3,
            round: 0,
            block_id: b.id(),
            voter: ProcessId::server(0),
            signature: sig,
        };
        assert_eq!(vote.wire_size(), 168);
        let gossip: NetMsg<Tx, AppMsg> = NetMsg::TxGossip {
            txs: vec![Tx(1, 100)],
        };
        assert!(gossip.wire_size() >= 100);
        let app: NetMsg<Tx, AppMsg> = NetMsg::App(AppMsg(4242));
        assert_eq!(app.wire_size(), 4242);
        let req: NetMsg<Tx, AppMsg> = NetMsg::BlockSyncRequest { height: 1 };
        assert_eq!(req.wire_size(), 96);
        let resp: NetMsg<Tx, AppMsg> = NetMsg::BlockSyncResponse {
            block: b,
            certificate: vec![sig; 3],
        };
        // The proposal's 476 bytes plus 72 per certificate signature.
        assert_eq!(resp.wire_size(), 476 + 3 * 72);
    }

    #[test]
    fn sign_bytes_distinguish_contexts() {
        let id = BlockId(sha256(b"block"));
        let p = proposal_sign_bytes(1, 0, &id);
        let pv = vote_sign_bytes(VoteKind::Prevote, 1, 0, &id);
        let pc = vote_sign_bytes(VoteKind::Precommit, 1, 0, &id);
        let c = certificate_sign_bytes(1, &id);
        assert_ne!(p, pv);
        assert_ne!(pv, pc);
        assert_ne!(pc, c);
        // Height and round are bound.
        assert_ne!(
            vote_sign_bytes(VoteKind::Prevote, 1, 0, &id),
            vote_sign_bytes(VoteKind::Prevote, 2, 0, &id)
        );
        assert_ne!(
            vote_sign_bytes(VoteKind::Prevote, 1, 0, &id),
            vote_sign_bytes(VoteKind::Prevote, 1, 1, &id)
        );
    }
}
