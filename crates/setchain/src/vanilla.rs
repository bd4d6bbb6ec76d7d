//! Algorithm **Vanilla** (Appendix B of the paper): the baseline Setchain.
//!
//! Every client element is appended to the ledger as its own transaction, and
//! the valid elements of each ledger block form one epoch. Epoch-proofs are
//! appended to the ledger directly as transactions. Throughput and latency
//! are therefore those of the underlying ledger — this is the reference point
//! the other two algorithms improve on.
//!
//! Vanilla keeps no state of its own (no collector, no timers), so its steps
//! are free functions over the shared [`ServerCore`]; the add/get front door
//! that calls them lives in [`crate::app`].

use setchain_crypto::ProcessId;
use setchain_ledger::{Block, TxData};

use crate::byzantine::ServerByzMode;
use crate::config::SetchainConfig;
use crate::element::{Element, ElementId};
use crate::server::{Ctx, ServerCore};
use crate::tx::SetchainTx;

/// The step after `add(e)`'s precondition check: an accepted element becomes
/// its own ledger transaction (`L.append(e)`).
pub(crate) fn on_add(
    core: &mut ServerCore,
    element: Element,
    accepted: bool,
    ctx: &mut Ctx<'_, '_, '_>,
) {
    if accepted {
        let tx = SetchainTx::Element(element);
        core.trace.record_tx_assignment(element.id, tx.tx_id());
        ctx.append(tx);
    }
    if core.byz == ServerByzMode::InjectInvalidElements {
        // A Byzantine server also appends a fabricated element for every add
        // it handles, accepted or not; correct servers must filter it out
        // during block processing.
        let forged = Element::forged(
            ProcessId::client(0),
            ElementId::new(u32::MAX, element.id.seq()),
            200,
        );
        ctx.append(SetchainTx::Element(forged));
    }
}

/// ABCI `CheckTx` for Vanilla's two transaction kinds.
pub(crate) fn check_tx(config: &SetchainConfig, tx: &SetchainTx) -> bool {
    match tx {
        // Full element validation happens again at block processing time
        // (a Byzantine server may have gossiped anything); here we only
        // keep obviously malformed sizes out of the mempool.
        SetchainTx::Element(e) => e.size > 0 && e.size <= 1_000_000,
        // Structural check only; content is verified against history when
        // the proof is extracted from a block.
        SetchainTx::Proof(p) => config.is_server(p.signer),
        // Vanilla never uses batch transactions.
        SetchainTx::Compressed(_) | SetchainTx::HashBatch(_) => false,
    }
}

/// `new_block(B)`: the block's proofs are ingested and its valid,
/// not-yet-stamped elements form the next epoch.
pub(crate) fn finalize_block(
    core: &mut ServerCore,
    block: &Block<SetchainTx>,
    ctx: &mut Ctx<'_, '_, '_>,
) {
    let now = ctx.now();
    // 1. Extract the valid epoch-proofs of the block.
    for tx in &block.txs {
        if let SetchainTx::Proof(p) = tx {
            core.ingest_proof(*p, now, ctx);
        }
    }
    // 2. The valid elements of the block that are not yet in an epoch
    //    form the new epoch G.
    let elements: Vec<Element> = block
        .txs
        .iter()
        .filter_map(|tx| match tx {
            SetchainTx::Element(e) => Some(*e),
            _ => None,
        })
        .collect();
    let g = core.extract_epoch_candidates(&elements, true, ctx);
    // 3. epoch ← epoch + 1; history[epoch] ← G; append the epoch-proof.
    let (_, proof) = core.create_epoch(g, now, ctx);
    ctx.append(SetchainTx::Proof(proof));
}
