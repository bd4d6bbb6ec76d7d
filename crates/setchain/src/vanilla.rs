//! Algorithm **Vanilla** (Appendix B of the paper): the baseline Setchain.
//!
//! Every client element is appended to the ledger as its own transaction, and
//! the valid elements of each ledger block form one epoch. Epoch-proofs are
//! appended to the ledger directly as transactions. Throughput and latency
//! are therefore those of the underlying ledger — this is the reference point
//! the other two algorithms improve on.
//!
//! Vanilla keeps no state of its own (no batch, no timers), so its one step
//! that differs, `finalize_block`, is a free function over the shared
//! [`ServerCore`]. The add/get front door that appends each accepted element
//! as its own transaction lives in [`crate::app`], and the block's
//! epoch-proof leaves through `ServerCore::route_own_proof`, which
//! appends it as its own transaction too.
//!
//! In Vanilla the block *is* the batch. Every server commits the same
//! block, so the host builds the block's element list once, as a [`Batch`]
//! held in the block's memo ([`Block::shared`]), and every server cuts its
//! epoch through [`ServerCore::create_epoch`] with it, as a Hashchain or
//! Compresschain batch does: the host checks each authenticator and roots
//! the block once, and a block that becomes an epoch whole is one shared
//! list in every server's history. The block's `Proof` transactions go to
//! [`ServerCore::ingest_proof`] one by one, which verifies each proof once
//! per epoch batch. Each server still counts and pays its own validation,
//! verification, hashing and signing.

use setchain_ledger::Block;

use crate::collector::Batch;
use crate::element::Element;
use crate::server::{Ctx, ServerCore};
use crate::tx::SetchainTx;

/// `new_block(B)`: the block's proofs are ingested and its valid,
/// not-yet-stamped elements form the next epoch.
pub(crate) fn finalize_block(
    core: &mut ServerCore,
    block: &Block<SetchainTx>,
    ctx: &mut Ctx<'_, '_, '_>,
) {
    // 1. Extract the valid epoch-proofs of the block.
    for tx in block.txs.iter() {
        if let SetchainTx::Proof(p) = tx {
            core.ingest_proof(**p, ctx);
        }
    }
    // Every server processes the same block, so the block's element list
    // is built once per run, as a batch all of them share: its verdicts and
    // its root are computed once, and a whole-block epoch is that batch in
    // every history.
    let batch = block.shared(|| {
        // Exactly sized: the element list lives as long as the run.
        let mut elements = Vec::with_capacity(block_elements(block).count());
        elements.extend(block_elements(block));
        Batch::new(elements, Vec::new())
    });
    debug_assert!(
        batch.elements.iter().copied().eq(block_elements(block)),
        "a block's batch is its own elements"
    );
    // 2. The valid elements of the block that are not yet in an epoch
    //    form the new epoch G.
    // 3. epoch ← epoch + 1; history[epoch] ← G; append the epoch-proof.
    //    Vanilla has no batch, so the proof is its own transaction.
    let proof = core.create_epoch(&batch, ctx);
    core.route_own_proof(proof, ctx);
}

/// The elements of `block`, in block order.
pub(crate) fn block_elements(block: &Block<SetchainTx>) -> impl Iterator<Item = Element> + '_ {
    block.txs.iter().filter_map(|tx| match tx {
        SetchainTx::Element(e) => Some(*e),
        _ => None,
    })
}
