//! Algorithm **Vanilla** (Appendix B of the paper): the baseline Setchain.
//!
//! Every client element is appended to the ledger as its own transaction, and
//! the valid elements of each ledger block form one epoch. Epoch-proofs are
//! appended to the ledger directly as transactions. Throughput and latency
//! are therefore those of the underlying ledger — this is the reference point
//! the other two algorithms improve on.

use setchain_crypto::{KeyPair, KeyRegistry, ProcessId};
use setchain_ledger::{Application, Block};
use setchain_simnet::TimerToken;

use crate::app::SetchainApp;
use crate::byzantine::ServerByzMode;
use crate::config::SetchainConfig;
use crate::element::Element;
use crate::messages::SetchainMsg;
use crate::server::{Ctx, ServerCore, ServerStats};
use crate::state::SetchainState;
use crate::tx::SetchainTx;
use crate::Algorithm;

/// The Vanilla Setchain server application.
pub struct VanillaApp {
    core: ServerCore,
}

impl VanillaApp {
    /// Creates a Vanilla server.
    pub fn new(
        keys: KeyPair,
        registry: KeyRegistry,
        config: SetchainConfig,
        trace: crate::trace::SetchainTrace,
        byz: ServerByzMode,
    ) -> Self {
        VanillaApp {
            core: ServerCore::new(keys, registry, config, trace, byz),
        }
    }

    /// The Setchain state of this server (for `get`-style inspection).
    pub fn state(&self) -> &SetchainState {
        &self.core.state
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.core.stats
    }

    fn handle_add(&mut self, element: Element, ctx: &mut Ctx<'_, '_, '_>) {
        if self.core.accept_add(&element, ctx) {
            // L.append(e): the element becomes its own ledger transaction.
            let tx = SetchainTx::Element(element);
            self.core
                .trace
                .record_tx_assignment(element.id, setchain_ledger::TxData::tx_id(&tx));
            ctx.append(tx);
        }
        if self.core.byz == ServerByzMode::InjectInvalidElements {
            // A Byzantine server also appends a fabricated element; correct
            // servers must filter it out during block processing.
            let forged = Element::forged(
                ProcessId::client(0),
                crate::element::ElementId::new(u32::MAX, element.id.seq()),
                200,
            );
            ctx.append(SetchainTx::Element(forged));
        }
    }
}

impl SetchainApp for VanillaApp {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Vanilla
    }

    fn state(&self) -> &SetchainState {
        &self.core.state
    }

    fn stats(&self) -> ServerStats {
        self.core.stats
    }

    fn config(&self) -> &SetchainConfig {
        &self.core.config
    }

    fn core(&self) -> &ServerCore {
        &self.core
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Application for VanillaApp {
    type Tx = SetchainTx;
    type Msg = SetchainMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        // No timers to arm; a *restart* (retained state) probes peers for
        // epochs missed while down. A cold start is a no-op.
        self.core.maybe_request_catchup(ctx);
    }

    fn check_tx(&self, tx: &SetchainTx) -> bool {
        match tx {
            // Full element validation happens again at block processing time
            // (a Byzantine server may have gossiped anything); here we only
            // keep obviously malformed sizes out of the mempool.
            SetchainTx::Element(e) => e.size > 0 && e.size <= 1_000_000,
            // Structural check only; content is verified against history when
            // the proof is extracted from a block.
            SetchainTx::Proof(p) => {
                p.signer.is_server() && p.signer.server_index() < self.core.config.servers
            }
            // Vanilla never uses batch transactions.
            SetchainTx::Compressed(_) | SetchainTx::HashBatch(_) => false,
        }
    }

    fn finalize_block(&mut self, block: &Block<SetchainTx>, ctx: &mut Ctx<'_, '_, '_>) {
        let now = ctx.now();
        // 1. Extract the valid epoch-proofs of the block.
        for tx in &block.txs {
            if let SetchainTx::Proof(p) = tx {
                self.core.ingest_proof(*p, now, ctx);
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
        let g = self.core.extract_epoch_candidates(&elements, true, ctx);
        // 3. epoch ← epoch + 1; history[epoch] ← G; append the epoch-proof.
        let (_, proof) = self.core.create_epoch(g, now, ctx);
        ctx.append(SetchainTx::Proof(proof));
    }

    fn on_message(&mut self, from: ProcessId, msg: SetchainMsg, ctx: &mut Ctx<'_, '_, '_>) {
        match msg {
            SetchainMsg::Add(e) => {
                if self.core.admit_source(from, 1, ctx) {
                    self.handle_add(e, ctx);
                }
            }
            SetchainMsg::AddBatch(es) => {
                if self.core.admit_source(from, es.len() as u64, ctx) {
                    for e in es {
                        self.handle_add(e, ctx);
                    }
                }
            }
            SetchainMsg::BatchedAdd(batch) => {
                // The quota gate runs first: a shed batch costs zero root
                // verification.
                if !self
                    .core
                    .admit_source(from, batch.elements.len() as u64, ctx)
                {
                    return;
                }
                // One root-cache probe / MAC check authenticates the whole
                // batch; the per-element admission probes inside
                // `handle_add` then hit the warmed cache.
                let valid = self.core.verify_batched_add(&batch, ctx);
                if from.is_server() {
                    // Peer-forwarded envelope: verifying it warmed this
                    // server's caches; the elements themselves arrive as
                    // ledger transactions.
                } else if valid {
                    if self.core.byz != ServerByzMode::DropClientAdds {
                        self.core.gossip_batched_add(&batch, ctx);
                    }
                    for e in batch.elements {
                        self.handle_add(e, ctx);
                    }
                } else {
                    self.core.stats.adds_rejected_invalid += batch.elements.len() as u64;
                }
            }
            other => {
                let _ = self.core.handle_get(from, &other, ctx);
            }
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx<'_, '_, '_>) {
        // Vanilla has no collector and therefore no timers.
    }
}
