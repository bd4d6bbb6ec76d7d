//! Algorithm **Compresschain**: elements are collected into batches,
//! compressed, and each compressed batch is appended to the ledger as a
//! single transaction that becomes one epoch.
//!
//! Compared with Vanilla the ledger carries compressed batches instead of
//! individual elements, so each 0.5 MB block fits roughly `r ×` more element
//! bytes (with `r` the compression ratio, 2.5–3.5 in the paper). Epoch-proofs
//! travel inside the batches. The "Compresschain light" ablation of Fig. 2
//! (left) skips decompression and validation on delivery.

use setchain_crypto::{KeyPair, KeyRegistry, ProcessId};
use setchain_ledger::{Application, Block};
use setchain_simnet::TimerToken;

use crate::app::SetchainApp;
use crate::byzantine::ServerByzMode;
use crate::collector::Collector;
use crate::config::SetchainConfig;
use crate::element::Element;
use crate::messages::SetchainMsg;
use crate::server::{Ctx, ServerCore, ServerStats};
use crate::state::SetchainState;
use crate::tx::{CompressedBatch, SetchainTx};
use crate::Algorithm;

/// Timer token used for the collector timeout tick.
const COLLECTOR_TICK: TimerToken = 1;

/// Chunk length used when compressing batch bytes. Smaller than the codec's
/// 64 KiB default so that even a collector-64 batch (~28 KiB) splits into
/// chunks and a collector-256 batch fans out across several cores.
const BATCH_CHUNK_LEN: usize = 16 * 1024;

/// The Compresschain server application.
pub struct CompresschainApp {
    core: ServerCore,
    collector: Collector,
    next_batch_seq: u64,
    /// Sum of measured compression ratios and count, for reporting. Ratios
    /// are measured on the *shipped* chunked frame (headers included), so
    /// reported numbers match what actually occupies ledger blocks.
    ratio_sum: f64,
    ratio_count: u64,
    /// Reusable encode buffer the batch bytes are materialized into at
    /// flush time — no per-element or per-batch allocation.
    encode_buf: Vec<u8>,
    /// Reusable decode buffer delivered batch frames are decompressed into.
    decode_buf: Vec<u8>,
}

impl CompresschainApp {
    /// Creates a Compresschain server.
    pub fn new(
        keys: KeyPair,
        registry: KeyRegistry,
        config: SetchainConfig,
        trace: crate::trace::SetchainTrace,
        byz: ServerByzMode,
    ) -> Self {
        let collector = Collector::new(config.collector_limit);
        CompresschainApp {
            core: ServerCore::new(keys, registry, config, trace, byz),
            collector,
            next_batch_seq: 0,
            ratio_sum: 0.0,
            ratio_count: 0,
            encode_buf: Vec::new(),
            decode_buf: Vec::new(),
        }
    }

    /// The Setchain state of this server.
    pub fn state(&self) -> &SetchainState {
        &self.core.state
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.core.stats
    }

    /// Average compression ratio measured on flushed batches.
    pub fn average_ratio(&self) -> f64 {
        if self.ratio_count == 0 {
            return 1.0;
        }
        self.ratio_sum / self.ratio_count as f64
    }

    fn handle_add(&mut self, element: Element, ctx: &mut Ctx<'_, '_, '_>) {
        if self.core.accept_add(&element, ctx) {
            self.collector.add_element(element);
            self.maybe_flush(ctx);
        }
    }

    /// Flushes the collector when the size threshold is reached.
    fn maybe_flush(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        if self.collector.is_ready() {
            self.flush(ctx);
        }
    }

    /// `upon isReady(batch)`: compress the batch and append it to the ledger.
    fn flush(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        let batch = self.collector.flush(ctx.now());
        // Materialize the batch bytes once, into the reusable encode buffer,
        // and run the real compressor (chunked frame, chunk-parallel on
        // multicore hosts) so the transaction occupies a realistic number of
        // bytes in blocks.
        let raw_len = batch.encode_elements_into(&mut self.encode_buf);
        let payload = setchain_compress::compress_chunked_with(&self.encode_buf, BATCH_CHUNK_LEN);
        ctx.consume_cpu(self.core.config.costs.compress_cost(raw_len));
        // Proofs contribute their wire size but are high-entropy signatures;
        // account for them uncompressed. The compressed side charges the
        // whole shipped frame — chunk headers included — so reported ratios
        // match what the ledger actually carries.
        let proof_bytes = batch.proofs.len() * crate::proofs::EPOCH_PROOF_WIRE_LEN;
        let original_size = (raw_len + proof_bytes) as u32;
        let compressed_size = (payload.len() + proof_bytes) as u32;
        if raw_len > 0 {
            self.ratio_sum += raw_len as f64 / payload.len().max(1) as f64;
            self.ratio_count += 1;
        }
        self.core.stats.batches_flushed += 1;
        let tx = CompressedBatch {
            origin: self.core.id(),
            seq: self.next_batch_seq,
            elements: batch.elements,
            proofs: batch.proofs,
            payload: std::sync::Arc::new(payload),
            compressed_size,
            original_size,
        };
        self.next_batch_seq += 1;
        let tx = SetchainTx::Compressed(tx);
        let tx_id = setchain_ledger::TxData::tx_id(&tx);
        if let SetchainTx::Compressed(cb) = &tx {
            for e in &cb.elements {
                self.core.trace.record_tx_assignment(e.id, tx_id);
            }
        }
        ctx.append(tx);
    }
}

impl SetchainApp for CompresschainApp {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Compresschain
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

impl Application for CompresschainApp {
    type Tx = SetchainTx;
    type Msg = SetchainMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        ctx.set_app_timer(self.core.config.collector_timeout, COLLECTOR_TICK);
        // After a restart (retained state) probe peers for missed epochs;
        // a cold start is a no-op.
        self.core.maybe_request_catchup(ctx);
    }

    fn check_tx(&self, tx: &SetchainTx) -> bool {
        match tx {
            SetchainTx::Compressed(b) => {
                b.origin.is_server() && b.origin.server_index() < self.core.config.servers
            }
            _ => false,
        }
    }

    fn finalize_block(&mut self, block: &Block<SetchainTx>, ctx: &mut Ctx<'_, '_, '_>) {
        let now = ctx.now();
        let validate = self.core.config.decompress_validate;
        for tx in &block.txs {
            let SetchainTx::Compressed(cb) = tx else {
                continue;
            };
            if validate {
                // Decompress(B[i]) — charged as CPU time against the original
                // (uncompressed) batch size.
                ctx.consume_cpu(
                    self.core
                        .config
                        .costs
                        .decompress_cost(cb.original_size as usize),
                );
                // ...and performed for real on peer batches: the chunked
                // frame decompresses chunk-parallel and the recovered byte
                // count must equal the batch's declared element bytes. The
                // origin skips its own frame — it built it from bytes it
                // already holds. "Compresschain light" skips all of this.
                if cb.origin != self.core.id() {
                    self.core.stats.batches_decompressed += 1;
                    let proof_bytes = cb.proofs.len() * crate::proofs::EPOCH_PROOF_WIRE_LEN;
                    let ok = (cb.original_size as usize)
                        .checked_sub(proof_bytes)
                        .is_some_and(|element_bytes| {
                            setchain_compress::decompress_chunked_into(
                                &cb.payload,
                                &mut self.decode_buf,
                            ) == Ok(element_bytes)
                        });
                    if !ok {
                        // Any server can put any bytes on the ledger: an
                        // undecodable frame is an invalid batch, skipped by
                        // every correct server alike.
                        self.core.stats.batch_decompress_failures += 1;
                        continue;
                    }
                }
            }
            // `if batch_original = ∅ then continue`
            if cb.elements.is_empty() && cb.proofs.is_empty() {
                continue;
            }
            // Valid epoch-proofs of the batch.
            for p in &cb.proofs {
                self.core.ingest_proof(*p, now, ctx);
            }
            // G: valid elements not yet in an epoch.
            let g = self
                .core
                .extract_epoch_candidates(&cb.elements, validate, ctx);
            let (_, proof) = self.core.create_epoch(g, now, ctx);
            // The epoch-proof goes back through the collector.
            self.collector.add_proof(proof);
            self.maybe_flush(ctx);
        }
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
                    // server's caches; the elements themselves arrive in
                    // compressed batches, whose delivery-time validation
                    // is then pure cache hits.
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

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, '_, '_>) {
        if token == COLLECTOR_TICK {
            if self
                .collector
                .is_timed_out(ctx.now(), self.core.config.collector_timeout)
            {
                self.flush(ctx);
            }
            ctx.set_app_timer(self.core.config.collector_timeout, COLLECTOR_TICK);
        }
    }
}
