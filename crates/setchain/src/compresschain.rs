//! Algorithm **Compresschain**: elements are collected into batches,
//! compressed, and each compressed batch is appended to the ledger as a
//! single transaction that becomes one epoch.
//!
//! Compared with Vanilla the ledger carries compressed batches instead of
//! individual elements, so each 0.5 MB block fits roughly `r ×` more element
//! bytes (with `r` the compression ratio, 2.5–3.5 in the paper). Epoch-proofs
//! travel inside the batches. The "Compresschain light" ablation of Fig. 2
//! (left) skips decompression and validation on delivery.
//!
//! `Compresschain` holds what only this algorithm needs — the collector,
//! the codec buffers, the ratio accounting — and the steps that differ from
//! the other two; the add/get front door that drives it lives in
//! [`crate::app`].

use setchain_ledger::{Block, TxData};

use crate::collector::Collector;
use crate::config::SetchainConfig;
use crate::element::Element;
use crate::server::{Ctx, ServerCore};
use crate::tx::{CompressedBatch, SetchainTx};

/// Chunk length used when compressing batch bytes. Smaller than the codec's
/// 64 KiB default so that even a collector-64 batch (~28 KiB) splits into
/// chunks and a collector-256 batch fans out across several cores.
const BATCH_CHUNK_LEN: usize = 16 * 1024;

/// Compresschain's per-server state.
pub(crate) struct Compresschain {
    pub(crate) collector: Collector,
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

impl Compresschain {
    pub(crate) fn new(config: &SetchainConfig) -> Self {
        Compresschain {
            collector: Collector::new(config.collector_limit),
            next_batch_seq: 0,
            ratio_sum: 0.0,
            ratio_count: 0,
            encode_buf: Vec::new(),
            decode_buf: Vec::new(),
        }
    }

    /// Average compression ratio measured on flushed batches.
    pub(crate) fn average_ratio(&self) -> f64 {
        if self.ratio_count == 0 {
            return 1.0;
        }
        self.ratio_sum / self.ratio_count as f64
    }

    /// An admitted element joins the batch under construction.
    pub(crate) fn collect(
        &mut self,
        core: &mut ServerCore,
        element: Element,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        self.collector.add_element(element);
        self.maybe_flush(core, ctx);
    }

    /// Flushes the collector when the size threshold is reached.
    fn maybe_flush(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        if self.collector.is_ready() {
            self.flush(core, ctx);
        }
    }

    /// `upon isReady(batch)`: compress the batch and append it to the ledger.
    pub(crate) fn flush(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        let batch = self.collector.flush(ctx.now());
        // Materialize the batch bytes once, into the reusable encode buffer,
        // and run the real compressor (chunked frame, chunk-parallel on
        // multicore hosts) so the transaction occupies a realistic number of
        // bytes in blocks.
        let raw_len = batch.encode_elements_into(&mut self.encode_buf);
        let payload = setchain_compress::compress_chunked_with(&self.encode_buf, BATCH_CHUNK_LEN);
        ctx.consume_cpu(core.config.costs.compress_cost(raw_len));
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
        core.stats.batches_flushed += 1;
        let cb = CompressedBatch {
            origin: core.id(),
            seq: self.next_batch_seq,
            elements: batch.elements,
            proofs: batch.proofs,
            payload: std::sync::Arc::new(payload),
            compressed_size,
            original_size,
        };
        self.next_batch_seq += 1;
        let tx = SetchainTx::Compressed(cb);
        let tx_id = tx.tx_id();
        if let SetchainTx::Compressed(cb) = &tx {
            for e in &cb.elements {
                core.trace.record_tx_assignment(e.id, tx_id);
            }
        }
        ctx.append(tx);
    }

    /// ABCI `CheckTx`: only batch transactions from a server of this
    /// deployment enter the mempool.
    pub(crate) fn check_tx(config: &SetchainConfig, tx: &SetchainTx) -> bool {
        matches!(tx, SetchainTx::Compressed(b) if config.is_server(b.origin))
    }

    /// `new_block(B)`: every batch of the block becomes one epoch.
    pub(crate) fn finalize_block(
        &mut self,
        core: &mut ServerCore,
        block: &Block<SetchainTx>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        let now = ctx.now();
        let validate = core.config.decompress_validate;
        for tx in &block.txs {
            let SetchainTx::Compressed(cb) = tx else {
                continue;
            };
            if validate {
                // Decompress(B[i]) — charged as CPU time against the original
                // (uncompressed) batch size.
                ctx.consume_cpu(core.config.costs.decompress_cost(cb.original_size as usize));
                // ...and performed for real: the chunked frame decompresses
                // chunk-parallel and the recovered byte count must equal the
                // batch's declared element bytes. Every server decodes every
                // frame, its own included — `origin` is an unsigned field
                // any sender can forge, so a verdict that looked at it would
                // split correct servers. "Compresschain light" skips all of
                // this.
                core.stats.batches_decompressed += 1;
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
                    core.stats.batch_decompress_failures += 1;
                    continue;
                }
            }
            // `if batch_original = ∅ then continue`
            if cb.elements.is_empty() && cb.proofs.is_empty() {
                continue;
            }
            // Valid epoch-proofs of the batch.
            for p in &cb.proofs {
                core.ingest_proof(*p, now, ctx);
            }
            // G: valid elements not yet in an epoch.
            let g = core.extract_epoch_candidates(&cb.elements, validate, ctx);
            let (_, proof) = core.create_epoch(g, now, ctx);
            // The epoch-proof goes back through the collector.
            self.collector.add_proof(proof);
            self.maybe_flush(core, ctx);
        }
    }
}
