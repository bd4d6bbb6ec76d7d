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
//! `Compresschain` holds what only this algorithm needs — the batch
//! sequence, the encode buffer, the ratio accounting — and the steps that
//! differ from the other two: `flush`, which compresses the batch the
//! server core collected, and `finalize_block`. The add/get front door and
//! the batch itself live in [`crate::app`] and [`ServerCore`].
//!
//! On delivery every server pays the modelled decompression of every
//! frame, while the host decodes each frame once per run, when the origin
//! builds it: a [`ChunkedFrame`] keeps the frame's length and decode
//! verdict, not its bytes.
//! The decoded batch is shared the same way: every server checks its
//! elements and proofs and digests its epoch, and the host computes the
//! batch root once per run, takes each element verdict from the origin's
//! admission (see [`Batch`](crate::collector::Batch)) and verifies each
//! carried proof once per epoch batch (see [`ServerCore::ingest_proof`]).

use std::sync::Arc;

use setchain_compress::ChunkedFrame;
use setchain_ledger::Block;

use crate::config::{compress_cost, decompress_cost};
use crate::server::{Ctx, ServerCore};
use crate::tx::{CompressedBatch, SetchainTx};

/// Chunk length used when compressing batch bytes. Smaller than the codec's
/// 64 KiB default, so even a collector-64 batch (~28 KiB) splits into
/// chunks. Every chunk is coded on the simulation thread, one after
/// another; the chunking bounds each match window, it does not parallelise.
const BATCH_CHUNK_LEN: usize = 16 * 1024;

/// Compresschain's per-server state.
#[derive(Default)]
pub(crate) struct Compresschain {
    next_batch_seq: u64,
    /// Sum of measured compression ratios and count, for reporting. Ratios
    /// are measured on the *shipped* chunked frame (headers included), so
    /// reported numbers match what actually occupies ledger blocks.
    ratio_sum: f64,
    ratio_count: u64,
    /// Reusable encode buffer the batch bytes are materialized into at
    /// flush time — no per-element or per-batch allocation.
    encode_buf: Vec<u8>,
}

impl Compresschain {
    /// Average compression ratio measured on flushed batches.
    pub(crate) fn average_ratio(&self) -> f64 {
        if self.ratio_count == 0 {
            return 1.0;
        }
        self.ratio_sum / self.ratio_count as f64
    }

    /// `upon isReady(batch)`: compress the batch and append it to the ledger.
    pub(crate) fn flush(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        let batch = Arc::new(core.take_batch(ctx.now()));
        // Materialize the batch bytes once, into the reusable encode buffer,
        // and run the real compressor (chunked frame) so the transaction
        // occupies a realistic number of bytes in blocks. The frame is
        // decoded here, once, while its bytes are still in cache; only its
        // length and verdict travel on.
        let raw_len = batch.encode_elements_into(&mut self.encode_buf);
        let payload = ChunkedFrame::from(setchain_compress::compress_chunked_with(
            &self.encode_buf,
            BATCH_CHUNK_LEN,
        ));
        ctx.consume_cpu(compress_cost(raw_len));
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
        let cb = CompressedBatch {
            origin: core.id(),
            seq: self.next_batch_seq,
            batch: Arc::clone(&batch),
            payload: Arc::new(payload),
            compressed_size,
            original_size,
        };
        self.next_batch_seq += 1;
        core.append_batch(SetchainTx::Compressed(cb), &batch.elements, ctx);
    }

    /// `new_block(B)`: every batch of the block becomes one epoch.
    pub(crate) fn finalize_block(
        &mut self,
        core: &mut ServerCore,
        block: &Block<SetchainTx>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        for tx in block.txs.iter() {
            let SetchainTx::Compressed(cb) = tx else {
                continue;
            };
            if !core.config.light {
                // Decompress(B[i]) — charged as CPU time against the original
                // (uncompressed) batch size.
                ctx.consume_cpu(decompress_cost(cb.original_size as usize));
                // ...and checked for real: the recovered byte count must
                // equal the batch's declared element bytes. Every server
                // checks every frame, its own included — `origin` is an
                // unsigned field any sender can forge, so a verdict that
                // looked at it would split correct servers. The host
                // decoded each frame once, when it was built, and every
                // server reads that verdict; each one has paid the
                // decompression above. "Compresschain light" skips all of
                // this.
                core.stats.batches_decompressed += 1;
                if !cb.payload_decodes() {
                    // Any server can put any bytes on the ledger: an
                    // undecodable frame is an invalid batch, skipped by
                    // every correct server alike.
                    core.stats.batch_decompress_failures += 1;
                    continue;
                }
            }
            // `if batch_original = ∅ then continue`
            if cb.batch.is_empty() {
                continue;
            }
            // Valid epoch-proofs of the batch.
            for &p in &cb.batch.proofs {
                core.ingest_proof(p, ctx);
            }
            // G: valid elements not yet in an epoch. The block is held once
            // per run, so a whole batch is shared, not copied, into history,
            // and its epoch digest is finished from the batch's root.
            // The epoch-proof goes into the next batch, which is flushed
            // before the block's next batch if the proof fills it.
            let proof = core.create_epoch(&cb.batch, ctx);
            if core.route_own_proof(proof, ctx) {
                self.flush(core, ctx);
            }
        }
    }
}
