//! Ledger transaction types used by the three Setchain algorithms.
//!
//! Vanilla appends individual elements and epoch-proofs; Compresschain
//! appends compressed batches, each carrying its frame's length and decode
//! verdict rather than the frame's bytes; Hashchain appends fixed-size
//! hash-batches.
//! A single enum covers all of them so that any algorithm can run on the
//! same ledger deployment type.
//!
//! Every committed block's transaction list lives until the run ends (block
//! sync serves it), so a transaction slot is paid once per element per run
//! in Vanilla. The two large variants, the epoch-proof (88 B) and the
//! hash-batch (152 B with its verdict memo), therefore sit behind `Arc`s: a
//! slot is 48 B, the size of an [`Element`] plus the tag, where inline they
//! would make every slot 160 B. The ledger clones transactions freely
//! (mempool, gossip, proposals, blocks), and with `Arc` each clone stays a
//! refcount bump; a `Box` would allocate on every clone of a hash-batch.

use std::sync::{Arc, OnceLock};

use setchain_compress::ChunkedFrame;
use setchain_crypto::{sign, Digest512, KeyPair, ProcessId, Signature};
use setchain_ledger::{TxData, TxId};

use crate::collector::Batch;
use crate::element::Element;
use crate::proofs::EpochProof;

/// Wire length of a hash-batch `⟨h, s, v⟩` (139 bytes, per the paper).
pub const HASH_BATCH_WIRE_LEN: usize = 139;

/// A compressed batch appended to the ledger by Compresschain.
///
/// The element and proof structures are carried explicitly as `batch` (the
/// simulation does not re-serialize them) alongside `payload` — the length
/// and decode verdict of the real chunked-LZ77 frame produced from the
/// materialized batch bytes (the bytes themselves are dropped once decoded).
/// `compressed_size` (frame length plus uncompressed proof bytes) is what
/// the batch occupies in blocks and on the wire, and every receiving server
/// checks on delivery that `payload` decodes to the declared element bytes
/// unless the "Compresschain light" ablation is on.
/// The batch and payload are behind `Arc`s: the ledger clones transactions
/// freely (mempool, proposals, blocks), and those clones must not copy
/// them. Every server's epoch for a whole batch shares `batch` too, and
/// every server reads the one decode verdict of the shared `payload`.
#[derive(Clone, Debug)]
pub struct CompressedBatch {
    /// The server that built and appended the batch.
    pub origin: ProcessId,
    /// Per-origin batch sequence number (makes the transaction id unique).
    pub seq: u64,
    /// Elements and epoch-proofs of the batch, in collection order.
    pub batch: Arc<Batch>,
    /// The chunked-LZ77 frame of the materialized element payloads: its
    /// length and decode verdict.
    pub payload: Arc<ChunkedFrame>,
    /// Size of the batch after compression, in bytes: the full shipped
    /// frame (chunk headers included) plus the proofs' wire size.
    pub compressed_size: u32,
    /// Size of the batch before compression, in bytes.
    pub original_size: u32,
}

impl CompressedBatch {
    /// `Decompress(B[i])`: true if `payload` decodes to exactly the declared
    /// element bytes, `original_size` less the proofs' wire size. The
    /// frame was decoded in full once, when it was built ([`ChunkedFrame`]
    /// keeps the result); the length check is this batch's own, so two
    /// batches that share one frame but declare different sizes get
    /// different verdicts.
    pub(crate) fn payload_decodes(&self) -> bool {
        let proof_bytes = self.batch.proofs.len() * crate::proofs::EPOCH_PROOF_WIRE_LEN;
        (self.original_size as usize)
            .checked_sub(proof_bytes)
            .is_some_and(|element_bytes| self.payload.decoded_len() == Ok(element_bytes))
    }
}

/// A hash-batch `⟨h, s, v⟩`: the hash of a batch, signed by a server.
///
/// Every server's copy of a block shares the transaction's
/// `Arc<HashBatch>`, so the hash-batch remembers its `valid_hash` verdict
/// for the host, which checks the signature once per run (see
/// `Self::verdict`); every server still pays `SIG_VERIFY_COST`. `Clone`
/// starts with no verdict, so a clone can be tampered with freely.
#[derive(Debug)]
pub struct HashBatch {
    /// SHA-512 hash of the batch contents.
    pub hash: Digest512,
    /// The signing server.
    pub signer: ProcessId,
    /// Signature over the hash.
    pub signature: Signature,
    /// The host's `valid_hash` verdict, once a server has a stable one.
    verdict: OnceLock<bool>,
}

impl Clone for HashBatch {
    fn clone(&self) -> Self {
        HashBatch::signed(self.hash, self.signer, self.signature)
    }
}

impl HashBatch {
    /// Creates a hash-batch signed by `keys`.
    pub fn new(keys: &KeyPair, hash: Digest512) -> Self {
        HashBatch::signed(hash, keys.id, sign(keys, hash.as_bytes()))
    }

    /// A hash-batch of these fields, with no verdict known.
    pub(crate) fn signed(hash: Digest512, signer: ProcessId, signature: Signature) -> Self {
        HashBatch {
            hash,
            signer,
            signature,
            verdict: OnceLock::new(),
        }
    }

    /// The `valid_hash` verdict, read from the memo or computed by `check`
    /// (the server's own rule), which returns `None` for a rejection that
    /// reflects only a missing registry entry. Such a rejection is computed
    /// again at every read; any other verdict is remembered. The verdict
    /// depends on the fields alone, so every server that reads it through
    /// the same allocation gets its own answer. Debug builds check a
    /// remembered verdict against `check`.
    pub(crate) fn verdict(&self, check: impl FnOnce() -> Option<bool>) -> bool {
        if let Some(&valid) = self.verdict.get() {
            debug_assert_eq!(Some(valid), check(), "a hash-batch verdict memo is stale");
            return valid;
        }
        match check() {
            Some(valid) => *self.verdict.get_or_init(|| valid),
            None => false,
        }
    }
}

/// A ledger transaction produced by a Setchain server.
///
/// The epoch-proof and the hash-batch are behind `Arc`s so that a
/// transaction is no larger than an element or a compressed batch (see the
/// module docs): every committed block keeps its list for the run.
#[derive(Clone, Debug)]
pub enum SetchainTx {
    /// A single element (Vanilla).
    Element(Element),
    /// An epoch-proof appended directly to the ledger (Vanilla).
    Proof(Arc<EpochProof>),
    /// A compressed batch of elements and proofs (Compresschain).
    Compressed(CompressedBatch),
    /// A signed batch hash (Hashchain).
    HashBatch(Arc<HashBatch>),
}

// One slot per Vanilla element stays in a committed block for the run; keep
// it the size of an element plus the tag.
const _: () = assert!(std::mem::size_of::<SetchainTx>() <= 48);

// Tags keep the id spaces of the four transaction kinds disjoint.
const TAG_ELEMENT: u128 = 1 << 120;
const TAG_PROOF: u128 = 2 << 120;
const TAG_COMPRESSED: u128 = 3 << 120;
const TAG_HASH_BATCH: u128 = 4 << 120;

impl TxData for SetchainTx {
    fn tx_id(&self) -> TxId {
        match self {
            SetchainTx::Element(e) => TxId(TAG_ELEMENT | u128::from(e.id.0)),
            SetchainTx::Proof(p) => {
                TxId(TAG_PROOF | (u128::from(p.epoch) << 64) | u128::from(p.signer.0))
            }
            SetchainTx::Compressed(b) => {
                TxId(TAG_COMPRESSED | (u128::from(b.origin.0) << 64) | u128::from(b.seq))
            }
            SetchainTx::HashBatch(hb) => {
                // Multiple servers append hash-batches for the same hash; the
                // signer keeps their transaction ids distinct.
                TxId(TAG_HASH_BATCH | (u128::from(hb.hash.short()) << 48) | u128::from(hb.signer.0))
            }
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            SetchainTx::Element(e) => e.wire_size(),
            SetchainTx::Proof(p) => p.wire_size(),
            SetchainTx::Compressed(b) => b.compressed_size as usize + 24,
            SetchainTx::HashBatch(_) => HASH_BATCH_WIRE_LEN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementId;
    use crate::proofs::make_epoch_proof;
    use setchain_crypto::{sha512, KeyRegistry};

    fn registry() -> KeyRegistry {
        KeyRegistry::bootstrap(11, 4, 2)
    }

    #[test]
    fn tx_ids_are_distinct_across_kinds() {
        let reg = registry();
        let client = reg.lookup(ProcessId::client(0)).unwrap();
        let server = reg.lookup(ProcessId::server(0)).unwrap();
        let e = Element::new(&client, ElementId::new(0, 5), 438, 1);
        let proof = make_epoch_proof(&server, 5, &[e]);
        let hb = HashBatch::new(&server, sha512(b"batch"));
        let cb = CompressedBatch {
            origin: server.id,
            seq: 5,
            batch: Batch::new(vec![e], vec![]).into(),
            payload: std::sync::Arc::new(Vec::new().into()),
            compressed_size: 100,
            original_size: 300,
        };
        let ids = [
            SetchainTx::Element(e).tx_id(),
            SetchainTx::Proof(proof.into()).tx_id(),
            SetchainTx::Compressed(cb).tx_id(),
            SetchainTx::HashBatch(hb.into()).tx_id(),
        ];
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn wire_sizes_match_paper_constants() {
        let reg = registry();
        let client = reg.lookup(ProcessId::client(0)).unwrap();
        let server = reg.lookup(ProcessId::server(0)).unwrap();
        let e = Element::new(&client, ElementId::new(0, 1), 438, 1);
        assert_eq!(SetchainTx::Element(e).wire_size(), 438);
        let proof = make_epoch_proof(&server, 1, &[e]);
        assert_eq!(SetchainTx::Proof(proof.into()).wire_size(), 139);
        let hb = HashBatch::new(&server, sha512(b"x"));
        assert_eq!(SetchainTx::HashBatch(hb.into()).wire_size(), 139);
        let cb = CompressedBatch {
            origin: server.id,
            seq: 0,
            batch: Batch::new(vec![e], vec![]).into(),
            payload: std::sync::Arc::new(Vec::new().into()),
            compressed_size: 160,
            original_size: 438,
        };
        assert_eq!(SetchainTx::Compressed(cb).wire_size(), 184);
    }

    #[test]
    fn same_hash_different_signers_have_distinct_tx_ids() {
        let reg = registry();
        let s0 = reg.lookup(ProcessId::server(0)).unwrap();
        let s1 = reg.lookup(ProcessId::server(1)).unwrap();
        let h = sha512(b"same batch");
        let a = SetchainTx::HashBatch(HashBatch::new(&s0, h).into());
        let b = SetchainTx::HashBatch(HashBatch::new(&s1, h).into());
        assert_ne!(a.tx_id(), b.tx_id());
    }

    #[test]
    fn clones_share_the_proof_and_the_hash_batch() {
        let reg = registry();
        let server = reg.lookup(ProcessId::server(0)).unwrap();
        let proof = SetchainTx::Proof(make_epoch_proof(&server, 1, &[]).into());
        let hb = SetchainTx::HashBatch(HashBatch::new(&server, sha512(b"shared")).into());
        match (&proof, proof.clone(), &hb, hb.clone()) {
            (
                SetchainTx::Proof(a),
                SetchainTx::Proof(b),
                SetchainTx::HashBatch(c),
                SetchainTx::HashBatch(d),
            ) => {
                assert!(Arc::ptr_eq(a, &b), "a cloned proof copies nothing");
                assert!(Arc::ptr_eq(c, &d), "a cloned hash-batch copies nothing");
            }
            _ => unreachable!("clones keep their variant"),
        }
    }

    #[test]
    fn a_shared_frame_is_checked_against_each_batchs_declared_size() {
        let reg = registry();
        let server = reg.lookup(ProcessId::server(0)).unwrap();
        let proof = make_epoch_proof(&server, 1, &[]);
        let frame = Arc::new(ChunkedFrame::from(
            setchain_compress::compress_chunked_with(&[b'x'; 300], 1 << 14),
        ));
        let batch = |original_size: u32| CompressedBatch {
            origin: server.id,
            seq: 0,
            batch: Batch::new(vec![], vec![proof]).into(),
            payload: Arc::clone(&frame),
            compressed_size: 0,
            original_size,
        };
        let wire = crate::proofs::EPOCH_PROOF_WIRE_LEN as u32;
        // Each verdict is asked twice: both reads come from the one decode
        // made when the frame was built.
        for _ in 0..2 {
            assert!(batch(300 + wire).payload_decodes());
            assert!(!batch(301 + wire).payload_decodes());
            assert!(!batch(300).payload_decodes());
            assert!(!batch(wire - 1).payload_decodes(), "proofs exceed size");
        }
        assert_eq!(frame.decoded_len(), Ok(300));
    }
}
