//! Batch compression substrate ("brotlite").
//!
//! The paper's Compresschain algorithm compresses element batches with
//! Brotli before appending them to the ledger, reporting compression ratios
//! between 2.5 and 3.5 for Arbitrum-like transaction batches. Pulling in a
//! Brotli implementation is outside the dependency policy, so this crate
//! implements a self-contained LZ77 + varint codec whose ratio on the
//! synthetic workload falls in the same range (the workload crate has a test
//! asserting this). Only the *ratio* matters to the reproduction — it is what
//! determines how many elements fit in a ledger block.
//!
//! # Wire formats
//!
//! Two formats share one token alphabet:
//!
//! * **Single stream** ([`lz77`]) — `original_len` varint followed by
//!   literal-run / back-reference tokens. Sequential by construction:
//!   every back-reference may point into any earlier output.
//! * **Chunked frame** ([`chunked`]) — a magic varint, the total length, a
//!   chunk count, and then each chunk as an independent single stream with
//!   its own length prefix. Chunks share no match window, so both
//!   compression and decompression fan out across cores via
//!   [`setchain_crypto::parallel_map_min`].
//!
//! The chunked magic is larger than the maximum length the single-stream
//! decoder accepts, so the formats are unambiguous from the first varint and
//! [`decompress_any`] handles either. Compression state lives in a reusable
//! [`Compressor`] (hash-chain tables allocated once, not per batch); the
//! convenience free functions keep one per thread.
//!
//! The public API mirrors what the algorithm pseudocode needs:
//! [`compress`] / [`decompress`] / [`compress_chunked`] /
//! [`decompress_chunked`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunked;
pub mod lz77;
pub mod varint;

pub use chunked::{
    compress_chunked, compress_chunked_into, compress_chunked_with, decompress_any,
    decompress_chunked, decompress_chunked_into, is_chunked, CHUNKED_MAGIC, DEFAULT_CHUNK_LEN,
};
pub use lz77::{
    compress, decompress, decompress_into, CompressionStats, Compressor, DecompressError,
    MAX_DECLARED,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lz77_codec_roundtrip() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabcabc".to_vec();
        let enc = compress(&data);
        assert_eq!(decompress(&enc).unwrap(), data);
        assert!(enc.len() < data.len());
    }

    #[test]
    fn chunked_codec_roundtrip_and_cross_decode() {
        let data: Vec<u8> = b"setchain epoch "
            .iter()
            .copied()
            .cycle()
            .take(150_000)
            .collect();
        let frame = compress_chunked(&data);
        assert_eq!(decompress_chunked(&frame).unwrap(), data);
        // The sniffing decoder accepts either format.
        assert_eq!(decompress_any(&frame).unwrap(), data);
        assert_eq!(decompress_any(&compress(&data)).unwrap(), data);
        assert!(data.len() > 2 * frame.len());
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = vec![b'a'; 10_000];
        assert!(data.len() > 20 * compress(&data).len());
        assert!(data.len() > 20 * compress_chunked(&data).len());
    }

    #[test]
    fn decode_rejects_garbage() {
        // A length header promising far more data than present must not panic.
        assert!(decompress_any(&[0xFF; 3]).is_err());
    }
}
