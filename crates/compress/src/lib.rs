//! Batch compression substrate ("brotlite").
//!
//! The paper's Compresschain algorithm compresses element batches with
//! Brotli before appending them to the ledger, reporting compression ratios
//! between 2.5 and 3.5 for Arbitrum-like transaction batches. Pulling in a
//! Brotli implementation is outside the dependency policy, so this crate
//! implements a self-contained LZ77 + varint codec. On the synthetic
//! workload its ratio is well below the paper's: the benchmark's
//! `comp_codec` workload measures a `compress.ratio` of 1.14 (ROADMAP item
//! 3(i) tracks closing that gap). The *ratio* is what matters to the
//! reproduction — it determines how many elements fit in a ledger block.
//!
//! # Wire format
//!
//! One format is shipped, accepted and public: the **chunked frame**
//! ([`compress_chunked_with`] / [`decompress_chunked`]) — a magic varint,
//! the total length, a chunk count, and then each chunk with its own length
//! prefix. Chunks share no match window; both directions process them one
//! after another on the calling thread. Compresschain compresses each batch
//! into one frame of 16 KiB chunks, and every server reads the frame's
//! verdict through a [`ChunkedFrame`], which decodes it once.
//!
//! Each chunk body is a **single stream**: an `original_len` varint
//! followed by literal-run / back-reference tokens, sequential by
//! construction (every back-reference may point into any earlier output).
//! The single stream is internal to the frame: the frame decoder checks the
//! magic first, so a bare single stream is rejected rather than mistaken
//! for a frame. The match finder's hash table lives in one compressor per
//! thread, allocated once, not per chunk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunked;
mod lz77;
mod varint;

pub use chunked::{compress_chunked_with, decompress_chunked, ChunkedFrame};
pub use lz77::{DecompressError, MAX_DECLARED};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz77::tests::{compress as compress_single, decompress as decompress_single};

    /// The chunk length Compresschain ships.
    const CHUNK_LEN: usize = 16 * 1024;

    #[test]
    fn lz77_codec_roundtrip() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabcabc".to_vec();
        let enc = compress_single(&data);
        assert_eq!(decompress_single(&enc).unwrap(), data);
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
        let frame = compress_chunked_with(&data, CHUNK_LEN);
        assert_eq!(decompress_chunked(&frame).unwrap(), data);
        // Each decoder accepts its own format only.
        assert_eq!(decompress_single(&compress_single(&data)).unwrap(), data);
        assert!(matches!(
            decompress_chunked(&compress_single(&data)),
            Err(DecompressError::NotChunked)
        ));
        assert!(decompress_single(&frame).is_err());
        assert!(data.len() > 2 * frame.len());
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = vec![b'a'; 10_000];
        assert!(data.len() > 20 * compress_single(&data).len());
        assert!(data.len() > 20 * compress_chunked_with(&data, CHUNK_LEN).len());
    }

    #[test]
    fn decode_rejects_garbage() {
        // A length header promising far more data than present must not panic.
        assert!(decompress_single(&[0xFF; 3]).is_err());
        assert!(decompress_chunked(&[0xFF; 3]).is_err());
    }
}
