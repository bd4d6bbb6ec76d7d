//! Framed, chunked LZ77 format: the codec's one public format.
//!
//! The single-stream format of [`crate::lz77`] lets every token reference
//! bytes produced by any earlier token. The frame splits the input into
//! independent chunks, each compressed as its own single stream with a
//! bounded match window. Both directions run on the calling thread, chunk
//! by chunk: compression codes each chunk through the thread-local
//! [`crate::lz77::Compressor`] scratch, and decompression decodes each
//! chunk straight into one output buffer. A [`ChunkedFrame`] decodes a frame
//! once, when it is built, and keeps only its length and that verdict, so
//! many readers share one decode and none of them holds the bytes.
//!
//! # Wire format
//!
//! All integers are LEB128 varints ([`crate::varint`]):
//!
//! ```text
//! chunked := magic total_len chunk_count chunk{chunk_count}
//! chunk   := compressed_len stream          (stream: crate::lz77 format)
//! magic   := varint(CHUNKED_MAGIC)
//! ```
//!
//! `CHUNKED_MAGIC` is larger than [`MAX_DECLARED`], the cap the single-stream
//! decoder enforces on its leading `original_len` varint — so no valid
//! single stream starts with the magic, and the frame decoder's magic check
//! rejects a bare single stream. Frame validation is strict: the
//! chunk count may not exceed `total_len` (every chunk of a well-formed
//! frame holds at least one byte), every chunk must decompress, the
//! concatenated output must have exactly `total_len` bytes, and no bytes may
//! follow the last chunk.
//!
//! Byte budget: the frame header costs `5 + len(total_len) + len(chunk_count)`
//! bytes plus one `compressed_len` varint per chunk — a few bytes per 16 KiB
//! chunk, which is why Compresschain's `CompressedBatch` accounting charges
//! the whole frame, headers included.

use crate::lz77::{DecompressError, MAX_DECLARED};
use crate::varint::{read_u64, write_u64};

/// Marker distinguishing chunked frames from single streams. Deliberately
/// greater than [`MAX_DECLARED`] (the single-stream decoder rejects any
/// stream whose leading varint exceeds that), so no single stream passes
/// the frame's magic check.
pub(crate) const CHUNKED_MAGIC: u64 = 0x43_484E_4B31; // "CHNK1", read as a number

const _: () = assert!(CHUNKED_MAGIC > MAX_DECLARED);

/// Compresses `data` as a chunked frame with the given chunk length
/// (Compresschain ships 16 KiB chunks).
///
/// ```
/// use setchain_compress::{compress_chunked_with, decompress_chunked};
/// let data: Vec<u8> = b"setchain ".iter().copied().cycle().take(100_000).collect();
/// let frame = compress_chunked_with(&data, 16 * 1024);
/// assert!(frame.len() < data.len());
/// assert_eq!(decompress_chunked(&frame).unwrap(), data);
/// ```
///
/// # Panics
///
/// Panics if `chunk_len == 0` or `data` is longer than [`MAX_DECLARED`].
pub fn compress_chunked_with(data: &[u8], chunk_len: usize) -> Vec<u8> {
    assert!(chunk_len > 0, "chunk length must be positive");
    assert!(
        data.len() as u64 <= MAX_DECLARED,
        "input exceeds MAX_DECLARED"
    );
    // Every chunk's stream is written after its length prefix, so the
    // streams go to one staging buffer first; the frame is then sized once,
    // to what it holds.
    let mut streams = Vec::with_capacity(data.len() / 2);
    let mut lens = Vec::with_capacity(data.len().div_ceil(chunk_len));
    crate::lz77::with_scratch(|compressor| {
        for chunk in data.chunks(chunk_len) {
            let start = streams.len();
            compressor.compress_into(chunk, &mut streams);
            lens.push(streams.len() - start);
        }
    });
    let mut out = Vec::with_capacity(streams.len() + 10 * lens.len() + 24);
    write_u64(&mut out, CHUNKED_MAGIC);
    write_u64(&mut out, data.len() as u64);
    write_u64(&mut out, lens.len() as u64);
    let mut rest = streams.as_slice();
    for len in lens {
        let (stream, tail) = rest.split_at(len);
        write_u64(&mut out, len as u64);
        out.extend_from_slice(stream);
        rest = tail;
    }
    out
}

/// Decompresses a chunked frame produced by [`compress_chunked_with`].
/// Every frame invariant is validated: the magic, the declared total
/// against [`MAX_DECLARED`], a chunk count the frame can hold, every chunk
/// body, the exact total and no trailing bytes. Malformed input returns a
/// [`DecompressError`], never panics.
pub fn decompress_chunked(data: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut pos = 0usize;
    let magic = read_u64(data, &mut pos).ok_or(DecompressError::Truncated)?;
    if magic != CHUNKED_MAGIC {
        return Err(DecompressError::NotChunked);
    }
    let total = read_u64(data, &mut pos).ok_or(DecompressError::Truncated)?;
    if total > MAX_DECLARED {
        return Err(DecompressError::DeclaredTooLarge(total));
    }
    let chunk_count = read_u64(data, &mut pos).ok_or(DecompressError::Truncated)?;
    if chunk_count > total {
        // Every chunk of a well-formed frame decompresses to >= 1 byte.
        return Err(DecompressError::BadChunkCount(chunk_count));
    }
    // ...and occupies at least 1 frame byte (its length varint), so a count
    // exceeding the remaining frame bytes is Byzantine — reject it *before*
    // sizing any allocation by it.
    if chunk_count > (data.len() - pos) as u64 {
        return Err(DecompressError::BadChunkCount(chunk_count));
    }

    // Scan the frame for the chunk boundaries first, so a frame with a
    // broken structure is refused before any chunk is decoded.
    let mut bodies: Vec<&[u8]> = Vec::with_capacity(chunk_count as usize);
    for _ in 0..chunk_count {
        let len = read_u64(data, &mut pos).ok_or(DecompressError::Truncated)? as usize;
        let end = pos.checked_add(len).ok_or(DecompressError::Truncated)?;
        if end > data.len() {
            return Err(DecompressError::Truncated);
        }
        bodies.push(&data[pos..end]);
        pos = end;
    }
    if pos != data.len() {
        return Err(DecompressError::TrailingBytes(data.len() - pos));
    }

    let mut out = Vec::with_capacity(total as usize);
    for body in &bodies {
        crate::lz77::decompress_into(body, &mut out)?;
    }
    if out.len() as u64 != total {
        return Err(DecompressError::LengthMismatch {
            declared: total as usize,
            actual: out.len(),
        });
    }
    Ok(out)
}

/// A frame's length and the verdict of decoding it, without its bytes.
///
/// `From<Vec<u8>>` runs [`decompress_chunked`] on the bytes once, keeps
/// their length and the decoded length or error, and drops the bytes and
/// the output. The verdict depends on the bytes alone, so every holder of
/// one `Arc<ChunkedFrame>` (each server of a simulated deployment
/// delivering the same block) reads the result of one real decode of those
/// exact bytes, and a run holds no frame bytes past the moment the frame is
/// built.
///
/// ```
/// use setchain_compress::{compress_chunked_with, ChunkedFrame, DecompressError};
/// let bytes = compress_chunked_with(&[7u8; 1000], 16 * 1024);
/// let len = bytes.len();
/// let frame = ChunkedFrame::from(bytes);
/// assert_eq!((frame.len(), frame.decoded_len()), (len, Ok(1000)));
/// assert_eq!(
///     ChunkedFrame::from(vec![0xFF; 4]).decoded_len(),
///     Err(DecompressError::Truncated)
/// );
/// ```
#[derive(Debug)]
pub struct ChunkedFrame {
    len: usize,
    verdict: Result<usize, DecompressError>,
}

impl ChunkedFrame {
    /// The frame's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a frame of zero bytes (which never decodes).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// What [`decompress_chunked`] returned on the frame bytes: the
    /// decompressed length, or the first error.
    pub fn decoded_len(&self) -> Result<usize, DecompressError> {
        self.verdict.clone()
    }
}

impl From<Vec<u8>> for ChunkedFrame {
    fn from(bytes: Vec<u8>) -> Self {
        ChunkedFrame {
            len: bytes.len(),
            verdict: decompress_chunked(&bytes).map(|out| out.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz77::tests::{compress as compress_single, decompress as decompress_single};

    /// The chunk length Compresschain ships.
    const CHUNK_LEN: usize = 16 * 1024;

    fn sample(len: usize) -> Vec<u8> {
        // Compressible, structured, non-trivial content.
        (0..len)
            .map(|i| match i % 7 {
                0..=3 => b'a' + (i % 4) as u8,
                4 => b'0' + ((i / 7) % 10) as u8,
                _ => b' ',
            })
            .collect()
    }

    #[test]
    fn chunked_roundtrip_across_sizes() {
        for len in [0usize, 1, 100, CHUNK_LEN - 1, CHUNK_LEN, 300_000] {
            let data = sample(len);
            let frame = compress_chunked_with(&data, CHUNK_LEN);
            assert_eq!(decompress_chunked(&frame).unwrap(), data, "len={len}");
        }
    }

    #[test]
    fn small_chunk_lengths_roundtrip() {
        let data = sample(10_000);
        for chunk_len in [1usize, 7, 100, 4096] {
            let frame = compress_chunked_with(&data, chunk_len);
            assert_eq!(decompress_chunked(&frame).unwrap(), data);
        }
    }

    #[test]
    fn single_stream_is_not_mistaken_for_chunked() {
        let data = sample(5_000);
        let single = compress_single(&data);
        assert_eq!(decompress_single(&single).unwrap(), data);
        assert!(matches!(
            decompress_chunked(&single),
            Err(DecompressError::NotChunked)
        ));
    }

    #[test]
    fn bad_total_length_rejected() {
        let mut frame = Vec::new();
        write_u64(&mut frame, CHUNKED_MAGIC);
        write_u64(&mut frame, MAX_DECLARED + 1);
        write_u64(&mut frame, 0);
        assert!(matches!(
            decompress_chunked(&frame),
            Err(DecompressError::DeclaredTooLarge(_))
        ));
    }

    #[test]
    fn excessive_chunk_count_rejected() {
        let mut frame = Vec::new();
        write_u64(&mut frame, CHUNKED_MAGIC);
        write_u64(&mut frame, 4); // four bytes total...
        write_u64(&mut frame, 5); // ...but five chunks
        assert!(matches!(
            decompress_chunked(&frame),
            Err(DecompressError::BadChunkCount(5))
        ));
    }

    #[test]
    fn chunk_count_beyond_frame_bytes_rejected_before_allocation() {
        // A ~15-byte frame claiming 64Mi chunks passes the count<=total
        // check but must be rejected against the remaining frame length
        // before anything is allocated with the claimed capacity.
        let mut frame = Vec::new();
        write_u64(&mut frame, CHUNKED_MAGIC);
        write_u64(&mut frame, MAX_DECLARED);
        write_u64(&mut frame, MAX_DECLARED); // chunk_count == total
        assert!(matches!(
            decompress_chunked(&frame),
            Err(DecompressError::BadChunkCount(_))
        ));
    }

    #[test]
    fn truncated_chunk_rejected() {
        let data = sample(50_000);
        let mut frame = compress_chunked_with(&data, 8 * 1024);
        frame.truncate(frame.len() - 5);
        assert!(decompress_chunked(&frame).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let data = sample(10_000);
        let mut frame = compress_chunked_with(&data, CHUNK_LEN);
        frame.push(0x00);
        assert!(matches!(
            decompress_chunked(&frame),
            Err(DecompressError::TrailingBytes(1))
        ));
    }

    #[test]
    fn tampered_declared_total_is_caught() {
        let data = sample(10_000);
        let frame = compress_chunked_with(&data, CHUNK_LEN);
        // Rebuild the frame with a wrong total; chunk bodies unchanged.
        let mut pos = 0;
        assert_eq!(read_u64(&frame, &mut pos), Some(CHUNKED_MAGIC));
        let _total = read_u64(&frame, &mut pos).unwrap();
        let rest = &frame[pos..];
        let mut forged = Vec::new();
        write_u64(&mut forged, CHUNKED_MAGIC);
        write_u64(&mut forged, 9_999);
        forged.extend_from_slice(rest);
        assert!(matches!(
            decompress_chunked(&forged),
            Err(DecompressError::LengthMismatch { .. }) | Err(DecompressError::BadChunkCount(_))
        ));
    }

    #[test]
    fn corrupt_inner_stream_rejected_not_panicking() {
        let data = sample(30_000);
        let mut frame = compress_chunked_with(&data, 4 * 1024);
        // Flip a byte inside the first chunk body (past the three header
        // varints and the first chunk-length varint).
        let idx = 20.min(frame.len() - 1);
        frame[idx] ^= 0xFF;
        let _ = decompress_chunked(&frame); // must return, not panic
    }

    #[test]
    fn a_frame_holds_no_bytes() {
        assert!(std::mem::size_of::<ChunkedFrame>() <= 32);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Old-format and chunked-format compression are interchangeable:
            /// both decompress through their own decoders to the original
            /// input, and the frame decoder refuses the single stream.
            #[test]
            fn old_vs_chunked_equivalence(
                data in proptest::collection::vec(any::<u8>(), 0..8192),
                chunk_len in 1usize..3000,
            ) {
                let single = compress_single(&data);
                let chunked = compress_chunked_with(&data, chunk_len);
                prop_assert_eq!(decompress_single(&single).unwrap(), data.clone());
                prop_assert_eq!(decompress_chunked(&chunked).unwrap(), data);
                prop_assert!(matches!(
                    decompress_chunked(&single),
                    Err(DecompressError::NotChunked)
                ));
            }

            /// A frame's remembered verdict is the decoder's result on its
            /// bytes, at every call: on valid frames, on each of their
            /// truncated prefixes and on each single-byte flip.
            #[test]
            fn frame_verdict_is_the_decoders_result(
                data in proptest::collection::vec(any::<u8>(), 0..600),
                chunk_len in 1usize..200,
                flip in any::<u8>(),
            ) {
                let valid = compress_chunked_with(&data, chunk_len);
                let mut inputs = vec![valid.clone()];
                inputs.extend((0..valid.len()).map(|end| valid[..end].to_vec()));
                for at in 0..valid.len() {
                    let mut flipped = valid.clone();
                    flipped[at] ^= flip | 1;
                    inputs.push(flipped);
                }
                for bytes in inputs {
                    let expected = decompress_chunked(&bytes).map(|out| out.len());
                    let frame = ChunkedFrame::from(bytes);
                    prop_assert_eq!(frame.decoded_len(), expected.clone());
                    prop_assert_eq!(frame.decoded_len(), expected);
                }
                prop_assert_eq!(ChunkedFrame::from(valid).decoded_len(), Ok(data.len()));
            }

            /// The chunked decoder never panics on arbitrary bytes, with or
            /// without a valid magic prefix.
            #[test]
            fn chunked_decoder_never_panics(
                data in proptest::collection::vec(any::<u8>(), 0..512),
                prepend_magic in any::<bool>(),
            ) {
                let mut frame = Vec::new();
                if prepend_magic {
                    write_u64(&mut frame, CHUNKED_MAGIC);
                }
                frame.extend_from_slice(&data);
                let _ = decompress_chunked(&frame);
            }
        }
    }
}
