//! LZ77 compressor with a hash-table match finder.
//!
//! Single-stream format (all integers are LEB128 varints, see
//! [`crate::varint`]):
//!
//! ```text
//! stream   := original_len token*
//! token    := 0x00 lit_len  byte{lit_len}        (literal run)
//!           | 0x01 match_len distance            (back-reference)
//! ```
//!
//! Matches must have `match_len >= MIN_MATCH` and `distance <= WINDOW`.
//! Decompression validates every distance/length against the bytes produced
//! so far and fails with [`DecompressError`] rather than panicking, because
//! Compresschain servers decompress batches appended by possibly Byzantine
//! peers (Algorithm Compresschain, line 20). The *chunked* framing that
//! wraps this stream lives in [`crate::chunked`].
//!
//! # Match finder
//!
//! Compression runs through a [`Compressor`], which owns the `head` hash
//! table and reuses it across calls — callers on a hot path (Compresschain
//! flushes a batch every few milliseconds) pay no per-batch table
//! allocation. Each position has one match candidate: the latest earlier
//! position with the same 5-byte multiplicative hash, computed once per
//! position (the table update and the candidate lookup share it), so the
//! work per position is bounded even on adversarial input. Match extension
//! compares 8 bytes per step via `u64` loads; a one-step *lazy match* check
//! (as in DEFLATE) trades a literal for a longer match starting one byte
//! later when that wins; a token-cost filter drops matches whose encoding
//! would outweigh them; and LZ4-style skip acceleration strides through
//! incompressible regions so high-entropy calldata costs far less than
//! compressible text.

use crate::varint::{read_u64, write_u64};

/// Minimum match length worth encoding as a back-reference.
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps token sizes bounded).
const MAX_MATCH: usize = 1 << 15;
/// Sliding-window size for back-references.
const WINDOW: usize = 1 << 16;
/// Number of hash-table buckets (power of two).
const HASH_BUCKETS: usize = 1 << 14;
/// Matches at least this long skip the lazy one-byte-later probe: they are
/// long enough that deferring them almost never pays.
const LAZY_THRESHOLD: usize = 32;
/// Skip acceleration (as in LZ4): after `1 << ACCEL_LOG` consecutive
/// positions without a match, the search cursor starts stepping by more than
/// one byte, so incompressible regions (high-entropy calldata) cost far less
/// than compressible ones.
const ACCEL_LOG: u32 = 2;

const TOKEN_LITERAL: u8 = 0x00;
const TOKEN_MATCH: u8 = 0x01;

/// Sentinel for "no position" in the hash table.
const EMPTY: u32 = u32::MAX;

/// Error returned when a compressed stream is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The stream ended in the middle of a token.
    Truncated,
    /// A token had an unknown tag byte.
    BadToken(u8),
    /// A back-reference pointed before the start of the output.
    BadDistance {
        /// Offset in the output where the reference occurred.
        at: usize,
        /// The invalid distance.
        distance: usize,
    },
    /// The decoded output did not match the length declared in the header.
    LengthMismatch {
        /// Length declared in the stream header.
        declared: usize,
        /// Length actually produced.
        actual: usize,
    },
    /// The declared length is unreasonably large (defence against memory
    /// exhaustion from Byzantine input).
    DeclaredTooLarge(u64),
    /// A chunked frame was expected but the stream does not start with the
    /// chunked magic (see [`crate::decompress_chunked`]).
    NotChunked,
    /// A chunked frame declared more chunks than its total length allows.
    BadChunkCount(u64),
    /// A chunked frame carried bytes after its last declared chunk.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadToken(t) => write!(f, "unknown token tag {t:#x}"),
            DecompressError::BadDistance { at, distance } => {
                write!(
                    f,
                    "invalid back-reference distance {distance} at output offset {at}"
                )
            }
            DecompressError::LengthMismatch { declared, actual } => {
                write!(f, "declared length {declared} but produced {actual}")
            }
            DecompressError::DeclaredTooLarge(n) => write!(f, "declared length {n} too large"),
            DecompressError::NotChunked => write!(f, "stream is not a chunked frame"),
            DecompressError::BadChunkCount(n) => write!(f, "chunk count {n} exceeds total length"),
            DecompressError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the last chunk")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// Upper bound accepted for the declared decompressed size (64 MiB), far
/// above any batch the Setchain algorithms produce. Compression inputs are
/// bounded by the same value so every compressed stream decompresses.
pub const MAX_DECLARED: u64 = 64 * 1024 * 1024;

#[inline]
fn hash5(data: &[u8], i: usize) -> usize {
    // Multiplicative hash over the next 5 bytes (read as one 8-byte word;
    // callers guarantee `i + 8 <= data.len()`). Five bytes rather than four
    // sharply cuts false candidates on small-alphabet data like hex
    // calldata, where 4-grams repeat by chance long before they repeat
    // usefully.
    let v = u64::from_le_bytes(data[i..i + 8].try_into().expect("8 bytes")) & 0xFF_FFFF_FFFF;
    (v.wrapping_mul(0x9E37_79B1_85EB_CA87) >> 50) as usize & (HASH_BUCKETS - 1)
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max`. Requires `b + max <= data.len()` and `a < b`. Compares 8 bytes per
/// step through `u64` loads, then settles the tail byte-wise.
#[inline]
fn common_prefix_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= max {
        let x = u64::from_le_bytes(data[a + len..a + len + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(data[b + len..b + len + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Reusable LZ77 compressor.
///
/// Owns the `head` hash table (64 KiB) so repeated compressions — one per
/// chunk of every Compresschain frame — do not reallocate it. The table is
/// cleared at the start of every call, so the output depends only on the
/// input, never on compressor history.
pub(crate) struct Compressor {
    /// `head[h]`: most recent position whose 5-byte hash is `h`.
    head: Vec<u32>,
}

impl Compressor {
    /// Creates a compressor with a freshly allocated hash table.
    pub(crate) fn new() -> Self {
        Compressor {
            head: vec![EMPTY; HASH_BUCKETS],
        }
    }

    /// Compresses `data` as one single stream, appending it to `out`
    /// (which is not cleared).
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than [`MAX_DECLARED`]: such a stream
    /// could never be decompressed, so refusing to build it keeps every
    /// stream decodable.
    pub(crate) fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        assert!(
            data.len() as u64 <= MAX_DECLARED,
            "input exceeds MAX_DECLARED"
        );
        write_u64(out, data.len() as u64);
        if data.is_empty() {
            return;
        }
        self.head.fill(EMPTY);

        // Positions at or past this limit are not indexed or searched (the
        // hash reads an 8-byte word); matches may still *extend* into the
        // tail, which is emitted as literals otherwise.
        let hash_end = data.len().saturating_sub(7);
        let mut literal_start = 0usize;
        let mut i = 0usize;
        // Consecutive positions searched without finding a match; drives the
        // skip acceleration.
        let mut miss_streak = 0u32;

        while i < hash_end {
            let cand = self.insert_and_candidate(data, i);
            let (first_len, first_dist) = eval_candidate(data, i, cand);

            if first_len == 0 {
                // No match: step ahead — faster the longer the current
                // incompressible run is. Skipped positions are not indexed
                // (they cost hash work and rarely become useful match
                // sources inside a junk run).
                i += 1 + (miss_streak >> ACCEL_LOG) as usize;
                miss_streak += 1;
                continue;
            }
            miss_streak = 0;

            // Lazy match (DEFLATE-style): a match starting one byte later
            // may be longer; if so, the current byte joins the literal run.
            let mut start = i;
            let mut best_len = first_len;
            let mut best_dist = first_dist;
            let mut indexed_to = i;
            while best_len < LAZY_THRESHOLD && start + 1 < hash_end {
                let probe_cand = self.insert_and_candidate(data, start + 1);
                indexed_to = start + 1;
                let (next_len, next_dist) = eval_candidate(data, start + 1, probe_cand);
                if next_len > best_len {
                    start += 1;
                    best_len = next_len;
                    best_dist = next_dist;
                } else {
                    break;
                }
            }

            flush_literals(data, out, literal_start, start);
            out.push(TOKEN_MATCH);
            write_u64(out, best_len as u64);
            write_u64(out, best_dist as u64);
            // Index the positions covered by the match so later data can
            // reference into it; `indexed_to` and earlier are already in.
            let end = start + best_len;
            for pos in (indexed_to + 1)..end.min(hash_end) {
                self.insert(data, pos);
            }
            i = end;
            literal_start = i;
        }
        flush_literals(data, out, literal_start, data.len());
    }

    /// Links position `i` into the hash table and returns the position it
    /// replaces there — the freshest match candidate for `i`. One hash
    /// computation serves both the table update and the search.
    /// Re-linking an already-linked position returns no candidate (the
    /// position cannot match itself).
    #[inline]
    fn insert_and_candidate(&mut self, data: &[u8], i: usize) -> u32 {
        let h = hash5(data, i);
        let cand = self.head[h];
        if cand == i as u32 {
            return EMPTY;
        }
        self.head[h] = i as u32;
        cand
    }

    /// Links position `pos` into the hash table.
    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize) {
        self.head[hash5(data, pos)] = pos as u32;
    }
}

/// Evaluates `candidate` as a match for position `i`, returning
/// `(len, dist)` — `(0, 0)` when it does not qualify. A candidate qualifies
/// when it lies inside the window, reaches `MIN_MATCH` *and* its token is
/// shorter than the bytes it replaces (a 4-byte match at a
/// three-varint-byte distance would expand the stream).
#[inline]
fn eval_candidate(data: &[u8], i: usize, candidate: u32) -> (usize, usize) {
    if candidate == EMPTY {
        return (0, 0);
    }
    let c = candidate as usize;
    let dist = i - c;
    // Checking the byte where a `MIN_MATCH` match would end first skips the
    // full extension for most hash collisions.
    if dist > WINDOW || data.get(c + MIN_MATCH - 1) != data.get(i + MIN_MATCH - 1) {
        return (0, 0);
    }
    let len = common_prefix_len(data, c, i, (data.len() - i).min(MAX_MATCH));
    // Token-cost filter: tag + len varint + dist varint must undercut the
    // match length, or the "match" bloats the stream.
    let min_worth = match dist {
        0..128 => MIN_MATCH,
        128..16_384 => MIN_MATCH + 1,
        _ => MIN_MATCH + 2,
    };
    if len >= min_worth {
        (len, dist)
    } else {
        (0, 0)
    }
}

fn flush_literals(data: &[u8], out: &mut Vec<u8>, start: usize, end: usize) {
    if end > start {
        out.push(TOKEN_LITERAL);
        write_u64(out, (end - start) as u64);
        out.extend_from_slice(&data[start..end]);
    }
}

std::thread_local! {
    /// Per-thread compressor scratch backing the chunked frame writer.
    static SCRATCH: std::cell::RefCell<Compressor> = std::cell::RefCell::new(Compressor::new());
}

/// Runs `f` on this thread's reusable [`Compressor`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Compressor) -> R) -> R {
    SCRATCH.with(|c| f(&mut c.borrow_mut()))
}

/// Varint read with a single-byte fast path: almost every varint in a real
/// stream (tags aside, the lengths and distances of short matches) fits one
/// byte, and the decoder reads three per token.
#[inline]
fn read_varint_fast(data: &[u8], pos: &mut usize) -> Option<u64> {
    let b = *data.get(*pos)?;
    if b < 0x80 {
        *pos += 1;
        return Some(b as u64);
    }
    read_u64(data, pos)
}

/// Decompresses a single stream, *appending* to `out`: the chunked frame
/// decoder writes every chunk into one buffer. Distances resolve only
/// against bytes this stream appended, never against earlier buffer
/// contents. Returns the number of bytes appended; on error `out` holds
/// partial output, which the frame decoder drops with the error.
pub(crate) fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<usize, DecompressError> {
    let base = out.len();
    let mut pos = 0usize;
    let declared = read_u64(data, &mut pos).ok_or(DecompressError::Truncated)?;
    if declared > MAX_DECLARED {
        return Err(DecompressError::DeclaredTooLarge(declared));
    }
    let declared = declared as usize;
    out.reserve(declared);

    while pos < data.len() {
        let tag = data[pos];
        pos += 1;
        match tag {
            TOKEN_LITERAL => {
                let len =
                    read_varint_fast(data, &mut pos).ok_or(DecompressError::Truncated)? as usize;
                // checked_add: a Byzantine length near usize::MAX must fail
                // cleanly, not overflow the bound check.
                let end = pos.checked_add(len).ok_or(DecompressError::Truncated)?;
                if end > data.len() {
                    return Err(DecompressError::Truncated);
                }
                out.extend_from_slice(&data[pos..end]);
                pos = end;
            }
            TOKEN_MATCH => {
                let len =
                    read_varint_fast(data, &mut pos).ok_or(DecompressError::Truncated)? as usize;
                let dist =
                    read_varint_fast(data, &mut pos).ok_or(DecompressError::Truncated)? as usize;
                let produced = out.len() - base;
                if dist == 0 || dist > produced {
                    return Err(DecompressError::BadDistance {
                        at: produced,
                        distance: dist,
                    });
                }
                // Same overflow discipline as the literal path: reject any
                // length that would carry the output past MAX_DECLARED
                // before doing arithmetic or allocation with it.
                if len as u64 > MAX_DECLARED || (produced + len) as u64 > MAX_DECLARED {
                    return Err(DecompressError::DeclaredTooLarge(len as u64));
                }
                let start = out.len() - dist;
                if dist >= len {
                    // Non-overlapping copy: one bulk extend.
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copy (dist < len): the bytes from `start`
                    // onward are a repeating pattern of period `dist`.
                    // Bulk-copy the available suffix repeatedly; the
                    // available run doubles each round.
                    let mut remaining = len;
                    while remaining > 0 {
                        let take = (out.len() - start).min(remaining);
                        out.extend_from_within(start..start + take);
                        remaining -= take;
                    }
                }
            }
            other => return Err(DecompressError::BadToken(other)),
        }
    }

    let produced = out.len() - base;
    if produced != declared {
        return Err(DecompressError::LengthMismatch {
            declared,
            actual: produced,
        });
    }
    Ok(produced)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// One single stream from a fresh [`Compressor`].
    pub(crate) fn compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Compressor::new().compress_into(data, &mut out);
        out
    }

    /// [`decompress_into`] on an empty buffer.
    pub(crate) fn decompress(data: &[u8]) -> Result<Vec<u8>, DecompressError> {
        let mut out = Vec::new();
        decompress_into(data, &mut out)?;
        Ok(out)
    }

    #[test]
    fn empty_roundtrip() {
        let c = compress(b"");
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_literal_roundtrip() {
        let data = b"abc";
        assert_eq!(decompress(&compress(data)).unwrap(), data);
    }

    #[test]
    fn repetitive_roundtrip_and_shrinks() {
        let data: Vec<u8> = std::iter::repeat_n(b"the quick brown fox ".as_slice(), 200)
            .flatten()
            .copied()
            .collect();
        let c = compress(&data);
        assert!(
            c.len() * 4 < data.len(),
            "compressed {} vs {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn random_data_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = vec![0u8; 50_000];
        rng.fill_bytes(&mut data);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // Random data should not blow up much.
        assert!(c.len() < data.len() + data.len() / 8 + 64);
    }

    #[test]
    fn structured_transactions_reach_paper_ratio_range() {
        // Hex-ish payloads with shared prefixes, similar to what the workload
        // generator produces; the paper reports ratios of 2.5-3.5.
        let mut rng = StdRng::seed_from_u64(7);
        let mut batch = Vec::new();
        for i in 0..100 {
            let to = rng.gen_range(0..40u32);
            batch.extend_from_slice(
                format!(
                    "{{\"chainId\":42161,\"from\":\"0x{:040x}\",\"to\":\"0x{:040x}\",\"value\":\"{}\",\
                     \"gas\":\"{}\",\"data\":\"0x{}\"}}",
                    i, to, rng.gen_range(0u64..1_000_000), rng.gen_range(21000u64..900_000),
                    "a3b1c2".repeat(rng.gen_range(10..120))
                )
                .as_bytes(),
            );
        }
        let packed = compress(&batch);
        let ratio = batch.len() as f64 / packed.len() as f64;
        assert!(ratio > 2.0, "expected ratio above 2, got {ratio:.2}");
        assert_eq!(decompress(&packed).unwrap(), batch);
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // "aaaa..." forces dist=1, len>1 overlapping copies.
        let data = vec![b'a'; 1000];
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
        // Period-3 pattern exercises the doubling overlap copy path.
        let pattern: Vec<u8> = b"xyz".iter().copied().cycle().take(5000).collect();
        assert_eq!(decompress(&compress(&pattern)).unwrap(), pattern);
    }

    #[test]
    fn compressor_reuse_is_history_independent() {
        // Compressing B after A must give the same bytes as compressing B
        // with a fresh compressor: stale table entries are never reachable.
        let a: Vec<u8> = (0..40_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let b: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(30_000).collect();
        let mut reused = Compressor::new();
        reused.compress_into(&a, &mut Vec::new());
        let mut with_history = Vec::new();
        reused.compress_into(&b, &mut with_history);
        let fresh = compress(&b);
        assert_eq!(with_history, fresh);
        assert_eq!(decompress(&with_history).unwrap(), b);
    }

    #[test]
    fn compress_into_appends_without_clearing() {
        let mut c = Compressor::new();
        let mut out = vec![0xAA, 0xBB];
        c.compress_into(b"hello hello hello hello", &mut out);
        assert_eq!(&out[..2], &[0xAA, 0xBB]);
        assert_eq!(
            decompress(&out[2..]).unwrap(),
            b"hello hello hello hello".to_vec()
        );
    }

    #[test]
    #[should_panic(expected = "MAX_DECLARED")]
    fn oversized_input_is_refused() {
        // Claim a huge length without allocating 64 MiB of real data: a
        // zero-length slice can't trigger it, so build just past the bound.
        let data = vec![0u8; MAX_DECLARED as usize + 1];
        let _ = compress(&data);
    }

    #[test]
    fn truncated_stream_detected() {
        let data = vec![b'x'; 500];
        let mut c = compress(&data);
        c.truncate(c.len() - 3);
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn bad_token_detected() {
        let mut c = compress(b"hello world hello world");
        // Corrupt the first token tag after the header varint.
        let mut pos = 0;
        read_u64(&c, &mut pos).unwrap();
        c[pos] = 0x7E;
        assert!(matches!(
            decompress(&c),
            Err(DecompressError::BadToken(0x7E))
        ));
    }

    #[test]
    fn bad_distance_detected() {
        let mut out = Vec::new();
        write_u64(&mut out, 10);
        out.push(TOKEN_MATCH);
        write_u64(&mut out, 5);
        write_u64(&mut out, 3); // distance 3 with empty output so far
        assert!(matches!(
            decompress(&out),
            Err(DecompressError::BadDistance { .. })
        ));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut c = compress(b"abcdef");
        // Tamper with the declared length (first varint byte).
        c[0] = c[0].wrapping_add(1);
        assert!(matches!(
            decompress(&c),
            Err(DecompressError::LengthMismatch { .. }) | Err(DecompressError::Truncated)
        ));
    }

    #[test]
    fn declared_too_large_rejected() {
        let mut out = Vec::new();
        write_u64(&mut out, MAX_DECLARED + 1);
        assert!(matches!(
            decompress(&out),
            Err(DecompressError::DeclaredTooLarge(_))
        ));
    }

    #[test]
    fn huge_token_lengths_rejected_without_overflow_or_allocation() {
        // Byzantine literal length near u64::MAX: the bound check must fail
        // cleanly instead of overflowing `pos + len`.
        let mut s = Vec::new();
        write_u64(&mut s, 10);
        s.push(TOKEN_LITERAL);
        write_u64(&mut s, u64::MAX);
        assert!(matches!(decompress(&s), Err(DecompressError::Truncated)));

        // Byzantine match length: must be rejected before any arithmetic or
        // output allocation uses it (dist=1 would otherwise drive the
        // overlap copy toward 2^64 bytes).
        let mut s = Vec::new();
        write_u64(&mut s, 10);
        s.push(TOKEN_LITERAL);
        write_u64(&mut s, 1);
        s.push(b'x');
        s.push(TOKEN_MATCH);
        write_u64(&mut s, u64::MAX);
        write_u64(&mut s, 1);
        assert!(matches!(
            decompress(&s),
            Err(DecompressError::DeclaredTooLarge(_))
        ));
    }

    #[test]
    fn error_display_strings() {
        assert!(DecompressError::Truncated.to_string().contains("truncated"));
        assert!(DecompressError::BadToken(9).to_string().contains("token"));
        assert!(DecompressError::BadDistance { at: 1, distance: 2 }
            .to_string()
            .contains("distance"));
        assert!(DecompressError::LengthMismatch {
            declared: 1,
            actual: 2
        }
        .to_string()
        .contains("declared"));
        assert!(DecompressError::DeclaredTooLarge(5)
            .to_string()
            .contains("large"));
        assert!(DecompressError::NotChunked.to_string().contains("chunked"));
        assert!(DecompressError::BadChunkCount(7)
            .to_string()
            .contains("chunk count"));
        assert!(DecompressError::TrailingBytes(3)
            .to_string()
            .contains("trailing"));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
                prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
            }

            #[test]
            fn roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..4096)) {
                let c = compress(&data);
                prop_assert_eq!(decompress(&c).unwrap(), data);
            }

            #[test]
            fn decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
                // Arbitrary bytes fed to the decoder must return, not panic.
                let _ = decompress(&data);
            }

            #[test]
            fn reused_compressor_matches_fresh(
                first in proptest::collection::vec(any::<u8>(), 0..2048),
                second in proptest::collection::vec(0u8..16, 0..2048),
            ) {
                let mut reused = Compressor::new();
                reused.compress_into(&first, &mut Vec::new());
                let mut with_history = Vec::new();
                reused.compress_into(&second, &mut with_history);
                prop_assert_eq!(with_history, compress(&second));
            }
        }
    }
}
