//! The segment-log frame codec.
//!
//! One frame per committed epoch, laid out as
//!
//! ```text
//! magic      u32 LE   FRAME_MAGIC
//! payload_len u32 LE  length of the payload section
//! epoch      u64 LE   1-based epoch number
//! payload             digest[64] ‖ element_count u32 ‖ proof_count u32
//!                     ‖ elements (count × ELEMENT_LEN)
//!                     ‖ proofs   (count × PROOF_LEN)
//! checksum   u64 LE   FNV-1a 64 over epoch_le ‖ payload
//! ```
//!
//! The decoder distinguishes an *incomplete* frame (fewer bytes than the
//! header promises — the torn tail a crash mid-append leaves behind) from a
//! *corrupt* one (bad magic, inconsistent lengths, checksum mismatch), so
//! recovery can truncate at the former and refuse to trust the latter. It
//! never panics on arbitrary input; that is property-tested.

use crate::{EpochRecord, ELEMENT_LEN, PROOF_LEN};

/// Frame magic: `"SEG1"` little-endian.
pub const FRAME_MAGIC: u32 = 0x3147_4553;

/// Fixed bytes before the payload: magic, payload length, epoch number.
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 8;

/// Fixed bytes after the payload: the FNV-1a 64 checksum.
pub const FRAME_TRAILER_LEN: usize = 8;

/// Payload bytes before the variable sections: digest plus the two counts.
const PAYLOAD_FIXED_LEN: usize = 64 + 4 + 4;

/// Why a frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does: a torn tail. Recovery
    /// truncates the segment here and keeps everything before it.
    Incomplete,
    /// The bytes are structurally or cryptographically wrong (bad magic,
    /// inconsistent lengths, checksum mismatch). Recovery must not trust
    /// this frame or anything after it.
    Corrupt(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete => write!(f, "incomplete frame (torn tail)"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a 64-bit over the concatenation of the given byte slices.
///
/// Not cryptographic — the epoch digest and proof MACs inside the payload
/// carry the cryptographic weight; the checksum only detects torn or
/// bit-rotted frames.
pub fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Encodes one epoch record as a frame into `buf`, replacing its contents.
/// The append path keeps one buffer alive across epochs, so a steady-state
/// append allocates nothing.
pub fn encode_frame_into(record: &EpochRecord, buf: &mut Vec<u8>) {
    let payload_len = PAYLOAD_FIXED_LEN + record.elements.len() + record.proofs.len();
    buf.clear();
    buf.reserve(FRAME_HEADER_LEN + payload_len + FRAME_TRAILER_LEN);
    buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&record.epoch.to_le_bytes());
    buf.extend_from_slice(&record.digest);
    buf.extend_from_slice(&(record.element_count() as u32).to_le_bytes());
    buf.extend_from_slice(&(record.proof_count() as u32).to_le_bytes());
    buf.extend_from_slice(&record.elements);
    buf.extend_from_slice(&record.proofs);
    let checksum = fnv64(&[&buf[8..]]);
    buf.extend_from_slice(&checksum.to_le_bytes());
}

/// Encodes one epoch record as a freshly allocated frame.
pub fn encode_frame(record: &EpochRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_into(record, &mut buf);
    buf
}

/// Fully verifies the frame at the start of `buf` — magic, lengths,
/// checksum, section counts — without materialising it. On success returns
/// the frame's epoch number and the total number of bytes it occupies.
/// This is all the recovery scan needs; [`decode_frame`] accepts exactly
/// the frames this does.
pub fn peek_frame(buf: &[u8]) -> Result<(u64, usize), FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Incomplete);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(FrameError::Corrupt("bad magic"));
    }
    let payload_len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
    if payload_len < PAYLOAD_FIXED_LEN {
        return Err(FrameError::Corrupt("payload shorter than fixed section"));
    }
    let total = FRAME_HEADER_LEN + payload_len + FRAME_TRAILER_LEN;
    if buf.len() < total {
        return Err(FrameError::Incomplete);
    }
    let epoch = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let payload = &buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + payload_len];
    let stored = u64::from_le_bytes(
        buf[FRAME_HEADER_LEN + payload_len..total]
            .try_into()
            .expect("8 bytes"),
    );
    if fnv64(&[&buf[8..FRAME_HEADER_LEN + payload_len]]) != stored {
        return Err(FrameError::Corrupt("checksum mismatch"));
    }
    let (element_count, proof_count) = section_counts(payload);
    let sections = element_count
        .checked_mul(ELEMENT_LEN)
        .zip(proof_count.checked_mul(PROOF_LEN))
        .and_then(|(e, p)| e.checked_add(p)?.checked_add(PAYLOAD_FIXED_LEN));
    if sections != Some(payload_len) {
        return Err(FrameError::Corrupt("section counts disagree with length"));
    }
    Ok((epoch, total))
}

/// The `(element_count, proof_count)` fields of a frame payload.
fn section_counts(payload: &[u8]) -> (usize, usize) {
    let count = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
    (count(64) as usize, count(68) as usize)
}

/// Decodes the frame at the start of `buf`. On success returns the record
/// and the total number of bytes the frame occupies.
pub fn decode_frame(buf: &[u8]) -> Result<(EpochRecord, usize), FrameError> {
    let (epoch, total) = peek_frame(buf)?;
    let payload = &buf[FRAME_HEADER_LEN..total - FRAME_TRAILER_LEN];
    let elements_end = PAYLOAD_FIXED_LEN + section_counts(payload).0 * ELEMENT_LEN;
    let mut digest = [0u8; 64];
    digest.copy_from_slice(&payload[..64]);
    Ok((
        EpochRecord {
            epoch,
            digest,
            elements: payload[PAYLOAD_FIXED_LEN..elements_end].to_vec(),
            proofs: payload[elements_end..].to_vec(),
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64, elements: usize, proofs: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            digest: [epoch as u8; 64],
            elements: (0..elements * ELEMENT_LEN).map(|i| i as u8).collect(),
            proofs: (0..proofs * PROOF_LEN).map(|i| (i * 7) as u8).collect(),
        }
    }

    #[test]
    fn roundtrip() {
        // One buffer reused across records of shrinking and growing size,
        // as the append path does.
        let mut frame = Vec::new();
        for (e, p) in [(40usize, 4usize), (0, 0), (1, 1), (5, 3)] {
            let rec = record(9, e, p);
            encode_frame_into(&rec, &mut frame);
            assert_eq!(frame, encode_frame(&rec));
            assert_eq!(peek_frame(&frame), Ok((9, frame.len())));
            let (decoded, len) = decode_frame(&frame).expect("valid frame");
            assert_eq!(len, frame.len());
            assert_eq!(decoded, rec);
            assert_eq!(decoded.element_count(), e);
            assert_eq!(decoded.proof_count(), p);
        }
    }

    #[test]
    fn decodes_the_first_of_a_concatenation() {
        let mut buf = encode_frame(&record(1, 3, 2));
        let first_len = buf.len();
        buf.extend_from_slice(&encode_frame(&record(2, 1, 2)));
        let (decoded, len) = decode_frame(&buf).expect("valid frame");
        assert_eq!(len, first_len);
        assert_eq!(decoded.epoch, 1);
        let (second, _) = decode_frame(&buf[len..]).expect("second frame");
        assert_eq!(second.epoch, 2);
    }

    #[test]
    fn truncation_is_incomplete_not_corrupt() {
        let frame = encode_frame(&record(3, 4, 2));
        for cut in 0..frame.len() {
            assert_eq!(
                decode_frame(&frame[..cut]),
                Err(FrameError::Incomplete),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bitflips_are_corrupt() {
        let frame = encode_frame(&record(3, 4, 2));
        // Flip one bit in every byte position past the length field; each
        // must surface as Corrupt (a length-field flip may legitimately
        // read as Incomplete instead — the torn-tail path covers it).
        for pos in 8..frame.len() {
            let mut bad = frame.clone();
            bad[pos] ^= 0x01;
            match decode_frame(&bad) {
                Err(FrameError::Corrupt(_)) => {}
                other => panic!("flip at {pos} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(&record(1, 0, 0));
        frame[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::Corrupt("bad magic"))
        ));
    }

    #[test]
    fn fnv_is_stable_and_split_invariant() {
        // Reference value computed from the FNV-1a 64 definition.
        assert_eq!(fnv64(&[b""]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(&[b"ab", b"c"]), fnv64(&[b"abc"]));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Neither decoder panics on arbitrary bytes, and the
            /// non-allocating one accepts exactly what the full one does.
            #[test]
            fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
                let decoded = decode_frame(&bytes).map(|(rec, len)| (rec.epoch, len));
                prop_assert_eq!(peek_frame(&bytes), decoded);
            }

            /// Any valid frame survives a roundtrip with arbitrary garbage
            /// appended: the decoder recovers exactly the frame and reports
            /// its true length.
            #[test]
            fn prop_roundtrip_with_suffix(
                epoch in 1u64..1_000_000,
                elements in 0usize..20,
                proofs in 0usize..8,
                suffix in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let rec = record(epoch, elements, proofs);
                let frame = encode_frame(&rec);
                let mut buf = frame.clone();
                buf.extend_from_slice(&suffix);
                let (decoded, len) = decode_frame(&buf).expect("valid prefix");
                prop_assert_eq!(len, frame.len());
                prop_assert_eq!(decoded, rec);
            }

            /// Corrupting any single payload/checksum byte is detected.
            #[test]
            fn prop_corruption_detected(
                elements in 0usize..10,
                pos_seed in any::<usize>(),
                flip in 1u8..=255,
            ) {
                let rec = record(7, elements, 2);
                let frame = encode_frame(&rec);
                let pos = 8 + pos_seed % (frame.len() - 8);
                let mut bad = frame.clone();
                bad[pos] ^= flip;
                prop_assert!(decode_frame(&bad).is_err());
            }
        }
    }
}
