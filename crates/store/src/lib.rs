//! Persistent epoch storage for Setchain servers.
//!
//! The Setchain papers define the epoch-numbered committed set as the
//! durable contract: epochs are append-only, totally ordered, and attested
//! by `f + 1` epoch-proofs, and a stamped epoch is immutable. This crate
//! maps that contract onto disk as exactly that: an append-only **segment
//! log** of framed epoch records, so a restarted server replays its own log
//! back to the exact committed set instead of paging peers.
//!
//! The store is an epoch log and nothing more. Membership (`the_set`,
//! which element sits in which epoch) is *server* state, and recovery
//! rebuilds it by replaying the log. The store keeps no per-element
//! structure, so persisting an epoch costs O(its own bytes) however long
//! the log is.
//!
//! The crate is deliberately a leaf: it depends on nothing else in the
//! workspace and stores *opaque fixed-size byte records*. The `setchain`
//! crate packs its `Element` (36 bytes, [`ELEMENT_LEN`]) and epoch-proof
//! (80 bytes, [`PROOF_LEN`]) encodings into an [`EpochRecord`]; the store
//! never looks inside either.
//!
//! Two [`StateStore`] backends exist: [`MemStore`] (volatile, used for
//! trait conformance and as the differential oracle in tests) and
//! [`DiskStore`] (the segment log; see [`disk`] for the recovery
//! protocol). Servers without a configured store skip this crate entirely —
//! the in-RAM path is the default and is byte-for-byte unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod frame;

use std::io;

pub use disk::DiskStore;
pub use frame::{decode_frame, encode_frame, fnv64, FrameError};

/// Packed length of one element (`setchain::Element::PACKED_LEN`).
pub const ELEMENT_LEN: usize = 36;

/// Packed length of one epoch-proof: epoch (8) ‖ signer id (8) ‖ MAC (64),
/// all little-endian.
pub const PROOF_LEN: usize = 80;

/// One committed epoch as the store sees it: the signed digest, the packed
/// elements in epoch order, and the `f + 1` (or more) quorum proofs that
/// attested it. Proofs are persisted so a recovered server can serve
/// epoch/inclusion proofs without re-verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochRecord {
    /// 1-based epoch number.
    pub epoch: u64,
    /// The 64-byte signed epoch digest.
    pub digest: [u8; 64],
    /// Packed elements, `element_count() × ELEMENT_LEN` bytes.
    pub elements: Vec<u8>,
    /// Packed proofs, `proof_count() × PROOF_LEN` bytes.
    pub proofs: Vec<u8>,
}

impl EpochRecord {
    /// Builds a record, checking that both byte sections are whole numbers
    /// of packed entries.
    pub fn new(epoch: u64, digest: [u8; 64], elements: Vec<u8>, proofs: Vec<u8>) -> Self {
        assert!(
            elements.len().is_multiple_of(ELEMENT_LEN),
            "elements not a multiple of ELEMENT_LEN"
        );
        assert!(
            proofs.len().is_multiple_of(PROOF_LEN),
            "proofs not a multiple of PROOF_LEN"
        );
        EpochRecord {
            epoch,
            digest,
            elements,
            proofs,
        }
    }

    /// Number of packed elements.
    pub fn element_count(&self) -> usize {
        self.elements.len() / ELEMENT_LEN
    }

    /// Number of packed proofs.
    pub fn proof_count(&self) -> usize {
        self.proofs.len() / PROOF_LEN
    }
}

/// Observable store counters, surfaced through `ServerStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Epochs stored (contiguous from 1; equals the tip).
    pub epochs: u64,
    /// Total encoded bytes across all segments.
    pub bytes: u64,
    /// Number of log segments.
    pub segments: u64,
}

/// Durable epoch storage. Epochs append strictly in order (`tip() + 1`);
/// the store is the authority on everything at or below its tip.
///
/// `Send` so stores can live inside servers that host-parallel harnesses
/// move across threads.
pub trait StateStore: Send {
    /// Appends the next epoch. `record.epoch` must be exactly `tip() + 1`;
    /// anything else is an `InvalidInput` error and the store is untouched.
    fn append_epoch(&mut self, record: &EpochRecord) -> io::Result<()>;

    /// Highest stored epoch (0 when empty). Epochs `1..=tip()` are readable.
    fn tip(&self) -> u64;

    /// Reads back one stored epoch. `Ok(None)` for epochs outside
    /// `1..=tip()`.
    fn load_epoch(&self, epoch: u64) -> io::Result<Option<EpochRecord>>;

    /// Current store counters.
    fn stats(&self) -> StoreStats;
}

/// Volatile [`StateStore`]: the same sequencing semantics as [`DiskStore`]
/// with no files. Used for trait conformance tests and as the
/// differential oracle for the disk backend.
#[derive(Debug, Default)]
pub struct MemStore {
    records: Vec<EpochRecord>,
    bytes: u64,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateStore for MemStore {
    fn append_epoch(&mut self, record: &EpochRecord) -> io::Result<()> {
        if record.epoch != self.tip() + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "epoch {} out of order (tip is {})",
                    record.epoch,
                    self.tip()
                ),
            ));
        }
        // Count the encoded size so Mem and Disk report comparable bytes.
        self.bytes += encode_frame(record).len() as u64;
        self.records.push(record.clone());
        Ok(())
    }

    fn tip(&self) -> u64 {
        self.records.len() as u64
    }

    fn load_epoch(&self, epoch: u64) -> io::Result<Option<EpochRecord>> {
        if epoch == 0 || epoch > self.tip() {
            return Ok(None);
        }
        Ok(Some(self.records[(epoch - 1) as usize].clone()))
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            epochs: self.tip(),
            bytes: self.bytes,
            segments: 0,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A record whose packed elements are distinct within and across
    /// epochs (the first 8 bytes of each carry `epoch * 10_000 + index`).
    pub fn record(epoch: u64, elements: usize, proofs: usize) -> EpochRecord {
        let mut element_bytes = Vec::with_capacity(elements * ELEMENT_LEN);
        for i in 0..elements {
            let mut chunk = [0u8; ELEMENT_LEN];
            chunk[..8].copy_from_slice(&(epoch * 10_000 + i as u64).to_le_bytes());
            chunk[8..].fill((epoch as u8).wrapping_add(i as u8));
            element_bytes.extend_from_slice(&chunk);
        }
        EpochRecord::new(
            epoch,
            [epoch as u8; 64],
            element_bytes,
            vec![0xA5; proofs * PROOF_LEN],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::record;
    use super::*;

    #[test]
    fn record_accessors() {
        let rec = record(3, 4, 2);
        assert_eq!(rec.element_count(), 4);
        assert_eq!(rec.proof_count(), 2);
    }

    #[test]
    #[should_panic(expected = "multiple of ELEMENT_LEN")]
    fn ragged_elements_panic() {
        let _ = EpochRecord::new(1, [0; 64], vec![0; ELEMENT_LEN + 1], Vec::new());
    }

    #[test]
    #[should_panic(expected = "multiple of PROOF_LEN")]
    fn ragged_proofs_panic() {
        let _ = EpochRecord::new(1, [0; 64], Vec::new(), vec![0; PROOF_LEN - 1]);
    }

    #[test]
    fn mem_store_sequencing_and_readback() {
        let mut store = MemStore::new();
        assert_eq!(store.tip(), 0);
        assert_eq!(store.load_epoch(0).unwrap(), None);
        assert_eq!(store.load_epoch(1).unwrap(), None);
        // Out-of-order appends are refused without touching the store.
        assert!(store.append_epoch(&record(2, 1, 1)).is_err());
        assert_eq!(store.tip(), 0);
        for e in 1..=5u64 {
            store.append_epoch(&record(e, 3, 2)).unwrap();
        }
        assert_eq!(store.tip(), 5);
        for e in 1..=5u64 {
            assert_eq!(store.load_epoch(e).unwrap(), Some(record(e, 3, 2)));
        }
        let stats = store.stats();
        assert_eq!(stats.epochs, 5);
        assert!(stats.bytes > 0);
        // Re-appending the tip is out of order too.
        assert!(store.append_epoch(&record(5, 1, 1)).is_err());
    }
}
