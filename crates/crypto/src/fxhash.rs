//! Deterministic fast hashing for simulation-internal maps.
//!
//! The Setchain servers keep several maps keyed by small fixed-size ids
//! (`ElementId`, epoch numbers, `TxId`s) that are touched a handful of times
//! per element per server — millions of operations per run. `std`'s default
//! SipHash is DoS-resistant but costs ~10× more than needed for trusted,
//! simulation-internal keys, and its per-process random seed makes iteration
//! order differ between runs. This module provides the classic `FxHash`
//! multiply-rotate hasher (as used by rustc) with a fixed seed: fast, and
//! bit-for-bit deterministic across runs — in line with the simulator's
//! reproducibility guarantee.
//!
//! Not for adversarial input: anything keyed by attacker-controlled bytes
//! should stay on the default hasher. The reason is structural: a bucket
//! index is the hash's low bits, and multiplication only carries upwards, so
//! the low bits of the result depend on the low bits of the key alone. Keys
//! that differ only in their high bits — `ElementId`s with the same sequence
//! number and different client indices — share one probe sequence, and
//! inserting `n` of them costs `n²`.
//!
//! What is still keyed through it, and why that is safe or bounded:
//!
//! * epoch numbers (`SetchainState::proofs`, the trace's
//!   `epoch_committed` / `epoch_consolidated`) — minted by the servers, dense;
//! * `ProcessId`s (`ServerCore::client_keys`, `QuotaState::clients`, simnet's
//!   overflow slots) — registered or network-authenticated identities;
//! * digests (`AdmissionCache::roots`, the mempool's `TxId` sets) — hash
//!   outputs, though a *claimed* batch root is sender-chosen;
//! * `ElementId`s only in per-call scratch sets (`extract_epoch_candidates`'
//!   in-batch dedup, `admit_batch_elements`' rejected ids), bounded by one
//!   block's elements.
//!
//! The grow-only `ElementId` maps — `the_set`, the admission cache, the
//! trace's per-element maps — are `setchain::IdMap`s, whose hash fallback is
//! keyed through a full-avalanche finaliser because those ids are chosen by
//! the sender.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` function: rotate, xor, multiply per word.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_one(v: impl std::hash::Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_ne!(hash_one(42u64), hash_one(43u64));
        assert_ne!(hash_one((1u64, 2u64)), hash_one((2u64, 1u64)));
        assert_ne!(hash_one(0u64), hash_one(1u64));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(
            hash_one(b"abcdefghij".as_slice()),
            hash_one(b"abcdefghij".as_slice())
        );
        assert_ne!(
            hash_one(b"abcdefghij".as_slice()),
            hash_one(b"abcdefghik".as_slice())
        );
        // Tail shorter than one word still participates.
        assert_ne!(
            hash_one(b"abcdefgh1".as_slice()),
            hash_one(b"abcdefgh2".as_slice())
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(7, "seven");
        assert_eq!(map.get(&7), Some(&"seven"));
        let mut set: FxHashSet<u128> = FxHashSet::default();
        assert!(set.insert(1 << 100));
        assert!(!set.insert(1 << 100));
    }
}
