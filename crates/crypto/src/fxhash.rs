//! Deterministic fast hashing for simulation-internal maps.
//!
//! The Setchain servers keep several maps keyed by small fixed-size ids
//! (`ElementId`s, epoch numbers, process ids) that are touched a handful of times
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
//! * epoch numbers (the trace's per-epoch records) — minted by the
//!   servers, dense;
//! * `ProcessId`s (`AdmissionCache`'s key schedules, `QuotaState::clients`)
//!   — registered or network-authenticated identities;
//! * `ElementId`s only in per-call scratch sets (`extract_epoch_candidates`'
//!   in-batch dedup, `retain_valid`'s rejected ids), bounded by one
//!   block's elements.
//!
//! The per-element `ElementId` maps — `the_set`, the admission cache, the
//! trace's per-element maps — are `setchain::IdMap`s, whose hash fallback is
//! an [`IdHashMap`], keyed through the full-avalanche [`fmix64`] because
//! those ids are chosen by the sender; so are the Setchain property
//! checks' id sets. The ledger mempool's `TxId`s are not digests either but
//! structured `(tag, client, seq)` and `(tag, epoch, signer)` values; they
//! live in `setchain_ledger::mempool::TxIdSet`, 64 consecutive ids to an
//! entry, in an [`IdHashMap`] too.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;
/// `HashMap` keyed through [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// `HashSet` keyed through [`IdHasher`].
pub type IdHashSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The 64-bit finaliser of MurmurHash3: a bijection in which every input bit
/// reaches every output bit. The tables keyed by sender-chosen ids hash
/// through it instead of [`FxHasher`] (see the module docs).
#[inline]
pub fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Hashes ids made of `u64` words: the words folded into one, then
/// [`fmix64`], in which every input bit reaches every output bit. One word
/// hashes to exactly its `fmix64` image.
///
/// Meant for ids a sender chooses, whose streams are structured: the same
/// `seq` under many clients, ids differing only above bit 40, one client's
/// ids a fixed stride apart. [`FxHasher`] multiplies once, so a
/// bucket index (the hash's low bits) sees only the key's low bits and such
/// ids share one probe sequence; here they spread. The function is fixed
/// (same table layout every run) and cheap (a flood's ids are probed as
/// often as honest ones; SipHash cost `hash_flood` 16 % of its
/// throughput). It is also invertible: it does nothing against a sender who
/// computes preimages, which only a per-process secret key would, at the
/// price of the repeatable layout.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fmix64(self.0)
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("an id hashes as u64 words");
    }

    /// Folds `word` in: an odd multiplier is a bijection, so two ids with
    /// the same last word and different earlier ones reach the finaliser
    /// apart.
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ word;
    }
}

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
    fn id_hasher_values_are_pinned() {
        // Table layouts depend on these values: one word is its fmix64
        // image, two words fold through the odd multiplier first.
        let hash_id = |words: &[u64]| {
            let mut h = IdHasher::default();
            words.iter().for_each(|&w| h.write_u64(w));
            h.finish()
        };
        let one = 3 << 40 | 17;
        assert_eq!(hash_id(&[one]), fmix64(one));
        assert_eq!(hash_id(&[one]), 0x3b47_3500_7f7b_6980);
        let (hi, lo) = (0x0001_0000_0000_0002, 0x40);
        assert_eq!(
            hash_id(&[hi, lo]),
            fmix64(hi.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lo)
        );
        assert_eq!(hash_id(&[hi, lo]), 0x2bf7_105f_7f56_270b);
        assert_eq!(
            BuildHasherDefault::<IdHasher>::default().hash_one(one),
            fmix64(one)
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
        let mut ids: IdHashSet<(u64, u64)> = IdHashSet::default();
        assert!(ids.insert((1, 2)));
        assert!(!ids.insert((1, 2)));
        let mut by_id: IdHashMap<u64, u8> = IdHashMap::default();
        by_id.insert(1 << 40, 1);
        assert_eq!(by_id.get(&(1 << 40)), Some(&1));
    }
}
