//! The Setchain state maintained by every server: `the_set`, `epoch`,
//! `history` and `proofs`, plus helpers for the safety properties the paper
//! proves (Consistent-Sets, Unique-Epoch, Consistent-Gets).

use std::collections::HashSet;

use setchain_crypto::{Digest512, FxHashMap};

use crate::element::{Element, ElementId};
use crate::idmap::IdMap;
use crate::messages::GetSnapshot;
use crate::proofs::{epoch_hash, EpochProof};

/// The four components of a Setchain returned by `get()`:
/// `(the_set, history, epoch, proofs)`.
#[derive(Debug, Default)]
pub struct SetchainState {
    /// `the_set` and the reverse index in one grow-only map: every element
    /// id that has been added, mapped to the epoch it was stamped with (0 =
    /// added, not stamped yet). An id whose epoch is `<= evicted_epochs` has
    /// had its contents evicted; the id itself never leaves.
    members: IdMap<u64>,
    /// Number of stamped ids in `members` (the logical size of `history`).
    stamped: u64,
    /// Current epoch number (`history` holds epochs `1..=epoch`).
    epoch: u64,
    /// `history[i - 1]` holds the elements stamped with epoch `i`.
    history: Vec<Vec<Element>>,
    /// `epoch_digests[i - 1]` caches `Hash(i, history[i])`, computed exactly
    /// once when the epoch is recorded. Every proof made or verified for the
    /// epoch reuses it instead of re-hashing the elements.
    epoch_digests: Vec<Digest512>,
    /// Epoch-proofs received, per epoch, at most one per signer. The inner
    /// collection is a `Vec` so `proofs_for` can hand out a borrowed slice;
    /// signer sets are tiny (≤ n servers) so the linear dedup is cheap.
    proofs: FxHashMap<u64, Vec<EpochProof>>,
    /// Bounded-memory mode: epochs `1..=evicted_epochs` have had their
    /// `history` entries evicted (they live in the persistent store instead;
    /// ids, digests and proofs stay resident). Eviction is strictly
    /// prefix-ordered. 0 (always, without a store) means fully resident.
    evicted_epochs: u64,
}

impl SetchainState {
    /// Creates an empty state (`the_set = ∅`, `epoch = 0`, `history = ∅`,
    /// `proofs = ∅`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of elements in `the_set` (grow-only: eviction never shrinks
    /// it).
    pub fn the_set_len(&self) -> usize {
        self.members.len()
    }

    /// True if `the_set` contains the element.
    pub fn contains(&self, id: &ElementId) -> bool {
        self.members.contains_key(id)
    }

    /// Adds an element id to `the_set`. Returns true if it was new.
    pub fn insert(&mut self, id: ElementId) -> bool {
        if self.members.contains_key(&id) {
            return false;
        }
        self.members.insert(id, 0);
        true
    }

    /// True if the element has already been stamped with an epoch (the
    /// algorithms' `e ∈ history` check), resident or evicted.
    pub fn in_history(&self, id: &ElementId) -> bool {
        self.epoch_of(id).is_some()
    }

    /// True when `id` was stamped into an epoch whose contents have since
    /// been evicted from RAM. Membership verdicts do not depend on it.
    pub fn was_evicted(&self, id: &ElementId) -> bool {
        self.epoch_of(id).is_some_and(|e| e <= self.evicted_epochs)
    }

    /// The epoch an element was stamped with, if any.
    pub fn epoch_of(&self, id: &ElementId) -> Option<u64> {
        self.members.get(id).copied().filter(|&e| e > 0)
    }

    /// Elements of epoch `i` (1-based), if it exists *and is resident* —
    /// `None` for epochs evicted to the persistent store (callers with a
    /// store fall back to reading the segment log).
    pub fn epoch_elements(&self, epoch: u64) -> Option<&[Element]> {
        if epoch <= self.evicted_epochs || epoch > self.epoch {
            return None;
        }
        Some(&self.history[(epoch - 1) as usize])
    }

    /// Total number of elements across all epochs (logical: evicted epochs
    /// still count).
    pub fn history_elements(&self) -> u64 {
        self.stamped
    }

    /// Creates a new epoch from `elements`, inserting them into `the_set`
    /// (Consistent-Sets requires `history ⊆ the_set`) and recording the
    /// reverse index. Returns the new epoch number.
    ///
    /// Callers are responsible for having filtered out elements already in
    /// `history` (Unique-Epoch); this is asserted in debug builds.
    pub fn record_epoch(&mut self, elements: Vec<Element>) -> u64 {
        self.epoch += 1;
        for e in &elements {
            let previous = self.members.insert(e.id, self.epoch);
            debug_assert!(
                previous.unwrap_or(0) == 0,
                "element {:?} stamped twice",
                e.id
            );
        }
        self.stamped += elements.len() as u64;
        // The epoch digest is computed exactly once, here; every proof site
        // (signing our own proof, verifying up to n peer proofs) reuses it.
        self.epoch_digests.push(epoch_hash(self.epoch, &elements));
        self.history.push(elements);
        self.epoch
    }

    /// Installs one epoch recovered through the catch-up protocol. The
    /// caller must already have verified the bundle against `f + 1` valid
    /// epoch-proof signers; this method only enforces sequencing: catch-up
    /// replays strictly in order, so `epoch` must be exactly
    /// `self.epoch + 1`. Returns `false` (state untouched) otherwise.
    pub fn install_epoch(&mut self, epoch: u64, elements: Vec<Element>) -> bool {
        if epoch != self.epoch + 1 {
            return false;
        }
        self.record_epoch(elements);
        true
    }

    /// Number of epochs whose elements have been evicted to the persistent
    /// store (a strict prefix `1..=evicted_epochs` of the history).
    pub fn evicted_epochs(&self) -> u64 {
        self.evicted_epochs
    }

    /// True if the epoch's elements are resident in RAM (false for epoch 0,
    /// unknown epochs, and evicted epochs).
    pub fn epoch_is_resident(&self, epoch: u64) -> bool {
        epoch > self.evicted_epochs && epoch <= self.epoch
    }

    /// Bounded-memory mode: drops epoch `epoch`'s `history` entry from RAM,
    /// keeping the digest, the proofs and the ids (`the_set` is grow-only).
    /// Returns the number of elements evicted.
    ///
    /// The caller owns two obligations: the epoch must already be durable
    /// in the persistent store (readback falls back to it), and eviction
    /// proceeds strictly in epoch order — `epoch` must be
    /// exactly `evicted_epochs() + 1` and an existing epoch. The logical
    /// sizes ([`Self::the_set_len`], [`Self::history_elements`]) are
    /// unchanged by eviction.
    pub fn evict_epoch(&mut self, epoch: u64) -> usize {
        assert_eq!(
            epoch,
            self.evicted_epochs + 1,
            "eviction is strictly prefix-ordered"
        );
        assert!(epoch <= self.epoch, "cannot evict an epoch not yet held");
        self.evicted_epochs = epoch;
        std::mem::take(&mut self.history[(epoch - 1) as usize]).len()
    }

    /// The cached digest `Hash(i, history[i])` of epoch `i` (1-based), if the
    /// epoch exists.
    pub fn epoch_digest(&self, epoch: u64) -> Option<&Digest512> {
        if epoch == 0 || epoch > self.epoch {
            return None;
        }
        self.epoch_digests.get((epoch - 1) as usize)
    }

    /// Records an epoch-proof. Returns the number of distinct signers now
    /// known for that epoch.
    pub fn add_proof(&mut self, proof: EpochProof) -> usize {
        let per_epoch = self.proofs.entry(proof.epoch).or_default();
        if !per_epoch.iter().any(|p| p.signer == proof.signer) {
            per_epoch.push(proof);
        }
        per_epoch.len()
    }

    /// Number of distinct proof signers for `epoch`.
    pub fn proof_count(&self, epoch: u64) -> usize {
        self.proofs.get(&epoch).map(|m| m.len()).unwrap_or(0)
    }

    /// The proofs held for `epoch`, borrowed — no clone per call. Callers
    /// that need ownership (e.g. to ship the proofs to a client) copy
    /// explicitly with `.to_vec()`.
    pub fn proofs_for(&self, epoch: u64) -> &[EpochProof] {
        self.proofs.get(&epoch).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of proofs held across all epochs.
    pub fn proofs_total(&self) -> u64 {
        self.proofs.values().map(|m| m.len() as u64).sum()
    }

    /// Number of epochs with at least `quorum` proofs.
    pub fn epochs_with_quorum(&self, quorum: usize) -> u64 {
        (1..=self.epoch)
            .filter(|i| self.proof_count(*i) >= quorum)
            .count() as u64
    }

    /// The `get()` summary returned to clients.
    pub fn snapshot(&self, quorum: usize) -> GetSnapshot {
        GetSnapshot {
            the_set_len: self.the_set_len() as u64,
            epoch: self.epoch,
            history_elements: self.history_elements(),
            proofs_total: self.proofs_total(),
            epochs_with_quorum: self.epochs_with_quorum(quorum),
        }
    }

    // ------------------------------------------------------------------
    // Property checkers (used by tests and by the verification example)
    // ------------------------------------------------------------------

    /// Property 1 (Consistent-Sets): every epoch is a subset of `the_set`.
    pub fn check_consistent_sets(&self) -> bool {
        self.history
            .iter()
            .all(|g| g.iter().all(|e| self.contains(&e.id)))
    }

    /// Property 5 (Unique-Epoch): epochs are pairwise disjoint.
    pub fn check_unique_epoch(&self) -> bool {
        let mut seen = HashSet::new();
        for g in &self.history {
            for e in g {
                if !seen.insert(e.id) {
                    return false;
                }
            }
        }
        true
    }

    /// Property 6 (Consistent-Gets) between two servers: the common prefix of
    /// epochs must be identical (as sets). Epochs either side has evicted
    /// to its store are skipped — only resident history can be compared
    /// here (differential tests of evicting runs compare epoch *digests*,
    /// which are never evicted, instead).
    pub fn check_consistent_with(&self, other: &SetchainState) -> bool {
        let common = self.epoch.min(other.epoch);
        let start = self.evicted_epochs.max(other.evicted_epochs) + 1;
        for i in start..=common {
            let a: HashSet<ElementId> = self
                .epoch_elements(i)
                .expect("epoch in range")
                .iter()
                .map(|e| e.id)
                .collect();
            let b: HashSet<ElementId> = other
                .epoch_elements(i)
                .expect("epoch in range")
                .iter()
                .map(|e| e.id)
                .collect();
            if a != b {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementId;
    use crate::proofs::make_epoch_proof;
    use setchain_crypto::{KeyRegistry, ProcessId};

    fn elements(range: std::ops::Range<u64>) -> Vec<Element> {
        let reg = KeyRegistry::bootstrap(1, 1, 1);
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        range
            .map(|i| Element::new(&keys, ElementId::new(0, i), 400, i))
            .collect()
    }

    #[test]
    fn empty_state_snapshot() {
        let st = SetchainState::new();
        assert_eq!(st.epoch(), 0);
        assert_eq!(st.the_set_len(), 0);
        assert_eq!(st.epoch_elements(0), None);
        assert_eq!(st.epoch_elements(1), None);
        let snap = st.snapshot(2);
        assert_eq!(snap.epoch, 0);
        assert!(st.check_consistent_sets());
        assert!(st.check_unique_epoch());
    }

    #[test]
    fn record_epoch_updates_everything() {
        let mut st = SetchainState::new();
        let es = elements(0..5);
        let epoch = st.record_epoch(es.clone());
        assert_eq!(epoch, 1);
        assert_eq!(st.epoch(), 1);
        assert_eq!(st.history_elements(), 5);
        assert_eq!(st.epoch_elements(1).unwrap().len(), 5);
        for e in &es {
            assert!(st.contains(&e.id));
            assert!(st.in_history(&e.id));
            assert_eq!(st.epoch_of(&e.id), Some(1));
        }
        assert!(st.check_consistent_sets());
        assert!(st.check_unique_epoch());
        // Second, disjoint epoch.
        let epoch2 = st.record_epoch(elements(5..8));
        assert_eq!(epoch2, 2);
        assert!(st.check_unique_epoch());
    }

    #[test]
    fn epoch_digests_are_cached_and_match_recomputation() {
        let mut st = SetchainState::new();
        assert!(st.epoch_digest(0).is_none());
        assert!(st.epoch_digest(1).is_none());
        let es = elements(0..5);
        st.record_epoch(es.clone());
        st.record_epoch(elements(5..7));
        assert_eq!(st.epoch_digest(1), Some(&epoch_hash(1, &es)));
        assert_eq!(
            st.epoch_digest(2),
            Some(&epoch_hash(2, st.epoch_elements(2).unwrap()))
        );
        assert!(st.epoch_digest(3).is_none());
    }

    #[test]
    fn install_epoch_is_strictly_sequential() {
        let mut st = SetchainState::new();
        let e1 = elements(0..3);
        let e2 = elements(3..5);
        // Out-of-order install is refused without touching the state.
        assert!(!st.install_epoch(2, e2.clone()));
        assert!(!st.install_epoch(0, e1.clone()));
        assert_eq!(st.epoch(), 0);
        // In-order installs behave exactly like record_epoch.
        assert!(st.install_epoch(1, e1.clone()));
        assert!(st.install_epoch(2, e2.clone()));
        assert_eq!(st.epoch(), 2);
        assert_eq!(st.epoch_digest(1), Some(&epoch_hash(1, &e1)));
        assert!(st.check_consistent_sets());
        assert!(st.check_unique_epoch());
        // Re-installing an already-held epoch is refused.
        assert!(!st.install_epoch(2, e2));
    }

    #[test]
    fn insert_tracks_the_set_independently_of_history() {
        let mut st = SetchainState::new();
        let e = elements(0..1)[0];
        assert!(st.insert(e.id));
        assert!(!st.insert(e.id));
        assert!(st.contains(&e.id));
        assert!(!st.in_history(&e.id));
        // Consistent-Sets still holds: history is empty.
        assert!(st.check_consistent_sets());
    }

    #[test]
    fn proofs_and_quorum_counting() {
        let reg = KeyRegistry::bootstrap(1, 5, 1);
        let mut st = SetchainState::new();
        let es = elements(0..3);
        st.record_epoch(es.clone());
        for i in 0..3 {
            let keys = reg.lookup(ProcessId::server(i)).unwrap();
            let count = st.add_proof(make_epoch_proof(&keys, 1, &es));
            assert_eq!(count, i + 1);
        }
        // Duplicate signer does not increase the count.
        let keys = reg.lookup(ProcessId::server(0)).unwrap();
        assert_eq!(st.add_proof(make_epoch_proof(&keys, 1, &es)), 3);
        assert_eq!(st.proof_count(1), 3);
        assert_eq!(st.proof_count(2), 0);
        assert_eq!(st.proofs_total(), 3);
        assert_eq!(st.epochs_with_quorum(3), 1);
        assert_eq!(st.epochs_with_quorum(4), 0);
        assert_eq!(st.proofs_for(1).len(), 3);
        let snap = st.snapshot(3);
        assert_eq!(snap.epochs_with_quorum, 1);
        assert_eq!(snap.proofs_total, 3);
        assert_eq!(snap.history_elements, 3);
    }

    #[test]
    fn consistency_check_between_servers() {
        let mut a = SetchainState::new();
        let mut b = SetchainState::new();
        let e1 = elements(0..4);
        let e2 = elements(4..6);
        a.record_epoch(e1.clone());
        a.record_epoch(e2.clone());
        b.record_epoch(e1.clone());
        // b is one epoch behind: still consistent on the common prefix.
        assert!(a.check_consistent_with(&b));
        assert!(b.check_consistent_with(&a));
        // Divergent epoch 2 breaks consistency once both have it.
        b.record_epoch(elements(6..8));
        assert!(!a.check_consistent_with(&b));
    }

    #[test]
    fn eviction_preserves_logical_sizes_and_digests() {
        let mut st = SetchainState::new();
        st.record_epoch(elements(0..5));
        st.record_epoch(elements(5..8));
        st.record_epoch(elements(8..12));
        let digests: Vec<_> = (1..=3).map(|e| *st.epoch_digest(e).unwrap()).collect();
        assert_eq!(st.evicted_epochs(), 0);
        assert!(st.epoch_is_resident(1));
        assert_eq!(st.evict_epoch(1), 5);
        assert_eq!(st.evict_epoch(2), 3);
        assert_eq!(st.evicted_epochs(), 2);
        // Logical sizes are unchanged; residency and direct lookups are.
        assert_eq!(st.the_set_len(), 12);
        assert_eq!(st.history_elements(), 12);
        assert!(!st.epoch_is_resident(2));
        assert!(st.epoch_is_resident(3));
        assert!(st.epoch_elements(1).is_none());
        assert!(st.epoch_elements(2).is_none());
        assert_eq!(st.epoch_elements(3).unwrap().len(), 4);
        let evicted = elements(0..5);
        assert!(st.contains(&evicted[0].id));
        assert!(st.in_history(&evicted[0].id));
        // Digests (what proofs verify against) are never evicted.
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(st.epoch_digest(i as u64 + 1), Some(d));
        }
        // Snapshot still reports logical sizes.
        let snap = st.snapshot(1);
        assert_eq!(snap.the_set_len, 12);
        assert_eq!(snap.history_elements, 12);
        // New epochs keep recording on top of the evicted prefix.
        st.record_epoch(elements(12..14));
        assert_eq!(st.epoch(), 4);
        assert_eq!(st.the_set_len(), 14);
        // Consistency checks skip the evicted prefix instead of
        // panicking, and still hold on the resident suffix.
        assert!(st.check_consistent_sets());
        assert!(st.check_unique_epoch());
        let mut full = SetchainState::new();
        full.record_epoch(elements(0..5));
        full.record_epoch(elements(5..8));
        full.record_epoch(elements(8..12));
        full.record_epoch(elements(12..14));
        assert!(st.check_consistent_with(&full));
        assert!(full.check_consistent_with(&st));
    }

    #[test]
    fn eviction_keeps_ids_in_the_set_and_marks_them_evicted() {
        let mut st = SetchainState::new();
        let es = elements(0..6);
        st.record_epoch(es[..4].to_vec());
        st.record_epoch(es[4..].to_vec());
        assert!(es
            .iter()
            .all(|e| st.contains(&e.id) && !st.was_evicted(&e.id)));
        assert_eq!(st.evict_epoch(1), 4);
        for e in &es[..4] {
            assert!(st.contains(&e.id) && st.was_evicted(&e.id));
            assert_eq!(st.epoch_of(&e.id), Some(1));
        }
        for e in &es[4..] {
            assert!(st.contains(&e.id) && !st.was_evicted(&e.id));
        }
        assert_eq!(st.the_set_len(), 6);
        assert_eq!(st.history_elements(), 6);
        // An added-but-unstamped id is neither in history nor evicted.
        let pending = ElementId::new(0, 9999);
        assert!(st.insert(pending) && !st.insert(pending));
        assert!(!st.in_history(&pending) && !st.was_evicted(&pending));
        assert_eq!((st.the_set_len(), st.history_elements()), (7, 6));
    }

    #[test]
    #[should_panic(expected = "prefix-ordered")]
    fn out_of_order_eviction_panics() {
        let mut st = SetchainState::new();
        st.record_epoch(elements(0..3));
        st.record_epoch(elements(3..5));
        let _ = st.evict_epoch(2);
    }

    #[test]
    #[should_panic(expected = "not yet held")]
    fn evicting_a_future_epoch_panics() {
        let mut st = SetchainState::new();
        let _ = st.evict_epoch(1);
    }

    #[test]
    fn unique_epoch_violation_detected() {
        let mut st = SetchainState::new();
        let es = elements(0..2);
        st.record_epoch(es.clone());
        // Bypass record_epoch's contract to simulate a buggy/Byzantine state.
        st.history.push(vec![es[0]]);
        st.epoch += 1;
        assert!(!st.check_unique_epoch());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Partitions `total` generated elements into consecutive epochs whose
        /// sizes are given by `sizes` (truncated once the elements run out).
        fn build_state(total: u64, sizes: &[usize]) -> (SetchainState, Vec<Element>) {
            let pool = elements(0..total);
            let mut st = SetchainState::new();
            let mut cursor = 0usize;
            for &size in sizes {
                if cursor >= pool.len() {
                    break;
                }
                let end = (cursor + size.max(1)).min(pool.len());
                st.record_epoch(pool[cursor..end].to_vec());
                cursor = end;
            }
            (st, pool)
        }

        proptest! {
            /// Properties 1 and 5 (Consistent-Sets, Unique-Epoch) hold for any
            /// partition of elements into epochs built through the public API,
            /// and the reverse index agrees with the history.
            #[test]
            fn prop_partition_preserves_safety_invariants(
                total in 1u64..200,
                sizes in proptest::collection::vec(1usize..40, 1..12),
            ) {
                let (st, pool) = build_state(total, &sizes);
                prop_assert!(st.check_consistent_sets());
                prop_assert!(st.check_unique_epoch());
                // Every stamped element is findable through epoch_of and its
                // epoch really contains it.
                let mut stamped = 0u64;
                for epoch in 1..=st.epoch() {
                    for e in st.epoch_elements(epoch).unwrap() {
                        prop_assert_eq!(st.epoch_of(&e.id), Some(epoch));
                        stamped += 1;
                    }
                }
                prop_assert_eq!(stamped, st.history_elements());
                prop_assert!(stamped <= pool.len() as u64);
                // Out-of-range epochs are not exposed.
                prop_assert!(st.epoch_elements(0).is_none());
                prop_assert!(st.epoch_elements(st.epoch() + 1).is_none());
            }

            /// Property 6 (Consistent-Gets): two servers that build the same
            /// epoch partition agree on every common epoch, and a server that
            /// is a prefix of another is still consistent with it.
            #[test]
            fn prop_prefix_states_are_consistent(
                total in 1u64..150,
                sizes in proptest::collection::vec(1usize..30, 1..10),
                cut in 0usize..10,
            ) {
                let (full, pool) = build_state(total, &sizes);
                let cut = cut.min(sizes.len());
                let (prefix, _) = build_state(pool.len() as u64, &sizes[..cut]);
                prop_assert!(full.check_consistent_with(&prefix));
                prop_assert!(prefix.check_consistent_with(&full));
                prop_assert!(prefix.epoch() <= full.epoch());
            }

            /// Proof bookkeeping: distinct signers accumulate, duplicates do
            /// not, and the quorum counter matches a recount.
            #[test]
            fn prop_proof_counting(signers in proptest::collection::vec(0usize..8, 0..40)) {
                let reg = KeyRegistry::bootstrap(3, 8, 1);
                let mut st = SetchainState::new();
                let es = elements(0..4);
                st.record_epoch(es.clone());
                for &s in &signers {
                    let keys = reg.lookup(ProcessId::server(s)).unwrap();
                    st.add_proof(make_epoch_proof(&keys, 1, &es));
                }
                let distinct: std::collections::HashSet<_> = signers.iter().collect();
                prop_assert_eq!(st.proof_count(1), distinct.len());
                prop_assert_eq!(st.proofs_for(1).len(), distinct.len());
                for quorum in 1..=9usize {
                    let expected = if distinct.len() >= quorum { 1 } else { 0 };
                    prop_assert_eq!(st.epochs_with_quorum(quorum), expected);
                }
            }
        }
    }
}
