//! The Setchain state maintained by every server: `the_set`, `epoch`,
//! `history` and `proofs`, plus helpers for the safety properties the paper
//! proves (Consistent-Sets, Unique-Epoch, Consistent-Gets).
//!
//! `history` and `proofs` are kept together, one record per epoch: the
//! epoch's elements as a [`Batch`], its digest and the epoch-proofs received
//! for it. `epoch` is the number of records.
//!
//! A record's proofs are a view: the first `held` entries of a list that
//! every server recording the same batch allocation shares while it has
//! received the same proofs in the same order (the batch's memo keeps the
//! list, see `Batch::extend_epoch_proofs`). What a server holds is still
//! exactly what it received, first proof per signer, in arrival order.
//!
//! Every proof in such a list was found valid against the digest of the
//! epoch's batch, so the lists are also the host's only memo of
//! epoch-proof verdicts: a proof a list for its epoch already holds is
//! valid at every server that records the same allocation (see
//! `SetchainState::holds_verified_proof`).

use std::sync::Arc;

use setchain_crypto::{Digest512, IdHashSet};

use crate::collector::Batch;
use crate::element::{Element, ElementId};
use crate::idmap::IdMap;
use crate::messages::GetSnapshot;
use crate::proofs::{epoch_hash_for_root, EpochProof};

// `members` holds one `Option<bool>` slot per added id; keep it one byte.
const _: () = assert!(std::mem::size_of::<Option<bool>>() == 1);

// One record per epoch per server; the shared proof list must not grow it.
const _: () = assert!(std::mem::size_of::<Epoch>() <= 96);

/// One epoch: `history[i]`, its digest and its proofs.
#[derive(Debug)]
struct Epoch {
    /// The batch whose `elements` are the epoch's. Every algorithm turns one
    /// batch into one epoch; when nothing was filtered out of it, this is
    /// that batch, which the run already holds once (Hashchain's
    /// `hash_to_batch`, Compresschain's committed block, the memo of
    /// Vanilla's committed block), so every server shares it.
    batch: Arc<Batch>,
    /// `Hash(i, history[i])`, finished from the batch's root exactly once,
    /// when the epoch is recorded. Every proof made or verified for the
    /// epoch reuses it instead of re-hashing the elements.
    digest: Digest512,
    /// The list whose first `held` entries are the epoch-proofs received,
    /// at most one per signer, in arrival order. Servers that record the
    /// same `batch` and receive the same proofs in the same order share
    /// it; signer sets are tiny (≤ n servers) so the linear dedup is cheap.
    proofs: Option<Arc<[EpochProof]>>,
    /// How many of `proofs` this server has received.
    held: u32,
}

impl Epoch {
    /// The epoch-proofs this server has received.
    fn proofs(&self) -> &[EpochProof] {
        self.proofs
            .as_deref()
            .map_or(&[], |list| &list[..self.held as usize])
    }
}

/// The four components of a Setchain returned by `get()`:
/// `(the_set, history, epoch, proofs)`.
#[derive(Debug, Default)]
pub struct SetchainState {
    /// `the_set` and `history`'s membership in one grow-only map: every
    /// element id that has been added, mapped to whether it is stamped
    /// (`false` = added, not stamped yet). The algorithms only ask
    /// `e ∈ the_set` and `e ∈ history`, so a 1-byte slot answers both; the
    /// epoch an element sits in is in `epochs` itself.
    members: IdMap<bool>,
    /// Number of stamped ids in `members` (the logical size of `history`).
    stamped: u64,
    /// `epochs[i - 1]` is epoch `i`; the current epoch number is its length.
    epochs: Vec<Epoch>,
}

impl SetchainState {
    /// Creates an empty state (`the_set = ∅`, `epoch = 0`, `history = ∅`,
    /// `proofs = ∅`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epochs.len() as u64
    }

    /// Epoch `i`'s record (1-based), if the epoch exists.
    fn record(&self, epoch: u64) -> Option<&Epoch> {
        self.epochs.get(epoch.checked_sub(1)? as usize)
    }

    /// Number of elements in `the_set` (grow-only).
    pub fn the_set_len(&self) -> usize {
        self.members.len()
    }

    /// True if `the_set` contains the element.
    pub fn contains(&self, id: &ElementId) -> bool {
        self.members.contains_key(id)
    }

    /// Adds an element id to `the_set`. Returns true if it was new.
    pub fn insert(&mut self, id: ElementId) -> bool {
        self.members.insert_if_absent(id, false)
    }

    /// Number of `the_set` ids held in the element index's hash fallback
    /// rather than its per-client rows.
    pub fn index_fallback_len(&self) -> usize {
        self.members.fallback_len()
    }

    /// True if the element has already been stamped with an epoch (the
    /// algorithms' `e ∈ history` check).
    pub fn in_history(&self, id: &ElementId) -> bool {
        self.members.get(id) == Some(&true)
    }

    /// Elements of epoch `i` (1-based), if the epoch exists.
    pub fn epoch_elements(&self, epoch: u64) -> Option<&[Element]> {
        self.record(epoch).map(|e| e.batch.elements.as_slice())
    }

    /// Total number of elements across all epochs.
    pub fn history_elements(&self) -> u64 {
        self.stamped
    }

    /// Creates a new epoch out of `batch`'s elements, inserting them into
    /// `the_set` (Consistent-Sets requires `history ⊆ the_set`) and marking
    /// them stamped. Returns the new epoch number. Only the batch's
    /// `elements` are the epoch's; its proofs are not read.
    ///
    /// Callers are responsible for having filtered out elements already in
    /// `history` (Unique-Epoch); this is asserted in debug builds.
    ///
    /// The digest is finished from the batch's memoized root, so a batch
    /// whose root the run already read is not hashed again.
    pub fn record_epoch(&mut self, batch: Arc<Batch>) -> u64 {
        for e in &batch.elements {
            let previous = self.members.insert(e.id, true);
            debug_assert!(previous != Some(true), "element {:?} stamped twice", e.id);
        }
        self.stamped += batch.elements.len() as u64;
        let epoch = self.epoch() + 1;
        // The epoch digest is computed exactly once, here; every proof site
        // (signing our own proof, verifying up to n peer proofs) reuses it.
        let digest = epoch_hash_for_root(epoch, batch.elements.len() as u64, &batch.root());
        self.epochs.push(Epoch {
            batch,
            digest,
            proofs: None,
            held: 0,
        });
        epoch
    }

    /// The cached digest `Hash(i, history[i])` of epoch `i` (1-based), if the
    /// epoch exists.
    pub fn epoch_digest(&self, epoch: u64) -> Option<&Digest512> {
        self.record(epoch).map(|e| &e.digest)
    }

    /// True if a list of epoch-proofs for `proof`'s epoch holds `proof`:
    /// this server's own, read first, or the longest one the epoch batch's
    /// memo keeps. Every entry of either was found valid against the
    /// epoch's digest, which is a function of the batch allocation (its
    /// root) and the epoch number, so `proof` is valid here too. A server
    /// whose epoch is another allocation (a filtered `G`, a batch its
    /// store replay built) finds only its own proofs.
    pub(crate) fn holds_verified_proof(&self, proof: &EpochProof) -> bool {
        self.record(proof.epoch).is_some_and(|record| {
            record
                .proofs
                .as_deref()
                .is_some_and(|own| own.contains(proof))
                || record.batch.holds_epoch_proof(proof)
        })
    }

    /// Records an epoch-proof for a recorded epoch. Returns the number of
    /// distinct signers now known for that epoch: 0 for an epoch not
    /// recorded, whose proof is not kept.
    ///
    /// The proof must be valid for the epoch's digest (the paper's
    /// `valid_proof`): every server recording the same batch allocation
    /// reads the proofs its shared list holds as valid (see
    /// `SetchainState::holds_verified_proof`).
    ///
    /// A new signer's proof extends this server's view of the shared list
    /// when it is the list's next entry, and otherwise takes the list the
    /// epoch's batch holds for this prefix and proof, or a new one.
    pub fn add_proof(&mut self, proof: EpochProof) -> usize {
        let Some(record) = proof
            .epoch
            .checked_sub(1)
            .and_then(|i| self.epochs.get_mut(i as usize))
        else {
            return 0;
        };
        let held = record.proofs();
        let k = held.len();
        if held.iter().any(|p| p.signer == proof.signer) {
            return k;
        }
        if record.proofs.as_ref().and_then(|list| list.get(k)) != Some(&proof) {
            record.proofs = Some(record.batch.extend_epoch_proofs(held, proof));
        }
        record.held += 1;
        k + 1
    }

    /// Number of distinct proof signers for `epoch`.
    pub fn proof_count(&self, epoch: u64) -> usize {
        self.proofs_for(epoch).len()
    }

    /// The proofs held for `epoch`, borrowed — no clone per call. Callers
    /// that need ownership (e.g. to ship the proofs to a client) copy
    /// explicitly with `.to_vec()`.
    pub fn proofs_for(&self, epoch: u64) -> &[EpochProof] {
        self.record(epoch).map_or(&[], Epoch::proofs)
    }

    /// Total number of proofs held across all epochs.
    pub fn proofs_total(&self) -> u64 {
        self.epochs.iter().map(|e| u64::from(e.held)).sum()
    }

    /// Number of epochs with at least `quorum` proofs.
    pub fn epochs_with_quorum(&self, quorum: usize) -> u64 {
        self.epochs
            .iter()
            .filter(|e| e.held as usize >= quorum)
            .count() as u64
    }

    /// The `get()` summary returned to clients.
    pub fn snapshot(&self, quorum: usize) -> GetSnapshot {
        GetSnapshot {
            the_set_len: self.the_set_len() as u64,
            epoch: self.epoch(),
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
        self.epochs
            .iter()
            .all(|g| g.batch.elements.iter().all(|e| self.contains(&e.id)))
    }

    /// Property 5 (Unique-Epoch): epochs are pairwise disjoint.
    pub fn check_unique_epoch(&self) -> bool {
        let mut seen = id_set(self.stamped as usize);
        self.epochs
            .iter()
            .all(|g| g.batch.elements.iter().all(|e| seen.insert(e.id)))
    }

    /// Property 6 (Consistent-Gets) between two servers: the common prefix of
    /// epochs must be identical (as sets).
    pub fn check_consistent_with(&self, other: &SetchainState) -> bool {
        let ids = |state: &SetchainState, i| {
            let elements = state.epoch_elements(i).expect("epoch in range");
            let mut set = id_set(elements.len());
            set.extend(elements.iter().map(|e| e.id));
            set
        };
        (1..=self.epoch().min(other.epoch())).all(|i| ids(self, i) == ids(other, i))
    }
}

/// A presized set of element ids, keyed through
/// [`IdHasher`](setchain_crypto::IdHasher): its full avalanche keeps
/// sender-chosen ids with equal sequence numbers apart.
fn id_set(capacity: usize) -> IdHashSet<ElementId> {
    IdHashSet::with_capacity_and_hasher(capacity, Default::default())
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::element::ElementId;
    use crate::proofs::{epoch_hash, make_epoch_proof};
    use setchain_crypto::{KeyRegistry, ProcessId};

    fn elements(range: std::ops::Range<u64>) -> Vec<Element> {
        let reg = KeyRegistry::bootstrap(1, 1, 1);
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        range
            .map(|i| Element::new(&keys, ElementId::new(0, i), 400, i))
            .collect()
    }

    /// A batch of `elements` alone, as an epoch is recorded from.
    fn batch(elements: Vec<Element>) -> Arc<Batch> {
        Arc::new(Batch::new(elements, Vec::new()))
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
        let epoch = st.record_epoch(batch(es.clone()));
        assert_eq!(epoch, 1);
        assert_eq!(st.epoch(), 1);
        assert_eq!(st.history_elements(), 5);
        assert_eq!(st.epoch_elements(1).unwrap().len(), 5);
        for e in &es {
            assert!(st.contains(&e.id));
            assert!(st.in_history(&e.id));
        }
        assert!(st.check_consistent_sets());
        assert!(st.check_unique_epoch());
        // Second, disjoint epoch: its elements are stamped only once it is
        // recorded, and the first epoch's stay stamped.
        let es2 = elements(5..8);
        assert!(es2.iter().all(|e| !st.in_history(&e.id)));
        let epoch2 = st.record_epoch(batch(es2.clone()));
        assert_eq!(epoch2, 2);
        assert_eq!(st.epoch_elements(2), Some(&es2[..]));
        assert!(es.iter().chain(&es2).all(|e| st.in_history(&e.id)));
        assert_eq!(st.history_elements(), 8);
        assert_eq!(st.the_set_len(), 8);
        assert!(st.check_unique_epoch());
    }

    #[test]
    fn epoch_digests_are_cached_and_match_recomputation() {
        let mut st = SetchainState::new();
        assert!(st.epoch_digest(0).is_none());
        assert!(st.epoch_digest(1).is_none());
        let es = elements(0..5);
        st.record_epoch(batch(es.clone()));
        st.record_epoch(batch(elements(5..7)));
        assert_eq!(st.epoch_digest(1), Some(&epoch_hash(1, &es)));
        assert_eq!(
            st.epoch_digest(2),
            Some(&epoch_hash(2, st.epoch_elements(2).unwrap()))
        );
        assert!(st.epoch_digest(3).is_none());
    }

    #[test]
    fn a_supplied_root_records_the_same_digest() {
        // A batch whose root the run already read (a shared batch at
        // consolidation) records the digest a fresh batch does.
        let mut reversed = elements(0..9);
        reversed.reverse();
        let read = batch(reversed.clone());
        read.root();
        let (mut with_root, mut fresh) = (SetchainState::new(), SetchainState::new());
        with_root.record_epoch(read);
        fresh.record_epoch(batch(reversed.clone()));
        assert_eq!(with_root.epoch_digest(1), fresh.epoch_digest(1));
        assert_eq!(with_root.epoch_digest(1), Some(&epoch_hash(1, &reversed)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a batch memo is stale")]
    fn a_foreign_root_is_caught_in_debug_builds() {
        let mut changed = Batch::new(elements(0..4), Vec::new());
        changed.root();
        changed.elements.push(elements(4..5)[0]);
        SetchainState::new().record_epoch(Arc::new(changed));
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
        st.record_epoch(batch(es.clone()));
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
    fn a_proof_for_an_unrecorded_epoch_is_not_kept() {
        let reg = KeyRegistry::bootstrap(1, 2, 1);
        let keys = reg.lookup(ProcessId::server(0)).unwrap();
        let mut st = SetchainState::new();
        // Epoch 0 never exists; epoch 1 does not exist yet.
        for epoch in [0, 1] {
            assert_eq!(st.add_proof(make_epoch_proof(&keys, epoch, &[])), 0);
        }
        let es = elements(0..3);
        st.record_epoch(batch(es.clone()));
        assert_eq!(st.proof_count(1), 0, "the early proof was dropped");
        // A proof for the epoch ahead is dropped too, and the recorded
        // epoch's proof is kept.
        assert_eq!(st.add_proof(make_epoch_proof(&keys, 2, &[])), 0);
        assert_eq!(st.add_proof(make_epoch_proof(&keys, 1, &es)), 1);
        assert_eq!(st.proof_count(2), 0);
        assert_eq!(st.proofs_total(), 1);
        assert_eq!(st.epochs_with_quorum(1), 1);
    }

    /// Server `i`'s proof for epoch 1 over `es`.
    fn proof(reg: &KeyRegistry, i: usize, es: &[Element]) -> EpochProof {
        make_epoch_proof(&reg.lookup(ProcessId::server(i)).unwrap(), 1, es)
    }

    #[test]
    fn servers_that_ingest_the_same_proofs_share_one_list() {
        let reg = KeyRegistry::bootstrap(1, 4, 1);
        let es = elements(0..3);
        let proofs: Vec<_> = (0..4).map(|i| proof(&reg, i, &es)).collect();
        let shared = batch(es.clone());
        let (mut a, mut b, mut late) = (
            SetchainState::new(),
            SetchainState::new(),
            SetchainState::new(),
        );
        for st in [&mut a, &mut b, &mut late] {
            st.record_epoch(Arc::clone(&shared));
        }
        for (k, &p) in proofs.iter().enumerate() {
            assert_eq!(a.add_proof(p), k + 1);
            assert_eq!(b.add_proof(p), k + 1);
            assert_eq!(a.proofs_for(1), &proofs[..=k]);
            assert_eq!(b.proofs_for(1), a.proofs_for(1));
        }
        assert_eq!(a.proofs_for(1).as_ptr(), b.proofs_for(1).as_ptr());
        // A server that starts after the others holds a prefix view of
        // their list from its first proof on.
        for (k, &p) in proofs.iter().enumerate() {
            assert_eq!(late.add_proof(p), k + 1);
            assert_eq!(late.proofs_for(1), &proofs[..=k]);
            assert_eq!(late.proofs_for(1).as_ptr(), a.proofs_for(1).as_ptr());
        }
        // A repeated signer, even over other bytes, changes nothing, and a
        // proof for an epoch not recorded is not kept.
        let again = proof(&reg, 2, &elements(5..6));
        assert_eq!(b.add_proof(again), 4);
        assert_eq!(b.proofs_for(1), &proofs[..]);
        assert_eq!(b.proofs_for(1).as_ptr(), a.proofs_for(1).as_ptr());
        let keys = reg.lookup(ProcessId::server(0)).unwrap();
        assert_eq!(b.add_proof(make_epoch_proof(&keys, 2, &es)), 0);
        assert_eq!(b.proofs_total(), 4);
    }

    #[test]
    fn a_server_that_ingests_in_another_order_keeps_its_own_list() {
        let reg = KeyRegistry::bootstrap(1, 3, 1);
        let es = elements(0..3);
        let proofs: Vec<_> = (0..3).map(|i| proof(&reg, i, &es)).collect();
        let shared = batch(es.clone());
        let (mut a, mut b) = (SetchainState::new(), SetchainState::new());
        a.record_epoch(Arc::clone(&shared));
        b.record_epoch(shared);
        for &p in &proofs {
            a.add_proof(p);
        }
        let order = [proofs[1], proofs[0], proofs[2]];
        for (k, &p) in order.iter().enumerate() {
            assert_eq!(b.add_proof(p), k + 1);
            assert_eq!(b.proofs_for(1), &order[..=k]);
        }
        assert_eq!(a.proofs_for(1), &proofs[..]);
        let span = |st: &SetchainState| st.proofs_for(1).as_ptr_range();
        let (ours, theirs) = (span(&a), span(&b));
        assert!(ours.end <= theirs.start || theirs.end <= ours.start);
    }

    #[test]
    fn an_epoch_on_another_allocation_never_adopts() {
        let reg = KeyRegistry::bootstrap(1, 3, 1);
        let es = elements(0..3);
        let (mut a, mut b) = (SetchainState::new(), SetchainState::new());
        a.record_epoch(batch(es.clone()));
        b.record_epoch(batch(es.clone()));
        for i in 0..3 {
            let p = proof(&reg, i, &es);
            assert_eq!(a.add_proof(p), i + 1);
            assert_eq!(b.add_proof(p), i + 1);
        }
        assert_eq!(a.proofs_for(1), b.proofs_for(1));
        assert_ne!(a.proofs_for(1).as_ptr(), b.proofs_for(1).as_ptr());
    }

    #[test]
    fn consistency_check_between_servers() {
        let mut a = SetchainState::new();
        let mut b = SetchainState::new();
        let e1 = elements(0..4);
        let e2 = elements(4..6);
        a.record_epoch(batch(e1.clone()));
        a.record_epoch(batch(e2.clone()));
        b.record_epoch(batch(e1.clone()));
        // b is one epoch behind: still consistent on the common prefix.
        assert!(a.check_consistent_with(&b));
        assert!(b.check_consistent_with(&a));
        // Divergent epoch 2 breaks consistency once both have it.
        b.record_epoch(batch(elements(6..8)));
        assert!(!a.check_consistent_with(&b));
    }

    #[test]
    fn unique_epoch_violation_detected() {
        let mut st = SetchainState::new();
        let es = elements(0..2);
        st.record_epoch(batch(es.clone()));
        // Bypass record_epoch's contract to simulate a buggy/Byzantine state.
        st.epochs.push(Epoch {
            batch: batch(vec![es[0]]),
            digest: epoch_hash(2, &es[..1]),
            proofs: None,
            held: 0,
        });
        assert!(!st.check_unique_epoch());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

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
                st.record_epoch(batch(pool[cursor..end].to_vec()));
                cursor = end;
            }
            (st, pool)
        }

        const MODEL_POOL: usize = 24;

        /// [`MODEL_POOL`] elements: half in client 0's row, half with ids far
        /// past it, which the element index keeps in its hash fallback.
        fn model_pool() -> Vec<Element> {
            let reg = KeyRegistry::bootstrap(1, 1, 1);
            let keys = reg.lookup(ProcessId::client(0)).unwrap();
            let half = MODEL_POOL as u64 / 2;
            let mut pool = elements(0..half);
            pool.extend(
                (0..half).map(|i| Element::new(&keys, ElementId::new(0, (1 << 39) + i), 400, i)),
            );
            pool
        }

        proptest! {
            /// Properties 1 and 5 (Consistent-Sets, Unique-Epoch) hold for any
            /// partition of elements into epochs built through the public API,
            /// and `in_history` agrees with the history.
            #[test]
            fn prop_partition_preserves_safety_invariants(
                total in 1u64..200,
                sizes in proptest::collection::vec(1usize..40, 1..12),
            ) {
                let (st, pool) = build_state(total, &sizes);
                prop_assert!(st.check_consistent_sets());
                prop_assert!(st.check_unique_epoch());
                // Every element of an epoch is in history, and every pool
                // element left out of the epochs is not.
                let mut stamped = HashSet::new();
                for epoch in 1..=st.epoch() {
                    for e in st.epoch_elements(epoch).unwrap() {
                        prop_assert!(st.in_history(&e.id));
                        stamped.insert(e.id);
                    }
                }
                for e in &pool {
                    prop_assert_eq!(st.in_history(&e.id), stamped.contains(&e.id));
                }
                prop_assert_eq!(stamped.len() as u64, st.history_elements());
                prop_assert!(stamped.len() <= pool.len());
                // Out-of-range epochs are not exposed.
                prop_assert!(st.epoch_elements(0).is_none());
                prop_assert!(st.epoch_elements(st.epoch() + 1).is_none());
            }

            /// Model-based membership: random `insert` and `record_epoch`
            /// calls, checked after every step against a map from each added
            /// id to whether it is stamped. An `insert` after a stamp must
            /// leave the id stamped.
            #[test]
            fn prop_membership_matches_a_model(
                ops in proptest::collection::vec(
                    (any::<bool>(), proptest::collection::vec(0usize..MODEL_POOL, 1..6)),
                    1..60,
                ),
            ) {
                let pool = model_pool();
                let mut st = SetchainState::new();
                let mut model: HashMap<ElementId, bool> = HashMap::new();
                for (stamp, picks) in ops {
                    if stamp {
                        // Callers of record_epoch leave out what history holds.
                        let mut epoch: Vec<Element> = Vec::new();
                        for e in picks.iter().map(|&i| pool[i]) {
                            if model.get(&e.id) != Some(&true) && !epoch.iter().any(|x| x.id == e.id) {
                                epoch.push(e);
                            }
                        }
                        if epoch.is_empty() {
                            continue;
                        }
                        for e in &epoch {
                            model.insert(e.id, true);
                        }
                        st.record_epoch(batch(epoch));
                    } else {
                        for e in picks.iter().map(|&i| pool[i]) {
                            prop_assert_eq!(st.insert(e.id), !model.contains_key(&e.id));
                            model.entry(e.id).or_insert(false);
                        }
                    }
                    for e in &pool {
                        prop_assert_eq!(st.contains(&e.id), model.contains_key(&e.id));
                        prop_assert_eq!(st.in_history(&e.id), model.get(&e.id) == Some(&true));
                    }
                    prop_assert_eq!(st.the_set_len(), model.len());
                    let stamped = model.values().filter(|&&s| s).count() as u64;
                    prop_assert_eq!(st.history_elements(), stamped);
                }
                prop_assert!(st.check_consistent_sets());
                prop_assert!(st.check_unique_epoch());
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
            /// not, and the quorum counter matches a recount. Two servers
            /// record one shared batch and take their proofs interleaved by
            /// `turns`: the same sequence when `follow`, else each its own,
            /// with repeated signers over either of two digests. After every
            /// add each holds exactly its own arrival order, first proof per
            /// signer; servers fed one sequence end on one list.
            #[test]
            fn prop_proof_counting(
                signers in proptest::collection::vec((0usize..8, 0usize..2), 0..40),
                others in proptest::collection::vec((0usize..8, 0usize..2), 0..40),
                follow in any::<bool>(),
                turns in proptest::collection::vec(any::<bool>(), 0..80),
            ) {
                let reg = KeyRegistry::bootstrap(3, 8, 1);
                let es = elements(0..4);
                let digests = [es.clone(), elements(4..5)];
                let proof = |(s, d): (usize, usize)| {
                    let keys = reg.lookup(ProcessId::server(s)).unwrap();
                    make_epoch_proof(&keys, 1, &digests[d])
                };
                let shared = batch(es.clone());
                let mut states = [SetchainState::new(), SetchainState::new()];
                for st in &mut states {
                    st.record_epoch(Arc::clone(&shared));
                }
                let inputs = [&signers, if follow { &signers } else { &others }];
                let mut models: [Vec<EpochProof>; 2] = Default::default();
                let mut next = [0usize; 2];
                let picks = turns
                    .iter()
                    .map(|&t| usize::from(!t))
                    .chain(std::iter::repeat_n(0, signers.len()))
                    .chain(std::iter::repeat_n(1, inputs[1].len()));
                for who in picks {
                    let Some(&pick) = inputs[who].get(next[who]) else {
                        continue;
                    };
                    next[who] += 1;
                    let p = proof(pick);
                    let model = &mut models[who];
                    if !model.iter().any(|q| q.signer == p.signer) {
                        model.push(p);
                    }
                    prop_assert_eq!(states[who].add_proof(p), model.len());
                    for (st, model) in states.iter().zip(&models) {
                        prop_assert_eq!(st.proofs_for(1), &model[..]);
                    }
                }
                if follow && !models[0].is_empty() {
                    prop_assert_eq!(
                        states[0].proofs_for(1).as_ptr(),
                        states[1].proofs_for(1).as_ptr()
                    );
                }
                let st = &states[0];
                let distinct: HashSet<_> = signers.iter().map(|&(s, _)| s).collect();
                prop_assert_eq!(st.proof_count(1), distinct.len());
                prop_assert_eq!(st.proofs_for(1).len(), distinct.len());
                prop_assert_eq!(st.proofs_total(), distinct.len() as u64);
                for quorum in 1..=9usize {
                    let expected = if distinct.len() >= quorum { 1 } else { 0 };
                    prop_assert_eq!(st.epochs_with_quorum(quorum), expected);
                }
            }
        }
    }
}
