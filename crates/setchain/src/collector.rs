//! The collector: a per-server buffer of elements and epoch-proofs that is
//! flushed into a batch when it reaches the configured size (the paper's
//! `collector_limit`) or when a timeout fires.
//!
//! Compresschain compresses the flushed batch; Hashchain hashes it. In both
//! cases the batch that leaves the collector is what eventually becomes an
//! epoch.
//!
//! A flushed batch is shared: every server that learns it holds the origin's
//! `Arc<Batch>`. The batch therefore remembers, for the host, what every
//! server computes from its bytes alike — its [`epoch_root`], its
//! [`batch_hash`] and each element's authenticator verdict — so the host
//! computes each once per run. A flushed batch starts with every element's
//! verdict known: only elements the origin admitted through `add(e)` reach
//! a collector, and the origin checked each authenticator there. The
//! modelled servers still pay for each of them, at every server.
//!
//! A batch that becomes an epoch also holds, for the servers that record
//! it, the longest list of epoch-proofs one of them has received for it.
//! A server whose proofs so far are that list's prefix, and whose next
//! proof is the list's next entry, adopts the list instead of copying it
//! (see `Batch::extend_epoch_proofs`), so the servers that ingest the
//! same proofs in the same order hold one list per epoch. Every proof in
//! such a list was found valid against the epoch's digest, so the list is
//! also the host's memo of those verdicts (see `Batch::holds_epoch_proof`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use setchain_crypto::{Digest256, Digest512, Sha512};
use setchain_simnet::SimTime;

use crate::element::Element;
use crate::proofs::{epoch_root, EpochProof, EPOCH_PROOF_WIRE_LEN};

/// Canonical hash of a batch: `SHA-512(domain ‖ count ‖ root ‖ proofs)`,
/// where `root` is [`epoch_root`] of the elements — the chunked SHA-256
/// Merkle root over their packed identities in ascending-id order. Only the
/// fixed-size header goes through SHA-512; no element byte does.
///
/// Like an epoch, a batch is committed to as a set: reordering elements of
/// distinct ids keeps the hash, while any field of any element, the
/// multiplicity of an element, the order of same-id twins and every proof
/// byte move it. Because the root is the one the epoch digest is built
/// from, a batch that becomes an epoch whole is hashed once (see
/// [`ServerCore::create_epoch`](crate::ServerCore::create_epoch)). CPU cost
/// is charged separately against the full batch wire size, so hashing the
/// compact representation here does not distort the performance model.
///
/// A shared batch reads its hash through `Batch::hash`, which computes it
/// once per batch.
pub fn batch_hash(elements: &[Element], proofs: &[EpochProof]) -> Digest512 {
    hash_for_root(elements.len(), &epoch_root(elements), proofs)
}

/// [`batch_hash`] finished from the elements' count and root.
fn hash_for_root(count: usize, root: &Digest256, proofs: &[EpochProof]) -> Digest512 {
    let mut h = Sha512::new();
    h.update(b"setchain-batch");
    h.update(&(count as u64).to_le_bytes());
    h.update(root.as_bytes());
    h.update(&(proofs.len() as u64).to_le_bytes());
    let mut packed = [0u8; 16];
    for p in proofs {
        packed[..8].copy_from_slice(&p.epoch.to_le_bytes());
        packed[8..16].copy_from_slice(&p.signer.0.to_le_bytes());
        h.update(&packed);
        h.update(&p.signature.bytes);
    }
    h.finalize()
}

/// A batch drained from the collector, the elements of a committed Vanilla
/// block (see [`crate::vanilla`]), or an epoch's elements: every epoch in
/// [`SetchainState`](crate::SetchainState) is a batch, the one it was cut
/// from when nothing was filtered out of it, else a batch of the survivors.
///
/// Build one with [`Batch::new`] (or [`Default`]). `Clone` copies the
/// contents and starts with an empty memo, so a clone can be tampered with
/// freely; only [`Collector::flush`] hands out a batch whose element
/// verdicts are known from the start. The memo assumes the contents no
/// longer change once it has been read: a batch is read through it only
/// once it is shared behind an `Arc`, and debug builds check every read
/// against a fresh computation.
#[derive(Debug, Default)]
pub struct Batch {
    /// Elements, in collection order.
    pub elements: Vec<Element>,
    /// Epoch-proofs, in collection order.
    pub proofs: Vec<EpochProof>,
    /// What the host has computed from the contents, once per run.
    memo: Memo,
}

/// The host's memo of one batch: each value is computed by the first reader
/// (the element verdicts of a flushed batch, by the origin's admission) and
/// read by every later one.
#[derive(Debug, Default)]
struct Memo {
    root: OnceLock<Digest256>,
    hash: OnceLock<Digest512>,
    /// Two bits per element, 32 elements to a word: bit `2i` says element
    /// `i`'s verdict is known, bit `2i + 1` holds it. Allocated by the first
    /// verdict read, or filled when the collector flushes the batch.
    /// Atomic because one verdict is added at a time through a shared
    /// `Arc`.
    verdicts: OnceLock<Box<[AtomicU64]>>,
    /// The longest epoch-proof list a server recording this batch as an
    /// epoch has built, which the others adopt while their proofs are its
    /// prefix (see [`Batch::extend_epoch_proofs`]), and whose entries they
    /// read as valid (see [`Batch::holds_epoch_proof`]). A `Mutex` because
    /// a longer list replaces it through a shared `Arc`.
    epoch_proofs: Mutex<Option<Arc<[EpochProof]>>>,
}

/// Elements per word of [`Memo::verdicts`].
const VERDICTS_PER_WORD: usize = 32;

/// [`Memo::verdicts`] words with each of `count` elements known valid.
fn all_valid(count: usize) -> Box<[AtomicU64]> {
    (0..count.div_ceil(VERDICTS_PER_WORD))
        .map(|word| match count - word * VERDICTS_PER_WORD {
            n if n >= VERDICTS_PER_WORD => AtomicU64::new(u64::MAX),
            n => AtomicU64::new((1 << (2 * n)) - 1),
        })
        .collect()
}

impl Clone for Batch {
    fn clone(&self) -> Self {
        Batch::new(self.elements.clone(), self.proofs.clone())
    }
}

/// `cell`'s value, computed by `compute` on the first read. In debug builds
/// a later read is checked against a fresh computation.
fn memoized<T: Copy + PartialEq + std::fmt::Debug>(
    cell: &OnceLock<T>,
    compute: impl Fn() -> T,
) -> T {
    if let Some(value) = cell.get() {
        debug_assert_eq!(*value, compute(), "a batch memo is stale");
        return *value;
    }
    *cell.get_or_init(compute)
}

impl Batch {
    /// A batch of `elements` and `proofs`, with an empty memo.
    pub fn new(elements: Vec<Element>, proofs: Vec<EpochProof>) -> Self {
        Batch {
            elements,
            proofs,
            memo: Memo::default(),
        }
    }

    /// [`epoch_root`] of the elements, computed once per batch.
    ///
    /// This and [`Self::hash`] are host shortcuts: every server that needs
    /// the value still charges its modelled cost (`hash_cost` of the batch
    /// or epoch) where it needs it.
    pub(crate) fn root(&self) -> Digest256 {
        memoized(&self.memo.root, || epoch_root(&self.elements))
    }

    /// [`batch_hash`] of the contents, computed once per batch and finished
    /// from [`Self::root`].
    pub(crate) fn hash(&self) -> Digest512 {
        memoized(&self.memo.hash, || {
            hash_for_root(self.elements.len(), &self.root(), &self.proofs)
        })
    }

    /// Element `i`'s authenticator verdict and whether it is stable, read
    /// from the memo or computed by `check` (the server's own rule, which
    /// returns the same pair). Only a stable verdict is remembered: one
    /// that depends on a client being absent from the registry is
    /// computed again at every read. A remembered verdict is stable by
    /// construction; debug builds check it against `check`.
    pub(crate) fn verdict(&self, i: usize, check: impl FnOnce() -> (bool, bool)) -> (bool, bool) {
        let words = self.memo.verdicts.get_or_init(|| {
            let words = self.elements.len().div_ceil(VERDICTS_PER_WORD);
            (0..words).map(|_| AtomicU64::new(0)).collect()
        });
        let word = &words[i / VERDICTS_PER_WORD];
        let shift = 2 * (i % VERDICTS_PER_WORD);
        let bits = word.load(Ordering::Relaxed) >> shift;
        if bits & 1 != 0 {
            let memo = (bits & 2 != 0, true);
            debug_assert_eq!(memo, check(), "a batch verdict memo is stale");
            return memo;
        }
        let (verdict, stable) = check();
        if stable {
            // One `fetch_or` sets both bits, so a reader never sees a known
            // bit without its verdict; the word publishes nothing else, so
            // `Relaxed` is enough.
            word.fetch_or((1 | (verdict as u64) << 1) << shift, Ordering::Relaxed);
        }
        (verdict, stable)
    }

    /// The epoch-proof list of a server that records this batch as an
    /// epoch, holds `held` and has just received `proof`, a signer `held`
    /// lacks: `held` followed by `proof`. The memo's list is returned when
    /// it starts with exactly those proofs, so servers that receive the
    /// same proofs in the same order share one list; otherwise a new list
    /// is built, and kept in the memo if it is the longest so far.
    pub(crate) fn extend_epoch_proofs(
        &self,
        held: &[EpochProof],
        proof: EpochProof,
    ) -> Arc<[EpochProof]> {
        let mut slot = self.memo.epoch_proofs.lock();
        let k = held.len();
        if let Some(list) = slot.as_ref() {
            if list.len() > k && list[..k] == *held && list[k] == proof {
                return Arc::clone(list);
            }
        }
        let list: Arc<[EpochProof]> = held.iter().copied().chain([proof]).collect();
        if slot
            .as_ref()
            .is_none_or(|longest| longest.len() < list.len())
        {
            *slot = Some(Arc::clone(&list));
        }
        list
    }

    /// True if `proof` is in the memo's epoch-proof list: a server that
    /// records this batch as the proof's epoch found it valid against the
    /// epoch's digest, `epoch_hash_for_root(e, root)` of this batch, so it
    /// is valid at every server that records the same allocation.
    pub(crate) fn holds_epoch_proof(&self, proof: &EpochProof) -> bool {
        self.memo
            .epoch_proofs
            .lock()
            .as_ref()
            .is_some_and(|list| list.contains(proof))
    }

    /// Number of entries (elements plus proofs).
    pub fn len(&self) -> usize {
        self.elements.len() + self.proofs.len()
    }

    /// True if the batch holds nothing.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty() && self.proofs.is_empty()
    }

    /// Total wire size of the batch contents in bytes.
    pub fn wire_size(&self) -> usize {
        self.elements.iter().map(|e| e.wire_size()).sum::<usize>()
            + self.proofs.len() * EPOCH_PROOF_WIRE_LEN
    }

    /// Wire size of the element payloads alone (what the compressor sees;
    /// proofs are high-entropy signatures accounted for uncompressed).
    pub fn element_bytes(&self) -> usize {
        self.elements.iter().map(|e| e.wire_size()).sum()
    }

    /// Materializes every element payload into `out`, in collection order.
    ///
    /// `out` is cleared first and reserved once, so a caller that keeps one
    /// encode buffer across flushes performs no per-element (and usually no
    /// per-batch) allocation. Returns the number of bytes encoded.
    pub fn encode_elements_into(&self, out: &mut Vec<u8>) -> usize {
        out.clear();
        out.reserve(self.element_bytes());
        for e in &self.elements {
            e.materialize_into(out);
        }
        out.len()
    }
}

/// Per-server collector (the paper's `batch` variable plus the `isReady`
/// condition).
#[derive(Clone, Debug)]
pub struct Collector {
    limit: usize,
    current: Batch,
    last_flush: SimTime,
    /// Every element of `current` came through [`Self::add_admitted`].
    admitted: bool,
}

impl Collector {
    /// Creates a collector that signals readiness at `limit` entries.
    pub fn new(limit: usize) -> Self {
        assert!(limit >= 1, "collector limit must be positive");
        Collector {
            limit,
            current: Batch::default(),
            last_flush: SimTime::ZERO,
            admitted: true,
        }
    }

    /// Number of entries currently collected.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// True if nothing is collected.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Adds a client element whose authenticator nobody has checked: the
    /// batch it is flushed in starts with no element verdict known.
    pub fn add_element(&mut self, element: Element) {
        self.admitted = false;
        self.current.elements.push(element);
    }

    /// Adds an element this server admitted through `add(e)`
    /// ([`ServerCore::accept_add`](crate::ServerCore::accept_add)): its
    /// authenticator verdict is known, valid and stable.
    pub(crate) fn add_admitted(&mut self, element: Element) {
        self.current.elements.push(element);
    }

    /// Adds an epoch-proof.
    pub fn add_proof(&mut self, proof: EpochProof) {
        self.current.proofs.push(proof);
    }

    /// The paper's `isReady(batch)` size condition.
    pub fn is_ready(&self) -> bool {
        self.current.len() >= self.limit
    }

    /// True if the batch is non-empty and `timeout` has elapsed since the
    /// last flush (the timeout part of `isReady`).
    pub fn is_timed_out(&self, now: SimTime, timeout: setchain_simnet::SimDuration) -> bool {
        !self.is_empty() && now.since(self.last_flush) >= timeout
    }

    /// Drains the collector, returning the batch. Panics if empty (callers
    /// check `is_ready`/`is_timed_out` first, mirroring the algorithm's
    /// `assert batch ≠ ∅`).
    ///
    /// When every element was admitted (`Self::add_admitted`), the batch
    /// starts with each element's verdict known valid, so no server that
    /// learns it recomputes an authenticator the origin already checked.
    pub fn flush(&mut self, now: SimTime) -> Batch {
        assert!(!self.current.is_empty(), "flushing an empty collector");
        self.last_flush = now;
        let batch = std::mem::take(&mut self.current);
        if std::mem::replace(&mut self.admitted, true) {
            let _ = batch.memo.verdicts.set(all_valid(batch.elements.len()));
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementId;
    use crate::proofs::make_epoch_proof;
    use setchain_crypto::{KeyRegistry, ProcessId};
    use setchain_simnet::SimDuration;

    fn element(i: u64) -> Element {
        let reg = KeyRegistry::bootstrap(5, 1, 1);
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        Element::new(&keys, ElementId::new(0, i), 438, i)
    }

    #[test]
    fn fills_and_flushes_at_limit() {
        let mut c = Collector::new(3);
        assert!(c.is_empty());
        c.add_element(element(0));
        c.add_element(element(1));
        assert!(!c.is_ready());
        c.add_element(element(2));
        assert!(c.is_ready());
        let batch = c.flush(SimTime::from_secs(1));
        assert_eq!(batch.elements.len(), 3);
        assert_eq!(batch.len(), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn proofs_count_toward_the_limit() {
        let reg = KeyRegistry::bootstrap(5, 2, 1);
        let server = reg.lookup(ProcessId::server(0)).unwrap();
        let mut c = Collector::new(2);
        c.add_element(element(0));
        c.add_proof(make_epoch_proof(&server, 1, &[]));
        assert!(c.is_ready());
        let batch = c.flush(SimTime::ZERO);
        assert_eq!(batch.elements.len(), 1);
        assert_eq!(batch.proofs.len(), 1);
        assert!(batch.wire_size() > 438);
    }

    #[test]
    fn timeout_requires_non_empty_batch() {
        let mut c = Collector::new(100);
        let timeout = SimDuration::from_millis(200);
        assert!(!c.is_timed_out(SimTime::from_secs(10), timeout));
        c.add_element(element(0));
        assert!(!c.is_timed_out(SimTime::from_millis(100), timeout));
        assert!(c.is_timed_out(SimTime::from_millis(300), timeout));
        let _ = c.flush(SimTime::from_millis(300));
        // After a flush the timeout clock restarts.
        c.add_element(element(1));
        assert!(!c.is_timed_out(SimTime::from_millis(400), timeout));
        assert!(c.is_timed_out(SimTime::from_millis(600), timeout));
    }

    #[test]
    #[should_panic(expected = "empty collector")]
    fn flushing_empty_collector_panics() {
        let mut c = Collector::new(3);
        let _ = c.flush(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_panics() {
        let _ = Collector::new(0);
    }

    /// The element verdicts `batch`'s memo holds, `None` before any is.
    fn known_verdicts(batch: &Batch) -> Option<Vec<(bool, bool)>> {
        let words = batch.memo.verdicts.get()?;
        let bits = |i: usize| {
            words[i / VERDICTS_PER_WORD].load(Ordering::Relaxed) >> (2 * (i % VERDICTS_PER_WORD))
        };
        Some(
            (0..batch.elements.len())
                .map(|i| (bits(i) & 1 != 0, bits(i) & 2 != 0))
                .collect(),
        )
    }

    #[test]
    fn only_a_flush_of_admitted_elements_starts_with_known_verdicts() {
        // Forty elements fill one verdict word and part of a second.
        let mut c = Collector::new(40);
        for i in 0..40 {
            c.add_admitted(element(i));
        }
        let flushed = c.flush(SimTime::ZERO);
        assert_eq!(known_verdicts(&flushed), Some(vec![(true, true); 40]));
        let words = flushed.memo.verdicts.get().unwrap();
        assert_eq!(
            words[1].load(Ordering::Relaxed),
            (1 << 16) - 1,
            "no bit past the last element"
        );

        // A hand-built batch and a clone know nothing.
        let built = Batch::new(flushed.elements.clone(), vec![]);
        assert_eq!(known_verdicts(&built), None);
        assert_eq!(known_verdicts(&flushed.clone()), None);

        // One element nobody checked leaves its whole batch unknown; the
        // next batch of admitted elements is known again.
        c.add_admitted(element(40));
        c.add_element(element(41));
        assert_eq!(known_verdicts(&c.flush(SimTime::ZERO)), None);
        c.add_admitted(element(42));
        assert_eq!(
            known_verdicts(&c.flush(SimTime::ZERO)),
            Some(vec![(true, true)])
        );
    }

    #[test]
    fn empty_batch_reports() {
        let b = Batch::default();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.wire_size(), 0);
        assert_eq!(b.element_bytes(), 0);
    }

    #[test]
    fn encode_elements_into_reuses_buffer_and_matches_materialize() {
        let mut c = Collector::new(3);
        for i in 0..3 {
            c.add_element(element(i));
        }
        let batch = c.flush(SimTime::ZERO);
        let expected: Vec<u8> = batch
            .elements
            .iter()
            .flat_map(|e| e.materialize())
            .collect();
        let mut buf = vec![0xFF; 8]; // stale contents must be discarded
        let n = batch.encode_elements_into(&mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(n, batch.element_bytes());
        assert_eq!(buf, expected);
    }
}
