//! The per-server element admission cache.
//!
//! Every server must check each element's client authenticator (an HMAC)
//! before admitting it — the validation floor of the whole pipeline. An
//! element reaches a server many times (its own client `add`, peer batches,
//! block processing, re-gossip), so the verdict is memoized: the HMAC is
//! recomputed once per server, and every later arrival is a cache probe.
//!
//! The cache is keyed on the element id and guarded by the full identity
//! tuple `(client, size, content seed, mac)`: a hit requires *all* of them
//! to match the cached entry, so a Byzantine peer re-sending a tampered
//! element under a known id — same id, different contents or forged mac —
//! never inherits a cached `valid` verdict, and a re-gossip of a previously
//! rejected element stays rejected without ever whitelisting forgeries.
//!
//! What is deliberately **not** cached: verdicts that depend on a client
//! being absent from the PKI registry. Those can flip when the client
//! registers later, so the caller must re-derive them (see
//! [`ServerCore::element_valid`](crate::ServerCore::element_valid)).

use setchain_crypto::{Digest256, FxHashMap, ProcessId};

use crate::element::Element;
use crate::idmap::IdMap;

/// One memoized admission verdict: the exact identity of the element that
/// was validated, plus the verdict. One 32-byte [`IdMap`] slot per element
/// (29 bytes of fields, the `bool`'s spare values mark an empty slot),
/// bounded by the number of distinct element ids a server observes.
#[derive(Clone, Copy, Debug)]
struct AdmissionEntry {
    client: ProcessId,
    size: u32,
    content_seed: u64,
    auth: u64,
    verdict: bool,
}

impl AdmissionEntry {
    #[inline]
    fn matches(&self, e: &Element) -> bool {
        // The mac comparison comes first: it is the discriminating field
        // for tampered re-sends (a fabricated element under a known id
        // almost always carries a different authenticator).
        self.auth == e.auth
            && self.client == e.client
            && self.size == e.size
            && self.content_seed == e.content_seed
    }
}

/// One memoized batch-root verdict: the sealed batch's full identity —
/// owner, root MAC and the exact element list the root was verified over —
/// plus the verdict. The element list must be stored (not just the root):
/// equality against the probe is what proves the re-gossiped contents are
/// byte-identical to what was verified, without hashing anything. A
/// replayed root with swapped elements fails the comparison and falls
/// through to a fresh (failing) verification.
#[derive(Clone, Debug)]
struct RootEntry {
    client: ProcessId,
    mac: u64,
    elements: Vec<Element>,
    verdict: bool,
}

impl RootEntry {
    #[inline]
    fn matches(&self, batch: &crate::batch_auth::AuthedBatch) -> bool {
        self.mac == batch.mac && self.client == batch.client && self.elements == batch.elements
    }
}

/// Memoized admission verdicts for one server (see the module docs).
#[derive(Default)]
pub struct AdmissionCache {
    entries: IdMap<AdmissionEntry>,
    roots: FxHashMap<Digest256, RootEntry>,
    hits: u64,
    misses: u64,
    root_hits: u64,
    root_misses: u64,
}

impl AdmissionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Probes that were answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes that required a fresh authenticator check (first sight of an
    /// element, or an id re-sent with different contents).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The cached verdict for exactly this element, if present. A `None`
    /// means the caller must validate and then [`record`](Self::record).
    #[inline]
    pub fn lookup(&mut self, e: &Element) -> Option<bool> {
        match self.entries.get(&e.id) {
            Some(entry) if entry.matches(e) => {
                self.hits += 1;
                Some(entry.verdict)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records the verdict for this exact element, replacing whatever was
    /// cached under its id.
    #[inline]
    pub fn record(&mut self, e: &Element, verdict: bool) {
        self.entries.insert(
            e.id,
            AdmissionEntry {
                client: e.client,
                size: e.size,
                content_seed: e.content_seed,
                auth: e.auth,
                verdict,
            },
        );
    }

    /// The cached verdict for exactly this sealed batch, if present: same
    /// root, same owner, same MAC *and* the identical element list. On a
    /// hit, a re-gossiped batch is admitted (or re-rejected) with zero
    /// hashing — the dominant case once a batch has been verified by its
    /// first receiving server and forwarded to the peers.
    #[inline]
    pub fn lookup_root(&mut self, batch: &crate::batch_auth::AuthedBatch) -> Option<bool> {
        match self.roots.get(&batch.root) {
            Some(entry) if entry.matches(batch) => {
                self.root_hits += 1;
                Some(entry.verdict)
            }
            _ => {
                self.root_misses += 1;
                None
            }
        }
    }

    /// Records the verdict for this exact sealed batch, replacing whatever
    /// was cached under its root.
    pub fn record_root(&mut self, batch: &crate::batch_auth::AuthedBatch, verdict: bool) {
        self.roots.insert(
            batch.root,
            RootEntry {
                client: batch.client,
                mac: batch.mac,
                elements: batch.elements.clone(),
                verdict,
            },
        );
    }

    /// Number of cached batch-root verdicts.
    pub fn root_len(&self) -> usize {
        self.roots.len()
    }

    /// Batch probes answered from the root cache.
    pub fn root_hits(&self) -> u64 {
        self.root_hits
    }

    /// Batch probes that required a fresh root verification.
    pub fn root_misses(&self) -> u64 {
        self.root_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementId;
    use setchain_crypto::KeyRegistry;

    fn client_element(seq: u64) -> Element {
        let reg = KeyRegistry::bootstrap(3, 2, 2);
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        Element::new(&keys, ElementId::new(0, seq), 438, seq)
    }

    #[test]
    fn lookup_miss_then_hit_roundtrip() {
        let mut cache = AdmissionCache::new();
        let e = client_element(1);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&e), None);
        cache.record(&e, true);
        assert_eq!(cache.lookup(&e), Some(true));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn any_identity_field_change_misses() {
        let mut cache = AdmissionCache::new();
        let e = client_element(2);
        cache.record(&e, true);
        for tamper in [
            |e: &mut Element| e.auth ^= 1,
            |e: &mut Element| e.size += 1,
            |e: &mut Element| e.content_seed ^= 0xFF,
            |e: &mut Element| e.client = ProcessId::client(1),
        ] {
            let mut t = e;
            tamper(&mut t);
            assert_eq!(cache.lookup(&t), None, "tampered field must not hit");
        }
        // The genuine element still hits.
        assert_eq!(cache.lookup(&e), Some(true));
    }

    #[test]
    fn rejected_verdicts_are_cached_and_stay_rejected() {
        let mut cache = AdmissionCache::new();
        let forged = Element::forged(ProcessId::client(0), ElementId::new(0, 9), 200);
        cache.record(&forged, false);
        // Re-gossip of the same forged element: cached rejection, no
        // whitelisting.
        assert_eq!(cache.lookup(&forged), Some(false));
    }

    #[test]
    fn root_cache_hits_only_on_the_identical_sealed_batch() {
        use crate::batch_auth::AuthedBatch;
        use setchain_crypto::HmacSha256Key;

        let reg = KeyRegistry::bootstrap(3, 2, 2);
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        let key = HmacSha256Key::new(&keys.secret.0);
        let elements: Vec<Element> = (0..10)
            .map(|i| Element::new(&keys, ElementId::new(0, i), 438, i))
            .collect();
        let batch = AuthedBatch::seal(&key, keys.id, elements);

        let mut cache = AdmissionCache::new();
        assert_eq!(cache.lookup_root(&batch), None);
        cache.record_root(&batch, true);
        assert_eq!(cache.root_len(), 1);
        assert_eq!(
            cache.lookup_root(&batch),
            Some(true),
            "exact re-gossip hits"
        );

        // Same (root, mac) replayed with swapped elements: the element list
        // comparison fails, so the probe misses and the caller re-verifies.
        let mut swapped = batch.clone();
        swapped.elements.swap(0, 9);
        assert_eq!(cache.lookup_root(&swapped), None);
        // Tampered contents under the cached root likewise miss.
        let mut tampered = batch.clone();
        tampered.elements[0].auth ^= 1;
        assert_eq!(cache.lookup_root(&tampered), None);
        // A different claimed owner or MAC misses too.
        let mut stolen = batch.clone();
        stolen.client = ProcessId::client(1);
        assert_eq!(cache.lookup_root(&stolen), None);
        let mut forged = batch.clone();
        forged.mac ^= 1;
        assert_eq!(cache.lookup_root(&forged), None);

        assert_eq!(cache.root_hits(), 1);
        assert_eq!(cache.root_misses(), 5);

        // Rejections are cached the same way.
        cache.record_root(&forged, false);
        assert_eq!(cache.lookup_root(&forged), Some(false));
    }
}
