//! The per-server element admission cache: the paper's `valid_element(e)`
//! as a server applies it, memoized.
//!
//! Every server must check each element's client authenticator (an HMAC)
//! before admitting it — the validation floor of the whole pipeline. An
//! element reaches a server many times (its own client `add`, peer batches,
//! block processing, re-gossip), so the verdict is memoized: the modelled
//! server checks the HMAC once, at its first arrival, and every later
//! arrival is a cache probe. The host follows the model, except that for an
//! element of a shared batch it reads the verdict the batch remembers (see
//! [`Batch`]), and every server still counts and pays its own miss. A
//! Hashchain or Compresschain batch leaves its origin's collector with
//! every verdict known, since the origin admitted each element through this
//! cache; a Vanilla block's verdicts are computed by the first server to
//! miss each element.
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
//! registers later, so the verdict rule below derives them again at every
//! miss. Replacing an already-registered key mid-run is not supported.
//!
//! What is **not kept**: the verdict of an element once it is stamped into
//! an epoch. The paper's `add(e)` needs `e ∉ the_set` and every epoch takes
//! only ids `∉ history`, so a stamped id's verdict can never decide anything
//! again; the server tests `history` before every lookup and
//! [`forget`](AdmissionCache::forget)s each verdict as its element is
//! stamped. The cache therefore holds the ids a server has seen but not yet
//! stamped, plus the rejected ones.

use std::collections::hash_map::Entry;

use setchain_crypto::{FxHashMap, HmacSha256Key, KeyRegistry, ProcessId};

use crate::collector::Batch;
use crate::element::{Element, ElementId};
use crate::idmap::IdMap;

/// One memoized admission verdict: the exact identity of the element that
/// was validated, plus the verdict. One 32-byte [`IdMap`] slot per element
/// (29 bytes of fields, the `bool`'s spare values mark an empty slot),
/// bounded by the ids a server has seen but not stamped plus the ids it
/// rejected.
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

/// Memoized admission verdicts for one server (see the module docs).
#[derive(Default)]
pub struct AdmissionCache {
    entries: IdMap<AdmissionEntry>,
    /// HMAC key schedules, one per registered (non-server) client this
    /// server has checked an element of. Bounded by the number of clients.
    client_keys: FxHashMap<ProcessId, HmacSha256Key>,
    /// Reused (verdict slot, element index) scratch of the misses of one
    /// [`Self::verdicts`] call.
    miss_scratch: Vec<(usize, usize)>,
    hits: u64,
    misses: u64,
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

    /// Number of cached verdicts held in the element index's hash fallback
    /// rather than its per-client rows.
    pub fn fallback_len(&self) -> usize {
        self.entries.fallback_len()
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

    /// `valid_element` of `elements[i]` into `out[slot]`, for the `slot`-th
    /// `i` of `picks`. Every lookup happens before any miss is checked, so
    /// an element picked twice counts one miss per copy. `memo` is the batch
    /// `elements` belong to, when they do: a miss then reads the verdict it
    /// remembers (known since the origin's admission for a flushed batch,
    /// else computed by the first server that missed it). Either way the
    /// verdict is cached as [`Self::rule`] computes it.
    pub(crate) fn verdicts(
        &mut self,
        registry: &KeyRegistry,
        elements: &[Element],
        memo: Option<&Batch>,
        picks: impl ExactSizeIterator<Item = usize>,
        out: &mut [bool],
    ) {
        debug_assert!(memo.is_none_or(|b| std::ptr::eq(b.elements.as_slice(), elements)));
        debug_assert_eq!(picks.len(), out.len());
        let mut misses = std::mem::take(&mut self.miss_scratch);
        debug_assert!(misses.is_empty());
        for (slot, i) in picks.enumerate() {
            match self.lookup(&elements[i]) {
                Some(verdict) => out[slot] = verdict,
                None => misses.push((slot, i)),
            }
        }
        for &(slot, i) in &misses {
            let e = &elements[i];
            let (verdict, stable) = match memo {
                Some(batch) => batch.verdict(i, || self.rule(registry, e)),
                None => self.rule(registry, e),
            };
            if stable {
                self.record(e, verdict);
            }
            out[slot] = verdict;
        }
        misses.clear();
        self.miss_scratch = misses;
    }

    /// The one verdict rule: `e.is_valid(registry)`, through the claimed
    /// client's cached key schedule. The second value says whether the
    /// verdict is stable enough to memoize: verdicts backed by a key
    /// schedule or by an intrinsic property (degenerate size, server-claimed)
    /// are; a `false` that merely reflects the client being absent from the
    /// registry is not — the client may register later, and `is_valid` would
    /// then change its answer. Unknown clients get no schedule either.
    fn rule(&mut self, registry: &KeyRegistry, e: &Element) -> (bool, bool) {
        if !e.size_in_bounds() || e.client.is_server() {
            return (false, true);
        }
        let key = match self.client_keys.entry(e.client) {
            Entry::Occupied(key) => key.into_mut(),
            Entry::Vacant(slot) => match registry.lookup(e.client) {
                Some(pair) => slot.insert(HmacSha256Key::new(&pair.secret.0)),
                None => return (false, false),
            },
        };
        (e.auth_matches(key), true)
    }

    /// The cached verdict for exactly this element, if present. A `None`
    /// means the caller must validate and then [`record`](Self::record).
    #[inline]
    fn lookup(&mut self, e: &Element) -> Option<bool> {
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
    fn record(&mut self, e: &Element, verdict: bool) {
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

    /// Drops the verdict cached under `id`, if any: its element was just
    /// stamped, so no lookup will ask for it again.
    #[inline]
    pub fn forget(&mut self, id: &ElementId) {
        self.entries.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn forgotten_verdict_misses_and_frees_its_slot() {
        let mut cache = AdmissionCache::new();
        let (e, other) = (client_element(3), client_element(4));
        cache.record(&e, true);
        cache.record(&other, true);
        cache.forget(&e.id);
        cache.forget(&ElementId::new(0, 99));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&e), None);
        assert_eq!(cache.lookup(&other), Some(true));
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
}
