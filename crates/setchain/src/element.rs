//! Setchain elements.
//!
//! The paper uses transactions downloaded from Arbitrum as elements (average
//! size 438 bytes, standard deviation 753.5). To keep multi-million-element
//! simulations within memory, an [`Element`] stores only its identity, its
//! authenticated origin, its wire size and a content seed; the actual payload
//! bytes are *materialized on demand* (deterministically from the seed) when
//! an algorithm genuinely needs them — compressing a batch, hashing a batch —
//! so sizes, compression ratios and CPU costs are computed on real bytes
//! while the resident representation stays compact.

use serde::{Deserialize, Serialize};
use setchain_crypto::{hmac_sha256, HmacSha256Key, KeyPair, KeyRegistry, ProcessId};

/// Unique identifier of an element: the creating client's index in the high
/// bits and a per-client sequence number in the low bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct ElementId(pub u64);

impl ElementId {
    /// Builds an id from a client index and a per-client sequence number.
    pub fn new(client_index: u32, seq: u64) -> Self {
        assert!(seq < (1 << 40), "element sequence number overflow");
        ElementId(((client_index as u64) << 40) | seq)
    }

    /// The creating client's index.
    pub fn client_index(&self) -> u32 {
        (self.0 >> 40) as u32
    }

    /// The per-client sequence number.
    pub fn seq(&self) -> u64 {
        self.0 & ((1 << 40) - 1)
    }
}

/// A Setchain element: an opaque, client-signed piece of data.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Element {
    /// Unique element identifier.
    pub id: ElementId,
    /// The client that created (and signed) the element.
    pub client: ProcessId,
    /// Size of the element on the wire, in bytes (drawn from the Arbitrum
    /// size distribution by the workload generator).
    pub size: u32,
    /// Seed from which the payload bytes are materialized.
    pub content_seed: u64,
    /// Compact authenticator: the first 8 bytes of
    /// `HMAC-SHA-256(client_secret, id ‖ size ‖ seed)`. Stands in for the
    /// client's ed25519 signature over the element (see ARCHITECTURE.md,
    /// "Crypto backends"); elements forged by servers fail validation because
    /// servers do not hold client keys.
    pub auth: u64,
}

impl Element {
    fn auth_message(id: ElementId, size: u32, content_seed: u64) -> [u8; 20] {
        let mut msg = [0u8; 20];
        msg[..8].copy_from_slice(&id.0.to_le_bytes());
        msg[8..12].copy_from_slice(&size.to_le_bytes());
        msg[12..20].copy_from_slice(&content_seed.to_le_bytes());
        msg
    }

    /// Creates a new element signed by `client_keys`.
    pub fn new(client_keys: &KeyPair, id: ElementId, size: u32, content_seed: u64) -> Self {
        let msg = Self::auth_message(id, size, content_seed);
        let mac = hmac_sha256(&client_keys.secret.0, &msg);
        Element {
            id,
            client: client_keys.id,
            size,
            content_seed,
            auth: u64::from_le_bytes(mac.0[..8].try_into().expect("8 bytes")),
        }
    }

    /// [`Element::new`] through a precomputed HMAC key schedule for
    /// `client`: the client-side signing twin of the server-side
    /// [`auth_matches`](Self::auth_matches) fast path. A client that signs
    /// many elements (the workload generator, a scripted session) pays the
    /// key-pad absorptions once instead of once per element.
    pub fn new_with_key(
        key: &HmacSha256Key,
        client: ProcessId,
        id: ElementId,
        size: u32,
        content_seed: u64,
    ) -> Self {
        let msg = Self::auth_message(id, size, content_seed);
        let mac = key.mac(&msg);
        Element {
            id,
            client,
            size,
            content_seed,
            auth: u64::from_le_bytes(mac.0[..8].try_into().expect("8 bytes")),
        }
    }

    /// Creates an element with an invalid authenticator (what a Byzantine
    /// server fabricating elements would produce).
    pub fn forged(client: ProcessId, id: ElementId, size: u32) -> Self {
        Element {
            id,
            client,
            size,
            content_seed: 0,
            auth: 0xBAD0_BAD0_BAD0_BAD0,
        }
    }

    /// Size sanity check shared by every validation path.
    pub fn size_in_bounds(&self) -> bool {
        self.size != 0 && self.size <= 1_000_000
    }

    /// The paper's `valid_element(e)`: checks the client authenticator
    /// against the PKI registry and sanity-checks the size.
    pub fn is_valid(&self, registry: &KeyRegistry) -> bool {
        if !self.size_in_bounds() {
            return false;
        }
        let Some(pair) = registry.lookup(self.client) else {
            return false;
        };
        if pair.id.is_server() {
            // Servers cannot create valid elements (model assumption from
            // Section 2 of the paper).
            return false;
        }
        let msg = Self::auth_message(self.id, self.size, self.content_seed);
        let mac = hmac_sha256(&pair.secret.0, &msg);
        u64::from_le_bytes(mac.0[..8].try_into().expect("8 bytes")) == self.auth
    }

    /// Authenticator check against a precomputed HMAC key schedule for the
    /// claimed client. Callers are responsible for the size check and for
    /// having resolved the schedule from the *claimed* client's registered
    /// (non-server) key — that is what batched server-side validation does,
    /// paying the key schedule once per client instead of once per element.
    pub fn auth_matches(&self, key: &HmacSha256Key) -> bool {
        let msg = Self::auth_message(self.id, self.size, self.content_seed);
        let mac = key.mac(&msg);
        u64::from_le_bytes(mac.0[..8].try_into().expect("8 bytes")) == self.auth
    }

    /// Length of [`Element::pack`]'s fixed encoding.
    pub const PACKED_LEN: usize = 36;

    /// The element's full identity in a fixed 36-byte little-endian layout
    /// (`id ‖ client ‖ size ‖ seed ‖ auth`) — the canonical unit hashed into
    /// batch digests, epoch digests and Merkle leaves. Two elements pack
    /// equal iff every field is equal, so digests over packed bytes bind the
    /// complete identity, authenticator included.
    pub fn pack(&self) -> [u8; Self::PACKED_LEN] {
        let mut buf = [0u8; Self::PACKED_LEN];
        buf[..8].copy_from_slice(&self.id.0.to_le_bytes());
        buf[8..16].copy_from_slice(&self.client.0.to_le_bytes());
        buf[16..20].copy_from_slice(&self.size.to_le_bytes());
        buf[20..28].copy_from_slice(&self.content_seed.to_le_bytes());
        buf[28..36].copy_from_slice(&self.auth.to_le_bytes());
        buf
    }

    /// Inverse of [`Element::pack`]: rebuilds the element from its fixed
    /// 36-byte encoding. Used by the persistence layer when reading epochs
    /// back from the segment log; the layout contract (id in the first 8
    /// little-endian bytes) is what lets `setchain-store` index elements
    /// without this type.
    pub fn unpack(buf: &[u8; Self::PACKED_LEN]) -> Self {
        Element {
            id: ElementId(u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"))),
            client: ProcessId(u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"))),
            size: u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")),
            content_seed: u64::from_le_bytes(buf[20..28].try_into().expect("8 bytes")),
            auth: u64::from_le_bytes(buf[28..36].try_into().expect("8 bytes")),
        }
    }

    /// Wire size of the element in bytes.
    pub fn wire_size(&self) -> usize {
        self.size as usize
    }

    /// Materializes the payload bytes. The payload imitates an Arbitrum-style
    /// JSON transaction: structured fields with hex calldata. On the
    /// benchmark's `comp_codec` workload `setchain-compress` reaches a ratio
    /// of 1.14 on these bytes, well below the 2.5–3.5 the paper reports for
    /// Brotli on real Arbitrum data (ROADMAP item 3(i)).
    pub fn materialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size as usize);
        self.materialize_into(&mut out);
        out
    }

    /// Appends the materialized payload bytes to `out` (not cleared).
    ///
    /// This is the allocation-free path Compresschain uses to build a whole
    /// batch into one reusable encode buffer — one `reserve` on the caller's
    /// buffer instead of one `Vec` per element. The header goes through two
    /// small digit writers, not `write!`: the formatter was most of this
    /// function's cost on Compresschain's flush hot path.
    pub fn materialize_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let end = start + self.size as usize;
        out.reserve(self.size as usize);
        // {"id":"<id:016x>","from":"0x<seed:040x>","nonce":<seq>,"gas":<gas>,"data":"0x
        out.extend_from_slice(b"{\"id\":\"");
        push_hex16(out, self.id.0);
        out.extend_from_slice(b"\",\"from\":\"0x000000000000000000000000");
        push_hex16(out, self.content_seed);
        out.extend_from_slice(b"\",\"nonce\":");
        push_decimal(out, self.id.seq());
        out.extend_from_slice(b",\"gas\":");
        push_decimal(out, 21000 + (self.content_seed % 400_000));
        out.extend_from_slice(b",\"data\":\"0x");
        // Deterministic pseudo-calldata from a small xorshift: one character
        // per state byte, eight per step, then one per step (its low byte)
        // for the last bytes short of a word.
        let mut state = self.content_seed | 1;
        let mut step = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let header_end = out.len();
        out.resize(end.saturating_sub(2).max(header_end), 0);
        let mut words = out[header_end..].chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&step().to_le_bytes().map(|b| CALLDATA[b as usize]));
        }
        for slot in words.into_remainder() {
            *slot = CALLDATA[step() as u8 as usize];
        }
        out.extend_from_slice(b"\"}");
        out.truncate(end);
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Calldata character for each xorshift byte. Biased towards a small
/// alphabet so batches compress like real calldata (long zero runs and
/// repeated selectors): a byte divisible by 3 is `'0'`, any other byte
/// the hex digit of its bits 3..7.
const CALLDATA: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = if b % 3 == 0 {
            b'0'
        } else {
            HEX[(b >> 3) & 0x0F]
        };
        b += 1;
    }
    table
};

/// Appends `v` as 16 lowercase hex digits (`{:016x}`).
fn push_hex16(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 16];
    for (i, slot) in digits.iter_mut().enumerate() {
        *slot = HEX[(v >> (60 - 4 * i)) as usize & 0x0F];
    }
    out.extend_from_slice(&digits);
}

/// Appends `v` in decimal (`{}`).
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Deterministic generator of valid elements for one client, used by the
/// workload driver and by tests.
///
/// The client's HMAC key schedule is computed once at construction, so
/// generating an element costs two SHA-256 compressions instead of four —
/// element generation runs inside the measured window of every throughput
/// experiment.
#[derive(Clone)]
pub struct ElementGenerator {
    client: ProcessId,
    key: HmacSha256Key,
    client_index: u32,
    next_seq: u64,
}

impl std::fmt::Debug for ElementGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElementGenerator")
            .field("client", &self.client)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl ElementGenerator {
    /// Creates a generator for the client owning `keys`.
    pub fn new(keys: KeyPair) -> Self {
        let client_index = keys.id.client_index() as u32;
        ElementGenerator {
            client: keys.id,
            key: HmacSha256Key::new(&keys.secret.0),
            client_index,
            next_seq: 0,
        }
    }

    /// Number of elements generated so far.
    pub fn generated(&self) -> u64 {
        self.next_seq
    }

    /// Generates the next element with the given size and content seed.
    pub fn next_element(&mut self, size: u32, content_seed: u64) -> Element {
        let id = ElementId::new(self.client_index, self.next_seq);
        self.next_seq += 1;
        Element::new_with_key(&self.key, self.client, id, size, content_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `write!`-based payload writer `materialize_into` replaced, kept
    /// as the byte-for-byte reference for it.
    fn materialize_reference_into(e: &Element, out: &mut Vec<u8>) {
        use std::io::Write;
        let start = out.len();
        let end = start + e.size as usize;
        write!(
            out,
            "{{\"id\":\"{:016x}\",\"from\":\"0x{:040x}\",\"nonce\":{},\"gas\":{},\"data\":\"0x",
            e.id.0,
            e.content_seed,
            e.id.seq(),
            21000 + (e.content_seed % 400_000),
        )
        .expect("writing to a Vec cannot fail");
        let mut state = e.content_seed | 1;
        let mut chunk = [0u8; 8];
        while out.len() + 2 + chunk.len() <= end {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            for (slot, b) in chunk.iter_mut().zip(state.to_le_bytes()) {
                let nibble = if b.is_multiple_of(3) {
                    0
                } else {
                    (b >> 3) & 0x0F
                };
                *slot = HEX[nibble as usize];
            }
            out.extend_from_slice(&chunk);
        }
        while out.len() + 2 < end {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let b = state as u8;
            let nibble = if b.is_multiple_of(3) {
                0
            } else {
                (b >> 3) & 0x0F
            };
            out.push(HEX[nibble as usize]);
        }
        out.extend_from_slice(b"\"}");
        out.truncate(end);
    }

    #[test]
    fn materialize_into_matches_the_formatter_reference() {
        let keys = client_keys(&registry(), 0);
        // Sizes 64-100 truncate the header (it overruns them); the rest
        // cover the eight-byte and the byte-at-a-time calldata loops.
        for size in [64u32, 96, 100, 139, 438, 1500, 16384] {
            for seq in [0u64, (1 << 40) - 1] {
                for seed in [0u64, 1, 399_999, 400_000, u64::MAX] {
                    let e = Element::new(&keys, ElementId::new(0, seq), size, seed);
                    let mut fast = b"prefix".to_vec();
                    let mut reference = fast.clone();
                    e.materialize_into(&mut fast);
                    materialize_reference_into(&e, &mut reference);
                    assert_eq!(fast, reference, "size={size} seq={seq} seed={seed}");
                }
            }
        }
    }

    fn registry() -> KeyRegistry {
        KeyRegistry::bootstrap(7, 4, 3)
    }

    fn client_keys(reg: &KeyRegistry, i: usize) -> KeyPair {
        reg.lookup(ProcessId::client(i)).unwrap()
    }

    #[test]
    fn element_id_packing() {
        let id = ElementId::new(3, 12345);
        assert_eq!(id.client_index(), 3);
        assert_eq!(id.seq(), 12345);
        assert_ne!(ElementId::new(3, 1), ElementId::new(4, 1));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn element_id_seq_overflow_panics() {
        let _ = ElementId::new(0, 1 << 40);
    }

    #[test]
    fn valid_element_roundtrip() {
        let reg = registry();
        let keys = client_keys(&reg, 0);
        let e = Element::new(&keys, ElementId::new(0, 1), 438, 99);
        assert!(e.is_valid(&reg));
        assert_eq!(e.wire_size(), 438);
    }

    #[test]
    fn tampered_element_is_invalid() {
        let reg = registry();
        let keys = client_keys(&reg, 0);
        let mut e = Element::new(&keys, ElementId::new(0, 1), 438, 99);
        e.size = 500;
        assert!(!e.is_valid(&reg));
        let mut e2 = Element::new(&keys, ElementId::new(0, 2), 438, 99);
        e2.content_seed = 100;
        assert!(!e2.is_valid(&reg));
    }

    #[test]
    fn forged_and_server_created_elements_are_invalid() {
        let reg = registry();
        let forged = Element::forged(ProcessId::client(0), ElementId::new(0, 9), 200);
        assert!(!forged.is_valid(&reg));
        // An element "signed" with a server key is invalid by model assumption.
        let server_keys = reg.lookup(ProcessId::server(0)).unwrap();
        let e = Element::new(&server_keys, ElementId::new(1, 1), 300, 5);
        assert!(!e.is_valid(&reg));
        // Unknown client.
        let unknown = KeyPair::derive(ProcessId::client(99), 1234);
        let e2 = Element::new(&unknown, ElementId::new(99, 1), 300, 5);
        assert!(!e2.is_valid(&reg));
    }

    #[test]
    fn degenerate_sizes_are_invalid() {
        let reg = registry();
        let keys = client_keys(&reg, 0);
        let zero = Element::new(&keys, ElementId::new(0, 1), 0, 1);
        let huge = Element::new(&keys, ElementId::new(0, 2), 2_000_000, 1);
        assert!(!zero.is_valid(&reg));
        assert!(!huge.is_valid(&reg));
    }

    #[test]
    fn materialize_matches_declared_size_and_is_deterministic() {
        let reg = registry();
        let keys = client_keys(&reg, 1);
        for size in [64u32, 139, 438, 1500, 4096] {
            let e = Element::new(&keys, ElementId::new(1, size as u64), size, 42);
            let bytes = e.materialize();
            assert_eq!(bytes.len(), size as usize);
            assert_eq!(bytes, e.materialize());
        }
    }

    #[test]
    fn materialize_into_matches_materialize_and_appends() {
        let reg = registry();
        let keys = client_keys(&reg, 0);
        let mut buf = b"prefix".to_vec();
        for size in [64u32, 139, 438, 1500] {
            let e = Element::new(&keys, ElementId::new(0, size as u64), size, 7 * size as u64);
            let before = buf.len();
            e.materialize_into(&mut buf);
            assert_eq!(&buf[..6], b"prefix");
            assert_eq!(&buf[before..], e.materialize(), "size={size}");
        }
    }

    #[test]
    fn materialized_batches_compress_in_paper_range() {
        let reg = registry();
        let keys = client_keys(&reg, 1);
        let mut gen = ElementGenerator::new(keys);
        let mut batch = Vec::new();
        for i in 0..200u64 {
            let e = gen.next_element(438, 1000 + i);
            batch.extend_from_slice(&e.materialize());
        }
        // One chunk: the whole batch is one match window.
        let frame = setchain_compress::compress_chunked_with(&batch, batch.len());
        let ratio = batch.len() as f64 / frame.len() as f64;
        assert!(
            (2.0..=6.0).contains(&ratio),
            "expected a Brotli-like ratio (paper: 2.5-3.5), got {ratio:.2}"
        );
    }

    #[test]
    fn auth_matches_agrees_with_is_valid() {
        let reg = registry();
        let keys = client_keys(&reg, 0);
        let schedule = HmacSha256Key::new(&keys.secret.0);
        let good = Element::new(&keys, ElementId::new(0, 1), 438, 99);
        assert!(good.auth_matches(&schedule));
        let mut tampered = good;
        tampered.content_seed ^= 1;
        assert!(!tampered.auth_matches(&schedule));
        let forged = Element::forged(keys.id, ElementId::new(0, 2), 200);
        assert!(!forged.auth_matches(&schedule));
        assert!(good.size_in_bounds());
        assert!(!Element::forged(keys.id, ElementId::new(0, 3), 0).size_in_bounds());
    }

    #[test]
    fn pack_binds_the_full_identity() {
        let reg = registry();
        let keys = client_keys(&reg, 0);
        let e = Element::new(&keys, ElementId::new(0, 5), 438, 99);
        let packed = e.pack();
        assert_eq!(packed.len(), Element::PACKED_LEN);
        // Each field perturbation changes the packed bytes.
        for tampered in [
            Element {
                id: ElementId::new(0, 6),
                ..e
            },
            Element {
                client: ProcessId::client(1),
                ..e
            },
            Element { size: 439, ..e },
            Element {
                content_seed: 100,
                ..e
            },
            Element {
                auth: e.auth ^ 1,
                ..e
            },
        ] {
            assert_ne!(tampered.pack(), packed);
        }
        assert_eq!(e.pack(), packed, "packing is deterministic");
    }

    #[test]
    fn unpack_inverts_pack() {
        let reg = registry();
        let keys = client_keys(&reg, 1);
        for (size, seed) in [(1u32, 0u64), (438, 99), (1_000_000, u64::MAX)] {
            let e = Element::new(&keys, ElementId::new(1, seed & 0xFFFF), size, seed);
            assert_eq!(Element::unpack(&e.pack()), e);
        }
        // The store-layer contract: the first 8 packed bytes are the id.
        let e = Element::new(&keys, ElementId::new(2, 77), 438, 5);
        let packed = e.pack();
        assert_eq!(u64::from_le_bytes(packed[..8].try_into().unwrap()), e.id.0);
        assert_eq!(Element::PACKED_LEN, setchain_store::ELEMENT_LEN);
    }

    #[test]
    fn generator_produces_unique_valid_elements() {
        let reg = registry();
        let mut gen = ElementGenerator::new(client_keys(&reg, 2));
        let a = gen.next_element(438, 1);
        let b = gen.next_element(438, 1);
        assert_ne!(a.id, b.id);
        assert!(a.is_valid(&reg));
        assert!(b.is_valid(&reg));
        assert_eq!(gen.generated(), 2);
    }
}
