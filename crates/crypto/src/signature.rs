//! Deterministic signature scheme standing in for ed25519.
//!
//! A signature over `msg` by process `p` is a 64-byte tag — the length of an
//! ed25519 signature — together with the signer's id. The tag is two
//! HMAC-SHA-256 halves, `HMAC(k₀, msg) ‖ HMAC(k₁, msg)`, under two
//! independent keys `kᵢ = SHA-256(labelᵢ ‖ secret_p)` derived from `p`'s
//! 32-byte secret; both run on the SHA-256 block function, and so on SHA-NI
//! where the CPU has it. Verification resolves the signer's key material
//! through the PKI [`KeyRegistry`], recomputes both halves and compares all
//! 64 bytes. This provides exactly the guarantee the Setchain algorithms rely
//! on: a process that does not own the registered secret cannot produce a
//! signature that correct processes accept, and signatures bind the signer
//! identity to the signed bytes.

use std::collections::hash_map::Entry;
use std::fmt;

use crate::fxhash::FxHashMap;
use crate::hash::sha256;
use crate::hmac::HmacSha256Key;
use crate::keys::{KeyPair, KeyRegistry, ProcessId, SecretKey};

/// Byte length of a signature (matches ed25519).
pub const SIGNATURE_LEN: usize = 64;

/// Domain labels of the two half keys. Label and secret share one SHA-256
/// block, so deriving a half key costs one compression.
const HALF_KEY_LABELS: [&[u8; 19]; 2] = [b"setchain-sig-half-0", b"setchain-sig-half-1"];

/// A signature: signer identity plus the 64-byte tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The claimed signer.
    pub signer: ProcessId,
    /// Tag bytes.
    pub bytes: [u8; SIGNATURE_LEN],
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({} {:02x}{:02x}{:02x}{:02x}…)",
            self.signer, self.bytes[0], self.bytes[1], self.bytes[2], self.bytes[3]
        )
    }
}

impl Signature {
    /// A structurally valid but cryptographically bogus signature, used by
    /// Byzantine behaviours in tests and fault-injection experiments.
    pub fn forged(signer: ProcessId) -> Self {
        Signature {
            signer,
            bytes: [0xBD; SIGNATURE_LEN],
        }
    }
}

/// A process's precomputed signing schedule: the two half keys, each with
/// its HMAC key pads already absorbed. The scheme is symmetric, so the same
/// schedule signs (a server's own key) and verifies (a [`SigVerifier`]
/// entry).
#[derive(Clone)]
pub struct SigningKey {
    halves: [HmacSha256Key; 2],
}

impl SigningKey {
    /// Derives the two half keys from `secret` and precomputes their pads.
    pub fn new(secret: &SecretKey) -> Self {
        let half = |label: &[u8; 19]| {
            let mut input = [0u8; 19 + 32];
            input[..19].copy_from_slice(label);
            input[19..].copy_from_slice(&secret.0);
            HmacSha256Key::new(sha256(&input).as_bytes())
        };
        SigningKey {
            halves: HALF_KEY_LABELS.map(half),
        }
    }

    /// The 64-byte tag over `msg`: one HMAC-SHA-256 per half.
    fn tag(&self, msg: &[u8]) -> [u8; SIGNATURE_LEN] {
        let mut tag = [0u8; SIGNATURE_LEN];
        for (out, half) in tag.chunks_exact_mut(32).zip(&self.halves) {
            out.copy_from_slice(half.mac(msg).as_bytes());
        }
        tag
    }

    /// True if `sig`'s tag is this key's tag over `msg`.
    fn verifies(&self, msg: &[u8], sig: &Signature) -> bool {
        tag_matches(&self.tag(msg), sig)
    }
}

/// Signs `msg` with the given key pair.
pub fn sign(pair: &KeyPair, msg: &[u8]) -> Signature {
    sign_with(&SigningKey::new(&pair.secret), pair.id, msg)
}

/// Signs `msg` through a precomputed schedule for `signer`.
///
/// Equivalent to [`sign`] with `signer`'s key pair, but the key derivation
/// and the four key-pad absorptions are already paid: a process that signs
/// many messages (every vote, proof and hash-batch a server emits) holds its
/// own schedule once instead of rebuilding it per signature.
pub fn sign_with(key: &SigningKey, signer: ProcessId, msg: &[u8]) -> Signature {
    Signature {
        signer,
        bytes: key.tag(msg),
    }
}

/// A memoizing signature verifier: per-signer schedules resolved from the
/// PKI once and reused for every later verification.
///
/// Semantically identical to calling [`verify`] per signature, with one
/// caveat inherited from every schedule cache in the workspace: verdicts
/// for *unknown* signers are not cached (a process registered later is
/// still picked up), but replacing an already-registered key mid-run is
/// not supported. Nothing iterates the schedule table, so its hasher
/// decides no order.
#[derive(Default)]
pub struct SigVerifier {
    keys: FxHashMap<ProcessId, SigningKey>,
}

impl SigVerifier {
    /// Creates an empty verifier (schedules populate lazily).
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies `sig` over `msg`, resolving the signer's schedule through
    /// `registry` on first use and from the cache afterwards.
    pub fn verify(&mut self, registry: &KeyRegistry, msg: &[u8], sig: &Signature) -> bool {
        self.check(registry, msg, sig).unwrap_or(false)
    }

    /// [`Self::verify`], but `None` when the signer is not registered: that
    /// rejection lasts only until the signer registers, so a caller that
    /// remembers verdicts must not remember it.
    pub fn check(&mut self, registry: &KeyRegistry, msg: &[u8], sig: &Signature) -> Option<bool> {
        let key = match self.keys.entry(sig.signer) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(SigningKey::new(&registry.lookup(sig.signer)?.secret)),
        };
        Some(key.verifies(msg, sig))
    }
}

/// Verifies that `sig` is a valid signature over `msg` by `sig.signer`,
/// resolving the signer's key through the PKI `registry`.
///
/// Returns `false` for unknown signers, forged tags, or messages that do not
/// match the signed bytes.
pub fn verify(registry: &KeyRegistry, msg: &[u8], sig: &Signature) -> bool {
    match registry.lookup(sig.signer) {
        Some(pair) => SigningKey::new(&pair.secret).verifies(msg, sig),
        None => false,
    }
}

/// Constant-time-ish comparison of all 64 tag bytes; not security critical
/// in the simulation but cheap to do properly.
fn tag_matches(expected: &[u8; SIGNATURE_LEN], sig: &Signature) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(sig.bytes.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;
    use crate::keys::KeyRegistry;

    fn setup() -> (KeyRegistry, KeyPair, KeyPair) {
        let reg = KeyRegistry::bootstrap(99, 3, 1);
        let s0 = reg.lookup(ProcessId::server(0)).unwrap();
        let s1 = reg.lookup(ProcessId::server(1)).unwrap();
        (reg, s0, s1)
    }

    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 13 % 251) as u8).collect()
    }

    #[test]
    fn sign_and_verify_roundtrip() {
        let (reg, s0, _) = setup();
        let sig = sign(&s0, b"epoch 1 contents");
        assert!(verify(&reg, b"epoch 1 contents", &sig));
    }

    #[test]
    fn round_trips_at_hmac_padding_edges() {
        // 55/56 is the edge where a message stops fitting the one-block
        // HMAC path, 119/120 the same edge one block later; 64 is a digest.
        let (reg, s0, _) = setup();
        let key = SigningKey::new(&s0.secret);
        let mut verifier = SigVerifier::new();
        for len in [0usize, 20, 55, 56, 64, 119, 120] {
            let msg = message(len);
            let sig = sign_with(&key, s0.id, &msg);
            assert_eq!(sig, sign(&s0, &msg), "len={len}");
            assert!(verify(&reg, &msg, &sig), "len={len}");
            assert!(verifier.verify(&reg, &msg, &sig), "len={len}");
            let mut longer = msg.clone();
            longer.push(0);
            assert!(!verify(&reg, &longer, &sig), "len={len}");
        }
    }

    #[test]
    fn tag_is_two_hmac_sha256_halves_under_derived_keys() {
        // The definition, spelled out with the one-shot HMAC.
        let (_, s0, _) = setup();
        let msg = message(64);
        let sig = sign(&s0, &msg);
        for (half, label) in HALF_KEY_LABELS.iter().enumerate() {
            let derived = sha256(&[&label[..], &s0.secret.0].concat());
            let want = hmac_sha256(derived.as_bytes(), &msg);
            assert_eq!(&sig.bytes[32 * half..32 * (half + 1)], want.as_bytes());
        }
        assert_ne!(sig.bytes[..32], sig.bytes[32..], "the half keys differ");
    }

    #[test]
    fn known_answer_signature() {
        // Pinned once: a change to the derivation, the labels or the tag
        // layout moves it. Cross-checked against Python's `hmac`/`hashlib`.
        let key = SigningKey::new(&SecretKey([0x42; 32]));
        let sig = sign_with(&key, ProcessId::server(0), b"setchain");
        assert_eq!(
            crate::hash::Digest512(sig.bytes).to_hex(),
            "3263b8bf0d01b5ac66de339a8f6e086115f55cf2770a57ffe5f0f0463b8b2073\
             07d6783f6fd366d396889ee31b5a9eba55e02af8a7e6d541372616f0ffc2ca73"
        );
    }

    #[test]
    fn tampered_message_rejected() {
        let (reg, s0, _) = setup();
        let sig = sign(&s0, b"epoch 1 contents");
        assert!(!verify(&reg, b"epoch 2 contents", &sig));
    }

    #[test]
    fn a_flipped_bit_in_either_half_is_rejected() {
        let (reg, s0, _) = setup();
        let msg = message(64);
        let sig = sign(&s0, &msg);
        let mut verifier = SigVerifier::new();
        for byte in [0, 31, 32, SIGNATURE_LEN - 1] {
            for bit in [0, 7] {
                let mut bad = sig;
                bad.bytes[byte] ^= 1 << bit;
                assert!(!verify(&reg, &msg, &bad), "byte {byte} bit {bit}");
                assert!(!verifier.verify(&reg, &msg, &bad), "byte {byte} bit {bit}");
            }
        }
        assert!(verifier.verify(&reg, &msg, &sig));
    }

    #[test]
    fn wrong_claimed_signer_rejected() {
        let (reg, s0, s1) = setup();
        let mut sig = sign(&s0, b"msg");
        sig.signer = s1.id;
        assert!(!verify(&reg, b"msg", &sig));
        assert!(!SigVerifier::new().verify(&reg, b"msg", &sig));
    }

    #[test]
    fn unknown_signer_rejected() {
        let (reg, s0, _) = setup();
        let mut sig = sign(&s0, b"msg");
        sig.signer = ProcessId::server(50);
        assert!(!verify(&reg, b"msg", &sig));
    }

    #[test]
    fn forged_signature_rejected() {
        let (reg, s0, _) = setup();
        let sig = Signature::forged(s0.id);
        assert!(!verify(&reg, b"msg", &sig));
        assert!(!SigVerifier::new().verify(&reg, b"msg", &sig));
    }

    #[test]
    fn sign_with_matches_sign() {
        let (_, s0, _) = setup();
        let key = SigningKey::new(&s0.secret);
        assert_eq!(sign_with(&key, s0.id, b"payload"), sign(&s0, b"payload"));
    }

    #[test]
    fn sig_verifier_agrees_with_verify_and_handles_late_registration() {
        let (reg, s0, s1) = setup();
        let mut verifier = SigVerifier::new();
        // Repeated verifications under cached schedules agree with the
        // uncached path, across signers and verdicts.
        for msg in [b"a".as_slice(), b"bb", b"ccc"] {
            for signer in [&s0, &s1] {
                let good = sign(signer, msg);
                assert!(verifier.verify(&reg, msg, &good));
                assert!(!verifier.verify(&reg, b"other", &good));
            }
        }
        let forged = Signature::forged(s0.id);
        assert!(!verifier.verify(&reg, b"msg", &forged));
        // Unknown signer: rejected, and picked up once registered later.
        let late = KeyPair::derive(ProcessId::server(9), 555);
        let sig = sign(&late, b"late");
        assert!(!verifier.verify(&reg, b"late", &sig));
        assert_eq!(verifier.check(&reg, b"late", &sig), None);
        reg.register(late);
        assert!(verifier.verify(&reg, b"late", &sig));
        assert_eq!(verifier.check(&reg, b"late", &sig), Some(true));
        assert_eq!(verifier.check(&reg, b"msg", &forged), Some(false));
    }

    #[test]
    fn signatures_are_deterministic() {
        let (_, s0, _) = setup();
        assert_eq!(sign(&s0, b"m"), sign(&s0, b"m"));
        assert_ne!(sign(&s0, b"m").bytes, sign(&s0, b"n").bytes);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The memoized verifier and the one-shot path give the same
            /// verdict on genuine, bit-flipped, re-attributed and
            /// wrong-message signatures, for every signer and length.
            #[test]
            fn sig_verifier_gives_the_same_verdict_as_verify(
                msg in proptest::collection::vec(any::<u8>(), 0..160),
                signer in 0usize..3,
                claimed in 0usize..4,
                flip in (any::<bool>(), 0usize..SIGNATURE_LEN, 0u8..8),
                other_msg in any::<bool>(),
            ) {
                let reg = KeyRegistry::bootstrap(99, 3, 1);
                let pair = reg.lookup(ProcessId::server(signer)).unwrap();
                let mut sig = sign(&pair, &msg);
                sig.signer = ProcessId::server(claimed);
                let (flip, byte, bit) = flip;
                if flip {
                    sig.bytes[byte] ^= 1 << bit;
                }
                let mut checked = msg.clone();
                if other_msg {
                    checked.push(1);
                }
                let mut verifier = SigVerifier::new();
                let once = verify(&reg, &checked, &sig);
                prop_assert_eq!(verifier.verify(&reg, &checked, &sig), once);
                // ...and again from the cache.
                prop_assert_eq!(verifier.verify(&reg, &checked, &sig), once);
                let genuine = signer == claimed && !flip && !other_msg;
                prop_assert_eq!(once, genuine);
            }
        }
    }
}
