//! Cryptographic substrate for the Setchain reproduction.
//!
//! The paper relies on three cryptographic primitives:
//!
//! * **SHA-256** ([`sha256`]) for everything that scales with content:
//!   element authenticators, the chunked Merkle roots batches and epochs
//!   commit to, and the signature stand-in. **SHA-512** ([`sha512`], FIPS
//!   180-4) only finishes the fixed-size batch and epoch headers into the
//!   paper's 64-byte hashes.
//! * **ed25519 signatures** under an assumed PKI. This crate substitutes a
//!   deterministic keyed-hash signature scheme ([`sign`]: two HMAC-SHA-256
//!   halves) whose verification is mediated by the PKI [`KeyRegistry`]; see
//!   ARCHITECTURE.md, "Crypto backends", for why the substitution preserves
//!   the behaviour the protocols depend on. Signatures are 64 bytes, so
//!   epoch-proofs and hash-batches have the same wire length as in the paper
//!   (139 bytes).
//! * A binary [`merkle`] tree, used by the ledger to commit to block
//!   contents and by tests to cross-check batch hashing.
//!
//! Everything in this crate is implemented from scratch on top of `std`;
//! nothing here should be used outside of this reproduction for real
//! security purposes.

// `deny`, not `forbid`: `sha256_x86` — the SHA-NI backend of the SHA-256 block
// function — is the one module allowed to lift it. Every other crate of the
// workspace keeps `forbid`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod hash;
pub mod hmac;
pub mod keys;
pub mod merkle;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha256_x86;
pub mod signature;

pub use fxhash::{fmix64, FxHashMap, FxHashSet, FxHasher, IdHashMap, IdHashSet, IdHasher};
pub use hash::{sha256, sha256_backend, sha256_many, sha512, Digest256, Digest512, Sha256, Sha512};
pub use hmac::{hmac_sha256, HmacSha256Key};
pub use keys::{KeyPair, KeyRegistry, ProcessId, SecretKey};
pub use merkle::{framed_hash, leaf_hash, merkle_root, MerkleProof, MerkleTree};
pub use signature::{sign, sign_with, verify, SigVerifier, Signature, SigningKey, SIGNATURE_LEN};
