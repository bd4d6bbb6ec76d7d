//! Process identities, key pairs and the PKI key registry.
//!
//! The paper assumes a deployed PKI: every process (server or client) owns a
//! private/public key pair and knows everyone else's public key. In this
//! reproduction the PKI is the [`KeyRegistry`]: key pairs are generated
//! deterministically from a seed, registered once at system construction
//! time, and the registry is shared (cheaply, it is an `Arc`) by every
//! simulated process that needs to verify signatures. A pair is a process
//! id and its secret seed: the keyed-hash signature substitute verifies
//! through the signer's registered secret, so no public key is derived.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::hash::{sha256, sha256_many};

/// Identifier of a process (server or client) in the system.
///
/// Servers and clients draw from disjoint ranges by convention (see
/// [`ProcessId::server`] / [`ProcessId::client`]) so that logs and assertions
/// can distinguish them, but nothing in the protocol depends on the split.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProcessId(pub u64);

const CLIENT_BASE: u64 = 1 << 32;

impl ProcessId {
    /// The id of the `i`-th server.
    pub fn server(i: usize) -> Self {
        ProcessId(i as u64)
    }

    /// The id of the `i`-th client.
    pub fn client(i: usize) -> Self {
        ProcessId(CLIENT_BASE + i as u64)
    }

    /// True if this id is in the server range.
    pub fn is_server(&self) -> bool {
        self.0 < CLIENT_BASE
    }

    /// For server ids, the server index; panics for client ids.
    pub fn server_index(&self) -> usize {
        assert!(self.is_server(), "not a server id: {self:?}");
        self.0 as usize
    }

    /// For client ids, the client index; panics for server ids.
    pub fn client_index(&self) -> usize {
        assert!(!self.is_server(), "not a client id: {self:?}");
        (self.0 - CLIENT_BASE) as usize
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_server() {
            write!(f, "server#{}", self.0)
        } else {
            write!(f, "client#{}", self.0 - CLIENT_BASE)
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Secret signing key (a 32-byte seed, as in ed25519).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(pub [u8; 32]);

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        write!(f, "SecretKey(…)")
    }
}

/// A process key pair.
#[derive(Clone, Copy, Debug)]
pub struct KeyPair {
    /// Owner of the pair.
    pub id: ProcessId,
    /// Private seed.
    pub secret: SecretKey,
}

impl KeyPair {
    /// Builds a key pair from a 32-byte seed.
    pub fn from_seed(id: ProcessId, seed: [u8; 32]) -> Self {
        KeyPair {
            id,
            secret: SecretKey(seed),
        }
    }

    /// Derives a key pair deterministically from a process id and a system
    /// seed, which is how the simulator provisions the PKI.
    pub fn derive(id: ProcessId, system_seed: u64) -> Self {
        Self::from_seed(id, sha256(&Self::derive_material(id, system_seed)).0)
    }

    /// The byte material [`derive`](Self::derive) hashes into the secret
    /// seed; shared with the batched bootstrap path.
    fn derive_material(id: ProcessId, system_seed: u64) -> [u8; 16] {
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&system_seed.to_le_bytes());
        material[8..].copy_from_slice(&id.0.to_le_bytes());
        material
    }
}

/// The PKI: a shared directory mapping process ids to key pairs.
///
/// In a real deployment verification would only need the *public* key; our
/// keyed-hash signature substitute needs the registry to resolve the signer's
/// verification material (see ARCHITECTURE.md, "Crypto backends"). The
/// registry is therefore the trust anchor of the simulation: processes that
/// are not registered cannot produce signatures that verify.
#[derive(Clone, Default)]
pub struct KeyRegistry {
    by_id: Arc<RwLock<HashMap<ProcessId, KeyPair>>>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry pre-populated with `servers` server keys and
    /// `clients` client keys, all derived from `system_seed`.
    ///
    /// The secret seeds of the whole deployment are hashed in one
    /// [`sha256_many`] pass over a reused hasher, byte-for-byte equivalent
    /// to calling [`KeyPair::derive`] per process.
    pub fn bootstrap(system_seed: u64, servers: usize, clients: usize) -> Self {
        let reg = Self::new();
        let ids: Vec<ProcessId> = (0..servers)
            .map(ProcessId::server)
            .chain((0..clients).map(ProcessId::client))
            .collect();
        let materials: Vec<[u8; 16]> = ids
            .iter()
            .map(|id| KeyPair::derive_material(*id, system_seed))
            .collect();
        let seeds = sha256_many(materials.iter().map(|m| m.as_slice()));
        for (id, seed) in ids.into_iter().zip(seeds) {
            reg.register(KeyPair::from_seed(id, seed.0));
        }
        reg
    }

    /// Registers a key pair. Re-registering the same id replaces the entry.
    pub fn register(&self, pair: KeyPair) {
        self.by_id.write().insert(pair.id, pair);
    }

    /// Looks up the key pair of `id`.
    pub fn lookup(&self, id: ProcessId) -> Option<KeyPair> {
        self.by_id.read().get(&id).copied()
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.by_id.read().len()
    }

    /// True if no process is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_ranges() {
        let s = ProcessId::server(3);
        let c = ProcessId::client(3);
        assert!(s.is_server());
        assert!(!c.is_server());
        assert_eq!(s.server_index(), 3);
        assert_eq!(c.client_index(), 3);
        assert_ne!(s, c);
        assert_eq!(format!("{s:?}"), "server#3");
        assert_eq!(format!("{c:?}"), "client#3");
    }

    #[test]
    fn keypair_derivation_is_deterministic() {
        let a = KeyPair::derive(ProcessId::server(1), 42);
        let b = KeyPair::derive(ProcessId::server(1), 42);
        let c = KeyPair::derive(ProcessId::server(2), 42);
        let d = KeyPair::derive(ProcessId::server(1), 43);
        assert_eq!(a.secret, b.secret);
        assert_ne!(a.secret, c.secret);
        assert_ne!(a.secret, d.secret);
    }

    #[test]
    fn bootstrap_matches_per_process_derivation() {
        let reg = KeyRegistry::bootstrap(55, 3, 2);
        for id in [
            ProcessId::server(0),
            ProcessId::server(2),
            ProcessId::client(0),
            ProcessId::client(1),
        ] {
            let batched = reg.lookup(id).expect("registered");
            let individual = KeyPair::derive(id, 55);
            assert_eq!(batched.secret.0, individual.secret.0, "{id}");
        }
    }

    #[test]
    fn registry_bootstrap_and_lookup() {
        let reg = KeyRegistry::bootstrap(123, 4, 2);
        assert_eq!(reg.len(), 6);
        assert!(!reg.is_empty());
        let pair = reg.lookup(ProcessId::server(2)).expect("registered");
        assert_eq!(pair.id, ProcessId::server(2));
        assert_eq!(
            pair.secret,
            KeyPair::derive(ProcessId::server(2), 123).secret
        );
        assert!(reg.lookup(ProcessId::server(10)).is_none());
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let pair = KeyPair::derive(ProcessId::server(0), 1);
        assert_eq!(format!("{:?}", pair.secret), "SecretKey(…)");
    }
}
