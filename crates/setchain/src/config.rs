//! Configuration shared by the three Setchain algorithms, and the modelled
//! CPU costs every server is charged.
//!
//! The discrete-event simulator does not run on the paper's hardware, so
//! cryptographic and compression work is charged as simulated CPU time
//! (`consume_cpu`) at fixed per-operation costs, the constants below; every
//! value is assumed. Verifying a signature (an epoch-proof or a hash-batch)
//! costs [`setchain_ledger::types::SIG_VERIFY_COST`], the one value the ledger
//! charges for each vote and certificate signature too.

use setchain_simnet::SimDuration;

/// Validating one element: one client authenticator (MAC) check; parsing
/// is free. Charged once per admission-cache miss, by
/// `ServerCore::validate_charged`, so a server pays for each element once
/// however many copies reach it, and again only for a re-send whose
/// contents differ.
pub const VALIDATE_ELEMENT_COST: SimDuration = SimDuration::from_micros(5);
/// Producing one signature (epoch-proof or hash-batch).
pub const SIGN_COST: SimDuration = SimDuration::from_micros(30);
/// Hashing 1 KiB of batch data (see [`hash_cost`]).
pub const HASH_COST_PER_KIB: SimDuration = SimDuration::from_micros(2);
/// Compressing 1 KiB of batch data (see [`compress_cost`]).
pub const COMPRESS_COST_PER_KIB: SimDuration = SimDuration::from_micros(10);
/// Decompressing 1 KiB of batch data (see [`decompress_cost`]).
pub const DECOMPRESS_COST_PER_KIB: SimDuration = SimDuration::from_micros(5);

/// Cost of hashing `bytes` of data, a partial KiB counting as a whole one.
pub fn hash_cost(bytes: usize) -> SimDuration {
    HASH_COST_PER_KIB * (bytes as u64).div_ceil(1024)
}

/// Cost of compressing `bytes` of data, a partial KiB counting as a whole
/// one.
pub fn compress_cost(bytes: usize) -> SimDuration {
    COMPRESS_COST_PER_KIB * (bytes as u64).div_ceil(1024)
}

/// Cost of decompressing into `bytes` of data, a partial KiB counting as a
/// whole one.
pub fn decompress_cost(bytes: usize) -> SimDuration {
    DECOMPRESS_COST_PER_KIB * (bytes as u64).div_ceil(1024)
}

/// The paper's per-element client authentication, the only admission path.
/// Kept only because the `benchmark/` package still passes it to
/// `DeploymentBuilder::auth_mode`, which ignores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuthMode {
    /// Every element carries its own 8-byte MAC and servers verify each one.
    PerElement,
}

/// Configuration of the persistent epoch store (see `setchain-store`).
///
/// When present on a [`SetchainConfig`], every server opens a
/// [`DiskStore`](setchain_store::DiskStore) under `dir/server-<index>`,
/// appends each epoch once it reaches its `f + 1` proof quorum, and on
/// restart replays the log back to the exact committed set before asking
/// peers for anything. Absent (the default), servers keep the pure in-RAM
/// path, byte-for-byte unchanged.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Root directory of the store; each server uses `dir/server-<index>`.
    pub dir: String,
    /// Segment rotation budget in bytes (default 8 MiB).
    pub segment_bytes: u64,
    /// **Ignored.** Was the cadence of the store's element-index
    /// checkpoint, which no longer exists; the field stays only because the
    /// frozen benchmark package reads it, and goes away with the next
    /// benchmark-archetype PR.
    pub checkpoint_every: u64,
}

impl StoreConfig {
    /// A store rooted at `dir` with the default segment budget.
    pub fn new(dir: impl Into<String>) -> Self {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            checkpoint_every: 0,
        }
    }
}

/// Per-client admission quotas (see [`crate::quota`]).
///
/// When present on a [`SetchainConfig`], every server runs a deterministic
/// token bucket per client in front of the whole admission path: elements
/// arriving from a client beyond its sustained `rate_per_sec` (with `burst`
/// of headroom) or while the client already has `max_pending` elements
/// awaiting an epoch are shed *before* any authenticator is verified, and
/// the client is told to back off with a
/// [`Rejected`](crate::SetchainMsg::Rejected) reply carrying a `retry_after`
/// hint. Absent (the default), admission is unmetered and the pipeline is
/// byte-for-byte the pre-quota path.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Sustained admission rate per client, elements/second (default
    /// 2 000).
    pub rate_per_sec: u64,
    /// Bucket capacity: how many elements a client may submit in one burst
    /// above the sustained rate (default 4 000).
    pub burst: u64,
    /// Maximum elements a client may have admitted but not yet stamped into
    /// an epoch; 0 disables the pending cap (default 50 000).
    pub max_pending: u64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            rate_per_sec: 2_000,
            burst: 4_000,
            max_pending: 50_000,
        }
    }
}

impl QuotaConfig {
    /// A quota with the default rate, burst and pending cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the sustained per-client admission rate (elements/second).
    pub fn with_rate(mut self, per_sec: u64) -> Self {
        assert!(per_sec >= 1, "quota rate must be positive");
        self.rate_per_sec = per_sec;
        self
    }

    /// Sets the burst capacity (elements above the sustained rate).
    pub fn with_burst(mut self, burst: u64) -> Self {
        assert!(burst >= 1, "quota burst must be positive");
        self.burst = burst;
        self
    }

    /// Sets the per-client pending-element cap (0 disables it).
    pub fn with_max_pending(mut self, max_pending: u64) -> Self {
        self.max_pending = max_pending;
        self
    }
}

/// Configuration of a Setchain deployment (shared by all servers of a run):
/// the one home of every Setchain knob a run sets.
///
/// Runs are configured through `setchain_workload::Deployment::builder`,
/// which writes each of its Setchain methods straight into this struct
/// (the run's other parameters live on `setchain_workload::Scenario`);
/// code that builds a config by hand overrides fields of
/// [`SetchainConfig::new`] with struct-update syntax.
/// [`ServerCore::new`](crate::ServerCore::new) checks the result: `2f < n`
/// and a positive collector limit. The collector timeout and Hashchain's batch
/// request timeout and retry count are constants, not configuration:
/// [`COLLECTOR_TIMEOUT`](crate::app::COLLECTOR_TIMEOUT),
/// [`REQUEST_TIMEOUT`](crate::hashchain::REQUEST_TIMEOUT) and
/// [`MAX_REQUEST_RETRIES`](crate::hashchain::MAX_REQUEST_RETRIES); so are
/// the modelled CPU costs, such as [`SIGN_COST`] and [`hash_cost`].
#[derive(Clone, Debug)]
pub struct SetchainConfig {
    /// Number of Setchain servers (the paper's `server_count`).
    pub servers: usize,
    /// Maximum number of Byzantine Setchain servers assumed (`f < n/2`).
    /// Epoch verification requires `f + 1` consistent proofs and Hashchain
    /// consolidation requires `f + 1` hash-batch signers.
    pub f: usize,
    /// Collector size: the batch is flushed when it holds this many entries
    /// (the paper's `collector_limit`: 100 or 500).
    pub collector_limit: usize,
    /// The algorithm's "light" ablation (Fig. 2 left): "Hashchain light"
    /// runs without hash reversal and "Compresschain light" without
    /// decompression and validation on block delivery. Vanilla ignores it.
    pub light: bool,
    /// Hashchain variant from the paper's discussion: when true, a server
    /// that flushes a batch proactively pushes the batch contents to all
    /// other servers ("alternative distributed batch-sharing mechanism"), so
    /// hash reversal rarely needs a `Request_batch` round trip.
    pub push_batches: bool,
    /// Persistent epoch storage; `None` (the default) keeps the pure in-RAM
    /// path.
    pub store: Option<StoreConfig>,
    /// Per-client admission quotas; `None` (the default) leaves admission
    /// unmetered — the exact pre-quota path.
    pub quota: Option<QuotaConfig>,
}

impl SetchainConfig {
    /// Default configuration for `n` servers: `f = ⌊(n-1)/2⌋`, collector
    /// limit 100, full (non-light) algorithms.
    pub fn new(servers: usize) -> Self {
        assert!(servers >= 1, "at least one server required");
        SetchainConfig {
            servers,
            f: (servers.saturating_sub(1)) / 2,
            collector_limit: 100,
            light: false,
            push_batches: false,
            store: None,
            quota: None,
        }
    }

    /// Number of proofs/signers required to trust an epoch (`f + 1`).
    pub fn proof_quorum(&self) -> usize {
        self.f + 1
    }

    /// True if `id` names one of this deployment's servers — the structural
    /// half of every signer check (`check_tx`, `valid_proof`, `valid_hash`).
    pub(crate) fn is_server(&self, id: setchain_crypto::ProcessId) -> bool {
        id.is_server() && id.server_index() < self.servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fault_bound_is_minority() {
        assert_eq!(SetchainConfig::new(4).f, 1);
        assert_eq!(SetchainConfig::new(7).f, 3);
        assert_eq!(SetchainConfig::new(10).f, 4);
        assert_eq!(SetchainConfig::new(10).proof_quorum(), 5);
    }

    #[test]
    fn cost_model_scales_with_size() {
        assert_eq!(hash_cost(1024).as_micros(), 2);
        assert_eq!(hash_cost(4096).as_micros(), 8);
        assert_eq!(hash_cost(1).as_micros(), 2); // rounds up to one KiB
        assert_eq!((VALIDATE_ELEMENT_COST * 100).as_micros(), 500);
        assert!(compress_cost(10_000) > decompress_cost(10_000));
    }

    #[test]
    fn store_defaults_to_in_memory() {
        assert!(
            SetchainConfig::new(4).store.is_none(),
            "no store unless configured"
        );
        let store = StoreConfig::new("/tmp/setchain");
        assert_eq!(store.dir, "/tmp/setchain");
        assert_eq!(store.segment_bytes, 8 << 20);
    }

    #[test]
    fn quota_defaults_to_unmetered_admission() {
        assert!(
            SetchainConfig::new(4).quota.is_none(),
            "no quota unless configured"
        );
        let quota = QuotaConfig::new();
        assert_eq!(quota.rate_per_sec, 2_000);
        assert_eq!(quota.burst, 4_000);
        assert_eq!(quota.max_pending, 50_000);
        let tuned = QuotaConfig::new()
            .with_rate(100)
            .with_burst(10)
            .with_max_pending(0);
        assert_eq!(tuned.rate_per_sec, 100);
        assert_eq!(tuned.burst, 10);
        assert_eq!(tuned.max_pending, 0);
    }

    #[test]
    #[should_panic(expected = "quota rate must be positive")]
    fn zero_quota_rate_panics() {
        let _ = QuotaConfig::new().with_rate(0);
    }

    /// Hands `config` to [`ServerCore::new`](crate::ServerCore::new), which
    /// checks it.
    fn start_server(config: SetchainConfig) {
        let registry = setchain_crypto::KeyRegistry::bootstrap(1, config.servers, 1);
        let keys = registry
            .lookup(setchain_crypto::ProcessId::server(0))
            .unwrap();
        let _ = crate::ServerCore::new(
            keys,
            registry,
            config,
            crate::SetchainTrace::new(),
            crate::ServerByzMode::Correct,
        );
    }

    #[test]
    #[should_panic(expected = "f < n")]
    fn invalid_f_panics() {
        start_server(SetchainConfig {
            f: 4,
            ..SetchainConfig::new(4)
        });
    }

    /// With n = 4 and f = 2, two silent servers leave two correct ones,
    /// which can never gather f + 1 = 3 epoch-proofs or hash-batch signers.
    #[test]
    #[should_panic(expected = "need 2f < n")]
    fn f_without_a_correct_quorum_panics() {
        start_server(SetchainConfig {
            f: 2,
            ..SetchainConfig::new(4)
        });
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = SetchainConfig::new(0);
    }
}
