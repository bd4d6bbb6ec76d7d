//! Configuration shared by the three Setchain algorithms.

use serde::{Deserialize, Serialize};
use setchain_simnet::SimDuration;

/// CPU cost model for the work Setchain servers perform.
///
/// The discrete-event simulator does not execute on the paper's hardware, so
/// cryptographic and compression work is charged as simulated CPU time using
/// these per-operation costs (calibrated to a mid-range Xeon: SHA-512 at
/// ~500 MB/s, ed25519 sign/verify in the tens of microseconds, Brotli at
/// ~100 MB/s). The costs are configuration so ablation benches can study
/// their impact.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Validating one element (client authenticator check).
    pub validate_element: SimDuration,
    /// Producing one signature (epoch-proof or hash-batch).
    pub sign: SimDuration,
    /// Verifying one signature.
    pub verify_signature: SimDuration,
    /// Hashing 1 KiB of batch data.
    pub hash_per_kib: SimDuration,
    /// Compressing 1 KiB of batch data.
    pub compress_per_kib: SimDuration,
    /// Decompressing 1 KiB of batch data.
    pub decompress_per_kib: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            validate_element: SimDuration::from_micros(5),
            sign: SimDuration::from_micros(30),
            verify_signature: SimDuration::from_micros(60),
            hash_per_kib: SimDuration::from_micros(2),
            compress_per_kib: SimDuration::from_micros(10),
            decompress_per_kib: SimDuration::from_micros(5),
        }
    }
}

impl CostModel {
    /// Cost of hashing `bytes` of data.
    pub fn hash_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros(self.hash_per_kib.as_micros() * (bytes as u64).div_ceil(1024))
    }

    /// Cost of compressing `bytes` of data.
    pub fn compress_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros(self.compress_per_kib.as_micros() * (bytes as u64).div_ceil(1024))
    }

    /// Cost of decompressing into `bytes` of data.
    pub fn decompress_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros(
            self.decompress_per_kib.as_micros() * (bytes as u64).div_ceil(1024),
        )
    }

    /// Cost of validating `count` elements.
    pub fn validate_cost(&self, count: usize) -> SimDuration {
        SimDuration::from_micros(self.validate_element.as_micros() * count as u64)
    }
}

/// How client submissions are authenticated server-side.
///
/// `#[non_exhaustive]`: further authentication schemes (e.g. aggregated
/// signatures) may be added; match with a wildcard arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AuthMode {
    /// Every element carries its own 8-byte MAC and servers verify each one
    /// (the paper's evaluated scheme, and the default).
    #[default]
    PerElement,
    /// Clients Merkle-batch their adds and MAC only the batch root
    /// ([`crate::AuthedBatch`]); servers verify once per batch and derive
    /// per-element validity from Merkle membership. Plain per-element adds
    /// keep working — this mode changes what the *workload drivers* send
    /// and adds the batch verification path, it removes nothing.
    BatchRoot,
}

/// Configuration of the persistent epoch store (see `setchain-store`).
///
/// When present on a [`SetchainConfig`], every server opens a
/// [`DiskStore`](setchain_store::DiskStore) under `dir/server-<index>`,
/// appends each epoch once it reaches its `f + 1` proof quorum, and on
/// restart replays the log back to the exact committed set before asking
/// peers for anything. Absent (the default), servers keep the pure in-RAM
/// path, byte-for-byte unchanged.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Root directory of the store; each server uses `dir/server-<index>`.
    pub dir: String,
    /// Segment rotation budget in bytes (`#[serde(default)]`: 8 MiB).
    #[serde(default = "default_segment_bytes")]
    pub segment_bytes: u64,
    /// Bounded-memory mode: keep only the most recent `k` persisted epochs'
    /// elements resident in `the_set`/`history`, evicting older ones to the
    /// store with on-demand readback. `None` (the default) keeps everything
    /// in RAM alongside the log.
    #[serde(default)]
    pub retain_epochs: Option<u64>,
    /// **Ignored.** Was the cadence of the store's element-index
    /// checkpoint, which no longer exists; the field stays only because the
    /// frozen benchmark package reads it, and goes away with the next
    /// benchmark-archetype PR.
    #[serde(default)]
    pub checkpoint_every: u64,
}

/// Serde default for [`StoreConfig::segment_bytes`].
fn default_segment_bytes() -> u64 {
    8 << 20
}

impl StoreConfig {
    /// A store rooted at `dir` with the default segment budget and no
    /// eviction.
    pub fn new(dir: impl Into<String>) -> Self {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: default_segment_bytes(),
            retain_epochs: None,
            checkpoint_every: 0,
        }
    }

    /// Sets the segment rotation budget.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Enables bounded-memory mode, retaining only the `k` most recent
    /// persisted epochs in RAM.
    pub fn with_retain_epochs(mut self, k: u64) -> Self {
        self.retain_epochs = Some(k);
        self
    }
}

/// Per-client admission quotas (see [`crate::quota`]).
///
/// When present on a [`SetchainConfig`], every server runs a deterministic
/// token bucket per client in front of the whole admission path: elements
/// arriving from a client beyond its sustained `rate_per_sec` (with `burst`
/// of headroom) or while the client already has `max_pending` elements
/// awaiting an epoch are shed *before* any authenticator or batch-root
/// verification, and the client is told to back off with a
/// [`Rejected`](crate::SetchainMsg::Rejected) reply carrying a `retry_after`
/// hint. Absent (the default), admission is unmetered and the pipeline is
/// byte-for-byte the pre-quota path.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QuotaConfig {
    /// Sustained admission rate per client, elements/second
    /// (`#[serde(default)]`: 2 000).
    #[serde(default = "default_rate_per_sec")]
    pub rate_per_sec: u64,
    /// Bucket capacity: how many elements a client may submit in one burst
    /// above the sustained rate (`#[serde(default)]`: 4 000).
    #[serde(default = "default_burst")]
    pub burst: u64,
    /// Maximum elements a client may have admitted but not yet stamped into
    /// an epoch; 0 disables the pending cap (`#[serde(default)]`: 50 000).
    #[serde(default = "default_max_pending")]
    pub max_pending: u64,
}

/// Serde default for [`QuotaConfig::rate_per_sec`].
fn default_rate_per_sec() -> u64 {
    2_000
}

/// Serde default for [`QuotaConfig::burst`].
fn default_burst() -> u64 {
    4_000
}

/// Serde default for [`QuotaConfig::max_pending`].
fn default_max_pending() -> u64 {
    50_000
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            rate_per_sec: default_rate_per_sec(),
            burst: default_burst(),
            max_pending: default_max_pending(),
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

/// Configuration of a Setchain deployment (shared by all servers of a run).
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// Collector timeout: a non-empty batch is flushed after this long even
    /// if the size threshold was not reached.
    pub collector_timeout: SimDuration,
    /// Timeout for a Hashchain `Request_batch` round trip before the request
    /// is retried with another signer (or the hash-batch is skipped).
    pub request_timeout: SimDuration,
    /// Maximum number of servers asked for a batch before giving up.
    pub max_request_retries: usize,
    /// Whether Hashchain runs the hash-reversal service ("Hashchain" vs
    /// "Hashchain light" in Fig. 2 left).
    pub hash_reversal: bool,
    /// Whether Compresschain decompresses and validates batches on block
    /// delivery ("Compresschain" vs "Compresschain light" in Fig. 2 left).
    pub decompress_validate: bool,
    /// Hashchain variant from the paper's discussion of the hash-reversal
    /// bottleneck: when `Some(k)`, only the first `k` servers (typically
    /// `2f + 1`) counter-sign hash-batches and emit epoch-proofs, instead of
    /// all `n`. Must satisfy `k >= f + 1` so consolidation and commitment
    /// remain possible with `f` Byzantine servers. `None` (the default) is
    /// the paper's evaluated algorithm where every server signs.
    pub designated_signers: Option<usize>,
    /// Hashchain variant from the paper's discussion: when true, a server
    /// that flushes a batch proactively pushes the batch contents to all
    /// other servers ("alternative distributed batch-sharing mechanism"), so
    /// hash reversal rarely needs a `Request_batch` round trip.
    pub push_batches: bool,
    /// How client submissions are authenticated (`#[serde(default)]`:
    /// configurations written before batch authentication existed read back
    /// as [`AuthMode::PerElement`]).
    #[serde(default)]
    pub auth_mode: AuthMode,
    /// Persistent epoch storage; `None` (the default, and what
    /// configurations written before the store existed read back as) keeps
    /// the pure in-RAM path.
    #[serde(default)]
    pub store: Option<StoreConfig>,
    /// Per-client admission quotas; `None` (the default, and what
    /// configurations written before overload protection existed read back
    /// as) leaves admission unmetered — the exact pre-quota path.
    #[serde(default)]
    pub quota: Option<QuotaConfig>,
    /// CPU cost model.
    pub costs: CostModel,
}

impl SetchainConfig {
    /// Default configuration for `n` servers: `f = ⌊(n-1)/2⌋`, collector
    /// limit 100, collector timeout 200 ms, full (non-light) algorithms.
    pub fn new(servers: usize) -> Self {
        assert!(servers >= 1, "at least one server required");
        SetchainConfig {
            servers,
            f: (servers.saturating_sub(1)) / 2,
            collector_limit: 100,
            collector_timeout: SimDuration::from_millis(200),
            request_timeout: SimDuration::from_millis(2_000),
            max_request_retries: 3,
            hash_reversal: true,
            decompress_validate: true,
            designated_signers: None,
            push_batches: false,
            auth_mode: AuthMode::default(),
            store: None,
            quota: None,
            costs: CostModel::default(),
        }
    }

    /// Sets the collector limit (paper values: 100 or 500).
    pub fn with_collector_limit(mut self, limit: usize) -> Self {
        assert!(limit >= 1, "collector limit must be positive");
        self.collector_limit = limit;
        self
    }

    /// Sets the Setchain fault bound `f` explicitly.
    pub fn with_f(mut self, f: usize) -> Self {
        assert!(f < self.servers, "need f < n");
        self.f = f;
        self
    }

    /// Disables hash-reversal and hash-batch validation (Hashchain light).
    pub fn light_hashchain(mut self) -> Self {
        self.hash_reversal = false;
        self
    }

    /// Disables decompression and validation on delivery (Compresschain
    /// light).
    pub fn light_compresschain(mut self) -> Self {
        self.decompress_validate = false;
        self
    }

    /// Restricts hash-batch counter-signing and epoch-proof emission to the
    /// first `k` servers (the paper suggests `2f + 1`).
    pub fn with_designated_signers(mut self, k: usize) -> Self {
        assert!(
            k > self.f && k <= self.servers,
            "designated signer set must satisfy f < k <= n"
        );
        self.designated_signers = Some(k);
        self
    }

    /// Enables push-based batch dissemination for Hashchain.
    pub fn with_push_batches(mut self) -> Self {
        self.push_batches = true;
        self
    }

    /// Sets the submission authentication mode (default
    /// [`AuthMode::PerElement`]).
    pub fn with_auth_mode(mut self, mode: AuthMode) -> Self {
        self.auth_mode = mode;
        self
    }

    /// Enables persistent epoch storage (default off: pure in-RAM state).
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }

    /// Enables per-client admission quotas (default off: unmetered
    /// admission, the exact pre-quota path).
    pub fn with_quota(mut self, quota: QuotaConfig) -> Self {
        self.quota = Some(quota);
        self
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

    /// True if the server with this index participates in hash-batch
    /// counter-signing and epoch-proof emission (always true unless a
    /// designated signer set is configured).
    pub fn is_designated(&self, server_index: usize) -> bool {
        match self.designated_signers {
            Some(k) => server_index < k,
            None => true,
        }
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
    fn builder_methods() {
        let cfg = SetchainConfig::new(10)
            .with_collector_limit(500)
            .with_f(3)
            .light_hashchain()
            .light_compresschain();
        assert_eq!(cfg.collector_limit, 500);
        assert_eq!(cfg.f, 3);
        assert!(!cfg.hash_reversal);
        assert!(!cfg.decompress_validate);
    }

    #[test]
    fn cost_model_scales_with_size() {
        let costs = CostModel::default();
        assert_eq!(costs.hash_cost(1024).as_micros(), 2);
        assert_eq!(costs.hash_cost(4096).as_micros(), 8);
        assert_eq!(costs.hash_cost(1).as_micros(), 2); // rounds up to one KiB
        assert_eq!(costs.validate_cost(100).as_micros(), 500);
        assert!(costs.compress_cost(10_000) > costs.decompress_cost(10_000));
    }

    #[test]
    fn auth_mode_defaults_to_per_element() {
        let cfg = SetchainConfig::new(4);
        assert_eq!(cfg.auth_mode, AuthMode::PerElement);
        assert_eq!(AuthMode::default(), AuthMode::PerElement);
        let cfg = cfg.with_auth_mode(AuthMode::BatchRoot);
        assert_eq!(cfg.auth_mode, AuthMode::BatchRoot);
    }

    #[test]
    fn designated_signers_and_push_batches() {
        let cfg = SetchainConfig::new(10); // f = 4
        assert!(cfg.is_designated(0));
        assert!(cfg.is_designated(9));
        assert!(!cfg.push_batches);
        let cfg = cfg.with_designated_signers(9).with_push_batches();
        assert!(cfg.is_designated(8));
        assert!(!cfg.is_designated(9));
        assert!(cfg.push_batches);
        assert_eq!(cfg.designated_signers, Some(9));
    }

    #[test]
    fn store_defaults_to_in_memory() {
        let cfg = SetchainConfig::new(4);
        assert!(cfg.store.is_none(), "no store unless configured");
        let cfg = cfg.with_store(StoreConfig::new("/tmp/setchain"));
        let store = cfg.store.expect("configured");
        assert_eq!(store.dir, "/tmp/setchain");
        // The serde defaults mirror the constructor, so pre-store
        // configurations (no `store` key) and sparse store configurations
        // both read back with working values.
        assert_eq!(store.segment_bytes, default_segment_bytes());
        assert_eq!(store.retain_epochs, None);
        let tuned = StoreConfig::new("d")
            .with_segment_bytes(1024)
            .with_retain_epochs(8);
        assert_eq!(tuned.segment_bytes, 1024);
        assert_eq!(tuned.retain_epochs, Some(8));
    }

    #[test]
    fn quota_defaults_to_unmetered_admission() {
        let cfg = SetchainConfig::new(4);
        assert!(cfg.quota.is_none(), "no quota unless configured");
        let cfg = cfg.with_quota(QuotaConfig::new());
        let quota = cfg.quota.expect("configured");
        // The serde defaults mirror the constructor, so pre-quota
        // configurations (no `quota` key) and sparse quota configurations
        // both read back with working values.
        assert_eq!(quota.rate_per_sec, default_rate_per_sec());
        assert_eq!(quota.burst, default_burst());
        assert_eq!(quota.max_pending, default_max_pending());
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

    #[test]
    #[should_panic(expected = "f < k <= n")]
    fn too_small_designated_set_panics() {
        // f = 4 for 10 servers; k must exceed f.
        let _ = SetchainConfig::new(10).with_designated_signers(4);
    }

    #[test]
    #[should_panic(expected = "f < n")]
    fn invalid_f_panics() {
        let _ = SetchainConfig::new(4).with_f(4);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = SetchainConfig::new(0);
    }
}
