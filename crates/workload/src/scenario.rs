//! Experiment scenarios: the parameter space of Table 1 and the concrete
//! scenario grids behind each figure.

use serde::{Deserialize, Serialize};
use setchain::{Algorithm, AuthMode, QuotaConfig, SetchainConfig, StoreConfig};
use setchain_simnet::SimDuration;

use crate::adversary::Adversary;

/// The parameters of one experiment run (one line/bar/curve of a figure).
///
/// The struct is `#[non_exhaustive]`: new knobs will be added as new
/// workloads land. Downstream code should start from [`Scenario::base`] (or
/// [`Scenario::default`]) and chain the `with_*` builders — or use
/// [`Deployment::builder`](crate::Deployment::builder) directly — so it
/// keeps compiling across field additions.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[non_exhaustive]
pub struct Scenario {
    /// Human-readable label used in reports.
    pub label: String,
    /// Which Setchain algorithm runs.
    pub algorithm: Algorithm,
    /// Number of servers (Table 1: 4, 7 or 10).
    pub servers: usize,
    /// Total element injection rate across all clients, in elements/second
    /// (Table 1: 500, 1 000, 5 000, 10 000).
    pub sending_rate: f64,
    /// Collector size (Table 1: 100 or 500); ignored by Vanilla.
    pub collector_limit: usize,
    /// Artificial network delay in milliseconds (Table 1: 0, 30, 100).
    pub network_delay_ms: u64,
    /// Uniform message loss probability in `[0, 1]` (degraded-network
    /// operation; the paper's cluster runs lossless, so the default is 0).
    #[serde(default)]
    pub loss_rate: f64,
    /// How long clients inject elements (the paper uses 50 s).
    pub injection_secs: u64,
    /// Hard stop for the run even if elements remain uncommitted.
    pub max_run_secs: u64,
    /// Ledger block size in bytes (paper default 0.5 MB).
    pub block_bytes: usize,
    /// "Light" ablation: Hashchain without hash reversal, Compresschain
    /// without decompression/validation (Fig. 2 left).
    pub light: bool,
    /// Hashchain variant: restrict counter-signing and epoch-proof emission
    /// to the first `k` servers (the paper's 2f+1 suggestion). `None` runs
    /// the evaluated algorithm where every server signs.
    #[serde(default)]
    pub designated_signers: Option<usize>,
    /// Hashchain variant: push batch contents to all servers at flush time
    /// instead of relying on `Request_batch`.
    #[serde(default)]
    pub push_batches: bool,
    /// How client submissions are authenticated: per-element MACs (the
    /// paper's scheme, the default) or one MAC over the Merkle root of each
    /// injected batch ([`AuthMode::BatchRoot`]).
    #[serde(default)]
    pub auth_mode: AuthMode,
    /// Persistent epoch storage (see [`setchain_store`](setchain::StoreConfig)):
    /// each server opens a segment store under `{dir}/server-{index}`,
    /// appends every committed epoch and recovers from it on restart.
    /// `None` (the default) is the exact in-memory pre-store pipeline.
    /// Store I/O is host-side, so schedules and digests are identical
    /// either way.
    #[serde(default)]
    pub store: Option<StoreConfig>,
    /// Per-client admission quotas (see [`setchain::quota`]): a deterministic
    /// token bucket plus a pending-element cap, enforced before any
    /// authentication work, with excess sent a `Rejected { retry_after }`
    /// hint. `None` (the default) is the exact unmetered pre-quota pipeline —
    /// schedules are byte-identical with quotas off.
    #[serde(default)]
    pub quota: Option<QuotaConfig>,
    /// Adversarial workload preset (see [`crate::adversary`]): one extra
    /// misbehaving client attacking server 0 alongside the honest injection
    /// clients. `None` (the default) runs attack-free.
    #[serde(default)]
    pub adversary: Option<Adversary>,
    /// Record the detailed per-element / per-transaction trace needed for the
    /// latency CDF (Fig. 4). Costs memory, so throughput runs leave it off.
    pub detailed_trace: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Scenario {
    /// The paper's base scenario for its primary contribution: Hashchain
    /// (see [`Scenario::base`]).
    fn default() -> Self {
        Scenario::base(Algorithm::Hashchain)
    }
}

impl Scenario {
    /// The paper's base scenario (Section 4.1): 10 servers, 10 000 el/s, no
    /// added delay, collector 100, 50 s of injection.
    pub fn base(algorithm: Algorithm) -> Self {
        Scenario {
            label: algorithm.name().to_string(),
            algorithm,
            servers: 10,
            sending_rate: 10_000.0,
            collector_limit: 100,
            network_delay_ms: 0,
            loss_rate: 0.0,
            injection_secs: 50,
            max_run_secs: 300,
            block_bytes: 524_288, // 0.5 MB, as in the paper's analysis

            light: false,
            designated_signers: None,
            push_batches: false,
            auth_mode: AuthMode::default(),
            store: None,
            quota: None,
            adversary: None,
            detailed_trace: false,
            seed: 42,
        }
    }

    /// Builder: sets the label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Builder: sets the total sending rate.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.sending_rate = rate;
        self
    }

    /// Builder: sets the collector size.
    pub fn with_collector(mut self, limit: usize) -> Self {
        self.collector_limit = limit;
        self
    }

    /// Builder: sets the number of servers.
    pub fn with_servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Builder: sets the artificial network delay (ms).
    pub fn with_delay_ms(mut self, ms: u64) -> Self {
        self.network_delay_ms = ms;
        self
    }

    /// Builder: sets the uniform message loss probability (default 0).
    pub fn with_loss_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "loss rate must be in [0,1], got {rate}"
        );
        self.loss_rate = rate;
        self
    }

    /// Builder: sets the injection duration in seconds.
    pub fn with_injection_secs(mut self, secs: u64) -> Self {
        self.injection_secs = secs;
        self
    }

    /// Builder: sets the maximum run duration in seconds.
    pub fn with_max_run_secs(mut self, secs: u64) -> Self {
        self.max_run_secs = secs;
        self
    }

    /// Builder: sets the ledger block size in bytes.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Builder: marks the run as a "light" ablation.
    pub fn light(mut self) -> Self {
        self.light = true;
        self
    }

    /// Builder: restricts counter-signing to the first `k` servers
    /// (Hashchain's 2f+1 variant).
    pub fn with_designated_signers(mut self, k: usize) -> Self {
        self.designated_signers = Some(k);
        self
    }

    /// Builder: enables push-based batch dissemination (Hashchain variant).
    pub fn with_push_batches(mut self) -> Self {
        self.push_batches = true;
        self
    }

    /// Builder: sets the submission authentication mode (default
    /// [`AuthMode::PerElement`]).
    pub fn with_auth_mode(mut self, mode: AuthMode) -> Self {
        self.auth_mode = mode;
        self
    }

    /// Builder: enables persistent epoch storage (default in-memory).
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }

    /// Builder: enables per-client admission quotas (default unmetered).
    pub fn with_quota(mut self, quota: QuotaConfig) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Builder: adds an adversarial client running `preset` (default
    /// attack-free).
    pub fn with_adversary(mut self, preset: Adversary) -> Self {
        self.adversary = Some(preset);
        self
    }

    /// Builder: enables the detailed trace.
    pub fn detailed(mut self) -> Self {
        self.detailed_trace = true;
        self
    }

    /// Builder: sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-client sending rate (`sending_rate / server_count`), as in the
    /// paper's experiment description.
    pub fn per_client_rate(&self) -> f64 {
        self.sending_rate / self.servers as f64
    }

    /// Collector timeout used by the runs (the paper mentions a timeout but
    /// not its value; 200 ms keeps batches moving at low rates).
    pub fn collector_timeout(&self) -> SimDuration {
        SimDuration::from_millis(200)
    }

    /// The Setchain fault bound `f` for this deployment (`⌊(n−1)/2⌋`).
    pub fn setchain_f(&self) -> usize {
        (self.servers - 1) / 2
    }

    /// The [`SetchainConfig`] this scenario resolves to — the one place the
    /// scenario knobs (collector, timeout, variants, light ablation) are
    /// mapped onto the algorithm configuration.
    pub fn setchain_config(&self) -> SetchainConfig {
        let mut config =
            SetchainConfig::new(self.servers).with_collector_limit(self.collector_limit);
        config.collector_timeout = self.collector_timeout();
        if let Some(k) = self.designated_signers {
            config = config.with_designated_signers(k);
        }
        if self.push_batches {
            config = config.with_push_batches();
        }
        config = config.with_auth_mode(self.auth_mode);
        if let Some(store) = &self.store {
            config = config.with_store(store.clone());
        }
        if let Some(quota) = self.quota {
            config = config.with_quota(quota);
        }
        if self.light {
            config = self.algorithm.light_config(config);
        }
        config
    }

    /// Expected number of injected elements.
    pub fn expected_elements(&self) -> u64 {
        (self.sending_rate * self.injection_secs as f64).round() as u64
    }
}

/// Table 1 of the paper: the evaluated parameter values.
pub mod table1 {
    /// Sending rates (elements per second).
    pub const SENDING_RATES: [f64; 4] = [500.0, 1_000.0, 5_000.0, 10_000.0];
    /// Collector sizes (elements).
    pub const COLLECTOR_LIMITS: [usize; 2] = [100, 500];
    /// Server counts.
    pub const SERVER_COUNTS: [usize; 3] = [4, 7, 10];
    /// Added network delays (ms).
    pub const NETWORK_DELAYS_MS: [u64; 3] = [0, 30, 100];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_scenario_matches_paper() {
        let s = Scenario::base(Algorithm::Hashchain);
        assert_eq!(s.servers, 10);
        assert_eq!(s.sending_rate, 10_000.0);
        assert_eq!(s.network_delay_ms, 0);
        assert_eq!(s.injection_secs, 50);
        assert_eq!(s.block_bytes, 524_288);
        assert_eq!(s.per_client_rate(), 1_000.0);
        assert_eq!(s.setchain_f(), 4);
        assert_eq!(s.expected_elements(), 500_000);
    }

    #[test]
    fn builders_compose() {
        let s = Scenario::base(Algorithm::Compresschain)
            .with_label("Compresschain c=500")
            .with_rate(5_000.0)
            .with_collector(500)
            .with_servers(7)
            .with_delay_ms(30)
            .with_injection_secs(20)
            .with_max_run_secs(60)
            .with_seed(7)
            .light()
            .detailed();
        assert_eq!(s.label, "Compresschain c=500");
        assert_eq!(s.sending_rate, 5_000.0);
        assert_eq!(s.collector_limit, 500);
        assert_eq!(s.servers, 7);
        assert_eq!(s.network_delay_ms, 30);
        assert_eq!(s.injection_secs, 20);
        assert_eq!(s.max_run_secs, 60);
        assert!(s.light);
        assert!(s.detailed_trace);
        assert_eq!(s.seed, 7);
        assert_eq!(s.setchain_f(), 3);
    }

    #[test]
    fn default_is_the_hashchain_base_scenario() {
        let d = Scenario::default();
        assert_eq!(d.algorithm, Algorithm::Hashchain);
        assert_eq!(d.servers, 10);
        let s = Scenario::default().with_block_bytes(4 * 1024 * 1024);
        assert_eq!(s.block_bytes, 4 * 1024 * 1024);
    }

    #[test]
    fn setchain_config_maps_every_knob() {
        let s = Scenario::base(Algorithm::Hashchain)
            .with_servers(10)
            .with_collector(500)
            .with_designated_signers(9)
            .with_push_batches()
            .with_auth_mode(AuthMode::BatchRoot)
            .with_store(StoreConfig::new("/tmp/setchain-knob-test"))
            .with_quota(QuotaConfig::new().with_rate(500))
            .with_adversary(Adversary::FloodClient);
        let config = s.setchain_config();
        assert_eq!(config.servers, 10);
        assert_eq!(config.collector_limit, 500);
        assert_eq!(config.designated_signers, Some(9));
        assert!(config.push_batches);
        assert_eq!(config.auth_mode, AuthMode::BatchRoot);
        assert_eq!(
            config.store.as_ref().map(|s| s.dir.as_str()),
            Some("/tmp/setchain-knob-test")
        );
        assert!(config.hash_reversal, "full mode keeps hash reversal");
        assert_eq!(config.quota.map(|q| q.rate_per_sec), Some(500));
        assert_eq!(s.adversary, Some(Adversary::FloodClient));
        let default_auth = Scenario::base(Algorithm::Hashchain).setchain_config();
        assert_eq!(default_auth.auth_mode, AuthMode::PerElement);
        assert!(default_auth.store.is_none(), "in-memory by default");
        assert!(default_auth.quota.is_none(), "unmetered by default");

        let light = Scenario::base(Algorithm::Hashchain)
            .light()
            .setchain_config();
        assert!(!light.hash_reversal, "light hashchain disables reversal");
        assert!(light.decompress_validate);
        let light_c = Scenario::base(Algorithm::Compresschain)
            .light()
            .setchain_config();
        assert!(light_c.hash_reversal);
        assert!(!light_c.decompress_validate);
    }

    #[test]
    fn table1_values() {
        assert_eq!(table1::SENDING_RATES.len(), 4);
        assert_eq!(table1::COLLECTOR_LIMITS, [100, 500]);
        assert_eq!(table1::SERVER_COUNTS, [4, 7, 10]);
        assert_eq!(table1::NETWORK_DELAYS_MS, [0, 30, 100]);
    }
}
