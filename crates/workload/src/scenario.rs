//! Experiment scenarios: the parameters of one run, set through
//! [`Deployment::builder`](crate::Deployment::builder), and the parameter
//! space of Table 1.

use setchain::{Algorithm, AuthMode, QuotaConfig, SetchainConfig, StoreConfig};

use crate::adversary::Adversary;

/// The parameters of one experiment run (one line/bar/curve of a figure).
///
/// A scenario is configured through
/// [`Deployment::builder`](crate::Deployment::builder), the one fluent
/// surface: it starts from [`Scenario::base`] and sets each knob once.
/// Built deployments expose the result as `deployment.scenario` (and the
/// [`SetchainConfig`] it resolves to as `deployment.config`). The struct is
/// `#[non_exhaustive]`, so it is read, not constructed, outside this crate.
#[derive(Clone, Debug)]
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
    pub designated_signers: Option<usize>,
    /// Hashchain variant: push batch contents to all servers at flush time
    /// instead of relying on `Request_batch`.
    pub push_batches: bool,
    /// How client submissions are authenticated: per-element MACs (the
    /// paper's scheme, the default) or one MAC over the Merkle root of each
    /// injected batch ([`AuthMode::BatchRoot`]).
    pub auth_mode: AuthMode,
    /// Persistent epoch storage (see [`setchain_store`](setchain::StoreConfig)):
    /// each server opens a segment store under `{dir}/server-{index}`,
    /// appends every committed epoch and recovers from it on restart.
    /// `None` (the default) is the exact in-memory pre-store pipeline.
    /// Store I/O is host-side, so schedules and digests are identical
    /// either way.
    pub store: Option<StoreConfig>,
    /// Per-client admission quotas (see [`setchain::quota`]): a deterministic
    /// token bucket plus a pending-element cap, enforced before any
    /// authentication work, with excess sent a `Rejected { retry_after }`
    /// hint. `None` (the default) is the exact unmetered pre-quota pipeline —
    /// schedules are byte-identical with quotas off.
    pub quota: Option<QuotaConfig>,
    /// Adversarial workload preset (see [`crate::adversary`]): one extra
    /// misbehaving client attacking server 0 alongside the honest injection
    /// clients. `None` (the default) runs attack-free.
    pub adversary: Option<Adversary>,
    /// Record the detailed per-element / per-transaction trace needed for the
    /// latency CDF (Fig. 4). Costs memory, so throughput runs leave it off.
    pub detailed_trace: bool,
    /// RNG seed.
    pub seed: u64,
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

    /// Per-client sending rate (`sending_rate / server_count`), as in the
    /// paper's experiment description.
    pub fn per_client_rate(&self) -> f64 {
        self.sending_rate / self.servers as f64
    }

    /// The Setchain fault bound `f` for this deployment (`⌊(n−1)/2⌋`).
    pub fn setchain_f(&self) -> usize {
        SetchainConfig::new(self.servers).f
    }

    /// The [`SetchainConfig`] this scenario resolves to — the one place the
    /// scenario knobs (collector, variants, light ablation) are mapped onto
    /// the algorithm configuration.
    pub fn setchain_config(&self) -> SetchainConfig {
        let config = SetchainConfig {
            collector_limit: self.collector_limit,
            designated_signers: self.designated_signers,
            push_batches: self.push_batches,
            auth_mode: self.auth_mode,
            store: self.store.clone(),
            quota: self.quota,
            ..SetchainConfig::new(self.servers)
        };
        if self.light {
            self.algorithm.light_config(config)
        } else {
            config
        }
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
    use crate::Deployment;

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
    }

    /// Removes the knob test's store directories, pass or fail.
    struct RemoveOnDrop(std::path::PathBuf);

    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn setchain_config_maps_every_knob() {
        let dir = std::env::temp_dir().join(format!("setchain-knobs-{}", std::process::id()));
        let _cleanup = RemoveOnDrop(dir.clone());
        let d = Deployment::builder(Algorithm::Hashchain)
            .label("knobs")
            .servers(10)
            .rate(5_000.0)
            .collector(500)
            .delay_ms(30)
            .loss_rate(0.25)
            .injection_secs(20)
            .max_run_secs(60)
            .block_bytes(4 << 20)
            .designated_signers(9)
            .push_batches()
            .auth_mode(AuthMode::BatchRoot)
            .store(StoreConfig::new(dir.to_str().expect("utf-8 temp dir")))
            .quota(QuotaConfig::new().with_rate(500))
            .adversary(Adversary::FloodClient)
            .detailed()
            .seed(7)
            .build();
        let s = &d.scenario;
        assert_eq!(s.label, "knobs");
        assert_eq!(s.servers, 10);
        assert_eq!(s.sending_rate, 5_000.0);
        assert_eq!(s.network_delay_ms, 30);
        assert_eq!(s.loss_rate, 0.25);
        assert_eq!(s.injection_secs, 20);
        assert_eq!(s.max_run_secs, 60);
        assert_eq!(s.block_bytes, 4 << 20);
        assert_eq!(s.adversary, Some(Adversary::FloodClient));
        assert!(s.detailed_trace);
        assert_eq!(s.seed, 7);

        let config = &d.config;
        assert_eq!(config.servers, 10);
        assert_eq!(config.f, 4);
        assert_eq!(config.collector_limit, 500);
        assert_eq!(config.designated_signers, Some(9));
        assert!(config.push_batches);
        assert_eq!(config.auth_mode, AuthMode::BatchRoot);
        assert_eq!(config.store.as_ref().map(|s| s.dir.as_str()), dir.to_str());
        assert_eq!(config.quota.map(|q| q.rate_per_sec), Some(500));
        assert!(
            config.hash_reversal && config.decompress_validate,
            "full mode keeps both"
        );

        let default = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .build()
            .config;
        assert_eq!(default.collector_limit, 100);
        assert_eq!(default.designated_signers, None);
        assert!(!default.push_batches);
        assert_eq!(default.auth_mode, AuthMode::PerElement);
        assert!(default.store.is_none(), "in-memory by default");
        assert!(default.quota.is_none(), "unmetered by default");

        for (algorithm, hash_reversal, decompress_validate) in [
            (Algorithm::Hashchain, false, true),
            (Algorithm::Compresschain, true, false),
        ] {
            let light = Deployment::builder(algorithm)
                .servers(4)
                .light()
                .build()
                .config;
            assert_eq!(light.hash_reversal, hash_reversal, "{algorithm} light");
            assert_eq!(
                light.decompress_validate, decompress_validate,
                "{algorithm} light"
            );
        }
    }

    #[test]
    fn table1_values() {
        assert_eq!(table1::SENDING_RATES.len(), 4);
        assert_eq!(table1::COLLECTOR_LIMITS, [100, 500]);
        assert_eq!(table1::SERVER_COUNTS, [4, 7, 10]);
        assert_eq!(table1::NETWORK_DELAYS_MS, [0, 30, 100]);
    }
}
