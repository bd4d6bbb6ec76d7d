//! Experiment scenarios: the parameters of one run, set through
//! [`Deployment::builder`](crate::Deployment::builder), and the parameter
//! space of Table 1.

use setchain::Algorithm;
use setchain_ledger::types::MAX_BLOCK_BYTES;

use crate::adversary::Adversary;

/// The parameters of one experiment run (one line/bar/curve of a figure)
/// that are not Setchain server configuration: the algorithm, the load, the
/// network, the run length and the seed.
///
/// A scenario is configured through
/// [`Deployment::builder`](crate::Deployment::builder), the one fluent
/// surface: it starts from [`Scenario::base`] and sets each knob once.
/// Built deployments expose the result as `deployment.scenario`; the
/// server count, collector size, light ablation, Hashchain variants,
/// authentication mode, store and quotas live once, on the
/// [`SetchainConfig`](setchain::SetchainConfig) in `deployment.config`. The
/// struct is `#[non_exhaustive]`, so it is read, not constructed, outside
/// this crate.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Scenario {
    /// Human-readable label used in reports.
    pub label: String,
    /// Which Setchain algorithm runs.
    pub algorithm: Algorithm,
    /// Total element injection rate across all clients, in elements/second
    /// (Table 1: 500, 1 000, 5 000, 10 000).
    pub sending_rate: f64,
    /// Artificial network delay in milliseconds (Table 1: 0, 30, 100).
    pub network_delay_ms: u64,
    /// Uniform message loss probability in `[0, 1]` (degraded-network
    /// operation; the paper's cluster runs lossless, so the default is 0).
    pub loss_rate: f64,
    /// How long clients inject elements (the paper uses 50 s).
    pub injection_secs: u64,
    /// Hard stop for the run even if elements remain uncommitted.
    pub max_run_secs: u64,
    /// Ledger block size in bytes (paper default 0.5 MB,
    /// [`MAX_BLOCK_BYTES`]).
    pub block_bytes: usize,
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
    /// The paper's base scenario (Section 4.1): 10 000 el/s, no added delay,
    /// 50 s of injection. (Its 10 servers and collector 100 are the
    /// builder's starting [`SetchainConfig::new(10)`](setchain::SetchainConfig::new).)
    pub fn base(algorithm: Algorithm) -> Self {
        Scenario {
            label: algorithm.name().to_string(),
            algorithm,
            sending_rate: 10_000.0,
            network_delay_ms: 0,
            loss_rate: 0.0,
            injection_secs: 50,
            max_run_secs: 300,
            block_bytes: MAX_BLOCK_BYTES,
            adversary: None,
            detailed_trace: false,
            seed: 42,
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
    use setchain::StoreConfig;

    #[test]
    fn base_scenario_matches_paper() {
        let builder = Deployment::builder(Algorithm::Hashchain);
        let s = builder.scenario();
        assert_eq!(s.sending_rate, 10_000.0);
        assert_eq!(s.network_delay_ms, 0);
        assert_eq!(s.injection_secs, 50);
        assert_eq!(s.block_bytes, 524_288);
        let config = builder.config();
        assert_eq!(config.servers, 10);
        assert_eq!(config.f, 4);
        assert_eq!(config.collector_limit, 100);
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
            .rate(5_000.0)
            .delay_ms(30)
            .loss_rate(0.25)
            .injection_secs(20)
            .max_run_secs(60)
            .block_bytes(4 << 20)
            .store(StoreConfig::new(dir.to_str().expect("utf-8 temp dir")))
            .adversary(Adversary::FloodClient)
            .detailed()
            .seed(7)
            .build();
        let s = &d.scenario;
        assert_eq!(s.label, "knobs");
        assert_eq!(s.sending_rate, 5_000.0);
        assert_eq!(s.network_delay_ms, 30);
        assert_eq!(s.loss_rate, 0.25);
        assert_eq!(s.injection_secs, 20);
        assert_eq!(s.max_run_secs, 60);
        assert_eq!(s.block_bytes, 4 << 20);
        assert_eq!(s.adversary, Some(Adversary::FloodClient));
        assert!(s.detailed_trace);
        assert_eq!(s.seed, 7);
        assert_eq!(
            d.config.store.as_ref().map(|s| s.dir.as_str()),
            dir.to_str()
        );

        let default = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .build()
            .config;
        assert_eq!(default.collector_limit, 100);
        assert!(!default.light);
        assert!(!default.push_batches);
        assert!(default.store.is_none(), "in-memory by default");
        assert!(default.quota.is_none(), "unmetered by default");
    }

    #[test]
    fn table1_values() {
        assert_eq!(table1::SENDING_RATES.len(), 4);
        assert_eq!(table1::COLLECTOR_LIMITS, [100, 500]);
        assert_eq!(table1::SERVER_COUNTS, [4, 7, 10]);
        assert_eq!(table1::NETWORK_DELAYS_MS, [0, 30, 100]);
    }
}
