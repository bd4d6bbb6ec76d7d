//! The five workloads, and the one place a deployment is built from them.
//!
//! Every workload is an open loop in *simulated* time: one injection client
//! per server sends fire-and-forget adds at the stated total rate for
//! `inject_secs`, and the simulation then drains for [`DRAIN_SECS`]. The
//! generator lives inside the single-threaded simulation, so it is never
//! late. Network: `NetworkConfig::lan()` (the builder's default); ledger:
//! 1.25 s blocks.

use setchain::{Algorithm, AuthMode, QuotaConfig, StoreConfig};
use setchain_workload::{Adversary, Deployment, DeploymentBuilder};

/// Simulated seconds every workload keeps running after injection stops —
/// several block intervals, so every element can reach its f+1 proofs.
pub const DRAIN_SECS: u64 = 10;

/// `--quick` divides every injection window by this.
pub const QUICK_DIVISOR: u64 = 20;

/// One workload definition. Shapes are fixed: no flag changes them except
/// `--quick`, which is a smoke test and never recorded.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub algorithm: Algorithm,
    pub servers: usize,
    pub collector: usize,
    /// Total honest injection rate over all clients, elements per sim-second.
    pub rate: f64,
    pub inject_secs: u64,
    /// Ledger block budget; `None` keeps the paper's 0.5 MiB default.
    pub block_bytes: Option<usize>,
    /// Persist committed epochs through `DiskStore`.
    pub store: bool,
    /// Quotas on, plus a flooding client attacking server 0.
    pub flood: bool,
}

const FOUR_MIB: usize = 4 * 1024 * 1024;

const HASH_STEADY: Workload = Workload {
    name: "hash_steady",
    why: "Hashchain workhorse shape run long: admission MACs, simnet fan-out, batch/epoch hashing; codec and store idle. Twin of the other hash_* workloads.",
    algorithm: Algorithm::Hashchain,
    servers: 4,
    collector: 64,
    rate: 5000.0,
    inject_secs: 100,
    block_bytes: Some(FOUR_MIB),
    store: false,
    flood: false,
};

pub const WORKLOADS: [Workload; 5] = [
    HASH_STEADY,
    Workload {
        name: "comp_codec",
        why: "Full Compresschain: LZ77 compress at the origin, decompress+validate at three peers; the only workload where the compress layer works.",
        algorithm: Algorithm::Compresschain,
        collector: 256,
        ..HASH_STEADY
    },
    Workload {
        name: "vanilla_n4",
        why: "Paper's reference algorithm: one ledger tx per element and per proof, so ledger and raw simnet event count dominate; no collector, no codec. Long and slow: 800 sim-s at 600 el/s.",
        algorithm: Algorithm::Vanilla,
        rate: 600.0,
        inject_secs: 800,
        block_bytes: None,
        ..HASH_STEADY
    },
    Workload {
        name: "hash_store",
        why: "hash_steady plus DiskStore persistence, pinned to the same counts: the wall delta against hash_steady is the store layer, superlinear in run length.",
        store: true,
        ..HASH_STEADY
    },
    Workload {
        name: "hash_flood",
        why: "hash_steady plus quotas and a flooding client: the admission layer shedding before any crypto; honest elements only are counted.",
        flood: true,
        ..HASH_STEADY
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Result<&'static Workload, String> {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?} (known: {})", known.join(", ")))
    }

    /// Injection window in sim-seconds at the given scale.
    pub fn inject_secs(&self, quick: bool) -> u64 {
        if quick {
            (self.inject_secs / QUICK_DIVISOR).max(1)
        } else {
            self.inject_secs
        }
    }

    /// Sim-second at which the run stops.
    pub fn end_secs(&self, quick: bool) -> u64 {
        self.inject_secs(quick) + DRAIN_SECS
    }

    /// The deployment builder for one run. `store_dir` must be a fresh
    /// directory when the workload persists; it is ignored otherwise.
    pub fn builder(
        &self,
        seed: u64,
        quick: bool,
        detailed: bool,
        store_dir: &str,
    ) -> DeploymentBuilder {
        let mut b = Deployment::builder(self.algorithm)
            .label(self.name)
            .servers(self.servers)
            .rate(self.rate)
            .collector(self.collector)
            .auth_mode(AuthMode::PerElement)
            .injection_secs(self.inject_secs(quick))
            .max_run_secs(self.end_secs(quick))
            .seed(seed);
        if let Some(bytes) = self.block_bytes {
            b = b.block_bytes(bytes);
        }
        if self.store {
            b = b.store(StoreConfig::new(store_dir));
        }
        if self.flood {
            b = b
                .quota(QuotaConfig::new())
                .adversary(Adversary::FloodClient);
        }
        if detailed {
            b = b.detailed();
        }
        b
    }
}

/// A free-form shape for `benchmark determinism`: any algorithm, cluster
/// size, rate and length, on the knobs the named workloads of that algorithm
/// use otherwise.
pub fn custom(algorithm: Algorithm, servers: usize, rate: f64, inject_secs: u64) -> Workload {
    let like = WORKLOADS
        .iter()
        .find(|w| w.algorithm == algorithm)
        .expect("every algorithm has a workload");
    Workload {
        name: "custom",
        why: "",
        servers,
        rate,
        inject_secs,
        ..*like
    }
}
