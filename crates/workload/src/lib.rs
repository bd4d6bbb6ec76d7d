//! Workloads, deployments, metrics and the analytical model for the Setchain
//! evaluation.
//!
//! This crate turns the `setchain` algorithm crate into runnable experiments:
//!
//! * [`generator`] — synthetic Arbitrum-like elements reproducing the size
//!   distribution the paper reports (mean 438 B, σ 753.5).
//! * [`scenario`] — the parameters of one run and Table 1's parameter
//!   space (sending rate, collector size, server count, network delay).
//! * [`deploy`] — builds a full simulated deployment: `n` ledger nodes each
//!   running a [`SetchainServer`](setchain::SetchainServer), plus one
//!   injection client per node (mirroring the paper's
//!   one-client-per-Docker-container setup).
//!   Assembled with the fluent [`Deployment::builder`].
//! * [`session`] — the one light client: a [`ClientSession`] scripts
//!   `add`/`get`/`get_epoch`, runs as the simulated client actor, verifies
//!   each epoch response once, and retries adds with failover. Results come
//!   back typed: [`AddReceipt`], [`SnapshotView`], [`VerifiedEpoch`].
//! * [`driver`] — [`ClientDriver`], the injection client actor (one per
//!   server).
//! * [`adversary`] — adversarial workload presets (flood, replay storm,
//!   hot-key skew, churn storm) driving one misbehaving client against the
//!   overload-protection path.
//! * [`runner`] — runs a deployment to completion and collects a
//!   [`runner::RunResult`].
//! * [`invariants`] — [`check_setchain_invariants`], the one checker of the
//!   Setchain properties on a deployment's servers.
//! * [`metrics`] — throughput-over-time series, efficiency, commit-time
//!   percentiles and the per-stage latency CDF of Fig. 4.
//! * [`analysis`] — the analytical throughput model of Appendix D.
//!
//! # Example
//!
//! Describe a deployment and query the analytical model:
//!
//! ```
//! use setchain::Algorithm;
//! use setchain_workload::{analytical_throughput, AnalysisParams, Deployment};
//!
//! let builder = Deployment::builder(Algorithm::Hashchain).servers(10);
//! assert_eq!(builder.config().f, 4); // f = ⌊(n−1)/2⌋
//!
//! // Appendix D ranks the algorithms: hashchain > compresschain > vanilla.
//! let params = AnalysisParams::default();
//! assert!(analytical_throughput(Algorithm::Hashchain, &params)
//!     > analytical_throughput(Algorithm::Compresschain, &params));
//! assert!(analytical_throughput(Algorithm::Compresschain, &params)
//!     > analytical_throughput(Algorithm::Vanilla, &params));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod analysis;
pub mod deploy;
pub mod driver;
pub mod generator;
pub mod invariants;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod session;

pub use adversary::{Adversary, AdversaryDriver};
pub use analysis::{analytical_throughput, AnalysisParams};
pub use deploy::{Deployment, DeploymentBuilder, ServerHandle, ServerNode};
pub use driver::ClientDriver;
pub use generator::ArbitrumWorkload;
pub use invariants::{check_setchain_invariants, InvariantReport};
pub use metrics::{CommitTimes, Efficiency, StageLatencies, ThroughputSeries};
pub use runner::RunResult;
pub use scenario::Scenario;
pub use session::{AddReceipt, ClientSession, SessionOutcome, SnapshotView, VerifiedEpoch};
