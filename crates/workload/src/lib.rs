//! Workloads, deployments, metrics and the analytical model for the Setchain
//! evaluation.
//!
//! This crate turns the `setchain` algorithm crate into runnable experiments:
//!
//! * [`generator`] — synthetic Arbitrum-like elements reproducing the size
//!   distribution the paper reports (mean 438 B, σ 753.5).
//! * [`scenario`] — the experiment parameter space of Table 1 (sending rate,
//!   collector size, server count, network delay) plus the scenario grids of
//!   every figure.
//! * [`deploy`] — builds a full simulated deployment: `n` ledger nodes each
//!   running a [`SetchainServer`](setchain::SetchainServer), plus one
//!   injection client per node (mirroring the paper's
//!   one-client-per-Docker-container setup).
//!   Assembled with the fluent [`Deployment::builder`].
//! * [`session`] — typed client sessions (`add`/`add_batch`/`get`/`get_epoch`
//!   returning [`AddReceipt`]/[`BatchReceipt`]/[`SnapshotView`]/
//!   [`VerifiedEpoch`]) replacing raw message scripting.
//! * [`driver`] — the injection client actor.
//! * [`adversary`] — adversarial workload presets (flood, replay storm,
//!   hot-key skew, churn storm) driving one misbehaving client against the
//!   overload-protection path.
//! * [`runner`] — runs a scenario to completion and collects a
//!   [`runner::RunResult`].
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
//! use setchain_workload::{analytical_throughput, AnalysisParams, Scenario};
//!
//! let scenario = Scenario::base(Algorithm::Hashchain).with_servers(10);
//! assert_eq!(scenario.setchain_f(), 4); // f = ⌊(n−1)/2⌋
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
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod session;

pub use adversary::{Adversary, AdversaryDriver};
pub use analysis::{analytical_throughput, AnalysisParams};
pub use deploy::{Deployment, DeploymentBuilder, ServerHandle, ServerNode};
pub use driver::{ClientDriver, RequestClient, RetryAdd, RetryPolicy, RetryReport};
pub use generator::ArbitrumWorkload;
pub use metrics::{CommitTimes, Efficiency, StageLatencies, ThroughputSeries};
pub use runner::{run_scenario, RunResult};
pub use scenario::Scenario;
pub use session::{
    AddReceipt, BatchReceipt, ClientSession, SessionOutcome, SnapshotView, VerifiedEpoch,
};
