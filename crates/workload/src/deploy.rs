//! Builds a complete simulated deployment for a scenario: `n` ledger
//! validators each running the configured Setchain algorithm, plus one
//! injection client per validator — mirroring the paper's setup of one Docker
//! container per machine containing one client, one collector and one
//! CometBFT server.
//!
//! Every server is the one concrete [`SetchainServer`] type: the deployment
//! holds `LedgerNode<SetchainServer>` nodes and never dispatches on
//! [`Algorithm`](setchain::Algorithm) itself.
//!
//! Deployments are assembled with the fluent [`Deployment::builder`]:
//!
//! ```
//! use setchain::Algorithm;
//! use setchain_workload::Deployment;
//!
//! let deployment = Deployment::builder(Algorithm::Hashchain)
//!     .servers(4)
//!     .rate(200.0)
//!     .collector(25)
//!     .injection_secs(2)
//!     .max_run_secs(10)
//!     .build();
//! assert_eq!(deployment.server(0).algorithm(), Algorithm::Hashchain);
//! ```

use setchain::{
    ServerByzMode, ServerCore, ServerStats, SetchainConfig, SetchainMsg, SetchainServer,
    SetchainState, SetchainTrace, SetchainTx, SharedBatchRegistry,
};
use setchain_crypto::{KeyRegistry, ProcessId};
use setchain_ledger::{ByzMode, LedgerConfig, LedgerNode, LedgerTrace, NetMsg};
use setchain_simnet::{FaultPlan, NetworkConfig, SimTime, Simulation, SimulationConfig};

use crate::adversary::{Adversary, AdversaryDriver};
use crate::driver::ClientDriver;
use crate::generator::ArbitrumWorkload;
use crate::scenario::Scenario;
use crate::session::ClientSession;

/// Message type of Setchain deployments.
pub type Msg = NetMsg<SetchainTx, SetchainMsg>;

/// The one concrete node type every deployment server uses, regardless of
/// algorithm: a ledger validator driving a [`SetchainServer`].
pub type ServerNode = LedgerNode<SetchainServer>;

/// A built deployment, ready to run.
pub struct Deployment {
    /// The simulation holding all servers and clients.
    pub sim: Simulation<Msg>,
    /// The scenario this deployment was built from.
    pub scenario: Scenario,
    /// The PKI shared by every process.
    pub registry: KeyRegistry,
    /// Setchain-level experiment trace.
    pub trace: SetchainTrace,
    /// Ledger-level trace (mempool / block stages).
    pub ledger_trace: LedgerTrace,
    /// The Setchain configuration used by every server.
    pub config: SetchainConfig,
}

/// Typed access to a server after (or during) a run, independent of which
/// algorithm it runs.
///
/// The handle wraps the deployment's one concrete node type
/// ([`ServerNode`]). The two algorithm-specific readings are plain
/// `Option`s, `None` on a server that runs another algorithm:
///
/// ```no_run
/// # use setchain::Algorithm;
/// # use setchain_workload::Deployment;
/// # let deployment = Deployment::builder(Algorithm::Compresschain).build();
/// let ratio = deployment
///     .server(0)
///     .compression_ratio()
///     .expect("compresschain deployment");
/// ```
#[derive(Clone, Copy)]
pub struct ServerHandle<'a> {
    node: &'a ServerNode,
}

impl<'a> ServerHandle<'a> {
    /// Compresschain: average compression ratio of the batches this server
    /// flushed. `None` under the other algorithms.
    pub fn compression_ratio(&self) -> Option<f64> {
        self.node.app().compression_ratio()
    }

    /// Hashchain: number of batches whose contents this server knows.
    /// `None` under the other algorithms.
    pub fn known_batches(&self) -> Option<usize> {
        self.node.app().known_batches()
    }

    /// The algorithm this server runs.
    pub fn algorithm(&self) -> setchain::Algorithm {
        self.node.app().algorithm()
    }

    /// The server's Setchain state.
    pub fn state(&self) -> &'a SetchainState {
        self.node.app().state()
    }

    /// The server's application counters.
    pub fn stats(&self) -> ServerStats {
        self.node.app().stats()
    }

    /// The algorithm-agnostic server core: admission caches, quota state,
    /// proof bookkeeping — read-only inspection across all variants.
    pub fn core(&self) -> &'a ServerCore {
        self.node.app().core()
    }

    /// The server's per-client quota state, if quotas are enabled.
    pub fn quota(&self) -> Option<&'a setchain::QuotaState> {
        self.core().quota()
    }

    /// The underlying ledger node (consensus-side inspection).
    pub fn node(&self) -> &'a ServerNode {
        self.node
    }

    /// The ledger height the server has reached.
    pub fn height(&self) -> u64 {
        self.node.height()
    }

    /// The server's current mempool occupancy.
    pub fn mempool_len(&self) -> usize {
        self.node.mempool_len()
    }
}

/// Fluent constructor for [`Deployment`]: run parameters, Setchain knobs
/// and fault injection in one chain.
///
/// Each method writes one field once: run parameters into the [`Scenario`],
/// Setchain knobs into the [`SetchainConfig`] every server gets (so call
/// order does not matter).
///
/// ```
/// use setchain::{Algorithm, ServerByzMode};
/// use setchain_ledger::ByzMode;
/// use setchain_workload::Deployment;
///
/// let deployment = Deployment::builder(Algorithm::Hashchain)
///     .servers(7)
///     .rate(700.0)
///     .collector(50)
///     .injection_secs(2)
///     .max_run_secs(10)
///     .server_fault(4, ServerByzMode::RefuseBatchService)
///     .ledger_fault(6, ByzMode::Silent)
///     .build();
/// assert_eq!(deployment.config.servers, 7);
/// ```
#[derive(Clone, Debug)]
pub struct DeploymentBuilder {
    scenario: Scenario,
    config: SetchainConfig,
    server_faults: Vec<(usize, ServerByzMode)>,
    ledger_faults: Vec<(usize, ByzMode)>,
    fault_plan: Option<FaultPlan>,
}

impl DeploymentBuilder {
    /// The scenario as configured so far.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The Setchain configuration as configured so far.
    pub fn config(&self) -> &SetchainConfig {
        &self.config
    }

    /// Sets the human-readable label used in reports.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.scenario.label = label.into();
        self
    }

    /// Sets the number of servers (and injection clients), and the fault
    /// bound `f = ⌊(n−1)/2⌋` that goes with it.
    pub fn servers(mut self, servers: usize) -> Self {
        self.config.servers = servers;
        self.config.f = SetchainConfig::new(servers).f;
        self
    }

    /// Sets the total element injection rate across all clients (el/s).
    pub fn rate(mut self, rate: f64) -> Self {
        self.scenario.sending_rate = rate;
        self
    }

    /// Sets the collector size (ignored by Vanilla).
    pub fn collector(mut self, limit: usize) -> Self {
        self.config.collector_limit = limit;
        self
    }

    /// Sets the artificial network delay in milliseconds.
    pub fn delay_ms(mut self, ms: u64) -> Self {
        self.scenario.network_delay_ms = ms;
        self
    }

    /// Sets how long clients inject elements, in seconds.
    pub fn injection_secs(mut self, secs: u64) -> Self {
        self.scenario.injection_secs = secs;
        self
    }

    /// Sets the hard stop for the run, in seconds.
    pub fn max_run_secs(mut self, secs: u64) -> Self {
        self.scenario.max_run_secs = secs;
        self
    }

    /// Sets the ledger block size in bytes.
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.scenario.block_bytes = bytes;
        self
    }

    /// Runs the algorithm's "light" ablation (Fig. 2 left); Vanilla has
    /// none and ignores it.
    ///
    /// The light ablations assume all servers correct; for "Hashchain
    /// light" any [`server_fault`](Self::server_fault) is ignored by the
    /// built servers (see [`SetchainServer::new`]).
    pub fn light(mut self) -> Self {
        self.config.light = true;
        self
    }

    /// Enables push-based batch dissemination (Hashchain variant).
    pub fn push_batches(mut self) -> Self {
        self.config.push_batches = true;
        self
    }

    /// A no-op kept only because the `benchmark/` package still calls it:
    /// per-element authentication is the only admission path.
    #[doc(hidden)]
    pub fn auth_mode(self, _mode: setchain::AuthMode) -> Self {
        self
    }

    /// Enables persistent epoch storage: every server opens a segment store
    /// under `{dir}/server-{index}`, appends each committed epoch, and on a
    /// later deployment over the same directories recovers its committed
    /// prefix locally before asking any peer. Default is in-memory (the
    /// exact pre-store pipeline).
    pub fn store(mut self, config: setchain::StoreConfig) -> Self {
        self.config.store = Some(config);
        self
    }

    /// Enables per-client admission quotas on every server: a deterministic
    /// token bucket plus a pending-element cap, enforced before any
    /// authentication work, with shed clients sent a
    /// `Rejected { retry_after }` hint. Default is unmetered (the exact
    /// pre-quota pipeline — schedules are byte-identical with quotas off).
    pub fn quota(mut self, config: setchain::QuotaConfig) -> Self {
        self.config.quota = Some(config);
        self
    }

    /// Adds one adversarial client running `preset` against server 0,
    /// occupying client index `servers` (the first index above the honest
    /// injection clients). Its traffic never enters the shared experiment
    /// trace, so added/committed totals keep measuring honest goodput only.
    pub fn adversary(mut self, preset: Adversary) -> Self {
        self.scenario.adversary = Some(preset);
        self
    }

    /// Records the detailed per-element trace (needed for the latency CDF).
    pub fn detailed(mut self) -> Self {
        self.scenario.detailed_trace = true;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Injects an application-level fault on server `index`.
    ///
    /// Ignored by "Hashchain light" servers ([`light`](Self::light)): the
    /// ablation assumes all servers correct. The faulty server is still
    /// excluded from the shared experiment trace either way.
    pub fn server_fault(mut self, index: usize, mode: ServerByzMode) -> Self {
        self.server_faults.push((index, mode));
        self
    }

    /// Injects a consensus-level fault on validator `index`.
    pub fn ledger_fault(mut self, index: usize, mode: ByzMode) -> Self {
        self.ledger_faults.push((index, mode));
        self
    }

    /// Installs a deterministic fault schedule (crashes, restarts,
    /// partitions, loss-rate changes) on the built simulation — applied at
    /// its scheduled instants during the run, before any same-instant
    /// message or timer dispatches. Chained calls merge their entries.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        match &mut self.fault_plan {
            Some(existing) => {
                for (at, event) in plan.entries() {
                    existing.push(*at, event.clone());
                }
            }
            None => self.fault_plan = Some(plan),
        }
        self
    }

    /// Sets a uniform message loss probability in `[0, 1]` active from the
    /// start of the run (degraded-network operation; loopback messages are
    /// never dropped). For losses that start mid-run, schedule
    /// [`FaultEvent::SetLossRate`](setchain_simnet::FaultEvent::SetLossRate)
    /// in a [`fault_plan`](Self::fault_plan) instead.
    pub fn loss_rate(mut self, rate: f64) -> Self {
        self.scenario.loss_rate = rate;
        self
    }

    /// Builds the deployment. This is the only construction body: the
    /// all-correct and faulty paths share it.
    pub fn build(self) -> Deployment {
        let scenario = self.scenario;
        let config = self.config;
        let n = config.servers;
        // The paper's per-client sending rate: `sending_rate / server_count`.
        let per_client_rate = scenario.sending_rate / n as f64;
        let registry = KeyRegistry::bootstrap(scenario.seed, n, n);
        let trace = if scenario.detailed_trace {
            SetchainTrace::detailed()
        } else {
            SetchainTrace::new()
        };
        let ledger_trace = if scenario.detailed_trace {
            LedgerTrace::new()
        } else {
            LedgerTrace::disabled()
        };

        // Out-of-band batch availability, shared by every server of a
        // "Hashchain light" deployment and ignored by all others.
        let shared_batches = SharedBatchRegistry::new();

        let mut ledger_config = LedgerConfig::with_validators(n);
        ledger_config.max_block_bytes = scenario.block_bytes;

        let network = NetworkConfig::lan()
            .with_extra_delay_ms(scenario.network_delay_ms)
            .with_loss_rate(scenario.loss_rate);
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig {
            seed: scenario.seed,
            network,
        });
        if let Some(plan) = self.fault_plan {
            // Installed before the first run step, so faults due at T apply
            // ahead of any message or timer scheduled at T.
            sim.install_fault_plan(plan);
        }

        for i in 0..n {
            let id = ProcessId::server(i);
            let keys = registry.lookup(id).expect("server registered");
            let server_byz = self
                .server_faults
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, m)| *m)
                .unwrap_or(ServerByzMode::Correct);
            let ledger_byz = self
                .ledger_faults
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, m)| *m)
                .unwrap_or(ByzMode::Correct);
            // Byzantine servers do not get to pollute the shared experiment
            // trace: their observations are not trusted measurements.
            let server_trace = if server_byz.is_faulty() || ledger_byz.is_faulty() {
                SetchainTrace::new()
            } else {
                trace.clone()
            };
            let core = ServerCore::new(
                keys,
                registry.clone(),
                config.clone(),
                server_trace,
                server_byz,
            );
            let app = SetchainServer::new(scenario.algorithm, core, shared_batches.clone());
            sim.add_process(
                id,
                Box::new(LedgerNode::new(
                    id,
                    ledger_config.clone(),
                    keys,
                    registry.clone(),
                    app,
                    ledger_trace.clone(),
                    ledger_byz,
                )),
            );
        }

        // One injection client per server, as in the paper's deployment.
        let injection_end = SimTime::from_secs(scenario.injection_secs);
        for i in 0..n {
            let client_id = ProcessId::client(i);
            let workload = ArbitrumWorkload::for_client(
                &registry,
                client_id,
                scenario.seed ^ (i as u64) << 17,
            );
            let driver = ClientDriver::new(
                ProcessId::server(i),
                workload,
                per_client_rate,
                injection_end,
                trace.clone(),
            );
            sim.add_process(client_id, Box::new(driver));
        }

        // The adversarial client, if any: one extra registered identity at
        // the first index above the injection clients, attacking server 0.
        // It shares the honest clients' tick cadence but never the shared
        // trace — attack traffic is not goodput.
        if let Some(preset) = scenario.adversary {
            let adv_id = ProcessId::client(n);
            let keys = setchain_crypto::KeyPair::derive(adv_id, scenario.seed ^ 0xAD);
            registry.register(keys);
            let driver = AdversaryDriver::new(
                preset,
                ProcessId::server(0),
                registry.clone(),
                keys,
                preset.default_rate(per_client_rate),
                injection_end,
                scenario.seed,
            );
            sim.add_process(adv_id, Box::new(driver));
        }

        Deployment {
            sim,
            scenario,
            registry,
            trace,
            ledger_trace,
            config,
        }
    }

    /// Builds the deployment and runs it to completion (every added element
    /// committed, or the scenario's `max_run_secs` reached), returning the
    /// collected [`RunResult`](crate::runner::RunResult).
    pub fn run(self) -> crate::runner::RunResult {
        crate::runner::run_deployment(self.build())
    }
}

impl Deployment {
    /// Starts a fluent [`DeploymentBuilder`] from the paper's base scenario
    /// for `algorithm` and [`SetchainConfig::new(10)`](SetchainConfig::new),
    /// with every process correct until faults are added.
    /// This is the one way to configure a run.
    pub fn builder(algorithm: setchain::Algorithm) -> DeploymentBuilder {
        DeploymentBuilder {
            scenario: Scenario::base(algorithm),
            config: SetchainConfig::new(10),
            server_faults: Vec::new(),
            ledger_faults: Vec::new(),
            fault_plan: None,
        }
    }

    /// Typed access to server `i`, independent of the algorithm it runs.
    pub fn server(&self, i: usize) -> ServerHandle<'_> {
        let node = self
            .sim
            .process::<ServerNode>(ProcessId::server(i))
            .expect("server exists");
        ServerHandle { node }
    }

    /// Opens a typed [`ClientSession`]: derives a key pair for
    /// `ProcessId::client(client_index)` from `key_seed`, registers it in the
    /// deployment's PKI, and returns the session facade.
    ///
    /// `client_index` must not collide with the per-server injection clients,
    /// which occupy indices `0..servers`.
    pub fn client_session(&mut self, client_index: usize, key_seed: u64) -> ClientSession {
        assert!(
            client_index >= self.config.servers,
            "client indices below the server count belong to the injection clients"
        );
        assert!(
            self.scenario.adversary.is_none() || client_index != self.config.servers,
            "client index {client_index} belongs to the adversarial client"
        );
        ClientSession::open(self, client_index, key_seed)
    }

    /// The adversarial client actor, if the deployment has one.
    pub fn adversary(&self) -> Option<&AdversaryDriver> {
        self.scenario.adversary?;
        self.sim
            .process::<AdversaryDriver>(ProcessId::client(self.config.servers))
    }

    /// Number of `Rejected` replies the honest injection clients received
    /// (each paused that client's injection until the server's retry hint
    /// elapsed). Zero whenever quotas are off or honest rates fit their
    /// buckets.
    pub fn honest_rejections(&self) -> u64 {
        (0..self.config.servers)
            .filter_map(|i| self.sim.process::<ClientDriver>(ProcessId::client(i)))
            .map(|d| d.rejections())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain::Algorithm;

    #[test]
    fn builds_all_three_algorithms() {
        for algorithm in Algorithm::ALL {
            let deployment = Deployment::builder(algorithm)
                .servers(4)
                .rate(200.0)
                .injection_secs(2)
                .max_run_secs(10)
                .build();
            assert_eq!(deployment.sim.process_ids().len(), 8); // 4 servers + 4 clients
            assert_eq!(deployment.server(0).height(), 1);
            assert_eq!(deployment.server(0).state().epoch(), 0);
            assert_eq!(deployment.server(0).algorithm(), algorithm);
            for i in 0..4 {
                let client: &ClientDriver = deployment.sim.process(ProcessId::client(i)).unwrap();
                assert_eq!(client.sent(), 0);
            }
            let report =
                crate::check_setchain_invariants(&deployment).expect("Setchain properties");
            assert_eq!((report.servers, report.epochs), (4, 0));
        }
    }

    #[test]
    fn small_end_to_end_run_commits_elements() {
        let mut deployment = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(200.0)
            .collector(50)
            .injection_secs(3)
            .max_run_secs(30)
            .seed(5)
            .build();
        deployment.sim.run_until(SimTime::from_secs(20));
        let added = deployment.trace.added_count();
        assert!(added > 400, "clients injected elements (added={added})");
        let committed = deployment.trace.committed_count_by(SimTime::from_secs(20));
        assert!(
            committed as f64 >= 0.9 * added as f64,
            "most elements commit: {committed}/{added}"
        );
        let report = crate::check_setchain_invariants(&deployment).expect("Setchain properties");
        assert!(report.committed_epochs > 0, "{report:?}");
    }

    #[test]
    fn handles_expose_the_algorithm_specific_readings() {
        let deployment = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .injection_secs(1)
            .max_run_secs(5)
            .build();
        let handle = deployment.server(0);
        assert_eq!(handle.known_batches(), Some(0));
        assert_eq!(handle.compression_ratio(), None);
        assert_eq!(handle.node().height(), 1);
        assert_eq!(handle.mempool_len(), 0);
        crate::check_setchain_invariants(&deployment).expect("Setchain properties");
    }

    #[test]
    #[should_panic(expected = "collector limit must be positive")]
    fn builder_rejects_a_zero_collector() {
        let _ = Deployment::builder(Algorithm::Compresschain)
            .servers(4)
            .collector(0)
            .build();
    }

    #[test]
    fn builder_order_does_not_change_the_config() {
        use setchain::QuotaConfig;
        let knobs = |builder: DeploymentBuilder| {
            builder
                .collector(500)
                .light()
                .push_batches()
                .quota(QuotaConfig::new().with_rate(500))
        };
        let first = knobs(Deployment::builder(Algorithm::Hashchain).servers(7));
        let last = knobs(Deployment::builder(Algorithm::Hashchain)).servers(7);
        assert_eq!(
            format!("{:?}", first.config()),
            format!("{:?}", last.config())
        );
        let config = last.config();
        assert_eq!((config.servers, config.f), (7, 3));
        assert_eq!(config.collector_limit, 500);
        assert!(config.light);
        assert!(config.push_batches);
        assert_eq!(config.quota.map(|q| q.rate_per_sec), Some(500));
    }

    #[test]
    #[should_panic(expected = "injection clients")]
    fn session_indices_may_not_collide_with_injection_clients() {
        let mut deployment = Deployment::builder(Algorithm::Vanilla)
            .servers(4)
            .injection_secs(1)
            .max_run_secs(5)
            .build();
        let _ = deployment.client_session(3, 1);
    }
}
