//! The variant-agnostic Setchain application API.
//!
//! The journal Setchain papers define *one* distributed object by its API
//! (`add`, `get`, `get_epoch`, epoch-proofs); Vanilla, Compresschain and
//! Hashchain are three interchangeable implementations of it. This module
//! encodes that framing in the type system:
//!
//! * [`SetchainApp`] — the object-safe trait every server application
//!   implements. Deployments, benches and tests talk to `dyn SetchainApp`
//!   and never dispatch on [`Algorithm`] themselves.
//! * [`AppFactory`] — the **single** place where an [`Algorithm`] value is
//!   turned into a concrete application. Everything downstream of the
//!   factory is variant-agnostic; adding a fourth algorithm means one
//!   `impl SetchainApp` plus one arm here.
//!
//! Variant-specific surfaces (Compresschain's measured compression ratio,
//! Hashchain's known-batch count) intentionally stay on the concrete types;
//! [`SetchainApp::as_any`] is the downcast hook for callers that need them:
//!
//! ```
//! use setchain::{Algorithm, AppFactory, CompresschainApp, SetchainConfig, SetchainTrace};
//! use setchain_crypto::{KeyRegistry, ProcessId};
//!
//! let registry = KeyRegistry::bootstrap(7, 4, 1);
//! let factory = AppFactory::new(Algorithm::Compresschain, registry.clone(), SetchainConfig::new(4));
//! let keys = registry.lookup(ProcessId::server(0)).unwrap();
//! let app = factory.build(keys, SetchainTrace::new(), setchain::ServerByzMode::Correct);
//!
//! assert_eq!(app.algorithm(), Algorithm::Compresschain);
//! assert_eq!(app.state().epoch(), 0);
//! // Variant-specific surface through the downcast hook:
//! let concrete = app.as_any().downcast_ref::<CompresschainApp>().unwrap();
//! assert_eq!(concrete.average_ratio(), 1.0);
//! ```

use std::any::Any;

use setchain_crypto::{KeyPair, KeyRegistry};
use setchain_ledger::Application;

use crate::byzantine::ServerByzMode;
use crate::compresschain::CompresschainApp;
use crate::config::SetchainConfig;
use crate::element::Element;
use crate::hashchain::{HashchainApp, SharedBatchRegistry};
use crate::messages::SetchainMsg;
use crate::proofs::EpochProof;
use crate::server::ServerStats;
use crate::state::SetchainState;
use crate::trace::SetchainTrace;
use crate::tx::SetchainTx;
use crate::vanilla::VanillaApp;
use crate::Algorithm;

/// The variant-agnostic Setchain server application: the accessors shared by
/// all three algorithms, on top of the ledger [`Application`] callbacks.
///
/// The trait is object-safe; deployments hold servers as
/// `LedgerNode<Box<dyn SetchainApp>>` and never match on [`Algorithm`].
/// Construction goes through [`AppFactory`] (or [`Algorithm::build`]), the
/// one place variant dispatch is allowed.
pub trait SetchainApp: Application<Tx = SetchainTx, Msg = SetchainMsg> {
    /// Which of the paper's algorithms this application implements.
    fn algorithm(&self) -> Algorithm;

    /// The Setchain state of this server (`the_set`, `epoch`, `history`,
    /// `proofs`) — the server-side view behind `get`/`get_epoch`.
    fn state(&self) -> &SetchainState;

    /// Server counters for tests and experiment reports.
    fn stats(&self) -> ServerStats;

    /// The deployment configuration this server runs with.
    fn config(&self) -> &SetchainConfig;

    /// The algorithm-agnostic server core: admission caches, quota state,
    /// epoch machinery — shared by all three variants. Read-only inspection
    /// hook for deployments, benches and tests.
    fn core(&self) -> &crate::server::ServerCore;

    /// Epoch-proofs held for `epoch`, borrowed from the state.
    fn proofs_for(&self, epoch: u64) -> &[EpochProof] {
        self.state().proofs_for(epoch)
    }

    /// Elements of epoch `epoch` (1-based), if this server has recorded it.
    fn epoch_elements(&self, epoch: u64) -> Option<&[Element]> {
        self.state().epoch_elements(epoch)
    }

    /// Downcast hook for variant-specific surfaces (e.g.
    /// [`CompresschainApp::average_ratio`], [`HashchainApp::known_batches`]):
    /// the concrete type behind the trait object.
    fn as_any(&self) -> &dyn Any;
}

/// Builds Setchain server applications of one algorithm for one deployment.
///
/// This is the single variant-dispatch site: `SetchainConfig` → application
/// construction lives here and nowhere else. The factory also owns the
/// [`SharedBatchRegistry`] that "Hashchain light" servers share, so every
/// server built by one factory sees the same out-of-band batch availability.
#[derive(Clone)]
pub struct AppFactory {
    algorithm: Algorithm,
    registry: KeyRegistry,
    config: SetchainConfig,
    shared: SharedBatchRegistry,
}

impl AppFactory {
    /// Creates a factory for `algorithm` with the deployment-wide PKI and
    /// configuration. The configuration should already carry any light-mode
    /// flags (see [`Algorithm::light_config`]).
    pub fn new(algorithm: Algorithm, registry: KeyRegistry, config: SetchainConfig) -> Self {
        AppFactory {
            algorithm,
            registry,
            config,
            shared: SharedBatchRegistry::new(),
        }
    }

    /// The algorithm this factory builds.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configuration every built server shares.
    pub fn config(&self) -> &SetchainConfig {
        &self.config
    }

    /// The shared batch registry "Hashchain light" servers built by this
    /// factory use for out-of-band batch availability.
    pub fn shared_registry(&self) -> &SharedBatchRegistry {
        &self.shared
    }

    /// Builds one server application.
    ///
    /// `byz` is ignored by "Hashchain light" servers (the ablation assumes
    /// all servers correct, matching the paper's Fig. 2 left setup).
    pub fn build(
        &self,
        keys: KeyPair,
        trace: SetchainTrace,
        byz: ServerByzMode,
    ) -> Box<dyn SetchainApp> {
        let registry = self.registry.clone();
        let config = self.config.clone();
        match self.algorithm {
            Algorithm::Vanilla => Box::new(VanillaApp::new(keys, registry, config, trace, byz)),
            Algorithm::Compresschain => {
                Box::new(CompresschainApp::new(keys, registry, config, trace, byz))
            }
            Algorithm::Hashchain if !self.config.hash_reversal => Box::new(
                HashchainApp::new_light(keys, registry, config, trace, self.shared.clone()),
            ),
            Algorithm::Hashchain => Box::new(HashchainApp::new(keys, registry, config, trace, byz)),
        }
    }
}

impl Algorithm {
    /// Applies this algorithm's "light" ablation to a configuration
    /// (Hashchain: no hash reversal; Compresschain: no delivery
    /// decompression/validation; Vanilla: unchanged).
    pub fn light_config(&self, config: SetchainConfig) -> SetchainConfig {
        match self {
            Algorithm::Vanilla => config,
            Algorithm::Compresschain => config.light_compresschain(),
            Algorithm::Hashchain => config.light_hashchain(),
        }
    }

    /// Stable index of this algorithm in [`Algorithm::ALL`] (the paper's
    /// presentation order). Lets callers keep per-algorithm tables without
    /// dispatching on the variants themselves.
    pub fn index(&self) -> usize {
        match self {
            Algorithm::Vanilla => 0,
            Algorithm::Compresschain => 1,
            Algorithm::Hashchain => 2,
        }
    }

    /// Builds one standalone boxed application of this variant — the
    /// convenience form of [`AppFactory::new`] + [`AppFactory::build`].
    ///
    /// Deployments whose servers must share state across instances
    /// ("Hashchain light" needs one [`SharedBatchRegistry`] for all servers)
    /// should create a single [`AppFactory`] and reuse it instead.
    pub fn build(
        self,
        keys: KeyPair,
        registry: KeyRegistry,
        config: SetchainConfig,
        trace: SetchainTrace,
        byz: ServerByzMode,
    ) -> Box<dyn SetchainApp> {
        AppFactory::new(self, registry, config).build(keys, trace, byz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain_crypto::ProcessId;

    fn factory(algorithm: Algorithm, light: bool) -> (AppFactory, KeyRegistry) {
        let registry = KeyRegistry::bootstrap(13, 4, 2);
        let mut config = SetchainConfig::new(4);
        if light {
            config = algorithm.light_config(config);
        }
        (
            AppFactory::new(algorithm, registry.clone(), config),
            registry,
        )
    }

    #[test]
    fn factory_builds_every_algorithm() {
        for algorithm in Algorithm::ALL {
            let (factory, registry) = factory(algorithm, false);
            let keys = registry.lookup(ProcessId::server(0)).unwrap();
            let app = factory.build(keys, SetchainTrace::new(), ServerByzMode::Correct);
            assert_eq!(app.algorithm(), algorithm);
            assert_eq!(app.state().epoch(), 0);
            assert_eq!(app.stats(), ServerStats::default());
            assert_eq!(app.config().servers, 4);
            assert!(app.proofs_for(1).is_empty());
            assert!(app.epoch_elements(1).is_none());
        }
    }

    #[test]
    fn downcast_hook_reaches_variant_surfaces() {
        let (factory, registry) = factory(Algorithm::Hashchain, false);
        let keys = registry.lookup(ProcessId::server(1)).unwrap();
        let app = factory.build(keys, SetchainTrace::new(), ServerByzMode::Correct);
        let concrete = app
            .as_any()
            .downcast_ref::<HashchainApp>()
            .expect("hashchain app");
        assert_eq!(concrete.known_batches(), 0);
        assert!(app.as_any().downcast_ref::<VanillaApp>().is_none());
    }

    #[test]
    fn light_hashchain_servers_share_one_registry() {
        let (factory, registry) = factory(Algorithm::Hashchain, true);
        assert!(!factory.config().hash_reversal);
        let a = factory.build(
            registry.lookup(ProcessId::server(0)).unwrap(),
            SetchainTrace::new(),
            ServerByzMode::Correct,
        );
        let _b = factory.build(
            registry.lookup(ProcessId::server(1)).unwrap(),
            SetchainTrace::new(),
            ServerByzMode::Correct,
        );
        // Both servers resolve batches through the factory's registry.
        assert!(factory.shared_registry().is_empty());
        assert_eq!(a.algorithm(), Algorithm::Hashchain);
    }

    #[test]
    fn light_config_only_touches_the_matching_flag() {
        let base = SetchainConfig::new(4);
        let h = Algorithm::Hashchain.light_config(base.clone());
        assert!(!h.hash_reversal && h.decompress_validate);
        let c = Algorithm::Compresschain.light_config(base.clone());
        assert!(c.hash_reversal && !c.decompress_validate);
        let v = Algorithm::Vanilla.light_config(base);
        assert!(v.hash_reversal && v.decompress_validate);
    }

    #[test]
    fn algorithm_index_matches_all_order() {
        for (i, algorithm) in Algorithm::ALL.iter().enumerate() {
            assert_eq!(algorithm.index(), i);
        }
    }

    #[test]
    fn one_shot_build_constructs_an_app() {
        let registry = KeyRegistry::bootstrap(17, 4, 1);
        let keys = registry.lookup(ProcessId::server(2)).unwrap();
        let app = Algorithm::Vanilla.build(
            keys,
            registry,
            SetchainConfig::new(4),
            SetchainTrace::new(),
            ServerByzMode::Correct,
        );
        assert_eq!(app.algorithm(), Algorithm::Vanilla);
    }
}
