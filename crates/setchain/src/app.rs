//! The Setchain server: one ledger [`Application`] for all three algorithms.
//!
//! The paper presents Vanilla, Compresschain and Hashchain as three
//! implementations of one object (`add`, `get`, epochs, epoch-proofs) that
//! differ in exactly one step: how a batch of elements reaches the ledger.
//! [`SetchainServer`] is that object. It owns the algorithm-agnostic
//! [`ServerCore`] and writes the shared front door once — quota gate →
//! batch-root check → gossip → `add(e)`, the `get` / catch-up service, the
//! collector tick — and hands the steps that differ (what happens to an
//! admitted element, `check_tx`, `finalize_block`, Hashchain's batch
//! service) to the variant modules [`crate::vanilla`],
//! [`crate::compresschain`] and [`crate::hashchain`].
//!
//! ```
//! use setchain::{Algorithm, ServerCore, SetchainConfig, SetchainServer, SetchainTrace};
//! use setchain_crypto::{KeyRegistry, ProcessId};
//!
//! let registry = KeyRegistry::bootstrap(7, 4, 1);
//! let keys = registry.lookup(ProcessId::server(0)).unwrap();
//! let core = ServerCore::new(
//!     keys,
//!     registry,
//!     SetchainConfig::new(4),
//!     SetchainTrace::new(),
//!     setchain::ServerByzMode::Correct,
//! );
//! let server = SetchainServer::new(Algorithm::Compresschain, core, Default::default());
//!
//! assert_eq!(server.algorithm(), Algorithm::Compresschain);
//! assert_eq!(server.state().epoch(), 0);
//! assert_eq!(server.compression_ratio(), Some(1.0));
//! assert_eq!(server.known_batches(), None);
//! ```

use setchain_crypto::ProcessId;
use setchain_ledger::{Application, Block};
use setchain_simnet::TimerToken;

use crate::batch_auth::AuthedBatch;
use crate::byzantine::ServerByzMode;
use crate::collector::Collector;
use crate::compresschain::Compresschain;
use crate::config::SetchainConfig;
use crate::element::Element;
use crate::hashchain::{Hashchain, SharedBatchRegistry, REQUEST_TICK};
use crate::messages::SetchainMsg;
use crate::server::{Ctx, ServerCore, ServerStats};
use crate::state::SetchainState;
use crate::tx::SetchainTx;
use crate::{vanilla, Algorithm};

/// Timer token for the collector timeout tick ([`REQUEST_TICK`] is the only
/// other application timer).
const COLLECTOR_TICK: TimerToken = 1;

/// The per-algorithm state behind a [`SetchainServer`]. Vanilla has none.
enum Variant {
    Vanilla,
    Compresschain(Compresschain),
    Hashchain(Box<Hashchain>),
}

impl Variant {
    /// The batch under construction, for the two collecting algorithms.
    fn collector(&self) -> Option<&Collector> {
        match self {
            Variant::Vanilla => None,
            Variant::Compresschain(c) => Some(&c.collector),
            Variant::Hashchain(h) => Some(&h.collector),
        }
    }

    /// `upon isReady(batch)`: the collected batch goes to the ledger the
    /// algorithm's way — compressed, or as a signed hash.
    fn flush(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        match self {
            Variant::Vanilla => {}
            Variant::Compresschain(c) => c.flush(core, ctx),
            Variant::Hashchain(h) => h.flush(core, ctx),
        }
    }

    /// What follows `add(e)`'s precondition check: an accepted element
    /// becomes a ledger transaction (Vanilla) or joins the collector.
    fn on_add(
        &mut self,
        core: &mut ServerCore,
        element: Element,
        accepted: bool,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        match self {
            Variant::Vanilla => vanilla::on_add(core, element, accepted, ctx),
            Variant::Compresschain(c) if accepted => c.collect(core, element, ctx),
            Variant::Hashchain(h) if accepted => h.collect(core, element, ctx),
            _ => {}
        }
    }
}

/// A Setchain server running one of the paper's three algorithms: the
/// application a [`LedgerNode`](setchain_ledger::LedgerNode) drives.
pub struct SetchainServer {
    core: ServerCore,
    variant: Variant,
}

impl SetchainServer {
    /// Creates a server running `algorithm` on top of `core`.
    ///
    /// `shared` is the out-of-band batch availability every server of a
    /// "Hashchain light" deployment (`hash_reversal` off) must share; the
    /// ablation assumes all servers correct, so it also resets `core.byz`.
    /// Every other configuration ignores it.
    pub fn new(algorithm: Algorithm, mut core: ServerCore, shared: SharedBatchRegistry) -> Self {
        let variant = match algorithm {
            Algorithm::Vanilla => Variant::Vanilla,
            Algorithm::Compresschain => Variant::Compresschain(Compresschain::new(&core.config)),
            Algorithm::Hashchain => {
                let light = !core.config.hash_reversal;
                if light {
                    core.byz = ServerByzMode::Correct;
                }
                Variant::Hashchain(Box::new(Hashchain::new(
                    &core.config,
                    light.then_some(shared),
                )))
            }
        };
        SetchainServer { core, variant }
    }

    /// Which of the paper's algorithms this server runs.
    pub fn algorithm(&self) -> Algorithm {
        match self.variant {
            Variant::Vanilla => Algorithm::Vanilla,
            Variant::Compresschain(_) => Algorithm::Compresschain,
            Variant::Hashchain(_) => Algorithm::Hashchain,
        }
    }

    /// The Setchain state of this server (`the_set`, `epoch`, `history`,
    /// `proofs`) — the server-side view behind `get`/`get_epoch`.
    pub fn state(&self) -> &SetchainState {
        &self.core.state
    }

    /// Server counters for tests and experiment reports.
    pub fn stats(&self) -> ServerStats {
        self.core.stats
    }

    /// The algorithm-agnostic server core: configuration, admission caches,
    /// quota state, epoch machinery. Read-only inspection hook.
    pub fn core(&self) -> &ServerCore {
        &self.core
    }

    /// Compresschain: average compression ratio measured on flushed batches
    /// (1.0 before the first flush). `None` for the other algorithms.
    pub fn compression_ratio(&self) -> Option<f64> {
        match &self.variant {
            Variant::Compresschain(c) => Some(c.average_ratio()),
            _ => None,
        }
    }

    /// Hashchain: number of batches whose contents this server knows.
    /// `None` for the other algorithms.
    pub fn known_batches(&self) -> Option<usize> {
        match &self.variant {
            Variant::Hashchain(h) => Some(h.known_batches()),
            _ => None,
        }
    }

    /// The add front door, shared by `Add`, `AddBatch` and `BatchedAdd`
    /// (`envelope` is the sealed batch the elements arrived in, if any).
    fn handle_adds(
        &mut self,
        from: ProcessId,
        elements: &[Element],
        envelope: Option<&AuthedBatch>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        // The quota gate runs first: a shed submission costs zero
        // authenticator or root verification.
        if !self.core.admit_source(from, elements.len() as u64, ctx) {
            return;
        }
        if let Some(batch) = envelope {
            // One root-cache probe / MAC check authenticates the whole
            // batch; the per-element admission probes inside `accept_add`
            // then hit the warmed cache.
            let valid = self.core.verify_batched_add(batch, ctx);
            if from.is_server() {
                // Peer-forwarded envelope: verifying it warmed this server's
                // caches; the elements themselves arrive through the ledger
                // (or hash reversal), where validation is then pure hits.
                return;
            }
            if !valid {
                self.core.stats.adds_rejected_invalid += elements.len() as u64;
                return;
            }
            if self.core.byz != ServerByzMode::DropClientAdds {
                self.core.gossip_batched_add(batch, ctx);
            }
        }
        for &element in elements {
            // The paper's `add(e)`: the shared precondition check, then the
            // one step that differs.
            let accepted = self.core.accept_add(&element, ctx);
            self.variant.on_add(&mut self.core, element, accepted, ctx);
        }
    }
}

impl Application for SetchainServer {
    type Tx = SetchainTx;
    type Msg = SetchainMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        if self.algorithm().uses_collector() {
            ctx.set_app_timer(self.core.config.collector_timeout, COLLECTOR_TICK);
        }
        // After a restart (retained state) probe peers for missed epochs;
        // a cold start is a no-op.
        self.core.maybe_request_catchup(ctx);
    }

    fn check_tx(&self, tx: &SetchainTx) -> bool {
        let config = &self.core.config;
        match self.variant {
            Variant::Vanilla => vanilla::check_tx(config, tx),
            Variant::Compresschain(_) => Compresschain::check_tx(config, tx),
            Variant::Hashchain(_) => Hashchain::check_tx(config, tx),
        }
    }

    fn finalize_block(&mut self, block: &Block<SetchainTx>, ctx: &mut Ctx<'_, '_, '_>) {
        match &mut self.variant {
            Variant::Vanilla => vanilla::finalize_block(&mut self.core, block, ctx),
            Variant::Compresschain(c) => c.finalize_block(&mut self.core, block, ctx),
            Variant::Hashchain(h) => h.finalize_block(&mut self.core, block, ctx),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: SetchainMsg, ctx: &mut Ctx<'_, '_, '_>) {
        match msg {
            SetchainMsg::Add(e) => self.handle_adds(from, &[e], None, ctx),
            SetchainMsg::AddBatch(es) => self.handle_adds(from, &es, None, ctx),
            SetchainMsg::BatchedAdd(batch) => {
                self.handle_adds(from, &batch.elements, Some(&batch), ctx)
            }
            other => {
                // `get`, `get_epoch` and catch-up are served by the core;
                // what is left is Hashchain's batch service.
                if !self.core.handle_get(from, &other, ctx) {
                    if let Variant::Hashchain(h) = &mut self.variant {
                        h.on_batch_message(&mut self.core, from, other, ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, '_, '_>) {
        match token {
            COLLECTOR_TICK => {
                // The timeout half of `isReady(batch)`.
                let timeout = self.core.config.collector_timeout;
                let timed_out = self
                    .variant
                    .collector()
                    .is_some_and(|c| c.is_timed_out(ctx.now(), timeout));
                if timed_out {
                    self.variant.flush(&mut self.core, ctx);
                }
                ctx.set_app_timer(timeout, COLLECTOR_TICK);
            }
            REQUEST_TICK => {
                if let Variant::Hashchain(h) = &mut self.variant {
                    h.on_request_tick(&mut self.core, ctx);
                }
            }
            _ => {}
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SetchainTrace;
    use setchain_crypto::KeyRegistry;

    fn server(algorithm: Algorithm, config: SetchainConfig, byz: ServerByzMode) -> SetchainServer {
        let registry = KeyRegistry::bootstrap(13, 4, 2);
        let keys = registry.lookup(ProcessId::server(0)).unwrap();
        let core = ServerCore::new(keys, registry, config, SetchainTrace::new(), byz);
        SetchainServer::new(algorithm, core, SharedBatchRegistry::new())
    }

    #[test]
    fn every_algorithm_starts_empty_and_reports_its_own_surface() {
        for algorithm in Algorithm::ALL {
            let s = server(algorithm, SetchainConfig::new(4), ServerByzMode::Correct);
            assert_eq!(s.algorithm(), algorithm);
            assert_eq!(s.state().epoch(), 0);
            assert_eq!(s.stats(), ServerStats::default());
            assert_eq!(s.core().config.servers, 4);
            assert_eq!(
                s.compression_ratio(),
                (algorithm == Algorithm::Compresschain).then_some(1.0)
            );
            assert_eq!(
                s.known_batches(),
                (algorithm == Algorithm::Hashchain).then_some(0)
            );
        }
    }

    #[test]
    fn hashchain_light_assumes_every_server_correct() {
        let fault = ServerByzMode::RefuseBatchService;
        let full = server(Algorithm::Hashchain, SetchainConfig::new(4), fault);
        assert_eq!(full.core().byz, fault);
        let light_config = Algorithm::Hashchain.light_config(SetchainConfig::new(4));
        let light = server(Algorithm::Hashchain, light_config, fault);
        assert_eq!(light.core().byz, ServerByzMode::Correct);
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
}
