//! The Setchain server: one ledger [`Application`] for all three algorithms.
//!
//! The paper presents Vanilla, Compresschain and Hashchain as three
//! implementations of one object (`add`, `get`, epochs, epoch-proofs) that
//! differ in exactly one step: how a batch of elements reaches the ledger.
//! [`SetchainServer`] is that object. It owns the algorithm-agnostic
//! [`ServerCore`] and writes the shared front door once — quota gate →
//! `add(e)`, the `InjectInvalidElements` forgery, the `get` service, the
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
use setchain_simnet::{SimDuration, TimerToken};

use crate::byzantine::ServerByzMode;
use crate::collector::Collector;
use crate::compresschain::Compresschain;
use crate::element::{Element, ElementId};
use crate::hashchain::{Hashchain, SharedBatchRegistry, REQUEST_TICK};
use crate::messages::SetchainMsg;
use crate::server::{Ctx, ServerCore, ServerStats};
use crate::state::SetchainState;
use crate::tx::SetchainTx;
use crate::{vanilla, Algorithm};

/// Timer token for the collector timeout tick ([`REQUEST_TICK`] is the only
/// other application timer).
const COLLECTOR_TICK: TimerToken = 1;

/// Collector timeout: a non-empty batch is flushed after this long even if
/// it has not reached `collector_limit` entries (the timeout half of the
/// paper's `isReady(batch)`).
pub const COLLECTOR_TIMEOUT: SimDuration = SimDuration(200_000); // 200 ms

/// The per-algorithm state behind a [`SetchainServer`]. Vanilla has none.
enum Variant {
    Vanilla,
    Compresschain(Box<Compresschain>),
    Hashchain(Box<Hashchain>),
}

impl Variant {
    /// The batch under construction, for the two collecting algorithms.
    fn collector(&mut self) -> Option<&mut Collector> {
        match self {
            Variant::Vanilla => None,
            Variant::Compresschain(c) => Some(&mut c.collector),
            Variant::Hashchain(h) => Some(&mut h.collector),
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
    fn on_add(&mut self, core: &mut ServerCore, element: Element, ctx: &mut Ctx<'_, '_, '_>) {
        match self {
            Variant::Vanilla => vanilla::on_add(core, element, ctx),
            Variant::Compresschain(c) => c.collect(core, element, ctx),
            Variant::Hashchain(h) => h.collect(core, element, ctx),
        }
    }

    /// [`ServerByzMode::InjectInvalidElements`]: a forged element goes
    /// where an accepted one would, unchecked. Vanilla appends it as its
    /// own transaction; the collecting algorithms batch it through
    /// [`Collector::add_element`], so the flushed batch starts with no
    /// element verdict known.
    fn inject(&mut self, core: &mut ServerCore, forged: Element, ctx: &mut Ctx<'_, '_, '_>) {
        let Some(collector) = self.collector() else {
            ctx.append(SetchainTx::Element(forged));
            return;
        };
        collector.add_element(forged);
        if collector.is_ready() {
            self.flush(core, ctx);
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
    /// "Hashchain light" deployment (`config.light`) must share; the
    /// ablation assumes all servers correct, so it also resets `core.byz`.
    /// Every other configuration ignores it. Vanilla has no light ablation:
    /// a Vanilla server clears `config.light` and validates every block.
    pub fn new(algorithm: Algorithm, mut core: ServerCore, shared: SharedBatchRegistry) -> Self {
        let variant = match algorithm {
            Algorithm::Vanilla => {
                core.config.light = false;
                Variant::Vanilla
            }
            Algorithm::Compresschain => {
                Variant::Compresschain(Box::new(Compresschain::new(&core.config)))
            }
            Algorithm::Hashchain => {
                let light = core.config.light;
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

    /// Hashchain's per-server state, for tests that inspect its batch
    /// registry.
    #[cfg(test)]
    pub(crate) fn hashchain(&self) -> Option<&Hashchain> {
        match &self.variant {
            Variant::Hashchain(h) => Some(h),
            _ => None,
        }
    }

    /// The add front door, shared by `Add` and `AddBatch`.
    fn handle_adds(&mut self, from: ProcessId, elements: &[Element], ctx: &mut Ctx<'_, '_, '_>) {
        // The quota gate runs first: a shed submission costs zero
        // authenticator verification.
        if !self.core.admit_source(from, elements.len() as u64, ctx) {
            return;
        }
        for &element in elements {
            // The paper's `add(e)`: the shared precondition check, then the
            // one step that differs.
            if self.core.accept_add(&element, ctx) {
                self.variant.on_add(&mut self.core, element, ctx);
            }
            if self.core.byz == ServerByzMode::InjectInvalidElements {
                // A Byzantine server also submits a fabricated element for
                // every add it handles, accepted or not; correct servers
                // must filter it out when they process the block or batch.
                let forged = Element::forged(
                    ProcessId::client(0),
                    ElementId::new(u32::MAX, element.id.seq()),
                    200,
                );
                self.variant.inject(&mut self.core, forged, ctx);
            }
        }
    }
}

impl Application for SetchainServer {
    type Tx = SetchainTx;
    type Msg = SetchainMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        if self.algorithm().uses_collector() {
            ctx.set_app_timer(COLLECTOR_TIMEOUT, COLLECTOR_TICK);
        }
        // After a restart (retained state) re-arm an outstanding batch
        // request's timer; a cold start is a no-op. Missed epochs come back
        // through ledger block sync.
        if let Variant::Hashchain(h) = &self.variant {
            h.on_restart(ctx);
        }
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
            SetchainMsg::Add(e) => self.handle_adds(from, &[e], ctx),
            SetchainMsg::AddBatch(es) => self.handle_adds(from, &es, ctx),
            other => {
                // `get` and `get_epoch` are served by the core;
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
                let timed_out = self
                    .variant
                    .collector()
                    .is_some_and(|c| c.is_timed_out(ctx.now(), COLLECTOR_TIMEOUT));
                if timed_out {
                    self.variant.flush(&mut self.core, ctx);
                }
                ctx.set_app_timer(COLLECTOR_TIMEOUT, COLLECTOR_TICK);
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
    use crate::config::SetchainConfig;
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
        let config = SetchainConfig {
            light: true,
            ..SetchainConfig::new(4)
        };
        let light = server(Algorithm::Hashchain, config, fault);
        assert_eq!(light.core().byz, ServerByzMode::Correct);
    }

    #[test]
    fn vanilla_has_no_light_ablation() {
        let config = SetchainConfig {
            light: true,
            ..SetchainConfig::new(4)
        };
        for algorithm in Algorithm::ALL {
            let s = server(algorithm, config.clone(), ServerByzMode::Correct);
            assert_eq!(s.core().config.light, algorithm != Algorithm::Vanilla);
        }
    }

    #[test]
    fn algorithm_index_matches_all_order() {
        for (i, algorithm) in Algorithm::ALL.iter().enumerate() {
            assert_eq!(algorithm.index(), i);
        }
    }
}
