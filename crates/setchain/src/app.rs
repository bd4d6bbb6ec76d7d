//! The Setchain server: one ledger [`Application`] for all three algorithms.
//!
//! The paper presents Vanilla, Compresschain and Hashchain as three
//! implementations of one object (`add`, `get`, epochs, epoch-proofs) that
//! differ in exactly one step: how a batch of elements reaches the ledger.
//! [`SetchainServer`] is that object. It owns the algorithm-agnostic
//! [`ServerCore`] and writes the shared front door once: quota gate →
//! `add(e)` → the element's way to the ledger, for an admitted element and
//! an `InjectInvalidElements` forgery alike; the `get` service; the
//! collector tick; and one `CheckTx` table of the three algorithms'
//! transaction kinds. The paper's `batch` is the core's collector, which
//! the two batching algorithms have and Vanilla does not; the core also
//! routes each of the server's own epoch-proofs
//! (`ServerCore::route_own_proof`) and ends every flush
//! (`ServerCore::append_batch`). What is left to the variant modules
//! [`crate::vanilla`], [`crate::compresschain`] and [`crate::hashchain`] is
//! what differs: `finalize_block`, how a flushed batch reaches the ledger
//! (compressed, or as a signed hash) and Hashchain's batch service.
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
use setchain_ledger::{Application, Block, TxData};
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
    /// `upon isReady(batch)`: the collected batch goes to the ledger the
    /// algorithm's way — compressed, or as a signed hash. Vanilla collects
    /// no batch, so it never flushes one.
    fn flush(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        match self {
            Variant::Vanilla => unreachable!("Vanilla collects no batch"),
            Variant::Compresschain(c) => c.flush(core, ctx),
            Variant::Hashchain(h) => h.flush(core, ctx),
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
        core.collector = algorithm
            .uses_collector()
            .then(|| Collector::new(core.config.collector_limit));
        let variant = match algorithm {
            Algorithm::Vanilla => {
                core.config.light = false;
                Variant::Vanilla
            }
            Algorithm::Compresschain => Variant::Compresschain(Box::default()),
            Algorithm::Hashchain => {
                let light = core.config.light;
                if light {
                    core.byz = ServerByzMode::Correct;
                }
                Variant::Hashchain(Box::new(Hashchain::new(light.then_some(shared))))
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
            // element's way to the ledger.
            if self.core.accept_add(&element, ctx) {
                self.submit(element, true, ctx);
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
                self.submit(forged, false, ctx);
            }
        }
    }

    /// What follows `add(e)`, for an element it `admitted` or one forged
    /// under [`ServerByzMode::InjectInvalidElements`], which goes where an
    /// admitted one would, unchecked. Vanilla appends the element as its
    /// own transaction (`L.append(e)`). The batching algorithms add it to
    /// the batch and flush the batch once it is ready; a batch holding a
    /// forgery starts with no element verdict known (see
    /// [`Collector::add_element`]).
    fn submit(&mut self, element: Element, admitted: bool, ctx: &mut Ctx<'_, '_, '_>) {
        let Some(collector) = self.core.collector.as_mut() else {
            let tx = SetchainTx::Element(element);
            if admitted {
                self.core.trace.record_tx_assignment(element.id, tx.tx_id());
            }
            ctx.append(tx);
            return;
        };
        if admitted {
            collector.add_admitted(element);
        } else {
            collector.add_element(element);
        }
        if collector.is_ready() {
            self.variant.flush(&mut self.core, ctx);
        }
    }
}

impl Application for SetchainServer {
    type Tx = SetchainTx;
    type Msg = SetchainMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        if self.core.collector.is_some() {
            ctx.set_app_timer(COLLECTOR_TIMEOUT, COLLECTOR_TICK);
        }
        // After a restart (retained state) re-arm an outstanding batch
        // request's timer; a cold start is a no-op. Missed epochs come back
        // through ledger block sync.
        if let Variant::Hashchain(h) = &self.variant {
            h.on_restart(ctx);
        }
    }

    /// ABCI `CheckTx`: each algorithm admits its own transaction kinds
    /// into the mempool, from a server of this deployment where a server
    /// builds or signs them. This is a structural check only: block
    /// processing validates every transaction again (a Byzantine server
    /// may have gossiped anything), so a Vanilla element is only kept out
    /// when its size is malformed.
    fn check_tx(&self, tx: &SetchainTx) -> bool {
        let config = &self.core.config;
        match (self.algorithm(), tx) {
            (Algorithm::Vanilla, SetchainTx::Element(e)) => e.size_in_bounds(),
            (Algorithm::Vanilla, SetchainTx::Proof(p)) => config.is_server(p.signer),
            (Algorithm::Compresschain, SetchainTx::Compressed(b)) => config.is_server(b.origin),
            (Algorithm::Hashchain, SetchainTx::HashBatch(hb)) => config.is_server(hb.signer),
            _ => false,
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
                    .core
                    .collector
                    .as_ref()
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
    use crate::collector::Batch;
    use crate::config::SetchainConfig;
    use crate::hashchain::batch_hash;
    use crate::proofs::{epoch_hash, make_epoch_proof_for_digest, EpochProof};
    use crate::trace::SetchainTrace;
    use crate::tx::{CompressedBatch, HashBatch};
    use parking_lot::Mutex;
    use setchain_compress::ChunkedFrame;
    use setchain_crypto::KeyRegistry;
    use std::sync::Arc;

    fn registry() -> KeyRegistry {
        KeyRegistry::bootstrap(13, 4, 2)
    }

    fn server(algorithm: Algorithm, config: SetchainConfig, byz: ServerByzMode) -> SetchainServer {
        let registry = registry();
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

    /// Hosts `server` on a one-node ledger and hands it and a live context
    /// to `body` when the node starts. Returns what the body appended to
    /// the ledger, in order: the node passes each appended transaction
    /// through `check_tx`, which the host records.
    fn appended_by<F>(server: SetchainServer, body: F) -> Vec<SetchainTx>
    where
        F: FnOnce(&mut SetchainServer, &mut Ctx<'_, '_, '_>) + Send + 'static,
    {
        use setchain_ledger::{ByzMode, LedgerConfig, LedgerNode, LedgerTrace};
        use setchain_simnet::{Simulation, SimulationConfig};

        struct Host<F> {
            run: Option<(SetchainServer, F)>,
            appended: Arc<Mutex<Vec<SetchainTx>>>,
        }

        impl<F> Application for Host<F>
        where
            F: FnOnce(&mut SetchainServer, &mut Ctx<'_, '_, '_>) + Send + 'static,
        {
            type Tx = SetchainTx;
            type Msg = SetchainMsg;

            fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
                let (mut server, body) = self.run.take().expect("started once");
                body(&mut server, ctx);
            }

            fn check_tx(&self, tx: &SetchainTx) -> bool {
                self.appended.lock().push(tx.clone());
                true
            }

            fn finalize_block(&mut self, _: &Block<SetchainTx>, _: &mut Ctx<'_, '_, '_>) {}
        }

        let id = server.core().id();
        let registry = server.core().registry.clone();
        let appended = Arc::default();
        let host = Host {
            run: Some((server, body)),
            appended: Arc::clone(&appended),
        };
        let mut sim = Simulation::new(SimulationConfig::default());
        sim.add_process(
            id,
            Box::new(LedgerNode::new(
                id,
                LedgerConfig::with_validators(4),
                registry.lookup(id).unwrap(),
                registry,
                host,
                LedgerTrace::new(),
                ByzMode::Correct,
            )),
        );
        // The first step starts the node, which runs the body.
        sim.step();
        let node = sim.process::<LedgerNode<Host<F>>>(id).unwrap();
        assert!(node.app().run.is_none(), "the test body never ran");
        let appended = std::mem::take(&mut *appended.lock());
        appended
    }

    /// Elements `range` of client 0.
    fn client_elements(range: std::ops::Range<u64>) -> Vec<Element> {
        let keys = registry().lookup(ProcessId::client(0)).unwrap();
        range
            .map(|i| Element::new(&keys, ElementId::new(0, i), 438, i * 7 + 1))
            .collect()
    }

    /// Server 0's epoch-proof for an epoch of exactly `elements`.
    fn own_proof(epoch: u64, elements: &[Element]) -> EpochProof {
        let keys = registry().lookup(ProcessId::server(0)).unwrap();
        make_epoch_proof_for_digest(&keys, epoch, &epoch_hash(epoch, elements))
    }

    /// `origin`'s Compresschain transaction number `seq`, carrying `batch`
    /// in a frame that decodes.
    fn compressed(origin: ProcessId, seq: u64, batch: Batch) -> SetchainTx {
        let mut raw = Vec::new();
        let original_size = batch.encode_elements_into(&mut raw) as u32;
        let payload = ChunkedFrame::from(setchain_compress::compress_chunked_with(&raw, 1 << 14));
        SetchainTx::Compressed(CompressedBatch {
            origin,
            seq,
            batch: Arc::new(batch),
            compressed_size: payload.len() as u32,
            payload: Arc::new(payload),
            original_size,
        })
    }

    /// A server running `algorithm` whose batch is ready at two entries
    /// (with push dissemination on, which only Hashchain reads).
    fn limit_two(algorithm: Algorithm) -> SetchainServer {
        let config = SetchainConfig {
            collector_limit: 2,
            push_batches: true,
            ..SetchainConfig::new(4)
        };
        server(algorithm, config, ServerByzMode::Correct)
    }

    // The two tests below pin that every flush is immediate: an own
    // epoch-proof that makes the batch ready flushes it before the next
    // transaction of the block is handled, so no flushed batch holds more
    // than `collector_limit` entries, elements and proofs together. A
    // flush deferred to the end of the block would append one batch of
    // three entries; one deferred to the next add or tick, none.

    #[test]
    fn a_compresschain_proof_that_fills_the_batch_flushes_before_the_next_batch() {
        let e = client_elements(0..1)[0];
        let [a, b] = [10..20, 20..30].map(client_elements);
        let p1 = own_proof(1, &a);
        let origin = ProcessId::server(1);
        let block_txs: Vec<_> = [a, b]
            .into_iter()
            .zip(0..)
            .map(|(elements, seq)| compressed(origin, seq, Batch::new(elements, vec![])))
            .collect();
        let appended = appended_by(limit_two(Algorithm::Compresschain), move |s, ctx| {
            s.on_message(ProcessId::client(0), SetchainMsg::AddBatch(vec![e]), ctx);
            assert_eq!(s.core.collector.as_ref().unwrap().len(), 1);
            // Two compressed batches make epochs 1 and 2: epoch 1's proof
            // fills the batch, epoch 2's starts the next one.
            let block = Block::new(1, origin, ctx.now(), block_txs.into());
            s.finalize_block(&block, ctx);
            assert_eq!(s.state().epoch(), 2);
            assert_eq!(s.core.collector.as_ref().unwrap().len(), 1);
        });
        let [SetchainTx::Compressed(cb)] = appended.as_slice() else {
            panic!("one compressed batch appended, got {appended:?}");
        };
        assert_eq!((cb.origin, cb.seq), (ProcessId::server(0), 0));
        assert_eq!(cb.batch.elements, [e]);
        assert_eq!(cb.batch.proofs, [p1]);
    }

    #[test]
    fn a_hashchain_proof_that_fills_the_batch_flushes_before_the_next_hash_batch() {
        let registry = registry();
        let e = client_elements(0..1)[0];
        let [a, b] = [10..20, 20..30].map(|r| Arc::new(Batch::new(client_elements(r), vec![])));
        let p1 = own_proof(1, &a.elements);
        let [s1, s2] = [1, 2].map(ProcessId::server);
        // Servers 1 and 2 each sign both hashes: f + 1 = 2 signers
        // consolidate each, at its second copy.
        let block_txs: Vec<_> = [(&a, s1), (&a, s2), (&b, s1), (&b, s2)]
            .into_iter()
            .map(|(batch, signer)| {
                let keys = registry.lookup(signer).unwrap();
                SetchainTx::HashBatch(HashBatch::new(&keys, batch.hash()).into())
            })
            .collect();
        let hashes = [a.hash(), batch_hash(&[e], &[p1]), b.hash()];
        let appended = appended_by(limit_two(Algorithm::Hashchain), move |s, ctx| {
            s.on_message(ProcessId::client(0), SetchainMsg::AddBatch(vec![e]), ctx);
            assert_eq!(s.core.collector.as_ref().unwrap().len(), 1);
            // Server 1 pushes both batches, so no copy waits on a request.
            for batch in [a, b] {
                let hash = batch.hash();
                s.on_message(s1, SetchainMsg::PushBatch { hash, batch }, ctx);
            }
            let block = Block::new(1, s1, ctx.now(), block_txs.into());
            s.finalize_block(&block, ctx);
            assert_eq!(s.state().epoch(), 2);
            assert_eq!(s.core.collector.as_ref().unwrap().len(), 1);
        });
        // This server counter-signs `a`, flushes the batch that epoch 1's
        // proof filled, and only then counter-signs `b`.
        let signed: Vec<_> = appended
            .iter()
            .map(|tx| match tx {
                SetchainTx::HashBatch(hb) if hb.signer == ProcessId::server(0) => hb.hash,
                other => panic!("server 0 appends hash-batches only, got {other:?}"),
            })
            .collect();
        assert_eq!(signed, hashes);
    }

    #[test]
    fn algorithm_index_matches_all_order() {
        for (i, algorithm) in Algorithm::ALL.iter().enumerate() {
            assert_eq!(algorithm.index(), i);
        }
    }
}
