//! Algorithm **Hashchain**: the paper's primary contribution.
//!
//! Batches are hashed; only the fixed-size (139-byte) signed hash-batch
//! `⟨h, s, v⟩` is appended to the ledger, so consensus bandwidth no longer
//! scales with batch contents. The price is *hash reversal*: hashes are
//! irreversible, so a server that sees a hash-batch it does not know asks the
//! signer for the original batch (`Request_batch`). A hash consolidates into
//! an epoch only once hash-batches from `f + 1` distinct servers are on the
//! ledger — at least one of them is correct and can serve the batch.
//!
//! The block-processing loop of the paper's pseudocode performs a blocking
//! `Request_batch` with a bounded wait. In this event-driven implementation
//! the same semantics are obtained with a queue: transactions of finalized
//! blocks are processed strictly in ledger order, and processing pauses while
//! the head's hash has a batch request outstanding, resuming when the
//! response arrives or the request times out (in which case the hash-batch is
//! skipped, exactly like the pseudocode's `continue`). This keeps epoch
//! numbering identical on all correct servers.
//!
//! Each server keeps one record per batch hash (`HashRecord`): the paper's
//! `hash_to_batch` and `hash_to_signers` — the contents and the ledger
//! signers — whether this server has signed and consolidated the hash, and
//! the request in flight for it. Requests leave from one function,
//! `Hashchain::ask`. `finalize_block` asks an unknown hash's signer as soon
//! as its block is final, so the round trips of a block overlap instead of
//! serialising, which matters under WAN latency (Fig. 3c); the queue head
//! then waits on whatever request its hash already has, and asks only when
//! it has none.
//!
//! Up to n servers append a hash-batch for the same hash, but a batch's
//! contents are applied once per server, at the first copy: its epoch-proofs
//! are ingested and its elements admitted there. Later copies only count
//! their signer towards `f + 1` (see `Hashchain::handle_hash_batch`).
//!
//! Every server checks what the pseudocode checks — each hash-batch's
//! signature (`valid_hash`), the hash of a batch it flushes, recovers or is
//! pushed, each element's authenticator at its own admission-cache miss
//! and each carried epoch-proof — and pays the modelled CPU for it. The
//! host does each of those computations once per run. All servers hold the
//! origin's `Arc<Batch>`, whose memo keeps the hash and its root, and
//! starts with every element verdict known, because the origin admitted
//! each element before collecting it (see [`Batch`]). Every server's copy
//! of a block shares each `Arc<HashBatch>`, which keeps its signature
//! verdict (see [`ServerCore::valid_hash`]). A carried proof is verified
//! once per epoch batch: the proof list the servers recording that batch
//! share is the verdict memo (see [`ServerCore::ingest_proof`]).
//!
//! The "Hashchain light" ablation of Fig. 2 (left) disables hash reversal and
//! hash-batch validation (all servers assumed correct); batch availability is
//! then modelled by a [`SharedBatchRegistry`] standing in for out-of-band
//! data dissemination.
//!
//! `Hashchain` holds what only this algorithm needs — the batch registry,
//! the ledger-order queue and the per-hash records — and the steps that
//! differ from the other two: `flush`, which hashes and signs the batch the
//! server core collected, `finalize_block` and the batch service. The
//! add/get front door and the batch itself live in [`crate::app`] and
//! [`ServerCore`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use setchain_crypto::{Digest512, ProcessId};
use setchain_ledger::types::SIG_VERIFY_COST;
use setchain_ledger::Block;
use setchain_simnet::{SimDuration, SimTime, TimerToken};

use crate::byzantine::ServerByzMode;
use crate::collector::Batch;
use crate::config::{hash_cost, SIGN_COST};
use crate::messages::SetchainMsg;
use crate::server::{Ctx, ServerCore};
use crate::tx::{HashBatch, SetchainTx};

/// Timer token for batch-request timeouts.
pub(crate) const REQUEST_TICK: TimerToken = 2;

/// Timeout for a `Request_batch` round trip before the request is retried
/// with another signer (or the hash-batch is skipped).
pub const REQUEST_TIMEOUT: SimDuration = SimDuration(2_000_000); // 2 s

/// Maximum number of servers asked for a batch before giving up on a copy
/// that does not complete its hash's `f + 1` signers.
pub const MAX_REQUEST_RETRIES: usize = 3;

pub use crate::collector::batch_hash;

/// Shared out-of-band batch availability used by the "Hashchain light"
/// ablation (see the module documentation).
///
/// Batches are stored behind `Arc`, so a `get` is a refcount bump — the
/// hash-reversal recovery hot path never deep-clones batch contents.
#[derive(Clone, Default)]
pub struct SharedBatchRegistry {
    inner: Arc<Mutex<HashMap<Digest512, Arc<Batch>>>>,
}

impl SharedBatchRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a batch under its hash. Accepts an owned [`Batch`] or an
    /// already-shared `Arc<Batch>` (which is stored without copying).
    pub fn register(&self, hash: Digest512, batch: impl Into<Arc<Batch>>) {
        self.inner
            .lock()
            .entry(hash)
            .or_insert_with(|| batch.into());
    }

    /// Looks up a batch by hash. The returned `Arc` shares the stored
    /// contents; no element vector is cloned.
    pub fn get(&self, hash: &Digest512) -> Option<Arc<Batch>> {
        self.inner.lock().get(hash).map(Arc::clone)
    }

    /// Number of registered batches.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if no batch is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What this server knows about one batch hash.
#[derive(Default)]
struct HashRecord {
    /// `hash_to_batch`: the contents, once known. This is the flushing
    /// server's allocation: a response or push carries that `Arc`, and the
    /// receiver keeps it once it hashes right, so a run holds one copy of
    /// each batch however many servers know it. The same allocation
    /// carries the batch's root, hash and element verdicts, computed once
    /// per run (see [`Batch`]), so the record keeps no root of its own.
    batch: Option<Arc<Batch>>,
    /// A hash-batch copy has ingested the batch's epoch-proofs and admitted
    /// its elements with final verdicts; later copies skip both (see
    /// [`Hashchain::handle_hash_batch`]).
    applied: bool,
    /// `hash_to_signers`: servers whose hash-batches for the hash have been
    /// observed on the ledger, in id order, because `fail_request` picks its
    /// next target out of them and the pick must repeat across runs.
    signers: Vec<ProcessId>,
    /// This server has signed and appended a hash-batch for the hash.
    signed: bool,
    /// The hash has been consolidated into an epoch.
    consolidated: bool,
    /// Servers asked by the request in flight; empty when none is.
    asked: Vec<ProcessId>,
    /// When the request in flight gives up on the server it asked last.
    deadline: SimTime,
}

impl HashRecord {
    /// True while a request is in flight for contents still unknown.
    fn awaits_contents(&self) -> bool {
        self.batch.is_none() && !self.asked.is_empty()
    }

    /// Counts `signer` and returns the number of distinct signers.
    fn count_signer(&mut self, signer: ProcessId) -> usize {
        if let Err(at) = self.signers.binary_search(&signer) {
            self.signers.insert(at, signer);
        }
        self.signers.len()
    }

    /// The first server not in `asked` to ask for `hash`: other observed
    /// signers in id order (they all claim to have the batch), then the
    /// signers of its copies still in `queue`, in ledger order.
    fn next_to_ask(
        &self,
        hash: Digest512,
        queue: &VecDeque<Arc<HashBatch>>,
        me: ProcessId,
    ) -> Option<ProcessId> {
        let queued = queue
            .iter()
            .filter(|hb| hb.hash == hash)
            .map(|hb| hb.signer);
        self.signers
            .iter()
            .copied()
            .chain(queued)
            .find(|c| !self.asked.contains(c) && *c != me)
    }
}

/// Hashchain's per-server state.
pub(crate) struct Hashchain {
    /// One record per hash this server has flushed, recovered or seen on
    /// the ledger. Queue processing, serving a request and pushing hand out
    /// refcount bumps of a record's batch, never a copy of the contents.
    records: HashMap<Digest512, HashRecord>,
    /// Hash-batches from finalized blocks awaiting processing, in ledger
    /// order: each the block's own `Arc`, whose signature verdict is known.
    block_queue: VecDeque<Arc<HashBatch>>,
    /// The queue head waits on its hash's request, until the contents
    /// arrive or the request gives up.
    paused: bool,
    /// Light-mode data availability.
    shared_registry: Option<SharedBatchRegistry>,
}

impl Hashchain {
    /// `shared` is the out-of-band batch availability of the "Hashchain
    /// light" ablation; `None` runs the full protocol with hash reversal.
    pub(crate) fn new(shared: Option<SharedBatchRegistry>) -> Self {
        Hashchain {
            records: HashMap::new(),
            block_queue: VecDeque::new(),
            paused: false,
            shared_registry: shared,
        }
    }

    /// Number of batches whose contents this server knows.
    pub(crate) fn known_batches(&self) -> usize {
        self.records.values().filter(|r| r.batch.is_some()).count()
    }

    /// `upon isReady(batch)`: hash the batch, register it, and append the
    /// signed hash-batch to the ledger.
    pub(crate) fn flush(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        let batch = Arc::new(core.take_batch(ctx.now()));
        let hash = batch.hash();
        ctx.consume_cpu(hash_cost(batch.wire_size()));
        // Register_batch(h, batch): keep the contents so other servers can
        // request them. The registry shares the same `Arc` — no copy.
        if let Some(shared) = &self.shared_registry {
            shared.register(hash, Arc::clone(&batch));
        }
        ctx.consume_cpu(SIGN_COST);
        let hb = core.make_hash_batch(hash);
        self.remember(hash, Arc::clone(&batch)).signed = true;
        core.append_batch(SetchainTx::HashBatch(hb.into()), &batch.elements, ctx);
        // Push-based dissemination variant: ship the batch contents to every
        // other server out of band, so that when the hash-batch lands in a
        // block they already hold the contents and skip `Request_batch`.
        // The message carries the registered `Arc` itself.
        if core.config.push_batches {
            let me = core.id();
            let peers = (0..core.config.servers)
                .map(ProcessId::server)
                .filter(|p| *p != me);
            ctx.broadcast_app(peers, SetchainMsg::PushBatch { hash, batch });
        }
    }

    /// True if this server knows the contents for `hash`, consulting the
    /// shared registry in light mode.
    fn knows(&mut self, hash: &Digest512) -> bool {
        if self.records.get(hash).is_some_and(|r| r.batch.is_some()) {
            return true;
        }
        let Some(batch) = self.shared_registry.as_ref().and_then(|s| s.get(hash)) else {
            return false;
        };
        self.records.entry(*hash).or_default().batch = Some(batch);
        true
    }

    /// Processes queued hash-batches in ledger order, pausing when the
    /// head's contents are unknown.
    fn process_queue(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        while !self.paused {
            let Some((hash, signer)) = self.block_queue.front().map(|hb| (hb.hash, hb.signer))
            else {
                return;
            };
            // Light mode without contents anywhere counts the signer but
            // consolidates an empty epoch.
            if self.knows(&hash) || core.config.light {
                self.block_queue.pop_front();
                self.handle_hash_batch(core, hash, signer, ctx);
                continue;
            }
            // Request_batch(h) from the signer of the hash-batch — unless a
            // prefetch for it is already in flight, in which case the head
            // only waits for it. The prefetch's wait of two request timeouts
            // counts from the time it was *sent* (not from the time its
            // hash-batch reached the queue head): under a signer that never
            // answers — a server refusing batch service — the stalls for all
            // hash-batches prefetched together then overlap instead of
            // serialising, while a merely slow-but-correct signer still gets
            // the same patience the head's own request grants.
            let rec = self.records.entry(hash).or_default();
            let deadline = if rec.asked.is_empty() {
                self.ask(core, hash, signer, REQUEST_TIMEOUT, ctx)
            } else {
                // The head counts its own signer as the one asked, whoever
                // the prefetch went to.
                rec.asked = vec![signer];
                if ctx.now() >= rec.deadline {
                    // The prefetch has been outstanding for its full
                    // allowance: fall back to another signer or skip the
                    // hash-batch now instead of stalling the queue on the
                    // same unresponsive server again.
                    self.fail_request(core, ctx);
                    return;
                }
                rec.deadline
            };
            self.pause(deadline, ctx);
        }
    }

    /// `Request_batch(h)`: asks `to` for the contents of `hash`, giving it
    /// `patience` to answer, and returns the request's deadline. Every
    /// request leaves from here: a prefetch, the queue head's own request
    /// and each retry.
    fn ask(
        &mut self,
        core: &mut ServerCore,
        hash: Digest512,
        to: ProcessId,
        patience: SimDuration,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> SimTime {
        core.stats.batch_requests_sent += 1;
        ctx.send_app(to, SetchainMsg::RequestBatch { hash });
        let rec = self.records.entry(hash).or_default();
        rec.asked.push(to);
        rec.deadline = ctx.now() + patience;
        rec.deadline
    }

    /// Pauses the queue head on its hash's request until `deadline`.
    fn pause(&mut self, deadline: SimTime, ctx: &mut Ctx<'_, '_, '_>) {
        self.paused = true;
        ctx.set_app_timer(deadline - ctx.now(), REQUEST_TICK);
    }

    /// The deadline of the request the queue head is paused on, if any.
    fn head_deadline(&self) -> Option<SimTime> {
        let hb = self.block_queue.front().filter(|_| self.paused)?;
        self.records.get(&hb.hash).map(|r| r.deadline)
    }

    /// True if the queue head is paused on a request for `hash`.
    fn head_waits_for(&self, hash: &Digest512) -> bool {
        self.paused && self.block_queue.front().is_some_and(|hb| hb.hash == *hash)
    }

    /// Gives up on the head's request (timeout or bad response): either
    /// retries with another signer or skips the hash-batch, mirroring the
    /// pseudocode's `continue`.
    ///
    /// Two rules keep every correct server consolidating each hash at the
    /// same copy, whatever it managed to fetch. A skipped copy still counts
    /// its signer: its hash-batch is valid and on the ledger. And the copy
    /// that brings its hash to `f + 1` signers is never skipped: one of them
    /// is correct and holds the batch, so its signers are asked round after
    /// round until one answers.
    fn fail_request(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        let Some((hash, signer)) = self.block_queue.front().map(|hb| (hb.hash, hb.signer)) else {
            return;
        };
        self.paused = false;
        let me = core.id();
        let rec = self.records.entry(hash).or_default();
        // The head copy's signer counts now, even if the copy is skipped.
        let completes = rec.count_signer(signer) >= core.config.proof_quorum();
        let mut next = None;
        if rec.asked.len() < MAX_REQUEST_RETRIES || completes {
            next = rec.next_to_ask(hash, &self.block_queue, me);
            if next.is_none() && completes {
                // Every signer was asked this round: start the next one.
                rec.asked.clear();
                next = rec.next_to_ask(hash, &self.block_queue, me);
            }
        }
        if let Some(next) = next {
            let deadline = self.ask(core, hash, next, REQUEST_TIMEOUT, ctx);
            self.pause(deadline, ctx);
            return;
        }
        // Give up: skip the hash-batch at the head of the queue.
        rec.asked = Vec::new();
        core.stats.batch_requests_failed += 1;
        self.block_queue.pop_front();
        self.process_queue(core, ctx);
    }

    /// A restart fenced off the request timer armed before the crash: arm
    /// it again, so an outstanding request cannot pause the queue forever.
    pub(crate) fn on_restart(&self, ctx: &mut Ctx<'_, '_, '_>) {
        if let Some(deadline) = self.head_deadline() {
            ctx.set_app_timer(deadline - ctx.now(), REQUEST_TICK);
        }
    }

    /// Processes one hash-batch, `signer`'s copy of `hash`, whose position
    /// in the ledger order has been reached; its record holds no contents
    /// only in light mode when they are unavailable.
    ///
    /// A batch's contents are applied once per server, at the first copy of
    /// its hash this server processes: its epoch-proofs are ingested and its
    /// elements admitted there, and the record is marked `applied`. Both
    /// steps are idempotent for the same bytes, so the up-to-n later copies
    /// skip them — except after a proof naming an epoch not derived here
    /// yet, whose verdict can still change: the record then stays unapplied
    /// and the next copy applies the batch again. Every copy still counts
    /// its signer (its `valid_hash` was checked in [`Self::finalize_block`]),
    /// counter-signs if this server has not, and consolidates at `f + 1`.
    fn handle_hash_batch(
        &mut self,
        core: &mut ServerCore,
        hash: Digest512,
        signer: ProcessId,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        let rec = self.records.entry(hash).or_default();

        if let Some(batch) = &rec.batch {
            // If we had to recover the batch (we are not its origin and have
            // not signed it yet), sign the hash and append our own hash-batch
            // so the f+1 consolidation quorum can form.
            if !rec.signed {
                ctx.consume_cpu(SIGN_COST);
                ctx.append(SetchainTx::HashBatch(core.make_hash_batch(hash).into()));
                rec.signed = true;
            }
            if !rec.applied {
                // Valid epoch-proofs of the batch. Every proof is ingested,
                // even after one whose epoch is not derived yet.
                let mut settled = true;
                for &p in &batch.proofs {
                    settled &= core.ingest_proof(p, ctx);
                }
                // Valid elements join the_set immediately (they join history
                // only at consolidation); no candidate vector is
                // materialized here.
                core.admit_batch_elements(batch, ctx);
                rec.applied = settled;
            }
        }

        // Track the signer and consolidate at f + 1.
        let enough = rec.count_signer(signer) >= core.config.proof_quorum();
        if enough && !rec.consolidated {
            rec.consolidated = true;
            // A batch whose contents never arrived is an empty epoch.
            let batch = rec.batch.clone().unwrap_or_default();
            let proof = core.create_epoch(&batch, ctx);
            // The epoch-proof goes into the next batch, which is flushed
            // before the next queued hash-batch if the proof fills it.
            if core.route_own_proof(proof, ctx) {
                self.flush(core, ctx);
            }
        }
    }

    /// `new_block(B)`: the block's valid hash-batches join the ledger-order
    /// queue, which is then processed as far as known batch contents allow.
    pub(crate) fn finalize_block(
        &mut self,
        core: &mut ServerCore,
        block: &Block<SetchainTx>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        for tx in block.txs.iter() {
            let SetchainTx::HashBatch(hb) = tx else {
                continue;
            };
            if !core.config.light {
                // valid_hash(h, s_w, w): every server pays for the check,
                // and the host reads the verdict the shared `Arc` keeps.
                ctx.consume_cpu(SIG_VERIFY_COST);
                if !core.valid_hash(hb) {
                    continue;
                }
                // Prefetch: start recovering unknown batch contents right
                // away so the round trips overlap instead of serialising per
                // hash-batch. It gets two request timeouts from now (see
                // `process_queue`).
                let rec = self.records.entry(hb.hash).or_default();
                if rec.batch.is_none() && rec.asked.is_empty() && hb.signer != core.id() {
                    self.ask(core, hb.hash, hb.signer, REQUEST_TIMEOUT * 2, ctx);
                }
            }
            self.block_queue.push_back(Arc::clone(hb));
        }
        self.process_queue(core, ctx);
    }

    /// The hash-reversal service between servers: `Request_batch`, its
    /// response, and pushed batch contents. Any other message is ignored.
    pub(crate) fn on_batch_message(
        &mut self,
        core: &mut ServerCore,
        from: ProcessId,
        msg: SetchainMsg,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        match msg {
            SetchainMsg::RequestBatch { hash } => {
                if core.byz == ServerByzMode::RefuseBatchService {
                    return;
                }
                if let Some(batch) = self.records.get(&hash).and_then(|r| r.batch.as_ref()) {
                    core.stats.batch_requests_served += 1;
                    let batch = Arc::clone(batch);
                    ctx.send_app(from, SetchainMsg::BatchResponse { hash, batch });
                }
            }
            SetchainMsg::BatchResponse { hash, batch } => {
                // Only an answer to a request in flight is hashed: a late or
                // unasked one is dropped unread.
                if !self
                    .records
                    .get(&hash)
                    .is_some_and(HashRecord::awaits_contents)
                {
                    return;
                }
                // Shared contents are checked exactly like owned ones: hashed
                // and charged in full before the `Arc` is kept. The host
                // reads the hash the batch computed for its first reader.
                ctx.consume_cpu(hash_cost(batch.wire_size()));
                if batch.hash() == hash {
                    self.accept(core, hash, batch, ctx);
                } else if self.head_waits_for(&hash) {
                    // The signer is lying about the contents: retry elsewhere.
                    self.fail_request(core, ctx);
                } else if let Some(rec) = self.records.get_mut(&hash) {
                    // A bad prefetch answer: forget the request so the head
                    // asks again when it gets there.
                    rec.asked = Vec::new();
                }
            }
            SetchainMsg::PushBatch { hash, batch } => {
                // Push-based dissemination: only another server of this
                // deployment pushes, and only with push on. The contents are
                // accepted only if they really hash to the claimed value (a
                // Byzantine pusher cannot plant wrong contents for a hash).
                let pusher = core.config.is_server(from) && from != core.id();
                let known = self.records.get(&hash).is_some_and(|r| r.batch.is_some());
                if !core.config.push_batches || !pusher || known {
                    return;
                }
                ctx.consume_cpu(hash_cost(batch.wire_size()));
                if batch.hash() == hash {
                    self.accept(core, hash, batch, ctx);
                }
            }
            _ => {}
        }
    }

    /// Keeps batch contents this server hashed itself: flushed, or
    /// verified against `hash`.
    fn remember(&mut self, hash: Digest512, batch: Arc<Batch>) -> &mut HashRecord {
        let rec = self.records.entry(hash).or_default();
        rec.batch = Some(batch);
        rec.applied = false;
        rec
    }

    /// Keeps contents received for `hash` that hash right, ends its request,
    /// and resumes the queue head if it waited on them.
    fn accept(
        &mut self,
        core: &mut ServerCore,
        hash: Digest512,
        batch: Arc<Batch>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        self.remember(hash, batch).asked = Vec::new();
        if self.head_waits_for(&hash) {
            self.paused = false;
            self.process_queue(core, ctx);
        }
    }

    /// The request timer fired: give up on the head's request if its
    /// deadline has passed (a superseded timer finds a later deadline).
    pub(crate) fn on_request_tick(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        if self.head_deadline().is_some_and(|d| ctx.now() >= d) {
            self.fail_request(core, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SetchainServer;
    use crate::collector::Collector;
    use crate::config::{SetchainConfig, VALIDATE_ELEMENT_COST};
    use crate::element::{Element, ElementId};
    use crate::proofs::{make_epoch_proof, make_epoch_proof_for_digest};
    use crate::trace::SetchainTrace;
    use crate::Algorithm;
    use setchain_crypto::KeyRegistry;
    use setchain_ledger::{ByzMode, LedgerConfig, LedgerNode, LedgerTrace, NetMsg};
    use setchain_simnet::{NetworkConfig, SimDuration, Simulation, SimulationConfig};

    fn registry() -> KeyRegistry {
        KeyRegistry::bootstrap(31, 4, 2)
    }

    fn elements(reg: &KeyRegistry, range: std::ops::Range<u64>) -> Vec<Element> {
        let keys = reg.lookup(ProcessId::client(0)).unwrap();
        range
            .map(|i| Element::new(&keys, ElementId::new(0, i), 438, i * 31 + 1))
            .collect()
    }

    /// A full-protocol Hashchain over `core`, which collects its batch as a
    /// Hashchain server's core does.
    fn hashchain(core: &mut ServerCore) -> Hashchain {
        core.collector = Some(Collector::new(core.config.collector_limit));
        Hashchain::new(None)
    }

    /// The contents `h` keeps for `hash`, if any.
    fn contents<'a>(h: &'a Hashchain, hash: &Digest512) -> Option<&'a Arc<Batch>> {
        h.records.get(hash)?.batch.as_ref()
    }

    /// Pauses the queue head of `h` on a request for `hash` that has asked
    /// `asked` and gives up at `deadline`.
    fn wait_on(h: &mut Hashchain, hash: Digest512, asked: Vec<ProcessId>, deadline: SimTime) {
        let rec = h.records.entry(hash).or_default();
        rec.asked = asked;
        rec.deadline = deadline;
        h.paused = true;
    }

    #[test]
    fn batch_hash_is_deterministic_order_insensitive_and_content_sensitive() {
        let reg = registry();
        let es = elements(&reg, 0..20);
        let server = reg.lookup(ProcessId::server(0)).unwrap();
        let proof = make_epoch_proof(&server, 1, &es[..5]);
        let a = batch_hash(&es, &[proof]);
        assert_eq!(a, batch_hash(&es, &[proof]));
        // The batch is committed to as a set: reordering elements of
        // distinct ids keeps the hash.
        let mut reordered = es.clone();
        reordered.swap(0, 1);
        assert_eq!(a, batch_hash(&reordered, &[proof]));
        reordered.reverse();
        assert_eq!(a, batch_hash(&reordered, &[proof]));
        // Dropping an element or the proof changes it.
        assert_ne!(a, batch_hash(&es[..19], &[proof]));
        assert_ne!(a, batch_hash(&es, &[]));
    }

    #[test]
    fn batch_hash_moves_with_any_field_any_proof_byte_and_multiplicity() {
        let reg = registry();
        let es = elements(&reg, 0..20);
        let server = reg.lookup(ProcessId::server(0)).unwrap();
        let proof = make_epoch_proof(&server, 1, &es[..5]);
        let a = batch_hash(&es, &[proof]);
        // Any field of any element.
        let tweaks: [fn(&mut Element); 5] = [
            |e| e.id = ElementId(e.id.0 ^ (1 << 40)),
            |e| e.client = ProcessId(e.client.0 ^ 1),
            |e| e.size ^= 1,
            |e| e.content_seed ^= 1,
            |e| e.auth ^= 1,
        ];
        for i in 0..es.len() {
            for (field, tweak) in tweaks.iter().enumerate() {
                let mut tampered = es.clone();
                tweak(&mut tampered[i]);
                assert_ne!(
                    a,
                    batch_hash(&tampered, &[proof]),
                    "element {i} field {field}"
                );
            }
        }
        // Any proof byte: epoch, signer, every signature byte.
        let mut other = proof;
        other.epoch += 1;
        assert_ne!(a, batch_hash(&es, &[other]));
        let mut other = proof;
        other.signer = ProcessId::server(1);
        assert_ne!(a, batch_hash(&es, &[other]));
        for byte in 0..proof.signature.bytes.len() {
            let mut other = proof;
            other.signature.bytes[byte] ^= 1;
            assert_ne!(a, batch_hash(&es, &[other]), "signature byte {byte}");
        }
        // Multiplicity: `[a]` is not `[a, a]`.
        assert_ne!(batch_hash(&es[..1], &[]), batch_hash(&[es[0], es[0]], &[]));
        // Same-id twins keep their relative order in the canonical order, so
        // swapping them moves the hash.
        let mut twin = es[3];
        twin.content_seed ^= 0xff;
        assert_ne!(
            batch_hash(&[es[3], twin], &[]),
            batch_hash(&[twin, es[3]], &[])
        );
    }

    #[test]
    fn batch_hash_distinguishes_elements_from_proofs_boundary() {
        // An empty batch and a batch with only proofs must not collide with
        // each other or with element-only batches.
        let reg = registry();
        let es = elements(&reg, 0..3);
        let server = reg.lookup(ProcessId::server(1)).unwrap();
        let proof = make_epoch_proof(&server, 2, &es);
        let empty = batch_hash(&[], &[]);
        let only_elements = batch_hash(&es, &[]);
        let only_proofs = batch_hash(&[], &[proof]);
        assert_ne!(empty, only_elements);
        assert_ne!(empty, only_proofs);
        assert_ne!(only_elements, only_proofs);
    }

    #[test]
    fn shared_registry_stores_first_writer_wins() {
        let reg = registry();
        let shared = SharedBatchRegistry::new();
        assert!(shared.is_empty());
        let es = elements(&reg, 0..4);
        let hash = batch_hash(&es, &[]);
        shared.register(hash, Batch::new(es.clone(), vec![]));
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.get(&hash).unwrap().elements.len(), 4);
        // Re-registering under the same hash does not overwrite.
        shared.register(hash, Batch::new(vec![], vec![]));
        assert_eq!(shared.get(&hash).unwrap().elements.len(), 4);
        assert!(shared.get(&batch_hash(&es[..2], &[])).is_none());
        // Clones share the same storage.
        let alias = shared.clone();
        assert_eq!(alias.len(), 1);
    }

    #[test]
    fn a_shared_batch_that_hashes_wrong_is_dropped_and_fails_the_request() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = hashchain(core);
            let honest = Arc::new(Batch::new(elements(registry, 0..10), vec![]));
            let hash = batch_hash(&honest.elements, &honest.proofs);
            // Servers 1 and 2 both put `hash` on the ledger; the queue head
            // waits on server 1.
            let [s1, s2] = [1, 2].map(ProcessId::server);
            for s in [s1, s2] {
                let keys = registry.lookup(s).unwrap();
                h.block_queue.push_back(HashBatch::new(&keys, hash).into());
            }
            wait_on(&mut h, hash, vec![s1], ctx.now() + REQUEST_TIMEOUT);

            // Server 1 answers with contents that miss one element.
            let lie = Arc::new(Batch::new(elements(registry, 0..9), vec![]));
            let batch = Arc::clone(&lie);
            h.on_batch_message(core, s1, SetchainMsg::BatchResponse { hash, batch }, ctx);
            assert!(contents(&h, &hash).is_none(), "a lie is not kept");
            assert_eq!(Arc::strong_count(&lie), 1, "nothing holds the lie");
            // `fail_request` moved on to the other signer.
            assert!(h.paused);
            assert_eq!(h.records[&hash].asked, vec![s1, s2]);
            assert_eq!(core.stats.batch_requests_sent, 1);
            assert_eq!(core.stats.batch_requests_failed, 0);

            // Server 2's honest answer is kept as the very allocation sent,
            // and the queue drains into an epoch.
            let batch = Arc::clone(&honest);
            h.on_batch_message(core, s2, SetchainMsg::BatchResponse { hash, batch }, ctx);
            assert!(Arc::ptr_eq(contents(&h, &hash).unwrap(), &honest));
            assert!(!h.paused && h.block_queue.is_empty());
            assert_eq!(core.state.epoch(), 1);

            // With no signer left to ask, a lie skips the hash-batch.
            let hash = batch_hash(&elements(registry, 20..30), &[]);
            let keys = registry.lookup(s1).unwrap();
            h.block_queue.push_back(HashBatch::new(&keys, hash).into());
            wait_on(&mut h, hash, vec![s1], ctx.now() + REQUEST_TIMEOUT);
            let batch = Arc::clone(&lie);
            h.on_batch_message(core, s1, SetchainMsg::BatchResponse { hash, batch }, ctx);
            assert!(contents(&h, &hash).is_none());
            assert_eq!(core.stats.batch_requests_failed, 1);
            assert!(!h.paused && h.block_queue.is_empty());
            assert_eq!(core.state.epoch(), 1);
        });
    }

    #[test]
    fn a_push_is_kept_only_from_another_server_with_push_on() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = hashchain(core);
            let batch = Arc::new(Batch::new(elements(registry, 0..100), vec![]));
            let hash = batch_hash(&batch.elements, &batch.proofs);
            let push = |h: &mut Hashchain, core: &mut ServerCore, from, ctx: &mut Ctx| {
                let before = ctx.cpu_consumed();
                let msg = SetchainMsg::PushBatch {
                    hash,
                    batch: Arc::clone(&batch),
                };
                h.on_batch_message(core, from, msg, ctx);
                (contents(h, &hash).is_some(), ctx.cpu_consumed() - before)
            };
            let none = (false, SimDuration::ZERO);

            // Push off: no push is kept or hashed, not even a server's.
            assert!(!core.config.push_batches);
            assert_eq!(push(&mut h, core, ProcessId::client(0), ctx), none);
            assert_eq!(push(&mut h, core, ProcessId::server(1), ctx), none);

            // Push on: a client, an unknown server and this server itself
            // are still ignored; a peer's push is hashed and kept.
            core.config.push_batches = true;
            assert_eq!(push(&mut h, core, ProcessId::client(0), ctx), none);
            assert_eq!(push(&mut h, core, ProcessId::server(4), ctx), none);
            assert_eq!(push(&mut h, core, core.id(), ctx), none);
            let (kept, cpu) = push(&mut h, core, ProcessId::server(1), ctx);
            assert!(kept && cpu > SimDuration::ZERO);
        });
    }

    #[test]
    fn a_skipped_copy_counts_its_signer_and_the_completing_copy_waits() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = hashchain(core);
            let batch = Arc::new(Batch::new(elements(registry, 0..10), vec![]));
            let hash = batch_hash(&batch.elements, &batch.proofs);
            let [s1, s2, s3] = [1, 2, 3].map(ProcessId::server);
            for s in [s1, s2] {
                let keys = registry.lookup(s).unwrap();
                h.block_queue.push_back(HashBatch::new(&keys, hash).into());
            }
            // Server 1's copy has run out of signers to ask: it is skipped,
            // but its signer counts.
            wait_on(&mut h, hash, vec![s1, s2, s3], ctx.now());
            h.fail_request(core, ctx);
            assert_eq!(core.stats.batch_requests_failed, 1);
            assert_eq!(h.records[&hash].signers, vec![s1]);
            assert!(h.paused);
            assert_eq!(h.records[&hash].asked, vec![s2]);

            // Server 2's copy brings the hash to f + 1 = 2 signers, so its
            // signers are asked round after round and it is never skipped.
            for _ in 0..2 * MAX_REQUEST_RETRIES {
                h.fail_request(core, ctx);
            }
            assert_eq!(core.stats.batch_requests_failed, 1);
            assert_eq!(h.block_queue.len(), 1);
            assert!(h.paused);
            let asked = &h.records[&hash].asked;
            assert!(asked.len() <= 2 && asked.iter().all(|s| [s1, s2].contains(s)));

            // The answer consolidates the hash at this copy, as on a server
            // that fetched the batch at the first one.
            let answer = SetchainMsg::BatchResponse { hash, batch };
            h.on_batch_message(core, s2, answer, ctx);
            assert!(!h.paused && h.block_queue.is_empty());
            assert_eq!(core.state.epoch(), 1);
            assert_eq!(core.state.epoch_elements(1).unwrap().len(), 10);
        });
    }

    #[test]
    fn a_response_with_no_request_in_flight_is_dropped_unhashed() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = hashchain(core);
            let batch = Arc::new(Batch::new(elements(registry, 0..10), vec![]));
            let hash = batch_hash(&batch.elements, &batch.proofs);
            let s1 = ProcessId::server(1);
            let respond = |h: &mut Hashchain, core: &mut ServerCore, ctx: &mut Ctx| {
                let before = ctx.cpu_consumed();
                let msg = SetchainMsg::BatchResponse {
                    hash,
                    batch: Arc::clone(&batch),
                };
                h.on_batch_message(core, s1, msg, ctx);
                ctx.cpu_consumed() - before
            };

            // Never asked for.
            assert_eq!(respond(&mut h, core, ctx), SimDuration::ZERO);
            assert!(h.records.is_empty());

            // Asked for, then given up on: server 1's copy was the only one
            // and server 1 was the only signer to ask.
            let keys = registry.lookup(s1).unwrap();
            h.block_queue.push_back(HashBatch::new(&keys, hash).into());
            h.process_queue(core, ctx);
            assert!(h.paused);
            h.fail_request(core, ctx);
            assert_eq!(core.stats.batch_requests_sent, 1);
            assert_eq!(core.stats.batch_requests_failed, 1);
            assert!(!h.paused && h.block_queue.is_empty());

            // The late answer is dropped unhashed as well.
            assert_eq!(respond(&mut h, core, ctx), SimDuration::ZERO);
            assert!(contents(&h, &hash).is_none());
            assert_eq!(Arc::strong_count(&batch), 1, "nothing holds the answer");
            assert_eq!(core.state.epoch(), 0);
        });
    }

    #[test]
    fn a_head_whose_prefetch_ran_out_fails_over_without_a_tick() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = hashchain(core);
            let hash = batch_hash(&elements(registry, 0..10), &[]);
            let [s1, s2] = [1, 2].map(ProcessId::server);
            for s in [s1, s2] {
                let keys = registry.lookup(s).unwrap();
                h.block_queue.push_back(HashBatch::new(&keys, hash).into());
            }
            // A prefetch to server 1 with time left: the head waits on it
            // and asks no one.
            let later = ctx.now() + REQUEST_TIMEOUT;
            let rec = h.records.entry(hash).or_default();
            rec.asked = vec![s1];
            rec.deadline = later;
            h.process_queue(core, ctx);
            assert_eq!(h.head_deadline(), Some(later));
            assert_eq!(core.stats.batch_requests_sent, 0);

            // A prefetch sent two request timeouts ago has run out: the head
            // counts server 1 and asks server 2 at once, with one request
            // timeout to answer.
            h.paused = false;
            h.records.get_mut(&hash).unwrap().deadline = ctx.now();
            h.process_queue(core, ctx);
            assert_eq!(core.stats.batch_requests_sent, 1);
            assert_eq!(core.stats.batch_requests_failed, 0);
            assert_eq!(h.records[&hash].signers, vec![s1]);
            assert_eq!(h.records[&hash].asked, vec![s1, s2]);
            assert_eq!(h.head_deadline(), Some(ctx.now() + REQUEST_TIMEOUT));
            assert_eq!(h.block_queue.len(), 2);
        });
    }

    /// Keeps `batch` as known contents and returns its hash.
    fn know(h: &mut Hashchain, batch: Batch) -> Digest512 {
        let hash = batch.hash();
        h.remember(hash, Arc::new(batch));
        hash
    }

    /// Processes server `signer`'s hash-batch copy of the known `hash` and
    /// returns the simulated CPU it charged.
    fn process_copy(
        h: &mut Hashchain,
        core: &mut ServerCore,
        signer: usize,
        hash: Digest512,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> SimDuration {
        let before = ctx.cpu_consumed();
        assert!(h.knows(&hash), "contents are known");
        h.handle_hash_batch(core, hash, ProcessId::server(signer), ctx);
        ctx.cpu_consumed() - before
    }

    #[test]
    fn a_known_batch_is_applied_once_however_many_copies_arrive() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = hashchain(core);
            // Epoch 1 first, so that there is an epoch to carry proofs for.
            let b = know(&mut h, Batch::new(elements(registry, 0..10), vec![]));
            for signer in [1, 2] {
                process_copy(&mut h, core, signer, b, ctx);
            }
            assert_eq!(core.state.epoch(), 1);

            // Servers 2 and 3's proofs for epoch 1, ten valid elements and
            // one forged one.
            let digest = *core.state.epoch_digest(1).unwrap();
            let proofs = [2, 3]
                .map(|s| {
                    let keys = registry.lookup(ProcessId::server(s)).unwrap();
                    make_epoch_proof_for_digest(&keys, 1, &digest)
                })
                .into();
            let mut batch_elements = elements(registry, 100..110);
            let forged = Element::forged(ProcessId::client(0), ElementId::new(0, 110), 438);
            batch_elements.push(forged);
            let count = batch_elements.len();
            let a = know(&mut h, Batch::new(batch_elements, proofs));

            // The first copy counter-signs, verifies both proofs and
            // validates the elements: eleven cache misses.
            let first = process_copy(&mut h, core, 1, a, ctx);
            let apply = SIG_VERIFY_COST * 2 + VALIDATE_ELEMENT_COST * count as u64;
            assert_eq!(first, SIGN_COST + apply);
            assert_eq!(core.stats.proofs_received, 2);
            assert_eq!(core.stats.elements_rejected, 1);
            assert!(core.state.contains(&ElementId::new(0, 100)));
            assert_eq!(core.state.epoch(), 1, "one signer is not a quorum");

            // The second copy charges only the consolidation: f + 1 = 2
            // signers make epoch 2 out of the ten valid elements. Every
            // verdict is a cache hit, so no validation is charged.
            let second = process_copy(&mut h, core, 2, a, ctx);
            let stamped = core.state.epoch_elements(2).unwrap();
            assert_eq!(stamped.len(), 10);
            let bytes = stamped.iter().map(|e| e.wire_size()).sum();
            let consolidate = hash_cost(bytes) + SIGN_COST;
            assert_eq!(second, consolidate);
            assert_eq!(h.records[&a].signers.len(), 2);
            assert_eq!(core.stats.proofs_received, 2);
            // The epoch's own filter counts the forgery once more.
            assert_eq!(core.stats.elements_rejected, 2);

            // A third copy only adds its signer.
            let third = process_copy(&mut h, core, 3, a, ctx);
            assert_eq!(third, SimDuration::ZERO);
            assert_eq!(h.records[&a].signers.len(), 3);
            assert_eq!(core.stats.proofs_received, 2);
            assert_eq!(core.stats.proofs_rejected, 0);
            assert_eq!(core.stats.elements_rejected, 2);
            assert_eq!(core.state.epoch(), 2);
            assert_eq!(core.state.proof_count(1), 2);
        });
    }

    #[test]
    fn a_proof_for_an_epoch_not_derived_yet_is_retried_at_the_next_copy() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = hashchain(core);
            // Batch `b` will become epoch 1; batch `a` carries server 2's
            // proof for that epoch and reaches the queue head first.
            let b = elements(registry, 0..10);
            let digest = crate::proofs::epoch_hash(1, &b);
            let keys = registry.lookup(ProcessId::server(2)).unwrap();
            let ahead = make_epoch_proof_for_digest(&keys, 1, &digest);
            let a = know(&mut h, Batch::new(elements(registry, 10..20), vec![ahead]));
            let b = know(&mut h, Batch::new(b, vec![]));

            // Epoch 1 does not exist yet: the proof is rejected and `a`
            // stays unapplied.
            process_copy(&mut h, core, 1, a, ctx);
            assert_eq!(core.stats.proofs_rejected, 1);
            assert!(!h.records[&a].applied);

            // `b` consolidates into epoch 1.
            process_copy(&mut h, core, 1, b, ctx);
            process_copy(&mut h, core, 2, b, ctx);
            assert_eq!(core.state.epoch_digest(1), Some(&digest));

            // The next copy of `a` applies it again: the proof verifies now,
            // and `a` consolidates into epoch 2. Its elements were checked
            // at the first copy, so every verdict is a cache hit.
            let retry = process_copy(&mut h, core, 3, a, ctx);
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(core.state.proof_count(1), 1);
            assert!(h.records[&a].applied);
            assert_eq!(core.state.epoch(), 2, "a consolidated at f + 1");
            let bytes = core
                .state
                .epoch_elements(2)
                .unwrap()
                .iter()
                .map(|e| e.wire_size())
                .sum();
            assert_eq!(retry, SIG_VERIFY_COST + hash_cost(bytes) + SIGN_COST);

            // After that, copies ingest nothing.
            let last = process_copy(&mut h, core, 2, a, ctx);
            assert_eq!(last, SimDuration::ZERO);
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(core.stats.proofs_rejected, 1);
        });
    }

    /// Runs a healthy four-server Hashchain deployment under `config`: one
    /// client sends 600 elements over the first 3 s, round-robin over the
    /// servers, and the run stops at 15 s.
    fn healthy_run(config: SetchainConfig) -> Simulation<NetMsg<SetchainTx, SetchainMsg>> {
        let n = config.servers;
        let registry = KeyRegistry::bootstrap(41, n, 1);
        let trace = SetchainTrace::new();
        let mut sim = Simulation::new(SimulationConfig {
            seed: 41,
            network: NetworkConfig::lan(),
        });
        for i in 0..n {
            let id = ProcessId::server(i);
            let keys = registry.lookup(id).unwrap();
            let core = ServerCore::new(
                keys,
                registry.clone(),
                config.clone(),
                trace.clone(),
                ServerByzMode::Correct,
            );
            let app = SetchainServer::new(Algorithm::Hashchain, core, SharedBatchRegistry::new());
            let node = LedgerNode::new(
                id,
                LedgerConfig::with_validators(n),
                keys,
                registry.clone(),
                app,
                LedgerTrace::new(),
                ByzMode::Correct,
            );
            sim.add_process(id, Box::new(node));
        }
        for (k, chunk) in elements(&registry, 0..600).chunks(20).enumerate() {
            sim.schedule_message(
                SimTime::from_millis(100 + 100 * k as u64),
                ProcessId::client(0),
                ProcessId::server(k % n),
                NetMsg::App(SetchainMsg::AddBatch(chunk.to_vec())),
            );
        }
        sim.run_until(SimTime::from_secs(15));
        sim
    }

    /// Every batch hash known anywhere in the run is one allocation: each
    /// server that knows it holds the `Arc` its origin flushed.
    fn assert_one_allocation_per_hash(config: SetchainConfig) {
        let sim = healthy_run(config);
        let servers: Vec<&Hashchain> = (0..4)
            .map(|i| {
                let node: &LedgerNode<SetchainServer> = sim.process(ProcessId::server(i)).unwrap();
                node.app().hashchain().unwrap()
            })
            .collect();
        let mut first: HashMap<Digest512, &Arc<Batch>> = HashMap::new();
        for (i, server) in servers.iter().enumerate() {
            for hash in server.records.keys() {
                let Some(batch) = contents(server, hash) else {
                    continue;
                };
                let seen = *first.entry(*hash).or_insert(batch);
                assert!(
                    Arc::ptr_eq(batch, seen),
                    "server {i} holds its own copy of a batch"
                );
            }
        }
        let known_everywhere = first
            .keys()
            .filter(|h| servers.iter().all(|s| contents(s, h).is_some()))
            .count();
        // 600 elements at collector limit 100 make at least six element
        // batches, and epoch-proofs keep more coming; all reached everyone.
        assert!(known_everywhere >= 6, "{known_everywhere} shared batches");
    }

    #[test]
    fn every_server_shares_the_origin_batch_after_a_healthy_run() {
        assert_one_allocation_per_hash(SetchainConfig::new(4));
    }

    #[test]
    fn pushed_batches_share_the_origin_batch_too() {
        assert_one_allocation_per_hash(SetchainConfig {
            push_batches: true,
            ..SetchainConfig::new(4)
        });
    }
}
