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
//! a batch request is outstanding, resuming when the response arrives or the
//! request times out (in which case the hash-batch is skipped, exactly like
//! the pseudocode's `continue`). This keeps epoch numbering identical on all
//! correct servers.
//!
//! Up to n servers append a hash-batch for the same hash, but a batch's
//! contents are applied once per server, at the first copy: its epoch-proofs
//! are ingested and its elements admitted there. Later copies only count
//! their signer towards `f + 1` (see `Hashchain::handle_hash_batch`).
//!
//! The "Hashchain light" ablation of Fig. 2 (left) disables hash reversal and
//! hash-batch validation (all servers assumed correct); batch availability is
//! then modelled by a [`SharedBatchRegistry`] standing in for out-of-band
//! data dissemination.
//!
//! `Hashchain` holds what only this algorithm needs — the collector, the
//! batch registry, the ledger-order queue and the request bookkeeping — and
//! the steps that differ from the other two; the add/get front door that
//! drives it lives in [`crate::app`].

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use setchain_crypto::{Digest256, Digest512, ProcessId, Sha512};
use setchain_ledger::{Block, TxData};
use setchain_simnet::{SimDuration, SimTime, TimerToken};

use crate::byzantine::ServerByzMode;
use crate::collector::{Batch, Collector};
use crate::config::SetchainConfig;
use crate::element::Element;
use crate::messages::SetchainMsg;
use crate::proofs::{epoch_root, EpochProof};
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

/// Canonical hash of a batch: `SHA-512(domain ‖ count ‖ root ‖ proofs)`,
/// where `root` is [`epoch_root`] of the elements — the chunked SHA-256
/// Merkle root over their packed identities in ascending-id order. Only the
/// fixed-size header goes through SHA-512; no element byte does.
///
/// Like an epoch, a batch is committed to as a set: reordering elements of
/// distinct ids keeps the hash, while any field of any element, the
/// multiplicity of an element, the order of same-id twins and every proof
/// byte move it. Because the root is the one the epoch digest is built
/// from, a batch that becomes an epoch whole is hashed once (see
/// [`ServerCore::create_epoch`]). CPU cost is charged separately against the
/// full batch wire size, so hashing the compact representation here does not
/// distort the performance model.
pub fn batch_hash(elements: &[Element], proofs: &[EpochProof]) -> Digest512 {
    hash_and_root(elements, proofs).0
}

/// [`batch_hash`] together with the root it commits to.
fn hash_and_root(elements: &[Element], proofs: &[EpochProof]) -> (Digest512, Digest256) {
    let root = epoch_root(elements);
    let mut h = Sha512::new();
    h.update(b"setchain-batch");
    h.update(&(elements.len() as u64).to_le_bytes());
    h.update(root.as_bytes());
    h.update(&(proofs.len() as u64).to_le_bytes());
    let mut packed = [0u8; 16];
    for p in proofs {
        packed[..8].copy_from_slice(&p.epoch.to_le_bytes());
        packed[8..16].copy_from_slice(&p.signer.0.to_le_bytes());
        h.update(&packed);
        h.update(&p.signature.bytes);
    }
    (h.finalize(), root)
}

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

/// Batch contents this server knows, with the root its hash committed to
/// when this server computed that hash itself (flushed, or verified a
/// response or push); `None` for contents taken on trust from the light
/// ablation's shared registry.
///
/// `batch` is the flushing server's allocation: a response or push carries
/// that `Arc`, and the receiver keeps it once it hashes right, so a run holds
/// one copy of each batch however many servers know it.
///
/// `applied` is set once a hash-batch copy of this hash has ingested the
/// batch's epoch-proofs and admitted its elements with final verdicts; later
/// copies skip both (see [`Hashchain::handle_hash_batch`]).
#[derive(Clone)]
struct KnownBatch {
    batch: Arc<Batch>,
    root: Option<Digest256>,
    applied: bool,
}

/// An outstanding `Request_batch`.
#[derive(Debug)]
struct PendingRequest {
    hash: Digest512,
    asked: Vec<ProcessId>,
    deadline: SimTime,
}

/// Hashchain's per-server state.
pub(crate) struct Hashchain {
    pub(crate) collector: Collector,
    /// `hash_to_batch`: batches whose contents this server knows, keyed by
    /// the hash they were checked against. Each entry shares the origin's
    /// `Arc` (see [`KnownBatch`]); queue processing, serving a request and
    /// pushing all hand out refcount bumps, never a copy of the contents.
    hash_to_batch: HashMap<Digest512, KnownBatch>,
    /// `hash_to_signers`: servers whose hash-batches for a hash have been
    /// observed on the ledger. Ordered, because `fail_request` picks its
    /// next target out of it and the pick must repeat across runs.
    hash_to_signers: HashMap<Digest512, BTreeSet<ProcessId>>,
    /// Hashes this server has already signed and appended a hash-batch for.
    my_signed: HashSet<Digest512>,
    /// Hashes that have already been consolidated into an epoch.
    consolidated: HashSet<Digest512>,
    /// Hash-batches from finalized blocks awaiting processing, in ledger
    /// order.
    block_queue: VecDeque<HashBatch>,
    /// Outstanding batch request for the queue head, if any (pauses queue
    /// processing until the response arrives or the request times out).
    waiting: Option<PendingRequest>,
    /// Hashes for which a prefetch request has already been sent, with the
    /// time it was sent. Prefetching overlaps the request round trips of all
    /// unknown batches in a block instead of serialising them, which matters
    /// under WAN latency (Fig. 3c); consolidation still happens strictly in
    /// ledger order through `block_queue`.
    prefetched: HashMap<Digest512, SimTime>,
    /// Light-mode data availability.
    shared_registry: Option<SharedBatchRegistry>,
}

impl Hashchain {
    /// `shared` is the out-of-band batch availability of the "Hashchain
    /// light" ablation; `None` runs the full protocol with hash reversal.
    pub(crate) fn new(config: &SetchainConfig, shared: Option<SharedBatchRegistry>) -> Self {
        Hashchain {
            collector: Collector::new(config.collector_limit),
            hash_to_batch: HashMap::new(),
            hash_to_signers: HashMap::new(),
            my_signed: HashSet::new(),
            consolidated: HashSet::new(),
            block_queue: VecDeque::new(),
            waiting: None,
            prefetched: HashMap::new(),
            shared_registry: shared,
        }
    }

    /// Number of batches whose contents this server knows.
    pub(crate) fn known_batches(&self) -> usize {
        self.hash_to_batch.len()
    }

    /// An admitted element joins the batch under construction.
    pub(crate) fn collect(
        &mut self,
        core: &mut ServerCore,
        element: Element,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        self.collector.add_element(element);
        self.maybe_flush(core, ctx);
    }

    fn maybe_flush(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        if self.collector.is_ready() {
            self.flush(core, ctx);
        }
    }

    /// `upon isReady(batch)`: hash the batch, register it, and append the
    /// signed hash-batch to the ledger.
    pub(crate) fn flush(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        let batch = self.collector.flush(ctx.now());
        let (hash, root) = hash_and_root(&batch.elements, &batch.proofs);
        ctx.consume_cpu(core.config.costs.hash_cost(batch.wire_size()));
        // Register_batch(h, batch): keep the contents so other servers can
        // request them. The registry shares the same `Arc` — no copy.
        let batch = Arc::new(batch);
        if let Some(shared) = &self.shared_registry {
            shared.register(hash, Arc::clone(&batch));
        }
        self.remember(hash, Arc::clone(&batch), root);
        ctx.consume_cpu(core.config.costs.sign);
        let hb = core.make_hash_batch(hash);
        self.my_signed.insert(hash);
        core.stats.batches_flushed += 1;
        let tx = SetchainTx::HashBatch(hb);
        let tx_id = tx.tx_id();
        for e in &batch.elements {
            core.trace.record_tx_assignment(e.id, tx_id);
        }
        ctx.append(tx);
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

    /// Looks up the batch contents for `hash`, consulting the shared registry
    /// in light mode. The returned batch shares its `Arc`: a refcount bump,
    /// not a copy of the contents.
    fn lookup_batch(&mut self, hash: &Digest512) -> Option<KnownBatch> {
        if let Some(known) = self.hash_to_batch.get(hash) {
            return Some(known.clone());
        }
        let batch = self.shared_registry.as_ref()?.get(hash)?;
        let known = KnownBatch {
            batch,
            root: None,
            applied: false,
        };
        self.hash_to_batch.insert(*hash, known.clone());
        Some(known)
    }

    /// Processes queued hash-batches in ledger order, pausing when a batch
    /// request is outstanding.
    fn process_queue(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        loop {
            if self.waiting.is_some() {
                return;
            }
            let Some(hb) = self.block_queue.front().copied() else {
                return;
            };
            if let Some(batch) = self.lookup_batch(&hb.hash) {
                self.block_queue.pop_front();
                self.handle_hash_batch(core, hb, Some(batch), ctx);
                continue;
            }
            if core.config.light {
                // Light mode without contents anywhere: count the signer but
                // consolidate an empty epoch.
                self.block_queue.pop_front();
                self.handle_hash_batch(core, hb, None, ctx);
                continue;
            }
            // Request_batch(h) from the signer of the hash-batch — unless a
            // prefetch for it is already in flight, in which case we only
            // wait for it. The prefetch gets a bounded total wait of two
            // request timeouts counted from the time it was *sent* (not from
            // the time its hash-batch reached the queue head): under a signer
            // that never answers — a server refusing batch service — the
            // stalls for all hash-batches prefetched together then overlap
            // instead of serialising, while a merely slow-but-correct signer
            // still gets the same patience the direct-request path grants.
            if let Some(&sent_at) = self.prefetched.get(&hb.hash) {
                let deadline = sent_at + REQUEST_TIMEOUT + REQUEST_TIMEOUT;
                if ctx.now() < deadline {
                    self.waiting = Some(PendingRequest {
                        hash: hb.hash,
                        asked: vec![hb.signer],
                        deadline,
                    });
                    ctx.set_app_timer(deadline - ctx.now(), REQUEST_TICK);
                    return;
                }
                // The prefetch has been outstanding for the full allowance:
                // treat it as a failed request so we fall back to another
                // signer or skip the hash-batch (the pseudocode's `continue`)
                // instead of stalling the queue on the same unresponsive
                // server again.
                self.prefetched.remove(&hb.hash);
                self.waiting = Some(PendingRequest {
                    hash: hb.hash,
                    asked: vec![hb.signer],
                    deadline: ctx.now(),
                });
                self.fail_request(core, ctx);
                return;
            }
            self.send_request(core, hb.hash, hb.signer, ctx);
            return;
        }
    }

    /// Sends a prefetch request for a hash whose contents are unknown, so the
    /// round trip overlaps with the processing of earlier queue entries.
    fn prefetch(
        &mut self,
        core: &mut ServerCore,
        hash: Digest512,
        signer: ProcessId,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        if self.hash_to_batch.contains_key(&hash)
            || self.prefetched.contains_key(&hash)
            || signer == core.id()
        {
            return;
        }
        core.stats.batch_requests_sent += 1;
        ctx.send_app(signer, SetchainMsg::RequestBatch { hash });
        self.prefetched.insert(hash, ctx.now());
    }

    fn send_request(
        &mut self,
        core: &mut ServerCore,
        hash: Digest512,
        to: ProcessId,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        core.stats.batch_requests_sent += 1;
        ctx.send_app(to, SetchainMsg::RequestBatch { hash });
        self.prefetched.insert(hash, ctx.now());
        let deadline = ctx.now() + REQUEST_TIMEOUT;
        let asked = match &mut self.waiting {
            Some(pending) if pending.hash == hash => {
                pending.asked.push(to);
                pending.deadline = deadline;
                ctx.set_app_timer(REQUEST_TIMEOUT, REQUEST_TICK);
                return;
            }
            _ => vec![to],
        };
        self.waiting = Some(PendingRequest {
            hash,
            asked,
            deadline,
        });
        ctx.set_app_timer(REQUEST_TIMEOUT, REQUEST_TICK);
    }

    /// Gives up on the current request (timeout or bad response): either
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
        let Some(mut pending) = self.waiting.take() else {
            return;
        };
        let hash = pending.hash;
        self.prefetched.remove(&hash);
        let head = self
            .block_queue
            .front()
            .copied()
            .filter(|hb| hb.hash == hash);
        // The head copy's signer counts now, even if the copy is skipped.
        let completes = match head {
            Some(hb) => {
                let signers = self.hash_to_signers.entry(hash).or_default();
                signers.insert(hb.signer);
                signers.len() >= core.config.proof_quorum()
            }
            None => false,
        };
        if pending.asked.len() < MAX_REQUEST_RETRIES || completes {
            let mut next = self.next_to_ask(hash, &pending.asked, core.id());
            if next.is_none() && completes {
                // Every signer was asked this round: start the next one.
                pending.asked.clear();
                next = self.next_to_ask(hash, &pending.asked, core.id());
            }
            if let Some(next) = next {
                self.waiting = Some(pending);
                self.send_request(core, hash, next, ctx);
                return;
            }
        }
        // Give up: skip the hash-batch at the head of the queue.
        core.stats.batch_requests_failed += 1;
        if head.is_some() {
            self.block_queue.pop_front();
        }
        self.process_queue(core, ctx);
    }

    /// The first server not in `asked` to ask for `hash`: other observed
    /// signers of this hash in id order (they all claim to have the batch),
    /// then the signers still queued, in ledger order.
    fn next_to_ask(
        &self,
        hash: Digest512,
        asked: &[ProcessId],
        me: ProcessId,
    ) -> Option<ProcessId> {
        self.hash_to_signers
            .get(&hash)
            .into_iter()
            .flatten()
            .copied()
            .chain(
                self.block_queue
                    .iter()
                    .filter(|hb| hb.hash == hash)
                    .map(|hb| hb.signer),
            )
            .find(|c| !asked.contains(c) && *c != me)
    }

    /// A restart fenced off the request timer armed before the crash: arm
    /// it again, so an outstanding request cannot pause the queue forever.
    pub(crate) fn on_restart(&self, ctx: &mut Ctx<'_, '_, '_>) {
        if let Some(pending) = &self.waiting {
            ctx.set_app_timer(pending.deadline - ctx.now(), REQUEST_TICK);
        }
    }

    /// Processes one hash-batch whose position in the ledger order has been
    /// reached. `known` is `None` only in light mode when contents are
    /// unavailable.
    ///
    /// A batch's contents are applied once per server, at the first copy of
    /// its hash this server processes: its epoch-proofs are ingested and its
    /// elements admitted there, and the entry is marked `applied`. Both steps
    /// are idempotent for the same bytes, so the up-to-n later copies skip
    /// them — except after a proof naming an epoch not derived here yet,
    /// whose verdict can still change: the entry then stays unapplied and
    /// the next copy applies the batch again. Every copy still counts its
    /// signer (its `valid_hash` was checked in [`Self::finalize_block`]),
    /// counter-signs if this server has not, and consolidates at `f + 1`.
    fn handle_hash_batch(
        &mut self,
        core: &mut ServerCore,
        hb: HashBatch,
        known: Option<KnownBatch>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        let now = ctx.now();
        let hash = hb.hash;
        let validate = !core.config.light;

        if let Some(KnownBatch { batch, applied, .. }) = &known {
            // If we had to recover the batch (we are not its origin and have
            // not signed it yet), sign the hash and append our own hash-batch
            // so the f+1 consolidation quorum can form.
            if !self.my_signed.contains(&hash) {
                ctx.consume_cpu(core.config.costs.sign);
                let own = core.make_hash_batch(hash);
                self.my_signed.insert(hash);
                ctx.append(SetchainTx::HashBatch(own));
            }
            if !applied {
                // Valid epoch-proofs of the batch. Every proof is ingested,
                // even after one whose epoch is not derived yet.
                let mut settled = true;
                for p in &batch.proofs {
                    settled &= core.ingest_proof(*p, now, ctx);
                }
                // Valid elements join the_set immediately (they join history
                // only at consolidation); no candidate vector is
                // materialized here.
                core.admit_batch_elements(&batch.elements, validate, ctx);
                if let Some(entry) = self.hash_to_batch.get_mut(&hash) {
                    entry.applied = settled;
                }
            }
        }

        // Track the signer and consolidate at f + 1.
        let signers = self.hash_to_signers.entry(hash).or_default();
        signers.insert(hb.signer);
        let enough = signers.len() >= core.config.proof_quorum();
        if enough && !self.consolidated.contains(&hash) {
            self.consolidated.insert(hash);
            let (elements, shared, root) = match &known {
                Some(known) => (
                    known.batch.elements.as_slice(),
                    Some(&known.batch),
                    known.root,
                ),
                None => (&[][..], None, None),
            };
            let proof = core.create_epoch(elements, shared, root, validate, now, ctx);
            self.collector.add_proof(proof);
            self.maybe_flush(core, ctx);
        }
    }

    /// ABCI `CheckTx`: only hash-batches signed by a server of this
    /// deployment enter the mempool.
    pub(crate) fn check_tx(config: &SetchainConfig, tx: &SetchainTx) -> bool {
        matches!(tx, SetchainTx::HashBatch(hb) if config.is_server(hb.signer))
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
                // valid_hash(h, s_w, w)
                ctx.consume_cpu(core.config.costs.verify_signature);
                if !core.hash_batch_valid(hb) {
                    continue;
                }
                // Start recovering unknown batch contents right away so the
                // round trips overlap instead of serialising per hash-batch.
                self.prefetch(core, hb.hash, hb.signer, ctx);
            }
            self.block_queue.push_back(*hb);
        }
        self.process_queue(core, ctx);
    }

    /// True if the queue head is paused on a request for `hash`.
    fn head_waits_for(&self, hash: &Digest512) -> bool {
        self.waiting.as_ref().is_some_and(|p| p.hash == *hash)
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
                if let Some(KnownBatch { batch, .. }) = self.hash_to_batch.get(&hash) {
                    core.stats.batch_requests_served += 1;
                    let batch = Arc::clone(batch);
                    ctx.send_app(from, SetchainMsg::BatchResponse { hash, batch });
                }
            }
            SetchainMsg::BatchResponse { hash, batch } => {
                let head_waiting = self.head_waits_for(&hash);
                let expected = head_waiting || self.prefetched.contains_key(&hash);
                if !expected || self.hash_to_batch.contains_key(&hash) {
                    return;
                }
                // Shared contents are checked exactly like owned ones: hashed
                // and charged in full before the `Arc` is kept.
                ctx.consume_cpu(core.config.costs.hash_cost(batch.wire_size()));
                let (got, root) = hash_and_root(&batch.elements, &batch.proofs);
                if got == hash {
                    self.remember(hash, batch, root);
                    self.prefetched.remove(&hash);
                    if head_waiting {
                        self.waiting = None;
                        self.process_queue(core, ctx);
                    }
                } else if head_waiting {
                    // The signer is lying about the contents: retry elsewhere.
                    self.fail_request(core, ctx);
                } else {
                    // A bad prefetch answer: forget it so the head-of-queue
                    // path can re-request from another signer later.
                    self.prefetched.remove(&hash);
                }
            }
            SetchainMsg::PushBatch { hash, batch } => {
                // Push-based dissemination: only another server of this
                // deployment pushes, and only with push on. The contents are
                // accepted only if they really hash to the claimed value (a
                // Byzantine pusher cannot plant wrong contents for a hash).
                let pusher = core.config.is_server(from) && from != core.id();
                if !core.config.push_batches || !pusher || self.hash_to_batch.contains_key(&hash) {
                    return;
                }
                ctx.consume_cpu(core.config.costs.hash_cost(batch.wire_size()));
                let (got, root) = hash_and_root(&batch.elements, &batch.proofs);
                if got != hash {
                    return;
                }
                self.remember(hash, batch, root);
                self.prefetched.remove(&hash);
                if self.head_waits_for(&hash) {
                    self.waiting = None;
                    self.process_queue(core, ctx);
                }
            }
            _ => {}
        }
    }

    /// Keeps batch contents this server hashed itself — flushed, or
    /// verified against `hash` — with the root that hash committed to.
    fn remember(&mut self, hash: Digest512, batch: Arc<Batch>, root: Digest256) {
        let known = KnownBatch {
            batch,
            root: Some(root),
            applied: false,
        };
        self.hash_to_batch.insert(hash, known);
    }

    /// The request timer fired: give up on the outstanding request if its
    /// deadline has passed (a superseded timer finds a later deadline).
    pub(crate) fn on_request_tick(&mut self, core: &mut ServerCore, ctx: &mut Ctx<'_, '_, '_>) {
        let expired = self
            .waiting
            .as_ref()
            .is_some_and(|p| ctx.now() >= p.deadline);
        if expired {
            self.fail_request(core, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SetchainServer;
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
        shared.register(
            hash,
            Batch {
                elements: es.clone(),
                proofs: vec![],
            },
        );
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.get(&hash).unwrap().elements.len(), 4);
        // Re-registering under the same hash does not overwrite.
        shared.register(
            hash,
            Batch {
                elements: vec![],
                proofs: vec![],
            },
        );
        assert_eq!(shared.get(&hash).unwrap().elements.len(), 4);
        assert!(shared.get(&batch_hash(&es[..2], &[])).is_none());
        // Clones share the same storage.
        let alias = shared.clone();
        assert_eq!(alias.len(), 1);
    }

    #[test]
    fn a_shared_batch_that_hashes_wrong_is_dropped_and_fails_the_request() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = Hashchain::new(&core.config, None);
            let honest = Arc::new(Batch {
                elements: elements(registry, 0..10),
                proofs: vec![],
            });
            let hash = batch_hash(&honest.elements, &honest.proofs);
            // Servers 1 and 2 both put `hash` on the ledger; the queue head
            // waits on server 1.
            let [s1, s2] = [1, 2].map(ProcessId::server);
            for s in [s1, s2] {
                let keys = registry.lookup(s).unwrap();
                h.block_queue.push_back(HashBatch::new(&keys, hash));
            }
            h.waiting = Some(PendingRequest {
                hash,
                asked: vec![s1],
                deadline: ctx.now() + REQUEST_TIMEOUT,
            });

            // Server 1 answers with contents that miss one element.
            let lie = Arc::new(Batch {
                elements: elements(registry, 0..9),
                proofs: vec![],
            });
            let batch = Arc::clone(&lie);
            h.on_batch_message(core, s1, SetchainMsg::BatchResponse { hash, batch }, ctx);
            assert!(!h.hash_to_batch.contains_key(&hash), "a lie is not kept");
            assert_eq!(Arc::strong_count(&lie), 1, "nothing holds the lie");
            // `fail_request` moved on to the other signer.
            assert_eq!(h.waiting.as_ref().unwrap().asked, vec![s1, s2]);
            assert_eq!(core.stats.batch_requests_sent, 1);
            assert_eq!(core.stats.batch_requests_failed, 0);

            // Server 2's honest answer is kept as the very allocation sent,
            // and the queue drains into an epoch.
            let batch = Arc::clone(&honest);
            h.on_batch_message(core, s2, SetchainMsg::BatchResponse { hash, batch }, ctx);
            assert!(Arc::ptr_eq(&h.hash_to_batch[&hash].batch, &honest));
            assert!(h.waiting.is_none() && h.block_queue.is_empty());
            assert_eq!(core.state.epoch(), 1);

            // With no signer left to ask, a lie skips the hash-batch.
            let hash = batch_hash(&elements(registry, 20..30), &[]);
            let keys = registry.lookup(s1).unwrap();
            h.block_queue.push_back(HashBatch::new(&keys, hash));
            h.waiting = Some(PendingRequest {
                hash,
                asked: vec![s1],
                deadline: ctx.now() + REQUEST_TIMEOUT,
            });
            let batch = Arc::clone(&lie);
            h.on_batch_message(core, s1, SetchainMsg::BatchResponse { hash, batch }, ctx);
            assert!(!h.hash_to_batch.contains_key(&hash));
            assert_eq!(core.stats.batch_requests_failed, 1);
            assert!(h.waiting.is_none() && h.block_queue.is_empty());
            assert_eq!(core.state.epoch(), 1);
        });
    }

    #[test]
    fn a_push_is_kept_only_from_another_server_with_push_on() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let mut h = Hashchain::new(&core.config, None);
            let batch = Arc::new(Batch {
                elements: elements(registry, 0..100),
                proofs: vec![],
            });
            let hash = batch_hash(&batch.elements, &batch.proofs);
            let push = |h: &mut Hashchain, core: &mut ServerCore, from, ctx: &mut Ctx| {
                let before = ctx.cpu_consumed();
                let msg = SetchainMsg::PushBatch {
                    hash,
                    batch: Arc::clone(&batch),
                };
                h.on_batch_message(core, from, msg, ctx);
                (
                    h.hash_to_batch.contains_key(&hash),
                    ctx.cpu_consumed() - before,
                )
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
            let mut h = Hashchain::new(&core.config, None);
            let batch = Arc::new(Batch {
                elements: elements(registry, 0..10),
                proofs: vec![],
            });
            let hash = batch_hash(&batch.elements, &batch.proofs);
            let [s1, s2, s3] = [1, 2, 3].map(ProcessId::server);
            for s in [s1, s2] {
                let keys = registry.lookup(s).unwrap();
                h.block_queue.push_back(HashBatch::new(&keys, hash));
            }
            // Server 1's copy has run out of signers to ask: it is skipped,
            // but its signer counts.
            h.waiting = Some(PendingRequest {
                hash,
                asked: vec![s1, s2, s3],
                deadline: ctx.now(),
            });
            h.fail_request(core, ctx);
            assert_eq!(core.stats.batch_requests_failed, 1);
            assert_eq!(h.hash_to_signers[&hash], BTreeSet::from([s1]));
            assert_eq!(h.waiting.as_ref().unwrap().asked, vec![s2]);

            // Server 2's copy brings the hash to f + 1 = 2 signers, so its
            // signers are asked round after round and it is never skipped.
            for _ in 0..2 * MAX_REQUEST_RETRIES {
                h.fail_request(core, ctx);
            }
            assert_eq!(core.stats.batch_requests_failed, 1);
            assert_eq!(h.block_queue.len(), 1);
            let asked = &h.waiting.as_ref().unwrap().asked;
            assert!(asked.len() <= 2 && asked.iter().all(|s| [s1, s2].contains(s)));

            // The answer consolidates the hash at this copy, as on a server
            // that fetched the batch at the first one.
            let answer = SetchainMsg::BatchResponse { hash, batch };
            h.on_batch_message(core, s2, answer, ctx);
            assert!(h.waiting.is_none() && h.block_queue.is_empty());
            assert_eq!(core.state.epoch(), 1);
            assert_eq!(core.state.epoch_elements(1).unwrap().len(), 10);
        });
    }

    /// Keeps `batch` as known contents and returns its hash.
    fn know(h: &mut Hashchain, batch: Batch) -> Digest512 {
        let (hash, root) = hash_and_root(&batch.elements, &batch.proofs);
        h.remember(hash, Arc::new(batch), root);
        hash
    }

    /// Processes server `signer`'s hash-batch copy of the known `hash` and
    /// returns the simulated CPU it charged.
    fn process_copy(
        h: &mut Hashchain,
        core: &mut ServerCore,
        registry: &KeyRegistry,
        signer: usize,
        hash: Digest512,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> SimDuration {
        let keys = registry.lookup(ProcessId::server(signer)).unwrap();
        let before = ctx.cpu_consumed();
        let known = h.lookup_batch(&hash);
        assert!(known.is_some(), "contents are known");
        h.handle_hash_batch(core, HashBatch::new(&keys, hash), known, ctx);
        ctx.cpu_consumed() - before
    }

    #[test]
    fn a_known_batch_is_applied_once_however_many_copies_arrive() {
        crate::server::tests::with_core(0, |core, registry, ctx| {
            let costs = core.config.costs;
            let mut h = Hashchain::new(&core.config, None);
            // Epoch 1 first, so that there is an epoch to carry proofs for.
            let b = know(
                &mut h,
                Batch {
                    elements: elements(registry, 0..10),
                    proofs: vec![],
                },
            );
            for signer in [1, 2] {
                process_copy(&mut h, core, registry, signer, b, ctx);
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
            let a = know(
                &mut h,
                Batch {
                    elements: batch_elements,
                    proofs,
                },
            );

            // The first copy counter-signs, verifies both proofs and
            // validates the elements: eleven cache misses.
            let first = process_copy(&mut h, core, registry, 1, a, ctx);
            let apply = costs.verify_signature * 2 + costs.validate_cost(count);
            assert_eq!(first, costs.sign + apply);
            assert_eq!(core.stats.proofs_received, 2);
            assert_eq!(core.stats.elements_rejected, 1);
            assert!(core.state.contains(&ElementId::new(0, 100)));
            assert_eq!(core.state.epoch(), 1, "one signer is not a quorum");

            // The second copy charges only the consolidation: f + 1 = 2
            // signers make epoch 2 out of the ten valid elements. Every
            // verdict is a cache hit, so no validation is charged.
            let second = process_copy(&mut h, core, registry, 2, a, ctx);
            let stamped = core.state.epoch_elements(2).unwrap();
            assert_eq!(stamped.len(), 10);
            let bytes = stamped.iter().map(|e| e.wire_size()).sum();
            let consolidate = costs.hash_cost(bytes) + costs.sign;
            assert_eq!(second, consolidate);
            assert_eq!(h.hash_to_signers[&a].len(), 2);
            assert_eq!(core.stats.proofs_received, 2);
            // The epoch's own filter counts the forgery once more.
            assert_eq!(core.stats.elements_rejected, 2);

            // A third copy only adds its signer.
            let third = process_copy(&mut h, core, registry, 3, a, ctx);
            assert_eq!(third, SimDuration::ZERO);
            assert_eq!(h.hash_to_signers[&a].len(), 3);
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
            let costs = core.config.costs;
            let mut h = Hashchain::new(&core.config, None);
            // Batch `b` will become epoch 1; batch `a` carries server 2's
            // proof for that epoch and reaches the queue head first.
            let b = elements(registry, 0..10);
            let digest = crate::proofs::epoch_hash(1, &b);
            let keys = registry.lookup(ProcessId::server(2)).unwrap();
            let ahead = make_epoch_proof_for_digest(&keys, 1, &digest);
            let a = know(
                &mut h,
                Batch {
                    elements: elements(registry, 10..20),
                    proofs: vec![ahead],
                },
            );
            let b = know(
                &mut h,
                Batch {
                    elements: b,
                    proofs: vec![],
                },
            );

            // Epoch 1 does not exist yet: the proof is rejected, catch-up is
            // asked for, and `a` stays unapplied.
            process_copy(&mut h, core, registry, 1, a, ctx);
            assert_eq!(core.stats.proofs_rejected, 1);
            assert_eq!(core.stats.catchup_requests, 1);
            assert!(!h.hash_to_batch[&a].applied);

            // `b` consolidates into epoch 1.
            process_copy(&mut h, core, registry, 1, b, ctx);
            process_copy(&mut h, core, registry, 2, b, ctx);
            assert_eq!(core.state.epoch_digest(1), Some(&digest));

            // The next copy of `a` applies it again: the proof verifies now,
            // and `a` consolidates into epoch 2. Its elements were checked
            // at the first copy, so every verdict is a cache hit.
            let retry = process_copy(&mut h, core, registry, 3, a, ctx);
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(core.state.proof_count(1), 1);
            assert!(h.hash_to_batch[&a].applied);
            assert_eq!(core.state.epoch(), 2, "a consolidated at f + 1");
            let bytes = core
                .state
                .epoch_elements(2)
                .unwrap()
                .iter()
                .map(|e| e.wire_size())
                .sum();
            assert_eq!(
                retry,
                costs.verify_signature + costs.hash_cost(bytes) + costs.sign
            );

            // After that, copies ingest nothing.
            let last = process_copy(&mut h, core, registry, 2, a, ctx);
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
            for (hash, known) in &server.hash_to_batch {
                let seen = *first.entry(*hash).or_insert(&known.batch);
                assert!(
                    Arc::ptr_eq(&known.batch, seen),
                    "server {i} holds its own copy of a batch"
                );
            }
        }
        let known_everywhere = first
            .keys()
            .filter(|h| servers.iter().all(|s| s.hash_to_batch.contains_key(h)))
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
