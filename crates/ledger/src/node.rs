//! The ledger node: mempool, gossip, Tendermint-style consensus and the
//! ABCI application driver, all in one simulated process.
//!
//! # Consensus
//!
//! A simplified Tendermint: for each height the proposer (round-robin over
//! the validator set) reaps transactions from its mempool and broadcasts a
//! proposal; validators prevote for the first valid proposal they see for the
//! round, precommit once they observe a 2f+1 prevote quorum, and commit once
//! they observe a 2f+1 precommit quorum. A round timeout advances the round
//! (new proposer) when a proposer is silent. Precommit signatures double as a
//! commit certificate used by catch-up block sync, so a node that missed the
//! consensus exchange can still obtain and verify committed blocks
//! (Property 9, Ledger-Add-Eventual-Notify). The full Tendermint
//! locking/unlocking rules are *not* implemented; the simplification is safe
//! for the fault scenarios exercised here (silent validators, proposer
//! equivocation in the proposal phase, vote withholding) and is called out in
//! DESIGN.md.
//!
//! # Timing
//!
//! After committing height `h` at time `t`, every validator arms a timer for
//! `t + block_interval` and the next proposer proposes when it fires. With
//! the default 1.25 s interval this yields the paper's ~0.8 blocks/s.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use setchain_crypto::{
    sign_with, verify_batch, HmacSha512Key, KeyPair, KeyRegistry, ProcessId, SigVerifier, Signature,
};
use setchain_simnet::{Context, Process, SimDuration, TimerToken};

use crate::app::{AppCtx, Application};
use crate::byzantine::ByzMode;
use crate::mempool::Mempool;
use crate::messages::{
    certificate_sign_bytes, proposal_sign_bytes, vote_sign_bytes, NetMsg, VoteKind,
};
use crate::trace::{BlockSummary, LedgerTrace};
use crate::types::{Block, BlockId, LedgerConfig, TxData, TxId};

/// Application timers are namespaced above this bit so they never collide
/// with the node's internal timers.
pub const APP_TIMER_BASE: u64 = 1 << 63;

const TIMER_KIND_SHIFT: u64 = 56;
const TIMER_GOSSIP: u64 = 1 << TIMER_KIND_SHIFT;
const TIMER_START_HEIGHT: u64 = 2 << TIMER_KIND_SHIFT;
const TIMER_ROUND_TIMEOUT: u64 = 3 << TIMER_KIND_SHIFT;
const TIMER_PAYLOAD_MASK: u64 = (1 << TIMER_KIND_SHIFT) - 1;

/// Counters exposed for experiment reports and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Blocks this node has committed.
    pub blocks_committed: u64,
    /// Transactions this node has committed (including empty blocks).
    pub txs_committed: u64,
    /// Transactions rejected by the application's `check_tx`.
    pub txs_rejected: u64,
    /// Transactions the mempool refused because their id was already pending
    /// or committed.
    pub mempool_rejected_duplicate: u64,
    /// Transactions shed because the mempool held `mempool_max_txs` entries.
    /// Reject-newest: the arriving transaction is dropped, queued ones stay.
    pub mempool_rejected_full_count: u64,
    /// Transactions shed because the mempool held `mempool_max_bytes` bytes.
    pub mempool_rejected_full_bytes: u64,
    /// Proposals this node created.
    pub proposals_made: u64,
    /// Round timeouts experienced.
    pub round_timeouts: u64,
    /// Block-sync responses applied.
    pub synced_blocks: u64,
    /// Future-height consensus messages buffered for replay (nonzero only
    /// when this node fell behind and caught back up in time to vote).
    pub future_buffered: u64,
}

impl NodeStats {
    /// Total transactions the mempool refused, across all causes. Every
    /// shed transaction is attributed to exactly one of the per-cause
    /// counters; nothing is dropped silently.
    pub fn mempool_rejected(&self) -> u64 {
        self.mempool_rejected_duplicate
            + self.mempool_rejected_full_count
            + self.mempool_rejected_full_bytes
    }
}

/// How many heights ahead of our own a proposal or vote may be and still be
/// buffered for replay. One height is enough to re-enter consensus after a
/// catch-up; a few more absorb commit jitter while we sync.
const MAX_FUTURE_HEIGHTS: u64 = 4;

type M<A> = NetMsg<<A as Application>::Tx, <A as Application>::Msg>;

/// A ledger validator node running an [`Application`].
pub struct LedgerNode<A: Application> {
    id: ProcessId,
    config: LedgerConfig,
    registry: KeyRegistry,
    byz: ByzMode,
    app: A,
    trace: LedgerTrace,

    mempool: Mempool<A::Tx>,
    pending_gossip: Vec<A::Tx>,
    /// Validator ids of this deployment, resolved once from the config.
    validators: Vec<ProcessId>,
    /// `validators` minus this node, resolved once (the broadcast fan-out
    /// set; rebuilding it per broadcast allocated on every vote).
    peers: Vec<ProcessId>,
    /// Reused buffer for transactions submitted during an application
    /// callback (see `with_app`).
    submitted_scratch: Vec<A::Tx>,
    /// Reused buffer for the application messages of one coalesced
    /// delivery batch (see `Process::on_messages`).
    app_batch: Vec<(ProcessId, A::Msg)>,
    /// This node's own HMAC key schedule, so signing a vote/proposal does
    /// not rebuild the key pads per signature.
    own_key: HmacSha512Key,
    /// Per-signer verification schedules for votes and proposals.
    verifier: SigVerifier,

    // Consensus state for the current height.
    height: u64,
    round: u32,
    /// First proposal block id seen per (height, round) — prevents double
    /// prevotes under equivocation.
    first_proposal: HashMap<(u64, u32), BlockId>,
    /// Proposed blocks by (height, block id), kept until the height commits.
    proposal_store: HashMap<(u64, BlockId), Block<A::Tx>>,
    /// Voters per candidate. Ordered sets: `try_commit` picks a
    /// block-sync peer out of one, and the pick must not depend on a
    /// per-process hash seed.
    prevotes: HashMap<(u64, u32, BlockId), BTreeSet<ProcessId>>,
    precommits: HashMap<(u64, BlockId), BTreeSet<ProcessId>>,
    precommit_sigs: HashMap<(u64, BlockId), Vec<Signature>>,
    voted_prevote: HashSet<(u64, u32)>,
    voted_precommit: HashSet<u64>,

    /// Committed blocks with their commit certificates, by height.
    committed: BTreeMap<u64, (Block<A::Tx>, Vec<Signature>)>,
    /// Highest height seen referenced by any peer (used to trigger sync).
    max_seen_height: u64,
    /// Proposals and votes for heights we have not reached yet, replayed
    /// when their height starts. Without this buffer a node that fell
    /// behind (partition heal, restart) can never rejoin voting: by the
    /// time block sync delivers height `h`, the messages for `h + 1` have
    /// already flown past, so it trails the cluster through sync forever.
    /// Bounded to [`MAX_FUTURE_HEIGHTS`] heights and a per-height cap;
    /// entries are verified by the normal handlers on replay.
    future_msgs: BTreeMap<u64, Vec<(ProcessId, M<A>)>>,

    stats: NodeStats,
}

impl<A: Application> LedgerNode<A> {
    /// Creates a node.
    ///
    /// `keys` must be registered in `registry`; every validator of the run
    /// shares the same `registry` and `trace`.
    pub fn new(
        id: ProcessId,
        config: LedgerConfig,
        keys: KeyPair,
        registry: KeyRegistry,
        app: A,
        trace: LedgerTrace,
        byz: ByzMode,
    ) -> Self {
        assert_eq!(keys.id, id, "key pair does not belong to this node");
        let mempool = Mempool::new(config.mempool_max_txs, config.mempool_max_bytes);
        let validators = config.validator_ids();
        let peers: Vec<ProcessId> = validators.iter().copied().filter(|p| *p != id).collect();
        LedgerNode {
            id,
            config,
            registry,
            byz,
            app,
            trace,
            mempool,
            pending_gossip: Vec::new(),
            validators,
            peers,
            submitted_scratch: Vec::new(),
            app_batch: Vec::new(),
            own_key: HmacSha512Key::new(&keys.secret.0),
            verifier: SigVerifier::new(),
            height: 1,
            round: 0,
            first_proposal: HashMap::new(),
            proposal_store: HashMap::new(),
            prevotes: HashMap::new(),
            precommits: HashMap::new(),
            precommit_sigs: HashMap::new(),
            voted_prevote: HashSet::new(),
            voted_precommit: HashSet::new(),
            committed: BTreeMap::new(),
            max_seen_height: 0,
            future_msgs: BTreeMap::new(),
            stats: NodeStats::default(),
        }
    }

    /// The application instance running on this node.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the application (post-run inspection).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Current consensus height (next block to commit).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Node statistics.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Number of transactions currently pending in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Peak mempool occupancy.
    pub fn mempool_peak(&self) -> usize {
        self.mempool.peak_len()
    }

    /// The committed block at `height`, if this node has committed it.
    pub fn committed_block(&self, height: u64) -> Option<&Block<A::Tx>> {
        self.committed.get(&height).map(|(b, _)| b)
    }

    /// Heights committed so far, in order.
    pub fn committed_heights(&self) -> Vec<u64> {
        self.committed.keys().copied().collect()
    }

    fn is_proposer(&self, height: u64, round: u32) -> bool {
        self.config.proposer(height, round) == self.id
    }

    // ------------------------------------------------------------------
    // Application plumbing
    // ------------------------------------------------------------------

    /// Runs an application callback and processes the transactions it
    /// submitted (CheckTx → mempool → gossip queue → trace).
    fn with_app<F>(&mut self, ctx: &mut Context<'_, M<A>>, f: F)
    where
        F: FnOnce(&mut A, &mut AppCtx<'_, '_, '_, A::Tx, A::Msg>),
    {
        let mut submitted = std::mem::take(&mut self.submitted_scratch);
        debug_assert!(submitted.is_empty());
        {
            let mut app_ctx = AppCtx {
                node_id: self.id,
                sim: ctx,
                submitted: &mut submitted,
            };
            f(&mut self.app, &mut app_ctx);
        }
        for tx in submitted.drain(..) {
            self.submit_local(tx, ctx);
        }
        self.submitted_scratch = submitted;
    }

    /// Local transaction submission path (the ledger `append` endpoint).
    fn submit_local(&mut self, tx: A::Tx, ctx: &mut Context<'_, M<A>>) {
        if !self.app.check_tx(&tx) {
            self.stats.txs_rejected += 1;
            return;
        }
        let id = tx.tx_id();
        match self.mempool.push(tx.clone()) {
            Ok(()) => {
                self.trace.record_mempool_arrival(id, self.id, ctx.now());
                if !self.byz.is_silent() {
                    self.pending_gossip.push(tx);
                }
            }
            Err(cause) => self.note_mempool_rejection(cause),
        }
    }

    /// Attributes a mempool rejection to its per-cause counter. Shedding is
    /// reject-newest and never silent: duplicates are the dedup working as
    /// intended, the `full_*` causes mean the node is overloaded and the
    /// arriving transaction was dropped before consensus ever saw it.
    fn note_mempool_rejection(&mut self, cause: crate::mempool::MempoolRejection) {
        use crate::mempool::MempoolRejection;
        match cause {
            MempoolRejection::Duplicate => self.stats.mempool_rejected_duplicate += 1,
            MempoolRejection::FullByCount => self.stats.mempool_rejected_full_count += 1,
            MempoolRejection::FullByBytes => self.stats.mempool_rejected_full_bytes += 1,
        }
    }

    // ------------------------------------------------------------------
    // Consensus steps
    // ------------------------------------------------------------------

    fn schedule_start_height(&self, height: u64, ctx: &mut Context<'_, M<A>>) {
        ctx.set_timer(
            self.config.block_interval,
            TIMER_START_HEIGHT | (height & TIMER_PAYLOAD_MASK),
        );
    }

    fn schedule_round_timeout(&self, height: u64, round: u32, ctx: &mut Context<'_, M<A>>) {
        let payload = ((height & 0xFF_FFFF_FFFF) << 16) | u64::from(round & 0xFFFF);
        ctx.set_timer(self.config.round_timeout, TIMER_ROUND_TIMEOUT | payload);
    }

    fn start_round(&mut self, ctx: &mut Context<'_, M<A>>) {
        if self.byz.is_silent() {
            return;
        }
        self.schedule_round_timeout(self.height, self.round, ctx);
        if self.is_proposer(self.height, self.round) {
            self.propose(ctx);
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_, M<A>>) {
        let txs = self.mempool.reap(self.config.max_block_bytes);
        let block = Block {
            height: self.height,
            proposer: self.id,
            proposed_at: ctx.now(),
            txs,
        };
        self.stats.proposals_made += 1;

        if self.byz == ByzMode::EquivocatingProposer && block.len() >= 2 {
            // Send two conflicting blocks: one with all transactions, one
            // with the order of the first two swapped, split across peers.
            // Each variant is built and signed exactly once and Arc-shared
            // across its half of the recipients.
            let mut alt = block.clone();
            alt.txs.swap(0, 1);
            let alt_signature = sign_with(
                &self.own_key,
                self.id,
                &proposal_sign_bytes(self.height, self.round, &alt.id()),
            );
            let signature = sign_with(
                &self.own_key,
                self.id,
                &proposal_sign_bytes(self.height, self.round, &block.id()),
            );
            let alt_msg = Arc::new(NetMsg::Proposal {
                height: self.height,
                round: self.round,
                block: alt,
                signature: alt_signature,
            });
            let primary_msg = Arc::new(NetMsg::Proposal {
                height: self.height,
                round: self.round,
                block,
                signature,
            });
            let half = self.peers.len() / 2;
            for (i, peer) in self.peers.iter().enumerate() {
                let m = if i < half { &primary_msg } else { &alt_msg };
                ctx.send_shared(*peer, Arc::clone(m));
            }
            // Process our own copy of the primary block.
            ctx.send_shared(self.id, primary_msg);
            return;
        }

        let signature = sign_with(
            &self.own_key,
            self.id,
            &proposal_sign_bytes(self.height, self.round, &block.id()),
        );
        let msg = Arc::new(NetMsg::Proposal {
            height: self.height,
            round: self.round,
            block,
            signature,
        });
        // Broadcast to peers and loop back to ourselves so the proposal is
        // processed through the same code path everywhere. One shared
        // payload serves every recipient.
        for peer in &self.peers {
            ctx.send_shared(*peer, Arc::clone(&msg));
        }
        ctx.send_shared(self.id, msg);
    }

    fn broadcast_vote(
        &mut self,
        kind: VoteKind,
        height: u64,
        round: u32,
        block_id: BlockId,
        ctx: &mut Context<'_, M<A>>,
    ) {
        if self.byz.is_silent() {
            return;
        }
        if self.byz == ByzMode::WithholdPrecommit && kind == VoteKind::Precommit {
            return;
        }
        let bytes = match kind {
            VoteKind::Prevote => vote_sign_bytes(kind, height, round, &block_id),
            // Precommit signatures double as commit-certificate entries, so
            // they sign the round-independent certificate bytes.
            VoteKind::Precommit => certificate_sign_bytes(height, &block_id),
        };
        let signature = sign_with(&self.own_key, self.id, &bytes);
        let msg = Arc::new(NetMsg::Vote {
            kind,
            height,
            round,
            block_id,
            voter: self.id,
            signature,
        });
        for peer in &self.peers {
            ctx.send_shared(*peer, Arc::clone(&msg));
        }
        ctx.send_shared(self.id, msg);
    }

    fn on_proposal(
        &mut self,
        height: u64,
        round: u32,
        block: Block<A::Tx>,
        signature: Signature,
        ctx: &mut Context<'_, M<A>>,
    ) {
        if height < self.height {
            return; // stale
        }
        self.note_peer_height(height, signature.signer, ctx);
        if height > self.height {
            return; // we will catch up through sync
        }
        let expected_proposer = self.config.proposer(height, round);
        if signature.signer != expected_proposer || block.proposer != expected_proposer {
            return;
        }
        let block_id = block.id();
        if !self.verifier.verify(
            &self.registry,
            &proposal_sign_bytes(height, round, &block_id),
            &signature,
        ) {
            return;
        }
        ctx.consume_cpu(self.config.sig_verify_cost);
        // Validate transactions (CheckTx on proposed content) and charge CPU
        // proportional to the block payload.
        let payload_kib = (block.payload_bytes() / 1024) as u64;
        ctx.consume_cpu(SimDuration::from_micros(
            self.config.block_validate_cost_per_kib.as_micros() * payload_kib,
        ));
        if !block.txs.iter().all(|tx| self.app.check_tx(tx)) {
            return; // invalid block: do not prevote
        }
        if round > self.round {
            // The network has moved on; follow it.
            self.round = round;
        }
        self.proposal_store.insert((height, block_id), block);
        // Prevote only for the first proposal seen in this round.
        let first = *self
            .first_proposal
            .entry((height, round))
            .or_insert(block_id);
        if first == block_id && self.voted_prevote.insert((height, round)) {
            self.broadcast_vote(VoteKind::Prevote, height, round, block_id, ctx);
        }
        self.try_advance(height, round, block_id, ctx);
    }

    // The six vote fields arrive pre-destructured from `NetMsg::Vote`;
    // re-bundling them into a struct here would just mirror the message type.
    #[allow(clippy::too_many_arguments)]
    fn on_vote(
        &mut self,
        kind: VoteKind,
        height: u64,
        round: u32,
        block_id: BlockId,
        voter: ProcessId,
        signature: Signature,
        ctx: &mut Context<'_, M<A>>,
    ) {
        if height < self.height {
            return;
        }
        self.note_peer_height(height, voter, ctx);
        if height > self.height {
            return;
        }
        if signature.signer != voter || !self.validators.contains(&voter) {
            return;
        }
        let bytes = match kind {
            VoteKind::Prevote => vote_sign_bytes(kind, height, round, &block_id),
            VoteKind::Precommit => certificate_sign_bytes(height, &block_id),
        };
        if !self.verifier.verify(&self.registry, &bytes, &signature) {
            return;
        }
        ctx.consume_cpu(self.config.sig_verify_cost);
        match kind {
            VoteKind::Prevote => {
                self.prevotes
                    .entry((height, round, block_id))
                    .or_default()
                    .insert(voter);
            }
            VoteKind::Precommit => {
                let newly = self
                    .precommits
                    .entry((height, block_id))
                    .or_default()
                    .insert(voter);
                if newly {
                    self.precommit_sigs
                        .entry((height, block_id))
                        .or_default()
                        .push(signature);
                }
            }
        }
        self.try_advance(height, round, block_id, ctx);
    }

    /// Checks quorum conditions for (height, round, block id) and advances:
    /// prevote quorum → precommit; precommit quorum → commit.
    fn try_advance(
        &mut self,
        height: u64,
        round: u32,
        block_id: BlockId,
        ctx: &mut Context<'_, M<A>>,
    ) {
        if height != self.height {
            return;
        }
        let quorum = self.config.quorum();
        let have_block = self.proposal_store.contains_key(&(height, block_id));

        let prevote_count = self
            .prevotes
            .get(&(height, round, block_id))
            .map(|s| s.len())
            .unwrap_or(0);
        if prevote_count >= quorum && have_block && self.voted_precommit.insert(height) {
            self.broadcast_vote(VoteKind::Precommit, height, round, block_id, ctx);
        }

        let precommit_count = self
            .precommits
            .get(&(height, block_id))
            .map(|s| s.len())
            .unwrap_or(0);
        if precommit_count >= quorum {
            if have_block {
                // Take the block out instead of cloning it: commit_block
                // clears all per-height consensus state right after anyway.
                let block = self
                    .proposal_store
                    .remove(&(height, block_id))
                    .expect("checked above");
                let cert = self
                    .precommit_sigs
                    .get(&(height, block_id))
                    .cloned()
                    .unwrap_or_default();
                self.commit_block(block, cert, ctx);
            } else if let Some(voters) = self.precommits.get(&(height, block_id)) {
                // We saw a commit quorum but missed the proposal: fetch the
                // block from the lowest-id precommitter.
                if let Some(peer) = voters.iter().find(|p| **p != self.id) {
                    ctx.send(*peer, NetMsg::BlockSyncRequest { height });
                }
            }
        }
    }

    fn commit_block(
        &mut self,
        block: Block<A::Tx>,
        certificate: Vec<Signature>,
        ctx: &mut Context<'_, M<A>>,
    ) {
        debug_assert_eq!(block.height, self.height);
        let now = ctx.now();
        let tx_ids: Vec<TxId> = block.txs.iter().map(|t| t.tx_id()).collect();
        for id in &tx_ids {
            self.trace.record_commit(*id, block.height, now);
        }
        self.trace.record_block(BlockSummary {
            height: block.height,
            committed_at: now,
            txs: block.len(),
            bytes: block.payload_bytes(),
            proposer: block.proposer,
        });
        self.mempool.remove_committed(tx_ids.iter());
        self.stats.blocks_committed += 1;
        self.stats.txs_committed += block.len() as u64;

        // Notify the application (new_block / FinalizeBlock). The block is a
        // local here, so the application borrows it directly — no copy.
        self.with_app(ctx, |app, app_ctx| app.finalize_block(&block, app_ctx));

        self.committed.insert(block.height, (block, certificate));

        // Clean up per-height consensus state and move to the next height.
        let h = self.height;
        self.first_proposal.retain(|(hh, _), _| *hh > h);
        self.proposal_store.retain(|(hh, _), _| *hh > h);
        self.prevotes.retain(|(hh, _, _), _| *hh > h);
        self.precommits.retain(|(hh, _), _| *hh > h);
        self.precommit_sigs.retain(|(hh, _), _| *hh > h);
        self.voted_prevote.retain(|(hh, _)| *hh > h);
        self.voted_precommit.retain(|hh| *hh > h);

        self.height += 1;
        self.round = 0;
        if !self.byz.is_silent() {
            self.schedule_start_height(self.height, ctx);
        }
        // Replay consensus messages that arrived while this height was still
        // in our future. A perpetually-lagging node breaks out of the
        // sync-one-behind treadmill here: the buffered proposal and
        // precommit quorum for the new height let it commit (or even vote)
        // without waiting to hear about the height after it.
        self.future_msgs.retain(|h, _| *h >= self.height);
        if let Some(msgs) = self.future_msgs.remove(&self.height) {
            for (from, msg) in msgs {
                self.handle_consensus_msg(from, msg, ctx);
            }
        }
    }

    /// Tracks the highest height peers reference and requests sync when we
    /// are behind.
    fn note_peer_height(&mut self, height: u64, peer: ProcessId, ctx: &mut Context<'_, M<A>>) {
        if height > self.max_seen_height {
            self.max_seen_height = height;
        }
        if height > self.height && peer != self.id && !self.byz.is_silent() {
            ctx.send(
                peer,
                NetMsg::BlockSyncRequest {
                    height: self.height,
                },
            );
        }
    }

    fn on_sync_request(&mut self, from: ProcessId, height: u64, ctx: &mut Context<'_, M<A>>) {
        if self.byz.is_silent() {
            return;
        }
        if let Some((block, cert)) = self.committed.get(&height) {
            ctx.send(
                from,
                NetMsg::BlockSyncResponse {
                    block: block.clone(),
                    certificate: cert.clone(),
                },
            );
        }
    }

    fn on_sync_response(
        &mut self,
        block: Block<A::Tx>,
        certificate: Vec<Signature>,
        ctx: &mut Context<'_, M<A>>,
    ) {
        if block.height != self.height {
            return;
        }
        // Verify the commit certificate: 2f+1 valid signatures from distinct
        // validators over (height, block id). All entries sign the same
        // bytes, so the batched verifier shares the per-signer HMAC setup.
        let block_id = block.id();
        let bytes = certificate_sign_bytes(block.height, &block_id);
        let verdicts = verify_batch(
            &self.registry,
            certificate.iter().map(|sig| (bytes.as_slice(), sig)),
        );
        let mut signers: HashSet<ProcessId> = HashSet::new();
        for (sig, ok) in certificate.iter().zip(verdicts) {
            if ok && self.validators.contains(&sig.signer) {
                signers.insert(sig.signer);
            }
        }
        ctx.consume_cpu(self.config.sig_verify_cost * certificate.len() as u64);
        if signers.len() < self.config.quorum() {
            return;
        }
        if !block.txs.iter().all(|tx| self.app.check_tx(tx)) {
            // A certificate quorum on an invalid block means more than f
            // faults; refuse to apply it.
            return;
        }
        self.stats.synced_blocks += 1;
        self.commit_block(block, certificate, ctx);
        // If still behind, keep pulling from any peer we know is ahead.
        if self.max_seen_height > self.height {
            if let Some(peer) = self.peers.first().copied() {
                ctx.send(
                    peer,
                    NetMsg::BlockSyncRequest {
                        height: self.height,
                    },
                );
            }
        }
    }

    /// Dispatches one non-application message (consensus, gossip, sync).
    fn handle_consensus_msg(&mut self, from: ProcessId, msg: M<A>, ctx: &mut Context<'_, M<A>>) {
        // Proposals and votes for a height we have not reached yet cannot be
        // processed in place; buffer a bounded window of them for replay so
        // a node that is catching up can vote at the first height it reaches
        // in time. They still count as peer-height sightings, which is what
        // triggers the catch-up sync in the first place.
        let future_height = match &msg {
            NetMsg::Proposal { height, .. } | NetMsg::Vote { height, .. }
                if *height > self.height =>
            {
                Some(*height)
            }
            _ => None,
        };
        if let Some(h) = future_height {
            self.note_peer_height(h, from, ctx);
            if h <= self.height + MAX_FUTURE_HEIGHTS {
                let slot = self.future_msgs.entry(h).or_default();
                // Cap against a flooding peer: one proposal and two votes
                // per validator is what a height legitimately produces.
                if slot.len() < 4 * self.validators.len() {
                    slot.push((from, msg));
                    self.stats.future_buffered += 1;
                }
            }
            return;
        }
        match msg {
            NetMsg::Proposal {
                height,
                round,
                block,
                signature,
            } => self.on_proposal(height, round, block, signature, ctx),
            NetMsg::Vote {
                kind,
                height,
                round,
                block_id,
                voter,
                signature,
            } => self.on_vote(kind, height, round, block_id, voter, signature, ctx),
            NetMsg::TxGossip { txs } => {
                for tx in txs {
                    if !self.app.check_tx(&tx) {
                        self.stats.txs_rejected += 1;
                        continue;
                    }
                    let id = tx.tx_id();
                    match self.mempool.push(tx) {
                        Ok(()) => self.trace.record_mempool_arrival(id, self.id, ctx.now()),
                        Err(cause) => self.note_mempool_rejection(cause),
                    }
                }
            }
            NetMsg::BlockSyncRequest { height } => self.on_sync_request(from, height, ctx),
            NetMsg::BlockSyncResponse { block, certificate } => {
                self.on_sync_response(block, certificate, ctx)
            }
            NetMsg::App(_) => unreachable!("application messages are routed by the caller"),
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn on_internal_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, M<A>>) {
        let kind = token & !TIMER_PAYLOAD_MASK;
        let payload = token & TIMER_PAYLOAD_MASK;
        match kind {
            TIMER_GOSSIP => {
                if !self.pending_gossip.is_empty() && !self.byz.is_silent() {
                    let txs = std::mem::take(&mut self.pending_gossip);
                    let msg = Arc::new(NetMsg::TxGossip { txs });
                    for peer in &self.peers {
                        ctx.send_shared(*peer, Arc::clone(&msg));
                    }
                }
                ctx.set_timer(self.config.gossip_interval, TIMER_GOSSIP);
            }
            TIMER_START_HEIGHT if payload == self.height && self.round == 0 => {
                self.start_round(ctx);
            }
            TIMER_START_HEIGHT => {}
            TIMER_ROUND_TIMEOUT => {
                let height = payload >> 16;
                let round = (payload & 0xFFFF) as u32;
                if height == self.height && round == self.round {
                    self.stats.round_timeouts += 1;
                    self.round += 1;
                    self.start_round(ctx);
                }
            }
            _ => {}
        }
    }
}

impl<A: Application> Process<M<A>> for LedgerNode<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, M<A>>) {
        self.with_app(ctx, |app, app_ctx| app.on_start(app_ctx));
        if self.byz.is_silent() {
            return;
        }
        ctx.set_timer(self.config.gossip_interval, TIMER_GOSSIP);
        // Height 1 starts one block interval into the run.
        self.schedule_start_height(1, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: M<A>, ctx: &mut Context<'_, M<A>>) {
        if self.byz.is_silent() {
            // A silent node ignores everything, including client requests.
            return;
        }
        if let NetMsg::App(m) = msg {
            self.with_app(ctx, |app, app_ctx| app.on_message(from, m, app_ctx));
        } else {
            self.handle_consensus_msg(from, msg, ctx);
        }
    }

    /// Coalesced same-instant deliveries: consecutive application messages
    /// are threaded to the application as one batch through
    /// [`Application::on_messages`] — one `with_app` round (one submit pass,
    /// one `AppCtx`) for the whole run instead of one per message.
    /// Consensus messages are dispatched in place, preserving the exact
    /// per-message order a non-coalesced scheduler would have produced.
    fn on_messages(&mut self, batch: &mut Vec<(ProcessId, M<A>)>, ctx: &mut Context<'_, M<A>>) {
        if self.byz.is_silent() {
            batch.clear();
            return;
        }
        let mut app_batch = std::mem::take(&mut self.app_batch);
        debug_assert!(app_batch.is_empty());
        for (from, msg) in batch.drain(..) {
            match msg {
                NetMsg::App(m) => app_batch.push((from, m)),
                other => {
                    if !app_batch.is_empty() {
                        self.with_app(ctx, |app, app_ctx| app.on_messages(&mut app_batch, app_ctx));
                        app_batch.clear();
                    }
                    self.handle_consensus_msg(from, other, ctx);
                }
            }
        }
        if !app_batch.is_empty() {
            self.with_app(ctx, |app, app_ctx| app.on_messages(&mut app_batch, app_ctx));
            app_batch.clear();
        }
        self.app_batch = app_batch;
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, M<A>>) {
        if token & APP_TIMER_BASE != 0 {
            if self.byz.is_silent() {
                return;
            }
            let app_token = token & !APP_TIMER_BASE;
            self.with_app(ctx, |app, app_ctx| app.on_timer(app_token, app_ctx));
        } else {
            self.on_internal_timer(token, ctx);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain_simnet::{NetworkConfig, SimTime, Simulation, SimulationConfig, Wire};

    /// Minimal application used to exercise the ledger: transactions are
    /// (id, size) pairs, invalid ids are odd multiples of 1000, and every
    /// committed transaction is recorded in order.
    #[derive(Clone, Debug)]
    struct TestTx {
        id: u128,
        size: usize,
    }

    impl TxData for TestTx {
        fn tx_id(&self) -> TxId {
            TxId(self.id)
        }
        fn wire_size(&self) -> usize {
            self.size
        }
    }

    #[derive(Clone, Debug)]
    enum TestMsg {
        Submit(u128, usize),
    }

    impl Wire for TestMsg {
        fn wire_size(&self) -> usize {
            32
        }
    }

    #[derive(Default)]
    struct TestApp {
        committed: Vec<(u64, u128)>, // (height, tx id)
        blocks_seen: u64,
    }

    impl Application for TestApp {
        type Tx = TestTx;
        type Msg = TestMsg;

        fn check_tx(&self, tx: &TestTx) -> bool {
            tx.id % 1000 != 999
        }

        fn finalize_block(
            &mut self,
            block: &Block<TestTx>,
            _ctx: &mut AppCtx<'_, '_, '_, TestTx, TestMsg>,
        ) {
            self.blocks_seen += 1;
            for tx in &block.txs {
                self.committed.push((block.height, tx.id));
            }
        }

        fn on_message(
            &mut self,
            _from: ProcessId,
            msg: TestMsg,
            ctx: &mut AppCtx<'_, '_, '_, TestTx, TestMsg>,
        ) {
            let TestMsg::Submit(id, size) = msg;
            ctx.append(TestTx { id, size });
        }
    }

    type Node = LedgerNode<TestApp>;
    type Msg = NetMsg<TestTx, TestMsg>;

    struct Cluster {
        sim: Simulation<Msg>,
        n: usize,
        trace: LedgerTrace,
    }

    fn build_cluster(n: usize, byz: Vec<(usize, ByzMode)>, seed: u64) -> Cluster {
        let registry = KeyRegistry::bootstrap(seed, n, 4);
        let config = LedgerConfig::with_validators(n);
        let trace = LedgerTrace::new();
        let mut sim = Simulation::new(SimulationConfig {
            seed,
            network: NetworkConfig::lan(),
        });
        for i in 0..n {
            let id = ProcessId::server(i);
            let mode = byz
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, m)| *m)
                .unwrap_or(ByzMode::Correct);
            let node = Node::new(
                id,
                config.clone(),
                registry.lookup(id).unwrap(),
                registry.clone(),
                TestApp::default(),
                trace.clone(),
                mode,
            );
            sim.add_process(id, Box::new(node));
        }
        Cluster { sim, n, trace }
    }

    fn submit(sim: &mut Simulation<Msg>, at_ms: u64, to: usize, id: u128, size: usize) {
        sim.schedule_message(
            SimTime::from_millis(at_ms),
            ProcessId::client(0),
            ProcessId::server(to),
            NetMsg::App(TestMsg::Submit(id, size)),
        );
    }

    fn committed_sequence(cluster: &Cluster, node: usize) -> Vec<(u64, u128)> {
        let n: &Node = cluster
            .sim
            .process(ProcessId::server(node))
            .expect("node exists");
        n.app().committed.clone()
    }

    #[test]
    fn all_nodes_commit_same_transactions_in_same_order() {
        let mut cluster = build_cluster(4, vec![], 1);
        for i in 0..100u128 {
            submit(
                &mut cluster.sim,
                100 + i as u64 * 10,
                (i % 4) as usize,
                i,
                200,
            );
        }
        cluster.sim.run_until(SimTime::from_secs(20));
        let reference = committed_sequence(&cluster, 0);
        assert_eq!(
            reference
                .iter()
                .map(|(_, id)| *id)
                .collect::<HashSet<_>>()
                .len(),
            100,
            "all 100 transactions commit exactly once"
        );
        for node in 1..cluster.n {
            assert_eq!(
                committed_sequence(&cluster, node),
                reference,
                "node {node} diverged"
            );
        }
    }

    #[test]
    fn block_rate_matches_configuration() {
        let mut cluster = build_cluster(4, vec![], 2);
        // Keep a steady trickle of transactions so blocks keep being produced.
        for i in 0..200u128 {
            submit(&mut cluster.sim, 50 + i as u64 * 100, 0, i, 100);
        }
        cluster.sim.run_until(SimTime::from_secs(25));
        let rate = cluster.trace.block_rate();
        assert!(
            (0.6..=0.95).contains(&rate),
            "expected ~0.8 blocks/s, measured {rate:.3}"
        );
    }

    #[test]
    fn block_size_limit_is_respected() {
        let mut cluster = build_cluster(4, vec![], 3);
        // 200 transactions of 100 kB each cannot fit in one 0.5 MB block.
        for i in 0..200u128 {
            submit(&mut cluster.sim, 100, 0, i, 100_000);
        }
        cluster.sim.run_until(SimTime::from_secs(60));
        for b in cluster.trace.blocks() {
            assert!(b.bytes <= 500_000, "block {b:?} exceeds the size limit");
        }
        let total: usize = cluster.trace.blocks().iter().map(|b| b.txs).sum();
        assert_eq!(total, 200, "all transactions eventually committed");
    }

    #[test]
    fn invalid_transactions_never_commit() {
        let mut cluster = build_cluster(4, vec![], 4);
        submit(&mut cluster.sim, 100, 0, 999, 100); // rejected by check_tx
        submit(&mut cluster.sim, 100, 0, 1, 100);
        cluster.sim.run_until(SimTime::from_secs(10));
        let committed = committed_sequence(&cluster, 0);
        assert!(committed.iter().any(|(_, id)| *id == 1));
        assert!(!committed.iter().any(|(_, id)| *id == 999));
    }

    #[test]
    fn duplicate_submissions_commit_once() {
        let mut cluster = build_cluster(4, vec![], 5);
        submit(&mut cluster.sim, 100, 0, 42, 100);
        submit(&mut cluster.sim, 150, 1, 42, 100);
        submit(&mut cluster.sim, 4000, 2, 42, 100); // resubmitted after commit
        cluster.sim.run_until(SimTime::from_secs(12));
        let committed = committed_sequence(&cluster, 0);
        assert_eq!(committed.iter().filter(|(_, id)| *id == 42).count(), 1);
    }

    #[test]
    fn tolerates_silent_validator() {
        let mut cluster = build_cluster(4, vec![(3, ByzMode::Silent)], 6);
        for i in 0..50u128 {
            submit(
                &mut cluster.sim,
                100 + i as u64 * 20,
                (i % 3) as usize,
                i,
                200,
            );
        }
        cluster.sim.run_until(SimTime::from_secs(30));
        let committed = committed_sequence(&cluster, 0);
        assert_eq!(
            committed
                .iter()
                .map(|(_, id)| *id)
                .collect::<HashSet<_>>()
                .len(),
            50
        );
        // The other correct nodes agree.
        assert_eq!(committed_sequence(&cluster, 1), committed);
        assert_eq!(committed_sequence(&cluster, 2), committed);
    }

    #[test]
    fn silent_proposer_is_skipped_by_round_timeout() {
        // Server 1 proposes height 1; make it silent so round 0 times out.
        let mut cluster = build_cluster(4, vec![(1, ByzMode::Silent)], 7);
        submit(&mut cluster.sim, 100, 0, 7, 100);
        cluster.sim.run_until(SimTime::from_secs(30));
        let committed = committed_sequence(&cluster, 0);
        assert!(
            committed.iter().any(|(_, id)| *id == 7),
            "tx eventually committed"
        );
        let node: &Node = cluster.sim.process(ProcessId::server(0)).unwrap();
        assert!(node.stats().round_timeouts >= 1);
    }

    #[test]
    fn equivocating_proposer_does_not_split_correct_nodes() {
        let mut cluster = build_cluster(4, vec![(1, ByzMode::EquivocatingProposer)], 8);
        for i in 0..30u128 {
            submit(&mut cluster.sim, 100 + i as u64 * 10, 0, i, 150);
        }
        cluster.sim.run_until(SimTime::from_secs(40));
        let a = committed_sequence(&cluster, 0);
        let b = committed_sequence(&cluster, 2);
        let c = committed_sequence(&cluster, 3);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn withheld_precommits_do_not_stop_progress() {
        let mut cluster = build_cluster(4, vec![(2, ByzMode::WithholdPrecommit)], 9);
        for i in 0..20u128 {
            submit(&mut cluster.sim, 100 + i as u64 * 10, 0, i, 150);
        }
        cluster.sim.run_until(SimTime::from_secs(20));
        let committed = committed_sequence(&cluster, 0);
        assert_eq!(
            committed
                .iter()
                .map(|(_, id)| *id)
                .collect::<HashSet<_>>()
                .len(),
            20
        );
    }

    #[test]
    fn trace_records_mempool_and_ledger_stages() {
        let mut cluster = build_cluster(4, vec![], 10);
        submit(&mut cluster.sim, 100, 0, 5, 100);
        cluster.sim.run_until(SimTime::from_secs(10));
        let tx = TxId(5);
        let first = cluster
            .trace
            .first_mempool(&tx)
            .expect("first mempool recorded");
        let all = cluster
            .trace
            .kth_mempool(&tx, 4)
            .expect("replicated to all mempools");
        let ledger = cluster.trace.ledger_time(&tx).expect("committed");
        assert!(first <= all);
        assert!(all <= ledger);
        assert!(cluster.trace.ledger_height(&tx).unwrap() >= 1);
    }

    #[test]
    fn partitioned_node_catches_up_after_heal() {
        let mut cluster = build_cluster(4, vec![], 11);
        // Partition server 3 away from everyone for the first 10 seconds.
        let minority = [ProcessId::server(3)];
        let majority = [
            ProcessId::server(0),
            ProcessId::server(1),
            ProcessId::server(2),
        ];
        cluster
            .sim
            .add_partition(setchain_simnet::Partition::between(minority, majority));
        for i in 0..40u128 {
            submit(
                &mut cluster.sim,
                100 + i as u64 * 50,
                (i % 3) as usize,
                i,
                150,
            );
        }
        cluster.sim.run_until(SimTime::from_secs(10));
        cluster.sim.heal_all_partitions();
        // Keep some traffic flowing so the healed node sees newer heights and
        // triggers catch-up sync.
        for i in 100..130u128 {
            submit(&mut cluster.sim, 11_000 + (i as u64 - 100) * 50, 0, i, 150);
        }
        cluster.sim.run_until(SimTime::from_secs(40));
        let behind = committed_sequence(&cluster, 3);
        let reference = committed_sequence(&cluster, 0);
        let node3: &Node = cluster.sim.process(ProcessId::server(3)).unwrap();
        assert!(node3.stats().synced_blocks > 0, "node 3 used block sync");
        // Node 3 committed a prefix-consistent sequence equal to the
        // reference it caught up to.
        assert_eq!(behind, reference[..behind.len()].to_vec());
        assert!(
            behind.len() >= 40,
            "node 3 caught up with pre-partition traffic"
        );
    }

    #[test]
    fn healed_node_rejoins_voting_instead_of_trailing_sync() {
        // Sharper than `partitioned_node_catches_up_after_heal`: after the
        // heal the node must *re-enter consensus*, not trail the cluster
        // through block sync forever. Without the future-height message
        // buffer, the proposal for height `h + 1` flies past while block
        // sync delivers `h`, so every post-heal block arrives via sync and
        // the node stays exactly one height behind at any instant.
        let mut cluster = build_cluster(4, vec![], 13);
        let minority = [ProcessId::server(3)];
        let majority = [
            ProcessId::server(0),
            ProcessId::server(1),
            ProcessId::server(2),
        ];
        cluster
            .sim
            .add_partition(setchain_simnet::Partition::between(minority, majority));
        for i in 0..40u128 {
            submit(
                &mut cluster.sim,
                100 + i as u64 * 50,
                (i % 3) as usize,
                i,
                150,
            );
        }
        cluster.sim.run_until(SimTime::from_secs(10));
        cluster.sim.heal_all_partitions();
        // Empty blocks keep heights advancing; no further traffic needed.
        cluster.sim.run_until(SimTime::from_secs(40));
        let node0: &Node = cluster.sim.process(ProcessId::server(0)).unwrap();
        let node3: &Node = cluster.sim.process(ProcessId::server(3)).unwrap();
        assert!(
            node3.stats().future_buffered > 0,
            "catch-up buffered in-flight consensus messages"
        );
        // Sync bridged the partition gap only; the bulk of post-heal blocks
        // committed through ordinary voting.
        assert!(
            node3.stats().blocks_committed > 2 * node3.stats().synced_blocks,
            "node 3 kept trailing through sync: {} committed, {} synced",
            node3.stats().blocks_committed,
            node3.stats().synced_blocks
        );
        assert!(
            node3.height() + 1 >= node0.height(),
            "node 3 rejoined the voting tip: {} vs {}",
            node3.height(),
            node0.height()
        );
        let behind = committed_sequence(&cluster, 3);
        let reference = committed_sequence(&cluster, 0);
        assert_eq!(behind, reference[..behind.len()].to_vec());
    }

    #[test]
    fn empty_blocks_are_produced_without_traffic() {
        let mut cluster = build_cluster(4, vec![], 12);
        cluster.sim.run_until(SimTime::from_secs(10));
        let node: &Node = cluster.sim.process(ProcessId::server(0)).unwrap();
        assert!(node.stats().blocks_committed >= 5);
        assert_eq!(node.stats().txs_committed, 0);
    }

    #[test]
    fn seven_and_ten_validator_clusters_work() {
        for n in [7usize, 10] {
            let mut cluster = build_cluster(n, vec![], 13 + n as u64);
            for i in 0..30u128 {
                submit(
                    &mut cluster.sim,
                    100 + i as u64 * 10,
                    (i as usize) % n,
                    i,
                    150,
                );
            }
            cluster.sim.run_until(SimTime::from_secs(15));
            let reference = committed_sequence(&cluster, 0);
            assert_eq!(
                reference
                    .iter()
                    .map(|(_, id)| *id)
                    .collect::<HashSet<_>>()
                    .len(),
                30,
                "n={n}"
            );
            for node in 1..n {
                assert_eq!(
                    committed_sequence(&cluster, node),
                    reference,
                    "n={n} node={node}"
                );
            }
        }
    }
}
