//! Code shared by the three Setchain server implementations: client `add` /
//! `get` handling, epoch-proof bookkeeping and epoch creation.

use std::sync::Arc;

use setchain_crypto::{
    sign_with, Digest512, FxHashSet, KeyPair, KeyRegistry, ProcessId, SigVerifier, Signature,
    SigningKey,
};
use setchain_ledger::types::SIG_VERIFY_COST;
use setchain_ledger::{AppCtx, TxData};
use setchain_simnet::SimTime;

use setchain_store::{DiskStore, EpochRecord, StateStore};

use crate::admission::AdmissionCache;
use crate::byzantine::ServerByzMode;
use crate::collector::{Batch, Collector};
use crate::config::{hash_cost, SetchainConfig, StoreConfig, SIGN_COST};
use crate::element::{Element, ElementId};
use crate::messages::SetchainMsg;
use crate::proofs::{make_epoch_proof_with_key, EpochProof};
use crate::state::SetchainState;
use crate::trace::SetchainTrace;
use crate::tx::{HashBatch, SetchainTx};

/// Convenience alias for the application context all Setchain servers use.
pub type Ctx<'a, 'b, 'c> = AppCtx<'a, 'b, 'c, SetchainTx, SetchainMsg>;

/// Counters exposed by every Setchain server for tests and experiment
/// reports.
///
/// The struct is `#[non_exhaustive]`: new counters will be added as new
/// subsystems land. Downstream code should read fields (all public) and
/// construct instances with [`ServerStats::default`], never with a struct
/// literal, so it keeps compiling across field additions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Client `add` requests accepted (valid, not previously seen).
    pub adds_accepted: u64,
    /// Client `add` requests rejected because the element failed validation
    /// (bad authenticator, unknown or server claimant, degenerate size —
    /// also counts adds swallowed by a Byzantine `DropClientAdds` server).
    pub adds_rejected_invalid: u64,
    /// Client `add` requests rejected because the element was already in
    /// `the_set` or stamped into an epoch. An id already stamped counts
    /// here whatever its contents: it is refused before any validation.
    pub adds_rejected_duplicate: u64,
    /// Elements shed by the admission quota (see [`crate::quota`]) before
    /// any validation CPU was spent on them; 0 unless a quota is configured.
    pub adds_rejected_quota: u64,
    /// Epochs this server has created/consolidated.
    pub epochs_created: u64,
    /// Valid epoch-proofs received from the ledger.
    pub proofs_received: u64,
    /// Invalid epoch-proofs discarded.
    pub proofs_rejected: u64,
    /// Invalid elements discarded during block processing.
    pub elements_rejected: u64,
    /// Batches flushed from the collector (0 for Vanilla).
    pub batches_flushed: u64,
    /// Compresschain: batch frames decompressed on block delivery (every
    /// frame, the server's own included; 0 under the "light" ablation).
    pub batches_decompressed: u64,
    /// Compresschain: delivered batch frames that failed to decompress to
    /// the declared element bytes — hostile transactions, skipped whole (0
    /// when every origin is correct).
    pub batch_decompress_failures: u64,
    /// Hashchain: `Request_batch` calls sent.
    pub batch_requests_sent: u64,
    /// Hashchain: `Request_batch` calls answered.
    pub batch_requests_served: u64,
    /// Hashchain: hash-batch copies skipped because no server asked for
    /// their batch answered with contents that hash right (the pseudocode's
    /// `continue`). A timeout or a wrong answer that moves on to another
    /// signer is not counted.
    pub batch_requests_failed: u64,
    /// `get` / `get_epoch` requests answered.
    pub gets_served: u64,
    /// Committed epochs appended to this server's persistent store this
    /// session (0 when no store is configured; epochs recovered at open are
    /// not re-counted).
    pub epochs_persisted: u64,
    /// Total bytes across this server's store segments (recovered bytes
    /// included), refreshed on every append.
    pub store_bytes: u64,
}

/// Everything a [`SetchainServer`](crate::SetchainServer) holds that does not
/// depend on the algorithm it runs.
pub struct ServerCore {
    /// This server's key pair.
    pub keys: KeyPair,
    /// The PKI.
    pub registry: KeyRegistry,
    /// Deployment configuration.
    pub config: SetchainConfig,
    /// The Setchain state (`the_set`, `epoch`, `history`, `proofs`).
    pub state: SetchainState,
    /// Experiment trace sink.
    pub trace: SetchainTrace,
    /// Application-level behaviour.
    pub byz: ServerByzMode,
    /// Counters.
    pub stats: ServerStats,
    /// Memoized admission verdicts and the rule behind them: an element's
    /// authenticator is checked once per server, keyed on the element id
    /// and guarded by the full `(client, size, seed, mac)` identity — see
    /// [`AdmissionCache`]. Every lookup tests `history` first, and
    /// [`Self::note_stamped`] frees each verdict as its element is stamped.
    admission: AdmissionCache,
    /// This server's own signing schedule: signing proofs and hash-batches
    /// does not re-derive the keys per signature.
    own_key: SigningKey,
    /// Per-signer verification schedules for peer proofs and hash-batches.
    verifier: SigVerifier,
    /// Reused indices of the elements a batch step picks for validation:
    /// not stamped yet, and in [`Self::extract_epoch_candidates`] the first
    /// of their id.
    pick_scratch: Vec<usize>,
    /// Reused in-batch dedup set of [`Self::extract_epoch_candidates`].
    seen_scratch: FxHashSet<ElementId>,
    /// Epochs this server has *derived* from the ledger (one
    /// [`Self::create_epoch`] call each). Normally equal to
    /// `state.epoch()`; only the store can put `state` ahead of the ledger:
    /// after a replay at open it lags behind, and `create_epoch` skips
    /// re-derivation until the ledger replay passes the stored tip.
    derived_epochs: u64,
    /// The persistent epoch store, when `config.store` is set. Opened (and
    /// replayed into `state`) at construction; `None` is the exact pre-store
    /// in-memory pipeline. Store I/O happens on the host, outside simulated
    /// time, so enabling it never perturbs schedules.
    store: Option<Box<dyn StateStore>>,
    /// The durable frontier: every epoch `<= persisted` is on the store
    /// with its digest and `f + 1` proof quorum. Advanced by
    /// [`Self::persist_committed`] strictly in epoch order, so quorums that
    /// land out of order are flushed as soon as the gap before them closes.
    persisted: u64,
    /// Per-client admission quotas, when `config.quota` is set. Probed by
    /// [`Self::admit_source`] ahead of every client-facing admission path;
    /// `None` is the exact pre-quota pipeline (no probe, no reply, no CPU).
    quota: Option<crate::quota::QuotaState>,
    /// The paper's `batch` with its `isReady` condition: the batch under
    /// construction of the two batching algorithms, which
    /// `SetchainServer::new` sets. `None` for Vanilla, whose block is the
    /// batch.
    pub(crate) collector: Option<Collector>,
}

impl ServerCore {
    /// Creates the shared server state.
    ///
    /// # Panics
    ///
    /// If `config` is unusable: `2f >= n` (f + 1 correct servers are needed
    /// for every proof and signer quorum) or a zero collector limit.
    pub fn new(
        keys: KeyPair,
        registry: KeyRegistry,
        config: SetchainConfig,
        trace: SetchainTrace,
        byz: ServerByzMode,
    ) -> Self {
        assert!(2 * config.f < config.servers, "need 2f < n");
        assert!(
            config.collector_limit >= 1,
            "collector limit must be positive"
        );
        let own_key = SigningKey::new(&keys.secret);
        let mut core = ServerCore {
            keys,
            registry,
            state: SetchainState::new(),
            config,
            trace,
            byz,
            stats: ServerStats::default(),
            admission: AdmissionCache::new(),
            own_key,
            verifier: SigVerifier::new(),
            pick_scratch: Vec::new(),
            seen_scratch: FxHashSet::default(),
            derived_epochs: 0,
            store: None,
            persisted: 0,
            quota: None,
            collector: None,
        };
        if let Some(quota_cfg) = core.config.quota {
            core.quota = Some(crate::quota::QuotaState::new(quota_cfg));
        }
        if let Some(store_cfg) = core.config.store.clone() {
            core.open_store(&store_cfg);
        }
        core
    }

    /// Opens (or creates) this server's segment store under
    /// `{dir}/server-{index}` and replays every stored epoch into `state`:
    /// elements are re-recorded (which re-derives the digest — asserted
    /// byte-equal to the stored one, so silent store corruption is fatal
    /// rather than divergent) and the stored `f + 1` proof quorum is
    /// re-added, committing each epoch without re-verification. The ledger
    /// replay that follows then signs the recovered digests through the
    /// [`Self::create_epoch`] fast-forward path (`derived_epochs` stays 0).
    ///
    /// A store that cannot be opened or read is a fatal configuration /
    /// hardware error: this panics rather than silently running volatile.
    fn open_store(&mut self, cfg: &StoreConfig) {
        let dir = format!("{}/server-{}", cfg.dir, self.keys.id.server_index());
        let store = DiskStore::open(&dir, cfg.segment_bytes, 0)
            .unwrap_or_else(|e| panic!("setchain-store: cannot open {dir}: {e}"));
        let tip = store.tip();
        for epoch in 1..=tip {
            let record = store
                .load_epoch(epoch)
                .unwrap_or_else(|e| panic!("setchain-store: cannot read epoch {epoch}: {e}"))
                .unwrap_or_else(|| panic!("setchain-store: epoch {epoch} below tip missing"));
            let elements = Self::unpack_elements(&record.elements);
            let recorded = self
                .state
                .record_epoch(Arc::new(Batch::new(elements, Vec::new())));
            debug_assert_eq!(recorded, epoch, "segment scan enforces sequential epochs");
            let digest = self.state.epoch_digest(epoch).expect("just recorded");
            assert_eq!(
                digest.as_bytes(),
                &record.digest[..],
                "setchain-store: epoch {epoch} digest mismatch (corrupt store)"
            );
            for proof in Self::unpack_proofs(&record.proofs) {
                self.state.add_proof(proof);
            }
        }
        self.persisted = tip;
        self.stats.store_bytes = store.stats().bytes;
        self.store = Some(Box::new(store));
    }

    /// Flushes every committed-but-unpersisted epoch to the store, in
    /// order: an epoch is flushed once it is the next after the durable
    /// frontier *and* holds its `f + 1` proof quorum. Called on every
    /// quorum event (ledger proofs), so quorums reached out of order drain
    /// as soon as the gap closes. A store append failure is fatal —
    /// continuing would desynchronize the durable frontier from `state`.
    fn persist_committed(&mut self) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let quorum = self.config.proof_quorum();
        while self.persisted < self.state.epoch()
            && self.state.proof_count(self.persisted + 1) >= quorum
        {
            let epoch = self.persisted + 1;
            let digest = self.state.epoch_digest(epoch).expect("committed epoch");
            let elements = self.state.epoch_elements(epoch).expect("committed epoch");
            let record = EpochRecord::new(
                epoch,
                digest.0,
                Self::pack_elements(elements),
                Self::pack_proofs(self.state.proofs_for(epoch)),
            );
            store
                .append_epoch(&record)
                .unwrap_or_else(|e| panic!("setchain-store: cannot append epoch {epoch}: {e}"));
            self.persisted = epoch;
            self.stats.epochs_persisted += 1;
        }
        self.stats.store_bytes = store.stats().bytes;
    }

    /// Packs elements for a store record: `PACKED_LEN` bytes each, in epoch
    /// order (the layout [`Element::unpack`] inverts).
    fn pack_elements(elements: &[Element]) -> Vec<u8> {
        let mut out = Vec::with_capacity(elements.len() * Element::PACKED_LEN);
        for e in elements {
            out.extend_from_slice(&e.pack());
        }
        out
    }

    /// Inverse of [`Self::pack_elements`].
    fn unpack_elements(bytes: &[u8]) -> Vec<Element> {
        bytes
            .chunks_exact(Element::PACKED_LEN)
            .map(|chunk| Element::unpack(chunk.try_into().expect("exact chunks")))
            .collect()
    }

    /// Packs epoch-proofs for a store record: `PROOF_LEN` (80) bytes each —
    /// epoch (8 LE) ‖ signer (8 LE) ‖ MAC (64).
    fn pack_proofs(proofs: &[EpochProof]) -> Vec<u8> {
        let mut out = Vec::with_capacity(proofs.len() * setchain_store::PROOF_LEN);
        for p in proofs {
            out.extend_from_slice(&p.epoch.to_le_bytes());
            out.extend_from_slice(&p.signer.0.to_le_bytes());
            out.extend_from_slice(&p.signature.bytes);
        }
        out
    }

    /// Inverse of [`Self::pack_proofs`]. Reconstructing a [`Signature`]
    /// from raw bytes is sound here because only quorum-verified proofs are
    /// ever persisted, and the recovery path replays them without granting
    /// them any authority a fresh proof would not get.
    fn unpack_proofs(bytes: &[u8]) -> Vec<EpochProof> {
        bytes
            .chunks_exact(setchain_store::PROOF_LEN)
            .map(|chunk| {
                let epoch = u64::from_le_bytes(chunk[0..8].try_into().expect("exact chunks"));
                let signer = ProcessId(u64::from_le_bytes(
                    chunk[8..16].try_into().expect("exact chunks"),
                ));
                let mut mac = [0u8; 64];
                mac.copy_from_slice(&chunk[16..80]);
                EpochProof {
                    epoch,
                    signer,
                    signature: Signature { signer, bytes: mac },
                }
            })
            .collect()
    }

    /// Read access to the admission cache (hit/miss counters for reports).
    pub fn admission_cache(&self) -> &AdmissionCache {
        &self.admission
    }

    /// [`Self::admission_cache`] as a one-element slice. Frozen-benchmark
    /// leftover: `benchmark/src/run.rs` iterates it (it predates the removal
    /// of per-shard caches) and cannot change outside a benchmark PR.
    pub fn admission_caches(&self) -> &[AdmissionCache] {
        std::slice::from_ref(&self.admission)
    }

    /// This server's process id.
    pub fn id(&self) -> ProcessId {
        self.keys.id
    }

    /// `valid_element` of each element, in order, through the admission
    /// cache, with no modelled CPU charged.
    pub fn validate_elements(&mut self, elements: &[Element]) -> Vec<bool> {
        let mut verdicts = vec![false; elements.len()];
        let picks = 0..elements.len();
        self.admission
            .verdicts(&self.registry, elements, None, picks, &mut verdicts);
        verdicts
    }

    /// The one place validation CPU is charged: the admission cache's
    /// verdicts for `elements[i]`, `i` in `picks` order, into `out` (`memo`
    /// is the batch they belong to, if any), charging one
    /// [`VALIDATE_ELEMENT_COST`](crate::config::VALIDATE_ELEMENT_COST) per
    /// admission-cache miss. The modelled server keeps the same cache, so it
    /// checks an authenticator exactly when the host does; a cached verdict
    /// costs nothing.
    fn validate_charged(
        &mut self,
        ctx: &mut Ctx<'_, '_, '_>,
        elements: &[Element],
        memo: Option<&Batch>,
        picks: impl ExactSizeIterator<Item = usize>,
        out: &mut [bool],
    ) {
        let misses_before = self.admission.misses();
        self.admission
            .verdicts(&self.registry, elements, memo, picks, out);
        let misses = self.admission.misses() - misses_before;
        ctx.consume_cpu(crate::config::VALIDATE_ELEMENT_COST * misses);
    }

    /// Keeps the `picks` whose element of `batch` is valid, unless the
    /// deployment runs a light ablation (`config.light`, which a Vanilla
    /// server never keeps: see
    /// [`SetchainServer::new`](crate::SetchainServer::new)). Validated
    /// through [`Self::validate_charged`], so only cache misses are charged
    /// and a miss reads the verdict `batch` remembers. Each rejected id is
    /// counted once in [`ServerStats::elements_rejected`], so a Byzantine
    /// batch repeating one forged element does not inflate the counter; the
    /// set behind that is only built when a rejection occurs.
    fn retain_valid(&mut self, batch: &Batch, picks: &mut Vec<usize>, ctx: &mut Ctx<'_, '_, '_>) {
        if self.config.light {
            return;
        }
        let elements = batch.elements.as_slice();
        let mut verdicts = vec![false; picks.len()];
        self.validate_charged(
            ctx,
            elements,
            Some(batch),
            picks.iter().copied(),
            &mut verdicts,
        );
        let mut verdicts = verdicts.into_iter();
        let mut rejected: Option<FxHashSet<ElementId>> = None;
        let stats = &mut self.stats;
        picks.retain(|&i| {
            let ok = verdicts.next().expect("one verdict per pick");
            if !ok
                && rejected
                    .get_or_insert_with(FxHashSet::default)
                    .insert(elements[i].id)
            {
                stats.elements_rejected += 1;
            }
            ok
        });
    }

    /// Overload gate for client-facing submissions, called by every variant
    /// *before* any authenticator is verified: with a quota
    /// configured, probes `from`'s token bucket and pending cap for
    /// `elements` more elements. On a shed the whole submission is refused
    /// with zero validation CPU spent, the drop is attributed to
    /// [`adds_rejected_quota`](ServerStats::adds_rejected_quota), and the
    /// sender is told to back off via [`SetchainMsg::Rejected`].
    ///
    /// Messages from peer servers are never quota-checked: their gossip is
    /// committed-path and must not be shed. With no quota configured this
    /// returns `true` without touching the context — the exact pre-quota
    /// schedule.
    pub fn admit_source(
        &mut self,
        from: ProcessId,
        elements: u64,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> bool {
        let Some(quota) = self.quota.as_mut() else {
            return true;
        };
        if from.is_server() {
            return true;
        }
        match quota.admit(from, elements, ctx.now()) {
            crate::quota::QuotaVerdict::Admit => true,
            crate::quota::QuotaVerdict::Shed { retry_after } => {
                self.stats.adds_rejected_quota += elements;
                ctx.send_app(from, SetchainMsg::Rejected { retry_after });
                false
            }
        }
    }

    /// Read access to the quota state (shed counters and per-client pending
    /// levels for reports); `None` when admission is unmetered.
    pub fn quota(&self) -> Option<&crate::quota::QuotaState> {
        self.quota.as_ref()
    }

    /// The one bookkeeping step for elements stamped into an epoch, by
    /// [`Self::create_epoch`]. Their admission verdicts are freed: every
    /// lookup tests `history` first, so none of them can decide anything
    /// again. Their pending-cap capacity is released (no-op without
    /// a quota); over-release for elements that were never counted — gossip
    /// arrivals stamped here, or elements admitted before a restart —
    /// saturates at zero per client, so mixed routing can transiently
    /// under-count pending but never wedge a client.
    fn note_stamped(&mut self, elements: &[Element]) {
        for e in elements {
            self.admission.forget(&e.id);
            if let Some(quota) = self.quota.as_mut() {
                quota.note_stamped(e.client, 1);
            }
        }
    }

    /// The paper's `add(e)` precondition: `valid_element(e) ∧ e ∉ the_set`.
    /// On success the element is inserted into `the_set` and `true` is
    /// returned; the caller routes it (ledger append or collector).
    ///
    /// An id already in `history` is a duplicate whatever its contents, and
    /// is refused before the admission cache is asked (its verdict was freed
    /// when it was stamped), so a tampered replay of it costs no MAC and no
    /// modelled CPU. Otherwise the check is charged only on a cache miss.
    pub fn accept_add(&mut self, element: &Element, ctx: &mut Ctx<'_, '_, '_>) -> bool {
        if self.byz == ServerByzMode::DropClientAdds {
            self.stats.adds_rejected_invalid += 1;
            return false;
        }
        if self.state.in_history(&element.id) {
            self.stats.adds_rejected_duplicate += 1;
            return false;
        }
        // Verdicts go into a caller's slice so that this per-element path
        // allocates nothing: returning a `Vec` per add lost 16 of 20
        // alternating `hash_steady` pairs against a path without one, about
        // 3 % of the wall rate (2-core host).
        let mut valid = [false];
        self.validate_charged(ctx, std::slice::from_ref(element), None, 0..1, &mut valid);
        if !valid[0] {
            self.stats.adds_rejected_invalid += 1;
            return false;
        }
        if self.state.contains(&element.id) {
            self.stats.adds_rejected_duplicate += 1;
            return false;
        }
        self.state.insert(element.id);
        self.stats.adds_accepted += 1;
        if let Some(quota) = self.quota.as_mut() {
            quota.note_admitted(element.client, 1);
        }
        true
    }

    /// Handles `get` and `get_epoch` requests from clients.
    pub fn handle_get(
        &mut self,
        from: ProcessId,
        msg: &SetchainMsg,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> bool {
        match msg {
            SetchainMsg::Get { request_id } => {
                self.stats.gets_served += 1;
                let snapshot = self.state.snapshot(self.config.proof_quorum());
                ctx.send_app(
                    from,
                    SetchainMsg::GetResponse {
                        request_id: *request_id,
                        snapshot,
                    },
                );
                true
            }
            SetchainMsg::GetEpoch { request_id, epoch } => {
                self.stats.gets_served += 1;
                let elements = self
                    .state
                    .epoch_elements(*epoch)
                    .unwrap_or_default()
                    .to_vec();
                let proofs = self.state.proofs_for(*epoch).to_vec();
                ctx.send_app(
                    from,
                    SetchainMsg::EpochResponse {
                        request_id: *request_id,
                        epoch: *epoch,
                        elements,
                        proofs,
                    },
                );
                true
            }
            _ => false,
        }
    }

    /// Validates and records epoch-proof `proof`, extracted from the ledger
    /// (the paper's `valid_proof(j, p, w, history[j])` filter): carried in
    /// a Hashchain or Compresschain batch, or a Vanilla `Proof`
    /// transaction. When the proof count for the epoch reaches `f + 1`,
    /// the commit is reported to the experiment trace.
    ///
    /// Every server pays `SIG_VERIFY_COST`. The host verifies in full
    /// only a proof that no list of proofs for the epoch's batch
    /// allocation holds yet: this server's own list or the one the batch's
    /// memo keeps, whose every entry was found valid against the same
    /// digest (see `SetchainState::holds_verified_proof`). Debug builds
    /// check every such hit against a fresh verification.
    ///
    /// Returns `false` only for a proof naming an epoch this server has not
    /// derived yet: it is rejected, but the same bytes may verify once the
    /// ledger derives the epoch, so a caller that skips repeat deliveries
    /// (Hashchain's once-per-batch rule) must deliver it again. Nothing is
    /// asked of the signer: a server that is behind gets the blocks that
    /// derive the epoch through ledger block sync. Every other verdict is
    /// final for these bytes.
    pub fn ingest_proof(&mut self, proof: EpochProof, ctx: &mut Ctx<'_, '_, '_>) -> bool {
        ctx.consume_cpu(SIG_VERIFY_COST);
        // The digest of every recorded epoch is cached at creation time, so
        // verifying the up-to-n proofs of an epoch re-hashes nothing.
        let Some(&digest) = self.state.epoch_digest(proof.epoch) else {
            self.stats.proofs_rejected += 1;
            return proof.epoch <= self.state.epoch();
        };
        let verify =
            |core: &mut Self| core.server_signed(proof.signer, digest.as_bytes(), &proof.signature);
        let held = self.state.holds_verified_proof(&proof);
        debug_assert!(
            !held || verify(self) == Some(true),
            "an epoch-proof memo is stale"
        );
        if !held && verify(self) != Some(true) {
            self.stats.proofs_rejected += 1;
            return true;
        }
        self.stats.proofs_received += 1;
        let count = self.state.add_proof(proof);
        if count == self.config.proof_quorum() {
            self.trace.record_epoch_commit(proof.epoch, ctx.now());
            self.persist_committed();
        }
        true
    }

    /// Creates the next epoch out of one batch or block: its valid (unless
    /// the deployment runs a light ablation), not-yet-stamped,
    /// de-duplicated elements form `G`. The epoch is recorded in the state
    /// and the trace, and this server's epoch-proof for it is returned.
    ///
    /// `batch` is the batch as the run holds it: Hashchain's
    /// `hash_to_batch` (an empty batch when the contents never arrived),
    /// Compresschain's committed block, Vanilla's block (its memo's
    /// [`Batch`]). On an admission-cache miss, the host reads the verdict
    /// the batch remembers; the server still counts and pays the miss.
    /// When nothing was filtered out, `G` is the batch itself — the same
    /// multiset, so the same canonical tree: the epoch is recorded by
    /// sharing that `Arc`, and its digest is finished from the batch's
    /// root, which the host computes once per batch (Hashchain's batch hash
    /// commits to the same root). Any filtered element — a duplicate id, an
    /// already-stamped or invalid element — records `G` as a batch of its
    /// own, rooted once.
    ///
    /// An epoch the store replay already recorded at open is not recorded
    /// again: this server signs its stored digest (the fast-forward path).
    /// The store is the only thing that puts `state` ahead of the ledger.
    pub fn create_epoch(&mut self, batch: &Arc<Batch>, ctx: &mut Ctx<'_, '_, '_>) -> EpochProof {
        let g = self.extract_epoch_candidates(batch, ctx);
        self.derived_epochs += 1;
        if self.derived_epochs <= self.state.epoch() {
            // The store replay already recorded this epoch with its f+1
            // epoch-proofs; the ledger replay is now re-deriving it, and
            // recording it again would double-stamp its elements. Sign the
            // stored digest instead, so peers still receive this server's
            // proof for the epoch.
            ctx.consume_cpu(SIGN_COST);
            return self.own_proof(self.derived_epochs);
        }
        self.note_stamped(&g.elements);
        let epoch = self.state.record_epoch(Arc::clone(&g));
        debug_assert_eq!(
            epoch, self.derived_epochs,
            "ledger-derived epochs are sequential"
        );
        self.stats.epochs_created += 1;
        self.trace.record_epoch(epoch, &g);
        // Hash + sign cost for the epoch-proof.
        let bytes: usize = g.elements.iter().map(|e| e.wire_size()).sum();
        ctx.consume_cpu(hash_cost(bytes));
        ctx.consume_cpu(SIGN_COST);
        self.own_proof(epoch)
    }

    /// This server's epoch-proof for a recorded epoch: the digest
    /// `record_epoch` cached, signed with the precomputed schedule (a
    /// forgery under [`ServerByzMode::ForgeProofs`]).
    fn own_proof(&self, epoch: u64) -> EpochProof {
        let digest = self.state.epoch_digest(epoch).expect("recorded epoch");
        let mut proof = make_epoch_proof_with_key(&self.own_key, self.keys.id, epoch, digest);
        if self.byz == ServerByzMode::ForgeProofs {
            proof.signature = Signature::forged(self.keys.id);
        }
        proof
    }

    /// Where this server's own epoch-proof goes: Vanilla appends it as its
    /// own transaction (`L.append(p)`), the batching algorithms add it to
    /// the batch under construction. True if that makes the batch ready
    /// (`isReady(batch)`): the caller flushes it before it handles the
    /// next transaction.
    pub(crate) fn route_own_proof(&mut self, proof: EpochProof, ctx: &mut Ctx<'_, '_, '_>) -> bool {
        let Some(collector) = self.collector.as_mut() else {
            ctx.append(SetchainTx::Proof(proof.into()));
            return false;
        };
        collector.add_proof(proof);
        collector.is_ready()
    }

    /// Drains the batch under construction for a flush.
    ///
    /// # Panics
    ///
    /// If this server collects no batch (Vanilla) or the batch is empty
    /// (the algorithm's `assert batch ≠ ∅`).
    pub(crate) fn take_batch(&mut self, now: SimTime) -> Batch {
        self.collector
            .as_mut()
            .expect("only a batching algorithm flushes")
            .flush(now)
    }

    /// The end of every flush: `tx`, the ledger transaction that carries
    /// the flushed batch's `elements`, is appended and counted, and each
    /// element is traced to it.
    pub(crate) fn append_batch(
        &mut self,
        tx: SetchainTx,
        elements: &[Element],
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        self.stats.batches_flushed += 1;
        let tx_id = tx.tx_id();
        for e in elements {
            self.trace.record_tx_assignment(e.id, tx_id);
        }
        ctx.append(tx);
    }

    /// First-pass admission of a recovered batch's elements: drops the
    /// already-stamped ones, keeps the valid rest (unless the deployment
    /// runs a light ablation) through `retain_valid`, as the epoch path
    /// does, and inserts their ids into `the_set`. The epoch itself is
    /// built later, at consolidation, through [`Self::create_epoch`]; this
    /// is the "valid elements join `the_set` immediately" half of batch
    /// processing.
    pub fn admit_batch_elements(&mut self, batch: &Batch, ctx: &mut Ctx<'_, '_, '_>) {
        let elements = batch.elements.as_slice();
        let mut picks = std::mem::take(&mut self.pick_scratch);
        debug_assert!(picks.is_empty());
        picks.extend((0..elements.len()).filter(|&i| !self.state.in_history(&elements[i].id)));
        self.retain_valid(batch, &mut picks, ctx);
        for &i in &picks {
            self.state.insert(elements[i].id);
        }
        picks.clear();
        self.pick_scratch = picks;
    }

    /// True if `signature` is `signer`'s over `bytes` and `signer` is a
    /// server of this deployment: the paper's `valid_proof` signature check
    /// against an epoch digest (the verdict of
    /// [`crate::proofs::verify_epoch_proof_digest`]) and its
    /// `valid_hash(h, s, w)` against a batch hash, computed afresh through
    /// the per-signer schedule cache, so a signer's HMAC key pads are not
    /// rebuilt per check. `None` when the signer is missing from the
    /// registry, a rejection that lasts only until it registers. Block
    /// processing asks it through [`Self::ingest_proof`] and
    /// [`Self::valid_hash`], which read the host's memos first.
    fn server_signed(
        &mut self,
        signer: ProcessId,
        bytes: &[u8],
        signature: &Signature,
    ) -> Option<bool> {
        if signature.signer != signer || !self.config.is_server(signer) {
            return Some(false);
        }
        self.verifier.check(&self.registry, bytes, signature)
    }

    /// `valid_hash(h, s, w)` as block processing asks it. The host computes
    /// the verdict once per hash-batch allocation: every server's copy of
    /// a block shares the transaction's `Arc<HashBatch>`, so one server
    /// computes it and every other reads it (see `HashBatch::verdict`);
    /// each still pays `SIG_VERIFY_COST` at its call site.
    pub fn valid_hash(&mut self, hb: &HashBatch) -> bool {
        hb.verdict(|| self.server_signed(hb.signer, hb.hash.as_bytes(), &hb.signature))
    }

    /// Signs a hash-batch with this server's precomputed key schedule.
    pub fn make_hash_batch(&self, hash: Digest512) -> HashBatch {
        let signature = sign_with(&self.own_key, self.keys.id, hash.as_bytes());
        HashBatch::signed(hash, self.keys.id, signature)
    }

    /// Filters the elements of a batch/block down to the set `G` that forms a
    /// new epoch: valid elements (unless the deployment runs a light
    /// ablation) that are not yet in `history`, de-duplicated. `G` is
    /// `batch` itself when nothing was filtered out, else a batch of the
    /// survivors.
    ///
    /// The deduplicated candidates are validated through
    /// [`Self::retain_valid`]. A Hashchain server cached these verdicts in
    /// `admit_batch_elements`, so an honest batch costs nothing here.
    fn extract_epoch_candidates(
        &mut self,
        batch: &Arc<Batch>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> Arc<Batch> {
        let elements = batch.elements.as_slice();
        let mut seen = std::mem::take(&mut self.seen_scratch);
        let mut picks = std::mem::take(&mut self.pick_scratch);
        debug_assert!(seen.is_empty() && picks.is_empty());
        for (i, e) in elements.iter().enumerate() {
            if self.state.in_history(&e.id) || !seen.insert(e.id) {
                continue;
            }
            picks.push(i);
        }
        seen.clear();
        self.seen_scratch = seen;
        self.retain_valid(batch, &mut picks, ctx);
        let g = if picks.len() == elements.len() {
            Arc::clone(batch)
        } else {
            let survivors = picks.iter().map(|&i| elements[i]).collect();
            Arc::new(Batch::new(survivors, Vec::new()))
        };
        picks.clear();
        self.pick_scratch = picks;
        g
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::VALIDATE_ELEMENT_COST;
    use crate::element::ElementId;
    use crate::hashchain::batch_hash;
    use crate::proofs::{epoch_hash, epoch_hash_for_root, epoch_root, make_epoch_proof_for_digest};
    use setchain_ledger::Block;
    use setchain_simnet::{SimDuration, SimTime};

    fn core_with(seed: u64, servers: usize, clients: usize) -> (ServerCore, KeyRegistry) {
        let registry = KeyRegistry::bootstrap(seed, servers, clients);
        let keys = registry.lookup(ProcessId::server(0)).unwrap();
        let core = ServerCore::new(
            keys,
            registry.clone(),
            SetchainConfig::new(servers),
            SetchainTrace::new(),
            ServerByzMode::Correct,
        );
        (core, registry)
    }

    /// Builds an element from a compact spec: `(client index, sequence,
    /// size, kind)` where kind 0 = valid, 1 = forged authenticator,
    /// 2 = tampered size, 3 = signed with a server key, 4 = signed with a
    /// *different* client's key (a Byzantine client impersonation), and the
    /// client index may point outside the registered set.
    fn element_from_spec(
        registry: &KeyRegistry,
        clients: usize,
        spec: (usize, u64, u32, u8),
    ) -> Element {
        let (client_idx, seq, size, kind) = spec;
        let client = ProcessId::client(client_idx);
        let id = ElementId::new(client_idx as u32, seq);
        match kind {
            1 => Element::forged(client, id, size),
            2 => {
                let keys = registry
                    .lookup(ProcessId::client(client_idx % clients))
                    .unwrap();
                let mut e = Element::new(&keys, id, size.max(1), seq);
                e.size = e.size.wrapping_add(7);
                e.client = client;
                e
            }
            3 => {
                let keys = registry.lookup(ProcessId::server(0)).unwrap();
                let mut e = Element::new(&keys, id, size, seq);
                // Keep the server as the claimed signer.
                e.client = ProcessId::server(0);
                e
            }
            4 => {
                let other = registry
                    .lookup(ProcessId::client((client_idx + 1) % clients))
                    .unwrap();
                let mut e = Element::new(&other, id, size, seq);
                e.client = client; // claims a client whose key did not sign
                e
            }
            _ => match registry.lookup(client) {
                Some(keys) => Element::new(&keys, id, size, seq),
                None => Element::forged(client, id, size),
            },
        }
    }

    /// A batch of `elements` held by one server alone: its memo is read by
    /// nobody else.
    fn own_batch(elements: &[Element]) -> Arc<Batch> {
        Arc::new(Batch::new(elements.to_vec(), vec![]))
    }

    /// Unique temp directory for store-backed cores, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(label: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "setchain-server-{label}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn store_core(seed: u64, cfg: StoreConfig) -> (ServerCore, KeyRegistry) {
        let registry = KeyRegistry::bootstrap(seed, 4, 3);
        let keys = registry.lookup(ProcessId::server(0)).unwrap();
        let core = ServerCore::new(
            keys,
            registry.clone(),
            SetchainConfig {
                store: Some(cfg),
                ..SetchainConfig::new(4)
            },
            SetchainTrace::new(),
            ServerByzMode::Correct,
        );
        (core, registry)
    }

    /// Records `epochs` committed epochs on `core`: each epoch gets
    /// `quorum` distinct valid signers and is flushed to the store.
    fn commit_epochs(core: &mut ServerCore, registry: &KeyRegistry, epochs: u64) {
        let client = registry.lookup(ProcessId::client(0)).unwrap();
        for e in 1..=epochs {
            let elements: Vec<Element> = (0..4)
                .map(|i| Element::new(&client, ElementId::new(0, e * 10 + i), 100 + i as u32, i))
                .collect();
            assert_eq!(core.state.record_epoch(own_batch(&elements)), e);
            let digest = *core.state.epoch_digest(e).unwrap();
            for s in 0..core.config.proof_quorum() {
                let signer = registry.lookup(ProcessId::server(s)).unwrap();
                core.state
                    .add_proof(make_epoch_proof_for_digest(&signer, e, &digest));
            }
            core.persist_committed();
        }
    }

    #[test]
    fn store_persists_commits_and_recovers_on_reopen() {
        let tmp = TempDir::new("reopen");
        let cfg = StoreConfig::new(tmp.0.to_str().unwrap());
        let (mut core, registry) = store_core(83, cfg.clone());
        commit_epochs(&mut core, &registry, 5);
        assert_eq!(core.stats.epochs_persisted, 5);
        assert!(core.stats.store_bytes > 0);
        let digests: Vec<_> = (1..=5)
            .map(|e| *core.state.epoch_digest(e).unwrap())
            .collect();
        let elements: Vec<_> = (1..=5)
            .map(|e| core.state.epoch_elements(e).unwrap().to_vec())
            .collect();
        drop(core);

        // Reopen: the replayed state matches epoch-for-epoch, every epoch
        // is already committed (quorum replayed from the store), and
        // nothing needs re-persisting.
        let (mut reopened, _) = store_core(83, cfg);
        assert_eq!(reopened.state.epoch(), 5);
        assert_eq!(reopened.persisted, 5);
        assert_eq!(
            reopened.stats.epochs_persisted, 0,
            "recovered, not re-appended"
        );
        for e in 1..=5u64 {
            assert_eq!(
                reopened.state.epoch_digest(e).unwrap(),
                &digests[e as usize - 1]
            );
            assert_eq!(
                reopened.state.epoch_elements(e).unwrap(),
                &elements[e as usize - 1][..]
            );
            assert!(reopened.state.proof_count(e) >= reopened.config.proof_quorum());
        }
        // The durable frontier is exact: persist_committed is a no-op.
        reopened.persist_committed();
        assert_eq!(reopened.stats.epochs_persisted, 0);
    }

    /// Hosts a `ServerCore` on a one-node ledger so a test can call the
    /// `Ctx`-taking entry points: `on_start` hands the core and a live
    /// context to the test body (and leaves `None` behind).
    struct CtxProbe<F>(Option<(ServerCore, KeyRegistry, F)>);

    impl<F> setchain_ledger::Application for CtxProbe<F>
    where
        F: FnOnce(&mut ServerCore, &KeyRegistry, &mut Ctx<'_, '_, '_>) + Send + 'static,
    {
        type Tx = SetchainTx;
        type Msg = SetchainMsg;

        fn on_start(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
            let (mut core, registry, body) = self.0.take().expect("started once");
            body(&mut core, &registry, ctx);
        }

        fn finalize_block(
            &mut self,
            _: &setchain_ledger::Block<SetchainTx>,
            _: &mut Ctx<'_, '_, '_>,
        ) {
        }
    }

    /// Runs `body` against server 0's core — three committed epochs, each
    /// holding the proofs of servers 0 and 1 — and a live context.
    fn with_committed_core<F>(body: F)
    where
        F: FnOnce(&mut ServerCore, &KeyRegistry, &mut Ctx<'_, '_, '_>) + Send + 'static,
    {
        with_core(3, body);
    }

    /// Runs `body` against server 0's core, `epochs` committed epochs in,
    /// and a live context.
    pub(crate) fn with_core<F>(epochs: u64, body: F)
    where
        F: FnOnce(&mut ServerCore, &KeyRegistry, &mut Ctx<'_, '_, '_>) + Send + 'static,
    {
        use setchain_ledger::{ByzMode, LedgerConfig, LedgerNode, LedgerTrace};
        use setchain_simnet::{Simulation, SimulationConfig};

        let (mut core, registry) = core_with(101, 4, 2);
        commit_epochs(&mut core, &registry, epochs);
        let id = ProcessId::server(0);
        let probe = CtxProbe(Some((core, registry.clone(), body)));
        let mut sim = Simulation::new(SimulationConfig::default());
        sim.add_process(
            id,
            Box::new(LedgerNode::new(
                id,
                LedgerConfig::with_validators(4),
                registry.lookup(id).unwrap(),
                registry,
                probe,
                LedgerTrace::new(),
                ByzMode::Correct,
            )),
        );
        // The first step starts the node, which runs the body.
        sim.step();
        let node = sim.process::<LedgerNode<CtxProbe<F>>>(id).unwrap();
        assert!(node.app().0.is_none(), "the test body never ran");
    }

    #[test]
    fn hash_batch_validation() {
        // Four servers' keys in a three-server deployment: server 3's
        // signature is genuine, but it is not one of the n signers.
        let registry = KeyRegistry::bootstrap(11, 4, 2);
        let mut core = ServerCore::new(
            registry.lookup(ProcessId::server(0)).unwrap(),
            registry.clone(),
            SetchainConfig::new(3),
            SetchainTrace::new(),
            ServerByzMode::Correct,
        );
        let hash = setchain_crypto::sha512(b"contents");
        let server = registry.lookup(ProcessId::server(2)).unwrap();
        let hb = HashBatch::new(&server, hash);
        assert!(core.valid_hash(&hb));
        // Signer outside the deployment's server set.
        let outsider = HashBatch::new(&registry.lookup(ProcessId::server(3)).unwrap(), hash);
        assert!(!core.valid_hash(&outsider));
        // Forged signature.
        let mut forged = hb.clone();
        forged.signature = Signature::forged(server.id);
        assert!(!core.valid_hash(&forged));
        // A client cannot produce a valid hash-batch.
        let client = registry.lookup(ProcessId::client(0)).unwrap();
        assert!(!core.valid_hash(&HashBatch::new(&client, hash)));
        // Mismatched claimed signer.
        let mut mismatched = hb.clone();
        mismatched.signer = ProcessId::server(1);
        assert!(!core.valid_hash(&mismatched));
    }

    #[test]
    fn identical_duplicate_of_a_held_proof_is_accepted_without_a_new_signer() {
        // A byte-identical repeat verifies like any valid proof, and adding
        // it again is a no-op on the signer set.
        with_committed_core(|core, _registry, ctx| {
            let held = core.state.proofs_for(2)[1];
            let before = core.state.proof_count(2);
            assert!(core.ingest_proof(held, ctx));
            assert_eq!(core.state.proof_count(2), before);
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(core.stats.proofs_rejected, 0);
        });
    }

    #[test]
    fn held_signer_with_one_flipped_signature_byte_is_rejected() {
        // A forgery reusing a held signer fails the signature check, and the
        // verdict is final: the epoch's digest will not change.
        with_committed_core(|core, _registry, ctx| {
            let held = core.state.proofs_for(2)[1];
            for byte in [0, setchain_crypto::SIGNATURE_LEN - 1] {
                let mut forged = held;
                forged.signature.bytes[byte] ^= 1;
                assert!(core.ingest_proof(forged, ctx));
            }
            assert_eq!(core.stats.proofs_rejected, 2);
            assert_eq!(core.stats.proofs_received, 0);
            // The held proof is not displaced by the forgery.
            assert_eq!(core.state.proofs_for(2)[1], held);
            assert_eq!(core.state.proof_count(2), core.config.proof_quorum());
        });
    }

    #[test]
    fn new_signer_still_takes_the_full_check() {
        // A third server's valid proof is verified and added, its forged
        // twin is not.
        with_committed_core(|core, registry, ctx| {
            let digest = *core.state.epoch_digest(2).unwrap();
            let signer = registry.lookup(ProcessId::server(2)).unwrap();
            let valid = make_epoch_proof_for_digest(&signer, 2, &digest);
            let mut forged = valid;
            forged.signature = Signature::forged(signer.id);
            core.ingest_proof(forged, ctx);
            assert_eq!(core.stats.proofs_rejected, 1);
            assert_eq!(core.state.proof_count(2), 2);
            core.ingest_proof(valid, ctx);
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(core.state.proof_count(2), 3);
        });
    }

    #[test]
    fn proof_for_an_unrecorded_epoch_is_rejected_but_not_final() {
        with_committed_core(|core, registry, ctx| {
            let signer = registry.lookup(ProcessId::server(1)).unwrap();
            let ahead = make_epoch_proof_for_digest(&signer, 9, &epoch_hash(9, &[]));
            // The one verdict that may change later.
            assert!(!core.ingest_proof(ahead, ctx));
            assert_eq!(core.stats.proofs_rejected, 1);
            assert_eq!(core.stats.proofs_received, 0);
            assert_eq!(core.state.proof_count(9), 0);
        });
    }

    #[test]
    fn a_filtered_batch_recomputes_its_epoch_digest() {
        // The batch root stands in for the epoch's only when the batch
        // becomes the epoch whole, and only then is the batch itself shared
        // into `history`. A duplicate id, an already-stamped or an invalid
        // element is filtered out of `G`, so the batch's root (over the
        // whole batch) no longer describes it: `G` is recorded as a batch
        // of its own, and the digest is computed from that batch's root.
        with_core(0, |core, registry, ctx| {
            let valid = |seq| element_from_spec(registry, 2, (0, seq, 400, 0));
            let mut sixteen_and_forged: Vec<Element> = (10..26).map(valid).collect();
            sixteen_and_forged.push(element_from_spec(registry, 2, (0, 99, 200, 1)));
            let cases = [
                vec![valid(1), valid(2)],           // clean: the root is reused
                vec![valid(3), valid(4), valid(3)], // duplicate id
                vec![valid(2), valid(5)],           // already stamped in epoch 1
                sixteen_and_forged,                 // one invalid element
            ];
            for (epoch, elements) in (1u64..).zip(cases) {
                let batch = Arc::new(Batch::new(elements, vec![]));
                let root = epoch_root(&batch.elements);
                core.create_epoch(&batch, ctx);
                let stamped = core.state.epoch_elements(epoch).unwrap();
                let recorded = *core.state.epoch_digest(epoch).unwrap();
                assert_eq!(recorded, epoch_hash(epoch, stamped), "epoch {epoch}");
                let whole = stamped.len() == batch.elements.len();
                assert_eq!(whole, epoch == 1, "epoch {epoch}");
                let shared = stamped.as_ptr() == batch.elements.as_ptr();
                assert_eq!(shared, whole, "epoch {epoch}");
                if !whole {
                    let reused = epoch_hash_for_root(epoch, batch.elements.len() as u64, &root);
                    assert_ne!(recorded, reused, "epoch {epoch}");
                }
            }
            assert_eq!(core.state.epoch_elements(4).map(<[_]>::len), Some(16));
            assert_eq!(core.state.epoch(), 4);
        });
    }

    #[test]
    fn packed_proofs_roundtrip() {
        let registry = KeyRegistry::bootstrap(97, 4, 1);
        let keys = registry.lookup(ProcessId::server(2)).unwrap();
        let digest = epoch_hash(7, &[]);
        let proofs = vec![make_epoch_proof_for_digest(&keys, 7, &digest)];
        let packed = ServerCore::pack_proofs(&proofs);
        assert_eq!(packed.len(), setchain_store::PROOF_LEN);
        let unpacked = ServerCore::unpack_proofs(&packed);
        assert_eq!(unpacked.len(), 1);
        assert_eq!(unpacked[0].epoch, 7);
        assert_eq!(unpacked[0].signer, keys.id);
        assert_eq!(unpacked[0].signature.bytes, proofs[0].signature.bytes);
        assert_eq!(unpacked[0].signature.signer, keys.id);
    }

    #[test]
    fn batched_validation_matches_sequential_on_a_large_mixed_batch() {
        let clients = 5usize;
        let (mut core, registry) = core_with(17, 4, clients);
        let n = 320;
        let elements: Vec<Element> = (0..n)
            .map(|i| {
                element_from_spec(
                    &registry,
                    clients,
                    (
                        i % (clients + 2),
                        i as u64,
                        100 + (i % 900) as u32,
                        (i % 5) as u8,
                    ),
                )
            })
            .collect();
        let sequential: Vec<bool> = elements.iter().map(|e| e.is_valid(&registry)).collect();
        let batched = core.validate_elements(&elements);
        assert_eq!(batched, sequential);
        assert!(sequential.iter().any(|v| *v), "some valid elements");
        assert!(sequential.iter().any(|v| !*v), "some invalid elements");
        // Second pass is served from the memo and must agree.
        assert_eq!(core.validate_elements(&elements), sequential);
    }

    #[test]
    fn late_client_registration_is_picked_up() {
        let (mut core, registry) = core_with(31, 2, 1);
        let late = KeyPair::derive(ProcessId::client(5), 777);
        let e = Element::new(&late, ElementId::new(5, 1), 300, 1);
        // Unknown client: invalid through every path, and not memoized.
        assert!(!core.validate_elements(std::slice::from_ref(&e))[0]);
        assert_eq!(core.validate_elements(&[e]), vec![false]);
        // Once the client registers, the same element validates.
        registry.register(late);
        assert!(core.validate_elements(std::slice::from_ref(&e))[0]);
        assert_eq!(core.validate_elements(&[e]), vec![true]);
    }

    #[test]
    fn memo_does_not_trust_tampered_resends_under_a_known_id() {
        let (mut core, registry) = core_with(23, 4, 2);
        let keys = registry.lookup(ProcessId::client(0)).unwrap();
        let good = Element::new(&keys, ElementId::new(0, 1), 400, 9);
        assert!(core.validate_elements(std::slice::from_ref(&good))[0]);
        // Same id, different contents: the cached verdict must not leak.
        let mut tampered = good;
        tampered.content_seed ^= 0xFF;
        assert!(!core.validate_elements(std::slice::from_ref(&tampered))[0]);
        // And the original still validates afterwards.
        assert!(core.validate_elements(std::slice::from_ref(&good))[0]);
    }

    #[test]
    fn regossip_is_served_from_the_admission_cache() {
        let (mut core, registry) = core_with(41, 4, 3);
        let keys = registry.lookup(ProcessId::client(1)).unwrap();
        let mut batch: Vec<Element> = (0..32)
            .map(|i| Element::new(&keys, ElementId::new(1, i), 300 + i as u32, i))
            .collect();
        // Include rejections in the warm-up: a forged element and a
        // server-claimed one, both cacheable verdicts.
        batch.push(Element::forged(
            ProcessId::client(1),
            ElementId::new(1, 99),
            200,
        ));
        let server_keys = registry.lookup(ProcessId::server(1)).unwrap();
        let mut server_claimed = Element::new(&server_keys, ElementId::new(2, 1), 300, 7);
        server_claimed.client = ProcessId::server(1);
        batch.push(server_claimed);

        let first = core.validate_elements(&batch);
        let misses_after_warmup = core.admission_cache().misses();
        assert_eq!(misses_after_warmup, batch.len() as u64);
        // Re-gossip of the identical batch: every verdict — including the
        // cached rejections — comes from the cache, no new misses.
        let second = core.validate_elements(&batch);
        assert_eq!(first, second);
        assert_eq!(core.admission_cache().misses(), misses_after_warmup);
        assert_eq!(core.admission_cache().hits(), batch.len() as u64);
        assert!(!second[32], "forged element stayed rejected on re-gossip");
        assert!(!second[33], "server-claimed element stayed rejected");
    }

    #[test]
    fn a_repeated_element_is_one_miss_per_copy_then_one_hit_per_copy() {
        // Every lookup comes before any miss is recorded, so on a cold cache
        // a slice holding one element three times misses three times; the
        // next call finds the verdict cached for every copy.
        let (mut core, registry) = core_with(43, 4, 1);
        let keys = registry.lookup(ProcessId::client(0)).unwrap();
        let e = Element::new(&keys, ElementId::new(0, 1), 400, 1);
        assert_eq!(core.validate_elements(&[e; 3]), vec![true; 3]);
        assert_eq!(core.admission_cache().misses(), 3);
        assert_eq!(core.admission_cache().hits(), 0);
        assert_eq!(core.validate_elements(&[e; 3]), vec![true; 3]);
        assert_eq!(core.admission_cache().misses(), 3);
        assert_eq!(core.admission_cache().hits(), 3);
    }

    #[test]
    fn a_batch_repeating_one_forgery_is_checked_per_copy_and_rejected_once() {
        // Admission looks every copy up before it checks any, so a cold
        // cache misses (and charges) three times, but the id is rejected
        // once. The epoch cut from the same batch finds the rejection
        // cached: no validation is charged, the one distinct id is counted
        // once more, and the epoch is empty.
        with_core(0, |core, _registry, ctx| {
            let forged = Element::forged(ProcessId::client(0), ElementId::new(0, 7), 300);
            let batch = own_batch(&[forged; 3]);
            let before = ctx.cpu_consumed();
            core.admit_batch_elements(&batch, ctx);
            assert_eq!(ctx.cpu_consumed() - before, VALIDATE_ELEMENT_COST * 3);
            assert_eq!(core.stats.elements_rejected, 1);
            assert!(!core.state.contains(&forged.id));

            let before = ctx.cpu_consumed();
            core.create_epoch(&batch, ctx);
            assert_eq!(ctx.cpu_consumed() - before, hash_cost(0) + SIGN_COST);
            assert_eq!(core.stats.elements_rejected, 2);
            assert_eq!(core.state.epoch(), 1);
            assert_eq!(core.state.epoch_elements(1).map(<[_]>::len), Some(0));
        });
    }

    #[test]
    fn stamped_verdicts_are_freed() {
        with_core(0, |core, registry, ctx| {
            let keys = registry.lookup(ProcessId::client(1)).unwrap();
            let mut batch: Vec<Element> = (0..16)
                .map(|i| Element::new(&keys, ElementId::new(1, i), 300 + i as u32, i))
                .collect();
            batch.push(Element::forged(
                ProcessId::client(1),
                ElementId::new(1, 99),
                200,
            ));
            core.admit_batch_elements(&own_batch(&batch), ctx);
            assert_eq!(core.admission_cache().len(), batch.len());
            core.create_epoch(&own_batch(&batch), ctx);
            assert_eq!(core.state.epoch_elements(1).map(<[_]>::len), Some(16));
            // Only the rejected id keeps its verdict.
            assert_eq!(core.admission_cache().len(), 1);
            // A late copy of the batch looks up no stamped id, so nothing is
            // verified again and nothing is cached again.
            let misses = core.admission_cache().misses();
            core.admit_batch_elements(&own_batch(&batch), ctx);
            assert_eq!(core.admission_cache().misses(), misses);
            assert_eq!(core.admission_cache().len(), 1);
        });
    }

    #[test]
    fn adds_under_a_stamped_id_are_duplicates_and_cost_no_mac() {
        with_core(0, |core, registry, ctx| {
            let keys = registry.lookup(ProcessId::client(0)).unwrap();
            let good = Element::new(&keys, ElementId::new(0, 1), 400, 9);
            assert!(core.accept_add(&good, ctx));
            core.create_epoch(&own_batch(&[good]), ctx);
            assert!(core.state.in_history(&good.id));
            let misses = core.admission_cache().misses();
            // An honest re-send and a tampered replay of the stamped id.
            let mut tampered = good;
            tampered.content_seed ^= 0xFF;
            for e in [good, tampered] {
                assert!(!core.accept_add(&e, ctx));
            }
            assert_eq!(core.stats.adds_rejected_duplicate, 2);
            assert_eq!(core.stats.adds_rejected_invalid, 0);
            assert_eq!(core.admission_cache().misses(), misses);
            // An id not stamped yet still takes the MAC check.
            let mut forged = Element::new(&keys, ElementId::new(0, 2), 400, 10);
            forged.auth ^= 1;
            assert!(!core.accept_add(&forged, ctx));
            assert_eq!(core.stats.adds_rejected_invalid, 1);
            assert_eq!(core.admission_cache().misses(), misses + 1);
        });
    }

    #[test]
    fn an_element_check_is_charged_once_per_cache_miss() {
        /// The modelled CPU `step` charges.
        fn charged(
            ctx: &mut Ctx<'_, '_, '_>,
            step: impl FnOnce(&mut Ctx<'_, '_, '_>),
        ) -> SimDuration {
            let before = ctx.cpu_consumed();
            step(ctx);
            ctx.cpu_consumed() - before
        }

        with_core(0, |core, registry, ctx| {
            let keys = registry.lookup(ProcessId::client(0)).unwrap();
            // An honest element's add, its batch and its epoch: one check.
            let good = Element::new(&keys, ElementId::new(0, 1), 400, 9);
            let add = charged(ctx, |ctx| assert!(core.accept_add(&good, ctx)));
            assert_eq!(add, VALIDATE_ELEMENT_COST);
            let batch = charged(ctx, |ctx| {
                core.admit_batch_elements(&own_batch(&[good]), ctx)
            });
            assert_eq!(batch, SimDuration::ZERO);
            let epoch = charged(ctx, |ctx| {
                core.create_epoch(&own_batch(&[good]), ctx);
            });
            assert_eq!(epoch, hash_cost(good.wire_size()) + SIGN_COST);
            assert!(core.state.in_history(&good.id));

            // A tampered re-send under an admitted id is a miss: checked
            // and charged again, and refused.
            let next = Element::new(&keys, ElementId::new(0, 2), 400, 10);
            let mut tampered = next;
            tampered.content_seed ^= 0xFF;
            let add = charged(ctx, |ctx| assert!(core.accept_add(&next, ctx)));
            assert_eq!(add, VALIDATE_ELEMENT_COST);
            let resend = charged(ctx, |ctx| {
                core.admit_batch_elements(&own_batch(&[tampered]), ctx)
            });
            assert_eq!(resend, VALIDATE_ELEMENT_COST);
            assert_eq!(core.stats.elements_rejected, 1);

            // Replays of the stamped id, honest or tampered, cost nothing.
            let mut stale = good;
            stale.content_seed ^= 0xFF;
            for e in [good, stale] {
                let replay = charged(ctx, |ctx| assert!(!core.accept_add(&e, ctx)));
                assert_eq!(replay, SimDuration::ZERO);
                let replay = charged(ctx, |ctx| core.admit_batch_elements(&own_batch(&[e]), ctx));
                assert_eq!(replay, SimDuration::ZERO);
            }
        });
    }

    /// Server `index`'s core on `registry`, configured like [`with_core`]'s.
    fn peer_core(registry: &KeyRegistry, index: usize) -> ServerCore {
        ServerCore::new(
            registry.lookup(ProcessId::server(index)).unwrap(),
            registry.clone(),
            SetchainConfig::new(4),
            SetchainTrace::new(),
            ServerByzMode::Correct,
        )
    }

    /// What a core did with one batch: the CPU each step charged, its
    /// admission-cache counters, its rejections, whether each element's id
    /// is in `the_set` after admission, and the epoch it cut.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        admit_cpu: SimDuration,
        epoch_cpu: SimDuration,
        hits: u64,
        misses: u64,
        rejected: u64,
        members: Vec<bool>,
        the_set_len: usize,
        epoch: Vec<Element>,
        digest: Digest512,
    }

    /// Stamps `stamped` into epoch 1, then admits `batch` and cuts epoch 2
    /// out of it.
    fn admit_then_epoch(
        core: &mut ServerCore,
        stamped: &[Element],
        batch: &Arc<Batch>,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> Outcome {
        core.create_epoch(&own_batch(stamped), ctx);
        let before = ctx.cpu_consumed();
        core.admit_batch_elements(batch, ctx);
        let admitted = ctx.cpu_consumed();
        let members = batch
            .elements
            .iter()
            .map(|e| core.state.contains(&e.id))
            .collect();
        let the_set_len = core.state.the_set_len();
        core.create_epoch(batch, ctx);
        Outcome {
            admit_cpu: admitted - before,
            epoch_cpu: ctx.cpu_consumed() - admitted,
            hits: core.admission_cache().hits(),
            misses: core.admission_cache().misses(),
            rejected: core.stats.elements_rejected,
            members,
            the_set_len,
            epoch: core.state.epoch_elements(2).unwrap().to_vec(),
            digest: *core.state.epoch_digest(2).unwrap(),
        }
    }

    #[test]
    fn a_clone_of_a_hashed_batch_starts_with_an_empty_memo() {
        with_core(0, |core, registry, ctx| {
            let elements = (0..40)
                .map(|seq| element_from_spec(registry, 2, (0, seq, 400, 0)))
                .collect();
            let batch = Arc::new(Batch::new(elements, vec![]));
            let (root, hash) = (batch.root(), batch.hash());
            // Every verdict is a miss here, so the memo holds all forty.
            core.admit_batch_elements(&batch, ctx);
            assert_eq!(core.state.the_set_len(), 40);

            // Element 33 sits in the second word of verdicts.
            let mut clone = Batch::clone(&batch);
            clone.elements[33].auth ^= 1;
            let clone = Arc::new(clone);
            assert_ne!(clone.root(), root);
            assert_ne!(clone.hash(), hash);
            assert_eq!(clone.root(), epoch_root(&clone.elements));
            assert_eq!(clone.hash(), batch_hash(&clone.elements, &clone.proofs));
            let mut peer = peer_core(registry, 1);
            peer.admit_batch_elements(&clone, ctx);
            assert_eq!(peer.stats.elements_rejected, 1);
            assert!(!peer.state.contains(&clone.elements[33].id));
            assert_eq!(peer.state.the_set_len(), 39);

            // The original keeps its own values.
            assert_eq!((batch.root(), batch.hash()), (root, hash));
            let mut other = peer_core(registry, 2);
            other.admit_batch_elements(&batch, ctx);
            assert_eq!(other.state.the_set_len(), 40);
        });
    }

    #[test]
    fn an_unregistered_clients_verdict_is_not_shared() {
        with_core(0, |core, registry, ctx| {
            let late = KeyPair::derive(ProcessId::client(5), 777);
            let e = Element::new(&late, ElementId::new(5, 1), 300, 1);
            let batch = Arc::new(Batch::new(vec![e], vec![]));
            core.admit_batch_elements(&batch, ctx);
            assert_eq!(core.stats.elements_rejected, 1);
            assert!(!core.state.contains(&e.id));

            // The client registers after the first server's miss: the
            // second server checks the element itself, and admits it.
            registry.register(late);
            let mut peer = peer_core(registry, 1);
            let before = ctx.cpu_consumed();
            peer.admit_batch_elements(&batch, ctx);
            assert_eq!(ctx.cpu_consumed() - before, VALIDATE_ELEMENT_COST);
            assert!(peer.state.contains(&e.id));
            assert_eq!(peer.stats.elements_rejected, 0);
            assert_eq!(peer.admission_cache().misses(), 1);
        });
    }

    #[test]
    fn forgeries_in_their_own_allocations_are_rejected_after_the_honest_verdict() {
        with_committed_core(|core, registry, ctx| {
            let signer = registry.lookup(ProcessId::server(2)).unwrap();
            let mut peer = peer_core(registry, 1);

            // The honest hash-batch's verdict is computed once and read by
            // the peer; a clone with one signature byte flipped, and one
            // claiming another hash, are checked afresh and rejected.
            let honest = Arc::new(HashBatch::new(&signer, setchain_crypto::sha512(b"batch")));
            assert!(core.valid_hash(&honest));
            assert!(peer.valid_hash(&honest));
            let mut forged = HashBatch::clone(&honest);
            forged.signature.bytes[0] ^= 1;
            assert!(!peer.valid_hash(&Arc::new(forged)));
            let mut rehashed = HashBatch::clone(&honest);
            rehashed.hash = setchain_crypto::sha512(b"another batch");
            assert!(!peer.valid_hash(&Arc::new(rehashed)));

            // The same for an epoch-proof: the honest proof is remembered
            // in the epoch's proof list; a clone of its carrier with a
            // flipped byte, and a carrier built around the forgery, carry a
            // proof no list holds, and both are rejected.
            let digest = *core.state.epoch_digest(2).unwrap();
            let carrier = Batch::new(
                vec![],
                vec![make_epoch_proof_for_digest(&signer, 2, &digest)],
            );
            assert!(core.ingest_proof(carrier.proofs[0], ctx));
            assert_eq!(core.stats.proofs_received, 1);
            let mut cloned = carrier.clone();
            cloned.proofs[0].signature.bytes[63] ^= 1;
            let built = Batch::new(vec![], cloned.proofs.clone());
            for forged in [cloned, built] {
                assert!(core.ingest_proof(forged.proofs[0], ctx));
            }
            assert_eq!(core.stats.proofs_rejected, 2);
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(core.state.proof_count(2), 3);
        });
    }

    #[test]
    fn a_proof_verdict_is_reused_only_against_the_same_epoch_batch() {
        with_core(0, |core, registry, ctx| {
            let valid = |seq| element_from_spec(registry, 2, (0, seq, 400, 0));
            let whole = Arc::new(Batch::new((0..4).map(valid).collect(), vec![]));
            core.create_epoch(&whole, ctx);
            // A peer that records the same batch as epoch 1 shares it; one
            // whose batch lost a duplicate id to filtering records a `G` of
            // its own, with a digest of its own.
            let mut sharer = peer_core(registry, 1);
            sharer.create_epoch(&whole, ctx);
            let mut filtered = peer_core(registry, 2);
            let twice = Arc::new(Batch::new(vec![valid(0), valid(1), valid(0)], vec![]));
            filtered.create_epoch(&twice, ctx);
            let digest = *core.state.epoch_digest(1).unwrap();
            assert_eq!(sharer.state.epoch_digest(1), Some(&digest));
            assert_ne!(filtered.state.epoch_digest(1), Some(&digest));

            // Server 3's proof, valid for the whole batch's digest alone.
            let signer = registry.lookup(ProcessId::server(3)).unwrap();
            let carrier = Batch::new(
                vec![],
                vec![make_epoch_proof_for_digest(&signer, 1, &digest)],
            );
            for server in [&mut *core, &mut sharer, &mut filtered] {
                assert!(server.ingest_proof(carrier.proofs[0], ctx));
            }
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(sharer.stats.proofs_received, 1);
            assert_eq!(filtered.stats.proofs_received, 0);
            assert_eq!(filtered.stats.proofs_rejected, 1);
            assert_eq!(filtered.state.proof_count(1), 0);
        });
    }

    #[test]
    fn a_rejection_for_a_missing_signer_key_is_not_remembered() {
        with_core(0, |_, registry, ctx| {
            // Two servers of a five-server deployment whose server 4
            // registers late; both record the same batch as epoch 1.
            let client = registry.lookup(ProcessId::client(0)).unwrap();
            let e = Element::new(&client, ElementId::new(0, 1), 300, 1);
            let epoch = Arc::new(Batch::new(vec![e], vec![]));
            let mut servers = [0, 1].map(|i| {
                let mut core = ServerCore::new(
                    registry.lookup(ProcessId::server(i)).unwrap(),
                    registry.clone(),
                    SetchainConfig::new(5),
                    SetchainTrace::new(),
                    ServerByzMode::Correct,
                );
                core.create_epoch(&epoch, ctx);
                core
            });
            let late = KeyPair::derive(ProcessId::server(4), 777);
            let digest = *servers[0].state.epoch_digest(1).unwrap();
            let hb = Arc::new(HashBatch::new(&late, setchain_crypto::sha512(b"late")));
            let carrier = Batch::new(vec![], vec![make_epoch_proof_for_digest(&late, 1, &digest)]);

            // Unregistered: each server rejects both, the second one too.
            for core in &mut servers {
                assert!(!core.valid_hash(&hb));
                assert!(core.ingest_proof(carrier.proofs[0], ctx));
                assert_eq!(core.stats.proofs_rejected, 1);
            }

            // Once the signer registers, the same allocations verify.
            registry.register(late);
            for core in &mut servers {
                assert!(core.valid_hash(&hb));
                assert!(core.ingest_proof(carrier.proofs[0], ctx));
                assert_eq!(core.stats.proofs_received, 1);
            }
        });
    }

    #[test]
    fn the_proof_memo_answers_by_content_not_by_position() {
        with_core(0, |core, registry, ctx| {
            let valid = |seq| element_from_spec(registry, 2, (0, seq, 400, 0));
            let epoch = Arc::new(Batch::new((0..4).map(valid).collect(), vec![]));
            core.create_epoch(&epoch, ctx);
            let mut peer = peer_core(registry, 1);
            peer.create_epoch(&epoch, ctx);
            let digest = *core.state.epoch_digest(1).unwrap();
            let proofs: Vec<EpochProof> = (0..4)
                .map(|i| {
                    let signer = registry.lookup(ProcessId::server(i)).unwrap();
                    make_epoch_proof_for_digest(&signer, 1, &digest)
                })
                .collect();

            // The two servers receive the same valid proofs in opposite
            // orders: the peer finds each in the list the first server
            // built, at another position than its own, and accepts it. A
            // copy of one with a signature byte flipped is in no list, and
            // both reject it: the peer while the shared list holds proofs
            // past its own, the first server once it holds them all.
            let mut forged = proofs[1];
            forged.signature.bytes[0] ^= 1;
            for &p in &proofs {
                assert!(core.ingest_proof(p, ctx));
            }
            assert!(core.ingest_proof(forged, ctx));
            assert!(peer.ingest_proof(proofs[3], ctx));
            assert!(peer.ingest_proof(forged, ctx));
            for &p in proofs[..3].iter().rev() {
                assert!(peer.ingest_proof(p, ctx));
            }
            for server in [&*core, &peer] {
                assert_eq!(server.stats.proofs_received, 4);
                assert_eq!(server.stats.proofs_rejected, 1);
                assert_eq!(server.state.proof_count(1), 4);
            }
            assert_eq!(core.state.proofs_for(1), proofs.as_slice());
            assert!(peer.state.proofs_for(1).iter().eq(proofs.iter().rev()));
        });
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Batched validation accepts/rejects exactly the same
            /// element sets as the sequential `is_valid` path, for arbitrary
            /// mixes of valid, forged, tampered, server-signed and
            /// Byzantine-impersonated elements — including duplicate ids,
            /// unknown clients and degenerate sizes.
            #[test]
            fn prop_batched_validation_equals_sequential(
                specs in proptest::collection::vec(
                    (0usize..8, 0u64..32, 0u32..2000, 0u8..5),
                    0..120,
                ),
                seed in 1u64..500,
            ) {
                let clients = 5usize;
                let (mut core, registry) = core_with(seed, 4, clients);
                let elements: Vec<Element> = specs
                    .iter()
                    .map(|s| element_from_spec(&registry, clients, *s))
                    .collect();
                let sequential: Vec<bool> =
                    elements.iter().map(|e| e.is_valid(&registry)).collect();
                let batched = core.validate_elements(&elements);
                prop_assert_eq!(&batched, &sequential);
                // Re-validation through the memo is stable.
                prop_assert_eq!(&core.validate_elements(&elements), &sequential);
                // The single-element memoized path agrees too.
                for (e, expected) in elements.iter().zip(&sequential) {
                    prop_assert_eq!(core.validate_elements(std::slice::from_ref(e))[0], *expected);
                }
            }

            /// The admission cache never whitelists: after a warm-up pass
            /// populates the cache, any re-gossip — replays of valid,
            /// forged and previously *rejected* elements, plus tampered
            /// twins of cached entries under their known ids — still
            /// produces exactly the sequential `is_valid` verdicts, through
            /// both the batched and the single-element paths.
            #[test]
            fn prop_admission_cache_survives_regossip_and_tampering(
                specs in proptest::collection::vec(
                    (0usize..8, 0u64..32, 0u32..2000, 0u8..5),
                    1..80,
                ),
                tampers in proptest::collection::vec(
                    (0usize..80, 0u8..4),
                    0..40,
                ),
                seed in 1u64..500,
            ) {
                let clients = 5usize;
                let (mut core, registry) = core_with(seed, 4, clients);
                let elements: Vec<Element> = specs
                    .iter()
                    .map(|s| element_from_spec(&registry, clients, *s))
                    .collect();
                // Warm-up: the cache now holds a verdict per cacheable id,
                // including rejections (forged/tampered/server-signed).
                let _ = core.validate_elements(&elements);

                // The re-gossip wave: every original element again, plus
                // tampered twins reusing known ids with altered identity
                // fields (what a Byzantine peer re-sending under a cached
                // id looks like).
                let mut wave = elements.clone();
                for &(idx, kind) in &tampers {
                    let mut twin = elements[idx % elements.len()];
                    match kind {
                        0 => twin.auth ^= 0x1,
                        1 => twin.size = twin.size.wrapping_add(13),
                        2 => twin.content_seed ^= 0xABCD,
                        _ => twin.client = ProcessId::client((twin.id.client_index() as usize + 1) % clients),
                    }
                    wave.push(twin);
                }
                let sequential: Vec<bool> =
                    wave.iter().map(|e| e.is_valid(&registry)).collect();
                let batched = core.validate_elements(&wave);
                prop_assert_eq!(&batched, &sequential);
                for (e, expected) in wave.iter().zip(&sequential) {
                    prop_assert_eq!(core.validate_elements(std::slice::from_ref(e))[0], *expected);
                }
            }

            /// A shared batch's host memo changes nothing a server does:
            /// two servers that admit and then epoch the same
            /// `Arc<Batch>`, the second reading what the first computed,
            /// charge the CPU, count the cache hits, misses and
            /// rejections, and end with the `the_set` and epoch of two
            /// servers given the same elements in batches of their own.
            /// Batches mix
            /// forged, tampered, server-signed and impersonated elements,
            /// duplicate ids, ids already stamped, and clients missing from
            /// the registry (two of the four client indices drawn).
            #[test]
            fn prop_a_shared_batch_is_admitted_and_epoched_like_plain_slices(
                specs in proptest::collection::vec(
                    (0usize..4, 0u64..24, 0u32..2000, 0u8..5),
                    1..80,
                ),
                stamped in proptest::collection::vec(0u64..24, 0..8),
            ) {
                with_core(0, move |core, registry, ctx| {
                    let clients = 2;
                    let elements: Vec<Element> = specs
                        .iter()
                        .map(|s| element_from_spec(registry, clients, *s))
                        .collect();
                    let stamped: Vec<Element> = stamped
                        .iter()
                        .map(|&seq| element_from_spec(registry, clients, (0, seq, 400, 0)))
                        .collect();
                    let batch = Arc::new(Batch::new(elements.clone(), vec![]));
                    let [mut second, mut plain, mut plain_second] =
                        [1, 2, 3].map(|i| peer_core(registry, i));
                    let first = admit_then_epoch(core, &stamped, &batch, ctx);
                    let second = admit_then_epoch(&mut second, &stamped, &batch, ctx);
                    let alone = admit_then_epoch(&mut plain, &stamped, &own_batch(&elements), ctx);
                    assert_eq!(first, alone);
                    let alone =
                        admit_then_epoch(&mut plain_second, &stamped, &own_batch(&elements), ctx);
                    assert_eq!(second, alone);

                    // Every verdict the memo holds is `is_valid`'s.
                    let mut reader = peer_core(registry, 3);
                    let all = 0..elements.len();
                    let mut verdicts = vec![false; elements.len()];
                    let (cache, keys) = (&mut reader.admission, &reader.registry);
                    cache.verdicts(keys, &batch.elements, Some(&batch), all, &mut verdicts);
                    let sequential: Vec<bool> =
                        elements.iter().map(|e| e.is_valid(registry)).collect();
                    assert_eq!(verdicts, sequential);
                });
            }

            /// The block memo changes nothing a Vanilla server does: two
            /// servers that commit clones of one block, the second reading
            /// the batch and the verdicts the first derived through
            /// `Block::shared`, charge the CPU, count the cache hits, misses
            /// and rejections, and end with the `the_set` and epoch of two
            /// servers each given a block of the same transactions with a
            /// memo of its own. Blocks mix valid elements, forged ones (as
            /// `InjectInvalidElements` submits them, and by clients),
            /// duplicate ids, ids already stamped, ids the server accepted
            /// as adds and epoch-proofs (valid, forged, by a non-server, for
            /// the past and for epochs ahead); some blocks are all honest.
            #[test]
            fn prop_a_vanilla_block_is_epoched_through_its_memo_like_per_server_lists(
                specs in proptest::collection::vec(
                    (0usize..4, 0u64..24, 0u32..2000, 0u8..6),
                    0..80,
                ),
                stamped in proptest::collection::vec(0u64..24, 0..8),
                proofs in proptest::collection::vec((0usize..5, 1u64..4, any::<bool>()), 0..6),
                added in 0usize..40,
                honest in any::<bool>(),
            ) {
                with_core(0, move |_, registry, ctx| {
                    let clients = 2;
                    let stamped = own_batch(
                        &stamped
                            .iter()
                            .map(|&seq| element_from_spec(registry, clients, (0, seq, 400, 0)))
                            .collect::<Vec<_>>(),
                    );
                    // Each server is committed once through the shared
                    // memo and once through a memo of its own.
                    let mut cores = [0, 1, 0, 1].map(|i| peer_core(registry, i));
                    for c in &mut cores {
                        c.create_epoch(&stamped, ctx);
                    }
                    let digest = *cores[0].state.epoch_digest(1).unwrap();
                    let mut txs: Vec<SetchainTx> = specs
                        .iter()
                        .enumerate()
                        .map(|(i, &(client, seq, size, kind))| {
                            SetchainTx::Element(match kind {
                                // An honest block: registered clients,
                                // fresh distinct ids.
                                _ if honest => element_from_spec(
                                    registry,
                                    clients,
                                    (i % clients, 100 + i as u64, size, 0),
                                ),
                                5 => Element::forged(
                                    ProcessId::client(0),
                                    ElementId::new(u32::MAX, seq),
                                    200,
                                ),
                                _ => element_from_spec(registry, clients, (client, seq, size, kind)),
                            })
                        })
                        .collect();
                    for (at, &(signer, epoch, forged)) in proofs.iter().enumerate() {
                        let id = ProcessId::server(signer);
                        let keys = registry.lookup(id).unwrap_or_else(|| KeyPair::derive(id, 7));
                        let mut proof = make_epoch_proof_for_digest(&keys, epoch, &digest);
                        if forged {
                            proof.signature = Signature::forged(keys.id);
                        }
                        txs.insert((at * 7).min(txs.len()), SetchainTx::Proof(proof.into()));
                    }
                    let block = Block::new(5, ProcessId::server(1), SimTime::ZERO, txs.into());
                    let own_memo =
                        || Block::new(5, ProcessId::server(1), SimTime::ZERO, Arc::clone(&block.txs));
                    let elements: Vec<Element> = crate::vanilla::block_elements(&block).collect();
                    // Each server accepted the block's first `added`
                    // elements as adds, so their verdicts are cache hits.
                    for c in &mut cores {
                        for e in elements.iter().take(added) {
                            c.accept_add(e, ctx);
                        }
                    }
                    let mut commit = |core: &mut ServerCore, block: &Block<SetchainTx>| {
                        let before = ctx.cpu_consumed();
                        crate::vanilla::finalize_block(core, block, ctx);
                        Outcome {
                            // A Vanilla server admits nothing before the
                            // block commits.
                            admit_cpu: SimDuration::ZERO,
                            epoch_cpu: ctx.cpu_consumed() - before,
                            hits: core.admission_cache().hits(),
                            misses: core.admission_cache().misses(),
                            rejected: core.stats.elements_rejected,
                            members: elements.iter().map(|e| core.state.contains(&e.id)).collect(),
                            the_set_len: core.state.the_set_len(),
                            epoch: core.state.epoch_elements(2).unwrap().to_vec(),
                            digest: *core.state.epoch_digest(2).unwrap(),
                        }
                    };
                    let [first, second, plain, plain_second] = &mut cores;
                    let shared = [commit(first, &block.clone()), commit(second, &block)];
                    let alone = [commit(plain, &own_memo()), commit(plain_second, &own_memo())];
                    assert_eq!(shared, alone);
                    assert_eq!(first.stats, plain.stats);
                    assert_eq!(second.stats, plain_second.stats);

                    // A whole block is one list in both shared histories.
                    let batch = block.shared::<Batch>(|| unreachable!("committed above"));
                    let epoch = |c: &ServerCore| c.state.epoch_elements(2).unwrap().as_ptr();
                    let whole = shared[0].epoch.len() == batch.elements.len();
                    assert_eq!(epoch(first) == batch.elements.as_ptr(), whole);
                    assert_eq!(epoch(second) == batch.elements.as_ptr(), whole);
                    if !batch.elements.is_empty() {
                        assert_ne!(epoch(plain), batch.elements.as_ptr());
                    }

                    // Every verdict the memo holds is `is_valid`'s.
                    let mut reader = peer_core(registry, 3);
                    let all = 0..elements.len();
                    let mut verdicts = vec![false; elements.len()];
                    let (cache, keys) = (&mut reader.admission, &reader.registry);
                    cache.verdicts(keys, &batch.elements, Some(&batch), all, &mut verdicts);
                    let sequential: Vec<bool> =
                        elements.iter().map(|e| e.is_valid(registry)).collect();
                    assert_eq!(verdicts, sequential);
                });
            }
        }
    }
}
