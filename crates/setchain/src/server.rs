//! Code shared by the three Setchain server implementations: client `add` /
//! `get` handling, epoch-proof bookkeeping and epoch creation.

use setchain_crypto::{
    parallel_map, sign_with, Digest512, FxHashMap, FxHashSet, HmacSha256Key, HmacSha512Key,
    KeyPair, KeyRegistry, ProcessId, SigVerifier, Signature,
};
use setchain_ledger::AppCtx;
use setchain_simnet::{SimDuration, SimTime};

use setchain_store::{DiskStore, EpochRecord, StateStore};

use crate::admission::AdmissionCache;
use crate::batch_auth::AuthedBatch;
use crate::byzantine::ServerByzMode;
use crate::config::{SetchainConfig, StoreConfig};
use crate::element::{Element, ElementId};
use crate::messages::SetchainMsg;
use crate::proofs::{epoch_hash, make_epoch_proof_with_key, EpochProof};
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
    /// `the_set` or stamped into an epoch.
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
    /// Hashchain: batch requests that timed out or failed verification.
    pub batch_requests_failed: u64,
    /// `get` / `get_epoch` requests answered.
    pub gets_served: u64,
    /// Batch-authenticated envelopes whose root MAC verified fresh (cache
    /// hits on re-gossiped batches are visible on the admission cache's
    /// root counters instead).
    pub batch_roots_verified: u64,
    /// Batch-authenticated envelopes rejected fresh (bad MAC, tampered or
    /// reordered contents, foreign/unknown owner, empty batch).
    pub batch_roots_rejected: u64,
    /// Catch-up requests this server has issued (restart probes, gap
    /// detections, and follow-up pages of a paged catch-up).
    pub catchup_requests: u64,
    /// Epochs installed from peer catch-up responses after verifying
    /// `f + 1` epoch-proof signers.
    pub epochs_replayed: u64,
    /// Catch-up bundles refused: out-of-order epoch or fewer than `f + 1`
    /// distinct valid proof signers.
    pub catchup_rejections: u64,
    /// Committed epochs appended to this server's persistent store this
    /// session (0 when no store is configured; epochs recovered at open are
    /// not re-counted).
    pub epochs_persisted: u64,
    /// Elements evicted from RAM after their epoch became durable
    /// (bounded-memory mode; 0 unless `retain_epochs` is set).
    pub elements_evicted: u64,
    /// Total bytes across this server's store segments (recovered bytes
    /// included), refreshed on every append.
    pub store_bytes: u64,
}

impl ServerStats {
    /// Total rejected client adds across every cause (the pre-split
    /// `adds_rejected` rollup).
    pub fn adds_rejected(&self) -> u64 {
        self.adds_rejected_invalid + self.adds_rejected_duplicate + self.adds_rejected_quota
    }
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
    /// Precomputed HMAC key schedules, one per registered (non-server)
    /// client this server has validated elements from. Populated lazily;
    /// bounded by the number of clients.
    client_keys: FxHashMap<ProcessId, HmacSha256Key>,
    /// Memoized admission verdicts: an element's authenticator digest is
    /// checked exactly once per server, keyed on the element id and guarded
    /// by the full `(client, size, seed, mac)` identity — see
    /// [`AdmissionCache`]. Verdicts that depend on registry *absence*
    /// (unknown client) are never cached, so a client registered later is
    /// still picked up; replacing an already-registered key mid-run is not
    /// supported by the cache.
    admission: AdmissionCache,
    /// This server's own HMAC key schedule: signing proofs and hash-batches
    /// does not rebuild the key pads per signature.
    own_key: HmacSha512Key,
    /// Per-signer verification schedules for peer proofs and hash-batches.
    verifier: SigVerifier,
    /// Reused index scratch for batched validation (cache misses).
    miss_scratch: Vec<usize>,
    /// Reused element scratch for batched validation (pending checks).
    pending_scratch: Vec<Element>,
    /// Reused in-batch dedup set of [`Self::extract_epoch_candidates`].
    seen_scratch: FxHashSet<ElementId>,
    /// Worker threads for batched parallel validation (resolved once).
    threads: usize,
    /// Epochs this server has *derived* from the ledger (one
    /// [`Self::create_epoch`] call each). Normally equal to
    /// `state.epoch()`; it lags behind after catch-up fast-forwards the
    /// state, and `create_epoch` then skips re-derivation until the ledger
    /// replay passes the catch-up frontier.
    derived_epochs: u64,
    /// `from_epoch` and send time of the outstanding catch-up request, if
    /// any — a rate limit so repeated gap signals do not flood peers. The
    /// entry *expires* after [`CATCHUP_RETRY`]: a request lost to a
    /// partition or crash must not wedge the server behind the tip forever.
    catchup_pending: Option<(u64, SimTime)>,
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
}

/// Upper bound on epochs shipped in one [`SetchainMsg::CatchupResponse`].
/// A requester that is further behind pages: applying a full response
/// triggers a follow-up request to the same responder.
pub const MAX_CATCHUP_EPOCHS: usize = 64;

/// How long an outstanding catch-up request suppresses new ones. After this
/// the request is presumed lost (dropped by a partition, or the responder
/// crashed) and the next gap signal is allowed to re-request.
pub const CATCHUP_RETRY: SimDuration = SimDuration(2_000_000); // 2 s

impl ServerCore {
    /// Creates the shared server state.
    pub fn new(
        keys: KeyPair,
        registry: KeyRegistry,
        config: SetchainConfig,
        trace: SetchainTrace,
        byz: ServerByzMode,
    ) -> Self {
        let own_key = HmacSha512Key::new(&keys.secret.0);
        let mut core = ServerCore {
            keys,
            registry,
            state: SetchainState::new(),
            config,
            trace,
            byz,
            stats: ServerStats::default(),
            client_keys: FxHashMap::default(),
            admission: AdmissionCache::new(),
            own_key,
            verifier: SigVerifier::new(),
            miss_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            seen_scratch: FxHashSet::default(),
            threads: setchain_crypto::default_threads(),
            derived_epochs: 0,
            catchup_pending: None,
            store: None,
            persisted: 0,
            quota: None,
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
    /// [`Self::create_epoch`] fast-forward path (`derived_epochs` stays 0),
    /// exactly as after a peer catch-up.
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
            let recorded = self
                .state
                .record_epoch(Self::unpack_elements(&record.elements));
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
        self.apply_retention();
    }

    /// Flushes every committed-but-unpersisted epoch to the store, in
    /// order: an epoch is flushed once it is the next after the durable
    /// frontier *and* holds its `f + 1` proof quorum. Called on every
    /// quorum event (ledger proofs and catch-up installs), so quorums
    /// reached out of order drain as soon as the gap closes. A store append
    /// failure is fatal — continuing would desynchronize the durable
    /// frontier from `state`.
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
            let elements = self.state.epoch_elements(epoch).expect("not yet evicted");
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
        self.apply_retention();
    }

    /// Bounded-memory eviction: with `retain_epochs = Some(k)`, every epoch
    /// at least `k` behind the durable frontier is dropped from RAM
    /// (elements only — digests and proofs stay resident, so epoch-proof
    /// serving and consistency checks are unaffected). Evicted contents are
    /// read back from the store on demand by [`Self::fetch_epoch_elements`];
    /// their ids never leave `state` (`the_set` is grow-only), so membership
    /// checks still reject a re-add.
    fn apply_retention(&mut self) {
        let Some(retain) = self.config.store.as_ref().and_then(|s| s.retain_epochs) else {
            return;
        };
        let horizon = self.persisted.saturating_sub(retain);
        while self.state.evicted_epochs() < horizon {
            let epoch = self.state.evicted_epochs() + 1;
            self.stats.elements_evicted += self.state.evict_epoch(epoch) as u64;
        }
    }

    /// The elements of `epoch`, from RAM when resident, read back from the
    /// store when evicted. `None` for epochs this server does not hold.
    fn fetch_epoch_elements(&self, epoch: u64) -> Option<Vec<Element>> {
        if let Some(elements) = self.state.epoch_elements(epoch) {
            return Some(elements.to_vec());
        }
        if epoch == 0 || epoch > self.state.evicted_epochs() {
            return None;
        }
        let store = self.store.as_ref().expect("evicted epochs imply a store");
        let record = store
            .load_epoch(epoch)
            .unwrap_or_else(|e| panic!("setchain-store: cannot read epoch {epoch}: {e}"))
            .expect("evicted epochs are on the store");
        Some(Self::unpack_elements(&record.elements))
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

    /// Resolves (and caches) the HMAC key schedule for a registered
    /// non-server client. Unknown or server ids are never cached, so a
    /// client registered later is still picked up.
    fn client_key(&mut self, client: ProcessId) -> Option<&HmacSha256Key> {
        if !self.client_keys.contains_key(&client) {
            let pair = self.registry.lookup(client)?;
            if pair.id.is_server() {
                return None;
            }
            self.client_keys
                .insert(client, HmacSha256Key::new(&pair.secret.0));
        }
        self.client_keys.get(&client)
    }

    /// Validates one element, memoized: semantically identical to
    /// `element.is_valid(&self.registry)` but the authenticator digest is
    /// computed at most once per element per server, and the per-client HMAC
    /// key schedule is shared across elements.
    pub fn element_valid(&mut self, element: &Element) -> bool {
        if let Some(verdict) = self.admission.lookup(element) {
            return verdict;
        }
        let key = self.client_key(element.client);
        let (verdict, cacheable) = Self::verdict_with_key(element, key);
        if cacheable {
            self.admission.record(element, verdict);
        }
        verdict
    }

    /// The one verdict rule shared by the single-element and batched paths:
    /// `key` is the claimed client's resolved schedule (`None` for unknown
    /// clients and server-claimed elements). The second value says whether
    /// the verdict is stable enough to memoize: verdicts backed by a key
    /// schedule or by an intrinsic property (degenerate size, server-claimed)
    /// are; a `false` that merely reflects the client being absent from the
    /// registry is not — the client may register later, and `is_valid` would
    /// then change its answer.
    fn verdict_with_key(element: &Element, key: Option<&HmacSha256Key>) -> (bool, bool) {
        if !element.size_in_bounds() || element.client.is_server() {
            return (false, true);
        }
        match key {
            Some(key) => (element.auth_matches(key), true),
            None => (false, false),
        }
    }

    /// Validates a batch of elements, returning one verdict per element in
    /// order — the batched core of server-side validation. Memoized verdicts
    /// are served from the admission cache; the misses are checked through
    /// `parallel_map` with per-client precomputed HMAC key schedules,
    /// element-wise and sequential below `MIN_PARALLEL_LEN`.
    pub fn validate_elements(&mut self, elements: &[Element]) -> Vec<bool> {
        let mut verdicts = vec![false; elements.len()];
        let mut misses = std::mem::take(&mut self.miss_scratch);
        debug_assert!(misses.is_empty());
        for (i, e) in elements.iter().enumerate() {
            match self.admission.lookup(e) {
                Some(verdict) => verdicts[i] = verdict,
                None => misses.push(i),
            }
        }
        if misses.is_empty() {
            self.miss_scratch = misses;
            return verdicts;
        }
        // Warm the per-client key schedules single-threaded (the distinct
        // client set is tiny next to the batch), then fan the authenticator
        // checks out over the batch.
        for &i in &misses {
            let _ = self.client_key(elements[i].client);
        }
        let mut pending = std::mem::take(&mut self.pending_scratch);
        debug_assert!(pending.is_empty());
        pending.extend(misses.iter().map(|&i| elements[i]));
        let keys = &self.client_keys;
        // A key-schedule miss after the warm-up above means the client is
        // unknown (or server-claimed); `verdict_with_key` applies the same
        // rule as the single-element path.
        let checked = parallel_map(&pending, self.threads, |e| {
            Self::verdict_with_key(e, keys.get(&e.client))
        });
        for (&i, (e, (verdict, cacheable))) in misses.iter().zip(pending.iter().zip(checked)) {
            verdicts[i] = verdict;
            if cacheable {
                self.admission.record(e, verdict);
            }
        }
        misses.clear();
        pending.clear();
        self.miss_scratch = misses;
        self.pending_scratch = pending;
        verdicts
    }

    /// Overload gate for client-facing submissions, called by every variant
    /// *before* any authenticator or batch-root verification: with a quota
    /// configured, probes `from`'s token bucket and pending cap for
    /// `elements` more elements. On a shed the whole submission is refused
    /// with zero validation CPU spent, the drop is attributed to
    /// [`adds_rejected_quota`](ServerStats::adds_rejected_quota), and the
    /// sender is told to back off via [`SetchainMsg::Rejected`].
    ///
    /// Messages from peer servers are never quota-checked: gossip and
    /// recovery traffic is committed-path and must not be shed. With no
    /// quota configured this returns `true` without touching the context —
    /// the exact pre-quota schedule.
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

    /// Releases pending-cap capacity for elements just stamped into an
    /// epoch (no-op without a quota). Over-release for elements that were
    /// never counted — gossip arrivals stamped here, or elements admitted
    /// before a restart — saturates at zero per client, so mixed routing
    /// can transiently under-count pending but never wedge a client.
    fn quota_note_stamped(&mut self, elements: &[Element]) {
        if let Some(quota) = self.quota.as_mut() {
            for e in elements {
                quota.note_stamped(e.client, 1);
            }
        }
    }

    /// The paper's `add(e)` precondition: `valid_element(e) ∧ e ∉ the_set`.
    /// On success the element is inserted into `the_set` and `true` is
    /// returned; the caller routes it (ledger append or collector).
    pub fn accept_add(&mut self, element: &Element, ctx: &mut Ctx<'_, '_, '_>) -> bool {
        if self.byz == ServerByzMode::DropClientAdds {
            self.stats.adds_rejected_invalid += 1;
            return false;
        }
        ctx.consume_cpu(self.config.costs.validate_element);
        if !self.element_valid(element) {
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

    /// Probes/verifies a sealed batch, ctx-free so the verdict rule can be
    /// tested without a simulator. Returns `(verdict, fresh)`: `fresh` is
    /// true when the root MAC was actually checked (and the caller must
    /// charge simulated hashing CPU), false when the verdict came from the
    /// root cache with zero hashing.
    ///
    /// On a fresh *accept* the per-element admission cache is warmed with a
    /// `true` verdict for every member: under [`crate::AuthMode::BatchRoot`]
    /// the owner's root MAC is the authentication, and per-element validity
    /// follows from Merkle membership — so the later `accept_add` /
    /// recovery-path probes for these elements hit without ever computing a
    /// per-element HMAC. (For honestly generated elements this coincides
    /// with the per-element authenticator verdict; a key-holding client
    /// vouching for its *own* elements is exactly what the MAC attests.)
    ///
    /// Verdicts for batches claiming an unregistered client are not cached,
    /// mirroring [`Self::element_valid`]: the client may register later.
    fn batch_verdict(&mut self, batch: &AuthedBatch) -> (bool, bool) {
        if let Some(verdict) = self.admission.lookup_root(batch) {
            return (verdict, false);
        }
        let (verdict, cacheable) = if batch.client.is_server() || batch.elements.is_empty() {
            (false, true)
        } else {
            match self.client_key(batch.client) {
                Some(key) => (batch.verify(key), true),
                None => (false, false),
            }
        };
        if cacheable {
            self.admission.record_root(batch, verdict);
            if verdict {
                for e in &batch.elements {
                    self.admission.record(e, true);
                }
            }
        }
        if verdict {
            self.stats.batch_roots_verified += 1;
        } else {
            self.stats.batch_roots_rejected += 1;
        }
        (verdict, true)
    }

    /// Verifies a [`SetchainMsg::BatchedAdd`] envelope: one root-cache
    /// probe, and on a miss one Merkle-root recomputation plus one MAC check
    /// for the whole batch — the batch-authenticated replacement for
    /// per-element authenticator checks. Simulated CPU is charged only for
    /// fresh verifications (hashing the packed element identities into the
    /// chunked root, plus one MAC); re-gossiped batches verify for free.
    pub fn verify_batched_add(&mut self, batch: &AuthedBatch, ctx: &mut Ctx<'_, '_, '_>) -> bool {
        let (verdict, fresh) = self.batch_verdict(batch);
        if fresh {
            ctx.consume_cpu(
                self.config
                    .costs
                    .hash_cost(batch.elements.len() * Element::PACKED_LEN),
            );
            ctx.consume_cpu(self.config.costs.validate_element);
        }
        verdict
    }

    /// Forwards a client's sealed batch to every peer server, so each peer
    /// verifies the root once (or serves it from its root cache) and warms
    /// its per-element admission cache *before* the batch contents come back
    /// around through collector batches, blocks or hash reversal — the
    /// whole deployment then authenticates each batch at most once per
    /// server, with zero per-element MACs.
    pub fn gossip_batched_add(&self, batch: &AuthedBatch, ctx: &mut Ctx<'_, '_, '_>) {
        let me = self.keys.id;
        let peers = (0..self.config.servers)
            .map(ProcessId::server)
            .filter(|p| *p != me);
        ctx.broadcast_app(peers, SetchainMsg::BatchedAdd(batch.clone()));
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
                let elements = self.fetch_epoch_elements(*epoch).unwrap_or_default();
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
            SetchainMsg::CatchupRequest { from_epoch } => {
                self.serve_catchup(from, *from_epoch, ctx);
                true
            }
            SetchainMsg::CatchupResponse { epochs } => {
                self.handle_catchup_response(from, epochs, ctx);
                true
            }
            _ => false,
        }
    }

    /// Answers a [`SetchainMsg::CatchupRequest`]: ships the *committed
    /// prefix* only — consecutive epochs from `from_epoch` for which this
    /// server already holds a full `f + 1` proof quorum — bounded at
    /// [`MAX_CATCHUP_EPOCHS`] per response. A peer that is not ahead (or
    /// whose newest epochs have not gathered their quorum yet) sends
    /// nothing, so the restart probe is free in the common case.
    fn serve_catchup(&mut self, from: ProcessId, from_epoch: u64, ctx: &mut Ctx<'_, '_, '_>) {
        let quorum = self.config.proof_quorum();
        let mut epochs = Vec::new();
        let mut e = from_epoch.max(1);
        while e <= self.state.epoch()
            && epochs.len() < MAX_CATCHUP_EPOCHS
            && self.state.proof_count(e) >= quorum
        {
            epochs.push(crate::messages::CatchupEpoch {
                epoch: e,
                elements: self.fetch_epoch_elements(e).unwrap_or_default(),
                proofs: self.state.proofs_for(e).to_vec(),
            });
            e += 1;
        }
        if !epochs.is_empty() {
            ctx.send_app(from, SetchainMsg::CatchupResponse { epochs });
        }
    }

    /// Verifies and applies a [`SetchainMsg::CatchupResponse`]. Each bundle
    /// is accepted only if it is the next epoch in sequence and its elements
    /// hash to a digest that `f + 1` distinct valid signers vouch for —
    /// the same `valid_proof` machinery as the normal commit path, so a
    /// Byzantine responder cannot inject or reorder history. Bundles for
    /// epochs already held (duplicate responses to a broadcast probe) are
    /// skipped silently; the first out-of-order or under-proven bundle
    /// stops the scan and counts one rejection.
    fn handle_catchup_response(
        &mut self,
        from: ProcessId,
        epochs: &[crate::messages::CatchupEpoch],
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        self.catchup_pending = None;
        let mut applied = 0usize;
        for bundle in epochs {
            let next = self.state.epoch() + 1;
            if bundle.epoch < next {
                continue; // already held: duplicate response
            }
            if bundle.epoch > next {
                self.stats.catchup_rejections += 1;
                break;
            }
            // Re-hash the shipped elements and verify the proofs against
            // the recomputed digest — trusting the responder's digest would
            // let it rebind valid signatures to fabricated contents.
            let bytes: usize = bundle.elements.iter().map(|e| e.wire_size()).sum();
            ctx.consume_cpu(self.config.costs.hash_cost(bytes));
            let digest = epoch_hash(bundle.epoch, &bundle.elements);
            let mut valid: Vec<EpochProof> = Vec::new();
            for proof in &bundle.proofs {
                ctx.consume_cpu(self.config.costs.verify_signature);
                if proof.epoch == bundle.epoch
                    && self.proof_valid_digest(proof, &digest)
                    && !valid.iter().any(|p| p.signer == proof.signer)
                {
                    valid.push(*proof);
                }
            }
            if valid.len() < self.config.proof_quorum() {
                self.stats.catchup_rejections += 1;
                break;
            }
            let installed = self
                .state
                .install_epoch(bundle.epoch, bundle.elements.clone());
            debug_assert!(installed, "sequencing checked above");
            self.quota_note_stamped(&bundle.elements);
            // The quorum travels with the bundle, so the epoch lands
            // committed; later ledger-replayed proofs only add signers
            // beyond the quorum (and never re-report the commit).
            for proof in valid {
                self.state.add_proof(proof);
            }
            self.stats.epochs_replayed += 1;
            applied += 1;
        }
        if applied > 0 {
            // Every installed bundle arrived with its quorum: it is
            // committed, so it is durable the moment it lands.
            self.persist_committed();
        }
        // A fully-applied response means the responder may hold more by now
        // (a full page certainly, but even a short page can be stale by the
        // time it arrives): page on. The responder only answers when it is
        // ahead, so this terminates once we reach its committed tip.
        if applied > 0 && applied == epochs.len() {
            let from_epoch = self.state.epoch() + 1;
            self.catchup_pending = Some((from_epoch, ctx.now()));
            self.stats.catchup_requests += 1;
            ctx.send_app(from, SetchainMsg::CatchupRequest { from_epoch });
        }
    }

    /// Restart probe: a server that comes back with retained state asks
    /// every peer for the epochs it may have missed while down. Peers that
    /// are not ahead answer nothing; the first useful response fast-forwards
    /// the state and duplicates de-duplicate on apply. At cold start the
    /// epoch is 0 and this is a no-op, so fault-free schedules are
    /// unchanged. Called from every variant's `on_start`.
    pub fn maybe_request_catchup(&mut self, ctx: &mut Ctx<'_, '_, '_>) {
        if self.state.epoch() == 0 {
            return;
        }
        let from_epoch = self.state.epoch() + 1;
        self.catchup_pending = Some((from_epoch, ctx.now()));
        self.stats.catchup_requests += 1;
        let me = self.keys.id;
        let peers = (0..self.config.servers)
            .map(ProcessId::server)
            .filter(|p| *p != me);
        ctx.broadcast_app(peers, SetchainMsg::CatchupRequest { from_epoch });
    }

    /// Gap detection on first contact: `peer` demonstrably knows about
    /// `epoch`, which is ahead of our state — request the missing range,
    /// unless a request covering it is already outstanding.
    pub fn note_peer_epoch(&mut self, peer: ProcessId, epoch: u64, ctx: &mut Ctx<'_, '_, '_>) {
        if epoch <= self.state.epoch() || peer == self.keys.id || !peer.is_server() {
            return;
        }
        let from_epoch = self.state.epoch() + 1;
        if self.catchup_suppressed(from_epoch, ctx.now()) {
            return;
        }
        self.catchup_pending = Some((from_epoch, ctx.now()));
        self.stats.catchup_requests += 1;
        ctx.send_app(peer, SetchainMsg::CatchupRequest { from_epoch });
    }

    /// The catch-up rate limiter: whether an outstanding request suppresses
    /// a new one covering `from_epoch` at `now`. Suppression *expires* after
    /// [`CATCHUP_RETRY`] — a request lost to a partition, crash or total
    /// loss must not wedge the server behind the tip forever — and a gap
    /// signal for a range past the outstanding request's start is never
    /// suppressed.
    fn catchup_suppressed(&self, from_epoch: u64, now: SimTime) -> bool {
        matches!(
            self.catchup_pending,
            Some((p, at)) if p >= from_epoch && now.since(at) < CATCHUP_RETRY
        )
    }

    /// Validates and records an epoch-proof extracted from the ledger
    /// (the paper's `valid_proof(j, p, w, history[j])` filter). When the
    /// proof count for the epoch reaches `f + 1`, the commit is reported to
    /// the experiment trace.
    ///
    /// A proof byte-identical — epoch, signer, signature — to one already
    /// held for its epoch is accepted without recomputing the signature
    /// MAC: the epoch digest is immutable once recorded, so the verdict is
    /// a pure function of bytes this server stores, and Hashchain delivers
    /// each proof once per hash-batch copy. The shortcut is sound whatever
    /// route (ledger ingest, catch-up, store replay) put the held copy
    /// there: a hit can only lead to `add_proof` on an `(epoch, signer)`
    /// the state already holds, which is a no-op, so it can never add a
    /// proof, a signer or a commit that the full check would not. A proof
    /// that differs in any byte — a forgery reusing a held signer — takes
    /// the full check. Simulated CPU is charged either way: host-side
    /// shortcuts never skip a `consume_cpu`.
    pub fn ingest_proof(&mut self, proof: EpochProof, now: SimTime, ctx: &mut Ctx<'_, '_, '_>) {
        ctx.consume_cpu(self.config.costs.verify_signature);
        // The digest of every recorded epoch is cached at creation time, so
        // verifying the up-to-n proofs of an epoch re-hashes nothing.
        let Some(digest) = self.state.epoch_digest(proof.epoch).copied() else {
            self.stats.proofs_rejected += 1;
            if proof.epoch > self.state.epoch() {
                // A proof for an epoch we have not derived yet: the signer
                // is ahead of us — catch up from it.
                self.note_peer_epoch(proof.signer, proof.epoch, ctx);
            }
            return;
        };
        let held = self.state.proofs_for(proof.epoch).contains(&proof);
        if !held && !self.proof_valid_digest(&proof, &digest) {
            self.stats.proofs_rejected += 1;
            return;
        }
        self.stats.proofs_received += 1;
        let count = self.state.add_proof(proof);
        if count == self.config.proof_quorum() {
            self.trace.record_epoch_commit(proof.epoch, now);
            self.persist_committed();
        }
    }

    /// Creates a new epoch from `elements` (which must already be filtered to
    /// valid, not-yet-stamped elements), records it in the trace, and returns
    /// the epoch number together with this server's epoch-proof for it.
    pub fn create_epoch(
        &mut self,
        elements: Vec<Element>,
        now: SimTime,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> (u64, EpochProof) {
        self.derived_epochs += 1;
        if self.derived_epochs <= self.state.epoch() {
            // Catch-up already installed this epoch (verified against f+1
            // epoch-proofs); the ledger replay is now re-deriving it, and
            // recording it again would double-stamp its elements. Sign the
            // stored digest instead, so peers still receive this server's
            // proof for the epoch.
            let epoch = self.derived_epochs;
            ctx.consume_cpu(self.config.costs.sign);
            let digest = self
                .state
                .epoch_digest(epoch)
                .expect("epoch installed by catch-up");
            let mut proof = make_epoch_proof_with_key(&self.own_key, self.keys.id, epoch, digest);
            if self.byz == ServerByzMode::ForgeProofs {
                proof.signature = Signature::forged(self.keys.id);
            }
            return (epoch, proof);
        }
        let epoch = self.state.record_epoch(elements);
        debug_assert_eq!(
            epoch, self.derived_epochs,
            "ledger-derived epochs are sequential"
        );
        self.stats.epochs_created += 1;
        let stamped = self.state.epoch_elements(epoch).expect("just created");
        self.trace
            .record_epoch_assignments(stamped.iter().map(|e| e.id), epoch, now);
        if let Some(quota) = self.quota.as_mut() {
            for e in stamped {
                quota.note_stamped(e.client, 1);
            }
        }
        // Hash + sign cost for the epoch-proof.
        let bytes: usize = stamped.iter().map(|e| e.wire_size()).sum();
        ctx.consume_cpu(self.config.costs.hash_cost(bytes));
        ctx.consume_cpu(self.config.costs.sign);
        // Sign over the digest `record_epoch` just cached — the one place
        // the epoch's elements are actually hashed. The server's own key
        // schedule is precomputed, so the signature costs two compressions.
        let digest = self.state.epoch_digest(epoch).expect("just created");
        let mut proof = make_epoch_proof_with_key(&self.own_key, self.keys.id, epoch, digest);
        if self.byz == ServerByzMode::ForgeProofs {
            proof.signature = Signature::forged(self.keys.id);
        }
        (epoch, proof)
    }

    /// First-pass admission of a recovered batch's elements: validates
    /// them (batched, memoized — the same [`Self::validate_elements`] core
    /// the epoch path uses) and inserts the valid, not-yet-stamped ids into
    /// `the_set`, without materializing a candidate vector. The epoch
    /// itself is built later, at consolidation, through
    /// [`Self::extract_epoch_candidates`]; this is the "valid elements join
    /// `the_set` immediately" half of batch processing.
    pub fn admit_batch_elements(
        &mut self,
        elements: &[Element],
        validate: bool,
        ctx: &mut Ctx<'_, '_, '_>,
    ) {
        if !validate {
            for e in elements {
                if !self.state.in_history(&e.id) {
                    self.state.insert(e.id);
                }
            }
            return;
        }
        ctx.consume_cpu(self.config.costs.validate_cost(elements.len()));
        let verdicts = self.validate_elements(elements);
        // Rejections are counted once per distinct id, matching the
        // pre-validation dedup of the epoch path — a Byzantine batch
        // repeating one forged element must not inflate the counter. The
        // set is only materialized when a rejection actually occurs, so
        // honest batches stay allocation-free.
        let mut rejected_ids: Option<FxHashSet<ElementId>> = None;
        for (e, ok) in elements.iter().zip(verdicts) {
            if self.state.in_history(&e.id) {
                continue;
            }
            if ok {
                self.state.insert(e.id);
            } else if rejected_ids
                .get_or_insert_with(FxHashSet::default)
                .insert(e.id)
            {
                self.stats.elements_rejected += 1;
            }
        }
    }

    /// The paper's `valid_proof` signer/signature checks against an
    /// already-computed digest, through the per-signer schedule cache:
    /// semantically [`crate::verify_epoch_proof`] with the epoch hash
    /// replaced by `digest`.
    pub fn proof_valid_digest(&mut self, proof: &EpochProof, digest: &Digest512) -> bool {
        proof.signature.signer == proof.signer
            && self.config.is_server(proof.signer)
            && self
                .verifier
                .verify(&self.registry, digest.as_bytes(), &proof.signature)
    }

    /// The paper's `valid_hash(h, s, w)` through the per-signer schedule
    /// cache: same verdict as [`HashBatch::is_valid`], without rebuilding
    /// the signer's HMAC key pads per hash-batch.
    pub fn hash_batch_valid(&mut self, hb: &HashBatch) -> bool {
        self.config.is_server(hb.signer)
            && hb.signature.signer == hb.signer
            && self
                .verifier
                .verify(&self.registry, hb.hash.as_bytes(), &hb.signature)
    }

    /// Signs a hash-batch with this server's precomputed key schedule.
    pub fn make_hash_batch(&self, hash: Digest512) -> HashBatch {
        HashBatch {
            hash,
            signer: self.keys.id,
            signature: sign_with(&self.own_key, self.keys.id, hash.as_bytes()),
        }
    }

    /// Filters the elements of a batch/block down to the set `G` that forms a
    /// new epoch: valid elements (unless `validate` is false, for the light
    /// ablations) that are not yet in `history`, de-duplicated.
    ///
    /// Validation of the deduplicated candidates goes through
    /// [`validate_elements`](Self::validate_elements): batched, parallel
    /// above the `MIN_PARALLEL_LEN` threshold, memoized per element.
    pub fn extract_epoch_candidates(
        &mut self,
        elements: &[Element],
        validate: bool,
        ctx: &mut Ctx<'_, '_, '_>,
    ) -> Vec<Element> {
        if validate {
            ctx.consume_cpu(self.config.costs.validate_cost(elements.len()));
        }
        let mut seen = std::mem::take(&mut self.seen_scratch);
        debug_assert!(seen.is_empty());
        let mut candidates = Vec::with_capacity(elements.len());
        for e in elements {
            if self.state.in_history(&e.id) || !seen.insert(e.id) {
                continue;
            }
            candidates.push(*e);
        }
        seen.clear();
        self.seen_scratch = seen;
        if !validate {
            return candidates;
        }
        let verdicts = self.validate_elements(&candidates);
        let mut out = Vec::with_capacity(candidates.len());
        for (e, ok) in candidates.into_iter().zip(verdicts) {
            if ok {
                out.push(e);
            } else {
                self.stats.elements_rejected += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementId;
    use crate::proofs::make_epoch_proof_for_digest;

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
            SetchainConfig::new(4).with_store(cfg),
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
            assert_eq!(core.state.record_epoch(elements), e);
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
    fn catchup_limiter_expires_after_retry_window() {
        // Regression test for the PR 7 catch-up rate limiter: an
        // outstanding request suppresses duplicates only within
        // `CATCHUP_RETRY`. A request lost to 100% loss on the catch-up leg
        // must stop suppressing once the window elapses, or the server
        // wedges behind the tip forever.
        let (mut core, _registry) = core_with(91, 4, 2);
        let sent_at = SimTime::from_secs(5);
        core.catchup_pending = Some((3, sent_at));

        // Within the window: same or earlier range suppressed, a range
        // starting past the outstanding request never is.
        let within = sent_at + SimDuration(CATCHUP_RETRY.0 - 1);
        assert!(core.catchup_suppressed(3, within));
        assert!(core.catchup_suppressed(2, within));
        assert!(!core.catchup_suppressed(4, within));

        // At exactly the window boundary the entry is presumed lost and a
        // re-request is allowed again.
        let expired = sent_at + CATCHUP_RETRY;
        assert!(!core.catchup_suppressed(3, expired));
        assert!(!core.catchup_suppressed(2, expired));

        // No outstanding request: never suppressed.
        core.catchup_pending = None;
        assert!(!core.catchup_suppressed(1, within));
    }

    #[test]
    fn store_persists_commits_and_recovers_on_reopen() {
        let tmp = TempDir::new("reopen");
        let cfg = StoreConfig::new(tmp.0.to_str().unwrap());
        let (mut core, registry) = store_core(83, cfg.clone());
        commit_epochs(&mut core, &registry, 5);
        assert_eq!(core.stats.epochs_persisted, 5);
        assert!(core.stats.store_bytes > 0);
        assert_eq!(core.stats.elements_evicted, 0);
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

    #[test]
    fn eviction_drops_ram_but_keeps_membership_and_readback() {
        let tmp = TempDir::new("evict");
        let cfg = StoreConfig::new(tmp.0.to_str().unwrap()).with_retain_epochs(1);
        let (mut core, registry) = store_core(89, cfg);
        commit_epochs(&mut core, &registry, 4);
        // retain_epochs = 1: epochs 1..=3 evicted, epoch 4 resident.
        assert_eq!(core.state.evicted_epochs(), 3);
        assert_eq!(core.stats.elements_evicted, 12);
        assert!(core.state.epoch_elements(1).is_none(), "evicted from RAM");
        // Membership of evicted elements survives: `the_set` is grow-only.
        let evicted_id = ElementId::new(0, 10); // epoch 1, element 0
        assert!(core.state.contains(&evicted_id) && core.state.in_history(&evicted_id));
        assert!(core.state.was_evicted(&evicted_id));
        assert!(!core.state.was_evicted(&ElementId::new(0, 9999)));
        // Evicted epochs read back from the store byte-identically.
        let read_back = core.fetch_epoch_elements(1).unwrap();
        assert_eq!(read_back.len(), 4);
        assert_eq!(
            crate::proofs::epoch_hash(1, &read_back),
            *core.state.epoch_digest(1).unwrap()
        );
        // Logical sizes still count the evicted prefix.
        assert_eq!(core.state.the_set_len(), 16);
        assert_eq!(core.state.history_elements(), 16);
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
        use setchain_ledger::{ByzMode, LedgerConfig, LedgerNode, LedgerTrace};
        use setchain_simnet::{Simulation, SimulationConfig};

        let (mut core, registry) = core_with(101, 4, 2);
        commit_epochs(&mut core, &registry, 3);
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
    fn identical_duplicate_of_a_held_proof_is_accepted_without_a_new_signer() {
        with_committed_core(|core, _registry, ctx| {
            let held = core.state.proofs_for(2)[1];
            let before = core.state.proof_count(2);
            core.ingest_proof(held, SimTime::ZERO, ctx);
            assert_eq!(core.state.proof_count(2), before);
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(core.stats.proofs_rejected, 0);
        });
    }

    #[test]
    fn held_signer_with_one_flipped_signature_byte_is_rejected() {
        with_committed_core(|core, _registry, ctx| {
            let held = core.state.proofs_for(2)[1];
            for byte in [0, setchain_crypto::SIGNATURE_LEN - 1] {
                let mut forged = held;
                forged.signature.bytes[byte] ^= 1;
                core.ingest_proof(forged, SimTime::ZERO, ctx);
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
        // The memo only ever matches a held proof: a third server's valid
        // proof is verified and added, its forged twin is not.
        with_committed_core(|core, registry, ctx| {
            let digest = *core.state.epoch_digest(2).unwrap();
            let signer = registry.lookup(ProcessId::server(2)).unwrap();
            let valid = make_epoch_proof_for_digest(&signer, 2, &digest);
            let mut forged = valid;
            forged.signature = Signature::forged(signer.id);
            core.ingest_proof(forged, SimTime::ZERO, ctx);
            assert_eq!(core.stats.proofs_rejected, 1);
            assert_eq!(core.state.proof_count(2), 2);
            core.ingest_proof(valid, SimTime::ZERO, ctx);
            assert_eq!(core.stats.proofs_received, 1);
            assert_eq!(core.state.proof_count(2), 3);
        });
    }

    #[test]
    fn proof_for_an_unrecorded_epoch_asks_its_signer_for_catchup() {
        with_committed_core(|core, registry, ctx| {
            let signer = registry.lookup(ProcessId::server(1)).unwrap();
            let ahead = make_epoch_proof_for_digest(&signer, 9, &epoch_hash(9, &[]));
            core.ingest_proof(ahead, SimTime::ZERO, ctx);
            assert_eq!(core.stats.proofs_rejected, 1);
            assert_eq!(core.stats.proofs_received, 0);
            assert_eq!(core.stats.catchup_requests, 1);
            assert_eq!(core.catchup_pending, Some((4, SimTime::ZERO)));
            assert_eq!(core.state.proof_count(9), 0);
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
    fn batched_validation_matches_sequential_above_parallel_threshold() {
        let clients = 5usize;
        let (mut core, registry) = core_with(17, 4, clients);
        core.threads = 4; // force the parallel path even on a 1-core host
        let n = setchain_crypto::MIN_PARALLEL_LEN + 64;
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
        assert!(!core.element_valid(&e));
        assert_eq!(core.validate_elements(&[e]), vec![false]);
        // Once the client registers, the same element validates.
        registry.register(late);
        assert!(core.element_valid(&e));
        assert_eq!(core.validate_elements(&[e]), vec![true]);
    }

    #[test]
    fn memo_does_not_trust_tampered_resends_under_a_known_id() {
        let (mut core, registry) = core_with(23, 4, 2);
        let keys = registry.lookup(ProcessId::client(0)).unwrap();
        let good = Element::new(&keys, ElementId::new(0, 1), 400, 9);
        assert!(core.element_valid(&good));
        // Same id, different contents: the cached verdict must not leak.
        let mut tampered = good;
        tampered.content_seed ^= 0xFF;
        assert!(!core.element_valid(&tampered));
        // And the original still validates afterwards.
        assert!(core.element_valid(&good));
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

    fn sealed_from(registry: &KeyRegistry, client_idx: usize, n: usize) -> AuthedBatch {
        let keys = registry.lookup(ProcessId::client(client_idx)).unwrap();
        let key = HmacSha256Key::new(&keys.secret.0);
        let elements: Vec<Element> = (0..n)
            .map(|i| {
                Element::new(
                    &keys,
                    ElementId::new(client_idx as u32, i as u64),
                    300 + i as u32,
                    i as u64,
                )
            })
            .collect();
        AuthedBatch::seal(&key, keys.id, elements)
    }

    #[test]
    fn fresh_batch_verification_warms_every_cache() {
        let (mut core, registry) = core_with(59, 4, 3);
        let batch = sealed_from(&registry, 0, 20);

        let (verdict, fresh) = core.batch_verdict(&batch);
        assert!(verdict && fresh, "sealed batch verifies fresh");
        assert_eq!(core.stats.batch_roots_verified, 1);
        // The root verdict is memoized: re-gossip is a pure cache hit.
        assert_eq!(core.batch_verdict(&batch), (true, false));
        assert_eq!(core.admission_cache().root_hits(), 1);
        // And the per-element cache was warmed: validating the contents
        // afterwards computes no authenticator digests.
        let misses_before = core.admission_cache().misses();
        assert!(core.validate_elements(&batch.elements).iter().all(|v| *v));
        assert_eq!(core.admission_cache().misses(), misses_before);

        // A tampered replay under the cached root re-verifies and fails —
        // and, being the latest verdict for that root, evicts the cached
        // accept (one entry per root; an attacker can force re-hashing but
        // never a wrong verdict).
        let mut tampered = batch.clone();
        tampered.elements[3].content_seed ^= 0xF0;
        assert_eq!(core.batch_verdict(&tampered), (false, true));
        assert_eq!(core.stats.batch_roots_rejected, 1);
        // The genuine batch re-verifies fresh once, then hits again.
        assert_eq!(core.batch_verdict(&batch), (true, true));
        assert_eq!(core.batch_verdict(&batch), (true, false));
    }

    #[test]
    fn unknown_owner_batches_are_rejected_but_not_memoized() {
        let (mut core, registry) = core_with(61, 2, 1);
        let late = KeyPair::derive(ProcessId::client(5), 909);
        let key = HmacSha256Key::new(&late.secret.0);
        let elements = vec![Element::new(&late, ElementId::new(5, 1), 300, 1)];
        let batch = AuthedBatch::seal(&key, late.id, elements);
        // Unknown owner: rejected, and the verdict is *not* cached.
        assert_eq!(core.batch_verdict(&batch), (false, true));
        assert_eq!(core.admission_cache().root_len(), 0);
        // Once the client registers, the same envelope verifies.
        registry.register(late);
        assert_eq!(core.batch_verdict(&batch), (true, true));
        assert_eq!(core.batch_verdict(&batch), (true, false));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Batched parallel validation accepts/rejects exactly the same
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
                threads in 1usize..8,
                seed in 1u64..500,
            ) {
                let clients = 5usize;
                let (mut core, registry) = core_with(seed, 4, clients);
                core.threads = threads;
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
                    prop_assert_eq!(core.element_valid(e), *expected);
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
                    prop_assert_eq!(core.element_valid(e), *expected);
                }
            }

            /// Batch-root admission agrees with sequential per-element
            /// `is_valid`, and is strictly stronger under structural
            /// attacks: an honestly sealed batch is admitted untouched;
            /// tampering any single element (which makes that element
            /// individually invalid) rejects the *whole* batch; and
            /// truncating, extending, reordering, re-owning or MAC-forging
            /// the envelope — perturbations sequential validation cannot
            /// even see, since every element stays individually valid — is
            /// rejected too. Verdicts are stable through the root cache.
            #[test]
            fn prop_batch_root_admission_equals_sequential_validation(
                n in 1usize..60,
                perturb in 0u8..8,
                target in 0usize..60,
                seed in 1u64..500,
            ) {
                let clients = 3usize;
                let (mut core, registry) = core_with(seed, 4, clients);
                let sealed = sealed_from(&registry, 0, n);
                let t = target % n;

                let mut batch = sealed.clone();
                // `untouched` tracks whether the perturbation was a no-op
                // (sealed batches must verify exactly when untouched).
                let mut untouched = false;
                // Perturbations 1-3 break one element's own authenticator
                // binding; 4-7 are structural (each element stays valid).
                let mut structural = false;
                match perturb {
                    1 => batch.elements[t].auth ^= 1,
                    2 => batch.elements[t].size = batch.elements[t].size.wrapping_add(7),
                    3 => batch.elements[t].content_seed ^= 0xABCD,
                    4 => {
                        // Truncation: count binding in the MAC fails (or the
                        // batch becomes empty, which never verifies).
                        batch.elements.truncate(n - 1);
                        structural = true;
                    }
                    5 => {
                        // Replayed root with swapped elements.
                        if n >= 2 {
                            batch.elements.swap(0, n - 1);
                            structural = true;
                        } else {
                            untouched = true;
                        }
                    }
                    6 => {
                        batch.mac ^= 1;
                        structural = true;
                    }
                    7 => {
                        // Re-owned envelope: another registered client
                        // claims the batch.
                        batch.client = ProcessId::client(1);
                        structural = true;
                    }
                    _ => untouched = true,
                }

                let all_valid = batch.elements.iter().all(|e| e.is_valid(&registry));
                let (verdict, fresh) = core.batch_verdict(&batch);
                prop_assert!(fresh, "first probe verifies fresh");
                prop_assert_eq!(verdict, untouched, "admitted iff untouched");
                // Admission implies sequential per-element validity...
                prop_assert!(!verdict || all_valid);
                match perturb {
                    1..=3 => prop_assert!(
                        !all_valid,
                        "element tampering is individually visible"
                    ),
                    _ if structural && !batch.elements.is_empty() => prop_assert!(
                        all_valid && !verdict,
                        "structural attacks reject despite all-valid elements"
                    ),
                    _ => {}
                }
                // The verdict is stable through the root cache (all owners
                // here are registered, so every verdict is memoizable).
                prop_assert_eq!(core.batch_verdict(&batch), (verdict, false));
                // On acceptance the warmed per-element cache agrees with
                // `is_valid` for every member.
                if verdict {
                    for e in &batch.elements {
                        prop_assert!(core.element_valid(e));
                        prop_assert!(e.is_valid(&registry));
                    }
                }
                // The untouched sealed batch always still verifies.
                let (orig, _) = core.batch_verdict(&sealed);
                prop_assert!(orig);
            }
        }
    }
}
