//! Typed client sessions: the client-facing Setchain API (`add`, `get`,
//! `get_epoch`) without raw [`SetchainMsg`] plumbing.
//!
//! A [`ClientSession`] scripts requests against a [`Deployment`] and is
//! itself the simulated client: [`install`](ClientSession::install) puts it
//! into the simulation, where it sends its script, drives retried adds, and
//! types every response as it arrives — [`SnapshotView`] for `get` and
//! [`VerifiedEpoch`] for `get_epoch`, each epoch checked once by `f + 1`
//! epoch-proof verification ([`setchain::verify_epoch`]). After the run,
//! [`outcome`](ClientSession::outcome) reads it all back, with an
//! [`AddReceipt`] per retried add. The same session script works against any
//! algorithm, because servers are reached through the variant-agnostic
//! deployment facade.
//!
//! ```no_run
//! use setchain::Algorithm;
//! use setchain_simnet::SimTime;
//! use setchain_workload::Deployment;
//!
//! let mut deployment = Deployment::builder(Algorithm::Hashchain)
//!     .servers(4)
//!     .rate(200.0)
//!     .collector(25)
//!     .injection_secs(5)
//!     .max_run_secs(30)
//!     .build();
//!
//! // Script: add three elements through server 0, then audit epoch 1
//! // through a *different*, possibly Byzantine, server.
//! let mut session = deployment.client_session(100, 777);
//! for i in 0..3 {
//!     session.add(SimTime::from_millis(500 + i * 100), 0, 438, 1000 + i);
//! }
//! session.get(SimTime::from_secs(20), 2);
//! session.get_epoch(SimTime::from_secs(20), 2, 1);
//! session.install(&mut deployment);
//!
//! deployment.sim.run_until(SimTime::from_secs(25));
//!
//! let outcome = session.outcome(&deployment);
//! for epoch in outcome.verified() {
//!     println!("epoch {} verified with {} proofs", epoch.epoch, epoch.proof_count);
//! }
//! ```

use std::collections::HashSet;

use setchain::{
    prove_epoch_inclusion, verify_epoch, Element, ElementGenerator, ElementId, EpochInclusionProof,
    EpochProof, EpochVerification, GetSnapshot, SetchainMsg,
};
use setchain_crypto::{KeyPair, KeyRegistry, ProcessId};
use setchain_ledger::NetMsg;
use setchain_simnet::{Context, Process, SimDuration, SimTime, TimerToken};

use crate::deploy::Deployment;
use crate::driver::Msg;

/// Wait after a retried add's first send before it fails over to the next
/// server; doubles on every later attempt (capped at 64×).
const RETRY_DEADLINE: SimDuration = SimDuration(2_000_000); // 2 s

/// Send attempts before a retried add is abandoned.
const RETRY_ATTEMPTS: u32 = 5;

/// Cadence of the confirmation probe loop: a `get` snapshot, then
/// `get_epoch` audits of any new epochs. With the deadline and the attempt
/// budget, enough to survive a crashed-then-restarted or partitioned target
/// without flooding a healthy deployment.
const PROBE_INTERVAL: SimDuration = SimDuration(500_000); // 500 ms

/// Cap on `get_epoch` audits sent per `get` snapshot, so a probe against a
/// far-ahead server does not flood the network in one burst; later probes
/// pick up where the burst stopped.
const MAX_AUDIT_BURST: usize = 32;

/// Timer-token space: script entries use their index, retried-add attempt
/// deadlines live at `ATTEMPT_BASE + index`, and the confirmation loop uses
/// two fixed tokens above those.
const ATTEMPT_BASE: TimerToken = 1 << 32;
const PROBE_TOKEN: TimerToken = 1 << 33;
const REAUDIT_TOKEN: TimerToken = (1 << 33) + 1;

/// Receipt for one scripted `add`: which element was handed to which server,
/// and when.
///
/// For retried adds ([`ClientSession::add_with_retry`]) the receipt returned
/// at scripting time is provisional — `attempts` is still `0` and
/// `confirmed_at` is `None`. The post-run resolution (actual attempt count,
/// the server whose verified epoch confirmed the element, and when) is in
/// [`SessionOutcome::retried`].
#[derive(Clone, Copy, Debug)]
pub struct AddReceipt {
    /// Id of the added element (use it to check inclusion later).
    pub id: ElementId,
    /// The element as signed and sent.
    pub element: Element,
    /// Server the `add` was sent to (for retried adds: the server credited
    /// with the add — the first target until a confirmation names another).
    pub server: ProcessId,
    /// Simulated send time (first attempt, for retried adds).
    pub at: SimTime,
    /// Send attempts made: `1` for plain scripted adds; for retried adds,
    /// the actual count once resolved through [`SessionOutcome::retried`].
    pub attempts: u32,
    /// Simulated time a verified epoch confirmed the element, if known
    /// (only ever `Some` on resolved retried receipts).
    pub confirmed_at: Option<SimTime>,
    /// True if the retried add spent its attempt budget without
    /// confirmation (never set on plain scripted adds).
    pub gave_up: bool,
}

/// A typed `get` response: the server's state summary.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotView {
    /// Server that answered.
    pub server: ProcessId,
    /// Simulated arrival time of the response.
    pub at: SimTime,
    /// The state summary.
    pub snapshot: GetSnapshot,
}

/// A typed `get_epoch` response with client-side verification already
/// performed: the epoch contents plus the `f + 1`-proof verdict.
#[derive(Clone, Debug)]
pub struct VerifiedEpoch {
    /// Server that answered (trusted only through the proofs).
    pub server: ProcessId,
    /// Simulated arrival time of the response.
    pub at: SimTime,
    /// Epoch number.
    pub epoch: u64,
    /// Elements of the epoch as reported by the server.
    pub elements: Vec<Element>,
    /// Number of epoch-proofs the server shipped.
    pub proof_count: usize,
    /// The epoch-proofs themselves, as shipped — what an
    /// [`inclusion_proof`](VerifiedEpoch::inclusion_proof) is verified
    /// against.
    pub proofs: Vec<EpochProof>,
    /// The verification verdict ([`setchain::verify_epoch`] over the
    /// response).
    pub verification: EpochVerification,
    /// Of this session's own adds, the ids confirmed by this epoch — empty
    /// unless the epoch verified.
    pub confirmed: Vec<ElementId>,
}

impl VerifiedEpoch {
    /// True if the epoch carried at least `f + 1` valid proofs from distinct
    /// servers.
    pub fn is_verified(&self) -> bool {
        self.verification.is_verified()
    }

    /// True if the (verified or not) epoch contents include `id`.
    pub fn contains(&self, id: ElementId) -> bool {
        self.elements.iter().any(|e| e.id == id)
    }

    /// A self-contained element→epoch inclusion proof for `id`, or `None` if
    /// the epoch does not contain it.
    ///
    /// The proof verifies against the PKI and the epoch-proofs *alone*
    /// ([`EpochInclusionProof::verify`]): a third party can check membership
    /// without ever seeing this epoch's element set.
    pub fn inclusion_proof(&self, id: ElementId) -> Option<EpochInclusionProof> {
        prove_epoch_inclusion(self.epoch, &self.elements, id)
    }
}

/// Everything a session learned from a run, in typed form.
#[derive(Clone, Debug, Default)]
pub struct SessionOutcome {
    /// `get` responses, in arrival order.
    pub snapshots: Vec<SnapshotView>,
    /// `get_epoch` responses, in arrival order, each already verified.
    pub epochs: Vec<VerifiedEpoch>,
    /// Resolved receipts for the retried adds
    /// ([`ClientSession::add_with_retry`]), in submission order: actual
    /// attempt count, the server whose verified epoch confirmed the element
    /// (in `server`), and the confirmation time.
    pub retried: Vec<AddReceipt>,
}

impl SessionOutcome {
    /// True if every retried add confirmed within its attempt budget
    /// (vacuously true without retried adds).
    pub fn all_retries_confirmed(&self) -> bool {
        self.retried.iter().all(|r| r.confirmed_at.is_some())
    }

    /// The epochs that verified with `f + 1` proofs.
    pub fn verified(&self) -> impl Iterator<Item = &VerifiedEpoch> {
        self.epochs.iter().filter(|e| e.is_verified())
    }

    /// Number of verified epochs.
    pub fn verified_count(&self) -> usize {
        self.verified().count()
    }

    /// Ids of this session's adds confirmed by any verified epoch.
    pub fn confirmed_ids(&self) -> HashSet<ElementId> {
        self.verified()
            .flat_map(|e| e.confirmed.iter().copied())
            .collect()
    }
}

/// One add driven by the retry/failover machine: its receipt, updated in
/// place, the first server of its failover ring (attempt `k` goes to server
/// `first + k`, round-robin over the deployment), and when its live attempt
/// timer is due. A shed re-arms that timer early, so the deadline it
/// replaces still fires; `due` tells the two apart.
#[derive(Clone)]
struct Retry {
    receipt: AddReceipt,
    first: usize,
    due: SimTime,
}

impl Retry {
    fn resolved(&self) -> bool {
        self.receipt.confirmed_at.is_some() || self.receipt.gave_up
    }

    /// The server attempt `k` (0-based) goes to.
    fn target(&self, k: u32, servers: usize) -> ProcessId {
        ProcessId::server((self.first + k as usize) % servers)
    }

    /// The server the most recent attempt went to (the first target before
    /// any send).
    fn current_target(&self, servers: usize) -> ProcessId {
        self.target(self.receipt.attempts.saturating_sub(1), servers)
    }
}

/// A typed client session against one deployment, and the simulated client
/// that serves it.
///
/// Opened with [`Deployment::client_session`]; the session owns a registered
/// key pair and scripts `add`/`get`/`get_epoch` requests. [`install`]
/// places a copy of it in the simulation; this value stays the handle that
/// [`outcome`] reads the simulated copy back through (see the module docs
/// for the full workflow).
///
/// Retried adds ([`add_with_retry`]) are re-sent to the next server whenever
/// their doubling deadline passes without confirmation, while a probe loop
/// audits new epochs until every retried add is confirmed or abandoned. A
/// [`NotEnoughProofs`](EpochVerification::NotEnoughProofs) verdict on an
/// epoch holding a retried element re-audits that epoch after the verdict's
/// `retry_after` hint.
///
/// [`install`]: ClientSession::install
/// [`outcome`]: ClientSession::outcome
/// [`add_with_retry`]: ClientSession::add_with_retry
#[derive(Clone)]
pub struct ClientSession {
    id: ProcessId,
    keys: KeyPair,
    generator: ElementGenerator,
    registry: KeyRegistry,
    servers: usize,
    f: usize,
    /// Request id of the next `get`/`get_epoch`, scripted or sent by the
    /// retry machine.
    next_request: u64,
    /// Ids of every element this session added.
    added: HashSet<ElementId>,
    script: Vec<(SimTime, ProcessId, SetchainMsg)>,
    retries: Vec<Retry>,
    installed: bool,
    snapshots: Vec<SnapshotView>,
    epochs: Vec<VerifiedEpoch>,
    /// Epochs already confirmed by an `f + 1`-proof verified response.
    verified_epochs: HashSet<u64>,
    /// Lowest epoch not yet verified: audits start here.
    audit_low: u64,
    /// Epochs to re-audit once the `retry_after` hint elapses, with the
    /// server to ask.
    pending_reaudits: Vec<(u64, ProcessId)>,
}

impl ClientSession {
    /// Opens a session: derives and registers the client key pair. Called
    /// through [`Deployment::client_session`].
    pub(crate) fn open(deployment: &mut Deployment, client_index: usize, key_seed: u64) -> Self {
        let id = ProcessId::client(client_index);
        let keys = KeyPair::derive(id, key_seed);
        deployment.registry.register(keys);
        ClientSession {
            id,
            keys,
            generator: ElementGenerator::new(keys),
            registry: deployment.registry.clone(),
            servers: deployment.config.servers,
            f: deployment.config.f,
            next_request: 0,
            added: HashSet::new(),
            script: Vec::new(),
            retries: Vec::new(),
            installed: false,
            snapshots: Vec::new(),
            epochs: Vec::new(),
            verified_epochs: HashSet::new(),
            audit_low: 1,
            pending_reaudits: Vec::new(),
        }
    }

    /// This session's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// This session's registered key pair.
    pub fn keys(&self) -> &KeyPair {
        &self.keys
    }

    /// Ids of the elements this session has added so far.
    pub fn added(&self) -> &HashSet<ElementId> {
        &self.added
    }

    /// Scripts `S.add_v(e)` at `at` against server `server` with a freshly
    /// generated element of `size` bytes whose payload derives from
    /// `content_seed` (sequence numbers are assigned automatically).
    pub fn add(&mut self, at: SimTime, server: usize, size: u32, content_seed: u64) -> AddReceipt {
        let element = self.generator.next_element(size, content_seed);
        self.add_element(at, server, element)
    }

    /// Scripts `S.add_v(e)` for an element built by the caller (it must be
    /// signed with this session's keys to validate server-side).
    pub fn add_element(&mut self, at: SimTime, server: usize, element: Element) -> AddReceipt {
        self.assert_scriptable();
        let server = ProcessId::server(server);
        self.added.insert(element.id);
        self.script
            .push((at, server, SetchainMsg::AddBatch(vec![element])));
        AddReceipt {
            id: element.id,
            element,
            server,
            at,
            attempts: 1,
            confirmed_at: None,
            gave_up: false,
        }
    }

    /// Scripts a fault-tolerant `S.add_v(e)` at `at`: the element is sent to
    /// server `server` and re-sent to the next server (round-robin over the
    /// whole deployment) whenever its per-attempt deadline — 2 s, doubling
    /// each attempt — passes before a verified epoch confirms it, for at
    /// most 5 attempts. A `Rejected` shed fails over as soon as its
    /// `retry_after` hint elapses. Duplicate deliveries are safe: servers
    /// dedup by element id.
    ///
    /// The returned receipt is provisional; read the resolved receipt
    /// (attempt count, confirming server, confirmation time) from
    /// [`SessionOutcome::retried`] after the run.
    pub fn add_with_retry(
        &mut self,
        at: SimTime,
        server: usize,
        size: u32,
        content_seed: u64,
    ) -> AddReceipt {
        self.assert_scriptable();
        let element = self.generator.next_element(size, content_seed);
        self.added.insert(element.id);
        let receipt = AddReceipt {
            id: element.id,
            element,
            server: ProcessId::server(server),
            at,
            attempts: 0,
            confirmed_at: None,
            gave_up: false,
        };
        self.retries.push(Retry {
            receipt,
            first: server,
            due: at,
        });
        receipt
    }

    /// Scripts `S.get_v()` at `at` against server `server`.
    pub fn get(&mut self, at: SimTime, server: usize) {
        self.assert_scriptable();
        let msg = SetchainMsg::Get {
            request_id: self.request_id(),
        };
        self.script.push((at, ProcessId::server(server), msg));
    }

    /// Scripts `S.get_epoch_v(epoch)` at `at` against server `server`.
    pub fn get_epoch(&mut self, at: SimTime, server: usize, epoch: u64) {
        self.assert_scriptable();
        let msg = self.get_epoch_msg(epoch);
        self.script.push((at, ProcessId::server(server), msg));
    }

    /// Scripts `get_epoch` for every epoch in `epochs` (inclusive range),
    /// all at the same time against the same server — the audit pattern.
    pub fn get_epochs(
        &mut self,
        at: SimTime,
        server: usize,
        epochs: std::ops::RangeInclusive<u64>,
    ) {
        for epoch in epochs {
            self.get_epoch(at, server, epoch);
        }
    }

    /// Installs the scripted session as a simulated client. Must be called
    /// exactly once, before the run that should serve the script.
    pub fn install(&mut self, deployment: &mut Deployment) {
        self.assert_scriptable();
        self.installed = true;
        deployment.sim.add_process(self.id, Box::new(self.clone()));
    }

    /// Everything the simulated session learned so far: its typed responses
    /// and the retried receipts. Callable any time after
    /// [`ClientSession::install`] (typically after the run).
    pub fn outcome(&self, deployment: &Deployment) -> SessionOutcome {
        assert!(self.installed, "install the session before reading results");
        let actor: &ClientSession = deployment
            .sim
            .process(self.id)
            .expect("session actor installed");
        SessionOutcome {
            snapshots: actor.snapshots.clone(),
            epochs: actor.epochs.clone(),
            retried: actor.retries.iter().map(|r| r.receipt).collect(),
        }
    }

    /// Requests scripted after [`ClientSession::install`] would never be
    /// delivered (the script has already been handed to the simulated
    /// actor); fail loudly instead of dropping them silently.
    fn assert_scriptable(&self) {
        assert!(
            !self.installed,
            "session already installed: script all requests before install()"
        );
    }

    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request - 1
    }

    fn get_epoch_msg(&mut self, epoch: u64) -> SetchainMsg {
        let request_id = self.request_id();
        SetchainMsg::GetEpoch { request_id, epoch }
    }

    /// One attempt of retry `i`: send (or re-send, to the next server in the
    /// failover ring) and arm the doubled deadline, or give up once the
    /// attempt budget is spent.
    fn on_attempt(&mut self, i: usize, ctx: &mut Context<'_, Msg>) {
        let servers = self.servers;
        let Some(r) = self.retries.get_mut(i) else {
            return;
        };
        if r.resolved() || r.due != ctx.now() {
            return; // confirmed, abandoned, or a superseded timer
        }
        if r.receipt.attempts >= RETRY_ATTEMPTS {
            r.receipt.gave_up = true;
            return;
        }
        let target = r.target(r.receipt.attempts, servers);
        r.receipt.attempts += 1;
        ctx.send(
            target,
            NetMsg::App(SetchainMsg::AddBatch(vec![r.receipt.element])),
        );
        let backoff = RETRY_DEADLINE * (1u64 << (r.receipt.attempts - 1).min(6));
        r.due = ctx.now() + backoff;
        ctx.set_timer(backoff, ATTEMPT_BASE + i as TimerToken);
    }

    /// One tick of the confirmation loop: snapshot the current target of the
    /// first unresolved retry, then (on response) audit any new epochs. Stops
    /// re-arming once every retried add is confirmed or abandoned, so the
    /// simulation can go quiescent.
    fn on_probe(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(first) = self.retries.iter().find(|r| !r.resolved()) else {
            return;
        };
        let target = first.current_target(self.servers);
        let request_id = self.request_id();
        ctx.send(target, NetMsg::App(SetchainMsg::Get { request_id }));
        ctx.set_timer(PROBE_INTERVAL, PROBE_TOKEN);
    }

    /// Re-audits the epochs whose `retry_after` hint elapsed.
    fn on_reaudit(&mut self, ctx: &mut Context<'_, Msg>) {
        for (epoch, server) in std::mem::take(&mut self.pending_reaudits) {
            if !self.verified_epochs.contains(&epoch) {
                let msg = self.get_epoch_msg(epoch);
                ctx.send(server, NetMsg::App(msg));
            }
        }
    }

    /// Verifies an epoch response, records it, and feeds the verdict to the
    /// retry machine: a verified epoch confirms the retried adds it holds,
    /// and an under-proven epoch holding an unresolved one is re-audited
    /// after the verdict's `retry_after` hint.
    fn on_epoch(
        &mut self,
        from: ProcessId,
        epoch: u64,
        elements: Vec<Element>,
        proofs: Vec<EpochProof>,
        ctx: &mut Context<'_, Msg>,
    ) {
        let verification = verify_epoch(
            &self.registry,
            self.servers,
            self.f,
            epoch,
            &elements,
            &proofs,
        );
        let mut confirmed = Vec::new();
        if verification.is_verified() {
            confirmed.extend(
                elements
                    .iter()
                    .map(|e| e.id)
                    .filter(|id| self.added.contains(id)),
            );
            self.verified_epochs.insert(epoch);
            while self.verified_epochs.remove(&self.audit_low) {
                self.audit_low += 1;
            }
            for r in self.retries.iter_mut().filter(|r| !r.resolved()) {
                if confirmed.contains(&r.receipt.id) {
                    r.receipt.confirmed_at = Some(ctx.now());
                    r.receipt.server = from;
                }
            }
        } else if let Some(retry_after) = verification.retry_after() {
            let interesting = self
                .retries
                .iter()
                .any(|r| !r.resolved() && elements.iter().any(|e| e.id == r.receipt.id));
            if interesting && !self.pending_reaudits.iter().any(|(e, _)| *e == epoch) {
                self.pending_reaudits.push((epoch, from));
                ctx.set_timer(retry_after, REAUDIT_TOKEN);
            }
        }
        self.epochs.push(VerifiedEpoch {
            server: from,
            at: ctx.now(),
            epoch,
            elements,
            proof_count: proofs.len(),
            proofs,
            verification,
            confirmed,
        });
    }
}

impl Process<Msg> for ClientSession {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // One timer per scripted entry; the token indexes into the script.
        self.script.sort_by_key(|(t, _, _)| *t);
        for (i, (at, _, _)) in self.script.iter().enumerate() {
            ctx.set_timer(at.since(SimTime::ZERO), i as TimerToken);
        }
        // One attempt timer per retried add, plus the probe loop.
        for (i, r) in self.retries.iter().enumerate() {
            ctx.set_timer(
                r.receipt.at.since(SimTime::ZERO),
                ATTEMPT_BASE + i as TimerToken,
            );
        }
        if let Some(first) = self.retries.first() {
            ctx.set_timer(
                first.receipt.at.since(SimTime::ZERO) + PROBE_INTERVAL,
                PROBE_TOKEN,
            );
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let NetMsg::App(msg) = msg else {
            return;
        };
        match msg {
            SetchainMsg::GetResponse { snapshot, .. } => {
                self.snapshots.push(SnapshotView {
                    server: from,
                    at: ctx.now(),
                    snapshot,
                });
                if self.retries.iter().all(Retry::resolved) {
                    return;
                }
                let mut burst = 0;
                for epoch in self.audit_low..=snapshot.epoch {
                    if self.verified_epochs.contains(&epoch) {
                        continue;
                    }
                    let msg = self.get_epoch_msg(epoch);
                    ctx.send(from, NetMsg::App(msg));
                    burst += 1;
                    if burst >= MAX_AUDIT_BURST {
                        break;
                    }
                }
            }
            SetchainMsg::Rejected { retry_after } => {
                // The server shed our submission under overload protection.
                // Re-fire the attempt machine for the retry whose current
                // target shed us as soon as the hint elapses — the next
                // attempt fails over to the next server in the ring — instead
                // of waiting out the full (doubling) attempt deadline.
                let servers = self.servers;
                let rejected = self.retries.iter_mut().enumerate().find(|(_, r)| {
                    !r.resolved() && r.receipt.attempts > 0 && r.current_target(servers) == from
                });
                if let Some((i, r)) = rejected {
                    r.due = ctx.now() + retry_after;
                    ctx.set_timer(retry_after, ATTEMPT_BASE + i as TimerToken);
                }
            }
            SetchainMsg::EpochResponse {
                epoch,
                elements,
                proofs,
                ..
            } => self.on_epoch(from, epoch, elements, proofs, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        if token == PROBE_TOKEN {
            self.on_probe(ctx);
        } else if token == REAUDIT_TOKEN {
            self.on_reaudit(ctx);
        } else if token >= ATTEMPT_BASE {
            self.on_attempt((token - ATTEMPT_BASE) as usize, ctx);
        } else if let Some((_, server, msg)) = self.script.get(token as usize) {
            ctx.send(*server, NetMsg::App(msg.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain::{Algorithm, QuotaConfig};
    use setchain_simnet::{FaultEvent, FaultPlan};

    #[test]
    fn session_scripts_install_and_report() {
        let mut deployment = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(200.0)
            .collector(25)
            .injection_secs(3)
            .max_run_secs(30)
            .seed(77)
            .build();
        let mut session = deployment.client_session(50, 123);
        assert_eq!(session.id(), ProcessId::client(50));
        let receipts: Vec<AddReceipt> = (0..3)
            .map(|i| session.add(SimTime::from_millis(500 + i * 100), 0, 438, 900 + i))
            .collect();
        assert_eq!(session.added().len(), 3);
        assert!(receipts.iter().all(|r| r.server == ProcessId::server(0)));
        session.get(SimTime::from_secs(20), 2);
        session.get_epochs(SimTime::from_secs(20), 2, 1..=15);
        session.install(&mut deployment);

        deployment.sim.run_until(SimTime::from_secs(25));
        let outcome = session.outcome(&deployment);
        assert_eq!(outcome.snapshots.len(), 1);
        assert!(outcome.snapshots[0].snapshot.epoch > 0);
        assert_eq!(outcome.epochs.len(), 15);
        assert!(outcome.verified_count() > 0, "some epochs verified");
        let confirmed = outcome.confirmed_ids();
        assert_eq!(
            confirmed.len(),
            3,
            "all three session adds confirmed through a single server"
        );
        assert!(receipts.iter().all(|r| confirmed.contains(&r.id)));
    }

    #[test]
    fn retried_add_confirms_without_faults() {
        let mut deployment = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(200.0)
            .collector(25)
            .injection_secs(3)
            .max_run_secs(30)
            .seed(99)
            .build();
        let mut session = deployment.client_session(70, 555);
        let receipt = session.add_with_retry(SimTime::from_millis(500), 1, 438, 7000);
        assert_eq!(receipt.attempts, 0, "provisional receipt: nothing sent yet");
        assert!(receipt.confirmed_at.is_none());
        session.install(&mut deployment);

        deployment.sim.run_until(SimTime::from_secs(25));
        let outcome = session.outcome(&deployment);
        assert!(outcome.all_retries_confirmed());
        let resolved = outcome.retried[0];
        assert_eq!(resolved.id, receipt.id);
        assert!(resolved.attempts >= 1);
        assert!(resolved.confirmed_at.is_some());
        assert!(!resolved.gave_up);
        assert!(resolved.server.is_server());
    }

    #[test]
    fn shed_retry_fails_over_once() {
        // A one-element quota makes server 0 shed the retried add: the plain
        // add at 0.9 s spends the session's only token there. The shed
        // re-arms the attempt after its hint, and the first attempt's
        // deadline (due at 3 s) must not send a third attempt.
        let mut deployment = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(200.0)
            .collector(25)
            .injection_secs(3)
            .max_run_secs(30)
            .seed(99)
            .quota(QuotaConfig::new().with_rate(1).with_burst(1))
            .build();
        let mut session = deployment.client_session(70, 555);
        session.add(SimTime::from_millis(900), 0, 438, 7000);
        session.add_with_retry(SimTime::from_secs(1), 0, 438, 7001);
        session.install(&mut deployment);

        deployment.sim.run_until(SimTime::from_secs(25));
        let resolved = session.outcome(&deployment).retried[0];
        assert!(resolved.confirmed_at.is_some());
        assert_eq!(resolved.attempts, 2, "shed at server 0, admitted at 1");
        assert_eq!(resolved.server, ProcessId::server(1));
    }

    #[test]
    fn retry_gives_up_after_its_attempt_budget() {
        // Every server is down before the first send, so each attempt is
        // lost. The deadlines double from 2 s: attempts at 1, 3, 7, 15 and
        // 31 s, and the fifth deadline (63 s) abandons the add.
        let plan = (0..4).fold(FaultPlan::new(), |plan, i| {
            plan.at(
                SimTime::from_millis(500),
                FaultEvent::Crash(ProcessId::server(i)),
            )
        });
        let mut deployment = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(200.0)
            .injection_secs(1)
            .max_run_secs(70)
            .seed(99)
            .fault_plan(plan)
            .build();
        let mut session = deployment.client_session(70, 555);
        session.add_with_retry(SimTime::from_secs(1), 2, 438, 7000);
        session.install(&mut deployment);

        deployment.sim.run_until(SimTime::from_secs(70));
        let outcome = session.outcome(&deployment);
        let resolved = outcome.retried[0];
        assert!(resolved.gave_up);
        assert_eq!(resolved.attempts, 5);
        assert_eq!(resolved.confirmed_at, None);
        assert_eq!(resolved.server, ProcessId::server(2), "no server credited");
        assert!(!outcome.all_retries_confirmed());
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn double_install_panics() {
        let mut deployment = Deployment::builder(Algorithm::Vanilla)
            .servers(4)
            .injection_secs(1)
            .max_run_secs(5)
            .build();
        let mut session = deployment.client_session(9, 1);
        session.install(&mut deployment);
        session.install(&mut deployment);
    }

    #[test]
    #[should_panic(expected = "install the session")]
    fn outcome_before_install_panics() {
        let mut deployment = Deployment::builder(Algorithm::Vanilla)
            .servers(4)
            .injection_secs(1)
            .max_run_secs(5)
            .build();
        let session = deployment.client_session(9, 1);
        let _ = session.outcome(&deployment);
    }
}
