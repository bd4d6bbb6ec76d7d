//! Typed client sessions: the client-facing Setchain API (`add`, `get`,
//! `get_epoch`) without raw [`SetchainMsg`] plumbing.
//!
//! A [`ClientSession`] scripts requests against a [`Deployment`], installs
//! itself as a simulated actor, and — after the run — interprets every
//! response into typed results: [`AddReceipt`] for adds, [`SnapshotView`]
//! for `get`, and [`VerifiedEpoch`] for `get_epoch`, with `f + 1`
//! epoch-proof verification ([`setchain::verify_epoch`]) already applied.
//! The same session script works against any algorithm, because servers are
//! reached through the variant-agnostic deployment facade.
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
    prove_epoch_inclusion, Element, ElementId, EpochInclusionProof, EpochProof, EpochVerification,
    GetSnapshot, LightClient, SetchainMsg,
};
use setchain_crypto::{KeyPair, ProcessId};
use setchain_simnet::SimTime;

use crate::deploy::Deployment;
use crate::driver::{RequestClient, RetryAdd, RetryPolicy};

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
    /// True if the retry machine exhausted its attempt budget without
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

/// A typed client session against one deployment.
///
/// Opened with [`Deployment::client_session`]; the session owns a registered
/// key pair, scripts `add`/`get`/`get_epoch` requests, and interprets the
/// responses after the run (see the module docs for the full workflow).
pub struct ClientSession {
    id: ProcessId,
    keys: KeyPair,
    generator: setchain::ElementGenerator,
    light: LightClient,
    script: Vec<(SimTime, ProcessId, SetchainMsg)>,
    /// Deployment size, for building failover rings.
    servers: usize,
    /// Adds driven by the retry/failover machine (handed to the actor at
    /// install time).
    retries: Vec<RetryAdd>,
    /// Provisional receipts for the retried adds, resolved in `outcome()`.
    retry_receipts: Vec<AddReceipt>,
    installed: bool,
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
            generator: setchain::ElementGenerator::new(keys),
            light: LightClient::new(
                deployment.registry.clone(),
                deployment.config.servers,
                deployment.config.f,
            ),
            script: Vec::new(),
            servers: deployment.config.servers,
            retries: Vec::new(),
            retry_receipts: Vec::new(),
            installed: false,
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
        self.light.added()
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
        let msg = self.light.add(element);
        self.script.push((at, server, msg));
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
    /// server `server` and driven by the deadline/retry/failover machine
    /// ([`RetryPolicy`]) until a verified epoch confirms it — re-sent to the
    /// next server (round-robin over the whole deployment) whenever the
    /// doubling per-attempt deadline passes, for at most
    /// `policy.max_attempts` attempts. Duplicate deliveries are safe: servers
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
        policy: RetryPolicy,
    ) -> AddReceipt {
        self.assert_scriptable();
        let element = self.generator.next_element(size, content_seed);
        // Register the id with the light client (the message itself is
        // rebuilt by the retry machine on every attempt).
        let _ = self.light.add(element);
        let servers = self.servers;
        let targets: Vec<ProcessId> = (0..servers)
            .map(|k| ProcessId::server((server + k) % servers))
            .collect();
        let receipt = AddReceipt {
            id: element.id,
            element,
            server: ProcessId::server(server),
            at,
            attempts: 0,
            confirmed_at: None,
            gave_up: false,
        };
        self.retries.push(RetryAdd {
            element,
            first_at: at,
            targets,
            policy,
        });
        self.retry_receipts.push(receipt);
        receipt
    }

    /// Scripts `S.get_v()` at `at` against server `server`.
    pub fn get(&mut self, at: SimTime, server: usize) {
        self.assert_scriptable();
        let msg = self.light.get();
        self.script.push((at, ProcessId::server(server), msg));
    }

    /// Scripts `S.get_epoch_v(epoch)` at `at` against server `server`.
    pub fn get_epoch(&mut self, at: SimTime, server: usize, epoch: u64) {
        self.assert_scriptable();
        let msg = self.light.get_epoch(epoch);
        self.script.push((at, ProcessId::server(server), msg));
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

    /// Installs the scripted session as a simulated client actor. Must be
    /// called exactly once, before the run that should serve the script.
    pub fn install(&mut self, deployment: &mut Deployment) {
        assert!(!self.installed, "session already installed");
        self.installed = true;
        let script = std::mem::take(&mut self.script);
        let mut client = RequestClient::new(script);
        if !self.retries.is_empty() {
            // The cloned light client already knows every retried element id,
            // so the actor can verify confirmations on its own.
            client = client.with_retries(std::mem::take(&mut self.retries), self.light.clone());
        }
        deployment.sim.add_process(self.id, Box::new(client));
    }

    /// Interprets every response received so far into typed results,
    /// verifying each epoch response against the PKI with the deployment's
    /// `f + 1` quorum. Callable any time after [`ClientSession::install`]
    /// (typically after the run).
    pub fn outcome(&self, deployment: &Deployment) -> SessionOutcome {
        assert!(self.installed, "install the session before reading results");
        let client: &RequestClient = deployment
            .sim
            .process(self.id)
            .expect("session actor installed");
        let mut outcome = SessionOutcome::default();
        for (at, from, response) in client.responses() {
            match response {
                SetchainMsg::GetResponse { snapshot, .. } => {
                    outcome.snapshots.push(SnapshotView {
                        server: *from,
                        at: *at,
                        snapshot: *snapshot,
                    });
                }
                SetchainMsg::EpochResponse {
                    epoch,
                    elements,
                    proofs,
                    ..
                } => {
                    let (verification, confirmed) = self
                        .light
                        .verify_response(response)
                        .expect("epoch responses are verifiable");
                    outcome.epochs.push(VerifiedEpoch {
                        server: *from,
                        at: *at,
                        epoch: *epoch,
                        elements: elements.clone(),
                        proof_count: proofs.len(),
                        proofs: proofs.clone(),
                        verification,
                        confirmed,
                    });
                }
                _ => {}
            }
        }
        let reports = client.retry_reports();
        for receipt in &self.retry_receipts {
            let mut resolved = *receipt;
            if let Some(report) = reports.iter().find(|r| r.id == receipt.id) {
                resolved.attempts = report.attempts;
                resolved.confirmed_at = report.confirmed_at;
                resolved.gave_up = report.gave_up;
                if let Some(final_server) = report.final_server {
                    resolved.server = final_server;
                }
            }
            outcome.retried.push(resolved);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain::Algorithm;

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
        let receipt = session.add_with_retry(
            SimTime::from_millis(500),
            1,
            438,
            7000,
            RetryPolicy::default(),
        );
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
