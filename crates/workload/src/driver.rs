//! The injection client: one per server, adding elements to its local
//! Setchain server at a configured rate (the paper's
//! `sending_rate / server_count` per client).

use std::any::Any;
use std::collections::HashSet;

use setchain::{Element, ElementId, LightClient, SetchainMsg, SetchainTrace, SetchainTx};
use setchain_crypto::ProcessId;
use setchain_ledger::NetMsg;
use setchain_simnet::{Context, Process, SimDuration, SimTime, TimerToken};

use crate::generator::ArbitrumWorkload;

/// Message type of Setchain deployments.
pub type Msg = NetMsg<SetchainTx, SetchainMsg>;

const INJECT_TICK: TimerToken = 1;

/// An injection client actor.
pub struct ClientDriver {
    server: ProcessId,
    workload: ArbitrumWorkload,
    /// Elements per second this client adds.
    rate: f64,
    /// Injection stops at this time.
    injection_end: SimTime,
    tick: SimDuration,
    carry: f64,
    trace: SetchainTrace,
    sent: u64,
    /// Injection is paused until this instant after the server sheds a
    /// submission with `Rejected { retry_after }` — the polite-client
    /// response to overload protection. `ZERO` when not backing off.
    backoff_until: SimTime,
    rejections: u64,
}

impl ClientDriver {
    /// Creates a driver that adds to `server` at `rate` el/s until
    /// `injection_end`.
    pub fn new(
        server: ProcessId,
        workload: ArbitrumWorkload,
        rate: f64,
        injection_end: SimTime,
        trace: SetchainTrace,
    ) -> Self {
        assert!(rate > 0.0, "sending rate must be positive");
        ClientDriver {
            server,
            workload,
            rate,
            injection_end,
            tick: SimDuration::from_millis(20),
            carry: 0.0,
            trace,
            sent: 0,
            backoff_until: SimTime::ZERO,
            rejections: 0,
        }
    }

    /// Number of elements sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Number of `Rejected { retry_after }` replies received — each paused
    /// injection until the server's hint elapsed.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

impl Process<Msg> for ClientDriver {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.tick, INJECT_TICK);
    }

    fn on_message(&mut self, _from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        // Responses to get() requests are handled by example binaries; the
        // throughput driver only reacts to overload sheds.
        if let NetMsg::App(SetchainMsg::Rejected { retry_after }) = msg {
            self.rejections += 1;
            self.backoff_until = self.backoff_until.max(ctx.now() + retry_after);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        if token != INJECT_TICK {
            return;
        }
        let now = ctx.now();
        if now > self.injection_end {
            return; // stop injecting; do not re-arm
        }
        if now < self.backoff_until {
            // Shed by the server: stay quiet until the retry hint elapses.
            // The skipped ticks' elements are simply not generated — the
            // driver offers a lower rate rather than bursting on resume.
            ctx.set_timer(self.tick, INJECT_TICK);
            return;
        }
        let due = self.rate * self.tick.as_secs_f64() + self.carry;
        let count = due.floor() as usize;
        self.carry = due - count as f64;
        if count > 0 {
            let elements = self.workload.take(count);
            self.trace.record_adds(elements.iter().map(|e| e.id), now);
            self.sent += count as u64;
            ctx.send(self.server, NetMsg::App(SetchainMsg::AddBatch(elements)));
        }
        ctx.set_timer(self.tick, INJECT_TICK);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// How a retried add behaves until it confirms: per-attempt deadline
/// (doubling each attempt, bounded exponential backoff), attempt budget, and
/// the confirmation-probe cadence.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Wait after the first send before failing over to the next server;
    /// doubles on every subsequent attempt (capped at 64×).
    pub deadline: SimDuration,
    /// Maximum number of send attempts before the add is abandoned.
    pub max_attempts: u32,
    /// Cadence of the confirmation probe loop (`get` snapshots followed by
    /// `get_epoch` audits of any new epochs).
    pub probe_interval: SimDuration,
}

impl Default for RetryPolicy {
    /// Two-second initial deadline, five attempts, half-second probes —
    /// enough to survive a crashed-then-restarted or partitioned target in
    /// the chaos scenarios without flooding a healthy deployment.
    fn default() -> Self {
        RetryPolicy {
            deadline: SimDuration::from_secs(2),
            max_attempts: 5,
            probe_interval: SimDuration::from_millis(500),
        }
    }
}

/// One add driven by the retry/failover state machine: the element, the
/// failover ring of servers to try in order, and the policy bounding it.
#[derive(Clone, Debug)]
pub struct RetryAdd {
    /// The signed element to add.
    pub element: Element,
    /// When the first attempt is sent.
    pub first_at: SimTime,
    /// Servers to try, in failover order (attempt `k` goes to entry
    /// `k mod len`).
    pub targets: Vec<ProcessId>,
    /// Deadlines and budgets.
    pub policy: RetryPolicy,
}

/// Post-run report for one [`RetryAdd`].
#[derive(Clone, Copy, Debug)]
pub struct RetryReport {
    /// Id of the retried element.
    pub id: ElementId,
    /// Send attempts actually made.
    pub attempts: u32,
    /// Server whose verified epoch confirmed the element, if any.
    pub final_server: Option<ProcessId>,
    /// Simulated time the confirming verified epoch arrived, if any.
    pub confirmed_at: Option<SimTime>,
    /// True if the attempt budget ran out before confirmation.
    pub gave_up: bool,
}

/// Runtime state of one retried add.
struct RetryState {
    spec: RetryAdd,
    attempts: u32,
    next_target: usize,
    confirmed_at: Option<SimTime>,
    confirmed_by: Option<ProcessId>,
    gave_up: bool,
}

impl RetryState {
    fn resolved(&self) -> bool {
        self.confirmed_at.is_some() || self.gave_up
    }

    /// The server the most recent attempt went to (the initial target before
    /// any send).
    fn current_target(&self) -> ProcessId {
        let i = self.next_target.saturating_sub(1) % self.spec.targets.len();
        self.spec.targets[i]
    }
}

/// Timer-token space of [`RequestClient`]: plain script entries use their
/// index, retried-add attempt deadlines live at `ATTEMPT_BASE + index`, and
/// the confirmation loop uses two fixed tokens above those.
const ATTEMPT_BASE: TimerToken = 1 << 32;
const PROBE_TOKEN: TimerToken = 1 << 33;
const REAUDIT_TOKEN: TimerToken = (1 << 33) + 1;

/// Cap on `get_epoch` audits sent per `get` snapshot, so a probe against a
/// far-ahead server does not flood the network in one burst; later probes
/// pick up where the burst stopped.
const MAX_AUDIT_BURST: usize = 32;

/// A scripted client actor: sends pre-programmed requests (adds, `get`,
/// `get_epoch`) to servers at given times and records every application-level
/// response it receives. Used by the examples and the light-client
/// integration tests to exercise the client-facing API over the simulated
/// network instead of peeking into server state.
///
/// With [`RequestClient::with_retries`] it additionally drives adds through a
/// deadline/retry/failover state machine: each [`RetryAdd`] is re-sent to the
/// next server in its failover ring whenever its (doubling) deadline passes
/// without confirmation, and a probe loop audits new epochs with `f + 1`
/// proof verification until every retried add is confirmed or abandoned. A
/// [`NotEnoughProofs`](setchain::EpochVerification::NotEnoughProofs) verdict on an
/// epoch containing a retried element re-audits that epoch after the
/// verdict's `retry_after` hint.
pub struct RequestClient {
    script: Vec<(SimTime, ProcessId, SetchainMsg)>,
    responses: Vec<(SimTime, ProcessId, SetchainMsg)>,
    retries: Vec<RetryState>,
    /// Light client used to issue audit requests and verify epoch responses;
    /// `None` when the actor only replays its script.
    verifier: Option<LightClient>,
    /// Epochs already confirmed by an `f + 1`-proof verified response.
    verified_epochs: HashSet<u64>,
    /// Lowest epoch not yet verified: audits start here.
    audit_low: u64,
    /// Epochs to re-audit once the `retry_after` hint elapses, with the
    /// server to ask.
    pending_reaudits: Vec<(u64, ProcessId)>,
}

impl RequestClient {
    /// Creates a client that will send each `(time, server, message)` entry.
    pub fn new(mut script: Vec<(SimTime, ProcessId, SetchainMsg)>) -> Self {
        script.sort_by_key(|(t, _, _)| *t);
        RequestClient {
            script,
            responses: Vec::new(),
            retries: Vec::new(),
            verifier: None,
            verified_epochs: HashSet::new(),
            audit_low: 1,
            pending_reaudits: Vec::new(),
        }
    }

    /// Builder: drives `retries` through the retry/failover machine,
    /// verifying confirmations with `verifier` (which must already know the
    /// retried element ids — see [`LightClient::add`]).
    pub fn with_retries(mut self, retries: Vec<RetryAdd>, verifier: LightClient) -> Self {
        assert!(
            retries.iter().all(|r| !r.targets.is_empty()),
            "retried adds need at least one target server"
        );
        self.retries = retries
            .into_iter()
            .map(|spec| RetryState {
                spec,
                attempts: 0,
                next_target: 0,
                confirmed_at: None,
                confirmed_by: None,
                gave_up: false,
            })
            .collect();
        self.verifier = Some(verifier);
        self
    }

    /// Responses received so far, with arrival time and responding server.
    pub fn responses(&self) -> &[(SimTime, ProcessId, SetchainMsg)] {
        &self.responses
    }

    /// Post-run reports for the retried adds, in submission order.
    pub fn retry_reports(&self) -> Vec<RetryReport> {
        self.retries
            .iter()
            .map(|r| RetryReport {
                id: r.spec.element.id,
                attempts: r.attempts,
                final_server: r.confirmed_by,
                confirmed_at: r.confirmed_at,
                gave_up: r.gave_up,
            })
            .collect()
    }

    /// One attempt of retry `i`: send (or re-send, to the next server in the
    /// failover ring) and arm the doubled deadline, or give up once the
    /// attempt budget is spent.
    fn on_attempt(&mut self, i: usize, ctx: &mut Context<'_, Msg>) {
        let Some(r) = self.retries.get_mut(i) else {
            return;
        };
        if r.resolved() {
            return;
        }
        if r.attempts >= r.spec.policy.max_attempts {
            r.gave_up = true;
            return;
        }
        let target = r.spec.targets[r.next_target % r.spec.targets.len()];
        r.next_target += 1;
        r.attempts += 1;
        // Duplicate sends are protocol-safe (servers dedup by element id),
        // so failover just re-sends blindly to the next server.
        ctx.send(target, NetMsg::App(SetchainMsg::Add(r.spec.element)));
        let backoff = r.spec.policy.deadline * (1u64 << (r.attempts - 1).min(6));
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
        let target = first.current_target();
        let interval = first.spec.policy.probe_interval;
        let get = self
            .verifier
            .as_mut()
            .expect("retries imply verifier")
            .get();
        ctx.send(target, NetMsg::App(get));
        ctx.set_timer(interval, PROBE_TOKEN);
    }

    /// Re-audits the epochs whose `retry_after` hint elapsed.
    fn on_reaudit(&mut self, ctx: &mut Context<'_, Msg>) {
        let pending = std::mem::take(&mut self.pending_reaudits);
        let Some(verifier) = self.verifier.as_mut() else {
            return;
        };
        for (epoch, server) in pending {
            if self.verified_epochs.contains(&epoch) {
                continue;
            }
            ctx.send(server, NetMsg::App(verifier.get_epoch(epoch)));
        }
    }

    /// Inspects a response for the retry machine: snapshots trigger epoch
    /// audits, verified epochs confirm retried adds, and under-proven epochs
    /// holding a retried element schedule a re-audit after the verdict's
    /// `retry_after` hint.
    fn observe(&mut self, from: ProcessId, msg: &SetchainMsg, ctx: &mut Context<'_, Msg>) {
        let Some(verifier) = self.verifier.as_mut() else {
            return;
        };
        match msg {
            SetchainMsg::GetResponse { snapshot, .. } => {
                if !self.retries.iter().any(|r| !r.resolved()) {
                    return;
                }
                let mut burst = 0;
                for epoch in self.audit_low..=snapshot.epoch {
                    if self.verified_epochs.contains(&epoch) {
                        continue;
                    }
                    ctx.send(from, NetMsg::App(verifier.get_epoch(epoch)));
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
                let rejected = self
                    .retries
                    .iter()
                    .position(|r| !r.resolved() && r.attempts > 0 && r.current_target() == from);
                if let Some(i) = rejected {
                    ctx.set_timer(*retry_after, ATTEMPT_BASE + i as TimerToken);
                }
            }
            SetchainMsg::EpochResponse {
                epoch, elements, ..
            } => {
                let Some((verification, mine)) = verifier.verify_response(msg) else {
                    return;
                };
                if verification.is_verified() {
                    self.verified_epochs.insert(*epoch);
                    while self.verified_epochs.remove(&self.audit_low) {
                        self.audit_low += 1;
                    }
                    let now = ctx.now();
                    for r in self.retries.iter_mut().filter(|r| !r.resolved()) {
                        if mine.contains(&r.spec.element.id) {
                            r.confirmed_at = Some(now);
                            r.confirmed_by = Some(from);
                        }
                    }
                } else if let Some(retry_after) = verification.retry_after() {
                    // The epoch exists but is not yet fully proven. If it
                    // holds one of our unresolved elements, the hint tells us
                    // when re-asking is worthwhile.
                    let interesting = self.retries.iter().any(|r| {
                        !r.resolved() && elements.iter().any(|e| e.id == r.spec.element.id)
                    });
                    if interesting && !self.pending_reaudits.iter().any(|(e, _)| e == epoch) {
                        self.pending_reaudits.push((*epoch, from));
                        ctx.set_timer(retry_after, REAUDIT_TOKEN);
                    }
                }
            }
            _ => {}
        }
    }
}

impl Process<Msg> for RequestClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // One timer per scripted entry; the token indexes into the script.
        for (i, (at, _, _)) in self.script.iter().enumerate() {
            ctx.set_timer(at.since(SimTime::ZERO), i as TimerToken);
        }
        // One attempt timer per retried add, plus the probe loop.
        for (i, r) in self.retries.iter().enumerate() {
            ctx.set_timer(
                r.spec.first_at.since(SimTime::ZERO),
                ATTEMPT_BASE + i as TimerToken,
            );
        }
        if let Some(first) = self.retries.first() {
            ctx.set_timer(
                first.spec.first_at.since(SimTime::ZERO) + first.spec.policy.probe_interval,
                PROBE_TOKEN,
            );
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let NetMsg::App(m) = msg {
            self.observe(from, &m, ctx);
            self.responses.push((ctx.now(), from, m));
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

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain_crypto::KeyRegistry;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let registry = KeyRegistry::bootstrap(1, 1, 1);
        let workload = ArbitrumWorkload::for_client(&registry, ProcessId::client(0), 1);
        let _ = ClientDriver::new(
            ProcessId::server(0),
            workload,
            0.0,
            SimTime::from_secs(1),
            SetchainTrace::new(),
        );
    }
}
