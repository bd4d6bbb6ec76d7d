//! The injection client: one per server, adding elements to its local
//! Setchain server at a configured rate (the paper's
//! `sending_rate / server_count` per client).

use setchain::{SetchainMsg, SetchainTrace, SetchainTx};
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
        // The driver sends only adds, so the one reply it can get is an
        // overload shed.
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
