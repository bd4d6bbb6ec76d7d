//! The actor abstraction: processes, their execution context, and the
//! [`Wire`] trait that gives every message a wire size for the bandwidth
//! model.

use std::any::Any;
use std::fmt::Debug;
use std::sync::Arc;

use rand::rngs::StdRng;
use setchain_crypto::ProcessId;

use crate::time::{SimDuration, SimTime};

/// Token identifying a timer set by a process. The meaning of the token is
/// private to the process that set it.
pub type TimerToken = u64;

/// Messages exchanged through the simulated network.
///
/// `wire_size` is the number of bytes the message occupies on the wire; the
/// network uses it for the bandwidth/transmission-time model, and experiment
/// reports use it to account for communication volume.
pub trait Wire: Clone + Debug + Send + 'static {
    /// Serialized size of this message in bytes.
    fn wire_size(&self) -> usize;
}

/// Actions a process can ask the simulation to perform. Collected during a
/// handler invocation and applied by the scheduler afterwards.
///
/// Messages are carried as `Arc<M>` so that fan-out sends (broadcasts to all
/// peers) enqueue one shared payload with a refcount bump per recipient
/// instead of deep-cloning the message per peer. The scheduler hands each
/// recipient an owned `M` at delivery time: the last reference is unwrapped
/// without a copy, so point-to-point messages are never cloned at all.
#[derive(Debug)]
pub(crate) enum Action<M> {
    Send {
        to: ProcessId,
        msg: Arc<M>,
    },
    SetTimer {
        delay: SimDuration,
        token: TimerToken,
    },
}

/// Execution context handed to a process while it handles an event.
///
/// All interaction with the outside world goes through the context: sending
/// messages, arming timers, consuming simulated CPU time and drawing random
/// numbers (from the simulation's seeded RNG, so runs stay deterministic).
///
/// The action buffer is borrowed from the scheduler and reused across
/// handler invocations, so a handler that sends a few messages performs no
/// allocation beyond the messages themselves.
pub struct Context<'a, M> {
    pub(crate) self_id: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) actions: &'a mut Vec<Action<M>>,
    pub(crate) cpu_consumed: SimDuration,
    pub(crate) rng: &'a mut StdRng,
}

impl<'a, M> Context<'a, M> {
    /// The id of the process currently executing.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`. Delivery time is decided by the network model;
    /// the message may be lost if loss or partitions are configured.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.send_shared(to, Arc::new(msg));
    }

    /// Sends an already-`Arc`-wrapped message: the send itself is a refcount
    /// bump, and the queue holds one shared payload for all recipients.
    /// Ownership is materialized lazily at delivery, so the final recipient
    /// (and every point-to-point or lost message) never clones; earlier
    /// recipients of a broadcast clone then. This is the fan-out primitive —
    /// wrap the message once, then `send_shared` a clone of the `Arc` to
    /// every recipient.
    pub fn send_shared(&mut self, to: ProcessId, msg: Arc<M>) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends `msg` to every process in `peers` (excluding no one; include or
    /// exclude self in the iterator as desired). The payload is wrapped in
    /// an `Arc` once and shared across the queue (see
    /// [`send_shared`](Self::send_shared) for when clones still happen).
    pub fn send_to_all<I>(&mut self, peers: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        let msg = Arc::new(msg);
        for peer in peers {
            self.send_shared(peer, Arc::clone(&msg));
        }
    }

    /// Arms a timer that will fire `delay` from now with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Models `amount` of CPU work on this node: subsequent message and timer
    /// deliveries to this node are deferred until the work is done.
    pub fn consume_cpu(&mut self, amount: SimDuration) {
        self.cpu_consumed += amount;
    }

    /// CPU work charged so far in this handler invocation.
    pub fn cpu_consumed(&self) -> SimDuration {
        self.cpu_consumed
    }

    /// Access to the simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// A simulated process (server, client, validator…).
///
/// `Any` is a supertrait, so the experiment harness inspects actor state
/// after a run by upcasting to `dyn Any` and downcasting
/// ([`Simulation::process`](crate::Simulation::process)); implementations
/// provide nothing for it.
pub trait Process<M: Wire>: Any + Send {
    /// Called once when the simulation starts, before any event is delivered.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message addressed to this process arrives.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer set by this process fires.
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<'_, M>) {}

    /// Kept so that implementations that still define it (the `benchmark`
    /// package's replay process) compile; nothing calls it.
    #[doc(hidden)]
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }

    /// See [`Process::as_any`].
    #[doc(hidden)]
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    // The payload is never read; it exists so the test message has a body
    // like a real wire message.
    #[derive(Clone, Debug)]
    struct Ping(#[allow(dead_code)] u32);

    impl Wire for Ping {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn context_collects_actions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut actions = Vec::new();
        let mut ctx: Context<'_, Ping> = Context {
            self_id: ProcessId::server(0),
            now: SimTime::from_secs(1),
            actions: &mut actions,
            cpu_consumed: SimDuration::ZERO,
            rng: &mut rng,
        };
        assert_eq!(ctx.self_id(), ProcessId::server(0));
        assert_eq!(ctx.now(), SimTime::from_secs(1));
        ctx.send(ProcessId::server(1), Ping(1));
        ctx.send_to_all([ProcessId::server(2), ProcessId::server(3)], Ping(2));
        ctx.set_timer(SimDuration::from_millis(5), 7);
        ctx.consume_cpu(SimDuration::from_micros(100));
        ctx.consume_cpu(SimDuration::from_micros(50));
        assert_eq!(ctx.actions.len(), 4);
        assert_eq!(ctx.cpu_consumed, SimDuration::from_micros(150));
        let _ = ctx.rng().gen_range(0..10u32);
    }

    use rand::Rng;
}
