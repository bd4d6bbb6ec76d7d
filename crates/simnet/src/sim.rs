//! The discrete-event scheduler.
//!
//! [`Simulation`] owns the processes, the network and the event queues. It is
//! single-threaded and deterministic: events are ordered by `(time, sequence
//! number)`, where the sequence number is assigned at insertion time from one
//! shared counter, so two runs with the same seed and the same inputs produce
//! identical schedules. Parallelism in the evaluation harness comes from
//! running many independent simulations on different OS threads, not from
//! inside one simulation.
//!
//! # Scheduler internals
//!
//! Three structural decisions keep the per-event cost flat:
//!
//! * **Slab process table.** Processes live in a dense `Vec<Slot>`; a
//!   [`ProcessId`] resolves to its slab position through two dense
//!   per-range index arrays (one for server ids, one for client ids), so an
//!   event dispatch is two array reads instead of a `BTreeMap` tree walk.
//!   These tables are the only lookup: registering an id whose index is
//!   2^20 or more panics, and a message to an unregistered id is dropped.
//! * **Split timer queue.** Timer events carry no message payload, so they
//!   live in their own heap of small `Copy` records instead of sharing the
//!   delivery heap's `Arc<M>`-carrying entries. The two heaps are merged at
//!   pop time by comparing `(time, seq)` — the shared sequence counter makes
//!   the merged order identical to a single queue's.
//! * **Coalesced delivery.** Consecutive deliveries to the same recipient at
//!   the same instant (a broadcast fan-in, a loopback burst) run as one
//!   handler invocation: one [`Process::on_message`] call per delivery, in
//!   queue order, sharing one [`Context`] and one action-application pass.
//!   The run's [`Context::consume_cpu`] charges accumulate and defer
//!   *later* events; within the run, every message is handled at the shared
//!   arrival instant. Two fences end a run: a timer interleaved at the same
//!   instant, and a deferred delivery, which always runs alone so a CPU
//!   backlog still drains serialized.
//!
//! The per-handler action buffer and the delivery run buffer are owned by
//! the simulation and reused across events, so steady-state event processing
//! allocates only what the handlers themselves allocate.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use setchain_crypto::ProcessId;

use crate::fault::{FaultEvent, FaultPlan};
use crate::network::{Network, NetworkConfig, Partition};
use crate::process::{Action, Context, Process, TimerToken, Wire};
use crate::time::{SimDuration, SimTime};

/// Top-level simulation parameters.
#[derive(Clone, Debug)]
pub struct SimulationConfig {
    /// Seed for the simulation RNG (network jitter, process randomness).
    pub seed: u64,
    /// Network model configuration.
    pub network: NetworkConfig,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            seed: 42,
            network: NetworkConfig::lan(),
        }
    }
}

/// Why a call to [`Simulation::run_until_quiescent`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely at the given time.
    Quiescent(SimTime),
    /// The time limit was reached with events still pending.
    TimeLimit(SimTime),
}

/// A message delivery in flight.
struct DeliverEvent<M> {
    at: SimTime,
    seq: u64,
    from: ProcessId,
    to: ProcessId,
    /// True once the delivery has been deferred past a busy CPU window.
    /// Deferred deliveries are re-serialized one at a time (they all land
    /// on the same release instant, and batching them would let one
    /// handler invocation swallow a backlog the CPU model is supposed to
    /// spread out), so they are excluded from delivery coalescing.
    deferred: bool,
    /// Shared payload: a broadcast enqueues one allocation for all
    /// recipients. Ownership is materialized at delivery time
    /// (`Arc::try_unwrap`), so the last — often the only — recipient
    /// takes the message without a copy.
    msg: Arc<M>,
}

impl<M> PartialEq for DeliverEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for DeliverEvent<M> {}
impl<M> PartialOrd for DeliverEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for DeliverEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so the BinaryHeap (a max-heap) pops the earliest
        // event first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A pending timer: a small `Copy` record on the timer fast path — no
/// payload allocation travels with it.
#[derive(Clone, Copy, PartialEq, Eq)]
struct TimerEvent {
    at: SimTime,
    seq: u64,
    node: ProcessId,
    token: TimerToken,
}

impl PartialOrd for TimerEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Slot<M: Wire> {
    id: ProcessId,
    process: Box<dyn Process<M>>,
    /// Node CPU is busy until this time; deliveries are deferred past it.
    busy_until: SimTime,
    /// Crashed processes run no handlers; events addressed to them are
    /// dropped at dispatch time (the heaps are left untouched, preserving
    /// `(time, seq)` order for everyone else).
    crashed: bool,
    /// Timers with a sequence number below this barrier belong to a
    /// pre-crash incarnation and never fire. Set to the current sequence
    /// counter on restart, just before `on_start` re-arms fresh timers.
    timer_barrier: u64,
}

/// Sentinel for "no process registered at this index".
const NO_SLOT: u32 = u32::MAX;
/// Registered ids must have a per-range index below this, so a stray huge
/// id cannot balloon the dense tables. Deployments register servers and
/// client sessions in the hundreds; a lookup past a table misses, so a
/// message to an unregistered id is dropped.
const DENSE_LIMIT: usize = 1 << 20;

/// A deterministic discrete-event simulation.
pub struct Simulation<M: Wire> {
    now: SimTime,
    seq: u64,
    deliveries: BinaryHeap<DeliverEvent<M>>,
    timers: BinaryHeap<TimerEvent>,
    /// Dense slab of processes, in registration order.
    slots: Vec<Slot<M>>,
    /// Dense index: server index → slab position (`NO_SLOT` if absent).
    server_slots: Vec<u32>,
    /// Dense index: client index → slab position (`NO_SLOT` if absent).
    client_slots: Vec<u32>,
    /// Registered ids, kept sorted (start order and `process_ids` order).
    ids: Vec<ProcessId>,
    network: Network,
    rng: StdRng,
    started: bool,
    events_processed: u64,
    messages_deferred: u64,
    /// Deliveries dropped because the recipient was crashed at dispatch
    /// time (the crashed-recipient analogue of the network's loss and
    /// partition drop counters).
    dropped_crashed: u64,
    /// Installed fault schedule, sorted by time; `next_fault` indexes the
    /// first entry not yet applied.
    faults: Vec<(SimTime, FaultEvent)>,
    next_fault: usize,
    /// Reused per-handler action buffer (empty between events).
    actions_scratch: Vec<Action<M>>,
    /// Reused coalesced-delivery run buffer (empty between events).
    batch_scratch: Vec<(ProcessId, M)>,
}

impl<M: Wire> Simulation<M> {
    /// Creates an empty simulation.
    pub fn new(config: SimulationConfig) -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            deliveries: BinaryHeap::new(),
            timers: BinaryHeap::new(),
            slots: Vec::new(),
            server_slots: Vec::new(),
            client_slots: Vec::new(),
            ids: Vec::new(),
            network: Network::new(config.network),
            rng: StdRng::seed_from_u64(config.seed),
            started: false,
            events_processed: 0,
            messages_deferred: 0,
            dropped_crashed: 0,
            faults: Vec::new(),
            next_fault: 0,
            actions_scratch: Vec::new(),
            batch_scratch: Vec::new(),
        }
    }

    /// Registers a process. Panics if the id is already taken, if its
    /// per-range index is not below `DENSE_LIMIT` (2^20), or if the
    /// simulation has already started.
    pub fn add_process(&mut self, id: ProcessId, process: Box<dyn Process<M>>) {
        assert!(
            !self.started,
            "cannot add processes after the simulation started"
        );
        assert!(self.slot_index(id).is_none(), "duplicate process id {id}");
        let index = if id.is_server() {
            id.server_index()
        } else {
            id.client_index()
        };
        assert!(index < DENSE_LIMIT, "process id {id} beyond DENSE_LIMIT");
        let slot = self.slots.len() as u32;
        self.slots.push(Slot {
            id,
            process,
            busy_until: SimTime::ZERO,
            crashed: false,
            timer_barrier: 0,
        });
        let table = if id.is_server() {
            &mut self.server_slots
        } else {
            &mut self.client_slots
        };
        if table.len() <= index {
            table.resize(index + 1, NO_SLOT);
        }
        table[index] = slot;
        // Registration is cold; keep the id list sorted as we go.
        let pos = self.ids.partition_point(|existing| *existing < id);
        self.ids.insert(pos, id);
    }

    /// Resolves a process id to its slab position.
    #[inline]
    fn slot_index(&self, id: ProcessId) -> Option<usize> {
        let (table, index) = if id.is_server() {
            (&self.server_slots, id.server_index())
        } else {
            (&self.client_slots, id.client_index())
        };
        match table.get(index) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of deliveries deferred because the target node's CPU was busy.
    pub fn messages_deferred(&self) -> u64 {
        self.messages_deferred
    }

    /// Read access to the network (for drop/delivery counters).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Installs a network partition; returns its index.
    pub fn add_partition(&mut self, partition: Partition) -> usize {
        self.network.add_partition(partition)
    }

    /// Heals all network partitions.
    pub fn heal_all_partitions(&mut self) {
        self.network.heal_all_partitions()
    }

    /// Changes the network loss rate mid-run. Panics unless `rate` is in
    /// `[0, 1]`.
    pub fn set_loss_rate(&mut self, rate: f64) {
        self.network.set_loss_rate(rate)
    }

    /// Deliveries dropped because the recipient was crashed.
    pub fn dropped_crashed(&self) -> u64 {
        self.dropped_crashed
    }

    /// Crashes a process: until [`restart`](Simulation::restart), every
    /// delivery and timer addressed to it is dropped at dispatch time and
    /// it runs no handlers. The slab and the event heaps stay untouched —
    /// dropping happens at pop time, so `(time, seq)` ordering for live
    /// processes is unaffected. Panics if the id is unknown.
    pub fn crash(&mut self, pid: ProcessId) {
        let slot = self.slot_index(pid).expect("crash: unknown process id");
        self.slots[slot].crashed = true;
    }

    /// Restarts a crashed process. Its CPU backlog is cleared, timers armed
    /// by the pre-crash incarnation are invalidated, and `on_start` runs
    /// again (at the current simulated time) so periodic timers re-arm.
    /// No-op if the process is not crashed; panics if the id is unknown.
    pub fn restart(&mut self, pid: ProcessId) {
        let slot = self.slot_index(pid).expect("restart: unknown process id");
        if !self.slots[slot].crashed {
            return;
        }
        self.slots[slot].crashed = false;
        self.slots[slot].busy_until = self.now;
        // Everything scheduled so far carries a sequence number below the
        // current counter, so this fences off all pre-crash timers while
        // letting the on_start below arm fresh ones.
        self.slots[slot].timer_barrier = self.seq;
        if self.started {
            self.run_handler(slot, |process, ctx| process.on_start(ctx));
        }
    }

    /// True if `pid` is currently crashed. Panics if the id is unknown.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        let slot = self
            .slot_index(pid)
            .expect("is_crashed: unknown process id");
        self.slots[slot].crashed
    }

    /// Installs a fault plan. Must be called before the simulation starts;
    /// entries are stably sorted by time and applied by the event loop as
    /// simulated time reaches them (before same-instant events dispatch).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "fault plans must be installed before the simulation starts"
        );
        self.faults.extend(plan.into_sorted_entries());
        self.faults.sort_by_key(|(at, _)| *at);
    }

    /// Ids of all registered processes, in ascending order.
    ///
    /// Borrows the cached id list — no allocation per call. Callers that
    /// need ownership collect explicitly.
    pub fn process_ids(&self) -> impl ExactSizeIterator<Item = ProcessId> + '_ {
        self.ids.iter().copied()
    }

    /// Typed read access to a process, for post-run inspection.
    pub fn process<T: 'static>(&self, id: ProcessId) -> Option<&T> {
        let process: &dyn Any = &*self.slots[self.slot_index(id)?].process;
        process.downcast_ref()
    }

    /// Typed mutable access to a process.
    pub fn process_mut<T: 'static>(&mut self, id: ProcessId) -> Option<&mut T> {
        let i = self.slot_index(id)?;
        let process: &mut dyn Any = &mut *self.slots[i].process;
        process.downcast_mut()
    }

    /// Schedules a message injection from outside the simulation (used by
    /// tests and by workload drivers that are not modelled as actors).
    pub fn schedule_message(&mut self, at: SimTime, from: ProcessId, to: ProcessId, msg: M) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push_delivery(at, from, to, Arc::new(msg));
    }

    /// Schedules a timer for `node` from outside the simulation.
    pub fn schedule_timer(&mut self, at: SimTime, node: ProcessId, token: TimerToken) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push_timer(at, node, token);
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push_delivery(&mut self, at: SimTime, from: ProcessId, to: ProcessId, msg: Arc<M>) {
        let seq = self.next_seq();
        self.deliveries.push(DeliverEvent {
            at,
            seq,
            from,
            to,
            deferred: false,
            msg,
        });
    }

    fn push_deferred_delivery(&mut self, at: SimTime, from: ProcessId, to: ProcessId, msg: Arc<M>) {
        let seq = self.next_seq();
        self.deliveries.push(DeliverEvent {
            at,
            seq,
            from,
            to,
            deferred: true,
            msg,
        });
    }

    fn push_timer(&mut self, at: SimTime, node: ProcessId, token: TimerToken) {
        let seq = self.next_seq();
        self.timers.push(TimerEvent {
            at,
            seq,
            node,
            token,
        });
    }

    /// `(time, seq)` of the next event across both heaps, if any.
    fn next_event_key(&self) -> Option<(SimTime, u64)> {
        let d = self.deliveries.peek().map(|e| (e.at, e.seq));
        let t = self.timers.peek().map(|e| (e.at, e.seq));
        match (d, t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Time of the next pending fault, if any.
    fn next_fault_time(&self) -> Option<SimTime> {
        self.faults.get(self.next_fault).map(|(at, _)| *at)
    }

    /// Time of the next scheduled activity — event or fault — if any.
    fn next_activity_time(&self) -> Option<SimTime> {
        let event = self.next_event_key().map(|(at, _)| at);
        match (event, self.next_fault_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Applies the pending faults of the earliest due fault instant, if that
    /// instant is before (or tied with) the next queued event. A fault at
    /// instant `T` therefore takes effect before any message or timer
    /// scheduled at `T` dispatches. One instant per call, so callers
    /// driving the clock toward a deadline never overshoot it. Returns
    /// `true` if at least one fault was applied.
    fn apply_due_faults(&mut self) -> bool {
        let Some(first) = self.next_fault_time() else {
            return false;
        };
        let event_sooner = self
            .next_event_key()
            .map(|(ev_at, _)| first > ev_at)
            .unwrap_or(false);
        if event_sooner {
            return false;
        }
        if first > self.now {
            self.now = first;
        }
        while self.next_fault_time() == Some(first) {
            let (_, event) = self.faults[self.next_fault].clone();
            self.next_fault += 1;
            match event {
                FaultEvent::Crash(pid) => self.crash(pid),
                FaultEvent::Restart(pid) => self.restart(pid),
                FaultEvent::InjectPartition(partition) => {
                    self.network.add_partition(partition);
                }
                FaultEvent::HealPartitions => self.network.heal_all_partitions(),
                FaultEvent::SetLossRate(rate) => self.network.set_loss_rate(rate),
            }
        }
        true
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Start processes in ascending id order (the order the old
        // `BTreeMap`-based table used), so existing seeds reproduce.
        let ids = self.ids.clone();
        for id in ids {
            if let Some(slot) = self.slot_index(id) {
                if self.slots[slot].crashed {
                    continue; // crashed before start: on_start runs at restart
                }
                self.run_handler(slot, |process, ctx| process.on_start(ctx));
            }
        }
    }

    /// Runs the handler `f` for the process in `slot`, then applies the
    /// actions it produced. The action buffer is reused across invocations.
    fn run_handler<F>(&mut self, slot: usize, f: F)
    where
        F: FnOnce(&mut dyn Process<M>, &mut Context<'_, M>),
    {
        let now = self.now;
        let mut actions = std::mem::take(&mut self.actions_scratch);
        debug_assert!(actions.is_empty());
        let cpu_consumed;
        let id;
        {
            let slot = &mut self.slots[slot];
            id = slot.id;
            let mut ctx = Context {
                self_id: id,
                now,
                actions: &mut actions,
                cpu_consumed: SimDuration::ZERO,
                rng: &mut self.rng,
            };
            f(slot.process.as_mut(), &mut ctx);
            cpu_consumed = ctx.cpu_consumed;
            if !cpu_consumed.is_zero() {
                let base = if slot.busy_until > now {
                    slot.busy_until
                } else {
                    now
                };
                slot.busy_until = base + cpu_consumed;
            }
        }
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let size = msg.wire_size();
                    if let Some(at) = self.network.delivery_time(&mut self.rng, now, id, to, size) {
                        self.push_delivery(at, id, to, msg);
                    }
                }
                Action::SetTimer { delay, token } => {
                    self.push_timer(now + delay, id, token);
                }
            }
        }
        self.actions_scratch = actions;
    }

    /// Processes a single scheduling step (one timer, or one coalesced run
    /// of same-instant deliveries to one recipient). Returns `false` if the
    /// queues are empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let applied_fault = self.apply_due_faults();
        let Some((at, seq)) = self.next_event_key() else {
            return applied_fault;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        let timer_is_next = self
            .timers
            .peek()
            .map(|t| (t.at, t.seq) == (at, seq))
            .unwrap_or(false);
        if timer_is_next {
            let event = self.timers.pop().expect("peeked above");
            let Some(slot) = self.slot_index(event.node) else {
                return true; // timer for an unknown process: dropped
            };
            if self.slots[slot].crashed || event.seq < self.slots[slot].timer_barrier {
                // Timer for a crashed process, or armed by a pre-crash
                // incarnation: dropped.
                return true;
            }
            if self.slots[slot].busy_until > self.now {
                let deferred_at = self.slots[slot].busy_until;
                self.messages_deferred += 1;
                self.push_timer(deferred_at, event.node, event.token);
                return true;
            }
            self.events_processed += 1;
            self.run_handler(slot, |p, ctx| p.on_timer(event.token, ctx));
            return true;
        }

        let event = self.deliveries.pop().expect("peeked above");
        let Some(slot) = self.slot_index(event.to) else {
            return true; // message to an unknown process: dropped
        };
        if self.slots[slot].crashed {
            // Message to a crashed process: dropped at dispatch time.
            self.dropped_crashed += 1;
            return true;
        }
        if self.slots[slot].busy_until > self.now {
            let deferred_at = self.slots[slot].busy_until;
            self.messages_deferred += 1;
            self.push_deferred_delivery(deferred_at, event.from, event.to, event.msg);
            return true;
        }
        self.events_processed += 1;

        // Take ownership of the payload: free for the last holder of a
        // shared broadcast payload and for all point-to-point messages;
        // earlier broadcast recipients clone here, lazily, instead of at
        // send time.
        let msg = Arc::try_unwrap(event.msg).unwrap_or_else(|shared| (*shared).clone());

        // Coalesce the consecutive run of same-instant deliveries to the
        // same recipient into one handler invocation — but only as long as
        // no timer is interleaved in the merged `(time, seq)` order, so the
        // handler order is exactly the order a single queue would have
        // produced. A deferred delivery runs alone.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        debug_assert!(batch.is_empty());
        batch.push((event.from, msg));
        if !event.deferred {
            let timer_fence = self
                .timers
                .peek()
                .filter(|t| t.at == self.now)
                .map(|t| t.seq)
                .unwrap_or(u64::MAX);
            while let Some(next) = self.deliveries.peek() {
                if next.at != self.now
                    || next.to != event.to
                    || next.deferred
                    || next.seq > timer_fence
                {
                    break;
                }
                let next = self.deliveries.pop().expect("peeked above");
                self.events_processed += 1;
                let msg = Arc::try_unwrap(next.msg).unwrap_or_else(|shared| (*shared).clone());
                batch.push((next.from, msg));
            }
        }
        self.run_handler(slot, |p, ctx| {
            for (from, msg) in batch.drain(..) {
                p.on_message(from, msg, ctx);
            }
        });
        self.batch_scratch = batch;
        true
    }

    /// Runs every event (and fault) scheduled at or before `deadline`, then
    /// advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some(at) = self.next_activity_time() {
            if at > deadline {
                break;
            }
            self.step();
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Runs until the event queue drains (no events or faults pending) or
    /// `limit` is reached.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> RunOutcome {
        self.ensure_started();
        loop {
            match self.next_activity_time() {
                None => return RunOutcome::Quiescent(self.now),
                Some(at) if at > limit => {
                    self.now = limit;
                    return RunOutcome::TimeLimit(limit);
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u64),
        // The payload is never read; it mirrors Ping so both directions have
        // a realistic body.
        Pong(#[allow(dead_code)] u64),
        Big(usize),
    }

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            match self {
                Msg::Ping(_) | Msg::Pong(_) => 16,
                Msg::Big(n) => *n,
            }
        }
    }

    /// Sends a ping to its peer on start and counts pongs.
    struct Pinger {
        peer: ProcessId,
        pings_to_send: u64,
        pongs_received: u64,
        last_pong_at: SimTime,
    }

    impl Process<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for i in 0..self.pings_to_send {
                ctx.send(self.peer, Msg::Ping(i));
            }
        }
        fn on_message(&mut self, _from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Pong(_) = msg {
                self.pongs_received += 1;
                self.last_pong_at = ctx.now();
            }
        }
    }

    /// Replies to pings, optionally consuming CPU per ping.
    struct Ponger {
        cpu_per_ping: SimDuration,
        pings_handled: u64,
    }

    impl Process<Msg> for Ponger {
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Ping(i) = msg {
                self.pings_handled += 1;
                if !self.cpu_per_ping.is_zero() {
                    ctx.consume_cpu(self.cpu_per_ping);
                }
                ctx.send(from, Msg::Pong(i));
            }
        }
    }

    /// Fires a periodic timer `count` times.
    struct Ticker {
        period: SimDuration,
        remaining: u32,
        fired: Vec<SimTime>,
    }

    impl Process<Msg> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if self.remaining > 0 {
                ctx.set_timer(self.period, 1);
            }
        }
        fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<'_, Msg>) {}
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Msg>) {
            self.fired.push(ctx.now());
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(self.period, 1);
            }
        }
    }

    fn ping_pong_sim(seed: u64, pings: u64, cpu: SimDuration) -> Simulation<Msg> {
        let mut sim = Simulation::new(SimulationConfig {
            seed,
            network: NetworkConfig::lan(),
        });
        sim.add_process(
            ProcessId::server(0),
            Box::new(Pinger {
                peer: ProcessId::server(1),
                pings_to_send: pings,
                pongs_received: 0,
                last_pong_at: SimTime::ZERO,
            }),
        );
        sim.add_process(
            ProcessId::server(1),
            Box::new(Ponger {
                cpu_per_ping: cpu,
                pings_handled: 0,
            }),
        );
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = ping_pong_sim(1, 10, SimDuration::ZERO);
        let outcome = sim.run_until_quiescent(SimTime::from_secs(10));
        assert!(matches!(outcome, RunOutcome::Quiescent(_)));
        let pinger: &Pinger = sim.process(ProcessId::server(0)).unwrap();
        assert_eq!(pinger.pongs_received, 10);
        assert!(pinger.last_pong_at > SimTime::ZERO);
        let ponger: &Ponger = sim.process(ProcessId::server(1)).unwrap();
        assert_eq!(ponger.pings_handled, 10);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut sim = ping_pong_sim(seed, 50, SimDuration::from_micros(30));
            sim.run_until_quiescent(SimTime::from_secs(10));
            let pinger: &Pinger = sim.process(ProcessId::server(0)).unwrap();
            (
                pinger.pongs_received,
                pinger.last_pong_at,
                sim.events_processed(),
            )
        };
        assert_eq!(run(7), run(7));
        // Different seeds give different schedules (jitter differs).
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn cpu_consumption_delays_completion() {
        let mut fast = ping_pong_sim(3, 100, SimDuration::ZERO);
        fast.run_until_quiescent(SimTime::from_secs(60));
        let fast_done: &Pinger = fast.process(ProcessId::server(0)).unwrap();

        let mut slow = ping_pong_sim(3, 100, SimDuration::from_millis(10));
        slow.run_until_quiescent(SimTime::from_secs(60));
        let slow_done: &Pinger = slow.process(ProcessId::server(0)).unwrap();

        assert_eq!(fast_done.pongs_received, 100);
        assert_eq!(slow_done.pongs_received, 100);
        // 100 pings × 10 ms CPU each ≈ 1 s of serialized processing.
        assert!(slow_done.last_pong_at.as_secs_f64() > 0.9);
        assert!(fast_done.last_pong_at.as_secs_f64() < 0.1);
        assert!(slow.messages_deferred() > 0);
    }

    #[test]
    fn timers_fire_periodically() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(
            ProcessId::server(0),
            Box::new(Ticker {
                period: SimDuration::from_millis(100),
                remaining: 5,
                fired: Vec::new(),
            }),
        );
        let outcome = sim.run_until_quiescent(SimTime::from_secs(10));
        assert!(matches!(outcome, RunOutcome::Quiescent(_)));
        let ticker: &Ticker = sim.process(ProcessId::server(0)).unwrap();
        assert_eq!(ticker.fired.len(), 5);
        assert_eq!(ticker.fired[0], SimTime::from_millis(100));
        assert_eq!(ticker.fired[4], SimTime::from_millis(500));
    }

    #[test]
    fn run_until_advances_clock_and_stops() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(
            ProcessId::server(0),
            Box::new(Ticker {
                period: SimDuration::from_secs(1),
                remaining: 100,
                fired: Vec::new(),
            }),
        );
        sim.run_until(SimTime::from_millis(3500));
        assert_eq!(sim.now(), SimTime::from_millis(3500));
        let ticker: &Ticker = sim.process(ProcessId::server(0)).unwrap();
        assert_eq!(ticker.fired.len(), 3);
    }

    #[test]
    fn time_limit_outcome_when_events_remain() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(
            ProcessId::server(0),
            Box::new(Ticker {
                period: SimDuration::from_secs(1),
                remaining: u32::MAX,
                fired: Vec::new(),
            }),
        );
        let outcome = sim.run_until_quiescent(SimTime::from_secs(5));
        assert_eq!(outcome, RunOutcome::TimeLimit(SimTime::from_secs(5)));
    }

    #[test]
    fn external_message_injection() {
        let mut sim = ping_pong_sim(1, 0, SimDuration::ZERO);
        sim.schedule_message(
            SimTime::from_secs(1),
            ProcessId::server(0),
            ProcessId::server(1),
            Msg::Ping(99),
        );
        sim.run_until_quiescent(SimTime::from_secs(5));
        let ponger: &Ponger = sim.process(ProcessId::server(1)).unwrap();
        assert_eq!(ponger.pings_handled, 1);
        let pinger: &Pinger = sim.process(ProcessId::server(0)).unwrap();
        assert_eq!(pinger.pongs_received, 1);
    }

    #[test]
    fn message_to_unknown_process_is_dropped() {
        let mut sim = ping_pong_sim(1, 0, SimDuration::ZERO);
        sim.schedule_message(
            SimTime::from_secs(1),
            ProcessId::server(0),
            ProcessId::server(9),
            Msg::Ping(1),
        );
        let outcome = sim.run_until_quiescent(SimTime::from_secs(5));
        assert!(matches!(outcome, RunOutcome::Quiescent(_)));
    }

    #[test]
    fn partition_blocks_ping_pong() {
        let mut sim = ping_pong_sim(1, 5, SimDuration::ZERO);
        sim.add_partition(Partition::between(
            [ProcessId::server(0)],
            [ProcessId::server(1)],
        ));
        sim.run_until_quiescent(SimTime::from_secs(5));
        let pinger: &Pinger = sim.process(ProcessId::server(0)).unwrap();
        assert_eq!(pinger.pongs_received, 0);
        assert_eq!(sim.network().dropped(), 5);
    }

    #[test]
    fn bandwidth_model_orders_large_transfers() {
        // A large message sent before a small one from the same sender delays
        // the small one (link serialisation).
        struct Sender;
        impl Process<Msg> for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(ProcessId::server(1), Msg::Big(10_000_000)); // ~80 ms at 1 Gbps
                ctx.send(ProcessId::server(1), Msg::Ping(0));
            }
            fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<'_, Msg>) {}
        }
        struct Receiver {
            arrivals: Vec<(SimTime, bool)>, // (time, is_big)
        }
        impl Process<Msg> for Receiver {
            fn on_message(&mut self, _: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
                self.arrivals.push((ctx.now(), matches!(msg, Msg::Big(_))));
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(ProcessId::server(0), Box::new(Sender));
        sim.add_process(
            ProcessId::server(1),
            Box::new(Receiver { arrivals: vec![] }),
        );
        sim.run_until_quiescent(SimTime::from_secs(5));
        let rx: &Receiver = sim.process(ProcessId::server(1)).unwrap();
        assert_eq!(rx.arrivals.len(), 2);
        // Both messages arrive after the big transfer completes (~80 ms).
        assert!(rx.arrivals.iter().all(|(t, _)| t.as_secs_f64() > 0.07));
    }

    #[test]
    #[should_panic(expected = "duplicate process id")]
    fn duplicate_process_id_panics() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(ProcessId::server(0), Box::new(Sender0));
        sim.add_process(ProcessId::server(0), Box::new(Sender0));
    }

    struct Sender0;
    impl Process<Msg> for Sender0 {
        fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<'_, Msg>) {}
    }

    /// Charges 100 µs of CPU for each ping and records when each event ran
    /// (`Some(i)` for ping `i`, `None` for a timer).
    struct CpuObserver {
        log: Vec<(SimTime, Option<u64>)>,
    }

    impl Process<Msg> for CpuObserver {
        fn on_message(&mut self, _: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Ping(i) = msg {
                ctx.consume_cpu(SimDuration::from_micros(100));
                self.log.push((ctx.now(), Some(i)));
            }
        }
        fn on_timer(&mut self, _: TimerToken, ctx: &mut Context<'_, Msg>) {
            self.log.push((ctx.now(), None));
        }
    }

    #[test]
    fn same_instant_deliveries_coalesce_into_one_batch() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(
            ProcessId::server(0),
            Box::new(CpuObserver { log: Vec::new() }),
        );
        let at = SimTime::from_millis(5);
        for i in 0..4 {
            sim.schedule_message(at, ProcessId::client(0), ProcessId::server(0), Msg::Ping(i));
        }
        // A later instant, after the run's CPU is spent, runs on its own.
        let later = SimTime::from_millis(6);
        sim.schedule_message(
            later,
            ProcessId::client(0),
            ProcessId::server(0),
            Msg::Ping(9),
        );
        sim.run_until_quiescent(SimTime::from_secs(1));
        let obs: &CpuObserver = sim.process(ProcessId::server(0)).unwrap();
        let mut expected: Vec<_> = (0..4).map(|i| (at, Some(i))).collect();
        expected.push((later, Some(9)));
        assert_eq!(
            obs.log, expected,
            "same-instant deliveries share one handler run: none waits behind another's CPU"
        );
        assert_eq!(sim.messages_deferred(), 0);
        // Every delivery still counts as one processed event.
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn interleaved_timer_fences_delivery_coalescing() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(
            ProcessId::server(0),
            Box::new(CpuObserver { log: Vec::new() }),
        );
        let at = SimTime::from_millis(5);
        // Interleave in seq order: ping 0, ping 1, timer, ping 2 — all at
        // the same instant. The timer ends the run at its seq position.
        sim.schedule_message(at, ProcessId::client(0), ProcessId::server(0), Msg::Ping(0));
        sim.schedule_message(at, ProcessId::client(0), ProcessId::server(0), Msg::Ping(1));
        sim.schedule_timer(at, ProcessId::server(0), 7);
        sim.schedule_message(at, ProcessId::client(0), ProcessId::server(0), Msg::Ping(2));
        sim.run_until_quiescent(SimTime::from_secs(1));
        let obs: &CpuObserver = sim.process(ProcessId::server(0)).unwrap();
        let freed = at + SimDuration::from_micros(200);
        assert_eq!(
            obs.log,
            vec![
                (at, Some(0)),
                (at, Some(1)),
                (freed, None),
                (freed, Some(2))
            ],
            "the timer and the last ping wait behind the first two pings' CPU, timer first"
        );
        assert_eq!(sim.messages_deferred(), 2);
    }

    #[test]
    fn slab_lookup_covers_servers_clients_and_sparse_ids() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        // Sparse registration order and a gap in both ranges.
        sim.add_process(ProcessId::client(3), Box::new(Sender0));
        sim.add_process(ProcessId::server(5), Box::new(Sender0));
        sim.add_process(ProcessId::server(0), Box::new(Sender0));
        let ids: Vec<ProcessId> = sim.process_ids().collect();
        assert_eq!(
            ids,
            vec![
                ProcessId::server(0),
                ProcessId::server(5),
                ProcessId::client(3)
            ],
            "process_ids is sorted regardless of registration order"
        );
        assert_eq!(sim.process_ids().len(), 3);
        assert!(sim.process::<Sender0>(ProcessId::server(5)).is_some());
        assert!(sim.process::<Sender0>(ProcessId::server(1)).is_none());
        assert!(sim.process::<Sender0>(ProcessId::client(3)).is_some());
        assert!(sim.process::<Sender0>(ProcessId::client(0)).is_none());
        assert!(sim.process_mut::<Sender0>(ProcessId::client(3)).is_some());
    }

    /// Sends a ping to `peer` every 100 ms, `remaining` times, counting the
    /// pongs that come back.
    struct PeriodicPinger {
        peer: ProcessId,
        remaining: u32,
        pongs_received: u64,
    }

    impl Process<Msg> for PeriodicPinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if self.remaining > 0 {
                ctx.set_timer(SimDuration::from_millis(100), 1);
            }
        }
        fn on_message(&mut self, _from: ProcessId, msg: Msg, _: &mut Context<'_, Msg>) {
            if let Msg::Pong(_) = msg {
                self.pongs_received += 1;
            }
        }
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.peer, Msg::Ping(u64::from(self.remaining)));
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(SimDuration::from_millis(100), 1);
            }
        }
    }

    fn periodic_sim(seed: u64, pings: u32) -> Simulation<Msg> {
        let mut sim = Simulation::new(SimulationConfig {
            seed,
            network: NetworkConfig::lan(),
        });
        sim.add_process(
            ProcessId::server(0),
            Box::new(PeriodicPinger {
                peer: ProcessId::server(1),
                remaining: pings,
                pongs_received: 0,
            }),
        );
        sim.add_process(
            ProcessId::server(1),
            Box::new(Ponger {
                cpu_per_ping: SimDuration::ZERO,
                pings_handled: 0,
            }),
        );
        sim
    }

    #[test]
    fn crashed_process_drops_deliveries_until_restart() {
        let mut sim = periodic_sim(21, 10);
        // Pings fire at 100..=1000 ms. Crash the ponger over [250, 650) ms:
        // pings 3..6 (sent at 300..600 ms) are dropped at dispatch.
        sim.run_until(SimTime::from_millis(250));
        sim.crash(ProcessId::server(1));
        assert!(sim.is_crashed(ProcessId::server(1)));
        sim.run_until(SimTime::from_millis(650));
        sim.restart(ProcessId::server(1));
        assert!(!sim.is_crashed(ProcessId::server(1)));
        sim.run_until_quiescent(SimTime::from_secs(5));
        let pinger: &PeriodicPinger = sim.process(ProcessId::server(0)).unwrap();
        assert_eq!(pinger.pongs_received, 6);
        assert_eq!(sim.dropped_crashed(), 4);
        // The network itself dropped nothing: the messages reached the
        // crashed recipient's queue and died there.
        assert_eq!(sim.network().dropped(), 0);
    }

    #[test]
    fn restart_reruns_on_start_and_invalidates_pre_crash_timers() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(
            ProcessId::server(0),
            Box::new(Ticker {
                period: SimDuration::from_millis(100),
                remaining: 8,
                fired: Vec::new(),
            }),
        );
        sim.install_fault_plan(
            FaultPlan::new()
                .at(
                    SimTime::from_millis(250),
                    FaultEvent::Crash(ProcessId::server(0)),
                )
                .at(
                    SimTime::from_millis(400),
                    FaultEvent::Restart(ProcessId::server(0)),
                ),
        );
        sim.run_until_quiescent(SimTime::from_secs(5));
        let ticker: &Ticker = sim.process(ProcessId::server(0)).unwrap();
        // Fires at 100, 200 (pre-crash); the 300 ms timer dies with the
        // crash; restart re-runs on_start at 400 ms, so the remaining six
        // fires land at 500..=1000 ms with no duplicated timer chain.
        assert_eq!(
            ticker.fired,
            vec![
                SimTime::from_millis(100),
                SimTime::from_millis(200),
                SimTime::from_millis(500),
                SimTime::from_millis(600),
                SimTime::from_millis(700),
                SimTime::from_millis(800),
                SimTime::from_millis(900),
                SimTime::from_millis(1000),
            ]
        );
    }

    #[test]
    fn fault_plan_injects_and_heals_partitions_and_loss() {
        // Partition window [250, 650) ms drops pings 3..6; the loss window
        // [750, 850) ms drops ping 8 (sent at 800 ms).
        let mut sim = periodic_sim(22, 10);
        sim.install_fault_plan(
            FaultPlan::new()
                .at(
                    SimTime::from_millis(250),
                    FaultEvent::InjectPartition(Partition::between(
                        [ProcessId::server(0)],
                        [ProcessId::server(1)],
                    )),
                )
                .at(SimTime::from_millis(650), FaultEvent::HealPartitions)
                .at(SimTime::from_millis(750), FaultEvent::SetLossRate(1.0))
                .at(SimTime::from_millis(850), FaultEvent::SetLossRate(0.0)),
        );
        sim.run_until_quiescent(SimTime::from_secs(5));
        let pinger: &PeriodicPinger = sim.process(ProcessId::server(0)).unwrap();
        assert_eq!(pinger.pongs_received, 5);
        assert_eq!(sim.network().dropped_partition(), 4);
        assert_eq!(sim.network().dropped_loss(), 1);
        assert_eq!(sim.network().dropped(), 5);
    }

    #[test]
    fn same_seed_chaos_runs_are_bit_identical() {
        let run = |seed: u64| {
            let mut sim = periodic_sim(seed, 10);
            sim.install_fault_plan(
                FaultPlan::new()
                    .at(
                        SimTime::from_millis(250),
                        FaultEvent::Crash(ProcessId::server(1)),
                    )
                    .at(
                        SimTime::from_millis(550),
                        FaultEvent::Restart(ProcessId::server(1)),
                    )
                    .at(SimTime::from_millis(700), FaultEvent::SetLossRate(0.5)),
            );
            sim.run_until_quiescent(SimTime::from_secs(5));
            let pinger: &PeriodicPinger = sim.process(ProcessId::server(0)).unwrap();
            (
                pinger.pongs_received,
                sim.events_processed(),
                sim.dropped_crashed(),
                sim.network().dropped(),
            )
        };
        assert_eq!(run(77), run(77));
    }

    #[test]
    #[should_panic(expected = "crash: unknown process id")]
    fn crashing_an_unknown_process_panics() {
        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.crash(ProcessId::server(9));
    }

    #[test]
    fn ids_beyond_the_dense_tables_are_refused_and_unreachable() {
        let huge = ProcessId::client(DENSE_LIMIT + 17);
        let ponger = || {
            Box::new(Ponger {
                cpu_per_ping: SimDuration::ZERO,
                pings_handled: 0,
            })
        };
        let registered = std::panic::catch_unwind(|| {
            let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
            sim.add_process(huge, ponger());
        });
        let message = registered.expect_err("registering past DENSE_LIMIT panics");
        assert!(message
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("beyond DENSE_LIMIT")));

        let mut sim: Simulation<Msg> = Simulation::new(SimulationConfig::default());
        sim.add_process(ProcessId::client(17), ponger());
        sim.schedule_message(
            SimTime::from_millis(1),
            ProcessId::server(0),
            huge,
            Msg::Ping(1),
        );
        sim.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(sim.events_processed(), 0, "the message is dropped");
        assert!(sim.process::<Ponger>(huge).is_none());
        let p: &Ponger = sim.process(ProcessId::client(17)).unwrap();
        assert_eq!(p.pings_handled, 0);
    }
}
