//! Scheduler microbenchmarks: the raw per-event cost of the simnet event
//! loop, isolated from crypto and application logic.
//!
//! Three shapes cover the scheduler's hot paths:
//!
//! * **event churn** — a ping/pong pair exchanging many point-to-point
//!   messages: heap push/pop, slab dispatch, action application.
//! * **timer storm** — many processes firing periodic timers: the split
//!   timer queue's small-`Copy`-record fast path.
//! * **broadcast fan-in** — many senders hitting one receiver at the same
//!   instant (zero-jitter network): same-tick delivery coalescing, which
//!   handles the whole run in one handler invocation (one `on_message` per
//!   delivery), so no arrival waits behind another's CPU charge.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use setchain_simnet::{
    Context, NetworkConfig, Process, ProcessId, SimDuration, SimTime, Simulation, SimulationConfig,
    TimerToken, Wire,
};

#[derive(Clone, Debug)]
struct Ping(#[allow(dead_code)] u64);

impl Wire for Ping {
    fn wire_size(&self) -> usize {
        16
    }
}

/// Zero-jitter LAN so same-instant arrivals actually coalesce.
fn flat_lan() -> NetworkConfig {
    let mut net = NetworkConfig::lan();
    net.jitter = SimDuration::ZERO;
    net
}

struct Pinger {
    peer: ProcessId,
    remaining: u64,
}

impl Process<Ping> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.send(self.peer, Ping(self.remaining));
    }
    fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Context<'_, Ping>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(from, msg);
        }
    }
}

struct Ticker {
    period: SimDuration,
    fired: u64,
}

impl Process<Ping> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.set_timer(self.period, 1);
    }
    fn on_message(&mut self, _: ProcessId, _: Ping, _: &mut Context<'_, Ping>) {}
    fn on_timer(&mut self, _: TimerToken, ctx: &mut Context<'_, Ping>) {
        self.fired += 1;
        ctx.set_timer(self.period, 1);
    }
}

/// Broadcasts one message to every peer each time its timer fires.
struct Broadcaster {
    peers: Vec<ProcessId>,
    rounds: u64,
}

impl Process<Ping> for Broadcaster {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.set_timer(SimDuration::from_micros(100), 1);
    }
    fn on_message(&mut self, _: ProcessId, _: Ping, _: &mut Context<'_, Ping>) {}
    fn on_timer(&mut self, _: TimerToken, ctx: &mut Context<'_, Ping>) {
        ctx.send_to_all(self.peers.iter().copied(), Ping(self.rounds));
        if self.rounds > 0 {
            self.rounds -= 1;
            ctx.set_timer(SimDuration::from_micros(100), 1);
        }
    }
}

/// Counts messages and charges 1 µs of CPU for each.
#[derive(Default)]
struct Sink {
    received: u64,
}

impl Process<Ping> for Sink {
    fn on_message(&mut self, _: ProcessId, _: Ping, ctx: &mut Context<'_, Ping>) {
        self.received += 1;
        ctx.consume_cpu(SimDuration::from_micros(1));
    }
}

fn bench_event_churn(c: &mut Criterion) {
    const ROUNDTRIPS: u64 = 20_000;
    let mut group = c.benchmark_group("simnet/event_churn");
    group.throughput(Throughput::Elements(2 * ROUNDTRIPS));
    group.bench_function("ping_pong_20k", |b| {
        b.iter(|| {
            let mut sim: Simulation<Ping> = Simulation::new(SimulationConfig {
                seed: 1,
                network: flat_lan(),
            });
            sim.add_process(
                ProcessId::server(0),
                Box::new(Pinger {
                    peer: ProcessId::server(1),
                    remaining: ROUNDTRIPS,
                }),
            );
            sim.add_process(
                ProcessId::server(1),
                Box::new(Pinger {
                    peer: ProcessId::server(0),
                    remaining: ROUNDTRIPS,
                }),
            );
            sim.run_until_quiescent(SimTime::from_secs(3600));
            criterion::black_box(sim.events_processed())
        });
    });
    group.finish();
}

fn bench_timer_storm(c: &mut Criterion) {
    const TICKERS: usize = 64;
    const SIM_SECS: u64 = 5;
    // 1 ms period ⇒ 1 000 fires per ticker per simulated second.
    let expected = TICKERS as u64 * SIM_SECS * 1_000;
    let mut group = c.benchmark_group("simnet/timer_storm");
    group.throughput(Throughput::Elements(expected));
    group.bench_function("64_tickers_1ms_5s", |b| {
        b.iter(|| {
            let mut sim: Simulation<Ping> = Simulation::new(SimulationConfig {
                seed: 2,
                network: flat_lan(),
            });
            for i in 0..TICKERS {
                sim.add_process(
                    ProcessId::server(i),
                    Box::new(Ticker {
                        period: SimDuration::from_millis(1),
                        fired: 0,
                    }),
                );
            }
            sim.run_until(SimTime::from_secs(SIM_SECS));
            criterion::black_box(sim.events_processed())
        });
    });
    group.finish();
}

fn bench_broadcast_fan_in(c: &mut Criterion) {
    const SENDERS: usize = 16;
    const ROUNDS: u64 = 500;
    let mut group = c.benchmark_group("simnet/broadcast_fan_in");
    group.throughput(Throughput::Elements(SENDERS as u64 * ROUNDS));
    group.bench_function("16_senders_500_rounds", |b| {
        b.iter(|| {
            let mut sim: Simulation<Ping> = Simulation::new(SimulationConfig {
                seed: 3,
                network: flat_lan(),
            });
            let sink = ProcessId::server(0);
            sim.add_process(sink, Box::new(Sink::default()));
            for i in 1..=SENDERS {
                sim.add_process(
                    ProcessId::server(i),
                    Box::new(Broadcaster {
                        peers: vec![sink],
                        rounds: ROUNDS,
                    }),
                );
            }
            sim.run_until_quiescent(SimTime::from_secs(3600));
            let s: &Sink = sim.process(sink).expect("sink exists");
            assert_eq!(s.received, SENDERS as u64 * (ROUNDS + 1));
            // Coalescing must actually trigger: the 16 same-instant arrivals
            // of a round share one handler run, so none is deferred behind
            // another's CPU (a round's 16 µs fit in the 100 µs period).
            assert_eq!(sim.messages_deferred(), 0);
            criterion::black_box(s.received)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_churn,
    bench_timer_storm,
    bench_broadcast_fan_in
);
criterion_main!(benches);
