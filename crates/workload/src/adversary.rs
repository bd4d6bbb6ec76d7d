//! Adversarial workload presets: deterministic attack clients that stress
//! the overload-protection path (per-client quotas, duplicate suppression,
//! bounded mempools) without touching the honest injection clients.
//!
//! Each preset is one [`AdversaryDriver`] actor — a single misbehaving
//! client identity with its own registered key — so per-client quotas
//! isolate honest traffic from it by construction. The driver deliberately
//! does **not** record into the shared experiment trace: attack elements are
//! not honest goodput and must never count toward the run's added/committed
//! totals. Everything the driver does derives from its own seeded RNG and
//! the simulated clock, so same-seed reruns are bit-identical.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use setchain::{Element, SetchainMsg};
use setchain_crypto::{KeyPair, KeyRegistry, ProcessId};
use setchain_ledger::NetMsg;
use setchain_simnet::{Context, Process, SimDuration, SimTime, TimerToken};

use crate::driver::Msg;
use crate::generator::ArbitrumWorkload;

const ATTACK_TICK: TimerToken = 1;

/// Size of the one batch a [`Adversary::ReplayStorm`] re-sends.
const REPLAY_BATCH: usize = 64;

/// Distinct elements in the [`Adversary::HotKeySkew`] hot set; picks are
/// Zipf-skewed over this pool, so a handful of elements absorb most sends.
const HOT_POOL: usize = 64;

/// Zipf exponent of the hot-key pick distribution.
const ZIPF_S: f64 = 1.2;

/// First client index [`Adversary::ChurnStorm`] registers from — far above
/// the injection clients and any test session so fresh identities never
/// collide with a legitimate one.
const CHURN_BASE: usize = 1 << 20;

/// An adversarial workload preset.
///
/// The enum is `#[non_exhaustive]`: new attack shapes will be added as the
/// protection surface grows. Enumerate with [`Adversary::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Adversary {
    /// One client floods a single server with valid, fresh elements at many
    /// times the honest per-client rate. Rate quotas shed the excess.
    FloodClient,
    /// The same `AddBatch` of valid elements is replayed over and over. The
    /// quota gate meters it *before* any authenticator is verified, and
    /// admission dedup absorbs whatever gets through: each server verifies
    /// the batch's MACs once.
    ReplayStorm,
    /// Re-sends elements drawn Zipf-skewed from a small hot set: a few
    /// elements arrive over and over, exercising duplicate suppression
    /// under skew.
    HotKeySkew,
    /// Registers a fresh client identity every tick and sends one element
    /// signed by each — mass onboarding that floods the server's key-lookup
    /// and admission path with never-before-seen signers instead of
    /// exhausting any single bucket. Quota state is keyed by the
    /// authenticated network source, not the element signer, so the churn
    /// cannot bloat it.
    ChurnStorm,
}

impl Adversary {
    /// Every preset, in documentation order.
    pub const ALL: [Adversary; 4] = [
        Adversary::FloodClient,
        Adversary::ReplayStorm,
        Adversary::HotKeySkew,
        Adversary::ChurnStorm,
    ];

    /// Short name, what `Display` prints: test messages name a preset by it.
    pub fn name(&self) -> &'static str {
        match self {
            Adversary::FloodClient => "flood",
            Adversary::ReplayStorm => "replay",
            Adversary::HotKeySkew => "hotkey",
            Adversary::ChurnStorm => "churn",
        }
    }

    /// The preset's offered load, derived from the honest per-client rate:
    /// floods and skewed re-sends offer 10× an honest client — floored at
    /// 5 000 el/s so the attack pressures the default quota sizing
    /// ([`setchain::QuotaConfig`]'s 2 000 el/s bucket) even when the honest
    /// workload is tiny; an attack the default quota never meters would not
    /// exercise the protection path. A replay storm re-fires its
    /// 64-element batch 100 times per second (~6 400 el/s offered — above
    /// the default bucket for the same reason), and a churn storm registers
    /// 200 fresh identities per second.
    pub fn default_rate(&self, honest_per_client: f64) -> f64 {
        match self {
            Adversary::FloodClient | Adversary::HotKeySkew => {
                (honest_per_client * 10.0).max(5_000.0)
            }
            Adversary::ReplayStorm => 100.0,
            Adversary::ChurnStorm => 200.0,
        }
    }
}

impl std::fmt::Display for Adversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The attack client actor: one registered (but misbehaving) client driving
/// the configured [`Adversary`] preset against a single target server on a
/// fixed tick, until the injection period ends.
pub struct AdversaryDriver {
    mode: Adversary,
    target: ProcessId,
    registry: KeyRegistry,
    workload: ArbitrumWorkload,
    /// Attack elements (or, for ChurnStorm, registrations) per second.
    rate: f64,
    end: SimTime,
    tick: SimDuration,
    carry: f64,
    rng: StdRng,
    /// The one batch ReplayStorm re-sends (built on first tick).
    replay: Vec<Element>,
    /// HotKeySkew's hot set (built on first tick).
    pool: Vec<Element>,
    /// Precomputed Zipf CDF over `pool` ranks.
    zipf_cdf: Vec<f64>,
    /// Next fresh client index ChurnStorm registers.
    churn_next: usize,
    sent: u64,
    rejected_replies: u64,
}

impl AdversaryDriver {
    /// Creates the attack actor for `mode`: its identity is `keys.id` (must
    /// already be registered in `registry`), its victim `target`, its
    /// offered load `rate` per second.
    pub fn new(
        mode: Adversary,
        target: ProcessId,
        registry: KeyRegistry,
        keys: KeyPair,
        rate: f64,
        end: SimTime,
        seed: u64,
    ) -> Self {
        assert!(rate > 0.0, "attack rate must be positive");
        AdversaryDriver {
            mode,
            target,
            registry,
            workload: ArbitrumWorkload::new(keys, seed ^ 0x00AD_5EED),
            rate,
            end,
            tick: SimDuration::from_millis(20),
            carry: 0.0,
            rng: StdRng::seed_from_u64(seed ^ 0x005E_EDAD),
            replay: Vec::new(),
            pool: Vec::new(),
            zipf_cdf: Vec::new(),
            churn_next: CHURN_BASE,
            sent: 0,
            rejected_replies: 0,
        }
    }

    /// The preset this driver runs.
    pub fn mode(&self) -> Adversary {
        self.mode
    }

    /// Attack elements sent so far (for ChurnStorm: one per registration).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// `Rejected` replies received — the server-side sheds this adversary
    /// observed. The driver ignores the `retry_after` hint on purpose: an
    /// attacker does not back off.
    pub fn rejected_replies(&self) -> u64 {
        self.rejected_replies
    }

    /// Elements due this tick under the configured rate (fractional
    /// remainders carry over, as in the honest driver).
    fn due(&mut self) -> usize {
        let due = self.rate * self.tick.as_secs_f64() + self.carry;
        let count = due.floor() as usize;
        self.carry = due - count as f64;
        count
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        let count = self.due();
        if count == 0 {
            return;
        }
        match self.mode {
            Adversary::FloodClient => {
                let elements = self.workload.take(count);
                self.sent += elements.len() as u64;
                ctx.send(self.target, NetMsg::App(SetchainMsg::AddBatch(elements)));
            }
            Adversary::ReplayStorm => {
                // The rate meters batch re-fires, not elements: each due
                // unit re-sends the same submission verbatim.
                if self.replay.is_empty() {
                    self.replay = self.workload.take(REPLAY_BATCH);
                }
                for _ in 0..count {
                    self.sent += REPLAY_BATCH as u64;
                    let batch = SetchainMsg::AddBatch(self.replay.clone());
                    ctx.send(self.target, NetMsg::App(batch));
                }
            }
            Adversary::HotKeySkew => {
                if self.pool.is_empty() {
                    self.pool = self.workload.take(HOT_POOL);
                    // Zipf CDF over ranks: weight(k) = 1 / (k+1)^s.
                    let weights: Vec<f64> = (0..HOT_POOL)
                        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
                        .collect();
                    let total: f64 = weights.iter().sum();
                    let mut acc = 0.0;
                    self.zipf_cdf = weights
                        .iter()
                        .map(|w| {
                            acc += w / total;
                            acc
                        })
                        .collect();
                }
                let picks: Vec<Element> = (0..count)
                    .map(|_| {
                        let u: f64 = self.rng.gen_range(0.0..1.0);
                        let rank = self
                            .zipf_cdf
                            .iter()
                            .position(|&c| u <= c)
                            .unwrap_or(HOT_POOL - 1);
                        self.pool[rank]
                    })
                    .collect();
                self.sent += picks.len() as u64;
                ctx.send(self.target, NetMsg::App(SetchainMsg::AddBatch(picks)));
            }
            Adversary::ChurnStorm => {
                for _ in 0..count {
                    let id = ProcessId::client(self.churn_next);
                    self.churn_next += 1;
                    let keys = KeyPair::derive(id, self.rng.gen());
                    self.registry.register(keys);
                    let mut fresh = ArbitrumWorkload::new(keys, self.rng.gen());
                    let element = fresh.next_element();
                    self.sent += 1;
                    ctx.send(
                        self.target,
                        NetMsg::App(SetchainMsg::AddBatch(vec![element])),
                    );
                }
            }
        }
    }
}

impl Process<Msg> for AdversaryDriver {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.tick, ATTACK_TICK);
    }

    fn on_message(&mut self, _from: ProcessId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        if let NetMsg::App(SetchainMsg::Rejected { .. }) = msg {
            self.rejected_replies += 1;
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        if token != ATTACK_TICK {
            return;
        }
        if ctx.now() > self.end {
            return; // attack over; do not re-arm
        }
        self.on_tick(ctx);
        ctx.set_timer(self.tick, ATTACK_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_display_their_names() {
        for preset in Adversary::ALL {
            assert_eq!(preset.to_string(), preset.name());
        }
    }

    #[test]
    fn default_rates_scale_with_honest_load() {
        assert_eq!(Adversary::FloodClient.default_rate(1_000.0), 10_000.0);
        // The floor keeps a tiny honest workload's flood above the default
        // 2 000 el/s quota bucket — otherwise nothing would ever shed.
        assert_eq!(Adversary::HotKeySkew.default_rate(1.0), 5_000.0);
        assert_eq!(Adversary::ReplayStorm.default_rate(1_000.0), 100.0);
        assert_eq!(Adversary::ChurnStorm.default_rate(1_000.0), 200.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let registry = KeyRegistry::bootstrap(1, 1, 2);
        let keys = registry.lookup(ProcessId::client(1)).unwrap();
        let _ = AdversaryDriver::new(
            Adversary::FloodClient,
            ProcessId::server(0),
            registry,
            keys,
            0.0,
            SimTime::from_secs(1),
            1,
        );
    }
}
