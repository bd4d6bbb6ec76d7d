//! Deterministic per-client admission quotas (overload protection).
//!
//! A production Setchain deployment is the public front door of the system —
//! in the rollup construction it *is* the mempool — so it dies first from
//! overload, not from Byzantine equivocation: one flooding client can burn
//! unbounded authenticator-verification CPU and mempool memory with
//! perfectly valid elements. This module bounds what any single client can
//! make a server do, *before* the server spends anything on it.
//!
//! Two independent limits per client, both enforced at the very front of
//! the admission path (ahead of HMAC verification — see
//! [`ServerCore::admit_source`](crate::ServerCore::admit_source)):
//!
//! * **Rate** — a token bucket refilled at
//!   [`rate_per_sec`](crate::QuotaConfig::rate_per_sec) elements/second with
//!   [`burst`](crate::QuotaConfig::burst) elements of headroom. Submissions
//!   beyond it are shed and the client is told when the bucket will next
//!   cover the attempt.
//! * **Pending** — at most
//!   [`max_pending`](crate::QuotaConfig::max_pending) elements admitted but
//!   not yet stamped into an epoch. This caps the per-client share of
//!   `the_set` working memory even when the rate limit alone would admit
//!   more; stamping an epoch returns the capacity.
//!
//! **Determinism.** The bucket is integer arithmetic over simulated time
//! only: refills are computed from `ctx.now()` deltas in micro-token units
//! (one element = 1 000 000 micro-tokens, so an elements/second rate times
//! an elapsed-microseconds delta is exact with zero rounding state). No RNG
//! stream is consumed and no host clock is read, so a quota-on run is as
//! bit-replayable as a quota-off run — same seed, same sheds, same
//! `retry_after` hints.

use setchain_crypto::{FxHashMap, ProcessId};
use setchain_simnet::{SimDuration, SimTime};

use crate::config::QuotaConfig;

/// Micro-tokens per element: makes `rate_per_sec * elapsed_micros` an exact
/// integer refill with no fractional carry state.
const TOKEN_SCALE: u64 = 1_000_000;

/// `retry_after` hint for a pending-cap shed. Rate sheds compute the exact
/// bucket-refill instant; the pending cap drains on epoch stamping, whose
/// timing depends on the collector and ledger, so the hint is one collector
/// timeout ([`COLLECTOR_TIMEOUT`](crate::app::COLLECTOR_TIMEOUT)) — the
/// cadence at which pending elements leave for an epoch under load.
pub const PENDING_RETRY: SimDuration = crate::app::COLLECTOR_TIMEOUT;

/// Outcome of a quota probe: admit the submission, or shed it and tell the
/// sender when a retry could succeed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaVerdict {
    /// Within quota: tokens were consumed, proceed to validation.
    Admit,
    /// Over quota: nothing was consumed; the sender should wait at least
    /// `retry_after` before re-submitting.
    Shed {
        /// Earliest delay after which the same submission could be admitted
        /// (exact for rate sheds, a drain-cadence hint for pending sheds).
        retry_after: SimDuration,
    },
}

/// One client's bucket and pending count.
#[derive(Clone, Copy, Debug)]
struct ClientQuota {
    /// Micro-tokens currently available (≤ `burst * TOKEN_SCALE`).
    tokens: u64,
    /// Simulated instant of the last refill.
    refilled_at: SimTime,
    /// Elements admitted by this server but not yet stamped into an epoch.
    pending: u64,
}

/// Per-client quota state for one server (see the module docs).
pub struct QuotaState {
    config: QuotaConfig,
    clients: FxHashMap<ProcessId, ClientQuota>,
    /// Elements shed by the rate limit.
    shed_rate: u64,
    /// Elements shed by the pending cap.
    shed_pending: u64,
}

impl QuotaState {
    /// Creates quota state enforcing `config`.
    pub fn new(config: QuotaConfig) -> Self {
        QuotaState {
            config,
            clients: FxHashMap::default(),
            shed_rate: 0,
            shed_pending: 0,
        }
    }

    /// The enforced configuration.
    pub fn config(&self) -> &QuotaConfig {
        &self.config
    }

    fn bucket(&mut self, client: ProcessId, now: SimTime) -> &mut ClientQuota {
        self.clients.entry(client).or_insert(ClientQuota {
            // A new client starts with a full bucket: the burst headroom is
            // exactly what lets a well-behaved client open with one full
            // collector batch.
            tokens: self.config.burst.saturating_mul(TOKEN_SCALE),
            refilled_at: now,
            pending: 0,
        })
    }

    /// Probes whether `client` may submit `elements` more elements at `now`,
    /// consuming tokens on admit and nothing on shed.
    pub fn admit(&mut self, client: ProcessId, elements: u64, now: SimTime) -> QuotaVerdict {
        let rate = self.config.rate_per_sec;
        let burst_tokens = self.config.burst.saturating_mul(TOKEN_SCALE);
        let max_pending = self.config.max_pending;
        let bucket = self.bucket(client, now);

        // Refill from simulated time elapsed since the last probe: the
        // elements/second rate times a microsecond delta is already in
        // micro-tokens, exactly.
        let elapsed = now.since(bucket.refilled_at).as_micros();
        bucket.tokens = bucket
            .tokens
            .saturating_add(rate.saturating_mul(elapsed))
            .min(burst_tokens);
        bucket.refilled_at = now;

        // The pending cap is checked first: when a client's earlier adds
        // are stuck waiting for an epoch, more tokens would not make the
        // submission admissible.
        if max_pending > 0 && bucket.pending.saturating_add(elements) > max_pending {
            self.shed_pending += elements;
            return QuotaVerdict::Shed {
                retry_after: PENDING_RETRY,
            };
        }

        let cost = elements.saturating_mul(TOKEN_SCALE);
        if bucket.tokens >= cost {
            bucket.tokens -= cost;
            QuotaVerdict::Admit
        } else {
            let deficit = cost - bucket.tokens;
            self.shed_rate += elements;
            QuotaVerdict::Shed {
                // Exact earliest instant the refill covers the deficit,
                // rounded up to whole microseconds.
                retry_after: SimDuration::from_micros(deficit.div_ceil(rate)),
            }
        }
    }

    /// Records that `elements` elements from `client` were actually inserted
    /// into the server's state (admitted and neither invalid nor duplicate),
    /// counting against the pending cap until stamped.
    pub fn note_admitted(&mut self, client: ProcessId, elements: u64) {
        if let Some(bucket) = self.clients.get_mut(&client) {
            bucket.pending = bucket.pending.saturating_add(elements);
        }
    }

    /// Records that `elements` elements from `client` were stamped into an
    /// epoch, releasing pending capacity.
    pub fn note_stamped(&mut self, client: ProcessId, elements: u64) {
        if let Some(bucket) = self.clients.get_mut(&client) {
            bucket.pending = bucket.pending.saturating_sub(elements);
        }
    }

    /// Elements currently admitted-but-unstamped for `client`.
    pub fn pending(&self, client: ProcessId) -> u64 {
        self.clients.get(&client).map_or(0, |b| b.pending)
    }

    /// Total elements shed by the rate limit.
    pub fn shed_rate(&self) -> u64 {
        self.shed_rate
    }

    /// Total elements shed by the pending cap.
    pub fn shed_pending(&self) -> u64 {
        self.shed_pending
    }

    /// Number of clients with quota state.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quota(rate: u64, burst: u64, max_pending: u64) -> QuotaState {
        QuotaState::new(
            QuotaConfig::new()
                .with_rate(rate)
                .with_burst(burst)
                .with_max_pending(max_pending),
        )
    }

    fn at_millis(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn fresh_client_gets_a_full_burst_then_sheds() {
        let mut q = quota(100, 50, 0);
        let c = ProcessId::client(0);
        assert_eq!(q.admit(c, 50, SimTime::ZERO), QuotaVerdict::Admit);
        // The bucket is empty; one more element needs 1/100 s of refill.
        assert_eq!(
            q.admit(c, 1, SimTime::ZERO),
            QuotaVerdict::Shed {
                retry_after: SimDuration::from_millis(10)
            }
        );
        assert_eq!(q.shed_rate(), 1);
        // Sheds consume nothing: after exactly the hinted delay the retry
        // is admitted.
        assert_eq!(q.admit(c, 1, at_millis(10)), QuotaVerdict::Admit);
    }

    #[test]
    fn refill_is_exact_and_capped_at_burst() {
        let mut q = quota(1_000, 10, 0);
        let c = ProcessId::client(1);
        assert_eq!(q.admit(c, 10, SimTime::ZERO), QuotaVerdict::Admit);
        // 5 ms at 1 000/s refills exactly 5 elements.
        assert_eq!(q.admit(c, 5, at_millis(5)), QuotaVerdict::Admit);
        assert!(matches!(
            q.admit(c, 1, at_millis(5)),
            QuotaVerdict::Shed { .. }
        ));
        // A long idle period refills to the burst cap, not beyond.
        assert_eq!(q.admit(c, 10, at_millis(60_000)), QuotaVerdict::Admit);
        assert!(matches!(
            q.admit(c, 1, at_millis(60_000)),
            QuotaVerdict::Shed { .. }
        ));
    }

    #[test]
    fn retry_after_rounds_partial_micros_up() {
        // 3 elements/s: one element is 333 333.33… µs of refill; the hint
        // must round up so a retry at exactly the hinted instant succeeds.
        let mut q = quota(3, 1, 0);
        let c = ProcessId::client(2);
        assert_eq!(q.admit(c, 1, SimTime::ZERO), QuotaVerdict::Admit);
        let QuotaVerdict::Shed { retry_after } = q.admit(c, 1, SimTime::ZERO) else {
            panic!("empty bucket must shed");
        };
        assert_eq!(retry_after, SimDuration::from_micros(333_334));
        assert_eq!(
            q.admit(c, 1, SimTime::ZERO + retry_after),
            QuotaVerdict::Admit
        );
    }

    #[test]
    fn pending_cap_sheds_until_stamped() {
        let mut q = quota(1_000_000, 1_000_000, 30);
        let c = ProcessId::client(3);
        assert_eq!(q.admit(c, 20, SimTime::ZERO), QuotaVerdict::Admit);
        q.note_admitted(c, 20);
        assert_eq!(q.pending(c), 20);
        // 20 pending + 20 more would exceed the cap of 30.
        assert_eq!(
            q.admit(c, 20, SimTime::ZERO),
            QuotaVerdict::Shed {
                retry_after: PENDING_RETRY
            }
        );
        assert_eq!(q.shed_pending(), 20);
        // Stamping an epoch releases capacity.
        q.note_stamped(c, 15);
        assert_eq!(q.pending(c), 5);
        assert_eq!(q.admit(c, 20, SimTime::ZERO), QuotaVerdict::Admit);
        // Zero disables the cap entirely.
        let mut unbounded = quota(1_000_000, 1_000_000, 0);
        assert_eq!(
            unbounded.admit(c, 999_999, SimTime::ZERO),
            QuotaVerdict::Admit
        );
    }

    #[test]
    fn clients_are_metered_independently() {
        let mut q = quota(100, 10, 0);
        let a = ProcessId::client(4);
        let b = ProcessId::client(5);
        assert_eq!(q.admit(a, 10, SimTime::ZERO), QuotaVerdict::Admit);
        assert!(matches!(
            q.admit(a, 1, SimTime::ZERO),
            QuotaVerdict::Shed { .. }
        ));
        // A's exhausted bucket does not touch B.
        assert_eq!(q.admit(b, 10, SimTime::ZERO), QuotaVerdict::Admit);
        assert_eq!(q.clients(), 2);
    }

    #[test]
    fn same_probe_sequence_is_bit_identical() {
        // The determinism contract: quota decisions are a pure function of
        // the (client, elements, now) sequence — two states fed the same
        // sequence return identical verdicts and counters.
        let run = || {
            let mut q = quota(500, 100, 50);
            let mut verdicts = Vec::new();
            for i in 0..200u64 {
                let client = ProcessId::client((i % 3) as usize);
                let v = q.admit(client, 7, at_millis(i * 3));
                if v == QuotaVerdict::Admit {
                    q.note_admitted(client, 7);
                }
                if i % 11 == 0 {
                    q.note_stamped(client, 14);
                }
                verdicts.push(v);
            }
            (verdicts, q.shed_rate(), q.shed_pending())
        };
        assert_eq!(run(), run());
    }
}
