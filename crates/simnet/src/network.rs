//! Network model: propagation delay, jitter, added latency, loss,
//! partitions and per-sender link bandwidth.
//!
//! The paper's evaluation platform is a LAN cluster (sub-millisecond RTT,
//! 1 Gbps links between Docker hosts) with an optional artificial
//! `network_delay` of 30 ms or 100 ms added to every message to emulate a
//! WAN (Fig. 3c). The link itself is fixed: [`BASE_DELAY`],
//! [`BANDWIDTH_BYTES_PER_SEC`] and [`LOOPBACK_DELAY`]. [`NetworkConfig`]
//! holds what a run varies on top of it: jitter, the artificial delay and
//! loss; partitions are installed on the [`Network`] itself.

use rand::Rng;
use serde::{Deserialize, Serialize};
use setchain_crypto::ProcessId;
use std::collections::{HashMap, HashSet};

use crate::time::{SimDuration, SimTime};

/// One-way propagation delay between any two distinct processes: 0.25 ms,
/// a LAN.
pub const BASE_DELAY: SimDuration = SimDuration::from_micros(250);
/// Bandwidth of each sender's link, 1 Gbps: the link transmits one message
/// at a time, taking `size / BANDWIDTH_BYTES_PER_SEC` per message, so large
/// messages (batches) serialise.
pub const BANDWIDTH_BYTES_PER_SEC: u64 = 125_000_000;
/// Delay applied to messages a process sends to itself.
pub const LOOPBACK_DELAY: SimDuration = SimDuration::from_micros(10);

/// Configuration of the simulated network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Uniform random jitter added on top of [`BASE_DELAY`], `[0, jitter]`.
    pub jitter: SimDuration,
    /// Artificial latency added to every message (the paper's
    /// `network_delay` parameter: 0, 30 or 100 ms).
    pub extra_delay: SimDuration,
    /// Probability in `[0, 1]` that a message between distinct processes is
    /// silently dropped. Loopback messages are never dropped.
    pub loss_rate: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::lan()
    }
}

impl NetworkConfig {
    /// LAN profile matching the paper's cluster: 0.1 ms jitter on top of
    /// the fixed 0.25 ms [`BASE_DELAY`] and 1 Gbps links, no added delay,
    /// no loss.
    pub fn lan() -> Self {
        NetworkConfig {
            jitter: SimDuration::from_micros(100),
            extra_delay: SimDuration::ZERO,
            loss_rate: 0.0,
        }
    }

    /// LAN profile plus the paper's artificial `network_delay` (in ms).
    pub fn with_extra_delay_ms(mut self, ms: u64) -> Self {
        self.extra_delay = SimDuration::from_millis(ms);
        self
    }

    /// Sets the message loss probability.
    pub fn with_loss_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0,1]");
        self.loss_rate = rate;
        self
    }
}

/// A (symmetric) network partition: messages between the two sides are
/// dropped while the partition is active.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    side_a: HashSet<ProcessId>,
    side_b: HashSet<ProcessId>,
}

impl Partition {
    /// Builds a partition separating `side_a` from `side_b`.
    pub fn between(
        side_a: impl IntoIterator<Item = ProcessId>,
        side_b: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        Partition {
            side_a: side_a.into_iter().collect(),
            side_b: side_b.into_iter().collect(),
        }
    }

    /// True if the partition separates `from` and `to`.
    pub fn blocks(&self, from: ProcessId, to: ProcessId) -> bool {
        (self.side_a.contains(&from) && self.side_b.contains(&to))
            || (self.side_b.contains(&from) && self.side_a.contains(&to))
    }
}

/// The network state owned by the simulation.
#[derive(Clone, Debug)]
pub struct Network {
    config: NetworkConfig,
    partitions: Vec<Partition>,
    /// Earliest time each sender's outgoing link is free again (models
    /// serialisation of large messages onto the wire).
    link_free_at: HashMap<ProcessId, SimTime>,
    /// Count of messages dropped by loss or partitions, for reporting.
    dropped: u64,
    /// Messages dropped by random loss specifically.
    dropped_loss: u64,
    /// Messages dropped by an active partition specifically.
    dropped_partition: u64,
    /// Count of messages delivered.
    delivered: u64,
    /// Total bytes handed to the network.
    bytes_sent: u64,
}

impl Network {
    /// Creates a network with the given configuration.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            partitions: Vec::new(),
            link_free_at: HashMap::new(),
            dropped: 0,
            dropped_loss: 0,
            dropped_partition: 0,
            delivered: 0,
            bytes_sent: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Installs a partition. Returns its index for later healing.
    pub fn add_partition(&mut self, partition: Partition) -> usize {
        self.partitions.push(partition);
        self.partitions.len() - 1
    }

    /// Removes all partitions.
    pub fn heal_all_partitions(&mut self) {
        self.partitions.clear();
    }

    /// Changes the loss rate mid-run (fault injection). Panics unless
    /// `rate` is in `[0, 1]`.
    pub fn set_loss_rate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0,1]");
        self.config.loss_rate = rate;
    }

    /// Number of messages dropped so far (loss + partitions).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages dropped by random loss.
    pub fn dropped_loss(&self) -> u64 {
        self.dropped_loss
    }

    /// Messages dropped by an active partition.
    pub fn dropped_partition(&self) -> u64 {
        self.dropped_partition
    }

    /// Number of messages accepted for delivery so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total payload bytes accepted for delivery.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Computes the delivery time of a message of `size_bytes` sent by
    /// `from` to `to` at time `now`, or `None` if the message is dropped.
    pub fn delivery_time<R: Rng>(
        &mut self,
        rng: &mut R,
        now: SimTime,
        from: ProcessId,
        to: ProcessId,
        size_bytes: usize,
    ) -> Option<SimTime> {
        if from == to {
            self.delivered += 1;
            self.bytes_sent += size_bytes as u64;
            return Some(now + LOOPBACK_DELAY);
        }
        if self.partitions.iter().any(|p| p.blocks(from, to)) {
            self.dropped += 1;
            self.dropped_partition += 1;
            return None;
        }
        if self.config.loss_rate > 0.0 && rng.gen::<f64>() < self.config.loss_rate {
            self.dropped += 1;
            self.dropped_loss += 1;
            return None;
        }

        // Transmission: the sender's link serialises messages one at a time.
        let free_at = *self.link_free_at.get(&from).unwrap_or(&SimTime::ZERO);
        let start = if free_at > now { free_at } else { now };
        let tx_micros = (size_bytes as u64).saturating_mul(1_000_000) / BANDWIDTH_BYTES_PER_SEC;
        let departure = start + SimDuration::from_micros(tx_micros);
        self.link_free_at.insert(from, departure);

        let jitter = if self.config.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.gen_range(0..=self.config.jitter.as_micros()))
        };
        let arrival = departure + BASE_DELAY + jitter + self.config.extra_delay;
        self.delivered += 1;
        self.bytes_sent += size_bytes as u64;
        Some(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ids() -> (ProcessId, ProcessId, ProcessId) {
        (
            ProcessId::server(0),
            ProcessId::server(1),
            ProcessId::server(2),
        )
    }

    #[test]
    fn lan_profile_delivers_quickly() {
        let (a, b, _) = ids();
        let mut net = Network::new(NetworkConfig::lan());
        let mut rng = StdRng::seed_from_u64(1);
        let t = net
            .delivery_time(&mut rng, SimTime::ZERO, a, b, 100)
            .unwrap();
        assert!(t.as_micros() >= 250 && t.as_micros() < 2_000, "{t:?}");
        assert_eq!(net.delivered(), 1);
        assert_eq!(net.bytes_sent(), 100);
    }

    #[test]
    fn extra_delay_shifts_arrival() {
        let (a, b, _) = ids();
        let mut rng = StdRng::seed_from_u64(1);
        let mut fast = Network::new(NetworkConfig::lan());
        let cfgd = NetworkConfig::lan().with_extra_delay_ms(100);
        let mut slow = Network::new(cfgd);
        let t_fast = fast
            .delivery_time(&mut rng, SimTime::ZERO, a, b, 10)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let t_slow = slow
            .delivery_time(&mut rng, SimTime::ZERO, a, b, 10)
            .unwrap();
        assert_eq!((t_slow - t_fast).as_millis(), 100);
    }

    #[test]
    fn loopback_is_fast_and_lossless() {
        let (a, _, _) = ids();
        let cfg = NetworkConfig::lan().with_loss_rate(1.0);
        let mut net = Network::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            assert!(net
                .delivery_time(&mut rng, SimTime::ZERO, a, a, 10)
                .is_some());
        }
        assert_eq!(net.dropped(), 0);
    }

    #[test]
    fn full_loss_drops_everything_between_peers() {
        let (a, b, _) = ids();
        let mut net = Network::new(NetworkConfig::lan().with_loss_rate(1.0));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            assert!(net
                .delivery_time(&mut rng, SimTime::ZERO, a, b, 10)
                .is_none());
        }
        assert_eq!(net.dropped(), 10);
        assert_eq!(net.dropped_loss(), 10);
        assert_eq!(net.dropped_partition(), 0);
    }

    #[test]
    fn loss_rate_can_be_changed_mid_run() {
        let (a, b, _) = ids();
        let mut net = Network::new(NetworkConfig::lan());
        let mut rng = StdRng::seed_from_u64(9);
        assert!(net
            .delivery_time(&mut rng, SimTime::ZERO, a, b, 10)
            .is_some());
        net.set_loss_rate(1.0);
        assert!(net
            .delivery_time(&mut rng, SimTime::ZERO, a, b, 10)
            .is_none());
        net.set_loss_rate(0.0);
        assert!(net
            .delivery_time(&mut rng, SimTime::ZERO, a, b, 10)
            .is_some());
        assert_eq!(net.dropped_loss(), 1);
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let (a, b, c) = ids();
        let mut net = Network::new(NetworkConfig::lan());
        let mut rng = StdRng::seed_from_u64(4);
        net.add_partition(Partition::between([a], [b]));
        assert!(net
            .delivery_time(&mut rng, SimTime::ZERO, a, b, 10)
            .is_none());
        assert!(net
            .delivery_time(&mut rng, SimTime::ZERO, b, a, 10)
            .is_none());
        assert_eq!(net.dropped_partition(), 2);
        assert_eq!(net.dropped_loss(), 0);
        // Unrelated pair unaffected.
        assert!(net
            .delivery_time(&mut rng, SimTime::ZERO, a, c, 10)
            .is_some());
        net.heal_all_partitions();
        assert!(net
            .delivery_time(&mut rng, SimTime::ZERO, a, b, 10)
            .is_some());
    }

    #[test]
    fn bandwidth_serialises_large_messages() {
        let (a, b, _) = ids();
        let mut cfg = NetworkConfig::lan();
        cfg.jitter = SimDuration::ZERO;
        let mut net = Network::new(cfg);
        let mut rng = StdRng::seed_from_u64(5);
        // Two messages of one second's worth of link bytes each, sent back
        // to back: the second waits for the first to finish transmitting.
        let size = BANDWIDTH_BYTES_PER_SEC as usize;
        let t1 = net
            .delivery_time(&mut rng, SimTime::ZERO, a, b, size)
            .unwrap();
        let t2 = net
            .delivery_time(&mut rng, SimTime::ZERO, a, b, size)
            .unwrap();
        assert!(t1.as_secs_f64() > 0.99 && t1.as_secs_f64() < 1.1, "{t1:?}");
        assert!(t2.as_secs_f64() > 1.99 && t2.as_secs_f64() < 2.1, "{t2:?}");
        // A different sender's link is independent.
        let t3 = net
            .delivery_time(&mut rng, SimTime::ZERO, b, a, size)
            .unwrap();
        assert!(t3.as_secs_f64() < 1.1, "{t3:?}");
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn invalid_loss_rate_panics() {
        let _ = NetworkConfig::lan().with_loss_rate(1.5);
    }
}
