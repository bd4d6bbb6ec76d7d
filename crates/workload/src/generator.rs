//! Synthetic Arbitrum-like workload.
//!
//! The paper injects transactions downloaded from Arbitrum; only their size
//! distribution matters to the algorithms (average 438 bytes, standard
//! deviation 753.5). Sizes are drawn from a log-normal distribution fitted to
//! those two moments and clamped to a sane range; payload bytes themselves are
//! materialized on demand by [`setchain::Element::materialize`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setchain::{Element, ElementGenerator};
use setchain_crypto::{KeyPair, KeyRegistry, ProcessId};

/// Mean element size reported by the paper (bytes).
pub const ARBITRUM_MEAN_SIZE: f64 = 438.0;
/// Element size standard deviation reported by the paper (bytes).
pub const ARBITRUM_STD_SIZE: f64 = 753.5;
/// Smallest element generated (bytes).
pub const MIN_SIZE: u32 = 96;
/// Largest element generated (bytes); Arbitrum calldata has a long tail but
/// the paper's ledger rejects nothing below the block size.
pub const MAX_SIZE: u32 = 16_384;

/// Per-client generator of Arbitrum-like elements.
#[derive(Clone, Debug)]
pub struct ArbitrumWorkload {
    elements: ElementGenerator,
    rng: StdRng,
    mu: f64,
    sigma: f64,
    produced: u64,
}

impl ArbitrumWorkload {
    /// Creates a workload generator for the client owning `keys`.
    pub fn new(keys: KeyPair, seed: u64) -> Self {
        // Fit a log-normal to the reported mean/σ:
        //   σ² = ln(1 + (s/m)²),  μ = ln(m) − σ²/2.
        let cv2 = (ARBITRUM_STD_SIZE / ARBITRUM_MEAN_SIZE).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = ARBITRUM_MEAN_SIZE.ln() - sigma2 / 2.0;
        ArbitrumWorkload {
            elements: ElementGenerator::new(keys),
            rng: StdRng::seed_from_u64(seed),
            mu,
            sigma: sigma2.sqrt(),
            produced: 0,
        }
    }

    /// Convenience constructor: uses the key registered for `client` in the
    /// PKI.
    pub fn for_client(registry: &KeyRegistry, client: ProcessId, seed: u64) -> Self {
        let keys = registry
            .lookup(client)
            .expect("client must be registered in the PKI");
        Self::new(keys, seed)
    }

    fn sample_size(&mut self) -> u32 {
        // Box-Muller standard normal, then log-normal transform.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let size = (self.mu + self.sigma * z).exp();
        (size.round() as u32).clamp(MIN_SIZE, MAX_SIZE)
    }

    /// Generates the next element.
    pub fn next_element(&mut self) -> Element {
        let size = self.sample_size();
        let seed = self.rng.gen::<u64>();
        self.produced += 1;
        self.elements.next_element(size, seed)
    }

    /// Generates `count` elements.
    pub fn take(&mut self, count: usize) -> Vec<Element> {
        (0..count).map(|_| self.next_element()).collect()
    }

    /// Number of elements generated so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(seed: u64) -> ArbitrumWorkload {
        let registry = KeyRegistry::bootstrap(5, 2, 2);
        ArbitrumWorkload::for_client(&registry, ProcessId::client(0), seed)
    }

    #[test]
    fn sizes_match_paper_distribution_roughly() {
        let mut w = workload(1);
        let elements = w.take(20_000);
        let mean = elements.iter().map(|e| f64::from(e.size)).sum::<f64>() / elements.len() as f64;
        assert!(
            (300.0..600.0).contains(&mean),
            "mean size {mean:.1} outside the expected window around 438"
        );
        let var: f64 = elements
            .iter()
            .map(|e| (e.size as f64 - mean).powi(2))
            .sum::<f64>()
            / elements.len() as f64;
        let std = var.sqrt();
        assert!(
            (350.0..1100.0).contains(&std),
            "σ {std:.1} far from the paper's 753.5"
        );
        assert!(elements
            .iter()
            .all(|e| e.size >= MIN_SIZE && e.size <= MAX_SIZE));
    }

    #[test]
    fn generated_elements_are_valid_and_unique() {
        let registry = KeyRegistry::bootstrap(5, 2, 2);
        let mut w = ArbitrumWorkload::for_client(&registry, ProcessId::client(1), 3);
        let elements = w.take(500);
        let mut ids = std::collections::HashSet::new();
        for e in &elements {
            assert!(e.is_valid(&registry));
            assert!(ids.insert(e.id));
        }
        assert_eq!(w.produced(), 500);
    }

    #[test]
    fn deterministic_for_a_given_seed() {
        let a: Vec<u32> = workload(9).take(100).iter().map(|e| e.size).collect();
        let b: Vec<u32> = workload(9).take(100).iter().map(|e| e.size).collect();
        let c: Vec<u32> = workload(10).take(100).iter().map(|e| e.size).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
