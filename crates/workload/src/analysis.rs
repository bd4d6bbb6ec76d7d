//! The analytical throughput model of Appendix D.
//!
//! For each algorithm the paper derives the highest stationary throughput as
//! a function of the system parameters (all servers assumed correct):
//!
//! * Vanilla:        `T_v = R · (C − n·l_p) / l_e`
//! * Compresschain:  `T_c = R · (c − n) · C / ℓ`, with
//!   `ℓ = ((c − n)·l_e + n·l_p) / r`
//! * Hashchain:      `T_h = R · (c − n) · C / (n · l_h)`
//!
//! with `R` the block rate, `C` the block capacity, `n` the server count,
//! `c` the collector size, `l_e`/`l_p`/`l_h` the element, epoch-proof and
//! hash-batch lengths, and `r` the compression ratio. Section D.1 evaluates
//! these with the evaluation-platform constants; the unit tests below pin the
//! same numbers.

use serde::{Deserialize, Serialize};
use setchain::Algorithm;
use setchain_ledger::types::MAX_BLOCK_BYTES;

/// Parameters of the analytical model (defaults are the paper's evaluation
/// constants: n = 10, C = 0.5 MB, l_e = 438 B, l_p = l_h = 139 B,
/// R = 0.8 blocks/s).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AnalysisParams {
    /// Number of servers `n`.
    pub servers: usize,
    /// Block capacity `C` in bytes.
    pub block_capacity: f64,
    /// Average element length `l_e` in bytes.
    pub element_len: f64,
    /// Epoch-proof length `l_p` in bytes.
    pub proof_len: f64,
    /// Hash-batch length `l_h` in bytes.
    pub hash_batch_len: f64,
    /// Block rate `R` in blocks per second.
    pub block_rate: f64,
    /// Collector size `c` (ignored by Vanilla).
    pub collector: usize,
    /// Compression ratio `r` (used by Compresschain only).
    pub compression_ratio: f64,
}

impl Default for AnalysisParams {
    fn default() -> Self {
        AnalysisParams {
            servers: 10,
            block_capacity: MAX_BLOCK_BYTES as f64,
            element_len: 438.0,
            proof_len: 139.0,
            hash_batch_len: 139.0,
            block_rate: 0.8,
            collector: 100,
            compression_ratio: 2.7,
        }
    }
}

impl AnalysisParams {
    /// Sets the collector size and, following Section D.1, the compression
    /// ratio the paper measured for that collector size (2.7 for c = 100,
    /// 3.5 for c = 500).
    pub fn with_collector(mut self, collector: usize) -> Self {
        self.collector = collector;
        self.compression_ratio = match collector {
            c if c >= 500 => 3.5,
            _ => 2.7,
        };
        self
    }

    /// Sets the number of servers.
    pub fn with_servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Sets the block capacity in bytes.
    pub fn with_block_capacity(mut self, bytes: f64) -> Self {
        self.block_capacity = bytes;
        self
    }

    /// `T_v`: Vanilla's analytical throughput in elements per second.
    pub fn vanilla(&self) -> f64 {
        let n = self.servers as f64;
        self.block_rate * (self.block_capacity - n * self.proof_len) / self.element_len
    }

    /// `T_c`: Compresschain's analytical throughput in elements per second.
    pub fn compresschain(&self) -> f64 {
        let n = self.servers as f64;
        let c = self.collector as f64;
        let epoch_len = ((c - n) * self.element_len + n * self.proof_len) / self.compression_ratio;
        self.block_rate * (c - n) * self.block_capacity / epoch_len
    }

    /// `T_h`: Hashchain's analytical throughput in elements per second.
    pub fn hashchain(&self) -> f64 {
        let n = self.servers as f64;
        let c = self.collector as f64;
        self.block_rate * (c - n) * self.block_capacity / (n * self.hash_batch_len)
    }

    /// Analytical throughput of the given algorithm, indexed through
    /// [`Algorithm::index`] (no per-variant dispatch outside the `setchain`
    /// crate's factory/config sites).
    pub fn throughput(&self, algorithm: Algorithm) -> f64 {
        [self.vanilla(), self.compresschain(), self.hashchain()][algorithm.index()]
    }
}

/// Convenience wrapper: analytical throughput of `algorithm` under `params`.
pub fn analytical_throughput(algorithm: Algorithm, params: &AnalysisParams) -> f64 {
    params.throughput(algorithm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(actual: f64, expected: f64, tolerance: f64) -> bool {
        (actual - expected).abs() / expected < tolerance
    }

    #[test]
    fn section_d1_vanilla_value() {
        // Paper: T_v ≈ 955 el/s.
        let params = AnalysisParams::default();
        assert!(close(params.vanilla(), 955.0, 0.01), "{}", params.vanilla());
    }

    #[test]
    fn section_d1_compresschain_values() {
        // Paper: T_c[c=100] ≈ 2 497 el/s, T_c[c=500] ≈ 3 330 el/s.
        let c100 = AnalysisParams::default().with_collector(100);
        let c500 = AnalysisParams::default().with_collector(500);
        assert!(
            close(c100.compresschain(), 2_497.0, 0.01),
            "{}",
            c100.compresschain()
        );
        assert!(
            close(c500.compresschain(), 3_330.0, 0.01),
            "{}",
            c500.compresschain()
        );
    }

    #[test]
    fn section_d1_hashchain_values() {
        // Paper: T_h[c=100] ≈ 27 157 el/s, T_h[c=500] ≈ 147 857 el/s.
        let c100 = AnalysisParams::default().with_collector(100);
        let c500 = AnalysisParams::default().with_collector(500);
        assert!(
            close(c100.hashchain(), 27_157.0, 0.01),
            "{}",
            c100.hashchain()
        );
        assert!(
            close(c500.hashchain(), 147_857.0, 0.01),
            "{}",
            c500.hashchain()
        );
    }

    #[test]
    fn section_d1_ratios() {
        // Paper: T_h[c=500]/T_v ≈ 155 and T_h[c=500]/T_c[c=500] ≈ 44.
        let p = AnalysisParams::default().with_collector(500);
        assert!(close(p.hashchain() / p.vanilla(), 155.0, 0.02));
        assert!(close(p.hashchain() / p.compresschain(), 44.0, 0.02));
    }

    #[test]
    fn fig2_right_block_size_sweep_shape() {
        // Fig. 2 (right): with the usual 4 MB CometBFT block size Hashchain
        // reaches ~10^6 el/s, and with 128 MB blocks more than 30 million.
        let at = |mb: f64| {
            AnalysisParams::default()
                .with_collector(500)
                .with_block_capacity(mb * 1024.0 * 1024.0)
        };
        let four_mb = at(4.0).hashchain();
        assert!(four_mb > 1.0e6 && four_mb < 2.0e6, "{four_mb}");
        let huge = at(128.0).hashchain();
        assert!(huge > 30.0e6, "{huge}");
        // Throughput ordering holds at every block size.
        for mb in [0.5, 1.0, 2.0, 8.0, 32.0, 128.0] {
            let p = at(mb);
            assert!(p.hashchain() > p.compresschain());
            assert!(p.compresschain() > p.vanilla());
        }
    }

    #[test]
    fn throughput_dispatch_matches_direct_calls() {
        let p = AnalysisParams::default();
        assert_eq!(p.throughput(Algorithm::Vanilla), p.vanilla());
        assert_eq!(p.throughput(Algorithm::Compresschain), p.compresschain());
        assert_eq!(p.throughput(Algorithm::Hashchain), p.hashchain());
        assert_eq!(
            analytical_throughput(Algorithm::Hashchain, &p),
            p.hashchain()
        );
    }

    #[test]
    fn more_servers_reduce_hashchain_throughput() {
        let p4 = AnalysisParams::default()
            .with_collector(500)
            .with_servers(4);
        let p10 = AnalysisParams::default()
            .with_collector(500)
            .with_servers(10);
        assert!(p4.hashchain() > p10.hashchain());
    }
}
