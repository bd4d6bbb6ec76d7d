//! The paper scorecard: every distinct run behind the source paper's tables
//! and figures, each run once on the simulated clock and written to
//! `PAPER_RESULTS.md` at the repository root.
//!
//! The file has three sections, one function each:
//!
//! * [`analytic_section`]: the file's header, then Appendix D's model next
//!   to the paper's printed ceilings and ratios, Table 1's grid and Fig. 2
//!   right's block-size sweep. No simulation.
//! * [`smoke_section`]: [`SMOKE_SHAPES`] at the [`SMOKE`] scale, seconds in
//!   a debug build. `tests/paper_results.rs` regenerates it and the
//!   analytic section and compares them byte for byte with the file.
//! * [`full_section`]: the 52 distinct [`SHAPES`] at the [`FULL`] scale,
//!   19.5 s in release on 2 cores (one run), 3.4-3.9 s of it in the
//!   invariant checker.
//!
//! The `paper` bin writes all three:
//!
//! ```sh
//! cargo run --release -p setchain-bench --bin paper && git diff --exit-code PAPER_RESULTS.md
//! ```
//!
//! Every value is read off the simulated clock, so a rerun writes the same
//! bytes and a change's diff of the file is its sim-clock result. Every
//! run's final state must pass [`check_setchain_invariants`]; a violation
//! panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write;

use setchain::Algorithm::{self, Compresschain as C, Hashchain as H, Vanilla as V};
use setchain_crypto::Sha256;
use setchain_simnet::SimTime;
use setchain_workload::metrics::{quantile, StageSample};
use setchain_workload::scenario::table1;
use setchain_workload::{
    check_setchain_invariants, AnalysisParams, CommitTimes, Deployment, DeploymentBuilder,
    Efficiency, RunResult, StageLatencies, ThroughputSeries,
};

/// How long a section's runs inject, and when a run that has not drained
/// stops.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Injection window in seconds; efficiency is read at 1×, 1.5× and 2× it.
    pub injection_secs: u64,
    /// Hard stop in seconds.
    pub max_run_secs: u64,
}

/// The full section: a quarter of the paper's 50 s injection window, and a
/// stop after six windows.
pub const FULL: Scale = Scale {
    injection_secs: 13,
    max_run_secs: 78,
};

/// The smoke section: 2 s of injection and a stop at 12 s.
pub const SMOKE: Scale = Scale {
    injection_secs: 2,
    max_run_secs: 12,
};

/// The algorithm variant a shape runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The evaluated algorithm.
    Paper,
    /// The "light" ablation of Fig. 2 left.
    Light,
    /// Section 4.1's proposal: batches are pushed to every server.
    Push,
}

/// One distinct run: the figures it feeds and where it departs from the
/// paper's base scenario.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// The figures and tables the row feeds, e.g. `F1-right F3a`.
    pub feeds: &'static str,
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Offered load across all clients, in el/s.
    pub rate: f64,
    /// Collector size (Vanilla ignores it).
    pub collector: usize,
    /// Number of servers.
    pub servers: usize,
    /// Added network delay in ms.
    pub delay_ms: u64,
    /// The algorithm variant.
    pub variant: Variant,
    /// RNG seed.
    pub seed: u64,
    /// Records the per-stage trace Fig. 4 reads.
    pub detailed: bool,
}

/// The paper's base scenario (n = 10, no added delay, seed 42) at `rate`
/// and `collector`.
const fn at(algorithm: Algorithm, rate: f64, collector: usize, feeds: &'static str) -> Shape {
    Shape {
        feeds,
        algorithm,
        rate,
        collector,
        servers: 10,
        delay_ms: 0,
        variant: Variant::Paper,
        seed: 42,
        detailed: false,
    }
}

/// Fig. 4's shape: 1,250 el/s, c = 100, per-stage trace.
const fn fig4(algorithm: Algorithm) -> Shape {
    Shape {
        detailed: true,
        ..at(algorithm, 1_250.0, 100, "F4")
    }
}

/// Section 4.1's Hashchain comparison: 5,000 el/s, c = 500, seed 97.
const fn ablation(variant: Variant) -> Shape {
    Shape {
        variant,
        seed: 97,
        ..at(H, 5_000.0, 500, "S4.1")
    }
}

/// Every distinct run of Figs. 1–5 and Section 4.1, once each. Figs. 1 and
/// 2 left reuse Fig. 3a's rows where the paper's shapes coincide, as Fig.
/// 3b's `n = 10` and Fig. 3c's `0 ms` rows do. The last two rows are
/// Section 4.1's push against its baseline at 50,000 el/s with 100 ms of
/// added delay. Across seeds {42, 7, 97, 1, 11, 13, 23} push commits 33,915
/// el/s against the baseline's 33,750–33,816 (+0.5 %), and moves latency
/// beyond the cross-seed spread: p50 4.77–4.80 → 4.45–4.46 s and p99
/// 5.61–5.64 → 5.23–5.24 s.
#[rustfmt::skip]
pub const SHAPES: [Shape; 52] = [
    at(V, 500.0, 100, "F3a F5"),
    at(C, 500.0, 100, "F3a F5"),
    at(C, 500.0, 500, "F3a F5"),
    at(H, 500.0, 100, "F3a F5"),
    at(H, 500.0, 500, "F3a F5"),
    at(V, 1_000.0, 100, "F3a F5"),
    at(C, 1_000.0, 100, "F3a F5"),
    at(C, 1_000.0, 500, "F3a F5"),
    at(H, 1_000.0, 100, "F3a F5"),
    at(H, 1_000.0, 500, "F3a F5"),
    at(V, 5_000.0, 100, "F1-left F2-left F3a F5"),
    at(C, 5_000.0, 100, "F1-left F3a F5"),
    at(C, 5_000.0, 500, "F3a F5"),
    at(H, 5_000.0, 100, "F1-left F3a F5"),
    at(H, 5_000.0, 500, "F3a F5"),
    at(V, 10_000.0, 100, "F3a F3b F3c F5"),
    at(C, 10_000.0, 100, "F1-center F3a F3b F3c F5"),
    at(C, 10_000.0, 500, "F1-right F2-left F3a F3b F3c F5"),
    at(H, 10_000.0, 100, "F1-center F3a F3b F3c F5"),
    at(H, 10_000.0, 500, "F1-right F3a F3b F3c F5"),
    Shape { servers: 4, ..at(V, 10_000.0, 100, "F3b F5") },
    Shape { servers: 4, ..at(C, 10_000.0, 100, "F3b F5") },
    Shape { servers: 4, ..at(C, 10_000.0, 500, "F3b F5") },
    Shape { servers: 4, ..at(H, 10_000.0, 100, "F3b F5") },
    Shape { servers: 4, ..at(H, 10_000.0, 500, "F3b F5") },
    Shape { servers: 7, ..at(V, 10_000.0, 100, "F3b F5") },
    Shape { servers: 7, ..at(C, 10_000.0, 100, "F3b F5") },
    Shape { servers: 7, ..at(C, 10_000.0, 500, "F3b F5") },
    Shape { servers: 7, ..at(H, 10_000.0, 100, "F3b F5") },
    Shape { servers: 7, ..at(H, 10_000.0, 500, "F3b F5") },
    Shape { delay_ms: 30, ..at(V, 10_000.0, 100, "F3c F5") },
    Shape { delay_ms: 30, ..at(C, 10_000.0, 100, "F3c F5") },
    Shape { delay_ms: 30, ..at(C, 10_000.0, 500, "F3c F5") },
    Shape { delay_ms: 30, ..at(H, 10_000.0, 100, "F3c F5") },
    Shape { delay_ms: 30, ..at(H, 10_000.0, 500, "F3c F5") },
    Shape { delay_ms: 100, ..at(V, 10_000.0, 100, "F3c F5") },
    Shape { delay_ms: 100, ..at(C, 10_000.0, 100, "F3c F5") },
    Shape { delay_ms: 100, ..at(C, 10_000.0, 500, "F3c F5") },
    Shape { delay_ms: 100, ..at(H, 10_000.0, 100, "F3c F5") },
    Shape { delay_ms: 100, ..at(H, 10_000.0, 500, "F3c F5") },
    Shape { variant: Variant::Light, ..at(C, 10_000.0, 500, "F2-left") },
    at(H, 25_000.0, 500, "F2-left"),
    at(H, 50_000.0, 500, "F2-left"),
    Shape { variant: Variant::Light, ..at(H, 150_000.0, 500, "F2-left") },
    fig4(V),
    fig4(C),
    fig4(H),
    ablation(Variant::Paper),
    ablation(Variant::Push),
    ablation(Variant::Light),
    Shape { delay_ms: 100, ..at(H, 50_000.0, 500, "S4.1") },
    Shape { delay_ms: 100, variant: Variant::Push, ..at(H, 50_000.0, 500, "S4.1") },
];

/// One saturating shape per algorithm, plus Fig. 4's shape.
pub const SMOKE_SHAPES: [Shape; 4] = [
    at(V, 5_000.0, 100, "F1-left"),
    at(C, 10_000.0, 500, "F1-right F2-left"),
    at(H, 10_000.0, 500, "F1-right"),
    fig4(H),
];

impl Shape {
    /// The row's name: algorithm, offered load, collector and every
    /// departure from the base scenario.
    fn label(&self) -> String {
        let rate = if self.rate >= 1_000.0 {
            format!("{}k", self.rate / 1_000.0)
        } else {
            self.rate.to_string()
        };
        let mut label = format!("{} {rate}", self.algorithm.name());
        if self.algorithm.uses_collector() {
            let _ = write!(label, " c{}", self.collector);
        }
        if self.servers != 10 {
            let _ = write!(label, " n{}", self.servers);
        }
        if self.delay_ms != 0 {
            let _ = write!(label, " +{}ms", self.delay_ms);
        }
        label += match self.variant {
            Variant::Paper => "",
            Variant::Light => " light",
            Variant::Push => " push",
        };
        if self.seed != 42 {
            let _ = write!(label, " s{}", self.seed);
        }
        label
    }

    /// The shape's deployment at `scale`.
    fn builder(&self, scale: Scale) -> DeploymentBuilder {
        let builder = Deployment::builder(self.algorithm)
            .rate(self.rate)
            .collector(self.collector)
            .servers(self.servers)
            .delay_ms(self.delay_ms)
            .seed(self.seed)
            .injection_secs(scale.injection_secs)
            .max_run_secs(scale.max_run_secs);
        let builder = match self.variant {
            Variant::Paper => builder,
            Variant::Light => builder.light(),
            Variant::Push => builder.push_batches(),
        };
        if self.detailed {
            builder.detailed()
        } else {
            builder
        }
    }

    /// Appendix D's ceiling for the shape, with the paper's constants.
    fn ceiling(&self) -> f64 {
        AnalysisParams::default()
            .with_collector(self.collector)
            .with_servers(self.servers)
            .throughput(self.algorithm)
    }
}

const HEADER: &str = "# Paper results

Written by `cargo run --release -p setchain-bench --bin paper`; do not edit
by hand. Every value is on the simulated clock, so a rerun writes the same
bytes and a change's diff of this file is its sim-clock result. Tier-1
(`tests/paper_results.rs`) regenerates the Analytic and Smoke sections and
compares them byte for byte; every run passed `check_setchain_invariants`.

Columns: `el/s inj` is elements committed by the end of injection ÷ the
window; `peak` the highest 9-s rolling average; `ceiling` Appendix D's
ceiling for the shape with the paper's constants; `share` is `el/s inj` ÷
min(ceiling, offered); `eff@t` is committed ÷ added at t = 1×, 1.5× and 2×
the window; `first` and `50 %` are the times the first element and half of
all elements had committed; `p50` and `p99` are add → commit latencies (all
times in seconds); `blocks/s` is server 0's committed blocks ÷ run length;
`r` is server 0's compression ratio (paper: 2.7–3.5). `feeds` names the
figures a row serves: F1 rows also make Table 2, F5 reads every F3 row's
commit times, and S4.1 is Section 4.1's Hashchain proposals.
";

/// Appendix D's configurations and the ceilings the paper prints for them.
const APPENDIX_D: [(&str, Algorithm, usize, f64); 5] = [
    ("Vanilla", V, 100, 955.0),
    ("Compresschain c100", C, 100, 2_497.0),
    ("Compresschain c500", C, 500, 3_330.0),
    ("Hashchain c100", H, 100, 27_157.0),
    ("Hashchain c500", H, 500, 147_857.0),
];

/// The header and the Analytic section.
pub fn analytic_section() -> String {
    let mut out = format!(
        "{HEADER}
## Analytic

Appendix D with the paper's constants (n = 10, C = 0.5 MB, l_e = 438 B,
l_p = l_h = 139 B, R = 0.8 blocks/s, r = 2.7 at c = 100 and 3.5 at c = 500):

| configuration | computed el/s | paper el/s |
|---|---:|---:|
"
    );
    for (label, algorithm, collector, paper) in APPENDIX_D {
        let computed = AnalysisParams::default()
            .with_collector(collector)
            .throughput(algorithm);
        let _ = writeln!(out, "| {label} | {computed:.0} | {paper:.0} |");
    }
    let p = AnalysisParams::default().with_collector(500);
    let _ = write!(
        out,
        "
At c = 500, Hashchain ÷ Vanilla = {:.0} (paper ≈ 155) and Hashchain ÷
Compresschain = {:.0} (paper ≈ 44).

Table 1's grid: sending rates {:?} el/s, collectors {:?}, servers {:?},
added delays {:?} ms.

Fig. 2 right, c = 500, el/s by block size:

| block MB | Vanilla | Compresschain | Hashchain |
|---:|---:|---:|---:|
",
        p.hashchain() / p.vanilla(),
        p.hashchain() / p.compresschain(),
        table1::SENDING_RATES,
        table1::COLLECTOR_LIMITS,
        table1::SERVER_COUNTS,
        table1::NETWORK_DELAYS_MS,
    );
    for mb in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
        let p = p.with_block_capacity(mb * 1024.0 * 1024.0);
        let _ = writeln!(
            out,
            "| {mb} | {:.0} | {:.0} | {:.0} |",
            p.vanilla(),
            p.compresschain(),
            p.hashchain()
        );
    }
    out
}

/// The Smoke section: [`SMOKE_SHAPES`] at [`SMOKE`].
pub fn smoke_section() -> String {
    section(
        "Smoke",
        "n = 10, 2 s of injection, runs stop at 12 s: one saturating shape per\nalgorithm, and Fig. 4's shape.",
        &SMOKE_SHAPES,
        SMOKE,
    )
}

/// The Full section: [`SHAPES`] at [`FULL`].
pub fn full_section() -> String {
    section(
        "Full",
        "A quarter of the paper's 50 s window: 13 s of injection, runs stop at 78 s.\nEach distinct shape runs once.",
        &SHAPES,
        FULL,
    )
}

fn section(title: &str, intro: &str, shapes: &[Shape], scale: Scale) -> String {
    let [c1, c2, c3] = Efficiency::checkpoints(scale.injection_secs);
    let mut out = format!(
        "\n## {title}\n\n{intro}\n\n| shape | feeds | added | committed | el/s inj | peak | ceiling | share \
         | eff@{c1}s | eff@{c2}s | eff@{c3}s | first | 50 % | p50 | p99 | blocks/s | r | fingerprint |\n\
         |---|---|{}---|\n",
        "---:|".repeat(15)
    );
    let mut stages = String::new();
    for shape in shapes {
        let result = shape.builder(scale).run();
        out += &row(shape, scale, &result);
        if shape.detailed {
            stages += &stage_row(&shape.label(), &result);
        }
    }
    if !stages.is_empty() {
        out += "\nFig. 4's stages: add → stage, p50 / p99 in seconds (paper: finality below 4 s).\n\n\
                | shape | first mempool | f+1 mempools | all mempools | ledger | f+1 epoch-proofs |\n\
                |---|---:|---:|---:|---:|---:|\n";
        out += &stages;
    }
    out
}

/// One table row; panics if the run's final state breaks a Setchain
/// property.
fn row(shape: &Shape, scale: Scale, result: &RunResult) -> String {
    let label = shape.label();
    let d = &result.deployment;
    if let Err(violation) = check_setchain_invariants(d) {
        panic!("{label}: Setchain property violated: {violation}");
    }
    let w = scale.injection_secs;
    let eps = result.average_throughput(w);
    let until = result.finished_at.max(SimTime::from_secs(w));
    let peak = ThroughputSeries::compute(&d.trace, 9, until).peak();
    let ceiling = shape.ceiling();
    let [e1, e2, e3] = Efficiency::compute(&d.trace, w).values;
    let times = CommitTimes::compute(&d.trace);
    let records = d.trace.element_records();
    let mut latencies: Vec<f64> = records
        .iter()
        .filter_map(|r| Some((r.committed_at? - r.added_at).as_secs_f64()))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let server = d.server(0);
    let blocks_per_s = (server.height() - 1) as f64 / result.finished_at.as_secs_f64();
    format!(
        "| {label} | {} | {} | {} | {eps:.0} | {peak:.0} | {ceiling:.0} | {:.2} | {e1:.2} | {e2:.2} \
         | {e3:.2} | {} | {} | {} | {} | {blocks_per_s:.2} | {} | `{}` |\n",
        shape.feeds,
        result.added,
        result.committed,
        eps / ceiling.min(shape.rate),
        secs(times.first),
        secs(times.fractions[4].1),
        secs(quantile(&latencies, 0.5)),
        secs(quantile(&latencies, 0.99)),
        server.compression_ratio().map_or("-".into(), |r| format!("{r:.2}")),
        fingerprint(d),
    )
}

/// Fig. 4's per-stage p50 / p99 of one detailed run.
fn stage_row(label: &str, result: &RunResult) -> String {
    let d = &result.deployment;
    let (f, n) = (d.config.f, d.config.servers);
    let stages = StageLatencies::compute(&d.trace, &d.ledger_trace, f, n);
    let probes: [fn(&StageSample) -> Option<f64>; 5] = [
        |s| s.first_mempool,
        |s| s.quorum_mempools,
        |s| s.all_mempools,
        |s| s.ledger,
        |s| s.committed,
    ];
    let mut row = format!("| {label} |");
    for probe in probes {
        let cdf = stages.cdf(probe);
        let (p50, p99) = (quantile(&cdf, 0.5), quantile(&cdf, 0.99));
        let _ = write!(row, " {} / {} |", secs(p50), secs(p99));
    }
    row + "\n"
}

fn secs(t: Option<f64>) -> String {
    t.map_or("-".into(), |t| format!("{t:.2}"))
}

/// The recipe of `benchmark/src/run.rs`: the scheduler's counters and the
/// first 8 bytes of a SHA-256 over server 0's epoch digests.
fn fingerprint(d: &Deployment) -> String {
    let state = d.server(0).state();
    let mut digests = Sha256::new();
    for epoch in 1..=state.epoch() {
        let digest = state.epoch_digest(epoch).expect("epoch recorded");
        digests.update(digest.as_bytes());
    }
    format!(
        "events={},deferred={},digests={:016x}",
        d.sim.events_processed(),
        d.sim.messages_deferred(),
        digests.finalize().short()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_and_checkpoints() {
        assert_eq!((FULL.injection_secs, FULL.max_run_secs), (13, 78));
        assert_eq!(Efficiency::checkpoints(FULL.injection_secs), [13, 19, 26]);
        assert_eq!((SMOKE.injection_secs, SMOKE.max_run_secs), (2, 12));
    }

    #[test]
    fn scenario_scaling_applies() {
        let builder = ablation(Variant::Push).builder(FULL);
        let (s, config) = (builder.scenario(), builder.config());
        assert_eq!((s.injection_secs, s.max_run_secs, s.seed), (13, 78, 97));
        assert_eq!((config.push_batches, config.servers), (true, 10));
    }

    #[test]
    fn formatting() {
        assert_eq!(
            ablation(Variant::Push).label(),
            "Hashchain 5k c500 push s97"
        );
        assert_eq!(fig4(V).label(), "Vanilla 1.25k");
        assert_eq!(SHAPES[25].label(), "Vanilla 10k n7");
        assert_eq!(SHAPES[36].label(), "Compresschain 10k c100 +100ms");
        assert_eq!(secs(None), "-");
    }

    #[test]
    fn every_shape_runs_once() {
        let mut labels: Vec<String> = SHAPES.iter().map(Shape::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), SHAPES.len());
    }
}
