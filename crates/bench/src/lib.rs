//! Shared harness code for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Every binary honours two environment variables:
//!
//! * `SETCHAIN_SCALE` — time-scale factor applied to the injection duration
//!   and to the efficiency checkpoints (default **0.25**, i.e. 12.5 s of
//!   injection instead of the paper's 50 s). The simulations reach steady
//!   state within a few seconds, so the scaled runs preserve every
//!   qualitative result while fitting a single-core machine; set
//!   `SETCHAIN_SCALE=1` to run at full paper scale.
//! * `SETCHAIN_OUT` — directory where CSV result files are written
//!   (default `target/experiments`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use setchain::Algorithm;
use setchain_simnet::SimTime;
use setchain_workload::{RunResult, Scenario, ThroughputSeries};

/// Experiment context shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct ExperimentCtx {
    /// Time-scale factor (1.0 = the paper's 50 s injection).
    pub scale: f64,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        Self::from_env()
    }
}

impl ExperimentCtx {
    /// Builds the context from `SETCHAIN_SCALE` / `SETCHAIN_OUT`.
    pub fn from_env() -> Self {
        let scale = std::env::var("SETCHAIN_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0 && *s <= 4.0)
            .unwrap_or(0.25);
        let out_dir = std::env::var("SETCHAIN_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/experiments"));
        ExperimentCtx { scale, out_dir }
    }

    /// The paper's 50-second injection window, scaled.
    pub fn injection_secs(&self) -> u64 {
        ((50.0 * self.scale).round() as u64).max(5)
    }

    /// The efficiency checkpoints 50 / 75 / 100 s, scaled.
    pub fn checkpoints(&self) -> [u64; 3] {
        let i = self.injection_secs();
        [i, i + i / 2, 2 * i]
    }

    /// Maximum run duration: six injection windows (the paper's Fig. 1 left
    /// runs for up to ~300 s with a 50 s injection).
    pub fn max_run_secs(&self) -> u64 {
        6 * self.injection_secs()
    }

    /// Applies the scale to a base scenario.
    pub fn scale_scenario(&self, scenario: Scenario) -> Scenario {
        scenario
            .with_injection_secs(self.injection_secs())
            .with_max_run_secs(self.max_run_secs())
    }

    /// A scaled scenario for `algorithm` with the paper's base parameters.
    pub fn scenario(&self, algorithm: Algorithm) -> Scenario {
        self.scale_scenario(Scenario::base(algorithm))
    }

    /// Opens (creating directories as needed) a CSV output file.
    pub fn csv(&self, name: &str) -> std::io::Result<fs::File> {
        fs::create_dir_all(&self.out_dir)?;
        fs::File::create(self.out_dir.join(name))
    }

    /// Writes rows to a CSV file, logging the path.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        match self.csv(name) {
            Ok(mut f) => {
                let _ = writeln!(f, "{header}");
                for row in rows {
                    let _ = writeln!(f, "{row}");
                }
                println!("  [written: {}]", self.out_dir.join(name).display());
            }
            Err(e) => eprintln!("  [warning: could not write {name}: {e}]"),
        }
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats throughput for tables (matches the paper's "el/s" columns).
pub fn fmt_els(v: f64) -> String {
    if v >= 1.0e6 {
        format!("{:.2}M el/s", v / 1.0e6)
    } else if v >= 10_000.0 {
        format!("{:.0}k el/s", v / 1_000.0)
    } else {
        format!("{v:.0} el/s")
    }
}

/// Summary row used by several figures.
pub struct RunSummary {
    /// Scenario label.
    pub label: String,
    /// Elements added.
    pub added: u64,
    /// Elements committed by the end of the run.
    pub committed: u64,
    /// Average committed throughput over the injection window.
    pub avg_throughput: f64,
    /// Peak smoothed throughput.
    pub peak_throughput: f64,
    /// Efficiency at the three (scaled) checkpoints.
    pub efficiency: [f64; 3],
    /// Wall-clock runtime of the simulation.
    pub wall: std::time::Duration,
}

/// Builds the summary of one run, using the scaled checkpoints of `ctx`.
pub fn summarize(ctx: &ExperimentCtx, result: &RunResult) -> RunSummary {
    let injection = ctx.injection_secs();
    let series = ThroughputSeries::compute(
        &result.trace,
        9,
        result.finished_at.max(SimTime::from_secs(injection)),
    );
    let added = result.added.max(1);
    let [c1, c2, c3] = ctx.checkpoints();
    let eff = |s: u64| result.trace.committed_count_by(SimTime::from_secs(s)) as f64 / added as f64;
    RunSummary {
        label: result.scenario.label.clone(),
        added: result.added,
        committed: result.committed,
        avg_throughput: result.average_throughput(injection),
        peak_throughput: series.peak(),
        efficiency: [eff(c1), eff(c2), eff(c3)],
        wall: result.wall,
    }
}

/// Prints a standard summary table for a set of runs.
pub fn print_summary_table(ctx: &ExperimentCtx, summaries: &[RunSummary]) {
    let [c1, c2, c3] = ctx.checkpoints();
    println!(
        "{:<28} {:>9} {:>9} {:>14} {:>14} {:>7} {:>7} {:>7} {:>9}",
        "scenario",
        "added",
        "committed",
        "avg tput",
        "peak tput",
        format!("eff@{c1}s"),
        format!("eff@{c2}s"),
        format!("eff@{c3}s"),
        "wall"
    );
    for s in summaries {
        println!(
            "{:<28} {:>9} {:>9} {:>14} {:>14} {:>7.2} {:>7.2} {:>7.2} {:>8.1}s",
            s.label,
            s.added,
            s.committed,
            fmt_els(s.avg_throughput),
            fmt_els(s.peak_throughput),
            s.efficiency[0],
            s.efficiency[1],
            s.efficiency[2],
            s.wall.as_secs_f64(),
        );
    }
}

/// CSV rows for a summary table.
pub fn summary_csv_rows(summaries: &[RunSummary]) -> Vec<String> {
    summaries
        .iter()
        .map(|s| {
            format!(
                "{},{},{},{:.1},{:.1},{:.4},{:.4},{:.4},{:.2}",
                s.label.replace(',', ";"),
                s.added,
                s.committed,
                s.avg_throughput,
                s.peak_throughput,
                s.efficiency[0],
                s.efficiency[1],
                s.efficiency[2],
                s.wall.as_secs_f64()
            )
        })
        .collect()
}

/// Header matching [`summary_csv_rows`].
pub const SUMMARY_CSV_HEADER: &str =
    "label,added,committed,avg_throughput,peak_throughput,eff_c1,eff_c2,eff_c3,wall_secs";

/// Resolve an output path for documentation purposes.
pub fn out_path(ctx: &ExperimentCtx, name: &str) -> String {
    Path::new(&ctx.out_dir).join(name).display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_and_checkpoints() {
        let ctx = ExperimentCtx {
            scale: 1.0,
            out_dir: PathBuf::from("/tmp/x"),
        };
        assert_eq!(ctx.injection_secs(), 50);
        assert_eq!(ctx.checkpoints(), [50, 75, 100]);
        assert_eq!(ctx.max_run_secs(), 300);
        let quarter = ExperimentCtx {
            scale: 0.25,
            out_dir: PathBuf::from("/tmp/x"),
        };
        assert_eq!(quarter.injection_secs(), 13);
        assert_eq!(quarter.checkpoints(), [13, 19, 26]);
    }

    #[test]
    fn scenario_scaling_applies() {
        let ctx = ExperimentCtx {
            scale: 0.5,
            out_dir: PathBuf::from("/tmp/x"),
        };
        let s = ctx.scenario(Algorithm::Hashchain);
        assert_eq!(s.injection_secs, 25);
        assert_eq!(s.max_run_secs, 150);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_els(950.0), "950 el/s");
        assert_eq!(fmt_els(27_157.0), "27k el/s");
        assert_eq!(fmt_els(30.0e6), "30.00M el/s");
    }
}
