//! The benchmark `BENCHMARK.json` defines. See `README.md` for the two
//! clocks, the workloads and every metric's definition.
//!
//! ```text
//! benchmark [--seed S] [--workload NAME] [--runs N] [--quick] [--selfcheck]
//!     every workload (or one): N measured runs plus a traced run each,
//!     every metric printed as `workload metric value unit`,
//!     results in benchmark/out/results.json
//! benchmark --workload NAME --seed S --seconds T --trace 0|1
//!     the driver's contract: measure for T seconds, last line is the result
//! benchmark determinism --algorithm A --servers N --rate R --secs T [--seed S]
//!     run one shape twice and diff the fingerprints
//! benchmark definition
//!     print BENCHMARK.json from the metric tables
//! benchmark run-one NAME --seed S [--quick] [--detailed | --setup-only]
//!     one run in this process (what the harness spawns)
//! ```

mod replay;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Metric, Summary, END_TO_END, PER_LAYER};
use run::{RunOpts, RunOutput};
use setchain::Algorithm;
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;

/// Measured runs per workload when `--runs` is not given.
const DEFAULT_RUNS: usize = 5;

/// Processes `setup_s` is sampled in, per workload and invocation.
const SETUP_PROCESSES: usize = 9;

/// `benchmark/out` of the checkout the command runs in, else of the
/// checkout the binary was built in.
fn out_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Command-line flags: `--name value` pairs, bare `--switches` and
/// positional words.
struct Args {
    words: Vec<String>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.words.iter().position(|w| w == flag)?;
        self.words.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse {text:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.words.iter().any(|w| w == flag)
    }
}

/// Runs `w` once in a fresh child process and parses what it reports.
fn spawn_run(w: &Workload, opts: RunOpts) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run-one", w.name, "--seed", &opts.seed.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    }
    if opts.detailed {
        cmd.arg("--detailed");
    }
    if opts.setup_only {
        cmd.arg("--setup-only");
    }
    // `output` waits for the child, so no process outlives the harness.
    let child = cmd.output().map_err(|e| format!("spawn run-one: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    if !child.status.success() {
        return Err(format!(
            "{}: run failed ({}): {}",
            w.name,
            child.status,
            String::from_utf8_lossy(&child.stderr).trim()
        ));
    }
    RunOutput::from_lines(&stdout).ok_or_else(|| format!("{}: run printed no result", w.name))
}

/// The determinism gate: same seed, same schedule. Names the workload when
/// two runs of it disagree.
fn gate(workload: &str, runs: &[RunOutput]) -> Result<(), String> {
    match runs.iter().find(|r| r.fingerprint != runs[0].fingerprint) {
        None => Ok(()),
        Some(other) => Err(format!(
            "determinism gate: two same-seed runs of {workload} differ:\n  {}\n  {}",
            runs[0].fingerprint, other.fingerprint
        )),
    }
}

/// When to stop repeating a workload's measured run.
#[derive(Clone, Copy)]
enum Until {
    Runs(usize),
    /// Until the timed windows add up to this many seconds.
    WallSeconds(f64),
}

/// Everything measured for one workload at one seed.
struct Measured {
    workload: &'static Workload,
    plain: Vec<RunOutput>,
    end_to_end: Vec<Summary>,
    /// Empty unless the traced run was made.
    per_layer: Vec<(Metric, f64)>,
}

fn measure(
    w: &'static Workload,
    seed: u64,
    quick: bool,
    until: Until,
    traced: bool,
) -> Result<Measured, String> {
    let opts = RunOpts {
        seed,
        quick,
        detailed: false,
        setup_only: false,
    };
    let mut plain = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let run = spawn_run(w, opts)?;
        measured_s += run.get("wall_s").ok_or("run reported no wall_s")?;
        plain.push(run);
        let done = match until {
            Until::Runs(n) => plain.len() >= n,
            Until::WallSeconds(s) => measured_s >= s,
        };
        if done {
            break;
        }
    }
    gate(w.name, &plain)?;
    // Set-up takes tens of microseconds and a whole process can land in a
    // slow mode (half again as long, on the reference host), so it is
    // sampled in more processes than the long runs alone provide.
    let mut setup_runs = plain.clone();
    while setup_runs.len() < SETUP_PROCESSES {
        setup_runs.push(spawn_run(
            w,
            RunOpts {
                setup_only: true,
                ..opts
            },
        )?);
    }
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let runs = if m.name == "setup_s" {
                &setup_runs
            } else {
                &plain
            };
            report::summarize(*m, runs).ok_or_else(|| format!("{}: no {}", w.name, m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut per_layer = Vec::new();
    if traced {
        let detailed = spawn_run(
            w,
            RunOpts {
                detailed: true,
                ..opts
            },
        )?;
        // `.detailed()` must not move the schedule either.
        gate(w.name, &[plain[0].clone(), detailed.clone()])?;
        let walls: Vec<f64> = plain.iter().filter_map(|r| r.get("wall_s")).collect();
        let traced_wall = detailed
            .get("wall_s")
            .ok_or("traced run reported no wall_s")?;
        let overhead = traced_wall / stats::median(&walls) - 1.0;
        for m in PER_LAYER {
            let value = match m.name {
                "trace.overhead_share" => overhead,
                name => detailed
                    .get(name)
                    .ok_or_else(|| format!("{}: traced run has no {name}", w.name))?,
            };
            per_layer.push((m, value));
        }
    }
    Ok(Measured {
        workload: w,
        plain,
        end_to_end,
        per_layer,
    })
}

impl Measured {
    fn print(&self) {
        let name = self.workload.name;
        for s in &self.end_to_end {
            println!(
                "{name} {} {} {} (q1 {} q3 {} runs {})",
                s.metric.name,
                report::num(s.median),
                s.metric.unit,
                report::num(s.q1),
                report::num(s.q3),
                s.runs
            );
        }
        let samples = self.plain[0].get("sim_latency_samples").unwrap_or(0.0);
        println!("{name} sim_latency_samples {samples} count");
        for (m, v) in &self.per_layer {
            println!("{name} {} {} {}", m.name, report::num(*v), m.unit);
        }
    }

    fn counts(&self) -> (u64, u64) {
        let get = |k| self.plain[0].get(k).unwrap_or(0.0) as u64;
        (get("attempted"), get("failed"))
    }
}

/// One pass over the selected workloads: measure, trace, print, and check
/// what only shows across workloads.
fn full_set(
    selected: &[&'static Workload],
    seed: u64,
    quick: bool,
    runs: usize,
) -> Result<Vec<Measured>, String> {
    let mut set = Vec::new();
    for &w in selected {
        eprintln!("[{}: {runs} run(s) + traced run, seed {seed}]", w.name);
        let measured = measure(w, seed, quick, Until::Runs(runs), true)?;
        measured.print();
        set.push(measured);
    }
    // Store I/O happens on the host, outside simulated time: the persisting
    // twin must run the very same schedule.
    let fingerprint = |name: &str| {
        set.iter()
            .find(|m| m.workload.name == name)
            .map(|m| &m.plain[0].fingerprint)
    };
    if let (Some(steady), Some(store)) = (fingerprint("hash_steady"), fingerprint("hash_store")) {
        if steady != store {
            return Err(format!(
                "hash_store and hash_steady differ:\n  {steady}\n  {store}"
            ));
        }
    }
    Ok(set)
}

fn write_results(set: &[Measured], seed: u64, quick: bool) -> Result<(), String> {
    let blocks: Vec<String> = set
        .iter()
        .map(|m| {
            report::workload_json(
                m.workload.name,
                &m.plain[0].fingerprint,
                &m.end_to_end,
                &m.per_layer,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \"host_cores\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        std::thread::available_parallelism().map_or(1, usize::from),
        blocks.join(",\n")
    );
    let path = out_dir().join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[written: {}]", path.display());
    Ok(())
}

/// A/A: two passes of the same code must agree within the benchmark's own
/// bounds; whatever is simulated or counted must agree exactly.
fn selfcheck(first: &[Measured], second: &[Measured]) -> Result<(), String> {
    let mut failures = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let name = a.workload.name;
        for (sa, sb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let m = sa.metric;
            let worse = if m.better == "lower" {
                sb.median / sa.median - 1.0
            } else {
                1.0 - sb.median / sa.median
            };
            let exact = m.name.starts_with("sim_");
            let ok = if exact {
                sa.median == sb.median
            } else {
                worse.abs() <= m.bound
            };
            println!(
                "selfcheck {name} {} first {} second {} diff {:+.4} bound {} {}",
                m.name,
                report::num(sa.median),
                report::num(sb.median),
                worse,
                if exact {
                    "exact".to_string()
                } else {
                    report::num(m.bound)
                },
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                failures.push(format!("{name} {}", m.name));
            }
        }
        for ((m, va), (_, vb)) in a.per_layer.iter().zip(&b.per_layer) {
            if m.unit == "count" && va != vb {
                println!("selfcheck {name} {} first {va} second {vb} FAIL", m.name);
                failures.push(format!("{name} {}", m.name));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "selfcheck: outside bounds: {}",
            failures.join(", ")
        ))
    }
}

/// `benchmark determinism`: one free-form shape, run twice in this process.
fn determinism(args: &Args) -> Result<(), String> {
    let algorithm = match args.value("--algorithm").map(str::to_lowercase).as_deref() {
        Some("vanilla") => Algorithm::Vanilla,
        Some("compresschain") => Algorithm::Compresschain,
        Some("hashchain") => Algorithm::Hashchain,
        other => {
            return Err(format!(
                "--algorithm: expected vanilla|compresschain|hashchain, got {other:?}"
            ))
        }
    };
    let servers = args.parsed("--servers")?.ok_or("--servers is required")?;
    let rate = args.parsed("--rate")?.ok_or("--rate is required")?;
    let secs = args.parsed("--secs")?.ok_or("--secs is required")?;
    let seed = args.parsed("--seed")?.unwrap_or(7);
    let w = workloads::custom(algorithm, servers, rate, secs);
    let opts = RunOpts {
        seed,
        quick: false,
        detailed: false,
        setup_only: false,
    };
    let runs = [
        run::run_one(&w, opts, &out_dir())?,
        run::run_one(&w, opts, &out_dir())?,
    ];
    for r in &runs {
        println!("{}", r.fingerprint);
    }
    gate(
        &format!("{algorithm} n={servers} rate={rate} secs={secs}"),
        &runs,
    )?;
    println!("deterministic");
    Ok(())
}

/// The driver's contract (see `BENCHMARK.json`).
fn contract(args: &Args, seconds: f64) -> Result<(), String> {
    let w = Workload::find(
        args.value("--workload")
            .ok_or("--seconds needs --workload")?,
    )?;
    let seed = args.parsed("--seed")?.unwrap_or(7);
    let trace = args.parsed::<u8>("--trace")?.unwrap_or(0) == 1;
    // The traced run's end-to-end side only anchors `trace.overhead_share`.
    let until = if trace {
        Until::Runs(1)
    } else {
        Until::WallSeconds(seconds)
    };
    let measured = measure(w, seed, args.has("--quick"), until, trace)?;
    measured.print();
    let metrics: Vec<(Metric, f64)> = if trace {
        measured.per_layer.clone()
    } else {
        measured
            .end_to_end
            .iter()
            .map(|s| (s.metric, s.median))
            .collect()
    };
    let (attempted, failed) = measured.counts();
    println!("{}", report::result_line(attempted, failed, &metrics));
    Ok(())
}

fn dispatch(args: &Args) -> Result<(), String> {
    match args.words.first().map(String::as_str) {
        Some("run-one") => {
            let w = Workload::find(args.words.get(1).ok_or("run-one needs a workload")?)?;
            let opts = RunOpts {
                seed: args.parsed("--seed")?.unwrap_or(7),
                quick: args.has("--quick"),
                detailed: args.has("--detailed"),
                setup_only: args.has("--setup-only"),
            };
            print!("{}", run::run_one(w, opts, &out_dir())?.to_lines());
            return Ok(());
        }
        Some("determinism") => return determinism(args),
        Some("definition") => {
            println!("{}", report::definition_json(RUN_SECONDS));
            return Ok(());
        }
        _ => {}
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    if let Some(seconds) = args.parsed("--seconds")? {
        return contract(args, seconds);
    }
    let seed = args.parsed("--seed")?.unwrap_or(7);
    let quick = args.has("--quick");
    let runs = args
        .parsed("--runs")?
        .unwrap_or(if quick { 1 } else { DEFAULT_RUNS });
    let selected: Vec<&'static Workload> = match args.value("--workload") {
        Some(name) => vec![Workload::find(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let first = full_set(&selected, seed, quick, runs)?;
    write_results(&first, seed, quick)?;
    if args.has("--selfcheck") {
        let second = full_set(&selected, seed, quick, runs)?;
        selfcheck(&first, &second)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = Args {
        words: std::env::args().skip(1).collect(),
    };
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(fingerprint: &str) -> RunOutput {
        RunOutput {
            values: Vec::new(),
            fingerprint: fingerprint.to_string(),
        }
    }

    #[test]
    fn gate_passes_equal_fingerprints_and_names_the_workload_otherwise() {
        assert!(gate(
            "hash_steady",
            &[run("events=1"), run("events=1"), run("events=1")]
        )
        .is_ok());
        let err = gate(
            "hash_steady",
            &[run("events=1"), run("events=1"), run("events=2")],
        )
        .unwrap_err();
        assert!(
            err.contains("hash_steady") && err.contains("events=2"),
            "{err}"
        );
    }

    #[test]
    fn flags_parse() {
        let args = Args {
            words: [
                "--workload",
                "hash_flood",
                "--seed",
                "11",
                "--quick",
                "--runs",
            ]
            .map(String::from)
            .to_vec(),
        };
        assert_eq!(args.value("--workload"), Some("hash_flood"));
        assert_eq!(args.parsed::<u64>("--seed"), Ok(Some(11)));
        assert_eq!(args.parsed::<u64>("--seconds"), Ok(None));
        assert!(
            args.parsed::<usize>("--runs").is_err(),
            "a flag without its value is an error"
        );
        assert!(args.has("--quick") && !args.has("--selfcheck"));
        assert!(Workload::find("hash_flood").is_ok() && Workload::find("hash_n7").is_err());
    }
}
