//! Drives the built binary the way a user and the driver do, at `--quick`
//! scale (every workload at 1/20 length, one run, every check on).

use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "hash_steady",
    "comp_codec",
    "vanilla_n4",
    "hash_store",
    "hash_flood",
];

fn benchmark(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn quick_pass_prints_every_metric_of_every_workload() {
    let (ok, stdout, stderr) = benchmark(&["--quick", "--seed", "7"]);
    assert!(ok, "quick pass failed: {stderr}");
    for workload in WORKLOADS {
        for metric in [
            "setup_s",
            "wall_commit_eps",
            "sim_latency_p99_ms",
            "simnet.events",
            "trace.attributed_share",
        ] {
            let prefix = format!("{workload} {metric} ");
            let line = stdout.lines().find(|l| l.starts_with(&prefix));
            let line = line.unwrap_or_else(|| panic!("no line for {prefix}"));
            let mut words = line[prefix.len()..].split(' ');
            let value: f64 = words.next().unwrap().parse().expect("value is a number");
            assert!(value.is_finite());
            assert!(words.next().is_some(), "unit follows the value: {line}");
        }
    }
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    assert!(out.join("results.json").is_file());
    for workload in WORKLOADS {
        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json")))
            .expect("trace file");
        for layer in [
            "simnet", "ledger", "crypto", "compress", "setchain", "workload",
        ] {
            assert!(
                trace.contains(&format!("\"layer\": \"{layer}\"")),
                "{workload}: no {layer} span"
            );
        }
        assert_eq!(
            trace.contains("\"layer\": \"store\""),
            workload == "hash_store"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "store scratch directories left behind: {leftovers:?}"
    );
}

fn contract_mode_ends_with_the_result_line() {
    for (trace, expected) in [("0", "\"setup_s\""), ("1", "\"store.busy_s\"")] {
        let args = [
            "--workload",
            "hash_flood",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ];
        let (ok, stdout, stderr) = benchmark(&args);
        assert!(ok, "contract run failed: {stderr}");
        let last = stdout.lines().last().expect("prints a result");
        assert!(
            last.starts_with(
                "{\"correct\": true, \"attempted\": 25000, \"failed\": 0, \"metrics\": {"
            ),
            "{last}"
        );
        assert!(last.contains(expected), "{last}");
        assert_eq!(last.contains("\"wall_commit_eps\""), trace == "0");
    }
}

fn unknown_workload_is_an_error() {
    let (ok, stdout, stderr) = benchmark(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(stdout.is_empty());
    assert!(stderr.contains("unknown workload"));
}

/// One test, three steps in order: the steps share `benchmark/out`, so they
/// must not run on parallel test threads.
#[test]
fn smoke() {
    quick_pass_prints_every_metric_of_every_workload();
    contract_mode_ends_with_the_result_line();
    unknown_workload_is_an_error();
}
