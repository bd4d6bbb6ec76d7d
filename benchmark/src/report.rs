//! The metric definitions (one table, shared by the printer, the JSON
//! writers and the tests that hold `BENCHMARK.json` to it) and the
//! hand-written JSON the harness emits.

use crate::run::RunOutput;
use crate::stats;

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees, on both clocks. Wall-clock metrics carry
/// host noise and get wide bounds; sim-time metrics repeat exactly at a
/// given seed, so their bounds only have to cover the seed-to-seed spread.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_commit_eps", "el/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
    e2e("sim_commit_eps", "el/s", "higher", 0.01),
    e2e("sim_latency_p50_ms", "ms", "lower", 0.02),
    e2e("sim_latency_p99_ms", "ms", "lower", 0.02),
];

/// Single-layer metrics (layer = crate name). Counts are exact; `*_ns`,
/// `*_us`, `*_s` and rates come from the traced run's replay.
pub const PER_LAYER: [Metric; 61] = [
    layer("simnet.events", "count", "lower"),
    layer("simnet.deferred", "count", "lower"),
    layer("simnet.delivered_msgs", "count", "lower"),
    layer("simnet.bytes_per_elem", "B", "lower"),
    layer("simnet.dropped", "count", "lower"),
    layer("simnet.ns_per_event", "ns", "lower"),
    layer("simnet.busy_s", "s", "lower"),
    layer("ledger.blocks", "count", "lower"),
    layer("ledger.txs", "count", "lower"),
    layer("ledger.txs_per_block", "count", "higher"),
    layer("ledger.bytes_per_elem", "B", "lower"),
    layer("ledger.round_timeouts", "count", "lower"),
    layer("ledger.mempool_rejected", "count", "lower"),
    layer("ledger.mempool_wait_p50_ms", "ms", "lower"),
    layer("ledger.busy_s", "s", "lower"),
    layer("crypto.mac_verifies", "count", "lower"),
    layer("crypto.mac_verify_ns", "ns", "lower"),
    layer("crypto.sha512_mb_s", "MB/s", "higher"),
    layer("crypto.sign_ns", "ns", "lower"),
    layer("crypto.verify_ns", "ns", "lower"),
    layer("crypto.merkle_ns_per_elem", "ns", "lower"),
    layer("crypto.busy_s", "s", "lower"),
    layer("compress.batches", "count", "lower"),
    layer("compress.in_bytes", "B", "lower"),
    layer("compress.ratio", "ratio", "higher"),
    layer("compress.compress_mb_s", "MB/s", "higher"),
    layer("compress.decompress_mb_s", "MB/s", "higher"),
    layer("compress.busy_s", "s", "lower"),
    layer("setchain.adds_accepted", "count", "higher"),
    layer("setchain.adds_rejected_quota", "count", "lower"),
    layer("setchain.adds_rejected_duplicate", "count", "lower"),
    layer("setchain.adds_rejected_invalid", "count", "lower"),
    layer("setchain.cache_hit_ratio", "ratio", "higher"),
    layer("setchain.batches_flushed", "count", "lower"),
    layer("setchain.epochs", "count", "lower"),
    layer("setchain.elems_per_epoch", "count", "higher"),
    layer("setchain.proofs_received", "count", "lower"),
    layer("setchain.batch_requests_sent", "count", "lower"),
    layer("setchain.batch_requests_failed", "count", "lower"),
    layer("setchain.validate_ns_per_elem", "ns", "lower"),
    layer("setchain.epoch_hash_ns_per_elem", "ns", "lower"),
    layer("setchain.batch_hash_ns_per_elem", "ns", "lower"),
    layer("setchain.collector_ns_per_elem", "ns", "lower"),
    layer("setchain.quota_admit_ns", "ns", "lower"),
    layer("setchain.verify_epoch_ns", "ns", "lower"),
    layer("setchain.stage_ledger_p50_ms", "ms", "lower"),
    layer("setchain.stage_commit_p50_ms", "ms", "lower"),
    layer("setchain.busy_s", "s", "lower"),
    layer("store.epochs_persisted", "count", "lower"),
    layer("store.bytes", "B", "lower"),
    layer("store.append_us_p50", "us", "lower"),
    layer("store.append_us_p99", "us", "lower"),
    layer("store.busy_s", "s", "lower"),
    layer("store.reopen_s", "s", "lower"),
    layer("store.load_epoch_us", "us", "lower"),
    layer("workload.generate_ns_per_elem", "ns", "lower"),
    layer("workload.busy_s", "s", "lower"),
    layer("workload.sim_over_4s_share", "ratio", "lower"),
    layer("workload.failed_share", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.attributed_share", "ratio", "higher"),
];

/// A metric's values over the runs of one workload.
#[derive(Clone, Debug)]
pub struct Summary {
    pub metric: Metric,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub runs: usize,
}

/// Summarizes `metric` over `runs`; `None` if a run did not report it.
pub fn summarize(metric: Metric, runs: &[RunOutput]) -> Option<Summary> {
    let values: Vec<f64> = runs
        .iter()
        .map(|r| r.get(metric.name))
        .collect::<Option<_>>()?;
    let (q1, median, q3) = stats::quartiles(&values);
    Some(Summary {
        metric,
        q1,
        median,
        q3,
        runs: values.len(),
    })
}

/// A JSON number with all its digits. Rust prints the shortest decimal that
/// round-trips, never an exponent, so the output is valid JSON as is.
pub fn num(value: f64) -> String {
    assert!(value.is_finite(), "metrics are finite");
    format!("{value}")
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One workload's block of `results.json`.
pub fn workload_json(
    name: &str,
    fingerprint: &str,
    end_to_end: &[Summary],
    per_layer: &[(Metric, f64)],
) -> String {
    let e2e: Vec<String> = end_to_end
        .iter()
        .map(|s| {
            format!(
                "        \"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"runs\": {}, \"unit\": \"{}\"}}",
                s.metric.name,
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.runs,
                s.metric.unit
            )
        })
        .collect();
    let layers: Vec<String> = per_layer
        .iter()
        .map(|(m, v)| {
            format!(
                "        \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "    \"{name}\": {{\n      \"fingerprint\": \"{fingerprint}\",\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// `BENCHMARK.json`, generated from the tables above so the two cannot
/// drift (`benchmark definition > BENCHMARK.json`; a unit test compares).
pub fn definition_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                num(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    /// A JSON reader just big enough to check what the harness writes:
    /// objects, arrays, strings without escapes, numbers, `true`/`false`/
    /// `null`. Returns the flattened `path → scalar text` pairs.
    pub fn parse_json(text: &str) -> Result<Vec<(String, String)>, String> {
        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
            if b.get(*i) != Some(&b'"') {
                return Err(format!("expected string at {i}"));
            }
            let start = *i + 1;
            let len = b[start..]
                .iter()
                .position(|c| *c == b'"')
                .ok_or("unterminated string")?;
            *i = start + len + 1;
            Ok(String::from_utf8_lossy(&b[start..start + len]).into_owned())
        }
        fn value(
            b: &[u8],
            i: &mut usize,
            path: &str,
            out: &mut Vec<(String, String)>,
        ) -> Result<(), String> {
            ws(b, i);
            match b.get(*i) {
                Some(b'{') => {
                    *i += 1;
                    ws(b, i);
                    if b.get(*i) == Some(&b'}') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        ws(b, i);
                        let key = string(b, i)?;
                        ws(b, i);
                        if b.get(*i) != Some(&b':') {
                            return Err(format!("expected ':' at {i}"));
                        }
                        *i += 1;
                        value(b, i, &format!("{path}/{key}"), out)?;
                        ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b'}') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or '}}' at {i}")),
                        }
                    }
                }
                Some(b'[') => {
                    *i += 1;
                    ws(b, i);
                    if b.get(*i) == Some(&b']') {
                        *i += 1;
                        return Ok(());
                    }
                    for index in 0.. {
                        value(b, i, &format!("{path}/{index}"), out)?;
                        ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b']') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or ']' at {i}")),
                        }
                    }
                    unreachable!()
                }
                Some(b'"') => {
                    let s = string(b, i)?;
                    out.push((path.to_string(), s));
                    Ok(())
                }
                Some(_) => {
                    let start = *i;
                    while *i < b.len()
                        && !matches!(b[*i], b',' | b'}' | b']')
                        && !b[*i].is_ascii_whitespace()
                    {
                        *i += 1;
                    }
                    let token = String::from_utf8_lossy(&b[start..*i]).into_owned();
                    if !matches!(token.as_str(), "true" | "false" | "null")
                        && token.parse::<f64>().is_err()
                    {
                        return Err(format!("bad scalar {token:?} at {start}"));
                    }
                    out.push((path.to_string(), token));
                    Ok(())
                }
                None => Err("unexpected end".into()),
            }
        }
        let bytes = text.as_bytes();
        let (mut i, mut out) = (0, Vec::new());
        value(bytes, &mut i, "", &mut out)?;
        ws(bytes, &mut i);
        if i != bytes.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(out)
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_contract_counts() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn emitted_json_parses_back() {
        let line = result_line(
            500_000,
            0,
            &[(END_TO_END[0], 0.012345678901), (END_TO_END[1], 98765.4321)],
        );
        let flat = parse_json(&line).expect("result line is JSON");
        assert!(flat.contains(&("/correct".into(), "true".into())));
        assert!(flat.contains(&("/attempted".into(), "500000".into())));
        assert!(flat.contains(&("/metrics/setup_s/value".into(), "0.012345678901".into())));
        assert!(flat.contains(&("/metrics/wall_commit_eps/unit".into(), "el/s".into())));

        let mut run = RunOutput::default();
        run.put("setup_s", 0.5);
        let summary = summarize(END_TO_END[0], &[run.clone(), run]).expect("reported");
        let block = workload_json(
            "hash_steady",
            "events=1",
            &[summary],
            &[(PER_LAYER[0], 12.0)],
        );
        let flat = parse_json(&format!("{{\n{block}\n}}")).expect("workload block is JSON");
        assert!(flat.contains(&("/hash_steady/end_to_end/setup_s/runs".into(), "2".into())));
        assert!(flat.contains(&(
            "/hash_steady/per_layer/simnet.events/value".into(),
            "12".into()
        )));
    }

    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let flat = parse_json(&text).expect("BENCHMARK.json is JSON");
        let get = |key: &str| flat.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        let top: BTreeSet<&str> = flat
            .iter()
            .filter_map(|(k, _)| k.split('/').nth(1))
            .collect();
        let expected = [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ];
        assert_eq!(top, BTreeSet::from(expected));
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(get(&format!("/workloads/{i}/name")), Some(w.name));
            assert_eq!(get(&format!("/workloads/{i}/why")), Some(w.why));
        }
        assert_eq!(get(&format!("/workloads/{}/name", WORKLOADS.len())), None);
        for (i, m) in END_TO_END.iter().enumerate() {
            assert_eq!(get(&format!("/end_to_end/{i}/name")), Some(m.name));
            assert_eq!(get(&format!("/end_to_end/{i}/unit")), Some(m.unit));
            assert_eq!(get(&format!("/end_to_end/{i}/better")), Some(m.better));
            let bound: f64 = get(&format!("/end_to_end/{i}/bound"))
                .expect("bound")
                .parse()
                .unwrap();
            assert_eq!(bound, m.bound, "bound of {}", m.name);
        }
        assert_eq!(get(&format!("/end_to_end/{}/name", END_TO_END.len())), None);
        for (i, m) in PER_LAYER.iter().enumerate() {
            assert_eq!(get(&format!("/per_layer/{i}/name")), Some(m.name));
            assert_eq!(get(&format!("/per_layer/{i}/unit")), Some(m.unit));
            assert_eq!(get(&format!("/per_layer/{i}/better")), Some(m.better));
        }
        assert_eq!(get(&format!("/per_layer/{}/name", PER_LAYER.len())), None);
        assert_eq!(get("/paths/0"), Some("benchmark"));
    }
}
