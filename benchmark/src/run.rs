//! One measured run: build the deployment (timed → `setup_s`), drive the
//! simulation to its end under one clock (the only timed window), then —
//! after the clock has stopped — check the output and compute every metric.
//!
//! A run is always a fresh child process of the harness (`benchmark
//! run-one`), so peak RSS and allocator state belong to that run alone.

use std::path::{Path, PathBuf};

use setchain_crypto::Sha256;
use setchain_simnet::SimTime;
use setchain_workload::Deployment;

use crate::replay;
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::Workload;

/// The paper's finality claim: an element is final within 4 s of its add.
const FINALITY_LIMIT_MS: f64 = 4000.0;

/// Deployments built per run; `setup_s` is the median build time and the
/// last one built is the one that runs. Set-up is tens of milliseconds, so
/// one sample per run would mostly measure scheduler noise.
const SETUP_REPEATS: usize = 21;

/// What a run reports: named values plus the determinism fingerprint.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    pub values: Vec<(String, f64)>,
    pub fingerprint: String,
}

impl RunOutput {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn put(&mut self, name: &str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric {name} emitted twice");
        self.values.push((name.to_string(), value));
    }

    /// The line protocol between a `run-one` child and the harness.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            out.push_str(&format!("v {name} {value}\n"));
        }
        out.push_str(&format!("fp {}\n", self.fingerprint));
        out
    }

    /// Parses [`Self::to_lines`]; lines of any other shape are ignored.
    pub fn from_lines(text: &str) -> Option<RunOutput> {
        let mut out = RunOutput::default();
        for line in text.lines() {
            let mut parts = line.split(' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("v"), Some(name), Some(value)) => {
                    out.values.push((name.to_string(), value.parse().ok()?));
                }
                (Some("fp"), Some(fp), None) => out.fingerprint = fp.to_string(),
                _ => {}
            }
        }
        (!out.fingerprint.is_empty()).then_some(out)
    }
}

/// A directory under `benchmark/out` that is removed when the run ends,
/// whether it ends by return, by failed check or by panic.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(out_dir: &Path) -> std::io::Result<Self> {
        let path = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Exact counters read off the finished deployment, summed over servers
/// unless noted. Every per-layer count and every `busy_s` derives from these.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub servers: u64,
    pub added: u64,
    pub committed: u64,
    /// Elements in server 0's epochs (honest plus the attacker's admitted).
    pub history_elements: u64,
    pub epochs: u64,
    pub events: u64,
    pub mac_verifies: u64,
    pub cache_hits: u64,
    pub adds_accepted: u64,
    pub adds_rejected_quota: u64,
    pub batches_flushed: u64,
    pub epochs_created: u64,
    pub proofs_received: u64,
    pub attacker_sent: u64,
}

/// Runs the output checks every run must pass. Any failure is an error
/// naming the violated property.
fn check_output(w: &Workload, d: &Deployment, c: &Counts) -> Result<(), String> {
    let n = w.servers;
    for i in 0..n {
        let state = d.server(i).state();
        if !state.check_consistent_sets() {
            return Err(format!("server {i}: check_consistent_sets failed"));
        }
        if !state.check_unique_epoch() {
            return Err(format!("server {i}: check_unique_epoch failed"));
        }
        for j in i + 1..n {
            if !state.check_consistent_with(d.server(j).state()) {
                return Err(format!("servers {i} and {j} disagree on an epoch"));
            }
        }
    }
    let s0 = d.server(0).state();
    let quorum = d.config.f + 1;
    for epoch in 1..=s0.epoch() {
        let committed = d.trace.epoch_committed_at(epoch).is_some();
        if committed && s0.proof_count(epoch) < quorum {
            return Err(format!(
                "epoch {epoch} is committed with fewer than f+1 proofs"
            ));
        }
    }
    if c.committed == 0 {
        return Err("nothing committed".into());
    }
    if c.committed > c.added {
        return Err(format!("committed {} > added {}", c.committed, c.added));
    }
    if w.flood {
        if d.honest_rejections() != 0 {
            return Err(format!("{} honest adds were shed", d.honest_rejections()));
        }
        if c.adds_rejected_quota == 0 {
            return Err("the flood was not shed".into());
        }
        // Shed traffic must cost zero MACs: each server verifies each
        // distinct admitted element exactly once.
        if c.mac_verifies != c.servers * c.history_elements {
            return Err(format!(
                "mac_verifies {} != servers {} x admitted {}",
                c.mac_verifies, c.servers, c.history_elements
            ));
        }
    }
    Ok(())
}

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub quick: bool,
    /// Traced run: `.detailed()` traces on, then the per-layer replay.
    pub detailed: bool,
    /// Stop after the set-up phase and report `setup_s` alone.
    pub setup_only: bool,
}

/// Executes one run of `w`. With `opts.detailed` the spans are written to
/// `out_dir/trace-<workload>.json`.
pub fn run_one(w: &Workload, opts: RunOpts, out_dir: &Path) -> Result<RunOutput, String> {
    let scratch = ScratchDir::new(out_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let mut tracer = Tracer::new();
    let root = tracer.begin("run", "workload");

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for i in 0..SETUP_REPEATS {
        drop(built.take()); // closes the previous deployment's store files first
        let store_dir = scratch.0.join(format!("store-{i}"));
        if w.store {
            // The builder opens `{dir}/server-{index}`. Making the directories
            // is journalled metadata I/O whose cost swings by a third between
            // runs on the reference host; made before the clock starts, what
            // is timed is opening an empty store, which repeats.
            for server in 0..w.servers {
                std::fs::create_dir_all(store_dir.join(format!("server-{server}")))
                    .map_err(|e| format!("store dir: {e}"))?;
            }
        }
        let span = tracer.begin("deployment_build", "workload");
        let deployment = w
            .builder(
                opts.seed,
                opts.quick,
                opts.detailed,
                &store_dir.to_string_lossy(),
            )
            .build();
        setups.push(tracer.end(span, 1));
        built = Some(deployment);
    }
    let mut d = built.expect("SETUP_REPEATS >= 1");
    let mut out = RunOutput::default();
    out.put("setup_s", stats::median(&setups));
    if opts.setup_only {
        out.fingerprint = "setup-only".into();
        return Ok(out);
    }

    let end = SimTime::from_secs(w.end_secs(opts.quick));
    let span = tracer.begin("run_until", "simnet");
    d.sim.run_until(end);
    let events = d.sim.events_processed();
    let wall_s = tracer.end(span, events);
    let rss = peak_rss_mb();

    // ---- the clock has stopped; everything below is untimed. The run
    // stopped at `end`, so every recorded commit is at or before it. ----
    let records = d.trace.element_records();
    let mut latency_ms: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            r.committed_at
                .map(|t| (t - r.added_at).as_micros() as f64 / 1e3)
        })
        .collect();
    stats::sort(&mut latency_ms);
    let added = records.len() as u64;
    let committed = latency_ms.len() as u64;

    let n = w.servers;
    let mut c = Counts {
        servers: n as u64,
        added,
        committed,
        history_elements: d.server(0).state().history_elements(),
        epochs: d.server(0).state().epoch(),
        events,
        attacker_sent: d.adversary().map_or(0, |a| a.sent()),
        ..Counts::default()
    };
    let (mut rejected_dup, mut rejected_invalid, mut requests_sent, mut requests_failed) =
        (0, 0, 0, 0);
    let (mut epochs_persisted, mut store_bytes) = (0, 0);
    let (mut round_timeouts, mut mempool_rejected) = (0, 0);
    for i in 0..n {
        let server = d.server(i);
        for cache in server.core().admission_caches() {
            c.cache_hits += cache.hits();
            c.mac_verifies += cache.misses();
        }
        let s = server.stats();
        c.adds_accepted += s.adds_accepted;
        c.adds_rejected_quota += s.adds_rejected_quota;
        c.batches_flushed += s.batches_flushed;
        c.epochs_created += s.epochs_created;
        c.proofs_received += s.proofs_received;
        rejected_dup += s.adds_rejected_duplicate;
        rejected_invalid += s.adds_rejected_invalid;
        requests_sent += s.batch_requests_sent;
        requests_failed += s.batch_requests_failed;
        epochs_persisted += s.epochs_persisted;
        store_bytes += s.store_bytes;
        let node = server.node().stats();
        round_timeouts += node.round_timeouts;
        mempool_rejected += node.mempool_rejected();
    }
    check_output(w, &d, &c)?;

    // End to end.
    out.put("wall_s", wall_s);
    out.put("wall_commit_eps", committed as f64 / wall_s);
    out.put("peak_rss_mb", rss);
    let first_add = records.iter().map(|r| r.added_at).min().expect("added > 0");
    let last_commit = records
        .iter()
        .filter_map(|r| r.committed_at)
        .max()
        .expect("committed > 0");
    out.put(
        "sim_commit_eps",
        committed as f64 / (last_commit - first_add).as_secs_f64(),
    );
    let tail = stats::highest_percentile(latency_ms.len());
    if tail < Some(99.0) {
        return Err(format!("{committed} latency samples cannot support a p99"));
    }
    out.put("sim_latency_p50_ms", stats::percentile(&latency_ms, 50.0));
    out.put("sim_latency_p99_ms", stats::percentile(&latency_ms, 99.0));
    out.put("sim_latency_samples", committed as f64);
    let over = latency_ms
        .iter()
        .filter(|l| **l > FINALITY_LIMIT_MS)
        .count() as u64
        + (added - committed);
    out.put("workload.sim_over_4s_share", over as f64 / added as f64);
    out.put(
        "workload.failed_share",
        (added - committed) as f64 / added as f64,
    );
    out.put("attempted", added as f64);
    out.put("failed", (added - committed) as f64);

    // Per-layer counts, exact, from the run's public counters.
    let per_elem = |x: u64| x as f64 / c.history_elements.max(1) as f64;
    let net = d.sim.network();
    out.put("simnet.events", events as f64);
    out.put("simnet.deferred", d.sim.messages_deferred() as f64);
    out.put("simnet.delivered_msgs", net.delivered() as f64);
    out.put("simnet.bytes_per_elem", per_elem(net.bytes_sent()));
    out.put(
        "simnet.dropped",
        (net.dropped() + d.sim.dropped_crashed()) as f64,
    );
    let node0 = d.server(0).node().stats();
    out.put("ledger.blocks", node0.blocks_committed as f64);
    out.put("ledger.txs", node0.txs_committed as f64);
    out.put(
        "ledger.txs_per_block",
        node0.txs_committed as f64 / node0.blocks_committed.max(1) as f64,
    );
    out.put("ledger.round_timeouts", round_timeouts as f64);
    out.put("ledger.mempool_rejected", mempool_rejected as f64);
    out.put("crypto.mac_verifies", c.mac_verifies as f64);
    out.put("setchain.adds_accepted", c.adds_accepted as f64);
    out.put("setchain.adds_rejected_quota", c.adds_rejected_quota as f64);
    out.put("setchain.adds_rejected_duplicate", rejected_dup as f64);
    out.put("setchain.adds_rejected_invalid", rejected_invalid as f64);
    out.put(
        "setchain.cache_hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.mac_verifies).max(1) as f64,
    );
    out.put("setchain.batches_flushed", c.batches_flushed as f64);
    out.put("setchain.epochs", c.epochs as f64);
    out.put(
        "setchain.elems_per_epoch",
        c.history_elements as f64 / c.epochs.max(1) as f64,
    );
    out.put("setchain.proofs_received", c.proofs_received as f64);
    out.put("setchain.batch_requests_sent", requests_sent as f64);
    out.put("setchain.batch_requests_failed", requests_failed as f64);
    out.put("store.epochs_persisted", epochs_persisted as f64);
    out.put("store.bytes", store_bytes as f64);

    // Same seed ⇒ same schedule: two runs whose fingerprints differ are a
    // broken oracle, whatever their metrics say.
    let mut digests = Sha256::new();
    let s0 = d.server(0).state();
    for epoch in 1..=s0.epoch() {
        digests.update(s0.epoch_digest(epoch).expect("epoch recorded").as_bytes());
    }
    out.fingerprint = format!(
        "events={events},deferred={},added={added},committed={committed},digests={:016x}",
        d.sim.messages_deferred(),
        digests.finalize().short()
    );

    if opts.detailed {
        replay::traced_metrics(w, opts, &d, &c, &scratch.0, &mut tracer, &mut out);
        tracer.end(root, 1);
        let path = out_dir.join(format!("trace-{}.json", w.name));
        let json = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"quick\": {},\n  \"spans\": {}\n}}\n",
            w.name,
            opts.seed,
            opts.quick,
            tracer.to_json()
        );
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let mut out = RunOutput::default();
        out.put("wall_commit_eps", 123456.789012345);
        out.put("simnet.events", 4_000_001.0);
        out.fingerprint = "events=1,deferred=2,added=3,committed=3,digests=00ff".into();
        let text = format!("noise before\n{}trailing noise\n", out.to_lines());
        let back = RunOutput::from_lines(&text).expect("parses");
        assert_eq!(back.values, out.values);
        assert_eq!(back.fingerprint, out.fingerprint);
        assert!(
            RunOutput::from_lines("v a 1\n").is_none(),
            "no fingerprint, no result"
        );
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/scratch-test");
        let path = {
            let scratch = ScratchDir::new(&base).unwrap();
            std::fs::write(scratch.0.join("f"), b"x").unwrap();
            scratch.0.clone()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(base);
    }
}
