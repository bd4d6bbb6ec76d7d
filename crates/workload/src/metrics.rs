//! Metrics derived from a run: throughput over time (Fig. 1, Fig. 2 left),
//! efficiency (Fig. 3), commit-time percentiles (Fig. 5) and the per-stage
//! latency CDF (Fig. 4).

use setchain::trace::ElementRecord;
use setchain::SetchainTrace;
use setchain_ledger::LedgerTrace;
use setchain_simnet::SimTime;

/// Throughput over time: committed elements per second, smoothed with a
/// rolling window (the paper plots a 9-second rolling average).
#[derive(Clone, Debug)]
pub struct ThroughputSeries {
    /// `(time in seconds, committed elements per second)` samples, one per
    /// second of simulated time.
    pub samples: Vec<(f64, f64)>,
    /// Window length in seconds used for smoothing.
    pub window_secs: u64,
}

impl ThroughputSeries {
    /// Computes the series from a trace, sampling every second up to `until`.
    pub fn compute(trace: &SetchainTrace, window_secs: u64, until: SimTime) -> Self {
        assert!(window_secs >= 1, "window must be at least one second");
        let records = trace.element_records();
        let horizon = until.as_secs_f64().ceil() as u64;
        // Commits bucketed per second.
        let mut per_second = vec![0u64; (horizon + 1) as usize];
        for r in &records {
            if let Some(t) = r.committed_at {
                let s = t.as_secs_f64().floor() as u64;
                if s <= horizon {
                    per_second[s as usize] += 1;
                }
            }
        }
        let mut samples = Vec::with_capacity(horizon as usize + 1);
        for s in 0..=horizon {
            let lo = s.saturating_sub(window_secs - 1);
            let count: u64 = per_second[lo as usize..=s as usize].iter().sum();
            let span = (s - lo + 1) as f64;
            samples.push((s as f64, count as f64 / span));
        }
        ThroughputSeries {
            samples,
            window_secs,
        }
    }

    /// Highest smoothed throughput observed.
    pub fn peak(&self) -> f64 {
        self.samples.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }
}

/// The paper's efficiency metric: committed elements divided by added
/// elements, evaluated at 1×, 1.5× and 2× the injection window (the paper's
/// 50, 75 and 100 s for its 50 s window).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Efficiency {
    /// Committed ÷ added at each of [`Efficiency::checkpoints`].
    pub values: [f64; 3],
}

impl Efficiency {
    /// The checkpoints in seconds for an injection window of `w` seconds:
    /// `[w, w + w / 2, 2 w]`.
    pub fn checkpoints(injection_secs: u64) -> [u64; 3] {
        let w = injection_secs;
        [w, w + w / 2, 2 * w]
    }

    /// Computes the efficiency values of a run that injected for
    /// `injection_secs`.
    pub fn compute(trace: &SetchainTrace, injection_secs: u64) -> Self {
        let added = trace.added_count().max(1) as f64;
        let values = Self::checkpoints(injection_secs)
            .map(|secs| trace.honest_committed_count_by(SimTime::from_secs(secs)) as f64 / added);
        Efficiency { values }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted` values, nearest rank
/// rounded; `None` when there are none.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    Some(sorted[(last as f64 * q.clamp(0.0, 1.0)).round() as usize])
}

/// Commit-time milestones (Fig. 5 / Appendix F): when the first element and
/// the 10%…50% fractions of all added elements had committed.
#[derive(Clone, Debug)]
pub struct CommitTimes {
    /// Commit time of the first element to commit, in seconds.
    pub first: Option<f64>,
    /// `(fraction, time in seconds)` pairs for 10%, 20%, 30%, 40%, 50%.
    /// `None` when that fraction never committed within the run.
    pub fractions: Vec<(f64, Option<f64>)>,
}

impl CommitTimes {
    /// Computes the milestones from a trace.
    pub fn compute(trace: &SetchainTrace) -> Self {
        let records = trace.element_records();
        let total = records.len();
        let mut commit_times: Vec<f64> = records
            .iter()
            .filter_map(|r| r.committed_at.map(|t| t.as_secs_f64()))
            .collect();
        commit_times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let first = commit_times.first().copied();
        let fractions = [0.1, 0.2, 0.3, 0.4, 0.5]
            .iter()
            .map(|&frac| {
                let needed = (total as f64 * frac).ceil() as usize;
                let time = if needed == 0 || commit_times.len() < needed {
                    None
                } else {
                    Some(commit_times[needed - 1])
                };
                (frac, time)
            })
            .collect();
        CommitTimes { first, fractions }
    }
}

/// Latencies of one element through the five stages of Fig. 4.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSample {
    /// Add → first CometBFT mempool.
    pub first_mempool: Option<f64>,
    /// Add → f+1 mempools.
    pub quorum_mempools: Option<f64>,
    /// Add → all mempools.
    pub all_mempools: Option<f64>,
    /// Add → included in a ledger block.
    pub ledger: Option<f64>,
    /// Add → epoch has f+1 epoch-proofs (committed).
    pub committed: Option<f64>,
}

/// Per-stage latency distributions (Fig. 4). Requires a run with the
/// detailed trace enabled.
#[derive(Clone, Debug, Default)]
pub struct StageLatencies {
    /// One sample per element that reached at least the first stage.
    pub samples: Vec<StageSample>,
}

impl StageLatencies {
    /// Joins the Setchain trace with the ledger trace. `f` is the Setchain
    /// fault bound and `n` the number of servers.
    pub fn compute(trace: &SetchainTrace, ledger_trace: &LedgerTrace, f: usize, n: usize) -> Self {
        let records: Vec<ElementRecord> = trace.element_records();
        let mut samples = Vec::with_capacity(records.len());
        for r in &records {
            let Some(tx) = trace.tx_of(&r.id) else {
                continue;
            };
            let rel = |t: Option<SimTime>| t.map(|t| (t - r.added_at).as_secs_f64());
            samples.push(StageSample {
                first_mempool: rel(ledger_trace.first_mempool(&tx)),
                quorum_mempools: rel(ledger_trace.kth_mempool(&tx, f + 1)),
                all_mempools: rel(ledger_trace.kth_mempool(&tx, n)),
                ledger: rel(ledger_trace.ledger_time(&tx)),
                committed: rel(r.committed_at),
            });
        }
        StageLatencies { samples }
    }

    /// Empirical CDF of one stage: the sorted latencies (x values for a CDF
    /// plot with `y = i / len`). Elements that never reached the stage are
    /// excluded.
    pub fn cdf(&self, stage: impl Fn(&StageSample) -> Option<f64>) -> Vec<f64> {
        let mut values: Vec<f64> = self.samples.iter().filter_map(stage).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        values
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of a stage's latency, if any element
    /// reached it.
    pub fn quantile(&self, stage: impl Fn(&StageSample) -> Option<f64>, q: f64) -> Option<f64> {
        quantile(&self.cdf(stage), q)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use setchain::collector::Batch;
    use setchain::{Element, ElementId};
    use setchain_crypto::ProcessId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn id(i: u64) -> ElementId {
        ElementId::new(0, i)
    }

    /// An epoch's `G` holding the elements with sequence numbers `seqs`.
    fn g(seqs: impl IntoIterator<Item = u64>) -> Arc<Batch> {
        let elements = seqs
            .into_iter()
            .map(|i| Element::forged(ProcessId::client(0), id(i), 100))
            .collect();
        Arc::new(Batch::new(elements, Vec::new()))
    }

    /// Builds a trace where `count` elements are added at 1 el/s starting at
    /// t=0 and each commits exactly `delay_s` later.
    fn uniform_trace(count: u64, delay_s: u64) -> SetchainTrace {
        let trace = SetchainTrace::new();
        for i in 0..count {
            trace.record_add(id(i), SimTime::from_secs(i));
            trace.record_epoch(i + 1, &g([i]));
            trace.record_epoch_commit(i + 1, SimTime::from_secs(i + delay_s));
        }
        trace
    }

    #[test]
    fn throughput_series_reports_steady_rate() {
        let trace = uniform_trace(60, 2);
        let series = ThroughputSeries::compute(&trace, 9, SimTime::from_secs(70));
        // Steady state: one element committed per second.
        let steady: Vec<f64> = series
            .samples
            .iter()
            .filter(|(t, _)| (20.0..=50.0).contains(t))
            .map(|&(_, v)| v)
            .collect();
        let steady = steady.iter().sum::<f64>() / steady.len() as f64;
        assert!((steady - 1.0).abs() < 0.2, "steady={steady}");
        assert!(series.peak() >= 1.0);
        assert_eq!(series.window_secs, 9);
        assert!(!series.samples.is_empty());
    }

    #[test]
    fn efficiency_counts_committed_fraction() {
        // 100 elements added at t<50; half commit before 50 s, the rest at 80.
        let trace = SetchainTrace::new();
        for i in 0..100u64 {
            trace.record_add(id(i), t(i * 100));
            trace.record_epoch(i + 1, &g([i]));
            let commit = if i < 50 {
                t(i * 100 + 500)
            } else {
                SimTime::from_secs(80)
            };
            trace.record_epoch_commit(i + 1, commit);
        }
        assert_eq!(Efficiency::checkpoints(50), [50, 75, 100]);
        assert_eq!(Efficiency::checkpoints(13), [13, 19, 26]);
        let [at_50s, at_75s, at_100s] = Efficiency::compute(&trace, 50).values;
        assert!((at_50s - 0.5).abs() < 0.01);
        assert!((at_100s - 1.0).abs() < 1e-9);
        assert!(at_75s < at_100s + 1e-9);
    }

    #[test]
    fn commit_times_milestones() {
        let trace = uniform_trace(100, 3);
        let ct = CommitTimes::compute(&trace);
        // First element added at 0 commits at 3 s.
        assert_eq!(ct.first, Some(3.0));
        // 10% (10th element, added at t=9) commits at 12 s.
        let ten_pct = ct.fractions[0].1.unwrap();
        assert!((ten_pct - 12.0).abs() < 1.01, "{ten_pct}");
        // 50% commits later than 10%.
        assert!(ct.fractions[4].1.unwrap() > ten_pct);
    }

    #[test]
    fn commit_times_with_nothing_committed() {
        let trace = SetchainTrace::new();
        trace.record_add(id(1), t(0));
        let ct = CommitTimes::compute(&trace);
        assert_eq!(ct.first, None);
        assert!(ct.fractions.iter().all(|(_, t)| t.is_none()));
    }

    #[test]
    fn stage_latencies_join_setchain_and_ledger_traces() {
        use setchain_ledger::TxId;
        let trace = SetchainTrace::detailed();
        let ledger = LedgerTrace::new();
        let n = 4;
        for i in 0..10u64 {
            let added = t(i * 100);
            trace.record_add(id(i), added);
            trace.record_tx_assignment(id(i), TxId(i as u128));
            for v in 0..n {
                ledger.record_mempool_arrival(
                    TxId(i as u128),
                    ProcessId::server(v),
                    added + setchain_simnet::SimDuration::from_millis(10 * (v as u64 + 1)),
                );
            }
            ledger.record_commit(
                TxId(i as u128),
                1,
                added + setchain_simnet::SimDuration::from_millis(1_000),
            );
        }
        trace.record_epoch(1, &g(0..10));
        trace.record_epoch_commit(1, t(5_000));
        let stages = StageLatencies::compute(&trace, &ledger, 1, n);
        assert_eq!(stages.samples.len(), 10);
        let first = stages.quantile(|s| s.first_mempool, 0.5).unwrap();
        let quorum = stages.quantile(|s| s.quorum_mempools, 0.5).unwrap();
        let all = stages.quantile(|s| s.all_mempools, 0.5).unwrap();
        let ledger_q = stages.quantile(|s| s.ledger, 0.5).unwrap();
        let committed = stages.quantile(|s| s.committed, 0.5).unwrap();
        assert!(first <= quorum && quorum <= all, "{first} {quorum} {all}");
        assert!(all <= ledger_q && ledger_q <= committed);
        assert_eq!(stages.cdf(|s| s.first_mempool).len(), 10);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let trace = SetchainTrace::new();
        let _ = ThroughputSeries::compute(&trace, 0, SimTime::from_secs(1));
    }
}
