//! Runs a deployment to completion and collects the results.

use std::time::Instant;

use setchain_simnet::{SimDuration, SimTime};

use crate::deploy::Deployment;

/// The outcome of running one deployment.
pub struct RunResult {
    /// The deployment as the run left it, for reading its traces and server
    /// state (the Setchain property checker, heights, compression ratios)
    /// afterwards.
    pub deployment: Deployment,
    /// Elements added by the clients.
    pub added: u64,
    /// Of those, the elements whose epoch reached `f + 1` proofs by the end
    /// of the run. An adversary's or a scripted session's elements count in
    /// neither.
    pub committed: u64,
    /// Simulated time at which the run stopped.
    pub finished_at: SimTime,
    /// Simulated time at which the last element committed (if all did).
    pub all_committed_at: Option<SimTime>,
    /// Messages dropped by random loss during the run.
    pub dropped_loss: u64,
    /// Messages dropped by an active network partition.
    pub dropped_partition: u64,
    /// Messages dropped because the recipient was crashed at delivery time.
    pub dropped_crashed: u64,
    /// Wall-clock time the simulation took.
    pub wall: std::time::Duration,
}

impl RunResult {
    /// Fraction of added elements committed by the end of the run.
    pub fn final_efficiency(&self) -> f64 {
        if self.added == 0 {
            return 1.0;
        }
        self.committed as f64 / self.added as f64
    }

    /// Total messages dropped for any reason (loss, partition, crashed
    /// recipient).
    pub fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_partition + self.dropped_crashed
    }

    /// Average committed throughput of the clients' elements over the first
    /// `secs` seconds of the run (the paper's Table 2 reports this for the
    /// first 50 s).
    pub fn average_throughput(&self, secs: u64) -> f64 {
        let committed = self
            .deployment
            .trace
            .honest_committed_count_by(SimTime::from_secs(secs));
        committed as f64 / secs as f64
    }
}

/// Runs a built deployment until every added element has committed (checked
/// after the injection period) or its scenario's `max_run_secs` elapses.
/// [`DeploymentBuilder::run`](crate::DeploymentBuilder::run) builds and
/// runs in one call.
pub fn run_deployment(mut deployment: Deployment) -> RunResult {
    let start = Instant::now();
    let check_interval = SimDuration::from_secs(5);
    let injection_end = SimTime::from_secs(deployment.scenario.injection_secs);
    let limit = SimTime::from_secs(deployment.scenario.max_run_secs);

    let mut now = SimTime::ZERO;
    let mut all_committed_at: Option<SimTime> = None;
    while now < limit {
        let next = (now + check_interval).min(limit);
        deployment.sim.run_until(next);
        now = next;
        if now > injection_end {
            let added = deployment.trace.added_count();
            let committed = deployment.trace.honest_committed_count_by(now);
            if added > 0 && committed >= added {
                all_committed_at = Some(now);
                break;
            }
        }
    }

    let added = deployment.trace.added_count() as u64;
    let committed = deployment.trace.honest_committed_count_by(now) as u64;
    RunResult {
        added,
        committed,
        finished_at: now,
        all_committed_at,
        dropped_loss: deployment.sim.network().dropped_loss(),
        dropped_partition: deployment.sim.network().dropped_partition(),
        dropped_crashed: deployment.sim.dropped_crashed(),
        wall: start.elapsed(),
        deployment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain::Algorithm;

    #[test]
    fn small_hashchain_run_completes_and_reports() {
        let result = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(300.0)
            .collector(50)
            .injection_secs(5)
            .max_run_secs(60)
            .seed(11)
            .run();
        assert!(result.added > 1_000, "added={}", result.added);
        assert!(
            result.final_efficiency() > 0.95,
            "efficiency={}",
            result.final_efficiency()
        );
        assert!(result.all_committed_at.is_some());
        assert!(result.average_throughput(20) > 0.0);
        assert!(result.finished_at <= SimTime::from_secs(60));
    }

    #[test]
    fn small_vanilla_run_completes() {
        let result = Deployment::builder(Algorithm::Vanilla)
            .servers(4)
            .rate(100.0)
            .injection_secs(5)
            .max_run_secs(90)
            .seed(12)
            .run();
        assert!(result.added > 400);
        assert!(
            result.final_efficiency() > 0.95,
            "efficiency={}",
            result.final_efficiency()
        );
    }

    #[test]
    fn small_compresschain_run_completes() {
        let result = Deployment::builder(Algorithm::Compresschain)
            .servers(4)
            .rate(300.0)
            .collector(50)
            .injection_secs(5)
            .max_run_secs(90)
            .seed(13)
            .run();
        assert!(result.added > 1_000);
        assert!(
            result.final_efficiency() > 0.95,
            "efficiency={}",
            result.final_efficiency()
        );
    }

    #[test]
    fn overloaded_vanilla_does_not_commit_everything_in_time() {
        // Vanilla's analytical limit is under 1 000 el/s; at 4 000 el/s with a
        // short run it must fall behind (this is the stress the paper shows in
        // Fig. 1 left).
        let result = Deployment::builder(Algorithm::Vanilla)
            .servers(4)
            .rate(4_000.0)
            .injection_secs(5)
            .max_run_secs(20)
            .seed(14)
            .run();
        assert!(
            result.final_efficiency() < 0.9,
            "vanilla should be stressed"
        );
    }
}
