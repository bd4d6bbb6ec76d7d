//! Integration tests for the block-based-ledger properties the Setchain
//! algorithms rely on (Section 2, Properties 9-11), observed through full
//! Setchain deployments, plus end-to-end latency/finality checks.

use setchain::Algorithm;
use setchain_simnet::SimTime;
use setchain_workload::{
    check_setchain_invariants, metrics::StageLatencies, Deployment, Efficiency, ThroughputSeries,
};

#[test]
fn ledger_notifies_all_servers_consistently() {
    // Property 10: all correct servers see the same blocks in the same order.
    // Observed through the Setchain state: identical epoch sequences (tested
    // in setchain_properties.rs) plus identical ledger heights here.
    for algorithm in Algorithm::ALL {
        let mut deployment = Deployment::builder(algorithm)
            .servers(4)
            .rate(200.0)
            .collector(25)
            .injection_secs(4)
            .max_run_secs(30)
            .seed(50)
            .build();
        deployment.sim.run_until(SimTime::from_secs(30));
        check_setchain_invariants(&deployment).expect("Setchain properties");
        let heights: Vec<u64> = (0..4).map(|i| deployment.server(i).height()).collect();
        let min = *heights.iter().min().unwrap();
        let max = *heights.iter().max().unwrap();
        assert!(
            min > 5,
            "{algorithm}: blocks were produced (heights {heights:?})"
        );
        assert!(
            max - min <= 1,
            "{algorithm}: correct servers stay within one height of each other ({heights:?})"
        );
    }
}

#[test]
fn ledger_add_eventually_notifies_and_commits() {
    // Property 9 end-to-end: elements appended by correct servers end up in
    // blocks and the epochs commit.
    let result = Deployment::builder(Algorithm::Compresschain)
        .servers(4)
        .rate(300.0)
        .collector(30)
        .injection_secs(4)
        .max_run_secs(60)
        .seed(51)
        .run();
    check_setchain_invariants(&result.deployment).expect("Setchain properties");
    assert!(result.added > 1_000);
    assert!(
        result.final_efficiency() > 0.95,
        "eff={}",
        result.final_efficiency()
    );
    assert!(result.all_committed_at.is_some());
}

#[test]
fn commit_latency_is_a_few_seconds_at_low_rate() {
    // Fig. 4's headline: at a non-saturating rate, Compresschain and
    // Hashchain reach finality (f+1 epoch-proofs) within a few seconds.
    for algorithm in [Algorithm::Compresschain, Algorithm::Hashchain] {
        let result = Deployment::builder(algorithm)
            .servers(4)
            .rate(500.0)
            .collector(100)
            .injection_secs(6)
            .max_run_secs(60)
            .seed(52)
            .detailed()
            .run();
        check_setchain_invariants(&result.deployment).expect("Setchain properties");
        let stages = StageLatencies::compute(
            &result.deployment.trace,
            &result.deployment.ledger_trace,
            1,
            4,
        );
        let median = stages
            .quantile(|s| s.committed, 0.5)
            .expect("median commit latency");
        let p90 = stages
            .quantile(|s| s.committed, 0.9)
            .expect("p90 commit latency");
        assert!(
            median < 8.0,
            "{algorithm}: median commit latency {median:.1}s unexpectedly high"
        );
        assert!(p90 < 15.0, "{algorithm}: p90 commit latency {p90:.1}s");
        // Stage ordering: mempool <= ledger <= committed.
        let mempool = stages.quantile(|s| s.first_mempool, 0.5).unwrap();
        let ledger = stages.quantile(|s| s.ledger, 0.5).unwrap();
        assert!(mempool <= ledger && ledger <= median);
    }
}

#[test]
fn throughput_ordering_matches_the_paper() {
    // The headline qualitative result: at a rate that saturates Vanilla and
    // Compresschain, committed throughput orders Hashchain > Compresschain >
    // Vanilla, and Hashchain keeps up with the sending rate.
    let rate = 3_000.0;
    let injection = 8u64;
    // Committed throughput over a steady-state window that excludes the first
    // few seconds, so the commit-pipeline fill (the paper's sub-4-second
    // finality latency) does not dominate the short test window the way it
    // cannot dominate the paper's 50-second measurements.
    let sustained = |result: &setchain_workload::RunResult| {
        let from = SimTime::from_secs(4);
        let to = SimTime::from_secs(injection + 4);
        let window = (injection + 4 - 4) as f64;
        (result.deployment.trace.committed_count_by(to)
            - result.deployment.trace.committed_count_by(from)) as f64
            / window
    };
    let mut measured = Vec::new();
    for algorithm in Algorithm::ALL {
        let result = Deployment::builder(algorithm)
            .servers(4)
            .rate(rate)
            .collector(100)
            .injection_secs(injection)
            .max_run_secs(40)
            .seed(53)
            .run();
        check_setchain_invariants(&result.deployment).expect("Setchain properties");
        measured.push((
            algorithm,
            result.average_throughput(injection),
            sustained(&result),
        ));
    }
    let get = |a: Algorithm| *measured.iter().find(|(x, _, _)| *x == a).unwrap();
    let (_, vanilla, vanilla_sustained) = get(Algorithm::Vanilla);
    let (_, compress, _) = get(Algorithm::Compresschain);
    let (_, hash, hash_sustained) = get(Algorithm::Hashchain);
    assert!(
        hash > compress && compress > vanilla,
        "ordering violated: vanilla={vanilla:.0} compress={compress:.0} hash={hash:.0}"
    );
    assert!(
        hash_sustained > 0.7 * rate,
        "Hashchain should keep up with {rate} el/s (sustained {hash_sustained:.0})"
    );
    assert!(
        vanilla_sustained < 0.5 * rate,
        "Vanilla should saturate well below {rate} el/s (sustained {vanilla_sustained:.0})"
    );
}

#[test]
fn efficiency_improves_when_collector_grows() {
    // Fig. 3's qualitative effect for Compresschain under stress: a larger
    // collector (fewer, bigger batches) does not hurt and typically helps.
    let efficiency_with_collector = |c: usize| {
        let result = Deployment::builder(Algorithm::Compresschain)
            .servers(4)
            .rate(2_500.0)
            .collector(c)
            .injection_secs(8)
            .max_run_secs(24)
            .seed(54)
            .run();
        check_setchain_invariants(&result.deployment).expect("Setchain properties");
        Efficiency::compute(&result.deployment.trace, 8).values
    };
    let small = efficiency_with_collector(100);
    let large = efficiency_with_collector(500);
    assert!(small[2] > 0.0, "c=100 committed nothing by 16 s: {small:?}");
    assert!(
        large[2] >= small[2] * 0.9,
        "larger collector should not collapse efficiency (c=100: {small:?}, c=500: {large:?})"
    );
}

#[test]
fn network_delay_reduces_but_does_not_break_efficiency() {
    // Fig. 3c: added WAN-like delay lowers efficiency but the system still
    // commits everything given time.
    let run_with_delay = |ms: u64| {
        let result = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(1_000.0)
            .collector(100)
            .delay_ms(ms)
            .injection_secs(6)
            .max_run_secs(60)
            .seed(55)
            .run();
        check_setchain_invariants(&result.deployment).expect("Setchain properties");
        result
    };
    let fast = run_with_delay(0);
    let slow = run_with_delay(100);
    assert!(fast.final_efficiency() > 0.95);
    assert!(
        slow.final_efficiency() > 0.9,
        "eff={}",
        slow.final_efficiency()
    );
    // Commits finish no earlier with the extra delay.
    let fast_done = fast.all_committed_at.expect("fast run finished");
    let slow_done = slow.all_committed_at.expect("slow run finished");
    assert!(slow_done >= fast_done);
}

#[test]
fn throughput_series_is_monotone_in_cumulative_commits() {
    let result = Deployment::builder(Algorithm::Hashchain)
        .servers(4)
        .rate(500.0)
        .collector(50)
        .injection_secs(5)
        .max_run_secs(30)
        .seed(56)
        .run();
    check_setchain_invariants(&result.deployment).expect("Setchain properties");
    let series = ThroughputSeries::compute(&result.deployment.trace, 9, result.finished_at);
    // The series integrates (approximately) to the number of committed
    // elements: cumulative commits computed two ways must agree.
    let commits_from_trace = result.committed as f64;
    let per_second: f64 = {
        // The unsmoothed sum of commits equals the total.
        let records = result.deployment.trace.element_records();
        records.iter().filter(|r| r.committed_at.is_some()).count() as f64
    };
    assert_eq!(commits_from_trace, per_second);
    assert!(series.peak() > 0.0);
}
