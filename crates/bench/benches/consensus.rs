//! End-to-end simulation benchmarks: how much wall-clock time the simulator
//! needs per committed block / per committed element for small deployments.
//! These bound the cost of the figure-regeneration experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setchain::Algorithm;
use setchain_simnet::SimTime;
use setchain_workload::Deployment;

/// Builds and runs a small deployment for `sim_secs` simulated seconds and
/// returns the number of committed elements (to keep the optimizer honest).
fn run_small(algorithm: Algorithm, servers: usize, rate: f64, sim_secs: u64) -> usize {
    let mut deployment = Deployment::builder(algorithm)
        .servers(servers)
        .rate(rate)
        .collector(50)
        .injection_secs(sim_secs.saturating_sub(2).max(1))
        .max_run_secs(sim_secs)
        .seed(99)
        .build();
    deployment.sim.run_until(SimTime::from_secs(sim_secs));
    deployment
        .trace
        .committed_count_by(SimTime::from_secs(sim_secs))
}

fn bench_ledger_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulated_deployment");
    group.sample_size(10);
    for &(algorithm, rate) in &[
        (Algorithm::Vanilla, 100.0),
        (Algorithm::Compresschain, 500.0),
        (Algorithm::Hashchain, 500.0),
    ] {
        group.bench_with_input(
            BenchmarkId::new("4_servers_5s", algorithm.name()),
            &(algorithm, rate),
            |b, &(algorithm, rate)| {
                b.iter(|| {
                    let committed = run_small(algorithm, 4, rate, 5);
                    assert!(committed > 0, "{algorithm} committed nothing");
                    committed
                })
            },
        );
    }
    group.finish();
}

fn bench_cluster_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_size");
    group.sample_size(10);
    for servers in [4usize, 7, 10] {
        group.bench_with_input(
            BenchmarkId::new("hashchain_5s", servers),
            &servers,
            |b, &servers| b.iter(|| run_small(Algorithm::Hashchain, servers, 500.0, 5)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ledger_round, bench_cluster_sizes);
criterion_main!(benches);
