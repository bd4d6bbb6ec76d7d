//! Ablation bench for the design choice the paper identifies as Hashchain's
//! bottleneck: the hash-reversal service. Compares a short Hashchain run with
//! hash-reversal enabled against the "light" configuration (no reversal, no
//! hash-batch validation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setchain::Algorithm;
use setchain_simnet::SimTime;
use setchain_workload::{Deployment, DeploymentBuilder};

fn committed(builder: &DeploymentBuilder, sim_secs: u64) -> usize {
    let mut deployment = builder.clone().build();
    deployment.sim.run_until(SimTime::from_secs(sim_secs));
    deployment
        .trace
        .committed_count_by(SimTime::from_secs(sim_secs))
}

fn bench_hash_reversal_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_reversal_ablation");
    group.sample_size(10);
    let base = || {
        Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(2_000.0)
            .collector(100)
            .injection_secs(4)
            .max_run_secs(6)
            .seed(123)
    };
    let full = base().label("hash-reversal on");
    let light = base().light().label("hash-reversal off (light)");
    for builder in [full, light] {
        group.bench_with_input(
            BenchmarkId::new("6s_run", builder.scenario().label.clone()),
            &builder,
            |b, s| {
                b.iter(|| {
                    let n = committed(s, 6);
                    assert!(n > 0);
                    n
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_hash_reversal_ablation);
criterion_main!(benches);
