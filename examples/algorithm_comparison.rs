//! Side-by-side comparison of the three Setchain algorithms on the same
//! workload — a miniature version of the paper's Fig. 1 that runs in a few
//! seconds. The loop body is identical for every algorithm: the variant is a
//! value handed to the deployment builder, never a type.
//!
//! ```sh
//! cargo run --release -p setchain-bench --example algorithm_comparison
//! ```

use setchain::Algorithm;
use setchain_workload::{analysis::AnalysisParams, Deployment, ThroughputSeries};

fn main() {
    let rate = 3_000.0;
    let collector = 100;
    println!(
        "Workload: {rate} el/s for 10 s, 4 servers, collector = {collector}, block = 0.5 MB @ 0.8 blocks/s\n"
    );
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>16}",
        "algorithm", "added", "committed", "avg el/s", "peak el/s", "analytical el/s"
    );
    for algorithm in Algorithm::ALL {
        let result = Deployment::builder(algorithm)
            .label(format!("{algorithm} comparison"))
            .servers(4)
            .rate(rate)
            .collector(collector)
            .injection_secs(10)
            .max_run_secs(60)
            .seed(9)
            .run();
        let series = ThroughputSeries::compute(&result.trace, 9, result.finished_at);
        let analytical = AnalysisParams::default()
            .with_servers(4)
            .with_collector(collector)
            .throughput(algorithm);
        println!(
            "{:<14} {:>10} {:>10} {:>12.0} {:>12.0} {:>16.0}",
            algorithm.name(),
            result.added,
            result.committed,
            result.average_throughput(10),
            series.peak(),
            analytical
        );
    }
    println!("\nExpected ordering (paper): Hashchain > Compresschain > Vanilla, with Vanilla and");
    println!("Compresschain saturating well below the sending rate and Hashchain keeping up.");
}
