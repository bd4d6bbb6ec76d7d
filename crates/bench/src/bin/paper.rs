//! Regenerates `PAPER_RESULTS.md` at the repository root: the analytic,
//! smoke and full sections of the paper scorecard (see the crate docs).
//! A change's sim-clock result is the file's diff:
//!
//! ```sh
//! cargo run --release -p setchain-bench --bin paper && git diff --exit-code PAPER_RESULTS.md
//! ```

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PAPER_RESULTS.md");
    let text = setchain_bench::analytic_section()
        + &setchain_bench::smoke_section()
        + &setchain_bench::full_section();
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote PAPER_RESULTS.md");
}
