//! The committed `PAPER_RESULTS.md` stays what the code writes: its
//! analytic and smoke sections are regenerated here and compared byte for
//! byte. The full section is the `paper` bin's to regenerate
//! (`cargo run --release -p setchain-bench --bin paper`).

#[test]
fn analytic_and_smoke_sections_match_the_committed_file() {
    let committed = include_str!("../PAPER_RESULTS.md");
    let regenerated = setchain_bench::analytic_section() + &setchain_bench::smoke_section();
    assert_eq!(
        committed.get(..regenerated.len()),
        Some(regenerated.as_str()),
        "PAPER_RESULTS.md is stale: rerun the paper bin and commit the file"
    );
}
