//! Pins Table 2's PE, link and cost columns: every allocator speed-up
//! claims it leaves them unchanged, and these tests hold it to that.
//!
//! The expected figures are the rows of EXPERIMENTS.md's "in-place
//! allocation attempts" table, without and with dynamic reconfiguration.
//! A1TR and VDRTX run with the tier-1 tests; the other six are slow in
//! an unoptimized build and run with
//! `cargo test --release -p crusade --test table2_columns -- --ignored`
//! (part of `scripts/ci.sh --full`).

use crusade::core::{CoSynthesis, CosynOptions};
use crusade::workloads::{paper_examples, paper_library};

/// `(PEs, links, cost in dollars)` of one architecture.
type Columns = (usize, usize, u64);

/// Synthesizes `name` without and with dynamic reconfiguration and
/// compares both architectures' columns with the committed row.
fn assert_row(name: &str, without: Columns, with: Columns) {
    let lib = paper_library();
    let example = paper_examples()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not a paper example"));
    let spec = example.build(&lib);
    let columns = |options: CosynOptions| {
        let result = CoSynthesis::new(&spec, &lib.lib)
            .with_options(options)
            .run()
            .unwrap_or_else(|e| panic!("{name}: synthesis failed: {e}"));
        let report = &result.report;
        (report.pe_count, report.link_count, report.cost.amount())
    };
    assert_eq!(
        columns(CosynOptions::without_reconfiguration()),
        without,
        "{name} without dynamic reconfiguration"
    );
    assert_eq!(
        columns(CosynOptions::default()),
        with,
        "{name} with dynamic reconfiguration"
    );
}

#[test]
fn a1tr() {
    assert_row("A1TR", (77, 7, 14588), (53, 7, 10565));
}

#[test]
fn vdrtx() {
    assert_row("VDRTX", (99, 8, 18275), (57, 8, 11357));
}

#[test]
#[ignore = "slow unoptimized; run with --release -- --ignored"]
fn hrost() {
    assert_row("HROST", (147, 15, 25342), (102, 15, 17772));
}

#[test]
#[ignore = "slow unoptimized; run with --release -- --ignored"]
fn est189a() {
    assert_row("EST189A", (217, 28, 36406), (146, 28, 24776));
}

#[test]
#[ignore = "slow unoptimized; run with --release -- --ignored"]
fn hrxc() {
    assert_row("HRXC", (247, 35, 43613), (174, 35, 31399));
}

#[test]
#[ignore = "slow unoptimized; run with --release -- --ignored"]
fn admr() {
    assert_row("ADMR", (278, 32, 45928), (160, 32, 27722));
}

#[test]
#[ignore = "slow unoptimized; run with --release -- --ignored"]
fn b192g() {
    assert_row("B192G", (383, 47, 63760), (176, 47, 31862));
}

#[test]
#[ignore = "slow unoptimized; run with --release -- --ignored"]
fn ngxm() {
    assert_row("NGXM", (498, 45, 82364), (211, 45, 37000));
}
