//! The engine's headline guarantee: the reduced winner — policy id,
//! cost, and the full architecture — is bit-identical regardless of the
//! worker count, because potential winners always run to completion and
//! the reduction is a schedule-independent `min by (cost, policy-id)`.

// Test code: helpers unwrap freely on controlled inputs.
#![allow(clippy::unwrap_used)]

use crusade_core::{CoSynthesis, CosynOptions};
use crusade_explore::{explore, ExploreConfig, ExploreOutcome};
use crusade_model::{ResourceLibrary, SystemSpec};
use crusade_workloads::{paper_examples, paper_library, random_example};

/// The part of an outcome the determinism guarantee covers, in
/// comparable form. `Architecture` has no `PartialEq`, so the comparison
/// goes through its serde encoding — which also makes the check
/// bit-exact over every schedule, mode and interface detail.
fn fingerprint(outcome: &ExploreOutcome) -> (u32, u64, String) {
    (
        outcome.policy.id,
        outcome.winner.report.cost.amount(),
        serde_json::to_string(&outcome.winner.architecture).unwrap(),
    )
}

fn run(spec: &SystemSpec, lib: &ResourceLibrary, jobs: usize) -> Option<ExploreOutcome> {
    explore(spec, lib, &ExploreConfig::new(6, jobs)).ok()
}

#[test]
fn random_specs_same_winner_at_any_job_count() {
    let lib = paper_library();
    let mut feasible = 0;
    for seed in [3u64, 7, 21] {
        let spec = random_example(seed).build(&lib);
        let sequential = run(&spec, &lib.lib, 1);
        let parallel = run(&spec, &lib.lib, 4);
        match (sequential, parallel) {
            (Some(s), Some(p)) => {
                assert_eq!(
                    fingerprint(&s),
                    fingerprint(&p),
                    "seed {seed}: winner differs between 1 and 4 jobs"
                );
                // More jobs than the portfolio's 6 members: one member
                // per worker, and the stats report the workers run.
                let wide = run(&spec, &lib.lib, 8).unwrap();
                assert_eq!(
                    fingerprint(&wide),
                    fingerprint(&s),
                    "seed {seed}: winner differs between 1 and 8 jobs"
                );
                assert_eq!(wide.stats.jobs, 6, "seed {seed}: workers actually run");
                feasible += 1;
            }
            (None, None) => {} // Infeasible either way is consistent.
            (s, p) => panic!(
                "seed {seed}: feasibility depends on job count (jobs=1 {}, jobs=4 {})",
                s.is_some(),
                p.is_some()
            ),
        }
    }
    assert!(feasible >= 2, "too few feasible seeds to be meaningful");
}

#[test]
fn winner_never_worse_than_sequential_crusade() {
    let lib = paper_library();
    let spec = random_example(7).build(&lib);
    let baseline = CoSynthesis::new(&spec, &lib.lib)
        .with_options(CosynOptions::default())
        .run()
        .unwrap();
    let outcome = run(&spec, &lib.lib, 2).unwrap();
    // Member 0 is the baseline policy, so the portfolio can only improve.
    assert!(
        outcome.winner.report.cost <= baseline.report.cost,
        "portfolio {} worse than sequential {}",
        outcome.winner.report.cost,
        baseline.report.cost
    );
}

/// The full acceptance run over the paper's eight Table-2 examples:
/// bit-identical winners across 1, 2 and 8 jobs, never worse than
/// sequential CRUSADE, and every winner independently audit-clean.
/// Minutes of work — run through `scripts/ci.sh --full` or
/// `cargo test --release -p crusade-explore -- --ignored`.
#[test]
#[ignore = "synthesizes all eight paper examples three times; use --release"]
fn paper_examples_bit_identical_across_jobs() {
    let lib = paper_library();
    for ex in paper_examples() {
        let spec = ex.build(&lib);
        let baseline = CoSynthesis::new(&spec, &lib.lib)
            .with_options(CosynOptions::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: sequential CRUSADE failed: {e}", ex.name));
        let config = ExploreConfig::new(8, 1);
        let reference = explore(&spec, &lib.lib, &config)
            .unwrap_or_else(|e| panic!("{}: exploration failed: {e}", ex.name));
        let reference_fp = fingerprint(&reference);
        for jobs in [2usize, 8] {
            let outcome = explore(&spec, &lib.lib, &ExploreConfig::new(8, jobs))
                .unwrap_or_else(|e| panic!("{}: exploration at {jobs} jobs failed: {e}", ex.name));
            assert_eq!(
                fingerprint(&outcome),
                reference_fp,
                "{}: winner differs between 1 and {jobs} jobs",
                ex.name
            );
        }
        assert!(
            reference.winner.report.cost <= baseline.report.cost,
            "{}: portfolio {} worse than sequential {}",
            ex.name,
            reference.winner.report.cost,
            baseline.report.cost
        );
        let options = CosynOptions::default().with_policy(reference.policy.clone());
        let violations =
            crusade_verify::audit(&spec, &lib.lib, &options.effective(), &reference.winner);
        assert!(
            violations.is_empty(),
            "{}: winner has audit violations: {:?}",
            ex.name,
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }
}
