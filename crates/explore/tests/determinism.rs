//! The engine's headline guarantee: the reduced winner — policy id,
//! cost, and the full architecture — is bit-identical regardless of the
//! worker count, because every member runs to completion and the
//! reduction is a schedule-independent `min by (cost, policy-id)`.

// Test code: helpers unwrap freely on controlled inputs.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crusade_core::{CoSynthesis, CosynOptions};
use crusade_explore::{explore, ExploreConfig, ExploreError, ExploreOutcome, MemberStatus};
use crusade_model::{ResourceLibrary, SystemSpec};
use crusade_obs::{Event, Metrics, SynthesisObserver};
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

/// Each member's `(policy id, status, cost)`, in policy order.
fn members(outcome: &ExploreOutcome) -> Vec<(u32, MemberStatus, Option<u64>)> {
    outcome
        .members
        .iter()
        .map(|m| (m.policy.id, m.status.clone(), m.cost.map(|c| c.amount())))
        .collect()
}

/// Allocation counters aggregated over every member: attempts, accepted,
/// rejected, rejections by reason, placements.
type Counters = (u64, u64, u64, BTreeMap<String, u64>, u64);

/// [`run`] with one `Metrics` observer shared by every member.
fn run_observed(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    jobs: usize,
) -> (Option<ExploreOutcome>, Counters) {
    let metrics = Arc::new(Metrics::new());
    let base = CosynOptions::default().with_observer(metrics.clone());
    let outcome = explore(spec, lib, &ExploreConfig::new(6, jobs).with_base(base)).ok();
    let m = metrics.snapshot();
    let counters = (
        m.attempts,
        m.accepted,
        m.rejected,
        m.rejections_by_reason,
        m.placements,
    );
    (outcome, counters)
}

#[test]
fn random_specs_same_winner_at_any_job_count() {
    let lib = paper_library();
    let mut feasible = 0;
    for seed in [3u64, 7, 21] {
        let spec = random_example(seed).build(&lib);
        let (sequential, sequential_counters) = run_observed(&spec, &lib.lib, 1);
        // Every attempt of every member ends in one acceptance or one
        // rejection.
        let (attempts, accepted, rejected, ..) = sequential_counters;
        assert_eq!(attempts, accepted + rejected, "seed {seed}: attempts");
        // 8 is more jobs than the portfolio's 6 members: one member per
        // worker.
        for jobs in [4usize, 8] {
            let (parallel, counters) = run_observed(&spec, &lib.lib, jobs);
            match (&sequential, &parallel) {
                (Some(s), Some(p)) => {
                    assert_eq!(
                        fingerprint(s),
                        fingerprint(p),
                        "seed {seed}: winner differs between 1 and {jobs} jobs"
                    );
                    assert_eq!(
                        members(s),
                        members(p),
                        "seed {seed}: member reports differ between 1 and {jobs} jobs"
                    );
                    assert_eq!(
                        p.stats.jobs,
                        jobs.min(6),
                        "seed {seed}: workers actually run"
                    );
                }
                (None, None) => {} // Infeasible either way is consistent.
                (s, p) => panic!(
                    "seed {seed}: feasibility depends on job count (jobs=1 {}, jobs={jobs} {})",
                    s.is_some(),
                    p.is_some()
                ),
            }
            assert_eq!(
                sequential_counters, counters,
                "seed {seed}: allocation counters differ between 1 and {jobs} jobs"
            );
        }
        feasible += usize::from(sequential.is_some());
    }
    assert!(feasible >= 2, "too few feasible seeds to be meaningful");
}

/// Raises the cancellation flag as soon as any member completes.
struct CancelOnComplete(Arc<AtomicBool>);

impl SynthesisObserver for CancelOnComplete {
    fn event(&self, event: &Event) {
        if matches!(event, Event::SynthesisComplete { .. }) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[test]
fn cancelled_exploration_is_an_error_not_a_partial_winner() {
    let lib = paper_library();
    let spec = random_example(1).build(&lib);
    // Member 0 completes first at one job, but does not win the full
    // portfolio, so a winner reduced from it alone would be wrong.
    assert_ne!(run(&spec, &lib.lib, 1).unwrap().policy.id, 0);
    let cancel = Arc::new(AtomicBool::new(false));
    let base =
        CosynOptions::default().with_observer(Arc::new(CancelOnComplete(Arc::clone(&cancel))));
    let config = ExploreConfig::new(6, 1)
        .with_base(base)
        .with_cancel(Arc::clone(&cancel));
    let outcome = explore(&spec, &lib.lib, &config);
    assert!(cancel.load(Ordering::Relaxed), "no member completed");
    assert!(
        matches!(outcome, Err(ExploreError::Cancelled)),
        "cancelled exploration returned {:?}",
        outcome.map(|o| (o.policy.id, o.winner.report.cost))
    );
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
