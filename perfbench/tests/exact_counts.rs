//! Two traced runs at one seed report identical deterministic counts.
//!
//! Each workload runs twice with tracing on and the shortest budget
//! (one untraced and one traced pass); the counts the run record labels
//! deterministic must match exactly. Takes a few minutes in release.

use crusade_perfbench::report::Outcome;
use crusade_perfbench::{explore_gen, serve_mix, Ctx};

fn twice(run: fn(&Ctx) -> Outcome, expect: &[&str]) {
    let outcomes: Vec<Outcome> = (0..2).map(|_| run(&Ctx::new(3, 1.0, true))).collect();
    for outcome in &outcomes {
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        for key in expect {
            assert!(outcome.deterministic.contains_key(*key), "no {key} count");
        }
    }
    assert_eq!(outcomes[0].deterministic, outcomes[1].deterministic);
}

#[test]
fn explore_gen_counts_repeat() {
    twice(
        explore_gen::run,
        &["audit.calls", "verdict.feasible", "explore.members"],
    );
}

#[test]
fn serve_mix_counts_repeat() {
    twice(
        serve_mix::run,
        &[
            "serve.cache_hits",
            "serve.cache_misses",
            "resyn.rung.warm",
            "resyn.deltas",
            "alloc.attempts",
            "alloc.accepted",
            "alloc.rejected.NoCpuSlot",
            "alloc.pruned",
            "sched.placements",
            "reconfig.merges_examined",
            "audit.calls",
        ],
    );
}
