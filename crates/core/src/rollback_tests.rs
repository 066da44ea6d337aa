//! Rollback exactness: a rejected allocation attempt, and each rejected
//! preemption victim inside one, leaves the architecture byte-identical
//! to what it was before.

use std::sync::Arc;

use crusade_model::{Nanos, ResourceLibrary, SystemSpec};
use crusade_obs::Metrics;
use crusade_workloads::{paper_library, random_example};

use super::Allocator;
use crate::{CosynOptions, Preamble};

#[path = "../tests/support/preemption_spec.rs"]
mod preemption_spec;

/// Allocates every cluster of `spec` in order with the rollback check on,
/// stopping at the first unallocatable one. Returns the rollbacks checked
/// and the candidates rejected.
fn drive(spec: &SystemSpec, lib: &ResourceLibrary) -> (usize, u64) {
    let metrics = Arc::new(Metrics::new());
    let options = CosynOptions::default().with_observer(metrics.clone());
    let preamble = Preamble::new(spec, lib, &options).unwrap();
    let clustering = preamble.clustering();
    let mut allocator = Allocator::new(spec, lib, &options, clustering, preamble.bounds());
    allocator.journal.verified = Some(0);
    for (cid, _) in clustering.clusters() {
        if allocator.allocate(cid).is_err() {
            break;
        }
    }
    let verified = allocator.journal.verified.unwrap_or(0);
    (verified, metrics.snapshot().rejected)
}

#[test]
fn rejected_candidates_roll_back_exactly_on_random_examples() {
    let lib = paper_library();
    let mut rejected = 0;
    for seed in 0..8 {
        let spec = random_example(seed).build(&lib);
        let (verified, seed_rejected) = drive(&spec, &lib.lib);
        assert!(
            verified as u64 >= seed_rejected,
            "seed {seed}: {seed_rejected} rejections but {verified} checked rollbacks"
        );
        rejected += seed_rejected;
    }
    assert!(
        rejected > 0,
        "no candidate was rejected: nothing was checked"
    );
}

#[test]
fn rejected_preemption_victims_roll_back_exactly() {
    use preemption_spec::{background, chain, constraints, library, tight_background, urgent};
    let lib = library();
    let run = |bg| {
        drive(
            &SystemSpec::new(vec![bg, urgent()]).with_constraints(constraints()),
            &lib,
        )
    };
    // Preempting the deep-slack victim succeeds: nothing to roll back.
    assert_eq!(run(background()), (0, 0));
    // The tight chain outranks the urgent task, so it is no victim: the
    // candidate is rejected without a preemption attempt.
    assert_eq!(run(tight_background()), (1, 1));
    // At 7 ms the chain is a victim, but re-placing it misses its
    // deadline: the victim is rolled back, then the whole candidate,
    // before a second CPU is opened.
    assert_eq!(run(chain("bg", Nanos::from_millis(7))), (2, 1));
}
