//! Properties tying the linter to synthesis: Error lints are necessary-
//! condition violations (synthesis of an Error-linted spec must fail, and
//! the `lint` pre-pass rejects it up front), and lint-clean specs that
//! synthesize also audit clean.

// Test code: helpers unwrap and cast freely on controlled inputs.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use crusade::core::{CoSynthesis, CosynOptions, SynthesisError};
use crusade::lint::{lint, LintOptions};
use crusade::model::{ExecutionTimes, Nanos, SystemSpec, Task, TaskGraphBuilder};
use crusade::verify::audit;
use crusade::workloads::{paper_library, random_example};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness both ways: an Error lint proves synthesis must fail; a
    /// lint-clean spec that synthesizes must also audit clean — the lint's
    /// necessary conditions and the auditor's sufficient evidence never
    /// disagree about one specification.
    #[test]
    fn lint_verdicts_agree_with_synthesis(seed in 0u64..1_000_000) {
        let lib = paper_library();
        let spec = random_example(seed).build(&lib);
        let report = lint(&spec, &lib.lib, &LintOptions::default());
        let options = CosynOptions::default();
        let result = CoSynthesis::new(&spec, &lib.lib)
            .with_options(options.clone())
            .run();
        if report.has_errors() {
            prop_assert!(
                result.is_err(),
                "lint proved infeasibility but synthesis succeeded"
            );
        } else if let Ok(result) = result {
            let violations = audit(&spec, &lib.lib, &options, &result);
            prop_assert!(
                violations.is_empty(),
                "lint-clean spec synthesized into a bad architecture: {violations:?}"
            );
        }
    }
}

/// The `CosynOptions::lint` pre-pass turns a proved infeasibility into
/// `SynthesisError::LintRejected` before any allocation work runs.
#[test]
fn lint_pre_pass_rejects_proved_infeasibility() {
    let lib = paper_library();
    // One task slower than its period: `task-exceeds-period`.
    let mut b = TaskGraphBuilder::new("dead", Nanos::from_millis(1));
    b.add_task(Task::new(
        "slow",
        ExecutionTimes::uniform(lib.lib.pe_count(), Nanos::from_millis(5)),
    ));
    let spec = SystemSpec::new(vec![b.build().unwrap()]);
    let err = CoSynthesis::new(&spec, &lib.lib)
        .with_options(CosynOptions::default().with_lint())
        .run()
        .unwrap_err();
    assert!(
        matches!(err, SynthesisError::LintRejected { .. }),
        "expected LintRejected, got {err:?}"
    );
}
