//! Property-based invariants of the structured-event trace: on randomly
//! generated paper-shaped workloads, an instrumented synthesis emits a
//! trace whose spans balance and nest properly, whose rejection records
//! agree with the metrics counters, whose metrics agree with the
//! synthesis report, whose attempts each end in one acceptance or one
//! rejection, and whose presence never changes the synthesized
//! architecture (the zero-overhead guarantee).

// Test code: generator helpers unwrap and cast freely on controlled inputs.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use std::sync::Arc;

use crusade::core::{CoSynthesis, CosynOptions};
use crusade::obs::{check_span_nesting, parse_jsonl, Event, Fanout, Metrics, TraceSink};
use crusade::workloads::{paper_library, random_example};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn instrumented_synthesis_trace_is_coherent(seed in 0u64..1_000_000) {
        let lib = paper_library();
        let spec = random_example(seed).build(&lib);

        // Baseline: the uninstrumented run. Random specs can be
        // infeasible against the library; those cases prove nothing
        // about the trace, so skip them.
        let Ok(plain) = CoSynthesis::new(&spec, &lib.lib).run() else {
            return Ok(());
        };

        let trace = Arc::new(TraceSink::new());
        let metrics = Arc::new(Metrics::new());
        let observer = Fanout::new().with(trace.clone()).with(metrics.clone());
        let observed = CoSynthesis::new(&spec, &lib.lib)
            .with_options(CosynOptions::default().with_observer(Arc::new(observer)))
            .run()
            .expect("the observer must not affect feasibility");

        // Zero-overhead guarantee: observing a run never changes it.
        prop_assert_eq!(observed.report.cost, plain.report.cost);
        prop_assert_eq!(observed.report.pe_count, plain.report.pe_count);
        prop_assert_eq!(observed.report.link_count, plain.report.link_count);
        prop_assert_eq!(observed.report.candidates_tried, plain.report.candidates_tried);

        // The reported architecture must itself be audit-clean, so the
        // report figures the metrics are checked against are trustworthy.
        let violations =
            crusade::verify::audit(&spec, &lib.lib, &CosynOptions::default().effective(), &observed);
        prop_assert!(violations.is_empty(), "audit violations: {:?}", violations);

        // Trace structure: parseable JSONL, dense sequence numbers,
        // balanced and properly nested spans.
        let records = parse_jsonl(&trace.to_jsonl())
            .map_err(|(line, e)| TestCaseError::fail(format!("line {line}: {e}")))?;
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64);
        }
        check_span_nesting(&records).map_err(TestCaseError::fail)?;

        // Rejections: every CandidateRejected event is counted once, and
        // the per-reason breakdown sums back to the total.
        let snapshot = metrics.snapshot();
        let rejected_events = records
            .iter()
            .filter(|r| matches!(r.event, Event::CandidateRejected { .. }))
            .count() as u64;
        prop_assert_eq!(snapshot.rejected, rejected_events);
        prop_assert_eq!(
            snapshot.rejections_by_reason.values().sum::<u64>(),
            rejected_events
        );

        // Attempts: the metrics counter, the trace, and the audited
        // report's scheduling-attempt figure must all agree.
        let attempt_events = records
            .iter()
            .filter(|r| matches!(r.event, Event::CandidateConsidered { .. }))
            .count() as u64;
        prop_assert_eq!(snapshot.attempts, attempt_events);
        prop_assert_eq!(snapshot.attempts, observed.report.candidates_tried as u64);
        prop_assert_eq!(snapshot.final_attempts, Some(observed.report.candidates_tried as u64));
        prop_assert_eq!(snapshot.final_cost, Some(observed.report.cost.amount()));

        // Accepted candidates: exactly one acceptance per cluster that
        // was formed and allocated (every cluster allocates exactly once
        // in a clean run).
        let accepted_events = records
            .iter()
            .filter(|r| matches!(r.event, Event::CandidateAccepted { .. }))
            .count() as u64;
        prop_assert_eq!(snapshot.accepted, accepted_events);
        // Reconciliation: a solo run skips no candidate, so every attempt
        // ends in exactly one acceptance or one rejection.
        prop_assert_eq!(snapshot.attempts, snapshot.accepted + snapshot.rejected);
        let clusters_formed = records
            .iter()
            .filter(|r| matches!(r.event, Event::ClusterFormed { .. }))
            .count() as u64;
        prop_assert_eq!(accepted_events, clusters_formed);
    }
}
