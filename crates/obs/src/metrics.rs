//! The counters/histograms sink: aggregates an event stream into a
//! serializable [`MetricsSnapshot`].
//!
//! Unlike the trace sink, metrics are order-insensitive aggregates, so
//! one [`Metrics`] instance can safely absorb the interleaved streams of
//! several exploration worker threads. Wall-clock phase times are
//! stamped *at receipt* of span events — the events themselves carry no
//! timestamps, which is what keeps the trace representation of the same
//! run deterministic.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::{Event, SynthesisObserver};

#[derive(Default)]
struct MetricsInner {
    by_kind: BTreeMap<String, u64>,
    rejections_by_reason: BTreeMap<String, u64>,
    phase_wall_us: BTreeMap<String, u64>,
    open_spans: BTreeMap<u64, Instant>,
    final_cost: Option<u64>,
    final_attempts: Option<u64>,
    final_pruned: Option<u64>,
}

/// Thread-safe metrics accumulator; install with
/// `CosynOptions::with_observer` and harvest with [`Metrics::snapshot`].
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<MetricsInner>,
}

impl Metrics {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsInner> {
        // A sink panicking while holding the lock poisons it; the
        // counters are still the best available data, so keep reading.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current aggregate state. Cheap; may be called mid-run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        let count = |kind: &str| inner.by_kind.get(kind).copied().unwrap_or(0);
        MetricsSnapshot {
            attempts: count("CandidateConsidered"),
            accepted: count("CandidateAccepted"),
            rejected: count("CandidateRejected"),
            pruned_events: count("CandidatesPruned"),
            placements: count("Placement"),
            preemptions: count("Preemption"),
            evictions: count("Eviction"),
            merges_examined: count("MergeExamined"),
            merges_accepted: count("MergeAccepted"),
            modes_combined: count("ModeCombined"),
            delay_evaluations: count("DelayEvaluated"),
            boot_charges: count("BootCharge"),
            incumbent_updates: count("IncumbentUpdate"),
            final_cost: inner.final_cost,
            final_attempts: inner.final_attempts,
            final_pruned: inner.final_pruned,
            rejections_by_reason: inner.rejections_by_reason.clone(),
            phase_wall_us: inner.phase_wall_us.clone(),
            events_by_kind: inner.by_kind.clone(),
        }
    }
}

impl SynthesisObserver for Metrics {
    fn event(&self, event: &Event) {
        let now = Instant::now();
        let mut inner = self.lock();
        *inner.by_kind.entry(event.kind().to_owned()).or_insert(0) += 1;
        match event {
            Event::SpanOpen { span, .. } => {
                inner.open_spans.insert(*span, now);
            }
            Event::SpanClose { span, phase } => {
                if let Some(opened) = inner.open_spans.remove(span) {
                    // Receipt-side stamps; truncation would need a span
                    // half a million years long.
                    #[allow(clippy::cast_possible_truncation)]
                    let us = now.duration_since(opened).as_micros() as u64;
                    *inner.phase_wall_us.entry(phase.clone()).or_insert(0) += us;
                }
            }
            Event::CandidateRejected { reason, .. } => {
                *inner
                    .rejections_by_reason
                    .entry(reason.as_str().to_owned())
                    .or_insert(0) += 1;
            }
            Event::SynthesisComplete {
                cost,
                attempts,
                pruned,
                ..
            } => {
                inner.final_cost = Some(*cost);
                inner.final_attempts = Some(*attempts);
                inner.final_pruned = Some(*pruned);
            }
            _ => {}
        }
    }
}

/// A serializable aggregate of one observed run (or one shared
/// exploration, when several members feed the same accumulator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Allocation candidates actually attempted (`CandidateConsidered`).
    pub attempts: u64,
    /// Candidates the scheduler accepted.
    pub accepted: u64,
    /// Candidates the scheduler rejected.
    pub rejected: u64,
    /// `CandidatesPruned` events (one per cluster with a non-zero prune).
    pub pruned_events: u64,
    /// Timeline placements, including discarded scratch attempts.
    pub placements: u64,
    /// Preemption displacements.
    pub preemptions: u64,
    /// Repair evictions.
    pub evictions: u64,
    /// Reconfiguration merges examined.
    pub merges_examined: u64,
    /// Reconfiguration merges committed.
    pub merges_accepted: u64,
    /// Mode pairs combined.
    pub modes_combined: u64,
    /// Post-route delay evaluations.
    pub delay_evaluations: u64,
    /// Boot-time charges during interface synthesis.
    pub boot_charges: u64,
    /// Exploration incumbent improvements.
    pub incumbent_updates: u64,
    /// Final architecture cost from `SynthesisComplete`, if the run
    /// finished.
    pub final_cost: Option<u64>,
    /// Final scheduling-attempt count from `SynthesisComplete`.
    pub final_attempts: Option<u64>,
    /// Final pruned-candidate count from `SynthesisComplete`.
    pub final_pruned: Option<u64>,
    /// Rejection counts keyed by [`RejectReason`](crate::RejectReason)
    /// string.
    pub rejections_by_reason: BTreeMap<String, u64>,
    /// Cumulative wall-clock per phase, microseconds, stamped at event
    /// receipt.
    pub phase_wall_us: BTreeMap<String, u64>,
    /// Every event kind seen, with its count.
    pub events_by_kind: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Sum of the per-reason rejection counters (must equal
    /// [`MetricsSnapshot::rejected`]; the trace-invariant tests hold the
    /// two streams to each other).
    pub fn total_rejections(&self) -> u64 {
        self.rejections_by_reason.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RejectReason;

    #[test]
    fn aggregates_counters_and_reasons() {
        let m = Metrics::new();
        m.event(&Event::CandidateConsidered {
            cluster: 0,
            target: "new CPU".into(),
        });
        m.event(&Event::CandidateRejected {
            cluster: 0,
            target: "new CPU".into(),
            reason: RejectReason::DeadlineMiss,
        });
        m.event(&Event::CandidateConsidered {
            cluster: 0,
            target: "new FPGA".into(),
        });
        m.event(&Event::CandidateAccepted {
            cluster: 0,
            target: "new FPGA".into(),
            added_cost: 200,
        });
        m.event(&Event::SynthesisComplete {
            cost: 720,
            pes: 2,
            links: 1,
            attempts: 2,
            pruned: 0,
        });
        let s = m.snapshot();
        assert_eq!(s.attempts, 2);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.total_rejections(), 1);
        assert_eq!(s.rejections_by_reason.get("DeadlineMiss"), Some(&1));
        assert_eq!(s.final_cost, Some(720));
        assert_eq!(s.final_attempts, Some(2));
    }

    #[test]
    fn span_times_accumulate_per_phase() {
        let m = Metrics::new();
        m.event(&Event::SpanOpen {
            span: 0,
            phase: "allocation".into(),
        });
        m.event(&Event::SpanClose {
            span: 0,
            phase: "allocation".into(),
        });
        let s = m.snapshot();
        assert!(s.phase_wall_us.contains_key("allocation"));
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let m = Metrics::new();
        m.event(&Event::CandidateConsidered {
            cluster: 3,
            target: "t".into(),
        });
        let s = m.snapshot();
        let json = serde_json::to_string(&s).expect("snapshot serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(back, s);
    }
}
