//! Structured observability for the CRUSADE co-synthesis pipeline.
//!
//! CRUSADE is a constructive heuristic: one run makes thousands of
//! clustering, allocation, scheduling, and reconfiguration decisions, yet
//! the final [`Architecture`] records only the outcome. This crate gives
//! every decision a name. Synthesis code emits [`Event`]s through an
//! [`ObserverHandle`]; when no observer is installed the handle is `None`
//! and the emit closure is never even constructed, so the default path
//! stays zero-cost. When a run opts in via `CosynOptions::with_observer`,
//! events fan into sinks:
//!
//! * [`Metrics`] — thread-safe counters and per-phase wall-clock times,
//!   snapshotted as a serializable [`MetricsSnapshot`];
//! * [`TraceSink`] — a deterministic JSONL
//!   event log with span open/close records, suitable for golden-file
//!   testing because synthesis itself is bit-reproducible.
//!
//! Because the paper's flow is deterministic (PR 3), the trace of a run
//! is a *canonical artifact*: re-running the same spec yields the same
//! bytes, and the committed golden traces under `tests/golden/` are the
//! regression oracle for the whole decision stream.
//!
//! [`Architecture`]: https://docs.rs/crusade-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

pub mod metrics;
pub mod trace;

pub use metrics::{Metrics, MetricsSnapshot};
pub use trace::{check_span_nesting, parse_jsonl, TraceRecord, TraceSink};

/// Why the allocator rejected an allocation candidate for a cluster.
///
/// These are the failure exits of the incremental scheduling attempt
/// (`try_target`): each names the first gate the candidate failed, in
/// the order the scheduler checks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// The task has no execution time on the candidate PE type.
    NoExecutionTime,
    /// A task's execution time exceeds its graph period outright.
    ExceedsPeriod,
    /// The task's ready time falls after its latest feasible start.
    WindowClosed,
    /// No CPU timeline slot fits, even after bounded preemption.
    NoCpuSlot,
    /// A same-PE successor would overlap the new task's window.
    SuccessorOverlap,
    /// No communication link option could route a dependency edge.
    EdgeUnroutable,
    /// The placement would make a reconfigurable device's mode set
    /// infeasible (boot room or exclusivity).
    ModeInfeasible,
    /// The completed placement misses a hard deadline.
    DeadlineMiss,
    /// A producer would finish after its consumer must start.
    ProducerInversion,
    /// Internal inconsistency (should not happen; kept for totality).
    Internal,
}

impl RejectReason {
    /// Stable string form used as the metrics counter key.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::NoExecutionTime => "NoExecutionTime",
            RejectReason::ExceedsPeriod => "ExceedsPeriod",
            RejectReason::WindowClosed => "WindowClosed",
            RejectReason::NoCpuSlot => "NoCpuSlot",
            RejectReason::SuccessorOverlap => "SuccessorOverlap",
            RejectReason::EdgeUnroutable => "EdgeUnroutable",
            RejectReason::ModeInfeasible => "ModeInfeasible",
            RejectReason::DeadlineMiss => "DeadlineMiss",
            RejectReason::ProducerInversion => "ProducerInversion",
            RejectReason::Internal => "Internal",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured synthesis event.
///
/// Every variant is a plain-old-data record: times are raw nanoseconds,
/// costs raw dollars, and resources/occupants are rendered to strings at
/// the emission site, so the event stream is self-contained and stable
/// across refactors of the in-memory types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A phase span opened. Spans nest; `span` ids are assigned from a
    /// per-handle counter so a fresh handle yields a deterministic trace.
    SpanOpen {
        /// Handle-scoped span id.
        span: u64,
        /// Phase name, e.g. `"clustering"` or `"allocation"`.
        phase: String,
    },
    /// The matching close of [`Event::SpanOpen`].
    SpanClose {
        /// Handle-scoped span id.
        span: u64,
        /// Phase name (repeated for greppability).
        phase: String,
    },
    /// The clustering phase produced one cluster.
    ClusterFormed {
        /// Cluster index.
        cluster: u64,
        /// Number of tasks grouped into it.
        tasks: u64,
    },
    /// The allocator is about to attempt one allocation candidate.
    CandidateConsidered {
        /// Cluster being allocated.
        cluster: u64,
        /// Human-readable candidate target (existing PE, new mode, new PE).
        target: String,
    },
    /// The incremental scheduler accepted the candidate.
    CandidateAccepted {
        /// Cluster being allocated.
        cluster: u64,
        /// Target that won.
        target: String,
        /// Dollar cost the acceptance added to the architecture.
        added_cost: u64,
    },
    /// The incremental scheduler rejected the candidate.
    CandidateRejected {
        /// Cluster being allocated.
        cluster: u64,
        /// Target that failed.
        target: String,
        /// First gate the candidate failed.
        reason: RejectReason,
    },
    /// Candidates removed before scheduling. Nothing emits this: the
    /// allocator tries every candidate. The variant stays so existing
    /// consumers keep parsing and matching it.
    CandidatesPruned {
        /// Cluster being allocated.
        cluster: u64,
        /// Number of allocation-array entries pruned.
        pruned: u64,
    },
    /// A task or transfer was placed on a schedule-board timeline.
    /// Emitted for *every* attempt, including scratch boards that are
    /// later discarded — the per-attempt stream is the point.
    Placement {
        /// Occupant placed (task instance or edge transfer).
        occupant: String,
        /// Timeline resource index.
        resource: u64,
        /// Chosen slot start (ns).
        start: u64,
        /// Slot duration (ns).
        duration: u64,
        /// Occupant period (ns).
        period: u64,
        /// `true` for spatial (hardware) reservations recorded without a
        /// slot search.
        spatial: bool,
    },
    /// A lower-priority occupant was displaced to open a CPU slot.
    Preemption {
        /// Occupant that was moved.
        victim: String,
        /// Timeline resource index it was displaced on.
        resource: u64,
    },
    /// Repair evicted a cluster from the damaged architecture.
    Eviction {
        /// Cluster torn out for re-allocation.
        cluster: u64,
    },
    /// Dynamic reconfiguration examined a merge of two devices.
    MergeExamined {
        /// Proposed surviving device (PE instance index).
        survivor: u64,
        /// Proposed retired device (PE instance index).
        retired: u64,
    },
    /// The merge was committed.
    MergeAccepted {
        /// Surviving device (PE instance index).
        survivor: u64,
        /// Retired device (PE instance index).
        retired: u64,
    },
    /// Two reconfiguration modes were combined into one.
    ModeCombined {
        /// Device whose modes were combined (PE instance index).
        device: u64,
    },
    /// A link lost its last client during a merge and was retired.
    LinkRetired {
        /// Number of links retired by this merge commit.
        links: u64,
    },
    /// A post-route delay evaluation of the utilisation experiment.
    DelayEvaluated {
        /// Effective resource utilisation factor probed.
        eruf: f64,
        /// Effective pin utilisation factor probed.
        epuf: f64,
        /// Measured critical-path delay (model units); 0 if unroutable.
        delay: u64,
        /// Whether the point routed at all.
        routable: bool,
    },
    /// Interface synthesis charged one device's boot time on the chain.
    BootCharge {
        /// Position of the device in the programming chain.
        chain_index: u64,
        /// Configuration bits shifted for one mode switch.
        config_bits: u64,
        /// Resulting boot time (ns).
        boot_ns: u64,
    },
    /// Interface synthesis selected an option.
    InterfaceChosen {
        /// Dollar cost of the chosen interface.
        cost: u64,
        /// Worst boot time over the chain (ns).
        worst_boot_ns: u64,
        /// `true` when the shared chain failed and per-device fallback
        /// interfaces were synthesised instead.
        fallback: bool,
    },
    /// An exploration member finished audit-clean below every clean cost
    /// seen so far in its portfolio.
    IncumbentUpdate {
        /// Portfolio policy index.
        policy: u64,
        /// New best cost (dollars).
        cost: u64,
    },
    /// Synthesis finished; the headline figures of the run.
    SynthesisComplete {
        /// Final architecture dollar cost.
        cost: u64,
        /// PE instances.
        pes: u64,
        /// Link instances.
        links: u64,
        /// Scheduling attempts (allocation candidates tried).
        attempts: u64,
        /// Allocation candidates pruned before scheduling: always 0,
        /// kept so the record's shape (and committed traces) stay stable.
        pruned: u64,
    },
    /// Online re-synthesis applied one specification delta.
    DeltaApplied {
        /// Position in the delta sequence.
        delta: u64,
        /// Stable kebab-case delta kind (`"fail-pe"`, …).
        kind: String,
    },
    /// The online admission check ruled on a delta.
    AdmissionChecked {
        /// Position in the delta sequence.
        delta: u64,
        /// `true` when the conservative bound admits the delta.
        admitted: bool,
        /// Rejection reason, empty when admitted.
        reason: String,
    },
    /// The re-synthesis ladder escalated to a higher rung.
    EscalationStep {
        /// Position in the delta sequence.
        delta: u64,
        /// Rung entered (`"warm"`, `"widened"`, `"portfolio"`, `"cold"`).
        rung: String,
        /// Why the previous rung was abandoned.
        trigger: String,
    },
    /// Online re-synthesis absorbed one delta.
    ResynStepComplete {
        /// Position in the delta sequence.
        delta: u64,
        /// Rung that produced the accepted architecture.
        rung: String,
        /// Architecture dollar cost after the delta.
        cost: u64,
        /// Clusters re-placed while absorbing the delta.
        moved: u64,
    },
}

impl Event {
    /// Stable kind tag, used as the generic metrics counter key.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanOpen { .. } => "SpanOpen",
            Event::SpanClose { .. } => "SpanClose",
            Event::ClusterFormed { .. } => "ClusterFormed",
            Event::CandidateConsidered { .. } => "CandidateConsidered",
            Event::CandidateAccepted { .. } => "CandidateAccepted",
            Event::CandidateRejected { .. } => "CandidateRejected",
            Event::CandidatesPruned { .. } => "CandidatesPruned",
            Event::Placement { .. } => "Placement",
            Event::Preemption { .. } => "Preemption",
            Event::Eviction { .. } => "Eviction",
            Event::MergeExamined { .. } => "MergeExamined",
            Event::MergeAccepted { .. } => "MergeAccepted",
            Event::ModeCombined { .. } => "ModeCombined",
            Event::LinkRetired { .. } => "LinkRetired",
            Event::DelayEvaluated { .. } => "DelayEvaluated",
            Event::BootCharge { .. } => "BootCharge",
            Event::InterfaceChosen { .. } => "InterfaceChosen",
            Event::IncumbentUpdate { .. } => "IncumbentUpdate",
            Event::SynthesisComplete { .. } => "SynthesisComplete",
            Event::DeltaApplied { .. } => "DeltaApplied",
            Event::AdmissionChecked { .. } => "AdmissionChecked",
            Event::EscalationStep { .. } => "EscalationStep",
            Event::ResynStepComplete { .. } => "ResynStepComplete",
        }
    }
}

/// Receives the event stream of a synthesis run.
///
/// Implementations must be thread-safe: exploration runs portfolio
/// members on worker threads that share one observer.
pub trait SynthesisObserver: Send + Sync {
    /// Called once per emitted event, in emission order per thread.
    fn event(&self, event: &Event);
}

/// Fans one event stream out to several sinks (e.g. a trace *and* a
/// metrics accumulator for the same run).
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<Arc<dyn SynthesisObserver>>,
}

impl Fanout {
    /// An empty fanout; add sinks with [`Fanout::with`].
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Adds a sink.
    #[must_use]
    pub fn with(mut self, sink: Arc<dyn SynthesisObserver>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl SynthesisObserver for Fanout {
    fn event(&self, event: &Event) {
        for sink in &self.sinks {
            sink.event(event);
        }
    }
}

struct HandleInner {
    observer: Arc<dyn SynthesisObserver>,
    next_span: AtomicU64,
}

/// A cheaply clonable, optionally-installed observer.
///
/// The default handle is disabled: [`ObserverHandle::emit`] takes a
/// closure and never calls it, so event construction itself is skipped
/// and the instrumented hot paths cost one branch on a `None`.
///
/// The handle is embedded in serializable option/board types, so it
/// carries hand-written serde impls that render as `null` and
/// deserialize to the disabled handle — an observer is a runtime
/// attachment, never part of a persisted artifact.
pub struct ObserverHandle(Option<Arc<HandleInner>>);

impl ObserverHandle {
    /// The disabled handle (same as `Default`).
    pub fn none() -> Self {
        ObserverHandle(None)
    }

    /// A handle delivering events to `observer`, with a fresh span
    /// counter (span ids in a trace restart from 0 per handle).
    pub fn new(observer: Arc<dyn SynthesisObserver>) -> Self {
        ObserverHandle(Some(Arc::new(HandleInner {
            observer,
            next_span: AtomicU64::new(0),
        })))
    }

    /// Whether an observer is installed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits the event built by `f` if an observer is installed; `f` is
    /// not called otherwise, so building the event is free by default.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(inner) = &self.0 {
            inner.observer.event(&f());
        }
    }

    /// Opens a phase span; the returned guard closes it on drop.
    ///
    /// On a disabled handle this is free and emits nothing.
    pub fn span(&self, phase: &'static str) -> SpanGuard<'_> {
        let id = self.0.as_ref().map(|inner| {
            let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
            inner.observer.event(&Event::SpanOpen {
                span: id,
                phase: phase.to_owned(),
            });
            id
        });
        SpanGuard {
            handle: self,
            phase,
            id,
        }
    }
}

impl Default for ObserverHandle {
    fn default() -> Self {
        ObserverHandle::none()
    }
}

impl Clone for ObserverHandle {
    fn clone(&self) -> Self {
        ObserverHandle(self.0.clone())
    }
}

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() {
            "ObserverHandle(enabled)"
        } else {
            "ObserverHandle(disabled)"
        })
    }
}

/// Two handles are equal when both are disabled or both share the same
/// inner observer; equality of the surrounding options type must not
/// depend on *what* a live observer has seen.
impl PartialEq for ObserverHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Serializes as `null`: observers are runtime attachments, not data.
impl Serialize for ObserverHandle {
    fn serialize_value(&self) -> Value {
        Value::Null
    }
}

/// Deserializes any value to the disabled handle (persisted artifacts
/// never carry an observer).
impl Deserialize for ObserverHandle {
    fn deserialize_value(_v: &Value) -> Result<Self, DeError> {
        Ok(ObserverHandle::none())
    }
}

/// RAII guard for a phase span; emits [`Event::SpanClose`] on drop.
pub struct SpanGuard<'a> {
    handle: &'a ObserverHandle,
    phase: &'static str,
    id: Option<u64>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.handle.emit(|| Event::SpanClose {
                span: id,
                phase: self.phase.to_owned(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Recorder(Mutex<Vec<Event>>);

    impl SynthesisObserver for Recorder {
        fn event(&self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn disabled_handle_never_builds_events() {
        let handle = ObserverHandle::none();
        let mut built = false;
        handle.emit(|| {
            built = true;
            Event::Eviction { cluster: 0 }
        });
        assert!(!built, "closure must not run without an observer");
        assert!(!handle.is_enabled());
    }

    #[test]
    fn span_ids_are_sequential_and_balanced() {
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let handle = ObserverHandle::new(rec.clone());
        {
            let _outer = handle.span("outer");
            let _inner = handle.span("inner");
        }
        let events = rec.0.lock().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0],
            Event::SpanOpen {
                span: 0,
                phase: "outer".into()
            }
        );
        assert_eq!(
            events[1],
            Event::SpanOpen {
                span: 1,
                phase: "inner".into()
            }
        );
        // LIFO close order.
        assert_eq!(
            events[2],
            Event::SpanClose {
                span: 1,
                phase: "inner".into()
            }
        );
        assert_eq!(
            events[3],
            Event::SpanClose {
                span: 0,
                phase: "outer".into()
            }
        );
    }

    #[test]
    fn handle_equality_and_serde_shape() {
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let a = ObserverHandle::new(rec.clone());
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, ObserverHandle::none());
        assert_eq!(ObserverHandle::none(), ObserverHandle::default());
        assert_eq!(a.serialize_value(), Value::Null);
        let back = ObserverHandle::deserialize_value(&Value::Null).unwrap();
        assert!(!back.is_enabled());
    }

    #[test]
    fn fanout_delivers_to_every_sink() {
        let a = Arc::new(Recorder(Mutex::new(Vec::new())));
        let b = Arc::new(Recorder(Mutex::new(Vec::new())));
        let fan = Fanout::new().with(a.clone()).with(b.clone());
        fan.event(&Event::Eviction { cluster: 7 });
        assert_eq!(a.0.lock().unwrap().len(), 1);
        assert_eq!(b.0.lock().unwrap().len(), 1);
    }

    #[test]
    fn reject_reason_strings_are_stable() {
        assert_eq!(RejectReason::DeadlineMiss.as_str(), "DeadlineMiss");
        assert_eq!(RejectReason::NoCpuSlot.to_string(), "NoCpuSlot");
    }
}
