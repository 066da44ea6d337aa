//! The deterministic JSONL trace sink.
//!
//! Each received event is serialized immediately as one compact JSON
//! line wrapping a [`TraceRecord`] — a receipt-order sequence number
//! plus the event. No timestamps, thread ids, or addresses appear in a
//! record, so a trace is a pure function of the synthesis decisions:
//! PR 3's bit-reproducibility makes the whole file a golden-testable
//! artifact.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::{Event, SynthesisObserver};

/// One line of a JSONL trace: the event plus its receipt order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Zero-based receipt index within the trace.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// Collects events as pre-rendered JSON lines.
///
/// Intended for single-run traces (e.g. the deterministic winner replay
/// behind `crusade trace`); it is thread-safe, but interleaving several
/// threads into one trace forfeits reproducibility of the line order.
#[derive(Default)]
pub struct TraceSink {
    lines: Mutex<Vec<String>>,
}

impl TraceSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<String>> {
        self.lines.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The trace as JSONL: one compact JSON object per line, trailing
    /// newline included (empty string for an empty trace).
    pub fn to_jsonl(&self) -> String {
        let lines = self.lock();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl SynthesisObserver for TraceSink {
    fn event(&self, event: &Event) {
        let mut lines = self.lock();
        let seq = lines.len() as u64;
        let record = TraceRecord {
            seq,
            event: event.clone(),
        };
        match serde_json::to_string(&record) {
            Ok(line) => lines.push(line),
            // The vendored encoder is total over the Value tree; a
            // failure would be a bug, but a trace sink must never abort
            // the synthesis it observes.
            Err(e) => lines.push(format!("{{\"seq\":{seq},\"error\":\"{e}\"}}")),
        }
    }
}

/// Parses a JSONL trace back into records.
///
/// # Errors
///
/// Returns the zero-based line number and parse error for the first
/// malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, (usize, serde_json::Error)> {
    text.lines()
        .enumerate()
        .map(|(i, line)| serde_json::from_str::<TraceRecord>(line).map_err(|e| (i, e)))
        .collect()
}

/// Checks the span-nesting invariant of a trace: every `SpanOpen` has
/// exactly one `SpanClose` with the same id and phase, closes arrive in
/// LIFO order, and no span closes twice or before opening.
///
/// Returns the maximum nesting depth observed.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_span_nesting(records: &[TraceRecord]) -> Result<usize, String> {
    let mut stack: Vec<(u64, &str)> = Vec::new();
    let mut closed = std::collections::BTreeSet::new();
    let mut max_depth = 0;
    for record in records {
        match &record.event {
            Event::SpanOpen { span, phase } => {
                if stack.iter().any(|(id, _)| id == span) || closed.contains(span) {
                    return Err(format!("span {span} ({phase}) opened twice"));
                }
                stack.push((*span, phase.as_str()));
                max_depth = max_depth.max(stack.len());
            }
            Event::SpanClose { span, phase } => match stack.pop() {
                Some((id, open_phase)) if id == *span && open_phase == phase => {
                    closed.insert(*span);
                }
                Some((id, open_phase)) => {
                    return Err(format!(
                        "span {span} ({phase}) closed while {id} ({open_phase}) was innermost"
                    ));
                }
                None => return Err(format!("span {span} ({phase}) closed but never opened")),
            },
            _ => {}
        }
    }
    if let Some((id, phase)) = stack.pop() {
        return Err(format!("span {id} ({phase}) never closed"));
    }
    Ok(max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObserverHandle, RejectReason};
    use std::sync::Arc;

    #[test]
    fn records_are_sequenced_and_parse_back() {
        let sink = TraceSink::new();
        sink.event(&Event::Eviction { cluster: 4 });
        sink.event(&Event::CandidateRejected {
            cluster: 4,
            target: "existing pe0 mode1".into(),
            reason: RejectReason::NoCpuSlot,
        });
        assert_eq!(sink.len(), 2);
        let text = sink.to_jsonl();
        assert!(text.ends_with('\n'));
        let records = parse_jsonl(&text).expect("trace parses");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(
            records[1].event,
            Event::CandidateRejected {
                cluster: 4,
                target: "existing pe0 mode1".into(),
                reason: RejectReason::NoCpuSlot,
            }
        );
    }

    #[test]
    fn identical_event_streams_yield_identical_bytes() {
        let emit = |sink: &TraceSink| {
            sink.event(&Event::SpanOpen {
                span: 0,
                phase: "allocation".into(),
            });
            sink.event(&Event::Placement {
                occupant: "t3#0".into(),
                resource: 2,
                start: 1_000,
                duration: 500,
                period: 25_000,
                spatial: false,
            });
            sink.event(&Event::SpanClose {
                span: 0,
                phase: "allocation".into(),
            });
        };
        let a = TraceSink::new();
        let b = TraceSink::new();
        emit(&a);
        emit(&b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn nesting_checker_accepts_balanced_and_rejects_crossed() {
        let sink = TraceSink::new();
        let handle = ObserverHandle::new(Arc::new(TraceSink::new()));
        drop(handle);
        sink.event(&Event::SpanOpen {
            span: 0,
            phase: "run".into(),
        });
        sink.event(&Event::SpanOpen {
            span: 1,
            phase: "allocation".into(),
        });
        sink.event(&Event::SpanClose {
            span: 1,
            phase: "allocation".into(),
        });
        sink.event(&Event::SpanClose {
            span: 0,
            phase: "run".into(),
        });
        let records = parse_jsonl(&sink.to_jsonl()).expect("parses");
        assert_eq!(check_span_nesting(&records), Ok(2));

        let crossed = vec![
            TraceRecord {
                seq: 0,
                event: Event::SpanOpen {
                    span: 0,
                    phase: "a".into(),
                },
            },
            TraceRecord {
                seq: 1,
                event: Event::SpanOpen {
                    span: 1,
                    phase: "b".into(),
                },
            },
            TraceRecord {
                seq: 2,
                event: Event::SpanClose {
                    span: 0,
                    phase: "a".into(),
                },
            },
        ];
        assert!(check_span_nesting(&crossed).is_err());

        let unclosed = vec![TraceRecord {
            seq: 0,
            event: Event::SpanOpen {
                span: 0,
                phase: "a".into(),
            },
        }];
        assert!(check_span_nesting(&unclosed).is_err());
    }
}
