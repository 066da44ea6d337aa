//! Tracing: spans around the benchmark's calls into each layer, and the
//! per-layer counters the program's own observer reports.
//!
//! Spans are recorded only in a traced run, kept in memory and written
//! out as JSONL when the run ends. Phases with no public entry point
//! (clustering, allocation, reconfiguration and interface synthesis
//! inside `CoSynthesis::run`; the rungs inside the resyn ladder) are
//! measured by attaching `crusade_obs::Metrics` through
//! `CosynOptions::with_observer`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crusade_obs::{Event, Fanout, Metrics, SynthesisObserver};
use serde::Serialize;

/// Per-layer metric values, keyed by metric name.
pub type Counts = BTreeMap<String, f64>;

/// Adds `value` to the counter `key`.
pub(crate) fn add(counts: &mut Counts, key: &str, value: f64) {
    *counts.entry(key.to_string()).or_insert(0.0) += value;
}

/// Every allocation rejection reason the observer reports.
pub(crate) const REJECT_REASONS: [&str; 10] = [
    "NoExecutionTime",
    "ExceedsPeriod",
    "WindowClosed",
    "NoCpuSlot",
    "SuccessorOverlap",
    "EdgeUnroutable",
    "ModeInfeasible",
    "DeadlineMiss",
    "ProducerInversion",
    "Internal",
];

/// Every rung tag of the resyn ladder.
pub(crate) const RUNGS: [&str; 5] = ["in-place", "warm", "widened", "portfolio", "cold"];

#[derive(Serialize)]
struct SpanRecord {
    id: u64,
    name: &'static str,
    op: u64,
    parent: Option<u64>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span `name` of operation `op`, child of
    /// `parent`. `f` receives the span's id (0 when disabled) so nested
    /// calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .push(SpanRecord {
                id,
                name,
                op,
                parent,
                start_us: start.as_secs_f64() * 1e6,
                end_us: end.as_secs_f64() * 1e6,
            });
        out
    }

    /// Per span name: count, total milliseconds, and self milliseconds
    /// (duration minus the part of the interval child spans cover).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0.0;
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut reach = s.start_us;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let total = s.end_us - s.start_us;
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ms += total / 1e3;
            entry.self_ms += (total - covered) / 1e3;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let line = serde_json::to_string(s).expect("span times are finite");
            writeln!(file, "{line}")?;
        }
        file.flush()
    }
}

/// The spans of one name in a run.
#[derive(Debug, Default, Serialize)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: usize,
    /// Their summed duration in milliseconds.
    pub total_ms: f64,
    /// Their summed self time in milliseconds.
    pub self_ms: f64,
}

/// Sums what `Metrics` counts but does not total: candidates pruned.
#[derive(Default)]
struct Tally {
    pruned: AtomicU64,
}

impl SynthesisObserver for Tally {
    fn event(&self, event: &Event) {
        if let Event::CandidatesPruned { pruned, .. } = event {
            self.pruned.fetch_add(*pruned, Ordering::Relaxed);
        }
    }
}

/// The program's observer, attached to one operation.
pub(crate) struct Probe {
    metrics: Arc<Metrics>,
    tally: Arc<Tally>,
}

impl Probe {
    /// A fresh observer pair.
    pub fn new() -> Self {
        Probe {
            metrics: Arc::new(Metrics::new()),
            tally: Arc::new(Tally::default()),
        }
    }

    /// The observer to install with `CosynOptions::with_observer`.
    pub fn observer(&self) -> Arc<dyn SynthesisObserver> {
        Arc::new(
            Fanout::new()
                .with(self.metrics.clone())
                .with(self.tally.clone()),
        )
    }

    /// Adds this operation's layer figures to `counts`.
    pub fn harvest(&self, counts: &mut Counts) {
        let m = self.metrics.snapshot();
        let ms = |phase: &str| m.phase_wall_us.get(phase).copied().unwrap_or(0) as f64 / 1e3;
        let kind = |k: &str| m.events_by_kind.get(k).copied().unwrap_or(0) as f64;
        add(counts, "alloc.ms", ms("allocation"));
        add(counts, "alloc.attempts", m.attempts as f64);
        add(counts, "alloc.accepted", m.accepted as f64);
        for reason in REJECT_REASONS {
            let n = m.rejections_by_reason.get(reason).copied().unwrap_or(0);
            add(counts, &format!("alloc.rejected.{reason}"), n as f64);
        }
        add(
            counts,
            "alloc.pruned",
            self.tally.pruned.load(Ordering::Relaxed) as f64,
        );
        add(counts, "sched.placements", m.placements as f64);
        add(counts, "sched.preemptions", m.preemptions as f64);
        add(counts, "cluster.ms", ms("clustering"));
        add(counts, "cluster.clusters", kind("ClusterFormed"));
        add(counts, "reconfig.ms", ms("reconfiguration"));
        add(counts, "reconfig.merges_examined", m.merges_examined as f64);
        add(counts, "reconfig.merges_accepted", m.merges_accepted as f64);
        add(counts, "interface.ms", ms("interface"));
        add(counts, "fabric.delay_evals", m.delay_evaluations as f64);
        add(counts, "fabric.boot_charges", m.boot_charges as f64);
        add(counts, "resyn.deltas", kind("DeltaApplied"));
        add(counts, "resyn.escalations", kind("EscalationStep"));
        add(counts, "resyn.total_ms", ms("resyn"));
        for rung in ["admission", "warm", "widened", "portfolio", "cold"] {
            add(counts, &format!("resyn.{rung}_ms"), ms(rung));
        }
    }
}

/// Fills in the ratios and self times derived from summed counters.
pub(crate) fn derive(counts: &mut Counts) {
    let get = |c: &Counts, k: &str| c.get(k).copied().unwrap_or(0.0);
    let attempts = get(counts, "alloc.attempts");
    let (per_attempt, ratio) = if attempts > 0.0 {
        (
            get(counts, "alloc.ms") * 1e3 / attempts,
            get(counts, "alloc.accepted") / attempts,
        )
    } else {
        (0.0, 0.0)
    };
    counts.insert("alloc.us_per_attempt".into(), per_attempt);
    counts.insert("alloc.accept_ratio".into(), ratio);
    let children: f64 = ["admission", "warm", "widened", "portfolio", "cold"]
        .iter()
        .map(|r| get(counts, &format!("resyn.{r}_ms")))
        .sum();
    let total = counts.remove("resyn.total_ms").unwrap_or(0.0);
    counts.insert("resyn.self_ms".into(), (total - children).max(0.0));
}

/// Whether a per-layer metric is a time (varies run to run) rather than
/// a count.
pub(crate) fn is_timing(name: &str) -> bool {
    name.ends_with("ms") || name == "alloc.us_per_attempt" || name == "obs.overhead_pct"
}
