//! The metric catalog, the run record and the result line.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Serialize, Value};

use crate::trace::{is_timing, Counts, SpanTotals, REJECT_REASONS, RUNGS};

/// The end-to-end metrics every workload prints with tracing off. The
/// run record also carries `resyn_p90_ms`, which is not gated: the
/// serve-mix resyn requests that escalate to the portfolio rung take
/// several times longer than the rest, so their p90 sits near the
/// boundary between the two modes and jumps between them from seed to
/// seed.
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cost_usd", "USD"),
    ("geomean_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("resyn_p50_ms", "ms"),
];

/// The per-layer metrics every workload prints with tracing on, in
/// layer order, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<String> = ["alloc.ms", "alloc.attempts", "alloc.accepted"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    names.extend(REJECT_REASONS.iter().map(|r| format!("alloc.rejected.{r}")));
    names.extend(
        [
            "alloc.pruned",
            "alloc.us_per_attempt",
            "alloc.accept_ratio",
            "sched.placements",
            "sched.preemptions",
            "cluster.ms",
            "cluster.clusters",
            "reconfig.ms",
            "reconfig.merges_examined",
            "reconfig.merges_accepted",
            "interface.ms",
            "fabric.delay_evals",
            "fabric.boot_charges",
            "lint.ms",
            "lint.infeasible_flagged",
            "audit.calls",
            "audit.ms",
            "audit.violations",
            "explore.members",
            "explore.clean",
            "explore.failed",
            "explore.dominated",
            "explore.skipped_by_bound",
            "explore.cache_lookups",
            "explore.cache_hits",
            "resyn.deltas",
            "resyn.admission_ms",
            "resyn.warm_ms",
            "resyn.widened_ms",
            "resyn.portfolio_ms",
            "resyn.cold_ms",
            "resyn.self_ms",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names.extend(RUNGS.iter().map(|r| format!("resyn.rung.{r}")));
    names.extend(
        [
            "resyn.escalations",
            "serve.queue_ms",
            "serve.run_ms",
            "serve.overhead_ms",
            "serve.request_bytes",
            "serve.cache_hits",
            "serve.cache_misses",
            "serve.refused",
            "gen.specs",
            "gen.tasks",
            "gen.ms",
            "obs.overhead_pct",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names
        .into_iter()
        .map(|name| {
            let unit = match name.as_str() {
                "alloc.us_per_attempt" => "us",
                "alloc.accept_ratio" => "ratio",
                "serve.request_bytes" => "B",
                "obs.overhead_pct" => "%",
                n if is_timing(n) => "ms",
                _ => "count",
            };
            (name, unit)
        })
        .collect()
}

/// A count's (min, median, max) over the traced passes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Spread {
    /// The smallest value.
    pub min: f64,
    /// The median value.
    pub median: f64,
    /// The largest value.
    pub max: f64,
}

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Distinct operations attempted; every pass repeats them.
    pub attempted: u64,
    /// Those that failed (explorations with no audit-clean member,
    /// refused or failed requests, resyn errors).
    pub failed: u64,
    /// Correctness-gate breaks; empty when every check passed.
    pub problems: Vec<String>,
    /// End-to-end metrics of the untraced passes.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics of the traced passes (traced runs only).
    pub layers: Counts,
    /// Sample counts behind each median and percentile.
    pub samples: BTreeMap<String, usize>,
    /// Counts that must repeat exactly at one seed.
    pub deterministic: Counts,
    /// Counts that depend on the thread schedule, over the traced
    /// passes.
    pub schedule_dependent: BTreeMap<String, Spread>,
    /// Measured passes (untraced, traced).
    pub passes: (usize, usize),
    /// Wall time of each untraced pass, in seconds.
    pub pass_walls_s: Vec<f64>,
}

/// A JSON object of `entries` in their order (the vendored serde writes
/// a map type as a list of pairs).
fn object<K: ToString, V: Serialize>(entries: impl IntoIterator<Item = (K, V)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.serialize_value()))
            .collect(),
    )
}

/// Compact JSON; every number the benchmark reports is finite.
fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("every reported number is finite")
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric `BENCHMARK.json` lists (end-to-end untraced, per-layer
/// traced).
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<(String, Metric)> = if traced {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.layers.get(&name).copied().unwrap_or(0.0);
                (name, Metric { value, unit })
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = outcome.end_to_end.get(name).copied().unwrap_or(0.0);
                (name.to_string(), Metric { value, unit })
            })
            .collect()
    };
    json(&ResultLine {
        correct: outcome.problems.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: object(metrics),
    })
}

/// Where the code under test came from, for the run record.
pub struct Provenance {
    /// `git rev-parse HEAD` of the checkout, or `none` when it is not a
    /// git repository.
    pub git_rev: String,
    /// FNV-1a digest of the workspace sources, identifying the code
    /// even where there is no git metadata.
    pub source_digest: String,
    /// Cores available to the process.
    pub nproc: usize,
}

impl Provenance {
    /// Collects the provenance of the checkout at `root`.
    pub fn collect(root: &Path) -> Provenance {
        // Only a repository rooted at the checkout itself names its code;
        // git is not asked to search the directories above it.
        let git_rev = root
            .join(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(root)
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".to_string());
        let mut files = Vec::new();
        collect_sources(&root.join("crates"), &mut files);
        files.push(root.join("Cargo.lock"));
        files.sort();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for path in files {
            let bytes = std::fs::read(&path).unwrap_or_default();
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            for b in rel.as_bytes().iter().chain(&bytes) {
                hash ^= u64::from(*b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        Provenance {
            git_rev,
            source_digest: format!("{hash:016x}"),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

#[derive(Serialize)]
struct Passes {
    untraced: usize,
    traced: usize,
}

#[derive(Serialize)]
struct CountRecord {
    deterministic: Value,
    schedule_dependent: Value,
}

#[derive(Serialize)]
struct RunRecord {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    nproc: usize,
    git_rev: String,
    source_digest: String,
    attempted: u64,
    failed: u64,
    correct: bool,
    problems: Vec<String>,
    passes: Passes,
    samples: Value,
    pass_walls_s: Vec<f64>,
    end_to_end: Value,
    per_layer: Value,
    tracing_overhead_pct: Option<f64>,
    counts: CountRecord,
    spans: Value,
}

/// The run record: everything the result line omits, so a number can
/// be traced back to its host, code, seed and sample counts.
pub fn record(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    provenance: &Provenance,
    outcome: &Outcome,
    spans: &BTreeMap<&'static str, SpanTotals>,
) -> String {
    json(&RunRecord {
        workload: workload.to_string(),
        seed,
        seconds,
        trace: traced,
        nproc: provenance.nproc,
        git_rev: provenance.git_rev.clone(),
        source_digest: provenance.source_digest.clone(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        correct: outcome.problems.is_empty(),
        problems: outcome.problems.clone(),
        passes: Passes {
            untraced: outcome.passes.0,
            traced: outcome.passes.1,
        },
        samples: object(&outcome.samples),
        pass_walls_s: outcome.pass_walls_s.clone(),
        end_to_end: object(&outcome.end_to_end),
        per_layer: object(&outcome.layers),
        tracing_overhead_pct: outcome.layers.get("obs.overhead_pct").copied(),
        counts: CountRecord {
            deterministic: object(&outcome.deterministic),
            schedule_dependent: object(&outcome.schedule_dependent),
        },
        spans: object(spans),
    })
}
