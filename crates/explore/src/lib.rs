//! `crusade-explore`: parallel multi-start design-space exploration for
//! CRUSADE co-synthesis.
//!
//! CRUSADE is a constructive heuristic — one cluster ordering, one
//! tie-break, one architecture out — and the paper itself notes its
//! sensitivity to both. This crate runs a *portfolio* of
//! [`SynthesisPolicy`] variants (perturbed cluster orderings, allocation
//! tie-break seeds, reconfiguration-aggressiveness knobs) concurrently and
//! reduces to the cheapest deadline-feasible architecture.
//!
//! Each member is an independent [`CoSynthesis::run`] plus audit. Members
//! share the cancellation flag and, read-only, one [`Preamble`] per
//! distinct [`PreambleKey`]: the clustering and allocator bounds that
//! depend only on the spec, the library and three options.
//!
//! # Determinism
//!
//! Every policy is deterministic, and the only state members share is a
//! preamble that is a pure function of its key, so every member runs to
//! completion with the same result at any worker count,
//! and the reduction `min by (cost, policy-id)` over them is
//! schedule-independent. The winner — architecture, cost and policy —
//! the member reports and the allocation counters aggregated over all
//! members are therefore bit-identical for any `jobs` value. A cancelled
//! exploration is an error ([`ExploreError::Cancelled`]), never a
//! partial winner.
//!
//! # Examples
//!
//! ```
//! use crusade_explore::{explore, ExploreConfig, ExploreError};
//! use crusade_workloads::{paper_library, random_example};
//!
//! # fn main() -> Result<(), ExploreError> {
//! let lib = paper_library();
//! let spec = random_example(7).build(&lib);
//! let outcome = explore(&spec, &lib.lib, &ExploreConfig::new(4, 2))?;
//! assert_eq!(outcome.stats.portfolio, 4);
//! // The winner is audit-clean by construction.
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use serde::Serialize;

use crusade_core::{
    CoSynthesis, CosynOptions, Preamble, PreambleKey, SynthesisError, SynthesisPolicy,
    SynthesisResult,
};
use crusade_model::{Dollars, ResourceLibrary, SystemSpec};
use crusade_obs::{Event, Fanout, Metrics, MetricsSnapshot, TraceSink};

pub use crusade_core::splitmix64;

mod resyn;

pub use resyn::{
    resynthesize_sequence, DeltaStep, ResynConfig, ResynError, ResynOutcome, ResynReport, Rung,
};

/// Configuration of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Number of portfolio members (policy variants). At least 1; member
    /// 0 is always the baseline (the paper's sequential CRUSADE pass).
    pub portfolio: usize,
    /// Number of worker threads. At least 1; capped at the portfolio
    /// size.
    pub jobs: usize,
    /// Base synthesis options every member starts from (its policy field
    /// is replaced per member).
    pub base: CosynOptions,
    /// External cooperative-cancellation token. When set, raising the
    /// flag stops every member at its next allocation step and the
    /// exploration returns [`ExploreError::Cancelled`]; when `None` the
    /// exploration owns a private, never-raised flag.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl ExploreConfig {
    /// A configuration with default synthesis options.
    pub fn new(portfolio: usize, jobs: usize) -> Self {
        ExploreConfig {
            portfolio,
            jobs,
            base: CosynOptions::default(),
            cancel: None,
        }
    }

    /// Replaces the base synthesis options (builder style).
    pub fn with_base(mut self, base: CosynOptions) -> Self {
        self.base = base;
        self
    }

    /// Attaches an external cancellation token (builder style).
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// How one portfolio member ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum MemberStatus {
    /// Completed and passed the independent audit (eligible to win).
    Clean,
    /// Completed but the auditor found violations (never wins).
    AuditRejected,
    /// Synthesis failed (infeasible under this policy's knobs, or an
    /// internal error).
    Failed,
}

/// Per-member record of an exploration.
#[derive(Debug, Clone, Serialize)]
pub struct MemberReport {
    /// The policy this member ran.
    pub policy: SynthesisPolicy,
    /// How the member ended.
    pub status: MemberStatus,
    /// Final architecture cost, for members that completed.
    pub cost: Option<Dollars>,
    /// Failure / rejection detail, when there is any.
    pub detail: Option<String>,
}

/// Aggregate statistics of an exploration. Every member runs to
/// completion, so none of these depends on thread timing: all are the
/// same for any `jobs` value except `jobs` itself.
#[derive(Debug, Clone, Serialize)]
pub struct ExploreStats {
    /// Portfolio size.
    pub portfolio: usize,
    /// Worker threads used: the requested jobs, capped at the portfolio
    /// size.
    pub jobs: usize,
    /// Members that completed audit-clean.
    pub clean: usize,
    /// Always 0: members are never aborted early. Kept for existing
    /// readers of the record.
    pub dominated: usize,
    /// Always 0: members are never skipped. Kept for existing readers of
    /// the record.
    pub skipped_by_bound: usize,
    /// Members rejected by the post-run audit.
    pub audit_rejected: usize,
    /// Members that failed to synthesize.
    pub failed: usize,
    /// Always 0: members share no evaluation cache. Kept for existing
    /// readers of the record.
    pub cache_hits: u64,
    /// Always 0: members share no evaluation cache. Kept for existing
    /// readers of the record.
    pub cache_lookups: u64,
}

/// The result of an exploration: the deterministic winner, the member
/// reports and aggregate statistics.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// The cheapest audit-clean architecture (ties broken by lowest
    /// policy id). Bit-identical for any `jobs` value.
    pub winner: SynthesisResult,
    /// The policy that produced the winner.
    pub policy: SynthesisPolicy,
    /// Per-member records, in policy order.
    pub members: Vec<MemberReport>,
    /// Aggregate statistics.
    pub stats: ExploreStats,
}

/// Why an exploration produced no architecture.
#[derive(Debug, Clone)]
pub enum ExploreError {
    /// No portfolio member completed audit-clean; the details hold one
    /// line per member.
    NoFeasibleMember {
        /// `policy-id: status/detail` lines, in policy order.
        details: Vec<String>,
    },
    /// The cancellation flag stopped at least one member before it
    /// finished, so the reduction could not see every member.
    Cancelled,
    /// The winner-policy replay of [`explore_traced`] failed — an
    /// internal inconsistency, since the same deterministic policy just
    /// completed audit-clean inside the portfolio.
    ReplayFailed {
        /// The winning policy id.
        policy: u32,
        /// The synthesis error.
        detail: String,
    },
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::NoFeasibleMember { details } => {
                write!(
                    f,
                    "no portfolio member produced an audit-clean architecture"
                )?;
                for d in details.iter().take(4) {
                    write!(f, "; {d}")?;
                }
                if details.len() > 4 {
                    write!(f, "; …")?;
                }
                Ok(())
            }
            ExploreError::ReplayFailed { policy, detail } => {
                write!(f, "winner-policy {policy} replay failed: {detail}")
            }
            ExploreError::Cancelled => write!(f, "exploration cancelled"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// The default policy portfolio of size `m`: member 0 is the baseline,
/// the rest cycle through ordering perturbations, tie-break seeds,
/// cluster-size-cap variants, and reconfiguration-aggressiveness
/// variants, all seeded deterministically from the member index.
pub fn default_portfolio(m: usize) -> Vec<SynthesisPolicy> {
    let m = m.max(1);
    let mut portfolio = Vec::with_capacity(m);
    for i in 0..m {
        #[allow(clippy::cast_possible_truncation)] // portfolio sizes are tiny
        let mut p = SynthesisPolicy {
            id: i as u32,
            ..SynthesisPolicy::baseline()
        };
        match (i > 0).then_some(i % 4) {
            Some(1) => p.ordering_seed = splitmix64(i as u64),
            Some(2) => p.tie_break_seed = splitmix64(i as u64),
            Some(3) => {
                p.cluster_size_cap = Some([6, 10, 12, 4][(i / 4) % 4]);
                p.ordering_seed = splitmix64((i as u64) << 8);
            }
            Some(_) => {
                p.max_modes_per_device = Some([4, 16, 2, 12][(i / 4) % 4]);
                p.tie_break_seed = splitmix64((i as u64) << 16);
                if (i / 4) % 2 == 1 {
                    p.image_sharing = Some(false);
                }
            }
            None => {}
        }
        portfolio.push(p);
    }
    portfolio
}

/// Runs the default portfolio of `config.portfolio` policies over
/// `config.jobs` worker threads and reduces to the cheapest audit-clean
/// architecture.
///
/// # Errors
///
/// [`ExploreError::NoFeasibleMember`] when no member completes
/// audit-clean — the specification is infeasible against the library (or
/// every policy variant broke it) — and [`ExploreError::Cancelled`] when
/// the cancellation flag stopped any member.
pub fn explore(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    config: &ExploreConfig,
) -> Result<ExploreOutcome, ExploreError> {
    explore_portfolio(spec, lib, config, &default_portfolio(config.portfolio))
}

/// [`explore`] with an explicit policy portfolio. Policy ids should be
/// distinct — they are the deterministic tie-break.
///
/// # Errors
///
/// As for [`explore`].
pub fn explore_portfolio(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    config: &ExploreConfig,
    policies: &[SynthesisPolicy],
) -> Result<ExploreOutcome, ExploreError> {
    let local_cancel = AtomicBool::new(false);
    let cancel: &AtomicBool = config.cancel.as_deref().unwrap_or(&local_cancel);
    // Lowest audit-clean cost seen so far; only decides when to emit
    // `IncumbentUpdate`, never what a member does.
    let best_clean = AtomicU64::new(u64::MAX);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<MemberOutcome>>> =
        policies.iter().map(|_| Mutex::new(None)).collect();
    let workers = worker_count(config, policies.len());
    let options: Vec<CosynOptions> = policies
        .iter()
        .map(|policy| config.base.clone().with_policy(policy.clone()))
        .collect();
    // One preamble per distinct key, built by the first worker that needs
    // it and shared read-only with every member of that key.
    let mut keys: Vec<PreambleKey> = Vec::new();
    let key_of: Vec<usize> = options
        .iter()
        .map(|o| {
            let key = PreambleKey::of(o);
            keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            })
        })
        .collect();
    let preambles: Vec<OnceLock<Result<Preamble<'_>, SynthesisError>>> =
        keys.iter().map(|_| OnceLock::new()).collect();

    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(options) = options.get(i) else {
                    break;
                };
                let preamble =
                    preambles[key_of[i]].get_or_init(|| Preamble::new(spec, lib, options));
                let outcome = match preamble {
                    Ok(preamble) => {
                        run_member(spec, lib, config, options, preamble, cancel, &best_clean)
                    }
                    Err(e) => MemberOutcome::Failed(e.to_string()),
                };
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(outcome);
                }
            });
        }
    });

    let outcomes: Vec<MemberOutcome> = slots
        .into_iter()
        .map(|m| {
            match m.into_inner() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            }
            .unwrap_or(MemberOutcome::Failed("worker never reported".into()))
        })
        .collect();
    reduce(policies, outcomes, config)
}

/// The result of [`explore_traced`]: the exploration outcome plus the
/// deterministic winner-replay trace and its metrics.
#[derive(Debug)]
pub struct TracedExplore {
    /// The exploration outcome. Its winner is the replayed architecture —
    /// bit-identical to the portfolio's copy by the determinism
    /// guarantee; a replay whose cost differs is returned as
    /// [`ExploreError::ReplayFailed`].
    pub outcome: ExploreOutcome,
    /// JSONL trace of the winner replay, one record per line, ending in
    /// a newline. Byte-identical for any `jobs` value.
    pub trace_jsonl: String,
    /// Metrics snapshot of the winner replay.
    pub metrics: MetricsSnapshot,
}

/// [`explore`] followed by a *winner replay*: the winning policy is
/// re-run solo — no sibling threads — with a trace and metrics observer
/// attached. Every policy is deterministic, so the replay reproduces the
/// winner exactly, and the returned trace is byte-identical for any
/// `jobs` value: the interleaving of member events never reaches the
/// trace.
///
/// # Errors
///
/// The errors of [`explore`], and [`ExploreError::ReplayFailed`] if the
/// replay diverges (which would be a determinism bug, not a property of
/// the input).
pub fn explore_traced(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    config: &ExploreConfig,
) -> Result<TracedExplore, ExploreError> {
    let mut outcome = explore(spec, lib, config)?;
    let trace = Arc::new(TraceSink::new());
    let metrics = Arc::new(Metrics::new());
    let fanout = Fanout::new().with(trace.clone()).with(metrics.clone());
    let options = config
        .base
        .clone()
        .with_policy(outcome.policy.clone())
        .with_observer(Arc::new(fanout));
    let replay = CoSynthesis::new(spec, lib)
        .with_options(options)
        .run()
        .map_err(|e| ExploreError::ReplayFailed {
            policy: outcome.policy.id,
            detail: e.to_string(),
        })?;
    if replay.report.cost != outcome.winner.report.cost {
        return Err(ExploreError::ReplayFailed {
            policy: outcome.policy.id,
            detail: format!(
                "replay cost {} != portfolio winner cost {}",
                replay.report.cost, outcome.winner.report.cost
            ),
        });
    }
    outcome.winner = replay;
    Ok(TracedExplore {
        outcome,
        trace_jsonl: trace.to_jsonl(),
        metrics: metrics.snapshot(),
    })
}

/// Worker threads for a portfolio of `members`: the requested jobs,
/// never more than there are members to run.
fn worker_count(config: &ExploreConfig, members: usize) -> usize {
    config.jobs.max(1).min(members.max(1))
}

/// What one worker records for one member.
enum MemberOutcome {
    Clean(Box<SynthesisResult>),
    AuditRejected(Vec<String>),
    Cancelled,
    Failed(String),
}

/// Runs one portfolio member end to end on its shared preamble:
/// synthesis, then the independent audit.
fn run_member(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    config: &ExploreConfig,
    options: &CosynOptions,
    preamble: &Preamble<'_>,
    cancel: &AtomicBool,
    best_clean: &AtomicU64,
) -> MemberOutcome {
    match CoSynthesis::new(spec, lib)
        .with_options(options.clone())
        .with_cancel(cancel)
        .with_prepared(preamble)
        .run()
    {
        Ok(result) => {
            let violations = crusade_verify::audit(spec, lib, &options.effective(), &result);
            if violations.is_empty() {
                let cost = result.report.cost.amount();
                if best_clean.fetch_min(cost, Ordering::Relaxed) > cost {
                    config.base.observer.emit(|| Event::IncumbentUpdate {
                        policy: u64::from(options.policy.id),
                        cost,
                    });
                }
                MemberOutcome::Clean(Box::new(result))
            } else {
                MemberOutcome::AuditRejected(violations.iter().map(|v| v.to_string()).collect())
            }
        }
        Err(SynthesisError::Cancelled) => MemberOutcome::Cancelled,
        Err(e) => MemberOutcome::Failed(e.to_string()),
    }
}

/// Deterministic reduction: minimum `(cost, policy-id)` over audit-clean
/// members, packaged with per-member reports and aggregate stats.
fn reduce(
    policies: &[SynthesisPolicy],
    outcomes: Vec<MemberOutcome>,
    config: &ExploreConfig,
) -> Result<ExploreOutcome, ExploreError> {
    let mut stats = ExploreStats {
        portfolio: policies.len(),
        jobs: worker_count(config, policies.len()),
        clean: 0,
        dominated: 0,
        skipped_by_bound: 0,
        audit_rejected: 0,
        failed: 0,
        cache_hits: 0,
        cache_lookups: 0,
    };
    let mut members = Vec::with_capacity(policies.len());
    let mut winner: Option<(u64, u32, Box<SynthesisResult>, SynthesisPolicy)> = None;
    for (policy, outcome) in policies.iter().zip(outcomes) {
        let report = match outcome {
            MemberOutcome::Clean(result) => {
                stats.clean += 1;
                let cost = result.report.cost;
                let key = (cost.amount(), policy.id);
                let report = MemberReport {
                    policy: policy.clone(),
                    status: MemberStatus::Clean,
                    cost: Some(cost),
                    detail: None,
                };
                if winner.as_ref().map_or(true, |(c, id, ..)| key < (*c, *id)) {
                    winner = Some((key.0, key.1, result, policy.clone()));
                }
                report
            }
            MemberOutcome::AuditRejected(violations) => {
                stats.audit_rejected += 1;
                MemberReport {
                    policy: policy.clone(),
                    status: MemberStatus::AuditRejected,
                    cost: None,
                    detail: violations.first().cloned(),
                }
            }
            MemberOutcome::Cancelled => return Err(ExploreError::Cancelled),
            MemberOutcome::Failed(detail) => {
                stats.failed += 1;
                MemberReport {
                    policy: policy.clone(),
                    status: MemberStatus::Failed,
                    cost: None,
                    detail: Some(detail),
                }
            }
        };
        members.push(report);
    }
    match winner {
        Some((_, _, result, policy)) => Ok(ExploreOutcome {
            winner: *result,
            policy,
            members,
            stats,
        }),
        None => Err(ExploreError::NoFeasibleMember {
            details: members
                .iter()
                .map(|m| {
                    format!(
                        "policy {}: {:?}{}",
                        m.policy.id,
                        m.status,
                        m.detail
                            .as_deref()
                            .map(|d| format!(" ({d})"))
                            .unwrap_or_default()
                    )
                })
                .collect(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_portfolio_shapes() {
        let p = default_portfolio(9);
        assert_eq!(p.len(), 9);
        assert!(p[0].is_baseline());
        // Ids are the positions (the deterministic tie-break).
        for (i, policy) in p.iter().enumerate() {
            assert_eq!(policy.id as usize, i);
        }
        // Every non-baseline member actually varies something.
        assert!(p.iter().skip(1).all(|p| !p.is_baseline()));
        // Deterministic.
        assert_eq!(p, default_portfolio(9));
        assert_eq!(default_portfolio(0).len(), 1);
    }

    #[test]
    fn portfolio_covers_every_knob_family() {
        let p = default_portfolio(8);
        assert!(p.iter().any(|p| p.ordering_seed != 0));
        assert!(p.iter().any(|p| p.tie_break_seed != 0));
        assert!(p.iter().any(|p| p.cluster_size_cap.is_some()));
        assert!(p.iter().any(|p| p.max_modes_per_device.is_some()));
    }
}
