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
//! Three mechanisms keep the search fast without ever changing the
//! answer:
//!
//! * a shared [`EvalCache`] of failed allocation attempts, keyed by the
//!   decision-prefix hash, so members retreading a shared prefix skip
//!   scheduling attempts that provably fail again;
//! * a shared [`CostIncumbent`] updated **only** with audit-clean
//!   completed costs; members abort as dominated once a sound lower bound
//!   on their final cost *strictly* exceeds it;
//! * the `crusade-lint` bin-packing [`cost_lower_bound`]: once the
//!   incumbent equals the spec-wide floor, members that could at best tie
//!   with a lower-id winner are skipped outright.
//!
//! # Determinism
//!
//! The reduced winner — architecture, cost, and winning policy — is
//! bit-identical regardless of worker count or thread schedule. The
//! argument: every policy is itself deterministic; the incumbent only
//! ever *decreases* and only to audit-clean achieved costs, so for a run
//! whose final cost is the portfolio minimum every domination test
//! compares a lower bound on that minimum against an incumbent at least
//! as large — with a strict comparison it never aborts. The same holds
//! for ties, and the lint-floor skip only ever drops members that would
//! lose the `(cost, policy-id)` tie-break to an already-completed
//! winner. Hence exactly the potential winners always complete, and the
//! reduction `min by (cost, policy-id)` is schedule-independent. Member
//! *statistics* (which runs were dominated or skipped, cache hit counts)
//! are schedule-dependent and deliberately excluded from that guarantee.
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

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use serde::Serialize;

use crusade_core::{
    CoSynthesis, CostIncumbent, CosynOptions, EvalCache, PortfolioHooks, SynthesisError,
    SynthesisPolicy, SynthesisResult,
};
use crusade_lint::cost_lower_bound;
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
    /// Whether members share the negative evaluation cache.
    pub share_cache: bool,
    /// External cooperative-cancellation token. When set, raising the
    /// flag aborts every member at its next allocation step (status
    /// [`MemberStatus::Cancelled`]); when `None` the exploration owns a
    /// private, never-raised flag.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl ExploreConfig {
    /// A configuration with default synthesis options and the cache on.
    pub fn new(portfolio: usize, jobs: usize) -> Self {
        ExploreConfig {
            portfolio,
            jobs,
            base: CosynOptions::default(),
            share_cache: true,
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
    /// Completed but the auditor found violations (never wins, never
    /// updates the incumbent).
    AuditRejected,
    /// Aborted early: a sound lower bound on its final cost strictly
    /// exceeded the incumbent.
    Dominated,
    /// Never started: the incumbent already equals the lint cost floor
    /// and a lower-id member holds it, so this member could only lose
    /// the tie-break.
    SkippedByBound,
    /// Stopped by the cooperative cancellation flag.
    Cancelled,
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

/// Aggregate statistics of an exploration. Everything here except
/// `portfolio`, `jobs`, and `cost_lower_bound` depends on thread timing
/// and is *not* covered by the determinism guarantee.
#[derive(Debug, Clone, Serialize)]
pub struct ExploreStats {
    /// Portfolio size.
    pub portfolio: usize,
    /// Worker threads used: the requested jobs, capped at the portfolio
    /// size.
    pub jobs: usize,
    /// Members that completed audit-clean.
    pub clean: usize,
    /// Members aborted by incumbent domination (the pruned-run count).
    pub dominated: usize,
    /// Members skipped outright by the lint cost floor.
    pub skipped_by_bound: usize,
    /// Members rejected by the post-run audit.
    pub audit_rejected: usize,
    /// Members that failed to synthesize.
    pub failed: usize,
    /// Shared-cache hits (lookups that skipped a scheduling attempt).
    pub cache_hits: u64,
    /// Shared-cache lookups.
    pub cache_lookups: u64,
    /// Distinct failure entries recorded in the shared cache.
    pub cache_entries: usize,
    /// The `crusade-lint` bin-packing floor on any feasible architecture
    /// cost (zero when the analysis finds no binding floor).
    pub cost_lower_bound: Dollars,
}

impl ExploreStats {
    /// Fraction of cache lookups that were hits (0.0 when none).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cache_hits as f64 / self.cache_lookups as f64
            }
        }
    }
}

/// The result of an exploration: the deterministic winner plus
/// schedule-dependent statistics.
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
/// every policy variant broke it).
pub fn explore(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    config: &ExploreConfig,
) -> Result<ExploreOutcome, ExploreError> {
    explore_portfolio(spec, lib, config, &default_portfolio(config.portfolio))
}

/// [`explore`] with an explicit policy portfolio. Policy ids should be
/// distinct — they are the deterministic tie-break.
pub fn explore_portfolio(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    config: &ExploreConfig,
    policies: &[SynthesisPolicy],
) -> Result<ExploreOutcome, ExploreError> {
    let incumbent = CostIncumbent::new();
    let cache = EvalCache::new();
    let local_cancel = AtomicBool::new(false);
    let cancel: &AtomicBool = config.cancel.as_deref().unwrap_or(&local_cancel);
    let floor = cost_lower_bound(spec, lib, &config.base.lint_options());
    // Best (cost, policy-id) achieved by an audit-clean member so far;
    // feeds the lint-floor skip rule only — the final reduction re-scans
    // all completed members.
    let best_clean: Mutex<Option<(u64, u32)>> = Mutex::new(None);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<MemberOutcome>>> =
        policies.iter().map(|_| Mutex::new(None)).collect();
    let workers = worker_count(config, policies.len());

    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(policy) = policies.get(i) else {
                    break;
                };
                let outcome = run_member(
                    spec,
                    lib,
                    config,
                    policy,
                    floor,
                    &incumbent,
                    &cache,
                    cancel,
                    &best_clean,
                );
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
    reduce(policies, outcomes, config, &cache, floor)
}

/// The result of [`explore_traced`]: the exploration outcome plus the
/// deterministic winner-replay trace and its metrics.
#[derive(Debug)]
pub struct TracedExplore {
    /// The exploration outcome. Its winner is the replayed architecture —
    /// bit-identical to the portfolio's copy by the determinism
    /// guarantee (debug builds assert the costs agree).
    pub outcome: ExploreOutcome,
    /// JSONL trace of the winner replay, one record per line, ending in
    /// a newline. Byte-identical for any `jobs` value.
    pub trace_jsonl: String,
    /// Metrics snapshot of the winner replay.
    pub metrics: MetricsSnapshot,
}

/// [`explore`] followed by a *winner replay*: the winning policy is
/// re-run solo — no portfolio hooks, no sibling threads — with a trace
/// and metrics observer attached. Every policy is deterministic, so the
/// replay reproduces the winner exactly, and the returned trace is
/// byte-identical for any `jobs` value: exploration scheduling noise
/// (domination aborts, cache hits, member interleaving) never reaches
/// the trace.
///
/// # Errors
///
/// [`ExploreError::NoFeasibleMember`] as for [`explore`], and
/// [`ExploreError::ReplayFailed`] if the replay diverges (which would be
/// a determinism bug, not a property of the input).
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
    Dominated,
    SkippedByBound,
    Cancelled,
    Failed(String),
}

/// Runs one portfolio member end to end (lint-floor skip check, synthesis
/// with shared hooks, independent audit, incumbent update).
#[allow(clippy::too_many_arguments)]
fn run_member(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    config: &ExploreConfig,
    policy: &SynthesisPolicy,
    floor: Dollars,
    incumbent: &CostIncumbent,
    cache: &EvalCache,
    cancel: &AtomicBool,
    best_clean: &Mutex<Option<(u64, u32)>>,
) -> MemberOutcome {
    // Winner-preserving skip: once the incumbent sits on the lint floor
    // no member can do strictly better, so a member that would also lose
    // the (cost, id) tie-break to the floor-holder need not run at all.
    if floor.amount() > 0 && incumbent.get() == floor.amount() {
        let beaten = best_clean
            .lock()
            .map(|b| b.is_some_and(|(c, id)| c == floor.amount() && id < policy.id))
            .unwrap_or(false);
        if beaten {
            config.base.observer.emit(|| Event::MemberSkipped {
                policy: u64::from(policy.id),
            });
            return MemberOutcome::SkippedByBound;
        }
    }
    let options = config.base.clone().with_policy(policy.clone());
    let hooks = PortfolioHooks {
        incumbent,
        cache: config.share_cache.then_some(cache),
        cancel,
    };
    match CoSynthesis::new(spec, lib)
        .with_options(options.clone())
        .with_portfolio_hooks(hooks)
        .run()
    {
        Ok(result) => {
            // Independent audit; only clean members may move the
            // incumbent (anything else could abort a run that the
            // deterministic reduction still needs).
            let violations = crusade_verify::audit(spec, lib, &options.effective(), &result);
            if violations.is_empty() {
                let cost = result.report.cost.amount();
                if cost < incumbent.get() {
                    config.base.observer.emit(|| Event::IncumbentUpdate {
                        policy: u64::from(policy.id),
                        cost,
                    });
                }
                incumbent.observe(cost);
                if let Ok(mut b) = best_clean.lock() {
                    if b.map_or(true, |(c, id)| (cost, policy.id) < (c, id)) {
                        *b = Some((cost, policy.id));
                    }
                }
                MemberOutcome::Clean(Box::new(result))
            } else {
                MemberOutcome::AuditRejected(violations.iter().map(|v| v.to_string()).collect())
            }
        }
        Err(SynthesisError::Dominated { .. }) => {
            config.base.observer.emit(|| Event::DominationAbort {
                policy: u64::from(policy.id),
            });
            MemberOutcome::Dominated
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
    cache: &EvalCache,
    floor: Dollars,
) -> Result<ExploreOutcome, ExploreError> {
    let mut stats = ExploreStats {
        portfolio: policies.len(),
        jobs: worker_count(config, policies.len()),
        clean: 0,
        dominated: 0,
        skipped_by_bound: 0,
        audit_rejected: 0,
        failed: 0,
        cache_hits: cache.stats().0,
        cache_lookups: cache.stats().1,
        cache_entries: cache.len(),
        cost_lower_bound: floor,
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
            MemberOutcome::Dominated => {
                stats.dominated += 1;
                MemberReport {
                    policy: policy.clone(),
                    status: MemberStatus::Dominated,
                    cost: None,
                    detail: None,
                }
            }
            MemberOutcome::SkippedByBound => {
                stats.skipped_by_bound += 1;
                MemberReport {
                    policy: policy.clone(),
                    status: MemberStatus::SkippedByBound,
                    cost: None,
                    detail: None,
                }
            }
            MemberOutcome::Cancelled => MemberReport {
                policy: policy.clone(),
                status: MemberStatus::Cancelled,
                cost: None,
                detail: None,
            },
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
