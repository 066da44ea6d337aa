//! The escalation-ladder driver for online re-synthesis.
//!
//! [`resynthesize_sequence`] consumes a stream of [`SpecDelta`]s against
//! a deployed incumbent and, for each delta, climbs a deterministic
//! ladder of increasingly expensive rungs until one produces an
//! **audit-clean** architecture:
//!
//! 1. **warm** — dirty-region repair from the incumbent
//!    ([`crusade_core::warm_resynthesize`]; reported as `in-place` when
//!    the incumbent absorbs the delta with zero moves);
//! 2. **widened** — the incumbent stripped to its hardware shell, the
//!    whole specification re-placed onto the familiar iron
//!    ([`crusade_core::widened_resynthesize`]);
//! 3. **portfolio** — a multi-start exploration over the new
//!    specification ([`crate::explore_portfolio`]);
//! 4. **cold** — single-policy cold co-synthesis with the audit post-pass.
//!
//! Every escalation is traced ([`Event::EscalationStep`]) with the
//! trigger that forced it, and the two warm rungs are *never trusted*:
//! their results must pass the full `crusade-verify` audit (installed via
//! `crusade_verify::install_auditor`) before being accepted — a dirty
//! audit is itself an escalation trigger, so the accepted architecture is
//! audit-clean at every rung by construction.
//!
//! The ladder is deterministic: warm rungs are single-threaded, the
//! portfolio rung is jobs-invariant by `crusade-explore`'s reduction
//! guarantee, and no wall-clock value feeds any decision — the same
//! delta sequence over the same seed architecture yields the same rung
//! path and a bit-identical final architecture at any `--jobs`.

use std::collections::BTreeSet;

use serde::Serialize;

use crusade_core::{
    admission_check, audit_hook, warm_resynthesize, widened_resynthesize, CoSynthesis,
    CosynOptions, SynthesisResult, WarmFailure, WarmOutcome,
};
use crusade_model::{DeltaError, ResourceLibrary, SpecDelta, SystemSpec};
use crusade_obs::Event;

use crate::{default_portfolio, ExploreConfig};

/// Knobs of the escalation ladder.
#[derive(Debug, Clone)]
pub struct ResynConfig {
    /// Worker threads for the portfolio rung (warm rungs are
    /// single-threaded by design; the final architecture is identical at
    /// any value).
    pub jobs: usize,
    /// Portfolio size for the portfolio rung.
    pub portfolio: usize,
    /// Victim-retry budget of the warm rungs.
    pub retry_budget: usize,
    /// First rung to try. [`Rung::Warm`] (the default) climbs the full
    /// ladder; a higher start skips the warm rungs — an operational
    /// escape hatch for forcing a restart (e.g. after suspected
    /// incumbent corruption) that still keeps the sequence's
    /// bookkeeping and report.
    pub start: Rung,
    /// Base synthesis options (observer, knobs) shared by every rung.
    pub base: CosynOptions,
}

impl Default for ResynConfig {
    fn default() -> Self {
        ResynConfig {
            jobs: 1,
            portfolio: 4,
            retry_budget: 8,
            start: Rung::Warm,
            base: CosynOptions::default(),
        }
    }
}

/// The ladder rung that finally produced an accepted architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "kebab-case")]
pub enum Rung {
    /// The incumbent absorbed the delta with zero moves.
    InPlace,
    /// Dirty-region warm repair.
    Warm,
    /// Hardware-shell re-placement.
    Widened,
    /// Multi-start exploration (degraded: warm starts failed).
    Portfolio,
    /// Cold co-synthesis (fully degraded).
    Cold,
}

impl Rung {
    /// Stable kebab-case tag (trace and benchmark vocabulary).
    pub fn tag(self) -> &'static str {
        match self {
            Rung::InPlace => "in-place",
            Rung::Warm => "warm",
            Rung::Widened => "widened",
            Rung::Portfolio => "portfolio",
            Rung::Cold => "cold",
        }
    }

    /// `true` for the rungs that count as graceful degradation (the
    /// warm-start premise failed and synthesis started over).
    pub fn degraded(self) -> bool {
        matches!(self, Rung::Portfolio | Rung::Cold)
    }

    /// Ladder position, lowest (cheapest) first. `InPlace` shares the
    /// warm rung's position: it is the warm rung's zero-move outcome,
    /// not a rung of its own.
    fn rank(self) -> u8 {
        match self {
            Rung::InPlace | Rung::Warm => 0,
            Rung::Widened => 1,
            Rung::Portfolio => 2,
            Rung::Cold => 3,
        }
    }

    /// Parses a kebab-case rung tag (the [`Rung::tag`] vocabulary).
    pub fn parse(tag: &str) -> Option<Rung> {
        match tag {
            "in-place" => Some(Rung::InPlace),
            "warm" => Some(Rung::Warm),
            "widened" => Some(Rung::Widened),
            "portfolio" => Some(Rung::Portfolio),
            "cold" => Some(Rung::Cold),
            _ => None,
        }
    }
}

/// One delta's journey up the ladder.
#[derive(Debug, Clone, Serialize)]
pub struct DeltaStep {
    /// Position in the delta sequence.
    pub index: usize,
    /// [`SpecDelta::kind`] tag.
    pub kind: String,
    /// Whether the admission check admitted the delta.
    pub admitted: bool,
    /// The admission reason (`"ok"` when admitted).
    pub admission_reason: String,
    /// The rung that produced the accepted architecture.
    pub rung: Rung,
    /// Escalation triggers, in rung order (empty when the first rung
    /// succeeded).
    pub triggers: Vec<String>,
    /// Clusters (re-)placed by the accepted rung.
    pub moved_clusters: usize,
    /// Incremental dollar cost of parts the accepted rung purchased.
    pub added_cost: u64,
    /// Total architecture cost after this delta.
    pub cost: u64,
    /// Victim-retry iterations the accepted rung consumed.
    pub retries: usize,
}

/// The full sequence's report (serialized into `crusade resyn --out` and
/// the soak campaign's records).
#[derive(Debug, Clone, Serialize)]
pub struct ResynReport {
    /// Per-delta records, in sequence order.
    pub steps: Vec<DeltaStep>,
    /// Final architecture cost.
    pub final_cost: u64,
    /// `true` when any delta degraded to the portfolio or cold rung.
    pub degraded: bool,
}

impl ResynReport {
    /// Rung histogram: how many deltas each rung finally served.
    pub fn rung_histogram(&self) -> Vec<(&'static str, usize)> {
        [
            Rung::InPlace,
            Rung::Warm,
            Rung::Widened,
            Rung::Portfolio,
            Rung::Cold,
        ]
        .into_iter()
        .map(|r| (r.tag(), self.steps.iter().filter(|s| s.rung == r).count()))
        .collect()
    }
}

/// A completed sequence: the final system plus the journey.
#[derive(Debug)]
pub struct ResynOutcome {
    /// The specification after every delta.
    pub spec: SystemSpec,
    /// The final (audit-clean) deployed system.
    pub incumbent: SynthesisResult,
    /// Per-delta records and aggregates.
    pub report: ResynReport,
}

/// Why a sequence stopped. All variants are *operational* outcomes — the
/// ladder never panics on well-formed input.
#[derive(Debug)]
pub enum ResynError {
    /// A delta could not be applied to the evolving specification.
    Delta {
        /// Position in the sequence.
        index: usize,
        /// The typed application error.
        error: DeltaError,
    },
    /// The admission check proved the delta infeasible for any
    /// architecture.
    Rejected {
        /// Position in the sequence.
        index: usize,
        /// The necessary condition that failed.
        reason: String,
    },
    /// A structural fault named a PE or link instance the incumbent does
    /// not have.
    BadFault {
        /// Position in the sequence.
        index: usize,
        /// What was wrong.
        detail: String,
    },
    /// Even cold co-synthesis failed — the delta made the specification
    /// genuinely unsynthesizable with this library.
    Infeasible {
        /// Position in the sequence.
        index: usize,
        /// The cold-synthesis error.
        detail: String,
    },
    /// No auditor is installed; the audit-clean guarantee cannot be
    /// upheld. Call `crusade_verify::install_auditor` first.
    NoAuditor,
}

impl std::fmt::Display for ResynError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResynError::Delta { index, error } => {
                write!(f, "delta {index} does not apply: {error}")
            }
            ResynError::Rejected { index, reason } => {
                write!(f, "delta {index} rejected by admission: {reason}")
            }
            ResynError::BadFault { index, detail } => {
                write!(f, "delta {index} is an invalid fault: {detail}")
            }
            ResynError::Infeasible { index, detail } => {
                write!(f, "delta {index} infeasible even cold: {detail}")
            }
            ResynError::NoAuditor => write!(
                f,
                "no auditor installed (call crusade_verify::install_auditor before resynthesis)"
            ),
        }
    }
}

impl std::error::Error for ResynError {}

/// Drives `deltas` through the escalation ladder, starting from the
/// deployed `incumbent` synthesized for `spec0`.
///
/// Structural-fault bookkeeping: [`SpecDelta::FailPe`] instances are
/// remembered and may be un-retired by a later [`SpecDelta::RestorePe`]
/// — but only while the architecture keeps warm-start instance identity.
/// The widened, portfolio and cold rungs rebuild (and renumber) the
/// platform, so accepting one of them forgets the failed-instance set;
/// a restore of a forgotten instance is a deterministic no-op.
///
/// # Errors
///
/// Typed [`ResynError`] for malformed deltas, admission rejections,
/// invalid faults, cold infeasibility and a missing auditor. Any error
/// leaves the sequence at the last accepted incumbent (the error carries
/// the failing index).
pub fn resynthesize_sequence(
    spec0: &SystemSpec,
    lib: &ResourceLibrary,
    incumbent0: SynthesisResult,
    deltas: &[SpecDelta],
    config: &ResynConfig,
) -> Result<ResynOutcome, ResynError> {
    let Some(auditor) = audit_hook() else {
        return Err(ResynError::NoAuditor);
    };
    let options = config.base.effective();
    let observer = options.observer.clone();
    let _resyn_span = observer.span("resyn");

    let mut spec = spec0.clone();
    let mut incumbent = incumbent0;
    let mut failed: BTreeSet<u32> = BTreeSet::new();
    let mut steps: Vec<DeltaStep> = Vec::with_capacity(deltas.len());

    for (index, delta) in deltas.iter().enumerate() {
        observer.emit(|| Event::DeltaApplied {
            delta: index as u64,
            kind: delta.kind().to_string(),
        });
        let spec_after = delta
            .apply(&spec)
            .map_err(|error| ResynError::Delta { index, error })?;

        let verdict = {
            let _span = observer.span("admission");
            admission_check(&spec_after, delta)
        };
        observer.emit(|| Event::AdmissionChecked {
            delta: index as u64,
            admitted: verdict.admitted(),
            reason: verdict.reason().to_string(),
        });
        if !verdict.admitted() {
            return Err(ResynError::Rejected {
                index,
                reason: verdict.reason().to_string(),
            });
        }

        let mut triggers: Vec<String> = Vec::new();
        let mut accepted: Option<(Rung, SynthesisResult, usize, u64, usize)> = None;

        // Rung 1: dirty-region warm repair (reported as in-place when
        // the incumbent absorbed the delta without moving anything).
        if config.start.rank() <= Rung::Warm.rank() {
            let warm = {
                let _span = observer.span("warm");
                warm_resynthesize(
                    &spec,
                    &spec_after,
                    lib,
                    &options,
                    &incumbent,
                    delta,
                    &failed,
                    config.retry_budget,
                )
            };
            match audited(warm, &spec_after, lib, &options, auditor) {
                RungVerdict::Accept(out) => {
                    let rung = if out.in_place {
                        Rung::InPlace
                    } else {
                        Rung::Warm
                    };
                    accepted = Some(step_figures(rung, *out));
                }
                RungVerdict::BadFault(detail) => {
                    return Err(ResynError::BadFault { index, detail })
                }
                RungVerdict::Escalate(trigger) => {
                    observer.emit(|| Event::EscalationStep {
                        delta: index as u64,
                        rung: Rung::Widened.tag().to_string(),
                        trigger: trigger.clone(),
                    });
                    triggers.push(trigger);
                }
            }
        }

        // Rung 2: hardware-shell re-placement.
        if accepted.is_none() && config.start.rank() <= Rung::Widened.rank() {
            let widened = {
                let _span = observer.span("widened");
                widened_resynthesize(
                    &spec,
                    &spec_after,
                    lib,
                    &options,
                    &incumbent,
                    delta,
                    &failed,
                    config.retry_budget,
                )
            };
            match audited(widened, &spec_after, lib, &options, auditor) {
                RungVerdict::Accept(out) => {
                    accepted = Some(step_figures(Rung::Widened, *out));
                }
                RungVerdict::BadFault(detail) => {
                    return Err(ResynError::BadFault { index, detail })
                }
                RungVerdict::Escalate(trigger) => {
                    observer.emit(|| Event::EscalationStep {
                        delta: index as u64,
                        rung: Rung::Portfolio.tag().to_string(),
                        trigger: trigger.clone(),
                    });
                    triggers.push(trigger);
                }
            }
        }

        // Rung 3: portfolio warm restart (audit-clean by construction).
        if accepted.is_none() && config.start.rank() <= Rung::Portfolio.rank() {
            let explored = {
                let _span = observer.span("portfolio");
                let xc = ExploreConfig::new(config.portfolio, config.jobs)
                    .with_base(config.base.clone());
                crate::explore_portfolio(
                    &spec_after,
                    lib,
                    &xc,
                    &default_portfolio(config.portfolio),
                )
            };
            match explored {
                Ok(outcome) => {
                    let cost = outcome.winner.report.cost.amount();
                    let moved = outcome.winner.report.cluster_count;
                    accepted = Some((Rung::Portfolio, outcome.winner, moved, cost, 0));
                }
                Err(e) => {
                    let trigger = e.to_string();
                    observer.emit(|| Event::EscalationStep {
                        delta: index as u64,
                        rung: Rung::Cold.tag().to_string(),
                        trigger: trigger.clone(),
                    });
                    triggers.push(trigger);
                }
            }
        }

        // Rung 4: cold co-synthesis with the audit post-pass.
        let (rung, result, moved, added_cost, retries) = match accepted {
            Some(figures) => figures,
            None => {
                let cold = {
                    let _span = observer.span("cold");
                    let mut cold_options = config.base.clone();
                    cold_options.audit = true;
                    CoSynthesis::new(&spec_after, lib)
                        .with_options(cold_options)
                        .run()
                };
                match cold {
                    Ok(result) => {
                        let cost = result.report.cost.amount();
                        let moved = result.report.cluster_count;
                        (Rung::Cold, result, moved, cost, 0)
                    }
                    Err(e) => {
                        return Err(ResynError::Infeasible {
                            index,
                            detail: e.to_string(),
                        })
                    }
                }
            }
        };

        observer.emit(|| Event::ResynStepComplete {
            delta: index as u64,
            rung: rung.tag().to_string(),
            cost: result.report.cost.amount(),
            moved: moved as u64,
        });

        // Fault bookkeeping (see the doc comment): warm rungs keep
        // instance identity; everything wider renumbers and forgets.
        match rung {
            Rung::InPlace | Rung::Warm => match delta {
                SpecDelta::FailPe { pe } => {
                    failed.insert(*pe);
                }
                SpecDelta::RestorePe { pe } => {
                    failed.remove(pe);
                }
                _ => {}
            },
            Rung::Widened | Rung::Portfolio | Rung::Cold => failed.clear(),
        }

        steps.push(DeltaStep {
            index,
            kind: delta.kind().to_string(),
            admitted: true,
            admission_reason: "ok".to_string(),
            rung,
            triggers,
            moved_clusters: moved,
            added_cost,
            cost: result.report.cost.amount(),
            retries,
        });
        spec = spec_after;
        incumbent = result;
    }

    let final_cost = incumbent.report.cost.amount();
    let degraded = steps.iter().any(|s| s.rung.degraded());
    Ok(ResynOutcome {
        spec,
        incumbent,
        report: ResynReport {
            steps,
            final_cost,
            degraded,
        },
    })
}

/// How one warm rung resolved after the audit.
enum RungVerdict {
    Accept(Box<WarmOutcome>),
    BadFault(String),
    Escalate(String),
}

/// Audits a warm rung's outcome with the installed auditor; any
/// violation (or rung failure) becomes an escalation trigger.
fn audited(
    outcome: Result<WarmOutcome, WarmFailure>,
    spec_after: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
    auditor: crusade_core::AuditHook,
) -> RungVerdict {
    match outcome {
        Ok(out) => {
            let violations = auditor(spec_after, lib, options, &out.result);
            if violations.is_empty() {
                RungVerdict::Accept(Box::new(out))
            } else {
                RungVerdict::Escalate(format!(
                    "audit-dirty ({} violations: {})",
                    violations.len(),
                    violations.first().map(String::as_str).unwrap_or("?")
                ))
            }
        }
        Err(WarmFailure::BadFault(detail)) => RungVerdict::BadFault(detail),
        Err(e) => RungVerdict::Escalate(e.to_string()),
    }
}

/// Extracts the per-step figures from an accepted warm outcome.
fn step_figures(rung: Rung, out: WarmOutcome) -> (Rung, SynthesisResult, usize, u64, usize) {
    (
        rung,
        out.result,
        out.moved_clusters,
        out.added_cost.amount(),
        out.retries_used,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusade_model::{GraphId, Nanos};
    use crusade_workloads::blocks::sw_pipeline;
    use crusade_workloads::{paper_library, random_example};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn deployed(seed: u64) -> (crusade_model::ResourceLibrary, SystemSpec, SynthesisResult) {
        crusade_verify::install_auditor();
        let paper = paper_library();
        let spec = random_example(seed).build(&paper);
        let incumbent = CoSynthesis::new(&spec, &paper.lib).run().unwrap();
        (paper.lib, spec, incumbent)
    }

    fn extra_graph(name: &str) -> crusade_model::TaskGraph {
        let paper = paper_library();
        let mut rng = SmallRng::seed_from_u64(0xF00D);
        sw_pipeline(&paper, &mut rng, name, 4, Nanos::from_millis(20))
    }

    #[test]
    fn fault_burst_stays_warm_and_restores() {
        let (lib, spec, incumbent) = deployed(11);
        let deltas = vec![SpecDelta::FailPe { pe: 0 }, SpecDelta::RestorePe { pe: 0 }];
        let out = resynthesize_sequence(&spec, &lib, incumbent, &deltas, &ResynConfig::default())
            .unwrap();
        assert_eq!(out.report.steps.len(), 2);
        for step in &out.report.steps {
            assert!(
                matches!(step.rung, Rung::InPlace | Rung::Warm),
                "fault burst escalated: {step:?}"
            );
        }
        assert!(!out.report.degraded);
    }

    #[test]
    fn add_graph_warm_starts() {
        let (lib, spec, incumbent) = deployed(12);
        let deltas = vec![SpecDelta::AddTaskGraph {
            graph: extra_graph("late-feature"),
        }];
        let out = resynthesize_sequence(&spec, &lib, incumbent, &deltas, &ResynConfig::default())
            .unwrap();
        assert_eq!(out.spec.graph_count(), spec.graph_count() + 1);
        assert_eq!(out.report.steps[0].rung, Rung::Warm);
        assert!(crusade_core::exact_deadlines_ok(
            &out.spec,
            &out.incumbent.architecture
        ));
    }

    #[test]
    fn impossible_tighten_is_rejected_not_synthesized() {
        let (lib, spec, incumbent) = deployed(13);
        let deltas = vec![SpecDelta::TightenDeadline {
            graph: GraphId::new(0),
            deadline: Nanos::from_nanos(1),
        }];
        let err = resynthesize_sequence(&spec, &lib, incumbent, &deltas, &ResynConfig::default())
            .unwrap_err();
        assert!(
            matches!(err, ResynError::Rejected { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn ladder_is_jobs_invariant() {
        let (lib, spec, incumbent) = deployed(14);
        let deltas = vec![
            SpecDelta::AddTaskGraph {
                graph: extra_graph("feature-a"),
            },
            SpecDelta::FailPe { pe: 1 },
        ];
        let run = |jobs: usize| {
            let config = ResynConfig {
                jobs,
                ..ResynConfig::default()
            };
            resynthesize_sequence(&spec, &lib, incumbent.clone(), &deltas, &config).unwrap()
        };
        let a = run(1);
        let b = run(4);
        let rungs = |o: &ResynOutcome| o.report.steps.iter().map(|s| s.rung).collect::<Vec<_>>();
        assert_eq!(rungs(&a), rungs(&b));
        assert_eq!(a.report.final_cost, b.report.final_cost);
        assert_eq!(a.incumbent.report.pe_count, b.incumbent.report.pe_count);
    }
}
