//! `crusade-lint`: pre-synthesis static analysis of CRUSADE
//! specifications.
//!
//! The linter is an *infeasibility prover*: a dataflow-style pass over a
//! [`SystemSpec`] and a [`ResourceLibrary`] that runs without invoking
//! synthesis and emits typed, severity-ranked diagnostics ([`Lint`]).
//! Error-level lints are necessary-condition violations — proofs that no
//! architecture can satisfy the specification — while the post-hoc
//! auditor in `crusade-verify` checks sufficient evidence on a concrete
//! synthesis result. The analyses:
//!
//! 1. **Critical path vs. deadline** — best-case execution vectors and
//!    communication lower bounds against every effective deadline;
//! 2. **Utilisation lower bounds** — per device class, summed minimum
//!    loads over the hyperperiod and a first-fit-decreasing bin-packing
//!    bracket on PE count and dollar cost;
//! 3. **Constraint propagation** — preference/exclusion/compatibility
//!    contradictions (zero feasible PEs, self-exclusions, mutually
//!    exclusive adjacent tasks, exclusion cliques);
//! 4. **Communication feasibility** — edge volume vs. the best available
//!    link when endpoints can never share a PE;
//! 5. **Reconfiguration-mode analysis** — declared-compatible graphs
//!    whose mandatory execution windows provably collide.
//!
//! # Examples
//!
//! ```
//! use crusade_lint::{lint, LintOptions, Severity};
//! use crusade_model::{
//!     CpuAttrs, Dollars, ExecutionTimes, Nanos, PeClass, PeType, ResourceLibrary,
//!     SystemSpec, Task, TaskGraphBuilder,
//! };
//!
//! # fn main() -> Result<(), crusade_model::ValidateSpecError> {
//! let mut lib = ResourceLibrary::new();
//! lib.add_pe(PeType::new("cpu", Dollars::new(50), PeClass::Cpu(CpuAttrs {
//!     memory_bytes: 1 << 20,
//!     context_switch: Nanos::from_micros(5),
//!     comm_ports: 2,
//!     comm_overlap: true,
//! })));
//! let mut b = TaskGraphBuilder::new("g", Nanos::from_millis(1));
//! b.add_task(Task::new("t", ExecutionTimes::uniform(1, Nanos::from_micros(10))));
//! let spec = SystemSpec::new(vec![b.build()?]);
//! let report = lint(&spec, &lib, &LintOptions::default());
//! assert!(report.is_clean());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analyses;
pub mod bounds;
mod diagnostics;

use crusade_model::{Dollars, ResourceLibrary, SystemSpec};

pub use diagnostics::{Lint, LintReport, Severity};

/// Knobs the lint analyses share with co-synthesis.
///
/// The capacity caps must match the ones synthesis will run with,
/// otherwise feasible-PE sets diverge; `crusade-core` builds this from
/// its `CosynOptions`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LintOptions {
    /// Effective resource utilisation factor: fraction of a programmable
    /// device's PFUs that may be claimed.
    pub eruf: f64,
    /// Effective pin utilisation factor: fraction of a device's pins that
    /// may be claimed.
    pub epuf: f64,
}

impl Default for LintOptions {
    fn default() -> Self {
        // Mirrors `CosynOptions::default()` (paper Section 6).
        LintOptions {
            eruf: 0.70,
            epuf: 0.80,
        }
    }
}

/// Runs every analysis over the specification and library.
///
/// A structurally invalid specification (cycles, zero periods,
/// hyperperiod overflow, …) short-circuits into a single Error-level
/// [`Lint::InvalidSpec`]: the analyses assume validated invariants.
pub fn lint(spec: &SystemSpec, lib: &ResourceLibrary, options: &LintOptions) -> LintReport {
    let mut report = LintReport::new();
    if let Err(e) = spec.validate() {
        report.push(Lint::InvalidSpec {
            message: e.to_string(),
        });
        return report;
    }
    let ctx = analyses::Context::build(spec, lib, options);
    analyses::timing(&ctx, &mut report);
    analyses::communication(&ctx, &mut report);
    analyses::constraints(&ctx, &mut report);
    analyses::modes(&ctx, &mut report);
    analyses::utilisation(&ctx, &mut report);
    report
}

/// A sound lower bound on the dollar cost of *any* architecture that
/// satisfies `spec` against `lib`: the utilisation analysis's per-class
/// bin-packing floor (summed minimum loads over the hyperperiod, volume
/// and half-bin bounds, priced at each class's cheapest capable type).
///
/// An achieved cost equal to the bound is provably unbeatable, and no
/// feasible architecture costs less. Returns [`Dollars::ZERO`] when the
/// specification is invalid or the analysis finds no binding floor (a
/// lower bound of zero is always sound).
pub fn cost_lower_bound(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &LintOptions,
) -> Dollars {
    if spec.validate().is_err() {
        return Dollars::ZERO;
    }
    let ctx = analyses::Context::build(spec, lib, options);
    let mut report = LintReport::new();
    analyses::utilisation(&ctx, &mut report);
    let floor = report
        .iter()
        .find_map(|l| match l {
            Lint::CostLowerBound { total } => Some(*total),
            _ => None,
        })
        .unwrap_or(Dollars::ZERO);
    floor
}
