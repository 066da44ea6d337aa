//! CRUSADE: hardware/software co-synthesis of dynamically reconfigurable
//! heterogeneous real-time distributed embedded systems.
//!
//! This crate is the facade of the CRUSADE workspace — a from-scratch
//! reproduction of the co-synthesis system of the DATE 1999 paper of the
//! same name. It re-exports the five underlying crates:
//!
//! * [`model`] — task graphs, resource library, system specification;
//! * [`fabric`] — the programmable-device substrate (placement, routing,
//!   delay, boot time, programming interfaces);
//! * [`sched`] — priority levels, periodic timelines, finish-time
//!   estimation;
//! * [`core`] — the CRUSADE algorithm: clustering, allocation, dynamic
//!   reconfiguration generation;
//! * [`lint`] — the pre-synthesis static analyzer: infeasibility proofs
//!   and lower bounds over a specification, without running synthesis;
//! * [`obs`] — structured synthesis observability: the event taxonomy,
//!   observer handle, metrics accumulator and JSONL trace sink;
//! * [`ft`] — the CRUSADE-FT fault-tolerance extension;
//! * [`verify`] — the independent architecture auditor and the seeded
//!   fault-injection engine;
//! * [`explore`] — parallel multi-start design-space exploration over
//!   policy portfolios, reduced deterministically to the cheapest
//!   audit-clean winner;
//! * [`serve`] — synthesis as a service: a batched co-synthesis daemon
//!   with admission queueing, an architecture cache keyed by the spec and
//!   warm-start re-synthesis against cached incumbents;
//! * [`workloads`] — deterministic reconstructions of the paper's
//!   benchmarks;
//! * [`gen`] — utilization-controlled random workload families (UUniFast
//!   + Weibull draws) and schedulability-ratio sweeps.
//!
//! # Examples
//!
//! Synthesize the smallest of the paper's benchmark systems:
//!
//! ```no_run
//! use crusade::core::CoSynthesis;
//! use crusade::workloads::{paper_examples, paper_library};
//!
//! # fn main() -> Result<(), crusade::core::SynthesisError> {
//! let lib = paper_library();
//! let spec = paper_examples()[0].build(&lib); // A1TR, 1126 tasks
//! let result = CoSynthesis::new(&spec, &lib.lib).run()?;
//! println!(
//!     "{} PEs, {} links, {}",
//!     result.report.pe_count, result.report.link_count, result.report.cost
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use crusade_core as core;
pub use crusade_explore as explore;
pub use crusade_fabric as fabric;
pub use crusade_ft as ft;
pub use crusade_gen as gen;
pub use crusade_lint as lint;
pub use crusade_model as model;
pub use crusade_obs as obs;
pub use crusade_sched as sched;
pub use crusade_serve as serve;
pub use crusade_verify as verify;
pub use crusade_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crusade_core::{CoSynthesis, CosynOptions, SynthesisError, SynthesisResult};
    pub use crusade_ft::{CrusadeFt, FtAnnotations, FtConfig};
    pub use crusade_gen::{generate, GenConfig, GeneratedSpec};
    pub use crusade_lint::{Lint, LintOptions, LintReport, Severity};
    pub use crusade_model::{
        CompatibilityMatrix, Dollars, ExecutionTimes, HwDemand, MemoryVector, Nanos, Preference,
        ResourceLibrary, SystemConstraints, SystemSpec, Task, TaskGraph, TaskGraphBuilder,
    };
    pub use crusade_workloads::{paper_examples, paper_library};
}
