//! Static real-time scheduling for CRUSADE co-synthesis.
//!
//! This crate implements the scheduling machinery of Section 5 of the
//! paper:
//!
//! * **Priority levels** ([`priority_levels`]) — deadline-based urgency of
//!   tasks, recomputed after clustering and after every allocation.
//! * **The association array** ([`AssociationArray`]) — per-graph copy
//!   bookkeeping over the hyperperiod, avoiding materialisation of the
//!   Γ ÷ Pᵢ copies of each task graph.
//! * **Periodic timelines** ([`PeriodicInterval`], [`Timeline`],
//!   [`ScheduleBoard`]) — exact O(1) collision arithmetic between
//!   periodically repeating busy intervals, the engine behind first-fit
//!   static scheduling with mixed rates.
//! * **Finish-time estimation** ([`estimate_finish_times`],
//!   [`check_deadlines`]) — the longest-path performance-evaluation step
//!   used by the inner loop of co-synthesis.
//!
//! Scheduling policy: the combination of preemptive and non-preemptive
//! priority scheduling the paper describes is realised by the caller
//! (`crusade-core`) on top of these primitives — tasks are placed in
//! priority order (non-preemptive first fit); when a placement would miss
//! its deadline, the caller may remove a lower-priority victim, place the
//! urgent task, and re-place the victim with the preemption overhead
//! charged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod association;
mod board;
mod finish;
mod occupant;
mod periodic;
mod priority;
mod timeline;

pub use association::{AssociationArray, AssociationEntry};
pub use board::{ResourceId, ScheduleBoard, Taken};
pub use finish::{
    check_deadlines, estimate_finish_times, latest_finish_times, DeadlineMiss, Window,
};
pub use occupant::Occupant;
pub use periodic::PeriodicInterval;
pub use priority::{initial_priority_levels, priority_levels};
pub use timeline::{Placed, Timeline};
