//! Typed audit findings.

use crusade_core::{ClusterId, LinkInstanceId, PeInstanceId};
use crusade_model::{GlobalEdgeId, GlobalTaskId, GraphId, Nanos, PeTypeId};

/// One invariant the audited architecture fails to uphold.
///
/// Every variant carries enough context to locate the defect without the
/// auditor's internal state; [`Violation::kind`] gives a stable label for
/// programmatic matching (the mutation self-tests key on it).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A task of the specification has no window on any timeline.
    MissingPlacement {
        /// The unplaced task.
        task: GlobalTaskId,
    },
    /// A task finishes after its absolute deadline.
    DeadlineMiss {
        /// The violating task.
        task: GlobalTaskId,
        /// Its absolute deadline (graph EST + effective deadline).
        deadline: Nanos,
        /// Its scheduled finish instant.
        finish: Nanos,
    },
    /// A consumer starts before its input is available.
    PrecedenceViolated {
        /// The edge whose data arrives late.
        edge: GlobalEdgeId,
        /// When the input becomes available.
        available: Nanos,
        /// When the consumer actually starts.
        start: Nanos,
    },
    /// Two occupants of one serialised resource overlap in time.
    ResourceCollision {
        /// Human-readable resource name (`pe#N` / `lk#N`).
        resource: String,
        /// First colliding occupant.
        a: String,
        /// Second colliding occupant.
        b: String,
    },
    /// Two configuration images of a merged device overlap in time (with
    /// the reboot guard included) on graphs not shared between them.
    ModesOverlap {
        /// The multi-mode device.
        pe: PeInstanceId,
        /// First image index.
        mode_a: usize,
        /// Second image index.
        mode_b: usize,
        /// Graph active in the first image.
        graph_a: GraphId,
        /// Graph active in the second image.
        graph_b: GraphId,
    },
    /// No programming interface can reconfigure a multi-mode device
    /// within the boot-time requirement.
    BootInfeasible {
        /// The unbootable device.
        pe: PeInstanceId,
    },
    /// Multi-mode devices exist but the architecture carries no
    /// synthesised programming interface.
    InterfaceMissing,
    /// The chosen programming interface misses the boot-time requirement.
    InterfaceTooSlow {
        /// Worst boot time of the chosen interface.
        worst: Nanos,
        /// The requirement it must meet.
        requirement: Nanos,
    },
    /// A programmable device image exceeds its effective PFU budget.
    ErufExceeded {
        /// The device.
        pe: PeInstanceId,
        /// The image index.
        mode: usize,
        /// PFUs the image's clusters demand.
        used: u32,
        /// The ERUF-scaled capacity.
        cap: u32,
    },
    /// A programmable device image exceeds its effective pin budget.
    EpufExceeded {
        /// The device.
        pe: PeInstanceId,
        /// The image index.
        mode: usize,
        /// Pins the image's clusters demand.
        used: u32,
        /// The EPUF-scaled capacity.
        cap: u32,
    },
    /// A CPU's resident clusters need more memory than it has.
    MemoryExceeded {
        /// The CPU instance.
        pe: PeInstanceId,
        /// Bytes the resident clusters demand.
        used: u64,
        /// The CPU's memory capacity in bytes.
        capacity: u64,
    },
    /// An ASIC's resident clusters need more gates than it offers.
    GatesExceeded {
        /// The ASIC instance.
        pe: PeInstanceId,
        /// Gates demanded.
        used: u64,
        /// Gates available.
        capacity: u64,
    },
    /// A task sits on a PE type its preference vector forbids, or one
    /// with no defined execution time for it.
    PreferenceViolated {
        /// The misplaced task.
        task: GlobalTaskId,
        /// The hosting PE type.
        pe_type: PeTypeId,
    },
    /// Two mutually excluded tasks share one physical device.
    ExclusionViolated {
        /// The device hosting both.
        pe: PeInstanceId,
        /// First task.
        task_a: GlobalTaskId,
        /// Second task.
        task_b: GlobalTaskId,
    },
    /// A multi-mode device hosts graphs the compatibility matrix forbids
    /// from sharing hardware.
    IncompatibleGraphs {
        /// The device.
        pe: PeInstanceId,
        /// First graph.
        graph_a: GraphId,
        /// Second graph.
        graph_b: GraphId,
    },
    /// A mode's recorded bookkeeping disagrees with what its cluster
    /// list implies (stale `used_hw`, memory accounting, or a cluster
    /// resident on several devices at once).
    ModeBookkeeping {
        /// The device.
        pe: PeInstanceId,
        /// What disagrees.
        detail: String,
    },
    /// A cluster is recorded resident on more than one physical device.
    ClusterReplicated {
        /// The doubly-hosted cluster.
        cluster: ClusterId,
        /// First hosting device.
        pe_a: PeInstanceId,
        /// Second hosting device.
        pe_b: PeInstanceId,
    },
    /// A link has more PEs attached than its type has ports.
    LinkPortsExceeded {
        /// The over-attached link.
        link: LinkInstanceId,
        /// PEs attached to it.
        attached: usize,
        /// Its type's `max_ports`.
        max_ports: u32,
    },
    /// A link transfer is scheduled on a link that does not attach both
    /// endpoint PEs.
    DanglingTransfer {
        /// The transfer's edge.
        edge: GlobalEdgeId,
        /// The link carrying it.
        link: LinkInstanceId,
    },
    /// A task graph's steady-state unavailability exceeds its budget
    /// (fault-tolerant runs only).
    UnavailabilityExceeded {
        /// The graph over budget.
        graph: GraphId,
        /// Achieved unavailability, minutes per year.
        actual: f64,
        /// Budgeted unavailability, minutes per year.
        budget: f64,
    },
}

impl Violation {
    /// A stable, kebab-case label for the violation class.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::MissingPlacement { .. } => "missing-placement",
            Violation::DeadlineMiss { .. } => "deadline-miss",
            Violation::PrecedenceViolated { .. } => "precedence-violated",
            Violation::ResourceCollision { .. } => "resource-collision",
            Violation::ModesOverlap { .. } => "modes-overlap",
            Violation::BootInfeasible { .. } => "boot-infeasible",
            Violation::InterfaceMissing => "interface-missing",
            Violation::InterfaceTooSlow { .. } => "interface-too-slow",
            Violation::ErufExceeded { .. } => "eruf-exceeded",
            Violation::EpufExceeded { .. } => "epuf-exceeded",
            Violation::MemoryExceeded { .. } => "memory-exceeded",
            Violation::GatesExceeded { .. } => "gates-exceeded",
            Violation::PreferenceViolated { .. } => "preference-violated",
            Violation::ExclusionViolated { .. } => "exclusion-violated",
            Violation::IncompatibleGraphs { .. } => "incompatible-graphs",
            Violation::ModeBookkeeping { .. } => "mode-bookkeeping",
            Violation::ClusterReplicated { .. } => "cluster-replicated",
            Violation::LinkPortsExceeded { .. } => "link-ports-exceeded",
            Violation::DanglingTransfer { .. } => "dangling-transfer",
            Violation::UnavailabilityExceeded { .. } => "unavailability-exceeded",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MissingPlacement { task } => {
                write!(f, "task {task} has no placed window")
            }
            Violation::DeadlineMiss {
                task,
                deadline,
                finish,
            } => write!(
                f,
                "task {task} finishes at {finish} past its deadline {deadline}"
            ),
            Violation::PrecedenceViolated {
                edge,
                available,
                start,
            } => write!(
                f,
                "edge {edge}: consumer starts at {start} before data available at {available}"
            ),
            Violation::ResourceCollision { resource, a, b } => {
                write!(f, "resource {resource}: {a} collides with {b}")
            }
            Violation::ModesOverlap {
                pe,
                mode_a,
                mode_b,
                graph_a,
                graph_b,
            } => write!(
                f,
                "device {pe}: image {mode_a} ({graph_a}) overlaps image {mode_b} ({graph_b}) \
                 with reboot room"
            ),
            Violation::BootInfeasible { pe } => {
                write!(
                    f,
                    "device {pe}: no interface option boots it within the requirement"
                )
            }
            Violation::InterfaceMissing => {
                write!(
                    f,
                    "multi-mode devices exist but no programming interface was synthesised"
                )
            }
            Violation::InterfaceTooSlow { worst, requirement } => write!(
                f,
                "programming interface boots in {worst}, over the {requirement} requirement"
            ),
            Violation::ErufExceeded {
                pe,
                mode,
                used,
                cap,
            } => write!(
                f,
                "device {pe} image {mode}: {used} PFUs over the ERUF cap of {cap}"
            ),
            Violation::EpufExceeded {
                pe,
                mode,
                used,
                cap,
            } => write!(
                f,
                "device {pe} image {mode}: {used} pins over the EPUF cap of {cap}"
            ),
            Violation::MemoryExceeded { pe, used, capacity } => write!(
                f,
                "CPU {pe}: resident clusters need {used} bytes of {capacity} available"
            ),
            Violation::GatesExceeded { pe, used, capacity } => write!(
                f,
                "ASIC {pe}: resident clusters need {used} gates of {capacity} available"
            ),
            Violation::PreferenceViolated { task, pe_type } => write!(
                f,
                "task {task} hosted on PE type {pe_type} its vectors forbid"
            ),
            Violation::ExclusionViolated { pe, task_a, task_b } => write!(
                f,
                "device {pe}: mutually excluded tasks {task_a} and {task_b} share it"
            ),
            Violation::IncompatibleGraphs {
                pe,
                graph_a,
                graph_b,
            } => write!(
                f,
                "device {pe}: graphs {graph_a} and {graph_b} are declared incompatible"
            ),
            Violation::ModeBookkeeping { pe, detail } => {
                write!(f, "device {pe}: bookkeeping mismatch: {detail}")
            }
            Violation::ClusterReplicated {
                cluster,
                pe_a,
                pe_b,
            } => write!(f, "cluster {cluster} resident on both {pe_a} and {pe_b}"),
            Violation::LinkPortsExceeded {
                link,
                attached,
                max_ports,
            } => write!(
                f,
                "link {link}: {attached} PEs attached to its {max_ports} ports"
            ),
            Violation::DanglingTransfer { edge, link } => write!(
                f,
                "edge {edge} scheduled on link {link} that does not attach both endpoints"
            ),
            Violation::UnavailabilityExceeded {
                graph,
                actual,
                budget,
            } => write!(
                f,
                "graph {graph}: unavailability {actual:.3} min/year over the {budget:.3} budget"
            ),
        }
    }
}
