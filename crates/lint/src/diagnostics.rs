//! Typed, severity-ranked diagnostics.
//!
//! Every [`Lint`] carries the identifiers of the specification entities it
//! points at (graph/task/edge/PE-type ids), a stable machine-readable
//! [`kind`](Lint::kind), and a [`Severity`]. Error-level lints are
//! *infeasibility proofs*: necessary conditions for synthesizability that
//! the specification violates, so synthesis is guaranteed to fail.
//! Warnings flag contradictions that waste synthesis effort (dead
//! preferences, dead compatibility declarations); Info lints report
//! lower bounds useful for sanity-checking results.

use std::fmt;

use serde::{Emitter, Serialize};

use crusade_model::{Dollars, EdgeId, GraphId, Nanos, PeTypeId, TaskId};

/// How bad a diagnostic is.
///
/// Serializes as its lowercase name (`"info"` / `"warning"` / `"error"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: bounds and statistics, nothing wrong.
    Info,
    /// A contradiction or dead declaration; synthesis may still succeed.
    Warning,
    /// A proved infeasibility: synthesis cannot succeed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

impl Serialize for Severity {
    fn emit<E: Emitter>(&self, e: &mut E) {
        e.str(&self.to_string());
    }
}

/// One static-analysis diagnostic.
///
/// Serializes as a flat self-describing object: a `kind` field holding
/// the stable string from [`Lint::kind`], a `severity` field, the
/// variant's own fields, and a rendered human-readable `message`.
#[derive(Debug, Clone, PartialEq)]
pub enum Lint {
    /// The specification fails structural validation (cycles, dangling
    /// edges, zero or overflowing periods, asymmetric compatibility, …).
    InvalidSpec {
        /// The underlying validation failure.
        message: String,
    },
    /// The best-case critical path to `task` already exceeds its absolute
    /// deadline: even infinitely many of the fastest PEs with free
    /// communication would miss it.
    CriticalPathExceedsDeadline {
        /// Owning graph.
        graph: GraphId,
        /// The task whose deadline is unreachable.
        task: TaskId,
        /// Best-case (lower-bound) finish instant.
        best_finish: Nanos,
        /// Absolute deadline (EST + effective deadline).
        deadline: Nanos,
    },
    /// The task's fastest feasible execution time exceeds the graph
    /// period, so its periodic copies can never be placed.
    TaskExceedsPeriod {
        /// Owning graph.
        graph: GraphId,
        /// The offending task.
        task: TaskId,
        /// Fastest feasible execution time.
        best: Nanos,
        /// The graph period.
        period: Nanos,
    },
    /// No PE type in the library can host the task once execution vector,
    /// preference vector and solo capacity (memory / gates / ERUF-scaled
    /// PFUs / EPUF-scaled pins) are intersected.
    NoFeasiblePe {
        /// Owning graph.
        graph: GraphId,
        /// The unhostable task.
        task: TaskId,
        /// Task name, for human output.
        name: String,
    },
    /// A task lists itself in its exclusion vector — a trivially
    /// unsatisfiable constraint cycle.
    SelfExclusion {
        /// Owning graph.
        graph: GraphId,
        /// The self-excluding task.
        task: TaskId,
    },
    /// The edge's endpoints can never share a PE (disjoint feasible-PE
    /// sets) and the library has no communication links at all.
    EdgeUnroutable {
        /// Owning graph.
        graph: GraphId,
        /// The unroutable edge.
        edge: EdgeId,
    },
    /// The edge's endpoints can never share a PE and even the fastest
    /// library link cannot move the edge's volume within one period.
    EdgeInfeasible {
        /// Owning graph.
        graph: GraphId,
        /// The offending edge.
        edge: EdgeId,
        /// Best-case transfer time over any library link.
        best: Nanos,
        /// The graph period.
        period: Nanos,
    },
    /// Adjacent (data-dependent) tasks exclude each other: co-clustering
    /// is dead and the edge is forced onto a link.
    ExcludedAdjacent {
        /// Owning graph.
        graph: GraphId,
        /// The edge joining the mutually exclusive tasks.
        edge: EdgeId,
    },
    /// A set of pairwise-exclusive tasks is feasible on exactly one PE
    /// type; at least `needed` instances of that type must be bought.
    ExclusionClique {
        /// Owning graph.
        graph: GraphId,
        /// The single feasible PE type.
        pe_type: PeTypeId,
        /// The clique members.
        tasks: Vec<TaskId>,
        /// Lower bound on instances of `pe_type`.
        needed: u64,
    },
    /// Two graphs are declared compatible (allowed to time-share a
    /// reconfigurable device), but a task of each has a *mandatory*
    /// execution window — an interval it must occupy under every
    /// admissible schedule — and the two windows provably collide every
    /// hyperperiod, so a merged mode hosting both tasks is dead.
    DeadCompatibility {
        /// First graph of the declared-compatible pair.
        a: GraphId,
        /// Second graph of the pair.
        b: GraphId,
        /// Witness task in `a`.
        task_a: TaskId,
        /// Witness task in `b`.
        task_b: TaskId,
    },
    /// Lower bound on the number of PE instances of one device class,
    /// from summed utilisation and a bin-packing argument over the tasks
    /// forced onto that class.
    ClassLowerBound {
        /// Device class: `"cpu"`, `"asic"` or `"ppe"`.
        class: &'static str,
        /// Provable minimum instance count.
        min_instances: u64,
        /// First-fit-decreasing packing estimate (achievable count).
        ffd_instances: u64,
        /// `min_instances` × the cheapest type of the class.
        cost_floor: Dollars,
    },
    /// Sum of the per-class cost floors: no architecture can be cheaper.
    CostLowerBound {
        /// The dollar lower bound.
        total: Dollars,
    },
}

impl Lint {
    /// The severity rank of this diagnostic.
    pub fn severity(&self) -> Severity {
        match self {
            Lint::InvalidSpec { .. }
            | Lint::CriticalPathExceedsDeadline { .. }
            | Lint::TaskExceedsPeriod { .. }
            | Lint::NoFeasiblePe { .. }
            | Lint::SelfExclusion { .. }
            | Lint::EdgeUnroutable { .. }
            | Lint::EdgeInfeasible { .. } => Severity::Error,
            Lint::ExcludedAdjacent { .. }
            | Lint::ExclusionClique { .. }
            | Lint::DeadCompatibility { .. } => Severity::Warning,
            Lint::ClassLowerBound { .. } | Lint::CostLowerBound { .. } => Severity::Info,
        }
    }

    /// Stable machine-readable label, identical to the `kind` field of
    /// the serialized form.
    pub fn kind(&self) -> &'static str {
        match self {
            Lint::InvalidSpec { .. } => "invalid-spec",
            Lint::CriticalPathExceedsDeadline { .. } => "critical-path-exceeds-deadline",
            Lint::TaskExceedsPeriod { .. } => "task-exceeds-period",
            Lint::NoFeasiblePe { .. } => "no-feasible-pe",
            Lint::SelfExclusion { .. } => "self-exclusion",
            Lint::EdgeUnroutable { .. } => "edge-unroutable",
            Lint::EdgeInfeasible { .. } => "edge-infeasible",
            Lint::ExcludedAdjacent { .. } => "excluded-adjacent",
            Lint::ExclusionClique { .. } => "exclusion-clique",
            Lint::DeadCompatibility { .. } => "dead-compatibility",
            Lint::ClassLowerBound { .. } => "class-lower-bound",
            Lint::CostLowerBound { .. } => "cost-lower-bound",
        }
    }
}

impl Serialize for Lint {
    fn emit<E: Emitter>(&self, e: &mut E) {
        fn f<E: Emitter, T: Serialize + ?Sized>(e: &mut E, name: &str, v: &T) {
            e.map_key(name);
            v.emit(e);
        }
        e.map_begin();
        f(e, "kind", self.kind());
        f(e, "severity", &self.severity());
        match self {
            Lint::InvalidSpec { message } => {
                f(e, "detail", message);
            }
            Lint::CriticalPathExceedsDeadline {
                graph,
                task,
                best_finish,
                deadline,
            } => {
                f(e, "graph", graph);
                f(e, "task", task);
                f(e, "best_finish", best_finish);
                f(e, "deadline", deadline);
            }
            Lint::TaskExceedsPeriod {
                graph,
                task,
                best,
                period,
            } => {
                f(e, "graph", graph);
                f(e, "task", task);
                f(e, "best", best);
                f(e, "period", period);
            }
            Lint::NoFeasiblePe { graph, task, name } => {
                f(e, "graph", graph);
                f(e, "task", task);
                f(e, "name", name);
            }
            Lint::SelfExclusion { graph, task } => {
                f(e, "graph", graph);
                f(e, "task", task);
            }
            Lint::EdgeUnroutable { graph, edge } | Lint::ExcludedAdjacent { graph, edge } => {
                f(e, "graph", graph);
                f(e, "edge", edge);
            }
            Lint::EdgeInfeasible {
                graph,
                edge,
                best,
                period,
            } => {
                f(e, "graph", graph);
                f(e, "edge", edge);
                f(e, "best", best);
                f(e, "period", period);
            }
            Lint::ExclusionClique {
                graph,
                pe_type,
                tasks,
                needed,
            } => {
                f(e, "graph", graph);
                f(e, "pe_type", pe_type);
                f(e, "tasks", tasks);
                f(e, "needed", needed);
            }
            Lint::DeadCompatibility {
                a,
                b,
                task_a,
                task_b,
            } => {
                f(e, "a", a);
                f(e, "b", b);
                f(e, "task_a", task_a);
                f(e, "task_b", task_b);
            }
            Lint::ClassLowerBound {
                class,
                min_instances,
                ffd_instances,
                cost_floor,
            } => {
                f(e, "class", class);
                f(e, "min_instances", min_instances);
                f(e, "ffd_instances", ffd_instances);
                f(e, "cost_floor", cost_floor);
            }
            Lint::CostLowerBound { total } => {
                f(e, "total", total);
            }
        }
        f(e, "message", &self.to_string());
        e.map_end();
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lint::InvalidSpec { message } => write!(f, "specification invalid: {message}"),
            Lint::CriticalPathExceedsDeadline {
                graph,
                task,
                best_finish,
                deadline,
            } => write!(
                f,
                "{graph}/{task}: best-case critical path finishes at {best_finish}, \
                 past the absolute deadline {deadline}"
            ),
            Lint::TaskExceedsPeriod {
                graph,
                task,
                best,
                period,
            } => write!(
                f,
                "{graph}/{task}: fastest feasible execution {best} exceeds the period {period}"
            ),
            Lint::NoFeasiblePe { graph, task, name } => write!(
                f,
                "{graph}/{task} ({name}): no PE type satisfies execution, preference \
                 and capacity vectors simultaneously"
            ),
            Lint::SelfExclusion { graph, task } => {
                write!(f, "{graph}/{task}: task excludes itself")
            }
            Lint::EdgeUnroutable { graph, edge } => write!(
                f,
                "{graph}/{edge}: endpoints can never share a PE and the library has no links"
            ),
            Lint::EdgeInfeasible {
                graph,
                edge,
                best,
                period,
            } => write!(
                f,
                "{graph}/{edge}: forced inter-PE transfer needs at least {best}, \
                 which exceeds the period {period}"
            ),
            Lint::ExcludedAdjacent { graph, edge } => write!(
                f,
                "{graph}/{edge}: data-dependent tasks exclude each other; \
                 co-clustering is dead and the edge is forced onto a link"
            ),
            Lint::ExclusionClique {
                graph,
                pe_type,
                tasks,
                needed,
            } => write!(
                f,
                "{graph}: {} pairwise-exclusive tasks are feasible only on {pe_type}; \
                 at least {needed} instances are required",
                tasks.len()
            ),
            Lint::DeadCompatibility {
                a,
                b,
                task_a,
                task_b,
            } => write!(
                f,
                "graphs {a} and {b} are declared compatible, but mandatory execution \
                 windows of {a}/{task_a} and {b}/{task_b} always collide — a merged \
                 reconfiguration mode hosting both is dead"
            ),
            Lint::ClassLowerBound {
                class,
                min_instances,
                ffd_instances,
                cost_floor,
            } => write!(
                f,
                "device class {class}: at least {min_instances} instance(s) required \
                 (first-fit-decreasing packs into {ffd_instances}); cost floor {cost_floor}"
            ),
            Lint::CostLowerBound { total } => {
                write!(f, "no feasible architecture can cost less than {total}")
            }
        }
    }
}

/// The ordered result of a lint pass.
///
/// Serializes transparently as the array of its diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    lints: Vec<Lint>,
}

impl Serialize for LintReport {
    fn emit<E: Emitter>(&self, e: &mut E) {
        self.lints.emit(e);
    }
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, lint: Lint) {
        self.lints.push(lint);
    }

    /// All diagnostics, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Lint> {
        self.lints.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.lints.len()
    }

    /// `true` when nothing was reported at all.
    pub fn is_empty(&self) -> bool {
        self.lints.is_empty()
    }

    /// Error-level diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Lint> {
        self.lints
            .iter()
            .filter(|l| l.severity() == Severity::Error)
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.lints
            .iter()
            .filter(|l| l.severity() == severity)
            .count()
    }

    /// The worst severity present, or `None` for an empty report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.lints.iter().map(Lint::severity).max()
    }

    /// `true` when the report proves infeasibility.
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// `true` when there is nothing actionable (no errors, no warnings;
    /// Info-level bounds do not count against cleanliness).
    pub fn is_clean(&self) -> bool {
        self.max_severity().map_or(true, |s| s == Severity::Info)
    }
}

impl<'a> IntoIterator for &'a LintReport {
    type Item = &'a Lint;
    type IntoIter = std::slice::Iter<'a, Lint>;
    fn into_iter(self) -> Self::IntoIter {
        self.lints.iter()
    }
}
