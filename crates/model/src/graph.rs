//! Periodic acyclic task graphs.
//!
//! Embedded-system functionality is specified as a set of task graphs whose
//! nodes are *tasks* (atomic units of data and control flow) and whose
//! directed edges represent communication between tasks. Each graph is
//! periodic, with an earliest start time (EST), a period and a deadline
//! (Figure 1 of the paper). Graphs must be acyclic — loops live *inside*
//! tasks.

use serde::{Deserialize, Serialize};

use crate::{
    EdgeId, Exclusions, ExecutionTimes, HwDemand, MemoryVector, Nanos, Preference, TaskId,
    ValidateSpecError,
};

/// A node of a task graph: an atomic unit of work.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Task {
    /// Human-readable name (e.g. `"atm-cell-parse"`).
    pub name: String,
    /// Worst-case execution time on each PE type.
    pub exec: ExecutionTimes,
    /// Preferential mapping restriction.
    pub preference: Preference,
    /// Tasks that may not share a PE with this one.
    pub exclusions: Exclusions,
    /// Program/data/stack storage when mapped to a CPU.
    pub memory: MemoryVector,
    /// Gate/PFU/pin area when mapped to hardware.
    pub hw: HwDemand,
    /// Deadline for this task, measured from the graph's EST, if this task
    /// carries its own deadline. Tasks without a deadline inherit the
    /// graph-level deadline when they are sinks.
    pub deadline: Option<Nanos>,
    /// Whether the task propagates erroneous inputs to its outputs
    /// unchanged ("error transparency", exploited by CRUSADE-FT to share
    /// downstream checks).
    pub error_transparent: bool,
}

impl Task {
    /// Creates a task with the given name and execution-time vector and
    /// neutral remaining attributes.
    pub fn new(name: impl Into<String>, exec: ExecutionTimes) -> Self {
        Task {
            name: name.into(),
            exec,
            preference: Preference::Any,
            exclusions: Exclusions::none(),
            memory: MemoryVector::ZERO,
            hw: HwDemand::ZERO,
            deadline: None,
            error_transparent: false,
        }
    }
}

/// A directed communication edge between two tasks of the same graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Producing task.
    pub from: TaskId,
    /// Consuming task.
    pub to: TaskId,
    /// Number of information bytes transferred per activation.
    pub bytes: u64,
}

/// A periodic acyclic task graph.
///
/// Construct with [`TaskGraphBuilder`]; the builder's
/// [`build`](TaskGraphBuilder::build) validates the graph (acyclicity,
/// edge sanity, mappability) and pre-computes a topological order.
///
/// # Examples
///
/// ```
/// use crusade_model::{ExecutionTimes, Nanos, Task, TaskGraphBuilder};
///
/// # fn main() -> Result<(), crusade_model::ValidateSpecError> {
/// let mut b = TaskGraphBuilder::new("sample", Nanos::from_micros(100));
/// let src = b.add_task(Task::new("src", ExecutionTimes::uniform(1, Nanos::from_micros(5))));
/// let sink = b.add_task(Task::new("sink", ExecutionTimes::uniform(1, Nanos::from_micros(7))));
/// b.add_edge(src, sink, 64);
/// let g = b.deadline(Nanos::from_micros(90)).build()?;
/// assert_eq!(g.task_count(), 2);
/// assert_eq!(g.topological_order()[0], src);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    est: Nanos,
    period: Nanos,
    deadline: Nanos,
    /// Outgoing edge ids per task, parallel to `tasks`.
    successors: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per task, parallel to `tasks`.
    predecessors: Vec<Vec<EdgeId>>,
    topo: Vec<TaskId>,
}

impl TaskGraph {
    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Earliest start time of the first copy, from system time zero.
    pub fn est(&self) -> Nanos {
        self.est
    }

    /// Period between successive activations.
    pub fn period(&self) -> Nanos {
        self.period
    }

    /// Deadline of each activation, measured from that activation's
    /// release (EST + k·period for copy k).
    pub fn deadline(&self) -> Nanos {
        self.deadline
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Accesses a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Mutable access to a task (used by CRUSADE-FT to weave in check
    /// tasks's exclusion updates).
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// Accesses an edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over `(id, task)` pairs.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId::new(i), t))
    }

    /// Iterates over `(id, edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// Outgoing edges of a task.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.successors[id.index()]
            .iter()
            .map(|&e| (e, &self.edges[e.index()]))
    }

    /// Incoming edges of a task.
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.predecessors[id.index()]
            .iter()
            .map(|&e| (e, &self.edges[e.index()]))
    }

    /// Tasks with no incoming edges.
    pub fn sources(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len())
            .map(TaskId::new)
            .filter(|t| self.predecessors[t.index()].is_empty())
    }

    /// Tasks with no outgoing edges.
    pub fn sinks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len())
            .map(TaskId::new)
            .filter(|t| self.successors[t.index()].is_empty())
    }

    /// A topological order of the tasks, computed at build time.
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// The deadline applicable to `task`: its own if set, else the graph
    /// deadline if it is a sink, else `None`.
    pub fn effective_deadline(&self, task: TaskId) -> Option<Nanos> {
        self.tasks[task.index()].deadline.or_else(|| {
            if self.successors[task.index()].is_empty() {
                Some(self.deadline)
            } else {
                None
            }
        })
    }

    /// The longest node-weighted path through the graph: the maximum over
    /// all paths of the sum of `weight(task)` along the path, ignoring
    /// edge (communication) costs. With per-PE worst-case execution times
    /// as weights this is the classic critical path — a lower bound on
    /// any schedule's makespan, and the floor below which no deadline is
    /// meaningful. Workload generators use it to place deadlines at a
    /// controlled tightness above the path; analyses use it as a
    /// best-case finish bound.
    ///
    /// Returns [`Nanos::ZERO`] for an empty graph.
    pub fn critical_path_with(&self, mut weight: impl FnMut(TaskId, &Task) -> Nanos) -> Nanos {
        let mut finish = vec![Nanos::ZERO; self.tasks.len()];
        let mut longest = Nanos::ZERO;
        for &t in &self.topo {
            let start = self.predecessors[t.index()]
                .iter()
                .map(|&e| finish[self.edges[e.index()].from.index()])
                .max()
                .unwrap_or(Nanos::ZERO);
            let f = start + weight(t, &self.tasks[t.index()]);
            finish[t.index()] = f;
            longest = longest.max(f);
        }
        longest
    }

    /// Re-validates the structural invariants. Builders call this; it is
    /// public so mutated graphs (e.g. after CRUSADE-FT adds check tasks via
    /// a new builder round-trip) can be re-checked.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidateSpecError> {
        validate_parts(&self.tasks, &self.edges, self.period, self.deadline).map(drop)
    }

    /// Decomposes the graph back into builder form (used by CRUSADE-FT to
    /// add assertion and duplicate-and-compare tasks, then rebuild).
    pub fn into_builder(self) -> TaskGraphBuilder {
        TaskGraphBuilder {
            name: self.name,
            tasks: self.tasks,
            edges: self.edges,
            est: self.est,
            period: self.period,
            deadline: self.deadline,
        }
    }
}

/// Incrementally constructs a [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct TaskGraphBuilder {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    est: Nanos,
    period: Nanos,
    deadline: Nanos,
}

impl TaskGraphBuilder {
    /// Starts a graph with the given name and period. The deadline defaults
    /// to the period and EST to zero.
    pub fn new(name: impl Into<String>, period: Nanos) -> Self {
        TaskGraphBuilder {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
            est: Nanos::ZERO,
            period,
            deadline: period,
        }
    }

    /// Sets the earliest start time of the first activation.
    pub fn est(mut self, est: Nanos) -> Self {
        self.est = est;
        self
    }

    /// Sets the per-activation deadline (measured from release).
    pub fn deadline(mut self, deadline: Nanos) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replaces the activation period (rate changes rebuild graphs through
    /// [`TaskGraph::into_builder`]). The deadline is left as previously
    /// set; callers scaling the rate normally rescale it alongside.
    pub fn period(mut self, period: Nanos) -> Self {
        self.period = period;
        self
    }

    /// Adds a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId::new(self.tasks.len());
        self.tasks.push(task);
        id
    }

    /// Adds a communication edge carrying `bytes` bytes, returning its id.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, bytes: u64) -> EdgeId {
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge { from, to, bytes });
        id
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Mutable access to an already-added task.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this builder.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// Validates and finishes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateSpecError`] if an edge dangles or self-loops, the
    /// graph is cyclic, a task is unmappable, its exclusion vector dangles,
    /// or period/deadline are zero.
    pub fn build(self) -> Result<TaskGraph, ValidateSpecError> {
        let topo = validate_parts(&self.tasks, &self.edges, self.period, self.deadline)?;
        let mut successors = vec![Vec::new(); self.tasks.len()];
        let mut predecessors = vec![Vec::new(); self.tasks.len()];
        for (i, e) in self.edges.iter().enumerate() {
            successors[e.from.index()].push(EdgeId::new(i));
            predecessors[e.to.index()].push(EdgeId::new(i));
        }
        Ok(TaskGraph {
            name: self.name,
            tasks: self.tasks,
            edges: self.edges,
            est: self.est,
            period: self.period,
            deadline: self.deadline,
            successors,
            predecessors,
            topo,
        })
    }
}

/// Shared validation; returns the topological order on success.
fn validate_parts(
    tasks: &[Task],
    edges: &[Edge],
    period: Nanos,
    deadline: Nanos,
) -> Result<Vec<TaskId>, ValidateSpecError> {
    if period.is_zero() {
        return Err(ValidateSpecError::ZeroPeriod);
    }
    if deadline.is_zero() {
        return Err(ValidateSpecError::ZeroDeadline);
    }
    for (i, e) in edges.iter().enumerate() {
        let id = EdgeId::new(i);
        if e.from.index() >= tasks.len() {
            return Err(ValidateSpecError::DanglingEdge {
                edge: id,
                task: e.from,
            });
        }
        if e.to.index() >= tasks.len() {
            return Err(ValidateSpecError::DanglingEdge {
                edge: id,
                task: e.to,
            });
        }
        if e.from == e.to {
            return Err(ValidateSpecError::SelfLoop { edge: id });
        }
    }
    for (i, t) in tasks.iter().enumerate() {
        let id = TaskId::new(i);
        let mappable = t.exec.iter().any(|(pe, _)| t.preference.allows(pe));
        if !mappable {
            return Err(ValidateSpecError::UnmappableTask { task: id });
        }
        for peer in t.exclusions.iter() {
            if peer.index() >= tasks.len() {
                return Err(ValidateSpecError::DanglingExclusion { task: id, peer });
            }
        }
    }
    // Kahn's algorithm for acyclicity + topological order.
    let mut indegree = vec![0usize; tasks.len()];
    for e in edges {
        indegree[e.to.index()] += 1;
    }
    let mut queue: Vec<TaskId> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| TaskId::new(i))
        .collect();
    let mut topo = Vec::with_capacity(tasks.len());
    let mut head = 0;
    while head < queue.len() {
        let t = queue[head];
        head += 1;
        topo.push(t);
        for e in edges.iter().filter(|e| e.from == t) {
            indegree[e.to.index()] -= 1;
            if indegree[e.to.index()] == 0 {
                queue.push(e.to);
            }
        }
    }
    if topo.len() != tasks.len() {
        return Err(ValidateSpecError::Cyclic);
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeTypeId;

    fn t(name: &str) -> Task {
        Task::new(name, ExecutionTimes::uniform(2, Nanos::from_micros(1)))
    }

    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("diamond", Nanos::from_millis(1));
        let a = b.add_task(t("a"));
        let x = b.add_task(t("x"));
        let y = b.add_task(t("y"));
        let z = b.add_task(t("z"));
        b.add_edge(a, x, 10);
        b.add_edge(a, y, 10);
        b.add_edge(x, z, 10);
        b.add_edge(y, z, 10);
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![TaskId::new(0)]);
        assert_eq!(g.sinks().collect::<Vec<_>>(), vec![TaskId::new(3)]);
        assert_eq!(g.successors(TaskId::new(0)).count(), 2);
        assert_eq!(g.predecessors(TaskId::new(3)).count(), 2);
        // Topological order puts a first and z last.
        assert_eq!(g.topological_order().first(), Some(&TaskId::new(0)));
        assert_eq!(g.topological_order().last(), Some(&TaskId::new(3)));
    }

    #[test]
    fn cycle_detected() {
        let mut b = TaskGraphBuilder::new("cyc", Nanos::from_millis(1));
        let a = b.add_task(t("a"));
        let c = b.add_task(t("b"));
        b.add_edge(a, c, 1);
        b.add_edge(c, a, 1);
        assert_eq!(b.build().unwrap_err(), ValidateSpecError::Cyclic);
    }

    #[test]
    fn self_loop_detected() {
        let mut b = TaskGraphBuilder::new("loop", Nanos::from_millis(1));
        let a = b.add_task(t("a"));
        b.add_edge(a, a, 1);
        assert!(matches!(
            b.build().unwrap_err(),
            ValidateSpecError::SelfLoop { .. }
        ));
    }

    #[test]
    fn dangling_edge_detected() {
        let mut b = TaskGraphBuilder::new("dangle", Nanos::from_millis(1));
        let a = b.add_task(t("a"));
        b.add_edge(a, TaskId::new(7), 1);
        assert!(matches!(
            b.build().unwrap_err(),
            ValidateSpecError::DanglingEdge { .. }
        ));
    }

    #[test]
    fn unmappable_task_detected() {
        let mut b = TaskGraphBuilder::new("unmap", Nanos::from_millis(1));
        b.add_task(Task::new("ghost", ExecutionTimes::unmapped(2)));
        assert!(matches!(
            b.build().unwrap_err(),
            ValidateSpecError::UnmappableTask { .. }
        ));
    }

    #[test]
    fn preference_conflicting_with_exec_detected() {
        let mut b = TaskGraphBuilder::new("pref", Nanos::from_millis(1));
        let mut task = Task::new(
            "only-pe1",
            ExecutionTimes::from_entries(2, [(PeTypeId::new(0), Nanos::from_micros(1))]),
        );
        // Preference names a PE type for which no execution time exists.
        task.preference = Preference::Only(vec![PeTypeId::new(1)]);
        b.add_task(task);
        assert!(matches!(
            b.build().unwrap_err(),
            ValidateSpecError::UnmappableTask { .. }
        ));
    }

    #[test]
    fn zero_period_rejected() {
        let b = TaskGraphBuilder::new("zp", Nanos::ZERO);
        assert_eq!(b.build().unwrap_err(), ValidateSpecError::ZeroPeriod);
    }

    #[test]
    fn effective_deadline_falls_back_to_graph_for_sinks() {
        let g = diamond();
        assert_eq!(g.effective_deadline(TaskId::new(3)), Some(g.deadline()));
        assert_eq!(g.effective_deadline(TaskId::new(1)), None);
    }

    #[test]
    fn per_task_deadline_overrides() {
        let mut b = TaskGraphBuilder::new("own", Nanos::from_millis(2));
        let mut task = t("a");
        task.deadline = Some(Nanos::from_micros(300));
        let a = b.add_task(task);
        let g = b.build().unwrap();
        assert_eq!(g.effective_deadline(a), Some(Nanos::from_micros(300)));
    }

    #[test]
    fn critical_path_sums_the_longest_chain() {
        // diamond: a -> {x, y} -> z, each task weighted by its index + 1.
        let g = diamond();
        let cp = g.critical_path_with(|id, _| Nanos::from_micros(id.index() as u64 + 1));
        // Longest path is a(1) -> y(3) -> z(4) = 8 µs.
        assert_eq!(cp, Nanos::from_micros(8));
        // Uniform unit weights: path length is the depth (3 tasks).
        let depth = g.critical_path_with(|_, _| Nanos::from_nanos(1));
        assert_eq!(depth, Nanos::from_nanos(3));
    }

    #[test]
    fn builder_round_trip_preserves_graph() {
        let g = diamond();
        let g2 = g.clone().into_builder().build().unwrap();
        assert_eq!(g, g2);
    }
}
