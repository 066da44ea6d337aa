//! The complete embedded-system specification handed to co-synthesis.

use serde::{Deserialize, Serialize};

use crate::{hyperperiod, GraphId, Nanos, TaskGraph, ValidateSpecError};

/// Pairwise compatibility of task graphs (Section 4.1 of the paper).
///
/// Two task graphs are *compatible* when their execution windows never
/// overlap in time, so they may time-share the same programmable devices
/// through dynamic reconfiguration. The paper encodes this as a
/// compatibility vector per graph with Δᵢⱼ = 0 meaning compatible; this
/// type stores the full symmetric matrix with `true` meaning compatible
/// (the more natural Rust reading).
///
/// When no matrix is supplied, the co-synthesis system identifies
/// non-overlapping graphs automatically from the computed schedule.
///
/// # Examples
///
/// ```
/// use crusade_model::{CompatibilityMatrix, GraphId};
///
/// let mut m = CompatibilityMatrix::incompatible(3);
/// m.set_compatible(GraphId::new(1), GraphId::new(2));
/// assert!(m.compatible(GraphId::new(1), GraphId::new(2)));
/// assert!(m.compatible(GraphId::new(2), GraphId::new(1)));
/// assert!(!m.compatible(GraphId::new(0), GraphId::new(1)));
/// assert!(!m.compatible(GraphId::new(1), GraphId::new(1))); // never with itself
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompatibilityMatrix {
    n: usize,
    /// Row-major upper-triangular-inclusive storage; entry (i, j).
    bits: Vec<bool>,
}

impl CompatibilityMatrix {
    /// A matrix declaring every pair incompatible.
    pub fn incompatible(graph_count: usize) -> Self {
        CompatibilityMatrix {
            n: graph_count,
            bits: vec![false; graph_count * graph_count],
        }
    }

    /// Number of graphs this matrix covers.
    pub fn graph_count(&self) -> usize {
        self.n
    }

    /// Marks `a` and `b` as compatible (symmetric).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or `a == b`.
    pub fn set_compatible(&mut self, a: GraphId, b: GraphId) {
        assert_ne!(a, b, "a graph is never compatible with itself");
        self.bits[a.index() * self.n + b.index()] = true;
        self.bits[b.index() * self.n + a.index()] = true;
    }

    /// Whether `a` and `b` may time-share programmable devices.
    ///
    /// Always `false` for `a == b` and for out-of-range ids.
    pub fn compatible(&self, a: GraphId, b: GraphId) -> bool {
        if a == b || a.index() >= self.n || b.index() >= self.n {
            return false;
        }
        self.bits[a.index() * self.n + b.index()]
    }

    /// Rebuilds the matrix for a graph list that dropped `removed` (or
    /// merely grew, when `removed` is `None`) to `new_count` graphs.
    /// Surviving pairwise compatibility is preserved under the id shift;
    /// any new graph starts incompatible with every other.
    pub(crate) fn resized_without(
        &self,
        removed: Option<GraphId>,
        new_count: usize,
    ) -> CompatibilityMatrix {
        let mut next = CompatibilityMatrix::incompatible(new_count);
        let old_id = |k: usize| match removed {
            Some(r) if k >= r.index() => GraphId::new(k + 1),
            _ => GraphId::new(k),
        };
        for i in 0..new_count {
            for j in (i + 1)..new_count {
                if self.compatible(old_id(i), old_id(j)) {
                    next.set_compatible(GraphId::new(i), GraphId::new(j));
                }
            }
        }
        next
    }

    /// Validates internal symmetry (matrices built through
    /// [`set_compatible`](Self::set_compatible) are symmetric by
    /// construction, but deserialised ones may not be).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateSpecError::CompatibilityAsymmetric`] on the first
    /// asymmetric pair.
    pub fn validate(&self) -> Result<(), ValidateSpecError> {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.bits[i * self.n + j] != self.bits[j * self.n + i] {
                    return Err(ValidateSpecError::CompatibilityAsymmetric {
                        a: GraphId::new(i),
                        b: GraphId::new(j),
                    });
                }
            }
        }
        Ok(())
    }
}

/// System-wide synthesis constraints that are not per-graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemConstraints {
    /// Maximum tolerable reconfiguration (boot) time for any mode switch.
    /// The reconfiguration-controller interface synthesised for each
    /// architecture must meet this (Section 4.4).
    pub boot_time_requirement: Nanos,
    /// Operating-system overhead charged for each preemption (interrupt +
    /// context switch + RPC bookkeeping), determined experimentally and
    /// supplied a priori (Section 5).
    pub preemption_overhead: Nanos,
    /// Average number of ports assumed on links before any allocation is
    /// known, used to compute the initial communication vectors
    /// (Section 2.2).
    pub average_link_ports: u32,
}

impl Default for SystemConstraints {
    fn default() -> Self {
        SystemConstraints {
            boot_time_requirement: Nanos::from_millis(200),
            preemption_overhead: Nanos::from_micros(50),
            average_link_ports: 4,
        }
    }
}

/// A full embedded-system specification: the set of periodic task graphs
/// plus system-wide constraints.
///
/// # Examples
///
/// ```
/// use crusade_model::{
///     ExecutionTimes, Nanos, SystemSpec, Task, TaskGraphBuilder,
/// };
///
/// # fn main() -> Result<(), crusade_model::ValidateSpecError> {
/// let mut b = TaskGraphBuilder::new("g", Nanos::from_millis(1));
/// b.add_task(Task::new("t", ExecutionTimes::uniform(1, Nanos::from_micros(10))));
/// let spec = SystemSpec::new(vec![b.build()?]);
/// assert_eq!(spec.hyperperiod()?, Nanos::from_millis(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemSpec {
    graphs: Vec<TaskGraph>,
    /// Optional a-priori compatibility knowledge; `None` lets co-synthesis
    /// detect non-overlap automatically from the schedule.
    compatibility: Option<CompatibilityMatrix>,
    constraints: SystemConstraints,
}

impl SystemSpec {
    /// Creates a specification from task graphs with default constraints.
    pub fn new(graphs: Vec<TaskGraph>) -> Self {
        SystemSpec {
            graphs,
            compatibility: None,
            constraints: SystemConstraints::default(),
        }
    }

    /// Replaces the system constraints.
    pub fn with_constraints(mut self, constraints: SystemConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Supplies an a-priori compatibility matrix.
    pub fn with_compatibility(mut self, matrix: CompatibilityMatrix) -> Self {
        self.compatibility = Some(matrix);
        self
    }

    /// The task graphs.
    pub fn graphs(&self) -> impl Iterator<Item = (GraphId, &TaskGraph)> {
        self.graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (GraphId::new(i), g))
    }

    /// Number of task graphs.
    pub fn graph_count(&self) -> usize {
        self.graphs.len()
    }

    /// Total number of tasks across all graphs.
    pub fn task_count(&self) -> usize {
        self.graphs.iter().map(TaskGraph::task_count).sum()
    }

    /// Accesses one graph.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn graph(&self, id: GraphId) -> &TaskGraph {
        &self.graphs[id.index()]
    }

    /// Mutable access to one graph (CRUSADE-FT rewrites graphs in place).
    pub fn graph_mut(&mut self, id: GraphId) -> &mut TaskGraph {
        &mut self.graphs[id.index()]
    }

    /// The optional a-priori compatibility matrix.
    pub fn compatibility(&self) -> Option<&CompatibilityMatrix> {
        self.compatibility.as_ref()
    }

    /// Appends a graph; it receives the next free [`GraphId`] and existing
    /// ids are unaffected. An a-priori compatibility matrix grows by one
    /// graph declared incompatible with every other (the conservative
    /// default — co-synthesis may still detect non-overlap from the
    /// schedule).
    pub fn push_graph(&mut self, graph: TaskGraph) {
        self.graphs.push(graph);
        if let Some(m) = self.compatibility.take() {
            self.compatibility = Some(m.resized_without(None, self.graphs.len()));
        }
    }

    /// Removes and returns a graph; graphs after it shift down one id.
    /// The compatibility matrix, when present, drops the corresponding
    /// row and column.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn remove_graph(&mut self, id: GraphId) -> TaskGraph {
        let removed = self.graphs.remove(id.index());
        if let Some(m) = self.compatibility.take() {
            self.compatibility = Some(m.resized_without(Some(id), self.graphs.len()));
        }
        removed
    }

    /// Inserts a graph at `id`, shifting later graphs up one id — the
    /// inverse of [`remove_graph`](Self::remove_graph) used to rewrite a
    /// graph in place. The reinserted graph is declared incompatible with
    /// every other in an a-priori matrix (its timing changed; prior
    /// non-overlap knowledge no longer applies).
    ///
    /// # Panics
    ///
    /// Panics if `id` is beyond the current graph count.
    pub fn insert_graph(&mut self, id: GraphId, graph: TaskGraph) {
        self.graphs.insert(id.index(), graph);
        if let Some(m) = self.compatibility.take() {
            // Shift the surviving pairs around the inserted row/column.
            let mut grown = CompatibilityMatrix::incompatible(self.graphs.len());
            for i in 0..self.graphs.len() {
                for j in (i + 1)..self.graphs.len() {
                    let skip = |k: usize| k == id.index();
                    if skip(i) || skip(j) {
                        continue;
                    }
                    let old = |k: usize| GraphId::new(if k > id.index() { k - 1 } else { k });
                    if m.compatible(old(i), old(j)) {
                        grown.set_compatible(GraphId::new(i), GraphId::new(j));
                    }
                }
            }
            self.compatibility = Some(grown);
        }
    }

    /// System-wide constraints.
    pub fn constraints(&self) -> &SystemConstraints {
        &self.constraints
    }

    /// The hyperperiod Γ = lcm of all graph periods.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateSpecError::Empty`] when there are no graphs, or
    /// [`ValidateSpecError::HyperperiodOverflow`] when Γ overflows.
    pub fn hyperperiod(&self) -> Result<Nanos, ValidateSpecError> {
        hyperperiod::hyperperiod(self.graphs.iter().map(TaskGraph::period))
    }

    /// Validates every graph plus spec-level invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant across all graphs, the
    /// compatibility matrix, or the hyperperiod computation.
    pub fn validate(&self) -> Result<(), ValidateSpecError> {
        if self.graphs.is_empty() {
            return Err(ValidateSpecError::Empty);
        }
        for g in &self.graphs {
            g.validate()?;
        }
        if let Some(m) = &self.compatibility {
            if m.graph_count() != self.graphs.len() {
                return Err(ValidateSpecError::CompatibilityLength {
                    graph: GraphId::new(0),
                    expected: self.graphs.len(),
                    actual: m.graph_count(),
                });
            }
            m.validate()?;
        }
        self.hyperperiod()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionTimes, Task, TaskGraphBuilder};

    fn one_task_graph(name: &str, period: Nanos) -> TaskGraph {
        let mut b = TaskGraphBuilder::new(name, period);
        b.add_task(Task::new(
            "t",
            ExecutionTimes::uniform(1, Nanos::from_micros(1)),
        ));
        b.build().unwrap()
    }

    #[test]
    fn spec_hyperperiod_and_counts() {
        let spec = SystemSpec::new(vec![
            one_task_graph("a", Nanos::from_micros(100)),
            one_task_graph("b", Nanos::from_micros(250)),
        ]);
        assert_eq!(spec.graph_count(), 2);
        assert_eq!(spec.task_count(), 2);
        assert_eq!(spec.hyperperiod().unwrap(), Nanos::from_micros(500));
        spec.validate().unwrap();
    }

    #[test]
    fn empty_spec_invalid() {
        let spec = SystemSpec::new(vec![]);
        assert_eq!(spec.validate().unwrap_err(), ValidateSpecError::Empty);
    }

    #[test]
    fn compat_matrix_wrong_size_rejected() {
        let spec = SystemSpec::new(vec![one_task_graph("a", Nanos::from_micros(10))])
            .with_compatibility(CompatibilityMatrix::incompatible(3));
        assert!(matches!(
            spec.validate().unwrap_err(),
            ValidateSpecError::CompatibilityLength { .. }
        ));
    }

    #[test]
    fn compat_symmetry_enforced_by_construction() {
        let mut m = CompatibilityMatrix::incompatible(4);
        m.set_compatible(GraphId::new(0), GraphId::new(3));
        m.validate().unwrap();
        assert!(m.compatible(GraphId::new(3), GraphId::new(0)));
    }

    #[test]
    #[should_panic(expected = "never compatible with itself")]
    fn self_compatibility_panics() {
        let mut m = CompatibilityMatrix::incompatible(2);
        m.set_compatible(GraphId::new(1), GraphId::new(1));
    }

    #[test]
    fn out_of_range_compat_is_false() {
        let m = CompatibilityMatrix::incompatible(2);
        assert!(!m.compatible(GraphId::new(0), GraphId::new(9)));
    }

    #[test]
    fn constraints_default_sane() {
        let c = SystemConstraints::default();
        assert!(c.boot_time_requirement > Nanos::ZERO);
        assert!(c.average_link_ports >= 1);
    }
}
