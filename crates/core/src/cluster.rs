//! Critical-path task clustering (Section 5, after COSYN).
//!
//! Clustering groups tasks that will be allocated to the same PE, which
//! removes their mutual communication cost and shrinks the allocation
//! search space. The method is COSYN's: repeatedly take the unclustered
//! task with the highest deadline-based priority level and grow a cluster
//! down the *current* longest path, re-zeroing the absorbed communication
//! and recomputing priorities — this addresses the fact that the longest
//! path changes as clustering proceeds.

use serde::{Deserialize, Serialize};

use crusade_model::{
    EdgeId, GraphId, HwDemand, MemoryVector, Nanos, PeClass, PeTypeId, Priority, ResourceLibrary,
    SystemSpec, TaskGraph, TaskId,
};
use crusade_sched::priority_levels;

use crate::error::SynthesisError;
use crate::options::{derate, CosynOptions};

/// Identifies a cluster across the whole specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ClusterId(u32);

impl ClusterId {
    /// Creates a cluster id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` — far beyond any realisable
    /// clustering.
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "cluster index exceeds u32::MAX");
        #[allow(clippy::cast_possible_truncation)] // asserted above
        ClusterId(index as u32)
    }

    /// Raw index into the clustering's cluster list.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A group of tasks (all from one graph) that must share a PE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// The owning graph.
    pub graph: GraphId,
    /// Member tasks, in the order they were absorbed along the path.
    pub tasks: Vec<TaskId>,
    /// The cluster's priority level: the maximum over its members
    /// (recomputed after clustering completes).
    pub priority: Priority,
    /// PE types every member can execute on (execution time defined and
    /// preference allows) — the allocation candidates.
    pub allowed_pes: Vec<PeTypeId>,
    /// Sum of member memory vectors (CPU capacity check).
    pub memory: MemoryVector,
    /// Sum of member hardware demands (ASIC/PPE capacity check).
    pub hw: HwDemand,
}

impl Cluster {
    /// Worst-case execution time of the whole cluster on `pe`: the sum of
    /// member times (members run back to back on a CPU; on hardware they
    /// pipeline spatially but the sum remains the safe envelope used for
    /// the allocation decision).
    pub fn execution_time_on(&self, graph: &TaskGraph, pe: PeTypeId) -> Option<Nanos> {
        self.tasks
            .iter()
            .map(|&t| graph.task(t).exec.on(pe))
            .sum::<Option<Nanos>>()
    }
}

/// The result of clustering a specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    clusters: Vec<Cluster>,
    /// Cluster of each task, indexed `[graph][task]`.
    assignment: Vec<Vec<ClusterId>>,
}

impl Clustering {
    /// The clusters, ordered by decreasing priority (the allocation
    /// order).
    pub fn clusters(&self) -> impl Iterator<Item = (ClusterId, &Cluster)> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (ClusterId::new(i), c))
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Accesses one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// Which cluster a task belongs to.
    pub fn cluster_of(&self, graph: GraphId, task: TaskId) -> ClusterId {
        self.assignment[graph.index()][task.index()]
    }

    /// `true` when two tasks of the same graph share a cluster.
    pub fn same_cluster(&self, graph: GraphId, a: TaskId, b: TaskId) -> bool {
        self.cluster_of(graph, a) == self.cluster_of(graph, b)
    }
}

/// Clusters every graph of `spec` (Section 5's clustering step).
///
/// `cluster_size_cap` bounds cluster growth. Returns clusters sorted by
/// decreasing priority level, ready for the allocation loop.
///
/// # Errors
///
/// [`SynthesisError::Internal`] when the clustering bookkeeping
/// desynchronises (a bug, reported instead of panicking so long
/// verification campaigns degrade gracefully).
///
/// # Examples
///
/// ```
/// use crusade_core::cluster_tasks;
/// use crusade_model::{
///     CpuAttrs, Dollars, ExecutionTimes, Nanos, PeClass, PeType, ResourceLibrary, SystemSpec,
///     Task, TaskGraphBuilder,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lib = ResourceLibrary::new();
/// lib.add_pe(PeType::new("cpu", Dollars::new(50), PeClass::Cpu(CpuAttrs {
///     memory_bytes: 1 << 20,
///     context_switch: Nanos::from_micros(5),
///     comm_ports: 2,
///     comm_overlap: true,
/// })));
/// let mut b = TaskGraphBuilder::new("g", Nanos::from_millis(1));
/// let a = b.add_task(Task::new("a", ExecutionTimes::uniform(1, Nanos::from_micros(10))));
/// let z = b.add_task(Task::new("z", ExecutionTimes::uniform(1, Nanos::from_micros(10))));
/// b.add_edge(a, z, 64);
/// let spec = SystemSpec::new(vec![b.build()?]);
/// let clustering = cluster_tasks(&spec, &lib, 8)?;
/// // A two-task chain collapses into one cluster.
/// assert_eq!(clustering.cluster_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn cluster_tasks(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    cluster_size_cap: usize,
) -> Result<Clustering, SynthesisError> {
    let options = CosynOptions {
        cluster_size_cap,
        ..CosynOptions::default()
    };
    cluster_tasks_with(spec, lib, &options)
}

/// A PE type's capacity as clustering checks it: a fresh instance's
/// memory, or its area under the ERUF/EPUF caps, derated once per call.
enum Capacity {
    Cpu {
        memory: u64,
    },
    Asic {
        gates: u64,
        pins: u32,
    },
    Ppe {
        pfus: u32,
        flip_flops: u32,
        pins: u32,
    },
}

impl Capacity {
    fn of(class: &PeClass, options: &CosynOptions) -> Self {
        match class {
            PeClass::Cpu(attrs) => Capacity::Cpu {
                memory: attrs.memory_bytes,
            },
            PeClass::Asic(attrs) => Capacity::Asic {
                gates: attrs.gates,
                pins: derate(attrs.pins, options.epuf),
            },
            PeClass::Ppe(attrs) => Capacity::Ppe {
                pfus: derate(attrs.pfus, options.eruf),
                flip_flops: attrs.flip_flops,
                pins: derate(attrs.pins, options.epuf),
            },
        }
    }

    /// Whether a cluster with this footprint fits a fresh instance.
    fn fits(&self, hw: HwDemand, memory: u64) -> bool {
        match *self {
            Capacity::Cpu { memory: cap } => memory <= cap,
            Capacity::Asic { gates, pins } => hw.gates <= gates && hw.pins <= pins,
            Capacity::Ppe {
                pfus,
                flip_flops,
                pins,
            } => hw.pfus <= pfus && hw.flip_flops <= flip_flops && hw.pins <= pins,
        }
    }
}

/// The cluster being grown, with the graph-wide bookkeeping its growth
/// updates.
struct Growth<'s> {
    graph: &'s TaskGraph,
    capacity: &'s [Capacity],
    /// Index of the cluster being grown.
    idx: usize,
    members: Vec<TaskId>,
    /// PE types every member can execute on, in library order.
    allowed: Vec<PeTypeId>,
    /// Running sums of the members' demands.
    hw: HwDemand,
    memory: MemoryVector,
    cluster_of: &'s mut [Option<usize>],
    /// `excluded_by[t] == idx`: some member of cluster `idx` excludes task
    /// `t`. Only the cluster being grown is ever asked about, so the flags
    /// of earlier clusters need no clearing.
    excluded_by: &'s mut [usize],
    /// Communication time per edge; absorbed edges are zeroed.
    comm: &'s mut [Nanos],
}

impl Growth<'_> {
    /// Whether `to` may join: it is unclustered, excludes no member and is
    /// excluded by none, some allowed PE type runs it, and the grown
    /// cluster still fits a fresh instance of such a type — growth must
    /// never create a cluster no PE can host.
    fn admits(&self, to: TaskId) -> bool {
        if self.cluster_of[to.index()].is_some() || self.excluded_by[to.index()] == self.idx {
            return false;
        }
        let task = self.graph.task(to);
        if self.members.iter().any(|&m| task.exclusions.excludes(m)) {
            return false;
        }
        let hw = self.hw + task.hw;
        let memory = (self.memory + task.memory).total();
        self.allowed.iter().any(|&pe| {
            task.exec.on(pe).is_some()
                && task.preference.allows(pe)
                && self.capacity[pe.index()].fits(hw, memory)
        })
    }

    /// Adds `to` to the cluster; `via` is the edge it was reached over,
    /// whose communication the cluster now absorbs.
    fn absorb(&mut self, to: TaskId, via: Option<EdgeId>) {
        let task = self.graph.task(to);
        self.allowed
            .retain(|&pe| task.exec.on(pe).is_some() && task.preference.allows(pe));
        for peer in task.exclusions.iter() {
            if let Some(flag) = self.excluded_by.get_mut(peer.index()) {
                *flag = self.idx;
            }
        }
        self.members.push(to);
        self.hw = self.hw + task.hw;
        self.memory = self.memory + task.memory;
        self.cluster_of[to.index()] = Some(self.idx);
        if let Some(eid) = via {
            self.comm[eid.index()] = Nanos::ZERO;
        }
    }
}

/// [`cluster_tasks`] with explicit co-synthesis options (the ERUF/EPUF
/// caps bound cluster growth against PE capacities).
///
/// # Errors
///
/// [`SynthesisError::Internal`] when the clustering bookkeeping
/// desynchronises.
pub fn cluster_tasks_with(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
) -> Result<Clustering, SynthesisError> {
    let cluster_size_cap = options.cluster_size_cap;
    let avg_ports = spec.constraints().average_link_ports;
    let capacity: Vec<Capacity> = lib
        .pes()
        .map(|(_, pe)| Capacity::of(pe.class(), options))
        .collect();
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut assignment: Vec<Vec<ClusterId>> = Vec::with_capacity(spec.graph_count());

    for (gid, graph) in spec.graphs() {
        let n = graph.task_count();
        let first_cluster = clusters.len();
        let slowest: Vec<Nanos> = graph
            .tasks()
            .map(|(_, t)| t.exec.slowest().unwrap_or(Nanos::ZERO))
            .collect();
        let mut cluster_of: Vec<Option<usize>> = vec![None; n];
        let mut excluded_by: Vec<usize> = vec![usize::MAX; n];
        // Max communication time per edge over the link library; zeroed as
        // edges are absorbed into clusters.
        let mut comm: Vec<Nanos> = graph
            .edges()
            .map(|(_, e)| {
                lib.link_slice()
                    .iter()
                    .map(|l| l.transfer_time(e.bytes, avg_ports))
                    .max()
                    .unwrap_or(Nanos::ZERO)
            })
            .collect();

        let mut unclustered = n;
        while unclustered > 0 {
            let prios = priority_levels(graph, |t| slowest[t.index()], |e| comm[e.index()]);
            // Highest-priority unclustered task seeds the cluster.
            let Some(seed) = (0..n)
                .filter(|&t| cluster_of[t].is_none())
                .max_by_key(|&t| prios[t])
                .map(TaskId::new)
            else {
                return Err(SynthesisError::Internal(format!(
                    "graph {gid}: unclustered-task count desynchronised ({unclustered} left)"
                )));
            };

            // Absorbing the seed narrows `allowed` to the types it runs on.
            let mut growth = Growth {
                graph,
                capacity: &capacity,
                idx: clusters.len(),
                members: Vec::new(),
                allowed: lib.pes().map(|(id, _)| id).collect(),
                hw: HwDemand::ZERO,
                memory: MemoryVector::ZERO,
                cluster_of: &mut cluster_of,
                excluded_by: &mut excluded_by,
                comm: &mut comm,
            };
            growth.absorb(seed, None);

            // Grow down the longest path.
            let mut cur = seed;
            while growth.members.len() < cluster_size_cap {
                let next = graph
                    .successors(cur)
                    .filter(|(_, e)| growth.admits(e.to))
                    .max_by_key(|(_, e)| prios[e.to.index()]);
                let Some((eid, edge)) = next else { break };
                growth.absorb(edge.to, Some(eid));
                cur = edge.to;
            }

            // Absorb unclustered *leaf* successors of the members (with
            // capacity and compatibility permitting): assertion and
            // compare tasks, small monitors — they then execute beside
            // their producer with zero communication. A leaf reached over
            // parallel edges joins once: `admits` refuses a task already
            // clustered, as chain growth never revisits one.
            let mut k = 0;
            while growth.members.len() < cluster_size_cap && k < growth.members.len() {
                let m = growth.members[k];
                for (eid, edge) in graph.successors(m) {
                    if growth.members.len() >= cluster_size_cap {
                        break;
                    }
                    if graph.successors(edge.to).next().is_none() && growth.admits(edge.to) {
                        growth.absorb(edge.to, Some(eid));
                    }
                }
                k += 1;
            }

            // Every member was unclustered until it joined.
            unclustered -= growth.members.len();
            let Growth {
                members,
                allowed,
                hw,
                memory,
                ..
            } = growth;
            clusters.push(Cluster {
                graph: gid,
                tasks: members,
                priority: Priority::MIN, // final value set below
                allowed_pes: allowed,
                memory,
                hw,
            });
        }

        // Final per-graph priorities with all intra-cluster edges zeroed
        // define cluster priorities (max over members and incoming edges).
        let final_prios = priority_levels(graph, |t| slowest[t.index()], |e| comm[e.index()]);
        for c in &mut clusters[first_cluster..] {
            c.priority = c
                .tasks
                .iter()
                .map(|&t| final_prios[t.index()])
                .fold(Priority::MIN, Priority::max);
        }
        let mut per_graph = Vec::with_capacity(cluster_of.len());
        for (t, o) in cluster_of.into_iter().enumerate() {
            match o {
                Some(i) => per_graph.push(ClusterId::new(i)),
                None => {
                    return Err(SynthesisError::Internal(format!(
                        "graph {gid}: task {t} left unclustered"
                    )))
                }
            }
        }
        assignment.push(per_graph);
    }

    // Allocation order: decreasing priority (stable, so ties keep their
    // formation order). Move the clusters into it and remap assignment.
    let mut ordered: Vec<(usize, Cluster)> = clusters.into_iter().enumerate().collect();
    ordered.sort_by_key(|(_, c)| std::cmp::Reverse(c.priority));
    let mut remap = vec![0usize; ordered.len()];
    let mut sorted = Vec::with_capacity(ordered.len());
    for (new, (old, cluster)) in ordered.into_iter().enumerate() {
        remap[old] = new;
        sorted.push(cluster);
    }
    for per_graph in &mut assignment {
        for c in per_graph.iter_mut() {
            *c = ClusterId::new(remap[c.index()]);
        }
    }
    Ok(Clustering {
        clusters: sorted,
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusade_model::{
        CpuAttrs, Dollars, ExecutionTimes, PeClass, PeType, Preference, Task, TaskGraphBuilder,
    };

    fn lib() -> ResourceLibrary {
        let mut lib = ResourceLibrary::new();
        lib.add_pe(PeType::new(
            "cpu",
            Dollars::new(50),
            PeClass::Cpu(CpuAttrs {
                memory_bytes: 1 << 20,
                context_switch: Nanos::from_micros(5),
                comm_ports: 2,
                comm_overlap: true,
            }),
        ));
        lib.add_pe(PeType::new(
            "cpu2",
            Dollars::new(80),
            PeClass::Cpu(CpuAttrs {
                memory_bytes: 1 << 20,
                context_switch: Nanos::from_micros(2),
                comm_ports: 2,
                comm_overlap: true,
            }),
        ));
        lib
    }

    fn task(us: u64) -> Task {
        Task::new("t", ExecutionTimes::uniform(2, Nanos::from_micros(us)))
    }

    #[test]
    fn chain_collapses_to_one_cluster() {
        let mut b = TaskGraphBuilder::new("chain", Nanos::from_millis(1));
        let mut prev = b.add_task(task(5));
        for _ in 0..4 {
            let next = b.add_task(task(5));
            b.add_edge(prev, next, 100);
            prev = next;
        }
        let spec = SystemSpec::new(vec![b.build().unwrap()]);
        let c = cluster_tasks(&spec, &lib(), 8).unwrap();
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.cluster(ClusterId::new(0)).tasks.len(), 5);
    }

    #[test]
    fn size_cap_splits_long_chains() {
        let mut b = TaskGraphBuilder::new("chain", Nanos::from_millis(1));
        let mut prev = b.add_task(task(5));
        for _ in 0..9 {
            let next = b.add_task(task(5));
            b.add_edge(prev, next, 100);
            prev = next;
        }
        let spec = SystemSpec::new(vec![b.build().unwrap()]);
        let c = cluster_tasks(&spec, &lib(), 4).unwrap();
        assert!(c.cluster_count() >= 3);
        for (_, cl) in c.clusters() {
            assert!(cl.tasks.len() <= 4);
        }
    }

    #[test]
    fn exclusions_split_clusters() {
        let mut b = TaskGraphBuilder::new("ex", Nanos::from_millis(1));
        let a = b.add_task(task(5));
        let z = b.add_task(task(5));
        b.add_edge(a, z, 100);
        b.task_mut(z).exclusions.add(a);
        let spec = SystemSpec::new(vec![b.build().unwrap()]);
        let c = cluster_tasks(&spec, &lib(), 8).unwrap();
        assert_eq!(c.cluster_count(), 2);
        assert!(!c.same_cluster(GraphId::new(0), a, z));
    }

    #[test]
    fn preference_conflict_splits_clusters() {
        let mut b = TaskGraphBuilder::new("pref", Nanos::from_millis(1));
        let a = b.add_task(task(5));
        let z = b.add_task(task(5));
        b.add_edge(a, z, 100);
        b.task_mut(a).preference = Preference::Only(vec![PeTypeId::new(0)]);
        b.task_mut(z).preference = Preference::Only(vec![PeTypeId::new(1)]);
        let spec = SystemSpec::new(vec![b.build().unwrap()]);
        let c = cluster_tasks(&spec, &lib(), 8).unwrap();
        assert_eq!(c.cluster_count(), 2);
        let first = c.cluster(ClusterId::new(0));
        assert_eq!(first.allowed_pes.len(), 1);
    }

    #[test]
    fn clusters_sorted_by_priority() {
        // Two independent graphs with different deadlines: the tighter one
        // must come first.
        let mk = |deadline_us: u64| {
            let mut b = TaskGraphBuilder::new("g", Nanos::from_millis(10));
            b.add_task(task(50));
            b.deadline(Nanos::from_micros(deadline_us)).build().unwrap()
        };
        let spec = SystemSpec::new(vec![mk(5000), mk(100)]);
        let c = cluster_tasks(&spec, &lib(), 8).unwrap();
        assert_eq!(c.cluster_count(), 2);
        let first = c.cluster(ClusterId::new(0));
        assert_eq!(first.graph, GraphId::new(1), "tight deadline first");
        let prios: Vec<_> = c.clusters().map(|(_, cl)| cl.priority).collect();
        assert!(prios[0] >= prios[1]);
    }

    #[test]
    fn cluster_metrics_accumulate() {
        let mut b = TaskGraphBuilder::new("m", Nanos::from_millis(1));
        let mut t1 = task(5);
        t1.memory = MemoryVector::new(100, 10, 5);
        t1.hw = HwDemand::new(1000, 4, 8, 2);
        let mut t2 = task(7);
        t2.memory = MemoryVector::new(200, 20, 10);
        t2.hw = HwDemand::new(500, 2, 4, 1);
        let a = b.add_task(t1);
        let z = b.add_task(t2);
        b.add_edge(a, z, 10);
        let spec = SystemSpec::new(vec![b.build().unwrap()]);
        let c = cluster_tasks(&spec, &lib(), 8).unwrap();
        let cl = c.cluster(ClusterId::new(0));
        assert_eq!(cl.memory.total(), 345);
        assert_eq!(cl.hw.pfus, 6);
        assert_eq!(
            cl.execution_time_on(spec.graph(GraphId::new(0)), PeTypeId::new(0)),
            Some(Nanos::from_micros(12))
        );
    }

    #[test]
    fn every_task_assigned_exactly_once() {
        let mut b = TaskGraphBuilder::new("fan", Nanos::from_millis(1));
        let root = b.add_task(task(5));
        for _ in 0..6 {
            let leaf = b.add_task(task(3));
            b.add_edge(root, leaf, 64);
        }
        let spec = SystemSpec::new(vec![b.build().unwrap()]);
        let c = cluster_tasks(&spec, &lib(), 3).unwrap();
        let g = GraphId::new(0);
        for t in (0..7).map(TaskId::new) {
            let cid = c.cluster_of(g, t);
            assert!(c.cluster(cid).tasks.contains(&t));
        }
    }
}
