//! The shared preamble changes no answer.
//!
//! - The clustering kernel matches a verbatim copy of its predecessor
//!   (`reference`) on random examples, generated families at every
//!   cluster cap the portfolios use, and constrained specs whose growth
//!   stops on exclusions, `Preference::Only` and ASIC/PPE capacities.
//! - A leaf reached over parallel edges joins its cluster once.
//! - A one-member exploration reproduces a standalone run for every
//!   policy of the default portfolio, and a full exploration's members
//!   cost what their standalone runs cost.
//! - A preamble handed to a run with other inputs is refused.

// Test code: unwraps and casts freely on controlled inputs.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use std::time::Duration;

use crusade::core::{
    cluster_tasks, cluster_tasks_with, splitmix64, ClusterId, CoSynthesis, CosynOptions, Preamble,
    SynthesisError, SynthesisPolicy, SynthesisResult,
};
use crusade::explore::{
    default_portfolio, explore, explore_portfolio, ExploreConfig, ExploreError,
};
use crusade::gen::{generate, GenConfig};
use crusade::model::{
    AsicAttrs, CpuAttrs, Dollars, ExecutionTimes, GraphId, HwDemand, LinkClass, LinkType,
    MemoryVector, Nanos, PeClass, PeType, PeTypeId, PpeAttrs, PpeKind, Preference, ResourceLibrary,
    SystemSpec, Task, TaskGraphBuilder, TaskId,
};
use crusade::workloads::{paper_library, random_example};

/// The clustering kernel as it stood before the leaner rewrite, copied
/// verbatim apart from its return type and the helpers it needs: the
/// oracle the production kernel must match wherever this returns `Ok`.
mod reference {
    use std::collections::HashSet;

    use crusade::core::{Cluster, ClusterId, CosynOptions, SynthesisError};
    use crusade::model::{
        ExecutionTimes, HwDemand, MemoryVector, Nanos, PeTypeId, Preference, Priority,
        ResourceLibrary, SystemSpec, TaskId,
    };
    use crusade::sched::priority_levels;

    /// crusade-core's `derate`, which is private to that crate.
    fn derate(cap: u32, factor: f64) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        {
            (f64::from(cap) * factor) as u32
        }
    }

    /// PE types on which `task` may execute.
    fn allowed_pes(
        lib: &ResourceLibrary,
        exec: &ExecutionTimes,
        pref: &Preference,
    ) -> Vec<PeTypeId> {
        lib.pes()
            .filter(|(id, _)| exec.on(*id).is_some() && pref.allows(*id))
            .map(|(id, _)| id)
            .collect()
    }

    /// Whether a cluster with the given footprint fits a fresh instance of at
    /// least one of its allowed PE types, under the ERUF/EPUF caps — growth
    /// must never create a cluster no PE can host.
    fn fits_some_pe(
        lib: &ResourceLibrary,
        allowed: &[PeTypeId],
        hw: HwDemand,
        memory: &MemoryVector,
        options: &CosynOptions,
    ) -> bool {
        allowed.iter().any(|&ty| match lib.pe(ty).class() {
            crusade_model::PeClass::Cpu(attrs) => memory.total() <= attrs.memory_bytes,
            crusade_model::PeClass::Asic(attrs) => {
                hw.gates <= attrs.gates && hw.pins <= derate(attrs.pins, options.epuf)
            }
            crusade_model::PeClass::Ppe(attrs) => {
                hw.pfus <= derate(attrs.pfus, options.eruf)
                    && hw.flip_flops <= attrs.flip_flops
                    && hw.pins <= derate(attrs.pins, options.epuf)
            }
        })
    }

    /// The parent kernel, returning the clusters in allocation order and the
    /// `[graph][task]` assignment instead of a `Clustering` (whose fields are
    /// private to crusade-core).
    pub fn cluster_tasks_with(
        spec: &SystemSpec,
        lib: &ResourceLibrary,
        options: &CosynOptions,
    ) -> Result<(Vec<Cluster>, Vec<Vec<ClusterId>>), SynthesisError> {
        let cluster_size_cap = options.cluster_size_cap;
        let avg_ports = spec.constraints().average_link_ports;
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut assignment: Vec<Vec<ClusterId>> = Vec::new();

        for (gid, graph) in spec.graphs() {
            let n = graph.task_count();
            let mut cluster_of: Vec<Option<usize>> = vec![None; n];
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
                let prios = priority_levels(
                    graph,
                    |t| graph.task(t).exec.slowest().unwrap_or(Nanos::ZERO),
                    |e| comm[e.index()],
                );
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

                let idx = clusters.len();
                let mut members = vec![seed];
                let mut allowed =
                    allowed_pes(lib, &graph.task(seed).exec, &graph.task(seed).preference);
                let mut excluded: HashSet<TaskId> = graph.task(seed).exclusions.iter().collect();
                cluster_of[seed.index()] = Some(idx);
                unclustered -= 1;

                // Grow down the longest path.
                let mut cur = seed;
                while members.len() < cluster_size_cap {
                    let next = graph
                        .successors(cur)
                        .filter(|(_, e)| cluster_of[e.to.index()].is_none())
                        .filter(|(_, e)| !excluded.contains(&e.to))
                        .filter(|(_, e)| {
                            // The member must not exclude anyone already in.
                            members
                                .iter()
                                .all(|&m| !graph.task(e.to).exclusions.excludes(m))
                        })
                        .filter(|(_, e)| {
                            // PE-type intersection must stay non-empty, and the
                            // grown cluster must still fit some allowed PE.
                            let t = graph.task(e.to);
                            let next_allowed: Vec<PeTypeId> = allowed
                                .iter()
                                .copied()
                                .filter(|&pe| t.exec.on(pe).is_some() && t.preference.allows(pe))
                                .collect();
                            if next_allowed.is_empty() {
                                return false;
                            }
                            let hw = members.iter().fold(t.hw, |acc, &m| acc + graph.task(m).hw);
                            let memory = members
                                .iter()
                                .fold(t.memory, |acc, &m| acc + graph.task(m).memory);
                            fits_some_pe(lib, &next_allowed, hw, &memory, options)
                        })
                        .max_by_key(|(_, e)| prios[e.to.index()]);
                    let Some((eid, edge)) = next else { break };
                    let to = edge.to;
                    let t = graph.task(to);
                    allowed.retain(|&pe| t.exec.on(pe).is_some() && t.preference.allows(pe));
                    excluded.extend(t.exclusions.iter());
                    members.push(to);
                    cluster_of[to.index()] = Some(idx);
                    unclustered -= 1;
                    comm[eid.index()] = Nanos::ZERO; // absorbed
                    cur = to;
                }

                // Absorb unclustered *leaf* successors of the members (with
                // capacity and compatibility permitting): assertion and
                // compare tasks, small monitors — they then execute beside
                // their producer with zero communication.
                let mut k = 0;
                while members.len() < cluster_size_cap && k < members.len() {
                    let m = members[k];
                    let leaves: Vec<(crusade_model::EdgeId, TaskId)> = graph
                        .successors(m)
                        .filter(|(_, e)| cluster_of[e.to.index()].is_none())
                        .filter(|(_, e)| graph.successors(e.to).next().is_none())
                        .map(|(eid, e)| (eid, e.to))
                        .collect();
                    for (eid, to) in leaves {
                        if members.len() >= cluster_size_cap {
                            break;
                        }
                        if excluded.contains(&to) {
                            continue;
                        }
                        let task = graph.task(to);
                        if members.iter().any(|&mm| task.exclusions.excludes(mm)) {
                            continue;
                        }
                        let still_allowed: Vec<_> = allowed
                            .iter()
                            .copied()
                            .filter(|&pe| task.exec.on(pe).is_some() && task.preference.allows(pe))
                            .collect();
                        if still_allowed.is_empty() {
                            continue;
                        }
                        let hw = members
                            .iter()
                            .fold(task.hw, |acc, &m| acc + graph.task(m).hw);
                        let memory = members
                            .iter()
                            .fold(task.memory, |acc, &m| acc + graph.task(m).memory);
                        if !fits_some_pe(lib, &still_allowed, hw, &memory, options) {
                            continue;
                        }
                        allowed = still_allowed;
                        excluded.extend(task.exclusions.iter());
                        members.push(to);
                        cluster_of[to.index()] = Some(idx);
                        unclustered -= 1;
                        comm[eid.index()] = Nanos::ZERO;
                    }
                    k += 1;
                }

                let memory = members
                    .iter()
                    .fold(MemoryVector::ZERO, |acc, &t| acc + graph.task(t).memory);
                let hw = members
                    .iter()
                    .fold(HwDemand::ZERO, |acc, &t| acc + graph.task(t).hw);
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
            let final_prios = priority_levels(
                graph,
                |t| graph.task(t).exec.slowest().unwrap_or(Nanos::ZERO),
                |e| comm[e.index()],
            );
            for c in clusters.iter_mut().filter(|c| c.graph == gid) {
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

        // Allocation order: decreasing priority. Remap assignment accordingly.
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        order.sort_by(|&a, &b| clusters[b].priority.cmp(&clusters[a].priority));
        let mut remap = vec![0usize; clusters.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new;
        }
        let mut sorted = Vec::with_capacity(clusters.len());
        for &old in &order {
            sorted.push(clusters[old].clone());
        }
        for per_graph in &mut assignment {
            for c in per_graph.iter_mut() {
                *c = ClusterId::new(remap[c.index()]);
            }
        }
        Ok((sorted, assignment))
    }
}

/// Asserts the production kernel returns the reference's clustering
/// wherever the reference succeeds; returns whether it did.
fn matches_reference(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
    what: &str,
) -> bool {
    let Ok((clusters, assignment)) = reference::cluster_tasks_with(spec, lib, options) else {
        return false;
    };
    let kernel = cluster_tasks_with(spec, lib, options)
        .unwrap_or_else(|e| panic!("{what}: the reference clustered, the kernel failed: {e}"));
    assert_eq!(
        kernel.cluster_count(),
        clusters.len(),
        "{what}: cluster count"
    );
    for (cid, cluster) in kernel.clusters() {
        assert_eq!(cluster, &clusters[cid.index()], "{what}: cluster {cid}");
    }
    for (g, per_graph) in assignment.iter().enumerate() {
        for (t, &cid) in per_graph.iter().enumerate() {
            assert_eq!(
                kernel.cluster_of(GraphId::new(g), TaskId::new(t)),
                cid,
                "{what}: cluster of g{g} t{t}"
            );
        }
    }
    true
}

fn with_cap(cap: usize) -> CosynOptions {
    CosynOptions {
        cluster_size_cap: cap,
        ..CosynOptions::default()
    }
}

const CAPS: [usize; 7] = [1, 2, 4, 6, 8, 10, 12];

#[test]
fn kernel_matches_reference_on_random_examples() {
    let lib = paper_library();
    for seed in 0..12 {
        let spec = random_example(seed).build(&lib);
        for cap in [4, 8, 12] {
            assert!(
                matches_reference(
                    &spec,
                    &lib.lib,
                    &with_cap(cap),
                    &format!("seed {seed} cap {cap}")
                ),
                "seed {seed} cap {cap}: the reference failed"
            );
        }
    }
}

#[test]
fn kernel_matches_reference_on_generated_families_at_every_cap() {
    let lib = paper_library();
    for seed in 0..6 {
        let config = GenConfig {
            seed,
            graphs: 6,
            ..GenConfig::default()
        };
        let spec = generate(&lib, &config).spec;
        for cap in CAPS {
            assert!(
                matches_reference(
                    &spec,
                    &lib.lib,
                    &with_cap(cap),
                    &format!("family {seed} cap {cap}")
                ),
                "family {seed} cap {cap}: the reference failed"
            );
        }
    }
}

/// A small deterministic stream over `splitmix64`.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0) % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// Two CPUs (one with little memory), an ASIC and an FPGA with small
/// areas, so capacity stops cluster growth often.
fn constrained_lib() -> ResourceLibrary {
    let mut lib = ResourceLibrary::new();
    for (name, memory) in [("cpu-small", 6_000), ("cpu-big", 1 << 20)] {
        lib.add_pe(PeType::new(
            name,
            Dollars::new(60),
            PeClass::Cpu(CpuAttrs {
                memory_bytes: memory,
                context_switch: Nanos::from_micros(5),
                comm_ports: 2,
                comm_overlap: true,
            }),
        ));
    }
    lib.add_pe(PeType::new(
        "asic",
        Dollars::new(90),
        PeClass::Asic(AsicAttrs {
            gates: 5_000,
            pins: 40,
        }),
    ));
    lib.add_pe(PeType::new(
        "fpga",
        Dollars::new(120),
        PeClass::Ppe(PpeAttrs {
            kind: PpeKind::Fpga,
            pfus: 200,
            flip_flops: 400,
            pins: 60,
            boot_memory_bytes: 4096,
            config_bits_per_pfu: 100,
            partial_reconfig: false,
        }),
    ));
    lib.add_link(LinkType::new(
        "bus",
        Dollars::new(10),
        LinkClass::Bus,
        8,
        vec![Nanos::from_nanos(300), Nanos::from_nanos(600)],
        64,
        Nanos::from_micros(1),
    ));
    lib
}

/// A random spec over [`constrained_lib`]: random DAGs without parallel
/// edges (the reference mis-clusters those), random execution vectors,
/// `Preference::Only` lists, exclusion vectors and area demands.
fn constrained_spec(seed: u64) -> SystemSpec {
    let mut s = Stream(seed << 20);
    let pes = 4;
    let graphs = (0..1 + s.below(3))
        .map(|g| {
            let mut b = TaskGraphBuilder::new(format!("g{g}"), Nanos::from_millis(10));
            let n = 3 + s.below(14) as usize;
            let ids: Vec<TaskId> = (0..n)
                .map(|i| {
                    let mut entries: Vec<(PeTypeId, Nanos)> = Vec::new();
                    for pe in 0..pes {
                        if !s.chance(3) {
                            entries.push((PeTypeId::new(pe), Nanos::from_micros(1 + s.below(50))));
                        }
                    }
                    if entries.is_empty() {
                        entries.push((
                            PeTypeId::new(s.below(pes as u64) as usize),
                            Nanos::from_micros(9),
                        ));
                    }
                    let mut task = Task::new(
                        format!("t{i}"),
                        ExecutionTimes::from_entries(pes, entries.iter().copied()),
                    );
                    if s.chance(4) {
                        let mut only: Vec<PeTypeId> = entries
                            .iter()
                            .map(|&(pe, _)| pe)
                            .filter(|_| !s.chance(2))
                            .collect();
                        only.push(entries[0].0);
                        only.sort_unstable();
                        only.dedup();
                        task.preference = Preference::Only(only);
                    }
                    task.memory = MemoryVector::new(s.below(2_000), s.below(1_000), s.below(500));
                    task.hw = HwDemand::new(
                        s.below(2_000),
                        s.below(60) as u32,
                        s.below(100) as u32,
                        s.below(15) as u32,
                    );
                    b.add_task(task)
                })
                .collect();
            let mut edges = std::collections::BTreeSet::new();
            for j in 1..n {
                edges.insert((s.below(j as u64) as usize, j));
                if s.chance(3) {
                    edges.insert((s.below(j as u64) as usize, j));
                }
            }
            for &(i, j) in &edges {
                b.add_edge(ids[i], ids[j], 1 + s.below(512));
            }
            for &t in &ids {
                if s.chance(5) {
                    let peer = ids[s.below(n as u64) as usize];
                    if peer != t {
                        b.task_mut(t).exclusions.add(peer);
                    }
                }
            }
            b.build().unwrap()
        })
        .collect();
    SystemSpec::new(graphs)
}

#[test]
fn kernel_matches_reference_on_constrained_specs() {
    let lib = constrained_lib();
    let mut matched = 0;
    for seed in 0..60 {
        let spec = constrained_spec(seed);
        for cap in CAPS {
            for (eruf, epuf) in [(0.70, 0.80), (0.35, 0.5), (1.0, 1.0)] {
                let options = CosynOptions {
                    eruf,
                    epuf,
                    ..with_cap(cap)
                };
                let what = format!("constrained {seed} cap {cap} eruf {eruf} epuf {epuf}");
                matched += usize::from(matches_reference(&spec, &lib, &options, &what));
            }
        }
    }
    assert_eq!(
        matched,
        60 * CAPS.len() * 3,
        "the reference failed on some input"
    );
}

/// Tasks a→b→c plus two parallel edges a→z to the leaf z; one CPU, one
/// bus. The leaf pass used to absorb z twice and desynchronise its count.
fn parallel_edge_spec() -> (SystemSpec, ResourceLibrary) {
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
    lib.add_link(LinkType::new(
        "bus",
        Dollars::new(10),
        LinkClass::Bus,
        8,
        vec![Nanos::from_nanos(200)],
        64,
        Nanos::from_micros(1),
    ));
    let mut b = TaskGraphBuilder::new("g0", Nanos::from_millis(1));
    let task = |name: &str| Task::new(name, ExecutionTimes::uniform(1, Nanos::from_micros(10)));
    let a = b.add_task(task("a"));
    let bb = b.add_task(task("b"));
    let c = b.add_task(task("c"));
    let z = b.add_task(task("z"));
    b.add_edge(a, bb, 64);
    b.add_edge(bb, c, 64);
    b.add_edge(a, z, 64);
    b.add_edge(a, z, 64);
    (SystemSpec::new(vec![b.build().unwrap()]), lib)
}

#[test]
fn leaf_behind_parallel_edges_joins_once() {
    let (spec, lib) = parallel_edge_spec();
    let clustering = cluster_tasks(&spec, &lib, 8).unwrap();
    let g = GraphId::new(0);
    let mut seen = vec![0; 4];
    for (cid, cluster) in clustering.clusters() {
        for &t in &cluster.tasks {
            seen[t.index()] += 1;
            assert_eq!(clustering.cluster_of(g, t), cid);
        }
    }
    assert_eq!(seen, vec![1; 4], "every task in exactly one cluster");

    let options = CosynOptions::default();
    let result = CoSynthesis::new(&spec, &lib)
        .with_options(options.clone())
        .run()
        .unwrap();
    let violations = crusade::verify::audit(&spec, &lib, &options, &result);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The architecture and the report of a result as bytes, with the
/// wall-clock field zeroed.
fn fingerprint(result: &SynthesisResult) -> (String, String) {
    let mut report = result.report.clone();
    report.cpu_time = Duration::ZERO;
    (
        serde_json::to_string(&result.architecture).unwrap(),
        serde_json::to_string(&report).unwrap(),
    )
}

#[test]
fn one_member_exploration_matches_a_standalone_run_for_every_policy() {
    let lib = paper_library();
    let spec = random_example(7).build(&lib);
    let mut failed = 0;
    for policy in default_portfolio(8) {
        let standalone = CoSynthesis::new(&spec, &lib.lib)
            .with_options(CosynOptions::default().with_policy(policy.clone()))
            .run();
        let explored = explore_portfolio(
            &spec,
            &lib.lib,
            &ExploreConfig::new(1, 1),
            std::slice::from_ref(&policy),
        );
        match (standalone, explored) {
            (Ok(standalone), Ok(outcome)) => assert_eq!(
                fingerprint(&outcome.winner),
                fingerprint(&standalone),
                "policy {}",
                policy.id
            ),
            // A failing member reports the standalone run's error.
            (Err(e), Err(ExploreError::NoFeasibleMember { details })) => {
                failed += 1;
                assert_eq!(details, vec![format!("policy {}: Failed ({e})", policy.id)]);
            }
            (standalone, explored) => panic!(
                "policy {}: standalone {:?}, explored {:?}",
                policy.id,
                standalone.map(|r| r.report.cost),
                explored.map(|o| o.winner.report.cost)
            ),
        }
    }
    assert!(failed < 8, "no policy synthesized");
}

#[test]
fn exploration_members_cost_what_their_standalone_runs_cost() {
    let lib = paper_library();
    let spec = generate(
        &lib,
        &GenConfig {
            seed: 3,
            graphs: 6,
            ..GenConfig::default()
        },
    )
    .spec;
    let outcome = explore(&spec, &lib.lib, &ExploreConfig::new(8, 2)).unwrap();
    for member in &outcome.members {
        let standalone = CoSynthesis::new(&spec, &lib.lib)
            .with_options(CosynOptions::default().with_policy(member.policy.clone()))
            .run()
            .ok()
            .filter(|r| {
                crusade::verify::audit(&spec, &lib.lib, &CosynOptions::default(), r).is_empty()
            });
        assert_eq!(
            member.cost,
            standalone.map(|r| r.report.cost),
            "policy {}",
            member.policy.id
        );
    }
}

#[test]
fn a_preamble_built_under_other_inputs_is_refused() {
    let lib = paper_library();
    let spec = random_example(7).build(&lib);
    let cap6 = Preamble::new(&spec, &lib.lib, &with_cap(6)).unwrap();
    let run = CoSynthesis::new(&spec, &lib.lib)
        .with_options(with_cap(8))
        .with_prepared(&cap6)
        .run();
    assert!(matches!(run, Err(SynthesisError::Internal(_))), "{run:?}");

    // The same key through a policy override is served.
    let policy = SynthesisPolicy {
        id: 3,
        cluster_size_cap: Some(6),
        ..SynthesisPolicy::baseline()
    };
    let served = CoSynthesis::new(&spec, &lib.lib)
        .with_options(CosynOptions::default().with_policy(policy))
        .with_prepared(&cap6)
        .run();
    assert!(served.is_ok(), "{served:?}");

    // An equal spec is not the spec the preamble was built from.
    let copy = spec.clone();
    let run = CoSynthesis::new(&copy, &lib.lib)
        .with_options(with_cap(6))
        .with_prepared(&cap6)
        .run();
    assert!(matches!(run, Err(SynthesisError::Internal(_))), "{run:?}");
}

#[test]
fn kernel_output_is_a_partition_in_priority_order() {
    let lib = paper_library();
    let spec = random_example(2).build(&lib);
    let clustering = cluster_tasks(&spec, &lib.lib, 8).unwrap();
    let prios: Vec<_> = clustering.clusters().map(|(_, c)| c.priority).collect();
    assert!(prios.windows(2).all(|w| w[0] >= w[1]));
    let total: usize = clustering.clusters().map(|(_, c)| c.tasks.len()).sum();
    assert_eq!(total, spec.task_count());
    assert_eq!(clustering.cluster(ClusterId::new(0)).priority, prios[0]);
}
