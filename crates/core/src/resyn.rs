//! Online re-synthesis: spec-delta warm starts over a deployed system.
//!
//! A deployed CRUSADE system receives a stream of [`SpecDelta`]s —
//! deadlines tighten, rates scale, task graphs arrive and retire, PEs
//! fail and return. Re-running cold co-synthesis for every change throws
//! away an incumbent architecture that is *almost entirely still valid*.
//! This module provides the two warm rungs of the escalation ladder
//! driven by `crusade-explore`:
//!
//! 1. [`admission_check`] — a conservative, architecture-independent
//!    feasibility screen that rejects in microseconds what exact
//!    synthesis would reject in seconds. It is **sound**: it rejects only
//!    on *necessary* conditions (an unmappable task, a critical path that
//!    beats every possible schedule), so a rejected delta can never have
//!    been satisfied by cold synthesis either — the admission
//!    false-accept count of the soak campaign must be zero by
//!    construction.
//! 2. [`warm_resynthesize`] — dirty-region repair from the incumbent:
//!    only the clusters of *touched* graphs are evicted, survivors keep
//!    their exact schedule windows, and the evicted work is re-placed
//!    through the same bounded victim-retry loop the fault-repair path
//!    uses. [`widened_resynthesize`] is the second, wider rung: the
//!    incumbent is stripped to its [hardware shell](crate::hardware_shell)
//!    and the whole specification re-placed onto the familiar iron.
//!
//! Neither rung is trusted: the ladder driver audits every warm result
//! with the full `crusade-verify` auditor before accepting it, and
//! escalates (widen → portfolio → cold) when the audit is dirty or the
//! rung fails.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use crusade_model::{
    Dollars, GlobalTaskId, GraphId, Nanos, ResourceLibrary, SpecDelta, SystemSpec,
};
use crusade_obs::Event;
use crusade_sched::{check_deadlines, estimate_finish_times, Occupant};

use crate::alloc::AllocBounds;
use crate::arch::{Architecture, LinkInstanceId, PeInstanceId};
use crate::cluster::{cluster_tasks_with, ClusterId};
use crate::options::CosynOptions;
use crate::repair::{
    check_clustering, ensure_interface_with_unmerge, evict_cluster, kill_link, kill_pe,
    place_with_retry, rebuild_pe_accounting, RepairError,
};
use crate::synthesis::{SynthesisReport, SynthesisResult};
use crate::upgrade::hardware_shell;

/// The verdict of the online admission check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Every necessary feasibility condition holds; synthesis may still
    /// fail (the check is one-sided), but it is worth attempting.
    Admit,
    /// The delta is provably infeasible for *any* architecture the
    /// library can build — exact synthesis would fail too.
    Reject {
        /// Human-readable necessary condition that failed.
        reason: String,
    },
}

impl Admission {
    /// `true` for [`Admission::Admit`].
    pub fn admitted(&self) -> bool {
        matches!(self, Admission::Admit)
    }

    /// The rejection reason, or `"ok"` when admitted.
    pub fn reason(&self) -> &str {
        match self {
            Admission::Admit => "ok",
            Admission::Reject { reason } => reason,
        }
    }
}

/// Screens a delta (already applied, yielding `spec_after`) against
/// architecture-independent necessary conditions, in time linear in the
/// touched graph:
///
/// * every task of the touched graph has at least one PE type with a
///   defined execution time (otherwise no allocation exists);
/// * the graph's critical path — fastest execution everywhere, zero
///   communication, started at the earliest start time — meets the
///   deadline (this finish time lower-bounds every realisable schedule).
///
/// Fault deltas and graph removals are always admitted: they leave the
/// specification no harder than before.
///
/// Both conditions are *necessary*, so a `Reject` here implies cold
/// synthesis would have failed — the check never turns a feasible change
/// away (zero false accepts, in the soak campaign's terminology).
pub fn admission_check(spec_after: &SystemSpec, delta: &SpecDelta) -> Admission {
    let touched = match delta {
        SpecDelta::AddTaskGraph { .. } => GraphId::new(spec_after.graph_count() - 1),
        SpecDelta::TightenDeadline { graph, .. } | SpecDelta::ScaleRate { graph, .. } => *graph,
        // Removing load or perturbing the platform never makes the
        // specification harder: admit and let the ladder sort it out.
        SpecDelta::RemoveTaskGraph { .. }
        | SpecDelta::FailPe { .. }
        | SpecDelta::RestorePe { .. }
        | SpecDelta::RetireLink { .. } => return Admission::Admit,
    };
    let graph = spec_after.graph(touched);
    for (t, task) in graph.tasks() {
        if task.exec.fastest().is_none() {
            return Admission::Reject {
                reason: format!(
                    "task \"{}\" ({t:?}) of graph \"{}\" has no PE type with a defined \
                     execution time",
                    task.name,
                    graph.name()
                ),
            };
        }
    }
    let finishes = estimate_finish_times(
        graph,
        |_| None,
        |t| graph.task(t).exec.fastest().unwrap_or(Nanos::ZERO),
        |_| None,
        |_| Nanos::ZERO,
    );
    if let Some(miss) = check_deadlines(graph, &finishes).first() {
        return Admission::Reject {
            reason: format!(
                "graph \"{}\": critical path finishes at {} under fastest-execution, \
                 zero-communication assumptions, past deadline (task {:?} misses by {})",
                graph.name(),
                finishes[miss.task.index()],
                miss.task,
                miss.finish.saturating_sub(miss.deadline),
            ),
        };
    }
    Admission::Admit
}

/// Why a warm rung could not produce an architecture. The ladder driver
/// maps these onto escalation triggers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmFailure {
    /// The incumbent's surviving clusters could not be re-identified in
    /// the re-clustered specification (cluster boundaries moved) — the
    /// warm premise is void; escalate.
    ClusteringShifted(String),
    /// A structural fault names a PE or link instance the incumbent does
    /// not have — an operational error in the delta stream, not something
    /// escalation can fix.
    BadFault(String),
    /// The repair machinery failed (retry budget, unallocatable cluster,
    /// no feasible interface) — escalate.
    Repair(RepairError),
}

impl std::fmt::Display for WarmFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmFailure::ClusteringShifted(msg) => {
                write!(f, "clustering shifted under the delta: {msg}")
            }
            WarmFailure::BadFault(msg) => write!(f, "invalid structural fault: {msg}"),
            WarmFailure::Repair(e) => write!(f, "warm repair failed: {e}"),
        }
    }
}

impl std::error::Error for WarmFailure {}

impl From<RepairError> for WarmFailure {
    fn from(e: RepairError) -> Self {
        WarmFailure::Repair(e)
    }
}

/// A successful warm (or widened) re-synthesis step.
#[derive(Debug, Clone)]
pub struct WarmOutcome {
    /// The re-synthesised system, audit-ready (the caller must still run
    /// the independent auditor before trusting it).
    pub result: SynthesisResult,
    /// Clusters that were (re-)placed by this step.
    pub moved_clusters: usize,
    /// Incremental dollar cost of parts purchased by this step.
    pub added_cost: Dollars,
    /// Victim-retry iterations consumed.
    pub retries_used: usize,
    /// `true` when the incumbent absorbed the delta with *zero* moves —
    /// the Ri-style fast path (e.g. a tightened deadline the deployed
    /// schedule already meets).
    pub in_place: bool,
}

/// Re-synthesises from the incumbent after `delta`, evicting only the
/// *dirty region* — the clusters of graphs the delta touched (plus
/// whatever a structural fault orphans). Surviving placements keep their
/// exact windows; evicted work is re-placed through the bounded
/// victim-retry loop shared with [`repair`](crate::repair).
///
/// `restorable` names the PE instances (by instantiation index) that
/// earlier deltas of this sequence failed and that may be un-retired by
/// [`SpecDelta::RestorePe`]; restoring an instance not in the set is a
/// deterministic no-op (the depot returned hardware the incumbent no
/// longer tracks — e.g. after an escalation rebuilt the architecture).
///
/// # Errors
///
/// [`WarmFailure::ClusteringShifted`] when survivors cannot be
/// re-identified after re-clustering, [`WarmFailure::BadFault`] for
/// fault deltas naming unknown instances, [`WarmFailure::Repair`] when
/// placement or interface synthesis fails. The ladder driver escalates
/// on the first and third and aborts on the second.
#[allow(clippy::too_many_lines)] // one rung, one narrative
#[allow(clippy::too_many_arguments)] // the rung contract: specs, incumbent, delta, fault set, budget
pub fn warm_resynthesize(
    spec_before: &SystemSpec,
    spec_after: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
    incumbent: &SynthesisResult,
    delta: &SpecDelta,
    restorable: &BTreeSet<u32>,
    retry_budget: usize,
) -> Result<WarmOutcome, WarmFailure> {
    let t0 = Instant::now();
    let options = options.effective();
    let old_clustering = &incumbent.clustering;
    check_clustering(spec_before, old_clustering)?;

    // Ri-style in-place fast path: a tightened deadline the deployed
    // schedule already meets costs nothing — the incumbent (and its
    // clustering, still valid because only a deadline changed) is the
    // answer, with an empty dirty region.
    if let SpecDelta::TightenDeadline { .. } = delta {
        if check_clustering(spec_after, old_clustering).is_ok()
            && exact_deadlines_ok(spec_after, &incumbent.architecture)
        {
            let report = refreshed_report(
                &incumbent.architecture,
                lib,
                incumbent,
                old_clustering.cluster_count(),
                0,
                t0,
            );
            return Ok(WarmOutcome {
                result: SynthesisResult {
                    architecture: incumbent.architecture.clone(),
                    clustering: old_clustering.clone(),
                    report,
                },
                moved_clusters: 0,
                added_cost: Dollars::ZERO,
                retries_used: 0,
                in_place: true,
            });
        }
    }

    let new_clustering = cluster_tasks_with(spec_after, lib, &options)
        .map_err(|e| WarmFailure::Repair(RepairError::Internal(e.to_string())))?;
    let bounds = AllocBounds::new(spec_after, lib, &new_clustering);
    let mut arch = incumbent.architecture.clone();

    // The dirty region, in *old* graph ids: graphs whose residency the
    // delta invalidates. Removing graph g shifts every id above it, so
    // the shifted graphs are evicted wholesale — surviving graphs keep
    // identity ids and with them valid schedule-board keys.
    let old_count = spec_before.graph_count();
    let mut dirty: BTreeSet<GraphId> = BTreeSet::new();
    match delta {
        SpecDelta::AddTaskGraph { .. } => {}
        SpecDelta::RemoveTaskGraph { graph } => {
            dirty.extend((graph.index()..old_count).map(GraphId::new));
        }
        SpecDelta::TightenDeadline { graph, .. } | SpecDelta::ScaleRate { graph, .. } => {
            dirty.insert(*graph);
        }
        SpecDelta::FailPe { .. } | SpecDelta::RestorePe { .. } | SpecDelta::RetireLink { .. } => {}
    }

    // Evict the dirty region (old cluster space, old spec edge sets).
    for (cid, cluster) in old_clustering.clusters() {
        if dirty.contains(&cluster.graph) {
            options.observer.emit(|| Event::Eviction {
                cluster: cid.index() as u64,
            });
            evict_cluster(&mut arch, old_clustering, spec_before, cid);
        }
    }

    // Structural faults act on the incumbent's instances directly.
    match delta {
        SpecDelta::FailPe { pe } => {
            let id = PeInstanceId::new(*pe as usize);
            kill_pe(&mut arch, old_clustering, spec_before, id).map_err(|e| match e {
                RepairError::NoSuchPe(_) => {
                    WarmFailure::BadFault(format!("fail-pe {pe}: no such live PE instance"))
                }
                other => WarmFailure::Repair(other),
            })?;
        }
        SpecDelta::RetireLink { link } => {
            let id = LinkInstanceId::new(*link as usize);
            kill_link(&mut arch, old_clustering, spec_before, id).map_err(|e| match e {
                RepairError::NoSuchLink(_) => {
                    WarmFailure::BadFault(format!("retire-link {link}: no such live link instance"))
                }
                other => WarmFailure::Repair(other),
            })?;
        }
        SpecDelta::RestorePe { pe }
            if restorable.contains(pe) && (*pe as usize) < arch.pe_slots() =>
        {
            let id = PeInstanceId::new(*pe as usize);
            if arch.pe(id).retired {
                arch.pe_mut(id).retired = false;
            }
        }
        // RestorePe of an unknown instance: deterministic no-op (see doc
        // comment above).
        _ => {}
    }

    // Re-identify every surviving resident cluster in the new clustering
    // by (graph, member tasks). Any mismatch voids the warm premise.
    let mut survivors: BTreeSet<ClusterId> = BTreeSet::new();
    for (_, pe) in arch.pes() {
        for mode in &pe.modes {
            survivors.extend(mode.clusters.iter().copied());
        }
    }
    let mut cmap: BTreeMap<ClusterId, ClusterId> = BTreeMap::new();
    for &old_cid in &survivors {
        let old = old_clustering.cluster(old_cid);
        if dirty.contains(&old.graph) || old.graph.index() >= spec_after.graph_count() {
            return Err(WarmFailure::ClusteringShifted(format!(
                "cluster {old_cid} of graph {:?} survived its own eviction",
                old.graph
            )));
        }
        let Some(&t0_task) = old.tasks.first() else {
            return Err(WarmFailure::ClusteringShifted(format!(
                "surviving cluster {old_cid} has no member tasks"
            )));
        };
        let new_cid = new_clustering.cluster_of(old.graph, t0_task);
        let new = new_clustering.cluster(new_cid);
        if new.graph != old.graph || new.tasks != old.tasks {
            return Err(WarmFailure::ClusteringShifted(format!(
                "cluster {old_cid} ({:?} of graph {:?}) re-clustered as {new_cid} ({:?})",
                old.tasks, old.graph, new.tasks
            )));
        }
        cmap.insert(old_cid, new_cid);
    }

    // Rewrite mode membership into the new cluster space and rebuild the
    // per-PE accounting from the new clustering.
    let pe_ids: Vec<PeInstanceId> = arch.pes().map(|(id, _)| id).collect();
    for pid in pe_ids {
        for mode in &mut arch.pe_mut(pid).modes {
            for c in &mut mode.clusters {
                if let Some(&mapped) = cmap.get(c) {
                    *c = mapped;
                }
            }
        }
        rebuild_pe_accounting(&mut arch, &new_clustering, pid);
    }

    // Everything the new clustering has that is not already resident must
    // be placed: new graphs, the dirty region, and fault orphans alike.
    let resident: BTreeSet<ClusterId> = cmap.values().copied().collect();
    let pending: BTreeSet<ClusterId> = new_clustering
        .clusters()
        .map(|(id, _)| id)
        .filter(|id| !resident.contains(id))
        .collect();

    let mut retries_used = 0usize;
    let (mut repaired, moved, added_cost, tried) = place_with_retry(
        spec_after,
        lib,
        &options,
        &new_clustering,
        &bounds,
        arch,
        &pending,
        &mut retries_used,
        retry_budget,
    )?;
    ensure_interface_with_unmerge(
        spec_after,
        lib,
        &options,
        &new_clustering,
        &bounds,
        &mut repaired,
        &mut retries_used,
        retry_budget,
    )?;
    if !exact_deadlines_ok(spec_after, &repaired) {
        return Err(WarmFailure::Repair(RepairError::Internal(
            "warm re-placement violates a deadline on the exact schedule".into(),
        )));
    }

    let cluster_count = new_clustering.cluster_count();
    let report = refreshed_report(&repaired, lib, incumbent, cluster_count, tried, t0);
    Ok(WarmOutcome {
        result: SynthesisResult {
            architecture: repaired,
            clustering: Arc::new(new_clustering),
            report,
        },
        moved_clusters: moved.len(),
        added_cost,
        retries_used,
        in_place: false,
    })
}

/// The wider warm rung: strips the incumbent to its hardware shell (same
/// PE and link instances, empty schedule, one empty image per device) and
/// re-places the *entire* specification onto it, buying new parts only
/// where the familiar iron does not suffice. Structural faults are
/// applied before stripping, so a failed PE's slot is not carried over.
///
/// # Errors
///
/// [`WarmFailure::BadFault`] for fault deltas naming unknown instances,
/// [`WarmFailure::Repair`] when placement or interface synthesis fails —
/// the ladder escalates to the portfolio and cold rungs.
#[allow(clippy::too_many_arguments)] // the rung contract: specs, incumbent, delta, fault set, budget
pub fn widened_resynthesize(
    spec_before: &SystemSpec,
    spec_after: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
    incumbent: &SynthesisResult,
    delta: &SpecDelta,
    restorable: &BTreeSet<u32>,
    retry_budget: usize,
) -> Result<WarmOutcome, WarmFailure> {
    let t0 = Instant::now();
    let options = options.effective();
    let old_clustering = &incumbent.clustering;
    check_clustering(spec_before, old_clustering)?;
    let mut damaged = incumbent.architecture.clone();
    match delta {
        SpecDelta::FailPe { pe } => {
            let id = PeInstanceId::new(*pe as usize);
            kill_pe(&mut damaged, old_clustering, spec_before, id).map_err(|e| match e {
                RepairError::NoSuchPe(_) => {
                    WarmFailure::BadFault(format!("fail-pe {pe}: no such live PE instance"))
                }
                other => WarmFailure::Repair(other),
            })?;
        }
        SpecDelta::RetireLink { link } => {
            let id = LinkInstanceId::new(*link as usize);
            kill_link(&mut damaged, old_clustering, spec_before, id).map_err(|e| match e {
                RepairError::NoSuchLink(_) => {
                    WarmFailure::BadFault(format!("retire-link {link}: no such live link instance"))
                }
                other => WarmFailure::Repair(other),
            })?;
        }
        SpecDelta::RestorePe { pe }
            if restorable.contains(pe) && (*pe as usize) < damaged.pe_slots() =>
        {
            let id = PeInstanceId::new(*pe as usize);
            if damaged.pe(id).retired {
                damaged.pe_mut(id).retired = false;
            }
        }
        _ => {}
    }
    let shell = hardware_shell(&damaged);

    let new_clustering = cluster_tasks_with(spec_after, lib, &options)
        .map_err(|e| WarmFailure::Repair(RepairError::Internal(e.to_string())))?;
    let bounds = AllocBounds::new(spec_after, lib, &new_clustering);
    let pending: BTreeSet<ClusterId> = new_clustering.clusters().map(|(id, _)| id).collect();
    let mut retries_used = 0usize;
    let (mut repaired, moved, added_cost, tried) = place_with_retry(
        spec_after,
        lib,
        &options,
        &new_clustering,
        &bounds,
        shell,
        &pending,
        &mut retries_used,
        retry_budget,
    )?;
    ensure_interface_with_unmerge(
        spec_after,
        lib,
        &options,
        &new_clustering,
        &bounds,
        &mut repaired,
        &mut retries_used,
        retry_budget,
    )?;
    if !exact_deadlines_ok(spec_after, &repaired) {
        return Err(WarmFailure::Repair(RepairError::Internal(
            "widened re-placement violates a deadline on the exact schedule".into(),
        )));
    }

    let cluster_count = new_clustering.cluster_count();
    let report = refreshed_report(&repaired, lib, incumbent, cluster_count, tried, t0);
    Ok(WarmOutcome {
        result: SynthesisResult {
            architecture: repaired,
            clustering: Arc::new(new_clustering),
            report,
        },
        moved_clusters: moved.len(),
        added_cost,
        retries_used,
        in_place: false,
    })
}

/// Checks every graph's deadlines against the *exact* placed windows —
/// the same final verification cold synthesis runs.
pub fn exact_deadlines_ok(spec: &SystemSpec, arch: &Architecture) -> bool {
    for (g, graph) in spec.graphs() {
        let finishes = estimate_finish_times(
            graph,
            |t| arch.board.window(Occupant::Task(GlobalTaskId::new(g, t))),
            |t| graph.task(t).exec.fastest().unwrap_or(Nanos::ZERO),
            |e| {
                arch.board
                    .window(Occupant::Edge(crusade_model::GlobalEdgeId::new(g, e)))
            },
            |_| Nanos::ZERO,
        );
        if !check_deadlines(graph, &finishes).is_empty() {
            return false;
        }
    }
    true
}

/// Summary figures of a warm-started architecture. Reconfiguration
/// statistics are carried from the incumbent: the warm rungs never
/// re-run device merging (they may only *un*-merge), so the incumbent's
/// report remains the sound description of the merge structure.
fn refreshed_report(
    arch: &Architecture,
    lib: &ResourceLibrary,
    incumbent: &SynthesisResult,
    cluster_count: usize,
    candidates_tried: usize,
    t0: Instant,
) -> SynthesisReport {
    let multi_mode_devices = arch.pes().filter(|(_, p)| p.modes.len() > 1).count();
    let total_modes = arch.pes().map(|(_, p)| p.modes.len()).sum();
    SynthesisReport {
        pe_count: arch.pe_count(),
        link_count: arch.link_count(),
        cost: arch.cost(lib),
        cpu_time: t0.elapsed(),
        reconfig: incumbent.report.reconfig.clone(),
        multi_mode_devices,
        total_modes,
        cluster_count,
        candidates_tried,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::CoSynthesis;
    use crusade_model::{
        CpuAttrs, ExecutionTimes, LinkClass, LinkType, PeClass, PeType, Task, TaskGraph,
        TaskGraphBuilder,
    };

    fn library() -> ResourceLibrary {
        let mut lib = ResourceLibrary::new();
        lib.add_pe(PeType::new(
            "cpu",
            Dollars::new(80),
            PeClass::Cpu(CpuAttrs {
                memory_bytes: 4 << 20,
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
        lib
    }

    fn chain(name: &str, n: usize, exec_us: u64, period_us: u64) -> TaskGraph {
        let mut b = TaskGraphBuilder::new(name, Nanos::from_micros(period_us));
        let mut prev = None;
        for i in 0..n {
            let id = b.add_task(Task::new(
                format!("{name}-{i}"),
                ExecutionTimes::uniform(1, Nanos::from_micros(exec_us)),
            ));
            if let Some(p) = prev {
                b.add_edge(p, id, 64);
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn admission_rejects_impossible_deadline() {
        // Three 100 us tasks in a chain can never finish inside 50 us.
        let spec = SystemSpec::new(vec![chain("g", 3, 100, 1000)]);
        let delta = SpecDelta::TightenDeadline {
            graph: GraphId::new(0),
            deadline: Nanos::from_micros(50),
        };
        let after = delta.apply(&spec).unwrap();
        let verdict = admission_check(&after, &delta);
        assert!(!verdict.admitted(), "got {verdict:?}");
    }

    #[test]
    fn admission_admits_feasible_tighten_and_faults() {
        let spec = SystemSpec::new(vec![chain("g", 3, 100, 1000)]);
        let delta = SpecDelta::TightenDeadline {
            graph: GraphId::new(0),
            deadline: Nanos::from_micros(600),
        };
        let after = delta.apply(&spec).unwrap();
        assert!(admission_check(&after, &delta).admitted());
        assert!(admission_check(&spec, &SpecDelta::FailPe { pe: 0 }).admitted());
    }

    #[test]
    fn tighten_within_slack_is_in_place() {
        let lib = library();
        let spec = SystemSpec::new(vec![chain("g", 2, 50, 1000)]);
        let deployed = CoSynthesis::new(&spec, &lib).run().unwrap();
        // The chain finishes well before 900 us; tightening to 900 us
        // must be absorbed with zero moves.
        let delta = SpecDelta::TightenDeadline {
            graph: GraphId::new(0),
            deadline: Nanos::from_micros(900),
        };
        let after = delta.apply(&spec).unwrap();
        let out = warm_resynthesize(
            &spec,
            &after,
            &lib,
            &CosynOptions::default(),
            &deployed,
            &delta,
            &BTreeSet::new(),
            8,
        )
        .unwrap();
        assert!(out.in_place);
        assert_eq!(out.moved_clusters, 0);
        assert_eq!(out.result.report.cost, deployed.report.cost);
    }

    #[test]
    fn add_graph_places_only_the_new_work() {
        let lib = library();
        let spec = SystemSpec::new(vec![chain("a", 2, 50, 1000)]);
        let deployed = CoSynthesis::new(&spec, &lib).run().unwrap();
        let delta = SpecDelta::AddTaskGraph {
            graph: chain("b", 2, 40, 2000),
        };
        let after = delta.apply(&spec).unwrap();
        let out = warm_resynthesize(
            &spec,
            &after,
            &lib,
            &CosynOptions::default(),
            &deployed,
            &delta,
            &BTreeSet::new(),
            8,
        )
        .unwrap();
        assert!(!out.in_place);
        assert!(out.moved_clusters >= 1);
        assert!(exact_deadlines_ok(&after, &out.result.architecture));
        // Graph a's schedule survived verbatim.
        let g0 = GraphId::new(0);
        let w_before = deployed
            .architecture
            .board
            .window(Occupant::Task(GlobalTaskId::new(
                g0,
                crusade_model::TaskId::new(0),
            )));
        let w_after = out
            .result
            .architecture
            .board
            .window(Occupant::Task(GlobalTaskId::new(
                g0,
                crusade_model::TaskId::new(0),
            )));
        assert_eq!(w_before, w_after);
    }

    #[test]
    fn remove_graph_evicts_shifted_ids() {
        let lib = library();
        let spec = SystemSpec::new(vec![
            chain("a", 2, 50, 1000),
            chain("b", 2, 40, 2000),
            chain("c", 2, 30, 4000),
        ]);
        let deployed = CoSynthesis::new(&spec, &lib).run().unwrap();
        let delta = SpecDelta::RemoveTaskGraph {
            graph: GraphId::new(1),
        };
        let after = delta.apply(&spec).unwrap();
        let out = warm_resynthesize(
            &spec,
            &after,
            &lib,
            &CosynOptions::default(),
            &deployed,
            &delta,
            &BTreeSet::new(),
            8,
        )
        .unwrap();
        assert!(exact_deadlines_ok(&after, &out.result.architecture));
        assert_eq!(out.result.clustering.cluster_count(), 2);
    }

    #[test]
    fn fail_and_restore_round_trip() {
        let lib = library();
        let spec = SystemSpec::new(vec![chain("a", 2, 50, 1000)]);
        let deployed = CoSynthesis::new(&spec, &lib).run().unwrap();
        let fail = SpecDelta::FailPe { pe: 0 };
        let failed = warm_resynthesize(
            &spec,
            &spec,
            &lib,
            &CosynOptions::default(),
            &deployed,
            &fail,
            &BTreeSet::new(),
            8,
        )
        .unwrap();
        assert!(exact_deadlines_ok(&spec, &failed.result.architecture));
        // The repair bought a replacement: cost did not drop.
        assert!(failed.result.report.cost >= deployed.report.cost);
        let restore = SpecDelta::RestorePe { pe: 0 };
        let restored = warm_resynthesize(
            &spec,
            &spec,
            &lib,
            &CosynOptions::default(),
            &failed.result,
            &restore,
            &BTreeSet::from([0u32]),
            8,
        )
        .unwrap();
        assert!(exact_deadlines_ok(&spec, &restored.result.architecture));
    }

    #[test]
    fn widened_rung_rebuilds_on_the_shell() {
        let lib = library();
        let spec = SystemSpec::new(vec![chain("a", 3, 60, 1000)]);
        let deployed = CoSynthesis::new(&spec, &lib).run().unwrap();
        let delta = SpecDelta::AddTaskGraph {
            graph: chain("b", 2, 40, 2000),
        };
        let after = delta.apply(&spec).unwrap();
        let out = widened_resynthesize(
            &spec,
            &after,
            &lib,
            &CosynOptions::default(),
            &deployed,
            &delta,
            &BTreeSet::new(),
            8,
        )
        .unwrap();
        assert!(exact_deadlines_ok(&after, &out.result.architecture));
        assert_eq!(
            out.moved_clusters,
            out.result.clustering.cluster_count(),
            "the widened rung re-places everything"
        );
    }

    #[test]
    fn bad_fault_is_terminal_not_escalatable() {
        let lib = library();
        let spec = SystemSpec::new(vec![chain("a", 2, 50, 1000)]);
        let deployed = CoSynthesis::new(&spec, &lib).run().unwrap();
        let err = warm_resynthesize(
            &spec,
            &spec,
            &lib,
            &CosynOptions::default(),
            &deployed,
            &SpecDelta::FailPe { pe: 99 },
            &BTreeSet::new(),
            8,
        )
        .unwrap_err();
        assert!(matches!(err, WarmFailure::BadFault(_)), "got {err:?}");
    }
}
