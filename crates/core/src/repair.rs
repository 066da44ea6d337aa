//! Graceful repair synthesis after runtime faults.
//!
//! Section 3 of the paper argues that dynamically reconfigurable
//! architectures tolerate faults by *re-mapping* functionality onto the
//! surviving devices. This module implements that path: given a
//! synthesised system and a [`Damage`] description (a dead PE, a severed
//! link, degraded timing), [`repair`] evicts the orphaned clusters and
//! re-allocates them onto spare capacity — or freshly instantiated
//! parts — under a bounded retry budget, degrading to a typed
//! [`RepairError`] instead of panicking when no repair exists.
//!
//! The repair loop reuses the same allocator the original synthesis used
//! ([`Allocator::resume`]): every re-placement is collision-checked and
//! deadline-verified with the same arithmetic, so a successful repair is
//! a valid architecture by construction (and the independent auditor in
//! `crusade-verify` re-checks it from scratch in the fault-injection
//! campaign).

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crusade_model::{Dollars, GlobalEdgeId, GlobalTaskId, PeClass, ResourceLibrary, SystemSpec};
use crusade_obs::Event;
use crusade_sched::Occupant;

use crate::alloc::{AllocBounds, Allocator};
use crate::arch::{Architecture, LinkInstanceId, PeInstanceId};
use crate::cluster::{ClusterId, Clustering};
use crate::error::SynthesisError;
use crate::options::{derate, CosynOptions};
use crate::synthesis::{resynthesize_interface, SynthesisResult};

/// A fault to repair around.
///
/// The structural variants name the component that died. The timing
/// variants are *markers*: the degraded conditions themselves are passed
/// through the normal parameters — an inflated [`SystemSpec`] for
/// [`ExecInflated`](Damage::ExecInflated), tightened
/// [`CosynOptions::eruf`] for [`ErufTightened`](Damage::ErufTightened),
/// and a [`crusade_fabric::fault::with_boot_slowdown`] guard wrapped
/// around the [`repair`] call for [`BootDegraded`](Damage::BootDegraded).
/// This keeps `repair` a pure function of its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Damage {
    /// A PE instance failed permanently; everything resident on it must
    /// move.
    PeLost(PeInstanceId),
    /// A link instance failed; every transfer routed over it must be
    /// re-routed (by re-allocating the consuming clusters).
    LinkLost(LinkInstanceId),
    /// Execution times grew (thermal throttling, cache degradation):
    /// the caller passes the *inflated* spec and repair re-places every
    /// task whose scheduled window is now too short.
    ExecInflated,
    /// The usable fraction of programmable resources shrank (routing
    /// congestion near the ERUF cliff): the caller passes options with
    /// the tightened `eruf` and repair evicts modes over the new cap.
    ErufTightened,
    /// Reconfiguration boot slowed down (degraded programming
    /// interface): the caller wraps the call in
    /// [`crusade_fabric::fault::with_boot_slowdown`] and repair
    /// re-synthesises the interface, un-merging devices if needed.
    BootDegraded,
}

impl std::fmt::Display for Damage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Damage::PeLost(id) => write!(f, "PE {id} lost"),
            Damage::LinkLost(id) => write!(f, "link {id} lost"),
            Damage::ExecInflated => write!(f, "execution times inflated"),
            Damage::ErufTightened => write!(f, "ERUF tightened"),
            Damage::BootDegraded => write!(f, "boot interface degraded"),
        }
    }
}

/// Why a repair could not be synthesised. Every failure is typed — the
/// repair path never panics on well-formed inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// The damaged PE id does not name a live instance.
    NoSuchPe(PeInstanceId),
    /// The damaged link id does not name a live instance.
    NoSuchLink(LinkInstanceId),
    /// An orphaned cluster cannot be hosted anywhere, even after
    /// evicting every viable victim.
    Unrepairable {
        /// The cluster that could not be placed.
        cluster: ClusterId,
        /// The allocator's reason for the final failed attempt.
        reason: String,
    },
    /// The retry budget ran out before a consistent re-placement was
    /// found.
    RetryBudgetExhausted {
        /// Retries attempted (equals the configured budget).
        retries: usize,
    },
    /// The surviving multi-mode devices cannot be booted by any
    /// programming interface, even after un-merging.
    InterfaceInfeasible,
    /// The clustering handed in does not describe the spec handed in —
    /// repairing with it would corrupt the schedule board. Raised by the
    /// pre-flight consistency check instead of panicking mid-eviction.
    StaleClustering(String),
    /// An internal invariant was violated (a bug, not a property of the
    /// input).
    Internal(String),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::NoSuchPe(id) => write!(f, "no live PE instance {id}"),
            RepairError::NoSuchLink(id) => write!(f, "no live link instance {id}"),
            RepairError::Unrepairable { cluster, reason } => {
                write!(f, "cluster {cluster} cannot be re-hosted: {reason}")
            }
            RepairError::RetryBudgetExhausted { retries } => {
                write!(f, "repair retry budget exhausted after {retries} attempts")
            }
            RepairError::InterfaceInfeasible => {
                write!(
                    f,
                    "no feasible programming interface for the repaired system"
                )
            }
            RepairError::StaleClustering(msg) => {
                write!(f, "clustering does not match the specification: {msg}")
            }
            RepairError::Internal(msg) => write!(f, "internal repair error: {msg}"),
        }
    }
}

impl std::error::Error for RepairError {}

/// Knobs of the repair loop.
#[derive(Debug, Clone, Copy)]
pub struct RepairOptions {
    /// Maximum re-placement attempts (each attempt may evict one more
    /// victim cluster to make room).
    pub retry_budget: usize,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions { retry_budget: 8 }
    }
}

/// A successful repair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepairOutcome {
    /// The repaired architecture (deadline-verified re-placement).
    pub architecture: Architecture,
    /// Clusters that changed host, in allocation order.
    pub moved_clusters: Vec<ClusterId>,
    /// PE instances newly purchased by the repair.
    pub new_pes: usize,
    /// Link instances newly purchased by the repair.
    pub new_links: usize,
    /// Incremental dollar cost of the new parts.
    pub added_cost: Dollars,
    /// Retry-loop iterations beyond the first attempt.
    pub retries_used: usize,
}

/// Re-synthesises a system around `damage`.
///
/// The surviving placements are preserved verbatim; only the orphaned
/// clusters (and, when space must be made, victim clusters evicted by
/// the retry loop) move. New PE and link instances may be purchased, but
/// no new configuration images are opened — the repaired system's merge
/// structure is a subset of the one the original synthesis verified.
///
/// # Errors
///
/// Typed [`RepairError`] on any unrepairable situation; this function
/// does not panic on well-formed inputs.
///
/// # Examples
///
/// ```no_run
/// # use crusade_core::{repair, CoSynthesis, CosynOptions, Damage, PeInstanceId, RepairOptions};
/// # fn demo(spec: &crusade_model::SystemSpec, lib: &crusade_model::ResourceLibrary) {
/// let deployed = CoSynthesis::new(spec, lib).run().unwrap();
/// let dead = deployed.architecture.pes().next().unwrap().0;
/// match repair(spec, lib, &CosynOptions::default(), &deployed,
///              &Damage::PeLost(dead), &RepairOptions::default()) {
///     Ok(out) => println!("survived: {} clusters moved, +{}", out.moved_clusters.len(), out.added_cost),
///     Err(e) => println!("system lost: {e}"),
/// }
/// # }
/// ```
pub fn repair(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
    deployed: &SynthesisResult,
    damage: &Damage,
    ropts: &RepairOptions,
) -> Result<RepairOutcome, RepairError> {
    let clustering = &deployed.clustering;
    check_clustering(spec, clustering)?;
    let bounds = AllocBounds::new(spec, lib, clustering);
    let mut arch = deployed.architecture.clone();
    let base_pe_slots = arch.pe_slots();
    let base_link_slots = arch.link_slots();

    // Phase 1: apply the structural damage and collect the orphans.
    let orphans: BTreeSet<ClusterId> = match damage {
        Damage::PeLost(id) => kill_pe(&mut arch, clustering, spec, *id)?,
        Damage::LinkLost(id) => kill_link(&mut arch, clustering, spec, *id)?,
        Damage::ExecInflated => evict_underscheduled(&mut arch, clustering, spec),
        Damage::ErufTightened => evict_over_eruf(&mut arch, clustering, spec, lib, options),
        Damage::BootDegraded => BTreeSet::new(),
    };

    // Phases 2 and 3: bounded victim-retry re-placement, then interface
    // re-synthesis with un-merge fallback (shared with the online
    // re-synthesis engine in `resyn`).
    let mut retries_used = 0usize;
    let (mut repaired, moved, added_cost, _tried) = place_with_retry(
        spec,
        lib,
        options,
        clustering,
        &bounds,
        arch,
        &orphans,
        &mut retries_used,
        ropts.retry_budget,
    )?;
    ensure_interface_with_unmerge(
        spec,
        lib,
        options,
        clustering,
        &bounds,
        &mut repaired,
        &mut retries_used,
        ropts.retry_budget,
    )?;

    let new_pes = repaired
        .pes()
        .filter(|(id, _)| id.index() >= base_pe_slots)
        .count();
    let new_links = repaired
        .links()
        .filter(|(id, _)| id.index() >= base_link_slots)
        .count();
    Ok(RepairOutcome {
        architecture: repaired,
        moved_clusters: moved,
        new_pes,
        new_links,
        added_cost,
        retries_used,
    })
}

/// Pre-flight guard: every cluster must reference a graph and tasks that
/// exist in `spec`. A stale clustering (one computed against a different
/// revision of the spec) would otherwise panic deep inside eviction.
pub(crate) fn check_clustering(
    spec: &SystemSpec,
    clustering: &Clustering,
) -> Result<(), RepairError> {
    for (cid, cluster) in clustering.clusters() {
        if cluster.graph.index() >= spec.graph_count() {
            return Err(RepairError::StaleClustering(format!(
                "cluster {cid} references graph {:?} but the spec has {} graphs",
                cluster.graph,
                spec.graph_count()
            )));
        }
        let graph = spec.graph(cluster.graph);
        if let Some(&t) = cluster
            .tasks
            .iter()
            .find(|t| t.index() >= graph.task_count())
        {
            return Err(RepairError::StaleClustering(format!(
                "cluster {cid} references task {t:?} beyond graph \"{}\" ({} tasks)",
                graph.name(),
                graph.task_count()
            )));
        }
    }
    Ok(())
}

/// The bounded victim-retry loop shared by [`repair`] and the online
/// re-synthesis engine. Each attempt replays from the damaged `snapshot`,
/// evicting the victim set accumulated so far, and re-allocates
/// everything evicted in id order. A failed allocation nominates one more
/// victim (the lowest-priority placed cluster the failed one could
/// displace) and retries, charging `retries_used` against `retry_budget`.
///
/// A successful bounded placement: the repaired architecture, the
/// clusters re-placed in allocation order, the incremental dollar cost
/// of new parts, and the allocator's count of candidates tried.
pub(crate) type Placement = (Architecture, Vec<ClusterId>, Dollars, usize);

/// On success returns the architecture, the clusters re-placed (in
/// allocation order) and the incremental dollar cost of new parts.
/// `bounds` are the [`AllocBounds`] of `spec` under `clustering`.
#[allow(clippy::too_many_arguments)] // internal seam; callers are the two engines
pub(crate) fn place_with_retry(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
    clustering: &Clustering,
    bounds: &AllocBounds,
    snapshot: Architecture,
    orphans: &BTreeSet<ClusterId>,
    retries_used: &mut usize,
    retry_budget: usize,
) -> Result<Placement, RepairError> {
    let mut victims: BTreeSet<ClusterId> = BTreeSet::new();
    loop {
        let mut attempt = snapshot.clone();
        for &cid in &victims {
            options.observer.emit(|| Event::Eviction {
                cluster: cid.index() as u64,
            });
            evict_cluster(&mut attempt, clustering, spec, cid);
        }
        let to_place: Vec<ClusterId> = orphans.iter().chain(victims.iter()).copied().collect();
        let mut allocator = Allocator::resume(spec, lib, options, clustering, bounds, attempt);
        let mut failure: Option<(ClusterId, SynthesisError)> = None;
        for &cid in &to_place {
            if let Err(e) = allocator.allocate(cid) {
                failure = Some((cid, e));
                break;
            }
        }
        match failure {
            None => {
                let added: Dollars = allocator
                    .decisions
                    .iter()
                    .flatten()
                    .map(|d| d.added_cost)
                    .sum();
                let tried = allocator.candidates_tried();
                return Ok((allocator.arch, to_place, added, tried));
            }
            Some((cid, reason)) => {
                if *retries_used >= retry_budget {
                    return Err(RepairError::RetryBudgetExhausted {
                        retries: *retries_used,
                    });
                }
                *retries_used += 1;
                match pick_victim(&snapshot, clustering, cid, orphans, &victims) {
                    Some(victim) => {
                        victims.insert(victim);
                    }
                    None => {
                        return Err(RepairError::Unrepairable {
                            cluster: cid,
                            reason: reason.to_string(),
                        });
                    }
                }
            }
        }
    }
}

/// The programming interface must boot every surviving multi-mode device
/// within the requirement (under any active boot-slowdown fault). When it
/// cannot, un-merge the worst multi-mode device — evict its
/// beyond-first-image clusters back onto the open market — and try again,
/// still under the retry budget. Shared by [`repair`] and the online
/// re-synthesis engine.
#[allow(clippy::too_many_arguments)] // internal seam; callers are the two engines
pub(crate) fn ensure_interface_with_unmerge(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
    clustering: &Clustering,
    bounds: &AllocBounds,
    arch: &mut Architecture,
    retries_used: &mut usize,
    retry_budget: usize,
) -> Result<(), RepairError> {
    loop {
        match resynthesize_interface(spec, lib, arch, &options.observer) {
            Ok(()) => return Ok(()),
            Err(SynthesisError::NoFeasibleInterface) => {
                if *retries_used >= retry_budget {
                    return Err(RepairError::RetryBudgetExhausted {
                        retries: *retries_used,
                    });
                }
                *retries_used += 1;
                let displaced = unmerge_worst_device(arch, clustering, spec)
                    .ok_or(RepairError::InterfaceInfeasible)?;
                let shell = std::mem::take(arch);
                let mut allocator =
                    Allocator::resume(spec, lib, options, clustering, bounds, shell);
                for cid in displaced {
                    allocator
                        .allocate(cid)
                        .map_err(|e| RepairError::Unrepairable {
                            cluster: cid,
                            reason: e.to_string(),
                        })?;
                }
                *arch = allocator.arch;
            }
            Err(e) => return Err(RepairError::Internal(e.to_string())),
        }
    }
}

/// Removes a cluster's every trace from the architecture: task windows,
/// edge transfers (and their CPU-side driving occupants), mode
/// membership, and memory accounting.
pub(crate) fn evict_cluster(
    arch: &mut Architecture,
    clustering: &Clustering,
    spec: &SystemSpec,
    cid: ClusterId,
) {
    let cluster = clustering.cluster(cid);
    let g = cluster.graph;
    let graph = spec.graph(g);
    for &t in &cluster.tasks {
        arch.board.remove(Occupant::Task(GlobalTaskId::new(g, t)));
    }
    for (eid, edge) in graph.edges() {
        if cluster.tasks.contains(&edge.from) || cluster.tasks.contains(&edge.to) {
            let ge = GlobalEdgeId::new(g, eid);
            arch.board.remove(Occupant::Edge(ge));
            arch.board.remove(Occupant::CpuTransfer {
                edge: ge,
                receiver: false,
            });
            arch.board.remove(Occupant::CpuTransfer {
                edge: ge,
                receiver: true,
            });
        }
    }
    // Rebuild the bookkeeping of every mode that hosted the cluster.
    let pe_ids: Vec<PeInstanceId> = arch.pes().map(|(id, _)| id).collect();
    for pid in pe_ids {
        let pe = arch.pe_mut(pid);
        let mut touched = false;
        for mode in &mut pe.modes {
            if let Some(pos) = mode.clusters.iter().position(|&c| c == cid) {
                mode.clusters.remove(pos);
                touched = true;
            }
        }
        if touched {
            rebuild_pe_accounting(arch, clustering, pid);
        }
    }
}

/// Recomputes a PE's per-mode hardware demand, per-mode graph list and
/// total memory use from its (possibly just edited) cluster lists.
pub(crate) fn rebuild_pe_accounting(
    arch: &mut Architecture,
    clustering: &Clustering,
    pid: PeInstanceId,
) {
    let pe = arch.pe_mut(pid);
    let mut all: BTreeSet<ClusterId> = BTreeSet::new();
    for mode in &mut pe.modes {
        let mut hw = crusade_model::HwDemand::ZERO;
        let mut graphs: Vec<crusade_model::GraphId> = Vec::new();
        for &c in &mode.clusters {
            let cluster = clustering.cluster(c);
            hw = hw + cluster.hw;
            if !graphs.contains(&cluster.graph) {
                graphs.push(cluster.graph);
            }
            all.insert(c);
        }
        mode.used_hw = hw;
        mode.graphs = graphs;
    }
    pe.memory_used = all
        .iter()
        .map(|&c| clustering.cluster(c).memory.total())
        .sum();
}

/// Kills a PE: evicts everything resident on it, retires it, and prunes
/// links that lose their second port.
pub(crate) fn kill_pe(
    arch: &mut Architecture,
    clustering: &Clustering,
    spec: &SystemSpec,
    dead: PeInstanceId,
) -> Result<BTreeSet<ClusterId>, RepairError> {
    if dead.index() >= arch.pe_slots() || arch.pe(dead).retired {
        return Err(RepairError::NoSuchPe(dead));
    }
    let orphans: BTreeSet<ClusterId> = arch
        .pe(dead)
        .modes
        .iter()
        .flat_map(|m| m.clusters.iter().copied())
        .collect();
    for &cid in &orphans {
        evict_cluster(arch, clustering, spec, cid);
    }
    arch.pe_mut(dead).retired = true;
    let link_ids: Vec<LinkInstanceId> = arch.links().map(|(id, _)| id).collect();
    for lid in link_ids {
        let resource = arch.link(lid).resource;
        arch.link_mut(lid).attached.retain(|&p| p != dead);
        if arch.link(lid).attached.len() < 2 && arch.board.occupants_on(resource).next().is_none() {
            arch.link_mut(lid).retired = true;
        }
    }
    Ok(orphans)
}

/// Kills a link: every transfer routed over it is orphaned by evicting
/// the *consuming* cluster (re-allocating it re-routes the edge over the
/// surviving fabric).
pub(crate) fn kill_link(
    arch: &mut Architecture,
    clustering: &Clustering,
    spec: &SystemSpec,
    dead: LinkInstanceId,
) -> Result<BTreeSet<ClusterId>, RepairError> {
    if dead.index() >= arch.link_slots() || arch.link(dead).retired {
        return Err(RepairError::NoSuchLink(dead));
    }
    let resource = arch.link(dead).resource;
    let riders: Vec<GlobalEdgeId> = arch
        .board
        .occupants_on(resource)
        .filter_map(|(o, _)| match o {
            Occupant::Edge(e) => Some(e),
            _ => None,
        })
        .collect();
    let mut orphans = BTreeSet::new();
    for ge in riders {
        let edge = spec.graph(ge.graph).edge(ge.edge);
        orphans.insert(clustering.cluster_of(ge.graph, edge.to));
    }
    for &cid in &orphans {
        evict_cluster(arch, clustering, spec, cid);
    }
    if arch.board.occupants_on(resource).next().is_some() {
        return Err(RepairError::Internal(format!(
            "link {dead} still carries traffic after evicting every consumer"
        )));
    }
    arch.link_mut(dead).retired = true;
    Ok(orphans)
}

/// For [`Damage::ExecInflated`]: evicts every cluster containing a task
/// whose placed window is shorter than its (inflated) execution time on
/// its host PE type.
fn evict_underscheduled(
    arch: &mut Architecture,
    clustering: &Clustering,
    spec: &SystemSpec,
) -> BTreeSet<ClusterId> {
    let mut orphans = BTreeSet::new();
    for (g, graph) in spec.graphs() {
        for (t, task) in graph.tasks() {
            let occ = Occupant::Task(GlobalTaskId::new(g, t));
            let Some(window) = arch.board.window(occ) else {
                continue;
            };
            let Some(resource) = arch.board.resource_of(occ) else {
                continue;
            };
            let Some((_, pe)) = arch.pes().find(|(_, p)| p.resource == resource) else {
                continue;
            };
            let Some(needed) = task.exec.on(pe.ty) else {
                // The host type no longer executes this task at all.
                orphans.insert(clustering.cluster_of(g, t));
                continue;
            };
            // CPUs run members back to back inside the window; hardware
            // windows span exactly the execution time. Either way a
            // window shorter than the new time is stale.
            if window.finish - window.start < needed {
                orphans.insert(clustering.cluster_of(g, t));
            }
        }
    }
    let evictees: Vec<ClusterId> = orphans.iter().copied().collect();
    for cid in evictees {
        evict_cluster(arch, clustering, spec, cid);
    }
    orphans
}

/// For [`Damage::ErufTightened`]: evicts clusters (largest hardware
/// demand first) from any programmable-device mode whose resource use
/// exceeds the tightened ERUF cap.
fn evict_over_eruf(
    arch: &mut Architecture,
    clustering: &Clustering,
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
) -> BTreeSet<ClusterId> {
    let mut orphans = BTreeSet::new();
    let pe_ids: Vec<PeInstanceId> = arch.pes().map(|(id, _)| id).collect();
    for pid in pe_ids {
        let pe = arch.pe(pid);
        let PeClass::Ppe(attrs) = lib.pe(pe.ty).class() else {
            continue;
        };
        let cap = derate(attrs.pfus, options.eruf);
        for m in 0..pe.modes.len() {
            loop {
                let mode = &arch.pe(pid).modes[m];
                if mode.used_hw.pfus <= cap {
                    break;
                }
                let Some(&worst) = mode
                    .clusters
                    .iter()
                    .max_by_key(|&&c| clustering.cluster(c).hw.pfus)
                else {
                    break;
                };
                orphans.insert(worst);
                evict_cluster(arch, clustering, spec, worst);
            }
        }
    }
    orphans
}

/// Nominates the lowest-priority cluster still placed in `snapshot`
/// (excluding orphans and current victims) that shares an allowed PE
/// type with the cluster that failed to place — evicting it frees
/// capacity the failed cluster can actually use.
fn pick_victim(
    snapshot: &Architecture,
    clustering: &Clustering,
    failed: ClusterId,
    orphans: &BTreeSet<ClusterId>,
    victims: &BTreeSet<ClusterId>,
) -> Option<ClusterId> {
    let allowed = &clustering.cluster(failed).allowed_pes;
    let mut best: Option<ClusterId> = None;
    for (_, pe) in snapshot.pes() {
        if !allowed.contains(&pe.ty) {
            continue;
        }
        for mode in &pe.modes {
            for &c in &mode.clusters {
                if c == failed || orphans.contains(&c) || victims.contains(&c) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => clustering.cluster(c).priority < clustering.cluster(b).priority,
                };
                if better {
                    best = Some(c);
                }
            }
        }
    }
    best
}

/// Collapses the live multi-mode device with the most images down to its
/// first image, returning the clusters displaced (those resident only in
/// the dropped images). Returns `None` when no multi-mode device exists.
fn unmerge_worst_device(
    arch: &mut Architecture,
    clustering: &Clustering,
    spec: &SystemSpec,
) -> Option<Vec<ClusterId>> {
    let (pid, _) = arch
        .pes()
        .filter(|(_, p)| p.modes.len() > 1)
        .max_by_key(|(_, p)| p.modes.len())?;
    let keep: Vec<ClusterId> = arch.pe(pid).modes[0].clusters.clone();
    let displaced: Vec<ClusterId> = arch.pe(pid).modes[1..]
        .iter()
        .flat_map(|m| m.clusters.iter().copied())
        .filter(|c| !keep.contains(c))
        .collect();
    for &cid in &displaced {
        evict_cluster(arch, clustering, spec, cid);
    }
    arch.pe_mut(pid).modes.truncate(1);
    rebuild_pe_accounting(arch, clustering, pid);
    Some(displaced)
}
