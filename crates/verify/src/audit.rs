//! The independent architecture auditor.
//!
//! Every check here re-derives its invariant from first principles — the
//! specification, the resource library, and the raw schedule board —
//! rather than trusting any figure the synthesis recorded. A clean audit
//! therefore certifies the architecture, not the synthesiser's
//! bookkeeping; a dirty one pinpoints exactly which paper constraint
//! (Sections 2, 4.1–4.4) is broken.

use std::collections::BTreeMap;

use crusade_core::{Architecture, ClusterId, CosynOptions, PeInstanceId, SynthesisResult};
use crusade_fabric::{option_array, reconfiguration_bits};
use crusade_model::{
    GlobalEdgeId, GlobalTaskId, GraphId, HwDemand, Nanos, PeClass, ResourceLibrary, SystemSpec,
};
use crusade_sched::{Occupant, PeriodicInterval};

use crate::violation::Violation;

/// Audits a synthesised architecture against its specification.
///
/// Re-derives every claimed invariant: placement completeness, deadlines,
/// precedence, serialised-resource exclusivity, merged-mode temporal
/// disjointness with reboot room, boot feasibility of the programming
/// interface, ERUF/EPUF/memory/gate/link-port capacity caps, preference and
/// exclusion vectors, and the compatibility matrix. Returns one
/// [`Violation`] per defect; an empty vector certifies the architecture.
///
/// # Examples
///
/// ```no_run
/// # use crusade_core::{CoSynthesis, CosynOptions};
/// # fn demo(spec: &crusade_model::SystemSpec, lib: &crusade_model::ResourceLibrary) {
/// let result = CoSynthesis::new(spec, lib).run().unwrap();
/// let violations = crusade_verify::audit(spec, lib, &CosynOptions::default(), &result);
/// assert!(violations.is_empty(), "synthesis produced an invalid architecture");
/// # }
/// ```
pub fn audit(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
    result: &SynthesisResult,
) -> Vec<Violation> {
    let arch = &result.architecture;
    let mut out = Vec::new();

    let host_of = build_host_map(arch);

    check_placement_and_timing(spec, arch, &host_of, &mut out);
    check_resource_exclusivity(lib, arch, &mut out);
    check_transfers(spec, arch, &host_of, &mut out);
    check_capacities_and_bookkeeping(lib, options, result, &mut out);
    check_mode_disjointness(spec, result, &mut out);
    check_boot_and_interface(spec, lib, result, &mut out);
    check_vectors(spec, arch, result, &host_of, &mut out);

    out
}

/// Maps every placed task to its hosting PE instance by resource lookup.
fn build_host_map(arch: &Architecture) -> BTreeMap<GlobalTaskId, PeInstanceId> {
    let mut by_resource = BTreeMap::new();
    for (pid, pe) in arch.pes() {
        by_resource.insert(pe.resource, pid);
    }
    let mut host = BTreeMap::new();
    for (occ, resource, _) in arch.board.placements() {
        if let Occupant::Task(gt) = occ {
            if let Some(&pid) = by_resource.get(&resource) {
                host.insert(gt, pid);
            }
        }
    }
    host
}

/// Placement completeness, deadlines over the hyperperiod (copy-0
/// feasibility under periodic placement), and precedence along every
/// edge, including the transfer window when one is scheduled.
fn check_placement_and_timing(
    spec: &SystemSpec,
    arch: &Architecture,
    host_of: &BTreeMap<GlobalTaskId, PeInstanceId>,
    out: &mut Vec<Violation>,
) {
    for (g, graph) in spec.graphs() {
        let mut complete = true;
        for (t, _) in graph.tasks() {
            let gt = GlobalTaskId::new(g, t);
            if arch.board.window(Occupant::Task(gt)).is_none() || !host_of.contains_key(&gt) {
                out.push(Violation::MissingPlacement { task: gt });
                complete = false;
            }
        }
        if !complete {
            continue; // timing checks need every window
        }
        for (t, _) in graph.tasks() {
            let gt = GlobalTaskId::new(g, t);
            // Present by the completeness check above; stay graceful anyway.
            let Some(w) = arch.board.window(Occupant::Task(gt)) else {
                continue;
            };
            if let Some(d) = graph.effective_deadline(t) {
                let absolute = graph.est() + d;
                if w.finish > absolute {
                    out.push(Violation::DeadlineMiss {
                        task: gt,
                        deadline: absolute,
                        finish: w.finish,
                    });
                }
            }
        }
        for (eid, edge) in graph.edges() {
            let ge = GlobalEdgeId::new(g, eid);
            let endpoints = arch
                .board
                .window(Occupant::Task(GlobalTaskId::new(g, edge.from)))
                .zip(
                    arch.board
                        .window(Occupant::Task(GlobalTaskId::new(g, edge.to))),
                );
            // Present by the completeness check above; stay graceful anyway.
            let Some((wu, wv)) = endpoints else {
                continue;
            };
            let available = match arch.board.window(Occupant::Edge(ge)) {
                Some(we) => {
                    if we.start < wu.finish {
                        out.push(Violation::PrecedenceViolated {
                            edge: ge,
                            available: wu.finish,
                            start: we.start,
                        });
                    }
                    we.finish
                }
                None => wu.finish,
            };
            if wv.start < available {
                out.push(Violation::PrecedenceViolated {
                    edge: ge,
                    available,
                    start: wv.start,
                });
            }
        }
    }
}

/// Serialised resources (CPU timelines and links) must never be
/// double-booked. Hardware PEs execute spatially in parallel, so their
/// timelines are exempt by design.
fn check_resource_exclusivity(
    lib: &ResourceLibrary,
    arch: &Architecture,
    out: &mut Vec<Violation>,
) {
    for (pid, pe) in arch.pes() {
        if !matches!(lib.pe(pe.ty).class(), PeClass::Cpu(_)) {
            continue;
        }
        for (a, b) in arch.board.collisions(pe.resource) {
            out.push(Violation::ResourceCollision {
                resource: pid.to_string(),
                a: a.to_string(),
                b: b.to_string(),
            });
        }
    }
    for (lid, link) in arch.links() {
        for (a, b) in arch.board.collisions(link.resource) {
            out.push(Violation::ResourceCollision {
                resource: lid.to_string(),
                a: a.to_string(),
                b: b.to_string(),
            });
        }
    }
}

/// Every scheduled transfer must ride a live link attached to both
/// endpoint hosts (or be intra-PE, in which case no transfer may exist).
fn check_transfers(
    spec: &SystemSpec,
    arch: &Architecture,
    host_of: &BTreeMap<GlobalTaskId, PeInstanceId>,
    out: &mut Vec<Violation>,
) {
    for (lid, link) in arch.links() {
        let riders: Vec<GlobalEdgeId> = arch
            .board
            .occupants_on(link.resource)
            .filter_map(|(o, _)| match o {
                Occupant::Edge(e) => Some(e),
                _ => None,
            })
            .collect();
        for ge in riders {
            let edge = spec.graph(ge.graph).edge(ge.edge);
            let from = host_of.get(&GlobalTaskId::new(ge.graph, edge.from));
            let to = host_of.get(&GlobalTaskId::new(ge.graph, edge.to));
            let attached_both = match (from, to) {
                (Some(&a), Some(&b)) => {
                    link.attached.contains(&a) && link.attached.contains(&b) && a != b
                }
                _ => false, // endpoint unplaced: already reported
            };
            if !attached_both {
                out.push(Violation::DanglingTransfer {
                    edge: ge,
                    link: lid,
                });
            }
        }
    }
}

/// Re-derives every mode's hardware demand and every device's memory use
/// from the cluster lists, checks the caps, and cross-checks the recorded
/// bookkeeping. Also detects clusters recorded on several devices and
/// links with more PEs attached than their type has ports.
fn check_capacities_and_bookkeeping(
    lib: &ResourceLibrary,
    options: &CosynOptions,
    result: &SynthesisResult,
    out: &mut Vec<Violation>,
) {
    let arch = &result.architecture;
    let clustering = &result.clustering;
    let mut homes: BTreeMap<ClusterId, PeInstanceId> = BTreeMap::new();
    for (pid, pe) in arch.pes() {
        let mut device_clusters: Vec<ClusterId> = Vec::new();
        for (m, mode) in pe.modes.iter().enumerate() {
            let mut derived = HwDemand::ZERO;
            for &cid in &mode.clusters {
                derived = derived + clustering.cluster(cid).hw;
                if !device_clusters.contains(&cid) {
                    device_clusters.push(cid);
                }
            }
            if derived != mode.used_hw {
                out.push(Violation::ModeBookkeeping {
                    pe: pid,
                    detail: format!(
                        "image {m} records {} PFUs but its clusters demand {}",
                        mode.used_hw.pfus, derived.pfus
                    ),
                });
            }
            match lib.pe(pe.ty).class() {
                PeClass::Ppe(attrs) => {
                    // Utilisation factors are fractions in [0, 1]; the
                    // floored products stay within the u32 capacities.
                    #[allow(clippy::cast_possible_truncation)]
                    let pfu_cap = (f64::from(attrs.pfus) * options.eruf) as u32;
                    #[allow(clippy::cast_possible_truncation)]
                    let pin_cap = (f64::from(attrs.pins) * options.epuf) as u32;
                    if derived.pfus > pfu_cap {
                        out.push(Violation::ErufExceeded {
                            pe: pid,
                            mode: m,
                            used: derived.pfus,
                            cap: pfu_cap,
                        });
                    }
                    if derived.pins > pin_cap {
                        out.push(Violation::EpufExceeded {
                            pe: pid,
                            mode: m,
                            used: derived.pins,
                            cap: pin_cap,
                        });
                    }
                }
                PeClass::Asic(attrs) => {
                    if derived.gates > attrs.gates {
                        out.push(Violation::GatesExceeded {
                            pe: pid,
                            used: derived.gates,
                            capacity: attrs.gates,
                        });
                    }
                }
                PeClass::Cpu(_) => {}
            }
        }
        if let PeClass::Cpu(attrs) = lib.pe(pe.ty).class() {
            let derived_mem: u64 = device_clusters
                .iter()
                .map(|&c| clustering.cluster(c).memory.total())
                .sum();
            if derived_mem > attrs.memory_bytes {
                out.push(Violation::MemoryExceeded {
                    pe: pid,
                    used: derived_mem,
                    capacity: attrs.memory_bytes,
                });
            }
            if derived_mem != pe.memory_used {
                out.push(Violation::ModeBookkeeping {
                    pe: pid,
                    detail: format!(
                        "records {} bytes used but clusters demand {derived_mem}",
                        pe.memory_used
                    ),
                });
            }
        }
        for &cid in &device_clusters {
            if let Some(&other) = homes.get(&cid) {
                out.push(Violation::ClusterReplicated {
                    cluster: cid,
                    pe_a: other,
                    pe_b: pid,
                });
            } else {
                homes.insert(cid, pid);
            }
        }
    }
    for (lid, link) in arch.links() {
        let max_ports = lib.link(link.ty).max_ports();
        if link.attached.len() > max_ports as usize {
            out.push(Violation::LinkPortsExceeded {
                link: lid,
                attached: link.attached.len(),
                max_ports,
            });
        }
    }
}

/// The per-graph activity envelope of one configuration image: the
/// smallest periodic interval covering the graph's windows, expanded at
/// the front by the reboot guard (independent re-derivation of the
/// paper's Section 4.3 rule).
fn image_envelopes(
    spec: &SystemSpec,
    result: &SynthesisResult,
    pe: PeInstanceId,
    mode: usize,
    guard: Nanos,
) -> Vec<(GraphId, PeriodicInterval)> {
    let arch = &result.architecture;
    let m = &arch.pe(pe).modes[mode];
    let mut parts = Vec::new();
    for &g in &m.graphs {
        let graph = spec.graph(g);
        let period = graph.period();
        let mut lo = Nanos::MAX;
        let mut hi = Nanos::ZERO;
        for &cid in &m.clusters {
            let cluster = result.clustering.cluster(cid);
            if cluster.graph != g {
                continue;
            }
            for &t in &cluster.tasks {
                let Some(w) = arch.board.window(Occupant::Task(GlobalTaskId::new(g, t))) else {
                    continue; // unplaced: reported elsewhere
                };
                lo = lo.min(w.start);
                hi = hi.max(w.finish);
            }
        }
        if lo == Nanos::MAX {
            continue;
        }
        let span = hi - lo + guard;
        if span > period {
            parts.push((g, PeriodicInterval::new(Nanos::ZERO, period, period)));
            continue;
        }
        let start = if lo >= guard {
            lo - guard
        } else {
            lo + period - guard
        };
        parts.push((g, PeriodicInterval::new(start, span, period)));
    }
    parts
}

/// Cross-image temporal disjointness with reboot room: any two images of
/// one device must have collision-free activity envelopes for every pair
/// of graphs not shared between them.
fn check_mode_disjointness(spec: &SystemSpec, result: &SynthesisResult, out: &mut Vec<Violation>) {
    let arch = &result.architecture;
    let guard = spec.constraints().boot_time_requirement;
    for (pid, pe) in arch.pes() {
        if pe.modes.len() <= 1 {
            continue;
        }
        let parts: Vec<Vec<(GraphId, PeriodicInterval)>> = (0..pe.modes.len())
            .map(|m| image_envelopes(spec, result, pid, m, guard))
            .collect();
        for ma in 0..pe.modes.len() {
            for mb in (ma + 1)..pe.modes.len() {
                for &(ga, ref ea) in &parts[ma] {
                    if pe.modes[mb].graphs.contains(&ga) {
                        continue; // shared across both images: exempt
                    }
                    for &(gb, ref eb) in &parts[mb] {
                        if pe.modes[ma].graphs.contains(&gb) || ga == gb {
                            continue;
                        }
                        if ea.collides(eb) {
                            out.push(Violation::ModesOverlap {
                                pe: pid,
                                mode_a: ma,
                                mode_b: mb,
                                graph_a: ga,
                                graph_b: gb,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Boot feasibility: each multi-mode device's worst-case switch must be
/// bootable by some interface option within the requirement, and the
/// architecture's chosen interface must exist and meet the requirement.
fn check_boot_and_interface(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    result: &SynthesisResult,
    out: &mut Vec<Violation>,
) {
    let arch = &result.architecture;
    let requirement = spec.constraints().boot_time_requirement;
    let mut multi_mode = false;
    for (pid, pe) in arch.pes() {
        if pe.modes.len() <= 1 {
            continue;
        }
        multi_mode = true;
        let PeClass::Ppe(attrs) = lib.pe(pe.ty).class() else {
            out.push(Violation::ModeBookkeeping {
                pe: pid,
                detail: "non-programmable device carries multiple images".into(),
            });
            continue;
        };
        // Re-derive per-image PFU figures from the cluster lists.
        let pfus: Vec<u32> = pe
            .modes
            .iter()
            .map(|m| {
                m.clusters
                    .iter()
                    .fold(HwDemand::ZERO, |acc, &c| {
                        acc + result.clustering.cluster(c).hw
                    })
                    .pfus
            })
            .collect();
        let mut worst_bits = 0u64;
        for (i, &pi) in pfus.iter().enumerate() {
            for (j, &pj) in pfus.iter().enumerate() {
                if i != j {
                    worst_bits = worst_bits.max(reconfiguration_bits(attrs, pi, pj));
                }
            }
        }
        if !option_array()
            .iter()
            .any(|o| o.boot_time(worst_bits, 0) <= requirement)
        {
            out.push(Violation::BootInfeasible { pe: pid });
        }
    }
    if multi_mode {
        match &arch.interface {
            None => out.push(Violation::InterfaceMissing),
            Some(iface) => {
                if iface.worst_boot_time > requirement {
                    out.push(Violation::InterfaceTooSlow {
                        worst: iface.worst_boot_time,
                        requirement,
                    });
                }
            }
        }
    }
}

/// Preference vectors, exclusion vectors and the compatibility matrix.
fn check_vectors(
    spec: &SystemSpec,
    arch: &Architecture,
    result: &SynthesisResult,
    host_of: &BTreeMap<GlobalTaskId, PeInstanceId>,
    out: &mut Vec<Violation>,
) {
    for (&gt, &pid) in host_of {
        let ty = arch.pe(pid).ty;
        let task = spec.graph(gt.graph).task(gt.task);
        if task.exec.on(ty).is_none() || !task.preference.allows(ty) {
            out.push(Violation::PreferenceViolated {
                task: gt,
                pe_type: ty,
            });
        }
    }
    for (pid, pe) in arch.pes() {
        let mut tasks: Vec<GlobalTaskId> = Vec::new();
        for mode in &pe.modes {
            for &cid in &mode.clusters {
                let c = result.clustering.cluster(cid);
                for &t in &c.tasks {
                    let gt = GlobalTaskId::new(c.graph, t);
                    if !tasks.contains(&gt) {
                        tasks.push(gt);
                    }
                }
            }
        }
        for i in 0..tasks.len() {
            for j in (i + 1)..tasks.len() {
                let (a, b) = (tasks[i], tasks[j]);
                if a.graph != b.graph {
                    continue;
                }
                let graph = spec.graph(a.graph);
                if graph.task(a.task).exclusions.excludes(b.task)
                    || graph.task(b.task).exclusions.excludes(a.task)
                {
                    out.push(Violation::ExclusionViolated {
                        pe: pid,
                        task_a: a,
                        task_b: b,
                    });
                }
            }
        }
        if pe.modes.len() > 1 {
            if let Some(matrix) = spec.compatibility() {
                let mut graphs: Vec<GraphId> = Vec::new();
                for mode in &pe.modes {
                    for &g in &mode.graphs {
                        if !graphs.contains(&g) {
                            graphs.push(g);
                        }
                    }
                }
                for i in 0..graphs.len() {
                    for j in (i + 1)..graphs.len() {
                        if !matrix.compatible(graphs[i], graphs[j]) {
                            out.push(Violation::IncompatibleGraphs {
                                pe: pid,
                                graph_a: graphs[i],
                                graph_b: graphs[j],
                            });
                        }
                    }
                }
            }
        }
    }
}
