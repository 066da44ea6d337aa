//! Field-upgrade analysis: synthesize new functionality onto *deployed*
//! hardware.
//!
//! Section 3 of the paper motivates reconfigurable architectures with
//! field upgrades: design errors found after release can be fixed, and
//! new features offered, "via simply reconfiguring the FPGAs and CPLDs" —
//! provided the deployed devices have sufficient resources and
//! connectivity. This module answers exactly that question: given the
//! architecture of a shipped system and a *new* specification (the next
//! software/firmware release), can the new specification be hosted on the
//! existing hardware, with no new parts, by re-mapping software and
//! reprogramming the programmable devices (opening new configuration
//! images where temporal sharing permits)?

use crusade_model::{ResourceLibrary, SystemSpec};

use crate::alloc::{AllocBounds, Allocator};
use crate::arch::Architecture;
use crate::cluster::cluster_tasks_with;
use crate::error::SynthesisError;
use crate::options::CosynOptions;
use crate::synthesis::{SynthesisReport, SynthesisResult};

/// The outcome of a feasible field upgrade.
#[derive(Debug, Clone)]
pub struct UpgradeResult {
    /// The re-synthesized system on the fixed hardware.
    pub synthesis: SynthesisResult,
    /// Configuration images opened beyond one per programmable device.
    pub extra_modes: usize,
}

/// Strips a deployed architecture down to its *hardware shell*: the same
/// PE and link instances (types, attachments) with an empty schedule and
/// empty configuration images, ready to receive a new specification.
pub fn hardware_shell(deployed: &Architecture) -> Architecture {
    let mut shell = Architecture::new();
    let mut pe_map = std::collections::HashMap::new();
    for (old_id, pe) in deployed.pes() {
        let new_id = shell.add_pe(pe.ty);
        pe_map.insert(old_id, new_id);
    }
    for (_, link) in deployed.links() {
        let id = shell.add_link(link.ty);
        let attached: Vec<_> = link
            .attached
            .iter()
            .filter_map(|p| pe_map.get(p).copied())
            .collect();
        shell.link_mut(id).attached = attached;
    }
    shell
}

/// Attempts to host `new_spec` on the deployed architecture without
/// adding hardware.
///
/// Allocation may reuse every existing PE and link and may open new
/// configuration images on programmable devices (verified for reboot room
/// and capacity), but may not instantiate anything. On success the
/// returned schedule meets every deadline of the new specification.
///
/// # Errors
///
/// [`SynthesisError::Unallocatable`] when some cluster of the new
/// specification cannot be hosted — the upgrade requires a hardware
/// change (the paper's criterion for when a field upgrade is *not*
/// possible).
///
/// # Examples
///
/// ```no_run
/// # use crusade_core::{upgrade_in_field, CoSynthesis, CosynOptions};
/// # fn demo(old_spec: &crusade_model::SystemSpec, new_spec: &crusade_model::SystemSpec,
/// #         lib: &crusade_model::ResourceLibrary) {
/// let deployed = CoSynthesis::new(old_spec, lib).run().unwrap();
/// match upgrade_in_field(&deployed.architecture, new_spec, lib, &CosynOptions::default()) {
///     Ok(up) => println!("upgrade ships as firmware: {} new images", up.extra_modes),
///     Err(e) => println!("upgrade needs new hardware: {e}"),
/// }
/// # }
/// ```
pub fn upgrade_in_field(
    deployed: &Architecture,
    new_spec: &SystemSpec,
    lib: &ResourceLibrary,
    options: &CosynOptions,
) -> Result<UpgradeResult, SynthesisError> {
    let t0 = std::time::Instant::now();
    new_spec.validate()?;
    let clustering = cluster_tasks_with(new_spec, lib, options)?;
    let bounds = AllocBounds::new(new_spec, lib, &clustering);
    let shell = hardware_shell(deployed);
    let mut allocator = Allocator::for_upgrade(new_spec, lib, options, &clustering, &bounds, shell);
    let cluster_ids: Vec<_> = clustering.clusters().map(|(id, _)| id).collect();
    for cid in cluster_ids {
        allocator.allocate(cid)?;
    }
    let candidates_tried = allocator.candidates_tried();
    let mut arch = allocator.arch;

    // Drop images that ended up unused (opened speculatively), keeping at
    // least one per device.
    let pe_ids: Vec<_> = arch.pes().map(|(id, _)| id).collect();
    for pid in pe_ids {
        let modes = &mut arch.pe_mut(pid).modes;
        let mut i = 1;
        while i < modes.len() {
            if modes[i].clusters.is_empty() {
                modes.remove(i);
            } else {
                i += 1;
            }
        }
    }
    let extra_modes: usize = arch
        .pes()
        .map(|(_, p)| p.modes.len().saturating_sub(1))
        .sum();

    let multi_mode_devices = arch.pes().filter(|(_, p)| p.modes.len() > 1).count();
    let total_modes = arch.pes().map(|(_, p)| p.modes.len()).sum();
    let report = SynthesisReport {
        pe_count: arch.pe_count(),
        link_count: arch.link_count(),
        cost: arch.cost(lib),
        cpu_time: t0.elapsed(),
        reconfig: Default::default(),
        multi_mode_devices,
        total_modes,
        cluster_count: clustering.cluster_count(),
        candidates_tried,
    };
    Ok(UpgradeResult {
        synthesis: SynthesisResult {
            architecture: arch,
            clustering: std::sync::Arc::new(clustering),
            report,
        },
        extra_modes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoSynthesis;
    use crusade_model::{
        CpuAttrs, Dollars, ExecutionTimes, HwDemand, LinkClass, LinkType, Nanos, PeClass, PeType,
        PeTypeId, PpeAttrs, PpeKind, Preference, SystemConstraints, Task, TaskGraphBuilder,
    };

    const CPU: usize = 0;
    const FPGA: usize = 1;

    fn library() -> ResourceLibrary {
        let mut lib = ResourceLibrary::new();
        lib.add_pe(PeType::new(
            "cpu",
            Dollars::new(90),
            PeClass::Cpu(CpuAttrs {
                memory_bytes: 4 << 20,
                context_switch: Nanos::from_micros(8),
                comm_ports: 2,
                comm_overlap: true,
            }),
        ));
        lib.add_pe(PeType::new(
            "fpga",
            Dollars::new(250),
            PeClass::Ppe(PpeAttrs {
                kind: PpeKind::Fpga,
                pfus: 1000,
                flip_flops: 2000,
                pins: 160,
                boot_memory_bytes: 20 << 10,
                config_bits_per_pfu: 150,
                partial_reconfig: false,
            }),
        ));
        lib.add_link(LinkType::new(
            "bus",
            Dollars::new(10),
            LinkClass::Bus,
            8,
            vec![Nanos::from_nanos(300)],
            64,
            Nanos::from_micros(1),
        ));
        lib
    }

    fn sw(name: &str, n: usize, exec_us: u64) -> crusade_model::TaskGraph {
        let mut b = TaskGraphBuilder::new(name, Nanos::from_millis(10));
        let mut prev = None;
        for i in 0..n {
            let t = Task::new(
                format!("{name}-{i}"),
                ExecutionTimes::from_entries(
                    2,
                    [(PeTypeId::new(CPU), Nanos::from_micros(exec_us))],
                ),
            );
            let id = b.add_task(t);
            if let Some(p) = prev {
                b.add_edge(p, id, 64);
            }
            prev = Some(id);
        }
        b.deadline(Nanos::from_millis(8)).build().unwrap()
    }

    fn hw(name: &str, est_ms: u64, span_ms: u64, pfus: u32) -> crusade_model::TaskGraph {
        let mut b = TaskGraphBuilder::new(name, Nanos::from_millis(100));
        let mut t = Task::new(
            format!("{name}-hw"),
            ExecutionTimes::from_entries(
                2,
                [(PeTypeId::new(FPGA), Nanos::from_millis(span_ms) / 4)],
            ),
        );
        t.preference = Preference::Only(vec![PeTypeId::new(FPGA)]);
        t.hw = HwDemand::new(0, pfus, pfus, 8);
        b.add_task(t);
        b.est(Nanos::from_millis(est_ms))
            .deadline(Nanos::from_millis(span_ms))
            .build()
            .unwrap()
    }

    fn constraints() -> SystemConstraints {
        SystemConstraints {
            boot_time_requirement: Nanos::from_millis(5),
            preemption_overhead: Nanos::from_micros(50),
            average_link_ports: 2,
        }
    }

    #[test]
    fn shell_preserves_instances_and_links() {
        let lib = library();
        let spec = SystemSpec::new(vec![sw("a", 3, 100), hw("h", 0, 30, 400)])
            .with_constraints(constraints());
        let deployed = CoSynthesis::new(&spec, &lib).run().unwrap();
        let shell = hardware_shell(&deployed.architecture);
        assert_eq!(shell.pe_count(), deployed.architecture.pe_count());
        assert_eq!(shell.link_count(), deployed.architecture.link_count());
        assert_eq!(shell.board.placement_count(), 0);
        for (_, pe) in shell.pes() {
            assert_eq!(pe.modes.len(), 1);
            assert!(pe.modes[0].clusters.is_empty());
        }
    }

    #[test]
    fn compatible_feature_addition_fits_existing_hardware() {
        let lib = library();
        // v1: control software + one early hardware function.
        let v1 = SystemSpec::new(vec![sw("ctl", 4, 100), hw("filt", 0, 30, 400)])
            .with_constraints(constraints());
        let deployed = CoSynthesis::new(&v1, &lib).run().unwrap();
        // v2 adds a *late-window* hardware feature: fits the same device
        // through a second configuration image.
        let v2 = SystemSpec::new(vec![
            sw("ctl", 4, 100),
            hw("filt", 0, 30, 400),
            hw("newfeat", 60, 30, 500),
        ])
        .with_constraints(constraints());
        let up = upgrade_in_field(&deployed.architecture, &v2, &lib, &CosynOptions::default())
            .expect("the upgrade ships as firmware");
        assert_eq!(up.synthesis.report.pe_count, deployed.report.pe_count);
        assert!(up.extra_modes >= 1, "a new image was opened");
        assert!(up.synthesis.report.multi_mode_devices >= 1);
    }

    #[test]
    fn oversized_feature_requires_new_hardware() {
        let lib = library();
        let v1 = SystemSpec::new(vec![hw("filt", 0, 30, 400)]).with_constraints(constraints());
        let deployed = CoSynthesis::new(&v1, &lib).run().unwrap();
        // The new feature overlaps the old one in time AND does not fit
        // beside it spatially: no firmware upgrade can host it.
        let v2 = SystemSpec::new(vec![hw("filt", 0, 30, 400), hw("big", 10, 30, 500)])
            .with_constraints(constraints());
        let err = upgrade_in_field(&deployed.architecture, &v2, &lib, &CosynOptions::default())
            .unwrap_err();
        assert!(matches!(err, SynthesisError::Unallocatable { .. }));
    }

    #[test]
    fn software_rebalancing_reuses_cpus() {
        let lib = library();
        let v1 =
            SystemSpec::new(vec![sw("a", 6, 200), sw("b", 6, 200)]).with_constraints(constraints());
        let deployed = CoSynthesis::new(&v1, &lib).run().unwrap();
        // v2 shuffles the software (different shapes, same rough load).
        let v2 = SystemSpec::new(vec![sw("a2", 5, 240), sw("b2", 7, 160)])
            .with_constraints(constraints());
        let up = upgrade_in_field(&deployed.architecture, &v2, &lib, &CosynOptions::default())
            .expect("software-only upgrade");
        assert_eq!(up.synthesis.report.pe_count, deployed.report.pe_count);
        assert_eq!(up.extra_modes, 0);
    }
}
