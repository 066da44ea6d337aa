//! The CRUSADE co-synthesis driver (Figure 5).
//!
//! `pre-processing` (validation, association bookkeeping, clustering) →
//! `synthesis` (the cluster allocation loop with scheduling and
//! finish-time estimation in the inner loop) → `dynamic reconfiguration
//! generation` (device merging and mode combination) → reconfiguration-
//! controller interface synthesis → final deadline verification.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crusade_fabric::{synthesize_interface_observed, InterfaceRequirement};
use crusade_model::{Dollars, GlobalTaskId, Nanos, PeClass, PpeAttrs, ResourceLibrary, SystemSpec};
use crusade_obs::{Event, ObserverHandle};
use crusade_sched::{check_deadlines, estimate_finish_times, Occupant};

use crate::alloc::Allocator;
use crate::arch::Architecture;
use crate::cluster::Clustering;
use crate::error::SynthesisError;
use crate::options::CosynOptions;
use crate::preamble::Preamble;
use crate::reconfig::{self, ReconfigReport};

/// Summary figures of a finished synthesis — the columns of Tables 2
/// and 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisReport {
    /// Number of PE instances in the final architecture.
    pub pe_count: usize,
    /// Number of link instances.
    pub link_count: usize,
    /// Total architecture dollar cost.
    pub cost: Dollars,
    /// Wall-clock synthesis time (the paper's "CPU time" column).
    pub cpu_time: Duration,
    /// Dynamic-reconfiguration statistics.
    pub reconfig: ReconfigReport,
    /// Number of programmable devices carrying more than one mode.
    pub multi_mode_devices: usize,
    /// Total number of modes across programmable devices.
    pub total_modes: usize,
    /// Number of clusters allocated.
    pub cluster_count: usize,
    /// Allocation candidates actually evaluated (scheduling attempted).
    pub candidates_tried: usize,
}

/// Everything a synthesis run produces.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The synthesised architecture (PEs, links, modes, schedule,
    /// programming interface).
    pub architecture: Architecture,
    /// The clustering the run used (needed to interpret mode membership),
    /// shared with every run of the same [`Preamble`].
    pub clustering: Arc<Clustering>,
    /// Summary figures.
    pub report: SynthesisReport,
}

/// The co-synthesis algorithm, configured and ready to [`run`](Self::run).
///
/// # Examples
///
/// ```
/// use crusade_core::{CoSynthesis, CosynOptions};
/// use crusade_model::{
///     CpuAttrs, Dollars, ExecutionTimes, LinkClass, LinkType, Nanos, PeClass, PeType,
///     ResourceLibrary, SystemSpec, Task, TaskGraphBuilder,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lib = ResourceLibrary::new();
/// lib.add_pe(PeType::new("cpu", Dollars::new(80), PeClass::Cpu(CpuAttrs {
///     memory_bytes: 4 << 20,
///     context_switch: Nanos::from_micros(5),
///     comm_ports: 2,
///     comm_overlap: true,
/// })));
/// lib.add_link(LinkType::new(
///     "bus", Dollars::new(10), LinkClass::Bus, 8,
///     vec![Nanos::from_nanos(200)], 64, Nanos::from_micros(1),
/// ));
/// let mut b = TaskGraphBuilder::new("g", Nanos::from_millis(1));
/// let a = b.add_task(Task::new("a", ExecutionTimes::uniform(1, Nanos::from_micros(50))));
/// let z = b.add_task(Task::new("z", ExecutionTimes::uniform(1, Nanos::from_micros(30))));
/// b.add_edge(a, z, 32);
/// let spec = SystemSpec::new(vec![b.build()?]);
/// let result = CoSynthesis::new(&spec, &lib).run()?;
/// assert_eq!(result.report.pe_count, 1); // one CPU suffices
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CoSynthesis<'a> {
    spec: &'a SystemSpec,
    lib: &'a ResourceLibrary,
    options: CosynOptions,
    cancel: Option<&'a AtomicBool>,
    preamble: Option<&'a Preamble<'a>>,
}

impl<'a> CoSynthesis<'a> {
    /// Prepares a run with default options (reconfiguration enabled,
    /// ERUF = 0.70, EPUF = 0.80).
    pub fn new(spec: &'a SystemSpec, lib: &'a ResourceLibrary) -> Self {
        CoSynthesis {
            spec,
            lib,
            options: CosynOptions::default(),
            cancel: None,
            preamble: None,
        }
    }

    /// Overrides the options.
    pub fn with_options(mut self, options: CosynOptions) -> Self {
        self.options = options;
        self
    }

    /// Installs a cooperative cancellation flag: once it is raised, the
    /// run stops at its next allocation step with
    /// [`SynthesisError::Cancelled`].
    pub fn with_cancel(mut self, cancel: &'a AtomicBool) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Supplies a [`Preamble`] built earlier for the same specification,
    /// library and [`crate::PreambleKey`], so the run skips validation,
    /// clustering and the allocator's bounds. Without one, the run builds
    /// its own.
    pub fn with_prepared(mut self, preamble: &'a Preamble<'a>) -> Self {
        self.preamble = Some(preamble);
        self
    }

    /// Executes the full co-synthesis flow.
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::InvalidSpec`] — the specification fails
    ///   validation;
    /// * [`SynthesisError::Unallocatable`] — some cluster cannot meet its
    ///   deadlines on any PE the library offers;
    /// * [`SynthesisError::NoFeasibleInterface`] — multi-mode devices
    ///   exist but no programming interface meets the boot-time
    ///   requirement;
    /// * [`SynthesisError::Cancelled`] — the [`with_cancel`](Self::with_cancel)
    ///   flag was raised during allocation;
    /// * [`SynthesisError::Internal`] — the [`with_prepared`](Self::with_prepared)
    ///   preamble was built from other inputs.
    pub fn run(&self) -> Result<SynthesisResult, SynthesisError> {
        let t0 = Instant::now();
        // Pre-processing: validation, clustering (priority levels are
        // computed inside) and the allocator's bounds — built here unless
        // a preamble was supplied.
        let built;
        let preamble = match self.preamble {
            Some(preamble) => preamble,
            None => {
                built = Preamble::new(self.spec, self.lib, &self.options)?;
                &built
            }
        };
        if !preamble.serves(self.spec, self.lib, &self.options) {
            return Err(SynthesisError::Internal(format!(
                "preamble built under {} handed to a run under {}, or of another spec or library",
                preamble.key(),
                crate::PreambleKey::of(&self.options)
            )));
        }
        // Resolve the policy's knob overrides into plain fields once; all
        // phases below read the effective options.
        let options = self.options.effective();

        // Optional pre-pass: the static analyzer proves infeasibility
        // before any allocation work (the pre-synthesis mirror of the
        // post-synthesis audit hook below).
        if options.lint {
            let _span = options.observer.span("lint");
            let report = crusade_lint::lint(self.spec, self.lib, &options.lint_options());
            if report.has_errors() {
                return Err(SynthesisError::LintRejected {
                    lints: report.errors().map(|l| l.to_string()).collect(),
                });
            }
        }

        let clustering: &Clustering = preamble.clustering();
        {
            let _span = options.observer.span("clustering");
            for (cid, cluster) in clustering.clusters() {
                options.observer.emit(|| Event::ClusterFormed {
                    cluster: cid.index() as u64,
                    tasks: cluster.tasks.len() as u64,
                });
            }
        }

        // Synthesis: the outer allocation loop, in priority order under
        // the baseline policy, boundedly perturbed otherwise.
        let alloc_span = options.observer.span("allocation");
        let mut allocator =
            Allocator::new(self.spec, self.lib, &options, clustering, preamble.bounds());
        if let Some(cancel) = self.cancel {
            allocator.set_cancel(cancel);
        }
        let mut cluster_ids: Vec<_> = clustering.clusters().map(|(id, _)| id).collect();
        options.policy.perturb_order(&mut cluster_ids);
        for cid in cluster_ids {
            allocator.allocate(cid)?;
        }
        let candidates_tried = allocator.candidates_tried();
        let mut arch = allocator.arch;
        drop(alloc_span);

        // Dynamic reconfiguration generation.
        let recon = if options.reconfiguration {
            let _span = options.observer.span("reconfiguration");
            reconfig::generate(self.spec, self.lib, &options, clustering, &mut arch)
        } else {
            ReconfigReport::default()
        };

        // Reconfiguration-controller interface synthesis.
        {
            let _span = options.observer.span("interface");
            resynthesize_interface(self.spec, self.lib, &mut arch, &options.observer)?;
        }

        // Final verification: every graph's deadlines hold on the exact
        // schedule.
        debug_assert!(self.verify_deadlines(&arch));

        let multi_mode_devices = arch.pes().filter(|(_, p)| p.modes.len() > 1).count();
        let total_modes = arch.pes().map(|(_, p)| p.modes.len()).sum();
        let report = SynthesisReport {
            pe_count: arch.pe_count(),
            link_count: arch.link_count(),
            cost: arch.cost(self.lib),
            cpu_time: t0.elapsed(),
            reconfig: recon,
            multi_mode_devices,
            total_modes,
            cluster_count: clustering.cluster_count(),
            candidates_tried,
        };
        options.observer.emit(|| Event::SynthesisComplete {
            cost: report.cost.amount(),
            pes: report.pe_count as u64,
            links: report.link_count as u64,
            attempts: report.candidates_tried as u64,
            pruned: 0,
        });
        let result = SynthesisResult {
            architecture: arch,
            clustering: Arc::clone(preamble.clustering()),
            report,
        };

        // Optional post-pass: the independent auditor from crusade-verify
        // re-derives every invariant from spec + schedule.
        if options.audit {
            let Some(hook) = crate::audit_hook::audit_hook() else {
                return Err(SynthesisError::Internal(
                    "audit requested but no auditor installed (call \
                     crusade_verify::install_auditor first)"
                        .into(),
                ));
            };
            let violations = hook(self.spec, self.lib, &options, &result);
            if !violations.is_empty() {
                return Err(SynthesisError::AuditFailed { violations });
            }
        }
        Ok(result)
    }

    /// Checks the final schedule against every deadline (exact windows).
    fn verify_deadlines(&self, arch: &Architecture) -> bool {
        for (g, graph) in self.spec.graphs() {
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
}

/// Builds the interface requirement from the final modes and runs the
/// option-array selection of Section 4.4. Free-standing so the repair
/// path can re-run it after surgery on a damaged architecture.
pub(crate) fn resynthesize_interface(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    arch: &mut Architecture,
    observer: &ObserverHandle,
) -> Result<(), SynthesisError> {
    let mut device_bits = Vec::new();
    let mut image_bytes = 0u64;
    for (_, pe) in arch.pes() {
        let PeClass::Ppe(attrs) = lib.pe(pe.ty).class() else {
            continue;
        };
        if pe.modes.len() <= 1 {
            continue;
        }
        device_bits.push(worst_switch_bits(
            attrs,
            pe.modes.iter().map(|m| m.used_hw.pfus),
        ));
        image_bytes += pe
            .modes
            .iter()
            .map(|m| mode_image_bits(attrs, m.used_hw.pfus) / 8)
            .sum::<u64>();
    }
    if device_bits.is_empty() {
        arch.interface = None;
        return Ok(());
    }
    let requirement = spec.constraints().boot_time_requirement;
    let req = InterfaceRequirement {
        device_config_bits: device_bits.clone(),
        image_bytes,
        boot_time_requirement: requirement,
    };
    if let Some(iface) = synthesize_interface_observed(&req, observer) {
        observer.emit(|| Event::InterfaceChosen {
            cost: iface.cost.amount(),
            worst_boot_ns: iface.worst_boot_time.as_nanos(),
            fallback: false,
        });
        arch.interface = Some(iface);
        return Ok(());
    }
    // Chaining every device on one interface was too slow (tail
    // devices pay bypass overhead): fall back to one interface per
    // device and account for the summed cost. The merge phase already
    // verified each device is bootable solo.
    let mut total_cost = Dollars::ZERO;
    let mut worst = Nanos::ZERO;
    let mut option = None;
    for (i, &bits) in device_bits.iter().enumerate() {
        let solo = InterfaceRequirement {
            device_config_bits: vec![bits],
            image_bytes: image_bytes / device_bits.len() as u64,
            boot_time_requirement: requirement,
        };
        match synthesize_interface_observed(&solo, observer) {
            Some(iface) => {
                total_cost += iface.cost;
                worst = worst.max(iface.worst_boot_time);
                if i == 0 {
                    option = Some(iface.option);
                }
            }
            None => return Err(SynthesisError::NoFeasibleInterface),
        }
    }
    let Some(option) = option else {
        return Err(SynthesisError::Internal(
            "per-device interface loop produced no option despite non-empty device list".into(),
        ));
    };
    observer.emit(|| Event::InterfaceChosen {
        cost: total_cost.amount(),
        worst_boot_ns: worst.as_nanos(),
        fallback: true,
    });
    arch.interface = Some(crusade_fabric::SynthesizedInterface {
        option,
        cost: total_cost,
        worst_boot_time: worst,
    });
    Ok(())
}

/// Configuration bits of one mode's image.
fn mode_image_bits(attrs: &PpeAttrs, mode_pfus: u32) -> u64 {
    if attrs.partial_reconfig {
        mode_pfus.min(attrs.pfus) as u64 * attrs.config_bits_per_pfu as u64
    } else {
        attrs.full_config_bits()
    }
}

/// Worst-case bits shifted for any mode switch of a device.
fn worst_switch_bits(attrs: &PpeAttrs, mode_pfus: impl Iterator<Item = u32>) -> u64 {
    let pfus: Vec<u32> = mode_pfus.collect();
    let mut worst = 0;
    for i in 0..pfus.len() {
        for j in 0..pfus.len() {
            if i != j {
                worst = worst.max(crusade_fabric::reconfiguration_bits(
                    attrs, pfus[i], pfus[j],
                ));
            }
        }
    }
    worst
}
