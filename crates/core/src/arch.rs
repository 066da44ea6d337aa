//! The heterogeneous distributed architecture under construction.
//!
//! An architecture is a set of PE *instances* (each an instantiation of a
//! library PE type) and link *instances* connecting them. Programmable PE
//! instances may carry several *modes* — alternative configurations that
//! time-share the device through dynamic reconfiguration; CPUs and ASICs
//! always have exactly one mode. The architecture owns the schedule board:
//! each CPU instance and each link has a serialised timeline, while
//! hardware PEs execute their resident tasks spatially in parallel.

use serde::{Deserialize, Serialize};

use crusade_fabric::SynthesizedInterface;
use crusade_model::{Dollars, GraphId, HwDemand, LinkTypeId, PeTypeId, ResourceLibrary};
use crusade_sched::{ResourceId, ScheduleBoard};

use crate::cluster::ClusterId;

/// Identifies a PE instance within an [`Architecture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PeInstanceId(u32);

impl PeInstanceId {
    /// Creates an instance id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` — far beyond any realisable
    /// architecture.
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "PE index exceeds u32::MAX");
        #[allow(clippy::cast_possible_truncation)] // asserted above
        PeInstanceId(index as u32)
    }

    /// Raw index into the architecture's PE list.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PeInstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pe#{}", self.0)
    }
}

/// Identifies a link instance within an [`Architecture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct LinkInstanceId(u32);

impl LinkInstanceId {
    /// Creates a link-instance id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` — far beyond any realisable
    /// architecture.
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "link index exceeds u32::MAX");
        #[allow(clippy::cast_possible_truncation)] // asserted above
        LinkInstanceId(index as u32)
    }

    /// Raw index into the architecture's link list.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LinkInstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lk#{}", self.0)
    }
}

/// A mode index within one PE instance.
pub type ModeIndex = usize;

/// One configuration of a PE instance.
///
/// For CPUs and ASICs there is exactly one mode; for programmable PEs each
/// mode is a configuration image that dynamic reconfiguration swaps in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mode {
    /// Clusters resident in this mode.
    pub clusters: Vec<ClusterId>,
    /// Graphs contributing tasks to this mode (for compatibility checks).
    pub graphs: Vec<GraphId>,
    /// Accumulated hardware demand of the resident clusters.
    pub used_hw: HwDemand,
}

impl Mode {
    pub(crate) fn empty() -> Self {
        Mode {
            clusters: Vec::new(),
            graphs: Vec::new(),
            used_hw: HwDemand::ZERO,
        }
    }
}

/// One instantiated processing element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeInstance {
    /// The library type this instantiates.
    pub ty: PeTypeId,
    /// Configurations of the device (always exactly one for CPUs/ASICs).
    pub modes: Vec<Mode>,
    /// Schedule-board resource for serialised execution (CPUs); hardware
    /// PEs use it only to record windows (spatial parallelism).
    pub resource: ResourceId,
    /// Memory bytes consumed (CPU instances).
    pub memory_used: u64,
    /// Set when the instance has been merged away by dynamic
    /// reconfiguration (kept for id stability; not counted or costed).
    pub retired: bool,
}

/// One instantiated communication link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkInstance {
    /// The library type this instantiates.
    pub ty: LinkTypeId,
    /// Schedule-board resource carrying the link's transfers.
    pub resource: ResourceId,
    /// PE instances attached to the link's ports.
    pub attached: Vec<PeInstanceId>,
    /// Set when the link lost all traffic through merging.
    pub retired: bool,
}

/// The distributed architecture being synthesised.
///
/// # Examples
///
/// ```
/// use crusade_core::Architecture;
/// use crusade_model::{
///     CpuAttrs, Dollars, Nanos, PeClass, PeType, PeTypeId, ResourceLibrary,
/// };
///
/// let mut lib = ResourceLibrary::new();
/// let cpu = lib.add_pe(PeType::new("cpu", Dollars::new(75), PeClass::Cpu(CpuAttrs {
///     memory_bytes: 1 << 20,
///     context_switch: Nanos::from_micros(5),
///     comm_ports: 2,
///     comm_overlap: true,
/// })));
/// let mut arch = Architecture::new();
/// let pe = arch.add_pe(cpu);
/// assert_eq!(arch.pe_count(), 1);
/// assert_eq!(arch.cost(&lib), Dollars::new(75));
/// # let _ = pe;
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Architecture {
    pes: Vec<PeInstance>,
    links: Vec<LinkInstance>,
    /// All timelines (CPU execution, hardware windows, link transfers).
    pub board: ScheduleBoard,
    /// The synthesised reconfiguration-controller interface, when the
    /// architecture contains multi-mode devices.
    pub interface: Option<SynthesizedInterface>,
}

impl Architecture {
    /// An empty architecture.
    pub fn new() -> Self {
        Architecture::default()
    }

    /// Instantiates a PE of the given type with one empty mode.
    pub fn add_pe(&mut self, ty: PeTypeId) -> PeInstanceId {
        let id = PeInstanceId::new(self.pes.len());
        let resource = self.board.add_resource();
        self.pes.push(PeInstance {
            ty,
            modes: vec![Mode::empty()],
            resource,
            memory_used: 0,
            retired: false,
        });
        id
    }

    /// Instantiates a link of the given type.
    pub fn add_link(&mut self, ty: LinkTypeId) -> LinkInstanceId {
        let id = LinkInstanceId::new(self.links.len());
        let resource = self.board.add_resource();
        self.links.push(LinkInstance {
            ty,
            resource,
            attached: Vec::new(),
            retired: false,
        });
        id
    }

    /// Drops the newest PE slot and its board resource: the undo of
    /// [`add_pe`](Self::add_pe) once everything placed on it is gone.
    pub(crate) fn pop_pe(&mut self) {
        self.pes.pop();
        let popped = self.board.pop_resource();
        debug_assert!(popped, "the newest PE's resource is the last one");
    }

    /// Drops the newest link slot and its board resource: the undo of
    /// [`add_link`](Self::add_link) once everything placed on it is gone.
    pub(crate) fn pop_link(&mut self) {
        self.links.pop();
        let popped = self.board.pop_resource();
        debug_assert!(popped, "the newest link's resource is the last one");
    }

    /// Accesses a PE instance.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pe(&self, id: PeInstanceId) -> &PeInstance {
        &self.pes[id.index()]
    }

    /// Mutable access to a PE instance.
    pub fn pe_mut(&mut self, id: PeInstanceId) -> &mut PeInstance {
        &mut self.pes[id.index()]
    }

    /// Accesses a link instance.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkInstanceId) -> &LinkInstance {
        &self.links[id.index()]
    }

    /// Mutable access to a link instance.
    pub fn link_mut(&mut self, id: LinkInstanceId) -> &mut LinkInstance {
        &mut self.links[id.index()]
    }

    /// Live (non-retired) PE instances.
    pub fn pes(&self) -> impl Iterator<Item = (PeInstanceId, &PeInstance)> {
        self.pes
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.retired)
            .map(|(i, p)| (PeInstanceId::new(i), p))
    }

    /// Live link instances.
    pub fn links(&self) -> impl Iterator<Item = (LinkInstanceId, &LinkInstance)> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.retired)
            .map(|(i, l)| (LinkInstanceId::new(i), l))
    }

    /// Total PE slots ever instantiated, retired included (id-space size).
    pub(crate) fn pe_slots(&self) -> usize {
        self.pes.len()
    }

    /// Total link slots ever instantiated, retired included.
    pub(crate) fn link_slots(&self) -> usize {
        self.links.len()
    }

    /// Number of live PE instances — the paper's "No. of PEs" column.
    pub fn pe_count(&self) -> usize {
        self.pes.iter().filter(|p| !p.retired).count()
    }

    /// Number of live link instances — the paper's "No. of links" column.
    pub fn link_count(&self) -> usize {
        self.links.iter().filter(|l| !l.retired).count()
    }

    /// Total dollar cost: PEs + links + reconfiguration interface.
    pub fn cost(&self, lib: &ResourceLibrary) -> Dollars {
        let pes: Dollars = self
            .pes
            .iter()
            .filter(|p| !p.retired)
            .map(|p| lib.pe(p.ty).cost())
            .sum();
        let links: Dollars = self
            .links
            .iter()
            .filter(|l| !l.retired)
            .map(|l| lib.link(l.ty).cost())
            .sum();
        let iface = self
            .interface
            .as_ref()
            .map(|i| i.cost)
            .unwrap_or(Dollars::ZERO);
        pes + links + iface
    }

    /// Live programmable (FPGA/CPLD) PE instances.
    pub fn programmable_pes<'a>(
        &'a self,
        lib: &'a ResourceLibrary,
    ) -> impl Iterator<Item = (PeInstanceId, &'a PeInstance)> + 'a {
        self.pes()
            .filter(move |(_, p)| lib.pe(p.ty).is_reconfigurable())
    }

    /// The link (if any) already connecting instances `a` and `b`.
    pub fn link_between(&self, a: PeInstanceId, b: PeInstanceId) -> Option<LinkInstanceId> {
        self.links()
            .find(|(_, l)| l.attached.contains(&a) && l.attached.contains(&b))
            .map(|(id, _)| id)
    }

    /// The paper's *merge potential*: the number of programmable PEs plus
    /// links — the quantity the dynamic-reconfiguration loop drives down.
    pub fn merge_potential(&self, lib: &ResourceLibrary) -> usize {
        self.programmable_pes(lib).count() + self.link_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusade_model::{
        AsicAttrs, CpuAttrs, LinkClass, LinkType, Nanos, PeClass, PeType, PpeAttrs, PpeKind,
    };

    fn lib() -> ResourceLibrary {
        let mut lib = ResourceLibrary::new();
        lib.add_pe(PeType::new(
            "cpu",
            Dollars::new(100),
            PeClass::Cpu(CpuAttrs {
                memory_bytes: 1 << 20,
                context_switch: Nanos::from_micros(5),
                comm_ports: 2,
                comm_overlap: true,
            }),
        ));
        lib.add_pe(PeType::new(
            "fpga",
            Dollars::new(200),
            PeClass::Ppe(PpeAttrs {
                kind: PpeKind::Fpga,
                pfus: 1024,
                flip_flops: 2048,
                pins: 160,
                boot_memory_bytes: 24 * 1024,
                config_bits_per_pfu: 160,
                partial_reconfig: false,
            }),
        ));
        lib.add_pe(PeType::new(
            "asic",
            Dollars::new(400),
            PeClass::Asic(AsicAttrs {
                gates: 100_000,
                pins: 208,
            }),
        ));
        lib.add_link(LinkType::new(
            "bus",
            Dollars::new(15),
            LinkClass::Bus,
            8,
            vec![Nanos::from_nanos(100)],
            64,
            Nanos::from_nanos(400),
        ));
        lib
    }

    #[test]
    fn cost_sums_live_components() {
        let lib = lib();
        let mut arch = Architecture::new();
        arch.add_pe(PeTypeId::new(0));
        arch.add_pe(PeTypeId::new(1));
        let l = arch.add_link(LinkTypeId::new(0));
        assert_eq!(arch.cost(&lib), Dollars::new(315));
        arch.link_mut(l).retired = true;
        assert_eq!(arch.cost(&lib), Dollars::new(300));
        assert_eq!(arch.link_count(), 0);
    }

    #[test]
    fn retired_pes_excluded_everywhere() {
        let lib = lib();
        let mut arch = Architecture::new();
        let a = arch.add_pe(PeTypeId::new(1));
        let b = arch.add_pe(PeTypeId::new(1));
        assert_eq!(arch.programmable_pes(&lib).count(), 2);
        arch.pe_mut(b).retired = true;
        assert_eq!(arch.pe_count(), 1);
        assert_eq!(arch.programmable_pes(&lib).count(), 1);
        assert_eq!(arch.pes().next().unwrap().0, a);
    }

    #[test]
    fn link_between_requires_both_endpoints() {
        let mut arch = Architecture::new();
        let a = arch.add_pe(PeTypeId::new(0));
        let b = arch.add_pe(PeTypeId::new(0));
        let c = arch.add_pe(PeTypeId::new(0));
        let l = arch.add_link(LinkTypeId::new(0));
        arch.link_mut(l).attached.extend([a, b]);
        assert_eq!(arch.link_between(a, b), Some(l));
        assert_eq!(arch.link_between(a, c), None);
    }

    #[test]
    fn merge_potential_counts_ppes_and_links() {
        let lib = lib();
        let mut arch = Architecture::new();
        arch.add_pe(PeTypeId::new(0)); // CPU: not counted
        arch.add_pe(PeTypeId::new(1)); // FPGA
        arch.add_pe(PeTypeId::new(1)); // FPGA
        arch.add_link(LinkTypeId::new(0));
        assert_eq!(arch.merge_potential(&lib), 3);
    }

    #[test]
    fn new_pe_has_one_empty_mode() {
        let mut arch = Architecture::new();
        let p = arch.add_pe(PeTypeId::new(1));
        assert_eq!(arch.pe(p).modes.len(), 1);
        assert!(arch.pe(p).modes[0].clusters.is_empty());
    }
}
