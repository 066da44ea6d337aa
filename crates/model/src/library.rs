//! The resource library: PE types and link types available to synthesis.

use serde::{Deserialize, Serialize};

use crate::{LinkType, LinkTypeId, PeType, PeTypeId};

/// The catalogue of hardware the co-synthesis algorithm may instantiate.
///
/// Execution-time vectors in the specification are indexed by position in
/// this library's PE list, and communication vectors by position in its
/// link list — build the library first, then the specification against it.
///
/// # Examples
///
/// ```
/// use crusade_model::{
///     AsicAttrs, Dollars, LinkClass, LinkType, Nanos, PeClass, PeType, ResourceLibrary,
/// };
///
/// let mut lib = ResourceLibrary::new();
/// let asic = lib.add_pe(PeType::new(
///     "framer",
///     Dollars::new(250),
///     PeClass::Asic(AsicAttrs { gates: 80_000, pins: 144 }),
/// ));
/// let bus = lib.add_link(LinkType::new(
///     "bus",
///     Dollars::new(10),
///     LinkClass::Bus,
///     8,
///     vec![Nanos::from_nanos(120)],
///     64,
///     Nanos::from_nanos(900),
/// ));
/// assert_eq!(lib.pe(asic).name(), "framer");
/// assert_eq!(lib.link(bus).name(), "bus");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceLibrary {
    pes: Vec<PeType>,
    links: Vec<LinkType>,
}

impl ResourceLibrary {
    /// An empty library.
    pub fn new() -> Self {
        ResourceLibrary::default()
    }

    /// Adds a PE type and returns its id.
    pub fn add_pe(&mut self, pe: PeType) -> PeTypeId {
        let id = PeTypeId::new(self.pes.len());
        self.pes.push(pe);
        id
    }

    /// Adds a link type and returns its id.
    pub fn add_link(&mut self, link: LinkType) -> LinkTypeId {
        let id = LinkTypeId::new(self.links.len());
        self.links.push(link);
        id
    }

    /// Accesses a PE type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pe(&self, id: PeTypeId) -> &PeType {
        &self.pes[id.index()]
    }

    /// Accesses a link type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkTypeId) -> &LinkType {
        &self.links[id.index()]
    }

    /// Number of PE types.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Number of link types.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over `(id, PE type)` pairs.
    pub fn pes(&self) -> impl Iterator<Item = (PeTypeId, &PeType)> {
        self.pes
            .iter()
            .enumerate()
            .map(|(i, p)| (PeTypeId::new(i), p))
    }

    /// Iterates over `(id, link type)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkTypeId, &LinkType)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkTypeId::new(i), l))
    }

    /// All PE slices as a raw slice (used when computing communication and
    /// execution vectors in bulk).
    pub fn pe_slice(&self) -> &[PeType] {
        &self.pes
    }

    /// All link types as a raw slice.
    pub fn link_slice(&self) -> &[LinkType] {
        &self.links
    }

    /// Ids of PE types that are programmable (FPGA/CPLD).
    pub fn programmable_pes(&self) -> impl Iterator<Item = PeTypeId> + '_ {
        self.pes()
            .filter(|(_, p)| p.is_reconfigurable())
            .map(|(id, _)| id)
    }

    /// Finds a PE type by name.
    pub fn pe_by_name(&self, name: &str) -> Option<PeTypeId> {
        self.pes().find(|(_, p)| p.name() == name).map(|(id, _)| id)
    }

    /// Finds a link type by name.
    pub fn link_by_name(&self, name: &str) -> Option<LinkTypeId> {
        self.links()
            .find(|(_, l)| l.name() == name)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsicAttrs, CpuAttrs, Dollars, LinkClass, Nanos, PeClass, PpeAttrs, PpeKind};

    fn lib() -> ResourceLibrary {
        let mut lib = ResourceLibrary::new();
        lib.add_pe(PeType::new(
            "cpu",
            Dollars::new(100),
            PeClass::Cpu(CpuAttrs {
                memory_bytes: 1 << 20,
                context_switch: Nanos::from_micros(10),
                comm_ports: 2,
                comm_overlap: true,
            }),
        ));
        lib.add_pe(PeType::new(
            "asic",
            Dollars::new(300),
            PeClass::Asic(AsicAttrs {
                gates: 50_000,
                pins: 100,
            }),
        ));
        lib.add_pe(PeType::new(
            "fpga",
            Dollars::new(150),
            PeClass::Ppe(PpeAttrs {
                kind: PpeKind::Fpga,
                pfus: 1024,
                flip_flops: 2048,
                pins: 160,
                boot_memory_bytes: 32 * 1024,
                config_bits_per_pfu: 160,
                partial_reconfig: false,
            }),
        ));
        lib.add_link(LinkType::new(
            "bus",
            Dollars::new(10),
            LinkClass::Bus,
            8,
            vec![Nanos::from_nanos(100)],
            64,
            Nanos::from_nanos(500),
        ));
        lib
    }

    #[test]
    fn lookup_by_name_and_id() {
        let lib = lib();
        assert_eq!(lib.pe_count(), 3);
        assert_eq!(lib.link_count(), 1);
        let fpga = lib.pe_by_name("fpga").unwrap();
        assert!(lib.pe(fpga).is_reconfigurable());
        assert!(lib.pe_by_name("nope").is_none());
        assert!(lib.link_by_name("bus").is_some());
    }

    #[test]
    fn programmable_filter() {
        let lib = lib();
        let ppes: Vec<_> = lib.programmable_pes().collect();
        assert_eq!(ppes, vec![PeTypeId::new(2)]);
    }
}
