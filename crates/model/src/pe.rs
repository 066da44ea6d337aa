//! Processing-element types of the resource library.
//!
//! The PE library consists of general-purpose processors (CPUs),
//! application-specific integrated circuits (ASICs), and programmable PEs
//! (PPEs: FPGAs and CPLDs). Each class carries the attributes Section 2.2
//! of the paper lists — capacity figures for allocation, timing figures for
//! scheduling, and a dollar cost for the objective function.

use serde::{Deserialize, Serialize};

use crate::{Dollars, Nanos};

/// Which family a programmable device belongs to.
///
/// The distinction matters for reconfiguration-controller synthesis: CPLDs
/// are programmed through their boundary-scan test port, while FPGAs offer
/// serial or 8-bit-parallel programming modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PpeKind {
    /// Field-programmable gate array (e.g. XILINX 6200, ATMEL AT6000, ORCA).
    Fpga,
    /// Complex programmable logic device (e.g. XILINX XC9500).
    Cpld,
}

/// Attributes of a general-purpose processor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CpuAttrs {
    /// Total memory capacity available to tasks, in bytes (the paper
    /// evaluates DRAM banks of up to 64 MB per processor).
    pub memory_bytes: u64,
    /// Context-switch time charged when the scheduler preempts a task.
    pub context_switch: Nanos,
    /// Number of communication ports the processor (or its communication
    /// coprocessor) exposes towards links.
    pub comm_ports: u32,
    /// Whether computation can overlap communication (dedicated
    /// communication processor present).
    pub comm_overlap: bool,
}

/// Attributes of an ASIC.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AsicAttrs {
    /// Usable gate count.
    pub gates: u64,
    /// Package pin count available for task I/O.
    pub pins: u32,
}

/// Attributes of a programmable PE (FPGA or CPLD).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PpeAttrs {
    /// FPGA or CPLD.
    pub kind: PpeKind,
    /// Number of programmable functional units (CLBs/PFUs).
    pub pfus: u32,
    /// Number of flip-flops.
    pub flip_flops: u32,
    /// Package pin count available for task I/O.
    pub pins: u32,
    /// Boot (configuration) memory required to hold one full configuration
    /// image, in bytes.
    pub boot_memory_bytes: u64,
    /// Configuration stream length per PFU, in bits; total configuration
    /// bits for a full reconfiguration are `pfus * config_bits_per_pfu`.
    pub config_bits_per_pfu: u32,
    /// Whether the device supports *partial* reconfiguration (e.g. XILINX
    /// XC6200, ATMEL AT6000). Partially reconfigurable devices reprogram
    /// only the PFUs that differ between modes.
    pub partial_reconfig: bool,
}

impl PpeAttrs {
    /// Total configuration bits for a full-device reconfiguration.
    pub fn full_config_bits(&self) -> u64 {
        self.pfus as u64 * self.config_bits_per_pfu as u64
    }
}

/// Class-specific attributes of a PE type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PeClass {
    /// General-purpose processor.
    Cpu(CpuAttrs),
    /// Application-specific integrated circuit.
    Asic(AsicAttrs),
    /// Programmable PE (FPGA/CPLD) — the only class that supports dynamic
    /// reconfiguration.
    Ppe(PpeAttrs),
}

/// One entry of the PE library.
///
/// # Examples
///
/// ```
/// use crusade_model::{CpuAttrs, Dollars, Nanos, PeClass, PeType};
///
/// let cpu = PeType::new(
///     "MC68360",
///     Dollars::new(95),
///     PeClass::Cpu(CpuAttrs {
///         memory_bytes: 16 << 20,
///         context_switch: Nanos::from_micros(8),
///         comm_ports: 2,
///         comm_overlap: true,
///     }),
/// );
/// assert!(cpu.is_cpu());
/// assert!(!cpu.is_reconfigurable());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeType {
    name: String,
    cost: Dollars,
    class: PeClass,
}

impl PeType {
    /// Creates a PE type.
    pub fn new(name: impl Into<String>, cost: Dollars, class: PeClass) -> Self {
        PeType {
            name: name.into(),
            cost,
            class,
        }
    }

    /// Human-readable part name (e.g. `"XC4025"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unit dollar cost of one instance.
    pub fn cost(&self) -> Dollars {
        self.cost
    }

    /// Class-specific attributes.
    pub fn class(&self) -> &PeClass {
        &self.class
    }

    /// `true` for general-purpose processors.
    pub fn is_cpu(&self) -> bool {
        matches!(self.class, PeClass::Cpu(_))
    }

    /// `true` for ASICs.
    pub fn is_asic(&self) -> bool {
        matches!(self.class, PeClass::Asic(_))
    }

    /// `true` for programmable PEs (FPGA/CPLD), i.e. candidates for dynamic
    /// reconfiguration.
    pub fn is_reconfigurable(&self) -> bool {
        matches!(self.class, PeClass::Ppe(_))
    }

    /// The CPU attributes, if this is a CPU.
    pub fn as_cpu(&self) -> Option<&CpuAttrs> {
        match &self.class {
            PeClass::Cpu(a) => Some(a),
            _ => None,
        }
    }

    /// The ASIC attributes, if this is an ASIC.
    pub fn as_asic(&self) -> Option<&AsicAttrs> {
        match &self.class {
            PeClass::Asic(a) => Some(a),
            _ => None,
        }
    }

    /// The programmable-PE attributes, if this is an FPGA/CPLD.
    pub fn as_ppe(&self) -> Option<&PpeAttrs> {
        match &self.class {
            PeClass::Ppe(a) => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ppe() -> PeType {
        PeType::new(
            "XC6216",
            Dollars::new(180),
            PeClass::Ppe(PpeAttrs {
                kind: PpeKind::Fpga,
                pfus: 4096,
                flip_flops: 4096,
                pins: 299,
                boot_memory_bytes: 96 * 1024,
                config_bits_per_pfu: 192,
                partial_reconfig: true,
            }),
        )
    }

    #[test]
    fn classification_predicates() {
        let ppe = sample_ppe();
        assert!(ppe.is_reconfigurable());
        assert!(!ppe.is_cpu());
        assert!(!ppe.is_asic());
        assert!(ppe.as_ppe().is_some());
        assert!(ppe.as_cpu().is_none());
        assert_eq!(ppe.name(), "XC6216");
        assert_eq!(ppe.cost(), Dollars::new(180));
    }

    #[test]
    fn full_config_bits_scale_with_pfus() {
        let attrs = sample_ppe().as_ppe().unwrap().clone();
        assert_eq!(attrs.full_config_bits(), 4096 * 192);
    }

    #[test]
    fn asic_attributes_accessible() {
        let asic = PeType::new(
            "sonet-framer",
            Dollars::new(400),
            PeClass::Asic(AsicAttrs {
                gates: 120_000,
                pins: 208,
            }),
        );
        assert!(asic.is_asic());
        assert_eq!(asic.as_asic().unwrap().gates, 120_000);
    }
}
