//! Per-task characterisation vectors.
//!
//! Section 2.2 of the paper characterises each task by an *execution time
//! vector* (worst-case execution time on every PE type), a *preference
//! vector* (PE types with special resources the task should or must use), an
//! *exclusion vector* (tasks that may not share a PE with this one), and a
//! *memory vector* (program/data/stack storage on general-purpose
//! processors). Hardware-mapped tasks additionally consume gate/PFU/pin area
//! on ASICs and programmable devices, captured by [`HwDemand`].

use serde::{Deserialize, Serialize};

use crate::{Nanos, PeTypeId, TaskId};

/// Worst-case execution time of a task on each PE type in the library.
///
/// An entry of `None` means the task cannot be mapped to that PE type at
/// all (no implementation exists for it).
///
/// # Examples
///
/// ```
/// use crusade_model::{ExecutionTimes, Nanos, PeTypeId};
///
/// let v = ExecutionTimes::from_entries(3, [
///     (PeTypeId::new(0), Nanos::from_micros(40)),
///     (PeTypeId::new(2), Nanos::from_micros(5)),
/// ]);
/// assert_eq!(v.on(PeTypeId::new(0)), Some(Nanos::from_micros(40)));
/// assert_eq!(v.on(PeTypeId::new(1)), None);
/// assert_eq!(v.fastest(), Some(Nanos::from_micros(5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExecutionTimes {
    entries: Vec<Option<Nanos>>,
}

impl ExecutionTimes {
    /// A vector with no mappable PE types (useful as a builder seed).
    pub fn unmapped(pe_type_count: usize) -> Self {
        ExecutionTimes {
            entries: vec![None; pe_type_count],
        }
    }

    /// The same execution time on every PE type.
    pub fn uniform(pe_type_count: usize, time: Nanos) -> Self {
        ExecutionTimes {
            entries: vec![Some(time); pe_type_count],
        }
    }

    /// Builds a vector from `(PE type, time)` pairs; all other types are
    /// unmappable.
    ///
    /// # Panics
    ///
    /// Panics if a pair references a PE type index `>= pe_type_count`.
    pub fn from_entries<I>(pe_type_count: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (PeTypeId, Nanos)>,
    {
        let mut v = Self::unmapped(pe_type_count);
        for (pe, t) in pairs {
            v.set(pe, t);
        }
        v
    }

    /// Sets the execution time on one PE type.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range for this vector.
    pub fn set(&mut self, pe: PeTypeId, time: Nanos) {
        self.entries[pe.index()] = Some(time);
    }

    /// The worst-case execution time on `pe`, or `None` if unmappable.
    #[inline]
    pub fn on(&self, pe: PeTypeId) -> Option<Nanos> {
        self.entries.get(pe.index()).copied().flatten()
    }

    /// Number of PE types this vector covers.
    #[inline]
    pub fn pe_type_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over the mappable `(PE type, time)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PeTypeId, Nanos)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (PeTypeId::new(i), t)))
    }

    /// The fastest execution time across all mappable PE types.
    pub fn fastest(&self) -> Option<Nanos> {
        self.entries.iter().flatten().copied().min()
    }

    /// The slowest (maximum) execution time across all mappable PE types.
    ///
    /// Used when computing initial priority levels, before any allocation is
    /// known (the paper sums *maximum* execution and communication times
    /// along the longest path).
    pub fn slowest(&self) -> Option<Nanos> {
        self.entries.iter().flatten().copied().max()
    }

    /// `true` if the task can be mapped to at least one PE type.
    pub fn is_mappable(&self) -> bool {
        self.entries.iter().any(Option::is_some)
    }
}

/// Preferential mapping of a task onto PE types.
///
/// `Any` places no restriction beyond the execution-time vector; `Only`
/// restricts the task to the listed PE types (which model "PEs with special
/// resources for the task", e.g. a DSP block or a line interface).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Preference {
    /// No preference: any PE type with a defined execution time is allowed.
    #[default]
    Any,
    /// Only the listed PE types may host this task.
    Only(Vec<PeTypeId>),
}

impl Preference {
    /// Whether mapping the task to `pe` is permitted by this preference.
    ///
    /// ```
    /// use crusade_model::{PeTypeId, Preference};
    ///
    /// let p = Preference::Only(vec![PeTypeId::new(1)]);
    /// assert!(p.allows(PeTypeId::new(1)));
    /// assert!(!p.allows(PeTypeId::new(0)));
    /// assert!(Preference::Any.allows(PeTypeId::new(0)));
    /// ```
    pub fn allows(&self, pe: PeTypeId) -> bool {
        match self {
            Preference::Any => true,
            Preference::Only(list) => list.contains(&pe),
        }
    }
}

/// Tasks (within the same graph) that may not share a PE with this task.
///
/// The paper uses exclusion vectors to keep pairs of tasks that would create
/// processing bottlenecks off the same processing element; CRUSADE-FT also
/// uses them to force a duplicate task onto different hardware than its
/// original.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Exclusions {
    peers: Vec<TaskId>,
}

impl Exclusions {
    /// No exclusions.
    pub fn none() -> Self {
        Exclusions::default()
    }

    /// Builds an exclusion set from task ids.
    pub fn from_tasks<I: IntoIterator<Item = TaskId>>(tasks: I) -> Self {
        let mut peers: Vec<TaskId> = tasks.into_iter().collect();
        peers.sort_unstable();
        peers.dedup();
        Exclusions { peers }
    }

    /// Adds a task to the exclusion set.
    pub fn add(&mut self, task: TaskId) {
        if let Err(pos) = self.peers.binary_search(&task) {
            self.peers.insert(pos, task);
        }
    }

    /// Whether `task` is excluded from sharing a PE with the owner.
    pub fn excludes(&self, task: TaskId) -> bool {
        self.peers.binary_search(&task).is_ok()
    }

    /// Iterates over the excluded peers.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.peers.iter().copied()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }
}

/// Storage requirements of a task on a general-purpose processor, in bytes.
///
/// The co-synthesis allocation step verifies that the sum of the memory
/// vectors of all tasks placed on a CPU does not exceed that CPU's memory
/// capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryVector {
    /// Program (text) storage.
    pub program: u64,
    /// Data storage.
    pub data: u64,
    /// Stack storage.
    pub stack: u64,
}

impl MemoryVector {
    /// A zero memory requirement (typical for hardware-only tasks).
    pub const ZERO: MemoryVector = MemoryVector {
        program: 0,
        data: 0,
        stack: 0,
    };

    /// Creates a memory vector from its three components.
    pub const fn new(program: u64, data: u64, stack: u64) -> Self {
        MemoryVector {
            program,
            data,
            stack,
        }
    }

    /// Total bytes across program, data and stack storage.
    ///
    /// ```
    /// # use crusade_model::MemoryVector;
    /// assert_eq!(MemoryVector::new(100, 20, 8).total(), 128);
    /// ```
    pub const fn total(&self) -> u64 {
        self.program + self.data + self.stack
    }
}

impl std::ops::Add for MemoryVector {
    type Output = MemoryVector;
    fn add(self, rhs: MemoryVector) -> MemoryVector {
        MemoryVector {
            program: self.program + rhs.program,
            data: self.data + rhs.data,
            stack: self.stack + rhs.stack,
        }
    }
}

/// Hardware area a task consumes when mapped to an ASIC or programmable
/// device.
///
/// For programmable PEs the `pfus` and `pins` figures are checked against
/// the device capacity scaled by the effective resource/pin utilisation
/// factors (ERUF/EPUF) during delay management; for ASICs the `gates`
/// figure is checked against the raw gate count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HwDemand {
    /// Equivalent gates consumed on an ASIC.
    pub gates: u64,
    /// Programmable functional units (CLBs/PFUs) consumed on an FPGA/CPLD.
    pub pfus: u32,
    /// Flip-flops consumed on an FPGA/CPLD.
    pub flip_flops: u32,
    /// I/O pins consumed on any hardware PE.
    pub pins: u32,
}

impl HwDemand {
    /// No hardware demand (software-only task).
    pub const ZERO: HwDemand = HwDemand {
        gates: 0,
        pfus: 0,
        flip_flops: 0,
        pins: 0,
    };

    /// Creates a hardware demand from gates, PFUs, flip-flops and pins.
    pub const fn new(gates: u64, pfus: u32, flip_flops: u32, pins: u32) -> Self {
        HwDemand {
            gates,
            pfus,
            flip_flops,
            pins,
        }
    }
}

impl std::ops::Add for HwDemand {
    type Output = HwDemand;
    fn add(self, rhs: HwDemand) -> HwDemand {
        HwDemand {
            gates: self.gates + rhs.gates,
            pfus: self.pfus + rhs.pfus,
            flip_flops: self.flip_flops + rhs.flip_flops,
            pins: self.pins + rhs.pins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_times_min_max() {
        let v = ExecutionTimes::from_entries(
            4,
            [
                (PeTypeId::new(0), Nanos::from_nanos(100)),
                (PeTypeId::new(3), Nanos::from_nanos(10)),
            ],
        );
        assert_eq!(v.fastest(), Some(Nanos::from_nanos(10)));
        assert_eq!(v.slowest(), Some(Nanos::from_nanos(100)));
        assert!(v.is_mappable());
        assert_eq!(v.iter().count(), 2);
    }

    #[test]
    fn unmapped_vector_is_not_mappable() {
        let v = ExecutionTimes::unmapped(2);
        assert!(!v.is_mappable());
        assert_eq!(v.fastest(), None);
        assert_eq!(v.on(PeTypeId::new(5)), None); // out of range is None, not panic
    }

    #[test]
    fn uniform_vector_covers_all_types() {
        let v = ExecutionTimes::uniform(3, Nanos::from_nanos(7));
        assert_eq!(v.iter().count(), 3);
        assert_eq!(v.fastest(), v.slowest());
    }

    #[test]
    fn exclusions_dedupe_and_sort() {
        let mut e = Exclusions::from_tasks([TaskId::new(5), TaskId::new(1), TaskId::new(5)]);
        assert_eq!(
            e.iter().collect::<Vec<_>>(),
            vec![TaskId::new(1), TaskId::new(5)]
        );
        e.add(TaskId::new(3));
        e.add(TaskId::new(3));
        assert!(e.excludes(TaskId::new(3)));
        assert!(!e.excludes(TaskId::new(2)));
        assert_eq!(e.iter().count(), 3);
    }

    #[test]
    fn memory_vector_totals_and_adds() {
        let a = MemoryVector::new(10, 20, 30);
        let b = MemoryVector::new(1, 2, 3);
        assert_eq!((a + b).total(), 66);
        assert_eq!(MemoryVector::ZERO.total(), 0);
    }

    #[test]
    fn hw_demand_adds_componentwise() {
        let a = HwDemand::new(1000, 4, 8, 3);
        let b = HwDemand::new(500, 2, 4, 1);
        let c = a + b;
        assert_eq!(c.gates, 1500);
        assert_eq!(c.pfus, 6);
        assert_eq!(c.flip_flops, 12);
        assert_eq!(c.pins, 4);
    }
}
