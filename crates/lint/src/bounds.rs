//! Feasibility primitives of the lint analyses.
//!
//! Everything here computes *necessary* conditions: a task/type pair
//! rejected by these bounds is provably rejected by the allocator too
//! (the allocator's dynamic checks are at least as strict).

use crusade_model::{
    EdgeId, Nanos, PeClass, PeType, PeTypeId, ResourceLibrary, Task, TaskGraph, TaskId,
};
use crusade_sched::{estimate_finish_times, latest_finish_times};

use crate::LintOptions;

/// Whether a *single* task fits on a fresh instance of `ty` under the
/// ERUF/EPUF capacity caps — the same formulas the allocator applies to
/// whole clusters, evaluated for the one-task lower bound. A task that
/// fails this can never be hosted on `ty`: clusters only add demand and
/// existing instances only have less free capacity.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // deliberate f64 capacity scaling, mirrors crusade-core
pub fn solo_capacity_fits(ty: &PeType, task: &Task, options: &LintOptions) -> bool {
    match ty.class() {
        PeClass::Cpu(attrs) => task.memory.total() <= attrs.memory_bytes,
        PeClass::Asic(attrs) => {
            task.hw.gates <= attrs.gates
                && task.hw.pins <= (attrs.pins as f64 * options.epuf) as u32
        }
        PeClass::Ppe(attrs) => {
            task.hw.pfus <= (attrs.pfus as f64 * options.eruf) as u32
                && task.hw.flip_flops <= attrs.flip_flops
                && task.hw.pins <= (attrs.pins as f64 * options.epuf) as u32
        }
    }
}

/// The capacity-aware feasible-PE set of a task: the execution vector
/// defines a time, the preference vector allows the type, and the task
/// alone fits the type's capacity.
pub fn feasible_pe_types(
    lib: &ResourceLibrary,
    task: &Task,
    options: &LintOptions,
) -> Vec<PeTypeId> {
    lib.pes()
        .filter(|(id, ty)| {
            task.exec.on(*id).is_some()
                && task.preference.allows(*id)
                && solo_capacity_fits(ty, task, options)
        })
        .map(|(id, _)| id)
        .collect()
}

/// The cheapest transfer any library link can achieve for `bytes`: the
/// smallest advertised medium-access time plus the packetised payload.
/// `None` when the library has no links at all.
pub fn best_link_transfer(lib: &ResourceLibrary, bytes: u64) -> Option<Nanos> {
    lib.links()
        .map(|(_, l)| {
            let packets = bytes.div_ceil(l.bytes_per_packet() as u64).max(1);
            let access = (2..=l.max_ports())
                .map(|p| l.access_time(p))
                .min()
                .unwrap_or(Nanos::ZERO);
            access.saturating_add(
                l.packet_tx_time()
                    .checked_mul(packets)
                    .unwrap_or(Nanos::MAX),
            )
        })
        .min()
}

/// Best-case timing bounds of one task graph, computed with the fastest
/// feasible execution time of every task and a per-edge communication
/// lower bound.
#[derive(Debug, Clone)]
pub struct TimingBounds {
    /// Lower bound on each task's start instant under any schedule.
    pub earliest_start: Vec<Nanos>,
    /// Lower bound on each task's finish instant under any schedule.
    pub earliest_finish: Vec<Nanos>,
    /// Loose upper bound on each task's admissible finish instant: the
    /// backward pass run with *best-case* downstream requirements.
    /// `Nanos::MAX` when no deadline constrains the task.
    pub latest_finish: Vec<Nanos>,
}

impl TimingBounds {
    /// Computes the bounds. `fastest(t)` must be a lower bound on the
    /// task's execution time on any PE it can be placed on, and
    /// `comm_lb(e)` a lower bound on the edge's communication time under
    /// any placement (zero when co-placement is possible).
    pub fn compute<F, C>(graph: &TaskGraph, fastest: F, comm_lb: C) -> Self
    where
        F: Fn(TaskId) -> Nanos + Copy,
        C: Fn(EdgeId) -> Nanos + Copy,
    {
        let earliest_finish = estimate_finish_times(graph, |_| None, fastest, |_| None, comm_lb);
        let earliest_start = earliest_finish
            .iter()
            .enumerate()
            .map(|(i, &f)| f.saturating_sub(fastest(TaskId::new(i))))
            .collect();
        let latest_finish = latest_finish_times(graph, fastest, comm_lb);
        TimingBounds {
            earliest_start,
            earliest_finish,
            latest_finish,
        }
    }

    /// Whether executing `task` for `exec_on` nanoseconds on some PE type
    /// is *timing-dead*: the earliest possible start plus that execution
    /// time overshoots even the loosest admissible finish, so every
    /// placement attempt on that type must fail.
    pub fn timing_dead(&self, task: TaskId, exec_on: Nanos) -> bool {
        let lf = self.latest_finish[task.index()];
        if lf == Nanos::MAX {
            return false;
        }
        match self.earliest_start[task.index()].checked_add(exec_on) {
            Some(finish) => finish > lf,
            None => true,
        }
    }
}

/// A sound lower bound on the number of bins of capacity `cap` needed to
/// pack `items`: the volume bound `ceil(Σ/cap)` combined with the count
/// of items larger than half a bin (no two of which can share).
pub fn bin_lower_bound(items: &[u64], cap: u64) -> u64 {
    if cap == 0 {
        return if items.iter().any(|&i| i > 0) {
            u64::MAX
        } else {
            0
        };
    }
    let total: u128 = items.iter().map(|&i| u128::from(i)).sum();
    let volume = u64::try_from(total.div_ceil(u128::from(cap))).unwrap_or(u64::MAX);
    let big = items
        .iter()
        .filter(|&&i| 2 * u128::from(i) > u128::from(cap))
        .count() as u64;
    volume.max(big)
}

/// First-fit-decreasing packing of `items` into bins of capacity `cap`:
/// an *achievable* bin count (upper bound on the optimum), reported next
/// to [`bin_lower_bound`] to bracket the true requirement. Items that do
/// not fit a bin at all each get their own (the caller flags them as
/// errors separately).
pub fn ffd_bins(items: &[u64], cap: u64) -> u64 {
    let mut sorted: Vec<u64> = items.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut bins: Vec<u64> = Vec::new();
    for item in sorted {
        match bins.iter_mut().find(|free| **free >= item) {
            Some(free) => *free -= item,
            None => bins.push(cap.saturating_sub(item)),
        }
    }
    bins.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_bounds_bracket() {
        // Six items of 60 into bins of 100: volume bound ceil(360/100)=4,
        // half-bin bound 6 (60 > 50). FFD packs one per bin.
        let items = [60u64; 6];
        assert_eq!(bin_lower_bound(&items, 100), 6);
        assert_eq!(ffd_bins(&items, 100), 6);
        // Mixed sizes: {70, 30, 30, 30} in 100 → volume 2, half-bin 1, ffd 2.
        let items = [70u64, 30, 30, 30];
        assert_eq!(bin_lower_bound(&items, 100), 2);
        assert_eq!(ffd_bins(&items, 100), 2);
        assert!(bin_lower_bound(&items, 100) <= ffd_bins(&items, 100));
    }

    #[test]
    fn zero_capacity_degenerates() {
        assert_eq!(bin_lower_bound(&[1], 0), u64::MAX);
        assert_eq!(bin_lower_bound(&[0, 0], 0), 0);
    }
}
