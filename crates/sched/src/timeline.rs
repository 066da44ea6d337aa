//! Per-resource occupancy timelines.
//!
//! A [`Timeline`] records the periodic busy intervals claimed on one
//! resource (a PE mode's execution slots, or a link's transfer slots) and
//! answers first-fit placement queries: *what is the earliest start ≥ ready
//! time at which a new periodic interval fits?*

use serde::{Deserialize, Serialize};

use crusade_model::Nanos;

use crate::periodic::PeriodicInterval;
use crate::Occupant;

/// One placed occupancy on a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placed {
    /// Who owns the slot.
    pub occupant: Occupant,
    /// The periodic busy interval claimed.
    pub interval: PeriodicInterval,
}

/// The occupancy timeline of a single resource.
///
/// # Examples
///
/// ```
/// use crusade_model::{GlobalTaskId, GraphId, Nanos, TaskId};
/// use crusade_sched::{Occupant, Timeline};
///
/// let mut tl = Timeline::new();
/// let p = Nanos::from_nanos(100);
/// let t0 = Occupant::Task(GlobalTaskId::new(GraphId::new(0), TaskId::new(0)));
/// let t1 = Occupant::Task(GlobalTaskId::new(GraphId::new(0), TaskId::new(1)));
/// // First task takes [0, 40).
/// let s0 = tl.place(t0, Nanos::ZERO, Nanos::from_nanos(40), p, Nanos::MAX).unwrap();
/// assert_eq!(s0, Nanos::ZERO);
/// // Second wants to start at 10 but must wait for the first to finish.
/// let s1 = tl.place(t1, Nanos::from_nanos(10), Nanos::from_nanos(25), p, Nanos::MAX).unwrap();
/// assert_eq!(s1, Nanos::from_nanos(40));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    placed: Vec<Placed>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Number of placed occupancies.
    pub fn len(&self) -> usize {
        self.placed.len()
    }

    /// `true` when nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.placed.is_empty()
    }

    /// Iterates over placed occupancies.
    pub fn iter(&self) -> impl Iterator<Item = &Placed> {
        self.placed.iter()
    }

    /// Finds the earliest start `t ≥ ready` such that a periodic interval
    /// of the given duration and period collides with nothing already
    /// placed, places it, and returns `t`.
    ///
    /// Returns `None` when no start `≤ limit` exists (either because the
    /// timeline is congested up to the limit or because the new interval's
    /// duration is fundamentally incompatible with an existing occupant's
    /// period pattern).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero or exceeds `period`.
    pub fn place(
        &mut self,
        occupant: Occupant,
        ready: Nanos,
        duration: Nanos,
        period: Nanos,
        limit: Nanos,
    ) -> Option<Nanos> {
        let start = self.find_slot(ready, duration, period, limit)?;
        self.placed.push(Placed {
            occupant,
            interval: PeriodicInterval::new(start, duration, period),
        });
        Some(start)
    }

    /// Like [`place`](Self::place) but without mutating the timeline:
    /// returns the start that *would* be chosen.
    pub fn find_slot(
        &self,
        ready: Nanos,
        duration: Nanos,
        period: Nanos,
        limit: Nanos,
    ) -> Option<Nanos> {
        let mut t = ready;
        // Each loop iteration either returns or advances `t` strictly past
        // at least one occupant's blocking window; bound the number of
        // passes to keep worst-case behaviour predictable.
        let max_passes = 4 * self.placed.len() + 8;
        for _ in 0..max_passes {
            let probe = PeriodicInterval::new(t, duration, period);
            match self.placed.iter().find(|p| probe.collides(&p.interval)) {
                None => return if t <= limit { Some(t) } else { None },
                Some(blocker) => {
                    t = probe.earliest_clear(&blocker.interval, t)?;
                    if t > limit {
                        return None;
                    }
                }
            }
        }
        None
    }

    /// Records an occupancy *without* collision checking.
    ///
    /// Hardware PEs (ASICs, FPGAs) execute their resident tasks spatially
    /// in parallel — each task owns its own circuit area — so their
    /// windows may overlap freely; the timeline then serves only as the
    /// record of execution windows (for finish-time estimation and for
    /// reconfiguration-envelope analysis), not as a contention model.
    pub fn record(&mut self, occupant: Occupant, interval: PeriodicInterval) {
        self.placed.push(Placed { occupant, interval });
    }

    /// Removes `occupant`'s occupancy and returns it with its position,
    /// keeping the order of the rest; [`restore`](Self::restore) puts it
    /// back exactly. The search runs from the newest placement, so lifting
    /// the latest one costs O(1).
    pub fn take(&mut self, occupant: Occupant) -> Option<(usize, Placed)> {
        let position = self.placed.iter().rposition(|p| p.occupant == occupant)?;
        Some((position, self.placed.remove(position)))
    }

    /// Reinserts an occupancy lifted by [`take`](Self::take) at its old
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if `position` is past the end of the timeline.
    pub fn restore(&mut self, position: usize, placed: Placed) {
        self.placed.insert(position, placed);
    }

    /// The fraction of one hyperperiod this timeline is busy, given the
    /// hyperperiod; diagnostic for load reporting.
    pub fn utilisation(&self, hyperperiod: Nanos) -> f64 {
        if hyperperiod.is_zero() {
            return 0.0;
        }
        let busy: u128 = self
            .placed
            .iter()
            .map(|p| {
                let copies = hyperperiod.as_nanos() / p.interval.period().as_nanos();
                p.interval.duration().as_nanos() as u128 * copies as u128
            })
            .sum();
        busy as f64 / hyperperiod.as_nanos() as f64
    }

    /// Looks up the placement for `occupant`, if present.
    pub fn placement(&self, occupant: Occupant) -> Option<&Placed> {
        self.placed.iter().find(|p| p.occupant == occupant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusade_model::{GlobalTaskId, GraphId, TaskId};

    fn occ(i: usize) -> Occupant {
        Occupant::Task(GlobalTaskId::new(GraphId::new(0), TaskId::new(i)))
    }

    fn ns(v: u64) -> Nanos {
        Nanos::from_nanos(v)
    }

    #[test]
    fn sequential_fill_same_period() {
        let mut tl = Timeline::new();
        let p = ns(100);
        assert_eq!(tl.place(occ(0), ns(0), ns(30), p, Nanos::MAX), Some(ns(0)));
        assert_eq!(tl.place(occ(1), ns(0), ns(30), p, Nanos::MAX), Some(ns(30)));
        assert_eq!(tl.place(occ(2), ns(0), ns(30), p, Nanos::MAX), Some(ns(60)));
        // Only 10 left in each period: a 20 cannot fit anywhere, ever.
        assert_eq!(tl.place(occ(3), ns(0), ns(20), p, Nanos::MAX), None);
        // But a 10 fits exactly.
        assert_eq!(tl.place(occ(4), ns(0), ns(10), p, Nanos::MAX), Some(ns(90)));
        assert!((tl.utilisation(p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_period_placement() {
        let mut tl = Timeline::new();
        // A task every 50 at [0, 10).
        tl.place(occ(0), ns(0), ns(10), ns(50), Nanos::MAX).unwrap();
        // A 100-period task of 35 must avoid [0,10) and [50,60): fits at 10.
        let s = tl
            .place(occ(1), ns(0), ns(35), ns(100), Nanos::MAX)
            .unwrap();
        assert_eq!(s, ns(10));
        // Another 100-period task of 35: [10,45) taken, [60,95) free.
        let s2 = tl
            .place(occ(2), ns(0), ns(35), ns(100), Nanos::MAX)
            .unwrap();
        assert_eq!(s2, ns(60));
    }

    #[test]
    fn limit_respected() {
        let mut tl = Timeline::new();
        tl.place(occ(0), ns(0), ns(50), ns(100), Nanos::MAX)
            .unwrap();
        // Next slot would start at 50, beyond the limit of 20.
        assert_eq!(tl.place(occ(1), ns(0), ns(20), ns(100), ns(20)), None);
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn remove_frees_capacity() {
        let mut tl = Timeline::new();
        tl.place(occ(0), ns(0), ns(60), ns(100), Nanos::MAX)
            .unwrap();
        assert_eq!(tl.place(occ(1), ns(0), ns(60), ns(100), Nanos::MAX), None);
        assert!(tl.take(occ(0)).is_some());
        assert_eq!(
            tl.place(occ(1), ns(0), ns(60), ns(100), Nanos::MAX),
            Some(ns(0))
        );
        assert_eq!(tl.take(occ(9)), None);
    }

    #[test]
    fn take_then_restore_keeps_order() {
        let mut original = Timeline::new();
        for i in 0..3 {
            original.record(occ(i), PeriodicInterval::new(ns(0), ns(10), ns(100)));
        }
        for i in 0..3 {
            let mut tl = original.clone();
            let (position, placed) = tl.take(occ(i)).unwrap();
            assert_eq!(position, i);
            assert_eq!(tl.len(), 2);
            tl.restore(position, placed);
            assert_eq!(tl, original, "after taking occ({i})");
        }
    }

    #[test]
    fn ready_time_honoured() {
        let mut tl = Timeline::new();
        let s = tl
            .place(occ(0), ns(17), ns(10), ns(100), Nanos::MAX)
            .unwrap();
        assert_eq!(s, ns(17));
    }

    #[test]
    fn find_slot_does_not_mutate() {
        let tl = {
            let mut tl = Timeline::new();
            tl.place(occ(0), ns(0), ns(10), ns(100), Nanos::MAX)
                .unwrap();
            tl
        };
        let a = tl.find_slot(ns(0), ns(5), ns(100), Nanos::MAX);
        let b = tl.find_slot(ns(0), ns(5), ns(100), Nanos::MAX);
        assert_eq!(a, b);
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn utilisation_counts_all_copies() {
        let mut tl = Timeline::new();
        tl.place(occ(0), ns(0), ns(10), ns(50), Nanos::MAX).unwrap(); // 2 copies in 100
        tl.place(occ(1), ns(20), ns(10), ns(100), Nanos::MAX)
            .unwrap();
        assert!((tl.utilisation(ns(100)) - 0.3).abs() < 1e-12);
    }
}
