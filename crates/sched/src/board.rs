//! The schedule board: all resource timelines of a candidate architecture.
//!
//! Co-synthesis builds the schedule *incrementally*: each time the inner
//! loop tries an allocation, the new cluster's tasks and edges are placed
//! on the board; if the allocation is rejected the placements are removed
//! again. The board maps opaque resource ids (assigned by the architecture
//! model in `crusade-core`) to [`Timeline`]s and keeps a reverse index from
//! occupant to placement for O(1) window lookups.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crusade_model::Nanos;
use crusade_obs::{Event, ObserverHandle};

use crate::{Occupant, PeriodicInterval, Placed, Timeline, Window};

/// Identifies one schedulable resource (a PE mode's execution engine or a
/// link) on a [`ScheduleBoard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ResourceId(u32);

impl ResourceId {
    /// Creates a resource id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` — far beyond any realisable
    /// board.
    pub const fn new(index: usize) -> Self {
        assert!(
            index <= u32::MAX as usize,
            "resource index exceeds u32::MAX"
        );
        #[allow(clippy::cast_possible_truncation)] // asserted above
        ResourceId(index as u32)
    }

    /// Raw index into the board's timeline list.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ResourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A placement lifted off a [`ScheduleBoard`] by
/// [`take`](ScheduleBoard::take): the occupancy and where it sat, so that
/// [`restore`](ScheduleBoard::restore) can put it back exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Taken {
    resource: ResourceId,
    position: usize,
    placed: Placed,
}

/// All timelines of a candidate architecture plus the occupant index.
///
/// # Examples
///
/// ```
/// use crusade_model::{GlobalTaskId, GraphId, Nanos, TaskId};
/// use crusade_sched::{Occupant, ScheduleBoard};
///
/// let mut board = ScheduleBoard::new();
/// let cpu = board.add_resource();
/// let t = Occupant::Task(GlobalTaskId::new(GraphId::new(0), TaskId::new(0)));
/// let start = board
///     .place(cpu, t, Nanos::ZERO, Nanos::from_micros(10), Nanos::from_micros(100), Nanos::MAX)
///     .unwrap();
/// assert_eq!(start, Nanos::ZERO);
/// assert_eq!(board.window(t).unwrap().finish, Nanos::from_micros(10));
/// assert_eq!(board.resource_of(t), Some(cpu));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScheduleBoard {
    timelines: Vec<Timeline>,
    // A BTreeMap so that iteration (`placements`, `occupants_of`) and
    // the serialized form are deterministic — the engine's winners must
    // encode bit-identically run to run.
    index: BTreeMap<Occupant, (ResourceId, PeriodicInterval)>,
    // Disabled by default; serializes as `null` and deserializes back to
    // disabled, so persisted boards stay pure data.
    observer: ObserverHandle,
}

impl ScheduleBoard {
    /// An empty board.
    pub fn new() -> Self {
        ScheduleBoard::default()
    }

    /// Installs (or clears) the structured-event observer. Every
    /// subsequent [`place`](Self::place) and [`record`](Self::record) —
    /// including ones on clones of this board, which share the handle —
    /// emits a `Placement` event with the slot that was chosen.
    pub fn set_observer(&mut self, observer: ObserverHandle) {
        self.observer = observer;
    }

    /// Registers a new resource and returns its id.
    pub fn add_resource(&mut self) -> ResourceId {
        let id = ResourceId::new(self.timelines.len());
        self.timelines.push(Timeline::new());
        id
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.timelines.len()
    }

    /// Read access to one timeline.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn timeline(&self, id: ResourceId) -> &Timeline {
        &self.timelines[id.index()]
    }

    /// Places `occupant` on `resource` at the earliest feasible start, as
    /// in [`Timeline::place`]. Returns the chosen start, or `None` when it
    /// does not fit by `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `occupant` is already placed (remove it first) or the
    /// resource id is unknown.
    pub fn place(
        &mut self,
        resource: ResourceId,
        occupant: Occupant,
        ready: Nanos,
        duration: Nanos,
        period: Nanos,
        limit: Nanos,
    ) -> Option<Nanos> {
        assert!(
            !self.index.contains_key(&occupant),
            "occupant {occupant} is already placed"
        );
        let start =
            self.timelines[resource.index()].place(occupant, ready, duration, period, limit)?;
        self.index.insert(
            occupant,
            (resource, PeriodicInterval::new(start, duration, period)),
        );
        self.observer.emit(|| Event::Placement {
            occupant: occupant.to_string(),
            resource: resource.index() as u64,
            start: start.as_nanos(),
            duration: duration.as_nanos(),
            period: period.as_nanos(),
            spatial: false,
        });
        Some(start)
    }

    /// Dry-run variant of [`place`](Self::place): the start that would be
    /// chosen, without mutating anything.
    pub fn find_slot(
        &self,
        resource: ResourceId,
        ready: Nanos,
        duration: Nanos,
        period: Nanos,
        limit: Nanos,
    ) -> Option<Nanos> {
        self.timelines[resource.index()].find_slot(ready, duration, period, limit)
    }

    /// Records an occupancy on a *spatial* resource without collision
    /// checking (see [`Timeline::record`]): hardware tasks that execute in
    /// parallel on the same device.
    ///
    /// # Panics
    ///
    /// Panics if `occupant` is already placed or the resource id is
    /// unknown.
    pub fn record(&mut self, resource: ResourceId, occupant: Occupant, interval: PeriodicInterval) {
        assert!(
            !self.index.contains_key(&occupant),
            "occupant {occupant} is already placed"
        );
        self.timelines[resource.index()].record(occupant, interval);
        self.index.insert(occupant, (resource, interval));
        self.observer.emit(|| Event::Placement {
            occupant: occupant.to_string(),
            resource: resource.index() as u64,
            start: interval.start().as_nanos(),
            duration: interval.duration().as_nanos(),
            period: interval.period().as_nanos(),
            spatial: true,
        });
    }

    /// Removes an occupant's placement; returns `true` if it was placed.
    pub fn remove(&mut self, occupant: Occupant) -> bool {
        self.take(occupant).is_some()
    }

    /// Lifts an occupant off the board and returns what
    /// [`restore`](Self::restore) needs to put it back at the same
    /// timeline position. `None` when it is not placed.
    pub fn take(&mut self, occupant: Occupant) -> Option<Taken> {
        let (resource, _) = self.index.remove(&occupant)?;
        let (position, placed) = self.timelines[resource.index()].take(occupant)?;
        Some(Taken {
            resource,
            position,
            placed,
        })
    }

    /// Puts back a placement lifted by [`take`](Self::take), at its old
    /// timeline position. Emits no event: it undoes, it does not place.
    ///
    /// # Panics
    ///
    /// Panics if the resource is unknown or its timeline has shrunk
    /// below the recorded position since the take.
    pub fn restore(&mut self, taken: Taken) {
        let Taken {
            resource,
            position,
            placed,
        } = taken;
        self.timelines[resource.index()].restore(position, placed);
        self.index
            .insert(placed.occupant, (resource, placed.interval));
    }

    /// Unregisters the most recently added resource — the undo of
    /// [`add_resource`](Self::add_resource). Returns `false`, leaving the
    /// board unchanged, when there is none or its timeline is not empty.
    pub fn pop_resource(&mut self) -> bool {
        if self.timelines.last().is_some_and(Timeline::is_empty) {
            self.timelines.pop();
            true
        } else {
            false
        }
    }

    /// The copy-0 window of a placed occupant.
    pub fn window(&self, occupant: Occupant) -> Option<Window> {
        self.index
            .get(&occupant)
            .map(|(_, iv)| Window::new(iv.start(), iv.finish()))
    }

    /// The periodic interval of a placed occupant.
    pub fn interval(&self, occupant: Occupant) -> Option<&PeriodicInterval> {
        self.index.get(&occupant).map(|(_, iv)| iv)
    }

    /// Which resource an occupant is placed on.
    pub fn resource_of(&self, occupant: Occupant) -> Option<ResourceId> {
        self.index.get(&occupant).map(|(r, _)| *r)
    }

    /// Iterates over all placements as `(occupant, resource, interval)`.
    pub fn placements(&self) -> impl Iterator<Item = (Occupant, ResourceId, &PeriodicInterval)> {
        self.index.iter().map(|(o, (r, iv))| (*o, *r, iv))
    }

    /// Total number of placed occupants.
    pub fn placement_count(&self) -> usize {
        self.index.len()
    }

    /// Iterates over the occupants placed on one resource, with their
    /// periodic intervals.
    pub fn occupants_on(
        &self,
        resource: ResourceId,
    ) -> impl Iterator<Item = (Occupant, &PeriodicInterval)> {
        self.index
            .iter()
            .filter(move |(_, (r, _))| *r == resource)
            .map(|(o, (_, iv))| (*o, iv))
    }

    /// Pairwise collision scan of one resource's timeline: every pair of
    /// occupants whose periodic intervals overlap. An exclusive resource
    /// (CPU engine or link) must return an empty list; spatial resources
    /// (HW devices, where [`record`](Self::record) is used) may legitimately
    /// report pairs.
    pub fn collisions(&self, resource: ResourceId) -> Vec<(Occupant, Occupant)> {
        let placed: Vec<(Occupant, &PeriodicInterval)> = self.occupants_on(resource).collect();
        let mut out = Vec::new();
        for (i, (a, iva)) in placed.iter().enumerate() {
            for (b, ivb) in placed.iter().skip(i + 1) {
                if iva.collides(ivb) {
                    out.push((*a, *b));
                }
            }
        }
        out
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
    fn place_and_lookup() {
        let mut b = ScheduleBoard::new();
        let r0 = b.add_resource();
        let r1 = b.add_resource();
        b.place(r0, occ(0), ns(0), ns(10), ns(100), Nanos::MAX)
            .unwrap();
        b.place(r1, occ(1), ns(0), ns(10), ns(100), Nanos::MAX)
            .unwrap();
        assert_eq!(b.resource_of(occ(0)), Some(r0));
        assert_eq!(b.resource_of(occ(1)), Some(r1));
        assert_eq!(b.window(occ(1)).unwrap().start, ns(0)); // independent resources
        assert_eq!(b.placement_count(), 2);
        assert_eq!(b.resource_count(), 2);
    }

    #[test]
    fn remove_clears_both_indexes() {
        let mut b = ScheduleBoard::new();
        let r0 = b.add_resource();
        b.place(r0, occ(0), ns(0), ns(10), ns(100), Nanos::MAX)
            .unwrap();
        assert!(b.remove(occ(0)));
        assert!(!b.remove(occ(0)));
        assert_eq!(b.window(occ(0)), None);
        assert!(b.timeline(r0).is_empty());
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_placement_panics() {
        let mut b = ScheduleBoard::new();
        let r0 = b.add_resource();
        b.place(r0, occ(0), ns(0), ns(10), ns(100), Nanos::MAX)
            .unwrap();
        let _ = b.place(r0, occ(0), ns(50), ns(10), ns(100), Nanos::MAX);
    }

    /// Debug output covers every timeline in order plus the index, so
    /// equal strings mean equal boards, order included.
    fn dump(b: &ScheduleBoard) -> String {
        format!("{b:?}")
    }

    /// Two resources, three placements on the first.
    fn board() -> ScheduleBoard {
        let mut b = ScheduleBoard::new();
        let r0 = b.add_resource();
        b.add_resource();
        for i in 0..3 {
            b.place(r0, occ(i), ns(0), ns(10), ns(100), Nanos::MAX)
                .unwrap();
        }
        b
    }

    #[test]
    fn take_then_restore_is_exact() {
        let original = board();
        for i in 0..3 {
            let mut b = original.clone();
            let taken = b.take(occ(i)).unwrap();
            assert_eq!(b.window(occ(i)), None);
            assert_eq!(b.placement_count(), 2);
            b.restore(taken);
            assert_eq!(dump(&b), dump(&original), "after taking occ({i})");
        }
        assert_eq!(original.clone().take(occ(9)), None);
    }

    #[test]
    fn place_then_remove_is_exact() {
        let original = board();
        let mut b = original.clone();
        let (r0, r1) = (ResourceId::new(0), ResourceId::new(1));
        b.place(r0, occ(3), ns(0), ns(10), ns(100), Nanos::MAX)
            .unwrap();
        b.record(r1, occ(4), PeriodicInterval::new(ns(0), ns(10), ns(100)));
        assert!(b.remove(occ(4)));
        assert!(b.remove(occ(3)));
        assert_eq!(dump(&b), dump(&original));
        // Not the latest placement: removed where it sits, order kept.
        assert!(b.remove(occ(0)));
        let left: Vec<_> = b.timeline(r0).iter().map(|p| p.occupant).collect();
        assert_eq!(left, [occ(1), occ(2)]);
    }

    #[test]
    fn pop_resource_undoes_add_resource() {
        let original = board();
        let mut b = original.clone();
        let r = b.add_resource();
        b.place(r, occ(5), ns(0), ns(10), ns(100), Nanos::MAX)
            .unwrap();
        assert!(!b.pop_resource(), "an occupied resource stays");
        b.remove(occ(5));
        assert!(b.pop_resource());
        assert_eq!(dump(&b), dump(&original));
        assert!(!ScheduleBoard::new().pop_resource());
    }

    #[test]
    fn failed_place_leaves_no_trace() {
        let mut b = ScheduleBoard::new();
        let r0 = b.add_resource();
        b.place(r0, occ(0), ns(0), ns(90), ns(100), Nanos::MAX)
            .unwrap();
        assert_eq!(
            b.place(r0, occ(1), ns(0), ns(20), ns(100), Nanos::MAX),
            None
        );
        assert_eq!(b.window(occ(1)), None);
        assert_eq!(b.placement_count(), 1);
    }
}
