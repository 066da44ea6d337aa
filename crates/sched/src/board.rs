//! The schedule board: all resource timelines of a candidate architecture.
//!
//! Co-synthesis builds the schedule *incrementally*: each time the inner
//! loop tries an allocation, the new cluster's tasks and edges are placed
//! on the board; if the allocation is rejected the placements are removed
//! again. The board maps opaque resource ids (assigned by the architecture
//! model in `crusade-core`) to [`Timeline`]s and keeps a reverse index from
//! occupant to placement for O(1) window lookups: task and edge ids are
//! dense within their graph, so the index is a table per graph.

use std::collections::BTreeMap;
use std::fmt;

use serde::{DeError, Deserialize, Emitter, Reader, Serialize};

use crusade_model::{EdgeId, GlobalEdgeId, GlobalTaskId, GraphId, Nanos, TaskId};
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
    index: OccupantIndex,
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
            self.index.get(occupant).is_none(),
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
            self.index.get(occupant).is_none(),
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
        let (resource, _) = self.index.remove(occupant)?;
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
            .get(occupant)
            .map(|(_, iv)| Window::new(iv.start(), iv.finish()))
    }

    /// The periodic interval of a placed occupant.
    pub fn interval(&self, occupant: Occupant) -> Option<&PeriodicInterval> {
        self.index.get(occupant).map(|(_, iv)| iv)
    }

    /// Which resource an occupant is placed on.
    pub fn resource_of(&self, occupant: Occupant) -> Option<ResourceId> {
        self.index.get(occupant).map(|(r, _)| *r)
    }

    /// Iterates over all placements as `(occupant, resource, interval)`.
    pub fn placements(&self) -> impl Iterator<Item = (Occupant, ResourceId, &PeriodicInterval)> {
        self.index.iter().map(|(o, (r, iv))| (o, *r, iv))
    }

    /// Total number of placed occupants.
    pub fn placement_count(&self) -> usize {
        self.index.len
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
            .map(|(o, (_, iv))| (o, iv))
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

/// Where a placed occupant sits.
type Slot = (ResourceId, PeriodicInterval);

/// The board's occupant index. Task and edge ids are dense within their
/// graph, so their slots live in `[graph][id]` tables that grow on
/// demand; the few `Reboot` and `CpuTransfer` occupants stay in an
/// ordered map. Iteration, `Debug` and the serialized form follow
/// [`Occupant`] order (tasks by graph then id, edges likewise, then the
/// map) and show only placed occupants, exactly as a
/// `BTreeMap<Occupant, Slot>` would: the engine's winners must encode
/// bit-identically run to run, and however far a table has grown.
#[derive(Clone, Default)]
struct OccupantIndex {
    tasks: Table,
    edges: Table,
    other: BTreeMap<Occupant, Slot>,
    len: usize,
}

impl OccupantIndex {
    fn get(&self, occupant: Occupant) -> Option<&Slot> {
        match occupant {
            Occupant::Task(t) => self.tasks.get(t.graph, t.task.index()),
            Occupant::Edge(e) => self.edges.get(e.graph, e.edge.index()),
            Occupant::Reboot { .. } | Occupant::CpuTransfer { .. } => self.other.get(&occupant),
        }
    }

    /// Indexes `occupant`, replacing any slot it had.
    fn insert(&mut self, occupant: Occupant, slot: Slot) {
        let previous = match occupant {
            Occupant::Task(t) => self.tasks.replace(t.graph, t.task.index(), slot),
            Occupant::Edge(e) => self.edges.replace(e.graph, e.edge.index(), slot),
            Occupant::Reboot { .. } | Occupant::CpuTransfer { .. } => {
                self.other.insert(occupant, slot)
            }
        };
        if previous.is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, occupant: Occupant) -> Option<Slot> {
        let removed = match occupant {
            Occupant::Task(t) => self.tasks.take(t.graph, t.task.index()),
            Occupant::Edge(e) => self.edges.take(e.graph, e.edge.index()),
            Occupant::Reboot { .. } | Occupant::CpuTransfer { .. } => self.other.remove(&occupant),
        }?;
        self.len -= 1;
        Some(removed)
    }

    /// Placed occupants in [`Occupant`] order.
    fn iter(&self) -> impl Iterator<Item = (Occupant, &Slot)> {
        let tasks = self.tasks.iter().map(|(g, t, slot)| {
            let id = GlobalTaskId::new(g, TaskId::new(t));
            (Occupant::Task(id), slot)
        });
        let edges = self.edges.iter().map(|(g, e, slot)| {
            let id = GlobalEdgeId::new(g, EdgeId::new(e));
            (Occupant::Edge(id), slot)
        });
        let other = self.other.iter().map(|(o, slot)| (*o, slot));
        tasks.chain(edges).chain(other)
    }
}

impl fmt::Debug for OccupantIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Serialize for OccupantIndex {
    fn emit<E: Emitter>(&self, e: &mut E) {
        e.seq_begin();
        for (occupant, slot) in self.iter() {
            e.seq_elem();
            (occupant, slot).emit(e);
        }
        e.seq_end();
    }
}

impl Deserialize for OccupantIndex {
    fn read<'de, R: Reader<'de>>(r: &mut R) -> Result<Self, DeError> {
        let mut index = OccupantIndex::default();
        for (occupant, slot) in BTreeMap::<Occupant, Slot>::read(r)? {
            index.insert(occupant, slot);
        }
        Ok(index)
    }
}

/// Slots by `[graph][id]`, for occupants whose ids are dense per graph.
#[derive(Clone, Default)]
struct Table(Vec<Vec<Option<Slot>>>);

impl Table {
    fn get(&self, graph: GraphId, id: usize) -> Option<&Slot> {
        self.0.get(graph.index())?.get(id)?.as_ref()
    }

    /// Stores `slot` at `[graph][id]`, growing the table to reach it, and
    /// returns the slot it replaced.
    fn replace(&mut self, graph: GraphId, id: usize, slot: Slot) -> Option<Slot> {
        let g = graph.index();
        if self.0.len() <= g {
            self.0.resize_with(g + 1, Vec::new);
        }
        let row = &mut self.0[g];
        if row.len() <= id {
            row.resize(id + 1, None);
        }
        row[id].replace(slot)
    }

    fn take(&mut self, graph: GraphId, id: usize) -> Option<Slot> {
        self.0.get_mut(graph.index())?.get_mut(id)?.take()
    }

    /// The filled cells, in (graph, id) order.
    fn iter(&self) -> impl Iterator<Item = (GraphId, usize, &Slot)> {
        self.0.iter().enumerate().flat_map(|(g, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(id, slot)| slot.as_ref().map(|slot| (GraphId::new(g), id, slot)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
