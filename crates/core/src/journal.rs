//! The allocator's undo journal.
//!
//! An allocation attempt schedules its candidate straight onto the
//! architecture under construction and logs every mutation here. A
//! rejected attempt rolls back to a [`Mark`] by undoing the log in
//! reverse, which leaves the architecture exactly as it was at the mark:
//! the same slots, the same timeline order, the same bookkeeping. A
//! failed attempt therefore costs only the work it did. Rollback emits
//! no observer events.

use crusade_model::{GraphId, HwDemand, LinkTypeId, Nanos, PeTypeId};
use crusade_sched::{Occupant, PeriodicInterval, ResourceId, Taken};

use crate::arch::{Architecture, LinkInstanceId, Mode, ModeIndex, PeInstanceId};
use crate::cluster::ClusterId;

/// One logged mutation, stored as what undoes it.
#[derive(Debug)]
enum Undo {
    /// An occupant placed or recorded on the board.
    Placed(Occupant),
    /// An occupant lifted off the board.
    Taken(Taken),
    /// A PE slot appended, with its board resource.
    PeAdded,
    /// A link slot appended, with its board resource.
    LinkAdded,
    /// A PE appended to a link's ports.
    Attached(LinkInstanceId),
    /// An empty mode appended to a PE.
    ModeAdded(PeInstanceId),
    /// A cluster joined a mode; holds the state it replaced.
    Joined {
        pe: PeInstanceId,
        mode: ModeIndex,
        graphs: usize,
        used_hw: HwDemand,
        memory_used: u64,
    },
}

/// A journal position to roll back to, from [`Journal::mark`].
#[derive(Debug)]
pub(crate) struct Mark {
    len: usize,
    /// The serialized architecture at the mark, when the test hook is on.
    #[cfg(test)]
    snapshot: Option<String>,
}

/// The undo log of the attempt in progress.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    undo: Vec<Undo>,
    /// Test hook: when `Some`, every mark snapshots the serialized
    /// architecture, every rollback asserts the snapshot is restored byte
    /// for byte, and the count of checked rollbacks accumulates here.
    #[cfg(test)]
    pub(crate) verified: Option<usize>,
}

impl Journal {
    /// The current position, to [`rollback`](Self::rollback) to later.
    #[cfg_attr(not(test), allow(unused_variables))]
    pub(crate) fn mark(&self, arch: &Architecture) -> Mark {
        Mark {
            len: self.undo.len(),
            #[cfg(test)]
            snapshot: self.verified.map(|_| snapshot(arch)),
        }
    }

    /// Undoes everything logged since `mark`, newest first.
    pub(crate) fn rollback(&mut self, arch: &mut Architecture, mark: Mark) {
        for undo in self.undo.drain(mark.len..).rev() {
            match undo {
                Undo::Placed(occupant) => {
                    arch.board.remove(occupant);
                }
                Undo::Taken(taken) => arch.board.restore(taken),
                Undo::PeAdded => arch.pop_pe(),
                Undo::LinkAdded => arch.pop_link(),
                Undo::Attached(link) => {
                    arch.link_mut(link).attached.pop();
                }
                Undo::ModeAdded(pe) => {
                    arch.pe_mut(pe).modes.pop();
                }
                Undo::Joined {
                    pe,
                    mode,
                    graphs,
                    used_hw,
                    memory_used,
                } => {
                    let p = arch.pe_mut(pe);
                    p.memory_used = memory_used;
                    let m = &mut p.modes[mode];
                    m.clusters.pop();
                    m.graphs.truncate(graphs);
                    m.used_hw = used_hw;
                }
            }
        }
        #[cfg(test)]
        self.verify(arch, mark.snapshot);
    }

    /// Keeps everything logged so far: the attempt was accepted.
    pub(crate) fn commit(&mut self) {
        self.undo.clear();
    }

    /// [`ScheduleBoard::place`](crusade_sched::ScheduleBoard::place),
    /// logged when it succeeds.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn place(
        &mut self,
        arch: &mut Architecture,
        resource: ResourceId,
        occupant: Occupant,
        ready: Nanos,
        duration: Nanos,
        period: Nanos,
        limit: Nanos,
    ) -> Option<Nanos> {
        let start = arch
            .board
            .place(resource, occupant, ready, duration, period, limit)?;
        self.undo.push(Undo::Placed(occupant));
        Some(start)
    }

    /// [`ScheduleBoard::record`](crusade_sched::ScheduleBoard::record),
    /// logged.
    pub(crate) fn record(
        &mut self,
        arch: &mut Architecture,
        resource: ResourceId,
        occupant: Occupant,
        interval: PeriodicInterval,
    ) {
        arch.board.record(resource, occupant, interval);
        self.undo.push(Undo::Placed(occupant));
    }

    /// Lifts `occupant` off the board, logged, if it is placed.
    pub(crate) fn take(&mut self, arch: &mut Architecture, occupant: Occupant) {
        if let Some(taken) = arch.board.take(occupant) {
            self.undo.push(Undo::Taken(taken));
        }
    }

    /// [`Architecture::add_pe`], logged.
    pub(crate) fn add_pe(&mut self, arch: &mut Architecture, ty: PeTypeId) -> PeInstanceId {
        self.undo.push(Undo::PeAdded);
        arch.add_pe(ty)
    }

    /// Opens an empty mode on `pe`, logged; returns its index.
    pub(crate) fn add_mode(&mut self, arch: &mut Architecture, pe: PeInstanceId) -> ModeIndex {
        self.undo.push(Undo::ModeAdded(pe));
        let modes = &mut arch.pe_mut(pe).modes;
        modes.push(Mode::empty());
        modes.len() - 1
    }

    /// [`Architecture::add_link`] with its first two ports attached,
    /// logged. Undoing the slot drops its ports and retire flag with it.
    pub(crate) fn add_link(
        &mut self,
        arch: &mut Architecture,
        ty: LinkTypeId,
        ends: [PeInstanceId; 2],
    ) -> LinkInstanceId {
        self.undo.push(Undo::LinkAdded);
        let id = arch.add_link(ty);
        arch.link_mut(id).attached.extend(ends);
        id
    }

    /// Attaches `pe` to a port of `link`, logged.
    pub(crate) fn attach(
        &mut self,
        arch: &mut Architecture,
        link: LinkInstanceId,
        pe: PeInstanceId,
    ) {
        self.undo.push(Undo::Attached(link));
        arch.link_mut(link).attached.push(pe);
    }

    /// Books cluster `cid` of graph `gid` into `pe`'s `mode` with its
    /// hardware demand and memory, logged.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn join(
        &mut self,
        arch: &mut Architecture,
        pe: PeInstanceId,
        mode: ModeIndex,
        cid: ClusterId,
        gid: GraphId,
        hw: HwDemand,
        memory: u64,
    ) {
        let p = arch.pe_mut(pe);
        let m = &mut p.modes[mode];
        self.undo.push(Undo::Joined {
            pe,
            mode,
            graphs: m.graphs.len(),
            used_hw: m.used_hw,
            memory_used: p.memory_used,
        });
        m.clusters.push(cid);
        if !m.graphs.contains(&gid) {
            m.graphs.push(gid);
        }
        m.used_hw = m.used_hw + hw;
        p.memory_used += memory;
    }

    /// Test hook: asserts the rollback restored the snapshot taken at
    /// its mark.
    #[cfg(test)]
    fn verify(&mut self, arch: &Architecture, before: Option<String>) {
        if let (Some(before), Some(count)) = (before, self.verified.as_mut()) {
            assert!(
                snapshot(arch) == before,
                "rollback did not restore the architecture byte for byte"
            );
            *count += 1;
        }
    }
}

/// The serialized form the test hook compares.
#[cfg(test)]
fn snapshot(arch: &Architecture) -> String {
    serde_json::to_string(arch).expect("architectures serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusade_model::{GlobalTaskId, TaskId};

    fn task(i: usize) -> Occupant {
        Occupant::Task(GlobalTaskId::new(GraphId::new(0), TaskId::new(i)))
    }

    /// Every kind of logged mutation, on state that existed before the
    /// mark, rolls back to the exact serialized architecture.
    #[test]
    fn every_logged_mutation_rolls_back_exactly() {
        let mut arch = Architecture::new();
        let cpu = arch.add_pe(PeTypeId::new(0));
        let other = arch.add_pe(PeTypeId::new(0));
        let link = arch.add_link(LinkTypeId::new(0));
        arch.link_mut(link).attached.push(cpu);
        let ns = Nanos::from_nanos;
        for i in 0..3 {
            let r = arch.pe(cpu).resource;
            arch.board
                .place(r, task(i), ns(0), ns(10), ns(100), Nanos::MAX);
        }
        let mut journal = Journal {
            verified: Some(0),
            ..Journal::default()
        };
        let mark = journal.mark(&arch);
        let pe = journal.add_pe(&mut arch, PeTypeId::new(1));
        journal.add_mode(&mut arch, pe);
        let hw = HwDemand {
            gates: 10,
            ..HwDemand::ZERO
        };
        journal.join(
            &mut arch,
            cpu,
            0,
            ClusterId::new(0),
            GraphId::new(1),
            hw,
            64,
        );
        journal.add_link(&mut arch, LinkTypeId::new(0), [cpu, pe]);
        journal.attach(&mut arch, link, other);
        journal.take(&mut arch, task(1));
        let r = arch.pe(other).resource;
        journal.place(&mut arch, r, task(1), ns(0), ns(10), ns(100), Nanos::MAX);
        let r = arch.pe(pe).resource;
        let interval = PeriodicInterval::new(ns(0), ns(10), ns(100));
        journal.record(&mut arch, r, task(3), interval);
        journal.rollback(&mut arch, mark);
        assert_eq!(journal.verified, Some(1));
        assert!(journal.undo.is_empty());
    }
}
