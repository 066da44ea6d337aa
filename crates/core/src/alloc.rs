//! The allocation step: the inner loop of co-synthesis (Section 5).
//!
//! For each cluster (in decreasing priority order) an *allocation array* is
//! built: every existing PE instance that can host the cluster, plus a new
//! instance of every admissible library PE type, ordered by incremental
//! dollar cost. Candidates are tried in that order; trying a candidate
//! schedules the cluster's tasks and edges incrementally on the
//! architecture's timelines, estimates finish times, and checks deadlines.
//! A rejected candidate is undone through the undo journal. The
//! first (cheapest) candidate that meets all deadlines wins; if none
//! does, the specification is unallocatable against the library.
//!
//! Scheduling policy: software tasks are placed non-preemptively at the
//! earliest feasible slot; when no slot meets the task's latest-start
//! bound and preemption is enabled, the lowest-priority resident task is
//! preempted (charged the preemption overhead plus context-switch time)
//! and re-placed — the paper's "preemptive scheduling in restricted
//! scenarios".

use std::sync::atomic::{AtomicBool, Ordering};

use crusade_model::{
    Dollars, EdgeId, GlobalEdgeId, GlobalTaskId, GraphId, Nanos, PeClass, PeTypeId, Priority,
    ResourceLibrary, SystemSpec, TaskId,
};
use crusade_obs::{Event, RejectReason};
use crusade_sched::{
    check_deadlines, estimate_finish_times, latest_finish_times, priority_levels, Occupant,
    PeriodicInterval, Window,
};

use crate::arch::{Architecture, LinkInstanceId, ModeIndex, PeInstanceId};
use crate::cluster::{Cluster, ClusterId, Clustering};
use crate::error::SynthesisError;
use crate::journal::Journal;
use crate::options::{derate, CosynOptions};

/// One candidate in the allocation array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocTarget {
    /// Place the cluster on an already-instantiated PE, in the given mode.
    Existing {
        /// The hosting instance.
        pe: PeInstanceId,
        /// The configuration image to join (always 0 during fresh
        /// synthesis, where modes only appear later through merging).
        mode: usize,
    },
    /// Open a *new* configuration image on an existing programmable PE —
    /// available only during field-upgrade synthesis onto fixed hardware
    /// (Section 4.2's "multiple versions of each programmable device").
    NewMode {
        /// The hosting programmable instance.
        pe: PeInstanceId,
    },
    /// Instantiate a new PE of the given type.
    New {
        /// The library type to instantiate.
        ty: PeTypeId,
    },
}

/// Where a cluster ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationDecision {
    /// The hosting PE instance.
    pub pe: PeInstanceId,
    /// The mode the cluster resides in (always 0 during allocation; merge
    /// renumbers modes later).
    pub mode: ModeIndex,
    /// Incremental dollar cost this allocation added.
    pub added_cost: Dollars,
}

/// The allocator's read-only tables for one specification and one
/// clustering, indexed `[graph][task]` or `[graph][edge]`. They depend on
/// nothing an allocation decides, so runs that share a clustering share
/// them too.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocBounds {
    /// Latest-finish bound per task, from worst-case (slowest-PE)
    /// estimates of the downstream path.
    latest_finish: Vec<Vec<Nanos>>,
    /// Priority level per task (for preemption decisions).
    priorities: Vec<Vec<Priority>>,
    /// Slowest entry of each task's execution vector (zero when none).
    slowest: Vec<Vec<Nanos>>,
    /// Guaranteed communication time per edge: zero inside a cluster,
    /// otherwise the fastest library link, freshly instantiated, under
    /// worst-case medium access. Any inter-PE edge can always achieve
    /// this budget, so commitments made against it for not-yet-placed
    /// edges are always honourable later.
    comm: Vec<Vec<Nanos>>,
}

impl AllocBounds {
    /// Builds the tables of `spec` under `clustering`.
    pub fn new(spec: &SystemSpec, lib: &ResourceLibrary, clustering: &Clustering) -> Self {
        let mut bounds = AllocBounds {
            latest_finish: Vec::with_capacity(spec.graph_count()),
            priorities: Vec::with_capacity(spec.graph_count()),
            slowest: Vec::with_capacity(spec.graph_count()),
            comm: Vec::with_capacity(spec.graph_count()),
        };
        for (gid, graph) in spec.graphs() {
            // Worst-case execution estimates keep the latest-finish
            // bounds consistent with the acceptance check: a placement
            // admitted against these bounds can never strand a downstream
            // task, whichever PE type it later lands on.
            let slowest: Vec<Nanos> = graph
                .tasks()
                .map(|(_, t)| t.exec.slowest().unwrap_or(Nanos::ZERO))
                .collect();
            let comm: Vec<Nanos> = graph
                .edges()
                .map(|(_, edge)| {
                    if clustering.same_cluster(gid, edge.from, edge.to) {
                        Nanos::ZERO
                    } else {
                        lib.link_slice()
                            .iter()
                            .map(|l| l.worst_transfer_time(edge.bytes))
                            .min()
                            .unwrap_or(Nanos::ZERO)
                    }
                })
                .collect();
            let exec = |t: TaskId| slowest[t.index()];
            let comm_est = |e: EdgeId| comm[e.index()];
            bounds
                .latest_finish
                .push(latest_finish_times(graph, exec, comm_est));
            bounds
                .priorities
                .push(priority_levels(graph, exec, comm_est));
            bounds.slowest.push(slowest);
            bounds.comm.push(comm);
        }
        bounds
    }
}

/// The mutable allocation engine driving the synthesis loops.
pub struct Allocator<'a> {
    spec: &'a SystemSpec,
    lib: &'a ResourceLibrary,
    options: &'a CosynOptions,
    clustering: &'a Clustering,
    /// Per-task and per-edge bounds of `spec` under `clustering`.
    bounds: &'a AllocBounds,
    /// The architecture under construction.
    pub arch: Architecture,
    /// Where each cluster was placed.
    pub decisions: Vec<Option<AllocationDecision>>,
    /// Whether new PE/link instances may be created (false during
    /// field-upgrade synthesis onto fixed hardware).
    allow_new_instances: bool,
    /// Whether new configuration images may be opened on existing
    /// programmable PEs (true during field-upgrade synthesis).
    allow_new_modes: bool,
    /// Undo log of the scheduling attempt in progress on `arch`.
    journal: Journal,
    /// Allocation candidates evaluated (a scheduling attempt ran).
    candidates_tried: usize,
    /// Cooperative cancellation flag, installed by
    /// [`crate::CoSynthesis::with_cancel`].
    cancel: Option<&'a AtomicBool>,
}

impl<'a> Allocator<'a> {
    /// Prepares an empty architecture. `bounds` must be the
    /// [`AllocBounds`] of `spec` under `clustering`.
    pub fn new(
        spec: &'a SystemSpec,
        lib: &'a ResourceLibrary,
        options: &'a CosynOptions,
        clustering: &'a Clustering,
        bounds: &'a AllocBounds,
    ) -> Self {
        let decisions = vec![None; clustering.cluster_count()];
        // The board shares the options' observer handle: every placement
        // attempt — including ones later rolled back — reports the slot
        // it chose.
        let mut arch = Architecture::new();
        arch.board.set_observer(options.observer.clone());
        Allocator {
            spec,
            lib,
            options,
            clustering,
            bounds,
            arch,
            decisions,
            allow_new_instances: true,
            allow_new_modes: false,
            journal: Journal::default(),
            candidates_tried: 0,
            cancel: None,
        }
    }

    /// Installs a cooperative cancellation flag, checked before every
    /// scheduling attempt.
    pub fn set_cancel(&mut self, cancel: &'a AtomicBool) {
        self.cancel = Some(cancel);
    }

    /// Allocation candidates that were evaluated with a scheduling
    /// attempt.
    pub fn candidates_tried(&self) -> usize {
        self.candidates_tried
    }

    /// Prepares an allocator for *field-upgrade* synthesis: the hardware
    /// is fixed to `shell` (an existing architecture with empty modes and
    /// an empty schedule), no new instances may be created, but new
    /// configuration images may be opened on programmable devices.
    pub fn for_upgrade(
        spec: &'a SystemSpec,
        lib: &'a ResourceLibrary,
        options: &'a CosynOptions,
        clustering: &'a Clustering,
        bounds: &'a AllocBounds,
        shell: Architecture,
    ) -> Self {
        let mut a = Allocator::new(spec, lib, options, clustering, bounds);
        a.arch = shell;
        a.arch.board.set_observer(options.observer.clone());
        a.allow_new_instances = false;
        a.allow_new_modes = true;
        a
    }

    /// Prepares an allocator for *repair* synthesis: `arch` is a partially
    /// populated (damaged, evicted) architecture whose remaining placements
    /// must be preserved. New PE and link instances may be created, but new
    /// configuration images may not — fresh allocation only ever joins
    /// existing images, so a repaired architecture's merge structure stays
    /// exactly what reconfiguration generation verified.
    pub fn resume(
        spec: &'a SystemSpec,
        lib: &'a ResourceLibrary,
        options: &'a CosynOptions,
        clustering: &'a Clustering,
        bounds: &'a AllocBounds,
        arch: Architecture,
    ) -> Self {
        let mut a = Allocator::new(spec, lib, options, clustering, bounds);
        a.arch = arch;
        a.arch.board.set_observer(options.observer.clone());
        a
    }

    /// Builds the allocation array for `cluster`, ordered by increasing
    /// incremental cost; among free (existing) candidates, the least-loaded
    /// instance comes first so placements finish early and load spreads.
    fn allocation_array(&self, cid: ClusterId, cluster: &Cluster) -> Vec<(AllocTarget, Dollars)> {
        let mut entries: Vec<(AllocTarget, Dollars, usize)> = Vec::new();
        for (pid, pe) in self.arch.pes() {
            if !cluster.allowed_pes.contains(&pe.ty) {
                continue;
            }
            if self.exclusion_conflict(cluster, pid) {
                continue;
            }
            let load = self.arch.board.timeline(pe.resource).len();
            for mode in 0..pe.modes.len() {
                if self.capacity_fits(cluster, pid, mode) {
                    entries.push((AllocTarget::Existing { pe: pid, mode }, Dollars::ZERO, load));
                }
            }
            if self.allow_new_modes
                && self.lib.pe(pe.ty).is_reconfigurable()
                && pe.modes.len() < self.options.max_modes_per_device
                && self.type_capacity_fits(cluster, pe.ty)
            {
                // A fresh image: tried after the existing ones (same cost,
                // biased later by a load bump so spatial packing wins).
                entries.push((
                    AllocTarget::NewMode { pe: pid },
                    Dollars::ZERO,
                    load + 1_000_000,
                ));
            }
        }
        if self.allow_new_instances {
            for &ty in &cluster.allowed_pes {
                if !self.type_capacity_fits(cluster, ty) {
                    continue;
                }
                entries.push((AllocTarget::New { ty }, self.lib.pe(ty).cost(), 0));
            }
        }
        entries.sort_by_key(|&(_, cost, load)| (cost, load));
        // Policy tie-break: rotate every maximal run of candidates tied on
        // (cost, load) by a seeded amount, so portfolio members commit to
        // different — but equally cheap — hosts first. The baseline seed
        // keeps the stable order above.
        if self.options.policy.tie_break_seed != 0 {
            let salt = cid.index() as u64;
            let mut i = 0;
            while i < entries.len() {
                let mut j = i + 1;
                while j < entries.len()
                    && (entries[j].1, entries[j].2) == (entries[i].1, entries[i].2)
                {
                    j += 1;
                }
                if j - i > 1 {
                    let r = self
                        .options
                        .policy
                        .tie_rotation(salt ^ ((i as u64) << 32), j - i);
                    entries[i..j].rotate_left(r);
                }
                i = j;
            }
        }
        entries
            .into_iter()
            .map(|(target, cost, _)| (target, cost))
            .collect()
    }

    /// Capacity check (memory for CPUs, gates/pins for ASICs, ERUF/EPUF
    /// caps for programmable PEs) for adding `cluster` to instance `pid`'s
    /// mode 0.
    fn capacity_fits(&self, cluster: &Cluster, pid: PeInstanceId, mode: usize) -> bool {
        let pe = self.arch.pe(pid);
        let ty = self.lib.pe(pe.ty);
        let mode = &pe.modes[mode];
        match ty.class() {
            PeClass::Cpu(attrs) => pe.memory_used + cluster.memory.total() <= attrs.memory_bytes,
            PeClass::Asic(attrs) => {
                let hw = mode.used_hw + cluster.hw;
                hw.gates <= attrs.gates && hw.pins <= derate(attrs.pins, self.options.epuf)
            }
            PeClass::Ppe(attrs) => {
                let hw = mode.used_hw + cluster.hw;
                hw.pfus <= derate(attrs.pfus, self.options.eruf)
                    && hw.flip_flops <= attrs.flip_flops
                    && hw.pins <= derate(attrs.pins, self.options.epuf)
            }
        }
    }

    /// Capacity check against a *fresh* instance of `ty`: the cluster
    /// alone must fit the type's memory or area budget (otherwise the type
    /// can never host it and must not enter the allocation array).
    fn type_capacity_fits(&self, cluster: &Cluster, ty: PeTypeId) -> bool {
        match self.lib.pe(ty).class() {
            PeClass::Cpu(attrs) => cluster.memory.total() <= attrs.memory_bytes,
            PeClass::Asic(attrs) => {
                cluster.hw.gates <= attrs.gates
                    && cluster.hw.pins <= derate(attrs.pins, self.options.epuf)
            }
            PeClass::Ppe(attrs) => {
                cluster.hw.pfus <= derate(attrs.pfus, self.options.eruf)
                    && cluster.hw.flip_flops <= attrs.flip_flops
                    && cluster.hw.pins <= derate(attrs.pins, self.options.epuf)
            }
        }
    }

    /// Whether placing `cluster` on instance `pid` would violate an
    /// exclusion vector: no resident task of the same graph may appear in
    /// the exclusion set of a cluster member (or vice versa) — exclusion
    /// binds to the *physical* PE, across all of its modes.
    fn exclusion_conflict(&self, cluster: &Cluster, pid: PeInstanceId) -> bool {
        let graph = self.spec.graph(cluster.graph);
        self.arch.pe(pid).modes.iter().any(|mode| {
            mode.clusters.iter().any(|&cid2| {
                let resident = self.clustering.cluster(cid2);
                resident.graph == cluster.graph
                    && resident.tasks.iter().any(|&t2| {
                        cluster.tasks.iter().any(|&t1| {
                            graph.task(t1).exclusions.excludes(t2)
                                || graph.task(t2).exclusions.excludes(t1)
                        })
                    })
            })
        })
    }

    /// Allocates one cluster: tries every entry of its allocation array in
    /// cost order and commits the first that schedules with all deadlines
    /// met.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Unallocatable`] when every candidate fails, and
    /// [`SynthesisError::Cancelled`] once the cancellation flag is raised.
    pub fn allocate(&mut self, cid: ClusterId) -> Result<AllocationDecision, SynthesisError> {
        let cluster = self.clustering.cluster(cid);
        for (target, added_cost) in self.allocation_array(cid, cluster) {
            if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return Err(SynthesisError::Cancelled);
            }
            self.candidates_tried += 1;
            self.options.observer.emit(|| Event::CandidateConsidered {
                cluster: cid.index() as u64,
                target: self.target_label(target),
            });
            match self.try_target(cid, cluster, target) {
                Ok((pe, mode)) => {
                    let decision = AllocationDecision {
                        pe,
                        mode,
                        added_cost,
                    };
                    self.decisions[cid.index()] = Some(decision);
                    self.options.observer.emit(|| Event::CandidateAccepted {
                        cluster: cid.index() as u64,
                        target: self.target_label(target),
                        added_cost: added_cost.amount(),
                    });
                    return Ok(decision);
                }
                Err(reason) => {
                    self.options.observer.emit(|| Event::CandidateRejected {
                        cluster: cid.index() as u64,
                        target: self.target_label(target),
                        reason,
                    });
                }
            }
        }
        let graph = self.spec.graph(cluster.graph);
        Err(SynthesisError::Unallocatable {
            cluster: cid,
            task_name: graph.task(cluster.tasks[0]).name.clone(),
        })
    }

    /// Human-readable candidate label for the event stream. Only built
    /// when an observer is installed.
    fn target_label(&self, target: AllocTarget) -> String {
        match target {
            AllocTarget::Existing { pe, mode } => {
                format!(
                    "existing {} pe{} mode{mode}",
                    self.lib.pe(self.arch.pe(pe).ty).name(),
                    pe.index()
                )
            }
            AllocTarget::NewMode { pe } => {
                format!(
                    "new-mode {} pe{}",
                    self.lib.pe(self.arch.pe(pe).ty).name(),
                    pe.index()
                )
            }
            AllocTarget::New { ty } => format!("new {}", self.lib.pe(ty).name()),
        }
    }

    /// Attempts to place `cluster` on `target`, scheduling it straight
    /// onto the architecture under construction. Returns the hosting
    /// instance and mode, or the first gate the candidate failed (the
    /// [`RejectReason`] reported in `CandidateRejected` events); a
    /// rejected attempt is rolled back through the journal first, so the
    /// architecture is exactly what it was before the call.
    fn try_target(
        &mut self,
        cid: ClusterId,
        cluster: &Cluster,
        target: AllocTarget,
    ) -> Result<(PeInstanceId, usize), RejectReason> {
        let mark = self.journal.mark(&self.arch);
        let outcome = self.schedule_cluster(cid, cluster, target);
        match outcome {
            Ok(_) => self.journal.commit(),
            Err(_) => self.journal.rollback(&mut self.arch, mark),
        }
        outcome
    }

    /// The scheduling attempt behind [`try_target`](Self::try_target):
    /// mutates `self.arch` through the journal and stops at the first
    /// failed gate, leaving the rollback to the caller.
    fn schedule_cluster(
        &mut self,
        cid: ClusterId,
        cluster: &Cluster,
        target: AllocTarget,
    ) -> Result<(PeInstanceId, usize), RejectReason> {
        let (pid, mode_idx) = match target {
            AllocTarget::Existing { pe, mode } => (pe, mode),
            AllocTarget::NewMode { pe } => (pe, self.journal.add_mode(&mut self.arch, pe)),
            AllocTarget::New { ty } => (self.journal.add_pe(&mut self.arch, ty), 0),
        };
        let pe_ty_id = self.arch.pe(pid).ty;
        let resource = self.arch.pe(pid).resource;
        let is_cpu = self.lib.pe(pe_ty_id).is_cpu();
        let graph = self.spec.graph(cluster.graph);
        let gid = cluster.graph;
        let period = graph.period();

        let mut touched_graphs = vec![gid];
        for &t in &cluster.tasks {
            // Zero-duration tasks are recorded as 1 ns so occupancy stays
            // well-formed.
            let dur = graph
                .task(t)
                .exec
                .on(pe_ty_id)
                .ok_or(RejectReason::NoExecutionTime)?
                .max(Nanos::from_nanos(1));
            if dur > period {
                // A periodic interval longer than its period can never be
                // placed; reject the candidate instead of letting the
                // timeline's invariant panic on a pathological spec.
                return Err(RejectReason::ExceedsPeriod);
            }
            let gt = GlobalTaskId::new(gid, t);

            // Latest admissible start for this task; it also bounds when
            // incoming edges must have arrived, so a congested link falls
            // through to a faster (possibly fresh) one instead of handing
            // out a uselessly late slot. Beyond the static deadline-derived
            // bound, consumers that are already placed impose hard finish
            // bounds of their own: this task must finish early enough for
            // the connecting edge to arrive before the consumer starts.
            let comm = &self.bounds.comm[gid.index()];
            let mut lf = self.bounds.latest_finish[gid.index()][t.index()];
            for (eid, edge) in graph.successors(t) {
                let dst = GlobalTaskId::new(gid, edge.to);
                if let Some(cw) = self.arch.board.window(Occupant::Task(dst)) {
                    lf = lf.min(cw.start.saturating_sub(comm[eid.index()]));
                }
            }
            let latest_start = lf.saturating_sub(dur);

            // Estimated finish times of the cluster's graph against the
            // current board, read only for still-unplaced predecessors —
            // recomputed each step so the cluster's own placements (which
            // may be much later than an empty board's estimate) propagate
            // into their edges' ready times.
            let est_finish = graph
                .predecessors(t)
                .any(|(_, edge)| {
                    let src = GlobalTaskId::new(gid, edge.from);
                    self.arch.board.window(Occupant::Task(src)).is_none()
                })
                .then(|| self.estimate_graph_finishes(gid));

            // Ready time from predecessors.
            let mut ready = graph.est();
            for (eid, edge) in graph.predecessors(t) {
                let src = GlobalTaskId::new(gid, edge.from);
                let arrival = match self.arch.board.window(Occupant::Task(src)) {
                    Some(w) => {
                        let src_pe = self.pe_of_task(src).ok_or(RejectReason::Internal)?;
                        if src_pe == pid {
                            w.finish
                        } else {
                            // Inter-PE edge: schedule it on a link now.
                            let geid = GlobalEdgeId::new(gid, eid);

                            self.place_edge(
                                geid,
                                src_pe,
                                pid,
                                edge.bytes,
                                w.finish,
                                period,
                                latest_start,
                            )
                            .ok_or(RejectReason::EdgeUnroutable)?
                        }
                    }
                    None => {
                        // Predecessor not yet allocated: conservative
                        // estimate plus the guaranteed communication time.
                        let est = est_finish.as_ref().ok_or(RejectReason::Internal)?;
                        est[edge.from.index()] + comm[eid.index()]
                    }
                };
                ready = ready.max(arrival);
            }
            if ready > latest_start {
                return Err(RejectReason::WindowClosed);
            }

            let start = if is_cpu {
                match self.journal.place(
                    &mut self.arch,
                    resource,
                    Occupant::Task(gt),
                    ready,
                    dur,
                    period,
                    latest_start,
                ) {
                    Some(s) => s,
                    None if self.options.preemption => self
                        .place_with_preemption(
                            pid,
                            gt,
                            ready,
                            dur,
                            period,
                            latest_start,
                            &mut touched_graphs,
                        )
                        .ok_or(RejectReason::NoCpuSlot)?,
                    None => return Err(RejectReason::NoCpuSlot),
                }
            } else {
                // Hardware: spatial parallelism, starts exactly when ready.
                self.journal.record(
                    &mut self.arch,
                    resource,
                    Occupant::Task(gt),
                    PeriodicInterval::new(ready, dur, period),
                );
                ready
            };
            let finish = start + dur;

            // Edges towards already-placed consumers must fit before the
            // consumer's start.
            for (eid, edge) in graph.successors(t) {
                let dst = GlobalTaskId::new(gid, edge.to);
                if let Some(w) = self.arch.board.window(Occupant::Task(dst)) {
                    let dst_pe = self.pe_of_task(dst).ok_or(RejectReason::Internal)?;
                    if dst_pe == pid {
                        if finish > w.start {
                            return Err(RejectReason::SuccessorOverlap);
                        }
                    } else {
                        let geid = GlobalEdgeId::new(gid, eid);
                        let arrive = self
                            .place_edge(geid, pid, dst_pe, edge.bytes, finish, period, w.start)
                            .ok_or(RejectReason::EdgeUnroutable)?;
                        if arrive > w.start {
                            return Err(RejectReason::EdgeUnroutable);
                        }
                    }
                }
            }
        }

        // Commit the cluster into the instance's bookkeeping.
        self.journal.join(
            &mut self.arch,
            pid,
            mode_idx,
            cid,
            gid,
            cluster.hw,
            cluster.memory.total(),
        );

        // Multi-mode devices must remain temporally consistent: every
        // cross-image activity envelope pair needs reboot room (only
        // reachable through NewMode targets, i.e. upgrade synthesis).
        if self.arch.pe(pid).modes.len() > 1
            && !crate::reconfig::device_modes_feasible(
                self.spec,
                self.clustering,
                self.lib,
                self.options,
                &self.arch,
                pid,
            )
        {
            return Err(RejectReason::ModeInfeasible);
        }

        // Deadline verification on every touched graph, plus a
        // no-inversion check: no already-placed consumer may start before
        // the estimated arrival from a producer that is still unplaced
        // (otherwise the producer's cluster could never be allocated).
        touched_graphs.sort_unstable_by_key(|g| g.index());
        touched_graphs.dedup();
        for g in touched_graphs {
            let graph = self.spec.graph(g);
            let comm = &self.bounds.comm[g.index()];
            let finishes = self.estimate_graph_finishes(g);
            if !check_deadlines(graph, &finishes).is_empty() {
                return Err(RejectReason::DeadlineMiss);
            }
            for (eid, edge) in graph.edges() {
                let consumer = self
                    .arch
                    .board
                    .window(Occupant::Task(GlobalTaskId::new(g, edge.to)));
                let producer_placed = self
                    .arch
                    .board
                    .window(Occupant::Task(GlobalTaskId::new(g, edge.from)))
                    .is_some();
                if let (Some(cw), false) = (consumer, producer_placed) {
                    if finishes[edge.from.index()] + comm[eid.index()] > cw.start {
                        return Err(RejectReason::ProducerInversion);
                    }
                }
            }
        }
        Ok((pid, mode_idx))
    }

    /// Preemption fallback: evict the lowest-priority software task from
    /// the target CPU, place the urgent task, re-place the victim with the
    /// preemption overhead charged, and re-validate the victim's schedule.
    /// Each victim is tried in place and rolled back if it does not work.
    #[allow(clippy::too_many_arguments)]
    fn place_with_preemption(
        &mut self,
        pid: PeInstanceId,
        gt: GlobalTaskId,
        ready: Nanos,
        dur: Nanos,
        period: Nanos,
        latest_start: Nanos,
        touched_graphs: &mut Vec<GraphId>,
    ) -> Option<Nanos> {
        let resource = self.arch.pe(pid).resource;
        let my_prio = self.bounds.priorities[gt.graph.index()][gt.task.index()];
        // Victim candidates: strictly lower-priority tasks on this CPU.
        let mut victims: Vec<(GlobalTaskId, PeriodicInterval)> = self
            .arch
            .board
            .timeline(resource)
            .iter()
            .filter_map(|p| match p.occupant {
                Occupant::Task(v) => {
                    let vp = self.bounds.priorities[v.graph.index()][v.task.index()];
                    (vp < my_prio).then_some((v, p.interval))
                }
                _ => None,
            })
            .collect();
        victims.sort_by_key(|(v, _)| self.bounds.priorities[v.graph.index()][v.task.index()]);
        // The preemption overheads charged to a re-placed victim.
        let overhead = self.spec.constraints().preemption_overhead
            + self
                .lib
                .pe(self.arch.pe(pid).ty)
                .as_cpu()
                .map(|c| c.context_switch)
                .unwrap_or(Nanos::ZERO);

        for (victim, original) in victims.into_iter().take(3) {
            let mark = self.journal.mark(&self.arch);
            self.journal.take(&mut self.arch, Occupant::Task(victim));
            let start = self.journal.place(
                &mut self.arch,
                resource,
                Occupant::Task(gt),
                ready,
                dur,
                period,
                latest_start,
            );
            match start {
                Some(start) if self.replace_victim(pid, victim, original, overhead) => {
                    touched_graphs.push(victim.graph);
                    self.options.observer.emit(|| Event::Preemption {
                        victim: Occupant::Task(victim).to_string(),
                        resource: resource.index() as u64,
                    });
                    return Some(start);
                }
                _ => self.journal.rollback(&mut self.arch, mark),
            }
        }
        None
    }

    /// Re-places a preemption `victim` on `pid` with `overhead` added to
    /// its `original` busy time, then checks that its already-scheduled
    /// outgoing edges and same-PE consumers still start after it.
    fn replace_victim(
        &mut self,
        pid: PeInstanceId,
        victim: GlobalTaskId,
        original: PeriodicInterval,
        overhead: Nanos,
    ) -> bool {
        let resource = self.arch.pe(pid).resource;
        let new_dur = original.duration() + overhead;
        let vlf = self.bounds.latest_finish[victim.graph.index()][victim.task.index()];
        let Some(vstart) = self.journal.place(
            &mut self.arch,
            resource,
            Occupant::Task(victim),
            original.start(),
            new_dur,
            original.period(),
            vlf.saturating_sub(new_dur),
        ) else {
            return false;
        };
        let vfinish = vstart + new_dur;
        let vgraph = self.spec.graph(victim.graph);
        vgraph.successors(victim.task).all(|(eid, _)| {
            match self
                .arch
                .board
                .window(Occupant::Edge(GlobalEdgeId::new(victim.graph, eid)))
            {
                Some(w) => w.start >= vfinish,
                None => true,
            }
        }) && vgraph.successors(victim.task).all(|(_, edge)| {
            let consumer = GlobalTaskId::new(victim.graph, edge.to);
            match self.arch.board.window(Occupant::Task(consumer)) {
                // Same-PE consumers with no edge in between.
                Some(w) => w.start >= vfinish || self.pe_of_task(consumer) != Some(pid),
                None => true,
            }
        })
    }

    /// Schedules an inter-PE edge on a link connecting `src_pe` and
    /// `dst_pe`. Link options are tried in order of (incremental cost,
    /// transfer time): a link already joining the pair, then extendable
    /// existing links, then a new instance of each library type. Because a
    /// fresh link of the fastest type is always among the options, an edge
    /// that fits its [`AllocBounds`] communication budget always places — the
    /// property that keeps acceptance estimates sound.
    ///
    /// Edge durations are budgeted with the worst-case (fully-populated)
    /// medium access, so later port attachments never invalidate placed
    /// transfers.
    ///
    /// Returns the arrival (edge finish) time, or `None` when no option
    /// fits within `limit`.
    #[allow(clippy::too_many_arguments)]
    fn place_edge(
        &mut self,
        geid: GlobalEdgeId,
        src_pe: PeInstanceId,
        dst_pe: PeInstanceId,
        bytes: u64,
        ready: Nanos,
        period: Nanos,
        limit: Nanos,
    ) -> Option<Nanos> {
        let occupant = Occupant::Edge(geid);
        // Already placed (both endpoints were placed in an earlier step).
        if let Some(w) = self.arch.board.window(occupant) {
            return Some(w.finish);
        }

        /// One way to realise the connection.
        enum LinkOption {
            Use(LinkInstanceId),
            Extend(LinkInstanceId, PeInstanceId),
            Create(crusade_model::LinkTypeId),
        }
        let mut options: Vec<(Dollars, Nanos, LinkOption)> = Vec::new();
        for (id, l) in self.arch.links() {
            let has_src = l.attached.contains(&src_pe);
            let has_dst = l.attached.contains(&dst_pe);
            let dur = self.lib.link(l.ty).worst_transfer_time(bytes);
            if has_src && has_dst {
                options.push((Dollars::ZERO, dur, LinkOption::Use(id)));
            } else if (has_src || has_dst)
                && u32::try_from(l.attached.len()).unwrap_or(u32::MAX)
                    < self.lib.link(l.ty).max_ports()
            {
                let missing = if has_src { dst_pe } else { src_pe };
                options.push((Dollars::ZERO, dur, LinkOption::Extend(id, missing)));
            }
        }
        for (ty, l) in self.lib.links() {
            options.push((
                l.cost(),
                l.worst_transfer_time(bytes),
                LinkOption::Create(ty),
            ));
        }
        options.sort_by_key(|&(cost, dur, _)| (cost, dur));

        // CPU ends without a communication coprocessor are busy driving
        // the transfer ("the communication and computation can go on
        // simultaneously if supported by associated hardware components"
        // — Section 2.2), so those processors must be free for the same
        // window the link is.
        let needs_cpu = |pid: PeInstanceId| {
            self.lib
                .pe(self.arch.pe(pid).ty)
                .as_cpu()
                .map(|c| !c.comm_overlap)
                .unwrap_or(false)
        };
        let mut cpu_sides: Vec<(crusade_sched::ResourceId, Occupant)> = Vec::new();
        if needs_cpu(src_pe) {
            cpu_sides.push((
                self.arch.pe(src_pe).resource,
                Occupant::CpuTransfer {
                    edge: geid,
                    receiver: false,
                },
            ));
        }
        if needs_cpu(dst_pe) {
            cpu_sides.push((
                self.arch.pe(dst_pe).resource,
                Occupant::CpuTransfer {
                    edge: geid,
                    receiver: true,
                },
            ));
        }

        for (_, dur, option) in options {
            let dur = dur.max(Nanos::from_nanos(1));
            let latest_start = limit.saturating_sub(dur);
            if ready > latest_start {
                continue;
            }
            // Materialise the link lazily: for Create this instantiates
            // hardware, which is retired below if the slot search fails
            // (the slot is new in this attempt, so undoing its creation
            // also undoes the retirement).
            let (link_resource, created) = match &option {
                LinkOption::Use(id) | LinkOption::Extend(id, _) => {
                    (self.arch.link(*id).resource, None)
                }
                LinkOption::Create(ty) => {
                    let id = self.journal.add_link(&mut self.arch, *ty, [src_pe, dst_pe]);
                    (self.arch.link(id).resource, Some(id))
                }
            };
            let slot = find_transfer_slot(
                &self.arch.board,
                link_resource,
                &cpu_sides,
                ready,
                dur,
                period,
                latest_start,
            );
            if let Some(start) = slot {
                // The fixpoint search verified the slot on every
                // resource, but treat placement defensively: if any leg
                // disagrees, roll this option's legs back and continue
                // with the next instead of panicking mid-synthesis.
                let legs = self.journal.mark(&self.arch);
                let placed = std::iter::once((link_resource, occupant))
                    .chain(cpu_sides.iter().copied())
                    .all(|(r, occ)| {
                        self.journal
                            .place(&mut self.arch, r, occ, start, dur, period, start)
                            .is_some()
                    });
                if placed {
                    if let LinkOption::Extend(id, missing) = option {
                        self.journal.attach(&mut self.arch, id, missing);
                    }
                    return Some(start + dur);
                }
                self.journal.rollback(&mut self.arch, legs);
            }
            if let Some(id) = created {
                self.arch.link_mut(id).retired = true;
            }
        }
        None
    }

    /// Estimated finish times for graph `g` against the current board:
    /// exact windows where placed, *worst-case* execution estimates for
    /// unplaced tasks — conservative acceptance, so accepting a cluster
    /// now cannot strand a later cluster of the same graph (whatever PE
    /// type that cluster ends up on, it can do no worse than the slowest
    /// entry of its execution vector).
    fn estimate_graph_finishes(&self, g: GraphId) -> Vec<Nanos> {
        let board = &self.arch.board;
        let slowest = &self.bounds.slowest[g.index()];
        let comm = &self.bounds.comm[g.index()];
        estimate_finish_times(
            self.spec.graph(g),
            |t| board.window(Occupant::Task(GlobalTaskId::new(g, t))),
            |t| slowest[t.index()],
            |e| board.window(Occupant::Edge(GlobalEdgeId::new(g, e))),
            |e| comm[e.index()],
        )
    }

    /// The PE instance hosting a placed task.
    fn pe_of_task(&self, gt: GlobalTaskId) -> Option<PeInstanceId> {
        let r = self.arch.board.resource_of(Occupant::Task(gt))?;
        self.arch
            .pes()
            .find(|(_, p)| p.resource == r)
            .map(|(id, _)| id)
    }

    /// Public window lookup used by the synthesis driver's reporting.
    pub fn window_of(&self, gt: GlobalTaskId) -> Option<Window> {
        self.arch.board.window(Occupant::Task(gt))
    }
}

/// Finds the earliest start `>= ready` at which the link *and* every
/// coprocessor-less endpoint CPU are simultaneously free for `dur`.
///
/// Alternating fixpoint search: each resource proposes its earliest free
/// slot at or after the current candidate; when all propose the same
/// instant, that instant works for everyone. The iteration cap bounds
/// pathological ping-ponging (treated as "no slot").
fn find_transfer_slot(
    board: &crusade_sched::ScheduleBoard,
    link: crusade_sched::ResourceId,
    cpu_sides: &[(crusade_sched::ResourceId, Occupant)],
    ready: Nanos,
    dur: Nanos,
    period: Nanos,
    latest_start: Nanos,
) -> Option<Nanos> {
    let mut t = ready;
    for _ in 0..12 {
        let s = board.find_slot(link, t, dur, period, latest_start)?;
        let mut agreed = s;
        for &(r, _) in cpu_sides {
            agreed = agreed.max(board.find_slot(r, agreed, dur, period, latest_start)?);
        }
        if agreed == s {
            return Some(s);
        }
        t = agreed;
    }
    None
}

#[cfg(test)]
#[path = "rollback_tests.rs"]
mod rollback_tests;
