//! The restricted-preemption scenario of Section 5: a one-CPU library, a
//! low-priority background chain and an urgent task that only preemption
//! (or a second CPU) can fit. Shared by `tests/preemption.rs` and the
//! allocator's rollback tests.

use crusade_model::{
    CpuAttrs, Dollars, ExecutionTimes, LinkClass, LinkType, Nanos, PeClass, PeType, PeTypeId,
    ResourceLibrary, SystemConstraints, Task, TaskGraph, TaskGraphBuilder,
};

pub fn library() -> ResourceLibrary {
    let mut lib = ResourceLibrary::new();
    lib.add_pe(PeType::new(
        "cpu",
        Dollars::new(100),
        PeClass::Cpu(CpuAttrs {
            memory_bytes: 4 << 20,
            context_switch: Nanos::from_micros(10),
            comm_ports: 2,
            comm_overlap: true,
        }),
    ));
    lib.add_link(LinkType::new(
        "bus",
        Dollars::new(10),
        LinkClass::Bus,
        8,
        vec![Nanos::from_nanos(300)],
        64,
        Nanos::from_micros(1),
    ));
    lib
}

/// A two-task chain whose *cluster* carries top priority (the head has a
/// very tight own deadline) but whose long tail task itself has slack up
/// to the graph `deadline` — the designated preemption victim.
pub fn chain(name: &str, deadline: Nanos) -> TaskGraph {
    let mut b = TaskGraphBuilder::new(name, Nanos::from_millis(10));
    let mut head = Task::new(
        "head",
        ExecutionTimes::from_entries(1, [(PeTypeId::new(0), Nanos::from_micros(500))]),
    );
    head.deadline = Some(Nanos::from_millis(1));
    let head = b.add_task(head);
    let tail = b.add_task(Task::new(
        "bulk",
        ExecutionTimes::from_entries(1, [(PeTypeId::new(0), Nanos::from_millis(6))]),
    ));
    b.add_edge(head, tail, 16);
    b.deadline(deadline).build().unwrap()
}

/// The background chain with deep slack: preempting its bulk task is
/// harmless.
pub fn background() -> TaskGraph {
    chain("background", Nanos::from_millis(10))
}

/// The background chain with a deadline preemption would break:
/// finishing at 0.5 + 6 = 6.5 ms leaves no room for a 0.55 ms
/// preemption hit under a 6.6 ms graph deadline.
pub fn tight_background() -> TaskGraph {
    chain("tightbg", Nanos::from_micros(6_600))
}

/// An urgent short task released mid-way through the bulk task's window,
/// with a deadline only preemption (or a second CPU) can meet. Its
/// priority sits between the head's and the bulk's, so its cluster
/// allocates *after* the background chain is already placed.
pub fn urgent() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("urgent", Nanos::from_millis(10));
    b.add_task(Task::new(
        "alarm",
        ExecutionTimes::from_entries(1, [(PeTypeId::new(0), Nanos::from_micros(500))]),
    ));
    b.est(Nanos::from_millis(2))
        .deadline(Nanos::from_micros(1_200))
        .build()
        .unwrap()
}

pub fn constraints() -> SystemConstraints {
    SystemConstraints {
        boot_time_requirement: Nanos::from_millis(5),
        preemption_overhead: Nanos::from_micros(50),
        average_link_ports: 2,
    }
}
