//! Preemptive scheduling coverage: the restricted preemption of Section 5
//! (evict a lower-priority software task, charge the preemption overhead
//! plus context switch, re-place the victim).

// Test code: helpers unwrap and cast freely on controlled inputs.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use crusade_core::{CoSynthesis, CosynOptions};
use crusade_model::{GlobalTaskId, GraphId, Nanos, SystemSpec, TaskId};
use crusade_sched::Occupant;

#[path = "support/preemption_spec.rs"]
mod preemption_spec;

use preemption_spec::{background, constraints, library, tight_background, urgent};

#[test]
fn urgent_task_preempts_background_on_one_cpu() {
    let lib = library();
    // Order matters: the background graph has lower priority (huge
    // slack), so the urgent cluster allocates *after* it and must carve
    // its window out of the middle of the bulk task.
    let spec = SystemSpec::new(vec![background(), urgent()]).with_constraints(constraints());
    let r = CoSynthesis::new(&spec, &lib).run().unwrap();
    assert_eq!(r.report.pe_count, 1, "preemption avoids a second CPU");
    // The urgent task runs inside its [2 ms, 3 ms] window.
    let w = r
        .architecture
        .board
        .window(Occupant::Task(GlobalTaskId::new(
            GraphId::new(1),
            TaskId::new(0),
        )))
        .unwrap();
    assert!(w.start >= Nanos::from_millis(2));
    assert!(w.finish <= Nanos::from_micros(3_200));
    // The preempted bulk task still exists and was charged the preemption
    // overhead: its busy time exceeds its raw execution time.
    let bw = r
        .architecture
        .board
        .interval(Occupant::Task(GlobalTaskId::new(
            GraphId::new(0),
            TaskId::new(1),
        )))
        .unwrap();
    assert!(
        bw.duration() >= Nanos::from_millis(6) + Nanos::from_micros(60),
        "victim pays preemption + context-switch overhead, got {}",
        bw.duration()
    );
}

#[test]
fn without_preemption_a_second_cpu_is_needed() {
    let lib = library();
    let spec = SystemSpec::new(vec![background(), urgent()]).with_constraints(constraints());
    let options = CosynOptions {
        preemption: false,
        ..CosynOptions::default()
    };
    let r = CoSynthesis::new(&spec, &lib)
        .with_options(options)
        .run()
        .unwrap();
    assert_eq!(
        r.report.pe_count, 2,
        "with preemption disabled the urgent task needs its own CPU"
    );
}

#[test]
fn preemption_respects_the_victims_deadline() {
    // Make the background task's own deadline tight enough that being
    // preempted would break it: the allocator must then scale out instead.
    let lib = library();
    let spec = SystemSpec::new(vec![tight_background(), urgent()]).with_constraints(constraints());
    let r = CoSynthesis::new(&spec, &lib).run().unwrap();
    // Preempting would push bulk past 6.05 ms; a second CPU appears and
    // every deadline still holds.
    assert_eq!(r.report.pe_count, 2);
}
