//! Mutation self-tests of the auditor: corrupt one invariant of a
//! known-good architecture through the public board/architecture API and
//! assert the auditor reports exactly that violation class. This is the
//! evidence that a clean audit means something — each check provably
//! fires on the defect it claims to catch.

// Test code: helpers unwrap and cast freely on controlled inputs.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use crusade_core::{CoSynthesis, CosynOptions, SynthesisResult};
use crusade_model::{GlobalTaskId, HwDemand, Nanos, SystemSpec};
use crusade_sched::{Occupant, PeriodicInterval};
use crusade_verify::audit;
use crusade_workloads::{paper_examples, paper_library, PaperLibrary};

struct Fixture {
    lib: PaperLibrary,
    spec: SystemSpec,
    options: CosynOptions,
    result: SynthesisResult,
}

fn fixture(options: CosynOptions) -> Fixture {
    let lib = paper_library();
    let spec = paper_examples()[0].build(&lib);
    let result = CoSynthesis::new(&spec, &lib.lib)
        .with_options(options.clone())
        .run()
        .expect("A1TR synthesis");
    Fixture {
        lib,
        spec,
        options,
        result,
    }
}

impl Fixture {
    fn kinds(&self) -> Vec<&'static str> {
        audit(&self.spec, &self.lib.lib, &self.options, &self.result)
            .iter()
            .map(|v| v.kind())
            .collect()
    }

    fn assert_catches(&self, expected: &str) {
        let kinds = self.kinds();
        assert!(
            kinds.contains(&expected),
            "auditor missed the injected {expected}; reported: {kinds:?}"
        );
    }

    /// Moves a placed occupant to a new start on its own resource,
    /// keeping duration and period.
    fn shift_to(&mut self, occ: Occupant, start: Nanos) {
        let board = &mut self.result.architecture.board;
        let resource = board.resource_of(occ).expect("occupant placed");
        let iv = *board.interval(occ).expect("occupant placed");
        board.remove(occ);
        board.record(
            resource,
            occ,
            PeriodicInterval::new(start, iv.duration(), iv.period()),
        );
    }
}

#[test]
fn unplaced_task_is_caught() {
    let mut f = fixture(CosynOptions::without_reconfiguration());
    let victim = f
        .result
        .architecture
        .board
        .placements()
        .find_map(|(o, _, _)| match o {
            Occupant::Task(_) => Some(o),
            _ => None,
        })
        .expect("at least one placed task");
    f.result.architecture.board.remove(victim);
    f.assert_catches("missing-placement");
}

#[test]
fn late_finish_is_caught() {
    let mut f = fixture(CosynOptions::without_reconfiguration());
    // A sink task (no successors) can be moved late without disturbing
    // downstream precedence, so the deadline check fires in isolation.
    let mut victim = None;
    'outer: for (g, graph) in f.spec.graphs() {
        for (t, _) in graph.tasks() {
            if graph.successors(t).next().is_none() && graph.effective_deadline(t).is_some() {
                victim = Some((Occupant::Task(GlobalTaskId::new(g, t)), {
                    graph.est() + graph.effective_deadline(t).unwrap()
                }));
                break 'outer;
            }
        }
    }
    let (occ, absolute_deadline) = victim.expect("a sink task with a deadline");
    f.shift_to(occ, absolute_deadline); // finish = deadline + duration > deadline
    f.assert_catches("deadline-miss");
}

#[test]
fn early_consumer_is_caught() {
    let mut f = fixture(CosynOptions::without_reconfiguration());
    // Any consumer moved to time zero starts before its input: the
    // producer's finish (and any transfer window) is strictly positive.
    let (g, graph) = f.spec.graphs().next().expect("a graph");
    let (_, edge) = graph.edges().next().expect("an edge");
    let occ = Occupant::Task(GlobalTaskId::new(g, edge.to));
    f.shift_to(occ, Nanos::ZERO);
    f.assert_catches("precedence-violated");
}

#[test]
fn cpu_double_booking_is_caught() {
    let mut f = fixture(CosynOptions::without_reconfiguration());
    // Find a CPU engine hosting at least two tasks and pile the second
    // onto the first's slot.
    let mut found = None;
    for (_, pe) in f.result.architecture.pes() {
        if !matches!(f.lib.lib.pe(pe.ty).class(), crusade_model::PeClass::Cpu(_)) {
            continue;
        }
        let tasks: Vec<(Occupant, PeriodicInterval)> = f
            .result
            .architecture
            .board
            .occupants_on(pe.resource)
            .filter(|(o, _)| matches!(o, Occupant::Task(_)))
            .map(|(o, iv)| (o, *iv))
            .collect();
        if tasks.len() >= 2 {
            found = Some((tasks[0].1.start(), tasks[1].0));
            break;
        }
    }
    let (start, victim) = found.expect("a CPU with two resident tasks");
    f.shift_to(victim, start);
    f.assert_catches("resource-collision");
}

#[test]
fn overlapping_images_are_caught() {
    let mut f = fixture(CosynOptions::default());
    // On a merged device, drag a task of image 1 into the activity span
    // of image 0: the re-derived envelopes now collide.
    let mut mutation = None;
    'outer: for (_, pe) in f.result.architecture.pes() {
        if pe.modes.len() < 2 {
            continue;
        }
        let (m0, m1) = (&pe.modes[0], &pe.modes[1]);
        for &c1 in &m1.clusters {
            let k1 = f.result.clustering.cluster(c1);
            if m0.graphs.contains(&k1.graph) {
                continue; // shared graph: exempt from disjointness
            }
            for &c0 in &m0.clusters {
                let k0 = f.result.clustering.cluster(c0);
                if m1.graphs.contains(&k0.graph) {
                    continue;
                }
                let board = &f.result.architecture.board;
                let victim = Occupant::Task(GlobalTaskId::new(k1.graph, k1.tasks[0]));
                let anchor = Occupant::Task(GlobalTaskId::new(k0.graph, k0.tasks[0]));
                if let (Some(_), Some(w)) = (board.window(victim), board.window(anchor)) {
                    mutation = Some((victim, w.start));
                    break 'outer;
                }
            }
        }
    }
    let (victim, start) = mutation.expect("a merged device with unshared graphs");
    f.shift_to(victim, start);
    f.assert_catches("modes-overlap");
}

#[test]
fn stale_hw_bookkeeping_is_caught() {
    let mut f = fixture(CosynOptions::default());
    let victim = f
        .result
        .architecture
        .pes()
        .find_map(|(pid, pe)| {
            pe.modes
                .iter()
                .position(|m| m.used_hw != HwDemand::ZERO)
                .map(|m| (pid, m))
        })
        .expect("a mode with nonzero hardware demand");
    f.result.architecture.pe_mut(victim.0).modes[victim.1].used_hw = HwDemand::ZERO;
    f.assert_catches("mode-bookkeeping");
}

#[test]
fn dropped_interface_is_caught() {
    let mut f = fixture(CosynOptions::default());
    assert!(
        f.result.architecture.interface.is_some(),
        "reconfiguration synthesis should pick an interface"
    );
    f.result.architecture.interface = None;
    f.assert_catches("interface-missing");
}

#[test]
fn replicated_cluster_is_caught() {
    let mut f = fixture(CosynOptions::without_reconfiguration());
    let mut homes = f.result.architecture.pes().filter_map(|(pid, pe)| {
        pe.modes
            .first()
            .and_then(|m| m.clusters.first().copied())
            .map(|c| (pid, c))
    });
    let (_, stolen) = homes.next().expect("a populated device");
    let (thief, _) = homes.next().expect("a second populated device");
    drop(homes);
    f.result.architecture.pe_mut(thief).modes[0]
        .clusters
        .push(stolen);
    f.assert_catches("cluster-replicated");
}

#[test]
fn over_attached_link_is_caught() {
    let mut f = fixture(CosynOptions::without_reconfiguration());
    let (victim, ty) = f
        .result
        .architecture
        .links()
        .map(|(lid, link)| (lid, link.ty))
        .next()
        .expect("a live link");
    let max_ports = f.lib.lib.link(ty).max_ports() as usize;
    let pes: Vec<_> = f.result.architecture.pes().map(|(pid, _)| pid).collect();
    let attached = &mut f.result.architecture.link_mut(victim).attached;
    for &pid in pes.iter().cycle() {
        if attached.len() > max_ports {
            break;
        }
        attached.push(pid);
    }
    f.assert_catches("link-ports-exceeded");
}

#[test]
fn untouched_architecture_audits_clean() {
    let f = fixture(CosynOptions::default());
    assert_eq!(f.kinds(), Vec::<&str>::new());
}
