//! Property-based validation of the periodic-interval scheduler.
//!
//! The association-array scheduling shortcut is only sound if the O(1)
//! collision predicate agrees with naive unrolling of all task copies over
//! the hyperperiod. These tests check that equivalence exhaustively on
//! randomly drawn interval pairs, plus timeline-level invariants. Two
//! differential tests pin the board's fast paths to plain references: the
//! slot search to the pass-by-pass search with `i128` collision
//! arithmetic it replaced, and the dense occupant index to a `BTreeMap`.

// Test code: helpers unwrap and cast freely on controlled inputs.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use std::collections::BTreeMap;

use crusade_model::{EdgeId, GlobalEdgeId, GlobalTaskId, GraphId, Nanos, TaskId};
use crusade_sched::{Occupant, PeriodicInterval, ResourceId, ScheduleBoard, Timeline, Window};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde::Serialize;

/// Naive ground truth: unroll both intervals over one common hyperperiod
/// (plus guard copies either side) and test every pair of occurrences.
fn naive_collides(s1: u64, d1: u64, p1: u64, s2: u64, d2: u64, p2: u64) -> bool {
    let g = {
        let (mut a, mut b) = (p1, p2);
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    };
    let gamma = p1 / g * p2;
    for k1 in 0..(gamma / p1) {
        for k2 in 0..(gamma / p2) {
            for shift in [-(gamma as i128), 0, gamma as i128] {
                let a0 = (s1 + k1 * p1) as i128;
                let b0 = (s2 + k2 * p2) as i128 + shift;
                if a0 < b0 + d2 as i128 && b0 < a0 + d1 as i128 {
                    return true;
                }
            }
        }
    }
    false
}

/// Strategy producing a (start, duration, period) triple with period drawn
/// from divisors of a small hyperperiod so that cross-period gcds vary.
fn interval() -> impl Strategy<Value = (u64, u64, u64)> {
    // Periods from a menu with interesting gcd structure.
    let periods = prop::sample::select(vec![6u64, 8, 12, 18, 20, 24, 30, 36, 60]);
    periods.prop_flat_map(|p| (0..p, 1..=p).prop_map(move |(s, d)| (s, d, p)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The O(1) collision predicate agrees with naive unrolling.
    #[test]
    fn collision_matches_naive((s1, d1, p1) in interval(), (s2, d2, p2) in interval()) {
        let a = PeriodicInterval::new(
            Nanos::from_nanos(s1), Nanos::from_nanos(d1), Nanos::from_nanos(p1));
        let b = PeriodicInterval::new(
            Nanos::from_nanos(s2), Nanos::from_nanos(d2), Nanos::from_nanos(p2));
        prop_assert_eq!(a.collides(&b), naive_collides(s1, d1, p1, s2, d2, p2));
        // Symmetry.
        prop_assert_eq!(a.collides(&b), b.collides(&a));
    }

    /// earliest_clear returns a non-colliding start no earlier than `from`,
    /// and the interval (from, earliest) contains no feasible start it
    /// skipped over (checked by sampling).
    #[test]
    fn earliest_clear_is_sound((s1, d1, p1) in interval(), (s2, d2, p2) in interval(), from in 0u64..64) {
        let probe = PeriodicInterval::new(
            Nanos::from_nanos(s1), Nanos::from_nanos(d1), Nanos::from_nanos(p1));
        let other = PeriodicInterval::new(
            Nanos::from_nanos(s2), Nanos::from_nanos(d2), Nanos::from_nanos(p2));
        match probe.earliest_clear(&other, Nanos::from_nanos(from)) {
            Some(t) => {
                prop_assert!(t >= Nanos::from_nanos(from));
                let placed = PeriodicInterval::new(t, probe.duration(), probe.period());
                prop_assert!(!placed.collides(&other));
                // Minimality: every earlier start collides.
                for earlier in from..t.as_nanos() {
                    let e = PeriodicInterval::new(
                        Nanos::from_nanos(earlier), probe.duration(), probe.period());
                    prop_assert!(e.collides(&other), "skipped feasible start {earlier}");
                }
            }
            None => {
                // Infeasible forever: durations must jointly exceed the gcd.
                let g = {
                    let (mut a, mut b) = (p1, p2);
                    while b != 0 { let t = a % b; a = b; b = t; }
                    a
                };
                prop_assert!(d1 + d2 > g);
            }
        }
    }

    /// No two occupants of a timeline ever collide, whatever the placement
    /// order; and placements never start before their ready time.
    #[test]
    fn timeline_placements_disjoint(
        requests in prop::collection::vec(
            (0u64..48, 1u64..12, prop::sample::select(vec![12u64, 24, 48]), 0u64..48),
            1..12,
        )
    ) {
        let mut tl = Timeline::new();
        let mut placed = Vec::new();
        for (i, (_, d, p, ready)) in requests.iter().enumerate() {
            let occ = Occupant::Task(GlobalTaskId::new(GraphId::new(0), TaskId::new(i)));
            if let Some(start) = tl.place(
                occ,
                Nanos::from_nanos(*ready),
                Nanos::from_nanos(*d),
                Nanos::from_nanos(*p),
                Nanos::MAX,
            ) {
                prop_assert!(start >= Nanos::from_nanos(*ready));
                placed.push(PeriodicInterval::new(start, Nanos::from_nanos(*d), Nanos::from_nanos(*p)));
            }
        }
        for i in 0..placed.len() {
            for j in (i + 1)..placed.len() {
                prop_assert!(!placed[i].collides(&placed[j]));
            }
        }
    }

    /// Board-level bookkeeping: remove undoes place exactly.
    #[test]
    fn board_place_remove_roundtrip(
        requests in prop::collection::vec((1u64..10, prop::sample::select(vec![20u64, 40])), 1..8)
    ) {
        let mut board = ScheduleBoard::new();
        let r = board.add_resource();
        let mut occs = Vec::new();
        for (i, (d, p)) in requests.iter().enumerate() {
            let occ = Occupant::Task(GlobalTaskId::new(GraphId::new(1), TaskId::new(i)));
            if board
                .place(r, occ, Nanos::ZERO, Nanos::from_nanos(*d), Nanos::from_nanos(*p), Nanos::MAX)
                .is_some()
            {
                occs.push(occ);
            }
        }
        let count = board.placement_count();
        prop_assert_eq!(count, occs.len());
        for occ in &occs {
            prop_assert!(board.remove(*occ));
        }
        prop_assert_eq!(board.placement_count(), 0);
        prop_assert!(board.timeline(r).is_empty());
    }
}

/// The slot search as it stood before its per-occupant residues were
/// hoisted: the pass loop, the first-blocker scan and the jump, with the
/// `i128` collision arithmetic, copied from the old `Timeline::find_slot`,
/// `PeriodicInterval::collides` and `PeriodicInterval::earliest_clear`.
/// The hoisted search must give the same answer to every query, including
/// every `None` the `4·n + 8` pass cap produces.
mod reference {
    use crusade_model::hyperperiod::gcd;
    use crusade_model::Nanos;
    use crusade_sched::PeriodicInterval;

    fn collides(this: &PeriodicInterval, other: &PeriodicInterval) -> bool {
        let g = gcd(this.period(), other.period());
        let d = this.duration().as_nanos();
        let d2 = other.duration().as_nanos();
        let g_ns = g.as_nanos();
        if d + d2 > g_ns {
            // The two patterns cannot avoid each other at all.
            return true;
        }
        let r = signed_mod(
            other.start().as_nanos() as i128 - this.start().as_nanos() as i128,
            g_ns,
        );
        r < d || g_ns - r < d2
    }

    fn earliest_clear(
        this: &PeriodicInterval,
        other: &PeriodicInterval,
        from: Nanos,
    ) -> Option<Nanos> {
        let probe = PeriodicInterval::new(from, this.duration(), this.period());
        if !collides(&probe, other) {
            return Some(from);
        }
        let g = gcd(this.period(), other.period()).as_nanos();
        let d = this.duration().as_nanos();
        let d2 = other.duration().as_nanos();
        if d + d2 > g {
            return None;
        }
        let r0 = signed_mod(
            other.start().as_nanos() as i128 - from.as_nanos() as i128,
            g,
        );
        debug_assert!(r0 < d || g - r0 < d2);
        let x = if r0 > g - d2 {
            // Decrease r down to the top of the clear region, g − d2.
            r0 - (g - d2)
        } else {
            // r0 < d: decrease past zero, wrapping to g − 1, down to g − d2.
            r0 + d2
        };
        Some(from + Nanos::from_nanos(x))
    }

    /// `v mod m` with a non-negative result, for possibly-negative `v`.
    fn signed_mod(v: i128, m: u64) -> u64 {
        let m = m as i128;
        (((v % m) + m) % m) as u64
    }

    pub fn find_slot(
        placed: &[PeriodicInterval],
        ready: Nanos,
        duration: Nanos,
        period: Nanos,
        limit: Nanos,
    ) -> Option<Nanos> {
        let mut t = ready;
        let max_passes = 4 * placed.len() + 8;
        for _ in 0..max_passes {
            let probe = PeriodicInterval::new(t, duration, period);
            match placed.iter().find(|p| collides(&probe, p)) {
                None => return if t <= limit { Some(t) } else { None },
                Some(blocker) => {
                    t = earliest_clear(&probe, blocker, t)?;
                    if t > limit {
                        return None;
                    }
                }
            }
        }
        None
    }
}

/// A timeline built by placing `requests` — `(ready, duration, period)`,
/// those that do not fit are skipped — and its intervals in order.
fn placed_timeline(requests: &[(u64, u64, u64)]) -> (Timeline, Vec<PeriodicInterval>) {
    let mut tl = Timeline::new();
    for (i, &(ready, d, p)) in requests.iter().enumerate() {
        let occ = Occupant::Task(GlobalTaskId::new(GraphId::new(0), TaskId::new(i)));
        let _ = tl.place(
            occ,
            Nanos::from_nanos(ready),
            Nanos::from_nanos(d),
            Nanos::from_nanos(p),
            Nanos::MAX,
        );
    }
    let intervals = tl.iter().map(|p| p.interval).collect();
    (tl, intervals)
}

/// Asserts that `tl.find_slot` and the reference agree on one query.
fn agrees_with_reference(
    tl: &Timeline,
    intervals: &[PeriodicInterval],
    (ready, duration, period, limit): (u64, u64, u64, Nanos),
) -> Result<(), TestCaseError> {
    let (ready, duration, period) = (
        Nanos::from_nanos(ready),
        Nanos::from_nanos(duration),
        Nanos::from_nanos(period),
    );
    prop_assert_eq!(
        tl.find_slot(ready, duration, period, limit),
        reference::find_slot(intervals, ready, duration, period, limit),
        "ready {} duration {} period {} limit {} on {:?}",
        ready,
        duration,
        period,
        limit,
        intervals
    );
    Ok(())
}

/// A search limit: `Nanos::MAX` or an instant that may lie before the
/// ready time.
fn limit() -> impl Strategy<Value = Nanos> {
    (0u8..4, 0u64..240).prop_map(|(kind, v)| {
        if kind == 0 {
            Nanos::MAX
        } else {
            Nanos::from_nanos(v)
        }
    })
}

/// A board occupant of any kind, in graphs 0–4, with ids drawn sparse and
/// in any order so that the index's per-graph tables grow after use.
fn occupant() -> impl Strategy<Value = Occupant> {
    let ids = prop::sample::select(vec![0usize, 1, 4, 9, 17, 30, 38]);
    (0u8..4, 0usize..5, ids, 0u8..2).prop_map(|(kind, graph, id, flag)| {
        let g = GraphId::new(graph);
        let edge = GlobalEdgeId::new(g, EdgeId::new(id));
        match kind {
            0 => Occupant::Task(GlobalTaskId::new(g, TaskId::new(id))),
            1 => Occupant::Edge(edge),
            2 => Occupant::CpuTransfer {
                edge,
                receiver: flag == 1,
            },
            _ => Occupant::Reboot {
                pe_instance: graph as u32,
                mode: id as u32,
            },
        }
    })
}

type Model = BTreeMap<Occupant, (ResourceId, PeriodicInterval)>;

/// Asserts that `board` holds exactly what `model` does, through every
/// read the board offers.
fn matches_model(
    board: &ScheduleBoard,
    model: &Model,
    resources: usize,
    universe: &[Occupant],
) -> Result<(), TestCaseError> {
    for &o in universe {
        let slot = model.get(&o);
        prop_assert_eq!(
            board.window(o),
            slot.map(|(_, iv)| Window::new(iv.start(), iv.finish()))
        );
        prop_assert_eq!(board.interval(o), slot.map(|(_, iv)| iv));
        prop_assert_eq!(board.resource_of(o), slot.map(|(r, _)| *r));
    }
    prop_assert_eq!(board.placement_count(), model.len());
    prop_assert_eq!(board.resource_count(), resources);
    let placements: Vec<_> = board.placements().map(|(o, r, iv)| (o, r, *iv)).collect();
    let expected: Vec<_> = model.iter().map(|(o, (r, iv))| (*o, *r, *iv)).collect();
    prop_assert_eq!(placements, expected);
    for r in (0..resources).map(ResourceId::new) {
        let on: Vec<_> = board.occupants_on(r).map(|(o, iv)| (o, *iv)).collect();
        let expected: Vec<_> = model
            .iter()
            .filter(|(_, (mr, _))| *mr == r)
            .map(|(o, (_, iv))| (*o, *iv))
            .collect();
        prop_assert_eq!(on, expected);
    }
    let serialized = board.serialize_value();
    prop_assert_eq!(serialized.get("index"), Some(&model.serialize_value()));
    let debug = format!("{board:?}");
    prop_assert!(
        debug.contains(&format!("index: {model:?}, observer")),
        "Debug shows more than the placed occupants: {}",
        debug
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// On crowded timelines with mixed-gcd periods, the slot search gives
    /// the reference's answer to every query.
    #[test]
    fn find_slot_matches_reference(
        requests in prop::collection::vec((0u64..120, interval()), 0..40),
        queries in prop::collection::vec((0u64..240, interval(), limit()), 1..8),
    ) {
        let requests: Vec<_> = requests.iter().map(|&(ready, (_, d, p))| (ready, d, p)).collect();
        let (tl, intervals) = placed_timeline(&requests);
        for (ready, (_, d, p), limit) in queries {
            agrees_with_reference(&tl, &intervals, (ready, d, p, limit))?;
        }
    }

    /// Few short occupants with long, mixed periods and long probes: the
    /// clear windows are narrow, so searches take many passes and the
    /// pass cap fires. The answers still match the reference's.
    #[test]
    fn find_slot_matches_reference_when_passes_run_long(
        requests in prop::collection::vec(
            (
                0u64..400,
                1u64..=10,
                prop::sample::select(vec![90u64, 100, 120, 150, 180, 200, 225, 300, 360]),
            ),
            1..6,
        ),
        queries in prop::collection::vec(
            (0u64..400, 30u64..100, prop::sample::select(vec![1800u64, 3600]), limit()),
            1..8,
        ),
    ) {
        let (tl, intervals) = placed_timeline(&requests);
        for (ready, d, p, limit) in queries {
            agrees_with_reference(&tl, &intervals, (ready, d, p, limit))?;
        }
    }

    /// The dense occupant index behaves as a `BTreeMap` from occupant to
    /// placement under any sequence of board mutations.
    #[test]
    fn board_index_matches_btreemap(
        steps in prop::collection::vec((0u8..7, occupant(), 0usize..4, interval()), 1..40),
    ) {
        let universe: Vec<Occupant> = steps.iter().map(|&(_, o, _, _)| o).collect();
        let mut board = ScheduleBoard::new();
        let mut model = Model::new();
        board.add_resource();
        let mut resources = 1;
        for (op, occ, pick, (start, d, p)) in steps {
            let interval = PeriodicInterval::new(
                Nanos::from_nanos(start), Nanos::from_nanos(d), Nanos::from_nanos(p));
            let resource = ResourceId::new(pick % resources.max(1));
            let placed = model.contains_key(&occ);
            match op {
                0 | 1 if resources > 0 && !placed => {
                    let ready = interval.start();
                    let start = board.place(
                        resource, occ, ready, interval.duration(), interval.period(), Nanos::MAX);
                    if let Some(start) = start {
                        let iv = PeriodicInterval::new(start, interval.duration(), interval.period());
                        model.insert(occ, (resource, iv));
                    }
                }
                2 if resources > 0 && !placed => {
                    board.record(resource, occ, interval);
                    model.insert(occ, (resource, interval));
                }
                3 => match board.take(occ) {
                    Some(taken) => {
                        let slot = model.remove(&occ).unwrap();
                        matches_model(&board, &model, resources, &universe)?;
                        board.restore(taken);
                        model.insert(occ, slot);
                    }
                    None => prop_assert!(!placed),
                },
                4 => prop_assert_eq!(board.remove(occ), model.remove(&occ).is_some()),
                5 => {
                    board.add_resource();
                    resources += 1;
                }
                6 => {
                    let last = resources.checked_sub(1).map(ResourceId::new);
                    let poppable = last.is_some_and(|last| model.values().all(|(r, _)| *r != last));
                    prop_assert_eq!(board.pop_resource(), poppable);
                    if poppable {
                        resources -= 1;
                    }
                }
                _ => {}
            }
            matches_model(&board, &model, resources, &universe)?;
        }
    }
}

/// The first free start `≥ ready` of a probe, by unrolling every
/// occupant against it over one probe period.
fn unrolled_first_fit(intervals: &[PeriodicInterval], ready: u64, d: u64, p: u64) -> Option<u64> {
    (ready..ready + p).find(|&t| {
        intervals.iter().all(|iv| {
            let (s2, d2, p2) = (
                iv.start().as_nanos(),
                iv.duration().as_nanos(),
                iv.period().as_nanos(),
            );
            !naive_collides(t, d, p, s2, d2, p2)
        })
    })
}

/// Two queries at the old search's `4·n + 8` pass cap, on two occupants
/// that leave long probes of period 1800 narrow clear windows, so each
/// pass moves the probe only past the next blocker. On the first, the
/// last allowed pass (16 of 16) finds the slot. The second would need a
/// 17th pass: the search reports no slot, although unrolling finds a free
/// start at 980. The hoisted search gives both answers.
#[test]
fn find_slot_keeps_the_pass_cap() {
    assert_cap_case(&[(273, 3, 90), (10, 2, 100)], 144, 85, 816, Some(816));
    assert_cap_case(&[(275, 3, 100), (258, 2, 90)], 274, 86, 980, None);
}

/// Places `requests`, then checks a probe of `duration` and period 1800
/// from `ready`: unrolling finds `free` first, and both searches answer
/// `answer`, with the limit unbounded or at `free`.
fn assert_cap_case(
    requests: &[(u64, u64, u64)],
    ready: u64,
    duration: u64,
    free: u64,
    answer: Option<u64>,
) {
    let period = 1800;
    let (tl, intervals) = placed_timeline(requests);
    let starts: Vec<u64> = intervals.iter().map(|iv| iv.start().as_nanos()).collect();
    let readies: Vec<u64> = requests.iter().map(|r| r.0).collect();
    assert_eq!(starts, readies, "every occupant placed where it was ready");
    assert_eq!(
        unrolled_first_fit(&intervals, ready, duration, period),
        Some(free)
    );
    let (ready, duration, period) = (
        Nanos::from_nanos(ready),
        Nanos::from_nanos(duration),
        Nanos::from_nanos(period),
    );
    let expected = answer.map(Nanos::from_nanos);
    for limit in [Nanos::MAX, Nanos::from_nanos(free)] {
        assert_eq!(
            reference::find_slot(&intervals, ready, duration, period, limit),
            expected
        );
        assert_eq!(tl.find_slot(ready, duration, period, limit), expected);
    }
}
