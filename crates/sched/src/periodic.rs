//! Periodic busy intervals and exact collision arithmetic.
//!
//! A task (or message) of a task graph with period *P* that is scheduled at
//! offset *s* for duration *d* occupies its processing element during
//! `[s + kP, s + kP + d)` for every activation *k* of the hyperperiod. The
//! paper's *association array* avoids materialising the Γ ÷ P copies of
//! each task; this module goes one step further and reasons about the
//! entire (bi-infinite) periodic occupancy pattern in O(1) using gcd
//! arithmetic, which is exact for the steady-state schedule because every
//! period divides the hyperperiod.
//!
//! The key fact: two periodic intervals `(s, d, P)` and `(s', d', P')`
//! overlap for *some* pair of activations iff, with `g = gcd(P, P')` and
//! `r = (s' − s) mod g`, either `r < d` or `g − r < d'`.

use serde::{Deserialize, Serialize};

use crusade_model::Nanos;

/// A periodically repeating half-open busy interval `[start + k·period,
/// start + k·period + duration)`.
///
/// # Examples
///
/// ```
/// use crusade_model::Nanos;
/// use crusade_sched::PeriodicInterval;
///
/// let a = PeriodicInterval::new(Nanos::from_nanos(0), Nanos::from_nanos(30), Nanos::from_nanos(100));
/// let b = PeriodicInterval::new(Nanos::from_nanos(50), Nanos::from_nanos(30), Nanos::from_nanos(100));
/// assert!(!a.collides(&b)); // [0,30) and [50,80) per 100 never meet
///
/// let c = PeriodicInterval::new(Nanos::from_nanos(20), Nanos::from_nanos(30), Nanos::from_nanos(100));
/// assert!(a.collides(&c)); // [0,30) overlaps [20,50)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeriodicInterval {
    start: Nanos,
    duration: Nanos,
    period: Nanos,
}

impl PeriodicInterval {
    /// Creates a periodic interval.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, if `duration` is zero, or if the
    /// duration exceeds the period (utilisation above one on a single
    /// resource can never be scheduled).
    pub fn new(start: Nanos, duration: Nanos, period: Nanos) -> Self {
        assert!(!period.is_zero(), "period must be nonzero");
        assert!(!duration.is_zero(), "duration must be nonzero");
        assert!(
            duration <= period,
            "duration {duration} exceeds period {period}"
        );
        PeriodicInterval {
            start,
            duration,
            period,
        }
    }

    /// Offset of the first occurrence.
    #[inline]
    pub fn start(&self) -> Nanos {
        self.start
    }

    /// Busy duration of each occurrence.
    #[inline]
    pub fn duration(&self) -> Nanos {
        self.duration
    }

    /// Finish instant of the first occurrence.
    #[inline]
    pub fn finish(&self) -> Nanos {
        self.start + self.duration
    }

    /// Repetition period.
    #[inline]
    pub fn period(&self) -> Nanos {
        self.period
    }

    /// Whether any occurrence of `self` overlaps any occurrence of
    /// `other`, over the whole (bi-infinite) periodic pattern.
    pub fn collides(&self, other: &PeriodicInterval) -> bool {
        let residue = Residue::new(self.duration, self.period, other);
        residue.always_collides() || residue.delay(self.start.as_nanos()) > 0
    }

    /// The earliest start `t ≥ from` at which an interval of `self`'s
    /// duration and period would *not* collide with `other`, or `None` if
    /// no such offset exists (the durations jointly exceed `gcd` of the
    /// periods, so every offset collides).
    ///
    /// Used by the timeline's first-fit search: when a candidate start
    /// collides, this computes the next start worth trying against this
    /// particular occupant.
    pub fn earliest_clear(&self, other: &PeriodicInterval, from: Nanos) -> Option<Nanos> {
        let residue = Residue::new(self.duration, self.period, other);
        (!residue.always_collides())
            .then(|| from + Nanos::from_nanos(residue.delay(from.as_nanos())))
    }
}

/// One occupant's periodic pattern as seen by probe intervals of a fixed
/// duration `d` and period `P`: the collision arithmetic of the module
/// docs with its gcd and start residue computed once, so a slot search
/// can test many probe starts against the occupant without repeating
/// them.
///
/// With `g = gcd(P, P')` and `r = (s' − t) mod g` for a probe starting at
/// `t`, the probe collides iff `r < d` (the occupant starts inside the
/// probe) or `g − r < d'` (the occupant's tail reaches into it). Clear
/// starts are those with `r ∈ [d, g − d']`, which is empty when
/// `d + d' > g`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Residue {
    /// `gcd(P, P')`.
    g: u64,
    /// The occupant's start `s' mod g`.
    start: u64,
    /// Probe duration `d`.
    duration: u64,
    /// Occupant duration `d'`.
    other_duration: u64,
}

impl Residue {
    /// The residue of `other` against probes of `duration` and `period`.
    pub(crate) fn new(duration: Nanos, period: Nanos, other: &PeriodicInterval) -> Self {
        let g = crusade_model::hyperperiod::gcd(period, other.period).as_nanos();
        Residue {
            g,
            start: other.start.as_nanos() % g,
            duration: duration.as_nanos(),
            other_duration: other.duration.as_nanos(),
        }
    }

    /// Whether every probe start collides: `d + d' > g`.
    pub(crate) fn always_collides(&self) -> bool {
        self.other_duration > self.g || self.duration > self.g - self.other_duration
    }

    /// How far a probe starting at `t` must move later to clear the
    /// occupant: 0 when it already does. Moving by less never clears it,
    /// so `t + delay(t)` is the earliest clear start `≥ t`.
    ///
    /// Callers check [`always_collides`](Self::always_collides) first:
    /// when it holds, no start clears the occupant.
    pub(crate) fn delay(&self, t: u64) -> u64 {
        let g = self.g;
        let t = t % g;
        // r = (s' − t) mod g, without leaving u64.
        let r = if self.start >= t {
            self.start - t
        } else {
            g - (t - self.start)
        };
        // r falls by one per unit the probe moves later, wrapping from 0
        // to g − 1; the top of the clear region is g − d'.
        let top = g - self.other_duration;
        if r > top {
            // The occupant's tail overlaps: step down to the top.
            r - top
        } else if r < self.duration {
            // The occupant starts inside the probe: wrap past zero down
            // to the top.
            r + self.other_duration
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pi(start: u64, dur: u64, period: u64) -> PeriodicInterval {
        PeriodicInterval::new(
            Nanos::from_nanos(start),
            Nanos::from_nanos(dur),
            Nanos::from_nanos(period),
        )
    }

    #[test]
    fn same_period_disjoint_offsets() {
        let a = pi(0, 10, 100);
        assert!(!a.collides(&pi(10, 10, 100)));
        assert!(!a.collides(&pi(90, 10, 100)));
        assert!(a.collides(&pi(95, 10, 100))); // wraps into [0,5)
        assert!(a.collides(&pi(5, 10, 100)));
        assert!(a.collides(&pi(0, 10, 100)));
    }

    #[test]
    fn harmonic_periods() {
        // a runs [0,10) every 50; b runs [20,30) every 100 -> never meet.
        let a = pi(0, 10, 50);
        let b = pi(20, 10, 100);
        assert!(!a.collides(&b));
        // c runs [55,65) every 100: its offset mod 50 is 5 -> overlaps a.
        let c = pi(55, 10, 100);
        assert!(a.collides(&c));
        assert!(c.collides(&a)); // symmetry
    }

    #[test]
    fn coprime_like_periods_with_tight_gcd() {
        // periods 60 and 90: gcd 30. durations 20 and 15 sum to 35 > 30:
        // unavoidable collision whatever the offsets.
        let a = pi(0, 20, 60);
        let b = pi(25, 15, 90);
        assert!(a.collides(&b));
        // durations 10 and 10 sum to 20 <= 30: offsets decide.
        let a = pi(0, 10, 60);
        let b = pi(10, 10, 90);
        assert!(!a.collides(&b)); // r = 10, clear region [10, 20]
        let c = pi(5, 10, 90);
        assert!(a.collides(&c));
    }

    #[test]
    fn collision_matches_naive_unrolling() {
        // Exhaustive cross-check against explicit copy enumeration over the
        // hyperperiod for a grid of cases.
        for &(s1, d1, p1, s2, d2, p2) in &[
            (0u64, 3u64, 12u64, 5u64, 2u64, 18u64),
            (1, 4, 12, 7, 3, 8),
            (0, 2, 6, 3, 2, 10),
            (2, 5, 20, 9, 5, 15),
            (0, 1, 4, 2, 1, 6),
            (3, 3, 9, 3, 3, 12),
        ] {
            let a = pi(s1, d1, p1);
            let b = pi(s2, d2, p2);
            let gamma = (p1
                / crusade_model::hyperperiod::gcd(Nanos::from_nanos(p1), Nanos::from_nanos(p2))
                    .as_nanos())
                * p2;
            let mut naive = false;
            'outer: for k in 0..(gamma / p1) {
                for k2 in 0..(gamma / p2) {
                    // Compare within one hyperperiod window, with wraparound
                    // handled by also checking shifted copies.
                    for shift in [0i128, gamma as i128, -(gamma as i128)] {
                        let a0 = (s1 + k * p1) as i128;
                        let b0 = (s2 + k2 * p2) as i128 + shift;
                        if a0 < b0 + d2 as i128 && b0 < a0 + d1 as i128 {
                            naive = true;
                            break 'outer;
                        }
                    }
                }
            }
            assert_eq!(
                a.collides(&b),
                naive,
                "mismatch for ({s1},{d1},{p1}) vs ({s2},{d2},{p2})"
            );
        }
    }

    #[test]
    fn earliest_clear_returns_noncolliding_start() {
        let occupied = pi(0, 30, 100);
        let probe = pi(0, 20, 100);
        let t = probe
            .earliest_clear(&occupied, Nanos::from_nanos(5))
            .unwrap();
        assert_eq!(t, Nanos::from_nanos(30));
        let placed = pi(t.as_nanos(), 20, 100);
        assert!(!placed.collides(&occupied));
    }

    #[test]
    fn earliest_clear_already_clear_is_identity() {
        let occupied = pi(0, 30, 100);
        let probe = pi(0, 20, 100);
        assert_eq!(
            probe.earliest_clear(&occupied, Nanos::from_nanos(40)),
            Some(Nanos::from_nanos(40))
        );
    }

    #[test]
    fn earliest_clear_wraps_past_zero() {
        // Occupied tail [90,100) wrapping; probe of 20 starting at 85
        // collides; next clear start is 0 mod 100... i.e. x = r0 + d2.
        let occupied = pi(90, 10, 100);
        let probe = pi(0, 20, 100);
        let t = probe
            .earliest_clear(&occupied, Nanos::from_nanos(85))
            .unwrap();
        let placed = pi(t.as_nanos(), 20, 100);
        assert!(!placed.collides(&occupied));
        assert!(t >= Nanos::from_nanos(85));
    }

    #[test]
    fn earliest_clear_impossible() {
        // gcd 10, durations 6 + 6 = 12 > 10: no offset works.
        let occupied = pi(0, 6, 20);
        let probe = pi(0, 6, 30);
        assert!(probe.earliest_clear(&occupied, Nanos::ZERO).is_none());
        assert!(probe.collides(&occupied));
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn duration_beyond_period_rejected() {
        let _ = pi(0, 101, 100);
    }

    #[test]
    fn full_period_occupancy_collides_with_everything() {
        let hog = pi(0, 100, 100);
        assert!(hog.collides(&pi(37, 1, 300)));
    }
}
