//! Energy accounting over virtual time.
//!
//! The paper measures energy by sampling instantaneous power with an
//! Agilent supply and integrating. In the simulator the power draw is a
//! piecewise-constant function of time (each RRC state, each CPU activity
//! level has a fixed wattage), so the integral is exact: the
//! [`EnergyMeter`] accumulates `power × duration` segments as the
//! simulation advances.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Exact integrator of a piecewise-constant power function.
///
/// Call [`EnergyMeter::advance_to`] with the power level that was in effect
/// *since the previous call*; the meter accumulates the corresponding
/// energy. Segments are also retained so traces (Figs. 1 and 9) can be
/// re-sampled at the testbed's 4 Hz.
///
/// # Example
///
/// ```
/// use ewb_simcore::{EnergyMeter, SimTime};
///
/// let mut m = EnergyMeter::new(SimTime::ZERO);
/// m.advance_to(SimTime::from_secs(4), 1.15);  // 4 s in DCH
/// m.advance_to(SimTime::from_secs(19), 0.63); // 15 s in FACH
/// assert!((m.total_joules() - (4.0 * 1.15 + 15.0 * 0.63)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    start: SimTime,
    now: SimTime,
    joules: f64,
    segments: Vec<PowerSegment>,
}

/// One constant-power span recorded by an [`EnergyMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSegment {
    /// Segment start.
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// Constant power over the segment, in watts.
    pub watts: f64,
}

impl PowerSegment {
    /// Energy of this segment in joules.
    pub fn joules(&self) -> f64 {
        self.watts * (self.end - self.start).as_secs_f64()
    }
}

/// A recorded run of [`EnergyMeter`] advances on a clock that starts at
/// [`SimTime::ZERO`], ready to be [spliced](EnergyMeter::splice) onto a
/// meter at any later instant.
///
/// It keeps each advance's exact addend, in order, and the segments the
/// advances form, merged by a meter of its own. Since time is integer
/// microseconds, no advance's duration — so no addend — depends on where
/// the tape is spliced.
#[derive(Debug, Clone, PartialEq)]
pub struct MeterTape {
    addends: Vec<f64>,
    meter: EnergyMeter,
}

impl Default for MeterTape {
    fn default() -> Self {
        MeterTape {
            addends: Vec::new(),
            meter: EnergyMeter::new(SimTime::ZERO),
        }
    }
}

impl MeterTape {
    /// Records the advance over `[start, end)` at `watts` whose meter
    /// addend is `joules` (what [`EnergyMeter::advance_to`] adds:
    /// `watts × (end − start)` in seconds).
    ///
    /// # Panics
    ///
    /// Panics if the advance does not start where the tape ends, is
    /// empty, or has negative or non-finite power.
    pub fn push(&mut self, start: SimTime, end: SimTime, watts: f64, joules: f64) {
        let at = self.meter.now();
        assert!(
            start == at && end > start,
            "a meter tape advance must start where the tape ends ({at}) and move forward, \
             got {start} -> {end}"
        );
        self.meter.advance_to(end, watts);
        self.addends.push(joules);
    }

    /// How long the recorded run lasts.
    pub fn duration(&self) -> SimDuration {
        self.meter.elapsed()
    }
}

impl EnergyMeter {
    /// Creates a meter whose clock starts at `start`.
    pub fn new(start: SimTime) -> Self {
        EnergyMeter {
            start,
            now: start,
            joules: 0.0,
            segments: Vec::new(),
        }
    }

    /// Advances the clock to `t`, accounting the interval `[now, t)` at
    /// `watts`. A zero-length advance is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the current meter time, or if `watts` is
    /// negative or not finite.
    pub fn advance_to(&mut self, t: SimTime, watts: f64) {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be finite and non-negative, got {watts}"
        );
        assert!(
            t >= self.now,
            "EnergyMeter cannot move backwards: {} -> {}",
            self.now,
            t
        );
        if t == self.now {
            return;
        }
        let duration = t - self.now;
        self.joules += watts * duration.as_secs_f64();
        // Coalesce with the previous segment when power is unchanged, to
        // keep long IDLE periods cheap to store.
        if let Some(last) = self.segments.last_mut() {
            if last.end == self.now && last.watts == watts {
                last.end = t;
                self.now = t;
                return;
            }
        }
        self.segments.push(PowerSegment {
            start: self.now,
            end: t,
            watts,
        });
        self.now = t;
    }

    /// Advances by `d` at `watts`. See [`EnergyMeter::advance_to`].
    pub fn advance_by(&mut self, d: SimDuration, watts: f64) {
        self.advance_to(self.now + d, watts);
    }

    /// Total accumulated energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.joules
    }

    /// The meter's current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Time elapsed since the meter was created.
    pub fn elapsed(&self) -> SimDuration {
        self.now - self.start
    }

    /// Average power over the elapsed time, in watts; 0.0 if no time has
    /// elapsed.
    pub fn average_watts(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.joules / secs
        }
    }

    /// The recorded constant-power segments, in time order.
    pub fn segments(&self) -> &[PowerSegment] {
        &self.segments
    }

    /// Energy accumulated within `[from, to)` only — used to attribute
    /// joules to phases (e.g. "energy during the reading period").
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn joules_between(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from <= to, "joules_between: from after to");
        let mut total = 0.0;
        for seg in &self.segments {
            let lo = seg.start.max(from);
            let hi = seg.end.min(to);
            if lo < hi {
                total += seg.watts * (hi - lo).as_secs_f64();
            }
        }
        total
    }

    /// Appends a recorded run of advances, shifted to begin at the meter's
    /// current time. Bit-identical to replaying the tape's advances
    /// through [`advance_to`](EnergyMeter::advance_to): the total
    /// continues its `f64` sum over the tape's addends in order (never a
    /// re-summed `watts × (d1 + d2)`), and the tape's pre-merged segments
    /// are appended, merging only the first into the meter's last
    /// segment when their power is equal — the one merge the meter could
    /// make that the tape could not see.
    pub fn splice(&mut self, tape: &MeterTape) {
        for &joules in &tape.addends {
            self.joules += joules;
        }
        let shift = self.now - SimTime::ZERO;
        let mut segments = tape.meter.segments.iter().map(|s| PowerSegment {
            start: s.start + shift,
            end: s.end + shift,
            watts: s.watts,
        });
        let Some(first) = segments.next() else {
            return;
        };
        match self.segments.last_mut() {
            Some(last) if last.end == self.now && last.watts == first.watts => last.end = first.end,
            _ => self.segments.push(first),
        }
        self.segments.extend(segments);
        self.now += tape.duration();
    }

    /// Instantaneous power at time `t`, or `None` outside any segment.
    pub fn power_at(&self, t: SimTime) -> Option<f64> {
        // Binary search over sorted, non-overlapping segments.
        let idx = self.segments.partition_point(|s| s.end <= t);
        let seg = self.segments.get(idx)?;
        if seg.start <= t && t < seg.end {
            Some(seg.watts)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_piecewise_power() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.advance_to(SimTime::from_secs(2), 1.25);
        m.advance_to(SimTime::from_secs(6), 1.15);
        m.advance_to(SimTime::from_secs(21), 0.63);
        m.advance_to(SimTime::from_secs(30), 0.15);
        let expected = 2.0 * 1.25 + 4.0 * 1.15 + 15.0 * 0.63 + 9.0 * 0.15;
        assert!((m.total_joules() - expected).abs() < 1e-9);
        assert_eq!(m.elapsed(), SimDuration::from_secs(30));
        assert!((m.average_watts() - expected / 30.0).abs() < 1e-12);
    }

    #[test]
    fn coalesces_equal_power_segments() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.advance_to(SimTime::from_secs(1), 0.15);
        m.advance_to(SimTime::from_secs(2), 0.15);
        m.advance_to(SimTime::from_secs(3), 0.63);
        assert_eq!(m.segments().len(), 2);
        assert_eq!(m.segments()[0].end, SimTime::from_secs(2));
    }

    #[test]
    fn zero_length_advance_is_noop() {
        let mut m = EnergyMeter::new(SimTime::from_secs(5));
        m.advance_to(SimTime::from_secs(5), 1.0);
        assert_eq!(m.total_joules(), 0.0);
        assert!(m.segments().is_empty());
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn rejects_time_reversal() {
        let mut m = EnergyMeter::new(SimTime::from_secs(5));
        m.advance_to(SimTime::from_secs(4), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_power() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.advance_to(SimTime::from_secs(1), -0.5);
    }

    #[test]
    fn joules_between_attributes_partial_segments() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.advance_to(SimTime::from_secs(10), 2.0);
        m.advance_to(SimTime::from_secs(20), 1.0);
        let j = m.joules_between(SimTime::from_secs(5), SimTime::from_secs(15));
        assert!((j - (5.0 * 2.0 + 5.0 * 1.0)).abs() < 1e-9);
        assert_eq!(
            m.joules_between(SimTime::from_secs(30), SimTime::from_secs(40)),
            0.0
        );
    }

    #[test]
    fn power_at_lookup() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.advance_to(SimTime::from_secs(2), 1.25);
        m.advance_to(SimTime::from_secs(4), 0.15);
        assert_eq!(m.power_at(SimTime::from_secs(1)), Some(1.25));
        assert_eq!(m.power_at(SimTime::from_secs(2)), Some(0.15));
        assert_eq!(m.power_at(SimTime::from_secs(3)), Some(0.15));
        assert_eq!(m.power_at(SimTime::from_secs(4)), None);
    }

    #[test]
    fn advance_by_matches_advance_to() {
        let mut a = EnergyMeter::new(SimTime::ZERO);
        let mut b = EnergyMeter::new(SimTime::ZERO);
        a.advance_by(SimDuration::from_millis(1500), 0.63);
        b.advance_to(SimTime::from_millis(1500), 0.63);
        assert_eq!(a, b);
    }

    /// `(duration ms, watts)` advances.
    type Steps = [(u64, f64)];

    /// A meter advanced through `prefix` and then through `tape` by
    /// `advance_to`, and one advanced through `prefix` and then spliced
    /// with `tape` recorded on its own clock.
    fn stepped_and_spliced(prefix: &Steps, tape: &Steps) -> (EnergyMeter, EnergyMeter) {
        let mut stepped = EnergyMeter::new(SimTime::from_secs(3));
        for &(ms, w) in prefix.iter().chain(tape) {
            stepped.advance_by(SimDuration::from_millis(ms), w);
        }
        let mut recorded = MeterTape::default();
        for &(ms, w) in tape {
            let d = SimDuration::from_millis(ms);
            let start = SimTime::ZERO + recorded.duration();
            recorded.push(start, start + d, w, w * d.as_secs_f64());
        }
        let mut spliced = EnergyMeter::new(SimTime::from_secs(3));
        for &(ms, w) in prefix {
            spliced.advance_by(SimDuration::from_millis(ms), w);
        }
        spliced.splice(&recorded);
        (stepped, spliced)
    }

    fn assert_same(a: &EnergyMeter, b: &EnergyMeter) {
        assert_eq!(a.total_joules().to_bits(), b.total_joules().to_bits());
        assert_eq!(a.segments(), b.segments());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn splice_merges_an_equal_power_boundary_segment() {
        // Chosen so that re-summing a merged span — `0.15 × 0.8` for the
        // tape's own two 0.15 W advances, or `0.15 × 1.7` with the
        // boundary one — lands on different bits than the stepped sum.
        let (stepped, spliced) = stepped_and_spliced(
            &[(700, 1.25), (900, 0.15)],
            &[(400, 0.15), (400, 0.15), (1750, 4.0)],
        );
        assert_same(&stepped, &spliced);
        assert_eq!(spliced.segments().len(), 3, "the 0.15 W spans merge");
    }

    #[test]
    fn splice_keeps_an_unequal_power_boundary_segment() {
        let (stepped, spliced) = stepped_and_spliced(
            &[(700, 1.25), (100, 0.63)],
            &[(200, 1.15), (300, 1.15), (1750, 4.0), (900, 0.15)],
        );
        assert_same(&stepped, &spliced);
        assert_eq!(
            spliced.segments().len(),
            5,
            "1.15 W merges within the tape only"
        );
        // A fresh meter has no boundary segment to merge into.
        let (stepped, spliced) = stepped_and_spliced(&[], &[(200, 1.15), (300, 0.15)]);
        assert_same(&stepped, &spliced);
    }

    #[test]
    fn splicing_an_empty_tape_changes_nothing() {
        let (stepped, spliced) = stepped_and_spliced(&[(700, 1.25), (100, 0.63)], &[]);
        assert_same(&stepped, &spliced);
        assert_eq!(MeterTape::default().duration(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "must start where the tape ends")]
    fn meter_tape_rejects_a_gap() {
        let mut tape = MeterTape::default();
        tape.push(SimTime::from_secs(1), SimTime::from_secs(2), 1.0, 1.0);
    }

    #[test]
    fn segment_joules() {
        let seg = PowerSegment {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(3),
            watts: 0.5,
        };
        assert!((seg.joules() - 1.0).abs() < 1e-12);
    }
}
