//! Energy accounting over virtual time.
//!
//! The paper measures energy by sampling instantaneous power with an
//! Agilent supply and integrating. In the simulator the power draw is a
//! piecewise-constant function of time (each RRC state, each CPU activity
//! level has a fixed wattage), so the integral is exact: the
//! [`EnergyMeter`] adds `power × duration` for each span as the
//! simulation advances. The meter keeps only its clock and that running
//! total; the history of power and state over time is the `ewb-obs`
//! energy ledger, which a caller records by attaching a recorder.

use crate::time::{SimDuration, SimTime};

/// Exact integrator of a piecewise-constant power function.
///
/// Call [`EnergyMeter::advance_to`] with the power level that was in effect
/// *since the previous call*; the meter accumulates the corresponding
/// energy.
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
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeter {
    now: SimTime,
    joules: f64,
}

/// A recorded run of [`EnergyMeter`] advances on a clock that starts at
/// [`SimTime::ZERO`], ready to be [spliced](EnergyMeter::splice) onto a
/// meter at any later instant.
///
/// It keeps each advance's exact addend, in order, and how long the run
/// lasts. Since time is integer microseconds, no advance's duration — so
/// no addend — depends on where the tape is spliced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeterTape {
    addends: Vec<f64>,
    duration: SimDuration,
}

impl MeterTape {
    /// Records the advance over `[start, end)` whose meter addend is
    /// `joules` (what [`EnergyMeter::advance_to`] adds: `watts × (end −
    /// start)` in seconds).
    ///
    /// # Panics
    ///
    /// Panics if the advance does not start where the tape ends or is
    /// empty.
    pub fn push(&mut self, start: SimTime, end: SimTime, joules: f64) {
        let at = SimTime::ZERO + self.duration;
        assert!(
            start == at && end > start,
            "a meter tape advance must start where the tape ends ({at}) and move forward, \
             got {start} -> {end}"
        );
        self.duration = end - SimTime::ZERO;
        self.addends.push(joules);
    }

    /// How long the recorded run lasts.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }
}

impl EnergyMeter {
    /// Creates a meter whose clock starts at `start`.
    pub fn new(start: SimTime) -> Self {
        EnergyMeter {
            now: start,
            joules: 0.0,
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
        self.joules += watts * (t - self.now).as_secs_f64();
        self.now = t;
    }

    /// Total accumulated energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.joules
    }

    /// The meter's current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Appends a recorded run of advances, shifted to begin at the meter's
    /// current time. Bit-identical to replaying the tape's advances
    /// through [`advance_to`](EnergyMeter::advance_to): the total
    /// continues its `f64` sum over the tape's addends in order.
    pub fn splice(&mut self, tape: &MeterTape) {
        for &joules in &tape.addends {
            self.joules += joules;
        }
        self.now += tape.duration;
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
        assert_eq!(m.now(), SimTime::from_secs(30));
    }

    #[test]
    fn zero_length_advance_is_noop() {
        let mut m = EnergyMeter::new(SimTime::from_secs(5));
        m.advance_to(SimTime::from_secs(5), 1.0);
        assert_eq!(m, EnergyMeter::new(SimTime::from_secs(5)));
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

    /// `(duration ms, watts)` advances.
    type Steps = [(u64, f64)];

    /// A meter advanced through `prefix` and then through `tape` by
    /// `advance_to`, and one advanced through `prefix` and then spliced
    /// with `tape` recorded on its own clock.
    fn stepped_and_spliced(prefix: &Steps, tape: &Steps) -> (EnergyMeter, EnergyMeter) {
        let step = |m: &mut EnergyMeter, &(ms, w): &(u64, f64)| {
            m.advance_to(m.now() + SimDuration::from_millis(ms), w);
        };
        let mut stepped = EnergyMeter::new(SimTime::from_secs(3));
        prefix
            .iter()
            .chain(tape)
            .for_each(|s| step(&mut stepped, s));
        let mut recorded = MeterTape::default();
        for &(ms, w) in tape {
            let d = SimDuration::from_millis(ms);
            let start = SimTime::ZERO + recorded.duration();
            recorded.push(start, start + d, w * d.as_secs_f64());
        }
        let mut spliced = EnergyMeter::new(SimTime::from_secs(3));
        prefix.iter().for_each(|s| step(&mut spliced, s));
        spliced.splice(&recorded);
        (stepped, spliced)
    }

    fn assert_same(a: &EnergyMeter, b: &EnergyMeter) {
        assert_eq!(a.total_joules().to_bits(), b.total_joules().to_bits());
        assert_eq!(a.now(), b.now());
    }

    /// Equal power across the splice boundary and within the tape.
    /// Re-summing a run of equal-power advances — `0.15 × 0.8` for the
    /// tape's own two 0.15 W advances, or `0.15 × 1.7` with the boundary
    /// one — lands on different bits than the stepped sum, so the splice
    /// must continue that sum addend by addend.
    #[test]
    fn splice_merges_an_equal_power_boundary_segment() {
        let (stepped, spliced) = stepped_and_spliced(
            &[(700, 1.25), (900, 0.15)],
            &[(400, 0.15), (400, 0.15), (1750, 4.0)],
        );
        assert_same(&stepped, &spliced);
    }

    #[test]
    fn splice_keeps_an_unequal_power_boundary_segment() {
        let (stepped, spliced) = stepped_and_spliced(
            &[(700, 1.25), (100, 0.63)],
            &[(200, 1.15), (300, 1.15), (1750, 4.0), (900, 0.15)],
        );
        assert_same(&stepped, &spliced);
        // A fresh meter has no boundary span at all.
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
        tape.push(SimTime::from_secs(1), SimTime::from_secs(2), 1.0);
    }
}
