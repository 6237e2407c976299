//! Time series recording and resampling.
//!
//! The paper's testbed samples phone current at 0.25 s intervals (Figs. 1
//! and 9) and plots traffic volume per 0.5 s bucket (Fig. 4). These types
//! reproduce those observables from the exact simulation record:
//!
//! * [`TimeSeries`] — an append-only `(time, value)` log with bucketed
//!   aggregation (for traffic-per-interval plots).
//! * [`PowerTrace`] — fixed-rate samples of a piecewise-constant power
//!   function, i.e. what the Agilent supply would have seen;
//!   `ewb_obs::ledger::power_trace` samples one from a radio's energy
//!   ledger.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// An append-only series of `(time, value)` observations.
///
/// # Example
///
/// ```
/// use ewb_simcore::{SimDuration, SimTime, TimeSeries};
///
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_millis(100), 3.0);
/// ts.record(SimTime::from_millis(700), 4.0);
/// // Sum per 0.5 s bucket, like the paper's Fig. 4 traffic plot:
/// let buckets = ts.bucket_sums(SimDuration::from_millis(500));
/// assert_eq!(buckets, vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded observation (the series is
    /// a chronological log) or if `value` is NaN.
    pub fn record(&mut self, t: SimTime, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        if let Some(&(last, _)) = self.points.last() {
            assert!(
                t >= last,
                "observations must be chronological: {last} then {t}"
            );
        }
        self.points.push((t, value));
    }

    /// The recorded points in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).sum()
    }

    /// Sums values into consecutive buckets of width `bucket`, starting at
    /// time zero, up to the last observation. Empty buckets are 0.0.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn bucket_sums(&self, bucket: SimDuration) -> Vec<f64> {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let Some(&(last, _)) = self.points.last() else {
            return Vec::new();
        };
        let n = (last.as_micros() / bucket.as_micros()) as usize + 1;
        let mut out = vec![0.0; n];
        for &(t, v) in &self.points {
            let idx = (t.as_micros() / bucket.as_micros()) as usize;
            out[idx] += v;
        }
        out
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            ts.record(t, v);
        }
        ts
    }
}

/// A fixed-rate sampling of a power function — the simulated analogue of
/// the Agilent E3631A capture at 0.25 s used throughout the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    interval: SimDuration,
    samples: Vec<f64>,
}

impl PowerTrace {
    /// The paper's capture interval: 0.25 seconds (4 Hz).
    pub const PAPER_INTERVAL: SimDuration = SimDuration::from_millis(250);

    /// A trace of `samples` taken every `interval`, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration, samples: Vec<f64>) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        PowerTrace { interval, samples }
    }

    /// Sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The power samples in watts, in time order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean sampled power, in watts; 0.0 if empty.
    pub fn mean_watts(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Riemann-sum energy estimate from the samples — what the paper's
    /// LabVIEW integration computes. Close to, but not exactly, the exact
    /// [`EnergyMeter::total_joules`](crate::EnergyMeter::total_joules).
    pub fn estimated_joules(&self) -> f64 {
        self.samples.iter().sum::<f64>() * self.interval.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_bucket() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_millis(100), 1.0);
        ts.record(SimTime::from_millis(400), 2.0);
        ts.record(SimTime::from_millis(600), 4.0);
        ts.record(SimTime::from_millis(1700), 8.0);
        let buckets = ts.bucket_sums(SimDuration::from_millis(500));
        assert_eq!(buckets, vec![3.0, 4.0, 0.0, 8.0]);
        assert_eq!(ts.total(), 15.0);
        assert_eq!(ts.len(), 4);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(2), 1.0);
        ts.record(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert!(ts.bucket_sums(SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn from_iterator() {
        let ts: TimeSeries = vec![(SimTime::from_secs(1), 1.0), (SimTime::from_secs(2), 2.0)]
            .into_iter()
            .collect();
        assert_eq!(ts.len(), 2);
    }

    /// The 4 Hz trace of a meter driven at 1 W for 1 s, then 0.5 W for
    /// 1 s: its mean is the time-average power and its Riemann sum is the
    /// meter's total.
    #[test]
    fn power_trace_samples_meter() {
        let mut m = crate::EnergyMeter::new(SimTime::ZERO);
        m.advance_to(SimTime::from_secs(1), 1.0);
        m.advance_to(SimTime::from_secs(2), 0.5);
        let trace = PowerTrace::new(PowerTrace::PAPER_INTERVAL, [[1.0; 4], [0.5; 4]].concat());
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.mean_watts(), 0.75);
        assert_eq!(trace.estimated_joules(), m.total_joules());
    }

    #[test]
    fn paper_interval_is_quarter_second() {
        assert_eq!(PowerTrace::PAPER_INTERVAL, SimDuration::from_millis(250));
    }
}
