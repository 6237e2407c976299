//! The §3.1 motivation experiment (Fig. 3 of the paper).
//!
//! The "intuitive" power-saving idea is to drop the radio to IDLE
//! immediately after every data transmission. The paper shows this
//! backfires when transmissions are frequent: re-establishing the signaling
//! connection costs energy (and ≈1.75 s of delay), so the intuitive
//! approach only wins once the transmission interval exceeds **9 seconds**.
//!
//! [`compare_at_interval`] simulates steady-state cycles of both approaches
//! on the same [`RrcMachine`] model; [`sweep`] produces the full Fig. 3
//! series and [`break_even`] locates the crossover.

use crate::config::RrcConfig;
use crate::machine::RrcMachine;
use ewb_obs::{ledger, Recorder};
use ewb_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One Fig. 3 data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CyclePoint {
    /// Transmission interval (time between starts of consecutive
    /// transmissions in the original approach), seconds.
    pub interval_s: f64,
    /// Steady-state energy per cycle of the original (timer-driven)
    /// approach, joules.
    pub original_j: f64,
    /// Steady-state energy per cycle of the intuitive (always-release)
    /// approach, joules.
    pub intuitive_j: f64,
    /// `original_j - intuitive_j`; positive means the intuitive approach
    /// saves power.
    pub saving_j: f64,
    /// Extra per-transfer delay of the intuitive approach, seconds
    /// (≈ the IDLE→DCH promotion latency).
    pub extra_delay_s: f64,
}

/// Simulates both approaches at one transmission interval.
///
/// `transfer` is the duration of each data transmission (the paper sends
/// 1 KB; ~0.5 s including round trips). The returned energies are measured
/// over a steady-state cycle, i.e. after both machines have settled into
/// their periodic pattern.
///
/// # Panics
///
/// Panics if `interval <= transfer` (the next transmission would start
/// before the previous one finished) or if `cfg` is invalid.
pub fn compare_at_interval(
    cfg: &RrcConfig,
    interval: SimDuration,
    transfer: SimDuration,
) -> CyclePoint {
    assert!(
        interval > transfer,
        "transmission interval {interval} must exceed the transfer duration {transfer}"
    );
    let gap = interval - transfer;
    let (original_j, orig_delay) = run_cycles(cfg, gap, transfer, false);
    let (intuitive_j, int_delay) = run_cycles(cfg, gap, transfer, true);
    CyclePoint {
        interval_s: interval.as_secs_f64(),
        original_j,
        intuitive_j,
        saving_j: original_j - intuitive_j,
        extra_delay_s: int_delay - orig_delay,
    }
}

/// Runs `n` cycles of "transfer, (maybe release), wait `gap`" and returns
/// the energy of the second-to-last cycle (steady state) plus the mean
/// promotion delay over the measured cycles.
fn run_cycles(
    cfg: &RrcConfig,
    gap: SimDuration,
    transfer: SimDuration,
    release_after_each: bool,
) -> (f64, f64) {
    const CYCLES: usize = 5;
    let recorder = Recorder::ledger(Recorder::disabled());
    let mut m = RrcMachine::with_recorder(*cfg, SimTime::ZERO, recorder.clone());
    let mut request_marks = Vec::with_capacity(CYCLES + 1);
    let mut delays = Vec::with_capacity(CYCLES);
    let mut t = SimTime::ZERO;
    for _ in 0..CYCLES {
        request_marks.push(t);
        let data_start = m.begin_transfer(t, true);
        delays.push((data_start - t).as_secs_f64());
        let data_end = data_start + transfer;
        m.end_transfer(data_end);
        if release_after_each {
            m.release_to_idle(data_end);
        }
        t = data_end + gap;
    }
    request_marks.push(t);
    m.advance_to(t);
    // Second-to-last full cycle: cold-start effects are gone, and the
    // cycle's trailing promotion (if the next request finds IDLE) is
    // attributed to the next cycle's window consistently for both modes.
    let j = ledger::joules_between(
        &ledger::entries(&recorder.events()),
        request_marks[CYCLES - 2],
        request_marks[CYCLES - 1],
    );
    // Steady-state delay: the last transfer's promotion wait.
    (j, *delays.last().expect("at least one cycle"))
}

/// Produces the Fig. 3 series over the paper's interval grid
/// (1–12 s in 1 s steps, then 14–24 s in 2 s steps).
pub fn sweep(cfg: &RrcConfig, transfer: SimDuration) -> Vec<CyclePoint> {
    paper_intervals()
        .into_iter()
        .map(|s| compare_at_interval(cfg, SimDuration::from_secs_f64(s), transfer))
        .collect()
}

/// The x-axis grid of the paper's Fig. 3.
pub fn paper_intervals() -> Vec<f64> {
    let mut v: Vec<f64> = (1..=12).map(f64::from).collect();
    v.extend((7..=12).map(|i| f64::from(i * 2)));
    v
}

/// Finds the smallest interval (0.25 s resolution) at which the intuitive
/// approach starts saving power. The paper measures 9 s.
pub fn break_even(cfg: &RrcConfig, transfer: SimDuration) -> f64 {
    let mut interval = transfer.as_secs_f64() + 0.25;
    while interval < 60.0 {
        let p = compare_at_interval(cfg, SimDuration::from_secs_f64(interval), transfer);
        if p.saving_j > 0.0 {
            return interval;
        }
        interval += 0.25;
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_second() -> SimDuration {
        SimDuration::from_millis(500)
    }

    #[test]
    fn intuitive_loses_at_short_intervals() {
        let cfg = RrcConfig::paper();
        let p = compare_at_interval(&cfg, SimDuration::from_secs(2), half_second());
        assert!(p.saving_j < 0.0, "saving at 2 s should be negative: {p:?}");
        let p4 = compare_at_interval(&cfg, SimDuration::from_secs(4), half_second());
        assert!(
            p4.saving_j < 0.0,
            "saving at 4 s should be negative: {p4:?}"
        );
    }

    #[test]
    fn intuitive_wins_at_long_intervals() {
        let cfg = RrcConfig::paper();
        let p = compare_at_interval(&cfg, SimDuration::from_secs(15), half_second());
        assert!(p.saving_j > 0.0, "saving at 15 s should be positive: {p:?}");
    }

    #[test]
    fn break_even_matches_paper_nine_seconds() {
        let cfg = RrcConfig::paper();
        let be = break_even(&cfg, half_second());
        assert!(
            (8.0..=10.0).contains(&be),
            "break-even should be ≈9 s as in Fig. 3, got {be}"
        );
    }

    #[test]
    fn extra_delay_matches_promotion_latency() {
        let cfg = RrcConfig::paper();
        // At a short interval the original stays connected (no delay),
        // while the intuitive approach pays the full cold promotion.
        let p = compare_at_interval(&cfg, SimDuration::from_secs(3), half_second());
        assert!(
            (p.extra_delay_s - 1.75).abs() < 1e-6,
            "extra delay should be the 1.75 s promotion: {p:?}"
        );
    }

    #[test]
    fn saving_is_monotone_over_the_sweep() {
        let cfg = RrcConfig::paper();
        let series = sweep(&cfg, half_second());
        assert_eq!(series.len(), paper_intervals().len());
        for w in series.windows(2) {
            assert!(
                w[1].saving_j >= w[0].saving_j - 1e-9,
                "saving should be non-decreasing: {w:?}"
            );
        }
    }

    #[test]
    fn saving_saturates_past_t2() {
        // Once the interval exceeds T1+T2 both approaches reach IDLE and
        // the saving flattens.
        let cfg = RrcConfig::paper();
        let a = compare_at_interval(&cfg, SimDuration::from_secs(22), half_second());
        let b = compare_at_interval(&cfg, SimDuration::from_secs(24), half_second());
        assert!((a.saving_j - b.saving_j).abs() < 0.05, "{a:?} vs {b:?}");
    }

    #[test]
    fn original_energy_at_24s_matches_hand_model() {
        // Past T1+T2 the original pays promotion + tx + full tails + idle.
        let cfg = RrcConfig::paper();
        let p = compare_at_interval(&cfg, SimDuration::from_secs(24), half_second());
        let expected = 7.0 // promotion
            + 0.5 * 1.25 // transfer
            + 4.0 * 1.15 // T1 tail
            + 15.0 * 0.63 // T2 tail
            + (24.0 - 0.5 - 19.0) * 0.15; // idle remainder
        assert!(
            (p.original_j - expected).abs() < 0.1,
            "got {} expected {expected}",
            p.original_j
        );
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn rejects_interval_shorter_than_transfer() {
        compare_at_interval(
            &RrcConfig::paper(),
            SimDuration::from_millis(400),
            half_second(),
        );
    }
}
