//! The §3.1 motivation experiment (Fig. 3 of the paper), plus the
//! *intuitive reference interpreter* used by the `ewb-check` differential
//! oracle.
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
//!
//! [`ReferenceRrc`] is an independent, straight-line re-implementation of
//! the paper's Fig. 2 RRC semantics, written for obviousness rather than
//! generality: no event queue, no recorder, no concurrent transfers — just
//! explicit gap-splitting at timer deadlines and `watts × seconds`
//! accrual. The `ewb-check` crate drives it in lock-step with
//! [`RrcMachine`] and flags any disagreement.

use crate::config::RrcConfig;
use crate::machine::{RrcCounters, RrcMachine, StateResidency};
use crate::state::RrcState;
use ewb_obs::{ledger, RadioState, Recorder};
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

/// An obviously-correct reference interpreter of the Fig. 2 RRC
/// semantics, for differential testing against [`RrcMachine`].
///
/// The interpreter supports exactly the *sequential* stimulus alphabet
/// the `ewb-check` scenarios use — wait, one-at-a-time transfers, fast
/// dormancy, CPU-load changes — and reproduces the machine's observable
/// surface: state at step boundaries, transition log (in the `ewb-obs`
/// state names the machine's events carry), counters, residency,
/// promotion `data_start` instants, and total energy.
///
/// Everything is written as straight-line arithmetic so the
/// implementation can be audited against the paper directly:
///
/// * T1 (DCH→FACH) and T2 (FACH→IDLE) arm when the last transfer ends
///   and are cancelled by any new data activity or fast dormancy;
/// * promotions cost their full latency up front at promotion power
///   (cold from IDLE) or DCH-hold power (warm FACH→DCH), scaled by
///   `retries + 1` failed-signaling attempts;
/// * energy is `Σ watts × seconds` over the piecewise-constant spans.
#[derive(Debug, Clone)]
pub struct ReferenceRrc {
    cfg: RrcConfig,
    now: SimTime,
    state: RrcState,
    t1: Option<SimTime>,
    t2: Option<SimTime>,
    cpu_load: f64,
    joules: f64,
    residency: StateResidency,
    transitions: Vec<(SimTime, RadioState, RadioState)>,
    counters: RrcCounters,
}

impl ReferenceRrc {
    /// Creates a reference interpreter in IDLE at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RrcConfig::validate`].
    pub fn new(cfg: RrcConfig, start: SimTime) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid RrcConfig: {e}");
        }
        ReferenceRrc {
            cfg,
            now: start,
            state: RrcState::Idle,
            t1: None,
            t2: None,
            cpu_load: 0.0,
            joules: 0.0,
            residency: StateResidency::default(),
            transitions: Vec::new(),
            counters: RrcCounters::default(),
        }
    }

    /// Current interpreter time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current RRC state (never `Promoting` at a step boundary).
    pub fn state(&self) -> RrcState {
        self.state
    }

    /// Total accrued energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.joules
    }

    /// Per-state residency so far.
    pub fn residency(&self) -> StateResidency {
        self.residency
    }

    /// Event counters so far.
    pub fn counters(&self) -> RrcCounters {
        self.counters
    }

    /// The recorded transitions as `(at, from, to)`, oldest first.
    pub fn transitions(&self) -> &[(SimTime, RadioState, RadioState)] {
        &self.transitions
    }

    /// Lets time pass: fires any armed T1/T2 deadlines that fall inside
    /// the window, splitting the energy accrual at each.
    pub fn wait(&mut self, d: SimDuration) {
        let target = self.now + d;
        // Fig. 2: at most one inactivity timer is armed at a time; each
        // expiry demotes one step and may arm the next timer.
        while let Some(at) = self.t1.or(self.t2).filter(|at| *at <= target) {
            if self.t1.is_some() {
                self.accrue(at, self.cfg.power.watts(RrcState::Dch, false, 0.0));
                self.t1 = None;
                self.enter(at, RrcState::Fach);
                self.t2 = Some(at + self.cfg.t2);
                self.counters.t1_expirations += 1;
            } else {
                self.accrue(at, self.cfg.power.watts(RrcState::Fach, false, 0.0));
                self.t2 = None;
                self.enter(at, RrcState::Idle);
                self.counters.t2_expirations += 1;
            }
        }
        self.accrue(target, self.cfg.power.watts(self.state, false, 0.0));
    }

    /// Runs one complete transfer: request now, promote if needed
    /// (`retries` failed signaling attempts each cost one extra full
    /// promotion window), move data for `duration`, re-arm the
    /// inactivity timer of the state the data rode in. Returns the
    /// instant data started flowing (the machine's `data_start`).
    pub fn transfer(&mut self, needs_dch: bool, duration: SimDuration, retries: u32) -> SimTime {
        self.counters.transfers += 1;
        // Any data activity cancels the inactivity timers.
        self.t1 = None;
        self.t2 = None;
        let attempts = u64::from(retries) + 1;
        let data_start = match (self.state, needs_dch) {
            (RrcState::Dch, _) | (RrcState::Fach, false) => self.now,
            (RrcState::Fach, true) => {
                // Warm promotion: reuses the signaling connection at
                // DCH-hold power.
                self.counters.fach_to_dch += 1;
                self.counters.promotion_retries += u64::from(retries);
                self.promote(
                    RrcState::Dch,
                    self.cfg.fach_to_dch_latency * attempts,
                    self.cfg.power.dch_hold_w,
                )
            }
            (RrcState::Idle, true) => {
                self.counters.idle_to_dch += 1;
                self.counters.promotion_retries += u64::from(retries);
                self.promote(
                    RrcState::Dch,
                    self.cfg.idle_to_dch_latency * attempts,
                    self.cfg.power.promotion_w,
                )
            }
            (RrcState::Idle, false) => {
                self.counters.idle_to_fach += 1;
                self.counters.promotion_retries += u64::from(retries);
                self.promote(
                    RrcState::Fach,
                    self.cfg.idle_to_fach_latency * attempts,
                    self.cfg.power.promotion_w,
                )
            }
            (RrcState::Promoting, _) => {
                unreachable!("sequential driving never observes Promoting at a step boundary")
            }
        };
        let end = data_start + duration;
        self.accrue(end, self.cfg.power.watts(self.state, true, 0.0));
        match self.state {
            RrcState::Dch => self.t1 = Some(end + self.cfg.t1),
            RrcState::Fach => self.t2 = Some(end + self.cfg.t2),
            _ => unreachable!("transfer ended in {}", self.state),
        }
        data_start
    }

    /// Fast dormancy: release the signaling connection and drop to IDLE
    /// after [`RrcConfig::release_latency`] at the current state's
    /// power. A no-op in IDLE. Returns the instant IDLE is reached.
    pub fn release(&mut self) -> SimTime {
        if self.state == RrcState::Idle {
            return self.now;
        }
        let done = self.now + self.cfg.release_latency;
        self.accrue(done, self.cfg.power.watts(self.state, false, 0.0));
        self.t1 = None;
        self.t2 = None;
        self.enter(done, RrcState::Idle);
        self.counters.fast_dormancy_releases += 1;
        done
    }

    /// Sets the simulated CPU load in `[0, 1]`, effective immediately.
    pub fn set_cpu_load(&mut self, load: f64) {
        self.cpu_load = load.clamp(0.0, crate::power::MAX_CPU_CORES);
    }

    fn promote(&mut self, target: RrcState, latency: SimDuration, watts: f64) -> SimTime {
        let requested = self.now;
        let done = requested + latency;
        self.enter(requested, RrcState::Promoting);
        self.accrue(done, watts);
        self.enter(done, target);
        done
    }

    fn accrue(&mut self, to: SimTime, base_watts: f64) {
        if to > self.now {
            let d = to - self.now;
            let watts = base_watts + self.cfg.power.cpu_full_extra_w * self.cpu_load;
            self.joules += watts * d.as_secs_f64();
            match self.state {
                RrcState::Idle => self.residency.idle += d,
                RrcState::Promoting => self.residency.promoting += d,
                RrcState::Fach => self.residency.fach += d,
                RrcState::Dch => self.residency.dch += d,
            }
            self.now = to;
        }
    }

    fn enter(&mut self, at: SimTime, to: RrcState) {
        if self.state != to {
            self.transitions.push((at, self.state.into(), to.into()));
            self.state = to;
        }
    }
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

    #[test]
    fn reference_interpreter_replays_the_timer_cascade() {
        let mut r = ReferenceRrc::new(RrcConfig::paper(), SimTime::ZERO);
        let ds = r.transfer(true, SimDuration::from_secs(2), 0);
        assert_eq!(ds, SimTime::from_secs_f64(1.75));
        assert_eq!(r.state(), RrcState::Dch);
        r.wait(SimDuration::from_secs(25));
        assert_eq!(r.state(), RrcState::Idle);
        assert_eq!(r.counters().t1_expirations, 1);
        assert_eq!(r.counters().t2_expirations, 1);
        let expected = 7.0 + 2.0 * 1.25 + 4.0 * 1.15 + 15.0 * 0.63 + 6.0 * 0.15;
        assert!((r.energy_j() - expected).abs() < 1e-6, "{}", r.energy_j());
        assert_eq!(r.residency().total(), SimDuration::from_secs_f64(28.75));
    }

    #[test]
    fn reference_agrees_with_machine_on_a_mixed_scenario() {
        let cfg = RrcConfig::paper();
        let recorder = Recorder::memory();
        let mut m = RrcMachine::with_recorder(cfg, SimTime::ZERO, recorder.clone());
        let mut r = ReferenceRrc::new(cfg, SimTime::ZERO);

        // transfer → partial tail → small FACH transfer → dormancy → idle.
        let half = SimDuration::from_millis(500);
        let ds_m = m.begin_transfer_with_promotion_retries(m.now(), true, 1);
        m.end_transfer(ds_m + half);
        let ds_r = r.transfer(true, half, 1);
        assert_eq!(ds_m, ds_r);

        m.advance_to(m.now() + SimDuration::from_secs(6));
        r.wait(SimDuration::from_secs(6));
        assert_eq!(m.state(), r.state());
        assert_eq!(m.state(), RrcState::Fach);

        let ds_m = m.begin_transfer(m.now(), false);
        m.end_transfer(ds_m + half);
        r.transfer(false, half, 0);

        m.release_to_idle(m.now());
        r.release();

        m.advance_to(m.now() + SimDuration::from_secs(5));
        r.wait(SimDuration::from_secs(5));

        assert_eq!(m.now(), r.now());
        assert_eq!(m.state(), r.state());
        assert_eq!(m.counters(), r.counters());
        assert_eq!(m.residency(), r.residency());
        assert_eq!(ledger::transitions(&recorder.events()), r.transitions());
        assert!((m.energy_j() - r.energy_j()).abs() < 1e-9);
    }
}
