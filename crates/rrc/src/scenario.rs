//! Canned radio scenarios for the paper's descriptive figures.
//!
//! * [`state_tour`] reproduces Fig. 1: the 4 Hz power trace of a handset
//!   that starts IDLE, performs one data transmission (promotion → DCH),
//!   rides the T1/T2 tails through FACH, and returns to IDLE.
//! * [`measured_state_powers`] re-derives Table 5 from simulation: it runs
//!   the machine through each state and reports the mean sampled power, so
//!   the "measured" column of the Table 5 binary comes from the model
//!   rather than from the constants directly.
//!
//! Both read the machine's energy ledger through an attached recorder.

use crate::config::RrcConfig;
use crate::machine::RrcMachine;
use crate::state::RrcState;
use ewb_obs::{ledger, RadioState, Recorder};
use ewb_simcore::{PowerTrace, SimDuration, SimTime};

/// The Fig. 1 state tour: `idle_lead` of IDLE, one transfer of length
/// `transfer`, then the full timer tails and `idle_tail` of IDLE. Returns
/// the 4 Hz power trace and the state transitions as `(at, from, to)`.
pub fn state_tour(
    cfg: &RrcConfig,
    idle_lead: SimDuration,
    transfer: SimDuration,
    idle_tail: SimDuration,
) -> (PowerTrace, Vec<(SimTime, RadioState, RadioState)>) {
    let recorder = Recorder::memory();
    let mut m = RrcMachine::with_recorder(*cfg, SimTime::ZERO, recorder.clone());
    let request = SimTime::ZERO + idle_lead;
    m.advance_to(request);
    let data_start = m.begin_transfer(request, true);
    let data_end = data_start + transfer;
    m.end_transfer(data_end);
    // Ride the tails to IDLE, then linger.
    let settle = data_end + cfg.t1 + cfg.t2 + idle_tail;
    m.advance_to(settle);
    let events = recorder.events();
    (
        ledger::power_trace(&ledger::entries(&events), PowerTrace::PAPER_INTERVAL),
        ledger::transitions(&events),
    )
}

/// Mean power per state, measured by sampling the simulated tour — the
/// reproduction of Table 5's measurement procedure. Returns
/// `(state, mean_watts)` pairs for IDLE, FACH, DCH-without-transmission
/// and DCH-with-transmission, plus the fully-running-CPU-at-IDLE figure.
pub fn measured_state_powers(cfg: &RrcConfig) -> Vec<(String, f64)> {
    let recorder = Recorder::ledger(Recorder::disabled());
    let mut m = RrcMachine::with_recorder(*cfg, SimTime::ZERO, recorder.clone());

    // IDLE: [0, 10).
    let idle_end = SimTime::from_secs(10);
    m.advance_to(idle_end);

    // Transfer: promotion, then DCH with transmission for 5 s.
    let data_start = m.begin_transfer(idle_end, true);
    let data_end = data_start + SimDuration::from_secs(5);
    m.end_transfer(data_end);

    // DCH hold: the T1 window.
    let t1_end = data_end + cfg.t1;
    m.advance_to(t1_end);

    // FACH: the T2 window.
    let t2_end = t1_end + cfg.t2;
    m.advance_to(t2_end);

    // Fully running CPU at IDLE.
    debug_assert_eq!(m.state(), RrcState::Idle);
    m.set_cpu_load(t2_end, 1.0);
    let cpu_end = t2_end + SimDuration::from_secs(10);
    m.advance_to(cpu_end);

    let entries = ledger::entries(&recorder.events());
    [
        ("IDLE state", SimTime::ZERO, idle_end),
        ("DCH state with transmission", data_start, data_end),
        ("DCH state without transmission", data_end, t1_end),
        ("FACH state", t1_end, t2_end),
        ("Fully running CPU (IDLE state)", t2_end, cpu_end),
    ]
    .into_iter()
    .map(|(name, from, to)| {
        let secs = (to - from).as_secs_f64();
        (
            name.to_string(),
            ledger::joules_between(&entries, from, to) / secs,
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tour_visits_all_states_in_order() {
        let cfg = RrcConfig::paper();
        let (_, transitions) = state_tour(
            &cfg,
            SimDuration::from_secs(5),
            SimDuration::from_secs(3),
            SimDuration::from_secs(5),
        );
        let seq: Vec<(RadioState, RadioState)> = transitions.iter().map(|t| (t.1, t.2)).collect();
        assert_eq!(
            seq,
            vec![
                (RadioState::Idle, RadioState::Promoting),
                (RadioState::Promoting, RadioState::Dch),
                (RadioState::Dch, RadioState::Fach),
                (RadioState::Fach, RadioState::Idle),
            ]
        );
    }

    #[test]
    fn tour_trace_shows_the_fig1_staircase() {
        let cfg = RrcConfig::paper();
        let (trace, _) = state_tour(
            &cfg,
            SimDuration::from_secs(5),
            SimDuration::from_secs(3),
            SimDuration::from_secs(5),
        );
        let samples = trace.samples();
        // First samples: IDLE level.
        assert!((samples[0] - 0.15).abs() < 1e-9);
        // Peak reaches the DCH transmission level (or the promotion burst).
        let peak = samples.iter().copied().fold(0.0_f64, f64::max);
        assert!(peak >= 1.25);
        // Final samples: back to IDLE.
        assert!((samples[samples.len() - 1] - 0.15).abs() < 1e-9);
        // The FACH plateau exists: some samples at 0.63.
        assert!(samples.iter().any(|&w| (w - 0.63).abs() < 1e-9));
    }

    #[test]
    fn measured_powers_match_table5() {
        let cfg = RrcConfig::paper();
        let rows = measured_state_powers(&cfg);
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
                .1
        };
        assert!((get("IDLE state") - 0.15).abs() < 1e-9);
        assert!((get("FACH state") - 0.63).abs() < 1e-9);
        assert!((get("DCH state without transmission") - 1.15).abs() < 1e-9);
        assert!((get("DCH state with transmission") - 1.25).abs() < 1e-9);
        assert!((get("Fully running CPU (IDLE state)") - 0.60).abs() < 1e-9);
    }
}
