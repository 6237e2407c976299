//! Property-based tests for the RRC state machine.
//!
//! These drive the machine with arbitrary (but well-formed) stimulus
//! sequences and check global invariants that must hold for *any* workload:
//! residency accounting, energy bounds, and legal state transitions.

use ewb_obs::{ledger, RadioState, Recorder};
use ewb_rrc::{RrcConfig, RrcMachine, RrcState};
use ewb_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

/// A well-formed stimulus: (gap before the transfer, transfer length,
/// whether it needs DCH, whether to fast-dormancy release afterwards).
fn stimulus() -> impl Strategy<Value = (u64, u64, bool, bool)> {
    (
        0u64..30_000_000,       // gap up to 30 s, microseconds
        100_000u64..10_000_000, // transfer 0.1–10 s
        any::<bool>(),
        any::<bool>(),
    )
}

fn run(seq: &[(u64, u64, bool, bool)]) -> RrcMachine {
    run_traced(seq, Recorder::disabled())
}

/// [`run`] with `recorder` attached to the machine.
fn run_traced(seq: &[(u64, u64, bool, bool)], recorder: Recorder) -> RrcMachine {
    let mut m = RrcMachine::with_recorder(RrcConfig::paper(), SimTime::ZERO, recorder);
    let mut t = SimTime::ZERO;
    for &(gap, xfer, needs_dch, release) in seq {
        t += SimDuration::from_micros(gap);
        let data_start = m.begin_transfer(t, needs_dch);
        let data_end = data_start + SimDuration::from_micros(xfer);
        m.end_transfer(data_end);
        t = if release {
            m.release_to_idle(data_end)
        } else {
            data_end
        };
    }
    m.advance_to(t + SimDuration::from_secs(60));
    m
}

proptest! {
    /// Residency always sums exactly to elapsed time.
    #[test]
    fn residency_partitions_time(seq in proptest::collection::vec(stimulus(), 1..20)) {
        let m = run(&seq);
        prop_assert_eq!(m.residency().total(), m.now() - SimTime::ZERO);
    }

    /// Energy is bounded by the extreme power levels: every second costs at
    /// least IDLE power and at most promotion power plus full CPU.
    #[test]
    fn energy_is_bounded(seq in proptest::collection::vec(stimulus(), 1..20)) {
        let m = run(&seq);
        let secs = (m.now() - SimTime::ZERO).as_secs_f64();
        let pm = &RrcConfig::paper().power;
        let lo = pm.idle_w * secs;
        let hi = (pm.promotion_w.max(pm.dch_tx_w) + pm.cpu_full_extra_w) * secs;
        prop_assert!(m.energy_j() >= lo - 1e-6, "energy {} < idle floor {}", m.energy_j(), lo);
        prop_assert!(m.energy_j() <= hi + 1e-6, "energy {} > ceiling {}", m.energy_j(), hi);
    }

    /// After a long quiet period the machine always ends in IDLE, and every
    /// recorded transition is a legal RRC edge.
    #[test]
    fn settles_to_idle_via_legal_edges(seq in proptest::collection::vec(stimulus(), 1..20)) {
        let recorder = Recorder::memory();
        let m = run_traced(&seq, recorder.clone());
        prop_assert_eq!(m.state(), RrcState::Idle);
        for tr in ledger::transitions(&recorder.events()) {
            let legal = matches!(
                (tr.1, tr.2),
                (RadioState::Idle, RadioState::Promoting)
                    | (RadioState::Fach, RadioState::Promoting)
                    | (RadioState::Promoting, RadioState::Dch)
                    | (RadioState::Promoting, RadioState::Fach)
                    | (RadioState::Dch, RadioState::Fach)
                    | (RadioState::Dch, RadioState::Idle)
                    | (RadioState::Fach, RadioState::Idle)
            );
            prop_assert!(legal, "illegal transition {:?}", tr);
        }
    }

    /// Transition timestamps are non-decreasing.
    #[test]
    fn transitions_are_chronological(seq in proptest::collection::vec(stimulus(), 1..20)) {
        let recorder = Recorder::memory();
        run_traced(&seq, recorder.clone());
        for w in ledger::transitions(&recorder.events()).windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }

    /// Fast dormancy never *increases* total energy for the same workload
    /// when the inter-transfer gaps are long (past the intuitive-approach
    /// break-even).
    #[test]
    fn dormancy_saves_energy_for_long_gaps(
        gaps in proptest::collection::vec(12_000_000u64..40_000_000, 1..8)
    ) {
        let mk = |release: bool| {
            let mut m = RrcMachine::new(RrcConfig::paper(), SimTime::ZERO);
            let mut t = SimTime::ZERO;
            for &gap in &gaps {
                let ds = m.begin_transfer(t, true);
                let de = ds + SimDuration::from_millis(500);
                m.end_transfer(de);
                if release {
                    m.release_to_idle(de);
                }
                t = de + SimDuration::from_micros(gap);
            }
            m.advance_to(t + SimDuration::from_secs(30));
            m.energy_j()
        };
        prop_assert!(mk(true) <= mk(false) + 1e-6);
    }

    /// The energy meter and a 4 Hz sampled trace agree to within the
    /// sampling error bound (one sample interval's worth of the largest
    /// power step per transition).
    #[test]
    fn sampled_trace_approximates_exact_energy(seq in proptest::collection::vec(stimulus(), 1..10)) {
        let recorder = Recorder::memory();
        let m = run_traced(&seq, recorder.clone());
        let events = recorder.events();
        let trace = ledger::power_trace(
            &ledger::entries(&events),
            ewb_simcore::PowerTrace::PAPER_INTERVAL,
        );
        let exact = m.energy_j();
        let sampled = trace.estimated_joules();
        // Each state change can misattribute at most one 0.25 s sample at
        // the maximum power delta (~4.45 W).
        let bound = (ledger::transitions(&events).len() as f64 + 2.0) * 0.25 * 4.45;
        prop_assert!(
            (exact - sampled).abs() <= bound,
            "exact {exact} vs sampled {sampled}, bound {bound}"
        );
    }
}
