//! Deliberately seeded defects, used to prove the harness has teeth.
//!
//! A mutant doctors the *system under test* (the machine the driver
//! builds) while the reference interpreter keeps the true
//! configuration. Each backend lists the mutants aimed at it and how
//! they doctor its config ([`CheckedRadio`](crate::backend::CheckedRadio)).
//! A sound harness must catch every mutant with a short, shrunk
//! counterexample; a harness that passes a mutant is asserting nothing.
//! `check_all` re-verifies the 3G mutants on every CI run.

/// A seeded defect in the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// No defect: the SUT uses the true configuration.
    None,
    /// 3G: T1 and T2 wiring swapped — the DCH→FACH demotion waits T2
    /// (15 s) and the FACH→IDLE release waits T1 (4 s), the classic
    /// transposed-constant bug.
    SwappedTimers,
    /// 3G: fast dormancy silently dropped — `release_to_idle` requests
    /// are ignored by the radio firmware, so the tail timers keep
    /// burning. The only mutant that changes the driving rather than
    /// the config ([`Mutant::drops_release`]).
    IgnoredDormancy,
    /// 3G: the IDLE→DCH promotion completes in half the calibrated
    /// latency, under-billing every cold start's time and energy.
    EagerPromotion,
    /// LTE: the short- and long-DRX dwell timers are transposed — the
    /// transposed-constant bug, LTE edition.
    SwappedDrxCycles,
    /// WiFi: the firmware skips beacon wakeups entirely (`beacon_on_s`
    /// and `beacon_wake_mj` forced to zero), under-billing every second
    /// spent in PSM.
    IgnoredPsmBeacon,
    /// 5G: the cDRX tail is cut to a quarter of the calibrated value —
    /// the radio releases to IDLE far too eagerly.
    EagerFiveGRelease,
}

impl Mutant {
    /// Whether the SUT silently drops `release_to_idle` requests.
    pub fn drops_release(self) -> bool {
        matches!(self, Mutant::IgnoredDormancy)
    }

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Mutant::None => "none",
            Mutant::SwappedTimers => "swapped-timers",
            Mutant::IgnoredDormancy => "ignored-dormancy",
            Mutant::EagerPromotion => "eager-promotion",
            Mutant::SwappedDrxCycles => "swapped-drx-cycles",
            Mutant::IgnoredPsmBeacon => "ignored-psm-beacon",
            Mutant::EagerFiveGRelease => "eager-5g-release",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CheckedRadio;
    use ewb_rrc::{RrcConfig, RrcMachine};

    #[test]
    fn doctored_configs_still_validate() {
        let cfg = RrcConfig::paper();
        let mut all = vec![Mutant::None];
        all.extend(RrcMachine::MUTANTS);
        for m in all {
            let d = RrcMachine::doctor(&cfg, m);
            assert!(
                d.validate().is_ok(),
                "{}: doctored config invalid",
                m.label()
            );
        }
    }

    #[test]
    fn swapped_timers_actually_swaps() {
        let cfg = RrcConfig::paper();
        let d = RrcMachine::doctor(&cfg, Mutant::SwappedTimers);
        assert_eq!(d.t1, cfg.t2);
        assert_eq!(d.t2, cfg.t1);
    }
}
