//! Property-based tests for the energy ledger.

use ewb_obs::{ledger, LedgerEntry, RadioState};
use ewb_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// joules_between over the full range equals the total.
    #[test]
    fn energy_between_covers_total(
        segs in proptest::collection::vec((1u64..1_000_000, 0.0f64..3.0), 1..20)
    ) {
        let mut entries = Vec::new();
        let mut t = SimTime::ZERO;
        for (dur, watts) in segs {
            let d = SimDuration::from_micros(dur);
            entries.push(LedgerEntry {
                start: t,
                end: t + d,
                state: RadioState::Idle,
                watts,
                joules: watts * d.as_secs_f64(),
            });
            t += d;
        }
        let j = ledger::joules_between(&entries, SimTime::ZERO, t);
        prop_assert!((j - ledger::total(&entries)).abs() < 1e-6);
    }
}
