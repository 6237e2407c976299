//! The energy ledger: the one record of a radio's power and state over
//! time.
//!
//! Every time a radio machine advances its energy meter it also emits an
//! [`Event::EnergySegment`] computed with the *same* arithmetic on the
//! *same* operands (`watts × duration.as_secs_f64()`). Folding those
//! entries in emission order therefore reproduces the machine's reported
//! total energy bit-for-bit — a second, independent path to every
//! headline joule figure that tests can assert exactly.
//!
//! The machines keep no history of their own: their meters hold only a
//! clock and a running total. A reader that needs the history — a
//! windowed energy ([`joules_between`]), a sampled trace
//! ([`power_trace`]), the state changes ([`transitions`]) — attaches a
//! recorder, typically [`Recorder::ledger`](crate::Recorder::ledger),
//! and reads it here.

use crate::event::{Event, RadioState};
use ewb_simcore::{PowerTrace, SimDuration, SimTime};

/// One ledger entry, extracted from an [`Event::EnergySegment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// Segment start.
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// The radio state over the segment.
    pub state: RadioState,
    /// Constant power over the segment, watts.
    pub watts: f64,
    /// Energy of the segment, joules.
    pub joules: f64,
}

/// The ledger entries of an event stream, in emission order.
pub fn entries(events: &[Event]) -> Vec<LedgerEntry> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::EnergySegment {
                start,
                end,
                state,
                watts,
                joules,
            } => Some(LedgerEntry {
                start: *start,
                end: *end,
                state: *state,
                watts: *watts,
                joules: *joules,
            }),
            _ => None,
        })
        .collect()
}

/// Total ledger energy, folded in entry order. On a stream emitted by a
/// single machine this is bit-identical to the machine's
/// `energy().total_joules()`.
pub fn total(entries: &[LedgerEntry]) -> f64 {
    let mut joules = 0.0;
    for e in entries {
        joules += e.joules;
    }
    joules
}

/// Ledger energy within `[from, to)`. Contiguous entries of equal power
/// first merge into one span, and each span contributes `watts ×` the
/// part of it inside the window, so a window over a long IDLE stretch
/// costs one product however many entries it was emitted in. Merging
/// matters to the bits: `w·(d1 + d2)` is not always `w·d1 + w·d2`.
///
/// # Panics
///
/// Panics if `from > to`.
pub fn joules_between(entries: &[LedgerEntry], from: SimTime, to: SimTime) -> f64 {
    assert!(from <= to, "joules_between: from after to");
    let mut total = 0.0;
    let mut i = 0;
    while let Some(e) = entries.get(i) {
        // The span of `e` and the equal-power entries that continue it.
        let mut end = e.end;
        i += 1;
        while let Some(next) = entries
            .get(i)
            .filter(|n| n.start == end && n.watts == e.watts)
        {
            end = next.end;
            i += 1;
        }
        let lo = e.start.max(from);
        let hi = end.min(to);
        if lo < hi {
            total += e.watts * (hi - lo).as_secs_f64();
        }
    }
    total
}

/// The 4 Hz-style trace of the ledger's power: one sample every
/// `interval` from the first entry's start up to the last entry's end,
/// each the power of the entry it falls in, or 0 W in a gap between
/// entries.
///
/// # Panics
///
/// Panics if `interval` is zero.
pub fn power_trace(entries: &[LedgerEntry], interval: SimDuration) -> PowerTrace {
    assert!(!interval.is_zero(), "sampling interval must be positive");
    let mut samples = Vec::new();
    if let (Some(first), Some(last)) = (entries.first(), entries.last()) {
        let mut i = 0;
        let mut t = first.start;
        while t < last.end {
            // `t` is before the last entry's end, so `i` stays in range.
            while entries[i].end <= t {
                i += 1;
            }
            let e = &entries[i];
            samples.push(if e.start <= t { e.watts } else { 0.0 });
            t += interval;
        }
    }
    PowerTrace::new(interval, samples)
}

/// The radio's state changes in an event stream, as `(at, from, to)` in
/// emission order.
pub fn transitions(events: &[Event]) -> Vec<(SimTime, RadioState, RadioState)> {
    events
        .iter()
        .filter_map(|e| match *e {
            Event::StateTransition { at, from, to } => Some((at, from, to)),
            _ => None,
        })
        .collect()
}

/// A defect found by [`audit`].
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// An entry's `joules` is not bit-identical to `watts × duration`.
    Inconsistent {
        /// Index of the offending entry.
        index: usize,
    },
    /// An entry has non-finite or negative power, or `end < start`.
    Malformed {
        /// Index of the offending entry.
        index: usize,
    },
    /// Consecutive entries are not contiguous in time (gap or overlap).
    Discontiguous {
        /// Index of the entry that does not start where its
        /// predecessor ended.
        index: usize,
    },
}

/// Check structural soundness of a ledger: every entry recomputes to its
/// own `joules` bit-for-bit, powers are finite and non-negative, time
/// never runs backwards, and consecutive entries tile the timeline with
/// no gap or overlap. Returns all defects found (empty = clean).
pub fn audit(entries: &[LedgerEntry]) -> Vec<AuditError> {
    let mut errors = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        if !e.watts.is_finite() || e.watts < 0.0 || e.end < e.start {
            errors.push(AuditError::Malformed { index: i });
            continue;
        }
        let recomputed = e.watts * (e.end - e.start).as_secs_f64();
        if recomputed.to_bits() != e.joules.to_bits() {
            errors.push(AuditError::Inconsistent { index: i });
        }
        if i > 0 && entries[i - 1].end != e.start {
            errors.push(AuditError::Discontiguous { index: i });
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(s: u64, t: u64, state: RadioState, watts: f64) -> LedgerEntry {
        let start = SimTime::from_secs(s);
        let end = SimTime::from_secs(t);
        LedgerEntry {
            start,
            end,
            state,
            watts,
            joules: watts * (end - start).as_secs_f64(),
        }
    }

    #[test]
    fn total_folds_in_order() {
        let es = vec![
            entry(0, 2, RadioState::Promoting, 1.25),
            entry(2, 6, RadioState::Dch, 1.15),
            entry(6, 21, RadioState::Fach, 0.63),
        ];
        let expected = 2.0 * 1.25 + 4.0 * 1.15 + 15.0 * 0.63;
        assert!((total(&es) - expected).abs() < 1e-12);
        assert!(audit(&es).is_empty());
    }

    #[test]
    fn joules_between_splits_entries() {
        let es = vec![
            entry(0, 10, RadioState::Dch, 2.0),
            entry(10, 20, RadioState::Fach, 1.0),
        ];
        let j = joules_between(&es, SimTime::from_secs(5), SimTime::from_secs(15));
        assert!((j - 15.0).abs() < 1e-12);
        let outside = joules_between(&es, SimTime::from_secs(30), SimTime::from_secs(40));
        assert_eq!(outside, 0.0);
    }

    /// 0.15 W for 0.1 s and then for 0.9 s merge into one 1 s span: the
    /// window costs `0.15 × 1.0`, exactly 0.15 J, where adding the two
    /// entries' products gives 0.15000000000000002 J.
    #[test]
    fn joules_between_merges_equal_power_neighbours() {
        let ms = SimTime::from_millis;
        let idle = |start: u64, end: u64| LedgerEntry {
            start: ms(start),
            end: ms(end),
            state: RadioState::Idle,
            watts: 0.15,
            joules: 0.15 * (ms(end) - ms(start)).as_secs_f64(),
        };
        let es = [idle(0, 100), idle(100, 1000)];
        assert_eq!(es[0].joules + es[1].joules, 0.15000000000000002);
        assert_eq!(joules_between(&es, ms(0), ms(1000)), 0.15);
        // Equal power across a gap, or unequal power, does not merge.
        let gap = [idle(0, 100), idle(200, 1100)];
        assert_eq!(joules_between(&gap, ms(0), ms(1100)), 0.15000000000000002);
        let mut fach = idle(100, 1000);
        fach.watts = 0.63;
        let j = joules_between(&[idle(0, 100), fach], ms(0), ms(1000));
        assert_eq!(j, 0.15 * 0.1 + 0.63 * 0.9);
    }

    /// Each sample reads the entry whose `[start, end)` holds it, 0 W in
    /// a gap, from the first entry's start up to the last entry's end.
    #[test]
    fn power_trace_samples_entries() {
        let es = vec![
            entry(1, 2, RadioState::Dch, 1.0),
            entry(2, 3, RadioState::Fach, 0.5),
            entry(4, 5, RadioState::Idle, 0.25),
        ];
        let trace = power_trace(&es, SimDuration::from_millis(500));
        assert_eq!(trace.samples(), [1.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.25, 0.25]);
        assert_eq!(trace.interval(), SimDuration::from_millis(500));
        let coarse = power_trace(&es, SimDuration::from_millis(1500));
        assert_eq!(coarse.samples(), [1.0, 0.5, 0.25]);
    }

    #[test]
    fn power_trace_of_an_empty_ledger() {
        let trace = power_trace(&[], PowerTrace::PAPER_INTERVAL);
        assert!(trace.is_empty());
        assert_eq!(trace.mean_watts(), 0.0);
    }

    #[test]
    fn transitions_extracts_state_changes_in_order() {
        let at = SimTime::from_secs;
        let evs = vec![
            Event::StateTransition {
                at: at(1),
                from: RadioState::Idle,
                to: RadioState::Promoting,
            },
            Event::TimerExpired {
                at: at(2),
                timer: crate::event::Timer::T1,
            },
            Event::StateTransition {
                at: at(3),
                from: RadioState::Promoting,
                to: RadioState::Dch,
            },
        ];
        assert_eq!(
            transitions(&evs),
            [
                (at(1), RadioState::Idle, RadioState::Promoting),
                (at(3), RadioState::Promoting, RadioState::Dch)
            ]
        );
    }

    #[test]
    fn audit_flags_inconsistent_joules() {
        let mut e = entry(0, 2, RadioState::Dch, 1.0);
        e.joules += 1e-9;
        assert_eq!(audit(&[e]), vec![AuditError::Inconsistent { index: 0 }]);
    }

    #[test]
    fn audit_flags_gaps() {
        let es = vec![
            entry(0, 2, RadioState::Dch, 1.0),
            entry(3, 4, RadioState::Fach, 1.0),
        ];
        assert_eq!(audit(&es), vec![AuditError::Discontiguous { index: 1 }]);
    }

    #[test]
    fn audit_flags_malformed_power() {
        let mut e = entry(0, 2, RadioState::Dch, 1.0);
        e.watts = f64::NAN;
        assert_eq!(audit(&[e]), vec![AuditError::Malformed { index: 0 }]);
    }

    #[test]
    fn entries_extracts_only_segments() {
        let evs = vec![
            Event::EnergySegment {
                start: SimTime::ZERO,
                end: SimTime::from_secs(1),
                state: RadioState::Idle,
                watts: 0.0,
                joules: 0.0,
            },
            Event::TimerExpired {
                at: SimTime::from_secs(1),
                timer: crate::event::Timer::T1,
            },
        ];
        assert_eq!(entries(&evs).len(), 1);
    }
}
