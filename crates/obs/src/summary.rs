//! Constant-memory aggregation over an event stream.

use crate::event::Event;
use serde::Serialize;
use std::collections::BTreeMap;

/// Running aggregates folded from an event stream.
///
/// `ledger_joules` is folded in emission order, so on a stream produced
/// by one machine it equals the machine's reported energy bit-for-bit
/// (same addends, same order).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Summary {
    /// Total events folded in.
    pub events_total: u64,
    /// Events per kind name (see [`Event::kind`]).
    pub events_by_kind: BTreeMap<String, u64>,
    /// Sum of [`Event::EnergySegment`] joules, in emission order.
    pub ledger_joules: f64,
    /// Ledger joules attributed to each radio state.
    pub joules_by_state: BTreeMap<String, f64>,
    /// Total seconds spent in named spans, per span name.
    pub span_seconds: BTreeMap<String, f64>,
    /// Radio state transitions observed.
    pub transitions: u64,
    /// Transfer attempts begun.
    pub transfers_begun: u64,
    /// Transfer attempts that delivered a usable payload.
    pub transfers_completed: u64,
    /// Injected faults observed.
    pub faults: u64,
    /// Retries scheduled after failed attempts.
    pub retries: u64,
    /// Bytes delivered by completed attempts.
    pub bytes_completed: u64,
}

impl Summary {
    /// Fold one event into the aggregates.
    pub fn fold(&mut self, event: &Event) {
        self.events_total += 1;
        *self
            .events_by_kind
            .entry(event.kind().to_string())
            .or_insert(0) += 1;
        match event {
            Event::EnergySegment {
                state, joules: j, ..
            } => {
                self.ledger_joules += j;
                *self.joules_by_state.entry(state.to_string()).or_insert(0.0) += j;
            }
            Event::StateTransition { .. } => self.transitions += 1,
            Event::TransferBegin { .. } => self.transfers_begun += 1,
            Event::TransferEnd {
                bytes,
                completed: true,
                ..
            } => {
                self.transfers_completed += 1;
                self.bytes_completed += bytes;
            }
            Event::TransferFault { .. } => self.faults += 1,
            Event::TransferRetry { .. } => self.retries += 1,
            Event::Span {
                name, start, end, ..
            } => {
                *self.span_seconds.entry((*name).to_string()).or_insert(0.0) +=
                    (*end - *start).as_secs_f64();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Layer, RadioState};
    use ewb_simcore::SimTime;

    #[test]
    fn fold_tracks_energy_transfers_and_spans() {
        let mut s = Summary::default();
        s.fold(&Event::EnergySegment {
            start: SimTime::ZERO,
            end: SimTime::from_secs(2),
            state: RadioState::Dch,
            watts: 1.0,
            joules: 2.0,
        });
        s.fold(&Event::TransferBegin {
            at: SimTime::ZERO,
            id: 1,
            url: "u".into(),
            needs_dch: true,
            attempt: 1,
            promotion_retries: 0,
            data_start: SimTime::ZERO,
        });
        s.fold(&Event::TransferEnd {
            at: SimTime::from_secs(1),
            id: 1,
            bytes: 100,
            completed: true,
        });
        s.fold(&Event::Span {
            layer: Layer::Browser,
            name: "html_parse",
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
        });
        assert_eq!(s.events_total, 4);
        assert_eq!(s.ledger_joules, 2.0);
        assert_eq!(s.joules_by_state["DCH"], 2.0);
        assert_eq!(s.transfers_begun, 1);
        assert_eq!(s.transfers_completed, 1);
        assert_eq!(s.bytes_completed, 100);
        assert_eq!(s.span_seconds["html_parse"], 1.0);
        assert_eq!(s.events_by_kind["energy_segment"], 1);
    }
}
