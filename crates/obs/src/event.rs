//! The structured event vocabulary shared by every instrumented layer.
//!
//! Events are stamped with [`SimTime`] only — no wall clock anywhere — so
//! a fixed-seed run always produces the identical stream. The vocabulary
//! deliberately avoids depending on the layer crates (which depend on
//! *this* crate): radio states, timers, and fault kinds are re-declared
//! here as plain enums and the emitting layer maps into them.

use ewb_simcore::SimTime;
use serde::Serialize;
use std::fmt;

/// Which subsystem emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Layer {
    /// The RRC state machine (`ewb-rrc`).
    Rrc,
    /// The 3G fetcher and fault injector (`ewb-net`).
    Net,
    /// The page-load pipelines (`ewb-browser`).
    Browser,
    /// Session orchestration (`ewb-core`).
    Session,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Rrc => "rrc",
            Layer::Net => "net",
            Layer::Browser => "browser",
            Layer::Session => "session",
        })
    }
}

/// The radio state an event refers to (mirror of `ewb_rrc::RrcState`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RadioState {
    /// No signaling connection.
    Idle,
    /// Promotion window in progress.
    Promoting,
    /// Shared common channels.
    Fach,
    /// Dedicated channels held.
    Dch,
    /// Full-rate connected state of a non-3G backend (LTE CONNECTED
    /// continuous reception, WiFi active, 5G NR connected).
    Connected,
    /// LTE short-DRX: connected, receiver duty-cycled on a short cycle.
    ShortDrx,
    /// LTE long-DRX: connected, receiver duty-cycled on a long cycle.
    LongDrx,
    /// WiFi 802.11 power-save mode: asleep between beacon wakeups.
    PsmSleep,
    /// 5G NR connected-mode DRX: duty-cycled between data bursts.
    Cdrx,
}

impl fmt::Display for RadioState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RadioState::Idle => "IDLE",
            RadioState::Promoting => "PROMOTING",
            RadioState::Fach => "FACH",
            RadioState::Dch => "DCH",
            RadioState::Connected => "CONNECTED",
            RadioState::ShortDrx => "SHORT_DRX",
            RadioState::LongDrx => "LONG_DRX",
            RadioState::PsmSleep => "PSM",
            RadioState::Cdrx => "CDRX",
        })
    }
}

/// The network-armed inactivity timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Timer {
    /// DCH→FACH inactivity timer.
    T1,
    /// FACH→IDLE inactivity timer.
    T2,
    /// A ladder backend's per-level inactivity dwell timer (LTE DRX
    /// descent, WiFi PSM timeout, 5G cDRX tail). Firing demotes the radio
    /// one level toward its deepest sleep state.
    Dwell,
}

/// What went wrong with a transfer attempt (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// The attempt stalled and was abandoned after the stall timeout.
    Lost,
    /// The response arrived truncated/corrupt; bytes and energy were
    /// spent, the payload is unusable.
    Truncated,
}

/// One structured, sim-clock-stamped event.
///
/// Every variant carries explicit instants; none reads a clock. The
/// stream is totally ordered by [`Event::at`] with emission order as the
/// tiebreak (what [`crate::timeline::sorted`] implements).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    /// The radio changed state (`ewb-rrc`).
    StateTransition {
        /// When the change took effect.
        at: SimTime,
        /// State before.
        from: RadioState,
        /// State after.
        to: RadioState,
    },
    /// A promotion window opened (`ewb-rrc`).
    PromotionStart {
        /// When the promotion was requested.
        at: SimTime,
        /// The power-relevant origin state.
        from: RadioState,
        /// The state being promoted to.
        target: RadioState,
        /// When the promotion will complete.
        done: SimTime,
        /// Failed signaling attempts charged to this window (fault
        /// injection); each one extends it by a full promotion latency.
        retries: u32,
    },
    /// An inactivity timer fired (`ewb-rrc`).
    TimerExpired {
        /// When the timer fired.
        at: SimTime,
        /// Which timer.
        timer: Timer,
    },
    /// Application-initiated fast-dormancy release (`ewb-rrc`).
    FastDormancy {
        /// When the release was requested.
        at: SimTime,
        /// When IDLE is reached (after the release signaling window).
        done: SimTime,
    },
    /// One constant-power span integrated by the radio's energy meter —
    /// an entry of the **energy ledger** (`ewb-rrc`). Summing `joules`
    /// over the stream, in emission order, reproduces the machine's
    /// reported total energy exactly (bit-identical f64), because both
    /// integrate the same piecewise-constant power with the same
    /// arithmetic.
    EnergySegment {
        /// Segment start.
        start: SimTime,
        /// Segment end (exclusive).
        end: SimTime,
        /// The radio state over the segment.
        state: RadioState,
        /// Constant power over the segment, watts.
        watts: f64,
        /// Energy of the segment, joules (`watts × duration`).
        joules: f64,
    },
    /// A transfer attempt started occupying the radio (`ewb-net`).
    TransferBegin {
        /// When the attempt began (radio activity starts here).
        at: SimTime,
        /// Request id, unique per fetcher.
        id: u64,
        /// The requested URL.
        url: String,
        /// Whether dedicated channels are needed.
        needs_dch: bool,
        /// 1-based attempt number under the retry policy.
        attempt: u32,
        /// Failed promotion attempts charged to this attempt's promotion.
        promotion_retries: u32,
        /// When response data can start flowing (after any promotion).
        data_start: SimTime,
    },
    /// A transfer attempt released the radio (`ewb-net`).
    TransferEnd {
        /// When the attempt finished (or was abandoned).
        at: SimTime,
        /// Request id, matching the begin event.
        id: u64,
        /// Bytes moved over the radio (0 for a stalled attempt).
        bytes: u64,
        /// Whether a usable payload was delivered.
        completed: bool,
    },
    /// A failed attempt will be retried after backoff (`ewb-net`).
    TransferRetry {
        /// When the failed attempt ended.
        at: SimTime,
        /// Request id.
        id: u64,
        /// The attempt number that just failed (1-based).
        attempt: u32,
        /// When the next attempt starts.
        retry_at: SimTime,
    },
    /// An injected fault hit a transfer attempt (`ewb-net`).
    TransferFault {
        /// When the fault materialized.
        at: SimTime,
        /// Request id.
        id: u64,
        /// What kind of fault.
        kind: FaultKind,
    },
    /// A named computation span (`ewb-browser` pipeline stages, phases).
    Span {
        /// Which layer ran the span.
        layer: Layer,
        /// Stage name (e.g. `html_parse`, `transmission_phase`).
        name: &'static str,
        /// Span start.
        start: SimTime,
        /// Span end.
        end: SimTime,
    },
    /// A named scalar sample (`ewb-browser` per-load totals, etc.).
    Counter {
        /// When the sample was taken.
        at: SimTime,
        /// Which layer sampled it.
        layer: Layer,
        /// Counter name.
        name: &'static str,
        /// The value.
        value: f64,
    },
    /// One visit of a browsing session (`ewb-core`).
    PageVisit {
        /// When the click happened.
        at: SimTime,
        /// Zero-based visit index within the session.
        index: u32,
        /// The page's root URL.
        url: String,
        /// When the page finished opening.
        opened: SimTime,
        /// When the visit ended (next click / session end).
        end: SimTime,
        /// When the radio was released to IDLE during reading, if it was.
        released_at: Option<SimTime>,
    },
}

impl Event {
    /// The event's primary instant — the sort key of a timeline. Spans
    /// and ledger segments sort by their start.
    pub fn at(&self) -> SimTime {
        match self {
            Event::StateTransition { at, .. }
            | Event::PromotionStart { at, .. }
            | Event::TimerExpired { at, .. }
            | Event::FastDormancy { at, .. }
            | Event::TransferBegin { at, .. }
            | Event::TransferEnd { at, .. }
            | Event::TransferRetry { at, .. }
            | Event::TransferFault { at, .. }
            | Event::Counter { at, .. }
            | Event::PageVisit { at, .. } => *at,
            Event::EnergySegment { start, .. } | Event::Span { start, .. } => *start,
        }
    }

    /// A short kind name, used by assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::StateTransition { .. } => "state_transition",
            Event::PromotionStart { .. } => "promotion_start",
            Event::TimerExpired { .. } => "timer_expired",
            Event::FastDormancy { .. } => "fast_dormancy",
            Event::EnergySegment { .. } => "energy_segment",
            Event::TransferBegin { .. } => "transfer_begin",
            Event::TransferEnd { .. } => "transfer_end",
            Event::TransferRetry { .. } => "transfer_retry",
            Event::TransferFault { .. } => "transfer_fault",
            Event::Span { .. } => "span",
            Event::Counter { .. } => "counter",
            Event::PageVisit { .. } => "page_visit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_returns_the_primary_instant() {
        let seg = Event::EnergySegment {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            state: RadioState::Dch,
            watts: 1.15,
            joules: 1.15,
        };
        assert_eq!(seg.at(), SimTime::from_secs(1));
        assert_eq!(seg.kind(), "energy_segment");
        let t = Event::TimerExpired {
            at: SimTime::from_secs(9),
            timer: Timer::T1,
        };
        assert_eq!(t.at(), SimTime::from_secs(9));
    }

    #[test]
    fn events_serialize_as_single_entry_maps() {
        let e = Event::TimerExpired {
            at: SimTime::from_secs(4),
            timer: Timer::T2,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(json, r#"{"TimerExpired":{"at":4000000,"timer":"T2"}}"#);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(RadioState::Fach.to_string(), "FACH");
        assert_eq!(Layer::Browser.to_string(), "browser");
    }
}
