//! Pluggable radio backends: the [`RadioModel`] trait.
//!
//! The paper's savings are derived on the UMTS 3G RRC machine, whose
//! promotions are expensive (1.75 s, ~7 J) and whose inactivity tail is
//! long (T1 + T2 = 19 s). The related work (arXiv:1710.03559,
//! arXiv:2005.00749) argues the computation-reorganization technique's
//! value changes fundamentally on radios with cheap wakeups — LTE DRX,
//! WiFi PSM, 5G cDRX. This module extracts the exact surface the fetcher,
//! the pipelines, and the session simulator need from a radio, so
//! [`RrcMachine`] becomes one implementation among several (the others
//! live in [`crate::ladder`]).
//!
//! The trait is deliberately shaped after `RrcMachine`'s inherent API:
//! the 3G impl is pure delegation, and since inherent methods win over
//! trait methods at every existing call site, the 3G code path performs
//! the same calls with the same arithmetic as before — bit-identical to
//! the pre-trait goldens by construction.

use crate::config::RrcConfig;
use crate::machine::{RrcLoadEnd, RrcMachine};
use crate::state::RrcState;
use crate::tape::LoadTape;
use ewb_obs::Recorder;
use ewb_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The radio technology a machine models. Part of profile keys, golden
/// tables, and bench reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioBackend {
    /// UMTS 3G RRC (the paper's radio): IDLE/FACH/DCH, T1/T2 timers.
    ThreeG,
    /// LTE: CONNECTED with short+long DRX cycles, inactivity cascade.
    Lte,
    /// WiFi 802.11: active vs power-save mode with beacon wakeups.
    Wifi,
    /// 5G NR: connected-mode DRX with a fast release to idle.
    FiveG,
}

impl RadioBackend {
    /// Every backend, in report order.
    pub const ALL: [RadioBackend; 4] = [
        RadioBackend::ThreeG,
        RadioBackend::Lte,
        RadioBackend::Wifi,
        RadioBackend::FiveG,
    ];

    /// Human-readable backend name (reports, golden tables).
    pub fn name(self) -> &'static str {
        match self {
            RadioBackend::ThreeG => "3g",
            RadioBackend::Lte => "lte",
            RadioBackend::Wifi => "wifi",
            RadioBackend::FiveG => "5g",
        }
    }
}

impl fmt::Display for RadioBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The radio surface the fetcher, replay, session, and profile layers
/// drive: timers, promotion costs, per-state power, and transfer gating,
/// with exact piecewise-constant energy metering behind it.
///
/// Implementations must be deterministic: the same stimulus sequence
/// applied to machines built from the same config must produce
/// bit-identical energy, residency, and counters.
pub trait RadioModel: Sized + Clone {
    /// The backend's named-field configuration (timers, powers).
    type Config: Copy + fmt::Debug + PartialEq + Serialize;
    /// The backend's event counters.
    type Counters: Clone + fmt::Debug + PartialEq + Default + Serialize;
    /// What a page load leaves in the machine besides its meter: the
    /// backend's part of a [`LoadTape`] (the load's residency and counter
    /// deltas, and its end state).
    type LoadEnd: Clone + fmt::Debug + PartialEq;

    /// Which radio technology this machine models.
    const BACKEND: RadioBackend;

    /// Validates a configuration without constructing a machine.
    fn validate_config(cfg: &Self::Config) -> Result<(), String>;

    /// Creates a machine in its deepest sleep state at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RadioModel::validate_config`].
    fn new(cfg: Self::Config, start: SimTime) -> Self {
        Self::with_recorder(cfg, start, Recorder::disabled())
    }

    /// Like [`RadioModel::new`] with structured-event tracing attached.
    /// The recorder only observes — behaviour and energy are identical
    /// with it enabled or disabled.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RadioModel::validate_config`].
    fn with_recorder(cfg: Self::Config, start: SimTime, recorder: Recorder) -> Self;

    /// Replaces the machine's recorder.
    fn set_recorder(&mut self, recorder: Recorder);

    /// The machine's configuration.
    fn config(&self) -> &Self::Config;

    /// The machine's current time (the last stimulus it processed).
    fn now(&self) -> SimTime;

    /// Advances virtual time to `t`, firing timers/promotions on the way
    /// and integrating energy.
    fn advance_to(&mut self, t: SimTime);

    /// Requests a data transfer at `t`; returns the instant data can
    /// actually start flowing (after any promotion, whose signaling
    /// fails `retries` times first). `needs_fast` says whether the
    /// transfer exceeds the backend's shared/background channel
    /// capability — only 3G has one; other backends always promote to
    /// their full-rate state.
    fn begin_transfer_with_promotion_retries(
        &mut self,
        t: SimTime,
        needs_fast: bool,
        retries: u32,
    ) -> SimTime;

    /// Marks one transfer as finished at `t`, arming the backend's
    /// inactivity timer when it was the last one.
    fn end_transfer(&mut self, t: SimTime);

    /// Application-initiated fast release to the deepest sleep state
    /// (3G fast dormancy, LTE connection release, WiFi PSM entry, 5G
    /// inactive release). Returns the instant the release completes; a
    /// no-op returning `t` when already fully asleep.
    fn release_to_idle(&mut self, t: SimTime) -> SimTime;

    /// Sets the simulated CPU load in `[0, 1]`, effective from `t`.
    fn set_cpu_load(&mut self, t: SimTime, load: f64);

    /// Whether any transfer is currently requested/active.
    fn is_transferring(&self) -> bool;

    /// Total energy so far, joules.
    fn energy_j(&self) -> f64;

    /// Event counters so far.
    fn counters(&self) -> Self::Counters;

    /// Total time accounted across all states — must equal elapsed time.
    fn residency_total(&self) -> SimDuration;

    /// Whether the current state can move user data.
    fn transfer_capable(&self) -> bool;

    /// A short, stable name of the current state (differential oracles,
    /// reports).
    fn state_label(&self) -> &'static str;

    /// The latency of [`RadioModel::release_to_idle`] under `cfg` — what
    /// the session layer uses to gate releases against the next click.
    fn release_latency(cfg: &Self::Config) -> SimDuration;

    /// Whether a transfer of `bytes` exceeds the backend's shared/
    /// background channel capability and needs the full-rate state.
    fn needs_fast_channel(&self, bytes: u64) -> bool;

    /// Whether a transfer beginning now with the given `needs_fast`
    /// rides the backend's low-rate shared channel (3G FACH). Backends
    /// without a shared-channel trickle path always return `false`.
    fn uses_shared_channel_rate(&self, needs_fast: bool) -> bool;

    /// How many distinct states a click can find the radio in — the
    /// memoized-profile key dimension (3G: IDLE/FACH/DCH).
    fn click_state_count() -> usize;

    /// Stable name of click state `index` (profile keys, goldens).
    ///
    /// # Panics
    ///
    /// Panics if `index >= click_state_count()`.
    fn click_state_name(index: usize) -> &'static str;

    /// A machine pre-driven to a click instant in click state `index`,
    /// plus that instant. Mirrors the profile layer's contract: the
    /// pre-drive uses plain transfers and waiting, so any pending
    /// inactivity deadline it leaves behind is exactly the kind a real
    /// session leaves.
    ///
    /// # Panics
    ///
    /// Panics if `index >= click_state_count()` or `cfg` is invalid.
    fn in_click_state(cfg: Self::Config, index: usize) -> (Self, SimTime);

    /// The click-state index of the current state.
    ///
    /// # Panics
    ///
    /// Panics if the current state is not a click state (e.g. a
    /// promotion window, which only exists inside page loads).
    fn click_state_index(&self) -> usize;

    /// The compile step of [`LoadTape::compile`]: what the load since
    /// `at_click` — this machine as the click at `click` found it — left
    /// in the machine besides its meter.
    ///
    /// # Panics
    ///
    /// Panics if the load has not finished: a transfer is active, a
    /// promotion is in flight, or the CPU load is nonzero.
    fn load_end(&self, at_click: &Self, click: SimTime) -> Self::LoadEnd;

    /// Plays `tape` at `click`. Every observable of the machine — its
    /// energy total and clock, counters, residency, state and pending
    /// deadlines — ends exactly as if the stimuli the tape was compiled
    /// from had been applied `click` later.
    ///
    /// # Panics
    ///
    /// Panics unless the machine is at `click` in the tape's click state
    /// with no transfer active and the CPU idle, and has no recorder
    /// attached: a traced machine must see the load's events, which a
    /// tape does not replay.
    fn play_tape(&mut self, tape: &LoadTape<Self>, click: SimTime);
}

/// The 3G click states, in [`RadioModel::click_state_index`] order.
const THREE_G_CLICK_STATES: [RrcState; 3] = [RrcState::Idle, RrcState::Fach, RrcState::Dch];

impl RrcState {
    /// This state's 3G click-state index ([`RadioModel::click_state_index`]
    /// order: IDLE, FACH, DCH).
    ///
    /// # Panics
    ///
    /// Panics on `Promoting`: a click cannot find the radio mid-promotion.
    pub fn click_state_index(self) -> usize {
        match self {
            RrcState::Idle => 0,
            RrcState::Fach => 1,
            RrcState::Dch => 2,
            RrcState::Promoting => panic!(
                "a click cannot find the radio in the Promoting state: promotion windows \
                 only exist inside page loads"
            ),
        }
    }
}

impl RadioModel for RrcMachine {
    type Config = RrcConfig;
    type Counters = crate::machine::RrcCounters;
    type LoadEnd = RrcLoadEnd;

    const BACKEND: RadioBackend = RadioBackend::ThreeG;

    fn validate_config(cfg: &RrcConfig) -> Result<(), String> {
        cfg.validate()
    }

    fn with_recorder(cfg: RrcConfig, start: SimTime, recorder: Recorder) -> Self {
        RrcMachine::with_recorder(cfg, start, recorder)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        RrcMachine::set_recorder(self, recorder);
    }

    fn config(&self) -> &RrcConfig {
        RrcMachine::config(self)
    }

    fn now(&self) -> SimTime {
        RrcMachine::now(self)
    }

    fn advance_to(&mut self, t: SimTime) {
        RrcMachine::advance_to(self, t);
    }

    fn begin_transfer_with_promotion_retries(
        &mut self,
        t: SimTime,
        needs_fast: bool,
        retries: u32,
    ) -> SimTime {
        RrcMachine::begin_transfer_with_promotion_retries(self, t, needs_fast, retries)
    }

    fn end_transfer(&mut self, t: SimTime) {
        RrcMachine::end_transfer(self, t);
    }

    fn release_to_idle(&mut self, t: SimTime) -> SimTime {
        RrcMachine::release_to_idle(self, t)
    }

    fn set_cpu_load(&mut self, t: SimTime, load: f64) {
        RrcMachine::set_cpu_load(self, t, load);
    }

    fn is_transferring(&self) -> bool {
        RrcMachine::is_transferring(self)
    }

    fn energy_j(&self) -> f64 {
        RrcMachine::energy_j(self)
    }

    fn counters(&self) -> Self::Counters {
        RrcMachine::counters(self)
    }

    fn residency_total(&self) -> SimDuration {
        self.residency().total()
    }

    fn transfer_capable(&self) -> bool {
        matches!(self.state(), RrcState::Fach | RrcState::Dch)
    }

    fn state_label(&self) -> &'static str {
        self.state().name()
    }

    fn release_latency(cfg: &RrcConfig) -> SimDuration {
        cfg.release_latency
    }

    fn needs_fast_channel(&self, bytes: u64) -> bool {
        RrcMachine::config(self).needs_dch(bytes)
    }

    fn uses_shared_channel_rate(&self, needs_fast: bool) -> bool {
        self.state() == RrcState::Fach && !needs_fast
    }

    fn click_state_count() -> usize {
        THREE_G_CLICK_STATES.len()
    }

    fn click_state_name(index: usize) -> &'static str {
        THREE_G_CLICK_STATES[index].name()
    }

    fn in_click_state(cfg: RrcConfig, index: usize) -> (Self, SimTime) {
        let state = THREE_G_CLICK_STATES[index];
        let mut machine = RrcMachine::new(cfg, SimTime::ZERO);
        let t0 = match state {
            RrcState::Idle => SimTime::ZERO,
            RrcState::Fach | RrcState::Dch => {
                let data_start = machine.begin_transfer(SimTime::ZERO, state == RrcState::Dch);
                let end = data_start + SimDuration::from_millis(100);
                machine.end_transfer(end);
                end + SimDuration::from_secs(1)
            }
            RrcState::Promoting => unreachable!("Promoting is not a click state"),
        };
        machine.advance_to(t0);
        assert_eq!(machine.state(), state, "pre-drive must land in {state:?}");
        (machine, t0)
    }

    fn click_state_index(&self) -> usize {
        self.state().click_state_index()
    }

    fn load_end(&self, at_click: &Self, click: SimTime) -> RrcLoadEnd {
        RrcMachine::load_end(self, at_click, click)
    }

    fn play_tape(&mut self, tape: &LoadTape<Self>, click: SimTime) {
        RrcMachine::play_tape(self, tape, click);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait surface on `RrcMachine` is pure delegation: a scenario
    /// driven through `RadioModel` is bit-identical to the same scenario
    /// driven through the inherent API.
    #[test]
    fn trait_calls_are_bit_identical_to_inherent_calls() {
        fn drive_inherent(m: &mut RrcMachine) {
            let s = m.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 1);
            m.end_transfer(s + SimDuration::from_secs(2));
            m.set_cpu_load(s + SimDuration::from_secs(3), 0.5);
            let s2 = m.begin_transfer(s + SimDuration::from_secs(8), false);
            m.end_transfer(s2 + SimDuration::from_millis(300));
            m.release_to_idle(s2 + SimDuration::from_secs(3));
            m.advance_to(s2 + SimDuration::from_secs(20));
        }
        fn drive_trait<R: RadioModel>(m: &mut R) {
            let s = m.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 1);
            m.end_transfer(s + SimDuration::from_secs(2));
            m.set_cpu_load(s + SimDuration::from_secs(3), 0.5);
            let s2 =
                m.begin_transfer_with_promotion_retries(s + SimDuration::from_secs(8), false, 0);
            m.end_transfer(s2 + SimDuration::from_millis(300));
            m.release_to_idle(s2 + SimDuration::from_secs(3));
            m.advance_to(s2 + SimDuration::from_secs(20));
        }
        let cfg = RrcConfig::paper();
        let (ra, rb) = (Recorder::memory(), Recorder::memory());
        let mut a = RrcMachine::with_recorder(cfg, SimTime::ZERO, ra.clone());
        let mut b = <RrcMachine as RadioModel>::with_recorder(cfg, SimTime::ZERO, rb.clone());
        drive_inherent(&mut a);
        drive_trait(&mut b);
        assert_eq!(a.energy_j().to_bits(), b.energy_j().to_bits());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.residency(), b.residency());
        assert_eq!(ra.events(), rb.events());
    }

    #[test]
    fn three_g_click_states_match_the_profile_convention() {
        assert_eq!(<RrcMachine as RadioModel>::click_state_count(), 3);
        let cfg = RrcConfig::paper();
        for (i, want) in [RrcState::Idle, RrcState::Fach, RrcState::Dch]
            .into_iter()
            .enumerate()
        {
            let (m, t0) = <RrcMachine as RadioModel>::in_click_state(cfg, i);
            assert_eq!(m.state(), want);
            assert_eq!(m.now(), t0);
            assert_eq!(RadioModel::click_state_index(&m), i);
        }
    }

    #[test]
    fn shared_channel_gating_matches_fach_semantics() {
        let cfg = RrcConfig::paper();
        let (m, _) = <RrcMachine as RadioModel>::in_click_state(cfg, 1); // FACH
        assert!(m.uses_shared_channel_rate(false));
        assert!(!m.uses_shared_channel_rate(true));
        assert!(RadioModel::transfer_capable(&m));
        let (idle, _) = <RrcMachine as RadioModel>::in_click_state(cfg, 0);
        assert!(!idle.uses_shared_channel_rate(false));
        assert!(!RadioModel::transfer_capable(&idle));
        // The byte threshold is the FACH capacity.
        assert!(!idle.needs_fast_channel(1));
        assert!(idle.needs_fast_channel(100_000));
    }
}
