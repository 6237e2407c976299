//! The RRC state machine with built-in energy metering.
//!
//! [`RrcMachine`] is driven by three kinds of stimuli:
//!
//! * [`RrcMachine::begin_transfer`] / [`RrcMachine::end_transfer`] — user
//!   data moving, which (re)sets the inactivity timers and may require a
//!   promotion first;
//! * [`RrcMachine::release_to_idle`] — the paper's fast-dormancy "state
//!   switch" (§4.4), an application-initiated early release;
//! * [`RrcMachine::advance_to`] — the passage of time, during which the
//!   machine fires T1/T2 expirations and finishes promotions on its own.
//!
//! Between stimuli the handset's power draw is piecewise constant, so the
//! embedded [`EnergyMeter`] integrates energy exactly. The machine keeps
//! no history of its states or powers: it emits both into its recorder,
//! whose energy ledger ([`ewb_obs::ledger`]) is the one record of them.

use crate::config::RrcConfig;
use crate::state::RrcState;
use crate::tape::{field_deltas, LoadTape};
use ewb_obs::{Event as ObsEvent, RadioState as ObsState, Recorder, Timer as ObsTimer};
use ewb_simcore::{EnergyMeter, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Cumulative time spent in each state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StateResidency {
    /// Time in IDLE.
    pub idle: SimDuration,
    /// Time in promotion windows.
    pub promoting: SimDuration,
    /// Time in FACH.
    pub fach: SimDuration,
    /// Time in DCH (dedicated channels held).
    pub dch: SimDuration,
}

impl StateResidency {
    /// Sum over all states — equals the machine's elapsed time.
    pub fn total(&self) -> SimDuration {
        self.idle + self.promoting + self.fach + self.dch
    }

    fn add(&mut self, state: RrcState, d: SimDuration) {
        match state {
            RrcState::Idle => self.idle += d,
            RrcState::Promoting => self.promoting += d,
            RrcState::Fach => self.fach += d,
            RrcState::Dch => self.dch += d,
        }
    }
}

field_deltas!(StateResidency {
    idle,
    promoting,
    fach,
    dch,
});

/// Event counters, useful for assertions and capacity accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RrcCounters {
    /// Transfers requested via [`RrcMachine::begin_transfer`].
    pub transfers: u64,
    /// IDLE→DCH promotions.
    pub idle_to_dch: u64,
    /// IDLE→FACH promotions.
    pub idle_to_fach: u64,
    /// FACH→DCH promotions.
    pub fach_to_dch: u64,
    /// T1 expirations (DCH→FACH demotions).
    pub t1_expirations: u64,
    /// T2 expirations (FACH→IDLE releases by the network).
    pub t2_expirations: u64,
    /// Application-initiated fast-dormancy releases.
    pub fast_dormancy_releases: u64,
    /// Failed promotion attempts that were retried by the signaling layer
    /// (fault injection); each costs one extra promotion window of
    /// latency and promotion-level power.
    pub promotion_retries: u64,
}

field_deltas!(RrcCounters {
    transfers,
    idle_to_dch,
    idle_to_fach,
    fach_to_dch,
    t1_expirations,
    t2_expirations,
    fast_dormancy_releases,
    promotion_retries,
});

/// What a page load leaves in an [`RrcMachine`] besides its meter: the
/// 3G part of a [`LoadTape`]. Deadlines are relative to the click.
#[derive(Debug, Clone, PartialEq)]
pub struct RrcLoadEnd {
    residency: StateResidency,
    counters: RrcCounters,
    state: RrcState,
    t1_deadline: Option<SimDuration>,
    t2_deadline: Option<SimDuration>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    PromotionDone,
    T1Expired,
    T2Expired,
}

/// The UMTS RRC state machine of one handset, with exact energy metering.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct RrcMachine {
    cfg: RrcConfig,
    meter: EnergyMeter,
    state: RrcState,
    /// Target and power-relevant origin of an in-flight promotion.
    promotion: Option<(SimTime, RrcState, RrcState)>, // (end, target, from)
    t1_deadline: Option<SimTime>,
    t2_deadline: Option<SimTime>,
    active_transfers: u32,
    cpu_load: f64,
    residency: StateResidency,
    counters: RrcCounters,
    recorder: Recorder,
}

impl RrcMachine {
    /// Creates a machine in IDLE at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RrcConfig::validate`].
    pub fn new(cfg: RrcConfig, start: SimTime) -> Self {
        Self::with_recorder(cfg, start, Recorder::disabled())
    }

    /// Like [`RrcMachine::new`], but every state transition, timer
    /// expiry, promotion, and energy-meter advance is mirrored into
    /// `recorder` as structured events. The recorder only observes —
    /// machine behaviour and energy are identical with it enabled or
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RrcConfig::validate`].
    pub fn with_recorder(cfg: RrcConfig, start: SimTime, recorder: Recorder) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid RrcConfig: {e}");
        }
        RrcMachine {
            cfg,
            meter: EnergyMeter::new(start),
            state: RrcState::Idle,
            promotion: None,
            t1_deadline: None,
            t2_deadline: None,
            active_transfers: 0,
            cpu_load: 0.0,
            residency: StateResidency::default(),
            counters: RrcCounters::default(),
            recorder,
        }
    }

    /// Replaces the machine's recorder (e.g. to attach tracing to an
    /// already-constructed machine).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The machine's recorder handle.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The machine's current time (the last stimulus it processed).
    pub fn now(&self) -> SimTime {
        self.meter.now()
    }

    /// The current RRC state.
    pub fn state(&self) -> RrcState {
        self.state
    }

    /// Whether any transfer is currently requested/active.
    pub fn is_transferring(&self) -> bool {
        self.active_transfers > 0
    }

    /// Total energy so far, in joules.
    pub fn energy_j(&self) -> f64 {
        self.meter.total_joules()
    }

    /// Per-state residency so far.
    pub fn residency(&self) -> StateResidency {
        self.residency
    }

    /// Event counters so far.
    pub fn counters(&self) -> RrcCounters {
        self.counters
    }

    /// The machine's configuration.
    pub fn config(&self) -> &RrcConfig {
        &self.cfg
    }

    /// Instantaneous power draw right now, in watts.
    pub fn current_watts(&self) -> f64 {
        let w = match self.state {
            RrcState::Promoting => {
                let from = self.promotion.expect("promoting implies promotion info").2;
                // A warm promotion (FACH→DCH) reuses the signaling
                // connection: the radio draws roughly DCH-hold power. A
                // cold promotion uses the calibrated aggregate.
                match from {
                    RrcState::Fach => self.cfg.power.dch_hold_w,
                    _ => self.cfg.power.promotion_w,
                }
            }
            s => self.cfg.power.watts(s, self.active_transfers > 0, 0.0),
        };
        w + self.cfg.power.cpu_full_extra_w * self.cpu_load
    }

    /// Sets the simulated CPU load in `[0, 1]`, effective from `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the machine's past.
    pub fn set_cpu_load(&mut self, t: SimTime, load: f64) {
        self.advance_to(t);
        self.cpu_load = load.clamp(0.0, crate::power::MAX_CPU_CORES);
    }

    /// Advances virtual time to `t`, firing promotions and timer
    /// expirations along the way and integrating energy.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the machine's past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now(),
            "RrcMachine cannot move backwards: {} -> {}",
            self.now(),
            t
        );
        loop {
            let next = self.next_pending();
            match next {
                Some((te, ev)) if te <= t => {
                    self.integrate_to(te);
                    self.apply(ev, te);
                }
                _ => {
                    self.integrate_to(t);
                    return;
                }
            }
        }
    }

    /// Requests a data transfer at `t`. `needs_dch` says whether the
    /// transfer exceeds the FACH shared-channel capability (see
    /// [`RrcConfig::needs_dch`]). Returns the instant data can actually
    /// start flowing — `t` when the radio is already in a capable state,
    /// later when a promotion is required.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the machine's past.
    pub fn begin_transfer(&mut self, t: SimTime, needs_dch: bool) -> SimTime {
        self.begin_transfer_with_promotion_retries(t, needs_dch, 0)
    }

    /// Like [`RrcMachine::begin_transfer`], but if this request triggers
    /// (or extends) a promotion, the signaling fails `retries` times
    /// first: each failed attempt costs one more full promotion window at
    /// the promotion power level before the promotion succeeds. With
    /// `retries == 0` this is exactly `begin_transfer`. When the radio is
    /// already in a capable state (no promotion needed), `retries` has no
    /// effect.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the machine's past.
    pub fn begin_transfer_with_promotion_retries(
        &mut self,
        t: SimTime,
        needs_dch: bool,
        retries: u32,
    ) -> SimTime {
        self.advance_to(t);
        self.counters.transfers += 1;
        // Any data activity cancels the inactivity timers.
        self.t1_deadline = None;
        self.t2_deadline = None;
        self.active_transfers += 1;
        let attempts = u64::from(retries) + 1;
        match self.state {
            RrcState::Dch => t,
            RrcState::Fach => {
                if needs_dch {
                    self.counters.fach_to_dch += 1;
                    self.counters.promotion_retries += u64::from(retries);
                    self.start_promotion(
                        t,
                        RrcState::Dch,
                        RrcState::Fach,
                        self.cfg.fach_to_dch_latency * attempts,
                        retries,
                    )
                } else {
                    t
                }
            }
            RrcState::Idle => {
                if needs_dch {
                    self.counters.idle_to_dch += 1;
                    self.counters.promotion_retries += u64::from(retries);
                    self.start_promotion(
                        t,
                        RrcState::Dch,
                        RrcState::Idle,
                        self.cfg.idle_to_dch_latency * attempts,
                        retries,
                    )
                } else {
                    self.counters.idle_to_fach += 1;
                    self.counters.promotion_retries += u64::from(retries);
                    self.start_promotion(
                        t,
                        RrcState::Fach,
                        RrcState::Idle,
                        self.cfg.idle_to_fach_latency * attempts,
                        retries,
                    )
                }
            }
            RrcState::Promoting => {
                let (end, target, from) = self.promotion.expect("promoting implies promotion info");
                if needs_dch && target == RrcState::Fach {
                    // Upgrade: finish the FACH promotion, then allocate
                    // dedicated channels on the fresh signaling connection.
                    let new_end = end + self.cfg.fach_to_dch_latency * attempts;
                    self.promotion = Some((new_end, RrcState::Dch, from));
                    self.counters.fach_to_dch += 1;
                    self.counters.promotion_retries += u64::from(retries);
                    self.recorder.emit_with(|| ObsEvent::PromotionStart {
                        at: t,
                        from: from.into(),
                        target: ObsState::Dch,
                        done: new_end,
                        retries,
                    });
                    new_end
                } else {
                    end
                }
            }
        }
    }

    /// Marks one transfer as finished at `t`. When the last active
    /// transfer ends, the network arms the relevant inactivity timer
    /// (T1 in DCH, T2 in FACH).
    ///
    /// # Panics
    ///
    /// Panics if no transfer is active, if `t` is in the machine's past,
    /// or if `t` precedes the data-start instant returned by
    /// [`RrcMachine::begin_transfer`] (the machine would still be
    /// promoting).
    pub fn end_transfer(&mut self, t: SimTime) {
        self.advance_to(t);
        assert!(
            self.active_transfers > 0,
            "end_transfer without begin_transfer"
        );
        assert!(
            !matches!(self.state, RrcState::Promoting),
            "end_transfer at {t} while still promoting — ended before its data_start"
        );
        self.active_transfers -= 1;
        if self.active_transfers == 0 {
            match self.state {
                RrcState::Dch => self.t1_deadline = Some(t + self.cfg.t1),
                RrcState::Fach => self.t2_deadline = Some(t + self.cfg.t2),
                _ => unreachable!("transfer ended in {}", self.state),
            }
        }
    }

    /// Fast dormancy: the application asks the radio firmware (through the
    /// paper's RIL path) to release the signaling connection and drop to
    /// IDLE. The release procedure takes [`RrcConfig::release_latency`] at
    /// the current state's power. Returns the instant IDLE is reached.
    /// Calling this in IDLE is a no-op that returns `t`.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is active or a promotion is in flight — the
    /// paper's Algorithm 2 only releases after a page has fully loaded.
    pub fn release_to_idle(&mut self, t: SimTime) -> SimTime {
        self.advance_to(t);
        assert!(
            self.active_transfers == 0,
            "cannot release to IDLE while a transfer is active"
        );
        assert!(
            !matches!(self.state, RrcState::Promoting),
            "cannot release to IDLE during a promotion"
        );
        if self.state == RrcState::Idle {
            return t;
        }
        // The release signaling runs at the current state's power level.
        let done = t + self.cfg.release_latency;
        self.integrate_to(done);
        self.t1_deadline = None;
        self.t2_deadline = None;
        self.recorder
            .emit_with(|| ObsEvent::FastDormancy { at: t, done });
        self.change_state(done, RrcState::Idle);
        self.counters.fast_dormancy_releases += 1;
        done
    }

    /// See [`RadioModel::load_end`](crate::RadioModel::load_end).
    ///
    /// # Panics
    ///
    /// Panics if a transfer is active, a promotion is in flight, or the
    /// CPU load is nonzero.
    pub(crate) fn load_end(&self, at_click: &RrcMachine, click: SimTime) -> RrcLoadEnd {
        assert!(
            self.active_transfers == 0 && self.promotion.is_none(),
            "a load must end with no transfer active and no promotion in flight"
        );
        // lint:allow(api/float-eq) loads set integer core counts; idle is exactly 0
        assert!(self.cpu_load == 0.0, "a load must end with the CPU idle");
        RrcLoadEnd {
            residency: self.residency.since(at_click.residency),
            counters: self.counters.since(at_click.counters),
            state: self.state,
            t1_deadline: self.t1_deadline.map(|d| d - click),
            t2_deadline: self.t2_deadline.map(|d| d - click),
        }
    }

    /// See [`RadioModel::play_tape`](crate::RadioModel::play_tape).
    ///
    /// # Panics
    ///
    /// Panics unless the machine is at `click`, in the tape's click
    /// state, with no transfer active, the CPU idle and no recorder
    /// attached.
    pub(crate) fn play_tape(&mut self, tape: &LoadTape<RrcMachine>, click: SimTime) {
        assert_eq!(self.now(), click, "a load tape plays at its click");
        assert!(
            !self.recorder.is_enabled(),
            "a traced machine must replay the load's events: a tape would drop them"
        );
        assert_eq!(
            self.state.click_state_index(),
            tape.click_state(),
            "a load tape plays from the click state it was compiled in"
        );
        // lint:allow(api/float-eq) loads set integer core counts; idle is exactly 0
        let cpu_idle = self.cpu_load == 0.0;
        assert!(
            self.active_transfers == 0 && cpu_idle,
            "a load tape plays on a machine with no transfer active and the CPU idle"
        );
        let end = tape.end();
        self.meter.splice(tape.meter());
        self.residency.add_delta(end.residency);
        self.counters.add_delta(end.counters);
        self.state = end.state;
        self.t1_deadline = end.t1_deadline.map(|d| click + d);
        self.t2_deadline = end.t2_deadline.map(|d| click + d);
    }

    fn next_pending(&self) -> Option<(SimTime, Pending)> {
        // Invariant: at most one of these is armed at any moment.
        if let Some((end, _, _)) = self.promotion {
            return Some((end, Pending::PromotionDone));
        }
        if let Some(d) = self.t1_deadline {
            return Some((d, Pending::T1Expired));
        }
        if let Some(d) = self.t2_deadline {
            return Some((d, Pending::T2Expired));
        }
        None
    }

    fn apply(&mut self, ev: Pending, te: SimTime) {
        match ev {
            Pending::PromotionDone => {
                let (_, target, _) = self.promotion.take().expect("promotion event without info");
                self.change_state(te, target);
                if self.active_transfers == 0 {
                    // Promotion finished but the requester vanished —
                    // cannot happen through the public API, but arm the
                    // timer defensively so the radio does not hang.
                    match target {
                        RrcState::Dch => self.t1_deadline = Some(te + self.cfg.t1),
                        RrcState::Fach => self.t2_deadline = Some(te + self.cfg.t2),
                        _ => {}
                    }
                }
            }
            Pending::T1Expired => {
                debug_assert_eq!(self.state, RrcState::Dch);
                debug_assert_eq!(self.active_transfers, 0);
                self.t1_deadline = None;
                self.recorder.emit_with(|| ObsEvent::TimerExpired {
                    at: te,
                    timer: ObsTimer::T1,
                });
                self.change_state(te, RrcState::Fach);
                self.t2_deadline = Some(te + self.cfg.t2);
                self.counters.t1_expirations += 1;
            }
            Pending::T2Expired => {
                debug_assert_eq!(self.state, RrcState::Fach);
                debug_assert_eq!(self.active_transfers, 0);
                self.t2_deadline = None;
                self.recorder.emit_with(|| ObsEvent::TimerExpired {
                    at: te,
                    timer: ObsTimer::T2,
                });
                self.change_state(te, RrcState::Idle);
                self.counters.t2_expirations += 1;
            }
        }
    }

    fn start_promotion(
        &mut self,
        t: SimTime,
        target: RrcState,
        from: RrcState,
        latency: SimDuration,
        retries: u32,
    ) -> SimTime {
        let end = t + latency;
        self.promotion = Some((end, target, from));
        self.recorder.emit_with(|| ObsEvent::PromotionStart {
            at: t,
            from: from.into(),
            target: target.into(),
            done: end,
            retries,
        });
        self.change_state(t, RrcState::Promoting);
        end
    }

    fn integrate_to(&mut self, t: SimTime) {
        let watts = self.current_watts();
        let before = self.now();
        if t > before {
            self.residency.add(self.state, t - before);
            self.meter.advance_to(t, watts);
            // Energy-ledger entry: same arithmetic, same operands as the
            // meter's addend, so folding the ledger in emission order is
            // bit-identical to the meter's total.
            let state = self.state;
            self.recorder.emit_with(|| ObsEvent::EnergySegment {
                start: before,
                end: t,
                state: state.into(),
                watts,
                joules: watts * (t - before).as_secs_f64(),
            });
        }
    }

    fn change_state(&mut self, at: SimTime, to: RrcState) {
        if self.state != to {
            let from = self.state;
            self.recorder.emit_with(|| ObsEvent::StateTransition {
                at,
                from: from.into(),
                to: to.into(),
            });
            self.state = to;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn machine() -> RrcMachine {
        RrcMachine::new(RrcConfig::paper(), SimTime::ZERO)
    }

    #[test]
    fn cold_transfer_pays_promotion_latency() {
        let mut m = machine();
        let start = m.begin_transfer(SimTime::ZERO, true);
        assert_eq!(start, secs(1.75));
        assert_eq!(m.state(), RrcState::Promoting);
        m.advance_to(start);
        assert_eq!(m.state(), RrcState::Dch);
        assert_eq!(m.counters().idle_to_dch, 1);
    }

    #[test]
    fn timer_cascade_dch_fach_idle() {
        let mut m = machine();
        let start = m.begin_transfer(SimTime::ZERO, true);
        let end = start + SimDuration::from_secs(2);
        m.end_transfer(end);
        // T1 fires 4 s after the transfer ends.
        m.advance_to(end + SimDuration::from_millis(3999));
        assert_eq!(m.state(), RrcState::Dch);
        m.advance_to(end + SimDuration::from_secs(4));
        assert_eq!(m.state(), RrcState::Fach);
        // T2 fires 15 s after that.
        m.advance_to(end + SimDuration::from_millis(18_999));
        assert_eq!(m.state(), RrcState::Fach);
        m.advance_to(end + SimDuration::from_secs(19));
        assert_eq!(m.state(), RrcState::Idle);
        assert_eq!(m.counters().t1_expirations, 1);
        assert_eq!(m.counters().t2_expirations, 1);
    }

    #[test]
    fn energy_matches_hand_computation() {
        let mut m = machine();
        let start = m.begin_transfer(SimTime::ZERO, true); // 1.75 s promotion
        let end = start + SimDuration::from_secs(2); // 2 s tx
        m.end_transfer(end);
        m.advance_to(end + SimDuration::from_secs(25)); // full tail + 6 s idle
        let promo = 7.0;
        let tx = 2.0 * 1.25;
        let t1_tail = 4.0 * 1.15;
        let t2_tail = 15.0 * 0.63;
        let idle = 6.0 * 0.15;
        let expected = promo + tx + t1_tail + t2_tail + idle;
        assert!(
            (m.energy_j() - expected).abs() < 1e-6,
            "got {} expected {expected}",
            m.energy_j()
        );
    }

    #[test]
    fn new_transfer_resets_t1() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        m.end_transfer(s + SimDuration::from_secs(1));
        // 3 s later (inside T1) another transfer arrives: no demotion.
        let t2 = s + SimDuration::from_secs(4);
        let s2 = m.begin_transfer(t2, true);
        assert_eq!(s2, t2, "already in DCH, data flows immediately");
        assert_eq!(m.state(), RrcState::Dch);
        m.end_transfer(s2 + SimDuration::from_secs(1));
        assert_eq!(m.counters().t1_expirations, 0);
    }

    #[test]
    fn fach_transfer_promotes_to_dch_cheaper() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        let end = s + SimDuration::from_secs(1);
        m.end_transfer(end);
        // Wait past T1 (→FACH) but inside T2.
        let later = end + SimDuration::from_secs(6);
        m.advance_to(later);
        assert_eq!(m.state(), RrcState::Fach);
        let s2 = m.begin_transfer(later, true);
        assert_eq!(s2, later + SimDuration::from_millis(900));
        m.advance_to(s2);
        assert_eq!(m.state(), RrcState::Dch);
        assert_eq!(m.counters().fach_to_dch, 1);
    }

    #[test]
    fn small_transfer_stays_in_fach() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        let end = s + SimDuration::from_secs(1);
        m.end_transfer(end);
        let later = end + SimDuration::from_secs(6);
        m.advance_to(later);
        assert_eq!(m.state(), RrcState::Fach);
        let s2 = m.begin_transfer(later, false);
        assert_eq!(
            s2, later,
            "small transfers use the shared channels directly"
        );
        assert_eq!(m.state(), RrcState::Fach);
        m.end_transfer(s2 + SimDuration::from_millis(500));
        // T2 re-arms from the transfer end.
        m.advance_to(s2 + SimDuration::from_millis(500) + SimDuration::from_secs(15));
        assert_eq!(m.state(), RrcState::Idle);
    }

    #[test]
    fn small_transfer_from_idle_promotes_to_fach() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, false);
        assert_eq!(s, secs(0.6));
        m.advance_to(s);
        assert_eq!(m.state(), RrcState::Fach);
        assert_eq!(m.counters().idle_to_fach, 1);
    }

    #[test]
    fn promotion_upgrade_fach_to_dch() {
        let mut m = machine();
        let s1 = m.begin_transfer(SimTime::ZERO, false); // → FACH promotion
        let s2 = m.begin_transfer(secs(0.1), true); // upgrade mid-promotion
        assert_eq!(s2, s1 + SimDuration::from_millis(900));
        m.advance_to(s2);
        assert_eq!(m.state(), RrcState::Dch);
        m.end_transfer(s2 + SimDuration::from_millis(100));
        m.end_transfer(s2 + SimDuration::from_millis(200));
        assert!(!m.is_transferring());
    }

    #[test]
    fn concurrent_transfers_share_dch() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        m.advance_to(s);
        let s2 = m.begin_transfer(s + SimDuration::from_millis(100), true);
        assert_eq!(s2, s + SimDuration::from_millis(100));
        m.end_transfer(s + SimDuration::from_secs(1));
        assert_eq!(m.state(), RrcState::Dch);
        assert!(m.is_transferring());
        // T1 only arms after the *last* transfer ends.
        m.advance_to(s + SimDuration::from_secs(6));
        assert_eq!(m.state(), RrcState::Dch);
        m.end_transfer(s + SimDuration::from_secs(7));
        m.advance_to(s + SimDuration::from_secs(11));
        assert_eq!(m.state(), RrcState::Fach);
    }

    #[test]
    fn fast_dormancy_skips_the_tail() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        let end = s + SimDuration::from_secs(1);
        m.end_transfer(end);
        let idle_at = m.release_to_idle(end);
        assert_eq!(idle_at, end + SimDuration::from_millis(200));
        assert_eq!(m.state(), RrcState::Idle);
        assert_eq!(m.counters().fast_dormancy_releases, 1);
        // No timer fires later.
        m.advance_to(end + SimDuration::from_secs(60));
        assert_eq!(m.counters().t1_expirations, 0);
        assert_eq!(m.counters().t2_expirations, 0);
    }

    #[test]
    fn fast_dormancy_saves_energy_vs_timers() {
        let run = |release: bool| {
            let mut m = machine();
            let s = m.begin_transfer(SimTime::ZERO, true);
            let end = s + SimDuration::from_secs(1);
            m.end_transfer(end);
            if release {
                m.release_to_idle(end);
            }
            m.advance_to(end + SimDuration::from_secs(30));
            m.energy_j()
        };
        let with_timers = run(false);
        let with_dormancy = run(true);
        assert!(
            with_dormancy < with_timers,
            "dormancy {with_dormancy} should beat timers {with_timers}"
        );
        // The tail is 4 s DCH + 15 s FACH vs ~19.8 s IDLE + release window.
        let expected_saving = 4.0 * (1.15 - 0.15) + 15.0 * (0.63 - 0.15) - 0.2 * (1.15 - 0.15);
        assert!((with_timers - with_dormancy - expected_saving).abs() < 1e-6);
    }

    #[test]
    fn release_in_idle_is_noop() {
        let mut m = machine();
        let t = m.release_to_idle(secs(5.0));
        assert_eq!(t, secs(5.0));
        assert_eq!(m.counters().fast_dormancy_releases, 0);
        assert!((m.energy_j() - 5.0 * 0.15).abs() < 1e-9);
    }

    #[test]
    fn residency_sums_to_elapsed() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        m.end_transfer(s + SimDuration::from_secs(3));
        m.advance_to(secs(40.0));
        assert_eq!(m.residency().total(), SimDuration::from_secs(40));
        assert_eq!(m.residency().promoting, SimDuration::from_millis(1750));
        assert_eq!(
            m.residency().dch,
            SimDuration::from_secs(3) + SimDuration::from_secs(4)
        );
        assert_eq!(m.residency().fach, SimDuration::from_secs(15));
    }

    #[test]
    fn cpu_load_adds_power() {
        let mut m = machine();
        m.set_cpu_load(SimTime::ZERO, 1.0);
        m.advance_to(secs(10.0));
        assert!(
            (m.energy_j() - 10.0 * 0.60).abs() < 1e-9,
            "{}",
            m.energy_j()
        );
        m.set_cpu_load(secs(10.0), 0.0);
        m.advance_to(secs(20.0));
        assert!((m.energy_j() - (10.0 * 0.60 + 10.0 * 0.15)).abs() < 1e-9);
    }

    #[test]
    fn transitions_are_recorded_in_order() {
        let recorder = Recorder::memory();
        let mut m = RrcMachine::with_recorder(RrcConfig::paper(), SimTime::ZERO, recorder.clone());
        let s = m.begin_transfer(SimTime::ZERO, true);
        m.end_transfer(s + SimDuration::from_secs(1));
        m.advance_to(secs(60.0));
        let transitions = ewb_obs::ledger::transitions(&recorder.events());
        let seq: Vec<(ObsState, ObsState)> = transitions.iter().map(|t| (t.1, t.2)).collect();
        assert_eq!(
            seq,
            vec![
                (ObsState::Idle, ObsState::Promoting),
                (ObsState::Promoting, ObsState::Dch),
                (ObsState::Dch, ObsState::Fach),
                (ObsState::Fach, ObsState::Idle),
            ]
        );
        for w in transitions.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    #[should_panic(expected = "without begin_transfer")]
    fn end_without_begin_panics() {
        machine().end_transfer(secs(1.0));
    }

    #[test]
    #[should_panic(expected = "while a transfer is active")]
    fn release_during_transfer_panics() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        m.advance_to(s);
        m.release_to_idle(s + SimDuration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_backwards_panics() {
        let mut m = machine();
        m.advance_to(secs(5.0));
        m.advance_to(secs(4.0));
    }

    #[test]
    fn promotion_retries_extend_latency_and_energy() {
        let mut clean = machine();
        let mut faulty = machine();
        let s_clean = clean.begin_transfer(SimTime::ZERO, true);
        let s_faulty = faulty.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 2);
        // Each failed attempt costs one more full promotion window.
        assert_eq!(s_clean, secs(1.75));
        assert_eq!(s_faulty, secs(3.0 * 1.75));
        clean.end_transfer(s_clean + SimDuration::from_secs(1));
        faulty.end_transfer(s_faulty + SimDuration::from_secs(1));
        // Extra energy = 2 extra windows at promotion power (4 W avg → 7 J
        // per 1.75 s window in the paper calibration).
        let delta = faulty.energy_j() - clean.energy_j();
        assert!((delta - 2.0 * 7.0).abs() < 1e-6, "delta {delta}");
        assert_eq!(faulty.counters().promotion_retries, 2);
        assert_eq!(clean.counters().promotion_retries, 0);
    }

    #[test]
    fn zero_retries_is_exactly_begin_transfer() {
        let mut a = machine();
        let mut b = machine();
        let sa = a.begin_transfer(SimTime::ZERO, true);
        let sb = b.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 0);
        assert_eq!(sa, sb);
        a.end_transfer(sa + SimDuration::from_secs(1));
        b.end_transfer(sb + SimDuration::from_secs(1));
        a.advance_to(secs(30.0));
        b.advance_to(secs(30.0));
        assert_eq!(a.energy_j().to_bits(), b.energy_j().to_bits());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.residency(), b.residency());
    }

    #[test]
    fn retries_in_capable_state_are_free() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        m.advance_to(s);
        // Already in DCH: a retry plan changes nothing.
        let s2 = m.begin_transfer_with_promotion_retries(s, true, 3);
        assert_eq!(s2, s);
        assert_eq!(m.counters().promotion_retries, 0);
        m.end_transfer(s2);
        m.end_transfer(s2);
    }

    #[test]
    fn warm_promotion_power_is_cheaper_than_cold() {
        // FACH→DCH promotion runs at DCH-hold power, not the calibrated
        // cold-start aggregate.
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        m.end_transfer(s + SimDuration::from_secs(1));
        m.advance_to(s + SimDuration::from_secs(6)); // now FACH
        let before = m.energy_j();
        let s2 = m.begin_transfer(s + SimDuration::from_secs(6), true);
        m.advance_to(s2);
        let promo_energy = m.energy_j() - before;
        assert!((promo_energy - 0.9 * 1.15).abs() < 1e-9, "{promo_energy}");
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    fn machine() -> RrcMachine {
        RrcMachine::new(RrcConfig::paper(), SimTime::ZERO)
    }

    #[test]
    fn release_directly_from_dch() {
        // Fast dormancy before T1 even fires: DCH -> IDLE.
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        let end = s + SimDuration::from_secs(1);
        m.end_transfer(end);
        let idle_at = m.release_to_idle(end + SimDuration::from_secs(1));
        assert_eq!(m.state(), RrcState::Idle);
        // Release window billed at DCH-hold power.
        let expected = 7.0 + 1.0 * 1.25 + 1.0 * 1.15 + 0.2 * 1.15;
        assert!((m.energy_j() - expected).abs() < 1e-6, "{}", m.energy_j());
        assert_eq!(idle_at, end + SimDuration::from_millis(1200));
    }

    #[test]
    fn release_exactly_at_t1_expiry_uses_fach_power() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        let end = s + SimDuration::from_secs(1);
        m.end_transfer(end);
        // T1 fires at end+4; release at exactly that instant: the timer
        // event processes first (FACH), then the release runs at FACH
        // power.
        let at = end + SimDuration::from_secs(4);
        m.release_to_idle(at);
        assert_eq!(m.counters().t1_expirations, 1);
        assert_eq!(m.counters().t2_expirations, 0);
        assert_eq!(m.state(), RrcState::Idle);
    }

    #[test]
    fn transfer_request_exactly_at_t2_expiry_promotes_warm_or_cold() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        let end = s + SimDuration::from_secs(1);
        m.end_transfer(end);
        // At exactly end + 19 s the T2 event fires first (IDLE), so the
        // new transfer pays a cold promotion.
        let at = end + SimDuration::from_secs(19);
        let ds = m.begin_transfer(at, true);
        assert_eq!(ds, at + SimDuration::from_millis(1750));
        assert_eq!(m.counters().idle_to_dch, 2);
    }

    #[test]
    fn zero_duration_transfer_is_legal() {
        let mut m = machine();
        let s = m.begin_transfer(SimTime::ZERO, true);
        m.end_transfer(s);
        assert_eq!(m.state(), RrcState::Dch);
        m.advance_to(s + SimDuration::from_secs(25));
        assert_eq!(m.state(), RrcState::Idle);
    }

    #[test]
    fn many_rapid_small_fach_transfers_never_promote() {
        let mut m = machine();
        // Prime into FACH.
        let s = m.begin_transfer(SimTime::ZERO, false);
        m.end_transfer(s + SimDuration::from_millis(100));
        let mut t = s + SimDuration::from_millis(200);
        for _ in 0..20 {
            let ds = m.begin_transfer(t, false);
            assert_eq!(ds, t, "small transfers ride FACH");
            m.end_transfer(ds + SimDuration::from_millis(50));
            t = ds + SimDuration::from_millis(500);
        }
        assert_eq!(m.counters().idle_to_dch, 0);
        assert_eq!(m.counters().fach_to_dch, 0);
        assert_eq!(m.state(), RrcState::Fach);
    }

    #[test]
    fn ledger_reconciles_bit_for_bit_and_recorder_is_invisible() {
        let recorder = ewb_obs::Recorder::memory();
        let mut traced =
            RrcMachine::with_recorder(RrcConfig::paper(), SimTime::ZERO, recorder.clone());
        let mut plain = machine();
        for m in [&mut traced, &mut plain] {
            let s = m.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 1);
            m.end_transfer(s + SimDuration::from_secs(2));
            let s2 = m.begin_transfer(s + SimDuration::from_secs(8), false);
            m.end_transfer(s2 + SimDuration::from_millis(300));
            let rel = s2 + SimDuration::from_secs(3);
            m.release_to_idle(rel);
            m.advance_to(rel + SimDuration::from_secs(10));
        }
        // Observer effect = 0: tracing changes nothing observable.
        assert_eq!(traced.energy_j().to_bits(), plain.energy_j().to_bits());
        assert_eq!(traced.counters(), plain.counters());
        assert_eq!(traced.residency(), plain.residency());
        // The ledger folds back to the reported energy exactly.
        let events = recorder.events();
        let entries = ewb_obs::ledger::entries(&events);
        assert!(ewb_obs::ledger::audit(&entries).is_empty());
        assert_eq!(
            ewb_obs::ledger::total(&entries).to_bits(),
            traced.energy_j().to_bits()
        );
        // Transitions (IDLE → PROMOTING → DCH → FACH → IDLE), timers,
        // promotions, and the release all surfaced.
        let count = |kind| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("state_transition"), 4);
        assert_eq!(count("fast_dormancy"), 1);
        assert_eq!(count("promotion_start"), 1);
        assert_eq!(count("timer_expired"), 1);
    }

    #[test]
    fn current_watts_reflects_state() {
        let mut m = machine();
        assert_eq!(m.current_watts(), 0.15);
        let s = m.begin_transfer(SimTime::ZERO, true);
        assert!(m.current_watts() > 1.25, "promotion burst");
        m.advance_to(s);
        assert_eq!(m.current_watts(), 1.25, "DCH transmitting");
        m.end_transfer(s + SimDuration::from_secs(1));
        assert_eq!(m.current_watts(), 1.15, "DCH hold");
    }
}
