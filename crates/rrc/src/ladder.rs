//! Downward-cascade radio machines: LTE DRX, WiFi PSM, and 5G cDRX.
//!
//! Every post-3G radio in scope shares one shape: a ladder of sleep
//! levels with the full-rate state on top. Data can only flow at the top
//! level; inactivity walks the radio down one level at a time (each level
//! has its own dwell timer); a transfer request from any lower level
//! promotes straight to the top after a wake latency. Duty-cycled levels
//! (DRX, PSM beacons, cDRX) are modeled with their *cycle-averaged*
//! power — exact for energy, and it keeps the event count per simulated
//! second O(stimuli) instead of O(beacons), which is what lets the
//! `ewb-check` exhaustive explorer drive these machines at depth 6.
//!
//! [`LadderMachine`] is the table-driven interpreter of a [`LadderSpec`];
//! the marker types [`Lte`], [`Wifi`], and [`FiveG`] lower their
//! named-field configs ([`LteConfig`], [`WifiConfig`], [`FiveGConfig`])
//! into specs. `ewb-check` holds independent straight-line reference
//! interpreters for each backend — this file is the implementation under
//! test, not the oracle.

use crate::backend::{RadioBackend, RadioModel};
use crate::tape::{field_deltas, LoadTape};
use ewb_obs::{Event as ObsEvent, RadioState as ObsState, Recorder, Timer as ObsTimer};
use ewb_simcore::{EnergyMeter, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::marker::PhantomData;

/// The maximum ladder depth any backend uses (LTE: IDLE, long DRX, short
/// DRX, CONNECTED).
pub const MAX_LEVELS: usize = 4;

/// Cycle-averaged power of a duty-cycled sleep level: `on_w` for `on_s`
/// out of every `cycle_s`, the sleep floor `sleep_w` for the rest. Every
/// ladder machine's hold power goes through this one formula. The
/// `ewb-check` reference interpreters do not call it: each recomputes
/// the same expression on its own, in the same operation order, as an
/// oracle should, so the two agree bit-for-bit without sharing code.
pub fn duty_cycle_avg_w(on_w: f64, sleep_w: f64, on_s: f64, cycle_s: f64) -> f64 {
    let on_j = on_w * on_s;
    let sleep_j = sleep_w * (cycle_s - on_s);
    (on_j + sleep_j) / cycle_s
}

/// The lowered, table form of a ladder backend: level 0 is the deepest
/// sleep, level `n_levels - 1` is the only transmit-capable state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderSpec {
    /// Which radio technology this spec models.
    pub backend: RadioBackend,
    /// Number of levels in use (2..=[`MAX_LEVELS`]).
    pub n_levels: usize,
    /// Stable level names, deepest first (unused slots empty).
    pub level_names: [&'static str; MAX_LEVELS],
    /// The `ewb-obs` state each level reports.
    pub obs_states: [ObsState; MAX_LEVELS],
    /// Cycle-averaged hold power per level, watts.
    pub level_w: [f64; MAX_LEVELS],
    /// Inactivity dwell before descending one level (level 0 unused).
    pub dwell: [SimDuration; MAX_LEVELS],
    /// Promotion latency from each level to the top (top slot unused).
    pub wake_latency: [SimDuration; MAX_LEVELS],
    /// Power during a promotion from each level, watts.
    pub wake_w: [f64; MAX_LEVELS],
    /// Top-level power while data is flowing, watts.
    pub active_tx_w: f64,
    /// Latency of an application-initiated release to level 0.
    pub release_latency: SimDuration,
    /// Extra power at full CPU load, watts (scaled by the load).
    pub cpu_full_extra_w: f64,
}

impl LadderSpec {
    /// Index of the transmit-capable top level.
    pub fn active(&self) -> usize {
        self.n_levels - 1
    }

    /// Structural validation: level count in range, powers finite and
    /// ordered (deeper never draws more than shallower), dwell timers and
    /// wake latencies positive where used.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=MAX_LEVELS).contains(&self.n_levels) {
            return Err(format!("n_levels {} out of range 2..=4", self.n_levels));
        }
        let n = self.n_levels;
        for i in 0..n {
            let w = self.level_w[i];
            if !w.is_finite() || w < 0.0 {
                return Err(format!(
                    "level {i} ({}) power {w} invalid",
                    self.level_names[i]
                ));
            }
            if i > 0 {
                if self.level_w[i] < self.level_w[i - 1] {
                    return Err(format!(
                        "power must be non-decreasing up the ladder: level {i} ({}) draws {} < {}",
                        self.level_names[i],
                        self.level_w[i],
                        self.level_w[i - 1]
                    ));
                }
                if self.dwell[i].is_zero() {
                    return Err(format!(
                        "level {i} ({}) dwell must be positive",
                        self.level_names[i]
                    ));
                }
            }
            if i < n - 1 {
                if self.wake_latency[i].is_zero() {
                    return Err(format!(
                        "level {i} ({}) wake latency must be positive",
                        self.level_names[i]
                    ));
                }
                let ww = self.wake_w[i];
                if !ww.is_finite() || ww < 0.0 {
                    return Err(format!("level {i} wake power {ww} invalid"));
                }
            }
        }
        if !self.active_tx_w.is_finite() || self.active_tx_w < self.level_w[n - 1] {
            return Err(format!(
                "tx power {} must be at least the top hold power {}",
                self.active_tx_w,
                self.level_w[n - 1]
            ));
        }
        if !self.cpu_full_extra_w.is_finite() || self.cpu_full_extra_w < 0.0 {
            return Err(format!(
                "cpu_full_extra_w {} invalid",
                self.cpu_full_extra_w
            ));
        }
        if self.release_latency.is_zero() {
            return Err("release latency must be positive".into());
        }
        Ok(())
    }
}

/// A backend that lowers to a [`LadderSpec`].
pub trait LadderBackend: Clone {
    /// The backend's named-field configuration.
    type Config: Copy + fmt::Debug + PartialEq + Serialize;
    /// Which radio technology the backend models.
    const BACKEND: RadioBackend;
    /// Ladder depth (compile-time; the click-state dimension).
    const N_LEVELS: usize;
    /// Stable level names, deepest first.
    const LEVEL_NAMES: [&'static str; MAX_LEVELS];
    /// Validates the named-field config.
    fn validate(cfg: &Self::Config) -> Result<(), String>;
    /// Lowers the config into the table the machine interprets.
    fn spec(cfg: &Self::Config) -> LadderSpec;
}

/// Cumulative time per ladder level, plus promotion windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LadderResidency {
    /// Time at each level, deepest first (unused slots stay zero).
    pub levels: [SimDuration; MAX_LEVELS],
    /// Time inside promotion (wake) windows.
    pub promoting: SimDuration,
}

impl LadderResidency {
    /// Sum over all levels and promotion windows — equals elapsed time.
    pub fn total(&self) -> SimDuration {
        self.levels.iter().fold(self.promoting, |acc, &d| acc + d)
    }

    fn since(self, earlier: Self) -> Self {
        LadderResidency {
            levels: std::array::from_fn(|i| self.levels[i] - earlier.levels[i]),
            promoting: self.promoting - earlier.promoting,
        }
    }

    fn add_delta(&mut self, delta: Self) {
        for (level, d) in self.levels.iter_mut().zip(delta.levels) {
            *level += d;
        }
        self.promoting += delta.promoting;
    }
}

/// Event counters of a ladder machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LadderCounters {
    /// Transfers requested.
    pub transfers: u64,
    /// Promotions (wakes) to the top level.
    pub promotions: u64,
    /// Failed promotion attempts retried by the signaling layer.
    pub promotion_retries: u64,
    /// Dwell-timer firings (one per single-level descent).
    pub dwell_expirations: u64,
    /// Application-initiated fast releases to level 0.
    pub releases: u64,
}

field_deltas!(LadderCounters {
    transfers,
    promotions,
    promotion_retries,
    dwell_expirations,
    releases,
});

/// What a page load leaves in a [`LadderMachine`] besides its meter: the
/// ladder part of a [`LoadTape`]. The deadline is relative to the click.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderLoadEnd {
    residency: LadderResidency,
    counters: LadderCounters,
    level: usize,
    dwell_deadline: Option<SimDuration>,
}

/// A ladder radio machine: the table-driven interpreter of a
/// [`LadderSpec`], with the same exact energy metering discipline as
/// [`crate::RrcMachine`].
#[derive(Debug, Clone)]
pub struct LadderMachine<B: LadderBackend> {
    cfg: B::Config,
    spec: LadderSpec,
    meter: EnergyMeter,
    level: usize,
    /// `(end, from_level)` of an in-flight promotion.
    promotion: Option<(SimTime, usize)>,
    dwell_deadline: Option<SimTime>,
    active_transfers: u32,
    cpu_load: f64,
    residency: LadderResidency,
    /// The `ewb-obs` state the last state change moved to (a level's
    /// state, or `Promoting`): the `from` of the next `StateTransition`.
    shown: ObsState,
    counters: LadderCounters,
    recorder: Recorder,
    _backend: PhantomData<B>,
}

impl<B: LadderBackend> LadderMachine<B> {
    /// Creates a machine at level 0 (deepest sleep) at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`LadderBackend::validate`].
    pub fn new(cfg: B::Config, start: SimTime) -> Self {
        Self::with_recorder(cfg, start, Recorder::disabled())
    }

    /// Like [`LadderMachine::new`] with structured-event tracing.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`LadderBackend::validate`].
    pub fn with_recorder(cfg: B::Config, start: SimTime, recorder: Recorder) -> Self {
        if let Err(e) = B::validate(&cfg) {
            panic!("invalid {} config: {e}", B::BACKEND);
        }
        let spec = B::spec(&cfg);
        debug_assert_eq!(spec.n_levels, B::N_LEVELS);
        if let Err(e) = spec.validate() {
            panic!("invalid {} ladder spec: {e}", B::BACKEND);
        }
        LadderMachine {
            cfg,
            spec,
            meter: EnergyMeter::new(start),
            level: 0,
            promotion: None,
            dwell_deadline: None,
            active_transfers: 0,
            cpu_load: 0.0,
            residency: LadderResidency::default(),
            shown: spec.obs_states[0],
            counters: LadderCounters::default(),
            recorder,
            _backend: PhantomData,
        }
    }

    /// Replaces the machine's recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The machine's configuration.
    pub fn config(&self) -> &B::Config {
        &self.cfg
    }

    /// The lowered spec the machine interprets.
    pub fn spec(&self) -> &LadderSpec {
        &self.spec
    }

    /// The machine's current time.
    pub fn now(&self) -> SimTime {
        self.meter.now()
    }

    /// The current level (0 = deepest sleep), regardless of any in-flight
    /// promotion.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Whether a promotion (wake) is in flight.
    pub fn is_promoting(&self) -> bool {
        self.promotion.is_some()
    }

    /// Whether any transfer is currently requested/active.
    pub fn is_transferring(&self) -> bool {
        self.active_transfers > 0
    }

    /// Total energy so far, joules.
    pub fn energy_j(&self) -> f64 {
        self.meter.total_joules()
    }

    /// Per-level residency so far.
    pub fn residency(&self) -> LadderResidency {
        self.residency
    }

    /// Event counters so far.
    pub fn counters(&self) -> LadderCounters {
        self.counters
    }

    /// A short, stable name of the current state.
    pub fn state_label(&self) -> &'static str {
        if self.promotion.is_some() {
            "PROMOTING"
        } else {
            self.spec.level_names[self.level]
        }
    }

    fn display_state(&self) -> ObsState {
        if self.promotion.is_some() {
            ObsState::Promoting
        } else {
            self.spec.obs_states[self.level]
        }
    }

    /// Instantaneous power draw right now, watts.
    pub fn current_watts(&self) -> f64 {
        let w = if let Some((_, from)) = self.promotion {
            self.spec.wake_w[from]
        } else if self.level == self.spec.active() && self.active_transfers > 0 {
            self.spec.active_tx_w
        } else {
            self.spec.level_w[self.level]
        };
        w + self.spec.cpu_full_extra_w * self.cpu_load
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

    /// Advances virtual time to `t`, firing promotions and dwell timers
    /// along the way and integrating energy.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the machine's past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now(),
            "LadderMachine cannot move backwards: {} -> {}",
            self.now(),
            t
        );
        loop {
            match self.next_pending() {
                Some(te) if te <= t => {
                    self.integrate_to(te);
                    self.apply_pending(te);
                }
                _ => {
                    self.integrate_to(t);
                    return;
                }
            }
        }
    }

    /// Requests a data transfer at `t`; see
    /// [`RadioModel::begin_transfer_with_promotion_retries`]. Ladder
    /// backends have no shared-channel trickle path, so `needs_fast` is
    /// accepted for interface parity but every transfer uses the top
    /// level.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the machine's past.
    pub fn begin_transfer_with_promotion_retries(
        &mut self,
        t: SimTime,
        _needs_fast: bool,
        retries: u32,
    ) -> SimTime {
        self.advance_to(t);
        self.counters.transfers += 1;
        self.dwell_deadline = None;
        self.active_transfers += 1;
        if let Some((end, _)) = self.promotion {
            // Join the in-flight wake; data flows when it completes.
            return end;
        }
        if self.level == self.spec.active() {
            return t;
        }
        let attempts = u64::from(retries) + 1;
        let from = self.level;
        self.counters.promotions += 1;
        self.counters.promotion_retries += u64::from(retries);
        let end = t + self.spec.wake_latency[from] * attempts;
        self.promotion = Some((end, from));
        let target = self.spec.obs_states[self.spec.active()];
        let from_obs = self.spec.obs_states[from];
        self.recorder.emit_with(|| ObsEvent::PromotionStart {
            at: t,
            from: from_obs,
            target,
            done: end,
            retries,
        });
        self.note_transition(t, ObsState::Promoting);
        end
    }

    /// Marks one transfer as finished at `t`. When the last active
    /// transfer ends, the top level's dwell timer is armed.
    ///
    /// # Panics
    ///
    /// Panics if no transfer is active, `t` is in the machine's past, or
    /// `t` precedes the data-start instant (still promoting).
    pub fn end_transfer(&mut self, t: SimTime) {
        self.advance_to(t);
        assert!(
            self.active_transfers > 0,
            "end_transfer without begin_transfer"
        );
        assert!(
            self.promotion.is_none(),
            "end_transfer at {t} while still promoting — ended before its data_start"
        );
        debug_assert_eq!(
            self.level,
            self.spec.active(),
            "transfers only run at the top level"
        );
        self.active_transfers -= 1;
        if self.active_transfers == 0 {
            self.dwell_deadline = Some(t + self.spec.dwell[self.level]);
        }
    }

    /// Fast release: the application asks the radio to drop straight to
    /// level 0. The release signaling takes the spec's release latency at
    /// the current level's power. Returns the instant level 0 is reached;
    /// a no-op returning `t` when already there.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is active or a promotion is in flight.
    pub fn release_to_idle(&mut self, t: SimTime) -> SimTime {
        self.advance_to(t);
        assert!(
            self.active_transfers == 0,
            "cannot release while a transfer is active"
        );
        assert!(
            self.promotion.is_none(),
            "cannot release during a promotion"
        );
        if self.level == 0 {
            return t;
        }
        let done = t + self.spec.release_latency;
        self.integrate_to(done);
        self.dwell_deadline = None;
        self.recorder
            .emit_with(|| ObsEvent::FastDormancy { at: t, done });
        self.set_level(done, 0);
        self.counters.releases += 1;
        done
    }

    /// See [`RadioModel::load_end`].
    ///
    /// # Panics
    ///
    /// Panics if a transfer is active, a promotion is in flight, or the
    /// CPU load is nonzero.
    pub(crate) fn load_end(&self, at_click: &Self, click: SimTime) -> LadderLoadEnd {
        assert!(
            self.active_transfers == 0 && self.promotion.is_none(),
            "a load must end with no transfer active and no promotion in flight"
        );
        // lint:allow(api/float-eq) loads set integer core counts; idle is exactly 0
        assert!(self.cpu_load == 0.0, "a load must end with the CPU idle");
        LadderLoadEnd {
            residency: self.residency.since(at_click.residency),
            counters: self.counters.since(at_click.counters),
            level: self.level,
            dwell_deadline: self.dwell_deadline.map(|d| d - click),
        }
    }

    /// See [`RadioModel::play_tape`].
    ///
    /// # Panics
    ///
    /// Panics unless the machine is at `click`, in the tape's click
    /// state, with no transfer active, the CPU idle and no recorder
    /// attached.
    pub(crate) fn play_tape(&mut self, tape: &LoadTape<Self>, click: SimTime) {
        assert_eq!(self.now(), click, "a load tape plays at its click");
        assert!(
            !self.recorder.is_enabled(),
            "a traced machine must replay the load's events: a tape would drop them"
        );
        assert_eq!(
            RadioModel::click_state_index(self),
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
        self.level = end.level;
        self.shown = self.display_state();
        self.dwell_deadline = end.dwell_deadline.map(|d| click + d);
    }

    fn next_pending(&self) -> Option<SimTime> {
        // Invariant: a promotion and a dwell timer are never armed
        // together (begin_transfer cancels the dwell; the dwell only arms
        // after the promotion resolved).
        if let Some((end, _)) = self.promotion {
            return Some(end);
        }
        self.dwell_deadline
    }

    fn apply_pending(&mut self, te: SimTime) {
        if let Some((end, _)) = self.promotion {
            debug_assert_eq!(end, te);
            self.promotion = None;
            self.set_level(te, self.spec.active());
            if self.active_transfers == 0 {
                // Promotion finished but the requester vanished — cannot
                // happen through the public API, but arm the dwell
                // defensively so the radio does not hang at the top.
                self.dwell_deadline = Some(te + self.spec.dwell[self.level]);
            }
            return;
        }
        // Dwell expiry: descend one level.
        debug_assert!(self.level > 0, "level 0 has no dwell timer");
        debug_assert_eq!(self.active_transfers, 0);
        self.dwell_deadline = None;
        self.recorder.emit_with(|| ObsEvent::TimerExpired {
            at: te,
            timer: ObsTimer::Dwell,
        });
        let next = self.level - 1;
        self.set_level(te, next);
        if next > 0 {
            self.dwell_deadline = Some(te + self.spec.dwell[next]);
        }
        self.counters.dwell_expirations += 1;
    }

    fn integrate_to(&mut self, t: SimTime) {
        let watts = self.current_watts();
        let before = self.now();
        if t > before {
            let d = t - before;
            if self.promotion.is_some() {
                self.residency.promoting += d;
            } else {
                self.residency.levels[self.level] += d;
            }
            self.meter.advance_to(t, watts);
            // Energy-ledger entry: same arithmetic, same operands as the
            // meter's addend, so folding the ledger in emission order is
            // bit-identical to the meter's total.
            let state = self.display_state();
            self.recorder.emit_with(|| ObsEvent::EnergySegment {
                start: before,
                end: t,
                state,
                watts,
                joules: watts * (t - before).as_secs_f64(),
            });
        }
    }

    fn set_level(&mut self, at: SimTime, to: usize) {
        self.level = to;
        self.note_transition(at, self.display_state());
    }

    fn note_transition(&mut self, at: SimTime, to: ObsState) {
        let from = self.shown;
        if from != to {
            self.shown = to;
            self.recorder
                .emit_with(|| ObsEvent::StateTransition { at, from, to });
        }
    }
}

impl<B: LadderBackend> RadioModel for LadderMachine<B> {
    type Config = B::Config;
    type Counters = LadderCounters;
    type LoadEnd = LadderLoadEnd;

    const BACKEND: RadioBackend = B::BACKEND;

    fn validate_config(cfg: &B::Config) -> Result<(), String> {
        B::validate(cfg)?;
        B::spec(cfg).validate()
    }

    fn with_recorder(cfg: B::Config, start: SimTime, recorder: Recorder) -> Self {
        LadderMachine::with_recorder(cfg, start, recorder)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        LadderMachine::set_recorder(self, recorder);
    }

    fn config(&self) -> &B::Config {
        LadderMachine::config(self)
    }

    fn now(&self) -> SimTime {
        LadderMachine::now(self)
    }

    fn advance_to(&mut self, t: SimTime) {
        LadderMachine::advance_to(self, t);
    }

    fn begin_transfer_with_promotion_retries(
        &mut self,
        t: SimTime,
        needs_fast: bool,
        retries: u32,
    ) -> SimTime {
        LadderMachine::begin_transfer_with_promotion_retries(self, t, needs_fast, retries)
    }

    fn end_transfer(&mut self, t: SimTime) {
        LadderMachine::end_transfer(self, t);
    }

    fn release_to_idle(&mut self, t: SimTime) -> SimTime {
        LadderMachine::release_to_idle(self, t)
    }

    fn set_cpu_load(&mut self, t: SimTime, load: f64) {
        LadderMachine::set_cpu_load(self, t, load);
    }

    fn is_transferring(&self) -> bool {
        LadderMachine::is_transferring(self)
    }

    fn energy_j(&self) -> f64 {
        LadderMachine::energy_j(self)
    }

    fn counters(&self) -> LadderCounters {
        LadderMachine::counters(self)
    }

    fn residency_total(&self) -> SimDuration {
        self.residency.total()
    }

    fn transfer_capable(&self) -> bool {
        self.promotion.is_none() && self.level == self.spec.active()
    }

    fn state_label(&self) -> &'static str {
        LadderMachine::state_label(self)
    }

    fn release_latency(cfg: &B::Config) -> SimDuration {
        B::spec(cfg).release_latency
    }

    fn needs_fast_channel(&self, _bytes: u64) -> bool {
        // No shared-channel trickle path: every transfer runs full-rate.
        true
    }

    fn uses_shared_channel_rate(&self, _needs_fast: bool) -> bool {
        false
    }

    fn click_state_count() -> usize {
        B::N_LEVELS
    }

    fn click_state_name(index: usize) -> &'static str {
        assert!(index < B::N_LEVELS, "click state {index} out of range");
        B::LEVEL_NAMES[index]
    }

    fn in_click_state(cfg: B::Config, index: usize) -> (Self, SimTime) {
        assert!(index < B::N_LEVELS, "click state {index} out of range");
        let mut machine = LadderMachine::new(cfg, SimTime::ZERO);
        let t0 = if index == 0 {
            SimTime::ZERO
        } else {
            // Ride a transfer to the top, then let the dwell cascade walk
            // down to the target level; click midway through its dwell.
            let data_start = machine.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 0);
            let end = data_start + SimDuration::from_millis(100);
            machine.end_transfer(end);
            let spec = *machine.spec();
            let mut t = end;
            for lvl in (index + 1..spec.n_levels).rev() {
                t += spec.dwell[lvl];
            }
            t + spec.dwell[index] / 2
        };
        machine.advance_to(t0);
        assert_eq!(
            machine.level(),
            index,
            "pre-drive must land at level {index} ({})",
            B::LEVEL_NAMES[index]
        );
        assert!(!machine.is_promoting());
        (machine, t0)
    }

    fn load_end(&self, at_click: &Self, click: SimTime) -> LadderLoadEnd {
        LadderMachine::load_end(self, at_click, click)
    }

    fn play_tape(&mut self, tape: &LoadTape<Self>, click: SimTime) {
        LadderMachine::play_tape(self, tape, click);
    }

    fn click_state_index(&self) -> usize {
        assert!(
            self.promotion.is_none(),
            "a click cannot find the radio mid-promotion: promotion windows only exist \
             inside page loads"
        );
        self.level
    }
}

// ---------------------------------------------------------------------------
// LTE: IDLE → long DRX → short DRX → CONNECTED.
// ---------------------------------------------------------------------------

/// LTE configuration: CONNECTED with short+long DRX cycles and an
/// inactivity cascade, calibrated to the 4G measurement literature
/// (≈260 ms idle→connected setup, ≈11.5 s connected tail, milliwatt-level
/// idle/DRX sleep floors, ≈1 W continuous reception).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LteConfig {
    /// RRC_IDLE floor power, watts.
    pub idle_w: f64,
    /// DRX sleep floor between on-durations, watts.
    pub sleep_w: f64,
    /// Receiver-on power (DRX on-durations and continuous RX), watts.
    pub on_w: f64,
    /// CONNECTED power while data is flowing, watts.
    pub tx_w: f64,
    /// Power during wake (promotion) signaling, watts.
    pub promotion_w: f64,
    /// Extra power at full CPU load, watts.
    pub cpu_full_extra_w: f64,
    /// Short DRX cycle length, seconds.
    pub short_cycle_s: f64,
    /// Receiver-on duration per short DRX cycle, seconds.
    pub short_on_s: f64,
    /// Long DRX cycle length, seconds.
    pub long_cycle_s: f64,
    /// Receiver-on duration per long DRX cycle, seconds.
    pub long_on_s: f64,
    /// Continuous-RX inactivity timer before entering short DRX, seconds.
    pub inactivity_s: f64,
    /// Short-DRX dwell before falling into long DRX, seconds.
    pub short_drx_s: f64,
    /// Long-DRX dwell (the RRC tail) before releasing to IDLE, seconds.
    pub long_drx_s: f64,
    /// IDLE→CONNECTED setup latency, seconds.
    pub idle_to_connected_s: f64,
    /// Wake latency from within a connected DRX level, seconds.
    pub drx_wake_s: f64,
    /// Application-initiated connection-release latency, seconds.
    pub release_latency_s: f64,
}

impl LteConfig {
    /// The calibrated default described on the type.
    pub fn calibrated() -> Self {
        LteConfig {
            idle_w: 0.015,
            sleep_w: 0.03,
            on_w: 1.0,
            tx_w: 1.28,
            promotion_w: 1.2,
            cpu_full_extra_w: 0.45,
            short_cycle_s: 0.02,
            short_on_s: 0.001,
            long_cycle_s: 0.32,
            long_on_s: 0.01,
            inactivity_s: 0.1,
            short_drx_s: 1.0,
            long_drx_s: 10.3,
            idle_to_connected_s: 0.26,
            drx_wake_s: 0.02,
            release_latency_s: 0.05,
        }
    }

    /// Cycle-averaged short-DRX power, watts.
    pub fn short_drx_avg_w(&self) -> f64 {
        duty_cycle_avg_w(self.on_w, self.sleep_w, self.short_on_s, self.short_cycle_s)
    }

    /// Cycle-averaged long-DRX power, watts.
    pub fn long_drx_avg_w(&self) -> f64 {
        duty_cycle_avg_w(self.on_w, self.sleep_w, self.long_on_s, self.long_cycle_s)
    }
}

impl Default for LteConfig {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Marker for the LTE ladder backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lte;

impl LadderBackend for Lte {
    type Config = LteConfig;
    const BACKEND: RadioBackend = RadioBackend::Lte;
    const N_LEVELS: usize = 4;
    const LEVEL_NAMES: [&'static str; MAX_LEVELS] = ["IDLE", "LONG_DRX", "SHORT_DRX", "CONNECTED"];

    fn validate(cfg: &LteConfig) -> Result<(), String> {
        for (name, v) in [
            ("short_cycle_s", cfg.short_cycle_s),
            ("long_cycle_s", cfg.long_cycle_s),
            ("inactivity_s", cfg.inactivity_s),
            ("short_drx_s", cfg.short_drx_s),
            ("long_drx_s", cfg.long_drx_s),
            ("idle_to_connected_s", cfg.idle_to_connected_s),
            ("drx_wake_s", cfg.drx_wake_s),
            ("release_latency_s", cfg.release_latency_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if cfg.short_on_s < 0.0 || cfg.short_on_s > cfg.short_cycle_s {
            return Err("short_on_s must lie within the short cycle".into());
        }
        if cfg.long_on_s < 0.0 || cfg.long_on_s > cfg.long_cycle_s {
            return Err("long_on_s must lie within the long cycle".into());
        }
        if !(cfg.sleep_w <= cfg.on_w && cfg.on_w <= cfg.tx_w) {
            return Err(format!(
                "power ordering sleep ({}) <= on ({}) <= tx ({}) violated",
                cfg.sleep_w, cfg.on_w, cfg.tx_w
            ));
        }
        Ok(())
    }

    fn spec(cfg: &LteConfig) -> LadderSpec {
        LadderSpec {
            backend: RadioBackend::Lte,
            n_levels: 4,
            level_names: Self::LEVEL_NAMES,
            obs_states: [
                ObsState::Idle,
                ObsState::LongDrx,
                ObsState::ShortDrx,
                ObsState::Connected,
            ],
            level_w: [
                cfg.idle_w,
                cfg.long_drx_avg_w(),
                cfg.short_drx_avg_w(),
                cfg.on_w,
            ],
            dwell: [
                SimDuration::ZERO,
                SimDuration::from_secs_f64(cfg.long_drx_s),
                SimDuration::from_secs_f64(cfg.short_drx_s),
                SimDuration::from_secs_f64(cfg.inactivity_s),
            ],
            wake_latency: [
                SimDuration::from_secs_f64(cfg.idle_to_connected_s),
                SimDuration::from_secs_f64(cfg.drx_wake_s),
                SimDuration::from_secs_f64(cfg.drx_wake_s),
                SimDuration::ZERO,
            ],
            wake_w: [cfg.promotion_w, cfg.promotion_w, cfg.promotion_w, 0.0],
            active_tx_w: cfg.tx_w,
            release_latency: SimDuration::from_secs_f64(cfg.release_latency_s),
            cpu_full_extra_w: cfg.cpu_full_extra_w,
        }
    }
}

/// The LTE radio machine.
pub type LteMachine = LadderMachine<Lte>;

// ---------------------------------------------------------------------------
// WiFi: PSM → ACTIVE.
// ---------------------------------------------------------------------------

/// WiFi 802.11 configuration: active mode vs power-save mode with
/// beacon-interval wakeups (standard 102.4 ms beacons), calibrated to
/// paper-era handset WiFi measurements (~0.7 W active).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WifiConfig {
    /// PSM sleep floor between beacons, watts.
    pub psm_sleep_w: f64,
    /// Active-mode hold power, watts.
    pub active_w: f64,
    /// Active-mode power while data is flowing, watts.
    pub tx_w: f64,
    /// Power while waking out of PSM, watts.
    pub promotion_w: f64,
    /// Extra power at full CPU load, watts.
    pub cpu_full_extra_w: f64,
    /// Beacon interval (PSM duty cycle), seconds.
    pub beacon_interval_s: f64,
    /// Receiver-on duration per beacon, seconds.
    pub beacon_on_s: f64,
    /// Fixed wakeup overhead per beacon (radio bring-up), millijoules;
    /// amortized into the PSM cycle-average power.
    pub beacon_wake_mj: f64,
    /// Active-mode idle timeout before re-entering PSM, seconds.
    pub psm_timeout_s: f64,
    /// PSM→active wake latency, seconds.
    pub wake_latency_s: f64,
    /// Application-initiated PSM-entry latency, seconds.
    pub release_latency_s: f64,
}

impl WifiConfig {
    /// The calibrated default described on the type.
    pub fn calibrated() -> Self {
        WifiConfig {
            psm_sleep_w: 0.02,
            active_w: 0.72,
            tx_w: 1.0,
            promotion_w: 0.72,
            cpu_full_extra_w: 0.45,
            beacon_interval_s: 0.1024,
            beacon_on_s: 0.004,
            beacon_wake_mj: 1.2,
            psm_timeout_s: 0.2,
            wake_latency_s: 0.05,
            release_latency_s: 0.01,
        }
    }

    /// Cycle-averaged PSM power: the beacon duty cycle plus the
    /// per-beacon wakeup energy amortized over the interval, watts.
    pub fn psm_avg_w(&self) -> f64 {
        duty_cycle_avg_w(
            self.active_w,
            self.psm_sleep_w,
            self.beacon_on_s,
            self.beacon_interval_s,
        ) + self.beacon_wake_mj / 1000.0 / self.beacon_interval_s
    }
}

impl Default for WifiConfig {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Marker for the WiFi ladder backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wifi;

impl LadderBackend for Wifi {
    type Config = WifiConfig;
    const BACKEND: RadioBackend = RadioBackend::Wifi;
    const N_LEVELS: usize = 2;
    const LEVEL_NAMES: [&'static str; MAX_LEVELS] = ["PSM", "ACTIVE", "", ""];

    fn validate(cfg: &WifiConfig) -> Result<(), String> {
        for (name, v) in [
            ("beacon_interval_s", cfg.beacon_interval_s),
            ("psm_timeout_s", cfg.psm_timeout_s),
            ("wake_latency_s", cfg.wake_latency_s),
            ("release_latency_s", cfg.release_latency_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if cfg.beacon_on_s < 0.0 || cfg.beacon_on_s > cfg.beacon_interval_s {
            return Err("beacon_on_s must lie within the beacon interval".into());
        }
        if !cfg.beacon_wake_mj.is_finite() || cfg.beacon_wake_mj < 0.0 {
            return Err(format!(
                "beacon_wake_mj must be non-negative, got {}",
                cfg.beacon_wake_mj
            ));
        }
        if !(cfg.psm_sleep_w <= cfg.active_w && cfg.active_w <= cfg.tx_w) {
            return Err(format!(
                "power ordering sleep ({}) <= active ({}) <= tx ({}) violated",
                cfg.psm_sleep_w, cfg.active_w, cfg.tx_w
            ));
        }
        if cfg.psm_avg_w() > cfg.active_w {
            return Err("PSM cycle-average power exceeds active power".into());
        }
        Ok(())
    }

    fn spec(cfg: &WifiConfig) -> LadderSpec {
        LadderSpec {
            backend: RadioBackend::Wifi,
            n_levels: 2,
            level_names: Self::LEVEL_NAMES,
            obs_states: [
                ObsState::PsmSleep,
                ObsState::Connected,
                ObsState::Idle,
                ObsState::Idle,
            ],
            level_w: [cfg.psm_avg_w(), cfg.active_w, 0.0, 0.0],
            dwell: [
                SimDuration::ZERO,
                SimDuration::from_secs_f64(cfg.psm_timeout_s),
                SimDuration::ZERO,
                SimDuration::ZERO,
            ],
            wake_latency: [
                SimDuration::from_secs_f64(cfg.wake_latency_s),
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
            ],
            wake_w: [cfg.promotion_w, 0.0, 0.0, 0.0],
            active_tx_w: cfg.tx_w,
            release_latency: SimDuration::from_secs_f64(cfg.release_latency_s),
            cpu_full_extra_w: cfg.cpu_full_extra_w,
        }
    }
}

/// The WiFi radio machine.
pub type WifiMachine = LadderMachine<Wifi>;

// ---------------------------------------------------------------------------
// 5G: IDLE → cDRX → CONNECTED.
// ---------------------------------------------------------------------------

/// 5G NR configuration: connected-mode DRX with a fast release,
/// coefficients anchored to the SNIPPETS.md redime table
/// (`E_ACC_NET_5G = 0.1 × WIFI_ENERGY_PER_S` — "90 % more efficient than
/// WiFi"): the cDRX cycle-average power is pinned to one tenth of the
/// calibrated WiFi active power, while the instantaneous burst power is
/// high (NR radios draw more than LTE when actually transmitting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiveGConfig {
    /// RRC_IDLE floor power, watts.
    pub idle_w: f64,
    /// cDRX sleep floor between on-durations, watts.
    pub cdrx_sleep_w: f64,
    /// CONNECTED hold power, watts.
    pub connected_w: f64,
    /// CONNECTED power while data is flowing, watts.
    pub tx_w: f64,
    /// Power during wake (promotion) signaling, watts.
    pub promotion_w: f64,
    /// Extra power at full CPU load, watts.
    pub cpu_full_extra_w: f64,
    /// cDRX cycle length, seconds.
    pub cdrx_cycle_s: f64,
    /// Receiver-on duration per cDRX cycle, seconds.
    pub cdrx_on_s: f64,
    /// CONNECTED inactivity timer before entering cDRX, seconds.
    pub inactivity_s: f64,
    /// cDRX tail before the fast release to IDLE, seconds. Much shorter
    /// than 3G's T1+T2 — the scenario where promotions are cheap *and*
    /// the tail is short is exactly what the cross-backend experiment
    /// probes.
    pub cdrx_tail_s: f64,
    /// IDLE→CONNECTED setup latency, seconds (NR setup is tens of ms).
    pub idle_to_connected_s: f64,
    /// Wake latency from within cDRX, seconds.
    pub cdrx_wake_s: f64,
    /// Application-initiated release latency, seconds.
    pub release_latency_s: f64,
}

impl FiveGConfig {
    /// The calibrated default described on the type. With these values
    /// `cdrx_avg_w()` ≈ 0.072 W ≈ 0.1 × the WiFi active power (0.72 W),
    /// the redime ratio.
    pub fn calibrated() -> Self {
        FiveGConfig {
            idle_w: 0.01,
            cdrx_sleep_w: 0.0179,
            connected_w: 1.1,
            tx_w: 1.8,
            promotion_w: 1.1,
            cpu_full_extra_w: 0.45,
            cdrx_cycle_s: 0.16,
            cdrx_on_s: 0.008,
            inactivity_s: 0.1,
            cdrx_tail_s: 2.0,
            idle_to_connected_s: 0.025,
            cdrx_wake_s: 0.008,
            release_latency_s: 0.01,
        }
    }

    /// Cycle-averaged cDRX power, watts.
    pub fn cdrx_avg_w(&self) -> f64 {
        duty_cycle_avg_w(
            self.connected_w,
            self.cdrx_sleep_w,
            self.cdrx_on_s,
            self.cdrx_cycle_s,
        )
    }
}

impl Default for FiveGConfig {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Marker for the 5G ladder backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiveG;

impl LadderBackend for FiveG {
    type Config = FiveGConfig;
    const BACKEND: RadioBackend = RadioBackend::FiveG;
    const N_LEVELS: usize = 3;
    const LEVEL_NAMES: [&'static str; MAX_LEVELS] = ["IDLE", "CDRX", "CONNECTED", ""];

    fn validate(cfg: &FiveGConfig) -> Result<(), String> {
        for (name, v) in [
            ("cdrx_cycle_s", cfg.cdrx_cycle_s),
            ("inactivity_s", cfg.inactivity_s),
            ("cdrx_tail_s", cfg.cdrx_tail_s),
            ("idle_to_connected_s", cfg.idle_to_connected_s),
            ("cdrx_wake_s", cfg.cdrx_wake_s),
            ("release_latency_s", cfg.release_latency_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if cfg.cdrx_on_s < 0.0 || cfg.cdrx_on_s > cfg.cdrx_cycle_s {
            return Err("cdrx_on_s must lie within the cDRX cycle".into());
        }
        if !(cfg.cdrx_sleep_w <= cfg.connected_w && cfg.connected_w <= cfg.tx_w) {
            return Err(format!(
                "power ordering sleep ({}) <= connected ({}) <= tx ({}) violated",
                cfg.cdrx_sleep_w, cfg.connected_w, cfg.tx_w
            ));
        }
        if cfg.idle_w > cfg.cdrx_avg_w() {
            return Err("idle power exceeds the cDRX cycle-average".into());
        }
        Ok(())
    }

    fn spec(cfg: &FiveGConfig) -> LadderSpec {
        LadderSpec {
            backend: RadioBackend::FiveG,
            n_levels: 3,
            level_names: Self::LEVEL_NAMES,
            obs_states: [
                ObsState::Idle,
                ObsState::Cdrx,
                ObsState::Connected,
                ObsState::Idle,
            ],
            level_w: [cfg.idle_w, cfg.cdrx_avg_w(), cfg.connected_w, 0.0],
            dwell: [
                SimDuration::ZERO,
                SimDuration::from_secs_f64(cfg.cdrx_tail_s),
                SimDuration::from_secs_f64(cfg.inactivity_s),
                SimDuration::ZERO,
            ],
            wake_latency: [
                SimDuration::from_secs_f64(cfg.idle_to_connected_s),
                SimDuration::from_secs_f64(cfg.cdrx_wake_s),
                SimDuration::ZERO,
                SimDuration::ZERO,
            ],
            wake_w: [cfg.promotion_w, cfg.promotion_w, 0.0, 0.0],
            active_tx_w: cfg.tx_w,
            release_latency: SimDuration::from_secs_f64(cfg.release_latency_s),
            cpu_full_extra_w: cfg.cpu_full_extra_w,
        }
    }
}

/// The 5G radio machine.
pub type FiveGMachine = LadderMachine<FiveG>;

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn lte_cold_transfer_pays_the_setup_latency() {
        let mut m = LteMachine::new(LteConfig::calibrated(), SimTime::ZERO);
        let ds = m.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 0);
        assert_eq!(ds, secs(0.26));
        assert!(m.is_promoting());
        m.advance_to(ds);
        assert_eq!(m.level(), 3);
        assert_eq!(m.state_label(), "CONNECTED");
        assert_eq!(m.counters().promotions, 1);
    }

    #[test]
    fn lte_dwell_cascade_walks_connected_to_idle() {
        let cfg = LteConfig::calibrated();
        let mut m = LteMachine::new(cfg, SimTime::ZERO);
        let ds = m.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 0);
        let end = ds + SimDuration::from_secs(1);
        m.end_transfer(end);
        // inactivity (0.1 s) → SHORT_DRX, +1.0 s → LONG_DRX, +10.3 s → IDLE.
        m.advance_to(end + SimDuration::from_millis(99));
        assert_eq!(m.state_label(), "CONNECTED");
        m.advance_to(end + SimDuration::from_millis(100));
        assert_eq!(m.state_label(), "SHORT_DRX");
        m.advance_to(end + SimDuration::from_millis(1100));
        assert_eq!(m.state_label(), "LONG_DRX");
        m.advance_to(end + SimDuration::from_millis(11_399));
        assert_eq!(m.state_label(), "LONG_DRX");
        m.advance_to(end + SimDuration::from_millis(11_400));
        assert_eq!(m.state_label(), "IDLE");
        assert_eq!(m.counters().dwell_expirations, 3);
        assert_eq!(
            m.residency().total(),
            (end + SimDuration::from_millis(11_400)) - SimTime::ZERO
        );
    }

    #[test]
    fn wifi_energy_matches_hand_computation() {
        let cfg = WifiConfig::calibrated();
        let mut m = WifiMachine::new(cfg, SimTime::ZERO);
        // 1 s asleep, wake (0.05 s), 2 s tx, PSM timeout (0.2 s), release
        // no-op afterwards because the dwell already dropped us to PSM.
        let t1 = secs(1.0);
        let ds = m.begin_transfer_with_promotion_retries(t1, true, 0);
        assert_eq!(ds, t1 + SimDuration::from_millis(50));
        let end = ds + SimDuration::from_secs(2);
        m.end_transfer(end);
        m.advance_to(end + SimDuration::from_secs(1));
        let expected = cfg.psm_avg_w() * 1.0    // initial sleep
            + cfg.promotion_w * 0.05            // wake
            + cfg.tx_w * 2.0                    // transfer
            + cfg.active_w * 0.2                // idle timeout at active power
            + cfg.psm_avg_w() * 0.8; // back in PSM
        assert!(
            (m.energy_j() - expected).abs() < 1e-9,
            "got {} expected {expected}",
            m.energy_j()
        );
        assert_eq!(m.counters().dwell_expirations, 1);
    }

    #[test]
    fn five_g_fast_release_skips_the_tail() {
        let cfg = FiveGConfig::calibrated();
        let run = |release: bool| {
            let mut m = FiveGMachine::new(cfg, SimTime::ZERO);
            let ds = m.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 0);
            let end = ds + SimDuration::from_secs(1);
            m.end_transfer(end);
            if release {
                m.release_to_idle(end);
            }
            m.advance_to(end + SimDuration::from_secs(10));
            (m.energy_j(), m.counters())
        };
        let (with_timers, c1) = run(false);
        let (with_release, c2) = run(true);
        assert!(with_release < with_timers);
        assert_eq!(c1.releases, 0);
        assert_eq!(c2.releases, 1);
        assert_eq!(c2.dwell_expirations, 0, "release cancels the cascade");
        // But the absolute saving is small: the 5G tail is only
        // 0.1 s connected + 2 s cDRX vs 4 s DCH + 15 s FACH on 3G.
        let tail_j = cfg.connected_w * 0.1 + cfg.cdrx_avg_w() * 2.0;
        assert!(with_timers - with_release < tail_j + 1e-9);
    }

    #[test]
    fn promotion_retries_extend_latency_and_energy() {
        let cfg = LteConfig::calibrated();
        let mut clean = LteMachine::new(cfg, SimTime::ZERO);
        let mut faulty = LteMachine::new(cfg, SimTime::ZERO);
        let sc = clean.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 0);
        let sf = faulty.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 2);
        assert_eq!(sc, secs(0.26));
        assert_eq!(sf, secs(3.0 * 0.26));
        clean.end_transfer(sc + SimDuration::from_secs(1));
        faulty.end_transfer(sf + SimDuration::from_secs(1));
        let delta = faulty.energy_j() - clean.energy_j();
        // Both runs promote starting at t = 0; the faulty one just holds
        // the wake power for two extra promotion latencies.
        let expected = 2.0 * cfg.promotion_w * 0.26;
        assert!(
            (delta - expected).abs() < 1e-9,
            "delta {delta} expected {expected}"
        );
        assert_eq!(faulty.counters().promotion_retries, 2);
    }

    #[test]
    fn begin_mid_promotion_joins_the_wake() {
        let mut m = FiveGMachine::new(FiveGConfig::calibrated(), SimTime::ZERO);
        let ds = m.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 0);
        let ds2 = m.begin_transfer_with_promotion_retries(secs(0.01), true, 0);
        assert_eq!(ds, ds2, "second transfer joins the in-flight wake");
        m.advance_to(ds);
        m.end_transfer(ds);
        m.end_transfer(ds + SimDuration::from_millis(10));
        assert_eq!(m.counters().promotions, 1);
    }

    #[test]
    fn determinism_same_stimuli_same_bits() {
        let cfg = LteConfig::calibrated();
        let drive = || {
            let mut m = LteMachine::new(cfg, SimTime::ZERO);
            let ds = m.begin_transfer_with_promotion_retries(SimTime::ZERO, true, 1);
            m.end_transfer(ds + SimDuration::from_millis(700));
            m.set_cpu_load(ds + SimDuration::from_secs(1), 0.7);
            m.set_cpu_load(ds + SimDuration::from_secs(2), 0.0);
            m.release_to_idle(ds + SimDuration::from_secs(3));
            m.advance_to(secs(30.0));
            (m.energy_j().to_bits(), m.counters(), m.residency())
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn ladder_ledger_reconciles_bit_for_bit_and_recorder_is_invisible() {
        let cfg = WifiConfig::calibrated();
        let recorder = Recorder::memory();
        let mut traced = WifiMachine::with_recorder(cfg, SimTime::ZERO, recorder.clone());
        let mut plain = WifiMachine::new(cfg, SimTime::ZERO);
        for m in [&mut traced, &mut plain] {
            let ds = m.begin_transfer_with_promotion_retries(secs(0.5), true, 1);
            m.end_transfer(ds + SimDuration::from_millis(800));
            let ds2 =
                m.begin_transfer_with_promotion_retries(ds + SimDuration::from_secs(2), true, 0);
            m.end_transfer(ds2 + SimDuration::from_millis(300));
            // Release before the 0.2 s PSM timeout fires, so the fast
            // release actually has something to do.
            m.release_to_idle(ds2 + SimDuration::from_millis(400));
            m.advance_to(secs(20.0));
        }
        assert_eq!(traced.energy_j().to_bits(), plain.energy_j().to_bits());
        assert_eq!(traced.counters(), plain.counters());
        assert_eq!(traced.residency(), plain.residency());
        let events = recorder.events();
        let entries = ewb_obs::ledger::entries(&events);
        assert!(ewb_obs::ledger::audit(&entries).is_empty());
        assert_eq!(
            ewb_obs::ledger::total(&entries).to_bits(),
            traced.energy_j().to_bits()
        );
        let count = |kind| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("fast_dormancy"), 1);
        assert_eq!(count("promotion_start"), 2);
    }

    #[test]
    fn click_states_cover_every_level() {
        fn check<B: LadderBackend>(cfg: B::Config) {
            for i in 0..<LadderMachine<B> as RadioModel>::click_state_count() {
                let (m, t0) = <LadderMachine<B> as RadioModel>::in_click_state(cfg, i);
                assert_eq!(m.level(), i);
                assert_eq!(m.now(), t0);
                assert_eq!(RadioModel::click_state_index(&m), i);
                assert_eq!(
                    RadioModel::state_label(&m),
                    <LadderMachine<B> as RadioModel>::click_state_name(i)
                );
            }
        }
        check::<Lte>(LteConfig::calibrated());
        check::<Wifi>(WifiConfig::calibrated());
        check::<FiveG>(FiveGConfig::calibrated());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut lte = LteConfig::calibrated();
        lte.short_on_s = 1.0; // exceeds the 20 ms cycle
        assert!(Lte::validate(&lte).is_err());
        let mut wifi = WifiConfig::calibrated();
        wifi.tx_w = 0.1; // below active power
        assert!(Wifi::validate(&wifi).is_err());
        let mut five_g = FiveGConfig::calibrated();
        five_g.cdrx_tail_s = -1.0;
        assert!(FiveG::validate(&five_g).is_err());
    }

    #[test]
    fn five_g_cdrx_average_tracks_the_redime_wifi_ratio() {
        let five_g = FiveGConfig::calibrated();
        let wifi = WifiConfig::calibrated();
        let ratio = five_g.cdrx_avg_w() / wifi.active_w;
        assert!(
            (ratio - 0.1).abs() < 0.005,
            "cDRX average / WiFi active = {ratio}, redime pins it at 0.1"
        );
    }
}
