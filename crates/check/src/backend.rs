//! The radio backends the harness checks, and their reference
//! interpreters.
//!
//! Every backend gets its own *straight-line reference interpreter*,
//! written directly from its named-field config — no event queue, no
//! recorder, no [`LadderSpec`] table: [`ReferenceRrc`] for the paper's
//! 3G RRC machine (Fig. 2), and [`ReferenceLte`], [`ReferenceWifi`] and
//! [`ReferenceFiveG`] for the ladder radios. They implement
//! [`Reference`], the surface the lock-step driver
//! ([`crate::run::check_scenario`]) compares with the machine's.
//!
//! [`CheckedRadio`] states the rest of what the driver and the invariant
//! set need to know about a backend: its reference, the seeded
//! [`Mutant`]s aimed at it and how they doctor its config, its legal
//! transition edges, which timer may expire in which states, the states
//! data may flow in, its residency in the reference's shape, and its
//! coverage keys. It is implemented once for [`RrcMachine`] and once for
//! every [`LadderMachine`], whose facts come from its lowered spec and
//! whose reference and mutants come from [`CheckedLadder`].

use crate::mutant::Mutant;
use crate::scenario::Step;
use ewb_obs::{RadioState as Obs, Timer};
use ewb_rrc::{
    FiveG, FiveGConfig, LadderBackend, LadderCounters, LadderMachine, LadderSpec, Lte, LteConfig,
    RadioModel, RrcConfig, RrcCounters, RrcMachine, RrcState, StateResidency, Wifi, WifiConfig,
};
use ewb_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// A recorded reference transition: `(at, from, to)`.
pub type RefTransition = (SimTime, Obs, Obs);

/// The observable surface of a backend's reference interpreter.
/// Implementations are deliberately *independent* reimplementations of
/// their backend's semantics: they read the named config fields
/// directly and never touch the machines or [`LadderSpec`].
pub trait Reference {
    /// The backend's named-field configuration.
    type Config;
    /// The backend's event counters.
    type Counters;
    /// Per-state residency, in the shape the interpreter keeps it.
    type Residency: PartialEq + fmt::Debug;
    /// An interpreter in the backend's deepest sleep state at time zero.
    fn new(cfg: Self::Config) -> Self;
    /// Current interpreter time.
    fn now(&self) -> SimTime;
    /// Stable name of the current state (never mid-promotion at a step
    /// boundary).
    fn state_label(&self) -> &'static str;
    /// Total accrued energy, joules.
    fn energy_j(&self) -> f64;
    /// Event counters so far.
    fn counters(&self) -> Self::Counters;
    /// Residency per state so far, integer-exact.
    fn residency(&self) -> Self::Residency;
    /// The recorded transitions, oldest first.
    fn transitions(&self) -> &[RefTransition];
    /// Lets `d` of inactivity pass, firing any timer cascade inside.
    fn wait(&mut self, d: SimDuration);
    /// One complete transfer: promote if needed (to the fast channel if
    /// `needs_fast` and the backend has a slower one), move data for
    /// `d`, re-arm the inactivity timer. Returns the data-start instant.
    fn transfer(&mut self, needs_fast: bool, d: SimDuration, retries: u32) -> SimTime;
    /// Application-initiated fast release to the deepest sleep state.
    fn release(&mut self) -> SimTime;
    /// Sets the simulated CPU load in `[0, 1]`.
    fn set_cpu_load(&mut self, load: f64);
}

/// A radio machine the harness checks: the facts of its backend that
/// the lock-step driver and the invariant set read.
pub trait CheckedRadio: RadioModel {
    /// The backend's reference interpreter.
    type Reference: Reference<Config = Self::Config, Counters = Self::Counters>;
    /// The seeded defects aimed at this backend, in severity order.
    const MUTANTS: &'static [Mutant];
    /// The configuration a machine under `mutant` is built from (the
    /// reference always gets the undoctored `cfg`). A mutant aimed at
    /// another backend leaves it unchanged.
    fn doctor(cfg: &Self::Config, mutant: Mutant) -> Self::Config;
    /// The coverage key of a transfer that does or does not need the
    /// fast channel.
    fn transfer_key(needs_fast: bool) -> &'static str;
    /// The legal edges of the transition matrix (invariant 1), in the
    /// `ewb-obs` state names the machine's events carry.
    fn legal_edges(&self) -> Vec<(Obs, Obs)>;
    /// The states `timer` runs down in (invariant 2); empty when the
    /// backend has no such timer.
    fn arming_states(&self, timer: Timer) -> &[Obs];
    /// The states data may flow in (invariant 5).
    fn transmit_states(&self) -> &[Obs];
    /// Per-state residency in the reference's shape.
    fn reference_residency(&self) -> <Self::Reference as Reference>::Residency;
    /// The counters that are coverage keys once nonzero, with their
    /// values.
    fn counter_keys(&self) -> Vec<(&'static str, u64)>;
}

impl CheckedRadio for RrcMachine {
    type Reference = ReferenceRrc;

    const MUTANTS: &'static [Mutant] = &[
        Mutant::SwappedTimers,
        Mutant::IgnoredDormancy,
        Mutant::EagerPromotion,
    ];

    fn doctor(cfg: &RrcConfig, mutant: Mutant) -> RrcConfig {
        let mut c = *cfg;
        match mutant {
            Mutant::SwappedTimers => std::mem::swap(&mut c.t1, &mut c.t2),
            Mutant::EagerPromotion => c.idle_to_dch_latency = c.idle_to_dch_latency / 2,
            _ => {}
        }
        c
    }

    fn transfer_key(needs_fast: bool) -> &'static str {
        if needs_fast {
            "transfer:dch"
        } else {
            "transfer:fach"
        }
    }

    /// The Fig. 2 matrix. `Promoting→Idle` is deliberately absent: a
    /// promotion cannot be abandoned.
    fn legal_edges(&self) -> Vec<(Obs, Obs)> {
        vec![
            (Obs::Idle, Obs::Promoting),
            (Obs::Promoting, Obs::Fach),
            (Obs::Promoting, Obs::Dch),
            (Obs::Fach, Obs::Promoting),
            (Obs::Dch, Obs::Fach),
            (Obs::Fach, Obs::Idle),
            (Obs::Dch, Obs::Idle),
        ]
    }

    /// T1 runs down in DCH, T2 in FACH; the ladders' dwell never fires.
    fn arming_states(&self, timer: Timer) -> &[Obs] {
        match timer {
            Timer::T1 => &[Obs::Dch],
            Timer::T2 => &[Obs::Fach],
            Timer::Dwell => &[],
        }
    }

    fn transmit_states(&self) -> &[Obs] {
        &[Obs::Fach, Obs::Dch]
    }

    fn reference_residency(&self) -> StateResidency {
        self.residency()
    }

    fn counter_keys(&self) -> Vec<(&'static str, u64)> {
        let c = self.counters();
        vec![
            ("ctr:t1_expirations", c.t1_expirations),
            ("ctr:t2_expirations", c.t2_expirations),
            ("ctr:idle_to_dch", c.idle_to_dch),
            ("ctr:idle_to_fach", c.idle_to_fach),
            ("ctr:fach_to_dch", c.fach_to_dch),
            ("ctr:fast_dormancy_releases", c.fast_dormancy_releases),
            ("ctr:promotion_retries", c.promotion_retries),
        ]
    }
}

/// A ladder backend the harness checks: its reference interpreter and
/// the mutants aimed at it. Every other fact of a [`LadderMachine`]
/// comes from its lowered spec.
pub trait CheckedLadder: LadderBackend {
    /// The backend's reference interpreter.
    type Reference: Reference<
        Config = Self::Config,
        Counters = LadderCounters,
        Residency = BTreeMap<&'static str, SimDuration>,
    >;
    /// See [`CheckedRadio::MUTANTS`].
    const MUTANTS: &'static [Mutant];
    /// See [`CheckedRadio::doctor`].
    fn doctor(cfg: &Self::Config, mutant: Mutant) -> Self::Config;
}

impl<B: CheckedLadder> CheckedRadio for LadderMachine<B> {
    type Reference = B::Reference;

    const MUTANTS: &'static [Mutant] = B::MUTANTS;

    fn doctor(cfg: &B::Config, mutant: Mutant) -> B::Config {
        B::doctor(cfg, mutant)
    }

    fn transfer_key(_needs_fast: bool) -> &'static str {
        "transfer"
    }

    /// One-level dwell descents, wake starts from any non-top level,
    /// promotion completion into the top level, and fast releases from
    /// any level to the bottom.
    fn legal_edges(&self) -> Vec<(Obs, Obs)> {
        let spec = self.spec();
        let (n, obs) = (spec.n_levels, &spec.obs_states);
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((obs[i], obs[i - 1])); // dwell descent
            edges.push((obs[i], obs[0])); // fast release
        }
        for o in obs.iter().take(n - 1) {
            edges.push((*o, Obs::Promoting)); // wake start
        }
        edges.push((Obs::Promoting, obs[n - 1])); // wake completion
        edges
    }

    /// Dwell timers run down in every level but the bottom; the 3G
    /// timers never fire.
    fn arming_states(&self, timer: Timer) -> &[Obs] {
        let spec = self.spec();
        match timer {
            Timer::Dwell => &spec.obs_states[1..spec.n_levels],
            Timer::T1 | Timer::T2 => &[],
        }
    }

    /// Only the top level transmits.
    fn transmit_states(&self) -> &[Obs] {
        let spec = self.spec();
        &spec.obs_states[spec.active()..spec.n_levels]
    }

    fn reference_residency(&self) -> BTreeMap<&'static str, SimDuration> {
        let (spec, res) = (self.spec(), self.residency());
        let mut by_label: BTreeMap<_, _> = (0..spec.n_levels)
            .map(|i| (spec.level_names[i], res.levels[i]))
            .collect();
        by_label.insert("PROMOTING", res.promoting);
        by_label
    }

    fn counter_keys(&self) -> Vec<(&'static str, u64)> {
        let c = self.counters();
        vec![
            ("ctr:promotions", c.promotions),
            ("ctr:promotion_retries", c.promotion_retries),
            ("ctr:dwell_expirations", c.dwell_expirations),
            ("ctr:releases", c.releases),
        ]
    }
}

impl CheckedLadder for Lte {
    type Reference = ReferenceLte;

    const MUTANTS: &'static [Mutant] = &[Mutant::SwappedDrxCycles];

    fn doctor(cfg: &LteConfig, mutant: Mutant) -> LteConfig {
        let mut c = *cfg;
        if mutant == Mutant::SwappedDrxCycles {
            std::mem::swap(&mut c.short_drx_s, &mut c.long_drx_s);
        }
        c
    }
}

impl CheckedLadder for Wifi {
    type Reference = ReferenceWifi;

    const MUTANTS: &'static [Mutant] = &[Mutant::IgnoredPsmBeacon];

    fn doctor(cfg: &WifiConfig, mutant: Mutant) -> WifiConfig {
        let mut c = *cfg;
        if mutant == Mutant::IgnoredPsmBeacon {
            c.beacon_on_s = 0.0;
            c.beacon_wake_mj = 0.0;
        }
        c
    }
}

impl CheckedLadder for FiveG {
    type Reference = ReferenceFiveG;

    const MUTANTS: &'static [Mutant] = &[Mutant::EagerFiveGRelease];

    fn doctor(cfg: &FiveGConfig, mutant: Mutant) -> FiveGConfig {
        let mut c = *cfg;
        if mutant == Mutant::EagerFiveGRelease {
            c.cdrx_tail_s /= 4.0;
        }
        c
    }
}

// ---------------------------------------------------------------------------
// 3G reference: IDLE → PROMOTING → FACH/DCH, T1 and T2 tails.
// ---------------------------------------------------------------------------

/// An obviously-correct reference interpreter of the Fig. 2 RRC
/// semantics, for differential testing against [`RrcMachine`].
///
/// Everything is written as straight-line arithmetic so the
/// implementation can be audited against the paper directly:
///
/// * T1 (DCH→FACH) and T2 (FACH→IDLE) arm when the last transfer ends
///   and are cancelled by any new data activity or fast dormancy;
/// * promotions cost their full latency up front at promotion power
///   (cold from IDLE) or DCH-hold power (warm FACH→DCH), scaled by
///   `retries + 1` failed-signaling attempts;
/// * energy is `Σ watts × seconds` over the piecewise-constant spans.
#[derive(Debug, Clone)]
pub struct ReferenceRrc {
    cfg: RrcConfig,
    now: SimTime,
    state: RrcState,
    t1: Option<SimTime>,
    t2: Option<SimTime>,
    cpu_load: f64,
    joules: f64,
    residency: StateResidency,
    transitions: Vec<RefTransition>,
    counters: RrcCounters,
}

impl ReferenceRrc {
    fn promote(&mut self, target: RrcState, latency: SimDuration, watts: f64) -> SimTime {
        let requested = self.now;
        let done = requested + latency;
        self.enter(requested, RrcState::Promoting);
        self.accrue(done, watts);
        self.enter(done, target);
        done
    }

    fn accrue(&mut self, to: SimTime, base_watts: f64) {
        if to > self.now {
            let d = to - self.now;
            let watts = base_watts + self.cfg.power.cpu_full_extra_w * self.cpu_load;
            self.joules += watts * d.as_secs_f64();
            match self.state {
                RrcState::Idle => self.residency.idle += d,
                RrcState::Promoting => self.residency.promoting += d,
                RrcState::Fach => self.residency.fach += d,
                RrcState::Dch => self.residency.dch += d,
            }
            self.now = to;
        }
    }

    fn enter(&mut self, at: SimTime, to: RrcState) {
        if self.state != to {
            self.transitions.push((at, self.state.into(), to.into()));
            self.state = to;
        }
    }
}

impl Reference for ReferenceRrc {
    type Config = RrcConfig;
    type Counters = RrcCounters;
    type Residency = StateResidency;

    fn new(cfg: RrcConfig) -> Self {
        ReferenceRrc {
            cfg,
            now: SimTime::ZERO,
            state: RrcState::Idle,
            t1: None,
            t2: None,
            cpu_load: 0.0,
            joules: 0.0,
            residency: StateResidency::default(),
            transitions: Vec::new(),
            counters: RrcCounters::default(),
        }
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn state_label(&self) -> &'static str {
        self.state.name()
    }
    fn energy_j(&self) -> f64 {
        self.joules
    }
    fn counters(&self) -> RrcCounters {
        self.counters
    }
    fn residency(&self) -> StateResidency {
        self.residency
    }
    fn transitions(&self) -> &[RefTransition] {
        &self.transitions
    }

    /// Fires any armed T1/T2 deadlines that fall inside the window,
    /// splitting the energy accrual at each.
    fn wait(&mut self, d: SimDuration) {
        let target = self.now + d;
        // Fig. 2: at most one inactivity timer is armed at a time; each
        // expiry demotes one step and may arm the next timer.
        while let Some(at) = self.t1.or(self.t2).filter(|at| *at <= target) {
            if self.t1.is_some() {
                self.accrue(at, self.cfg.power.watts(RrcState::Dch, false, 0.0));
                self.t1 = None;
                self.enter(at, RrcState::Fach);
                self.t2 = Some(at + self.cfg.t2);
                self.counters.t1_expirations += 1;
            } else {
                self.accrue(at, self.cfg.power.watts(RrcState::Fach, false, 0.0));
                self.t2 = None;
                self.enter(at, RrcState::Idle);
                self.counters.t2_expirations += 1;
            }
        }
        self.accrue(target, self.cfg.power.watts(self.state, false, 0.0));
    }

    /// `retries` failed signaling attempts each cost one extra full
    /// promotion window; the data re-arms the inactivity timer of the
    /// state it rode in.
    fn transfer(&mut self, needs_dch: bool, duration: SimDuration, retries: u32) -> SimTime {
        self.counters.transfers += 1;
        // Any data activity cancels the inactivity timers.
        self.t1 = None;
        self.t2 = None;
        let attempts = u64::from(retries) + 1;
        let data_start = match (self.state, needs_dch) {
            (RrcState::Dch, _) | (RrcState::Fach, false) => self.now,
            (RrcState::Fach, true) => {
                // Warm promotion: reuses the signaling connection at
                // DCH-hold power.
                self.counters.fach_to_dch += 1;
                self.counters.promotion_retries += u64::from(retries);
                self.promote(
                    RrcState::Dch,
                    self.cfg.fach_to_dch_latency * attempts,
                    self.cfg.power.dch_hold_w,
                )
            }
            (RrcState::Idle, true) => {
                self.counters.idle_to_dch += 1;
                self.counters.promotion_retries += u64::from(retries);
                self.promote(
                    RrcState::Dch,
                    self.cfg.idle_to_dch_latency * attempts,
                    self.cfg.power.promotion_w,
                )
            }
            (RrcState::Idle, false) => {
                self.counters.idle_to_fach += 1;
                self.counters.promotion_retries += u64::from(retries);
                self.promote(
                    RrcState::Fach,
                    self.cfg.idle_to_fach_latency * attempts,
                    self.cfg.power.promotion_w,
                )
            }
            (RrcState::Promoting, _) => {
                unreachable!("sequential driving never observes Promoting at a step boundary")
            }
        };
        let end = data_start + duration;
        self.accrue(end, self.cfg.power.watts(self.state, true, 0.0));
        match self.state {
            RrcState::Dch => self.t1 = Some(end + self.cfg.t1),
            RrcState::Fach => self.t2 = Some(end + self.cfg.t2),
            _ => unreachable!("transfer ended in {}", self.state),
        }
        data_start
    }

    /// Fast dormancy: drops to IDLE after the release latency at the
    /// current state's power.
    fn release(&mut self) -> SimTime {
        if self.state == RrcState::Idle {
            return self.now;
        }
        let done = self.now + self.cfg.release_latency;
        self.accrue(done, self.cfg.power.watts(self.state, false, 0.0));
        self.t1 = None;
        self.t2 = None;
        self.enter(done, RrcState::Idle);
        self.counters.fast_dormancy_releases += 1;
        done
    }

    fn set_cpu_load(&mut self, load: f64) {
        self.cpu_load = load.clamp(0.0, ewb_rrc::MAX_CPU_CORES);
    }
}

// ---------------------------------------------------------------------------
// LTE reference: IDLE → PROMOTING → CONNECTED → SHORT_DRX → LONG_DRX → IDLE.
// ---------------------------------------------------------------------------

/// Straight-line LTE DRX interpreter: explicit gap-splitting at the
/// inactivity → short-DRX → long-DRX cascade deadlines, cycle-averaged
/// DRX power computed inline from the named config fields.
#[derive(Debug, Clone)]
pub struct ReferenceLte {
    cfg: LteConfig,
    now: SimTime,
    state: Obs,
    descend_at: Option<SimTime>,
    cpu_load: f64,
    joules: f64,
    res: BTreeMap<&'static str, SimDuration>,
    counters: LadderCounters,
    transitions: Vec<RefTransition>,
}

impl ReferenceLte {
    fn label_of(state: Obs) -> &'static str {
        match state {
            Obs::Idle => "IDLE",
            Obs::LongDrx => "LONG_DRX",
            Obs::ShortDrx => "SHORT_DRX",
            Obs::Connected => "CONNECTED",
            Obs::Promoting => "PROMOTING",
            other => unreachable!("LTE reference never enters {other:?}"),
        }
    }

    fn hold_watts(&self) -> f64 {
        let c = &self.cfg;
        match self.state {
            Obs::Idle => c.idle_w,
            Obs::LongDrx => {
                let on_j = c.on_w * c.long_on_s;
                let sleep_j = c.sleep_w * (c.long_cycle_s - c.long_on_s);
                (on_j + sleep_j) / c.long_cycle_s
            }
            Obs::ShortDrx => {
                let on_j = c.on_w * c.short_on_s;
                let sleep_j = c.sleep_w * (c.short_cycle_s - c.short_on_s);
                (on_j + sleep_j) / c.short_cycle_s
            }
            Obs::Connected => c.on_w,
            other => unreachable!("no hold power for {other:?}"),
        }
    }

    fn accrue(&mut self, to: SimTime, base_watts: f64) {
        if to > self.now {
            let d = to - self.now;
            self.joules +=
                (base_watts + self.cfg.cpu_full_extra_w * self.cpu_load) * d.as_secs_f64();
            *self
                .res
                .get_mut(Self::label_of(self.state))
                .expect("seeded") += d;
            self.now = to;
        }
    }

    fn enter(&mut self, at: SimTime, to: Obs) {
        if self.state != to {
            self.transitions.push((at, self.state, to));
            self.state = to;
        }
    }
}

impl Reference for ReferenceLte {
    type Config = LteConfig;
    type Counters = LadderCounters;
    type Residency = BTreeMap<&'static str, SimDuration>;

    fn new(cfg: LteConfig) -> Self {
        let mut res = BTreeMap::new();
        for k in ["IDLE", "LONG_DRX", "SHORT_DRX", "CONNECTED", "PROMOTING"] {
            res.insert(k, SimDuration::ZERO);
        }
        ReferenceLte {
            cfg,
            now: SimTime::ZERO,
            state: Obs::Idle,
            descend_at: None,
            cpu_load: 0.0,
            joules: 0.0,
            res,
            counters: LadderCounters::default(),
            transitions: Vec::new(),
        }
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn state_label(&self) -> &'static str {
        Self::label_of(self.state)
    }
    fn energy_j(&self) -> f64 {
        self.joules
    }
    fn counters(&self) -> LadderCounters {
        self.counters
    }
    fn residency(&self) -> BTreeMap<&'static str, SimDuration> {
        self.res.clone()
    }
    fn transitions(&self) -> &[RefTransition] {
        &self.transitions
    }

    fn wait(&mut self, d: SimDuration) {
        let target = self.now + d;
        while let Some(at) = self.descend_at.filter(|at| *at <= target) {
            let w = self.hold_watts();
            self.accrue(at, w);
            self.counters.dwell_expirations += 1;
            match self.state {
                Obs::Connected => {
                    self.enter(at, Obs::ShortDrx);
                    self.descend_at = Some(at + SimDuration::from_secs_f64(self.cfg.short_drx_s));
                }
                Obs::ShortDrx => {
                    self.enter(at, Obs::LongDrx);
                    self.descend_at = Some(at + SimDuration::from_secs_f64(self.cfg.long_drx_s));
                }
                Obs::LongDrx => {
                    self.enter(at, Obs::Idle);
                    self.descend_at = None;
                }
                other => unreachable!("dwell fired in {other:?}"),
            }
        }
        let w = self.hold_watts();
        self.accrue(target, w);
    }

    fn transfer(&mut self, _needs_fast: bool, d: SimDuration, retries: u32) -> SimTime {
        self.counters.transfers += 1;
        self.descend_at = None;
        let attempts = u64::from(retries) + 1;
        let data_start = if self.state == Obs::Connected {
            self.now
        } else {
            let latency_s = if self.state == Obs::Idle {
                self.cfg.idle_to_connected_s
            } else {
                self.cfg.drx_wake_s
            };
            self.counters.promotions += 1;
            self.counters.promotion_retries += u64::from(retries);
            let done = self.now + SimDuration::from_secs_f64(latency_s) * attempts;
            self.enter(self.now, Obs::Promoting);
            self.accrue(done, self.cfg.promotion_w);
            self.enter(done, Obs::Connected);
            done
        };
        let end = data_start + d;
        self.accrue(end, self.cfg.tx_w);
        self.descend_at = Some(end + SimDuration::from_secs_f64(self.cfg.inactivity_s));
        data_start
    }

    fn release(&mut self) -> SimTime {
        if self.state == Obs::Idle {
            return self.now;
        }
        let done = self.now + SimDuration::from_secs_f64(self.cfg.release_latency_s);
        let w = self.hold_watts();
        self.accrue(done, w);
        self.descend_at = None;
        self.enter(done, Obs::Idle);
        self.counters.releases += 1;
        done
    }

    fn set_cpu_load(&mut self, load: f64) {
        self.cpu_load = load.clamp(0.0, ewb_rrc::MAX_CPU_CORES);
    }
}

// ---------------------------------------------------------------------------
// WiFi reference: PSM ↔ ACTIVE with beacon-amortized PSM power.
// ---------------------------------------------------------------------------

/// Straight-line WiFi PSM interpreter: two states, one dwell (the PSM
/// timeout), PSM power computed inline as the beacon duty cycle plus
/// the amortized per-beacon wakeup energy.
#[derive(Debug, Clone)]
pub struct ReferenceWifi {
    cfg: WifiConfig,
    now: SimTime,
    state: Obs,
    descend_at: Option<SimTime>,
    cpu_load: f64,
    joules: f64,
    res: BTreeMap<&'static str, SimDuration>,
    counters: LadderCounters,
    transitions: Vec<RefTransition>,
}

impl ReferenceWifi {
    fn label_of(state: Obs) -> &'static str {
        match state {
            Obs::PsmSleep => "PSM",
            Obs::Connected => "ACTIVE",
            Obs::Promoting => "PROMOTING",
            other => unreachable!("WiFi reference never enters {other:?}"),
        }
    }

    fn hold_watts(&self) -> f64 {
        let c = &self.cfg;
        match self.state {
            Obs::PsmSleep => {
                let on_j = c.active_w * c.beacon_on_s;
                let sleep_j = c.psm_sleep_w * (c.beacon_interval_s - c.beacon_on_s);
                let listen_w = (on_j + sleep_j) / c.beacon_interval_s;
                let wake_w = c.beacon_wake_mj / 1000.0 / c.beacon_interval_s;
                listen_w + wake_w
            }
            Obs::Connected => c.active_w,
            other => unreachable!("no hold power for {other:?}"),
        }
    }

    fn accrue(&mut self, to: SimTime, base_watts: f64) {
        if to > self.now {
            let d = to - self.now;
            self.joules +=
                (base_watts + self.cfg.cpu_full_extra_w * self.cpu_load) * d.as_secs_f64();
            *self
                .res
                .get_mut(Self::label_of(self.state))
                .expect("seeded") += d;
            self.now = to;
        }
    }

    fn enter(&mut self, at: SimTime, to: Obs) {
        if self.state != to {
            self.transitions.push((at, self.state, to));
            self.state = to;
        }
    }
}

impl Reference for ReferenceWifi {
    type Config = WifiConfig;
    type Counters = LadderCounters;
    type Residency = BTreeMap<&'static str, SimDuration>;

    fn new(cfg: WifiConfig) -> Self {
        let mut res = BTreeMap::new();
        for k in ["PSM", "ACTIVE", "PROMOTING"] {
            res.insert(k, SimDuration::ZERO);
        }
        ReferenceWifi {
            cfg,
            now: SimTime::ZERO,
            state: Obs::PsmSleep,
            descend_at: None,
            cpu_load: 0.0,
            joules: 0.0,
            res,
            counters: LadderCounters::default(),
            transitions: Vec::new(),
        }
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn state_label(&self) -> &'static str {
        Self::label_of(self.state)
    }
    fn energy_j(&self) -> f64 {
        self.joules
    }
    fn counters(&self) -> LadderCounters {
        self.counters
    }
    fn residency(&self) -> BTreeMap<&'static str, SimDuration> {
        self.res.clone()
    }
    fn transitions(&self) -> &[RefTransition] {
        &self.transitions
    }

    fn wait(&mut self, d: SimDuration) {
        let target = self.now + d;
        if let Some(at) = self.descend_at.filter(|at| *at <= target) {
            self.accrue(at, self.cfg.active_w);
            self.counters.dwell_expirations += 1;
            self.enter(at, Obs::PsmSleep);
            self.descend_at = None;
        }
        let w = self.hold_watts();
        self.accrue(target, w);
    }

    fn transfer(&mut self, _needs_fast: bool, d: SimDuration, retries: u32) -> SimTime {
        self.counters.transfers += 1;
        self.descend_at = None;
        let attempts = u64::from(retries) + 1;
        let data_start = if self.state == Obs::Connected {
            self.now
        } else {
            self.counters.promotions += 1;
            self.counters.promotion_retries += u64::from(retries);
            let done = self.now + SimDuration::from_secs_f64(self.cfg.wake_latency_s) * attempts;
            self.enter(self.now, Obs::Promoting);
            self.accrue(done, self.cfg.promotion_w);
            self.enter(done, Obs::Connected);
            done
        };
        let end = data_start + d;
        self.accrue(end, self.cfg.tx_w);
        self.descend_at = Some(end + SimDuration::from_secs_f64(self.cfg.psm_timeout_s));
        data_start
    }

    fn release(&mut self) -> SimTime {
        if self.state == Obs::PsmSleep {
            return self.now;
        }
        let done = self.now + SimDuration::from_secs_f64(self.cfg.release_latency_s);
        self.accrue(done, self.cfg.active_w);
        self.descend_at = None;
        self.enter(done, Obs::PsmSleep);
        self.counters.releases += 1;
        done
    }

    fn set_cpu_load(&mut self, load: f64) {
        self.cpu_load = load.clamp(0.0, ewb_rrc::MAX_CPU_CORES);
    }
}

// ---------------------------------------------------------------------------
// 5G reference: IDLE → PROMOTING → CONNECTED → CDRX → IDLE.
// ---------------------------------------------------------------------------

/// Straight-line 5G NR interpreter: cDRX with a short tail, fast
/// releases, cycle-averaged cDRX power computed inline.
#[derive(Debug, Clone)]
pub struct ReferenceFiveG {
    cfg: FiveGConfig,
    now: SimTime,
    state: Obs,
    descend_at: Option<SimTime>,
    cpu_load: f64,
    joules: f64,
    res: BTreeMap<&'static str, SimDuration>,
    counters: LadderCounters,
    transitions: Vec<RefTransition>,
}

impl ReferenceFiveG {
    fn label_of(state: Obs) -> &'static str {
        match state {
            Obs::Idle => "IDLE",
            Obs::Cdrx => "CDRX",
            Obs::Connected => "CONNECTED",
            Obs::Promoting => "PROMOTING",
            other => unreachable!("5G reference never enters {other:?}"),
        }
    }

    fn hold_watts(&self) -> f64 {
        let c = &self.cfg;
        match self.state {
            Obs::Idle => c.idle_w,
            Obs::Cdrx => {
                let on_j = c.connected_w * c.cdrx_on_s;
                let sleep_j = c.cdrx_sleep_w * (c.cdrx_cycle_s - c.cdrx_on_s);
                (on_j + sleep_j) / c.cdrx_cycle_s
            }
            Obs::Connected => c.connected_w,
            other => unreachable!("no hold power for {other:?}"),
        }
    }

    fn accrue(&mut self, to: SimTime, base_watts: f64) {
        if to > self.now {
            let d = to - self.now;
            self.joules +=
                (base_watts + self.cfg.cpu_full_extra_w * self.cpu_load) * d.as_secs_f64();
            *self
                .res
                .get_mut(Self::label_of(self.state))
                .expect("seeded") += d;
            self.now = to;
        }
    }

    fn enter(&mut self, at: SimTime, to: Obs) {
        if self.state != to {
            self.transitions.push((at, self.state, to));
            self.state = to;
        }
    }
}

impl Reference for ReferenceFiveG {
    type Config = FiveGConfig;
    type Counters = LadderCounters;
    type Residency = BTreeMap<&'static str, SimDuration>;

    fn new(cfg: FiveGConfig) -> Self {
        let mut res = BTreeMap::new();
        for k in ["IDLE", "CDRX", "CONNECTED", "PROMOTING"] {
            res.insert(k, SimDuration::ZERO);
        }
        ReferenceFiveG {
            cfg,
            now: SimTime::ZERO,
            state: Obs::Idle,
            descend_at: None,
            cpu_load: 0.0,
            joules: 0.0,
            res,
            counters: LadderCounters::default(),
            transitions: Vec::new(),
        }
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn state_label(&self) -> &'static str {
        Self::label_of(self.state)
    }
    fn energy_j(&self) -> f64 {
        self.joules
    }
    fn counters(&self) -> LadderCounters {
        self.counters
    }
    fn residency(&self) -> BTreeMap<&'static str, SimDuration> {
        self.res.clone()
    }
    fn transitions(&self) -> &[RefTransition] {
        &self.transitions
    }

    fn wait(&mut self, d: SimDuration) {
        let target = self.now + d;
        while let Some(at) = self.descend_at.filter(|at| *at <= target) {
            let w = self.hold_watts();
            self.accrue(at, w);
            self.counters.dwell_expirations += 1;
            match self.state {
                Obs::Connected => {
                    self.enter(at, Obs::Cdrx);
                    self.descend_at = Some(at + SimDuration::from_secs_f64(self.cfg.cdrx_tail_s));
                }
                Obs::Cdrx => {
                    self.enter(at, Obs::Idle);
                    self.descend_at = None;
                }
                other => unreachable!("dwell fired in {other:?}"),
            }
        }
        let w = self.hold_watts();
        self.accrue(target, w);
    }

    fn transfer(&mut self, _needs_fast: bool, d: SimDuration, retries: u32) -> SimTime {
        self.counters.transfers += 1;
        self.descend_at = None;
        let attempts = u64::from(retries) + 1;
        let data_start = if self.state == Obs::Connected {
            self.now
        } else {
            let latency_s = if self.state == Obs::Idle {
                self.cfg.idle_to_connected_s
            } else {
                self.cfg.cdrx_wake_s
            };
            self.counters.promotions += 1;
            self.counters.promotion_retries += u64::from(retries);
            let done = self.now + SimDuration::from_secs_f64(latency_s) * attempts;
            self.enter(self.now, Obs::Promoting);
            self.accrue(done, self.cfg.promotion_w);
            self.enter(done, Obs::Connected);
            done
        };
        let end = data_start + d;
        self.accrue(end, self.cfg.tx_w);
        self.descend_at = Some(end + SimDuration::from_secs_f64(self.cfg.inactivity_s));
        data_start
    }

    fn release(&mut self) -> SimTime {
        if self.state == Obs::Idle {
            return self.now;
        }
        let done = self.now + SimDuration::from_secs_f64(self.cfg.release_latency_s);
        let w = self.hold_watts();
        self.accrue(done, w);
        self.descend_at = None;
        self.enter(done, Obs::Idle);
        self.counters.releases += 1;
        done
    }

    fn set_cpu_load(&mut self, load: f64) {
        self.cpu_load = load.clamp(0.0, ewb_rrc::MAX_CPU_CORES);
    }
}

/// A discretized step alphabet derived from a ladder spec: one wait
/// inside the top level's dwell, one wait crossing each cascade
/// boundary (landing midway into the next level, or 1 s into the
/// bottom), plus transfers (plain, zero-length, retried) and a fast
/// release — the backend counterpart of
/// [`crate::scenario::default_alphabet`].
pub fn ladder_alphabet(spec: &LadderSpec) -> Vec<Step> {
    let n = spec.n_levels;
    let mut steps = vec![Step::Wait {
        micros: (spec.dwell[n - 1] / 2).as_micros(),
    }];
    let mut cum = SimDuration::ZERO;
    for lvl in (1..n).rev() {
        cum += spec.dwell[lvl];
        let into = if lvl >= 2 {
            spec.dwell[lvl - 1] / 2
        } else {
            SimDuration::from_secs(1)
        };
        steps.push(Step::Wait {
            micros: (cum + into).as_micros(),
        });
    }
    steps.push(Step::Transfer {
        needs_dch: true,
        micros: 500_000,
        retries: 0,
    });
    steps.push(Step::Transfer {
        needs_dch: true,
        micros: 0,
        retries: 0,
    });
    steps.push(Step::Transfer {
        needs_dch: true,
        micros: 250_000,
        retries: 1,
    });
    steps.push(Step::Release);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::exhaustive;
    use crate::run::check_scenario;
    use crate::scenario::Scenario;
    use ewb_obs::{ledger, Recorder};
    use ewb_rrc::{FiveGMachine, LteMachine, WifiMachine};

    #[test]
    fn lte_exhaustive_depth_three_is_clean_and_covered() {
        let cfg = LteConfig::calibrated();
        let alphabet = ladder_alphabet(&Lte::spec(&cfg));
        let r = exhaustive::<LteMachine>(&cfg, &alphabet, 3, Mutant::None);
        assert!(r.ok(), "{:?}", r.counterexample);
        for key in [
            "state:IDLE",
            "state:SHORT_DRX",
            "state:LONG_DRX",
            "state:CONNECTED",
            "ctr:dwell_expirations",
            "ctr:releases",
            "ctr:promotion_retries",
            "trans:PROMOTING->CONNECTED",
        ] {
            assert!(r.coverage.contains(key), "missing coverage: {key}");
        }
    }

    #[test]
    fn wifi_exhaustive_depth_three_is_clean_and_covered() {
        let cfg = WifiConfig::calibrated();
        let alphabet = ladder_alphabet(&Wifi::spec(&cfg));
        let r = exhaustive::<WifiMachine>(&cfg, &alphabet, 3, Mutant::None);
        assert!(r.ok(), "{:?}", r.counterexample);
        assert!(r.coverage.contains("state:PSM"));
        assert!(r.coverage.contains("ctr:dwell_expirations"));
    }

    #[test]
    fn five_g_exhaustive_depth_three_is_clean_and_covered() {
        let cfg = FiveGConfig::calibrated();
        let alphabet = ladder_alphabet(&FiveG::spec(&cfg));
        let r = exhaustive::<FiveGMachine>(&cfg, &alphabet, 3, Mutant::None);
        assert!(r.ok(), "{:?}", r.counterexample);
        assert!(r.coverage.contains("state:CDRX"));
        assert!(r.coverage.contains("state:IDLE"));
    }

    #[test]
    fn swapped_drx_mutant_dies_within_two_steps() {
        let cfg = LteConfig::calibrated();
        let alphabet = ladder_alphabet(&Lte::spec(&cfg));
        let r = exhaustive::<LteMachine>(&cfg, &alphabet, 2, Mutant::SwappedDrxCycles);
        let cex = r.counterexample.expect("mutant must be caught");
        assert!(
            cex.scenario.steps.len() <= 2,
            "expected ≤2 steps, got {}",
            cex.scenario
        );
        assert!(!cex.violations.is_empty());
    }

    #[test]
    fn ignored_beacon_mutant_dies_within_two_steps() {
        let cfg = WifiConfig::calibrated();
        let alphabet = ladder_alphabet(&Wifi::spec(&cfg));
        let r = exhaustive::<WifiMachine>(&cfg, &alphabet, 2, Mutant::IgnoredPsmBeacon);
        let cex = r.counterexample.expect("mutant must be caught");
        assert!(
            cex.scenario.steps.len() <= 2,
            "expected ≤2 steps, got {}",
            cex.scenario
        );
        assert!(cex
            .violations
            .iter()
            .any(|v| v.invariant == "differential-energy"));
    }

    #[test]
    fn eager_five_g_release_mutant_dies_within_two_steps() {
        let cfg = FiveGConfig::calibrated();
        let alphabet = ladder_alphabet(&FiveG::spec(&cfg));
        let r = exhaustive::<FiveGMachine>(&cfg, &alphabet, 2, Mutant::EagerFiveGRelease);
        let cex = r.counterexample.expect("mutant must be caught");
        assert!(
            cex.scenario.steps.len() <= 2,
            "expected ≤2 steps, got {}",
            cex.scenario
        );
    }

    #[test]
    fn retried_promotions_agree_on_data_start() {
        for retries in [0u32, 1, 3] {
            let s = Scenario::new(
                format!("retry-{retries}"),
                vec![Step::Transfer {
                    needs_dch: true,
                    micros: 100_000,
                    retries,
                }],
            );
            for rep in [
                check_scenario::<LteMachine>(&LteConfig::calibrated(), &s, Mutant::None),
                check_scenario::<WifiMachine>(&WifiConfig::calibrated(), &s, Mutant::None),
                check_scenario::<FiveGMachine>(&FiveGConfig::calibrated(), &s, Mutant::None),
            ] {
                assert!(rep.ok(), "retries={retries}: {:?}", rep.violations);
            }
        }
    }

    #[test]
    fn cross_backend_tail_energy_ordering_matches_the_radio_story() {
        // Same workload — one 0.5 s transfer, then 30 s of silence. The
        // 3G tail (4 s DCH + 15 s FACH) must dominate; the 5G fast tail
        // and WiFi PSM timeout must be far cheaper.
        let s = Scenario::new(
            "tail",
            vec![
                Step::Transfer {
                    needs_dch: true,
                    micros: 500_000,
                    retries: 0,
                },
                Step::Wait { micros: 30_000_000 },
            ],
        );
        let three_g = check_scenario::<RrcMachine>(&RrcConfig::paper(), &s, Mutant::None);
        let lte = check_scenario::<LteMachine>(&LteConfig::calibrated(), &s, Mutant::None);
        let wifi = check_scenario::<WifiMachine>(&WifiConfig::calibrated(), &s, Mutant::None);
        let five_g = check_scenario::<FiveGMachine>(&FiveGConfig::calibrated(), &s, Mutant::None);
        for r in [&three_g, &lte, &wifi, &five_g] {
            assert!(r.ok(), "{:?}", r.violations);
        }
        assert!(three_g.energy_j > lte.energy_j, "3G tail must dominate LTE");
        assert!(lte.energy_j > five_g.energy_j, "LTE tail must dominate 5G");
        assert!(
            three_g.energy_j > 3.0 * five_g.energy_j,
            "the 5G tail is an order cheaper: 3G {} J vs 5G {} J",
            three_g.energy_j,
            five_g.energy_j
        );
        assert!(wifi.energy_j < three_g.energy_j);
    }

    #[test]
    fn ladder_alphabets_straddle_every_boundary() {
        for (spec, expect_waits) in [
            (Lte::spec(&LteConfig::calibrated()), 4),
            (Wifi::spec(&WifiConfig::calibrated()), 2),
            (FiveG::spec(&FiveGConfig::calibrated()), 3),
        ] {
            let a = ladder_alphabet(&spec);
            let waits = a.iter().filter(|s| matches!(s, Step::Wait { .. })).count();
            assert_eq!(waits, expect_waits, "{:?}", spec.backend);
            assert_eq!(a.len(), waits + 4);
        }
    }

    #[test]
    fn reference_interpreter_replays_the_timer_cascade() {
        let mut r = ReferenceRrc::new(RrcConfig::paper());
        let ds = r.transfer(true, SimDuration::from_secs(2), 0);
        assert_eq!(ds, SimTime::from_secs_f64(1.75));
        assert_eq!(r.state_label(), "DCH");
        r.wait(SimDuration::from_secs(25));
        assert_eq!(r.state_label(), "IDLE");
        assert_eq!(r.counters().t1_expirations, 1);
        assert_eq!(r.counters().t2_expirations, 1);
        let expected = 7.0 + 2.0 * 1.25 + 4.0 * 1.15 + 15.0 * 0.63 + 6.0 * 0.15;
        assert!((r.energy_j() - expected).abs() < 1e-6, "{}", r.energy_j());
        assert_eq!(r.residency().total(), SimDuration::from_secs_f64(28.75));
    }

    #[test]
    fn reference_agrees_with_machine_on_a_mixed_scenario() {
        let cfg = RrcConfig::paper();
        let recorder = Recorder::memory();
        let mut m = RrcMachine::with_recorder(cfg, SimTime::ZERO, recorder.clone());
        let mut r = ReferenceRrc::new(cfg);

        // transfer → partial tail → small FACH transfer → dormancy → idle.
        let half = SimDuration::from_millis(500);
        let ds_m = m.begin_transfer_with_promotion_retries(m.now(), true, 1);
        m.end_transfer(ds_m + half);
        let ds_r = r.transfer(true, half, 1);
        assert_eq!(ds_m, ds_r);

        m.advance_to(m.now() + SimDuration::from_secs(6));
        r.wait(SimDuration::from_secs(6));
        assert_eq!(m.state().name(), r.state_label());
        assert_eq!(m.state(), RrcState::Fach);

        let ds_m = m.begin_transfer(m.now(), false);
        m.end_transfer(ds_m + half);
        r.transfer(false, half, 0);

        m.release_to_idle(m.now());
        r.release();

        m.advance_to(m.now() + SimDuration::from_secs(5));
        r.wait(SimDuration::from_secs(5));

        assert_eq!(m.now(), r.now());
        assert_eq!(m.state().name(), r.state_label());
        assert_eq!(m.counters(), r.counters());
        assert_eq!(m.residency(), r.residency());
        assert_eq!(ledger::transitions(&recorder.events()), r.transitions());
        assert!((m.energy_j() - r.energy_j()).abs() < 1e-9);
    }
}
