//! Cross-backend differential oracles for the ladder radios.
//!
//! Mirrors the 3G harness exactly, one layer up: each non-3G backend
//! gets its own *straight-line reference interpreter* written directly
//! from the backend's named-field config ([`ReferenceLte`],
//! [`ReferenceWifi`], [`ReferenceFiveG`]) — no [`ewb_rrc::LadderSpec`]
//! table, no event queue, no recorder — and [`check_ladder_scenario`]
//! drives the real [`ewb_rrc::LadderMachine`] and the reference through
//! the same [`Scenario`] in lock-step. The comparison surface is the
//! same as 3G's: state label and clock at every step boundary,
//! per-transfer `data_start` instants (integer-exact), transitions,
//! counters, per-state residency (integer-exact), and total energy
//! (1 nJ/J relative tolerance).
//!
//! On top of the differential layer, the generic invariant set from the
//! 3G checker is re-derived per backend from its lowered spec: legal
//! transition edges, `Dwell` timers firing only in dwell-bearing states,
//! monotone energy, bit-identical ledger folds, transfers confined to
//! the transmit-capable level, and residency accounting for elapsed
//! time.
//!
//! [`BackendMutant`] seeds one characteristic defect per backend
//! (transposed DRX dwells, beacon-skipping PSM, an over-eager 5G tail)
//! and the teeth tests prove each dies within a two-step
//! counterexample, mirroring the PR 4 mutants.

use crate::run::{check_transitions, RunReport, Violation, ENERGY_REL_TOL};
use crate::scenario::{Scenario, Step};
use ewb_obs::{ledger, Event, RadioState as Obs, Recorder, Timer};
use ewb_rrc::{
    FiveG, FiveGConfig, LadderBackend, LadderCounters, LadderMachine, LadderSpec, Lte, LteConfig,
    Wifi, WifiConfig,
};
use ewb_simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// A recorded reference transition: `(at, from, to)`.
pub type RefTransition = (SimTime, Obs, Obs);

/// The observable surface every backend reference interpreter exposes
/// to the lock-step driver. Implementations are deliberately
/// *independent* reimplementations of their backend's semantics — they
/// read the named config fields directly and never touch
/// [`LadderSpec`].
pub trait BackendReference {
    /// Current interpreter time.
    fn now(&self) -> SimTime;
    /// Stable name of the current state (never mid-promotion at a step
    /// boundary).
    fn state_label(&self) -> &'static str;
    /// Total accrued energy, joules.
    fn energy_j(&self) -> f64;
    /// Event counters so far.
    fn counters(&self) -> LadderCounters;
    /// Residency per state label (all labels present, `PROMOTING`
    /// included), integer-exact.
    fn residency(&self) -> BTreeMap<&'static str, SimDuration>;
    /// The recorded transitions, oldest first.
    fn transitions(&self) -> &[RefTransition];
    /// Lets `d` of inactivity pass, firing any dwell cascade inside.
    fn wait(&mut self, d: SimDuration);
    /// One complete transfer (promote if needed, move data for `d`,
    /// re-arm the inactivity dwell). Returns the data-start instant.
    fn transfer(&mut self, d: SimDuration, retries: u32) -> SimTime;
    /// Application-initiated fast release to the deepest sleep state.
    fn release(&mut self) -> SimTime;
    /// Sets the simulated CPU load in `[0, 1]`.
    fn set_cpu_load(&mut self, load: f64);
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
    /// Creates an interpreter in IDLE at `start`.
    pub fn new(cfg: LteConfig, start: SimTime) -> Self {
        let mut res = BTreeMap::new();
        for k in ["IDLE", "LONG_DRX", "SHORT_DRX", "CONNECTED", "PROMOTING"] {
            res.insert(k, SimDuration::ZERO);
        }
        ReferenceLte {
            cfg,
            now: start,
            state: Obs::Idle,
            descend_at: None,
            cpu_load: 0.0,
            joules: 0.0,
            res,
            counters: LadderCounters::default(),
            transitions: Vec::new(),
        }
    }

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

impl BackendReference for ReferenceLte {
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

    fn transfer(&mut self, d: SimDuration, retries: u32) -> SimTime {
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
    /// Creates an interpreter in PSM at `start`.
    pub fn new(cfg: WifiConfig, start: SimTime) -> Self {
        let mut res = BTreeMap::new();
        for k in ["PSM", "ACTIVE", "PROMOTING"] {
            res.insert(k, SimDuration::ZERO);
        }
        ReferenceWifi {
            cfg,
            now: start,
            state: Obs::PsmSleep,
            descend_at: None,
            cpu_load: 0.0,
            joules: 0.0,
            res,
            counters: LadderCounters::default(),
            transitions: Vec::new(),
        }
    }

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

impl BackendReference for ReferenceWifi {
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

    fn transfer(&mut self, d: SimDuration, retries: u32) -> SimTime {
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
    /// Creates an interpreter in IDLE at `start`.
    pub fn new(cfg: FiveGConfig, start: SimTime) -> Self {
        let mut res = BTreeMap::new();
        for k in ["IDLE", "CDRX", "CONNECTED", "PROMOTING"] {
            res.insert(k, SimDuration::ZERO);
        }
        ReferenceFiveG {
            cfg,
            now: start,
            state: Obs::Idle,
            descend_at: None,
            cpu_load: 0.0,
            joules: 0.0,
            res,
            counters: LadderCounters::default(),
            transitions: Vec::new(),
        }
    }

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

impl BackendReference for ReferenceFiveG {
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

    fn transfer(&mut self, d: SimDuration, retries: u32) -> SimTime {
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

// ---------------------------------------------------------------------------
// Seeded backend mutants.
// ---------------------------------------------------------------------------

/// A seeded defect in one ladder backend's system under test. The
/// reference always keeps the true configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendMutant {
    /// No defect.
    None,
    /// LTE: the short- and long-DRX dwell timers are transposed — the
    /// transposed-constant bug, LTE edition (cf. the 3G
    /// `Mutant::SwappedTimers`).
    SwappedDrxCycles,
    /// WiFi: the firmware skips beacon wakeups entirely (`beacon_on_s`
    /// and `beacon_wake_mj` forced to zero), under-billing every second
    /// spent in PSM.
    IgnoredPsmBeacon,
    /// 5G: the cDRX tail is cut to a quarter of the calibrated value —
    /// the radio releases to IDLE far too eagerly.
    EagerFiveGRelease,
}

impl BackendMutant {
    /// The faulty mutants paired with the backend each one targets.
    pub const ALL_FAULTY: [BackendMutant; 3] = [
        BackendMutant::SwappedDrxCycles,
        BackendMutant::IgnoredPsmBeacon,
        BackendMutant::EagerFiveGRelease,
    ];

    /// Doctors an LTE config (non-LTE mutants leave it unchanged).
    pub fn doctor_lte(self, cfg: &LteConfig) -> LteConfig {
        let mut c = *cfg;
        if self == BackendMutant::SwappedDrxCycles {
            std::mem::swap(&mut c.short_drx_s, &mut c.long_drx_s);
        }
        c
    }

    /// Doctors a WiFi config (non-WiFi mutants leave it unchanged).
    pub fn doctor_wifi(self, cfg: &WifiConfig) -> WifiConfig {
        let mut c = *cfg;
        if self == BackendMutant::IgnoredPsmBeacon {
            c.beacon_on_s = 0.0;
            c.beacon_wake_mj = 0.0;
        }
        c
    }

    /// Doctors a 5G config (non-5G mutants leave it unchanged).
    pub fn doctor_five_g(self, cfg: &FiveGConfig) -> FiveGConfig {
        let mut c = *cfg;
        if self == BackendMutant::EagerFiveGRelease {
            c.cdrx_tail_s /= 4.0;
        }
        c
    }

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BackendMutant::None => "none",
            BackendMutant::SwappedDrxCycles => "swapped-drx-cycles",
            BackendMutant::IgnoredPsmBeacon => "ignored-psm-beacon",
            BackendMutant::EagerFiveGRelease => "eager-5g-release",
        }
    }
}

// ---------------------------------------------------------------------------
// The generic lock-step driver.
// ---------------------------------------------------------------------------

/// Legal transition edges of a ladder backend, derived from its spec:
/// one-level dwell descents, wake starts from any non-top level,
/// promotion completion into the top level, and fast releases from any
/// level to the bottom.
fn ladder_legal_edges(spec: &LadderSpec) -> Vec<(Obs, Obs)> {
    let n = spec.n_levels;
    let obs = &spec.obs_states;
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

/// Drives `scenario` through a real ladder machine built from `sut_cfg`
/// and through `reference` (built by the caller from the *true* config)
/// in lock-step, returning every invariant/differential violation — the
/// ladder-backend counterpart of [`crate::run::check_scenario`].
///
/// # Panics
///
/// Panics if `sut_cfg` fails validation.
pub fn check_ladder_scenario<B, R>(sut_cfg: B::Config, mut r: R, scenario: &Scenario) -> RunReport
where
    B: LadderBackend,
    R: BackendReference,
{
    const MAX_VIOLATIONS: usize = 8;
    let recorder = Recorder::memory();
    let mut m = LadderMachine::<B>::with_recorder(sut_cfg, SimTime::ZERO, recorder.clone());
    let spec = *m.spec();

    let mut violations: Vec<Violation> = Vec::new();
    let mut coverage: BTreeSet<String> = BTreeSet::new();
    let mut transfer_windows: Vec<(SimTime, SimTime)> = Vec::new();
    let mut last_energy = 0.0_f64;

    let push = |violations: &mut Vec<Violation>, invariant: &'static str, detail: String| {
        if violations.len() < MAX_VIOLATIONS {
            violations.push(Violation { invariant, detail });
        }
    };

    for (i, step) in scenario.steps.iter().enumerate() {
        let step_no = i + 1;
        match step {
            Step::Wait { micros } => {
                let d = SimDuration::from_micros(*micros);
                m.advance_to(m.now() + d);
                r.wait(d);
            }
            Step::Transfer {
                needs_dch,
                micros,
                retries,
            } => {
                let ds = m.begin_transfer_with_promotion_retries(m.now(), *needs_dch, *retries);
                let end = ds + SimDuration::from_micros(*micros);
                m.end_transfer(end);
                transfer_windows.push((ds, end));
                let ds_ref = r.transfer(SimDuration::from_micros(*micros), *retries);
                if ds != ds_ref {
                    push(
                        &mut violations,
                        "differential-data-start",
                        format!(
                            "step {step_no} ({step}): machine data_start {ds}, reference {ds_ref}"
                        ),
                    );
                }
                coverage.insert(format!(
                    "transfer{}",
                    if *micros == 0 { ":zero" } else { "" }
                ));
                if *retries > 0 {
                    coverage.insert("transfer:retries".to_string());
                }
            }
            Step::Release => {
                if m.level() == 0 {
                    coverage.insert("release:noop".to_string());
                }
                m.release_to_idle(m.now());
                r.release();
            }
            Step::CpuLoad { load } => {
                m.set_cpu_load(m.now(), *load);
                r.set_cpu_load(*load);
                coverage.insert("cpu_load".to_string());
            }
        }

        if m.state_label() != r.state_label() {
            push(
                &mut violations,
                "differential-state",
                format!(
                    "step {step_no} ({step}): machine in {}, reference in {}",
                    m.state_label(),
                    r.state_label()
                ),
            );
        }
        if m.now() != r.now() {
            push(
                &mut violations,
                "differential-clock",
                format!(
                    "step {step_no} ({step}): machine at {}, reference at {}",
                    m.now(),
                    r.now()
                ),
            );
        }
        if m.energy_j() < last_energy {
            push(
                &mut violations,
                "energy-monotone",
                format!(
                    "step {step_no} ({step}): energy fell from {last_energy} to {}",
                    m.energy_j()
                ),
            );
        }
        last_energy = m.energy_j();
    }

    // ---- differential: whole-run observables --------------------------
    let me = m.energy_j();
    let re = r.energy_j();
    if (me - re).abs() > ENERGY_REL_TOL * (1.0 + me.abs()) {
        push(
            &mut violations,
            "differential-energy",
            format!("machine accrued {me} J, reference {re} J"),
        );
    }
    if m.counters() != r.counters() {
        push(
            &mut violations,
            "differential-counters",
            format!("machine {:?}, reference {:?}", m.counters(), r.counters()),
        );
    }
    let mut m_res: BTreeMap<&'static str, SimDuration> = BTreeMap::new();
    let res = m.residency();
    for i in 0..spec.n_levels {
        m_res.insert(spec.level_names[i], res.levels[i]);
    }
    m_res.insert("PROMOTING", res.promoting);
    if m_res != r.residency() {
        push(
            &mut violations,
            "differential-residency",
            format!("machine {m_res:?}, reference {:?}", r.residency()),
        );
    }
    let events = recorder.events();
    let transitions = ledger::transitions(&events);
    if transitions != r.transitions() {
        push(
            &mut violations,
            "differential-transitions",
            format!(
                "machine took {transitions:?}, reference {:?}",
                r.transitions()
            ),
        );
    }

    // ---- invariants over the machine's own record ---------------------
    check_ladder_invariants(&m, &spec, &events, &transfer_windows, &mut |inv, d| {
        push(&mut violations, inv, d)
    });

    // Coverage from the machine's own record.
    coverage.insert(format!("state:{}", m.state_label()));
    for (_, from, to) in transitions {
        coverage.insert(format!("trans:{from}->{to}"));
    }
    let c = m.counters();
    for (key, v) in [
        ("ctr:promotions", c.promotions),
        ("ctr:promotion_retries", c.promotion_retries),
        ("ctr:dwell_expirations", c.dwell_expirations),
        ("ctr:releases", c.releases),
    ] {
        if v > 0 {
            coverage.insert(key.to_string());
        }
    }

    RunReport {
        scenario: scenario.clone(),
        violations,
        coverage,
        energy_j: me,
        end: m.now(),
    }
}

/// The generic ladder counterpart of
/// [`crate::run::check_machine_invariants`]: legal edges, dwell-timer
/// arming, non-negative ledger entries, bit-identical ledger folds,
/// transfers confined to the transmit-capable top level, and residency
/// accounting.
pub fn check_ladder_invariants<B: LadderBackend>(
    m: &LadderMachine<B>,
    spec: &LadderSpec,
    events: &[Event],
    transfer_windows: &[(SimTime, SimTime)],
    push: &mut dyn FnMut(&'static str, String),
) {
    check_transitions(events, &ladder_legal_edges(spec), push);

    // Dwell timers fire only in dwell-bearing (non-bottom, non-promoting)
    // states; the 3G timers never fire here at all.
    let dwell_states: Vec<Obs> = (1..spec.n_levels).map(|i| spec.obs_states[i]).collect();
    let mut last_segment: Option<(SimTime, SimTime, Obs)> = None;
    for e in events {
        match e {
            Event::EnergySegment {
                start, end, state, ..
            } => {
                last_segment = Some((*start, *end, *state));
            }
            Event::TimerExpired { at, timer } => match timer {
                Timer::Dwell => match last_segment {
                    Some((_, end, state)) if end == *at && dwell_states.contains(&state) => {}
                    other => push(
                        "timer-arming",
                        format!(
                            "Dwell fired at {at} but the radio was not in a dwell-bearing \
                             state up to that instant (last segment: {other:?})"
                        ),
                    ),
                },
                Timer::T1 | Timer::T2 => push(
                    "timer-arming",
                    format!(
                        "3G timer {timer:?} fired on a {} machine at {at}",
                        B::BACKEND
                    ),
                ),
            },
            _ => {}
        }
    }

    let entries = ledger::entries(events);
    for (i, e) in entries.iter().enumerate() {
        if e.joules < 0.0 || e.watts < 0.0 {
            push(
                "energy-monotone",
                format!("ledger entry #{i} has negative power/energy: {e:?}"),
            );
        }
    }

    for err in ledger::audit(&entries) {
        push("ledger-bit-identity", format!("ledger audit: {err:?}"));
    }
    let folded = ledger::total(&entries);
    if folded.to_bits() != m.energy_j().to_bits() {
        push(
            "ledger-bit-identity",
            format!(
                "ledger folds to {folded} but the machine reports {} (bit patterns differ)",
                m.energy_j()
            ),
        );
    }

    // Transfers only at the transmit-capable top level.
    let top = spec.obs_states[spec.n_levels - 1];
    for (i, &(ds, end)) in transfer_windows.iter().enumerate() {
        for e in &entries {
            let lo = e.start.max(ds);
            let hi = e.end.min(end);
            if lo < hi && e.state != top {
                push(
                    "transfer-connected",
                    format!(
                        "transfer #{i} ({ds}..{end}) overlaps a {:?} segment ({}..{})",
                        e.state, e.start, e.end
                    ),
                );
            }
        }
    }

    let elapsed = m.now() - SimTime::ZERO;
    if m.residency().total() != elapsed {
        push(
            "residency-accounts-time",
            format!(
                "residency sums to {} but {} elapsed",
                m.residency().total(),
                elapsed
            ),
        );
    }
}

/// Convenience checkers binding each backend to its reference. The SUT
/// is built from `mutant.doctor_*(cfg)`; the reference always gets the
/// true `cfg`.
pub fn check_lte_scenario(
    cfg: &LteConfig,
    scenario: &Scenario,
    mutant: BackendMutant,
) -> RunReport {
    check_ladder_scenario::<Lte, _>(
        mutant.doctor_lte(cfg),
        ReferenceLte::new(*cfg, SimTime::ZERO),
        scenario,
    )
}

/// WiFi counterpart of [`check_lte_scenario`].
pub fn check_wifi_scenario(
    cfg: &WifiConfig,
    scenario: &Scenario,
    mutant: BackendMutant,
) -> RunReport {
    check_ladder_scenario::<Wifi, _>(
        mutant.doctor_wifi(cfg),
        ReferenceWifi::new(*cfg, SimTime::ZERO),
        scenario,
    )
}

/// 5G counterpart of [`check_lte_scenario`].
pub fn check_five_g_scenario(
    cfg: &FiveGConfig,
    scenario: &Scenario,
    mutant: BackendMutant,
) -> RunReport {
    check_ladder_scenario::<FiveG, _>(
        mutant.doctor_five_g(cfg),
        ReferenceFiveG::new(*cfg, SimTime::ZERO),
        scenario,
    )
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
    use crate::explore::exhaustive_with;

    #[test]
    fn lte_exhaustive_depth_three_is_clean_and_covered() {
        let cfg = LteConfig::calibrated();
        let alphabet = ladder_alphabet(&Lte::spec(&cfg));
        let r = exhaustive_with(&alphabet, 3, |s| {
            check_lte_scenario(&cfg, s, BackendMutant::None)
        });
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
        let r = exhaustive_with(&alphabet, 3, |s| {
            check_wifi_scenario(&cfg, s, BackendMutant::None)
        });
        assert!(r.ok(), "{:?}", r.counterexample);
        assert!(r.coverage.contains("state:PSM"));
        assert!(r.coverage.contains("ctr:dwell_expirations"));
    }

    #[test]
    fn five_g_exhaustive_depth_three_is_clean_and_covered() {
        let cfg = FiveGConfig::calibrated();
        let alphabet = ladder_alphabet(&FiveG::spec(&cfg));
        let r = exhaustive_with(&alphabet, 3, |s| {
            check_five_g_scenario(&cfg, s, BackendMutant::None)
        });
        assert!(r.ok(), "{:?}", r.counterexample);
        assert!(r.coverage.contains("state:CDRX"));
        assert!(r.coverage.contains("state:IDLE"));
    }

    #[test]
    fn swapped_drx_mutant_dies_within_two_steps() {
        let cfg = LteConfig::calibrated();
        let alphabet = ladder_alphabet(&Lte::spec(&cfg));
        let r = exhaustive_with(&alphabet, 2, |s| {
            check_lte_scenario(&cfg, s, BackendMutant::SwappedDrxCycles)
        });
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
        let r = exhaustive_with(&alphabet, 2, |s| {
            check_wifi_scenario(&cfg, s, BackendMutant::IgnoredPsmBeacon)
        });
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
        let r = exhaustive_with(&alphabet, 2, |s| {
            check_five_g_scenario(&cfg, s, BackendMutant::EagerFiveGRelease)
        });
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
                check_lte_scenario(&LteConfig::calibrated(), &s, BackendMutant::None),
                check_wifi_scenario(&WifiConfig::calibrated(), &s, BackendMutant::None),
                check_five_g_scenario(&FiveGConfig::calibrated(), &s, BackendMutant::None),
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
        let three_g =
            crate::run::check_scenario(&ewb_rrc::RrcConfig::paper(), &s, crate::Mutant::None);
        let lte = check_lte_scenario(&LteConfig::calibrated(), &s, BackendMutant::None);
        let wifi = check_wifi_scenario(&WifiConfig::calibrated(), &s, BackendMutant::None);
        let five_g = check_five_g_scenario(&FiveGConfig::calibrated(), &s, BackendMutant::None);
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
}
