//! Memoized page-load profiles: the fleet simulator's fast session path.
//!
//! On a clean link, the radio events of one page load are a pure function
//! of three things: the page, the case's pipeline schedule, and the radio
//! state at the click. Everything else the machine carries at the click —
//! pending inactivity deadlines, past history — cannot influence the load,
//! because the load's first event is a `BeginTransfer` at the click
//! instant itself, which cancels any pending timer before it could fire.
//! (Clicks always find the radio in one of its *click states* — 3G:
//! IDLE, FACH, or DCH; see [`RadioModel::click_state_index`] — because
//! promotion windows only exist inside loads, and every load's transfers
//! finish before the page opens.) Nothing in this argument is specific to
//! the 3G state machine, so [`ProfileTable`] is generic over the
//! [`RadioModel`].
//!
//! [`ProfileTable::capture`] therefore runs the full browser pipeline once
//! per (page, mode, click-state) — 120 loads for the benchmark corpus on
//! 3G — and stores each load's radio events shifted to a click-relative
//! clock. It also compiles each load into a [`LoadTape`]: the events,
//! replayed once onto a machine in the key's click state, fix the load's
//! whole effect on the machine — its meter addends and duration, its
//! residency and counter deltas, and its end state with click-relative
//! deadlines. [`run_profiled_session_with`] replays whole 3G sessions on
//! one incremental [`RrcMachine`] by playing each visit's tape at its
//! click, so a visit costs one pass over the tape's addends instead of
//! one machine call per event: the hot path of `ewb-fleet`. Neither the
//! tape nor the machine keeps a history of power segments or state
//! transitions; that history is the `ewb-obs` energy ledger, which only a
//! machine with a recorder attached emits.
//!
//! The replayed session is **bit-identical** to
//! [`simulate_session`](crate::session::simulate_session): that path
//! issues the same machine calls at the same instants (the canonical
//! [`sort_radio_events`] order), and a tape holds exactly the addends
//! those calls add to the meter, in the same order. Time is integer
//! microseconds, so no addend depends on where the click falls.
//!
//! The same argument extends to faulty links, one [`FaultTier`] at a
//! time: a tier fixes a [`FaultConfig`] and one fault-stream seed per
//! profile key, so a captured faulted load is exactly as pure a function
//! of its key as a clean one — the fault stream is part of the key, not
//! of the session history. The intra-page [`ParallelismPlan`] is a key
//! dimension for the same reason. A table is keyed by
//! (page, mode, click-state, tier, plan), still one capture per key, and
//! the equivalence oracle is
//! [`simulate_session`](crate::session::simulate_session) with
//! [`visit_seeds`](crate::session::SessionOpts::visit_seeds) set to the
//! per-key capture seeds.

use crate::cases::{Case, ReleasePolicy};
use crate::config::CoreConfig;
use crate::session::release_decision;
use ewb_browser::parallel::ParallelismPlan;
use ewb_browser::pipeline::{load_page, PipelineConfig, PipelineMode};
use ewb_net::replay::{events_of_load_parallel, sort_radio_events, RadioEvent};
use ewb_net::{FaultConfig, RadioFetcher, RetryPolicy};
use ewb_rrc::{LoadTape, RadioModel, RrcCounters, RrcMachine, RrcState, StateResidency};
use ewb_simcore::{SimDuration, SimTime, SplitMix64};
use ewb_webpage::{Corpus, OriginServer, PageVersion};

/// One captured page load on radio backend `R`, on a click-relative clock
/// (the click is [`SimTime::ZERO`]).
#[derive(Debug, Clone)]
pub struct LoadProfile<R: RadioModel = RrcMachine> {
    /// Radio and CPU events of the load, in canonical replay order
    /// ([`sort_radio_events`]), relative to the click.
    pub events: Vec<RadioEvent>,
    /// The events compiled from the key's click state: what replaying
    /// them leaves in the machine, played in one step at each click.
    pub tape: LoadTape<R>,
    /// Click → final display (the page-load duration).
    pub opened: SimDuration,
    /// Click → end of the data-transmission phase.
    pub tx_end: SimDuration,
    /// Bytes fetched by the load.
    pub bytes: u64,
}

impl<R: RadioModel> LoadProfile<R> {
    /// Page-load duration in seconds.
    pub fn load_time_s(&self) -> f64 {
        self.opened.as_secs_f64()
    }
}

/// Both pipeline schedules, in index order.
const MODES: [PipelineMode; 2] = [PipelineMode::Original, PipelineMode::EnergyAware];

fn mode_index(mode: PipelineMode) -> usize {
    match mode {
        PipelineMode::Original => 0,
        PipelineMode::EnergyAware => 1,
    }
}

/// A population-scale link-quality tier: a named [`FaultConfig`] preset
/// whose faulted page loads can be memoized next to the clean ones.
///
/// The tier (not the session) owns the fault randomness: every capture of
/// a (page, mode, click-state, plan) key under a tier uses the fixed
/// [`capture_seed_planned`](FaultTier::capture_seed_planned) of that key,
/// so the faulted load stays a pure function of the profile key and the
/// memoization argument of this module carries over unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTier {
    /// Clean link — the original PR 6 profile set.
    Clean,
    /// 2 % object-loss rate ([`FaultConfig::lossy`]): a healthy deployed
    /// population.
    Lossy2,
    /// 10 % object-loss rate: a congested cell.
    Lossy10,
    /// 10 % delivery-jitter rate ([`FaultConfig::jittery`]): variable
    /// link quality without outright loss.
    Jittery10,
}

impl FaultTier {
    /// Every tier, in stable [`index`](FaultTier::index) order.
    pub const ALL: [FaultTier; 4] = [
        FaultTier::Clean,
        FaultTier::Lossy2,
        FaultTier::Lossy10,
        FaultTier::Jittery10,
    ];

    /// The tier's fault model.
    pub fn fault_config(self) -> FaultConfig {
        match self {
            FaultTier::Clean => FaultConfig::none(),
            FaultTier::Lossy2 => FaultConfig::lossy(0.02),
            FaultTier::Lossy10 => FaultConfig::lossy(0.10),
            FaultTier::Jittery10 => FaultConfig::jittery(0.10),
        }
    }

    /// Human-readable tier name (report and EXPERIMENTS labels).
    pub fn name(self) -> &'static str {
        match self {
            FaultTier::Clean => "clean",
            FaultTier::Lossy2 => "lossy-2%",
            FaultTier::Lossy10 => "lossy-10%",
            FaultTier::Jittery10 => "jittery-10%",
        }
    }

    /// Stable numeric id — what capture seeds mix in and fleet
    /// checkpoints persist.
    pub fn index(self) -> u8 {
        match self {
            FaultTier::Clean => 0,
            FaultTier::Lossy2 => 1,
            FaultTier::Lossy10 => 2,
            FaultTier::Jittery10 => 3,
        }
    }

    /// The fixed fault-stream seed of one 3G capture key: page, pipeline
    /// mode, click state, and the [`ParallelismPlan`] the load runs under.
    /// The plan is part of the key, so it must be part of the seed too —
    /// otherwise two plans' captures of the same (page, mode, state, tier)
    /// would share one fault stream while consuming it on different
    /// schedules. Deterministic and collision-free across keys by
    /// construction (the key fields occupy disjoint bit ranges before
    /// mixing).
    ///
    /// # Panics
    ///
    /// Panics if `state` is not a click state (`Promoting`).
    pub fn capture_seed_planned(
        self,
        page_idx: usize,
        mode: PipelineMode,
        state: RrcState,
        plan: ParallelismPlan,
    ) -> u64 {
        self.key_seed(page_idx, mode, state.click_state_index(), plan)
    }

    /// [`capture_seed_planned`](FaultTier::capture_seed_planned) with the
    /// click state given by its index, which is what a capture on any
    /// radio backend knows.
    fn key_seed(
        self,
        page_idx: usize,
        mode: PipelineMode,
        click_state: usize,
        plan: ParallelismPlan,
    ) -> u64 {
        let key = ((page_idx as u64) << 16)
            | ((mode_index(mode) as u64) << 8)
            | ((click_state as u64) << 4)
            | u64::from(self.index());
        let base = SplitMix64::mix(0x3EBF_9A7C_51D0_246E ^ key);
        if plan.is_sequential() {
            base
        } else {
            SplitMix64::mix(base ^ plan.key().wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
    }
}

impl std::fmt::Display for FaultTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every load profile of a corpus on radio backend `R`: one per
/// (page, pipeline mode, click state, fault tier, parallelism plan).
///
/// Pages are indexed in the [`VisitSynthesizer`](ewb_traces) base order —
/// Table 3 site order, mobile before full within a site — so a
/// synthesizer's base index is directly a `ProfileTable` page index.
#[derive(Debug, Clone)]
pub struct ProfileTable<R: RadioModel = RrcMachine> {
    profiles: Vec<LoadProfile<R>>,
    n_pages: usize,
    tiers: Vec<FaultTier>,
    plans: Vec<ParallelismPlan>,
    radio_cfg: R::Config,
}

impl ProfileTable {
    /// Captures the 3G table as `cfg.rrc` configures the radio, across
    /// `tiers`, under the sequential plan. See
    /// [`capture`](ProfileTable::capture).
    ///
    /// # Panics
    ///
    /// Panics as [`capture`](ProfileTable::capture) does.
    pub fn capture_tiered(
        corpus: &Corpus,
        server: &OriginServer,
        cfg: &CoreConfig,
        tiers: &[FaultTier],
    ) -> Self {
        Self::capture(
            corpus,
            server,
            cfg,
            cfg.rrc,
            tiers,
            &[ParallelismPlan::SEQUENTIAL],
        )
    }
}

impl<R: RadioModel> ProfileTable<R> {
    /// Runs the full browser pipeline over every
    /// (page, mode, click-state, tier, plan) combination on the radio
    /// `radio_cfg` configures, and captures the resulting load profiles.
    ///
    /// Every tier runs the load under its [`FaultConfig`] with the key's
    /// fixed capture seed (on 3G, [`FaultTier::capture_seed_planned`]) and
    /// the standard retry policy; the clean tier's none stream draws
    /// nothing. Faulted tiers may fail objects (degraded pages are what a
    /// lossy tier *means*) but the first transfer must still begin at the
    /// click — the memoization precondition faults do not get to break.
    /// The plan changes a load's CPU schedule (and therefore its radio
    /// events, helper-core power steps, and open time), so it **must** be
    /// part of the key: a table captured under one plan served for another
    /// would replay the wrong profile.
    ///
    /// # Panics
    ///
    /// Panics if a configuration or plan is invalid; if `tiers` lacks
    /// [`FaultTier::Clean`] or `plans` lacks
    /// [`ParallelismPlan::SEQUENTIAL`] (the key a default
    /// [`ProfiledSessionOpts`] replays), or either repeats an entry; or if
    /// a captured load violates a memoization precondition (an event
    /// before the click, or a first transfer that is not at the click
    /// instant) — either would indicate the purity argument above no
    /// longer holds.
    pub fn capture(
        corpus: &Corpus,
        server: &OriginServer,
        cfg: &CoreConfig,
        radio_cfg: R::Config,
        tiers: &[FaultTier],
        plans: &[ParallelismPlan],
    ) -> Self {
        assert!(
            plans.contains(&ParallelismPlan::SEQUENTIAL),
            "a profile table must include the sequential plan (got {plans:?})"
        );
        for (i, plan) in plans.iter().enumerate() {
            if let Err(e) = plan.validate() {
                panic!("invalid ParallelismPlan {plan}: {e}");
            }
            assert!(
                !plans[..i].contains(plan),
                "duplicate parallelism plan {plan} in {plans:?}"
            );
        }
        if let Err(e) = cfg.validate() {
            panic!("invalid CoreConfig: {e}");
        }
        if let Err(e) = R::validate_config(&radio_cfg) {
            panic!("invalid {} radio config: {e}", R::BACKEND);
        }
        assert!(
            tiers.contains(&FaultTier::Clean),
            "a profile table must include the clean tier (got {tiers:?})"
        );
        for (i, tier) in tiers.iter().enumerate() {
            assert!(
                !tiers[..i].contains(tier),
                "duplicate fault tier {tier} in {tiers:?}"
            );
        }
        let states = R::click_state_count();
        let mut profiles = Vec::with_capacity(
            corpus.sites().len() * 2 * MODES.len() * states * tiers.len() * plans.len(),
        );
        for (site_idx, site) in corpus.sites().iter().enumerate() {
            for version in [PageVersion::Mobile, PageVersion::Full] {
                let page = match version {
                    PageVersion::Mobile => &site.mobile,
                    PageVersion::Full => &site.full,
                };
                let page_idx = site_idx * 2 + usize::from(version == PageVersion::Full);
                for mode in MODES {
                    let mut pipe_cfg = PipelineConfig::new(mode);
                    if version == PageVersion::Mobile {
                        // §4.2: mobile pages get no intermediate display.
                        pipe_cfg.draw_intermediate = false;
                    }
                    for click_state in 0..states {
                        for &tier in tiers {
                            for &plan in plans {
                                let (machine, t0) = R::in_click_state(radio_cfg, click_state);
                                let mut fetcher =
                                    RadioFetcher::with_machine(cfg.net, machine, server)
                                        .try_with_faults(
                                            tier.fault_config(),
                                            tier.key_seed(page_idx, mode, click_state, plan),
                                            RetryPolicy::standard(),
                                        )
                                        .unwrap_or_else(|e| {
                                            panic!("fault tier {tier} has an invalid config: {e}")
                                        });
                                pipe_cfg.plan = plan;
                                let metrics = load_page(
                                    &mut fetcher,
                                    page.root_url(),
                                    t0,
                                    &pipe_cfg,
                                    &cfg.cost,
                                );
                                let mut events = events_of_load_parallel(
                                    fetcher.transfers(),
                                    &metrics.cpu_busy,
                                    &metrics.aux_busy,
                                );
                                sort_radio_events(&mut events);
                                let events: Vec<RadioEvent> = events
                                    .iter()
                                    .map(|e| {
                                        assert!(
                                            e.at() >= t0,
                                            "captured event before the click: {e:?} (click {t0:?})"
                                        );
                                        shift_back(e, t0)
                                    })
                                    .collect();
                                let first_begin = events
                                    .iter()
                                    .find(|e| matches!(e, RadioEvent::BeginTransfer { .. }))
                                    .expect("a page load has at least one transfer");
                                assert!(
                                    matches!(
                                        first_begin,
                                        RadioEvent::BeginTransfer {
                                            at: SimTime::ZERO,
                                            ..
                                        }
                                    ),
                                    "the first transfer must begin at the click \
                                     (it is what makes click-state a sufficient memoization \
                                     key), got {first_begin:?} ({} {}, tier {tier}, plan {plan})",
                                    R::BACKEND,
                                    R::click_state_name(click_state)
                                );
                                if tier == FaultTier::Clean {
                                    assert!(
                                        matches!(
                                            first_begin,
                                            RadioEvent::BeginTransfer {
                                                promotion_retries: 0,
                                                ..
                                            }
                                        ),
                                        "a clean-link first transfer cannot retry its \
                                         promotion, got {first_begin:?}"
                                    );
                                    assert_eq!(
                                        metrics.failed_objects, 0,
                                        "clean-tier profiles must fetch every object"
                                    );
                                }
                                let tape =
                                    LoadTape::compile(radio_cfg, click_state, |m, offset| {
                                        for e in &events {
                                            e.apply(m, offset);
                                        }
                                    });
                                profiles.push(LoadProfile {
                                    events,
                                    tape,
                                    opened: metrics.final_display_at - t0,
                                    tx_end: metrics.data_transmission_end - t0,
                                    bytes: metrics.bytes_fetched,
                                });
                            }
                        }
                    }
                }
            }
        }
        ProfileTable {
            profiles,
            n_pages: corpus.sites().len() * 2,
            tiers: tiers.to_vec(),
            plans: plans.to_vec(),
            radio_cfg,
        }
    }

    /// The radio configuration the table was captured under. Its timers
    /// and powers are baked into every tape, so a session replays the
    /// table only under this configuration.
    pub fn radio_config(&self) -> &R::Config {
        &self.radio_cfg
    }

    /// Number of pages covered (2 per site).
    pub fn n_pages(&self) -> usize {
        self.n_pages
    }

    /// The fault tiers this table captured, in capture order.
    pub fn tiers(&self) -> &[FaultTier] {
        &self.tiers
    }

    /// Whether `tier` was captured into this table.
    pub fn has_tier(&self, tier: FaultTier) -> bool {
        self.tiers.contains(&tier)
    }

    /// The parallelism plans this table captured, in capture order.
    pub fn plans(&self) -> &[ParallelismPlan] {
        &self.plans
    }

    /// The profile of `page_idx` under `mode`, link-quality `tier`, and
    /// intra-page [`ParallelismPlan`] `plan` when the click finds the
    /// radio in click state `click_state` (an index in
    /// [`RadioModel::click_state_index`] order) — the full
    /// five-dimensional profile key.
    ///
    /// # Panics
    ///
    /// Panics if `page_idx` or `click_state` is out of range, or
    /// `tier`/`plan` was not captured into this table.
    pub fn profile_planned(
        &self,
        page_idx: usize,
        mode: PipelineMode,
        click_state: usize,
        tier: FaultTier,
        plan: ParallelismPlan,
    ) -> &LoadProfile<R> {
        assert!(
            page_idx < self.n_pages,
            "page index {page_idx} out of range ({} pages)",
            self.n_pages
        );
        let states = R::click_state_count();
        assert!(
            click_state < states,
            "click-state index {click_state} out of range ({} has {states})",
            R::BACKEND
        );
        let tier_slot = self
            .tiers
            .iter()
            .position(|&t| t == tier)
            .unwrap_or_else(|| {
                panic!(
                    "fault tier {tier} was not captured (table has {:?})",
                    self.tiers
                )
            });
        let plan_slot = self
            .plans
            .iter()
            .position(|&p| p == plan)
            .unwrap_or_else(|| {
                panic!(
                    "parallelism plan {plan} was not captured (table has {:?})",
                    self.plans
                )
            });
        let key = (page_idx * MODES.len() + mode_index(mode)) * states + click_state;
        &self.profiles[(key * self.tiers.len() + tier_slot) * self.plans.len() + plan_slot]
    }
}

/// Rebuilds `e` with its time shifted from an absolute clock (click at
/// `t0`) to the click-relative clock.
fn shift_back(e: &RadioEvent, t0: SimTime) -> RadioEvent {
    let rel = |at: SimTime| SimTime::ZERO + (at - t0);
    match *e {
        RadioEvent::BeginTransfer {
            at,
            needs_dch,
            promotion_retries,
        } => RadioEvent::BeginTransfer {
            at: rel(at),
            needs_dch,
            promotion_retries,
        },
        RadioEvent::EndTransfer { at } => RadioEvent::EndTransfer { at: rel(at) },
        RadioEvent::Release { at } => RadioEvent::Release { at: rel(at) },
        RadioEvent::CpuLoad { at, load } => RadioEvent::CpuLoad { at: rel(at), load },
    }
}

/// One visit of a profiled session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfiledVisit {
    /// Page index in [`ProfileTable`] order (synthesizer base order).
    pub page_idx: usize,
    /// Actual reading time after the page opens, seconds.
    pub reading_s: f64,
    /// Predicted reading time for this visit, when a session reads one:
    /// the visit is engaged (`reading_s > alpha_s`), its policy is a
    /// predicted one, and no predictor outage has begun. The fleet
    /// predicts exactly those visits in one feature batch
    /// ([`predict_rows`](ewb_traces::ReadingTimePredictor::predict_rows))
    /// and leaves the others `None`.
    pub predicted_s: Option<f64>,
}

/// What [`run_profiled_session_with`] reports for one visit, through the
/// `on_visit` callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfiledVisitOutcome {
    /// Page index of the visit.
    pub page_idx: usize,
    /// Page-load duration (click → final display).
    pub load: SimDuration,
    /// Whether Algorithm 2 released the radio during the reading period.
    pub released: bool,
    /// The predicted reading time, when the policy consulted one.
    pub predicted_s: Option<f64>,
    /// The click state the click found the radio in, as a
    /// [`RadioModel::click_state_index`] — the profile key this visit
    /// replayed (what the fault-tier equivalence oracle needs to
    /// reconstruct the capture seeds).
    pub click_state: usize,
    /// Whether a predictor outage forced this visit onto the intuitive
    /// (release-after-load) fallback policy.
    pub degraded_policy: bool,
}

/// Aggregates of one profiled session — the fields the fleet folds into
/// its population summary. Matches the corresponding
/// [`SessionOutcome`](crate::session::SessionOutcome) fields bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfiledOutcome {
    /// Total handset energy over the session, joules.
    pub total_joules: f64,
    /// Sum of page-load durations, seconds.
    pub total_load_time_s: f64,
    /// Session duration.
    pub duration: SimDuration,
    /// Radio event counters.
    pub counters: RrcCounters,
    /// Time per radio state.
    pub residency: StateResidency,
    /// Visits that ran on the intuitive fallback policy because the
    /// predictor was unavailable (always 0 without an injected outage).
    pub degraded_policy_visits: u64,
}

/// Options of [`run_profiled_session_with`]: which link-quality tier to
/// replay and whether the on-device predictor goes down mid-session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfiledSessionOpts {
    /// The fault tier whose profiles the session replays. Must have been
    /// captured into the table ([`ProfileTable::capture_tiered`]).
    pub tier: FaultTier,
    /// Predictor outage: from this visit index on, predicted-threshold
    /// policies stop consulting predictions and fall back to the paper's
    /// intuitive policy (release right after the page opens). `None`
    /// means the predictor stays up. Oracle and fixed policies are
    /// unaffected — they never consult a predictor.
    pub predictor_outage_from: Option<usize>,
    /// The intra-page [`ParallelismPlan`] whose profiles the session
    /// replays. Must have been captured into the table
    /// ([`ProfileTable::capture`]).
    pub plan: ParallelismPlan,
}

impl Default for ProfiledSessionOpts {
    fn default() -> Self {
        ProfiledSessionOpts {
            tier: FaultTier::Clean,
            predictor_outage_from: None,
            plan: ParallelismPlan::SEQUENTIAL,
        }
    }
}

/// Simulates a 3G session on one incremental radio machine, playing each
/// visit's memoized [`LoadTape`] at its click; the dwell that follows —
/// the release decision, the inactivity timers, the advance to the next
/// click — runs on the live machine. `opts` picks the fault tier and plan
/// to replay and can inject a mid-session predictor outage.
///
/// The machine keeps no history — its meter is a clock and a running
/// total — so playing a session allocates no history.
///
/// During an outage, predicted-threshold visits run the intuitive
/// release-after-load policy instead; each such visit is flagged in its
/// [`ProfiledVisitOutcome`] and counted in
/// [`ProfiledOutcome::degraded_policy_visits`].
///
/// `on_visit` fires once per visit in order — the fleet's histogram hook.
///
/// # Panics
///
/// Panics if `visits` is empty, the configuration is invalid, `cfg.rrc`
/// is not the configuration `table` was captured under, a page index is
/// out of range, a reading time is negative, the case's policy needs a
/// prediction a visit does not carry, or `opts.tier`/`opts.plan` was not
/// captured into `table`.
pub fn run_profiled_session_with(
    table: &ProfileTable,
    cfg: &CoreConfig,
    case: Case,
    opts: ProfiledSessionOpts,
    visits: &[ProfiledVisit],
    mut on_visit: impl FnMut(ProfiledVisitOutcome),
) -> ProfiledOutcome {
    assert!(!visits.is_empty(), "a session needs at least one visit");
    if let Err(e) = cfg.validate() {
        panic!("invalid CoreConfig: {e}");
    }
    assert!(
        cfg.rrc == *table.radio_config(),
        "the session's radio config {:?} is not the one the profile table was captured \
         under ({:?}): its tapes hold that config's timers and powers",
        cfg.rrc,
        table.radio_config()
    );

    let start = SimTime::ZERO;
    let mut machine = RrcMachine::new(cfg.rrc, start);
    let mut t = start;
    let mut total_load_time_s = 0.0;
    let mut degraded_policy_visits = 0u64;

    for (visit_idx, visit) in visits.iter().enumerate() {
        assert!(
            visit.reading_s.is_finite() && visit.reading_s >= 0.0,
            "reading time must be non-negative"
        );
        let click_state = machine.click_state_index();
        let profile = table.profile_planned(
            visit.page_idx,
            case.pipeline_mode(),
            click_state,
            opts.tier,
            opts.plan,
        );
        machine.play_tape(&profile.tape, t);

        let opened = t + profile.opened;
        let next_start = opened + SimDuration::from_secs_f64(visit.reading_s);
        let policy = case.release_policy();
        let outage = opts
            .predictor_outage_from
            .is_some_and(|from| visit_idx >= from);
        let degraded_policy = outage && matches!(policy, ReleasePolicy::PredictedThreshold { .. });
        let policy = if degraded_policy {
            ReleasePolicy::AfterLoad
        } else {
            policy
        };
        degraded_policy_visits += u64::from(degraded_policy);
        let (decision, predicted_s) =
            release_decision(policy, cfg.alg.alpha_s, opened, visit.reading_s, || {
                visit.predicted_s.unwrap_or_else(|| {
                    panic!("case {case} needs a predicted reading time on every engaged visit")
                })
            });
        let released_at = decision.filter(|&at| at + cfg.rrc.release_latency <= next_start);
        if let Some(at) = released_at {
            machine.release_to_idle(at);
        }
        machine.advance_to(next_start);

        total_load_time_s += profile.load_time_s();
        on_visit(ProfiledVisitOutcome {
            page_idx: visit.page_idx,
            load: profile.opened,
            released: released_at.is_some(),
            predicted_s,
            click_state,
            degraded_policy,
        });
        t = next_start;
    }

    ProfiledOutcome {
        total_joules: machine.energy_j(),
        total_load_time_s,
        duration: t - start,
        counters: machine.counters(),
        residency: machine.residency(),
        degraded_policy_visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{simulate_session, SessionOpts, Visit};
    use ewb_rrc::{LteConfig, LteMachine, RadioBackend, WifiConfig, WifiMachine};
    use ewb_webpage::benchmark_corpus;

    /// The 3G click states, in [`RadioModel::click_state_index`] order.
    const THREE_G_CLICK_STATES: [RrcState; 3] = [RrcState::Idle, RrcState::Fach, RrcState::Dch];

    fn setup() -> (Corpus, OriginServer, CoreConfig) {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        (corpus, server, CoreConfig::paper())
    }

    /// The 3G table of the clean, sequential loads.
    fn capture_clean(corpus: &Corpus, server: &OriginServer, cfg: &CoreConfig) -> ProfileTable {
        ProfileTable::capture_tiered(corpus, server, cfg, &[FaultTier::Clean])
    }

    /// The clean, sequential profile of one (page, mode, click-state) key.
    fn clean<R: RadioModel>(
        table: &ProfileTable<R>,
        page_idx: usize,
        mode: PipelineMode,
        click_state: usize,
    ) -> &LoadProfile<R> {
        table.profile_planned(
            page_idx,
            mode,
            click_state,
            FaultTier::Clean,
            ParallelismPlan::SEQUENTIAL,
        )
    }

    /// `(site_idx, version)` → the shared page index convention.
    fn page_idx(corpus: &Corpus, key: &str, version: PageVersion) -> usize {
        let site = corpus
            .sites()
            .iter()
            .position(|s| s.key == key)
            .expect("known site");
        site * 2 + usize::from(version == PageVersion::Full)
    }

    #[test]
    fn capture_covers_every_page_mode_and_state() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        assert_eq!(table.n_pages(), 20);
        // A cold (IDLE) click pays the promotion a warm (DCH) click skips.
        let idx = page_idx(&corpus, "espn", PageVersion::Full);
        let cold = clean(&table, idx, PipelineMode::Original, 0); // IDLE
        let warm = clean(&table, idx, PipelineMode::Original, 2); // DCH
        assert!(
            cold.opened > warm.opened,
            "cold load {:?} must exceed warm load {:?}",
            cold.opened,
            warm.opened
        );
        // Every profile starts with its transfer at the click.
        for p in &table.profiles {
            assert_eq!(p.events.first().map(RadioEvent::at), Some(SimTime::ZERO));
            assert!(p.tx_end <= p.opened);
        }
    }

    /// The tentpole's correctness anchor: a profiled session is
    /// bit-identical to the full browser-pipeline session, across
    /// policies and across every radio state the visits drag the machine
    /// through (DCH→FACH→IDLE between clicks).
    #[test]
    fn profiled_sessions_match_full_sessions_to_the_bit() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        // Reading times chosen to land the next click in DCH (2 s),
        // FACH (6 s), and IDLE (30 s > T1+T2), plus threshold-straddling
        // values (5/12/25 s around Tp=9 and Td=20).
        let plan = [
            ("espn", PageVersion::Full, 2.0),
            ("cnn", PageVersion::Mobile, 6.0),
            ("bbc", PageVersion::Mobile, 30.0),
            ("msn", PageVersion::Mobile, 12.0),
            ("aol", PageVersion::Mobile, 5.0),
            ("ebay", PageVersion::Full, 25.0),
        ];
        let visits: Vec<Visit<'_>> = plan
            .iter()
            .map(|&(key, version, reading_s)| Visit {
                page: corpus.page(key, version).unwrap(),
                reading_s,
                features: None,
            })
            .collect();
        let profiled: Vec<ProfiledVisit> = plan
            .iter()
            .map(|&(key, version, reading_s)| ProfiledVisit {
                page_idx: page_idx(&corpus, key, version),
                reading_s,
                predicted_s: None,
            })
            .collect();

        for case in [
            Case::Original,
            Case::OriginalAlwaysOff,
            Case::Accurate9,
            Case::Accurate20,
        ] {
            let full = simulate_session(&server, &visits, case, &cfg, SessionOpts::three_g(&cfg));
            let mut loads = Vec::new();
            let fast = run_profiled_session_with(
                &table,
                &cfg,
                case,
                ProfiledSessionOpts::default(),
                &profiled,
                |v| {
                    loads.push(v.load);
                },
            );
            assert_eq!(
                fast.total_joules.to_bits(),
                full.total_joules.to_bits(),
                "case {case}: energy must match to the last bit"
            );
            assert_eq!(
                fast.total_load_time_s.to_bits(),
                full.total_load_time_s.to_bits(),
                "case {case}: load time must match to the last bit"
            );
            assert_eq!(fast.counters, full.counters, "case {case}");
            assert_eq!(fast.residency, full.radio.residency(), "case {case}");
            assert_eq!(fast.duration, full.duration, "case {case}");
            for (got, want) in loads.iter().zip(&full.pages) {
                assert_eq!(got.as_secs_f64().to_bits(), want.load_time_s().to_bits());
            }
        }
    }

    /// Tapes bake in the capture config's timers, latencies and powers, so
    /// the bit-identity holds under any 3G config the table is captured
    /// with — here shorter timers (T1 = 2 s, T2 = 8 s) and a slower
    /// release, with clicks landing in all three click states.
    #[test]
    fn profiled_sessions_match_full_sessions_under_a_non_paper_radio() {
        let (corpus, server, mut cfg) = setup();
        cfg.rrc.t1 = SimDuration::from_secs(2);
        cfg.rrc.t2 = SimDuration::from_secs(8);
        cfg.rrc.release_latency = SimDuration::from_millis(350);
        let table = capture_clean(&corpus, &server, &cfg);
        assert_eq!(*table.radio_config(), cfg.rrc);
        let plan = [
            ("espn", PageVersion::Full, 1.0),
            ("cnn", PageVersion::Mobile, 5.0),
            ("bbc", PageVersion::Mobile, 30.0),
            ("msn", PageVersion::Mobile, 12.0),
            ("aol", PageVersion::Mobile, 0.2),
            ("ebay", PageVersion::Full, 9.5),
            ("cnn", PageVersion::Full, 3.0),
        ];
        let visits: Vec<Visit<'_>> = plan
            .iter()
            .map(|&(key, version, reading_s)| Visit {
                page: corpus.page(key, version).unwrap(),
                reading_s,
                features: None,
            })
            .collect();
        let profiled: Vec<ProfiledVisit> = plan
            .iter()
            .map(|&(key, version, reading_s)| ProfiledVisit {
                page_idx: page_idx(&corpus, key, version),
                reading_s,
                predicted_s: None,
            })
            .collect();

        let mut click_states = std::collections::BTreeSet::new();
        for case in [
            Case::Original,
            Case::OriginalAlwaysOff,
            Case::Accurate9,
            Case::Accurate20,
        ] {
            let full = simulate_session(&server, &visits, case, &cfg, SessionOpts::three_g(&cfg));
            let mut loads = Vec::new();
            let fast = run_profiled_session_with(
                &table,
                &cfg,
                case,
                ProfiledSessionOpts::default(),
                &profiled,
                |v| {
                    loads.push(v.load);
                    click_states.insert(v.click_state);
                },
            );
            assert_eq!(
                fast.total_joules.to_bits(),
                full.total_joules.to_bits(),
                "case {case}: energy must match to the last bit"
            );
            assert_eq!(
                fast.total_load_time_s.to_bits(),
                full.total_load_time_s.to_bits(),
                "case {case}"
            );
            assert_eq!(fast.counters, full.counters, "case {case}");
            assert_eq!(fast.residency, full.radio.residency(), "case {case}");
            assert_eq!(fast.duration, full.duration, "case {case}");
            for (got, want) in loads.iter().zip(&full.pages) {
                assert_eq!(got.as_secs_f64().to_bits(), want.load_time_s().to_bits());
            }
        }
        assert_eq!(
            click_states.len(),
            THREE_G_CLICK_STATES.len(),
            "the visits must click in IDLE, FACH and DCH"
        );
    }

    /// A table replays only under the radio config it was captured with:
    /// its tapes hold that config's deadlines and powers.
    #[test]
    #[should_panic(expected = "not the one the profile table was captured under")]
    fn replay_under_another_radio_config_panics() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        let mut other = cfg.clone();
        other.rrc.t1 = SimDuration::from_secs(2);
        let visits = [ProfiledVisit {
            page_idx: 0,
            reading_s: 10.0,
            predicted_s: None,
        }];
        run_profiled_session_with(
            &table,
            &other,
            Case::Original,
            ProfiledSessionOpts::default(),
            &visits,
            |_| {},
        );
    }

    /// Predicted policies: the profiled path consumes batch predictions
    /// and lands on the same releases and energy as the full path fed the
    /// same feature overrides.
    #[test]
    fn profiled_predicted_sessions_match_full_sessions() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        let trace = ewb_traces::TraceDataset::generate(&ewb_traces::TraceConfig::small());
        let predictor = ewb_traces::ReadingTimePredictor::train_with_interest_threshold(
            &trace,
            2.0,
            &ewb_traces::reading_time_params(),
        );
        let synth = ewb_traces::VisitSynthesizer::from_corpus(&corpus);
        let mut rng = ewb_simcore::Xoshiro256::seed_from_u64(7);
        let plan: Vec<(usize, ewb_traces::FeatureVector, f64)> = (0..8)
            .map(|i| {
                let draw = synth.draw(&mut rng);
                (
                    draw.base(),
                    synth.features(&draw),
                    [1.0, 4.0, 11.0, 30.0][i % 4],
                )
            })
            .collect();
        let visits: Vec<Visit<'_>> = plan
            .iter()
            .map(|&(idx, f, reading_s)| {
                let (key, version) = synth.base(idx);
                Visit {
                    page: corpus.page(key, version).unwrap(),
                    reading_s,
                    features: Some(f),
                }
            })
            .collect();
        let profiled: Vec<ProfiledVisit> = plan
            .iter()
            .map(|&(idx, f, reading_s)| ProfiledVisit {
                page_idx: idx,
                reading_s,
                predicted_s: Some(predictor.predict_seconds(&f)),
            })
            .collect();

        for case in [Case::Predict9, Case::Predict20] {
            let full = simulate_session(
                &server,
                &visits,
                case,
                &cfg,
                SessionOpts {
                    predictor: Some(&predictor),
                    ..SessionOpts::three_g(&cfg)
                },
            );
            let mut released = 0u32;
            let fast = run_profiled_session_with(
                &table,
                &cfg,
                case,
                ProfiledSessionOpts::default(),
                &profiled,
                |v| {
                    released += u32::from(v.released);
                },
            );
            assert_eq!(
                fast.total_joules.to_bits(),
                full.total_joules.to_bits(),
                "case {case}"
            );
            assert_eq!(fast.counters, full.counters, "case {case}");
            assert_eq!(
                u64::from(released),
                full.counters.fast_dormancy_releases,
                "case {case}"
            );
        }
    }

    /// A 3G profile key names IDLE, FACH or DCH: a click never finds the
    /// radio mid-promotion, so a Promoting key is a caller bug.
    #[test]
    #[should_panic(expected = "Promoting")]
    fn promoting_is_not_a_click_state() {
        FaultTier::Lossy10.capture_seed_planned(
            0,
            PipelineMode::Original,
            RrcState::Promoting,
            ParallelismPlan::SEQUENTIAL,
        );
    }

    #[test]
    #[should_panic(expected = "needs a predicted reading time")]
    fn predicted_case_without_predictions_panics() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        let visits = [ProfiledVisit {
            page_idx: 0,
            reading_s: 10.0,
            predicted_s: None,
        }];
        run_profiled_session_with(
            &table,
            &cfg,
            Case::Predict9,
            ProfiledSessionOpts::default(),
            &visits,
            |_| {},
        );
    }

    /// The fault-tier extension of the bit-identity anchor: replaying a
    /// faulted tier's profiles matches a full browser-pipeline session
    /// whose per-visit fetchers are driven with the same per-key capture
    /// seeds ([`SessionOpts::visit_seeds`]).
    #[test]
    fn tiered_profiled_sessions_match_full_faulted_sessions_to_the_bit() {
        use crate::session::SessionFaults;
        let (corpus, server, cfg) = setup();
        let tiers = [FaultTier::Clean, FaultTier::Lossy10, FaultTier::Jittery10];
        let table = ProfileTable::capture_tiered(&corpus, &server, &cfg, &tiers);
        let plan = [
            ("espn", PageVersion::Full, 2.0),
            ("cnn", PageVersion::Mobile, 6.0),
            ("bbc", PageVersion::Mobile, 30.0),
            ("msn", PageVersion::Mobile, 12.0),
            ("aol", PageVersion::Mobile, 5.0),
            ("ebay", PageVersion::Full, 25.0),
        ];
        let visits: Vec<Visit<'_>> = plan
            .iter()
            .map(|&(key, version, reading_s)| Visit {
                page: corpus.page(key, version).unwrap(),
                reading_s,
                features: None,
            })
            .collect();
        let profiled: Vec<ProfiledVisit> = plan
            .iter()
            .map(|&(key, version, reading_s)| ProfiledVisit {
                page_idx: page_idx(&corpus, key, version),
                reading_s,
                predicted_s: None,
            })
            .collect();

        for tier in [FaultTier::Lossy10, FaultTier::Jittery10] {
            for case in [Case::Original, Case::Accurate9] {
                let opts = ProfiledSessionOpts {
                    tier,
                    ..ProfiledSessionOpts::default()
                };
                let mut click_states = Vec::new();
                let fast = run_profiled_session_with(&table, &cfg, case, opts, &profiled, |v| {
                    click_states.push(v.click_state);
                });
                // The oracle drives each visit's fetcher with the fixed
                // seed of the (page, mode, click-state, tier) key the
                // profiled path replayed.
                let seeds: Vec<u64> = profiled
                    .iter()
                    .zip(&click_states)
                    .map(|(v, &state)| {
                        tier.capture_seed_planned(
                            v.page_idx,
                            case.pipeline_mode(),
                            THREE_G_CLICK_STATES[state],
                            ParallelismPlan::SEQUENTIAL,
                        )
                    })
                    .collect();
                let sf = SessionFaults::new(tier.fault_config(), 0);
                let full = simulate_session(
                    &server,
                    &visits,
                    case,
                    &cfg,
                    SessionOpts {
                        faults: Some(&sf),
                        visit_seeds: Some(&seeds),
                        ..SessionOpts::three_g(&cfg)
                    },
                );
                assert_eq!(
                    fast.total_joules.to_bits(),
                    full.total_joules.to_bits(),
                    "tier {tier}, case {case}: energy must match to the last bit"
                );
                assert_eq!(
                    fast.total_load_time_s.to_bits(),
                    full.total_load_time_s.to_bits(),
                    "tier {tier}, case {case}: load time must match to the last bit"
                );
                assert_eq!(fast.counters, full.counters, "tier {tier}, case {case}");
                assert_eq!(
                    fast.residency,
                    full.radio.residency(),
                    "tier {tier}, case {case}"
                );
                assert_eq!(fast.duration, full.duration, "tier {tier}, case {case}");
            }
        }
    }

    /// A tiered table serves the clean tier unchanged, and a lossy tier
    /// actually changes some loads (otherwise the tier dimension would be
    /// dead weight).
    #[test]
    fn tiered_capture_keeps_the_clean_tier_and_perturbs_the_lossy_one() {
        let (corpus, server, cfg) = setup();
        let clean_only = capture_clean(&corpus, &server, &cfg);
        let tiered = ProfileTable::capture_tiered(
            &corpus,
            &server,
            &cfg,
            &[FaultTier::Clean, FaultTier::Lossy10],
        );
        assert_eq!(tiered.tiers(), &[FaultTier::Clean, FaultTier::Lossy10]);
        assert!(tiered.has_tier(FaultTier::Lossy10));
        assert!(!tiered.has_tier(FaultTier::Jittery10));

        let mut lossy_differs = false;
        for page_idx in 0..tiered.n_pages() {
            for mode in MODES {
                for state in 0..THREE_G_CLICK_STATES.len() {
                    let a = clean(&clean_only, page_idx, mode, state);
                    let b = clean(&tiered, page_idx, mode, state);
                    assert_eq!(a.events, b.events, "clean capture must be tier-independent");
                    assert_eq!(a.opened, b.opened);
                    let lossy = tiered.profile_planned(
                        page_idx,
                        mode,
                        state,
                        FaultTier::Lossy10,
                        ParallelismPlan::SEQUENTIAL,
                    );
                    lossy_differs |= lossy.events != a.events || lossy.opened != a.opened;
                }
            }
        }
        assert!(
            lossy_differs,
            "a 10% loss tier must change at least one of the 120 loads"
        );
    }

    /// Predictor outage: from the outage visit on, a Predict-N session is
    /// bit-identical to the always-off (intuitive policy) case, and the
    /// degraded visits are counted.
    #[test]
    fn predictor_outage_falls_back_to_the_intuitive_policy() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        let plan = [
            ("espn", PageVersion::Full, 2.0, 15.0),
            ("cnn", PageVersion::Mobile, 12.0, 3.0),
            ("bbc", PageVersion::Mobile, 30.0, 25.0),
            ("msn", PageVersion::Mobile, 6.0, 11.0),
            ("aol", PageVersion::Mobile, 25.0, 14.0),
        ];
        let profiled: Vec<ProfiledVisit> = plan
            .iter()
            .map(|&(key, version, reading_s, predicted_s)| ProfiledVisit {
                page_idx: page_idx(&corpus, key, version),
                reading_s,
                predicted_s: Some(predicted_s),
            })
            .collect();

        // Outage from visit 0 ≡ the intuitive policy for the whole
        // session (same EnergyAware pipeline, release after every load).
        let opts = ProfiledSessionOpts {
            predictor_outage_from: Some(0),
            ..ProfiledSessionOpts::default()
        };
        let degraded =
            run_profiled_session_with(&table, &cfg, Case::Predict9, opts, &profiled, |v| {
                assert!(v.degraded_policy);
                assert_eq!(
                    v.predicted_s, None,
                    "an outage visit consults no prediction"
                );
            });
        let intuitive = run_profiled_session_with(
            &table,
            &cfg,
            Case::EnergyAwareAlwaysOff,
            ProfiledSessionOpts::default(),
            &profiled,
            |v| {
                assert!(!v.degraded_policy, "no outage, no degraded visits");
            },
        );
        assert_eq!(
            degraded.total_joules.to_bits(),
            intuitive.total_joules.to_bits(),
            "full outage must equal the intuitive policy to the last bit"
        );
        assert_eq!(degraded.counters, intuitive.counters);
        assert_eq!(degraded.degraded_policy_visits, plan.len() as u64);
        assert_eq!(intuitive.degraded_policy_visits, 0);

        // Partial outage: only the tail degrades.
        let opts = ProfiledSessionOpts {
            predictor_outage_from: Some(3),
            ..ProfiledSessionOpts::default()
        };
        let mut flags = Vec::new();
        let partial =
            run_profiled_session_with(&table, &cfg, Case::Predict9, opts, &profiled, |v| {
                flags.push(v.degraded_policy);
            });
        assert_eq!(flags, [false, false, false, true, true]);
        assert_eq!(partial.degraded_policy_visits, 2);
    }

    /// The click-state index is bounded by the backend's own count (3G
    /// has three), not by the table's storage.
    #[test]
    #[should_panic(expected = "click-state index 3 out of range")]
    fn out_of_range_click_state_panics() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        clean(&table, 0, PipelineMode::Original, 3);
    }

    #[test]
    #[should_panic(expected = "was not captured")]
    fn uncaptured_tier_panics() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        table.profile_planned(
            0,
            PipelineMode::Original,
            0,
            FaultTier::Lossy2,
            ParallelismPlan::SEQUENTIAL,
        );
    }

    /// Regression for the plan-capture-key fix: the [`ParallelismPlan`]
    /// is a profile-key dimension. A planned table must (a) serve the
    /// sequential profiles bit-identically to a plain capture, (b) serve
    /// *different* profiles for a parallel plan (the schedule changes
    /// open times and CPU events — a table that ignored the plan would
    /// replay the wrong load), and (c) replay a planned session
    /// bit-identically to the full parallel-pipeline session.
    #[test]
    fn plan_is_part_of_the_profile_key() {
        let (corpus, server, cfg) = setup();
        let par = ParallelismPlan::new(4, 4, true);
        let plain = capture_clean(&corpus, &server, &cfg);
        let planned = ProfileTable::<RrcMachine>::capture(
            &corpus,
            &server,
            &cfg,
            cfg.rrc,
            &[FaultTier::Clean],
            &[ParallelismPlan::SEQUENTIAL, par],
        );
        assert_eq!(planned.plans(), &[ParallelismPlan::SEQUENTIAL, par]);

        let mut parallel_differs = false;
        for page_idx in 0..planned.n_pages() {
            for mode in MODES {
                for state in 0..THREE_G_CLICK_STATES.len() {
                    let a = clean(&plain, page_idx, mode, state);
                    let b = clean(&planned, page_idx, mode, state);
                    assert_eq!(
                        a.events, b.events,
                        "sequential capture must be plan-independent"
                    );
                    assert_eq!(a.opened, b.opened);
                    let p = planned.profile_planned(page_idx, mode, state, FaultTier::Clean, par);
                    parallel_differs |= p.events != a.events || p.opened != a.opened;
                    assert_eq!(p.bytes, a.bytes, "a plan never changes what is fetched");
                }
            }
        }
        assert!(
            parallel_differs,
            "a 4-thread plan must change at least one of the 120 loads"
        );

        // (c) planned replay ≡ full planned session, to the bit.
        let plan = [
            ("espn", PageVersion::Full, 2.0),
            ("cnn", PageVersion::Mobile, 6.0),
            ("bbc", PageVersion::Mobile, 30.0),
            ("ebay", PageVersion::Full, 12.0),
        ];
        let visits: Vec<Visit<'_>> = plan
            .iter()
            .map(|&(key, version, reading_s)| Visit {
                page: corpus.page(key, version).unwrap(),
                reading_s,
                features: None,
            })
            .collect();
        let profiled: Vec<ProfiledVisit> = plan
            .iter()
            .map(|&(key, version, reading_s)| ProfiledVisit {
                page_idx: page_idx(&corpus, key, version),
                reading_s,
                predicted_s: None,
            })
            .collect();
        for case in [Case::Original, Case::Accurate9] {
            let opts = ProfiledSessionOpts {
                plan: par,
                ..ProfiledSessionOpts::default()
            };
            let fast = run_profiled_session_with(&planned, &cfg, case, opts, &profiled, |_| {});
            let full = simulate_session(
                &server,
                &visits,
                case,
                &cfg,
                SessionOpts {
                    plan: par,
                    ..SessionOpts::three_g(&cfg)
                },
            );
            assert_eq!(
                fast.total_joules.to_bits(),
                full.total_joules.to_bits(),
                "case {case}: planned replay must match the full session to the last bit"
            );
            assert_eq!(fast.counters, full.counters, "case {case}");
            assert_eq!(fast.duration, full.duration, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "was not captured")]
    fn uncaptured_plan_panics() {
        let (corpus, server, cfg) = setup();
        let table = capture_clean(&corpus, &server, &cfg);
        table.profile_planned(
            0,
            PipelineMode::Original,
            0,
            FaultTier::Clean,
            ParallelismPlan::new(2, 2, false),
        );
    }

    #[test]
    fn fault_tiers_validate_and_seed_distinct_streams() {
        for tier in FaultTier::ALL {
            assert!(tier.fault_config().validate().is_ok(), "tier {tier}");
        }
        // Capture seeds are key-unique (no accidental stream sharing),
        // the plan included: two plans never share a stream.
        let mut seeds = std::collections::HashSet::new();
        for tier in FaultTier::ALL {
            for page_idx in 0..20 {
                for mode in MODES {
                    for state in THREE_G_CLICK_STATES {
                        for plan in [
                            ParallelismPlan::SEQUENTIAL,
                            ParallelismPlan::new(2, 2, false),
                            ParallelismPlan::new(4, 4, true),
                            ParallelismPlan::new(8, 1, false),
                        ] {
                            assert!(seeds
                                .insert(tier.capture_seed_planned(page_idx, mode, state, plan)));
                        }
                    }
                }
            }
        }
    }

    /// Ladder backends capture deterministically over their own
    /// click-state axis, and warm clicks load strictly no slower than
    /// cold ones (the setup latency is the difference).
    #[test]
    fn ladder_captures_are_deterministic_and_warm_beats_cold() {
        let (corpus, server, cfg) = setup();
        let capture = || {
            ProfileTable::<LteMachine>::capture(
                &corpus,
                &server,
                &cfg,
                LteConfig::calibrated(),
                &[FaultTier::Clean],
                &[ParallelismPlan::SEQUENTIAL],
            )
        };
        let lte = capture();
        let again = capture();
        assert_eq!(LteMachine::BACKEND, RadioBackend::Lte);
        assert_eq!(LteMachine::click_state_count(), 4);
        for page_idx in 0..lte.n_pages() {
            for mode in MODES {
                let cold = clean(&lte, page_idx, mode, 0); // IDLE
                let warm = clean(&lte, page_idx, mode, 3); // CONNECTED
                assert!(cold.opened >= warm.opened, "page {page_idx} {mode:?}");
                assert_eq!(cold.bytes, warm.bytes);
                for s in 0..4 {
                    assert_eq!(
                        clean(&lte, page_idx, mode, s).events,
                        clean(&again, page_idx, mode, s).events
                    );
                }
            }
        }
    }

    /// WiFi's cheap wakeup compresses the cold/warm gap to its 50 ms
    /// wake latency — the "promotions are cheap" end of the spectrum.
    #[test]
    fn wifi_cold_warm_gap_is_the_wake_latency() {
        let (corpus, server, cfg) = setup();
        let wifi = ProfileTable::<WifiMachine>::capture(
            &corpus,
            &server,
            &cfg,
            WifiConfig::calibrated(),
            &[FaultTier::Clean],
            &[ParallelismPlan::SEQUENTIAL],
        );
        let cold = clean(&wifi, 0, PipelineMode::EnergyAware, 0); // PSM
        let warm = clean(&wifi, 0, PipelineMode::EnergyAware, 1); // ACTIVE
        let gap = (cold.opened - warm.opened).as_secs_f64();
        assert!(
            (gap - WifiConfig::calibrated().wake_latency_s).abs() < 1e-9,
            "cold/warm gap {gap} should be the PSM wake latency"
        );
    }
}
