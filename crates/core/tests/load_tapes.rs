//! Compiled load tapes against live event replay, on all four radio
//! backends.
//!
//! A profile's tape, played at a click, must leave the machine exactly as
//! replaying the profile's events one machine call at a time does: the
//! energy to the bit, the counters, the residency, the state and the
//! clock — and, since a tape carries no history, the machine must then
//! emit the same event stream as the live one when a recorder watches
//! what follows the load. The reference here is that event loop, kept in
//! this file independent of the dispatch the tapes are compiled through.
//!
//! Every captured key is checked from its click state, on clean and lossy
//! tiers under the sequential and one parallel plan. Then proptest chains
//! loads with random dwell times and fast-dormancy releases, so tapes
//! play onto machines whose history and energy differ from the
//! capture's.

use ewb_core::browser::parallel::ParallelismPlan;
use ewb_core::browser::pipeline::PipelineMode;
use ewb_core::net::replay::RadioEvent;
use ewb_core::obs::{Event, Recorder};
use ewb_core::profile::{FaultTier, ProfileTable};
use ewb_core::rrc::{
    FiveGConfig, FiveGMachine, LadderBackend, LadderMachine, LteConfig, LteMachine, RadioModel,
    RrcMachine, WifiConfig, WifiMachine,
};
use ewb_core::simcore::{SimDuration, SimTime};
use ewb_core::webpage::{benchmark_corpus, OriginServer};
use ewb_core::CoreConfig;
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::OnceLock;

const TIERS: [FaultTier; 2] = [FaultTier::Clean, FaultTier::Lossy10];
const MODES: [PipelineMode; 2] = [PipelineMode::Original, PipelineMode::EnergyAware];

fn plans() -> [ParallelismPlan; 2] {
    [
        ParallelismPlan::SEQUENTIAL,
        ParallelismPlan::new(4, 4, true),
    ]
}

fn capture<R: RadioModel>(radio_cfg: R::Config) -> ProfileTable<R> {
    let corpus = benchmark_corpus(1);
    let server = OriginServer::from_corpus(&corpus);
    ProfileTable::capture(
        &corpus,
        &server,
        &CoreConfig::paper(),
        radio_cfg,
        &TIERS,
        &plans(),
    )
}

fn three_g() -> &'static ProfileTable<RrcMachine> {
    static TABLE: OnceLock<ProfileTable<RrcMachine>> = OnceLock::new();
    TABLE.get_or_init(|| capture(CoreConfig::paper().rrc))
}

fn lte() -> &'static ProfileTable<LteMachine> {
    static TABLE: OnceLock<ProfileTable<LteMachine>> = OnceLock::new();
    TABLE.get_or_init(|| capture(LteConfig::calibrated()))
}

fn wifi() -> &'static ProfileTable<WifiMachine> {
    static TABLE: OnceLock<ProfileTable<WifiMachine>> = OnceLock::new();
    TABLE.get_or_init(|| capture(WifiConfig::calibrated()))
}

fn five_g() -> &'static ProfileTable<FiveGMachine> {
    static TABLE: OnceLock<ProfileTable<FiveGMachine>> = OnceLock::new();
    TABLE.get_or_init(|| capture(FiveGConfig::calibrated()))
}

/// Every observable of a machine, compared whole.
trait Observed: RadioModel {
    type View: PartialEq + Debug;
    fn view(&self) -> Self::View;
}

/// The energy's bits, the state label and the clock; each backend adds
/// its counters and residency.
type Common = (u64, &'static str, SimTime);

fn common<R: RadioModel>(m: &R) -> Common {
    (m.energy_j().to_bits(), m.state_label(), m.now())
}

impl Observed for RrcMachine {
    type View = (
        Common,
        ewb_core::rrc::RrcCounters,
        ewb_core::rrc::StateResidency,
    );
    fn view(&self) -> Self::View {
        (common(self), self.counters(), self.residency())
    }
}

impl<B: LadderBackend> Observed for LadderMachine<B> {
    type View = (
        Common,
        ewb_core::rrc::LadderCounters,
        ewb_core::rrc::LadderResidency,
    );
    fn view(&self) -> Self::View {
        (common(self), self.counters(), self.residency())
    }
}

/// Runs `after` on `m` with a memory recorder attached and returns what
/// it recorded; the machine leaves untraced, ready for the next tape.
fn traced<R: RadioModel>(m: &mut R, after: impl FnOnce(&mut R)) -> Vec<Event> {
    let recorder = Recorder::memory();
    m.set_recorder(recorder.clone());
    after(m);
    m.set_recorder(Recorder::disabled());
    recorder.events()
}

/// The reference: the load's events, one machine call each, `click`
/// later than their click-relative times.
fn replay_events<R: RadioModel>(machine: &mut R, events: &[RadioEvent], click: SimTime) {
    let dt = click - SimTime::ZERO;
    for e in events {
        match *e {
            RadioEvent::BeginTransfer {
                at,
                needs_dch,
                promotion_retries,
            } => {
                machine.begin_transfer_with_promotion_retries(
                    at + dt,
                    needs_dch,
                    promotion_retries,
                );
            }
            RadioEvent::EndTransfer { at } => machine.end_transfer(at + dt),
            RadioEvent::Release { at } => {
                machine.release_to_idle(at + dt);
            }
            RadioEvent::CpuLoad { at, load } => machine.set_cpu_load(at + dt, load),
        }
    }
}

/// Every captured key, from a machine freshly driven into its click
/// state: the tape equals the events right after the load, and after
/// the inactivity timers the load armed have run out.
fn every_key_matches<R: Observed>(table: &ProfileTable<R>) {
    let cfg = *table.radio_config();
    let mut keys = 0;
    for page in 0..table.n_pages() {
        for mode in MODES {
            for state in 0..R::click_state_count() {
                for tier in TIERS {
                    for plan in plans() {
                        let profile = table.profile_planned(page, mode, state, tier, plan);
                        let (mut live, click) = R::in_click_state(cfg, state);
                        let (mut taped, _) = R::in_click_state(cfg, state);
                        replay_events(&mut live, &profile.events, click);
                        taped.play_tape(&profile.tape, click);
                        let key =
                            format!("{} page {page} {mode:?} {state} {tier} {plan}", R::BACKEND);
                        assert_eq!(live.view(), taped.view(), "{key}: after the load");
                        let later = click + profile.opened + SimDuration::from_secs(60);
                        let live_tail = traced(&mut live, |m| m.advance_to(later));
                        let taped_tail = traced(&mut taped, |m| m.advance_to(later));
                        assert_eq!(live.view(), taped.view(), "{key}: after the tail");
                        assert_eq!(live_tail, taped_tail, "{key}: the tail's events");
                        keys += 1;
                    }
                }
            }
        }
    }
    assert_eq!(keys, 20 * 2 * R::click_state_count() * 4);
}

/// One visit of a chain: which profile, how long the user dwells after
/// the page opens, and whether (and where in the dwell, as a fraction)
/// the application releases the radio.
type Step = (usize, usize, usize, usize, SimDuration, Option<f64>);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let dwell = prop_oneof![
        (0u64..2_000_000).prop_map(SimDuration::from_micros),
        (0u64..45_000).prop_map(SimDuration::from_millis),
    ];
    let release = (any::<bool>(), 0.0f64..1.0).prop_map(|(on, at)| on.then_some(at));
    proptest::collection::vec(
        (0usize..20, 0usize..2, 0usize..2, 0usize..2, dwell, release),
        1..12,
    )
}

/// Runs `chain` on a live event-replay machine and a tape-playing one,
/// both fresh at time zero, comparing them after every load and dwell.
fn chain_matches<R: Observed>(table: &ProfileTable<R>, chain: &[Step]) -> Result<(), String> {
    let cfg = *table.radio_config();
    let mut live = R::new(cfg, SimTime::ZERO);
    let mut taped = R::new(cfg, SimTime::ZERO);
    for (i, &(page, mode, tier, plan, dwell, release)) in chain.iter().enumerate() {
        let click = live.now();
        let state = live.click_state_index();
        let profile = table.profile_planned(page, MODES[mode], state, TIERS[tier], plans()[plan]);
        replay_events(&mut live, &profile.events, click);
        taped.play_tape(&profile.tape, click);
        prop_assert_eq!(live.view(), taped.view(), "visit {i}: after the load");

        let opened = click + profile.opened;
        let next = opened + dwell;
        let release_at = release
            .map(|frac| opened + dwell.mul_f64(frac))
            .filter(|&at| at + R::release_latency(&cfg) <= next);
        let dwell = |m: &mut R| {
            if let Some(at) = release_at {
                m.release_to_idle(at);
            }
            m.advance_to(next);
        };
        let live_dwell = traced(&mut live, dwell);
        let taped_dwell = traced(&mut taped, dwell);
        prop_assert_eq!(live.view(), taped.view(), "visit {i}: after the dwell");
        prop_assert_eq!(live_dwell, taped_dwell, "visit {i}: the dwell's events");
    }
    Ok(())
}

#[test]
fn three_g_tapes_match_every_key() {
    every_key_matches(three_g());
}

#[test]
fn lte_tapes_match_every_key() {
    every_key_matches(lte());
}

#[test]
fn wifi_tapes_match_every_key() {
    every_key_matches(wifi());
}

#[test]
fn five_g_tapes_match_every_key() {
    every_key_matches(five_g());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn three_g_tape_chains_match_live_replay(chain in steps()) {
        chain_matches(three_g(), &chain)?;
    }

    #[test]
    fn lte_tape_chains_match_live_replay(chain in steps()) {
        chain_matches(lte(), &chain)?;
    }

    #[test]
    fn wifi_tape_chains_match_live_replay(chain in steps()) {
        chain_matches(wifi(), &chain)?;
    }

    #[test]
    fn five_g_tape_chains_match_live_replay(chain in steps()) {
        chain_matches(five_g(), &chain)?;
    }
}

/// A traced machine must see every event of a load, so it refuses tapes.
#[test]
#[should_panic(expected = "a traced machine must replay the load's events")]
fn a_traced_machine_refuses_a_tape() {
    let table = wifi();
    let profile = table.profile_planned(
        0,
        PipelineMode::Original,
        0,
        FaultTier::Clean,
        ParallelismPlan::SEQUENTIAL,
    );
    let mut m = WifiMachine::with_recorder(
        *table.radio_config(),
        SimTime::ZERO,
        ewb_core::obs::Recorder::memory(),
    );
    m.play_tape(&profile.tape, SimTime::ZERO);
}

/// A tape replays from the click state it was compiled in, and nowhere
/// else.
#[test]
#[should_panic(expected = "plays from the click state it was compiled in")]
fn a_tape_refuses_another_click_state() {
    let table = three_g();
    let warm = table.profile_planned(
        0,
        PipelineMode::Original,
        2,
        FaultTier::Clean,
        ParallelismPlan::SEQUENTIAL,
    );
    let mut idle = RrcMachine::new(*table.radio_config(), SimTime::ZERO);
    idle.play_tape(&warm.tape, SimTime::ZERO);
}
