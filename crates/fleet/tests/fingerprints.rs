//! Absolute pins of the fleet's output.
//!
//! The other fleet tests compare two paths against each other (memoized
//! vs full pipeline, one schedule vs another). A change that shifts both
//! sides at once passes them all. These literals do not move with the
//! code: they were recorded once and must hold for every refactor that
//! claims unchanged behaviour.

use ewb_core::browser::parallel::ParallelismPlan;
use ewb_core::browser::pipeline::PipelineMode;
use ewb_core::cases::Case;
use ewb_core::profile::FaultTier;
use ewb_core::rrc::RrcState;
use ewb_fleet::{plan_user, run_fleet, summary_fingerprint, FleetConfig, FleetEnv};

/// 64-bit FNV-1a over the `to_bits` of each value, one word per step:
/// a change to any one value changes the fold.
fn fold_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `fleet_bench --smoke` population: 2 000 users in 4 shards.
#[test]
fn smoke_population_fingerprint() {
    let env = FleetEnv::prepare();
    let cfg = FleetConfig {
        shards: 4,
        ..FleetConfig::paper(2_000)
    };
    assert_eq!(summary_fingerprint(&run_fleet(&env, &cfg)), 0x578f_68cd);
}

/// The smoke population under Accurate-9, whose oracle reads no
/// predictor: planning and replay alone.
#[test]
fn oracle_smoke_population_fingerprint() {
    let env = FleetEnv::prepare();
    let cfg = FleetConfig {
        shards: 4,
        optimized: Case::Accurate9,
        ..FleetConfig::paper(2_000)
    };
    assert_eq!(summary_fingerprint(&run_fleet(&env, &cfg)), 0x8798_4a1e);
}

/// Every feature and reading time of the smoke population's first 500
/// users' plans, in visit order: the rows a predictor would see, whether
/// or not a case reads them.
#[test]
fn smoke_plans_are_pinned() {
    let env = FleetEnv::prepare();
    let cfg = FleetConfig {
        shards: 4,
        ..FleetConfig::paper(2_000)
    };
    let values = (0..500)
        .flat_map(|user_id| plan_user(&env, &cfg, user_id))
        .flat_map(|v| v.features.0.into_iter().chain([v.reading_s]));
    assert_eq!(fold_bits(values), 0xf34d_d119_af29_384f);
}

/// A population on the 10 %-loss tier, and one whose predictor goes down
/// for half the users: the fault-tier captures and the outage fallback.
#[test]
fn chaos_population_fingerprints() {
    let env = FleetEnv::prepare_tiered(&[FaultTier::Clean, FaultTier::Lossy10]);
    let lossy = FleetConfig {
        shards: 4,
        tier: FaultTier::Lossy10,
        ..FleetConfig::paper(300)
    };
    let outage = FleetConfig {
        shards: 4,
        predictor_outage_prob: 0.5,
        ..FleetConfig::paper(300)
    };
    assert_eq!(summary_fingerprint(&run_fleet(&env, &lossy)), 0x253c_3349);
    assert_eq!(summary_fingerprint(&run_fleet(&env, &outage)), 0x128f_21bf);
}

/// The fixed fault-stream seeds of a few capture keys, under the
/// sequential plan and two parallel ones.
#[test]
fn capture_seeds_are_pinned() {
    let seq = ParallelismPlan::SEQUENTIAL;
    let par = ParallelismPlan::new(4, 4, true);
    let cases = [
        (
            FaultTier::Clean,
            0,
            PipelineMode::Original,
            RrcState::Idle,
            seq,
            0xfa16_a400_76e1_ce79,
        ),
        (
            FaultTier::Lossy2,
            3,
            PipelineMode::EnergyAware,
            RrcState::Fach,
            seq,
            0x387c_1f8d_38ba_afec,
        ),
        (
            FaultTier::Lossy10,
            19,
            PipelineMode::Original,
            RrcState::Dch,
            seq,
            0x0913_8fc1_9349_f569,
        ),
        (
            FaultTier::Jittery10,
            7,
            PipelineMode::EnergyAware,
            RrcState::Idle,
            seq,
            0x6ddd_7933_e587_34de,
        ),
        (
            FaultTier::Lossy10,
            0,
            PipelineMode::Original,
            RrcState::Idle,
            par,
            0x7757_3469_54bc_c48f,
        ),
        (
            FaultTier::Lossy10,
            12,
            PipelineMode::EnergyAware,
            RrcState::Dch,
            ParallelismPlan::new(2, 2, false),
            0xb90d_1e3f_b3c3_78e8,
        ),
    ];
    for (tier, page_idx, mode, state, plan, want) in cases {
        assert_eq!(
            tier.capture_seed_planned(page_idx, mode, state, plan),
            want,
            "{tier} page {page_idx} {mode:?} {state:?} {plan}"
        );
    }
}
