//! The fleet's two load-bearing invariants:
//!
//! 1. **Scheduling invariance** — the merged population summary is
//!    bit-identical for every shard count and thread count (the ISSUE's
//!    acceptance grid: shards {1, 2, 7, 64} × threads {1, 8}).
//! 2. **Path equivalence** — the memoized fleet path reproduces, user by
//!    user, exactly what the full browser-pipeline session simulator
//!    produces: same energies (to the bit, via the µJ ledger), same load
//!    times, same counters, same histograms.

use ewb_core::cases::Case;
use ewb_core::profile::{
    run_profiled_session_with, ProfiledOutcome, ProfiledSessionOpts, ProfiledVisit,
};
use ewb_core::session::{simulate_session, SessionOpts, Visit};
use ewb_fleet::{
    plan_user, predictor_outage_from, run_fleet, simulate_user, FleetConfig, FleetEnv,
    FleetSummary, WorkerScratch,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn env() -> &'static FleetEnv {
    static ENV: OnceLock<FleetEnv> = OnceLock::new();
    ENV.get_or_init(FleetEnv::prepare)
}

#[test]
fn summary_is_bit_identical_across_shard_and_thread_counts() {
    let env = env();
    let base_cfg = FleetConfig {
        shards: 1,
        threads: 1,
        ..FleetConfig::paper(150)
    };
    let reference = run_fleet(env, &base_cfg);
    assert_eq!(reference.users, 150);
    assert_eq!(reference.sessions, 300);
    assert!(reference.releases > 0, "Predict-9 should release sometimes");
    for shards in [1usize, 2, 7, 64] {
        for threads in [1usize, 8] {
            let summary = run_fleet(
                env,
                &FleetConfig {
                    shards,
                    threads,
                    ..base_cfg
                },
            );
            assert_eq!(
                summary, reference,
                "population summary must not depend on scheduling \
                 (shards {shards}, threads {threads})"
            );
        }
    }
}

/// Replays each user's plan through the full browser-pipeline simulator
/// and folds the outcomes into a summary by hand; the fleet must produce
/// the identical summary — histogram bins, µJ ledgers, counters and all.
#[test]
fn fleet_matches_full_session_simulation_per_user() {
    let env = env();
    let cfg = FleetConfig {
        shards: 4,
        threads: 3,
        ..FleetConfig::paper(6)
    };
    let mut expected = FleetSummary::default();
    for user_id in 0..cfg.users {
        let plan = plan_user(env, &cfg, user_id);
        let visits: Vec<Visit<'_>> = plan
            .iter()
            .map(|p| {
                let (key, version) = env.synth.base(p.page_idx);
                Visit {
                    page: env.corpus.page(key, version).expect("profiled page"),
                    reading_s: p.reading_s,
                    features: Some(p.features),
                }
            })
            .collect();
        let baseline = simulate_session(
            &env.server,
            &visits,
            cfg.baseline,
            &env.cfg,
            SessionOpts::three_g(&env.cfg),
        );
        let optimized = simulate_session(
            &env.server,
            &visits,
            cfg.optimized,
            &env.cfg,
            SessionOpts {
                predictor: Some(&env.predictor),
                ..SessionOpts::three_g(&env.cfg)
            },
        );
        for p in &baseline.pages {
            expected.fold_baseline_load(p.opened - p.start);
        }
        for p in &optimized.pages {
            expected.fold_optimized_load(p.opened - p.start);
        }
        let as_profiled = |o: &ewb_core::session::SessionOutcome| ProfiledOutcome {
            total_joules: o.total_joules,
            total_load_time_s: o.total_load_time_s,
            duration: o.duration,
            counters: o.counters,
            residency: o.radio.residency(),
            degraded_policy_visits: 0,
        };
        expected.fold_user(
            &as_profiled(&baseline),
            &as_profiled(&optimized),
            plan.len() as u64,
        );
    }
    let fleet = run_fleet(env, &cfg);
    assert_eq!(fleet, expected);
}

/// Rebuilds user `user_id` from the public layer calls the way the
/// benchmark harness does: plan, predict every row, draw the outage,
/// replay both sessions, fold.
fn rebuild_predicting_every_row(env: &FleetEnv, cfg: &FleetConfig, user_id: u64) -> FleetSummary {
    let plan = plan_user(env, cfg, user_id);
    let rows: Vec<f64> = plan.iter().flat_map(|v| v.features.0).collect();
    let mut preds = vec![0.0; plan.len()];
    env.predictor.predict_rows(&rows, &mut preds);
    let visits: Vec<ProfiledVisit> = plan
        .iter()
        .zip(preds)
        .map(|(v, p)| ProfiledVisit {
            page_idx: v.page_idx,
            reading_s: v.reading_s,
            predicted_s: Some(p),
        })
        .collect();
    let opts = ProfiledSessionOpts {
        tier: cfg.tier,
        predictor_outage_from: predictor_outage_from(cfg, user_id, plan.len() as u64),
        ..ProfiledSessionOpts::default()
    };
    let mut summary = FleetSummary::default();
    let baseline =
        run_profiled_session_with(&env.table, &env.cfg, cfg.baseline, opts, &visits, |v| {
            summary.fold_baseline_load(v.load)
        });
    let optimized =
        run_profiled_session_with(&env.table, &env.cfg, cfg.optimized, opts, &visits, |v| {
            summary.fold_optimized_load(v.load)
        });
    summary.fold_user(&baseline, &optimized, plan.len() as u64);
    summary
}

/// `simulate_user` synthesizes and predicts only the engaged visits
/// before an outage, and no row when no case consults the predictor;
/// users with bounces (visits that end before α), users whose predictor
/// fails partway and oracle users must fold exactly as when every row is
/// predicted.
#[test]
fn predicting_only_the_rows_read_folds_like_predicting_every_row() {
    let env = env();
    let alpha_s = env.cfg.alg.alpha_s;
    let mut scratch = WorkerScratch::new();
    for (baseline, optimized, outage) in [
        (Case::Original, Case::Predict9, 0.0),
        (Case::Original, Case::Predict9, 0.6),
        (Case::Predict9, Case::Predict20, 1.0),
        (Case::Original, Case::Accurate9, 0.0),
    ] {
        let cfg = FleetConfig {
            baseline,
            optimized,
            predictor_outage_prob: outage,
            ..FleetConfig::paper(40)
        };
        let (mut bounced, mut outages) = (0, 0);
        for user_id in 0..cfg.users {
            let mut direct = FleetSummary::default();
            simulate_user(env, &cfg, user_id, &mut scratch, &mut direct);
            let rebuilt = rebuild_predicting_every_row(env, &cfg, user_id);
            assert_eq!(direct, rebuilt, "user {user_id}, {cfg:?}");
            let plan = plan_user(env, &cfg, user_id);
            bounced += usize::from(plan.iter().any(|v| v.reading_s <= alpha_s));
            outages +=
                usize::from(predictor_outage_from(&cfg, user_id, plan.len() as u64).is_some());
        }
        assert!(bounced > 10, "{bounced} users with a bounce");
        assert_eq!(outages > 0, outage > 0.0, "{outages} users with an outage");
    }
}

/// The deployed kernel on the fleet's own inputs: every visit row of the
/// `fleet_bench --smoke` population (2 000 users, seed 2013), predicted
/// one user's batch at a time as `simulate_user` does, equals the enum
/// model's prediction to the bit.
#[test]
fn predict_rows_matches_the_enum_model_on_every_smoke_visit() {
    let env = env();
    let cfg = FleetConfig {
        shards: 4,
        ..FleetConfig::paper(2_000)
    };
    for user_id in 0..cfg.users {
        let plan = plan_user(env, &cfg, user_id);
        let rows: Vec<f64> = plan.iter().flat_map(|v| v.features.0).collect();
        let mut preds = vec![0.0; plan.len()];
        env.predictor.predict_rows(&rows, &mut preds);
        for (v, y) in plan.iter().zip(&preds) {
            let want = (env.predictor.model().predict(&v.features.0).exp() - 1.0).max(0.0);
            assert_eq!(
                y.to_bits(),
                want.to_bits(),
                "user {user_id}, {:?}",
                v.features
            );
        }
    }
}

/// An oracle-policy fleet (no predictor in the loop) is also invariant —
/// the predictor batch path is not what carries the determinism.
#[test]
fn oracle_fleet_is_scheduling_invariant_too() {
    let env = env();
    let cfg = FleetConfig {
        optimized: ewb_core::cases::Case::Accurate20,
        seed: 7,
        ..FleetConfig::paper(60)
    };
    let a = run_fleet(
        env,
        &FleetConfig {
            shards: 1,
            threads: 1,
            ..cfg
        },
    );
    let b = run_fleet(
        env,
        &FleetConfig {
            shards: 64,
            threads: 8,
            ..cfg
        },
    );
    assert_eq!(a, b);
    assert!(
        a.saved_mean_j() > 0.0,
        "Accurate-20 saves energy on average"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random scheduling shapes against the canonical one: the summary
    /// is a pure function of (users, seed).
    #[test]
    fn random_schedules_cannot_change_the_population(
        users in 1u64..40,
        shards in 1usize..10,
        threads in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let env = env();
        let cfg = FleetConfig { seed, ..FleetConfig::paper(users) };
        let reference = run_fleet(env, &FleetConfig { shards: 1, threads: 1, ..cfg });
        let sharded = run_fleet(env, &FleetConfig { shards, threads, ..cfg });
        prop_assert_eq!(reference, sharded);
    }
}
