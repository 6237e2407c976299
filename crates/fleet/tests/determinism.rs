//! The fleet's two load-bearing invariants:
//!
//! 1. **Scheduling invariance** — the merged population summary is
//!    bit-identical for every shard count and thread count (the ISSUE's
//!    acceptance grid: shards {1, 2, 7, 64} × threads {1, 8}).
//! 2. **Path equivalence** — the memoized fleet path reproduces, user by
//!    user, exactly what the full browser-pipeline session simulator
//!    produces: same energies (to the bit, via the µJ ledger), same load
//!    times, same counters, same histograms.

use ewb_core::profile::ProfiledOutcome;
use ewb_core::session::{simulate_session, SessionOpts, Visit};
use ewb_fleet::{plan_user, run_fleet, FleetConfig, FleetEnv, FleetSummary};
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
