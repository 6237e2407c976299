//! Fleet robustness sweep: what energy-aware browsing saves a population
//! when the network and the predictor both misbehave.
//!
//! Two sweeps, both over the same deterministic 5 000-user fleet
//! (`--smoke` drops to 500 users for CI):
//!
//! 1. **Fault tier × policy** — every user's sessions run on a degraded
//!    link (loss, jitter) for each captured [`FaultTier`]; the paper's
//!    policies are compared against the Original browser on the same
//!    tier.
//! 2. **Predictor outage** — a fraction of users lose the predictor
//!    mid-session and fall back to the intuitive always-off policy;
//!    savings degrade gracefully toward the intuitive line.
//!
//! The printed tables are the basis of the EXPERIMENTS.md "population
//! robustness" section. The output records no host time, so it depends
//! only on `--smoke`.

use ewb_core::cases::Case;
use ewb_core::profile::FaultTier;
use ewb_fleet::{run_fleet, FleetConfig, FleetEnv};

fn main() {
    let args = ewb_bench::cli::Args::parse(&[("--smoke", "")]);
    let users: u64 = if args.has("--smoke") { 500 } else { 5_000 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let env = FleetEnv::prepare_tiered(&FaultTier::ALL);
    println!(
        "prepared {} fault tiers ({users} users per cell, seed 2013)",
        FaultTier::ALL.len()
    );

    let base = FleetConfig {
        threads: cores.min(8),
        ..FleetConfig::paper(users)
    };

    // -- Sweep 1: fault tier × policy. ---------------------------------
    let policies: [(Case, &str); 3] = [
        (Case::EnergyAwareAlwaysOff, "Intuitive"),
        (Case::Accurate9, "Accurate-9"),
        (Case::Predict9, "Predict-9"),
    ];
    println!();
    println!("population robustness: fault tier x policy (baseline Original, same tier)");
    println!(
        "{:<12} {:<12} {:>12} {:>10} {:>14} {:>14}",
        "tier", "policy", "saved J/user", "saved %", "base p95 [s]", "opt p95 [s]"
    );
    for tier in FaultTier::ALL {
        for (case, name) in policies {
            let summary = run_fleet(
                &env,
                &FleetConfig {
                    tier,
                    optimized: case,
                    ..base
                },
            );
            println!(
                "{:<12} {:<12} {:>12.1} {:>9.1}% {:>14.2} {:>14.2}",
                tier.name(),
                name,
                summary.saved_mean_j(),
                100.0 * summary.saved_fraction(),
                summary.load_quantile_s(false, 0.95),
                summary.load_quantile_s(true, 0.95),
            );
        }
    }

    // -- Sweep 2: predictor outage (Predict-9, clean link). ------------
    println!();
    println!("predictor outage: Predict-9 users falling back to the intuitive policy");
    println!(
        "{:<14} {:>12} {:>10} {:>18} {:>16}",
        "outage prob", "saved J/user", "saved %", "degraded visits", "degraded share"
    );
    for outage in [0.0f64, 0.1, 0.3, 0.5, 1.0] {
        let summary = run_fleet(
            &env,
            &FleetConfig {
                predictor_outage_prob: outage,
                ..base
            },
        );
        println!(
            "{:<14.2} {:>12.1} {:>9.1}% {:>18} {:>15.1}%",
            outage,
            summary.saved_mean_j(),
            100.0 * summary.saved_fraction(),
            summary.degraded_policy_visits,
            100.0 * summary.degraded_policy_visits as f64 / summary.visits as f64,
        );
    }
}
