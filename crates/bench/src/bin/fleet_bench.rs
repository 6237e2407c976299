//! Fleet-scale population benchmark: throughput and scaling of the
//! sharded work-stealing simulator in `ewb-fleet`, plus the population
//! distributions it produces. Prints a summary and writes
//! `BENCH_fleet.json` for tracking.
//!
//! Usage: `fleet_bench [--smoke] [--users N] [--shards N]`
//!
//! The default is a 100 000-user population with 64 shards. `--smoke`
//! changes that default to the CI population (2 000 users × 4 shards)
//! and is what the fleet-smoke CI job runs; an explicit `--users` or
//! `--shards` wins wherever it appears. Either way the binary asserts the
//! scheduling-invariance grid (shards {1, 2, 7, 64} × threads {1, 8})
//! before timing anything, so a red determinism bit can never ship
//! inside a green benchmark.
//!
//! Crash-safety flags (any of them switches to a single supervised run
//! instead of the benchmark grid, printing a `summary_fingerprint:` line
//! the CI chaos job compares across clean, killed, and resumed runs):
//!
//! * `--supervised` — run under the supervisor with no other chaos.
//! * `--checkpoint PATH` — commit per-shard progress to PATH (atomic
//!   tmp+rename) as the run proceeds.
//! * `--resume` — start from the checkpoint instead of from scratch.
//! * `--kill-after N` — stop (exit code 3) once N users are committed:
//!   the deterministic stand-in for `kill -9`.
//! * `--chaos-panic SHARD:USER` — inject a worker panic when SHARD
//!   reaches USER on its first attempt (repeatable); the supervisor must
//!   absorb it.

use ewb_bench::cli;
use ewb_fleet::{
    run_fleet, run_fleet_supervised, summary_fingerprint, ChaosConfig, FleetConfig, FleetEnv,
    FleetError, FleetSummary, PanicPoint, SupervisorOptions,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Minimum of `reps` timed runs, seconds.
fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct Args {
    users: u64,
    shards: usize,
    smoke: bool,
    supervised: bool,
    checkpoint: Option<PathBuf>,
    resume: bool,
    kill_after: Option<u64>,
    chaos_panics: Vec<PanicPoint>,
}

impl Args {
    /// Any crash-safety flag selects the single supervised run.
    fn wants_supervised(&self) -> bool {
        self.supervised
            || self.checkpoint.is_some()
            || self.resume
            || self.kill_after.is_some()
            || !self.chaos_panics.is_empty()
    }

    /// The fleet the flags ask for, run on `threads` workers.
    fn config(&self, threads: usize) -> FleetConfig {
        FleetConfig {
            shards: self.shards,
            threads,
            ..FleetConfig::paper(self.users)
        }
    }
}

const FLAGS: &[cli::Flag] = &[
    ("--smoke", ""),
    ("--users", "N"),
    ("--shards", "N"),
    ("--supervised", ""),
    ("--checkpoint", "PATH"),
    ("--resume", ""),
    ("--kill-after", "N"),
    ("--chaos-panic", "SHARD:USER..."),
];

/// The run a command line parsed against [`FLAGS`] asks for. Exits with
/// status 2 when the flags build an invalid fleet (no users or shards).
fn parse_args(cli: &cli::Args) -> Args {
    let smoke = cli.has("--smoke");
    let (users, shards) = if smoke { (2_000, 4) } else { (100_000, 64) };
    let chaos_panic = |v: String| {
        let point = v.split_once(':').and_then(|(shard, user)| {
            Some(PanicPoint {
                shard: shard.parse().ok()?,
                user_id: user.parse().ok()?,
                on_attempt: 0,
            })
        });
        point.unwrap_or_else(|| cli.fail(&format!("--chaos-panic takes SHARD:USER, not `{v}`")))
    };
    let args = Args {
        users: cli.get("--users").unwrap_or(users),
        shards: cli.get("--shards").unwrap_or(shards),
        smoke,
        supervised: cli.has("--supervised"),
        checkpoint: cli.get("--checkpoint"),
        resume: cli.has("--resume"),
        kill_after: cli.get("--kill-after"),
        chaos_panics: cli
            .get_all("--chaos-panic")
            .into_iter()
            .map(chaos_panic)
            .collect(),
    };
    if let Err(e) = args.config(1).validate() {
        cli.fail(&e);
    }
    args
}

/// The supervised path: one run under the crash-safe runner, a
/// `summary_fingerprint:` line for the CI chaos job to diff, exit code 3
/// when the deterministic kill switch trips.
fn run_supervised(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prep_start = Instant::now();
    let env = FleetEnv::prepare();
    println!(
        "prepared fleet environment in {:.2} s",
        prep_start.elapsed().as_secs_f64()
    );
    let cfg = args.config(cores.min(8));
    let chaos = ChaosConfig {
        panics: args.chaos_panics.clone(),
        ..ChaosConfig::none()
    };
    let options = SupervisorOptions {
        checkpoint_path: args.checkpoint.clone(),
        resume: args.resume,
        commit_every_users: (args.users / 64).max(1),
        kill_after_users: args.kill_after,
    };
    match run_fleet_supervised(&env, &cfg, &chaos, &options) {
        Ok(report) => {
            println!(
                "supervised run complete: {} users ({} resumed from checkpoint), \
                 {} panic(s) absorbed, {} shard(s) reclaimed, {} checkpoint commit(s)",
                report.summary.users,
                report.users_resumed,
                report.worker_panics,
                report.shards_reclaimed,
                report.checkpoint_commits,
            );
            println!(
                "population: saved {:.1} J/user/day mean, optimized p95 load {:.2} s",
                report.summary.saved_mean_j(),
                report.summary.load_quantile_s(true, 0.95),
            );
            println!(
                "summary_fingerprint: {:#010x}",
                summary_fingerprint(&report.summary)
            );
        }
        Err(e @ FleetError::Interrupted { .. }) => {
            println!("{e}");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args(&cli::Args::parse(FLAGS));
    if args.wants_supervised() {
        run_supervised(&args);
        return;
    }
    let threads_grid = [1usize, 2, 4, 8];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let prep_start = Instant::now();
    let env = FleetEnv::prepare();
    let prepare_s = prep_start.elapsed().as_secs_f64();
    println!(
        "prepared fleet environment ({} load profiles) in {prepare_s:.2} s",
        120
    );

    // -- Determinism grid (the ISSUE acceptance grid). -----------------
    // A small population keeps the 8 extra runs cheap; scheduling
    // invariance does not depend on the population size (the proptest
    // suite covers random shapes).
    let grid_users = args.users.min(2_000);
    let reference = run_fleet(
        &env,
        &FleetConfig {
            shards: 1,
            threads: 1,
            ..FleetConfig::paper(grid_users)
        },
    );
    for shards in [1usize, 2, 7, 64] {
        for threads in [1usize, 8] {
            let summary = run_fleet(
                &env,
                &FleetConfig {
                    shards,
                    threads,
                    ..FleetConfig::paper(grid_users)
                },
            );
            assert_eq!(
                summary, reference,
                "merged summary must be bit-identical (shards {shards}, threads {threads})"
            );
        }
    }
    println!(
        "determinism: merged summary bit-identical across shards {{1,2,7,64}} x threads {{1,8}} \
         ({grid_users} users)"
    );

    // -- Throughput scaling at 1/2/4/8 threads. ------------------------
    let reps = if args.smoke { 3 } else { 1 };
    let mut walls = Vec::new();
    let mut summary: Option<FleetSummary> = None;
    for &threads in &threads_grid {
        let cfg = args.config(threads);
        let wall_s = time_min(reps, || {
            let s = run_fleet(&env, &cfg);
            if summary.is_none() {
                summary = Some(s.clone());
            }
            s.sessions
        });
        walls.push(wall_s);
        let sessions = 2 * args.users;
        println!(
            "threads {threads}: {wall_s:.3} s, {:.0} sessions/s, {:.0} users/core-s",
            sessions as f64 / wall_s,
            args.users as f64 / (wall_s * threads.min(cores) as f64),
        );
    }
    let summary = summary.expect("at least one timed run");
    let t1 = walls[0];

    // The container may expose fewer cores than the 8-thread grid point;
    // `efficiency` divides by the thread count (the classical figure),
    // `efficiency_vs_cores` divides by the cores the threads can actually
    // occupy, which is the honest ceiling on this machine.
    let efficiency = |i: usize| (t1 / walls[i]) / threads_grid[i] as f64;
    let efficiency_vs_cores = |i: usize| (t1 / walls[i]) / threads_grid[i].min(cores) as f64;

    // -- Population distributions (from the timed summary). ------------
    let saved_mean = summary.saved_mean_j();
    let saved_p50 = summary.saved_quantile_j(0.5);
    let res_base = summary.residency_fractions(false);
    let res_opt = summary.residency_fractions(true);
    println!(
        "population: saved {saved_mean:.1} J/user/day mean ({:.1}% of baseline), p50 {saved_p50:.1} J",
        100.0 * summary.saved_fraction()
    );
    println!(
        "load time p50/p95/p99: baseline {:.2}/{:.2}/{:.2} s, optimized {:.2}/{:.2}/{:.2} s",
        summary.load_quantile_s(false, 0.50),
        summary.load_quantile_s(false, 0.95),
        summary.load_quantile_s(false, 0.99),
        summary.load_quantile_s(true, 0.50),
        summary.load_quantile_s(true, 0.95),
        summary.load_quantile_s(true, 0.99),
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"users\": {},", args.users);
    let _ = writeln!(json, "  \"sessions\": {},", summary.sessions);
    let _ = writeln!(json, "  \"visits\": {},", summary.visits);
    let _ = writeln!(json, "  \"shards\": {},", args.shards);
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"prepare_s\": {prepare_s:.3},");
    let _ = writeln!(json, "  \"determinism_grid_ok\": true,");
    let _ = writeln!(json, "  \"scaling\": [");
    for (i, &threads) in threads_grid.iter().enumerate() {
        let sessions_per_s = 2.0 * args.users as f64 / walls[i];
        let users_per_core_s = args.users as f64 / (walls[i] * threads.min(cores) as f64);
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"threads\": {threads},");
        let _ = writeln!(json, "      \"wall_s\": {:.4},", walls[i]);
        let _ = writeln!(json, "      \"sessions_per_s\": {sessions_per_s:.0},");
        let _ = writeln!(json, "      \"users_per_core_s\": {users_per_core_s:.0},");
        let _ = writeln!(json, "      \"efficiency\": {:.3},", efficiency(i));
        let _ = writeln!(
            json,
            "      \"efficiency_vs_cores\": {:.3}",
            efficiency_vs_cores(i)
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < threads_grid.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"population\": {{");
    let _ = writeln!(json, "    \"saved_mean_j\": {saved_mean:.3},");
    let _ = writeln!(json, "    \"saved_p50_j\": {saved_p50:.3},");
    let _ = writeln!(
        json,
        "    \"saved_fraction\": {:.4},",
        summary.saved_fraction()
    );
    let _ = writeln!(json, "    \"releases\": {},", summary.releases);
    for (label, optimized) in [("baseline", false), ("optimized", true)] {
        let _ = writeln!(json, "    \"{label}_load_s\": {{");
        let _ = writeln!(
            json,
            "      \"mean\": {:.4},",
            summary.load_mean_s(optimized)
        );
        let _ = writeln!(
            json,
            "      \"p50\": {:.4},",
            summary.load_quantile_s(optimized, 0.50)
        );
        let _ = writeln!(
            json,
            "      \"p95\": {:.4},",
            summary.load_quantile_s(optimized, 0.95)
        );
        let _ = writeln!(
            json,
            "      \"p99\": {:.4}",
            summary.load_quantile_s(optimized, 0.99)
        );
        let _ = writeln!(json, "    }},");
    }
    for (label, res) in [("baseline", res_base), ("optimized", res_opt)] {
        let _ = writeln!(json, "    \"{label}_residency\": {{");
        let _ = writeln!(json, "      \"idle\": {:.4},", res[0]);
        let _ = writeln!(json, "      \"promoting\": {:.4},", res[1]);
        let _ = writeln!(json, "      \"fach\": {:.4},", res[2]);
        let _ = writeln!(json, "      \"dch\": {:.4}", res[3]);
        let _ = writeln!(json, "    }}{}", if label == "baseline" { "," } else { "" });
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    println!(
        "summary_fingerprint: {:#010x}",
        summary_fingerprint(&summary)
    );
    ewb_bench::write_atomic("BENCH_fleet.json", &json);
    println!("wrote BENCH_fleet.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        let argv = std::iter::once("fleet_bench").chain(argv.iter().copied());
        parse_args(&cli::Args::parse_from(FLAGS, argv.map(String::from)).expect("valid flags"))
    }

    #[test]
    fn explicit_users_win_over_smoke_in_either_order() {
        for argv in [["--users", "300", "--smoke"], ["--smoke", "--users", "300"]] {
            let a = args(&argv);
            assert_eq!((a.users, a.shards, a.smoke), (300, 4, true), "{argv:?}");
        }
    }

    #[test]
    fn smoke_changes_only_the_default_population() {
        let smoke = args(&["--smoke"]);
        assert_eq!((smoke.users, smoke.shards), (2_000, 4));
        let full = args(&[]);
        assert_eq!((full.users, full.shards, full.smoke), (100_000, 64, false));
        assert!(!full.wants_supervised());
    }

    #[test]
    fn chaos_panics_keep_both_points_in_order() {
        let a = args(&["--chaos-panic", "2:117", "--chaos-panic", "0:5"]);
        let point = |shard, user_id| PanicPoint {
            shard,
            user_id,
            on_attempt: 0,
        };
        assert_eq!(a.chaos_panics, [point(2, 117), point(0, 5)]);
        assert!(a.wants_supervised());
    }
}
