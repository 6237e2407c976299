//! Fleet-scale population run: the population distributions the
//! sharded work-stealing simulator in `ewb-fleet` produces, run through
//! the crash-safe supervisor (`run_fleet_supervised`).
//!
//! Usage: `fleet_bench [--smoke] [--users N] [--shards N] [--checkpoint
//! PATH] [--resume] [--kill-after N] [--chaos-panic SHARD:USER]...`
//!
//! The default is a 100 000-user population with 64 shards; the
//! committed `BENCH_fleet.json` is that run, and running the binary with
//! no flags rewrites it byte for byte. `--smoke` changes that default to
//! 2 000 users × 4 shards, the CI chaos job's population; an explicit
//! `--users` or `--shards` wins wherever it appears. The run uses
//! `available_parallelism().min(8)` threads; the merged summary does not
//! depend on the shard or thread count, the commit interval, a resume or
//! an absorbed panic (`ewb-fleet`'s determinism and resume tests assert
//! it). The file records no host time: fleet host time is perfbench's to
//! measure (`fleet_predict9`, `fleet_oracle9`, traced
//! `fleet.parallel_eff`).
//!
//! Every run prints the supervisor's recovery line, the population and
//! load-time lines and a `summary_fingerprint:` line, which the CI chaos
//! job compares across clean, killed and resumed runs, and then writes
//! `BENCH_fleet.json` into the working directory. With no crash-safety
//! flag there is no checkpoint and no chaos:
//!
//! * `--checkpoint PATH` — commit per-shard progress to PATH (atomic
//!   tmp+rename) every `users / 64` users.
//! * `--resume` — start from the checkpoint instead of from scratch
//!   (needs `--checkpoint`).
//! * `--kill-after N` — stop (exit code 3, no BENCH file) once N users
//!   are committed: the deterministic stand-in for `kill -9`.
//! * `--chaos-panic SHARD:USER` — inject a worker panic when SHARD
//!   reaches USER on its first attempt (repeatable); the supervisor must
//!   absorb it. SHARD must be a shard of the run and USER one of its
//!   users.
//!
//! A run these flags cannot make exits 2 with the usage line before any
//! work.

use ewb_bench::cli;
use ewb_fleet::{
    run_fleet_supervised, summary_fingerprint, validate_run, FleetConfig, FleetEnv, FleetError,
    FleetSummary, PanicPoint, SupervisorOptions,
};
use serde::Serialize;
use std::path::PathBuf;

struct Args {
    users: u64,
    shards: usize,
    checkpoint: Option<PathBuf>,
    resume: bool,
    kill_after: Option<u64>,
    chaos_panics: Vec<PanicPoint>,
}

impl Args {
    /// The fleet the flags ask for, run on `threads` workers.
    fn config(&self, threads: usize) -> FleetConfig {
        FleetConfig {
            shards: self.shards,
            threads,
            ..FleetConfig::paper(self.users)
        }
    }

    /// The supervisor options the flags ask for.
    fn options(&self) -> SupervisorOptions {
        SupervisorOptions {
            checkpoint_path: self.checkpoint.clone(),
            resume: self.resume,
            commit_every_users: (self.users / 64).max(1),
            kill_after_users: self.kill_after,
        }
    }
}

const FLAGS: &[cli::Flag] = &[
    ("--smoke", ""),
    ("--users", "N"),
    ("--shards", "N"),
    ("--checkpoint", "PATH"),
    ("--resume", ""),
    ("--kill-after", "N"),
    ("--chaos-panic", "SHARD:USER..."),
];

/// The run a command line parsed against [`FLAGS`] asks for. Exits with
/// status 2 when `ewb_fleet::validate_run` refuses it: no users or
/// shards, `--resume` without `--checkpoint`, or a `--chaos-panic` point
/// that can never fire.
fn parse_args(cli: &cli::Args) -> Args {
    let (users, shards) = if cli.has("--smoke") {
        (2_000, 4)
    } else {
        (100_000, 64)
    };
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
        checkpoint: cli.get("--checkpoint"),
        resume: cli.has("--resume"),
        kill_after: cli.get("--kill-after"),
        chaos_panics: cli
            .get_all("--chaos-panic")
            .into_iter()
            .map(chaos_panic)
            .collect(),
    };
    if let Err(e) = validate_run(&args.config(1), &args.chaos_panics, &args.options()) {
        cli.fail(&e);
    }
    args
}

fn main() {
    let args = parse_args(&cli::Args::parse(FLAGS));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let env = FleetEnv::prepare();
    let config = args.config(threads);
    let report = match run_fleet_supervised(&env, &config, &args.chaos_panics, &args.options()) {
        Ok(report) => report,
        Err(e @ FleetError::Interrupted { .. }) => {
            println!("{e}");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "run complete: {} users ({} resumed from checkpoint), {} panic(s) absorbed, \
         {} shard(s) reclaimed, {} checkpoint commit(s)",
        report.summary.users,
        report.users_resumed,
        report.worker_panics,
        report.shards_reclaimed,
        report.checkpoint_commits,
    );
    let summary = &report.summary;
    println!(
        "population: saved {:.1} J/user/day mean ({:.1}% of baseline), p50 {:.1} J",
        summary.saved_mean_j(),
        100.0 * summary.saved_fraction(),
        summary.saved_quantile_j(0.5),
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
    let bench = Bench::of(summary, args.shards);
    println!("summary_fingerprint: {}", bench.summary_fingerprint);
    let json = serde_json::to_string(&bench).expect("the BENCH record is always serializable");
    ewb_bench::write_atomic("BENCH_fleet.json", json);
    println!("wrote BENCH_fleet.json");
}

/// The tracked benchmark artifact: the population's size, fingerprint
/// and distributions.
#[derive(Serialize)]
struct Bench {
    users: u64,
    sessions: u64,
    visits: u64,
    shards: usize,
    summary_fingerprint: String,
    population: Population,
}

/// The population's saving, releases and per-case distributions.
#[derive(Serialize)]
struct Population {
    saved_mean_j: f64,
    saved_p50_j: f64,
    saved_fraction: f64,
    releases: u64,
    baseline_load_s: LoadTimes,
    optimized_load_s: LoadTimes,
    baseline_residency: Residency,
    optimized_residency: Residency,
}

/// One case's page-load latency, seconds.
#[derive(Serialize)]
struct LoadTimes {
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

/// One case's radio residency fractions.
#[derive(Serialize)]
struct Residency {
    idle: f64,
    promoting: f64,
    fach: f64,
    dch: f64,
}

impl Bench {
    fn of(summary: &FleetSummary, shards: usize) -> Self {
        let load = |optimized| LoadTimes {
            mean: summary.load_mean_s(optimized),
            p50: summary.load_quantile_s(optimized, 0.50),
            p95: summary.load_quantile_s(optimized, 0.95),
            p99: summary.load_quantile_s(optimized, 0.99),
        };
        let residency = |optimized| {
            let [idle, promoting, fach, dch] = summary.residency_fractions(optimized);
            Residency {
                idle,
                promoting,
                fach,
                dch,
            }
        };
        Bench {
            users: summary.users,
            sessions: summary.sessions,
            visits: summary.visits,
            shards,
            summary_fingerprint: format!("{:#010x}", summary_fingerprint(summary)),
            population: Population {
                saved_mean_j: summary.saved_mean_j(),
                saved_p50_j: summary.saved_quantile_j(0.5),
                saved_fraction: summary.saved_fraction(),
                releases: summary.releases,
                baseline_load_s: load(false),
                optimized_load_s: load(true),
                baseline_residency: residency(false),
                optimized_residency: residency(true),
            },
        }
    }
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
            assert_eq!((a.users, a.shards), (300, 4), "{argv:?}");
        }
    }

    #[test]
    fn smoke_changes_only_the_default_population() {
        let smoke = args(&["--smoke"]);
        assert_eq!((smoke.users, smoke.shards), (2_000, 4));
        let full = args(&[]);
        assert_eq!((full.users, full.shards), (100_000, 64));
    }

    #[test]
    fn chaos_panics_keep_both_points_in_order() {
        let a = args(&["--chaos-panic", "2:3200", "--chaos-panic", "0:5"]);
        let point = |shard, user_id| PanicPoint {
            shard,
            user_id,
            on_attempt: 0,
        };
        assert_eq!(a.chaos_panics, [point(2, 3200), point(0, 5)]);
    }
}
