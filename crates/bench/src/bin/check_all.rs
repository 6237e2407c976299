//! `check_all` — the full `ewb-check` verification gauntlet in one run.
//!
//! Stages, in order:
//!
//! 1. **Exhaustive sweep** — every schedule over the default alphabet up
//!    to `--depth` (default 6, ~137 k runs) against the real 3G machine.
//!    Must be violation-free.
//! 2. **Harness teeth** — every mutant aimed at the 3G machine
//!    (`RrcMachine::MUTANTS`) must be caught by a depth-3 exhaustive
//!    sweep with a shrunk counterexample of ≤8 steps.
//!    A harness that cannot kill its mutants proves nothing.
//! 3. **Fuzz campaign** — `--seeds` (default 256) coverage-guided random
//!    schedules with continuous durations. Must be violation-free.
//! 4. **Corpus replay** — every scenario under `--corpus` (default: the
//!    built-in `crates/check/corpus/`) must replay green, and the corpus
//!    itself must kill the swapped-timers mutant.
//! 5. **Page-load oracle** — mode agreement over the full benchmark
//!    corpus, both page versions: every Original and energy-aware load
//!    keeps the 3G radio invariants and fetches every object, and both
//!    modes deliver the same page.
//!
//! On any failure the counterexample (when one exists) is written as a
//! replayable artifact under `target/check_artifacts/` and the process
//! exits non-zero.

use ewb_bench::cli;
use ewb_check::corpus;
use ewb_check::pipeline::check_all_sites;
use ewb_check::{default_alphabet, exhaustive, fuzz, CheckedRadio, Counterexample, Mutant};
use ewb_rrc::{RrcConfig, RrcMachine};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed for the page-load oracle's corpus.
const PIPELINE_SEED: u64 = 7;

/// Maximum steps per fuzzed scenario.
const FUZZ_MAX_STEPS: usize = 12;

const FLAGS: &[cli::Flag] = &[("--depth", "N"), ("--seeds", "N"), ("--corpus", "DIR")];

fn artifacts_dir() -> PathBuf {
    let dir = PathBuf::from("target/check_artifacts");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

fn write_artifact(stage: &str, cex: &Counterexample) {
    let path = artifacts_dir().join(format!("{stage}.txt"));
    let jsonl = path.with_extension("jsonl");
    std::fs::write(&path, format!("{cex}\n")).expect("write counterexample");
    std::fs::write(&jsonl, format!("{}\n", cex.scenario.to_json_line()))
        .expect("write replayable scenario");
    eprintln!(
        "  counterexample written to {} and {}",
        path.display(),
        jsonl.display()
    );
}

fn main() -> ExitCode {
    let args = cli::Args::parse(FLAGS);
    let depth: usize = args.get("--depth").unwrap_or(6);
    if depth == 0 {
        args.fail("--depth must be at least 1");
    }
    let seeds: u64 = args.get("--seeds").unwrap_or(256);
    if seeds == 0 {
        args.fail("--seeds must be at least 1");
    }
    let corpus_dir: PathBuf = args
        .get("--corpus")
        .unwrap_or_else(corpus::builtin_corpus_dir);

    let cfg = RrcConfig::paper();
    let mut failed = false;

    // Stage 1: exhaustive sweep on the real machine.
    let sweep = exhaustive::<RrcMachine>(&cfg, &default_alphabet(), depth, Mutant::None);
    println!(
        "exhaustive: depth {depth}, {} runs, {} failing, {} coverage keys",
        sweep.runs,
        sweep.failing_runs,
        sweep.coverage.len()
    );
    if let Some(cex) = &sweep.counterexample {
        eprintln!("exhaustive sweep FAILED:\n{cex}");
        write_artifact("exhaustive", cex);
        failed = true;
    }

    // Stage 2: harness teeth — every mutant must die, quickly.
    for &m in RrcMachine::MUTANTS {
        let r = exhaustive::<RrcMachine>(&cfg, &default_alphabet(), 3, m);
        match r.counterexample {
            Some(cex) if cex.scenario.steps.len() <= 8 => {
                println!(
                    "teeth: {} caught in {} step(s) ({} failing run(s))",
                    m.label(),
                    cex.scenario.steps.len(),
                    r.failing_runs
                );
            }
            Some(cex) => {
                eprintln!(
                    "teeth FAILED: {} counterexample did not shrink to ≤8 steps:\n{cex}",
                    m.label()
                );
                write_artifact(&format!("teeth-{}", m.label()), &cex);
                failed = true;
            }
            None => {
                eprintln!("teeth FAILED: mutant {} survived the sweep", m.label());
                failed = true;
            }
        }
    }

    // Stage 3: fuzz campaign.
    let fz = fuzz(&cfg, seeds, FUZZ_MAX_STEPS, Mutant::None);
    println!(
        "fuzz: {} seeds, {} failing, {} coverage keys, {} retained",
        fz.seeds_run,
        fz.failing_seeds,
        fz.coverage.len(),
        fz.corpus.len()
    );
    if let Some(cex) = &fz.counterexample {
        eprintln!("fuzz campaign FAILED:\n{cex}");
        write_artifact("fuzz", cex);
        failed = true;
    }

    // Stage 4: corpus replay — green against the real machine, lethal
    // against the swapped-timers mutant.
    match corpus::load_dir(&corpus_dir) {
        Ok(scenarios) => {
            if scenarios.len() < 10 {
                eprintln!(
                    "corpus FAILED: only {} scenario(s) under {} (need ≥10)",
                    scenarios.len(),
                    corpus_dir.display()
                );
                failed = true;
            }
            let mut green = 0usize;
            for report in corpus::replay(&cfg, &scenarios, Mutant::None) {
                if report.ok() {
                    green += 1;
                } else {
                    eprintln!("corpus scenario FAILED: {}", report.scenario);
                    for v in &report.violations {
                        eprintln!("  {v}");
                    }
                    failed = true;
                }
            }
            println!(
                "corpus: {green}/{} scenarios green ({})",
                scenarios.len(),
                corpus_dir.display()
            );
            let kills = corpus::replay(&cfg, &scenarios, Mutant::SwappedTimers)
                .iter()
                .filter(|r| !r.ok())
                .count();
            if kills == 0 {
                eprintln!("corpus FAILED: no scenario kills the swapped-timers mutant");
                failed = true;
            } else {
                println!("corpus teeth: {kills} scenario(s) kill swapped-timers");
            }
        }
        Err(e) => {
            eprintln!("corpus FAILED: {e}");
            failed = true;
        }
    }

    // Stage 5: the page-load oracle over the full page corpus.
    let violations = check_all_sites(PIPELINE_SEED);
    if violations.is_empty() {
        println!(
            "pipeline: mode agreement clean on all sites (3G invariants, every object fetched)"
        );
    } else {
        eprintln!(
            "pipeline oracle FAILED ({} violation(s)):",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        failed = true;
    }

    if failed {
        eprintln!("check_all: FAILED");
        ExitCode::FAILURE
    } else {
        println!("check_all: all stages clean");
        ExitCode::SUCCESS
    }
}
