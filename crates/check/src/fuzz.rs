//! Coverage-guided random scenario generation.
//!
//! Complements the exhaustive sweep: the explorer proves every ordering
//! up to depth N, the fuzzer samples *long* schedules with continuous
//! durations the discretized alphabet cannot express (gaps that land a
//! microsecond around a deadline, odd transfer lengths, CPU-load
//! interleavings). Guidance is behavioural: a scenario that exercises a
//! coverage key no previous scenario hit is retained, and later seeds
//! mutate retained scenarios instead of starting from scratch — the
//! classic corpus-driven feedback loop, fully deterministic for a given
//! seed range.

use crate::explore::Counterexample;
use crate::mutant::Mutant;
use crate::run::check_scenario;
use crate::scenario::{Scenario, Step};
use ewb_rrc::{RrcConfig, RrcMachine};
use ewb_simcore::Xoshiro256;
use std::collections::BTreeSet;

/// What a fuzzing campaign found.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seeds run.
    pub seeds_run: u64,
    /// Seeds whose scenario produced at least one violation.
    pub failing_seeds: u64,
    /// Union of coverage keys over the campaign.
    pub coverage: BTreeSet<String>,
    /// Scenarios retained because they added coverage (the live corpus).
    pub corpus: Vec<Scenario>,
    /// First failure, shrunk.
    pub counterexample: Option<Counterexample>,
}

impl FuzzReport {
    /// Whether the campaign was violation-free.
    pub fn ok(&self) -> bool {
        self.failing_seeds == 0
    }
}

/// Runs `seeds` random scenarios (up to `max_steps` steps each) against
/// `mutant`. Deterministic: seed `k` always produces the same scenario
/// given the same retained-corpus history, and history is replayed in
/// seed order.
pub fn fuzz(cfg: &RrcConfig, seeds: u64, max_steps: usize, mutant: Mutant) -> FuzzReport {
    assert!(max_steps > 0, "max_steps must be at least 1");
    let mut report = FuzzReport {
        seeds_run: 0,
        failing_seeds: 0,
        coverage: BTreeSet::new(),
        corpus: Vec::new(),
        counterexample: None,
    };
    for seed in 0..seeds {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let scenario = if !report.corpus.is_empty() && rng.chance(0.5) {
            let base = &report.corpus[rng.usize_below(report.corpus.len())];
            mutate_scenario(base, &mut rng, max_steps, seed)
        } else {
            random_scenario(&mut rng, max_steps, seed)
        };
        let rr = check_scenario::<RrcMachine>(cfg, &scenario, mutant);
        report.seeds_run += 1;
        let novel = rr.coverage.iter().any(|k| !report.coverage.contains(k));
        report.coverage.extend(rr.coverage);
        if novel {
            report.corpus.push(scenario.clone());
        }
        if !rr.violations.is_empty() {
            report.failing_seeds += 1;
            if report.counterexample.is_none() {
                report.counterexample =
                    Some(Counterexample::shrink::<RrcMachine>(cfg, scenario, mutant));
            }
        }
    }
    report
}

/// One fresh random scenario.
fn random_scenario(rng: &mut Xoshiro256, max_steps: usize, seed: u64) -> Scenario {
    let n = 1 + rng.usize_below(max_steps);
    let steps = (0..n).map(|_| random_step(rng)).collect();
    Scenario::new(format!("fuzz-{seed}"), steps)
}

/// A small edit of a retained scenario: append, delete, or perturb.
fn mutate_scenario(base: &Scenario, rng: &mut Xoshiro256, max_steps: usize, seed: u64) -> Scenario {
    let mut steps = base.steps.clone();
    let edits = 1 + rng.usize_below(3);
    for _ in 0..edits {
        match rng.u64_below(3) {
            0 if steps.len() < max_steps => steps.push(random_step(rng)),
            1 if steps.len() > 1 => {
                let i = rng.usize_below(steps.len());
                steps.remove(i);
            }
            _ => {
                let i = rng.usize_below(steps.len());
                steps[i] = random_step(rng);
            }
        }
    }
    Scenario::new(format!("fuzz-{seed}<{}", base.name), steps)
}

/// One random step, biased toward the paper's interesting timing bands.
fn random_step(rng: &mut Xoshiro256) -> Step {
    match rng.u64_below(10) {
        0..=3 => Step::Wait {
            micros: match rng.u64_below(4) {
                // Sub-T1 activity gap.
                0 => rng.u64_below(1_000_000),
                // Straddling the T1 deadline (4 s ± 0.5 s).
                1 => 3_500_000 + rng.u64_below(1_000_000),
                // Straddling the T2 deadline (19 s ± 1 s from DCH).
                2 => 18_000_000 + rng.u64_below(2_000_000),
                // Anywhere up to 30 s.
                _ => rng.u64_below(30_000_000),
            },
        },
        4..=7 => Step::Transfer {
            needs_dch: rng.chance(0.6),
            micros: rng.u64_below(3_000_000),
            retries: if rng.chance(0.1) { 1 } else { 0 },
        },
        8 => Step::Release,
        _ => Step::CpuLoad {
            load: rng.u64_below(5) as f64 * 0.25,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CheckedRadio;

    #[test]
    fn clean_machine_survives_many_seeds() {
        let cfg = RrcConfig::paper();
        let r = fuzz(&cfg, 128, 12, Mutant::None);
        assert!(r.ok(), "counterexample: {:?}", r.counterexample);
        assert_eq!(r.seeds_run, 128);
        assert!(
            r.coverage.contains("ctr:t1_expirations"),
            "fuzzing should reach timer expirations: {:?}",
            r.coverage
        );
        assert!(!r.corpus.is_empty(), "coverage guidance retains scenarios");
    }

    #[test]
    fn fuzzing_is_deterministic() {
        let cfg = RrcConfig::paper();
        let a = fuzz(&cfg, 40, 10, Mutant::None);
        let b = fuzz(&cfg, 40, 10, Mutant::None);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.corpus, b.corpus);
    }

    #[test]
    fn mutants_fall_to_random_testing_too() {
        let cfg = RrcConfig::paper();
        for &m in RrcMachine::MUTANTS {
            let r = fuzz(&cfg, 64, 10, m);
            let cex = r
                .counterexample
                .unwrap_or_else(|| panic!("{}: survived 64 seeds", m.label()));
            assert!(
                cex.scenario.steps.len() <= 8,
                "{}: shrunk counterexample too long: {}",
                m.label(),
                cex.scenario
            );
        }
    }

    #[test]
    fn corpus_growth_is_bounded_by_novelty() {
        let cfg = RrcConfig::paper();
        let r = fuzz(&cfg, 256, 10, Mutant::None);
        // Coverage keys are finite, so the retained corpus saturates well
        // below the seed count.
        assert!(
            r.corpus.len() < 64,
            "corpus should saturate: {}",
            r.corpus.len()
        );
    }
}
