//! Exhaustive small-scope model checking.
//!
//! Enumerates *every* step sequence over a discretized alphabet up to a
//! bounded depth and checks each against the full invariant +
//! differential set. The small-scope hypothesis does the rest: RRC bugs
//! that exist at all show up within a handful of steps, because the
//! machine's reachable control state is tiny (4 states × 3 pending
//! timers) — what matters is hitting the right *orderings*, which
//! exhaustive enumeration guarantees and random testing only samples.

use crate::backend::CheckedRadio;
use crate::mutant::Mutant;
use crate::run::{check_scenario, Violation};
use crate::scenario::{Scenario, Step};
use crate::shrink::shrink_scenario;
use std::collections::BTreeSet;
use std::fmt;

/// A failing scenario, minimized.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The shrunk, minimal failing scenario.
    pub scenario: Scenario,
    /// The enumerated scenario that first exposed the failure.
    pub original: Scenario,
    /// The violations the *shrunk* scenario produces.
    pub violations: Vec<Violation>,
}

impl Counterexample {
    /// Shrinks `original`, which fails against backend `M` under
    /// `mutant`, and records what the shrunk scenario violates.
    pub(crate) fn shrink<M: CheckedRadio>(
        cfg: &M::Config,
        original: Scenario,
        mutant: Mutant,
    ) -> Self {
        let scenario = shrink_scenario(&original, |s| !check_scenario::<M>(cfg, s, mutant).ok());
        let violations = check_scenario::<M>(cfg, &scenario, mutant).violations;
        Counterexample {
            scenario,
            original,
            violations,
        }
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.scenario)?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        write!(f, "  (first seen as `{}`)", self.original.name)
    }
}

/// What an exhaustive sweep found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Scenarios enumerated and run.
    pub runs: u64,
    /// How many of them produced at least one violation.
    pub failing_runs: u64,
    /// Union of coverage keys over all runs.
    pub coverage: BTreeSet<String>,
    /// The first failure found, shrunk (enumeration order is
    /// deterministic, so this is stable run-to-run).
    pub counterexample: Option<Counterexample>,
}

impl ExploreReport {
    /// Whether the sweep was violation-free.
    pub fn ok(&self) -> bool {
        self.failing_runs == 0
    }
}

/// Runs every sequence over `alphabet` of length 1..=`max_depth`
/// through [`check_scenario`] on backend `M`. With [`Mutant::None`]
/// this is the correctness sweep; with a faulty mutant it measures the
/// harness's detection power (and yields the minimal counterexample).
///
/// The sweep size is `Σ |alphabet|^d`, so depth 6 over the 7-symbol
/// [`crate::scenario::default_alphabet`] is ~137 k runs.
///
/// # Panics
///
/// Panics if `alphabet` is empty or `max_depth` is 0.
pub fn exhaustive<M: CheckedRadio>(
    cfg: &M::Config,
    alphabet: &[Step],
    max_depth: usize,
    mutant: Mutant,
) -> ExploreReport {
    assert!(!alphabet.is_empty(), "alphabet must be non-empty");
    assert!(max_depth > 0, "max_depth must be at least 1");
    let mut report = ExploreReport {
        runs: 0,
        failing_runs: 0,
        coverage: BTreeSet::new(),
        counterexample: None,
    };
    for depth in 1..=max_depth {
        let mut odometer = vec![0usize; depth];
        loop {
            let steps: Vec<Step> = odometer.iter().map(|&i| alphabet[i].clone()).collect();
            let name = format!(
                "exhaustive-d{depth}-{}",
                odometer
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(".")
            );
            let scenario = Scenario::new(name, steps);
            let rr = check_scenario::<M>(cfg, &scenario, mutant);
            report.runs += 1;
            report.coverage.extend(rr.coverage);
            if !rr.violations.is_empty() {
                report.failing_runs += 1;
                if report.counterexample.is_none() {
                    report.counterexample =
                        Some(Counterexample::shrink::<M>(cfg, scenario, mutant));
                }
            }
            // Increment the mixed-radix odometer; carry out = done.
            let mut pos = depth;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                odometer[pos] += 1;
                if odometer[pos] < alphabet.len() {
                    break;
                }
                odometer[pos] = 0;
            }
            if odometer.iter().all(|&i| i == 0) {
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_alphabet;
    use ewb_rrc::{RrcConfig, RrcMachine};

    #[test]
    fn depth_counts_are_exact() {
        let cfg = RrcConfig::paper();
        let a = default_alphabet();
        let r = exhaustive::<RrcMachine>(&cfg, &a, 2, Mutant::None);
        assert_eq!(r.runs, 7 + 49);
        assert!(r.ok(), "clean machine must pass: {:?}", r.counterexample);
    }

    #[test]
    fn depth_three_sweep_is_clean_and_covers_the_state_machine() {
        let cfg = RrcConfig::paper();
        let r = exhaustive::<RrcMachine>(&cfg, &default_alphabet(), 3, Mutant::None);
        assert!(r.ok(), "{:?}", r.counterexample);
        assert_eq!(r.runs, 7 + 49 + 343);
        // Every state, both timers, dormancy, and the warm promotion all
        // appear somewhere in the sweep.
        for key in [
            "state:IDLE",
            "state:FACH",
            "state:DCH",
            "ctr:t1_expirations",
            "ctr:t2_expirations",
            "ctr:fast_dormancy_releases",
            "ctr:fach_to_dch",
            "ctr:idle_to_fach",
            "trans:PROMOTING->DCH",
        ] {
            assert!(r.coverage.contains(key), "missing coverage: {key}");
        }
    }

    #[test]
    fn every_mutant_is_caught_with_a_short_counterexample() {
        let cfg = RrcConfig::paper();
        for &m in RrcMachine::MUTANTS {
            let r = exhaustive::<RrcMachine>(&cfg, &default_alphabet(), 3, m);
            let cex = r
                .counterexample
                .unwrap_or_else(|| panic!("{}: not caught", m.label()));
            assert!(
                cex.scenario.steps.len() <= 8,
                "{}: counterexample too long: {}",
                m.label(),
                cex.scenario
            );
            assert!(!cex.violations.is_empty());
        }
    }

    #[test]
    fn swapped_timers_shrinks_to_two_steps() {
        let cfg = RrcConfig::paper();
        let r = exhaustive::<RrcMachine>(&cfg, &default_alphabet(), 3, Mutant::SwappedTimers);
        let cex = r.counterexample.expect("must be caught");
        // Minimal trigger: one DCH transfer, then a wait that crosses the
        // true T1 — the mutant is still in DCH when the reference has
        // demoted to FACH.
        assert!(
            cex.scenario.steps.len() <= 2,
            "expected ≤2 steps, got {}",
            cex.scenario
        );
    }
}
