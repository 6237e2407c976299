//! The scenario corpus: JSONL regression files.
//!
//! Every counterexample the harness ever finds is meant to be appended
//! to a corpus file and checked in, turning a one-off bug into a
//! permanent regression test. The seed corpus under
//! `crates/check/corpus/` covers the paper's canonical timing patterns
//! (timer cascades, deadline boundaries, dormancy, warm promotions,
//! retry storms).
//!
//! Format: one [`Scenario`] per line, serialized JSON. Blank lines and
//! lines starting with `#` are skipped, so files can carry comments.

use crate::mutant::Mutant;
use crate::run::{check_scenario, RunReport};
use crate::scenario::Scenario;
use ewb_rrc::{RrcConfig, RrcMachine};
use std::path::{Path, PathBuf};

/// The checked-in seed corpus directory (`crates/check/corpus/`).
pub fn builtin_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Loads one JSONL corpus file.
///
/// # Errors
///
/// Returns a description naming the file and line on I/O or parse
/// failure.
pub fn load_file(path: &Path) -> Result<Vec<Scenario>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let s = Scenario::from_json_line(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        out.push(s);
    }
    Ok(out)
}

/// Loads every `*.jsonl` file in `dir`, sorted by file name for
/// deterministic replay order.
///
/// # Errors
///
/// Returns a description of the first I/O or parse failure.
pub fn load_dir(dir: &Path) -> Result<Vec<Scenario>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for f in files {
        out.extend(load_file(&f)?);
    }
    Ok(out)
}

/// Serializes scenarios to JSONL (with trailing newline), ready to be
/// written to a corpus file.
pub fn to_jsonl(scenarios: &[Scenario]) -> String {
    let mut s = String::new();
    for sc in scenarios {
        s.push_str(&sc.to_json_line());
        s.push('\n');
    }
    s
}

/// Replays every scenario against `mutant` (normally [`Mutant::None`])
/// and returns each run's report, in corpus order.
pub fn replay(cfg: &RrcConfig, scenarios: &[Scenario], mutant: Mutant) -> Vec<RunReport> {
    scenarios
        .iter()
        .map(|s| check_scenario::<RrcMachine>(cfg, s, mutant))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_corpus_loads_and_replays_green() {
        let scenarios = load_dir(&builtin_corpus_dir()).expect("seed corpus must load");
        assert!(
            scenarios.len() >= 10,
            "the seed corpus must hold at least 10 scenarios, found {}",
            scenarios.len()
        );
        let cfg = RrcConfig::paper();
        for report in replay(&cfg, &scenarios, Mutant::None) {
            assert!(
                report.ok(),
                "corpus scenario `{}` violated: {:?}",
                report.scenario.name,
                report.violations
            );
        }
    }

    #[test]
    fn corpus_names_are_unique() {
        let scenarios = load_dir(&builtin_corpus_dir()).unwrap();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario names in corpus");
    }

    #[test]
    fn corpus_catches_the_timer_mutant() {
        // The seed corpus is strong enough on its own to kill the classic
        // swapped-timer bug — replay is a real oracle, not a smoke test.
        let scenarios = load_dir(&builtin_corpus_dir()).unwrap();
        let cfg = RrcConfig::paper();
        let failures = replay(&cfg, &scenarios, Mutant::SwappedTimers)
            .iter()
            .filter(|r| !r.ok())
            .count();
        assert!(failures > 0, "seed corpus must catch swapped timers");
    }

    #[test]
    fn jsonl_roundtrips_through_load() {
        use crate::scenario::Step;
        let dir = std::env::temp_dir().join("ewb-check-corpus-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let scenarios = vec![
            Scenario::new("a", vec![Step::Release]),
            Scenario::new("b", vec![Step::Wait { micros: 42 }]),
        ];
        let mut text = String::from("# comment line\n\n");
        text.push_str(&to_jsonl(&scenarios));
        std::fs::write(&path, text).unwrap();
        let back = load_file(&path).unwrap();
        assert_eq!(back, scenarios);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error_not_a_panic() {
        assert!(load_file(Path::new("/nonexistent/corpus.jsonl")).is_err());
        assert!(load_dir(Path::new("/nonexistent")).is_err());
    }
}
