//! Golden robustness summary: the fixed-seed fault sweep must reproduce
//! the committed JSON byte-for-byte. Any change to the fault models, the
//! retry policy, the RRC machine, or the pipelines that shifts a single
//! bit of the sweep shows up here — and must be reviewed by regenerating
//! the golden file with
//! `cargo run -p ewb-bench --release --bin robustness_sweep`.

use ewb_core::experiments::robustness;
use ewb_core::webpage::{benchmark_corpus, OriginServer};
use ewb_core::CoreConfig;

/// Matches `ewb_bench::REPORT_SEED` so the table in EXPERIMENTS.md and
/// the golden summary describe the same run.
const SEED: u64 = 2013;

#[test]
fn robustness_summary_matches_golden() {
    let corpus = benchmark_corpus(SEED);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let rows = robustness::sweep(&corpus, &server, &cfg, SEED);
    let actual = robustness::summary_json(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/robustness.json");
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden summary {path}: {e}; regenerate with \
             `cargo run -p ewb-bench --release --bin robustness_sweep`"
        )
    });
    assert_eq!(
        actual,
        expected.trim_end(),
        "robustness sweep drifted from the golden summary; if the change \
         is intentional, regenerate the golden file and review the delta"
    );
}
