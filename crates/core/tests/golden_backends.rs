//! Golden backend sweep: the cross-backend policy summary must
//! reproduce the committed JSON byte-for-byte. Any drift in the
//! `RadioModel` plumbing, the ladder machines, or the pipelines shows up
//! here — and must be reviewed by regenerating the golden file with
//! `cargo run -p ewb-bench --release --bin backend_sweep`.

use ewb_core::cases::Case;
use ewb_core::experiments::backends::{self, CASES};
use ewb_core::webpage::{benchmark_corpus, OriginServer};
use ewb_core::CoreConfig;

/// Matches `ewb_bench::REPORT_SEED` so the table in EXPERIMENTS.md and
/// the golden summary describe the same run.
const SEED: u64 = 2013;

#[test]
fn backend_sweep_matches_golden() {
    let corpus = benchmark_corpus(SEED);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let rows = backends::sweep(&corpus, &server, &cfg);
    let actual = backends::summary_json(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/backends.json");
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden summary {path}: {e}; regenerate with \
             `cargo run -p ewb-bench --release --bin backend_sweep`"
        )
    });
    assert_eq!(
        actual,
        expected.trim_end(),
        "backend sweep drifted from the golden summary; if the change \
         is intentional, regenerate the golden file and review the delta"
    );
}

/// Sanity: Case enum order in the golden matches `CASES` (baseline
/// first), so savings in the file are really measured against Original.
#[test]
fn golden_rows_lead_with_the_baseline_per_backend() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/backends.json");
    let text = std::fs::read_to_string(path).expect("golden present");
    let rows: Vec<backends::BackendCaseRow> =
        serde_json::from_str(text.trim_end()).expect("valid JSON");
    assert_eq!(rows.len(), 4 * CASES.len());
    for (i, row) in rows.iter().enumerate() {
        let expected = CASES[i % CASES.len()].to_string();
        assert_eq!(row.case, expected, "row {i} out of order");
        if row.case == Case::Original.to_string() {
            assert_eq!(row.power_saving, 0.0);
        }
    }
}
