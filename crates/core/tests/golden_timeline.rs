//! Golden observability timeline: the fixed-seed reference session must
//! reproduce the committed JSON-lines event stream byte for byte. Any
//! change to the fault models, the fetcher, the browser pipelines, the
//! RRC machine, or the event schema that shifts a single event shows up
//! here — and must be reviewed by regenerating the golden file with
//! `cargo run -p ewb-bench --release --bin robustness_sweep`.

use ewb_core::experiments::timeline;
use ewb_core::webpage::{benchmark_corpus, OriginServer};
use ewb_core::CoreConfig;

/// Matches `ewb_bench::REPORT_SEED`, the seed `robustness_sweep` writes
/// the golden file at.
const SEED: u64 = 2013;

#[test]
fn timeline_matches_golden() {
    let corpus = benchmark_corpus(SEED);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let (events, _) = timeline::record_session_timeline(&corpus, &server, &cfg, SEED);
    let actual = ewb_core::obs::timeline::to_jsonl(&events);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timeline.jsonl");
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden timeline {path}: {e}; regenerate with \
             `cargo run -p ewb-bench --release --bin robustness_sweep`"
        )
    });
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "reference timeline drifted from the golden file; if the change \
         is intentional, regenerate the golden file and review the delta"
    );
}
