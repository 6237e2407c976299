//! Golden parallelism sweep: the plan sweep plus the learned
//! controller's feature→plan table must reproduce the committed JSON
//! byte-for-byte. Any drift in the parallel stage scheduler, the fork
//! overhead, the helper-core energy replay, the GBRT trainer, or the
//! chooser's tie-breaking shows up here — and must be reviewed by
//! regenerating the golden file with
//! `cargo run -p ewb-bench --release --bin parallel_sweep`.

use ewb_core::browser::parallel::ParallelismPlan;
use ewb_core::experiments::parallel::{self, ParallelSummary};
use ewb_core::planner::PlanFeatures;
use ewb_core::webpage::{benchmark_corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

/// Matches `ewb_bench::REPORT_SEED` so the table in EXPERIMENTS.md and
/// the golden summary describe the same run.
const SEED: u64 = 2013;

fn golden() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/parallel.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden summary {path}: {e}; regenerate with \
             `cargo run -p ewb-bench --release --bin parallel_sweep`"
        )
    })
}

#[test]
fn parallel_sweep_matches_golden() {
    let corpus = benchmark_corpus(SEED);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let rows = parallel::sweep(&corpus, &server, &cfg);
    let table = parallel::plan_table(&corpus, &server, &cfg);
    let actual = parallel::summary_json(&rows, &table);
    assert_eq!(
        actual,
        golden().trim_end(),
        "parallel sweep drifted from the golden summary; if the change \
         is intentional, regenerate the golden file and review the delta"
    );
}

/// Controller equivalence: a freshly trained plan picker must reproduce
/// the *recorded* feature→plan table choice-for-choice — same plan id,
/// same predicted energy delta to the parsed-JSON bit. This pins the
/// whole learned path (feature extraction → GBRT fit → argmin-with-
/// margin choice) independently of the sweep serialization.
#[test]
fn trained_controller_reproduces_the_recorded_plan_table() {
    let corpus = benchmark_corpus(SEED);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let recorded: ParallelSummary =
        serde_json::from_str(golden().trim_end()).expect("golden summary deserializes");
    assert_eq!(recorded.plan_table.len(), corpus.sites().len() * 2);

    let chooser = parallel::trained_chooser(&corpus, &server, &cfg);
    for (site, choices) in corpus.sites().iter().zip(recorded.plan_table.chunks(2)) {
        for (version, choice) in [PageVersion::Mobile, PageVersion::Full].iter().zip(choices) {
            let page = corpus.page(&site.key, *version).expect("known page");
            let features = PlanFeatures::of_page(page);
            let plan = chooser.choose(&features);
            assert_eq!(
                plan.id(),
                choice.plan,
                "{}: retrained controller disagrees with the recorded table",
                choice.page
            );
            assert_eq!(
                chooser.predicted_delta_j(&features, plan).to_bits(),
                choice.predicted_delta_j.to_bits(),
                "{}: predicted delta drifted",
                choice.page
            );
        }
    }
}

/// The sequential anchor row of the golden sweep must stay exactly the
/// energy of the pre-parallelism session path — the golden would mask a
/// sequential regression if its own anchor drifted.
#[test]
fn golden_sequential_row_matches_a_live_sequential_run() {
    let corpus = benchmark_corpus(SEED);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let recorded: ParallelSummary =
        serde_json::from_str(golden().trim_end()).expect("golden summary deserializes");
    let seq = &recorded.rows[0];
    assert_eq!(seq.plan, "seq");
    let pages = parallel::full_pages(&corpus);
    let per_page = parallel::per_page_totals(&pages, &server, &cfg, ParallelismPlan::SEQUENTIAL);
    let joules: f64 = per_page.iter().map(|(j, _)| j).sum();
    assert_eq!(joules.to_bits(), seq.joules.to_bits());
}
