//! A realistic browsing session under Algorithm 2 (Predict-20): several
//! pages, mixed dwell times, radio state carried across clicks, and the
//! GBRT predictor deciding each release.
//!
//! ```text
//! cargo run --example browse_session --release
//! ```

use ewb_core::cases::Case;
use ewb_core::session::{simulate_session, SessionOpts, Visit};
use ewb_core::traces::{reading_time_params, ReadingTimePredictor, TraceConfig, TraceDataset};
use ewb_core::webpage::{benchmark_corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

fn main() {
    let corpus = benchmark_corpus(7);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();

    // Train the reading-time predictor on a generated user trace, with
    // the paper's 2 s interest-threshold filtering (§4.3.4).
    println!("training the GBRT reading-time predictor...");
    let trace = TraceDataset::generate(&TraceConfig::paper());
    let predictor =
        ReadingTimePredictor::train_with_interest_threshold(&trace, 2.0, &reading_time_params());
    println!(
        "  trained on {} engaged visits\n",
        trace.engaged_only(2.0).len()
    );

    // A session: skim two pages, settle into a long article, skim again.
    let plan: [(&str, PageVersion, f64); 5] = [
        ("cnn", PageVersion::Mobile, 4.0),
        ("bbc", PageVersion::Mobile, 1.5),
        ("espn", PageVersion::Full, 45.0),
        ("amazon", PageVersion::Mobile, 8.0),
        ("nytime", PageVersion::Full, 30.0),
    ];
    let visits: Vec<Visit<'_>> = plan
        .iter()
        .map(|&(key, version, reading_s)| Visit {
            page: corpus.page(key, version).expect("benchmark site"),
            reading_s,
            features: None,
        })
        .collect();

    for case in [Case::Original, Case::Predict20] {
        let out = simulate_session(
            &server,
            &visits,
            case,
            &cfg,
            SessionOpts {
                predictor: Some(&predictor),
                ..SessionOpts::three_g(&cfg)
            },
        );
        println!("--- {case} ---");
        for p in &out.pages {
            let decision = match (p.predicted_s, p.released_at) {
                (Some(tr), Some(_)) => format!("Tr={tr:.1}s > Td -> released"),
                (Some(tr), None) => format!("Tr={tr:.1}s <= Td -> stay connected"),
                (None, Some(_)) => "released".to_string(),
                (None, None) => "timers only".to_string(),
            };
            println!(
                "  {:<38} load {:>5.1}s read {:>5.1}s  {:>6.1} J  [{decision}]",
                p.url,
                p.load_time_s(),
                p.reading_s,
                p.total_joules()
            );
        }
        println!(
            "  session: {:.1} J over {:.0} s, {} cold promotions, {} releases\n",
            out.total_joules,
            out.duration.as_secs_f64(),
            out.counters.idle_to_dch,
            out.counters.fast_dormancy_releases
        );
    }
}
