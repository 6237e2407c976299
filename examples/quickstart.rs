//! Quickstart: load one page both ways and see where the 30 % goes.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use ewb_core::cases::Case;
use ewb_core::session::{simulate_session, SessionOpts, Visit};
use ewb_core::webpage::{benchmark_corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

fn main() {
    // The synthetic Table 3 corpus and an origin server holding it.
    let corpus = benchmark_corpus(42);
    let server = OriginServer::from_corpus(&corpus);
    let espn = corpus
        .page("espn", PageVersion::Full)
        .expect("espn is part of the benchmark");
    println!(
        "page: {} ({:.0} KB, {} objects)\n",
        espn.root_url(),
        espn.total_bytes() as f64 / 1024.0,
        espn.object_count()
    );

    // One visit: open the page, read for 20 seconds.
    let cfg = CoreConfig::paper();
    let visits = [Visit {
        page: espn,
        reading_s: 20.0,
        features: None,
    }];

    let run = |case| simulate_session(&server, &visits, case, &cfg, SessionOpts::three_g(&cfg));
    let original = run(Case::Original);
    let ours = run(Case::Accurate9);

    let op = &original.pages[0];
    let ep = &ours.pages[0];
    println!("                      original    energy-aware");
    println!(
        "data transmission   {:>8.1} s   {:>8.1} s",
        op.tx_time_s(),
        ep.tx_time_s()
    );
    println!(
        "page load           {:>8.1} s   {:>8.1} s",
        op.load_time_s(),
        ep.load_time_s()
    );
    println!(
        "energy (open)       {:>8.1} J   {:>8.1} J",
        op.load_joules, ep.load_joules
    );
    println!(
        "energy (reading)    {:>8.1} J   {:>8.1} J",
        op.reading_joules, ep.reading_joules
    );
    println!(
        "energy (total)      {:>8.1} J   {:>8.1} J",
        original.total_joules, ours.total_joules
    );
    println!(
        "\nsaving: {:.1}% of the handset energy (the paper reports >30%)",
        (1.0 - ours.total_joules / original.total_joules) * 100.0
    );
    if let Some(at) = ep.released_at {
        println!(
            "the energy-aware browser released the radio to IDLE at {:.1} s",
            at.as_secs_f64()
        );
    }
}
