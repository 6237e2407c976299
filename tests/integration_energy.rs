//! Cross-crate integration: session energy accounting.

use ewb_core::cases::Case;
use ewb_core::session::{simulate_session, PageRecord, SessionOpts, SessionOutcome, Visit};
use ewb_core::webpage::{benchmark_corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

fn setup() -> (ewb_core::webpage::Corpus, OriginServer, CoreConfig) {
    let corpus = benchmark_corpus(5);
    let server = OriginServer::from_corpus(&corpus);
    (corpus, server, CoreConfig::paper())
}

/// A session with the paper's default options.
fn run(
    server: &OriginServer,
    visits: &[Visit<'_>],
    case: Case,
    cfg: &CoreConfig,
) -> SessionOutcome {
    simulate_session(server, visits, case, cfg, SessionOpts::three_g(cfg))
}

#[test]
fn per_page_energy_partitions_the_session_total() {
    let (corpus, server, cfg) = setup();
    let visits: Vec<Visit<'_>> = [("cnn", 12.0), ("msn", 30.0), ("bbc", 3.0)]
        .iter()
        .map(|&(k, r)| Visit {
            page: corpus.page(k, PageVersion::Mobile).unwrap(),
            reading_s: r,
            features: None,
        })
        .collect();
    for case in [Case::Original, Case::Accurate9, Case::EnergyAwareAlwaysOff] {
        let out = run(&server, &visits, case, &cfg);
        let sum: f64 = out.pages.iter().map(PageRecord::total_joules).sum();
        assert!(
            (sum - out.total_joules).abs() < 1e-6,
            "{case}: {sum} vs {}",
            out.total_joules
        );
    }
}

#[test]
fn every_case_is_at_least_as_cheap_as_original_on_long_reads() {
    let (corpus, server, cfg) = setup();
    let visits = [Visit {
        page: corpus.page("espn", PageVersion::Full).unwrap(),
        reading_s: 30.0,
        features: None,
    }];
    let base = run(&server, &visits, Case::Original, &cfg).total_joules;
    for case in [
        Case::OriginalAlwaysOff,
        Case::EnergyAwareAlwaysOff,
        Case::Accurate9,
        Case::Accurate20,
    ] {
        let j = run(&server, &visits, case, &cfg).total_joules;
        assert!(j < base, "{case}: {j} should beat {base}");
    }
}

#[test]
fn reading_period_energy_matches_hand_computation() {
    // Original, long read: reading window = T1 at DCH-hold + T2 at FACH +
    // remainder at IDLE (display/system only).
    let (corpus, server, cfg) = setup();
    let reading = 30.0;
    let visits = [Visit {
        page: corpus.page("cnn", PageVersion::Mobile).unwrap(),
        reading_s: reading,
        features: None,
    }];
    let out = run(&server, &visits, Case::Original, &cfg);
    // T1 is armed at the *last transfer end*; the layout computation
    // between tx-end and page-open consumes part of the DCH tail before
    // the reading window starts.
    let p = &out.pages[0];
    let gap = (p.opened - p.tx_end).as_secs_f64();
    // (gap is measured to `tx_end`, which itself trails the final byte by
    // the last object's processing — hence the loose tolerance.)
    let expected = (4.0 - gap) * 1.15 + 15.0 * 0.63 + (reading - (19.0 - gap)) * 0.15;
    let got = p.reading_joules;
    assert!(
        (got - expected).abs() < 0.3,
        "reading energy {got} vs hand-computed {expected} (gap {gap})"
    );
}

#[test]
fn released_reading_energy_is_mostly_idle() {
    let (corpus, server, cfg) = setup();
    let reading = 30.0;
    let visits = [Visit {
        page: corpus.page("cnn", PageVersion::Mobile).unwrap(),
        reading_s: reading,
        features: None,
    }];
    let out = run(&server, &visits, Case::Accurate9, &cfg);
    let p = &out.pages[0];
    assert!(p.released_at.is_some());
    // α at the post-load state + release window + IDLE for the rest: far
    // below the timer-driven cost and above pure IDLE.
    let pure_idle = reading * 0.15;
    let timer_cost = 4.0 * 1.15 + 15.0 * 0.63 + (reading - 19.0) * 0.15;
    assert!(p.reading_joules < 0.5 * timer_cost, "{}", p.reading_joules);
    assert!(p.reading_joules > pure_idle, "{}", p.reading_joules);
}

#[test]
fn short_reads_make_always_off_expensive() {
    // A chain of 1-second hops: always-off pays a cold promotion per page.
    let (corpus, server, cfg) = setup();
    let visits: Vec<Visit<'_>> = std::iter::repeat_n(("cnn", 1.0), 4)
        .map(|(k, r)| Visit {
            page: corpus.page(k, PageVersion::Mobile).unwrap(),
            reading_s: r,
            features: None,
        })
        .collect();
    let orig = run(&server, &visits, Case::Original, &cfg);
    let off = run(&server, &visits, Case::OriginalAlwaysOff, &cfg);
    assert!(off.counters.idle_to_dch > orig.counters.idle_to_dch);
    assert!(
        off.total_load_time_s > orig.total_load_time_s,
        "always-off must be slower on short reads"
    );
}

#[test]
fn oracle_never_releases_below_threshold_and_always_above() {
    let (corpus, server, cfg) = setup();
    for (reading, expect_release) in [(5.0, false), (9.5, true), (25.0, true)] {
        let visits = [Visit {
            page: corpus.page("aol", PageVersion::Mobile).unwrap(),
            reading_s: reading,
            features: None,
        }];
        let out = run(&server, &visits, Case::Accurate9, &cfg);
        assert_eq!(
            out.pages[0].released_at.is_some(),
            expect_release,
            "reading {reading}"
        );
    }
}
